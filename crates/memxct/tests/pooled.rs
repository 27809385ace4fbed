//! Pooled-execution determinism: reconstructions on the persistent
//! worker pool must be **bit-identical for every thread count** (the
//! per-row accumulation order and the fixed-chunk reduction order never
//! depend on how many workers the rows are split across), and must agree
//! with the unpooled path to reduction-reordering tolerance.

use memxct::{ExecMode, Kernel, ReconInput, ReconRequest, ReconstructorBuilder, StopRule};
use xct_geometry::{disk, simulate_sinogram, Grid, NoiseModel, ScanGeometry, Sinogram};

fn problem(n: u32, m: u32) -> (Grid, ScanGeometry, Sinogram) {
    let grid = Grid::new(n);
    let scan = ScanGeometry::new(m, n);
    let img = disk(0.6, 1.0).rasterize(n);
    let sino = simulate_sinogram(&img, &grid, &scan, NoiseModel::None, 0);
    (grid, scan, sino)
}

/// `req` on the worker pool.
fn pooled(req: ReconRequest) -> ReconRequest {
    req.mode(ExecMode::Pooled)
}

fn cg(sino: &Sinogram, iters: usize) -> ReconRequest {
    ReconRequest::cg(ReconInput::Slice(sino.clone()), StopRule::Fixed(iters))
}

fn pooled_image(
    grid: Grid,
    scan: ScanGeometry,
    sino: &Sinogram,
    kernel: Kernel,
    threads: usize,
) -> Vec<f32> {
    let rec = ReconstructorBuilder::new(grid, scan)
        .kernel(kernel)
        .build_ell(kernel == Kernel::Ell)
        .use_pool(true)
        .pool_threads(threads)
        .build()
        .unwrap();
    assert_eq!(rec.pool_threads(), Some(threads));
    rec.run(&pooled(cg(sino, 12))).unwrap().images.remove(0)
}

#[test]
fn pooled_cg_is_bit_identical_across_thread_counts() {
    let (grid, scan, sino) = problem(24, 36);
    for kernel in [Kernel::Serial, Kernel::Buffered, Kernel::Ell] {
        let want = pooled_image(grid, scan, &sino, kernel, 1);
        for threads in [2, 3, 8] {
            let got = pooled_image(grid, scan, &sino, kernel, threads);
            assert!(
                got.iter()
                    .zip(&want)
                    .all(|(g, w)| g.to_bits() == w.to_bits()),
                "{kernel:?} at {threads} threads diverges from 1 thread"
            );
        }
    }
}

#[test]
fn pooled_kernels_agree_with_each_other_bitwise() {
    // All pooled kernels share the per-row accumulation order of the CSR
    // memoization *and* the same chunked reduction, so they agree exactly
    // — a stronger statement than the unpooled backends' approximate
    // agreement.
    let (grid, scan, sino) = problem(24, 36);
    let csr = pooled_image(grid, scan, &sino, Kernel::Serial, 2);
    let buffered = pooled_image(grid, scan, &sino, Kernel::Buffered, 2);
    assert!(csr
        .iter()
        .zip(&buffered)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
}

#[test]
fn pooled_matches_unpooled_to_reduction_tolerance() {
    let (grid, scan, sino) = problem(24, 36);
    let rec = ReconstructorBuilder::new(grid, scan).build().unwrap();
    let unpooled = rec.run(&cg(&sino, 12)).unwrap().images.remove(0);
    let pooled = pooled_image(grid, scan, &sino, Kernel::Buffered, 2);
    // The pooled f64 dot sums chunk partials instead of a single running
    // sum, so the trajectory differs in the last bits only.
    let err: f64 = pooled
        .iter()
        .zip(&unpooled)
        .map(|(&a, &b)| ((a - b) as f64).powi(2))
        .sum::<f64>()
        .sqrt();
    let norm: f64 = unpooled
        .iter()
        .map(|&v| (v as f64).powi(2))
        .sum::<f64>()
        .sqrt();
    assert!(err < 1e-4 * norm.max(1.0), "rel err {}", err / norm);
}

#[test]
fn pooled_reconstructor_reports_pool_metrics_and_validates_plans() {
    let (grid, scan, sino) = problem(24, 36);
    let rec = ReconstructorBuilder::new(grid, scan)
        .use_pool(true)
        .pool_threads(2)
        .validate_plan(true)
        .build()
        .unwrap();
    rec.run(&pooled(cg(&sino, 4))).unwrap();
    let snap = rec.metrics();
    // Pool instrumentation: dispatch latency, utilization, worker count.
    assert!(snap.counters[xct_runtime::POOL_DISPATCHES] > 0);
    assert!(snap.timers.contains_key(xct_runtime::POOL_DISPATCH_SECONDS));
    assert_eq!(snap.gauges[xct_runtime::POOL_WORKERS], 2.0);
    // Plan imbalance gauges: ≥ 1 by definition, and the nnz-balanced
    // split should stay close to ideal.
    let imb = snap.gauges[memxct::POOL_IMBALANCE_FORWARD];
    assert!((1.0..2.0).contains(&imb), "imbalance {imb}");
    assert!(snap.gauges.contains_key(memxct::POOL_IMBALANCE_BACK));
    // Pooled SpMV is metered like every other operator.
    assert!(snap.counters["spmv/pooled/calls"] > 0);
    // The validation sweep covers the four execution plans on top of the
    // nine memoized structures.
    let report = rec.validate_plan();
    assert!(report.is_ok(), "{report}");
    let plans = memxct::PooledPlans::new_batched(rec.operators(), rec.kernel(), 2, 1);
    assert_eq!(memxct::exec_checker(&plans).len(), 4);
}

#[test]
fn pooled_sirt_is_bit_identical_across_thread_counts() {
    let (grid, scan, sino) = problem(24, 36);
    let image = |threads: usize| {
        let rec = ReconstructorBuilder::new(grid, scan)
            .use_pool(true)
            .pool_threads(threads)
            .build()
            .unwrap();
        let req = ReconRequest::sirt(ReconInput::Slice(sino.clone()), 8);
        rec.run(&pooled(req)).unwrap().images.remove(0)
    };
    let want = image(1);
    for threads in [2, 8] {
        let got = image(threads);
        assert!(got
            .iter()
            .zip(&want)
            .all(|(g, w)| g.to_bits() == w.to_bits()));
    }
}
