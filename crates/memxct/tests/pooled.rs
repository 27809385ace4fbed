//! Pooled-execution determinism: reconstructions on the persistent
//! worker pool must be **bit-identical for every thread count** (the
//! per-row accumulation order and the fixed-chunk reduction order never
//! depend on how many workers the rows are split across), and the serial
//! executor, a one-worker pool, and one rank are the same bits again.

use memxct::{
    Config, ExecMode, FaultTolerance, Kernel, ReconInput, ReconRequest, ReconResponse,
    ReconstructorBuilder, Solver, StopRule,
};
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
        .config(Config {
            kernel,
            ..Config::default()
        })
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
    for kernel in [Kernel::Serial, Kernel::Buffered] {
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

/// One summation order, one executor. On 72×80 (5 184 pixels, 5 760
/// rays: two 4096-element reduction chunks per domain, where a sequential
/// dot would differ from the chunked one) `Serial`, `Pooled` on 1, 2 and
/// 3 threads and one rank give the same bits in every pixel and every
/// record, for CG and SIRT at widths 1 and 3.
#[test]
fn serial_pooled_and_one_rank_are_bit_identical_on_multi_chunk_vectors() {
    let (grid, scan, sino) = problem(72, 80);
    assert!(grid.num_pixels() > xct_sparse::DOT_CHUNK && scan.num_rays() > xct_sparse::DOT_CHUNK);
    let slices: Vec<Sinogram> = (0..3)
        .map(|j| {
            let scaled = sino.data().iter().map(|&v| v * (1.0 + 0.1 * j as f32));
            Sinogram::new(scan, scaled.collect())
        })
        .collect();
    let one_rank = ExecMode::Distributed {
        ranks: 1,
        ft: FaultTolerance::disabled(),
    };
    // Every pixel's bits and every record's norms' bits, slice by slice.
    let bits = |resp: &ReconResponse| -> (Vec<u32>, Vec<u64>) {
        let pixels = resp.images.iter().flatten().map(|v| v.to_bits());
        let records = resp.slice_records.iter().flatten();
        let norms = records.flat_map(|r| [r.residual_norm.to_bits(), r.solution_norm.to_bits()]);
        (pixels.collect(), norms.collect())
    };
    for width in [1usize, 3] {
        let input = match width {
            1 => ReconInput::Slice(slices[0].clone()),
            _ => ReconInput::Batch(slices.clone()),
        };
        let recs: Vec<_> = [1usize, 2, 3]
            .map(|threads| {
                let builder = ReconstructorBuilder::new(grid, scan).batch(width);
                builder
                    .use_pool(true)
                    .pool_threads(threads)
                    .build()
                    .unwrap()
            })
            .into();
        for solver in [Solver::Cg, Solver::Sirt { relax: 1.0 }] {
            let req = ReconRequest::cg(input.clone(), StopRule::Fixed(6)).solver(solver);
            let want = bits(&recs[0].run(&req).unwrap());
            assert_eq!(want.1.len(), width * 6 * 2, "six records a slice");
            let tag = format!("{solver:?} width {width}");
            let one_rank = recs[0].run(&req.clone().mode(one_rank.clone())).unwrap();
            assert!(bits(&one_rank) == want, "{tag}: one rank");
            for (rec, threads) in recs.iter().zip([1, 2, 3]) {
                let pooled = rec.run(&req.clone().mode(ExecMode::Pooled)).unwrap();
                assert!(bits(&pooled) == want, "{tag}: pooled on {threads}");
            }
        }
    }
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
    // Pooled SpMV is metered under the kernel's own name, like serial.
    assert!(snap.counters["spmv/buffered/calls"] > 0);
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
