//! Golden-value regression tests for the generic iteration engine.
//!
//! Every pre-refactor solver loop (CGLS, SIRT, Tikhonov CGLS,
//! nonnegative SIRT, smoothed CGLS, OS-SIRT) is copied here verbatim as a
//! reference implementation; the tests assert that the one engine
//! entry point — `run_engine` over a `ProjectionOperator`, on the serial
//! operator and on a two-thread pool alike — and the request API
//! reproduce the reference `IterationRecord` sequences **bit-for-bit**
//! (residual and solution norms compared as raw f64 bits), plus the
//! distributed-equals-serial checks for both CG and SIRT with early
//! termination.

use memxct::{
    cgls_smooth, gradient_operator, preprocess, run_engine, try_reconstruct_distributed,
    BuildError, CgRule, Config, Constraint, DistConfig, ExecMode, FaultTolerance, IterationRecord,
    Kernel, KernelOperator, Operators, PooledPlans, ProjectionOperator, ReconError, ReconInput,
    ReconRequest, Reconstructor, ReconstructorBuilder, SirtRule, Solver, StopRule, UpdateRule,
};
use xct_geometry::{disk, simulate_sinogram, Grid, NoiseModel, ScanGeometry, Sinogram};
use xct_runtime::WorkerPool;
use xct_sparse::{spmv, CsrMatrix};

/// The pre-refactor solver loops, copied verbatim (timings aside) from the
/// seed's `solvers.rs` / `subsets.rs`.
mod reference {
    use memxct::{IterationRecord, StopRule};

    fn dot(a: &[f32], b: &[f32]) -> f64 {
        a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()
    }

    fn norm(a: &[f32]) -> f64 {
        dot(a, a).sqrt()
    }

    fn max_iters(stop: StopRule) -> usize {
        match stop {
            StopRule::Fixed(n) => n,
            StopRule::EarlyTermination { max_iters, .. } => max_iters,
        }
    }

    fn should_stop(stop: StopRule, prev: f64, curr: f64) -> bool {
        match stop {
            StopRule::Fixed(_) => false,
            StopRule::EarlyTermination { min_decrease, .. } => {
                prev.is_finite() && prev > 0.0 && (prev - curr) / prev < min_decrease
            }
        }
    }

    pub fn cgls<F, G>(
        y: &[f32],
        nx: usize,
        mut forward: F,
        mut back: G,
        stop: StopRule,
    ) -> (Vec<f32>, Vec<IterationRecord>)
    where
        F: FnMut(&[f32]) -> Vec<f32>,
        G: FnMut(&[f32]) -> Vec<f32>,
    {
        let mut x = vec![0f32; nx];
        let mut r = y.to_vec();
        let mut s = back(&r);
        let mut p = s.clone();
        let mut gamma = dot(&s, &s);
        let mut records = Vec::new();
        let mut prev_res = f64::INFINITY;
        for iter in 0..max_iters(stop) {
            if gamma == 0.0 {
                break;
            }
            let q = forward(&p);
            let qq = dot(&q, &q);
            if qq == 0.0 {
                break;
            }
            let alpha = (gamma / qq) as f32;
            for (xi, &pi) in x.iter_mut().zip(&p) {
                *xi += alpha * pi;
            }
            for (ri, &qi) in r.iter_mut().zip(&q) {
                *ri -= alpha * qi;
            }
            s = back(&r);
            let gamma_new = dot(&s, &s);
            let beta = (gamma_new / gamma) as f32;
            gamma = gamma_new;
            for (pi, &si) in p.iter_mut().zip(&s) {
                *pi = si + beta * *pi;
            }
            let res = norm(&r);
            records.push(IterationRecord {
                iter,
                residual_norm: res,
                solution_norm: norm(&x),
                seconds: 0.0,
            });
            if should_stop(stop, prev_res, res) {
                break;
            }
            prev_res = res;
        }
        (x, records)
    }

    pub fn cgls_regularized<F, G>(
        y: &[f32],
        nx: usize,
        mut forward: F,
        mut back: G,
        lambda: f32,
        stop: StopRule,
    ) -> (Vec<f32>, Vec<IterationRecord>)
    where
        F: FnMut(&[f32]) -> Vec<f32>,
        G: FnMut(&[f32]) -> Vec<f32>,
    {
        let mut x = vec![0f32; nx];
        let mut r = y.to_vec();
        let mut s = back(&r);
        let mut p = s.clone();
        let mut gamma = dot(&s, &s);
        let mut records = Vec::new();
        let mut prev_res = f64::INFINITY;
        for iter in 0..max_iters(stop) {
            if gamma == 0.0 {
                break;
            }
            let q = forward(&p);
            let qq = dot(&q, &q) + lambda as f64 * dot(&p, &p);
            if qq == 0.0 {
                break;
            }
            let alpha = (gamma / qq) as f32;
            for (xi, &pi) in x.iter_mut().zip(&p) {
                *xi += alpha * pi;
            }
            for (ri, &qi) in r.iter_mut().zip(&q) {
                *ri -= alpha * qi;
            }
            s = back(&r);
            for (si, &xi) in s.iter_mut().zip(&x) {
                *si -= lambda * xi;
            }
            let gamma_new = dot(&s, &s);
            let beta = (gamma_new / gamma) as f32;
            gamma = gamma_new;
            for (pi, &si) in p.iter_mut().zip(&s) {
                *pi = si + beta * *pi;
            }
            let res = norm(&r);
            records.push(IterationRecord {
                iter,
                residual_norm: res,
                solution_norm: norm(&x),
                seconds: 0.0,
            });
            if should_stop(stop, prev_res, res) {
                break;
            }
            prev_res = res;
        }
        (x, records)
    }

    pub fn sirt<F, G>(
        y: &[f32],
        nx: usize,
        mut forward: F,
        mut back: G,
        iters: usize,
        nonneg: bool,
    ) -> (Vec<f32>, Vec<IterationRecord>)
    where
        F: FnMut(&[f32]) -> Vec<f32>,
        G: FnMut(&[f32]) -> Vec<f32>,
    {
        let ny = y.len();
        let row_sum = forward(&vec![1f32; nx]);
        let col_sum = back(&vec![1f32; ny]);
        let inv = |v: f32| if v > 0.0 { 1.0 / v } else { 0.0 };
        let row_w: Vec<f32> = row_sum.into_iter().map(inv).collect();
        let col_w: Vec<f32> = col_sum.into_iter().map(inv).collect();
        let mut x = vec![0f32; nx];
        let mut records = Vec::with_capacity(iters);
        for iter in 0..iters {
            let mut residual = forward(&x);
            for (ri, &yi) in residual.iter_mut().zip(y) {
                *ri = yi - *ri;
            }
            let res_norm = norm(&residual);
            for (ri, &w) in residual.iter_mut().zip(&row_w) {
                *ri *= w;
            }
            let update = back(&residual);
            if nonneg {
                for ((xi, u), &w) in x.iter_mut().zip(update).zip(&col_w) {
                    *xi = (*xi + u * w).max(0.0);
                }
            } else {
                for ((xi, u), &w) in x.iter_mut().zip(update).zip(&col_w) {
                    *xi += u * w;
                }
            }
            records.push(IterationRecord {
                iter,
                residual_norm: res_norm,
                solution_norm: norm(&x),
                seconds: 0.0,
            });
        }
        (x, records)
    }
}

fn setup(n: u32, m: u32) -> (Operators, Vec<f32>) {
    let (ops, y, _) = setup_with_sinogram(n, m);
    (ops, y)
}

fn setup_with_sinogram(n: u32, m: u32) -> (Operators, Vec<f32>, Sinogram) {
    let grid = Grid::new(n);
    let scan = ScanGeometry::new(m, n);
    let img = disk(0.6, 1.0).rasterize(n);
    let sino = simulate_sinogram(&img, &grid, &scan, NoiseModel::None, 0);
    let ops = preprocess(grid, scan, &Config::default());
    let y = ops.order_sinogram(&sino);
    (ops, y, sino)
}

/// Records must agree exactly: same length, same iteration numbers, and
/// bit-identical residual/solution norms (`seconds` is wall clock and
/// excluded).
fn assert_identical_records(got: &[IterationRecord], want: &[IterationRecord]) {
    assert_eq!(got.len(), want.len(), "record count differs");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.iter, w.iter);
        assert_eq!(
            g.residual_norm.to_bits(),
            w.residual_norm.to_bits(),
            "residual at iter {}: {} vs {}",
            g.iter,
            g.residual_norm,
            w.residual_norm
        );
        assert_eq!(
            g.solution_norm.to_bits(),
            w.solution_norm.to_bits(),
            "solution at iter {}: {} vs {}",
            g.iter,
            g.solution_norm,
            w.solution_norm
        );
    }
}

fn assert_identical_images(got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "pixel {i}: {g} vs {w}");
    }
}

/// `run_engine` with a fresh `rule()` under `constraint` must reproduce
/// the reference solve bit for bit on every executor of the one
/// `KernelOperator`: the serial operator and a two-thread pool.
fn assert_engine_matches<R: UpdateRule>(
    ops: &Operators,
    y: &[f32],
    rule: impl Fn() -> R,
    constraint: Constraint,
    stop: StopRule,
    (x_ref, r_ref): (Vec<f32>, Vec<IterationRecord>),
) {
    let (pool, plans) = (
        WorkerPool::new(2),
        PooledPlans::new_batched(ops, Kernel::Serial, 2, 1),
    );
    let serial = ops.operator(Kernel::Serial);
    let pooled = KernelOperator::pooled(ops, Kernel::Serial, &plans, &pool);
    for op in [&*serial, &pooled as &dyn ProjectionOperator] {
        let (x, r) = run_engine(op, y, &mut rule(), constraint, stop);
        assert_identical_records(&r, &r_ref);
        assert_identical_images(&x, &x_ref);
    }
}

#[test]
fn cgls_matches_reference_loop() {
    let (ops, y) = setup(24, 36);
    for stop in [
        StopRule::Fixed(12),
        StopRule::EarlyTermination {
            max_iters: 40,
            min_decrease: 1e-3,
        },
    ] {
        let reference = reference::cgls(
            &y,
            ops.a.ncols(),
            |p| ops.forward(Kernel::Serial, p),
            |r| ops.back(Kernel::Serial, r),
            stop,
        );
        assert_engine_matches(&ops, &y, CgRule::new, Constraint::None, stop, reference);
    }
}

#[test]
fn sirt_matches_reference_loop() {
    let (ops, y) = setup(24, 36);
    let reference = reference::sirt(
        &y,
        ops.a.ncols(),
        |p| ops.forward(Kernel::Serial, p),
        |r| ops.back(Kernel::Serial, r),
        10,
        false,
    );
    let (rule, stop) = (|| SirtRule::new(1.0), StopRule::Fixed(10));
    assert_engine_matches(&ops, &y, rule, Constraint::None, stop, reference);
}

#[test]
fn cgls_regularized_matches_reference_loop() {
    let (ops, y) = setup(24, 36);
    let reference = reference::cgls_regularized(
        &y,
        ops.a.ncols(),
        |p| ops.forward(Kernel::Serial, p),
        |r| ops.back(Kernel::Serial, r),
        0.3,
        StopRule::Fixed(15),
    );
    let (rule, stop) = (|| CgRule::regularized(0.3), StopRule::Fixed(15));
    assert_engine_matches(&ops, &y, rule, Constraint::None, stop, reference);
}

#[test]
fn sirt_nonneg_matches_reference_loop() {
    let (ops, y) = setup(24, 36);
    let reference = reference::sirt(
        &y,
        ops.a.ncols(),
        |p| ops.forward(Kernel::Serial, p),
        |r| ops.back(Kernel::Serial, r),
        10,
        true,
    );
    let (rule, stop) = (|| SirtRule::new(1.0), StopRule::Fixed(10));
    assert_engine_matches(&ops, &y, rule, Constraint::NonNegative, stop, reference);
}

#[test]
fn cgls_smooth_matches_reference_stacked_closures() {
    let (ops, y) = setup(24, 36);
    let lambda = 0.5f32;
    // The pre-refactor implementation: hand-stacked closures over
    // `[A; √λ·D]` fed to the plain CGLS loop.
    let d = gradient_operator(&ops.tomo_ord);
    let dt = d.transpose_scan();
    let sqrt_l = lambda.sqrt();
    let ny = y.len();
    let forward = |x: &[f32]| -> Vec<f32> {
        let mut out = ops.forward(Kernel::Serial, x);
        let g = spmv(&d, x);
        out.extend(g.into_iter().map(|v| v * sqrt_l));
        out
    };
    let back = |r: &[f32]| -> Vec<f32> {
        let mut out = ops.back(Kernel::Serial, &r[..ny]);
        let g = spmv(&dt, &r[ny..]);
        for (o, v) in out.iter_mut().zip(g) {
            *o += sqrt_l * v;
        }
        out
    };
    let mut y_aug = y.clone();
    y_aug.extend(std::iter::repeat_n(0f32, d.nrows()));
    let (x_ref, r_ref) = reference::cgls(&y_aug, ops.a.ncols(), forward, back, StopRule::Fixed(20));

    let (x, r) = cgls_smooth(&ops, Kernel::Serial, &y, lambda, StopRule::Fixed(20));
    assert_identical_records(&r, &r_ref);
    assert_identical_images(&x, &x_ref);
}

#[test]
fn os_sirt_matches_reference_loop() {
    let (ops, y, sino) = setup_with_sinogram(24, 36);
    let num_subsets = 6;
    let relaxation = 1.0f32;
    let iters = 6;

    // Pre-refactor OS-SIRT: rebuild the subset blocks exactly as the old
    // `OrderedSubsets::new` did and run the old nested loop.
    let mut rows_by_subset: Vec<Vec<u32>> = vec![Vec::new(); num_subsets];
    for rank in 0..ops.a.nrows() as u32 {
        let (_chan, proj) = ops.sino_ord.cell(rank);
        rows_by_subset[(proj as usize) % num_subsets].push(rank);
    }
    struct RefSubset {
        rows: Vec<u32>,
        block: CsrMatrix,
        block_t: CsrMatrix,
        row_w: Vec<f32>,
        col_w: Vec<f32>,
    }
    let subsets: Vec<RefSubset> = rows_by_subset
        .into_iter()
        .map(|rows| {
            let row_data: Vec<Vec<(u32, f32)>> = rows
                .iter()
                .map(|&r| ops.a.row(r as usize).collect())
                .collect();
            let block = CsrMatrix::from_rows(ops.a.ncols(), &row_data);
            let block_t = block.transpose_scan();
            let inv = |v: f32| if v > 0.0 { 1.0 / v } else { 0.0 };
            let row_w: Vec<f32> = (0..block.nrows())
                .map(|i| inv(block.row(i).map(|(_, v)| v).sum()))
                .collect();
            let mut col_sum = vec![0f32; block.ncols()];
            for i in 0..block.nrows() {
                for (c, v) in block.row(i) {
                    col_sum[c as usize] += v;
                }
            }
            let col_w: Vec<f32> = col_sum.into_iter().map(inv).collect();
            RefSubset {
                rows,
                block,
                block_t,
                row_w,
                col_w,
            }
        })
        .collect();
    let mut x_ref = vec![0f32; ops.a.ncols()];
    let mut r_ref = Vec::with_capacity(iters);
    for iter in 0..iters {
        for sub in &subsets {
            let mut r = spmv(&sub.block, &x_ref);
            for (ri, &row) in r.iter_mut().zip(&sub.rows) {
                *ri = y[row as usize] - *ri;
            }
            for (ri, &w) in r.iter_mut().zip(&sub.row_w) {
                *ri *= w;
            }
            let update = spmv(&sub.block_t, &r);
            for ((xi, u), &w) in x_ref.iter_mut().zip(update).zip(&sub.col_w) {
                *xi += relaxation * u * w;
            }
        }
        let mut res_sq = 0f64;
        for sub in &subsets {
            let r = spmv(&sub.block, &x_ref);
            for (ri, &row) in r.iter().zip(&sub.rows) {
                let d = (y[row as usize] - ri) as f64;
                res_sq += d * d;
            }
        }
        r_ref.push(IterationRecord {
            iter,
            residual_norm: res_sq.sqrt(),
            solution_norm: x_ref
                .iter()
                .map(|&v| (v as f64).powi(2))
                .sum::<f64>()
                .sqrt(),
            seconds: 0.0,
        });
    }

    let rec = Reconstructor::new(Grid::new(24), ScanGeometry::new(36, 24));
    let solver = Solver::OsSirt {
        subsets: num_subsets,
        relax: relaxation,
    };
    let req = ReconRequest::cg(ReconInput::Slice(sino), StopRule::Fixed(iters)).solver(solver);
    let out = rec.run(&req.mode(ExecMode::Serial)).unwrap();
    assert_identical_records(&out.slice_records[0], &r_ref);
    assert_identical_images(&out.images[0], &ops.unorder_tomogram(&x_ref));
}

fn rel_err(a: &[f32], b: &[f32]) -> f64 {
    let num: f64 = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| ((x - y) as f64).powi(2))
        .sum::<f64>()
        .sqrt();
    let den: f64 = b.iter().map(|&y| (y as f64).powi(2)).sum::<f64>().sqrt();
    num / den
}

fn dist_setup(n: u32, m: u32) -> (Reconstructor, Sinogram) {
    let grid = Grid::new(n);
    let scan = ScanGeometry::new(m, n);
    let img = disk(0.5, 2.0).rasterize(n);
    let sino = simulate_sinogram(&img, &grid, &scan, NoiseModel::None, 0);
    (Reconstructor::new(grid, scan), sino)
}

/// `req` over `ranks` thread-ranks (on the plan's kernel).
fn over_ranks(req: &ReconRequest, ranks: usize) -> ReconRequest {
    req.clone().mode(ExecMode::Distributed {
        ranks,
        ft: FaultTolerance::disabled(),
    })
}

/// Acceptance: the distributed path is the same engine — for both CG and
/// SIRT, with early termination, the distributed reconstruction must stop
/// at the same iteration as the serial one and produce the same image: bit
/// for bit on one rank (the same kernel and the same chunked dots), and
/// up to the floating-point reassociation of rank-partitioned reductions
/// on more.
#[test]
fn distributed_equals_serial_cg_with_early_termination() {
    let (rec, sino) = dist_setup(24, 36);
    // The threshold sits well clear of the per-iteration decrease values
    // on either side, so the stopping decision is robust to the
    // floating-point reassociation of rank-partitioned reductions.
    let stop = StopRule::EarlyTermination {
        max_iters: 40,
        min_decrease: 0.2,
    };
    let req = ReconRequest::cg(ReconInput::Slice(sino), stop);
    let serial = rec.run(&req).unwrap();
    assert!(
        serial.iterations() < 40,
        "early termination should trigger, ran {}",
        serial.iterations()
    );
    for ranks in [1usize, 3, 4] {
        let dist = rec.run(&over_ranks(&req, ranks)).unwrap();
        assert_eq!(
            dist.iterations(),
            serial.iterations(),
            "ranks {ranks}: stopped at a different iteration"
        );
        if ranks == 1 {
            assert_identical_records(&dist.slice_records[0], &serial.slice_records[0]);
            assert_identical_images(&dist.images[0], &serial.images[0]);
        }
        let err = rel_err(&dist.images[0], &serial.images[0]);
        assert!(err < 5e-3, "ranks {ranks}: err {err}");
    }
}

#[test]
fn distributed_equals_serial_sirt_with_early_termination() {
    let (rec, sino) = dist_setup(24, 36);
    let stop = StopRule::EarlyTermination {
        max_iters: 60,
        min_decrease: 0.02,
    };
    // Serial SIRT with the same stop rule, through the same engine on the
    // buffered operator (the kernel `Reconstructor::new` selects).
    let ops = rec.operators();
    let y = ops.order_sinogram(&sino);
    let op = ops.operator(rec.kernel());
    let (x, serial_records) = run_engine(
        op.as_ref(),
        &y,
        &mut SirtRule::new(1.0),
        Constraint::None,
        stop,
    );
    let serial_image = ops.unorder_tomogram(&x);
    assert!(
        serial_records.len() < 60,
        "early termination should trigger, ran {}",
        serial_records.len()
    );
    let req = ReconRequest::cg(ReconInput::Slice(sino), stop).solver(Solver::Sirt { relax: 1.0 });
    for ranks in [1usize, 3, 4] {
        let dist = rec.run(&over_ranks(&req, ranks)).unwrap();
        assert_eq!(
            dist.iterations(),
            serial_records.len(),
            "ranks {ranks}: stopped at a different iteration"
        );
        if ranks == 1 {
            assert_identical_records(&dist.slice_records[0], &serial_records);
            assert_identical_images(&dist.images[0], &serial_image);
        }
        let err = rel_err(&dist.images[0], &serial_image);
        assert!(err < 5e-3, "ranks {ranks}: err {err}");
    }
}

/// The request's relaxation factor reaches every rank's rule (it was once
/// dropped on the way: ranks always solved at 1.0) — through the request
/// and straight into the distributed body — and an invalid one is
/// rejected before any rank starts.
#[test]
fn distributed_sirt_honors_relaxation() {
    let (grid, scan) = (Grid::new(16), ScanGeometry::new(12, 16));
    let truth = disk(0.6, 1.0).rasterize(16);
    let sino = simulate_sinogram(&truth, &grid, &scan, NoiseModel::None, 0);
    let config = Config {
        kernel: Kernel::Serial,
        ..Config::default()
    };
    let rec = ReconstructorBuilder::new(grid, scan)
        .config(config)
        .build()
        .unwrap();
    let y = rec.operators().order_sinogram(&sino);
    let sirt = |relax| {
        ReconRequest::sirt(ReconInput::Slice(sino.clone()), 10).solver(Solver::Sirt { relax })
    };
    let config = |relax, ranks| DistConfig {
        ranks,
        use_buffered: false,
        stop: StopRule::Fixed(10),
        solver: Solver::Sirt { relax },
    };
    let solve = |relax: f32, ranks: usize, direct: bool| -> Vec<f32> {
        if direct {
            let out = try_reconstruct_distributed(rec.operators(), &y, &config(relax, ranks));
            return out.unwrap().images.remove(0);
        }
        let mode = ExecMode::Distributed {
            ranks,
            ft: FaultTolerance::disabled(),
        };
        rec.run(&sirt(relax).mode(mode)).unwrap().images.remove(0)
    };
    let serial = rec.run(&sirt(0.5)).unwrap().images.remove(0);
    for (ranks, direct) in [(1, false), (3, false), (1, true), (3, true)] {
        let (half, full) = (solve(0.5, ranks, direct), solve(1.0, ranks, direct));
        let err = rel_err(&half, &serial);
        assert!(err < 1e-3, "ranks {ranks}: relax 0.5 vs serial {err}");
        let gap = rel_err(&half, &full);
        assert!(gap > 1e-2, "ranks {ranks}: relax ignored ({gap})");
    }
    for relax in [f32::NAN, 0.0, -1.0] {
        let mode = ExecMode::Distributed {
            ranks: 2,
            ft: FaultTolerance::disabled(),
        };
        assert!(matches!(
            rec.run(&sirt(relax).mode(mode)),
            Err(ReconError::InvalidRelaxation { .. })
        ));
        assert!(matches!(
            try_reconstruct_distributed(rec.operators(), &y, &config(relax, 2)),
            Err(BuildError::InvalidRelaxation { .. })
        ));
    }
}
