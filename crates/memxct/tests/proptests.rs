//! Property tests for the core pipeline: the memoized operators agree
//! with direct ray tracing, the factorized distributed product agrees
//! with the monolithic one, every operator's backprojection is the
//! adjoint of its projection, and permutations round-trip — for
//! arbitrary geometries and rank counts.

use memxct::{
    preprocess, Config, DistOperator, Kernel, KernelOperator, PooledPlans, ProjectionOperator,
    StackedOperator,
};
use proptest::prelude::*;
use xct_geometry::{disk, Sinogram};
use xct_geometry::{simulate_sinogram, Grid, NoiseModel, ScanGeometry};
use xct_runtime::{run_ranks, WorkerPool};
use xct_sparse::{CsrMatrix, EllMatrix};

/// `(⟨A·x_j, y_j⟩, ⟨x_j, Aᵀ·y_j⟩)` per column `j` of the slice-major
/// slabs, accumulated in f64 from the operator's f32 products.
fn inner_products(
    op: &dyn ProjectionOperator,
    x: &[f32],
    y: &[f32],
    batch: usize,
) -> Vec<(f64, f64)> {
    let (m, n) = (op.nrows(), op.ncols());
    // The operators take and return slice-interleaved slabs.
    let relay = |v: &[f32], f: fn(&[f32], &mut [f32], usize)| {
        let mut out = vec![f32::NAN; v.len()];
        f(v, &mut out, batch);
        out
    };
    let (mut ax, mut aty) = (vec![f32::NAN; m * batch], vec![f32::NAN; n * batch]);
    op.forward_batch_into(&relay(x, xct_sparse::interleave), &mut ax, batch);
    op.back_batch_into(&relay(y, xct_sparse::interleave), &mut aty, batch);
    let (ax, aty) = (
        relay(&ax, xct_sparse::deinterleave),
        relay(&aty, xct_sparse::deinterleave),
    );
    let dot = |a: &[f32], b: &[f32]| a.iter().zip(b).map(|(&a, &b)| a as f64 * b as f64).sum();
    (0..batch)
        .map(|j| {
            let (rows, cols) = (j * m..(j + 1) * m, j * n..(j + 1) * n);
            (
                dot(&ax[rows.clone()], &y[rows]),
                dot(&x[cols.clone()], &aty[cols]),
            )
        })
        .collect()
}

/// `⟨|A|·|x|, |y|⟩` in f64: the magnitude both inner products are sums of.
fn abs_inner(a: &CsrMatrix, x: &[f32], y: &[f32]) -> f64 {
    (0..a.nrows())
        .map(|i| {
            let row: f64 = a
                .row(i)
                .map(|(c, v)| (v * x[c as usize]).abs() as f64)
                .sum();
            row * y[i].abs() as f64
        })
        .sum()
}

/// Longest row of `a`: the most f32 additions behind one output value.
fn longest_row(a: &CsrMatrix) -> usize {
    a.rowptr()
        .windows(2)
        .map(|w| w[1] - w[0])
        .max()
        .unwrap_or(0)
}

/// Rounding-sensitive slab of `batch` slices of `len` values in (-1, 1).
fn slab(len: usize, batch: usize, seed: u64) -> Vec<f32> {
    (0..len * batch)
        .map(|i| ((i as u64 * 7 + seed % 1000) as f32 * 0.37).sin())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn forward_equals_direct_simulation(n in 8u32..28, m in 4u32..24) {
        let grid = Grid::new(n);
        let scan = ScanGeometry::new(m, n);
        let img = disk(0.7, 1.0).rasterize(n);
        let direct = simulate_sinogram(&img, &grid, &scan, NoiseModel::None, 0);
        let ops = preprocess(grid, scan, &Config::default());
        let y = ops.forward(Kernel::Buffered, &ops.order_tomogram(&img));
        let y_rm = ops.unorder_sinogram(&y);
        for (got, want) in y_rm.iter().zip(direct.data()) {
            prop_assert!((got - want).abs() < 1e-3, "{got} vs {want}");
        }
    }

    #[test]
    fn distributed_forward_equals_serial(
        n in 8u32..24, m in 4u32..20, ranks in 1usize..6
    ) {
        let grid = Grid::new(n);
        let scan = ScanGeometry::new(m, n);
        let ops = preprocess(grid, scan, &Config::default());
        let x: Vec<f32> = (0..ops.a.ncols()).map(|i| ((i * 13) % 9) as f32 * 0.125).collect();
        let want = ops.forward(Kernel::Serial, &x);
        let plans = memxct::dist::build_plans(&ops, ranks, false);
        let (results, _) = run_ranks(ranks, |comm| {
            let plan = &plans[comm.rank()];
            let lo = plan.tomo_range.start as usize;
            let hi = plan.tomo_range.end as usize;
            let op = DistOperator::new(plan, comm);
            let mut y = vec![0f32; plan.sino_range.len()];
            op.forward_into(&x[lo..hi], &mut y);
            assert!(op.fault().is_none());
            y
        });
        let mut got = vec![0f32; ops.a.nrows()];
        for (plan, block) in plans.iter().zip(results) {
            let lo = plan.sino_range.start as usize;
            got[lo..lo + block.len()].copy_from_slice(&block);
        }
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-3, "{g} vs {w}");
        }
    }

    #[test]
    fn sinogram_permutation_roundtrips(n in 4u32..32, m in 2u32..24) {
        let ops = preprocess(Grid::new(n), ScanGeometry::new(m, n), &Config {
            kernel: Kernel::Serial,
            ..Config::default()
        });
        let data: Vec<f32> = (0..(m * n)).map(|i| i as f32).collect();
        let sino = Sinogram::new(ScanGeometry::new(m, n), data.clone());
        prop_assert_eq!(ops.unorder_sinogram(&ops.order_sinogram(&sino)), data);
    }

    #[test]
    fn distributed_sirt_early_termination_matches_serial(
        n in 10u32..24, m in 6u32..20, ranks in 1usize..5
    ) {
        let grid = Grid::new(n);
        let scan = ScanGeometry::new(m, n);
        let img = disk(0.5, 2.0).rasterize(n);
        let sino = simulate_sinogram(&img, &grid, &scan, NoiseModel::None, 0);
        let rec = memxct::Reconstructor::new(grid, scan);
        let stop = memxct::StopRule::EarlyTermination {
            max_iters: 50,
            min_decrease: 0.02,
        };
        // Serial: the same engine + SirtRule on the buffered operator.
        let ops = rec.operators();
        let y = ops.order_sinogram(&sino);
        let op = ops.operator(rec.kernel());
        let (x, serial_records) = memxct::run_engine(
            op.as_ref(),
            &y,
            &mut memxct::SirtRule::new(1.0),
            memxct::Constraint::None,
            stop,
        );
        let serial_image = ops.unorder_tomogram(&x);
        let req = memxct::ReconRequest::cg(memxct::ReconInput::Slice(sino), stop)
            .solver(memxct::Solver::Sirt { relax: 1.0 })
            .mode(memxct::ExecMode::Distributed {
                ranks,
                ft: memxct::FaultTolerance::disabled(),
            });
        let dist = rec.run(&req).unwrap();
        let (dist_image, dist_iters) = (&dist.images[0], dist.iterations());
        // The allreduced residual is identical on every rank, so the
        // early-termination decision must branch the same way as serial
        // (up to fp reassociation right at the threshold).
        let d = dist_iters as i64 - serial_records.len() as i64;
        prop_assert!(d.abs() <= 1, "stopped at {} vs serial {}", dist_iters, serial_records.len());
        let num: f64 = dist_image.iter().zip(&serial_image)
            .map(|(&a, &b)| ((a - b) as f64).powi(2)).sum::<f64>().sqrt();
        let den: f64 = serial_image.iter().map(|&v| (v as f64).powi(2)).sum::<f64>().sqrt();
        prop_assert!(num / den.max(1e-12) < 2e-2, "rel err {}", num / den.max(1e-12));
    }

    /// Truth, not self-consistency: `⟨A·x, y⟩ = ⟨x, Aᵀ·y⟩` for every
    /// operator the solvers can be handed, per column. Both sides are f64
    /// sums of f32 products whose every entry carries at most `L + 2`
    /// roundings (`L` = longest row of `A` or `Aᵀ`, plus the distributed
    /// reduction over ≤ 3 ranks or the regularizer's scaling), so they
    /// agree within `2·(L + 8)·u·⟨|A|·|x|, |y|⟩`, `u = 2⁻²⁴`.
    #[test]
    fn every_operator_is_adjoint_per_column(
        n in 6u32..20, m in 3u32..16, threads in 1usize..4, seed in any::<u64>()
    ) {
        let mut ops = preprocess(Grid::new(n), ScanGeometry::new(m, n), &Config::default());
        ops.a_ell = Some(EllMatrix::from_csr(&ops.a, ops.partsize));
        ops.at_ell = Some(EllMatrix::from_csr(&ops.at, ops.partsize));
        let (rows, cols) = (ops.a.nrows(), ops.a.ncols());
        let unit = 2.0 * (longest_row(&ops.a).max(longest_row(&ops.at)) + 8) as f64
            * (f32::EPSILON as f64 / 2.0);
        let check = |tag: &str, got: &[(f64, f64)], scale: &[f64]| {
            for (j, (&(lhs, rhs), &s)) in got.iter().zip(scale).enumerate() {
                assert!(lhs.is_finite() && rhs.is_finite(), "{tag} column {j}");
                assert!(
                    (lhs - rhs).abs() <= unit * s,
                    "{tag} column {j}: <Ax,y> = {lhs}, <x,Aty> = {rhs}, bound {}",
                    unit * s
                );
            }
        };
        let pool = WorkerPool::new(threads);
        for batch in [1usize, 3] {
            let (x, y) = (slab(cols, batch, seed), slab(rows, batch, seed ^ 1));
            let scale: Vec<f64> = (0..batch)
                .map(|j| abs_inner(&ops.a, &x[j * cols..][..cols], &y[j * rows..][..rows]))
                .collect();
            // The kernel operator: 3 layouts × inline / pooled.
            for kernel in [Kernel::Serial, Kernel::Ell, Kernel::Buffered] {
                let inline = KernelOperator::new(&ops, kernel);
                check(&format!("{kernel:?} inline k={batch}"),
                    &inner_products(&inline, &x, &y, batch), &scale);
                let plans = PooledPlans::new_batched(&ops, kernel, threads, batch);
                let pooled = KernelOperator::pooled(&ops, kernel, &plans, &pool);
                check(&format!("{kernel:?} pooled/{threads} k={batch}"),
                    &inner_products(&pooled, &x, &y, batch), &scale);
            }
            // The factorized A = R·C·A_p through the halo bodies: each
            // rank contributes the inner products over what it owns.
            let rank_kernels = [
                (1, Kernel::Serial),
                (2, Kernel::Buffered),
                (3, Kernel::Serial),
                (3, Kernel::Buffered),
            ];
            for (ranks, kernel) in rank_kernels {
                let plans = memxct::dist::build_plans(&ops, ranks, kernel == Kernel::Buffered);
                let (partials, _) = run_ranks(ranks, |comm| {
                    let plan = &plans[comm.rank()];
                    let own = |g: &[f32], len: usize, r: &std::ops::Range<u32>| -> Vec<f32> {
                        (0..batch)
                            .flat_map(|j| g[j * len + r.start as usize..j * len + r.end as usize].to_vec())
                            .collect()
                    };
                    let op = DistOperator::new(plan, comm);
                    let (xl, yl) = (own(&x, cols, &plan.tomo_range), own(&y, rows, &plan.sino_range));
                    let got = inner_products(&op, &xl, &yl, batch);
                    assert!(op.fault().is_none());
                    got
                });
                let total: Vec<(f64, f64)> = (0..batch)
                    .map(|j| partials.iter().fold((0.0, 0.0), |t, p| (t.0 + p[j].0, t.1 + p[j].1)))
                    .collect();
                check(&format!("dist ranks={ranks} kernel={kernel:?} k={batch}"), &total, &scale);
            }
        }
        // The combinator (single-slice by construction); OS-SIRT's subset
        // products have their own adjoint oracle next to the rule.
        let x = slab(cols, 1, seed);
        let primary = KernelOperator::new(&ops, Kernel::Buffered);
        let d = memxct::gradient_operator(&ops.tomo_ord);
        let dt = d.transpose_scan();
        let stack = StackedOperator::new(&primary, &d, &dt, 0.5);
        let y_aug = slab(stack.nrows(), 1, seed ^ 2);
        let scale = abs_inner(&ops.a, &x, &y_aug[..rows]) + 0.5 * abs_inner(&d, &x, &y_aug[rows..]);
        check("stacked", &inner_products(&stack, &x, &y_aug, 1), &[scale]);
    }
}
