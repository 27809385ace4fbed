//! Property tests for the core pipeline: the memoized operators agree
//! with direct ray tracing, the factorized distributed product agrees
//! with the monolithic one, every operator's backprojection is the
//! adjoint of its projection, the buffered kernel projects what the CSR
//! reference does at any partition and buffer size, and permutations
//! round-trip — for arbitrary geometries and rank counts. A corrupted
//! solver snapshot is refused typed, or resumes, and never panics.

use std::sync::{Arc, OnceLock};

use memxct::{
    plan_fingerprint, preprocess, validate_snapshot, BuildError, CheckpointPolicy, Config,
    DistOperator, Kernel, KernelOperator, PooledPlans, ProjectionOperator, ReconInput,
    ReconRequest, Reconstructor, ReconstructorBuilder, StackedOperator, StopRule,
};
use proptest::prelude::*;
use xct_geometry::{disk, Sinogram};
use xct_geometry::{simulate_sinogram, Grid, NoiseModel, ScanGeometry};
use xct_runtime::{fnv1a64, run_ranks, CheckpointSink, MemoryCheckpointSink, Snapshot, WorkerPool};
use xct_sparse::CsrMatrix;

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
    fn buffered_plan_projects_like_the_serial_plan(
        n in 6u32..24, m in 3u32..20, partsize in 1usize..64, buffsize in 1usize..96,
        seed in any::<u64>(),
    ) {
        let ops = preprocess(Grid::new(n), ScanGeometry::new(m, n), &Config {
            partsize,
            buffsize,
            ..Config::default()
        });
        let (x, y) = (slab(ops.a.ncols(), 1, seed), slab(ops.a.nrows(), 1, seed ^ 1));
        let pairs = [
            (ops.forward(Kernel::Buffered, &x), ops.forward(Kernel::Serial, &x)),
            (ops.back(Kernel::Buffered, &y), ops.back(Kernel::Serial, &y)),
        ];
        for (got, want) in pairs {
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert!((g - w).abs() < 1e-3, "{g} vs {w}");
            }
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
        let ops = preprocess(Grid::new(n), ScanGeometry::new(m, n), &Config::default());
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
            // The kernel operator: 2 layouts × inline / pooled.
            for kernel in [Kernel::Serial, Kernel::Buffered] {
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

/// A width-2 reconstructor on a 16 × 16 grid, a 4-iteration CG request
/// of two slices, and the snapshot its first 2 iterations leave.
fn width2_cg() -> &'static (Reconstructor, ReconRequest, Vec<u8>) {
    static FIXTURE: OnceLock<(Reconstructor, ReconRequest, Vec<u8>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (grid, scan) = (Grid::new(16), ScanGeometry::new(12, 16));
        let slices: Vec<_> = (0..2)
            .map(|j| {
                let truth = disk(0.4 + 0.2 * j as f64, 1.0).rasterize(16);
                simulate_sinogram(&truth, &grid, &scan, NoiseModel::None, j)
            })
            .collect();
        let rec = ReconstructorBuilder::new(grid, scan)
            .batch(2)
            .build()
            .unwrap();
        let cg =
            |iters| ReconRequest::cg(ReconInput::Batch(slices.clone()), StopRule::Fixed(iters));
        let sink = Arc::new(MemoryCheckpointSink::new());
        rec.run(&cg(2).checkpoint(CheckpointPolicy::new(sink.clone(), 1)))
            .unwrap();
        let bytes = sink.load(0).unwrap().unwrap();
        assert_eq!(Snapshot::decode(&bytes).unwrap().iteration(), 2);
        let req = cg(4);
        (rec, req, bytes)
    })
}

/// The offsets of each section's kind byte and length field in a clean
/// snapshot.
fn section_fields(bytes: &[u8]) -> Vec<(usize, usize)> {
    let word = |at: usize, n: usize| {
        bytes[at..at + n]
            .iter()
            .rev()
            .fold(0usize, |v, &b| v << 8 | b as usize)
    };
    let mut pos = 28;
    (0..word(24, 4))
        .map(|_| {
            let kind_at = pos + 4 + word(pos, 4);
            let width = if bytes[kind_at] == 0 { 4 } else { 8 };
            pos = kind_at + 9 + word(kind_at + 1, 8) * width;
            (kind_at, kind_at + 1)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn corrupted_snapshots_are_refused_typed_or_resume(
        edit in 0u8..5,
        at in any::<u64>(),
        value in any::<u64>(),
    ) {
        let (rec, req, clean) = width2_cg();
        let fields = section_fields(clean);
        let (kind_at, len_at) = fields[at as usize % fields.len()];
        let mut bytes = clean.clone();
        match edit {
            0 => bytes.truncate(at as usize % clean.len()),
            // Flip bits of any byte before the checksum.
            1 => bytes[at as usize % (clean.len() - 8)] ^= (value as u8) | 1,
            2 => bytes[len_at..len_at + 8].copy_from_slice(&(value >> (at % 64)).to_le_bytes()),
            3 => bytes[kind_at] = value as u8,
            _ => bytes[7] = value as u8,
        }
        if edit != 0 {
            let body = bytes.len() - 8;
            let checksum = fnv1a64(&bytes[..body]);
            bytes[body..].copy_from_slice(&checksum.to_le_bytes());
        }
        if let Ok(snap) = Snapshot::decode(&bytes) {
            let ops = rec.operators();
            let (m, n) = (ops.a.nrows(), ops.a.ncols());
            validate_snapshot(&snap, plan_fingerprint(ops), 4, m, n, 2, memxct::Solver::Cg);
        }
        let sink = Arc::new(MemoryCheckpointSink::new());
        sink.save(0, &bytes).unwrap();
        let resumed = rec.run(&req.clone().checkpoint(CheckpointPolicy::new(sink, 0).resume(true)));
        match resumed {
            Ok(out) => prop_assert_eq!(out.slice_records.len(), 2),
            Err(BuildError::Checkpoint(_) | BuildError::PlanCheck(_)) => {}
            Err(e) => prop_assert!(false, "untyped refusal: {}", e),
        }
    }
}
