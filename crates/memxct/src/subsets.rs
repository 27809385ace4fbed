//! Ordered-subsets SIRT over the memoized operators.
//!
//! The paper notes (§3.5.2) that other iteration schemes — SIRT, SGD,
//! ICD — "can be implemented for our proposed memory-centric approach in a
//! plug-and-play manner". `Solver::OsSirt` is one: ordered-subsets SIRT /
//! SGD (cuMBIR's scheme, the paper's GPU-framework comparison), where each
//! sub-iteration applies the rays of one projection-angle subset. It is
//! one more rule of the solve driver: the driver builds the [`Subsets`]
//! once per request and every stint runs [`OsSirtRule`] over them, so
//! batches, volumes, snapshots and preemption come from the group loop.
//!
//! A subset is a row block `Aₛ` of `A`: its products run through a
//! [`KernelOperator`] over `Aₛ` / `Aₛᵀ` on the request's executor, so a
//! pooled solve is the serial one bit for bit. Memory: one CSR copy of
//! `A`'s entries (every `Aₛ`) and one transposed copy (every `Aₛᵀ`).

use crate::errors::BuildError;
use crate::operator::{Held, KernelOperator, Layout, ProjectionOperator};
use crate::preprocess::Operators;
use crate::solvers::{SolverWorkspace, UpdateRule};
use xct_obs::Metrics;
use xct_runtime::WorkerPool;
use xct_sparse::CsrMatrix;

/// One angle-interleaved subset of the rays.
struct Subset {
    /// Rows of `A` (ordered coordinates) in this subset, increasing.
    rows: Vec<u32>,
    /// `Aₛ`, the subset's row block of `A`.
    block: CsrMatrix,
    /// `Aₛᵀ`, its transpose.
    block_t: CsrMatrix,
    /// SIRT row weights (1/row sums).
    row_w: Vec<f32>,
    /// SIRT column weights over this block (1/column sums).
    col_w: Vec<f32>,
}

/// The subset decomposition of one plan on one executor: subset `s` of
/// `count` holds the rays of projections `p ≡ s (mod count)`.
pub(crate) struct Subsets<'a> {
    subsets: Vec<Subset>,
    pool: &'a WorkerPool,
}

impl<'a> Subsets<'a> {
    /// Split the memoized forward matrix of `ops` into `count` angle
    /// interleaves whose products run on `pool`;
    /// [`BuildError::InvalidSubsets`] unless `count` is in `1..=` the
    /// scan's projection count.
    pub(crate) fn new(
        ops: &Operators,
        count: usize,
        pool: &'a WorkerPool,
    ) -> Result<Self, BuildError> {
        let projections = ops.scan.num_projections() as usize;
        if count == 0 || count > projections {
            return Err(BuildError::InvalidSubsets {
                subsets: count,
                projections,
            });
        }
        let a = &ops.a;
        let mut rows_by_subset: Vec<Vec<u32>> = vec![Vec::new(); count];
        // in-range: row ranks are u32 by the CSR layout
        for rank in 0..a.nrows() as u32 {
            let (_chan, proj) = ops.sino_ord.cell(rank);
            rows_by_subset[(proj as usize) % count].push(rank);
        }
        let inv = |v: f32| if v > 0.0 { 1.0 / v } else { 0.0 };
        let inv_sum = |row: &mut dyn Iterator<Item = (u32, f32)>| inv(row.map(|(_, v)| v).sum());
        let subsets = rows_by_subset
            .into_iter()
            .map(|rows| {
                let row_data: Vec<Vec<(u32, f32)>> =
                    rows.iter().map(|&r| a.row(r as usize).collect()).collect();
                let block = CsrMatrix::from_rows(a.ncols(), &row_data);
                let block_t = block.transpose_scan();
                Subset {
                    row_w: (0..block.nrows())
                        .map(|i| inv_sum(&mut block.row(i)))
                        .collect(),
                    // `Aₛᵀ` lists a column's entries in increasing row
                    // order: the order a row-by-row pass adds them in.
                    col_w: (0..block_t.nrows())
                        .map(|c| inv_sum(&mut block_t.row(c)))
                        .collect(),
                    rows,
                    block,
                    block_t,
                }
            })
            .collect();
        Ok(Subsets { subsets, pool })
    }

    /// One [`KernelOperator`] per subset, over its block on the
    /// executor's pool, recording into `metrics`.
    pub(crate) fn operators(&self, metrics: &Metrics) -> Vec<KernelOperator<'_>> {
        let ops = self.subsets.iter().map(|s| {
            let block = (Layout::Csr(&s.block), Layout::Csr(&s.block_t));
            KernelOperator::on_pool(block, Held::Borrowed(self.pool))
        });
        ops.map(|op| op.with_metrics(metrics.clone())).collect()
    }
}

/// One OS-SIRT pass per step: for every subset in turn, a relaxed SIRT
/// sub-update `x ← x + ω·Cₛ·Aₛᵀ·Rₛ·(yₛ − Aₛ·x)` of every active slice,
/// then each slice's full residual norm. Column `j` of a width-`k` step
/// is slice `j` stepped alone: both products are one SpMM over the
/// slice-interleaved slab. Carries no scalars, and `ws`'s residual and
/// back slabs are scratch it overwrites before reading.
pub(crate) struct OsSirtRule<'a> {
    pub(crate) subsets: &'a Subsets<'a>,
    /// Subset `s`'s `Aₛ` / `Aₛᵀ` ([`Subsets::operators`]).
    pub(crate) ops: Vec<KernelOperator<'a>>,
    pub(crate) relax: f32,
}

impl UpdateRule for OsSirtRule<'_> {
    fn step(
        &mut self,
        op: &dyn ProjectionOperator,
        y: &[f32],
        ws: &mut SolverWorkspace,
        res: &mut [f64],
    ) {
        let (k, m) = (ws.batch(), op.nrows());
        let (x, resid, back, active) = (&mut ws.x, &mut ws.resid, &mut ws.back, &ws.active);
        let live = || (0..k).filter(|&j| active[j]);
        let blocks = || self.subsets.subsets.iter().zip(&self.ops);
        for (sub, a_s) in blocks() {
            let r = &mut resid[..k * sub.rows.len()];
            a_s.forward_batch_into(x, r, k);
            for ((ri, &row), &w) in r.chunks_exact_mut(k).zip(&sub.rows).zip(&sub.row_w) {
                for j in live() {
                    ri[j] = (y[j * m + row as usize] - ri[j]) * w;
                }
            }
            a_s.back_batch_into(r, back, k);
            for ((xi, ui), &w) in x
                .chunks_exact_mut(k)
                .zip(back.chunks_exact(k))
                .zip(&sub.col_w)
            {
                for j in live() {
                    xi[j] += self.relax * ui[j] * w;
                }
            }
        }
        // Each live slice's squared residual, subsets and rows in order.
        for j in live() {
            res[j] = 0.0;
        }
        for (sub, a_s) in blocks() {
            let r = &mut resid[..k * sub.rows.len()];
            a_s.forward_batch_into(x, r, k);
            for (ri, &row) in r.chunks_exact(k).zip(&sub.rows) {
                for j in live() {
                    let d = (y[j * m + row as usize] - ri[j]) as f64;
                    res[j] += d * d;
                }
            }
        }
        for j in live() {
            res[j] = res[j].sqrt();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::Kernel;
    use crate::solvers::make_rule;
    use crate::{rel_err, ReconError, ReconInput, ReconRequest, ReconResponse, Reconstructor};
    use crate::{Solver, StopRule};
    use xct_geometry::{disk, simulate_sinogram, Grid, NoiseModel, ScanGeometry, Sinogram};

    const PROJECTIONS: usize = 36;
    /// Unit roundoff of f32.
    const U: f64 = f32::EPSILON as f64 / 2.0;

    fn setup() -> (Reconstructor, Sinogram, Vec<f32>) {
        let (grid, scan) = (Grid::new(24), ScanGeometry::new(PROJECTIONS as u32, 24));
        let img = disk(0.6, 1.0).rasterize(24);
        let sino = simulate_sinogram(&img, &grid, &scan, NoiseModel::None, 0);
        (Reconstructor::new(grid, scan), sino, img)
    }

    fn os(subsets: usize, relax: f32) -> Solver {
        Solver::OsSirt { subsets, relax }
    }

    /// `iters` iterations of `solver` on the disk, through `Reconstructor::run`.
    fn solve(solver: Solver, iters: usize) -> Result<ReconResponse, ReconError> {
        let (rec, sino, _) = setup();
        let req = ReconRequest::cg(ReconInput::Slice(sino), StopRule::Fixed(iters));
        rec.run(&req.solver(solver))
    }

    /// The one-worker pool and the quiet registry the unit tests' subsets
    /// run on.
    fn serial() -> (WorkerPool, Metrics) {
        (WorkerPool::new(1), Metrics::noop())
    }

    /// Most entries in one row of `A` (of any `Aₛ`) or of any `Aₛᵀ`: the
    /// most f32 additions behind one product value.
    fn longest_row(s: &Subsets) -> usize {
        let longest = |m: &CsrMatrix| m.rowptr().windows(2).map(|w| w[1] - w[0]).max();
        let blocks = s.subsets.iter().flat_map(|sub| [&sub.block, &sub.block_t]);
        blocks.filter_map(longest).max().unwrap_or(0)
    }

    #[test]
    fn subsets_partition_all_rows() {
        let (rec, _, _) = setup();
        let a = &rec.operators().a;
        let (pool, _) = serial();
        let s = Subsets::new(rec.operators(), 6, &pool).unwrap();
        let mut rows: Vec<u32> = s.subsets.iter().flat_map(|sub| sub.rows.clone()).collect();
        rows.sort_unstable();
        assert!(rows.iter().copied().eq(0..a.nrows() as u32));
        let nnz: usize = s.subsets.iter().map(|sub| sub.block_t.nnz()).sum();
        assert_eq!(nnz, a.nnz());
    }

    /// Oracle (i): `⟨Aₛ·x, yₛ⟩ = ⟨x, Aₛᵀ·yₛ⟩` for every subset of an
    /// uneven split, both sides through the products the rule computes.
    /// They are f64 sums of f32 values each carrying at most `L` roundings
    /// (`L` = longest row of `A` or `Aₛᵀ`), so they agree within
    /// `2·(L + 8)·u·⟨|Aₛ|·|x|, |yₛ|⟩`, `u = 2⁻²⁴` (`A`'s entries are
    /// lengths, so `|Aₛ|·|x| = Aₛ·|x|`).
    #[test]
    fn every_subset_is_adjoint() {
        let (rec, _, _) = setup();
        let (pool, quiet) = serial();
        let s = Subsets::new(rec.operators(), 5, &pool).unwrap();
        let wave = |len: usize, w: f32| (0..len).map(move |i| (i as f32 * w).sin());
        let x: Vec<f32> = wave(rec.operators().a.ncols(), 0.37).collect();
        let abs_x: Vec<f32> = x.iter().map(|v| v.abs()).collect();
        let unit = 2.0 * (longest_row(&s) + 8) as f64 * U;
        for (k, (sub, a_s)) in s.subsets.iter().zip(s.operators(&quiet)).enumerate() {
            let y: Vec<f32> = wave(sub.rows.len(), 0.73).collect();
            let (mut ax, mut a_abs_x) = (vec![0f32; y.len()], vec![0f32; y.len()]);
            a_s.forward_into(&x, &mut ax);
            a_s.forward_into(&abs_x, &mut a_abs_x);
            let (mut lhs, mut scale) = (0f64, 0f64);
            for ((&axi, &aai), &yi) in ax.iter().zip(&a_abs_x).zip(&y) {
                lhs += axi as f64 * yi as f64;
                scale += aai as f64 * yi.abs() as f64;
            }
            let mut aty = vec![0f32; x.len()];
            a_s.back_into(&y, &mut aty);
            let rhs = xct_sparse::dot_f64(&x, &aty);
            let bound = unit * scale;
            assert!((lhs - rhs).abs() <= bound, "subset {k}: {lhs} vs {rhs}");
        }
    }

    /// Oracle (ii): `x_true` is a fixed point of one full pass when `y` is
    /// `A·x_true` over the same rows, summed in the other order (Listing
    /// 2's sequential chain). Each residual then carries at most
    /// `2·(L + 1)·u·‖x_true‖∞` per unit row weight, which a sub-update
    /// averages into the pixels (`Cₛ·Aₛᵀ·Rₛ` has unit row sums); over `S`
    /// sub-updates no pixel may move by more than `2·S·(L + 8)·u·‖x_true‖∞`.
    #[test]
    fn the_truth_is_a_fixed_point_of_one_pass() {
        let (rec, _, img) = setup();
        let (ops, count) = (rec.operators(), 6);
        let x_true = ops.order_tomogram(&img);
        let mut y = vec![0f32; ops.a.nrows()];
        xct_sparse::spmv_scalar_into(&ops.a, &x_true, &mut y);
        let (pool, quiet) = serial();
        let s = Subsets::new(ops, count, &pool).unwrap();
        let mut ws = SolverWorkspace::new(ops.a.nrows(), ops.a.ncols());
        ws.x.copy_from_slice(&x_true);
        let (op, mut res) = (KernelOperator::new(ops, Kernel::Serial), [f64::NAN]);
        make_rule(os(count, 1.0), Some(&s), &quiet).step(&op, &y, &mut ws, &mut res);
        let x_max = x_true.iter().fold(0f32, |m, v| m.max(v.abs())) as f64;
        let bound = 2.0 * count as f64 * (longest_row(&s) + 8) as f64 * U * x_max;
        let diff: Vec<f32> = ws.x.iter().zip(&x_true).map(|(a, b)| a - b).collect();
        let moved = diff.iter().fold(0f32, |m, d| m.max(d.abs())) as f64;
        assert!(moved <= bound, "moved {moved} > {bound}");
        assert!(res[0] < 1e-4, "residual {}", res[0]);
    }

    #[test]
    fn one_subset_equals_plain_sirt() {
        for relax in [1.0, 0.5] {
            let x_os = solve(os(1, relax), 8).unwrap().images.remove(0);
            let x_plain = solve(Solver::Sirt { relax }, 8).unwrap().images.remove(0);
            let err = rel_err(&x_os, &x_plain);
            assert!(err < 1e-4, "relax {relax}: err {err}");
        }
    }

    #[test]
    fn more_subsets_converge_faster_per_pass() {
        // The whole point of ordered subsets: after the same number of
        // full data passes, more subsets => smaller residual.
        let last = |subsets| solve(os(subsets, 1.0), 4).unwrap().slice_records[0][3].residual_norm;
        let (one, six) = (last(1), last(6));
        assert!(six < one, "6 subsets {six} should beat 1 subset {one}");
    }

    #[test]
    fn os_sirt_recovers_the_disk() {
        let (_, _, img) = setup();
        let x = solve(os(6, 1.0), 10).unwrap().images.remove(0);
        assert!(rel_err(&x, &img) < 0.25, "err {}", rel_err(&x, &img));
    }

    #[test]
    fn too_many_subsets_rejected() {
        for subsets in [0, PROJECTIONS + 1, 10_000] {
            let err = solve(os(subsets, 1.0), 2).unwrap_err();
            assert!(matches!(
                err,
                ReconError::Build(BuildError::InvalidSubsets { .. })
            ));
            assert!(err
                .to_string()
                .ends_with(&format!("1..=36 subsets, got {subsets}")));
        }
        for relax in [0.0, -1.0, f32::NAN] {
            let err = solve(os(4, relax), 2).unwrap_err();
            assert!(matches!(err, ReconError::InvalidRelaxation { .. }));
        }
    }
}
