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
//! Memory: one transposed copy of `A`'s entries and no forward copy — a
//! subset's forward products read `A`'s own CSR rows through [`row_dot`],
//! whose lane order depends only on a row's entries (and which reads one
//! slice of a slice-interleaved slab at stride).

use crate::errors::BuildError;
use crate::operator::ProjectionOperator;
use crate::preprocess::Operators;
use crate::solvers::{SolverWorkspace, UpdateRule};
use xct_sparse::lanes::row_dot;
use xct_sparse::{spmm_into, CsrMatrix};

/// One angle-interleaved subset of the rays.
struct Subset {
    /// Rows of `A` (ordered coordinates) in this subset, increasing.
    rows: Vec<u32>,
    /// `Aₛᵀ`, the transpose of the subset's row block.
    block_t: CsrMatrix,
    /// SIRT row weights (1/row sums).
    row_w: Vec<f32>,
    /// SIRT column weights over this block (1/column sums).
    col_w: Vec<f32>,
}

/// The subset decomposition of one plan: subset `s` of `count` holds the
/// rays of projections `p ≡ s (mod count)`.
pub(crate) struct Subsets<'a> {
    a: &'a CsrMatrix,
    subsets: Vec<Subset>,
}

impl<'a> Subsets<'a> {
    /// Split the memoized forward matrix of `ops` into `count` angle
    /// interleaves; [`BuildError::InvalidSubsets`] unless `count` is in
    /// `1..=` the scan's projection count.
    pub(crate) fn new(ops: &'a Operators, count: usize) -> Result<Self, BuildError> {
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
                let block_t = CsrMatrix::from_rows(a.ncols(), &row_data).transpose_scan();
                Subset {
                    row_w: rows
                        .iter()
                        .map(|&r| inv_sum(&mut a.row(r as usize)))
                        .collect(),
                    // `Aₛᵀ` lists a column's entries in increasing row
                    // order: the order a row-by-row pass adds them in.
                    col_w: (0..block_t.nrows())
                        .map(|c| inv_sum(&mut block_t.row(c)))
                        .collect(),
                    rows,
                    block_t,
                }
            })
            .collect();
        Ok(Subsets { a, subsets })
    }

    /// `(A·x_j)[row]` for slice `j` of the `k`-wide slice-interleaved
    /// `x`, from `A`'s own CSR row.
    fn row_dot(&self, row: u32, x: &[f32], k: usize, j: usize) -> f32 {
        let (ptr, row) = (self.a.rowptr(), row as usize);
        let span = ptr[row]..ptr[row + 1];
        row_dot(
            &self.a.colind()[span.clone()],
            &self.a.values()[span],
            &x[j..],
            k,
        )
    }
}

/// One OS-SIRT pass per step: for every subset in turn, a relaxed SIRT
/// sub-update `x ← x + ω·Cₛ·Aₛᵀ·Rₛ·(yₛ − Aₛ·x)` of every active slice,
/// then each slice's full residual norm. Column `j` of a width-`k` step
/// is slice `j` stepped alone: the forward products are per slice, and
/// the back products are one SpMM over the slice-interleaved slab. Carries no
/// scalars, and `ws`'s residual and back slabs are scratch it overwrites
/// before reading.
pub(crate) struct OsSirtRule<'a> {
    pub(crate) subsets: &'a Subsets<'a>,
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
        let os = self.subsets;
        let live = || (0..k).filter(|&j| active[j]);
        for sub in &os.subsets {
            let r = &mut resid[..k * sub.rows.len()];
            for ((ri, &row), &w) in r.chunks_exact_mut(k).zip(&sub.rows).zip(&sub.row_w) {
                for j in live() {
                    ri[j] = (y[j * m + row as usize] - os.row_dot(row, x, k, j)) * w;
                }
            }
            spmm_into(&sub.block_t, r, back, k);
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
        for j in live() {
            let mut res_sq = 0f64;
            for &row in os.subsets.iter().flat_map(|sub| &sub.rows) {
                let d = (y[j * m + row as usize] - os.row_dot(row, x, k, j)) as f64;
                res_sq += d * d;
            }
            res[j] = res_sq.sqrt();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::KernelOperator;
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

    /// Most entries in one row of `A` or of any `Aₛᵀ`: the most f32
    /// additions behind one product value.
    fn longest_row(s: &Subsets) -> usize {
        let longest = |m: &CsrMatrix| m.rowptr().windows(2).map(|w| w[1] - w[0]).max();
        let blocks = s.subsets.iter().filter_map(|sub| longest(&sub.block_t));
        blocks.chain(longest(s.a)).max().unwrap_or(0)
    }

    #[test]
    fn subsets_partition_all_rows() {
        let (rec, _, _) = setup();
        let a = &rec.operators().a;
        let s = Subsets::new(rec.operators(), 6).unwrap();
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
        let s = Subsets::new(rec.operators(), 5).unwrap();
        let wave = |len: usize, w: f32| (0..len).map(move |i| (i as f32 * w).sin());
        let x: Vec<f32> = wave(s.a.ncols(), 0.37).collect();
        let abs_x: Vec<f32> = x.iter().map(|v| v.abs()).collect();
        let unit = 2.0 * (longest_row(&s) + 8) as f64 * U;
        for (k, sub) in s.subsets.iter().enumerate() {
            let y: Vec<f32> = wave(sub.rows.len(), 0.73).collect();
            let (mut lhs, mut scale) = (0f64, 0f64);
            for (&r, &yi) in sub.rows.iter().zip(&y) {
                lhs += s.row_dot(r, &x, 1, 0) as f64 * yi as f64;
                scale += s.row_dot(r, &abs_x, 1, 0) as f64 * yi.abs() as f64;
            }
            let rhs = xct_sparse::dot_f64(&x, &xct_sparse::spmm(&sub.block_t, &y, 1));
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
        let s = Subsets::new(ops, count).unwrap();
        let mut ws = SolverWorkspace::new(ops.a.nrows(), ops.a.ncols());
        ws.x.copy_from_slice(&x_true);
        let (op, mut res) = (KernelOperator::new(ops, Kernel::Serial), [f64::NAN]);
        make_rule(os(count, 1.0), Some(&s)).step(&op, &y, &mut ws, &mut res);
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
