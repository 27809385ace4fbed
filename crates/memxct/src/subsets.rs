//! Ordered-subsets solvers over the memoized operators.
//!
//! The paper notes (§3.5.2) that other iteration schemes — SIRT, SGD,
//! ICD — "can be implemented for our proposed memory-centric approach in a
//! plug-and-play manner": any solver that applies row blocks of `A` reuses
//! the memoized matrices. This module demonstrates that with
//! ordered-subsets SIRT / stochastic gradient descent (the scheme of
//! cuMBIR, the paper's GPU-framework comparison): each sub-iteration
//! applies only the rays of one projection-angle subset, converging in
//! far fewer full passes over the data.

use crate::operator::ProjectionOperator;
use crate::preprocess::Operators;
use crate::solvers::{
    run_engine, Constraint, IterationRecord, SolverWorkspace, StopRule, UpdateRule,
};
use std::cell::RefCell;
use xct_sparse::{spmv_into, CsrMatrix};

/// The row blocks of `A` for one angle-interleaved subset.
struct Subset {
    /// Rows of `A` (ordered coordinates) in this subset.
    rows: Vec<u32>,
    /// The row block (rows × full tomogram).
    block: CsrMatrix,
    /// Its transpose.
    block_t: CsrMatrix,
    /// SIRT row weights (1/row sums).
    row_w: Vec<f32>,
    /// SIRT column weights over this block.
    col_w: Vec<f32>,
}

/// Ordered-subsets SIRT (OS-SIRT / SART family) on the memoized operators.
///
/// `num_subsets` angle-interleaved subsets per full iteration; subsets are
/// visited in a fixed bit-reversal-like interleave for better angular
/// coverage. One "iteration" in the returned records is one full pass over
/// all subsets.
pub struct OrderedSubsets {
    subsets: Vec<Subset>,
    nx: usize,
    /// Where every subset product lands, sized once: one subset's rays
    /// (the largest subset's worth) and one tomogram.
    scratch: RefCell<(Vec<f32>, Vec<f32>)>,
}

impl OrderedSubsets {
    /// Split the memoized forward matrix into `num_subsets` angle
    /// interleaves (subset `k` holds the rays of projections
    /// `p ≡ k (mod num_subsets)`).
    pub fn new(ops: &Operators, num_subsets: usize) -> Self {
        // lint: allow(no-panic) documented parameter precondition
        assert!(num_subsets > 0);
        let m = ops.scan.num_projections() as usize;
        // lint: allow(no-panic) documented parameter precondition
        assert!(
            num_subsets <= m,
            "cannot have more subsets than projections"
        );
        let mut rows_by_subset: Vec<Vec<u32>> = vec![Vec::new(); num_subsets];
        // in-range: row ranks are u32 by the CSR layout
        for rank in 0..ops.a.nrows() as u32 {
            let (_chan, proj) = ops.sino_ord.cell(rank);
            rows_by_subset[(proj as usize) % num_subsets].push(rank);
        }
        let subsets: Vec<Subset> = rows_by_subset
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
                Subset {
                    rows,
                    block,
                    block_t,
                    row_w,
                    col_w,
                }
            })
            .collect();
        let longest = subsets.iter().map(|s| s.rows.len()).max().unwrap_or(0);
        let scratch = RefCell::new((vec![0f32; longest], vec![0f32; ops.a.ncols()]));
        OrderedSubsets {
            subsets,
            nx: ops.a.ncols(),
            scratch,
        }
    }

    /// Number of subsets.
    pub fn num_subsets(&self) -> usize {
        self.subsets.len()
    }

    /// The OS-SIRT update rule over these subsets; `relaxation` scales
    /// each sub-update (1.0 = plain SART step). Feed it to
    /// [`run_engine`] together with `self` as the operator.
    pub fn rule(&self, relaxation: f32) -> OsRule<'_> {
        // lint: allow(no-panic) documented parameter precondition
        assert!(relaxation > 0.0);
        OsRule {
            os: self,
            relaxation,
        }
    }

    /// Run `iters` full passes of OS-SIRT from zero — a thin shim over
    /// [`run_engine`] with [`OsRule`]. `y_ordered` is the measurement
    /// vector in sinogram-ordered coordinates.
    pub fn solve(
        &self,
        y_ordered: &[f32],
        iters: usize,
        relaxation: f32,
    ) -> (Vec<f32>, Vec<IterationRecord>) {
        let mut rule = self.rule(relaxation);
        run_engine(
            self,
            y_ordered,
            &mut rule,
            Constraint::None,
            StopRule::Fixed(iters),
        )
    }
}

/// The subset decomposition *is* a projection operator: forward scatters
/// each subset's rows into their global positions (the subsets partition
/// the sinogram), backprojection sums the per-subset transposes.
impl ProjectionOperator for OrderedSubsets {
    fn nrows(&self) -> usize {
        self.subsets.iter().map(|s| s.rows.len()).sum()
    }
    fn ncols(&self) -> usize {
        self.nx
    }
    fn forward_into(&self, x: &[f32], y: &mut [f32]) {
        let (r, _) = &mut *self.scratch.borrow_mut();
        for sub in &self.subsets {
            let r = &mut r[..sub.rows.len()];
            spmv_into(&sub.block, x, r);
            for (&row, &v) in sub.rows.iter().zip(r.iter()) {
                y[row as usize] = v;
            }
        }
    }
    fn back_into(&self, y: &[f32], x: &mut [f32]) {
        x.fill(0.0);
        let (r, u) = &mut *self.scratch.borrow_mut();
        for sub in &self.subsets {
            let ys = &mut r[..sub.rows.len()];
            for (yi, &row) in ys.iter_mut().zip(&sub.rows) {
                *yi = y[row as usize];
            }
            spmv_into(&sub.block_t, ys, u);
            for (xi, &ui) in x.iter_mut().zip(u.iter()) {
                *xi += ui;
            }
        }
    }
}

/// One OS-SIRT pass: a relaxed SIRT sub-update per subset, then the full
/// residual over all subsets.
pub struct OsRule<'a> {
    os: &'a OrderedSubsets,
    relaxation: f32,
}

impl UpdateRule for OsRule<'_> {
    fn step(
        &mut self,
        _op: &dyn ProjectionOperator,
        y: &[f32],
        ws: &mut SolverWorkspace,
        res: &mut [f64],
    ) {
        let [res] = res else {
            return; // single-slice only: every slot stays NaN → all retire
        };
        let x = ws.x_mut();
        let (r, u) = &mut *self.os.scratch.borrow_mut();
        for sub in &self.os.subsets {
            // Residual restricted to the subset's rays.
            let r = &mut r[..sub.rows.len()];
            spmv_into(&sub.block, x, r);
            for (ri, &row) in r.iter_mut().zip(&sub.rows) {
                *ri = y[row as usize] - *ri;
            }
            for (ri, &w) in r.iter_mut().zip(&sub.row_w) {
                *ri *= w;
            }
            spmv_into(&sub.block_t, r, u);
            for ((xi, &ui), &w) in x.iter_mut().zip(u.iter()).zip(&sub.col_w) {
                *xi += self.relaxation * ui * w;
            }
        }
        // Full residual for the record (over all subsets).
        let mut res_sq = 0f64;
        for sub in &self.os.subsets {
            let r = &mut r[..sub.rows.len()];
            spmv_into(&sub.block, x, r);
            for (ri, &row) in r.iter().zip(&sub.rows) {
                let d = (y[row as usize] - ri) as f64;
                res_sq += d * d;
            }
        }
        *res = res_sq.sqrt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{preprocess, Config, Kernel};
    use crate::rel_err;
    use crate::solvers::sirt;
    use xct_geometry::{disk, simulate_sinogram, Grid, NoiseModel, ScanGeometry};

    fn setup() -> (Operators, Vec<f32>, Vec<f32>) {
        let n = 24u32;
        let m = 36u32;
        let grid = Grid::new(n);
        let scan = ScanGeometry::new(m, n);
        let img = disk(0.6, 1.0).rasterize(n);
        let sino = simulate_sinogram(&img, &grid, &scan, NoiseModel::None, 0);
        let ops = preprocess(grid, scan, &Config::default());
        let y = ops.order_sinogram(&sino);
        let x_true = ops.order_tomogram(&img);
        (ops, y, x_true)
    }

    #[test]
    fn subsets_partition_all_rows() {
        let (ops, _, _) = setup();
        let os = OrderedSubsets::new(&ops, 6);
        let total: usize = os.subsets.iter().map(|s| s.rows.len()).sum();
        assert_eq!(total, ops.a.nrows());
        let total_nnz: usize = os.subsets.iter().map(|s| s.block.nnz()).sum();
        assert_eq!(total_nnz, ops.a.nnz());
    }

    #[test]
    fn one_subset_equals_plain_sirt() {
        let (ops, y, _) = setup();
        let os = OrderedSubsets::new(&ops, 1);
        let (x_os, _) = os.solve(&y, 8, 1.0);
        let (x_plain, _) = sirt(
            &y,
            ops.a.ncols(),
            |p| ops.forward(Kernel::Serial, p),
            |r| ops.back(Kernel::Serial, r),
            8,
        );
        assert!(
            rel_err(&x_os, &x_plain) < 1e-4,
            "err {}",
            rel_err(&x_os, &x_plain)
        );
    }

    #[test]
    fn more_subsets_converge_faster_per_pass() {
        // The whole point of ordered subsets: after the same number of
        // full data passes, more subsets => smaller residual.
        let (ops, y, _) = setup();
        let passes = 4;
        let (_, recs1) = OrderedSubsets::new(&ops, 1).solve(&y, passes, 1.0);
        let (_, recs6) = OrderedSubsets::new(&ops, 6).solve(&y, passes, 1.0);
        assert!(
            recs6.last().unwrap().residual_norm < recs1.last().unwrap().residual_norm,
            "6 subsets {} should beat 1 subset {}",
            recs6.last().unwrap().residual_norm,
            recs1.last().unwrap().residual_norm
        );
    }

    #[test]
    fn os_sirt_recovers_the_disk() {
        let (ops, y, x_true) = setup();
        let os = OrderedSubsets::new(&ops, 6);
        let (x, _) = os.solve(&y, 10, 1.0);
        assert!(rel_err(&x, &x_true) < 0.25, "err {}", rel_err(&x, &x_true));
    }

    #[test]
    #[should_panic(expected = "subsets than projections")]
    fn too_many_subsets_rejected() {
        let (ops, _, _) = setup();
        OrderedSubsets::new(&ops, 10_000);
    }
}
