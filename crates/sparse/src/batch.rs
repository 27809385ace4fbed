//! Batched right-hand sides: slice-interleaved slabs and SpMM kernels.
//!
//! Reconstructing k adjacent slices through the *same* memoized matrix
//! turns SpMV into SpMM, `Y = A · [x₁ … xₖ]` — the matrix is streamed
//! from DRAM once per k slices instead of once per slice, which is the
//! arithmetic-intensity lever of the "Petascale XCT" follow-up work.
//!
//! Layout is **slice-interleaved**, everywhere a slab is batched: element
//! `i` of slice `j` of a `k`-wide slab sits at `data[i·k + j]`, so the
//! `k` values of one row (or column) are contiguous. At `k = 1` this is
//! the plain vector. [`interleave`] / [`deinterleave`] convert to and
//! from the slice-major order (`data[j·n + i]`) that callers hand in at
//! the edges. Column `j` of every batched product is **bit-identical** to
//! `A · xⱼ` for every batch width — k = 1 is the existing SpMV, not a
//! parallel code path: each layout has one pooled kernel body, its
//! `spmm_pooled_into`, and `spmv_pooled_into` is that body's one-slice
//! call.
//!
//! The CSR kernels here (and the ELL methods) run the single-slice row
//! kernel once per slice on each row, reading the slice at stride `k`:
//! the row's matrix data is read from cache for slices 2..k, but each
//! nonzero's index load, bounds check and gather are still paid per
//! slice, so these kernels gain little from batching.
//!
//! The buffered layout — the production kernel, in `buffered.rs` — does
//! not loop over slices at all. Its kernel is generic over a slice-block
//! width `W` (a batch is cut into blocks of 8, then 4, then 1; `W = 1` is
//! its SpMV): staging copies each slot's `W` contiguous values,
//! `input[slot] = x[map[slot]·k + s₀ ..][..W]`, so the accumulation loads
//! one contiguous `W`-vector per nonzero and the index, value and index
//! mask are shared by the block; the sums land straight in the output
//! rows. `W` decides which slices share a register, never the order in
//! which one slice is summed (lane `k % 8`, the fixed reduction tree,
//! sequential tail, stages in order), which is why the bits hold. The
//! cost is staging: `buffsize.next_power_of_two()` slots, one `f32` each
//! in the pool worker's scratch for single slices and one 32-byte line
//! each per thread for wider blocks — 64 KiB at the defaults — sized on
//! first use.

use crate::csr::CsrMatrix;
use crate::lanes::{row_dot, LANES};
use std::ops::Range;
use xct_runtime::{ExecPlan, WorkerPool};

/// Write the slice-major `src` (`k` slices of `n = src.len() / k`
/// elements; the length must be a multiple of `k`) into `dst`
/// slice-interleaved: `dst[i·k + j] = src[j·n + i]`.
///
/// # Panics
/// If the lengths differ.
pub fn interleave(src: &[f32], dst: &mut [f32], k: usize) {
    assert_eq!(src.len(), dst.len(), "slab lengths");
    let n = src.len() / k.max(1);
    for (j, slice) in src.chunks_exact(n.max(1)).enumerate() {
        for (d, &s) in dst[j..].iter_mut().step_by(k).zip(slice) {
            *d = s;
        }
    }
}

/// The inverse of [`interleave`]: `dst[j·n + i] = src[i·k + j]`.
///
/// # Panics
/// If the lengths differ.
pub fn deinterleave(src: &[f32], dst: &mut [f32], k: usize) {
    assert_eq!(src.len(), dst.len(), "slab lengths");
    let n = src.len() / k.max(1);
    for (j, slice) in dst.chunks_exact_mut(n.max(1)).enumerate() {
        for (d, &s) in slice.iter_mut().zip(src[j..].iter().step_by(k)) {
            *d = s;
        }
    }
}

/// Slices the next block takes out of `remaining`: a batch is cut into
/// blocks of [`LANES`], then 4, then single slices.
pub(crate) fn block_width(remaining: usize) -> usize {
    match remaining {
        LANES.. => LANES,
        4.. => 4,
        _ => 1,
    }
}

/// Sequential CSR SpMM: `y = A · [x₁ … xₖ]`, both sides
/// slice-interleaved. Column `j` is bit-identical to [`crate::spmv_into`]
/// on slice `j`.
pub fn spmm_into(a: &CsrMatrix, x: &[f32], y: &mut [f32], batch: usize) {
    assert!(batch > 0, "batch width must be positive");
    assert_eq!(x.len(), a.ncols() * batch, "x length");
    assert_eq!(y.len(), a.nrows() * batch, "y length");
    csr_rows(a, x, y, batch, 0..a.nrows());
}

/// Allocating [`spmm_into`].
pub fn spmm(a: &CsrMatrix, x: &[f32], batch: usize) -> Vec<f32> {
    let mut y = vec![0f32; a.nrows() * batch];
    spmm_into(a, x, &mut y, batch);
    y
}

/// Pooled CSR SpMM into a caller-provided slice-interleaved output: one
/// dispatch computes all k columns, each worker streaming its
/// plan-assigned row run once while filling every value of its rows.
/// Column `j` is bit-identical to [`crate::spmv_into`] on slice `j`, for
/// every worker count and batch width; `batch = 1` is
/// [`crate::spmv_pooled_into`].
pub fn spmm_pooled_into(
    a: &CsrMatrix,
    x: &[f32],
    y: &mut [f32],
    batch: usize,
    plan: &ExecPlan,
    pool: &WorkerPool,
) {
    assert!(batch > 0, "batch width must be positive");
    assert_eq!(x.len(), a.ncols() * batch, "x length");
    assert_eq!(y.len(), a.nrows() * batch, "y length");
    assert_eq!(plan.rows(), a.nrows(), "plan rows");
    pool.run_batched(plan, y, batch, |_parts, rows, out, _scratch| {
        csr_rows(a, x, out, batch, rows)
    });
}

/// Rows `rows` of `A · [x₁ … xₖ]` into `out` (their `k` values each):
/// the slice loop runs inside the row, so the row's entries are read from
/// cache for slices 2..k.
fn csr_rows(a: &CsrMatrix, x: &[f32], out: &mut [f32], k: usize, rows: Range<usize>) {
    let (rowptr, colind, values) = (a.rowptr(), a.colind(), a.values());
    for (i, row) in rows.zip(out.chunks_exact_mut(k)) {
        let (lo, hi) = (rowptr[i], rowptr[i + 1]);
        for (j, o) in row.iter_mut().enumerate() {
            *o = row_dot(&colind[lo..hi], &values[lo..hi], &x[j..], k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pooled::{csr_plan, spmv_pooled_into};
    use crate::spmv::spmv_into;

    fn skewed() -> CsrMatrix {
        let mut rows: Vec<Vec<(u32, f32)>> = vec![
            (0..48).map(|c| (c as u32, 0.25 + c as f32)).collect(),
            vec![(1, -1.0)],
            vec![],
            vec![(3, 2.0), (7, 1.5)],
            vec![(0, 1.0), (47, -0.5)],
        ];
        for i in 0..265 {
            rows.push(vec![((i % 48) as u32, (i as f32 * 0.3).cos())]);
        }
        CsrMatrix::from_rows(48, &rows)
    }

    fn interleaved(x: &[f32], k: usize) -> Vec<f32> {
        let mut out = vec![0f32; x.len()];
        interleave(x, &mut out, k);
        out
    }

    fn slice_major(x: &[f32], k: usize) -> Vec<f32> {
        let mut out = vec![0f32; x.len()];
        deinterleave(x, &mut out, k);
        out
    }

    #[test]
    fn interleave_round_trips() {
        let x: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let y = interleaved(&x, 3);
        assert_eq!(y, [0., 4., 8., 1., 5., 9., 2., 6., 10., 3., 7., 11.]);
        assert_eq!(slice_major(&y, 3), x);
        assert_eq!(interleaved(&x, 1), x);
        assert!(interleaved(&[], 4).is_empty());
    }

    fn rhs(ncols: usize, batch: usize) -> Vec<f32> {
        (0..ncols * batch)
            .map(|i| ((i * 37 + 11) % 101) as f32 * 0.013 - 0.5)
            .collect()
    }

    #[test]
    fn serial_spmm_columns_match_spmv_bitwise() {
        let a = skewed();
        for batch in [1, 2, 4, 7] {
            let x = rhs(a.ncols(), batch);
            let y = slice_major(&spmm(&a, &interleaved(&x, batch), batch), batch);
            for j in 0..batch {
                let mut want = vec![0f32; a.nrows()];
                spmv_into(&a, &x[j * a.ncols()..(j + 1) * a.ncols()], &mut want);
                let got = &y[j * a.nrows()..(j + 1) * a.nrows()];
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.to_bits(), w.to_bits(), "batch {batch} slice {j}");
                }
            }
        }
    }

    #[test]
    fn pooled_spmm_columns_match_pooled_spmv_bitwise() {
        let a = skewed();
        for workers in [1, 2, 4] {
            let pool = WorkerPool::new(workers);
            let plan = csr_plan(&a, workers);
            for batch in [1, 3, 5] {
                let x = rhs(a.ncols(), batch);
                let mut y = vec![0f32; a.nrows() * batch];
                spmm_pooled_into(&a, &interleaved(&x, batch), &mut y, batch, &plan, &pool);
                let y = slice_major(&y, batch);
                for j in 0..batch {
                    let mut want = vec![0f32; a.nrows()];
                    spmv_pooled_into(
                        &a,
                        &x[j * a.ncols()..(j + 1) * a.ncols()],
                        &mut want,
                        &plan,
                        &pool,
                    );
                    let got = &y[j * a.nrows()..(j + 1) * a.nrows()];
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(
                            g.to_bits(),
                            w.to_bits(),
                            "workers {workers} batch {batch} slice {j}"
                        );
                    }
                }
            }
        }
    }
}
