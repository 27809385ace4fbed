//! Batched right-hand sides: slice-major vector blocks and SpMM kernels.
//!
//! Reconstructing k adjacent slices through the *same* memoized matrix
//! turns SpMV into SpMM, `Y = A · [x₁ … xₖ]` — the matrix is streamed
//! from DRAM once per k slices instead of once per slice, which is the
//! arithmetic-intensity lever of the "Petascale XCT" follow-up work.
//!
//! Layout is **slice-major**: slice `j` of an `n`-element domain occupies
//! `data[j * n .. (j + 1) * n]`, everywhere outside a kernel. Column `j`
//! of every batched product is **bit-identical** to `A · xⱼ` for every
//! batch width — k = 1 is the existing SpMV, not a parallel code path:
//! each layout has one pooled kernel body, its `spmm_pooled_into`, and
//! `spmv_pooled_into` is that body's one-slice call.
//!
//! The CSR kernels here (and the ELL methods) get there by running the
//! single-slice row kernel once per slice *inside* a cache-resident
//! matrix tile (a fixed row tile for CSR, one partition for ELL): the
//! tile's matrix data is read from cache for slices 2..k, but each
//! nonzero's index load, bounds check and gather are still paid per
//! slice, so these kernels gain little from batching.
//!
//! The buffered layout — the production kernel, in `buffered.rs` — does
//! not loop over slices at all. Its kernel is generic over a slice-block
//! width `W` (a batch is cut into blocks of 8, then 4, then 1; `W = 1` is
//! its SpMV): the staging gather writes each stage's footprint
//! slice-interleaved, `input[slot * W + s] = xₛ[map[slot]]`, so the
//! accumulation loads one contiguous `W`-vector per nonzero and the
//! index, value and index mask are shared by the block. `W` decides
//! which slices share a register, never the order in which one slice is
//! summed (lane `k % 8`, the fixed reduction tree, sequential tail,
//! stages in order), which is why the bits hold. The cost is scratch:
//! `(buffsize.next_power_of_two() + partsize) · W` floats per worker —
//! 64 KiB of interleaved staging plus a 4 KiB output tile at the defaults
//! and `W = 8` — sized on first use.

use crate::csr::CsrMatrix;
use crate::lanes::row_dot;
use xct_runtime::{ExecPlan, WorkerPool};

/// Row-tile width of the CSR SpMM kernels: the slice loop runs inside
/// each tile so the tile's `rowptr`/`colind`/`values` stay cache-resident
/// across all k slices. Tiling never changes results (each row's
/// accumulation is independent), only the matrix re-read distance.
pub const SPMM_ROW_TILE: usize = 256;

/// A slice-major batched vector: `batch` contiguous blocks of `len`
/// elements each, slice `j` at `data[j * len .. (j + 1) * len]`. This is
/// the right-hand-side (and output) shape of every SpMM kernel and of the
/// batched solver engine.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceBatch {
    len: usize,
    batch: usize,
    data: Vec<f32>,
}

impl SliceBatch {
    /// An all-zero batch of `batch` slices of `len` elements.
    ///
    /// # Panics
    /// If `batch` is zero.
    pub fn new(len: usize, batch: usize) -> Self {
        assert!(batch > 0, "batch width must be positive");
        SliceBatch {
            len,
            batch,
            data: vec![0f32; len * batch],
        }
    }

    /// Pack independent slices into one slice-major block.
    ///
    /// # Panics
    /// If `slices` is empty or the slices disagree in length.
    pub fn from_slices(slices: &[&[f32]]) -> Self {
        assert!(!slices.is_empty(), "batch width must be positive");
        let len = slices[0].len();
        let mut data = Vec::with_capacity(len * slices.len());
        for s in slices {
            assert_eq!(s.len(), len, "slice lengths must agree");
            data.extend_from_slice(s);
        }
        SliceBatch {
            len,
            batch: slices.len(),
            data,
        }
    }

    /// Elements per slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when slices are empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slices (the batch width k).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Slice `j` as a contiguous block.
    pub fn slice(&self, j: usize) -> &[f32] {
        &self.data[j * self.len..(j + 1) * self.len]
    }

    /// Mutable slice `j`.
    pub fn slice_mut(&mut self, j: usize) -> &mut [f32] {
        &mut self.data[j * self.len..(j + 1) * self.len]
    }

    /// The whole slice-major block (`len × batch` elements).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The whole slice-major block, mutable.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

/// Sequential CSR SpMM: `y = A · [x₁ … xₖ]`, both sides slice-major.
/// Column `j` is bit-identical to [`crate::spmv_into`] on slice `j`.
pub fn spmm_into(a: &CsrMatrix, x: &[f32], y: &mut [f32], batch: usize) {
    assert!(batch > 0, "batch width must be positive");
    assert_eq!(x.len(), a.ncols() * batch, "x length");
    assert_eq!(y.len(), a.nrows() * batch, "y length");
    let rowptr = a.rowptr();
    let colind = a.colind();
    let values = a.values();
    let (nrows, ncols) = (a.nrows(), a.ncols());
    for tile in (0..nrows).step_by(SPMM_ROW_TILE) {
        let hi = (tile + SPMM_ROW_TILE).min(nrows);
        // Slice loop inside the tile: the tile's matrix data is streamed
        // once and re-read from cache for the remaining k-1 slices.
        for j in 0..batch {
            let xs = &x[j * ncols..(j + 1) * ncols];
            let ys = &mut y[j * nrows + tile..j * nrows + hi];
            for (jj, out) in ys.iter_mut().enumerate() {
                let i = tile + jj;
                let (lo, hi) = (rowptr[i], rowptr[i + 1]);
                *out = row_dot(&colind[lo..hi], &values[lo..hi], xs);
            }
        }
    }
}

/// Allocating [`spmm_into`].
pub fn spmm(a: &CsrMatrix, x: &[f32], batch: usize) -> Vec<f32> {
    let mut y = vec![0f32; a.nrows() * batch];
    spmm_into(a, x, &mut y, batch);
    y
}

/// Pooled CSR SpMM into a caller-provided slice-major output: one
/// dispatch computes all k columns, each worker streaming its
/// plan-assigned row run once while filling its row range of every
/// output block. Column `j` is bit-identical to [`crate::spmv_into`] on
/// slice `j`, for every worker count and batch width; `batch = 1` is
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
    let rowptr = a.rowptr();
    let colind = a.colind();
    let values = a.values();
    let ncols = a.ncols();
    pool.run_batched(plan, y, batch, |_parts, rows, mut out, _scratch| {
        for tile in (rows.start..rows.end).step_by(SPMM_ROW_TILE) {
            let hi = (tile + SPMM_ROW_TILE).min(rows.end);
            for j in 0..batch {
                let xs = &x[j * ncols..(j + 1) * ncols];
                let block = out.block(j);
                for i in tile..hi {
                    let (lo, khi) = (rowptr[i], rowptr[i + 1]);
                    block[i - rows.start] = row_dot(&colind[lo..khi], &values[lo..khi], xs);
                }
            }
        }
    });
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
        // Enough rows to cross a SPMM_ROW_TILE boundary.
        for i in 0..(SPMM_ROW_TILE + 9) {
            rows.push(vec![((i % 48) as u32, (i as f32 * 0.3).cos())]);
        }
        CsrMatrix::from_rows(48, &rows)
    }

    fn rhs(ncols: usize, batch: usize) -> Vec<f32> {
        (0..ncols * batch)
            .map(|i| ((i * 37 + 11) % 101) as f32 * 0.013 - 0.5)
            .collect()
    }

    #[test]
    fn slice_batch_blocks_are_slice_major() {
        let mut sb = SliceBatch::new(3, 2);
        sb.slice_mut(1).copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(sb.as_slice(), &[0.0, 0.0, 0.0, 1.0, 2.0, 3.0]);
        assert_eq!(sb.slice(0), &[0.0; 3]);
        assert_eq!(sb.len(), 3);
        assert_eq!(sb.batch(), 2);
        let packed = SliceBatch::from_slices(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(packed.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn serial_spmm_columns_match_spmv_bitwise() {
        let a = skewed();
        for batch in [1, 2, 4, 7] {
            let x = rhs(a.ncols(), batch);
            let y = spmm(&a, &x, batch);
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
                spmm_pooled_into(&a, &x, &mut y, batch, &plan, &pool);
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
