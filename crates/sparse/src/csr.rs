//! Compressed sparse row matrices with the paper's data layout
//! (f32 values, u32 column indices) and the order-preserving scan-based
//! transpose of §3.5.1.

use crate::buffered::{pad_tail, TAIL};
use crate::spare;
use std::sync::Arc;
use xct_runtime::prefetch;

/// A sparse matrix in CSR format.
///
/// Row `i`'s nonzeroes live at `rowptr[i]..rowptr[i+1]` in `colind` /
/// `values`. Within a row, entries keep their insertion order — MemXCT
/// inserts them in ray-traversal order, and all further transformations
/// (including the transpose) preserve ordering, which the buffering
/// optimizations rely on.
///
/// The value array carries the buffered kernel's zero pad past its last
/// value and is reference-counted, so a buffered layout whose entries
/// are this matrix's values in order (every transposed matrix's) holds
/// them without a copy; a clone shares them too.
///
/// Dropping a matrix hands its large index and value arrays (the values
/// from their last owner) to the plan-storage spare, which the next
/// [`CsrMatrix::from_rowptr`], [`CsrMatrix::transpose_scan`] or buffered
/// layout draws from: a rebuild fills pages the last plan gave back.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    rowptr: Vec<usize>,
    colind: Vec<u32>,
    /// The values, then [`TAIL`] `0.0` pad entries.
    values: Arc<Vec<f32>>,
}

/// `values` with the kernel's pad appended, ready to be shared.
fn padded(mut values: Vec<f32>) -> Arc<Vec<f32>> {
    pad_tail(&mut values);
    Arc::new(values)
}

impl CsrMatrix {
    /// Build from raw CSR arrays.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent (wrong lengths, non-monotone
    /// row pointers, or column indices out of range).
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colind: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        assert_eq!(rowptr.len(), nrows + 1, "rowptr length");
        assert_eq!(rowptr[0], 0, "rowptr must start at 0");
        assert_eq!(*rowptr.last().unwrap(), colind.len(), "rowptr end");
        assert_eq!(colind.len(), values.len(), "colind/values length");
        assert!(rowptr.windows(2).all(|w| w[0] <= w[1]), "rowptr monotone");
        assert!(
            colind.iter().all(|&c| (c as usize) < ncols),
            "column index out of range"
        );
        CsrMatrix {
            nrows,
            ncols,
            rowptr,
            colind,
            values: padded(values),
        }
    }

    /// Build from row pointers, filling the entries in place: `fill` gets
    /// `rowptr` and the column and value arrays, `rowptr[nrows]` entries
    /// each and zeroed, and writes every entry. The arrays come from the
    /// plan-storage spare, so a rebuild writes into pages an earlier plan
    /// gave back instead of faulting in fresh ones.
    ///
    /// ```
    /// use xct_sparse::CsrMatrix;
    /// let a = CsrMatrix::from_rowptr(2, 3, vec![0, 2, 3], |_, cols, vals| {
    ///     cols.copy_from_slice(&[0, 2, 1]);
    ///     vals.copy_from_slice(&[1.0, 2.0, 3.0]);
    /// });
    /// assert_eq!(a, CsrMatrix::from_rows(3, &[vec![(0, 1.0), (2, 2.0)], vec![(1, 3.0)]]));
    /// ```
    ///
    /// # Panics
    /// Panics like [`CsrMatrix::from_raw`] if `rowptr` or the filled
    /// column indices are inconsistent.
    pub fn from_rowptr(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        fill: impl FnOnce(&[usize], &mut [u32], &mut [f32]),
    ) -> Self {
        let nnz = rowptr.last().copied().unwrap_or(0);
        let mut colind = spare::draw_zeroed(nnz);
        // Room for the kernel's pad, which `from_raw` appends in place.
        let mut values = spare::draw_zeroed(nnz + TAIL);
        values.truncate(nnz);
        fill(&rowptr, &mut colind, &mut values);
        Self::from_raw(nrows, ncols, rowptr, colind, values)
    }

    /// Build row-by-row: `rows[i]` is the (column, value) list of row `i`,
    /// kept in the given order.
    ///
    /// ```
    /// use xct_sparse::{CsrMatrix, spmv};
    /// let a = CsrMatrix::from_rows(3, &[
    ///     vec![(0, 1.0), (2, 2.0)],
    ///     vec![(1, -1.0)],
    /// ]);
    /// assert_eq!(spmv(&a, &[1.0, 2.0, 3.0]), vec![7.0, -2.0]);
    /// assert_eq!(a.transpose_scan().transpose_scan(), a);
    /// ```
    pub fn from_rows(ncols: usize, rows: &[Vec<(u32, f32)>]) -> Self {
        let nrows = rows.len();
        let nnz: usize = rows.iter().map(|r| r.len()).sum();
        let mut rowptr = Vec::with_capacity(nrows + 1);
        let mut colind = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz + TAIL);
        rowptr.push(0);
        for row in rows {
            for &(c, v) in row {
                assert!((c as usize) < ncols, "column {c} out of range");
                colind.push(c);
                values.push(v);
            }
            rowptr.push(colind.len());
        }
        CsrMatrix {
            nrows,
            ncols,
            rowptr,
            colind,
            values: padded(values),
        }
    }

    /// Build from raw CSR arrays with **no validation**. This exists so
    /// static-analysis tooling (`xct-check`) can be exercised against
    /// deliberately malformed matrices; production code should use
    /// [`CsrMatrix::from_raw`], which asserts well-formedness.
    pub fn from_raw_unchecked(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colind: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            rowptr,
            colind,
            values: padded(values),
        }
    }

    /// An empty matrix with the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            rowptr: vec![0; nrows + 1],
            colind: Vec::new(),
            values: padded(Vec::new()),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeroes.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.colind.len()
    }

    /// Row pointer array (length `nrows + 1`).
    #[inline]
    pub fn rowptr(&self) -> &[usize] {
        &self.rowptr
    }

    /// Column indices, row-concatenated.
    #[inline]
    pub fn colind(&self) -> &[u32] {
        &self.colind
    }

    /// Values, row-concatenated.
    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.values[..self.values.len() - TAIL]
    }

    /// The padded value array itself, for a buffered layout to share.
    pub(crate) fn shared_values(&self) -> &Arc<Vec<f32>> {
        &self.values
    }

    /// The `(column, value)` entries of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> impl Iterator<Item = (u32, f32)> + '_ {
        let lo = self.rowptr[i];
        let hi = self.rowptr[i + 1];
        self.colind[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Bytes of "regular data" this matrix streams per SpMV: one u32 index
    /// and one f32 value per nonzero (paper §3.1.1).
    pub fn regular_bytes(&self) -> u64 {
        self.nnz() as u64 * 8
    }

    /// Order-preserving scan-based sparse transpose (§3.5.1).
    ///
    /// A counting sort by column: count nonzeroes per column, exclusive
    /// prefix-scan into output offsets, then a stable sweep in row order.
    /// Stability means each transposed row (= original column) lists its
    /// entries in increasing original-row order, preserving the Hilbert
    /// data locality — unlike an atomic-based transpose, which randomizes
    /// intra-row order.
    ///
    /// The sweep writes to one open stream per column, so nearly every
    /// store misses cache, and its time is that latency, not bandwidth.
    /// The destinations are known ahead (`cursor[colind[k + d]]`), so the
    /// sweep prefetches the slots of entry `k + `[`TRANSPOSE_LOOKAHEAD`]
    /// while it writes entry `k`: the misses overlap instead of queueing,
    /// and the arrays are the same as without the hint.
    pub fn transpose_scan(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.colind {
            counts[c as usize + 1] += 1;
        }
        // Exclusive prefix scan.
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let rowptr_t = counts.clone();
        let mut colind_t = spare::draw_zeroed(self.nnz());
        let mut values_t = spare::draw_zeroed(self.nnz() + TAIL);
        let mut cursor = counts; // running insert position per column
        for i in 0..self.nrows {
            for k in self.rowptr[i]..self.rowptr[i + 1] {
                // The count pass indexed every column, so the lookahead
                // entry's `cursor` is in range; past the last entry the
                // hint is skipped.
                if let Some(&ahead) = self.colind.get(k + TRANSPOSE_LOOKAHEAD) {
                    let slot = cursor[ahead as usize];
                    prefetch(&colind_t, slot);
                    prefetch(&values_t, slot);
                }
                let c = self.colind[k] as usize;
                let dst = cursor[c];
                cursor[c] += 1;
                // in-range: i < nrows and CSR column indices are u32 by layout
                colind_t[dst] = i as u32;
                values_t[dst] = self.values[k];
            }
        }
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            rowptr: rowptr_t,
            colind: colind_t,
            values: Arc::new(values_t),
        }
    }
}

impl Drop for CsrMatrix {
    fn drop(&mut self) {
        spare::give(std::mem::take(&mut self.colind));
        if let Some(values) = Arc::into_inner(std::mem::take(&mut self.values)) {
            spare::give(values);
        }
    }
}

/// Entries between the one [`CsrMatrix::transpose_scan`] writes and the
/// one whose destination it prefetches: enough to cover a miss to memory
/// at a few nanoseconds an entry, few enough that the line is still in
/// cache when its store comes.
pub const TRANSPOSE_LOOKAHEAD: usize = 32;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        // [ 0 5 6 ]
        CsrMatrix::from_rows(
            3,
            &[
                vec![(0, 1.0), (2, 2.0)],
                vec![],
                vec![(0, 3.0), (1, 4.0)],
                vec![(1, 5.0), (2, 6.0)],
            ],
        )
    }

    /// Dense representation.
    fn dense(m: &CsrMatrix) -> Vec<Vec<f32>> {
        let mut d = vec![vec![0f32; m.ncols()]; m.nrows()];
        for (i, di) in d.iter_mut().enumerate() {
            for (c, v) in m.row(i) {
                di[c as usize] += v;
            }
        }
        d
    }

    #[test]
    fn construction_and_access() {
        let m = sample();
        assert_eq!(m.nrows(), 4);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.nnz(), 6);
        assert_eq!(m.row(2).collect::<Vec<_>>(), vec![(0, 3.0), (1, 4.0)]);
        assert_eq!(m.row(1).count(), 0);
    }

    #[test]
    fn transpose_is_correct() {
        let m = sample();
        let t = m.transpose_scan();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 4);
        assert_eq!(t.nnz(), 6);
        let (d, d_t) = (dense(&m), dense(&t));
        for i in 0..4 {
            for j in 0..3 {
                assert_eq!(d[i][j], d_t[j][i]);
            }
        }
    }

    #[test]
    fn transpose_preserves_row_order_within_transposed_rows() {
        let m = sample();
        let t = m.transpose_scan();
        // Column 0 of m had entries from rows 0 then 2: stable order.
        assert_eq!(t.row(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, 3.0)]);
        assert_eq!(t.row(1).collect::<Vec<_>>(), vec![(2, 4.0), (3, 5.0)]);
        assert_eq!(t.row(2).collect::<Vec<_>>(), vec![(0, 2.0), (3, 6.0)]);
    }

    #[test]
    fn double_transpose_is_identity() {
        let m = sample();
        let tt = m.transpose_scan().transpose_scan();
        assert_eq!(m, tt);
    }

    #[test]
    fn regular_bytes_is_8_per_nnz() {
        assert_eq!(sample().regular_bytes(), 48);
    }

    #[test]
    #[should_panic(expected = "column")]
    fn out_of_range_column_panics() {
        CsrMatrix::from_rows(2, &[vec![(2, 1.0)]]);
    }

    /// The transpose by definition: column `c`'s entries, collected by a
    /// scan over the rows in order, become row `c`.
    fn naive_transpose(m: &CsrMatrix) -> (Vec<usize>, Vec<u32>, Vec<u32>) {
        let (mut rowptr, mut rows, mut bits) = (vec![0], Vec::new(), Vec::new());
        for c in 0..m.ncols() {
            for i in 0..m.nrows() {
                for (col, v) in m.row(i) {
                    if col as usize == c {
                        rows.push(i as u32);
                        bits.push(v.to_bits());
                    }
                }
            }
            rowptr.push(rows.len());
        }
        (rowptr, rows, bits)
    }

    fn assert_transposes(m: &CsrMatrix) {
        let t = m.transpose_scan();
        let (rowptr, rows, bits) = naive_transpose(m);
        let ctx = format!("{}x{} nnz {}", m.nrows(), m.ncols(), m.nnz());
        assert_eq!((t.nrows(), t.ncols()), (m.ncols(), m.nrows()), "{ctx}");
        assert_eq!(t.rowptr(), &rowptr[..], "rowptr: {ctx}");
        assert_eq!(t.colind(), &rows[..], "colind: {ctx}");
        let got: Vec<u32> = t.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, bits, "values: {ctx}");
    }

    #[test]
    fn transpose_matches_the_naive_column_scan() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(41);
        // Shapes from below the prefetch lookahead (every hint past the
        // end) to a few hundred entries; rows and columns left empty at
        // random, and columns repeated inside a row.
        for (nrows, ncols, max_row) in [(0, 3, 0), (3, 0, 0), (4, 5, 3), (9, 7, 6), (60, 40, 12)] {
            for _ in 0..8 {
                let rows: Vec<Vec<(u32, f32)>> = (0..nrows)
                    .map(|_| {
                        let len = if ncols == 0 {
                            0
                        } else {
                            rng.gen_range(0..max_row + 1)
                        };
                        (0..len)
                            .map(|_| (rng.gen_range(0..ncols) as u32, rng.gen_range(-1.0f32..1.0)))
                            .collect()
                    })
                    .collect();
                let m = CsrMatrix::from_rows(ncols, &rows);
                assert_transposes(&m);
            }
        }
        assert!(sample().nnz() < TRANSPOSE_LOOKAHEAD);
        assert_transposes(&sample());
        // Repeated columns, and a value whose bits `==` would not tell
        // apart (`-0.0`), through the unchecked constructor.
        let dup = CsrMatrix::from_raw_unchecked(
            3,
            4,
            vec![0, 4, 4, 7],
            vec![2, 2, 0, 2, 3, 3, 2],
            vec![1.0, -0.0, 2.0, 0.0, 3.0, f32::MIN_POSITIVE, 4.0],
        );
        assert_transposes(&dup);
    }

    #[test]
    fn from_raw_keeps_a_value_buffer_with_room_for_the_pad() {
        let mut values = Vec::with_capacity(3 + TAIL);
        values.extend([1.0f32, 2.0, 3.0]);
        let ptr = values.as_ptr();
        let m = CsrMatrix::from_raw(2, 3, vec![0, 2, 3], vec![0, 2, 1], values);
        assert_eq!(m.values().as_ptr(), ptr, "the pad fit: no copy");
        assert_eq!(m.values(), &[1.0, 2.0, 3.0]);
        assert_eq!(m.shared_values().len(), 3 + TAIL);
    }

    #[test]
    fn zeros_is_empty() {
        let z = CsrMatrix::zeros(5, 7);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.nrows(), 5);
        assert_eq!(z.ncols(), 7);
    }
}
