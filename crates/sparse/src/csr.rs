//! Compressed sparse row matrices with the paper's data layout
//! (f32 values, u32 column indices) and the order-preserving scan-based
//! transpose of §3.5.1.

/// A sparse matrix in CSR format.
///
/// Row `i`'s nonzeroes live at `rowptr[i]..rowptr[i+1]` in `colind` /
/// `values`. Within a row, entries keep their insertion order — MemXCT
/// inserts them in ray-traversal order, and all further transformations
/// (including the transpose) preserve ordering, which the buffering
/// optimizations rely on.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    rowptr: Vec<usize>,
    colind: Vec<u32>,
    values: Vec<f32>,
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
            values,
        }
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
        let mut values = Vec::with_capacity(nnz);
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
            values,
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
            values,
        }
    }

    /// An empty matrix with the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            rowptr: vec![0; nrows + 1],
            colind: Vec::new(),
            values: Vec::new(),
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
        let mut colind_t = vec![0u32; self.nnz()];
        let mut values_t = vec![0f32; self.nnz()];
        let mut cursor = counts; // running insert position per column
        for i in 0..self.nrows {
            for k in self.rowptr[i]..self.rowptr[i + 1] {
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
            values: values_t,
        }
    }
}

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

    #[test]
    fn zeros_is_empty() {
        let z = CsrMatrix::zeros(5, 7);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.nrows(), 5);
        assert_eq!(z.ncols(), 7);
    }
}
