//! Column-major ELL storage with partition-level zero padding — the
//! CPU-side analog of MemXCT's GPU kernel (§3.1.4).
//!
//! On the GPU, each row partition maps to a CUDA thread block and each row
//! to a thread; storing the partition's entries column-major (transposed
//! ELL) makes consecutive threads touch consecutive memory (coalescing).
//! Padding happens per partition (to that partition's max row length), not
//! per matrix — exactly the trick the paper credits for beating cuSPARSE
//! (§4.2.5). Padded slots use column 0 with value 0 and are *multiplied
//! anyway* ("we pad with 0 and perform redundant multiplication with 0 to
//! avoid thread divergence").

use crate::csr::CsrMatrix;
use crate::lanes::LANES;

/// One partition's column-major sweep, restructured into 8-row blocks:
/// each block holds [`LANES`] independent accumulators in registers across
/// the full `width` sweep, so the slot loads (`colind`/`values` at
/// `s * rows + j`, contiguous across the block's rows — the CPU analog of
/// coalesced accesses) and the FMAs vectorize. Row `j`'s accumulation
/// order is still slot-ascending, exactly the unblocked kernel's order, so
/// this is bit-identical to the scalar column-major sweep by construction.
///
/// `x` and `out` are one slice of `stride`-wide slice-interleaved slabs
/// (`&slab[j..]`): input column `c` is `x[c · stride]`, row `j`'s sum is
/// added to `out[j · stride]` (callers zero the target rows first).
#[inline]
fn ell_sweep(p: &EllPartition, x: &[f32], out: &mut [f32], stride: usize) {
    let (rows, width, colind, values) = (p.rows, p.width, &p.colind, &p.values);
    let full = rows / LANES * LANES;
    let mut j0 = 0;
    while j0 < full {
        let mut acc = [0f32; LANES];
        let mut gat = [0f32; LANES];
        for s in 0..width {
            let base = s * rows + j0;
            let c8 = &colind[base..base + LANES];
            let v8 = &values[base..base + LANES];
            for l in 0..LANES {
                // Padded slots multiply x[0] by 0 — redundant on purpose,
                // mirroring the divergence-free GPU kernel.
                gat[l] = x[c8[l] as usize * stride];
            }
            for l in 0..LANES {
                acc[l] += gat[l] * v8[l];
            }
        }
        for l in 0..LANES {
            out[(j0 + l) * stride] += acc[l];
        }
        j0 += LANES;
    }
    for j in full..rows {
        let mut a = 0f32;
        for s in 0..width {
            a += x[colind[s * rows + j] as usize * stride] * values[s * rows + j];
        }
        out[j * stride] += a;
    }
}

/// One ELL partition: `width` slots per row, stored column-major.
#[derive(Debug, Clone)]
struct EllPartition {
    /// Rows in this partition (≤ partsize).
    rows: usize,
    /// Max nonzeroes per row in this partition (padding width).
    width: usize,
    /// Column indices, column-major: slot `s`, row `j` at `s * rows + j`.
    colind: Vec<u32>,
    /// Values, same layout.
    values: Vec<f32>,
}

/// Read-only borrow of one ELL partition's raw layout, exposed for static
/// analysis (`xct-check`). Slots are column-major: slot `s`, row `j` lives
/// at `s * rows + j`.
#[derive(Debug, Clone, Copy)]
pub struct EllPartitionView<'a> {
    /// Rows in this partition (≤ partsize).
    pub rows: usize,
    /// Padding width (max nonzeroes per row in this partition).
    pub width: usize,
    /// Column indices, column-major, length `rows * width`.
    pub colind: &'a [u32],
    /// Values, same layout.
    pub values: &'a [f32],
}

/// ELL matrix with partition-level padding.
#[derive(Debug, Clone)]
pub struct EllMatrix {
    nrows: usize,
    ncols: usize,
    partitions: Vec<EllPartition>,
    padded_nnz: usize,
    nnz: usize,
}

impl EllMatrix {
    /// Convert a CSR matrix, partitioning rows into blocks of `partsize`.
    pub fn from_csr(a: &CsrMatrix, partsize: usize) -> Self {
        assert!(partsize > 0);
        let mut partitions = Vec::with_capacity(a.nrows().div_ceil(partsize));
        let mut padded_nnz = 0;
        for row_base in (0..a.nrows()).step_by(partsize) {
            let rows = partsize.min(a.nrows() - row_base);
            let width = (0..rows)
                .map(|j| a.rowptr()[row_base + j + 1] - a.rowptr()[row_base + j])
                .max()
                .unwrap_or(0);
            let mut colind = vec![0u32; width * rows];
            let mut values = vec![0f32; width * rows];
            for j in 0..rows {
                let lo = a.rowptr()[row_base + j];
                let hi = a.rowptr()[row_base + j + 1];
                for (s, k) in (lo..hi).enumerate() {
                    colind[s * rows + j] = a.colind()[k];
                    values[s * rows + j] = a.values()[k];
                }
            }
            padded_nnz += width * rows;
            partitions.push(EllPartition {
                rows,
                width,
                colind,
                values,
            });
        }
        EllMatrix {
            nrows: a.nrows(),
            ncols: a.ncols(),
            partitions,
            padded_nnz,
            nnz: a.nnz(),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Stored (unpadded) nonzeroes.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Total slots including padding; the padding overhead ratio is
    /// `padded_nnz / nnz`.
    pub fn padded_nnz(&self) -> usize {
        self.padded_nnz
    }

    /// Number of row partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Read-only view of partition `p` for static analysis.
    pub fn partition_view(&self, p: usize) -> EllPartitionView<'_> {
        let part = &self.partitions[p];
        EllPartitionView {
            rows: part.rows,
            width: part.width,
            colind: &part.colind,
            values: &part.values,
        }
    }

    /// Assemble an ELL matrix directly from per-partition raw arrays,
    /// with **no validation**. Each tuple is
    /// `(rows, width, colind, values)` in the column-major layout of the
    /// kernel. Exists so static-analysis tooling (`xct-check`) can be
    /// tested against corrupted layouts; production code should use
    /// [`EllMatrix::from_csr`].
    pub fn from_raw_parts_unchecked(
        nrows: usize,
        ncols: usize,
        nnz: usize,
        parts: Vec<(usize, usize, Vec<u32>, Vec<f32>)>,
    ) -> Self {
        let padded_nnz = parts.iter().map(|(rows, width, _, _)| rows * width).sum();
        EllMatrix {
            nrows,
            ncols,
            partitions: parts
                .into_iter()
                .map(|(rows, width, colind, values)| EllPartition {
                    rows,
                    width,
                    colind,
                    values,
                })
                .collect(),
            padded_nnz,
            nnz,
        }
    }

    /// Bytes of matrix data one SpMV streams: every padded slot moves a
    /// 4-byte column index plus a 4-byte value (padding is multiplied, not
    /// skipped, so it costs the same bandwidth).
    pub fn regular_bytes(&self) -> u64 {
        self.padded_nnz as u64 * 8
    }

    /// `y = A·x` with one "thread block" per partition.
    pub fn spmv(&self, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0f32; self.nrows];
        self.spmv_into(x, &mut y);
        y
    }

    /// ELL SpMV into a caller-provided output (overwritten): the
    /// one-slice case of [`EllMatrix::spmm_into`], one partition ("thread
    /// block") after another on the calling thread.
    pub fn spmv_into(&self, x: &[f32], y: &mut [f32]) {
        self.spmm_into(x, y, 1);
    }

    /// Sequential ELL SpMM into a caller-provided slice-interleaved
    /// output (overwritten): `y = A · [x₁ … xₖ]`. The slice loop runs
    /// inside each partition, so the partition's column-major slots are
    /// streamed once and re-read from cache for the remaining k-1 slices,
    /// and each partition is swept column-major in 8-row blocks (the
    /// coalesced access of consecutive CUDA threads); column `j` does not
    /// depend on the batch width.
    pub fn spmm_into(&self, x: &[f32], y: &mut [f32], batch: usize) {
        assert!(batch > 0, "batch width must be positive");
        assert_eq!(x.len(), self.ncols * batch, "x length");
        assert_eq!(y.len(), self.nrows * batch, "y length");
        self.sweep_partitions(0..self.partitions.len(), x, y, batch);
    }

    /// Pooled ELL SpMM into a caller-provided slice-interleaved output
    /// (overwritten): one dispatch computes all k columns, each worker
    /// sweeping its partition run once with the slice loop inside each
    /// partition. Column `j` is bit-identical to
    /// [`EllMatrix::spmv_into`] on slice `j` for every worker count.
    pub fn spmm_pooled_into(
        &self,
        x: &[f32],
        y: &mut [f32],
        batch: usize,
        plan: &xct_runtime::ExecPlan,
        pool: &xct_runtime::WorkerPool,
    ) {
        assert!(batch > 0, "batch width must be positive");
        assert_eq!(x.len(), self.ncols * batch, "x length");
        assert_eq!(y.len(), self.nrows * batch, "y length");
        assert_eq!(plan.rows(), self.nrows, "plan rows");
        assert_eq!(plan.num_partitions(), self.partitions.len(), "plan blocks");
        pool.run_batched(plan, y, batch, |parts, _rows, out, _scratch| {
            self.sweep_partitions(parts, x, out, batch)
        });
    }

    /// Partitions `parts` × all `k` slices into `out`, their rows' `k`
    /// values each (overwritten).
    fn sweep_partitions(
        &self,
        parts: std::ops::Range<usize>,
        x: &[f32],
        out: &mut [f32],
        k: usize,
    ) {
        out.fill(0.0);
        let mut base = 0;
        for p in &self.partitions[parts] {
            let rows = &mut out[base..base + p.rows * k];
            for j in 0..k {
                ell_sweep(p, &x[j..], &mut rows[j..], k);
            }
            base += p.rows * k;
        }
    }

    /// A balanced [`xct_runtime::ExecPlan`] over the ELL partitions: each partition
    /// is one plan block weighted by its padded slot count (padding is
    /// multiplied, not skipped, so it costs real bandwidth), and workers
    /// get contiguous partition runs.
    pub fn exec_plan(&self, workers: usize) -> xct_runtime::ExecPlan {
        let mut bounds = Vec::with_capacity(self.partitions.len() + 1);
        bounds.push(0usize);
        let mut weights = Vec::with_capacity(self.partitions.len());
        for p in &self.partitions {
            bounds.push(bounds.last().copied().unwrap_or(0) + p.rows);
            weights.push((p.rows * p.width) as u64);
        }
        xct_runtime::ExecPlan::balanced_blocks(&bounds, &weights, workers)
    }

    /// Pooled ELL SpMV into a caller-provided output (overwritten): the
    /// one-slice case of [`EllMatrix::spmm_pooled_into`].
    pub fn spmv_pooled_into(
        &self,
        x: &[f32],
        y: &mut [f32],
        plan: &xct_runtime::ExecPlan,
        pool: &xct_runtime::WorkerPool,
    ) {
        self.spmm_pooled_into(x, y, 1, plan, pool);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmv::spmv;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_rows(
            5,
            &[
                vec![(0, 1.0), (3, 2.0), (4, 1.5)],
                vec![(1, -1.0)],
                vec![],
                vec![(0, 0.5), (1, 0.5), (2, 0.5), (3, 0.5), (4, 0.5)],
                vec![(2, 3.0)],
            ],
        )
    }

    #[test]
    fn matches_csr_spmv() {
        let a = sample();
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let want = spmv(&a, &x);
        for partsize in [1, 2, 3, 8] {
            let ell = EllMatrix::from_csr(&a, partsize);
            let got = ell.spmv(&x);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-5, "partsize {partsize}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn partition_level_padding_is_tighter_than_matrix_level() {
        let a = sample();
        // Matrix-level padding would cost nrows * max_width = 5*5 = 25.
        let per_matrix = 25;
        let ell = EllMatrix::from_csr(&a, 2);
        assert!(ell.padded_nnz() < per_matrix, "{}", ell.padded_nnz());
        assert!(ell.padded_nnz() >= ell.nnz());
    }

    #[test]
    fn empty_matrix() {
        let a = CsrMatrix::zeros(4, 4);
        let ell = EllMatrix::from_csr(&a, 2);
        assert_eq!(ell.spmv(&[1.0; 4]), vec![0.0; 4]);
        assert_eq!(ell.padded_nnz(), 0);
    }

    #[test]
    fn pooled_matches_sequential_for_every_worker_count() {
        let a = sample();
        let x = [1.0f32, 2.0, 3.0, 4.0, 5.0];
        for partsize in [1, 2, 3] {
            let ell = EllMatrix::from_csr(&a, partsize);
            let mut want = vec![0f32; ell.nrows()];
            ell.spmv_into(&x, &mut want);
            for workers in [1, 2, 8] {
                let pool = xct_runtime::WorkerPool::new(workers);
                let plan = ell.exec_plan(workers);
                assert!(plan.is_well_formed());
                let mut y = vec![0f32; ell.nrows()];
                ell.spmv_pooled_into(&x, &mut y, &plan, &pool);
                assert_eq!(y, want, "partsize {partsize} workers {workers}");
            }
        }
    }

    #[test]
    fn shape_accessors() {
        let ell = EllMatrix::from_csr(&sample(), 2);
        assert_eq!(ell.nrows(), 5);
        assert_eq!(ell.ncols(), 5);
        assert_eq!(ell.nnz(), 10);
    }

    #[test]
    fn regular_bytes_counts_padded_slots() {
        let ell = EllMatrix::from_csr(&sample(), 2);
        assert_eq!(ell.regular_bytes(), ell.padded_nnz() as u64 * 8);
        assert!(ell.regular_bytes() >= ell.nnz() as u64 * 8);
    }
}
