//! Pooled SpMV and reductions: static [`ExecPlan`]s driven by the
//! persistent [`WorkerPool`] (see `xct-runtime`).
//!
//! This is the crate's only threaded path: no thread is spawned per
//! call. Rows are split **once** at plan time — by nnz, mirroring the
//! paper's `partsize` load balancing (§3.2) — and every iteration then
//! reuses both the plan and the parked workers.
//! Because partitions are contiguous row runs and each row's
//! accumulation order is unchanged, pooled results are bit-identical to
//! the sequential kernel for every worker count.

use crate::csr::CsrMatrix;
use crate::lanes::row_dot;
use crate::reduce::dot_f64;
use xct_runtime::{ExecPlan, WorkerPool};

/// An nnz-balanced row plan for `a`: the CSR `rowptr` *is* the nonzero
/// prefix sum, so the greedy split lands each of `workers` workers on a
/// near-equal share of the matrix's nonzeroes.
pub fn csr_plan(a: &CsrMatrix, workers: usize) -> ExecPlan {
    ExecPlan::nnz_balanced(a.rowptr(), workers)
}

/// The baseline strategy for `a`: equal row counts per worker.
pub fn csr_plan_equal(a: &CsrMatrix, workers: usize) -> ExecPlan {
    ExecPlan::equal_rows(a.nrows(), workers)
}

/// Pooled CSR SpMV into a caller-provided output: `y = A·x`, each worker
/// computing the contiguous row run its plan partition assigns.
/// Bit-identical to [`crate::spmv_into`] for every worker count.
pub fn spmv_pooled_into(
    a: &CsrMatrix,
    x: &[f32],
    y: &mut [f32],
    plan: &ExecPlan,
    pool: &WorkerPool,
) {
    assert_eq!(x.len(), a.ncols(), "x length");
    assert_eq!(y.len(), a.nrows(), "y length");
    assert_eq!(plan.rows(), a.nrows(), "plan rows");
    let rowptr = a.rowptr();
    let colind = a.colind();
    let values = a.values();
    pool.run(plan, y, |_parts, rows, out| {
        for (j, slot) in out.iter_mut().enumerate() {
            let i = rows.start + j;
            let (lo, hi) = (rowptr[i], rowptr[i + 1]);
            *slot = row_dot(&colind[lo..hi], &values[lo..hi], x);
        }
    });
}

/// Fixed reduction-chunk width (elements) for [`dot_f64_pooled`]. Chunk
/// boundaries depend only on this constant — never on the worker count —
/// so per-chunk partials, and the chunk-ordered total, are bit-identical
/// for every pool size.
pub const DOT_CHUNK: usize = 4096;

/// Number of reduction chunks (plan rows / partial slots) for a vector
/// of `len` elements.
pub fn dot_chunks(len: usize) -> usize {
    len.div_ceil(DOT_CHUNK)
}

/// A plan distributing the reduction chunks of a `len`-element dot
/// product over `workers` workers.
pub fn dot_plan(len: usize, workers: usize) -> ExecPlan {
    ExecPlan::equal_rows(dot_chunks(len), workers)
}

/// Pooled deterministic dot product: each worker fills the `f64`
/// partials of its chunk run, then the caller sums the partials in chunk
/// index order. `partials` is caller-owned scratch of
/// [`dot_chunks`]`(a.len())` slots so steady-state calls allocate
/// nothing.
pub fn dot_f64_pooled(
    pool: &WorkerPool,
    plan: &ExecPlan,
    a: &[f32],
    b: &[f32],
    partials: &mut [f64],
) -> f64 {
    assert_eq!(a.len(), b.len(), "vector lengths");
    assert_eq!(partials.len(), dot_chunks(a.len()), "partials length");
    pool.run(plan, partials, |_parts, chunks, out| {
        for (j, slot) in out.iter_mut().enumerate() {
            let lo = (chunks.start + j) * DOT_CHUNK;
            let hi = (lo + DOT_CHUNK).min(a.len());
            *slot = dot_f64(&a[lo..hi], &b[lo..hi]);
        }
    });
    partials.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmv::{spmv, spmv_into};

    fn skewed() -> CsrMatrix {
        // Row nnz: one dense row, several sparse ones, an empty row.
        let mut rows: Vec<Vec<(u32, f32)>> = vec![
            (0..64).map(|c| (c as u32, 0.5 + c as f32)).collect(),
            vec![(1, -1.0)],
            vec![],
            vec![(3, 2.0), (7, 1.5)],
            vec![(0, 1.0)],
        ];
        rows.push(vec![(63, 4.0)]);
        CsrMatrix::from_rows(64, &rows)
    }

    #[test]
    fn pooled_spmv_is_bit_identical_across_worker_counts() {
        let a = skewed();
        let x: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin()).collect();
        let want = spmv(&a, &x);
        for workers in [1, 2, 3, 8] {
            let pool = WorkerPool::new(workers);
            for plan in [csr_plan(&a, workers), csr_plan_equal(&a, workers)] {
                let mut y = vec![0f32; a.nrows()];
                spmv_pooled_into(&a, &x, &mut y, &plan, &pool);
                assert_eq!(y, want, "workers {workers}");
            }
        }
    }

    #[test]
    fn pooled_spmv_handles_empty_and_tiny_matrices() {
        // All-empty rows.
        let a = CsrMatrix::zeros(5, 3);
        let pool = WorkerPool::new(4);
        let mut y = vec![1f32; 5];
        spmv_pooled_into(&a, &[1.0, 2.0, 3.0], &mut y, &csr_plan(&a, 4), &pool);
        assert_eq!(y, vec![0.0; 5]);
        // More workers than rows.
        let a = CsrMatrix::from_rows(2, &[vec![(0, 2.0)], vec![(1, 3.0)]]);
        let pool = WorkerPool::new(8);
        let mut y = vec![0f32; 2];
        spmv_pooled_into(&a, &[1.0, 1.0], &mut y, &csr_plan(&a, 8), &pool);
        assert_eq!(y, vec![2.0, 3.0]);
    }

    #[test]
    fn pooled_dot_is_deterministic_across_worker_counts() {
        let n = 3 * DOT_CHUNK + 17;
        let a: Vec<f32> = (0..n).map(|i| ((i * 37) % 101) as f32 * 0.01).collect();
        let b: Vec<f32> = (0..n)
            .map(|i| ((i * 53) % 97) as f32 * 0.02 - 0.3)
            .collect();
        let mut reference = None;
        for workers in [1, 2, 8] {
            let pool = WorkerPool::new(workers);
            let plan = dot_plan(n, workers);
            let mut partials = vec![0f64; dot_chunks(n)];
            let got = dot_f64_pooled(&pool, &plan, &a, &b, &mut partials);
            let reference = *reference.get_or_insert(got);
            assert_eq!(got.to_bits(), reference.to_bits(), "workers {workers}");
        }
        // And close to (not necessarily identical to) the serial sum.
        let serial = dot_f64(&a, &b);
        let pool = WorkerPool::new(2);
        let mut partials = vec![0f64; dot_chunks(n)];
        let got = dot_f64_pooled(&pool, &dot_plan(n, 2), &a, &b, &mut partials);
        assert!((got - serial).abs() < 1e-6 * serial.abs().max(1.0));
    }

    #[test]
    fn nnz_plan_balances_the_dense_row_away() {
        let a = skewed();
        let nnz = csr_plan(&a, 2);
        let equal = csr_plan_equal(&a, 2);
        // Equal rows puts the 64-nnz row plus half the rest on worker 0;
        // the nnz plan isolates it.
        assert!(nnz.imbalance() < equal_worker_nnz_imbalance(&a, &equal));
        let mut y1 = vec![0f32; a.nrows()];
        let pool = WorkerPool::new(2);
        spmv_pooled_into(&a, &[1.0; 64], &mut y1, &nnz, &pool);
        let mut y2 = vec![0f32; a.nrows()];
        spmv_into(&a, &[1.0; 64], &mut y2);
        assert_eq!(y1, y2);
    }

    /// The nnz imbalance an equal-rows plan actually suffers on `a`.
    fn equal_worker_nnz_imbalance(a: &CsrMatrix, plan: &ExecPlan) -> f64 {
        let total = a.nnz() as f64;
        let ideal = total / plan.num_workers() as f64;
        (0..plan.num_workers())
            .map(|w| {
                let r = plan.worker_rows(w);
                (a.rowptr()[r.end] - a.rowptr()[r.start]) as f64
            })
            .fold(0.0, f64::max)
            / ideal
    }
}
