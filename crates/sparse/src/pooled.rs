//! Pooled CSR plans and the pooled reduction: static [`ExecPlan`]s driven
//! by the persistent [`WorkerPool`] (see `xct-runtime`).
//!
//! This is the crate's only threaded path: no thread is spawned per
//! call. Rows are split **once** at plan time — by nnz, mirroring the
//! paper's `partsize` load balancing (§3.2) — and every iteration then
//! reuses both the plan and the parked workers.
//! Because partitions are contiguous row runs and each row's
//! accumulation order is unchanged, pooled results are bit-identical to
//! the sequential kernel for every worker count.
//!
//! Width is a dimension here, not a second set of functions: the pooled
//! SpMV is the pooled SpMM at one slice, and one reduction over one
//! width-free plan per vector length serves every batch width.

use crate::csr::CsrMatrix;
use crate::reduce::{add_row_dots, chunk};
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

/// Pooled CSR SpMV into a caller-provided output, `y = A·x`: the
/// one-slice case of [`crate::spmm_pooled_into`]. Bit-identical to
/// [`crate::spmv_into`] for every worker count.
pub fn spmv_pooled_into(
    a: &CsrMatrix,
    x: &[f32],
    y: &mut [f32],
    plan: &ExecPlan,
    pool: &WorkerPool,
) {
    crate::spmm_pooled_into(a, x, y, 1, plan, pool);
}

/// Fixed reduction-chunk width (elements) of the pooled dot. Chunk
/// boundaries depend only on this constant — never on the worker count
/// or the batch width — so per-chunk partials, and each slice's
/// chunk-ordered total, are bit-identical for every pool size and width.
pub const DOT_CHUNK: usize = 4096;

/// Number of reduction chunks (plan rows / partial slots per slice) for
/// a vector of `len` elements.
pub fn dot_chunks(len: usize) -> usize {
    len.div_ceil(DOT_CHUNK)
}

/// The reduction plan for `len`-element vectors: their chunks split
/// evenly over `workers` workers. Width-free — a `k`-wide dot dispatches
/// this same plan over `k` blocks of partials.
pub fn dot_plan(len: usize, workers: usize) -> ExecPlan {
    ExecPlan::equal_rows(dot_chunks(len), workers)
}

/// Deterministic pooled dot of `batch` slice pairs (`a`, `b`
/// slice-interleaved, `len × batch`): one dispatch of
/// [`dot_plan`]`(len, ..)`, each worker filling the `f64` partials of its
/// chunk run for every slice in one pass over the run; then each slice's
/// partials are summed in chunk order into `out[j]`. `out[j]` depends
/// only on slice `j` and [`DOT_CHUNK`], so it is bit-identical for every
/// worker count and every batch width (`batch = 1` is the single dot),
/// and to [`crate::dot_f64_chunked_batch`].
///
/// `partials` is caller-owned scratch of `dot_chunks(len) * batch`
/// slots, `out` of `batch` slots, so steady-state calls allocate
/// nothing.
#[allow(clippy::too_many_arguments)]
pub fn dot_f64_batched_pooled(
    pool: &WorkerPool,
    plan: &ExecPlan,
    a: &[f32],
    b: &[f32],
    batch: usize,
    partials: &mut [f64],
    out: &mut [f64],
) {
    assert!(batch > 0, "batch width must be positive");
    assert_eq!(a.len(), b.len(), "vector lengths");
    assert_eq!(a.len() % batch, 0, "length must be a multiple of batch");
    let len = a.len() / batch;
    let chunks = dot_chunks(len);
    assert_eq!(plan.rows(), chunks, "plan rows");
    assert_eq!(partials.len(), chunks * batch, "partials length");
    assert_eq!(out.len(), batch, "out length");
    // Chunk-major partials: chunk `c`'s `batch` slots are one plan row.
    pool.run_batched(plan, partials, batch, |_parts, run, slots, _scratch| {
        slots.fill(-0.0);
        for (c, slot) in run.zip(slots.chunks_exact_mut(batch)) {
            add_row_dots(a, b, chunk(c, len), slot);
        }
    });
    out.fill(-0.0);
    for slot in partials.chunks_exact(batch) {
        for (o, p) in out.iter_mut().zip(slot) {
            *o += p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::{dot_f64, dot_f64_chunked};

    fn interleaved(x: &[f32], k: usize) -> Vec<f32> {
        let mut out = vec![0f32; x.len()];
        crate::interleave(x, &mut out, k);
        out
    }
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
    fn pooled_dot_is_the_fixed_chunk_sum_at_every_width_and_worker_count() {
        for len in [
            0,
            17,
            DOT_CHUNK - 1,
            DOT_CHUNK,
            DOT_CHUNK + 1,
            3 * DOT_CHUNK + 17,
        ] {
            for batch in [1, 2, 5, 8] {
                let a: Vec<f32> = (0..len * batch)
                    .map(|i| ((i * 37) % 101) as f32 * 0.01)
                    .collect();
                let b: Vec<f32> = (0..len * batch)
                    .map(|i| ((i * 53) % 97) as f32 * 0.02 - 0.3)
                    .collect();
                for workers in [1, 2, 3, 8] {
                    let pool = WorkerPool::new(workers);
                    let plan = dot_plan(len, workers);
                    let mut partials = vec![0f64; dot_chunks(len) * batch];
                    let mut out = vec![f64::NAN; batch];
                    let (ai, bi) = (interleaved(&a, batch), interleaved(&b, batch));
                    dot_f64_batched_pooled(&pool, &plan, &ai, &bi, batch, &mut partials, &mut out);
                    for (j, got) in out.iter().enumerate() {
                        let r = j * len..(j + 1) * len;
                        let want = dot_f64_chunked(&a[r.clone()], &b[r.clone()]);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "len {len} batch {batch} workers {workers} slice {j}"
                        );
                        // And close to (not necessarily identical to) the serial sum.
                        let serial = dot_f64(&a[r.clone()], &b[r]);
                        assert!((got - serial).abs() < 1e-6 * serial.abs().max(1.0));
                    }
                }
            }
        }
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
