//! The baseline MemXCT kernel (Listing 2): sequential CSR SpMV. The
//! threaded form is [`crate::spmv_pooled_into`] — the worker pool is the
//! only way this crate goes parallel.
//!
//! Each fused multiply-add reads two *regular* streams (`ind`, `val`) and
//! one *irregular* value (`x[ind]`); the irregular access is the memory
//! bottleneck the ordering and buffering optimizations attack.

use crate::csr::CsrMatrix;

/// Sequential CSR SpMV: `y = A·x`.
pub fn spmv(a: &CsrMatrix, x: &[f32]) -> Vec<f32> {
    let mut y = vec![0f32; a.nrows()];
    spmv_into(a, x, &mut y);
    y
}

/// Sequential CSR SpMV into a caller-provided output: the one-slice case
/// of [`crate::spmm_into`].
///
/// Rows are reduced in the deterministic lane order of [`crate::lanes`];
/// every other CSR kernel (pooled, batched) uses the same order,
/// so they are all bitwise equal to this one.
pub fn spmv_into(a: &CsrMatrix, x: &[f32], y: &mut [f32]) {
    crate::spmm_into(a, x, y, 1);
}

/// The original Listing 2 scalar kernel: one sequential accumulator chain
/// per row, summed in entry order.
///
/// Kept as the roofline baseline for `spmv-bench` (its loop-carried f32
/// dependence is what the lane-split kernels exist to break) and as the
/// reference the sequential-order regression test compares against. Not
/// used by any production path; its sums differ from [`spmv_into`] in the
/// last bits whenever a row has ≥ 2 entries with rounding.
pub fn spmv_scalar_into(a: &CsrMatrix, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), a.ncols(), "x length");
    assert_eq!(y.len(), a.nrows(), "y length");
    let rowptr = a.rowptr();
    let colind = a.colind();
    let values = a.values();
    for (i, out) in y.iter_mut().enumerate() {
        let mut acc = 0f32;
        for k in rowptr[i]..rowptr[i + 1] {
            acc += x[colind[k] as usize] * values[k];
        }
        *out = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_rows(
            4,
            &[
                vec![(0, 1.0), (3, 2.0)],
                vec![(1, -1.0)],
                vec![],
                vec![(0, 0.5), (1, 0.5), (2, 0.5), (3, 0.5)],
            ],
        )
    }

    #[test]
    fn matches_dense_multiply() {
        let a = sample();
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = spmv(&a, &x);
        assert_eq!(y, vec![9.0, -2.0, 0.0, 5.0]);
    }

    #[test]
    fn scalar_kernel_matches_to_tolerance() {
        // The exact-arithmetic sample sums identically in any order.
        let a = sample();
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut y = vec![0f32; a.nrows()];
        spmv_scalar_into(&a, &x, &mut y);
        assert_eq!(y, spmv(&a, &x));
    }

    #[test]
    fn empty_rows_produce_zero() {
        let a = CsrMatrix::zeros(3, 3);
        assert_eq!(spmv(&a, &[1.0, 1.0, 1.0]), vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "x length")]
    fn wrong_x_length_panics() {
        spmv(&sample(), &[1.0]);
    }

    #[test]
    fn transpose_spmv_is_adjoint() {
        // <A x, y> == <x, A^T y> — the identity iterative solvers rely on.
        let a = sample();
        let at = a.transpose_scan();
        let x = [1.0f32, 2.0, 3.0, 4.0];
        let y = [0.5f32, -1.0, 2.0, 0.0];
        let ax = spmv(&a, &x);
        let aty = spmv(&at, &y);
        let lhs: f32 = ax.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.iter().zip(&aty).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-5);
    }
}
