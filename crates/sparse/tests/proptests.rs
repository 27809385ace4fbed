//! Property tests: every SpMV kernel variant computes the same product as
//! the sequential reference on random sparse matrices, the scan transpose
//! is a stable involution, and buffered re-layout conserves nonzeroes.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xct_sparse::{spmv, BufferedCsr, CsrMatrix, EllMatrix};

/// Random sparse matrix with ~`density` fill, deterministic in `seed`.
fn random_csr(nrows: usize, ncols: usize, density: f64, seed: u64) -> CsrMatrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    let rows: Vec<Vec<(u32, f32)>> = (0..nrows)
        .map(|_| {
            let mut row = Vec::new();
            for c in 0..ncols {
                if rng.gen::<f64>() < density {
                    row.push((c as u32, rng.gen_range(-2.0f32..2.0)));
                }
            }
            row
        })
        .collect();
    CsrMatrix::from_rows(ncols, &rows)
}

fn random_x(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xabcdef);
    (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn assert_close(a: &[f32], b: &[f32], tol: f32) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        let scale = x.abs().max(y.abs()).max(1.0);
        assert!((x - y).abs() <= tol * scale, "mismatch at {i}: {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ell_spmv_matches(
        nrows in 1usize..50, ncols in 1usize..50,
        density in 0.0f64..0.5, seed in any::<u64>(),
        partsize in 1usize..24,
    ) {
        let a = random_csr(nrows, ncols, density, seed);
        let x = random_x(ncols, seed);
        let ell = EllMatrix::from_csr(&a, partsize);
        prop_assert_eq!(ell.nnz(), a.nnz());
        prop_assert!(ell.padded_nnz() >= ell.nnz());
        assert_close(&ell.spmv(&x), &spmv(&a, &x), 1e-5);
    }

    #[test]
    fn buffered_spmv_matches(
        nrows in 1usize..50, ncols in 1usize..50,
        density in 0.0f64..0.5, seed in any::<u64>(),
        partsize in 1usize..24, buffsize in 1usize..32,
    ) {
        let a = random_csr(nrows, ncols, density, seed);
        let x = random_x(ncols, seed);
        let b = BufferedCsr::from_csr(&a, partsize, buffsize);
        prop_assert_eq!(b.nnz(), a.nnz());
        assert_close(&b.spmv(&x), &spmv(&a, &x), 1e-5);
    }

    #[test]
    fn transpose_is_stable_involution(
        nrows in 1usize..40, ncols in 1usize..40,
        density in 0.0f64..0.5, seed in any::<u64>(),
    ) {
        let a = random_csr(nrows, ncols, density, seed);
        let tt = a.transpose_scan().transpose_scan();
        prop_assert_eq!(&a, &tt);
    }

    #[test]
    fn transpose_is_adjoint(
        n in 1usize..40, density in 0.0f64..0.5, seed in any::<u64>(),
    ) {
        let a = random_csr(n, n, density, seed);
        let at = a.transpose_scan();
        let x = random_x(n, seed);
        let y = random_x(n, seed ^ 1);
        let ax = spmv(&a, &x);
        let aty = spmv(&at, &y);
        let lhs: f64 = ax.iter().zip(&y).map(|(&a, &b)| a as f64 * b as f64).sum();
        let rhs: f64 = x.iter().zip(&aty).map(|(&a, &b)| a as f64 * b as f64).sum();
        prop_assert!((lhs - rhs).abs() <= 1e-4 * lhs.abs().max(rhs.abs()).max(1.0));
    }

    #[test]
    fn buffered_footprint_bounded_by_columns(
        nrows in 1usize..40, ncols in 1usize..40,
        density in 0.0f64..0.6, seed in any::<u64>(),
        partsize in 1usize..16,
    ) {
        let a = random_csr(nrows, ncols, density, seed);
        let b = BufferedCsr::from_csr(&a, partsize, 16);
        // Each partition's footprint is at most min(ncols, its nnz).
        prop_assert!(b.map_len() <= a.nnz());
        prop_assert!(b.map_len() <= b.num_partitions() * ncols);
    }
}
