//! Spatial regularization (the `R(x)` of the paper's Eq. 1).
//!
//! The paper's formulation `x̂ = argmin ‖y − Ax‖² + R(x)` leaves the
//! regularizer open ("iterative approaches can also involve additional
//! updates due to regularizer R(x)"). We implement the standard quadratic
//! roughness penalty `R(x) = λ‖D·x‖²` where `D` is the discrete gradient
//! over the 2D tomogram — assembled as another memoized sparse matrix in
//! Hilbert-ordered coordinates, so the regularized solve is still nothing
//! but SpMV.

use crate::operator::StackedOperator;
use crate::preprocess::Operators;
use crate::solvers::{run_engine, CgRule, Constraint, IterationRecord, StopRule};
use xct_hilbert::Ordering2D;
use xct_sparse::CsrMatrix;

#[cfg(test)]
use xct_sparse::spmv;

/// The discrete 2D gradient operator `D` over an ordered tomogram:
/// `2·N·(N−1)` rows (horizontal then vertical differences), `N²` columns
/// in the ordering's rank coordinates.
pub fn gradient_operator(ordering: &Ordering2D) -> CsrMatrix {
    let w = ordering.width();
    let h = ordering.height();
    let ncols = (w as usize) * (h as usize);
    let mut rows: Vec<Vec<(u32, f32)>> = Vec::with_capacity(2 * ncols);
    // Horizontal differences x[i+1,j] − x[i,j].
    for j in 0..h {
        for i in 0..w.saturating_sub(1) {
            rows.push(vec![
                (ordering.rank(i + 1, j), 1.0),
                (ordering.rank(i, j), -1.0),
            ]);
        }
    }
    // Vertical differences x[i,j+1] − x[i,j].
    for j in 0..h.saturating_sub(1) {
        for i in 0..w {
            rows.push(vec![
                (ordering.rank(i, j + 1), 1.0),
                (ordering.rank(i, j), -1.0),
            ]);
        }
    }
    CsrMatrix::from_rows(ncols, &rows)
}

/// CGLS with the quadratic roughness penalty: minimize
/// `‖y − A·x‖² + λ‖D·x‖²`, solved as plain CGLS on the stacked operator
/// `[A; √λ·D]`.
pub fn cgls_smooth(
    ops: &Operators,
    kernel: crate::preprocess::Kernel,
    y: &[f32],
    lambda: f32,
    stop: StopRule,
) -> (Vec<f32>, Vec<IterationRecord>) {
    // lint: allow(no-panic) documented parameter precondition
    assert!(lambda >= 0.0);
    let d = gradient_operator(&ops.tomo_ord);
    let dt = d.transpose_scan();
    let primary = ops.operator(kernel);
    let stacked = StackedOperator::new(primary.as_ref(), &d, &dt, lambda.sqrt());

    let mut y_aug = y.to_vec();
    y_aug.extend(std::iter::repeat_n(0f32, d.nrows()));
    run_engine(&stacked, &y_aug, &mut CgRule::new(), Constraint::None, stop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{preprocess, Config, Kernel};
    use crate::rel_err;
    use crate::solvers::cgls;
    use xct_geometry::{disk, simulate_sinogram, Grid, NoiseModel, ScanGeometry};

    #[test]
    fn gradient_operator_shape_and_action() {
        let ord = Ordering2D::two_level_hilbert(4, 4, 2);
        let d = gradient_operator(&ord);
        assert_eq!(d.nrows(), 2 * 4 * 3);
        assert_eq!(d.ncols(), 16);
        // Constant image has zero gradient.
        let ones = vec![1f32; 16];
        assert!(spmv(&d, &ones).iter().all(|&v| v == 0.0));
        // A horizontal ramp (in 2D coordinates) has unit horizontal
        // differences and zero vertical ones.
        let mut img = vec![0f32; 16];
        for j in 0..4 {
            for i in 0..4 {
                img[ord.rank(i, j) as usize] = i as f32;
            }
        }
        let g = spmv(&d, &img);
        let (h, v) = g.split_at(12);
        assert!(h.iter().all(|&x| (x - 1.0).abs() < 1e-6), "{h:?}");
        assert!(v.iter().all(|&x| x.abs() < 1e-6), "{v:?}");
    }

    #[test]
    fn gradient_respects_any_ordering() {
        for ord in [
            Ordering2D::row_major(5, 3),
            Ordering2D::morton(5, 3),
            Ordering2D::two_level_hilbert(5, 3, 2),
        ] {
            let d = gradient_operator(&ord);
            assert_eq!(d.nrows(), 4 * 3 + 5 * 2);
            let ones = vec![1f32; 15];
            assert!(spmv(&d, &ones).iter().all(|&v| v == 0.0));
        }
    }

    fn setup_noisy() -> (Operators, Vec<f32>, Vec<f32>) {
        let n = 32u32;
        let grid = Grid::new(n);
        let scan = ScanGeometry::new(24, n); // undersampled
        let img = disk(0.6, 1.0).rasterize(n);
        let sino = simulate_sinogram(
            &img,
            &grid,
            &scan,
            NoiseModel::Poisson {
                incident: 3e3,
                scale: 0.05,
            },
            3,
        );
        let ops = preprocess(grid, scan, &Config::default());
        let y = ops.order_sinogram(&sino);
        let x_true = ops.order_tomogram(&img);
        (ops, y, x_true)
    }

    #[test]
    fn smoothing_beats_plain_cg_on_noisy_undersampled_data() {
        let (ops, y, x_true) = setup_noisy();
        let (x_plain, _) = cgls(
            &y,
            ops.a.ncols(),
            |p| ops.forward(Kernel::Serial, p),
            |r| ops.back(Kernel::Serial, r),
            StopRule::Fixed(40),
        );
        let (x_smooth, _) = cgls_smooth(&ops, Kernel::Serial, &y, 0.5, StopRule::Fixed(40));
        let e_plain = rel_err(&x_plain, &x_true);
        let e_smooth = rel_err(&x_smooth, &x_true);
        assert!(
            e_smooth < e_plain,
            "smooth {e_smooth:.4} should beat plain {e_plain:.4} at high noise"
        );
    }

    #[test]
    fn lambda_zero_matches_plain_cgls() {
        let (ops, y, _) = setup_noisy();
        let (x_plain, _) = cgls(
            &y,
            ops.a.ncols(),
            |p| ops.forward(Kernel::Serial, p),
            |r| ops.back(Kernel::Serial, r),
            StopRule::Fixed(10),
        );
        let (x_smooth, _) = cgls_smooth(&ops, Kernel::Serial, &y, 0.0, StopRule::Fixed(10));
        for (a, b) in x_smooth.iter().zip(&x_plain) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn larger_lambda_gives_smoother_image() {
        let (ops, y, _) = setup_noisy();
        let d = gradient_operator(&ops.tomo_ord);
        let roughness =
            |x: &[f32]| -> f64 { spmv(&d, x).iter().map(|&v| (v as f64).powi(2)).sum() };
        let (x_lo, _) = cgls_smooth(&ops, Kernel::Serial, &y, 0.1, StopRule::Fixed(25));
        let (x_hi, _) = cgls_smooth(&ops, Kernel::Serial, &y, 5.0, StopRule::Fixed(25));
        assert!(
            roughness(&x_hi) < roughness(&x_lo),
            "{} vs {}",
            roughness(&x_hi),
            roughness(&x_lo)
        );
    }
}
