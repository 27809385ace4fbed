//! Filtered backprojection (FBP): the *analytical* reconstruction method
//! MemXCT's introduction argues against for noisy/undersampled data.
//!
//! "Analytical methods such as the filtered backprojection (FBP) algorithm
//! are computationally efficient, but reconstruction quality is often poor
//! when measurements are noisy or undersampled" (§1). We implement FBP to
//! make that comparison runnable: each sinogram row is ramp-filtered in
//! the frequency domain ([`xct_fft`]), and the filtered sinogram is
//! backprojected through the *memoized* `Aᵀ` — so FBP here is literally
//! one filtered SpMV, demonstrating that the memory-centric machinery
//! serves direct solvers too.

use crate::preprocess::{Kernel, Operators};
use xct_fft::{FilterKind, ProjectionFilter};
use xct_geometry::Sinogram;

/// FBP configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FbpConfig {
    /// Apodization window.
    pub filter: FilterKind,
    /// Kernel used for the backprojection SpMV.
    pub kernel: Kernel,
}

impl Default for FbpConfig {
    fn default() -> Self {
        FbpConfig {
            filter: FilterKind::SheppLogan,
            kernel: Kernel::Serial,
        }
    }
}

/// Reconstruct one slice with filtered backprojection. Returns the
/// row-major image.
pub fn fbp(ops: &Operators, sino: &Sinogram, config: &FbpConfig) -> Vec<f32> {
    let m = ops.scan.num_projections() as usize;
    let n = ops.scan.num_channels() as usize;
    // lint: allow(no-panic) documented shape precondition
    assert_eq!(sino.data().len(), m * n);

    // Filter each projection row (row-major sinogram layout).
    let filter = ProjectionFilter::new(n, config.filter);
    let mut filtered = sino.data().to_vec();
    for row in filtered.chunks_exact_mut(n) {
        filter.apply(row);
    }

    // Backproject through the memoized A^T (needs ordered coordinates).
    let sino_f = Sinogram::new(ops.scan, filtered);
    let y = ops.order_sinogram(&sino_f);
    let x = ops.back(config.kernel, &y);

    // Radon inversion scale: our ramp is 2|f| on unit-pitch samples and
    // angles cover [0, π) in M steps.
    let scale = std::f32::consts::PI / (2.0 * m as f32);
    let scaled: Vec<f32> = x.iter().map(|&v| v * scale).collect();
    ops.unorder_tomogram(&scaled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{preprocess, Config};
    use crate::solvers::StopRule;
    use crate::{cg, rel_err};
    use xct_geometry::{disk, shepp_logan, simulate_sinogram, Grid, NoiseModel, ScanGeometry};

    #[test]
    fn fbp_recovers_disk_from_clean_dense_data() {
        let n = 64u32;
        let grid = Grid::new(n);
        let scan = ScanGeometry::new(96, n); // densely sampled
        let truth = disk(0.5, 1.0).rasterize(n);
        let sino = simulate_sinogram(&truth, &grid, &scan, NoiseModel::None, 0);
        let ops = preprocess(grid, scan, &Config::default());
        let img = fbp(&ops, &sino, &FbpConfig::default());
        let err = rel_err(&img, &truth);
        assert!(err < 0.25, "FBP error {err}");
        // Interior amplitude roughly right (scale constant sanity check).
        let centre = img[(n / 2 * n + n / 2) as usize];
        assert!(
            (0.7..1.3).contains(&centre),
            "centre value {centre}, expected ~1.0"
        );
    }

    #[test]
    fn cg_beats_fbp_on_noisy_undersampled_data() {
        // The paper's motivating claim (§1): iterative solvers win when
        // data is noisy or undersampled.
        let n = 64u32;
        let grid = Grid::new(n);
        let scan = ScanGeometry::new(24, n); // heavily undersampled
        let truth = shepp_logan().rasterize(n);
        let sino = simulate_sinogram(
            &truth,
            &grid,
            &scan,
            NoiseModel::Poisson {
                incident: 5e3, // very noisy
                scale: 0.05,
            },
            5,
        );
        let ops = preprocess(grid, scan, &Config::default());
        let img_fbp = fbp(&ops, &sino, &FbpConfig::default());
        let y = ops.order_sinogram(&sino);
        let stop = StopRule::EarlyTermination {
            max_iters: 30,
            min_decrease: 0.02,
        };
        let (x_cg, _) = cg(&ops, Kernel::Serial, &y, stop);
        let img_cg = ops.unorder_tomogram(&x_cg);
        let e_fbp = rel_err(&img_fbp, &truth);
        let e_cg = rel_err(&img_cg, &truth);
        assert!(
            e_cg < e_fbp,
            "CG ({e_cg:.3}) should beat FBP ({e_fbp:.3}) on noisy undersampled data"
        );
    }

    #[test]
    fn filter_choice_changes_noise_behaviour() {
        let n = 48u32;
        let grid = Grid::new(n);
        let scan = ScanGeometry::new(72, n);
        let truth = disk(0.5, 1.0).rasterize(n);
        let sino = simulate_sinogram(
            &truth,
            &grid,
            &scan,
            NoiseModel::Poisson {
                incident: 1e4,
                scale: 0.05,
            },
            11,
        );
        let ops = preprocess(grid, scan, &Config::default());
        let ramlak = fbp(
            &ops,
            &sino,
            &FbpConfig {
                filter: FilterKind::RamLak,
                ..Default::default()
            },
        );
        let hann = fbp(
            &ops,
            &sino,
            &FbpConfig {
                filter: FilterKind::Hann,
                ..Default::default()
            },
        );
        // Hann smooths: background (outside the disk) variance drops.
        let bg_var = |img: &[f32]| {
            let corner: Vec<f32> = (0..8)
                .flat_map(|j| (0..8).map(move |i| (i, j)))
                .map(|(i, j)| img[(j * n + i) as usize])
                .collect();
            let mean: f32 = corner.iter().sum::<f32>() / corner.len() as f32;
            corner.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / corner.len() as f32
        };
        assert!(
            bg_var(&hann) < bg_var(&ramlak),
            "hann {} vs ramlak {}",
            bg_var(&hann),
            bg_var(&ramlak)
        );
    }
}
