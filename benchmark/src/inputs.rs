//! Inputs the workloads run on, generated from the seed.
//!
//! The phantom (a z-varying Shepp–Logan stack) and the geometries are
//! fixed; `--seed` drives the photon noise of the simulated sinograms
//! only. So every seed gives the same amount of work, and the same seed
//! gives the same bits.

use xct_geometry::{
    phantom_volume, shepp_logan, simulate_volume, Grid, NoiseModel, ScanGeometry, Sinogram,
};

/// A scan geometry: `projections × channels`, reconstructed on a
/// `channels × channels` grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geo {
    pub projections: u32,
    pub channels: u32,
}

impl Geo {
    pub const fn new(projections: u32, channels: u32) -> Self {
        Geo {
            projections,
            channels,
        }
    }

    pub fn grid(&self) -> Grid {
        Grid::new(self.channels)
    }

    pub fn scan(&self) -> ScanGeometry {
        ScanGeometry::new(self.projections, self.channels)
    }

    pub fn label(&self) -> String {
        format!("{}x{}", self.projections, self.channels)
    }
}

/// The geometries of one benchmark size. ADS1-class and
/// non-power-of-two, so tile padding in the two-level ordering is
/// exercised; the working sets they produce sit in the last-level cache
/// of the host this was tuned on (README.md, "What is not measured").
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `slice_stream`, `volume_batch` and the first `cold_plans` plan.
    pub main: Geo,
    /// Second `cold_plans` geometry.
    pub second: Geo,
    /// `serve_mix`'s plans A, B (four slices a solve) and C. A step
    /// smaller than `main`, so that a round of the script takes about a
    /// second and a pass holds a few dozen of them.
    pub serve: [Geo; 3],
}

pub const FULL: Sizes = Sizes {
    main: Geo::new(180, 128),
    second: Geo::new(150, 96),
    serve: [Geo::new(135, 96), Geo::new(90, 64), Geo::new(66, 48)],
};

pub const SMOKE: Sizes = Sizes {
    main: Geo::new(90, 64),
    second: Geo::new(75, 48),
    serve: [Geo::new(66, 48), Geo::new(45, 32), Geo::new(33, 24)],
};

/// Photon statistics of the simulated scans: 10⁵ incident photons per
/// ray, the attenuation scale the CLI's `--noise` uses.
const NOISE: NoiseModel = NoiseModel::Poisson {
    incident: 1e5,
    scale: 0.02,
};

/// `count` slices of the phantom stack with their noisy sinograms.
pub struct Slices {
    pub geo: Geo,
    /// Row-major ground truth per slice.
    pub truth: Vec<Vec<f32>>,
    pub sinos: Vec<Sinogram>,
}

pub fn slices(geo: Geo, count: usize, seed: u64) -> Slices {
    let volume = phantom_volume(&shepp_logan(), geo.channels, count);
    let sinos = simulate_volume(&volume, &geo.scan(), NOISE, seed);
    Slices {
        geo,
        truth: volume.slices().to_vec(),
        sinos,
    }
}

/// Relative L2 error of `images` against `truth`, over all slices.
pub fn relative_rmse(images: &[Vec<f32>], truth: &[Vec<f32>]) -> f64 {
    let mut err = 0.0f64;
    let mut norm = 0.0f64;
    for (img, tr) in images.iter().zip(truth) {
        for (&a, &b) in img.iter().zip(tr) {
            err += (a as f64 - b as f64).powi(2);
            norm += (b as f64).powi(2);
        }
    }
    (err / norm).sqrt()
}

/// Bit-for-bit equality (plain `==` would call `-0.0 == 0.0` equal and a
/// NaN unequal to itself).
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
