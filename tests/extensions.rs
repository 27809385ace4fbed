//! Integration tests for the library surface beyond the paper's headline
//! path: FBP, ordered subsets, regularized/constrained solvers, volume
//! reconstruction, corrections, Joseph projector, and the I/O round trip.

use memxct::{
    cgls_smooth, fbp, Config, FbpConfig, Kernel, Projector, ReconInput, ReconRequest,
    Reconstructor, ReconstructorBuilder, Solver, StopRule,
};
use xct_geometry::{
    correct_center, io, phantom_volume, remove_rings, shepp_logan, shift_sinogram,
    simulate_sinogram, simulate_volume, Grid, NoiseModel, ScanGeometry, Sinogram,
};

fn rel_err(a: &[f32], b: &[f32]) -> f64 {
    let num: f64 = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| ((x - y) as f64).powi(2))
        .sum::<f64>()
        .sqrt();
    let den: f64 = b.iter().map(|&y| (y as f64).powi(2)).sum::<f64>().sqrt();
    num / den
}

fn setup(n: u32, m: u32) -> (Grid, ScanGeometry, Vec<f32>, Sinogram) {
    let grid = Grid::new(n);
    let scan = ScanGeometry::new(m, n);
    let truth = shepp_logan().rasterize(n);
    let sino = simulate_sinogram(&truth, &grid, &scan, NoiseModel::None, 0);
    (grid, scan, truth, sino)
}

#[test]
fn fbp_and_cg_agree_on_clean_dense_data() {
    let (grid, scan, truth, sino) = setup(64, 96);
    let rec = Reconstructor::new(grid, scan);
    let img_fbp = fbp(rec.operators(), &sino, &FbpConfig::default());
    let img_cg = rec
        .run(&ReconRequest::cg(
            ReconInput::Slice(sino),
            StopRule::Fixed(30),
        ))
        .unwrap()
        .images
        .swap_remove(0);
    // On clean dense data both methods produce usable images; CG wins.
    let e_fbp = rel_err(&img_fbp, &truth);
    let e_cg = rel_err(&img_cg, &truth);
    assert!(e_fbp < 0.35, "fbp {e_fbp}");
    assert!(e_cg < e_fbp, "cg {e_cg} vs fbp {e_fbp}");
}

#[test]
fn ordered_subsets_run_through_the_reconstructor_operators() {
    let (grid, scan, truth, sino) = setup(32, 48);
    let rec = Reconstructor::new(grid, scan);
    let solver = Solver::OsSirt {
        subsets: 6,
        relax: 1.0,
    };
    let req = ReconRequest::cg(ReconInput::Slice(sino), StopRule::Fixed(8)).solver(solver);
    let mut out = rec.run(&req).unwrap();
    let (img, recs) = (out.images.remove(0), out.slice_records.remove(0));
    assert!(
        rel_err(&img, &truth) < 0.25,
        "err {}",
        rel_err(&img, &truth)
    );
    assert!(recs.last().unwrap().residual_norm < recs[0].residual_norm);
}

#[test]
fn smoothness_regularizer_runs_end_to_end() {
    let n = 32u32;
    let grid = Grid::new(n);
    let scan = ScanGeometry::new(24, n);
    let truth = shepp_logan().rasterize(n);
    let sino = simulate_sinogram(
        &truth,
        &grid,
        &scan,
        NoiseModel::Poisson {
            incident: 5e3,
            scale: 0.05,
        },
        4,
    );
    let rec = Reconstructor::new(grid, scan);
    let y = rec.operators().order_sinogram(&sino);
    let (x, _) = cgls_smooth(
        rec.operators(),
        Kernel::Buffered,
        &y,
        0.5,
        StopRule::Fixed(30),
    );
    let img = rec.operators().unorder_tomogram(&x);
    assert!(rel_err(&img, &truth) < 0.5, "err {}", rel_err(&img, &truth));
}

#[test]
fn volume_reconstruction_reuses_preprocessing() {
    let n = 24u32;
    let m = 36u32;
    let volume = phantom_volume(&shepp_logan(), n, 4);
    let scan = ScanGeometry::new(m, n);
    let sinos = simulate_volume(&volume, &scan, NoiseModel::None, 5);
    let rec = Reconstructor::new(Grid::new(n), scan);
    let out = rec
        .run(&ReconRequest::cg(
            ReconInput::Volume(sinos),
            StopRule::Fixed(20),
        ))
        .unwrap();
    assert_eq!(out.images.len(), 4);
    for (z, img) in out.images.iter().enumerate() {
        let truth = volume.slice(z);
        let mass: f64 = truth.iter().map(|&v| v as f64).sum();
        if mass > 1.0 {
            assert!(
                rel_err(img, truth) < 0.35,
                "slice {z} err {}",
                rel_err(img, truth)
            );
        }
    }
    assert!(out.per_slice_seconds.iter().sum::<f64>() > 0.0);
}

#[test]
fn correction_pipeline_recovers_miscentered_scan() {
    let (grid, scan, truth, sino) = setup(64, 96);
    let displaced = shift_sinogram(&sino, 2.5);
    let (fixed, est) = correct_center(&displaced);
    assert!((est - 2.5).abs() < 0.75, "estimate {est}");
    let rec = Reconstructor::new(grid, scan);
    let bad = rec
        .run(&ReconRequest::cg(
            ReconInput::Slice(displaced),
            StopRule::Fixed(20),
        ))
        .unwrap()
        .images
        .swap_remove(0);
    let good = rec
        .run(&ReconRequest::cg(
            ReconInput::Slice(fixed),
            StopRule::Fixed(20),
        ))
        .unwrap()
        .images
        .swap_remove(0);
    assert!(
        rel_err(&good, &truth) < 0.6 * rel_err(&bad, &truth),
        "correction must help: {} vs {}",
        rel_err(&good, &truth),
        rel_err(&bad, &truth)
    );
}

#[test]
fn ring_removal_composes_with_reconstruction() {
    let n = 128u32;
    let m = 96u32;
    let grid = Grid::new(n);
    let scan = ScanGeometry::new(m, n);
    let truth = shepp_logan().rasterize(n);
    let sino = simulate_sinogram(&truth, &grid, &scan, NoiseModel::None, 0);
    let mut data = sino.data().to_vec();
    for p in 0..m as usize {
        for (c, v) in data
            .iter_mut()
            .skip(p * n as usize)
            .take(n as usize)
            .enumerate()
        {
            *v += match c {
                37 => 8.0,
                90 => -6.0,
                _ => 0.0,
            };
        }
    }
    let corrupted = Sinogram::new(scan, data);
    let cleaned = remove_rings(&corrupted, 2);
    let rec = Reconstructor::new(grid, scan);
    let bad = rec
        .run(&ReconRequest::cg(
            ReconInput::Slice(corrupted),
            StopRule::Fixed(15),
        ))
        .unwrap()
        .images
        .swap_remove(0);
    let good = rec
        .run(&ReconRequest::cg(
            ReconInput::Slice(cleaned),
            StopRule::Fixed(15),
        ))
        .unwrap()
        .images
        .swap_remove(0);
    assert!(
        rel_err(&good, &truth) < rel_err(&bad, &truth),
        "{} vs {}",
        rel_err(&good, &truth),
        rel_err(&bad, &truth)
    );
}

#[test]
fn joseph_projector_pipeline() {
    let n = 32u32;
    let grid = Grid::new(n);
    let scan = ScanGeometry::new(48, n);
    let truth = shepp_logan().rasterize(n);
    let sino = simulate_sinogram(&truth, &grid, &scan, NoiseModel::None, 0);
    let rec = ReconstructorBuilder::new(grid, scan)
        .config(Config {
            projector: Projector::Joseph,
            ..Config::default()
        })
        .build()
        .unwrap();
    let out = rec
        .run(&ReconRequest::cg(
            ReconInput::Slice(sino),
            StopRule::Fixed(25),
        ))
        .unwrap();
    assert!(
        rel_err(&out.images[0], &truth) < 0.3,
        "err {}",
        rel_err(&out.images[0], &truth)
    );
}

#[test]
fn pgm_and_raw_io_roundtrip_through_reconstruction() {
    let (grid, scan, _, sino) = setup(24, 16);
    let dir = std::env::temp_dir();
    let raw = dir.join(format!("xct_it_{}.raw", std::process::id()));
    let pgm = dir.join(format!("xct_it_{}.pgm", std::process::id()));

    io::write_raw_f32(&raw, sino.data()).unwrap();
    let loaded = io::read_raw_f32(&raw).unwrap();
    assert_eq!(loaded, sino.data());

    let rec = Reconstructor::new(grid, scan);
    let out = rec
        .run(&ReconRequest::cg(
            ReconInput::Slice(Sinogram::new(scan, loaded)),
            StopRule::Fixed(10),
        ))
        .unwrap();
    io::write_pgm(&pgm, 24, 24, &out.images[0]).unwrap();
    let bytes = std::fs::read(&pgm).unwrap();
    assert!(bytes.starts_with(b"P5\n24 24\n255\n"));

    std::fs::remove_file(&raw).ok();
    std::fs::remove_file(&pgm).ok();
}
