//! Cross-crate integration tests: the full reconstruction pipeline from
//! phantom to image, equivalence between the memory-centric and
//! compute-centric implementations, and serial/distributed agreement.

use memxct::{
    Config, DomainOrdering, ExecMode, FaultTolerance, Kernel, ReconInput, ReconRequest,
    Reconstructor, ReconstructorBuilder, StopRule,
};
use xct_compxct::CompXct;
use xct_geometry::{
    brain_like, disk, shale_like, shepp_logan, simulate_sinogram, Grid, NoiseModel, Phantom,
    ScanGeometry,
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

fn reconstruct(phantom: &Phantom, n: u32, m: u32, iters: usize) -> (Vec<f32>, Vec<f32>) {
    let grid = Grid::new(n);
    let scan = ScanGeometry::new(m, n);
    let truth = phantom.rasterize(n);
    let sino = simulate_sinogram(&truth, &grid, &scan, NoiseModel::None, 0);
    let rec = Reconstructor::new(grid, scan);
    let mut out = rec
        .run(&ReconRequest::cg(
            ReconInput::Slice(sino),
            StopRule::Fixed(iters),
        ))
        .unwrap();
    (out.images.swap_remove(0), truth)
}

#[test]
fn pipeline_recovers_disk() {
    let (img, truth) = reconstruct(&disk(0.6, 1.0), 32, 48, 30);
    assert!(
        rel_err(&img, &truth) < 0.12,
        "err {}",
        rel_err(&img, &truth)
    );
}

#[test]
fn pipeline_recovers_shepp_logan() {
    let (img, truth) = reconstruct(&shepp_logan(), 48, 72, 40);
    assert!(
        rel_err(&img, &truth) < 0.25,
        "err {}",
        rel_err(&img, &truth)
    );
}

#[test]
fn pipeline_recovers_shale_phantom() {
    let (img, truth) = reconstruct(&shale_like(3), 48, 72, 40);
    assert!(
        rel_err(&img, &truth) < 0.25,
        "err {}",
        rel_err(&img, &truth)
    );
}

#[test]
fn pipeline_recovers_brain_phantom() {
    let (img, truth) = reconstruct(&brain_like(3), 48, 72, 40);
    assert!(
        rel_err(&img, &truth) < 0.30,
        "err {}",
        rel_err(&img, &truth)
    );
}

#[test]
fn memxct_and_compxct_run_the_same_sirt() {
    // The memory-centric and compute-centric implementations execute the
    // same mathematics; their SIRT iterates must agree closely.
    let n = 24u32;
    let m = 36u32;
    let grid = Grid::new(n);
    let scan = ScanGeometry::new(m, n);
    let truth = disk(0.55, 1.5).rasterize(n);
    let sino = simulate_sinogram(&truth, &grid, &scan, NoiseModel::None, 0);

    let cx = CompXct::new(grid, scan);
    let (x_comp, comp_stats) = cx.sirt(&sino, 12);

    let rec = Reconstructor::new(grid, scan);
    let out = rec
        .run(&ReconRequest::sirt(ReconInput::Slice(sino), 12))
        .unwrap();

    assert!(
        rel_err(&out.images[0], &x_comp) < 2e-3,
        "images diverged: {}",
        rel_err(&out.images[0], &x_comp)
    );
    for (mem, comp) in out.slice_records[0].iter().zip(&comp_stats) {
        // CompXct records the residual at iteration start; MemXCT SIRT
        // records the same quantity.
        let rel = (mem.residual_norm - comp.residual_norm).abs() / comp.residual_norm.max(1.0);
        assert!(
            rel < 1e-2,
            "iter {}: {} vs {}",
            mem.iter,
            mem.residual_norm,
            comp.residual_norm
        );
    }
}

#[test]
fn all_kernels_and_orderings_agree_on_the_projection() {
    let n = 20u32;
    let m = 16u32;
    let grid = Grid::new(n);
    let scan = ScanGeometry::new(m, n);
    let truth = shepp_logan().rasterize(n);
    let reference = simulate_sinogram(&truth, &grid, &scan, NoiseModel::None, 0);
    for ordering in [
        DomainOrdering::RowMajor,
        DomainOrdering::Morton,
        DomainOrdering::TwoLevelHilbert(None),
        DomainOrdering::TwoLevelHilbert(Some(2)),
    ] {
        for kernel in [Kernel::Serial, Kernel::Buffered] {
            let config = Config {
                ordering,
                kernel,
                ..Config::default()
            };
            let ops = memxct::preprocess(grid, scan, &config);
            let x = ops.order_tomogram(&truth);
            let y = ops.unorder_sinogram(&ops.forward(kernel, &x));
            for (got, want) in y.iter().zip(reference.data()) {
                assert!(
                    (got - want).abs() < 1e-3,
                    "{ordering:?}/{kernel:?}: {got} vs {want}"
                );
            }
        }
    }
}

#[test]
fn distributed_reconstruction_matches_serial_across_rank_counts() {
    let n = 24u32;
    let m = 36u32;
    let grid = Grid::new(n);
    let scan = ScanGeometry::new(m, n);
    let truth = disk(0.5, 2.0).rasterize(n);
    let sino = simulate_sinogram(&truth, &grid, &scan, NoiseModel::None, 0);
    let rec = Reconstructor::new(grid, scan);
    let serial = rec
        .run(&ReconRequest::cg(
            ReconInput::Slice(sino.clone()),
            StopRule::Fixed(8),
        ))
        .unwrap();
    for ranks in [1, 2, 5, 8] {
        let dist = rec
            .run(
                &ReconRequest::cg(ReconInput::Slice(sino.clone()), StopRule::Fixed(8)).mode(
                    ExecMode::Distributed {
                        ranks,
                        ft: FaultTolerance::disabled(),
                    },
                ),
            )
            .unwrap();
        assert!(
            rel_err(&dist.images[0], &serial.images[0]) < 2e-2,
            "ranks {ranks}: err {}",
            rel_err(&dist.images[0], &serial.images[0])
        );
    }
    // Batch × ranks: one halo exchange per product carries both slices,
    // and each column keeps the bits of its own distributed solve.
    let over3 = |input| {
        ReconRequest::cg(input, StopRule::Fixed(8)).mode(ExecMode::Distributed {
            ranks: 3,
            ft: FaultTolerance::disabled(),
        })
    };
    let scaled = xct_geometry::Sinogram::new(scan, sino.data().iter().map(|v| v * 1.5).collect());
    let batched = ReconstructorBuilder::new(grid, scan)
        .batch(2)
        .build()
        .unwrap();
    let pair = ReconInput::Batch(vec![sino.clone(), scaled.clone()]);
    let pair = batched.run(&over3(pair)).unwrap();
    for (j, slice) in [sino, scaled].into_iter().enumerate() {
        let alone = rec.run(&over3(ReconInput::Slice(slice))).unwrap();
        assert_eq!(pair.images[j], alone.images[0], "batch × ranks column {j}");
    }
}

#[test]
fn noise_degrades_but_does_not_break_reconstruction() {
    let n = 32u32;
    let grid = Grid::new(n);
    let scan = ScanGeometry::new(48, n);
    let truth = disk(0.6, 1.0).rasterize(n);
    let noisy = simulate_sinogram(
        &truth,
        &grid,
        &scan,
        NoiseModel::Poisson {
            incident: 1e4,
            scale: 0.05,
        },
        9,
    );
    let rec = Reconstructor::new(grid, scan);
    let out = rec
        .run(&ReconRequest::cg(
            ReconInput::Slice(noisy),
            StopRule::EarlyTermination {
                max_iters: 100,
                min_decrease: 0.02,
            },
        ))
        .unwrap();
    let err = rel_err(&out.images[0], &truth);
    assert!(err < 0.30, "too degraded: {err}");
    assert!(
        out.slice_records[0].len() < 100,
        "early termination should engage"
    );
}
