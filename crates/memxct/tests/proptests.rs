//! Property tests for the core pipeline: the memoized operators agree
//! with direct ray tracing, the factorized distributed product agrees
//! with the monolithic one, and permutations round-trip — for arbitrary
//! geometries and rank counts.

use memxct::{preprocess, Config, Kernel};
use proptest::prelude::*;
use xct_geometry::{disk, Sinogram};
use xct_geometry::{simulate_sinogram, Grid, NoiseModel, ScanGeometry};
use xct_runtime::run_ranks;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn forward_equals_direct_simulation(n in 8u32..28, m in 4u32..24) {
        let grid = Grid::new(n);
        let scan = ScanGeometry::new(m, n);
        let img = disk(0.7, 1.0).rasterize(n);
        let direct = simulate_sinogram(&img, &grid, &scan, NoiseModel::None, 0);
        let ops = preprocess(grid, scan, &Config::default());
        let y = ops.forward(Kernel::Buffered, &ops.order_tomogram(&img));
        let y_rm = ops.unorder_sinogram(&y);
        for (got, want) in y_rm.iter().zip(direct.data()) {
            prop_assert!((got - want).abs() < 1e-3, "{got} vs {want}");
        }
    }

    #[test]
    fn distributed_forward_equals_serial(
        n in 8u32..24, m in 4u32..20, ranks in 1usize..6
    ) {
        let grid = Grid::new(n);
        let scan = ScanGeometry::new(m, n);
        let ops = preprocess(grid, scan, &Config::default());
        let x: Vec<f32> = (0..ops.a.ncols()).map(|i| ((i * 13) % 9) as f32 * 0.125).collect();
        let want = ops.forward(Kernel::Serial, &x);
        let plans = memxct::dist::build_plans(&ops, ranks, false);
        let (results, _) = run_ranks(ranks, |comm| {
            let plan = &plans[comm.rank()];
            let lo = plan.tomo_range.start as usize;
            let hi = plan.tomo_range.end as usize;
            let mut kb = memxct::KernelBreakdown::default();
            plan.forward(comm, &x[lo..hi], &mut kb)
        });
        let mut got = vec![0f32; ops.a.nrows()];
        for (plan, block) in plans.iter().zip(results) {
            let lo = plan.sino_range.start as usize;
            got[lo..lo + block.len()].copy_from_slice(&block);
        }
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g - w).abs() < 1e-3, "{g} vs {w}");
        }
    }

    #[test]
    fn sinogram_permutation_roundtrips(n in 4u32..32, m in 2u32..24) {
        let ops = preprocess(Grid::new(n), ScanGeometry::new(m, n), &Config {
            build_buffered: false,
            ..Config::default()
        });
        let data: Vec<f32> = (0..(m * n)).map(|i| i as f32).collect();
        let sino = Sinogram::new(ScanGeometry::new(m, n), data.clone());
        prop_assert_eq!(ops.unorder_sinogram(&ops.order_sinogram(&sino)), data);
    }

    #[test]
    fn distributed_sirt_early_termination_matches_serial(
        n in 10u32..24, m in 6u32..20, ranks in 1usize..5
    ) {
        let grid = Grid::new(n);
        let scan = ScanGeometry::new(m, n);
        let img = disk(0.5, 2.0).rasterize(n);
        let sino = simulate_sinogram(&img, &grid, &scan, NoiseModel::None, 0);
        let rec = memxct::Reconstructor::new(grid, scan);
        let stop = memxct::StopRule::EarlyTermination {
            max_iters: 50,
            min_decrease: 0.02,
        };
        // Serial: the same engine + SirtRule on the buffered operator.
        let ops = rec.operators();
        let y = ops.order_sinogram(&sino);
        let op = ops.operator(rec.kernel());
        let (x, serial_records) = memxct::run_engine(
            op.as_ref(),
            &y,
            &mut memxct::SirtRule::new(1.0),
            memxct::Constraint::None,
            stop,
        );
        let serial_image = ops.unorder_tomogram(&x);
        let config = memxct::DistConfig { ranks, ..memxct::DistConfig::default() };
        let req = memxct::ReconRequest::cg(memxct::ReconInput::Slice(sino), stop)
            .solver(memxct::Solver::Sirt { relax: 1.0 })
            .mode(memxct::ExecMode::Distributed { config, ft: None });
        let dist = rec.run(&req).unwrap();
        let (dist_image, dist_iters) = (&dist.images[0], dist.iterations());
        // The allreduced residual is identical on every rank, so the
        // early-termination decision must branch the same way as serial
        // (up to fp reassociation right at the threshold).
        let d = dist_iters as i64 - serial_records.len() as i64;
        prop_assert!(d.abs() <= 1, "stopped at {} vs serial {}", dist_iters, serial_records.len());
        let num: f64 = dist_image.iter().zip(&serial_image)
            .map(|(&a, &b)| ((a - b) as f64).powi(2)).sum::<f64>().sqrt();
        let den: f64 = serial_image.iter().map(|&v| (v as f64).powi(2)).sum::<f64>().sqrt();
        prop_assert!(num / den.max(1e-12) < 2e-2, "rel err {}", num / den.max(1e-12));
    }

    #[test]
    fn operators_are_adjoint(n in 6u32..24, m in 3u32..18) {
        let ops = preprocess(Grid::new(n), ScanGeometry::new(m, n), &Config {
            build_buffered: false,
            ..Config::default()
        });
        let x: Vec<f32> = (0..ops.a.ncols()).map(|i| ((i * 7) % 11) as f32 - 5.0).collect();
        let y: Vec<f32> = (0..ops.a.nrows()).map(|i| ((i * 3) % 13) as f32 - 6.0).collect();
        let ax = ops.forward(Kernel::Serial, &x);
        let aty = ops.back(Kernel::Serial, &y);
        let lhs: f64 = ax.iter().zip(&y).map(|(&a, &b)| a as f64 * b as f64).sum();
        let rhs: f64 = x.iter().zip(&aty).map(|(&a, &b)| a as f64 * b as f64).sum();
        prop_assert!((lhs - rhs).abs() / lhs.abs().max(1.0) < 1e-3);
    }
}
