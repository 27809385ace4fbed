//! End-to-end observability contracts: one instrumented reconstruction
//! must export every metric family the paper's figures are drawn from
//! (phase timings, SpMV volumes, per-iteration residuals, and the Fig 7
//! communication matrix), the no-op handle must record nothing, and the
//! exported matrix must agree with the runtime's per-pair ledger.

use memxct::prelude::*;
use xct_geometry::{simulate_sinogram, Grid, NoiseModel, ScanGeometry, Sinogram};

fn small_sinogram(n: u32) -> (Grid, ScanGeometry, Sinogram) {
    let grid = Grid::new(n);
    let scan = ScanGeometry::new(n + 5, n);
    let truth = vec![0.5f32; (n * n) as usize];
    let sino = simulate_sinogram(&truth, &grid, &scan, NoiseModel::None, 0xfeed);
    (grid, scan, sino)
}

/// The metrics JSON from a single instrumented run holds all four
/// required families: preprocessing phase timers, per-kernel SpMV
/// counters, the per-iteration residual series, and the per-pair
/// communication matrix.
#[test]
fn one_run_exports_all_required_metric_families() {
    let (grid, scan, sino) = small_sinogram(24);
    let rec = ReconstructorBuilder::new(grid, scan).build().unwrap();
    let config = DistConfig {
        ranks: 3,
        ..DistConfig::default()
    };
    let req = ReconRequest::cg(ReconInput::Slice(sino), StopRule::Fixed(6))
        .mode(ExecMode::Distributed { config, ft: None });
    rec.run(&req).unwrap();

    let snap = rec.metrics();
    // Preprocessing phases.
    for phase in [
        "preprocess",
        "preprocess/ordering",
        "preprocess/tracing",
        "preprocess/transpose",
        "preprocess/buffers",
    ] {
        assert!(snap.timers.contains_key(phase), "missing timer {phase}");
    }
    // SpMV volume counters for the kernel that ran.
    for counter in ["spmv/dist/calls", "spmv/dist/nnz", "spmv/dist/bytes"] {
        assert!(snap.counters[counter] > 0, "empty counter {counter}");
    }
    // One residual per iteration.
    assert_eq!(snap.series["solver/residual_norm"].len(), 6);
    assert_eq!(snap.counters["solver/iterations"], 6);
    // Per-pair communication matrix, one row/col per rank.
    let mat = &snap.matrices["comm/bytes"];
    assert_eq!(mat.size, 3);
    assert_eq!(mat.data.len(), 9);
    assert!(mat.data.iter().sum::<u64>() > 0);

    // The JSON export carries the same families under the documented keys.
    let json = snap.to_json();
    for key in [
        "\"preprocess/tracing\"",
        "\"spmv/dist/bytes\"",
        "\"solver/residual_norm\"",
        "\"comm/bytes\"",
        "\"total_s\"",
        "\"size\":3",
    ] {
        assert!(json.contains(key), "JSON missing {key}: {json}");
    }
    assert!(json.starts_with("{\"counters\":{"));
}

/// The no-op handle is a true zero-collection path: an entire
/// reconstruction through it leaves the snapshot empty and the JSON at
/// the bare schema skeleton.
#[test]
fn noop_metrics_collect_nothing_end_to_end() {
    let (grid, scan, sino) = small_sinogram(16);
    let rec = ReconstructorBuilder::new(grid, scan)
        .metrics(Metrics::noop())
        .build()
        .unwrap();
    let req = ReconRequest::cg(ReconInput::Slice(sino), StopRule::Fixed(4));
    rec.run(&req).unwrap();

    let snap = rec.metrics();
    assert!(snap.is_empty());
    assert_eq!(
        snap.to_json(),
        r#"{"counters":{},"gauges":{},"timers":{},"series":{},"matrices":{}}"#
    );
}

/// Fig 7 path: the exported `comm/bytes` matrix is exactly the
/// communicator ledger's per-pair byte accounting — every (src, dst)
/// entry, not just totals.
#[test]
fn exported_comm_matrix_matches_ledger_per_pair() {
    let (grid, scan, sino) = small_sinogram(32);
    let metrics = Metrics::collecting();
    let rec = ReconstructorBuilder::new(grid, scan)
        .metrics(metrics.clone())
        .build()
        .unwrap();
    let ranks = 4;
    let config = DistConfig {
        ranks,
        ..DistConfig::default()
    };
    let req = ReconRequest::cg(ReconInput::Slice(sino), StopRule::Fixed(5))
        .mode(ExecMode::Distributed { config, ft: None });
    let out = rec.run(&req).unwrap();
    let ledger = &out.dist.expect("distributed detail").ledger;

    let mat = &metrics.snapshot().matrices["comm/bytes"];
    assert_eq!(mat.size, ranks);
    for src in 0..ranks {
        for dst in 0..ranks {
            assert_eq!(
                mat.get(src, dst),
                ledger.bytes(src, dst),
                "pair ({src},{dst})"
            );
        }
    }
    // The sparse structure survives export: the matrix has exactly as
    // many communicating pairs as the ledger counted.
    let nonzero = mat.data.iter().filter(|&&b| b > 0).count();
    assert_eq!(nonzero, ledger.nonzero_pairs());
}

/// Builder validation rejects each invalid input with the specific
/// `BuildError` variant instead of panicking.
#[test]
fn builder_surfaces_typed_build_errors() {
    let mk = || ReconstructorBuilder::new(Grid::new(16), ScanGeometry::new(12, 16));

    assert!(matches!(
        mk().partition_size(0).build(),
        Err(BuildError::ZeroPartitionSize)
    ));
    assert!(matches!(
        mk().buffer_size(1 << 20).build(),
        Err(BuildError::InvalidBufferSize { .. })
    ));
    assert!(matches!(
        mk().kernel(Kernel::Ell).build(),
        Err(BuildError::LayoutNotBuilt { .. })
    ));

    // And the sinogram-length check on the built reconstructor.
    let rec = mk().build().unwrap();
    let wrong = Sinogram::new(ScanGeometry::new(7, 16), vec![0.0; 7 * 16]);
    let req = ReconRequest::cg(ReconInput::Slice(wrong), StopRule::Fixed(2));
    assert!(matches!(
        rec.run(&req),
        Err(ReconError::Build(BuildError::SinogramLength { .. }))
    ));
}
