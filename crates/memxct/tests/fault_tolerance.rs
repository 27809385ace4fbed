//! Fault-tolerance integration tests: the empty fault plan and the
//! checkpointing machinery are bit-transparent; resume-at-k reproduces
//! the uninterrupted golden run exactly (CG and SIRT, serial and
//! distributed); corrupted snapshots are rejected with typed errors; and
//! a mid-solve rank crash ends in a completed restarted solve or a typed
//! `CommError` — never a hang.

use std::sync::Arc;
use std::time::Instant;

use memxct::prelude::*;
use xct_geometry::{disk, simulate_sinogram, Grid, NoiseModel, ScanGeometry, Sinogram};

fn geometry(n: u32, m: u32) -> (Grid, ScanGeometry, Sinogram) {
    let grid = Grid::new(n);
    let scan = ScanGeometry::new(m, n);
    let truth = disk(0.6, 1.0).rasterize(n);
    let sino = simulate_sinogram(&truth, &grid, &scan, NoiseModel::None, 0);
    (grid, scan, sino)
}

/// One CG slice for `iters` iterations through the front door.
fn cg(rec: &Reconstructor, sino: &Sinogram, iters: usize) -> Result<ReconResponse, ReconError> {
    rec.run(&ReconRequest::cg(
        ReconInput::Slice(sino.clone()),
        StopRule::Fixed(iters),
    ))
}

fn sirt(rec: &Reconstructor, sino: &Sinogram, iters: usize) -> Result<ReconResponse, ReconError> {
    rec.run(&ReconRequest::sirt(ReconInput::Slice(sino.clone()), iters))
}

fn assert_bits_equal(a: &ReconResponse, b: &ReconResponse) {
    let (ra, rb) = (&a.slice_records[0], &b.slice_records[0]);
    assert_eq!(ra.len(), rb.len(), "iteration counts differ");
    for (ra, rb) in ra.iter().zip(rb) {
        assert_eq!(ra.residual_norm.to_bits(), rb.residual_norm.to_bits());
        assert_eq!(ra.solution_norm.to_bits(), rb.solution_norm.to_bits());
    }
    let ia: Vec<u32> = a.images[0].iter().map(|v| v.to_bits()).collect();
    let ib: Vec<u32> = b.images[0].iter().map(|v| v.to_bits()).collect();
    assert_eq!(ia, ib, "images differ in bits");
}

fn assert_dist_bits_equal(a: &DistOutput, b: &DistOutput) {
    let (ra, rb) = (&a.slice_records[0], &b.slice_records[0]);
    assert_eq!(ra.len(), rb.len(), "iteration counts differ");
    for (ra, rb) in ra.iter().zip(rb) {
        assert_eq!(ra.residual_norm.to_bits(), rb.residual_norm.to_bits());
        assert_eq!(ra.solution_norm.to_bits(), rb.solution_norm.to_bits());
    }
    let ia: Vec<u32> = a.images[0].iter().map(|v| v.to_bits()).collect();
    let ib: Vec<u32> = b.images[0].iter().map(|v| v.to_bits()).collect();
    assert_eq!(ia, ib, "images differ in bits");
}

#[test]
fn empty_fault_plan_is_bit_identical_distributed() {
    let (grid, scan, sino) = geometry(24, 36);
    let ops = preprocess(grid, scan, &Config::default());
    let y = ops.order_sinogram(&sino);
    let config = DistConfig {
        ranks: 3,
        use_buffered: true,
        stop: StopRule::Fixed(8),
        solver: Solver::Cg,
    };
    // Historical fail-fast path (unbounded waits, no fault machinery in
    // the policy) vs the supervised default (deadlines, retry budget,
    // empty fault plan): both must produce the exact same bits.
    let baseline = try_reconstruct_distributed(&ops, &y, &config).unwrap();
    let supervised = try_reconstruct_distributed_ft(
        &ops,
        &y,
        &config,
        &FaultTolerance::default(),
        None,
        &Metrics::noop(),
    )
    .unwrap();
    assert_dist_bits_equal(&baseline, &supervised);
}

#[test]
fn checkpointing_is_bit_transparent_serial() {
    let (grid, scan, sino) = geometry(24, 36);
    let plain = ReconstructorBuilder::new(grid, scan).build().unwrap();
    let sink = Arc::new(MemoryCheckpointSink::new());
    let checkpointed = ReconstructorBuilder::new(grid, scan)
        .checkpoint_sink(sink.clone() as Arc<dyn CheckpointSink>)
        .checkpoint_every(2)
        .build()
        .unwrap();
    let a = cg(&plain, &sino, 8).unwrap();
    let b = cg(&checkpointed, &sino, 8).unwrap();
    assert_bits_equal(&a, &b);
    // …and snapshots were actually taken.
    assert!(sink.load(0).unwrap().is_some(), "no snapshot was saved");
}

#[test]
fn serial_cg_resume_is_bit_identical() {
    let (grid, scan, sino) = geometry(24, 36);
    let rec = ReconstructorBuilder::new(grid, scan).build().unwrap();
    let golden = cg(&rec, &sino, 10).unwrap();

    // Interrupt after 4 iterations, snapshotting every boundary…
    let sink = Arc::new(MemoryCheckpointSink::new());
    let rec = ReconstructorBuilder::new(grid, scan)
        .checkpoint_sink(sink.clone() as Arc<dyn CheckpointSink>)
        .checkpoint_every(1)
        .build()
        .unwrap();
    cg(&rec, &sino, 4).unwrap();
    // …then resume to the full budget: the restored loop state (x, resid,
    // dir, carried γ, prev_res) must reproduce the golden bits exactly.
    let rec = ReconstructorBuilder::new(grid, scan)
        .checkpoint_sink(sink as Arc<dyn CheckpointSink>)
        .checkpoint_every(1)
        .resume(true)
        .build()
        .unwrap();
    let resumed = cg(&rec, &sino, 10).unwrap();
    assert_bits_equal(&golden, &resumed);
}

#[test]
fn serial_sirt_resume_is_bit_identical() {
    let (grid, scan, sino) = geometry(24, 36);
    let rec = ReconstructorBuilder::new(grid, scan).build().unwrap();
    let golden = sirt(&rec, &sino, 10).unwrap();

    let sink = Arc::new(MemoryCheckpointSink::new());
    let rec = ReconstructorBuilder::new(grid, scan)
        .checkpoint_sink(sink.clone() as Arc<dyn CheckpointSink>)
        .checkpoint_every(1)
        .build()
        .unwrap();
    sirt(&rec, &sino, 4).unwrap();
    // SIRT's weights are not stored in the snapshot — they are recomputed
    // from the operator on resume, bit-identically.
    let rec = ReconstructorBuilder::new(grid, scan)
        .checkpoint_sink(sink as Arc<dyn CheckpointSink>)
        .checkpoint_every(1)
        .resume(true)
        .build()
        .unwrap();
    let resumed = sirt(&rec, &sino, 10).unwrap();
    assert_bits_equal(&golden, &resumed);
}

#[test]
fn distributed_resume_is_bit_identical() {
    let (grid, scan, sino) = geometry(24, 36);
    let ops = preprocess(grid, scan, &Config::default());
    let y = ops.order_sinogram(&sino);
    let config = |iters| DistConfig {
        ranks: 3,
        use_buffered: true,
        stop: StopRule::Fixed(iters),
        solver: Solver::Cg,
    };
    let golden = try_reconstruct_distributed(&ops, &y, &config(8)).unwrap();

    let sink: Arc<dyn CheckpointSink> = Arc::new(MemoryCheckpointSink::new());
    let (ft, save) = (FaultTolerance::default(), CheckpointPolicy::new(sink, 1));
    let noop = Metrics::noop();
    try_reconstruct_distributed_ft(&ops, &y, &config(3), &ft, Some(&save), &noop).unwrap();
    let resume = save.resume(true);
    let resumed =
        try_reconstruct_distributed_ft(&ops, &y, &config(8), &ft, Some(&resume), &noop).unwrap();
    assert_dist_bits_equal(&golden, &resumed);
}

/// Every driver snapshots CG's γ through the one `carried_scalars`
/// accessor: a shared-memory solve and a one-rank distributed solve of the
/// same slice, checkpointed at the same boundary, carry bit-equal rule
/// sections, and a batch-1 snapshot holds exactly one γ at any rank count.
#[test]
fn rule_section_is_the_same_for_every_driver() {
    let (grid, scan, sino) = geometry(24, 36);
    let rule_section = |mode: ExecMode| {
        let sink = Arc::new(MemoryCheckpointSink::new());
        let policy = CheckpointPolicy::new(sink.clone() as Arc<dyn CheckpointSink>, 1);
        let req = ReconRequest::cg(ReconInput::Slice(sino.clone()), StopRule::Fixed(3))
            .mode(mode)
            .checkpoint(policy);
        let rec = ReconstructorBuilder::new(grid, scan).build().unwrap();
        rec.run(&req).unwrap();
        let snap = Snapshot::decode(&sink.load(0).unwrap().unwrap()).unwrap();
        assert_eq!(snap.iteration(), 3);
        let gammas = snap.f64s(memxct::checkpoint::SECTION_RULE).unwrap();
        gammas.iter().map(|g| g.to_bits()).collect::<Vec<u64>>()
    };
    let over = |ranks| {
        let config = DistConfig {
            ranks,
            ..DistConfig::default()
        };
        ExecMode::Distributed { config, ft: None }
    };
    let shared = rule_section(ExecMode::Serial);
    assert_eq!(shared.len(), 1, "a batch-1 snapshot holds exactly one γ");
    assert_eq!(rule_section(over(1)), shared);
    assert_eq!(rule_section(over(3)).len(), 1);
}

#[test]
fn snapshots_are_rank_count_independent() {
    let (grid, scan, sino) = geometry(24, 36);
    let ops = preprocess(grid, scan, &Config::default());
    let y = ops.order_sinogram(&sino);
    // Snapshot under 3 ranks…
    let sink: Arc<dyn CheckpointSink> = Arc::new(MemoryCheckpointSink::new());
    let (ft, save) = (FaultTolerance::default(), CheckpointPolicy::new(sink, 1));
    let noop = Metrics::noop();
    let config3 = DistConfig {
        ranks: 3,
        use_buffered: true,
        stop: StopRule::Fixed(3),
        solver: Solver::Cg,
    };
    try_reconstruct_distributed_ft(&ops, &y, &config3, &ft, Some(&save), &noop).unwrap();
    // …resume under 2: the snapshot stores global ordered vectors, so a
    // different partitioning restores cleanly and runs to the budget.
    let resume = CheckpointPolicy {
        every: 0,
        ..save.resume(true)
    };
    let config2 = DistConfig {
        ranks: 2,
        stop: StopRule::Fixed(8),
        ..config3
    };
    let out =
        try_reconstruct_distributed_ft(&ops, &y, &config2, &ft, Some(&resume), &noop).unwrap();
    assert_eq!(
        out.slice_records[0].len(),
        8,
        "resumed run must reach the budget"
    );
    assert!(out.images[0].iter().all(|v| v.is_finite()));
}

#[test]
fn corrupted_and_truncated_snapshots_are_rejected_typed() {
    let (grid, scan, sino) = geometry(24, 36);

    // Garbage bytes: decoding fails with a typed CheckpointError.
    let garbage = Arc::new(MemoryCheckpointSink::new());
    garbage.save(0, b"not a snapshot at all").unwrap();
    let rec = ReconstructorBuilder::new(grid, scan)
        .checkpoint_sink(garbage as Arc<dyn CheckpointSink>)
        .resume(true)
        .build()
        .unwrap();
    assert!(matches!(
        cg(&rec, &sino, 4).err(),
        Some(ReconError::Build(BuildError::Checkpoint(_)))
    ));

    // Truncation: a valid snapshot cut short fails the checksum/length
    // checks, again typed — never deserialized garbage.
    let sink = Arc::new(MemoryCheckpointSink::new());
    let rec = ReconstructorBuilder::new(grid, scan)
        .checkpoint_sink(sink.clone() as Arc<dyn CheckpointSink>)
        .checkpoint_every(1)
        .build()
        .unwrap();
    cg(&rec, &sino, 3).unwrap();
    let bytes = sink.load(0).unwrap().unwrap();
    sink.save(0, &bytes[..bytes.len() / 2]).unwrap();
    let rec = ReconstructorBuilder::new(grid, scan)
        .checkpoint_sink(sink as Arc<dyn CheckpointSink>)
        .resume(true)
        .build()
        .unwrap();
    assert!(matches!(
        cg(&rec, &sino, 4).err(),
        Some(ReconError::Build(BuildError::Checkpoint(_)))
    ));

    // A snapshot from a different geometry: decodes fine but fails the
    // CheckpointHash invariant, surfaced as a PlanCheck report.
    let (grid2, scan2, sino2) = geometry(16, 24);
    let foreign = Arc::new(MemoryCheckpointSink::new());
    let rec = ReconstructorBuilder::new(grid2, scan2)
        .checkpoint_sink(foreign.clone() as Arc<dyn CheckpointSink>)
        .checkpoint_every(1)
        .build()
        .unwrap();
    cg(&rec, &sino2, 2).unwrap();
    let rec = ReconstructorBuilder::new(grid, scan)
        .checkpoint_sink(foreign as Arc<dyn CheckpointSink>)
        .resume(true)
        .build()
        .unwrap();
    assert!(matches!(
        cg(&rec, &sino, 4).err(),
        Some(ReconError::Build(BuildError::PlanCheck(_)))
    ));
}

#[test]
fn rank_crash_restarts_from_checkpoint_and_completes() {
    let (grid, scan, sino) = geometry(24, 36);
    let ops = preprocess(grid, scan, &Config::default());
    let y = ops.order_sinogram(&sino);
    let config = DistConfig {
        ranks: 3,
        use_buffered: true,
        stop: StopRule::Fixed(8),
        solver: Solver::Cg,
    };
    let ft = FaultTolerance {
        faults: Arc::new(FaultPlan::new().with(1, 5, FaultKind::Crash)),
        max_restarts: 1,
        ..FaultTolerance::default()
    };
    let policy = CheckpointPolicy::new(Arc::new(MemoryCheckpointSink::new()), 1).resume(true);
    let t = Instant::now();
    let metrics = Metrics::collecting();
    let out =
        try_reconstruct_distributed_ft(&ops, &y, &config, &ft, Some(&policy), &metrics).unwrap();
    // The acceptance bound: a mid-solve crash ends in a completed,
    // restarted solve well within the collective deadline — not a hang.
    assert!(
        t.elapsed().as_secs() < 60,
        "restarted solve took {:?}",
        t.elapsed()
    );
    assert_eq!(
        out.slice_records[0].len(),
        8,
        "restarted solve must reach budget"
    );
    assert!(out.images[0].iter().all(|v| v.is_finite()));
    let snap = metrics.snapshot();
    assert!(snap.counters["fault/rank_loss"] >= 1);
    assert!(snap.counters["fault/restarts"] >= 1);
}

#[test]
fn rank_crash_without_restart_budget_is_a_typed_error() {
    let (grid, scan, sino) = geometry(24, 36);
    let ops = preprocess(grid, scan, &Config::default());
    let y = ops.order_sinogram(&sino);
    let config = DistConfig {
        ranks: 2,
        use_buffered: true,
        stop: StopRule::Fixed(8),
        solver: Solver::Cg,
    };
    let ft = FaultTolerance {
        faults: Arc::new(FaultPlan::new().with(1, 4, FaultKind::Crash)),
        max_restarts: 0,
        ..FaultTolerance::default()
    };
    let t = Instant::now();
    let err = try_reconstruct_distributed_ft(&ops, &y, &config, &ft, None, &Metrics::noop())
        .err()
        .expect("crash with no restart budget must fail");
    assert!(
        t.elapsed().as_secs() < 60,
        "failure took {:?} — deadline did not bound the wait",
        t.elapsed()
    );
    match err {
        BuildError::Comm(e) => {
            assert!(
                matches!(e.kind, CommErrorKind::Crash | CommErrorKind::Aborted { .. }),
                "unexpected kind: {e}"
            );
        }
        other => panic!("expected BuildError::Comm, got {other}"),
    }
}

#[test]
fn recoverable_drops_are_retried_transparently() {
    let (grid, scan, sino) = geometry(24, 36);
    let ops = preprocess(grid, scan, &Config::default());
    let y = ops.order_sinogram(&sino);
    let config = DistConfig {
        ranks: 2,
        use_buffered: true,
        stop: StopRule::Fixed(6),
        solver: Solver::Cg,
    };
    let baseline = try_reconstruct_distributed(&ops, &y, &config).unwrap();
    let ft = FaultTolerance {
        faults: Arc::new(FaultPlan::new().with(1, 3, FaultKind::Drop { attempts: 1 })),
        ..FaultTolerance::default()
    };
    let metrics = Metrics::collecting();
    let out = try_reconstruct_distributed_ft(&ops, &y, &config, &ft, None, &metrics).unwrap();
    // A dropped delivery inside the retry budget is invisible to the
    // numerics: the run completes with the exact baseline bits.
    assert_dist_bits_equal(&baseline, &out);
    let snap = metrics.snapshot();
    assert!(snap.counters["fault/injected"] >= 1);
    assert!(snap.counters["fault/retries"] >= 1);
}
