//! Fault-tolerance integration tests: the empty fault plan and the
//! checkpointing machinery are bit-transparent; resume-at-k reproduces
//! the uninterrupted golden run exactly (CG and SIRT, serial and
//! distributed); corrupted snapshots are rejected with typed errors; and
//! a mid-solve rank crash ends in a completed restarted solve or a typed
//! `CommError` — never a hang. Every distributed solve here is a request
//! in `ExecMode::Distributed`, run through `Reconstructor::run`.

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

/// One CG slice for `iters` iterations.
fn cg_request(sino: &Sinogram, iters: usize) -> ReconRequest {
    ReconRequest::cg(ReconInput::Slice(sino.clone()), StopRule::Fixed(iters))
}

/// One CG slice for `iters` iterations through the front door.
fn cg(rec: &Reconstructor, sino: &Sinogram, iters: usize) -> Result<ReconResponse, ReconError> {
    rec.run(&cg_request(sino, iters))
}

fn sirt(rec: &Reconstructor, sino: &Sinogram, iters: usize) -> Result<ReconResponse, ReconError> {
    rec.run(&ReconRequest::sirt(ReconInput::Slice(sino.clone()), iters))
}

/// Snapshots into `sink` every `every` iterations, no resume.
fn saving(sink: &Arc<MemoryCheckpointSink>, every: usize) -> CheckpointPolicy {
    CheckpointPolicy::new(sink.clone() as Arc<dyn CheckpointSink>, every)
}

/// `ranks` thread-ranks (buffered, as the plan is) under `ft`.
fn over_ranks(ranks: usize, ft: FaultTolerance) -> ExecMode {
    ExecMode::Distributed { ranks, ft }
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

#[test]
fn empty_fault_plan_is_bit_identical_distributed() {
    let (grid, scan, sino) = geometry(24, 36);
    let rec = Reconstructor::new(grid, scan);
    // Historical fail-fast path (unbounded waits, no fault machinery in
    // the policy) vs the supervised default (deadlines, retry budget,
    // empty fault plan): both must produce the exact same bits.
    let baseline = rec.run(&cg_request(&sino, 8).mode(over_ranks(3, FaultTolerance::disabled())));
    let supervised = over_ranks(3, FaultTolerance::default());
    let supervised = rec.run(&cg_request(&sino, 8).mode(supervised));
    assert_bits_equal(&baseline.unwrap(), &supervised.unwrap());
}

#[test]
fn checkpointing_is_bit_transparent_serial() {
    let (grid, scan, sino) = geometry(24, 36);
    let rec = ReconstructorBuilder::new(grid, scan).build().unwrap();
    let sink = Arc::new(MemoryCheckpointSink::new());
    let a = cg(&rec, &sino, 8).unwrap();
    let b = rec.run(&cg_request(&sino, 8).checkpoint(saving(&sink, 2)));
    assert_bits_equal(&a, &b.unwrap());
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
    rec.run(&cg_request(&sino, 4).checkpoint(saving(&sink, 1)))
        .unwrap();
    // …then resume to the full budget: the restored loop state (x, resid,
    // dir, carried γ, prev_res) must reproduce the golden bits exactly.
    let resume = saving(&sink, 1).resume(true);
    let resumed = rec.run(&cg_request(&sino, 10).checkpoint(resume)).unwrap();
    assert_bits_equal(&golden, &resumed);
}

#[test]
fn serial_sirt_resume_is_bit_identical() {
    let (grid, scan, sino) = geometry(24, 36);
    let rec = ReconstructorBuilder::new(grid, scan).build().unwrap();
    let golden = sirt(&rec, &sino, 10).unwrap();

    let sink = Arc::new(MemoryCheckpointSink::new());
    let sirt_request = |iters| ReconRequest::sirt(ReconInput::Slice(sino.clone()), iters);
    rec.run(&sirt_request(4).checkpoint(saving(&sink, 1)))
        .unwrap();
    // SIRT's weights are not stored in the snapshot — they are recomputed
    // from the operator on resume, bit-identically.
    let resume = saving(&sink, 1).resume(true);
    let resumed = rec.run(&sirt_request(10).checkpoint(resume)).unwrap();
    assert_bits_equal(&golden, &resumed);
}

#[test]
fn distributed_resume_is_bit_identical() {
    let (grid, scan, sino) = geometry(24, 36);
    let rec = Reconstructor::new(grid, scan);
    let golden = rec.run(&cg_request(&sino, 8).mode(over_ranks(3, FaultTolerance::disabled())));

    let sink: Arc<dyn CheckpointSink> = Arc::new(MemoryCheckpointSink::new());
    let save = CheckpointPolicy::new(sink, 1);
    let mode = over_ranks(3, FaultTolerance::default());
    let first = cg_request(&sino, 3).mode(mode.clone());
    rec.run(&first.checkpoint(save.clone())).unwrap();
    let resumed = cg_request(&sino, 8)
        .mode(mode)
        .checkpoint(save.resume(true));
    assert_bits_equal(&golden.unwrap(), &rec.run(&resumed).unwrap());
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
        let req = cg_request(&sino, 3).mode(mode).checkpoint(policy);
        let rec = ReconstructorBuilder::new(grid, scan).build().unwrap();
        rec.run(&req).unwrap();
        let snap = Snapshot::decode(&sink.load(0).unwrap().unwrap()).unwrap();
        assert_eq!(snap.iteration(), 3);
        let gammas = snap.f64s(memxct::checkpoint::SECTION_RULE).unwrap();
        gammas.iter().map(|g| g.to_bits()).collect::<Vec<u64>>()
    };
    let shared = rule_section(ExecMode::Serial);
    assert_eq!(shared.len(), 1, "a batch-1 snapshot holds exactly one γ");
    assert_eq!(
        rule_section(over_ranks(1, FaultTolerance::disabled())),
        shared
    );
    assert_eq!(
        rule_section(over_ranks(3, FaultTolerance::disabled())).len(),
        1
    );
}

#[test]
fn snapshots_are_rank_count_independent() {
    let (grid, scan, sino) = geometry(24, 36);
    let rec = Reconstructor::new(grid, scan);
    let ft = FaultTolerance::default();
    // Snapshot under 3 ranks…
    let sink: Arc<dyn CheckpointSink> = Arc::new(MemoryCheckpointSink::new());
    let save = CheckpointPolicy::new(sink, 1);
    let first = cg_request(&sino, 3).mode(over_ranks(3, ft.clone()));
    rec.run(&first.checkpoint(save.clone())).unwrap();
    // …resume under 2: the snapshot stores global ordered vectors, so a
    // different partitioning restores cleanly and runs to the budget.
    let resume = CheckpointPolicy {
        every: 0,
        ..save.resume(true)
    };
    let second = cg_request(&sino, 8).mode(over_ranks(2, ft));
    let out = rec.run(&second.checkpoint(resume)).unwrap();
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

    let rec = ReconstructorBuilder::new(grid, scan).build().unwrap();
    let resuming = |sink: &Arc<MemoryCheckpointSink>| {
        rec.run(&cg_request(&sino, 4).checkpoint(saving(sink, 0).resume(true)))
    };

    // Garbage bytes: decoding fails with a typed CheckpointError.
    let garbage = Arc::new(MemoryCheckpointSink::new());
    garbage.save(0, b"not a snapshot at all").unwrap();
    assert!(matches!(
        resuming(&garbage).err(),
        Some(ReconError::Build(BuildError::Checkpoint(_)))
    ));

    // Truncation: a valid snapshot cut short fails the checksum/length
    // checks, again typed — never deserialized garbage.
    let sink = Arc::new(MemoryCheckpointSink::new());
    rec.run(&cg_request(&sino, 3).checkpoint(saving(&sink, 1)))
        .unwrap();
    let bytes = sink.load(0).unwrap().unwrap();
    sink.save(0, &bytes[..bytes.len() / 2]).unwrap();
    assert!(matches!(
        resuming(&sink).err(),
        Some(ReconError::Build(BuildError::Checkpoint(_)))
    ));

    // A snapshot from a different geometry: decodes fine but fails the
    // CheckpointHash invariant, surfaced as a PlanCheck report.
    let (grid2, scan2, sino2) = geometry(16, 24);
    let foreign = Arc::new(MemoryCheckpointSink::new());
    let rec2 = ReconstructorBuilder::new(grid2, scan2).build().unwrap();
    rec2.run(&cg_request(&sino2, 2).checkpoint(saving(&foreign, 1)))
        .unwrap();
    assert!(matches!(
        resuming(&foreign).err(),
        Some(ReconError::Build(BuildError::PlanCheck(_)))
    ));
}

/// A reconstructor recording into `metrics`, for `geometry(24, 36)`.
fn metered(metrics: &Metrics) -> (Reconstructor, Sinogram) {
    let (grid, scan, sino) = geometry(24, 36);
    let rec = ReconstructorBuilder::new(grid, scan)
        .metrics(metrics.clone())
        .build()
        .unwrap();
    (rec, sino)
}

#[test]
fn rank_crash_restarts_from_checkpoint_and_completes() {
    let metrics = Metrics::collecting();
    let (rec, sino) = metered(&metrics);
    let ft = FaultTolerance {
        faults: Arc::new(FaultPlan::new().with(1, 5, FaultKind::Crash)),
        max_restarts: 1,
        ..FaultTolerance::default()
    };
    let policy = CheckpointPolicy::new(Arc::new(MemoryCheckpointSink::new()), 1).resume(true);
    let req = cg_request(&sino, 8).mode(over_ranks(3, ft));
    let t = Instant::now();
    let out = rec.run(&req.checkpoint(policy)).unwrap();
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
    // The restart ran over one rank fewer: its ledger is 2 × 2.
    assert_eq!(out.dist.as_ref().unwrap().ledger.size(), 2);
    let snap = metrics.snapshot();
    assert!(snap.counters["fault/rank_loss"] >= 1);
    assert!(snap.counters["fault/restarts"] >= 1);
    assert_eq!(snap.matrices["comm/bytes"].size, 2);
}

/// A volume's groups share one plan set per rank count: three groups at
/// two ranks build once, and a crash in the first group adds one build,
/// of the one-rank plans its degrade runs; the groups after it reuse the
/// two-rank set.
#[test]
fn rank_plans_are_built_once_per_request_and_rank_count() {
    let builds = |ft: FaultTolerance| {
        let metrics = Metrics::collecting();
        let (rec, sino) = metered(&metrics);
        let volume = ReconInput::Volume(vec![sino; 3]);
        let req = ReconRequest::cg(volume, StopRule::Fixed(4)).mode(over_ranks(2, ft));
        let out = rec.run(&req).unwrap();
        assert_eq!(out.images.len(), 3);
        let snap = metrics.snapshot();
        let restarts = snap.counters.get("fault/restarts").copied().unwrap_or(0);
        (snap.timers["dist/build_plans"].count, restarts)
    };
    assert_eq!(builds(FaultTolerance::disabled()), (1, 0));
    let crash = FaultTolerance {
        faults: Arc::new(FaultPlan::new().with(1, 3, FaultKind::Crash)),
        max_restarts: 1,
        ..FaultTolerance::default()
    };
    let (count, restarts) = builds(crash);
    assert_eq!((count, restarts), (2, 1));
}

#[test]
fn rank_crash_without_restart_budget_is_a_typed_error() {
    let (grid, scan, sino) = geometry(24, 36);
    let rec = Reconstructor::new(grid, scan);
    let ft = FaultTolerance {
        faults: Arc::new(FaultPlan::new().with(1, 4, FaultKind::Crash)),
        max_restarts: 0,
        ..FaultTolerance::default()
    };
    let t = Instant::now();
    let err = rec
        .run(&cg_request(&sino, 8).mode(over_ranks(2, ft)))
        .expect_err("crash with no restart budget must fail");
    assert!(
        t.elapsed().as_secs() < 60,
        "failure took {:?} — deadline did not bound the wait",
        t.elapsed()
    );
    match err {
        ReconError::Build(BuildError::Comm(e)) => {
            assert!(
                matches!(e.kind, CommErrorKind::Crash | CommErrorKind::Aborted { .. }),
                "unexpected kind: {e}"
            );
        }
        other => panic!("expected BuildError::Comm, got {other}"),
    }
}

/// A sink whose every save fails.
struct BrokenSink;

impl CheckpointSink for BrokenSink {
    fn save(&self, _slot: usize, _bytes: &[u8]) -> Result<(), CheckpointError> {
        Err(CheckpointError::Io {
            message: "disk full".to_string(),
        })
    }
    fn load(&self, _slot: usize) -> Result<Option<Vec<u8>>, CheckpointError> {
        Ok(None)
    }
}

/// A snapshot that cannot be saved is not a rank loss a restart could
/// cure: the solve fails typed, with the restart budget untouched.
#[test]
fn checkpoint_faults_are_not_retried() {
    let metrics = Metrics::collecting();
    let (rec, sino) = metered(&metrics);
    let ft = FaultTolerance {
        max_restarts: 2,
        ..FaultTolerance::default()
    };
    let req = cg_request(&sino, 8).mode(over_ranks(3, ft));
    let err = rec
        .run(&req.checkpoint(CheckpointPolicy::new(Arc::new(BrokenSink), 1)))
        .expect_err("a failing sink must fail the solve");
    match err {
        ReconError::Build(BuildError::Comm(e)) => assert!(
            matches!(e.kind, CommErrorKind::Checkpoint { .. }),
            "unexpected kind: {e}"
        ),
        other => panic!("expected BuildError::Comm, got {other}"),
    }
    let snap = metrics.snapshot();
    assert_eq!(snap.counters["fault/rank_loss"], 1);
    assert!(!snap.counters.contains_key("fault/restarts"));
}

#[test]
fn recoverable_drops_are_retried_transparently() {
    let metrics = Metrics::collecting();
    let (rec, sino) = metered(&metrics);
    let baseline = rec.run(&cg_request(&sino, 6).mode(over_ranks(2, FaultTolerance::disabled())));
    let ft = FaultTolerance {
        faults: Arc::new(FaultPlan::new().with(1, 3, FaultKind::Drop { attempts: 1 })),
        ..FaultTolerance::default()
    };
    let out = rec.run(&cg_request(&sino, 6).mode(over_ranks(2, ft)));
    // A dropped delivery inside the retry budget is invisible to the
    // numerics: the run completes with the exact baseline bits.
    assert_bits_equal(&baseline.unwrap(), &out.unwrap());
    let snap = metrics.snapshot();
    assert!(snap.counters["fault/injected"] >= 1);
    assert!(snap.counters["fault/retries"] >= 1);
}
