//! Model-checked concurrency suite for the serving layer: the
//! `xct-model` explorer drives the plan cache and the job runtime
//! (scheduler thread + submitters) through the interleavings of small
//! configurations, including the supervision paths — shutdown racing a
//! running job, a deadline firing during a preemption drill, and the
//! circuit breaker tripping under a concurrent submission.

use std::time::Duration;

use memxct::{ReconInput, ReconRequest, StopRule};
use xct_geometry::{disk, simulate_sinogram, Grid, NoiseModel, ScanGeometry, Sinogram};
use xct_model::sync::Arc;
use xct_model::{explore, replay, Config, FailureKind};
use xct_serve::{
    BreakerConfig, JobError, JobRuntime, JobSpec, PlanCache, PlanSpec, RuntimeConfig, Shutdown,
};

/// Every test starts here, so this is also where the suite pins plan
/// builds to one worker: a build inside a schedule traces rays on a
/// transient `WorkerPool`, and each extra worker multiplies these trees by
/// the pool's own handshake (cache churn: 43 schedules inline, 5 363 at
/// two workers, past the budget beyond that). That protocol is explored
/// exhaustively in `crates/runtime/tests/model_check.rs`; these trees are
/// about the cache and the job runtime.
fn geometry(n: u32, m: u32) -> (Grid, ScanGeometry) {
    std::env::set_var("RAYON_NUM_THREADS", "1");
    (Grid::new(n), ScanGeometry::new(m, n))
}

fn sino(grid: Grid, scan: ScanGeometry, n: u32, seed: u64) -> Sinogram {
    let truth = disk(0.3 + 0.05 * seed as f64, 1.0 + 0.5 * seed as f32).rasterize(n);
    simulate_sinogram(&truth, &grid, &scan, NoiseModel::None, seed)
}

/// Concurrent get / insert / evict on a capacity-1 cache, explored
/// exhaustively: two threads requesting *different* plans chase one
/// slot, so every interleaving exercises insert-evict-insert churn. No
/// deadlock, no lost wakeup, and each caller always gets a working
/// reconstructor for its own key.
#[test]
fn capacity_one_cache_churn_is_exhaustively_clean() {
    let (grid, scan) = geometry(8, 6);
    let spec_a = PlanSpec::new(grid, scan);
    let (grid_b, scan_b) = geometry(8, 4);
    let spec_b = PlanSpec::new(grid_b, scan_b);
    let report = explore(&Config::dfs(), move || {
        let cache = Arc::new(PlanCache::new(1));
        let c2 = cache.clone();
        let t = xct_model::thread::spawn(move || {
            let (_rec, hit) = c2.get_detailed(&spec_b).expect("build b");
            assert!(!hit, "first lookup of key b in a fresh cache");
        });
        let (_rec, hit) = cache.get_detailed(&spec_a).expect("build a");
        assert!(!hit, "first lookup of key a in a fresh cache");
        t.join().unwrap();
        // Capacity 1: exactly one of the two keys survived the churn.
        assert_eq!(cache.len(), 1);
        assert!(cache.contains(&spec_a) ^ cache.contains(&spec_b));
    });
    report.assert_clean();
    assert!(report.complete, "cache tree must be fully explored");
}

/// Submit racing a self-preempting job: the scheduler thread is mid
/// preempt/requeue while a second (higher-priority) submission lands.
/// Every interleaving must drain both jobs to completion — no lost
/// scheduler wakeup, no stuck waiter.
#[test]
fn submit_during_preempt_drains_clean() {
    let (grid, scan) = geometry(8, 6);
    let plan = PlanSpec::new(grid, scan);
    let s0 = sino(grid, scan, 8, 0);
    let s1 = sino(grid, scan, 8, 1);
    let report = explore(&Config::dfs().preemptions(1), move || {
        let runtime = JobRuntime::new(RuntimeConfig {
            cache_capacity: 2,
            ..RuntimeConfig::default()
        });
        let req0 = ReconRequest::cg(ReconInput::Slice(s0.clone()), StopRule::Fixed(3));
        let req1 = ReconRequest::cg(ReconInput::Slice(s1.clone()), StopRule::Fixed(2));
        // Job 0 checkpoints and yields at its first iteration boundary.
        let id0 = runtime
            .submit(JobSpec::new("drill", plan, req0).preempt_at(1))
            .unwrap();
        // Racing submission at a strictly higher priority: depending on
        // the interleaving it lands before, during, or after job 0's
        // preemption window.
        let id1 = runtime
            .submit(JobSpec::new("vip", plan, req1).priority(2))
            .unwrap();
        let r0 = runtime.wait(id0).expect("job 0 result");
        let r1 = runtime.wait(id1).expect("job 1 result");
        let resp0 = r0.outcome.expect("job 0 completed");
        let resp1 = r1.outcome.expect("job 1 completed");
        assert_eq!(resp0.slice_records[0].len(), 3, "all job-0 iterations ran");
        assert_eq!(resp1.slice_records[0].len(), 2, "all job-1 iterations ran");
        assert_eq!(r0.report.preemptions, 1, "the drill preempted once");
        drop(runtime);
    });
    report.assert_clean();
}

/// `CheckpointAndStop` racing a running job: depending on the
/// interleaving the shutdown lands before the job is picked, mid-run
/// (the job checkpoints at its next boundary), or after it completed.
/// Every interleaving must end in a terminal typed status with the
/// checkpoint flag telling the truth about the retained snapshot — and
/// the scheduler thread must always join (no stuck wind-down).
#[test]
fn shutdown_during_run_is_exhaustively_clean() {
    let (grid, scan) = geometry(8, 6);
    let plan = PlanSpec::new(grid, scan);
    let s = sino(grid, scan, 8, 0);
    let report = explore(&Config::dfs().preemptions(1), move || {
        let runtime = JobRuntime::new(RuntimeConfig::default());
        let req = ReconRequest::cg(ReconInput::Slice(s.clone()), StopRule::Fixed(3));
        let id = runtime
            .submit(JobSpec::new("wind-down", plan, req))
            .unwrap();
        let mut results = runtime.shutdown(Shutdown::CheckpointAndStop);
        assert_eq!(results.len(), 1, "the job must not be lost");
        let r = results.pop().unwrap();
        assert_eq!(r.report.id, id);
        match r.outcome {
            Ok(resp) => {
                assert_eq!(resp.slice_records[0].len(), 3, "completed runs are whole");
            }
            Err(JobError::Stopped { checkpointed }) => {
                assert_eq!(
                    checkpointed,
                    r.checkpoint.is_some(),
                    "the stop must report exactly the snapshot it retained"
                );
            }
            other => panic!("expected Completed or Stopped, got {other:?}"),
        }
    });
    report.assert_clean();
}

/// A zero deadline armed together with the preempt drill: under the
/// virtual clock the job is never shed from the queue (strictly-greater
/// queue check), so it always reaches the in-run deadline latch — which
/// wins over the drill's checkpoint-and-requeue in every interleaving.
/// The result is always `TimedOut` with the snapshot retained.
#[test]
fn deadline_fires_during_preempt_drill_always_times_out() {
    let (grid, scan) = geometry(8, 6);
    let plan = PlanSpec::new(grid, scan);
    let s = sino(grid, scan, 8, 1);
    let report = explore(&Config::dfs().preemptions(1), move || {
        let runtime = JobRuntime::new(RuntimeConfig::default());
        let req = ReconRequest::cg(ReconInput::Slice(s.clone()), StopRule::Fixed(3));
        let id = runtime
            .submit(
                JobSpec::new("doomed", plan, req)
                    .preempt_at(1)
                    .deadline(Duration::ZERO),
            )
            .unwrap();
        let r = runtime.wait(id).expect("result");
        match r.outcome {
            Err(JobError::TimedOut {
                deadline,
                checkpointed,
            }) => {
                assert_eq!(deadline, Duration::ZERO);
                assert!(checkpointed, "the deadline stop retains its snapshot");
            }
            other => panic!("the deadline must win over the drill, got {other:?}"),
        }
        assert!(r.checkpoint.is_some(), "snapshot available for resume");
        drop(runtime);
    });
    report.assert_clean();
}

/// A deadline-stopped job whose request carries no policy hands its
/// private snapshot back as a [`memxct::CheckpointPolicy`]; resubmitting
/// the request with that policy resumes it to the bits of a run nobody
/// stopped, in every interleaving.
#[test]
fn a_deadline_stopped_job_resumes_through_its_returned_policy() {
    let (grid, scan) = geometry(8, 6);
    let plan = PlanSpec::new(grid, scan);
    let req = ReconRequest::cg(
        ReconInput::Slice(sino(grid, scan, 8, 1)),
        StopRule::Fixed(3),
    );
    let bits = |image: &[f32]| image.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let rec = memxct::ReconstructorBuilder::new(grid, scan)
        .build()
        .unwrap();
    let want = bits(&rec.run(&req).unwrap().images[0]);
    let report = explore(&Config::dfs().preemptions(0), move || {
        let runtime = JobRuntime::new(RuntimeConfig::default());
        let doomed = JobSpec::new("doomed", plan, req.clone()).deadline(Duration::ZERO);
        let r = runtime
            .wait(runtime.submit(doomed).unwrap())
            .expect("result");
        assert!(
            matches!(
                r.outcome,
                Err(JobError::TimedOut {
                    checkpointed: true,
                    ..
                })
            ),
            "the zero deadline stops the job at its first boundary: {:?}",
            r.outcome
        );
        let policy = r.checkpoint.expect("snapshot available for resume");
        assert!(policy.resume, "the returned policy resumes");
        let resumed = JobSpec::new("resumed", plan, req.clone().checkpoint(policy));
        let r = runtime
            .wait(runtime.submit(resumed).unwrap())
            .expect("result");
        let resp = r.outcome.expect("the resumed job completes");
        assert_eq!(bits(&resp.images[0]), want);
        assert_eq!(resp.slice_records[0].len(), 3, "all iterations accounted");
        drop(runtime);
    });
    report.assert_clean();
    assert!(report.complete, "resume tree must be fully explored");
}

fn breaker_race_body() {
    let (grid, scan) = geometry(8, 6);
    let plan = PlanSpec::new(grid, scan);
    let s0 = sino(grid, scan, 8, 0);
    let s1 = sino(grid, scan, 8, 1);
    let runtime = Arc::new(JobRuntime::new(RuntimeConfig {
        breaker: BreakerConfig {
            trip_after: 1,
            cooldown: Duration::from_secs(3600),
        },
        ..RuntimeConfig::default()
    }));
    let r2 = runtime.clone();
    let t = xct_model::thread::spawn(move || {
        // The seeded wrong claim: a concurrent submitter never observes
        // the breaker trip. The checker must find the interleaving where
        // the panic job's failure lands first and this submit is shed.
        let req = ReconRequest::cg(ReconInput::Slice(s1.clone()), StopRule::Fixed(2));
        r2.submit(JobSpec::new("concurrent", plan, req))
            .expect("seeded claim: breaker never observed open");
    });
    let req = ReconRequest::cg(ReconInput::Slice(s0.clone()), StopRule::Fixed(2));
    let id = runtime
        .submit(JobSpec::new("bang", plan, req).chaos_panic("trip"))
        .unwrap();
    let _ = runtime.wait(id);
    t.join().unwrap();
}

/// Breaker trip under a concurrent submission: with `trip_after: 1`, one
/// contained panic opens the breaker, and a concurrent submitter racing
/// that failure is shed in some interleavings. The checker must find the
/// shedding schedule, report the same `xm1-` trace ID on every run, and
/// the trace must replay to the same failure.
#[test]
fn breaker_trip_under_concurrent_submit_is_caught_deterministically() {
    let cfg = Config::dfs();
    let a = explore(&cfg, breaker_race_body);
    let f1 = a
        .failure
        .expect("the checker must catch the shed concurrent submit");
    println!("seeded breaker-trip race caught: {f1}");
    assert_eq!(f1.kind, FailureKind::Panic);
    assert!(
        f1.message.contains("breaker never observed open"),
        "the failure must name the seeded claim: {f1}"
    );
    assert!(f1.trace.as_str().starts_with("xm1-"));

    let b = explore(&cfg, breaker_race_body);
    let f2 = b.failure.expect("found again on the second run");
    assert_eq!(f1.trace, f2.trace, "trace IDs must be deterministic");
    assert_eq!(f1.schedule, f2.schedule);

    let r = replay(&f1.trace, &cfg, breaker_race_body);
    let fr = r.failure.expect("replay must reproduce the failure");
    assert_eq!(fr.kind, f1.kind);
}
