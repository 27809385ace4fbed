//! Serving-layer tests: plan-cache correctness (hit bit-identity,
//! eviction bound, key discrimination), checkpoint-based preemption
//! bit-identity, admission control, and the supervision layer — panic
//! isolation, deadlines, deterministic retry, and the circuit breaker.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use memxct::preprocess::Kernel;
use memxct::{
    CheckpointPolicy, DomainOrdering, ExecMode, FaultTolerance, Projector, ReconInput,
    ReconRequest, ReconstructorBuilder, StopRule,
};
use xct_geometry::{disk, simulate_sinogram, Grid, NoiseModel, ScanGeometry, Sinogram};
use xct_obs::{
    BREAKER_STATE, BREAKER_TRIPS, CACHE_EVICT, CACHE_HIT, CACHE_MISS, JOB_COMPLETED, JOB_FAILED,
    JOB_PANICS, JOB_PREEMPTED, JOB_REJECTED, JOB_RESUMED, JOB_RETRIES, JOB_SHED, JOB_STOPPED,
    JOB_SUBMITTED, JOB_TIMEOUTS,
};
use xct_runtime::{CheckpointSink, FaultKind, FaultPlan, MemoryCheckpointSink, Snapshot};
use xct_serve::{
    BreakerConfig, JobError, JobId, JobRuntime, JobSpec, JobStatus, PlanSpec, RetryPolicy,
    RuntimeConfig, Shutdown, SubmitError,
};

fn geometry(n: u32, m: u32) -> (Grid, ScanGeometry) {
    (Grid::new(n), ScanGeometry::new(m, n))
}

fn sino(grid: Grid, scan: ScanGeometry, n: u32, seed: u64) -> Sinogram {
    let truth = disk(0.3 + 0.05 * seed as f64, 1.0 + 0.5 * seed as f32).rasterize(n);
    simulate_sinogram(&truth, &grid, &scan, NoiseModel::None, seed)
}

fn bits(image: &[f32]) -> Vec<u32> {
    image.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn cache_hit_is_bit_identical_to_fresh_build() {
    let (grid, scan) = geometry(16, 12);
    let s = sino(grid, scan, 16, 0);
    let request = ReconRequest::cg(ReconInput::Slice(s), StopRule::Fixed(6));

    let cache = xct_serve::PlanCache::new(2);
    let spec = PlanSpec::new(grid, scan);
    let (first, hit0) = cache.get_detailed(&spec).unwrap();
    let (second, hit1) = cache.get_detailed(&spec).unwrap();
    assert!(!hit0, "first lookup must build");
    assert!(hit1, "second lookup must hit");
    assert!(Arc::ptr_eq(&first, &second), "hit returns the same plan");

    // Output through the cached plan is bit-identical to a reconstructor
    // built directly from the same configuration.
    let fresh = ReconstructorBuilder::new(grid, scan)
        .validate_plan(true)
        .build()
        .unwrap();
    let got = second.run(&request).unwrap();
    let want = fresh.run(&request).unwrap();
    assert_eq!(bits(&got.images[0]), bits(&want.images[0]));

    let snap = cache.metrics();
    assert_eq!(snap.counters[CACHE_HIT], 1);
    assert_eq!(snap.counters[CACHE_MISS], 1);
    assert!(!snap.counters.contains_key(CACHE_EVICT));
}

#[test]
fn eviction_respects_the_capacity_bound() {
    let (grid_a, scan_a) = geometry(16, 12);
    let (grid_b, scan_b) = geometry(24, 12);
    let cache = xct_serve::PlanCache::new(1);
    let spec_a = PlanSpec::new(grid_a, scan_a);
    let spec_b = PlanSpec::new(grid_b, scan_b);

    cache.get(&spec_a).unwrap();
    assert!(cache.contains(&spec_a));
    cache.get(&spec_b).unwrap();
    assert_eq!(cache.len(), 1, "capacity 1 holds one plan");
    assert!(!cache.contains(&spec_a), "LRU evicted the older plan");
    assert!(cache.contains(&spec_b));

    // Re-requesting the evicted plan is a miss again.
    cache.get(&spec_a).unwrap();
    let snap = cache.metrics();
    assert_eq!(snap.counters[CACHE_MISS], 3);
    assert_eq!(snap.counters[CACHE_EVICT], 2);
    assert!(!snap.counters.contains_key(CACHE_HIT));
}

#[test]
fn a_miss_at_capacity_evicts_before_it_builds() {
    let (grid, scan) = geometry(16, 12);
    let cache = xct_serve::PlanCache::new(1);
    let good = PlanSpec::new(grid, scan);
    cache.get(&good).unwrap();
    // A build that fails: the LRU entry is already gone, so the cache
    // never held two plans, and the failure costs it.
    let mut bad = PlanSpec::new(grid, scan);
    bad.config.partsize = 0;
    assert!(cache.get(&bad).is_err());
    assert!(cache.is_empty(), "the victim went before the build");
    let snap = cache.metrics();
    assert_eq!(snap.counters[CACHE_EVICT], 1);
    assert_eq!(snap.counters[CACHE_MISS], 2);
}

#[test]
fn plan_key_distinguishes_kernel_partition_and_pool_configs() {
    let (grid, scan) = geometry(16, 12);
    let base = PlanSpec::new(grid, scan);
    assert_eq!(base.key(), PlanSpec::new(grid, scan).key());

    // Changing any one plan input splits the key, from a pooled base so
    // that the thread count counts too.
    let mut pooled = base;
    pooled.use_pool = true;
    pooled.pool_threads = Some(2);
    assert_ne!(base.key(), pooled.key(), "pool config splits the key");
    type Edit = fn(&mut PlanSpec);
    let edits: [(&str, Edit); 9] = [
        ("ordering", |s| s.config.ordering = DomainOrdering::RowMajor),
        ("projector", |s| s.config.projector = Projector::Joseph),
        ("partsize", |s| s.config.partsize = 64),
        ("buffsize", |s| s.config.buffsize = 4096),
        ("kernel serial", |s| s.config.kernel = Kernel::Serial),
        ("kernel ELL", |s| s.config.kernel = Kernel::Ell),
        ("use_pool", |s| s.use_pool = false),
        ("pool_threads", |s| s.pool_threads = Some(4)),
        ("batch", |s| s.batch = 4),
    ];
    let mut keys = HashSet::from([pooled.key()]);
    for (name, edit) in edits {
        let mut spec = pooled;
        edit(&mut spec);
        assert_ne!(pooled.key(), spec.key(), "{name} splits the key");
        assert!(keys.insert(spec.key()), "{name} collides with another edit");
    }

    // A thread-count hint without the pool is normalized away.
    let mut hint = base;
    hint.pool_threads = Some(8);
    assert_eq!(base.key(), hint.key());

    let mut kernel = base;
    kernel.config.kernel = Kernel::Serial;
    assert_ne!(base.key().fingerprint(), kernel.key().fingerprint());
}

/// One plan, one key: spelling the default kernel out hits the default
/// spec's entry instead of building the same plan a second time.
#[test]
fn explicit_default_kernel_hits_the_default_entry() {
    let (grid, scan) = geometry(16, 12);
    let cache = xct_serve::PlanCache::new(2);
    let default = PlanSpec::new(grid, scan);
    let mut explicit = default;
    explicit.config.kernel = Kernel::Buffered;
    let first = cache.get(&default).unwrap();
    let (second, hit) = cache.get_detailed(&explicit).unwrap();
    assert!(hit, "the explicit spelling hits");
    assert!(Arc::ptr_eq(&first, &second));
    let snap = cache.metrics();
    assert_eq!(snap.counters[CACHE_MISS], 1);
    assert_eq!(snap.timers["preprocess"].count, 1, "one build");
}

#[test]
fn preempted_job_resumes_bit_identically() {
    let (grid, scan) = geometry(16, 12);
    let s = sino(grid, scan, 16, 1);
    let request = ReconRequest::cg(ReconInput::Slice(s), StopRule::Fixed(8));
    let plan = PlanSpec::new(grid, scan);

    // Direct, uninterrupted run of the same request.
    let fresh = ReconstructorBuilder::new(grid, scan)
        .validate_plan(true)
        .build()
        .unwrap();
    let want = fresh.run(&request).unwrap();

    let runtime = JobRuntime::new(RuntimeConfig::default());
    let id = runtime
        .submit(JobSpec::new("drill", plan, request).preempt_at(3))
        .unwrap();
    let result = runtime.wait(id).expect("job result");
    let resp = result.outcome.expect("job completed");
    assert_eq!(result.report.preemptions, 1, "the drill preempted once");
    assert_eq!(
        bits(&resp.images[0]),
        bits(&want.images[0]),
        "preempt + resume must be bit-identical to an uninterrupted run"
    );
    assert_eq!(resp.slice_records[0].len(), 8, "all iterations ran");

    let snap = runtime.metrics();
    assert_eq!(snap.counters[JOB_PREEMPTED], 1);
    assert_eq!(snap.counters[JOB_RESUMED], 1);
    assert_eq!(snap.counters[JOB_COMPLETED], 1);
}

/// A served request's checkpoint policy is the job's: a preempted job
/// snapshots into the caller's sink at the request's cadence, resumes
/// from it, and leaves its snapshots there.
#[test]
fn a_served_request_checkpoints_through_its_own_policy() {
    let (grid, scan) = geometry(16, 12);
    let s = sino(grid, scan, 16, 1);
    let request = ReconRequest::cg(ReconInput::Slice(s), StopRule::Fixed(8));
    let want = ReconstructorBuilder::new(grid, scan)
        .build()
        .unwrap()
        .run(&request)
        .unwrap();

    let sink = Arc::new(MemoryCheckpointSink::new());
    let durable = request.checkpoint(CheckpointPolicy::new(sink.clone(), 2));
    let runtime = JobRuntime::new(RuntimeConfig::default());
    let id = runtime
        .submit(JobSpec::new("durable", PlanSpec::new(grid, scan), durable).preempt_at(3))
        .unwrap();
    let result = runtime.wait(id).expect("job result");
    assert_eq!(result.report.preemptions, 1, "the drill preempted once");
    let resp = result.outcome.expect("job completed");
    assert_eq!(bits(&resp.images[0]), bits(&want.images[0]));
    // The preemption snapshot (iteration 3) was resumed, and the
    // request's cadence of 2 saved the last boundary over it.
    let bytes = sink
        .load(0)
        .unwrap()
        .expect("the caller's sink holds the job's snapshots");
    assert_eq!(Snapshot::decode(&bytes).unwrap().iteration(), 8);
    assert_eq!(runtime.metrics().counters[JOB_RESUMED], 1);
}

/// An urgent arrival preempts whatever is running — a volume between or
/// inside its groups, a solve spread over ranks — through the same
/// checkpoint-and-requeue path as a single slice: one preemption, and the
/// resumed job ends on the bits of a run nobody interrupted.
#[test]
fn urgent_job_preempts_a_running_volume_and_a_running_ranks_job() {
    let (grid, scan) = geometry(24, 36);
    let slices: Vec<Sinogram> = (0..5).map(|j| sino(grid, scan, 24, j)).collect();
    let mut wide = PlanSpec::new(grid, scan);
    wide.batch = 2;
    // SIRT runs its whole budget, long enough for the urgent job to land.
    let jobs = [
        (
            "volume",
            wide,
            ReconRequest::sirt(ReconInput::Volume(slices.clone()), 3000),
        ),
        (
            "ranks",
            PlanSpec::new(grid, scan),
            ReconRequest::sirt(ReconInput::Slice(slices[0].clone()), 3000).mode(
                ExecMode::Distributed {
                    ranks: 2,
                    ft: FaultTolerance::disabled(),
                },
            ),
        ),
    ];
    for (name, plan, request) in jobs {
        let fresh = ReconstructorBuilder::new(grid, scan)
            .batch(plan.batch)
            .build()
            .unwrap();
        let want = fresh.run(&request).unwrap();

        let runtime = JobRuntime::new(RuntimeConfig::default());
        let low = runtime.submit(JobSpec::new(name, plan, request)).unwrap();
        while runtime.status(low) != Some(JobStatus::Running) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let urgent = ReconRequest::cg(ReconInput::Slice(slices[1].clone()), StopRule::Fixed(2));
        let urgent = runtime
            .submit(JobSpec::new("urgent", PlanSpec::new(grid, scan), urgent).priority(9))
            .unwrap();
        assert!(runtime.wait(urgent).expect("urgent result").outcome.is_ok());

        let result = runtime.wait(low).expect("low-priority result");
        assert_eq!(result.report.preemptions, 1, "{name}: preempted once");
        let resp = result.outcome.expect("the preempted job completed");
        assert_eq!(resp.images.len(), want.images.len(), "{name}");
        for (got, want) in resp.images.iter().zip(&want.images) {
            assert_eq!(bits(got), bits(want), "{name}: preempt + resume bits");
        }
        for (got, want) in resp.slice_records.iter().zip(&want.slice_records) {
            assert_eq!(got.len(), want.len(), "{name}: iterations");
        }
        assert_eq!(runtime.metrics().counters[JOB_PREEMPTED], 1, "{name}");
    }
}

#[test]
fn mixed_priority_jobs_all_complete_and_hit_the_cache() {
    let (grid, scan) = geometry(16, 12);
    let plan = PlanSpec::new(grid, scan);
    let runtime = JobRuntime::new(RuntimeConfig::default());
    let fresh = ReconstructorBuilder::new(grid, scan)
        .validate_plan(true)
        .build()
        .unwrap();

    let mut ids = Vec::new();
    let mut wants = Vec::new();
    for (j, priority) in [(0u64, 0u8), (1, 2), (2, 1)] {
        let request = ReconRequest::cg(
            ReconInput::Slice(sino(grid, scan, 16, j)),
            StopRule::Fixed(5),
        );
        wants.push(fresh.run(&request).unwrap());
        ids.push(
            runtime
                .submit(JobSpec::new(format!("job{j}"), plan, request).priority(priority))
                .unwrap(),
        );
    }
    for (id, want) in ids.iter().zip(&wants) {
        let result = runtime.wait(*id).expect("result");
        let resp = result.outcome.expect("completed");
        assert_eq!(bits(&resp.images[0]), bits(&want.images[0]));
    }
    let snap = runtime.metrics();
    assert_eq!(snap.counters[JOB_SUBMITTED], 3);
    assert_eq!(snap.counters[JOB_COMPLETED], 3);
    // One build, then every scheduling stint hits: preprocessing is
    // amortized across the fleet. A job caught mid-run by a
    // higher-priority arrival is requeued and pays one extra (hitting)
    // lookup per preemption, so account for those exactly rather than
    // racing the scheduler.
    assert_eq!(snap.counters[CACHE_MISS], 1);
    let preempted = snap.counters.get(JOB_PREEMPTED).copied().unwrap_or(0);
    assert_eq!(
        snap.counters[CACHE_HIT],
        2 + preempted,
        "each stint beyond the first build must hit the cache"
    );
}

#[test]
fn admission_control_bounds_queued_bytes() {
    let (grid, scan) = geometry(16, 12);
    let plan = PlanSpec::new(grid, scan);
    let runtime = JobRuntime::new(RuntimeConfig {
        max_queued_bytes: 0,
        ..RuntimeConfig::default()
    });
    let request = ReconRequest::cg(
        ReconInput::Slice(sino(grid, scan, 16, 0)),
        StopRule::Fixed(2),
    );
    let err = runtime
        .submit(JobSpec::new("too-big", plan, request))
        .unwrap_err();
    assert!(
        matches!(err, SubmitError::QueueFull { limit: 0, .. }),
        "{err}"
    );
    let snap = runtime.metrics();
    assert_eq!(snap.counters[JOB_REJECTED], 1);
    assert!(!snap.counters.contains_key(JOB_SUBMITTED));

    // Results after shutdown: nothing ran.
    assert!(runtime.finish().is_empty());
}

#[test]
fn panicked_job_wakes_waiters_and_runtime_keeps_serving() {
    let (grid, scan) = geometry(16, 12);
    let plan = PlanSpec::new(grid, scan);
    let runtime = JobRuntime::new(RuntimeConfig::default());
    let request = ReconRequest::cg(
        ReconInput::Slice(sino(grid, scan, 16, 0)),
        StopRule::Fixed(4),
    );

    // The regression: a waiter parked in `wait` on a job that dies by
    // panic must be woken with the typed error, not blocked forever.
    let id = runtime
        .submit(JobSpec::new("bang", plan, request.clone()).chaos_panic("chaos drill"))
        .unwrap();
    let result = std::thread::scope(|s| s.spawn(|| runtime.wait(id)).join().unwrap())
        .expect("the waiter must be woken with the panicked result");
    match &result.outcome {
        Err(JobError::Panicked { message }) => assert_eq!(message, "chaos drill"),
        other => panic!("expected a contained panic, got {other:?}"),
    }
    assert_eq!(runtime.status(id), Some(JobStatus::Failed));

    // The panic was contained to that job: the scheduler thread, the
    // plan cache, and the queue all keep serving.
    let id2 = runtime
        .submit(JobSpec::new("after", plan, request))
        .unwrap();
    let ok = runtime.wait(id2).expect("post-panic job result");
    assert!(ok.outcome.is_ok(), "runtime must serve after a panic");
    let snap = runtime.metrics();
    assert_eq!(snap.counters[JOB_PANICS], 1);
    assert_eq!(snap.counters[JOB_FAILED], 1);
    assert_eq!(snap.counters[JOB_COMPLETED], 1);
}

#[test]
fn retried_crash_job_is_bit_identical_to_an_unfaulted_run() {
    let (grid, scan) = geometry(24, 36);
    let plan = PlanSpec::new(grid, scan);
    let s = sino(grid, scan, 24, 2);

    // Unfaulted golden run of the same distributed request.
    let fresh = ReconstructorBuilder::new(grid, scan)
        .validate_plan(true)
        .build()
        .unwrap();
    let want = fresh
        .run(
            &ReconRequest::cg(ReconInput::Slice(s.clone()), StopRule::Fixed(8)).mode(
                ExecMode::Distributed {
                    ranks: 2,
                    ft: FaultTolerance::disabled(),
                },
            ),
        )
        .unwrap();

    // Chaos: rank 1 crashes mid-solve, no inner restart budget — the
    // attempt fails with a typed CommError. The crash latches once per
    // fault-plan instance, so the runtime's retry (sharing the Arc'd
    // plan) succeeds, resuming from the request's checkpoint when the
    // crashed attempt left one.
    let chaos = FaultTolerance {
        faults: Arc::new(FaultPlan::new().with(1, 4, FaultKind::Crash)),
        max_restarts: 0,
        ..FaultTolerance::default()
    };
    let request = ReconRequest::cg(ReconInput::Slice(s), StopRule::Fixed(8))
        .mode(ExecMode::Distributed {
            ranks: 2,
            ft: chaos,
        })
        .checkpoint(CheckpointPolicy::new(
            Arc::new(MemoryCheckpointSink::new()),
            1,
        ));
    let runtime = JobRuntime::new(RuntimeConfig::default());
    let id = runtime
        .submit(
            JobSpec::new("chaotic", plan, request)
                .retry(RetryPolicy::retries(2).base(Duration::ZERO)),
        )
        .unwrap();
    let result = runtime.wait(id).expect("result");
    let resp = result.outcome.expect("the retry must recover the crash");
    assert_eq!(result.report.retries, 1, "exactly one retry ran");
    assert_eq!(
        bits(&resp.images[0]),
        bits(&want.images[0]),
        "retried output must be bit-identical to an unfaulted run"
    );
    let snap = runtime.metrics();
    assert_eq!(snap.counters[JOB_RETRIES], 1);
    assert_eq!(snap.counters[JOB_COMPLETED], 1);
}

#[test]
fn retry_backoff_parks_and_abort_stops_without_checkpoints() {
    let (grid, scan) = geometry(24, 36);
    let plan = PlanSpec::new(grid, scan);
    let runtime = JobRuntime::new(RuntimeConfig::default());

    // Unknown ids resolve immediately, bounded or not.
    assert!(runtime.wait(JobId(99)).is_none());
    assert!(runtime.wait_timeout(JobId(99), Duration::ZERO).is_none());

    let chaos = FaultTolerance {
        faults: Arc::new(FaultPlan::new().with(1, 4, FaultKind::Crash)),
        max_restarts: 0,
        ..FaultTolerance::default()
    };
    let request = ReconRequest::cg(
        ReconInput::Slice(sino(grid, scan, 24, 0)),
        StopRule::Fixed(8),
    )
    .mode(ExecMode::Distributed {
        ranks: 2,
        ft: chaos,
    });
    // The first attempt crashes; the retry parks in a ~30s seeded
    // backoff. A bounded wait must give up while the job is non-terminal
    // (running or parked), leaving the result claimable.
    let id = runtime
        .submit(
            JobSpec::new("parked", plan, request)
                .retry(RetryPolicy::retries(3).base(Duration::from_secs(30))),
        )
        .unwrap();
    assert!(
        runtime
            .wait_timeout(id, Duration::from_millis(100))
            .is_none(),
        "a parked retry must not satisfy a bounded wait"
    );

    // Abort discards in-flight state: the parked job stops without
    // running its retry and without retaining a checkpoint.
    let mut results = runtime.shutdown(Shutdown::Abort);
    assert_eq!(results.len(), 1);
    let r = results.pop().unwrap();
    assert!(
        matches!(
            r.outcome,
            Err(JobError::Stopped {
                checkpointed: false
            })
        ),
        "expected an abort stop, got {:?}",
        r.outcome
    );
    assert!(r.checkpoint.is_none());
    assert_eq!(r.report.retries, 1, "the crash consumed one retry");
}

#[test]
fn deadline_overrun_retains_a_checkpoint_that_resumes_bit_identically() {
    let (grid, scan) = geometry(16, 12);
    let plan = PlanSpec::new(grid, scan);
    let s = sino(grid, scan, 16, 3);
    let request = ReconRequest::cg(ReconInput::Slice(s.clone()), StopRule::Fixed(8));

    let fresh = ReconstructorBuilder::new(grid, scan)
        .validate_plan(true)
        .build()
        .unwrap();
    let want = fresh.run(&request).unwrap();

    // Seed a mid-solve snapshot (3 of 8 iterations), then submit the
    // full job with a zero budget: whether it is shed from the queue or
    // stopped at its first in-run boundary, it must end TimedOut with
    // the snapshot retained.
    let sink = Arc::new(MemoryCheckpointSink::new());
    fresh
        .run(
            &ReconRequest::cg(ReconInput::Slice(s), StopRule::Fixed(3))
                .checkpoint(CheckpointPolicy::new(sink.clone(), 1)),
        )
        .unwrap();

    let runtime = JobRuntime::new(RuntimeConfig::default());
    let seeded = request
        .clone()
        .checkpoint(CheckpointPolicy::new(sink, 0).resume(true));
    let id = runtime
        .submit(JobSpec::new("tight", plan, seeded).deadline(Duration::ZERO))
        .unwrap();
    let result = runtime.wait(id).expect("result");
    match result.outcome {
        Err(JobError::TimedOut {
            deadline,
            checkpointed,
        }) => {
            assert_eq!(deadline, Duration::ZERO);
            assert!(checkpointed, "the deadline stop must retain the snapshot");
        }
        other => panic!("expected a deadline overrun, got {other:?}"),
    }
    assert_eq!(runtime.status(id), Some(JobStatus::TimedOut));

    // Resume from the retained checkpoint with no deadline: the output
    // is bit-identical to an uninterrupted run.
    let retained = result.checkpoint.expect("retained checkpoint");
    let id2 = runtime
        .submit(JobSpec::new("resume", plan, request.checkpoint(retained)))
        .unwrap();
    let resumed = runtime.wait(id2).expect("resumed result");
    let resp = resumed.outcome.expect("resumed job completed");
    assert_eq!(
        bits(&resp.images[0]),
        bits(&want.images[0]),
        "deadline + resume must be bit-identical to an uninterrupted run"
    );
    assert_eq!(resp.slice_records[0].len(), 8, "all iterations accounted");

    let snap = runtime.metrics();
    assert_eq!(snap.counters[JOB_TIMEOUTS], 1);
    assert!(snap.counters[JOB_RESUMED] >= 1);

    // Deadline-aware admission: a budget below the configured floor is
    // refused up front, before any queueing.
    let strict = JobRuntime::new(RuntimeConfig {
        min_deadline: Duration::from_secs(1),
        ..RuntimeConfig::default()
    });
    let err = strict
        .submit(
            JobSpec::new(
                "too-tight",
                plan,
                ReconRequest::cg(
                    ReconInput::Slice(sino(grid, scan, 16, 3)),
                    StopRule::Fixed(2),
                ),
            )
            .deadline(Duration::from_millis(10)),
        )
        .unwrap_err();
    assert!(matches!(err, SubmitError::DeadlineTooTight { .. }), "{err}");
}

#[test]
fn breaker_trips_sheds_and_recovers_via_half_open_probe() {
    let (grid, scan) = geometry(16, 12);
    let plan = PlanSpec::new(grid, scan);
    let req = || {
        ReconRequest::cg(
            ReconInput::Slice(sino(grid, scan, 16, 0)),
            StopRule::Fixed(2),
        )
    };

    // Long cooldown: after two consecutive contained panics the breaker
    // is open and submissions shed with the typed Degraded error.
    let runtime = JobRuntime::new(RuntimeConfig {
        breaker: BreakerConfig {
            trip_after: 2,
            cooldown: Duration::from_secs(3600),
        },
        ..RuntimeConfig::default()
    });
    for i in 0..2 {
        let id = runtime
            .submit(JobSpec::new(format!("bang{i}"), plan, req()).chaos_panic("boom"))
            .unwrap();
        runtime.wait(id).expect("panicked result");
    }
    let err = runtime
        .submit(JobSpec::new("shed", plan, req()))
        .unwrap_err();
    assert!(
        matches!(
            err,
            SubmitError::Degraded {
                consecutive_failures: 2
            }
        ),
        "{err}"
    );
    let snap = runtime.metrics();
    assert_eq!(snap.counters[JOB_SHED], 1);
    assert_eq!(snap.counters[BREAKER_TRIPS], 1);
    assert_eq!(snap.gauges[BREAKER_STATE], 1.0, "gauge reports open");
    assert!(!snap.counters.contains_key(JOB_STOPPED));
    drop(runtime);

    // Zero cooldown: the next submission is the half-open probe; its
    // success closes the breaker and the runtime serves normally again.
    let runtime = JobRuntime::new(RuntimeConfig {
        breaker: BreakerConfig {
            trip_after: 2,
            cooldown: Duration::ZERO,
        },
        ..RuntimeConfig::default()
    });
    for i in 0..2 {
        let id = runtime
            .submit(JobSpec::new(format!("bang{i}"), plan, req()).chaos_panic("boom"))
            .unwrap();
        runtime.wait(id).expect("panicked result");
    }
    let probe = runtime.submit(JobSpec::new("probe", plan, req())).unwrap();
    assert!(
        runtime.wait(probe).expect("probe result").outcome.is_ok(),
        "the half-open probe must be admitted and run"
    );
    let after = runtime.submit(JobSpec::new("after", plan, req())).unwrap();
    assert!(runtime
        .wait(after)
        .expect("post-probe result")
        .outcome
        .is_ok());
    let snap = runtime.metrics();
    assert_eq!(snap.gauges[BREAKER_STATE], 0.0, "probe success closed it");
    assert_eq!(snap.counters[JOB_COMPLETED], 2);
}
