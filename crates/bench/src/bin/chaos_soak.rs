//! Seeded chaos soak for the supervised serving runtime.
//!
//! One `JobRuntime` is driven through a fleet of jobs that mixes every
//! supervised failure mode — contained panics, chaos-injected
//! crash/drop/delay communication faults with deterministic retry, and a
//! deadline overrun — and the harness then proves the acceptance
//! criteria of DESIGN.md "Supervised serving":
//!
//! - every job ends in a terminal **typed** status (no lost jobs),
//! - every waiter returns within its bound (no hung waiters),
//! - retried and resumed outputs are **bit-identical** to direct
//!   unfaulted runs (nondeterministic retry output fails the soak),
//! - the `job/*` / `breaker/*` metric families reconcile exactly with
//!   the result ledger,
//! - the breaker resets and the runtime serves new jobs afterward.
//!
//! Usage: `chaos_soak [seed]` (default seed 42). The seed feeds the
//! simulated sinograms and the retry jitter, so a given seed replays the
//! same soak.

use std::sync::Arc;
use std::time::Duration;

use memxct::{
    CheckpointPolicy, ExecMode, FaultTolerance, ReconInput, ReconRequest, ReconResponse,
    ReconstructorBuilder, StopRule,
};
use xct_geometry::{disk, simulate_sinogram, Grid, NoiseModel, ScanGeometry, Sinogram};
use xct_obs::{
    BREAKER_STATE, BREAKER_TRIPS, JOB_COMPLETED, JOB_FAILED, JOB_PANICS, JOB_RETRIES,
    JOB_SUBMITTED, JOB_TIMEOUTS,
};
use xct_runtime::{FaultKind, FaultPlan, MemoryCheckpointSink};
use xct_serve::{
    BreakerConfig, JobError, JobId, JobResult, JobRuntime, JobSpec, PlanSpec, RetryPolicy,
    RuntimeConfig,
};

/// Generous per-job waiter bound: a supervised job must reach a terminal
/// status well within this; hitting it means a hung waiter or lost job.
const WAIT_BOUND: Duration = Duration::from_secs(120);

fn geometry(n: u32, m: u32) -> (Grid, ScanGeometry) {
    (Grid::new(n), ScanGeometry::new(m, n))
}

fn sino(grid: Grid, scan: ScanGeometry, n: u32, seed: u64) -> Sinogram {
    let truth = disk(
        0.3 + 0.03 * (seed % 9) as f64,
        1.0 + 0.25 * (seed % 5) as f32,
    )
    .rasterize(n);
    simulate_sinogram(&truth, &grid, &scan, NoiseModel::None, seed)
}

fn bits(image: &[f32]) -> Vec<u32> {
    image.iter().map(|v| v.to_bits()).collect()
}

fn assert_bit_identical(label: &str, got: &ReconResponse, want: &ReconResponse) {
    assert_eq!(
        bits(&got.images[0]),
        bits(&want.images[0]),
        "{label}: output differs from the direct unfaulted run"
    );
}

/// Bounded wait that treats a missed bound as a soak failure.
fn must_finish(runtime: &JobRuntime, label: &str, id: JobId) -> JobResult {
    match runtime.wait_timeout(id, WAIT_BOUND) {
        Some(result) => result,
        None => panic!("{label} (job {id:?}): waiter hung or job lost"),
    }
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(42);
    println!("chaos-soak: seed {seed}");

    // The panic drills are contained by the runtime's catch_unwind, but
    // the default hook would still splat their backtraces into the CI
    // log; silence exactly those, keep everything else loud.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let drill = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("chaos panic drill"));
        if !drill {
            default_hook(info);
        }
    }));

    let (grid_s, scan_s) = geometry(16, 12);
    let (grid_d, scan_d) = geometry(24, 36);
    let plan_s = PlanSpec::new(grid_s, scan_s);
    let plan_d = PlanSpec::new(grid_d, scan_d);

    // Direct unfaulted golden runs for every bit-identity check.
    let direct_s = ReconstructorBuilder::new(grid_s, scan_s)
        .validate_plan(true)
        .build()
        .unwrap();
    let direct_d = ReconstructorBuilder::new(grid_d, scan_d)
        .validate_plan(true)
        .build()
        .unwrap();
    let serial_req =
        |s: Sinogram, iters| ReconRequest::cg(ReconInput::Slice(s), StopRule::Fixed(iters));
    let dist_req = |s: Sinogram, ft| {
        ReconRequest::cg(ReconInput::Slice(s), StopRule::Fixed(8))
            .mode(ExecMode::Distributed { ranks: 2, ft })
    };

    let runtime = JobRuntime::new(RuntimeConfig {
        breaker: BreakerConfig {
            trip_after: 2,
            cooldown: Duration::ZERO,
        },
        ..RuntimeConfig::default()
    });
    let mut submitted = 0u64;

    // Phase 1 — panic storm: two contained panics trip the breaker; the
    // zero cooldown means the next submission is the half-open probe,
    // whose success must reset the breaker.
    for i in 0..2 {
        let id = runtime
            .submit(
                JobSpec::new(
                    format!("panic{i}"),
                    plan_s,
                    serial_req(sino(grid_s, scan_s, 16, seed + i), 2),
                )
                .chaos_panic(format!("chaos panic drill {i}")),
            )
            .unwrap();
        submitted += 1;
        let r = must_finish(&runtime, "panic drill", id);
        assert!(
            matches!(r.outcome, Err(JobError::Panicked { .. })),
            "panic drill must end Panicked, got {:?}",
            r.outcome
        );
    }
    let probe_sino = sino(grid_s, scan_s, 16, seed + 2);
    let want_probe = direct_s.run(&serial_req(probe_sino.clone(), 4)).unwrap();
    let probe = runtime
        .submit(JobSpec::new("probe", plan_s, serial_req(probe_sino, 4)))
        .unwrap();
    submitted += 1;
    let r = must_finish(&runtime, "half-open probe", probe);
    assert_bit_identical("probe", &r.outcome.expect("probe completed"), &want_probe);
    println!("chaos-soak: breaker tripped by panic storm and reset by probe");

    // Phase 2 — mixed chaos fleet, submitted together.
    // Crash: rank 1 dies mid-solve, no inner restart budget; recovery is
    // the runtime's own seeded retry, resuming from the job checkpoint.
    let crash_sino = sino(grid_d, scan_d, 24, seed + 3);
    let want_crash = direct_d
        .run(&dist_req(crash_sino.clone(), FaultTolerance::disabled()))
        .unwrap();
    let crash_ft = FaultTolerance {
        faults: Arc::new(FaultPlan::new().with(1, 4, FaultKind::Crash)),
        max_restarts: 0,
        ..FaultTolerance::default()
    };
    let crash_req = dist_req(crash_sino, crash_ft).checkpoint(CheckpointPolicy::new(
        Arc::new(MemoryCheckpointSink::new()),
        1,
    ));
    let crash = runtime
        .submit(
            JobSpec::new("crash", plan_d, crash_req).retry(
                RetryPolicy::retries(2)
                    .base(Duration::from_millis(1))
                    .seed(seed),
            ),
        )
        .unwrap();
    submitted += 1;

    // Drop: the transport loses one delivery attempt; the communicator's
    // bounded resend recovers it transparently inside the attempt.
    let drop_sino = sino(grid_d, scan_d, 24, seed + 4);
    let want_drop = direct_d
        .run(&dist_req(drop_sino.clone(), FaultTolerance::disabled()))
        .unwrap();
    let drop_ft = FaultTolerance {
        faults: Arc::new(FaultPlan::new().with(1, 3, FaultKind::Drop { attempts: 1 })),
        ..FaultTolerance::default()
    };
    let dropped = runtime
        .submit(JobSpec::new("drop", plan_d, dist_req(drop_sino, drop_ft)))
        .unwrap();
    submitted += 1;

    // Delay: added delivery latency under the receive deadline is
    // invisible to the numerics.
    let delay_sino = sino(grid_d, scan_d, 24, seed + 5);
    let want_delay = direct_d
        .run(&dist_req(delay_sino.clone(), FaultTolerance::disabled()))
        .unwrap();
    let delay_ft = FaultTolerance {
        faults: Arc::new(FaultPlan::new().with(0, 2, FaultKind::Delay { micros: 200 })),
        ..FaultTolerance::default()
    };
    let delayed = runtime
        .submit(JobSpec::new(
            "delay",
            plan_d,
            dist_req(delay_sino, delay_ft),
        ))
        .unwrap();
    submitted += 1;

    // Deadline overrun: a zero budget over a pre-seeded snapshot (3 of 8
    // iterations) must end TimedOut with the snapshot retained.
    let tight_sino = sino(grid_s, scan_s, 16, seed + 6);
    let want_tight = direct_s.run(&serial_req(tight_sino.clone(), 8)).unwrap();
    let seed_sink = Arc::new(MemoryCheckpointSink::new());
    direct_s
        .run(
            &serial_req(tight_sino.clone(), 3)
                .checkpoint(CheckpointPolicy::new(seed_sink.clone(), 1)),
        )
        .unwrap();
    let tight_req = serial_req(tight_sino.clone(), 8)
        .checkpoint(CheckpointPolicy::new(seed_sink, 0).resume(true));
    let tight = runtime
        .submit(JobSpec::new("tight", plan_s, tight_req).deadline(Duration::ZERO))
        .unwrap();
    submitted += 1;

    // Plain jobs riding along, one at a higher priority.
    let plain_sino = sino(grid_s, scan_s, 16, seed + 7);
    let want_plain = direct_s.run(&serial_req(plain_sino.clone(), 5)).unwrap();
    let plain = runtime
        .submit(JobSpec::new("plain", plan_s, serial_req(plain_sino, 5)))
        .unwrap();
    submitted += 1;
    let vip_sino = sino(grid_s, scan_s, 16, seed + 8);
    let want_vip = direct_s.run(&serial_req(vip_sino.clone(), 5)).unwrap();
    let vip = runtime
        .submit(JobSpec::new("vip", plan_s, serial_req(vip_sino, 5)).priority(2))
        .unwrap();
    submitted += 1;

    // Drain the fleet within the waiter bound.
    let r_crash = must_finish(&runtime, "crash", crash);
    let crash_out = r_crash.outcome.expect("retry must recover the crash");
    assert_eq!(r_crash.report.retries, 1, "exactly one retry recovered it");
    assert_bit_identical("crash+retry", &crash_out, &want_crash);

    let r_drop = must_finish(&runtime, "drop", dropped);
    assert_bit_identical(
        "drop",
        &r_drop.outcome.expect("drop is transparent"),
        &want_drop,
    );
    assert_eq!(r_drop.report.retries, 0, "drop recovers inside the attempt");

    let r_delay = must_finish(&runtime, "delay", delayed);
    assert_bit_identical(
        "delay",
        &r_delay.outcome.expect("delay is transparent"),
        &want_delay,
    );

    let r_tight = must_finish(&runtime, "tight", tight);
    let retained = match r_tight.outcome {
        Err(JobError::TimedOut { checkpointed, .. }) => {
            assert!(checkpointed, "deadline stop must retain its snapshot");
            r_tight.checkpoint.expect("retained checkpoint")
        }
        other => panic!("tight job must time out, got {other:?}"),
    };

    let r_plain = must_finish(&runtime, "plain", plain);
    assert_bit_identical("plain", &r_plain.outcome.expect("completed"), &want_plain);
    let r_vip = must_finish(&runtime, "vip", vip);
    assert_bit_identical("vip", &r_vip.outcome.expect("completed"), &want_vip);
    println!(
        "chaos-soak: mixed fleet drained (crash retried, drop/delay transparent, deadline overran)"
    );

    // Phase 3 — the runtime still serves: resume the timed-out job from
    // its retained snapshot (bit-identical finish), then a final fresh
    // job.
    let resume = runtime
        .submit(JobSpec::new(
            "resume",
            plan_s,
            serial_req(tight_sino, 8).checkpoint(retained),
        ))
        .unwrap();
    submitted += 1;
    let r_resume = must_finish(&runtime, "resume", resume);
    assert_bit_identical(
        "deadline+resume",
        &r_resume.outcome.expect("resume completed"),
        &want_tight,
    );

    let final_sino = sino(grid_s, scan_s, 16, seed + 9);
    let want_final = direct_s.run(&serial_req(final_sino.clone(), 3)).unwrap();
    let fin = runtime
        .submit(JobSpec::new("final", plan_s, serial_req(final_sino, 3)))
        .unwrap();
    submitted += 1;
    let r_fin = must_finish(&runtime, "final", fin);
    assert_bit_identical("final", &r_fin.outcome.expect("completed"), &want_final);

    // Reconcile the metric families against the result ledger.
    let completed = 7u64; // probe, drop, delay, plain, vip, resume, final
    let completed_with_retry = 1u64; // crash
    let panicked = 2u64;
    let timed_out = 1u64;
    assert!(submitted >= 8, "soak must cover at least 8 jobs");
    let snap = runtime.metrics();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert_eq!(counter(JOB_SUBMITTED), submitted, "submitted reconciles");
    assert_eq!(
        counter(JOB_COMPLETED),
        completed + completed_with_retry,
        "completed reconciles"
    );
    assert_eq!(counter(JOB_FAILED), panicked, "failed reconciles");
    assert_eq!(counter(JOB_PANICS), panicked, "panics reconcile");
    assert_eq!(counter(JOB_TIMEOUTS), timed_out, "timeouts reconcile");
    assert_eq!(counter(JOB_RETRIES), 1, "retries reconcile");
    assert!(counter(BREAKER_TRIPS) >= 1, "the panic storm must trip");
    assert_eq!(
        snap.gauges.get(BREAKER_STATE).copied(),
        Some(0.0),
        "the breaker must be closed at the end"
    );

    let leftovers = runtime.finish();
    assert!(leftovers.is_empty(), "every result was claimed by a waiter");
    println!(
        "chaos-soak: OK — {submitted} jobs, {} completed, {panicked} panicked, \
         {timed_out} timed out, 1 retried, breaker reset",
        completed + completed_with_retry
    );
}
