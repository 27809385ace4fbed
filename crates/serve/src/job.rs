//! The job runtime: a multi-producer priority queue and a supervised
//! scheduler thread draining it through the plan cache, with
//! checkpoint-based preemption.
//!
//! Scheduling policy: highest priority first, FIFO within a priority.
//! When a job with strictly higher priority is submitted while a
//! lower-priority job is running, the runtime requests preemption — the
//! running solve snapshots into the job's checkpoint policy (its
//! request's, or a private in-memory one) at its next iteration boundary
//! and goes back to the queue; when it is scheduled again it resumes
//! from that snapshot, and its final output is bit-identical to an
//! uninterrupted run (the PR 5 checkpoint guarantee). Admission control
//! rejects submissions once the queued measurement bytes would exceed
//! the configured bound.
//!
//! Supervision (see DESIGN.md "Supervised serving"):
//!
//! - **Panic isolation** — job execution runs under `catch_unwind`; a
//!   panicking plan build or solve becomes [`JobError::Panicked`] on
//!   that job alone, its waiters are woken, and the scheduler, the
//!   [`PlanCache`], and every other job keep serving.
//! - **Deadlines** — [`JobSpec::deadline`] arms a per-job budget
//!   measured from submission on the `xct-model` clock facade (wall
//!   clock in production, virtual time under a model schedule). The
//!   running solve is stopped through the same [`RunControl`]
//!   cooperative-preemption path and reported [`JobStatus::TimedOut`]
//!   with its last checkpoint retained for resume; a queued job whose
//!   deadline lapses is shed without running.
//! - **Deterministic retry** — transient communication failures
//!   (the chaos-injectable crash/drop/delay class) are retried up to
//!   [`RetryPolicy::max_retries`] times with seeded exponential
//!   backoff, resuming from the job's checkpoint when one exists, so a
//!   retried job's output is bit-identical to an unfaulted run.
//! - **Graceful degradation** — a [`Breaker`](crate::Breaker) sheds
//!   submissions with [`SubmitError::Degraded`] after K consecutive
//!   failures (half-open probe after a cooldown), and
//!   [`JobRuntime::shutdown`] offers
//!   [`Drain`](Shutdown::Drain) / [`CheckpointAndStop`](Shutdown::CheckpointAndStop) /
//!   [`Abort`](Shutdown::Abort) wind-down modes.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use xct_model::sync::{Arc, Condvar, Mutex};
use xct_model::thread;
use xct_model::time::Instant;

use memxct::{CheckpointPolicy, ReconError, ReconRequest, ReconResponse, RunControl, RunOutcome};
use xct_obs::{
    Metrics, MetricsSnapshot, BREAKER_STATE, BREAKER_TRIPS, JOB_COMPLETED, JOB_FAILED, JOB_PANICS,
    JOB_PREEMPTED, JOB_QUEUE_SECONDS, JOB_REJECTED, JOB_RESUMED, JOB_RETRIES, JOB_RUN_SECONDS,
    JOB_SHED, JOB_STOPPED, JOB_SUBMITTED, JOB_TIMEOUTS,
};
use xct_runtime::MemoryCheckpointSink;

use crate::cache::{PlanCache, PlanSpec};
use crate::supervise::{is_retryable, Breaker, BreakerConfig, RetryPolicy, Shutdown};

/// Poll interval for waiter loops: the upper bound on how long a waiter
/// can stay parked before re-checking that the scheduler thread is still
/// alive (the dead-worker safety net). Virtual — and therefore free —
/// under a model schedule.
const WAITER_POLL: Duration = Duration::from_millis(50);

/// Why a job ended without a response.
#[derive(Debug)]
pub enum JobError {
    /// The reconstruction itself failed (the request-level error of
    /// [`memxct::Reconstructor::run`], which also covers plan build
    /// failures surfaced by the cache). Exhausted retries land here with
    /// the final attempt's error.
    Recon(ReconError),
    /// The plan build or solve panicked; the panic was contained to this
    /// job and the runtime kept serving.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The job's deadline lapsed; it was stopped at an iteration
    /// boundary (or shed from the queue before running).
    TimedOut {
        /// The budget the job was submitted with.
        deadline: Duration,
        /// Whether a checkpoint snapshot is retained in
        /// [`JobResult::checkpoint`] for a later resume.
        checkpointed: bool,
    },
    /// The runtime was shut down in a non-drain mode before the job
    /// finished.
    Stopped {
        /// Whether a checkpoint snapshot is retained in
        /// [`JobResult::checkpoint`] for a later resume
        /// ([`Shutdown::CheckpointAndStop`] only).
        checkpointed: bool,
    },
}

impl From<ReconError> for JobError {
    fn from(e: ReconError) -> Self {
        JobError::Recon(e)
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Recon(e) => write!(f, "{e}"),
            JobError::Panicked { message } => write!(f, "job panicked: {message}"),
            JobError::TimedOut {
                deadline,
                checkpointed,
            } => write!(
                f,
                "deadline of {:.3}s exceeded ({})",
                deadline.as_secs_f64(),
                if *checkpointed {
                    "checkpoint retained"
                } else {
                    "no checkpoint"
                }
            ),
            JobError::Stopped { checkpointed } => write!(
                f,
                "stopped by runtime shutdown ({})",
                if *checkpointed {
                    "checkpoint retained"
                } else {
                    "no checkpoint"
                }
            ),
        }
    }
}

impl std::error::Error for JobError {}

/// Handle to a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(
    /// Monotonic submission number (also the tiebreaker within a
    /// priority level).
    pub u64,
);

/// One unit of work for the runtime: which plan to solve on, the request
/// itself, and how urgently — plus its supervision envelope (deadline,
/// retry policy). Durability is the request's.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable label carried into the report.
    pub name: String,
    /// Plan the job solves on (cache key).
    pub plan: PlanSpec,
    /// The reconstruction request. Its checkpoint policy is the job's
    /// preemption and retry substrate: its sink, cadence and resume flag
    /// as given, and later attempts resume from the sink. Without one the
    /// job snapshots into a private in-memory sink, only on preemption.
    pub request: ReconRequest,
    /// Scheduling priority (higher runs first; a strictly higher arrival
    /// preempts the running job).
    pub priority: u8,
    /// Per-job budget measured from submission (wall clock in
    /// production, virtual time under a model schedule). Enforced at
    /// iteration boundaries; `None` means no deadline. A run that
    /// completes at the same boundary its deadline fires counts as
    /// completed.
    pub deadline: Option<Duration>,
    /// Retry policy for transient communication failures; `None` fails
    /// fast.
    pub retry: Option<RetryPolicy>,
    /// Deterministic self-preemption drill: checkpoint and yield at this
    /// iteration boundary on the first attempt (used by the serve-smoke
    /// CI job to exercise preempt/resume without timing races).
    pub preempt_at: Option<usize>,
    /// Fault-injection drill: panic with this message instead of
    /// solving (exercises the supervision layer's panic isolation).
    pub chaos_panic: Option<String>,
}

impl JobSpec {
    /// A priority-0 job with no deadline, no retries, and no drills.
    pub fn new(name: impl Into<String>, plan: PlanSpec, request: ReconRequest) -> Self {
        JobSpec {
            name: name.into(),
            plan,
            request,
            priority: 0,
            deadline: None,
            retry: None,
            preempt_at: None,
            chaos_panic: None,
        }
    }

    /// Set the scheduling priority.
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Arm a per-job deadline (measured from submission).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attach a retry policy for transient communication failures.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Arm the deterministic self-preemption drill.
    pub fn preempt_at(mut self, boundary: usize) -> Self {
        self.preempt_at = Some(boundary);
        self
    }

    /// Arm the panic drill: the job panics instead of solving.
    pub fn chaos_panic(mut self, message: impl Into<String>) -> Self {
        self.chaos_panic = Some(message.into());
        self
    }
}

/// Where a job currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the queue (first time, after a preemption, or in a
    /// retry backoff).
    Queued,
    /// Currently solving.
    Running,
    /// Finished successfully; the result is available.
    Completed,
    /// Finished with an error (including a contained panic); the result
    /// carries it.
    Failed,
    /// Its deadline lapsed; the result carries the retained checkpoint
    /// when one exists.
    TimedOut,
    /// Ended by a non-drain shutdown before completing.
    Stopped,
}

impl JobStatus {
    /// Whether the job can no longer change state.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission control: accepting the job would push the queued
    /// measurement bytes past the bound.
    QueueFull {
        /// Bytes already queued.
        queued_bytes: usize,
        /// Bytes the rejected job carries.
        incoming_bytes: usize,
        /// The configured bound.
        limit: usize,
    },
    /// Deadline-aware admission: the requested deadline is below the
    /// runtime's configured floor — too tight to plausibly serve.
    DeadlineTooTight {
        /// The rejected deadline.
        deadline: Duration,
        /// The configured minimum.
        min_deadline: Duration,
    },
    /// The circuit breaker is open after consecutive job failures; the
    /// runtime is shedding load until its cooldown admits a probe.
    Degraded {
        /// The failure streak that tripped the breaker.
        consecutive_failures: u32,
    },
    /// The runtime is shutting down and no longer accepts jobs.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull {
                queued_bytes,
                incoming_bytes,
                limit,
            } => write!(
                f,
                "queue full: {queued_bytes} bytes queued + {incoming_bytes} incoming \
                 exceeds the {limit}-byte admission bound"
            ),
            SubmitError::DeadlineTooTight {
                deadline,
                min_deadline,
            } => write!(
                f,
                "deadline {:.3}s is below the {:.3}s admission floor",
                deadline.as_secs_f64(),
                min_deadline.as_secs_f64()
            ),
            SubmitError::Degraded {
                consecutive_failures,
            } => write!(
                f,
                "degraded: circuit breaker open after {consecutive_failures} consecutive \
                 job failures"
            ),
            SubmitError::ShuttingDown => write!(f, "runtime is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Accounting for one finished job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The job's handle.
    pub id: JobId,
    /// Label from the spec.
    pub name: String,
    /// Scheduling priority.
    pub priority: u8,
    /// Stable digest of the plan key the job solved on.
    pub plan_fingerprint: u64,
    /// Whether the first attempt found its plan already cached (no
    /// preprocessing ran for this job).
    pub cache_hit: bool,
    /// Seconds spent queued, across all stints (including retry
    /// backoff).
    pub queue_seconds: f64,
    /// Seconds spent solving, across all attempts.
    pub run_seconds: f64,
    /// Preprocessing seconds this job actually paid (zero on a cache
    /// hit — the amortization the serving layer exists for).
    pub preprocess_seconds: f64,
    /// How many times the job was preempted.
    pub preemptions: usize,
    /// How many retry attempts ran after the first (transient-failure
    /// recovery only).
    pub retries: u32,
    /// Total solver iterations across all slices (completed jobs only).
    pub iterations: usize,
}

/// A finished job: its report plus the response or error.
#[derive(Debug)]
pub struct JobResult {
    /// Accounting.
    pub report: JobReport,
    /// The reconstruction output, or why it failed.
    pub outcome: Result<ReconResponse, JobError>,
    /// The job's checkpoint policy with `resume` set, when its terminal
    /// state kept a snapshot ([`JobStatus::TimedOut`], or
    /// [`JobStatus::Stopped`] under [`Shutdown::CheckpointAndStop`]).
    /// Resubmit with `request.checkpoint(policy)` to continue the solve
    /// bit-identically.
    pub checkpoint: Option<CheckpointPolicy>,
}

/// Runtime sizing and supervision knobs.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Plan-cache capacity (built reconstructors kept alive).
    pub cache_capacity: usize,
    /// Admission-control bound on queued measurement bytes.
    pub max_queued_bytes: usize,
    /// Deadline-aware admission floor: a submission whose deadline is
    /// below this is refused up front (zero accepts any deadline).
    pub min_deadline: Duration,
    /// Circuit-breaker policy (default: disabled).
    pub breaker: BreakerConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            cache_capacity: 8,
            max_queued_bytes: 256 << 20,
            min_deadline: Duration::ZERO,
            breaker: BreakerConfig::default(),
        }
    }
}

struct QueuedJob {
    id: JobId,
    seq: u64,
    spec: JobSpec,
    bytes: usize,
    enqueued: Instant,
    /// Retry backoff: not schedulable until `since.elapsed() >= delay`.
    delay: Option<(Instant, Duration)>,
    /// Absolute deadline: lapses when `since.elapsed() >= budget`.
    deadline: Option<(Instant, Duration)>,
    queue_seconds: f64,
    run_seconds: f64,
    preemptions: usize,
    retries: u32,
    cache_hit: Option<bool>,
}

impl QueuedJob {
    fn delay_remaining(&self) -> Duration {
        match self.delay {
            Some((since, delay)) => delay.saturating_sub(since.elapsed()),
            None => Duration::ZERO,
        }
    }

    /// Strictly greater: a zero-budget job still gets scheduled once and
    /// is timed out by the in-run check at its first iteration boundary
    /// (which is also what keeps the zero-deadline path reachable under
    /// the model's virtual clock).
    fn deadline_lapsed(&self) -> bool {
        self.deadline
            .is_some_and(|(since, budget)| since.elapsed() > budget)
    }

    /// Whether the job's sink holds slot 0, i.e. has a snapshot to resume
    /// from.
    fn resumable(&self) -> bool {
        let policy = self.spec.request.checkpoint.as_ref();
        policy.is_some_and(|p| matches!(p.sink.load(0), Ok(Some(_))))
    }

    /// Make every later attempt resume from the job's sink.
    fn resume(&mut self) {
        if let Some(policy) = &mut self.spec.request.checkpoint {
            policy.resume = true;
        }
    }
}

struct Running {
    priority: u8,
    ctrl: Arc<RunControl>,
}

struct State {
    queue: Vec<QueuedJob>,
    queued_bytes: usize,
    running: Option<Running>,
    statuses: HashMap<u64, JobStatus>,
    results: HashMap<u64, JobResult>,
    next_seq: u64,
    shutdown: Option<Shutdown>,
}

struct Shared {
    state: Mutex<State>,
    /// Wakes the scheduler (new job, shutdown).
    work_cv: Condvar,
    /// Wakes waiters (job finished).
    done_cv: Condvar,
    /// Never acquired while `state` is held (and vice versa): the
    /// breaker is consulted before, and updated after, state sections.
    breaker: Mutex<Breaker>,
    cache: PlanCache,
    metrics: Metrics,
    max_queued_bytes: usize,
    min_deadline: Duration,
}

/// The serving runtime: a plan cache plus one supervised scheduler
/// thread draining a priority queue of [`JobSpec`]s. Submissions are
/// thread-safe; the scheduler runs one job at a time (the worker pool
/// parallelizes within a solve), preempts it when a strictly higher
/// priority arrives, and supervises every job for panics, deadline
/// overruns, and retryable transient failures.
pub struct JobRuntime {
    shared: Arc<Shared>,
    worker: Option<thread::JoinHandle<()>>,
}

impl JobRuntime {
    /// A runtime recording into a fresh collecting metrics registry.
    pub fn new(config: RuntimeConfig) -> Self {
        JobRuntime::with_metrics(config, Metrics::collecting())
    }

    /// A runtime recording into a shared metrics registry. The plan
    /// cache and every cached reconstructor share the same handle, so
    /// one snapshot covers `cache/*`, `job/*`, `breaker/*`, and the
    /// kernel/solver families.
    pub fn with_metrics(config: RuntimeConfig, metrics: Metrics) -> Self {
        metrics.gauge_set(BREAKER_STATE, 0.0);
        let shared = Arc::new(Shared {
            state: Mutex::named(
                "serve/job/state",
                State {
                    queue: Vec::new(),
                    queued_bytes: 0,
                    running: None,
                    statuses: HashMap::new(),
                    results: HashMap::new(),
                    next_seq: 0,
                    shutdown: None,
                },
            ),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            breaker: Mutex::named("serve/job/breaker", Breaker::new(config.breaker)),
            cache: PlanCache::with_metrics(config.cache_capacity, metrics.clone()),
            metrics,
            max_queued_bytes: config.max_queued_bytes,
            min_deadline: config.min_deadline,
        });
        let worker_shared = shared.clone();
        let worker = thread::spawn(move || scheduler_loop(&worker_shared));
        JobRuntime {
            shared,
            worker: Some(worker),
        }
    }

    /// Queue a job. Returns its handle, or a [`SubmitError`] when
    /// admission control, the circuit breaker, or shutdown refuses it. A
    /// submission with strictly higher priority than the running job
    /// asks it to preempt at its next iteration boundary.
    pub fn submit(&self, mut spec: JobSpec) -> Result<JobId, SubmitError> {
        {
            let st = self.shared.state.lock();
            if st.shutdown.is_some() {
                return Err(SubmitError::ShuttingDown);
            }
        }
        if let Some(deadline) = spec.deadline {
            if deadline < self.shared.min_deadline {
                self.shared.metrics.counter_add(JOB_REJECTED, 1);
                return Err(SubmitError::DeadlineTooTight {
                    deadline,
                    min_deadline: self.shared.min_deadline,
                });
            }
        }
        {
            let mut breaker = self.shared.breaker.lock();
            let admitted = breaker.admit();
            self.shared
                .metrics
                .gauge_set(BREAKER_STATE, breaker.state().gauge());
            if let Err(consecutive_failures) = admitted {
                self.shared.metrics.counter_add(JOB_SHED, 1);
                return Err(SubmitError::Degraded {
                    consecutive_failures,
                });
            }
        }
        let bytes = spec.request.input.data_bytes();
        let mut st = self.shared.state.lock();
        if st.shutdown.is_some() {
            return Err(SubmitError::ShuttingDown);
        }
        if st.queued_bytes + bytes > self.shared.max_queued_bytes {
            self.shared.metrics.counter_add(JOB_REJECTED, 1);
            return Err(SubmitError::QueueFull {
                queued_bytes: st.queued_bytes,
                incoming_bytes: bytes,
                limit: self.shared.max_queued_bytes,
            });
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        let id = JobId(seq);
        if let Some(running) = &st.running {
            if spec.priority > running.priority {
                running.ctrl.request_preempt();
            }
        }
        let now = Instant::now();
        // A request without a policy snapshots privately, on preemption
        // only.
        spec.request
            .checkpoint
            .get_or_insert_with(|| CheckpointPolicy::new(Arc::new(MemoryCheckpointSink::new()), 0));
        st.queued_bytes += bytes;
        st.statuses.insert(id.0, JobStatus::Queued);
        st.queue.push(QueuedJob {
            id,
            seq,
            deadline: spec.deadline.map(|budget| (now, budget)),
            spec,
            bytes,
            enqueued: now,
            delay: None,
            queue_seconds: 0.0,
            run_seconds: 0.0,
            preemptions: 0,
            retries: 0,
            cache_hit: None,
        });
        self.shared.metrics.counter_add(JOB_SUBMITTED, 1);
        self.shared.work_cv.notify_all();
        Ok(id)
    }

    /// Where the job currently is (`None` for an unknown id, including
    /// ids whose result was already taken by [`wait`](Self::wait)).
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let st = self.shared.state.lock();
        st.statuses.get(&id.0).copied()
    }

    /// Block until the job finishes, then take its result. `None` for an
    /// unknown id, a result already taken, or a job orphaned by a dead
    /// scheduler thread (the waiter re-checks scheduler liveness instead
    /// of blocking forever).
    pub fn wait(&self, id: JobId) -> Option<JobResult> {
        let mut st = self.shared.state.lock();
        loop {
            if let Some(result) = st.results.remove(&id.0) {
                return Some(result);
            }
            match st.statuses.get(&id.0) {
                Some(s) if !s.is_terminal() => {
                    if self.worker_dead() {
                        return None;
                    }
                    st = self.shared.done_cv.wait_timeout(st, WAITER_POLL).0;
                }
                _ => return None,
            }
        }
    }

    /// [`wait`](Self::wait) with a bound: `None` when the job has not
    /// reached a terminal state within `timeout` (its result stays
    /// claimable), for an unknown id, or for an orphaned job.
    pub fn wait_timeout(&self, id: JobId, timeout: Duration) -> Option<JobResult> {
        let start = Instant::now();
        let mut st = self.shared.state.lock();
        loop {
            if let Some(result) = st.results.remove(&id.0) {
                return Some(result);
            }
            match st.statuses.get(&id.0) {
                Some(s) if !s.is_terminal() => {
                    let remaining = timeout.saturating_sub(start.elapsed());
                    if remaining.is_zero() || self.worker_dead() {
                        return None;
                    }
                    st = self
                        .shared
                        .done_cv
                        .wait_timeout(st, remaining.min(WAITER_POLL))
                        .0;
                }
                _ => return None,
            }
        }
    }

    /// Whether the scheduler thread is gone (shutdown already joined it,
    /// or it died). Non-terminal jobs can then never finish.
    fn worker_dead(&self) -> bool {
        match &self.worker {
            Some(worker) => worker.is_finished(),
            None => true,
        }
    }

    /// The plan cache backing this runtime.
    pub fn cache(&self) -> &PlanCache {
        &self.shared.cache
    }

    /// The shared metrics handle.
    pub fn metrics_handle(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// Snapshot of everything recorded so far (`cache/*`, `job/*`,
    /// `breaker/*`, and the kernel/solver families of every cached
    /// reconstructor).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Stop accepting jobs, drain the queue (running and queued jobs all
    /// finish), and return every untaken result sorted by job id.
    /// Equivalent to [`shutdown`](Self::shutdown) with
    /// [`Shutdown::Drain`].
    pub fn finish(self) -> Vec<JobResult> {
        self.shutdown(Shutdown::Drain)
    }

    /// Wind the runtime down in the given [`Shutdown`] mode and return
    /// every untaken result sorted by job id. Non-drain modes stop the
    /// running job at its next iteration boundary and report unfinished
    /// jobs as [`JobStatus::Stopped`];
    /// [`CheckpointAndStop`](Shutdown::CheckpointAndStop) retains their
    /// checkpoints in [`JobResult::checkpoint`] for later resume, while
    /// [`Abort`](Shutdown::Abort) discards all in-flight state.
    pub fn shutdown(mut self, mode: Shutdown) -> Vec<JobResult> {
        self.begin_shutdown(mode);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
        let mut st = self.shared.state.lock();
        let mut results: Vec<JobResult> = st.results.drain().map(|(_, r)| r).collect();
        results.sort_by_key(|r| r.report.id);
        results
    }

    fn begin_shutdown(&self, mode: Shutdown) {
        let mut st = self.shared.state.lock();
        if st.shutdown.is_none() {
            st.shutdown = Some(mode);
        }
        if mode != Shutdown::Drain {
            if let Some(running) = &st.running {
                running.ctrl.request_preempt();
            }
        }
        self.shared.work_cv.notify_all();
    }
}

impl Drop for JobRuntime {
    fn drop(&mut self) {
        self.begin_shutdown(Shutdown::Drain);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// Index of the next runnable job: highest priority, then lowest
/// sequence number (FIFO within a priority level). Jobs parked in a
/// retry backoff are not runnable yet.
fn pick_index(queue: &[QueuedJob]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, job) in queue.iter().enumerate() {
        if !job.delay_remaining().is_zero() {
            continue;
        }
        best = Some(match best {
            None => i,
            Some(b) => {
                let cur = &queue[b];
                let better = job.spec.priority > cur.spec.priority
                    || (job.spec.priority == cur.spec.priority && job.seq < cur.seq);
                if better {
                    i
                } else {
                    b
                }
            }
        });
    }
    best
}

/// Lowest-sequence queued job whose deadline has already lapsed (shed
/// before wasting a solve on it).
fn expired_index(queue: &[QueuedJob]) -> Option<usize> {
    queue
        .iter()
        .enumerate()
        .filter(|(_, j)| j.deadline_lapsed())
        .min_by_key(|(_, j)| j.seq)
        .map(|(i, _)| i)
}

/// What the scheduler decided to do next, chosen under the state lock
/// and executed outside it.
enum Action {
    Run(QueuedJob),
    /// Deadline lapsed while queued; finish as timed out without
    /// running.
    Shed(QueuedJob),
    /// Non-drain shutdown: everything still queued stops without
    /// running.
    StopAll(Vec<QueuedJob>, Shutdown),
    Exit,
}

fn next_action(shared: &Shared) -> Action {
    let mut st = shared.state.lock();
    loop {
        if let Some(mode) = st.shutdown {
            if mode != Shutdown::Drain {
                let stopped: Vec<QueuedJob> = st.queue.drain(..).collect();
                let bytes: usize = stopped.iter().map(|j| j.bytes).sum();
                st.queued_bytes = st.queued_bytes.saturating_sub(bytes);
                return Action::StopAll(stopped, mode);
            }
        }
        if let Some(i) = expired_index(&st.queue) {
            let job = st.queue.remove(i);
            st.queued_bytes = st.queued_bytes.saturating_sub(job.bytes);
            return Action::Shed(job);
        }
        if let Some(i) = pick_index(&st.queue) {
            let job = st.queue.remove(i);
            st.queued_bytes = st.queued_bytes.saturating_sub(job.bytes);
            return Action::Run(job);
        }
        if st.queue.is_empty() {
            if st.shutdown.is_some() {
                return Action::Exit;
            }
            st = shared.work_cv.wait(st);
        } else {
            // Only backoff-parked jobs remain: sleep until the earliest
            // becomes runnable (or a submission/shutdown wakes us).
            let earliest = st
                .queue
                .iter()
                .map(QueuedJob::delay_remaining)
                .min()
                .unwrap_or(Duration::ZERO);
            st = shared
                .work_cv
                .wait_timeout(st, earliest.max(Duration::from_nanos(1)))
                .0;
        }
    }
}

fn scheduler_loop(shared: &Shared) {
    loop {
        match next_action(shared) {
            Action::Exit => return,
            Action::StopAll(jobs, mode) => {
                for mut job in jobs {
                    job.queue_seconds += job.enqueued.elapsed().as_secs_f64();
                    let checkpointed = mode == Shutdown::CheckpointAndStop && job.resumable();
                    finish_job(
                        shared,
                        job,
                        Err(JobError::Stopped { checkpointed }),
                        checkpointed,
                    );
                }
                return;
            }
            Action::Shed(mut job) => {
                job.queue_seconds += job.enqueued.elapsed().as_secs_f64();
                let deadline = job.deadline.map(|(_, d)| d).unwrap_or_default();
                let checkpointed = job.resumable();
                finish_job(
                    shared,
                    job,
                    Err(JobError::TimedOut {
                        deadline,
                        checkpointed,
                    }),
                    checkpointed,
                );
            }
            Action::Run(job) => run_job(shared, job),
        }
    }
}

fn run_job(shared: &Shared, mut job: QueuedJob) {
    job.queue_seconds += job.enqueued.elapsed().as_secs_f64();
    let ctrl = Arc::new(RunControl::new());
    if job.preemptions == 0 && job.retries == 0 {
        if let Some(boundary) = job.spec.preempt_at {
            ctrl.preempt_at(boundary);
        }
    }
    if let Some((since, budget)) = job.deadline {
        ctrl.set_deadline_check(move || since.elapsed() >= budget);
    }
    {
        let mut st = shared.state.lock();
        st.statuses.insert(job.id.0, JobStatus::Running);
        st.running = Some(Running {
            priority: job.spec.priority,
            ctrl: ctrl.clone(),
        });
    }
    let policy = job.spec.request.checkpoint.as_ref();
    if policy.is_some_and(|p| p.resume) && job.resumable() {
        shared.metrics.counter_add(JOB_RESUMED, 1);
    }

    // Plan build under panic isolation: a panicking preprocessor fails
    // this job alone (the facade cache lock recovers from poisoning).
    let built = catch_unwind(AssertUnwindSafe(|| {
        shared.cache.get_detailed(&job.spec.plan)
    }));
    let (rec, hit) = match built {
        Err(payload) => {
            finish_job(
                shared,
                job,
                Err(JobError::Panicked {
                    // `as_ref` reaches the payload itself — a plain
                    // `&payload` would unsize the Box and defeat the
                    // downcasts.
                    message: panic_message(payload.as_ref()),
                }),
                false,
            );
            return;
        }
        Ok(Err(e)) => {
            finish_job(
                shared,
                job,
                Err(JobError::Recon(ReconError::from(e))),
                false,
            );
            return;
        }
        Ok(Ok(v)) => v,
    };
    if job.cache_hit.is_none() {
        job.cache_hit = Some(hit);
    }

    // The request's checkpoint policy is the preemption and retry
    // substrate. Every request yields and resumes through it alike — a
    // volume keeps one slot per group in the sink, ranks agree on the
    // boundary among themselves.
    let t = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        if let Some(message) = &job.spec.chaos_panic {
            // lint: allow(no-panic) the chaos drill panics on purpose, caught just above
            panic!("{}", message.clone());
        }
        rec.run_controlled(&job.spec.request, &ctrl)
    }));
    job.run_seconds += t.elapsed().as_secs_f64();

    match run {
        Err(payload) => {
            let message = panic_message(payload.as_ref());
            finish_job(shared, job, Err(JobError::Panicked { message }), false);
        }
        Ok(Ok(RunOutcome::Completed(resp))) => finish_job(shared, job, Ok(resp), false),
        Ok(Ok(RunOutcome::Preempted { .. })) => {
            if ctrl.deadline_exceeded() {
                // The preemption snapshot is the retained checkpoint.
                let deadline = job.deadline.map(|(_, d)| d).unwrap_or_default();
                finish_job(
                    shared,
                    job,
                    Err(JobError::TimedOut {
                        deadline,
                        checkpointed: true,
                    }),
                    true,
                );
                return;
            }
            let stop_mode = {
                let st = shared.state.lock();
                st.shutdown.filter(|m| *m != Shutdown::Drain)
            };
            if let Some(mode) = stop_mode {
                let checkpointed = mode == Shutdown::CheckpointAndStop;
                finish_job(
                    shared,
                    job,
                    Err(JobError::Stopped { checkpointed }),
                    checkpointed,
                );
                return;
            }
            shared.metrics.counter_add(JOB_PREEMPTED, 1);
            job.preemptions += 1;
            job.resume();
            requeue(shared, job, None);
        }
        Ok(Err(e)) => {
            let err = JobError::Recon(e);
            let retry = job
                .spec
                .retry
                .filter(|policy| job.retries < policy.max_retries && is_retryable(&err));
            match retry {
                Some(policy) => {
                    let delay = policy.backoff(job.seq, job.retries + 1);
                    shared.metrics.counter_add(JOB_RETRIES, 1);
                    job.retries += 1;
                    job.resume();
                    requeue(shared, job, Some(delay));
                }
                None => finish_job(shared, job, Err(err), false),
            }
        }
    }
}

fn requeue(shared: &Shared, mut job: QueuedJob, delay: Option<Duration>) {
    let now = Instant::now();
    job.enqueued = now;
    job.delay = delay.map(|d| (now, d));
    let mut st = shared.state.lock();
    st.running = None;
    st.queued_bytes += job.bytes;
    st.statuses.insert(job.id.0, JobStatus::Queued);
    st.queue.push(job);
}

/// Extract a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn finish_job(
    shared: &Shared,
    job: QueuedJob,
    outcome: Result<ReconResponse, JobError>,
    keep_checkpoint: bool,
) {
    let cache_hit = job.cache_hit.unwrap_or(false);
    let report = JobReport {
        id: job.id,
        name: job.spec.name.clone(),
        priority: job.spec.priority,
        plan_fingerprint: job.spec.plan.key().fingerprint(),
        cache_hit,
        queue_seconds: job.queue_seconds,
        run_seconds: job.run_seconds,
        preprocess_seconds: match &outcome {
            Ok(resp) if !cache_hit => resp.preprocess_seconds,
            _ => 0.0,
        },
        preemptions: job.preemptions,
        retries: job.retries,
        iterations: outcome.as_ref().map(|r| r.iterations()).unwrap_or(0),
    };
    let status = match &outcome {
        Ok(_) => {
            shared.metrics.counter_add(JOB_COMPLETED, 1);
            breaker_record(shared, true);
            JobStatus::Completed
        }
        Err(JobError::Panicked { .. }) => {
            shared.metrics.counter_add(JOB_FAILED, 1);
            shared.metrics.counter_add(JOB_PANICS, 1);
            breaker_record(shared, false);
            JobStatus::Failed
        }
        Err(JobError::Recon(_)) => {
            shared.metrics.counter_add(JOB_FAILED, 1);
            breaker_record(shared, false);
            JobStatus::Failed
        }
        // Deadline overruns and shutdown stops are not runtime-health
        // failures: they don't feed the breaker.
        Err(JobError::TimedOut { .. }) => {
            shared.metrics.counter_add(JOB_TIMEOUTS, 1);
            JobStatus::TimedOut
        }
        Err(JobError::Stopped { .. }) => {
            shared.metrics.counter_add(JOB_STOPPED, 1);
            JobStatus::Stopped
        }
    };
    shared
        .metrics
        .timer_observe(JOB_QUEUE_SECONDS, report.queue_seconds);
    shared
        .metrics
        .timer_observe(JOB_RUN_SECONDS, report.run_seconds);
    let checkpoint = if keep_checkpoint && job.resumable() {
        job.spec.request.checkpoint.map(|p| p.resume(true))
    } else {
        None
    };
    let mut st = shared.state.lock();
    st.running = None;
    st.statuses.insert(job.id.0, status);
    st.results.insert(
        job.id.0,
        JobResult {
            report,
            outcome,
            checkpoint,
        },
    );
    shared.done_cv.notify_all();
}

fn breaker_record(shared: &Shared, success: bool) {
    let mut breaker = shared.breaker.lock();
    if success {
        breaker.record_success();
    } else if breaker.record_failure() {
        shared.metrics.counter_add(BREAKER_TRIPS, 1);
    }
    shared
        .metrics
        .gauge_set(BREAKER_STATE, breaker.state().gauge());
}
