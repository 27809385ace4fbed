//! The metrics registry and the [`Metrics`] handle layered over it.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::span::Span;

/// Timer name the operator layer uses for partial-projection (A_p) time.
/// Shared-memory kernels put *all* SpMV time here.
pub const KERNEL_AP_SECONDS: &str = "kernel/ap_s";
/// Timer name for communication time (C, Cᵀ, scalar allreduces).
pub const KERNEL_C_SECONDS: &str = "kernel/c_s";
/// Timer name for overlap reduction / gather assembly time (R, Rᵀ).
pub const KERNEL_R_SECONDS: &str = "kernel/r_s";

/// Counter of injected faults that actually fired during a run (crashes,
/// drops, delays, bit flips), recorded at the coordinator from the
/// communicator's fault ledger.
pub const FAULT_INJECTED: &str = "fault/injected";
/// Counter of message retransmissions after dropped or corrupt frames.
pub const FAULT_RETRIES: &str = "fault/retries";
/// Counter of collectives that hit their deadline and returned a timeout.
pub const FAULT_TIMEOUTS: &str = "fault/timeouts";
/// Counter of collectives aborted because a peer had already failed.
pub const FAULT_ABORTS: &str = "fault/aborts";
/// Counter of unrecoverable rank losses observed by the fault-tolerant
/// distributed driver (each one triggers a degraded restart or an error).
pub const FAULT_RANK_LOSS: &str = "fault/rank_loss";
/// Counter of degraded restarts: solves rebuilt over the surviving ranks
/// from the last checkpoint after a rank loss.
pub const FAULT_RESTARTS: &str = "fault/restarts";

/// Counter of plan-cache lookups served by an already-built reconstructor
/// (the preprocessing cost was amortized away entirely).
pub const CACHE_HIT: &str = "cache/hit";
/// Counter of plan-cache lookups that had to build (and validate) a new
/// reconstructor.
pub const CACHE_MISS: &str = "cache/miss";
/// Counter of reconstructors evicted from the plan cache to stay within
/// its capacity bound.
pub const CACHE_EVICT: &str = "cache/evict";

/// Counter of jobs accepted into the serving queue.
pub const JOB_SUBMITTED: &str = "job/submitted";
/// Counter of jobs that ran to completion.
pub const JOB_COMPLETED: &str = "job/completed";
/// Counter of jobs that failed with a reconstruction error.
pub const JOB_FAILED: &str = "job/failed";
/// Counter of jobs rejected by admission control (queued measurement
/// bytes would exceed the configured bound).
pub const JOB_REJECTED: &str = "job/rejected";
/// Counter of preemptions: a running job checkpointed at an iteration
/// boundary to yield to a higher-priority arrival.
pub const JOB_PREEMPTED: &str = "job/preempted";
/// Counter of preempted jobs resumed from their checkpoint.
pub const JOB_RESUMED: &str = "job/resumed";
/// Timer of time jobs spent queued before first being scheduled.
pub const JOB_QUEUE_SECONDS: &str = "job/queue_s";
/// Timer of time jobs spent actually solving (across all attempts).
pub const JOB_RUN_SECONDS: &str = "job/run_s";
/// Counter of job attempts that panicked; the payload is captured into a
/// typed `JobError::Panicked` and the runtime keeps serving.
pub const JOB_PANICS: &str = "job/panics";
/// Counter of jobs that exceeded their deadline (admission-time sheds of
/// already-expired jobs included); the last checkpoint is retained.
pub const JOB_TIMEOUTS: &str = "job/timeouts";
/// Counter of job retries: attempts re-queued (with deterministic
/// backoff) after a retryable fault, resuming from the last checkpoint.
pub const JOB_RETRIES: &str = "job/retries";
/// Counter of submissions shed because the runtime circuit breaker was
/// open (typed `SubmitError::Degraded`).
pub const JOB_SHED: &str = "job/shed";
/// Counter of jobs terminated by a `CheckpointAndStop`/`Abort` shutdown
/// before completing.
pub const JOB_STOPPED: &str = "job/stopped";
/// Gauge of the runtime circuit breaker state: 0 = closed (serving),
/// 1 = open (shedding), 2 = half-open (probing).
pub const BREAKER_STATE: &str = "breaker/state";
/// Counter of circuit-breaker trips (closed → open transitions after K
/// consecutive job failures).
pub const BREAKER_TRIPS: &str = "breaker/trips";

/// Matrix of observed lock-acquisition-order edges recorded by the
/// `xct-model` lockdep pass in debug builds: row = held lock class,
/// column = class acquired while holding it, 1 = edge observed. Class
/// names come from `xct_model::lockdep::classes()`.
pub const LOCKDEP_EDGES: &str = "lockdep/edges";

/// Aggregated observations of one timer (or histogram-like metric).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimerSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values (seconds for timers).
    pub total_s: f64,
    /// Smallest observation.
    pub min_s: f64,
    /// Largest observation.
    pub max_s: f64,
}

impl TimerSummary {
    fn observe(&mut self, v: f64) {
        self.count += 1;
        self.total_s += v;
        self.min_s = self.min_s.min(v);
        self.max_s = self.max_s.max(v);
    }

    fn new(v: f64) -> Self {
        TimerSummary {
            count: 1,
            total_s: v,
            min_s: v,
            max_s: v,
        }
    }
}

/// A square matrix of u64 values (row-major), e.g. per-pair communication
/// bytes with `data[src * size + dst]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixSnapshot {
    /// Edge length (number of ranks).
    pub size: usize,
    /// Row-major `size × size` values.
    pub data: Vec<u64>,
}

impl MatrixSnapshot {
    /// Value at `(row, col)`.
    pub fn get(&self, row: usize, col: usize) -> u64 {
        self.data[row * self.size + col]
    }
}

#[derive(Default)]
struct State {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    timers: BTreeMap<String, TimerSummary>,
    series: BTreeMap<String, Vec<f64>>,
    matrices: BTreeMap<String, MatrixSnapshot>,
}

/// Thread-safe store for all metric kinds. Usually reached through a
/// [`Metrics`] handle rather than directly.
#[derive(Default)]
pub struct MetricsRegistry {
    state: Mutex<State>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded state. Poison is recovered, not propagated: a thread
    /// that panicked while recording must not take every later recording
    /// down with it.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Immutable, deterministically ordered copy of everything recorded.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let st = self.state();
        MetricsSnapshot {
            counters: st.counters.clone(),
            gauges: st.gauges.clone(),
            timers: st.timers.clone(),
            series: st.series.clone(),
            matrices: st.matrices.clone(),
        }
    }
}

/// An immutable copy of a [`MetricsRegistry`], ordered by metric name in
/// every section so exports are deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-value gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Timer summaries.
    pub timers: BTreeMap<String, TimerSummary>,
    /// Append-only value series (e.g. per-iteration residuals).
    pub series: BTreeMap<String, Vec<f64>>,
    /// Square u64 matrices (e.g. the communication matrix).
    pub matrices: BTreeMap<String, MatrixSnapshot>,
}

impl MetricsSnapshot {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.timers.is_empty()
            && self.series.is_empty()
            && self.matrices.is_empty()
    }

    /// Total seconds of a timer, or 0 when never observed.
    pub fn timer_total(&self, name: &str) -> f64 {
        self.timers.get(name).map_or(0.0, |t| t.total_s)
    }
}

/// Handle for recording metrics. Clones share the underlying registry;
/// the [`noop`](Metrics::noop) handle has no registry and records nothing
/// (each call is a single `None` branch — the zero-cost path).
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Option<Arc<MetricsRegistry>>,
}

impl Metrics {
    /// A handle that records nothing. This is also `Default`.
    pub fn noop() -> Self {
        Metrics { inner: None }
    }

    /// A handle backed by a fresh registry.
    pub fn collecting() -> Self {
        Metrics {
            inner: Some(Arc::new(MetricsRegistry::new())),
        }
    }

    /// Whether this handle actually records.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `v` to the counter `name`.
    pub fn counter_add(&self, name: &str, v: u64) {
        if let Some(r) = &self.inner {
            let mut st = r.state();
            *st.counters.entry_or_insert(name) += v;
        }
    }

    /// Set the gauge `name` to `v` (last write wins).
    pub fn gauge_set(&self, name: &str, v: f64) {
        if let Some(r) = &self.inner {
            r.state().gauges.insert(name.to_owned(), v);
        }
    }

    /// Record one observation of the timer `name` (seconds).
    pub fn timer_observe(&self, name: &str, seconds: f64) {
        if let Some(r) = &self.inner {
            let mut st = r.state();
            match st.timers.get_mut(name) {
                Some(t) => t.observe(seconds),
                None => {
                    st.timers
                        .insert(name.to_owned(), TimerSummary::new(seconds));
                }
            }
        }
    }

    /// Append `v` to the series `name`.
    pub fn series_push(&self, name: &str, v: f64) {
        if let Some(r) = &self.inner {
            let mut st = r.state();
            match st.series.get_mut(name) {
                Some(s) => s.push(v),
                None => {
                    st.series.insert(name.to_owned(), vec![v]);
                }
            }
        }
    }

    /// Store the square matrix `name` (row-major, `size × size`).
    ///
    /// # Panics
    /// Panics if `data.len() != size * size`.
    pub fn matrix_set(&self, name: &str, size: usize, data: Vec<u64>) {
        assert_eq!(data.len(), size * size, "matrix must be size × size");
        if let Some(r) = &self.inner {
            let matrix = MatrixSnapshot { size, data };
            r.state().matrices.insert(name.to_owned(), matrix);
        }
    }

    /// Open a timing span named `name`. Dropping the returned guard adds
    /// the elapsed seconds to the timer of the same name; nested child
    /// spans record under `parent/child` paths. The no-op handle returns
    /// a span that never reads the clock.
    pub fn span(&self, name: &str) -> Span {
        Span::begin(self.clone(), name)
    }

    /// Total seconds of a timer, or `None` for no-op handles / never
    /// observed timers. Cheaper than a full snapshot.
    pub fn timer_total(&self, name: &str) -> Option<f64> {
        self.inner
            .as_ref()
            .map(|r| r.state().timers.get(name).map_or(0.0, |t| t.total_s))
    }

    /// Snapshot the registry (empty snapshot for the no-op handle).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner
            .as_ref()
            .map(|r| r.snapshot())
            .unwrap_or_default()
    }
}

/// `BTreeMap::entry(..).or_insert(0)` without allocating the key when it
/// already exists (counter names are recorded per kernel call).
trait EntryOrInsert {
    fn entry_or_insert(&mut self, name: &str) -> &mut u64;
}

impl EntryOrInsert for BTreeMap<String, u64> {
    fn entry_or_insert(&mut self, name: &str) -> &mut u64 {
        if !self.contains_key(name) {
            self.insert(name.to_owned(), 0);
        }
        self.get_mut(name).expect("inserted above")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::collecting();
        m.counter_add("spmv/calls", 2);
        m.counter_add("spmv/calls", 3);
        assert_eq!(m.snapshot().counters["spmv/calls"], 5);
    }

    #[test]
    fn gauges_keep_last_value() {
        let m = Metrics::collecting();
        m.gauge_set("g", 1.0);
        m.gauge_set("g", 7.5);
        assert_eq!(m.snapshot().gauges["g"], 7.5);
    }

    #[test]
    fn timers_summarize() {
        let m = Metrics::collecting();
        m.timer_observe("t", 0.5);
        m.timer_observe("t", 1.5);
        m.timer_observe("t", 1.0);
        let t = m.snapshot().timers["t"];
        assert_eq!(t.count, 3);
        assert!((t.total_s - 3.0).abs() < 1e-12);
        assert_eq!(t.min_s, 0.5);
        assert_eq!(t.max_s, 1.5);
        assert_eq!(m.timer_total("t"), Some(3.0));
    }

    #[test]
    fn series_preserve_order() {
        let m = Metrics::collecting();
        for v in [3.0, 2.0, 1.0] {
            m.series_push("res", v);
        }
        assert_eq!(m.snapshot().series["res"], vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn matrices_round_trip() {
        let m = Metrics::collecting();
        m.matrix_set("comm", 2, vec![0, 1, 2, 0]);
        let mat = &m.snapshot().matrices["comm"];
        assert_eq!(mat.get(0, 1), 1);
        assert_eq!(mat.get(1, 0), 2);
    }

    #[test]
    fn noop_records_nothing() {
        let m = Metrics::noop();
        assert!(!m.enabled());
        m.counter_add("c", 1);
        m.gauge_set("g", 1.0);
        m.timer_observe("t", 1.0);
        m.series_push("s", 1.0);
        m.matrix_set("m", 1, vec![9]);
        drop(m.span("span"));
        assert!(m.snapshot().is_empty());
        assert_eq!(m.timer_total("t"), None);
    }

    #[test]
    fn clones_share_the_registry() {
        let m = Metrics::collecting();
        let c = m.clone();
        c.counter_add("shared", 4);
        assert_eq!(m.snapshot().counters["shared"], 4);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let m = Metrics::collecting();
        let workers: Vec<_> = (0..4)
            .map(|t| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.counter_add("hits", 1);
                        m.timer_observe("t", 0.5);
                    }
                    m.series_push(&format!("worker/{t}"), t as f64);
                })
            })
            .collect();
        for w in workers {
            w.join().expect("recording thread");
        }
        let snap = m.snapshot();
        assert_eq!(snap.counters["hits"], 4000);
        assert_eq!(snap.timers["t"].count, 4000);
        assert_eq!(snap.timers["t"].total_s, 2000.0);
        assert_eq!(snap.series.len(), 4);
    }

    #[test]
    fn poisoned_registry_keeps_recording() {
        let m = Metrics::collecting();
        m.counter_add("c", 1);
        let registry = Arc::clone(m.inner.as_ref().expect("collecting"));
        let died = std::thread::spawn(move || {
            let _held = registry.state();
            panic!("recording thread dies holding the lock");
        })
        .join();
        assert!(died.is_err());
        assert!(m.inner.as_ref().expect("collecting").state.is_poisoned());
        m.counter_add("c", 2);
        m.gauge_set("g", 1.0);
        let snap = m.snapshot();
        assert_eq!(snap.counters["c"], 3);
        assert_eq!(snap.gauges["g"], 1.0);
    }

    #[test]
    #[should_panic(expected = "size × size")]
    fn matrix_shape_is_checked_even_for_noop() {
        Metrics::noop().matrix_set("m", 2, vec![1, 2, 3]);
    }
}
