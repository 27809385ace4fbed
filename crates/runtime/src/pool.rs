//! Persistent worker pool and static, nnz-balanced execution plans.
//!
//! MemXCT load-balances row partitions by nonzero count and keeps threads
//! pinned on contiguous Hilbert-ordered partitions across all iterations
//! (§3.2, §4.2). This module is the in-node half of that idea:
//!
//! - [`WorkerPool`] spawns its workers **once** and parks them on a
//!   condvar between dispatches. A dispatch publishes one job under the
//!   pool mutex, bumps an epoch, and wakes everyone; the caller (who acts
//!   as worker 0) blocks until the remaining-worker count drains to zero.
//!   Steady-state dispatch is therefore a couple of condvar signals — no
//!   thread spawns, no heap allocation.
//! - [`ExecPlan`] is the static partitioning: a greedy prefix split over
//!   a weight prefix sum (the CSR `rowptr` for row kernels, per-block
//!   footprints for buffered layouts) computed once at plan time and
//!   reused every iteration. Each worker owns one contiguous run of
//!   partitions, so output slices are disjoint and per-row accumulation
//!   order — and hence the floating-point result — is independent of the
//!   worker count.
//!
//! One dispatch combines the two ([`WorkerPool::try_run_batched`];
//! [`WorkerPool::run_batched`] and the one-slice [`WorkerPool::run`] are
//! panicking spellings of it): each worker gets its row range of a
//! slice-interleaved output (`width` values per row, so the range is one
//! contiguous sub-slice) plus a persistent scratch buffer (grown on first
//! use, reused after).

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use xct_model::sync::atomic::{AtomicU64, Ordering};
use xct_model::sync::{Arc, Condvar, Mutex};
use xct_model::thread;
use xct_model::time::Instant;
use xct_obs::Metrics;

/// Timer metric: wall time of one pool dispatch (publish → all workers
/// done), in seconds.
pub const POOL_DISPATCH_SECONDS: &str = "pool/dispatch_s";
/// Gauge metric: busy-time utilization of the last dispatch
/// (`Σ worker busy / (wall × workers)`), in `[0, 1]`.
pub const POOL_UTILIZATION: &str = "pool/utilization";
/// Counter metric: number of dispatches the pool has run.
pub const POOL_DISPATCHES: &str = "pool/dispatches";
/// Gauge metric: number of workers in the pool (including the caller).
pub const POOL_WORKERS: &str = "pool/workers";

/// A static assignment of `rows` domain elements to pool workers.
///
/// The domain is first tiled by `bounds` into contiguous partitions
/// (partition `p` covers `bounds[p]..bounds[p + 1]`), each carrying a
/// `weights[p]` cost; `assign` then gives each worker one contiguous run
/// of partitions (`assign[w]..assign[w + 1]`). Both levels are built by a
/// greedy prefix split, so every worker's total weight is at most
/// `total/W + max_unit + 1` where `max_unit` is the largest indivisible
/// unit (one row for row plans, one block for block plans).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecPlan {
    rows: usize,
    bounds: Vec<usize>,
    weights: Vec<u64>,
    assign: Vec<usize>,
    max_unit: u64,
}

/// Greedy prefix split of `prefix` (a cumulative weight array with a
/// leading 0) into `parts` contiguous runs: cut `k` is the first index
/// whose prefix reaches `k/parts` of the total.
fn prefix_cuts(prefix: &[usize], parts: usize) -> Vec<usize> {
    let n = prefix.len() - 1;
    let total = prefix[n] as u128;
    let mut cuts = Vec::with_capacity(parts + 1);
    cuts.push(0usize);
    for k in 1..parts {
        let target = (total * k as u128 / parts as u128) as usize;
        let cut = prefix.partition_point(|&w| w < target.max(1));
        // Clamp: cuts must stay monotone and leave room for later parts.
        cuts.push(cut.min(n).max(cuts[k - 1]));
    }
    cuts.push(n);
    cuts
}

impl ExecPlan {
    /// An nnz-balanced row plan: split rows so each worker's nonzero
    /// count is near `nnz/W`, via a greedy prefix split over the CSR
    /// `rowptr` (which *is* the nnz prefix sum). One partition per
    /// worker.
    ///
    /// # Panics
    /// If `rowptr` is empty or `workers` is zero.
    pub fn nnz_balanced(rowptr: &[usize], workers: usize) -> ExecPlan {
        assert!(!rowptr.is_empty(), "rowptr must have a leading 0");
        assert!(workers > 0, "need at least one worker");
        let n = rowptr.len() - 1;
        let bounds = prefix_cuts(rowptr, workers);
        let weights = bounds
            .windows(2)
            .map(|w| (rowptr[w[1]] - rowptr[w[0]]) as u64)
            .collect();
        let max_unit = (0..n)
            .map(|i| (rowptr[i + 1] - rowptr[i]) as u64)
            .max()
            .unwrap_or(0);
        ExecPlan {
            rows: n,
            bounds,
            weights,
            assign: (0..=workers).collect(),
            max_unit,
        }
    }

    /// A plan over pre-existing blocks (buffered partitions): block `p`
    /// covers rows `block_bounds[p]..block_bounds[p + 1]` at cost
    /// `block_weights[p]`, and workers get contiguous block runs balanced
    /// by a greedy prefix split over the block weights.
    ///
    /// # Panics
    /// If the bounds array is empty, lengths disagree, or `workers` is
    /// zero.
    pub fn balanced_blocks(
        block_bounds: &[usize],
        block_weights: &[u64],
        workers: usize,
    ) -> ExecPlan {
        assert!(!block_bounds.is_empty(), "bounds must have a leading 0");
        assert_eq!(
            block_weights.len(),
            block_bounds.len() - 1,
            "one weight per block"
        );
        assert!(workers > 0, "need at least one worker");
        assert_eq!(block_bounds[0], 0, "block bounds must start at 0");
        assert!(
            block_bounds.windows(2).all(|w| w[0] <= w[1]),
            "block bounds must be monotone"
        );
        let nblocks = block_weights.len();
        let mut prefix = Vec::with_capacity(nblocks + 1);
        prefix.push(0usize);
        let mut acc = 0usize;
        for &w in block_weights {
            acc += w as usize;
            prefix.push(acc);
        }
        ExecPlan {
            rows: *block_bounds.last().unwrap_or(&0),
            bounds: block_bounds.to_vec(),
            weights: block_weights.to_vec(),
            assign: prefix_cuts(&prefix, workers),
            max_unit: block_weights.iter().copied().max().unwrap_or(0),
        }
    }

    /// The baseline strategy: equal row counts per worker, ignoring nnz.
    ///
    /// # Panics
    /// If `workers` is zero.
    pub fn equal_rows(rows: usize, workers: usize) -> ExecPlan {
        assert!(workers > 0, "need at least one worker");
        let bounds: Vec<usize> = (0..=workers).map(|k| rows * k / workers).collect();
        let weights = bounds.windows(2).map(|w| (w[1] - w[0]) as u64).collect();
        ExecPlan {
            rows,
            bounds,
            weights,
            assign: (0..=workers).collect(),
            max_unit: 1,
        }
    }

    /// Rebuild a plan from raw arrays **without validation** — for
    /// mutation tests and checkers that need to construct malformed
    /// plans. [`WorkerPool::run`] hard-asserts
    /// [`ExecPlan::is_well_formed`] before trusting a plan, so a
    /// malformed one built here panics at dispatch instead of causing
    /// unsound slicing.
    pub fn from_raw_parts_unchecked(
        rows: usize,
        bounds: Vec<usize>,
        weights: Vec<u64>,
        assign: Vec<usize>,
        max_unit: u64,
    ) -> ExecPlan {
        ExecPlan {
            rows,
            bounds,
            weights,
            assign,
            max_unit,
        }
    }

    /// Total number of domain elements (rows) the plan covers.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of workers the plan was built for.
    pub fn num_workers(&self) -> usize {
        self.assign.len().saturating_sub(1)
    }

    /// Number of contiguous partitions.
    pub fn num_partitions(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// Partition boundaries (`num_partitions() + 1` entries, first 0,
    /// last [`ExecPlan::rows`]).
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// Per-partition weights (nnz or block footprints).
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Worker → partition-run boundaries (`num_workers() + 1` entries).
    pub fn assign(&self) -> &[usize] {
        &self.assign
    }

    /// The largest indivisible unit weight (bounds the balance error).
    pub fn max_unit_weight(&self) -> u64 {
        self.max_unit
    }

    /// Sum of all partition weights.
    pub fn total_weight(&self) -> u64 {
        self.weights.iter().sum()
    }

    /// The contiguous partition run owned by worker `w`.
    pub fn worker_parts(&self, w: usize) -> Range<usize> {
        self.assign[w]..self.assign[w + 1]
    }

    /// The contiguous row range owned by worker `w`.
    pub fn worker_rows(&self, w: usize) -> Range<usize> {
        self.bounds[self.assign[w]]..self.bounds[self.assign[w + 1]]
    }

    /// Total weight assigned to worker `w`.
    pub fn worker_weight(&self, w: usize) -> u64 {
        self.weights[self.worker_parts(w)].iter().sum()
    }

    /// Load imbalance: the heaviest worker's weight over the ideal
    /// `total/W` share (1.0 = perfectly balanced; 0 total ⇒ 1.0).
    pub fn imbalance(&self) -> f64 {
        let total = self.total_weight();
        if total == 0 {
            return 1.0;
        }
        let ideal = total as f64 / self.num_workers() as f64;
        let max = (0..self.num_workers())
            .map(|w| self.worker_weight(w))
            .max()
            .unwrap_or(0);
        max as f64 / ideal
    }

    /// The guaranteed per-worker weight bound of the greedy split:
    /// `⌊total/W⌋ + max_unit + 1`. Checkers flag plans whose heaviest
    /// worker exceeds this.
    pub fn balance_bound(&self) -> u64 {
        let w = self.num_workers().max(1) as u64;
        self.total_weight() / w + self.max_unit + 1
    }

    /// Structural well-formedness: both boundary arrays start at 0, end
    /// at their domain size, and are monotone. `WorkerPool::run` asserts
    /// this before trusting the plan for disjoint slicing.
    pub fn is_well_formed(&self) -> bool {
        let bounds_ok = self.bounds.first() == Some(&0)
            && self.bounds.last() == Some(&self.rows)
            && self.bounds.windows(2).all(|w| w[0] <= w[1])
            && self.weights.len() + 1 == self.bounds.len();
        let assign_ok = self.assign.first() == Some(&0)
            && self.assign.last() == Some(&self.num_partitions())
            && self.assign.windows(2).all(|w| w[0] <= w[1]);
        bounds_ok && assign_ok
    }
}

/// The job pointer workers execute: a borrowed closure with its lifetime
/// erased so it can sit in the shared dispatch state.
type Job = dyn Fn(usize, &mut Vec<f32>) + Sync;

#[derive(Clone, Copy)]
struct JobPtr(*const Job);

// The pointee is a closure on the dispatching thread's stack, and the
// closure is `Sync`, so shared calls from worker threads are fine.
// SAFETY: `broadcast` does not return until every worker is done with
// the pointer (the remaining-count drains to zero under the pool mutex).
unsafe impl Send for JobPtr {}

struct DispatchState {
    epoch: u64,
    job: Option<JobPtr>,
    remaining: usize,
    timed: bool,
    shutdown: bool,
    /// First panic payload caught on a worker during the current
    /// dispatch; the dispatcher re-raises it after the barrier drains.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct Shared {
    state: Mutex<DispatchState>,
    work_cv: Condvar,
    done_cv: Condvar,
    busy_ns: Vec<AtomicU64>,
}

/// A dispatch was refused because a previous panic unwound through one of
/// the pool's internal locks while it was held, so the dispatch state may
/// be inconsistent (a half-published job, a stale remaining-count).
///
/// Kernel panics do **not** poison the pool — they are caught, the
/// barrier drains, and the payload is re-raised after the dispatch lock
/// is released. Poisoning only arises when pool-internal code itself
/// unwinds mid-critical-section, which is a pool bug or a torn-down
/// process; [`WorkerPool::clear_poison`] is the explicit opt-back-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolPoisoned {
    lock: &'static str,
}

impl PoolPoisoned {
    /// Name of the poisoned lock class (`pool/state`, `pool/dispatch` or
    /// `pool/scratch`).
    pub fn lock_name(&self) -> &'static str {
        self.lock
    }
}

impl std::fmt::Display for PoolPoisoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker pool poisoned: a panic unwound through the '{}' lock while it was held, \
             so the dispatch state may be inconsistent; drop and rebuild the pool, or call \
             WorkerPool::clear_poison() if the state is known good",
            self.lock
        )
    }
}

impl std::error::Error for PoolPoisoned {}

/// A pool of `threads` persistent workers (worker 0 is the calling
/// thread; `threads - 1` parked worker threads). Workers are spawned at
/// construction and live until the pool is dropped; a dispatch costs two
/// condvar signals instead of `threads` spawns.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<thread::JoinHandle<()>>,
    threads: usize,
    /// Serializes whole dispatches: `run`/`run_batched` take `&self`
    /// and the pool is `Sync`, but only one job may be in flight at a
    /// time — `DispatchState` (job/remaining/epoch) is single-shot.
    dispatch_lock: Mutex<()>,
    main_scratch: Mutex<Vec<f32>>,
    metrics: Metrics,
}

impl WorkerPool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> WorkerPool {
        WorkerPool::with_metrics(threads, Metrics::noop())
    }

    /// A pool of [`env_threads`] workers. The environment is read once,
    /// here — the pool size is fixed for its lifetime.
    pub fn from_env() -> WorkerPool {
        WorkerPool::new(env_threads())
    }

    /// A pool that reports dispatch latency and utilization through
    /// `metrics` (`pool/*` names).
    pub fn with_metrics(threads: usize, metrics: Metrics) -> WorkerPool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::named(
                "pool/state",
                DispatchState {
                    epoch: 0,
                    job: None,
                    remaining: 0,
                    timed: false,
                    shutdown: false,
                    panic: None,
                },
            ),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            busy_ns: (0..threads).map(|_| AtomicU64::new(0)).collect(),
        });
        let handles = (1..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("xct-pool-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn pool worker")
            })
            .collect();
        metrics.gauge_set(POOL_WORKERS, threads as f64);
        WorkerPool {
            shared,
            handles,
            threads,
            dispatch_lock: Mutex::named("pool/dispatch", ()),
            main_scratch: Mutex::named("pool/scratch", Vec::new()),
            metrics,
        }
    }

    /// `Ok` when no internal lock is poisoned; the typed
    /// [`PoolPoisoned`] error otherwise. `run` / `run_batched` call this
    /// implicitly (panicking with the same message); `try_run_batched`
    /// surfaces it.
    pub fn check_healthy(&self) -> Result<(), PoolPoisoned> {
        let lock = if self.shared.state.is_poisoned() {
            "pool/state"
        } else if self.dispatch_lock.is_poisoned() {
            "pool/dispatch"
        } else if self.main_scratch.is_poisoned() {
            "pool/scratch"
        } else {
            return Ok(());
        };
        Err(PoolPoisoned { lock })
    }

    /// Clear all internal poison flags, declaring the dispatch state
    /// sound again. Explicit recovery only — nothing clears poison
    /// implicitly.
    pub fn clear_poison(&self) {
        self.shared.state.clear_poison();
        self.dispatch_lock.clear_poison();
        self.main_scratch.clear_poison();
    }

    /// Poison the pool's state lock the way a mid-critical-section panic
    /// would. Test hook for the poisoning regression tests.
    #[doc(hidden)]
    pub fn poison_for_test(&self) {
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = self.shared.state.lock();
            panic!("poison_for_test");
        }));
    }

    /// Number of workers (including the calling thread).
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// The pool's one dispatch: run `kernel` over a slice-interleaved
    /// output of `plan.rows()` rows of `width` values each (row `i`'s
    /// values at `out[i·width..(i + 1)·width]`). Worker `w` receives its
    /// partition run `plan.worker_parts(w)`, its row range
    /// `plan.worker_rows(w)`, exclusive access to those rows — the
    /// contiguous `out[rows.start·width..rows.end·width]` — and its
    /// persistent `Vec<f32>` scratch (kept across dispatches, so a kernel
    /// that `resize`s it to a fixed footprint allocates only on the first
    /// call). This is the shape of SpMM (`A · [x₁ … xₖ]`): one job streams
    /// the worker's matrix partition once for all `k` slices; `width = 1`
    /// is the SpMV.
    ///
    /// The caller participates as worker 0 and the call returns only when
    /// every worker has finished, so borrowed captures in `kernel` stay
    /// valid throughout. Dispatches are serialized: if another thread is
    /// mid-dispatch on the same pool, this call blocks until that
    /// dispatch completes.
    ///
    /// Returns [`PoolPoisoned`] (and dispatches nothing) when a previous
    /// panic corrupted the pool's internal locks.
    ///
    /// # Panics
    /// If `width == 0`, `out.len() != plan.rows() * width`, the plan's
    /// worker count differs from the pool's, or the plan is not
    /// well-formed. A panic in `kernel` (on any worker) is re-raised on
    /// the calling thread after all workers finish; the pool remains
    /// usable.
    pub fn try_run_batched<T, K>(
        &self,
        plan: &ExecPlan,
        out: &mut [T],
        width: usize,
        kernel: K,
    ) -> Result<(), PoolPoisoned>
    where
        T: Send,
        K: Fn(Range<usize>, Range<usize>, &mut [T], &mut Vec<f32>) + Sync,
    {
        self.check_healthy()?;
        self.dispatch(plan, out, width, kernel, true);
        Ok(())
    }

    /// [`WorkerPool::try_run_batched`], panicking with the
    /// [`PoolPoisoned`] message on a poisoned pool.
    pub fn run_batched<T, K>(&self, plan: &ExecPlan, out: &mut [T], width: usize, kernel: K)
    where
        T: Send,
        K: Fn(Range<usize>, Range<usize>, &mut [T], &mut Vec<f32>) + Sync,
    {
        self.try_run_batched(plan, out, width, kernel)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// The `width = 1` spelling of [`WorkerPool::run_batched`] for
    /// kernels that need no scratch: each worker gets `&mut out[rows]`.
    pub fn run<T, K>(&self, plan: &ExecPlan, out: &mut [T], kernel: K)
    where
        T: Send,
        K: Fn(Range<usize>, Range<usize>, &mut [T]) + Sync,
    {
        self.run_batched(plan, out, 1, |parts, rows, mine, _scratch| {
            kernel(parts, rows, mine)
        });
    }

    /// Dispatch **without** taking the dispatch lock. This is the exact
    /// PR 4 bug class (concurrent `run(&self)` on a shared pool racing
    /// the single `DispatchState`), deliberately kept as a mutated
    /// protocol so the `xct-model` regression suite can prove the checker
    /// catches it (see `crates/runtime/tests/model_check.rs`). Never call
    /// this outside that suite.
    #[doc(hidden)]
    pub fn run_unserialized_for_model<T, K>(&self, plan: &ExecPlan, out: &mut [T], kernel: K)
    where
        T: Send,
        K: Fn(Range<usize>, Range<usize>, &mut [T]) + Sync,
    {
        let one_slice = |parts, rows, mine: &mut [T], _: &mut Vec<f32>| kernel(parts, rows, mine);
        self.dispatch(plan, out, 1, one_slice, false);
    }

    /// The body behind every dispatch: validate the shapes, carve each
    /// worker its rows of `out`, broadcast.
    fn dispatch<T, K>(
        &self,
        plan: &ExecPlan,
        out: &mut [T],
        width: usize,
        kernel: K,
        serialize: bool,
    ) where
        T: Send,
        K: Fn(Range<usize>, Range<usize>, &mut [T], &mut Vec<f32>) + Sync,
    {
        assert!(width > 0, "batched dispatch needs a positive width");
        assert_eq!(
            out.len(),
            plan.rows() * width,
            "output length vs plan rows × width"
        );
        assert_eq!(
            plan.num_workers(),
            self.threads,
            "plan worker count vs pool size"
        );
        // Hard assert (not debug-only): the carving below is unsound for a
        // malformed plan, and safe code can build one
        // (`from_raw_parts_unchecked`). O(partitions) — negligible.
        assert!(plan.is_well_formed(), "malformed ExecPlan");
        let base = OutPtr(out.as_mut_ptr());
        let job = |w: usize, scratch: &mut Vec<f32>| {
            let parts = plan.worker_parts(w);
            let rows = plan.worker_rows(w);
            // The asserts above put `rows.end · width` inside `out`, and a
            // well-formed plan's worker row ranges are pairwise disjoint.
            // SAFETY: in bounds and disjoint per the above, so no two
            // workers ever hold overlapping elements.
            let mine = unsafe {
                std::slice::from_raw_parts_mut(
                    base.get().add(rows.start * width),
                    rows.len() * width,
                )
            };
            kernel(parts, rows, mine, scratch);
        };
        self.broadcast(&job, serialize);
    }

    /// Publish `job`, run worker 0's share inline, and wait for the rest.
    ///
    /// With `serialize`, whole dispatches are serialized by
    /// `dispatch_lock`: the pool is `Sync` and `run` takes `&self`, so
    /// without it two concurrent callers would race on the single
    /// `DispatchState` — one could return while workers still hold the
    /// other's lifetime-erased job pointer. (`serialize = false` exists
    /// only for [`WorkerPool::run_unserialized_for_model`], the seeded
    /// bug the model checker must catch.)
    ///
    /// A panicking kernel (on any worker, including the caller) is
    /// caught, the barrier still drains, and the first panic payload is
    /// re-raised here — *after* every internal guard is released, so the
    /// pool stays usable (and unpoisoned) for later dispatches.
    fn broadcast(&self, job: &(dyn Fn(usize, &mut Vec<f32>) + Sync), serialize: bool) {
        let panic = {
            let _dispatch = serialize.then(|| self.dispatch_lock.lock());
            self.broadcast_locked(job)
        };
        // Both guards (dispatch + scratch) are released here: re-raising
        // a kernel panic must not unwind through a held pool lock.
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }

    /// The dispatch body; returns the first caught panic payload (the
    /// caller's, else a worker's) instead of re-raising so the caller can
    /// drop guards first.
    fn broadcast_locked(
        &self,
        job: &(dyn Fn(usize, &mut Vec<f32>) + Sync),
    ) -> Option<Box<dyn std::any::Any + Send>> {
        let timed = self.metrics.enabled();
        let started = if timed { Some(Instant::now()) } else { None };
        if self.handles.is_empty() {
            let main_result = {
                let mut scratch = self.main_scratch.lock();
                catch_unwind(AssertUnwindSafe(|| job(0, &mut scratch)))
            };
            if let Some(t) = started {
                self.shared.busy_ns[0].store(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
            self.finish_metrics(started, 1);
            return main_result.err();
        }
        // SAFETY: only the borrow lifetime is erased; `broadcast_locked`
        // blocks below until `remaining == 0` (every worker done with the
        // pointer) before returning control to the closure's owner.
        let ptr = JobPtr(unsafe {
            std::mem::transmute::<&(dyn Fn(usize, &mut Vec<f32>) + Sync), *const Job>(job)
        });
        {
            let mut st = self.shared.state.lock();
            if timed {
                for b in &self.shared.busy_ns {
                    b.store(0, Ordering::Relaxed);
                }
            }
            st.job = Some(ptr);
            st.timed = timed;
            st.remaining = self.threads - 1;
            st.epoch += 1;
        }
        // Notify after unlocking so woken workers don't immediately block
        // on the still-held dispatch mutex.
        self.shared.work_cv.notify_all();
        // Catch a caller-side kernel panic so we still wait for the
        // workers below — unwinding past the barrier would free the
        // closure while workers may still be executing it.
        let main_result = {
            let main_started = timed.then(Instant::now);
            let mut scratch = self.main_scratch.lock();
            let r = catch_unwind(AssertUnwindSafe(|| job(0, &mut scratch)));
            if let Some(t) = main_started {
                self.shared.busy_ns[0].store(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
            r
        };
        let mut st = self.shared.state.lock();
        while st.remaining > 0 {
            st = self.shared.done_cv.wait(st);
        }
        st.job = None;
        let worker_panic = st.panic.take();
        drop(st);
        self.finish_metrics(started, self.threads);
        main_result.err().or(worker_panic)
    }

    fn finish_metrics(&self, started: Option<Instant>, workers: usize) {
        let Some(t) = started else { return };
        let wall = t.elapsed().as_secs_f64();
        self.metrics.timer_observe(POOL_DISPATCH_SECONDS, wall);
        self.metrics.counter_add(POOL_DISPATCHES, 1);
        let busy: u64 = self.shared.busy_ns[..workers]
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum();
        if wall > 0.0 {
            let util = (busy as f64 / 1e9) / (wall * workers as f64);
            self.metrics.gauge_set(POOL_UTILIZATION, util.min(1.0));
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The pool thread count the environment asks for: `RAYON_NUM_THREADS`
/// when set to a positive integer, else available parallelism. The
/// variable's name is historical — nothing named rayon reads it any more;
/// every pool in the workspace (build, solve, baseline, benches) does.
pub fn env_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn worker_loop(shared: &Shared, w: usize) {
    let mut scratch: Vec<f32> = Vec::new();
    let mut seen = 0u64;
    loop {
        let (job, epoch, timed) = {
            let mut st = shared.state.lock();
            loop {
                if st.shutdown {
                    return;
                }
                match st.job {
                    Some(job) if st.epoch != seen => break (job, st.epoch, st.timed),
                    _ => {}
                }
                st = shared.work_cv.wait(st);
            }
        };
        seen = epoch;
        let started = timed.then(Instant::now);
        // SAFETY: see `JobPtr` — the dispatcher keeps the closure alive
        // until this worker decrements `remaining` below.
        let f = unsafe { &*job.0 };
        // Catch kernel panics: `remaining` must drain even on failure or
        // the dispatcher waits on `done_cv` forever. The payload is
        // stashed for the dispatcher to re-raise; this worker keeps
        // serving later dispatches.
        let result = catch_unwind(AssertUnwindSafe(|| f(w, &mut scratch)));
        if let Some(t) = started {
            shared.busy_ns[w].store(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        let last = {
            let mut st = shared.state.lock();
            if let Err(payload) = result {
                if st.panic.is_none() {
                    st.panic = Some(payload);
                }
            }
            // A checked decrement, not `-= 1`: an underflow here means the
            // dispatch protocol itself was violated (a second job was
            // published while this one was draining — the PR 4 bug class),
            // and the model checker keys on this panic.
            st.remaining = st
                .remaining
                .checked_sub(1)
                .expect("pool protocol violation: remaining-worker count underflow (concurrent unserialized dispatch)");
            st.remaining == 0
        };
        // Signal outside the lock: the dispatcher wakes without having to
        // wait for this worker to release the mutex.
        if last {
            shared.done_cv.notify_one();
        }
    }
}

struct OutPtr<T>(*mut T);

impl<T> OutPtr<T> {
    // A method (rather than direct field access) so closures capture the
    // whole wrapper — and with it the Send/Sync reasoning below — instead
    // of disjointly capturing the bare raw pointer.
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: the pointer is only dereferenced where `dispatch` carves each
// worker its disjoint rows, so no two threads ever touch overlapping
// elements.
unsafe impl<T: Send> Send for OutPtr<T> {}
// SAFETY: same argument — workers share `OutPtr` by reference but
// every dereference targets a worker-exclusive range.
unsafe impl<T: Send> Sync for OutPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nnz_balanced_covers_and_balances() {
        // Rows with wildly uneven nnz: 100, 1, 1, 1, 100, 1, 1, 1.
        let nnz = [100usize, 1, 1, 1, 100, 1, 1, 1];
        let mut rowptr = vec![0usize];
        for n in nnz {
            rowptr.push(rowptr.last().unwrap() + n);
        }
        let plan = ExecPlan::nnz_balanced(&rowptr, 2);
        assert!(plan.is_well_formed());
        assert_eq!(plan.rows(), 8);
        assert_eq!(plan.num_workers(), 2);
        assert_eq!(plan.total_weight(), 206);
        // Greedy guarantee: no worker above total/W + max_unit + 1.
        for w in 0..2 {
            assert!(plan.worker_weight(w) <= plan.balance_bound());
        }
        // Equal-rows would put 202 nnz on worker 0; the greedy split
        // lands on a perfect 103/103.
        assert_eq!(plan.worker_weight(0), 103);
        assert_eq!(plan.worker_weight(1), 103);
        assert!((plan.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn plans_degrade_gracefully() {
        // More workers than rows: trailing workers own empty ranges.
        let plan = ExecPlan::nnz_balanced(&[0, 2, 4, 6], 8);
        assert!(plan.is_well_formed());
        assert_eq!(plan.num_workers(), 8);
        let covered: usize = (0..8).map(|w| plan.worker_rows(w).len()).sum();
        assert_eq!(covered, 3);
        // Empty domain.
        let plan = ExecPlan::equal_rows(0, 4);
        assert!(plan.is_well_formed());
        assert_eq!(plan.total_weight(), 0);
        assert_eq!(plan.imbalance(), 1.0);
        // Empty-row matrix (all-zero rowptr deltas in the middle).
        let plan = ExecPlan::nnz_balanced(&[0, 3, 3, 3, 6], 2);
        assert!(plan.is_well_formed());
        assert_eq!(plan.worker_weight(0) + plan.worker_weight(1), 6);
    }

    #[test]
    fn balanced_blocks_assigns_contiguous_runs() {
        let bounds = [0usize, 4, 8, 12, 16];
        let weights = [10u64, 1, 1, 10];
        let plan = ExecPlan::balanced_blocks(&bounds, &weights, 2);
        assert!(plan.is_well_formed());
        assert_eq!(plan.num_partitions(), 4);
        assert_eq!(plan.worker_weight(0) + plan.worker_weight(1), 22);
        for w in 0..2 {
            assert!(plan.worker_weight(w) <= plan.balance_bound());
        }
    }

    #[test]
    fn pool_runs_disjoint_slices_and_reuses_workers() {
        let pool = WorkerPool::new(4);
        let plan = ExecPlan::equal_rows(103, 4);
        let mut out = vec![0u32; 103];
        // Two dispatches on the same pool: results must reflect the
        // second job everywhere (workers are re-used, not respawned).
        for round in 1..=2u32 {
            pool.run(&plan, &mut out, |_parts, rows, slice| {
                for (j, v) in slice.iter_mut().enumerate() {
                    *v = (rows.start + j) as u32 * round;
                }
            });
        }
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as u32 * 2);
        }
    }

    #[test]
    fn pool_scratch_persists_across_dispatches() {
        let pool = WorkerPool::new(3);
        let plan = ExecPlan::equal_rows(30, 3);
        let mut out = vec![0f32; 30];
        pool.run_batched(&plan, &mut out, 1, |_p, _r, _o, scratch| {
            scratch.resize(16, 7.0);
        });
        // The scratch-less spelling in between leaves it alone.
        pool.run(&plan, &mut out, |_p, _r, slice| slice.fill(1.0));
        pool.run_batched(&plan, &mut out, 1, |_p, _r, o, scratch| {
            // Scratch kept its contents from the first dispatch.
            o.fill(scratch.first().copied().unwrap_or(0.0));
        });
        assert!(out.iter().all(|&v| v == 7.0));
    }

    #[test]
    fn batched_dispatch_matches_per_block_runs() {
        // Every worker sees its plan's parts and rows and exclusive access
        // to every value of those rows, at every width and pool size (one
        // thread is the inline path) — and `run` is the same dispatch at
        // width 1, not a second body.
        let stamp =
            |width: usize, parts: &Range<usize>, rows: &Range<usize>, s: &mut [[usize; 4]]| {
                assert_eq!(s.len(), rows.len() * width);
                for (k, v) in s.iter_mut().enumerate() {
                    *v = [parts.start, parts.end, rows.start + k / width, k % width];
                }
            };
        for (threads, width) in [(1, 1), (1, 4), (3, 1), (3, 4)] {
            let plan = ExecPlan::nnz_balanced(&[0, 5, 6, 7, 107, 108, 110], threads);
            let pool = WorkerPool::new(threads);
            let rows = plan.rows();
            let mut out = vec![[0; 4]; rows * width];
            pool.run_batched(&plan, &mut out, width, |p, r, mine, _scratch| {
                stamp(width, &p, &r, mine)
            });
            for (w, j) in (0..threads).flat_map(|w| (0..width).map(move |j| (w, j))) {
                let parts = plan.worker_parts(w);
                for i in plan.worker_rows(w) {
                    assert_eq!(out[i * width + j], [parts.start, parts.end, i, j]);
                }
            }
            if width == 1 {
                let mut plain = vec![[0; 4]; rows];
                pool.run(&plan, &mut plain, |p, r, s| stamp(1, &p, &r, s));
                assert_eq!(plain, out);
            }
        }
    }

    #[test]
    fn batched_dispatch_rejects_bad_shapes() {
        let plan = ExecPlan::equal_rows(16, 2);
        let pool = WorkerPool::new(2);
        let mut out = vec![0f32; 16];
        assert!(catch_unwind(AssertUnwindSafe(|| {
            pool.run_batched(&plan, &mut out, 0, |_p, _r, _o, _s| {});
        }))
        .is_err());
        assert!(catch_unwind(AssertUnwindSafe(|| {
            // 16 elements is one value a row short of width 2.
            pool.run_batched(&plan, &mut out, 2, |_p, _r, _o, _s| {});
        }))
        .is_err());
    }

    #[test]
    fn concurrent_dispatches_are_serialized() {
        // Two threads hammer run() on one shared pool; the dispatch lock
        // must keep each job's barrier intact, so every element of both
        // outputs reflects its own closure (no cross-talk, no deadlock,
        // no underflow).
        let pool = std::sync::Arc::new(WorkerPool::new(4));
        let plan = ExecPlan::equal_rows(257, 4);
        let mut joins = Vec::new();
        for tag in 1..=2u32 {
            let pool = std::sync::Arc::clone(&pool);
            let plan = plan.clone();
            joins.push(std::thread::spawn(move || {
                let mut out = vec![0u32; 257];
                for _ in 0..50 {
                    out.fill(0);
                    pool.run(&plan, &mut out, |_p, rows, slice| {
                        for (j, v) in slice.iter_mut().enumerate() {
                            *v = (rows.start + j) as u32 * 10 + tag;
                        }
                    });
                    for (i, &v) in out.iter().enumerate() {
                        assert_eq!(v, i as u32 * 10 + tag);
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let plan = ExecPlan::equal_rows(64, 4);
        let mut out = vec![0f32; 64];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&plan, &mut out, |_p, rows, _s| {
                if rows.contains(&40) {
                    panic!("kernel boom");
                }
            });
        }));
        let payload = caught.expect_err("kernel panic must reach the dispatcher");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"kernel boom"));
        // The pool must not be wedged: a later dispatch still completes.
        pool.run(&plan, &mut out, |_p, _r, slice| slice.fill(3.0));
        assert!(out.iter().all(|&v| v == 3.0));
    }

    #[test]
    fn caller_side_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let plan = ExecPlan::equal_rows(16, 2);
        let mut out = vec![0f32; 16];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&plan, &mut out, |_p, rows, _s| {
                if rows.start == 0 {
                    panic!("worker-0 boom");
                }
            });
        }));
        assert!(caught.is_err());
        pool.run(&plan, &mut out, |_p, _r, slice| slice.fill(5.0));
        assert!(out.iter().all(|&v| v == 5.0));
    }

    #[test]
    fn malformed_plan_is_rejected_at_dispatch() {
        // Overlapping worker runs (non-monotone assign) via the
        // unchecked constructor: run() must hard-panic, never carve
        // overlapping &mut slices.
        let plan =
            ExecPlan::from_raw_parts_unchecked(8, vec![0, 6, 8], vec![6, 2], vec![0, 2, 1], 1);
        assert!(!plan.is_well_formed());
        let pool = WorkerPool::new(2);
        let mut out = vec![0f32; 8];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&plan, &mut out, |_p, _r, s| s.fill(1.0));
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn balanced_blocks_rejects_bad_bounds() {
        // Non-zero-based bounds.
        assert!(catch_unwind(|| ExecPlan::balanced_blocks(&[1, 4, 8], &[1, 1], 2)).is_err());
        // Non-monotone bounds.
        assert!(catch_unwind(|| ExecPlan::balanced_blocks(&[0, 8, 4], &[1, 1], 2)).is_err());
    }

    #[test]
    fn pool_reports_metrics() {
        let metrics = Metrics::collecting();
        let pool = WorkerPool::with_metrics(2, metrics.clone());
        let plan = ExecPlan::equal_rows(64, 2);
        let mut out = vec![0f32; 64];
        pool.run(&plan, &mut out, |_p, _r, s| s.fill(1.0));
        let snap = metrics.snapshot();
        assert_eq!(snap.counters.get(POOL_DISPATCHES), Some(&1));
        assert!(snap.timers.contains_key(POOL_DISPATCH_SECONDS));
        assert_eq!(snap.gauges.get(POOL_WORKERS), Some(&2.0));
    }

    #[test]
    fn poisoned_pool_surfaces_typed_error_and_recovers_explicitly() {
        let pool = WorkerPool::new(2);
        let plan = ExecPlan::equal_rows(4, 2);
        let mut out = vec![0u32; 4];

        // A kernel panic does NOT poison: caught, drained, re-raised.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&plan, &mut out, |_p, _r, _s| panic!("kernel bang"));
        }));
        assert!(caught.is_err());
        assert!(
            pool.check_healthy().is_ok(),
            "kernel panics must not poison"
        );

        // A panic unwinding through a held internal lock does.
        pool.poison_for_test();
        let err = pool
            .try_run_batched(&plan, &mut out, 1, |_p, _r, _o, _s| {})
            .expect_err("poisoned pool must refuse dispatch");
        assert_eq!(err.lock_name(), "pool/state");
        assert!(err.to_string().contains("pool/state"), "{err}");
        assert!(err.to_string().contains("clear_poison"), "{err}");
        // The panicking wrappers carry the same message.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&plan, &mut out, |_p, _r, _s| {});
        }));
        let payload = caught.expect_err("run must panic on a poisoned pool");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("worker pool poisoned"), "{msg}");

        // Recovery is explicit, never implicit.
        assert!(pool.check_healthy().is_err());
        pool.clear_poison();
        pool.check_healthy().expect("cleared pool is healthy");
        pool.run(&plan, &mut out, |_p, rows, s| {
            for (i, v) in s.iter_mut().enumerate() {
                *v = (rows.start + i) as u32;
            }
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
    }
}
