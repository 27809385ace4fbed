//! The iterative solver engine (§3.5.2): one iteration loop
//! ([`run_engine_in`]) parameterized by an update rule (CG on the
//! least-squares normal equations, SIRT with row/column-sum
//! normalization, or its ordered-subsets form), an optional constraint
//! projection, a
//! [`ProjectionOperator`] backend, and a [`SolverWorkspace`] whose batch
//! width says how many slices advance together.
//!
//! Every projection path — serial, parallel, buffered, ELL, distributed,
//! and the compute-centric baseline — and every batch width, 1 included,
//! runs through this single loop and one [`UpdateRule::step`] per rule;
//! the operator's `reduce_dot` hook is the only place the shared-memory
//! and distributed worlds differ. Each iteration records `‖y − A·x‖` and
//! `‖x‖`, the two axes of the L-curve (Fig 8), and CG supports the
//! paper's heuristic early termination ("practically considered as a
//! regularization method").
//!
//! There is one way in: hand [`run_engine`] / [`run_engine_in`] a
//! [`ProjectionOperator`] and a rule — `CgRule::new()`,
//! `CgRule::regularized(λ)` or `SirtRule::new(ω)`, with
//! [`Constraint::NonNegative`] for the constrained case — or hand the
//! [`crate::Reconstructor`] a [`crate::ReconRequest`]. Projections held as
//! anything else become an operator by implementing the trait's four
//! required methods.

use crate::checkpoint::{self, SolveState};
use crate::errors::BuildError;
use crate::operator::ProjectionOperator;
use crate::request::{CheckpointPolicy, RunControl, Solver};
use crate::subsets::{OsSirtRule, Subsets};
use xct_obs::Metrics;
use xct_runtime::CheckpointError;

/// Convergence record of one iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// 0-based iteration number.
    pub iter: usize,
    /// Residual norm `‖y − A·x‖₂` after the update.
    pub residual_norm: f64,
    /// Solution norm `‖x‖₂` after the update.
    pub solution_norm: f64,
    /// Wall-clock seconds for the iteration.
    pub seconds: f64,
}

/// Termination policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopRule {
    /// Run exactly this many iterations.
    Fixed(usize),
    /// Stop when the relative residual decrease falls below `min_decrease`
    /// (overfitting onset), or at `max_iters`, whichever is first.
    EarlyTermination {
        /// Hard iteration cap.
        max_iters: usize,
        /// Minimum relative residual decrease per iteration to continue.
        min_decrease: f64,
    },
}

impl StopRule {
    /// The hard iteration cap of this rule (checkpoint validation bounds
    /// a snapshot's iteration counter against it).
    pub fn max_iters(&self) -> usize {
        match *self {
            StopRule::Fixed(n) => n,
            StopRule::EarlyTermination { max_iters, .. } => max_iters,
        }
    }

    fn should_stop(&self, prev: f64, curr: f64) -> bool {
        match *self {
            StopRule::Fixed(_) => false,
            StopRule::EarlyTermination { min_decrease, .. } => {
                prev.is_finite() && prev > 0.0 && (prev - curr) / prev < min_decrease
            }
        }
    }
}

/// Constraint set `C` of the paper's Eq. 1, enforced by projection after
/// every update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Constraint {
    /// Unconstrained.
    #[default]
    None,
    /// `C = {x ≥ 0}` — attenuation coefficients are physically
    /// nonnegative.
    NonNegative,
}

/// Preallocated solver state: the iterate, every intermediate vector the
/// update rules need, and the record lists — sized once, reused across
/// iterations (and across solves, via [`run_engine_in`]).
///
/// This is what makes the steady-state iteration loop allocation-free:
/// `q = A·p` and `s = Aᵀ·r` land in preallocated buffers through the
/// operator's `*_into` kernels, vector updates happen in place, and the
/// record lists' capacity is reserved up front from the stop rule's
/// iteration cap.
///
/// A workspace carries a fixed **batch width** `k` (1 by default): every
/// domain buffer is a slice-interleaved slab, element `i` of slice `j` at
/// `i·k + j` — the layout the operator's SpMM reads and writes, so a
/// row's `k` values are one contiguous copy. Batched solves advance all
/// slices together — the operator streams the matrix once per `k`
/// right-hand sides — while convergence records, the early-termination
/// reference residual, and the active flag stay per-slice, so one slice
/// can retire (early termination or numerical breakdown) without stopping
/// the rest of the batch. What leaves the workspace is slice-major, as at
/// `k = 1` (where the two layouts are one): the solution
/// ([`x`](Self::x)) and checkpoint snapshots.
pub struct SolverWorkspace {
    /// Batch width `k`, fixed at construction.
    batch: usize,
    /// The iterate (tomogram domain, `ncols × k`; slice-major once a
    /// solve has finished).
    pub(crate) x: Vec<f32>,
    /// Sinogram-domain residual (`r` in CG, `y − A·x` in SIRT, subset
    /// residuals in OS-SIRT), `k × nrows`.
    pub(crate) resid: Vec<f32>,
    /// Projection output (`q = A·p` in CG), sinogram domain, `k × nrows`.
    proj: Vec<f32>,
    /// Backprojection output (`s = Aᵀ·r` in CG, the update in SIRT and
    /// OS-SIRT), `k × ncols`.
    pub(crate) back: Vec<f32>,
    /// Search direction (`p` in CG), tomogram domain, `k × ncols`.
    dir: Vec<f32>,
    /// Per-slice per-iteration convergence records.
    slice_records: Vec<Vec<IterationRecord>>,
    /// Per-slice early-termination reference residuals.
    prev_res: Vec<f64>,
    /// Per-slice activity flags; a retired slice is never updated again.
    pub(crate) active: Vec<bool>,
    /// Per-slice residual returns of the current step (`NaN` = numerical
    /// breakdown). Taken/restored by the engine around each
    /// [`UpdateRule::step`] call so the rule can borrow the workspace too.
    step_res: Vec<f64>,
    /// `3·k` slots of per-slice f64 scratch: `[..k]` is shared by the
    /// engine (solution norms) and the update rules (step-size
    /// reductions), `[k..2k]` is rule auxiliary space, and `[2k..3k]`
    /// holds CG's carried per-slice `γ` so a steady-state solve never
    /// touches the allocator.
    scratch: Vec<f64>,
}

impl SolverWorkspace {
    /// A workspace for an `nrows × ncols` operator, all buffers
    /// allocated up front (batch width 1).
    pub fn new(nrows: usize, ncols: usize) -> Self {
        SolverWorkspace::new_batched(nrows, ncols, 1)
    }

    /// A workspace solving `batch` right-hand sides together, slice-major.
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    pub fn new_batched(nrows: usize, ncols: usize, batch: usize) -> Self {
        // lint: allow(no-panic) documented parameter precondition
        assert!(batch > 0, "batch width must be positive");
        let mut ws = SolverWorkspace {
            batch,
            x: Vec::new(),
            resid: Vec::new(),
            proj: Vec::new(),
            back: Vec::new(),
            dir: Vec::new(),
            slice_records: Vec::new(),
            prev_res: Vec::new(),
            active: Vec::new(),
            step_res: Vec::new(),
            scratch: Vec::new(),
        };
        ws.begin(nrows, ncols, 0);
        ws
    }

    /// A workspace sized for `op` (batch width 1).
    pub fn for_operator(op: &dyn ProjectionOperator) -> Self {
        SolverWorkspace::new(op.nrows(), op.ncols())
    }

    /// The batch width this workspace was built for.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The solution slab after a solve: `batch` slice-major blocks of
    /// `ncols` elements each.
    pub fn x(&self) -> &[f32] {
        &self.x
    }

    /// End a solve: de-interleave the iterate once, into `back` (scratch
    /// every rule overwrites before reading), and make that the slab
    /// [`x`](Self::x) shows. At `k = 1` the layouts are one.
    fn finish(&mut self) {
        if self.batch > 1 {
            xct_sparse::deinterleave(&self.x, &mut self.back, self.batch);
            std::mem::swap(&mut self.x, &mut self.back);
        }
    }

    /// A slice-major copy of the slab `v`.
    fn slice_major(&self, v: &[f32]) -> Vec<f32> {
        let mut out = vec![0f32; v.len()];
        xct_sparse::deinterleave(v, &mut out, self.batch);
        out
    }

    /// The per-iteration records of the last solve (slice 0 of a batched
    /// solve).
    pub fn records(&self) -> &[IterationRecord] {
        self.slice_records.first().map(Vec::as_slice).unwrap_or(&[])
    }

    /// Per-slice per-iteration records of the last solve; a slice retired
    /// early has fewer entries than the others.
    pub fn slice_records(&self) -> &[Vec<IterationRecord>] {
        &self.slice_records
    }

    /// Everything iteration `next_iter` reads from the iterations before
    /// it, as the [`SolveState`] a checkpoint stores: the carried slabs
    /// (`x`, `resid`, `dir`, converted to slice-major, so the snapshot
    /// bytes do not depend on the layout), the per-slice records,
    /// reference residuals and activity flags, and `rule`'s carried
    /// scalars.
    pub(crate) fn capture(&self, next_iter: usize, rule: &dyn UpdateRule) -> SolveState {
        SolveState {
            iteration: next_iter,
            batch: self.batch,
            prev_res: self.prev_res.clone(),
            x: self.slice_major(&self.x),
            resid: self.slice_major(&self.resid),
            dir: self.slice_major(&self.dir),
            active: self.active.clone(),
            slice_records: self.slice_records.clone(),
            scalars: rule.carried_scalars(self),
        }
    }

    /// The inverse of [`capture`](Self::capture): size every buffer like
    /// [`begin`](Self::begin) for an `nrows × ncols` operator running at
    /// most `cap` iterations, overwrite what `st` carries, and hand
    /// `rule` its scalars back. `proj`/`back` are scratch — every update
    /// rule overwrites them before reading — so zeroing them preserves
    /// bit-identity. Returns the iteration the solve continues at.
    pub(crate) fn restore(
        &mut self,
        nrows: usize,
        ncols: usize,
        cap: usize,
        st: &SolveState,
        rule: &mut dyn UpdateRule,
    ) -> usize {
        // validate_snapshot already rejected any width mismatch.
        debug_assert_eq!(st.batch, self.batch);
        self.begin(nrows, ncols, cap);
        let k = self.batch;
        xct_sparse::interleave(&st.x, &mut self.x, k);
        xct_sparse::interleave(&st.resid, &mut self.resid, k);
        xct_sparse::interleave(&st.dir, &mut self.dir, k);
        for (dst, src) in self.slice_records.iter_mut().zip(&st.slice_records) {
            dst.extend_from_slice(src);
        }
        self.prev_res.copy_from_slice(&st.prev_res);
        self.active.copy_from_slice(&st.active);
        rule.restore_scalars(&st.scalars, self);
        st.iteration
    }

    /// Reset for a solve against an `nrows × ncols` operator running at
    /// most `cap` iterations: zero the iterate, (re)size buffers, clear
    /// records and reserve their capacity. After the first solve at a
    /// given size this performs no allocation.
    fn begin(&mut self, nrows: usize, ncols: usize, cap: usize) {
        let k = self.batch;
        self.x.clear();
        self.x.resize(ncols * k, 0.0);
        self.resid.clear();
        self.resid.resize(nrows * k, 0.0);
        self.proj.clear();
        self.proj.resize(nrows * k, 0.0);
        self.back.clear();
        self.back.resize(ncols * k, 0.0);
        self.dir.clear();
        self.dir.resize(ncols * k, 0.0);
        self.slice_records.resize_with(k, Vec::new);
        for recs in self.slice_records.iter_mut() {
            recs.clear();
            if recs.capacity() < cap {
                recs.reserve(cap - recs.capacity());
            }
        }
        self.prev_res.clear();
        self.prev_res.resize(k, f64::INFINITY);
        self.active.clear();
        self.active.resize(k, true);
        self.step_res.clear();
        self.step_res.resize(k, f64::NAN);
        self.scratch.clear();
        self.scratch.resize(3 * k, 0.0);
    }
}

/// One iteration of an iterative reconstruction scheme, over every slice
/// of the workspace at once.
///
/// A rule owns its solver state that is a function of the operator alone
/// (SIRT's normalization weights), lazily initialized on the first
/// [`step`](UpdateRule::step) so construction stays trivially cheap; all
/// iteration vectors — and CG's carried per-slice `γ` — live in the
/// shared [`SolverWorkspace`]. Because initialization is lazy, **one rule
/// instance drives one solve** — use a fresh rule per solve. All scalar
/// reductions must go through the operator's `reduce_dot` hook so the
/// rule works unchanged on distributed operators.
///
/// Batch width is a property of the workspace, not of the rule: a
/// single-slice solve is the `ws.batch() == 1` case of the same method.
pub trait UpdateRule {
    /// Advance every active slice of `ws` by one iteration against the
    /// slice-major measurement slab `y` (`ws.batch() × nrows`, read with
    /// stride into the workspace's slice-interleaved slabs). `res` has
    /// `ws.batch()` slots pre-filled with NaN; the rule writes the
    /// residual norm `‖y − A·x‖` of each slice it advanced and leaves NaN
    /// where a slice broke down numerically (the engine retires that
    /// slice without recording the iteration). Retired slices
    /// (inactive in `ws`) must not be advanced. A rule that does
    /// not support the workspace's width leaves every slot NaN.
    fn step(
        &mut self,
        op: &dyn ProjectionOperator,
        y: &[f32],
        ws: &mut SolverWorkspace,
        res: &mut [f64],
    );

    /// Per-slice scalar state carried between iterations, for
    /// checkpointing. Rules whose carried state is either empty or
    /// recomputable from the operator (SIRT's weights are a pure function
    /// of `A`) keep the default empty vector; CG returns its `γ`s, which
    /// live in `ws`.
    fn carried_scalars(&self, _ws: &SolverWorkspace) -> Vec<f64> {
        Vec::new()
    }

    /// Restore the scalars of [`carried_scalars`](Self::carried_scalars)
    /// into a workspace just restored by a checkpoint resume. An empty
    /// slice means the rule carries nothing — it stays fresh.
    fn restore_scalars(&mut self, _scalars: &[f64], _ws: &mut SolverWorkspace) {}
}

/// Run `rule` against `op` on one slice until `stop` says otherwise, from
/// `x = 0`, in a freshly allocated workspace; returns the solution and its
/// records. [`run_engine_in`] is the entry point for everything else — a
/// reused workspace, a batch, metrics.
pub fn run_engine<R: UpdateRule + ?Sized>(
    op: &dyn ProjectionOperator,
    y: &[f32],
    rule: &mut R,
    constraint: Constraint,
    stop: StopRule,
) -> (Vec<f32>, Vec<IterationRecord>) {
    let mut ws = SolverWorkspace::for_operator(op);
    run_engine_in(op, y, rule, constraint, stop, &Metrics::noop(), &mut ws);
    let records = ws.slice_records.pop().unwrap_or_default();
    (ws.x, records)
}

/// The engine entry point: solve the `ws.batch()` right-hand sides of the
/// slice-major slab `y` (`ws.batch() × nrows`) together inside a
/// caller-owned [`SolverWorkspace`]. The solutions (slice-major) and
/// per-slice records are left in the workspace ([`SolverWorkspace::x`],
/// [`SolverWorkspace::slice_records`]).
///
/// The engine owns the skeleton every solver shares: iteration timing,
/// the L-curve record (`residual_norm`/`solution_norm`), constraint
/// projection, and per-slice early-termination bookkeeping — a slice that
/// terminates early (or breaks down) retires without stopping the rest of
/// the batch. On distributed operators all participating ranks observe
/// identical (allreduced) residuals, so they take the same branches and
/// collectives stay aligned.
///
/// Observability: per-slice per-iteration residual/solution norms and
/// wall-clock go into the series `solver/residual_norm`,
/// `solver/solution_norm`, and `solver/iter_seconds`; the solution-norm
/// dot is timed into `solver/dot_s`; iterations that advanced at least
/// one slice are counted in `solver/iterations`, and the number of
/// early-terminated slices lands in the gauge `solver/early_terminated`.
/// Instrumentation only *observes* — the iterate trajectory is
/// bit-identical with [`Metrics::noop`] (the golden tests pin this).
///
/// After the workspace has been warmed at the operator's dimensions (one
/// prior solve), the whole loop performs zero heap allocations: update
/// rules write into workspace buffers via `*_into` kernels, and records
/// land in reserved capacity — on every [`crate::KernelOperator`], the
/// serial one (a one-worker pool) included. Pool workers are spawned once
/// at plan time, so a steady-state iteration also spawns no thread.
pub fn run_engine_in<R: UpdateRule + ?Sized>(
    op: &dyn ProjectionOperator,
    y: &[f32],
    rule: &mut R,
    constraint: Constraint,
    stop: StopRule,
    metrics: &Metrics,
    ws: &mut SolverWorkspace,
) {
    // Infallible: the no-op observer never errors.
    let _ = run_engine_core(
        op,
        y,
        rule,
        constraint,
        stop,
        metrics,
        ws,
        None,
        |_, _, _| Ok(EngineSignal::Continue),
    );
    ws.finish();
}

/// What the between-iterations hook tells the engine to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EngineSignal {
    /// Keep iterating.
    Continue,
    /// Stop at this iteration boundary (the workspace holds a consistent
    /// state for iteration `next_iter`; the hook has typically just
    /// checkpointed it). Used for cooperative preemption.
    Stop,
}

/// How an engine run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EngineExit {
    /// The stop rule (or breakdown/retirement) ended the solve normally.
    Completed,
    /// The hook requested a stop; the solve would have continued from
    /// `next_iter`.
    Stopped {
        /// First iteration that did NOT run.
        next_iter: usize,
    },
}

/// The one engine loop behind [`run_engine_in`] and the checkpointing
/// drivers. `resume` carries the start iteration when the caller
/// pre-restored the workspace (including per-slice `prev_res`/activity)
/// and the rule from a snapshot; `after` runs between iterations (after
/// iteration `next_iter − 1` committed its records) and is where
/// checkpoints are taken — its error aborts the solve, and returning
/// [`EngineSignal::Stop`] ends it cleanly at the boundary (cooperative
/// preemption).
///
/// Each iteration advances all active slices via [`UpdateRule::step`],
/// retires slices individually on numerical breakdown (NaN residual, no
/// record) or early termination (record kept), and the loop stops when
/// every slice has retired or the cap is reached.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_engine_core<R, F>(
    op: &dyn ProjectionOperator,
    y: &[f32],
    rule: &mut R,
    constraint: Constraint,
    stop: StopRule,
    metrics: &Metrics,
    ws: &mut SolverWorkspace,
    resume: Option<usize>,
    mut after: F,
) -> Result<EngineExit, xct_runtime::CheckpointError>
where
    R: UpdateRule + ?Sized,
    F: FnMut(usize, &SolverWorkspace, &R) -> Result<EngineSignal, xct_runtime::CheckpointError>,
{
    let start = match resume {
        // The caller restored ws (including records) and the rule.
        Some(iteration) => iteration,
        None => {
            ws.begin(op.nrows(), op.ncols(), stop.max_iters());
            0
        }
    };
    let k = ws.batch;
    let mut early_slices = 0usize;
    let mut exit = EngineExit::Completed;
    for iter in start..stop.max_iters() {
        if !ws.active.iter().any(|&a| a) {
            break; // every slice retired (e.g. resumed a finished batch)
        }
        let t0 = std::time::Instant::now();
        // Take `step_res` out so the rule can borrow the workspace; NaN
        // marks per-slice numerical breakdown.
        let mut res = std::mem::take(&mut ws.step_res);
        res.fill(f64::NAN);
        rule.step(op, y, ws, &mut res);
        ws.step_res = res;
        // Breakdown (exact solution reached): retire without a record.
        for (active, r) in ws.active.iter_mut().zip(&ws.step_res) {
            *active &= !r.is_nan();
        }
        if !ws.active.iter().any(|&a| a) {
            break; // nothing advanced: the iteration is neither timed nor counted
        }
        if constraint == Constraint::NonNegative {
            for row in ws.x.chunks_exact_mut(k) {
                for (xi, &live) in row.iter_mut().zip(&ws.active) {
                    if live {
                        *xi = xi.max(0.0);
                    }
                }
            }
        }
        let t_dot = metrics.enabled().then(std::time::Instant::now);
        let (sol2, _) = ws.scratch.split_at_mut(k);
        op.local_dot_batch(&ws.x, &ws.x, sol2);
        if let Some(t) = t_dot {
            metrics.timer_observe("solver/dot_s", t.elapsed().as_secs_f64());
        }
        let seconds = t0.elapsed().as_secs_f64();
        metrics.counter_add("solver/iterations", 1);
        for (j, &s2) in sol2.iter().enumerate() {
            if !ws.active[j] {
                continue;
            }
            let res = ws.step_res[j];
            let sol = op.reduce_dot(s2).sqrt();
            metrics.series_push("solver/residual_norm", res);
            metrics.series_push("solver/solution_norm", sol);
            metrics.series_push("solver/iter_seconds", seconds);
            ws.slice_records[j].push(IterationRecord {
                iter,
                residual_norm: res,
                solution_norm: sol,
                seconds,
            });
            if stop.should_stop(ws.prev_res[j], res) {
                ws.active[j] = false;
                early_slices += 1;
            } else {
                ws.prev_res[j] = res;
            }
        }
        if !ws.active.iter().any(|&a| a) {
            break; // no checkpoint after the end
        }
        if after(iter + 1, ws, &*rule)? == EngineSignal::Stop {
            exit = EngineExit::Stopped {
                next_iter: iter + 1,
            };
            break;
        }
    }
    metrics.gauge_set("solver/early_terminated", early_slices as f64);
    Ok(exit)
}

/// One group's solve as every executor of the solve driver sees it — the
/// calling thread, the worker pool, each distributed rank: which rule
/// under which stop rule, and where the group's state lives between
/// stints (snapshot slot = the group's index in its request).
/// [`run`](Self::run) is the one restore → engine → boundary decision →
/// save skeleton.
#[derive(Clone, Copy)]
pub(crate) struct Stint<'a> {
    /// Update rule, built per executor through [`make_rule`].
    pub solver: Solver,
    /// OS-SIRT's subsets, built once per request by the driver that lets
    /// OS-SIRT through (`None` for every other solver).
    pub subsets: Option<&'a Subsets<'a>>,
    /// Termination policy.
    pub stop: StopRule,
    /// Where the engine records (ranks swap in a no-op: P interleaved
    /// series would not be reproducible).
    pub metrics: &'a Metrics,
    /// The effective checkpoint policy; `None` = nothing is ever saved,
    /// so nothing can stop the solve either.
    pub policy: Option<&'a CheckpointPolicy>,
    /// The sink slot this group's snapshots go to.
    pub slot: usize,
    /// Fingerprint of the plan the snapshots belong to.
    pub plan_hash: u64,
    /// Whether the request has groups after this one. Such a group also
    /// saves its terminal state, so a resumed request restores it with
    /// zero iterations; the last (or only) group keeps "no checkpoint
    /// after the end".
    pub more: bool,
    /// The caller's preemption control, if it handed one in.
    pub ctrl: Option<&'a RunControl>,
}

impl Stint<'_> {
    /// The slot's latest snapshot, validated against a `batch`-wide solve
    /// of an `nrows × ncols` plan (`None`: no policy, or nothing saved).
    pub(crate) fn load(
        &self,
        nrows: usize,
        ncols: usize,
        batch: usize,
    ) -> Result<Option<SolveState>, BuildError> {
        let Some(p) = self.policy else {
            return Ok(None);
        };
        let cap = self.stop.max_iters();
        checkpoint::load_state(
            p.sink.as_ref(),
            self.slot,
            self.plan_hash,
            cap,
            nrows,
            ncols,
            batch,
        )
    }

    /// What a fresh stint starts from: [`load`](Self::load) when the
    /// policy asks to resume.
    pub(crate) fn resume_state(
        &self,
        nrows: usize,
        ncols: usize,
        batch: usize,
    ) -> Result<Option<SolveState>, BuildError> {
        match self.policy {
            Some(p) if p.resume => self.load(nrows, ncols, batch),
            _ => Ok(None),
        }
    }

    /// Persist a *global* state into the slot.
    pub(crate) fn save(&self, st: &SolveState) -> Result<(), CheckpointError> {
        match self.policy {
            Some(p) => p.sink.save(
                self.slot,
                &checkpoint::encode_state(self.plan_hash, st).encode(),
            ),
            None => Ok(()),
        }
    }

    /// Run the group on `op` inside `ws`: restore `resume` (this
    /// executor's share of the state) or start from `x = 0`, iterate, and
    /// at every boundary take the one decision — save when the policy's
    /// cadence is due or `preempt(next_iter)` says the control wants the
    /// solve to yield, and stop in the latter case. The two closures are
    /// all an executor adds: `preempt` answers for every participant
    /// alike (ranks agree on rank 0's answer), and `save` gets the
    /// boundary's `(next_iter, workspace, rule)` to
    /// [`capture`](SolverWorkspace::capture) what it persists (ranks
    /// gather their slabs first and only rank 0 captures).
    pub(crate) fn run(
        &self,
        op: &dyn ProjectionOperator,
        y: &[f32],
        ws: &mut SolverWorkspace,
        resume: Option<&SolveState>,
        mut preempt: impl FnMut(usize) -> bool,
        mut save: impl FnMut(usize, &SolverWorkspace, &dyn UpdateRule) -> Result<(), CheckpointError>,
    ) -> Result<EngineExit, CheckpointError> {
        let mut rule = make_rule(self.solver, self.subsets);
        let cap = self.stop.max_iters();
        let resume_point =
            resume.map(|st| ws.restore(op.nrows(), op.ncols(), cap, st, rule.as_mut()));
        let every = self.policy.map_or(0, |p| p.every);
        let exit = run_engine_core(
            op,
            y,
            rule.as_mut(),
            Constraint::None,
            self.stop,
            self.metrics,
            ws,
            resume_point,
            |next_iter, ws, rule| {
                let stop = preempt(next_iter);
                let cadence = every != 0 && next_iter % every == 0;
                if self.policy.is_none() || !(stop || cadence) {
                    return Ok(EngineSignal::Continue);
                }
                save(next_iter, ws, rule)?;
                Ok(if stop {
                    EngineSignal::Stop
                } else {
                    EngineSignal::Continue
                })
            },
        )?;
        if exit == EngineExit::Completed && self.more && self.policy.is_some() {
            // Every live slice has one record per committed iteration.
            let done = ws.slice_records.iter().map(Vec::len).max().unwrap_or(0);
            save(done, ws, rule.as_ref())?;
        }
        ws.finish();
        Ok(exit)
    }
}

/// CGLS: minimize `‖y − A·x‖₂²` (plus `λ‖x‖₂²` when regularized).
///
/// Per iteration: one forward projection (`q = A·p`), one backprojection
/// (`s = Aᵀ·r`), and vector updates — plus the step size found
/// analytically, matching the paper's description of CG's per-iteration
/// cost. Tikhonov regularization is the augmented system `[A; √λ·I]`,
/// which only changes the normal-equation residual to `s = Aᵀr − λx` and
/// the curvature term to `‖q‖² + λ‖p‖²`.
pub struct CgRule {
    lambda: f32,
    /// Whether the per-slice `γ = ⟨s, s⟩` slots in the workspace scratch
    /// (`[2k..3k]`, so a steady-state solve never touches the allocator)
    /// are live: set by the first [`step`](UpdateRule::step) or by a
    /// checkpoint restore. A fresh rule must not trust the stale scratch
    /// of a previously used workspace.
    started: bool,
}

impl CgRule {
    /// Plain CGLS.
    pub fn new() -> Self {
        CgRule::regularized(0.0)
    }

    /// Tikhonov-regularized CGLS with weight `lambda ≥ 0` (the
    /// regularizer `R(x)` of the paper's Eq. 1 with `R = λ‖·‖²`).
    pub fn regularized(lambda: f32) -> Self {
        // lint: allow(no-panic) documented parameter precondition
        assert!(lambda >= 0.0);
        CgRule {
            lambda,
            started: false,
        }
    }
}

impl Default for CgRule {
    fn default() -> Self {
        CgRule::new()
    }
}

impl UpdateRule for CgRule {
    fn step(
        &mut self,
        op: &dyn ProjectionOperator,
        y: &[f32],
        ws: &mut SolverWorkspace,
        res: &mut [f64],
    ) {
        // Workspace roles: resid = r, back = s, dir = p, proj = q — each
        // a slice-interleaved slab. Retired and broken-down slices keep
        // their vectors frozen; the matrix passes still cover their
        // columns (the SpMM streams the matrix once for the whole slab
        // either way) and their results are ignored.
        let k = ws.batch;
        // `qq`/`aux` are per-step temporaries, `gammas` persists across
        // iterations.
        let (qq, rest) = ws.scratch.split_at_mut(k);
        let (aux, gammas) = rest.split_at_mut(k);
        if !self.started {
            // x = 0: residual is y, and the − λ·x term vanishes.
            xct_sparse::interleave(y, &mut ws.resid, k);
            op.back_batch_into(&ws.resid, &mut ws.back, k);
            op.local_dot_batch(&ws.back, &ws.back, gammas);
            for g in gammas.iter_mut() {
                *g = op.reduce_dot(*g);
            }
            ws.dir.copy_from_slice(&ws.back);
            self.started = true;
        }
        // γ = 0: exact solution reached. With no live slice left the
        // matrix passes below would be pure waste.
        if !(0..k).any(|j| ws.active[j] && gammas[j] != 0.0) {
            return;
        }
        op.forward_batch_into(&ws.dir, &mut ws.proj, k);
        op.local_dot_batch(&ws.proj, &ws.proj, qq);
        if self.lambda != 0.0 {
            op.local_dot_batch(&ws.dir, &ws.dir, aux);
        }
        // After this loop `qq[j]` holds the fully reduced curvature of
        // slice j, or 0.0 for slices that are retired or broke down — the
        // marker the remaining loops use to skip them — and `aux[j]` its
        // step size α.
        for j in 0..k {
            if !ws.active[j] || gammas[j] == 0.0 {
                qq[j] = 0.0;
                continue;
            }
            let mut qqj = op.reduce_dot(qq[j]);
            if self.lambda != 0.0 {
                qqj += self.lambda as f64 * op.reduce_dot(aux[j]);
            }
            qq[j] = qqj;
            aux[j] = (gammas[j] / qqj) as f32 as f64;
        }
        update(&mut ws.x, &ws.dir, qq, aux, |xi, pi, alpha| xi + alpha * pi);
        update(&mut ws.resid, &ws.proj, qq, aux, |ri, qi, alpha| {
            ri - alpha * qi
        });
        op.back_batch_into(&ws.resid, &mut ws.back, k);
        if self.lambda != 0.0 {
            update(&mut ws.back, &ws.x, qq, aux, |si, xi, _| {
                si - self.lambda * xi
            });
        }
        op.local_dot_batch(&ws.back, &ws.back, aux);
        for j in 0..k {
            if qq[j] == 0.0 {
                continue;
            }
            let gamma_new = op.reduce_dot(aux[j]);
            aux[j] = (gamma_new / gammas[j]) as f32 as f64;
            gammas[j] = gamma_new;
        }
        update(&mut ws.dir, &ws.back, qq, aux, |pi, si, beta| {
            si + beta * pi
        });
        op.local_dot_batch(&ws.resid, &ws.resid, aux);
        for j in 0..k {
            if qq[j] != 0.0 {
                res[j] = op.reduce_dot(aux[j]).sqrt();
            }
        }
    }

    fn carried_scalars(&self, ws: &SolverWorkspace) -> Vec<f64> {
        // γ is the one scalar CG carries across iterations, per slice; it
        // is allreduced, so every distributed rank holds the same value.
        // Empty before the first step: the scratch slots are not live.
        if self.started {
            ws.scratch[2 * ws.batch..].to_vec()
        } else {
            Vec::new()
        }
    }

    fn restore_scalars(&mut self, scalars: &[f64], ws: &mut SolverWorkspace) {
        let k = ws.batch;
        if scalars.len() == k {
            ws.scratch[2 * k..].copy_from_slice(scalars);
            self.started = true;
        }
    }
}

/// SIRT: `x ← x + ω·C·Aᵀ·R·(y − A·x)` with `R`/`C` the inverse
/// row/column sums, computed on the first step with two extra operator
/// applications on all-ones vectors (no extra tracing pass needed — the
/// matrices are memoized), and `ω` a relaxation factor (1 for plain
/// SIRT).
pub struct SirtRule {
    relaxation: f32,
    weights: Option<(Vec<f32>, Vec<f32>)>,
}

impl SirtRule {
    /// SIRT with relaxation factor `relaxation > 0`.
    pub fn new(relaxation: f32) -> Self {
        // lint: allow(no-panic) documented parameter precondition
        assert!(relaxation > 0.0, "relaxation must be positive");
        SirtRule {
            relaxation,
            weights: None,
        }
    }
}

impl UpdateRule for SirtRule {
    fn step(
        &mut self,
        op: &dyn ProjectionOperator,
        y: &[f32],
        ws: &mut SolverWorkspace,
        res: &mut [f64],
    ) {
        // Workspace roles: resid = weighted residual, back = Aᵀ·R·r.
        let k = ws.batch;
        let n = op.ncols();
        let m = op.nrows();
        let (row_w, col_w) = self.weights.get_or_insert_with(|| {
            // The weights are a pure function of `A`, shared by every
            // slice. The probes' all-ones vectors are slice 0 of ws.dir
            // (which SIRT snapshots carry) and of ws.resid, read through
            // the scratch slabs ws.back / ws.proj, so the only
            // allocations live in the one-time weights themselves
            // (steady-state steps are allocation-free).
            let inv = |v: f32| if v > 0.0 { 1.0 / v } else { 0.0 };
            for (slab, probe, len) in [
                (&mut ws.dir, &mut ws.back, n),
                (&mut ws.resid, &mut ws.proj, m),
            ] {
                slab.iter_mut().step_by(k).for_each(|v| *v = 1.0);
                probe[..len].fill(1.0);
            }
            let mut row_w = vec![0f32; m];
            op.forward_into(&ws.back[..n], &mut row_w);
            for v in row_w.iter_mut() {
                *v = inv(*v);
            }
            let mut col_w = vec![0f32; n];
            op.back_into(&ws.proj[..m], &mut col_w);
            for v in col_w.iter_mut() {
                *v = inv(*v);
            }
            (row_w, col_w)
        });
        // The forward pass covers every slice (the SpMM streams the
        // matrix once for the slab); retired slices' residual columns
        // receive A·x but are never read again this step.
        op.forward_batch_into(&ws.x, &mut ws.resid, k);
        let live = &ws.active;
        for (i, row) in ws.resid.chunks_exact_mut(k).enumerate() {
            for (j, ri) in row.iter_mut().enumerate().filter(|&(j, _)| live[j]) {
                *ri = y[j * m + i] - *ri;
            }
        }
        // Residual norms are taken before row-weighting.
        let (rr, _) = ws.scratch.split_at_mut(k);
        op.local_dot_batch(&ws.resid, &ws.resid, rr);
        for j in (0..k).filter(|&j| live[j]) {
            res[j] = op.reduce_dot(rr[j]).sqrt();
        }
        for (row, &w) in ws.resid.chunks_exact_mut(k).zip(row_w.iter()) {
            for (ri, _) in row.iter_mut().zip(live).filter(|(_, &l)| l) {
                *ri *= w;
            }
        }
        op.back_batch_into(&ws.resid, &mut ws.back, k);
        let relax = self.relaxation;
        for ((row, urow), &w) in
            ws.x.chunks_exact_mut(k)
                .zip(ws.back.chunks_exact(k))
                .zip(col_w.iter())
        {
            for ((xi, &ui), _) in row.iter_mut().zip(urow).zip(live).filter(|(_, &l)| l) {
                *xi += relax * ui * w;
            }
        }
    }
}

/// `dst[i·k + j] = f(dst[i·k + j], src[i·k + j], coef[j] as f32)` over
/// the slice-interleaved slabs, for the slices `j` whose `live[j]` is
/// nonzero (`k = live.len()`); the other columns keep their bits. The
/// slices go in blocks of 8, 4 and 1, as the SpMM kernel cuts them, so
/// each block's row is one vector operation.
fn update(
    dst: &mut [f32],
    src: &[f32],
    live: &[f64],
    coef: &[f64],
    f: impl Fn(f32, f32, f32) -> f32,
) {
    let k = live.len();
    let mut s0 = 0;
    while s0 < k {
        let (live, coef) = (&live[s0..], &coef[s0..]);
        s0 += match k - s0 {
            8.. => update_block::<8>(dst, src, k, s0, live, coef, &f),
            4.. => update_block::<4>(dst, src, k, s0, live, coef, &f),
            _ => update_block::<1>(dst, src, k, s0, live, coef, &f),
        };
    }
}

/// [`update`] for slices `s0..s0 + W`; returns `W`.
fn update_block<const W: usize>(
    dst: &mut [f32],
    src: &[f32],
    k: usize,
    s0: usize,
    live: &[f64],
    coef: &[f64],
    f: impl Fn(f32, f32, f32) -> f32,
) -> usize {
    let live: [bool; W] = std::array::from_fn(|s| live[s] != 0.0);
    let coef: [f32; W] = std::array::from_fn(|s| coef[s] as f32);
    for (d, s) in dst.chunks_exact_mut(k).zip(src.chunks_exact(k)) {
        let (d, s) = (&mut d[s0..s0 + W], &s[s0..s0 + W]);
        for j in 0..W {
            d[j] = if live[j] {
                f(d[j], s[j], coef[j])
            } else {
                d[j]
            };
        }
    }
    W
}

/// The update rule a request's [`Solver`] names — the one factory every
/// executor of the solve driver (serial, pooled, each distributed rank)
/// builds its rule through.
///
/// # Panics
/// If a SIRT relaxation is not positive, or OS-SIRT comes without its
/// subsets; drivers screen requests with `Solver::invalid_relaxation`
/// first and refuse OS-SIRT wherever they build no subsets.
pub(crate) fn make_rule<'a>(
    solver: Solver,
    subsets: Option<&'a Subsets<'a>>,
) -> Box<dyn UpdateRule + 'a> {
    match (solver, subsets) {
        (Solver::Cg, _) => Box::new(CgRule::new()),
        (Solver::Sirt { relax }, _) => Box::new(SirtRule::new(relax)),
        (Solver::OsSirt { relax, .. }, Some(subsets)) => Box::new(OsSirtRule { subsets, relax }),
        // lint: allow(no-panic) documented driver precondition
        (Solver::OsSirt { .. }, None) => unreachable!("OS-SIRT on an executor without subsets"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{preprocess, Config, Kernel, Operators};
    use crate::{cg, rel_err};
    use xct_geometry::{disk, simulate_sinogram, Grid, NoiseModel, ScanGeometry};

    fn setup(n: u32, m: u32) -> (Operators, Vec<f32>, Vec<f32>) {
        let grid = Grid::new(n);
        let scan = ScanGeometry::new(m, n);
        let img = disk(0.6, 1.0).rasterize(n);
        let sino = simulate_sinogram(&img, &grid, &scan, NoiseModel::None, 0);
        let ops = preprocess(grid, scan, &Config::default());
        let y = ops.order_sinogram(&sino);
        let x_true = ops.order_tomogram(&img);
        (ops, y, x_true)
    }

    /// `rule` under `constraint` on the serial CSR operator of `ops`.
    fn solve(
        ops: &Operators,
        y: &[f32],
        rule: &mut dyn UpdateRule,
        constraint: Constraint,
        stop: StopRule,
    ) -> (Vec<f32>, Vec<IterationRecord>) {
        run_engine(&*ops.operator(Kernel::Serial), y, rule, constraint, stop)
    }

    #[test]
    fn cgls_converges_on_clean_data() {
        let (ops, y, x_true) = setup(24, 36);
        let (x, recs) = cg(&ops, Kernel::Serial, &y, StopRule::Fixed(30));
        assert!(rel_err(&x, &x_true) < 0.15, "err {}", rel_err(&x, &x_true));
        // Residual decreases monotonically for CGLS.
        for w in recs.windows(2) {
            assert!(w[1].residual_norm <= w[0].residual_norm * 1.0001);
        }
    }

    #[test]
    fn cgls_beats_sirt_per_iteration() {
        // §3.5.2: CG converges faster than SIRT. After 10 iterations each,
        // CG's residual must be smaller.
        let (ops, y, _) = setup(24, 36);
        let (_, cg) = cg(&ops, Kernel::Serial, &y, StopRule::Fixed(10));
        let sirt = &mut SirtRule::new(1.0);
        let (_, si) = solve(&ops, &y, sirt, Constraint::None, StopRule::Fixed(10));
        assert!(
            cg.last().unwrap().residual_norm < si.last().unwrap().residual_norm,
            "cg {} vs sirt {}",
            cg.last().unwrap().residual_norm,
            si.last().unwrap().residual_norm
        );
    }

    #[test]
    fn early_termination_stops_before_cap() {
        let (ops, y, _) = setup(16, 24);
        let stop = StopRule::EarlyTermination {
            max_iters: 500,
            min_decrease: 1e-3,
        };
        let (_, recs) = cg(&ops, Kernel::Serial, &y, stop);
        assert!(recs.len() < 500, "should stop early, ran {}", recs.len());
        assert!(recs.len() > 3, "should run a few iterations");
    }

    #[test]
    fn solvers_record_lcurve_axes() {
        let (ops, y, _) = setup(16, 24);
        let sirt = &mut SirtRule::new(1.0);
        let (_, recs) = solve(&ops, &y, sirt, Constraint::None, StopRule::Fixed(5));
        assert_eq!(recs.len(), 5);
        // Solution norm grows from zero; residual shrinks.
        assert!(recs[4].solution_norm > recs[0].solution_norm * 0.99);
        assert!(recs[4].residual_norm < recs[0].residual_norm);
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let (ops, y, _) = setup(16, 24);
        let zeros = vec![0f32; y.len()];
        let (x, recs) = cg(&ops, Kernel::Serial, &zeros, StopRule::Fixed(5));
        assert!(x.iter().all(|&v| v == 0.0));
        assert!(recs.is_empty(), "gamma == 0 at start");
    }

    #[test]
    fn regularization_shrinks_the_solution_norm() {
        let (ops, y, _) = setup(24, 36);
        let regularized = |lambda| {
            let rule = &mut CgRule::regularized(lambda);
            solve(&ops, &y, rule, Constraint::None, StopRule::Fixed(15)).1
        };
        let plain = cg(&ops, Kernel::Serial, &y, StopRule::Fixed(15)).1;
        let np = plain.last().unwrap().solution_norm;
        let nr = regularized(5.0).last().unwrap().solution_norm;
        assert!(nr < np, "regularized norm {nr} should be below {np}");
        // λ = 0 must reproduce plain CGLS exactly.
        for (a, b) in regularized(0.0).iter().zip(&plain) {
            assert!((a.residual_norm - b.residual_norm).abs() < 1e-9);
        }
    }

    #[test]
    fn nonneg_sirt_produces_nonnegative_images() {
        let (ops, y, x_true) = setup(24, 36);
        let sirt = &mut SirtRule::new(1.0);
        let (x, recs) = solve(&ops, &y, sirt, Constraint::NonNegative, StopRule::Fixed(25));
        assert!(x.iter().all(|&v| v >= 0.0));
        assert_eq!(recs.len(), 25);
        // Still converges toward the (nonnegative) truth.
        assert!(rel_err(&x, &x_true) < 0.5, "err {}", rel_err(&x, &x_true));
        // Residual decreases overall.
        assert!(recs.last().unwrap().residual_norm < recs[0].residual_norm);
    }

    #[test]
    fn buffered_kernel_solves_identically_enough() {
        let (ops, y, _) = setup(24, 36);
        let (xs, _) = cg(&ops, Kernel::Serial, &y, StopRule::Fixed(10));
        let (xb, _) = cg(&ops, Kernel::Buffered, &y, StopRule::Fixed(10));
        assert!(
            rel_err(&xb, &xs) < 1e-3,
            "kernels diverged: {}",
            rel_err(&xb, &xs)
        );
    }

    #[test]
    fn instrumented_engine_is_bit_identical_and_records() {
        let (ops, y, _) = setup(16, 24);
        let plain_op = crate::operator::KernelOperator::new(&ops, Kernel::Serial);
        let (x_plain, recs_plain) = run_engine(
            &plain_op,
            &y,
            &mut CgRule::new(),
            Constraint::None,
            StopRule::Fixed(6),
        );
        let m = Metrics::collecting();
        let inst_op =
            crate::operator::KernelOperator::new(&ops, Kernel::Serial).with_metrics(m.clone());
        let mut ws = SolverWorkspace::for_operator(&inst_op);
        let (rule, stop) = (&mut CgRule::new(), StopRule::Fixed(6));
        run_engine_in(&inst_op, &y, rule, Constraint::None, stop, &m, &mut ws);
        let recs_inst = ws.records();
        assert_eq!(x_plain, ws.x(), "instrumentation must not perturb x");
        for (a, b) in recs_plain.iter().zip(recs_inst) {
            assert_eq!(a.residual_norm.to_bits(), b.residual_norm.to_bits());
            assert_eq!(a.solution_norm.to_bits(), b.solution_norm.to_bits());
        }
        let snap = m.snapshot();
        assert_eq!(snap.counters["solver/iterations"], 6);
        assert_eq!(snap.series["solver/residual_norm"].len(), 6);
        assert_eq!(
            snap.series["solver/residual_norm"][3],
            recs_inst[3].residual_norm
        );
        assert_eq!(snap.series["solver/solution_norm"].len(), 6);
        assert_eq!(snap.series["solver/iter_seconds"].len(), 6);
        assert_eq!(snap.gauges["solver/early_terminated"], 0.0);
        assert_eq!(snap.timers["solver/dot_s"].count, 6);
    }

    #[test]
    fn early_termination_sets_the_gauge() {
        let (ops, y, _) = setup(16, 24);
        let m = Metrics::collecting();
        let op = crate::operator::KernelOperator::new(&ops, Kernel::Serial);
        let stop = StopRule::EarlyTermination {
            max_iters: 500,
            min_decrease: 1e-3,
        };
        let mut ws = SolverWorkspace::for_operator(&op);
        run_engine_in(
            &op,
            &y,
            &mut CgRule::new(),
            Constraint::None,
            stop,
            &m,
            &mut ws,
        );
        assert!(ws.records().len() < 500);
        assert_eq!(m.snapshot().gauges["solver/early_terminated"], 1.0);
    }

    #[test]
    fn engine_runs_directly_on_operators() {
        // The engine over the serial operator equals the engine over a
        // two-worker pool record for record: one executor, one set of bits.
        let (ops, y, _) = setup(16, 24);
        let (pool, plans) = (
            xct_runtime::WorkerPool::new(2),
            crate::PooledPlans::new_batched(&ops, Kernel::Serial, 2, 1),
        );
        let op = crate::KernelOperator::new(&ops, Kernel::Serial);
        let pooled = crate::KernelOperator::pooled(&ops, Kernel::Serial, &plans, &pool);
        let run = |op: &dyn ProjectionOperator| {
            let stop = StopRule::Fixed(8);
            let (x, recs) = run_engine(op, &y, &mut CgRule::new(), Constraint::None, stop);
            let norms = recs.iter().map(|r| (r.residual_norm, r.solution_norm));
            (x, norms.collect::<Vec<_>>())
        };
        assert_eq!(run(&op), run(&pooled));
        let kb = op.breakdown().expect("serial operator is timed");
        assert!(kb.ap_s > 0.0);
    }

    /// The v2 bytes of a width-3 CG snapshot at iteration 4 are pinned
    /// (wall-clock record seconds zeroed): the workspace's slab layout
    /// must never reach a checkpoint. Resuming from those bytes finishes
    /// on the bits of an uninterrupted solve.
    #[test]
    fn width3_snapshot_bytes_are_pinned_and_resume_bit_identical() {
        use crate::checkpoint::{encode_state, load_state, plan_fingerprint};
        use xct_runtime::{fnv1a64, CheckpointSink, MemoryCheckpointSink};
        let (ops, y1, _) = setup(16, 24);
        let y: Vec<f32> = (0..3)
            .flat_map(|j| y1.iter().map(move |&v| v * (1.0 + 0.25 * j as f32)))
            .collect();
        let op = crate::operator::KernelOperator::new(&ops, Kernel::Buffered);
        let (m, n, hash) = (op.nrows(), op.ncols(), plan_fingerprint(&ops));
        let noop = Metrics::noop();
        // Runs `Fixed(8)` from `resume` (or from x = 0) and captures the
        // state at `stop_at` (or at the end).
        let solve = |resume: Option<SolveState>, stop_at: usize| -> SolveState {
            let mut ws = SolverWorkspace::new_batched(m, n, 3);
            let mut rule = CgRule::new();
            let start = resume.map(|st| ws.restore(m, n, 8, &st, &mut rule));
            let mut captured = None;
            let stop = StopRule::Fixed(8);
            run_engine_core(
                &op,
                &y,
                &mut rule,
                Constraint::None,
                stop,
                &noop,
                &mut ws,
                start,
                |next, ws, rule| {
                    if next < stop_at {
                        return Ok(EngineSignal::Continue);
                    }
                    captured = Some(ws.capture(next, rule));
                    Ok(EngineSignal::Stop)
                },
            )
            .unwrap();
            let mut st = captured.unwrap_or_else(|| ws.capture(8, &rule));
            for r in st.slice_records.iter_mut().flatten() {
                r.seconds = 0.0;
            }
            st
        };
        let bytes = encode_state(hash, &solve(None, 4)).encode();
        assert_eq!(
            (bytes.len(), fnv1a64(&bytes)),
            (11_466, 11_499_524_369_428_506_145),
            "v2 bytes moved"
        );
        let sink = MemoryCheckpointSink::new();
        sink.save(0, &bytes).unwrap();
        let resumed = solve(load_state(&sink, 0, hash, 8, m, n, 3).unwrap(), usize::MAX);
        let whole = solve(None, usize::MAX);
        let bits = |st: &SolveState| encode_state(hash, st).encode();
        assert_eq!(bits(&resumed), bits(&whole), "resume is bit-identical");
    }
}
