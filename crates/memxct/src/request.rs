//! The unified reconstruction request API: one value that fully
//! describes a reconstruction job, executed by [`Reconstructor::run`].
//!
//! MemXCT's economics are memoization — preprocessing is paid once per
//! geometry and amortized over every subsequent solve (Table 5's "All
//! Slices"). Lifting that from "per process" to "per fleet" needs a
//! front door that is *one* request type a service can queue, schedule,
//! checkpoint, and replay, instead of a method per solver × input ×
//! execution mode. A [`ReconRequest`] names:
//!
//! - **what** to solve: [`Solver`] (CG, relaxed SIRT or OS-SIRT) under a
//!   [`StopRule`],
//! - **over which data**: a [`ReconInput`] — one slice, a batched group
//!   solved through the SpMM path, or a whole volume chunked by the
//!   reconstructor's batch width,
//! - **how**: an [`ExecMode`] — serial kernels, the persistent worker
//!   pool, or the distributed threads-as-ranks path with its
//!   fault-tolerance policy,
//! - **with what durability**: an optional [`CheckpointPolicy`] — the
//!   one spelling of where snapshots go, how often, and whether to
//!   resume.
//!
//! The [`ReconstructorBuilder`](crate::ReconstructorBuilder) builds the
//! plan; everything that can differ from one run of it to the next is
//! the request's.
//!
//! [`Reconstructor::run`] is the single entry point, and the axes do not
//! interact: the driver splits the input into groups of the
//! reconstructor's batch width (a slice or batch is one group, a volume
//! one per chunk) and runs every group as one *stint* — restore from the
//! group's snapshot slot, iterate, decide at each boundary whether to
//! save or yield, save — on whichever executor the mode names. Slot =
//! group index, so a volume checkpoints, resumes and is preempted like a
//! slice, and so does every mode.
//! [`Reconstructor::run_controlled`] adds cooperative preemption on top:
//! a scheduler hands in a
//! [`RunControl`], and when preemption is requested the solve checkpoints
//! at the next iteration boundary and returns
//! [`RunOutcome::Preempted`] — resuming the same request later produces
//! bit-identical output (the PR 5 checkpoint guarantee). The `xct-serve`
//! job runtime is built on exactly this mechanism.
//!
//! [`Reconstructor::run`]: crate::Reconstructor::run
//! [`Reconstructor::run_controlled`]: crate::Reconstructor::run_controlled

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::dist::FaultTolerance;
use crate::errors::BuildError;
use crate::operator::KernelBreakdown;
use crate::solvers::{IterationRecord, StopRule};
use xct_geometry::Sinogram;
use xct_runtime::{CheckpointSink, CommLedger, FileCheckpointSink, KernelVolumes};

/// Which update rule drives the solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Solver {
    /// Conjugate gradient on the least-squares system (CGLS), the
    /// paper's solver.
    Cg,
    /// SIRT with row/column-sum normalization.
    Sirt {
        /// Relaxation factor (must be positive; 1.0 is the classical
        /// scheme).
        relax: f32,
    },
    /// Ordered-subsets SIRT: one iteration is a relaxed SIRT sub-update
    /// per angle-interleaved row block of `A` (subset `s` holds the rays
    /// of projections `p ≡ s (mod subsets)`), each a block of `A` run on
    /// the request's executor. [`ExecMode::Serial`] and
    /// [`ExecMode::Pooled`], bit-identically, at every width;
    /// [`ExecMode::Distributed`] returns [`BuildError::SerialOnly`].
    OsSirt {
        /// Subsets, `1..=` projections (else [`BuildError::InvalidSubsets`]).
        subsets: usize,
        /// Relaxation factor of every sub-update (must be positive).
        relax: f32,
    },
}

impl Solver {
    /// The relaxation factor this solver would be rejected for: SIRT's
    /// or OS-SIRT's when it is NaN or not positive.
    pub(crate) fn invalid_relaxation(self) -> Option<f32> {
        match self {
            Solver::Sirt { relax } | Solver::OsSirt { relax, .. } => {
                (relax.is_nan() || relax <= 0.0).then_some(relax)
            }
            Solver::Cg => None,
        }
    }
}

/// The measurement data a request reconstructs.
#[derive(Debug, Clone)]
pub enum ReconInput {
    /// One sinogram, one image. Requires a reconstructor built with
    /// batch width 1.
    Slice(Sinogram),
    /// Exactly `batch` sinograms solved together in one engine run (every
    /// SpMV becomes an SpMM streaming the matrix once for the group, and
    /// under [`ExecMode::Distributed`] every halo exchange carries the
    /// whole group). Column `j` is bit-identical to solving slice `j`
    /// alone in the same mode.
    Batch(Vec<Sinogram>),
    /// A slice stack of any length, chunked by the reconstructor's batch
    /// width (a short tail group is padded with clones of its last
    /// sinogram and the padded outputs discarded). Every mode takes all
    /// three inputs.
    Volume(Vec<Sinogram>),
}

impl ReconInput {
    /// Number of caller-visible slices in this input.
    pub fn num_slices(&self) -> usize {
        match self {
            ReconInput::Slice(_) => 1,
            ReconInput::Batch(s) | ReconInput::Volume(s) => s.len(),
        }
    }

    /// Bytes of measurement data carried by this input (what a serving
    /// layer's admission control accounts against its queue bound).
    pub fn data_bytes(&self) -> usize {
        match self {
            ReconInput::Slice(s) => std::mem::size_of_val(s.data()),
            ReconInput::Batch(s) | ReconInput::Volume(s) => {
                s.iter().map(|s| std::mem::size_of_val(s.data())).sum()
            }
        }
    }
}

/// Where and how a request executes.
#[derive(Clone)]
pub enum ExecMode {
    /// In-process kernels on the calling thread: one thread, for every
    /// kernel and every batch width. The worker pool
    /// ([`ExecMode::Pooled`]) is the only way a solve goes parallel.
    Serial,
    /// The persistent worker pool over static nnz-balanced partitions.
    /// Requires a reconstructor built with
    /// [`ReconstructorBuilder::use_pool`](crate::ReconstructorBuilder::use_pool);
    /// otherwise `run` fails with [`ReconError::PoolNotBuilt`].
    Pooled,
    /// The distributed (threads-as-ranks) `R·C·A_p` path: the same solve
    /// driver with ranks as its executor, at the reconstructor's batch
    /// width, running the request's solver and stop rule on the plan's
    /// kernel: buffered pairs at the plan's sizes on a
    /// [`Kernel::Buffered`](crate::Kernel::Buffered) plan, the CSR pair on
    /// a [`Kernel::Serial`](crate::Kernel::Serial) one. Under a
    /// [`RunControl`] and a checkpoint policy the ranks agree at every
    /// iteration boundary on whether to yield (one extra small collective
    /// there; a plain [`Reconstructor::run`](crate::Reconstructor::run)
    /// has none).
    Distributed {
        /// Number of ranks (threads standing in for MPI processes).
        ranks: usize,
        /// Fault-tolerance policy of the ranks' collectives: chaos plan,
        /// deadlines, restart budget. [`FaultTolerance::disabled`] is the
        /// fail-fast run.
        ft: FaultTolerance,
    },
}

impl fmt::Debug for ExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecMode::Serial => write!(f, "Serial"),
            ExecMode::Pooled => write!(f, "Pooled"),
            ExecMode::Distributed { ranks, ft } => f
                .debug_struct("Distributed")
                .field("ranks", ranks)
                .field("max_restarts", &ft.max_restarts)
                .finish_non_exhaustive(),
        }
    }
}

/// Checkpoint/resume policy — the one spelling of durability, for every
/// input, mode and served job, carried by the [`ReconRequest`] (a
/// reconstructor holds none). Also the substrate for preemption: a
/// preempted run snapshots into `sink` regardless of `every`.
#[derive(Clone)]
pub struct CheckpointPolicy {
    /// Snapshot cadence in iterations (0 = only on preemption).
    pub every: usize,
    /// Where snapshots go: group `g` of the request uses slot `g` (a
    /// slice or batch is group 0; a volume has one group per chunk of
    /// the reconstructor's batch width).
    pub sink: Arc<dyn CheckpointSink>,
    /// Resume from the sink's latest snapshot when one exists. A resumed
    /// solve is bit-identical to an uninterrupted one.
    pub resume: bool,
}

impl CheckpointPolicy {
    /// Checkpoint into `sink` every `every` iterations (no resume).
    pub fn new(sink: Arc<dyn CheckpointSink>, every: usize) -> Self {
        CheckpointPolicy {
            every,
            sink,
            resume: false,
        }
    }

    /// Checkpoint into files rooted at `base` (group `g` lands at
    /// `{base}.{g}`) every `every` iterations.
    pub fn at_path(base: impl Into<PathBuf>, every: usize) -> Self {
        CheckpointPolicy::new(Arc::new(FileCheckpointSink::new(base)), every)
    }

    /// Enable (or disable) resuming from the sink's latest snapshot.
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }
}

impl fmt::Debug for CheckpointPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckpointPolicy")
            .field("every", &self.every)
            .field("resume", &self.resume)
            .finish_non_exhaustive()
    }
}

/// One fully-described reconstruction job: solver × stop rule × input ×
/// execution mode × durability. Build with [`ReconRequest::cg`] /
/// [`ReconRequest::sirt`] and refine with the builder-style setters, or
/// construct the fields directly — they are all public.
#[derive(Debug, Clone)]
pub struct ReconRequest {
    /// Update rule.
    pub solver: Solver,
    /// Termination policy (for SIRT, [`StopRule::Fixed`] is the classical
    /// fixed iteration count).
    pub stop: StopRule,
    /// Measurement data.
    pub input: ReconInput,
    /// Execution mode.
    pub mode: ExecMode,
    /// Checkpoint/resume policy; `None` takes no snapshots.
    pub checkpoint: Option<CheckpointPolicy>,
}

impl ReconRequest {
    /// A CG request in [`ExecMode::Serial`].
    pub fn cg(input: ReconInput, stop: StopRule) -> Self {
        ReconRequest {
            solver: Solver::Cg,
            stop,
            input,
            mode: ExecMode::Serial,
            checkpoint: None,
        }
    }

    /// A SIRT request (relaxation 1.0, fixed iteration count) in
    /// [`ExecMode::Serial`].
    pub fn sirt(input: ReconInput, iters: usize) -> Self {
        ReconRequest {
            solver: Solver::Sirt { relax: 1.0 },
            stop: StopRule::Fixed(iters),
            input,
            mode: ExecMode::Serial,
            checkpoint: None,
        }
    }

    /// Replace the execution mode.
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Replace the solver.
    pub fn solver(mut self, solver: Solver) -> Self {
        self.solver = solver;
        self
    }

    /// Attach a checkpoint/resume policy.
    pub fn checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }
}

/// Distributed-run detail carried by a [`ReconResponse`] when the
/// request ran in [`ExecMode::Distributed`].
#[derive(Debug)]
pub struct DistDetail {
    /// Per-rank kernel breakdowns (`ap_s`/`c_s`/`r_s`).
    pub breakdowns: Vec<KernelBreakdown>,
    /// Communication matrix of the whole run.
    pub ledger: CommLedger,
    /// Per-rank modeled volumes (for the machine-model projections).
    pub volumes: Vec<KernelVolumes>,
}

/// What a [`ReconRequest`] produced: per-slice images and convergence
/// records in input order, plus timing attribution.
#[derive(Debug)]
pub struct ReconResponse {
    /// Reconstructed tomograms, each row-major `n × n`; one per
    /// caller-visible input slice.
    pub images: Vec<Vec<f32>>,
    /// Per-slice iteration records. A slice that terminated early (or hit
    /// a numerical breakdown) has a shorter list than its batch-mates.
    pub slice_records: Vec<Vec<IterationRecord>>,
    /// Per-kernel time inside the projection operator. For shared-memory
    /// runs this is a view over the reconstructor's metrics registry and
    /// accumulates across solves; for distributed runs it is the
    /// rank-summed breakdown (per-rank detail in [`DistDetail`]).
    pub breakdown: KernelBreakdown,
    /// Wall-clock seconds attributed to each slice (batched groups share
    /// their group time equally; preprocessing excluded).
    pub per_slice_seconds: Vec<f64>,
    /// One-time preprocessing cost of the reconstructor serving this
    /// request — the amount a plan-cache hit amortizes away.
    pub preprocess_seconds: f64,
    /// Distributed-run extras ([`ExecMode::Distributed`] only; for a
    /// [`ReconInput::Volume`], those of the last group solved).
    pub dist: Option<DistDetail>,
}

impl ReconResponse {
    /// Total iterations run across all slices.
    pub fn iterations(&self) -> usize {
        self.slice_records.iter().map(Vec::len).sum()
    }
}

/// Why a [`ReconRequest`] could not be executed.
#[derive(Debug)]
#[non_exhaustive]
pub enum ReconError {
    /// [`ExecMode::Pooled`] was requested but the reconstructor was built
    /// without [`ReconstructorBuilder::use_pool`] — the pool and its
    /// static partitions only exist when built up front.
    ///
    /// [`ReconstructorBuilder::use_pool`]: crate::ReconstructorBuilder::use_pool
    PoolNotBuilt,
    /// [`Solver::Sirt`] or [`Solver::OsSirt`] was given a non-positive
    /// (or NaN) relaxation factor.
    InvalidRelaxation {
        /// The rejected factor.
        relax: f32,
    },
    /// Construction/validation/solve failure (the pre-existing typed
    /// errors: mismatched lengths, batch-width misuse, communication or
    /// checkpoint faults, …).
    Build(BuildError),
}

impl From<BuildError> for ReconError {
    fn from(e: BuildError) -> Self {
        ReconError::Build(e)
    }
}

impl fmt::Display for ReconError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconError::PoolNotBuilt => write!(
                f,
                "ExecMode::Pooled requires a reconstructor built with \
                 use_pool(true)"
            ),
            ReconError::InvalidRelaxation { relax } => {
                write!(f, "SIRT relaxation must be positive, got {relax}")
            }
            ReconError::Build(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ReconError {}

/// Cooperative preemption handle for [`Reconstructor::run_controlled`].
///
/// A scheduler shares one `RunControl` per running job. Requesting
/// preemption (directly via [`request_preempt`](Self::request_preempt),
/// or armed up front at a deterministic boundary via
/// [`preempt_at`](Self::preempt_at)) makes the solve snapshot into the
/// request's checkpoint sink at the next iteration boundary and return
/// [`RunOutcome::Preempted`]. Re-running the same request with
/// `resume = true` continues from that snapshot, and the final image is
/// bit-identical to an uninterrupted run — for every input and every
/// [`ExecMode`]. Without the request's checkpoint policy there is
/// nowhere to save the state, so nothing yields.
///
/// [`Reconstructor::run_controlled`]: crate::Reconstructor::run_controlled
#[derive(Default)]
pub struct RunControl {
    preempt: AtomicBool,
    /// Iteration boundary to preempt at (0 = disarmed). Boundaries are
    /// the `next_iter` values the engine's between-iteration hook sees,
    /// i.e. `1..=max_iters`.
    preempt_at: AtomicUsize,
    /// Deadline predicate installed by a supervising scheduler: consulted
    /// at every iteration boundary; returning `true` stops the solve like
    /// a preemption but latches [`deadline_exceeded`](Self::deadline_exceeded)
    /// so the supervisor can tell a timeout from an ordinary preempt. The
    /// closure owns its own clock, so a scheduler can use wall time in
    /// production and virtual time under the `xct-model` facade.
    deadline: std::sync::Mutex<Option<Box<dyn Fn() -> bool + Send + Sync>>>,
    /// Latched once the deadline predicate has fired.
    deadline_hit: AtomicBool,
}

impl fmt::Debug for RunControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunControl")
            .field("preempt", &self.preempt)
            .field("preempt_at", &self.preempt_at)
            .field("deadline_hit", &self.deadline_hit)
            .finish_non_exhaustive()
    }
}

impl RunControl {
    /// A control with no preemption requested.
    pub fn new() -> Self {
        RunControl::default()
    }

    /// Ask the running solve to checkpoint and stop at the next
    /// iteration boundary. Callable from any thread.
    pub fn request_preempt(&self) {
        self.preempt.store(true, Ordering::Release);
    }

    /// Arm a deterministic preemption at iteration boundary `boundary`
    /// (1-based; 0 disarms). Used by scheduling drills and tests that
    /// need a reproducible preemption point.
    pub fn preempt_at(&self, boundary: usize) {
        self.preempt_at.store(boundary, Ordering::Release);
    }

    /// Install a deadline predicate, consulted at every iteration
    /// boundary. When it returns `true` the solve checkpoints and stops
    /// exactly like a preemption, and [`deadline_exceeded`] latches so
    /// the caller can distinguish the two. The deadline fires at most
    /// once; once latched the predicate is no longer consulted.
    ///
    /// [`deadline_exceeded`]: Self::deadline_exceeded
    pub fn set_deadline_check(&self, check: impl Fn() -> bool + Send + Sync + 'static) {
        let mut slot = self.deadline.lock().unwrap_or_else(|p| p.into_inner());
        *slot = Some(Box::new(check));
    }

    /// Whether the installed deadline predicate has fired.
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline_hit.load(Ordering::Acquire)
    }

    /// Whether preemption has been requested (live flag only).
    pub fn preempt_requested(&self) -> bool {
        self.preempt.load(Ordering::Acquire)
    }

    /// Engine-side check at iteration boundary `next_iter`.
    pub(crate) fn should_preempt(&self, next_iter: usize) -> bool {
        if self.deadline_hit.load(Ordering::Acquire) {
            return true;
        }
        {
            let slot = self.deadline.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(check) = slot.as_ref() {
                if check() {
                    self.deadline_hit.store(true, Ordering::Release);
                    return true;
                }
            }
        }
        if self.preempt.load(Ordering::Acquire) {
            return true;
        }
        let at = self.preempt_at.load(Ordering::Acquire);
        at != 0 && next_iter >= at
    }
}

/// How a controlled run ended.
// One RunOutcome exists per job; the size spread is irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum RunOutcome {
    /// The solve ran to its stop rule.
    Completed(ReconResponse),
    /// Preemption was honored: the state as of `iteration` is in the
    /// request's checkpoint sink. Re-run the same request with
    /// `resume = true` to continue bit-identically.
    Preempted {
        /// First iteration that did not run.
        iteration: usize,
    },
}
