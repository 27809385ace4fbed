//! The operator layer: every projection path — the memoized layouts (CSR
//! and multi-stage buffered; on the calling thread or through the worker
//! pool), the distributed `RankPlan`/`Communicator` factorization, and
//! the compute-centric CompXCT baseline — behind one
//! [`ProjectionOperator`] trait, so the solver engine in
//! [`crate::solvers`] is written exactly once.
//!
//! The memoized layouts share **one** implementation,
//! [`KernelOperator`]: a *block* of `A` — a forward layout and its
//! transpose, in the layout [`Kernel`] names — driven through a
//! [`WorkerPool`] over precomputed [`PooledPlans`], with a single `apply`
//! body. It always calls the layout's pooled SpMM entry point —
//! `batch = 1` *is* the SpMV — and the serial operator is the one-worker
//! pool, whose worker 0 is the calling thread: one executor, so one set
//! of bits for every worker count. The global `A`, a rank's column block
//! `A_p` and an OS-SIRT subset's row block `Aₛ` are all blocks.
//!
//! The trait contract — four required methods (the two dims,
//! `forward_into`, `back_into`); everything else has a default, so any
//! projection pair a caller holds (a hand-built fan-beam matrix, say)
//! enters the engine by implementing those four:
//!
//! - [`forward_into`](ProjectionOperator::forward_into) /
//!   [`back_into`](ProjectionOperator::back_into) fully overwrite their
//!   output slice (`y = A·x`, `x = Aᵀ·y`);
//! - [`reduce_dot`](ProjectionOperator::reduce_dot) combines a locally
//!   accumulated scalar into the global value. Shared-memory operators
//!   return it unchanged; the distributed operator allreduces across
//!   ranks. Solvers route **every** dot product through this hook, which
//!   is what lets one CG/SIRT loop serve both worlds bit-identically;
//! - [`breakdown`](ProjectionOperator::breakdown) optionally exposes
//!   accumulated per-kernel wall-clock time ([`KernelBreakdown`]), so the
//!   serial and distributed reconstruction paths report timings through
//!   one code path (Fig 9 / Fig 11).
//!
//! Combinator: [`StackedOperator`] appends scaled regularization rows
//! (Tikhonov / gradient smoothing).

use std::cell::RefCell;
use std::time::Instant;

use xct_compxct::CompXct;
use xct_obs::{Metrics, KERNEL_AP_SECONDS, KERNEL_C_SECONDS, KERNEL_R_SECONDS};
use xct_runtime::{ExecPlan, WorkerPool};
use xct_sparse::{spmv_into, BufferedCsr, CsrMatrix};

use crate::preprocess::{Kernel, Operators};

/// Gauge: forward-plan worker nnz imbalance (max worker weight / ideal).
pub const POOL_IMBALANCE_FORWARD: &str = "pool/imbalance/forward";
/// Gauge: backprojection-plan worker nnz imbalance.
pub const POOL_IMBALANCE_BACK: &str = "pool/imbalance/back";

/// Accumulated per-rank kernel times (seconds) across all iterations.
///
/// For shared-memory operators only `ap_s` is populated (all SpMV time);
/// the distributed operator splits time across all three kernels of the
/// `A = R·C·A_p` factorization.
///
/// This is a *view* over an [`xct_obs`] metrics registry: operators record
/// every kernel invocation into the timers [`KERNEL_AP_SECONDS`],
/// [`KERNEL_C_SECONDS`], and [`KERNEL_R_SECONDS`], and
/// [`ProjectionOperator::breakdown`] reads the accumulated totals back.
/// Operators sharing one registry (via `with_metrics`) therefore report
/// combined totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelBreakdown {
    /// Partial projections (A_p and A_pᵀ) — or all SpMV time for
    /// shared-memory operators.
    pub ap_s: f64,
    /// Communication (C, Cᵀ, and scalar allreduces).
    pub c_s: f64,
    /// Overlap reduction / gather assembly (R, Rᵀ).
    pub r_s: f64,
}

impl KernelBreakdown {
    /// Total time.
    pub fn total(&self) -> f64 {
        self.ap_s + self.c_s + self.r_s
    }

    /// Accumulate another breakdown (rank sums, volume-group sums).
    pub(crate) fn add(&mut self, other: &KernelBreakdown) {
        self.ap_s += other.ap_s;
        self.c_s += other.c_s;
        self.r_s += other.r_s;
    }

    /// Read the three kernel timer totals out of a metrics handle; `None`
    /// for a no-op handle (nothing was recorded).
    pub fn from_metrics(metrics: &Metrics) -> Option<KernelBreakdown> {
        if !metrics.enabled() {
            return None;
        }
        Some(KernelBreakdown {
            ap_s: metrics.timer_total(KERNEL_AP_SECONDS).unwrap_or(0.0),
            c_s: metrics.timer_total(KERNEL_C_SECONDS).unwrap_or(0.0),
            r_s: metrics.timer_total(KERNEL_R_SECONDS).unwrap_or(0.0),
        })
    }
}

/// Per-operator SpMV instrumentation: a timer plus `calls`/`nnz`/`bytes`
/// counters under `spmv/<kernel>/…` — and, for batched applications,
/// `calls`/`nnz`/`bytes`/`slices` under `spmm/<kernel>/…` — with names
/// precomputed so the hot path never allocates.
struct SpmvMeter {
    metrics: Metrics,
    /// `calls`, `nnz`, `bytes` under `spmv/<kernel>/`.
    spmv: [String; 3],
    /// `calls`, `nnz`, `bytes`, `slices` under `spmm/<kernel>/`.
    spmm: [String; 4],
}

impl SpmvMeter {
    fn new(metrics: Metrics, kernel: &str) -> Self {
        SpmvMeter {
            metrics,
            spmv: ["calls", "nnz", "bytes"].map(|c| format!("spmv/{kernel}/{c}")),
            spmm: ["calls", "nnz", "bytes", "slices"].map(|c| format!("spmm/{kernel}/{c}")),
        }
    }

    /// Read the clock only when collecting.
    #[inline]
    fn start(&self) -> Option<Instant> {
        self.metrics.enabled().then(Instant::now)
    }

    /// Record one application over `batch` right-hand sides: under
    /// `spmv/*` when `batch == 1`, under `spmm/*` (plus `slices`)
    /// otherwise. `nnz`/`bytes` are counted **once per call**, not per
    /// slice — the kernel streams the matrix once for the whole slab,
    /// which is the point of batching; `spmm/<kernel>/bytes ÷
    /// spmm/<kernel>/slices` is therefore the matrix traffic amortized
    /// per slice.
    #[inline]
    fn record(&self, started: Option<Instant>, nnz: u64, bytes: u64, batch: usize) {
        let Some(t) = started else { return };
        self.metrics
            .timer_observe(KERNEL_AP_SECONDS, t.elapsed().as_secs_f64());
        let names: &[String] = if batch == 1 { &self.spmv } else { &self.spmm };
        self.metrics.counter_add(&names[0], 1);
        self.metrics.counter_add(&names[1], nnz);
        self.metrics.counter_add(&names[2], bytes);
        if let Some(slices) = names.get(3) {
            self.metrics.counter_add(slices, batch as u64);
        }
    }

    fn breakdown(&self) -> Option<KernelBreakdown> {
        KernelBreakdown::from_metrics(&self.metrics)
    }
}

/// A linear projection pair `A` / `Aᵀ` as seen by the iterative solvers.
///
/// Implementations exist for every kernel variant; see the module docs
/// for the contract. All slices are in *ordered* (Hilbert) coordinates
/// for the memoized operators, and raster coordinates for the
/// compute-centric baseline — the operator is agnostic, callers must be
/// consistent.
pub trait ProjectionOperator {
    /// Rows of `A` (sinogram length this operator produces).
    fn nrows(&self) -> usize;
    /// Columns of `A` (tomogram length this operator consumes).
    fn ncols(&self) -> usize;
    /// Forward projection `y = A·x`; overwrites `y` entirely.
    fn forward_into(&self, x: &[f32], y: &mut [f32]);
    /// Backprojection `x = Aᵀ·y`; overwrites `x` entirely.
    fn back_into(&self, y: &[f32], x: &mut [f32]);
    /// Batched forward projection `Y = A·[x₁ … x_k]` over
    /// slice-interleaved slabs (`x` is `ncols × batch`, `y` is
    /// `nrows × batch`; element `i` of slice `j` at `i·batch + j`, see
    /// [`xct_sparse::interleave`]). Slice `j` of the output must be
    /// **bit-identical** to
    /// [`forward_into`](ProjectionOperator::forward_into) on slice `j` of
    /// the input — the default gathers each slice and delegates, which
    /// guarantees it; memoized backends override with an SpMM that streams
    /// the matrix once for the whole slab.
    fn forward_batch_into(&self, x: &[f32], y: &mut [f32], batch: usize) {
        let forward = |x: &[f32], y: &mut [f32]| self.forward_into(x, y);
        per_slice(forward, (x, self.ncols()), (y, self.nrows()), batch);
    }
    /// Batched backprojection `X = Aᵀ·[y₁ … y_k]`, the slice-interleaved
    /// counterpart of [`back_into`](ProjectionOperator::back_into) with
    /// the same per-slice bit-identity contract as
    /// [`forward_batch_into`](ProjectionOperator::forward_batch_into).
    fn back_batch_into(&self, y: &[f32], x: &mut [f32], batch: usize) {
        let back = |y: &[f32], x: &mut [f32]| self.back_into(y, x);
        per_slice(back, (y, self.nrows()), (x, self.ncols()), batch);
    }
    /// Locally accumulate `out.len()` slice-wise dot products over
    /// slice-interleaved slabs: `out[j] = ⟨a_j, b_j⟩`, each slice in the
    /// default [`local_dot`](ProjectionOperator::local_dot)'s summation
    /// order (the default is [`xct_sparse::dot_f64_chunked_batch`], all
    /// `k` chains in one pass); [`KernelOperator`] overrides it with one
    /// pooled dispatch of the same order. Slabs that are not `out.len()`
    /// slices of one length fill `out` with NaN, which the engine retires
    /// as a per-slice breakdown.
    fn local_dot_batch(&self, a: &[f32], b: &[f32], out: &mut [f64]) {
        if malformed(a, b, out) {
            return out.fill(f64::NAN);
        }
        xct_sparse::dot_f64_chunked_batch(a, b, out);
    }
    /// Combine a locally accumulated dot product into the global value.
    /// Identity for shared-memory operators; an allreduce across ranks
    /// for distributed ones.
    fn reduce_dot(&self, local: f64) -> f64 {
        local
    }
    /// Locally accumulate `⟨a, b⟩` in f64, in the one summation order of
    /// every operator: [`xct_sparse::dot_f64_chunked`]'s fixed chunks,
    /// which [`KernelOperator`]'s pooled reduction reproduces bit for bit
    /// at every worker count. Solvers route every dot through this hook
    /// so one engine serves every executor.
    fn local_dot(&self, a: &[f32], b: &[f32]) -> f64 {
        xct_sparse::dot_f64_chunked(a, b)
    }
    /// Accumulated per-kernel timings, if this operator tracks them.
    fn breakdown(&self) -> Option<KernelBreakdown> {
        None
    }
    /// The first communication failure this operator absorbed, if any.
    ///
    /// `forward_into`/`back_into`/`reduce_dot` are infallible by design —
    /// the solver engine's hot loop never branches on errors. A fallible
    /// backend (the distributed operator) instead *poisons* itself on the
    /// first [`xct_runtime::CommError`]: it records the error here,
    /// zero-fills every subsequent output, and skips further
    /// communication, which drives CG to a benign numerical-breakdown
    /// exit within one iteration. Drivers check this hook after the
    /// engine returns and surface the typed error; shared-memory
    /// operators keep the default `None`.
    fn fault(&self) -> Option<xct_runtime::CommError> {
        None
    }
}

/// Whether `a`/`b` cannot be `out.len()` slices of equal length.
fn malformed(a: &[f32], b: &[f32], out: &[f64]) -> bool {
    out.is_empty() || a.len() != b.len() || !a.len().is_multiple_of(out.len())
}

/// Apply the single-slice `f` to each slice of the slice-interleaved
/// `input` (`(slab, n)`: `n` elements a slice) into `output`, through one
/// gathered slice of each side. `batch = 1` is `f` itself.
fn per_slice(
    f: impl Fn(&[f32], &mut [f32]),
    (input, n): (&[f32], usize),
    (output, m): (&mut [f32], usize),
    batch: usize,
) {
    if batch == 1 {
        return f(input, output);
    }
    let (mut xs, mut ys) = (vec![0f32; n], vec![0f32; m]);
    for j in 0..batch {
        for (d, &s) in xs.iter_mut().zip(input[j..].iter().step_by(batch)) {
            *d = s;
        }
        f(&xs, &mut ys);
        for (d, &s) in output[j..].iter_mut().step_by(batch).zip(&ys) {
            *d = s;
        }
    }
}

/// One memoized matrix in the layout a [`Kernel`] names.
#[derive(Clone, Copy)]
pub(crate) enum Layout<'a> {
    Csr(&'a CsrMatrix),
    Buffered(&'a BufferedCsr),
}

/// A block of `A` as the kernels run it: the forward layout and its
/// transpose, whose dims are the block's.
pub(crate) type Block<'a> = (Layout<'a>, Layout<'a>);

impl Operators {
    /// The global `A` in the layout `kernel` selects — the one place a
    /// kernel choice meets the optional layouts.
    ///
    /// # Panics
    /// Panics if the requested layout was not built: a preprocessed plan
    /// holds the layouts of its own `Config::kernel` only.
    pub(crate) fn block(&self, kernel: Kernel) -> Block<'_> {
        fn buffered(layout: &Option<BufferedCsr>) -> Layout<'_> {
            const MISSING: &str =
                "buffered layout not built; set Config::kernel to Kernel::Buffered";
            // lint: allow(no-panic) documented panic; a plan holds its own kernel's layouts
            Layout::Buffered(layout.as_ref().expect(MISSING))
        }
        match kernel {
            Kernel::Serial => (Layout::Csr(&self.a), Layout::Csr(&self.at)),
            Kernel::Buffered => (buffered(&self.a_buf), buffered(&self.at_buf)),
        }
    }
}

impl<'a> Layout<'a> {
    /// Rows and columns.
    fn dims(self) -> (usize, usize) {
        match self {
            Layout::Csr(m) => (m.nrows(), m.ncols()),
            Layout::Buffered(m) => (m.nrows(), m.ncols()),
        }
    }

    /// Stored nonzeroes and the regular bytes one pass streams.
    pub(crate) fn traffic(self) -> (u64, u64) {
        match self {
            Layout::Csr(m) => (m.nnz() as u64, m.regular_bytes()),
            Layout::Buffered(m) => (m.nnz() as u64, m.regular_bytes()),
        }
    }

    /// The layout's balanced row plan for `workers` pool threads.
    fn exec_plan(self, workers: usize) -> ExecPlan {
        match self {
            Layout::Csr(m) => xct_sparse::csr_plan(m, workers),
            Layout::Buffered(m) => m.exec_plan(workers),
        }
    }

    /// `y = M · [x₁ … x_batch]` through the layout's pooled SpMM entry
    /// point (`batch = 1` is its SpMV) on `pool` over `plan`.
    fn spmm(self, x: &[f32], y: &mut [f32], batch: usize, plan: &ExecPlan, pool: &WorkerPool) {
        match self {
            Layout::Csr(m) => xct_sparse::spmm_pooled_into(m, x, y, batch, plan, pool),
            Layout::Buffered(m) => m.spmm_pooled_into(x, y, batch, plan, pool),
        }
    }
}

/// The static execution plans one [`KernelOperator`] reuses every
/// iteration: nnz-balanced row partitions for the forward and
/// backprojection products plus the fixed-chunk reduction plan of each
/// vector length. All four serve every batch width — the row plans drive
/// SpMV and SpMM alike, and a `k`-wide dot dispatches its length's plan
/// over `k` blocks of partials. Built **once** at plan time
/// (preprocessing / reconstructor build), so the solve loop never
/// re-partitions.
pub struct PooledPlans {
    forward: ExecPlan,
    back: ExecPlan,
    dot_rows: ExecPlan,
    dot_cols: ExecPlan,
    /// Widest dot the operator's partials scratch is sized for up front
    /// (it grows on demand past this).
    batch: usize,
}

impl PooledPlans {
    /// Build the plans for `kernel` over the memoized layouts of `ops`,
    /// splitting work across `workers` pool threads. `batch` is the
    /// widest solve expected; it only pre-sizes the dot partials scratch.
    ///
    /// # Panics
    /// Panics if the requested layout was not built (see `Config`).
    pub fn new_batched(ops: &Operators, kernel: Kernel, workers: usize, batch: usize) -> Self {
        Self::for_block(ops.block(kernel), workers, batch)
    }

    /// [`new_batched`](Self::new_batched) over any block of `A`.
    pub(crate) fn for_block((a, at): Block, workers: usize, batch: usize) -> Self {
        let (nrows, ncols) = a.dims();
        PooledPlans {
            forward: a.exec_plan(workers),
            back: at.exec_plan(workers),
            dot_rows: xct_sparse::dot_plan(nrows, workers),
            dot_cols: xct_sparse::dot_plan(ncols, workers),
            batch,
        }
    }

    /// The forward-projection row plan.
    pub fn forward(&self) -> &ExecPlan {
        &self.forward
    }

    /// The backprojection row plan.
    pub fn back(&self) -> &ExecPlan {
        &self.back
    }

    /// Every plan with its name, for validation sweeps.
    pub fn all(&self) -> Vec<(&'static str, &ExecPlan)> {
        vec![
            ("exec(forward)", &self.forward),
            ("exec(back)", &self.back),
            ("exec(dot/rows)", &self.dot_rows),
            ("exec(dot/cols)", &self.dot_cols),
        ]
    }
}

/// A pool or its plans: borrowed from their owner (a reconstructor, a
/// caller), or owned by a standalone operator.
pub(crate) enum Held<'a, T> {
    Borrowed(&'a T),
    Owned(T),
}

impl<T> std::ops::Deref for Held<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match self {
            Held::Borrowed(t) => t,
            Held::Owned(t) => t,
        }
    }
}

/// The [`ProjectionOperator`] over the memoized layouts: a block of `A`
/// (the matrices [`Kernel`] selects from an [`Operators`], a rank's column
/// block, an OS-SIRT subset's row block), driven through a
/// [`WorkerPool`] over precomputed [`PooledPlans`], with no thread spawns
/// and no partitioning decisions inside the solve loop and (after the
/// first application) no heap allocation. The serial operator
/// ([`KernelOperator::new`]) is the one-worker pool: worker 0 is the
/// calling thread, and no thread is spawned. Every column of every
/// product is bit-identical to the layout's own single-slice product.
///
/// `local_dot_batch` is the pooled fixed-chunk reduction, the trait
/// default's order, so a reconstruction is bit-identical for every worker
/// count, serial included, and for one rank.
///
/// Counters land under `spmv/<kernel>/…` (`batch = 1`) or
/// `spmm/<kernel>/…`, `<kernel>` = `serial` / `buffered`, on
/// every pool.
pub struct KernelOperator<'a> {
    a: Layout<'a>,
    at: Layout<'a>,
    nrows: usize,
    ncols: usize,
    plans: Held<'a, PooledPlans>,
    pool: Held<'a, WorkerPool>,
    /// Per-chunk dot partials (`chunks × k` for a `k`-wide dot); only
    /// ever grows.
    dot_scratch: RefCell<Vec<f64>>,
    meter: SpmvMeter,
}

/// `A` or `Aᵀ`.
#[derive(Clone, Copy)]
pub(crate) enum Direction {
    Forward,
    Back,
}

impl<'a> KernelOperator<'a> {
    /// The serial operator over the `kernel` layouts of `ops`: it owns a
    /// one-worker pool (the calling thread) and its one-worker plans.
    ///
    /// # Panics
    /// Panics if the requested layout was not built (see `Config`).
    pub fn new(ops: &'a Operators, kernel: Kernel) -> Self {
        Self::on_pool(ops.block(kernel), Held::Owned(WorkerPool::new(1)))
    }

    /// The `kernel` layouts of `ops` executing on `pool` over `plans`.
    /// The pool's thread count must match the plans' worker count.
    ///
    /// # Panics
    /// Panics if the requested layout was not built (see `Config`).
    pub fn pooled(
        ops: &'a Operators,
        kernel: Kernel,
        plans: &'a PooledPlans,
        pool: &'a WorkerPool,
    ) -> Self {
        let (plans, pool) = (Held::Borrowed(plans), Held::Borrowed(pool));
        Self::on_block(ops.block(kernel), plans, pool)
    }

    /// `block` on `pool`, over plans of its own.
    pub(crate) fn on_pool(block: Block<'a>, pool: Held<'a, WorkerPool>) -> Self {
        let plans = PooledPlans::for_block(block, pool.num_threads(), 1);
        Self::on_block(block, Held::Owned(plans), pool)
    }

    /// `block` executing on `pool` over `plans`.
    pub(crate) fn on_block(
        (a, at): Block<'a>,
        plans: Held<'a, PooledPlans>,
        pool: Held<'a, WorkerPool>,
    ) -> Self {
        let (nrows, ncols) = a.dims();
        let slots =
            xct_sparse::dot_chunks(nrows).max(xct_sparse::dot_chunks(ncols)) * plans.batch.max(1);
        let name = match a {
            Layout::Csr(_) => "serial",
            Layout::Buffered(_) => "buffered",
        };
        KernelOperator {
            a,
            at,
            nrows,
            ncols,
            plans,
            pool,
            dot_scratch: RefCell::new(vec![0f64; slots]),
            meter: SpmvMeter::new(Metrics::collecting(), name),
        }
    }

    /// Record into `metrics` instead of a private registry.
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        self.meter.metrics = metrics;
        self
    }

    /// The one body behind all four projection methods.
    fn apply(&self, direction: Direction, x: &[f32], y: &mut [f32], batch: usize) {
        let t = self.meter.start();
        let (layout, plan) = match direction {
            Direction::Forward => (self.a, &self.plans.forward),
            Direction::Back => (self.at, &self.plans.back),
        };
        layout.spmm(x, y, batch, plan, &self.pool);
        if let (Some(_), Layout::Buffered(m), 1) = (t, layout, batch) {
            let stages = m.num_stages() as u64;
            self.meter
                .metrics
                .counter_add("spmv/buffered/stages", stages);
        }
        let (nnz, bytes) = layout.traffic();
        self.meter.record(t, nnz, bytes, batch);
    }
}

impl ProjectionOperator for KernelOperator<'_> {
    fn nrows(&self) -> usize {
        self.nrows
    }
    fn ncols(&self) -> usize {
        self.ncols
    }
    fn forward_into(&self, x: &[f32], y: &mut [f32]) {
        self.apply(Direction::Forward, x, y, 1);
    }
    fn back_into(&self, y: &[f32], x: &mut [f32]) {
        self.apply(Direction::Back, y, x, 1);
    }
    fn forward_batch_into(&self, x: &[f32], y: &mut [f32], batch: usize) {
        self.apply(Direction::Forward, x, y, batch);
    }
    fn back_batch_into(&self, y: &[f32], x: &mut [f32], batch: usize) {
        self.apply(Direction::Back, y, x, batch);
    }
    fn local_dot_batch(&self, a: &[f32], b: &[f32], out: &mut [f64]) {
        if malformed(a, b, out) {
            return out.fill(f64::NAN);
        }
        let k = out.len();
        let len = a.len() / k;
        let transient;
        let plan = if len == self.nrows {
            &self.plans.dot_rows
        } else if len == self.ncols {
            &self.plans.dot_cols
        } else {
            // No plan precomputed at this length (custom callers only).
            transient = xct_sparse::dot_plan(len, self.pool.num_threads());
            &transient
        };
        let mut scratch = self.dot_scratch.borrow_mut();
        let slots = xct_sparse::dot_chunks(len) * k;
        if scratch.len() < slots {
            scratch.resize(slots, 0.0);
        }
        xct_sparse::dot_f64_batched_pooled(&self.pool, plan, a, b, k, &mut scratch[..slots], out);
    }
    fn breakdown(&self) -> Option<KernelBreakdown> {
        self.meter.breakdown()
    }
}

/// The pooled constructor's old name: `PooledOperator::new(..)` is
/// [`KernelOperator::pooled`]. `recon-bench` still spells it this way;
/// delete once `benchmark/` calls the new name.
#[doc(hidden)]
pub struct PooledOperator;

impl PooledOperator {
    /// [`KernelOperator::pooled`].
    #[allow(clippy::new_ret_no_self)]
    pub fn new<'a>(
        ops: &'a Operators,
        kernel: Kernel,
        plans: &'a PooledPlans,
        pool: &'a WorkerPool,
    ) -> KernelOperator<'a> {
        KernelOperator::pooled(ops, kernel, plans, pool)
    }
}

/// The compute-centric CompXCT baseline (Table 4): no memoized matrix,
/// every application re-traces all rays. Operates in raster coordinates.
pub struct CompOperator<'a> {
    cx: &'a CompXct,
    meter: SpmvMeter,
}

impl<'a> CompOperator<'a> {
    /// Wrap a compute-centric reconstructor.
    pub fn new(cx: &'a CompXct) -> Self {
        CompOperator {
            cx,
            meter: SpmvMeter::new(Metrics::collecting(), "comp"),
        }
    }

    /// Record into `metrics` instead of a private registry.
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        self.meter.metrics = metrics;
        self
    }
}

impl ProjectionOperator for CompOperator<'_> {
    fn nrows(&self) -> usize {
        self.cx.scan().num_rays()
    }
    fn ncols(&self) -> usize {
        self.cx.grid().num_pixels()
    }
    fn forward_into(&self, x: &[f32], y: &mut [f32]) {
        let t = self.meter.start();
        y.copy_from_slice(&self.cx.forward(x));
        // Compute-centric: no memoized matrix, so no nnz/bytes to stream.
        self.meter.record(t, 0, 0, 1);
    }
    fn back_into(&self, y: &[f32], x: &mut [f32]) {
        let t = self.meter.start();
        x.copy_from_slice(&self.cx.backproject(y));
        self.meter.record(t, 0, 0, 1);
    }
    fn breakdown(&self) -> Option<KernelBreakdown> {
        self.meter.breakdown()
    }
}

/// `[A; s·D]` — a primary operator with `s`-scaled regularization rows
/// appended. Running plain CGLS on the stack minimizes
/// `‖y − A·x‖² + s²·‖D·x‖²` (Tikhonov for `D = I`, gradient smoothing
/// for `D` from [`crate::gradient_operator`]).
pub struct StackedOperator<'a> {
    primary: &'a dyn ProjectionOperator,
    d: &'a CsrMatrix,
    dt: &'a CsrMatrix,
    scale: f32,
    scratch: RefCell<Vec<f32>>,
}

impl<'a> StackedOperator<'a> {
    /// Stack `d` (with transpose `dt`) under `primary`, scaled by `scale`.
    ///
    /// # Panics
    /// Panics if `d` does not have the primary operator's column count.
    pub fn new(
        primary: &'a dyn ProjectionOperator,
        d: &'a CsrMatrix,
        dt: &'a CsrMatrix,
        scale: f32,
    ) -> Self {
        // lint: allow(no-panic) documented constructor precondition
        assert_eq!(d.ncols(), primary.ncols(), "regularizer column count");
        // lint: allow(no-panic) documented constructor precondition
        assert_eq!(dt.nrows(), primary.ncols(), "transpose shape");
        // lint: allow(no-panic) documented constructor precondition
        assert_eq!(dt.ncols(), d.nrows(), "transpose shape");
        StackedOperator {
            primary,
            d,
            dt,
            scale,
            scratch: RefCell::new(Vec::new()),
        }
    }
}

impl ProjectionOperator for StackedOperator<'_> {
    fn nrows(&self) -> usize {
        self.primary.nrows() + self.d.nrows()
    }
    fn ncols(&self) -> usize {
        self.primary.ncols()
    }
    fn forward_into(&self, x: &[f32], y: &mut [f32]) {
        let ny = self.primary.nrows();
        let (data, reg) = y.split_at_mut(ny);
        self.primary.forward_into(x, data);
        spmv_into(self.d, x, reg);
        for v in reg.iter_mut() {
            *v *= self.scale;
        }
    }
    fn back_into(&self, y: &[f32], x: &mut [f32]) {
        let ny = self.primary.nrows();
        self.primary.back_into(&y[..ny], x);
        let mut g = self.scratch.borrow_mut();
        g.resize(self.dt.nrows(), 0.0);
        spmv_into(self.dt, &y[ny..], &mut g);
        for (o, &v) in x.iter_mut().zip(g.iter()) {
            *o += self.scale * v;
        }
    }
    fn reduce_dot(&self, local: f64) -> f64 {
        self.primary.reduce_dot(local)
    }
    fn breakdown(&self) -> Option<KernelBreakdown> {
        self.primary.breakdown()
    }
}

impl Operators {
    /// Forward projection `y = A·x` (ordered coordinates) with the chosen
    /// kernel, on the calling thread (the serial operator), unmetered.
    ///
    /// # Panics
    /// Panics if the requested layout was not built (see `Config`).
    pub fn forward(&self, kernel: Kernel, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0f32; self.a.nrows()];
        self.operator_with_metrics(kernel, Metrics::noop())
            .forward_into(x, &mut y);
        y
    }

    /// Backprojection `x = Aᵀ·y` (ordered coordinates).
    ///
    /// # Panics
    /// Panics if the requested layout was not built (see `Config`).
    pub fn back(&self, kernel: Kernel, y: &[f32]) -> Vec<f32> {
        let mut x = vec![0f32; self.a.ncols()];
        self.operator_with_metrics(kernel, Metrics::noop())
            .back_into(y, &mut x);
        x
    }

    /// Build the serial [`ProjectionOperator`] ([`KernelOperator::new`])
    /// for the chosen kernel over these memoized matrices.
    ///
    /// # Panics
    /// Panics if the requested layout was not built (see `Config`).
    pub fn operator(&self, kernel: Kernel) -> Box<dyn ProjectionOperator + '_> {
        self.operator_with_metrics(kernel, Metrics::collecting())
    }

    /// Like [`Operators::operator`], but recording into a caller-supplied
    /// metrics handle (shared registry, or [`Metrics::noop`] for zero-cost
    /// instrumentation).
    ///
    /// # Panics
    /// Panics if the requested layout was not built (see `Config`).
    pub fn operator_with_metrics(
        &self,
        kernel: Kernel,
        metrics: Metrics,
    ) -> Box<dyn ProjectionOperator + '_> {
        Box::new(KernelOperator::new(self, kernel).with_metrics(metrics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{preprocess, Config};
    use std::collections::BTreeMap;
    use xct_geometry::{Grid, ScanGeometry};
    use xct_sparse::dot_f64;

    /// The default (buffered) plan, which carries both kernels' layouts:
    /// the CSR pair and the buffered pair.
    fn ops(n: u32, m: u32) -> Operators {
        preprocess(Grid::new(n), ScanGeometry::new(m, n), &Config::default())
    }

    /// The one operator over its whole matrix: kernel × executor × batch
    /// × direction. Every column must carry the bits of the layout's own
    /// single-slice kernel (called below the operator layer) and stay
    /// within rounding of the CSR reference; the counters must be the
    /// kernel's one `spmv/<kernel>/*` / `spmm/<kernel>/*` family on every
    /// executor, serial (`workers` 0) included.
    #[test]
    fn kernel_operator_matrix_matches_layout_kernels_and_counters() {
        // 352 rows / 256 columns: several partitions, so pooled plans split.
        let ops = ops(16, 22);
        let (m, n) = (ops.a.nrows(), ops.a.ncols());
        let (a_buf, at_buf) = (ops.a_buf.as_ref().unwrap(), ops.at_buf.as_ref().unwrap());
        let slab = |len: usize, batch: usize, salt: usize| -> Vec<f32> {
            (0..len * batch)
                .map(|i| ((i * 7 + salt) as f32 * 0.37).sin())
                .collect()
        };
        for kernel in [Kernel::Serial, Kernel::Buffered] {
            // (name, nnz + bytes of A and Aᵀ, stages) one call pair meters.
            let (name, traffic, stages) = match kernel {
                Kernel::Serial => (
                    "serial",
                    [
                        ops.a.nnz() as u64 + ops.at.nnz() as u64,
                        ops.a.regular_bytes() + ops.at.regular_bytes(),
                    ],
                    None,
                ),
                Kernel::Buffered => (
                    "buffered",
                    [
                        a_buf.nnz() as u64 + at_buf.nnz() as u64,
                        a_buf.regular_bytes() + at_buf.regular_bytes(),
                    ],
                    Some((a_buf.num_stages() + at_buf.num_stages()) as u64),
                ),
            };
            let single = |fwd: bool, v: &[f32]| -> Vec<f32> {
                let mut out = vec![f32::NAN; if fwd { m } else { n }];
                match (kernel, fwd) {
                    (Kernel::Serial, true) => spmv_into(&ops.a, v, &mut out),
                    (Kernel::Serial, false) => spmv_into(&ops.at, v, &mut out),
                    (Kernel::Buffered, true) => a_buf.spmv_into(v, &mut out),
                    (Kernel::Buffered, false) => at_buf.spmv_into(v, &mut out),
                }
                out
            };
            for workers in [0usize, 1, 2, 4] {
                for batch in [1usize, 3, 8] {
                    let tag = format!("{kernel:?} workers {workers} batch {batch}");
                    let pool = WorkerPool::new(workers.max(1));
                    let plans = PooledPlans::new_batched(&ops, kernel, workers.max(1), batch);
                    let metrics = Metrics::collecting();
                    let op = match workers {
                        0 => KernelOperator::new(&ops, kernel),
                        _ => KernelOperator::pooled(&ops, kernel, &plans, &pool),
                    }
                    .with_metrics(metrics.clone());
                    assert_eq!((op.nrows(), op.ncols()), (m, n));
                    let (x, y) = (slab(n, batch, 1), slab(m, batch, 2));
                    let (mut ax, mut aty) = (vec![f32::NAN; m * batch], vec![f32::NAN; n * batch]);
                    op.forward_batch_into(&x, &mut ax, batch);
                    op.back_batch_into(&y, &mut aty, batch);
                    for j in 0..batch {
                        for (fwd, len_in, len_out, input, got) in
                            [(true, n, m, &x, &ax), (false, m, n, &y, &aty)]
                        {
                            let column = |slab: &[f32]| -> Vec<f32> {
                                slab.iter().skip(j).step_by(batch).copied().collect()
                            };
                            let (v, got) = (&column(input), column(got));
                            assert_eq!((v.len(), got.len()), (len_in, len_out));
                            let want = single(fwd, v);
                            assert!(
                                got.iter()
                                    .zip(&want)
                                    .all(|(g, w)| g.to_bits() == w.to_bits()),
                                "{tag} slice {j} fwd {fwd}: bits"
                            );
                            let csr = if fwd { &ops.a } else { &ops.at };
                            for (g, w) in got.iter().zip(xct_sparse::spmv(csr, v)) {
                                assert!((g - w).abs() < 1e-4, "{tag} slice {j}: {g} vs {w}");
                            }
                        }
                    }
                    // batch = 1 through the batch entry points *is* the
                    // single-slice call: same bits, same `spmv/*` counters.
                    let mut calls = 2u64;
                    if batch == 1 {
                        let (mut f1, mut b1) = (vec![0f32; m], vec![0f32; n]);
                        op.forward_into(&x, &mut f1);
                        op.back_into(&y, &mut b1);
                        assert_eq!((f1, b1), (ax, aty), "{tag}");
                        calls = 4;
                    }
                    let family = if batch == 1 { "spmv" } else { "spmm" };
                    let mut want: BTreeMap<String, u64> = [
                        ("calls", calls),
                        ("nnz", calls / 2 * traffic[0]),
                        ("bytes", calls / 2 * traffic[1]),
                    ]
                    .into_iter()
                    .map(|(c, v)| (format!("{family}/{name}/{c}"), v))
                    .collect();
                    if batch > 1 {
                        want.insert(format!("spmm/{name}/slices"), calls * batch as u64);
                    } else if let Some(stages) = stages {
                        want.insert("spmv/buffered/stages".into(), calls / 2 * stages);
                    }
                    let snap = metrics.snapshot();
                    assert_eq!(snap.counters, want, "{tag}");
                    assert_eq!(snap.timers["kernel/ap_s"].count, calls, "{tag}");
                    // breakdown() is a view over the same registry.
                    let kb = op.breakdown().expect("collecting");
                    assert_eq!(kb.ap_s, snap.timers["kernel/ap_s"].total_s);
                    assert!(kb.ap_s > 0.0 && kb.c_s == 0.0 && kb.r_s == 0.0);
                    assert_eq!(op.reduce_dot(3.25), 3.25);
                }
            }
            // A no-op handle records nothing and has no timings to report.
            let quiet = ops.operator_with_metrics(kernel, Metrics::noop());
            quiet.forward_into(&slab(n, 1, 3), &mut vec![0f32; m]);
            assert!(quiet.breakdown().is_none());
        }
    }

    /// The smallest implementor: only the four required methods.
    struct PairSums;

    impl ProjectionOperator for PairSums {
        fn nrows(&self) -> usize {
            2
        }
        fn ncols(&self) -> usize {
            3
        }
        fn forward_into(&self, x: &[f32], y: &mut [f32]) {
            y.copy_from_slice(&[x[0] + x[1], x[2]]);
        }
        fn back_into(&self, y: &[f32], x: &mut [f32]) {
            x.copy_from_slice(&[y[0], y[0], y[1]]);
        }
    }

    #[test]
    fn required_methods_are_enough() {
        let op = PairSums;
        let mut y = vec![0f32; 4];
        // Slices [1, 2, 3] and [4, 5, 6], interleaved.
        op.forward_batch_into(&[1.0, 4.0, 2.0, 5.0, 3.0, 6.0], &mut y, 2);
        assert_eq!(y, vec![3.0, 9.0, 3.0, 6.0]);
        let mut x = vec![0f32; 6];
        op.back_batch_into(&[5.0, 1.0, 7.0, 2.0], &mut x, 2);
        assert_eq!(x, vec![5.0, 1.0, 5.0, 1.0, 7.0, 2.0]);

        // Slices longer than one 4096-element chunk: every batched dot
        // carries the bits of the chunked single dot on its slice.
        let len = 5000;
        let a: Vec<f32> = (0..2 * len).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..2 * len).map(|i| (i as f32 * 0.11).cos()).collect();
        let mut out = [0f64; 2];
        op.local_dot_batch(&a, &b, &mut out);
        for (j, got) in out.iter().enumerate() {
            let column = |v: &[f32]| -> Vec<f32> { v.iter().skip(j).step_by(2).copied().collect() };
            let want = xct_sparse::dot_f64_chunked(&column(&a), &column(&b));
            assert_eq!(got.to_bits(), want.to_bits(), "slice {j}");
        }
        assert_eq!(op.local_dot(&a, &b), xct_sparse::dot_f64_chunked(&a, &b));
        assert_eq!(op.reduce_dot(3.25), 3.25);
        assert!(op.breakdown().is_none());
        assert!(op.fault().is_none());
    }

    /// A slab that is not `out.len()` slices long leaves no stale dot
    /// behind: every slot reads NaN, the engine's per-slice breakdown.
    #[test]
    fn malformed_slab_dots_are_nan() {
        let ops = ops(6, 4);
        let (pool, plans) = (
            WorkerPool::new(2),
            PooledPlans::new_batched(&ops, Kernel::Serial, 2, 3),
        );
        let pooled = KernelOperator::pooled(&ops, Kernel::Serial, &plans, &pool);
        let ops: [&dyn ProjectionOperator; 3] = [
            &PairSums,
            &KernelOperator::new(&ops, Kernel::Serial),
            &pooled,
        ];
        let v = vec![0.5f32; 10];
        for op in ops {
            let mut out = [7.0f64; 3];
            op.local_dot_batch(&v[..9], &v[..9], &mut out);
            assert_eq!(out, [0.75; 3], "a well-formed slab first");
            op.local_dot_batch(&v, &v, &mut out);
            assert!(out.iter().all(|d| d.is_nan()), "{out:?}");
            op.local_dot_batch(&v[..9], &v[..6], &mut out);
            assert!(out.iter().all(|d| d.is_nan()), "{out:?}");
        }
    }

    #[test]
    fn stacked_operator_appends_scaled_rows() {
        let ops = ops(6, 4);
        let primary = KernelOperator::new(&ops, Kernel::Serial);
        let d = crate::regularize::gradient_operator(&ops.tomo_ord);
        let dt = d.transpose_scan();
        let s = 0.5f32;
        let stack = StackedOperator::new(&primary, &d, &dt, s);
        assert_eq!(stack.nrows(), primary.nrows() + d.nrows());
        assert_eq!(stack.ncols(), primary.ncols());

        let x: Vec<f32> = (0..stack.ncols()).map(|i| i as f32 * 0.1).collect();
        let mut y = vec![0f32; stack.nrows()];
        stack.forward_into(&x, &mut y);
        let g = xct_sparse::spmv(&d, &x);
        for (i, &gi) in g.iter().enumerate() {
            assert_eq!(y[primary.nrows() + i], gi * s);
        }

        // ⟨A_s·x, y_aug⟩ == ⟨x, A_sᵀ·y_aug⟩ (adjoint consistency).
        let y_aug: Vec<f32> = (0..stack.nrows()).map(|i| ((i % 3) as f32) - 1.0).collect();
        let mut bt = vec![0f32; stack.ncols()];
        stack.back_into(&y_aug, &mut bt);
        let lhs = dot_f64(&y, &y_aug);
        let rhs = dot_f64(&x, &bt);
        assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0));
    }
}
