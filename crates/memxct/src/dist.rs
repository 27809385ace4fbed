//! Distributed reconstruction (§3.4): both-domain partitioning and the
//! `A = R·C·A_p` factorization.
//!
//! Every rank owns one contiguous run of Hilbert-ordered tomogram tiles
//! and one contiguous run of sinogram tiles (Fig 4(b)). Forward projection
//! decomposes into three kernels, timed separately as in Fig 11:
//!
//! - **A_p** — partial forward projection: rank `r` applies the column
//!   block of `A` belonging to its tomogram subdomain, producing partial
//!   sinogram values for every ray that intersects the subdomain;
//! - **C** — sparse communication: partial values travel to the rank that
//!   owns each sinogram row (`MPI_Alltoallv`; only interacting pairs
//!   exchange data);
//! - **R** — reduction: the owner sums overlapping partials.
//!
//! Backprojection is the exact transpose, `Aᵀ = A_pᵀ·Cᵀ·Rᵀ`: owners
//! duplicate the overlapped sinogram data back to the interacting ranks,
//! which apply their local `A_pᵀ`. No tomogram is ever replicated and no
//! atomic update is ever issued.
//!
//! Ranks are an *executor* of the one solve driver
//! ([`crate::Reconstructor::run_controlled`]), not a second driver: a
//! request in [`crate::ExecMode::Distributed`] hands its ranks the same
//! slice-major slab of `k ≥ 1` ordered sinograms, and every rank runs the
//! same stint — the same restore, engine, `make_rule` rule and boundary
//! decision, in a width-`k` workspace — through its [`DistOperator`]. What
//! lives here is what only ranks add: the plans, carving a global state
//! into rank blocks and gathering it back, agreeing on rank 0's answer
//! when a control may ask the solve to yield, and the degrade-and-restart
//! loop.

use crate::checkpoint::{self, SolveState};
use crate::errors::BuildError;
use crate::operator::{
    Block, Direction, Held, KernelBreakdown, KernelOperator, Layout, ProjectionOperator,
};
use crate::plan_check::dist_checker;
use crate::preprocess::Operators;
use crate::solvers::{EngineExit, IterationRecord, SolverWorkspace, Stint, StopRule};
use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;
use xct_hilbert::TileLayout;
use xct_obs::{
    Metrics, FAULT_ABORTS, FAULT_INJECTED, FAULT_RANK_LOSS, FAULT_RESTARTS, FAULT_RETRIES,
    FAULT_TIMEOUTS, KERNEL_AP_SECONDS, KERNEL_C_SECONDS, KERNEL_R_SECONDS,
};
use xct_runtime::{
    run_ranks_with, CommConfig, CommError, CommErrorKind, CommLedger, Communicator, FaultPlan,
    KernelVolumes, WorkerPool,
};
use xct_sparse::{BufferedCsr, CsrMatrix};

/// The distributed path runs the request model's [`Solver`]; this is its
/// old name, kept while `recon-bench` spells `DistSolver::Cg`.
pub use crate::request::Solver as DistSolver;
use crate::request::Solver;

/// Distributed-run configuration. `stop` and `solver` are read only by
/// [`try_reconstruct_distributed`]: a request's own solver and stop rule
/// are the ones its ranks run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistConfig {
    /// Number of ranks (threads standing in for MPI processes).
    pub ranks: usize,
    /// Use the multi-stage buffered kernel for the local SpMVs, at the
    /// plan's sizes (plain CSR when `false` or the plan has no buffered
    /// layout).
    pub use_buffered: bool,
    /// Termination policy — including early termination, which works
    /// because every rank observes the same allreduced residuals.
    pub stop: StopRule,
    /// Solver choice (for SIRT, including its relaxation factor).
    pub solver: Solver,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            ranks: 4,
            use_buffered: true,
            stop: StopRule::Fixed(30),
            solver: Solver::Cg,
        }
    }
}

/// Everything one rank needs to execute its share of the factorized
/// projections: its column block `A_p` of `A` and the halo schedule.
/// Plans are constructed from the globally preprocessed operators, once
/// per request and rank count; a production MPI deployment would exchange
/// the interaction footprints with an index alltoallv instead, but
/// building centrally keeps the threads-as-ranks harness deterministic.
pub struct RankPlan {
    /// This rank.
    pub rank: usize,
    /// Total ranks.
    pub ranks: usize,
    /// Owned tomogram ranks (ordered coordinates).
    pub tomo_range: Range<u32>,
    /// Owned sinogram ranks (ordered coordinates).
    pub sino_range: Range<u32>,
    /// Column block of `A` for this tomogram subdomain: rows are the
    /// interaction rows (compacted), columns are local tomogram indices.
    pub a_local: CsrMatrix,
    /// Transpose of `a_local` (backprojection).
    pub at_local: CsrMatrix,
    /// The buffered layouts of `a_local` and `at_local` when the rank runs
    /// the buffered kernel; `None` runs the CSR pair.
    pub local_buf: Option<(BufferedCsr, BufferedCsr)>,
    /// Global sinogram rank of each interaction row, ascending.
    pub inter_rows: Vec<u32>,
    /// For each owner rank `q`: the sub-range of `inter_rows` lying in
    /// `q`'s sinogram range (possibly empty).
    pub dest_ranges: Vec<Range<usize>>,
    /// For each source rank `s`: the global sinogram rows `s` contributes
    /// to this rank (ascending; computed from `s`'s `dest_ranges`).
    pub rows_from: Vec<Vec<u32>>,
}

/// Split `0..total` into per-rank ranges: by whole tiles when a tile
/// layout exists (the paper's decomposition), else near-equal splits.
fn partition_domain(total: u32, tiles: Option<&TileLayout>, ranks: usize) -> Vec<Range<u32>> {
    match tiles {
        Some(layout) => layout.partition_ranks(ranks),
        None => (0..ranks)
            .map(|p| {
                // in-range: proportional split of a u32-sized domain, so lo <= total
                let lo = (total as u64 * p as u64 / ranks as u64) as u32;
                // in-range: proportional split of a u32-sized domain, so hi <= total
                let hi = (total as u64 * (p + 1) as u64 / ranks as u64) as u32;
                lo..hi
            })
            .collect(),
    }
}

/// Build all rank plans from globally preprocessed operators. With
/// `use_buffered` and a buffered global layout, each rank runs its block
/// buffered at the global layout's sizes (`ops.partsize` and its
/// `buffsize()`); otherwise it runs the CSR pair.
pub fn build_plans(ops: &Operators, ranks: usize, use_buffered: bool) -> Vec<RankPlan> {
    // lint: allow(no-panic) documented precondition; BuildError::ZeroRanks is the checked path
    assert!(ranks > 0);
    // in-range: domain sizes are u32 column/row counts of the CSR layout
    let tomo_ranges = partition_domain(ops.a.ncols() as u32, ops.tomo_tiles.as_ref(), ranks);
    // in-range: domain sizes are u32 column/row counts of the CSR layout
    let sino_ranges = partition_domain(ops.a.nrows() as u32, ops.sino_tiles.as_ref(), ranks);
    let buffsize = ops
        .a_buf
        .as_ref()
        .filter(|_| use_buffered)
        .map(|b| b.buffsize());

    // One sweep over the global matrix buckets every entry by the rank
    // owning its column (O(nnz·log P), not O(nnz·P)).
    let boundaries: Vec<u32> = tomo_ranges.iter().map(|r| r.end).collect();
    let mut rank_rows: Vec<Vec<Vec<(u32, f32)>>> = (0..ranks).map(|_| Vec::new()).collect();
    let mut rank_inter: Vec<Vec<u32>> = (0..ranks).map(|_| Vec::new()).collect();
    {
        // Scratch row buffers, one per rank, reused across rows.
        let mut scratch: Vec<Vec<(u32, f32)>> = (0..ranks).map(|_| Vec::new()).collect();
        let mut touched: Vec<usize> = Vec::new();
        for i in 0..ops.a.nrows() {
            for (c, v) in ops.a.row(i) {
                let owner = boundaries.partition_point(|&b| b <= c);
                if scratch[owner].is_empty() {
                    touched.push(owner);
                }
                scratch[owner].push((c - tomo_ranges[owner].start, v));
            }
            for &owner in &touched {
                // in-range: i indexes CSR rows, which are u32 by layout
                rank_inter[owner].push(i as u32);
                rank_rows[owner].push(std::mem::take(&mut scratch[owner]));
            }
            touched.clear();
        }
    }

    let mut plans: Vec<RankPlan> = (0..ranks)
        .map(|rank| {
            let tomo_range = tomo_ranges[rank].clone();
            let (tlo, thi) = (tomo_range.start, tomo_range.end);
            let rows = std::mem::take(&mut rank_rows[rank]);
            let inter_rows = std::mem::take(&mut rank_inter[rank]);
            let a_local = CsrMatrix::from_rows((thi - tlo) as usize, &rows);
            let at_local = a_local.transpose_scan();
            let buffer = |m: &CsrMatrix, b| BufferedCsr::from_csr(m, ops.partsize, b);
            let local_buf = buffsize.map(|b| (buffer(&a_local, b), buffer(&at_local, b)));
            // Destination sub-ranges by owner.
            let dest_ranges: Vec<Range<usize>> = sino_ranges
                .iter()
                .map(|r| {
                    let lo = inter_rows.partition_point(|&row| row < r.start);
                    let hi = inter_rows.partition_point(|&row| row < r.end);
                    lo..hi
                })
                .collect();
            RankPlan {
                rank,
                ranks,
                tomo_range,
                sino_range: sino_ranges[rank].clone(),
                a_local,
                at_local,
                local_buf,
                inter_rows,
                dest_ranges,
                rows_from: Vec::new(),
            }
        })
        .collect();

    // rows_from[q][s] = inter_rows of s within q's sinogram range.
    for q in 0..ranks {
        let mut rows_from = Vec::with_capacity(ranks);
        for plan in plans.iter() {
            let r = plan.dest_ranges[q].clone();
            rows_from.push(plan.inter_rows[r].to_vec());
        }
        plans[q].rows_from = rows_from;
    }
    plans
}

/// One request's rank executor: its configuration, fault-tolerance
/// policy and rank plans. A plan set is built at most once per rank
/// count, under the `dist/build_plans` timer, when a stint first runs at
/// that count; every later group, and every degrade to that count,
/// reuses it. With `validate`, [`dist_checker`] passes a plan set before
/// any rank runs it; a violation is [`BuildError::PlanCheck`].
pub(crate) struct Ranks<'a> {
    pub(crate) ops: &'a Operators,
    pub(crate) config: DistConfig,
    pub(crate) ft: &'a FaultTolerance,
    pub(crate) validate: bool,
    /// The plan sets built so far (a set's length is its rank count), each
    /// with whether it has passed validation.
    pub(crate) built: Vec<(Vec<RankPlan>, bool)>,
}

impl Ranks<'_> {
    /// The plans over `ranks` ranks, built on first use (timed into
    /// `metrics`).
    fn plans(&mut self, ranks: usize, metrics: &Metrics) -> Result<&[RankPlan], BuildError> {
        let at = match self.built.iter().position(|(p, _)| p.len() == ranks) {
            Some(at) => at,
            None => {
                let _build = metrics.span("dist/build_plans");
                let plans = build_plans(self.ops, ranks, self.config.use_buffered);
                self.built.push((plans, false));
                self.built.len() - 1
            }
        };
        let (plans, checked) = &mut self.built[at];
        if self.validate && !*checked {
            let report = dist_checker(self.ops, plans).run();
            if !report.is_ok() {
                return Err(BuildError::PlanCheck(report));
            }
            *checked = true;
        }
        Ok(plans)
    }
}

impl RankPlan {
    /// The block this rank's `A_p` / `A_pᵀ` run: `local_buf` when built,
    /// else the CSR pair.
    pub(crate) fn block(&self) -> Block<'_> {
        match &self.local_buf {
            Some((a, at)) => (Layout::Buffered(a), Layout::Buffered(at)),
            None => (Layout::Csr(&self.a_local), Layout::Csr(&self.at_local)),
        }
    }

    /// Per-iteration work volumes of this rank for the machine model
    /// (one forward + one backprojection).
    pub fn volumes(&self) -> KernelVolumes {
        let nnz = self.a_local.nnz() as f64;
        let (a, at) = self.block();
        let regular_bytes = (a.traffic().1 + at.traffic().1) as f64;
        let (sent_fwd, peers_fwd) = off_rank(self.rank, self.dest_ranges.iter().map(|r| r.len()));
        let (sent_back, peers_back) = off_rank(self.rank, self.rows_from.iter().map(Vec::len));
        let recv_fwd: usize = self.rows_from.iter().map(|r| r.len()).sum();
        KernelVolumes {
            flops: 4.0 * nnz,
            regular_bytes,
            footprint_bytes: 4.0
                * (self.a_local.ncols() + self.inter_rows.len() + self.sino_range.len()) as f64,
            comm_bytes: 4.0 * (sent_fwd + sent_back) as f64,
            comm_peers: (peers_fwd + peers_back) as f64,
            reduce_bytes: 4.0 * (recv_fwd + self.inter_rows.len()) as f64,
        }
    }
}

/// Rows to other ranks and how many other ranks get any, from a per-rank
/// list of row counts (`rank`'s own excluded).
fn off_rank(rank: usize, rows: impl Iterator<Item = usize>) -> (usize, usize) {
    let off = rows.enumerate().filter(|&(q, _)| q != rank);
    off.fold((0, 0), |(sum, peers), (_, n)| {
        (sum + n, peers + usize::from(n > 0))
    })
}

/// Result of a distributed reconstruction of `k` slices.
pub struct DistOutput {
    /// Reconstructed images in input order, each row-major `n × n`.
    pub images: Vec<Vec<f32>>,
    /// Per-slice convergence records (identical on every rank); a slice
    /// that terminated early has a shorter list than its batch-mates.
    pub slice_records: Vec<Vec<IterationRecord>>,
    /// Per-rank kernel breakdowns.
    pub breakdown: Vec<KernelBreakdown>,
    /// Communication matrix of the whole run.
    pub ledger: CommLedger,
    /// Per-rank modeled volumes.
    pub volumes: Vec<KernelVolumes>,
}

/// Deterministic scalar allreduce: every rank receives every rank's
/// value (exchanged bit-exactly as `u64`) and sums them in rank order,
/// so all ranks compute the identical f64 result.
///
/// # Panics
/// Panics on a communication failure; use [`try_allreduce_f64`] for a
/// typed [`CommError`].
pub fn allreduce_f64(comm: &Communicator, v: f64) -> f64 {
    match try_allreduce_f64(comm, v) {
        Ok(sum) => sum,
        // lint: allow(no-panic) documented panicking shim over the try_ API
        Err(e) => panic!("allreduce failed: {e}"),
    }
}

/// Fallible [`allreduce_f64`].
pub fn try_allreduce_f64(comm: &Communicator, v: f64) -> Result<f64, CommError> {
    let gathered = comm.try_alltoall_counts(vec![v.to_bits(); comm.size()])?;
    Ok(gathered.into_iter().map(f64::from_bits).sum())
}

/// One rank's view of the factorized operator `A = R·C·A_p` as a
/// [`ProjectionOperator`]: `forward_into`/`back_into` run the three-kernel
/// pipelines of its [`RankPlan`], and `reduce_dot` is the rank-ordered
/// allreduce — which is all the generic solver engine needs to run CG or
/// SIRT distributed, early termination included. Each scheduled row of a
/// halo exchange carries its `batch` values, so one round serves a whole
/// batch and slice `j` is bit-identical to the `batch = 1` product.
pub struct DistOperator<'a> {
    plan: &'a RankPlan,
    comm: &'a Communicator,
    /// `A_p` / `A_pᵀ`: the plan's block on a one-worker pool, whose worker
    /// 0 is the rank's own thread.
    local: KernelOperator<'a>,
    /// The interaction-row slab: `A_p`'s partial sums, `A_pᵀ`'s input.
    inter: RefCell<Vec<f32>>,
    kb: RefCell<KernelBreakdown>,
    calls: std::cell::Cell<(u64, u64)>,
    /// First communication failure absorbed by this operator. Once set,
    /// every projection zero-fills its output without communicating and
    /// `reduce_dot` returns the local value, so the solver loop winds
    /// down deterministically (CG hits `qq == 0` within one iteration)
    /// while the origin error stays available via
    /// [`ProjectionOperator::fault`].
    fault: RefCell<Option<CommError>>,
}

impl<'a> DistOperator<'a> {
    /// Wrap one rank's plan and communicator.
    pub fn new(plan: &'a RankPlan, comm: &'a Communicator) -> Self {
        DistOperator {
            plan,
            comm,
            local: KernelOperator::on_pool(plan.block(), Held::Owned(WorkerPool::new(1)))
                .with_metrics(Metrics::noop()),
            inter: RefCell::new(Vec::new()),
            kb: RefCell::new(KernelBreakdown::default()),
            calls: std::cell::Cell::new((0, 0)),
            fault: RefCell::new(None),
        }
    }

    /// Keep the first (origin) failure; later errors are consequences.
    fn poison(&self, e: CommError) {
        let mut fault = self.fault.borrow_mut();
        if fault.is_none() {
            *fault = Some(e);
        }
    }

    fn poisoned(&self) -> bool {
        self.fault.borrow().is_some()
    }

    /// How many (forward, backprojection) applications ran so far.
    pub fn call_counts(&self) -> (u64, u64) {
        self.calls.get()
    }

    /// One halo exchange for `batch` slices in either direction; a
    /// failure poisons the operator and zero-fills `out`.
    fn apply(&self, direction: Direction, input: &[f32], out: &mut [f32], batch: usize) {
        let (f, b) = self.calls.get();
        self.calls.set(match direction {
            Direction::Forward => (f + 1, b),
            Direction::Back => (f, b + 1),
        });
        if self.poisoned() {
            return out.fill(0.0);
        }
        let result = match direction {
            Direction::Forward => self.try_forward(input, out, batch),
            Direction::Back => self.try_back(input, out, batch),
        };
        if let Err(e) = result {
            self.poison(e);
            out.fill(0.0);
        }
    }

    /// This rank's owned block of `y = A·x`, from its tomogram subdomain
    /// `x`; a peer crash, timeout, or corrupt frame surfaces as a typed
    /// [`CommError`].
    fn try_forward(&self, x: &[f32], y: &mut [f32], batch: usize) -> Result<(), CommError> {
        let (plan, kb) = (self.plan, &mut *self.kb.borrow_mut());
        let inter = &mut *self.inter.borrow_mut();
        inter.resize(plan.inter_rows.len() * batch, 0.0);

        // A_p: partial projection over the interaction rows, all slices.
        timed(&mut kb.ap_s, || {
            self.local.forward_batch_into(x, inter, batch)
        });

        // C: one collective routes every slice's partials to the owners.
        let recv = timed(&mut kb.c_s, || {
            let part = |r: &Range<usize>| inter[r.start * batch..r.end * batch].to_vec();
            self.comm
                .try_alltoallv(plan.dest_ranges.iter().map(part).collect())
        })?;

        // R: reduce overlapping partials into the owned blocks, sources
        // in rank order for every slice.
        timed(&mut kb.r_s, || {
            let slo = plan.sino_range.start;
            y.fill(0.0);
            for (rows, vals) in plan.rows_from.iter().zip(recv) {
                debug_assert_eq!(rows.len() * batch, vals.len());
                for (&row, v) in rows.iter().zip(vals.chunks_exact(batch)) {
                    let dst = &mut y[(row - slo) as usize * batch..][..batch];
                    for (d, v) in dst.iter_mut().zip(v) {
                        *d += v;
                    }
                }
            }
        });
        Ok(())
    }

    /// The transpose of [`DistOperator::try_forward`].
    fn try_back(&self, y: &[f32], x: &mut [f32], batch: usize) -> Result<(), CommError> {
        let (plan, kb) = (self.plan, &mut *self.kb.borrow_mut());
        // Rᵀ: owners duplicate every slice's overlapped values per peer.
        let send = timed(&mut kb.r_s, || {
            let slo = plan.sino_range.start;
            let owned = |&row: &u32| &y[(row - slo) as usize * batch..][..batch];
            let payload = |rows: &Vec<u32>| rows.iter().flat_map(owned).copied().collect();
            plan.rows_from.iter().map(payload).collect()
        });

        // Cᵀ: the transpose communication pattern, one round.
        let recv = timed(&mut kb.c_s, || self.comm.try_alltoallv(send))?;

        // Assemble the gathered interaction-row slabs, then A_pᵀ.
        let inter = &mut *self.inter.borrow_mut();
        timed(&mut kb.r_s, || {
            inter.resize(plan.inter_rows.len() * batch, 0.0);
            for (r, vals) in plan.dest_ranges.iter().zip(recv) {
                inter[r.start * batch..r.end * batch].copy_from_slice(&vals);
            }
        });
        timed(&mut kb.ap_s, || self.local.back_batch_into(inter, x, batch));
        Ok(())
    }
}

impl ProjectionOperator for DistOperator<'_> {
    fn nrows(&self) -> usize {
        self.plan.sino_range.len()
    }
    fn ncols(&self) -> usize {
        self.plan.tomo_range.len()
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
    fn reduce_dot(&self, local: f64) -> f64 {
        if self.poisoned() {
            return local;
        }
        let t = Instant::now();
        match try_allreduce_f64(self.comm, local) {
            Ok(v) => {
                self.kb.borrow_mut().c_s += t.elapsed().as_secs_f64();
                v
            }
            Err(e) => {
                self.poison(e);
                local
            }
        }
    }
    fn breakdown(&self) -> Option<KernelBreakdown> {
        Some(*self.kb.borrow())
    }
    fn fault(&self) -> Option<CommError> {
        self.fault.borrow().clone()
    }
}

/// Fault-tolerance policy for a distributed reconstruction: what is
/// about *faults*. Durability — where snapshots go, how often, whether to
/// resume — is the request's [`crate::CheckpointPolicy`], the same value every
/// executor runs under.
///
/// The default policy enables the runtime's supervised execution (30 s
/// collective deadline, bounded delivery retries) with no chaos and one
/// degraded restart; [`FaultTolerance::disabled`] reproduces the
/// historical fail-fast behaviour (unbounded waits, zero restarts) and is
/// what [`try_reconstruct_distributed`] and the builder default use.
#[derive(Clone)]
pub struct FaultTolerance {
    /// Deadline/retry/backoff configuration for every collective.
    pub comm: CommConfig,
    /// Deterministic chaos plan consulted by every collective. The empty
    /// plan injects nothing and is bit-identical to no fault machinery.
    pub faults: Arc<FaultPlan>,
    /// How many degraded restarts (each over one rank fewer) the
    /// coordinator attempts after an unrecoverable rank loss.
    pub max_restarts: usize,
}

impl Default for FaultTolerance {
    fn default() -> Self {
        FaultTolerance {
            comm: CommConfig::default(),
            faults: Arc::new(FaultPlan::new()),
            max_restarts: 1,
        }
    }
}

impl FaultTolerance {
    /// The historical fail-fast policy: unbounded collective waits, no
    /// chaos, no restarts.
    pub fn disabled() -> Self {
        FaultTolerance {
            comm: CommConfig::unbounded(),
            max_restarts: 0,
            ..FaultTolerance::default()
        }
    }
}

/// Run `f`, adding its wall-clock seconds to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// A `Range<u32>` of ordered domain ranks as slab indices.
fn span(r: &Range<u32>) -> Range<usize> {
    r.start as usize..r.end as usize
}

/// Rows and columns of the global operator the plans partition.
fn global_dims(plans: &[RankPlan]) -> (usize, usize) {
    let last = &plans[plans.len() - 1];
    (last.sino_range.end as usize, last.tomo_range.end as usize)
}

/// A rank's share of a global slice-major slab: elements `range` of each
/// `domain`-long block, concatenated (again slice-major).
fn take_blocks(global: &[f32], domain: usize, range: Range<usize>) -> Vec<f32> {
    global
        .chunks_exact(domain.max(1))
        .flat_map(|block| &block[range.clone()])
        .copied()
        .collect()
}

/// The inverse of [`take_blocks`]: write a rank's slice-major `local`
/// slab into elements `range` of each `domain`-long block of `global`.
fn put_blocks(global: &mut [f32], domain: usize, range: Range<usize>, local: &[f32]) {
    let blocks = global.chunks_exact_mut(domain.max(1));
    for (block, part) in blocks.zip(local.chunks_exact(range.len().max(1))) {
        block[range.clone()].copy_from_slice(part);
    }
}

/// A snapshot failure on this rank, as the error ranks report.
fn checkpoint_fault(comm: &Communicator, message: String) -> CommError {
    CommError {
        rank: comm.rank(),
        peer: None,
        collective: "checkpoint",
        kind: CommErrorKind::Checkpoint { message },
    }
}

/// This rank's blocks of a global state — what [`gather_state`] undoes.
fn local_state(global: &SolveState, plans: &[RankPlan], rank: usize) -> SolveState {
    let (nrows, ncols) = global_dims(plans);
    let (tomo, sino) = (span(&plans[rank].tomo_range), span(&plans[rank].sino_range));
    SolveState {
        x: take_blocks(&global.x, ncols, tomo.clone()),
        resid: take_blocks(&global.resid, nrows, sino),
        dir: take_blocks(&global.dir, ncols, tomo),
        // The per-slice state (records, residual reference, allreduced γ)
        // is identical on every rank.
        iteration: global.iteration,
        batch: global.batch,
        prev_res: global.prev_res.clone(),
        active: global.active.clone(),
        slice_records: global.slice_records.clone(),
        scalars: global.scalars.clone(),
    }
}

/// Gather every rank's captured `[x ‖ resid ‖ dir]` (each `k` slice-major
/// blocks) at rank 0 with one collective; rank 0 gets the *global* state
/// back — its own capture supplies the rank-identical per-slice part —
/// the others `None`. Running the gather as a collective keeps snapshots
/// globally consistent (every rank contributes the state of the same
/// iteration boundary), and assembling in global ordered coordinates
/// makes the snapshot rank-count independent: a degraded restart over
/// fewer ranks — or a shared-memory resume at the same width — reads the
/// same file. A malformed contribution is a [`CommErrorKind::Checkpoint`]
/// error, which the restart loop does not retry.
fn gather_state(
    comm: &Communicator,
    plans: &[RankPlan],
    local: SolveState,
) -> Result<Option<SolveState>, CommError> {
    let mut send: Vec<Vec<f32>> = vec![Vec::new(); comm.size()];
    send[0] = [&local.x[..], &local.resid, &local.dir].concat();
    let recv = comm.try_alltoallv(send)?;
    if comm.rank() != 0 {
        return Ok(None);
    }
    let k = local.batch;
    let (nrows, ncols) = global_dims(plans);
    let mut global = SolveState {
        x: vec![0f32; ncols * k],
        resid: vec![0f32; nrows * k],
        dir: vec![0f32; ncols * k],
        ..local
    };
    for (src, payload) in recv.iter().enumerate() {
        let (tomo, sino) = (span(&plans[src].tomo_range), span(&plans[src].sino_range));
        let (tn, sn) = (tomo.len() * k, sino.len() * k);
        if payload.len() != 2 * tn + sn {
            let message = format!(
                "checkpoint gather: rank {src} sent {} values, expected {}",
                payload.len(),
                2 * tn + sn
            );
            return Err(checkpoint_fault(comm, message));
        }
        put_blocks(&mut global.x, ncols, tomo.clone(), &payload[..tn]);
        put_blocks(&mut global.resid, nrows, sino, &payload[tn..tn + sn]);
        put_blocks(&mut global.dir, ncols, tomo, &payload[tn + sn..]);
    }
    Ok(Some(global))
}

/// One rank's share of a supervised solve of the `k` slices in the
/// global slice-major slab `sino_ordered`: the rank executor of
/// [`Stint::run`]. The rank takes its blocks of the measurement and of
/// the global state to resume from, runs the stint unmetered over its
/// [`DistOperator`] in a width-`k` workspace, and adds the two things a
/// boundary needs across ranks — the vote on rank 0's preemption answer
/// and the gather before rank 0 saves. A communication fault absorbed on
/// the way is converted back into a typed error after the engine winds
/// down.
fn solve_rank(
    comm: &Communicator,
    plans: &[RankPlan],
    sino_ordered: &[f32],
    stint: &Stint,
    resume: Option<&SolveState>,
) -> Result<RankResult, CommError> {
    let plan = &plans[comm.rank()];
    let (nrows, _) = global_dims(plans);
    let y = take_blocks(sino_ordered, nrows, span(&plan.sino_range));
    let op = DistOperator::new(plan, comm);
    let mut ws = SolverWorkspace::new_batched(op.nrows(), op.ncols(), sino_ordered.len() / nrows);
    let resume = resume.map(|global| local_state(global, plans, comm.rank()));
    let unmetered = Stint {
        metrics: &Metrics::noop(),
        ..*stint
    };
    let engine = unmetered.run(
        &op,
        &y,
        &mut ws,
        resume.as_ref(),
        // Only a controlled run with a policy votes — an uncontrolled one
        // keeps its collective sequence, and without a policy nothing can
        // be saved, so nothing stops. Rank 0 alone consults the control
        // and one exchange makes its answer everyone's. A poisoned rank
        // skips collectives: the abort flag is already set, so peers fail
        // fast instead of blocking on it.
        |next_iter| {
            let Some(ctrl) = stint.ctrl else { return false };
            let mine = comm.rank() == 0 && ctrl.should_preempt(next_iter);
            if stint.policy.is_none() || op.poisoned() {
                return false;
            }
            let votes = comm.try_alltoall_counts(vec![u64::from(mine); comm.size()]);
            votes.map_err(|e| op.poison(e)).is_ok_and(|v| v[0] != 0)
        },
        |next_iter, ws, rule| {
            if op.poisoned() {
                return Ok(());
            }
            match gather_state(comm, plans, ws.capture(next_iter, rule)) {
                Ok(Some(global)) => stint.save(&global),
                Ok(None) => Ok(()),
                // A failed gather poisons the solve like any other
                // collective failure — the restart loop's to judge.
                Err(e) => {
                    op.poison(e);
                    Ok(())
                }
            }
        },
    );
    if let Some(e) = op.fault() {
        return Err(e);
    }
    let exit = engine.map_err(|ck| checkpoint_fault(comm, ck.to_string()))?;
    let breakdown = *op.kb.borrow();
    Ok((
        ws.x().to_vec(),
        ws.slice_records().to_vec(),
        breakdown,
        op.call_counts(),
        exit,
    ))
}

/// What each rank hands back to the coordinator: its slice-major tomogram
/// slab, the (rank-identical) per-slice convergence records, and its
/// kernel diagnostics.
type RankResult = (
    Vec<f32>,
    Vec<Vec<IterationRecord>>,
    KernelBreakdown,
    (u64, u64),
    EngineExit,
);

/// Assemble the coordinator-side [`DistOutput`] from the per-rank results
/// — one image per slice, the way the shared-memory driver unorders its
/// solution slab — and record the run's observability (kernel timers,
/// convergence series, communication matrix, fault counters).
fn assemble_output(
    ops: &Operators,
    plans: &[RankPlan],
    rank_results: Vec<RankResult>,
    ledger: CommLedger,
    volumes: Vec<KernelVolumes>,
    metrics: &Metrics,
) -> DistOutput {
    let ranks = plans.len();
    let ncols = ops.a.ncols();
    let mut ordered = Vec::new();
    let mut slice_records = Vec::new();
    let mut breakdown = Vec::with_capacity(ranks);
    for (plan, (x_local, recs, kb, (fwd, back), _)) in plans.iter().zip(rank_results) {
        if slice_records.is_empty() {
            ordered.resize(ncols * recs.len(), 0f32);
            slice_records = recs;
        }
        put_blocks(&mut ordered, ncols, span(&plan.tomo_range), &x_local);
        breakdown.push(kb);
        // Per-rank local SpMV volumes (the A_p / A_pᵀ kernel).
        let (a, at) = plan.block();
        let (fwd_bytes, back_bytes) = (a.traffic().1, at.traffic().1);
        metrics.counter_add("spmv/dist/calls", fwd + back);
        metrics.counter_add("spmv/dist/nnz", (fwd + back) * plan.a_local.nnz() as u64);
        metrics.counter_add("spmv/dist/bytes", fwd * fwd_bytes + back * back_bytes);
    }
    if metrics.enabled() {
        for kb in &breakdown {
            metrics.timer_observe(KERNEL_AP_SECONDS, kb.ap_s);
            metrics.timer_observe(KERNEL_C_SECONDS, kb.c_s);
            metrics.timer_observe(KERNEL_R_SECONDS, kb.r_s);
        }
        // Iteration-major, slices within an iteration in order — what the
        // engine itself pushes for a shared-memory batch. A slice only
        // ever retires, so its `i`-th record is iteration `i`'s.
        let iterations = slice_records.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..iterations {
            for r in slice_records.iter().filter_map(|recs| recs.get(i)) {
                metrics.series_push("solver/residual_norm", r.residual_norm);
                metrics.series_push("solver/solution_norm", r.solution_norm);
                metrics.series_push("solver/iter_seconds", r.seconds);
            }
        }
        metrics.counter_add("solver/iterations", iterations as u64);
        metrics.matrix_set("comm/bytes", ranks, ledger.byte_matrix());
        for rank in 0..ranks {
            let s = ledger.collectives(rank);
            metrics.counter_add("comm/collective_calls", s.calls);
            metrics.timer_observe("comm/collective_s", s.seconds);
        }
        let fs = ledger.fault_stats();
        metrics.counter_add(FAULT_INJECTED, fs.injected);
        metrics.counter_add(FAULT_RETRIES, fs.retries);
        metrics.counter_add(FAULT_TIMEOUTS, fs.timeouts);
        metrics.counter_add(FAULT_ABORTS, fs.aborts);
    }
    DistOutput {
        images: ordered
            .chunks_exact(ncols.max(1))
            .map(|slice| ops.unorder_tomogram(slice))
            .collect(),
        slice_records,
        breakdown,
        ledger,
        volumes,
    }
}

/// The distributed executor of the one solve driver: run one stint of
/// the `k` slices of the global slice-major slab `sino_ordered` (`k ×
/// nrows` values in sinogram-ordered coordinates, see
/// [`Operators::order_sinogram`]; `k` is read off its length) over
/// `exec.config.ranks` threads-as-ranks (`stint` names the solver and
/// stop rule; `config`'s own are not read here) over `exec`'s plans.
/// Each rank is an executor of the same [`Stint::run`] as the
/// shared-memory path — at width `k`, through its [`DistOperator`] — so
/// column `j` is bit-identical to slice `j` solved alone over the same
/// ranks. What this body adds is only what ranks need: the restart loop.
///
/// - Every collective runs under `exec.ft.comm`'s deadline/retry budget
///   and consults `exec.ft.faults`; failures surface as
///   [`BuildError::Comm`] with the origin rank, peer and collective —
///   never a hang or a panic.
/// - On an unrecoverable rank loss the coordinator takes the plan set
///   over one rank fewer, reloads the stint's latest snapshot (or
///   restarts from scratch without a policy) and reruns, up to
///   `ft.max_restarts` times and never below one rank. Snapshot failures
///   ([`CommErrorKind::Checkpoint`]) are not retried.
/// - Ranks run unmetered (P interleaved series would not be
///   reproducible); after they join, the coordinator records into
///   `stint.metrics` one kernel-timer observation per rank, the
///   convergence series, the `comm/bytes` matrix and the fault counters.
///
/// Returns how the stint ended next to the output; after a stop at a
/// boundary the output is the state as of that boundary and nothing is
/// recorded into `stint.metrics` (the resumed stint's records cover the
/// whole trajectory, as after a crash). Errors before any rank starts:
/// [`BuildError::ZeroRanks`], [`BuildError::InvalidRelaxation`],
/// [`BuildError::SerialOnly`] for OS-SIRT (ranks have no per-subset halo
/// schedules), [`BuildError::SinogramLength`] when the slab is empty or
/// not a whole number of slices, and [`BuildError::PlanCheck`] when the
/// plans fail validation.
pub(crate) fn solve_distributed(
    sino_ordered: &[f32],
    stint: &Stint,
    exec: &mut Ranks,
) -> Result<(DistOutput, EngineExit), BuildError> {
    let (ops, ft) = (exec.ops, exec.ft);
    if exec.config.ranks == 0 {
        return Err(BuildError::ZeroRanks);
    }
    if let Some(relax) = stint.solver.invalid_relaxation() {
        return Err(BuildError::InvalidRelaxation { relax });
    }
    if let Solver::OsSirt { .. } = stint.solver {
        return Err(BuildError::SerialOnly("distributed"));
    }
    let (nrows, ncols) = (ops.a.nrows(), ops.a.ncols());
    let batch = sino_ordered.len().checked_div(nrows).unwrap_or(0);
    if batch == 0 || batch * nrows != sino_ordered.len() {
        return Err(BuildError::SinogramLength {
            expected: nrows,
            got: sino_ordered.len(),
        });
    }
    let metrics = stint.metrics;
    let mut resume_state = stint.resume_state(nrows, ncols, batch)?;
    let mut ranks = exec.config.ranks;
    let mut restarts = 0usize;
    loop {
        let plans = exec.plans(ranks, metrics)?;
        let volumes: Vec<KernelVolumes> = plans.iter().map(|p| p.volumes()).collect();
        let run = run_ranks_with(ranks, ft.comm, Arc::clone(&ft.faults), |comm| {
            solve_rank(comm, plans, sino_ordered, stint, resume_state.as_ref())
        });
        match run {
            Ok((rank_results, ledger)) => {
                // Every rank took the same exit.
                let exit = rank_results[0].4;
                let record = match exit {
                    EngineExit::Completed => metrics,
                    EngineExit::Stopped { .. } => &Metrics::noop(),
                };
                let out = assemble_output(ops, plans, rank_results, ledger, volumes, record);
                return Ok((out, exit));
            }
            Err(err) => {
                metrics.counter_add(FAULT_RANK_LOSS, 1);
                let unrecoverable = matches!(err.kind, CommErrorKind::Checkpoint { .. });
                if unrecoverable || restarts >= ft.max_restarts || ranks <= 1 {
                    return Err(BuildError::Comm(err));
                }
                restarts += 1;
                ranks -= 1;
                metrics.counter_add(FAULT_RESTARTS, 1);
                // Degrade: resume the survivors from the latest snapshot
                // (the snapshot is rank-count independent), or from
                // scratch when checkpointing is off.
                resume_state = stint.load(nrows, ncols, batch)?;
            }
        }
    }
}

/// A distributed solve outside the request model: `config` names the rank
/// count, local kernel, solver and stop rule of one fail-fast stint
/// ([`FaultTolerance::disabled`]: unbounded waits, no chaos, no restarts)
/// without checkpoints and without observability. Every other distributed
/// solve is a request in [`crate::ExecMode::Distributed`]. Like
/// [`crate::PooledOperator`], this door stays only while `recon-bench`
/// calls it; delete it once `benchmark/` runs its distributed probe
/// through [`crate::Reconstructor::run`].
pub fn try_reconstruct_distributed(
    ops: &Operators,
    sino_ordered: &[f32],
    config: &DistConfig,
) -> Result<DistOutput, BuildError> {
    let stint = Stint {
        solver: config.solver,
        subsets: None,
        stop: config.stop,
        metrics: &Metrics::noop(),
        policy: None,
        slot: 0,
        plan_hash: checkpoint::plan_fingerprint(ops),
        more: false,
        ctrl: None,
    };
    let mut exec = Ranks {
        ops,
        config: *config,
        ft: &FaultTolerance::disabled(),
        validate: false,
        built: Vec::new(),
    };
    solve_distributed(sino_ordered, &stint, &mut exec).map(|(out, _)| out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{preprocess, Config, Kernel};
    use crate::solvers::{run_engine, Constraint, SirtRule};
    use xct_geometry::{disk, simulate_sinogram, Grid, NoiseModel, ScanGeometry, Sinogram};
    use xct_runtime::run_ranks;

    fn sinogram(n: u32, m: u32) -> (Grid, ScanGeometry, Sinogram) {
        let (grid, scan) = (Grid::new(n), ScanGeometry::new(m, n));
        let img = disk(0.6, 1.0).rasterize(n);
        let sino = simulate_sinogram(&img, &grid, &scan, NoiseModel::None, 0);
        (grid, scan, sino)
    }

    fn setup(n: u32, m: u32) -> (Operators, Vec<f32>) {
        let (grid, scan, sino) = sinogram(n, m);
        let ops = preprocess(grid, scan, &Config::default());
        let y = ops.order_sinogram(&sino);
        (ops, y)
    }

    /// Unbuffered CG over `ranks` ranks for `iters` iterations.
    fn cg(ranks: usize, iters: usize) -> DistConfig {
        DistConfig {
            ranks,
            use_buffered: false,
            stop: StopRule::Fixed(iters),
            solver: Solver::Cg,
        }
    }

    /// This rank's block of one forward (`fwd`) or back product of the
    /// `batch`-wide slab `input`, through its [`DistOperator`].
    fn halo(
        plan: &RankPlan,
        comm: &Communicator,
        fwd: bool,
        input: &[f32],
        batch: usize,
    ) -> Vec<f32> {
        let op = DistOperator::new(plan, comm);
        let out = if fwd {
            &plan.sino_range
        } else {
            &plan.tomo_range
        };
        let mut out = vec![0f32; out.len() * batch];
        if fwd {
            op.forward_batch_into(input, &mut out, batch);
        } else {
            op.back_batch_into(input, &mut out, batch);
        }
        assert!(op.fault().is_none());
        out
    }

    /// `‖a − b‖ / ‖b‖` in f64.
    fn rel_err(a: &[f32], b: &[f32]) -> f64 {
        let diff: Vec<f32> = a.iter().zip(b).map(|(a, b)| a - b).collect();
        xct_sparse::norm_f64(&diff) / xct_sparse::norm_f64(b)
    }

    #[test]
    fn plans_partition_both_domains() {
        let (ops, _) = setup(16, 12);
        let plans = build_plans(&ops, 4, false);
        assert_eq!(plans.len(), 4);
        assert_eq!(plans[0].tomo_range.start, 0);
        assert_eq!(plans[3].tomo_range.end as usize, ops.a.ncols());
        assert_eq!(plans[3].sino_range.end as usize, ops.a.nrows());
        for w in plans.windows(2) {
            assert_eq!(w[0].tomo_range.end, w[1].tomo_range.start);
            assert_eq!(w[0].sino_range.end, w[1].sino_range.start);
        }
        // Column blocks partition the nonzeroes.
        let total: usize = plans.iter().map(|p| p.a_local.nnz()).sum();
        assert_eq!(total, ops.a.nnz());
    }

    #[test]
    fn distributed_forward_matches_serial() {
        let (ops, _) = setup(16, 12);
        let x: Vec<f32> = (0..ops.a.ncols()).map(|i| (i % 7) as f32 * 0.25).collect();
        let want = ops.forward(Kernel::Serial, &x);
        for ranks in [1, 2, 3, 5] {
            let plans = build_plans(&ops, ranks, false);
            let (results, _) = run_ranks(ranks, |comm| {
                let plan = &plans[comm.rank()];
                let lo = plan.tomo_range.start as usize;
                let hi = plan.tomo_range.end as usize;
                halo(plan, comm, true, &x[lo..hi], 1)
            });
            let mut got = vec![0f32; ops.a.nrows()];
            for (plan, block) in plans.iter().zip(results) {
                let lo = plan.sino_range.start as usize;
                got[lo..lo + block.len()].copy_from_slice(&block);
            }
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-3, "ranks {ranks}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn distributed_back_matches_serial() {
        let (ops, _) = setup(16, 12);
        let y: Vec<f32> = (0..ops.a.nrows()).map(|i| ((i % 5) as f32) - 2.0).collect();
        let want = ops.back(Kernel::Serial, &y);
        for ranks in [1, 2, 4] {
            let plans = build_plans(&ops, ranks, false);
            let (results, _) = run_ranks(ranks, |comm| {
                let plan = &plans[comm.rank()];
                let lo = plan.sino_range.start as usize;
                let hi = plan.sino_range.end as usize;
                halo(plan, comm, false, &y[lo..hi], 1)
            });
            let mut got = vec![0f32; ops.a.ncols()];
            for (plan, block) in plans.iter().zip(results) {
                let lo = plan.tomo_range.start as usize;
                got[lo..lo + block.len()].copy_from_slice(&block);
            }
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-3, "ranks {ranks}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn batched_halo_exchange_is_bitwise_single_slice() {
        // One alltoallv round carries all k slices; every slice must be
        // bit-identical to its own single-slice collective. And since the
        // single-slice collective *is* the batch body at k = 1, k = 1 is
        // also held against what that body was always pinned to: the
        // serial `Kernel::Serial` product (to rounding across ranks —
        // the factorized sum adds per-rank partials — and to the bit on
        // one unbuffered rank, where there is nothing to re-associate).
        let (ops, _) = setup(16, 12);
        // (forward?, domain length in, domain length out)
        let directions = [
            (true, ops.a.ncols(), ops.a.nrows()),
            (false, ops.a.nrows(), ops.a.ncols()),
        ];
        for (use_buffered, ranks, batch) in [false, true]
            .into_iter()
            .flat_map(|b| [1usize, 2, 4].map(|r| (b, r)))
            .flat_map(|(b, r)| [1usize, 3].map(|k| (b, r, k)))
        {
            let plans = build_plans(&ops, ranks, use_buffered);
            for (fwd, len_in, len_out) in directions {
                let tag = format!("fwd={fwd} ranks={ranks} buffered={use_buffered} k={batch}");
                let global: Vec<Vec<f32>> = (0..batch)
                    .map(|j| {
                        (0..len_in)
                            .map(|i| ((i + 5 * j) % 11) as f32 * 0.5 - 2.0)
                            .collect()
                    })
                    .collect();
                let ranges = |plan: &RankPlan| {
                    let (i, o) = if fwd {
                        (&plan.tomo_range, &plan.sino_range)
                    } else {
                        (&plan.sino_range, &plan.tomo_range)
                    };
                    (
                        i.start as usize..i.end as usize,
                        o.start as usize..o.end as usize,
                    )
                };
                let apply = |comm: &Communicator, slices: &[Vec<f32>]| {
                    let plan = &plans[comm.rank()];
                    let (input, _) = ranges(plan);
                    let k = slices.len();
                    let slab: Vec<f32> = input
                        .flat_map(|i| slices.iter().map(move |g| g[i]))
                        .collect();
                    assert_eq!(slab.len() % k, 0);
                    halo(plan, comm, fwd, &slab, k)
                };
                let (batched, _) = run_ranks(ranks, |comm| apply(comm, &global));
                for (j, slice) in global.iter().enumerate() {
                    let (single, _) =
                        run_ranks(ranks, |comm| apply(comm, std::slice::from_ref(slice)));
                    let kernel = Kernel::Serial;
                    let serial = if fwd {
                        ops.forward(kernel, slice)
                    } else {
                        ops.back(kernel, slice)
                    };
                    assert_eq!(serial.len(), len_out);
                    for (rank, want) in single.iter().enumerate() {
                        let (_, output) = ranges(&plans[rank]);
                        let got: Vec<f32> = batched[rank]
                            .iter()
                            .skip(j)
                            .step_by(batch)
                            .copied()
                            .collect();
                        assert_eq!(got.len(), output.len());
                        assert!(
                            got.iter()
                                .zip(want)
                                .all(|(a, b)| a.to_bits() == b.to_bits()),
                            "{tag} slice {j} rank {rank}"
                        );
                        for (g, w) in got.iter().zip(&serial[output]) {
                            let exact = ranks == 1 && !use_buffered;
                            assert!(
                                if exact {
                                    g.to_bits() == w.to_bits()
                                } else {
                                    (g - w).abs() < 1e-3
                                },
                                "{tag} slice {j} rank {rank}: {g} vs serial {w}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn distributed_cg_matches_serial_cg() {
        let (ops, y) = setup(16, 12);
        let (x_serial, recs_serial) = crate::cg(&ops, Kernel::Serial, &y, StopRule::Fixed(8));
        let out = try_reconstruct_distributed(&ops, &y, &cg(3, 8)).unwrap();
        // CG amplifies f32 summation-order differences between the
        // factorized (A = R·C·A_p) and monolithic products, so agreement
        // is to a few parts in a thousand, not bitwise.
        let err = rel_err(&out.images[0], &ops.unorder_tomogram(&x_serial));
        assert!(err < 2e-2, "distributed diverged: {err}");
        for (a, b) in out.slice_records[0].iter().zip(&recs_serial) {
            let rel = (a.residual_norm - b.residual_norm).abs() / b.residual_norm.max(1.0);
            assert!(
                rel < 5e-2,
                "iter {}: {} vs {}",
                a.iter,
                a.residual_norm,
                b.residual_norm
            );
        }
    }

    #[test]
    fn distributed_sirt_matches_serial_sirt() {
        let (ops, y) = setup(16, 12);
        let op = ops.operator(Kernel::Serial);
        let sirt = &mut SirtRule::new(1.0);
        let (x_serial, _) = run_engine(&*op, &y, sirt, Constraint::None, StopRule::Fixed(10));
        let out = try_reconstruct_distributed(
            &ops,
            &y,
            &DistConfig {
                ranks: 3,
                use_buffered: false,
                stop: StopRule::Fixed(10),
                solver: Solver::Sirt { relax: 1.0 },
            },
        )
        .unwrap();
        let err = rel_err(&out.images[0], &ops.unorder_tomogram(&x_serial));
        assert!(err < 1e-3, "distributed SIRT diverged: {err}");
        assert_eq!(out.slice_records[0].len(), 10);
    }

    #[test]
    fn buffered_distributed_matches_unbuffered() {
        let (ops, y) = setup(16, 12);
        let a = try_reconstruct_distributed(
            &ops,
            &y,
            &DistConfig {
                use_buffered: true,
                ..cg(2, 5)
            },
        )
        .unwrap();
        let b = try_reconstruct_distributed(&ops, &y, &cg(2, 5)).unwrap();
        for (x, z) in a.images[0].iter().zip(&b.images[0]) {
            assert!((x - z).abs() < 1e-3);
        }
    }

    #[test]
    fn communication_is_sparse() {
        // With enough ranks, not every pair interacts (Fig 7(c)).
        let (ops, y) = setup(32, 16);
        let out = try_reconstruct_distributed(&ops, &y, &cg(8, 2)).unwrap();
        let pairs = out.ledger.nonzero_pairs();
        assert!(pairs > 0);
        // Scalar allreduces touch all pairs, so just check the volumes are
        // unequal across pairs (sparsity of the data exchange shows up in
        // the byte counts).
        let mut bytes: Vec<u64> = (0..8)
            .flat_map(|s| (0..8).map(move |d| (s, d)))
            .filter(|(s, d)| s != d)
            .map(|(s, d)| out.ledger.bytes(s, d))
            .collect();
        bytes.sort_unstable();
        assert!(
            bytes[0] < bytes[bytes.len() - 1],
            "expected skewed comm volumes"
        );
    }

    #[test]
    fn volumes_shrink_with_more_ranks() {
        let (ops, _) = setup(32, 16);
        let v2 = build_plans(&ops, 2, false)
            .iter()
            .map(|p| p.volumes().regular_bytes)
            .fold(0f64, f64::max);
        let v8 = build_plans(&ops, 8, false)
            .iter()
            .map(|p| p.volumes().regular_bytes)
            .fold(0f64, f64::max);
        assert!(v8 < v2, "per-rank regular bytes must shrink: {v8} vs {v2}");
    }

    #[test]
    fn try_variant_rejects_bad_inputs() {
        let (ops, y) = setup(16, 12);
        let zero_ranks = DistConfig {
            ranks: 0,
            ..DistConfig::default()
        };
        assert_eq!(
            try_reconstruct_distributed(&ops, &y, &zero_ranks).err(),
            Some(BuildError::ZeroRanks)
        );
        let cfg = DistConfig {
            ranks: 2,
            stop: StopRule::Fixed(1),
            ..DistConfig::default()
        };
        assert!(matches!(
            try_reconstruct_distributed(&ops, &y[..y.len() - 1], &cfg).err(),
            Some(BuildError::SinogramLength { .. })
        ));
    }

    #[test]
    fn instrumented_distributed_records_comm_matrix() {
        let (grid, scan, sino) = sinogram(16, 12);
        let m = Metrics::collecting();
        let rec = crate::Reconstructor::builder(grid, scan)
            .metrics(m.clone())
            .build()
            .unwrap();
        let cfg = cg(3, 4);
        let mode = crate::ExecMode::Distributed {
            config: cfg,
            ft: None,
        };
        let input = crate::ReconInput::Slice(sino.clone());
        let req = crate::ReconRequest::cg(input, cfg.stop).mode(mode);
        let out = rec.run(&req).unwrap();
        let snap = m.snapshot();
        // The exported matrix equals the ledger's per-pair accounting.
        let mat = &snap.matrices["comm/bytes"];
        assert_eq!(mat.size, 3);
        let ledger = &out.dist.as_ref().expect("distributed detail").ledger;
        for src in 0..3 {
            for dst in 0..3 {
                assert_eq!(mat.get(src, dst), ledger.bytes(src, dst));
            }
        }
        // Kernel timers: one observation per rank.
        assert_eq!(snap.timers["kernel/ap_s"].count, 3);
        assert_eq!(snap.timers["kernel/c_s"].count, 3);
        assert_eq!(snap.timers["kernel/r_s"].count, 3);
        // Convergence series mirror the records.
        assert_eq!(
            snap.counters["solver/iterations"],
            out.slice_records[0].len() as u64
        );
        assert_eq!(
            snap.series["solver/residual_norm"],
            out.slice_records[0]
                .iter()
                .map(|r| r.residual_norm)
                .collect::<Vec<_>>()
        );
        // Local SpMV volumes: CG does one back (init) + per-iter fwd+back.
        assert_eq!(snap.counters["spmv/dist/calls"], 3 * (1 + 2 * 4));
        assert!(snap.counters["spmv/dist/nnz"] > 0);
        assert!(snap.counters["spmv/dist/bytes"] > 0);
        // Collectives were timed on every rank.
        assert!(snap.counters["comm/collective_calls"] > 0);
        assert_eq!(snap.timers["comm/collective_s"].count, 3);
        // And the numerics are untouched by instrumentation.
        let y = rec.operators().order_sinogram(&sino);
        let plain = try_reconstruct_distributed(rec.operators(), &y, &cfg).unwrap();
        assert_eq!(plain.images, out.images);
    }

    #[test]
    fn rank_plans_use_the_plans_buffer_size() {
        let (grid, scan, sino) = sinogram(24, 36);
        let config = Config {
            buffsize: 1024,
            ..Config::default()
        };
        let rec = crate::Reconstructor::builder(grid, scan)
            .config(config)
            .validate_plan(true)
            .build()
            .unwrap();
        // The builder every distributed request runs its plans through.
        for plan in build_plans(rec.operators(), 2, true) {
            let (a, at) = plan.local_buf.as_ref().expect("buffered rank");
            assert_eq!((a.buffsize(), at.buffsize()), (1024, 1024));
        }
        let req = crate::ReconRequest::cg(crate::ReconInput::Slice(sino), StopRule::Fixed(10));
        let serial = rec.run(&req).unwrap();
        let config = DistConfig {
            use_buffered: true,
            ..cg(2, 10)
        };
        let mode = crate::ExecMode::Distributed { config, ft: None };
        let dist = rec.run(&req.mode(mode)).unwrap();
        let err = rel_err(&dist.images[0], &serial.images[0]);
        assert!(err < 5e-3, "err {err}");
    }

    #[test]
    fn corrupted_rank_plans_fail_typed_before_any_rank_runs() {
        let (ops, y) = setup(16, 12);
        let config = cg(3, 4);
        let metrics = Metrics::collecting();
        let stint = Stint {
            solver: config.solver,
            subsets: None,
            stop: config.stop,
            metrics: &metrics,
            policy: None,
            slot: 0,
            plan_hash: checkpoint::plan_fingerprint(&ops),
            more: false,
            ctrl: None,
        };
        let ft = FaultTolerance::disabled();
        let exec = || Ranks {
            ops: &ops,
            config,
            ft: &ft,
            validate: true,
            built: Vec::new(),
        };
        let mut plans = build_plans(&ops, 3, false);
        crate::plan_check::tests::drop_scheduled_row(&mut plans);
        let mut handed = exec();
        handed.built.push((plans, false));
        let err = solve_distributed(&y, &stint, &mut handed).err();
        let schedule = xct_check::Invariant::ScheduleSymmetry;
        let typed = matches!(&err, Some(BuildError::PlanCheck(r)) if r.has(schedule));
        assert!(typed, "{err:?}");
        // No rank ran: nothing was exchanged, nothing iterated.
        let snap = metrics.snapshot();
        assert!(!snap.counters.contains_key("comm/collective_calls"));
        assert!(!snap.counters.contains_key("solver/iterations"));
        // The request's own plans pass, and are built once.
        let mut built = exec();
        solve_distributed(&y, &stint, &mut built).unwrap();
        solve_distributed(&y, &stint, &mut built).unwrap();
        assert_eq!(metrics.snapshot().timers["dist/build_plans"].count, 1);
    }

    #[test]
    fn kernel_breakdown_accumulates() {
        let (ops, y) = setup(16, 12);
        let out = try_reconstruct_distributed(&ops, &y, &cg(2, 3)).unwrap();
        for kb in &out.breakdown {
            assert!(kb.ap_s > 0.0);
            assert!(kb.total() >= kb.ap_s);
        }
    }
}
