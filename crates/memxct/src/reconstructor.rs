//! High-level single-call reconstruction API, built through
//! [`ReconstructorBuilder`].

use std::sync::Mutex;

use crate::checkpoint;
use crate::dist::{solve_distributed, Ranks};
use crate::errors::BuildError;
use crate::operator::{
    KernelBreakdown, KernelOperator, PooledPlans, ProjectionOperator, POOL_IMBALANCE_BACK,
    POOL_IMBALANCE_FORWARD,
};
use crate::preprocess::{try_preprocess_with_metrics, Config, Kernel, Operators};
use crate::request::{
    DistDetail, ExecMode, ReconError, ReconInput, ReconRequest, ReconResponse, RunControl,
    RunOutcome, Solver,
};
use crate::solvers::{EngineExit, SolverWorkspace, Stint};
use crate::subsets::Subsets;
use xct_geometry::{Grid, ScanGeometry, Sinogram};
use xct_obs::{Metrics, MetricsSnapshot};
use xct_runtime::WorkerPool;

/// Step-by-step construction of a [`Reconstructor`] — the plan — with
/// validated defaults: geometry in, then optional preprocessing
/// [`Config`] (its kernel included), metrics and executor choices, then
/// [`build`](Self::build). How a run goes (solver, stop rule, execution
/// mode, fault tolerance, checkpoints) is the [`ReconRequest`]'s.
///
/// ```
/// use memxct::{Config, Kernel, ReconInput, ReconRequest, ReconstructorBuilder, StopRule};
/// use xct_geometry::{disk, simulate_sinogram, Grid, NoiseModel, ScanGeometry};
///
/// let grid = Grid::new(32);
/// let scan = ScanGeometry::new(48, 32);
/// let rec = ReconstructorBuilder::new(grid, scan)
///     .config(Config { partsize: 64, kernel: Kernel::Serial, ..Config::default() })
///     .build()
///     .unwrap();
/// let truth = disk(0.6, 1.0).rasterize(32);
/// let sino = simulate_sinogram(&truth, &grid, &scan, NoiseModel::None, 0);
/// let req = ReconRequest::cg(ReconInput::Slice(sino), StopRule::Fixed(10));
/// let out = rec.run(&req).unwrap();
/// assert_eq!(out.images[0].len(), 32 * 32);
/// // Everything the run recorded is one snapshot away.
/// let snap = rec.metrics();
/// assert_eq!(snap.counters["solver/iterations"], 10);
/// ```
pub struct ReconstructorBuilder {
    grid: Grid,
    scan: ScanGeometry,
    config: Config,
    metrics: Option<Metrics>,
    validate: bool,
    use_pool: bool,
    pool_threads: Option<usize>,
    batch: usize,
}

impl ReconstructorBuilder {
    /// Start from a geometry with the default configuration (two-level
    /// pseudo-Hilbert ordering, Siddon projector, buffered kernels).
    pub fn new(grid: Grid, scan: ScanGeometry) -> Self {
        ReconstructorBuilder {
            grid,
            scan,
            config: Config::default(),
            metrics: None,
            validate: false,
            use_pool: false,
            pool_threads: None,
            batch: 1,
        }
    }

    /// The preprocessing configuration: ordering, projector, partition
    /// and buffer sizes, and the kernel the plan runs — which decides the
    /// layouts it builds (default [`Config::default`], buffered).
    pub fn config(mut self, config: Config) -> Self {
        self.config = config;
        self
    }

    /// Where to record observability data. Default: a fresh private
    /// collecting registry; pass a shared handle to aggregate across
    /// components, or [`Metrics::noop`] to disable collection entirely.
    pub fn metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Execute [`ExecMode::Pooled`] solves on a persistent worker pool
    /// over static nnz-balanced partitions (default false). The pool's
    /// threads are spawned once at [`build`](Self::build) and parked
    /// between dispatches; the row partitions and reduction plans are
    /// precomputed there too, so steady-state solver iterations perform no
    /// thread spawns and no heap allocations. [`ExecMode::Serial`] runs
    /// the same dispatch on a one-worker pool (the calling thread), so
    /// results are bit-identical for every thread count, serial included.
    pub fn use_pool(mut self, use_pool: bool) -> Self {
        self.use_pool = use_pool;
        self
    }

    /// Worker count of the solve pool ([`use_pool`](Self::use_pool)).
    /// Default: the `RAYON_NUM_THREADS` environment variable (a historical
    /// name), else available parallelism — which is always what the plan
    /// build's transient ray-tracing pool uses.
    pub fn pool_threads(mut self, threads: usize) -> Self {
        self.pool_threads = Some(threads);
        self
    }

    /// Solve `batch` slices per engine run (default 1). Each SpMV becomes
    /// an SpMM that streams the matrix once for all `batch` right-hand
    /// sides, amortizing the memory traffic that dominates the kernels.
    /// A batched reconstructor takes [`ReconInput::Batch`] of exactly
    /// `batch` sinograms or a [`ReconInput::Volume`] of any length (a
    /// [`ReconInput::Slice`] returns [`BuildError::BatchWidth`]) in every
    /// [`ExecMode`]; column `j` of a batched solve is bit-identical to
    /// solving slice `j` alone in the same mode.
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Run the `xct-check` invariant sweep ([`crate::plan_check`]) over
    /// every memoized structure after preprocessing (default false).
    /// [`build`](Self::build) then fails with [`BuildError::PlanCheck`] if
    /// any invariant is violated, as a distributed request does when its
    /// rank plans do. Validation is read-only — a validated build is
    /// bit-identical to an unvalidated one.
    pub fn validate_plan(mut self, validate: bool) -> Self {
        self.validate = validate;
        self
    }

    /// Validate, preprocess, and produce the [`Reconstructor`], which
    /// runs [`Config::kernel`] on the layouts built for it.
    ///
    /// Rejects zero partition sizes, out-of-range buffer sizes and a zero
    /// batch width.
    pub fn build(self) -> Result<Reconstructor, BuildError> {
        let kernel = self.config.kernel;
        if self.batch == 0 {
            return Err(BuildError::ZeroBatch);
        }
        let metrics = self.metrics.unwrap_or_else(Metrics::collecting);
        let ops = try_preprocess_with_metrics(self.grid, self.scan, &self.config, &metrics)?;
        let serial = ExecContext {
            pool: WorkerPool::new(1),
            plans: PooledPlans::new_batched(&ops, kernel, 1, self.batch),
        };
        let pooled = if self.use_pool {
            let threads = self.pool_threads.unwrap_or_else(xct_runtime::env_threads);
            let plans = PooledPlans::new_batched(&ops, kernel, threads, self.batch);
            metrics.gauge_set(POOL_IMBALANCE_FORWARD, plans.forward().imbalance());
            metrics.gauge_set(POOL_IMBALANCE_BACK, plans.back().imbalance());
            Some(ExecContext {
                pool: WorkerPool::with_metrics(threads, metrics.clone()),
                plans,
            })
        } else {
            None
        };
        if self.validate {
            let mut report = crate::plan_check::validate_plan(&ops);
            if let Some(exec) = &pooled {
                crate::plan_check::exec_checker(&exec.plans).run_into(&mut report);
            }
            if !report.is_ok() {
                return Err(BuildError::PlanCheck(report));
            }
        }
        Ok(Reconstructor {
            ops,
            kernel,
            metrics,
            serial,
            pooled,
            batch: self.batch,
            validate: self.validate,
            workspace: Mutex::new(SolverWorkspace::new_batched(0, 0, self.batch)),
        })
    }
}

/// One executor of a reconstructor: a persistent worker pool and the
/// static partition/reduction plans of its worker count, both built once
/// at [`ReconstructorBuilder::build`] and reused by every solve.
struct ExecContext {
    pool: WorkerPool,
    plans: PooledPlans,
}

/// The executor one request's groups run on: the calling thread or the
/// worker pool, or ranks.
enum Executor<'r> {
    Shared(&'r ExecContext),
    Ranks(Ranks<'r>),
}

/// A preprocessed reconstructor bound to one geometry. Preprocessing cost
/// is paid once at construction and amortized over every slice
/// reconstructed afterwards (Table 5's "All Slices" economics).
///
/// ```
/// use memxct::{ReconInput, ReconRequest, Reconstructor, StopRule};
/// use xct_geometry::{disk, simulate_sinogram, Grid, NoiseModel, ScanGeometry};
///
/// let grid = Grid::new(32);
/// let scan = ScanGeometry::new(48, 32);
/// let truth = disk(0.6, 1.0).rasterize(32);
/// let sino = simulate_sinogram(&truth, &grid, &scan, NoiseModel::None, 0);
///
/// let rec = Reconstructor::new(grid, scan); // preprocess once
/// let req = ReconRequest::cg(ReconInput::Slice(sino), StopRule::Fixed(30));
/// let out = rec.run(&req).unwrap();
/// assert_eq!(out.images[0].len(), 32 * 32);
/// assert!(out.slice_records[0].last().unwrap().residual_norm < 1.0);
/// // Per-kernel timings come from the same operator layer the
/// // distributed path uses (all SpMV time in `ap_s` here).
/// assert!(out.breakdown.ap_s > 0.0);
/// ```
pub struct Reconstructor {
    ops: Operators,
    kernel: Kernel,
    metrics: Metrics,
    /// The one-worker pool and plans of [`ExecMode::Serial`].
    serial: ExecContext,
    /// Persistent pool + static plans of [`ExecMode::Pooled`], when built
    /// with `use_pool(true)`.
    pooled: Option<ExecContext>,
    /// Slices per engine run (the workspace's batch width).
    batch: usize,
    /// Whether distributed requests validate their rank plans.
    validate: bool,
    /// Solver buffers reused across solves — after the first solve at
    /// this geometry, steady-state iterations allocate nothing.
    workspace: Mutex<SolverWorkspace>,
}

impl Reconstructor {
    /// Preprocess with the default configuration (two-level pseudo-Hilbert
    /// ordering, buffered kernels). Thin shim over
    /// [`ReconstructorBuilder`].
    pub fn new(grid: Grid, scan: ScanGeometry) -> Self {
        match ReconstructorBuilder::new(grid, scan).build() {
            Ok(rec) => rec,
            // lint: allow(no-panic) documented panicking shim over the try_ API
            Err(e) => panic!("invalid reconstructor config: {e}"),
        }
    }

    /// The memoized operators (for custom solver loops).
    pub fn operators(&self) -> &Operators {
        &self.ops
    }

    /// Re-run the `xct-check` invariant sweep over the memoized structures
    /// at any time (see [`crate::plan_check::validate_plan`]); for a
    /// pooled reconstructor the sweep also covers the execution plans
    /// ([`crate::plan_check::exec_checker`]).
    pub fn validate_plan(&self) -> xct_check::Report {
        let mut report = crate::plan_check::validate_plan(&self.ops);
        if let Some(exec) = &self.pooled {
            crate::plan_check::exec_checker(&exec.plans).run_into(&mut report);
        }
        report
    }

    /// The thread count of the [`ExecMode::Pooled`] worker pool, if one
    /// was built.
    pub fn pool_threads(&self) -> Option<usize> {
        self.pooled.as_ref().map(|e| e.pool.num_threads())
    }

    /// Which kernel this reconstructor applies.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// How many slices each engine run solves (the SpMM width).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Snapshot of everything recorded so far: preprocessing phase
    /// timings, per-kernel SpMV counters, per-iteration solver series, and
    /// (after distributed runs) the communication matrix. Empty when the
    /// builder was given [`Metrics::noop`].
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The live metrics handle (e.g. to share with other components).
    pub fn metrics_handle(&self) -> &Metrics {
        &self.metrics
    }

    fn check_sinogram(&self, sino: &Sinogram) -> Result<(), BuildError> {
        if sino.data().len() != self.ops.a.nrows() {
            return Err(BuildError::SinogramLength {
                expected: self.ops.a.nrows(),
                got: sino.data().len(),
            });
        }
        Ok(())
    }

    /// Execute one [`ReconRequest`]. The single front door: the CLI, the
    /// examples and the `xct-serve` job runtime all submit exactly these
    /// requests. See [`ReconRequest`] for the request model.
    pub fn run(&self, req: &ReconRequest) -> Result<ReconResponse, ReconError> {
        let mut resp = self.empty_response();
        // Nothing can ask an uncontrolled run to stop.
        self.drive(req, None, &mut resp)?;
        Ok(resp)
    }

    /// [`run`](Self::run) under a scheduler's [`RunControl`]. When `ctrl`
    /// requests preemption, the solve snapshots into the request's
    /// checkpoint sink at the next iteration boundary and returns
    /// [`RunOutcome::Preempted`]; re-running the same request with
    /// `resume = true` continues bit-identically — whatever the input
    /// (a volume stops inside whichever group is running; the groups
    /// before it are restored from their own slots) and whatever the
    /// [`ExecMode`] (ranks agree on the boundary).
    pub fn run_controlled(
        &self,
        req: &ReconRequest,
        ctrl: &RunControl,
    ) -> Result<RunOutcome, ReconError> {
        let mut resp = self.empty_response();
        Ok(match self.drive(req, Some(ctrl), &mut resp)? {
            EngineExit::Completed => RunOutcome::Completed(resp),
            EngineExit::Stopped { next_iter } => RunOutcome::Preempted {
                iteration: next_iter,
            },
        })
    }

    fn empty_response(&self) -> ReconResponse {
        ReconResponse {
            images: Vec::new(),
            slice_records: Vec::new(),
            breakdown: KernelBreakdown::default(),
            per_slice_seconds: Vec::new(),
            preprocess_seconds: self.ops.timings.total(),
            dist: None,
        }
    }

    /// The one solve driver. The input is split into groups of the
    /// reconstructor's batch width — a `Slice` or `Batch` is one group, a
    /// `Volume` one per chunk, a short tail padded — and every group is
    /// one [`Stint`] on the executor `req.mode` names, its snapshots in
    /// the slot of its index under the request's checkpoint policy,
    /// sharing the OS-SIRT subsets and
    /// rank plans built once per request. Completed groups are appended to
    /// `resp`; a stop ends the request where it is.
    fn drive(
        &self,
        req: &ReconRequest,
        ctrl: Option<&RunControl>,
        resp: &mut ReconResponse,
    ) -> Result<EngineExit, ReconError> {
        if let Some(relax) = req.solver.invalid_relaxation() {
            return Err(ReconError::InvalidRelaxation { relax });
        }
        let mut exec = match &req.mode {
            ExecMode::Serial => Executor::Shared(&self.serial),
            ExecMode::Pooled => {
                Executor::Shared(self.pooled.as_ref().ok_or(ReconError::PoolNotBuilt)?)
            }
            ExecMode::Distributed { ranks, ft } => Executor::Ranks(Ranks {
                ops: &self.ops,
                ranks: *ranks,
                kernel: self.kernel,
                ft,
                validate: self.validate,
                built: Vec::new(),
            }),
        };
        // OS-SIRT's subsets, on the shared-memory executor (ranks refuse it).
        let subsets = match (req.solver, &exec) {
            (Solver::OsSirt { subsets: s, .. }, Executor::Shared(ctx)) => {
                Some(Subsets::new(&self.ops, s, &ctx.pool)?)
            }
            _ => None,
        };
        let groups: Vec<&[Sinogram]> = match &req.input {
            ReconInput::Slice(sino) => vec![std::slice::from_ref(sino)],
            ReconInput::Batch(sinos) => vec![sinos],
            ReconInput::Volume(sinos) => sinos.chunks(self.batch).collect(),
        };
        let pad = matches!(req.input, ReconInput::Volume(_));
        let plan_hash = checkpoint::plan_fingerprint(&self.ops);
        for (slot, group) in groups.iter().enumerate() {
            let y = self.order_group(group, pad)?;
            let stint = Stint {
                solver: req.solver,
                subsets: subsets.as_ref(),
                stop: req.stop,
                metrics: &self.metrics,
                policy: req.checkpoint.as_ref(),
                slot,
                plan_hash,
                more: slot + 1 < groups.len(),
                ctrl,
            };
            let exit = self.run_group(&y, group.len(), &mut exec, &stint, resp)?;
            if exit != EngineExit::Completed {
                return Ok(exit);
            }
        }
        Ok(EngineExit::Completed)
    }

    /// One stint of an ordered measurement slab covering `visible` caller
    /// slices (a padded tail group solves extra columns that are dropped
    /// here) on `exec`; a completed group's images, records and timing
    /// are appended to `resp`.
    fn run_group(
        &self,
        y: &[f32],
        visible: usize,
        exec: &mut Executor,
        stint: &Stint,
        resp: &mut ReconResponse,
    ) -> Result<EngineExit, ReconError> {
        let t = std::time::Instant::now();
        let (images, slice_records) = match exec {
            Executor::Ranks(ranks) => {
                let (out, exit) = solve_distributed(y, stint, ranks)?;
                if exit != EngineExit::Completed {
                    return Ok(exit);
                }
                // A distributed breakdown is this group's rank sum.
                for b in &out.breakdown {
                    resp.breakdown.add(b);
                }
                resp.dist = Some(DistDetail {
                    breakdowns: out.breakdown,
                    ledger: out.ledger,
                    volumes: out.volumes,
                });
                (out.images, out.slice_records)
            }
            Executor::Shared(ctx) => {
                let op = KernelOperator::pooled(&self.ops, self.kernel, &ctx.plans, &ctx.pool)
                    .with_metrics(self.metrics.clone());
                let mut ws = self.workspace.lock().unwrap_or_else(|p| p.into_inner());
                let (nrows, ncols) = (self.ops.a.nrows(), self.ops.a.ncols());
                let resume = stint.resume_state(nrows, ncols, self.batch)?;
                let exit = stint
                    .run(
                        &op,
                        y,
                        &mut ws,
                        resume.as_ref(),
                        |next_iter| stint.ctrl.is_some_and(|c| c.should_preempt(next_iter)),
                        |next_iter, ws, rule| stint.save(&ws.capture(next_iter, rule)),
                    )
                    .map_err(BuildError::Checkpoint)?;
                if exit != EngineExit::Completed {
                    return Ok(exit);
                }
                // An in-process breakdown is a running total over the
                // reconstructor's registry.
                resp.breakdown = op.breakdown().unwrap_or_default();
                let images = ws
                    .x()
                    .chunks_exact(ncols.max(1))
                    .map(|slice| self.ops.unorder_tomogram(slice))
                    .collect();
                (images, ws.slice_records().to_vec())
            }
        };
        let share = t.elapsed().as_secs_f64() / visible.max(1) as f64;
        resp.images.extend(images.into_iter().take(visible));
        resp.slice_records
            .extend(slice_records.into_iter().take(visible));
        resp.per_slice_seconds
            .extend(std::iter::repeat_n(share, visible));
        Ok(EngineExit::Completed)
    }

    /// Order one group of sinograms into a slice-major measurement slab
    /// of the reconstructor's batch width. Only a volume's chunks may be
    /// short (`pad`): the last slice is repeated to fill the slab.
    fn order_group(&self, sinos: &[Sinogram], pad: bool) -> Result<Vec<f32>, BuildError> {
        if sinos.len() != self.batch && !pad {
            return Err(BuildError::BatchWidth {
                expected: self.batch,
                got: sinos.len(),
            });
        }
        let nrows = self.ops.a.nrows();
        let mut y = Vec::with_capacity(self.batch * nrows);
        for sino in sinos {
            self.check_sinogram(sino)?;
            y.extend_from_slice(&self.ops.order_sinogram(sino));
        }
        for _ in sinos.len()..self.batch {
            y.extend_from_within(y.len() - nrows..);
        }
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rel_err;
    use crate::{FaultTolerance, StopRule};
    use xct_geometry::{disk, shepp_logan, simulate_sinogram, NoiseModel};

    fn cg(sino: &Sinogram, stop: StopRule) -> ReconRequest {
        ReconRequest::cg(ReconInput::Slice(sino.clone()), stop)
    }

    fn over_ranks(req: ReconRequest, ranks: usize) -> ReconRequest {
        req.mode(ExecMode::Distributed {
            ranks,
            ft: FaultTolerance::disabled(),
        })
    }

    #[test]
    fn end_to_end_disk_reconstruction() {
        let n = 32u32;
        let grid = Grid::new(n);
        let scan = ScanGeometry::new(48, n);
        let img = disk(0.6, 1.0).rasterize(n);
        let sino = simulate_sinogram(&img, &grid, &scan, NoiseModel::None, 0);
        let rec = Reconstructor::new(grid, scan);
        let out = rec.run(&cg(&sino, StopRule::Fixed(30))).unwrap();
        assert!(
            rel_err(&out.images[0], &img) < 0.15,
            "err {}",
            rel_err(&out.images[0], &img)
        );
    }

    #[test]
    fn shepp_logan_reconstruction_with_noise() {
        let n = 48u32;
        let grid = Grid::new(n);
        let scan = ScanGeometry::new(72, n);
        let img = shepp_logan().rasterize(n);
        let sino = simulate_sinogram(
            &img,
            &grid,
            &scan,
            NoiseModel::Poisson {
                incident: 1e6,
                scale: 0.02,
            },
            7,
        );
        let rec = Reconstructor::new(grid, scan);
        let stop = StopRule::EarlyTermination {
            max_iters: 60,
            min_decrease: 1e-3,
        };
        let out = rec.run(&cg(&sino, stop)).unwrap();
        assert!(
            rel_err(&out.images[0], &img) < 0.35,
            "err {}",
            rel_err(&out.images[0], &img)
        );
    }

    #[test]
    fn distributed_equals_single_node() {
        let n = 24u32;
        let grid = Grid::new(n);
        let scan = ScanGeometry::new(36, n);
        let img = disk(0.5, 2.0).rasterize(n);
        let sino = simulate_sinogram(&img, &grid, &scan, NoiseModel::None, 0);
        let rec = Reconstructor::new(grid, scan);
        let req = cg(&sino, StopRule::Fixed(10));
        let single = rec.run(&req).unwrap();
        let dist = rec.run(&over_ranks(req, 4)).unwrap();
        assert!(
            rel_err(&dist.images[0], &single.images[0]) < 5e-3,
            "err {}",
            rel_err(&dist.images[0], &single.images[0])
        );
    }

    #[test]
    fn builder_validates_kernel_layout_choices() {
        let grid = Grid::new(16);
        let scan = ScanGeometry::new(12, 16);
        let with = |config| ReconstructorBuilder::new(grid, scan).config(config);
        assert!(matches!(
            with(Config {
                partsize: 0,
                ..Config::default()
            })
            .build()
            .err(),
            Some(BuildError::ZeroPartitionSize)
        ));
        assert!(matches!(
            with(Config {
                buffsize: 1 << 20,
                ..Config::default()
            })
            .build()
            .err(),
            Some(BuildError::InvalidBufferSize { .. })
        ));
        // Defaults pick the buffered kernel; a plain-CSR plan runs the
        // serial kernel.
        let rec = ReconstructorBuilder::new(grid, scan).build().unwrap();
        assert_eq!(rec.kernel(), Kernel::Buffered);
        let serial = Config {
            kernel: Kernel::Serial,
            ..Config::default()
        };
        let rec = with(serial).build().unwrap();
        assert_eq!(rec.kernel(), Kernel::Serial);
    }

    #[test]
    fn a_plan_holds_only_its_kernels_layouts() {
        let grid = Grid::new(16);
        let scan = ScanGeometry::new(12, 16);
        let layouts = |kernel| {
            let config = Config {
                kernel,
                ..Config::default()
            };
            let rec = ReconstructorBuilder::new(grid, scan)
                .config(config)
                .build()
                .unwrap();
            let ops = rec.operators();
            [
                ops.a_buf.is_some(),
                ops.at_buf.is_some(),
                ops.a_ell.is_some(),
                ops.at_ell.is_some(),
            ]
        };
        assert_eq!(layouts(Kernel::Serial), [false; 4]);
        assert_eq!(layouts(Kernel::Buffered), [true, true, false, false]);
        assert_eq!(layouts(Kernel::Ell), [false, false, true, true]);
    }

    #[test]
    fn try_reconstruct_rejects_wrong_sinogram_length() {
        let grid = Grid::new(16);
        let scan = ScanGeometry::new(12, 16);
        let rec = Reconstructor::new(grid, scan);
        let short = Sinogram::new(ScanGeometry::new(6, 16), vec![0.0; 6 * 16]);
        let req = cg(&short, StopRule::Fixed(2));
        for req in [
            req.clone(),
            ReconRequest::sirt(ReconInput::Slice(short), 2),
            over_ranks(req, 4),
        ] {
            assert!(matches!(
                rec.run(&req).err(),
                Some(ReconError::Build(BuildError::SinogramLength { .. }))
            ));
        }
    }

    #[test]
    fn metrics_snapshot_spans_the_whole_pipeline() {
        let n = 24u32;
        let grid = Grid::new(n);
        let scan = ScanGeometry::new(36, n);
        let img = disk(0.5, 1.0).rasterize(n);
        let sino = simulate_sinogram(&img, &grid, &scan, NoiseModel::None, 0);
        let rec = ReconstructorBuilder::new(grid, scan).build().unwrap();
        rec.run(&cg(&sino, StopRule::Fixed(5))).unwrap();
        rec.run(&over_ranks(cg(&sino, StopRule::Fixed(3)), 2))
            .unwrap();
        let snap = rec.metrics();
        // Preprocessing phases.
        assert!(snap.timers.contains_key("preprocess/tracing"));
        // Shared-memory kernel counters + timer.
        assert!(snap.counters["spmv/buffered/calls"] > 0);
        assert!(snap.timers["kernel/ap_s"].total_s > 0.0);
        // Solver series accumulate across both runs (5 serial + 3 dist).
        assert_eq!(snap.series["solver/residual_norm"].len(), 8);
        assert_eq!(snap.counters["solver/iterations"], 8);
        // Distributed comm matrix.
        assert_eq!(snap.matrices["comm/bytes"].size, 2);
    }

    #[test]
    fn noop_metrics_disable_collection() {
        let grid = Grid::new(16);
        let scan = ScanGeometry::new(12, 16);
        let img = disk(0.5, 1.0).rasterize(16);
        let sino = simulate_sinogram(&img, &grid, &scan, NoiseModel::None, 0);
        let rec = ReconstructorBuilder::new(grid, scan)
            .metrics(Metrics::noop())
            .build()
            .unwrap();
        let out = rec.run(&cg(&sino, StopRule::Fixed(3))).unwrap();
        assert!(rec.metrics().is_empty(), "noop records nothing");
        assert_eq!(out.breakdown, KernelBreakdown::default());
        assert_eq!(out.slice_records[0].len(), 3, "solve itself unaffected");
    }
}
