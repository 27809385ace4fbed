//! The four workloads. Each is a sequence of *rounds*; a round is one
//! cold set-up (every plan the workload uses, built from nothing)
//! followed by a fixed number of identical operations, so set-up and
//! operation samples are both spread over the whole run.
//!
//! A round runs in one of two ways. With the tracer disabled it performs
//! the program's own operations (`Reconstructor::run`, jobs through
//! `JobRuntime`) and times them from outside: these give the end-to-end
//! metrics. With the tracer enabled it performs the re-enacted operations
//! of [`crate::replay`], one span per call into a layer. Every operation
//! of either kind has its output checked.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use memxct::{
    ExecMode, PooledOperator, PooledPlans, ReconInput, ReconRequest, ReconResponse, Reconstructor,
    ReconstructorBuilder, RunControl, RunOutcome, SolverWorkspace,
};
use xct_obs::{Metrics, CACHE_EVICT, CACHE_HIT, CACHE_MISS, JOB_PREEMPTED};
use xct_runtime::WorkerPool;
use xct_serve::{JobResult, JobRuntime, JobSpec, JobStatus, PlanSpec, RuntimeConfig};

use crate::inputs::{relative_rmse, same_bits, slices, Geo, Sizes, Slices};
use crate::replay::{self, BuildSteps, KERNEL, STOP};
use crate::stats::{Samples, Staged};
use crate::trace::Tracer;

/// Slices solved together by `volume_batch`.
pub const BATCH: usize = 8;
/// Slices in `serve_mix`'s preemptible low-priority job.
const SERVE_BATCH: usize = 4;

pub const NAMES: [&str; 4] = ["slice_stream", "volume_batch", "cold_plans", "serve_mix"];

/// What a run of rounds measured.
#[derive(Default)]
pub struct Outcome {
    /// Seconds from nothing to ready-to-reconstruct, one sample a round.
    pub setup: Staged,
    /// Seconds per operation.
    pub op: Staged,
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the log.
    pub failures: Vec<String>,
    /// Reconstructed images of the first operation, for `image_rmse`.
    pub first_images: Option<Vec<Vec<f32>>>,
    /// `serve_mix` only.
    pub serve: Option<ServeStats>,
}

impl Outcome {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Count one operation; it fails unless `images` are bit-identical to
    /// the first operation's (and to `reference` where one exists).
    fn check(&mut self, what: &str, images: Vec<Vec<f32>>, reference: Option<&[Vec<f32>]>) {
        self.attempted += 1;
        let same = |a: &[Vec<f32>], b: &[Vec<f32>]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_bits(x, y))
        };
        if let Some(reference) = reference {
            if !same(&images, reference) {
                return self.fail(format!("{what}: image differs from the reference solve"));
            }
        }
        match &self.first_images {
            None => self.first_images = Some(images),
            Some(first) if !same(&images, first) => {
                self.fail(format!("{what}: image differs from the first operation's"))
            }
            Some(_) => {}
        }
    }
}

pub trait Workload {
    /// One cold set-up plus this workload's operations.
    fn round(&mut self, tracer: &Tracer, out: &mut Outcome);
    /// Slices reconstructed per operation (`slice_s` = op seconds ÷ this).
    fn slices_per_op(&self) -> usize;
    /// Ground truth for the first operation's images, in order.
    fn truth(&self) -> Vec<Vec<f32>>;
    /// The geometry the per-layer probes run on, with its input.
    fn primary(&self) -> &Slices;
}

/// Threads every workload runs its kernels on: one. `volume_batch`
/// dispatches through the worker pool all the same — a pool of one runs
/// the partitions on the calling thread — so its code path is the
/// pooled SpMM one; what two threads buy is recorded by the per-layer
/// probes (`sparse.pooled2_speedup`, `memxct.batch8_pooled2_solve_s`).
/// On a two-core guest a two-thread operation needs the whole machine
/// undisturbed to show its time, and measured 25–53 % run-to-run spread
/// where the one-thread workloads measured 5 % (README.md).
pub const THREADS: usize = 1;

/// `ops_per_round` operations follow each set-up; the traced pass uses
/// fewer so that it gets several rounds into its share of the budget.
pub fn create(
    name: &str,
    sizes: Sizes,
    seed: u64,
    traced: bool,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "slice_stream" => Box::new(SliceStream {
            input: slices(sizes.main, 1, seed),
            ops_per_round: if traced { 6 } else { 16 },
        }),
        "volume_batch" => Box::new(VolumeBatch::new(
            sizes.main,
            seed,
            if traced { 1 } else { 3 },
        )?),
        "cold_plans" => Box::new(ColdPlans {
            inputs: [slices(sizes.main, 1, seed), slices(sizes.second, 1, seed)],
        }),
        "serve_mix" => Box::new(ServeMix::new(sizes, seed)?),
        other => return Err(format!("unknown workload `{other}` (one of {NAMES:?})")),
    })
}

/// Time one call of a multi-call operation into `parts`.
fn stage<T>(parts: &mut Vec<f64>, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    let t = Instant::now();
    let result = f();
    parts.push(t.elapsed().as_secs_f64());
    result
}

/// `Reconstructor::run`, with the benchmark's clock read at every
/// iteration boundary: the seconds from the call to the first boundary,
/// between boundaries, and from the last boundary to the return. The
/// boundaries come from the hook `RunControl` offers schedulers — a
/// predicate consulted between iterations — here one that only looks at
/// the time and never asks for a stop. An operation timed this way is a
/// sequence of ~5 ms pieces of identical work rather than one 140 ms
/// piece, and a disturbance has to cover every sample of a piece to move
/// the sum of their minima ([`Staged`]).
fn run_marked(
    rec: &Reconstructor,
    req: &ReconRequest,
) -> Result<(ReconResponse, Vec<f64>), String> {
    let marks = Arc::new(Mutex::new(Vec::with_capacity(64)));
    let ctrl = RunControl::new();
    let sink = marks.clone();
    ctrl.set_deadline_check(move || {
        if let Ok(mut marks) = sink.lock() {
            marks.push(Instant::now());
        }
        false
    });
    let start = Instant::now();
    let outcome = rec.run_controlled(req, &ctrl).map_err(|e| e.to_string())?;
    let end = Instant::now();
    let RunOutcome::Completed(resp) = outcome else {
        return Err("run stopped at a boundary nobody asked it to stop at".into());
    };
    let marks = marks.lock().map_err(|_| "boundary clock poisoned")?;
    let mut parts = Vec::with_capacity(marks.len() + 1);
    let mut last = start;
    for &mark in marks.iter().chain([&end]) {
        parts.push((mark - last).as_secs_f64());
        last = mark;
    }
    Ok((resp, parts))
}

fn build(geo: Geo) -> Result<Reconstructor, String> {
    ReconstructorBuilder::new(geo.grid(), geo.scan())
        .build()
        .map_err(|e| format!("build {}: {e}", geo.label()))
}

fn slice_request(input: &Slices) -> ReconRequest {
    ReconRequest::cg(ReconInput::Slice(input.sinos[0].clone()), STOP)
}

/// The re-enacted single-slice solve on a built reconstructor's plan.
fn traced_solves(
    rec: &Reconstructor,
    input: &Slices,
    count: usize,
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let ops = rec.operators();
    let op = ops.operator_with_metrics(rec.kernel(), rec.metrics_handle().clone());
    let mut ws = SolverWorkspace::new(0, 0);
    for _ in 0..count {
        tracer.next_op();
        let images = out.op.time(|| {
            let _root = tracer.span("op.slice");
            replay::solve(
                ops,
                op.as_ref(),
                &input.sinos,
                rec.metrics_handle(),
                &mut ws,
                tracer,
            )
        });
        out.check("slice", images, None);
    }
}

// ---------------------------------------------------------------- slice_stream

/// One plan, many single-slice CG-30 solves on one thread: the warm
/// kernels and the solver engine do nearly all the work.
struct SliceStream {
    input: Slices,
    ops_per_round: usize,
}

impl Workload for SliceStream {
    fn round(&mut self, tracer: &Tracer, out: &mut Outcome) {
        let built = out.setup.time(|| {
            let _s = tracer.span("memxct.build");
            build(self.input.geo)
        });
        let rec = match built {
            Ok(rec) => rec,
            Err(e) => return out.fail(e),
        };
        if tracer.enabled() {
            return traced_solves(&rec, &self.input, self.ops_per_round, tracer, out);
        }
        let req = slice_request(&self.input);
        for _ in 0..self.ops_per_round {
            match run_marked(&rec, &req) {
                Ok((resp, parts)) => {
                    out.op.record(&parts);
                    out.check("slice", resp.images, None);
                }
                Err(e) => {
                    out.attempted += 1;
                    out.fail(format!("slice: {e}"));
                }
            }
        }
    }

    fn slices_per_op(&self) -> usize {
        1
    }
    fn truth(&self) -> Vec<Vec<f32>> {
        self.input.truth.clone()
    }
    fn primary(&self) -> &Slices {
        &self.input
    }
}

// ---------------------------------------------------------------- volume_batch

/// The same geometry solved eight slices at a time on the worker pool:
/// SpMM, pool dispatch and batched dots instead of SpMV.
struct VolumeBatch {
    input: Slices,
    ops_per_round: usize,
    /// Each slice solved alone (through the pool as well): column `j`
    /// of a batched solve must equal it bit for bit.
    reference: Vec<Vec<f32>>,
}

impl VolumeBatch {
    fn new(geo: Geo, seed: u64, ops_per_round: usize) -> Result<Self, String> {
        let input = slices(geo, BATCH, seed);
        let single = ReconstructorBuilder::new(geo.grid(), geo.scan())
            .use_pool(true)
            .pool_threads(THREADS)
            .build()
            .map_err(|e| format!("reference build: {e}"))?;
        let mut reference = Vec::with_capacity(BATCH);
        for sino in &input.sinos {
            let req =
                ReconRequest::cg(ReconInput::Slice(sino.clone()), STOP).mode(ExecMode::Pooled);
            let mut resp = single
                .run(&req)
                .map_err(|e| format!("reference solve: {e}"))?;
            reference.push(resp.images.swap_remove(0));
        }
        Ok(VolumeBatch {
            input,
            ops_per_round,
            reference,
        })
    }
}

impl Workload for VolumeBatch {
    fn round(&mut self, tracer: &Tracer, out: &mut Outcome) {
        let geo = self.input.geo;
        let built = out.setup.time(|| {
            let _s = tracer.span("memxct.build");
            ReconstructorBuilder::new(geo.grid(), geo.scan())
                .batch(BATCH)
                .use_pool(true)
                .pool_threads(THREADS)
                .build()
        });
        let rec = match built {
            Ok(rec) => rec,
            Err(e) => return out.fail(format!("build: {e}")),
        };
        if tracer.enabled() {
            // The reconstructor keeps its pool and partition plans to
            // itself; the re-enactment dispatches on its own.
            let ops = rec.operators();
            let (pool, plans) = {
                let _s = tracer.span("runtime.pool_and_plans");
                (
                    WorkerPool::new(THREADS),
                    PooledPlans::new_batched(ops, rec.kernel(), THREADS, BATCH),
                )
            };
            let op = PooledOperator::new(ops, rec.kernel(), &plans, &pool)
                .with_metrics(rec.metrics_handle().clone());
            let mut ws = SolverWorkspace::new_batched(0, 0, BATCH);
            for _ in 0..self.ops_per_round {
                tracer.next_op();
                let images = out.op.time(|| {
                    let _root = tracer.span("op.batch");
                    replay::solve(
                        ops,
                        &op,
                        &self.input.sinos,
                        rec.metrics_handle(),
                        &mut ws,
                        tracer,
                    )
                });
                out.check("batch", images, Some(&self.reference));
            }
            return;
        }
        let req = ReconRequest::cg(ReconInput::Batch(self.input.sinos.clone()), STOP)
            .mode(ExecMode::Pooled);
        for _ in 0..self.ops_per_round {
            match run_marked(&rec, &req) {
                Ok((resp, parts)) => {
                    out.op.record(&parts);
                    out.check("batch", resp.images, Some(&self.reference));
                }
                Err(e) => {
                    out.attempted += 1;
                    out.fail(format!("batch: {e}"));
                }
            }
        }
    }

    fn slices_per_op(&self) -> usize {
        BATCH
    }
    fn truth(&self) -> Vec<Vec<f32>> {
        self.input.truth.clone()
    }
    fn primary(&self) -> &Slices {
        &self.input
    }
}

// ------------------------------------------------------------------ cold_plans

/// No reuse: every operation builds both plans from nothing, validates
/// them and solves one slice on each. Mostly preprocessing.
struct ColdPlans {
    inputs: [Slices; 2],
}

impl Workload for ColdPlans {
    fn round(&mut self, tracer: &Tracer, out: &mut Outcome) {
        tracer.next_op();
        // Seconds of build, validate and solve, on each geometry in turn.
        let mut parts = Vec::with_capacity(70);
        let mut builds = Vec::with_capacity(2);
        let mut images = Vec::new();
        let checked = |report: xct_check::Report| {
            report
                .is_ok()
                .then_some(())
                .ok_or(format!("plan check failed: {report:?}"))
        };
        let mut cycle = || -> Result<(), String> {
            let _root = tracer.span("op.cycle");
            for input in &self.inputs {
                if tracer.enabled() {
                    let ops = stage(&mut parts, || {
                        Ok(replay::build_operators(
                            input.geo,
                            tracer,
                            &mut BuildSteps::default(),
                        ))
                    })?;
                    builds.extend(parts.last().copied());
                    stage(&mut parts, || {
                        let _s = tracer.span("check.validate_plan");
                        checked(memxct::validate_plan(&ops))
                    })?;
                    stage(&mut parts, || {
                        let metrics = Metrics::collecting();
                        let op = ops.operator_with_metrics(KERNEL, metrics.clone());
                        let mut ws = SolverWorkspace::new(0, 0);
                        images.extend(replay::solve(
                            &ops,
                            op.as_ref(),
                            &input.sinos,
                            &metrics,
                            &mut ws,
                            tracer,
                        ));
                        Ok(())
                    })?;
                } else {
                    let rec = stage(&mut parts, || build(input.geo))?;
                    builds.extend(parts.last().copied());
                    stage(&mut parts, || checked(rec.validate_plan()))?;
                    let (resp, pieces) = run_marked(&rec, &slice_request(input))?;
                    parts.extend(pieces);
                    images.extend(resp.images);
                }
            }
            Ok(())
        };
        if let Err(e) = cycle() {
            out.attempted += 1;
            return out.fail(format!("cycle: {e}"));
        }
        out.op.record(&parts);
        out.setup.record(&builds);
        out.check("cycle", images, None);
    }

    fn slices_per_op(&self) -> usize {
        2
    }
    fn truth(&self) -> Vec<Vec<f32>> {
        self.inputs.iter().flat_map(|i| i.truth.clone()).collect()
    }
    fn primary(&self) -> &Slices {
        &self.inputs[0]
    }
}

// ------------------------------------------------------------------- serve_mix

/// Per-round observations of the serving layer, one sample a round.
#[derive(Default)]
pub struct ServeStats {
    /// Submit→done of a single-slice job whose plan is cached / is not.
    pub hit: Samples,
    pub miss: Samples,
    /// Submit→done of the high-priority slice that overtakes.
    pub urgent: Samples,
    /// Summed `JobReport::queue_seconds` / `run_seconds` of the round.
    pub queue: Samples,
    pub run: Samples,
    /// `run_seconds` of the preempted job.
    pub preempted_run: Samples,
    /// Seconds per `submit` call.
    pub submit: Samples,
    /// Counts of the last round (every round's are checked against the
    /// script's).
    pub jobs: u64,
    pub job_hits: u64,
    pub evictions: u64,
    pub preemptions: u64,
    /// Direct `Reconstructor::run` of the hit job's request and of the
    /// preempted job's request, for the overhead figures.
    pub direct_slice: Samples,
    pub direct_batch: Samples,
}

/// What the script must produce on a cache of capacity two: see
/// [`ServeMix::round`].
const PREEMPT_AT: usize = 25;
const SCRIPT_JOBS: u64 = 8;
const SCRIPT_CACHE_HITS: u64 = 5;
const SCRIPT_CACHE_MISSES: u64 = 4;
const SCRIPT_EVICTIONS: u64 = 2;
const SCRIPT_PREEMPTIONS: u64 = 1;
const SCRIPT_SLICES: usize = 7 + SERVE_BATCH;

struct ServePlan {
    spec: PlanSpec,
    request: ReconRequest,
    /// A direct `Reconstructor::run` of `request`: what every job on
    /// this plan must return, preempted or not.
    reference: Vec<Vec<f32>>,
    truth: Vec<Vec<f32>>,
}

/// `xct-serve` fed a fixed script: hits, misses, an eviction and a
/// re-miss, and a low-priority batch job overtaken by an urgent slice.
struct ServeMix {
    /// A: main geometry; B: mid geometry, four slices a solve; C: small.
    plans: [ServePlan; 3],
    primary: Slices,
    direct_slice: Samples,
    direct_batch: Samples,
}

impl ServeMix {
    fn new(sizes: Sizes, seed: u64) -> Result<Self, String> {
        let mut direct = [Samples::default(), Samples::default(), Samples::default()];
        let mut plan = |geo: Geo, batch: usize, which: usize| -> Result<ServePlan, String> {
            let input = slices(geo, batch, seed);
            let mut spec = PlanSpec::new(geo.grid(), geo.scan());
            spec.batch = batch;
            let input_kind = if batch == 1 {
                ReconInput::Slice(input.sinos[0].clone())
            } else {
                ReconInput::Batch(input.sinos.clone())
            };
            let request = ReconRequest::cg(input_kind, STOP);
            let rec = ReconstructorBuilder::new(geo.grid(), geo.scan())
                .batch(batch)
                .build()
                .map_err(|e| format!("reference build {}: {e}", geo.label()))?;
            let mut reference = Vec::new();
            for _ in 0..5 {
                let resp = direct[which]
                    .time(|| rec.run(&request))
                    .map_err(|e| format!("reference solve {}: {e}", geo.label()))?;
                reference = resp.images;
            }
            Ok(ServePlan {
                spec,
                request,
                reference,
                truth: input.truth,
            })
        };
        let plans = [
            plan(sizes.serve[0], 1, 0)?,
            plan(sizes.serve[1], SERVE_BATCH, 1)?,
            plan(sizes.serve[2], 1, 2)?,
        ];
        let [direct_slice, direct_batch, _] = direct;
        Ok(ServeMix {
            plans,
            primary: slices(sizes.serve[0], 1, seed),
            direct_slice,
            direct_batch,
        })
    }

    fn spec(&self, name: &str, plan: usize, priority: u8) -> JobSpec {
        let p = &self.plans[plan];
        JobSpec::new(name, p.spec, p.request.clone()).priority(priority)
    }

    /// Check a finished job against its plan's reference and record the
    /// program-reported parts of its life as spans.
    fn settle(
        &self,
        name: &str,
        plan: usize,
        result: Option<JobResult>,
        tracer: &Tracer,
        out: &mut Outcome,
    ) -> Option<xct_serve::JobReport> {
        out.attempted += 1;
        let Some(result) = result else {
            out.fail(format!("job {name}: no result"));
            return None;
        };
        if result.report.preprocess_seconds > 0.0 {
            tracer.reported("memxct.preprocess", result.report.preprocess_seconds);
        }
        tracer.reported("memxct.run", result.report.run_seconds);
        match result.outcome {
            Ok(resp) => {
                let reference = &self.plans[plan].reference;
                let same = resp.images.len() == reference.len()
                    && resp
                        .images
                        .iter()
                        .zip(reference)
                        .all(|(a, b)| same_bits(a, b));
                if !same {
                    out.fail(format!("job {name}: image differs from a direct run"));
                }
                if name == "a1" && out.first_images.is_none() {
                    out.first_images = Some(resp.images);
                }
            }
            Err(e) => out.fail(format!("job {name}: {e}")),
        }
        Some(result.report)
    }

    /// Submit one job and wait for it (the closed loop's normal step).
    fn job(
        &self,
        rt: &JobRuntime,
        name: &str,
        plan: usize,
        stats: &mut ServeStats,
        tracer: &Tracer,
        out: &mut Outcome,
    ) -> Option<(f64, xct_serve::JobReport)> {
        let spec = self.spec(name, plan, 5);
        let start = Instant::now();
        let submitted = {
            let _s = tracer.span("serve.submit");
            stats.submit.time(|| rt.submit(spec))
        };
        let id = match submitted {
            Ok(id) => id,
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("job {name}: refused: {e}"));
                return None;
            }
        };
        let _s = tracer.span("serve.wait");
        let result = rt.wait(id);
        let wall = start.elapsed().as_secs_f64();
        self.settle(name, plan, result, tracer, out)
            .map(|r| (wall, r))
    }
}

impl Workload for ServeMix {
    /// The script, on a plan cache of capacity two (LRU):
    ///
    /// | job | plan | cache          | note                                  |
    /// |-----|------|----------------|---------------------------------------|
    /// | a1  | A    | miss           | service cold start = `setup_s`        |
    /// | a2  | A    | hit            | `serve.hit_s`                         |
    /// | c1  | C    | miss           |                                       |
    /// | c2  | C    | hit            |                                       |
    /// | a3  | A    | hit            | makes C the eviction victim           |
    /// | v   | B    | miss, evicts C | four slices, low priority, preempted  |
    /// | u   | A    | hit            | urgent; submitted once `v` is running |
    /// | v'  | B    | hit            | `v` resumes from its checkpoint       |
    /// | c3  | C    | miss, evicts A | the re-miss after eviction            |
    fn round(&mut self, tracer: &Tracer, out: &mut Outcome) {
        let mut stats = out.serve.take().unwrap_or_else(|| ServeStats {
            direct_slice: self.direct_slice.clone(),
            direct_batch: self.direct_batch.clone(),
            ..ServeStats::default()
        });
        tracer.next_op();
        // Seconds of each step of the script, in order: the runtime's
        // start, the eight jobs (the preempted pair as one step), and
        // the runtime's wind-down.
        let mut parts = Vec::with_capacity(9);
        let mut mark = Instant::now();
        let mut lap = |parts: &mut Vec<f64>| {
            let now = Instant::now();
            parts.push((now - mark).as_secs_f64());
            mark = now;
        };
        let root = tracer.span("op.round");
        let rt = {
            let _s = tracer.span("serve.runtime_new");
            JobRuntime::new(RuntimeConfig {
                cache_capacity: 2,
                ..RuntimeConfig::default()
            })
        };
        lap(&mut parts);
        let mut reports = Vec::new();
        let mut ok = true;

        for (name, plan) in [("a1", 0), ("a2", 0), ("c1", 2), ("c2", 2), ("a3", 0)] {
            match self.job(&rt, name, plan, &mut stats, tracer, out) {
                Some((wall, report)) => {
                    match name {
                        "a1" => stats.miss.push(wall),
                        "a2" => stats.hit.push(wall),
                        _ => {}
                    }
                    reports.push(report);
                }
                None => ok = false,
            }
            lap(&mut parts);
        }

        // The low-priority batch job arms the deterministic preemption
        // drill late in its solve; the urgent slice goes in as soon as
        // the scheduler has picked the batch job up — during its plan
        // build, long before that boundary — so the batch job yields at
        // its first boundary and exactly one preemption happens. (Were
        // the client ever so late that the drill fired first, the
        // urgent job would preempt the resumed solve again and the
        // count check below would say so.)
        {
            let _pair = tracer.span("serve.preempt_pair");
            let v = self.spec("v", 1, 1).preempt_at(PREEMPT_AT);
            let u = self.spec("u", 0, 9);
            match stats.submit.time(|| rt.submit(v)) {
                Err(e) => {
                    out.attempted += 2;
                    out.fail(format!("job v: refused: {e}"));
                    ok = false;
                }
                Ok(v_id) => {
                    while rt.status(v_id) == Some(JobStatus::Queued) {
                        std::thread::yield_now();
                    }
                    let u_start = Instant::now();
                    match stats.submit.time(|| rt.submit(u)) {
                        Err(e) => {
                            out.attempted += 1;
                            out.fail(format!("job u: refused: {e}"));
                            ok = false;
                        }
                        Ok(u_id) => {
                            let result = rt.wait(u_id);
                            stats.urgent.push(u_start.elapsed().as_secs_f64());
                            match self.settle("u", 0, result, tracer, out) {
                                Some(r) => reports.push(r),
                                None => ok = false,
                            }
                        }
                    }
                    let result = rt.wait(v_id);
                    match self.settle("v", 1, result, tracer, out) {
                        Some(r) => {
                            stats.preempted_run.push(r.run_seconds);
                            reports.push(r);
                        }
                        None => ok = false,
                    }
                }
            }
        }
        lap(&mut parts);
        match self.job(&rt, "c3", 2, &mut stats, tracer, out) {
            Some((_, report)) => reports.push(report),
            None => ok = false,
        }
        lap(&mut parts);

        let snap = rt.metrics();
        drop(rt);
        drop(root);
        lap(&mut parts);

        let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        let got = (
            reports.len() as u64,
            count(CACHE_HIT),
            count(CACHE_MISS),
            count(CACHE_EVICT),
            count(JOB_PREEMPTED),
        );
        let want = (
            SCRIPT_JOBS,
            SCRIPT_CACHE_HITS,
            SCRIPT_CACHE_MISSES,
            SCRIPT_EVICTIONS,
            SCRIPT_PREEMPTIONS,
        );
        // The counts are a check on the whole round: one more operation.
        out.attempted += 1;
        if got != want {
            out.fail(format!(
                "round: (jobs, hits, misses, evictions, preemptions) = {got:?}, script says {want:?}"
            ));
            ok = false;
        }
        if ok {
            out.op.record(&parts);
            out.setup.record(&parts[..2]);
            stats
                .queue
                .push(reports.iter().map(|r| r.queue_seconds).sum());
            stats.run.push(reports.iter().map(|r| r.run_seconds).sum());
        }
        stats.jobs = reports.len() as u64;
        stats.job_hits = reports.iter().filter(|r| r.cache_hit).count() as u64;
        stats.evictions = got.3;
        stats.preemptions = got.4;
        out.serve = Some(stats);
    }

    fn slices_per_op(&self) -> usize {
        SCRIPT_SLICES
    }
    fn truth(&self) -> Vec<Vec<f32>> {
        self.plans[0].truth.clone()
    }
    fn primary(&self) -> &Slices {
        &self.primary
    }
}

/// `image_rmse` of an outcome's first operation against the truth.
pub fn image_rmse(w: &dyn Workload, out: &Outcome) -> Option<f64> {
    out.first_images
        .as_ref()
        .map(|images| relative_rmse(images, &w.truth()))
}
