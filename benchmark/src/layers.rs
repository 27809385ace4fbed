//! Per-layer probes: each library crate's public functions timed from
//! outside on the workload's own plan, best of repeated identical calls.
//!
//! All probes run on the calling thread except the two that are about
//! threads (`sparse.spmv_pooled2_s`, `runtime.pool_dispatch_us`) and the
//! two-rank distributed solve. README.md lists which end-to-end metric
//! each of these numbers should move, and on which workload.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use memxct::{
    CgRule, CheckpointPolicy, Constraint, DistConfig, DistSolver, Operators, PooledOperator,
    PooledPlans, ReconInput, ReconRequest, ReconstructorBuilder, SolverWorkspace, StopRule,
};
use xct_geometry::trace_ray;
use xct_obs::Metrics;
use xct_runtime::{CheckpointSink, ExecPlan, MemoryCheckpointSink, Snapshot, WorkerPool};

use crate::host::TriadProbe;
use crate::inputs::Slices;
use crate::replay::{self, BuildSteps, Traced, CG_ITERS, KERNEL, STOP};
use crate::stats::{sample_for, Samples, Staged};
use crate::trace::Tracer;
use crate::workloads::BATCH;

/// One reported number, with the distribution it was the best of where
/// it is a timing.
pub struct Entry {
    pub value: f64,
    pub samples: Option<(Samples, f64)>,
}

/// Metric name → entry. Units live in `BENCHMARK.json`.
#[derive(Default)]
pub struct Report(pub BTreeMap<String, Entry>);

impl Report {
    pub fn value(&mut self, name: &str, value: f64) {
        self.0.insert(
            name.to_string(),
            Entry {
                value,
                samples: None,
            },
        );
    }

    /// A timing: best of `samples`, times `scale` (1 for seconds, 1e6
    /// for microseconds).
    pub fn timing(&mut self, name: &str, samples: &Samples, scale: f64) {
        self.0.insert(
            name.to_string(),
            Entry {
                value: samples.best() * scale,
                samples: Some((samples.clone(), scale)),
            },
        );
    }

    /// A timing of a multi-call operation: the sum of the per-call
    /// minima, with the whole-sequence samples as its distribution.
    pub fn staged(&mut self, name: &str, staged: &Staged, scale: f64) {
        self.0.insert(
            name.to_string(),
            Entry {
                value: staged.best() * scale,
                samples: Some((staged.whole.clone(), scale)),
            },
        );
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, |e| e.value)
    }
}

fn timed(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Bytes a plan keeps in memory: both CSR matrices, both buffered
/// layouts and the four ordering tables, from their public accessors.
fn plan_bytes(ops: &Operators) -> f64 {
    let csr = |m: &xct_sparse::CsrMatrix| {
        std::mem::size_of_val(m.rowptr())
            + std::mem::size_of_val(m.colind())
            + std::mem::size_of_val(m.values())
    };
    let buf = |b: &xct_sparse::BufferedCsr| {
        std::mem::size_of_val(b.partdispl())
            + std::mem::size_of_val(b.stagedispl())
            + std::mem::size_of_val(b.stage_map())
            + std::mem::size_of_val(b.entry_displ())
            + std::mem::size_of_val(b.entry_ind())
            + std::mem::size_of_val(b.entry_val())
    };
    let ord = |o: &xct_hilbert::Ordering2D| {
        std::mem::size_of_val(o.pos_of()) + std::mem::size_of_val(o.rank_of())
    };
    (csr(&ops.a)
        + csr(&ops.at)
        + ops.a_buf.as_ref().map_or(0, buf)
        + ops.at_buf.as_ref().map_or(0, buf)
        + ord(&ops.tomo_ord)
        + ord(&ops.sino_ord)) as f64
}

/// Run every probe on `input`'s geometry within about `budget_s`
/// seconds; each probe gets a fixed share and a minimum repeat count.
pub fn probe(
    input: &Slices,
    budget_s: f64,
    triad: &mut TriadProbe,
    report: &mut Report,
) -> Result<(), String> {
    let geo = input.geo;
    let (grid, scan) = (geo.grid(), geo.scan());
    let off = Tracer::new(false);
    let share = |frac: f64| budget_s * frac;

    // --- preprocessing, step by step (hilbert → geometry → sparse) ---
    triad.sample();
    let mut steps = BuildSteps::default();
    let mut ops = replay::build_operators(geo, &off, &mut steps);
    let start = Instant::now();
    while steps.order.n() < 3
        || (steps.order.n() < 10 && start.elapsed().as_secs_f64() < share(0.22))
    {
        ops = replay::build_operators(geo, &off, &mut steps);
    }
    let nnz = ops.a.nnz() as f64;
    report.timing("hilbert.order_s", &steps.order, 1.0);
    report.value(
        "hilbert.cells",
        (grid.num_pixels() + scan.num_rays()) as f64,
    );
    report.timing("sparse.csr_build_s", &steps.csr_build, 1.0);
    report.timing("sparse.transpose_s", &steps.transpose, 1.0);
    report.timing("sparse.buffer_build_s", &steps.buffer_build, 1.0);

    // Ray tracing alone: every ray, lengths summed, nothing stored.
    let mut traced_nnz = 0u64;
    let trace = sample_for(3, 20, share(0.04), || {
        timed(|| {
            let mut count = 0u64;
            let mut total = 0.0f64;
            for p in 0..scan.num_projections() {
                for c in 0..scan.num_channels() {
                    trace_ray(&grid, &scan.ray(p, c), |_, len| {
                        count += 1;
                        total += len as f64;
                    });
                }
            }
            black_box(total);
            traced_nnz = count;
        })
    });
    report.timing("geometry.trace_s", &trace, 1.0);
    report.value("geometry.rays", scan.num_rays() as f64);
    report.value("geometry.nnz", traced_nnz as f64);
    report.value(
        "geometry.trace_ns_per_nnz",
        trace.best() * 1e9 / traced_nnz as f64,
    );

    let (a_buf, at_buf) = match (&ops.a_buf, &ops.at_buf) {
        (Some(a), Some(at)) => (a, at),
        _ => return Err("replayed plan has no buffered layout".into()),
    };
    let (nrows, ncols) = (ops.a.nrows(), ops.a.ncols());
    let stream_bytes = (a_buf.regular_bytes() + at_buf.regular_bytes()) as f64;
    report.value("sparse.bytes_per_nnz", a_buf.regular_bytes() as f64 / nnz);
    report.value(
        "sparse.working_set_mb",
        (stream_bytes + 4.0 * 2.0 * (nrows + ncols) as f64) / (1 << 20) as f64,
    );
    report.value("memxct.plan_bytes", plan_bytes(&ops));

    // --- the program's own build (memxct), and what it reports ---
    triad.sample();
    let mut build = Samples::default();
    let mut reported = [
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    ];
    let mut rec = None;
    let start = Instant::now();
    while build.n() < 2 || (build.n() < 10 && start.elapsed().as_secs_f64() < share(0.12)) {
        drop(rec.take());
        let built = build
            .time(|| ReconstructorBuilder::new(grid, scan).build())
            .map_err(|e| format!("probe build: {e}"))?;
        let t = built.operators().timings;
        for (s, v) in
            reported
                .iter_mut()
                .zip([t.ordering_s, t.tracing_s, t.transpose_s, t.buffers_s])
        {
            s.push(v);
        }
        rec = Some(built);
    }
    let rec = rec.ok_or("no probe build")?;
    report.timing("memxct.preprocess_s", &build, 1.0);
    for (name, s) in ["ordering_s", "tracing_s", "transpose_s", "buffers_s"]
        .iter()
        .zip(&reported)
    {
        report.timing(&format!("memxct.{name}"), s, 1.0);
    }
    let replayed = [
        "hilbert.order_s",
        "geometry.trace_s",
        "sparse.csr_build_s",
        "sparse.transpose_s",
        "sparse.buffer_build_s",
    ]
    .iter()
    .map(|n| report.get(n))
    .sum::<f64>();
    report.value("memxct.build_other_s", build.best() - replayed);

    // --- kernels (sparse) ---
    triad.sample();
    let x = ops.order_tomogram(&input.truth[0]);
    let y = ops.order_sinogram(&input.sinos[0]);
    let mut xo = vec![0f32; ncols];
    let mut yo = vec![0f32; nrows];
    let kernel = |f: &mut dyn FnMut()| sample_for(10, 200, share(0.01), || timed(&mut *f));
    let fwd = kernel(&mut || a_buf.spmv_into(black_box(&x), &mut yo));
    let back = kernel(&mut || at_buf.spmv_into(black_box(&y), &mut xo));
    let csr_fwd = kernel(&mut || xct_sparse::spmv_into(&ops.a, black_box(&x), &mut yo));
    report.timing("sparse.spmv_fwd_s", &fwd, 1.0);
    report.timing("sparse.spmv_back_s", &back, 1.0);
    report.timing("sparse.spmv_csr_fwd_s", &csr_fwd, 1.0);
    report.value(
        "sparse.spmv_gbs",
        a_buf.regular_bytes() as f64 / fwd.best() / 1e9,
    );

    let x8 = x.repeat(BATCH);
    let y8 = y.repeat(BATCH);
    let mut xo8 = vec![0f32; ncols * BATCH];
    let mut yo8 = vec![0f32; nrows * BATCH];
    let fwd8 = kernel(&mut || a_buf.spmm_into(black_box(&x8), &mut yo8, BATCH));
    let back8 = kernel(&mut || at_buf.spmm_into(black_box(&y8), &mut xo8, BATCH));
    report.timing("sparse.spmm8_fwd_s", &fwd8, 1.0);
    report.timing("sparse.spmm8_back_s", &back8, 1.0);
    report.value(
        "sparse.spmm8_per_slice_ratio",
        fwd8.best() / BATCH as f64 / fwd.best(),
    );

    let pool = WorkerPool::new(2);
    let plan2 = a_buf.exec_plan(2);
    let pooled = kernel(&mut || a_buf.spmv_pooled_into(black_box(&x), &mut yo, &plan2, &pool));
    report.timing("sparse.spmv_pooled2_s", &pooled, 1.0);
    report.value("sparse.pooled2_speedup", fwd.best() / pooled.best());

    // --- runtime: pool dispatch, collectives, checkpoints ---
    let empty_plan = ExecPlan::equal_rows(2, 2);
    let mut sink2 = [0u8; 2];
    let dispatch = sample_for(200, 20_000, share(0.01), || {
        timed(|| pool.run(&empty_plan, &mut sink2, |_, _, _| {}))
    });
    report.timing("runtime.pool_dispatch_us", &dispatch, 1e6);
    drop(pool);

    // Both ranks must make the same number of calls, so this probe
    // repeats a fixed count. One sample is a batch of calls: channels
    // let a rank run ahead of its peer, and a single call that finds its
    // message already waiting would time no exchange at all.
    const CALLS: usize = 100;
    let (per_rank, _) = xct_runtime::run_ranks(2, |comm| {
        sample_for(20, 20, 0.0, || {
            timed(|| {
                for _ in 0..CALLS {
                    black_box(memxct::allreduce_f64(comm, 1.0));
                }
            }) / CALLS as f64
        })
    });
    report.timing("runtime.allreduce_us", &per_rank[0], 1e6);

    let sink = Arc::new(MemoryCheckpointSink::new());
    let request = ReconRequest::cg(ReconInput::Slice(input.sinos[0].clone()), STOP);
    let with_ckpt = request
        .clone()
        .checkpoint(CheckpointPolicy::new(sink.clone(), 10));
    rec.run(&with_ckpt)
        .map_err(|e| format!("checkpointed solve: {e}"))?;
    let bytes = sink
        .load(0)
        .map_err(|e| format!("checkpoint load: {e}"))?
        .ok_or("checkpointed solve left no snapshot")?;
    let snapshot = Snapshot::decode(&bytes).map_err(|e| format!("checkpoint decode: {e}"))?;
    let encode = sample_for(10, 500, share(0.005), || {
        timed(|| {
            black_box(snapshot.encode());
        })
    });
    let decode = sample_for(10, 500, share(0.005), || {
        timed(|| {
            black_box(Snapshot::decode(black_box(&bytes)).is_ok());
        })
    });
    report.timing("runtime.checkpoint_encode_s", &encode, 1.0);
    report.timing("runtime.checkpoint_decode_s", &decode, 1.0);
    report.value("runtime.checkpoint_bytes", bytes.len() as f64);

    // --- the solver engine (memxct) on the replayed plan, with the
    // program's collecting metrics and with none (obs) ---
    triad.sample();
    let collecting = Metrics::collecting();
    let op = ops.operator_with_metrics(KERNEL, collecting.clone());
    let quiet = Metrics::noop();
    let quiet_op = ops.operator_with_metrics(KERNEL, quiet.clone());
    let mut ws = SolverWorkspace::new(0, 0);
    let mut solve = Samples::default();
    let mut solve_quiet = Samples::default();
    let engine = |op: &dyn memxct::ProjectionOperator,
                  m: &Metrics,
                  ws: &mut SolverWorkspace,
                  stop| {
        timed(|| memxct::run_engine_in(op, &y, &mut CgRule::new(), Constraint::None, stop, m, ws))
    };
    let start = Instant::now();
    while solve.n() < 5 || (solve.n() < 30 && start.elapsed().as_secs_f64() < share(0.14)) {
        solve.push(engine(op.as_ref(), &collecting, &mut ws, STOP));
        solve_quiet.push(engine(quiet_op.as_ref(), &quiet, &mut ws, STOP));
    }
    let counting = Traced::new(op.as_ref(), &off);
    engine(&counting, &collecting, &mut ws, STOP);
    let spmv_s = counting.forward_calls.get() as f64 * fwd.best()
        + counting.back_calls.get() as f64 * back.best();
    report.timing("memxct.solve_s", &solve, 1.0);
    report.value("memxct.solve.spmv_s", spmv_s);
    report.value("memxct.solve.vector_s", solve.best() - spmv_s);
    report.value("memxct.iter_ms", solve.best() / CG_ITERS as f64 * 1e3);
    report.value("obs.overhead_frac", solve.best() / solve_quiet.best() - 1.0);

    let permute = sample_for(10, 500, share(0.01), || {
        timed(|| {
            black_box(ops.order_sinogram(&input.sinos[0]));
            black_box(ops.unorder_tomogram(&x));
        })
    });
    report.timing("memxct.permute_s", &permute, 1.0);

    let to_tol = StopRule::EarlyTermination {
        max_iters: 60,
        min_decrease: 0.02,
    };
    engine(op.as_ref(), &collecting, &mut ws, to_tol);
    report.value("memxct.iters_to_tol", ws.records().len() as f64);

    triad.sample();
    let mut ws8 = SolverWorkspace::new_batched(0, 0, BATCH);
    let batch8 = sample_for(2, 10, share(0.15), || {
        timed(|| {
            memxct::run_engine_batched_in(
                op.as_ref(),
                &y8,
                &mut CgRule::new(),
                Constraint::None,
                STOP,
                &collecting,
                &mut ws8,
            )
        })
    });
    report.timing("memxct.batch8_solve_s", &batch8, 1.0);

    // The same batched solve on a two-thread pool: what `volume_batch`
    // would cost with the machine to itself.
    let pool = WorkerPool::new(2);
    let plans = PooledPlans::new_batched(&ops, KERNEL, 2, BATCH);
    let pooled_op =
        PooledOperator::new(&ops, KERNEL, &plans, &pool).with_metrics(collecting.clone());
    let batch8_pooled = sample_for(2, 10, share(0.08), || {
        timed(|| {
            memxct::run_engine_batched_in(
                &pooled_op,
                &y8,
                &mut CgRule::new(),
                Constraint::None,
                STOP,
                &collecting,
                &mut ws8,
            )
        })
    });
    report.timing("memxct.batch8_pooled2_solve_s", &batch8_pooled, 1.0);
    drop(pooled_op);
    drop((plans, pool, ws8));

    // --- two thread-ranks (recorded, not gated) ---
    let dconf = DistConfig {
        ranks: 2,
        use_buffered: true,
        stop: STOP,
        solver: DistSolver::Cg,
    };
    let mut kernels = [Samples::default(), Samples::default(), Samples::default()];
    let mut comm_bytes = 0u64;
    let mut dist_err = None;
    let dist = sample_for(2, 10, share(0.06), || {
        let t = Instant::now();
        match memxct::try_reconstruct_distributed(&ops, &y, &dconf) {
            Ok(out) => {
                let ranks = out.breakdown.len().max(1) as f64;
                let mean = |f: fn(&memxct::KernelBreakdown) -> f64| {
                    out.breakdown.iter().map(f).sum::<f64>() / ranks
                };
                kernels[0].push(mean(|b| b.ap_s));
                kernels[1].push(mean(|b| b.c_s));
                kernels[2].push(mean(|b| b.r_s));
                comm_bytes = out.ledger.total();
            }
            Err(e) => dist_err = Some(e.to_string()),
        }
        t.elapsed().as_secs_f64()
    });
    if let Some(e) = dist_err {
        return Err(format!("distributed solve: {e}"));
    }
    report.timing("memxct.dist2.solve_s", &dist, 1.0);
    for (name, s) in ["ap_s", "c_s", "r_s"].iter().zip(&kernels) {
        report.timing(&format!("memxct.dist2.{name}"), s, 1.0);
    }
    report.value("memxct.dist2.comm_bytes", comm_bytes as f64);

    // --- the invariant sweep (check) ---
    let mut violations = 0;
    let validate = sample_for(3, 20, share(0.05), || {
        timed(|| violations += memxct::validate_plan(&ops).len())
    });
    if violations > 0 {
        return Err(format!("replayed plan violates {violations} invariants"));
    }
    report.timing("check.validate_s", &validate, 1.0);
    triad.sample();
    Ok(())
}
