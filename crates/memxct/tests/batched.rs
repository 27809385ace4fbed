//! Batched (SpMM) execution tests: every column of a batched solve must
//! be bit-identical to its own single-slice solve in the same mode —
//! engine-level and through the `Reconstructor` API, serial, pooled and
//! over thread-ranks, CG and SIRT (and OS-SIRT, serial), with per-slice
//! early termination and mid-batch checkpoint/resume — and the
//! batch-width misuses must surface as typed errors.

use std::sync::Arc;
use std::time::Duration;

use memxct::prelude::*;
use memxct::ExecMode::{Pooled, Serial};
use memxct::ReconInput::{Batch, Slice, Volume};
use memxct::{dist::build_plans, ledger_check, run_engine_in, Invariant, SolverWorkspace};
use xct_geometry::{disk, simulate_sinogram, Grid, NoiseModel, ScanGeometry, Sinogram};

fn geometry(n: u32, m: u32) -> (Grid, ScanGeometry) {
    (Grid::new(n), ScanGeometry::new(m, n))
}

/// One sinogram per slice, each from a different phantom so the slices
/// converge at different rates (exercising per-slice retirement).
fn sinos(grid: Grid, scan: ScanGeometry, n: u32, k: usize) -> Vec<Sinogram> {
    (0..k)
        .map(|j| {
            let truth = disk(0.3 + 0.1 * j as f64, 1.0 + 0.5 * j as f32).rasterize(n);
            simulate_sinogram(&truth, &grid, &scan, NoiseModel::None, j as u64)
        })
        .collect()
}

/// Run `req` in the mode `rec` was built for (pooled iff it has a pool).
fn run(rec: &Reconstructor, req: ReconRequest) -> Result<ReconResponse, ReconError> {
    let pooled = rec.pool_threads().is_some();
    rec.run(&req.mode(if pooled { Pooled } else { Serial }))
}

/// `req` over `ranks` thread-ranks.
fn over_ranks(req: ReconRequest, ranks: usize, use_buffered: bool) -> ReconRequest {
    let config = DistConfig {
        ranks,
        use_buffered,
        ..DistConfig::default()
    };
    req.mode(ExecMode::Distributed { config, ft: None })
}

fn assert_slice_matches(out: &ReconResponse, j: usize, single: &ReconResponse, ctx: &str) {
    assert_columns_match(out, j, single, 0, ctx);
}

/// Column `j` of `out` carries the records and image bits of column `i`
/// of `want`.
fn assert_columns_match(out: &ReconResponse, j: usize, want: &ReconResponse, i: usize, ctx: &str) {
    assert_eq!(
        out.slice_records[j].len(),
        want.slice_records[i].len(),
        "{ctx}: slice {j} iteration count"
    );
    for (a, b) in out.slice_records[j].iter().zip(&want.slice_records[i]) {
        assert_eq!(a.iter, b.iter, "{ctx}: slice {j}");
        assert_eq!(
            a.residual_norm.to_bits(),
            b.residual_norm.to_bits(),
            "{ctx}: slice {j} residual at iter {}",
            a.iter
        );
        assert_eq!(
            a.solution_norm.to_bits(),
            b.solution_norm.to_bits(),
            "{ctx}: slice {j} solution at iter {}",
            a.iter
        );
    }
    let got: Vec<u32> = out.images[j].iter().map(|v| v.to_bits()).collect();
    let bits: Vec<u32> = want.images[i].iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, bits, "{ctx}: slice {j} image bits");
}

#[test]
fn engine_batched_columns_equal_looped_single_slice() {
    let (grid, scan) = geometry(24, 36);
    let ops = preprocess(grid, scan, &Config::default());
    let slices = sinos(grid, scan, 24, 3);
    let mut y = Vec::new();
    for s in &slices {
        y.extend_from_slice(&ops.order_sinogram(s));
    }
    let op = ops.operator(Kernel::Serial);
    // All three slices together in one batch-3 workspace.
    let solve3 = |rule: &mut dyn UpdateRule, stop| {
        let mut ws = SolverWorkspace::new_batched(op.nrows(), op.ncols(), 3);
        let (free, noop) = (Constraint::None, Metrics::noop());
        run_engine_in(op.as_ref(), &y, rule, free, stop, &noop, &mut ws);
        let images: Vec<Vec<f32>> = ws.x().chunks(op.ncols()).map(<[f32]>::to_vec).collect();
        (images, ws.slice_records().to_vec())
    };
    for stop in [
        StopRule::Fixed(8),
        StopRule::EarlyTermination {
            max_iters: 30,
            min_decrease: 1e-3,
        },
    ] {
        // CG.
        let (images, records) = solve3(&mut CgRule::new(), stop);
        for (j, s) in slices.iter().enumerate() {
            let yj = ops.order_sinogram(s);
            let (x, recs) =
                run_engine(op.as_ref(), &yj, &mut CgRule::new(), Constraint::None, stop);
            assert_eq!(records[j].len(), recs.len(), "cg slice {j} ({stop:?})");
            for (a, b) in records[j].iter().zip(&recs) {
                assert_eq!(a.residual_norm.to_bits(), b.residual_norm.to_bits());
                assert_eq!(a.solution_norm.to_bits(), b.solution_norm.to_bits());
            }
            let got: Vec<u32> = images[j].iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = x.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "cg slice {j} image ({stop:?})");
        }
        // SIRT.
        let (images, records) = solve3(&mut SirtRule::new(1.0), stop);
        for (j, s) in slices.iter().enumerate() {
            let yj = ops.order_sinogram(s);
            let (x, recs) = run_engine(
                op.as_ref(),
                &yj,
                &mut SirtRule::new(1.0),
                Constraint::None,
                stop,
            );
            assert_eq!(records[j].len(), recs.len(), "sirt slice {j} ({stop:?})");
            for (a, b) in records[j].iter().zip(&recs) {
                assert_eq!(a.residual_norm.to_bits(), b.residual_norm.to_bits());
                assert_eq!(a.solution_norm.to_bits(), b.solution_norm.to_bits());
            }
            let got: Vec<u32> = images[j].iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = x.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "sirt slice {j} image ({stop:?})");
        }
    }
}

#[test]
fn reconstructor_batched_columns_equal_single_slice_runs() {
    let (grid, scan) = geometry(24, 36);
    let slices = sinos(grid, scan, 24, 3);
    let stop = StopRule::EarlyTermination {
        max_iters: 30,
        min_decrease: 2e-2,
    };
    for threads in [None, Some(1), Some(2), Some(4)] {
        let mut batched_b = ReconstructorBuilder::new(grid, scan).batch(3);
        let mut single_b = ReconstructorBuilder::new(grid, scan);
        if let Some(t) = threads {
            batched_b = batched_b.use_pool(true).pool_threads(t);
            single_b = single_b.use_pool(true).pool_threads(t);
        }
        let batched = batched_b.build().unwrap();
        let single = single_b.build().unwrap();
        let ctx = format!("pool={threads:?}");

        let out = run(&batched, ReconRequest::cg(Batch(slices.clone()), stop)).unwrap();
        let mut lens = Vec::new();
        for (j, s) in slices.iter().enumerate() {
            let want = run(&single, ReconRequest::cg(Slice(s.clone()), stop)).unwrap();
            lens.push(want.slice_records[0].len());
            assert_slice_matches(&out, j, &want, &format!("cg {ctx}"));
        }
        // The phantoms differ enough that at least two retirement points
        // differ — per-slice stopping is actually independent.
        lens.dedup();
        assert!(lens.len() > 1, "slices all stopped together: {lens:?}");

        let out = run(&batched, ReconRequest::sirt(Batch(slices.clone()), 10)).unwrap();
        for (j, s) in slices.iter().enumerate() {
            let want = run(&single, ReconRequest::sirt(Slice(s.clone()), 10)).unwrap();
            assert_slice_matches(&out, j, &want, &format!("sirt {ctx}"));
        }
    }
}

/// OS-SIRT at width 3 (serial: its only executor): every column carries
/// the bits of its own single-slice solve, to a fixed count and under
/// per-slice early termination alike.
#[test]
fn os_sirt_batched_columns_equal_single_slice_runs() {
    let (grid, scan) = geometry(24, 36);
    let slices = sinos(grid, scan, 24, 3);
    let batched = ReconstructorBuilder::new(grid, scan)
        .batch(3)
        .build()
        .unwrap();
    let single = ReconstructorBuilder::new(grid, scan).build().unwrap();
    let solver = Solver::OsSirt {
        subsets: 5,
        relax: 0.8,
    };
    let early = StopRule::EarlyTermination {
        max_iters: 30,
        min_decrease: 2e-2,
    };
    for stop in [StopRule::Fixed(6), early] {
        let os_sirt = |input| ReconRequest::cg(input, stop).solver(solver);
        let out = batched.run(&os_sirt(Batch(slices.clone()))).unwrap();
        for (j, s) in slices.iter().enumerate() {
            let want = single.run(&os_sirt(Slice(s.clone()))).unwrap();
            assert_slice_matches(&out, j, &want, &format!("os-sirt {stop:?}"));
        }
    }
}

#[test]
fn batch_of_one_is_bit_identical_to_single_path() {
    let (grid, scan) = geometry(24, 36);
    let slices = sinos(grid, scan, 24, 1);
    let rec = ReconstructorBuilder::new(grid, scan).build().unwrap();
    let stop = StopRule::Fixed(8);
    let single = run(&rec, ReconRequest::cg(Slice(slices[0].clone()), stop)).unwrap();
    let batched = run(&rec, ReconRequest::cg(Batch(slices), stop)).unwrap();
    assert_slice_matches(&batched, 0, &single, "k=1");
}

/// γ = 0 (an all-zero sinogram) is a breakdown before the first iteration:
/// the slice retires with no record, and a solve with no live slice left
/// pays for the γ probe's backprojection and nothing else.
#[test]
fn zero_sinograms_retire_without_records_or_extra_matrix_passes() {
    let (grid, scan) = geometry(24, 36);
    let live = sinos(grid, scan, 24, 2);
    let zero = Sinogram::new(scan, vec![0.0; live[0].data().len()]);
    let stop = StopRule::Fixed(5);
    let rec = ReconstructorBuilder::new(grid, scan).build().unwrap();
    let out = run(&rec, ReconRequest::cg(Slice(zero.clone()), stop)).unwrap();
    assert!(out.slice_records[0].is_empty());
    assert!(out.images[0].iter().all(|&v| v == 0.0));
    let snap = rec.metrics();
    assert_eq!(snap.counters["spmv/buffered/calls"], 1, "the γ probe only");
    assert!(!snap.counters.contains_key("solver/iterations"));
    // A dead middle column in a batch of three: its neighbours run their
    // five iterations (1 + 2·5 SpMMs) and match their single-slice solves.
    for (threads, tag) in [(None, "serial"), (Some(2), "pooled")] {
        let mut b3 = ReconstructorBuilder::new(grid, scan).batch(3);
        let mut b1 = ReconstructorBuilder::new(grid, scan);
        if let Some(t) = threads {
            b3 = b3.use_pool(true).pool_threads(t);
            b1 = b1.use_pool(true).pool_threads(t);
        }
        let (batched, single) = (b3.build().unwrap(), b1.build().unwrap());
        let slab = vec![live[0].clone(), zero.clone(), live[1].clone()];
        let out = run(&batched, ReconRequest::cg(Batch(slab), stop)).unwrap();
        assert!(out.slice_records[1].is_empty(), "{tag}: dead slice");
        for (j, s) in [(0, &live[0]), (2, &live[1])] {
            let want = run(&single, ReconRequest::cg(Slice(s.clone()), stop)).unwrap();
            assert_slice_matches(&out, j, &want, tag);
        }
        // One counter family for every executor: the kernel's.
        let snap = batched.metrics();
        assert_eq!(snap.counters["spmm/buffered/calls"], 11, "{tag}");
        assert!(!snap.counters.contains_key("spmv/buffered/calls"), "{tag}");
    }
}

#[test]
fn batch_width_misuse_is_a_typed_error() {
    let (grid, scan) = geometry(16, 12);
    assert!(matches!(
        ReconstructorBuilder::new(grid, scan).batch(0).build().err(),
        Some(BuildError::ZeroBatch)
    ));
    let slices = sinos(grid, scan, 16, 3);
    let rec = ReconstructorBuilder::new(grid, scan)
        .batch(3)
        .build()
        .unwrap();
    assert_eq!(rec.batch(), 3);
    let stop = StopRule::Fixed(2);
    let err = |req: ReconRequest| match rec.run(&req) {
        Err(ReconError::Build(e)) => e,
        other => panic!("expected a BuildError, got {:?}", other.map(|_| ())),
    };
    let width = |got| BuildError::BatchWidth { expected: 3, got };
    // A single slice into a batched reconstructor.
    let one = Slice(slices[0].clone());
    assert_eq!(err(ReconRequest::cg(one.clone(), stop)), width(1));
    assert_eq!(err(ReconRequest::sirt(one.clone(), 2)), width(1));
    // In every mode: ranks are an executor, not a different width rule.
    assert_eq!(
        err(over_ranks(ReconRequest::cg(one, stop), 2, true)),
        width(1)
    );
    // Wrong slice count in a batch.
    assert_eq!(
        err(ReconRequest::cg(Batch(slices[..2].to_vec()), stop)),
        width(2)
    );
    assert_eq!(
        err(ReconRequest::sirt(Batch(slices[..1].to_vec()), 2)),
        width(1)
    );
}

#[test]
fn batched_checkpoint_resume_is_bit_identical() {
    let (grid, scan) = geometry(24, 36);
    let slices = sinos(grid, scan, 24, 3);
    // Early termination so a slice retires before the interruption point:
    // the snapshot must carry per-slice activity and record counts.
    let stop = StopRule::EarlyTermination {
        max_iters: 12,
        min_decrease: 5e-3,
    };
    let batch3 = |b: ReconstructorBuilder, stop| {
        let rec = b.batch(3).build().unwrap();
        run(&rec, ReconRequest::cg(Batch(slices.clone()), stop)).unwrap()
    };
    let golden = batch3(ReconstructorBuilder::new(grid, scan), stop);

    // Interrupt after 4 iterations, snapshotting every boundary…
    let sink = Arc::new(MemoryCheckpointSink::new());
    let checkpointing = |sink: &Arc<MemoryCheckpointSink>| {
        ReconstructorBuilder::new(grid, scan)
            .checkpoint_sink(sink.clone() as Arc<dyn CheckpointSink>)
            .checkpoint_every(1)
    };
    let first4 = StopRule::EarlyTermination {
        max_iters: 4,
        min_decrease: 5e-3,
    };
    batch3(checkpointing(&sink), first4);
    // …then resume to the full budget.
    let resumed = batch3(checkpointing(&sink).resume(true), stop);
    for j in 0..3 {
        assert_eq!(
            golden.slice_records[j].len(),
            resumed.slice_records[j].len(),
            "slice {j} iteration count"
        );
        for (a, b) in golden.slice_records[j]
            .iter()
            .zip(&resumed.slice_records[j])
        {
            assert_eq!(a.residual_norm.to_bits(), b.residual_norm.to_bits());
            assert_eq!(a.solution_norm.to_bits(), b.solution_norm.to_bits());
        }
        let ga: Vec<u32> = golden.images[j].iter().map(|v| v.to_bits()).collect();
        let gb: Vec<u32> = resumed.images[j].iter().map(|v| v.to_bits()).collect();
        assert_eq!(ga, gb, "slice {j} image bits");
    }
}

#[test]
fn resuming_across_batch_widths_is_a_typed_error() {
    let (grid, scan) = geometry(16, 12);
    let slices = sinos(grid, scan, 16, 2);
    // In-process and over ranks alike.
    for ranks in [None, Some(2)] {
        let mode = |req| match ranks {
            Some(r) => over_ranks(req, r, true),
            None => req,
        };
        let sink = Arc::new(MemoryCheckpointSink::new());
        let rec = ReconstructorBuilder::new(grid, scan)
            .batch(2)
            .checkpoint_sink(sink.clone() as Arc<dyn CheckpointSink>)
            .checkpoint_every(1)
            .build()
            .unwrap();
        let wide = ReconRequest::cg(Batch(slices.clone()), StopRule::Fixed(3));
        rec.run(&mode(wide)).unwrap();
        // A batch-1 reconstructor must refuse the batch-2 snapshot with the
        // batch invariant, not a shape cascade or a silent partial resume.
        let rec = ReconstructorBuilder::new(grid, scan)
            .checkpoint_sink(sink as Arc<dyn CheckpointSink>)
            .checkpoint_every(1)
            .resume(true)
            .build()
            .unwrap();
        let narrow = ReconRequest::cg(Slice(slices[0].clone()), StopRule::Fixed(6));
        match rec.run(&mode(narrow)) {
            Err(ReconError::Build(BuildError::PlanCheck(report))) => {
                assert!(report.has(Invariant::CheckpointBatch), "{report}");
                assert!(
                    !report.has(Invariant::CheckpointShape),
                    "root cause only: {report}"
                );
            }
            other => panic!("ranks {ranks:?}: expected PlanCheck, got {:?}", other.err()),
        }
    }
}

#[test]
fn batched_volume_matches_slice_by_slice() {
    let (grid, scan) = geometry(24, 36);
    // 5 slices through a batch-2 reconstructor: two full groups plus a
    // padded tail whose padding output is discarded.
    let slices = sinos(grid, scan, 24, 5);
    let single = ReconstructorBuilder::new(grid, scan).build().unwrap();
    let batched = ReconstructorBuilder::new(grid, scan)
        .batch(2)
        .build()
        .unwrap();
    let stop = StopRule::Fixed(6);
    let vol = run(&batched, ReconRequest::cg(Volume(slices.clone()), stop)).unwrap();
    assert_eq!(vol.images.len(), 5);
    assert_eq!(vol.per_slice_seconds.len(), 5);
    for (j, s) in slices.iter().enumerate() {
        let want = run(&single, ReconRequest::cg(Slice(s.clone()), stop)).unwrap();
        let got: Vec<u32> = vol.images[j].iter().map(|v| v.to_bits()).collect();
        let bits: Vec<u32> = want.images[0].iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, bits, "volume slice {j}");
    }
}

#[test]
fn pooled_batched_solve_records_spmm_counters() {
    let (grid, scan) = geometry(24, 36);
    let slices = sinos(grid, scan, 24, 4);
    let rec = ReconstructorBuilder::new(grid, scan)
        .batch(4)
        .use_pool(true)
        .pool_threads(2)
        .build()
        .unwrap();
    run(&rec, ReconRequest::cg(Batch(slices), StopRule::Fixed(5))).unwrap();
    let snap = rec.metrics();
    let calls = snap.counters["spmm/buffered/calls"];
    assert!(calls > 0, "batched solve must go through the SpMM path");
    // The matrix is streamed once per call, for 4 slices' worth of work.
    assert_eq!(snap.counters["spmm/buffered/slices"], calls * 4);
    assert!(snap.counters["spmm/buffered/nnz"] > 0);
    assert!(snap.counters["spmm/buffered/bytes"] > 0);
    // The single-slice counters stay untouched by a batched solve (no
    // spmv/* activity at all).
    assert_eq!(snap.counters.get("spmv/buffered/calls").copied(), None);
}

/// Batch × ranks is the ordinary case: every column of a width-3 solve
/// over thread-ranks carries the image, the residual / solution norms and
/// the retirement iteration of that slice solved alone over the same
/// ranks.
#[test]
fn distributed_batched_columns_equal_single_slice_distributed_runs() {
    let (grid, scan) = geometry(24, 36);
    let slices = sinos(grid, scan, 24, 3);
    let batched = ReconstructorBuilder::new(grid, scan)
        .batch(3)
        .build()
        .unwrap();
    let single = ReconstructorBuilder::new(grid, scan).build().unwrap();
    let request = |name, input| match name {
        "cg" => {
            let early = StopRule::EarlyTermination {
                max_iters: 30,
                min_decrease: 2e-2,
            };
            ReconRequest::cg(input, early)
        }
        _ => ReconRequest::sirt(input, 10),
    };
    for (ranks, use_buffered) in [1, 2, 3].into_iter().flat_map(|r| [(r, false), (r, true)]) {
        for name in ["cg", "sirt"] {
            let ctx = format!("{name} ranks={ranks} buffered={use_buffered}");
            let dist = |input| over_ranks(request(name, input), ranks, use_buffered);
            let out = batched.run(&dist(Batch(slices.clone()))).unwrap();
            assert_eq!(out.images.len(), 3, "{ctx}");
            assert_eq!(out.dist.as_ref().unwrap().breakdowns.len(), ranks, "{ctx}");
            let mut lens = Vec::new();
            for (j, s) in slices.iter().enumerate() {
                let want = single.run(&dist(Slice(s.clone()))).unwrap();
                lens.push(want.slice_records[0].len());
                assert_slice_matches(&out, j, &want, &ctx);
            }
            if name == "cg" {
                // Per-slice retirement is independent over ranks too.
                lens.dedup();
                assert!(
                    lens.len() > 1,
                    "{ctx}: slices all stopped together: {lens:?}"
                );
            }
        }
    }
}

#[test]
fn distributed_volume_matches_slice_by_slice() {
    let (grid, scan) = geometry(24, 36);
    // Two full groups plus a padded tail, each group one halo-exchanged
    // width-2 solve over 2 ranks.
    let slices = sinos(grid, scan, 24, 5);
    let single = ReconstructorBuilder::new(grid, scan).build().unwrap();
    let batched = ReconstructorBuilder::new(grid, scan)
        .batch(2)
        .build()
        .unwrap();
    let dist = |input| over_ranks(ReconRequest::cg(input, StopRule::Fixed(6)), 2, true);
    let vol = batched.run(&dist(Volume(slices.clone()))).unwrap();
    assert_eq!(vol.images.len(), 5);
    assert_eq!(vol.per_slice_seconds.len(), 5);
    assert!(vol.dist.is_some() && vol.breakdown.c_s > 0.0);
    for (j, s) in slices.iter().enumerate() {
        let want = single.run(&dist(Slice(s.clone()))).unwrap();
        assert_slice_matches(&vol, j, &want, "volume over ranks");
    }
}

/// A width-3 snapshot gathered at 3 ranks resumes at 3 ranks and — the
/// snapshot being rank-count independent — at 2, each column carrying the
/// bits of the same save / resume sequence run at width 1.
#[test]
fn distributed_batched_checkpoint_resumes_across_rank_counts() {
    let (grid, scan) = geometry(24, 36);
    let slices = sinos(grid, scan, 24, 3);
    let stop = |max_iters| StopRule::EarlyTermination {
        max_iters,
        min_decrease: 5e-3,
    };
    let batched = ReconstructorBuilder::new(grid, scan)
        .batch(3)
        .build()
        .unwrap();
    let single = ReconstructorBuilder::new(grid, scan).build().unwrap();
    // Interrupt after 4 iterations at 3 ranks, snapshotting every
    // boundary; then resume to the full budget at `resume_ranks`.
    let sequence = |rec: &Reconstructor, input: ReconInput, resume_ranks| {
        let sink: Arc<dyn CheckpointSink> = Arc::new(MemoryCheckpointSink::new());
        let policy = CheckpointPolicy::new(sink, 1);
        let save = ReconRequest::cg(input.clone(), stop(4)).checkpoint(policy.clone());
        rec.run(&over_ranks(save, 3, true)).unwrap();
        let resume = ReconRequest::cg(input, stop(12)).checkpoint(policy.resume(true));
        rec.run(&over_ranks(resume, resume_ranks, true)).unwrap()
    };
    for resume_ranks in [3, 2] {
        let ctx = format!("resume at {resume_ranks} ranks");
        let out = sequence(&batched, Batch(slices.clone()), resume_ranks);
        for (j, s) in slices.iter().enumerate() {
            let want = sequence(&single, Slice(s.clone()), resume_ranks);
            assert_slice_matches(&out, j, &want, &ctx);
        }
        if resume_ranks == 3 {
            // Same rank count throughout: the uninterrupted run's bits.
            let golden = ReconRequest::cg(Batch(slices.clone()), stop(12));
            let golden = batched.run(&over_ranks(golden, 3, true)).unwrap();
            for j in 0..3 {
                assert_columns_match(&out, j, &golden, j, "uninterrupted");
            }
        }
    }
}

/// A rank crash in the middle of a width-2 solve ends completed (one
/// degraded restart from the global snapshot) or with a typed
/// communication error — inside the timeout, never a hang.
#[test]
fn distributed_batched_rank_crash_completes_or_fails_typed() {
    let (grid, scan) = geometry(24, 36);
    let slices = sinos(grid, scan, 24, 2);
    let config = DistConfig {
        ranks: 3,
        ..DistConfig::default()
    };
    let ft = FaultTolerance {
        faults: Arc::new(FaultPlan::new().with(1, 5, FaultKind::Crash)),
        max_restarts: 1,
        ..FaultTolerance::default()
    };
    let policy = CheckpointPolicy::new(Arc::new(MemoryCheckpointSink::new()), 1).resume(true);
    let req = ReconRequest::cg(Batch(slices), StopRule::Fixed(8))
        .mode(ExecMode::Distributed {
            config,
            ft: Some(ft),
        })
        .checkpoint(policy);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let metrics = Metrics::collecting();
        let rec = ReconstructorBuilder::new(grid, scan)
            .batch(2)
            .metrics(metrics.clone())
            .build()
            .unwrap();
        let _ = tx.send((rec.run(&req), metrics.snapshot()));
    });
    let (out, snap) = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("width-2 chaos drill hung");
    assert!(snap.counters["fault/rank_loss"] >= 1);
    match out {
        Ok(out) => {
            assert!(snap.counters["fault/restarts"] >= 1);
            for (recs, image) in out.slice_records.iter().zip(&out.images) {
                assert_eq!(recs.len(), 8, "restarted solve must reach budget");
                assert!(image.iter().all(|v| v.is_finite()));
            }
        }
        Err(ReconError::Build(BuildError::Comm(_))) => {}
        Err(other) => panic!("expected completion or BuildError::Comm, got {other}"),
    }
}

/// One halo exchange carries all `k` slices, so the data plane of a
/// width-3 solve is exactly `k` times the schedule's single-slice bytes —
/// what `ledger_check` predicts at `k·forwards`, `k·backs`.
#[test]
fn distributed_batched_ledger_reconciles_at_k_times_the_schedule() {
    let (grid, scan) = geometry(24, 36);
    let slices = sinos(grid, scan, 24, 3);
    let rec = ReconstructorBuilder::new(grid, scan)
        .batch(3)
        .build()
        .unwrap();
    let (ranks, iters, k) = (3, 4, 3);
    let req = ReconRequest::cg(Batch(slices), StopRule::Fixed(iters));
    rec.run(&over_ranks(req, ranks, false)).unwrap();
    let observed = rec.metrics().matrices["comm/bytes"].clone();
    assert_eq!(observed.size, ranks);
    let plans = build_plans(rec.operators(), ranks, false);
    // CG applies A once per iteration and Aᵀ once more (the initial
    // gradient).
    let (forwards, backs) = (iters as u64, iters as u64 + 1);
    let mut report = memxct::CheckReport::new();
    let check = |f, b| ledger_check("ledger", &plans, observed.data.clone(), f, b);
    xct_check::Check::run(&check(k * forwards, k * backs), &mut report);
    assert!(report.is_ok(), "{report}");
    // The width-1 prediction does not fit a width-3 run.
    xct_check::Check::run(&check(forwards, backs), &mut report);
    assert!(report.has(Invariant::LedgerReconciliation), "{report}");
}
