//! Batched (SpMM) execution tests: every column of a batched solve must
//! be bit-identical to its own single-slice solve — engine-level and
//! through the `Reconstructor` API, serial and pooled, CG and SIRT, with
//! per-slice early termination and mid-batch checkpoint/resume — and the
//! batch-width misuses must surface as typed errors.

use std::sync::Arc;

use memxct::prelude::*;
use memxct::ExecMode::{Pooled, Serial};
use memxct::ReconInput::{Batch, Slice, Volume};
use memxct::{run_engine_in, Invariant, SolverWorkspace};
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

fn assert_slice_matches(out: &ReconResponse, j: usize, single: &ReconResponse, ctx: &str) {
    assert_eq!(
        out.slice_records[j].len(),
        single.slice_records[0].len(),
        "{ctx}: slice {j} iteration count"
    );
    for (a, b) in out.slice_records[j].iter().zip(&single.slice_records[0]) {
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
    let want: Vec<u32> = single.images[0].iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want, "{ctx}: slice {j} image bits");
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
    for (threads, kernel) in [(None, "buffered"), (Some(2), "pooled")] {
        let mut b3 = ReconstructorBuilder::new(grid, scan).batch(3);
        let mut b1 = ReconstructorBuilder::new(grid, scan);
        if let Some(t) = threads {
            b3 = b3.use_pool(true).pool_threads(t);
            b1 = b1.use_pool(true).pool_threads(t);
        }
        let (batched, single) = (b3.build().unwrap(), b1.build().unwrap());
        let slab = vec![live[0].clone(), zero.clone(), live[1].clone()];
        let out = run(&batched, ReconRequest::cg(Batch(slab), stop)).unwrap();
        assert!(out.slice_records[1].is_empty(), "{kernel}: dead slice");
        for (j, s) in [(0, &live[0]), (2, &live[1])] {
            let want = run(&single, ReconRequest::cg(Slice(s.clone()), stop)).unwrap();
            assert_slice_matches(&out, j, &want, kernel);
        }
        let snap = batched.metrics();
        assert_eq!(snap.counters[&format!("spmm/{kernel}/calls")], 11);
        assert!(!snap.counters.contains_key(&format!("spmv/{kernel}/calls")));
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
    // The distributed path is single-slice only, and says so.
    let config = DistConfig::default();
    assert_eq!(
        err(ReconRequest::cg(one, stop).mode(ExecMode::Distributed { config, ft: None })),
        BuildError::DistributedBatchUnsupported { batch: 3 }
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
    let sink = Arc::new(MemoryCheckpointSink::new());
    let rec = ReconstructorBuilder::new(grid, scan)
        .batch(2)
        .checkpoint_sink(sink.clone() as Arc<dyn CheckpointSink>)
        .checkpoint_every(1)
        .build()
        .unwrap();
    run(
        &rec,
        ReconRequest::cg(Batch(slices.clone()), StopRule::Fixed(3)),
    )
    .unwrap();
    // A batch-1 reconstructor must refuse the batch-2 snapshot with the
    // batch invariant, not a shape cascade or a silent partial resume.
    let rec = ReconstructorBuilder::new(grid, scan)
        .checkpoint_sink(sink as Arc<dyn CheckpointSink>)
        .checkpoint_every(1)
        .resume(true)
        .build()
        .unwrap();
    match run(
        &rec,
        ReconRequest::cg(Slice(slices[0].clone()), StopRule::Fixed(6)),
    ) {
        Err(ReconError::Build(BuildError::PlanCheck(report))) => {
            assert!(report.has(Invariant::CheckpointBatch), "{report}");
            assert!(
                !report.has(Invariant::CheckpointShape),
                "root cause only: {report}"
            );
        }
        other => panic!("expected PlanCheck, got {:?}", other.err()),
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
    let calls = snap.counters["spmm/pooled/calls"];
    assert!(calls > 0, "batched solve must go through the SpMM path");
    // The matrix is streamed once per call, for 4 slices' worth of work.
    assert_eq!(snap.counters["spmm/pooled/slices"], calls * 4);
    assert!(snap.counters["spmm/pooled/nnz"] > 0);
    assert!(snap.counters["spmm/pooled/bytes"] > 0);
    // The single-slice counters stay untouched by a batched solve (no
    // spmv/* activity at all).
    assert_eq!(snap.counters.get("spmv/pooled/calls").copied(), None);
}
