//! The request matrix: input × execution mode × solver. Every cell goes
//! through the one group loop, so every cell must checkpoint, resume and
//! yield alike — a stop at a boundary inside the first, a middle or the
//! last group of any input, on any executor, resumes to the bits of the
//! uninterrupted run — and no request field may be silently ignored by
//! any mode. OS-SIRT's subset products run on the request's executor: it
//! runs every serial and pooled cell, and is refused, typed, over ranks.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use memxct::prelude::*;
use memxct::ReconInput::{Batch, Slice, Volume};
use memxct::{dist::build_plans, ledger_check};
use xct_geometry::{disk, simulate_sinogram, Grid, NoiseModel, ScanGeometry, Sinogram};

const N: u32 = 24;
const WIDTH: usize = 3;

fn geometry() -> (Grid, ScanGeometry) {
    (Grid::new(N), ScanGeometry::new(36, N))
}

/// One sinogram per slice, each from a different phantom so the slices
/// converge at different rates.
fn sinos(k: usize) -> Vec<Sinogram> {
    let (grid, scan) = geometry();
    (0..k)
        .map(|j| {
            let truth = disk(0.3 + 0.1 * j as f64, 1.0 + 0.5 * j as f32).rasterize(N);
            simulate_sinogram(&truth, &grid, &scan, NoiseModel::None, j as u64)
        })
        .collect()
}

/// A reconstructor of batch width `batch` on `kernel` that can serve
/// every mode.
fn reconstructor(batch: usize, kernel: Kernel) -> Reconstructor {
    let (grid, scan) = geometry();
    let config = Config {
        kernel,
        ..Config::default()
    };
    ReconstructorBuilder::new(grid, scan)
        .config(config)
        .batch(batch)
        .use_pool(true)
        .pool_threads(2)
        .build()
        .unwrap()
}

fn over_ranks(ranks: usize) -> ExecMode {
    ExecMode::Distributed {
        ranks,
        ft: FaultTolerance::disabled(),
    }
}

/// Serial and pooled (2 threads) on the buffered kernel, and 1 / 2 / 3
/// ranks on the buffered and the CSR kernel, each with the kernel its
/// reconstructor is built on.
fn modes() -> Vec<(String, Kernel, ExecMode)> {
    let mut modes = vec![
        ("serial".to_string(), Kernel::Buffered, ExecMode::Serial),
        ("pooled".to_string(), Kernel::Buffered, ExecMode::Pooled),
    ];
    for ranks in 1..=3 {
        for kernel in [Kernel::Buffered, Kernel::Serial] {
            let name = format!("ranks={ranks} kernel={kernel:?}");
            modes.push((name, kernel, over_ranks(ranks)));
        }
    }
    modes
}

const EARLY_CAP: usize = 60;

/// CG to a fixed count, CG with per-slice early termination, relaxed SIRT
/// and relaxed OS-SIRT.
fn solvers() -> Vec<(&'static str, Solver, StopRule)> {
    let early = StopRule::EarlyTermination {
        max_iters: EARLY_CAP,
        min_decrease: 2e-2,
    };
    vec![
        ("cg-fixed", Solver::Cg, StopRule::Fixed(6)),
        ("cg-early", Solver::Cg, early),
        ("sirt-0.7", Solver::Sirt { relax: 0.7 }, StopRule::Fixed(5)),
        (
            "os-sirt-4-0.7",
            Solver::OsSirt {
                subsets: 4,
                relax: 0.7,
            },
            StopRule::Fixed(5),
        ),
    ]
}

fn request(input: ReconInput, solver: Solver, stop: StopRule, mode: &ExecMode) -> ReconRequest {
    ReconRequest::cg(input, stop)
        .solver(solver)
        .mode(mode.clone())
}

fn image_bits(resp: &ReconResponse) -> Vec<Vec<u32>> {
    let bits = |image: &Vec<f32>| image.iter().map(|v| v.to_bits()).collect();
    resp.images.iter().map(bits).collect()
}

/// Per slice, per iteration: the bits of both norms. The list lengths are
/// the retirement iterations.
fn record_bits(resp: &ReconResponse) -> Vec<Vec<(u64, u64)>> {
    let bits = |r: &IterationRecord| (r.residual_norm.to_bits(), r.solution_norm.to_bits());
    resp.slice_records
        .iter()
        .map(|recs| recs.iter().map(bits).collect())
        .collect()
}

fn assert_same(got: &ReconResponse, want: &ReconResponse, ctx: &str) {
    assert_eq!(record_bits(got), record_bits(want), "{ctx}: records");
    assert_eq!(image_bits(got), image_bits(want), "{ctx}: images");
    assert_eq!(got.per_slice_seconds.len(), want.images.len(), "{ctx}");
}

/// Iteration boundaries (hook consultations) of each group of a finished
/// run: one after every iteration that left a slice active.
fn boundaries(resp: &ReconResponse, width: usize, stop: StopRule) -> Vec<usize> {
    resp.slice_records
        .chunks(width)
        .map(|group| {
            let ran = group.iter().map(Vec::len).max().unwrap();
            match stop {
                StopRule::Fixed(cap) => {
                    assert_eq!(ran, cap);
                    cap
                }
                StopRule::EarlyTermination { max_iters, .. } => {
                    assert!(ran < max_iters, "early termination must end the group");
                    ran - 1
                }
            }
        })
        .collect()
}

/// A control whose deadline predicate fires at its `nth` consultation
/// (never, for 0), and the consultation counter.
fn nth_boundary(nth: usize) -> (RunControl, Arc<AtomicUsize>) {
    let ctrl = RunControl::new();
    let seen = Arc::new(AtomicUsize::new(0));
    let counter = seen.clone();
    ctrl.set_deadline_check(move || counter.fetch_add(1, Ordering::SeqCst) + 1 == nth);
    (ctrl, seen)
}

fn memory_policy(every: usize) -> (Arc<MemoryCheckpointSink>, CheckpointPolicy) {
    let sink = Arc::new(MemoryCheckpointSink::new());
    (sink.clone(), CheckpointPolicy::new(sink, every))
}

/// (a) input × mode × solver: a stop inside the first, a middle and the
/// last group returns `Preempted` at the boundary asked for, leaves the
/// finished groups' terminal states and the stopped group's snapshot in
/// slots `0..=g`, and the same request with `resume(true)` ends on the
/// bits of the uninterrupted run. On the way: a controlled run nobody
/// stops is the uncontrolled run, and consults the predicate exactly once
/// per boundary on every executor, and a pooled run is the serial run,
/// bit for bit. OS-SIRT over ranks is refused before anything runs: a
/// typed error, and an empty sink even under a cadence policy.
#[test]
fn a_stop_in_any_group_resumes_bit_identically_everywhere() {
    let slices = sinos(7);
    for (mode_name, kernel, mode) in modes() {
        let (single, wide) = (reconstructor(1, kernel), reconstructor(WIDTH, kernel));
        let inputs = [
            ("slice", &single, Slice(slices[0].clone())),
            ("batch", &wide, Batch(slices[..WIDTH].to_vec())),
            ("volume", &wide, Volume(slices.clone())),
        ];
        for (input_name, rec, input) in &inputs {
            for (solver_name, solver, stop) in solvers() {
                let ctx = format!("{input_name} / {mode_name} / {solver_name}");
                let req = request(input.clone(), solver, stop, &mode);
                if let (Solver::OsSirt { .. }, ExecMode::Distributed { .. }) = (solver, &mode) {
                    let (sink, policy) = memory_policy(1);
                    let watched = req.checkpoint(policy);
                    let refused = rec.run_controlled(&watched, &RunControl::new());
                    assert!(
                        matches!(
                            refused,
                            Err(ReconError::Build(BuildError::SerialOnly("distributed")))
                        ),
                        "{ctx}: {refused:?}"
                    );
                    // The distributed entry outside the request model too.
                    if let ExecMode::Distributed { ranks, .. } = mode {
                        let use_buffered = kernel == Kernel::Buffered;
                        let config = DistConfig {
                            ranks,
                            use_buffered,
                            stop,
                            solver,
                        };
                        let ops = rec.operators();
                        let y = vec![0f32; ops.a.nrows() * rec.batch()];
                        let direct = try_reconstruct_distributed(ops, &y, &config);
                        let refused = matches!(direct, Err(BuildError::SerialOnly("distributed")));
                        assert!(refused, "{ctx}: direct");
                    }
                    assert!(sink.is_empty(), "{ctx}: a refused request saved a snapshot");
                    continue;
                }
                let golden = rec.run(&req).unwrap();
                if let ExecMode::Pooled = mode {
                    let serial = request(input.clone(), solver, stop, &ExecMode::Serial);
                    assert_same(
                        &golden,
                        &rec.run(&serial).unwrap(),
                        &format!("{ctx}: serial"),
                    );
                }
                let calls = boundaries(&golden, rec.batch(), stop);
                let groups = calls.len();
                assert_eq!(groups, input.num_slices().div_ceil(rec.batch()), "{ctx}");
                assert!(calls.iter().all(|&c| c >= 2), "{ctx}: {calls:?}");

                let (ctrl, seen) = nth_boundary(0);
                let (sink, policy) = memory_policy(0);
                let watched = req.clone().checkpoint(policy);
                match rec.run_controlled(&watched, &ctrl).unwrap() {
                    RunOutcome::Completed(resp) => assert_same(&resp, &golden, &ctx),
                    other => panic!("{ctx}: nobody asked for {other:?}"),
                }
                let total: usize = calls.iter().sum();
                assert_eq!(seen.load(Ordering::SeqCst), total, "{ctx}: consultations");
                // Finished groups that are not the last keep their state.
                assert_eq!(sink.len(), groups - 1, "{ctx}");

                let mut targets = vec![0, groups / 2, groups - 1];
                targets.dedup();
                for g in targets {
                    let ctx = format!("{ctx} / stop in group {g}");
                    let before: usize = calls[..g].iter().sum();
                    let local = calls[g] / 2 + 1;
                    let ctrl = if g == 0 {
                        let ctrl = RunControl::new();
                        ctrl.preempt_at(local);
                        ctrl
                    } else {
                        nth_boundary(before + local).0
                    };
                    let (sink, policy) = memory_policy(0);
                    let stopped = req.clone().checkpoint(policy.clone());
                    match rec.run_controlled(&stopped, &ctrl).unwrap() {
                        RunOutcome::Preempted { iteration } => {
                            assert_eq!(iteration, local, "{ctx}")
                        }
                        RunOutcome::Completed(_) => panic!("{ctx}: ran to completion"),
                    }
                    assert_eq!(sink.len(), g + 1, "{ctx}: slots written");
                    let snap = Snapshot::decode(&sink.load(g).unwrap().unwrap()).unwrap();
                    assert_eq!(snap.iteration(), local as u64, "{ctx}");

                    let resumed = req.clone().checkpoint(policy.resume(true));
                    let resp = rec.run(&resumed).unwrap();
                    assert_same(&resp, &golden, &ctx);
                }
            }
        }
    }
}

/// (b) A live `request_preempt()` from another thread stops a 3-rank
/// solve under the supervised runtime's default deadline: every rank
/// leaves at the one boundary rank 0's answer names (no hang, no
/// communication error), the snapshot decodes, and the resume is
/// bit-identical.
#[test]
fn a_live_preemption_request_stops_all_ranks_at_one_boundary() {
    let rec = reconstructor(1, Kernel::Buffered);
    let slice = sinos(1).remove(0);
    let mode = ExecMode::Distributed {
        ranks: 3,
        ft: FaultTolerance::default(),
    };
    // SIRT never breaks down, so only the request can end this early.
    let sirt = |iters| ReconRequest::sirt(Slice(slice.clone()), iters).mode(mode.clone());
    let (sink, policy) = memory_policy(0);
    let long = sirt(20_000).checkpoint(policy.clone());

    let (ctrl, seen) = nth_boundary(0);
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(|| {
            let _ = done_tx.send(rec.run_controlled(&long, &ctrl));
        });
        // Once the solve is past its first boundary, ask it to yield.
        while seen.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        ctrl.request_preempt();
        let outcome = done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the ranks hung on the preemption request")
            .expect("the ranks disagreed");
        let RunOutcome::Preempted { iteration } = outcome else {
            panic!("20 000 iterations finished before one request landed");
        };
        assert!((1..20_000).contains(&iteration));
        let snap = Snapshot::decode(&sink.load(0).unwrap().unwrap()).unwrap();
        assert_eq!(snap.iteration(), iteration as u64);

        // Fixed-count SIRT iterates do not depend on the cap, so a short
        // request continues the long one's snapshot.
        let cap = iteration + 3;
        let golden = rec.run(&sirt(cap)).unwrap();
        let resumed = rec
            .run(&sirt(cap).checkpoint(policy.clone().resume(true)))
            .unwrap();
        assert_same(&resumed, &golden, "live preemption");
    });
}

/// (c) Cadence snapshots of a volume land in slots `0..groups`, and a
/// volume stopped at 3 ranks resumes at 3, at 2 and in-process — every
/// column carrying the bits of the same stop / resume sequence run on
/// that slice alone (the snapshot is rank-count independent).
#[test]
fn volume_snapshots_use_one_slot_per_group_and_any_executor_resumes_them() {
    let single = reconstructor(1, Kernel::Buffered);
    let wide = reconstructor(WIDTH, Kernel::Buffered);
    let slices = sinos(7);
    let stop = StopRule::Fixed(5);

    let (sink, policy) = memory_policy(2);
    let req = ReconRequest::cg(Volume(slices.clone()), stop).mode(over_ranks(3));
    wide.run(&req.checkpoint(policy)).unwrap();
    assert_eq!(sink.len(), 3, "one slot per group");
    let iteration = |slot| {
        let snap = Snapshot::decode(&sink.load(slot).unwrap().unwrap()).unwrap();
        assert_eq!(snap.u64s(memxct::checkpoint::SECTION_BATCH).unwrap(), [3]);
        snap.iteration()
    };
    // Terminal states of the groups that are not the last; the last keeps
    // "no checkpoint after the end": its latest cadence snapshot.
    assert_eq!([iteration(0), iteration(1), iteration(2)], [5, 5, 4]);

    // Stop group 1 at boundary 3 over 3 ranks, resume in `mode`.
    let sequence = |rec: &Reconstructor, input: ReconInput, stops: bool, mode: &ExecMode| {
        let (_, policy) = memory_policy(0);
        let req = ReconRequest::cg(input, stop).checkpoint(policy.clone());
        if stops {
            // 5 boundaries in group 0, then the third of group 1.
            let (ctrl, _) = nth_boundary(if rec.batch() == 1 { 3 } else { 8 });
            let outcome = rec.run_controlled(&req.clone().mode(over_ranks(3)), &ctrl);
            assert!(matches!(
                outcome.unwrap(),
                RunOutcome::Preempted { iteration: 3 }
            ));
        }
        let resumed = req.checkpoint(policy.resume(true)).mode(mode.clone());
        rec.run(&resumed).unwrap()
    };
    for mode in [over_ranks(3), over_ranks(2), ExecMode::Serial] {
        let ctx = format!("resume in {mode:?}");
        let out = sequence(&wide, Volume(slices.clone()), true, &mode);
        assert_eq!(out.images.len(), 7, "{ctx}");
        for (j, s) in slices.iter().enumerate() {
            // Group 0 finished over 3 ranks before the stop, group 1 was
            // stopped there, group 2 only ever ran in `mode`.
            let want = match j / WIDTH {
                0 => sequence(&single, Slice(s.clone()), false, &over_ranks(3)),
                1 => sequence(&single, Slice(s.clone()), true, &mode),
                _ => sequence(&single, Slice(s.clone()), false, &mode),
            };
            let ctx = format!("{ctx}: slice {j}");
            assert_eq!(record_bits(&out)[j], record_bits(&want)[0], "{ctx}");
            assert_eq!(image_bits(&out)[j], image_bits(&want)[0], "{ctx}");
        }
    }
}

/// (d) Every public field of a request, changed alone, changes what the
/// run produces or is rejected with a typed error — in every mode.
#[test]
fn no_mode_ignores_a_request_field() {
    let unpooled = {
        let (grid, scan) = geometry();
        ReconstructorBuilder::new(grid, scan).build().unwrap()
    };
    let slices = sinos(2);
    for (mode_name, kernel, mode) in modes() {
        let rec = reconstructor(1, kernel);
        let ctx = |field: &str| format!("{mode_name}: {field}");
        let base = request(
            Slice(slices[0].clone()),
            Solver::Sirt { relax: 1.0 },
            StopRule::Fixed(5),
            &mode,
        );
        let golden = rec.run(&base).unwrap();
        let differs = |req: &ReconRequest, field: &str| {
            let out = rec.run(req).unwrap();
            assert_ne!(image_bits(&out), image_bits(&golden), "{}", ctx(field));
            out
        };

        // solver
        differs(&base.clone().solver(Solver::Cg), "solver");
        differs(
            &base.clone().solver(Solver::Sirt { relax: 0.7 }),
            "solver.relax",
        );
        for relax in [0.0, -1.0, f32::NAN] {
            let bad = base.clone().solver(Solver::Sirt { relax });
            assert!(
                matches!(
                    rec.run(&bad).err(),
                    Some(ReconError::InvalidRelaxation { .. })
                ),
                "{}",
                ctx("solver.relax")
            );
        }

        // stop
        let mut longer = base.clone();
        longer.stop = StopRule::Fixed(6);
        assert_eq!(differs(&longer, "stop").slice_records[0].len(), 6);
        let mut early = base.clone();
        early.stop = StopRule::EarlyTermination {
            max_iters: 5,
            min_decrease: 0.9,
        };
        assert!(
            differs(&early, "stop").slice_records[0].len() < 5,
            "{}",
            ctx("stop")
        );

        // input
        let mut other = base.clone();
        other.input = Slice(slices[1].clone());
        differs(&other, "input");
        other.input = Batch(slices.clone());
        assert!(
            matches!(
                rec.run(&other).err(),
                Some(ReconError::Build(BuildError::BatchWidth { .. }))
            ),
            "{}",
            ctx("input")
        );
        let short = ScanGeometry::new(6, N);
        other.input = Slice(Sinogram::new(short, vec![0.0; 6 * N as usize]));
        assert!(
            matches!(
                rec.run(&other).err(),
                Some(ReconError::Build(BuildError::SinogramLength { .. }))
            ),
            "{}",
            ctx("input")
        );

        // mode: what each variant asks for is either there or refused.
        match &mode {
            ExecMode::Serial => assert!(golden.dist.is_none()),
            ExecMode::Pooled => {
                assert!(golden.dist.is_none());
                assert!(matches!(
                    unpooled.run(&base).err(),
                    Some(ReconError::PoolNotBuilt)
                ));
            }
            ExecMode::Distributed { ranks, .. } => {
                let detail = golden.dist.as_ref().expect("distributed detail");
                assert_eq!(detail.breakdowns.len(), *ranks, "{}", ctx("ranks"));
                // The plan's kernel shows in the ranks' modeled volumes.
                let flipped = match kernel {
                    Kernel::Buffered => Kernel::Serial,
                    _ => Kernel::Buffered,
                };
                let out = reconstructor(1, flipped).run(&base).unwrap();
                let bytes = |r: &ReconResponse| r.dist.as_ref().unwrap().volumes[0].regular_bytes;
                assert_ne!(bytes(&out), bytes(&golden), "{}", ctx("kernel"));
                let refused = rec.run(&base.clone().mode(over_ranks(0)));
                assert!(
                    matches!(
                        refused.err(),
                        Some(ReconError::Build(BuildError::ZeroRanks))
                    ),
                    "{}",
                    ctx("ranks")
                );
                // The request's fault tolerance is the policy in force.
                let chaos = FaultTolerance {
                    faults: Arc::new(FaultPlan::new().with(0, 2, FaultKind::Crash)),
                    max_restarts: 0,
                    ..FaultTolerance::default()
                };
                let crashed = rec.run(&base.clone().mode(ExecMode::Distributed {
                    ranks: *ranks,
                    ft: chaos,
                }));
                assert!(
                    matches!(crashed.err(), Some(ReconError::Build(BuildError::Comm(_)))),
                    "{}",
                    ctx("ft")
                );
            }
        }

        // checkpoint: cadence, sink and resume each show.
        let saved = |every| {
            let (sink, policy) = memory_policy(every);
            let out = rec.run(&base.clone().checkpoint(policy)).unwrap();
            assert_same(&out, &golden, &ctx("checkpoint is bit-transparent"));
            let bytes = sink.load(0).unwrap();
            bytes.map(|b| Snapshot::decode(&b).unwrap().iteration())
        };
        assert_eq!(saved(0), None, "{}", ctx("checkpoint.every"));
        assert_eq!(saved(1), Some(5), "{}", ctx("checkpoint.every"));
        assert_eq!(saved(2), Some(4), "{}", ctx("checkpoint.every"));
        // A sink holding another slice's state at iteration 3: resuming
        // from it is not the run from scratch.
        let (sink, policy) = memory_policy(1);
        let mut seed = other.clone();
        seed.input = Slice(slices[1].clone());
        seed.stop = StopRule::Fixed(3);
        rec.run(&seed.checkpoint(policy.clone())).unwrap();
        let untouched = sink.load(0).unwrap();
        let fresh = rec.run(&base.clone().checkpoint(policy.clone())).unwrap();
        assert_same(&fresh, &golden, &ctx("checkpoint.resume = false"));
        sink.save(0, &untouched.unwrap()).unwrap();
        differs(
            &base.clone().checkpoint(policy.resume(true)),
            "checkpoint.resume",
        );
    }
}

/// (e) An uncontrolled distributed solve exchanges exactly what it always
/// did — the schedule's data plane plus the uniform scalar allreduces —
/// and the boundary vote of a controlled one is one 8-byte exchange per
/// pair per boundary on top, nothing else. A control without a policy
/// has nowhere to save, cannot stop the solve, and does not vote.
#[test]
fn only_a_controlled_distributed_run_pays_for_the_boundary_vote() {
    let (ranks, iters) = (3usize, 4usize);
    let slice = sinos(1).remove(0);
    let req = ReconRequest::cg(Slice(slice), StopRule::Fixed(iters)).mode(over_ranks(ranks));
    let traffic = |controlled: bool, with_policy: bool| {
        let rec = reconstructor(1, Kernel::Serial);
        let (sink, policy) = memory_policy(0);
        let req = match with_policy {
            true => req.clone().checkpoint(policy),
            false => req.clone(),
        };
        if controlled {
            let outcome = rec.run_controlled(&req, &RunControl::new());
            assert!(matches!(outcome.unwrap(), RunOutcome::Completed(_)));
        } else {
            rec.run(&req).unwrap();
        }
        assert!(sink.is_empty());
        let snap = rec.metrics();
        let plans = build_plans(rec.operators(), ranks, false);
        (
            snap.matrices["comm/bytes"].data.clone(),
            snap.counters["comm/collective_calls"],
            plans,
        )
    };
    let (plain, plain_calls, plans) = traffic(false, false);
    // CG applies A once per iteration and Aᵀ once more (the initial
    // gradient).
    let mut report = memxct::CheckReport::new();
    let check = ledger_check(
        "ledger",
        &plans,
        plain.clone(),
        iters as u64,
        iters as u64 + 1,
    );
    xct_check::Check::run(&check, &mut report);
    assert!(report.is_ok(), "{report}");
    // Per rank: one halo exchange per projection, the initial γ, and per
    // iteration the curvature, the new γ and the two recorded norms.
    let per_rank = (2 * iters + 1) + 1 + 4 * iters;
    assert_eq!(plain_calls, (ranks * per_rank) as u64);

    let (unsaved, unsaved_calls, _) = traffic(true, false);
    assert_eq!((unsaved, unsaved_calls), (plain.clone(), plain_calls));

    let (voted, voted_calls, _) = traffic(true, true);
    assert_eq!(voted_calls, plain_calls + (ranks * iters) as u64);
    for src in 0..ranks {
        for dst in 0..ranks {
            let vote = if src == dst { 0 } else { 8 * iters as u64 };
            let at = src * ranks + dst;
            assert_eq!(voted[at], plain[at] + vote, "pair ({src}, {dst})");
        }
    }
}

/// (f) Ranks run the plan's kernel. On a plan whose partitions split
/// into several stages (so the buffered kernel and CSR round apart): one
/// rank of a [`Kernel::Serial`] plan is that plan's serial solve, one
/// rank of a buffered plan is the buffered plan's serial solve, and the
/// ranks of an ELL plan (there is no rank ELL layout) are the ranks of
/// the `Serial` plan, at every rank count.
#[test]
fn ranks_run_the_plans_kernel() {
    let (grid, scan) = geometry();
    let config = Config {
        partsize: 32,
        buffsize: 64,
        ..Config::default()
    };
    let plan = |kernel| {
        ReconstructorBuilder::new(grid, scan)
            .config(Config { kernel, ..config })
            .build()
            .unwrap()
    };
    let (csr, buffered, ell) = (
        plan(Kernel::Serial),
        plan(Kernel::Buffered),
        plan(Kernel::Ell),
    );
    let ops = buffered.operators();
    let a = ops.a_buf.as_ref().unwrap();
    assert!(a.num_stages() >= 2 * a.num_partitions(), "stages split");
    let rank = build_plans(ops, 1, true).remove(0);
    let rank_a = &rank.local_buf.as_ref().unwrap().0;
    assert!(rank_a.num_stages() >= 2 * rank_a.num_partitions());

    let slice = sinos(1).remove(0);
    let req = ReconRequest::cg(Slice(slice), StopRule::Fixed(8));
    let run = |rec: &Reconstructor, mode| rec.run(&req.clone().mode(mode)).unwrap();
    let csr_serial = run(&csr, ExecMode::Serial);
    let buffered_serial = run(&buffered, ExecMode::Serial);
    assert_ne!(
        image_bits(&csr_serial),
        image_bits(&buffered_serial),
        "the plan tells the kernels apart"
    );
    assert_same(&run(&csr, over_ranks(1)), &csr_serial, "CSR plan, 1 rank");
    assert_same(
        &run(&buffered, over_ranks(1)),
        &buffered_serial,
        "buffered plan, 1 rank",
    );
    for ranks in 1..=3 {
        let ctx = format!("ELL plan, {ranks} ranks");
        assert_same(
            &run(&ell, over_ranks(ranks)),
            &run(&csr, over_ranks(ranks)),
            &ctx,
        );
    }
}
