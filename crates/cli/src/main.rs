//! `memxct-cli`: simulate scans and reconstruct slices from the command
//! line, writing viewable PGM images and raw f32 data.
//!
//! ```text
//! memxct-cli info
//! memxct-cli simulate    --dataset rds1 --scale 16 --out sino.raw [--noise 1e5]
//! memxct-cli reconstruct --dataset rds1 --scale 16 --solver cg --iters 30 \
//!                        [--sino sino.raw] [--ranks 4] [--out slice.pgm] \
//!                        [--metrics metrics.json]
//! memxct-cli serve       --jobs jobs.txt [--cache N] [--outdir DIR] \
//!                        [--metrics metrics.json]
//! ```

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::exit;
use std::str::FromStr;
use std::sync::Arc;

use memxct::prelude::*;
use xct_geometry::{
    io, simulate_sinogram, Dataset, NoiseModel, SampleKind, Sinogram, ALL_DATASETS,
};
use xct_serve::{JobError, JobRuntime, JobSpec, PlanSpec, RetryPolicy, RuntimeConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage_and_exit();
    };
    let opts = Options::parse(&args[1..]);
    match cmd.as_str() {
        "info" => info(),
        "simulate" => simulate(&opts),
        "reconstruct" => reconstruct(&opts),
        "serve" => serve(&opts),
        "check" => check(&opts),
        "help" | "--help" | "-h" => usage_and_exit(),
        other => {
            eprintln!("unknown command `{other}`");
            usage_and_exit();
        }
    }
}

fn usage_and_exit() -> ! {
    eprintln!(
        "memxct-cli — memory-centric XCT reconstruction

USAGE:
  memxct-cli info
  memxct-cli simulate    --dataset <name> [--scale N] [--noise I0] --out FILE
  memxct-cli reconstruct --dataset <name> [--scale N] [--sino FILE]
                         [--solver cg|sirt|os-sirt|fbp] [--iters N]
                         [--ranks N] [--noise I0] [--out FILE.pgm]
                         [--metrics FILE.json] [--check]
                         [--pool] [--pool-threads N] [--batch K]
                         [--checkpoint FILE] [--checkpoint-every N]
                         [--resume] [--chaos KIND@rank:index]...
  memxct-cli serve       --jobs FILE [--cache N] [--outdir DIR]
                         [--metrics FILE.json]
  memxct-cli check       --dataset <name> [--scale N] [--ranks N]
                         [--corrupt KIND]

DATASETS: ads1 ads2 ads3 ads4 rds1 rds2 (see `info`)
  --scale N      divide both sinogram dimensions by N (default 16)
  --noise I0     Poisson photon count per ray (default: noise-free)
  --solver       cg (default), sirt, os-sirt (8 subsets), fbp
  --ranks N      run cg or sirt distributed over N thread-ranks, one
                 thread each, so not with --pool (os-sirt refuses it; it
                 runs serially or with --pool)
  --out FILE     .pgm for images, .raw for sinograms
  --metrics FILE write the run's metrics snapshot as JSON
  --check        validate every memoized structure before reconstructing
                 (exit 3 if any invariant is violated)
  --pool         run SpMV on the persistent worker pool with nnz-balanced
                 static partitions (threads from RAYON_NUM_THREADS)
  --pool-threads N  pool size override (implies --pool)
  --batch K      solve K slices together through the SpMM path (cg, sirt,
                 os-sirt; also with --pool, and cg or sirt with --ranks;
                 slice 0 is the measurement, slice j a copy scaled by
                 1 + 0.05 j; --out FILE.pgm holds slice 0 and FILE.j.pgm
                 slice j)
  --checkpoint FILE  snapshot the solver state to FILE.0 (versioned,
                 checksummed) every --checkpoint-every iterations;
                 FILE's directory must exist
  --checkpoint-every N  checkpoint cadence in iterations (default 1;
                 needs --checkpoint)
  --resume       resume from the latest snapshot under --checkpoint;
                 a resumed solve is bit-identical to an uninterrupted one
  --chaos SPEC   inject one deterministic fault (repeatable; cg/sirt
                 with --ranks): KIND@rank:index with KIND one of
                 crash, drop, delay, bitflip — e.g. crash@1:3
  --corrupt KIND inject one fault before checking (check only):
                 rowptr | nan | transpose | permutation | stage-oversize |
                 duplicate-column | buffered-entry
  --jobs FILE    serve: job file, one job per line (# comments allowed):
                   NAME DATASET SCALE cg|sirt|os-sirt ITERS PRIORITY
                        [batch=K] [preempt@N] [pool]
                        [deadline=SECS] [retries=N]
                 higher priority runs first; preempt@N checkpoints the job
                 at iteration boundary N and requeues it (resume is
                 bit-identical to an uninterrupted run); deadline=SECS
                 bounds the job's wall clock from submission (overruns
                 stop at an iteration boundary, keep their checkpoint,
                 and exit 5); retries=N re-runs transient communication
                 failures up to N times with deterministic seeded
                 backoff, resuming from checkpoint (a retried job's
                 output is bit-identical to an unfaulted run)
  --cache N      serve: plan-cache capacity (default 8); jobs whose plan
                 is cached skip preprocessing entirely
  --outdir DIR   serve: write each job's images to DIR/NAME.pgm (slice 0)
                 and DIR/NAME.j.pgm (slice j of a batch=K job)

EXIT CODES
  0  success
  1  I/O error (unreadable/unwritable file)
  2  usage or configuration error
  3  invariant violation (plan --check or snapshot validation)
  4  unrecovered communication or checkpoint fault, or a contained
     job panic (serve)
  5  serve: a job exceeded its deadline= budget
  6  serve: a job was stopped or shed by runtime degradation"
    );
    exit(2);
}

/// Map a reconstruction failure to the documented exit code: typed
/// communication/checkpoint faults exit 4, invariant violations exit 3,
/// everything else is a configuration error (2).
fn die(context: &str, e: BuildError) -> ! {
    // A `PlanCheck`'s message is its report, one violation a line.
    eprintln!("{context}: {}", e.to_string().trim_end());
    match e {
        BuildError::Comm(_) | BuildError::Checkpoint(_) => exit(4),
        BuildError::PlanCheck(_) => exit(3),
        _ => exit(2),
    }
}

/// The input of a `batch`-wide run over one measurement: slice 0 is the
/// measurement itself (so its image is comparable to an unbatched run's),
/// slice `j` a copy scaled by `1 + 0.05·j`.
fn widened(sino: Sinogram, batch: usize) -> ReconInput {
    if batch == 1 {
        return ReconInput::Slice(sino);
    }
    let slice = |j: usize| {
        let scale = 1.0 + 0.05 * j as f32;
        Sinogram::new(
            sino.scan(),
            sino.data().iter().map(|&v| v * scale).collect(),
        )
    };
    ReconInput::Batch((0..batch).map(slice).collect())
}

/// Write every `n × n` image of a response: slice 0 to `first`, slice
/// `j > 0` next to it as `<stem>.<j>.pgm`.
fn write_slices(first: &Path, n: usize, images: &[Vec<f32>]) -> Vec<PathBuf> {
    let mut written = Vec::with_capacity(images.len());
    for (j, image) in images.iter().enumerate() {
        let path = match j {
            0 => first.to_path_buf(),
            _ => first.with_extension(format!("{j}.pgm")),
        };
        io::write_pgm(&path, n, n, image).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", path.display());
            exit(1);
        });
        written.push(path);
    }
    written
}

/// Exit code for a failed serve job, matching the documented mapping:
/// deadline overruns exit 5, shutdown-stopped jobs exit 6, contained
/// panics exit 4 alongside communication/checkpoint faults.
fn run_exit_code(e: &JobError) -> i32 {
    match e {
        JobError::TimedOut { .. } => 5,
        JobError::Stopped { .. } => 6,
        JobError::Panicked { .. } => 4,
        JobError::Recon(BuildError::Comm(_) | BuildError::Checkpoint(_)) => 4,
        JobError::Recon(BuildError::PlanCheck(_)) => 3,
        JobError::Recon(_) => 2,
    }
}

/// `v` as the value of `flag` when it parses and `ok` accepts it; anything
/// else is a usage error (exit 2) saying what `flag` expects.
fn checked<T: FromStr>(flag: &str, v: &str, expects: &str, ok: impl Fn(&T) -> bool) -> T {
    match v.parse() {
        Ok(n) if ok(&n) => n,
        _ => {
            eprintln!("{flag} expects {expects}, got `{v}`");
            exit(2);
        }
    }
}

/// `v` as the positive integer `flag` expects; anything else exits 2.
fn positive<T: FromStr + PartialOrd + Default>(flag: &str, v: &str) -> T {
    checked(flag, v, "a positive integer", |n| *n > T::default())
}

struct Options {
    dataset: Option<Dataset>,
    scale: u32,
    noise: Option<f64>,
    solver: String,
    iters: usize,
    ranks: Option<usize>,
    sino: Option<PathBuf>,
    out: Option<PathBuf>,
    metrics: Option<PathBuf>,
    check: bool,
    corrupt: Option<String>,
    pool: bool,
    pool_threads: Option<usize>,
    batch: usize,
    checkpoint: Option<PathBuf>,
    checkpoint_every: Option<usize>,
    resume: bool,
    chaos: Vec<FaultSpec>,
    jobs: Option<PathBuf>,
    outdir: Option<PathBuf>,
    cache: usize,
}

impl Options {
    fn parse(args: &[String]) -> Options {
        let mut o = Options {
            dataset: None,
            scale: 16,
            noise: None,
            solver: "cg".into(),
            iters: 30,
            ranks: None,
            sino: None,
            out: None,
            metrics: None,
            check: false,
            corrupt: None,
            pool: false,
            pool_threads: None,
            batch: 1,
            checkpoint: None,
            checkpoint_every: None,
            resume: false,
            chaos: Vec::new(),
            jobs: None,
            outdir: None,
            cache: 8,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> String {
                it.next()
                    .unwrap_or_else(|| {
                        eprintln!("missing value for {name}");
                        exit(2);
                    })
                    .clone()
            };
            match flag.as_str() {
                "--dataset" => {
                    let name = value("--dataset").to_uppercase();
                    o.dataset = ALL_DATASETS.iter().find(|d| d.name == name).copied();
                    if o.dataset.is_none() {
                        eprintln!("unknown dataset `{name}`; see `memxct-cli info`");
                        exit(2);
                    }
                }
                "--scale" => o.scale = positive(flag, &value(flag)),
                "--noise" => {
                    let v = value(flag);
                    let ok = |n: &f64| n.is_finite() && *n > 0.0;
                    o.noise = Some(checked(flag, &v, "a positive finite number", ok));
                }
                "--solver" => o.solver = value("--solver"),
                "--iters" => o.iters = positive(flag, &value(flag)),
                "--ranks" => o.ranks = Some(positive(flag, &value(flag))),
                "--sino" => o.sino = Some(PathBuf::from(value("--sino"))),
                "--out" => o.out = Some(PathBuf::from(value("--out"))),
                "--metrics" => o.metrics = Some(PathBuf::from(value("--metrics"))),
                "--check" => o.check = true,
                "--corrupt" => o.corrupt = Some(value("--corrupt")),
                "--checkpoint" => o.checkpoint = Some(PathBuf::from(value("--checkpoint"))),
                "--checkpoint-every" => o.checkpoint_every = Some(positive(flag, &value(flag))),
                "--resume" => o.resume = true,
                "--chaos" => match FaultPlan::parse_spec(&value("--chaos")) {
                    Ok(spec) => o.chaos.push(spec),
                    Err(e) => {
                        eprintln!("invalid --chaos spec: {e}");
                        exit(2);
                    }
                },
                "--pool" => o.pool = true,
                "--jobs" => o.jobs = Some(PathBuf::from(value("--jobs"))),
                "--outdir" => o.outdir = Some(PathBuf::from(value("--outdir"))),
                "--cache" => o.cache = positive(flag, &value(flag)),
                "--batch" => o.batch = positive(flag, &value(flag)),
                "--pool-threads" => {
                    o.pool = true;
                    o.pool_threads = Some(positive(flag, &value(flag)));
                }
                other => {
                    eprintln!("unknown flag `{other}`");
                    exit(2);
                }
            }
        }
        o
    }

    fn dataset_scaled(&self) -> Dataset {
        let ds = self.dataset.unwrap_or_else(|| {
            eprintln!("--dataset is required");
            exit(2);
        });
        ds.scaled(self.scale)
    }

    fn noise_model(&self) -> NoiseModel {
        match self.noise {
            Some(incident) => NoiseModel::Poisson {
                incident,
                scale: 0.02,
            },
            None => NoiseModel::None,
        }
    }
}

fn info() {
    println!(
        "{:<6} {:>12} {:<12} {:>14} {:>14}",
        "name", "sinogram", "sample", "nnz", "regular data"
    );
    for ds in ALL_DATASETS {
        let f = ds.footprint();
        let sample = match ds.sample {
            SampleKind::Artificial => "artificial",
            SampleKind::ShaleRock => "shale rock",
            SampleKind::MouseBrain => "mouse brain",
        };
        println!(
            "{:<6} {:>5}x{:<6} {:<12} {:>13.1}M {:>11.2} GB",
            ds.name,
            ds.projections,
            ds.channels,
            sample,
            f.nnz as f64 / 1e6,
            f.regular_forward as f64 / 1e9
        );
    }
}

fn simulate(opts: &Options) {
    let ds = opts.dataset_scaled();
    let out = opts.out.clone().unwrap_or_else(|| {
        eprintln!("--out is required for simulate");
        exit(2);
    });
    println!(
        "simulating {} at scale 1/{}: {}x{} sinogram",
        ds.name, opts.scale, ds.projections, ds.channels
    );
    let truth = ds.phantom().rasterize(ds.channels);
    let sino = simulate_sinogram(&truth, &ds.grid(), &ds.scan(), opts.noise_model(), 0xc11);
    io::write_raw_f32(&out, sino.data()).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", out.display());
        exit(1);
    });
    println!("wrote {} ({} f32 values)", out.display(), sino.data().len());
}

fn reconstruct(opts: &Options) {
    let ds = opts.dataset_scaled();
    let scan = ds.scan();
    let grid = ds.grid();
    println!(
        "reconstructing {} at scale 1/{}: {}x{} -> {n}x{n}, solver {}",
        ds.name,
        opts.scale,
        ds.projections,
        ds.channels,
        opts.solver,
        n = ds.channels
    );

    // Measurement: from file if given, else simulate the phantom.
    let sino = match &opts.sino {
        Some(path) => {
            let data = io::read_raw_f32(path).unwrap_or_else(|e| {
                eprintln!("cannot read {}: {e}", path.display());
                exit(1);
            });
            if data.len() != scan.num_rays() {
                eprintln!(
                    "{} holds {} values; {}x{} needs {}",
                    path.display(),
                    data.len(),
                    ds.projections,
                    ds.channels,
                    scan.num_rays()
                );
                exit(1);
            }
            Sinogram::new(scan, data)
        }
        None => {
            let truth = ds.phantom().rasterize(ds.channels);
            simulate_sinogram(&truth, &grid, &scan, opts.noise_model(), 0xc11)
        }
    };

    if opts.checkpoint.is_none() && (opts.resume || opts.checkpoint_every.is_some()) {
        eprintln!("--resume and --checkpoint-every require --checkpoint FILE");
        exit(2);
    }
    if !opts.chaos.is_empty() && opts.ranks.is_none() {
        eprintln!("--chaos requires --ranks N (faults target distributed collectives)");
        exit(2);
    }
    if opts.solver == "fbp"
        && (opts.batch > 1 || opts.ranks.is_some() || opts.pool || opts.checkpoint.is_some())
    {
        eprintln!("--solver fbp is direct: --batch, --ranks, --pool and --checkpoint do not apply");
        exit(2);
    }
    if opts.pool && opts.ranks.is_some() {
        eprintln!(
            "--ranks runs each rank on its own thread: --pool and --pool-threads do not apply"
        );
        exit(2);
    }
    let t = std::time::Instant::now();
    let mut builder = ReconstructorBuilder::new(grid, scan)
        .validate_plan(opts.check)
        .use_pool(opts.pool)
        .batch(opts.batch);
    if let Some(n) = opts.pool_threads {
        builder = builder.pool_threads(n);
    }
    let rec = builder.build().unwrap_or_else(|e| {
        if let BuildError::PlanCheck(report) = &e {
            eprintln!("plan validation failed:");
            for v in report.violations() {
                eprintln!("  {v}");
            }
            exit(3);
        }
        eprintln!("cannot build reconstructor: {e}");
        exit(2);
    });
    if opts.check {
        println!(
            "preprocessing: {:.2}s (all invariants hold)",
            t.elapsed().as_secs_f64()
        );
    } else {
        println!("preprocessing: {:.2}s", t.elapsed().as_secs_f64());
    }
    if let Some(threads) = rec.pool_threads() {
        println!("worker pool: {threads} persistent threads, nnz-balanced partitions");
    }
    let every = opts.checkpoint_every.unwrap_or(1);
    if let Some(path) = &opts.checkpoint {
        println!(
            "checkpoint: {} every {} iteration(s){}",
            path.display(),
            every,
            if opts.resume { ", resume enabled" } else { "" }
        );
    }
    if !opts.chaos.is_empty() {
        println!("chaos: {} deterministic fault(s) armed", opts.chaos.len());
    }
    if opts.batch > 1 {
        println!(
            "batch: {} slices solved together through the SpMM path",
            opts.batch
        );
    }

    let t = std::time::Instant::now();
    let (images, iters_run) = if opts.solver == "fbp" {
        (vec![fbp(rec.operators(), &sino, &FbpConfig::default())], 1)
    } else {
        let input = widened(sino, opts.batch);
        let req = solver_request(&opts.solver, input, opts.iters, ds.projections);
        let mut req = req.unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2);
        });
        if let Some(path) = &opts.checkpoint {
            req = req.checkpoint(CheckpointPolicy::at_path(path, every).resume(opts.resume));
        }
        let (mode, context) = match opts.ranks {
            Some(ranks) => {
                // `--chaos` runs supervised: collective deadlines and one
                // degraded restart.
                let ft = if opts.chaos.is_empty() {
                    FaultTolerance::disabled()
                } else {
                    let mut faults = FaultPlan::new();
                    for spec in &opts.chaos {
                        faults.push(*spec);
                    }
                    FaultTolerance {
                        faults: Arc::new(faults),
                        ..FaultTolerance::default()
                    }
                };
                let mode = ExecMode::Distributed { ranks, ft };
                (mode, "distributed reconstruction failed")
            }
            _ if opts.pool => (ExecMode::Pooled, "reconstruction failed"),
            _ => (ExecMode::Serial, "reconstruction failed"),
        };
        let resp = rec.run(&req.mode(mode)).unwrap_or_else(|e| die(context, e));
        let n = resp.slice_records.first().map(Vec::len).unwrap_or(0);
        (resp.images, n)
    };
    println!(
        "reconstruction: {:.2}s ({} iterations)",
        t.elapsed().as_secs_f64(),
        iters_run
    );

    if let Some(path) = &opts.metrics {
        let snap = rec.metrics();
        std::fs::write(path, snap.to_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", path.display());
            exit(1);
        });
        println!("wrote {}", path.display());
    }

    if let Some(out) = &opts.out {
        for path in write_slices(out, ds.channels as usize, &images) {
            println!("wrote {}", path.display());
        }
    }
    let image = &images[0];
    let max = image.iter().cloned().fold(f32::MIN, f32::max);
    let min = image.iter().cloned().fold(f32::MAX, f32::min);
    println!("image range: [{min:.4}, {max:.4}]");
}

/// The request an iterative solver name asks for over `input`, `iters`
/// iterations in [`ExecMode::Serial`] — the one spelling `reconstruct` and
/// `serve` job lines share: `cg`, `sirt` (relaxation 1) or `os-sirt` (8
/// subsets, or one per projection when there are fewer; relaxation 1).
fn solver_request(
    name: &str,
    input: ReconInput,
    iters: usize,
    projections: u32,
) -> Result<ReconRequest, String> {
    let solver = match name {
        "cg" => Solver::Cg,
        "sirt" => Solver::Sirt { relax: 1.0 },
        "os-sirt" => Solver::OsSirt {
            subsets: 8.min(projections as usize),
            relax: 1.0,
        },
        other => return Err(format!("`{other}` is not cg, sirt or os-sirt")),
    };
    Ok(ReconRequest::cg(input, StopRule::Fixed(iters)).solver(solver))
}

/// Parse one job-file line (`NAME DATASET SCALE cg|sirt|os-sirt ITERS
/// PRIORITY [batch=K] [preempt@N] [pool] [deadline=SECS] [retries=N]`)
/// into a job plus the image side length its outputs will have.
fn parse_job_line(line: &str) -> Result<(JobSpec, u32), String> {
    let mut tok = line.split_whitespace();
    let mut field = |name: &str| tok.next().ok_or_else(|| format!("missing {name}"));
    let name = field("job NAME")?.to_string();
    let ds_name = field("DATASET")?.to_uppercase();
    let ds = ALL_DATASETS
        .iter()
        .find(|d| d.name == ds_name)
        .copied()
        .ok_or_else(|| format!("unknown dataset `{ds_name}`"))?;
    let scale: u32 = field("SCALE")?
        .parse()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| "SCALE expects a positive integer".to_string())?;
    let solver = field("SOLVER")?.to_string();
    let iters: usize = field("ITERS")?
        .parse()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| "ITERS expects a positive integer".to_string())?;
    let priority: u8 = field("PRIORITY")?
        .parse()
        .map_err(|_| "PRIORITY expects an integer in 0..=255".to_string())?;
    let mut batch = 1usize;
    let mut preempt = None;
    let mut pool = false;
    let mut deadline = None;
    let mut retries = None;
    for extra in tok {
        if let Some(v) = extra.strip_prefix("batch=") {
            batch = v
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("batch= expects a positive integer, got `{v}`"))?;
        } else if let Some(v) = extra.strip_prefix("preempt@") {
            let b: usize = v
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("preempt@ expects a positive iteration, got `{v}`"))?;
            preempt = Some(b);
        } else if let Some(v) = extra.strip_prefix("deadline=") {
            let secs: f64 = v
                .parse()
                .ok()
                .filter(|s: &f64| s.is_finite() && *s > 0.0)
                .ok_or_else(|| format!("deadline= expects positive seconds, got `{v}`"))?;
            deadline = Some(std::time::Duration::from_secs_f64(secs));
        } else if let Some(v) = extra.strip_prefix("retries=") {
            let n: u32 = v
                .parse()
                .map_err(|_| format!("retries= expects a non-negative integer, got `{v}`"))?;
            retries = Some(n);
        } else if extra == "pool" {
            pool = true;
        } else {
            return Err(format!("unknown token `{extra}`"));
        }
    }

    // The measurement mirrors `reconstruct` without --sino: the dataset
    // phantom simulated noise-free with the fixed seed, extra batch
    // slices scaled copies — so serve outputs are bit-comparable to
    // direct `reconstruct` runs.
    let ds = ds.scaled(scale);
    let grid = ds.grid();
    let scan = ds.scan();
    let truth = ds.phantom().rasterize(ds.channels);
    let sino = simulate_sinogram(&truth, &grid, &scan, NoiseModel::None, 0xc11);
    let request = solver_request(&solver, widened(sino, batch), iters, ds.projections)?;
    let request = request.mode(if pool {
        ExecMode::Pooled
    } else {
        ExecMode::Serial
    });
    let mut plan = PlanSpec::new(grid, scan);
    plan.use_pool = pool;
    plan.batch = batch;
    let mut spec = JobSpec::new(name, plan, request).priority(priority);
    if let Some(b) = preempt {
        spec = spec.preempt_at(b);
    }
    if let Some(d) = deadline {
        spec = spec.deadline(d);
    }
    if let Some(n) = retries {
        spec = spec.retry(RetryPolicy::retries(n));
    }
    Ok((spec, ds.channels))
}

/// `memxct-cli serve`: drain a job file through the serving runtime —
/// priority scheduling with checkpoint preemption, plans shared through
/// the keyed cache — and report per-job accounting.
fn serve(opts: &Options) {
    let path = opts.jobs.clone().unwrap_or_else(|| {
        eprintln!("--jobs FILE is required for serve");
        exit(2);
    });
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", path.display());
        exit(1);
    });
    if let Some(dir) = &opts.outdir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            eprintln!("cannot create {}: {e}", dir.display());
            exit(1);
        });
    }

    let runtime = JobRuntime::new(RuntimeConfig {
        cache_capacity: opts.cache,
        ..RuntimeConfig::default()
    });
    let mut jobs = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (spec, side) = parse_job_line(line).unwrap_or_else(|e| {
            eprintln!("{}:{}: {e}", path.display(), lineno + 1);
            exit(2);
        });
        let id = runtime.submit(spec).unwrap_or_else(|e| {
            eprintln!("{}:{}: submission refused: {e}", path.display(), lineno + 1);
            exit(2);
        });
        jobs.push((id, side));
    }
    println!(
        "serve: {} job(s) queued, plan cache capacity {}",
        jobs.len(),
        opts.cache
    );

    let mut exit_code = 0;
    for (id, side) in &jobs {
        let Some(result) = runtime.wait(*id) else {
            continue;
        };
        let r = &result.report;
        match &result.outcome {
            Ok(resp) => {
                println!(
                    "job {:>3} {:<16} ok     priority={} cache_hit={} preemptions={} \
                     retries={} iters={} queue={:.3}s run={:.3}s preprocess={:.3}s plan={:016x}",
                    r.id.0,
                    r.name,
                    r.priority,
                    r.cache_hit,
                    r.preemptions,
                    r.retries,
                    r.iterations,
                    r.queue_seconds,
                    r.run_seconds,
                    r.preprocess_seconds,
                    r.plan_fingerprint
                );
                if let Some(dir) = &opts.outdir {
                    let out = dir.join(format!("{}.pgm", r.name));
                    write_slices(&out, *side as usize, &resp.images);
                }
            }
            Err(e) => {
                let word = match e {
                    JobError::TimedOut { .. } => "timeout",
                    JobError::Stopped { .. } => "stopped",
                    JobError::Panicked { .. } => "panic",
                    JobError::Recon(_) => "failed",
                };
                eprintln!(
                    "job {:>3} {:<16} {word} priority={} retries={}: {e}",
                    r.id.0, r.name, r.priority, r.retries
                );
                exit_code = exit_code.max(run_exit_code(e));
            }
        }
    }

    let snap = runtime.metrics();
    let c = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
    println!(
        "cache: {} hit / {} miss / {} evict; jobs: {} completed, {} failed, \
         {} preempted, {} resumed, {} timed out, {} retried, {} panicked",
        c(xct_obs::CACHE_HIT),
        c(xct_obs::CACHE_MISS),
        c(xct_obs::CACHE_EVICT),
        c(xct_obs::JOB_COMPLETED),
        c(xct_obs::JOB_FAILED),
        c(xct_obs::JOB_PREEMPTED),
        c(xct_obs::JOB_RESUMED),
        c(xct_obs::JOB_TIMEOUTS),
        c(xct_obs::JOB_RETRIES),
        c(xct_obs::JOB_PANICS)
    );
    if let Some(path) = &opts.metrics {
        std::fs::write(path, snap.to_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", path.display());
            exit(1);
        });
        println!("wrote {}", path.display());
    }
    if exit_code != 0 {
        exit(exit_code);
    }
}

/// `b` with its buffer capacity and stored weights swapped out, nothing
/// re-derived or validated.
fn rebuilt_buffered(
    b: &xct_sparse::BufferedCsr,
    buffsize: usize,
    val: Vec<f32>,
) -> xct_sparse::BufferedCsr {
    xct_sparse::BufferedCsrImpl::from_raw_parts_unchecked(
        b.nrows(),
        b.ncols(),
        b.partsize(),
        buffsize,
        b.nnz(),
        b.partdispl().to_vec(),
        b.stagedispl().to_vec(),
        b.stage_map().to_vec(),
        b.entry_displ().to_vec(),
        b.row_major_runs(),
        b.entry_ind().to_vec(),
        val,
    )
}

/// Inject one deliberate fault into the memoized structures so the check
/// sweep (and CI) can prove corruption is caught, not silently computed
/// with. Each kind corrupts exactly one field.
fn inject_corruption(ops: &mut Operators, kind: &str) {
    use xct_sparse::CsrMatrix;
    match kind {
        "rowptr" => {
            // Raise one interior row pointer above its successor.
            let mut rowptr = ops.a.rowptr().to_vec();
            let mid = rowptr.len() / 2;
            rowptr[mid] = rowptr[mid + 1] + 1;
            ops.a = CsrMatrix::from_raw_unchecked(
                ops.a.nrows(),
                ops.a.ncols(),
                rowptr,
                ops.a.colind().to_vec(),
                ops.a.values().to_vec(),
            );
        }
        "nan" => {
            let mut values = ops.a.values().to_vec();
            values[0] = f32::NAN;
            ops.a = CsrMatrix::from_raw_unchecked(
                ops.a.nrows(),
                ops.a.ncols(),
                ops.a.rowptr().to_vec(),
                ops.a.colind().to_vec(),
                values,
            );
        }
        "transpose" => {
            // Perturb one backprojection weight: At is no longer the scan
            // transpose of A.
            let mut values = ops.at.values().to_vec();
            values[0] += 1.0;
            ops.at = CsrMatrix::from_raw_unchecked(
                ops.at.nrows(),
                ops.at.ncols(),
                ops.at.rowptr().to_vec(),
                ops.at.colind().to_vec(),
                values,
            );
        }
        "permutation" => {
            // Point two tomogram cells at the same rank.
            let ord = &ops.tomo_ord;
            let mut rank_of = ord.rank_of().to_vec();
            rank_of[0] = rank_of[1];
            ops.tomo_ord = xct_hilbert::Ordering2D::from_raw_tables_unchecked(
                ord.width(),
                ord.height(),
                ord.kind(),
                rank_of,
                ord.pos_of().to_vec(),
            );
        }
        "stage-oversize" => {
            // Claim a buffer capacity the 16-bit indices cannot address.
            let Some(b) = ops.a_buf.take() else {
                eprintln!("stage-oversize needs buffered layouts");
                exit(2);
            };
            let val = b.entry_val().to_vec();
            ops.a_buf = Some(rebuilt_buffered(&b, u16::MAX as usize + 2, val));
        }
        "duplicate-column" => {
            // Repeat a column inside one unsorted row of A (ray-traversal
            // order leaves most rows unsorted).
            let rowptr = ops.a.rowptr();
            let mut colind = ops.a.colind().to_vec();
            let Some(row) = (0..ops.a.nrows()).find(|&i| {
                let cols = &colind[rowptr[i]..rowptr[i + 1]];
                cols.len() >= 3 && cols.windows(2).any(|w| w[0] > w[1])
            }) else {
                eprintln!("duplicate-column needs an unsorted row of at least 3 entries");
                exit(2);
            };
            colind[rowptr[row] + 2] = colind[rowptr[row]];
            ops.a = CsrMatrix::from_raw_unchecked(
                ops.a.nrows(),
                ops.a.ncols(),
                rowptr.to_vec(),
                colind,
                ops.a.values().to_vec(),
            );
        }
        "buffered-entry" => {
            // Flip one mantissa bit of one stored weight of the buffered
            // forward layout: it no longer reproduces A.
            let Some(b) = ops.a_buf.take() else {
                eprintln!("buffered-entry needs buffered layouts");
                exit(2);
            };
            let mut val = b.entry_val().to_vec();
            let mid = val.len() / 2;
            val[mid] = f32::from_bits(val[mid].to_bits() ^ 1);
            ops.a_buf = Some(rebuilt_buffered(&b, b.buffsize(), val));
        }
        other => {
            eprintln!(
                "unknown corruption `{other}`; kinds: rowptr nan transpose permutation \
                 stage-oversize duplicate-column buffered-entry"
            );
            exit(2);
        }
    }
    println!("injected corruption: {kind}");
}

/// `memxct-cli check`: preprocess, optionally inject one fault, and run
/// the full static invariant sweep plus the lock-order (lockdep) pass over
/// the sync facade's recorded acquisition graph. Exits 0 when every
/// invariant holds and 3 when any is violated (2 for usage errors).
fn check(opts: &Options) {
    let ds = opts.dataset_scaled();
    println!(
        "checking {} at scale 1/{}: {}x{} sinogram",
        ds.name, opts.scale, ds.projections, ds.channels
    );
    // The default (buffered) plan: the sweep covers its CSR and buffered
    // pairs.
    let config = Config::default();
    let t = std::time::Instant::now();
    let mut ops = try_preprocess(ds.grid(), ds.scan(), &config).unwrap_or_else(|e| {
        eprintln!("cannot preprocess: {e}");
        exit(2);
    });
    println!("preprocessing: {:.2}s", t.elapsed().as_secs_f64());

    // The rank plans a `reconstruct --ranks N` request would run — on
    // the plan's kernel — built before the fault is injected (deriving
    // them from corrupted structures could crash instead of reporting).
    let buffered = config.kernel == Kernel::Buffered;
    let plans = opts
        .ranks
        .map(|ranks| memxct::dist::build_plans(&ops, ranks, buffered));

    if let Some(kind) = &opts.corrupt {
        inject_corruption(&mut ops, kind);
    }

    let t = std::time::Instant::now();
    let checker = plan_checker(&ops);
    let mut names = checker.names();
    let mut report = checker.run();
    if let Some(plans) = &plans {
        let dist = dist_checker(&ops, plans);
        names.extend(dist.names());
        dist.run_into(&mut report);
    }

    // Lock-order pass: exercise the model-checked concurrency paths once
    // so the sync facade records its acquisition graph (debug builds; the
    // recording is compiled out in release, leaving an empty — trivially
    // acyclic — graph), then check the graph for ABBA cycles.
    {
        let pool = xct_runtime::WorkerPool::new(2);
        let plan = xct_runtime::ExecPlan::equal_rows(4, 2);
        let mut scratch = vec![0u8; 4];
        pool.run(&plan, &mut scratch, |_parts, _rows, _slice| {});
        let _ = xct_runtime::run_ranks(2, |comm| {
            comm.barrier();
            comm.rank()
        });
        let edges = xct_model::lockdep::edges();
        println!(
            "lockdep: {} lock classes, {} acquisition edges",
            xct_model::lockdep::classes().len(),
            edges.len()
        );
        let lock = xct_check::LockOrderCheck::new("lockdep", edges);
        names.push(xct_check::Check::name(&lock));
        xct_check::Check::run(&lock, &mut report);
    }
    println!(
        "ran {} checks in {:.2}s: {}",
        names.len(),
        t.elapsed().as_secs_f64(),
        names.join(", ")
    );
    if report.is_ok() {
        println!("all invariants hold");
        return;
    }
    eprintln!("{} invariant violation(s):", report.len());
    for v in report.violations() {
        eprintln!("  {v}");
    }
    exit(3);
}
