//! `recon-bench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! recon-bench [--seed N] [--seconds S] [--smoke]          every workload, untraced then traced
//! recon-bench --workload W --trace 0|1 [--seed N] [--seconds S] [--smoke]
//!                                                          one pass of one workload
//! recon-bench compare A.json B.json                        judge B against A by the bounds
//! recon-bench aa [--sets 2] [--runs 5] [--seconds S] [--out FILE]
//!                                                          two alternating sets of the same build
//! ```
//!
//! `BENCHMARK.json` at the repository root is compiled in: it is the one
//! list of metric names, units, directions and bounds. README.md has the
//! reasoning behind the metrics, the workloads and the estimator.

mod compare;
mod host;
mod inputs;
mod json;
mod layers;
mod replay;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use json::Value;
use layers::Report;
use spec::Spec;
use trace::Tracer;
use workloads::{Outcome, Workload};

/// `image_rmse` above this fails the run: CG-30 on these phantoms lands
/// well below it, so crossing it means the solver broke.
const RMSE_LIMIT: f64 = 0.10;

/// Shares of `--seconds` in a traced pass: the workload's own rounds,
/// then the per-layer probes; the serving replay gets what is left.
const TRACED_ROUNDS_SHARE: f64 = 0.30;
const PROBE_SHARE: f64 = 0.45;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub sets: usize,
    pub runs: usize,
    pub out: Option<PathBuf>,
    pub positional: Vec<String>,
}

impl Args {
    fn sizes(&self) -> inputs::Sizes {
        if self.smoke {
            inputs::SMOKE
        } else {
            inputs::FULL
        }
    }
}

fn parse_args(spec: &Spec) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: spec.run_seconds,
        trace: false,
        smoke: false,
        sets: 2,
        runs: 5,
        out: None,
        positional: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => args.smoke = true,
            "--sets" => {
                args.sets = value("--sets")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?
            }
            "--runs" => {
                args.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ => args.positional.push(arg),
        }
    }
    Ok(args)
}

/// Where result and trace files go: `out/` beside this crate's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_file(path: &std::path::Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Repeat `round` until `until_s` seconds after `start` would be overrun
/// by another repetition as long as the longest so far, but at least
/// `min` times; past `min`, a repetition that returns `false` (something
/// failed) is the last.
fn repeat(start: Instant, until_s: f64, min: usize, mut round: impl FnMut() -> bool) {
    let mut done = 0;
    let mut longest = 0.0f64;
    while done < min || start.elapsed().as_secs_f64() + longest <= until_s {
        let t = Instant::now();
        let ok = round();
        longest = longest.max(t.elapsed().as_secs_f64());
        done += 1;
        if !ok && done >= min {
            break;
        }
    }
}

/// [`repeat`] for a workload's rounds.
fn rounds(
    w: &mut dyn Workload,
    tracer: &Tracer,
    out: &mut Outcome,
    start: Instant,
    until_s: f64,
    min: usize,
) {
    repeat(start, until_s, min, || {
        w.round(tracer, out);
        out.failed == 0
    });
}

/// The verdict and the numbers of one pass.
struct Pass {
    correct: bool,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    report: Report,
    /// Extra sections for the detail file.
    extra: Vec<(String, Value)>,
}

fn untraced_pass(w: &mut dyn Workload, args: &Args, start: Instant) -> Result<Pass, String> {
    let mut out = Outcome::default();
    rounds(w, &Tracer::new(false), &mut out, start, args.seconds, 2);
    let mut report = Report::default();
    let mut failures = std::mem::take(&mut out.failures);
    let rmse = workloads::image_rmse(w, &out);
    let measured = out.setup.n() > 0 && out.op.n() > 0 && rmse.is_some();
    if measured {
        report.staged("setup_s", &out.setup, 1.0);
        report.staged("slice_s", &out.op, 1.0 / w.slices_per_op() as f64);
        report.value("peak_rss_mb", host::peak_rss_mb()?);
        report.value("image_rmse", rmse.unwrap_or(f64::NAN));
    } else {
        failures.push("no operation completed".into());
    }
    let rmse_ok = rmse.is_some_and(|r| r < RMSE_LIMIT);
    if measured && !rmse_ok {
        failures.push(format!("image_rmse {rmse:?} is not below {RMSE_LIMIT}"));
    }
    Ok(Pass {
        correct: measured && out.failed == 0 && rmse_ok,
        attempted: out.attempted.max(1),
        failed: out.failed + u64::from(measured && !rmse_ok),
        failures,
        report,
        extra: vec![("threads".into(), Value::Num(workloads::THREADS as f64))],
    })
}

fn serve_metrics(report: &mut Report, s: &workloads::ServeStats) {
    report.timing("serve.hit_s", &s.hit, 1.0);
    report.timing("serve.miss_s", &s.miss, 1.0);
    report.value("serve.hit_ratio", s.job_hits as f64 / s.jobs.max(1) as f64);
    report.value("serve.evictions", s.evictions as f64);
    report.timing("serve.queue_s", &s.queue, 1.0);
    report.timing("serve.run_s", &s.run, 1.0);
    report.value("serve.overhead_s", s.hit.best() - s.direct_slice.best());
    report.value("serve.preemptions", s.preemptions as f64);
    report.value(
        "serve.preempt_cost_s",
        s.preempted_run.best() - s.direct_batch.best(),
    );
    report.timing("serve.urgent_s", &s.urgent, 1.0);
    report.timing("serve.submit_us", &s.submit, 1e6);
}

fn traced_pass(
    name: &str,
    w: &mut dyn Workload,
    args: &Args,
    start: Instant,
) -> Result<Pass, String> {
    let mut triad = host::TriadProbe::new();
    let tracer = Tracer::new(true);
    let off = Tracer::new(false);
    let (mut real, mut traced) = (Outcome::default(), Outcome::default());

    // The workload's own rounds, the program's operations and their
    // re-enactments by turns.
    repeat(start, args.seconds * TRACED_ROUNDS_SHARE, 2, || {
        w.round(&off, &mut real);
        w.round(&tracer, &mut traced);
        real.failed + traced.failed == 0
    });

    let mut report = Report::default();
    layers::probe(
        w.primary(),
        args.seconds * PROBE_SHARE,
        &mut triad,
        &mut report,
    )?;

    // The serving layer: this workload's own rounds if it is the
    // serving workload, else the same script replayed in what is left.
    let mut replay_out = Outcome::default();
    if name != "serve_mix" {
        let mut serving = workloads::create("serve_mix", args.sizes(), args.seed, true)?;
        rounds(
            serving.as_mut(),
            &off,
            &mut replay_out,
            start,
            args.seconds,
            1,
        );
    }
    let serve = if name == "serve_mix" {
        &real.serve
    } else {
        &replay_out.serve
    };
    let served = match serve {
        Some(stats) if stats.hit.n() > 0 && stats.urgent.n() > 0 && stats.queue.n() > 0 => {
            serve_metrics(&mut report, stats);
            true
        }
        _ => false,
    };
    if !served {
        replay_out
            .failures
            .push("serving script did not complete a round".into());
    }
    triad.sample();

    report.value("host.cores", host::cores() as f64);
    report.value("host.llc_mb", host::llc_mb());
    report.value("host.triad_gbs", triad.best_gbs());
    report.value("host.noise_ratio", triad.noise_ratio());

    // The ledger of the fastest re-enacted operation against the
    // fastest real one.
    let ledgers = tracer.ledgers(|n| n.starts_with("op."));
    let best = ledgers.iter().min_by(|a, b| a.root_s.total_cmp(&b.root_s));
    let mut ledger_json = Vec::new();
    if let (Some(best), true) = (best, real.op.n() > 0 && traced.op.n() > 0) {
        // Whole operations on both sides: the re-enactment has no
        // boundary clock, so neither side gets the per-piece minima.
        let untraced_s = real.op.whole.best();
        report.value("ledger.coverage", best.covered_s() / untraced_s);
        report.value(
            "trace.overhead_frac",
            traced.op.whole.best() / untraced_s - 1.0,
        );
        ledger_json = best
            .layers
            .iter()
            .map(|(layer, s)| (layer.clone(), Value::Num(*s)))
            .collect();
        ledger_json.push(("op_traced_s".into(), Value::Num(best.root_s)));
        ledger_json.push(("op_untraced_s".into(), Value::Num(untraced_s)));
    }

    let trace_path = out_dir().join(format!("trace.{name}.json"));
    write_file(&trace_path, &tracer.chrome_trace(name).compact())?;

    let failed = real.failed + traced.failed + replay_out.failed;
    let mut failures = real.failures;
    failures.extend(traced.failures);
    failures.extend(replay_out.failures);
    Ok(Pass {
        correct: failed == 0 && failures.is_empty(),
        attempted: (real.attempted + traced.attempted + replay_out.attempted).max(1),
        failed,
        failures,
        report,
        extra: vec![
            ("ledger".into(), Value::Obj(ledger_json)),
            ("spans".into(), Value::Num(tracer.span_count() as f64)),
            (
                "trace_file".into(),
                Value::str(trace_path.display().to_string()),
            ),
        ],
    })
}

/// One pass of one workload: the process the driver starts.
fn worker(spec: &Spec, args: &Args, name: &str) -> Result<bool, String> {
    let start = Instant::now();
    // Before anything touches rayon: its shim reads this once.
    std::env::set_var("RAYON_NUM_THREADS", workloads::THREADS.to_string());
    // A smoke run is the minimum number of rounds and probe repeats,
    // whatever the clock says: its counts repeat exactly.
    let args = &Args {
        seconds: if args.smoke { 0.0 } else { args.seconds },
        ..args.clone()
    };
    let mut w = workloads::create(name, args.sizes(), args.seed, args.trace)?;
    let mut pass = if args.trace {
        traced_pass(name, w.as_mut(), args, start)?
    } else {
        untraced_pass(w.as_mut(), args, start)?
    };

    // BENCHMARK.json is the list: every metric of this pass's kind must
    // be here, and nothing else.
    let wanted = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut metrics = Vec::new();
    let mut detail = Vec::new();
    for m in wanted {
        match pass.report.0.remove(&m.name) {
            Some(entry) if entry.value.is_finite() => {
                metrics.push((
                    m.name.clone(),
                    Value::obj([
                        ("value", Value::Num(entry.value)),
                        ("unit", Value::str(&m.unit)),
                    ]),
                ));
                detail.push((m.name.clone(), m.record(&entry)));
            }
            Some(entry) => pass
                .failures
                .push(format!("metric {} is {}", m.name, entry.value)),
            None => pass
                .failures
                .push(format!("metric {} was not measured", m.name)),
        }
    }
    for metric in pass.report.0.keys() {
        pass.failures
            .push(format!("metric {metric} is not in BENCHMARK.json"));
    }
    let complete = metrics.len() == wanted.len() && pass.report.0.is_empty();
    let correct = pass.correct && complete;
    for f in &pass.failures {
        eprintln!("recon-bench: {name}: {f}");
    }

    let mut record = vec![
        ("workload".to_string(), Value::str(name)),
        ("trace".to_string(), Value::Bool(args.trace)),
        ("seed".to_string(), Value::Num(args.seed as f64)),
        ("seconds".to_string(), Value::Num(args.seconds)),
        ("smoke".to_string(), Value::Bool(args.smoke)),
        (
            "wall_s".to_string(),
            Value::Num(start.elapsed().as_secs_f64()),
        ),
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::Num(pass.attempted as f64)),
        ("failed".to_string(), Value::Num(pass.failed as f64)),
        (
            "failures".to_string(),
            Value::Arr(pass.failures.iter().map(Value::str).collect()),
        ),
        ("metrics".to_string(), Value::Obj(detail)),
    ];
    record.extend(pass.extra);
    let detail_path = out_dir().join(format!("detail.{name}.{}.json", u8::from(args.trace)));
    write_file(&detail_path, &Value::Obj(record).pretty())?;

    if !complete {
        // A result line must carry every metric; without them there is
        // nothing valid to print.
        return Err("pass did not produce every metric".into());
    }
    let line = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(pass.attempted as f64)),
        ("failed", Value::Num(pass.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{}", line.compact());
    Ok(correct)
}

/// Start one worker pass as a child process and read its detail file.
pub fn run_child(args: &Args, name: &str, trace: bool, seed: u64) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--trace", if trace { "1" } else { "0" }])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
    std::io::Write::write_all(&mut std::io::stderr(), &output.stderr).ok();
    let path = out_dir().join(format!("detail.{name}.{}.json", u8::from(trace)));
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let detail = json::parse(&text)?;
    if !output.status.success() && detail.get("correct").and_then(Value::as_bool) != Some(false) {
        return Err(format!(
            "{name} (trace {}) exited with {}",
            u8::from(trace),
            output.status
        ));
    }
    Ok(detail)
}

fn print_metrics(name: &str, detail: &Value) {
    let trace = detail
        .get("trace")
        .and_then(Value::as_bool)
        .unwrap_or(false);
    println!(
        "\n{name} — {} pass: correct={} attempted={} failed={} ({:.1} s)",
        if trace { "traced" } else { "untraced" },
        detail
            .get("correct")
            .and_then(Value::as_bool)
            .unwrap_or(false),
        detail
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
        detail.get("failed").and_then(Value::as_f64).unwrap_or(0.0),
        detail.get("wall_s").and_then(Value::as_f64).unwrap_or(0.0),
    );
    for (metric, rec) in detail
        .get("metrics")
        .and_then(Value::as_object)
        .unwrap_or(&[])
    {
        let value = rec.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let unit = rec.get("unit").and_then(Value::as_str).unwrap_or("");
        match (
            rec.get("p50").and_then(Value::as_f64),
            rec.get("n").and_then(Value::as_f64),
        ) {
            (Some(p50), Some(n)) => {
                println!("  {metric:<32} {value:>14.6} {unit:<6} (best of {n}, p50 {p50:.6})")
            }
            _ => println!("  {metric:<32} {value:>14.6} {unit}"),
        }
    }
}

/// One run: every workload untraced, then traced when `traced`.
pub fn run_all(args: &Args, seed: u64, traced: bool, quiet: bool) -> Result<(Value, bool), String> {
    let mut workloads_json = Vec::new();
    let mut all_correct = true;
    for name in workloads::NAMES {
        let mut sections = Vec::new();
        for trace in [false, true] {
            if trace && !traced {
                continue;
            }
            let detail = run_child(args, name, trace, seed)?;
            all_correct &= detail.get("correct").and_then(Value::as_bool) == Some(true);
            if !quiet {
                print_metrics(name, &detail);
            }
            sections.push((
                if trace { "traced" } else { "untraced" }.to_string(),
                detail,
            ));
        }
        workloads_json.push((name.to_string(), Value::Obj(sections)));
    }
    let run = Value::obj([
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("smoke", Value::Bool(args.smoke)),
        ("correct", Value::Bool(all_correct)),
        ("workloads", Value::Obj(workloads_json)),
    ]);
    Ok((run, all_correct))
}

pub fn results_file(runs: Vec<Value>) -> Value {
    Value::obj([
        ("schema", Value::Num(1.0)),
        ("benchmark", Value::str("recon-bench")),
        (
            "host",
            Value::obj([
                ("cores", Value::Num(host::cores() as f64)),
                ("llc_mb", Value::Num(host::llc_mb())),
            ]),
        ),
        ("runs", Value::Arr(runs)),
    ])
}

fn real_main() -> Result<bool, String> {
    let spec = Spec::embedded()?;
    let args = parse_args(&spec)?;
    match args.positional.first().map(String::as_str) {
        Some("compare") => compare::compare_files(&spec, &args),
        Some("aa") => compare::aa(&spec, &args),
        Some(other) => Err(format!("unknown command `{other}`")),
        None => match &args.workload {
            Some(name) => worker(&spec, &args, name),
            None => {
                let (run, correct) = run_all(&args, args.seed, true, false)?;
                let path = args
                    .out
                    .clone()
                    .unwrap_or_else(|| out_dir().join("results.json"));
                write_file(&path, &results_file(vec![run]).pretty())?;
                println!("\nwrote {}", path.display());
                Ok(correct)
            }
        },
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("recon-bench: {e}");
            ExitCode::from(2)
        }
    }
}
