//! `compare`: judge one result file against another by the bounds in
//! `BENCHMARK.json`. `aa`: run the same build as two alternating sets
//! and require that the comparison calls every pair the same — the
//! benchmark's own noise floor, checked with the benchmark's own rule.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::spec::{Metric, Spec};
use crate::stats::{median, quartiles};
use crate::{out_dir, results_file, run_all, write_file, Args};

/// Values of every end-to-end metric, per (workload, metric), one per
/// run in the file.
type Table = BTreeMap<(String, String), Vec<f64>>;

fn table_of(doc: &Value, spec: &Spec) -> Result<Table, String> {
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("result file has no `runs` list")?;
    let mut table = Table::new();
    for run in runs {
        for name in &spec.workloads {
            let metrics = run
                .get("workloads")
                .and_then(|w| w.get(name))
                .and_then(|w| w.get("untraced"))
                .and_then(|u| u.get("metrics"))
                .ok_or(format!("a run has no untraced pass of `{name}`"))?;
            for m in &spec.end_to_end {
                let value = metrics
                    .get(&m.name)
                    .and_then(|r| r.get("value"))
                    .and_then(Value::as_f64)
                    .ok_or(format!("`{name}` has no `{}`", m.name))?;
                table
                    .entry((name.clone(), m.name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(table)
}

/// Distance between the first and third quartile as a share of the
/// median: the spread the driver judges a benchmark by. Zero for a
/// single run, which has no spread to show.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, med, q3) = quartiles(values);
    (q3 - q1) / med
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub median_a: f64,
    pub median_b: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    /// Share of A's median by which B is worse (negative: better).
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: &'static str,
}

pub fn judge(workload: &str, m: &Metric, a: &[f64], b: &[f64]) -> Row {
    let (median_a, median_b) = (median(a), median(b));
    let lower = m.better != "higher";
    let worse_by = if lower {
        (median_b - median_a) / median_a
    } else {
        (median_a - median_b) / median_a
    };
    let bound = m.bound.unwrap_or(0.0);
    let (spread_a, spread_b) = (spread(a), spread(b));
    let beats = |x: f64, y: f64| if lower { x < y } else { x > y };
    let all = |f: &dyn Fn(f64, f64) -> bool| b.iter().all(|&y| a.iter().all(|&x| f(y, x)));
    let verdict = if spread_a.max(spread_b) > bound {
        // Too noisy for the bound to mean anything, unless the two sets
        // do not even overlap.
        if all(&|y, x| beats(y, x)) {
            "better"
        } else if all(&|y, x| beats(x, y)) && worse_by > bound {
            "worse"
        } else {
            "unresolved"
        }
    } else if worse_by > bound {
        "worse"
    } else if worse_by < -bound {
        "better"
    } else {
        "same"
    };
    Row {
        workload: workload.to_string(),
        metric: m.name.clone(),
        median_a,
        median_b,
        spread_a,
        spread_b,
        worse_by,
        bound,
        verdict,
    }
}

fn judge_all(spec: &Spec, a: &Table, b: &Table) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let key = (workload.clone(), m.name.clone());
            let (va, vb) = (a.get(&key), b.get(&key));
            let (Some(va), Some(vb)) = (va, vb) else {
                return Err(format!("{workload}/{} is missing from one side", m.name));
            };
            rows.push(judge(workload, m, va, vb));
        }
    }
    Ok(rows)
}

fn print_rows(rows: &[Row]) {
    println!(
        "{:<14} {:<12} {:>13} {:>13} {:>9} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "B worse", "spread A", "spread B", "bound"
    );
    for r in rows {
        println!(
            "{:<14} {:<12} {:>13.6} {:>13.6} {:>8.2}% {:>7.2}% {:>7.2}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.median_a,
            r.median_b,
            r.worse_by * 100.0,
            r.spread_a * 100.0,
            r.spread_b * 100.0,
            r.bound * 100.0,
            r.verdict
        );
    }
}

/// `recon-bench compare A.json B.json`: B judged against A. Fails when
/// any pair is `worse`.
pub fn compare_files(spec: &Spec, args: &Args) -> Result<bool, String> {
    let [_, a_path, b_path] = args.positional.as_slice() else {
        return Err("usage: recon-bench compare A.json B.json".into());
    };
    let load = |path: &String| -> Result<Table, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        table_of(
            &json::parse(&text).map_err(|e| format!("{path}: {e}"))?,
            spec,
        )
    };
    let rows = judge_all(spec, &load(a_path)?, &load(b_path)?)?;
    print_rows(&rows);
    Ok(rows.iter().all(|r| r.verdict != "worse"))
}

fn set_json(values: &[f64]) -> Value {
    let (q1, med, q3) = quartiles(values);
    Value::obj([
        ("median", Value::Num(med)),
        ("q1", Value::Num(q1)),
        ("q3", Value::Num(q3)),
        ("spread", Value::Num(spread(values))),
        (
            "values",
            Value::Arr(values.iter().map(|&v| Value::Num(v)).collect()),
        ),
    ])
}

/// `recon-bench aa`: `--sets` is fixed at two (A and B are what a
/// comparison has); `--runs` runs of every workload's untraced pass per
/// set, alternating which set goes first, run `i` of both sets on seed
/// `--seed + i`. Passes when every end-to-end pair is judged `same`.
pub fn aa(spec: &Spec, args: &Args) -> Result<bool, String> {
    if args.sets != 2 {
        return Err("aa compares exactly two sets (--sets 2)".into());
    }
    let mut sets = [Vec::new(), Vec::new()];
    for i in 0..args.runs {
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        for set in order {
            eprintln!(
                "aa: run {} of {}, set {}",
                i + 1,
                args.runs,
                ["A", "B"][set]
            );
            let (run, correct) = run_all(args, args.seed + i as u64, false, true)?;
            if !correct {
                return Err(format!(
                    "aa: run {} of set {} failed its checks",
                    i + 1,
                    ["A", "B"][set]
                ));
            }
            sets[set].push(run);
        }
    }
    let [a, b] = sets;
    let (a_doc, b_doc) = (results_file(a), results_file(b));
    write_file(&out_dir().join("aa.A.json"), &a_doc.pretty())?;
    write_file(&out_dir().join("aa.B.json"), &b_doc.pretty())?;
    let (ta, tb) = (table_of(&a_doc, spec)?, table_of(&b_doc, spec)?);
    let rows = judge_all(spec, &ta, &tb)?;
    print_rows(&rows);

    let mut max_timing_ratio = 1.0f64;
    let mut pairs = Vec::new();
    for r in &rows {
        let key = (r.workload.clone(), r.metric.clone());
        let ratio = (r.median_b / r.median_a).max(r.median_a / r.median_b);
        if r.metric.ends_with("_s") {
            max_timing_ratio = max_timing_ratio.max(ratio);
        }
        pairs.push(Value::obj([
            ("workload", Value::str(&r.workload)),
            ("metric", Value::str(&r.metric)),
            ("bound", Value::Num(r.bound)),
            ("a", set_json(&ta[&key])),
            ("b", set_json(&tb[&key])),
            ("aa_ratio", Value::Num(ratio)),
            ("verdict", Value::str(r.verdict)),
        ]));
    }
    let pass = rows.iter().all(|r| r.verdict == "same");
    let doc = Value::obj([
        ("schema", Value::Num(1.0)),
        (
            "what",
            Value::str("two alternating sets of runs of one build; run i of both sets uses seed+i"),
        ),
        ("runs_per_set", Value::Num(args.runs as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("seed", Value::Num(args.seed as f64)),
        ("smoke", Value::Bool(args.smoke)),
        (
            "host",
            Value::obj([
                ("cores", Value::Num(crate::host::cores() as f64)),
                ("llc_mb", Value::Num(crate::host::llc_mb())),
            ]),
        ),
        ("max_timing_aa_ratio", Value::Num(max_timing_ratio)),
        ("pass", Value::Bool(pass)),
        ("pairs", Value::Arr(pairs)),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("AA.json"));
    write_file(&path, &doc.pretty())?;
    println!(
        "\nmax A/A ratio over timing metrics: {max_timing_ratio:.4}; wrote {}",
        path.display()
    );
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(bound: f64) -> Metric {
        Metric {
            name: "slice_s".into(),
            unit: "s".into(),
            better: "lower".into(),
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts() {
        let m = metric(0.10);
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(
            judge("w", &m, &base, &[1.01, 1.00, 1.02, 0.99, 1.00]).verdict,
            "same"
        );
        assert_eq!(
            judge("w", &m, &base, &[1.20, 1.21, 1.19, 1.22, 1.20]).verdict,
            "worse"
        );
        assert_eq!(
            judge("w", &m, &base, &[0.80, 0.81, 0.79, 0.80, 0.82]).verdict,
            "better"
        );
        // Spread wider than the bound, sets overlapping: cannot tell.
        assert_eq!(
            judge(
                "w",
                &m,
                &[1.0, 1.4, 0.8, 1.2, 1.0],
                &[1.1, 0.9, 1.3, 1.0, 1.2]
            )
            .verdict,
            "unresolved"
        );
        // ... unless every run of B beats every run of A.
        assert_eq!(
            judge(
                "w",
                &m,
                &[1.0, 1.4, 0.8, 1.2, 1.0],
                &[0.5, 0.6, 0.7, 0.5, 0.6]
            )
            .verdict,
            "better"
        );
        // A single run a side has no spread; the bound alone decides.
        assert_eq!(judge("w", &m, &[1.0], &[1.05]).verdict, "same");
    }
}
