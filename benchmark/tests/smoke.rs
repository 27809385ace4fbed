//! Runs the benchmark in `--smoke` mode (small geometries, two rounds)
//! and checks the shape of what it writes, then checks that a seed
//! pins every count and the reconstruction error.

use std::path::Path;
use std::process::Command;

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::Value;

const EXE: &str = env!("CARGO_BIN_EXE_recon-bench");

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn load(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn names(spec: &Value, key: &str) -> Vec<String> {
    spec.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}`"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// One worker pass; returns its result line parsed.
fn pass(workload: &str, trace: &str, seed: &str) -> Value {
    let out = Command::new(EXE)
        .args(["--workload", workload, "--trace", trace, "--seed", seed])
        .arg("--smoke")
        .output()
        .expect("run recon-bench");
    assert!(
        out.status.success(),
        "{workload} trace {trace}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON")
}

#[test]
fn smoke_run_has_the_contracted_shape_and_repeats_for_a_seed() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let spec = load(&manifest.join("../BENCHMARK.json"));
    let workloads = names(&spec, "workloads");
    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    for name in workloads.iter().chain(&end_to_end).chain(&per_layer) {
        assert!(valid_name(name), "bad name `{name}`");
    }
    assert!(end_to_end.iter().any(|n| n == "setup_s"));

    // The one command: every workload, untraced then traced.
    let results = manifest.join("out/smoke.results.json");
    let status = Command::new(EXE)
        .args(["--smoke", "--seed", "7", "--out"])
        .arg(&results)
        .status()
        .expect("run recon-bench");
    assert!(status.success(), "smoke run failed");
    let doc = load(&results);
    let runs = doc.get("runs").and_then(Value::as_array).expect("runs");
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].get("seed").and_then(Value::as_f64), Some(7.0));
    assert_eq!(runs[0].get("correct").and_then(Value::as_bool), Some(true));
    for workload in &workloads {
        let w = runs[0]
            .get("workloads")
            .and_then(|w| w.get(workload))
            .unwrap_or_else(|| panic!("no workload `{workload}`"));
        for (section, wanted) in [("untraced", &end_to_end), ("traced", &per_layer)] {
            let pass = w
                .get(section)
                .unwrap_or_else(|| panic!("{workload}: no {section} pass"));
            assert_eq!(
                pass.get("correct").and_then(Value::as_bool),
                Some(true),
                "{workload} {section}"
            );
            assert_eq!(
                pass.get("failed").and_then(Value::as_f64),
                Some(0.0),
                "{workload} {section}"
            );
            assert!(
                pass.get("attempted")
                    .and_then(Value::as_f64)
                    .expect("attempted")
                    >= 1.0
            );
            let metrics = pass
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics");
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                got,
                wanted.iter().map(String::as_str).collect::<Vec<_>>(),
                "{workload} {section}"
            );
            for (name, rec) in metrics {
                assert!(
                    rec.get("value").and_then(Value::as_f64).is_some(),
                    "{workload}/{name}: value"
                );
                assert!(
                    rec.get("unit").and_then(Value::as_str).is_some(),
                    "{workload}/{name}: unit"
                );
                if section == "untraced" {
                    let bound = rec.get("bound").and_then(Value::as_f64).expect("bound");
                    assert!(
                        bound > 0.0 && bound <= 0.25,
                        "{workload}/{name}: bound {bound}"
                    );
                    assert!(
                        rec.get("value").and_then(Value::as_f64) != Some(0.0),
                        "{workload}/{name} is 0"
                    );
                }
            }
        }
        assert!(manifest.join(format!("out/trace.{workload}.json")).exists());
    }

    // Same seed, same bits: the reconstruction error and every count.
    for workload in &workloads {
        let (a, b) = (pass(workload, "0", "11"), pass(workload, "0", "11"));
        for key in ["attempted", "failed"] {
            assert_eq!(a.get(key), b.get(key), "{workload}: {key}");
        }
        let rmse = |v: &Value| v.get("metrics").and_then(|m| m.get("image_rmse")).cloned();
        assert_eq!(rmse(&a), rmse(&b), "{workload}: image_rmse");
        assert_ne!(
            rmse(&a),
            rmse(&pass(workload, "0", "12")),
            "{workload}: seed does not reach the input"
        );
    }
    let counts: Vec<String> = spec
        .get("per_layer")
        .and_then(Value::as_array)
        .expect("per_layer")
        .iter()
        .filter(|m| matches!(m.get("unit").and_then(Value::as_str), Some("count" | "B")))
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let (a, b) = (pass("serve_mix", "1", "11"), pass("serve_mix", "1", "11"));
    for name in &counts {
        let value = |v: &Value| v.get("metrics").and_then(|m| m.get(name)).cloned();
        assert_eq!(
            value(&a),
            value(&b),
            "count `{name}` differs between two runs of one seed"
        );
    }
}
