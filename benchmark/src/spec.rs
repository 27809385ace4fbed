//! `BENCHMARK.json`, compiled in: the one list of workloads and of
//! metric names, units, directions and regression bounds.

use crate::json::{self, Value};
use crate::layers::Entry;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the baseline's median by which the metric may get worse
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

impl Metric {
    /// The record of this metric in a detail file: `value` is the
    /// metric; `p50`, `p90` and `n` describe the samples a timing was
    /// the best of.
    pub fn record(&self, entry: &Entry) -> Value {
        let mut pairs = vec![
            ("value".to_string(), Value::Num(entry.value)),
            ("unit".to_string(), Value::str(&self.unit)),
            ("better".to_string(), Value::str(&self.better)),
        ];
        if let Some(bound) = self.bound {
            pairs.push(("bound".to_string(), Value::Num(bound)));
        }
        if let Some((samples, scale)) = &entry.samples {
            pairs.push(("p50".to_string(), Value::Num(samples.quantile(0.5) * scale)));
            pairs.push(("p90".to_string(), Value::Num(samples.quantile(0.9) * scale)));
            pairs.push(("n".to_string(), Value::Num(samples.n() as f64)));
            // The raw series of the end-to-end timings, in order, so a
            // reader can see a noisy phase pass through a run.
            if self.bound.is_some() {
                let series = samples.values().iter().map(|&s| Value::Num(s * scale));
                pairs.push(("samples".to_string(), Value::Arr(series.collect())));
            }
        }
        Value::Obj(pairs)
    }
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    pub fn embedded() -> Result<Spec, String> {
        Spec::parse(include_str!("../../BENCHMARK.json"))
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<&[Value], String> {
            doc.get(key)
                .and_then(Value::as_array)
                .ok_or(format!("BENCHMARK.json: no `{key}` list"))
        };
        let text_of = |v: &Value, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: entry without `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        better: text_of(m, "better")?,
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: no `run_seconds`")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_spec_matches_the_code() {
        let spec = Spec::embedded().unwrap();
        assert_eq!(spec.workloads, crate::workloads::NAMES);
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
    }
}
