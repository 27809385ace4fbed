//! Span recorder for the traced pass.
//!
//! The benchmark wraps each call it makes into a library crate in a span
//! named `<layer>.<what>`; spans nest by call structure and carry the id
//! of the operation they belong to. They are kept in memory and written
//! as Chrome-trace JSON when the run ends. A layer's self time is its
//! spans' durations minus the time covered by their child spans.
//!
//! Spans are recorded on the benchmark's own thread only. Work the
//! program does on other threads (pool workers, the serving scheduler)
//! shows up inside the span of the call that waited for it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;

#[derive(Debug, Clone)]
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    op: u64,
}

/// Where one operation's time went, by layer.
#[derive(Debug, Clone)]
pub struct Ledger {
    pub root_s: f64,
    pub layers: BTreeMap<String, f64>,
}

impl Ledger {
    pub fn covered_s(&self) -> f64 {
        self.layers.values().sum()
    }
}

/// Records spans when enabled; a disabled tracer's spans cost one branch.
pub struct Tracer {
    epoch: Instant,
    inner: Option<RefCell<Inner>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            inner: enabled.then(|| RefCell::new(Inner::default())),
        }
    }

    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start the next operation: spans opened from here on carry its id.
    pub fn next_op(&self) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().op += 1;
        }
    }

    /// Open a span named `<layer>.<what>` under the innermost open span.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let index = self.inner.as_ref().map(|inner| {
            let start_ns = self.now_ns();
            let mut inner = inner.borrow_mut();
            let index = inner.spans.len();
            let rec = SpanRec {
                name,
                start_ns,
                end_ns: start_ns,
                parent: inner.open.last().copied(),
                op: inner.op,
            };
            inner.spans.push(rec);
            inner.open.push(index);
            index
        });
        SpanGuard {
            tracer: self,
            index,
        }
    }

    /// Record a span whose duration the program reported (a job's queue
    /// or run seconds) rather than one the benchmark timed itself. It
    /// ends now and becomes a child of the innermost open span.
    pub fn reported(&self, name: &'static str, seconds: f64) {
        if let Some(inner) = &self.inner {
            let end_ns = self.now_ns();
            let mut inner = inner.borrow_mut();
            let rec = SpanRec {
                name,
                start_ns: end_ns.saturating_sub((seconds * 1e9) as u64),
                end_ns,
                parent: inner.open.last().copied(),
                op: inner.op,
            };
            inner.spans.push(rec);
        }
    }

    /// One ledger per root span (a span whose name `is_root` accepts):
    /// the root's seconds and, per layer (the span name up to the first
    /// `.`), the self seconds of the spans beneath it. Spans outside any
    /// root — set-up — are in the trace file but in no ledger.
    pub fn ledgers(&self, is_root: impl Fn(&str) -> bool) -> Vec<Ledger> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let inner = inner.borrow();
        let dur = |s: &SpanRec| (s.end_ns - s.start_ns) as i64;
        let mut self_ns: Vec<i64> = inner.spans.iter().map(dur).collect();
        for s in &inner.spans {
            if let Some(p) = s.parent {
                self_ns[p] -= dur(s);
            }
        }
        let mut ledgers: Vec<Ledger> = Vec::new();
        // Index into `ledgers` of the root each span sits under; parents
        // precede children in `spans`.
        let mut root_of: Vec<Option<usize>> = vec![None; inner.spans.len()];
        for (i, s) in inner.spans.iter().enumerate() {
            if is_root(s.name) {
                root_of[i] = Some(ledgers.len());
                ledgers.push(Ledger {
                    root_s: dur(s) as f64 * 1e-9,
                    layers: BTreeMap::new(),
                });
            } else if let Some(root) = s.parent.and_then(|p| root_of[p]) {
                root_of[i] = Some(root);
                let layer = s.name.split('.').next().unwrap_or(s.name);
                // A reported span can outlast its parent's remainder;
                // self time does not go below zero.
                *ledgers[root].layers.entry(layer.to_string()).or_insert(0.0) +=
                    self_ns[i].max(0) as f64 * 1e-9;
            }
        }
        ledgers
    }

    pub fn span_count(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.borrow().spans.len())
    }

    /// Chrome-trace ("Trace Event Format") document: one complete event
    /// per span, `args` carrying the span's index, its parent's index and
    /// the operation id. Load it in `chrome://tracing` or Perfetto.
    pub fn chrome_trace(&self, workload: &str) -> Value {
        let events = match &self.inner {
            None => Vec::new(),
            Some(inner) => inner
                .borrow()
                .spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Value::obj([
                        ("name", Value::str(s.name)),
                        (
                            "cat",
                            Value::str(s.name.split('.').next().unwrap_or(s.name)),
                        ),
                        ("ph", Value::str("X")),
                        ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                        ("dur", Value::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                        ("pid", Value::Num(1.0)),
                        ("tid", Value::Num(1.0)),
                        (
                            "args",
                            Value::obj([
                                ("id", Value::Num(i as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                                ),
                                ("op", Value::Num(s.op as f64)),
                            ]),
                        ),
                    ])
                })
                .collect(),
        };
        Value::obj([
            ("displayTimeUnit", Value::str("ms")),
            ("workload", Value::str(workload)),
            ("traceEvents", Value::Arr(events)),
        ])
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let (Some(index), Some(inner)) = (self.index, &self.tracer.inner) {
            let end_ns = self.tracer.now_ns();
            let mut inner = inner.borrow_mut();
            inner.spans[index].end_ns = end_ns;
            // Guards drop in reverse order of creation, so this span is
            // the innermost open one.
            inner.open.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.next_op();
        {
            let _op = t.span("op.slice");
            {
                let _a = t.span("memxct.solve");
                let _b = t.span("sparse.spmv");
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
        let ledgers = t.ledgers(|n| n.starts_with("op."));
        assert_eq!(ledgers.len(), 1);
        let layers = &ledgers[0].layers;
        assert!(layers["sparse"] >= 0.005);
        assert!(layers["memxct"] < layers["sparse"]);
        assert!(ledgers[0].root_s >= ledgers[0].covered_s());
        assert_eq!(t.span_count(), 3);
    }

    #[test]
    fn disabled_records_nothing() {
        let t = Tracer::new(false);
        let _s = t.span("x.y");
        assert_eq!(t.span_count(), 0);
    }
}
