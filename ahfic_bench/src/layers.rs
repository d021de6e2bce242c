//! Per-layer accounting: folds the records the program already emits
//! (spans and counters through `Options::trace`) plus the harness's own
//! timings of public entry points into the per-layer metrics.
//!
//! Each sink the harness installs holds one thread's records, so spans
//! nest LIFO and a span's self time is its wall time minus the wall
//! time of the spans directly inside it.

use crate::stats::ratio;
use ahfic_trace::{RecordKind, TraceRecord};
use std::collections::BTreeMap;

/// Analyses whose spans and solver counters the harness reads.
const ANALYSES: [&str; 5] = ["op", "ac", "tran", "pss", "pac"];

/// Sums of raw per-layer quantities over the traced units of one run.
///
/// Keys are span aggregates (`<span>.calls`, `<span>.s`,
/// `<span>.excl_s`), counter names exactly as the program emits them,
/// and harness-measured quantities (`parse.s`, `serve.busy_s`, ...).
#[derive(Debug, Default)]
pub struct Layers {
    sums: BTreeMap<String, f64>,
}

impl Layers {
    /// Adds `v` to the raw quantity `key`.
    pub fn add(&mut self, key: &str, v: f64) {
        *self.sums.entry(key.to_string()).or_insert(0.0) += v;
    }

    /// The raw sum of `key` (0 when never recorded).
    pub fn get(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// Folds one thread's record stream in. Returns the summed wall time
    /// of its top-level spans.
    pub fn absorb(&mut self, records: &[TraceRecord]) -> f64 {
        // Per open span: the wall seconds of the spans directly inside it.
        let mut open: Vec<f64> = Vec::new();
        let mut top = 0.0;
        for rec in records {
            match rec.kind {
                RecordKind::SpanStart => open.push(0.0),
                RecordKind::SpanEnd => {
                    let child_s = open.pop().unwrap_or(0.0);
                    self.add(&format!("{}.calls", rec.name), 1.0);
                    self.add(&format!("{}.s", rec.name), rec.value);
                    self.add(&format!("{}.excl_s", rec.name), rec.value - child_s);
                    match open.last_mut() {
                        Some(c) => *c += rec.value,
                        None => top += rec.value,
                    }
                }
                RecordKind::Counter => self.add(&rec.name, rec.value),
                RecordKind::Event => {}
            }
        }
        self.add("spans.top_s", top);
        top
    }

    /// Seconds of work attributed to a layer per unit: top-level spans
    /// plus the harness's own parse and compile timings (which no span
    /// covers).
    pub fn layer_seconds(&self) -> f64 {
        self.get("spans.top_s") + self.get("parse.s") + self.get("compile.s")
    }

    /// The per-layer metrics, each averaged over `units` traced units.
    /// Names and units match `per_layer` in `BENCHMARK.json`; the
    /// harness-level ratios are appended by the caller.
    pub fn metrics(&self, units: usize) -> Vec<LayerMetric> {
        let per = |key: &str| self.get(key) / units.max(1) as f64;
        let (hits, misses) = (self.get("cache.hits"), self.get("cache.misses"));
        let mut out = vec![
            metric("parse.calls", "count", per("parse.calls")),
            metric("parse.s", "s", per("parse.s")),
            metric("compile.calls", "count", per("compile.calls")),
            metric("compile.s", "s", per("compile.s")),
            metric("cache.hits", "count", per("cache.hits")),
            metric("cache.misses", "count", per("cache.misses")),
            metric("cache.evictions", "count", per("cache.evictions")),
            metric("cache.hit_ratio", "ratio", ratio(hits, hits + misses)),
        ];
        for a in ANALYSES {
            let key = |k: &str| format!("{a}.{k}");
            let solver_s = per(&key("factor_seconds")) + per(&key("solve_seconds"));
            out.push(metric(&key("calls"), "count", per(&key("calls"))));
            out.push(metric(&key("s"), "s", per(&key("s"))));
            out.push(metric(&key("self_s"), "s", per(&key("excl_s")) - solver_s));
            // The PAC engine emits no solver counters of its own; its
            // integration's factor and solve time is in `pac.self_s`.
            if a == "pac" {
                continue;
            }
            for (k, unit) in [
                ("newton_iterations", "count"),
                ("factorizations", "count"),
                ("factor_seconds", "s"),
                ("solves", "count"),
                ("solve_seconds", "s"),
            ] {
                // AC is linear: no Newton iterations.
                if a == "ac" && k == "newton_iterations" {
                    continue;
                }
                let name = key(k).replace("_seconds", "_s");
                out.push(metric(&name, unit, per(&key(k))));
            }
        }
        let accepted = self.get("tran.accepted_steps");
        let newton_per_step = ratio(self.get("tran.newton_iterations"), accepted);
        let busy = self.get("serve.busy_s");
        let capacity = self.get("serve.capacity_s");
        let idle = if capacity > 0.0 {
            1.0 - (busy + self.get("parse.s")) / capacity
        } else {
            0.0
        };
        out.extend([
            metric("op.rungs_attempted", "count", per("op.rungs_attempted")),
            metric("tran.accepted_steps", "count", per("tran.accepted_steps")),
            metric("tran.rejected_steps", "count", per("tran.rejected_steps")),
            metric("tran.newton_per_step", "count/step", newton_per_step),
            metric(
                "pss.shooting_iterations",
                "count",
                per("pss.shooting_iterations"),
            ),
            metric("pss.gmres_iterations", "count", per("pss.gmres_iterations")),
            metric("ahdl.runs", "count", per("ahdl.run.calls")),
            metric("ahdl.s", "s", per("ahdl.run.s")),
            metric("ahdl.steps", "count", per("ahdl.steps")),
            metric("yield_mc.samples", "count", per("yield_mc.samples")),
            metric(
                "yield_mc.defects_rejected",
                "count",
                per("yield_mc.defects_rejected"),
            ),
            metric("yield_mc.driver_s", "s", per("yield_mc.excl_s")),
            metric("serve.jobs", "count", per("serve.jobs")),
            metric("serve.failed", "count", per("serve.failed")),
            metric("serve.retries", "count", per("serve.retries")),
            metric("serve.busy_s", "s", per("serve.busy_s")),
            metric("serve.idle_frac", "ratio", idle),
        ]);
        out
    }
}

/// `(name, unit, value)` of one per-layer metric.
pub type LayerMetric = (String, &'static str, f64);

fn metric(name: &str, unit: &'static str, value: f64) -> LayerMetric {
    (name.to_string(), unit, value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: RecordKind, name: &str, value: f64) -> TraceRecord {
        TraceRecord::new(kind, name, value)
    }

    #[test]
    fn self_time_excludes_nested_spans_and_solver_time() {
        let records = vec![
            rec(RecordKind::SpanStart, "tran", 0.0),
            rec(RecordKind::SpanStart, "op", 0.0),
            rec(RecordKind::Counter, "op.newton_iterations", 4.0),
            rec(RecordKind::SpanEnd, "op", 0.25),
            rec(RecordKind::Counter, "tran.factor_seconds", 0.5),
            rec(RecordKind::Counter, "tran.solve_seconds", 0.25),
            rec(RecordKind::Counter, "tran.accepted_steps", 10.0),
            rec(RecordKind::Counter, "tran.newton_iterations", 20.0),
            rec(RecordKind::SpanEnd, "tran", 2.0),
            rec(RecordKind::SpanStart, "ahdl.run", 0.0),
            rec(RecordKind::SpanEnd, "ahdl.run", 1.0),
        ];
        let mut l = Layers::default();
        assert_eq!(l.absorb(&records), 3.0);
        let m: BTreeMap<String, f64> = l.metrics(2).into_iter().map(|(n, _, v)| (n, v)).collect();
        assert_eq!(m["tran.calls"], 0.5);
        assert_eq!(m["tran.s"], 1.0);
        // (2.0 - 0.25 nested op - 0.5 factor - 0.25 solve) / 2 units
        assert_eq!(m["tran.self_s"], 0.5);
        assert_eq!(m["op.s"], 0.125);
        assert_eq!(m["op.newton_iterations"], 2.0);
        assert_eq!(m["tran.newton_per_step"], 2.0);
        assert_eq!(m["ahdl.runs"], 0.5);
        assert_eq!(l.layer_seconds(), 3.0);
    }
}
