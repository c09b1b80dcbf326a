//! Hierarchical metrics registry and deterministic JSON snapshots.
//!
//! Every figure in the paper's evaluation is a story told through
//! counters — RPS, CPU utilization, memory bandwidth, slack histograms,
//! scratchpad occupancy (Figs. 10–12, Table I). Before this module those
//! counters were ad-hoc struct fields scattered across eight crates with
//! no single way to snapshot, diff or export them. [`Registry`] is that
//! single way: a tree of [`Scope`]s, each holding named metrics, rendered
//! by [`Registry::snapshot`] into a stable-ordered JSON document
//! (schema [`SCHEMA`] = `telemetry/v1`).
//!
//! Metrics are plain values. Components keep their own statistics
//! (e.g. `DramStats`, `CacheStats`, `DeviceStats`) and export them with
//! the `set_*` methods at snapshot time. A [`Scope`] is plain data, so a
//! whole-run fan-out (`simkit::par::run_indexed`) can build per-entry
//! scopes on worker threads and mount them into one registry in input
//! order.
//!
//! Determinism contract: two runs with the same seeds must produce
//! **byte-identical** snapshots. Everything that renders is ordered by
//! `BTreeMap`, floats use Rust's shortest-roundtrip formatting, and
//! non-finite values render as `null` (a degenerate rate must never
//! poison a report).
//!
//! # Example
//!
//! ```
//! use simkit::telemetry::Registry;
//!
//! let mut reg = Registry::new();
//! reg.scope("server").set_counter("requests", 3);
//! reg.scope("server.llc").set_gauge("miss_rate", 0.25);
//! let doc = reg.snapshot();
//! assert!(doc.starts_with("{\n  \"schema\": \"telemetry/v1\""));
//! assert!(doc.contains("\"requests\""));
//! ```

use std::collections::BTreeMap;

use crate::stats::{Histogram, TimeSeries};

/// Schema identifier stamped into every snapshot document.
pub const SCHEMA: &str = "telemetry/v1";

/// A rendered-at-registration summary of a [`Histogram`]: count, moments
/// and the quantiles the paper's figures actually report.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Sample count.
    pub count: u64,
    /// Exact mean.
    pub mean: f64,
    /// Smallest sample, if any.
    pub min: Option<u64>,
    /// Largest sample, if any.
    pub max: Option<u64>,
    /// Samples beyond the last bucket.
    pub overflow: u64,
    /// Median (bucket-resolved), if non-empty.
    pub p50: Option<u64>,
    /// 99th percentile (bucket-resolved), if non-empty.
    pub p99: Option<u64>,
    /// 99.9th percentile (bucket-resolved), if non-empty.
    pub p999: Option<u64>,
    /// Whether the sample count is large enough for `p999` to be
    /// distinguishable from `max` (`count ≥ 1000`); a small-sample p999
    /// silently aliases the maximum and must not be read as a measured
    /// tail (see [`crate::stats::QuantileEstimate`]).
    pub p999_resolvable: bool,
}

impl HistogramSnapshot {
    /// Summarizes a histogram.
    pub fn of(h: &Histogram) -> HistogramSnapshot {
        let p999 = h.quantile_est(0.999);
        HistogramSnapshot {
            count: h.count(),
            mean: h.mean(),
            min: h.min(),
            max: h.max(),
            overflow: h.overflow(),
            p50: h.quantile(0.5),
            p99: h.quantile(0.99),
            p999: p999.map(|e| e.value),
            p999_resolvable: p999.is_some_and(|e| e.resolvable),
        }
    }
}

/// A rendered-at-registration summary of a [`TimeSeries`].
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesSnapshot {
    /// Number of points.
    pub len: u64,
    /// Last recorded `(time, value)` point, if any.
    pub last: Option<(u64, f64)>,
    /// Maximum value seen, if any.
    pub max_value: Option<f64>,
    /// Mean over the final quarter of points (steady state), 0.0 if empty.
    pub tail_mean: f64,
}

impl TimeSeriesSnapshot {
    /// Summarizes a time series.
    pub fn of(ts: &TimeSeries) -> TimeSeriesSnapshot {
        TimeSeriesSnapshot {
            len: ts.len() as u64,
            last: ts.last().map(|(t, v)| (t.raw(), v)),
            max_value: ts.max_value(),
            tail_mean: if ts.is_empty() {
                0.0
            } else {
                ts.tail_mean(0.25)
            },
        }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(HistogramSnapshot),
    TimeSeries(TimeSeriesSnapshot),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
            Metric::TimeSeries(_) => "time_series",
        }
    }
}

/// One node in the registry tree: named metrics plus named child scopes.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    metrics: BTreeMap<String, Metric>,
    children: BTreeMap<String, Scope>,
}

impl Scope {
    /// Returns (creating on first use) the child scope `name`. Dots are
    /// path separators, so `scope("a.b")` is `scope("a").scope("b")`.
    pub fn scope(&mut self, name: &str) -> &mut Scope {
        let mut cur = self;
        for seg in name.split('.') {
            assert!(!seg.is_empty(), "empty scope segment in {name:?}");
            cur = cur.children.entry(seg.to_string()).or_default();
        }
        cur
    }

    /// Sets counter `name` to `v` (registering it if needed) — the
    /// export-time mirror of an externally maintained stat field.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn set_counter(&mut self, name: &str, v: u64) {
        self.set_scalar(name, Metric::Counter(v));
    }

    /// Sets gauge `name` to `v` (registering it if needed).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.set_scalar(name, Metric::Gauge(v));
    }

    fn set_scalar(&mut self, name: &str, metric: Metric) {
        let kind = metric.kind();
        if let Some(old) = self.metrics.insert(name.to_string(), metric) {
            if old.kind() != kind {
                // simlint: allow(PANIC-REACH): documented "# Panics" contract; a kind mismatch is a registration bug the suite must surface loudly
                panic!("{name:?} is a {}, not a {kind}", old.kind());
            }
        }
    }

    /// Registers (or replaces) a histogram summary under `name`.
    pub fn set_histogram(&mut self, name: &str, h: &Histogram) {
        self.metrics.insert(
            name.to_string(),
            Metric::Histogram(HistogramSnapshot::of(h)),
        );
    }

    /// Registers (or replaces) a time-series summary under `name`.
    pub fn set_time_series(&mut self, name: &str, ts: &TimeSeries) {
        self.metrics.insert(
            name.to_string(),
            Metric::TimeSeries(TimeSeriesSnapshot::of(ts)),
        );
    }

    /// Number of metrics registered directly in this scope.
    pub fn metric_count(&self) -> usize {
        self.metrics.len()
    }

    /// Total metrics in this scope and every descendant.
    pub fn metric_count_recursive(&self) -> usize {
        self.metrics.len()
            + self
                .children
                .values()
                .map(Scope::metric_count_recursive)
                .sum::<usize>()
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let inner = "  ".repeat(indent + 1);
        out.push_str("{\n");
        let mut first = true;
        if !self.metrics.is_empty() {
            out.push_str(&inner);
            out.push_str("\"metrics\": ");
            render_metric_map(out, &self.metrics, indent + 1);
            first = false;
        }
        if !self.children.is_empty() {
            if !first {
                out.push_str(",\n");
            }
            out.push_str(&inner);
            out.push_str("\"scopes\": ");
            render_scope_map(out, &self.children, indent + 1);
            first = false;
        }
        if !first {
            out.push('\n');
            out.push_str(&pad);
        }
        out.push('}');
    }
}

/// The root of the telemetry tree.
///
/// See the [module docs](self) for the design; see
/// [`Registry::snapshot`] for the output format.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    root: Scope,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Returns (creating on first use) the scope at dot-separated `path`,
    /// e.g. `"server.https_smartdimm.dram"`.
    pub fn scope(&mut self, path: &str) -> &mut Scope {
        self.root.scope(path)
    }

    /// The root scope itself.
    pub fn root(&mut self) -> &mut Scope {
        &mut self.root
    }

    /// Total metrics registered across the whole tree.
    pub fn metric_count(&self) -> usize {
        self.root.metric_count_recursive()
    }

    /// Renders the whole tree as a stable-ordered JSON document:
    ///
    /// ```json
    /// {
    ///   "schema": "telemetry/v1",
    ///   "scopes": {
    ///     "dram": { "metrics": { "rd_cas": { "kind": "counter", "value": 7 } } }
    ///   }
    /// }
    /// ```
    ///
    /// Scopes and metrics render in lexicographic order; same-seed runs
    /// produce byte-identical documents.
    pub fn snapshot(&self) -> String {
        let mut out = String::from("{\n  \"schema\": ");
        push_json_string(&mut out, SCHEMA);
        if !self.root.metrics.is_empty() {
            // Metrics registered directly on the root (rare).
            out.push_str(",\n  \"metrics\": ");
            render_metric_map(&mut out, &self.root.metrics, 1);
        }
        out.push_str(",\n  \"scopes\": ");
        // Top-level scopes render directly at `scopes.<name>` — the root
        // scope itself has no name and adds no nesting level.
        render_scope_map(&mut out, &self.root.children, 1);
        out.push_str("\n}");
        out
    }
}

fn render_metric_map(out: &mut String, metrics: &BTreeMap<String, Metric>, indent: usize) {
    if metrics.is_empty() {
        out.push_str("{}");
        return;
    }
    let pad = "  ".repeat(indent);
    let inner = "  ".repeat(indent + 1);
    out.push_str("{\n");
    for (i, (name, metric)) in metrics.iter().enumerate() {
        out.push_str(&inner);
        push_json_string(out, name);
        out.push_str(": ");
        render_metric(out, metric, indent + 1);
        if i + 1 < metrics.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str(&pad);
    out.push('}');
}

fn render_scope_map(out: &mut String, scopes: &BTreeMap<String, Scope>, indent: usize) {
    if scopes.is_empty() {
        out.push_str("{}");
        return;
    }
    let pad = "  ".repeat(indent);
    let inner = "  ".repeat(indent + 1);
    out.push_str("{\n");
    for (i, (name, child)) in scopes.iter().enumerate() {
        out.push_str(&inner);
        push_json_string(out, name);
        out.push_str(": ");
        child.render_into(out, indent + 1);
        if i + 1 < scopes.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str(&pad);
    out.push('}');
}

fn render_metric(out: &mut String, metric: &Metric, indent: usize) {
    let pad = "  ".repeat(indent);
    let inner = "  ".repeat(indent + 1);
    match metric {
        Metric::Counter(v) => {
            out.push_str(&format!("{{ \"kind\": \"counter\", \"value\": {v} }}"));
        }
        Metric::Gauge(v) => {
            out.push_str("{ \"kind\": \"gauge\", \"value\": ");
            push_f64(out, *v);
            out.push_str(" }");
        }
        Metric::Histogram(h) => {
            out.push_str("{\n");
            out.push_str(&inner);
            out.push_str(&format!(
                "\"kind\": \"histogram\", \"count\": {},\n",
                h.count
            ));
            out.push_str(&inner);
            out.push_str("\"mean\": ");
            push_f64(out, h.mean);
            out.push_str(", \"min\": ");
            push_opt_u64(out, h.min);
            out.push_str(", \"max\": ");
            push_opt_u64(out, h.max);
            out.push_str(",\n");
            out.push_str(&inner);
            out.push_str(&format!("\"overflow\": {}, \"p50\": ", h.overflow));
            push_opt_u64(out, h.p50);
            out.push_str(", \"p99\": ");
            push_opt_u64(out, h.p99);
            out.push_str(", \"p999\": ");
            push_opt_u64(out, h.p999);
            out.push_str(&format!(", \"p999_resolvable\": {}", h.p999_resolvable));
            out.push('\n');
            out.push_str(&pad);
            out.push('}');
        }
        Metric::TimeSeries(ts) => {
            out.push_str("{\n");
            out.push_str(&inner);
            out.push_str(&format!(
                "\"kind\": \"time_series\", \"len\": {},\n",
                ts.len
            ));
            out.push_str(&inner);
            out.push_str("\"last_t\": ");
            match ts.last {
                Some((t, _)) => out.push_str(&t.to_string()),
                None => out.push_str("null"),
            }
            out.push_str(", \"last_value\": ");
            match ts.last {
                Some((_, v)) => push_f64(out, v),
                None => out.push_str("null"),
            }
            out.push_str(", \"max_value\": ");
            match ts.max_value {
                Some(v) => push_f64(out, v),
                None => out.push_str("null"),
            }
            out.push_str(", \"tail_mean\": ");
            push_f64(out, ts.tail_mean);
            out.push('\n');
            out.push_str(&pad);
            out.push('}');
        }
    }
}

fn push_opt_u64(out: &mut String, v: Option<u64>) {
    match v {
        Some(v) => out.push_str(&v.to_string()),
        None => out.push_str("null"),
    }
}

/// Deterministic float rendering: shortest roundtrip for finite values,
/// `null` for NaN/infinities (JSON has no spelling for them, and a
/// degenerate rate must not make the whole document unparseable).
fn push_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        out.push_str(&format!("{}", v as i64));
    } else {
        out.push_str(&format!("{v}"));
    }
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cycle;

    #[test]
    fn set_counter_mirrors_external_values() {
        let mut reg = Registry::new();
        reg.scope("dram").set_counter("rd_cas", 42);
        reg.scope("dram").set_counter("rd_cas", 43); // overwrite
        assert!(reg.snapshot().contains("\"value\": 43"));
    }

    #[test]
    fn gauge_non_finite_renders_null() {
        let mut reg = Registry::new();
        reg.scope("x").set_gauge("rate", f64::NAN);
        reg.scope("x").set_gauge("inf", f64::INFINITY);
        let doc = reg.snapshot();
        assert!(doc.contains("\"rate\": { \"kind\": \"gauge\", \"value\": null }"));
        assert!(doc.contains("\"inf\": { \"kind\": \"gauge\", \"value\": null }"));
    }

    #[test]
    fn histogram_and_time_series_summaries() {
        let mut reg = Registry::new();
        let mut h = Histogram::new("lat", 10, 10);
        for v in [1, 5, 25, 99] {
            h.record(v);
        }
        let mut ts = TimeSeries::new("occ");
        ts.record(Cycle(0), 1.0);
        ts.record(Cycle(10), 3.0);
        reg.scope("dev").set_histogram("slack", &h);
        reg.scope("dev").set_time_series("occupancy", &ts);
        let doc = reg.snapshot();
        assert!(doc.contains("\"kind\": \"histogram\", \"count\": 4"));
        assert!(doc.contains("\"kind\": \"time_series\", \"len\": 2"));
        assert!(doc.contains("\"last_t\": 10, \"last_value\": 3"));
        // 4 samples: p999 renders but is flagged as unresolvable.
        assert!(doc.contains("\"p999\": 99, \"p999_resolvable\": false"));
    }

    #[test]
    fn histogram_p999_resolvable_with_enough_samples() {
        let mut reg = Registry::new();
        let mut h = Histogram::new("lat", 1, 2000);
        for v in 0..1000 {
            h.record(v);
        }
        reg.scope("dev").set_histogram("slack", &h);
        let doc = reg.snapshot();
        assert!(doc.contains("\"p999\": 999, \"p999_resolvable\": true"));
    }

    #[test]
    fn scopes_nest_and_paths_split_on_dots() {
        let mut reg = Registry::new();
        reg.scope("a.b.c").set_counter("n", 1);
        reg.scope("a").scope("b").scope("c").set_counter("m", 2);
        assert_eq!(reg.metric_count(), 2);
        let doc = reg.snapshot();
        let a = doc.find("\"a\"").expect("scope a");
        let b = doc[a..].find("\"b\"").expect("scope b nested");
        assert!(doc[a + b..].contains("\"c\""));
    }

    #[test]
    fn snapshot_is_stable_ordered_and_deterministic() {
        let build = || {
            let mut reg = Registry::new();
            // Insert in non-lexicographic order on purpose.
            reg.scope("zeta").set_counter("z", 1);
            reg.scope("alpha").set_counter("a", 2);
            reg.scope("alpha").set_gauge("ratio", 0.125);
            reg.scope("middle.inner").set_counter("m", 3);
            reg.snapshot()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "same construction, byte-identical snapshots");
        let alpha = a.find("\"alpha\"").expect("alpha");
        let middle = a.find("\"middle\"").expect("middle");
        let zeta = a.find("\"zeta\"").expect("zeta");
        assert!(alpha < middle && middle < zeta, "lexicographic scope order");
    }

    #[test]
    fn empty_registry_renders_minimal_document() {
        let reg = Registry::new();
        assert_eq!(
            reg.snapshot(),
            "{\n  \"schema\": \"telemetry/v1\",\n  \"scopes\": {}\n}"
        );
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let mut reg = Registry::new();
        reg.scope("x").set_gauge("v", 1.0);
        reg.scope("x").set_counter("v", 1);
    }
}
