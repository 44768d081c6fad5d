//! A unified metrics registry: named counters, plain values, histogram
//! summaries and time-weighted gauges, behind one snapshot/report/JSON
//! API.
//!
//! Everything is keyed by `&'static`-free `String` names and stored in
//! `BTreeMap`s so snapshots iterate in a stable, deterministic order —
//! snapshot output feeds golden comparisons and must never depend on hash
//! order. Histogram summaries are computed by their producer (exact
//! percentiles over the run) and injected with
//! [`MetricsRegistry::summary_set`]; the registry reports them as given.

use std::collections::BTreeMap;

use desim::SimTime;

use crate::json::{escape, fmt_f64};

/// The distilled view of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistSummary {
    /// Samples the summary covers.
    pub count: u64,
    /// Arithmetic mean over all samples.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median estimate.
    pub p50: f64,
    /// 95th-percentile estimate.
    pub p95: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

/// A time-weighted gauge: tracks a level over simulated time and reports
/// its time-average.
#[derive(Debug, Clone)]
struct Gauge {
    start: SimTime,
    last_t: SimTime,
    level: f64,
    integral: f64,
    peak: f64,
}

impl Gauge {
    fn new(t: SimTime, level: f64) -> Self {
        Gauge {
            start: t,
            last_t: t,
            level,
            integral: 0.0,
            peak: level,
        }
    }

    fn set(&mut self, t: SimTime, level: f64) {
        let dt = t.as_ns().saturating_sub(self.last_t.as_ns());
        self.integral += self.level * dt as f64;
        self.last_t = t;
        self.level = level;
        self.peak = self.peak.max(level);
    }

    /// Time-weighted mean over `[start, end]`.
    ///
    /// A zero-duration window (`end == start`, including a gauge created
    /// and snapshotted at the same instant, or an `end` before the window
    /// via the saturating subtraction) would divide 0/0 into NaN — which
    /// then poisons every downstream consumer of [`GaugeSummary::mean`].
    /// The guard defines the empty-window mean as the current level: the
    /// only value the gauge has ever been observed at.
    fn mean(&self, end: SimTime) -> f64 {
        let tail = end.as_ns().saturating_sub(self.last_t.as_ns());
        let span = end.as_ns().saturating_sub(self.start.as_ns());
        if span == 0 {
            return self.level;
        }
        (self.integral + self.level * tail as f64) / span as f64
    }
}

/// The unified registry: counters, histograms, gauges, and plain values,
/// each namespaced by a caller-chosen string (convention:
/// `"subsystem.metric"`, e.g. `"dram.row_hits"`).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    values: BTreeMap<String, f64>,
    summaries: BTreeMap<String, HistSummary>,
    gauges: BTreeMap<String, Gauge>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the named counter (created at zero on first use).
    pub fn add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Increments the named counter by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Reads a counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a plain (non-accumulating) value, e.g. a final ratio.
    pub fn value_set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    /// Sets the named histogram summary, as computed by its producer.
    pub fn summary_set(&mut self, name: &str, s: HistSummary) {
        self.summaries.insert(name.to_string(), s);
    }

    /// Moves the named time-weighted gauge to `level` at time `t`
    /// (created on first use; its window starts at the first call).
    pub fn gauge_set(&mut self, name: &str, t: SimTime, level: f64) {
        match self.gauges.get_mut(name) {
            Some(g) => g.set(t, level),
            None => {
                self.gauges.insert(name.to_string(), Gauge::new(t, level));
            }
        }
    }

    /// Freezes the registry into an ordered snapshot, closing gauge
    /// windows at `end`.
    pub fn snapshot(&self, end: SimTime) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            values: self.values.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            hists: self
                .summaries
                .iter()
                .map(|(k, s)| (k.clone(), *s))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(k, g)| {
                    (
                        k.clone(),
                        GaugeSummary {
                            mean: g.mean(end),
                            peak: g.peak,
                            last: g.level,
                        },
                    )
                })
                .collect(),
        }
    }
}

/// The distilled view of one gauge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeSummary {
    /// Time-weighted average level over the observation window.
    pub mean: f64,
    /// Highest level ever set.
    pub peak: f64,
    /// Level at the end of the window.
    pub last: f64,
}

/// An immutable, ordered snapshot of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counters, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Plain values, name-sorted.
    pub values: Vec<(String, f64)>,
    /// Histogram summaries, name-sorted.
    pub hists: Vec<(String, HistSummary)>,
    /// Gauge summaries, name-sorted.
    pub gauges: Vec<(String, GaugeSummary)>,
}

impl MetricsSnapshot {
    /// Serialises the snapshot as a JSON object:
    /// `{"counters":{...},"values":{...},"histograms":{...},"gauges":{...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", escape(k), v));
        }
        out.push_str("\n  },\n  \"values\": {");
        for (i, (k, v)) in self.values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", escape(k), fmt_f64(*v)));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (k, s)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"mean\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                escape(k),
                s.count,
                fmt_f64(s.mean),
                fmt_f64(s.min),
                fmt_f64(s.max),
                fmt_f64(s.p50),
                fmt_f64(s.p95),
                fmt_f64(s.p99)
            ));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (k, g)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": {{\"mean\": {}, \"peak\": {}, \"last\": {}}}",
                escape(k),
                fmt_f64(g.mean),
                fmt_f64(g.peak),
                fmt_f64(g.last)
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Renders the snapshot as an aligned text table for terminal output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k:<40} {v}\n"));
            }
        }
        if !self.values.is_empty() {
            out.push_str("values:\n");
            for (k, v) in &self.values {
                out.push_str(&format!("  {k:<40} {v:.4}\n"));
            }
        }
        if !self.hists.is_empty() {
            out.push_str("histograms:\n");
            for (k, s) in &self.hists {
                out.push_str(&format!(
                    "  {k:<40} n={} mean={:.2} p50={:.2} p95={:.2} p99={:.2} max={:.2}\n",
                    s.count, s.mean, s.p50, s.p95, s.p99, s.max
                ));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (k, g) in &self.gauges {
                out.push_str(&format!(
                    "  {k:<40} mean={:.3} peak={:.3} last={:.3}\n",
                    g.mean, g.peak, g.last
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.incr("a.x");
        m.add("a.x", 4);
        m.incr("b.y");
        assert_eq!(m.counter("a.x"), 5);
        assert_eq!(m.counter("b.y"), 1);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn gauges_time_weight() {
        let mut m = MetricsRegistry::new();
        m.gauge_set("q", t(0), 0.0);
        m.gauge_set("q", t(100), 10.0); // level 0 for 100 ns
        m.gauge_set("q", t(200), 2.0); // level 10 for 100 ns
        let snap = m.snapshot(t(400)); // level 2 for 200 ns
        let (_, g) = &snap.gauges[0];
        assert!((g.mean - (0.0 * 100.0 + 10.0 * 100.0 + 2.0 * 200.0) / 400.0).abs() < 1e-9);
        assert_eq!(g.peak, 10.0);
        assert_eq!(g.last, 2.0);
    }

    #[test]
    fn gauge_zero_duration_window_has_no_nan() {
        // Created and snapshotted at the same instant: span == 0 would be
        // 0/0 without the guard; the defined answer is the current level.
        let mut m = MetricsRegistry::new();
        m.gauge_set("g", t(5), 3.0);
        let snap = m.snapshot(t(5));
        let (_, g) = &snap.gauges[0];
        assert_eq!(g.mean, 3.0);
        assert!(!g.mean.is_nan());
        assert_eq!(g.peak, 3.0);
        assert_eq!(g.last, 3.0);

        // Several sets at the same instant: still a zero-duration window;
        // the mean is the latest level, the peak remembers the highest.
        let mut m = MetricsRegistry::new();
        m.gauge_set("g", t(9), 10.0);
        m.gauge_set("g", t(9), 2.0);
        let snap = m.snapshot(t(9));
        let (_, g) = &snap.gauges[0];
        assert_eq!(g.mean, 2.0);
        assert!(!g.mean.is_nan());
        assert_eq!(g.peak, 10.0);

        // An end before the window start saturates to span == 0 — same
        // guard, same NaN-free answer.
        let mut m = MetricsRegistry::new();
        m.gauge_set("g", t(100), 7.0);
        let snap = m.snapshot(t(50));
        let (_, g) = &snap.gauges[0];
        assert_eq!(g.mean, 7.0);
        assert!(!g.mean.is_nan());

        // And the serialized snapshot of a zero-window gauge stays valid
        // strict JSON.
        let mut m = MetricsRegistry::new();
        m.gauge_set("g", t(0), 1.5);
        let doc = m.snapshot(t(0)).to_json();
        assert!(json::parse(&doc).is_ok(), "{doc}");
    }

    #[test]
    fn injected_summaries_appear_in_snapshot() {
        let mut m = MetricsRegistry::new();
        m.summary_set(
            "frame.latency_ns",
            HistSummary {
                count: 3,
                mean: 2.0,
                min: 1.0,
                max: 3.0,
                p50: 2.0,
                p95: 3.0,
                p99: 3.0,
            },
        );
        let snap = m.snapshot(t(0));
        assert_eq!(snap.hists.len(), 1);
        assert_eq!(snap.hists[0].0, "frame.latency_ns");
        assert_eq!(snap.hists[0].1.p95, 3.0);
    }

    #[test]
    fn snapshot_json_parses_and_orders_names() {
        let mut m = MetricsRegistry::new();
        m.incr("z.last");
        m.incr("a.first");
        m.value_set("ratio", 0.25);
        m.summary_set(
            "h",
            HistSummary {
                count: 1,
                ..HistSummary::default()
            },
        );
        m.gauge_set("g", t(0), 1.0);
        let snap = m.snapshot(t(10));
        assert_eq!(snap.counters[0].0, "a.first");
        assert_eq!(snap.counters[1].0, "z.last");
        let doc = snap.to_json();
        let v = json::parse(&doc).expect("snapshot JSON parses");
        assert_eq!(
            v.get("counters").unwrap().get("a.first").unwrap().as_f64(),
            Some(1.0)
        );
        assert_eq!(
            v.get("histograms")
                .unwrap()
                .get("h")
                .unwrap()
                .get("count")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        assert_eq!(
            v.get("gauges")
                .unwrap()
                .get("g")
                .unwrap()
                .get("peak")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
        let text = snap.render();
        assert!(text.contains("a.first"));
        assert!(text.contains("histograms:"));
    }
}
