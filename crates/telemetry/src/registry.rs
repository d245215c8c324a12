//! The metrics registry: named, labeled families of counters, gauges and
//! histograms with Prometheus-text and JSON exposition.
//!
//! Handle lookup (`registry.counter(...)`) takes a short mutex on the
//! registry map; the *hot path* — `inc`/`set`/`observe` on a handle held by
//! the caller — is a single atomic op with no lock. Instrumented code
//! resolves its handles once (at chain/channel construction) and records
//! through them forever after.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::{Histogram, HistogramSnapshot};

/// A monotonically increasing counter handle (cheap to clone).
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a value that can go up and down (cheap to clone).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram handle (cheap to clone). Durations are recorded as integer
/// microseconds; name the metric `*_seconds` and exposition scales it.
#[derive(Clone, Debug)]
pub struct HistogramHandle(Arc<Histogram>);

impl HistogramHandle {
    /// Record one value.
    pub fn observe(&self, v: u64) {
        self.0.record(v);
    }

    /// Record a wall-clock duration as microseconds.
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.0.record(d.as_micros() as u64);
    }

    /// The underlying histogram (for quantile queries).
    pub fn histogram(&self) -> &Histogram {
        &self.0
    }

    /// Shared ownership of the underlying histogram.
    pub fn shared(&self) -> Arc<Histogram> {
        Arc::clone(&self.0)
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// `(name, sorted labels)` — the identity of one time series.
type SeriesKey = (String, Vec<(String, String)>);

/// A registry of named metric families.
///
/// Families are keyed by metric name; within a family, label sets
/// distinguish series (e.g. `lv_chain_phase_seconds{phase="commit"}`).
/// Asking for an existing name with a different metric kind panics — that
/// is a wiring bug, caught the first time the code path runs.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<SeriesKey, Metric>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("series", &self.len())
            .finish()
    }
}

fn key_of(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    (name.to_string(), labels)
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.metrics.lock().unwrap().len()
    }

    /// True if nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn get_or_insert(&self, name: &str, labels: &[(&str, &str)], make: fn() -> Metric) -> Metric {
        let key = key_of(name, labels);
        let mut metrics = self.metrics.lock().unwrap();
        let entry = metrics.entry(key).or_insert_with(make);
        let fresh = make();
        assert_eq!(
            entry.kind(),
            fresh.kind(),
            "metric `{name}` already registered as a {}",
            entry.kind()
        );
        entry.clone()
    }

    /// The counter `name{labels}` (registered on first use).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_insert(name, labels, || {
            Metric::Counter(Arc::new(AtomicU64::new(0)))
        }) {
            Metric::Counter(c) => Counter(c),
            _ => unreachable!(),
        }
    }

    /// The gauge `name{labels}` (registered on first use).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_insert(name, labels, || Metric::Gauge(Arc::new(AtomicI64::new(0)))) {
            Metric::Gauge(g) => Gauge(g),
            _ => unreachable!(),
        }
    }

    /// The histogram `name{labels}` (registered on first use).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        match self.get_or_insert(name, labels, || {
            Metric::Histogram(Arc::new(Histogram::new()))
        }) {
            Metric::Histogram(h) => HistogramHandle(h),
            _ => unreachable!(),
        }
    }

    /// Snapshot of every series, sorted by name then labels.
    fn snapshot(&self) -> Vec<(SeriesKey, MetricSnapshot)> {
        let metrics = self.metrics.lock().unwrap();
        metrics
            .iter()
            .map(|(key, metric)| {
                let snap = match metric {
                    Metric::Counter(c) => MetricSnapshot::Counter(c.load(Ordering::Relaxed)),
                    Metric::Gauge(g) => MetricSnapshot::Gauge(g.load(Ordering::Relaxed)),
                    Metric::Histogram(h) => MetricSnapshot::Histogram(h.snapshot()),
                };
                (key.clone(), snap)
            })
            .collect()
    }

    /// Prometheus text exposition (format version 0.0.4).
    ///
    /// Histogram series whose name ends in `_seconds` are recorded as
    /// integer microseconds internally and scaled by `1e-6` here, so their
    /// `le` edges, `_sum` and quantile comments come out in seconds.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut last_name = String::new();
        for ((name, labels), snap) in self.snapshot() {
            if name != last_name {
                let kind = match &snap {
                    MetricSnapshot::Counter(_) => "counter",
                    MetricSnapshot::Gauge(_) => "gauge",
                    MetricSnapshot::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# TYPE {name} {kind}\n"));
                last_name = name.clone();
            }
            let label_str = render_labels(&labels, None);
            match snap {
                MetricSnapshot::Counter(v) => {
                    out.push_str(&format!("{name}{label_str} {v}\n"));
                }
                MetricSnapshot::Gauge(v) => {
                    out.push_str(&format!("{name}{label_str} {v}\n"));
                }
                MetricSnapshot::Histogram(h) => {
                    let scale = if name.ends_with("_seconds") {
                        1e-6
                    } else {
                        1.0
                    };
                    out.push_str(&format!(
                        "# p50={} p95={} p99={} max={}\n",
                        fmt_scaled(h.quantile(0.50), scale),
                        fmt_scaled(h.quantile(0.95), scale),
                        fmt_scaled(h.quantile(0.99), scale),
                        fmt_scaled(h.max, scale),
                    ));
                    for (edge, cumulative) in h.cumulative_buckets() {
                        let le = render_labels(&labels, Some(&fmt_scaled(edge, scale)));
                        out.push_str(&format!("{name}_bucket{le} {cumulative}\n"));
                    }
                    let inf = render_labels(&labels, Some("+Inf"));
                    out.push_str(&format!("{name}_bucket{inf} {}\n", h.count));
                    out.push_str(&format!(
                        "{name}_sum{label_str} {}\n",
                        fmt_scaled(h.sum, scale)
                    ));
                    out.push_str(&format!("{name}_count{label_str} {}\n", h.count));
                }
            }
        }
        out
    }

    /// JSON snapshot of every series (stable key order, no dependencies).
    pub fn json_snapshot(&self) -> String {
        let mut out = String::from("{\n");
        let series = self.snapshot();
        for (i, ((name, labels), snap)) in series.iter().enumerate() {
            let mut key = name.clone();
            if !labels.is_empty() {
                key.push_str(&render_labels(labels, None));
            }
            out.push_str(&format!("  {}: ", json_string(&key)));
            match snap {
                MetricSnapshot::Counter(v) => out.push_str(&format!("{v}")),
                MetricSnapshot::Gauge(v) => out.push_str(&format!("{v}")),
                MetricSnapshot::Histogram(h) => {
                    let scale = if name.ends_with("_seconds") {
                        1e-6
                    } else {
                        1.0
                    };
                    out.push_str(&format!(
                        "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}}",
                        h.count,
                        fmt_scaled(h.sum, scale),
                        fmt_scaled(h.min, scale),
                        fmt_f64(h.mean() * scale),
                        fmt_scaled(h.quantile(0.50), scale),
                        fmt_scaled(h.quantile(0.95), scale),
                        fmt_scaled(h.quantile(0.99), scale),
                        fmt_scaled(h.max, scale),
                    ))
                }
            }
            out.push_str(if i + 1 < series.len() { ",\n" } else { "\n" });
        }
        out.push_str("}\n");
        out
    }
}

enum MetricSnapshot {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramSnapshot),
}

/// `{a="x",b="y"}` (empty string for no labels); `le` appends the bucket
/// edge label Prometheus histograms require.
fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}={}", prom_quote(v)))
        .collect();
    if let Some(edge) = le {
        parts.push(format!("le={}", prom_quote(edge)));
    }
    format!("{{{}}}", parts.join(","))
}

fn prom_quote(v: &str) -> String {
    format!(
        "\"{}\"",
        v.replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
    )
}

fn fmt_scaled(v: u64, scale: f64) -> String {
    if scale == 1.0 {
        v.to_string()
    } else {
        fmt_f64(v as f64 * scale)
    }
}

/// Shortest-ish float rendering that is always valid JSON (no `inf`/`NaN`).
fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = format!("{v}");
    s
}

pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = MetricsRegistry::new();
        let c = r.counter("lv_test_events_total", &[]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name + labels resolves to the same series.
        assert_eq!(r.counter("lv_test_events_total", &[]).get(), 5);

        let g = r.gauge("lv_test_depth", &[]);
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn labels_distinguish_series_regardless_of_order() {
        let r = MetricsRegistry::new();
        r.counter("lv_test_total", &[("channel", "a"), ("phase", "x")])
            .inc();
        r.counter("lv_test_total", &[("phase", "x"), ("channel", "a")])
            .inc();
        r.counter("lv_test_total", &[("channel", "b"), ("phase", "x")])
            .inc();
        assert_eq!(
            r.counter("lv_test_total", &[("channel", "a"), ("phase", "x")])
                .get(),
            2
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let r = MetricsRegistry::new();
        r.counter("lv_test_total", &[]);
        r.histogram("lv_test_total", &[]);
    }

    #[test]
    fn prometheus_text_has_type_buckets_sum_count() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lv_test_latency_seconds", &[("phase", "validate")]);
        h.observe(1_000); // 1ms as microseconds
        h.observe(2_000);
        r.counter("lv_test_events_total", &[]).add(3);
        let text = r.prometheus_text();
        assert!(
            text.contains("# TYPE lv_test_events_total counter"),
            "{text}"
        );
        assert!(text.contains("lv_test_events_total 3"), "{text}");
        assert!(
            text.contains("# TYPE lv_test_latency_seconds histogram"),
            "{text}"
        );
        assert!(
            text.contains("lv_test_latency_seconds_count{phase=\"validate\"} 2"),
            "{text}"
        );
        // _seconds scaling: the 3000us sum renders as 0.003 seconds.
        assert!(
            text.contains("lv_test_latency_seconds_sum{phase=\"validate\"} 0.003"),
            "{text}"
        );
        assert!(text.contains("le=\"+Inf\"} 2"), "{text}");
    }

    #[test]
    fn json_snapshot_is_parseable_shape() {
        let r = MetricsRegistry::new();
        r.counter("lv_a_total", &[]).inc();
        r.histogram("lv_b_us", &[]).observe(10);
        let json = r.json_snapshot();
        assert!(json.starts_with("{\n"), "{json}");
        assert!(json.trim_end().ends_with('}'), "{json}");
        assert!(json.contains("\"lv_a_total\": 1"), "{json}");
        assert!(json.contains("\"count\": 1"), "{json}");
        // No trailing comma before the closing brace.
        assert!(!json.contains(",\n}"), "{json}");
    }
}
