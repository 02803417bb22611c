//! Global-style metrics registry: counters, gauges, and fixed-bucket
//! histograms addressable by name + label pairs.
//!
//! Accumulation is sharded: the key hash picks one of `SHARDS` independent
//! mutex-protected tables, so the `xr_eval::par` workers rarely contend on
//! the same lock, and totals merge exactly — a counter incremented from any
//! number of `std::thread::scope` workers reads the same as the
//! single-threaded sum (u64 adds are exact, and histogram bucket counts are
//! order-independent).
//!
//! Each shard is a small vector kept sorted by key, looked up by binary
//! search against the *borrowed* `(name, labels)` pair: recording into an
//! existing metric allocates nothing, which keeps the always-on cost of the
//! hot per-kernel timers (hundreds of observations per training epoch)
//! within the flight-recorder overhead budget. A `MetricKey` is only
//! materialised the first time a metric appears.
//!
//! Snapshots are deterministic: entries are sorted by `(name, labels)`, so
//! two runs that record the same values produce byte-identical exports
//! regardless of thread interleaving.

use std::cmp::Ordering;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use crate::json::{num3, Json};

/// Number of independent registry shards. Power of two, comfortably above
/// the worker counts the experiment runner uses.
const SHARDS: usize = 16;

/// Fully-qualified metric identity: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name, `crate.component.phase[.unit]` by convention.
    pub name: String,
    /// Label pairs, sorted by key for a canonical identity.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    pub(crate) fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        MetricKey { name: name.to_string(), labels }
    }

    /// `name{k=v,...}` rendering used by the table exporter.
    pub fn display(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let mut out = format!("{}{{", self.name);
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}={v}");
        }
        out.push('}');
        out
    }
}

/// Runs `f` over a canonically sorted view of `labels` without allocating
/// when the input is already sorted — which covers every call site in the
/// workspace (the hot paths pass no labels at all).
fn with_sorted<R>(labels: &[(&str, &str)], f: impl FnOnce(&[(&str, &str)]) -> R) -> R {
    if labels.len() <= 1 || labels.windows(2).all(|w| w[0] <= w[1]) {
        f(labels)
    } else {
        let mut sorted = labels.to_vec();
        sorted.sort();
        f(&sorted)
    }
}

/// Orders a stored key against a borrowed `(name, sorted labels)` pair —
/// the comparison the allocation-free shard lookup binary-searches with.
/// Must agree with `MetricKey`'s derived `Ord`.
fn cmp_borrowed(key: &MetricKey, name: &str, labels: &[(&str, &str)]) -> Ordering {
    key.name.as_str().cmp(name).then_with(|| {
        for (stored, &(k, v)) in key.labels.iter().zip(labels) {
            let c = stored.0.as_str().cmp(k).then_with(|| stored.1.as_str().cmp(v));
            if c != Ordering::Equal {
                return c;
            }
        }
        key.labels.len().cmp(&labels.len())
    })
}

enum Metric {
    Counter(u64),
    Gauge(f64),
    Hist(Hist),
}

/// Fixed-bucket histogram state. Bucket `i` counts observations `v` with
/// `v <= BOUNDS[i]` (and `> BOUNDS[i-1]`); one overflow bucket catches the
/// rest. Exact `count`/`sum`/`min`/`max` ride along, so means are exact and
/// only the quantiles are bucket-resolution estimates.
#[derive(Debug, Clone)]
pub(crate) struct Hist {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Hist {
    pub(crate) fn new() -> Hist {
        Hist {
            buckets: vec![0; bucket_bounds().len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    pub(crate) fn observe(&mut self, v: f64) {
        let idx = bucket_index(v);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Exported statistics of the current state.
    pub(crate) fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }

    /// Upper-bound estimate of the `q`-quantile from bucket counts, clamped
    /// into the exact observed `[min, max]` range.
    fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                let bounds = bucket_bounds();
                let upper = if i < bounds.len() { bounds[i] } else { self.max };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// The default histogram bucket upper bounds: log-spaced, four per decade,
/// from 1 µs-scale up past 10 s-scale (values are unit-agnostic; the
/// workspace convention is milliseconds, so the range covers 1 ns .. 10 s).
pub fn bucket_bounds() -> &'static [f64] {
    use std::sync::OnceLock;
    static BOUNDS: OnceLock<Vec<f64>> = OnceLock::new();
    BOUNDS.get_or_init(|| {
        // 10^(-6 + i/4) for i in 0..=44: 1e-6 .. 1e5, ratio ~1.778
        (0..=44).map(|i| 10f64.powf(-6.0 + i as f64 / 4.0)).collect()
    })
}

fn bucket_index(v: f64) -> usize {
    let bounds = bucket_bounds();
    bounds.partition_point(|&b| b < v)
}

/// The sharded metrics registry. Shareable across threads (`Sync`); clone an
/// `Arc<Registry>` per worker or reach it through the installed
/// [`crate::ObsCtx`].
pub struct Registry {
    shards: Vec<Mutex<Vec<(MetricKey, Metric)>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry { shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect() }
    }

    fn shard_index(name: &str, labels: &[(&str, &str)]) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        name.hash(&mut hasher);
        for &(k, v) in labels {
            k.hash(&mut hasher);
            v.hash(&mut hasher);
        }
        (hasher.finish() as usize) % SHARDS
    }

    /// Locks the owning shard and applies `apply` to the metric, creating it
    /// via `init` on first sight. Existing metrics are updated without any
    /// allocation: the sorted-shard binary search compares against the
    /// borrowed name/labels directly.
    fn update(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        init: impl FnOnce() -> Metric,
        apply: impl FnOnce(&mut Metric),
    ) {
        with_sorted(labels, |labels| {
            let mut shard =
                self.shards[Registry::shard_index(name, labels)].lock().expect("metrics shard poisoned");
            let slot = match shard.binary_search_by(|(k, _)| cmp_borrowed(k, name, labels)) {
                Ok(i) => i,
                Err(i) => {
                    shard.insert(i, (MetricKey::new(name, labels), init()));
                    i
                }
            };
            apply(&mut shard[slot].1);
        });
    }

    /// Adds `delta` to a counter, creating it at zero first.
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        self.update(
            name,
            labels,
            || Metric::Counter(0),
            |m| match m {
                Metric::Counter(c) => *c += delta,
                _ => debug_assert!(false, "metric {name:?} is not a counter"),
            },
        );
    }

    /// Sets a gauge to `v` (last write wins).
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.update(
            name,
            labels,
            || Metric::Gauge(0.0),
            |m| match m {
                Metric::Gauge(g) => *g = v,
                _ => debug_assert!(false, "metric {name:?} is not a gauge"),
            },
        );
    }

    /// Records `v` into a histogram.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.update(
            name,
            labels,
            || Metric::Hist(Hist::new()),
            |m| match m {
                Metric::Hist(h) => h.observe(v),
                _ => debug_assert!(false, "metric {name:?} is not a histogram"),
            },
        );
    }

    /// A deterministic (sorted) point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("metrics shard poisoned");
            for (key, metric) in shard.iter() {
                match metric {
                    Metric::Counter(c) => counters.push((key.clone(), *c)),
                    Metric::Gauge(g) => gauges.push((key.clone(), *g)),
                    Metric::Hist(h) => histograms.push((key.clone(), h.snapshot())),
                }
            }
        }
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot { counters, gauges, histograms }
    }
}

/// Exported histogram statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Exact sum of observations.
    pub sum: f64,
    /// Exact minimum (0 when empty).
    pub min: f64,
    /// Exact maximum (0 when empty).
    pub max: f64,
    /// Bucket-resolution median.
    pub p50: f64,
    /// Bucket-resolution 95th percentile.
    pub p95: f64,
    /// Bucket-resolution 99th percentile.
    pub p99: f64,
}

impl HistSnapshot {
    /// Exact mean (`0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A sorted point-in-time view of the registry, ready for export.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `(key, total)` counter rows.
    pub counters: Vec<(MetricKey, u64)>,
    /// `(key, last value)` gauge rows.
    pub gauges: Vec<(MetricKey, f64)>,
    /// `(key, stats)` histogram rows.
    pub histograms: Vec<(MetricKey, HistSnapshot)>,
}

impl MetricsSnapshot {
    /// Counter total by display name (`name` or `name{k=v}`), if present.
    pub fn counter(&self, display: &str) -> Option<u64> {
        self.counters.iter().find(|(k, _)| k.display() == display).map(|&(_, c)| c)
    }

    /// Gauge value by display name, if present.
    pub fn gauge(&self, display: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k.display() == display).map(|&(_, g)| g)
    }

    /// Histogram stats by display name, if present.
    pub fn histogram(&self, display: &str) -> Option<&HistSnapshot> {
        self.histograms.iter().find(|(k, _)| k.display() == display).map(|(_, h)| h)
    }

    /// Machine-readable export: `{"counters": {...}, "gauges": {...},
    /// "histograms": {name: {count, sum, mean, min, max, p50, p95, p99}}}`.
    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for (key, c) in &self.counters {
            counters = counters.set(&key.display(), *c);
        }
        let mut gauges = Json::obj();
        for (key, g) in &self.gauges {
            gauges = gauges.set(&key.display(), *g);
        }
        let mut histograms = Json::obj();
        for (key, h) in &self.histograms {
            histograms = histograms.set(
                &key.display(),
                Json::obj()
                    .set("count", h.count)
                    .set("sum", num3(h.sum))
                    .set("mean", num3(h.mean()))
                    .set("min", num3(h.min))
                    .set("max", num3(h.max))
                    .set("p50", num3(h.p50))
                    .set("p95", num3(h.p95))
                    .set("p99", num3(h.p99)),
            );
        }
        Json::obj().set("counters", counters).set("gauges", gauges).set("histograms", histograms)
    }

    /// Human-readable summary table (counters, gauges, then histograms).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters\n");
            for (key, c) in &self.counters {
                let _ = writeln!(out, "  {:<52} {c}", key.display());
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges\n");
            for (key, g) in &self.gauges {
                let _ = writeln!(out, "  {:<52} {g:.4}", key.display());
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms                                     count      mean       p50       p95       p99\n");
            for (key, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {:<44} {:>7} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
                    key.display(),
                    h.count,
                    h.mean(),
                    h.p50,
                    h.p95,
                    h.p99
                );
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let reg = Registry::new();
        reg.counter_add("a.calls", &[], 2);
        reg.counter_add("a.calls", &[], 3);
        reg.gauge_set("a.level", &[("m", "x")], 1.5);
        reg.gauge_set("a.level", &[("m", "x")], 2.5);
        reg.observe("a.ms", &[], 1.0);
        reg.observe("a.ms", &[], 3.0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a.calls"), Some(5));
        assert_eq!(snap.gauge("a.level{m=x}"), Some(2.5));
        let h = snap.histogram("a.ms").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 4.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 3.0);
    }

    #[test]
    fn label_order_does_not_matter() {
        let reg = Registry::new();
        reg.counter_add("c", &[("a", "1"), ("b", "2")], 1);
        reg.counter_add("c", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(reg.snapshot().counter("c{a=1,b=2}"), Some(2));
    }

    #[test]
    fn bucket_index_respects_bounds() {
        let bounds = bucket_bounds();
        // a value exactly on a bound lands in that bucket (v <= bound)
        for (i, &b) in bounds.iter().enumerate() {
            assert_eq!(bucket_index(b), i, "bound {b} must fall in its own bucket");
        }
        // just above a bound spills into the next bucket
        assert_eq!(bucket_index(bounds[3] * 1.0001), 4);
        // beyond the last bound lands in the overflow bucket
        assert_eq!(bucket_index(bounds[bounds.len() - 1] * 10.0), bounds.len());
        assert_eq!(bucket_index(0.0), 0);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds_clamped_to_range() {
        let reg = Registry::new();
        for v in [1.0, 2.0, 3.0, 4.0, 100.0] {
            reg.observe("h", &[], v);
        }
        let snap = reg.snapshot();
        let h = snap.histogram("h").unwrap();
        // p50: 3rd of 5 observations; value 2.0 < p50 <= bound above 3.0
        assert!(h.p50 >= 2.0 && h.p50 <= 3.2, "p50 = {}", h.p50);
        assert!(h.p99 <= 100.0 && h.p99 > 4.0, "p99 = {}", h.p99);
        assert!(h.p50 <= h.p95 && h.p95 <= h.p99);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Hist::new();
        assert_eq!(h.quantile(0.5), 0.0);
        let reg = Registry::new();
        reg.observe("h", &[], 5.0);
        let snap = reg.snapshot();
        assert!(snap.histogram("nope").is_none());
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let build = || {
            let reg = Registry::new();
            reg.counter_add("z", &[], 1);
            reg.counter_add("a", &[("k", "2")], 1);
            reg.counter_add("a", &[("k", "1")], 1);
            reg.gauge_set("g", &[], 0.5);
            reg.observe("h", &[], 1.0);
            reg.snapshot()
        };
        let s1 = build();
        let s2 = build();
        assert_eq!(s1, s2);
        let names: Vec<String> = s1.counters.iter().map(|(k, _)| k.display()).collect();
        assert_eq!(names, vec!["a{k=1}", "a{k=2}", "z"]);
        assert_eq!(s1.to_json().pretty(), s2.to_json().pretty());
    }

    #[test]
    fn json_export_parses_and_contains_required_keys() {
        let reg = Registry::new();
        reg.counter_add("c", &[], 7);
        reg.observe("h.ms", &[], 0.25);
        let json = reg.snapshot().to_json();
        let text = json.pretty();
        let back = crate::json::Json::parse(&text).unwrap();
        assert_eq!(back.get("counters").and_then(|c| c.get("c")).and_then(Json::as_f64), Some(7.0));
        let hist = back.get("histograms").and_then(|h| h.get("h.ms")).unwrap();
        for field in ["count", "sum", "mean", "min", "max", "p50", "p95", "p99"] {
            assert!(hist.get(field).is_some(), "missing {field}");
        }
    }
}
