//! Windowed time-series metrics: fixed-capacity ring buffers of per-window
//! counter / gauge / histogram cells, addressed — like the cumulative
//! registry — by metric name plus label pairs.
//!
//! The cumulative [`crate::metrics::Registry`] answers "what happened over
//! the whole run"; this layer answers "what happened *lately*". Callers tag
//! each recording with a logical **window index** (typically `tick` or
//! `tick / N` — a deterministic quantity, never wall time), and the series
//! keeps the most recent [`TimeSeries::capacity`] windows per key in a ring,
//! evicting the oldest window when a newer one claims its slot.
//!
//! ## Determinism and exact cross-worker merge
//!
//! Because windows are keyed by logical index and every cell update is a
//! commutative, associative merge (counter adds, histogram bucket adds;
//! gauges are last-writer-wins *within* a window, which callers use only for
//! per-window values that are equal on all workers), recordings from any
//! number of `std::thread::scope` workers produce the same retained state as
//! a single-threaded run — as long as the recorded window span stays within
//! the ring capacity. A recording older than the window currently holding
//! its slot is **stale**: it is dropped (and counted in
//! [`TimeSeries::stale_dropped`]) instead of resurrecting an evicted window,
//! which is what keeps eviction exact. Snapshots sort by `(key, window)`, so
//! equal recorded state exports byte-identically regardless of thread
//! interleaving — the same guarantee the cumulative registry gives.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::{num3, Json};
use crate::metrics::{Hist, HistSnapshot, MetricKey};

/// Number of independent shards (same rationale as the registry's).
const SHARDS: usize = 16;

/// Default number of retained windows per series.
pub const DEFAULT_WINDOW_CAPACITY: usize = 256;

enum WindowValue {
    Counter(u64),
    Gauge(f64),
    Hist(Hist),
}

struct WindowCell {
    window: u64,
    value: WindowValue,
}

struct SeriesRing {
    /// `slots[w % capacity]` holds window `w` (or an older/newer window that
    /// mapped to the same slot).
    slots: Vec<Option<WindowCell>>,
}

enum Record {
    Counter(u64),
    Gauge(f64),
    Observe(f64),
}

impl Record {
    fn fresh(self) -> WindowValue {
        match self {
            Record::Counter(delta) => WindowValue::Counter(delta),
            Record::Gauge(v) => WindowValue::Gauge(v),
            Record::Observe(v) => {
                let mut h = Hist::new();
                h.observe(v);
                WindowValue::Hist(h)
            }
        }
    }

    fn apply(self, value: &mut WindowValue) {
        match (self, value) {
            (Record::Counter(delta), WindowValue::Counter(c)) => *c += delta,
            (Record::Gauge(v), WindowValue::Gauge(g)) => *g = v,
            (Record::Observe(v), WindowValue::Hist(h)) => h.observe(v),
            _ => debug_assert!(false, "window series recorded with mixed metric kinds"),
        }
    }
}

/// The sharded windowed-metrics store. One lives on every
/// [`crate::ObsCtx`]; record through the `series_*` free functions in the
/// crate root.
pub struct TimeSeries {
    shards: Vec<Mutex<HashMap<MetricKey, SeriesRing>>>,
    capacity: usize,
    stale_dropped: AtomicU64,
}

impl Default for TimeSeries {
    fn default() -> Self {
        TimeSeries::new(DEFAULT_WINDOW_CAPACITY)
    }
}

impl TimeSeries {
    /// An empty store retaining `capacity` windows per series.
    pub fn new(capacity: usize) -> TimeSeries {
        assert!(capacity > 0, "window capacity must be positive");
        TimeSeries {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            capacity,
            stale_dropped: AtomicU64::new(0),
        }
    }

    /// Retained windows per series.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Recordings dropped because their window had already been evicted.
    pub fn stale_dropped(&self) -> u64 {
        self.stale_dropped.load(Ordering::Relaxed)
    }

    fn shard(&self, key: &MetricKey) -> &Mutex<HashMap<MetricKey, SeriesRing>> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARDS]
    }

    fn record(&self, name: &str, labels: &[(&str, &str)], window: u64, rec: Record) {
        let key = MetricKey::new(name, labels);
        let mut shard = self.shard(&key).lock().expect("series shard poisoned");
        let capacity = self.capacity;
        let ring =
            shard.entry(key).or_insert_with(|| SeriesRing { slots: (0..capacity).map(|_| None).collect() });
        let idx = (window % capacity as u64) as usize;
        match &mut ring.slots[idx] {
            Some(cell) if cell.window == window => rec.apply(&mut cell.value),
            Some(cell) if cell.window > window => {
                // older than the retained horizon: dropping (instead of
                // resurrecting the evicted window) keeps eviction exact
                drop(shard);
                self.stale_dropped.fetch_add(1, Ordering::Relaxed);
            }
            slot => *slot = Some(WindowCell { window, value: rec.fresh() }),
        }
    }

    /// Adds `delta` to the counter cell of `window`.
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], window: u64, delta: u64) {
        self.record(name, labels, window, Record::Counter(delta));
    }

    /// Sets the gauge cell of `window` (last write wins within the window).
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], window: u64, v: f64) {
        self.record(name, labels, window, Record::Gauge(v));
    }

    /// Records `v` into the histogram cell of `window`.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], window: u64, v: f64) {
        self.record(name, labels, window, Record::Observe(v));
    }

    /// A deterministic (sorted) point-in-time copy of every series.
    pub fn snapshot(&self) -> TimeSeriesSnapshot {
        let mut series = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("series shard poisoned");
            for (key, ring) in shard.iter() {
                let mut windows: Vec<(u64, WindowSnapshot)> = ring
                    .slots
                    .iter()
                    .flatten()
                    .map(|cell| {
                        let snap = match &cell.value {
                            WindowValue::Counter(c) => WindowSnapshot::Counter(*c),
                            WindowValue::Gauge(g) => WindowSnapshot::Gauge(*g),
                            WindowValue::Hist(h) => WindowSnapshot::Hist(h.snapshot()),
                        };
                        (cell.window, snap)
                    })
                    .collect();
                windows.sort_by_key(|&(w, _)| w);
                series.push(SeriesSnapshot { key: key.clone(), windows });
            }
        }
        series.sort_by(|a, b| a.key.cmp(&b.key));
        TimeSeriesSnapshot { series, window_capacity: self.capacity, stale_dropped: self.stale_dropped() }
    }
}

/// One exported window cell.
#[derive(Debug, Clone, PartialEq)]
pub enum WindowSnapshot {
    /// Per-window counter total.
    Counter(u64),
    /// Per-window gauge (last value written in the window).
    Gauge(f64),
    /// Per-window histogram statistics.
    Hist(HistSnapshot),
}

/// One series: its key plus the retained windows in ascending order.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// Metric identity (name + sorted labels).
    pub key: MetricKey,
    /// `(window, cell)` rows, ascending by window index.
    pub windows: Vec<(u64, WindowSnapshot)>,
}

/// A sorted point-in-time view of the windowed store, ready for export.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesSnapshot {
    /// All series, sorted by key.
    pub series: Vec<SeriesSnapshot>,
    /// Ring capacity the store was built with.
    pub window_capacity: usize,
    /// Stale recordings dropped over the store's lifetime.
    pub stale_dropped: u64,
}

impl TimeSeriesSnapshot {
    /// One series by display name (`name` or `name{k=v}`), if present.
    pub fn series(&self, display: &str) -> Option<&SeriesSnapshot> {
        self.series.iter().find(|s| s.key.display() == display)
    }

    /// Machine-readable export, nested under the metrics JSON as
    /// `{"window_capacity": .., "stale_dropped": .., "series": {name: [..]}}`.
    pub fn to_json(&self) -> Json {
        let mut series = Json::obj();
        for s in &self.series {
            let rows: Vec<Json> = s
                .windows
                .iter()
                .map(|(w, cell)| {
                    let row = Json::obj().set("window", *w);
                    match cell {
                        WindowSnapshot::Counter(c) => row.set("count", *c),
                        WindowSnapshot::Gauge(g) => row.set("value", num3(*g)),
                        WindowSnapshot::Hist(h) => row
                            .set("count", h.count)
                            .set("sum", num3(h.sum))
                            .set("max", num3(h.max))
                            .set("p50", num3(h.p50))
                            .set("p95", num3(h.p95))
                            .set("p99", num3(h.p99)),
                    }
                })
                .collect();
            series = series.set(&s.key.display(), Json::Arr(rows));
        }
        Json::obj()
            .set("window_capacity", self.window_capacity as u64)
            .set("stale_dropped", self.stale_dropped)
            .set("series", series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_accumulate_and_export_sorted() {
        let ts = TimeSeries::new(8);
        ts.observe("s.ms", &[], 1, 2.0);
        ts.observe("s.ms", &[], 0, 1.0);
        ts.observe("s.ms", &[], 1, 4.0);
        ts.counter_add("s.calls", &[("m", "a")], 0, 3);
        ts.gauge_set("s.level", &[], 2, 0.5);
        let snap = ts.snapshot();
        let hist = snap.series("s.ms").unwrap();
        assert_eq!(hist.windows.len(), 2);
        assert_eq!(hist.windows[0].0, 0);
        match &hist.windows[1].1 {
            WindowSnapshot::Hist(h) => {
                assert_eq!(h.count, 2);
                assert_eq!(h.sum, 6.0);
            }
            other => panic!("expected hist cell, got {other:?}"),
        }
        assert_eq!(snap.series("s.calls{m=a}").unwrap().windows[0].1, WindowSnapshot::Counter(3));
        assert_eq!(snap.series("s.level").unwrap().windows[0].1, WindowSnapshot::Gauge(0.5));
        // export parses back
        assert!(Json::parse(&snap.to_json().pretty()).is_ok());
    }

    #[test]
    fn ring_evicts_oldest_and_drops_stale_exactly() {
        let ts = TimeSeries::new(4);
        for w in 0..10u64 {
            ts.observe("s.ms", &[], w, w as f64);
        }
        let snap = ts.snapshot();
        let windows: Vec<u64> = snap.series("s.ms").unwrap().windows.iter().map(|&(w, _)| w).collect();
        assert_eq!(windows, vec![6, 7, 8, 9], "only the newest capacity windows survive");
        assert_eq!(ts.stale_dropped(), 0);
        // a late recording for an evicted window is dropped, not resurrected
        ts.observe("s.ms", &[], 2, 99.0);
        assert_eq!(ts.stale_dropped(), 1);
        let snap = ts.snapshot();
        let windows: Vec<u64> = snap.series("s.ms").unwrap().windows.iter().map(|&(w, _)| w).collect();
        assert_eq!(windows, vec![6, 7, 8, 9]);
    }

    #[test]
    fn interleaving_order_does_not_change_the_snapshot() {
        // the merge-exactness property the 1-vs-8-worker test in xr_eval
        // exercises with real scoped workers
        let build = |order: &[usize]| {
            let ts = TimeSeries::new(32);
            for &i in order {
                let w = (i % 8) as u64;
                ts.observe("s.ms", &[("m", "x")], w, i as f64);
                ts.counter_add("s.calls", &[], w, 1);
            }
            ts.snapshot()
        };
        let fwd: Vec<usize> = (0..64).collect();
        let rev: Vec<usize> = (0..64).rev().collect();
        assert_eq!(build(&fwd), build(&rev));
    }
}
