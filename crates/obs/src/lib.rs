//! # xr-obs
//!
//! Zero-dependency observability substrate for the AFTER/POSHGNN workspace:
//!
//! * [`span!`] / [`event!`] / [`warn_event!`] — structured tracing backed by
//!   a thread-local span stack and monotonic timestamps. With no context
//!   installed every probe is a no-op (one thread-local read; `Instant::now`
//!   is only reached once a sink exists), so instrumentation stays
//!   compiled-in on the hot paths.
//! * [`metrics::Registry`] — counters, gauges, and fixed-bucket histograms
//!   (p50/p95/p99) addressed by static name + label pairs, with sharded
//!   accumulation that merges exactly across `std::thread::scope` workers.
//! * Exporters — a human-readable summary table
//!   ([`metrics::MetricsSnapshot::render_table`]), machine-readable JSON
//!   ([`metrics::MetricsSnapshot::to_json`]), and Chrome
//!   `chrome://tracing` / Perfetto trace files
//!   ([`trace::TraceSink::to_chrome_json`]).
//! * [`ObsSession`] / [`init_cli_env`] — activation via the `AFTER_TRACE` /
//!   `AFTER_METRICS` environment variables or `--trace[=path]` /
//!   `--metrics[=path]` CLI flags; files are written when the session is
//!   finished (or dropped). [`threads_from_env`] is the binaries' one parse
//!   of `AFTER_THREADS`; library code takes worker counts as values.
//!
//! ## Context model
//!
//! Observability state lives in an [`ObsCtx`] installed **per thread**
//! (thread-local), not in process globals: tests get perfect isolation
//! (each test thread installs its own context and snapshots only what it
//! recorded), and the parallel experiment runner propagates the caller's
//! context into its scoped workers so telemetry from all cells merges into
//! one registry. Install with [`ObsCtx::install`]; the returned guard
//! restores the previous context on drop.

pub mod json;
pub mod meta;
pub mod metrics;
pub mod prometheus;
pub mod recorder;
mod session;
pub mod slo;
pub mod timeseries;
pub mod trace;

use std::cell::RefCell;
use std::sync::Arc;

pub use json::Json;
pub use metrics::{HistSnapshot, MetricKey, MetricsSnapshot, Registry};
pub use recorder::FlightRecorder;
pub use session::{init_cli_env, threads_from_env, ObsOptions, ObsSession};
pub use slo::{SloConfig, SloTracker, TickVerdict};
pub use timeseries::{TimeSeries, TimeSeriesSnapshot};
pub use trace::{current_span_path, Span, TraceSink};

/// An observability context: one metrics registry, one windowed time-series
/// store, one always-on flight recorder, plus an optional trace sink. Cheap
/// to share (`Arc`) and safe to record into from many threads.
pub struct ObsCtx {
    /// The metrics registry telemetry accumulates into.
    pub registry: Registry,
    /// Windowed per-tick series (see [`timeseries`]); gated like the
    /// registry by [`Self::metrics_on`].
    pub series: TimeSeries,
    /// Bounded ring of recent spans/events for post-mortem dumps. Always
    /// recording while this context is installed.
    pub recorder: FlightRecorder,
    /// Whether probes record metrics (counters/gauges/histograms/series).
    pub metrics_on: bool,
    /// Trace sink; `None` disables span/event collection.
    pub trace: Option<TraceSink>,
    /// Per-step latency budget in milliseconds for tick loops that track
    /// deadlines under this context (the eval runner's recommend steps);
    /// `None` skips tracking. Travels with the context into pool workers.
    pub slo_budget_ms: Option<f64>,
}

impl ObsCtx {
    /// A context with the requested sinks and no step budget. `metrics`
    /// enables the registry; `trace` allocates a trace buffer with epoch
    /// "now".
    pub fn new(metrics: bool, trace: bool) -> Arc<ObsCtx> {
        ObsCtx::with_slo_budget(metrics, trace, None)
    }

    /// [`ObsCtx::new`] carrying a per-step latency budget.
    pub fn with_slo_budget(metrics: bool, trace: bool, slo_budget_ms: Option<f64>) -> Arc<ObsCtx> {
        Arc::new(ObsCtx {
            registry: Registry::new(),
            series: TimeSeries::default(),
            recorder: FlightRecorder::default(),
            metrics_on: metrics,
            trace: if trace { Some(TraceSink::new()) } else { None },
            slo_budget_ms,
        })
    }

    /// Installs `self` as the current thread's context, returning a guard
    /// that restores the previous context when dropped.
    pub fn install(self: &Arc<ObsCtx>) -> InstallGuard {
        let previous = CURRENT.with(|c| c.replace(Some(self.clone())));
        InstallGuard { previous }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<ObsCtx>>> = const { RefCell::new(None) };
}

/// Restores the previously installed context on drop. Not `Send`: contexts
/// are installed and uninstalled on the same thread.
pub struct InstallGuard {
    previous: Option<Arc<ObsCtx>>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        CURRENT.with(|c| *c.borrow_mut() = previous);
    }
}

/// The context installed on the current thread, if any. Worker pools should
/// capture this in the spawning thread and [`ObsCtx::install`] it in each
/// worker so telemetry from all workers lands in one registry.
pub fn current_ctx() -> Option<Arc<ObsCtx>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// `true` when any observability context is installed on this thread.
pub fn is_active() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Adds `delta` to counter `name` on the installed context (no-op without
/// one).
pub fn counter_add(name: &str, labels: &[(&str, &str)], delta: u64) {
    CURRENT.with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            if ctx.metrics_on {
                ctx.registry.counter_add(name, labels, delta);
            }
        }
    });
}

/// Sets gauge `name` on the installed context (no-op without one).
pub fn gauge_set(name: &str, labels: &[(&str, &str)], v: f64) {
    CURRENT.with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            if ctx.metrics_on {
                ctx.registry.gauge_set(name, labels, v);
            }
        }
    });
}

/// Records `v` into histogram `name` on the installed context (no-op
/// without one).
pub fn observe(name: &str, labels: &[(&str, &str)], v: f64) {
    CURRENT.with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            if ctx.metrics_on {
                ctx.registry.observe(name, labels, v);
            }
        }
    });
}

/// A started wall-clock measurement, or `None` when metrics are off — so
/// the disabled path never calls `Instant::now`. Finish with
/// [`observe_since`].
pub fn start_timer() -> Option<std::time::Instant> {
    let on = CURRENT.with(|c| c.borrow().as_ref().map(|ctx| ctx.metrics_on).unwrap_or(false));
    if on {
        Some(std::time::Instant::now())
    } else {
        None
    }
}

/// Records the milliseconds elapsed since [`start_timer`] into histogram
/// `name` (no-op when the timer was never started).
pub fn observe_since(name: &str, labels: &[(&str, &str)], timer: Option<std::time::Instant>) {
    if let Some(start) = timer {
        observe(name, labels, start.elapsed().as_secs_f64() * 1e3);
    }
}

/// Records `v` into the histogram cell of logical `window` in series `name`
/// on the installed context (no-op without one).
pub fn series_observe(name: &str, labels: &[(&str, &str)], window: u64, v: f64) {
    CURRENT.with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            if ctx.metrics_on {
                ctx.series.observe(name, labels, window, v);
            }
        }
    });
}

/// Adds `delta` to the counter cell of logical `window` in series `name` on
/// the installed context (no-op without one).
pub fn series_counter_add(name: &str, labels: &[(&str, &str)], window: u64, delta: u64) {
    CURRENT.with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            if ctx.metrics_on {
                ctx.series.counter_add(name, labels, window, delta);
            }
        }
    });
}

/// Sets the gauge cell of logical `window` in series `name` on the
/// installed context (no-op without one).
pub fn series_gauge_set(name: &str, labels: &[(&str, &str)], window: u64, v: f64) {
    CURRENT.with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            if ctx.metrics_on {
                ctx.series.gauge_set(name, labels, window, v);
            }
        }
    });
}

/// A deterministic snapshot of the installed context's metrics, for tests
/// and exporters. `None` when no context is installed.
pub fn metrics_snapshot() -> Option<MetricsSnapshot> {
    current_ctx().map(|ctx| ctx.registry.snapshot())
}

/// Event severity for [`emit_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventLevel {
    /// Recorded only when a sink is installed.
    Info,
    /// Additionally written to stderr as one atomic line (always, matching
    /// the visibility of the `eprintln!` warnings it replaces).
    Warn,
}

/// Emits an instant event: a trace instant (when tracing), a counter bump
/// under `events.<name>` (when metering), and — for [`EventLevel::Warn`] —
/// a single structured stderr line that cannot interleave with other lines.
/// `args` is only invoked when the event is actually rendered somewhere.
pub fn emit_event<F>(level: EventLevel, name: &'static str, args: F)
where
    F: FnOnce() -> Vec<(&'static str, String)>,
{
    let ctx = current_ctx();
    if ctx.is_none() && level == EventLevel::Info {
        return;
    }
    let args = args();
    if let Some(ctx) = &ctx {
        ctx.recorder.record_instant(name);
        if let Some(trace) = &ctx.trace {
            trace.instant(name, args.clone());
        }
        if ctx.metrics_on {
            ctx.registry.counter_add(&format!("events.{name}"), &[], 1);
        }
    }
    if level == EventLevel::Warn {
        let mut line = format!("[warn] {name}");
        for (k, v) in &args {
            line.push_str(&format!(" {k}={v}"));
        }
        // one eprintln call = one locked stderr write: interleaving-safe
        eprintln!("{line}");
    }
}

/// Opens a tracing span for the enclosing scope. Bind the result:
/// `let _span = span!("poshgnn.train.epoch", epoch = i);` — the span closes
/// (and records) when the guard drops. Arguments are formatted with
/// `Display` and only evaluated when a context is installed.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($name)
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        $crate::Span::enter_with($name, || vec![$((stringify!($k), format!("{}", $v))),+])
    };
}

/// Records an instant event (trace instant + `events.<name>` counter) on
/// the installed context; a no-op without one.
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        $crate::emit_event($crate::EventLevel::Info, $name, Vec::new)
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        $crate::emit_event($crate::EventLevel::Info, $name, || vec![$((stringify!($k), format!("{}", $v))),+])
    };
}

/// Like [`event!`] but also writes one atomic structured line to stderr,
/// whether or not a context is installed — the structured replacement for
/// ad-hoc `eprintln!` warnings.
#[macro_export]
macro_rules! warn_event {
    ($name:expr) => {
        $crate::emit_event($crate::EventLevel::Warn, $name, Vec::new)
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        $crate::emit_event($crate::EventLevel::Warn, $name, || vec![$((stringify!($k), format!("{}", $v))),+])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_context_means_no_ops() {
        assert!(!is_active());
        counter_add("x", &[], 1);
        observe("y", &[], 1.0);
        gauge_set("z", &[], 1.0);
        assert!(start_timer().is_none());
        assert!(metrics_snapshot().is_none());
        let span = span!("a.b.c", k = 1);
        assert!(!span.is_recording());
    }

    #[test]
    fn install_scopes_context_to_the_thread() {
        let ctx = ObsCtx::new(true, true);
        {
            let _guard = ctx.install();
            assert!(is_active());
            counter_add("t.calls", &[], 2);
            {
                let _span = span!("t.outer", phase = "x");
                assert_eq!(current_span_path(), "t.outer");
                let _inner = span!("t.inner");
                assert_eq!(current_span_path(), "t.outer.t.inner");
            }
            event!("t.event", detail = 7);
        }
        assert!(!is_active());
        // recorded data survives on the ctx after uninstall
        let snap = ctx.registry.snapshot();
        assert_eq!(snap.counter("t.calls"), Some(2));
        assert_eq!(snap.counter("events.t.event"), Some(1));
        assert!(snap.histogram("t.outer").map(|h| h.count) == Some(1));
        let trace = ctx.trace.as_ref().unwrap();
        assert_eq!(trace.len(), 3, "two spans + one instant");
    }

    #[test]
    fn nested_installs_restore_previous() {
        let outer = ObsCtx::new(true, false);
        let inner = ObsCtx::new(true, false);
        let _g1 = outer.install();
        counter_add("which", &[], 1);
        {
            let _g2 = inner.install();
            counter_add("which", &[], 10);
        }
        counter_add("which", &[], 100);
        assert_eq!(outer.registry.snapshot().counter("which"), Some(101));
        assert_eq!(inner.registry.snapshot().counter("which"), Some(10));
    }

    #[test]
    fn timers_record_only_with_metrics_on() {
        let ctx = ObsCtx::new(false, true);
        let _g = ctx.install();
        assert!(start_timer().is_none(), "trace-only context must not start timers");
        drop(_g);
        let ctx = ObsCtx::new(true, false);
        let _g = ctx.install();
        let t = start_timer();
        assert!(t.is_some());
        observe_since("timed.ms", &[], t);
        assert_eq!(metrics_snapshot().unwrap().histogram("timed.ms").unwrap().count, 1);
    }
}
