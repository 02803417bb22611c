//! Tick-deadline / SLO tracking: a per-tick latency budget with
//! deadline-miss counters, budget-burn gauges, windowed latency series, and
//! sustained-slip warnings.
//!
//! A [`SloTracker`] is owned by whatever drives a tick loop (the
//! `SceneEngine`, the eval runner's recommend-step loop) and fed one
//! `(tick, elapsed_ms)` pair per tick via [`SloTracker::record`]. The
//! tracker takes measured durations rather than measuring itself, so tests
//! inject an artificially slow tick without sleeping. All emission goes
//! through the normal context-gated free functions: with no [`crate::ObsCtx`]
//! installed a tracker still *detects* misses (the returned
//! [`TickVerdict`]) but records nothing.
//!
//! No library type reads a budget from the environment: a `SceneEngine`
//! tracks ticks only after `set_slo`, a `RoomServer` only under an explicit
//! `ServerConfig::slo`, and the eval recommend loop only when the installed
//! [`crate::ObsCtx`] carries [`crate::ObsCtx::slo_budget_ms`]. Binaries
//! take the budget from `AFTER_SLO_BUDGET_MS` or the `--slo-budget-ms` flag,
//! both through [`parse_budget_ms`], and [`crate::ObsSession`] installs it
//! on the context. No budget ⇒ `None` and the caller skips tracking
//! entirely — the unconfigured path stays cost-free.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::{counter_add, gauge_set, recorder, series_observe, warn_event};

/// Env var holding the per-tick latency budget in milliseconds.
pub const SLO_BUDGET_ENV: &str = "AFTER_SLO_BUDGET_MS";

/// Parses a budget in milliseconds from [`SLO_BUDGET_ENV`] or the
/// `--slo-budget-ms=` flag: surrounding whitespace is ignored, and
/// anything but a positive finite number is `None`.
pub fn parse_budget_ms(raw: &str) -> Option<f64> {
    let budget: f64 = raw.trim().parse().ok()?;
    (budget > 0.0 && budget.is_finite()).then_some(budget)
}

/// Deadline-budget configuration for one tick loop.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// Per-tick latency budget in milliseconds.
    pub budget_ms: f64,
    /// Sliding window (in ticks) over which sustained slips are judged.
    pub sustain_window: usize,
    /// Misses within [`Self::sustain_window`] that count as a sustained
    /// breach.
    pub sustain_misses: usize,
    /// Ticks per windowed-series window for the latency series.
    pub series_window_ticks: u64,
}

impl SloConfig {
    /// Defaults (32-tick window, 8 misses, 8-tick series windows) around the
    /// given budget.
    pub fn new(budget_ms: f64) -> SloConfig {
        SloConfig { budget_ms, sustain_window: 32, sustain_misses: 8, series_window_ticks: 8 }
    }
}

/// What [`SloTracker::record`] concluded about one tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickVerdict {
    /// The tick ran over budget.
    pub missed: bool,
    /// This tick *entered* a sustained breach (≥ `sustain_misses` of the
    /// last `sustain_window` ticks missed, and the previous tick was not
    /// already in breach). The transition edge, so warnings fire once per
    /// slip episode rather than every tick.
    pub sustained_breach: bool,
}

/// Tracks one tick loop against a latency budget. See the module docs.
#[derive(Debug, Clone)]
pub struct SloTracker {
    config: SloConfig,
    scope: &'static str,
    labels: Vec<(String, String)>,
    ticks_name: String,
    miss_name: String,
    burn_name: String,
    series_name: String,
    recent: VecDeque<bool>,
    misses_in_window: usize,
    ticks: u64,
    misses: u64,
    in_breach: bool,
}

/// One flight dump per process on the first sustained breach — a breach
/// storm must not spend its time rewriting the same dump file.
static BREACH_DUMPED: AtomicBool = AtomicBool::new(false);

impl SloTracker {
    /// A tracker for `scope` (e.g. `"session.tick"`) with extra label pairs
    /// attached to every emitted metric.
    pub fn new(scope: &'static str, config: SloConfig, labels: &[(&str, &str)]) -> SloTracker {
        SloTracker {
            scope,
            labels: labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect(),
            ticks_name: format!("slo.{scope}.ticks"),
            miss_name: format!("slo.{scope}.deadline_miss"),
            burn_name: format!("slo.{scope}.budget_burn"),
            series_name: format!("slo.{scope}.ms"),
            recent: VecDeque::with_capacity(config.sustain_window),
            misses_in_window: 0,
            ticks: 0,
            misses: 0,
            in_breach: false,
            config,
        }
    }

    /// The configured budget.
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    /// Ticks recorded so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Deadline misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Whether the loop is currently inside a sustained breach.
    pub fn in_breach(&self) -> bool {
        self.in_breach
    }

    /// Judges one tick that took `elapsed_ms`, emitting metrics and (on a
    /// sustained-breach edge) a warning plus a flight-recorder dump.
    pub fn record(&mut self, tick: u64, elapsed_ms: f64) -> TickVerdict {
        self.ticks += 1;
        let missed = elapsed_ms > self.config.budget_ms;
        if missed {
            self.misses += 1;
        }

        // sliding breach window
        if self.recent.len() == self.config.sustain_window && self.recent.pop_front() == Some(true) {
            self.misses_in_window -= 1;
        }
        self.recent.push_back(missed);
        if missed {
            self.misses_in_window += 1;
        }
        let sustained = self.misses_in_window >= self.config.sustain_misses;
        let entered_breach = sustained && !self.in_breach;
        self.in_breach = sustained;

        let labels: Vec<(&str, &str)> = self.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        counter_add(&self.ticks_name, &labels, 1);
        gauge_set(&self.burn_name, &labels, elapsed_ms / self.config.budget_ms);
        series_observe(&self.series_name, &labels, tick / self.config.series_window_ticks, elapsed_ms);
        if missed {
            counter_add(&self.miss_name, &labels, 1);
        }
        if entered_breach {
            warn_event!(
                "slo.sustained_breach",
                scope = self.scope,
                tick = tick,
                elapsed_ms = format!("{elapsed_ms:.3}"),
                budget_ms = self.config.budget_ms,
                window_misses = self.misses_in_window,
                window = self.config.sustain_window
            );
            counter_add(&format!("slo.{}.sustained_breach", self.scope), &labels, 1);
            if !BREACH_DUMPED.swap(true, Ordering::SeqCst) {
                recorder::dump_to_env_path("slo_breach");
            }
        }
        TickVerdict { missed, sustained_breach: entered_breach }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsCtx;

    #[test]
    fn stays_silent_under_budget() {
        let ctx = ObsCtx::new(true, false);
        let _g = ctx.install();
        let mut slo = SloTracker::new("test.quiet", SloConfig::new(10.0), &[]);
        for t in 0..100u64 {
            let v = slo.record(t, 1.5);
            assert!(!v.missed);
            assert!(!v.sustained_breach);
        }
        assert_eq!(slo.misses(), 0);
        assert!(!slo.in_breach());
        let snap = ctx.registry.snapshot();
        assert_eq!(snap.counter("slo.test.quiet.ticks"), Some(100));
        assert_eq!(snap.counter("slo.test.quiet.deadline_miss"), None);
        assert_eq!(snap.counter("events.slo.sustained_breach"), None);
        assert_eq!(snap.gauge("slo.test.quiet.budget_burn"), Some(0.15));
    }

    #[test]
    fn flags_an_injected_slow_tick() {
        let ctx = ObsCtx::new(true, false);
        let _g = ctx.install();
        let mut slo = SloTracker::new("test.slow", SloConfig::new(10.0), &[("method", "x")]);
        for t in 0..5u64 {
            assert!(!slo.record(t, 2.0).missed);
        }
        let v = slo.record(5, 50.0); // the injected artificially-slow tick
        assert!(v.missed);
        assert!(!v.sustained_breach, "one miss is not sustained");
        assert_eq!(slo.misses(), 1);
        let snap = ctx.registry.snapshot();
        assert_eq!(snap.counter("slo.test.slow.deadline_miss{method=x}"), Some(1));
        assert_eq!(snap.gauge("slo.test.slow.budget_burn{method=x}"), Some(5.0));
    }

    #[test]
    fn sustained_slips_fire_once_per_episode() {
        let ctx = ObsCtx::new(true, false);
        let _g = ctx.install();
        let mut config = SloConfig::new(10.0);
        config.sustain_window = 8;
        config.sustain_misses = 4;
        let mut slo = SloTracker::new("test.sustained", config, &[]);
        let mut edges = 0;
        for t in 0..8u64 {
            if slo.record(t, 50.0).sustained_breach {
                edges += 1;
            }
        }
        assert_eq!(edges, 1, "breach edge fires exactly once while slipping");
        assert!(slo.in_breach());
        // recovery clears the breach…
        for t in 8..16u64 {
            assert!(!slo.record(t, 1.0).sustained_breach);
        }
        assert!(!slo.in_breach());
        // …and a new slip episode fires a fresh edge
        for t in 16..24u64 {
            if slo.record(t, 50.0).sustained_breach {
                edges += 1;
            }
        }
        assert_eq!(edges, 2);
        let snap = ctx.registry.snapshot();
        assert_eq!(snap.counter("slo.test.sustained.sustained_breach"), Some(2));
        assert_eq!(snap.counter("events.slo.sustained_breach"), Some(2));
    }

    #[test]
    fn budget_parse_requires_a_positive_budget() {
        assert_eq!(parse_budget_ms("12.5"), Some(12.5));
        assert_eq!(parse_budget_ms(" 3 "), Some(3.0));
        assert_eq!(parse_budget_ms("0"), None);
        assert_eq!(parse_budget_ms("-1"), None);
        assert_eq!(parse_budget_ms("inf"), None);
        assert_eq!(parse_budget_ms("nan"), None);
        assert_eq!(parse_budget_ms(""), None);
        assert_eq!(parse_budget_ms("5ms"), None);
    }
}
