//! Session activation: env vars, CLI flags, and end-of-run file export.
//!
//! Binaries opt in with one line — `let _obs = xr_obs::init_cli_env();` —
//! which reads the `AFTER_TRACE` / `AFTER_METRICS` / `AFTER_PROM` /
//! `AFTER_SLO_BUDGET_MS` / `AFTER_FLIGHT_DUMP` env vars and the matching
//! `--trace[=path]` / `--metrics[=path]` / `--prom[=path]` /
//! `--slo-budget-ms=X` / `--flight-dump[=path]` CLI flags, installs a
//! matching [`ObsCtx`] on the main thread, and writes the requested files
//! when the session drops (or [`ObsSession::finish`] is called explicitly).
//!
//! The step budget is installed on the session's [`ObsCtx`]
//! ([`ObsCtx::slo_budget_ms`]), where the eval runner reads it. The flight
//! dump path is written through to its env var at [`ObsSession::start`],
//! because the panic hook and sustained-breach dumps read it from there.
//!
//! [`threads_from_env`] is the one parse of `AFTER_THREADS`, for binaries
//! that pass a worker count on to the library.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::meta::write_atomic;
use crate::{recorder, slo, InstallGuard, ObsCtx};

/// Resolved activation options.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsOptions {
    /// Chrome-trace output path, when tracing was requested.
    pub trace_path: Option<PathBuf>,
    /// Metrics JSON output path, when metrics were requested.
    pub metrics_path: Option<PathBuf>,
    /// Prometheus text-format output path, when requested.
    pub prom_path: Option<PathBuf>,
    /// Per-tick latency budget in milliseconds, when SLO tracking was
    /// requested.
    pub slo_budget_ms: Option<f64>,
    /// Flight-recorder dump path (written on finish, panic, or sustained
    /// SLO breach), when requested.
    pub flight_dump_path: Option<PathBuf>,
}

impl ObsOptions {
    /// Options from the `AFTER_*` env vars alone.
    pub fn from_env() -> ObsOptions {
        let path_var = |name: &str| -> Option<PathBuf> {
            match std::env::var(name) {
                Ok(v) if !v.trim().is_empty() => Some(PathBuf::from(v.trim())),
                _ => None,
            }
        };
        ObsOptions {
            trace_path: path_var("AFTER_TRACE"),
            metrics_path: path_var("AFTER_METRICS"),
            prom_path: path_var("AFTER_PROM"),
            slo_budget_ms: std::env::var(slo::SLO_BUDGET_ENV).ok().and_then(|v| slo::parse_budget_ms(&v)),
            flight_dump_path: recorder::env_dump_path(),
        }
    }

    /// Options from env vars plus CLI flags (flags win). Recognized flags:
    /// `--trace`, `--trace=PATH`, `--metrics`, `--metrics=PATH`, `--prom`,
    /// `--prom=PATH`, `--slo-budget-ms=MS`, `--flight-dump`,
    /// `--flight-dump=PATH`; the bare forms default to `trace.json` /
    /// `metrics.json` / `metrics.prom` / `flight.json` in the working
    /// directory. Unrelated arguments are ignored.
    pub fn from_args_and_env<I, S>(args: I) -> ObsOptions
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut opts = ObsOptions::from_env();
        for arg in args {
            let arg = arg.as_ref();
            if arg == "--trace" {
                opts.trace_path = Some(PathBuf::from("trace.json"));
            } else if let Some(path) = arg.strip_prefix("--trace=") {
                opts.trace_path = Some(PathBuf::from(path));
            } else if arg == "--metrics" {
                opts.metrics_path = Some(PathBuf::from("metrics.json"));
            } else if let Some(path) = arg.strip_prefix("--metrics=") {
                opts.metrics_path = Some(PathBuf::from(path));
            } else if arg == "--prom" {
                opts.prom_path = Some(PathBuf::from("metrics.prom"));
            } else if let Some(path) = arg.strip_prefix("--prom=") {
                opts.prom_path = Some(PathBuf::from(path));
            } else if let Some(ms) = arg.strip_prefix("--slo-budget-ms=") {
                opts.slo_budget_ms = slo::parse_budget_ms(ms);
            } else if arg == "--flight-dump" {
                opts.flight_dump_path = Some(PathBuf::from(recorder::DEFAULT_DUMP_PATH));
            } else if let Some(path) = arg.strip_prefix("--flight-dump=") {
                opts.flight_dump_path = Some(PathBuf::from(path));
            }
        }
        opts
    }

    /// `true` when no sink or tracking feature was requested.
    pub fn is_empty(&self) -> bool {
        self.trace_path.is_none()
            && self.metrics_path.is_none()
            && self.prom_path.is_none()
            && self.slo_budget_ms.is_none()
            && self.flight_dump_path.is_none()
    }
}

/// An activated observability session. Keep it alive for the duration of
/// `main`; output files are written exactly once, by [`ObsSession::finish`]
/// or on drop.
pub struct ObsSession {
    ctx: Option<Arc<ObsCtx>>,
    options: ObsOptions,
    finished: bool,
    // Restores the previous thread context when the session ends. Declared
    // after `ctx` only for readability — drop order is irrelevant because
    // the guard holds its own Arc.
    _guard: Option<InstallGuard>,
}

impl ObsSession {
    /// An inert session: nothing installed, nothing written.
    pub fn disabled() -> ObsSession {
        ObsSession { ctx: None, options: ObsOptions::default(), finished: false, _guard: None }
    }

    /// Builds and installs a context per `options` on the current thread.
    /// With empty options this is [`ObsSession::disabled`].
    pub fn start(options: ObsOptions) -> ObsSession {
        crate::meta::process_start();
        if options.is_empty() {
            return ObsSession::disabled();
        }
        // the panic hook and breach dumps read the dump path from the env, so
        // a flag-sourced path is written through; env-sourced ones round-trip
        if let Some(path) = &options.flight_dump_path {
            std::env::set_var(recorder::FLIGHT_DUMP_ENV, path.as_os_str());
            recorder::install_panic_hook();
        }
        let metrics = options.metrics_path.is_some() || options.prom_path.is_some();
        let ctx = ObsCtx::with_slo_budget(metrics, options.trace_path.is_some(), options.slo_budget_ms);
        let guard = ctx.install();
        ObsSession { ctx: Some(ctx), options, finished: false, _guard: Some(guard) }
    }

    /// `true` when a context is installed.
    pub fn active(&self) -> bool {
        self.ctx.is_some()
    }

    /// The session's context (e.g. to install in extra threads).
    pub fn ctx(&self) -> Option<&Arc<ObsCtx>> {
        self.ctx.as_ref()
    }

    /// The resolved activation options.
    pub fn options(&self) -> &ObsOptions {
        &self.options
    }

    /// Writes the requested export files (idempotent; also runs on drop).
    /// Reports each written path — or a write failure — on stderr. All
    /// writes are atomic (temp file + rename), so a crash mid-export never
    /// leaves a truncated file.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let Some(ctx) = &self.ctx else { return };
        if let (Some(path), Some(trace)) = (&self.options.trace_path, &ctx.trace) {
            write_report(path, &trace.to_chrome_json().compact(), "trace");
        }
        if ctx.metrics_on {
            if let Some(path) = &self.options.metrics_path {
                let doc = ctx
                    .registry
                    .snapshot()
                    .to_json()
                    .set("timeseries", ctx.series.snapshot().to_json())
                    .set("meta", crate::meta::run_metadata());
                write_report(path, &doc.pretty(), "metrics");
            }
            if let Some(path) = &self.options.prom_path {
                write_report(path, &crate::prometheus::render(&ctx.registry.snapshot()), "prometheus");
            }
        }
        if let Some(path) = &self.options.flight_dump_path {
            let doc = ctx.recorder.to_chrome_json().set("flightDumpReason", "finish");
            write_report(path, &doc.compact(), "flight");
        }
    }
}

impl Drop for ObsSession {
    fn drop(&mut self) {
        self.finish();
    }
}

fn write_report(path: &Path, contents: &str, what: &str) {
    match write_atomic(path, contents) {
        Ok(()) => eprintln!("[{what} written to {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {what} to {}: {e}", path.display()),
    }
}

/// Activates observability from the process CLI arguments and environment:
/// the one-liner for the table/figure binaries.
pub fn init_cli_env() -> ObsSession {
    ObsSession::start(ObsOptions::from_args_and_env(std::env::args().skip(1)))
}

/// The worker count a binary passes on: `AFTER_THREADS` when it holds a
/// positive integer, otherwise [`std::thread::available_parallelism`]. An
/// invalid value warns (`xr_eval.par.invalid_threads`) and falls back.
pub fn threads_from_env() -> usize {
    let available = || std::thread::available_parallelism().map_or(1, |n| n.get());
    match std::env::var("AFTER_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                crate::warn_event!("xr_eval.par.invalid_threads", ignored = format!("{v:?}"));
                available()
            }
        },
        Err(_) => available(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_override_and_default() {
        // env interactions are covered by obs_smoke in CI; here only flags
        let opts = ObsOptions::from_args_and_env(["--trace", "--metrics=m.json", "ignored"]);
        assert_eq!(opts.trace_path.as_deref(), Some(Path::new("trace.json")));
        assert_eq!(opts.metrics_path.as_deref(), Some(Path::new("m.json")));
        let opts = ObsOptions::from_args_and_env(["--trace=t.json"]);
        assert_eq!(opts.trace_path.as_deref(), Some(Path::new("t.json")));
    }

    #[test]
    fn slo_prom_and_flight_flags_parse() {
        let opts =
            ObsOptions::from_args_and_env(["--slo-budget-ms=12.5", "--prom=p.prom", "--flight-dump=f.json"]);
        assert_eq!(opts.slo_budget_ms, Some(12.5));
        assert_eq!(opts.prom_path.as_deref(), Some(Path::new("p.prom")));
        assert_eq!(opts.flight_dump_path.as_deref(), Some(Path::new("f.json")));
        assert!(!opts.is_empty());
        let opts = ObsOptions::from_args_and_env(["--prom", "--flight-dump"]);
        assert_eq!(opts.prom_path.as_deref(), Some(Path::new("metrics.prom")));
        assert_eq!(opts.flight_dump_path.as_deref(), Some(Path::new("flight.json")));
        // non-positive budgets are rejected, not propagated
        let opts = ObsOptions::from_args_and_env(["--slo-budget-ms=0"]);
        assert_eq!(opts.slo_budget_ms, None);
        // the flag shares the env var's parse, whitespace included
        let opts = ObsOptions::from_args_and_env(["--slo-budget-ms= 4 "]);
        assert_eq!(opts.slo_budget_ms, Some(4.0));
    }

    #[test]
    fn the_session_context_carries_the_step_budget() {
        let session = ObsSession::start(ObsOptions { slo_budget_ms: Some(2.5), ..ObsOptions::default() });
        assert_eq!(session.ctx().and_then(|ctx| ctx.slo_budget_ms), Some(2.5));
        assert_eq!(crate::current_ctx().and_then(|ctx| ctx.slo_budget_ms), Some(2.5));
    }

    #[test]
    fn empty_options_mean_disabled_session() {
        let session = ObsSession::start(ObsOptions::default());
        assert!(!session.active());
    }

    #[test]
    fn session_writes_files_once_on_finish() {
        let dir = std::env::temp_dir().join(format!("xr_obs_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.json");
        let metrics_path = dir.join("m.json");
        let prom_path = dir.join("m.prom");
        {
            let mut session = ObsSession::start(ObsOptions {
                trace_path: Some(trace_path.clone()),
                metrics_path: Some(metrics_path.clone()),
                prom_path: Some(prom_path.clone()),
                ..ObsOptions::default()
            });
            assert!(session.active());
            crate::counter_add("s.calls", &[], 3);
            crate::series_observe("s.tick.ms", &[], 0, 1.0);
            {
                let _span = crate::span!("s.phase");
            }
            session.finish();
        }
        let metrics = crate::Json::parse(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        assert_eq!(
            metrics.get("counters").and_then(|c| c.get("s.calls")).and_then(crate::Json::as_f64),
            Some(3.0)
        );
        // the new self-describing sections ride along
        assert!(metrics.get("meta").and_then(|m| m.get("wall_clock_utc")).is_some());
        assert!(metrics
            .get("timeseries")
            .and_then(|t| t.get("series"))
            .and_then(|s| s.get("s.tick.ms"))
            .is_some());
        let trace = crate::Json::parse(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
        let events = trace.get("traceEvents").and_then(crate::Json::as_arr).unwrap();
        assert!(events.iter().any(|e| e.get("name").and_then(crate::Json::as_str) == Some("s.phase")));
        let prom = std::fs::read_to_string(&prom_path).unwrap();
        assert!(prom.contains("s_calls 3"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
