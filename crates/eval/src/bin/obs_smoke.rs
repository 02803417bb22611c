//! Self-validating observability smoke test: runs a small instrumented
//! comparison with both sinks forced on, then parses the files the session
//! wrote back and checks the schema end to end. Exits non-zero on any
//! missing file, unparseable JSON, or absent required key — this is the CI
//! guard that keeps `AFTER_METRICS` / `AFTER_TRACE` output loadable.
//!
//! Usage: `cargo run --release -p xr-eval --bin obs_smoke [outdir] [--flags]`
//! The first argument that does not start with `--` is the output directory;
//! the flags are the shared observability flags (`--slo-budget-ms=MS`,
//! `--metrics=PATH`, …; see `ObsOptions::from_args_and_env`), which win over
//! the `AFTER_*` variables. With no explicit outdir (and no metrics, trace or
//! Prometheus path from a flag or variable) the files go to a process-unique
//! temp directory and are removed after validation — a smoke run leaves
//! nothing behind. An explicit outdir or path keeps its files.

use std::path::PathBuf;
use std::process::exit;

use xr_datasets::{Dataset, DatasetKind, ScenarioConfig};
use xr_eval::runner::{run_comparison, ComparisonConfig};
use xr_obs::{Json, ObsOptions, ObsSession};

fn fail(msg: &str) -> ! {
    eprintln!("obs_smoke FAIL: {msg}");
    exit(1);
}

fn load_json(path: &PathBuf) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
    Json::parse(&text).unwrap_or_else(|e| fail(&format!("{} is not valid JSON: {e}", path.display())))
}

fn check_metrics(path: &PathBuf) {
    let json = load_json(path);
    for section in ["counters", "gauges", "histograms"] {
        if json.get(section).is_none() {
            fail(&format!("{} missing top-level key {section:?}", path.display()));
        }
    }
    let histograms = json.get("histograms").unwrap();
    let Json::Obj(entries) = histograms else {
        fail(&format!("{}: \"histograms\" is not an object", path.display()));
    };
    if entries.is_empty() {
        fail(&format!("{}: no histograms recorded by the comparison run", path.display()));
    }
    for (name, hist) in entries {
        for key in ["count", "sum", "mean", "min", "max", "p50", "p95", "p99"] {
            if hist.get(key).and_then(Json::as_f64).is_none() {
                fail(&format!("{}: histogram {name:?} missing numeric key {key:?}", path.display()));
            }
        }
    }
    // the comparison runner must have produced its own telemetry
    for required in ["xr_eval.comparison", "xr_eval.run_method", "xr_tensor.csr.spmm.ms"] {
        if histograms.get(required).is_none() {
            fail(&format!("{}: expected histogram {required:?} not present", path.display()));
        }
    }
    if json.get("counters").unwrap().get("events.xr_eval.par.item_done").is_none() {
        fail(&format!("{}: expected counter \"events.xr_eval.par.item_done\"", path.display()));
    }
    // self-describing run metadata (PR 7): when/where/how the numbers were made
    let meta = json
        .get("meta")
        .unwrap_or_else(|| fail(&format!("{} missing top-level key \"meta\"", path.display())));
    for key in ["unix_time_s", "wall_clock_utc", "threads"] {
        if meta.get(key).is_none() {
            fail(&format!("{}: \"meta\" missing key {key:?}", path.display()));
        }
    }
    // windowed time-series export with the runner's per-step latency series
    let timeseries = json
        .get("timeseries")
        .unwrap_or_else(|| fail(&format!("{} missing top-level key \"timeseries\"", path.display())));
    let series = timeseries
        .get("series")
        .unwrap_or_else(|| fail(&format!("{}: \"timeseries\" missing \"series\"", path.display())));
    let Json::Obj(series_entries) = series else {
        fail(&format!("{}: \"timeseries.series\" is not an object", path.display()));
    };
    if !series_entries.iter().any(|(name, _)| name.starts_with("xr_eval.step.ms")) {
        fail(&format!("{}: no \"xr_eval.step.ms\" windowed series", path.display()));
    }
    eprintln!(
        "obs_smoke: metrics OK ({} histograms, {} windowed series)",
        entries.len(),
        series_entries.len()
    );
}

fn check_prometheus(path: &PathBuf) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
    if !text.contains("# TYPE ") {
        fail(&format!("{}: no \"# TYPE\" lines in Prometheus export", path.display()));
    }
    for required in ["xr_eval_comparison", "events_xr_eval_par_item_done"] {
        if !text.contains(required) {
            fail(&format!("{}: expected Prometheus family {required:?}", path.display()));
        }
    }
    eprintln!("obs_smoke: prometheus OK ({} lines)", text.lines().count());
}

fn check_trace(path: &PathBuf) {
    let json = load_json(path);
    let events = json
        .get("traceEvents")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| fail(&format!("{}: missing \"traceEvents\" array", path.display())));
    if events.is_empty() {
        fail(&format!("{}: traceEvents is empty", path.display()));
    }
    let mut saw_comparison = false;
    for ev in events {
        for key in ["name", "ph", "ts", "pid", "tid"] {
            if ev.get(key).is_none() {
                fail(&format!("{}: trace event missing key {key:?}", path.display()));
            }
        }
        if ev.get("name").and_then(Json::as_str) == Some("xr_eval.comparison") {
            saw_comparison = true;
        }
    }
    if !saw_comparison {
        fail(&format!("{}: no \"xr_eval.comparison\" span in trace", path.display()));
    }
    eprintln!("obs_smoke: trace OK ({} events)", events.len());
}

/// Splits the command line into the output directory (the first argument
/// not starting with `--`) and the flags (every argument that does).
fn split_args(args: &[String]) -> (Option<PathBuf>, Vec<&str>) {
    let outdir = args.iter().find(|a| !a.starts_with("--")).map(PathBuf::from);
    let flags = args.iter().filter(|a| a.starts_with("--")).map(String::as_str).collect();
    (outdir, flags)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (explicit_outdir, flags) = split_args(&args);
    // no explicit outdir → a process-unique tempdir, removed after validation
    let scratch = explicit_outdir.is_none();
    let outdir = explicit_outdir
        .unwrap_or_else(|| std::env::temp_dir().join(format!("obs_smoke-{}", std::process::id())));
    std::fs::create_dir_all(&outdir)
        .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", outdir.display())));
    // honor AFTER_METRICS / AFTER_TRACE (as CI sets them) and the flags;
    // otherwise default every sink into outdir — this binary always runs
    // fully sinked
    let env_opts = ObsOptions::from_args_and_env(flags);
    let metrics_path = env_opts.metrics_path.unwrap_or_else(|| outdir.join("obs_smoke_metrics.json"));
    let trace_path = env_opts.trace_path.unwrap_or_else(|| outdir.join("obs_smoke_trace.json"));
    let prom_path = env_opts.prom_path.unwrap_or_else(|| outdir.join("obs_smoke_metrics.prom"));

    let mut session = ObsSession::start(ObsOptions {
        trace_path: Some(trace_path.clone()),
        metrics_path: Some(metrics_path.clone()),
        prom_path: Some(prom_path.clone()),
        slo_budget_ms: env_opts.slo_budget_ms,
        flight_dump_path: env_opts.flight_dump_path,
    });

    let dataset = Dataset::generate(DatasetKind::Hubs, 1);
    let cfg = ComparisonConfig {
        scenario: ScenarioConfig { n_participants: 30, time_steps: 15, seed: 5, ..ScenarioConfig::default() },
        n_targets: 2,
        train_epochs: 5,
        include_comurnet: false,
        workers: xr_obs::threads_from_env(),
        ..ComparisonConfig::paper_defaults(ScenarioConfig::default())
    };
    let cmp = run_comparison(&dataset, &cfg);
    if cmp.results.is_empty() {
        fail("comparison produced no results");
    }
    session.finish();

    check_metrics(&metrics_path);
    check_trace(&trace_path);
    check_prometheus(&prom_path);
    if scratch {
        // only the tempdir this run created; env-overridden paths outside it
        // survive (they were asked for explicitly)
        if let Err(e) = std::fs::remove_dir_all(&outdir) {
            eprintln!("obs_smoke: warning: could not clean up {}: {e}", outdir.display());
        }
    }
    println!("obs_smoke PASS");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_first_plain_argument_is_the_outdir_and_flags_are_options() {
        let a = args(&["--slo-budget-ms=0.001", "/tmp/obs", "--metrics=m.json"]);
        let (outdir, flags) = split_args(&a);
        assert_eq!(outdir, Some(PathBuf::from("/tmp/obs")));
        assert_eq!(flags, ["--slo-budget-ms=0.001", "--metrics=m.json"]);
        let opts = ObsOptions::from_args_and_env(flags);
        assert_eq!(opts.slo_budget_ms, Some(0.001));
        assert_eq!(opts.metrics_path, Some(PathBuf::from("m.json")));
    }

    #[test]
    fn flags_alone_leave_the_outdir_to_the_tempdir_default() {
        let a = args(&["--slo-budget-ms=0.001"]);
        let (outdir, flags) = split_args(&a);
        assert_eq!(outdir, None, "a flag is never taken for the output directory");
        assert_eq!(flags, ["--slo-budget-ms=0.001"]);
        assert_eq!(split_args(&args(&["out", "other"])).0, Some(PathBuf::from("out")));
        assert_eq!(split_args(&[]).0, None);
    }
}
