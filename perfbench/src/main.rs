//! Serving benchmark for the AFTER/POSHGNN stack.
//!
//! ```text
//! perfbench --workload <stadium|conference|fleet> --seed <n> --seconds <s> --trace <0|1>
//! perfbench train-snapshot [--out <path>]
//! ```
//!
//! One process runs one workload. Inputs are generated in-process from the
//! seed, the load is closed-loop, and the amount of work is fixed by
//! `--seconds` (work units per second are constants per workload, so a run
//! never stops on a clock). The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
//! metrics when `--trace 0` and the per-layer metrics when `--trace 1`.
//! The line before it records the run's knobs, commit, CPU and sample
//! counts. See README.md for the metric definitions.

mod conference;
mod env;
mod fleet;
mod run;
mod served;
mod stadium;
mod stats;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use xr_obs::Json;

use run::Run;

/// End-to-end metrics, as declared in BENCHMARK.json.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("frames_per_s", "1/s"),
    ("frame_p50_ms", "ms"),
    ("frame_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("after_utility", "utility"),
];

/// Per-layer metrics, as declared in BENCHMARK.json. A workload that does not
/// use a layer reports 0 for its metrics.
const PER_LAYER: [(&str, &str); 29] = [
    ("session.push_ms_p50", "ms"),
    ("session.push_ms_p99", "ms"),
    ("session.share", "ratio"),
    ("session.shortlists_reused_ratio", "ratio"),
    ("session.movers_per_tick", "count"),
    ("session.viewers_rebuilt_ratio", "ratio"),
    ("session.sweep_pair_tests_per_tick", "count"),
    ("session.sweep_saved_ratio", "ratio"),
    ("serve.pump_ms_p50", "ms"),
    ("serve.pump_ms_p99", "ms"),
    ("serve.pump_self_ms_p50", "ms"),
    ("serve.enqueue_ms_p50", "ms"),
    ("serve.admit_ms_p50", "ms"),
    ("serve.leave_ms_p50", "ms"),
    ("serve.room_tick_ms_p99", "ms"),
    ("serve.worker_busy_share", "ratio"),
    ("serve.coalesced_ratio", "ratio"),
    ("poshgnn.step_ms_p50", "ms"),
    ("poshgnn.step_ms_p99", "ms"),
    ("poshgnn.mia_ms_p50", "ms"),
    ("poshgnn.pdr_ms_p50", "ms"),
    ("poshgnn.lwp_ms_p50", "ms"),
    ("poshgnn.densify_ms", "ms"),
    ("poshgnn.eval_ms", "ms"),
    ("poshgnn.recommended_per_step", "count"),
    ("datasets.frame_gen_ms_p50", "ms"),
    ("datasets.setup_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// What a workload hands back besides the shared [`Run`] measurements.
pub struct Outcome {
    /// The decision-quality guard (see README.md).
    pub after_utility: f64,
    /// Workload-specific per-layer metrics (traced runs).
    pub layers: Vec<(&'static str, f64)>,
    /// Every resolved knob of the workload.
    pub knobs: Json,
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !matches!(args.workload.as_str(), "stadium" | "conference" | "fleet") {
        return Err(format!("--workload must be stadium, conference or fleet, not {:?}", args.workload));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

fn metrics_json(values: &[(&str, f64)], declared: &[(&str, &str)]) -> Json {
    declared.iter().fold(Json::obj(), |doc, &(name, unit)| {
        let value = values.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v);
        doc.set(name, Json::obj().set("value", value).set("unit", unit))
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    // before anything of the program is constructed
    let scrubbed = env::scrub_after_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("the benchmark sits in the repository");

    if argv.first().map(String::as_str) == Some("train-snapshot") {
        let out = match argv.get(1..) {
            Some([flag, path]) if flag == "--out" => Path::new(path).to_path_buf(),
            Some([]) => Path::new(conference::SNAPSHOT_PATH).to_path_buf(),
            _ => {
                eprintln!("usage: perfbench train-snapshot [--out <path>]");
                return ExitCode::from(2);
            }
        };
        return match conference::train_snapshot(&out) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut run = Run::new(args.trace);
    let outcome = match args.workload.as_str() {
        "stadium" => Ok(stadium::run(args.seed, args.seconds, &mut run, started)),
        "fleet" => Ok(fleet::run(args.seed, args.seconds, &mut run, started)),
        _ => conference::run(args.seed, args.seconds, &mut run, started),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let metrics = if args.trace {
        let spans = run.spans();
        let mut values = outcome.layers;
        values.extend([
            ("session.movers_per_tick", mean(&run.movers)),
            ("datasets.frame_gen_ms_p50", stats::median(&run.frame_gen_ms)),
            ("datasets.setup_s", stats::median(&run.datasets_setup_s)),
            ("trace.overhead_pct", run.trace_overhead_pct()),
            ("trace.unattributed_pct", run.unattributed_pct(&spans)),
        ]);
        metrics_json(&values, &PER_LAYER)
    } else {
        metrics_json(
            &[
                ("setup_s", stats::median(&run.setup_s)),
                ("frames_per_s", run.frames_per_s()),
                // means over 1000-frame windows, so a slow phase of the host
                // moves the figure by the share of the run it covers; the p99
                // drops the outer quarters of windows, where stalls land
                ("frame_p50_ms", mean(&stats::per_window(&run.frame_ms, 0.5))),
                ("frame_p99_ms", stats::interquartile_mean(&stats::per_window(&run.frame_ms, 0.99))),
                ("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0)),
                ("after_utility", outcome.after_utility),
            ],
            &END_TO_END,
        )
    };

    let n_frames = run.frame_ms.len();
    let blocks = run.blocks.iter().filter(|b| !b.traced).count();
    let detail = Json::obj()
        .set("workload", args.workload.as_str())
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("trace", args.trace)
        .set("meta", env::metadata(root, &scrubbed, outcome.knobs))
        .set(
            "samples",
            Json::obj()
                .set("setup", run.setup_s.len())
                .set("setup_first_s", run.setup_s.first().copied().unwrap_or(0.0))
                .set("frame_latency", n_frames)
                .set("frame_p99_supported", stats::percentile_supported(n_frames.min(stats::WINDOW), 0.99))
                .set("frame_windows", n_frames / stats::WINDOW)
                .set("throughput_blocks", blocks)
                .set("traced_blocks", run.blocks.len() - blocks),
        )
        .set(
            "block_frames_per_s",
            Json::Arr(run.blocks.iter().map(|b| Json::from((b.frames as f64 / b.secs).round())).collect()),
        )
        .set("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0))
        .set("check_failures", Json::Arr(run.check_failures.iter().map(|s| Json::from(s.as_str())).collect()))
        .set("wall_s", started.elapsed().as_secs_f64());
    println!("{}", detail.compact());
    let result = Json::obj()
        .set("correct", run.failed == 0)
        .set("attempted", run.attempted)
        .set("failed", run.failed)
        .set("metrics", metrics);
    println!("{}", result.compact());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String)> {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Json::as_arr)
            .expect("section present")
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str).expect("name").to_string();
                (name, m.get("unit").and_then(Json::as_str).expect("unit").to_string())
            })
            .collect()
    }

    #[test]
    fn reported_metrics_match_benchmark_json() {
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn arguments_are_validated() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&argv("--workload fleet --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((ok.workload.as_str(), ok.seed, ok.seconds, ok.trace), ("fleet", 7, 3, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload fleet --trace 2")).is_err());
        assert!(parse_args(&argv("--workload fleet --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload fleet --seed")).is_err());
    }
}
