//! Regenerates Table II: POSHGNN vs. baselines on the Timik-like dataset
//! (N = 200, T = 100, β = 0.5, 50% VR, 10 m room).
//!
//! Usage: `cargo run --release -p xr-eval --bin table2`

use xr_datasets::{Dataset, DatasetKind};
use xr_eval::report::emit;
use xr_eval::{run_comparison, ComparisonConfig};

fn main() {
    let _obs = xr_obs::init_cli_env();
    let dataset = Dataset::generate(DatasetKind::Timik, 2);
    let cfg = ComparisonConfig {
        workers: xr_obs::threads_from_env(),
        ..ComparisonConfig::paper_defaults(dataset.default_scenario_config(102))
    };
    let cmp = run_comparison(&dataset, &cfg);
    let mut text = cmp.render_table("Table II: results on the Timik-like dataset");
    text.push_str("\np-values (Welch) of POSHGNN vs baselines on per-target AFTER utility:\n");
    for (name, p) in cmp.p_values_vs_first() {
        text.push_str(&format!("  vs {name:<10} p = {p:.4}\n"));
    }
    emit("table2.txt", &text);
    emit("table2.csv", &cmp.to_csv());
}
