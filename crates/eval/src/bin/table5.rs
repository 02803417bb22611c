//! Regenerates Table V: POSHGNN ablation study (Full / PDR w/ MIA / Only
//! PDR) on the Hubs-like dataset.
//!
//! Usage: `cargo run --release -p xr-eval --bin table5`

use xr_datasets::{Dataset, DatasetKind};
use xr_eval::report::emit;
use xr_eval::{run_ablation, ComparisonConfig};

fn main() {
    let _obs = xr_obs::init_cli_env();
    let dataset = Dataset::generate(DatasetKind::Hubs, 4);
    let cfg = ComparisonConfig {
        workers: xr_obs::threads_from_env(),
        ..ComparisonConfig::paper_defaults(dataset.default_scenario_config(105))
    };
    let cmp = run_ablation(&dataset, &cfg);
    let text = cmp.render_table("Table V: ablation study for POSHGNN on the Hubs-like dataset");
    emit("table5.txt", &text);
    emit("table5.csv", &cmp.to_csv());
}
