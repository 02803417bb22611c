//! Regenerates Table VI: sensitivity of POSHGNN to the user number `N`
//! (half of them MR participants), on the SMM-like dataset.
//!
//! Usage: `cargo run --release -p xr-eval --bin table6`

use poshgnn::{LossParams, PoshGnn, PoshGnnConfig};
use xr_datasets::{Dataset, DatasetKind, ScenarioConfig};
use xr_eval::par::par_map_indexed;
use xr_eval::report::emit;
use xr_eval::runner::{build_contexts, pick_targets, run_method};

fn main() {
    let _obs = xr_obs::init_cli_env();
    let dataset = Dataset::generate(DatasetKind::Smm, 6);
    let ns = [10usize, 20, 50, 100, 200, 500];
    // Each N-cell is independent and deterministically seeded, so the sweep
    // parallelizes across AFTER_THREADS workers with identical output.
    let workers = xr_obs::threads_from_env();
    let rows: Vec<(usize, xr_eval::MethodResult)> = par_map_indexed(workers, ns.len(), |i| {
        let n = ns[i];
        // T = 50 keeps the N = 500 sweep tractable; the N-trend is unaffected
        let scenario_cfg =
            ScenarioConfig { n_participants: n, time_steps: 50, seed: 106, ..ScenarioConfig::default() };
        let test_scenario = dataset.sample_scenario(&scenario_cfg);
        let train_scenario = dataset.sample_scenario(&ScenarioConfig { seed: 206, ..scenario_cfg });
        let n_targets = if n >= 500 { 2 } else { 3 };
        let test_ctx = build_contexts(&test_scenario, &pick_targets(&test_scenario, n_targets, 7), 0.5);
        let train_ctx = build_contexts(&train_scenario, &pick_targets(&train_scenario, n_targets, 8), 0.5);
        let mut model = PoshGnn::new(PoshGnnConfig { loss: LossParams::default(), ..Default::default() });
        model.train(&train_ctx, if n >= 500 { 30 } else { 50 });
        (n, run_method(&mut model, &test_ctx))
    });

    let mut text = String::from("Table VI: sensitivity test on user number N (half MR)\n");
    text.push_str(&format!("{:<22}", "Metrics"));
    for (n, _) in &rows {
        text.push_str(&format!("{:>10}", format!("N = {n}")));
    }
    text.push('\n');
    #[allow(clippy::type_complexity)] // local row-formatter table
    let metric_rows: [(&str, fn(&xr_eval::MethodResult) -> String); 5] = [
        ("AFTER Utility ^", |r| format!("{:.1}", r.mean.after_utility)),
        ("Preference ^", |r| format!("{:.1}", r.mean.preference)),
        ("Social Presence ^", |r| format!("{:.1}", r.mean.social_presence)),
        ("View Occlusion v", |r| format!("{:.1}%", 100.0 * r.mean.view_occlusion_rate)),
        ("Running Time (ms) v", |r| format!("{:.2}", r.ms_per_step)),
    ];
    for (label, f) in metric_rows {
        text.push_str(&format!("{label:<22}"));
        for (_, r) in &rows {
            text.push_str(&format!("{:>10}", f(r)));
        }
        text.push('\n');
    }
    emit("table6.txt", &text);

    let mut csv =
        String::from("n,after_utility,preference,social_presence,view_occlusion_rate,ms_per_step\n");
    for (n, r) in &rows {
        csv.push_str(&format!(
            "{},{:.4},{:.4},{:.4},{:.4},{:.4}\n",
            n,
            r.mean.after_utility,
            r.mean.preference,
            r.mean.social_presence,
            r.mean.view_occlusion_rate,
            r.ms_per_step
        ));
    }
    emit("table6.csv", &csv);
}
