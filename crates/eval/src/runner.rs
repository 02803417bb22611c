//! Experiment orchestration: trains the learned methods, times every
//! recommender per step, evaluates AFTER utilities, and renders the paper's
//! result tables.

use std::time::Instant;

use poshgnn::recommender::AfterRecommender;
use poshgnn::{
    evaluate_sequence, PoshGnn, PoshGnnConfig, PoshVariant, StepView, TargetContext, UtilityBreakdown,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use xr_baselines::{
    ComurNetConfig, ComurNetRecommender, GraFrankConfig, GraFrankRecommender, MvAgcRecommender,
    NearestRecommender, RandomRecommender, RnnConfig, RnnKind, RnnRecommender,
};
use xr_datasets::{Dataset, Scenario, ScenarioConfig};

use crate::stats::welch_t_test;

/// Renders every surrounding user — the "Original" condition of the user
/// study (no adaptive display at all).
pub struct RenderAllRecommender;

impl AfterRecommender for RenderAllRecommender {
    fn name(&self) -> String {
        "Original".to_string()
    }

    fn begin_episode(&mut self, _view: &StepView<'_>) {}

    fn recommend_step(&mut self, view: &StepView<'_>) -> Vec<bool> {
        (0..view.n()).map(|w| w != view.target()).collect()
    }
}

/// Wraps a recommender with an overridden delivery latency — used by the
/// `comurnet_latency` experiment to study how staleness degrades a per-step
/// combinatorial optimizer (the paper's practicality argument, swept).
pub struct DelayedRecommender<R> {
    inner: R,
    latency: usize,
}

impl<R: AfterRecommender> DelayedRecommender<R> {
    /// Wraps `inner`, forcing its decisions to land `latency` steps late.
    pub fn new(inner: R, latency: usize) -> Self {
        DelayedRecommender { inner, latency }
    }
}

impl<R: AfterRecommender> AfterRecommender for DelayedRecommender<R> {
    fn name(&self) -> String {
        format!("{} (lag {})", self.inner.name(), self.latency)
    }

    fn begin_episode(&mut self, view: &StepView<'_>) {
        self.inner.begin_episode(view);
    }

    fn recommend_step(&mut self, view: &StepView<'_>) -> Vec<bool> {
        self.inner.recommend_step(view)
    }

    fn latency_steps(&self) -> usize {
        self.latency
    }
}

/// Evaluation outcome of one method over a set of target users.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Method display name.
    pub name: String,
    /// Metrics averaged over targets.
    pub mean: UtilityBreakdown,
    /// Per-target metrics (for significance tests).
    pub per_target: Vec<UtilityBreakdown>,
    /// Mean wall-clock milliseconds per recommendation step.
    pub ms_per_step: f64,
}

/// Runs one recommender over every target context, timing each step.
///
/// Methods with non-zero [`AfterRecommender::latency_steps`] deliver stale
/// decisions: the decision computed for step `t` is *applied* at
/// `t + latency`, and nothing is displayed before the first delivery — the
/// paper's practicality penalty (Fig. 2b) made concrete.
///
/// When the installed [`xr_obs::ObsCtx`] carries a step budget
/// ([`xr_obs::ObsCtx::slo_budget_ms`]), every step is judged against it
/// under the `slo.xr_eval.step.*` metrics.
pub fn run_method(rec: &mut dyn AfterRecommender, contexts: &[TargetContext]) -> MethodResult {
    let name = rec.name();
    let _span = xr_obs::span!("xr_eval.run_method", method = name, targets = contexts.len());
    let cell_timer = xr_obs::start_timer();
    let mut per_target = Vec::with_capacity(contexts.len());
    let mut total_ms = 0.0;
    let mut total_steps = 0usize;
    let latency = rec.latency_steps();
    // per-step deadline accounting + windowed latency series, when the
    // installed context carries a budget
    let mut slo = xr_obs::current_ctx().and_then(|ctx| ctx.slo_budget_ms).map(|budget_ms| {
        xr_obs::SloTracker::new("xr_eval.step", xr_obs::SloConfig::new(budget_ms), &[("method", &name)])
    });
    for ctx in contexts {
        // the driver owns the full context; the method only ever sees the
        // causal per-tick views
        rec.begin_episode(&StepView::new(ctx, 0));
        let mut computed = Vec::with_capacity(ctx.t_max() + 1);
        for t in 0..=ctx.t_max() {
            let view = StepView::new(ctx, t);
            let start = Instant::now();
            let decision = rec.recommend_step(&view);
            let step_ms = start.elapsed().as_secs_f64() * 1e3;
            total_ms += step_ms;
            if let Some(slo) = &mut slo {
                // windows count recommend steps across episodes: a stream of
                // decisions is the serving unit, not one target's episode
                slo.record(total_steps as u64, step_ms);
            }
            // rolling per-method latency series, 8 steps per window
            xr_obs::series_observe(
                "xr_eval.step.ms",
                &[("method", name.as_str())],
                total_steps as u64 / 8,
                step_ms,
            );
            total_steps += 1;
            computed.push(decision);
        }
        let recs: Vec<Vec<bool>> = (0..=ctx.t_max())
            .map(|t| if t >= latency { computed[t - latency].clone() } else { vec![false; ctx.n] })
            .collect();
        per_target.push(evaluate_sequence(ctx, &recs));
    }
    let mean = UtilityBreakdown::mean(&per_target);
    let ms_per_step = total_ms / total_steps.max(1) as f64;
    // per-method telemetry: cell wall time as a histogram (cells repeat
    // across scenarios/seeds), objective values as gauges
    let labels = [("method", name.as_str())];
    xr_obs::observe_since("xr_eval.method.cell.ms", &labels, cell_timer);
    xr_obs::observe("xr_eval.method.step.ms", &labels, ms_per_step);
    xr_obs::gauge_set("xr_eval.method.after_utility", &labels, mean.after_utility);
    xr_obs::gauge_set("xr_eval.method.preference", &labels, mean.preference);
    xr_obs::gauge_set("xr_eval.method.social_presence", &labels, mean.social_presence);
    xr_obs::gauge_set("xr_eval.method.view_occlusion_rate", &labels, mean.view_occlusion_rate);
    MethodResult { name, mean, per_target, ms_per_step }
}

/// Configuration of a full method comparison (Tables II–IV).
#[derive(Debug, Clone, Copy)]
pub struct ComparisonConfig {
    /// Test-scenario parameters (dataset defaults unless overridden).
    pub scenario: ScenarioConfig,
    /// Seed of the disjoint training scenario (the 80/20 split stand-in).
    pub train_seed: u64,
    /// Social-presence weight `β`.
    pub beta: f64,
    /// Occlusion penalty weight `α` for the POSHGNN-loss-trained methods.
    pub alpha: f64,
    /// Number of evaluated target users.
    pub n_targets: usize,
    /// Training epochs for POSHGNN / TGCN / DCRNN.
    pub train_epochs: usize,
    /// Top-k budget for Random / Nearest / GraFrank.
    pub top_k: usize,
    /// Whether to include the (slow) COMURNet baseline.
    pub include_comurnet: bool,
    /// Worker count for the parallel method cells; the tables are identical
    /// at any value.
    pub workers: usize,
}

impl ComparisonConfig {
    /// Paper-style defaults on top of a dataset's scenario config, on
    /// [`std::thread::available_parallelism`] workers.
    pub fn paper_defaults(scenario: ScenarioConfig) -> Self {
        ComparisonConfig {
            scenario,
            train_seed: scenario.seed ^ 0x5EED,
            beta: 0.5,
            alpha: poshgnn::LossParams::default().alpha,
            n_targets: 4,
            train_epochs: 60,
            top_k: 10,
            include_comurnet: true,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// A completed comparison on one dataset.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Dataset display name.
    pub dataset: String,
    /// One result per method, POSHGNN first.
    pub results: Vec<MethodResult>,
}

/// Deterministically samples target users for a scenario.
pub fn pick_targets(scenario: &Scenario, n_targets: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..scenario.n()).collect();
    idx.shuffle(&mut rng);
    idx.truncate(n_targets.min(scenario.n()));
    idx
}

/// Builds target contexts for a scenario through one shared
/// [`xr_session::SceneEngine`] pass: the scene (distances, occlusion,
/// candidate masks) is maintained once per tick for all targets instead of
/// once per target.
pub fn build_contexts(scenario: &Scenario, targets: &[usize], beta: f64) -> Vec<TargetContext> {
    let requests: Vec<(usize, f64)> = targets.iter().map(|&t| (t, beta)).collect();
    TargetContext::batch(scenario, &requests)
}

/// The test/train scenarios and target contexts shared by every method cell
/// of a comparison. Built once, then borrowed read-only by all workers.
struct ComparisonInputs {
    test_scenario: Scenario,
    test_ctx: Vec<TargetContext>,
    train_ctx: Vec<TargetContext>,
}

impl ComparisonInputs {
    fn build(dataset: &Dataset, cfg: &ComparisonConfig) -> Self {
        let test_scenario = dataset.sample_scenario(&cfg.scenario);
        let train_scenario =
            dataset.sample_scenario(&ScenarioConfig { seed: cfg.train_seed, ..cfg.scenario });
        let targets = pick_targets(&test_scenario, cfg.n_targets, cfg.scenario.seed ^ 0x7A46);
        let train_targets = pick_targets(&train_scenario, cfg.n_targets, cfg.train_seed ^ 0x7A46);
        let test_ctx = build_contexts(&test_scenario, &targets, cfg.beta);
        let train_ctx = build_contexts(&train_scenario, &train_targets, cfg.beta);
        ComparisonInputs { test_scenario, test_ctx, train_ctx }
    }
}

/// Trains (where applicable) and evaluates comparison method `method`
/// (0 = POSHGNN … 7 = COMURNet). One independent parallel cell: all
/// randomness comes from fixed per-method seeds, never a shared RNG.
fn run_comparison_cell(method: usize, cfg: &ComparisonConfig, inp: &ComparisonInputs) -> MethodResult {
    let loss = poshgnn::LossParams { beta: cfg.beta, alpha: cfg.alpha };
    match method {
        0 => {
            let mut posh = PoshGnn::new(PoshGnnConfig { loss, ..Default::default() });
            posh.train(&inp.train_ctx, cfg.train_epochs);
            run_method(&mut posh, &inp.test_ctx)
        }
        1 => run_method(&mut RandomRecommender::new(cfg.top_k, 1234), &inp.test_ctx),
        2 => run_method(&mut NearestRecommender::new(cfg.top_k), &inp.test_ctx),
        3 => {
            // static learned baseline fit on the scenario's social structure
            let k_clusters = (inp.test_scenario.n() / 10).max(2);
            let mut mvagc = MvAgcRecommender::fit(&inp.test_scenario, k_clusters, 2, 77);
            run_method(&mut mvagc, &inp.test_ctx)
        }
        4 => {
            let mut grafrank = GraFrankRecommender::fit(
                &inp.test_scenario,
                GraFrankConfig { top_k: cfg.top_k, ..Default::default() },
            );
            run_method(&mut grafrank, &inp.test_ctx)
        }
        5 | 6 => {
            // recurrent baselines, trained with the POSHGNN loss
            let kind = if method == 5 { RnnKind::Dcrnn } else { RnnKind::Tgcn };
            let mut rnn = RnnRecommender::new(kind, RnnConfig { loss, ..Default::default() });
            rnn.train(&inp.train_ctx, cfg.train_epochs);
            run_method(&mut rnn, &inp.test_ctx)
        }
        7 => run_method(&mut ComurNetRecommender::new(ComurNetConfig::default()), &inp.test_ctx),
        _ => unreachable!("comparison has at most 8 methods"),
    }
}

/// Runs the full eight-method comparison on one dataset (the engine behind
/// Tables II, III, and IV).
///
/// Method cells run in parallel on [`ComparisonConfig::workers`] scoped
/// workers. Every cell is seeded independently, so the resulting table is
/// identical at any worker count — only the wall-clock `ms_per_step` column
/// varies run to run.
pub fn run_comparison(dataset: &Dataset, cfg: &ComparisonConfig) -> Comparison {
    let _span = xr_obs::span!("xr_eval.comparison", dataset = dataset.kind.name());
    let inputs = {
        let _build = xr_obs::span!("xr_eval.comparison.build_inputs");
        ComparisonInputs::build(dataset, cfg)
    };
    let n_methods = if cfg.include_comurnet { 8 } else { 7 };
    let results = crate::par::par_map_indexed(cfg.workers, n_methods, |m| {
        let _cell = xr_obs::span!("xr_eval.comparison.cell", method = m);
        run_comparison_cell(m, cfg, &inputs)
    });
    Comparison { dataset: dataset.kind.name().to_string(), results }
}

/// Runs the Table V ablation: Full vs PDR+MIA vs PDR-only POSHGNN.
///
/// The three variants are independent cells and run in parallel, like
/// [`run_comparison`].
pub fn run_ablation(dataset: &Dataset, cfg: &ComparisonConfig) -> Comparison {
    let _span = xr_obs::span!("xr_eval.ablation", dataset = dataset.kind.name());
    let inputs = ComparisonInputs::build(dataset, cfg);
    let variants = [PoshVariant::Full, PoshVariant::PdrWithMia, PoshVariant::PdrOnly];
    let results = crate::par::par_map_indexed(cfg.workers, variants.len(), |i| {
        let variant = variants[i];
        let _cell = xr_obs::span!("xr_eval.ablation.cell", variant = variant.name());
        let mut model = PoshGnn::new(PoshGnnConfig {
            variant,
            loss: poshgnn::LossParams { beta: cfg.beta, alpha: cfg.alpha },
            ..Default::default()
        });
        model.train(&inputs.train_ctx, cfg.train_epochs);
        let mut r = run_method(&mut model, &inputs.test_ctx);
        r.name = variant.name().to_string();
        r
    });
    Comparison { dataset: dataset.kind.name().to_string(), results }
}

impl Comparison {
    /// The result row for a method name, if present.
    pub fn get(&self, name: &str) -> Option<&MethodResult> {
        self.results.iter().find(|r| r.name == name)
    }

    /// Welch-t p-values of the first method (POSHGNN) against each baseline
    /// on per-target AFTER utility.
    pub fn p_values_vs_first(&self) -> Vec<(String, f64)> {
        let first = &self.results[0];
        let xs: Vec<f64> = first.per_target.iter().map(|b| b.after_utility).collect();
        self.results[1..]
            .iter()
            .map(|r| {
                let ys: Vec<f64> = r.per_target.iter().map(|b| b.after_utility).collect();
                (r.name.clone(), welch_t_test(&xs, &ys).p_value)
            })
            .collect()
    }

    /// Renders the paper-style metric table as text.
    #[allow(clippy::type_complexity)] // local row-formatter table
    pub fn render_table(&self, title: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("{title}\n"));
        out.push_str(&format!("{:<22}", "Metrics"));
        for r in &self.results {
            out.push_str(&format!("{:>12}", truncate(&r.name, 12)));
        }
        out.push('\n');
        let rows: [(&str, Box<dyn Fn(&MethodResult) -> String>); 5] = [
            ("AFTER Utility ^", Box::new(|r| format!("{:.1}", r.mean.after_utility))),
            ("Preference ^", Box::new(|r| format!("{:.1}", r.mean.preference))),
            ("Social Presence ^", Box::new(|r| format!("{:.1}", r.mean.social_presence))),
            ("View Occlusion v", Box::new(|r| format!("{:.1}%", 100.0 * r.mean.view_occlusion_rate))),
            ("Running Time (ms) v", Box::new(|r| format!("{:.3}", r.ms_per_step))),
        ];
        for (label, f) in rows {
            out.push_str(&format!("{label:<22}"));
            for r in &self.results {
                out.push_str(&format!("{:>12}", f(r)));
            }
            out.push('\n');
        }
        out
    }

    /// CSV rendering (one row per method).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "dataset,method,after_utility,preference,social_presence,view_occlusion_rate,ms_per_step\n",
        );
        for r in &self.results {
            out.push_str(&format!(
                "{},{},{:.4},{:.4},{:.4},{:.4},{:.4}\n",
                self.dataset,
                r.name,
                r.mean.after_utility,
                r.mean.preference,
                r.mean.social_presence,
                r.mean.view_occlusion_rate,
                r.ms_per_step
            ));
        }
        out
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        s.to_string()
    } else {
        s.chars().take(max - 1).collect::<String>() + "…"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xr_datasets::DatasetKind;

    fn tiny_cfg(seed: u64) -> ComparisonConfig {
        ComparisonConfig {
            scenario: ScenarioConfig {
                n_participants: 12,
                vr_fraction: 0.5,
                time_steps: 6,
                room_side: 6.0,
                body_radius: 0.15,
                seed,
            },
            train_seed: seed + 1,
            beta: 0.5,
            alpha: 0.75,
            n_targets: 2,
            train_epochs: 4,
            top_k: 4,
            include_comurnet: false,
            workers: 1,
        }
    }

    #[test]
    fn run_method_times_and_evaluates() {
        let dataset = Dataset::generate(DatasetKind::Hubs, 1);
        let scenario = dataset.sample_scenario(&tiny_cfg(2).scenario);
        let ctxs = build_contexts(&scenario, &[0, 3], 0.5);
        let result = run_method(&mut RandomRecommender::new(3, 9), &ctxs);
        assert_eq!(result.name, "Random");
        assert_eq!(result.per_target.len(), 2);
        assert!(result.ms_per_step >= 0.0);
        assert!(result.mean.mean_recommended > 0.0);
    }

    #[test]
    fn comparison_produces_all_methods() {
        let dataset = Dataset::generate(DatasetKind::Hubs, 1);
        let cmp = run_comparison(&dataset, &tiny_cfg(3));
        let names: Vec<&str> = cmp.results.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["POSHGNN", "Random", "Nearest", "MvAGC", "GraFrank", "DCRNN", "TGCN"]);
        // every method produced finite metrics
        for r in &cmp.results {
            assert!(r.mean.after_utility.is_finite(), "{} broke", r.name);
        }
        let table = cmp.render_table("test table");
        assert!(table.contains("POSHGNN") && table.contains("View Occlusion"));
        let csv = cmp.to_csv();
        assert_eq!(csv.lines().count(), 1 + cmp.results.len());
    }

    #[test]
    fn ablation_produces_three_variants() {
        let dataset = Dataset::generate(DatasetKind::Hubs, 1);
        let cmp = run_ablation(&dataset, &tiny_cfg(4));
        let names: Vec<&str> = cmp.results.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["Full", "PDR w/ MIA", "Only PDR"]);
    }

    #[test]
    fn comparison_rows_identical_at_any_worker_count() {
        let dataset = Dataset::generate(DatasetKind::Hubs, 1);
        // 4 workers regardless of host core count, then strictly sequential
        let auto = run_comparison(&dataset, &ComparisonConfig { workers: 4, ..tiny_cfg(8) });
        let single = run_comparison(&dataset, &ComparisonConfig { workers: 1, ..tiny_cfg(8) });

        assert_eq!(auto.results.len(), single.results.len());
        for (a, s) in auto.results.iter().zip(&single.results) {
            // every table field must match bit-for-bit except the wall-clock
            // ms_per_step column
            assert_eq!(a.name, s.name);
            assert_eq!(a.mean.after_utility.to_bits(), s.mean.after_utility.to_bits(), "{}", a.name);
            assert_eq!(a.mean.preference.to_bits(), s.mean.preference.to_bits(), "{}", a.name);
            assert_eq!(a.mean.social_presence.to_bits(), s.mean.social_presence.to_bits(), "{}", a.name);
            assert_eq!(
                a.mean.view_occlusion_rate.to_bits(),
                s.mean.view_occlusion_rate.to_bits(),
                "{}",
                a.name
            );
            assert_eq!(a.per_target.len(), s.per_target.len());
            for (pa, ps) in a.per_target.iter().zip(&s.per_target) {
                assert_eq!(pa.after_utility.to_bits(), ps.after_utility.to_bits(), "{}", a.name);
            }
        }
    }

    #[test]
    fn metrics_snapshot_identical_at_any_worker_count() {
        let dataset = Dataset::generate(DatasetKind::Hubs, 1);
        let snapshot_with_workers = |workers: usize| {
            let ctx = xr_obs::ObsCtx::new(true, false);
            {
                let _guard = ctx.install();
                run_comparison(&dataset, &ComparisonConfig { workers, ..tiny_cfg(12) });
            }
            ctx.registry.snapshot()
        };
        let single = snapshot_with_workers(1);
        let multi = snapshot_with_workers(4);
        // event/work counters merge exactly across workers
        assert_eq!(single.counters, multi.counters);
        // gauges hold deterministic objective values, so they match bit-for-bit
        assert_eq!(single.gauges.len(), multi.gauges.len());
        for ((ka, va), (kb, vb)) in single.gauges.iter().zip(&multi.gauges) {
            assert_eq!(ka, kb);
            assert_eq!(va.to_bits(), vb.to_bits(), "{}", ka.display());
        }
        // histogram *values* are wall-clock timings, but the set of series and
        // the observation counts are workload-determined
        assert_eq!(single.histograms.len(), multi.histograms.len());
        for ((ka, ha), (kb, hb)) in single.histograms.iter().zip(&multi.histograms) {
            assert_eq!(ka, kb);
            assert_eq!(ha.count, hb.count, "{}", ka.display());
        }
    }

    #[test]
    fn windowed_series_identical_at_one_vs_eight_workers() {
        // Every cell records values derived only from its index, so the merged
        // windowed snapshot must be *bit-identical* regardless of how the work
        // interleaves across workers. Gauges within a window all carry the same
        // value (last-write-wins is then order-free), and highest-window-wins
        // eviction is exercised by spanning more windows than the ring holds.
        let series_with_workers = |workers: usize| {
            let ctx = xr_obs::ObsCtx::new(true, false);
            {
                let _guard = ctx.install();
                crate::par::par_map_indexed(workers, 96, |i| {
                    let window = (i / 8) as u64;
                    xr_obs::series_observe(
                        "det.step.ms",
                        &[("method", if i % 2 == 0 { "even" } else { "odd" })],
                        window,
                        (i * i) as f64 * 0.25,
                    );
                    xr_obs::series_counter_add("det.cells", &[], window, 1);
                    xr_obs::series_gauge_set("det.level", &[], window, window as f64 * 3.5);
                });
            }
            ctx.series.snapshot()
        };
        let single = series_with_workers(1);
        let multi = series_with_workers(8);
        assert!(!single.series.is_empty());
        assert_eq!(single, multi, "windowed merge must not depend on worker count");
        // the counter series saw every cell exactly once across its windows
        let cells = &multi.series("det.cells").expect("counter series present").windows;
        let total: u64 = cells
            .iter()
            .map(|(_, cell)| match cell {
                xr_obs::timeseries::WindowSnapshot::Counter(n) => *n,
                other => panic!("unexpected cell {other:?}"),
            })
            .sum();
        assert_eq!(total, 96);
    }

    #[test]
    fn windowed_series_from_comparison_identical_at_any_worker_count() {
        // End-to-end flavor of the determinism check: the eval runner's own
        // per-step latency series has wall-clock *values*, but the set of
        // series, their windows, and their observation counts are fixed by the
        // workload alone.
        let dataset = Dataset::generate(DatasetKind::Hubs, 1);
        let series_with_workers = |workers: usize| {
            let ctx = xr_obs::ObsCtx::new(true, false);
            {
                let _guard = ctx.install();
                run_comparison(&dataset, &ComparisonConfig { workers, ..tiny_cfg(12) });
            }
            ctx.series.snapshot()
        };
        let single = series_with_workers(1);
        let multi = series_with_workers(8);
        assert!(
            single.series.iter().any(|s| s.key.name == "xr_eval.step.ms"),
            "runner must export its step-latency series"
        );
        assert_eq!(single.series.len(), multi.series.len());
        for (a, b) in single.series.iter().zip(&multi.series) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.windows.len(), b.windows.len(), "{}", a.key.display());
            for ((wa, ca), (wb, cb)) in a.windows.iter().zip(&b.windows) {
                assert_eq!(wa, wb, "{}", a.key.display());
                let count = |v: &xr_obs::timeseries::WindowSnapshot| match v {
                    xr_obs::timeseries::WindowSnapshot::Hist(h) => h.count,
                    xr_obs::timeseries::WindowSnapshot::Counter(n) => *n,
                    xr_obs::timeseries::WindowSnapshot::Gauge(_) => 0,
                };
                assert_eq!(count(ca), count(cb), "{}", a.key.display());
            }
        }
    }

    #[test]
    fn step_budget_rides_on_the_installed_context_into_every_worker() {
        let dataset = Dataset::generate(DatasetKind::Hubs, 1);
        let step_ticks = |budget_ms: Option<f64>| {
            let ctx = xr_obs::ObsCtx::with_slo_budget(true, false, budget_ms);
            {
                let _guard = ctx.install();
                run_comparison(&dataset, &ComparisonConfig { workers: 4, ..tiny_cfg(9) });
            }
            let snap = ctx.registry.snapshot();
            snap.counters
                .iter()
                .filter(|(k, _)| k.name == "slo.xr_eval.step.ticks")
                .map(|&(_, n)| n)
                .collect::<Vec<u64>>()
        };
        // one tick counter per method, each counting that method's steps
        let ticks = step_ticks(Some(1e9));
        assert_eq!(ticks.len(), 7, "every method cell must track its steps");
        assert!(ticks.iter().all(|&n| n > 0));
        assert!(step_ticks(None).is_empty(), "no budget on the context, no step tracking");
    }

    #[test]
    fn p_values_are_probabilities() {
        let dataset = Dataset::generate(DatasetKind::Hubs, 1);
        let cmp = run_comparison(&dataset, &tiny_cfg(5));
        for (name, p) in cmp.p_values_vs_first() {
            assert!((0.0..=1.0).contains(&p), "{name}: p = {p}");
        }
    }

    #[test]
    fn render_all_displays_everyone() {
        let dataset = Dataset::generate(DatasetKind::Hubs, 1);
        let scenario = dataset.sample_scenario(&tiny_cfg(6).scenario);
        let ctx = TargetContext::new(&scenario, 0, 0.5);
        let mut rec = RenderAllRecommender;
        let d = rec.recommend_step(&StepView::new(&ctx, 0));
        assert_eq!(d.iter().filter(|&&b| b).count(), scenario.n() - 1);
    }

    #[test]
    fn pick_targets_is_deterministic_and_distinct() {
        let dataset = Dataset::generate(DatasetKind::Hubs, 1);
        let scenario = dataset.sample_scenario(&tiny_cfg(7).scenario);
        let a = pick_targets(&scenario, 5, 9);
        let b = pick_targets(&scenario, 5, 9);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
    }
}
