//! Golden replay: a seeded end-to-end run (dataset → ORCA → train →
//! recommend → evaluate) snapshotted byte-for-byte against a checked-in
//! golden file. Regenerate with `UPDATE_GOLDEN=1 cargo test -p xr_check`.

use poshgnn::PoshGnnConfig;
use xr_baselines::RandomRecommender;
use xr_check::golden::{assert_matches_golden, replay, replay_with, with_env_vars, ReplayConfig};
use xr_datasets::{Dataset, DatasetKind, ScenarioConfig};
use xr_eval::{build_contexts, run_method, ComparisonConfig};
use xr_obs::ObsCtx;
use xr_serve::ServerConfig;
use xr_session::{SceneConfig, SceneEngine};

#[test]
fn small_replay_matches_the_checked_in_golden_file() {
    let snapshot = replay(&ReplayConfig::small());
    assert_matches_golden("replay_small.txt", &snapshot);
}

#[test]
fn replay_is_byte_identical_at_one_and_eight_workers() {
    let serial = replay(&ReplayConfig { workers: 1, ..ReplayConfig::small() });
    let parallel = replay(&ReplayConfig { workers: 8, ..ReplayConfig::small() });
    assert_eq!(serial, parallel, "replay diverges between 1 and 8 workers");
    assert_matches_golden("replay_small.txt", &parallel);
}

#[test]
fn every_explicit_reference_path_reproduces_the_golden_file() {
    // The golden file predates every optimization layer and must stay
    // untouched: the episode MIA cache and pooled tape (vs. fresh per-step
    // MIA and per-episode tapes) and uncapped shortlists (vs. a K = n−1 cap)
    // each have to replay it byte for byte.
    let small = ReplayConfig::small();
    let n = small.scenario.n_participants;
    let fresh = ReplayConfig {
        model: PoshGnnConfig { fresh_mia: true, fresh_tape: true, ..small.model },
        ..small.clone()
    };
    let references = [
        ("fresh_mia + fresh_tape", replay(&fresh)),
        ("set_prune_k(n - 1)", replay_with(&small, |e| e.set_prune_k(n - 1))),
    ];
    let default = replay(&small);
    for (label, snapshot) in &references {
        assert_eq!(snapshot, &default, "replay under {label} diverges from the default replay");
    }
    assert_matches_golden("replay_small.txt", &default);
}

#[test]
fn oracle_environment_variables_no_longer_select_a_path() {
    // Retired switches: the production paths read none of these, so setting
    // every one to its former oracle value must change nothing. Worker
    // counts and step budgets are values too: binaries parse the env, the
    // library defaults never do.
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = (available + 1).to_string();
    let oracle_env = [
        ("AFTER_THREADS", threads.as_str()),
        ("AFTER_STREAMING", "0"),
        ("AFTER_INCREMENTAL", "0"),
        ("AFTER_PRUNE_K", "7"),
        ("AFTER_FRESH_MIA", "1"),
        ("AFTER_FRESH_TAPE", "1"),
        ("AFTER_SLO_BUDGET_MS", "0.001"),
    ];
    let snapshot = with_env_vars(&oracle_env, || {
        let scene = SceneConfig { body_radius: 0.2, mr_mask: vec![false; 4], room_diagonal: 1.0 };
        let engine = SceneEngine::new(4, scene, &[0]);
        assert_eq!(engine.prune_k(), 0, "AFTER_PRUNE_K capped the shortlists");
        assert!(ServerConfig::default().slo.is_none(), "AFTER_SLO_BUDGET_MS set the server budget");
        assert_eq!(ServerConfig::default().workers, available, "AFTER_THREADS set the server pool");
        let comparison = ComparisonConfig::paper_defaults(ScenarioConfig::default());
        assert_eq!(comparison.workers, available, "AFTER_THREADS set the comparison pool");
        assert_no_step_budget_tracking();
        let cfg = PoshGnnConfig::default();
        assert!(!cfg.fresh_mia, "AFTER_FRESH_MIA selected per-step MIA");
        assert!(!cfg.fresh_tape, "AFTER_FRESH_TAPE selected fresh tapes");
        replay(&ReplayConfig::small())
    });
    assert_matches_golden("replay_small.txt", &snapshot);
}

/// Runs a method under a metrics context that carries no step budget and
/// asserts that the eval runner recorded no `slo.xr_eval.step.*` metric.
fn assert_no_step_budget_tracking() {
    let dataset = Dataset::generate(DatasetKind::Hubs, 1);
    let scenario = dataset.sample_scenario(&ScenarioConfig {
        n_participants: 8,
        time_steps: 4,
        seed: 3,
        ..ScenarioConfig::default()
    });
    let contexts = build_contexts(&scenario, &[0], 0.5);
    let ctx = ObsCtx::new(true, false);
    {
        let _guard = ctx.install();
        run_method(&mut RandomRecommender::new(3, 9), &contexts);
    }
    let snap = ctx.registry.snapshot();
    let recorded: Vec<String> = snap
        .counters
        .iter()
        .map(|(k, _)| k.display())
        .chain(snap.gauges.iter().map(|(k, _)| k.display()))
        .chain(snap.histograms.iter().map(|(k, _)| k.display()))
        .chain(ctx.series.snapshot().series.iter().map(|s| s.key.display()))
        .collect();
    assert!(recorded.iter().any(|name| name.starts_with("xr_eval.step.ms")), "the run recorded no steps");
    let tracked: Vec<&String> =
        recorded.iter().filter(|name| name.starts_with("slo.xr_eval.step.")).collect();
    assert!(tracked.is_empty(), "AFTER_SLO_BUDGET_MS armed the eval step tracker: {tracked:?}");
}
