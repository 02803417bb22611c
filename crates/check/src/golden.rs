//! Golden replay: seeded end-to-end runs snapshotted to checked-in files.
//!
//! [`replay`] drives the whole pipeline — dataset generation, ORCA-simulated
//! scenario sampling, POSHGNN training, per-step recommendation, utility
//! evaluation, and a small method-comparison table computed through the
//! parallel runner — and serializes every numeric output with shortest
//! round-trip [`crate::fmt_f64`] formatting. Because every stage derives its
//! randomness from fixed seeds and every kernel is bit-deterministic, the
//! snapshot is **byte-identical** across runs, optimization levels, and
//! worker counts ([`ReplayConfig::workers`]); wall-clock quantities are
//! deliberately excluded.
//!
//! [`assert_matches_golden`] compares a snapshot against
//! `crates/check/golden/<name>`; run with `UPDATE_GOLDEN=1` to (re)generate
//! the files after an intentional numeric change, and commit the diff. On
//! mismatch the actual snapshot is written to [`crate::artifact_dir`] so CI
//! uploads it next to the minimized counterexamples.

use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

use poshgnn::recommender::{threshold_decision, AfterRecommender};
use poshgnn::{evaluate_sequence, PoshGnn, PoshGnnConfig, StepView, TargetContext, UtilityBreakdown};
use xr_baselines::{NearestRecommender, RandomRecommender};
use xr_datasets::{Dataset, DatasetKind, ScenarioConfig};
use xr_eval::{par_map_indexed, RenderAllRecommender};
use xr_session::SceneEngine;

use crate::fmt_f64;

/// Everything that seeds one golden replay.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Synthetic universe to generate.
    pub dataset: DatasetKind,
    /// Universe seed.
    pub dataset_seed: u64,
    /// Room/scenario sampling parameters.
    pub scenario: ScenarioConfig,
    /// Social-presence weight for every context.
    pub beta: f64,
    /// Target users whose contexts are built (the first one is replayed
    /// step by step).
    pub targets: Vec<usize>,
    /// POSHGNN training epochs.
    pub train_epochs: usize,
    /// Model hyperparameters.
    pub model: PoshGnnConfig,
    /// Worker count for the method table's parallel cells.
    pub workers: usize,
}

impl ReplayConfig {
    /// The small checked-in replay: fast enough for every `cargo test` run,
    /// big enough to traverse every pipeline stage.
    pub fn small() -> Self {
        ReplayConfig {
            dataset: DatasetKind::Hubs,
            dataset_seed: 7,
            scenario: ScenarioConfig {
                n_participants: 16,
                vr_fraction: 0.5,
                time_steps: 8,
                room_side: 6.0,
                body_radius: 0.2,
                seed: 11,
            },
            beta: 0.5,
            targets: vec![0, 3],
            train_epochs: 6,
            model: PoshGnnConfig::default(),
            workers: 1,
        }
    }
}

fn push_breakdown(out: &mut String, b: &UtilityBreakdown) {
    out.push_str(&format!("after_utility: {}\n", fmt_f64(b.after_utility)));
    out.push_str(&format!("preference: {}\n", fmt_f64(b.preference)));
    out.push_str(&format!("social_presence: {}\n", fmt_f64(b.social_presence)));
    out.push_str(&format!("view_occlusion_rate: {}\n", fmt_f64(b.view_occlusion_rate)));
    out.push_str(&format!("mean_recommended: {}\n", fmt_f64(b.mean_recommended)));
}

/// Runs the seeded end-to-end pipeline on a default scene engine and
/// serializes it. See the module docs for the determinism contract.
pub fn replay(cfg: &ReplayConfig) -> String {
    replay_with(cfg, |_| {})
}

/// [`replay`] with the scene engine configured explicitly before any frame
/// is pushed — how the golden test drives an explicit `set_prune_k(n − 1)`
/// cap through the same pipeline. Every such configuration must reproduce
/// the default snapshot byte for byte.
pub fn replay_with(cfg: &ReplayConfig, configure: impl FnOnce(&mut SceneEngine)) -> String {
    let _span = xr_obs::span!("xr_check.golden.replay");
    let dataset = Dataset::generate(cfg.dataset, cfg.dataset_seed);
    let scenario = dataset.sample_scenario(&cfg.scenario);
    let mut engine = SceneEngine::for_scenario(&scenario, &cfg.targets);
    configure(&mut engine);
    engine.push_scenario(&scenario);
    let requests: Vec<(usize, f64)> = cfg.targets.iter().map(|&t| (t, cfg.beta)).collect();
    let contexts = TargetContext::with_engine(&scenario, engine, &requests);

    let mut model = PoshGnn::new(cfg.model);
    let losses = model.train(&contexts, cfg.train_epochs);
    let trained = model.export_params();

    let mut out = String::from("# xr_check golden replay v1\n");
    out.push_str(&format!(
        "config: dataset={:?} dataset_seed={} n={} T={} room={} vr={} body_r={} scenario_seed={} beta={} targets={:?} epochs={}\n",
        cfg.dataset,
        cfg.dataset_seed,
        cfg.scenario.n_participants,
        cfg.scenario.time_steps,
        fmt_f64(cfg.scenario.room_side),
        fmt_f64(cfg.scenario.vr_fraction),
        fmt_f64(cfg.scenario.body_radius),
        cfg.scenario.seed,
        fmt_f64(cfg.beta),
        cfg.targets,
        cfg.train_epochs,
    ));

    out.push_str("\n[loss]\n");
    for (epoch, loss) in losses.iter().enumerate() {
        out.push_str(&format!("epoch {epoch}: {}\n", fmt_f64(*loss)));
    }

    // per-step soft outputs and decisions on the first context
    let ctx = &contexts[0];
    out.push_str(&format!("\n[r_t target={}]\n", ctx.target));
    let mut decisions = Vec::with_capacity(ctx.t_max() + 1);
    model.begin_episode(&StepView::new(ctx, 0));
    for t in 0..=ctx.t_max() {
        let soft = model.soft_recommend(ctx, t);
        let line: Vec<String> = soft.iter().map(|&v| fmt_f64(v)).collect();
        out.push_str(&format!("t={t}: {}\n", line.join(" ")));
        decisions.push(threshold_decision(&soft, ctx.target, cfg.model.threshold));
    }

    out.push_str("\n[decisions]\n");
    for (t, d) in decisions.iter().enumerate() {
        let bits: String = d.iter().map(|&b| if b { '1' } else { '0' }).collect();
        out.push_str(&format!("t={t}: {bits}\n"));
    }

    out.push_str("\n[evaluation]\n");
    push_breakdown(&mut out, &evaluate_sequence(ctx, &decisions));

    // method table over all targets; independent (method × target) cells run
    // through the parallel runner exactly like the paper tables — per-cell
    // constructions are seeded, so the table is identical at any worker count
    let methods = ["POSHGNN", "Random", "Nearest", "RenderAll"];
    let cells = par_map_indexed(cfg.workers, methods.len() * contexts.len(), |cell| {
        let (mi, ti) = (cell / contexts.len(), cell % contexts.len());
        let ctx = &contexts[ti];
        let mut rec: Box<dyn AfterRecommender> = match methods[mi] {
            "POSHGNN" => {
                let mut m = PoshGnn::new(cfg.model);
                assert!(m.import_params(&trained), "trained snapshot must fit a fresh model");
                Box::new(m)
            }
            "Random" => Box::new(RandomRecommender::new(6, 9)),
            "Nearest" => Box::new(NearestRecommender::new(6)),
            _ => Box::new(RenderAllRecommender),
        };
        let episode = rec.run_episode(ctx);
        evaluate_sequence(ctx, &episode)
    });

    out.push_str("\n[table]\n");
    for (mi, name) in methods.iter().enumerate() {
        let per_target = &cells[mi * contexts.len()..(mi + 1) * contexts.len()];
        let k = per_target.len() as f64;
        let mean = |f: fn(&UtilityBreakdown) -> f64| per_target.iter().map(f).sum::<f64>() / k;
        out.push_str(&format!(
            "{name}: utility={} preference={} social={} occlusion={} recommended={}\n",
            fmt_f64(mean(|b| b.after_utility)),
            fmt_f64(mean(|b| b.preference)),
            fmt_f64(mean(|b| b.social_presence)),
            fmt_f64(mean(|b| b.view_occlusion_rate)),
            fmt_f64(mean(|b| b.mean_recommended)),
        ));
    }
    out
}

/// Directory of the checked-in golden files.
pub fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// Compares `snapshot` to the checked-in golden file `name`, honoring the
/// `UPDATE_GOLDEN=1` regeneration path. On mismatch, panics after writing
/// the actual snapshot to [`crate::artifact_dir`].
pub fn assert_matches_golden(name: &str, snapshot: &str) {
    assert_matches_golden_at(&golden_dir(), name, snapshot, update_golden_requested());
}

/// Whether the environment requests golden regeneration.
pub fn update_golden_requested() -> bool {
    std::env::var("UPDATE_GOLDEN").map(|v| v == "1").unwrap_or(false)
}

/// [`assert_matches_golden`] against an explicit directory and update flag —
/// the testable core of the workflow.
pub fn assert_matches_golden_at(dir: &std::path::Path, name: &str, snapshot: &str, update: bool) {
    let path = dir.join(name);
    if update {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create golden dir {}: {e}", dir.display()));
        std::fs::write(&path, snapshot)
            .unwrap_or_else(|e| panic!("cannot write golden {}: {e}", path.display()));
        eprintln!("xr_check: updated golden {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with:\n    UPDATE_GOLDEN=1 cargo test -p xr_check\nand commit the result",
            path.display()
        )
    });
    if golden != snapshot {
        let artifact = crate::write_artifact(&format!("golden-actual-{name}"), snapshot);
        let diff_line = golden
            .lines()
            .zip(snapshot.lines())
            .enumerate()
            .find(|(_, (g, s))| g != s)
            .map(|(i, (g, s))| format!("first differing line {}:\n  golden:   {g}\n  actual:   {s}", i + 1))
            .unwrap_or_else(|| {
                format!(
                    "line counts differ: golden {} vs actual {}",
                    golden.lines().count(),
                    snapshot.lines().count()
                )
            });
        panic!(
            "snapshot diverges from golden {}\n{diff_line}\n{}\nif the change is intentional, regenerate with UPDATE_GOLDEN=1 cargo test -p xr_check and commit",
            path.display(),
            artifact.map(|p| format!("full actual snapshot written to {}", p.display())).unwrap_or_default()
        );
    }
}

/// One process-wide lock for [`with_env_vars`]: tests mutating different
/// variables must still serialize against each other.
fn env_lock() -> &'static Mutex<()> {
    static ENV_LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    ENV_LOCK.get_or_init(|| Mutex::new(()))
}

/// Runs `f` with every `(key, value)` env var forced, restoring the previous
/// state afterwards, under the process-wide env lock. A panic in `f` skips
/// the restore (and poisons the lock), so use it only for tests that fail
/// the run anyway when `f` panics.
pub fn with_env_vars<R>(vars: &[(&str, &str)], f: impl FnOnce() -> R) -> R {
    let _guard = env_lock().lock().expect("env lock poisoned");
    let previous: Vec<Option<String>> = vars.iter().map(|(key, _)| std::env::var(key).ok()).collect();
    for (key, value) in vars {
        std::env::set_var(key, value);
    }
    let result = f();
    for ((key, _), previous) in vars.iter().zip(previous) {
        match previous {
            Some(v) => std::env::set_var(key, v),
            None => std::env::remove_var(key),
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_snapshot() -> &'static str {
        "# fake snapshot\nvalue: 1\n"
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xr_check_golden_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn update_then_compare_round_trips() {
        let dir = tempdir("roundtrip");
        assert_matches_golden_at(&dir, "g.txt", tiny_snapshot(), true); // UPDATE_GOLDEN path
        assert_matches_golden_at(&dir, "g.txt", tiny_snapshot(), false); // replay path
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatch_names_the_first_differing_line() {
        let dir = tempdir("mismatch");
        assert_matches_golden_at(&dir, "g.txt", tiny_snapshot(), true);
        let err = std::panic::catch_unwind(|| {
            assert_matches_golden_at(&dir, "g.txt", "# fake snapshot\nvalue: 2\n", false);
        })
        .expect_err("mismatch must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("first differing line 2"), "unhelpful message: {msg}");
        assert!(msg.contains("UPDATE_GOLDEN=1"), "must document the regeneration path: {msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_golden_documents_the_workflow() {
        let dir = tempdir("missing");
        let err = std::panic::catch_unwind(|| {
            assert_matches_golden_at(&dir, "absent.txt", tiny_snapshot(), false);
        })
        .expect_err("missing golden must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("UPDATE_GOLDEN=1 cargo test -p xr_check"), "message: {msg}");
    }
}
