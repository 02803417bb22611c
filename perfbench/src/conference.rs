//! `conference`: the paper's workload. A Timik-like room of 200 users with
//! 8 targets at β = 0.5, run in episodes of T = 100 steps: a dense
//! incremental `SceneEngine` pass, then `TargetContext::with_engine`, then
//! each target's f64 POSHGNN `recommend_step`, then `evaluate_sequence`.
//! The model is the committed snapshot; training is never part of a run.

use std::time::Instant;

use poshgnn::{
    evaluate_sequence, AfterRecommender, LossParams, PoshGnn, PoshGnnConfig, PoshVariant, StepView,
    TargetContext,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use xr_datasets::{Dataset, DatasetKind, Scenario, ScenarioConfig};
use xr_obs::Json;
use xr_session::{Frame, SceneConfig, SceneEngine};

use crate::run::{self, Run};
use crate::{stats, Outcome};

/// The universe every scenario is drawn from; fixed, so the workload seed
/// varies only the test scenarios.
const DATASET_SEED: u64 = 2024;
/// The training scenario behind the committed snapshot.
const TRAIN_SEED: u64 = 0x7EA1;
const TRAIN_EPOCHS: usize = 40;
const TARGETS: usize = 8;
const BETA: f64 = 0.5;
const SETUPS: usize = 5;
/// Episodes measured per requested second. A 15-second run gives four
/// 1000-frame windows, so the interquartile mean of their p99s drops the
/// window a host stall hits.
const EPISODES_PER_SECOND: f64 = 2.7;
/// Episodes traced in a traced run (each paired with an untraced one).
const TRACED_BLOCKS: usize = 20;

pub const SNAPSHOT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/snapshot/poshgnn.ckpt");

/// The pinned model configuration (every field explicit, none from the
/// environment).
fn model_config() -> PoshGnnConfig {
    PoshGnnConfig {
        hidden: 8,
        loss: LossParams { beta: BETA, alpha: LossParams::default().alpha },
        learning_rate: 1e-2,
        grad_clip: 5.0,
        threshold: 0.5,
        seed: 42,
        variant: PoshVariant::Full,
        symmetric_penalty: false,
        dense_kernels: false,
        fresh_mia: false,
        fresh_tape: false,
        serve_f32: false,
        drift_sample: 0,
    }
}

fn scenario(dataset: &Dataset, seed: u64) -> Scenario {
    dataset.sample_scenario(&ScenarioConfig { seed, ..ScenarioConfig::default() })
}

fn pick_targets(scenario: &Scenario, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scenario.n()).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(seed));
    idx.truncate(TARGETS);
    idx
}

/// A dense engine over `scenario` with every knob pinned, keeping every
/// tick's state for `with_engine`.
fn engine(scenario: &Scenario, targets: &[usize], incremental: bool) -> SceneEngine {
    let scene = SceneConfig::from_scenario(scenario);
    let mut engine = run::pinned_engine(scenario.n(), scene, targets, incremental, 0);
    engine.set_state_retention(None);
    engine
}

/// Loads the committed snapshot into a fresh model, checking every block's
/// name and shape against the architecture.
pub fn load_model(text: &str) -> Result<PoshGnn, String> {
    let mut model = PoshGnn::new(model_config());
    let expected = model.parameter_count();
    xr_tensor::checkpoint::from_string(model.params_mut(), text).map_err(|e| e.to_string())?;
    if model.parameter_count() != expected {
        return Err(format!("snapshot has {} parameters, model {expected}", model.parameter_count()));
    }
    Ok(model)
}

fn requests(targets: &[usize]) -> Vec<(usize, f64)> {
    targets.iter().map(|&t| (t, BETA)).collect()
}

/// Contexts of `targets` from one engine pass over the whole scenario.
fn contexts(scenario: &Scenario, targets: &[usize], incremental: bool) -> Vec<TargetContext> {
    let mut eng = engine(scenario, targets, incremental);
    eng.push_scenario(scenario);
    TargetContext::with_engine(scenario, eng, &requests(targets))
}

/// Mean AFTER utility and mean users recommended per step.
fn quality(ctxs: &[TargetContext], decisions: &[Vec<Vec<bool>>]) -> (f64, f64) {
    let evals: Vec<_> = ctxs.iter().zip(decisions).map(|(c, d)| evaluate_sequence(c, d)).collect();
    let n = evals.len() as f64;
    (
        evals.iter().map(|e| e.after_utility).sum::<f64>() / n,
        evals.iter().map(|e| e.mean_recommended).sum::<f64>() / n,
    )
}

struct Setup {
    dataset: Dataset,
    model: PoshGnn,
    oracle: PoshGnn,
}

fn set_up(seed: u64, run: &mut Run, started: Instant) -> Result<Setup, String> {
    let gen = Instant::now();
    let dataset = Dataset::generate(DatasetKind::Timik, DATASET_SEED);
    let warm = scenario(&dataset, seed ^ 0x3A3A);
    run.datasets_setup_s.push(gen.elapsed().as_secs_f64());
    let text =
        std::fs::read_to_string(SNAPSHOT_PATH).map_err(|e| format!("snapshot {SNAPSHOT_PATH}: {e}"))?;
    let mut model = load_model(&text)?;
    let oracle = load_model(&text)?;
    // warm-up episode through the measured path, which also guards against
    // a degenerate snapshot
    let ctxs = contexts(&warm, &pick_targets(&warm, seed ^ 0x3A3B), true);
    let decisions: Vec<_> = ctxs.iter().map(|c| model.run_episode(c)).collect();
    let (utility, recommended) = quality(&ctxs, &decisions);
    if utility <= 0.0 || recommended <= 0.0 {
        return Err(format!(
            "degenerate snapshot: after_utility {utility}, mean_recommended {recommended} on the warm-up episode"
        ));
    }
    run.setup_s.push(started.elapsed().as_secs_f64());
    Ok(Setup { dataset, model, oracle })
}

pub fn run(seed: u64, seconds: u64, run: &mut Run, started: Instant) -> Result<Outcome, String> {
    run.trace_blocks(TRACED_BLOCKS);
    // each set-up is dropped before the next, so set-up never holds two
    // datasets at once and the peak RSS is the workload's
    let mut setup = set_up(seed, run, started)?;
    for _ in 1..SETUPS {
        drop(setup);
        setup = set_up(seed, run, Instant::now())?;
    }
    let Setup { dataset, mut model, mut oracle } = setup;
    let episodes = (EPISODES_PER_SECOND * seconds as f64).ceil() as u64;
    let check_episode = StdRng::seed_from_u64(seed ^ 0xC0FE).gen_range(0..episodes);
    let mut utilities = Vec::new();
    let mut recommended = Vec::new();
    let mut densify = Vec::new();
    let mut eval = Vec::new();
    let mut push_ms = Vec::new();

    for episode in 0..episodes {
        let gen = Instant::now();
        let scn = scenario(&dataset, seed.wrapping_mul(1_000_003).wrapping_add(episode));
        let frames: Vec<Frame> = scn.trajectories.iter().map(|p| Frame::new(p.clone())).collect();
        let targets = pick_targets(&scn, seed ^ episode.wrapping_mul(0x9E37_79B9));
        let movers: Vec<f64> = std::iter::once(scn.n() as f64)
            .chain(
                scn.trajectories
                    .windows(2)
                    .map(|w| w[0].iter().zip(&w[1]).filter(|(a, b)| a != b).count() as f64),
            )
            .collect();
        let steps = frames.len();
        let gen_ms = gen.elapsed().as_secs_f64() * 1e3;
        run.generated(gen_ms / steps as f64, steps);

        let trace = run.begin_block(episode as usize);
        run.attempted += steps as u64;
        let mut eng = engine(&scn, &targets, true);
        let mut frame_ms = Vec::with_capacity(steps);
        for frame in frames {
            let (_, a, b) = run.time("session.push", || eng.push(frame));
            frame_ms.push((b - a).as_secs_f64() * 1e3);
        }
        if run.traced() {
            push_ms.extend_from_slice(&frame_ms);
            run.movers.extend_from_slice(&movers);
        }
        let (ctxs, a, b) =
            run.time("poshgnn.densify", || TargetContext::with_engine(&scn, eng, &requests(&targets)));
        if run.traced() {
            densify.push((b - a).as_secs_f64() * 1e3);
        }
        let mut decisions = Vec::with_capacity(ctxs.len());
        for ctx in &ctxs {
            run.time("poshgnn.begin_episode", || model.begin_episode(&StepView::new(ctx, 0)));
            let mut recs = Vec::with_capacity(steps);
            for (t, ms) in frame_ms.iter_mut().enumerate() {
                let (rec, a, b) = run.time("poshgnn.step", || model.recommend_step(&StepView::new(ctx, t)));
                *ms += (b - a).as_secs_f64() * 1e3;
                recs.push(rec);
            }
            decisions.push(recs);
        }
        let mut eval_ms = 0.0;
        for (ctx, recs) in ctxs.iter().zip(&decisions) {
            let (u, a, b) = run.time("poshgnn.eval", || evaluate_sequence(ctx, recs));
            eval_ms += (b - a).as_secs_f64() * 1e3;
            utilities.push(u.after_utility);
            recommended.push(u.mean_recommended);
        }
        if run.traced() {
            eval.push(eval_ms);
        }
        run.decided(&frame_ms);
        run.end_block(trace);

        if episode == check_episode {
            // the measured contexts go first, so the check never holds two
            // sets of contexts at once
            drop(ctxs);
            let reference: Vec<_> =
                contexts(&scn, &targets, false).iter().map(|c| oracle.run_episode(c)).collect();
            for t in 0..steps {
                if decisions.iter().zip(&reference).any(|(d, r)| d[t] != r[t]) {
                    run.check_failed(format!(
                        "episode {episode} step {t}: differs from scratch-engine contexts"
                    ));
                }
            }
        }
    }

    let mut layers = Vec::new();
    if let Some(snap) = run.snapshot() {
        let spans = run.spans();
        let steps_ms = run.calls.get("poshgnn.step").cloned().unwrap_or_default();
        let push_sum: f64 = push_ms.iter().sum();
        let frame_sum = push_sum + steps_ms.iter().sum::<f64>();
        layers.extend([
            ("session.push_ms_p50", stats::median(&push_ms)),
            ("session.push_ms_p99", stats::percentile(&push_ms, 0.99)),
            ("session.share", if frame_sum > 0.0 { push_sum / frame_sum } else { 0.0 }),
            ("poshgnn.step_ms_p50", stats::median(&steps_ms)),
            ("poshgnn.step_ms_p99", stats::percentile(&steps_ms, 0.99)),
            ("poshgnn.mia_ms_p50", stats::median(&run::span_ms(&spans, "poshgnn.mia.compute"))),
            ("poshgnn.pdr_ms_p50", stats::median(&run::span_ms(&spans, "poshgnn.pdr.forward"))),
            ("poshgnn.lwp_ms_p50", stats::median(&run::span_ms(&spans, "poshgnn.lwp.forward"))),
            ("poshgnn.densify_ms", stats::median(&densify)),
            ("poshgnn.eval_ms", stats::median(&eval)),
        ]);
        layers.extend(run::session_layer(&snap, TARGETS as u64));
    }
    layers.push(("poshgnn.recommended_per_step", crate::mean(&recommended)));
    Ok(Outcome {
        after_utility: crate::mean(&utilities),
        layers,
        knobs: Json::obj()
            .set("dataset", "Timik")
            .set("dataset_seed", DATASET_SEED)
            .set("n", ScenarioConfig::default().n_participants)
            .set("time_steps", ScenarioConfig::default().time_steps)
            .set("targets", TARGETS)
            .set("beta", BETA)
            .set("episodes", episodes)
            .set("setups", SETUPS)
            .set("prune_k", 0usize)
            .set("incremental", true)
            .set("snap_epsilon", 0.0)
            .set("slo", "none")
            .set("serve_f32", false)
            .set("fresh_mia", false)
            .set("fresh_tape", false)
            .set("dense_kernels", false)
            .set("drift_sample", 0usize)
            .set("threshold", 0.5)
            .set("snapshot", "perfbench/snapshot/poshgnn.ckpt")
            .set("check_episode", check_episode),
    })
}

/// Trains the snapshot from the fixed training scenario and writes it to
/// `out`, refusing a model that recommends nobody on a held-out scenario.
pub fn train_snapshot(out: &std::path::Path) -> Result<(), String> {
    let dataset = Dataset::generate(DatasetKind::Timik, DATASET_SEED);
    let train = scenario(&dataset, TRAIN_SEED);
    let ctxs = contexts(&train, &pick_targets(&train, TRAIN_SEED), true);
    let mut model = PoshGnn::new(model_config());
    let started = Instant::now();
    let losses = model.train(&ctxs, TRAIN_EPOCHS);
    eprintln!(
        "trained {TRAIN_EPOCHS} epochs in {:.1}s, loss {:.4} -> {:.4}",
        started.elapsed().as_secs_f64(),
        losses.first().copied().unwrap_or(f64::NAN),
        losses.last().copied().unwrap_or(f64::NAN)
    );
    let held_out = scenario(&dataset, TRAIN_SEED ^ 0xFFFF);
    let held_ctxs = contexts(&held_out, &pick_targets(&held_out, TRAIN_SEED ^ 0xFFFF), true);
    let decisions: Vec<_> = held_ctxs.iter().map(|c| model.run_episode(c)).collect();
    let (utility, recommended) = quality(&held_ctxs, &decisions);
    eprintln!("held-out: after_utility {utility:.4}, mean_recommended {recommended:.3}");
    if utility <= 0.0 || recommended <= 0.0 {
        return Err("trained model is degenerate; snapshot not written".to_string());
    }
    std::fs::write(out, xr_tensor::checkpoint::to_string(model.params())).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_exactly() {
        let model = PoshGnn::new(PoshGnnConfig { seed: 7, ..model_config() });
        let text = xr_tensor::checkpoint::to_string(model.params());
        let loaded = load_model(&text).expect("own checkpoint loads");
        assert_eq!(loaded.export_params(), model.export_params());
        assert_eq!(xr_tensor::checkpoint::to_string(loaded.params()), text);
    }

    #[test]
    fn committed_snapshot_loads_and_bad_shapes_are_refused() {
        let text = std::fs::read_to_string(SNAPSHOT_PATH).expect("snapshot is committed");
        assert!(load_model(&text).is_ok());
        let truncated: String = text.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(load_model(&truncated).is_err());
        assert!(load_model(&text.replacen("param pdr.0", "param pdr.9", 1)).is_err());
    }

    #[test]
    fn scenario_generation_is_deterministic_in_the_seed() {
        let dataset = Dataset::generate(DatasetKind::Timik, DATASET_SEED);
        let small = |seed| {
            dataset.sample_scenario(&ScenarioConfig {
                n_participants: 30,
                time_steps: 5,
                seed,
                ..ScenarioConfig::default()
            })
        };
        let digest = |s: &Scenario| stats::frame_digest(s.trajectories.iter().map(Vec::as_slice));
        assert_eq!(digest(&small(1)), digest(&small(1)));
        assert_ne!(digest(&small(1)), digest(&small(2)));
    }
}
