//! COMURNet-like baseline \[37\]: reinforcement-learning user recommendation
//! with view occlusion as a *hard* constraint.
//!
//! Chen et al. 2022 train an actor-critic network that assembles, for each
//! time step independently, a set of recommended users among which no two
//! occlude each other (an independent set in the occlusion graph), aiming to
//! maximize the target's preference utility. Two properties follow — and the
//! paper's experiments hinge on both:
//!
//! * **0% view occlusion** among its recommendations (the hard constraint);
//! * **impractical runtime**: every time step pays for fresh policy rollouts
//!   and gradient updates (the original needs ~22 s per step at N = 200).
//!
//! Our re-creation keeps that per-step episodic structure: at every time
//! step it runs `rollouts` sampled set-construction episodes, updating the
//! actor (policy gradient with a critic baseline) before extracting a greedy
//! set. It deliberately ignores the hybrid-participation mask and any notion
//! of temporal continuity — its social-presence utility collapses, exactly
//! as Table III reports.

use poshgnn::recommender::{mask_from_indices, AfterRecommender};
use poshgnn::StepView;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use xr_gnn::{Activation, Mlp};
use xr_tensor::{Adam, Matrix, Optimizer, ParamStore, Tape};

/// COMURNet hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct ComurNetConfig {
    /// Policy rollouts (with gradient updates) per time step.
    pub rollouts: usize,
    /// Maximum users added per episode.
    pub max_actions: usize,
    /// Softmax temperature during sampled rollouts.
    pub temperature: f64,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ComurNetConfig {
    fn default() -> Self {
        ComurNetConfig { rollouts: 25, max_actions: 15, temperature: 1.0, learning_rate: 1e-2, seed: 31 }
    }
}

const CAND_FEATURES: usize = 5;

/// The COMURNet-like recommender.
pub struct ComurNetRecommender {
    config: ComurNetConfig,
    store: ParamStore,
    actor: Mlp,
    critic: Mlp,
    optimizer: Adam,
    rng: StdRng,
}

impl ComurNetRecommender {
    /// Builds the actor-critic networks.
    pub fn new(config: ComurNetConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut store = ParamStore::new();
        let actor = Mlp::new(
            &mut store,
            "actor",
            &[CAND_FEATURES, 16, 1],
            &[Activation::Relu, Activation::None],
            &mut rng,
        );
        let critic = Mlp::new(
            &mut store,
            "critic",
            &[CAND_FEATURES, 16, 1],
            &[Activation::Relu, Activation::None],
            &mut rng,
        );
        let optimizer = Adam::with_lr(config.learning_rate);
        ComurNetRecommender {
            config,
            store,
            actor,
            critic,
            optimizer,
            rng: StdRng::seed_from_u64(config.seed),
        }
    }

    /// Per-candidate feature row at the view's tick.
    fn candidate_features(view: &StepView<'_>, w: usize) -> [f64; CAND_FEATURES] {
        let deg = view.occlusion().degree(w) as f64 / view.n() as f64;
        let dist = (view.distances()[w] / view.room_diagonal()).min(1.0);
        [view.preference()[w], view.social()[w], deg, dist, if view.mr_mask()[w] { 1.0 } else { 0.0 }]
    }

    /// Runs one set-construction episode. When `sample` is true the policy
    /// is sampled (and trained); otherwise actions are greedy and no
    /// gradients are computed. Returns the selected set.
    fn episode(&mut self, view: &StepView<'_>, sample: bool) -> Vec<usize> {
        let n = view.n();
        let mut feasible: Vec<usize> = (0..n).filter(|&w| w != view.target()).collect();
        let mut selected = Vec::new();

        if sample {
            // one tape accumulates log-probs of the sampled trajectory
            let tape = Tape::new();
            let mut logp_total = None;
            let mean_features = {
                let mut m = [0.0; CAND_FEATURES];
                for &w in &feasible {
                    let f = Self::candidate_features(view, w);
                    for (acc, x) in m.iter_mut().zip(f) {
                        *acc += x;
                    }
                }
                let k = feasible.len().max(1) as f64;
                Matrix::from_fn(1, CAND_FEATURES, |_, c| m[c] / k)
            };

            while !feasible.is_empty() && selected.len() < self.config.max_actions {
                let c = feasible.len();
                let feats = Matrix::from_fn(c, CAND_FEATURES, |r, col| {
                    Self::candidate_features(view, feasible[r])[col]
                });
                let x = tape.constant(feats);
                let logits = self.actor.forward(&tape, &self.store, x); // c × 1
                let z = logits.value();
                // stable softmax over the column
                let m = z.as_slice().iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let exps: Vec<f64> =
                    z.as_slice().iter().map(|&v| ((v - m) / self.config.temperature).exp()).collect();
                let sum: f64 = exps.iter().sum();
                let mut draw = self.rng.gen::<f64>() * sum;
                let mut pick = c - 1;
                for (i, &e) in exps.iter().enumerate() {
                    if draw < e {
                        pick = i;
                        break;
                    }
                    draw -= e;
                }
                // log π(a) = z_a/τ − ln Σ exp(z/τ) (built on the tape)
                let one_hot = tape.constant(Matrix::from_fn(1, c, |_, i| if i == pick { 1.0 } else { 0.0 }));
                let scaled =
                    logits.scale(1.0 / self.config.temperature).add_scalar(-m / self.config.temperature);
                let za = one_hot.matmul(scaled).sum();
                let lse = scaled.exp().sum().ln();
                let logp = za - lse;
                logp_total = Some(match logp_total {
                    Some(acc) => acc + logp,
                    None => logp,
                });

                // apply the hard no-occlusion constraint
                let chosen = feasible[pick];
                selected.push(chosen);
                feasible.retain(|&w| w != chosen && !view.occlusion().has_edge(w, chosen));
            }

            let reward: f64 = selected.iter().map(|&w| view.preference()[w]).sum();
            let state = tape.constant(mean_features);
            let value = self.critic.forward(&tape, &self.store, state).sum();
            let advantage = reward - value.scalar();
            if let Some(logp) = logp_total {
                let actor_loss = logp.scale(-advantage);
                let target = tape.constant(Matrix::full(1, 1, reward));
                let diff = value - target;
                let critic_loss = (diff * diff).sum();
                let total = actor_loss + critic_loss;
                total.backward(&mut self.store);
                self.store.clip_grad_norm(5.0);
                self.optimizer.step(&mut self.store);
            }
        } else {
            while !feasible.is_empty() && selected.len() < self.config.max_actions {
                let tape = Tape::new();
                let c = feasible.len();
                let feats = Matrix::from_fn(c, CAND_FEATURES, |r, col| {
                    Self::candidate_features(view, feasible[r])[col]
                });
                let x = tape.constant(feats);
                let z = self.actor.forward(&tape, &self.store, x).value();
                let pick = (0..c)
                    .max_by(|&a, &b| z[(a, 0)].partial_cmp(&z[(b, 0)]).unwrap())
                    .expect("non-empty feasible set");
                let chosen = feasible[pick];
                selected.push(chosen);
                feasible.retain(|&w| w != chosen && !view.occlusion().has_edge(w, chosen));
            }
        }
        selected
    }
}

impl AfterRecommender for ComurNetRecommender {
    fn name(&self) -> String {
        "COMURNet".to_string()
    }

    fn begin_episode(&mut self, _view: &StepView<'_>) {
        self.rng = StdRng::seed_from_u64(self.config.seed);
    }

    fn recommend_step(&mut self, view: &StepView<'_>) -> Vec<bool> {
        // per-step episodic training — the source of COMURNet's runtime cost
        for _ in 0..self.config.rollouts {
            self.episode(view, true);
        }
        let selected = self.episode(view, false);
        mask_from_indices(view.n(), &selected)
    }

    fn latency_steps(&self) -> usize {
        // Fig. 2b: COMURNet's per-step optimization cannot meet the
        // real-time budget; its decisions land steps late (the paper draws
        // the t = 0 result arriving after t = 2).
        3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::tiny_context;

    fn quick() -> ComurNetConfig {
        ComurNetConfig { rollouts: 5, max_actions: 6, ..Default::default() }
    }

    #[test]
    fn recommendations_form_independent_sets() {
        let ctx = tiny_context(14, 4, 1);
        let mut model = ComurNetRecommender::new(quick());
        let recs = model.run_episode(&ctx);
        for (t, rec) in recs.iter().enumerate() {
            let chosen: Vec<usize> = (0..ctx.n).filter(|&w| rec[w]).collect();
            assert!(ctx.occlusion[t].is_independent_set(&chosen), "occlusion constraint violated at t={t}");
            assert!(!rec[ctx.target]);
        }
    }

    #[test]
    fn respects_max_actions() {
        let ctx = tiny_context(16, 2, 2);
        let mut model =
            ComurNetRecommender::new(ComurNetConfig { max_actions: 3, rollouts: 2, ..Default::default() });
        let recs = model.run_episode(&ctx);
        assert!(recs.iter().all(|r| r.iter().filter(|&&b| b).count() <= 3));
    }

    #[test]
    fn fresh_models_are_deterministic() {
        // Weights continue training across episodes (RL), so determinism is
        // checked across two identically seeded fresh models.
        let ctx = tiny_context(12, 2, 3);
        let a = ComurNetRecommender::new(quick()).run_episode(&ctx);
        let b = ComurNetRecommender::new(quick()).run_episode(&ctx);
        assert_eq!(a, b);
    }

    #[test]
    fn rollouts_do_not_corrupt_parameters() {
        let ctx = tiny_context(10, 3, 4);
        let mut model = ComurNetRecommender::new(quick());
        model.run_episode(&ctx);
        assert!(model.store.export_flat().iter().all(|x| x.is_finite()));
    }
}
