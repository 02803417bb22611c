//! GraFrank-like personalized-ranking baseline \[31\].
//!
//! GraFrank learns user embeddings from multi-faceted features with GNN
//! aggregation and a cross-facet attention module, trained pairwise so that
//! friends rank above strangers, then recommends each user's top-k. We keep
//! that pipeline, scaled to a conferencing room:
//!
//! * two facets per user — a *social* facet (degree, mean tie strength) and a
//!   *preference* facet (mean incoming/outgoing preference);
//! * one GCN aggregation per facet over the social graph;
//! * per-node attention combining the facet embeddings;
//! * pairwise ranking loss `−ln σ(score(v,w⁺) − score(v,w⁻))` (BPR) over
//!   sampled friend/stranger pairs;
//! * static top-k recommendation by the learned score — like the original,
//!   it knows nothing about trajectories or occlusion, which is the failure
//!   mode the paper's tables demonstrate.

use std::rc::Rc;

use poshgnn::recommender::{mask_from_indices, top_k_indices, AfterRecommender};
use poshgnn::StepView;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use xr_datasets::Scenario;
use xr_gnn::{Activation, GcnLayer};
use xr_tensor::{init, Adam, CsrAdj, Matrix, Optimizer, ParamStore, Tape};

/// Configuration for the GraFrank-like model.
#[derive(Debug, Clone, Copy)]
pub struct GraFrankConfig {
    /// Embedding dimension.
    pub embed_dim: usize,
    /// Number of BPR training iterations (one sampled triplet batch each).
    pub iterations: usize,
    /// Triplets per batch.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Users recommended per step.
    pub top_k: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GraFrankConfig {
    fn default() -> Self {
        GraFrankConfig {
            embed_dim: 8,
            iterations: 150,
            batch_size: 16,
            learning_rate: 1e-2,
            top_k: 10,
            seed: 17,
        }
    }
}

/// The fitted GraFrank-like recommender.
pub struct GraFrankRecommender {
    /// Final pairwise scores `score[v][w]`.
    scores: Vec<Vec<f64>>,
    top_k: usize,
}

impl GraFrankRecommender {
    /// Fits embeddings on a scenario's social structure.
    pub fn fit(scenario: &Scenario, config: GraFrankConfig) -> Self {
        let n = scenario.n();
        let mut rng = StdRng::seed_from_u64(config.seed);

        // facet features
        let social_facet = Matrix::from_fn(n, 2, |v, c| {
            let ties: Vec<f64> = (0..n).map(|w| scenario.social[v][w]).filter(|&x| x > 0.0).collect();
            match c {
                0 => ties.len() as f64 / n as f64,
                _ => {
                    if ties.is_empty() {
                        0.0
                    } else {
                        ties.iter().sum::<f64>() / ties.len() as f64
                    }
                }
            }
        });
        let pref_facet = Matrix::from_fn(n, 2, |v, c| match c {
            0 => (0..n).map(|w| scenario.preference[w][v]).sum::<f64>() / n as f64,
            _ => (0..n).map(|w| scenario.preference[v][w]).sum::<f64>() / n as f64,
        });
        // binary social adjacency
        let ties: Vec<(usize, usize, f64)> = (0..n)
            .flat_map(|v| (0..n).filter(move |&w| scenario.social[v][w] > 0.0).map(move |w| (v, w, 1.0)))
            .collect();
        let adj = Rc::new(CsrAdj::from_entries(n, n, &ties));

        // model parameters
        let mut store = ParamStore::new();
        let d = config.embed_dim;
        let gcn_social = GcnLayer::new(&mut store, "gf.social", 2, d, Activation::Relu, &mut rng);
        let gcn_pref = GcnLayer::new(&mut store, "gf.pref", 2, d, Activation::Relu, &mut rng);
        let q_social = store.register("gf.q_social", init::xavier_uniform(d, 1, &mut rng));
        let q_pref = store.register("gf.q_pref", init::xavier_uniform(d, 1, &mut rng));
        let mut adam = Adam::with_lr(config.learning_rate);

        // collect friend pairs for BPR sampling
        let friends: Vec<(usize, usize)> = (0..n)
            .flat_map(|v| (0..n).filter(move |&w| w != v).map(move |w| (v, w)))
            .filter(|&(v, w)| scenario.social[v][w] > 0.0)
            .collect();

        if !friends.is_empty() {
            for _ in 0..config.iterations {
                let tape = Tape::new();
                let sf = tape.constant(social_facet.clone());
                let pf = tape.constant(pref_facet.clone());
                let a = tape.sparse(adj.clone());
                let e_social = gcn_social.forward(&tape, &store, sf, a);
                let e_pref = gcn_pref.forward(&tape, &store, pf, a);
                // cross-facet attention: per-node gate from facet saliences
                let qs = tape.param(&store, q_social);
                let qp = tape.param(&store, q_pref);
                let gate = (e_social.matmul(qs) - e_pref.matmul(qp)).sigmoid(); // N×1
                let tile = tape.constant(Matrix::ones(1, d));
                let alpha = gate.matmul(tile); // N×d
                let embed = alpha * e_social + alpha.one_minus() * e_pref;

                // BPR over a sampled batch
                let mut loss = None;
                for _ in 0..config.batch_size {
                    let &(v, pos) = &friends[rng.gen_range(0..friends.len())];
                    // rejection-sample a stranger
                    let mut neg = rng.gen_range(0..n);
                    for _ in 0..16 {
                        if neg != v && scenario.social[v][neg] == 0.0 {
                            break;
                        }
                        neg = rng.gen_range(0..n);
                    }
                    if neg == v || scenario.social[v][neg] > 0.0 {
                        continue;
                    }
                    let one_hot = |i: usize| {
                        tape.constant(Matrix::from_fn(1, n, |_, c| if c == i { 1.0 } else { 0.0 }))
                    };
                    let ev = one_hot(v).matmul(embed);
                    let ep = one_hot(pos).matmul(embed);
                    let en = one_hot(neg).matmul(embed);
                    let diff = (ev * (ep - en)).sum();
                    // −ln σ(diff)
                    let term = diff.sigmoid().ln().scale(-1.0);
                    loss = Some(match loss {
                        Some(acc) => acc + term,
                        None => term,
                    });
                }
                if let Some(l) = loss {
                    let l = l.scale(1.0 / config.batch_size as f64);
                    l.backward(&mut store);
                    store.clip_grad_norm(5.0);
                    adam.step(&mut store);
                }
            }
        }

        // final embeddings → dense score table
        let tape = Tape::new();
        let sf = tape.constant(social_facet);
        let pf = tape.constant(pref_facet);
        let a = tape.sparse(adj);
        let e_social = gcn_social.forward(&tape, &store, sf, a);
        let e_pref = gcn_pref.forward(&tape, &store, pf, a);
        let qs = tape.param(&store, q_social);
        let qp = tape.param(&store, q_pref);
        let gate = (e_social.matmul(qs) - e_pref.matmul(qp)).sigmoid();
        let tile = tape.constant(Matrix::ones(1, d));
        let alpha = gate.matmul(tile);
        let embed = (alpha * e_social + alpha.one_minus() * e_pref).value();
        let score_m = embed.matmul(&embed.transpose());
        let scores = (0..n).map(|v| score_m.row(v).to_vec()).collect();

        GraFrankRecommender { scores, top_k: config.top_k }
    }

    /// The learned pairwise score table.
    pub fn scores(&self) -> &[Vec<f64>] {
        &self.scores
    }
}

impl AfterRecommender for GraFrankRecommender {
    fn name(&self) -> String {
        "GraFrank".to_string()
    }

    fn begin_episode(&mut self, _view: &StepView<'_>) {}

    fn recommend_step(&mut self, view: &StepView<'_>) -> Vec<bool> {
        let idx = top_k_indices(&self.scores[view.target()], view.target(), self.top_k);
        mask_from_indices(view.n(), &idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::tiny_scenario;
    use poshgnn::TargetContext;

    fn quick_config() -> GraFrankConfig {
        GraFrankConfig { iterations: 60, top_k: 5, ..Default::default() }
    }

    #[test]
    fn fit_produces_square_score_table() {
        let scenario = tiny_scenario(14, 3, 1);
        let model = GraFrankRecommender::fit(&scenario, quick_config());
        assert_eq!(model.scores().len(), 14);
        assert!(model.scores().iter().all(|row| row.len() == 14));
        assert!(model.scores().iter().all(|row| row.iter().all(|s| s.is_finite())));
    }

    #[test]
    fn friends_rank_above_strangers_on_average() {
        let scenario = tiny_scenario(24, 3, 2);
        let model = GraFrankRecommender::fit(&scenario, GraFrankConfig { iterations: 250, ..quick_config() });
        let n = scenario.n();
        let mut friend_scores = Vec::new();
        let mut stranger_scores = Vec::new();
        for v in 0..n {
            for w in 0..n {
                if v == w {
                    continue;
                }
                if scenario.social[v][w] > 0.0 {
                    friend_scores.push(model.scores()[v][w]);
                } else {
                    stranger_scores.push(model.scores()[v][w]);
                }
            }
        }
        let mf: f64 = friend_scores.iter().sum::<f64>() / friend_scores.len() as f64;
        let ms: f64 = stranger_scores.iter().sum::<f64>() / stranger_scores.len() as f64;
        assert!(mf > ms, "BPR failed: friends {mf} vs strangers {ms}");
    }

    #[test]
    fn recommendation_is_static_topk() {
        let scenario = tiny_scenario(16, 5, 3);
        let mut model = GraFrankRecommender::fit(&scenario, quick_config());
        let ctx = TargetContext::new(&scenario, 2, 0.5);
        let recs = model.run_episode(&ctx);
        assert!(recs.iter().all(|r| r == &recs[0]), "GraFrank must be time-invariant");
        assert_eq!(recs[0].iter().filter(|&&b| b).count(), 5);
        assert!(!recs[0][2], "never recommends the target");
    }

    #[test]
    fn fit_is_deterministic() {
        let scenario = tiny_scenario(12, 3, 4);
        let a = GraFrankRecommender::fit(&scenario, quick_config());
        let b = GraFrankRecommender::fit(&scenario, quick_config());
        assert_eq!(a.scores(), b.scores());
    }
}
