//! Recurrent GNN baselines: T-GCN \[73\] and DCRNN \[72\] kernels.
//!
//! Following §V-A.2, both share POSHGNN's scale (hidden dimension 8) and are
//! trained with the POSHGNN loss over full episodes, so any performance gap
//! against POSHGNN is architectural: they consume the *naive* attributed
//! occlusion graph (§IV-A's strawman — raw `p`, `s`, distance, interface on
//! the occlusion graph) without MIA's hybrid-participation pruning or Δ
//! structural-difference signal, and they have no LWP preservation gate.

use std::rc::Rc;

use poshgnn::loss::{poshgnn_loss, LossParams};
use poshgnn::mia::Mia;
use poshgnn::recommender::{threshold_decision, AfterRecommender};
use poshgnn::{StepView, TargetContext};
use rand::rngs::StdRng;
use rand::SeedableRng;
use xr_gnn::{Activation, DcGruCell, Dense, TgcnCell};
use xr_tensor::{Adam, CsrAdj, Matrix, Optimizer, ParamStore, Tape, Var};

/// Which recurrent kernel to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RnnKind {
    /// GCN + GRU (T-GCN).
    Tgcn,
    /// Diffusion-convolutional GRU (DCRNN).
    Dcrnn,
}

/// Configuration shared by the two recurrent baselines.
#[derive(Debug, Clone, Copy)]
pub struct RnnConfig {
    /// Hidden dimension (8, matching POSHGNN).
    pub hidden: usize,
    /// POSHGNN loss hyperparameters.
    pub loss: LossParams,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Gradient clip.
    pub grad_clip: f64,
    /// Decision threshold.
    pub threshold: f64,
    /// Parameter seed.
    pub seed: u64,
}

impl Default for RnnConfig {
    fn default() -> Self {
        RnnConfig {
            hidden: 8,
            loss: LossParams::default(),
            learning_rate: 1e-2,
            grad_clip: 5.0,
            threshold: 0.5,
            seed: 23,
        }
    }
}

enum Kernel {
    Tgcn(TgcnCell),
    Dcrnn(DcGruCell),
}

/// A recurrent-GNN AFTER recommender (T-GCN or DCRNN kernel).
pub struct RnnRecommender {
    kind: RnnKind,
    config: RnnConfig,
    store: ParamStore,
    optimizer: Adam,
    kernel: Kernel,
    readout: Dense,
    mia: Mia,
    state: Option<Matrix>,
}

const FEATURE_DIM: usize = 4;

impl RnnRecommender {
    /// Builds an untrained recurrent recommender.
    pub fn new(kind: RnnKind, config: RnnConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut store = ParamStore::new();
        let h = config.hidden;
        let kernel = match kind {
            RnnKind::Tgcn => Kernel::Tgcn(TgcnCell::new(&mut store, "tgcn", FEATURE_DIM, h, h, &mut rng)),
            RnnKind::Dcrnn => Kernel::Dcrnn(DcGruCell::new(&mut store, "dcrnn", FEATURE_DIM, h, 2, &mut rng)),
        };
        let readout = Dense::new(&mut store, "readout", h, 1, Activation::Sigmoid, &mut rng);
        let optimizer = Adam::with_lr(config.learning_rate);
        RnnRecommender { kind, config, store, optimizer, kernel, readout, mia: Mia, state: None }
    }

    /// One recurrent step. `graph_op` is the operator both kernels consume:
    /// the row-normalized random walk matrix `D⁻¹A_t` of the occlusion graph
    /// (mean aggregation keeps activations bounded on dense occlusion
    /// graphs; DCRNN's diffusion convolution is defined over it anyway).
    fn step_on_tape<'t>(
        &self,
        tape: &'t Tape,
        features: Matrix,
        graph_op: Rc<CsrAdj>,
        h_prev: Var<'t>,
    ) -> (Var<'t>, Var<'t>) {
        let x = tape.constant(features);
        let g = tape.sparse(graph_op);
        let h = match &self.kernel {
            Kernel::Tgcn(cell) => cell.step(tape, &self.store, x, g, h_prev),
            Kernel::Dcrnn(cell) => cell.step(tape, &self.store, x, g, h_prev),
        };
        let r = self.readout.forward(tape, &self.store, h);
        (r, h)
    }

    /// Trains with the POSHGNN loss over full episodes (BPTT), mirroring the
    /// POSHGNN trainer. Returns mean per-step loss per epoch.
    pub fn train(&mut self, contexts: &[TargetContext], epochs: usize) -> Vec<f64> {
        let mut history = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let mut epoch_loss = 0.0;
            for ctx in contexts {
                let tape = Tape::new();
                let n = ctx.n;
                let mut h_prev = tape.constant(Matrix::zeros(n, self.config.hidden));
                let mut r_prev = tape.constant(Matrix::zeros(n, 1));
                let mut total: Option<Var<'_>> = None;
                for t in 0..=ctx.t_max() {
                    let mia_out = self.mia.compute(ctx, t);
                    let (r, h) = self.step_on_tape(
                        &tape,
                        self.mia.raw_features(ctx, t),
                        mia_out.adjacency_norm_csr.clone(),
                        h_prev,
                    );
                    let blocking = tape.sparse(mia_out.blocking_csr.clone());
                    let l = poshgnn_loss(
                        &tape,
                        r,
                        r_prev,
                        &mia_out.p_hat,
                        &mia_out.s_hat,
                        blocking,
                        self.config.loss,
                    );
                    total = Some(match total {
                        Some(acc) => acc + l,
                        None => l,
                    });
                    h_prev = h;
                    r_prev = r;
                }
                let loss = total.expect("non-empty episode").scale(1.0 / (ctx.t_max() + 1) as f64);
                epoch_loss += loss.scalar();
                loss.backward(&mut self.store);
                self.store.clip_grad_norm(self.config.grad_clip);
                self.optimizer.step(&mut self.store);
            }
            history.push(epoch_loss / contexts.len().max(1) as f64);
        }
        history
    }
}

impl AfterRecommender for RnnRecommender {
    fn name(&self) -> String {
        match self.kind {
            RnnKind::Tgcn => "TGCN".to_string(),
            RnnKind::Dcrnn => "DCRNN".to_string(),
        }
    }

    fn begin_episode(&mut self, _view: &StepView<'_>) {
        self.state = None;
    }

    fn recommend_step(&mut self, view: &StepView<'_>) -> Vec<bool> {
        let h_prev_m = self.state.take().unwrap_or_else(|| Matrix::zeros(view.n(), self.config.hidden));
        let tape = Tape::new();
        let h_prev = tape.constant(h_prev_m);
        let (r, h) = self.step_on_tape(
            &tape,
            self.mia.raw_features_view(view),
            Rc::new(view.occlusion().adjacency_norm_csr()),
            h_prev,
        );
        self.state = Some(h.value());
        threshold_decision(&r.value().into_vec(), view.target(), self.config.threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::tiny_context;

    #[test]
    fn both_kernels_run_episodes() {
        for kind in [RnnKind::Tgcn, RnnKind::Dcrnn] {
            let ctx = tiny_context(10, 6, 1);
            let mut model = RnnRecommender::new(kind, RnnConfig::default());
            let recs = model.run_episode(&ctx);
            assert_eq!(recs.len(), 7);
            assert!(recs.iter().all(|r| r.len() == 10 && !r[ctx.target]));
        }
    }

    #[test]
    fn training_reduces_loss_for_both() {
        for kind in [RnnKind::Tgcn, RnnKind::Dcrnn] {
            let ctx = tiny_context(10, 6, 2);
            let mut model = RnnRecommender::new(kind, RnnConfig::default());
            let hist = model.train(std::slice::from_ref(&ctx), 20);
            assert!(
                hist.last().unwrap() < &hist[0],
                "{kind:?} loss did not improve: {} → {}",
                hist[0],
                hist.last().unwrap()
            );
        }
    }

    #[test]
    fn names_match_paper_tables() {
        assert_eq!(RnnRecommender::new(RnnKind::Tgcn, RnnConfig::default()).name(), "TGCN");
        assert_eq!(RnnRecommender::new(RnnKind::Dcrnn, RnnConfig::default()).name(), "DCRNN");
    }

    #[test]
    fn episodes_are_independent() {
        let ctx = tiny_context(8, 5, 3);
        let mut model = RnnRecommender::new(RnnKind::Tgcn, RnnConfig::default());
        let a = model.run_episode(&ctx);
        let b = model.run_episode(&ctx);
        assert_eq!(a, b);
    }
}
