//! POSHGNN — the paper's deep temporal graph learning framework (§IV).
//!
//! Three submodules cooperate:
//!
//! * **MIA** ([`crate::mia`]) preprocesses the scene into an attributed
//!   occlusion graph (no trainable parameters).
//! * **PDR** — a light 2-layer GCN (`4 → 8 → 1`, hidden dim 8 as in §V-A.5)
//!   producing the prototype recommendation `r̃_t` and hidden state `h_t`.
//! * **LWP** — a 3-layer GCN over `[x̂_t ‖ Δ_t ‖ h_{t−1} ‖ r_{t−1}]`
//!   producing the preservation vector `σ`; the gate
//!   `r_t = m_t ⊗ [(1−σ)⊗r̃_t + σ⊗r_{t−1}]` balances continuity against
//!   de-occlusion.
//!
//! Training backpropagates the POSHGNN loss through the whole episode (the
//! recurrent gate links consecutive steps), with Adam at `lr = 1e-2`.

use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use xr_gnn::{Activation, GcnLayer};
use xr_tensor::{Adam, Matrix, Optimizer, ParamStore, Tape, Var};

use crate::loss::{poshgnn_loss, LossParams};
use crate::mia::{Mia, MiaCarry, MiaOutput, DELTA_DIM, FEATURE_DIM};
use crate::problem::TargetContext;
use crate::recommender::{threshold_decision, AfterRecommender};
use crate::view::StepView;

/// Ablation variants of POSHGNN (paper Table V).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoshVariant {
    /// MIA + PDR + LWP (the full model).
    Full,
    /// MIA + PDR, no LWP gate: `r_t = m_t ⊗ r̃_t`.
    PdrWithMia,
    /// PDR alone on raw features: no normalization, no mask, no gate.
    PdrOnly,
}

impl PoshVariant {
    /// Display name used in the ablation table.
    pub fn name(&self) -> &'static str {
        match self {
            PoshVariant::Full => "Full",
            PoshVariant::PdrWithMia => "PDR w/ MIA",
            PoshVariant::PdrOnly => "Only PDR",
        }
    }
}

/// POSHGNN hyperparameters (§V-A.5 defaults).
#[derive(Debug, Clone, Copy)]
pub struct PoshGnnConfig {
    /// Hidden dimension of both GNNs (paper: 8).
    pub hidden: usize,
    /// Loss hyperparameters `α`, `β`.
    pub loss: LossParams,
    /// Adam learning rate (paper: 1e-2).
    pub learning_rate: f64,
    /// Gradient-norm clip during BPTT.
    pub grad_clip: f64,
    /// Probability threshold converting `r_t` into a display decision.
    pub threshold: f64,
    /// Parameter-initialization seed.
    pub seed: u64,
    /// Which ablation variant to instantiate.
    pub variant: PoshVariant,
    /// Use the paper's literal symmetric edge-count occlusion penalty
    /// (`α·rᵀA_t r`) instead of the depth-weighted blocking refinement
    /// (`α·rᵀB_t r`). Kept for the loss-design ablation experiment.
    pub symmetric_penalty: bool,
    /// Retired: the dense N×N operator ablation was removed and every graph
    /// operator is CSR. Must stay `false`; [`PoshGnn::new`] panics otherwise.
    pub dense_kernels: bool,
    /// Training only: recompute MIA with [`Mia::compute`] at every step of
    /// every epoch instead of reading the one slab per episode
    /// ([`Mia::compute_episode`]) that every epoch shares. MIA is
    /// parameter-free, so both give the same bits; this reference exists for
    /// the differential oracle and A/B benchmarks. Inference ignores it: a
    /// recommend step always computes MIA from its own `(ctx, t)`. Defaults
    /// to `false`.
    pub fresh_mia: bool,
    /// Build a fresh `Tape` per training episode instead of resetting one
    /// pooled arena tape. Same bit-identical contract and purpose as
    /// `fresh_mia`. Training only: the default inference step records no
    /// tape, and [`PoshGnn::soft_recommend_on_tape`] always resets its own
    /// pooled tape. Defaults to `false`.
    pub fresh_tape: bool,
    /// Retired: the f32 serving twin was removed and inference serves in
    /// f64 only. Must stay `false`; [`PoshGnn::new`] panics otherwise.
    pub serve_f32: bool,
    /// Retired with `serve_f32` (it sampled the f32-vs-f64 drift monitor).
    /// Must stay `0`; [`PoshGnn::new`] panics otherwise.
    pub drift_sample: usize,
}

impl Default for PoshGnnConfig {
    fn default() -> Self {
        PoshGnnConfig {
            hidden: 8,
            loss: LossParams::default(),
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
}

/// The POSHGNN model.
pub struct PoshGnn {
    config: PoshGnnConfig,
    store: ParamStore,
    optimizer: Adam,
    mia: Mia,
    pdr1: GcnLayer,
    pdr2: GcnLayer,
    lwp1: GcnLayer,
    lwp2: GcnLayer,
    lwp3: GcnLayer,
    /// Inference state (`h_{t−1}`, `r_{t−1}`) and the buffers the tape-free
    /// step reuses at every step.
    serve: ServeBuffers,
    /// Arena tape reset (not reallocated) at every step of the tape
    /// inference path.
    infer_tape: Tape,
}

/// The recurrent state and the reusable buffers of an inference step. Each
/// matrix is reshaped only when `N` (or `hidden`) changes, so steady-state
/// steps of the tape-free path allocate nothing here.
#[derive(Debug, Default)]
struct ServeBuffers {
    /// Whether `h_prev`/`r_prev` hold the previous step of the running
    /// episode; otherwise the next step starts from zeros.
    has_prev: bool,
    /// `h_{t−1}` (`N × hidden`).
    h_prev: Matrix,
    /// `r_{t−1}` (`N × 1`).
    r_prev: Matrix,
    /// LWP's input `[x̂_t ‖ Δ_t ‖ h_{t−1} ‖ r_{t−1}]`; MIA writes the first 7
    /// columns and PDR reads the first 4 (`x̂_t`, or the raw features of
    /// "Only PDR").
    lwp_in: Matrix,
    /// `m_t` as `0.0`/`1.0`.
    mask: Vec<f64>,
    /// The graph terms of `A_{t−1}` and `A_t` that MIA's `Δ_t` reads,
    /// refilled from the context at every step.
    mia_prev: MiaCarry,
    mia_next: MiaCarry,
    /// `h_t`, `r̃_t`, the two hidden LWP layers, `σ` and `r_t`.
    h: Matrix,
    r_tilde: Matrix,
    z1: Matrix,
    z2: Matrix,
    sigma: Matrix,
    r: Matrix,
    /// One row's aggregate and projection inside a layer.
    scratch: Vec<f64>,
}

impl ServeBuffers {
    /// Whether a step on an `n`-user context continues from `h_prev`/`r_prev`.
    /// A context of another size starts from zeros.
    fn continues(&self, n: usize) -> bool {
        self.has_prev && self.r_prev.rows() == n
    }
}

impl PoshGnn {
    /// Builds a fresh (untrained) POSHGNN.
    ///
    /// # Panics
    ///
    /// If a retired field is set: `serve_f32: true`, `drift_sample > 0` or
    /// `dense_kernels: true`. The paths they selected were removed, and
    /// ignoring them would serve the default path to a caller who asked for
    /// something else.
    pub fn new(config: PoshGnnConfig) -> Self {
        assert!(!config.serve_f32, "PoshGnnConfig::serve_f32 is retired: the f32 serving path was removed");
        assert!(
            config.drift_sample == 0,
            "PoshGnnConfig::drift_sample is retired: the f32 drift monitor was removed"
        );
        assert!(
            !config.dense_kernels,
            "PoshGnnConfig::dense_kernels is retired: every graph operator is CSR"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut store = ParamStore::new();
        let h = config.hidden;
        let pdr1 = GcnLayer::new(&mut store, "pdr.0", FEATURE_DIM, h, Activation::Relu, &mut rng);
        let pdr2 = GcnLayer::new(&mut store, "pdr.1", h, 1, Activation::Sigmoid, &mut rng);
        let lwp_in = FEATURE_DIM + DELTA_DIM + h + 1;
        let lwp1 = GcnLayer::new(&mut store, "lwp.0", lwp_in, h, Activation::Relu, &mut rng);
        let lwp2 = GcnLayer::new(&mut store, "lwp.1", h, h, Activation::Relu, &mut rng);
        let lwp3 = GcnLayer::new(&mut store, "lwp.2", h, 1, Activation::Sigmoid, &mut rng);
        // Default-off inductive bias: with σ(-2) ≈ 0.12, an untrained model
        // recommends (and preserves) almost nothing; training must push
        // users above threshold on positive evidence. This is what makes the
        // thresholded output selective instead of saturated in dense rooms.
        pdr2.set_bias(&mut store, -2.0);
        lwp3.set_bias(&mut store, -2.0);
        let optimizer = Adam::with_lr(config.learning_rate);
        PoshGnn {
            config,
            store,
            optimizer,
            mia: Mia,
            pdr1,
            pdr2,
            lwp1,
            lwp2,
            lwp3,
            serve: ServeBuffers::default(),
            infer_tape: Tape::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &PoshGnnConfig {
        &self.config
    }

    /// Number of scalar trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.store.scalar_count()
    }

    /// One forward step on `tape`. Returns `(r_t, h_t)`. The GCN layers
    /// aggregate over the sparse mean-aggregation operator `D⁻¹A_t`. Only a
    /// tape that will run `backward` needs the operator's transpose;
    /// inference passes `backward = false` and never builds it.
    #[allow(clippy::too_many_arguments)] // internal: one arg per module input
    fn step_on_tape<'t>(
        &self,
        tape: &'t Tape,
        ctx: &TargetContext,
        t: usize,
        mia_out: &MiaOutput,
        h_prev: Var<'t>,
        r_prev: Var<'t>,
        backward: bool,
    ) -> (Var<'t>, Var<'t>) {
        let csr = mia_out.adjacency_norm_csr.clone();
        let agg = if backward {
            tape.sparse_with_transpose(csr, mia_out.adjacency_norm_csr_t())
        } else {
            tape.sparse(csr)
        };
        let variant = self.config.variant;
        let features = if variant == PoshVariant::PdrOnly {
            tape.constant(self.mia.raw_features(ctx, t))
        } else {
            tape.constant_rc(mia_out.features.clone())
        };

        // PDR: h_t then r̃_t (Eq. 1 stack).
        let (h_t, r_tilde) = {
            let _pdr = xr_obs::span!("poshgnn.pdr.forward");
            let h_t = self.pdr1.forward(tape, &self.store, features, agg);
            let r_tilde = self.pdr2.forward(tape, &self.store, h_t, agg);
            (h_t, r_tilde)
        };

        let mask = tape.constant_rc(mia_out.mask.clone());
        let r_t = match variant {
            PoshVariant::PdrOnly => r_tilde,
            PoshVariant::PdrWithMia => mask * r_tilde,
            PoshVariant::Full => {
                let _lwp = xr_obs::span!("poshgnn.lwp.forward");
                let delta = tape.constant_rc(mia_out.delta.clone());
                let lwp_in = tape.concat_cols(&[features, delta, h_prev, r_prev]);
                let z1 = self.lwp1.forward(tape, &self.store, lwp_in, agg);
                let z2 = self.lwp2.forward(tape, &self.store, z1, agg);
                let sigma = self.lwp3.forward(tape, &self.store, z2, agg);
                // preservation gate, as a single fused node
                mask.gate_blend(sigma, r_tilde, r_prev)
            }
        };
        (r_t, h_t)
    }

    /// Builds the whole-episode Def. 7 loss on `tape`: the mean per-step
    /// [`poshgnn_loss`], with the recurrent gate linking consecutive steps so
    /// the social-presence term backpropagates across time. This is exactly
    /// the objective `train` descends; it is public so verification tooling
    /// (the `xr_check` finite-difference gradient checker) can differentiate
    /// the same BPTT graph without duplicating the wiring.
    pub fn episode_loss<'t>(&self, tape: &'t Tape, ctx: &TargetContext) -> Var<'t> {
        self.episode_loss_impl(tape, ctx, |t| Rc::new(self.mia.compute(ctx, t)))
    }

    /// [`PoshGnn::episode_loss`] reading MIA from a precomputed per-episode
    /// slab (see [`Mia::compute_episode`]) instead of recomputing it. The
    /// graph, arithmetic, and result are bit-identical — MIA has no
    /// parameters, so its output cannot change between epochs — which the
    /// cached-vs-fresh differential subject in `xr_check` pins.
    pub fn episode_loss_cached<'t>(
        &self,
        tape: &'t Tape,
        ctx: &TargetContext,
        slab: &[Rc<MiaOutput>],
    ) -> Var<'t> {
        assert_eq!(slab.len(), ctx.t_max() + 1, "MIA slab does not cover the episode");
        self.episode_loss_impl(tape, ctx, |t| slab[t].clone())
    }

    fn episode_loss_impl<'t>(
        &self,
        tape: &'t Tape,
        ctx: &TargetContext,
        mut mia_at: impl FnMut(usize) -> Rc<MiaOutput>,
    ) -> Var<'t> {
        let n = ctx.n;
        let mut h_prev = tape.constant_zeros(n, self.config.hidden);
        let mut r_prev = tape.constant_zeros(n, 1);
        let mut total: Option<Var<'_>> = None;
        for t in 0..=ctx.t_max() {
            let step_timer = xr_obs::start_timer();
            let mia_out = mia_at(t);
            let (r_t, h_t) = self.step_on_tape(tape, ctx, t, &mia_out, h_prev, r_prev, true);
            let penalty = if self.config.symmetric_penalty {
                tape.sparse_with_transpose(mia_out.adjacency_csr.clone(), mia_out.adjacency_csr_t())
            } else {
                tape.sparse_with_transpose(mia_out.blocking_csr.clone(), mia_out.blocking_csr_t())
            };
            let l =
                poshgnn_loss(tape, r_t, r_prev, &mia_out.p_hat, &mia_out.s_hat, penalty, self.config.loss);
            total = Some(match total {
                Some(acc) => acc + l,
                None => l,
            });
            h_prev = h_t;
            r_prev = r_t;
            xr_obs::observe_since("poshgnn.train.step.ms", &[], step_timer);
        }
        let t_steps = (ctx.t_max() + 1) as f64;
        total.expect("episode has at least one step").scale(1.0 / t_steps)
    }

    /// Trains on the given target contexts for `epochs` passes, returning
    /// the mean per-step loss after each epoch. One BPTT tape spans each
    /// episode, so gradients flow through the preservation gate across time.
    pub fn train(&mut self, contexts: &[TargetContext], epochs: usize) -> Vec<f64> {
        let _span = xr_obs::span!("poshgnn.train", epochs = epochs, episodes = contexts.len());
        // MIA depends only on the contexts, so the cached path pays its cost
        // once here instead of `epochs ×` times inside the loop.
        let slabs: Option<Vec<Vec<Rc<MiaOutput>>>> = (!self.config.fresh_mia)
            .then(|| contexts.iter().map(|ctx| self.mia.compute_episode(ctx)).collect());
        let arena = Tape::new();
        let mut history = Vec::with_capacity(epochs);
        for epoch in 0..epochs {
            let _epoch_span = xr_obs::span!("poshgnn.train.epoch", epoch = epoch);
            let mut epoch_loss = 0.0;
            let mut steps = 0usize;
            for (i, ctx) in contexts.iter().enumerate() {
                let episode_timer = xr_obs::start_timer();
                let fresh;
                let tape = if self.config.fresh_tape {
                    fresh = Tape::new();
                    &fresh
                } else {
                    arena.reset();
                    &arena
                };
                let loss = match &slabs {
                    Some(s) => self.episode_loss_cached(tape, ctx, &s[i]),
                    None => self.episode_loss(tape, ctx),
                };
                epoch_loss += loss.scalar();
                steps += 1;
                loss.backward(&mut self.store);
                let grad_norm = self.store.clip_grad_norm(self.config.grad_clip);
                xr_obs::observe("poshgnn.train.grad_norm", &[], grad_norm);
                self.optimizer.step(&mut self.store);
                xr_obs::observe_since("poshgnn.train.episode.ms", &[], episode_timer);
            }
            let mean_loss = epoch_loss / steps.max(1) as f64;
            xr_obs::gauge_set("poshgnn.train.loss", &[], mean_loss);
            history.push(mean_loss);
        }
        history
    }

    /// The soft recommendation `r_t` for one step during inference,
    /// advancing the episode state.
    ///
    /// Serves the tape-free step: MIA writes only `x̂_t`, `Δ_t` and `m_t`
    /// into reused buffers, and each GCN layer aggregates straight over the
    /// occlusion graph's rows ([`GcnLayer::forward_mean_into`]). MIA is
    /// computed from `(ctx, t)` alone, reading only ticks `t − 1` and `t`.
    /// The result is bit-identical to [`PoshGnn::soft_recommend_on_tape`].
    pub fn soft_recommend(&mut self, ctx: &TargetContext, t: usize) -> Vec<f64> {
        let _span = xr_obs::span!("poshgnn.recommend.step", t = t, n = ctx.n);
        let (n, hidden, variant) = (ctx.n, self.config.hidden, self.config.variant);
        let PoshGnn { store, mia, pdr1, pdr2, lwp1, lwp2, lwp3, serve: s, .. } = self;
        let graph = &ctx.occlusion[t];
        let width = FEATURE_DIM + DELTA_DIM + hidden + 1;
        if s.lwp_in.shape() != (n, width) {
            s.lwp_in = Matrix::zeros(n, width);
        }
        if !s.continues(n) {
            s.h_prev = Matrix::zeros(n, hidden);
            s.r_prev = Matrix::zeros(n, 1);
        }
        if s.r.shape() != (n, 1) {
            s.r = Matrix::zeros(n, 1);
        }
        s.mask.resize(n, 0.0);
        if variant == PoshVariant::PdrOnly {
            mia.raw_features_into(ctx, t, &mut s.lwp_in);
        } else {
            mia.serve_into(ctx, t, &mut s.mia_prev, &mut s.mia_next, &mut s.lwp_in, &mut s.mask);
        }

        // PDR: h_t then r̃_t (Eq. 1 stack).
        {
            let _pdr = xr_obs::span!("poshgnn.pdr.forward");
            pdr1.forward_mean_into(store, graph, &s.lwp_in, &mut s.h, &mut s.scratch);
            pdr2.forward_mean_into(store, graph, &s.h, &mut s.r_tilde, &mut s.scratch);
        }
        let r = s.r.as_mut_slice();
        match variant {
            PoshVariant::PdrOnly => r.copy_from_slice(s.r_tilde.as_slice()),
            PoshVariant::PdrWithMia => {
                for ((o, &m), &rt) in r.iter_mut().zip(&s.mask).zip(s.r_tilde.as_slice()) {
                    *o = m * rt;
                }
            }
            PoshVariant::Full => {
                let _lwp = xr_obs::span!("poshgnn.lwp.forward");
                let at = FEATURE_DIM + DELTA_DIM;
                for i in 0..n {
                    let row = s.lwp_in.row_mut(i);
                    row[at..at + hidden].copy_from_slice(s.h_prev.row(i));
                    row[at + hidden] = s.r_prev[(i, 0)];
                }
                lwp1.forward_mean_into(store, graph, &s.lwp_in, &mut s.z1, &mut s.scratch);
                lwp2.forward_mean_into(store, graph, &s.z1, &mut s.z2, &mut s.scratch);
                lwp3.forward_mean_into(store, graph, &s.z2, &mut s.sigma, &mut s.scratch);
                // preservation gate: m ⊙ ((1 − σ) ⊙ r̃ + σ ⊙ r_{t−1}), with
                // `Var::gate_blend`'s grouping
                let gate = s
                    .mask
                    .iter()
                    .zip(s.sigma.as_slice())
                    .zip(s.r_tilde.as_slice().iter().zip(s.r_prev.as_slice()));
                for (o, ((&m, &sg), (&rt, &rp))) in r.iter_mut().zip(gate) {
                    *o = m * ((1.0 - sg) * rt + sg * rp);
                }
            }
        }
        std::mem::swap(&mut s.h, &mut s.h_prev);
        std::mem::swap(&mut s.r, &mut s.r_prev);
        s.has_prev = true;
        s.r_prev.as_slice().to_vec()
    }

    /// The inference step on the autodiff tape: the reference
    /// [`PoshGnn::soft_recommend`] is pinned against (the `xr_check`
    /// `FusedVsTapeStep` subject). It shares the episode state with the
    /// tape-free step.
    pub fn soft_recommend_on_tape(&mut self, ctx: &TargetContext, t: usize) -> Vec<f64> {
        let _span = xr_obs::span!("poshgnn.recommend.step", t = t, n = ctx.n);
        let tape = std::mem::take(&mut self.infer_tape);
        tape.reset();
        let (h_prev, r_prev) = if self.serve.continues(ctx.n) {
            (tape.constant_from(&self.serve.h_prev), tape.constant_from(&self.serve.r_prev))
        } else {
            (tape.constant_zeros(ctx.n, self.config.hidden), tape.constant_zeros(ctx.n, 1))
        };
        let mia_out = self.mia.compute(ctx, t);
        let (r_t, h_t) = self.step_on_tape(&tape, ctx, t, &mia_out, h_prev, r_prev, false);
        self.serve.h_prev = h_t.value();
        self.serve.r_prev = r_t.value();
        self.serve.has_prev = true;
        self.infer_tape = tape;
        self.serve.r_prev.as_slice().to_vec()
    }

    /// Read-only view of the parameter store: block names, values, and the
    /// gradients of the most recent backward pass.
    pub fn params(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable access to the parameter store. Intended for verification
    /// tooling (finite-difference perturbation in `xr_check`); training code
    /// should go through [`PoshGnn::train`].
    pub fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Parameter snapshot for checkpointing.
    pub fn export_params(&self) -> Vec<f64> {
        self.store.export_flat()
    }

    /// Restores a snapshot from [`PoshGnn::export_params`].
    pub fn import_params(&mut self, flat: &[f64]) -> bool {
        self.store.import_flat(flat)
    }
}

impl AfterRecommender for PoshGnn {
    fn name(&self) -> String {
        match self.config.variant {
            PoshVariant::Full => "POSHGNN".to_string(),
            v => format!("POSHGNN ({})", v.name()),
        }
    }

    fn begin_episode(&mut self, _view: &StepView<'_>) {
        self.serve.has_prev = false;
    }

    fn recommend_step(&mut self, view: &StepView<'_>) -> Vec<bool> {
        let soft = self.soft_recommend(view.ctx(), view.t());
        threshold_decision(&soft, view.target(), self.config.threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::evaluate_sequence;
    use xr_datasets::{Dataset, DatasetKind, ScenarioConfig};

    fn small_ctx(seed: u64) -> TargetContext {
        let dataset = Dataset::generate(DatasetKind::Hubs, 1);
        let cfg = ScenarioConfig {
            n_participants: 12,
            vr_fraction: 0.5,
            time_steps: 8,
            room_side: 6.0,
            body_radius: 0.15,
            seed,
        };
        let scenario = dataset.sample_scenario(&cfg);
        TargetContext::new(&scenario, 0, 0.5)
    }

    #[test]
    fn model_builds_with_expected_parameter_count() {
        let model = PoshGnn::new(PoshGnnConfig::default());
        // Each GcnLayer holds w_self (in×out), w_neigh (in×out), bias (out).
        // PDR: (4·8 + 4·8 + 8) + (8·1 + 8·1 + 1)
        // LWP: (16·8 + 16·8 + 8) + (8·8 + 8·8 + 8) + (8·1 + 8·1 + 1)
        let pdr = (4 * 8 + 4 * 8 + 8) + (8 + 8 + 1);
        let lwp = (16 * 8 + 16 * 8 + 8) + (8 * 8 + 8 * 8 + 8) + (8 + 8 + 1);
        assert_eq!(model.parameter_count(), pdr + lwp);
    }

    #[test]
    fn untrained_model_emits_valid_probabilities() {
        let ctx = small_ctx(3);
        let mut model = PoshGnn::new(PoshGnnConfig::default());
        model.begin_episode(&StepView::new(&ctx, 0));
        let soft = model.soft_recommend(&ctx, 0);
        assert_eq!(soft.len(), ctx.n);
        assert!(soft.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn training_reduces_loss() {
        let ctx = small_ctx(4);
        let mut model = PoshGnn::new(PoshGnnConfig::default());
        let history = model.train(std::slice::from_ref(&ctx), 25);
        let first = history[0];
        let last = *history.last().unwrap();
        assert!(last < first, "loss did not improve: {first} → {last}");
        assert!(last.is_finite());
    }

    #[test]
    fn trained_model_beats_untrained_on_utility() {
        let train_ctx = small_ctx(5);
        let eval_ctx = small_ctx(6);

        let mut untrained = PoshGnn::new(PoshGnnConfig::default());
        let recs_untrained = untrained.run_episode(&eval_ctx);
        let before = evaluate_sequence(&eval_ctx, &recs_untrained);

        let mut model = PoshGnn::new(PoshGnnConfig::default());
        model.train(std::slice::from_ref(&train_ctx), 40);
        let recs = model.run_episode(&eval_ctx);
        let after = evaluate_sequence(&eval_ctx, &recs);

        assert!(
            after.after_utility >= before.after_utility,
            "training hurt utility: {} → {}",
            before.after_utility,
            after.after_utility
        );
    }

    #[test]
    fn episode_state_resets() {
        let ctx = small_ctx(7);
        let mut model = PoshGnn::new(PoshGnnConfig::default());
        let a = model.run_episode(&ctx);
        let b = model.run_episode(&ctx);
        assert_eq!(a, b, "episodes must be independent and deterministic");
    }

    #[test]
    fn variants_have_distinct_names_and_run() {
        for variant in [PoshVariant::Full, PoshVariant::PdrWithMia, PoshVariant::PdrOnly] {
            let ctx = small_ctx(8);
            let mut model = PoshGnn::new(PoshGnnConfig { variant, ..Default::default() });
            let recs = model.run_episode(&ctx);
            assert_eq!(recs.len(), ctx.t_max() + 1);
            assert!(model.name().contains("POSHGNN"));
        }
    }

    #[test]
    fn pdr_only_ignores_candidate_mask() {
        // With the Full variant, masked-out users can never be recommended.
        let ctx = small_ctx(9);
        let mut full = PoshGnn::new(PoshGnnConfig::default());
        full.begin_episode(&StepView::new(&ctx, 0));
        let soft = full.soft_recommend(&ctx, 0);
        #[allow(clippy::needless_range_loop)] // w is a user id, not a position
        for w in 0..ctx.n {
            if !ctx.candidate_mask[0][w] {
                assert_eq!(soft[w], 0.0, "masked candidate leaked through");
            }
        }
    }

    #[test]
    #[should_panic(expected = "serve_f32 is retired")]
    fn retired_serve_f32_is_rejected() {
        PoshGnn::new(PoshGnnConfig { serve_f32: true, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "drift_sample is retired")]
    fn retired_drift_sample_is_rejected() {
        PoshGnn::new(PoshGnnConfig { drift_sample: 1, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "dense_kernels is retired")]
    fn retired_dense_kernels_is_rejected() {
        PoshGnn::new(PoshGnnConfig { dense_kernels: true, ..Default::default() });
    }

    /// One inference call in a scripted serving sequence.
    #[derive(Clone, Copy)]
    enum Call<'a> {
        Begin(&'a TargetContext),
        Step(&'a TargetContext, usize),
    }

    /// The soft outputs of every `Step` in `calls`, as raw bits.
    fn soft_bits(model: &mut PoshGnn, calls: &[Call<'_>]) -> Vec<Vec<u64>> {
        calls
            .iter()
            .filter_map(|call| match *call {
                Call::Begin(ctx) => {
                    model.begin_episode(&StepView::new(ctx, 0));
                    None
                }
                Call::Step(ctx, t) => {
                    Some(model.soft_recommend(ctx, t).iter().map(|x| x.to_bits()).collect())
                }
            })
            .collect()
    }

    #[test]
    fn a_context_of_another_size_restarts_the_recurrent_state() {
        let a = small_ctx(19);
        let b = {
            let dataset = Dataset::generate(DatasetKind::Hubs, 1);
            let scenario = dataset.sample_scenario(&ScenarioConfig {
                n_participants: 16,
                vr_fraction: 0.5,
                time_steps: 8,
                room_side: 6.0,
                body_radius: 0.15,
                seed: 20,
            });
            TargetContext::new(&scenario, 0, 0.5)
        };
        assert_ne!(a.n, b.n);
        let switched = soft_bits(
            &mut PoshGnn::new(PoshGnnConfig::default()),
            &[Call::Begin(&a), Call::Step(&a, 0), Call::Step(&b, 1)],
        );
        let fresh =
            soft_bits(&mut PoshGnn::new(PoshGnnConfig::default()), &[Call::Begin(&b), Call::Step(&b, 1)]);
        assert_eq!(switched[1], fresh[0], "the step on b must start from zero state");
    }

    #[test]
    fn a_context_replaced_in_place_mid_episode_gets_its_own_mia() {
        // Seeds 16 and 17 give different t = 0 graphs, so a Δ_1 built from
        // the old context's A_0 differs from the new context's own Δ_1.
        let mut model = PoshGnn::new(PoshGnnConfig::default());
        let mut slot = small_ctx(16);
        model.begin_episode(&StepView::new(&slot, 0));
        model.soft_recommend(&slot, 0);
        slot = small_ctx(17);
        model.soft_recommend(&slot, 1);
        let want = Mia.compute(&slot, 1).delta;
        let bits = |row: &[f64]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for i in 0..slot.n {
            let got = &model.serve.lwp_in.row(i)[FEATURE_DIM..FEATURE_DIM + DELTA_DIM];
            assert_eq!(bits(got), bits(want.row(i)), "Δ_1 of user {i}");
        }
    }

    #[test]
    fn export_import_round_trip_preserves_behavior() {
        let ctx = small_ctx(10);
        let mut a = PoshGnn::new(PoshGnnConfig::default());
        a.train(std::slice::from_ref(&ctx), 5);
        let snapshot = a.export_params();
        let recs_a = a.run_episode(&ctx);

        let mut b = PoshGnn::new(PoshGnnConfig::default());
        assert!(b.import_params(&snapshot));
        let recs_b = b.run_episode(&ctx);
        assert_eq!(recs_a, recs_b);
    }
}
