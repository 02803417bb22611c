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
use xr_tensor::{Adam, Matrix, Optimizer, ParamStore, Tape, TapeLinOp, Var};

use crate::loss::{poshgnn_loss, LossParams};
use crate::mia::{Mia, MiaOutput};
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
    /// Run GNN aggregation and the loss penalty on dense N×N constants
    /// instead of the CSR sparse kernels. The sparse path (default) is
    /// mathematically identical — this flag exists for cross-checking and
    /// for measuring the sparse speedup in benchmarks.
    pub dense_kernels: bool,
    /// Recompute MIA at every (episode, step) instead of precomputing one
    /// shared slab per episode. MIA is parameter-free, so the cached path
    /// (default) is bit-identical; this escape hatch exists for the
    /// differential oracle and A/B benchmarks. Defaults to `false`.
    pub fresh_mia: bool,
    /// Build a fresh `Tape` per episode instead of resetting one pooled
    /// arena tape. Same bit-identical contract and purpose as `fresh_mia`.
    /// Defaults to `false`.
    pub fresh_tape: bool,
    /// Serve inference on the f32 SIMD path ([`crate::serve`]): weights are
    /// down-converted once, and each recommend step derives the scene, MIA,
    /// and forward pass entirely in f32. Training is unaffected — it always
    /// runs the f64 tape. The f32 stream is pinned against the f64 stream by
    /// a tolerance + top-k-overlap differential subject in `xr_check`.
    /// Defaults to the `AFTER_SERVE_F32=1` environment variable.
    pub serve_f32: bool,
    /// Online serve-path drift monitoring: when `serve_f32` is on and this
    /// is `k > 0`, every `k`-th episode also runs the f64 reference path and
    /// exports top-k-overlap / elementwise-error drift metrics through
    /// `xr_obs` (sampling is per-episode so both recurrent states stay
    /// coherent). `0` disables the shadow comparison. Defaults to the
    /// `AFTER_DRIFT_SAMPLE` environment variable.
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
            serve_f32: std::env::var("AFTER_SERVE_F32").map(|v| v == "1").unwrap_or(false),
            drift_sample: std::env::var("AFTER_DRIFT_SAMPLE")
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0),
        }
    }
}

/// Scene-feature width produced by MIA (p̂, ŝ, distance, interface).
const FEATURE_DIM: usize = 4;
/// Width of `Δ_t`.
const DELTA_DIM: usize = 3;

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
    /// Inference state: (`h_{t-1}`, `r_{t-1}`), shared into each step's tape
    /// via `constant_rc` instead of cloned.
    episode_state: Option<(Rc<Matrix>, Rc<Matrix>)>,
    /// Per-episode MIA cache for inference, armed (empty) by
    /// `begin_episode` and grown lazily as steps are served — never ahead
    /// of the tick being recommended, so inference stays causal.
    episode_mia: Option<Vec<Option<Rc<MiaOutput>>>>,
    /// Arena tape reset (not reallocated) at every inference step.
    infer_tape: Tape,
    /// Down-converted f32 weights for the serving path; built lazily on the
    /// first f32 recommend step and invalidated whenever parameters change
    /// (training, import, mutable access).
    serve_net: Option<Rc<crate::serve::ServeNet>>,
    /// Per-episode f32 serving state (recurrent `(h, r)`, previous occlusion
    /// graph, episode-constant inputs); reset by `begin_episode`.
    serve_episode: Option<crate::serve::ServeEpisode>,
    /// Episodes started so far — the clock for drift-monitor sampling.
    episodes_seen: u64,
    /// Whether the current episode runs the f64 shadow path alongside f32
    /// for drift metrics. Decided once per episode at `begin_episode`, so
    /// both recurrent states advance together for the whole episode.
    drift_shadow: bool,
}

impl PoshGnn {
    /// Builds a fresh (untrained) POSHGNN.
    pub fn new(config: PoshGnnConfig) -> Self {
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
            episode_state: None,
            episode_mia: None,
            infer_tape: Tape::new(),
            serve_net: None,
            serve_episode: None,
            episodes_seen: 0,
            drift_shadow: false,
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

    /// One forward step on `tape`. Returns `(r_t, h_t)`. `agg` is the
    /// mean-aggregation operator (`D⁻¹A_t`) — a sparse [`SparseVar`] on the
    /// default path, or a dense constant [`Var`] under
    /// [`PoshGnnConfig::dense_kernels`].
    #[allow(clippy::too_many_arguments)] // internal: one arg per module input
    fn step_on_tape<'t, A: TapeLinOp<'t> + Copy>(
        &self,
        tape: &'t Tape,
        ctx: &TargetContext,
        t: usize,
        mia_out: &MiaOutput,
        agg: A,
        h_prev: Var<'t>,
        r_prev: Var<'t>,
    ) -> (Var<'t>, Var<'t>) {
        let variant = self.config.variant;
        let features = if variant == PoshVariant::PdrOnly {
            tape.constant(self.mia.raw_features(ctx, t))
        } else {
            tape.constant_rc(mia_out.features.clone())
        };

        // PDR: h_t then r̃_t (Eq. 1 stack).
        let (h_t, r_tilde) = {
            let _pdr = xr_obs::span!("poshgnn.pdr.forward");
            let h_t = self.pdr1.forward_agg(tape, &self.store, features, &agg);
            let r_tilde = self.pdr2.forward_agg(tape, &self.store, h_t, &agg);
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
                let z1 = self.lwp1.forward_agg(tape, &self.store, lwp_in, &agg);
                let z2 = self.lwp2.forward_agg(tape, &self.store, z1, &agg);
                let sigma = self.lwp3.forward_agg(tape, &self.store, z2, &agg);
                // preservation gate, as a single fused node
                mask.gate_blend(sigma, r_tilde, r_prev)
            }
        };
        (r_t, h_t)
    }

    /// Dispatches one step to the sparse or dense aggregation kernel.
    fn step_dispatch<'t>(
        &self,
        tape: &'t Tape,
        ctx: &TargetContext,
        t: usize,
        mia_out: &MiaOutput,
        h_prev: Var<'t>,
        r_prev: Var<'t>,
    ) -> (Var<'t>, Var<'t>) {
        if self.config.dense_kernels {
            let agg = tape.constant_rc(mia_out.adjacency_norm.clone());
            self.step_on_tape(tape, ctx, t, mia_out, agg, h_prev, r_prev)
        } else {
            let agg = tape.sparse_with_transpose(
                mia_out.adjacency_norm_csr.clone(),
                mia_out.adjacency_norm_csr_t.clone(),
            );
            self.step_on_tape(tape, ctx, t, mia_out, agg, h_prev, r_prev)
        }
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
            let (r_t, h_t) = self.step_dispatch(tape, ctx, t, &mia_out, h_prev, r_prev);
            let l = if self.config.dense_kernels {
                let penalty = if self.config.symmetric_penalty {
                    tape.constant_rc(mia_out.adjacency.clone())
                } else {
                    tape.constant_rc(mia_out.blocking.clone())
                };
                poshgnn_loss(tape, r_t, r_prev, &mia_out.p_hat, &mia_out.s_hat, penalty, self.config.loss)
            } else {
                let penalty = if self.config.symmetric_penalty {
                    tape.sparse_with_transpose(mia_out.adjacency_csr.clone(), mia_out.adjacency_csr_t.clone())
                } else {
                    tape.sparse_with_transpose(mia_out.blocking_csr.clone(), mia_out.blocking_csr_t.clone())
                };
                poshgnn_loss(tape, r_t, r_prev, &mia_out.p_hat, &mia_out.s_hat, penalty, self.config.loss)
            };
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
        self.invalidate_serve_net("train"); // weights changed
        history
    }

    /// The soft recommendation `r_t` for one step during inference,
    /// advancing the episode state. Routes to the f32 serving path when
    /// [`PoshGnnConfig::serve_f32`] is on; the f64 tape path otherwise.
    pub fn soft_recommend(&mut self, ctx: &TargetContext, t: usize) -> Vec<f64> {
        let _span = xr_obs::span!("poshgnn.recommend.step", t = t, n = ctx.n);
        if self.config.serve_f32 {
            let out = self.soft_recommend_f32(ctx, t);
            if self.drift_shadow {
                let reference = self.soft_recommend_f64(ctx, t);
                self.record_serve_drift(ctx, t, &out, &reference);
            }
            return out;
        }
        self.soft_recommend_f64(ctx, t)
    }

    /// The f64 tape inference step — the reference path, also run as the
    /// drift monitor's shadow when sampled.
    fn soft_recommend_f64(&mut self, ctx: &TargetContext, t: usize) -> Vec<f64> {
        let tape = std::mem::take(&mut self.infer_tape);
        tape.reset();
        let (h_prev, r_prev) = match self.episode_state.take() {
            Some((h, r)) => (tape.constant_rc(h), tape.constant_rc(r)),
            None => (tape.constant_zeros(ctx.n, self.config.hidden), tape.constant_zeros(ctx.n, 1)),
        };
        // Serve `t` from the episode cache, computing the entry on first
        // use (the cache is armed empty by `begin_episode` — growing it
        // lazily keeps inference causal). Fresh-MIA mode and direct calls
        // outside an episode compute without caching.
        let mia_out: Rc<MiaOutput> = match &mut self.episode_mia {
            Some(cache) => {
                if cache.len() <= t {
                    cache.resize(t + 1, None);
                }
                if cache[t].is_none() {
                    cache[t] = Some(Rc::new(self.mia.compute(ctx, t)));
                }
                Rc::clone(cache[t].as_ref().unwrap())
            }
            None => Rc::new(self.mia.compute(ctx, t)),
        };
        let (r_t, h_t) = self.step_dispatch(&tape, ctx, t, &mia_out, h_prev, r_prev);
        let r = Rc::new(r_t.value());
        let out = r.as_slice().to_vec();
        self.episode_state = Some((Rc::new(h_t.value()), r));
        self.infer_tape = tape;
        out
    }

    /// The f32 serving step: lazily down-converts the weights, lazily
    /// (re-)creates the per-episode f32 state, and runs the tape-free
    /// [`crate::serve`] forward pass.
    fn soft_recommend_f32(&mut self, ctx: &TargetContext, t: usize) -> Vec<f64> {
        let net = match &self.serve_net {
            Some(net) => Rc::clone(net),
            None => {
                let build_timer = xr_obs::start_timer();
                let net = Rc::new(crate::serve::ServeNet::from_layers(
                    &self.store,
                    &self.pdr1,
                    &self.pdr2,
                    &self.lwp1,
                    &self.lwp2,
                    &self.lwp3,
                    self.config.variant,
                ));
                xr_obs::observe_since("poshgnn.serve.net_build.ms", &[], build_timer);
                xr_obs::counter_add("poshgnn.serve.net_build", &[], 1);
                self.serve_net = Some(Rc::clone(&net));
                net
            }
        };
        // direct calls outside an episode (or a context switch) start fresh
        if self.serve_episode.as_ref().is_none_or(|e| e.n() != ctx.n) {
            self.serve_episode = Some(crate::serve::ServeEpisode::new(ctx, self.config.hidden));
        }
        self.serve_episode.as_mut().expect("just ensured").step(&net, ctx, t)
    }

    /// Exports drift metrics for one sampled step: top-5 ranking overlap and
    /// max elementwise error between the f32 decision scores and the f64
    /// reference, with a warning when agreement falls below the same 0.6
    /// floor the `xr_check` differential subject enforces offline.
    fn record_serve_drift(&self, ctx: &TargetContext, t: usize, served: &[f64], reference: &[f64]) {
        const DRIFT_TOP_K: usize = 5;
        const OVERLAP_FLOOR: f64 = 0.6;
        let overlap = crate::metrics::top_k_overlap(served, reference, DRIFT_TOP_K);
        let max_abs_err = served.iter().zip(reference).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
        xr_obs::counter_add("poshgnn.serve.drift.samples", &[], 1);
        xr_obs::observe("poshgnn.serve.drift.topk_overlap", &[], overlap);
        xr_obs::observe("poshgnn.serve.drift.max_abs_err", &[], max_abs_err);
        if overlap < OVERLAP_FLOOR {
            xr_obs::warn_event!(
                "poshgnn.serve.drift.low_overlap",
                t = t,
                n = ctx.n,
                overlap = format!("{overlap:.3}"),
                max_abs_err = format!("{max_abs_err:.2e}")
            );
        }
    }

    /// Drops the stale f32 weight down-conversion (if one was built),
    /// counting the invalidation by cause so serving telemetry shows how
    /// often rebuilds happen and why.
    fn invalidate_serve_net(&mut self, cause: &'static str) {
        if self.serve_net.take().is_some() {
            xr_obs::counter_add("poshgnn.serve.net_invalidated", &[("cause", cause)], 1);
        }
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
        self.invalidate_serve_net("params_mut"); // caller may mutate weights
        &mut self.store
    }

    /// Parameter snapshot for checkpointing.
    pub fn export_params(&self) -> Vec<f64> {
        self.store.export_flat()
    }

    /// Restores a snapshot from [`PoshGnn::export_params`].
    pub fn import_params(&mut self, flat: &[f64]) -> bool {
        self.invalidate_serve_net("import"); // weights changed
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
        self.episode_state = None;
        self.serve_episode = None;
        // arm the cache empty: entries appear as ticks are served, so the
        // model never computes MIA ahead of the step it is recommending
        self.episode_mia = (!self.config.fresh_mia).then(Vec::new);
        // decide drift sampling per episode: a mid-episode toggle would
        // desynchronize the f64 shadow's recurrent state
        self.drift_shadow = self.config.serve_f32
            && self.config.drift_sample > 0
            && self.episodes_seen.is_multiple_of(self.config.drift_sample as u64)
            && xr_obs::is_active();
        self.episodes_seen += 1;
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
    fn sparse_and_dense_kernels_produce_identical_recommendations() {
        // The CSR path is an implementation detail: training + inference
        // under dense_kernels must give the same decisions.
        let train_ctx = small_ctx(11);
        let eval_ctx = small_ctx(12);

        let mut sparse = PoshGnn::new(PoshGnnConfig::default());
        sparse.train(std::slice::from_ref(&train_ctx), 10);
        let recs_sparse = sparse.run_episode(&eval_ctx);

        let mut dense = PoshGnn::new(PoshGnnConfig { dense_kernels: true, ..Default::default() });
        dense.train(std::slice::from_ref(&train_ctx), 10);
        let recs_dense = dense.run_episode(&eval_ctx);

        assert_eq!(recs_sparse, recs_dense);
    }

    #[test]
    fn f32_serving_tracks_f64_within_tolerance() {
        let train_ctx = small_ctx(13);
        let eval_ctx = small_ctx(14);
        let mut m64 = PoshGnn::new(PoshGnnConfig::default());
        m64.train(std::slice::from_ref(&train_ctx), 10);
        let snapshot = m64.export_params();
        let mut m32 = PoshGnn::new(PoshGnnConfig { serve_f32: true, ..Default::default() });
        assert!(m32.import_params(&snapshot));
        m64.begin_episode(&StepView::new(&eval_ctx, 0));
        m32.begin_episode(&StepView::new(&eval_ctx, 0));
        for t in 0..=eval_ctx.t_max() {
            let s64 = m64.soft_recommend(&eval_ctx, t);
            let s32 = m32.soft_recommend(&eval_ctx, t);
            assert_eq!(s64.len(), s32.len());
            for (w, (a, b)) in s64.iter().zip(&s32).enumerate() {
                assert!((a - b).abs() < 1e-3, "t={t} user {w}: f64 {a} vs f32 {b}");
            }
        }
    }

    #[test]
    fn f32_serving_masked_candidates_stay_zero() {
        let ctx = small_ctx(9);
        let mut model = PoshGnn::new(PoshGnnConfig { serve_f32: true, ..Default::default() });
        model.begin_episode(&StepView::new(&ctx, 0));
        let soft = model.soft_recommend(&ctx, 0);
        #[allow(clippy::needless_range_loop)] // w is a user id, not a position
        for w in 0..ctx.n {
            if !ctx.candidate_mask[0][w] {
                assert_eq!(soft[w], 0.0, "masked candidate leaked through the f32 path");
            }
        }
    }

    #[test]
    fn f32_serving_invalidates_on_weight_changes() {
        let ctx = small_ctx(15);
        let mut model = PoshGnn::new(PoshGnnConfig { serve_f32: true, ..Default::default() });
        model.begin_episode(&StepView::new(&ctx, 0));
        let before = model.soft_recommend(&ctx, 0);
        model.train(std::slice::from_ref(&ctx), 15);
        model.begin_episode(&StepView::new(&ctx, 0));
        let after = model.soft_recommend(&ctx, 0);
        assert_ne!(before, after, "serve net must be rebuilt from retrained weights");
    }

    #[test]
    fn drift_monitor_exports_high_overlap_on_seeded_serve_run() {
        let train_ctx = small_ctx(13);
        let eval_ctx = small_ctx(14);
        let mut m64 = PoshGnn::new(PoshGnnConfig::default());
        m64.train(std::slice::from_ref(&train_ctx), 10);
        let snapshot = m64.export_params();
        let mut model =
            PoshGnn::new(PoshGnnConfig { serve_f32: true, drift_sample: 1, ..Default::default() });
        assert!(model.import_params(&snapshot));
        let ctx_obs = xr_obs::ObsCtx::new(true, false);
        let _g = ctx_obs.install();
        model.begin_episode(&StepView::new(&eval_ctx, 0));
        for t in 0..=eval_ctx.t_max() {
            model.soft_recommend(&eval_ctx, t);
        }
        let snap = ctx_obs.registry.snapshot();
        let steps = (eval_ctx.t_max() + 1) as u64;
        assert_eq!(snap.counter("poshgnn.serve.drift.samples"), Some(steps));
        let overlap = snap.histogram("poshgnn.serve.drift.topk_overlap").expect("overlap exported");
        assert_eq!(overlap.count, steps);
        // the acceptance bar: f32 decisions agree with f64 on ≥60% of the
        // top-5 at every sampled step (same floor as the xr_check subject)
        assert!(overlap.min >= 0.6, "top-5 overlap floor violated: {}", overlap.min);
        let err = snap.histogram("poshgnn.serve.drift.max_abs_err").expect("error exported");
        assert!(err.max < 1e-3, "elementwise drift too large: {}", err.max);
        // import_params happened before the obs ctx was installed, so the
        // invalidation counter only counts in-window causes
        assert_eq!(snap.counter("poshgnn.serve.net_invalidated{cause=import}"), None);
    }

    #[test]
    fn serve_net_invalidations_are_counted_by_cause() {
        let ctx = small_ctx(15);
        let ctx_obs = xr_obs::ObsCtx::new(true, false);
        let _g = ctx_obs.install();
        let mut model = PoshGnn::new(PoshGnnConfig { serve_f32: true, ..Default::default() });
        // nothing built yet: invalidation of an absent net must not count
        model.params_mut();
        model.begin_episode(&StepView::new(&ctx, 0));
        model.soft_recommend(&ctx, 0); // builds the net
        model.train(std::slice::from_ref(&ctx), 1); // invalidates: train
        model.soft_recommend(&ctx, 1); // rebuilds
        model.params_mut(); // invalidates: params_mut
        let snapshot = model.export_params();
        model.soft_recommend(&ctx, 2); // rebuilds
        assert!(model.import_params(&snapshot)); // invalidates: import
        let snap = ctx_obs.registry.snapshot();
        assert_eq!(snap.counter("poshgnn.serve.net_invalidated{cause=train}"), Some(1));
        assert_eq!(snap.counter("poshgnn.serve.net_invalidated{cause=params_mut}"), Some(1));
        assert_eq!(snap.counter("poshgnn.serve.net_invalidated{cause=import}"), Some(1));
        assert_eq!(snap.counter("poshgnn.serve.net_build"), Some(3));
        assert!(snap.histogram("poshgnn.serve.net_build.ms").map(|h| h.count) == Some(3));
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
