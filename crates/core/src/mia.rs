//! MIA — Multi-modal Information Aggregator (paper §IV-A).
//!
//! MIA is the trainable-parameter-free preprocessing module of POSHGNN. At
//! each time step it fuses the target's social utilities, the crowd
//! trajectories, and device information into an attributed occlusion graph:
//!
//! * scene features `x̂_t (N × 4)` — distance-normalized preference `p̂`,
//!   distance-normalized social presence `ŝ`, relative distance, interface;
//! * structural-difference embedding `Δ_t = [e⁰‖e¹‖e²] (N × 3)` with
//!   `e¹ = (A_t − A_{t−1})·1` and `e² = (A_t² − A_{t−1}²)·1`;
//! * hybrid-participation mask `m_t (N × 1)` pruning candidates physically
//!   occluded by co-located MR participants;
//! * the aggregation operator `D⁻¹A_t` over the static occlusion graph.
//!
//! Every per-step output is O(N + m) for m occlusion edges: the adjacency
//! operators are CSR, and no N×N matrix is formed. The step from `t−1` to
//! `t` is a recurrence (`MiaCarry` carries `A_{t−1}`'s operators and
//! propagation terms), which serves both the training slab
//! ([`Mia::compute_episode`]) and the model's inference step;
//! [`Mia::compute`] is the from-scratch reference it is pinned against.
//!
//! Under a crowd-scale pruned engine (`prune_k > 0`), the contexts MIA
//! consumes carry occlusion graphs restricted to each viewer's K-candidate
//! shortlist. Nothing here changes: the structural-difference embedding's
//! edge-deltas `A_t − A_{t−1}` then involve only shortlist pairs by
//! construction, non-member rows of `x̂_t`/`Δ_t` are zero through the zeroed
//! mask and empty adjacency rows, and at `K ≥ N−1` the restricted graphs are
//! the full graphs, so every output is bitwise identical to the dense path.

use std::cell::OnceCell;
use std::rc::Rc;

use xr_graph::UGraph;
use xr_tensor::{CsrAdj, Matrix};

use crate::problem::TargetContext;

/// Output of MIA for one time step.
#[derive(Debug, Clone)]
pub struct MiaOutput {
    /// Scene features `x̂_t`, shape `N × 4`. All dense fields are `Rc`-shared
    /// so cached slabs flow into tapes via [`xr_tensor::Tape::constant_rc`]
    /// (zero-copy) instead of being copied once per (step, epoch).
    pub features: Rc<Matrix>,
    /// Structural difference embedding `Δ_t`, shape `N × 3`.
    pub delta: Rc<Matrix>,
    /// Candidate mask `m_t` as an `N × 1` 0/1 column.
    pub mask: Rc<Matrix>,
    /// Preference utilities `p̂_t` (`N × 1`), target zeroed and masked by
    /// `m_t` — these feed the POSHGNN loss.
    pub p_hat: Rc<Matrix>,
    /// Distance-squared-normalized social-presence utilities `ŝ_t` (`N × 1`),
    /// masked by `m_t`.
    pub s_hat: Rc<Matrix>,
    /// Occlusion adjacency `A_t` in CSR form, an O(N + m) copy of the
    /// occlusion graph's own CSR arrays. It feeds the loss's symmetric
    /// occlusion penalty; consumers that want a dense `N × N` matrix (the
    /// `dense_kernels` ablation) derive it with [`CsrAdj::to_dense`].
    pub adjacency_csr: Rc<CsrAdj>,
    /// Row-normalized adjacency `D⁻¹A_t` used as the GNN aggregation
    /// operator: mean aggregation keeps activations bounded on dense
    /// occlusion graphs (sum aggregation saturates sigmoids at N = 200,
    /// where occlusion degrees reach the hundreds).
    pub adjacency_norm_csr: Rc<CsrAdj>,
    /// Depth-weighted blocking matrix `B_t` feeding the loss's occlusion
    /// penalty `α·r_tᵀB_t r_t`: `B[w][u] = p̂_w` when `u` stands nearer than
    /// `w` and their arcs overlap (recommending `u` hides `w`, forfeiting
    /// `w`'s preference). This refines Def. 7's symmetric `A_t` — the
    /// quadratic form is unchanged, but the penalty now estimates the
    /// *utility actually lost* to occlusion instead of counting edges. Each
    /// occlusion edge contributes one directed entry, so nnz ≤ m.
    pub blocking_csr: Rc<CsrAdj>,
    /// Lazily built transposes of the three CSR operators, in field order.
    /// Only a backward pass reads them, so inference never builds them; a
    /// training slab fills them on its first epoch and shares them with
    /// every later one via [`xr_tensor::Tape::sparse_with_transpose`].
    transposes: [OnceCell<Rc<CsrAdj>>; 3],
    /// Lazily densified copies of the three CSR operators, in field order,
    /// for the `dense_kernels` ablation only; a training slab fills them once
    /// and shares them with every later epoch via
    /// [`xr_tensor::Tape::constant_rc`].
    dense: [OnceCell<Rc<Matrix>>; 3],
}

impl MiaOutput {
    fn operator(&self, slot: usize) -> &CsrAdj {
        match slot {
            0 => &self.adjacency_csr,
            1 => &self.adjacency_norm_csr,
            _ => &self.blocking_csr,
        }
    }

    fn transpose_of(&self, slot: usize) -> Rc<CsrAdj> {
        Rc::clone(self.transposes[slot].get_or_init(|| Rc::new(self.operator(slot).transpose())))
    }

    fn dense_of(&self, slot: usize) -> Rc<Matrix> {
        Rc::clone(self.dense[slot].get_or_init(|| Rc::new(self.operator(slot).to_dense())))
    }

    /// Transpose of `adjacency_csr`, built on first use and then shared.
    pub(crate) fn adjacency_csr_t(&self) -> Rc<CsrAdj> {
        self.transpose_of(0)
    }

    /// Transpose of `adjacency_norm_csr`, built on first use and then shared.
    pub(crate) fn adjacency_norm_csr_t(&self) -> Rc<CsrAdj> {
        self.transpose_of(1)
    }

    /// Transpose of `blocking_csr`, built on first use and then shared.
    pub(crate) fn blocking_csr_t(&self) -> Rc<CsrAdj> {
        self.transpose_of(2)
    }

    /// Dense `adjacency_csr`, built on first use and then shared.
    pub(crate) fn adjacency_dense(&self) -> Rc<Matrix> {
        self.dense_of(0)
    }

    /// Dense `adjacency_norm_csr`, built on first use and then shared.
    pub(crate) fn adjacency_norm_dense(&self) -> Rc<Matrix> {
        self.dense_of(1)
    }

    /// Dense `blocking_csr`, built on first use and then shared.
    pub(crate) fn blocking_dense(&self) -> Rc<Matrix> {
        self.dense_of(2)
    }
}

/// The state MIA carries from step `t` to step `t + 1`: `A_t`'s degrees
/// `A_t·1` and two-hop propagation `A_t·(A_t·1)` — exactly the predecessor
/// terms of step `t + 1`'s `Δ`. Everything here is a function of `A_t`
/// alone.
#[derive(Debug, Clone)]
pub(crate) struct MiaCarry {
    t: usize,
    deg: Vec<f64>,
    a2_1: Vec<f64>,
}

impl MiaCarry {
    /// The step whose occlusion graph the carry describes.
    pub(crate) fn t(&self) -> usize {
        self.t
    }
}

/// The Multi-modal Information Aggregator. Stateless and parameter-free; it
/// owns only the feature-engineering recipe.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mia;

impl Mia {
    /// Runs MIA for time step `t` from scratch.
    ///
    /// `A_{t-1}` is taken from `ctx.occlusion[t-1]`; at `t = 0` the previous
    /// adjacency is the empty graph (the conference has not started).
    pub fn compute(&self, ctx: &TargetContext, t: usize) -> MiaOutput {
        self.start(ctx, t).0
    }

    /// [`Mia::compute`], also returning the carry that lets
    /// [`Mia::advance`] produce step `t + 1`.
    pub(crate) fn start(&self, ctx: &TargetContext, t: usize) -> (MiaOutput, MiaCarry) {
        let _span = xr_obs::span!("poshgnn.mia.compute", t = t);
        let n = ctx.n;
        let (prev_deg, p2_1) = if t == 0 {
            // the predecessor is the empty graph: zero degrees, zero
            // propagation
            (vec![0.0; n], vec![0.0; n])
        } else {
            let prev = &ctx.occlusion[t - 1];
            let prev_deg = degrees(prev);
            let p2_1 = prev.adjacency_csr().matvec(&prev_deg);
            (prev_deg, p2_1)
        };
        let (out, deg, a2_1) = self.compute_with_prev(ctx, t, &prev_deg, &p2_1);
        (out, MiaCarry { t, deg, a2_1 })
    }

    /// Steps `carry` from `t − 1` to `t = carry.t() + 1` and returns MIA at
    /// `t`. `Δ_t`'s predecessor terms — `A_{t−1}`'s degrees and
    /// `A_{t−1}·(A_{t−1}·1)` — come from the carry instead of a rebuild of
    /// `A_{t−1}`'s CSR, so the step is O(N + m).
    ///
    /// The caller must pass the context whose step `carry.t()` produced the
    /// carry; the output is then bit-identical to [`Mia::compute`] at `t`.
    pub(crate) fn advance(&self, ctx: &TargetContext, carry: &mut MiaCarry) -> MiaOutput {
        let t = carry.t + 1;
        let _span = xr_obs::span!("poshgnn.mia.compute", t = t);
        xr_obs::counter_add("poshgnn.mia.carried", &[], 1);
        let (out, deg, a2_1) = self.compute_with_prev(ctx, t, &carry.deg, &carry.a2_1);
        *carry = MiaCarry { t, deg, a2_1 };
        out
    }

    /// MIA body given the predecessor's terms: the shared tail of
    /// [`Mia::start`] and [`Mia::advance`]. `prev_deg` and `p2_1` are the
    /// predecessor's `A'·1` and `A'·(A'·1)`; the step's own `A·1` and
    /// `A·(A·1)` are returned alongside the output for the carry.
    fn compute_with_prev(
        &self,
        ctx: &TargetContext,
        t: usize,
        prev_deg: &[f64],
        p2_1: &[f64],
    ) -> (MiaOutput, Vec<f64>, Vec<f64>) {
        let n = ctx.n;
        let g = &ctx.occlusion[t];
        let adjacency_csr = Rc::new(g.adjacency_csr());
        let adjacency_norm_csr = Rc::new(adjacency_csr.row_normalized());
        let deg = degrees(g);
        // Δ_t = [e⁰ ‖ e¹ ‖ e²]; the propagation differences are scaled by
        // 1/N so Δ stays O(1) regardless of crowd size (training stability;
        // the paper leaves the scale unspecified). All structural terms are
        // O(m): `(A − A')·1` is the degree difference, and
        // `(A² − A'²)·1 = A·(A·1) − A'·(A'·1)` is two sparse mat-vecs —
        // no N×N matrix is ever formed here.
        let a2_1 = adjacency_csr.matvec(&deg);
        let inv_n = 1.0 / n as f64;
        let delta = Matrix::from_fn(n, 3, |r, c| match c {
            0 => 1.0,
            1 => (deg[r] - prev_deg[r]) * inv_n,
            _ => (a2_1[r] - p2_1[r]) * inv_n,
        });

        let mask = Matrix::from_fn(n, 1, |r, _| if ctx.candidate_mask[t][r] { 1.0 } else { 0.0 });

        // Utility rows with the target zeroed. The loss coefficients stay on
        // the *raw* `p`/`s` scale of Def. 2 — the AFTER utility counts a
        // visible user's full preference regardless of distance, so scaling
        // the loss by distance would misalign training with the objective.
        // Distance enters as an input *feature* instead ("normalization ...
        // so POSHGNN focuses on preference and social presence rather than
        // the users' relative distance"): the network sees proximity but is
        // not paid for it.
        let dist = &ctx.distances[t];
        let zero_target =
            |u: &[f64]| -> Vec<f64> { (0..n).map(|w| if w == ctx.target { 0.0 } else { u[w] }).collect() };
        let p_hat_v = zero_target(&ctx.preference);
        let s_hat_v = zero_target(&ctx.social);

        let p_hat = Matrix::from_fn(n, 1, |r, _| p_hat_v[r] * mask[(r, 0)]);
        let s_hat = Matrix::from_fn(n, 1, |r, _| s_hat_v[r] * mask[(r, 0)]);

        let features = Matrix::from_fn(n, 4, |r, c| match c {
            0 => p_hat[(r, 0)],
            1 => s_hat[(r, 0)],
            2 => (dist[r] / ctx.room_diagonal).min(1.0),
            _ => {
                if ctx.mr_mask[r] {
                    1.0
                } else {
                    0.0
                }
            }
        });

        // depth-weighted blocking matrix for the loss: each occlusion edge
        // contributes one directed entry (row: the farther user, column: the
        // nearer one), so nnz ≤ m. Filtering A's sorted rows keeps every
        // row's columns ascending, so no sort pass is needed.
        let (a_ptr, a_cols) = (adjacency_csr.row_ptr(), adjacency_csr.col_idx());
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::with_capacity(a_cols.len() / 2);
        let mut vals = Vec::with_capacity(a_cols.len() / 2);
        for far in 0..n {
            for &c in &a_cols[a_ptr[far]..a_ptr[far + 1]] {
                let (u, v) = (far.min(c), far.max(c));
                let near = if dist[u] < dist[v] { u } else { v };
                if near == c {
                    col_idx.push(c);
                    vals.push(p_hat[(far, 0)]);
                }
            }
            row_ptr.push(col_idx.len());
        }
        let blocking_csr = Rc::new(CsrAdj::from_parts(n, n, row_ptr, col_idx, vals));

        let out = MiaOutput {
            features: Rc::new(features),
            delta: Rc::new(delta),
            mask: Rc::new(mask),
            p_hat: Rc::new(p_hat),
            s_hat: Rc::new(s_hat),
            adjacency_csr,
            adjacency_norm_csr,
            blocking_csr,
            transposes: Default::default(),
            dense: Default::default(),
        };
        (out, deg, a2_1)
    }

    /// Precomputes MIA for every step of an episode as shareable slabs.
    ///
    /// MIA is parameter-free: its output depends only on the context, never
    /// on the model, so one slab serves every training epoch over the same
    /// episode. The `Rc` wrapper lets cached matrices flow into tapes via
    /// [`xr_tensor::Tape::constant_rc`] without cloning, and each slab entry
    /// keeps the CSR transposes its first backward pass builds.
    ///
    /// The slab is the `Mia::start` / `Mia::advance` recurrence run over
    /// the episode — the same step function the model's inference path
    /// carries from tick to tick — and is bit-identical to
    /// [`Mia::compute_episode_fresh`], pinned by a unit test here and by the
    /// `CachedVsFreshMia` differential subject.
    pub fn compute_episode(&self, ctx: &TargetContext) -> Vec<Rc<MiaOutput>> {
        let _span = xr_obs::span!("poshgnn.mia.compute_episode", steps = ctx.t_max() + 1);
        let (first, mut carry) = self.start(ctx, 0);
        let mut outs = Vec::with_capacity(ctx.t_max() + 1);
        outs.push(Rc::new(first));
        while carry.t() < ctx.t_max() {
            outs.push(Rc::new(self.advance(ctx, &mut carry)));
        }
        outs
    }

    /// The per-step-rebuild episode path: MIA recomputed independently at
    /// every step. The reference [`Mia::compute_episode`] is pinned against.
    pub fn compute_episode_fresh(&self, ctx: &TargetContext) -> Vec<Rc<MiaOutput>> {
        (0..=ctx.t_max()).map(|t| Rc::new(self.compute(ctx, t))).collect()
    }

    /// [`Mia::raw_features`] at a step view's tick — the stepwise entry
    /// point for the "Only PDR" ablation and the RNN baselines.
    pub fn raw_features_view(&self, view: &crate::view::StepView<'_>) -> Matrix {
        self.raw_features(view.ctx(), view.t())
    }

    /// Raw (un-normalized, un-masked) features for the "Only PDR" ablation:
    /// plain `p`, `s`, absolute distance, interface.
    pub fn raw_features(&self, ctx: &TargetContext, t: usize) -> Matrix {
        let n = ctx.n;
        Matrix::from_fn(n, 4, |r, c| match c {
            0 => {
                if r == ctx.target {
                    0.0
                } else {
                    ctx.preference[r]
                }
            }
            1 => {
                if r == ctx.target {
                    0.0
                } else {
                    ctx.social[r]
                }
            }
            2 => ctx.distances[t][r],
            _ => {
                if ctx.mr_mask[r] {
                    1.0
                } else {
                    0.0
                }
            }
        })
    }
}

/// Degrees `A·1` of an occlusion graph (exact integers in f64).
fn degrees(graph: &UGraph) -> Vec<f64> {
    (0..graph.node_count()).map(|v| graph.degree(v) as f64).collect()
}

/// Dense 0/1 adjacency of an occlusion graph, for consumers that want `A_t`
/// as an `N × N` matrix (the RNN baselines); MIA itself only builds the CSR
/// form.
pub fn dense_adjacency(graph: &UGraph) -> Matrix {
    let n = graph.node_count();
    let mut a = Matrix::zeros(n, n);
    for (u, v) in graph.edges() {
        a[(u, v)] = 1.0;
        a[(v, u)] = 1.0;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::TargetContext;
    use xr_crowd::Room;
    use xr_datasets::{Interface, Scenario};
    use xr_graph::geom::Point2;

    fn scenario() -> Scenario {
        // target 0 MR; 1 MR blocker east; 2 VR behind blocker; 3 VR north.
        let t0 =
            vec![Point2::new(5.0, 5.0), Point2::new(6.0, 5.0), Point2::new(7.0, 5.02), Point2::new(5.0, 8.0)];
        // t1: user 2 escapes the blocker's shadow
        let mut t1 = t0.clone();
        t1[2] = Point2::new(5.0, 2.0);
        Scenario {
            dataset: "unit".into(),
            participants: vec![0, 1, 2, 3],
            interfaces: vec![Interface::Mr, Interface::Mr, Interface::Vr, Interface::Vr],
            preference: vec![vec![0.0, 0.4, 0.9, 0.6], vec![0.0; 4], vec![0.0; 4], vec![0.0; 4]],
            social: vec![vec![0.0, 0.0, 0.8, 0.5], vec![0.0; 4], vec![0.0; 4], vec![0.0; 4]],
            trajectories: vec![t0, t1],
            room: Room::new(10.0, 10.0),
            body_radius: 0.25,
        }
    }

    fn ctx() -> TargetContext {
        TargetContext::new(&scenario(), 0, 0.5)
    }

    #[test]
    fn output_shapes() {
        let out = Mia.compute(&ctx(), 0);
        assert_eq!(out.features.shape(), (4, 4));
        assert_eq!(out.delta.shape(), (4, 3));
        assert_eq!(out.mask.shape(), (4, 1));
        assert_eq!(out.adjacency_csr.shape(), (4, 4));
        assert_eq!(out.p_hat.shape(), (4, 1));
        assert_eq!(out.s_hat.shape(), (4, 1));
    }

    #[test]
    fn adjacency_matches_occlusion_graph() {
        let c = ctx();
        let adjacency = Mia.compute(&c, 0).adjacency_csr.to_dense();
        assert_eq!(adjacency[(1, 2)], 1.0, "in-line users are adjacent");
        assert_eq!(adjacency[(2, 1)], 1.0, "symmetric");
        assert_eq!(adjacency[(1, 3)], 0.0);
        assert_eq!(adjacency[(0, 1)], 0.0, "target is isolated");
    }

    #[test]
    fn mask_prunes_physically_occluded_and_zeroes_utilities() {
        let c = ctx();
        let out = Mia.compute(&c, 0);
        assert_eq!(out.mask[(0, 0)], 0.0, "target excluded");
        assert_eq!(out.mask[(2, 0)], 0.0, "behind physical MR user");
        assert_eq!(out.mask[(3, 0)], 1.0);
        assert_eq!(out.p_hat[(2, 0)], 0.0, "pruned users lose their utility");
        assert!(out.p_hat[(3, 0)] > 0.0);
    }

    #[test]
    fn delta_is_all_ones_plus_zero_diffs_when_static() {
        // duplicate frame scenario: Δ's e¹/e² vanish at t=1
        let mut s = scenario();
        s.trajectories[1] = s.trajectories[0].clone();
        let c = TargetContext::new(&s, 0, 0.5);
        let out = Mia.compute(&c, 1);
        for r in 0..4 {
            assert_eq!(out.delta[(r, 0)], 1.0);
            assert_eq!(out.delta[(r, 1)], 0.0);
            assert_eq!(out.delta[(r, 2)], 0.0);
        }
    }

    #[test]
    fn delta_detects_structure_change() {
        let c = ctx();
        let out = Mia.compute(&c, 1); // user 2 moved away: edge (1,2) vanished
        let changed = (0..4).any(|r| out.delta[(r, 1)].abs() > 0.0);
        assert!(changed, "Δ must flag the vanished occlusion edge");
    }

    #[test]
    fn loss_utilities_stay_on_the_raw_def2_scale() {
        // p(2) = 0.9, p(1) = 0.4 for a VR target (no physical pruning):
        // the loss coefficients must match Def. 2's raw utilities exactly —
        // distance is an input feature, not a payoff multiplier.
        let mut s = scenario();
        s.interfaces[0] = Interface::Vr;
        let c = TargetContext::new(&s, 0, 0.5);
        let out = Mia.compute(&c, 0);
        assert_eq!(out.p_hat[(1, 0)], 0.4);
        assert_eq!(out.p_hat[(2, 0)], 0.9);
        assert_eq!(out.s_hat[(2, 0)], 0.8);
    }

    #[test]
    fn p_hat_lies_in_unit_interval_with_zero_target() {
        let out = Mia.compute(&ctx(), 0);
        let vals = out.p_hat.as_slice();
        assert!(vals.iter().all(|&x| (0.0..=1.0).contains(&x)));
        assert_eq!(vals[0], 0.0, "target's own utility is zeroed");
    }

    #[test]
    fn blocking_matrix_is_depth_directed_and_preference_weighted() {
        // VR target: user 1 (near, d=1) overlaps user 2 (far, d≈2, p=0.9).
        let mut s = scenario();
        s.interfaces[0] = Interface::Vr;
        let c = TargetContext::new(&s, 0, 0.5);
        let blocking = Mia.compute(&c, 0).blocking_csr.to_dense();
        // recommending 1 hides 2 → B[2][1] = p̂(2) = 0.9, not the reverse
        assert!((blocking[(2, 1)] - 0.9).abs() < 1e-12);
        assert_eq!(blocking[(1, 2)], 0.0);
        // non-overlapping pair carries no penalty
        assert_eq!(blocking[(3, 1)], 0.0);
    }

    #[test]
    fn csr_operators_match_the_dense_reference() {
        let c = ctx();
        for t in 0..2 {
            let out = Mia.compute(&c, t);
            let adj = dense_adjacency(&c.occlusion[t]);
            assert!(out.adjacency_csr.to_dense().approx_eq(&adj, 0.0));
            let norm = out.adjacency_norm_csr.to_dense();
            for r in 0..c.n {
                let deg: f64 = adj.row(r).iter().sum();
                for col in 0..c.n {
                    let want = if deg > 0.0 { adj[(r, col)] / deg } else { 0.0 };
                    assert_eq!(norm[(r, col)], want, "t={t} D⁻¹A[{r}][{col}]");
                }
            }
        }
    }

    #[test]
    fn blocking_csr_is_one_far_to_near_entry_per_edge() {
        // the row-filter build must equal the plain per-edge triplet build
        let dataset = xr_datasets::Dataset::generate(xr_datasets::DatasetKind::Hubs, 3);
        let cfg = xr_datasets::ScenarioConfig {
            n_participants: 30,
            time_steps: 3,
            room_side: 5.0,
            seed: 9,
            ..Default::default()
        };
        let c = TargetContext::new(&dataset.sample_scenario(&cfg), 4, 0.5);
        for t in 0..=c.t_max() {
            let out = Mia.compute(&c, t);
            let dist = &c.distances[t];
            let entries: Vec<(usize, usize, f64)> = c.occlusion[t]
                .edges()
                .map(|(u, v)| {
                    let (near, far) = if dist[u] < dist[v] { (u, v) } else { (v, u) };
                    (far, near, out.p_hat[(far, 0)])
                })
                .collect();
            assert!(!entries.is_empty(), "t={t}: scenario has occlusion edges");
            assert_eq!(*out.blocking_csr, CsrAdj::from_entries(c.n, c.n, &entries), "t={t}");
        }
    }

    #[test]
    fn transposes_and_dense_forms_are_built_lazily_once_and_exact() {
        let out = Mia.compute(&ctx(), 0);
        assert!(out.transposes.iter().all(|slot| slot.get().is_none()), "forward-only output");
        assert!(out.dense.iter().all(|slot| slot.get().is_none()), "no N×N matrix unless asked");
        let first = out.blocking_csr_t();
        assert_eq!(*first, out.blocking_csr.transpose());
        assert!(Rc::ptr_eq(&first, &out.blocking_csr_t()), "built once, then shared");
        assert_eq!(*out.adjacency_norm_csr_t(), out.adjacency_norm_csr.transpose());
        assert_eq!(*out.adjacency_csr_t(), out.adjacency_csr.transpose());
        let dense = out.blocking_dense();
        assert_eq!(*dense, out.blocking_csr.to_dense());
        assert!(Rc::ptr_eq(&dense, &out.blocking_dense()), "built once, then shared");
        assert_eq!(*out.adjacency_norm_dense(), out.adjacency_norm_csr.to_dense());
        assert_eq!(*out.adjacency_dense(), out.adjacency_csr.to_dense());
    }

    #[test]
    fn delta_matches_dense_reference_computation() {
        // The O(m) degree/mat-vec construction must equal the textbook
        // dense form (A−A')·1/N and (A²−A'²)·1/N.
        let c = ctx();
        for t in 0..2 {
            let out = Mia.compute(&c, t);
            let n = c.n;
            let adj = dense_adjacency(&c.occlusion[t]);
            let prev = if t == 0 { Matrix::zeros(n, n) } else { dense_adjacency(&c.occlusion[t - 1]) };
            let ones = Matrix::ones(n, 1);
            let e1 = adj.sub(&prev).matmul(&ones).scale(1.0 / n as f64);
            let a2 = adj.matmul(&adj.matmul(&ones));
            let p2 = prev.matmul(&prev.matmul(&ones));
            let e2 = a2.sub(&p2).scale(1.0 / n as f64);
            for r in 0..n {
                assert!((out.delta[(r, 1)] - e1[(r, 0)]).abs() < 1e-12);
                assert!((out.delta[(r, 2)] - e2[(r, 0)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn delta_episode_path_is_bitwise_identical_to_fresh() {
        // both episode paths must produce the same slabs bit for bit — the
        // delta path is an optimization layer, not an approximation
        let c = ctx();
        let fresh = Mia.compute_episode_fresh(&c);
        let delta = Mia.compute_episode(&c);
        assert_eq!(fresh.len(), delta.len());
        for (t, (f, d)) in fresh.iter().zip(delta.iter()).enumerate() {
            let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&f.features), bits(&d.features), "t={t}: features");
            assert_eq!(bits(&f.delta), bits(&d.delta), "t={t}: delta embedding");
            assert_eq!(bits(&f.mask), bits(&d.mask), "t={t}: mask");
            assert_eq!(bits(&f.p_hat), bits(&d.p_hat), "t={t}: p_hat");
            assert_eq!(bits(&f.s_hat), bits(&d.s_hat), "t={t}: s_hat");
            assert_eq!(f.adjacency_csr, d.adjacency_csr, "t={t}: csr");
            assert_eq!(f.adjacency_norm_csr, d.adjacency_norm_csr, "t={t}: norm csr");
            assert_eq!(f.blocking_csr, d.blocking_csr, "t={t}: blocking csr");
        }
    }

    #[test]
    fn raw_features_skip_normalization() {
        let c = ctx();
        let raw = Mia.raw_features(&c, 0);
        assert_eq!(raw[(2, 0)], 0.9, "no pruning in the ablation features");
        assert_eq!(raw[(1, 2)], 1.0, "absolute distance");
        assert_eq!(raw[(1, 3)], 1.0, "MR flag");
        assert_eq!(raw[(2, 3)], 0.0, "VR flag");
    }
}
