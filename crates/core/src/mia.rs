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
//! operators are CSR, and no N×N matrix is formed. The training slab
//! ([`Mia::compute_episode`]) runs the step from `t−1` to `t` as a
//! recurrence (`MiaCarry` carries `A_{t−1}`'s degrees and propagation
//! terms); [`Mia::compute`] is the from-scratch reference it is pinned
//! against. The model's inference step (`Mia::serve_into`) computes each
//! step from scratch, like [`Mia::compute`], but writes its rows into the
//! model's buffers and builds none of the operators only the loss reads.
//! All three run one feature body.
//!
//! Under a crowd-scale engine with capped shortlists (`K < N − 1`), the
//! contexts MIA consumes carry occlusion graphs restricted to each viewer's
//! K-candidate shortlist. Nothing here changes: the structural-difference
//! embedding's edge-deltas `A_t − A_{t−1}` then involve only shortlist pairs
//! by construction, and non-member rows of `x̂_t`/`Δ_t` are zero through the
//! zeroed mask and empty adjacency rows. At `K = N−1` the restricted graphs
//! are the full graphs.

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
    /// occlusion penalty.
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
}

/// The state MIA carries from step `t` to step `t + 1`: `A_t`'s degrees
/// `A_t·1` and two-hop propagation `A_t·(A_t·1)` — exactly the predecessor
/// terms of step `t + 1`'s `Δ`. Everything here is a function of `A_t`
/// alone. Refilling a carry reuses its buffers, so the serving step keeps
/// two (for `A_{t−1}` and `A_t`) and refills both at every step.
#[derive(Debug, Clone, Default)]
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

    /// Refills with `g`'s terms, read from the graph's own rows: the degree
    /// is the row length, and `A·(A·1)` sums the neighbours' degrees in
    /// ascending order from `0.0` — bit for bit the CSR mat-vec, whose
    /// stored values are all `1.0`.
    fn set_graph(&mut self, t: usize, g: &UGraph) {
        let n = g.node_count();
        self.t = t;
        self.deg.clear();
        self.deg.extend((0..n).map(|v| g.degree(v) as f64));
        let deg = &self.deg;
        self.a2_1.clear();
        self.a2_1.extend((0..n).map(|v| {
            let mut acc = 0.0;
            for &u in g.neighbors(v) {
                acc += deg[u as usize];
            }
            acc
        }));
    }

    /// Refills with the predecessor terms of step `t`: `A_{t−1}`'s, or the
    /// empty graph's zeros at `t = 0` (the conference has not started).
    fn set_predecessor(&mut self, ctx: &TargetContext, t: usize) {
        if t == 0 {
            self.t = 0;
            self.deg.clear();
            self.deg.resize(ctx.n, 0.0);
            self.a2_1.clear();
            self.a2_1.resize(ctx.n, 0.0);
        } else {
            self.set_graph(t - 1, &ctx.occlusion[t - 1]);
        }
    }
}

/// One user's row of MIA's dense outputs at one step.
struct MiaRow {
    /// `x̂_t`: masked `p̂`, masked `ŝ`, relative distance, interface.
    features: [f64; FEATURE_DIM],
    /// `Δ_t = [e⁰ ‖ e¹ ‖ e²]`.
    delta: [f64; DELTA_DIM],
    /// `m_t` as `0.0`/`1.0`.
    mask: f64,
}

/// Width of `x̂_t`.
pub(crate) const FEATURE_DIM: usize = 4;
/// Width of `Δ_t`.
pub(crate) const DELTA_DIM: usize = 3;

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
        let mut prev = MiaCarry::default();
        prev.set_predecessor(ctx, t);
        let mut next = MiaCarry::default();
        let out = self.output(ctx, t, &prev, &mut next);
        (out, next)
    }

    /// Steps `carry` from `t − 1` to `t = carry.t() + 1` and returns MIA at
    /// `t`. `Δ_t`'s predecessor terms — `A_{t−1}`'s degrees and
    /// `A_{t−1}·(A_{t−1}·1)` — come from the carry instead of a re-read of
    /// `A_{t−1}`, so the step is O(N + m).
    ///
    /// The caller must pass the context whose step `carry.t()` produced the
    /// carry; the output is then bit-identical to [`Mia::compute`] at `t`.
    pub(crate) fn advance(&self, ctx: &TargetContext, carry: &mut MiaCarry) -> MiaOutput {
        let t = carry.t + 1;
        let _span = xr_obs::span!("poshgnn.mia.compute", t = t);
        let mut next = MiaCarry::default();
        let out = self.output(ctx, t, carry, &mut next);
        *carry = next;
        out
    }

    /// The serving form of one MIA step: writes `x̂_t` into columns `0..4`
    /// and `Δ_t` into columns `4..7` of `rows` (which must be `N` rows of at
    /// least 7 columns) and `m_t` into `mask`, and builds none of the
    /// operators only the loss reads (`A_t`, `D⁻¹A_t`, `B_t`, `p̂`, `ŝ`).
    ///
    /// Everything is computed from `ctx` at `t`: `prev` is refilled with
    /// `A_{t−1}`'s terms and `next` with `A_t`'s, reusing their buffers, so
    /// a steady-state step allocates nothing. The values are bit-identical
    /// to [`Mia::compute`]'s `features`, `delta` and `mask` at `t`.
    pub(crate) fn serve_into(
        &self,
        ctx: &TargetContext,
        t: usize,
        prev: &mut MiaCarry,
        next: &mut MiaCarry,
        rows: &mut Matrix,
        mask: &mut [f64],
    ) {
        let _span = xr_obs::span!("poshgnn.mia.compute", t = t);
        prev.set_predecessor(ctx, t);
        self.rows(ctx, t, prev, next, |r, row| {
            let out = rows.row_mut(r);
            out[..FEATURE_DIM].copy_from_slice(&row.features);
            out[FEATURE_DIM..FEATURE_DIM + DELTA_DIM].copy_from_slice(&row.delta);
            mask[r] = row.mask;
        });
    }

    /// The MIA feature body shared by training and serving: fills `next`
    /// with step `t`'s graph terms and hands each user's row, computed from
    /// them and `prev`'s (step `t − 1`'s) terms, to `emit`.
    fn rows(
        &self,
        ctx: &TargetContext,
        t: usize,
        prev: &MiaCarry,
        next: &mut MiaCarry,
        mut emit: impl FnMut(usize, MiaRow),
    ) {
        let n = ctx.n;
        next.set_graph(t, &ctx.occlusion[t]);
        // Δ_t = [e⁰ ‖ e¹ ‖ e²]; the propagation differences are scaled by
        // 1/N so Δ stays O(1) regardless of crowd size (training stability;
        // the paper leaves the scale unspecified). All structural terms are
        // O(m): `(A − A')·1` is the degree difference, and
        // `(A² − A'²)·1 = A·(A·1) − A'·(A'·1)` is two sparse mat-vecs —
        // no N×N matrix is ever formed here.
        let inv_n = 1.0 / n as f64;
        // Utility rows with the target zeroed. The loss coefficients stay on
        // the *raw* `p`/`s` scale of Def. 2 — the AFTER utility counts a
        // visible user's full preference regardless of distance, so scaling
        // the loss by distance would misalign training with the objective.
        // Distance enters as an input *feature* instead ("normalization ...
        // so POSHGNN focuses on preference and social presence rather than
        // the users' relative distance"): the network sees proximity but is
        // not paid for it.
        let dist = &ctx.distances[t];
        #[allow(clippy::needless_range_loop)] // r is a user id into six per-user arrays
        for r in 0..n {
            let mask = if ctx.candidate_mask[t][r] { 1.0 } else { 0.0 };
            let (p, s) = if r == ctx.target { (0.0, 0.0) } else { (ctx.preference[r], ctx.social[r]) };
            let interface = if ctx.mr_mask[r] { 1.0 } else { 0.0 };
            emit(
                r,
                MiaRow {
                    features: [p * mask, s * mask, (dist[r] / ctx.room_diagonal).min(1.0), interface],
                    delta: [1.0, (next.deg[r] - prev.deg[r]) * inv_n, (next.a2_1[r] - prev.a2_1[r]) * inv_n],
                    mask,
                },
            );
        }
    }

    /// The whole [`MiaOutput`] at `t` from the predecessor's terms in
    /// `prev`: the shared feature body plus the operators the loss reads.
    /// Fills `next` with step `t`'s terms for the carry.
    fn output(&self, ctx: &TargetContext, t: usize, prev: &MiaCarry, next: &mut MiaCarry) -> MiaOutput {
        let n = ctx.n;
        let mut features = Matrix::zeros(n, FEATURE_DIM);
        let mut delta = Matrix::zeros(n, DELTA_DIM);
        let mut mask = Matrix::zeros(n, 1);
        self.rows(ctx, t, prev, next, |r, row| {
            features.row_mut(r).copy_from_slice(&row.features);
            delta.row_mut(r).copy_from_slice(&row.delta);
            mask[(r, 0)] = row.mask;
        });
        // the loss's utility columns are the first two feature columns
        let p_hat = Matrix::from_fn(n, 1, |r, _| features[(r, 0)]);
        let s_hat = Matrix::from_fn(n, 1, |r, _| features[(r, 1)]);

        let adjacency_csr = Rc::new(ctx.occlusion[t].adjacency_csr());
        let adjacency_norm_csr = Rc::new(adjacency_csr.row_normalized());

        // depth-weighted blocking matrix for the loss: each occlusion edge
        // contributes one directed entry (row: the farther user, column: the
        // nearer one), so nnz ≤ m. Filtering A's sorted rows keeps every
        // row's columns ascending, so no sort pass is needed.
        let dist = &ctx.distances[t];
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

        MiaOutput {
            features: Rc::new(features),
            delta: Rc::new(delta),
            mask: Rc::new(mask),
            p_hat: Rc::new(p_hat),
            s_hat: Rc::new(s_hat),
            adjacency_csr,
            adjacency_norm_csr,
            blocking_csr,
            transposes: Default::default(),
        }
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
    /// the episode, and is bit-identical to
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
        let mut out = Matrix::zeros(ctx.n, FEATURE_DIM);
        self.raw_features_into(ctx, t, &mut out);
        out
    }

    /// [`Mia::raw_features`] written into columns `0..4` of `rows`.
    pub(crate) fn raw_features_into(&self, ctx: &TargetContext, t: usize, rows: &mut Matrix) {
        for r in 0..ctx.n {
            let (p, s) = if r == ctx.target { (0.0, 0.0) } else { (ctx.preference[r], ctx.social[r]) };
            let interface = if ctx.mr_mask[r] { 1.0 } else { 0.0 };
            rows.row_mut(r)[..FEATURE_DIM].copy_from_slice(&[p, s, ctx.distances[t][r], interface]);
        }
    }
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

    /// Dense 0/1 adjacency of an occlusion graph: the textbook reference
    /// the CSR operators are checked against.
    fn dense_adjacency(graph: &UGraph) -> Matrix {
        let n = graph.node_count();
        let mut a = Matrix::zeros(n, n);
        for (u, v) in graph.edges() {
            a[(u, v)] = 1.0;
            a[(v, u)] = 1.0;
        }
        a
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
    fn transposes_are_built_lazily_once_and_exact() {
        let out = Mia.compute(&ctx(), 0);
        assert!(out.transposes.iter().all(|slot| slot.get().is_none()), "forward-only output");
        let first = out.blocking_csr_t();
        assert_eq!(*first, out.blocking_csr.transpose());
        assert!(Rc::ptr_eq(&first, &out.blocking_csr_t()), "built once, then shared");
        assert_eq!(*out.adjacency_norm_csr_t(), out.adjacency_norm_csr.transpose());
        assert_eq!(*out.adjacency_csr_t(), out.adjacency_csr.transpose());
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
    fn serving_rows_are_bitwise_the_training_output() {
        let c = ctx();
        let (mut prev, mut next) = (MiaCarry::default(), MiaCarry::default());
        // two spare columns that MIA must leave alone
        let mut rows = Matrix::full(c.n, FEATURE_DIM + DELTA_DIM + 2, f64::NAN);
        let mut mask = vec![f64::NAN; c.n];
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        // in order, then a repeat and a step back on the same buffers
        for t in [0, 1, 1, 0] {
            Mia.serve_into(&c, t, &mut prev, &mut next, &mut rows, &mut mask);
            let want = Mia.compute(&c, t);
            for (r, m) in mask.iter().enumerate() {
                let row = rows.row(r);
                assert_eq!(bits(&row[..FEATURE_DIM]), bits(want.features.row(r)), "t={t} x̂ row {r}");
                assert_eq!(
                    bits(&row[FEATURE_DIM..FEATURE_DIM + DELTA_DIM]),
                    bits(want.delta.row(r)),
                    "t={t} Δ row {r}"
                );
                assert!(row[FEATURE_DIM + DELTA_DIM..].iter().all(|x| x.is_nan()), "t={t}: wrote past Δ");
                assert_eq!(m.to_bits(), want.mask[(r, 0)].to_bits(), "t={t} m row {r}");
            }
        }
        let mut raw = Matrix::full(c.n, FEATURE_DIM + 1, f64::NAN);
        Mia.raw_features_into(&c, 1, &mut raw);
        assert_eq!(raw.slice_cols(0, FEATURE_DIM), Mia.raw_features(&c, 1));
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
