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
//! * the dense adjacency `A_t` of the static occlusion graph.
//!
//! Under a crowd-scale pruned engine (`prune_k > 0`), the contexts MIA
//! consumes carry occlusion graphs restricted to each viewer's K-candidate
//! shortlist. Nothing here changes: the structural-difference embedding's
//! edge-deltas `A_t − A_{t−1}` then involve only shortlist pairs by
//! construction, non-member rows of `x̂_t`/`Δ_t` are zero through the zeroed
//! mask and empty adjacency rows, and at `K ≥ N−1` the restricted graphs are
//! the full graphs, so every output is bitwise identical to the dense path.

use std::rc::Rc;

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
    /// Dense occlusion adjacency `A_t`, shape `N × N`.
    pub adjacency: Rc<Matrix>,
    /// Row-normalized adjacency `D⁻¹A_t` used as the GNN aggregation
    /// operator: mean aggregation keeps activations bounded on dense
    /// occlusion graphs (sum aggregation saturates sigmoids at N = 200,
    /// where occlusion degrees reach the hundreds). The raw `adjacency`
    /// still feeds the loss's occlusion penalty.
    pub adjacency_norm: Rc<Matrix>,
    /// Depth-weighted blocking matrix `B_t` feeding the loss's occlusion
    /// penalty `α·r_tᵀB_t r_t`: `B[w][u] = p̂_w` when `u` stands nearer than
    /// `w` and their arcs overlap (recommending `u` hides `w`, forfeiting
    /// `w`'s preference). This refines Def. 7's symmetric `A_t` — the
    /// quadratic form is unchanged, but the penalty now estimates the
    /// *utility actually lost* to occlusion instead of counting edges.
    pub blocking: Rc<Matrix>,
    /// Preference utilities `p̂_t` (`N × 1`), target zeroed and masked by
    /// `m_t` — these feed the POSHGNN loss.
    pub p_hat: Rc<Matrix>,
    /// Distance-squared-normalized social-presence utilities `ŝ_t` (`N × 1`),
    /// masked by `m_t`.
    pub s_hat: Rc<Matrix>,
    /// Sparse CSR view of `adjacency`. The dense fields above are derived
    /// from these CSR forms (built directly from the occlusion graph's edge
    /// list in O(N + m)) and are kept for the dense-kernel ablation path and
    /// the RNN baselines; POSHGNN's hot path consumes only the CSR fields.
    pub adjacency_csr: Rc<CsrAdj>,
    /// Sparse CSR view of `adjacency_norm` (mean-aggregation operator).
    pub adjacency_norm_csr: Rc<CsrAdj>,
    /// Sparse CSR view of `blocking` (loss occlusion penalty).
    pub blocking_csr: Rc<CsrAdj>,
    /// Transpose of `adjacency_csr`, precomputed for the backward pass so
    /// BPTT tapes allocate no per-episode transposes (they are shared via
    /// [`xr_tensor::Tape::sparse_with_transpose`]).
    pub adjacency_csr_t: Rc<CsrAdj>,
    /// Transpose of `adjacency_norm_csr` (see `adjacency_csr_t`).
    pub adjacency_norm_csr_t: Rc<CsrAdj>,
    /// Transpose of `blocking_csr` (see `adjacency_csr_t`).
    pub blocking_csr_t: Rc<CsrAdj>,
}

/// The Multi-modal Information Aggregator. Stateless and parameter-free; it
/// owns only the feature-engineering recipe.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mia;

impl Mia {
    /// Runs MIA for time step `t`.
    ///
    /// `A_{t-1}` is taken from `ctx.occlusion[t-1]`; at `t = 0` the previous
    /// adjacency is the empty graph (the conference has not started).
    pub fn compute(&self, ctx: &TargetContext, t: usize) -> MiaOutput {
        let _span = xr_obs::span!("poshgnn.mia.compute", t = t);
        let n = ctx.n;
        let adjacency_csr = Rc::new(ctx.occlusion[t].adjacency_csr());
        let adjacency_norm_csr = Rc::new(adjacency_csr.row_normalized());
        let prev_csr = if t == 0 { CsrAdj::empty(n, n) } else { ctx.occlusion[t - 1].adjacency_csr() };
        let deg: Vec<f64> = (0..n).map(|v| ctx.occlusion[t].degree(v) as f64).collect();
        let prev_deg: Vec<f64> = if t == 0 {
            vec![0.0; n]
        } else {
            (0..n).map(|v| ctx.occlusion[t - 1].degree(v) as f64).collect()
        };
        let p2_1 = prev_csr.matvec(&prev_deg);
        self.compute_with_ops(ctx, t, adjacency_csr, adjacency_norm_csr, &deg, &prev_deg, &p2_1).0
    }

    /// MIA body over pre-built adjacency operators: the shared tail of the
    /// from-scratch [`Mia::compute`] and the delta-maintained episode path.
    /// `p2_1` is the predecessor's `A'·(A'·1)` (its own `a2_1`); the step's
    /// `a2_1` is returned alongside the output so an episode loop can thread
    /// it forward instead of re-deriving it from the previous operators.
    #[allow(clippy::too_many_arguments)]
    fn compute_with_ops(
        &self,
        ctx: &TargetContext,
        t: usize,
        adjacency_csr: Rc<CsrAdj>,
        adjacency_norm_csr: Rc<CsrAdj>,
        deg: &[f64],
        prev_deg: &[f64],
        p2_1: &[f64],
    ) -> (MiaOutput, Vec<f64>) {
        let n = ctx.n;
        // Δ_t = [e⁰ ‖ e¹ ‖ e²]; the propagation differences are scaled by
        // 1/N so Δ stays O(1) regardless of crowd size (training stability;
        // the paper leaves the scale unspecified). All structural terms are
        // O(m): `(A − A')·1` is the degree difference, and
        // `(A² − A'²)·1 = A·(A·1) − A'·(A'·1)` is two sparse mat-vecs —
        // no N×N matrix is ever formed here.
        let a2_1 = adjacency_csr.matvec(deg);
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

        // depth-weighted blocking matrix for the loss; each occlusion edge
        // contributes one directed entry, so nnz ≤ m
        let blocking_entries: Vec<(usize, usize, f64)> = ctx.occlusion[t]
            .edges()
            .map(|(u, v)| {
                let (near, far) = if dist[u] < dist[v] { (u, v) } else { (v, u) };
                (far, near, p_hat[(far, 0)])
            })
            .collect();
        let blocking_csr = Rc::new(CsrAdj::from_entries(n, n, &blocking_entries));

        let adjacency = Rc::new(adjacency_csr.to_dense());
        let adjacency_norm = Rc::new(adjacency_norm_csr.to_dense());
        let blocking = Rc::new(blocking_csr.to_dense());

        let adjacency_csr_t = Rc::new(adjacency_csr.transpose());
        let adjacency_norm_csr_t = Rc::new(adjacency_norm_csr.transpose());
        let blocking_csr_t = Rc::new(blocking_csr.transpose());

        let out = MiaOutput {
            features: Rc::new(features),
            delta: Rc::new(delta),
            mask: Rc::new(mask),
            adjacency,
            adjacency_norm,
            blocking,
            p_hat: Rc::new(p_hat),
            s_hat: Rc::new(s_hat),
            adjacency_csr,
            adjacency_norm_csr,
            blocking_csr,
            adjacency_csr_t,
            adjacency_norm_csr_t,
            blocking_csr_t,
        };
        (out, a2_1)
    }

    /// Precomputes MIA for every step of an episode as shareable slabs.
    ///
    /// MIA is parameter-free: its output depends only on the context, never
    /// on the model, so one slab serves every training epoch (and every
    /// inference pass) over the same episode. The `Rc` wrapper lets cached
    /// matrices flow into tapes via [`xr_tensor::Tape::constant_rc`] without
    /// cloning.
    ///
    /// The adjacency operators are maintained across steps from occlusion
    /// edge-deltas (the A_t − A_{t−1} MIA literally consumes) instead of
    /// rebuilt per step: one [`xr_gnn::AdjDeltaCache`] steps the
    /// adjacency/normalized/degree operators, and each step's `A·(A·1)`
    /// mat-vec is threaded forward as the next step's `A'·(A'·1)` instead of
    /// being re-derived from the previous operators. The slabs are
    /// bit-identical to [`Mia::compute_episode_fresh`] — pinned by a unit
    /// test here and by the `CachedVsFreshMia` differential subject.
    pub fn compute_episode(&self, ctx: &TargetContext) -> Vec<Rc<MiaOutput>> {
        let _span = xr_obs::span!("poshgnn.mia.compute_episode", steps = ctx.t_max() + 1);
        let n = ctx.n;
        let mut cache = xr_gnn::AdjDeltaCache::fresh(&ctx.occlusion[0]);
        // at t = 0 the predecessor is the empty graph: zero degrees, zero
        // propagation — matching the fresh path's `CsrAdj::empty` matvec
        let mut prev_deg = vec![0.0; n];
        let mut p2_1 = vec![0.0; n];
        let mut outs = Vec::with_capacity(ctx.t_max() + 1);
        for t in 0..=ctx.t_max() {
            if t > 0 {
                cache.step(&ctx.occlusion[t - 1], &ctx.occlusion[t]);
            }
            let deg = cache.deg().to_vec();
            let (out, a2_1) =
                self.compute_with_ops(ctx, t, cache.csr(), cache.norm(), &deg, &prev_deg, &p2_1);
            prev_deg = deg;
            p2_1 = a2_1;
            outs.push(Rc::new(out));
        }
        outs
    }

    /// The per-step-rebuild episode path: MIA recomputed independently at
    /// every step. The reference [`Mia::compute_episode`] is pinned against.
    pub fn compute_episode_fresh(&self, ctx: &TargetContext) -> Vec<Rc<MiaOutput>> {
        (0..=ctx.t_max()).map(|t| Rc::new(self.compute(ctx, t))).collect()
    }

    /// Runs MIA at a step view's tick. MIA's `Δ_t` difference embeddings
    /// only consult ticks `t` and `t-1`, so the causal window is all it
    /// needs — this is the entry point for stepwise (no-lookahead)
    /// recommenders.
    pub fn compute_view(&self, view: &crate::view::StepView<'_>) -> MiaOutput {
        self.compute(view.ctx(), view.t())
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

/// Row-normalizes a square matrix (zero rows stay zero).
pub fn row_normalize(a: &Matrix) -> Matrix {
    let (n, m) = a.shape();
    assert_eq!(n, m, "row_normalize expects a square matrix");
    let mut out = Matrix::zeros(n, n);
    for r in 0..n {
        let deg: f64 = a.row(r).iter().sum();
        if deg > 0.0 {
            for c in 0..n {
                out[(r, c)] = a[(r, c)] / deg;
            }
        }
    }
    out
}

/// Dense 0/1 adjacency of the static occlusion graph at `t`.
pub fn dense_adjacency(ctx: &TargetContext, t: usize) -> Matrix {
    let n = ctx.n;
    let mut a = Matrix::zeros(n, n);
    for (u, v) in ctx.occlusion[t].edges() {
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
        assert_eq!(out.adjacency.shape(), (4, 4));
        assert_eq!(out.p_hat.shape(), (4, 1));
        assert_eq!(out.s_hat.shape(), (4, 1));
    }

    #[test]
    fn adjacency_matches_occlusion_graph() {
        let c = ctx();
        let out = Mia.compute(&c, 0);
        assert_eq!(out.adjacency[(1, 2)], 1.0, "in-line users are adjacent");
        assert_eq!(out.adjacency[(2, 1)], 1.0, "symmetric");
        assert_eq!(out.adjacency[(1, 3)], 0.0);
        assert_eq!(out.adjacency[(0, 1)], 0.0, "target is isolated");
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
        let out = Mia.compute(&c, 0);
        // recommending 1 hides 2 → B[2][1] = p̂(2) = 0.9, not the reverse
        assert!((out.blocking[(2, 1)] - 0.9).abs() < 1e-12);
        assert_eq!(out.blocking[(1, 2)], 0.0);
        // non-overlapping pair carries no penalty
        assert_eq!(out.blocking[(3, 1)], 0.0);
    }

    #[test]
    fn csr_fields_match_dense_fields() {
        for t in 0..2 {
            let out = Mia.compute(&ctx(), t);
            assert!(out.adjacency_csr.to_dense().approx_eq(&out.adjacency, 0.0));
            assert!(out.adjacency_norm_csr.to_dense().approx_eq(&out.adjacency_norm, 1e-15));
            assert!(out.blocking_csr.to_dense().approx_eq(&out.blocking, 0.0));
        }
    }

    #[test]
    fn delta_matches_dense_reference_computation() {
        // The O(m) degree/mat-vec construction must equal the textbook
        // dense form (A−A')·1/N and (A²−A'²)·1/N.
        let c = ctx();
        for t in 0..2 {
            let out = Mia.compute(&c, t);
            let n = c.n;
            let adj = dense_adjacency(&c, t);
            let prev = if t == 0 { Matrix::zeros(n, n) } else { dense_adjacency(&c, t - 1) };
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
            assert_eq!(bits(&f.adjacency), bits(&d.adjacency), "t={t}: adjacency");
            assert_eq!(bits(&f.adjacency_norm), bits(&d.adjacency_norm), "t={t}: adjacency_norm");
            assert_eq!(bits(&f.blocking), bits(&d.blocking), "t={t}: blocking");
            assert_eq!(f.adjacency_csr, d.adjacency_csr, "t={t}: csr");
            assert_eq!(f.adjacency_norm_csr, d.adjacency_norm_csr, "t={t}: norm csr");
            assert_eq!(f.adjacency_csr_t, d.adjacency_csr_t, "t={t}: csr transpose");
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
