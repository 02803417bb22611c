//! The POSHGNN loss (paper Def. 7).
//!
//! For recommendation logits `r_t ∈ [0,1]^N`:
//!
//! ```text
//! L_t = −(1−β)·r_t·p̂_t − β·(r_t ⊗ r_{t−1})·ŝ_t + α·r_tᵀ A_t r_t + γ
//! γ   = Σ_w [(1−β)·p̂_t + β·ŝ_t]          (keeps the loss non-negative)
//! ```
//!
//! The first two terms reward recommending users with high (normalized)
//! preference and *consecutively recommended* friends; the third penalizes
//! recommending occlusion-adjacent pairs; `γ` is a constant offset that does
//! not affect gradients. The same loss trains the DCRNN and TGCN baselines
//! (§V-A.2, "for a fair comparison").

use std::rc::Rc;

use xr_tensor::{Matrix, SparseVar, Tape, Var};

/// Hyperparameters of the POSHGNN loss.
#[derive(Debug, Clone, Copy)]
pub struct LossParams {
    /// Occlusion penalty weight `α`. With the depth-weighted blocking
    /// matrix supplied by MIA, `rᵀBr` already measures the preference
    /// expected to be *lost* to occlusion, so `α ≈ 1` makes the penalty an
    /// unbiased price; 0.4 (the tuned default) discounts the union-bound
    /// overcount when several recommended users overlap the same victim
    /// (the paper's 0.01 belongs to its unweighted edge count; it notes α
    /// "can be set based on individuals' preferences").
    pub alpha: f64,
    /// Social-presence weight `β ∈ [0,1]` (paper default 0.5).
    pub beta: f64,
}

impl Default for LossParams {
    fn default() -> Self {
        LossParams { alpha: 0.4, beta: 0.5 }
    }
}

/// Builds the per-step POSHGNN loss on the tape.
///
/// * `r_t`, `r_prev` — `N × 1` recommendation columns (tape nodes, so the
///   social-presence term backpropagates through *both* time steps).
/// * `p_hat`, `s_hat` — the MIA-normalized utility columns, shared onto the
///   tape as zero-copy `Rc` constants (MIA caches them per episode).
/// * `adj` — the `N × N` sparse occlusion penalty operand at `t`. The
///   quadratic form is evaluated as `r_tᵀ·(A·r_t)`, so it costs O(nnz)
///   instead of O(N²).
///
/// The three reductions are recorded as fused single nodes
/// ([`Var::dot_scale`], [`Var::dot3_scale`], [`Var::mat_dot_scale`]) whose
/// arithmetic is bit-identical to the unfused `Hadamard`/`Sum`/`Scale`
/// chains they replace — the `xr_check` golden replay pins this.
pub fn poshgnn_loss<'t>(
    tape: &'t Tape,
    r_t: Var<'t>,
    r_prev: Var<'t>,
    p_hat: &Rc<Matrix>,
    s_hat: &Rc<Matrix>,
    adj: SparseVar<'t>,
    params: LossParams,
) -> Var<'t> {
    let LossParams { alpha, beta } = params;
    let p = tape.constant_rc(p_hat.clone());
    let s = tape.constant_rc(s_hat.clone());
    let gain_p = r_t.dot_scale(p, -(1.0 - beta));
    let gain_s = r_t.dot3_scale(r_prev, s, -beta);
    let occlusion = r_t.t().mat_dot_scale(adj.matmul(r_t), alpha);
    let gamma = (1.0 - beta) * p_hat.sum() + beta * s_hat.sum();
    (gain_p + gain_s + occlusion).add_scalar(gamma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xr_tensor::CsrAdj;

    fn col(vals: &[f64]) -> Matrix {
        Matrix::col_vec(vals)
    }

    /// The `n × n` penalty operand with no edges.
    fn no_edges(tape: &Tape, n: usize) -> SparseVar<'_> {
        tape.sparse(Rc::new(CsrAdj::empty(n, n)))
    }

    #[test]
    fn perfect_recommendation_minimizes_loss() {
        // Two independent users with p = s = 1: recommending both in two
        // consecutive steps should give loss exactly γ − gains = 0.
        let tape = Tape::new();
        let r = tape.constant(col(&[1.0, 1.0]));
        let p = Rc::new(col(&[1.0, 1.0]));
        let s = Rc::new(col(&[1.0, 1.0]));
        let adj = no_edges(&tape, 2);
        let loss = poshgnn_loss(&tape, r, r, &p, &s, adj, LossParams { alpha: 0.01, beta: 0.5 });
        assert!(loss.scalar().abs() < 1e-12);
    }

    #[test]
    fn empty_recommendation_pays_full_gamma() {
        let tape = Tape::new();
        let r = tape.constant(col(&[0.0, 0.0]));
        let p = Rc::new(col(&[0.6, 0.4]));
        let s = Rc::new(col(&[0.2, 0.0]));
        let adj = no_edges(&tape, 2);
        let params = LossParams { alpha: 0.01, beta: 0.5 };
        let loss = poshgnn_loss(&tape, r, r, &p, &s, adj, params);
        let gamma = 0.5 * 1.0 + 0.5 * 0.2;
        assert!((loss.scalar() - gamma).abs() < 1e-12);
    }

    #[test]
    fn occlusion_edge_increases_loss() {
        let p = Rc::new(col(&[0.5, 0.5]));
        let s = Rc::new(col(&[0.0, 0.0]));
        let params = LossParams { alpha: 0.1, beta: 0.5 };

        let run = |edge: bool| {
            let tape = Tape::new();
            let r = tape.constant(col(&[1.0, 1.0]));
            let adj = if edge {
                tape.sparse(Rc::new(CsrAdj::from_entries(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)])))
            } else {
                no_edges(&tape, 2)
            };
            poshgnn_loss(&tape, r, r, &p, &s, adj, params).scalar()
        };
        let with_edge = run(true);
        let without = run(false);
        // penalty = α · rᵀAr = 0.1 × 2 = 0.2
        assert!((with_edge - without - 0.2).abs() < 1e-12);
    }

    #[test]
    fn social_gain_requires_previous_recommendation() {
        let p = Rc::new(col(&[0.0]));
        let s = Rc::new(col(&[1.0]));
        let params = LossParams { alpha: 0.0, beta: 1.0 };
        let run = |prev: f64| {
            let tape = Tape::new();
            let r = tape.constant(col(&[1.0]));
            let rp = tape.constant(col(&[prev]));
            let adj = no_edges(&tape, 1);
            poshgnn_loss(&tape, r, rp, &p, &s, adj, params).scalar()
        };
        assert!(run(1.0) < run(0.0), "continuity must be rewarded");
        assert!((run(0.0) - 1.0).abs() < 1e-12, "no continuity → full γ");
    }

    #[test]
    fn loss_is_nonnegative_for_probability_inputs() {
        // For r ∈ [0,1] and α ≥ 0 the gains are bounded by γ, so L ≥ 0.
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let n = 5;
            let rv: Vec<f64> = (0..n).map(|_| rng.gen()).collect();
            let pv: Vec<f64> = (0..n).map(|_| rng.gen()).collect();
            let sv: Vec<f64> = (0..n).map(|_| rng.gen()).collect();
            let tape = Tape::new();
            let r = tape.constant(col(&rv));
            let rp = tape.constant(col(&rv));
            let adj = no_edges(&tape, n);
            let loss = poshgnn_loss(
                &tape,
                r,
                rp,
                &Rc::new(col(&pv)),
                &Rc::new(col(&sv)),
                adj,
                LossParams::default(),
            );
            assert!(loss.scalar() >= -1e-9, "negative loss {}", loss.scalar());
        }
    }
}
