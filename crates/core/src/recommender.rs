//! The AFTER recommender interface (paper Def. 1).

use crate::problem::TargetContext;
use crate::view::StepView;

/// An AFTER recommender `F_t(·): V → 2^V` — given a target user's context,
/// it emits the set of users to render at each time step.
///
/// Recommenders are *stateful across a single episode* (POSHGNN carries its
/// hidden state `h_{t-1}` and previous recommendation `r_{t-1}`);
/// [`AfterRecommender::begin_episode`] resets that state.
///
/// The stepwise contract is *no-lookahead by construction*: each step
/// receives a [`StepView`] exposing only ticks `0..=t`, so an implementor
/// outside `poshgnn` has no API through which to read future positions.
pub trait AfterRecommender {
    /// Human-readable method name (used in the result tables).
    fn name(&self) -> String;

    /// Resets per-episode state for a new target episode. The view is at
    /// tick 0 — episode-level constants (`n`, `β`, the utility rows) are
    /// readable; no scene data past the first frame is.
    fn begin_episode(&mut self, view: &StepView<'_>);

    /// Produces the display decision for the view's time step: `rec[w]` is
    /// `true` when user `w` should be rendered for the target. `rec[target]`
    /// is ignored by the evaluator.
    fn recommend_step(&mut self, view: &StepView<'_>) -> Vec<bool>;

    /// Delivery delay in time steps. Real-time methods return 0. Methods
    /// whose per-step computation exceeds the time-step budget (COMURNet
    /// \[37\] needs ~22 s per step at N = 200 — see the paper's Fig. 2b, where
    /// its `t = 0` result arrives after `t = 2`) deliver stale decisions:
    /// the evaluator applies the decision computed for step `t` at step
    /// `t + latency_steps()`.
    fn latency_steps(&self) -> usize {
        0
    }

    /// Runs a full episode (steps `0..=T`), returning one decision per step.
    /// The driver owns the full context; the method only ever sees the
    /// per-tick views.
    fn run_episode(&mut self, ctx: &TargetContext) -> Vec<Vec<bool>> {
        self.begin_episode(&StepView::new(ctx, 0));
        (0..=ctx.t_max()).map(|t| self.recommend_step(&StepView::new(ctx, t))).collect()
    }
}

/// Converts a probability column into a display decision via thresholding,
/// always excluding the target.
pub fn threshold_decision(probs: &[f64], target: usize, threshold: f64) -> Vec<bool> {
    probs.iter().enumerate().map(|(w, &p)| w != target && p > threshold).collect()
}

/// Selects the indices of the `k` largest values (excluding `target`),
/// breaking ties toward lower indices. Utility shared by Nearest/GraFrank-
/// style top-k recommenders.
///
/// NaN-safe: `total_cmp` orders NaN above every finite score in this
/// descending sort, so a poisoned score degrades into a deterministic pick
/// instead of panicking a serving thread.
pub fn top_k_indices(scores: &[f64], target: usize, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).filter(|&w| w != target).collect();
    idx.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
    idx.truncate(k);
    idx
}

/// Builds a boolean mask from selected indices.
pub fn mask_from_indices(n: usize, indices: &[usize]) -> Vec<bool> {
    let mut mask = vec![false; n];
    for &i in indices {
        mask[i] = true;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_excludes_target() {
        let d = threshold_decision(&[0.9, 0.9, 0.1], 0, 0.5);
        assert_eq!(d, vec![false, true, false]);
    }

    #[test]
    fn top_k_orders_by_score() {
        let idx = top_k_indices(&[0.5, 0.9, 0.1, 0.7], 0, 2);
        assert_eq!(idx, vec![1, 3]);
    }

    #[test]
    fn top_k_skips_target_and_handles_small_n() {
        let idx = top_k_indices(&[0.9, 0.1], 0, 5);
        assert_eq!(idx, vec![1]);
    }

    #[test]
    fn top_k_tie_break_is_deterministic() {
        let idx = top_k_indices(&[0.5, 0.5, 0.5, 0.5], 3, 2);
        assert_eq!(idx, vec![0, 1]);
    }

    #[test]
    fn top_k_survives_nan_scores() {
        // NaN sorts first (total_cmp descending) but deterministically —
        // no panic, stable output
        let idx = top_k_indices(&[0.5, f64::NAN, 0.9, f64::NAN], 0, 2);
        assert_eq!(idx, vec![1, 3]);
        let all_nan = top_k_indices(&[f64::NAN; 4], 2, 3);
        assert_eq!(all_nan, vec![0, 1, 3]);
    }

    #[test]
    fn mask_round_trip() {
        let mask = mask_from_indices(4, &[1, 3]);
        assert_eq!(mask, vec![false, true, false, true]);
    }
}
