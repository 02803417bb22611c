//! Reusable comparison metrics for differential subjects.
//!
//! Cross-implementation oracles that cannot demand bit equality (e.g.
//! pruned-vs-full candidate sets) compare recommendation *behavior*
//! instead: do both streams surface the same top candidates?
//! [`top_k_overlap`] is that metric.

/// Fraction of shared indices between the top-`k` rankings of two score
/// vectors, in `[0, 1]`.
///
/// Ranking is descending by score with ascending-index tiebreak — the same
/// order as [`poshgnn::top_k_indices`], and NaN-safe via `total_cmp`. `k` is
/// clamped to the vector length; `k = 0` (or empty inputs) returns 1.0
/// (two empty rankings agree vacuously).
///
/// # Panics
///
/// Panics when the two vectors have different lengths.
pub fn top_k_overlap(a: &[f64], b: &[f64], k: usize) -> f64 {
    assert_eq!(a.len(), b.len(), "score vectors must have equal length");
    let k = k.min(a.len());
    if k == 0 {
        return 1.0;
    }
    let top = |scores: &[f64]| -> Vec<usize> {
        let mut idx: Vec<usize> = (0..scores.len()).collect();
        idx.sort_by(|&x, &y| scores[y].total_cmp(&scores[x]).then(x.cmp(&y)));
        idx.truncate(k);
        idx
    };
    let ta = top(a);
    let tb: std::collections::BTreeSet<usize> = top(b).into_iter().collect();
    let shared = ta.iter().filter(|i| tb.contains(i)).count();
    shared as f64 / k as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_rankings_overlap_fully() {
        let s = [0.9, 0.1, 0.7, 0.3];
        assert_eq!(top_k_overlap(&s, &s, 2), 1.0);
        assert_eq!(top_k_overlap(&s, &s, 4), 1.0);
    }

    #[test]
    fn disjoint_top_k_overlaps_zero() {
        let a = [1.0, 0.9, 0.0, 0.0];
        let b = [0.0, 0.0, 1.0, 0.9];
        assert_eq!(top_k_overlap(&a, &b, 2), 0.0);
    }

    #[test]
    fn partial_overlap_is_fractional() {
        let a = [1.0, 0.9, 0.8, 0.0];
        let b = [1.0, 0.0, 0.8, 0.9];
        // top-3 of a = {0,1,2}; of b = {0,3,2} → 2 shared out of 3
        assert!((top_k_overlap(&a, &b, 3) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn small_score_perturbations_keep_full_overlap() {
        let a = [0.9, 0.5, 0.7, 0.1];
        let b: Vec<f64> = a.iter().map(|v| v + 1e-7).collect();
        assert_eq!(top_k_overlap(&a, &b, 3), 1.0);
    }

    #[test]
    fn k_is_clamped_and_zero_is_vacuous() {
        let a = [0.3, 0.6];
        let b = [0.6, 0.3];
        assert_eq!(top_k_overlap(&a, &b, 10), 1.0, "k beyond length compares everything");
        assert_eq!(top_k_overlap(&a, &b, 0), 1.0);
        assert_eq!(top_k_overlap(&[], &[], 3), 1.0);
    }

    #[test]
    fn ties_break_by_ascending_index_like_top_k_indices() {
        // scores all equal: top-2 must be {0, 1} for both vectors
        let a = [0.5, 0.5, 0.5];
        let b = [0.5, 0.5, 0.5];
        assert_eq!(top_k_overlap(&a, &b, 2), 1.0);
    }

    #[test]
    fn nan_scores_sort_deterministically() {
        let a = [f64::NAN, 0.9, 0.1];
        let b = [f64::NAN, 0.9, 0.1];
        // total_cmp puts NaN above +inf in descending order, same both sides
        assert_eq!(top_k_overlap(&a, &b, 2), 1.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        top_k_overlap(&[1.0], &[1.0, 2.0], 1);
    }
}
