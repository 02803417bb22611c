//! MvAGC-like grouping baseline \[66\]: graph-filter-based attributed graph
//! clustering, followed by same-group recommendations.
//!
//! The original MvAGC smooths node attributes with a low-pass graph filter
//! (`X̄ = (I − ½L)^k X`), samples anchors, and clusters the filtered
//! representation. We reproduce the pipeline at the scale of a conferencing
//! room: filter the participants' utility profiles over their social graph,
//! run seeded k-means on the smoothed features, then — as grouping-based
//! recommenders do — display the members of the target's own group at every
//! time step (spatial information is ignored, which is exactly the weakness
//! the paper's experiments expose).

use poshgnn::recommender::AfterRecommender;
use poshgnn::StepView;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use xr_datasets::Scenario;

/// Seeded k-means over row-vector features. Returns cluster assignments.
pub fn kmeans(features: &[Vec<f64>], k: usize, iterations: usize, seed: u64) -> Vec<usize> {
    assert!(k >= 1, "need at least one cluster");
    let n = features.len();
    assert!(n >= k, "need at least k points");
    let dim = features[0].len();
    let mut rng = StdRng::seed_from_u64(seed);

    // Forgy init on distinct points.
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    let mut centroids: Vec<Vec<f64>> = order[..k].iter().map(|&i| features[i].clone()).collect();
    let mut assignment = vec![0usize; n];

    for _ in 0..iterations {
        // assign
        let mut changed = false;
        for (i, f) in features.iter().enumerate() {
            let mut best = (f64::INFINITY, 0usize);
            for (c, centroid) in centroids.iter().enumerate() {
                let d: f64 = f.iter().zip(centroid).map(|(a, b)| (a - b) * (a - b)).sum();
                if d < best.0 {
                    best = (d, c);
                }
            }
            if assignment[i] != best.1 {
                assignment[i] = best.1;
                changed = true;
            }
        }
        // update
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (i, f) in features.iter().enumerate() {
            let c = assignment[i];
            counts[c] += 1;
            for (s, &x) in sums[c].iter_mut().zip(f) {
                *s += x;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for s in sums[c].iter_mut() {
                    *s /= counts[c] as f64;
                }
                centroids[c] = sums[c].clone();
            }
        }
        if !changed {
            break;
        }
    }
    assignment
}

/// Applies `order` rounds of the low-pass filter `X ← ½(X + D⁻¹ A X)` over a
/// weighted adjacency (rows with zero degree stay unchanged).
pub fn graph_filter(adjacency: &[Vec<f64>], mut features: Vec<Vec<f64>>, order: usize) -> Vec<Vec<f64>> {
    let n = adjacency.len();
    let dim = if n > 0 { features[0].len() } else { 0 };
    for _ in 0..order {
        let mut next = vec![vec![0.0; dim]; n];
        for v in 0..n {
            let deg: f64 = adjacency[v].iter().sum();
            if deg > 0.0 {
                for w in 0..n {
                    let a = adjacency[v][w];
                    if a > 0.0 {
                        for d in 0..dim {
                            next[v][d] += a / deg * features[w][d];
                        }
                    }
                }
            }
            for d in 0..dim {
                next[v][d] = 0.5 * (features[v][d] + next[v][d]);
            }
        }
        features = next;
    }
    features
}

/// The MvAGC-like grouping recommender.
pub struct MvAgcRecommender {
    clusters: Vec<usize>,
    name: String,
}

impl MvAgcRecommender {
    /// Fits cluster assignments for a scenario: filters each participant's
    /// `[preference-profile ‖ social-profile]` feature rows over the social
    /// graph and clusters them into `k_clusters` groups.
    pub fn fit(scenario: &Scenario, k_clusters: usize, filter_order: usize, seed: u64) -> Self {
        let n = scenario.n();
        let k = k_clusters.min(n);
        // weighted adjacency from social ties among participants
        let adjacency: Vec<Vec<f64>> =
            (0..n).map(|v| (0..n).map(|w| scenario.social[v][w]).collect()).collect();
        let features: Vec<Vec<f64>> = (0..n)
            .map(|v| {
                let mut f = scenario.preference[v].clone();
                f.extend_from_slice(&scenario.social[v]);
                f
            })
            .collect();
        let smoothed = graph_filter(&adjacency, features, filter_order);
        let clusters = kmeans(&smoothed, k, 50, seed);
        MvAgcRecommender { clusters, name: "MvAGC".to_string() }
    }

    /// Cluster assignment per participant.
    pub fn clusters(&self) -> &[usize] {
        &self.clusters
    }
}

impl AfterRecommender for MvAgcRecommender {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn begin_episode(&mut self, _view: &StepView<'_>) {}

    fn recommend_step(&mut self, view: &StepView<'_>) -> Vec<bool> {
        let own = self.clusters[view.target()];
        (0..view.n()).map(|w| w != view.target() && self.clusters[w] == own).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::tiny_scenario;
    use poshgnn::TargetContext;

    #[test]
    fn kmeans_separates_obvious_clusters() {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(vec![0.0 + 0.01 * i as f64, 0.0]);
        }
        for i in 0..10 {
            pts.push(vec![10.0 + 0.01 * i as f64, 10.0]);
        }
        let a = kmeans(&pts, 2, 100, 1);
        // all of the first ten share a label; all of the last ten share the other
        assert!(a[..10].iter().all(|&c| c == a[0]));
        assert!(a[10..].iter().all(|&c| c == a[10]));
        assert_ne!(a[0], a[10]);
    }

    #[test]
    fn kmeans_is_deterministic() {
        let pts: Vec<Vec<f64>> = (0..20).map(|i| vec![(i % 7) as f64, (i % 3) as f64]).collect();
        assert_eq!(kmeans(&pts, 3, 50, 5), kmeans(&pts, 3, 50, 5));
    }

    #[test]
    fn graph_filter_smooths_toward_neighbors() {
        // two connected nodes with opposite features converge
        let adj = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let feats = vec![vec![1.0], vec![-1.0]];
        let sm = graph_filter(&adj, feats, 4);
        assert!(sm[0][0].abs() < 0.2, "filtering failed: {}", sm[0][0]);
        assert!((sm[0][0] + sm[1][0]).abs() < 1e-12, "symmetry preserved");
    }

    #[test]
    fn graph_filter_fixed_point_is_constant_vector() {
        let adj = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let feats = vec![vec![3.0], vec![3.0]];
        let sm = graph_filter(&adj, feats, 5);
        assert!((sm[0][0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn recommender_displays_own_group_only() {
        let scenario = tiny_scenario(16, 4, 2);
        let mut rec = MvAgcRecommender::fit(&scenario, 4, 2, 3);
        let ctx = TargetContext::new(&scenario, 0, 0.5);
        let decisions = rec.run_episode(&ctx);
        let first = &decisions[0];
        // static over time
        assert!(decisions.iter().all(|d| d == first));
        // displayed set is exactly the target's cluster minus herself
        let own = rec.clusters()[0];
        #[allow(clippy::needless_range_loop)] // w is a user id, not a position
        for w in 0..16 {
            let expect = w != 0 && rec.clusters()[w] == own;
            assert_eq!(first[w], expect);
        }
    }

    #[test]
    fn all_participants_get_a_cluster() {
        let scenario = tiny_scenario(20, 3, 4);
        let rec = MvAgcRecommender::fit(&scenario, 5, 2, 1);
        assert_eq!(rec.clusters().len(), 20);
        assert!(rec.clusters().iter().all(|&c| c < 5));
    }
}
