//! Geometric intersection graphs (paper Def. 6) and the GIG → DOG reduction
//! (Lemma 1) underlying the NP-hardness proof (Thm. 1).
//!
//! A unit-disk graph is the simplest GIG on which MWIS is already NP-hard;
//! we provide a random unit-disk instance generator plus the transformation
//! of any GIG into a single-step dynamic occlusion graph, mirroring the
//! paper's proof construction. Tests and benches use these to validate the
//! solvers and to demonstrate the reduction concretely.

use rand::Rng;

use crate::geom::Point2;
use crate::occlusion::DynamicOcclusionGraph;
use crate::ugraph::UGraph;

/// A set of disks in the plane with its intersection graph.
#[derive(Debug, Clone)]
pub struct DiskGig {
    /// Disk centers.
    pub centers: Vec<Point2>,
    /// Disk radii (all equal for a *unit*-disk graph).
    pub radii: Vec<f64>,
    /// The intersection graph: vertices are disks, edges are non-empty
    /// pairwise intersections.
    pub graph: UGraph,
}

impl DiskGig {
    /// Builds the intersection graph from explicit disks.
    pub fn from_disks(centers: Vec<Point2>, radii: Vec<f64>) -> Self {
        assert_eq!(centers.len(), radii.len(), "centers/radii length mismatch");
        assert!(radii.iter().all(|&r| r > 0.0), "radii must be positive");
        let n = centers.len();
        // the i < j scan lists edges in sorted (min, max) order
        let mut edges = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                let touch = radii[i] + radii[j];
                if centers[i].distance_sq(centers[j]) <= touch * touch {
                    edges.push((i as u32, j as u32));
                }
            }
        }
        let graph = UGraph::from_sorted_unique_edges(n, &edges);
        DiskGig { centers, radii, graph }
    }

    /// A random unit-disk graph: `n` disks of radius `radius` with centers
    /// uniform in a `side × side` square.
    pub fn random_unit_disks(n: usize, side: f64, radius: f64, rng: &mut impl Rng) -> Self {
        let centers =
            (0..n).map(|_| Point2::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side))).collect();
        DiskGig::from_disks(centers, vec![radius; n])
    }

    /// Number of disks.
    pub fn len(&self) -> usize {
        self.centers.len()
    }

    /// `true` when the instance has no disks.
    pub fn is_empty(&self) -> bool {
        self.centers.is_empty()
    }
}

/// Transforms a GIG into a dynamic occlusion graph with `T = 0` (Lemma 1):
/// the plane becomes a panoramic scene for a new target user appended as the
/// last, isolated node; the GIG's intersection edges become the occlusion
/// edges at `t = 0`.
///
/// Returns the DOG and the index of the inserted target user.
pub fn gig_to_dog(gig: &UGraph) -> (DynamicOcclusionGraph, usize) {
    let n = gig.node_count();
    let edges: Vec<(u32, u32)> = gig.edges().map(|(a, b)| (a as u32, b as u32)).collect();
    let g = UGraph::from_sorted_unique_edges(n + 1, &edges);
    // node `n` (the target) stays isolated by construction
    (DynamicOcclusionGraph::from_static_graphs(vec![g]), n)
}

/// Rescales arbitrary MWIS node weights into valid preference utilities
/// `(1-β)·p(v,w) ∈ [0,1]` exactly as in the proof of Thm. 1:
/// `W'(w) = (W(w) + W_min) / (W_max + W_min)`.
pub fn weights_to_preferences(weights: &[f64]) -> Vec<f64> {
    assert!(!weights.is_empty(), "need at least one weight");
    let min = weights.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = weights.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let denom = max + min;
    weights
        .iter()
        .map(|&w| if denom.abs() < 1e-12 { 0.0 } else { ((w + min) / denom).clamp(0.0, 1.0) })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mwis::{mwis_exact, mwis_greedy};
    use rand::SeedableRng;

    #[test]
    fn disks_intersect_iff_close() {
        let gig = DiskGig::from_disks(
            vec![Point2::new(0.0, 0.0), Point2::new(1.5, 0.0), Point2::new(10.0, 0.0)],
            vec![1.0, 1.0, 1.0],
        );
        assert!(gig.graph.has_edge(0, 1));
        assert!(!gig.graph.has_edge(0, 2));
        assert!(!gig.graph.has_edge(1, 2));
    }

    #[test]
    fn random_unit_disks_density_scales_with_radius() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let sparse = DiskGig::random_unit_disks(50, 100.0, 0.5, &mut rng);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let dense = DiskGig::random_unit_disks(50, 100.0, 10.0, &mut rng);
        assert!(dense.graph.edge_count() > sparse.graph.edge_count());
    }

    #[test]
    fn gig_to_dog_preserves_edges_and_isolates_target() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let gig = DiskGig::random_unit_disks(20, 10.0, 1.0, &mut rng);
        let (dog, target) = gig_to_dog(&gig.graph);
        assert_eq!(dog.time_steps(), 1);
        assert_eq!(dog.node_count(), 21);
        assert_eq!(target, 20);
        assert_eq!(dog.at(0).degree(target), 0);
        for (a, b) in gig.graph.edges() {
            assert!(dog.at(0).has_edge(a, b));
        }
        assert_eq!(dog.at(0).edge_count(), gig.graph.edge_count());
    }

    #[test]
    fn weight_rescaling_lands_in_unit_interval_and_preserves_order() {
        let w = vec![3.0, 1.0, 7.0, 5.0];
        let p = weights_to_preferences(&w);
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        // order preserved
        assert!(p[2] > p[3] && p[3] > p[0] && p[0] > p[1]);
    }

    #[test]
    fn reduction_preserves_mwis_optimum() {
        // Solving MWIS on the GIG and on the DOG's static graph (restricted
        // to the original nodes) must coincide — the core of Thm. 1.
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let gig = DiskGig::random_unit_disks(14, 6.0, 1.0, &mut rng);
        let w: Vec<f64> = (0..14).map(|i| 1.0 + (i % 5) as f64).collect();
        let direct = mwis_exact(&gig.graph, &w);

        let (dog, target) = gig_to_dog(&gig.graph);
        let mut w2 = w.clone();
        w2.push(0.0); // the target user has no self-utility
        let via_dog = mwis_exact(dog.at(0), &w2);
        assert!((direct.weight - via_dog.weight).abs() < 1e-9);
        assert!(!via_dog.nodes.contains(&target) || w2[target] == 0.0);
    }

    #[test]
    fn greedy_gap_is_bounded_on_unit_disks() {
        // sanity: greedy achieves at least 40% of optimum on these instances
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for _ in 0..5 {
            let gig = DiskGig::random_unit_disks(18, 8.0, 1.2, &mut rng);
            let w = vec![1.0; 18];
            let opt = mwis_exact(&gig.graph, &w);
            let greedy = mwis_greedy(&gig.graph, &w);
            assert!(greedy.weight >= 0.4 * opt.weight);
        }
    }
}
