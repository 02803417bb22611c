//! Exact polynomial-time MWIS on **circular-arc graphs**.
//!
//! The paper's NP-hardness result (Thm. 1) holds for *general* geometric
//! intersection graphs; but the occlusion graphs its own converter produces
//! (§III-B) are circular-arc graphs, on which MWIS is solvable in
//! `O(k·n log n)` (k = arcs crossing a fixed cut). This module exploits that
//! structure:
//!
//! 1. fix the cut angle θ = 0;
//! 2. either no chosen arc crosses the cut — drop the crossing arcs and
//!    solve the remaining *interval* MWIS by the classic right-endpoint DP —
//! 3. or exactly one crossing arc `c` is chosen — include `c`, drop
//!    everything intersecting it, and solve the interval MWIS on the rest.
//!
//! This powers an *exact* myopic oracle for per-step AFTER payoffs, where
//! branch-and-bound would be exponential in the worst case.

use crate::geom::wrap_angle;
use crate::mwis::MwisSolution;
use crate::occlusion::ViewArc;

/// A circular arc `[start, end)` going counterclockwise; `start`/`end` are
/// angles in `[0, 2π)`. When `start > end` the arc crosses the cut at 0.
/// `full` marks arcs covering the whole circle (they intersect everything).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircArc {
    pub start: f64,
    pub end: f64,
    pub full: bool,
}

impl CircArc {
    /// Builds from a [`ViewArc`] (center ± half-width).
    pub fn from_view_arc(arc: &ViewArc) -> Self {
        if arc.half_width >= std::f64::consts::PI {
            return CircArc { start: 0.0, end: 0.0, full: true };
        }
        CircArc {
            start: wrap_angle(arc.center - arc.half_width),
            end: wrap_angle(arc.center + arc.half_width),
            full: false,
        }
    }

    /// `true` when the arc crosses (or touches) the cut angle 0.
    pub fn crosses_cut(&self) -> bool {
        self.full || self.start > self.end
    }

    /// Open-interval intersection test on the circle, consistent with
    /// [`ViewArc::intersects`] (touching endpoints do not intersect).
    pub fn intersects(&self, other: &CircArc) -> bool {
        if self.full || other.full {
            return true;
        }
        let segs_a = self.segments();
        let segs_b = other.segments();
        for &(s1, e1) in &segs_a {
            for &(s2, e2) in &segs_b {
                if s1 < e2 && s2 < e1 {
                    return true;
                }
            }
        }
        false
    }

    /// The arc as 1 or 2 linear segments on `[0, 2π)`.
    fn segments(&self) -> Vec<(f64, f64)> {
        if self.crosses_cut() {
            vec![(self.start, std::f64::consts::TAU), (0.0, self.end)]
        } else {
            vec![(self.start, self.end)]
        }
    }
}

/// Classic interval-MWIS DP on `(start, end, weight, original_index)`
/// tuples: sort by right endpoint; `dp[i] = max(dp[i-1], w_i + dp[p(i)])`.
fn interval_mwis(intervals: &[(f64, f64, f64, usize)]) -> (f64, Vec<usize>) {
    let mut items: Vec<&(f64, f64, f64, usize)> = intervals.iter().collect();
    items.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let n = items.len();
    if n == 0 {
        return (0.0, Vec::new());
    }
    // p(i): last interval j < i with end_j <= start_i (binary search works
    // because items are sorted by end)
    let pred = |i: usize| -> Option<usize> {
        let start_i = items[i].0;
        let mut lo = 0usize;
        let mut hi = i; // exclusive
        while lo < hi {
            let mid = (lo + hi) / 2;
            if items[mid].1 <= start_i {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo.checked_sub(1)
    };

    let mut dp = vec![0.0_f64; n + 1];
    let mut take = vec![false; n];
    for i in 0..n {
        let skip = dp[i];
        let p = pred(i);
        let take_val = items[i].2 + p.map_or(0.0, |j| dp[j + 1]);
        if take_val > skip {
            dp[i + 1] = take_val;
            take[i] = true;
        } else {
            dp[i + 1] = skip;
        }
    }
    // backtrack
    let mut chosen = Vec::new();
    let mut i = n;
    while i > 0 {
        if take[i - 1] {
            chosen.push(items[i - 1].3);
            i = pred(i - 1).map_or(0, |j| j + 1);
        } else {
            i -= 1;
        }
    }
    (dp[n], chosen)
}

/// Exact MWIS over a set of circular arcs (`None` entries are absent nodes,
/// e.g. the target user). Only arcs with strictly positive weight are
/// considered. Returns the chosen original indices and total weight.
pub fn mwis_circular_arcs(arcs: &[Option<CircArc>], weights: &[f64]) -> MwisSolution {
    assert_eq!(arcs.len(), weights.len(), "arcs/weights length mismatch");
    let present: Vec<(usize, CircArc)> = arcs
        .iter()
        .enumerate()
        .filter_map(|(i, a)| a.map(|arc| (i, arc)))
        .filter(|&(i, _)| weights[i] > 0.0)
        .collect();

    // Case 1: no chosen arc crosses the cut.
    let linear: Vec<(f64, f64, f64, usize)> = present
        .iter()
        .filter(|(_, a)| !a.crosses_cut())
        .map(|&(i, a)| (a.start, a.end, weights[i], i))
        .collect();
    let (mut best_w, mut best_set) = interval_mwis(&linear);

    // Case 2: exactly one crossing arc c is chosen.
    for &(ci, c) in present.iter().filter(|(_, a)| a.crosses_cut()) {
        if c.full {
            // a full-circle arc conflicts with everything: it stands alone
            if weights[ci] > best_w {
                best_w = weights[ci];
                best_set = vec![ci];
            }
            continue;
        }
        let rest: Vec<(f64, f64, f64, usize)> = present
            .iter()
            .filter(|&&(i, a)| i != ci && !a.crosses_cut() && !a.intersects(&c))
            .map(|&(i, a)| (a.start, a.end, weights[i], i))
            .collect();
        let (w, mut set) = interval_mwis(&rest);
        if w + weights[ci] > best_w {
            best_w = w + weights[ci];
            set.push(ci);
            best_set = set;
        }
    }

    best_set.sort_unstable();
    MwisSolution { nodes: best_set, weight: best_w }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mwis::mwis_exact;
    use crate::ugraph::UGraph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn arc(center: f64, hw: f64) -> CircArc {
        CircArc::from_view_arc(&ViewArc { center: wrap_angle(center), half_width: hw, distance: 1.0 })
    }

    #[test]
    fn interval_dp_basic() {
        // three intervals: [0,2] w=1, [1,3] w=1, [2.5,4] w=1 → pick 1st + 3rd
        let items = vec![(0.0, 2.0, 1.0, 0), (1.0, 3.0, 1.0, 1), (2.5, 4.0, 1.0, 2)];
        let (w, mut set) = interval_mwis(&items);
        set.sort_unstable();
        assert_eq!(w, 2.0);
        assert_eq!(set, vec![0, 2]);
    }

    #[test]
    fn interval_dp_prefers_heavy_middle() {
        let items = vec![(0.0, 2.0, 1.0, 0), (1.0, 3.0, 5.0, 1), (3.5, 4.0, 1.0, 2)];
        let (w, set) = interval_mwis(&items);
        assert_eq!(w, 6.0);
        assert!(set.contains(&1) && set.contains(&2) && !set.contains(&0));
    }

    #[test]
    fn crossing_arc_is_detected() {
        assert!(arc(0.0, 0.3).crosses_cut()); // spans [-0.3, 0.3] through 0
        assert!(!arc(1.0, 0.3).crosses_cut());
        assert!(arc(0.0, std::f64::consts::PI).full);
    }

    #[test]
    fn intersection_matches_view_arc_semantics() {
        let a = ViewArc { center: 0.1, half_width: 0.2, distance: 1.0 };
        let b = ViewArc { center: std::f64::consts::TAU - 0.05, half_width: 0.2, distance: 1.0 };
        let c = ViewArc { center: 3.0, half_width: 0.2, distance: 1.0 };
        let (ca, cb, cc) =
            (CircArc::from_view_arc(&a), CircArc::from_view_arc(&b), CircArc::from_view_arc(&c));
        assert_eq!(a.intersects(&b), ca.intersects(&cb));
        assert_eq!(a.intersects(&c), ca.intersects(&cc));
        assert!(ca.intersects(&cb));
        assert!(!ca.intersects(&cc));
    }

    #[test]
    fn full_arc_stands_alone() {
        let arcs = vec![Some(arc(0.0, std::f64::consts::PI)), Some(arc(1.0, 0.1)), Some(arc(3.0, 0.1))];
        // full arc weight 5 beats the two independents (1 + 1)
        let sol = mwis_circular_arcs(&arcs, &[5.0, 1.0, 1.0]);
        assert_eq!(sol.nodes, vec![0]);
        // but loses when they outweigh it
        let sol = mwis_circular_arcs(&arcs, &[1.5, 1.0, 1.0]);
        assert_eq!(sol.nodes, vec![1, 2]);
    }

    #[test]
    fn none_entries_are_skipped() {
        let arcs = vec![None, Some(arc(1.0, 0.1)), None, Some(arc(3.0, 0.1))];
        let sol = mwis_circular_arcs(&arcs, &[9.0, 1.0, 9.0, 2.0]);
        assert_eq!(sol.nodes, vec![1, 3]);
        assert_eq!(sol.weight, 3.0);
    }

    #[test]
    fn matches_branch_and_bound_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(31);
        for trial in 0..40 {
            let n = 14;
            let arcs: Vec<Option<CircArc>> = (0..n)
                .map(|_| Some(arc(rng.gen_range(0.0..std::f64::consts::TAU), rng.gen_range(0.05..0.9))))
                .collect();
            let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..2.0)).collect();

            // reference: build the intersection graph and run branch-and-bound
            let g = UGraph::from_edges(
                n,
                (0..n)
                    .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
                    .filter(|&(i, j)| arcs[i].unwrap().intersects(&arcs[j].unwrap())),
            );
            let reference = mwis_exact(&g, &weights);
            let fast = mwis_circular_arcs(&arcs, &weights);
            assert!(
                (fast.weight - reference.weight).abs() < 1e-9,
                "trial {trial}: fast {} vs reference {}",
                fast.weight,
                reference.weight
            );
            assert!(g.is_independent_set(&fast.nodes), "trial {trial}: invalid set");
        }
    }

    #[test]
    fn scales_to_large_instances() {
        // 400 arcs would be hopeless for branch-and-bound on dense circles;
        // the DP finishes instantly.
        let mut rng = StdRng::seed_from_u64(5);
        let n = 400;
        let arcs: Vec<Option<CircArc>> = (0..n)
            .map(|_| Some(arc(rng.gen_range(0.0..std::f64::consts::TAU), rng.gen_range(0.02..0.3))))
            .collect();
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..1.0)).collect();
        let sol = mwis_circular_arcs(&arcs, &weights);
        assert!(sol.weight > 0.0);
        // validate independence against the pairwise test
        for (i, &a) in sol.nodes.iter().enumerate() {
            for &b in &sol.nodes[i + 1..] {
                assert!(!arcs[a].unwrap().intersects(&arcs[b].unwrap()));
            }
        }
    }
}
