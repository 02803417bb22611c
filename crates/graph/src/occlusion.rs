//! Occlusion graphs and the circular-arc occlusion converter (paper §III-B).
//!
//! For a flat social XR space the converter places the target user `v` at the
//! center of a circle and computes, for every other user `w`, the arc `I_t^w`
//! that `w`'s body occupies in `v`'s 360-degree view. Two users are connected
//! in the *static occlusion graph* `O_t^v` exactly when their arcs intersect
//! (a circular-arc graph, plus `v` itself as an isolated node). A *dynamic
//! occlusion graph* (Def. 4) is the sequence of static graphs over
//! `t ∈ {0, …, T}`.

use crate::geom::{angle_diff, Point2};
use crate::ugraph::UGraph;

/// The arc a user occupies in the target's 360° view at one time step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewArc {
    /// Angular position of the user's center, in `[0, 2π)`.
    pub center: f64,
    /// Angular half-width of the occupied arc, in `[0, π]`.
    pub half_width: f64,
    /// Euclidean distance from the target.
    pub distance: f64,
}

impl ViewArc {
    /// `true` when two arcs overlap on the circle.
    pub fn intersects(&self, other: &ViewArc) -> bool {
        angle_diff(self.center, other.center) < self.half_width + other.half_width
    }
}

/// Converts user positions into occlusion arcs and occlusion graphs.
#[derive(Debug, Clone, Copy)]
pub struct OcclusionConverter {
    /// Physical body radius of an avatar, in meters. The paper's experiments
    /// use a 10 m² conferencing room; 0.25 m is a human-shoulder-scale value.
    pub body_radius: f64,
}

impl Default for OcclusionConverter {
    fn default() -> Self {
        OcclusionConverter { body_radius: 0.25 }
    }
}

impl OcclusionConverter {
    /// A converter with a custom body radius.
    pub fn new(body_radius: f64) -> Self {
        assert!(body_radius > 0.0, "body radius must be positive");
        OcclusionConverter { body_radius }
    }

    /// The view arc of user `w` as seen by the target at `target_pos`, or
    /// `None` when the two coincide (an arbitrarily wide arc would be
    /// meaningless; callers treat coincident users as occluding everything).
    pub fn arc(&self, target_pos: Point2, w_pos: Point2) -> Option<ViewArc> {
        let rel = w_pos - target_pos;
        let d = rel.norm();
        if d < 1e-9 {
            return None;
        }
        // When the body disk contains the viewer (d <= r) the arc spans the
        // whole circle.
        let half_width =
            if d <= self.body_radius { std::f64::consts::PI } else { (self.body_radius / d).asin() };
        Some(ViewArc { center: rel.angle(), half_width, distance: d })
    }

    /// Arcs for every user; `None` at the target index (and for coincident
    /// users).
    pub fn arcs(&self, target: usize, positions: &[Point2]) -> Vec<Option<ViewArc>> {
        positions
            .iter()
            .enumerate()
            .map(|(w, &p)| if w == target { None } else { self.arc(positions[target], p) })
            .collect()
    }

    /// The static occlusion graph `O_t^v` for the given positions: nodes are
    /// all users, the target is isolated, and two users are adjacent iff
    /// their arcs intersect.
    pub fn static_graph(&self, target: usize, positions: &[Point2]) -> UGraph {
        let arcs = self.arcs(target, positions);
        let n = positions.len();
        // the i < j scan lists edges in sorted (min, max) order
        let mut edges = Vec::new();
        for i in 0..n {
            let Some(ai) = arcs[i] else { continue };
            for (j, aj) in arcs.iter().enumerate().skip(i + 1) {
                let Some(aj) = aj else { continue };
                if ai.intersects(aj) {
                    edges.push((i as u32, j as u32));
                }
            }
        }
        UGraph::from_sorted_unique_edges(n, &edges)
    }

    /// Visibility of each user given a display decision.
    ///
    /// `displayed[w]` says entity `w` appears on the target's viewport
    /// (either recommended, or physically present for an MR viewer). A
    /// displayed user `w` is *visible* (`1[v ⇒ w]` in the paper) iff no other
    /// displayed user overlaps `w`'s arc while standing strictly nearer to
    /// the viewer. Non-displayed users are never visible.
    pub fn visibility(&self, target: usize, positions: &[Point2], displayed: &[bool]) -> Vec<bool> {
        assert_eq!(positions.len(), displayed.len(), "displayed mask length mismatch");
        let arcs = self.arcs(target, positions);
        let n = positions.len();
        let mut visible = vec![false; n];
        for w in 0..n {
            if w == target || !displayed[w] {
                continue;
            }
            let Some(aw) = arcs[w] else {
                continue; // coincident with viewer: treated as not visible
            };
            let mut occluded = false;
            for u in 0..n {
                if u == w || u == target || !displayed[u] {
                    continue;
                }
                if let Some(au) = arcs[u] {
                    if au.distance < aw.distance && au.intersects(&aw) {
                        occluded = true;
                        break;
                    }
                }
            }
            visible[w] = !occluded;
        }
        visible
    }
}

/// A dynamic occlusion graph `O^v = (V, E^v, T)` — one static occlusion graph
/// per time step (Def. 4).
#[derive(Debug, Clone)]
pub struct DynamicOcclusionGraph {
    graphs: Vec<UGraph>,
    n: usize,
}

impl DynamicOcclusionGraph {
    /// Builds the DOG for `target` from a trajectory table:
    /// `trajectories[t][w]` is user `w`'s position at time `t`.
    pub fn from_trajectories(
        converter: &OcclusionConverter,
        target: usize,
        trajectories: &[Vec<Point2>],
    ) -> Self {
        assert!(!trajectories.is_empty(), "need at least one time step");
        let n = trajectories[0].len();
        let graphs = trajectories
            .iter()
            .map(|positions| {
                assert_eq!(positions.len(), n, "inconsistent user count across time steps");
                converter.static_graph(target, positions)
            })
            .collect();
        DynamicOcclusionGraph { graphs, n }
    }

    /// Wraps pre-built static graphs (used by the GIG → DOG reduction).
    pub fn from_static_graphs(graphs: Vec<UGraph>) -> Self {
        assert!(!graphs.is_empty(), "need at least one static graph");
        let n = graphs[0].node_count();
        assert!(graphs.iter().all(|g| g.node_count() == n), "inconsistent node counts");
        DynamicOcclusionGraph { graphs, n }
    }

    /// Number of time steps `T + 1`.
    pub fn time_steps(&self) -> usize {
        self.graphs.len()
    }

    /// Number of users.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The static occlusion graph at time `t`.
    pub fn at(&self, t: usize) -> &UGraph {
        &self.graphs[t]
    }

    /// Number of edges that differ between consecutive static graphs —
    /// quantifies the "gradual change" assumption that PDR exploits.
    pub fn edge_churn(&self, t: usize) -> usize {
        if t == 0 {
            return self.graphs[0].edge_count();
        }
        let prev: std::collections::BTreeSet<_> = self.graphs[t - 1].edges().collect();
        let cur: std::collections::BTreeSet<_> = self.graphs[t].edges().collect();
        prev.symmetric_difference(&cur).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three users on a line east of the target: 1 and 2 behind each other,
    /// 3 far off to the north.
    fn line_positions() -> Vec<Point2> {
        vec![
            Point2::new(0.0, 0.0),  // target 0
            Point2::new(1.0, 0.0),  // 1: east, near
            Point2::new(2.0, 0.05), // 2: east, behind 1 (arcs overlap)
            Point2::new(0.0, 3.0),  // 3: north, clear
        ]
    }

    #[test]
    fn arc_geometry() {
        let conv = OcclusionConverter::new(0.25);
        let a = conv.arc(Point2::zero(), Point2::new(1.0, 0.0)).unwrap();
        assert!((a.center - 0.0).abs() < 1e-12);
        assert!((a.distance - 1.0).abs() < 1e-12);
        assert!((a.half_width - (0.25_f64).asin()).abs() < 1e-12);
        // farther user → narrower arc
        let b = conv.arc(Point2::zero(), Point2::new(4.0, 0.0)).unwrap();
        assert!(b.half_width < a.half_width);
    }

    #[test]
    fn coincident_user_has_no_arc() {
        let conv = OcclusionConverter::default();
        assert!(conv.arc(Point2::zero(), Point2::zero()).is_none());
    }

    #[test]
    fn touching_viewer_spans_half_circle_or_more() {
        let conv = OcclusionConverter::new(0.5);
        let a = conv.arc(Point2::zero(), Point2::new(0.3, 0.0)).unwrap();
        assert_eq!(a.half_width, std::f64::consts::PI);
    }

    #[test]
    fn arcs_wraparound_intersection() {
        // arcs straddling the 0/2π seam must still intersect
        let a = ViewArc { center: 0.05, half_width: 0.2, distance: 1.0 };
        let b = ViewArc { center: std::f64::consts::TAU - 0.05, half_width: 0.2, distance: 1.0 };
        assert!(a.intersects(&b));
        let c = ViewArc { center: std::f64::consts::PI, half_width: 0.2, distance: 1.0 };
        assert!(!a.intersects(&c));
    }

    #[test]
    fn static_graph_connects_aligned_users_only() {
        let conv = OcclusionConverter::new(0.25);
        let g = conv.static_graph(0, &line_positions());
        assert!(g.has_edge(1, 2), "in-line users must be occlusion-adjacent");
        assert!(!g.has_edge(1, 3));
        assert!(!g.has_edge(2, 3));
        assert_eq!(g.degree(0), 0, "target is isolated");
    }

    #[test]
    fn visibility_nearer_user_occludes_farther() {
        let conv = OcclusionConverter::new(0.25);
        let pos = line_positions();
        let vis = conv.visibility(0, &pos, &[false, true, true, true]);
        assert!(!vis[0], "target is never its own rendered user");
        assert!(vis[1], "front user is visible");
        assert!(!vis[2], "rear user is occluded by the front user");
        assert!(vis[3], "clear user is visible");
    }

    #[test]
    fn visibility_respects_display_mask() {
        let conv = OcclusionConverter::new(0.25);
        let pos = line_positions();
        // hide the blocker: rear user becomes visible
        let vis = conv.visibility(0, &pos, &[false, false, true, true]);
        assert!(!vis[1]);
        assert!(vis[2]);
    }

    #[test]
    fn dynamic_graph_tracks_motion() {
        let conv = OcclusionConverter::new(0.25);
        // t=0: user 2 hides behind user 1. t=1: user 2 steps far north.
        let t0 = line_positions();
        let mut t1 = line_positions();
        t1[2] = Point2::new(-2.0, -2.0);
        let dog = DynamicOcclusionGraph::from_trajectories(&conv, 0, &[t0, t1]);
        assert_eq!(dog.time_steps(), 2);
        assert!(dog.at(0).has_edge(1, 2));
        assert!(!dog.at(1).has_edge(1, 2));
        assert_eq!(dog.edge_churn(1), 1);
    }

    #[test]
    fn edge_churn_zero_for_static_scene() {
        let conv = OcclusionConverter::new(0.25);
        let pos = line_positions();
        let dog = DynamicOcclusionGraph::from_trajectories(&conv, 0, &[pos.clone(), pos]);
        assert_eq!(dog.edge_churn(1), 0);
    }
}
