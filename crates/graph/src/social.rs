//! Weighted social networks `G = (V, E)`.
//!
//! The AFTER problem consumes a social graph twice: preference utilities
//! `p(v,w)` are estimated from structural similarity (a stand-in for the
//! pre-trained personalized recommenders the paper cites), and social
//! presence utilities `s(v,w)` come from tie strength.

use std::collections::HashMap;

/// A weighted undirected social network over users `0..n`.
#[derive(Debug, Clone, Default)]
pub struct SocialGraph {
    n: usize,
    adj: Vec<Vec<(usize, f64)>>,
    weights: HashMap<(usize, usize), f64>,
}

impl SocialGraph {
    /// An edgeless social network on `n` users.
    pub fn new(n: usize) -> Self {
        SocialGraph { n, adj: vec![Vec::new(); n], weights: HashMap::new() }
    }

    /// Number of users.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of ties.
    pub fn edge_count(&self) -> usize {
        self.weights.len()
    }

    /// Adds (or overwrites) a tie with strength `w ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints or self-loops.
    pub fn add_tie(&mut self, a: usize, b: usize, w: f64) {
        assert!(a < self.n && b < self.n, "tie ({a},{b}) out of range");
        assert_ne!(a, b, "self-ties are not allowed");
        let key = (a.min(b), a.max(b));
        if self.weights.insert(key, w).is_none() {
            self.adj[a].push((b, w));
            self.adj[b].push((a, w));
        } else {
            for slot in self.adj[a].iter_mut() {
                if slot.0 == b {
                    slot.1 = w;
                }
            }
            for slot in self.adj[b].iter_mut() {
                if slot.0 == a {
                    slot.1 = w;
                }
            }
        }
    }

    /// Tie strength between two users (0 when no tie exists).
    pub fn tie_strength(&self, a: usize, b: usize) -> f64 {
        if a == b {
            return 0.0;
        }
        *self.weights.get(&(a.min(b), a.max(b))).unwrap_or(&0.0)
    }

    /// `true` when a tie exists.
    pub fn are_friends(&self, a: usize, b: usize) -> bool {
        self.tie_strength(a, b) > 0.0
    }

    /// Neighbors with their tie strengths.
    pub fn ties(&self, v: usize) -> &[(usize, f64)] {
        &self.adj[v]
    }

    /// Degree (number of ties) of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// BFS hop distances from `src` (`usize::MAX` when unreachable).
    pub fn hop_distances(&self, src: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.n];
        dist[src] = 0;
        let mut queue = std::collections::VecDeque::from([src]);
        while let Some(v) = queue.pop_front() {
            for &(w, _) in &self.adj[v] {
                if dist[w] == usize::MAX {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// Mean degree.
    pub fn mean_degree(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / self.n as f64
        }
    }

    /// Global clustering coefficient (transitivity):
    /// `3 × #triangles / #connected-triples`.
    pub fn transitivity(&self) -> f64 {
        let mut triangles = 0usize;
        let mut triples = 0usize;
        for v in 0..self.n {
            let d = self.degree(v);
            triples += d * d.saturating_sub(1) / 2;
            let nbrs: Vec<usize> = self.adj[v].iter().map(|&(w, _)| w).collect();
            for i in 0..nbrs.len() {
                for j in i + 1..nbrs.len() {
                    if self.are_friends(nbrs[i], nbrs[j]) {
                        triangles += 1;
                    }
                }
            }
        }
        // every triangle is counted once per corner = 3 times total
        if triples == 0 {
            0.0
        } else {
            triangles as f64 / triples as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_leaf() -> SocialGraph {
        // 0-1-2 triangle, 3 hangs off 0
        let mut g = SocialGraph::new(4);
        g.add_tie(0, 1, 0.9);
        g.add_tie(1, 2, 0.8);
        g.add_tie(0, 2, 0.7);
        g.add_tie(0, 3, 0.5);
        g
    }

    #[test]
    fn tie_strength_symmetric_and_zero_for_strangers() {
        let g = triangle_plus_leaf();
        assert_eq!(g.tie_strength(0, 1), 0.9);
        assert_eq!(g.tie_strength(1, 0), 0.9);
        assert_eq!(g.tie_strength(1, 3), 0.0);
        assert_eq!(g.tie_strength(2, 2), 0.0);
        assert!(g.are_friends(0, 3));
        assert!(!g.are_friends(1, 3));
    }

    #[test]
    fn overwrite_updates_both_directions() {
        let mut g = triangle_plus_leaf();
        g.add_tie(1, 0, 0.1);
        assert_eq!(g.tie_strength(0, 1), 0.1);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.ties(0).iter().find(|&&(w, _)| w == 1).unwrap().1, 0.1);
        assert_eq!(g.ties(1).iter().find(|&&(w, _)| w == 0).unwrap().1, 0.1);
    }

    #[test]
    fn hop_distances_work() {
        let g = triangle_plus_leaf();
        let d = g.hop_distances(3);
        assert_eq!(d, vec![1, 2, 2, 0]);
    }

    #[test]
    fn transitivity_of_triangle_is_one() {
        let mut g = SocialGraph::new(3);
        g.add_tie(0, 1, 1.0);
        g.add_tie(1, 2, 1.0);
        g.add_tie(0, 2, 1.0);
        assert!((g.transitivity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transitivity_of_star_is_zero() {
        let mut g = SocialGraph::new(4);
        g.add_tie(0, 1, 1.0);
        g.add_tie(0, 2, 1.0);
        g.add_tie(0, 3, 1.0);
        assert_eq!(g.transitivity(), 0.0);
    }

    #[test]
    fn degree_stats() {
        let g = triangle_plus_leaf();
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.mean_degree(), 2.0);
    }

    #[test]
    #[should_panic(expected = "self-ties")]
    fn self_tie_panics() {
        SocialGraph::new(2).add_tie(1, 1, 0.5);
    }
}
