//! Simple undirected graph used by occlusion graphs, GIGs, and MWIS solvers.

use std::collections::BTreeSet;

use xr_tensor::CsrAdj;

/// An undirected simple graph over nodes `0..n`.
///
/// Edges are stored both as a sorted edge set (for deterministic iteration
/// and O(log m) membership tests) and as adjacency lists (for traversal).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UGraph {
    n: usize,
    edges: BTreeSet<(usize, usize)>,
    adj: Vec<Vec<usize>>,
}

impl UGraph {
    /// An edgeless graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        UGraph { n, edges: BTreeSet::new(), adj: vec![Vec::new(); n] }
    }

    /// Builds a graph from an edge list; duplicate edges and self-loops are
    /// ignored.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut g = UGraph::new(n);
        for (a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    /// Builds a graph from edges already in strictly ascending `(min, max)`
    /// order with no duplicates or self-loops — the form a sorted+deduped
    /// edge scan produces. Equal to calling [`UGraph::add_edge`] per pair
    /// (adjacency lists come out in the identical order), but allocates each
    /// adjacency list at its exact final size and bulk-builds the edge set
    /// instead of paying one B-tree insert per edge.
    ///
    /// # Panics
    ///
    /// Panics (debug assertions only) when the input is not strictly sorted
    /// `(min, max)` pairs in range.
    pub fn from_sorted_unique_edges(n: usize, edges: Vec<(usize, usize)>) -> Self {
        debug_assert!(edges.iter().all(|&(a, b)| a < b && b < n), "edges must be in-range (min, max) pairs");
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]), "edges must be strictly ascending");
        let mut deg = vec![0usize; n];
        for &(a, b) in &edges {
            deg[a] += 1;
            deg[b] += 1;
        }
        let mut adj: Vec<Vec<usize>> = deg.into_iter().map(Vec::with_capacity).collect();
        for &(a, b) in &edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        UGraph { n, edges: edges.into_iter().collect(), adj }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds an undirected edge; self-loops and duplicates are ignored.
    /// Returns `true` when the edge was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics when either endpoint is out of range.
    pub fn add_edge(&mut self, a: usize, b: usize) -> bool {
        assert!(a < self.n && b < self.n, "edge ({a},{b}) out of range (n={})", self.n);
        if a == b {
            return false;
        }
        let key = (a.min(b), a.max(b));
        if self.edges.insert(key) {
            self.adj[a].push(b);
            self.adj[b].push(a);
            true
        } else {
            false
        }
    }

    /// `true` when `a` and `b` are adjacent.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        a != b && self.edges.contains(&(a.min(b), a.max(b)))
    }

    /// Neighbors of `v`.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adj[v]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// Iterator over edges as `(min, max)` pairs in sorted order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.edges.iter().copied()
    }

    /// Dense row-major adjacency matrix (`n*n` entries of 0.0/1.0).
    pub fn adjacency_rowmajor(&self) -> Vec<f64> {
        let mut a = vec![0.0; self.n * self.n];
        for &(u, v) in &self.edges {
            a[u * self.n + v] = 1.0;
            a[v * self.n + u] = 1.0;
        }
        a
    }

    /// Sparse CSR adjacency (both `(u,v)` and `(v,u)` entries, value 1.0).
    ///
    /// Costs O(n + m) — unlike [`UGraph::adjacency_rowmajor`] there is no
    /// O(n²) materialization, which is what makes per-step graph rebuilds
    /// cheap at N=500.
    pub fn adjacency_csr(&self) -> CsrAdj {
        // One walk of the sorted edge set fills every row already sorted:
        // row r receives its lower neighbours u (from edges (u, r)) in
        // ascending u before its upper neighbours v (from (r, v)) in
        // ascending v, so no per-row sort or merge is needed.
        let mut row_ptr = Vec::with_capacity(self.n + 1);
        row_ptr.push(0);
        for nb in &self.adj {
            row_ptr.push(row_ptr[row_ptr.len() - 1] + nb.len());
        }
        let mut cursor = row_ptr[..self.n].to_vec();
        let mut col_idx = vec![0; 2 * self.edges.len()];
        for &(u, v) in &self.edges {
            col_idx[cursor[u]] = v;
            cursor[u] += 1;
            col_idx[cursor[v]] = u;
            cursor[v] += 1;
        }
        let vals = vec![1.0; col_idx.len()];
        CsrAdj::from_parts(self.n, self.n, row_ptr, col_idx, vals)
    }

    /// Row-normalized sparse adjacency `D⁻¹A` (mean aggregation).
    pub fn adjacency_norm_csr(&self) -> CsrAdj {
        self.adjacency_csr().row_normalized()
    }

    /// `true` when `set` is an independent set (no two members adjacent).
    pub fn is_independent_set(&self, set: &[usize]) -> bool {
        for (i, &u) in set.iter().enumerate() {
            for &v in &set[i + 1..] {
                if self.has_edge(u, v) {
                    return false;
                }
            }
        }
        true
    }

    /// Number of edges whose endpoints are both in `set` (0 iff independent).
    pub fn conflict_count(&self, in_set: &[bool]) -> usize {
        self.edges.iter().filter(|&&(u, v)| in_set[u] && in_set[v]).count()
    }

    /// Connected components, each a sorted node list, ordered by smallest node.
    pub fn connected_components(&self) -> Vec<Vec<usize>> {
        let mut seen = vec![false; self.n];
        let mut comps = Vec::new();
        for start in 0..self.n {
            if seen[start] {
                continue;
            }
            let mut comp = Vec::new();
            let mut stack = vec![start];
            seen[start] = true;
            while let Some(v) = stack.pop() {
                comp.push(v);
                for &w in &self.adj[v] {
                    if !seen[w] {
                        seen[w] = true;
                        stack.push(w);
                    }
                }
            }
            comp.sort_unstable();
            comps.push(comp);
        }
        comps
    }

    /// BFS distances from `src` (`usize::MAX` for unreachable nodes).
    pub fn bfs_distances(&self, src: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.n];
        dist[src] = 0;
        let mut queue = std::collections::VecDeque::from([src]);
        while let Some(v) = queue.pop_front() {
            for &w in &self.adj[v] {
                if dist[w] == usize::MAX {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> UGraph {
        UGraph::from_edges(3, [(0, 1), (1, 2)])
    }

    #[test]
    fn add_edge_dedups_and_rejects_loops() {
        let mut g = UGraph::new(3);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0));
        assert!(!g.add_edge(2, 2));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn has_edge_is_symmetric() {
        let g = path3();
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn adjacency_matrix_is_symmetric_zero_diagonal() {
        let g = path3();
        let a = g.adjacency_rowmajor();
        for i in 0..3 {
            assert_eq!(a[i * 3 + i], 0.0);
            for j in 0..3 {
                assert_eq!(a[i * 3 + j], a[j * 3 + i]);
            }
        }
        assert_eq!(a.iter().sum::<f64>(), 4.0); // 2 edges × 2 entries
    }

    #[test]
    fn csr_adjacency_matches_dense() {
        let g = UGraph::from_edges(4, [(0, 1), (1, 2), (0, 3)]);
        let csr = g.adjacency_csr();
        assert_eq!(csr.nnz(), 6);
        assert_eq!(csr.to_dense().into_vec(), g.adjacency_rowmajor());

        let norm = g.adjacency_norm_csr();
        let d = norm.to_dense();
        for r in 0..4 {
            let s: f64 = d.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "row {r} sums to {s}");
        }
        // node 0 has degree 2 → each neighbor entry is 1/2
        assert!((d[(0, 1)] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn independence_checks() {
        let g = path3();
        assert!(g.is_independent_set(&[0, 2]));
        assert!(!g.is_independent_set(&[0, 1]));
        assert!(g.is_independent_set(&[]));
        assert_eq!(g.conflict_count(&[true, true, true]), 2);
        assert_eq!(g.conflict_count(&[true, false, true]), 0);
    }

    #[test]
    fn components_and_bfs() {
        let g = UGraph::from_edges(5, [(0, 1), (1, 2), (3, 4)]);
        let comps = g.connected_components();
        assert_eq!(comps, vec![vec![0, 1, 2], vec![3, 4]]);
        let d = g.bfs_distances(0);
        assert_eq!(d[2], 2);
        assert_eq!(d[3], usize::MAX);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        UGraph::new(2).add_edge(0, 5);
    }

    #[test]
    fn adjacency_csr_is_the_sorted_entry_build_in_any_insertion_order() {
        // adjacency lists follow insertion order; the CSR rows must not
        let g = UGraph::from_edges(7, [(5, 2), (0, 6), (2, 0), (6, 3), (2, 4), (1, 2), (3, 0)]);
        let entries: Vec<(usize, usize, f64)> =
            g.edges().flat_map(|(u, v)| [(u, v, 1.0), (v, u, 1.0)]).collect();
        assert_eq!(g.adjacency_csr(), CsrAdj::from_entries(7, 7, &entries));
        assert_eq!(UGraph::new(3).adjacency_csr(), CsrAdj::empty(3, 3));
    }
}
