//! Simple undirected graph used by occlusion graphs, GIGs, and MWIS solvers.

use xr_tensor::CsrAdj;

/// An immutable undirected simple graph over nodes `0..n`, stored as a
/// compressed sparse row (CSR) adjacency: row `v` is
/// `cols[row_ptr[v]..row_ptr[v + 1]]`, strictly ascending, and every edge
/// appears once in each endpoint's row.
///
/// The layout is canonical — one edge set has exactly one representation —
/// so `Eq` is edge-set equality, independent of how the edges were listed.
/// Graphs are built whole by [`UGraph::from_edges`] (any order) or
/// [`UGraph::from_sorted_unique_edges`] (the engine's pre-sorted merge
/// path); there is no incremental insertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UGraph {
    n: usize,
    /// `n + 1` row offsets into `cols`.
    row_ptr: Vec<usize>,
    /// Concatenated neighbor rows (`2m` entries).
    cols: Vec<usize>,
}

/// Sorts `pairs` lexicographically and removes duplicates — the result of
/// `sort_unstable` + `dedup` — with a two-pass O(n + m) counting sort
/// (stably by second component, then by first) instead of a comparison
/// sort. Both components must be `< n`.
///
/// # Panics
///
/// Panics when a component is `≥ n`.
pub fn sort_unique_pairs(n: usize, pairs: &mut Vec<(usize, usize)>) {
    if pairs.len() > 1 {
        let mut counts = vec![0usize; n + 1];
        let mut by_second = vec![(0, 0); pairs.len()];
        counting_scatter(pairs, &mut by_second, &mut counts, |p| p.1);
        counts.fill(0);
        counting_scatter(&by_second, pairs, &mut counts, |p| p.0);
    }
    pairs.dedup();
}

/// One stable counting-sort pass of `src` into `dst` by `key`; `counts` is
/// zeroed scratch of length `max key + 2`.
fn counting_scatter(
    src: &[(usize, usize)],
    dst: &mut [(usize, usize)],
    counts: &mut [usize],
    key: impl Fn(&(usize, usize)) -> usize,
) {
    for p in src {
        counts[key(p) + 1] += 1;
    }
    for k in 1..counts.len() {
        counts[k] += counts[k - 1];
    }
    for p in src {
        let slot = &mut counts[key(p)];
        dst[*slot] = *p;
        *slot += 1;
    }
}

impl UGraph {
    /// An edgeless graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        UGraph { n, row_ptr: vec![0; n + 1], cols: Vec::new() }
    }

    /// Builds a graph from an edge list in any order and orientation;
    /// duplicate edges and self-loops are ignored.
    ///
    /// # Panics
    ///
    /// Panics when an endpoint is out of range.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut list: Vec<(usize, usize)> = edges
            .into_iter()
            .inspect(|&(a, b)| assert!(a < n && b < n, "edge ({a},{b}) out of range (n={n})"))
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect();
        sort_unique_pairs(n, &mut list);
        UGraph::from_sorted_unique_edges(n, &list)
    }

    /// Builds a graph from edges already in strictly ascending `(min, max)`
    /// order with no duplicates or self-loops — the form a sorted+deduped
    /// edge scan produces. Fills the CSR in one backward pass after the
    /// degree count: walking the sorted list in reverse and filling each row
    /// from its end leaves every row ascending, with no per-row sort.
    ///
    /// # Panics
    ///
    /// Panics when an endpoint is out of range; panics (debug assertions
    /// only) when the input is not strictly sorted `(min, max)` pairs.
    pub fn from_sorted_unique_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        debug_assert!(edges.iter().all(|&(a, b)| a < b), "edges must be (min, max) pairs");
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]), "edges must be strictly ascending");
        // row_ptr[v] first counts v's degree, then (prefix sums) marks the
        // end of row v, and is decremented back to its start by the fill
        let mut row_ptr = vec![0usize; n + 1];
        for &(a, b) in edges {
            row_ptr[a] += 1;
            row_ptr[b] += 1;
        }
        for v in 1..n {
            row_ptr[v] += row_ptr[v - 1];
        }
        row_ptr[n] = 2 * edges.len();
        let mut cols = vec![0usize; 2 * edges.len()];
        // row r receives its lower neighbours u (from (u, r)) before its
        // upper ones v (from (r, v)), each run ascending in the sorted list;
        // the reverse walk writes that sequence back to front
        for &(a, b) in edges.iter().rev() {
            row_ptr[a] -= 1;
            cols[row_ptr[a]] = b;
            row_ptr[b] -= 1;
            cols[row_ptr[b]] = a;
        }
        UGraph { n, row_ptr, cols }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.cols.len() / 2
    }

    /// `true` when `a` and `b` are adjacent (binary search of `a`'s row).
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        a < self.n && self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Neighbors of `v`, strictly ascending.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.cols[self.row_ptr[v]..self.row_ptr[v + 1]]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.row_ptr[v + 1] - self.row_ptr[v]
    }

    /// Iterator over edges as `(min, max)` pairs in sorted order: each
    /// row's upper part, row by row.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |u| {
            let row = self.neighbors(u);
            row[row.partition_point(|&v| v < u)..].iter().map(move |&v| (u, v))
        })
    }

    /// Sparse CSR adjacency (both `(u,v)` and `(v,u)` entries, value 1.0).
    ///
    /// Costs O(n + m) — a copy of the graph's own arrays, with no O(n²)
    /// materialization — which is what makes per-step graph rebuilds cheap
    /// at N=500.
    pub fn adjacency_csr(&self) -> CsrAdj {
        let vals = vec![1.0; self.cols.len()];
        CsrAdj::from_parts(self.n, self.n, self.row_ptr.clone(), self.cols.clone(), vals)
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
        self.edges().filter(|&(u, v)| in_set[u] && in_set[v]).count()
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
                for &w in self.neighbors(v) {
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
            for &w in self.neighbors(v) {
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
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    fn path3() -> UGraph {
        UGraph::from_edges(3, [(0, 1), (1, 2)])
    }

    #[test]
    fn from_edges_dedups_and_rejects_loops() {
        let g = UGraph::from_edges(3, [(0, 1), (1, 0), (2, 2), (0, 1)]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 0);
        assert_eq!(g, UGraph::from_sorted_unique_edges(3, &[(0, 1)]));
    }

    #[test]
    fn has_edge_is_symmetric() {
        let g = path3();
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn csr_adjacency_matches_dense() {
        let g = UGraph::from_edges(4, [(0, 1), (1, 2), (0, 3)]);
        let csr = g.adjacency_csr();
        assert_eq!(csr.nnz(), 6);
        // the edge list written out as a 4×4 row-major 0/1 matrix
        let dense = [[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]];
        assert_eq!(csr.to_dense().into_vec(), dense.concat());

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
        UGraph::from_edges(2, [(0, 5)]);
    }

    /// Random pair lists over `0..12`, heavily duplicated (144 possible
    /// pairs), from empty to far more pairs than distinct values.
    fn pairs_strategy() -> impl Strategy<Value = Vec<(usize, usize)>> {
        proptest::collection::vec((0usize..12, 0usize..12), 0..200)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn counting_sort_is_sort_unstable_plus_dedup(pairs in pairs_strategy(), short in 0usize..8) {
            // a quarter of the cases cut the list to empty or a single pair
            let mut pairs = pairs;
            if short < 2 {
                pairs.truncate(short);
            }
            let mut want = pairs.clone();
            want.sort_unstable();
            want.dedup();
            sort_unique_pairs(12, &mut pairs);
            prop_assert_eq!(pairs, want);
        }

        #[test]
        fn adjacency_csr_is_the_sorted_entry_build_in_any_insertion_order(
            pairs in pairs_strategy(),
            seed in 0u64..1_000_000,
        ) {
            const N: usize = 12;
            let g = UGraph::from_edges(N, pairs.iter().copied());
            // the same edge set listed in a shuffled order, endpoints flipped
            let mut shuffled: Vec<(usize, usize)> = pairs.iter().map(|&(a, b)| (b, a)).collect();
            shuffled.shuffle(&mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(&UGraph::from_edges(N, shuffled), &g);

            let want: BTreeSet<(usize, usize)> =
                pairs.iter().filter(|&&(a, b)| a != b).map(|&(a, b)| (a.min(b), a.max(b))).collect();
            let edges: Vec<(usize, usize)> = g.edges().collect();
            prop_assert!(edges.windows(2).all(|w| w[0] < w[1]), "edges() must be strictly ascending");
            prop_assert_eq!(edges, want.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(g.edge_count(), want.len());
            for v in 0..N {
                let row = g.neighbors(v);
                prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "row {} not strictly ascending", v);
                prop_assert_eq!(g.degree(v), row.len());
                for u in 0..N {
                    prop_assert_eq!(g.has_edge(u, v), g.has_edge(v, u));
                    prop_assert_eq!(g.has_edge(u, v), want.contains(&(u.min(v), u.max(v))));
                }
            }
            let entries: Vec<(usize, usize, f64)> =
                g.edges().flat_map(|(u, v)| [(u, v, 1.0), (v, u, 1.0)]).collect();
            prop_assert_eq!(g.adjacency_csr(), CsrAdj::from_entries(N, N, &entries));
        }
    }

    #[test]
    fn edgeless_graphs_have_empty_csr() {
        assert_eq!(UGraph::new(3).adjacency_csr(), CsrAdj::empty(3, 3));
        assert!(!UGraph::new(3).has_edge(0, 7));
    }
}
