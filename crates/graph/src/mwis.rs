//! Maximum Weighted Independent Set solvers (paper Def. 5).
//!
//! The AFTER hardness proof (Thm. 1) reduces MWIS on geometric intersection
//! graphs to a single-step AFTER instance. These solvers serve three roles:
//!
//! * `mwis_exact` — a branch-and-bound oracle for small graphs, used in tests
//!   and to report optimality gaps of the learned recommenders.
//! * `mwis_greedy` — the classical `w(v)/(deg(v)+1)` greedy, a cheap
//!   approximation that also seeds the local search.
//! * `local_search_improve` — (1,2)-swap improvement.

use crate::ugraph::UGraph;

/// Result of an MWIS computation.
#[derive(Debug, Clone, PartialEq)]
pub struct MwisSolution {
    /// Chosen nodes, sorted ascending.
    pub nodes: Vec<usize>,
    /// Total weight of the chosen nodes.
    pub weight: f64,
}

fn solution(g: &UGraph, mut nodes: Vec<usize>, weights: &[f64]) -> MwisSolution {
    nodes.sort_unstable();
    debug_assert!(g.is_independent_set(&nodes));
    let weight = nodes.iter().map(|&v| weights[v]).sum();
    MwisSolution { nodes, weight }
}

/// Exact MWIS by branch-and-bound with a remaining-weight upper bound.
///
/// Exponential in the worst case; intended for graphs of a few dozen nodes
/// (occlusion graphs are sparse, so it usually explores far less).
///
/// # Panics
///
/// Panics when `weights.len() != g.node_count()` or any weight is negative
/// (negative-weight nodes can simply be dropped by the caller).
pub fn mwis_exact(g: &UGraph, weights: &[f64]) -> MwisSolution {
    assert_eq!(weights.len(), g.node_count(), "weights length mismatch");
    assert!(weights.iter().all(|&w| w >= 0.0), "weights must be non-negative");
    let n = g.node_count();

    // Order nodes by decreasing weight so good solutions are found early and
    // the bound prunes aggressively.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| weights[b].partial_cmp(&weights[a]).unwrap());

    // suffix_weight[i] = total weight of order[i..]
    let mut suffix_weight = vec![0.0; n + 1];
    for i in (0..n).rev() {
        suffix_weight[i] = suffix_weight[i + 1] + weights[order[i]];
    }

    struct Ctx<'a> {
        g: &'a UGraph,
        weights: &'a [f64],
        order: &'a [usize],
        suffix: &'a [f64],
        best: Vec<usize>,
        best_weight: f64,
    }

    fn branch(ctx: &mut Ctx<'_>, idx: usize, chosen: &mut Vec<usize>, weight: f64, blocked: &mut [bool]) {
        if weight > ctx.best_weight {
            ctx.best_weight = weight;
            ctx.best = chosen.clone();
        }
        if idx >= ctx.order.len() || weight + ctx.suffix[idx] <= ctx.best_weight {
            return;
        }
        let v = ctx.order[idx];
        // Branch 1: take v if allowed.
        if !blocked[v] && ctx.weights[v] > 0.0 {
            let newly: Vec<usize> = ctx.g.neighbors(v).iter().copied().filter(|&u| !blocked[u]).collect();
            for &u in &newly {
                blocked[u] = true;
            }
            chosen.push(v);
            branch(ctx, idx + 1, chosen, weight + ctx.weights[v], blocked);
            chosen.pop();
            for &u in &newly {
                blocked[u] = false;
            }
        }
        // Branch 2: skip v.
        branch(ctx, idx + 1, chosen, weight, blocked);
    }

    let mut ctx =
        Ctx { g, weights, order: &order, suffix: &suffix_weight, best: Vec::new(), best_weight: 0.0 };
    let mut blocked = vec![false; n];
    branch(&mut ctx, 0, &mut Vec::new(), 0.0, &mut blocked);
    let best = ctx.best;
    solution(g, best, weights)
}

/// Greedy MWIS: repeatedly take the remaining node maximizing
/// `w(v) / (deg_remaining(v) + 1)` and delete its neighborhood.
///
/// Guarantees `Σ w(v)/(deg(v)+1)` total weight (weighted Turán bound).
pub fn mwis_greedy(g: &UGraph, weights: &[f64]) -> MwisSolution {
    assert_eq!(weights.len(), g.node_count(), "weights length mismatch");
    let n = g.node_count();
    let mut alive = vec![true; n];
    let mut deg: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let mut chosen = Vec::new();
    loop {
        let mut best: Option<(usize, f64)> = None;
        for v in 0..n {
            if !alive[v] || weights[v] <= 0.0 {
                continue;
            }
            let score = weights[v] / (deg[v] as f64 + 1.0);
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((v, score));
            }
        }
        let Some((v, _)) = best else { break };
        chosen.push(v);
        alive[v] = false;
        for &u in g.neighbors(v) {
            if alive[u] {
                alive[u] = false;
                for &w in g.neighbors(u) {
                    deg[w] = deg[w].saturating_sub(1);
                }
            }
        }
    }
    solution(g, chosen, weights)
}

/// Improves an independent set with (1,2)-swaps until a local optimum:
/// try removing one chosen node and inserting up to two of its now-free
/// non-adjacent neighbors, plus plain insertions of free nodes.
pub fn local_search_improve(g: &UGraph, weights: &[f64], start: &MwisSolution) -> MwisSolution {
    assert_eq!(weights.len(), g.node_count(), "weights length mismatch");
    let n = g.node_count();
    let mut in_set = vec![false; n];
    for &v in &start.nodes {
        in_set[v] = true;
    }

    let conflicts =
        |in_set: &[bool], v: usize| -> usize { g.neighbors(v).iter().filter(|&&u| in_set[u]).count() };

    let mut improved = true;
    while improved {
        improved = false;
        // plain insertions
        for v in 0..n {
            if !in_set[v] && weights[v] > 0.0 && conflicts(&in_set, v) == 0 {
                in_set[v] = true;
                improved = true;
            }
        }
        // (1,2)-swaps
        for v in 0..n {
            if !in_set[v] {
                continue;
            }
            in_set[v] = false;
            // candidates blocked only by v
            let cands: Vec<usize> = (0..n)
                .filter(|&u| !in_set[u] && u != v && weights[u] > 0.0 && conflicts(&in_set, u) == 0)
                .collect();
            let mut best_pair: Option<(f64, usize, Option<usize>)> = None;
            for (i, &a) in cands.iter().enumerate() {
                let single = weights[a];
                if best_pair.is_none_or(|(w, _, _)| single > w) {
                    best_pair = Some((single, a, None));
                }
                for &b in &cands[i + 1..] {
                    if !g.has_edge(a, b) {
                        let pair = weights[a] + weights[b];
                        if best_pair.is_none_or(|(w, _, _)| pair > w) {
                            best_pair = Some((pair, a, Some(b)));
                        }
                    }
                }
            }
            match best_pair {
                Some((w, a, b)) if w > weights[v] + 1e-12 => {
                    in_set[a] = true;
                    if let Some(b) = b {
                        in_set[b] = true;
                    }
                    improved = true;
                }
                _ => in_set[v] = true, // revert
            }
        }
    }

    let chosen: Vec<usize> = (0..n).filter(|&v| in_set[v]).collect();
    solution(g, chosen, weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> UGraph {
        UGraph::from_edges(n, (0..n - 1).map(|i| (i, i + 1)))
    }

    #[test]
    fn exact_on_path_alternates() {
        // unit weights on a path of 5: optimum is {0,2,4} with weight 3
        let g = path(5);
        let sol = mwis_exact(&g, &[1.0; 5]);
        assert_eq!(sol.weight, 3.0);
        assert_eq!(sol.nodes, vec![0, 2, 4]);
    }

    #[test]
    fn exact_prefers_heavy_middle() {
        // path 0-1-2 with weights 1, 10, 1 → take {1}
        let g = path(3);
        let sol = mwis_exact(&g, &[1.0, 10.0, 1.0]);
        assert_eq!(sol.nodes, vec![1]);
        assert_eq!(sol.weight, 10.0);
    }

    #[test]
    fn exact_on_triangle_takes_heaviest() {
        let g = UGraph::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        let sol = mwis_exact(&g, &[2.0, 3.0, 1.0]);
        assert_eq!(sol.nodes, vec![1]);
    }

    #[test]
    fn exact_on_edgeless_takes_all_positive() {
        let g = UGraph::new(4);
        let sol = mwis_exact(&g, &[1.0, 0.0, 2.0, 3.0]);
        assert_eq!(sol.nodes, vec![0, 2, 3]);
        assert_eq!(sol.weight, 6.0);
    }

    #[test]
    fn greedy_yields_valid_independent_set() {
        let g = UGraph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]);
        let w = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let sol = mwis_greedy(&g, &w);
        assert!(g.is_independent_set(&sol.nodes));
        assert!(sol.weight > 0.0);
    }

    #[test]
    fn greedy_never_beats_exact_and_local_search_closes_gap() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for trial in 0..20 {
            let n = 12;
            let g = UGraph::from_edges(
                n,
                (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))).filter(|_| rng.gen::<f64>() < 0.3),
            );
            let w: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
            let exact = mwis_exact(&g, &w);
            let greedy = mwis_greedy(&g, &w);
            let improved = local_search_improve(&g, &w, &greedy);
            assert!(greedy.weight <= exact.weight + 1e-9, "trial {trial}");
            assert!(improved.weight + 1e-9 >= greedy.weight, "trial {trial}");
            assert!(improved.weight <= exact.weight + 1e-9, "trial {trial}");
            assert!(g.is_independent_set(&improved.nodes));
        }
    }

    #[test]
    fn local_search_escapes_bad_single_choice() {
        // star: center heavy-ish but two leaves together beat it
        let g = UGraph::from_edges(3, [(0, 1), (0, 2)]);
        let start = MwisSolution { nodes: vec![0], weight: 1.5 };
        let improved = local_search_improve(&g, &[1.5, 1.0, 1.0], &start);
        assert_eq!(improved.nodes, vec![1, 2]);
        assert_eq!(improved.weight, 2.0);
    }

    #[test]
    fn zero_weight_nodes_are_not_selected() {
        let g = UGraph::new(3);
        let sol = mwis_greedy(&g, &[0.0, 0.0, 1.0]);
        assert_eq!(sol.nodes, vec![2]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        mwis_exact(&UGraph::new(1), &[-1.0]);
    }
}
