//! Hierarchical K-candidate pruning: a two-level spatial index and the
//! per-viewer [`CandidateSet`] shortlist every crowd-scale stage operates on.
//!
//! ## Why
//!
//! Every per-viewer stage of the pipeline — the occlusion sweep, candidate
//! masks, MIA edge-deltas, PDR/LWP scoring, the serving top-k decision — is
//! O(N) or worse in the participant count when it walks the implicit all-N
//! candidate set. At venue scale (stadium/concert scenes, N=10k–100k) that
//! caps a tick; the shortlist contract makes per-viewer work O(K) instead:
//! the scene maintains one [`PruneIndex`] per tick (O(N) counting sort) and
//! each registered viewer reads a K-nearest shortlist out of it.
//!
//! ## The candidate-set contract
//!
//! A [`CandidateSet`] for viewer `v` is the `K` nearest other users ordered
//! by the total key `(distance, id)` — `f64::total_cmp` on the exact f64
//! distance, ties broken by ascending user id. Two invariants follow and
//! everything downstream leans on them:
//!
//! * **Nearer-occluder closure.** If `w` is in the shortlist, every user
//!   *strictly nearer* than `w` is also in the shortlist (it precedes `w`
//!   under the selection key). The candidate-mask rule prunes `w` only when
//!   a strictly nearer MR participant overlaps it, so a shortlist member's
//!   mask bit computed on the *restricted* occlusion graph is bitwise equal
//!   to the full-scene bit.
//! * **Exact restriction.** Each shortlist-pair occlusion edge is decided by
//!   the same exact [`xr_graph::ViewArc::intersects`] predicate as the full
//!   sweep, so the restricted edge set equals the full edge set intersected
//!   with `shortlist × shortlist` — no re-derived quantity is approximate,
//!   only the candidate universe shrinks.
//!
//! Consequently `prune_k = K ≥ N−1` reproduces the full path bit for
//! bit (the shortlist is complete), which is what the `xr_check`
//! `PrunedVsFull` subject pins; at serving K the only divergence is
//! candidates falling outside the K nearest, bounded by a top-k agreement
//! floor.
//!
//! ## The index
//!
//! [`PruneIndex`] is a two-level uniform grid (the ORCA `NeighborGrid` idiom
//! from `xr_crowd`, lifted here so the session layer owns it): a fine
//! CSR-bucketed cell grid sized for a constant expected occupancy, plus a
//! coarse level of 4×4-cell super-cell occupancy counts. K-nearest queries
//! expand Chebyshev rings of fine cells outward from the viewer's cell;
//! the coarse counts let the scan skip empty super-cell blocks without
//! touching the fine CSR at all — at venue densities most of a large ring
//! is empty stands or out-of-bounds lobby space. A ring `ρ` cell's nearest
//! point lies at Euclidean distance ≥ `(ρ−1)·cell` from the viewer, so the
//! expansion stops as soon as `K` candidates are held and the next ring
//! cannot beat the current `K`-th best — an *exact* K-nearest result, not a
//! heuristic one.

use xr_graph::geom::Point2;

/// Fine cells per coarse super-cell, per axis.
const SUPER: usize = 4;
/// Target average occupancy of a fine cell (users per cell).
const TARGET_OCCUPANCY: f64 = 4.0;
/// Hard cap on fine-grid resolution per axis.
const MAX_DIM: usize = 1024;

/// One viewer's pruned candidate shortlist at one tick: the `K` nearest
/// other users by `(distance, id)`, with the per-member scene quantities
/// every downstream stage needs — exact f64 distances, the hybrid-
/// participation mask bits, and the restricted occlusion edges among
/// members. Members are stored in ascending user-id order; `distances` and
/// `mask` are parallel to `ids`.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateSet {
    viewer: usize,
    k: usize,
    ids: Vec<u32>,
    distances: Vec<f64>,
    mask: Vec<bool>,
    edges: Vec<(u32, u32)>,
}

impl CandidateSet {
    /// Assembles a shortlist. `ids` must be strictly ascending with
    /// `distances`/`mask` parallel; `edges` must be sorted unique `(min,
    /// max)` pairs over members.
    pub(crate) fn new(
        viewer: usize,
        k: usize,
        ids: Vec<u32>,
        distances: Vec<f64>,
        mask: Vec<bool>,
        edges: Vec<(u32, u32)>,
    ) -> CandidateSet {
        debug_assert_eq!(ids.len(), distances.len());
        debug_assert_eq!(ids.len(), mask.len());
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "member ids must be strictly ascending");
        debug_assert!(!ids.iter().any(|&w| w as usize == viewer), "the viewer is never a member");
        debug_assert!(edges.windows(2).all(|e| e[0] < e[1]), "edges must be sorted unique");
        debug_assert!(
            edges
                .iter()
                .all(|&(a, b)| a < b && ids.binary_search(&a).is_ok() && ids.binary_search(&b).is_ok()),
            "edge endpoints must be members in (min, max) order"
        );
        CandidateSet { viewer, k, ids, distances, mask, edges }
    }

    /// The viewer this shortlist belongs to.
    pub fn viewer(&self) -> usize {
        self.viewer
    }

    /// The requested shortlist size `K` (the member count is smaller when
    /// fewer than `K` other users exist).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the shortlist has no members.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Member user ids, strictly ascending.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Exact f64 viewer→member distances, parallel to [`CandidateSet::ids`]
    /// (bit-identical to the full path's distance-matrix entries).
    pub fn distances(&self) -> &[f64] {
        &self.distances
    }

    /// Hybrid-participation mask bits, parallel to [`CandidateSet::ids`].
    /// For members these are bitwise equal to the full-scene mask (see the
    /// nearer-occluder closure in the module docs).
    pub fn mask(&self) -> &[bool] {
        &self.mask
    }

    /// Restricted occlusion edges among members, sorted unique `(min, max)`
    /// global-id pairs — the full occlusion edge set intersected with
    /// `members × members`.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Whether user `w` is a member.
    pub fn contains(&self, w: usize) -> bool {
        u32::try_from(w).map(|w| self.ids.binary_search(&w).is_ok()).unwrap_or(false)
    }

    /// The serving decision over the shortlist: the `top_k` nearest
    /// mask-true members by `(distance, id)`, returned nearest-first. At a
    /// complete shortlist (`K ≥ N−1`) this selects exactly the users the
    /// full-path [`decide_topk`](https://docs.rs) rule selects.
    pub fn decide_topk(&self, top_k: usize) -> Vec<u32> {
        let mut picks: Vec<usize> = (0..self.ids.len()).filter(|&i| self.mask[i]).collect();
        picks.sort_by(|&a, &b| {
            self.distances[a].total_cmp(&self.distances[b]).then(self.ids[a].cmp(&self.ids[b]))
        });
        picks.truncate(top_k);
        picks.into_iter().map(|i| self.ids[i]).collect()
    }
}

/// Two-level uniform spatial grid over one tick's positions: fine
/// CSR-bucketed cells sized for constant occupancy plus coarse super-cell
/// occupancy counts for empty-block skipping. Built once per tick in O(N);
/// see the module docs for the query algorithm.
#[derive(Debug, Clone)]
pub struct PruneIndex {
    min_x: f64,
    min_y: f64,
    cell: f64,
    inv_cell: f64,
    nx: usize,
    ny: usize,
    /// CSR cell starts, `nx·ny + 1` entries.
    starts: Vec<u32>,
    /// User ids bucketed by cell, ascending within each cell.
    items: Vec<u32>,
    snx: usize,
    /// Occupancy per coarse super-cell (`SUPER × SUPER` fine cells).
    super_counts: Vec<u32>,
}

impl PruneIndex {
    /// Builds the index over one frame's positions.
    pub fn build(positions: &[Point2]) -> PruneIndex {
        let n = positions.len();
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in positions {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        if n == 0 {
            (min_x, min_y, max_x, max_y) = (0.0, 0.0, 0.0, 0.0);
        }
        let extent = (max_x - min_x).max(max_y - min_y).max(1e-9);
        // resolution for ~TARGET_OCCUPANCY users per fine cell on average
        let dim = ((n as f64 / TARGET_OCCUPANCY).sqrt().ceil() as usize).clamp(1, MAX_DIM);
        let cell = extent / dim as f64;
        let inv_cell = 1.0 / cell;
        let nx = (((max_x - min_x) * inv_cell).floor() as usize + 1).min(dim.max(1));
        let ny = (((max_y - min_y) * inv_cell).floor() as usize + 1).min(dim.max(1));

        let cell_of = |p: &Point2| -> usize {
            let cx = (((p.x - min_x) * inv_cell) as usize).min(nx - 1);
            let cy = (((p.y - min_y) * inv_cell) as usize).min(ny - 1);
            cy * nx + cx
        };

        // counting sort into CSR; filling in ascending user-id order keeps
        // each bucket ascending, which keeps every query deterministic
        let mut starts = vec![0u32; nx * ny + 1];
        for p in positions {
            starts[cell_of(p) + 1] += 1;
        }
        for c in 0..nx * ny {
            starts[c + 1] += starts[c];
        }
        let mut cursor = starts.clone();
        let mut items = vec![0u32; n];
        for (i, p) in positions.iter().enumerate() {
            let c = cell_of(p);
            items[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }

        let snx = nx.div_ceil(SUPER);
        let sny = ny.div_ceil(SUPER);
        let mut super_counts = vec![0u32; snx * sny];
        for cy in 0..ny {
            for cx in 0..nx {
                let c = cy * nx + cx;
                super_counts[(cy / SUPER) * snx + cx / SUPER] += starts[c + 1] - starts[c];
            }
        }

        PruneIndex { min_x, min_y, cell, inv_cell, nx, ny, starts, items, snx, super_counts }
    }

    /// Fine-grid cell coordinates of a point.
    fn cell_coords(&self, p: Point2) -> (usize, usize) {
        let cx = (((p.x - self.min_x) * self.inv_cell) as usize).min(self.nx - 1);
        let cy = (((p.y - self.min_y) * self.inv_cell) as usize).min(self.ny - 1);
        (cx, cy)
    }

    /// Scans one row segment `y, x0..=x1` of fine cells into `out`,
    /// skipping empty coarse super-cell blocks wholesale.
    fn scan_row(
        &self,
        positions: &[Point2],
        viewer: usize,
        y: usize,
        x0: usize,
        x1: usize,
        out: &mut Vec<(f64, u32)>,
    ) {
        let origin = positions[viewer];
        let sy = (y / SUPER) * self.snx;
        let mut x = x0;
        while x <= x1 {
            // coarse level: an empty super-cell block clears SUPER cells at
            // once without touching the fine CSR
            if self.super_counts[sy + x / SUPER] == 0 {
                x = (x / SUPER + 1) * SUPER;
                continue;
            }
            let c = y * self.nx + x;
            for &id in &self.items[self.starts[c] as usize..self.starts[c + 1] as usize] {
                if id as usize != viewer {
                    out.push((origin.distance(positions[id as usize]), id));
                }
            }
            x += 1;
        }
    }

    /// Exact K-nearest-other-users query by `(distance, id)`, filled into
    /// `out` (nearest first). Distances are the exact f64
    /// [`Point2::distance`] values — bit-identical to the full scene path.
    pub fn nearest_k_into(&self, positions: &[Point2], viewer: usize, k: usize, out: &mut Vec<(f64, u32)>) {
        out.clear();
        if k == 0 || positions.len() < 2 {
            return;
        }
        let (cx, cy) = self.cell_coords(positions[viewer]);
        let max_ring = self.nx.max(self.ny);
        let mut ring = 0usize;
        loop {
            // the cells at Chebyshev distance `ring` from the viewer's cell
            if ring == 0 {
                self.scan_row(positions, viewer, cy, cx, cx, out);
            } else {
                let x0 = cx.saturating_sub(ring);
                let x1 = (cx + ring).min(self.nx - 1);
                if cy >= ring {
                    self.scan_row(positions, viewer, cy - ring, x0, x1, out);
                }
                if cy + ring < self.ny {
                    self.scan_row(positions, viewer, cy + ring, x0, x1, out);
                }
                let y0 = cy.saturating_sub(ring.saturating_sub(1)).max(cy.saturating_sub(ring - 1));
                let y1 = (cy + ring - 1).min(self.ny - 1);
                for y in y0..=y1 {
                    if !(cy >= ring && y == cy - ring) && y != cy + ring {
                        if cx >= ring {
                            self.scan_row(positions, viewer, y, cx - ring, cx - ring, out);
                        }
                        if cx + ring < self.nx {
                            self.scan_row(positions, viewer, y, cx + ring, cx + ring, out);
                        }
                    }
                }
            }
            out.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            out.truncate(k);
            // any cell at ring ρ ≥ ring+1 lies entirely at distance
            // ≥ ring·cell from the viewer (the viewer sits somewhere inside
            // its own cell), so once the K-th best beats that bound no
            // farther ring can improve the shortlist
            if out.len() >= k && (ring as f64) * self.cell > out[k - 1].0 {
                break;
            }
            if ring >= max_ring {
                break;
            }
            ring += 1;
        }
    }

    /// Convenience allocation wrapper over [`PruneIndex::nearest_k_into`].
    pub fn nearest_k(&self, positions: &[Point2], viewer: usize, k: usize) -> Vec<(f64, u32)> {
        let mut out = Vec::with_capacity(k.min(positions.len()));
        self.nearest_k_into(positions, viewer, k, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn brute_k(positions: &[Point2], viewer: usize, k: usize) -> Vec<(f64, u32)> {
        let mut all: Vec<(f64, u32)> = (0..positions.len())
            .filter(|&w| w != viewer)
            .map(|w| (positions[viewer].distance(positions[w]), w as u32))
            .collect();
        all.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        all.truncate(k);
        all
    }

    #[test]
    fn nearest_k_matches_brute_force_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..40 {
            let n: usize = rng.gen_range(2..120);
            let positions: Vec<Point2> =
                (0..n).map(|_| Point2::new(rng.gen_range(-9.0..9.0), rng.gen_range(-9.0..9.0))).collect();
            let index = PruneIndex::build(&positions);
            for &k in &[1usize, 3, 8, n.saturating_sub(1), n + 4] {
                for viewer in [0, n / 2, n - 1] {
                    let fast = index.nearest_k(&positions, viewer, k);
                    let brute = brute_k(&positions, viewer, k);
                    assert_eq!(fast.len(), brute.len(), "trial {trial} n={n} k={k} v={viewer}");
                    for (a, b) in fast.iter().zip(&brute) {
                        assert_eq!(a.1, b.1, "trial {trial} n={n} k={k} v={viewer}");
                        assert_eq!(a.0.to_bits(), b.0.to_bits(), "trial {trial} k={k}");
                    }
                }
            }
        }
    }

    #[test]
    fn handles_coincident_clusters_and_degenerate_extents() {
        // everyone on one point (a parked lobby crowd): ties broken by id
        let positions = vec![Point2::new(20.0, 20.0); 7];
        let index = PruneIndex::build(&positions);
        let got = index.nearest_k(&positions, 3, 4);
        assert_eq!(got.iter().map(|&(_, w)| w).collect::<Vec<_>>(), vec![0, 1, 2, 4]);
        assert!(got.iter().all(|&(d, _)| d == 0.0));
        // collinear points (zero y-extent)
        let line: Vec<Point2> = (0..9).map(|i| Point2::new(i as f64, 5.0)).collect();
        let index = PruneIndex::build(&line);
        assert_eq!(index.nearest_k(&line, 0, 2).iter().map(|&(_, w)| w).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn zoned_density_queries_stay_exact() {
        // a dense cluster far from a sparse halo, with a parked lobby blob —
        // the venue shape the coarse skip level exists for
        let mut rng = StdRng::seed_from_u64(5);
        let mut positions = Vec::new();
        for _ in 0..400 {
            positions.push(Point2::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0)));
        }
        for _ in 0..40 {
            positions.push(Point2::new(rng.gen_range(-60.0..60.0), rng.gen_range(-60.0..60.0)));
        }
        for _ in 0..30 {
            positions.push(Point2::new(200.0, 200.0));
        }
        let index = PruneIndex::build(&positions);
        for viewer in [0usize, 401, 445] {
            let fast = index.nearest_k(&positions, viewer, 16);
            let brute = brute_k(&positions, viewer, 16);
            assert_eq!(
                fast.iter().map(|&(_, w)| w).collect::<Vec<_>>(),
                brute.iter().map(|&(_, w)| w).collect::<Vec<_>>(),
                "viewer {viewer}"
            );
        }
    }

    #[test]
    fn candidate_set_accessors_and_topk() {
        let cs = CandidateSet::new(
            2,
            4,
            vec![0, 1, 3, 5],
            vec![1.0, 0.5, 0.5, 2.0],
            vec![true, true, false, true],
            vec![(1, 3)],
        );
        assert_eq!(cs.viewer(), 2);
        assert_eq!(cs.len(), 4);
        assert!(cs.contains(3) && !cs.contains(2) && !cs.contains(4));
        // mask-false member 3 is skipped; ties by id put 1 before 0
        assert_eq!(cs.decide_topk(2), vec![1, 0]);
        assert_eq!(cs.decide_topk(9), vec![1, 0, 5]);
    }
}
