//! K-candidate pruning: a uniform-grid spatial index and the
//! per-viewer [`CandidateSet`] shortlist every crowd-scale stage operates on.
//!
//! ## Why
//!
//! Every per-viewer stage of the pipeline — the occlusion sweep, candidate
//! masks, MIA edge-deltas, PDR/LWP scoring, the serving top-k decision — is
//! O(N) or worse in the participant count when it walks a complete
//! shortlist of all N − 1 other users. At venue scale (stadium/concert
//! scenes, N=10k–100k) that caps a tick; a capped shortlist makes
//! per-viewer work O(K) instead: the scene rebuilds one [`PruneIndex`] per
//! tick (O(N) counting sort) and each registered viewer reads a K-nearest
//! shortlist out of it.
//!
//! ## The candidate-set contract
//!
//! A [`CandidateSet`] for viewer `v` is the `K` nearest other users ordered
//! by the total key `(distance, id)` — `f64::total_cmp` on the exact f64
//! distance, ties broken by ascending user id. It is the scene engine's
//! only per-viewer payload: with no cap (`K = N − 1`) it holds every other
//! user and the engine lists them directly, without the index. Two
//! invariants follow and everything downstream leans on them:
//!
//! * **Nearer-occluder closure.** If `w` is in the shortlist, every user
//!   *strictly nearer* than `w` is also in the shortlist (it precedes `w`
//!   under the selection key). The candidate-mask rule prunes `w` only when
//!   a strictly nearer MR participant overlaps it, so a shortlist member's
//!   mask bit computed on the *restricted* occlusion edges is bitwise equal
//!   to the full-scene bit.
//! * **Exact restriction.** Each shortlist-pair occlusion edge is decided by
//!   the same exact [`xr_graph::ViewArc::intersects`] predicate as the
//!   brute-force build, so the restricted edge set equals the full edge set
//!   intersected with `shortlist × shortlist` — no re-derived quantity is
//!   approximate, only the candidate universe shrinks.
//!
//! Consequently every shortlist is the complete (`K = N − 1`) one
//! restricted to its K nearest members, bit for bit, which is what the
//! `xr_check` `CappedVsComplete` K-sweep pins; the complete shortlist itself is
//! pinned against the brute-force per-target precompute.
//!
//! ## The index
//!
//! [`PruneIndex`] is a uniform grid (the ORCA `NeighborGrid` idiom from
//! `xr_crowd`, lifted here so the session layer owns it): a CSR-bucketed
//! cell grid sized for a constant expected occupancy. K-nearest queries
//! expand Chebyshev rings of cells outward from the viewer's cell; an empty
//! cell costs one bucket-bounds read. A ring `ρ` cell's nearest point lies
//! at Euclidean distance ≥ `(ρ−1)·cell` from the viewer, so the expansion
//! stops as soon as `K` candidates are held and the next ring
//! cannot beat the current `K`-th best — an *exact* K-nearest result, not a
//! heuristic one.
//!
//! The build computes each user's cell once and counting-sorts the ids into
//! their buckets, ascending within each; the engine rebuilds one index per
//! tick into the same buffers.
//!
//! A query does work in proportion to `K`, not to how many users share the
//! viewer's cell:
//!
//! * **Bounded selection.** Candidates go into an unsorted buffer. When it
//!   holds `2K`, `select_nth_unstable` cuts it to the `K` best, and the
//!   `K`-th best key `(d_k, id_k)` becomes a bound: a later candidate that
//!   does not beat it under the same `(distance, id)` order is dropped
//!   without being stored. Each ring ends with the same cut, the stop rule
//!   reads `d_k`, and only the final `K` are sorted. Dropped candidates
//!   could never enter the `K` best, so the result is the one a full sort
//!   gives, bit for bit.
//! * **Co-located exit.** Once `d_k == 0.0`, a candidate whose id exceeds
//!   `id_k` cannot beat the bound, since the distance between finite
//!   positions is never below `+0.0`. Every later id in its bucket is
//!   larger too, so the scan of that bucket ends there. A viewer inside a
//!   lobby stack of thousands of users parked on one point therefore
//!   evaluates about `2K` distances, not the whole stack. The exit tests
//!   the id, not a rejection: a lower-id user at `d > 0` can precede
//!   coincident higher ids in the same bucket, and a rejected candidate
//!   says nothing about the ids after it.
//!
//! [`PruneIndex::nearest_k_into`] returns how many distances it evaluated;
//! the engine sums them per tick as `session.prune.knn_distances`.

use std::cmp::Ordering;

use xr_graph::geom::Point2;

/// Target average occupancy of a cell (users per cell).
const TARGET_OCCUPANCY: f64 = 4.0;
/// Hard cap on grid resolution per axis.
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
        CandidateSet { viewer, ids, distances, mask, edges }
    }

    /// The viewer this shortlist belongs to.
    pub fn viewer(&self) -> usize {
        self.viewer
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
    /// (bit-identical to the brute-force distance rows).
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
    /// complete shortlist (`K = N−1`) this selects exactly the users the
    /// dense-row rule `xr_serve::decide_topk_f64` selects.
    pub fn decide_topk(&self, top_k: usize) -> Vec<u32> {
        let mut picks: Vec<usize> = (0..self.ids.len()).filter(|&i| self.mask[i]).collect();
        picks.sort_by(|&a, &b| {
            self.distances[a].total_cmp(&self.distances[b]).then(self.ids[a].cmp(&self.ids[b]))
        });
        picks.truncate(top_k);
        picks.into_iter().map(|i| self.ids[i]).collect()
    }
}

/// The total selection key `(distance, id)`: `f64::total_cmp` on the exact
/// distance, ties broken by ascending user id.
fn key_cmp(a: &(f64, u32), b: &(f64, u32)) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// `[min_x, min_y, max_x, max_y]` of `positions` under `f64::min` /
/// `f64::max` (NaN coordinates are skipped; `±∞` when nothing is left).
/// Folds over `LANES` independent accumulators per bound, then across
/// them: one chain per bound would be latency-bound, and the min and max
/// of a set do not depend on grouping. Only the sign of a zero bound can
/// differ from a sequential fold, and a zero's sign moves no cell
/// boundary.
fn bounding_box(positions: &[Point2]) -> [f64; 4] {
    const LANES: usize = 4;
    let mut lo = [[f64::INFINITY; LANES]; 2];
    let mut hi = [[f64::NEG_INFINITY; LANES]; 2];
    let chunks = positions.chunks_exact(LANES);
    let tail = chunks.remainder();
    let mut fold = |lane: usize, p: &Point2| {
        lo[0][lane] = lo[0][lane].min(p.x);
        lo[1][lane] = lo[1][lane].min(p.y);
        hi[0][lane] = hi[0][lane].max(p.x);
        hi[1][lane] = hi[1][lane].max(p.y);
    };
    for chunk in chunks {
        for (lane, p) in chunk.iter().enumerate() {
            fold(lane, p);
        }
    }
    for (lane, p) in tail.iter().enumerate() {
        fold(lane, p);
    }
    let min = |xs: [f64; LANES]| xs.into_iter().fold(f64::INFINITY, f64::min);
    let max = |xs: [f64; LANES]| xs.into_iter().fold(f64::NEG_INFINITY, f64::max);
    [min(lo[0]), min(lo[1]), max(hi[0]), max(hi[1])]
}

/// Uniform spatial grid over one tick's positions: CSR-bucketed cells sized
/// for constant occupancy. Rebuilt in O(N) per tick into the same buffers;
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
    /// Each user's cell at the last build (build scratch).
    cells: Vec<u32>,
}

/// One K-nearest query's bounded selection: an unsorted buffer that never
/// holds more than `2K` candidates and, once `K` are held, the `K`-th best
/// key seen so far as a rejection bound.
struct Selection<'a> {
    k: usize,
    buf: &'a mut Vec<(f64, u32)>,
    bound: Option<(f64, u32)>,
    /// Distances evaluated so far.
    evaluated: usize,
}

impl Selection<'_> {
    /// Evaluates one candidate: kept only when it beats the bound.
    fn offer(&mut self, d: f64, id: u32) {
        self.evaluated += 1;
        if self.bound.is_some_and(|b| key_cmp(&(d, id), &b) != Ordering::Less) {
            return;
        }
        self.buf.push((d, id));
        if self.buf.len() >= self.k.saturating_mul(2) {
            self.reselect();
        }
    }

    /// Cuts the buffer down to its `K` best and takes the `K`-th as the
    /// bound; a no-op until `K` candidates are held or while the buffer is
    /// unchanged since the last cut.
    fn reselect(&mut self) {
        let k = self.k;
        if self.buf.len() > k || (self.buf.len() == k && self.bound.is_none()) {
            self.buf.select_nth_unstable_by(k - 1, key_cmp);
            self.buf.truncate(k);
            self.bound = Some(self.buf[k - 1]);
        }
    }
}

impl PruneIndex {
    /// Builds the index over one frame's positions.
    pub fn build(positions: &[Point2]) -> PruneIndex {
        let mut index = PruneIndex {
            min_x: 0.0,
            min_y: 0.0,
            cell: 1.0,
            inv_cell: 1.0,
            nx: 1,
            ny: 1,
            starts: Vec::new(),
            items: Vec::new(),
            cells: Vec::new(),
        };
        index.rebuild(positions);
        index
    }

    /// Rebuilds the index over a new frame in place, reusing its buffers;
    /// the result equals [`PruneIndex::build`] of that frame.
    pub fn rebuild(&mut self, positions: &[Point2]) {
        self.fill(positions, bounding_box(positions));
    }

    /// [`PruneIndex::rebuild`] over the frame's bounding box
    /// `[min_x, min_y, max_x, max_y]`.
    fn fill(&mut self, positions: &[Point2], [mut min_x, mut min_y, mut max_x, mut max_y]: [f64; 4]) {
        let n = positions.len();
        if n == 0 {
            (min_x, min_y, max_x, max_y) = (0.0, 0.0, 0.0, 0.0);
        }
        let extent = (max_x - min_x).max(max_y - min_y).max(1e-9);
        // resolution for ~TARGET_OCCUPANCY users per cell on average
        let dim = ((n as f64 / TARGET_OCCUPANCY).sqrt().ceil() as usize).clamp(1, MAX_DIM);
        self.min_x = min_x;
        self.min_y = min_y;
        self.cell = extent / dim as f64;
        self.inv_cell = 1.0 / self.cell;
        self.nx = (((max_x - min_x) * self.inv_cell).floor() as usize + 1).min(dim);
        self.ny = (((max_y - min_y) * self.inv_cell).floor() as usize + 1).min(dim);
        let cells = self.nx * self.ny;

        // one cell computation per user, then a counting sort into CSR:
        // `starts[c]` first counts cell `c`, then holds its end, and filling
        // in descending user-id order walks it back to its start while
        // leaving each bucket ascending — which keeps every query
        // deterministic
        let mut cell_of = std::mem::take(&mut self.cells);
        cell_of.clear();
        cell_of.extend(positions.iter().map(|&p| {
            let (cx, cy) = self.cell_coords(p);
            (cy * self.nx + cx) as u32
        }));
        self.starts.clear();
        self.starts.resize(cells + 1, 0);
        for &c in &cell_of {
            self.starts[c as usize] += 1;
        }
        for c in 1..cells {
            self.starts[c] += self.starts[c - 1];
        }
        self.starts[cells] = n as u32;
        self.items.clear();
        self.items.resize(n, 0);
        for (i, &c) in cell_of.iter().enumerate().rev() {
            let slot = &mut self.starts[c as usize];
            *slot -= 1;
            self.items[*slot as usize] = i as u32;
        }
        self.cells = cell_of;
    }

    /// Grid cell coordinates of a point. The float → `u32` cast
    /// saturates like a cast to `usize` (NaN and negatives to 0, overflow to
    /// the maximum, which the clamp then cuts), and every cell index fits,
    /// but it converts in fewer instructions on x86-64: a build computes it
    /// for every user.
    fn cell_coords(&self, p: Point2) -> (usize, usize) {
        let cx = (((p.x - self.min_x) * self.inv_cell) as u32 as usize).min(self.nx - 1);
        let cy = (((p.y - self.min_y) * self.inv_cell) as u32 as usize).min(self.ny - 1);
        (cx, cy)
    }

    /// Scans one row segment `y, x0..=x1` of cells into `sel`.
    fn scan_row(
        &self,
        positions: &[Point2],
        viewer: usize,
        y: usize,
        x0: usize,
        x1: usize,
        sel: &mut Selection,
    ) {
        let origin = positions[viewer];
        for c in y * self.nx + x0..=y * self.nx + x1 {
            for &id in &self.items[self.starts[c] as usize..self.starts[c + 1] as usize] {
                // co-located exit: no distance is below +0.0, so with the
                // K-th best at distance 0 a larger id cannot beat it, and
                // every later id in this ascending bucket is larger still
                if sel.bound.is_some_and(|(dk, idk)| dk == 0.0 && id > idk) {
                    break;
                }
                if id as usize != viewer {
                    sel.offer(origin.distance(positions[id as usize]), id);
                }
            }
        }
    }

    /// Exact K-nearest-other-users query by `(distance, id)`, filled into
    /// `out` (nearest first). Distances are the exact f64
    /// [`Point2::distance`] values — bit-identical to the brute-force rows.
    /// Returns how many distances the query evaluated.
    pub fn nearest_k_into(
        &self,
        positions: &[Point2],
        viewer: usize,
        k: usize,
        out: &mut Vec<(f64, u32)>,
    ) -> usize {
        out.clear();
        if k == 0 || positions.len() < 2 {
            return 0;
        }
        let mut sel = Selection { k, buf: out, bound: None, evaluated: 0 };
        let (cx, cy) = self.cell_coords(positions[viewer]);
        let max_ring = self.nx.max(self.ny);
        let mut ring = 0usize;
        loop {
            // the cells at Chebyshev distance `ring` from the viewer's cell:
            // the full top and bottom rows, then the side columns between
            if ring == 0 {
                self.scan_row(positions, viewer, cy, cx, cx, &mut sel);
            } else {
                let x0 = cx.saturating_sub(ring);
                let x1 = (cx + ring).min(self.nx - 1);
                if cy >= ring {
                    self.scan_row(positions, viewer, cy - ring, x0, x1, &mut sel);
                }
                if cy + ring < self.ny {
                    self.scan_row(positions, viewer, cy + ring, x0, x1, &mut sel);
                }
                for y in cy.saturating_sub(ring - 1)..=(cy + ring - 1).min(self.ny - 1) {
                    if cx >= ring {
                        self.scan_row(positions, viewer, y, cx - ring, cx - ring, &mut sel);
                    }
                    if cx + ring < self.nx {
                        self.scan_row(positions, viewer, y, cx + ring, cx + ring, &mut sel);
                    }
                }
            }
            sel.reselect();
            // any cell at ring ρ ≥ ring+1 lies entirely at distance
            // ≥ ring·cell from the viewer (the viewer sits somewhere inside
            // its own cell), so once the K-th best beats that bound no
            // farther ring can improve the shortlist
            if sel.bound.is_some_and(|(dk, _)| (ring as f64) * self.cell > dk) {
                break;
            }
            if ring >= max_ring {
                break;
            }
            ring += 1;
        }
        let evaluated = sel.evaluated;
        out.sort_unstable_by(key_cmp);
        evaluated
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
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn brute_k(positions: &[Point2], viewer: usize, k: usize) -> Vec<(f64, u32)> {
        let mut all: Vec<(f64, u32)> = (0..positions.len())
            .filter(|&w| w != viewer)
            .map(|w| (positions[viewer].distance(positions[w]), w as u32))
            .collect();
        all.sort_unstable_by(key_cmp);
        all.truncate(k);
        all
    }

    /// The `(distance bits, id)` form of a result, for bitwise comparison.
    fn bits(result: &[(f64, u32)]) -> Vec<(u64, u32)> {
        result.iter().map(|&(d, w)| (d.to_bits(), w)).collect()
    }

    /// Asserts the index's answer equals the brute-force K nearest bit for
    /// bit, at every listed K.
    fn assert_exact(positions: &[Point2], viewer: usize, ks: &[usize], ctx: &str) {
        let index = PruneIndex::build(positions);
        for &k in ks {
            let fast = index.nearest_k(positions, viewer, k);
            assert_eq!(bits(&fast), bits(&brute_k(positions, viewer, k)), "{ctx} v={viewer} k={k}");
        }
    }

    #[test]
    fn nearest_k_matches_brute_force_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..40 {
            let n: usize = rng.gen_range(2..120);
            let positions: Vec<Point2> =
                (0..n).map(|_| Point2::new(rng.gen_range(-9.0..9.0), rng.gen_range(-9.0..9.0))).collect();
            for viewer in [0, n / 2, n - 1] {
                let ks = [1, 3, 8, n.saturating_sub(1), n + 4];
                assert_exact(&positions, viewer, &ks, &format!("trial {trial}"));
            }
        }
    }

    /// The bounding box as one sequential `f64::min` / `f64::max` chain per
    /// bound.
    fn sequential_box(positions: &[Point2]) -> [f64; 4] {
        let mut b = [f64::INFINITY, f64::INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY];
        for p in positions {
            b = [b[0].min(p.x), b[1].min(p.y), b[2].max(p.x), b[3].max(p.y)];
        }
        b
    }

    #[test]
    fn lane_bounding_box_builds_the_sequential_folds_index_through_signed_zeros_and_nan() {
        // coordinates drawn from ±0.0, NaN and a few ordinary values, so
        // the lanes' zero signs and NaN skips differ from the single chain's
        let pool = [0.0, -0.0, f64::NAN, 1.5, -2.25, 7.0, -0.0, 0.0];
        let mut rng = StdRng::seed_from_u64(42);
        for n in [0usize, 1, 3, 4, 5, 9, 17, 64] {
            for _ in 0..8 {
                let positions: Vec<Point2> = (0..n)
                    .map(|_| {
                        Point2::new(pool[rng.gen_range(0..pool.len())], pool[rng.gen_range(0..pool.len())])
                    })
                    .collect();
                let lanes = bounding_box(&positions);
                let seq = sequential_box(&positions);
                // equal as values: only a zero's sign may differ
                assert!(lanes.iter().zip(&seq).all(|(a, b)| a == b), "n={n}: {lanes:?} vs {seq:?}");
                let index = PruneIndex::build(&positions);
                let mut reference = PruneIndex::build(&[]);
                reference.fill(&positions, seq);
                assert_eq!(
                    (index.nx, index.ny, index.cell.to_bits()),
                    (reference.nx, reference.ny, reference.cell.to_bits())
                );
                assert_eq!(
                    (&index.starts, &index.items),
                    (&reference.starts, &reference.items),
                    "n={n}: buckets"
                );
                for viewer in 0..n {
                    for k in [1, 3, n] {
                        assert_eq!(
                            bits(&index.nearest_k(&positions, viewer, k)),
                            bits(&reference.nearest_k(&positions, viewer, k)),
                            "n={n} v={viewer} k={k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rebuilding_in_place_equals_a_fresh_build() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut reused = PruneIndex::build(&[]);
        for n in [40usize, 3, 200, 0, 1, 90] {
            let positions: Vec<Point2> =
                (0..n).map(|_| Point2::new(rng.gen_range(0.0..30.0), rng.gen_range(0.0..8.0))).collect();
            reused.rebuild(&positions);
            let fresh = PruneIndex::build(&positions);
            assert_eq!(
                (reused.nx, reused.ny, reused.cell.to_bits()),
                (fresh.nx, fresh.ny, fresh.cell.to_bits())
            );
            assert_eq!(reused.starts, fresh.starts, "n={n}");
            assert_eq!(reused.items, fresh.items, "n={n}");
            for c in 0..fresh.nx * fresh.ny {
                let bucket = &fresh.items[fresh.starts[c] as usize..fresh.starts[c + 1] as usize];
                assert!(bucket.windows(2).all(|w| w[0] < w[1]), "bucket {c} must be ascending");
                let cell = (c % fresh.nx, c / fresh.nx);
                assert!(bucket.iter().all(|&w| fresh.cell_coords(positions[w as usize]) == cell));
            }
        }
    }

    #[test]
    fn a_5000_user_coincident_stack_stays_exact_inside_and_outside() {
        // the venue's lobby: most of the scene parked bitwise on one point,
        // interleaved by id with users on the floor
        let stack = 5000;
        let mut rng = StdRng::seed_from_u64(29);
        let lobby = Point2::new(90.0, 90.0);
        let mut positions = vec![lobby; stack];
        for _ in 0..200 {
            positions.push(Point2::new(rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0)));
        }
        positions.shuffle(&mut rng);
        let inside = positions.iter().position(|&p| p == lobby).unwrap();
        let outside = positions.iter().position(|&p| p != lobby).unwrap();
        for viewer in [inside, outside] {
            assert_exact(&positions, viewer, &[1, 64, stack - 1, stack + 3], "lobby stack");
        }
    }

    #[test]
    fn nearer_lower_ids_before_coincident_ids_in_one_cell() {
        // one cell holds ids 0..4 at small positive distances from a
        // stack and ids 4..12 on the stack: once K are held with a positive
        // K-th distance, farther ones among ids 0..4 are rejected, yet the
        // stack's higher ids still beat the bound. An exit that ends the
        // bucket on a rejection, or on a larger id while the bound is above
        // 0, drops them.
        let p = Point2::new(6.25, 6.25);
        let mut positions: Vec<Point2> = (0..4).map(|i| Point2::new(6.35 + 0.1 * i as f64, 6.25)).collect();
        positions.extend(std::iter::repeat_n(p, 8));
        for i in 0..28 {
            // spread over a 10 × 10 frame, so the grid is 4 × 4 cells
            let t = i as f64 / 27.0;
            positions.push(Point2::new(10.0 * t, 10.0 * (1.0 - t) * (i % 2) as f64));
        }
        let index = PruneIndex::build(&positions);
        assert_eq!((index.nx, index.ny), (4, 4));
        assert!((0..12).all(|w| index.cell_coords(positions[w]) == index.cell_coords(p)), "one shared cell");
        let ks: Vec<usize> = (1..=positions.len()).collect();
        for viewer in [0, 3, 4, 11] {
            assert_exact(&positions, viewer, &ks, "offsets before the stack");
        }
    }

    #[test]
    fn equal_distances_split_across_cells_break_ties_by_id() {
        // every offset is exact in binary: 4 users at distance 1.5 and 12 at
        // 2.5 (the 3-4-5 triangle halved), spread over the cells around a
        // viewer on a cell corner, with ids shuffled so the id tie-break
        // decides every cut through a tie group
        let v = Point2::new(5.0, 5.0);
        let mut offsets = vec![(1.5, 0.0), (0.0, 1.5), (-1.5, 0.0), (0.0, -1.5)];
        for (a, b) in [(1.5, 2.0), (2.0, 1.5), (2.5, 0.0), (0.0, 2.5)] {
            offsets.extend([(a, b), (-a, b), (a, -b), (-a, -b)]);
        }
        let mut positions: Vec<Point2> =
            offsets.iter().map(|&(dx, dy)| Point2::new(v.x + dx, v.y + dy)).collect();
        positions.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
        positions.dedup();
        positions.extend([Point2::new(0.0, 0.0), Point2::new(10.0, 10.0), v]);
        positions.shuffle(&mut StdRng::seed_from_u64(8));
        let viewer = positions.iter().position(|&p| p == v).unwrap();
        let at = |d: f64| positions.iter().filter(|&&p| v.distance(p).to_bits() == d.to_bits()).count();
        assert_eq!((at(1.5), at(2.5)), (4, 12), "the tie groups are exact");
        let index = PruneIndex::build(&positions);
        let tied_cells: std::collections::BTreeSet<(usize, usize)> =
            positions.iter().filter(|&&p| v.distance(p) == 2.5).map(|&p| index.cell_coords(p)).collect();
        assert!(tied_cells.len() >= 4, "the 2.5 tie group spans {} cells", tied_cells.len());
        let ks: Vec<usize> = (1..=positions.len()).collect();
        assert_exact(&positions, viewer, &ks, "split ties");
    }

    /// Random scenes with duplicated points and a lobby stack, ids shuffled.
    fn stacked_scene() -> impl Strategy<Value = Vec<Point2>> {
        let free = proptest::collection::vec((0.0f64..20.0, 0.0f64..20.0), 1..60);
        let dups = proptest::collection::vec(0usize..1_000, 0..40);
        (free, dups, 0usize..150, 0u64..1_000).prop_map(|(free, dups, stack, seed)| {
            let free: Vec<Point2> = free.into_iter().map(|(x, y)| Point2::new(x, y)).collect();
            let mut positions = free.clone();
            positions.extend(dups.iter().map(|&d| free[d % free.len()]));
            positions.extend(std::iter::repeat_n(Point2::new(70.0, 70.0), stack));
            positions.shuffle(&mut StdRng::seed_from_u64(seed));
            positions
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The index answers every K exactly, bit for bit, on scenes with
        /// duplicated points, a lobby stack and distance ties.
        #[test]
        fn nearest_k_is_brute_force_at_every_k(positions in stacked_scene()) {
            let n = positions.len();
            let index = PruneIndex::build(&positions);
            let stacked = positions.iter().position(|p| p.x == 70.0).unwrap_or(0);
            for viewer in [0, n / 2, n - 1, stacked] {
                let all = brute_k(&positions, viewer, n);
                for k in 1..=n {
                    let fast = index.nearest_k(&positions, viewer, k);
                    prop_assert_eq!(bits(&fast), bits(&all[..k.min(n - 1)]), "n={} v={} k={}", n, viewer, k);
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
        // a venue's zoned density, where most of a large ring is empty cells
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
