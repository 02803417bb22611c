//! The frame-driven scene engine and its shared per-tick state.
//!
//! One [`SceneEngine::push`] call advances the whole scene by one tick:
//! every quantity that is common to all target users — distances, the
//! occlusion structure, the MR co-location candidate masks — is computed
//! once per registered viewer and stored in a [`SceneState`]; per-target
//! code borrows it through [`TargetView`] instead of recomputing it.
//!
//! ## One payload: a shortlist per viewer
//!
//! A tick stores one [`CandidateSet`] per registered viewer: its members
//! with exact distances, mask bits and the occlusion edges among them
//! (see [`crate::prune`] for the contract). The shortlist size is
//! `K = min(prune_k, N − 1)`, where `prune_k = 0` — every new engine's
//! setting — means no cap, `K = N − 1`.
//!
//! * A *complete* shortlist (`K = N − 1`) holds every other user, so it
//!   carries the viewer's whole `O_t^v` and `m_t`. Its members are simply
//!   every other id in ascending order: no spatial index, no K-nearest
//!   query, no sort.
//! * A *short* one (`K < N − 1`, crowd scale) holds the K nearest other
//!   users by `(distance, id)`, read out of a per-tick uniform-grid
//!   [`PruneIndex`]. Per-viewer work drops from O(N log N + pairs) to
//!   O(K log K + restricted pairs), which is what admits venue-scale scenes
//!   (N = 10k–100k).
//!
//! Which of the two runs follows from K against N alone.
//!
//! ## Bit-identicality contract
//!
//! The engine is an *optimization layer*, not an approximation:
//!
//! * Distances: every member distance is measured with
//!   [`Point2::distance`] in `(min, max)` id order. `(p_i − p_j)` and
//!   `(p_j − p_i)` are exact IEEE negations, so squares, sum, and square
//!   root agree bit for bit with the brute-force per-target row
//!   `positions[v].distance(positions[w])`, and with
//!   [`SceneState::distance`] for any pair.
//! * Occlusion: member arcs come from the same
//!   [`OcclusionConverter::arc`] call as the brute-force build; the angular
//!   sweep orders the arcs by start (`center − half_width`) and only *prunes
//!   pairs that cannot intersect*: each arc tests the arcs whose start lies
//!   within its own span (plus a safety margin), and two overlapping arcs
//!   always hold one another's start. Every tested pair is decided by the
//!   exact [`ViewArc::intersects`] predicate. A complete shortlist's edges
//!   are therefore the brute-force edge set, and a short one's are that set
//!   restricted to `members × members`.
//! * Candidate masks re-derive the brute-force `physical_candidate_mask`
//!   semantics from the shortlist: a member `w` of an MR viewer is pruned
//!   iff it has no arc (coincident, `d < 1e-9`) or some MR member's arc
//!   overlaps `w`'s while standing strictly nearer — and "overlaps" is
//!   exactly occlusion-edge adjacency, so no arc intersection is ever
//!   re-tested. The `(distance, id)` selection order puts every strictly
//!   nearer user of a member in the shortlist too, so member bits are the
//!   brute-force bits at every K.
//!
//! ## Every tick is built from its frame
//!
//! A tick's state is a function of that tick's frame (and the engine's
//! constants: viewers, scene config, `prune_k`) alone, as the paper defines
//! `O_t^v` and `m_t` from step `t`'s positions. Nothing is carried from the
//! previous tick. The paper's rooms and venues are crowds in which nearly
//! every user moves at every step, so a tick-to-tick carry would have
//! little to skip. The sweep's working buffers (start-sorted arcs, edge list,
//! counting-sort scratch), the spatial index and the member scratch belong
//! to the engine and are reused across viewers and ticks, so a push
//! allocates only the structures it hands out.
//!
//! [`SceneState::into_parts`] densifies the shortlists into per-viewer
//! distance rows, `n`-node occlusion graphs and masks — the single
//! materialization point for batch consumers (context assembly, replay).

use crate::prune::{CandidateSet, PruneIndex};

use xr_datasets::Scenario;
use xr_graph::geom::Point2;
use xr_graph::{OcclusionConverter, PairSort, UGraph, ViewArc};

/// Safety margin on the sweep's pruning bound: the start-to-start forward
/// gap and `angle_diff` round differently (each start is `center −
/// half_width`, maybe `+ τ`), so pairs within a few ULPs of the bound must
/// still reach the exact predicate. 1e-9 rad is ~10⁶ ULPs at this scale —
/// vastly conservative and still pruning everything that matters.
const SWEEP_MARGIN: f64 = 1e-9;

/// All participant positions at one tick — the unit of ingestion for
/// [`SceneEngine::push`].
#[derive(Debug, Clone)]
pub struct Frame {
    /// Position of every participant (index = user id).
    pub positions: Vec<Point2>,
}

impl Frame {
    /// Wraps a position vector as a frame.
    pub fn new(positions: Vec<Point2>) -> Self {
        Frame { positions }
    }
}

/// Scene-wide constants the engine needs besides the frames themselves.
#[derive(Debug, Clone)]
pub struct SceneConfig {
    /// Avatar body radius (meters) for the occlusion converter.
    pub body_radius: f64,
    /// Which participants join through MR (physically present).
    pub mr_mask: Vec<bool>,
    /// Room diagonal, used by consumers to normalize distances.
    pub room_diagonal: f64,
}

impl SceneConfig {
    /// Extracts the scene constants from a sampled scenario.
    pub fn from_scenario(scenario: &Scenario) -> Self {
        SceneConfig {
            body_radius: scenario.body_radius,
            mr_mask: scenario.mr_mask(),
            room_diagonal: (scenario.room.width().powi(2) + scenario.room.height().powi(2)).sqrt(),
        }
    }
}

/// Shared scene state for one tick: the frame's positions and one
/// [`CandidateSet`] per registered viewer. Owned by the [`SceneEngine`];
/// borrowed read-only through [`TargetView`].
#[derive(Debug, Clone)]
pub struct SceneState {
    /// Positions at this tick.
    positions: Vec<Point2>,
    /// Per-slot candidate shortlists (slot order = the engine's
    /// registered-viewer order).
    shortlists: Vec<CandidateSet>,
}

impl SceneState {
    /// Positions of every participant at this tick.
    pub fn positions(&self) -> &[Point2] {
        &self.positions
    }

    /// Distance between users `i` and `j` (symmetric, bit-exact), measured
    /// from positions in `(min, max)` order — [`Point2::distance`] is
    /// bit-identical either direction, so the value equals the shortlist
    /// entry and the brute-force `positions[i].distance(positions[j])`.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        pair_distance(&self.positions, i, j)
    }

    /// The candidate shortlist of the viewer in `slot` (slot order = the
    /// engine's registered-viewer order).
    pub fn candidates(&self, slot: usize) -> &CandidateSet {
        &self.shortlists[slot]
    }

    /// Densifies the state into its per-slot parts (slot order = the
    /// engine's registered-viewer order): each viewer's distance row, its
    /// occlusion graph and its candidate mask — the single materialization
    /// point that batch consumers (context assembly, replay) read.
    ///
    /// Each row is measured from positions (V·N pairs, bit-identical by the
    /// IEEE argument), each shortlist's edges become an `n`-node [`UGraph`],
    /// and the dense mask carries each member's bit with every non-member
    /// `false`. A complete shortlist (`K = n−1`) therefore yields the
    /// brute-force row, graph and mask bit for bit; at a shorter K the mask
    /// *is* the candidate-set contract — users outside the shortlist are not
    /// candidates.
    pub fn into_parts(self) -> (Vec<Vec<f64>>, Vec<UGraph>, Vec<Vec<bool>>) {
        let n = self.positions.len();
        let mut distances = Vec::with_capacity(self.shortlists.len());
        let mut occlusion = Vec::with_capacity(self.shortlists.len());
        let mut masks = Vec::with_capacity(self.shortlists.len());
        for cs in &self.shortlists {
            distances.push(distance_row(&self.positions, cs.viewer()));
            occlusion.push(UGraph::from_sorted_unique_edges(n, cs.edges()));
            let mut dense = vec![false; n];
            for (&id, &bit) in cs.ids().iter().zip(cs.mask()) {
                dense[id as usize] = bit;
            }
            masks.push(dense);
        }
        (distances, occlusion, masks)
    }
}

/// A cheap per-target window into one tick's [`SceneState`]. Borrowing —
/// never copying — the shared structures is what keeps per-target cost at
/// O(1) once the scene itself is maintained.
#[derive(Debug, Clone, Copy)]
pub struct TargetView<'a> {
    state: &'a SceneState,
    viewer: usize,
    slot: usize,
}

impl<'a> TargetView<'a> {
    /// The viewer this view belongs to.
    pub fn viewer(&self) -> usize {
        self.viewer
    }

    /// Positions at this tick.
    pub fn positions(&self) -> &'a [Point2] {
        &self.state.positions
    }

    /// Retired: a tick stores no dense distance row. Kept until its last
    /// caller moves to [`TargetView::candidates`].
    ///
    /// # Panics
    ///
    /// Always — read [`TargetView::candidates`] instead.
    pub fn distances(&self) -> &'a [f64] {
        panic!("dense distance rows are not materialized: read TargetView::candidates")
    }

    /// Retired: a tick stores no dense candidate mask. Kept until its last
    /// caller moves to [`TargetView::candidates`].
    ///
    /// # Panics
    ///
    /// Always — read [`TargetView::candidates`] instead.
    pub fn candidate_mask(&self) -> &'a [bool] {
        panic!("dense candidate masks are not materialized: read TargetView::candidates")
    }

    /// The viewer's candidate shortlist. Always `Some`: the `Option` is
    /// kept until its last caller stops matching on it.
    pub fn candidates(&self) -> Option<&'a CandidateSet> {
        Some(self.state.candidates(self.slot))
    }
}

/// The angular sweep's working buffers, owned by the engine and reused
/// across viewers and ticks: a sweep leaves its result in `edges`, and the
/// caller copies out only what it keeps (a shortlist's edges).
#[derive(Debug, Clone, Default)]
struct SweepBuffers {
    /// `(start, id, arc)` of every user that has an arc, sorted by the
    /// sweep key `(start, id)`.
    sorted: Vec<(f64, u32, ViewArc)>,
    /// The last sweep's sorted unique `(min, max)` edges.
    edges: Vec<(u32, u32)>,
    /// Counting-sort scratch for `edges`.
    pair_sort: PairSort,
}

impl SweepBuffers {
    /// Sweeps `arcs` (the arc of id `i` at position `i`, `None` for no arc)
    /// and returns its sorted unique edge list; every listed pair was
    /// decided by the exact [`ViewArc::intersects`] predicate.
    fn edges(
        &mut self,
        arcs: impl ExactSizeIterator<Item = Option<ViewArc>>,
        pair_tests: &mut u64,
    ) -> &[(u32, u32)] {
        let n = arcs.len();
        sort_arcs(arcs, &mut self.sorted);
        sweep_edge_list(&self.sorted, &mut self.edges, pair_tests);
        // each intersecting pair can be reached from both endpoints' forward
        // scans; the O(n + m) counting sort + dedup yields the brute-force
        // i<j order
        self.pair_sort.sort_unique(n, &mut self.edges);
        &self.edges
    }
}

/// The streaming scene engine: feed it one [`Frame`] per tick, read shared
/// state back through [`SceneEngine::state`] / [`SceneEngine::view`].
///
/// Viewers (the target users whose occlusion structure is needed) are
/// registered up front so a single-target session does not pay for N
/// per-viewer shortlists: a tick stores one per viewer and nothing for the
/// other users.
#[derive(Debug, Clone)]
pub struct SceneEngine {
    converter: OcclusionConverter,
    config: SceneConfig,
    n: usize,
    viewers: Vec<usize>,
    /// `slot_of[v]` is the slot index of viewer `v`, if registered.
    slot_of: Vec<Option<usize>>,
    states: Vec<SceneState>,
    /// Tick index of `states[0]` — nonzero once retention compacted history.
    base: usize,
    /// `Some(k)`: keep only the last `k` states (long-running serving);
    /// `None`: keep everything (episode replay/training).
    retain: Option<usize>,
    /// Shortlist cap; 0 (the default) means none, `K = N − 1`.
    prune_k: usize,
    /// The short-shortlist path's spatial index, rebuilt from each frame
    /// into the same buffers.
    index: PruneIndex,
    /// Per-viewer `(distance, id)` member scratch.
    nearest_buf: Vec<(f64, u32)>,
    sweep: SweepBuffers,
}

impl SceneEngine {
    /// An engine for an `n`-participant scene with the given registered
    /// viewers.
    ///
    /// # Panics
    ///
    /// Panics when `config.mr_mask` is not `n`-long or a viewer is out of
    /// range.
    pub fn new(n: usize, config: SceneConfig, viewers: &[usize]) -> Self {
        assert_eq!(config.mr_mask.len(), n, "mr_mask length mismatch");
        let mut slot_of = vec![None; n];
        let mut unique = Vec::with_capacity(viewers.len());
        for &v in viewers {
            assert!(v < n, "viewer {v} out of range (n={n})");
            if slot_of[v].is_none() {
                slot_of[v] = Some(unique.len());
                unique.push(v);
            }
        }
        let converter = OcclusionConverter::new(config.body_radius);
        SceneEngine {
            converter,
            config,
            n,
            viewers: unique,
            slot_of,
            states: Vec::new(),
            base: 0,
            retain: None,
            prune_k: 0,
            index: PruneIndex::build(&[]),
            nearest_buf: Vec::new(),
            sweep: SweepBuffers::default(),
        }
    }

    /// An engine over a sampled scenario's constants (frames still have to
    /// be pushed — typically the scenario's trajectory, one tick at a time).
    pub fn for_scenario(scenario: &Scenario, viewers: &[usize]) -> Self {
        SceneEngine::new(scenario.n(), SceneConfig::from_scenario(scenario), viewers)
    }

    /// Number of participants.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Registered viewers, in slot order.
    pub fn viewers(&self) -> &[usize] {
        &self.viewers
    }

    /// Scene constants.
    pub fn config(&self) -> &SceneConfig {
        &self.config
    }

    /// The occlusion converter (body radius) used for all visibility work.
    pub fn converter(&self) -> &OcclusionConverter {
        &self.converter
    }

    /// Number of ticks ingested so far (including compacted ones).
    pub fn ticks(&self) -> usize {
        self.base + self.states.len()
    }

    /// Bounds the retained scene-state history: `Some(k)` keeps only the
    /// last `k` ticks (compacting immediately and on every later push),
    /// `None` (the default) keeps every tick. Long-running serving sessions
    /// must bound retention — a room ticking for hours would otherwise
    /// accumulate per-viewer state every tick forever; episode replay and
    /// training keep the full history.
    ///
    /// # Panics
    ///
    /// Panics when `keep_last` is `Some(0)` — the current tick's state must
    /// always be readable after a push.
    pub fn set_state_retention(&mut self, keep_last: Option<usize>) {
        assert!(keep_last != Some(0), "retention must keep at least one state");
        self.retain = keep_last;
        self.compact();
    }

    /// The oldest tick whose state is still retained (0 until retention
    /// compacts history).
    pub fn first_retained_tick(&self) -> usize {
        self.base
    }

    fn compact(&mut self) {
        if let Some(keep) = self.retain {
            if self.states.len() > keep {
                let drop = self.states.len() - keep;
                self.states.drain(..drop);
                self.base += drop;
            }
        }
    }

    /// Retired: it installed a per-tick deadline tracker. Rooms time whole
    /// frames with their own tracker, so only `None` is accepted.
    ///
    /// # Panics
    ///
    /// Panics on `Some`.
    pub fn set_slo(&mut self, slo: Option<xr_obs::SloTracker>) {
        assert!(slo.is_none(), "the scene engine's deadline tracker is retired: rooms time whole frames");
    }

    /// Retired: it selected whether pruned ticks reused the previous tick's
    /// shortlists. Every tick is now built from its frame alone, which is
    /// what either value asked for, so both are accepted and ignored.
    pub fn set_incremental(&mut self, _on: bool) {}

    /// Retired: it set a radius under which a user's position snapped onto
    /// the previous tick's. Every tick is now built from its raw frame, so
    /// only `0.0` (no snapping) is accepted.
    ///
    /// # Panics
    ///
    /// Panics on any value other than `0.0`.
    pub fn set_snap_epsilon(&mut self, eps: f64) {
        assert!(eps == 0.0, "snap epsilon is retired: every tick is built from its raw frame");
    }

    /// Caps the shortlist size: every subsequent tick builds per-viewer
    /// shortlists of `K = min(k, N − 1)` members, and `0` (every new
    /// engine's setting) means no cap, `K = N − 1` — complete shortlists.
    /// Safe to switch mid-session: each tick is built from its own frame at
    /// the cap in force when it is pushed.
    pub fn set_prune_k(&mut self, k: usize) {
        self.prune_k = k;
    }

    /// The active shortlist cap (0 = no cap, `K = N − 1`).
    pub fn prune_k(&self) -> usize {
        self.prune_k
    }

    /// Ingests one frame, computing the tick's shared [`SceneState`].
    /// Returns the tick index the frame landed on.
    ///
    /// # Panics
    ///
    /// Panics when the frame's participant count differs from the engine's.
    pub fn push(&mut self, frame: Frame) -> usize {
        let t = self.ticks();
        let _span = xr_obs::span!("session.tick", t = t, n = self.n, viewers = self.viewers.len());
        assert_eq!(frame.positions.len(), self.n, "frame has wrong participant count");

        let mut pair_tests = 0u64;
        let state = self.build_state(frame.positions, &mut pair_tests);

        // shared-state reuse telemetry: one tick serves every registered
        // viewer, and the sweep's exact-predicate evaluations replace
        // V·N(N−1)/2 brute-force tests
        xr_obs::counter_add("session.ticks", &[], 1);
        xr_obs::counter_add("session.views_served", &[], self.viewers.len() as u64);
        xr_obs::counter_add("session.sweep.pair_tests", &[], pair_tests);
        let n = self.n as u64;
        let brute = (self.viewers.len() as u64) * n * n.saturating_sub(1) / 2;
        xr_obs::counter_add("session.sweep.pair_tests_saved", &[], brute.saturating_sub(pair_tests));

        self.states.push(state);
        self.compact();
        t
    }

    /// One tick's shortlists, from scratch. A complete shortlist
    /// (`K = N − 1`) lists every other id in ascending order; a short one
    /// queries the K nearest out of one uniform-grid spatial index over the
    /// frame — O(N) scene maintenance plus O(K log K + restricted pairs)
    /// per viewer. Emits the distances the K-nearest queries evaluated as
    /// `session.prune.knn_distances` (0 on a complete tick).
    fn build_state(&mut self, positions: Vec<Point2>, pair_tests: &mut u64) -> SceneState {
        let n = self.n;
        let complete = n.saturating_sub(1);
        let k = if self.prune_k == 0 { complete } else { self.prune_k.min(complete) };
        let short = k < complete;
        if short {
            self.index.rebuild(&positions);
        }
        let mut members = std::mem::take(&mut self.nearest_buf);
        let mut shortlists = Vec::with_capacity(self.viewers.len());
        let mut knn_distances = 0u64;
        for &v in &self.viewers {
            if short {
                knn_distances += self.index.nearest_k_into(&positions, v, k, &mut members) as u64;
                // members in ascending-id order, distances carried along
                members.sort_unstable_by_key(|&(_, w)| w);
            } else {
                members.clear();
                members
                    .extend((0..n).filter(|&w| w != v).map(|w| (pair_distance(&positions, v, w), w as u32)));
            }
            shortlists.push(build_candidate_set(
                v,
                &positions,
                &self.converter,
                &self.config.mr_mask,
                &members,
                &mut self.sweep,
                pair_tests,
            ));
        }
        members.clear();
        self.nearest_buf = members;
        xr_obs::counter_add("session.prune.knn_distances", &[], knn_distances);
        SceneState { positions, shortlists }
    }

    /// Convenience: pushes every tick of a scenario's trajectory.
    pub fn push_scenario(&mut self, scenario: &Scenario) {
        for positions in &scenario.trajectories {
            self.push(Frame::new(positions.clone()));
        }
    }

    /// The shared scene state at tick `t`.
    ///
    /// # Panics
    ///
    /// Panics when tick `t` was compacted away by state retention (or never
    /// ingested).
    pub fn state(&self, t: usize) -> &SceneState {
        assert!(
            t >= self.base,
            "tick {t} was compacted away (retention keeps ticks {}..{})",
            self.base,
            self.ticks()
        );
        &self.states[t - self.base]
    }

    /// The most recent tick's state, if any frame has been ingested.
    pub fn latest_state(&self) -> Option<&SceneState> {
        self.states.last()
    }

    /// A borrowed per-target view at tick `t`.
    ///
    /// # Panics
    ///
    /// Panics when `viewer` was not registered at construction.
    pub fn view(&self, viewer: usize, t: usize) -> TargetView<'_> {
        let slot =
            self.slot_of[viewer].unwrap_or_else(|| panic!("viewer {viewer} not registered with this engine"));
        TargetView { state: self.state(t), viewer, slot }
    }

    /// The slot index of a registered viewer.
    pub fn slot_of(&self, viewer: usize) -> Option<usize> {
        self.slot_of.get(viewer).copied().flatten()
    }

    /// Consumes the engine, yielding every **retained** tick's shared state
    /// in order (all of them unless [`SceneEngine::set_state_retention`]
    /// compacted history). Use [`SceneState::into_parts`] to densify the
    /// per-slot structures.
    pub fn into_states(self) -> Vec<SceneState> {
        self.states
    }
}

/// The distance between users `i` and `j`, measured in `(min, max)` order
/// (bit-exact either way — see the module docs); `0.0` when `i == j`.
fn pair_distance(positions: &[Point2], i: usize, j: usize) -> f64 {
    if i == j {
        0.0
    } else {
        positions[i.min(j)].distance(positions[i.max(j)])
    }
}

/// User `v`'s distance row (length `n`, `0.0` at `v`).
fn distance_row(positions: &[Point2], v: usize) -> Vec<f64> {
    (0..positions.len()).map(|w| pair_distance(positions, v, w)).collect()
}

/// Fills `sorted` with the `(start, id, arc)` of every id that has an arc,
/// where `start = center − half_width` wrapped by one `+τ` into `[0, τ]`
/// (rounding can land a start just below 0 on τ itself, which is the same
/// point on the circle), sorted by the sweep key `(start, id)` through
/// [`total_order_key`] — two integer compares, so neither the sort nor the
/// hot loop touches an Option-boxed arc. The keys are unique, so an
/// unstable sort yields the one sorted order.
fn sort_arcs(arcs: impl Iterator<Item = Option<ViewArc>>, sorted: &mut Vec<(f64, u32, ViewArc)>) {
    sorted.clear();
    sorted.extend(arcs.enumerate().filter_map(|(w, arc)| {
        arc.map(|arc| {
            let start = arc.center - arc.half_width;
            (if start < 0.0 { start + std::f64::consts::TAU } else { start }, w as u32, arc)
        })
    }));
    sorted.sort_unstable_by_key(|&(start, id, _)| (total_order_key(start), id));
}

/// An integer whose order is [`f64::total_cmp`]'s: negatives have every
/// bit flipped, everything else only the sign bit.
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63))
}

/// The angular sweep's edge enumeration over one shortlist's local member
/// indices: arcs sorted by start, each compared only against the arcs whose
/// start lies within its own span (forward gap at most `2·half_width`, plus
/// [`SWEEP_MARGIN`]), and every candidate pair decided by the exact
/// [`ViewArc::intersects`] predicate. Two overlapping arcs always hold one
/// another's start, so every intersecting pair is reached from at least one
/// endpoint, and nearly every test is a hit; a π-wide arc scans the lap
/// only for itself. Leaves the `(min, max)` pairs — the brute-force edge
/// set, unsorted and possibly listed twice (when each arc holds the other's
/// start) — in `edges`.
fn sweep_edge_list(sorted: &[(f64, u32, ViewArc)], edges: &mut Vec<(u32, u32)>, pair_tests: &mut u64) {
    edges.clear();
    for (s, &(start, i, ai)) in sorted.iter().enumerate() {
        // forward gaps are nondecreasing along the sorted lap, so the first
        // start beyond the arc's end ends the scan — a later arc that still
        // overlaps this one holds its start, and lists the pair from its own
        // scan
        let reach = 2.0 * ai.half_width + SWEEP_MARGIN;
        let mut wrap = true;
        for &(start_j, j, aj) in &sorted[s + 1..] {
            if start_j - start > reach {
                wrap = false;
                break;
            }
            *pair_tests += 1;
            if ai.intersects(&aj) {
                edges.push((i.min(j), i.max(j)));
            }
        }
        if wrap {
            // wrapped portion of the lap; gaps stay nondecreasing across it
            for &(start_j, j, aj) in &sorted[..s] {
                if start_j - start + std::f64::consts::TAU > reach {
                    break;
                }
                *pair_tests += 1;
                if ai.intersects(&aj) {
                    edges.push((i.min(j), i.max(j)));
                }
            }
        }
    }
}

/// Builds one viewer's [`CandidateSet`] over its members (`members` =
/// `(distance, id)` pairs in ascending-id order): arcs are re-derived per
/// member with the brute-force build's converter call, the occlusion edges
/// come from the angular sweep over shortlist-local indices, and mask bits
/// apply the MR pruning rule over those edges. The `(distance, id)`
/// selection order makes every strictly nearer user of a member also a
/// member (nearer-occluder closure), so the member bits are bitwise equal
/// to the brute-force mask.
fn build_candidate_set(
    viewer: usize,
    positions: &[Point2],
    converter: &OcclusionConverter,
    mr_mask: &[bool],
    members: &[(f64, u32)],
    sweep: &mut SweepBuffers,
    pair_tests: &mut u64,
) -> CandidateSet {
    let len = members.len();
    let ids: Vec<u32> = members.iter().map(|&(_, w)| w).collect();
    let dists: Vec<f64> = members.iter().map(|&(d, _)| d).collect();

    // sweep over local member indices: the edge set it yields is the full
    // edge set ∩ members×members, because each surviving pair is decided by
    // the exact predicate and the pruning bound is per pair (one arc's start
    // within the other's span), so it stays conservative on any subset
    let arcs = ids.iter().map(|&w| converter.arc(positions[viewer], positions[w as usize]));
    let local_edges = sweep.edges(arcs, pair_tests);

    let mut mask = vec![true; len];
    if mr_mask[viewer] {
        // coincident users are pruned, and a strictly nearer MR member in an
        // overlapping arc prunes its partner (the viewer itself is never a
        // member, so it never prunes anyone)
        for idx in 0..len {
            if dists[idx] < 1e-9 {
                mask[idx] = false;
            }
        }
        for &(a, b) in local_edges {
            let (a, b) = (a as usize, b as usize);
            // branch-free: which side prunes is data-dependent and
            // mispredicts as a branch
            mask[b] &= !(mr_mask[ids[a] as usize] & (dists[a] < dists[b]));
            mask[a] &= !(mr_mask[ids[b] as usize] & (dists[b] < dists[a]));
        }
    }

    // ascending local indices map monotonically to ascending global ids, so
    // the sorted-unique property carries over
    let edges: Vec<(u32, u32)> =
        local_edges.iter().map(|&(a, b)| (ids[a as usize], ids[b as usize])).collect();
    CandidateSet::new(viewer, ids, dists, mask, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::Rng as _;
    use rand::SeedableRng;

    fn random_positions(n: usize, side: f64, seed: u64) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Point2::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side))).collect()
    }

    fn engine_for(n: usize, mr_every: usize, body_radius: f64) -> SceneEngine {
        let mr_mask: Vec<bool> = (0..n).map(|i| i % mr_every == 0).collect();
        let config = SceneConfig { body_radius, mr_mask, room_diagonal: 10.0 };
        let viewers: Vec<usize> = (0..n).collect();
        SceneEngine::new(n, config, &viewers)
    }

    /// The occlusion graph one sweep over `arcs` builds.
    fn swept_graph(arcs: &[Option<ViewArc>]) -> UGraph {
        let mut tests = 0;
        UGraph::from_sorted_unique_edges(
            arcs.len(),
            SweepBuffers::default().edges(arcs.iter().copied(), &mut tests),
        )
    }

    #[test]
    fn no_budget_means_no_slo_metrics() {
        let ctx = xr_obs::ObsCtx::new(true, false);
        let _g = ctx.install();
        let mut engine = engine_for(8, 2, 0.25);
        engine.set_slo(None);
        engine.push(Frame::new(random_positions(8, 8.0, 1)));
        let snap = ctx.registry.snapshot();
        assert_eq!(snap.counter("slo.session.tick.ticks"), None);
        assert_eq!(snap.counter("session.ticks"), Some(1), "normal telemetry unaffected");
    }

    #[test]
    #[should_panic(expected = "deadline tracker is retired")]
    fn retired_slo_tracker_is_rejected() {
        let slo = xr_obs::SloTracker::new("session.tick", xr_obs::SloConfig::new(1.0), &[]);
        engine_for(4, 2, 0.25).set_slo(Some(slo));
    }

    /// Asserts that the sweep over `viewer`'s arcs builds the brute-force
    /// graph.
    fn assert_sweep_is_brute_force(
        conv: &OcclusionConverter,
        viewer: usize,
        positions: &[Point2],
        ctx: &str,
    ) {
        let swept = swept_graph(&conv.arcs(viewer, positions));
        assert_eq!(swept, conv.static_graph(viewer, positions), "{ctx}");
    }

    /// Users around a viewer at the origin whose arcs straddle angle 0:
    /// centres on 0 and just above it (their starts wrap below 0), just
    /// under τ down to a few ULPs, and on τ itself (`Point2::angle` rounds
    /// `−1e-16 / d + τ` up to τ).
    fn users_around_angle_zero() -> Vec<Point2> {
        let mut positions = vec![Point2::new(0.0, 0.0)];
        for k in 1..=10 {
            let (d, k) = (0.2 + 0.35 * k as f64, k as f64);
            positions.push(Point2::new(d, 1e-3 * k));
            positions.push(Point2::new(d, -1e-3 * k));
            positions.push(Point2::new(d, -1e-15 * k));
            positions.push(Point2::new(d, -1e-16));
            positions.push(Point2::new(d * 0.99, 0.0));
        }
        positions
    }

    #[test]
    fn sweep_graph_equals_brute_force_including_adjacency_order() {
        // structural equality (UGraph derives PartialEq over the adjacency
        // Vec) is stronger than edge-set equality: downstream CSR builds and
        // degree iterations must see the identical object. Body radius 3.5
        // is near the 4 m room's scale: most arcs are wide, many π-wide.
        for radius in [0.3, 3.5] {
            let conv = OcclusionConverter::new(radius);
            for seed in 0..30u64 {
                let n = 3 + (seed as usize % 22);
                let positions = random_positions(n, 4.0, seed);
                for viewer in [0, n / 2, n - 1] {
                    assert_sweep_is_brute_force(
                        &conv,
                        viewer,
                        &positions,
                        &format!("r {radius}, seed {seed}"),
                    );
                }
            }
        }
        // starts that wrap below 0 and centres just under τ
        let positions = users_around_angle_zero();
        let tau = std::f64::consts::TAU;
        for radius in [0.05, 0.3, 1.0, 3.0] {
            let conv = OcclusionConverter::new(radius);
            let arcs: Vec<ViewArc> = conv.arcs(0, &positions).into_iter().flatten().collect();
            assert!(arcs.iter().any(|a| a.center < 0.01 && a.center - a.half_width < 0.0));
            assert!(arcs.iter().any(|a| a.center > tau - 1e-13 && a.center < tau));
            assert!(arcs.iter().all(|a| a.center < tau));
            // (d, −1e-16) sits at atan2 ≈ −2e-16, whose wrap rounds onto τ
            let rounds_onto_tau = conv.arc(positions[0], positions[4]).unwrap();
            assert_eq!(rounds_onto_tau.center, 0.0);
            assert_sweep_is_brute_force(&conv, 0, &positions, &format!("around 0, r {radius}"));
        }
    }

    #[test]
    fn total_order_key_orders_like_total_cmp() {
        let xs = [
            -f64::NAN,
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            1.0,
            std::f64::consts::TAU,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(total_order_key(a).cmp(&total_order_key(b)), a.total_cmp(&b), "{a:?} vs {b:?}");
            }
        }
    }

    /// Pairs of distinct users around a viewer at the origin whose arc
    /// starts `center − half_width` tie bit for bit: each partner is aimed
    /// at the first user's start and nudged until the rounded starts agree.
    fn users_with_equal_starts(conv: &OcclusionConverter) -> Vec<Point2> {
        let start = |p: Point2| {
            let a = conv.arc(Point2::new(0.0, 0.0), p).unwrap();
            a.center - a.half_width
        };
        let mut positions = vec![Point2::new(0.0, 0.0)];
        for k in 0..12 {
            let theta = 0.4 + 0.5 * k as f64;
            let first = Point2::new(theta.cos(), theta.sin()) * 1.5;
            let target = start(first);
            let d = 2.5 + 0.1 * k as f64;
            let half_width = (conv.body_radius / d).asin();
            let aim = target + half_width;
            // tangential nudges of about an ULP of the position each
            let step = f64::EPSILON * d;
            let partner = (-64..=64)
                .map(|nudge| {
                    let t = nudge as f64 * step;
                    Point2::new(aim.cos() * d - t * aim.sin(), aim.sin() * d + t * aim.cos())
                })
                .find(|&p| start(p) == target);
            if let Some(partner) = partner {
                positions.extend([first, partner]);
            }
        }
        positions
    }

    #[test]
    fn sweep_handles_coincident_and_engulfing_arcs() {
        // coincident users (no arc) and d <= r (half_width = π) are the
        // degenerate corners of the sweep's pruning bound
        let conv = OcclusionConverter::new(0.5);
        let positions = vec![
            Point2::new(0.0, 0.0),  // viewer
            Point2::new(0.3, 0.0),  // inside the body radius: π half-width
            Point2::new(0.0, 0.0),  // coincident: no arc
            Point2::new(-2.0, 0.1), // regular
            Point2::new(1.5, -1.5), // regular
        ];
        assert_sweep_is_brute_force(&conv, 0, &positions, "one π-wide arc");

        // several π-wide arcs, two of them twins (equal starts), one centred
        // just under τ, among regular arcs that straddle angle 0
        let mut positions = users_around_angle_zero();
        positions.extend([
            Point2::new(0.1, 0.2),
            Point2::new(0.1, 0.2),
            Point2::new(-0.3, -0.1),
            Point2::new(0.4, -1e-12),
            Point2::new(2.0, 2.0),
            Point2::new(2.0, 2.0),
        ]);
        assert_sweep_is_brute_force(&conv, 0, &positions, "several π-wide arcs");

        // distinct users whose starts tie bit for bit
        for radius in [0.3, 0.8] {
            let conv = OcclusionConverter::new(radius);
            let positions = users_with_equal_starts(&conv);
            assert!(positions.len() >= 9, "r {radius}: only {} tied pairs", positions.len() / 2);
            assert_sweep_is_brute_force(&conv, 0, &positions, &format!("equal starts, r {radius}"));
        }

        // a body radius near the room's scale: nearly every arc is π-wide
        let conv = OcclusionConverter::new(3.0);
        let positions = random_positions(40, 4.0, 9);
        for viewer in [0, 17, 39] {
            assert_sweep_is_brute_force(&conv, viewer, &positions, &format!("room-scale r, viewer {viewer}"));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn sweep_graph_equals_brute_force_on_random_scenes(
            raw in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 2..48),
            radius in 0.02f64..3.0,
            viewer in 0usize..48,
            layout in 0u32..4,
        ) {
            // layout 0: uniform in a 4 m room; 1, 2: snapped to a 0.5 m or
            // 0.25 m grid (twins, collinear users, centres exactly on axes);
            // 3: a fan around the viewer within ±0.1 rad of angle 0
            let viewer = viewer % raw.len();
            let positions: Vec<Point2> = raw
                .iter()
                .enumerate()
                .map(|(w, &(u, v))| match layout {
                    _ if layout == 3 && w == viewer => Point2::new(2.0, 2.0),
                    0 => Point2::new(4.0 * u, 4.0 * v),
                    1 | 2 => {
                        let step = 0.5 / layout as f64;
                        Point2::new((4.0 * u / step).round() * step, (4.0 * v / step).round() * step)
                    }
                    _ => {
                        let (angle, d) = ((u - 0.5) * 0.2, 0.01 + 3.0 * v);
                        Point2::new(2.0 + d * angle.cos(), 2.0 + d * angle.sin())
                    }
                })
                .collect();
            let conv = OcclusionConverter::new(radius);
            proptest::prop_assert_eq!(
                swept_graph(&conv.arcs(viewer, &positions)),
                conv.static_graph(viewer, &positions)
            );
        }
    }

    #[test]
    fn candidate_mask_matches_arc_level_definition() {
        // re-derive the mask the brute-force way (arc scan) and compare it
        // with each viewer's complete-shortlist bits
        let n = 20;
        let conv = OcclusionConverter::new(0.3);
        let mr_mask: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        for seed in 0..20u64 {
            let positions = random_positions(n, 4.0, 100 + seed);
            let mut engine = engine_for(n, 2, 0.3);
            engine.push(Frame::new(positions.clone()));
            for viewer in 0..n {
                let arcs = conv.arcs(viewer, &positions);
                let mut expected = vec![true; n];
                expected[viewer] = false;
                if mr_mask[viewer] {
                    for w in 0..n {
                        if w == viewer {
                            continue;
                        }
                        let Some(aw) = arcs[w] else {
                            expected[w] = false;
                            continue;
                        };
                        for u in 0..n {
                            if u == w || u == viewer || !mr_mask[u] {
                                continue;
                            }
                            if let Some(au) = arcs[u] {
                                if au.distance < aw.distance && au.intersects(&aw) {
                                    expected[w] = false;
                                    break;
                                }
                            }
                        }
                    }
                }
                let cs = engine.state(0).candidates(viewer);
                let mut mask = vec![false; n];
                for (&w, &bit) in cs.ids().iter().zip(cs.mask()) {
                    mask[w as usize] = bit;
                }
                assert_eq!(mask, expected, "seed {seed}, viewer {viewer}");
            }
        }
    }

    /// Bounded random walk with teleports: `mover_frac` of the users take a
    /// small step each tick, teleports land anywhere in the room.
    fn coherent_frames(
        n: usize,
        ticks: usize,
        side: f64,
        mover_frac: f64,
        teleport_prob: f64,
        seed: u64,
    ) -> Vec<Vec<Point2>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cur = random_positions(n, side, seed ^ 0xABCD);
        let mut frames = vec![cur.clone()];
        for _ in 1..ticks {
            for p in cur.iter_mut() {
                if rng.gen_bool(teleport_prob) {
                    *p = Point2::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
                } else if rng.gen_bool(mover_frac) {
                    let (dx, dy) = (rng.gen_range(-0.1..0.1), rng.gen_range(-0.1..0.1));
                    *p = Point2::new((p.x + dx).clamp(0.0, side), (p.y + dy).clamp(0.0, side));
                }
            }
            frames.push(cur.clone());
        }
        frames
    }

    /// [`coherent_frames`] with lobby churn: each tick a user leaves for, or
    /// rejoins from, a lobby point outside the room with probability
    /// `churn_prob`, and a parked user sits there bitwise still.
    fn frames_with_lobby_churn(
        n: usize,
        ticks: usize,
        side: f64,
        churn_prob: f64,
        seed: u64,
    ) -> Vec<Vec<Point2>> {
        let mut frames = coherent_frames(n, ticks, side, 0.4, 0.05, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1088);
        let lobby = Point2::new(4.0 * side, 4.0 * side);
        let mut parked: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.4)).collect();
        for frame in &mut frames {
            for (p, park) in frame.iter_mut().zip(parked.iter_mut()) {
                if *park {
                    *p = lobby;
                }
                if rng.gen_bool(churn_prob) {
                    *park = !*park;
                }
            }
        }
        frames
    }

    /// Asserts two states equal every stored value bit for bit.
    fn assert_states_bitwise_equal(a: &SceneState, b: &SceneState, ctx: &str) {
        let bits = |ps: &[Point2]| -> Vec<(u64, u64)> {
            ps.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
        };
        assert_eq!(bits(&a.positions), bits(&b.positions), "{ctx}: position bits");
        assert_eq!(a.shortlists, b.shortlists, "{ctx}: shortlists");
        let dist_bits = |sl: &[CandidateSet]| -> Vec<Vec<u64>> {
            sl.iter().map(|cs| cs.distances().iter().map(|d| d.to_bits()).collect()).collect()
        };
        assert_eq!(dist_bits(&a.shortlists), dist_bits(&b.shortlists), "{ctx}: member distance bits");
    }

    #[test]
    fn every_tick_is_a_function_of_its_frame_alone() {
        // whatever the engine saw before, each pushed tick equals bit for bit
        // what a fresh engine builds from that frame alone — at complete
        // shortlists and at a serving K, with unbounded and single-tick
        // retention, through lobby churn
        let n = 16;
        let frames = frames_with_lobby_churn(n, 12, 5.0, 0.15, 61);
        let mut parked_with_their_shortlist = 0;
        for prune_k in [0, 4] {
            for retention in [None, Some(1)] {
                let mut engine = engine_for(n, 2, 0.25);
                engine.set_prune_k(prune_k);
                engine.set_state_retention(retention);
                for (t, f) in frames.iter().enumerate() {
                    engine.push(Frame::new(f.clone()));
                    let mut fresh = engine_for(n, 2, 0.25);
                    fresh.set_prune_k(prune_k);
                    fresh.push(Frame::new(f.clone()));
                    let ctx = format!("K={prune_k} retention {retention:?} t={t}");
                    assert_states_bitwise_equal(engine.state(t), fresh.state(0), &ctx);
                    // a still viewer whose members all sit still with it:
                    // the case a tick-to-tick carry would have skipped
                    if prune_k == 4 && t > 0 {
                        parked_with_their_shortlist += (0..n)
                            .filter(|&v| f[v] == frames[t - 1][v])
                            .filter(|&v| engine.state(t).candidates(v).distances().iter().all(|&d| d == 0.0))
                            .count();
                    }
                }
            }
        }
        assert!(parked_with_their_shortlist > 0, "the churn must park some viewer with its whole shortlist");
    }

    #[test]
    fn no_cap_and_every_cap_from_n_minus_1_up_build_one_complete_shortlist_without_a_query() {
        // K = 0 (no cap), K = n−1 and K = n+5 all mean a complete shortlist:
        // every other id in ascending order with its exact distance, built
        // without the K-nearest query
        let n = 16;
        let frames = frames_with_lobby_churn(n, 10, 5.0, 0.15, 83);
        let ctx = xr_obs::ObsCtx::new(true, false);
        let _g = ctx.install();
        let engines: Vec<SceneEngine> = [0, n - 1, n + 5]
            .into_iter()
            .map(|prune_k| {
                let mut engine = engine_for(n, 2, 0.25);
                engine.set_prune_k(prune_k);
                for f in &frames {
                    engine.push(Frame::new(f.clone()));
                }
                engine
            })
            .collect();
        let snap = ctx.registry.snapshot();
        assert_eq!(snap.counter("session.ticks"), Some(3 * frames.len() as u64));
        assert_eq!(
            snap.counter("session.prune.knn_distances").unwrap_or(0),
            0,
            "a complete tick ran a query"
        );
        for (t, positions) in frames.iter().enumerate() {
            for other in &engines[1..] {
                assert_states_bitwise_equal(engines[0].state(t), other.state(t), &format!("t={t}"));
            }
            for v in 0..n {
                let cs = engines[0].state(t).candidates(v);
                let others: Vec<u32> = (0..n as u32).filter(|&w| w as usize != v).collect();
                assert_eq!(cs.ids(), &others[..], "t={t} v={v}: members");
                for (&w, d) in cs.ids().iter().zip(cs.distances()) {
                    let brute = positions[v].distance(positions[w as usize]);
                    assert_eq!(d.to_bits(), brute.to_bits(), "t={t}: d({v},{w})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "snap epsilon is retired")]
    fn retired_snap_epsilon_is_rejected() {
        engine_for(4, 2, 0.25).set_snap_epsilon(1e-3);
    }

    #[test]
    fn retention_keeps_the_last_k_states_at_stable_tick_indices() {
        let n = 12;
        let mut bounded = engine_for(n, 2, 0.25);
        bounded.set_state_retention(Some(3));
        let mut unbounded = engine_for(n, 2, 0.25);
        for t in 0..10u64 {
            let f = random_positions(n, 6.0, 200 + t);
            assert_eq!(bounded.push(Frame::new(f.clone())), t as usize, "tick indices unaffected");
            unbounded.push(Frame::new(f));
        }
        assert_eq!(bounded.ticks(), 10);
        assert_eq!(bounded.first_retained_tick(), 7);
        for t in 7..10 {
            // retained states are addressed by their original tick index and
            // identical to the unbounded engine's
            assert_states_bitwise_equal(bounded.state(t), unbounded.state(t), &format!("t={t}"));
        }
        assert_eq!(bounded.latest_state().unwrap().positions(), unbounded.state(9).positions());
        assert_eq!(bounded.into_states().len(), 3);
    }

    #[test]
    fn retention_can_be_tightened_mid_session() {
        let mut engine = engine_for(6, 2, 0.25);
        for t in 0..5u64 {
            engine.push(Frame::new(random_positions(6, 5.0, 300 + t)));
        }
        assert_eq!(engine.first_retained_tick(), 0);
        engine.set_state_retention(Some(1));
        assert_eq!(engine.first_retained_tick(), 4, "tightening compacts immediately");
        assert_eq!(engine.ticks(), 5);
    }

    #[test]
    #[should_panic(expected = "compacted away")]
    fn reading_a_compacted_tick_panics() {
        let mut engine = engine_for(6, 2, 0.25);
        engine.set_state_retention(Some(1));
        for t in 0..3u64 {
            engine.push(Frame::new(random_positions(6, 5.0, 400 + t)));
        }
        engine.state(0);
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn zero_retention_panics() {
        engine_for(4, 2, 0.25).set_state_retention(Some(0));
    }

    #[test]
    fn views_expose_the_registered_viewers_slice() {
        let n = 10;
        let config = SceneConfig { body_radius: 0.2, mr_mask: vec![false; n], room_diagonal: 10.0 };
        let mut engine = SceneEngine::new(n, config, &[4, 7, 4]); // duplicate collapses
        assert_eq!(engine.viewers(), &[4, 7]);
        engine.push(Frame::new(random_positions(n, 5.0, 9)));
        let view = engine.view(7, 0);
        assert_eq!(view.viewer(), 7);
        let cs = view.candidates().unwrap();
        assert_eq!((cs.viewer(), cs.len()), (7, n - 1), "slot 1 holds viewer 7's complete shortlist");
        assert!(cs.mask().iter().all(|&m| m), "a VR viewer keeps every candidate");
        assert_eq!(engine.state(0).candidates(0).viewer(), 4);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unregistered_viewer_panics() {
        let n = 6;
        let config = SceneConfig { body_radius: 0.2, mr_mask: vec![false; n], room_diagonal: 8.0 };
        let mut engine = SceneEngine::new(n, config, &[1]);
        engine.push(Frame::new(random_positions(n, 5.0, 3)));
        engine.view(2, 0);
    }

    #[test]
    #[should_panic(expected = "wrong participant count")]
    fn wrong_frame_width_panics() {
        let mut engine = engine_for(4, 2, 0.2);
        engine.push(Frame::new(random_positions(5, 5.0, 1)));
    }

    #[test]
    fn short_shortlists_are_the_k_nearest_of_the_complete_one() {
        // at a small serving K the member-level contract holds: ids are the
        // brute K nearest by (distance, id), and member distances, mask bits
        // and edges are bitwise the complete shortlist's, restricted to the
        // members
        for seed in 0..6u64 {
            let n = 18;
            let k = 6;
            let positions = random_positions(n, 5.0, 700 + seed);
            let mut complete = engine_for(n, 2, 0.25);
            complete.push(Frame::new(positions.clone()));
            let mut pruned = engine_for(n, 2, 0.25);
            pruned.set_prune_k(k);
            pruned.push(Frame::new(positions.clone()));

            for v in 0..n {
                let full = complete.state(0).candidates(v);
                let cs = pruned.state(0).candidates(v);
                assert_eq!(cs.viewer(), v);
                // brute-force K nearest by (distance, id)
                let mut all: Vec<(f64, u32)> = (0..n)
                    .filter(|&w| w != v)
                    .map(|w| (positions[v].distance(positions[w]), w as u32))
                    .collect();
                all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                all.truncate(k);
                let mut want: Vec<u32> = all.iter().map(|&(_, w)| w).collect();
                want.sort_unstable();
                assert_eq!(cs.ids(), &want[..], "seed {seed} v={v}: membership");
                for (idx, &w) in cs.ids().iter().enumerate() {
                    let at = full.ids().binary_search(&w).unwrap();
                    assert_eq!(
                        cs.distances()[idx].to_bits(),
                        full.distances()[at].to_bits(),
                        "seed {seed} v={v} w={w}: distance"
                    );
                    assert_eq!(
                        cs.mask()[idx],
                        full.mask()[at],
                        "seed {seed} v={v} w={w}: mask bit (nearer-occluder closure)"
                    );
                }
                let restricted: Vec<(u32, u32)> = full
                    .edges()
                    .iter()
                    .copied()
                    .filter(|&(a, b)| cs.contains(a as usize) && cs.contains(b as usize))
                    .collect();
                assert_eq!(cs.edges(), &restricted[..], "seed {seed} v={v}: restricted edges");
            }
        }
    }

    #[test]
    fn state_distance_matches_brute_force_bitwise() {
        let n = 10;
        let positions = random_positions(n, 6.0, 44);
        let mut engine = engine_for(n, 2, 0.25);
        engine.set_prune_k(3);
        engine.push(Frame::new(positions.clone()));
        let state = engine.state(0);
        for i in 0..n {
            for j in 0..n {
                let want = if i == j { 0.0 } else { positions[i].distance(positions[j]) };
                assert_eq!(state.distance(i, j).to_bits(), want.to_bits(), "d({i},{j})");
            }
        }
    }

    #[test]
    fn a_viewer_inside_a_lobby_stack_evaluates_2k_distances_not_n() {
        // the stadium's churn parks thousands of users bitwise on one lobby
        // point: a viewer among them must do O(K) query work — 2K distances
        // fill the selection buffer, its K-th best sits at distance 0, and
        // the co-located exit ends the lobby bucket on the next id. A full
        // lobby scan would evaluate 4 999.
        let (stack, k) = (5000, 64);
        let mut positions = vec![Point2::new(100.0, 100.0); stack];
        positions.extend(random_positions(200, 10.0, 5));
        let n = positions.len();
        let config = SceneConfig { body_radius: 0.25, mr_mask: vec![true; n], room_diagonal: 15.0 };
        let mut engine = SceneEngine::new(n, config, &[stack / 2]);
        engine.set_prune_k(k);
        let ctx = xr_obs::ObsCtx::new(true, false);
        let _g = ctx.install();
        engine.push(Frame::new(positions));
        assert_eq!(ctx.registry.snapshot().counter("session.prune.knn_distances"), Some(2 * k as u64));
        let cs = engine.view(stack / 2, 0).candidates().unwrap();
        assert_eq!(cs.ids(), &(0..k as u32).collect::<Vec<_>>()[..], "the K lowest ids of the stack");
        assert!(cs.distances().iter().all(|&d| d == 0.0) && cs.mask().iter().all(|&m| !m));
    }

    #[test]
    fn a_stadium_tick_evaluates_a_pinned_number_of_distances() {
        // one venue frame at the benchmark's stadium shape: N = 10 000,
        // 32 viewers spread evenly over ids, K = 64. The count is a
        // function of the frame and the index's ring order alone, so any
        // change to how the index is scanned that offers other candidates
        // moves it.
        let (n, viewers, k) = (10_000, 32, 64);
        let mut sim = xr_datasets::VenueSim::new(xr_datasets::VenueConfig::stadium(n, 1));
        let venue = *sim.config();
        let config = SceneConfig {
            body_radius: venue.body_radius,
            mr_mask: venue.mr_mask(),
            room_diagonal: venue.room_diagonal(),
        };
        let ids: Vec<usize> = (0..n).step_by(n / viewers).take(viewers).collect();
        let mut engine = SceneEngine::new(n, config, &ids);
        engine.set_prune_k(k);
        let ctx = xr_obs::ObsCtx::new(true, false);
        let _g = ctx.install();
        engine.push(Frame::new(sim.next_frame()));
        assert_eq!(ctx.registry.snapshot().counter("session.prune.knn_distances"), Some(6358));
    }

    /// Pushes one uncapped frame through an engine for `viewers` with an
    /// installed [`xr_obs::ObsCtx`]; returns the sweep's pair tests and the
    /// engine.
    fn sweep_pair_tests(positions: Vec<Point2>, viewers: &[usize]) -> (u64, SceneEngine) {
        let n = positions.len();
        let mr_mask = (0..n).map(|i| i % 2 == 0).collect();
        let config = SceneConfig { body_radius: 0.25, mr_mask, room_diagonal: 15.0 };
        let mut engine = SceneEngine::new(n, config, viewers);
        let ctx = xr_obs::ObsCtx::new(true, false);
        let _g = ctx.install();
        engine.push(Frame::new(positions));
        (ctx.registry.snapshot().counter("session.sweep.pair_tests").unwrap(), engine)
    }

    #[test]
    fn a_user_inside_the_body_radius_costs_one_lap_not_all_pairs() {
        // a π-wide arc holds every other arc's start: it scans the lap for
        // itself (m − 1 tests, all hits) and leaves every other arc's scan
        // bounded by that arc's own span. A scan bounded by the widest arc
        // in the scene would test all m(m − 1)/2 pairs.
        let mut positions = random_positions(200, 10.0, 31);
        positions[1] = positions[0] + Point2::new(0.1, 0.15);
        let (pair_tests, engine) = sweep_pair_tests(positions, &[0]);
        let cs = engine.view(0, 0).candidates().unwrap();
        let (m, edges) = (cs.ids().len() as u64, cs.edges().len() as u64);
        assert_eq!(m, 199);
        assert!(pair_tests <= edges + (m - 1), "{pair_tests} pair tests for {edges} edges");
    }

    #[test]
    fn a_conference_frame_sweeps_a_pinned_number_of_pairs() {
        // the sweep's work is deterministic: a seeded 200-user, 8-viewer
        // frame (the conference room's shape) tests exactly this many pairs
        let viewers: Vec<usize> = (0..8).map(|v| 25 * v).collect();
        let (pair_tests, engine) = sweep_pair_tests(random_positions(200, 10.0, 17), &viewers);
        let edges: usize =
            viewers.iter().map(|&v| engine.view(v, 0).candidates().unwrap().edges().len()).sum();
        assert_eq!((pair_tests, edges), (12_623, 12_619));
    }

    #[test]
    #[should_panic(expected = "not materialized")]
    fn retired_distance_row_accessor_panics() {
        let mut engine = engine_for(6, 2, 0.25);
        engine.push(Frame::new(random_positions(6, 5.0, 8)));
        engine.view(0, 0).distances();
    }

    #[test]
    #[should_panic(expected = "not materialized")]
    fn retired_candidate_mask_accessor_panics() {
        let mut engine = engine_for(6, 2, 0.25);
        engine.push(Frame::new(random_positions(6, 5.0, 8)));
        engine.view(0, 0).candidate_mask();
    }

    #[test]
    fn toggling_prune_k_mid_session_rebuilds_cleanly() {
        // serving-K ⇄ complete switches leave nothing stale behind: every
        // tick matches an engine that ran its K throughout
        let n = 12;
        let frames = coherent_frames(n, 9, 5.0, 0.3, 0.1, 77);
        let k_at = |t: usize| if (t / 3).is_multiple_of(2) { 4 } else { 0 };
        let mut toggled = engine_for(n, 2, 0.25);
        let mut steady: Vec<SceneEngine> = [4, 0]
            .into_iter()
            .map(|k| {
                let mut engine = engine_for(n, 2, 0.25);
                engine.set_prune_k(k);
                engine
            })
            .collect();
        for (t, f) in frames.iter().enumerate() {
            toggled.set_prune_k(k_at(t));
            toggled.push(Frame::new(f.clone()));
            for engine in &mut steady {
                engine.push(Frame::new(f.clone()));
            }
        }
        for t in 0..frames.len() {
            let reference = &steady[usize::from(k_at(t) == 0)];
            assert_states_bitwise_equal(toggled.state(t), reference.state(t), &format!("t={t}"));
        }
    }

    #[test]
    fn an_empty_scene_pushes_without_panicking() {
        // n = 0 with no viewers: the brute-force pair count must not
        // underflow
        for prune_k in [0, 3] {
            let config = SceneConfig { body_radius: 0.2, mr_mask: Vec::new(), room_diagonal: 1.0 };
            let mut engine = SceneEngine::new(0, config, &[]);
            engine.set_prune_k(prune_k);
            assert_eq!(engine.push(Frame::new(vec![])), 0);
            assert_eq!(engine.push(Frame::new(vec![])), 1);
            assert!(engine.latest_state().unwrap().positions().is_empty());
        }
    }
}
