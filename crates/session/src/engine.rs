//! The frame-driven scene engine and its shared per-tick state.
//!
//! One [`SceneEngine::push`] call advances the whole scene by one tick:
//! every quantity that is common to all target users — pairwise distances,
//! the occlusion/visibility structure, the MR co-location candidate masks —
//! is computed once and stored in a [`SceneState`]; per-target code borrows
//! it through [`TargetView`] instead of recomputing it.
//!
//! ## Bit-identicality contract
//!
//! The engine is an *optimization layer*, not an approximation:
//!
//! * Distances: `d(i,j)` is measured once per unordered pair with
//!   [`Point2::distance`] and mirrored. `(p_i − p_j)` and `(p_j − p_i)` are
//!   exact IEEE negations, so squares, sum, and square root agree bit for
//!   bit with the brute-force per-target row `positions[v].distance(positions[w])`.
//! * Occlusion: per-viewer arcs come from the same
//!   [`OcclusionConverter::arcs`] call as the brute-force build; the angular
//!   sweep only *prunes pairs that cannot intersect* (forward gap beyond
//!   `half_width + max_half_width` plus a safety margin) and every surviving
//!   pair is decided by the exact [`ViewArc::intersects`] predicate. Edges
//!   are inserted in sorted `(min, max)` order — the same order the `i < j`
//!   brute-force loop produces — so the resulting [`UGraph`]s compare equal
//!   including adjacency-list order.
//! * Candidate masks re-derive the brute-force `physical_candidate_mask`
//!   semantics from the shared state: a candidate `w` of an MR viewer is
//!   pruned iff it has no arc (coincident, `d < 1e-9`) or some co-located MR
//!   participant's arc overlaps `w`'s while standing strictly nearer — and
//!   "overlaps" is exactly occlusion-graph adjacency, so no arc intersection
//!   is ever re-tested.
//!
//! ## Incremental O(Δ) maintenance
//!
//! By default the engine maintains the shared state *incrementally* across
//! ticks ([`SceneEngine::set_incremental`]`(false)` selects the from-scratch
//! build as the differential oracle; both paths are pinned
//! bitwise-identical by the `xr_check` `IncrementalVsFromScratch` subject):
//!
//! * Frames are first *snapped*: a user whose raw position moved at most
//!   [`SceneEngine::snap_epsilon`] from the previous effective position
//!   keeps the previous position exactly. Snapping is shared ingest
//!   semantics — the oracle path applies it too — so equality holds at any
//!   epsilon, and the default `0.0` makes it a numeric no-op.
//! * Distance rows are delta-updated: the previous matrix is copied and only
//!   rows of *moved* users (effective position changed bits) are
//!   re-measured, each unordered pair in `(min, max)` order so the
//!   measurement convention — and therefore every bit — matches the
//!   from-scratch mirrored build.
//! * Each viewer's center-sorted sweep candidate array stays warm across
//!   ticks. A stationary viewer re-derives arcs only for moved users, merges
//!   them into the sorted order, keeps every previous edge whose endpoints
//!   both stand still (identical arcs ⇒ the exact predicate verdict cannot
//!   change), and re-decides only pairs involving a moved arc with a
//!   bidirectional bounded scan (`reach = hw + max_hw + SWEEP_MARGIN`, the
//!   same conservative slack as the full sweep; when `2·reach ≥ τ` the arc
//!   is tested against everyone). Every surviving pair still goes through
//!   [`ViewArc::intersects`]. A viewer that moved at all — walked, was
//!   snapped onto a new anchor, or teleported — falls back to a full
//!   rebuild, which also re-warms its cache.
//! * Unchanged structure is carried forward by pointer: [`SceneState`]
//!   holds `Arc<UGraph>` per viewer, so a tick with *zero* movers clones the
//!   whole previous state in O(viewers + n²-memcpy), and a stationary
//!   viewer whose merged edge list equals the previous tick's reuses the
//!   previous graph outright (an equal sorted-unique edge list constructs
//!   an `Eq` graph, adjacency order included, so reuse is bitwise-invisible).
//! * Candidate masks are *patched*, not recomputed: a stationary viewer
//!   re-derives bits only for `affected` users (movers plus endpoints of
//!   every added or dropped edge); everyone else's bit inputs — own
//!   distance, neighbor set, neighbor distances — are unchanged, so the
//!   previous bit is carried verbatim.
//! * A low-coherence tick (more than half the users moved) skips the delta
//!   machinery and takes the from-scratch build: it would re-decide nearly
//!   everything anyway. The crossover is a pure cost heuristic — both
//!   builds are bit-identical, so it is invisible to readers and oracles.
//!
//! ## Crowd-scale pruned mode ([`SceneEngine::set_prune_k`])
//!
//! With [`SceneEngine::set_prune_k`]`(K > 0)` the engine
//! stops materializing dense per-tick structure entirely — no `n×n`
//! distance matrix, no `n`-node occlusion graphs, no `n`-length masks — and
//! instead builds one [`CandidateSet`] shortlist per registered viewer from
//! a per-tick two-level [`PruneIndex`]: the K nearest other users by
//! `(distance, id)`, with exact member distances, restricted occlusion
//! edges, and mask bits. Per-viewer work drops from O(N log N + pairs) to
//! O(K log K + restricted pairs), which is what admits venue-scale scenes
//! (N=10k–100k). The contract (see [`crate::prune`]): member-level
//! quantities are *bitwise equal* to the full path's — distances by the
//! IEEE argument above, edges because each shortlist pair is decided by the
//! same exact predicate, mask bits by the nearer-occluder closure of the
//! `(distance, id)` selection order — so `K ≥ N−1` reproduces the full path
//! bit for bit (pinned by the `xr_check` `PrunedVsFull` subject), and
//! `K = 0` (every new engine's setting) preserves the exact full-N behavior
//! as the differential oracle. Pruned states compose with the incremental
//! path: on a coherent tick a stationary viewer whose shortlist membership
//! and members all stood still carries its previous `Arc<CandidateSet>`
//! forward by pointer; [`SceneState::into_parts`] densifies a pruned state
//! on demand so batch consumers (context assembly, replay) stay
//! payload-agnostic.

use std::sync::Arc;

use crate::prune::{CandidateSet, PruneIndex};

use xr_datasets::Scenario;
use xr_graph::geom::Point2;
use xr_graph::{OcclusionConverter, UGraph, ViewArc};

/// Safety margin on the sweep's pruning bound: the forward gap and
/// `angle_diff` compute the same circular distance with different rounding,
/// so pairs within a few ULPs of the bound must still reach the exact
/// predicate. 1e-9 rad is ~10⁶ ULPs at this scale — vastly conservative and
/// still pruning everything that matters.
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

/// The per-tick structure a [`SceneState`] holds: dense full-scene state,
/// or per-viewer K-candidate shortlists when pruning is on.
#[derive(Debug, Clone)]
enum StatePayload {
    /// The full-N path: dense distance matrix plus per-slot occlusion
    /// graphs and masks.
    Full {
        /// Flat row-major `n×n` symmetric distance matrix.
        distances: Vec<f64>,
        /// Static occlusion graph per *registered viewer* (slot order).
        /// `Arc`-shared so the incremental path can carry an unchanged
        /// graph into the next tick's state for a pointer bump instead of
        /// an O(n + m) rebuild-or-clone; readers only ever see `&UGraph`.
        occlusion: Vec<Arc<UGraph>>,
        /// Hybrid-participation candidate mask per registered viewer.
        candidate_mask: Vec<Vec<bool>>,
    },
    /// The crowd-scale path (`prune_k > 0`): one shortlist per
    /// registered viewer, nothing dense. `Arc`-shared so the incremental
    /// path can carry an unchanged shortlist forward by pointer.
    Pruned {
        /// The effective shortlist size (already clamped to `n − 1`).
        k: usize,
        /// Per-slot candidate shortlists.
        shortlists: Vec<Arc<CandidateSet>>,
    },
}

/// Shared scene state for one tick: everything per-target code consults,
/// computed once for the whole scene. Owned by the [`SceneEngine`]; borrowed
/// read-only through [`TargetView`].
#[derive(Debug, Clone)]
pub struct SceneState {
    n: usize,
    /// Positions at this tick.
    positions: Vec<Point2>,
    payload: StatePayload,
}

impl SceneState {
    /// Positions of every participant at this tick.
    pub fn positions(&self) -> &[Point2] {
        &self.positions
    }

    /// Distance between users `i` and `j` (symmetric, bit-exact). In pruned
    /// mode the pair is re-measured from positions — [`Point2::distance`]
    /// is bit-identical either direction, so the value matches the dense
    /// matrix entry the full path would hold.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        match &self.payload {
            StatePayload::Full { distances, .. } => distances[i * self.n + j],
            StatePayload::Pruned { .. } => {
                if i == j {
                    0.0
                } else {
                    let (a, b) = (i.min(j), i.max(j));
                    self.positions[a].distance(self.positions[b])
                }
            }
        }
    }

    /// The full distance row of user `v` (length `n`, `0.0` at `v`).
    ///
    /// # Panics
    ///
    /// Panics in pruned mode (`prune_k > 0`): dense rows are never
    /// materialized there — read [`SceneState::candidates`] (member
    /// distances) or [`SceneState::distance`] (a single exact pair).
    pub fn distance_row(&self, v: usize) -> &[f64] {
        match &self.payload {
            StatePayload::Full { distances, .. } => &distances[v * self.n..(v + 1) * self.n],
            StatePayload::Pruned { .. } => {
                panic!("dense distance rows are not materialized in pruned mode (prune_k > 0)")
            }
        }
    }

    /// Whether this state holds pruned per-viewer shortlists instead of
    /// dense full-scene structure.
    pub fn is_pruned(&self) -> bool {
        matches!(self.payload, StatePayload::Pruned { .. })
    }

    /// The effective shortlist size of a pruned state (0 in full mode).
    pub fn prune_k(&self) -> usize {
        match &self.payload {
            StatePayload::Full { .. } => 0,
            StatePayload::Pruned { k, .. } => *k,
        }
    }

    /// The candidate shortlist of the viewer in `slot` (slot order = the
    /// engine's registered-viewer order); `None` in full mode.
    pub fn candidates(&self, slot: usize) -> Option<&CandidateSet> {
        match &self.payload {
            StatePayload::Full { .. } => None,
            StatePayload::Pruned { shortlists, .. } => Some(&shortlists[slot]),
        }
    }

    /// Tears the state into its owned parts — positions, the flat `n×n`
    /// distance matrix, and the per-slot occlusion graphs and candidate
    /// masks (slot order = the engine's registered-viewer order). Lets batch
    /// consumers take ownership of the heavy per-viewer structures instead
    /// of cloning them.
    ///
    /// A pruned state is *densified* here — the single materialization
    /// point that keeps batch consumers payload-agnostic: the distance
    /// matrix is re-measured (bit-identical by the IEEE argument), each
    /// shortlist's restricted edges become an `n`-node [`UGraph`], and the
    /// dense mask carries each member's bit with every non-member `false`.
    /// At a complete shortlist (`K ≥ n−1`) the result is bitwise equal to
    /// the full path's parts; at serving K the mask *is* the candidate-set
    /// contract — users outside the shortlist are not candidates.
    pub fn into_parts(self) -> (Vec<Point2>, Vec<f64>, Vec<UGraph>, Vec<Vec<bool>>) {
        let n = self.n;
        match self.payload {
            StatePayload::Full { distances, occlusion, candidate_mask } => {
                let occlusion = occlusion
                    .into_iter()
                    // a graph still shared with a retained neighbor tick
                    // (the incremental path reuses unchanged graphs by
                    // pointer) has to be cloned out; a uniquely held one is
                    // moved for free
                    .map(|g| Arc::try_unwrap(g).unwrap_or_else(|shared| (*shared).clone()))
                    .collect();
                (self.positions, distances, occlusion, candidate_mask)
            }
            StatePayload::Pruned { shortlists, .. } => {
                let distances = pairwise_distances(&self.positions);
                let mut occlusion = Vec::with_capacity(shortlists.len());
                let mut masks = Vec::with_capacity(shortlists.len());
                for cs in &shortlists {
                    let edges: Vec<(usize, usize)> =
                        cs.edges().iter().map(|&(a, b)| (a as usize, b as usize)).collect();
                    occlusion.push(UGraph::from_sorted_unique_edges(n, edges));
                    let mut dense = vec![false; n];
                    for (idx, &id) in cs.ids().iter().enumerate() {
                        dense[id as usize] = cs.mask()[idx];
                    }
                    masks.push(dense);
                }
                (self.positions, distances, occlusion, masks)
            }
        }
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

    /// The viewer's distance row.
    ///
    /// # Panics
    ///
    /// Panics in pruned mode — read [`TargetView::candidates`] instead.
    pub fn distances(&self) -> &'a [f64] {
        self.state.distance_row(self.viewer)
    }

    /// The viewer's static occlusion graph `O_t^v`.
    ///
    /// # Panics
    ///
    /// Panics in pruned mode — read [`TargetView::candidates`] instead.
    pub fn occlusion(&self) -> &'a UGraph {
        match &self.state.payload {
            StatePayload::Full { occlusion, .. } => &occlusion[self.slot],
            StatePayload::Pruned { .. } => {
                panic!("dense occlusion graphs are not materialized in pruned mode (prune_k > 0)")
            }
        }
    }

    /// The viewer's hybrid-participation candidate mask `m_t`.
    ///
    /// # Panics
    ///
    /// Panics in pruned mode — read [`TargetView::candidates`] instead.
    pub fn candidate_mask(&self) -> &'a [bool] {
        match &self.state.payload {
            StatePayload::Full { candidate_mask, .. } => &candidate_mask[self.slot],
            StatePayload::Pruned { .. } => {
                panic!("dense candidate masks are not materialized in pruned mode (prune_k > 0)")
            }
        }
    }

    /// The viewer's candidate shortlist; `None` in full mode.
    pub fn candidates(&self) -> Option<&'a CandidateSet> {
        self.state.candidates(self.slot)
    }

    /// Whether this view comes from a pruned state.
    pub fn is_pruned(&self) -> bool {
        self.state.is_pruned()
    }
}

/// One viewer's warm sweep state, carried across incremental ticks: the
/// center-sorted candidate array the full sweep would rebuild per tick.
#[derive(Debug, Clone, Default)]
struct WarmViewer {
    /// User ids sorted by the sweep key `(arc center, id)`.
    order: Vec<usize>,
    /// Arcs parallel to `order`.
    arcs: Vec<ViewArc>,
    /// Index of each user in `order`; `u32::MAX` when the user has no arc.
    pos: Vec<u32>,
}

/// An epoch-stamped sparse membership set over user ids, reused across
/// viewers and ticks without ever being cleared: `begin` bumps the epoch
/// (O(1) — stale stamps from earlier viewers become non-members for free),
/// `insert` stamps an id and records it, and consumers iterate the recorded
/// ids only. Replaces the per-viewer O(N) clear-and-resize bitset the mask
/// patcher used to rebuild on every churn tick.
#[derive(Debug, Clone, Default)]
struct AffectedSet {
    /// `stamps[i] == epoch` ⇔ user `i` is a member of the current set.
    stamps: Vec<u32>,
    epoch: u32,
    /// Members of the current set, insertion-ordered, duplicate-free.
    ids: Vec<usize>,
}

impl AffectedSet {
    /// Starts a fresh empty set over `n` users without touching old stamps.
    fn begin(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        self.ids.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // epoch wrapped: old stamps could alias the new epoch, so pay
            // one full clear every 2³² sets
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    fn insert(&mut self, i: usize) {
        if self.stamps[i] != self.epoch {
            self.stamps[i] = self.epoch;
            self.ids.push(i);
        }
    }

    /// Current members, insertion-ordered.
    fn ids(&self) -> &[usize] {
        &self.ids
    }
}

/// Reusable buffers for the incremental push path, kept on the engine so a
/// long-running room allocates per-tick structures once.
#[derive(Debug, Clone, Default)]
struct IncrScratch {
    moved_mask: Vec<bool>,
    moved_ids: Vec<usize>,
    /// Freshly derived arcs of moved users, sorted by the sweep key.
    incoming: Vec<(ViewArc, usize)>,
    order_buf: Vec<usize>,
    arcs_buf: Vec<ViewArc>,
    edges_new: Vec<(usize, usize)>,
    edges_merged: Vec<(usize, usize)>,
    /// Users whose candidate-mask entry must be re-derived for the current
    /// viewer: moved users plus endpoints of every changed (added or
    /// dropped) occlusion edge. Everyone else keeps the previous bit.
    affected: AffectedSet,
}

/// The streaming scene engine: feed it one [`Frame`] per tick, read shared
/// state back through [`SceneEngine::state`] / [`SceneEngine::view`].
///
/// Viewers (the target users whose occlusion structure is needed) are
/// registered up front so a single-target session does not pay for N
/// per-viewer graphs; the scene-wide distance matrix is maintained either
/// way and shared by all of them.
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
    /// Per-tick deadline tracking, when `AFTER_SLO_BUDGET_MS` (or
    /// [`SceneEngine::set_slo`]) configured a budget.
    slo: Option<xr_obs::SloTracker>,
    /// `false` pins the from-scratch oracle path.
    incremental: bool,
    /// Snap radius for the shared ingest semantics (`AFTER_SNAP_EPS`).
    snap_epsilon: f64,
    /// Shortlist size for the crowd-scale pruned mode; 0 (the default)
    /// keeps the exact full-N path.
    prune_k: usize,
    /// K-nearest query scratch for the pruned path.
    nearest_buf: Vec<(f64, u32)>,
    /// Warm sweep state per slot; meaningful only while `warm_tick` is the
    /// previous tick.
    warm: Vec<WarmViewer>,
    /// Tick the warm state describes, if any.
    warm_tick: Option<usize>,
    scratch: IncrScratch,
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
        let warm = vec![WarmViewer::default(); unique.len()];
        SceneEngine {
            converter,
            config,
            n,
            viewers: unique,
            slot_of,
            states: Vec::new(),
            base: 0,
            retain: None,
            slo: xr_obs::SloTracker::from_env("session.tick"),
            incremental: true,
            snap_epsilon: snap_epsilon_from_env(),
            prune_k: 0,
            nearest_buf: Vec::new(),
            warm,
            warm_tick: None,
            scratch: IncrScratch::default(),
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
    /// accumulate O(n²) state per tick forever; episode replay and training
    /// keep the full history.
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

    /// Installs (or clears) a per-tick deadline tracker, overriding the
    /// env-configured default.
    pub fn set_slo(&mut self, slo: Option<xr_obs::SloTracker>) {
        self.slo = slo;
    }

    /// The active deadline tracker, if any.
    pub fn slo(&self) -> Option<&xr_obs::SloTracker> {
        self.slo.as_ref()
    }

    /// Selects the maintenance path: `true` (every new engine's setting)
    /// maintains state incrementally across ticks, `false` rebuilds every
    /// tick from scratch (the differential oracle). Safe to
    /// toggle mid-session — switching invalidates the warm caches, so the
    /// next push rebuilds (and, when incremental, re-warms) from scratch.
    pub fn set_incremental(&mut self, on: bool) {
        if on != self.incremental {
            self.warm_tick = None;
        }
        self.incremental = on;
    }

    /// Whether the engine maintains state incrementally.
    pub fn incremental(&self) -> bool {
        self.incremental
    }

    /// Sets the ingest snap radius: a user whose raw position moved at most
    /// `eps` from the previous tick's effective position keeps the previous
    /// position exactly. Applied on *both* maintenance paths (shared ingest
    /// semantics), so any epsilon preserves the bitwise oracle equality; the
    /// default `0.0` makes snapping a numeric no-op.
    ///
    /// # Panics
    ///
    /// Panics when `eps` is negative or non-finite.
    pub fn set_snap_epsilon(&mut self, eps: f64) {
        assert!(eps.is_finite() && eps >= 0.0, "snap epsilon must be finite and non-negative");
        self.snap_epsilon = eps;
    }

    /// The active ingest snap radius.
    pub fn snap_epsilon(&self) -> f64 {
        self.snap_epsilon
    }

    /// Sets the crowd-scale shortlist size: `k > 0` makes every subsequent
    /// tick build per-viewer K-candidate shortlists instead of dense
    /// full-scene state, `0` (every new engine's setting) keeps the exact
    /// full-N path (the differential oracle). Safe to
    /// switch mid-session — changing the value invalidates the warm caches,
    /// so the next push rebuilds from scratch in the new mode.
    pub fn set_prune_k(&mut self, k: usize) {
        if k != self.prune_k {
            self.warm_tick = None;
        }
        self.prune_k = k;
    }

    /// The active shortlist size (0 = full-N mode).
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
        // Instant::now only when someone will read the measurement
        let tick_start = self.slo.as_ref().map(|_| std::time::Instant::now());
        assert_eq!(frame.positions.len(), self.n, "frame has wrong participant count");
        let mut positions = frame.positions;

        // shared ingest semantics: snap each user onto the previous tick's
        // effective position unless the raw position moved beyond
        // `snap_epsilon`, and record who (still) moved. Both maintenance
        // paths see the snapped positions, so oracle equality holds for any
        // epsilon.
        let mut moved_mask = std::mem::take(&mut self.scratch.moved_mask);
        let mut moved_ids = std::mem::take(&mut self.scratch.moved_ids);
        moved_mask.clear();
        moved_ids.clear();
        if let Some(prev) = self.states.last() {
            for (i, p) in positions.iter_mut().enumerate() {
                let q = prev.positions[i];
                if p.distance(q) <= self.snap_epsilon {
                    *p = q;
                }
                let moved = p.x.to_bits() != q.x.to_bits() || p.y.to_bits() != q.y.to_bits();
                moved_mask.push(moved);
                if moved {
                    moved_ids.push(i);
                }
            }
        } else {
            moved_mask.resize(self.n, true);
            moved_ids.extend(0..self.n);
        }

        // warm caches describe tick t−1 and the previous state is retained:
        // the delta path is exact. Anything else (first tick, a mid-session
        // path toggle) rebuilds from scratch, which also re-warms. A
        // low-coherence tick (most users moved — a teleport storm, a scene
        // reset) also takes the scratch build: the delta machinery would
        // re-decide nearly everything anyway and only add merge overhead.
        // Purely a cost heuristic — both builds are bit-identical, so the
        // crossover choice is invisible to every reader and to the oracle.
        let warm_valid = t > 0 && self.warm_tick == Some(t - 1) && !self.states.is_empty();
        let low_coherence = moved_ids.len() * 2 > self.n;
        let mut pair_tests = 0u64;
        let state = if self.prune_k > 0 {
            self.build_state_pruned(positions, &moved_mask, &moved_ids, warm_valid, &mut pair_tests)
        } else if self.incremental && warm_valid && !low_coherence {
            xr_obs::counter_add("session.incremental.ticks", &[], 1);
            xr_obs::counter_add("session.incremental.moved", &[], moved_ids.len() as u64);
            self.build_state_incremental(positions, &moved_mask, &moved_ids, &mut pair_tests)
        } else {
            self.build_state_scratch(positions, &mut pair_tests)
        };
        if self.incremental {
            self.warm_tick = Some(t);
        }
        self.scratch.moved_mask = moved_mask;
        self.scratch.moved_ids = moved_ids;

        // shared-state reuse telemetry: one tick serves every registered
        // viewer, and the sweep's exact-predicate evaluations replace
        // V·N(N−1)/2 brute-force tests
        xr_obs::counter_add("session.ticks", &[], 1);
        xr_obs::counter_add("session.views_served", &[], self.viewers.len() as u64);
        xr_obs::counter_add("session.sweep.pair_tests", &[], pair_tests);
        let brute = (self.viewers.len() as u64) * (self.n as u64) * (self.n as u64 - 1) / 2;
        xr_obs::counter_add("session.sweep.pair_tests_saved", &[], brute.saturating_sub(pair_tests));

        self.states.push(state);
        self.compact();
        if let (Some(slo), Some(start)) = (&mut self.slo, tick_start) {
            let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
            slo.record(t as u64, elapsed_ms);
            xr_obs::series_observe(
                "session.tick.ms",
                &[],
                t as u64 / slo.config().series_window_ticks,
                elapsed_ms,
            );
        }
        t
    }

    /// From-scratch tick build (the differential oracle). When the engine is
    /// in incremental mode this also re-warms every viewer's sweep cache so
    /// the next tick can take the delta path.
    fn build_state_scratch(&mut self, positions: Vec<Point2>, pair_tests: &mut u64) -> SceneState {
        let distances = pairwise_distances(&positions);
        let mut warm = std::mem::take(&mut self.warm);
        let mut occlusion = Vec::with_capacity(self.viewers.len());
        let mut candidate_mask = Vec::with_capacity(self.viewers.len());
        for (slot, &v) in self.viewers.iter().enumerate() {
            let arcs = self.converter.arcs(v, &positions);
            let graph = if self.incremental {
                warm_full_build(&arcs, &mut warm[slot], pair_tests)
            } else {
                sweep_occlusion_graph(&arcs, pair_tests)
            };
            let row = &distances[v * self.n..(v + 1) * self.n];
            let mask =
                candidate_mask_from_shared(v, self.config.mr_mask[v], row, &graph, &self.config.mr_mask);
            occlusion.push(Arc::new(graph));
            candidate_mask.push(mask);
        }
        self.warm = warm;
        SceneState {
            n: self.n,
            positions,
            payload: StatePayload::Full { distances, occlusion, candidate_mask },
        }
    }

    /// Crowd-scale tick build (`prune_k > 0`): one two-level spatial index
    /// over the frame, then one K-candidate shortlist per registered viewer
    /// — O(N) scene maintenance plus O(K log K + restricted pairs) per
    /// viewer, with no dense structure anywhere. Composes with the
    /// incremental path: when the previous tick is a retained pruned state
    /// of the same K, a stationary viewer whose shortlist membership and
    /// members all stood still carries its previous `Arc<CandidateSet>`
    /// forward by pointer (distances, edges, and mask bits are functions of
    /// bit-identical positions, so reuse is bitwise-invisible).
    fn build_state_pruned(
        &mut self,
        positions: Vec<Point2>,
        moved_mask: &[bool],
        moved_ids: &[usize],
        warm_valid: bool,
        pair_tests: &mut u64,
    ) -> SceneState {
        let n = self.n;
        let k = self.prune_k.min(n.saturating_sub(1));
        xr_obs::counter_add("session.prune.ticks", &[], 1);
        // Arc handles to the previous tick's shortlists, when they are
        // reusable (retained pruned state of the same K on the delta path)
        let prev_pruned: Option<Vec<Arc<CandidateSet>>> =
            self.states.last().filter(|_| warm_valid && self.incremental).and_then(|s| match &s.payload {
                StatePayload::Pruned { k: pk, shortlists } if *pk == k => Some(shortlists.clone()),
                _ => None,
            });

        // nothing moved: every shortlist is a pure function of bit-identical
        // positions — carry the whole tick forward by pointer
        if let Some(shortlists) = &prev_pruned {
            if moved_ids.is_empty() {
                let shortlists = shortlists.clone();
                xr_obs::counter_add("session.prune.shortlists_reused", &[], shortlists.len() as u64);
                return SceneState { n, positions, payload: StatePayload::Pruned { k, shortlists } };
            }
        }

        let index = PruneIndex::build(&positions);
        let mut nearest = std::mem::take(&mut self.nearest_buf);
        let mut shortlists = Vec::with_capacity(self.viewers.len());
        let mut reused = 0u64;
        for (slot, &v) in self.viewers.iter().enumerate() {
            index.nearest_k_into(&positions, v, k, &mut nearest);
            // members in ascending-id order, distances carried along
            nearest.sort_unstable_by_key(|&(_, w)| w);
            let prev_cs = prev_pruned.as_ref().map(|s| &s[slot]);
            // pointer reuse: viewer still, same membership, members still ⇒
            // every stored quantity is a function of unchanged positions
            let reusable = prev_cs.is_some_and(|cs| {
                !moved_mask[v]
                    && cs.ids().len() == nearest.len()
                    && cs.ids().iter().zip(nearest.iter()).all(|(&a, &(_, b))| a == b)
                    && nearest.iter().all(|&(_, w)| !moved_mask[w as usize])
            });
            if reusable {
                shortlists.push(Arc::clone(prev_cs.unwrap()));
                reused += 1;
                continue;
            }
            let cs = build_candidate_set(
                v,
                k,
                &positions,
                &self.converter,
                &self.config.mr_mask,
                &nearest,
                pair_tests,
            );
            shortlists.push(Arc::new(cs));
        }
        xr_obs::counter_add("session.prune.shortlists_reused", &[], reused);
        nearest.clear();
        self.nearest_buf = nearest;
        SceneState { n, positions, payload: StatePayload::Pruned { k, shortlists } }
    }

    /// Incremental tick build: O(Δ) in the number of moved users. Distances
    /// are delta-updated row-wise; each stationary viewer's occlusion graph
    /// is patched through its warm sweep cache; a moved viewer falls back to
    /// a full (re-warming) rebuild. Bitwise-identical to
    /// [`SceneEngine::build_state_scratch`] by construction — see the module
    /// docs for the argument.
    fn build_state_incremental(
        &mut self,
        positions: Vec<Point2>,
        moved_mask: &[bool],
        moved_ids: &[usize],
        pair_tests: &mut u64,
    ) -> SceneState {
        let n = self.n;
        let mut warm = std::mem::take(&mut self.warm);
        let mut scratch = std::mem::take(&mut self.scratch);
        let prev = self.states.last().expect("incremental push needs a retained previous state");
        let (prev_distances, prev_occlusion, prev_mask) = match &prev.payload {
            StatePayload::Full { distances, occlusion, candidate_mask } => {
                (distances, occlusion, candidate_mask)
            }
            // switching out of pruned mode invalidates `warm_tick`, so the
            // delta path can never land on a pruned predecessor
            StatePayload::Pruned { .. } => {
                unreachable!("the incremental full path never follows a pruned state")
            }
        };

        // nothing moved (every position snapped or stood still): the whole
        // previous state is bit-identical, and the warm caches stay valid
        if moved_ids.is_empty() {
            let state = SceneState {
                n,
                positions,
                payload: StatePayload::Full {
                    distances: prev_distances.clone(),
                    occlusion: prev_occlusion.clone(),
                    candidate_mask: prev_mask.clone(),
                },
            };
            self.warm = warm;
            self.scratch = scratch;
            return state;
        }

        // stationary pairs keep their previous (bit-identical) distance;
        // moved rows re-measure each unordered pair in (min, max) endpoint
        // order — the from-scratch convention — and mirror
        let mut distances = prev_distances.clone();
        for &i in moved_ids {
            for j in 0..n {
                if j != i {
                    let (a, b) = (i.min(j), i.max(j));
                    let v = positions[a].distance(positions[b]);
                    distances[i * n + j] = v;
                    distances[j * n + i] = v;
                }
            }
        }

        let mut occlusion = Vec::with_capacity(self.viewers.len());
        let mut candidate_mask = Vec::with_capacity(self.viewers.len());
        let mut rebuilt = 0u64;
        for (slot, &v) in self.viewers.iter().enumerate() {
            let row_range = v * n..(v + 1) * n;
            let (graph, mask) = if moved_mask[v] {
                // the viewer's own anchor moved: every arc it sees changed
                rebuilt += 1;
                let arcs = self.converter.arcs(v, &positions);
                let graph = warm_full_build(&arcs, &mut warm[slot], pair_tests);
                let mask = candidate_mask_from_shared(
                    v,
                    self.config.mr_mask[v],
                    &distances[row_range],
                    &graph,
                    &self.config.mr_mask,
                );
                (Arc::new(graph), mask)
            } else {
                // `None`: the merged edge set came out identical to the
                // previous tick's, so the previous graph is carried forward
                // by pointer (it compares `Eq` by construction)
                let graph = match warm_delta_update(
                    v,
                    &positions,
                    &self.converter,
                    &prev_occlusion[slot],
                    &mut warm[slot],
                    moved_mask,
                    moved_ids,
                    &mut scratch,
                    pair_tests,
                ) {
                    Some(g) => Arc::new(g),
                    None => Arc::clone(&prev_occlusion[slot]),
                };
                // `warm_delta_update` left the viewer's affected set in
                // `scratch.affected`; everyone outside it keeps the
                // previous mask bit verbatim
                let mask = mask_delta_update(
                    &prev_mask[slot],
                    v,
                    self.config.mr_mask[v],
                    &distances[row_range],
                    &graph,
                    &self.config.mr_mask,
                    &scratch.affected,
                );
                (graph, mask)
            };
            occlusion.push(graph);
            candidate_mask.push(mask);
        }
        xr_obs::counter_add("session.incremental.viewers_rebuilt", &[], rebuilt);
        self.warm = warm;
        self.scratch = scratch;
        SceneState { n, positions, payload: StatePayload::Full { distances, occlusion, candidate_mask } }
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
    /// compacted history). Use [`SceneState::into_parts`] to take ownership
    /// of the per-slot structures without a copy.
    pub fn into_states(self) -> Vec<SceneState> {
        self.states
    }
}

/// Flat row-major symmetric distance matrix: each unordered pair is measured
/// once and mirrored (bit-exact — see the module docs).
fn pairwise_distances(positions: &[Point2]) -> Vec<f64> {
    let n = positions.len();
    let mut d = vec![0.0; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let v = positions[i].distance(positions[j]);
            d[i * n + j] = v;
            d[j * n + i] = v;
        }
    }
    d
}

/// Builds one viewer's static occlusion graph from its arcs with an angular
/// sweep: arcs sorted by center, each compared only against arcs within
/// `half_width + max_half_width` forward gap. Candidate pairs are decided by
/// the exact [`ViewArc::intersects`] predicate and inserted in sorted order,
/// reproducing the brute-force graph structurally.
fn sweep_occlusion_graph(arcs: &[Option<ViewArc>], pair_tests: &mut u64) -> UGraph {
    let mut order = Vec::new();
    let mut sorted = Vec::new();
    sorted_arc_order(arcs, &mut order, &mut sorted);
    sweep_edges_from_sorted(arcs.len(), &order, &sorted, pair_tests)
}

/// Fills `order` with the ids of users that have an arc, sorted by the sweep
/// key `(center, id)`, and `sorted` with their arcs in the same order —
/// compact arrays so the hot loop never touches the Option-boxed arc slice.
fn sorted_arc_order(arcs: &[Option<ViewArc>], order: &mut Vec<usize>, sorted: &mut Vec<ViewArc>) {
    order.clear();
    order.extend((0..arcs.len()).filter(|&w| arcs[w].is_some()));
    order.sort_by(|&a, &b| arcs[a].unwrap().center.total_cmp(&arcs[b].unwrap().center).then(a.cmp(&b)));
    sorted.clear();
    sorted.extend(order.iter().map(|&w| arcs[w].unwrap()));
}

/// The sweep proper, over a pre-sorted arc array (see
/// [`sweep_occlusion_graph`] for the semantics and pruning argument).
fn sweep_edges_from_sorted(n: usize, order: &[usize], sorted: &[ViewArc], pair_tests: &mut u64) -> UGraph {
    UGraph::from_sorted_unique_edges(n, sweep_edge_list(order, sorted, pair_tests))
}

/// The sweep's edge enumeration, shared by the graph builder above and the
/// pruned path's restricted sweep (which runs it over shortlist-local
/// indices): sorted unique `(min, max)` pairs, every one decided by the
/// exact predicate.
fn sweep_edge_list(order: &[usize], sorted: &[ViewArc], pair_tests: &mut u64) -> Vec<(usize, usize)> {
    let m = order.len();
    if m < 2 {
        return Vec::new();
    }
    let max_half_width = sorted.iter().map(|a| a.half_width).fold(f64::NEG_INFINITY, f64::max);

    let mut edges: Vec<(usize, usize)> = Vec::new();
    for s in 0..m {
        let i = order[s];
        let ai = sorted[s];
        // beyond this forward gap no arc can reach back to `ai`; forward
        // gaps are nondecreasing along the sorted lap, so the first
        // out-of-reach arc ends the scan — pairs whose shorter gap runs the
        // other way are found from the partner's own forward scan
        let reach = ai.half_width + max_half_width + SWEEP_MARGIN;
        let mut wrap = true;
        for sj in (s + 1)..m {
            let gap = sorted[sj].center - ai.center; // ≥ 0: sorted
            if gap > reach {
                wrap = false;
                break;
            }
            *pair_tests += 1;
            if ai.intersects(&sorted[sj]) {
                let j = order[sj];
                edges.push((i.min(j), i.max(j)));
            }
        }
        if wrap {
            // wrapped portion of the lap; gaps stay nondecreasing across it
            for sj in 0..s {
                let gap = sorted[sj].center - ai.center + std::f64::consts::TAU;
                if gap > reach {
                    break;
                }
                *pair_tests += 1;
                if ai.intersects(&sorted[sj]) {
                    let j = order[sj];
                    edges.push((i.min(j), i.max(j)));
                }
            }
        }
    }
    // each intersecting pair can be reached from both endpoints' forward
    // scans; sorted dedup reproduces the brute-force i<j insertion order
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Builds one viewer's [`CandidateSet`] over its K-nearest members
/// (`members` = `(distance, id)` pairs in ascending-id order): arcs are
/// re-derived per member with the same converter call as the full path, the
/// restricted occlusion edges come from the same angular sweep over
/// shortlist-local indices, and mask bits apply the `mask_entry` rule over
/// those edges. The `(distance, id)` selection order makes every strictly
/// nearer user of a member also a member (nearer-occluder closure), so the
/// member bits are bitwise equal to the full-scene mask.
fn build_candidate_set(
    viewer: usize,
    k: usize,
    positions: &[Point2],
    converter: &OcclusionConverter,
    mr_mask: &[bool],
    members: &[(f64, u32)],
    pair_tests: &mut u64,
) -> CandidateSet {
    let len = members.len();
    let ids: Vec<u32> = members.iter().map(|&(_, w)| w).collect();
    let dists: Vec<f64> = members.iter().map(|&(d, _)| d).collect();

    // restricted sweep over local member indices: the edge set it yields is
    // the full edge set ∩ members×members, because each surviving pair is
    // decided by the exact predicate and the pruning bound stays
    // conservative on any subset (a subset's max_half_width only shrinks)
    let arcs: Vec<Option<ViewArc>> =
        ids.iter().map(|&w| converter.arc(positions[viewer], positions[w as usize])).collect();
    let mut order = Vec::new();
    let mut sorted = Vec::new();
    sorted_arc_order(&arcs, &mut order, &mut sorted);
    let local_edges = sweep_edge_list(&order, &sorted, pair_tests);

    let mut mask = vec![true; len];
    if mr_mask[viewer] {
        // the `mask_entry` rule restricted to members: coincident users are
        // pruned, and a strictly nearer MR member in an overlapping arc
        // prunes its partner (the viewer itself is never a member, so the
        // `u != viewer` guard is implicit)
        for idx in 0..len {
            if dists[idx] < 1e-9 {
                mask[idx] = false;
            }
        }
        for &(a, b) in &local_edges {
            if mr_mask[ids[a] as usize] && dists[a] < dists[b] {
                mask[b] = false;
            }
            if mr_mask[ids[b] as usize] && dists[b] < dists[a] {
                mask[a] = false;
            }
        }
    }

    // ascending local indices map monotonically to ascending global ids, so
    // the sorted-unique property carries over
    let edges: Vec<(u32, u32)> = local_edges.into_iter().map(|(a, b)| (ids[a], ids[b])).collect();
    CandidateSet::new(viewer, k, ids, dists, mask, edges)
}

/// Full sweep that also (re)warms one viewer's cache with the sorted arc
/// arrays it builds anyway.
fn warm_full_build(arcs: &[Option<ViewArc>], warm: &mut WarmViewer, pair_tests: &mut u64) -> UGraph {
    let n = arcs.len();
    sorted_arc_order(arcs, &mut warm.order, &mut warm.arcs);
    warm.pos.clear();
    warm.pos.resize(n, u32::MAX);
    for (s, &w) in warm.order.iter().enumerate() {
        warm.pos[w] = s as u32;
    }
    sweep_edges_from_sorted(n, &warm.order, &warm.arcs, pair_tests)
}

/// Patches one *stationary* viewer's occlusion graph through its warm sweep
/// cache, O(moved · log + affected) instead of O(n log n + pairs):
///
/// 1. Arcs are re-derived only for moved users and merged into the
///    center-sorted order (kept entries and incoming entries are each sorted
///    by the sweep key, so the merge reproduces the full sort exactly).
/// 2. Previous edges whose endpoints both stand still are kept verbatim —
///    their arcs are bit-identical, so the exact predicate's verdict cannot
///    change. Their sorted stream merges with the freshly decided moved-pair
///    edges (disjoint sets) into the full build's insertion order.
/// 3. Each moved arc is re-tested against neighbors within the same
///    conservative `reach` the full sweep uses, scanning outward in both
///    directions with wrap-around; if the slack covers the whole circle the
///    arc is tested against everyone. Every surviving pair is decided by the
///    exact [`ViewArc::intersects`] predicate.
///
/// Returns `None` when the merged edge list is identical to `prev_graph`'s —
/// under bounded motion the common case — so the caller can carry the
/// previous graph forward by `Arc` pointer instead of paying the O(n + m)
/// allocation-heavy [`UGraph`] construction. `from_sorted_unique_edges` of
/// an equal edge list yields a graph that compares `Eq` (adjacency order
/// included), so pointer reuse is bitwise-invisible to every reader.
#[allow(clippy::too_many_arguments)]
fn warm_delta_update(
    viewer: usize,
    positions: &[Point2],
    converter: &OcclusionConverter,
    prev_graph: &UGraph,
    warm: &mut WarmViewer,
    moved_mask: &[bool],
    moved_ids: &[usize],
    scratch: &mut IncrScratch,
    pair_tests: &mut u64,
) -> Option<UGraph> {
    let n = positions.len();

    // who can change a candidate-mask bit for this viewer: moved users, plus
    // endpoints of every changed (added or dropped) edge — filled as the
    // delta is decided below and consumed by `mask_delta_update`. The
    // epoch-stamped set makes this O(|affected|) per viewer, not O(N).
    let affected = &mut scratch.affected;
    affected.begin(n);
    for &w in moved_ids {
        affected.insert(w);
    }

    let incoming = &mut scratch.incoming;
    incoming.clear();
    for &w in moved_ids {
        debug_assert_ne!(w, viewer, "a moved viewer takes the full-rebuild path");
        if let Some(arc) = converter.arc(positions[viewer], positions[w]) {
            incoming.push((arc, w));
        }
    }
    incoming.sort_by(|x, y| x.0.center.total_cmp(&y.0.center).then(x.1.cmp(&y.1)));

    let (order_buf, arcs_buf) = (&mut scratch.order_buf, &mut scratch.arcs_buf);
    order_buf.clear();
    arcs_buf.clear();
    {
        let mut old = warm.order.iter().zip(warm.arcs.iter()).filter(|&(&w, _)| !moved_mask[w]).peekable();
        let mut new = incoming.iter().peekable();
        loop {
            let take_old = match (old.peek(), new.peek()) {
                (Some(&(&wo, ao)), Some(&&(an, wn))) => {
                    ao.center.total_cmp(&an.center).then(wo.cmp(&wn)).is_lt()
                }
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_old {
                let (&w, &a) = old.next().unwrap();
                order_buf.push(w);
                arcs_buf.push(a);
            } else {
                let &(a, w) = new.next().unwrap();
                order_buf.push(w);
                arcs_buf.push(a);
            }
        }
    }
    std::mem::swap(&mut warm.order, order_buf);
    std::mem::swap(&mut warm.arcs, arcs_buf);
    warm.pos.clear();
    warm.pos.resize(n, u32::MAX);
    for (s, &w) in warm.order.iter().enumerate() {
        warm.pos[w] = s as u32;
    }

    let m = warm.order.len();
    let edges_new = &mut scratch.edges_new;
    edges_new.clear();
    if m >= 2 {
        let max_half_width = warm.arcs.iter().map(|a| a.half_width).fold(f64::NEG_INFINITY, f64::max);
        for &(aw, w) in incoming.iter() {
            let reach = aw.half_width + max_half_width + SWEEP_MARGIN;
            let s = warm.pos[w] as usize;
            if 2.0 * reach >= std::f64::consts::TAU {
                // an engulfing arc's slack covers the circle: the two
                // directional scans would overlap, so test everyone once
                for (sj, aj) in warm.arcs.iter().enumerate() {
                    if sj != s {
                        *pair_tests += 1;
                        if aw.intersects(aj) {
                            let u = warm.order[sj];
                            edges_new.push((w.min(u), w.max(u)));
                        }
                    }
                }
                continue;
            }
            // an intersecting partner sits within `reach` of `aw` on at
            // least one side (angle_diff is the min circular gap, and
            // intersection bounds it by hw_w + hw_u ≤ hw_w + max_hw); gaps
            // are nondecreasing along each directional lap, so scanning
            // until the first out-of-reach arc visits every candidate.
            // 2·reach < τ keeps the two laps disjoint (forward + backward
            // gap of a pair always sums to τ).
            let mut sj = s + 1;
            let mut lift = 0.0;
            loop {
                if sj == m {
                    if lift > 0.0 {
                        break;
                    }
                    sj = 0;
                    lift = std::f64::consts::TAU;
                    continue;
                }
                if lift > 0.0 && sj == s {
                    break;
                }
                if warm.arcs[sj].center - aw.center + lift > reach {
                    break;
                }
                *pair_tests += 1;
                if aw.intersects(&warm.arcs[sj]) {
                    let u = warm.order[sj];
                    edges_new.push((w.min(u), w.max(u)));
                }
                sj += 1;
            }
            let mut sj = s as isize - 1;
            let mut lift = 0.0;
            loop {
                if sj < 0 {
                    if lift > 0.0 {
                        break;
                    }
                    sj = m as isize - 1;
                    lift = std::f64::consts::TAU;
                    continue;
                }
                if lift > 0.0 && sj == s as isize {
                    break;
                }
                let aj = &warm.arcs[sj as usize];
                if aw.center - aj.center + lift > reach {
                    break;
                }
                *pair_tests += 1;
                if aw.intersects(aj) {
                    let u = warm.order[sj as usize];
                    edges_new.push((w.min(u), w.max(u)));
                }
                sj -= 1;
            }
        }
    }
    // a pair of two moved users is found from both endpoints' scans
    edges_new.sort_unstable();
    edges_new.dedup();
    for &(a, b) in edges_new.iter() {
        affected.insert(a);
        affected.insert(b);
    }
    // endpoints of dropped previous edges (any edge touching a mover was
    // discarded and re-decided; if it did not come back it changed)
    for (a, b) in prev_graph.edges() {
        if moved_mask[a] || moved_mask[b] {
            affected.insert(a);
            affected.insert(b);
        }
    }

    // retained (stationary-pair) edges and freshly decided moved-pair edges
    // are disjoint sorted runs; the merge is the full build's sorted order
    let merged = &mut scratch.edges_merged;
    merged.clear();
    let mut old = prev_graph.edges().filter(|&(a, b)| !moved_mask[a] && !moved_mask[b]).peekable();
    let mut new = edges_new.iter().copied().peekable();
    loop {
        match (old.peek(), new.peek()) {
            (Some(&eo), Some(&en)) => {
                if eo < en {
                    merged.push(eo);
                    old.next();
                } else {
                    merged.push(en);
                    new.next();
                }
            }
            (Some(&eo), None) => {
                merged.push(eo);
                old.next();
            }
            (None, Some(&en)) => {
                merged.push(en);
                new.next();
            }
            (None, None) => break,
        }
    }
    if merged.len() == prev_graph.edge_count() && merged.iter().copied().eq(prev_graph.edges()) {
        return None;
    }
    Some(UGraph::from_sorted_unique_edges(n, merged.clone()))
}

/// Snap epsilon from `AFTER_SNAP_EPS` (meters); unset, unparsable, negative,
/// or non-finite values fall back to `0.0` (snapping as a numeric no-op).
fn snap_epsilon_from_env() -> f64 {
    match std::env::var("AFTER_SNAP_EPS") {
        Ok(s) => match s.trim().parse::<f64>() {
            Ok(v) if v.is_finite() && v >= 0.0 => v,
            _ => 0.0,
        },
        Err(_) => 0.0,
    }
}

/// Candidate mask `m_t` for one viewer, derived from the shared state: the
/// legacy semantics (a physically present MR participant standing strictly
/// nearer in an overlapping arc prunes the candidate) with "overlapping arc"
/// read off the occlusion graph instead of re-tested.
fn candidate_mask_from_shared(
    viewer: usize,
    viewer_is_mr: bool,
    distances: &[f64],
    occlusion: &UGraph,
    mr_mask: &[bool],
) -> Vec<bool> {
    let n = distances.len();
    let mut mask = vec![true; n];
    mask[viewer] = false; // the target never recommends herself
    if !viewer_is_mr {
        return mask;
    }
    #[allow(clippy::needless_range_loop)] // w is a user id, not a position
    for w in 0..n {
        if w != viewer {
            mask[w] = mask_entry(viewer, distances, occlusion, mr_mask, w);
        }
    }
    mask
}

/// One candidate-mask bit: whether user `w` survives the MR-viewer pruning
/// rule. The single source of truth shared by the from-scratch mask build
/// and the incremental patcher.
fn mask_entry(viewer: usize, distances: &[f64], occlusion: &UGraph, mr_mask: &[bool], w: usize) -> bool {
    // no arc: coincident with the viewer (same 1e-9 cutoff as `arc()`)
    if distances[w] < 1e-9 {
        return false;
    }
    !occlusion.neighbors(w).iter().any(|&u| u != viewer && mr_mask[u] && distances[u] < distances[w])
}

/// Patches a stationary viewer's candidate mask in O(|affected|) bit
/// re-derivations. A user's bit depends only on its own distance to the
/// viewer, its occlusion neighbors, and those neighbors' distances — all
/// bit-identical to the previous tick unless the user moved or one of its
/// incident occlusion edges changed, which is exactly the `affected` set
/// `warm_delta_update` leaves behind.
fn mask_delta_update(
    prev_mask: &[bool],
    viewer: usize,
    viewer_is_mr: bool,
    distances: &[f64],
    occlusion: &UGraph,
    mr_mask: &[bool],
    affected: &AffectedSet,
) -> Vec<bool> {
    let mut mask = prev_mask.to_vec();
    if !viewer_is_mr {
        // non-MR viewers have a tick-invariant mask (all true bar themselves)
        return mask;
    }
    // iterate the recorded affected ids only — O(|affected|), not O(N)
    for &w in affected.ids() {
        if w != viewer {
            mask[w] = mask_entry(viewer, distances, occlusion, mr_mask, w);
        }
    }
    mask
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

    #[test]
    fn slo_tracker_counts_every_tick_over_a_zero_budget() {
        // a (near-)zero budget makes every real tick a deadline miss — the
        // engine-level injected-breach case without sleeping
        let ctx = xr_obs::ObsCtx::new(true, false);
        let _g = ctx.install();
        let mut engine = engine_for(12, 2, 0.25);
        engine.set_slo(Some(xr_obs::SloTracker::new("session.tick", xr_obs::SloConfig::new(1e-9), &[])));
        for t in 0..5u64 {
            engine.push(Frame::new(random_positions(12, 8.0, t)));
        }
        let slo = engine.slo().unwrap();
        assert_eq!(slo.ticks(), 5);
        assert_eq!(slo.misses(), 5, "every tick must overrun a 1ns budget");
        let snap = ctx.registry.snapshot();
        assert_eq!(snap.counter("slo.session.tick.deadline_miss"), Some(5));
        // the windowed latency series recorded under the engine's window
        let series = xr_obs::series_snapshot().unwrap();
        assert!(series.series("session.tick.ms").is_some());
    }

    #[test]
    fn slo_tracker_stays_silent_under_a_huge_budget() {
        let ctx = xr_obs::ObsCtx::new(true, false);
        let _g = ctx.install();
        let mut engine = engine_for(12, 2, 0.25);
        engine.set_slo(Some(xr_obs::SloTracker::new("session.tick", xr_obs::SloConfig::new(1e9), &[])));
        for t in 0..5u64 {
            engine.push(Frame::new(random_positions(12, 8.0, t)));
        }
        assert_eq!(engine.slo().unwrap().misses(), 0);
        let snap = ctx.registry.snapshot();
        assert_eq!(snap.counter("slo.session.tick.deadline_miss"), None);
        assert_eq!(snap.counter("slo.session.tick.ticks"), Some(5));
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
    fn distances_match_legacy_rows_bit_for_bit() {
        let n = 24;
        let mut engine = engine_for(n, 2, 0.25);
        let positions = random_positions(n, 8.0, 7);
        engine.push(Frame::new(positions.clone()));
        let state = engine.state(0);
        for v in 0..n {
            let row = state.distance_row(v);
            for w in 0..n {
                let legacy = positions[v].distance(positions[w]);
                assert_eq!(row[w].to_bits(), legacy.to_bits(), "d({v},{w})");
            }
        }
    }

    #[test]
    fn sweep_graph_equals_brute_force_including_adjacency_order() {
        // structural equality (UGraph derives PartialEq over the adjacency
        // Vec) is stronger than edge-set equality: downstream CSR builds and
        // degree iterations must see the identical object
        let conv = OcclusionConverter::new(0.3);
        for seed in 0..30u64 {
            let n = 3 + (seed as usize % 22);
            let positions = random_positions(n, 4.0, seed);
            for viewer in [0, n / 2, n - 1] {
                let arcs = conv.arcs(viewer, &positions);
                let mut tests = 0;
                let swept = sweep_occlusion_graph(&arcs, &mut tests);
                let brute = conv.static_graph(viewer, &positions);
                assert_eq!(swept, brute, "seed {seed}, viewer {viewer}");
            }
        }
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
        let arcs = conv.arcs(0, &positions);
        let mut tests = 0;
        assert_eq!(sweep_occlusion_graph(&arcs, &mut tests), conv.static_graph(0, &positions));
    }

    #[test]
    fn candidate_mask_matches_arc_level_definition() {
        // re-derive the mask the legacy way (arc scan) and compare
        let n = 20;
        let conv = OcclusionConverter::new(0.3);
        let mr_mask: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        for seed in 0..20u64 {
            let positions = random_positions(n, 4.0, 100 + seed);
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
                let mut tests = 0;
                let graph = sweep_occlusion_graph(&arcs, &mut tests);
                let distances: Vec<f64> = (0..n).map(|w| positions[viewer].distance(positions[w])).collect();
                let mask = candidate_mask_from_shared(viewer, mr_mask[viewer], &distances, &graph, &mr_mask);
                assert_eq!(mask, expected, "seed {seed}, viewer {viewer}");
            }
        }
    }

    #[test]
    fn incremental_pushes_match_from_scratch_rebuild() {
        // pushing frames one at a time must leave exactly the state a fresh
        // engine fed the same frames produces — the engine has no hidden
        // cross-tick coupling to drift on
        let n = 16;
        let frames: Vec<Vec<Point2>> = (0..6).map(|t| random_positions(n, 6.0, 40 + t)).collect();
        let mut incremental = engine_for(n, 3, 0.25);
        for f in &frames {
            incremental.push(Frame::new(f.clone()));
        }
        for t in 0..frames.len() {
            let mut fresh = engine_for(n, 3, 0.25);
            for f in &frames[..=t] {
                fresh.push(Frame::new(f.clone()));
            }
            assert_states_bitwise_equal(incremental.state(t), fresh.state(t), &format!("t={t}"));
        }
    }

    /// The dense parts of a full-mode state (tests only ever unpack full
    /// states through this; pruned states have their own assertions).
    fn full_parts(s: &SceneState) -> (&Vec<f64>, &Vec<Arc<UGraph>>, &Vec<Vec<bool>>) {
        match &s.payload {
            StatePayload::Full { distances, occlusion, candidate_mask } => {
                (distances, occlusion, candidate_mask)
            }
            StatePayload::Pruned { .. } => panic!("expected a full-mode state"),
        }
    }

    /// Bounded random walk with teleports: the workload the incremental path
    /// exists for. `mover_frac` of the users take a small step each tick,
    /// teleports land anywhere in the room.
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

    fn assert_states_bitwise_equal(a: &SceneState, b: &SceneState, ctx: &str) {
        assert_eq!(a.positions, b.positions, "{ctx}: positions");
        let (ad, ao, am) = full_parts(a);
        let (bd, bo, bm) = full_parts(b);
        let da: Vec<u64> = ad.iter().map(|d| d.to_bits()).collect();
        let db: Vec<u64> = bd.iter().map(|d| d.to_bits()).collect();
        assert_eq!(da, db, "{ctx}: distance bits");
        assert_eq!(ao, bo, "{ctx}: occlusion (UGraph Eq)");
        assert_eq!(am, bm, "{ctx}: candidate masks");
    }

    #[test]
    fn incremental_path_is_bitwise_identical_to_from_scratch() {
        for seed in 0..8u64 {
            let n = 10 + (seed as usize % 15);
            let frames = coherent_frames(n, 12, 6.0, 0.3, 0.05, 900 + seed);
            let mut inc = engine_for(n, 3, 0.25);
            inc.set_incremental(true);
            let mut scratch = engine_for(n, 3, 0.25);
            scratch.set_incremental(false);
            for f in &frames {
                inc.push(Frame::new(f.clone()));
                scratch.push(Frame::new(f.clone()));
            }
            for t in 0..frames.len() {
                assert_states_bitwise_equal(inc.state(t), scratch.state(t), &format!("seed {seed}, t={t}"));
            }
        }
    }

    #[test]
    fn incremental_path_handles_fully_static_and_fully_teleporting_frames() {
        let n = 14;
        // frame 1 repeats frame 0 exactly (everyone stationary), frame 2
        // teleports everyone, frame 3 repeats frame 2
        let f0 = random_positions(n, 5.0, 77);
        let f2 = random_positions(n, 5.0, 78);
        let frames = vec![f0.clone(), f0, f2.clone(), f2];
        let mut inc = engine_for(n, 2, 0.25);
        inc.set_incremental(true);
        let mut scratch = engine_for(n, 2, 0.25);
        scratch.set_incremental(false);
        for f in &frames {
            inc.push(Frame::new(f.clone()));
            scratch.push(Frame::new(f.clone()));
        }
        for t in 0..frames.len() {
            assert_states_bitwise_equal(inc.state(t), scratch.state(t), &format!("t={t}"));
        }
    }

    #[test]
    fn incremental_with_retention_one_still_matches_the_oracle() {
        // retention=1 compacts everything but the newest state right after
        // each push — the previous-state lookup must still see tick t−1
        let n = 12;
        let frames = coherent_frames(n, 10, 6.0, 0.4, 0.1, 55);
        let mut inc = engine_for(n, 2, 0.25);
        inc.set_incremental(true);
        inc.set_state_retention(Some(1));
        let mut scratch = engine_for(n, 2, 0.25);
        scratch.set_incremental(false);
        for f in &frames {
            inc.push(Frame::new(f.clone()));
            scratch.push(Frame::new(f.clone()));
        }
        let last = frames.len() - 1;
        assert_eq!(inc.first_retained_tick(), last);
        assert_states_bitwise_equal(inc.state(last), scratch.state(last), "retention=1 final tick");
    }

    #[test]
    fn toggling_incremental_mid_session_rebuilds_cleanly() {
        let n = 12;
        let frames = coherent_frames(n, 9, 6.0, 0.4, 0.1, 66);
        let mut toggled = engine_for(n, 2, 0.25);
        let mut scratch = engine_for(n, 2, 0.25);
        scratch.set_incremental(false);
        for (t, f) in frames.iter().enumerate() {
            // flip the path every third tick: stale warm caches must never
            // leak across the switch
            toggled.set_incremental((t / 3) % 2 == 0);
            toggled.push(Frame::new(f.clone()));
            scratch.push(Frame::new(f.clone()));
        }
        for t in 0..frames.len() {
            assert_states_bitwise_equal(toggled.state(t), scratch.state(t), &format!("t={t}"));
        }
    }

    #[test]
    fn snap_epsilon_is_shared_ingest_semantics_on_both_paths() {
        // with a positive epsilon, sub-epsilon jitter snaps to the previous
        // effective position on BOTH paths — and the paths agree bitwise
        let n = 10;
        let mut rng = StdRng::seed_from_u64(99);
        let base = random_positions(n, 5.0, 99);
        let mut frames = vec![base.clone()];
        for _ in 1..8 {
            let prev = frames.last().unwrap().clone();
            let jittered: Vec<Point2> = prev
                .iter()
                .map(|p| Point2::new(p.x + rng.gen_range(-1e-4..1e-4), p.y + rng.gen_range(-1e-4..1e-4)))
                .collect();
            frames.push(jittered);
        }
        let mut inc = engine_for(n, 2, 0.25);
        inc.set_incremental(true);
        inc.set_snap_epsilon(1e-3);
        let mut scratch = engine_for(n, 2, 0.25);
        scratch.set_incremental(false);
        scratch.set_snap_epsilon(1e-3);
        for f in &frames {
            inc.push(Frame::new(f.clone()));
            scratch.push(Frame::new(f.clone()));
        }
        for t in 0..frames.len() {
            assert_states_bitwise_equal(inc.state(t), scratch.state(t), &format!("t={t}"));
            // jitter stays under the snap radius: everyone holds position
            assert_eq!(inc.state(t).positions(), inc.state(0).positions(), "t={t}: snapped still");
        }
        // zero epsilon leaves raw positions untouched (numeric no-op)
        let mut raw = engine_for(n, 2, 0.25);
        raw.push(Frame::new(frames[0].clone()));
        raw.push(Frame::new(frames[1].clone()));
        assert_eq!(raw.state(1).positions(), &frames[1][..]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_snap_epsilon_panics() {
        engine_for(4, 2, 0.25).set_snap_epsilon(-1.0);
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
            assert_eq!(full_parts(bounded.state(t)).0, full_parts(unbounded.state(t)).0, "t={t}");
            assert_eq!(bounded.view(0, t).candidate_mask(), unbounded.view(0, t).candidate_mask());
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
        assert_eq!(view.distances().len(), n);
        assert_eq!(view.candidate_mask().iter().filter(|&&b| !b).count(), 1);
        assert_eq!(view.occlusion().node_count(), n);
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
    fn pruned_at_full_k_densifies_bitwise_identical_to_the_full_path() {
        // K ≥ n−1 makes every shortlist complete, so into_parts of the
        // pruned state must reproduce the full path's parts bit for bit —
        // the heart of the full-N oracle contract
        for seed in 0..6u64 {
            let n = 8 + (seed as usize % 10);
            let frames = coherent_frames(n, 6, 5.0, 0.4, 0.1, 500 + seed);
            let mut full = engine_for(n, 2, 0.25);
            full.set_prune_k(0);
            let mut pruned = engine_for(n, 2, 0.25);
            pruned.set_prune_k(n - 1);
            for f in &frames {
                full.push(Frame::new(f.clone()));
                pruned.push(Frame::new(f.clone()));
            }
            for t in 0..frames.len() {
                assert!(pruned.state(t).is_pruned());
                let (fp, fd, fo, fm) = full.state(t).clone().into_parts();
                let (pp, pd, po, pm) = pruned.state(t).clone().into_parts();
                assert_eq!(fp, pp, "seed {seed} t={t}: positions");
                let fb: Vec<u64> = fd.iter().map(|d| d.to_bits()).collect();
                let pb: Vec<u64> = pd.iter().map(|d| d.to_bits()).collect();
                assert_eq!(fb, pb, "seed {seed} t={t}: distance bits");
                assert_eq!(fo, po, "seed {seed} t={t}: occlusion graphs");
                assert_eq!(fm, pm, "seed {seed} t={t}: masks");
            }
        }
    }

    #[test]
    fn pruned_member_quantities_match_the_full_scene_at_serving_k() {
        // at a small serving K the member-level contract still holds: ids
        // are the brute K nearest by (distance, id), member distances and
        // mask bits are bitwise equal to the full scene's, and the
        // restricted edges are the full edge set ∩ members×members
        for seed in 0..6u64 {
            let n = 18;
            let k = 6;
            let positions = random_positions(n, 5.0, 700 + seed);
            let mut full = engine_for(n, 2, 0.25);
            full.set_prune_k(0);
            full.push(Frame::new(positions.clone()));
            let mut pruned = engine_for(n, 2, 0.25);
            pruned.set_prune_k(k);
            pruned.push(Frame::new(positions.clone()));

            for v in 0..n {
                let fv = full.view(v, 0);
                let cs = pruned.view(v, 0).candidates().expect("pruned view");
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
                    let w = w as usize;
                    assert_eq!(
                        cs.distances()[idx].to_bits(),
                        fv.distances()[w].to_bits(),
                        "seed {seed} v={v} w={w}: distance"
                    );
                    assert_eq!(
                        cs.mask()[idx],
                        fv.candidate_mask()[w],
                        "seed {seed} v={v} w={w}: mask bit (nearer-occluder closure)"
                    );
                }
                let restricted: Vec<(u32, u32)> = fv
                    .occlusion()
                    .edges()
                    .filter(|&(a, b)| cs.contains(a) && cs.contains(b))
                    .map(|(a, b)| (a as u32, b as u32))
                    .collect();
                assert_eq!(cs.edges(), &restricted[..], "seed {seed} v={v}: restricted edges");
            }
        }
    }

    #[test]
    fn pruned_incremental_reuse_matches_per_tick_rebuild() {
        // the delta path's Arc reuse must be invisible: an incremental
        // pruned engine and a fresh-per-prefix pruned engine agree exactly
        let n = 14;
        let k = 5;
        let frames = coherent_frames(n, 8, 5.0, 0.25, 0.05, 31);
        let mut inc = engine_for(n, 3, 0.25);
        inc.set_prune_k(k);
        inc.set_incremental(true);
        let mut scratch = engine_for(n, 3, 0.25);
        scratch.set_prune_k(k);
        scratch.set_incremental(false);
        for f in &frames {
            inc.push(Frame::new(f.clone()));
            scratch.push(Frame::new(f.clone()));
        }
        for t in 0..frames.len() {
            for v in 0..n {
                let a = inc.view(v, t).candidates().unwrap();
                let b = scratch.view(v, t).candidates().unwrap();
                assert_eq!(a, b, "t={t} v={v}");
            }
        }
    }

    #[test]
    fn pruned_static_frames_reuse_shortlists_by_pointer() {
        let n = 12;
        let f0 = random_positions(n, 5.0, 91);
        let mut engine = engine_for(n, 2, 0.25);
        engine.set_prune_k(4);
        engine.set_incremental(true);
        engine.push(Frame::new(f0.clone()));
        engine.push(Frame::new(f0.clone()));
        for v in 0..n {
            let a = engine.view(v, 0).candidates().unwrap() as *const CandidateSet;
            let b = engine.view(v, 1).candidates().unwrap() as *const CandidateSet;
            assert_eq!(a, b, "v={v}: static tick must carry the shortlist by pointer");
        }
    }

    #[test]
    fn pruned_state_distance_matches_dense_bitwise() {
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
    #[should_panic(expected = "not materialized in pruned mode")]
    fn pruned_distance_row_panics() {
        let mut engine = engine_for(6, 2, 0.25);
        engine.set_prune_k(2);
        engine.push(Frame::new(random_positions(6, 5.0, 8)));
        engine.state(0).distance_row(0);
    }

    #[test]
    #[should_panic(expected = "not materialized in pruned mode")]
    fn pruned_candidate_mask_panics() {
        let mut engine = engine_for(6, 2, 0.25);
        engine.set_prune_k(2);
        engine.push(Frame::new(random_positions(6, 5.0, 8)));
        engine.view(0, 0).candidate_mask();
    }

    #[test]
    fn toggling_prune_k_mid_session_rebuilds_cleanly() {
        // pruned → full must not leave stale warm caches behind: the full
        // ticks after the switch still match a from-scratch oracle
        let n = 12;
        let frames = coherent_frames(n, 9, 5.0, 0.3, 0.1, 77);
        let mut toggled = engine_for(n, 2, 0.25);
        toggled.set_incremental(true);
        let mut oracle = engine_for(n, 2, 0.25);
        oracle.set_incremental(false);
        for (t, f) in frames.iter().enumerate() {
            toggled.set_prune_k(if (t / 3) % 2 == 0 { 4 } else { 0 });
            toggled.push(Frame::new(f.clone()));
            oracle.push(Frame::new(f.clone()));
        }
        for (t, _) in frames.iter().enumerate() {
            if toggled.state(t).is_pruned() {
                continue;
            }
            assert_states_bitwise_equal(toggled.state(t), oracle.state(t), &format!("t={t}"));
        }
    }
}
