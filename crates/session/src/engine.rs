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
//! * Distances: each registered viewer's row `d(v, ·)` is measured with
//!   [`Point2::distance`] in `(min, max)` id order. `(p_i − p_j)` and
//!   `(p_j − p_i)` are exact IEEE negations, so squares, sum, and square
//!   root agree bit for bit with the brute-force per-target row
//!   `positions[v].distance(positions[w])`, and with
//!   [`SceneState::distance`] for any pair.
//! * Occlusion: per-viewer arcs come from the same
//!   [`OcclusionConverter::arcs`] call as the brute-force build; the angular
//!   sweep only *prunes pairs that cannot intersect* (forward gap beyond
//!   `half_width + max_half_width` plus a safety margin) and every surviving
//!   pair is decided by the exact [`ViewArc::intersects`] predicate, so the
//!   edge set is the brute-force one. [`UGraph`] stores a canonical CSR
//!   (every row strictly ascending) whatever order its edges were listed
//!   in, so equal edge sets make graphs that compare equal in every stored
//!   value.
//! * Candidate masks re-derive the brute-force `physical_candidate_mask`
//!   semantics from the shared state: a candidate `w` of an MR viewer is
//!   pruned iff it has no arc (coincident, `d < 1e-9`) or some co-located MR
//!   participant's arc overlaps `w`'s while standing strictly nearer — and
//!   "overlaps" is exactly occlusion-graph adjacency, so no arc intersection
//!   is ever re-tested.
//!
//! ## Every tick is built from its frame
//!
//! A tick's state is a function of that tick's frame (and the engine's
//! constants: viewers, scene config, `prune_k`) alone, as the paper defines
//! `O_t^v` and `m_t` from step `t`'s positions. Nothing is carried from the
//! previous tick: the dense payload (`prune_k = 0`, every new engine's
//! setting) rebuilds each registered viewer's distance row, arcs, angular
//! sweep and candidate mask, and the pruned payload rebuilds every
//! shortlist. The paper's rooms and venues are crowds in which nearly every
//! user moves at every step, so a tick-to-tick carry would have little to
//! skip. The sweep's working buffers (sort order, sorted arcs, edge list),
//! the pruned path's spatial index and its K-nearest query scratch belong
//! to the engine and are reused across viewers and ticks, so a push
//! allocates only the structures it hands out.
//!
//! ## Crowd-scale pruned mode ([`SceneEngine::set_prune_k`])
//!
//! With [`SceneEngine::set_prune_k`]`(K > 0)` the engine
//! stops materializing dense per-tick structure entirely — no `n`-length
//! distance rows, no `n`-node occlusion graphs, no `n`-length masks — and
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
//! as the differential oracle.
//!
//! [`SceneState::into_parts`] densifies a pruned state on demand so batch
//! consumers (context assembly, replay) stay payload-agnostic.

use crate::prune::{CandidateSet, PruneIndex};

use xr_datasets::Scenario;
use xr_graph::geom::Point2;
use xr_graph::{sort_unique_pairs, OcclusionConverter, UGraph, ViewArc};

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
    /// The full-N path: per-slot distance rows, occlusion graphs and
    /// masks — nothing is stored for users who are not viewers.
    Full {
        /// Distance row `d(v, ·)` (length `n`, `0.0` at `v`) per registered
        /// viewer (slot order).
        distances: Vec<Vec<f64>>,
        /// Static occlusion graph per *registered viewer* (slot order).
        occlusion: Vec<UGraph>,
        /// Hybrid-participation candidate mask per registered viewer.
        candidate_mask: Vec<Vec<bool>>,
    },
    /// The crowd-scale path (`prune_k > 0`): one shortlist per
    /// registered viewer, nothing dense.
    Pruned {
        /// The effective shortlist size (already clamped to `n − 1`).
        k: usize,
        /// Per-slot candidate shortlists.
        shortlists: Vec<CandidateSet>,
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

    /// Distance between users `i` and `j` (symmetric, bit-exact), measured
    /// from positions in `(min, max)` order — [`Point2::distance`] is
    /// bit-identical either direction, so the value equals the viewer-row
    /// entry and the brute-force `positions[i].distance(positions[j])`.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        pair_distance(&self.positions, i, j)
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

    /// Tears the state into its owned parts — positions, and per slot
    /// (slot order = the engine's registered-viewer order) the viewer's
    /// distance row, occlusion graph and candidate mask. Lets batch
    /// consumers take ownership of the heavy per-viewer structures instead
    /// of cloning them.
    ///
    /// A pruned state is *densified* here — the single materialization
    /// point that keeps batch consumers payload-agnostic: each viewer's row
    /// is measured from positions (V·N pairs, bit-identical by the IEEE
    /// argument), each shortlist's restricted edges become an `n`-node
    /// [`UGraph`], and the dense mask carries each member's bit with every
    /// non-member `false`. At a complete shortlist (`K ≥ n−1`) the result is
    /// bitwise equal to the full path's parts; at serving K the mask *is*
    /// the candidate-set contract — users outside the shortlist are not
    /// candidates.
    #[allow(clippy::type_complexity)] // (positions, then rows, graphs and masks per slot)
    pub fn into_parts(self) -> (Vec<Point2>, Vec<Vec<f64>>, Vec<UGraph>, Vec<Vec<bool>>) {
        let n = self.n;
        match self.payload {
            StatePayload::Full { distances, occlusion, candidate_mask } => {
                (self.positions, distances, occlusion, candidate_mask)
            }
            StatePayload::Pruned { shortlists, .. } => {
                let mut distances = Vec::with_capacity(shortlists.len());
                let mut occlusion = Vec::with_capacity(shortlists.len());
                let mut masks = Vec::with_capacity(shortlists.len());
                for cs in &shortlists {
                    distances.push(distance_row(&self.positions, cs.viewer()));
                    let edges: Vec<(usize, usize)> =
                        cs.edges().iter().map(|&(a, b)| (a as usize, b as usize)).collect();
                    occlusion.push(UGraph::from_sorted_unique_edges(n, &edges));
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
        match &self.state.payload {
            StatePayload::Full { distances, .. } => &distances[self.slot],
            StatePayload::Pruned { .. } => {
                panic!("dense distance rows are not materialized in pruned mode (prune_k > 0)")
            }
        }
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

/// The angular sweep's working buffers, owned by the engine and reused
/// across viewers and ticks: a sweep leaves its result in `edges`, and the
/// caller copies out only what it keeps (the graph, a shortlist's edges).
#[derive(Debug, Clone, Default)]
struct SweepBuffers {
    /// Ids of users that have an arc, sorted by the sweep key `(center, id)`.
    order: Vec<usize>,
    /// Their arcs, parallel to `order`.
    sorted: Vec<ViewArc>,
    /// The last sweep's sorted unique `(min, max)` edges.
    edges: Vec<(usize, usize)>,
}

impl SweepBuffers {
    /// Sweeps `arcs` (indexed by id) and returns its sorted unique edge list;
    /// every listed pair was decided by the exact [`ViewArc::intersects`]
    /// predicate.
    fn edges(&mut self, arcs: &[Option<ViewArc>], pair_tests: &mut u64) -> &[(usize, usize)] {
        sorted_arc_order(arcs, &mut self.order, &mut self.sorted);
        sweep_edge_list(arcs.len(), &self.order, &self.sorted, &mut self.edges, pair_tests);
        &self.edges
    }

    /// One viewer's static occlusion graph, with the brute-force edge set
    /// and therefore `Eq` to the brute-force build.
    fn graph(&mut self, arcs: &[Option<ViewArc>], pair_tests: &mut u64) -> UGraph {
        UGraph::from_sorted_unique_edges(arcs.len(), self.edges(arcs, pair_tests))
    }
}

/// The streaming scene engine: feed it one [`Frame`] per tick, read shared
/// state back through [`SceneEngine::state`] / [`SceneEngine::view`].
///
/// Viewers (the target users whose occlusion structure is needed) are
/// registered up front so a single-target session does not pay for N
/// per-viewer graphs or distance rows: a tick stores one of each per viewer
/// and nothing for the other users.
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
    /// Per-tick deadline tracking; `None` until [`SceneEngine::set_slo`]
    /// installs a tracker.
    slo: Option<xr_obs::SloTracker>,
    /// Shortlist size for the crowd-scale pruned mode; 0 (the default)
    /// keeps the exact full-N path.
    prune_k: usize,
    /// The pruned path's spatial index, rebuilt from each frame into the
    /// same buffers.
    index: PruneIndex,
    /// K-nearest query scratch for the pruned path.
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
            slo: None,
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

    /// Installs (or clears) a per-tick deadline tracker. A new engine has
    /// none; no budget is ever read from the environment.
    pub fn set_slo(&mut self, slo: Option<xr_obs::SloTracker>) {
        self.slo = slo;
    }

    /// The active deadline tracker, if any.
    pub fn slo(&self) -> Option<&xr_obs::SloTracker> {
        self.slo.as_ref()
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

    /// Sets the crowd-scale shortlist size: `k > 0` makes every subsequent
    /// tick build per-viewer K-candidate shortlists instead of dense
    /// full-scene state, `0` (every new engine's setting) keeps the exact
    /// full-N path (the differential oracle). Safe to switch mid-session:
    /// each tick is built from its own frame at the K in force when it is
    /// pushed.
    pub fn set_prune_k(&mut self, k: usize) {
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

        let mut pair_tests = 0u64;
        let state = if self.prune_k > 0 {
            self.build_state_pruned(frame.positions, &mut pair_tests)
        } else {
            self.build_state_dense(frame.positions, &mut pair_tests)
        };

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

    /// Dense tick build (`prune_k = 0`), from scratch: each registered
    /// viewer's distance row, arcs, occlusion sweep and candidate mask.
    fn build_state_dense(&mut self, positions: Vec<Point2>, pair_tests: &mut u64) -> SceneState {
        let n = self.n;
        let mut distances = Vec::with_capacity(self.viewers.len());
        let mut occlusion = Vec::with_capacity(self.viewers.len());
        let mut candidate_mask = Vec::with_capacity(self.viewers.len());
        for &v in &self.viewers {
            let row = distance_row(&positions, v);
            let arcs = self.converter.arcs(v, &positions);
            let graph = self.sweep.graph(&arcs, pair_tests);
            candidate_mask.push(candidate_mask_from_shared(
                v,
                self.config.mr_mask[v],
                &row,
                &graph,
                &self.config.mr_mask,
            ));
            distances.push(row);
            occlusion.push(graph);
        }
        SceneState { n, positions, payload: StatePayload::Full { distances, occlusion, candidate_mask } }
    }

    /// Crowd-scale tick build (`prune_k > 0`): one two-level spatial index
    /// over the frame, then one K-candidate shortlist per registered viewer
    /// — O(N) scene maintenance plus O(K log K + restricted pairs) per
    /// viewer, with no dense structure anywhere. Emits the distances the
    /// K-nearest queries evaluated as `session.prune.knn_distances`.
    fn build_state_pruned(&mut self, positions: Vec<Point2>, pair_tests: &mut u64) -> SceneState {
        let n = self.n;
        let k = self.prune_k.min(n.saturating_sub(1));
        xr_obs::counter_add("session.prune.ticks", &[], 1);
        self.index.rebuild(&positions);
        let mut nearest = std::mem::take(&mut self.nearest_buf);
        let mut shortlists = Vec::with_capacity(self.viewers.len());
        let mut knn_distances = 0u64;
        for &v in &self.viewers {
            knn_distances += self.index.nearest_k_into(&positions, v, k, &mut nearest) as u64;
            // members in ascending-id order, distances carried along
            nearest.sort_unstable_by_key(|&(_, w)| w);
            shortlists.push(build_candidate_set(
                v,
                k,
                &positions,
                &self.converter,
                &self.config.mr_mask,
                &nearest,
                &mut self.sweep,
                pair_tests,
            ));
        }
        nearest.clear();
        self.nearest_buf = nearest;
        xr_obs::counter_add("session.prune.knn_distances", &[], knn_distances);
        SceneState { n, positions, payload: StatePayload::Pruned { k, shortlists } }
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

/// The angular sweep's edge enumeration over ids `< n`, run by the dense
/// graph build and by the pruned path's restricted sweep (over
/// shortlist-local indices): arcs sorted by center, each compared only
/// against arcs within `half_width + max_half_width` forward gap, and every
/// candidate pair decided by the exact [`ViewArc::intersects`] predicate.
/// Leaves the sorted unique `(min, max)` pairs — the brute-force edge set —
/// in `edges`.
fn sweep_edge_list(
    n: usize,
    order: &[usize],
    sorted: &[ViewArc],
    edges: &mut Vec<(usize, usize)>,
    pair_tests: &mut u64,
) {
    edges.clear();
    let m = order.len();
    if m < 2 {
        return;
    }
    let max_half_width = sorted.iter().map(|a| a.half_width).fold(f64::NEG_INFINITY, f64::max);

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
    // scans; the O(n + m) counting sort + dedup yields the brute-force i<j
    // order
    sort_unique_pairs(n, edges);
}

/// Builds one viewer's [`CandidateSet`] over its K-nearest members
/// (`members` = `(distance, id)` pairs in ascending-id order): arcs are
/// re-derived per member with the same converter call as the full path, the
/// restricted occlusion edges come from the same angular sweep over
/// shortlist-local indices, and mask bits apply the `mask_entry` rule over
/// those edges. The `(distance, id)` selection order makes every strictly
/// nearer user of a member also a member (nearer-occluder closure), so the
/// member bits are bitwise equal to the full-scene mask.
#[allow(clippy::too_many_arguments)]
fn build_candidate_set(
    viewer: usize,
    k: usize,
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

    // restricted sweep over local member indices: the edge set it yields is
    // the full edge set ∩ members×members, because each surviving pair is
    // decided by the exact predicate and the pruning bound stays
    // conservative on any subset (a subset's max_half_width only shrinks)
    let arcs: Vec<Option<ViewArc>> =
        ids.iter().map(|&w| converter.arc(positions[viewer], positions[w as usize])).collect();
    let local_edges = sweep.edges(&arcs, pair_tests);

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
        for &(a, b) in local_edges {
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
    let edges: Vec<(u32, u32)> = local_edges.iter().map(|&(a, b)| (ids[a], ids[b])).collect();
    CandidateSet::new(viewer, k, ids, dists, mask, edges)
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
/// rule.
fn mask_entry(viewer: usize, distances: &[f64], occlusion: &UGraph, mr_mask: &[bool], w: usize) -> bool {
    // no arc: coincident with the viewer (same 1e-9 cutoff as `arc()`)
    if distances[w] < 1e-9 {
        return false;
    }
    !occlusion.neighbors(w).iter().any(|&u| u != viewer && mr_mask[u] && distances[u] < distances[w])
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
        // viewers registered out of id order: rows are stored by slot, so a
        // row indexed by id instead would read another viewer's distances
        let n = 24;
        let mr_mask: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let config = SceneConfig { body_radius: 0.25, mr_mask, room_diagonal: 10.0 };
        let viewers = [17, 3, 0, 23];
        let mut engine = SceneEngine::new(n, config, &viewers);
        let positions = random_positions(n, 8.0, 7);
        engine.push(Frame::new(positions.clone()));
        for &v in &viewers {
            let row = engine.view(v, 0).distances();
            assert_eq!(row.len(), n);
            for w in 0..n {
                let legacy = positions[v].distance(positions[w]);
                assert_eq!(row[w].to_bits(), legacy.to_bits(), "row of viewer {v}: d({v},{w})");
            }
        }
        // every pair, viewers or not, through the exact-pair accessor
        let state = engine.state(0);
        for i in 0..n {
            for j in 0..n {
                let legacy = positions[i].distance(positions[j]);
                assert_eq!(state.distance(i, j).to_bits(), legacy.to_bits(), "d({i},{j})");
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
                let swept = SweepBuffers::default().graph(&arcs, &mut tests);
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
        assert_eq!(SweepBuffers::default().graph(&arcs, &mut tests), conv.static_graph(0, &positions));
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
                let graph = SweepBuffers::default().graph(&arcs, &mut tests);
                let distances: Vec<f64> = (0..n).map(|w| positions[viewer].distance(positions[w])).collect();
                let mask = candidate_mask_from_shared(viewer, mr_mask[viewer], &distances, &graph, &mr_mask);
                assert_eq!(mask, expected, "seed {seed}, viewer {viewer}");
            }
        }
    }

    /// The dense parts of a full-mode state (tests only ever unpack full
    /// states through this; pruned states have their own assertions).
    fn full_parts(s: &SceneState) -> (&Vec<Vec<f64>>, &Vec<UGraph>, &Vec<Vec<bool>>) {
        match &s.payload {
            StatePayload::Full { distances, occlusion, candidate_mask } => {
                (distances, occlusion, candidate_mask)
            }
            StatePayload::Pruned { .. } => panic!("expected a full-mode state"),
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

    /// The bits of per-slot distance rows, for bitwise comparison.
    fn row_bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
        rows.iter().map(|row| row.iter().map(|d| d.to_bits()).collect()).collect()
    }

    /// Asserts two states hold the same payload kind and equal every stored
    /// value bit for bit.
    fn assert_states_bitwise_equal(a: &SceneState, b: &SceneState, ctx: &str) {
        let bits = |ps: &[Point2]| -> Vec<(u64, u64)> {
            ps.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
        };
        assert_eq!(bits(&a.positions), bits(&b.positions), "{ctx}: position bits");
        match (&a.payload, &b.payload) {
            (
                StatePayload::Pruned { k: ak, shortlists: asl },
                StatePayload::Pruned { k: bk, shortlists: bsl },
            ) => {
                assert_eq!(ak, bk, "{ctx}: K");
                assert_eq!(asl, bsl, "{ctx}: shortlists");
                let dist_bits = |sl: &[CandidateSet]| -> Vec<Vec<u64>> {
                    sl.iter().map(|cs| cs.distances().iter().map(|d| d.to_bits()).collect()).collect()
                };
                assert_eq!(dist_bits(asl), dist_bits(bsl), "{ctx}: member distance bits");
            }
            _ => {
                let (ad, ao, am) = full_parts(a);
                let (bd, bo, bm) = full_parts(b);
                assert_eq!(row_bits(ad), row_bits(bd), "{ctx}: distance bits");
                assert_eq!(ao, bo, "{ctx}: occlusion (UGraph Eq)");
                assert_eq!(am, bm, "{ctx}: candidate masks");
            }
        }
    }

    #[test]
    fn every_tick_is_a_function_of_its_frame_alone() {
        // whatever the engine saw before, each pushed tick equals bit for bit
        // what a fresh engine builds from that frame alone — dense, at a
        // complete shortlist and at a serving K, with unbounded and
        // single-tick retention, through lobby churn
        let n = 16;
        let frames = frames_with_lobby_churn(n, 12, 5.0, 0.15, 61);
        let mut parked_with_their_shortlist = 0;
        for prune_k in [0, n - 1, 4] {
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
                            .filter(|&v| {
                                engine.view(v, t).candidates().unwrap().distances().iter().all(|&d| d == 0.0)
                            })
                            .count();
                    }
                }
            }
        }
        assert!(parked_with_their_shortlist > 0, "the churn must park some viewer with its whole shortlist");
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
                assert!(!full.state(t).is_pruned() && full.state(t).candidates(0).is_none());
                let (fp, fd, fo, fm) = full.state(t).clone().into_parts();
                let (pp, pd, po, pm) = pruned.state(t).clone().into_parts();
                assert_eq!(fp, pp, "seed {seed} t={t}: positions");
                assert_eq!(fd.len(), n, "seed {seed} t={t}: one row per slot");
                assert_eq!(row_bits(&fd), row_bits(&pd), "seed {seed} t={t}: per-slot distance bits");
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
    #[should_panic(expected = "not materialized in pruned mode")]
    fn pruned_distance_row_panics() {
        let mut engine = engine_for(6, 2, 0.25);
        engine.set_prune_k(2);
        engine.push(Frame::new(random_positions(6, 5.0, 8)));
        engine.view(0, 0).distances();
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
        // pruned ⇄ full switches leave nothing stale behind: every full tick
        // after a switch still matches an engine that never pruned
        let n = 12;
        let frames = coherent_frames(n, 9, 5.0, 0.3, 0.1, 77);
        let mut toggled = engine_for(n, 2, 0.25);
        let mut oracle = engine_for(n, 2, 0.25);
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
