//! One served room: a [`SceneEngine`] behind a mailbox, plus the SLO-driven
//! degradation ladder.
//!
//! ## Degradation ladder
//!
//! A room serves at one of two levels, ordered by cost:
//!
//! 1. [`ServeLevel::Full`] — the f64 [`SceneEngine`] ingests the frame
//!    (bit-exact shared scene state) and each registered viewer gets a
//!    top-k-nearest recommendation over their candidate mask.
//! 2. [`ServeLevel::MaskOnly`] — the engine is bypassed: each viewer gets
//!    the coarse candidate set (everyone but the viewer and users
//!    coincident with them, from one O(N) f64 squared-distance scan), with no
//!    occlusion pruning and no scoring. An over-approximation served only
//!    under pressure.
//!
//! Past the last rung the scheduler sheds whole frames: a room that is
//! *still* persistently over budget at [`ServeLevel::MaskOnly`] has its
//! backlog collapsed to the newest frame on every drain.
//!
//! Escalation is driven by the measured per-frame latency against the
//! server's configured budget (via [`xr_obs::SloTracker`], so every miss
//! also lands in the `slo.serve.room.tick.*` metrics): `escalate_after`
//! consecutive misses move the room down to [`ServeLevel::MaskOnly`],
//! `recover_after` consecutive in-budget frames move it back to
//! [`ServeLevel::Full`]. Without a configured budget the policy is inert
//! and every room stays at [`ServeLevel::Full`] — which is also what the
//! determinism and differential suites pin, since degradation decisions
//! depend on wall clock.

use xr_graph::geom::Point2;
use xr_session::{Frame, SceneConfig, SceneEngine, TargetView};

use crate::mailbox::FrameMailbox;

/// Serving level — the degradation ladder, cheapest last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ServeLevel {
    /// f64 engine ingest + top-k-nearest over the exact candidate mask.
    Full,
    /// Coarse candidate set from an f64 squared-distance scan; the engine
    /// is bypassed, with no occlusion and no scoring.
    MaskOnly,
}

impl ServeLevel {
    /// Stable label for metrics.
    pub fn name(self) -> &'static str {
        match self {
            ServeLevel::Full => "full",
            ServeLevel::MaskOnly => "mask_only",
        }
    }

    /// One rung cheaper, saturating at [`ServeLevel::MaskOnly`].
    pub fn degraded(self) -> ServeLevel {
        ServeLevel::MaskOnly
    }

    /// One rung richer, saturating at [`ServeLevel::Full`].
    pub fn recovered(self) -> ServeLevel {
        ServeLevel::Full
    }
}

/// Per-room configuration handed to `RoomServer::admit`.
#[derive(Debug, Clone)]
pub struct RoomConfig {
    /// Participant count (frame width).
    pub n: usize,
    /// Scene constants (body radius, MR mask, room diagonal).
    pub scene: SceneConfig,
    /// Registered viewers — the users recommendations are computed for.
    pub viewers: Vec<usize>,
    /// Recommendation size for the top-k-nearest decision.
    pub top_k: usize,
    /// Mailbox capacity (pending frames before coalescing).
    pub mailbox_capacity: usize,
    /// Scene-state retention handed to [`SceneEngine::set_state_retention`]:
    /// `Some(k)` keeps the last `k` ticks (the serving default — a
    /// long-running room must not accumulate every tick), `None` keeps all
    /// (what the differential/replay suites use to inspect history).
    pub retain_states: Option<usize>,
    /// Shortlist cap handed to [`SceneEngine::set_prune_k`]: `Some(k)` makes
    /// the room's engine keep each viewer's `min(k, n − 1)` nearest users;
    /// `None` (like `Some(0)`) keeps complete shortlists of all `n − 1`
    /// other users, the engine's default. Stadium-scale rooms must set this
    /// — a complete shortlist sweeps all N users' arcs for every viewer on
    /// every tick and keeps N-length members, distances and masks per
    /// viewer per retained tick.
    pub prune_k: Option<usize>,
}

impl RoomConfig {
    /// A room with serving defaults: top-5 recommendations, a 4-frame
    /// mailbox, and 2 retained scene states.
    pub fn new(n: usize, scene: SceneConfig, viewers: Vec<usize>) -> RoomConfig {
        RoomConfig { n, scene, viewers, top_k: 5, mailbox_capacity: 4, retain_states: Some(2), prune_k: None }
    }
}

/// One processed frame's output: the per-viewer recommendation masks, in the
/// room's registered-viewer (slot) order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// Mailbox sequence number of the frame this decision answers.
    pub seq: u64,
    /// Serving level the frame was processed at.
    pub level: ServeLevel,
    /// `per_viewer[slot][w]` — recommend user `w` to the slot's viewer.
    pub per_viewer: Vec<Vec<bool>>,
}

/// Top-k-nearest decision on an f64 distance row: among candidates left by
/// `mask`, recommend the `k` nearest (ties broken by user id — fully
/// deterministic). Rooms decide on shortlists ([`decide_view`]); this
/// dense-row form is the reference their decisions are checked against.
pub fn decide_topk_f64(mask: &[bool], distances: &[f64], k: usize) -> Vec<bool> {
    let mut candidates: Vec<usize> = (0..mask.len()).filter(|&w| mask[w]).collect();
    candidates.sort_by(|&a, &b| distances[a].total_cmp(&distances[b]).then(a.cmp(&b)));
    candidates.truncate(k);
    let mut out = vec![false; mask.len()];
    for w in candidates {
        out[w] = true;
    }
    out
}

/// The top-k-nearest decision for one engine view, decided on its
/// shortlist (which carries the mask bits and distances of its members); at
/// a complete shortlist it selects what [`decide_topk_f64`] selects on the
/// dense rows.
pub fn decide_view(view: &TargetView<'_>, k: usize) -> Vec<bool> {
    let mut out = vec![false; view.positions().len()];
    for w in view.candidates().iter().flat_map(|cs| cs.decide_topk(k)) {
        out[w as usize] = true;
    }
    out
}

/// The [`ServeLevel::MaskOnly`] candidate set for viewer `v`: everyone
/// except the viewer and users coincident with them. No occlusion pruning,
/// no ranking.
fn coarse_mask(positions: &[Point2], v: usize) -> Vec<bool> {
    let pv = positions[v];
    let mut mask: Vec<bool> = positions.iter().map(|&q| !coincident(pv, q)).collect();
    mask[v] = false;
    mask
}

/// The engine's coincidence cutoff, `distance < 1e-9`, without the square
/// root: `sqrt` is correctly rounded, hence monotone, and 1e-18 is the
/// smallest `d²` whose root reaches 1e-9, so the two tests agree on every
/// `d²` (NaN included).
fn coincident(p: Point2, q: Point2) -> bool {
    p.distance_sq(q) < 1e-18
}

/// A room slot owned by the server: engine + mailbox + ladder state.
#[derive(Debug)]
pub struct Room {
    engine: SceneEngine,
    mailbox: FrameMailbox,
    config: RoomConfig,
    /// Registered viewers in slot order (the engine's deduplicated list).
    viewers: Vec<usize>,
    level: ServeLevel,
    slo: Option<xr_obs::SloTracker>,
    /// Consecutive over-budget frames at the current level.
    over_streak: u32,
    /// Consecutive in-budget frames at the current level.
    under_streak: u32,
    /// Frames processed (all levels — the policy clock).
    frames_processed: u64,
    /// Frames shed by `drain_keep_newest` while over budget at the last rung.
    frames_shed: u64,
    /// Ladder transitions (either direction).
    transitions: u64,
}

impl Room {
    pub(crate) fn new(config: RoomConfig, slo: Option<xr_obs::SloTracker>) -> Room {
        let mut engine = SceneEngine::new(config.n, config.scene.clone(), &config.viewers);
        engine.set_state_retention(config.retain_states);
        if let Some(k) = config.prune_k {
            engine.set_prune_k(k);
        }
        let viewers = engine.viewers().to_vec();
        let mailbox = FrameMailbox::new(config.mailbox_capacity);
        Room {
            engine,
            mailbox,
            viewers,
            level: ServeLevel::Full,
            slo,
            over_streak: 0,
            under_streak: 0,
            frames_processed: 0,
            frames_shed: 0,
            transitions: 0,
            config,
        }
    }

    /// The room's scene engine (reference — what the differential subject
    /// compares against bare engines).
    pub fn engine(&self) -> &SceneEngine {
        &self.engine
    }

    /// The room's mailbox.
    pub(crate) fn mailbox_mut(&mut self) -> &mut FrameMailbox {
        &mut self.mailbox
    }

    /// Pending frames.
    pub fn pending(&self) -> usize {
        self.mailbox.len()
    }

    /// Frames coalesced away by the mailbox.
    pub fn coalesced(&self) -> u64 {
        self.mailbox.coalesced_total()
    }

    /// Current ladder level.
    pub fn level(&self) -> ServeLevel {
        self.level
    }

    /// Frames processed so far (all levels).
    pub fn frames_processed(&self) -> u64 {
        self.frames_processed
    }

    /// Frames shed so far.
    pub fn frames_shed(&self) -> u64 {
        self.frames_shed
    }

    /// Ladder transitions so far (either direction).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Room configuration.
    pub fn config(&self) -> &RoomConfig {
        &self.config
    }

    /// Whether the room is currently shedding: over budget persistently at
    /// the cheapest rung.
    pub fn is_shedding(&self, escalate_after: u32) -> bool {
        self.level == ServeLevel::MaskOnly && self.over_streak >= escalate_after
    }

    /// Processes one frame at the current level. Returns the decision; the
    /// caller measures latency and feeds it back via [`Room::observe_tick`].
    pub(crate) fn process(&mut self, seq: u64, frame: Frame) -> Decision {
        let level = self.level;
        let per_viewer = match level {
            ServeLevel::Full => {
                let t = self.engine.push(frame);
                self.viewers
                    .iter()
                    .map(|&v| decide_view(&self.engine.view(v, t), self.config.top_k))
                    .collect()
            }
            ServeLevel::MaskOnly => self.viewers.iter().map(|&v| coarse_mask(&frame.positions, v)).collect(),
        };
        let seq_decision = Decision { seq, level, per_viewer };
        self.frames_processed += 1;
        seq_decision
    }

    /// Feeds one measured frame latency into the SLO tracker and the ladder
    /// policy. Returns `Some((from, to))` when the room changed level.
    pub(crate) fn observe_tick(
        &mut self,
        elapsed_ms: f64,
        escalate_after: u32,
        recover_after: u32,
    ) -> Option<(ServeLevel, ServeLevel)> {
        let slo = self.slo.as_mut()?;
        let tick = self.frames_processed.saturating_sub(1);
        let verdict = slo.record(tick, elapsed_ms);
        if verdict.missed {
            self.over_streak += 1;
            self.under_streak = 0;
        } else {
            self.under_streak += 1;
            self.over_streak = 0;
        }
        if verdict.missed && self.over_streak >= escalate_after && self.level != ServeLevel::MaskOnly {
            let from = self.level;
            self.level = self.level.degraded();
            self.over_streak = 0;
            self.transitions += 1;
            return Some((from, self.level));
        }
        if !verdict.missed && self.under_streak >= recover_after && self.level != ServeLevel::Full {
            let from = self.level;
            self.level = self.level.recovered();
            self.under_streak = 0;
            self.transitions += 1;
            return Some((from, self.level));
        }
        None
    }

    /// Records a shed batch.
    pub(crate) fn note_shed(&mut self, shed: u64) {
        self.frames_shed += shed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn scene(n: usize) -> SceneConfig {
        SceneConfig { body_radius: 0.25, mr_mask: (0..n).map(|i| i % 2 == 0).collect(), room_diagonal: 10.0 }
    }

    fn slo(budget_ms: f64) -> Option<xr_obs::SloTracker> {
        Some(xr_obs::SloTracker::new("serve.room.tick", xr_obs::SloConfig::new(budget_ms), &[]))
    }

    fn room(n: usize, budget_ms: Option<f64>) -> Room {
        Room::new(RoomConfig::new(n, scene(n), vec![0, 1]), budget_ms.and_then(slo))
    }

    fn frame(n: usize, seed: u64) -> Frame {
        let mut rng = StdRng::seed_from_u64(seed);
        Frame::new((0..n).map(|_| Point2::new(rng.gen_range(0.0..8.0), rng.gen_range(0.0..8.0))).collect())
    }

    #[test]
    fn topk_decisions_are_deterministic_and_k_sized() {
        let mask = vec![false, true, true, true, true];
        let d = vec![0.0, 3.0, 1.0, 2.0, 4.0];
        let out = decide_topk_f64(&mask, &d, 2);
        assert_eq!(out, vec![false, false, true, true, false]);
        // k larger than the candidate set recommends everyone eligible
        assert_eq!(decide_topk_f64(&mask, &d, 10).iter().filter(|&&b| b).count(), 4);
    }

    #[test]
    fn coincidence_cutoff_is_the_engine_distance_cutoff() {
        let cut = 1e-18f64;
        assert!(cut.sqrt() >= 1e-9);
        assert!(f64::from_bits(cut.to_bits() - 1).sqrt() < 1e-9);
        let p = Point2::new(3.0, -2.0);
        for dx in [0.0, 1e-10, 7e-10, 1e-9, 1.5e-9, 0.1] {
            let q = Point2::new(3.0 + dx, -2.0);
            assert_eq!(coincident(p, q), p.distance(q) < 1e-9, "dx = {dx}");
        }
    }

    #[test]
    fn topk_breaks_distance_ties_by_user_id() {
        let mask = vec![true, true, true, true];
        let d = vec![1.0, 1.0, 1.0, 1.0];
        assert_eq!(decide_topk_f64(&mask, &d, 2), vec![true, true, false, false]);
    }

    #[test]
    fn full_level_decisions_match_engine_state() {
        let mut r = room(10, None);
        let f = frame(10, 3);
        let d = r.process(0, f.clone());
        assert_eq!(d.level, ServeLevel::Full);
        assert_eq!(d.per_viewer.len(), 2);
        // self is never recommended
        assert!(!d.per_viewer[0][0]);
        assert!(!d.per_viewer[1][1]);
        // the dense-row rule on the densified state of a reference engine
        let mut reference = SceneEngine::new(10, r.config().scene.clone(), &[0, 1]);
        reference.push(f);
        let (rows, _, masks) = reference.into_states().pop().unwrap().into_parts();
        assert_eq!(d.per_viewer[0], decide_topk_f64(&masks[0], &rows[0], 5));
    }

    #[test]
    fn room_capped_at_n_minus_1_matches_the_uncapped_room() {
        let n = 12;
        let mut uncapped = room(n, None);
        let scene = uncapped.config().scene.clone();
        let mut config = RoomConfig::new(n, scene, vec![0, 1]);
        config.prune_k = Some(n - 1);
        let mut capped = Room::new(config, None);
        for i in 0..6 {
            let f = frame(n, 100 + i);
            let d_uncapped = uncapped.process(i, f.clone());
            let d_capped = capped.process(i, f);
            assert_eq!(d_capped.per_viewer, d_uncapped.per_viewer, "frame {i}");
        }
    }

    #[test]
    fn pruned_room_serves_from_the_shortlist_at_small_k() {
        let n = 16;
        let mut config = RoomConfig::new(n, scene(n), vec![0]);
        config.prune_k = Some(4);
        config.top_k = 3;
        let mut r = Room::new(config, None);
        let d = r.process(0, frame(n, 7));
        assert_eq!(d.level, ServeLevel::Full);
        let recommended: Vec<usize> = (0..n).filter(|&w| d.per_viewer[0][w]).collect();
        assert!(recommended.len() <= 3);
        // every recommendation comes from the 4-member shortlist
        let view = r.engine().view(0, 0);
        let cs = view.candidates().expect("every view has a shortlist");
        for w in recommended {
            assert!(cs.contains(w), "recommended user {w} outside the shortlist");
        }
    }

    #[test]
    fn ladder_escalates_on_misses_and_recovers_on_calm() {
        let mut r = room(8, Some(10.0));
        // 4 consecutive injected misses → the cheap rung
        for i in 0..4 {
            r.process(i, frame(8, i));
            let change = r.observe_tick(50.0, 4, 8);
            if i < 3 {
                assert_eq!(change, None);
            } else {
                assert_eq!(change, Some((ServeLevel::Full, ServeLevel::MaskOnly)));
            }
        }
        assert_eq!(r.level(), ServeLevel::MaskOnly);
        // still missing at the last rung → shedding
        for i in 4..8 {
            r.process(i, frame(8, i));
            assert_eq!(r.observe_tick(50.0, 4, 8), None);
        }
        assert!(r.is_shedding(4));
        // one recovery window of calm frames walks the room back to full
        for i in 8..16 {
            r.process(i, frame(8, i));
            let change = r.observe_tick(1.0, 4, 8);
            if i < 15 {
                assert_eq!(change, None);
            } else {
                assert_eq!(change, Some((ServeLevel::MaskOnly, ServeLevel::Full)));
            }
        }
        assert_eq!(r.level(), ServeLevel::Full);
        assert!(!r.is_shedding(4));
        assert_eq!(r.transitions(), 2);
    }

    #[test]
    fn no_budget_means_no_ladder_movement() {
        let mut r = room(8, None);
        for i in 0..32 {
            r.process(i, frame(8, i));
            assert_eq!(r.observe_tick(1e9, 1, 1), None);
        }
        assert_eq!(r.level(), ServeLevel::Full);
    }

    #[test]
    fn degraded_levels_bypass_the_engine() {
        let mut r = room(8, Some(10.0));
        for i in 0..4 {
            r.process(i, frame(8, i));
            r.observe_tick(50.0, 4, 8);
        }
        let ticks_before = r.engine().ticks();
        let f = frame(8, 4);
        let d = r.process(4, f.clone());
        assert_eq!(d.level, ServeLevel::MaskOnly);
        assert_eq!(r.engine().ticks(), ticks_before, "the cheap rung must not touch the engine");
        // the coarse set: everyone but the viewer (no one is coincident here)
        for (slot, &v) in [0usize, 1].iter().enumerate() {
            let expect: Vec<bool> = (0..8).map(|w| w != v).collect();
            assert_eq!(d.per_viewer[slot], expect);
        }
        // a user standing on the viewer is dropped, as the engine's mask drops them
        let mut stacked = f;
        stacked.positions[5] = stacked.positions[0];
        let d = r.process(5, stacked);
        assert!(!d.per_viewer[0][5]);
        assert!(d.per_viewer[1][5]);
    }

    /// A fresh engine's top-k decision for every viewer of `config`, fed
    /// only `frame`.
    fn fresh_engine_decisions(config: &RoomConfig, frame: Frame) -> Vec<Vec<bool>> {
        let mut engine = SceneEngine::new(config.n, config.scene.clone(), &config.viewers);
        engine.set_prune_k(config.prune_k.unwrap_or(0));
        let t = engine.push(frame);
        config.viewers.iter().map(|&v| decide_view(&engine.view(v, t), config.top_k)).collect()
    }

    #[test]
    fn recovery_from_mask_only_resumes_on_a_consistent_engine() {
        let n = 16;
        for prune_k in [None, Some(4)] {
            let mut config = RoomConfig::new(n, scene(n), vec![0, 1, 6]);
            config.prune_k = prune_k;
            let mut r = Room::new(config.clone(), slo(10.0));
            // two full frames warm the engine, then one miss escalates
            let base = frame(n, 70);
            r.process(0, frame(n, 69));
            r.observe_tick(1.0, 1, 1);
            r.process(1, base.clone());
            assert_eq!(r.observe_tick(50.0, 1, 1), Some((ServeLevel::Full, ServeLevel::MaskOnly)));
            // several bypassed frames: the engine never sees them
            let ticks = r.engine().ticks();
            for i in 2..6 {
                assert_eq!(r.process(i, frame(n, 70 + i)).level, ServeLevel::MaskOnly);
                r.observe_tick(50.0, 1, 1);
            }
            assert_eq!(r.engine().ticks(), ticks);
            assert_eq!(r.observe_tick(1.0, 1, 1), Some((ServeLevel::MaskOnly, ServeLevel::Full)));
            // recover on the last full frame with two movers: whatever the
            // engine carries from its pre-bypass state, it must land where a
            // fresh engine fed only this frame does
            let mut next = base;
            next.positions[2] = Point2::new(4.0, 4.0);
            next.positions[7] = Point2::new(1.0, 7.5);
            let d = r.process(6, next.clone());
            assert_eq!(d.level, ServeLevel::Full);
            assert_eq!(d.per_viewer, fresh_engine_decisions(&config, next), "prune_k {prune_k:?}");
        }
    }
}
