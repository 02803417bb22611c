//! One served room: a [`SceneEngine`] behind a mailbox, plus the SLO-driven
//! degradation ladder.
//!
//! ## Degradation ladder
//!
//! A room serves at one of three levels, ordered by cost:
//!
//! 1. [`ServeLevel::Full`] — the f64 [`SceneEngine`] ingests the frame
//!    (bit-exact shared scene state) and each registered viewer gets a
//!    top-k-nearest recommendation over their candidate mask.
//! 2. [`ServeLevel::ServeF32`] — the engine is bypassed; the per-viewer
//!    scene quantities are re-derived in f32 (`xr_session::serve32` SIMD
//!    kernels: distance row, occlusion graph, candidate mask) and the same
//!    top-k decision runs on f32 distances.
//! 3. [`ServeLevel::MaskOnly`] — cheapest: an O(N) f32 distance row and the
//!    coarse candidate set (everyone but the viewer and coincident users),
//!    with no occlusion pruning and no scoring. An over-approximation served
//!    only under pressure.
//!
//! Past the last rung the scheduler sheds whole frames: a room that is
//! *still* persistently over budget at [`ServeLevel::MaskOnly`] has its
//! backlog collapsed to the newest frame on every drain.
//!
//! Escalation is driven by the measured per-frame latency against the
//! `AFTER_SLO_BUDGET_MS` budget (via [`xr_obs::SloTracker`], so every miss
//! also lands in the `slo.serve.room.tick.*` metrics): `escalate_after`
//! consecutive misses move the room one rung down, `recover_after`
//! consecutive in-budget frames move it one rung back up. Without a
//! configured budget the policy is inert and every room stays at
//! [`ServeLevel::Full`] — which is also what the determinism and
//! differential suites pin, since degradation decisions depend on wall
//! clock.

use xr_session::serve32::{
    candidate_mask_f32, candidate_mask_f32_shortlist, distance_row_f32, occlusion_graph_f32, shortlist_f32,
};
use xr_session::{Frame, SceneConfig, SceneEngine};

use crate::mailbox::FrameMailbox;

/// Serving level — the degradation ladder, cheapest last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ServeLevel {
    /// f64 engine ingest + top-k-nearest over the exact candidate mask.
    Full,
    /// f32 serve kernels + top-k-nearest; the engine is bypassed.
    ServeF32,
    /// f32 distance row + coarse candidate set; no occlusion, no scoring.
    MaskOnly,
}

impl ServeLevel {
    /// Stable label for metrics.
    pub fn name(self) -> &'static str {
        match self {
            ServeLevel::Full => "full",
            ServeLevel::ServeF32 => "serve_f32",
            ServeLevel::MaskOnly => "mask_only",
        }
    }

    /// One rung cheaper, saturating at [`ServeLevel::MaskOnly`].
    pub fn degraded(self) -> ServeLevel {
        match self {
            ServeLevel::Full => ServeLevel::ServeF32,
            _ => ServeLevel::MaskOnly,
        }
    }

    /// One rung richer, saturating at [`ServeLevel::Full`].
    pub fn recovered(self) -> ServeLevel {
        match self {
            ServeLevel::MaskOnly => ServeLevel::ServeF32,
            _ => ServeLevel::Full,
        }
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
    /// Crowd-scale shortlist size handed to [`SceneEngine::set_prune_k`]:
    /// `Some(k)` makes the room's engine build per-viewer K-candidate
    /// shortlists instead of dense full-scene state (and the f32 rung serve
    /// from the same shortlists); `None` (like `Some(0)`) keeps the dense
    /// full-N payload, the engine's default. Stadium-scale rooms must set
    /// this — the dense path allocates an N×N distance matrix per retained
    /// tick.
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
/// deterministic). This is the serving-side decision rule shared by the
/// scheduler and the sequential reference the differential subject drives.
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

/// [`decide_topk_f64`] on the f32 serve-path distance row.
pub fn decide_topk_f32(mask: &[bool], distances: &[f32], k: usize) -> Vec<bool> {
    let mut candidates: Vec<usize> = (0..mask.len()).filter(|&w| mask[w]).collect();
    candidates.sort_by(|&a, &b| distances[a].total_cmp(&distances[b]).then(a.cmp(&b)));
    candidates.truncate(k);
    let mut out = vec![false; mask.len()];
    for w in candidates {
        out[w] = true;
    }
    out
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
    /// f32 scratch (structure-of-arrays positions for the serve kernels).
    xs: Vec<f32>,
    ys: Vec<f32>,
}

impl Room {
    pub(crate) fn new(config: RoomConfig, slo: Option<xr_obs::SloTracker>) -> Room {
        let mut engine = SceneEngine::new(config.n, config.scene.clone(), &config.viewers);
        // the room times whole frames itself (decision included, at every
        // ladder level); an engine-level tracker would double-count
        engine.set_slo(None);
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
            xs: vec![0.0; config.n],
            ys: vec![0.0; config.n],
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
                let (engine, viewers, k) = (&self.engine, &self.viewers, self.config.top_k);
                viewers
                    .iter()
                    .map(|&v| {
                        let view = engine.view(v, t);
                        if let Some(cs) = view.candidates() {
                            // pruned engine: the shortlist already carries the
                            // mask and distances of its K members
                            let mut out = vec![false; engine.n()];
                            for w in cs.decide_topk(k) {
                                out[w as usize] = true;
                            }
                            out
                        } else {
                            decide_topk_f64(view.candidate_mask(), view.distances(), k)
                        }
                    })
                    .collect()
            }
            ServeLevel::ServeF32 => {
                self.load_f32(&frame);
                let prune_k = self.engine.prune_k();
                let mut row = vec![0.0f32; self.config.n];
                self.viewers
                    .iter()
                    .map(|&v| {
                        distance_row_f32(self.xs[v], self.ys[v], &self.xs, &self.ys, &mut row);
                        if prune_k > 0 {
                            // pruned f32 rung: shortlist the K nearest, then
                            // run the occlusion mask on members only — O(N + K²)
                            let ids = shortlist_f32(v, &row, prune_k);
                            let mask = candidate_mask_f32_shortlist(
                                v,
                                self.config.scene.mr_mask[v],
                                &ids,
                                &row,
                                &self.xs,
                                &self.ys,
                                self.config.scene.body_radius as f32,
                                &self.config.scene.mr_mask,
                            );
                            let mut members: Vec<u32> =
                                ids.iter().zip(&mask).filter(|&(_, &m)| m).map(|(&w, _)| w).collect();
                            members.sort_by(|&a, &b| {
                                row[a as usize].total_cmp(&row[b as usize]).then(a.cmp(&b))
                            });
                            members.truncate(self.config.top_k);
                            let mut out = vec![false; self.config.n];
                            for w in members {
                                out[w as usize] = true;
                            }
                            out
                        } else {
                            let graph = occlusion_graph_f32(
                                v,
                                &self.xs,
                                &self.ys,
                                self.config.scene.body_radius as f32,
                            );
                            let mask = candidate_mask_f32(
                                v,
                                self.config.scene.mr_mask[v],
                                &row,
                                &graph,
                                &self.config.scene.mr_mask,
                            );
                            decide_topk_f32(&mask, &row, self.config.top_k)
                        }
                    })
                    .collect()
            }
            ServeLevel::MaskOnly => {
                self.load_f32(&frame);
                let mut row = vec![0.0f32; self.config.n];
                self.viewers
                    .iter()
                    .map(|&v| {
                        distance_row_f32(self.xs[v], self.ys[v], &self.xs, &self.ys, &mut row);
                        // coarse candidate set: everyone except the viewer
                        // and coincident users; no occlusion, no ranking
                        (0..self.config.n).map(|w| w != v && row[w] >= 1e-9).collect()
                    })
                    .collect()
            }
        };
        let seq_decision = Decision { seq, level, per_viewer };
        self.frames_processed += 1;
        seq_decision
    }

    fn load_f32(&mut self, frame: &Frame) {
        for (i, p) in frame.positions.iter().enumerate() {
            self.xs[i] = p.x as f32;
            self.ys[i] = p.y as f32;
        }
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
    use xr_graph::geom::Point2;

    fn room(n: usize, budget_ms: Option<f64>) -> Room {
        let scene = SceneConfig {
            body_radius: 0.25,
            mr_mask: (0..n).map(|i| i % 2 == 0).collect(),
            room_diagonal: 10.0,
        };
        let config = RoomConfig::new(n, scene, vec![0, 1]);
        let slo =
            budget_ms.map(|b| xr_obs::SloTracker::new("serve.room.tick", xr_obs::SloConfig::new(b), &[]));
        Room::new(config, slo)
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
        let d32: Vec<f32> = d.iter().map(|&x| x as f32).collect();
        assert_eq!(decide_topk_f32(&mask, &d32, 2), out);
        // k larger than the candidate set recommends everyone eligible
        assert_eq!(decide_topk_f64(&mask, &d, 10).iter().filter(|&&b| b).count(), 4);
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
        let mut reference = SceneEngine::new(10, r.config().scene.clone(), &[0, 1]);
        reference.push(f);
        let view = reference.view(0, 0);
        let expect = decide_topk_f64(view.candidate_mask(), view.distances(), 5);
        assert_eq!(d.per_viewer[0], expect);
    }

    #[test]
    fn pruned_room_at_full_k_matches_the_dense_room() {
        let n = 12;
        let mut dense = room(n, None);
        let scene = dense.config().scene.clone();
        let mut config = RoomConfig::new(n, scene, vec![0, 1]);
        config.prune_k = Some(n - 1);
        let mut pruned = Room::new(config, None);
        for i in 0..6 {
            let f = frame(n, 100 + i);
            let d_dense = dense.process(i, f.clone());
            let d_pruned = pruned.process(i, f);
            assert_eq!(d_pruned.per_viewer, d_dense.per_viewer, "frame {i}");
        }
    }

    #[test]
    fn pruned_room_serves_from_the_shortlist_at_small_k() {
        let n = 16;
        let scene = SceneConfig {
            body_radius: 0.25,
            mr_mask: (0..n).map(|i| i % 2 == 0).collect(),
            room_diagonal: 10.0,
        };
        let mut config = RoomConfig::new(n, scene, vec![0]);
        config.prune_k = Some(4);
        config.top_k = 3;
        let mut r = Room::new(config, None);
        let d = r.process(0, frame(n, 7));
        assert_eq!(d.level, ServeLevel::Full);
        let recommended: Vec<usize> = (0..n).filter(|&w| d.per_viewer[0][w]).collect();
        assert!(recommended.len() <= 3);
        // every recommendation comes from the 4-member shortlist
        let view = r.engine().view(0, 0);
        let cs = view.candidates().expect("pruned engine exposes shortlists");
        for w in recommended {
            assert!(cs.contains(w), "recommended user {w} outside the shortlist");
        }
    }

    #[test]
    fn pruned_f32_rung_matches_the_dense_f32_rung_at_full_k() {
        let n = 10;
        let scene = SceneConfig {
            body_radius: 0.25,
            mr_mask: (0..n).map(|i| i % 2 == 0).collect(),
            room_diagonal: 10.0,
        };
        let mut dense = Room::new(RoomConfig::new(n, scene.clone(), vec![0, 1]), None);
        let mut config = RoomConfig::new(n, scene, vec![0, 1]);
        config.prune_k = Some(n - 1);
        let mut pruned = Room::new(config, None);
        // force both rooms onto the f32 rung without the wall-clock policy
        dense.level = ServeLevel::ServeF32;
        pruned.level = ServeLevel::ServeF32;
        for i in 0..4 {
            let f = frame(n, 40 + i);
            let d_dense = dense.process(i, f.clone());
            let d_pruned = pruned.process(i, f);
            assert_eq!(d_dense.level, ServeLevel::ServeF32);
            assert_eq!(d_pruned.per_viewer, d_dense.per_viewer, "frame {i}");
        }
    }

    #[test]
    fn ladder_escalates_on_misses_and_recovers_on_calm() {
        let mut r = room(8, Some(10.0));
        // 4 consecutive injected misses → one rung down
        for i in 0..4 {
            r.process(i, frame(8, i));
            let change = r.observe_tick(50.0, 4, 8);
            if i < 3 {
                assert_eq!(change, None);
            } else {
                assert_eq!(change, Some((ServeLevel::Full, ServeLevel::ServeF32)));
            }
        }
        assert_eq!(r.level(), ServeLevel::ServeF32);
        // 4 more misses → the last rung
        for i in 4..8 {
            r.process(i, frame(8, i));
            r.observe_tick(50.0, 4, 8);
        }
        assert_eq!(r.level(), ServeLevel::MaskOnly);
        // still missing at the last rung → shedding
        for i in 8..12 {
            r.process(i, frame(8, i));
            r.observe_tick(50.0, 4, 8);
        }
        assert!(r.is_shedding(4));
        // calm frames walk the room back up, one rung per recovery window
        for i in 12..20 {
            r.process(i, frame(8, i));
            r.observe_tick(1.0, 4, 8);
        }
        assert_eq!(r.level(), ServeLevel::ServeF32);
        assert!(!r.is_shedding(4));
        for i in 20..28 {
            r.process(i, frame(8, i));
            r.observe_tick(1.0, 4, 8);
        }
        assert_eq!(r.level(), ServeLevel::Full);
        assert_eq!(r.transitions(), 4);
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
        let d = r.process(4, frame(8, 4));
        assert_eq!(d.level, ServeLevel::ServeF32);
        assert_eq!(r.engine().ticks(), ticks_before, "f32 path must not touch the f64 engine");
        assert_eq!(d.per_viewer[0].len(), 8);
    }
}
