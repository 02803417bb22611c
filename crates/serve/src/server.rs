//! The room manager: admission control, per-room mailboxes, and pump rounds
//! over the pinned deterministic worker pool.
//!
//! ## Scheduling model
//!
//! The server is driven in explicit **rounds**: the ingest side enqueues
//! frames into per-room mailboxes at any time ([`RoomServer::enqueue`]), and
//! each [`RoomServer::pump`] call drains every room with pending frames.
//! Rooms are collected in room-id order and mapped over
//! [`crate::par::par_map_indexed`] with the worker count **pinned at server
//! construction** ([`ServerConfig::workers`]), so a full multi-room run
//! produces byte-identical per-room decision streams at any worker count
//! (each room is one independent cell; nothing crosses rooms mid-round).
//!
//! ## Admission control and load shedding
//!
//! [`RoomServer::admit`] rejects rooms beyond `max_rooms` — the server
//! refuses work it cannot schedule rather than letting every room's latency
//! collapse. Under a configured [`ServerConfig::slo`] budget, rooms that
//! persistently miss their per-frame deadline walk down the degradation
//! ladder (see [`crate::room`]); a room still over budget at the cheapest
//! rung has its backlog shed to the newest frame on each drain. Every
//! admission, coalesce, shed, and ladder decision is counted in the
//! `serve.*` metrics, windowed by round through the `xr_obs` timeseries, and
//! therefore surfaced by the Prometheus exporter.

use std::collections::BTreeMap;
use std::sync::Mutex;

use xr_session::Frame;

use crate::par;
use crate::room::{Decision, Room, RoomConfig, ServeLevel};

/// Server-wide configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Admission cap: rooms beyond this are rejected.
    pub max_rooms: usize,
    /// Worker count for pump rounds, pinned at construction. Defaults to
    /// [`std::thread::available_parallelism`]; binaries that honour
    /// `AFTER_THREADS` pass [`xr_obs::threads_from_env`] here.
    pub workers: usize,
    /// Per-frame latency budget; `None` (the default) disables the ladder
    /// and shedding entirely. Binaries that honour `AFTER_SLO_BUDGET_MS`
    /// pass the budget [`xr_obs::ObsOptions`] parsed here.
    pub slo: Option<xr_obs::SloConfig>,
    /// Consecutive over-budget frames before a room drops one ladder rung.
    pub escalate_after: u32,
    /// Consecutive in-budget frames before a room climbs one rung back.
    pub recover_after: u32,
    /// Pump rounds per timeseries window for the `serve.*` series.
    pub series_window_rounds: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_rooms: 2048,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            slo: None,
            escalate_after: 4,
            recover_after: 32,
            series_window_rounds: 8,
        }
    }
}

/// Opaque room handle: monotonically increasing, never reused, so a stale
/// handle from a departed room can never address a newer tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RoomId(pub u64);

/// Why [`RoomServer::admit`] refused a room.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The server is at `max_rooms`.
    AtCapacity {
        /// The configured cap.
        max_rooms: usize,
    },
    /// The room config is unservable (no viewers, or a frame width of 0).
    Invalid(String),
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::AtCapacity { max_rooms } => write!(f, "server at capacity ({max_rooms} rooms)"),
            AdmitError::Invalid(why) => write!(f, "unservable room config: {why}"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// One room's output from a pump round.
#[derive(Debug)]
pub struct RoomDrain {
    /// Which room.
    pub room: RoomId,
    /// Decisions for every frame processed this round, in sequence order.
    pub decisions: Vec<Decision>,
    /// Frames shed from this room's backlog this round.
    pub shed: u64,
    /// The room's ladder level after the round.
    pub level: ServeLevel,
}

/// A whole pump round's output, in room-id order.
#[derive(Debug)]
pub struct PumpReport {
    /// Round index (1-based; incremented per [`RoomServer::pump`]).
    pub round: u64,
    /// Per-room drains for every room that had pending frames.
    pub rooms: Vec<RoomDrain>,
}

impl PumpReport {
    /// Total frames processed this round.
    pub fn frames(&self) -> usize {
        self.rooms.iter().map(|r| r.decisions.len()).sum()
    }
}

/// Aggregate server counters (monotonic, for tests and the bench section —
/// the authoritative export is the `serve.*` metric namespace).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Rooms admitted over the server's lifetime.
    pub admitted: u64,
    /// Admissions refused.
    pub rejected: u64,
    /// Rooms that have left.
    pub closed: u64,
    /// Frames accepted into mailboxes.
    pub enqueued: u64,
    /// Frames coalesced away by full mailboxes.
    pub coalesced: u64,
    /// Frames processed to a decision.
    pub processed: u64,
    /// Frames shed by over-budget rooms.
    pub shed: u64,
    /// Ladder transitions (either direction) across all rooms.
    pub transitions: u64,
}

/// The multi-room serving front end. See the module docs.
pub struct RoomServer {
    config: ServerConfig,
    rooms: BTreeMap<u64, Mutex<Room>>,
    next_id: u64,
    round: u64,
    stats: ServerStats,
}

impl RoomServer {
    /// A server with the given configuration.
    pub fn new(config: ServerConfig) -> RoomServer {
        assert!(config.workers >= 1, "server needs at least one worker");
        assert!(config.series_window_rounds >= 1, "series window must be at least one round");
        RoomServer { config, rooms: BTreeMap::new(), next_id: 0, round: 0, stats: ServerStats::default() }
    }

    /// The pinned configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Currently admitted rooms.
    pub fn room_count(&self) -> usize {
        self.rooms.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Admits a room, or explains why not. Counted (and windowed) as
    /// `serve.admit.accepted` / `serve.admit.rejected`.
    pub fn admit(&mut self, room: RoomConfig) -> Result<RoomId, AdmitError> {
        let window = self.series_window();
        if room.n == 0 {
            return self.reject(window, AdmitError::Invalid("frame width 0".into()));
        }
        if room.viewers.is_empty() {
            return self.reject(window, AdmitError::Invalid("no registered viewers".into()));
        }
        if let Some(&v) = room.viewers.iter().find(|&&v| v >= room.n) {
            return self
                .reject(window, AdmitError::Invalid(format!("viewer {v} out of range (n={})", room.n)));
        }
        if self.rooms.len() >= self.config.max_rooms {
            return self.reject(window, AdmitError::AtCapacity { max_rooms: self.config.max_rooms });
        }
        let slo = self.config.slo.clone().map(|cfg| xr_obs::SloTracker::new("serve.room.tick", cfg, &[]));
        let id = self.next_id;
        self.next_id += 1;
        self.rooms.insert(id, Mutex::new(Room::new(room, slo)));
        self.stats.admitted += 1;
        xr_obs::counter_add("serve.admit.accepted", &[], 1);
        xr_obs::series_counter_add("serve.admit.accepted", &[], window, 1);
        xr_obs::gauge_set("serve.rooms.active", &[], self.rooms.len() as f64);
        Ok(RoomId(id))
    }

    fn reject(&mut self, window: u64, err: AdmitError) -> Result<RoomId, AdmitError> {
        self.stats.rejected += 1;
        xr_obs::counter_add("serve.admit.rejected", &[], 1);
        xr_obs::series_counter_add("serve.admit.rejected", &[], window, 1);
        Err(err)
    }

    /// Removes a room. Pending frames are discarded with it. Returns whether
    /// the id was live.
    pub fn leave(&mut self, id: RoomId) -> bool {
        let existed = self.rooms.remove(&id.0).is_some();
        if existed {
            self.stats.closed += 1;
            xr_obs::counter_add("serve.rooms.closed", &[], 1);
            xr_obs::gauge_set("serve.rooms.active", &[], self.rooms.len() as f64);
            self.refresh_pending_gauge();
        }
        existed
    }

    /// Enqueues one frame for a room. Returns the assigned mailbox sequence
    /// number, or `None` for a dead room id.
    ///
    /// # Panics
    ///
    /// Panics when the frame width differs from the room's `n` (the same
    /// contract as [`xr_session::SceneEngine::push`], enforced early so the
    /// bad frame is attributed to the ingest site, not a later pump round).
    pub fn enqueue(&mut self, id: RoomId, frame: Frame) -> Option<u64> {
        let room = self.rooms.get_mut(&id.0)?;
        let room = room.get_mut().expect("room poisoned");
        assert_eq!(frame.positions.len(), room.config().n, "frame width mismatch for room {}", id.0);
        let outcome = room.mailbox_mut().enqueue(frame);
        self.stats.enqueued += 1;
        xr_obs::counter_add("serve.frames.enqueued", &[], 1);
        if outcome.coalesced.is_some() {
            self.stats.coalesced += 1;
            xr_obs::counter_add("serve.mailbox.coalesced", &[], 1);
            xr_obs::series_counter_add("serve.mailbox.coalesced", &[], self.series_window(), 1);
        }
        Some(outcome.seq)
    }

    /// Drains every room with pending frames on the pinned worker pool.
    /// Returns the round's decisions in room-id order.
    pub fn pump(&mut self) -> PumpReport {
        self.round += 1;
        let round = self.round;
        let window = self.series_window();
        let _span = xr_obs::span!("serve.pump", round = round, rooms = self.rooms.len());
        let (escalate_after, recover_after) = (self.config.escalate_after, self.config.recover_after);

        // deterministic work list: BTreeMap iteration is id-ordered
        let ready: Vec<(u64, &Mutex<Room>)> = self
            .rooms
            .iter()
            .filter(|(_, r)| r.lock().expect("room poisoned").pending() > 0)
            .map(|(&id, r)| (id, r))
            .collect();

        let drains = par::par_map_indexed(self.config.workers, ready.len(), |i| {
            let (id, slot) = ready[i];
            let mut room = slot.lock().expect("room poisoned");
            let mut decisions = Vec::with_capacity(room.pending());
            let mut shed_this_round = 0u64;
            if room.is_shedding(escalate_after) {
                let (survivor, shed) = room.mailbox_mut().drain_keep_newest();
                shed_this_round += shed;
                room.note_shed(shed);
                if let Some(sf) = survivor {
                    decisions.push(timed_frame(
                        &mut room,
                        sf.seq,
                        sf.frame,
                        escalate_after,
                        recover_after,
                        window,
                    ));
                }
            } else {
                while let Some(sf) = room.mailbox_mut().pop() {
                    decisions.push(timed_frame(
                        &mut room,
                        sf.seq,
                        sf.frame,
                        escalate_after,
                        recover_after,
                        window,
                    ));
                }
            }
            if shed_this_round > 0 {
                xr_obs::counter_add("serve.shed.frames", &[], shed_this_round);
                xr_obs::series_counter_add("serve.shed.frames", &[], window, shed_this_round);
            }
            xr_obs::counter_add("serve.frames.processed", &[], decisions.len() as u64);
            xr_obs::series_counter_add("serve.frames.processed", &[], window, decisions.len() as u64);
            RoomDrain { room: RoomId(id), decisions, shed: shed_this_round, level: room.level() }
        });

        for drain in &drains {
            self.stats.processed += drain.decisions.len() as u64;
            self.stats.shed += drain.shed;
        }
        self.stats.transitions =
            self.rooms.values().map(|r| r.lock().expect("room poisoned").transitions()).sum();
        self.refresh_pending_gauge();
        let degraded = self
            .rooms
            .values()
            .filter(|r| r.lock().expect("room poisoned").level() != ServeLevel::Full)
            .count();
        xr_obs::gauge_set("serve.rooms.degraded", &[], degraded as f64);
        PumpReport { round, rooms: drains }
    }

    /// Reads a room under its lock; `None` for a dead id. The differential
    /// and soak suites use this to compare engines and ladder state.
    pub fn with_room<R>(&self, id: RoomId, f: impl FnOnce(&Room) -> R) -> Option<R> {
        self.rooms.get(&id.0).map(|m| f(&m.lock().expect("room poisoned")))
    }

    /// Total pending frames across all mailboxes.
    pub fn pending_total(&self) -> usize {
        self.rooms.values().map(|r| r.lock().expect("room poisoned").pending()).sum()
    }

    fn refresh_pending_gauge(&self) {
        xr_obs::gauge_set("serve.mailbox.pending", &[], self.pending_total() as f64);
    }

    fn series_window(&self) -> u64 {
        self.round / self.config.series_window_rounds
    }
}

/// Processes one frame with wall-clock timing fed back into the room's SLO
/// tracker and ladder policy, and into the shared `serve.room.tick.ms`
/// histogram (the p50/p99 source for the bench section and the soak test).
fn timed_frame(
    room: &mut Room,
    seq: u64,
    frame: Frame,
    escalate_after: u32,
    recover_after: u32,
    window: u64,
) -> Decision {
    let start = std::time::Instant::now();
    let decision = room.process(seq, frame);
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    xr_obs::observe("serve.room.tick.ms", &[], elapsed_ms);
    if let Some((from, to)) = room.observe_tick(elapsed_ms, escalate_after, recover_after) {
        let direction = if to > from { "serve.degrade.escalate" } else { "serve.degrade.recover" };
        xr_obs::counter_add(direction, &[("to", to.name())], 1);
        xr_obs::series_counter_add("serve.degrade.transitions", &[], window, 1);
        xr_obs::warn_event!("serve.room.level_change", from = from.name(), to = to.name(), seq = seq);
    }
    decision
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use xr_graph::geom::Point2;
    use xr_session::SceneConfig;

    fn scene(n: usize) -> SceneConfig {
        SceneConfig { body_radius: 0.25, mr_mask: (0..n).map(|i| i % 2 == 0).collect(), room_diagonal: 10.0 }
    }

    fn frame(n: usize, seed: u64) -> Frame {
        let mut rng = StdRng::seed_from_u64(seed);
        Frame::new((0..n).map(|_| Point2::new(rng.gen_range(0.0..8.0), rng.gen_range(0.0..8.0))).collect())
    }

    fn quiet_config(workers: usize, max_rooms: usize) -> ServerConfig {
        ServerConfig { max_rooms, workers, slo: None, ..ServerConfig::default() }
    }

    #[test]
    fn admission_caps_and_counts() {
        let ctx = xr_obs::ObsCtx::new(true, false);
        let _g = ctx.install();
        let mut server = RoomServer::new(quiet_config(2, 2));
        let a = server.admit(RoomConfig::new(6, scene(6), vec![0])).unwrap();
        let b = server.admit(RoomConfig::new(6, scene(6), vec![1])).unwrap();
        assert_ne!(a, b);
        let err = server.admit(RoomConfig::new(6, scene(6), vec![2])).unwrap_err();
        assert_eq!(err, AdmitError::AtCapacity { max_rooms: 2 });
        // a departure frees a slot, and the new handle is fresh
        assert!(server.leave(a));
        assert!(!server.leave(a), "double leave is a no-op");
        let c = server.admit(RoomConfig::new(6, scene(6), vec![2])).unwrap();
        assert!(c > b);
        let snap = ctx.registry.snapshot();
        assert_eq!(snap.counter("serve.admit.accepted"), Some(3));
        assert_eq!(snap.counter("serve.admit.rejected"), Some(1));
        assert_eq!(snap.gauge("serve.rooms.active"), Some(2.0));
    }

    #[test]
    fn invalid_rooms_are_rejected_with_reasons() {
        let mut server = RoomServer::new(quiet_config(1, 8));
        assert!(matches!(server.admit(RoomConfig::new(0, scene(0), vec![])), Err(AdmitError::Invalid(_))));
        assert!(matches!(server.admit(RoomConfig::new(4, scene(4), vec![])), Err(AdmitError::Invalid(_))));
        assert!(matches!(server.admit(RoomConfig::new(4, scene(4), vec![9])), Err(AdmitError::Invalid(_))));
        assert_eq!(server.stats().rejected, 3);
    }

    #[test]
    fn pump_drains_rooms_in_id_order() {
        let mut server = RoomServer::new(quiet_config(4, 16));
        let ids: Vec<RoomId> =
            (0..5).map(|i| server.admit(RoomConfig::new(6, scene(6), vec![i % 6])).unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            server.enqueue(id, frame(6, i as u64)).unwrap();
            server.enqueue(id, frame(6, 100 + i as u64)).unwrap();
        }
        let report = server.pump();
        assert_eq!(report.round, 1);
        assert_eq!(report.rooms.len(), 5);
        assert_eq!(report.frames(), 10);
        let drained: Vec<RoomId> = report.rooms.iter().map(|d| d.room).collect();
        assert_eq!(drained, ids, "room-id order");
        for drain in &report.rooms {
            assert_eq!(drain.decisions.len(), 2);
            assert_eq!(drain.decisions[0].seq, 0);
            assert_eq!(drain.decisions[1].seq, 1);
            assert_eq!(drain.level, ServeLevel::Full);
        }
        assert_eq!(server.pending_total(), 0);
        // an empty round does nothing
        assert_eq!(server.pump().frames(), 0);
    }

    #[test]
    fn enqueue_to_dead_room_is_none_and_width_mismatch_panics() {
        let mut server = RoomServer::new(quiet_config(1, 4));
        let id = server.admit(RoomConfig::new(6, scene(6), vec![0])).unwrap();
        server.leave(id);
        assert_eq!(server.enqueue(id, frame(6, 1)), None);
        let id2 = server.admit(RoomConfig::new(6, scene(6), vec![0])).unwrap();
        let panics = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut s = RoomServer::new(quiet_config(1, 4));
            let rid = s.admit(RoomConfig::new(6, scene(6), vec![0])).unwrap();
            s.enqueue(rid, frame(5, 1));
        }));
        assert!(panics.is_err());
        assert!(server.enqueue(id2, frame(6, 1)).is_some());
    }

    #[test]
    fn worker_counts_do_not_change_decisions() {
        let run = |workers: usize| -> Vec<Vec<Decision>> {
            let mut server = RoomServer::new(quiet_config(workers, 32));
            let ids: Vec<RoomId> = (0..12)
                .map(|i| server.admit(RoomConfig::new(8, scene(8), vec![i % 8, (i + 3) % 8])).unwrap())
                .collect();
            let mut streams: Vec<Vec<Decision>> = vec![Vec::new(); ids.len()];
            for t in 0..6u64 {
                for (k, &id) in ids.iter().enumerate() {
                    server.enqueue(id, frame(8, 1000 * (k as u64 + 1) + t)).unwrap();
                }
                let report = server.pump();
                for drain in report.rooms {
                    let idx = ids.iter().position(|&i| i == drain.room).unwrap();
                    streams[idx].extend(drain.decisions);
                }
            }
            streams
        };
        let one = run(1);
        let eight = run(8);
        assert_eq!(one, eight, "decision streams must be identical at any worker count");
    }

    #[test]
    fn backlogged_rooms_coalesce_and_metrics_see_it() {
        let ctx = xr_obs::ObsCtx::new(true, false);
        let _g = ctx.install();
        let mut server = RoomServer::new(quiet_config(2, 4));
        let mut cfg = RoomConfig::new(6, scene(6), vec![0]);
        cfg.mailbox_capacity = 2;
        let id = server.admit(cfg).unwrap();
        for t in 0..7 {
            server.enqueue(id, frame(6, t)).unwrap();
        }
        // capacity 2: seqs 0..=4 coalesced away, 5 and 6 survive
        assert_eq!(server.stats().coalesced, 5);
        let report = server.pump();
        let seqs: Vec<u64> = report.rooms[0].decisions.iter().map(|d| d.seq).collect();
        assert_eq!(seqs, vec![5, 6]);
        let snap = ctx.registry.snapshot();
        assert_eq!(snap.counter("serve.mailbox.coalesced"), Some(5));
        assert_eq!(snap.counter("serve.frames.processed"), Some(2));
        assert_eq!(snap.gauge("serve.mailbox.pending"), Some(0.0));
    }

    #[test]
    fn budgeted_server_walks_rooms_down_the_ladder() {
        // a sub-microsecond budget makes every frame a miss: the room must
        // reach the cheapest rung and start shedding its backlog
        let ctx = xr_obs::ObsCtx::new(true, false);
        let _g = ctx.install();
        let mut config = quiet_config(2, 4);
        config.slo = Some(xr_obs::SloConfig::new(1e-9));
        config.escalate_after = 2;
        let mut server = RoomServer::new(config);
        let mut cfg = RoomConfig::new(10, scene(10), vec![0, 1]);
        cfg.mailbox_capacity = 8;
        let id = server.admit(cfg).unwrap();
        let mut seen_levels = Vec::new();
        for t in 0..12u64 {
            server.enqueue(id, frame(10, t)).unwrap();
            let report = server.pump();
            if let Some(drain) = report.rooms.first() {
                seen_levels.push(drain.level);
            }
        }
        assert_eq!(seen_levels.first(), Some(&ServeLevel::Full));
        assert_eq!(seen_levels.last(), Some(&ServeLevel::MaskOnly));
        // now stack a backlog: a shedding room keeps only the newest frame
        for t in 100..105u64 {
            server.enqueue(id, frame(10, t)).unwrap();
        }
        let report = server.pump();
        assert_eq!(report.rooms[0].decisions.len(), 1);
        assert_eq!(report.rooms[0].shed, 4);
        let snap = ctx.registry.snapshot();
        assert_eq!(snap.counter("serve.shed.frames"), Some(4));
        assert_eq!(snap.counter("serve.degrade.escalate{to=mask_only}"), Some(1));
        assert_eq!(snap.counter("serve.degrade.recover{to=full}"), None);
        assert!(snap.counter("slo.serve.room.tick.deadline_miss").unwrap() >= 12);
        assert!(snap.histogram("serve.room.tick.ms").unwrap().count >= 12);
    }
}
