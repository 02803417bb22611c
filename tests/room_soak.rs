//! Soak and determinism suite for the multi-room serving layer.
//!
//! The soak test drives 1k+ concurrent rooms through hundreds of pump rounds
//! under join/leave churn, once on 1 worker and once on 8, and asserts the
//! serving SLO holds (p99 tick within budget), shedding stays under a pinned
//! ceiling, and — once every room has left — the registry gauges drain back
//! to zero. Every worker count is an explicit `ServerConfig::workers` value,
//! so one process covers them all. The determinism test runs
//! the same workload at `workers = 1` and `workers = 8` and requires
//! byte-identical per-room decision streams plus an identical
//! metrics-snapshot structure. Both fleets alternate their rooms between no
//! shortlist cap and an explicit `K = n−1` cap, so both settings are served
//! under churn.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xr_graph::geom::Point2;
use xr_obs::ObsCtx;
use xr_serve::{Decision, RoomConfig, RoomId, RoomServer, ServerConfig};
use xr_session::{Frame, SceneConfig};

/// Participants per soak room (kept small: the soak stresses room *count*
/// and churn, not per-room scene size).
const ROOM_N: usize = 8;

fn soak_scene() -> SceneConfig {
    SceneConfig {
        body_radius: 0.2,
        mr_mask: (0..ROOM_N).map(|i| i % 2 == 0).collect(),
        room_diagonal: 8.0 * std::f64::consts::SQRT_2,
    }
}

/// A soak room; every odd-numbered admission (`index`) caps its shortlists
/// at `K = n−1`, the rest run uncapped.
fn soak_room(index: usize) -> RoomConfig {
    let mut config = RoomConfig::new(ROOM_N, soak_scene(), vec![0, 3]);
    if index % 2 == 1 {
        config.prune_k = Some(ROOM_N - 1);
    }
    config
}

/// A deterministic per-room random-walk frame: positions are a pure function
/// of `(room_seed, tick)`, so every worker count sees the same streams.
fn walk_frame(room_seed: u64, tick: u64) -> Frame {
    let mut rng = StdRng::seed_from_u64(room_seed ^ tick.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let positions =
        (0..ROOM_N).map(|_| Point2::new(rng.gen_range(-4.0..4.0), rng.gen_range(-4.0..4.0))).collect();
    Frame::new(positions)
}

#[test]
fn soak_1k_rooms_with_churn_holds_slo_and_drains_cleanly() {
    for workers in [1, 8] {
        churn_soak(workers);
    }
}

/// One churn soak on `workers` pool workers under a fresh metrics context.
fn churn_soak(workers: usize) {
    const ROOMS: usize = 1024;
    const ROUNDS: u64 = 220;
    const CHURN_EVERY: u64 = 20;
    const CHURN_ROOMS: usize = 32;
    const BUDGET_MS: f64 = 250.0;
    /// Frames the scheduler may shed over the whole soak before the test
    /// fails — the generous budget should make shedding rare to nonexistent.
    const SHED_CEILING: u64 = 64;

    let ctx = ObsCtx::new(true, false);
    let _guard = ctx.install();

    let mut server = RoomServer::new(ServerConfig {
        max_rooms: ROOMS + CHURN_ROOMS,
        workers,
        slo: Some(xr_obs::SloConfig::new(BUDGET_MS)),
        ..ServerConfig::default()
    });

    // seed the fleet; each room's walk stream is keyed by its (never reused)
    // room id, so churn replacements get fresh trajectories
    let mut active: Vec<RoomId> =
        (0..ROOMS).map(|i| server.admit(soak_room(i)).expect("seed admission under the cap")).collect();
    let mut admitted = ROOMS;

    let mut rng = StdRng::seed_from_u64(0x50AC_2026);
    let mut frames_sent: u64 = 0;
    for round in 0..ROUNDS {
        // churn: a slice of rooms leaves, replacements join
        if round > 0 && round % CHURN_EVERY == 0 {
            for _ in 0..CHURN_ROOMS {
                let slot = rng.gen_range(0..active.len());
                let id = active.swap_remove(slot);
                assert!(server.leave(id), "active room {id:?} must be removable");
            }
            for _ in 0..CHURN_ROOMS {
                active.push(server.admit(soak_room(admitted)).expect("churn admission under the cap"));
                admitted += 1;
            }
        }

        for &id in &active {
            server.enqueue(id, walk_frame(id.0, round));
            frames_sent += 1;
        }
        let report = server.pump();
        assert!(report.frames() > 0, "a loaded round must process frames");
    }

    let stats = server.stats();
    assert_eq!(stats.enqueued, frames_sent);
    assert!(
        stats.shed <= SHED_CEILING,
        "{workers} workers: shed {} frames over the soak (ceiling {SHED_CEILING})",
        stats.shed
    );
    // everything sent was either served or (rarely) shed/coalesced
    assert_eq!(stats.processed + stats.shed + stats.coalesced, frames_sent);

    let mid = xr_obs::metrics_snapshot().expect("metrics context is installed");
    let tick = mid.histogram("serve.room.tick.ms").expect("tick histogram exists");
    assert_eq!(tick.count, stats.processed);
    assert!(
        tick.p99 <= BUDGET_MS,
        "{workers} workers: p99 tick {}ms blew the {BUDGET_MS}ms budget",
        tick.p99
    );
    assert_eq!(mid.gauge("serve.rooms.active"), Some(active.len() as f64));

    // drain: every room leaves; the registry gauges must return to zero and
    // no pending frames may survive their rooms
    for id in active.drain(..) {
        assert!(server.leave(id));
    }
    assert_eq!(server.room_count(), 0);
    assert_eq!(server.pending_total(), 0);
    let end = xr_obs::metrics_snapshot().expect("metrics context is installed");
    assert_eq!(end.gauge("serve.rooms.active"), Some(0.0));
    assert_eq!(end.gauge("serve.rooms.degraded"), Some(0.0));
    assert_eq!(end.gauge("serve.mailbox.pending"), Some(0.0));
}

/// Runs a fixed 64-room × 48-round workload (no churn, no budget) at the
/// given worker count under a fresh metrics context; returns every room's
/// decision stream plus the metrics snapshot.
fn run_fixed_workload(workers: usize) -> (Vec<(u64, Vec<Decision>)>, xr_obs::MetricsSnapshot) {
    const ROOMS: usize = 64;
    const ROUNDS: u64 = 48;

    let ctx = ObsCtx::new(true, false);
    let _guard = ctx.install();

    let mut server = RoomServer::new(ServerConfig {
        max_rooms: ROOMS,
        workers,
        slo: None, // ladder inert: determinism must not depend on timing
        ..ServerConfig::default()
    });
    let ids: Vec<RoomId> =
        (0..ROOMS).map(|i| server.admit(soak_room(i)).expect("admission under the cap")).collect();

    let mut streams: Vec<(u64, Vec<Decision>)> = ids.iter().map(|id| (id.0, Vec::new())).collect();
    for round in 0..ROUNDS {
        for &id in &ids {
            server.enqueue(id, walk_frame(id.0, round));
        }
        for drain in server.pump().rooms {
            let slot = ids.iter().position(|id| *id == drain.room).unwrap();
            streams[slot].1.extend(drain.decisions);
        }
    }
    let snapshot = xr_obs::metrics_snapshot().expect("metrics context is installed");
    (streams, snapshot)
}

/// Runs the stadium workload (one room, N = 10k, pruned K = 64) at the
/// given worker count under a fresh metrics context.
fn run_stadium_workload(workers: usize, frames: &[Vec<Point2>]) -> (Vec<Decision>, xr_obs::MetricsSnapshot) {
    const STADIUM_N: usize = 10_000;
    let venue = xr_datasets::VenueConfig::stadium(STADIUM_N, 0xCAFE);
    let scene = SceneConfig {
        body_radius: venue.body_radius,
        mr_mask: venue.mr_mask(),
        room_diagonal: venue.room_diagonal(),
    };
    // 32 viewers spread across the bowl
    let viewers: Vec<usize> = (0..STADIUM_N).step_by(STADIUM_N / 32).take(32).collect();
    let mut config = RoomConfig::new(STADIUM_N, scene, viewers);
    config.prune_k = Some(64);

    let ctx = ObsCtx::new(true, false);
    let _guard = ctx.install();
    let mut server = RoomServer::new(ServerConfig {
        max_rooms: 1,
        workers,
        slo: None, // p99 is asserted from the histogram, not the ladder
        ..ServerConfig::default()
    });
    let id = server.admit(config).expect("stadium admission");
    let mut stream = Vec::new();
    for frame in frames {
        server.enqueue(id, Frame::new(frame.clone()));
        for drain in server.pump().rooms {
            stream.extend(drain.decisions);
        }
    }
    let snapshot = xr_obs::metrics_snapshot().expect("metrics context is installed");
    assert_eq!(server.stats().enqueued, frames.len() as u64);
    assert_eq!(server.stats().processed, frames.len() as u64, "stadium room must shed nothing");
    (stream, snapshot)
}

#[test]
fn stadium_room_at_10k_users_serves_pruned_within_budget_and_deterministically() {
    const ROUNDS: usize = 24;
    const BUDGET_MS: f64 = 250.0;

    let mut sim = xr_datasets::VenueSim::new(xr_datasets::VenueConfig::stadium(10_000, 0xCAFE));
    let frames: Vec<Vec<Point2>> = (0..ROUNDS).map(|_| sim.next_frame()).collect();

    let (serial, snap1) = run_stadium_workload(1, &frames);
    let (threaded, snap8) = run_stadium_workload(8, &frames);

    // exact frame accounting: one decision per frame, in order, at Full level
    assert_eq!(serial.len(), ROUNDS);
    for (t, d) in serial.iter().enumerate() {
        assert_eq!(d.seq, t as u64);
        assert_eq!(d.level, xr_serve::ServeLevel::Full);
        assert_eq!(d.per_viewer.len(), 32);
    }
    // worker-count determinism on the full decision stream
    assert_eq!(serial, threaded, "stadium decisions diverged between 1 and 8 workers");
    let counts = |s: &xr_obs::MetricsSnapshot| {
        s.histograms.iter().map(|(k, h)| (k.display(), h.count)).collect::<Vec<_>>()
    };
    assert_eq!(counts(&snap1), counts(&snap8));

    let tick = snap1.histogram("serve.room.tick.ms").expect("tick histogram exists");
    assert_eq!(tick.count, ROUNDS as u64);
    // latency budget only means something on optimized builds
    if !cfg!(debug_assertions) {
        assert!(tick.p99 <= BUDGET_MS, "p99 stadium tick {}ms blew the {BUDGET_MS}ms budget", tick.p99);
    }
}

#[test]
fn decision_streams_are_identical_at_one_and_eight_workers() {
    let (serial, snap1) = run_fixed_workload(1);
    let (threaded, snap8) = run_fixed_workload(8);

    assert_eq!(serial.len(), threaded.len());
    for ((id_a, stream_a), (id_b, stream_b)) in serial.iter().zip(&threaded) {
        assert_eq!(id_a, id_b);
        assert_eq!(stream_a, stream_b, "room {id_a}: decision streams diverged between 1 and 8 workers");
    }

    // the metrics structure must be worker-count independent too: same
    // counter rows with the same totals, same gauge rows, same histogram
    // rows with the same counts (timings differ; shapes and totals may not)
    assert_eq!(snap1.counters, snap8.counters);
    assert_eq!(snap1.gauges, snap8.gauges);
    let names = |s: &xr_obs::MetricsSnapshot| {
        s.histograms.iter().map(|(k, h)| (k.display(), h.count)).collect::<Vec<_>>()
    };
    assert_eq!(names(&snap1), names(&snap8));
}
