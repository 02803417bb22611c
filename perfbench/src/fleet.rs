//! `fleet`: several hundred small rooms (12 users, 3 viewers, dense scene
//! path) on a two-worker `RoomServer`. Rooms churn on the cadence of the
//! repository's 1k-room soak test (every 20 rounds 1/32 of the rooms leave
//! and as many new ones are admitted), and a share of rooms send a burst of
//! 2–3 frames into a 2-frame mailbox, so coalescing is exercised. Server
//! scheduling and per-room overhead dominate; each admitted room pays one
//! full scene build.

use std::collections::BTreeMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xr_datasets::{VenueConfig, VenueKind, VenueSim};
use xr_graph::geom::Point2;
use xr_obs::Json;
use xr_serve::{RoomConfig, RoomId, RoomServer, ServeLevel, ServerConfig};
use xr_session::{Frame, SceneConfig};

use crate::run::Run;
use crate::served::{self, proximity_utility};
use crate::Outcome;

/// Rooms served per round. A round this long (about 15 ms on a 2-vCPU VM)
/// lets the other worker absorb a briefly stalled vCPU, so the tail tracks
/// the median instead of the host's stall rate.
const ROOMS: usize = 768;
const N: usize = 12;
const VIEWERS: [usize; 3] = [0, 4, 8];
const TOP_K: usize = 5;
const MAILBOX: usize = 2;
const RETAIN: usize = 2;
const WORKERS: usize = 2;
const SETUPS: usize = 40;
const WARMUP_ROUNDS: usize = 4;
/// Churn, as in the 1k-room soak test (`tests/room_soak.rs`: 32 of 1024
/// rooms every 20 rounds): every `CHURN_EVERY` rounds `CHURN_ROOMS` seeded
/// rooms leave, then as many new rooms are admitted.
const CHURN_EVERY: u64 = 20;
const CHURN_ROOMS: usize = ROOMS / 32;
/// Per-round probabilities that a room sends 2 or 3 frames instead of 1.
/// An assumption, not a measured rate: no client send trace is available.
const BURST2_PROB: f64 = 0.10;
const BURST3_PROB: f64 = 0.05;
/// Rounds measured per requested second.
const ROUNDS_PER_SECOND: u64 = 60;
const BLOCK_ROUNDS: u64 = 4;
/// Blocks traced in a traced run (each paired with an untraced one).
const TRACED_BLOCKS: usize = 20;
/// One decided frame in this many is checked against a from-scratch engine.
const CHECK_ONE_IN: u32 = 50;

/// A small conference room: 12 users on an 8 m floor.
fn venue(seed: u64) -> VenueConfig {
    VenueConfig {
        kind: VenueKind::Concert,
        n: N,
        seed,
        room_side: 8.0,
        body_radius: 0.25,
        mr_fraction: 0.5,
        max_step: 0.15,
        churn_prob: 0.01,
        teleport_prob: 0.005,
    }
}

fn room_config(venue: &VenueConfig) -> RoomConfig {
    RoomConfig {
        n: N,
        scene: SceneConfig {
            body_radius: venue.body_radius,
            mr_mask: venue.mr_mask(),
            room_diagonal: venue.room_diagonal(),
        },
        viewers: VIEWERS.to_vec(),
        top_k: TOP_K,
        mailbox_capacity: MAILBOX,
        retain_states: Some(RETAIN),
        prune_k: Some(0),
    }
}

/// One client: its room and the generator feeding it.
struct Client {
    id: RoomId,
    sim: VenueSim,
    /// The last frame its engine was given (for mover counts).
    last: Vec<Point2>,
}

struct Fleet {
    server: RoomServer,
    /// Every room's configuration: rooms share their scene constants and
    /// differ only in their generators.
    config: RoomConfig,
    clients: Vec<Client>,
    /// Rooms admitted so far; seeds each new room's generator.
    opened: u64,
    /// Seconds spent creating the rooms' generators.
    gen_s: f64,
}

impl Fleet {
    fn admit(&mut self, seed: u64, run: &mut Run) -> Client {
        let gen = Instant::now();
        let sim = VenueSim::new(venue(seed ^ self.opened.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        self.gen_s += gen.elapsed().as_secs_f64();
        self.opened += 1;
        let config = self.config.clone();
        let (id, _, _) = run.time("serve.admit", || self.server.admit(config));
        Client { id: id.expect("fleet stays under max_rooms"), sim, last: Vec::new() }
    }
}

fn set_up(seed: u64, workers: usize, run: &mut Run, started: Instant) -> Fleet {
    let server = RoomServer::new(ServerConfig {
        max_rooms: 2 * ROOMS,
        workers,
        slo: None,
        escalate_after: 4,
        recover_after: 32,
        series_window_rounds: 8,
    });
    let config = room_config(&venue(seed));
    let mut fleet = Fleet { server, config, clients: Vec::with_capacity(ROOMS), opened: 0, gen_s: 0.0 };
    for _ in 0..ROOMS {
        let client = fleet.admit(seed, run);
        fleet.clients.push(client);
    }
    for _ in 0..WARMUP_ROUNDS {
        for c in &mut fleet.clients {
            let positions = c.sim.next_frame();
            c.last = positions.clone();
            fleet.server.enqueue(c.id, Frame::new(positions)).expect("room is live");
        }
        fleet.server.pump();
    }
    run.datasets_setup_s.push(fleet.gen_s);
    run.setup_s.push(started.elapsed().as_secs_f64());
    fleet
}

/// A decided frame picked for the output check.
struct Sampled {
    room: RoomId,
    seq: u64,
    positions: Vec<Point2>,
    decided: Vec<Vec<u32>>,
}

pub fn run(seed: u64, seconds: u64, run: &mut Run, started: Instant) -> Outcome {
    run.trace_blocks(TRACED_BLOCKS);
    let workers = WORKERS.min(crate::env::nproc());
    // each set-up is dropped before the next, so set-up never holds two
    // fleets at once and the peak RSS is the workload's
    let mut fleet = set_up(seed, workers, run, started);
    for _ in 1..SETUPS {
        drop(fleet);
        fleet = set_up(seed, workers, run, Instant::now());
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF1EE_7000);
    let rounds = ROUNDS_PER_SECOND * seconds.max(1);
    let mut utility_sum = 0.0;
    let mut utility_n = 0u64;
    // sampled frames, checked after their block so the reference engines
    // are never traced
    let mut pending: Vec<Sampled> = Vec::new();
    let mut checked = 0u64;
    let mut churned = 0u64;
    // the round's frames, and for each a copy of its positions if the
    // mailbox will keep it (the newest MAILBOX of a burst; coalesced frames
    // are never decided)
    let mut frames: Vec<(RoomId, Frame)> = Vec::new();
    let mut kept: Vec<(RoomId, Option<Vec<Point2>>)> = Vec::new();
    // (seq, enqueue instant) of each of the round's frames
    let mut enqueued: Vec<(Option<u64>, Instant)> = Vec::new();
    // per room: (seq, enqueue instant, positions) of the frames that will be
    // decided this round
    let mut sent: BTreeMap<RoomId, Vec<(u64, Instant, Vec<Point2>)>> = BTreeMap::new();
    let mut latencies = Vec::new();
    let mut round = 0u64;

    for block in 0..rounds.div_ceil(BLOCK_ROUNDS) as usize {
        let trace = run.begin_block(block);
        for _ in 0..BLOCK_ROUNDS {
            // churn: departures, then their replacements
            if round > 0 && round.is_multiple_of(CHURN_EVERY) {
                for _ in 0..CHURN_ROOMS {
                    let id = fleet.clients.swap_remove(rng.gen_range(0..fleet.clients.len())).id;
                    let (left, _, _) = run.time("serve.leave", || fleet.server.leave(id));
                    if !left {
                        run.check_failed(format!("room {id:?} was not live at leave"));
                    }
                }
                for _ in 0..CHURN_ROOMS {
                    let client = fleet.admit(seed, run);
                    fleet.clients.push(client);
                    churned += 1;
                }
            }
            round += 1;
            // one closed-loop client per room; some send a burst. The whole
            // round is generated first, so only enqueue and pump fall inside
            // a frame's latency.
            kept.clear();
            for c in &mut fleet.clients {
                let roll = rng.gen::<f64>();
                let burst = if roll < BURST3_PROB {
                    3
                } else if roll < BURST3_PROB + BURST2_PROB {
                    2
                } else {
                    1
                };
                for k in 0..burst {
                    let gen = Instant::now();
                    let positions = c.sim.next_frame();
                    run.generated(gen.elapsed().as_secs_f64() * 1e3, 1);
                    kept.push((c.id, (burst - k <= MAILBOX).then(|| positions.clone())));
                    frames.push((c.id, Frame::new(positions)));
                }
            }
            run.attempted += frames.len() as u64;
            enqueued.clear();
            for (id, frame) in frames.drain(..) {
                let (seq, at, _) = run.time("serve.enqueue", || fleet.server.enqueue(id, frame));
                enqueued.push((seq, at));
            }
            let (report, _, out_at) = run.time("serve.pump", || fleet.server.pump());

            sent.clear();
            for (&(seq, at), (id, positions)) in enqueued.iter().zip(kept.drain(..)) {
                match (seq, positions) {
                    (None, _) => run.check_failed(format!("room {id:?} refused a frame")),
                    (Some(seq), Some(positions)) => sent.entry(id).or_default().push((seq, at, positions)),
                    (Some(_), None) => {}
                }
            }
            latencies.clear();
            for drain in &report.rooms {
                let expected = sent.remove(&drain.room).unwrap_or_default();
                let client =
                    fleet.clients.iter_mut().find(|c| c.id == drain.room).expect("drained a live room");
                if drain.decisions.len() != expected.len() {
                    run.check_failed(format!(
                        "room {:?}: {} decisions for {} frames",
                        drain.room,
                        drain.decisions.len(),
                        expected.len()
                    ));
                }
                for (d, (seq, at, positions)) in drain.decisions.iter().zip(expected) {
                    if d.seq != seq || d.level != ServeLevel::Full {
                        run.check_failed(format!(
                            "room {:?}: frame {seq} answered by {} at {:?}",
                            drain.room, d.seq, d.level
                        ));
                        continue;
                    }
                    latencies.push((out_at - at).as_secs_f64() * 1e3);
                    let diagonal = client.sim.config().room_diagonal();
                    for (slot, rec) in d.per_viewer.iter().enumerate() {
                        utility_sum += proximity_utility(&positions, VIEWERS[slot], rec, diagonal);
                        utility_n += 1;
                    }
                    if run.traced() {
                        let moved = if client.last.is_empty() {
                            N
                        } else {
                            positions.iter().zip(&client.last).filter(|(a, b)| a != b).count()
                        };
                        run.movers.push(moved as f64);
                    }
                    if rng.gen_range(0..CHECK_ONE_IN) == 0 {
                        let decided = served::recommended(&d.per_viewer);
                        pending.push(Sampled {
                            room: drain.room,
                            seq,
                            positions: positions.clone(),
                            decided,
                        });
                    }
                    client.last = positions;
                }
            }
            if !sent.is_empty() {
                run.check_failed(format!("{} rooms with frames were not drained", sent.len()));
            }
            run.decided(&latencies);
        }
        run.end_block(trace);
        for Sampled { room, seq, positions, decided } in pending.drain(..) {
            checked += 1;
            if served::oracle_decisions(&fleet.config, &positions) != decided {
                run.check_failed(format!("room {room:?} frame {seq}: differs from scratch engine"));
            }
        }
    }

    served::check_accounting(run, &fleet.server);
    let layers = served::layers(run, VIEWERS.len() as u64, workers);
    let utility = if utility_n > 0 { utility_sum / utility_n as f64 } else { 0.0 };
    Outcome {
        after_utility: utility,
        layers,
        knobs: Json::obj()
            .set("rooms", ROOMS)
            .set("n", N)
            .set("viewers", VIEWERS.len())
            .set("prune_k", 0usize)
            .set("top_k", TOP_K)
            .set("mailbox_capacity", MAILBOX)
            .set("retain_states", RETAIN)
            .set("workers", workers)
            .set("slo", "none")
            .set("incremental", true)
            .set("snap_epsilon", 0.0)
            .set("churn_every_rounds", CHURN_EVERY)
            .set("churn_rooms", CHURN_ROOMS)
            .set("burst2_prob", BURST2_PROB)
            .set("burst3_prob", BURST3_PROB)
            .set("rounds", rounds)
            .set("setups", SETUPS)
            .set("warmup_rounds", WARMUP_ROUNDS)
            .set("rooms_churned", churned)
            .set("checked_frames", checked),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    fn digest(seed: u64) -> u64 {
        let mut sim = VenueSim::new(venue(seed));
        let frames: Vec<Vec<Point2>> = (0..8).map(|_| sim.next_frame()).collect();
        stats::frame_digest(frames.iter().map(Vec::as_slice))
    }

    #[test]
    fn room_frames_are_deterministic_in_the_seed() {
        assert_eq!(digest(11), digest(11));
        assert_ne!(digest(11), digest(12));
    }
}
