//! `stadium`: one 10 000-user venue room served through `RoomServer` on one
//! worker, with K = 64 shortlists for 32 viewers. The scene engine's pruned
//! path (spatial index, shortlists, restricted sweep) does almost all the
//! work; the server is a thin pass-through and the model is not used.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xr_datasets::{VenueConfig, VenueSim};
use xr_obs::Json;
use xr_serve::{RoomConfig, RoomId, RoomServer, ServeLevel, ServerConfig};
use xr_session::{Frame, SceneConfig};

use crate::run::Run;
use crate::served::{self, proximity_utility};
use crate::Outcome;

const N: usize = 10_000;
const VIEWERS: usize = 32;
const PRUNE_K: usize = 64;
const TOP_K: usize = 5;
const MAILBOX: usize = 4;
const RETAIN: usize = 2;
const SETUPS: usize = 40;
const WARMUP_FRAMES: usize = 16;
/// Frames measured per requested second (about 1.5 s of run time each on a
/// 2-core Xeon VM, so a run spans several of the host's slow and fast
/// phases).
const FRAMES_PER_SECOND: u64 = 720;
const BLOCK_FRAMES: u64 = 50;
/// Blocks traced in a traced run (each paired with an untraced one).
const TRACED_BLOCKS: usize = 40;
/// One frame in this many is checked against a from-scratch engine.
const CHECK_ONE_IN: u32 = 25;

fn room_config(venue: &VenueConfig) -> RoomConfig {
    let scene = SceneConfig {
        body_radius: venue.body_radius,
        mr_mask: venue.mr_mask(),
        room_diagonal: venue.room_diagonal(),
    };
    RoomConfig {
        n: N,
        scene,
        viewers: (0..N).step_by(N / VIEWERS).take(VIEWERS).collect(),
        top_k: TOP_K,
        mailbox_capacity: MAILBOX,
        retain_states: Some(RETAIN),
        prune_k: Some(PRUNE_K),
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        max_rooms: 1,
        workers: 1,
        slo: None,
        escalate_after: 4,
        recover_after: 32,
        series_window_rounds: 8,
    }
}

struct Setup {
    sim: VenueSim,
    server: RoomServer,
    room: RoomId,
    config: RoomConfig,
}

fn set_up(seed: u64, run: &mut Run, started: Instant) -> Setup {
    let gen_start = Instant::now();
    let sim = VenueSim::new(VenueConfig::stadium(N, seed));
    run.datasets_setup_s.push(gen_start.elapsed().as_secs_f64());
    let config = room_config(sim.config());
    let mut server = RoomServer::new(server_config());
    let room = server.admit(config.clone()).expect("stadium room is admissible");
    let mut setup = Setup { sim, server, room, config };
    for _ in 0..WARMUP_FRAMES {
        let frame = Frame::new(setup.sim.next_frame());
        setup.server.enqueue(setup.room, frame).expect("room is live");
        setup.server.pump();
    }
    run.setup_s.push(started.elapsed().as_secs_f64());
    setup
}

pub fn run(seed: u64, seconds: u64, run: &mut Run, started: Instant) -> Outcome {
    run.trace_blocks(TRACED_BLOCKS);
    // each set-up is dropped before the next, so set-up never holds two
    // rooms at once and the peak RSS is the workload's
    let mut setup = set_up(seed, run, started);
    for _ in 1..SETUPS {
        drop(setup);
        setup = set_up(seed, run, Instant::now());
    }
    let Setup { mut sim, mut server, room, config } = setup;
    let diagonal = sim.config().room_diagonal();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_C4EC);
    let frames = FRAMES_PER_SECOND * seconds.max(1);
    let mut utility_sum = 0.0;
    let mut utility_n = 0u64;
    let mut prev = sim.positions().to_vec();
    // (frame index, seq, served decision) of the frames checked after the
    // timed loop: an inline check would leave the next frame's caches cold
    let mut sampled: Vec<(u64, u64, Vec<Vec<u32>>)> = Vec::new();

    for block in 0..frames.div_ceil(BLOCK_FRAMES) {
        let trace = run.begin_block(block as usize);
        for i in block * BLOCK_FRAMES..(block + 1) * BLOCK_FRAMES {
            let gen = Instant::now();
            let positions = sim.next_frame();
            run.generated(gen.elapsed().as_secs_f64() * 1e3, 1);
            if run.traced() {
                run.movers.push(positions.iter().zip(&prev).filter(|(a, b)| a != b).count() as f64);
            }
            run.attempted += 1;
            let frame = Frame::new(positions);
            let (seq, in_at, _) = run.time("serve.enqueue", || server.enqueue(room, frame));
            let (report, _, out_at) = run.time("serve.pump", || server.pump());
            run.decided(&[(out_at - in_at).as_secs_f64() * 1e3]);

            let positions = sim.positions();
            let decision = report.rooms.first().and_then(|d| d.decisions.first());
            match decision {
                Some(d) if Some(d.seq) == seq && d.level == ServeLevel::Full => {
                    for (slot, rec) in d.per_viewer.iter().enumerate() {
                        utility_sum += proximity_utility(positions, config.viewers[slot], rec, diagonal);
                        utility_n += 1;
                    }
                    if rng.gen_range(0..CHECK_ONE_IN) == 0 {
                        sampled.push((i, d.seq, served::recommended(&d.per_viewer)));
                    }
                }
                _ => run.check_failed(format!("frame {seq:?}: not decided at full level")),
            }
            prev.clear();
            prev.extend_from_slice(positions);
        }
        run.end_block(trace);
    }

    served::check_accounting(run, &server);
    drop((sim, server));
    // replay the generator to the sampled frames and check them
    let mut replay = VenueSim::new(VenueConfig::stadium(N, seed));
    for _ in 0..WARMUP_FRAMES {
        replay.next_frame();
    }
    let mut next = 0;
    for (i, seq, decided) in &sampled {
        while next <= *i {
            replay.next_frame();
            next += 1;
        }
        if served::oracle_decisions(&config, replay.positions()) != *decided {
            run.check_failed(format!("frame {seq}: decision differs from scratch engine"));
        }
    }

    let layers = served::layers(run, VIEWERS as u64, 1);
    let utility = if utility_n > 0 { utility_sum / utility_n as f64 } else { 0.0 };
    Outcome {
        after_utility: utility,
        layers,
        knobs: Json::obj()
            .set("n", N)
            .set("viewers", VIEWERS)
            .set("prune_k", PRUNE_K)
            .set("top_k", TOP_K)
            .set("mailbox_capacity", MAILBOX)
            .set("retain_states", RETAIN)
            .set("workers", 1usize)
            .set("slo", "none")
            .set("incremental", true)
            .set("snap_epsilon", 0.0)
            .set("venue", "VenueConfig::stadium defaults (churn 0.002, teleport 0.001)")
            .set("frames", frames)
            .set("setups", SETUPS)
            .set("warmup_frames", WARMUP_FRAMES)
            .set("checked_frames", sampled.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use xr_graph::geom::Point2;

    fn digest(seed: u64) -> u64 {
        let mut sim = VenueSim::new(VenueConfig::stadium(N, seed));
        let frames: Vec<Vec<Point2>> = (0..4).map(|_| sim.next_frame()).collect();
        stats::frame_digest(frames.iter().map(Vec::as_slice))
    }

    #[test]
    fn stadium_frames_are_deterministic_in_the_seed() {
        assert_eq!(digest(3), digest(3));
        assert_ne!(digest(3), digest(4));
    }
}
