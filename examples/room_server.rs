//! Multi-room serving demo: admit a fleet of concurrent `SceneEngine` rooms,
//! pump frames through the worker pool, and print the scheduler's own
//! accounting next to the `serve.*` metric export.
//!
//! Run with: `cargo run --release --example room_server -- --rooms=256 --ticks=120`
//!
//! Useful knobs:
//!   --rooms=N       concurrent rooms (default 256)
//!   --ticks=N       pump rounds (default 120)
//!   --budget-ms=F   per-frame SLO budget; enables the degradation ladder
//!                   (AFTER_SLO_BUDGET_MS when the flag is absent; omit both
//!                   for the fully deterministic no-shedding mode)
//!   AFTER_THREADS   worker-pool width (default: available parallelism)
//!
//! Both variables are parsed here, in `main`, and passed to the server as
//! `ServerConfig` values.

use after_xr::xr_graph::geom::Point2;
use after_xr::xr_obs::{self, slo, ObsOptions};
use after_xr::xr_serve::{RoomConfig, RoomServer, ServerConfig};
use after_xr::xr_session::{Frame, SceneConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ROOM_N: usize = 8;

fn walk_frame(room_seed: u64, tick: u64) -> Frame {
    let mut rng = StdRng::seed_from_u64(room_seed ^ tick.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let positions =
        (0..ROOM_N).map(|_| Point2::new(rng.gen_range(-4.0..4.0), rng.gen_range(-4.0..4.0))).collect();
    Frame::new(positions)
}

fn main() {
    let mut rooms = 256usize;
    let mut ticks = 120u64;
    let mut budget_ms: Option<f64> = None;
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--rooms=") {
            rooms = v.parse().expect("--rooms=N");
        } else if let Some(v) = arg.strip_prefix("--ticks=") {
            ticks = v.parse().expect("--ticks=N");
        } else if let Some(v) = arg.strip_prefix("--budget-ms=") {
            budget_ms = Some(slo::parse_budget_ms(v).expect("--budget-ms=F (a positive number)"));
        } else {
            eprintln!("unknown argument {arg} (expected --rooms=, --ticks=, --budget-ms=)");
            std::process::exit(2);
        }
    }

    // metrics registry for the serve.* namespace; --trace/--metrics envs of
    // the table binaries are not needed here, we print the snapshot directly
    let ctx = xr_obs::ObsCtx::new(true, false);
    let _guard = ctx.install();

    let budget_ms = budget_ms.or(ObsOptions::from_env().slo_budget_ms);
    let mut server = RoomServer::new(ServerConfig {
        max_rooms: rooms,
        workers: xr_obs::threads_from_env(),
        slo: budget_ms.map(slo::SloConfig::new),
        ..ServerConfig::default()
    });
    println!(
        "admitting {rooms} rooms ({} workers, budget {})",
        server.config().workers,
        match &server.config().slo {
            Some(cfg) => format!("{} ms", cfg.budget_ms),
            None => "none — ladder inert".to_string(),
        }
    );

    let scene = SceneConfig {
        body_radius: 0.2,
        mr_mask: (0..ROOM_N).map(|i| i % 2 == 0).collect(),
        room_diagonal: 8.0 * std::f64::consts::SQRT_2,
    };
    let ids: Vec<_> = (0..rooms)
        .map(|_| server.admit(RoomConfig::new(ROOM_N, scene.clone(), vec![0, 3])).expect("under the cap"))
        .collect();

    let start = std::time::Instant::now();
    let mut processed = 0usize;
    for round in 0..ticks {
        for &id in &ids {
            server.enqueue(id, walk_frame(id.0, round));
        }
        processed += server.pump().frames();
    }
    let elapsed = start.elapsed().as_secs_f64();

    let stats = server.stats();
    println!(
        "{processed} frames over {ticks} rounds in {elapsed:.2}s ({:.0} frames/s)",
        processed as f64 / elapsed
    );
    println!(
        "stats: enqueued {} coalesced {} shed {} level-transitions {}",
        stats.enqueued, stats.coalesced, stats.shed, stats.transitions
    );

    let snapshot = xr_obs::metrics_snapshot().expect("metrics context installed");
    if let Some(tick) = snapshot.histogram("serve.room.tick.ms") {
        println!(
            "tick latency: p50 {:.4} ms  p95 {:.4} ms  p99 {:.4} ms  max {:.4} ms",
            tick.p50, tick.p95, tick.p99, tick.max
        );
    }
    println!("\nserve.* metric export:");
    for (key, c) in &snapshot.counters {
        let name = key.display();
        if name.starts_with("serve.") || name.starts_with("slo.serve.") {
            println!("  counter {name} = {c}");
        }
    }
    for (key, g) in &snapshot.gauges {
        let name = key.display();
        if name.starts_with("serve.") || name.starts_with("slo.serve.") {
            println!("  gauge   {name} = {g}");
        }
    }
}
