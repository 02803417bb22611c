//! Machine-readable performance summary for the repo's hot paths: blocked
//! vs. naive matmul on the shapes the models multiply, CSR SpMM vs. dense
//! matmul of the same operator, grid vs. brute-force crowd neighbor queries,
//! the POSHGNN recommend step, serial vs. parallel experiment cells, cached
//! vs. uncached training epochs, shared scene-engine context builds,
//! crowd-scale K-candidate pruned serving vs. complete shortlists on stadium
//! frames, and the cost of running with observability installed vs.
//! without.
//!
//! Writes one JSON summary to the required `--out=PATH` via the `xr_obs`
//! JSON exporter and prints it to stdout. There is no default path, so a
//! run can never overwrite a committed `BENCH_pr*.json` by accident;
//! historical summaries stay as published. All "before" numbers are the
//! pre-overhaul code paths, which are kept callable behind flags
//! (`matmul_naive`, `use_spatial_grid: false`, `workers: 1`,
//! `fresh_mia`/`fresh_tape`), so the comparison runs both sides in one
//! build. Compare two summaries with the `bench_compare` binary.
//!
//! Usage: `cargo run --release -p xr-eval --bin bench_summary -- --out=PATH`
//! Accepts `--trace[=PATH]` / `--metrics[=PATH]` (or `AFTER_TRACE` /
//! `AFTER_METRICS`) to additionally capture the instrumented kernels'
//! own telemetry while the benchmarks run.

use std::time::Instant;

use poshgnn::{PoshGnn, PoshGnnConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xr_crowd::{Agent, CrowdSimulator, Room, SimConfig};
use xr_datasets::{Dataset, DatasetKind, ScenarioConfig};
use xr_eval::runner::{build_contexts, pick_targets, run_comparison, run_method, ComparisonConfig};
use xr_graph::geom::Point2;
use xr_obs::json::{num3, Json};
use xr_tensor::{CsrAdj, Matrix};

/// The upper median of `v`.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// Median wall-clock milliseconds of `f` over `reps` runs (after one warmup).
fn time_ms<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f(); // warmup
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect()).unwrap()
}

/// Register-tiled vs. naive matmul on products the code runs at the paper's
/// N = 200: LWP's first `X·W` (16 input columns), a DCRNN gate's `[x ‖ h]·W`
/// (12 columns), and GraFrank's `E·Eᵀ` score table. Every graph operator is
/// CSR, so no N × N dense operand is ever multiplied and none is timed here.
/// These products take microseconds, so each sample batches ~16 M
/// multiply-adds, the two arms alternate sample by sample, and `speedup` is
/// the median of the per-pair ratios: a burst of host load then skews one
/// pair, not a whole arm.
fn bench_matmul() -> Json {
    let mut rng = StdRng::seed_from_u64(1);
    let shapes = [(200usize, 16usize, 8usize), (200, 12, 8), (200, 8, 200)];
    let rows: Vec<Json> = shapes
        .iter()
        .map(|&(m, k, n)| {
            let a = random_matrix(m, k, &mut rng);
            let b = random_matrix(k, n, &mut rng);
            let iters = (16_000_000 / (m * k * n)).max(1);
            let batch = |naive: bool| {
                let start = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(if naive { a.matmul_naive(&b) } else { a.matmul(&b) });
                }
                start.elapsed().as_secs_f64() * 1e3 / iters as f64
            };
            batch(true); // warmup
            batch(false);
            let pairs: Vec<(f64, f64)> = (0..15).map(|_| (batch(true), batch(false))).collect();
            Json::obj()
                .set("m", m)
                .set("k", k)
                .set("n", n)
                .set("naive_ms", num3(median(pairs.iter().map(|p| p.0).collect())))
                .set("blocked_ms", num3(median(pairs.iter().map(|p| p.1).collect())))
                .set("speedup", num3(median(pairs.iter().map(|p| p.0 / p.1).collect())))
        })
        .collect();
    Json::from(rows)
}

fn bench_spmm() -> Json {
    // adjacency with ~6 neighbors per node, the occlusion-graph regime
    let n = 500usize;
    let cols = 16usize;
    let mut rng = StdRng::seed_from_u64(2);
    let mut entries = Vec::new();
    for i in 0..n {
        for _ in 0..6 {
            entries.push((i, rng.gen_range(0..n), 1.0));
        }
    }
    let csr = CsrAdj::from_entries(n, n, &entries).row_normalized();
    let dense = csr.to_dense();
    let x = random_matrix(n, cols, &mut rng);
    let dense_ms = time_ms(9, || {
        std::hint::black_box(dense.matmul(&x));
    });
    let sparse_ms = time_ms(9, || {
        std::hint::black_box(csr.matmul_dense(&x));
    });
    Json::obj()
        .set("n", n)
        .set("cols", cols)
        .set("nnz", csr.nnz())
        .set("dense_ms", num3(dense_ms))
        .set("sparse_ms", num3(sparse_ms))
        .set("speedup", num3(dense_ms / sparse_ms))
}

fn bench_crowd() -> Json {
    let n = 500usize;
    let mut rng = StdRng::seed_from_u64(3);
    let room = 22.0; // ~1 agent/m², the paper's dense-room regime
    let agents: Vec<Agent> = (0..n)
        .map(|_| {
            Agent::new(
                Point2::new(rng.gen_range(0.5..room - 0.5), rng.gen_range(0.5..room - 0.5)),
                Point2::new(rng.gen_range(0.5..room - 0.5), rng.gen_range(0.5..room - 0.5)),
            )
        })
        .collect();
    let steps = 10;
    let run = |use_grid: bool| {
        let config = SimConfig { use_spatial_grid: use_grid, ..SimConfig::default() };
        time_ms(3, || {
            let mut sim = CrowdSimulator::new(agents.clone(), Room::new(room, room), config);
            for _ in 0..steps {
                sim.step();
            }
            std::hint::black_box(sim.positions());
        })
    };
    let brute_ms = run(false);
    let grid_ms = run(true);
    Json::obj()
        .set("n", n)
        .set("steps", steps as u64)
        .set("brute_ms", num3(brute_ms))
        .set("grid_ms", num3(grid_ms))
        .set("speedup", num3(brute_ms / grid_ms))
}

/// The POSHGNN recommend step's absolute cost. It has no second arm, so it
/// carries no `speedup` and `bench_compare` does not gate it.
fn bench_poshgnn_step() -> Json {
    let dataset = Dataset::generate(DatasetKind::Timik, 2);
    let sizes = [100usize, 200];
    let rows: Vec<Json> = sizes
        .iter()
        .map(|&n| {
            let scenario_cfg =
                ScenarioConfig { n_participants: n, time_steps: 30, seed: 11, ..ScenarioConfig::default() };
            let scenario = dataset.sample_scenario(&scenario_cfg);
            let ctxs = build_contexts(&scenario, &pick_targets(&scenario, 2, 7), 0.5);
            let mut model = PoshGnn::new(PoshGnnConfig::default());
            model.train(&ctxs, 2); // params only; step cost is training-independent
            Json::obj().set("n", n).set("sparse_ms_per_step", num3(run_method(&mut model, &ctxs).ms_per_step))
        })
        .collect();
    Json::from(rows)
}

/// Steady-state per-epoch training wall time for two configurations: train
/// identically seeded models for 1 and 4 epochs and difference, so model
/// construction, the MIA slab precompute, and pool warm-up (one-time costs)
/// cancel out. The two configurations' samples are interleaved (one of each
/// per round) so background-load drift on a shared machine hits both arms
/// equally instead of skewing whichever happened to run second, and each
/// arm reports its median over 5 samples after a discarded warmup run.
/// Returns the per-epoch medians in argument order.
fn per_epoch_ms_paired(a: PoshGnnConfig, b: PoshGnnConfig, ctxs: &[poshgnn::TargetContext]) -> (f64, f64) {
    let run = |cfg: PoshGnnConfig, epochs: usize| {
        let mut model = PoshGnn::new(cfg);
        let start = Instant::now();
        std::hint::black_box(model.train(ctxs, epochs));
        start.elapsed().as_secs_f64() * 1e3
    };
    run(a, 1); // warm the allocator and page in the dataset
    run(b, 1);
    let sample = |cfg: PoshGnnConfig| {
        let t1 = run(cfg, 1);
        let t4 = run(cfg, 4);
        ((t4 - t1) / 3.0).max(0.0)
    };
    let mut sa = Vec::new();
    let mut sb = Vec::new();
    for _ in 0..5 {
        sa.push(sample(a));
        sb.push(sample(b));
    }
    (median(sa), median(sb))
}

fn episode_contexts(n: usize, seed: u64) -> Vec<poshgnn::TargetContext> {
    let dataset = Dataset::generate(DatasetKind::Timik, 4);
    let scenario_cfg =
        ScenarioConfig { n_participants: n, time_steps: 30, seed, ..ScenarioConfig::default() };
    let scenario = dataset.sample_scenario(&scenario_cfg);
    build_contexts(&scenario, &pick_targets(&scenario, 1, 5), 0.5)
}

fn bench_train_epoch() -> Json {
    let sizes = [100usize, 200];
    let rows: Vec<Json> = sizes
        .iter()
        .map(|&n| {
            let ctxs = episode_contexts(n, 13);
            let (uncached, cached) = per_epoch_ms_paired(
                PoshGnnConfig { fresh_mia: true, fresh_tape: true, ..Default::default() },
                PoshGnnConfig { fresh_mia: false, fresh_tape: false, ..Default::default() },
                &ctxs,
            );
            Json::obj()
                .set("n", n)
                .set("time_steps", 30u64)
                .set("uncached_ms_per_epoch", num3(uncached))
                .set("cached_ms_per_epoch", num3(cached))
                .set("speedup", num3(uncached / cached))
        })
        .collect();
    Json::from(rows)
}

fn bench_tape_reuse() -> Json {
    // MIA cache on for both sides: only the tape strategy differs.
    let ctxs = episode_contexts(100, 17);
    let (fresh, pooled) = per_epoch_ms_paired(
        PoshGnnConfig { fresh_mia: false, fresh_tape: true, ..Default::default() },
        PoshGnnConfig { fresh_mia: false, fresh_tape: false, ..Default::default() },
        &ctxs,
    );
    Json::obj()
        .set("n", 100u64)
        .set("time_steps", 30u64)
        .set("fresh_tape_ms_per_epoch", num3(fresh))
        .set("pooled_tape_ms_per_epoch", num3(pooled))
        .set("speedup", num3(fresh / pooled))
}

fn bench_scene_build() -> Json {
    // Context construction for every participant in the room: the shared
    // scene engine builds each target's distance row, occlusion graph and
    // mask once per tick from one sweep each (O(N²·T) with N targets),
    // while the brute-force reference tests every arc pair per target
    // (O(N³·T)).
    let dataset = Dataset::generate(DatasetKind::Timik, 6);
    let sizes = [100usize, 200];
    let rows: Vec<Json> = sizes
        .iter()
        .map(|&n| {
            let scenario_cfg =
                ScenarioConfig { n_participants: n, time_steps: 20, seed: 21, ..ScenarioConfig::default() };
            let scenario = dataset.sample_scenario(&scenario_cfg);
            let requests: Vec<(usize, f64)> = (0..n).map(|v| (v, 0.5)).collect();
            let precompute = time_ms(3, || {
                std::hint::black_box(
                    requests
                        .iter()
                        .map(|&(target, beta)| {
                            poshgnn::TargetContext::brute_force(&scenario, target, beta, &[])
                        })
                        .collect::<Vec<_>>(),
                );
            });
            let engine = time_ms(3, || {
                std::hint::black_box(poshgnn::TargetContext::batch(&scenario, &requests));
            });
            Json::obj()
                .set("n", n)
                .set("time_steps", 20u64)
                .set("targets", n as u64)
                .set("precompute_ms", num3(precompute))
                .set("engine_ms", num3(engine))
                .set("speedup", num3(precompute / engine))
        })
        .collect();
    Json::from(rows)
}

fn bench_parallel_runner() -> Json {
    let dataset = Dataset::generate(DatasetKind::Hubs, 1);
    let cfg = ComparisonConfig {
        scenario: ScenarioConfig { n_participants: 40, time_steps: 20, seed: 9, ..ScenarioConfig::default() },
        n_targets: 2,
        train_epochs: 20,
        include_comurnet: false,
        ..ComparisonConfig::paper_defaults(ScenarioConfig::default())
    };
    let all_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let wall = |workers: usize| {
        let start = Instant::now();
        std::hint::black_box(run_comparison(&dataset, &ComparisonConfig { workers, ..cfg }));
        start.elapsed().as_secs_f64()
    };
    let serial_s = wall(1);
    let parallel_s = wall(all_cores);
    Json::obj()
        .set("methods", 7u64)
        .set("threads", all_cores)
        .set("serial_s", num3(serial_s))
        .set("parallel_s", num3(parallel_s))
        .set("speedup", num3(serial_s / parallel_s))
}

/// The observability tax on the two hottest loops at N=200: a full train
/// epoch and a full recommend step, each run with an installed
/// metrics+series+recorder [`xr_obs::ObsCtx`] and with no context at all.
/// Each round runs both arms back-to-back (min of 3 inner repeats per arm,
/// discarding scheduler spikes) and the reported numbers are the medians of
/// the per-round values over 9 rounds, so machine-load drift cannot
/// masquerade as probe overhead. The acceptance bound is <3%.
fn bench_obs_overhead() -> Json {
    let n = 200usize;
    let rounds = 9usize;
    let inner = 3usize;
    let ctxs = episode_contexts(n, 23);

    // train epoch: 1-vs-4-epoch differencing cancels one-time setup costs.
    // The minima of t1 and t4 are taken separately per arm before
    // differencing — min(t4 - t1) would pair a lucky t4 with an unlucky t1
    // and fabricate low samples.
    let train_sample = |obs_on: bool| {
        let obs = obs_on.then(|| xr_obs::ObsCtx::new(true, false));
        let _guard = obs.as_ref().map(xr_obs::ObsCtx::install);
        let run = |epochs: usize| {
            let mut model = PoshGnn::new(PoshGnnConfig::default());
            let start = Instant::now();
            std::hint::black_box(model.train(&ctxs, epochs));
            start.elapsed().as_secs_f64() * 1e3
        };
        let t1 = run(1);
        let t4 = run(4);
        (t1, t4)
    };
    train_sample(false); // warmup both arms
    train_sample(true);
    let mut train_off = (Vec::new(), Vec::new());
    let mut train_on = (Vec::new(), Vec::new());
    for round in 0..rounds {
        // alternate arms sample by sample so load ramps on a shared machine
        // penalize both arms symmetrically
        for rep in 0..2 * inner {
            let (arm, on) =
                if (rep + round) % 2 == 0 { (&mut train_off, false) } else { (&mut train_on, true) };
            let (t1, t4) = train_sample(on);
            arm.0.push(t1);
            arm.1.push(t4);
        }
    }

    // recommend step: one shared trained snapshot, measured through the same
    // run_method loop the experiment tables use
    let mut trained = PoshGnn::new(PoshGnnConfig::default());
    trained.train(&ctxs, 2);
    let snapshot = trained.export_params();
    let step_sample = |obs_on: bool| {
        let obs = obs_on.then(|| xr_obs::ObsCtx::new(true, false));
        let _guard = obs.as_ref().map(xr_obs::ObsCtx::install);
        let mut model = PoshGnn::new(PoshGnnConfig::default());
        assert!(model.import_params(&snapshot), "snapshot shape mismatch");
        run_method(&mut model, &ctxs).ms_per_step
    };
    step_sample(false);
    step_sample(true);
    let mut step_off = Vec::new();
    let mut step_on = Vec::new();
    for round in 0..rounds {
        for rep in 0..2 * inner {
            if (rep + round) % 2 == 0 {
                step_off.push(step_sample(false));
            } else {
                step_on.push(step_sample(true));
            }
        }
    }

    // The two arms interleave across the whole measurement span, so each
    // arm's minimum reflects the machine's quietest moments equally —
    // per-sample interference (co-tenants on shared runners) inflates means
    // and medians but not the interleaved minima.
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let arm = |off_ms: f64, on_ms: f64| {
        Json::obj()
            .set("off_ms", num3(off_ms))
            .set("on_ms", num3(on_ms))
            .set("overhead_pct", num3((on_ms - off_ms) / off_ms * 100.0))
    };
    let per_epoch = |(t1s, t4s): &(Vec<f64>, Vec<f64>)| ((min(t4s) - min(t1s)) / 3.0).max(0.0);
    Json::obj()
        .set("n", n)
        .set("train_epoch", arm(per_epoch(&train_off), per_epoch(&train_on)))
        .set("recommend_step", arm(min(&step_off), min(&step_on)))
}

/// Multi-room serving throughput: 1k+ concurrent `SceneEngine` rooms on
/// `workers` pool workers, one frame per room per pump round, with a generous
/// SLO budget installed so the whole admission/ladder machinery is live.
/// Reports rooms×rounds throughput and the p50/p99 of the per-frame
/// `serve.room.tick.ms` histogram against the budget.
fn bench_multi_room(workers: usize) -> Json {
    use xr_serve::{RoomConfig, RoomServer, ServerConfig};
    use xr_session::{Frame, SceneConfig};

    const ROOMS: usize = 1024;
    const ROUNDS: u64 = 60;
    const ROOM_N: usize = 8;
    const BUDGET_MS: f64 = 50.0;

    // own metrics context: the serving histogram must not mix with whatever
    // telemetry the CLI env installed for the run as a whole
    let ctx = xr_obs::ObsCtx::new(true, false);
    let _guard = ctx.install();

    let scene = SceneConfig {
        body_radius: 0.2,
        mr_mask: (0..ROOM_N).map(|i| i % 2 == 0).collect(),
        room_diagonal: 8.0 * std::f64::consts::SQRT_2,
    };
    let walk_frame = |room_seed: u64, tick: u64| {
        let mut rng = StdRng::seed_from_u64(room_seed ^ tick.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Frame::new(
            (0..ROOM_N).map(|_| Point2::new(rng.gen_range(-4.0..4.0), rng.gen_range(-4.0..4.0))).collect(),
        )
    };

    let mut server = RoomServer::new(ServerConfig {
        max_rooms: ROOMS,
        workers,
        slo: Some(xr_obs::SloConfig::new(BUDGET_MS)),
        ..ServerConfig::default()
    });
    let ids: Vec<_> = (0..ROOMS)
        .map(|_| server.admit(RoomConfig::new(ROOM_N, scene.clone(), vec![0, 3])).expect("under the cap"))
        .collect();

    let start = Instant::now();
    let mut processed = 0usize;
    for round in 0..ROUNDS {
        for &id in &ids {
            server.enqueue(id, walk_frame(id.0, round));
        }
        processed += server.pump().frames();
    }
    let wall_s = start.elapsed().as_secs_f64();

    let stats = server.stats();
    let snapshot = xr_obs::metrics_snapshot().expect("metrics context installed");
    let tick = snapshot.histogram("serve.room.tick.ms").expect("tick histogram exists");
    Json::obj()
        .set("rooms", ROOMS as u64)
        .set("rounds", ROUNDS)
        .set("room_n", ROOM_N as u64)
        .set("workers", server.config().workers)
        .set("frames", processed as u64)
        .set("frames_per_s", num3(processed as f64 / wall_s))
        .set("budget_ms", num3(BUDGET_MS))
        .set("tick_p50_ms", num3(tick.p50))
        .set("tick_p99_ms", num3(tick.p99))
        .set("tick_max_ms", num3(tick.max))
        .set("slo_missed", snapshot.counter("slo.serve.room.tick.deadline_miss").unwrap_or(0))
        .set("shed_frames", stats.shed)
        .set("degrade_transitions", stats.transitions)
}

/// Crowd-scale serving: capped K-candidate shortlists (uniform-grid
/// spatial index + K-nearest queries, `set_prune_k(K)`) vs. the uncapped
/// engine's complete shortlists (`K = N − 1`, every other user), on
/// stadium frames from the venue generator. The "full" arm is skipped at
/// N = 50k — a complete tick there sweeps all 50k users' arcs for every
/// viewer and keeps 50k members, distances and mask bits per viewer, which
/// is the point of the cap — and runs with retention 1 (the serving
/// posture) where it does run. Each timed tick
/// includes the per-viewer top-k decisions, so the rows are end-to-end
/// frame→recommendation serving cost.
fn bench_crowd_scale() -> Json {
    use xr_datasets::{VenueConfig, VenueSim};
    use xr_session::{Frame, SceneConfig, SceneEngine};

    let viewer_count = 16usize;
    let ks = [64usize, 256];
    // (n, timed ticks, run the complete-shortlist arm?)
    let configs: [(usize, usize, bool); 3] = [(1000, 12, true), (10_000, 6, true), (50_000, 3, false)];

    let rows: Vec<Json> = configs
        .iter()
        .map(|&(n, ticks, full_arm)| {
            let venue = VenueConfig::stadium(n, 0xBEEF);
            let mut sim = VenueSim::new(venue);
            let frames: Vec<Vec<_>> = (0..=ticks).map(|_| sim.next_frame()).collect();
            let scene = SceneConfig {
                body_radius: venue.body_radius,
                mr_mask: venue.mr_mask(),
                room_diagonal: venue.room_diagonal(),
            };
            let viewers: Vec<usize> = (0..viewer_count).map(|i| i * (n / viewer_count)).collect();

            // per-tick wall times for one arm; the decision per viewer is
            // inside the measurement (that's what a serving tick does)
            let run = |prune_k: usize| -> Vec<f64> {
                let mut engine = SceneEngine::new(n, scene.clone(), &viewers);
                engine.set_prune_k(prune_k);
                engine.set_state_retention(Some(1));
                engine.push(Frame::new(frames[0].clone()));
                let mut samples = Vec::with_capacity(ticks);
                for f in &frames[1..] {
                    let frame = Frame::new(f.clone());
                    let start = Instant::now();
                    let t = engine.push(frame);
                    for &v in engine.viewers() {
                        std::hint::black_box(xr_serve::decide_view(&engine.view(v, t), 5));
                    }
                    samples.push(start.elapsed().as_secs_f64() * 1e3);
                }
                samples
            };
            let stats = |samples: &[f64]| -> (f64, f64) {
                let mean = samples.iter().sum::<f64>() / samples.len() as f64;
                let mut sorted = samples.to_vec();
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let p99 = sorted[((sorted.len() as f64 * 0.99).ceil() as usize - 1).min(sorted.len() - 1)];
                (mean, p99)
            };

            let full_ms = if full_arm {
                let (mean, _) = stats(&run(0));
                Some(mean)
            } else {
                None
            };
            let k_rows: Vec<Json> = ks
                .iter()
                .map(|&k| {
                    let (mean, p99) = stats(&run(k));
                    let mut row = Json::obj()
                        .set("k", k as u64)
                        .set("pruned_ms_per_tick", num3(mean))
                        .set("p99_ms", num3(p99))
                        .set("frames_per_s", num3(1e3 / mean));
                    if let Some(full) = full_ms {
                        row = row.set("speedup", num3(full / mean));
                    }
                    row
                })
                .collect();
            let mut row =
                Json::obj().set("n", n as u64).set("ticks", ticks as u64).set("viewers", viewer_count as u64);
            if let Some(full) = full_ms {
                row = row.set("full_ms_per_tick", num3(full));
            }
            row.set("pruned", Json::from(k_rows))
        })
        .collect();
    Json::from(rows)
}

/// Output path for the summary: `--out=PATH` (or `--out PATH`) on the
/// command line. Required; `None` when it is missing.
fn out_path(mut args: impl Iterator<Item = String>) -> Option<std::path::PathBuf> {
    while let Some(arg) = args.next() {
        if let Some(path) = arg.strip_prefix("--out=") {
            return Some(path.into());
        }
        if arg == "--out" {
            return args.next().map(Into::into);
        }
    }
    None
}

fn main() {
    let Some(path) = out_path(std::env::args().skip(1)) else {
        eprintln!("usage: bench_summary --out=PATH [--trace[=PATH]] [--metrics[=PATH]]");
        std::process::exit(2);
    };
    let mut obs = xr_obs::init_cli_env();
    eprintln!("[1/11] blocked vs naive matmul");
    let matmul = bench_matmul();
    eprintln!("[2/11] CSR SpMM vs dense matmul of the same operator");
    let spmm = bench_spmm();
    eprintln!("[3/11] grid vs brute-force crowd neighbors");
    let crowd = bench_crowd();
    eprintln!("[4/11] POSHGNN recommend step");
    let posh = bench_poshgnn_step();
    eprintln!("[5/11] comparison runner, 1 thread vs all cores");
    let runner = bench_parallel_runner();
    eprintln!("[6/11] train epoch, MIA cache + tape arena vs uncached");
    let train_epoch = bench_train_epoch();
    eprintln!("[7/11] tape arena reuse vs fresh tape per episode");
    let tape_reuse = bench_tape_reuse();
    eprintln!("[8/11] scene build, shared engine vs per-target precompute");
    let scene_build = bench_scene_build();
    eprintln!("[9/11] observability overhead, installed ctx vs none");
    let obs_overhead = bench_obs_overhead();
    eprintln!("[10/11] multi-room serving: 1k rooms on the worker pool");
    let multi_room = bench_multi_room(xr_obs::threads_from_env());
    eprintln!("[11/11] crowd-scale serving: K-candidate pruned vs complete shortlists");
    let crowd_scale = bench_crowd_scale();
    let summary = Json::obj()
        .set("matmul", matmul)
        .set("spmm", spmm)
        .set("crowd_step", crowd)
        .set("poshgnn_step", posh)
        .set("comparison_runner", runner)
        .set("train_epoch", train_epoch)
        .set("tape_reuse", tape_reuse)
        .set("scene_build", scene_build)
        .set("obs_overhead", obs_overhead)
        .set("multi_room", multi_room)
        .set("crowd_scale", crowd_scale)
        .set("meta", xr_obs::meta::run_metadata());
    let text = summary.pretty();
    println!("{text}");
    match xr_obs::meta::write_atomic(&path, &format!("{text}\n")) {
        Ok(()) => eprintln!("[written to {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
    obs.finish();
}
