//! Allocation-regression guards for the training and serving hot paths.
//!
//! The episode MIA cache plus the arena tape are supposed to take the global
//! allocator out of the inner training loop: after the first epoch warms the
//! slab and the buffer pool, later epochs should run almost allocation-free.
//! A counting `#[global_allocator]` (integration tests are separate
//! binaries, so the counters are scoped to this file) pins that property:
//! per-epoch allocations after epoch 1 on the cached path must be at least
//! 10× lower than on the pre-cache baseline path (`fresh_mia + fresh_tape`).
//!
//! The same allocator counts bytes, which guards the f64 serving step
//! against N×N work: a steady-state recommend step at N = 200 must allocate
//! less than one dense N×N f64 matrix. It also counts the step's
//! allocations: the tape-free step reuses the model's buffers, so only the
//! returned soft scores and decisions are fresh.
//!
//! The dense scene tick is guarded the same way: with every user moving,
//! `SceneEngine::push` rebuilds each viewer's occlusion graph from its
//! angular sweep, and that build (counting-sort edge assembly into a flat
//! CSR graph) must stay at a small constant number of allocations per
//! viewer, not one per node or per edge-set block, and its bytes must stay
//! at what it hands out: each viewer's 32-bit CSR graph, distance row and
//! mask. The tick stores only per-viewer rows, so no single allocation it
//! makes may be as large as a dense N×N f64 matrix. A pruned tick (a
//! 2000-user stadium at K = 64) builds every viewer's shortlist from its
//! frame and is held to the same per-viewer allocation budget.
//!
//! The counter is process-wide, so every test here holds [`SERIAL`]: a test
//! training concurrently on another thread would otherwise leak its
//! allocations into the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use poshgnn::{AfterRecommender, PoshGnn, PoshGnnConfig, StepView, TargetContext};
use xr_datasets::{Dataset, DatasetKind, ScenarioConfig, VenueConfig, VenueSim};
use xr_graph::Point2;
use xr_session::{Frame, SceneConfig, SceneEngine};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LARGEST: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        LARGEST.fetch_max(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // a realloc may move the block: count the whole new size
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LARGEST.fetch_max(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Serializes the tests of this binary around the global counter.
static SERIAL: Mutex<()> = Mutex::new(());

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Bytes allocated while `f` runs.
fn bytes_during(f: impl FnOnce()) -> u64 {
    let before = BYTES.load(Ordering::Relaxed);
    f();
    BYTES.load(Ordering::Relaxed) - before
}

/// The size of the largest single allocation (or realloc) while `f` runs.
fn largest_allocation_during(f: impl FnOnce()) -> u64 {
    LARGEST.store(0, Ordering::Relaxed);
    f();
    LARGEST.load(Ordering::Relaxed)
}

fn episode_ctx() -> TargetContext {
    let dataset = Dataset::generate(DatasetKind::Hubs, 7);
    let cfg = ScenarioConfig {
        n_participants: 24,
        vr_fraction: 0.5,
        time_steps: 6,
        room_side: 6.0,
        body_radius: 0.2,
        seed: 11,
    };
    let scenario = dataset.sample_scenario(&cfg);
    TargetContext::new(&scenario, 0, 0.5)
}

/// Allocations of one steady-state epoch: train fresh identically seeded
/// models for 1 and 3 epochs and difference the counts, so construction,
/// slab precompute, and pool warm-up (all epoch-1 costs) cancel out.
fn per_epoch_after_first(config: PoshGnnConfig, ctx: &TargetContext) -> u64 {
    let contexts = std::slice::from_ref(ctx);
    let mut one = PoshGnn::new(config);
    let mut three = PoshGnn::new(config);
    let a1 = allocations_during(|| {
        one.train(contexts, 1);
    });
    let a3 = allocations_during(|| {
        three.train(contexts, 3);
    });
    (a3 - a1) / 2
}

#[test]
fn cached_training_epochs_allocate_10x_less_than_baseline() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let ctx = episode_ctx();
    let baseline_cfg = PoshGnnConfig { fresh_mia: true, fresh_tape: true, ..Default::default() };
    let cached_cfg = PoshGnnConfig { fresh_mia: false, fresh_tape: false, ..Default::default() };

    let baseline = per_epoch_after_first(baseline_cfg, &ctx);
    let cached = per_epoch_after_first(cached_cfg, &ctx);

    eprintln!("per-epoch allocations after epoch 1: baseline {baseline}, cached {cached}");
    assert!(baseline > 0, "baseline epoch made no allocations — instrumentation broken?");
    assert!(
        baseline >= 10 * cached.max(1),
        "per-epoch allocations after epoch 1: baseline {baseline} vs cached {cached} \
         — the MIA cache + tape arena must cut steady-state allocations by ≥10x"
    );
}

#[test]
fn losses_match_between_baseline_and_cached_paths() {
    // The two configurations must descend the same trajectory: the cache and
    // arena are pure performance changes (bit-identical per DESIGN.md §7).
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let ctx = episode_ctx();
    let contexts = std::slice::from_ref(&ctx);
    let mut baseline =
        PoshGnn::new(PoshGnnConfig { fresh_mia: true, fresh_tape: true, ..Default::default() });
    let mut cached =
        PoshGnn::new(PoshGnnConfig { fresh_mia: false, fresh_tape: false, ..Default::default() });
    let hb = baseline.train(contexts, 4);
    let hc = cached.train(contexts, 4);
    for (epoch, (b, c)) in hb.iter().zip(&hc).enumerate() {
        assert_eq!(b.to_bits(), c.to_bits(), "epoch {epoch} loss: baseline {b:?} vs cached {c:?}");
    }
}

#[test]
fn f64_serving_step_allocates_less_than_one_dense_matrix_at_n200() {
    // the paper's room: N = 200, 50% VR, 10 m — the scale where a dense
    // N×N f64 matrix is 320 000 B and occlusion degrees reach the dozens
    const N: usize = 200;
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dataset = Dataset::generate(DatasetKind::Timik, 2);
    let cfg = ScenarioConfig { n_participants: N, time_steps: 12, seed: 11, ..ScenarioConfig::default() };
    let ctx = TargetContext::new(&dataset.sample_scenario(&cfg), 3, 0.5);
    let mut model = PoshGnn::new(PoshGnnConfig::default());
    model.begin_episode(&StepView::new(&ctx, 0));
    // the returned soft-score and decision vectors; measured 2, and 1 more
    // as headroom
    const ALLOCATIONS_PER_STEP: u64 = 3;
    // the first steps size the model's reused buffers
    const WARM: usize = 4;
    for t in 0..WARM {
        model.recommend_step(&StepView::new(&ctx, t));
    }
    let steps = (ctx.t_max() + 1 - WARM) as u64;
    let mut bytes = 0;
    let allocations = allocations_during(|| {
        bytes = bytes_during(|| {
            for t in WARM..=ctx.t_max() {
                std::hint::black_box(model.recommend_step(&StepView::new(&ctx, t)));
            }
        });
    });
    let per_step = bytes / steps;
    let allocations_per_step = allocations as f64 / steps as f64;
    let dense = (N * N * std::mem::size_of::<f64>()) as u64;
    let edges = ctx.occlusion.iter().map(|g| g.edge_count()).sum::<usize>() / ctx.occlusion.len();
    eprintln!(
        "f64 recommend step at N={N} (mean m={edges}): {per_step} B/step in {allocations_per_step} \
         allocations/step, dense N×N = {dense} B"
    );
    assert!(edges > N, "the scene must be occlusion-dense enough to mean something (m={edges})");
    assert!(
        per_step < dense,
        "a steady-state f64 recommend step allocates {per_step} B at N={N}, at least one dense N×N \
         matrix ({dense} B) — something on the serving path went O(N²)"
    );
    assert!(
        allocations <= ALLOCATIONS_PER_STEP * steps,
        "a steady-state f64 recommend step makes {allocations_per_step} allocations (budget \
         {ALLOCATIONS_PER_STEP}) — the serving step stopped reusing its buffers"
    );
}

/// The paper's room (N = 200, Timik-like) served densely for 8 viewers with
/// bounded retention: the engine after 4 warm-up pushes, its viewers, and
/// the frames of `ticks` more. A tick-dependent shift moves every user on
/// every tick, so each push rebuilds every viewer's state. Frames are built
/// up front so only the engine's own work is counted.
fn warm_dense_engine(ticks: usize) -> (SceneEngine, Vec<usize>, Vec<Frame>) {
    const N: usize = 200;
    const VIEWERS: usize = 8;
    const WARM: usize = 4;
    let dataset = Dataset::generate(DatasetKind::Timik, 2);
    let cfg = ScenarioConfig { n_participants: N, time_steps: WARM + ticks, seed: 11, ..Default::default() };
    let scenario = dataset.sample_scenario(&cfg);
    let viewers: Vec<usize> = (0..VIEWERS).map(|i| i * (N / VIEWERS)).collect();
    let mut engine = SceneEngine::new(N, SceneConfig::from_scenario(&scenario), &viewers);
    engine.set_slo(None);
    engine.set_state_retention(Some(2));
    let mut frames: Vec<Frame> = scenario
        .trajectories
        .iter()
        .enumerate()
        .map(|(t, row)| {
            let shift = Point2::new(1e-4 * (t + 1) as f64, 0.0);
            Frame::new(row.iter().map(|&p| p + shift).collect())
        })
        .collect();
    let measured = frames.split_off(WARM);
    for frame in frames {
        engine.push(frame);
    }
    (engine, viewers, measured)
}

#[test]
fn dense_scene_tick_allocates_at_most_32_times_per_viewer() {
    // each push rebuilds all 8 occlusion graphs from their sweeps
    const N: usize = 200;
    const MEASURED: usize = 16;
    const BUDGET_PER_VIEWER: u64 = 32;
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (mut engine, viewers, measured) = warm_dense_engine(MEASURED);
    let n_viewers = viewers.len();
    let allocations = allocations_during(|| {
        for frame in measured {
            engine.push(frame);
        }
    });
    let per_viewer = allocations / (MEASURED * n_viewers) as u64;
    let edges: usize =
        viewers.iter().map(|&v| engine.view(v, engine.ticks() - 1).occlusion().edge_count()).sum();
    eprintln!(
        "dense push at N={N}: {allocations} allocations over {MEASURED} ticks × {n_viewers} viewers \
         = {per_viewer} per viewer per tick (mean m={})",
        edges / n_viewers
    );
    assert!(edges / n_viewers > N, "the scene must be occlusion-dense enough to mean something");
    assert!(
        per_viewer <= BUDGET_PER_VIEWER,
        "a steady-state dense push makes {per_viewer} allocations per viewer per tick (budget \
         {BUDGET_PER_VIEWER}) — the occlusion-graph build went back to per-node or per-edge allocation"
    );
}

#[test]
fn dense_scene_tick_allocates_only_the_32_bit_graph_row_and_mask_per_viewer() {
    // a dense push hands out, per viewer, a distance row (8n B), a
    // candidate mask (n B) and a 32-bit CSR graph (4(n+1) B of row offsets,
    // 8m B of neighbour ids); the sweep and counting-sort scratch belong to
    // the engine. The measured frames are pushed once first, so the scratch
    // has grown to what they need; PER_VIEWER_SLACK then covers the per-tick
    // slot vectors (a row, graph and mask header per viewer: measured 104 B)
    const N: usize = 200;
    const PER_VIEWER_SLACK: u64 = 128;
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (mut engine, viewers, measured) = warm_dense_engine(16);
    for frame in measured.clone() {
        engine.push(frame);
    }
    let n = N as u64;
    let (mut bytes, mut exact, mut edges, mut views) = (0, 0, 0, 0);
    for frame in measured {
        bytes += bytes_during(|| {
            engine.push(frame);
        });
        let t = engine.ticks() - 1;
        for &v in &viewers {
            let m = engine.view(v, t).occlusion().edge_count() as u64;
            exact += 4 * (n + 1) + 8 * m + 8 * n + n;
            edges += m;
            views += 1;
        }
    }
    let budget = exact + PER_VIEWER_SLACK * views;
    eprintln!(
        "dense push at N={N}: {} B per viewer per tick, {} B over the graph, row and mask (mean m={})",
        bytes / views,
        bytes.saturating_sub(exact) / views,
        edges / views
    );
    assert!(edges / views > n, "the scene must be occlusion-dense enough to mean something");
    assert!(
        bytes <= budget,
        "a steady-state dense push allocates {} B per viewer per tick, over the {} B of a 32-bit CSR \
         graph, a distance row, a mask and {PER_VIEWER_SLACK} B — the graph widened or the sweep stopped \
         reusing its scratch",
        bytes / views,
        budget / views
    );
}

#[test]
fn pruned_scene_tick_allocates_at_most_32_times_per_viewer() {
    // a stadium crowd served at K = 64 with bounded retention: each push
    // rebuilds the spatial index into the engine's buffers and builds a
    // fresh shortlist per viewer; measured 7 per viewer, so the dense
    // tick's budget leaves the same headroom
    const N: usize = 2000;
    const K: usize = 64;
    const VIEWERS: usize = 8;
    const WARM: usize = 4;
    const MEASURED: usize = 16;
    const BUDGET_PER_VIEWER: u64 = 32;
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut sim = VenueSim::new(VenueConfig::stadium(N, 1));
    let scene = SceneConfig {
        body_radius: sim.config().body_radius,
        mr_mask: sim.config().mr_mask(),
        room_diagonal: sim.config().room_diagonal(),
    };
    let viewers: Vec<usize> = (0..VIEWERS).map(|i| i * (N / VIEWERS)).collect();
    let mut engine = SceneEngine::new(N, scene, &viewers);
    engine.set_prune_k(K);
    engine.set_state_retention(Some(2));
    // frames are built up front so only the engine's own work is counted
    let frames: Vec<Frame> = (0..WARM + MEASURED).map(|_| Frame::new(sim.next_frame())).collect();
    let mut frames = frames.into_iter();
    for frame in frames.by_ref().take(WARM) {
        engine.push(frame);
    }
    let allocations = allocations_during(|| {
        for frame in frames {
            engine.push(frame);
        }
    });
    let per_viewer = allocations / (MEASURED * VIEWERS) as u64;
    let members: usize =
        viewers.iter().map(|&v| engine.view(v, engine.ticks() - 1).candidates().unwrap().len()).sum();
    eprintln!(
        "pruned push at N={N}, K={K}: {allocations} allocations over {MEASURED} ticks × {VIEWERS} viewers \
         = {per_viewer} per viewer per tick"
    );
    assert_eq!(members, K * VIEWERS, "every viewer's shortlist must be full");
    assert!(
        per_viewer <= BUDGET_PER_VIEWER,
        "a steady-state pruned push makes {per_viewer} allocations per viewer per tick (budget \
         {BUDGET_PER_VIEWER}) — the shortlist build went back to per-member allocation"
    );
}

#[test]
fn dense_scene_tick_never_allocates_an_n_by_n_block() {
    // a dense tick stores only per-viewer arrays (distance row, mask, CSR
    // graph), each far below one N×N f64 matrix
    const N: usize = 200;
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (mut engine, _viewers, measured) = warm_dense_engine(4);
    let largest = largest_allocation_during(|| {
        for frame in measured {
            engine.push(frame);
        }
    });
    let dense = (N * N * std::mem::size_of::<f64>()) as u64;
    eprintln!("dense push at N={N}: largest single allocation {largest} B, dense N×N = {dense} B");
    assert!(largest > 0, "the pushes made no allocation — instrumentation broken?");
    assert!(
        largest < dense,
        "a steady-state dense push allocated a {largest} B block at N={N}, at least one dense N×N f64 \
         matrix ({dense} B) — the tick went back to storing the whole distance matrix"
    );
}
