//! Allocation-regression guard for the training hot path.
//!
//! The episode MIA cache plus the arena tape are supposed to take the global
//! allocator out of the inner training loop: after the first epoch warms the
//! slab and the buffer pool, later epochs should run almost allocation-free.
//! This test pins that property with a counting `#[global_allocator]`
//! (integration tests are separate binaries, so the counter is scoped to
//! this file): per-epoch allocations after epoch 1 on the cached path must
//! be at least 10× lower than on the pre-cache baseline path
//! (`fresh_mia + fresh_tape`, the code path prior to this overhaul).
//!
//! The counter is process-wide, so every test here holds [`SERIAL`]: a test
//! training concurrently on another thread would otherwise leak its
//! allocations into the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use poshgnn::{PoshGnn, PoshGnnConfig, TargetContext};
use xr_datasets::{Dataset, DatasetKind, ScenarioConfig};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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
