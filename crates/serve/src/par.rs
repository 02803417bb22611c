//! Minimal scoped-thread work-queue parallelism — the deterministic worker
//! pool shared by the experiment runner and the multi-room scheduler.
//!
//! Moved here from `xr_eval` (which re-exports it unchanged) when the
//! serving layer grew its own consumer: the room scheduler and the
//! comparison/ablation drivers decompose the same way, into independent
//! cells (rooms, or method × scenario × seed) that derive all randomness
//! from fixed per-cell seeds, never from a shared RNG, so results regenerate
//! **identically at any thread count** — only wall-clock timing varies.
//!
//! Implemented on `std::thread::scope` with an atomic index queue: no
//! external dependency, no unsafe, and workers borrow the shared read-only
//! inputs (scenarios, contexts, room slots) directly from the caller's
//! stack.
//!
//! Observability: the caller's installed [`xr_obs::ObsCtx`] (if any) is
//! propagated into every worker, so spans, events, and metrics recorded
//! inside parallel cells land in the same registry/trace as the spawning
//! thread's — and progress/warning output goes through `xr_obs` events
//! instead of raw `eprintln!`, keeping multi-worker logs interleaving-safe.
//!
//! Event names stay under the historical `xr_eval.par` prefix: they are
//! pinned by the obs-smoke golden and external dashboards, and renaming a
//! metric is an interface break regardless of which crate emits it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maps `f` over `0..n` on `workers` scoped workers, returning the results
/// in index order (element `i` is `f(i)`).
///
/// The worker count is always the caller's explicit value: the room
/// scheduler pins it at server construction, the comparison drivers take it
/// from their config, and only binaries read it from the environment.
/// Work is distributed dynamically through an atomic counter, so uneven cell
/// costs (COMURNet vs. Random, a degraded room vs. an idle one) still
/// balance. With one worker — or one item — this degrades to a plain
/// sequential loop on the calling thread. A panic in `f` propagates to the
/// caller when the scope joins.
pub fn par_map_indexed<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n)
            .map(|i| {
                let value = f(i);
                xr_obs::event!("xr_eval.par.item_done", index = i);
                value
            })
            .collect();
    }
    let ctx = xr_obs::current_ctx();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let (f, next, slots) = (&f, &next, &slots);
        for _ in 0..workers {
            let ctx = ctx.clone();
            scope.spawn(move || {
                // telemetry from this worker merges into the caller's sinks
                let _obs = ctx.as_ref().map(xr_obs::ObsCtx::install);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let value = f(i);
                    *slots[i].lock().expect("result slot poisoned") = Some(value);
                    xr_obs::event!("xr_eval.par.item_done", index = i);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("result slot poisoned").expect("worker skipped a slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        // forced to 4 workers so the threaded path runs even on 1-core hosts
        let out = par_map_indexed(4, 100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(par_map_indexed(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(4, 1, |i| i + 7), vec![7]);
        assert_eq!(par_map_indexed(8, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn uneven_work_still_covers_every_index() {
        // later indices are much cheaper: dynamic scheduling must not drop any
        let out = par_map_indexed(4, 23, |i| {
            let spin = if i < 3 { 200_000 } else { 10 };
            let mut acc = 0u64;
            for k in 0..spin {
                acc = acc.wrapping_add(k ^ i as u64);
            }
            (i, std::hint::black_box(acc))
        });
        for (i, slot) in out.iter().enumerate() {
            assert_eq!(slot.0, i);
        }
    }

    #[test]
    fn observability_context_propagates_to_workers() {
        let ctx = xr_obs::ObsCtx::new(true, false);
        let _guard = ctx.install();
        let out = par_map_indexed(4, 10, |i| {
            xr_obs::counter_add("par.test.cells", &[], 1);
            i
        });
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        let snap = ctx.registry.snapshot();
        assert_eq!(snap.counter("par.test.cells"), Some(10), "worker telemetry must merge");
        assert_eq!(snap.counter("events.xr_eval.par.item_done"), Some(10));
    }
}
