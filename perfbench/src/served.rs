//! What the two workloads served through `RoomServer` (`stadium`, `fleet`)
//! share: the reference decisions of the output check, the utility guard,
//! the frame-accounting check and the per-layer reduction of a traced run.

use xr_graph::geom::Point2;
use xr_serve::{decide_topk_f64, RoomConfig, RoomServer};
use xr_session::Frame;

use crate::run::{self, Run};
use crate::stats;

/// The ids set in one viewer's recommendation, ascending.
fn ids(rec: &[bool]) -> Vec<u32> {
    (0..rec.len() as u32).filter(|&w| rec[w as usize]).collect()
}

/// Each viewer's recommended ids, ascending.
pub fn recommended(per_viewer: &[Vec<bool>]) -> Vec<Vec<u32>> {
    per_viewer.iter().map(|rec| ids(rec)).collect()
}

/// Each viewer's recommended ids, ascending, from a fresh from-scratch
/// engine of the room's shape fed `positions` alone: the served decisions
/// must equal them.
pub fn oracle_decisions(config: &RoomConfig, positions: &[Point2]) -> Vec<Vec<u32>> {
    let prune_k = config.prune_k.expect("benchmark rooms pin prune_k");
    let mut engine = run::pinned_engine(config.n, config.scene.clone(), &config.viewers, false, prune_k);
    let t = engine.push(Frame::new(positions.to_vec()));
    engine
        .viewers()
        .iter()
        .map(|&v| {
            let view = engine.view(v, t);
            let mut chosen = match view.candidates() {
                Some(cs) => cs.decide_topk(config.top_k),
                None => ids(&decide_topk_f64(view.candidate_mask(), view.distances(), config.top_k)),
            };
            chosen.sort_unstable();
            chosen
        })
        .collect()
}

/// Proximity utility of one viewer's recommendation: the sum over
/// recommended users of `1 − d/diagonal`, the objective the top-k-nearest
/// rule maximises.
pub fn proximity_utility(positions: &[Point2], viewer: usize, rec: &[bool], diagonal: f64) -> f64 {
    rec.iter()
        .enumerate()
        .filter(|&(w, &r)| r && w != viewer)
        .map(|(w, _)| 1.0 - positions[viewer].distance(positions[w]) / diagonal)
        .sum()
}

/// Checks the server's frame accounting at the end of a run (every frame
/// enqueued was processed, coalesced or shed, and none is pending) and
/// counts shed frames as failed.
pub fn check_accounting(run: &mut Run, server: &RoomServer) {
    let s = server.stats();
    if s.enqueued != s.processed + s.coalesced + s.shed || server.pending_total() != 0 {
        run.check_failed(format!("frame accounting broken: {s:?}"));
    }
    run.failed += s.shed;
}

/// Per-layer metrics of a traced run of a workload served through
/// `RoomServer` with `viewers` per room and `workers` pump workers.
pub fn layers(run: &Run, viewers: u64, workers: usize) -> Vec<(&'static str, f64)> {
    let Some(snap) = run.snapshot() else { return Vec::new() };
    let spans = run.spans();
    let tick_ms = run::span_ms(&spans, "session.tick");
    let room_tick = snap.histogram("serve.room.tick.ms");
    let pump_ms = run.call_sum("serve.pump");
    let busy = room_tick.map_or(0.0, |h| h.sum) / (pump_ms * workers as f64).max(f64::MIN_POSITIVE);
    let enqueued = snap.counter("serve.frames.enqueued").unwrap_or(0) as f64;
    let coalesced = snap.counter("serve.mailbox.coalesced").unwrap_or(0) as f64;
    let mut layers = vec![
        ("session.push_ms_p50", stats::median(&tick_ms)),
        ("session.push_ms_p99", stats::percentile(&tick_ms, 0.99)),
        ("session.share", tick_ms.iter().sum::<f64>() / (run.window_ms() * workers as f64)),
        ("serve.pump_ms_p50", run.call_p("serve.pump", 0.5)),
        ("serve.pump_ms_p99", run.call_p("serve.pump", 0.99)),
        ("serve.pump_self_ms_p50", stats::median(&run::self_ms(&spans, "serve.pump", "session.tick"))),
        ("serve.enqueue_ms_p50", run.call_p("serve.enqueue", 0.5)),
        ("serve.admit_ms_p50", run.call_p("serve.admit", 0.5)),
        ("serve.leave_ms_p50", run.call_p("serve.leave", 0.5)),
        ("serve.room_tick_ms_p99", room_tick.map_or(0.0, |h| h.p99)),
        ("serve.worker_busy_share", busy),
        ("serve.coalesced_ratio", if enqueued > 0.0 { coalesced / enqueued } else { 0.0 }),
    ];
    layers.extend(run::session_layer(&snap, viewers));
    layers
}

#[cfg(test)]
mod tests {
    use super::*;
    use xr_session::SceneConfig;

    #[test]
    fn proximity_utility_sums_recommended_closeness() {
        let positions = [Point2::new(0.0, 0.0), Point2::new(3.0, 4.0), Point2::new(0.0, 10.0)];
        assert_eq!(proximity_utility(&positions, 0, &[true, true, true], 10.0), 0.5);
        assert_eq!(proximity_utility(&positions, 0, &[false, false, false], 10.0), 0.0);
    }

    #[test]
    fn dense_and_complete_shortlist_oracles_agree() {
        let n = 12;
        let scene = SceneConfig {
            body_radius: 0.25,
            mr_mask: (0..n).map(|i| i % 2 == 0).collect(),
            room_diagonal: 8.0 * std::f64::consts::SQRT_2,
        };
        let room = |prune_k| RoomConfig {
            prune_k: Some(prune_k),
            ..RoomConfig::new(n, scene.clone(), vec![0, 5, 9])
        };
        let positions: Vec<Point2> =
            (0..n).map(|i| Point2::new((i * 7 % 8) as f64, (i * 3 % 8) as f64 + 0.1 * i as f64)).collect();
        let dense = oracle_decisions(&room(0), &positions);
        assert!(dense.iter().all(|ids| !ids.is_empty()));
        assert_eq!(oracle_decisions(&room(n - 1), &positions), dense);
    }

    #[test]
    fn recommended_lists_set_ids_in_order() {
        assert_eq!(
            recommended(&[vec![false, true, true], vec![true, false, false]]),
            vec![vec![1, 2], vec![0]]
        );
    }
}
