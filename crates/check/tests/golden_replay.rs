//! Golden replay: a seeded end-to-end run (dataset → ORCA → train →
//! recommend → evaluate) snapshotted byte-for-byte against a checked-in
//! golden file. Regenerate with `UPDATE_GOLDEN=1 cargo test -p xr_check`.

use poshgnn::PoshGnnConfig;
use xr_check::golden::{
    assert_matches_golden, replay, replay_with, with_env_vars, with_threads, ReplayConfig,
};
use xr_serve::ServerConfig;
use xr_session::{SceneConfig, SceneEngine};

#[test]
fn small_replay_matches_the_checked_in_golden_file() {
    let snapshot = with_threads(1, || replay(&ReplayConfig::small()));
    assert_matches_golden("replay_small.txt", &snapshot);
}

#[test]
fn replay_is_byte_identical_across_thread_counts() {
    let serial = with_threads(1, || replay(&ReplayConfig::small()));
    let parallel = with_threads(8, || replay(&ReplayConfig::small()));
    assert_eq!(serial, parallel, "replay diverges between AFTER_THREADS=1 and AFTER_THREADS=8");
}

#[test]
fn every_explicit_reference_path_reproduces_the_golden_file() {
    // The golden file predates every optimization layer and must stay
    // untouched: the episode MIA cache and pooled tape (vs. fresh per-step
    // MIA and per-episode tapes) and the dense payload (vs. complete K = n−1
    // shortlists, with and without shortlist reuse) each have to replay it
    // byte for byte.
    let small = ReplayConfig::small();
    let n = small.scenario.n_participants;
    let fresh = ReplayConfig {
        model: PoshGnnConfig { fresh_mia: true, fresh_tape: true, ..small.model },
        ..small.clone()
    };
    let (default, references) = with_threads(1, || {
        let references = [
            ("fresh_mia + fresh_tape", replay(&fresh)),
            ("set_prune_k(n - 1)", replay_with(&small, |e| e.set_prune_k(n - 1))),
            (
                "set_prune_k(n - 1) + set_incremental(false)",
                replay_with(&small, |e| {
                    e.set_prune_k(n - 1);
                    e.set_incremental(false);
                }),
            ),
        ];
        (replay(&small), references)
    });
    for (label, snapshot) in &references {
        assert_eq!(snapshot, &default, "replay under {label} diverges from the default replay");
    }
    assert_matches_golden("replay_small.txt", &default);
}

#[test]
fn oracle_environment_variables_no_longer_select_a_path() {
    // Retired switches: the production paths read none of these, so setting
    // every one to its former oracle value must change nothing.
    let oracle_env = [
        ("AFTER_THREADS", "1"),
        ("AFTER_STREAMING", "0"),
        ("AFTER_INCREMENTAL", "0"),
        ("AFTER_PRUNE_K", "7"),
        ("AFTER_FRESH_MIA", "1"),
        ("AFTER_FRESH_TAPE", "1"),
        ("AFTER_SLO_BUDGET_MS", "0.001"),
    ];
    let snapshot = with_env_vars(&oracle_env, || {
        let scene = SceneConfig { body_radius: 0.2, mr_mask: vec![false; 4], room_diagonal: 1.0 };
        let engine = SceneEngine::new(4, scene, &[0]);
        assert!(engine.incremental(), "AFTER_INCREMENTAL selected the from-scratch path");
        assert_eq!(engine.prune_k(), 0, "AFTER_PRUNE_K selected the pruned payload");
        assert!(engine.slo().is_none(), "AFTER_SLO_BUDGET_MS installed a scene deadline tracker");
        assert!(ServerConfig::default().slo.is_none(), "AFTER_SLO_BUDGET_MS set the server budget");
        let cfg = PoshGnnConfig::default();
        assert!(!cfg.fresh_mia, "AFTER_FRESH_MIA selected per-step MIA");
        assert!(!cfg.fresh_tape, "AFTER_FRESH_TAPE selected fresh tapes");
        replay(&ReplayConfig::small())
    });
    assert_matches_golden("replay_small.txt", &snapshot);
}
