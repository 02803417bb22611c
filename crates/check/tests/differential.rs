//! The workspace's equivalence claims, enforced by the differential oracle:
//! 256 proptest-generated scenarios per pair.

use xr_check::diff::{
    assert_no_divergence, CachedVsFreshMia, CappedVsComplete, EngineVsBruteForce, FusedVsTapeStep,
    MatmulNaiveVsBlocked, MultiRoomVsSequential, OrcaGridVsBrute, PooledVsFreshTape, SerialVsParallelRunner,
    SpmmVsDense,
};

/// ≥ 256 cases per kernel pair (the acceptance bar for this harness).
const KERNEL_CASES: usize = 256;

#[test]
fn blocked_matmul_matches_naive_bitwise() {
    assert_no_divergence(&MatmulNaiveVsBlocked, KERNEL_CASES);
}

#[test]
fn csr_spmm_matches_dense_matmul() {
    assert_no_divergence(&SpmmVsDense::default(), KERNEL_CASES);
}

#[test]
fn spatial_grid_orca_matches_brute_force_bitwise() {
    assert_no_divergence(&OrcaGridVsBrute, KERNEL_CASES);
}

#[test]
fn parallel_runner_matches_serial_bitwise() {
    assert_no_divergence(&SerialVsParallelRunner::default(), KERNEL_CASES);
}

#[test]
fn cached_mia_episode_loss_matches_fresh_bitwise() {
    assert_no_divergence(&CachedVsFreshMia, KERNEL_CASES);
}

#[test]
fn tape_free_serving_step_matches_the_tape_step_bitwise() {
    // all three variants at two hidden widths, over ticks in order, in
    // reverse, and after a switch to a second context
    assert_no_divergence(&FusedVsTapeStep, KERNEL_CASES);
}

#[test]
fn pooled_tape_gradients_match_fresh_bitwise() {
    assert_no_divergence(&PooledVsFreshTape, KERNEL_CASES);
}

#[test]
fn scene_engine_contexts_match_brute_force_bitwise() {
    assert_no_divergence(&EngineVsBruteForce, KERNEL_CASES);
}

#[test]
fn multi_room_scheduler_matches_sequential_engines_bitwise() {
    // no SLO budget in the generated configs, so the ladder and shedding are
    // inert and the scheduler must be a pure reordering of sequential work —
    // on uncapped, K = n−1 and truly pruned rooms alike
    assert_no_divergence(&MultiRoomVsSequential, KERNEL_CASES);
}

#[test]
fn capped_shortlists_match_the_complete_shortlist_bitwise() {
    // the complete shortlist is the brute-force precompute bit for bit
    // (membership, distances, masks, edges, decisions), and every drawn K
    // is that shortlist restricted to its K nearest members
    assert_no_divergence(&CappedVsComplete, KERNEL_CASES);
}
