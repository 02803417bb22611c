//! Full-model gradient verification: every POSHGNN parameter block, through
//! the complete Def. 7 episode loss (BPTT across the preservation gate),
//! must agree with central finite differences to < 1e-4 relative error.

use poshgnn::{PoshGnn, PoshGnnConfig, PoshVariant, TargetContext};
use xr_check::gradcheck::{check_poshgnn, GradCheckConfig};
use xr_datasets::{Dataset, DatasetKind, ScenarioConfig};

/// The paper's per-block acceptance bound for the episode loss.
const BLOCK_TOL: f64 = 1e-4;

fn small_ctx(dataset_seed: u64, scenario_seed: u64) -> TargetContext {
    let dataset = Dataset::generate(DatasetKind::Hubs, dataset_seed);
    let scenario = dataset.sample_scenario(&ScenarioConfig {
        n_participants: 10,
        vr_fraction: 0.5,
        time_steps: 3,
        room_side: 6.0,
        body_radius: 0.2,
        seed: scenario_seed,
    });
    TargetContext::new(&scenario, 0, 0.5)
}

fn check_variant(variant: PoshVariant) {
    let ctx = small_ctx(2, 5);
    let mut model = PoshGnn::new(PoshGnnConfig { variant, ..Default::default() });
    let report = check_poshgnn(&mut model, &ctx, &GradCheckConfig::default());
    // all five GCN layers × (w_self, w_neigh, bias)
    assert_eq!(report.blocks.len(), 15, "unexpected block count:\n{}", report.render_table());
    for prefix in ["pdr.0", "pdr.1", "lwp.0", "lwp.1", "lwp.2"] {
        assert!(
            report.blocks.iter().any(|b| b.block.starts_with(prefix)),
            "no blocks for {prefix}:\n{}",
            report.render_table()
        );
    }
    report.assert_within(BLOCK_TOL);
}

#[test]
fn full_variant_gradients_match_finite_differences() {
    check_variant(PoshVariant::Full);
}

#[test]
fn pdr_with_mia_variant_gradients_match_finite_differences() {
    check_variant(PoshVariant::PdrWithMia);
}

#[test]
fn pdr_only_variant_gradients_match_finite_differences() {
    check_variant(PoshVariant::PdrOnly);
}

#[test]
fn gradcheck_restores_parameters_exactly() {
    let ctx = small_ctx(3, 7);
    let mut model = PoshGnn::new(PoshGnnConfig::default());
    let before = model.export_params();
    check_poshgnn(&mut model, &ctx, &GradCheckConfig::default());
    let after = model.export_params();
    let identical = before.iter().zip(&after).all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(identical, "finite-difference perturbation leaked into the parameters");
}

#[test]
fn gradients_are_nonzero_where_the_variant_uses_the_module() {
    // the Full variant trains both GNNs: each block must receive signal
    let ctx = small_ctx(4, 9);
    let mut model = PoshGnn::new(PoshGnnConfig::default());
    let report = check_poshgnn(&mut model, &ctx, &GradCheckConfig::default());
    let live = report.blocks.iter().filter(|b| b.analytic != 0.0 || b.numeric != 0.0).count();
    assert!(live >= 10, "suspiciously dead gradients:\n{}", report.render_table());
}
