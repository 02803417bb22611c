//! Contract tests: every recommender in the workspace honours the
//! [`AfterRecommender`] interface — correct decision shapes, never
//! recommending the target, and clean episode resets.

use after_xr::poshgnn::recommender::AfterRecommender;
use after_xr::poshgnn::{PoshGnn, PoshGnnConfig, PoshVariant, StepView, TargetContext};
use after_xr::xr_baselines::{
    ComurNetConfig, ComurNetRecommender, GraFrankConfig, GraFrankRecommender, MvAgcRecommender, MwisOracle,
    NearestRecommender, RandomRecommender, RnnConfig, RnnKind, RnnRecommender,
};
use after_xr::xr_datasets::{Dataset, DatasetKind, Scenario, ScenarioConfig};
use after_xr::xr_eval::RenderAllRecommender;
use after_xr::xr_session::SceneEngine;

fn scenario() -> Scenario {
    let dataset = Dataset::generate(DatasetKind::Hubs, 2);
    dataset.sample_scenario(&ScenarioConfig {
        n_participants: 14,
        vr_fraction: 0.5,
        time_steps: 6,
        room_side: 6.0,
        body_radius: 0.2,
        seed: 3,
    })
}

fn all_recommenders(scenario: &Scenario) -> Vec<Box<dyn AfterRecommender>> {
    vec![
        Box::new(PoshGnn::new(PoshGnnConfig::default())),
        Box::new(PoshGnn::new(PoshGnnConfig { variant: PoshVariant::PdrWithMia, ..Default::default() })),
        Box::new(PoshGnn::new(PoshGnnConfig { variant: PoshVariant::PdrOnly, ..Default::default() })),
        Box::new(RandomRecommender::new(4, 1)),
        Box::new(NearestRecommender::new(4)),
        Box::new(MvAgcRecommender::fit(scenario, 3, 2, 5)),
        Box::new(GraFrankRecommender::fit(
            scenario,
            GraFrankConfig { iterations: 20, top_k: 4, ..Default::default() },
        )),
        Box::new(RnnRecommender::new(RnnKind::Tgcn, RnnConfig::default())),
        Box::new(RnnRecommender::new(RnnKind::Dcrnn, RnnConfig::default())),
        Box::new(ComurNetRecommender::new(ComurNetConfig {
            rollouts: 2,
            max_actions: 4,
            ..Default::default()
        })),
        Box::new(MwisOracle::new()),
        Box::new(RenderAllRecommender),
    ]
}

/// Methods that consult the hybrid-participation mask `m_t`. `PdrOnly` and
/// `ComurNet` ignore it *by design* (the former is the raw-features ablation,
/// the latter replicates the original ComurNet action space), and the
/// remaining baselines score on social/spatial signals alone — so the hard
/// mask guarantee is only claimed for these.
fn mask_aware_recommenders() -> Vec<Box<dyn AfterRecommender>> {
    vec![
        Box::new(PoshGnn::new(PoshGnnConfig::default())),
        Box::new(PoshGnn::new(PoshGnnConfig { variant: PoshVariant::PdrWithMia, ..Default::default() })),
        Box::new(MwisOracle::new()),
    ]
}

#[test]
fn every_method_satisfies_the_interface_contract() {
    let scenario = scenario();
    let ctx = TargetContext::new(&scenario, 0, 0.5);
    for mut rec in all_recommenders(&scenario) {
        let name = rec.name();
        assert!(!name.is_empty());
        let episode = rec.run_episode(&ctx);
        assert_eq!(episode.len(), ctx.t_max() + 1, "{name}: wrong episode length");
        for (t, decision) in episode.iter().enumerate() {
            assert_eq!(decision.len(), ctx.n, "{name}: wrong decision width at t={t}");
            assert!(!decision[ctx.target], "{name}: recommended the target herself at t={t}");
        }
        assert!(rec.latency_steps() <= 10, "{name}: absurd latency");
    }
}

#[test]
fn method_names_are_unique() {
    let scenario = scenario();
    let names: Vec<String> = all_recommenders(&scenario).iter().map(|r| r.name()).collect();
    let mut sorted = names.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "duplicate method names: {names:?}");
}

#[test]
fn every_method_is_deterministic_under_a_fixed_seed() {
    let scenario = scenario();
    let ctx = TargetContext::new(&scenario, 0, 0.5);
    // two identically constructed instances must produce identical episodes
    let twins = all_recommenders(&scenario).into_iter().zip(all_recommenders(&scenario));
    for (mut a, mut b) in twins {
        let name = a.name();
        assert_eq!(a.run_episode(&ctx), b.run_episode(&ctx), "{name}: nondeterministic under fixed seed");
    }
}

#[test]
fn decisions_stay_inside_the_unit_hypercube() {
    // Boolean decisions embed as {0,1}^|V| ⊂ [0,1]^|V|; the learned model's
    // underlying soft scores must land in the open hypercube too.
    let scenario = scenario();
    let ctx = TargetContext::new(&scenario, 0, 0.5);
    for variant in [PoshVariant::Full, PoshVariant::PdrWithMia, PoshVariant::PdrOnly] {
        let mut model = PoshGnn::new(PoshGnnConfig { variant, ..Default::default() });
        model.begin_episode(&StepView::new(&ctx, 0));
        for t in 0..=ctx.t_max() {
            let soft = model.soft_recommend(&ctx, t);
            assert_eq!(soft.len(), ctx.n, "{variant:?}: wrong score width at t={t}");
            for (w, &s) in soft.iter().enumerate() {
                assert!((0.0..=1.0).contains(&s), "{variant:?}: score {s} for user {w} at t={t}");
            }
        }
    }
    for mut rec in all_recommenders(&scenario) {
        let name = rec.name();
        for (t, decision) in rec.run_episode(&ctx).iter().enumerate() {
            assert_eq!(decision.len(), ctx.n, "{name}: wrong decision width at t={t}");
        }
    }
}

#[test]
fn mask_aware_methods_never_recommend_masked_candidates() {
    let scenario = scenario();
    // An MR target is where the mask binds: physically co-present bodies can
    // occlude candidates out of m_t. Pick one and confirm the mask actually
    // excludes someone, so this test cannot pass vacuously.
    let mr = scenario.interfaces.iter().position(|&i| i == after_xr::xr_datasets::Interface::Mr).unwrap();
    let ctx = TargetContext::new(&scenario, mr, 0.5);
    let masked_out: usize =
        ctx.candidate_mask.iter().map(|m| m.iter().filter(|&&b| !b).count()).sum::<usize>();
    assert!(masked_out > ctx.candidate_mask.len(), "mask never binds; pick a different seed");

    for mut rec in mask_aware_recommenders() {
        let name = rec.name();
        for (t, decision) in rec.run_episode(&ctx).iter().enumerate() {
            for (w, &shown) in decision.iter().enumerate() {
                assert!(
                    !shown || ctx.candidate_mask[t][w],
                    "{name}: recommended masked-out user {w} at t={t}"
                );
            }
        }
    }
}

#[test]
fn vr_targets_see_everyone_and_still_never_themselves() {
    let scenario = scenario();
    // A VR target's mask is everyone-but-target; the only exclusion any
    // method must enforce there is the target herself.
    let vr = scenario.interfaces.iter().position(|&i| i == after_xr::xr_datasets::Interface::Vr).unwrap();
    let ctx = TargetContext::new(&scenario, vr, 0.5);
    for mask in &ctx.candidate_mask {
        assert_eq!(mask.iter().filter(|&&b| b).count(), ctx.n - 1);
    }
    for mut rec in all_recommenders(&scenario) {
        let name = rec.name();
        for (t, decision) in rec.run_episode(&ctx).iter().enumerate() {
            assert!(!decision[vr], "{name}: recommended the VR target to herself at t={t}");
        }
    }
}

#[test]
fn decisions_never_depend_on_future_frames() {
    assert_no_lookahead(true);
}

#[test]
fn decisions_never_depend_on_future_frames_under_either_maintenance_mode() {
    // `set_incremental` selects whether pruned shortlists are reused across
    // ticks; dense engines build every tick from its frame under either
    // setting, and the no-lookahead contract must hold under both.
    assert_no_lookahead(true);
    assert_no_lookahead(false);
}

/// Target 0's context, built on an engine pinned to the given maintenance
/// path.
fn context_with_maintenance(scenario: &Scenario, incremental: bool) -> TargetContext {
    let mut engine = SceneEngine::for_scenario(scenario, &[0]);
    engine.set_incremental(incremental);
    engine.push_scenario(scenario);
    TargetContext::with_engine(scenario, engine, &[(0, 0.5)]).pop().expect("one request, one context")
}

fn assert_no_lookahead(incremental: bool) {
    // The stepwise contract: a view at tick t exposes only ticks 0..=t, so
    // rewriting the world strictly after t_cut must leave every decision at
    // or before t_cut untouched — for every method in the workspace.
    let original = scenario();
    let t_cut = 3;
    let mut perturbed = original.clone();
    for (t, frame) in perturbed.trajectories.iter_mut().enumerate() {
        if t > t_cut {
            for p in frame.iter_mut() {
                p.x = (p.x * 0.5 + 0.7).min(5.5);
                p.y = (p.y * 0.3 + 1.1).min(5.5);
            }
        }
    }
    assert_ne!(original.trajectories, perturbed.trajectories, "perturbation was a no-op");

    let ctx_a = context_with_maintenance(&original, incremental);
    let ctx_b = context_with_maintenance(&perturbed, incremental);
    // Both instance sets are fitted on the *original* scenario — offline
    // training data is not the stepwise input under test here.
    let twins = all_recommenders(&original).into_iter().zip(all_recommenders(&original));
    for (mut a, mut b) in twins {
        let name = a.name();
        a.begin_episode(&StepView::new(&ctx_a, 0));
        b.begin_episode(&StepView::new(&ctx_b, 0));
        for t in 0..=t_cut {
            let da = a.recommend_step(&StepView::new(&ctx_a, t));
            let db = b.recommend_step(&StepView::new(&ctx_b, t));
            assert_eq!(da, db, "{name}: decision at t={t} changed when frames after t={t_cut} moved");
        }
    }
}

#[test]
fn views_refuse_to_serve_the_future() {
    let scenario = scenario();
    let ctx = TargetContext::new(&scenario, 0, 0.5);
    let view = StepView::new(&ctx, 2);
    assert_eq!(view.occlusion_at(2), view.occlusion());
    let peek = std::panic::catch_unwind(|| view.occlusion_at(3));
    assert!(peek.is_err(), "a view at t=2 handed out tick 3");
}

#[test]
fn stateful_methods_reset_between_episodes() {
    let scenario = scenario();
    let ctx = TargetContext::new(&scenario, 1, 0.5);
    // recurrent models must produce identical episodes back to back
    for kind in [RnnKind::Tgcn, RnnKind::Dcrnn] {
        let mut rec = RnnRecommender::new(kind, RnnConfig::default());
        assert_eq!(rec.run_episode(&ctx), rec.run_episode(&ctx), "{kind:?} leaked state");
    }
    let mut posh = PoshGnn::new(PoshGnnConfig::default());
    assert_eq!(posh.run_episode(&ctx), posh.run_episode(&ctx), "POSHGNN leaked state");
}
