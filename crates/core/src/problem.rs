//! The AFTER problem seen from one target user.
//!
//! [`TargetContext`] holds everything a recommender may consult at each time
//! step `t`: the static occlusion graph `O_t^v`, distances to every other
//! participant, the hybrid-participation candidate mask `m_t`, and the
//! target's utility rows `p(v,·)` / `s(v,·)`.
//!
//! `TargetContext` is a thin *compat wrapper* over the
//! [`xr_session::SceneEngine`]: construction pumps the scenario's frames
//! through the engine once and copies out this target's slice of the shared
//! per-tick state. Callers that need a non-default engine (the from-scratch
//! or pruned reference paths) configure one themselves and hand it to
//! [`TargetContext::with_engine`]. The field layout and every numeric value
//! are byte-identical to the brute-force per-target precompute
//! [`TargetContext::brute_force`], the reference an `xr_check` differential
//! subject pins the engine path against.

use std::sync::Arc;

use xr_datasets::{Interface, Scenario};
use xr_graph::geom::Point2;
use xr_graph::{OcclusionConverter, UGraph};
use xr_session::SceneEngine;

/// Everything an AFTER recommender may consult for one target user.
#[derive(Debug, Clone)]
pub struct TargetContext {
    /// Local index of the target user in the scenario.
    pub target: usize,
    /// Number of participants `N` (including the target).
    pub n: usize,
    /// Social-presence weight `β ∈ [0,1]` (Def. 2).
    pub beta: f64,
    /// `true` when the target joins through MR (co-located participants are
    /// then physically forced onto her viewport).
    pub target_is_mr: bool,
    /// Static occlusion graphs, one per time step `0..=T`.
    pub occlusion: Vec<UGraph>,
    /// `distances[t][w]`: Euclidean distance from the target to `w` at `t`
    /// (0 for the target itself).
    pub distances: Vec<Vec<f64>>,
    /// Hybrid-participation mask `m_t`: `candidate_mask[t][w]` is `false`
    /// when rendering `w` would be ineffective because a *physically
    /// present* co-located MR participant stands nearer in the same arc.
    pub candidate_mask: Vec<Vec<bool>>,
    /// Preference utilities `p(v, ·)`.
    pub preference: Vec<f64>,
    /// Social-presence utilities `s(v, ·)`.
    pub social: Vec<f64>,
    /// MR mask over participants (physically present users).
    pub mr_mask: Vec<bool>,
    /// Positions per time step: one copy of the scenario's trajectory,
    /// shared by every context built in the same call.
    pub positions: Arc<[Vec<Point2>]>,
    /// Occlusion converter (body radius) used for all visibility queries.
    pub converter: OcclusionConverter,
    /// Room diagonal, used to normalize distances into `[0, 1]`.
    pub room_diagonal: f64,
}

impl TargetContext {
    /// Builds the context for `target` within `scenario` with weight `beta`.
    ///
    /// # Panics
    ///
    /// Panics when `target` is out of range or `beta ∉ [0,1]`.
    pub fn new(scenario: &Scenario, target: usize, beta: f64) -> Self {
        Self::with_blocklist(scenario, target, beta, &[])
    }

    /// Like [`TargetContext::new`], but with an inter-user blocklist (the
    /// paper's footnote 8): blocked users are removed from the candidate
    /// mask `m_t` at every time step, so no recommender built on MIA will
    /// ever render them for this target.
    ///
    /// # Panics
    ///
    /// Panics when `target` is out of range, `beta ∉ [0,1]`, or a blocked
    /// id is out of range.
    pub fn with_blocklist(scenario: &Scenario, target: usize, beta: f64, blocked: &[usize]) -> Self {
        assert!(target < scenario.n(), "target {target} out of range");
        assert!((0.0..=1.0).contains(&beta), "beta must be in [0,1]");
        let n = scenario.n();
        assert!(blocked.iter().all(|&b| b < n), "blocklist entry out of range");

        let mut engine = SceneEngine::for_scenario(scenario, &[target]);
        engine.push_scenario(scenario);
        let mut built = Self::from_engine(scenario, engine, &[(target, beta)], blocked);
        built.pop().expect("one request yields one context")
    }

    /// Builds the contexts of several `(target, beta)` requests over one
    /// scenario through a *single* shared [`SceneEngine`] pass: the distance
    /// matrix and each requested viewer's occlusion structure are maintained
    /// once per tick for the whole scene, instead of once per target.
    ///
    /// Numerically identical to mapping [`TargetContext::new`] over the
    /// requests.
    ///
    /// # Panics
    ///
    /// Panics when a target is out of range or a beta `∉ [0,1]`.
    pub fn batch(scenario: &Scenario, requests: &[(usize, f64)]) -> Vec<Self> {
        for &(target, beta) in requests {
            assert!(target < scenario.n(), "target {target} out of range");
            assert!((0.0..=1.0).contains(&beta), "beta must be in [0,1]");
        }
        let viewers: Vec<usize> = requests.iter().map(|&(target, _)| target).collect();
        let mut engine = SceneEngine::for_scenario(scenario, &viewers);
        engine.push_scenario(scenario);
        Self::from_engine(scenario, engine, requests, &[])
    }

    /// Distributes an already-ingested engine's shared state into contexts,
    /// one per `(target, beta)` request — the entry point for callers that
    /// own and configure their engine (e.g. crowd-scale pruned serving via
    /// [`SceneEngine::set_prune_k`]). Every requested target must have been
    /// registered as a viewer at engine construction. When the engine ran
    /// pruned, the dense fields hold the densified restriction to each
    /// tick's shortlist: users outside it are not candidates, per the
    /// candidate-set contract.
    ///
    /// # Panics
    ///
    /// Panics when the engine's participant count differs from the
    /// scenario's, a target is out of range or unregistered, or a beta
    /// `∉ [0,1]`.
    pub fn with_engine(scenario: &Scenario, engine: SceneEngine, requests: &[(usize, f64)]) -> Vec<Self> {
        for &(target, beta) in requests {
            assert!(target < scenario.n(), "target {target} out of range");
            assert!((0.0..=1.0).contains(&beta), "beta must be in [0,1]");
        }
        assert_eq!(engine.n(), scenario.n(), "engine/scenario participant count mismatch");
        Self::from_engine(scenario, engine, requests, &[])
    }

    /// Distributes an ingested engine's shared per-tick state into compat
    /// contexts, one per request. The per-viewer structures (distance rows,
    /// occlusion graphs, candidate masks, all indexed by slot) are *moved*
    /// out of the engine — each slot's last requester takes ownership,
    /// earlier duplicates clone — so the shared pass allocates each exactly
    /// once.
    fn from_engine(
        scenario: &Scenario,
        engine: SceneEngine,
        requests: &[(usize, f64)],
        blocked: &[usize],
    ) -> Vec<Self> {
        let n = scenario.n();
        let frames = engine.ticks();
        let mr_mask = engine.config().mr_mask.clone();
        let converter = *engine.converter();
        let room_diagonal = engine.config().room_diagonal;
        let positions: Arc<[Vec<Point2>]> = scenario.trajectories.clone().into();
        let slots: Vec<usize> = requests
            .iter()
            .map(|&(target, _)| engine.slot_of(target).expect("request registered at construction"))
            .collect();
        let mut slot_uses = vec![0usize; engine.viewers().len()];
        for &s in &slots {
            slot_uses[s] += 1;
        }

        let mut contexts: Vec<TargetContext> = requests
            .iter()
            .map(|&(target, beta)| TargetContext {
                target,
                n,
                beta,
                target_is_mr: scenario.interfaces[target] == Interface::Mr,
                occlusion: Vec::with_capacity(frames),
                distances: Vec::with_capacity(frames),
                candidate_mask: Vec::with_capacity(frames),
                preference: scenario.preference[target].clone(),
                social: scenario.social[target].clone(),
                mr_mask: mr_mask.clone(),
                positions: Arc::clone(&positions),
                converter,
                room_diagonal,
            })
            .collect();

        for state in engine.into_states() {
            let (_positions, rows, occlusion, masks) = state.into_parts();
            let mut rows: Vec<Option<Vec<f64>>> = rows.into_iter().map(Some).collect();
            let mut occlusion: Vec<Option<UGraph>> = occlusion.into_iter().map(Some).collect();
            let mut masks: Vec<Option<Vec<bool>>> = masks.into_iter().map(Some).collect();
            let mut remaining = slot_uses.clone();
            for (ctx, &slot) in contexts.iter_mut().zip(&slots) {
                remaining[slot] -= 1;
                let last_user = remaining[slot] == 0;
                let row = take_or_clone(&mut rows[slot], last_user);
                let graph = take_or_clone(&mut occlusion[slot], last_user);
                let mut mask = take_or_clone(&mut masks[slot], last_user);
                for &b in blocked {
                    mask[b] = false;
                }
                ctx.occlusion.push(graph);
                ctx.distances.push(row);
                ctx.candidate_mask.push(mask);
            }
        }
        contexts
    }

    /// The brute-force reference: redoes the full O(N²) pairwise visibility
    /// work for this one target at every tick, with no shared scene engine.
    /// Not a serving path — it is the oracle the engine-built contexts are
    /// pinned against bit for bit (the `xr_check` `EngineVsBruteForce`
    /// subject), and the baseline of the `scene_build` benchmark.
    ///
    /// # Panics
    ///
    /// Panics when `target` is out of range, `beta ∉ [0,1]`, or a blocked
    /// id is out of range.
    pub fn brute_force(scenario: &Scenario, target: usize, beta: f64, blocked: &[usize]) -> Self {
        let n = scenario.n();
        assert!(target < n, "target {target} out of range");
        assert!((0.0..=1.0).contains(&beta), "beta must be in [0,1]");
        assert!(blocked.iter().all(|&b| b < n), "blocklist entry out of range");
        let converter = OcclusionConverter::new(scenario.body_radius);
        let mr_mask = scenario.mr_mask();
        let target_is_mr = scenario.interfaces[target] == Interface::Mr;

        let frames = scenario.trajectories.len();
        let mut occlusion = Vec::with_capacity(frames);
        let mut distances = Vec::with_capacity(frames);
        let mut candidate_mask = Vec::with_capacity(frames);

        for positions in &scenario.trajectories {
            occlusion.push(converter.static_graph(target, positions));
            distances.push((0..n).map(|w| positions[target].distance(positions[w])).collect::<Vec<f64>>());
            let mut mask = physical_candidate_mask(&converter, target, target_is_mr, positions, &mr_mask);
            for &b in blocked {
                mask[b] = false;
            }
            candidate_mask.push(mask);
        }

        let room_diagonal = (scenario.room.width().powi(2) + scenario.room.height().powi(2)).sqrt();

        TargetContext {
            target,
            n,
            beta,
            target_is_mr,
            occlusion,
            distances,
            candidate_mask,
            preference: scenario.preference[target].clone(),
            social: scenario.social[target].clone(),
            mr_mask,
            positions: scenario.trajectories.clone().into(),
            converter,
            room_diagonal,
        }
    }

    /// Number of recommendation steps `T` (time indices run `0..=T`).
    pub fn t_max(&self) -> usize {
        self.positions.len() - 1
    }

    /// The display set implied by a recommendation at `t`: the recommended
    /// users plus — when the target is MR — every co-located MR participant,
    /// who is physically present whether recommended or not.
    #[allow(clippy::needless_range_loop)] // w is a user id, not a position
    pub fn displayed(&self, recommendation: &[bool]) -> Vec<bool> {
        let mut displayed = recommendation.to_vec();
        displayed[self.target] = false;
        if self.target_is_mr {
            for w in 0..self.n {
                if w != self.target && self.mr_mask[w] {
                    displayed[w] = true;
                }
            }
        }
        displayed
    }

    /// Visibility of every user at `t` under a recommendation (Def. 1's
    /// `1[v ⇒_t w]`, restricted to recommended users by the caller).
    pub fn visibility(&self, t: usize, recommendation: &[bool]) -> Vec<bool> {
        let displayed = self.displayed(recommendation);
        self.converter.visibility(self.target, &self.positions[t], &displayed)
    }
}

/// Candidate mask `m_t` (MIA, hybrid participation): for an MR target,
/// rendering `w` is ineffective when a *physically present* co-located MR
/// participant other than `w` stands nearer in an overlapping arc — the
/// physical body will cover the rendering. VR targets see a fully virtual
/// scene, so every candidate stays available.
fn physical_candidate_mask(
    converter: &OcclusionConverter,
    target: usize,
    target_is_mr: bool,
    positions: &[Point2],
    mr_mask: &[bool],
) -> Vec<bool> {
    let n = positions.len();
    let mut mask = vec![true; n];
    mask[target] = false; // the target never recommends herself
    if !target_is_mr {
        return mask;
    }
    let arcs = converter.arcs(target, positions);
    for w in 0..n {
        if w == target {
            continue;
        }
        let Some(aw) = arcs[w] else {
            mask[w] = false;
            continue;
        };
        for u in 0..n {
            if u == w || u == target || !mr_mask[u] {
                continue;
            }
            if let Some(au) = arcs[u] {
                if au.distance < aw.distance && au.intersects(&aw) {
                    mask[w] = false;
                    break;
                }
            }
        }
    }
    mask
}

/// A slot's per-viewer structure for one requester: the slot's last
/// requester takes it, earlier ones clone it.
fn take_or_clone<T: Clone>(slot: &mut Option<T>, last_user: bool) -> T {
    if last_user {
        slot.take().expect("slot state consumed once")
    } else {
        slot.as_ref().expect("slot state present").clone()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use xr_crowd::Room;

    /// Hand-built 4-user scenario: target 0 (MR) at origin; 1 = MR blocker
    /// east; 2 = VR behind the blocker; 3 = VR north, clear.
    pub(crate) fn scenario(target_mr: bool) -> Scenario {
        let positions =
            vec![Point2::new(5.0, 5.0), Point2::new(6.0, 5.0), Point2::new(7.0, 5.02), Point2::new(5.0, 8.0)];
        let interfaces = vec![
            if target_mr { Interface::Mr } else { Interface::Vr },
            Interface::Mr,
            Interface::Vr,
            Interface::Vr,
        ];
        let p = vec![
            vec![0.0, 0.4, 0.9, 0.6],
            vec![0.4, 0.0, 0.1, 0.1],
            vec![0.9, 0.1, 0.0, 0.1],
            vec![0.6, 0.1, 0.1, 0.0],
        ];
        let s =
            vec![vec![0.0, 0.0, 0.8, 0.5], vec![0.0; 4], vec![0.8, 0.0, 0.0, 0.0], vec![0.5, 0.0, 0.0, 0.0]];
        Scenario {
            dataset: "unit".into(),
            participants: vec![0, 1, 2, 3],
            interfaces,
            preference: p,
            social: s,
            trajectories: vec![positions.clone(), positions],
            room: Room::new(10.0, 10.0),
            body_radius: 0.25,
        }
    }

    #[test]
    fn context_shapes() {
        let ctx = TargetContext::new(&scenario(true), 0, 0.5);
        assert_eq!(ctx.n, 4);
        assert_eq!(ctx.t_max(), 1);
        assert_eq!(ctx.occlusion.len(), 2);
        assert_eq!(ctx.distances[0].len(), 4);
        assert!((ctx.distances[0][1] - 1.0).abs() < 1e-12);
        assert!(ctx.target_is_mr);
    }

    #[test]
    fn mr_target_prunes_physically_occluded_candidates() {
        let ctx = TargetContext::new(&scenario(true), 0, 0.5);
        let m = &ctx.candidate_mask[0];
        assert!(!m[0], "target is never a candidate");
        assert!(m[1], "the physical blocker itself is visible, hence a candidate");
        assert!(!m[2], "user hidden behind the physical MR participant is pruned");
        assert!(m[3], "clear user remains a candidate");
    }

    #[test]
    fn vr_target_keeps_all_candidates() {
        let ctx = TargetContext::new(&scenario(false), 0, 0.5);
        let m = &ctx.candidate_mask[0];
        assert_eq!(m, &vec![false, true, true, true]);
    }

    #[test]
    fn displayed_forces_colocated_mr_users() {
        let ctx = TargetContext::new(&scenario(true), 0, 0.5);
        let displayed = ctx.displayed(&[false, false, false, true]);
        assert!(displayed[1], "co-located MR participant is physically forced");
        assert!(!displayed[2]);
        assert!(displayed[3]);

        let ctx_vr = TargetContext::new(&scenario(false), 0, 0.5);
        let displayed = ctx_vr.displayed(&[false, false, false, true]);
        assert!(!displayed[1], "VR target sees only recommended users");
    }

    #[test]
    fn visibility_accounts_for_forced_physical_users() {
        let ctx = TargetContext::new(&scenario(true), 0, 0.5);
        // recommend only user 2 (behind the physical MR user 1)
        let vis = ctx.visibility(0, &[false, false, true, false]);
        assert!(!vis[2], "physical MR user occludes the recommendation");
        // for a VR target, user 1 is not displayed, so 2 is visible
        let ctx_vr = TargetContext::new(&scenario(false), 0, 0.5);
        let vis = ctx_vr.visibility(0, &[false, false, true, false]);
        assert!(vis[2]);
    }

    #[test]
    fn blocklist_removes_candidates_everywhere() {
        let ctx = TargetContext::with_blocklist(&scenario(false), 0, 0.5, &[3]);
        for t in 0..ctx.candidate_mask.len() {
            assert!(!ctx.candidate_mask[t][3], "blocked user leaked at t={t}");
        }
        // other users unaffected
        assert!(ctx.candidate_mask[0][1]);
    }

    #[test]
    fn batch_matches_individual_construction_bitwise() {
        // one shared engine pass per scenario vs one engine per target:
        // identical contexts either way
        let scenario = scenario(true);
        let requests = [(0usize, 0.5f64), (1, 0.3), (3, 0.7)];
        let batched = TargetContext::batch(&scenario, &requests);
        for (ctx, &(target, beta)) in batched.iter().zip(&requests) {
            let single = TargetContext::new(&scenario, target, beta);
            assert_eq!(ctx.target, single.target);
            assert_eq!(ctx.occlusion, single.occlusion);
            assert_eq!(ctx.candidate_mask, single.candidate_mask);
            for (a, b) in ctx.distances.iter().flatten().zip(single.distances.iter().flatten()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn engine_contexts_match_the_brute_force_reference_bitwise() {
        // blocklist included: both constructors must drop blocked users
        // from the mask at every tick, and agree on everything else
        for target_mr in [true, false] {
            let scenario = scenario(target_mr);
            for target in 0..scenario.n() {
                let engine = TargetContext::with_blocklist(&scenario, target, 0.5, &[3]);
                let brute = TargetContext::brute_force(&scenario, target, 0.5, &[3]);
                assert_eq!(engine.occlusion, brute.occlusion);
                assert_eq!(engine.candidate_mask, brute.candidate_mask);
                assert_eq!(engine.mr_mask, brute.mr_mask);
                assert_eq!(engine.room_diagonal.to_bits(), brute.room_diagonal.to_bits());
                for (a, b) in engine.distances.iter().flatten().zip(brute.distances.iter().flatten()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn batch_of_nothing_is_empty() {
        assert!(TargetContext::batch(&scenario(false), &[]).is_empty());
    }

    #[test]
    fn pruned_engine_context_at_full_k_matches_the_default_bitwise() {
        // a pruned engine with a complete shortlist (K ≥ n−1) must densify
        // into exactly the context the default path builds — the
        // pruned-vs-full oracle seen from the recommend stack
        let scenario = scenario(true);
        let requests = [(0usize, 0.5f64), (1, 0.3)];
        let viewers: Vec<usize> = requests.iter().map(|&(t, _)| t).collect();
        let mut engine = SceneEngine::for_scenario(&scenario, &viewers);
        engine.set_prune_k(scenario.n() - 1);
        engine.push_scenario(&scenario);
        // complete membership at every tick and slot
        for t in 0..engine.ticks() {
            for slot in 0..viewers.len() {
                let cs = engine.state(t).candidates(slot).expect("a pruned state has a shortlist per slot");
                assert_eq!(cs.len(), scenario.n() - 1, "t={t} slot {slot}");
            }
        }
        let pruned = TargetContext::with_engine(&scenario, engine, &requests);
        let default = TargetContext::batch(&scenario, &requests);
        for (p, d) in pruned.iter().zip(&default) {
            assert_eq!(p.occlusion, d.occlusion);
            assert_eq!(p.candidate_mask, d.candidate_mask);
            for (a, b) in p.distances.iter().flatten().zip(d.distances.iter().flatten()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn pruned_engine_context_at_serving_k_restricts_candidates_to_members() {
        let scenario = scenario(true);
        let mut engine = SceneEngine::for_scenario(&scenario, &[0]);
        engine.set_prune_k(2);
        engine.push_scenario(&scenario);
        let members: Vec<Vec<usize>> = (0..engine.ticks())
            .map(|t| {
                let cs = engine.state(t).candidates(0).expect("a pruned state has a shortlist");
                cs.ids().iter().map(|&w| w as usize).collect()
            })
            .collect();
        let ctx = TargetContext::with_engine(&scenario, engine, &[(0, 0.5)]).pop().unwrap();
        for (t, mask) in ctx.candidate_mask.iter().enumerate() {
            assert_eq!(members[t].len(), 2, "t={t}");
            for (w, &bit) in mask.iter().enumerate() {
                if !members[t].contains(&w) {
                    assert!(!bit, "non-member {w} leaked into the mask at t={t}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "blocklist entry out of range")]
    fn bad_blocklist_panics() {
        TargetContext::with_blocklist(&scenario(true), 0, 0.5, &[99]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_target_panics() {
        TargetContext::new(&scenario(true), 9, 0.5);
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn bad_beta_panics() {
        TargetContext::new(&scenario(true), 0, 1.5);
    }
}
