//! Property-based invariants spanning the geometry, evaluation, and
//! reduction layers.

use after_xr::poshgnn::{evaluate_sequence, TargetContext};
use after_xr::xr_crowd::Room;
use after_xr::xr_datasets::{generate_trajectories_with_motion, Interface, MotionProfile, Scenario};
use after_xr::xr_graph::geom::Point2;
use after_xr::xr_graph::{gig_to_dog, mwis_exact, mwis_greedy, DiskGig, OcclusionConverter, UGraph};
use after_xr::xr_session::{Frame, SceneConfig, SceneEngine};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Random positions inside a 10×10 room, none coincident with index 0.
fn positions_strategy(n: usize) -> impl Strategy<Value = Vec<Point2>> {
    proptest::collection::vec((0.3f64..9.7, 0.3f64..9.7), n)
        .prop_map(|pts| pts.into_iter().map(|(x, y)| Point2::new(x, y)).collect())
}

fn scenario_from(positions: Vec<Point2>, beta: f64) -> (Scenario, TargetContext) {
    let n = positions.len();
    let pref: Vec<Vec<f64>> = (0..n)
        .map(|v| (0..n).map(|w| if v == w { 0.0 } else { ((v * 13 + w * 7) % 10) as f64 / 10.0 }).collect())
        .collect();
    let soc: Vec<Vec<f64>> = (0..n)
        .map(|v| (0..n).map(|w| if v == w { 0.0 } else { ((v + w) % 3) as f64 / 4.0 }).collect())
        .collect();
    let scenario = Scenario {
        dataset: "prop".into(),
        participants: (0..n).collect(),
        interfaces: (0..n).map(|i| if i % 2 == 0 { Interface::Mr } else { Interface::Vr }).collect(),
        preference: pref,
        social: soc,
        trajectories: vec![positions.clone(), positions],
        room: Room::new(10.0, 10.0),
        body_radius: 0.25,
    };
    let ctx = TargetContext::new(&scenario, 0, beta);
    (scenario, ctx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Occlusion graphs are symmetric, the target is always isolated, and
    /// the CSR layout is canonical: rows and `edges()` strictly ascending,
    /// and any listing order of the same edges builds an `Eq` graph.
    #[test]
    fn occlusion_graph_invariants(positions in positions_strategy(12), seed in 0u64..1_000_000) {
        let conv = OcclusionConverter::new(0.25);
        let g = conv.static_graph(0, &positions);
        prop_assert_eq!(g.degree(0), 0);
        let edges: Vec<(usize, usize)> = g.edges().collect();
        prop_assert!(edges.windows(2).all(|w| w[0] < w[1]), "edges() not strictly ascending: {:?}", edges);
        for &(a, b) in &edges {
            prop_assert!(g.has_edge(a, b) && g.has_edge(b, a));
            prop_assert!(a != 0 && b != 0);
        }
        for v in 0..g.node_count() {
            let row = g.neighbors(v);
            prop_assert!(row.windows(2).all(|w| w[0] < w[1]), "row {} not strictly ascending", v);
            prop_assert!(row.iter().all(|&u| g.has_edge(u, v)));
        }
        let mut listed: Vec<(usize, usize)> =
            edges.iter().flat_map(|&(a, b)| [(a, b), (b, a)]).collect();
        listed.shuffle(&mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(UGraph::from_edges(g.node_count(), listed), g);
    }

    /// A displayed user occluded under mask M stays occluded under any
    /// superset of M (adding more displayed users can only add blockers).
    #[test]
    fn visibility_is_antitone_in_the_display_set(positions in positions_strategy(10)) {
        let conv = OcclusionConverter::new(0.25);
        let mut small = vec![false; 10];
        for w in [1usize, 3, 5] {
            small[w] = true;
        }
        let mut big = small.clone();
        for w in [2usize, 4, 6, 7, 8, 9] {
            big[w] = true;
        }
        let vis_small = conv.visibility(0, &positions, &small);
        let vis_big = conv.visibility(0, &positions, &big);
        for w in [1usize, 3, 5] {
            // occluded in the small set ⇒ occluded in the big set
            if !vis_small[w] {
                prop_assert!(!vis_big[w], "user {w} gained visibility from extra blockers");
            }
        }
    }

    /// Total AFTER utility is bounded by the sum of available utilities and
    /// is non-negative; occlusion rate is a valid fraction.
    #[test]
    fn utility_bounds(positions in positions_strategy(12), beta in 0.0f64..1.0) {
        let (_, ctx) = scenario_from(positions, beta);
        let rec = vec![true; 12];
        let recs = vec![rec.clone(), rec];
        let b = evaluate_sequence(&ctx, &recs);
        let max_per_step: f64 = (0..12).map(|w| (1.0 - beta) * ctx.preference[w] + beta * ctx.social[w]).sum();
        prop_assert!(b.after_utility >= 0.0);
        prop_assert!(b.after_utility <= 2.0 * max_per_step + 1e-9);
        prop_assert!((0.0..=1.0).contains(&b.view_occlusion_rate));
    }

    /// Recommending strictly fewer users never increases the occlusion count
    /// of the remaining users (monotone blocking).
    #[test]
    fn fewer_recommendations_never_hurt_visibility(positions in positions_strategy(12)) {
        let (_, ctx) = scenario_from(positions, 0.0);
        let all = vec![true; 12];
        let mut half = vec![false; 12];
        for w in (1..12).step_by(2) {
            half[w] = true;
        }
        let vis_all = ctx.visibility(0, &all);
        let vis_half = ctx.visibility(0, &half);
        for w in (1..12).step_by(2) {
            if vis_all[w] {
                prop_assert!(vis_half[w], "user {w} lost visibility when blockers were removed");
            }
        }
    }

    /// Pruned shortlist reuse is an optimization, not an approximation:
    /// under coherence-swept ORCA walks (bounded steps, teleports, dwells)
    /// plus mid-session join/leave churn — modeled as teleports to and from
    /// a shared lobby point — an engine that carries unchanged shortlists
    /// forward by pointer serves every tick bit-identically to one that
    /// rebuilds every shortlist, at any K, retention and snap epsilon.
    #[test]
    fn incremental_scene_state_is_bitwise_from_scratch(
        seed in 0u64..10_000,
        teleport in 0.0f64..0.4,
        dwell in 0.0f64..0.5,
        step_cap in 0.05f64..1.5,
        churn in 0.0f64..0.3,
        jitter in 0.0f64..0.05,
        snap in 0.0f64..0.1,
        k in 1usize..10,
        retention in 0usize..3,
    ) {
        let (n, ticks) = (10usize, 6usize);
        let room = Room::new(8.0, 8.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let profile = MotionProfile {
            max_step: Some(step_cap),
            teleport_prob: teleport,
            dwell_prob: dwell,
            jitter,
        };
        let mut frames = generate_trajectories_with_motion(n, ticks, room, 0.25, &profile, &mut rng);
        // join/leave churn on a fixed frame width: absent users park at a
        // shared lobby point far outside the room
        let lobby = Point2::new(30.0, 30.0);
        let mut present = vec![true; n];
        for frame in frames.iter_mut().skip(1) {
            for i in 0..n {
                if rng.gen_range(0.0..1.0) < churn {
                    present[i] = !present[i];
                }
                if !present[i] {
                    frame[i] = lobby;
                }
            }
        }

        let scene = SceneConfig {
            body_radius: 0.25,
            mr_mask: (0..n).map(|i| i % 2 == 0).collect(),
            room_diagonal: 8.0 * std::f64::consts::SQRT_2,
        };
        let viewers = [0usize, 4, 7];
        // retention 0 draws "unbounded"; snapping is shared ingest
        // semantics, so it is set on both engines (including an epsilon
        // that absorbs the jitter)
        let keep = if retention == 0 { None } else { Some(retention) };
        let build = |incremental: bool| {
            let mut engine = SceneEngine::new(n, scene.clone(), &viewers);
            engine.set_prune_k(k);
            engine.set_incremental(incremental);
            engine.set_state_retention(keep);
            engine.set_snap_epsilon(snap);
            engine
        };
        let mut inc = build(true);
        let mut oracle = build(false);
        for (t, frame) in frames.iter().enumerate() {
            inc.push(Frame::new(frame.clone()));
            oracle.push(Frame::new(frame.clone()));
            let (si, so) = (inc.state(t), oracle.state(t));
            for (i, (p, q)) in si.positions().iter().zip(so.positions()).enumerate() {
                prop_assert!(
                    p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits(),
                    "position[{}] at t={}: reuse {:?} vs rebuild {:?}", i, t, p, q
                );
            }
            for &v in &viewers {
                let ci = inc.view(v, t).candidates().expect("prune_k > 0 builds shortlists");
                let co = oracle.view(v, t).candidates().expect("prune_k > 0 builds shortlists");
                prop_assert_eq!(ci.ids(), co.ids(), "viewer {} ids at t={}", v, t);
                let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
                prop_assert_eq!(
                    bits(ci.distances()), bits(co.distances()),
                    "viewer {} distances at t={}", v, t
                );
                prop_assert_eq!(ci.edges(), co.edges(), "viewer {} edges at t={}", v, t);
                prop_assert_eq!(ci.mask(), co.mask(), "viewer {} mask at t={}", v, t);
                prop_assert_eq!(ci.decide_topk(3), co.decide_topk(3), "viewer {} decision at t={}", v, t);
            }
        }
    }

    /// Thm. 1 reduction: the MWIS optimum is preserved through gig_to_dog,
    /// and greedy never exceeds exact.
    #[test]
    fn reduction_and_solver_ordering(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let gig = DiskGig::random_unit_disks(12, 6.0, 1.0, &mut rng);
        let w: Vec<f64> = (0..12).map(|i| 0.1 + (i % 4) as f64).collect();
        let exact = mwis_exact(&gig.graph, &w);
        let greedy = mwis_greedy(&gig.graph, &w);
        prop_assert!(greedy.weight <= exact.weight + 1e-9);

        let (dog, _) = gig_to_dog(&gig.graph);
        let mut w2 = w.clone();
        w2.push(0.0);
        let via = mwis_exact(dog.at(0), &w2);
        prop_assert!((via.weight - exact.weight).abs() < 1e-9);
    }
}
