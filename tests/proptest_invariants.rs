//! Property-based invariants spanning the geometry, evaluation, and
//! reduction layers.

use after_xr::poshgnn::{evaluate_sequence, TargetContext};
use after_xr::xr_crowd::Room;
use after_xr::xr_datasets::{Interface, Scenario};
use after_xr::xr_graph::geom::Point2;
use after_xr::xr_graph::{gig_to_dog, mwis_exact, mwis_greedy, DiskGig, OcclusionConverter, UGraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

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
            prop_assert!(row.iter().all(|&u| g.has_edge(u as usize, v)));
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
