//! Conferencing-room scenarios: participants, interfaces, utilities, and
//! simulated trajectories — everything an AFTER recommender consumes.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use xr_crowd::{Agent, CrowdSimulator, Room, SimConfig};
use xr_graph::geom::Point2;

/// The interface a participant joins through (paper **F3**): in-person MR or
/// remote VR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interface {
    /// In-person participant with an MR headset: physically present, so she
    /// occludes (and is occluded) regardless of recommendations.
    Mr,
    /// Remote participant in VR: rendered only when recommended.
    Vr,
}

/// Parameters of a sampled conferencing-room scenario.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    /// Number of participants `N` in the room.
    pub n_participants: usize,
    /// Fraction of VR (remote) users; the rest are co-located MR users.
    pub vr_fraction: f64,
    /// Number of recommendation steps `T` (the scenario has `T + 1` frames).
    pub time_steps: usize,
    /// Side length of the square room, meters.
    pub room_side: f64,
    /// Avatar body radius, meters (drives both collisions and occlusion).
    pub body_radius: f64,
    /// RNG seed; everything downstream is deterministic in it.
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        // Paper defaults: T = 100, N = 200, 50% VR, 10 m virtual room.
        ScenarioConfig {
            n_participants: 200,
            vr_fraction: 0.5,
            time_steps: 100,
            room_side: 10.0,
            body_radius: 0.25,
            seed: 7,
        }
    }
}

/// A fully materialized scenario for one conferencing room.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Dataset name this scenario was sampled from.
    pub dataset: String,
    /// Global user ids of the participants (indices into the dataset graph).
    pub participants: Vec<usize>,
    /// Interface per participant (local index).
    pub interfaces: Vec<Interface>,
    /// Preference utilities `p[v][w]`, restricted and reindexed to `0..N`.
    pub preference: Vec<Vec<f64>>,
    /// Social-presence utilities `s[v][w]`, restricted and reindexed.
    pub social: Vec<Vec<f64>>,
    /// Positions: `trajectories[t][i]` for `t ∈ 0..=T`.
    pub trajectories: Vec<Vec<Point2>>,
    /// The room everyone moves in.
    pub room: Room,
    /// Avatar body radius, meters.
    pub body_radius: f64,
}

impl Scenario {
    /// Number of participants.
    pub fn n(&self) -> usize {
        self.interfaces.len()
    }

    /// Number of recommendation steps `T` (frames − 1).
    pub fn t_max(&self) -> usize {
        self.trajectories.len() - 1
    }

    /// Boolean mask of MR (physically present) participants.
    pub fn mr_mask(&self) -> Vec<bool> {
        self.interfaces.iter().map(|&i| i == Interface::Mr).collect()
    }

    /// Number of MR participants.
    pub fn mr_count(&self) -> usize {
        self.interfaces.iter().filter(|&&i| i == Interface::Mr).count()
    }
}

/// Samples non-overlapping initial positions by rejection.
fn initial_positions(n: usize, room: Room, radius: f64, rng: &mut StdRng) -> Vec<Point2> {
    let mut positions: Vec<Point2> = Vec::with_capacity(n);
    let min_sep = 2.0 * radius;
    'outer: for _attempt in 0..(n * 2000) {
        if positions.len() == n {
            break;
        }
        let p = Point2::new(
            rng.gen_range(room.min.x + radius..room.max.x - radius),
            rng.gen_range(room.min.y + radius..room.max.y - radius),
        );
        for &q in &positions {
            if p.distance(q) < min_sep {
                continue 'outer;
            }
        }
        positions.push(p);
    }
    // Fall back to jittered grid placement if rejection sampling stalls
    // (only relevant at extreme densities).
    while positions.len() < n {
        let i = positions.len();
        let cols = (n as f64).sqrt().ceil() as usize;
        let cell = (room.width() - 2.0 * radius) / cols as f64;
        let r = i / cols;
        let c = i % cols;
        positions.push(Point2::new(
            room.min.x + radius + (c as f64 + 0.5) * cell,
            room.min.y + radius + (r as f64 + 0.5) * cell.min(room.height() - 2.0 * radius),
        ));
    }
    positions
}

/// Generates trajectories with a random-waypoint policy on top of the ORCA
/// simulator: each participant walks to a goal; on arrival a fresh uniform
/// goal is drawn.
pub fn generate_trajectories(
    n: usize,
    time_steps: usize,
    room: Room,
    body_radius: f64,
    rng: &mut StdRng,
) -> Vec<Vec<Point2>> {
    let starts = initial_positions(n, room, body_radius, rng);
    let sample_goal = |rng: &mut StdRng| {
        Point2::new(
            rng.gen_range(room.min.x + body_radius..room.max.x - body_radius),
            rng.gen_range(room.min.y + body_radius..room.max.y - body_radius),
        )
    };
    let agents: Vec<Agent> = starts
        .iter()
        .map(|&p| {
            let mut a = Agent::new(p, sample_goal(rng));
            a.radius = body_radius;
            a.pref_speed = rng.gen_range(0.6..1.2); // human walking-speed spread
            a
        })
        .collect();
    let mut sim = CrowdSimulator::new(agents, room, SimConfig::default());

    let mut frames = Vec::with_capacity(time_steps + 1);
    frames.push(sim.positions());
    for _ in 0..time_steps {
        // waypoint churn
        for i in 0..n {
            if sim.agents()[i].at_goal(0.3) {
                let g = sample_goal(rng);
                sim.set_goal(i, g);
            }
        }
        sim.step();
        frames.push(sim.positions());
    }
    frames
}

/// Snowball-samples `n` participants from the universe: a random seed user's
/// social neighborhood is expanded breadth-first (shuffled per ring) until
/// `n` users are collected, falling back to uniform fill when the component
/// is exhausted. Conference attendees know each other — uniform sampling
/// from an 850k-user universe would yield a room of mutual strangers, and
/// the social-presence term of the AFTER utility would be vacuous.
pub fn snowball_sample(social: &xr_graph::SocialGraph, n: usize, rng: &mut StdRng) -> Vec<usize> {
    let universe = social.node_count();
    let n = n.min(universe);
    let mut picked = Vec::with_capacity(n);
    let mut seen = vec![false; universe];
    let mut frontier = vec![rng.gen_range(0..universe)];
    seen[frontier[0]] = true;
    while picked.len() < n {
        if frontier.is_empty() {
            // component exhausted: restart from a fresh unseen seed
            let remaining: Vec<usize> = (0..universe).filter(|&v| !seen[v]).collect();
            if remaining.is_empty() {
                break;
            }
            let seed = remaining[rng.gen_range(0..remaining.len())];
            seen[seed] = true;
            frontier.push(seed);
        }
        let mut next = Vec::new();
        frontier.shuffle(rng);
        for v in frontier.drain(..) {
            if picked.len() >= n {
                break;
            }
            picked.push(v);
            for &(w, _) in social.ties(v) {
                if !seen[w] {
                    seen[w] = true;
                    next.push(w);
                }
            }
        }
        frontier = next;
    }
    picked
}

/// Builds a scenario from a universe social graph and its utility matrices.
pub fn sample_scenario(
    dataset_name: &str,
    social_graph: &xr_graph::SocialGraph,
    preference_full: &[Vec<f64>],
    social_full: &[Vec<f64>],
    config: &ScenarioConfig,
) -> Scenario {
    let universe_size = social_graph.node_count();
    assert!(
        config.n_participants <= universe_size,
        "cannot sample {} participants from a universe of {universe_size}",
        config.n_participants
    );
    assert!((0.0..=1.0).contains(&config.vr_fraction), "vr_fraction out of range");
    let mut rng = StdRng::seed_from_u64(config.seed);

    let participants: Vec<usize> = snowball_sample(social_graph, config.n_participants, &mut rng);

    let n = participants.len();
    let n_vr = (config.vr_fraction * n as f64).round() as usize;
    let mut interfaces = vec![Interface::Vr; n_vr];
    interfaces.extend(std::iter::repeat_n(Interface::Mr, n - n_vr));
    interfaces.shuffle(&mut rng);

    let preference = crate::utility::restrict_matrix(preference_full, &participants);
    let social = crate::utility::restrict_matrix(social_full, &participants);

    let room = Room::new(config.room_side, config.room_side);
    let trajectories = generate_trajectories(n, config.time_steps, room, config.body_radius, &mut rng);

    Scenario {
        dataset: dataset_name.to_string(),
        participants,
        interfaces,
        preference,
        social,
        trajectories,
        room,
        body_radius: config.body_radius,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_graph(n: usize) -> xr_graph::SocialGraph {
        // ring graph so snowball sampling always finds neighbors
        let mut g = xr_graph::SocialGraph::new(n);
        for v in 0..n {
            g.add_tie(v, (v + 1) % n, 0.5);
        }
        g
    }

    fn tiny_full(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|v| (0..n).map(|w| if v == w { 0.0 } else { ((v * 31 + w) % 10) as f64 / 10.0 }).collect())
            .collect()
    }

    fn cfg(n: usize, t: usize, seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            n_participants: n,
            vr_fraction: 0.5,
            time_steps: t,
            room_side: 10.0,
            body_radius: 0.15,
            seed,
        }
    }

    #[test]
    fn scenario_shapes_are_consistent() {
        let full = tiny_full(50);
        let s = sample_scenario("test", &tiny_graph(50), &full, &full, &cfg(20, 10, 1));
        assert_eq!(s.n(), 20);
        assert_eq!(s.t_max(), 10);
        assert_eq!(s.trajectories.len(), 11);
        assert_eq!(s.preference.len(), 20);
        assert_eq!(s.preference[0].len(), 20);
        assert_eq!(s.interfaces.len(), 20);
        assert_eq!(s.trajectories[0].len(), 20);
    }

    #[test]
    fn vr_fraction_is_respected() {
        let full = tiny_full(60);
        let s = sample_scenario("test", &tiny_graph(60), &full, &full, &cfg(40, 5, 2));
        let vr = s.interfaces.iter().filter(|&&i| i == Interface::Vr).count();
        assert_eq!(vr, 20);
        assert_eq!(s.mr_count(), 20);
        assert_eq!(s.mr_mask().iter().filter(|&&b| b).count(), 20);
    }

    #[test]
    fn participants_are_distinct_and_in_range() {
        let full = tiny_full(30);
        let s = sample_scenario("test", &tiny_graph(30), &full, &full, &cfg(30, 3, 3));
        let mut sorted = s.participants.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 30);
        assert!(sorted.iter().all(|&v| v < 30));
    }

    #[test]
    fn trajectories_stay_in_room_and_move() {
        let full = tiny_full(40);
        let s = sample_scenario("test", &tiny_graph(40), &full, &full, &cfg(25, 20, 4));
        for frame in &s.trajectories {
            for &p in frame {
                assert!(s.room.contains(p), "{p:?} escaped the room");
            }
        }
        // the crowd actually moves
        let moved: f64 =
            (0..s.n()).map(|i| s.trajectories[0][i].distance(s.trajectories[s.t_max()][i])).sum();
        assert!(moved > 1.0, "crowd is frozen: total displacement {moved}");
    }

    #[test]
    fn scenarios_are_deterministic_in_seed() {
        let full = tiny_full(40);
        let a = sample_scenario("test", &tiny_graph(40), &full, &full, &cfg(15, 8, 99));
        let b = sample_scenario("test", &tiny_graph(40), &full, &full, &cfg(15, 8, 99));
        assert_eq!(a.participants, b.participants);
        assert_eq!(a.trajectories[8], b.trajectories[8]);
        let c = sample_scenario("test", &tiny_graph(40), &full, &full, &cfg(15, 8, 100));
        assert_ne!(a.participants, c.participants);
    }

    #[test]
    fn initial_positions_respect_separation() {
        let mut rng = StdRng::seed_from_u64(5);
        let room = Room::new(10.0, 10.0);
        let pos = initial_positions(50, room, 0.15, &mut rng);
        for i in 0..50 {
            for j in i + 1..50 {
                assert!(pos[i].distance(pos[j]) >= 0.3 - 1e-9);
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn oversampling_panics() {
        let full = tiny_full(5);
        sample_scenario("test", &tiny_graph(5), &full, &full, &cfg(10, 2, 1));
    }
}
