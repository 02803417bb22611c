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

/// Temporal-coherence shaping for generated trajectories: the knobs
/// benchmarks sweep to model bounded per-tick motion, idle dwellers, and
/// teleports/churn (a user "leaving" and "re-joining" is a teleport to and
/// from a parking spot under a fixed-width frame).
///
/// The default profile is the identity — [`apply_motion_profile`] then
/// touches neither the frames nor the RNG, so legacy trajectories (and the
/// golden replay built on them) are bit-for-bit unchanged.
#[derive(Debug, Clone, Copy)]
pub struct MotionProfile {
    /// Per-tick displacement clamp, meters: a user's step from the previous
    /// shaped position toward the raw simulated position is truncated to
    /// this length. `None` leaves steps unclamped.
    pub max_step: Option<f64>,
    /// Per-user, per-tick probability of an instantaneous teleport to a
    /// uniform point in the room.
    pub teleport_prob: f64,
    /// Per-user, per-tick probability of holding the previous position
    /// *exactly* (bitwise dwell — what pruned shortlist reuse feeds on).
    pub dwell_prob: f64,
    /// Sensor-noise amplitude, meters: every emitted position is the shaped
    /// *anchor* plus a fresh uniform offset in `[-jitter, jitter]²`. Unlike
    /// the walk knobs the noise oscillates *around* the anchor instead of
    /// accumulating, which is what head-tracking jitter looks like — and
    /// what an ingest snap epsilon `≥ 2·√2·jitter` absorbs entirely. `0.0`
    /// (the default) emits the anchors themselves, bit-for-bit the
    /// pre-jitter behavior, and draws no randomness.
    pub jitter: f64,
}

impl Default for MotionProfile {
    fn default() -> Self {
        MotionProfile { max_step: None, teleport_prob: 0.0, dwell_prob: 0.0, jitter: 0.0 }
    }
}

impl MotionProfile {
    /// `true` when the profile changes nothing (the default).
    pub fn is_identity(&self) -> bool {
        self.max_step.is_none() && self.teleport_prob == 0.0 && self.dwell_prob == 0.0 && self.jitter == 0.0
    }
}

/// Reshapes simulated trajectories in place per a [`MotionProfile`]: frame 0
/// is kept; each later frame's *anchor* is rebuilt per user as teleport /
/// exact dwell / (possibly clamped) step toward the raw simulated position,
/// in that precedence, and the emitted position is the anchor plus sensor
/// jitter. Anchors — not emitted positions — chain across ticks, so jitter
/// oscillates in place instead of compounding into a random walk. RNG draws
/// happen only for enabled knobs, so an identity profile consumes no
/// randomness and `jitter: 0.0` leaves the draw stream of the walk knobs
/// untouched.
pub fn apply_motion_profile(
    frames: &mut [Vec<Point2>],
    room: Room,
    body_radius: f64,
    profile: &MotionProfile,
    rng: &mut StdRng,
) {
    if profile.is_identity() || frames.len() < 2 {
        return;
    }
    assert!((0.0..=1.0).contains(&profile.teleport_prob), "teleport_prob out of range");
    assert!((0.0..=1.0).contains(&profile.dwell_prob), "dwell_prob out of range");
    if let Some(step) = profile.max_step {
        assert!(step.is_finite() && step >= 0.0, "max_step must be finite and non-negative");
    }
    assert!(profile.jitter.is_finite() && profile.jitter >= 0.0, "jitter must be finite and non-negative");
    let n = frames[0].len();
    let mut anchors = frames[0].clone();
    for frame in frames.iter_mut().skip(1) {
        for i in 0..n {
            let prev = anchors[i];
            anchors[i] = if profile.teleport_prob > 0.0 && rng.gen_bool(profile.teleport_prob) {
                Point2::new(
                    rng.gen_range(room.min.x + body_radius..room.max.x - body_radius),
                    rng.gen_range(room.min.y + body_radius..room.max.y - body_radius),
                )
            } else if profile.dwell_prob > 0.0 && rng.gen_bool(profile.dwell_prob) {
                prev
            } else {
                let target = frame[i];
                match profile.max_step {
                    Some(max_step) if prev.distance(target) > max_step => {
                        let scale = max_step / prev.distance(target);
                        Point2::new(
                            prev.x + (target.x - prev.x) * scale,
                            prev.y + (target.y - prev.y) * scale,
                        )
                    }
                    _ => target,
                }
            };
            frame[i] = if profile.jitter > 0.0 {
                let j = profile.jitter;
                Point2::new(anchors[i].x + rng.gen_range(-j..j), anchors[i].y + rng.gen_range(-j..j))
            } else {
                anchors[i]
            };
        }
    }
}

/// [`generate_trajectories`] followed by [`apply_motion_profile`] — the
/// coherence-swept generator entry point for benchmarks and differential
/// workloads. An identity profile is bit-for-bit `generate_trajectories`.
pub fn generate_trajectories_with_motion(
    n: usize,
    time_steps: usize,
    room: Room,
    body_radius: f64,
    profile: &MotionProfile,
    rng: &mut StdRng,
) -> Vec<Vec<Point2>> {
    let mut frames = generate_trajectories(n, time_steps, room, body_radius, rng);
    apply_motion_profile(&mut frames, room, body_radius, profile, rng);
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

    #[test]
    fn identity_motion_profile_is_bitwise_legacy() {
        let room = Room::new(8.0, 8.0);
        let mut rng_a = StdRng::seed_from_u64(42);
        let a = generate_trajectories(12, 10, room, 0.2, &mut rng_a);
        let mut rng_b = StdRng::seed_from_u64(42);
        let b = generate_trajectories_with_motion(12, 10, room, 0.2, &MotionProfile::default(), &mut rng_b);
        assert_eq!(a, b, "identity profile must not perturb frames or RNG state");
        // and the RNG streams stayed in lockstep
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }

    #[test]
    fn max_step_bounds_per_tick_displacement() {
        let room = Room::new(8.0, 8.0);
        let mut rng = StdRng::seed_from_u64(43);
        let profile = MotionProfile { max_step: Some(0.05), ..MotionProfile::default() };
        let frames = generate_trajectories_with_motion(15, 20, room, 0.2, &profile, &mut rng);
        for w in frames.windows(2) {
            for (p0, p1) in w[0].iter().zip(&w[1]) {
                let d = p0.distance(*p1);
                assert!(d <= 0.05 + 1e-12, "step {d} exceeds the clamp");
                assert!(room.contains(*p1));
            }
        }
    }

    #[test]
    fn dwell_produces_bitwise_stationary_users_and_teleports_jump() {
        let room = Room::new(8.0, 8.0);
        let mut rng = StdRng::seed_from_u64(44);
        let profile =
            MotionProfile { max_step: Some(0.1), teleport_prob: 0.05, dwell_prob: 0.6, jitter: 0.0 };
        let frames = generate_trajectories_with_motion(20, 30, room, 0.2, &profile, &mut rng);
        let mut dwells = 0usize;
        let mut jumps = 0usize;
        for w in frames.windows(2) {
            for (p0, p1) in w[0].iter().zip(&w[1]) {
                let d = p0.distance(*p1);
                if p1 == p0 {
                    dwells += 1;
                } else if d > 0.1 + 1e-12 {
                    jumps += 1; // beyond the clamp ⇒ must be a teleport
                }
                assert!(room.contains(*p1));
            }
        }
        assert!(dwells > 100, "dwell_prob=0.6 over 600 user-ticks produced only {dwells} dwells");
        assert!(jumps > 0, "teleport_prob=0.05 produced no jumps");
    }

    #[test]
    fn jitter_oscillates_around_anchors_without_drifting() {
        let room = Room::new(8.0, 8.0);
        let mut rng = StdRng::seed_from_u64(45);
        // max_step 0 pins every anchor at frame 0, so all emitted motion is
        // pure sensor noise — it must stay inside the jitter box forever
        // instead of compounding into a random walk
        let profile =
            MotionProfile { max_step: Some(0.0), teleport_prob: 0.0, dwell_prob: 0.0, jitter: 0.01 };
        let frames = generate_trajectories_with_motion(15, 40, room, 0.2, &profile, &mut rng);
        for (t, frame) in frames.iter().enumerate().skip(1) {
            for i in 0..15 {
                let d = frame[i].distance(frames[0][i]);
                assert!(
                    d <= 0.01 * std::f64::consts::SQRT_2 + 1e-12,
                    "tick {t}: user {i} drifted {d} from its anchor"
                );
            }
        }
        assert_ne!(frames[1], frames[0], "jitter must actually perturb emitted positions");
    }
}
