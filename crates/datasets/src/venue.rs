//! Crowd-scale venue generators: stadium and concert scenes at N = 10k–100k.
//!
//! The conferencing-room sampler ([`crate::scenario`]) drives the ORCA
//! simulator — faithful local avoidance, but built for rooms of hundreds.
//! Venue-scale serving benchmarks need *frames*, not collision-accurate
//! trajectories: tens of thousands of users with realistic density structure
//! (zoned annuli — a mosh pit is 10× denser than the fringe), temporal
//! coherence (bounded per-tick steps, so shortlist reuse has something to
//! feed on), and the churn patterns that stress a serving
//! layer: mid-session join/leave and teleporting users.
//!
//! [`VenueSim`] is a streaming generator: O(N) state, O(N) per frame, fully
//! deterministic in its seed. Join/leave churn under a fixed frame width is
//! modeled by *parking*: a departed user sits **bitwise exactly** at the
//! lobby point until they rejoin (what the engine's coincidence rule masks
//! out, and what snap-epsilon ingest and incremental reuse feed on).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xr_crowd::Room;
use xr_graph::geom::Point2;

/// Venue archetype — selects the zone layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VenueKind {
    /// Sparse center (the pitch), dense seating annuli around it.
    Stadium,
    /// Dense center (the mosh pit), thinning toward the fringe.
    Concert,
}

/// One density zone: an annulus around the venue center holding a fraction
/// of the crowd, with its own motion amplitude.
#[derive(Debug, Clone, Copy)]
pub struct VenueZone {
    /// Zone label for diagnostics.
    pub name: &'static str,
    /// Inner radius as a fraction of the venue half-side.
    pub inner: f64,
    /// Outer radius as a fraction of the venue half-side.
    pub outer: f64,
    /// Fraction of the crowd placed in this zone.
    pub fraction: f64,
    /// Per-tick step amplitude multiplier (a mosh pit churns, a seated bowl
    /// barely moves).
    pub step_scale: f64,
}

const STADIUM_ZONES: &[VenueZone] = &[
    VenueZone { name: "pitch", inner: 0.0, outer: 0.15, fraction: 0.02, step_scale: 1.5 },
    VenueZone { name: "lower_bowl", inner: 0.35, outer: 0.65, fraction: 0.58, step_scale: 0.3 },
    VenueZone { name: "upper_bowl", inner: 0.65, outer: 0.95, fraction: 0.40, step_scale: 0.2 },
];

const CONCERT_ZONES: &[VenueZone] = &[
    VenueZone { name: "mosh_pit", inner: 0.0, outer: 0.25, fraction: 0.45, step_scale: 1.8 },
    VenueZone { name: "floor", inner: 0.25, outer: 0.60, fraction: 0.40, step_scale: 0.8 },
    VenueZone { name: "fringe", inner: 0.60, outer: 0.95, fraction: 0.15, step_scale: 0.5 },
];

/// Parameters of a venue simulation.
#[derive(Debug, Clone, Copy)]
pub struct VenueConfig {
    /// Venue archetype.
    pub kind: VenueKind,
    /// Frame width `N` (active + parked users).
    pub n: usize,
    /// RNG seed; every emitted frame is deterministic in it.
    pub seed: u64,
    /// Side length of the square venue, meters.
    pub room_side: f64,
    /// Avatar body radius, meters.
    pub body_radius: f64,
    /// Fraction of MR (physically present) users, spread evenly over ids.
    pub mr_fraction: f64,
    /// Base per-tick step amplitude, meters (scaled per zone).
    pub max_step: f64,
    /// Per-user, per-tick probability of leaving (parking at the lobby) and,
    /// symmetrically, of a parked user rejoining their zone.
    pub churn_prob: f64,
    /// Per-user, per-tick probability of an instantaneous teleport to a
    /// fresh point of the user's own zone.
    pub teleport_prob: f64,
}

impl VenueConfig {
    /// A stadium: 100 m bowl, seated crowd with a sparse pitch, light churn.
    pub fn stadium(n: usize, seed: u64) -> VenueConfig {
        VenueConfig {
            kind: VenueKind::Stadium,
            n,
            seed,
            room_side: 100.0,
            body_radius: 0.25,
            mr_fraction: 0.3,
            max_step: 0.4,
            churn_prob: 0.002,
            teleport_prob: 0.001,
        }
    }

    /// A concert: 60 m floor, dense pit, heavier churn and teleports.
    pub fn concert(n: usize, seed: u64) -> VenueConfig {
        VenueConfig {
            kind: VenueKind::Concert,
            n,
            seed,
            room_side: 60.0,
            body_radius: 0.25,
            mr_fraction: 0.5,
            max_step: 0.6,
            churn_prob: 0.005,
            teleport_prob: 0.003,
        }
    }

    /// The zone layout of this venue's archetype.
    pub fn zones(&self) -> &'static [VenueZone] {
        match self.kind {
            VenueKind::Stadium => STADIUM_ZONES,
            VenueKind::Concert => CONCERT_ZONES,
        }
    }

    /// The venue floor.
    pub fn room(&self) -> Room {
        Room::new(self.room_side, self.room_side)
    }

    /// The lobby parking spot — outside the floor, shared bitwise by every
    /// parked user.
    pub fn lobby(&self) -> Point2 {
        Point2::new(self.room_side + 10.0, self.room_side + 10.0)
    }

    /// Room diagonal for distance normalization.
    pub fn room_diagonal(&self) -> f64 {
        self.room_side * std::f64::consts::SQRT_2
    }

    /// MR mask: `mr_fraction` of users, spread evenly over ids (not a
    /// prefix) so shortlists mix interfaces at every scale.
    pub fn mr_mask(&self) -> Vec<bool> {
        let threshold = (self.mr_fraction.clamp(0.0, 1.0) * 1000.0).round() as u64;
        (0..self.n as u64).map(|i| i.wrapping_mul(2654435761) % 1000 < threshold).collect()
    }
}

/// A streaming venue crowd: O(N) state, one frame per call, deterministic.
#[derive(Debug)]
pub struct VenueSim {
    config: VenueConfig,
    rng: StdRng,
    positions: Vec<Point2>,
    /// Zone index per user (fixed at placement; rejoin returns to it).
    zone: Vec<u8>,
    parked: Vec<bool>,
    tick: u64,
    parks: u64,
    unparks: u64,
    teleports: u64,
}

impl VenueSim {
    /// Places the crowd zone by zone (area-uniform within each annulus).
    pub fn new(config: VenueConfig) -> VenueSim {
        assert!(config.n > 0, "venue needs at least one user");
        assert!((0.0..=1.0).contains(&config.churn_prob), "churn_prob out of range");
        assert!((0.0..=1.0).contains(&config.teleport_prob), "teleport_prob out of range");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let zones = config.zones();
        // zone sizes by fraction, remainder into the last zone
        let mut counts: Vec<usize> =
            zones.iter().map(|z| (z.fraction * config.n as f64).floor() as usize).collect();
        let assigned: usize = counts.iter().sum();
        *counts.last_mut().expect("zone layouts are non-empty") += config.n - assigned.min(config.n);
        let mut positions = Vec::with_capacity(config.n);
        let mut zone = Vec::with_capacity(config.n);
        for (zi, &count) in counts.iter().enumerate() {
            for _ in 0..count {
                if positions.len() == config.n {
                    break;
                }
                positions.push(sample_zone_point(&config, zones[zi], &mut rng));
                zone.push(zi as u8);
            }
        }
        let parked = vec![false; config.n];
        VenueSim { config, rng, positions, zone, parked, tick: 0, parks: 0, unparks: 0, teleports: 0 }
    }

    /// The venue configuration.
    pub fn config(&self) -> &VenueConfig {
        &self.config
    }

    /// Current positions (the last emitted frame).
    pub fn positions(&self) -> &[Point2] {
        &self.positions
    }

    /// Users currently on the floor (not parked).
    pub fn active_count(&self) -> usize {
        self.parked.iter().filter(|&&p| !p).count()
    }

    /// Whether user `i` is parked at the lobby.
    pub fn is_parked(&self, i: usize) -> bool {
        self.parked[i]
    }

    /// Leave events so far.
    pub fn parks(&self) -> u64 {
        self.parks
    }

    /// Rejoin events so far.
    pub fn unparks(&self) -> u64 {
        self.unparks
    }

    /// Teleport events so far.
    pub fn teleports(&self) -> u64 {
        self.teleports
    }

    /// Emits the next frame: the initial placement on the first call, then
    /// one churn/teleport/step update per call.
    pub fn next_frame(&mut self) -> Vec<Point2> {
        if self.tick == 0 {
            self.tick = 1;
            return self.positions.clone();
        }
        self.tick += 1;
        let zones = self.config.zones();
        let lobby = self.config.lobby();
        let room = self.config.room();
        for i in 0..self.config.n {
            if self.parked[i] {
                if self.config.churn_prob > 0.0 && self.rng.gen_bool(self.config.churn_prob) {
                    // rejoin: teleport back into the user's own zone
                    self.positions[i] =
                        sample_zone_point(&self.config, zones[self.zone[i] as usize], &mut self.rng);
                    self.parked[i] = false;
                    self.unparks += 1;
                }
                // else: hold the lobby point bitwise — no RNG, no drift
                continue;
            }
            if self.config.churn_prob > 0.0 && self.rng.gen_bool(self.config.churn_prob) {
                self.positions[i] = lobby;
                self.parked[i] = true;
                self.parks += 1;
                continue;
            }
            if self.config.teleport_prob > 0.0 && self.rng.gen_bool(self.config.teleport_prob) {
                self.positions[i] =
                    sample_zone_point(&self.config, zones[self.zone[i] as usize], &mut self.rng);
                self.teleports += 1;
                continue;
            }
            let s = self.config.max_step * zones[self.zone[i] as usize].step_scale;
            if s > 0.0 {
                let p = self.positions[i];
                let r = self.config.body_radius;
                self.positions[i] = Point2::new(
                    (p.x + self.rng.gen_range(-s..s)).clamp(room.min.x + r, room.max.x - r),
                    (p.y + self.rng.gen_range(-s..s)).clamp(room.min.y + r, room.max.y - r),
                );
            }
        }
        self.positions.clone()
    }
}

/// Area-uniform point of an annulus zone around the venue center.
fn sample_zone_point(config: &VenueConfig, zone: VenueZone, rng: &mut StdRng) -> Point2 {
    let half = config.room_side / 2.0 - config.body_radius;
    let (r0, r1) = (zone.inner * half, zone.outer * half);
    let r = (r0 * r0 + rng.gen::<f64>() * (r1 * r1 - r0 * r0)).sqrt();
    let theta = rng.gen_range(0.0..std::f64::consts::TAU);
    let c = config.room_side / 2.0;
    Point2::new(c + r * theta.cos(), c + r * theta.sin())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_deterministic_in_seed() {
        let mut a = VenueSim::new(VenueConfig::stadium(500, 9));
        let mut b = VenueSim::new(VenueConfig::stadium(500, 9));
        for _ in 0..6 {
            assert_eq!(a.next_frame(), b.next_frame());
        }
        let mut c = VenueSim::new(VenueConfig::stadium(500, 10));
        assert_ne!(a.positions(), c.next_frame().as_slice());
    }

    #[test]
    fn zoned_density_matches_the_layout() {
        let config = VenueConfig::concert(2000, 3);
        let sim = VenueSim::new(config);
        let half = config.room_side / 2.0 - config.body_radius;
        let c = Point2::new(config.room_side / 2.0, config.room_side / 2.0);
        // mosh pit annulus covers ~6% of the floor but holds ~45% of the crowd
        let pit = sim.positions().iter().filter(|p| p.distance(c) <= 0.25 * half + 1e-9).count();
        assert!((850..=950).contains(&pit), "mosh pit holds {pit}/2000, expected ~900");
        // fringe is the thinnest despite the largest area
        let fringe = sim.positions().iter().filter(|p| p.distance(c) > 0.60 * half).count();
        assert!((250..=350).contains(&fringe), "fringe holds {fringe}/2000, expected ~300");
    }

    #[test]
    fn parked_users_sit_bitwise_at_the_lobby() {
        let mut config = VenueConfig::concert(300, 11);
        config.churn_prob = 0.05;
        let lobby = config.lobby();
        let mut sim = VenueSim::new(config);
        for _ in 0..20 {
            sim.next_frame();
        }
        assert!(sim.parks() > 0, "churn_prob=0.05 over 6000 user-ticks produced no departures");
        let parked: Vec<usize> = (0..300).filter(|&i| sim.is_parked(i)).collect();
        for &i in &parked {
            assert_eq!(sim.positions()[i], lobby, "parked user {i} drifted off the lobby point");
        }
        assert_eq!(sim.active_count(), 300 - parked.len());
    }

    #[test]
    fn active_users_stay_on_the_floor_and_move() {
        let config = VenueConfig::stadium(400, 5);
        let room = config.room();
        let mut sim = VenueSim::new(config);
        let first = sim.next_frame();
        let mut moved = 0.0;
        for _ in 0..10 {
            let frame = sim.next_frame();
            for (i, &p) in frame.iter().enumerate() {
                if !sim.is_parked(i) {
                    assert!(room.contains(p), "active user {i} left the floor: {p:?}");
                }
            }
        }
        for (i, p) in first.iter().enumerate() {
            if !sim.is_parked(i) {
                moved += p.distance(sim.positions()[i]);
            }
        }
        assert!(moved > 1.0, "crowd is frozen: total displacement {moved}");
    }

    #[test]
    fn teleports_jump_beyond_the_step_clamp() {
        let mut config = VenueConfig::concert(300, 17);
        config.churn_prob = 0.0;
        config.teleport_prob = 0.05;
        let mut sim = VenueSim::new(config);
        let mut prev = sim.next_frame();
        let max_plain = config.max_step * 1.8 * std::f64::consts::SQRT_2;
        let mut jumps = 0usize;
        for _ in 0..10 {
            let frame = sim.next_frame();
            for (p0, p1) in prev.iter().zip(&frame) {
                if p0.distance(*p1) > max_plain + 1e-9 {
                    jumps += 1;
                }
            }
            prev = frame;
        }
        assert!(sim.teleports() > 0 && jumps > 0, "teleport_prob=0.05 produced no jumps");
    }

    #[test]
    fn crowd_scale_placement_is_cheap_and_well_formed() {
        let config = VenueConfig::stadium(10_000, 1);
        let mut sim = VenueSim::new(config);
        let f0 = sim.next_frame();
        let f1 = sim.next_frame();
        assert_eq!(f0.len(), 10_000);
        assert_eq!(f1.len(), 10_000);
        assert_eq!(config.mr_mask().len(), 10_000);
        let mr = config.mr_mask().iter().filter(|&&b| b).count();
        assert!((2800..=3200).contains(&mr), "mr_fraction=0.3 produced {mr}/10000 MR users");
    }
}
