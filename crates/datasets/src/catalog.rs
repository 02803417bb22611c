//! The three dataset analogues used throughout the evaluation.
//!
//! | Paper dataset | Structure | Our analogue |
//! |---------------|-----------|--------------|
//! | Timik \[68\] — 850k-user social metaverse crawl | scale-free, celebrity hubs | Barabási–Albert universe |
//! | SMM \[69\] — 880k Super Mario players with nationalities | community-clustered | stochastic block model with community attributes |
//! | Hubs \[70\] — 17k trajectory points from a small VR workshop | small, dense, highly clustered | Watts–Strogatz small world |
//!
//! Universe sizes are scaled to what the experiments actually consume
//! (scenarios sample at most 500 participants); the *structural* properties
//! the recommenders are sensitive to are preserved, not the raw user counts.

use rand::rngs::StdRng;
use rand::SeedableRng;
use xr_graph::SocialGraph;

use crate::generators::{barabasi_albert, stochastic_block_model, watts_strogatz};
use crate::scenario::{sample_scenario, Scenario, ScenarioConfig};
use crate::utility::{social_presence_matrix, PreferenceModel};

/// Which paper dataset a synthetic universe emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// Timik-like: scale-free social metaverse.
    Timik,
    /// SMM-like: nationality-community game network.
    Smm,
    /// Hubs-like: small VR workshop.
    Hubs,
}

impl DatasetKind {
    /// Canonical display name.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Timik => "Timik",
            DatasetKind::Smm => "SMM",
            DatasetKind::Hubs => "Hubs",
        }
    }

    /// All three datasets.
    pub fn all() -> [DatasetKind; 3] {
        [DatasetKind::Timik, DatasetKind::Smm, DatasetKind::Hubs]
    }
}

/// A generated dataset universe: the social graph plus precomputed utility
/// matrices.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Which paper dataset this emulates.
    pub kind: DatasetKind,
    /// The universe social graph.
    pub social_graph: SocialGraph,
    /// Community attribute per user (SMM nationalities; `None` elsewhere).
    pub community: Option<Vec<usize>>,
    /// Full preference matrix `p[v][w]` over the universe.
    pub preference: Vec<Vec<f64>>,
    /// Full social-presence matrix `s[v][w]` over the universe.
    pub social_presence: Vec<Vec<f64>>,
}

impl Dataset {
    /// Generates a dataset universe deterministically from `seed`.
    pub fn generate(kind: DatasetKind, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let (graph, community) = match kind {
            DatasetKind::Timik => (barabasi_albert(600, 5, &mut rng), None),
            DatasetKind::Smm => {
                // 10 "nationalities" of 60 players each
                let (g, c) = stochastic_block_model(&[60; 10], 0.12, 0.004, &mut rng);
                (g, Some(c))
            }
            DatasetKind::Hubs => (watts_strogatz(64, 8, 0.15, &mut rng), None),
        };
        let preference = PreferenceModel::default().preference_matrix(&graph);
        let social_presence = social_presence_matrix(&graph);
        Dataset { kind, social_graph: graph, community, preference, social_presence }
    }

    /// Number of users in the universe.
    pub fn universe_size(&self) -> usize {
        self.social_graph.node_count()
    }

    /// Samples a conferencing-room scenario from this universe.
    pub fn sample_scenario(&self, config: &ScenarioConfig) -> Scenario {
        sample_scenario(self.kind.name(), &self.social_graph, &self.preference, &self.social_presence, config)
    }

    /// The paper's default scenario configuration for this dataset:
    /// `T = 100, N = 200, 50% VR` for the large datasets; a small workshop
    /// room with a few dozen users for Hubs.
    pub fn default_scenario_config(&self, seed: u64) -> ScenarioConfig {
        match self.kind {
            DatasetKind::Timik | DatasetKind::Smm => ScenarioConfig { seed, ..ScenarioConfig::default() },
            DatasetKind::Hubs => ScenarioConfig {
                n_participants: 40,
                vr_fraction: 0.5,
                time_steps: 100,
                room_side: 8.0,
                body_radius: 0.25,
                seed,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_generate() {
        for kind in DatasetKind::all() {
            let d = Dataset::generate(kind, 1);
            assert!(d.universe_size() > 0);
            assert_eq!(d.preference.len(), d.universe_size());
            assert_eq!(d.social_presence.len(), d.universe_size());
            assert!(!d.kind.name().is_empty());
        }
    }

    #[test]
    fn smm_has_communities_others_do_not() {
        assert!(Dataset::generate(DatasetKind::Smm, 2).community.is_some());
        assert!(Dataset::generate(DatasetKind::Timik, 2).community.is_none());
        assert!(Dataset::generate(DatasetKind::Hubs, 2).community.is_none());
    }

    #[test]
    fn timik_is_scale_free_hubs_is_clustered() {
        let timik = Dataset::generate(DatasetKind::Timik, 3);
        let hubs = Dataset::generate(DatasetKind::Hubs, 3);
        let g = &timik.social_graph;
        let max_deg = (0..g.node_count()).map(|v| g.degree(v)).max().unwrap() as f64;
        assert!(max_deg > 3.0 * g.mean_degree(), "Timik lacks hubs");
        assert!(hubs.social_graph.transitivity() > 0.2, "Hubs lacks clustering");
    }

    #[test]
    fn default_configs_match_paper() {
        let d = Dataset::generate(DatasetKind::Smm, 4);
        let c = d.default_scenario_config(9);
        assert_eq!(c.n_participants, 200);
        assert_eq!(c.time_steps, 100);
        assert_eq!(c.vr_fraction, 0.5);
        let h = Dataset::generate(DatasetKind::Hubs, 4).default_scenario_config(9);
        assert!(h.n_participants < 64);
    }

    #[test]
    fn scenario_sampling_round_trip() {
        let d = Dataset::generate(DatasetKind::Hubs, 5);
        let cfg = ScenarioConfig { n_participants: 20, time_steps: 10, ..d.default_scenario_config(5) };
        let s = d.sample_scenario(&cfg);
        assert_eq!(s.n(), 20);
        assert_eq!(s.dataset, "Hubs");
        // restricted utilities must match the universe matrices
        let v = s.participants[0];
        let w = s.participants[1];
        assert_eq!(s.preference[0][1], d.preference[v][w]);
        assert_eq!(s.social[0][1], d.social_presence[v][w]);
    }
}
