//! # xr-datasets
//!
//! Synthetic social-XR datasets standing in for the paper's gated data
//! (Timik, SMM, Mozilla Hubs) plus the scenario sampler that turns a social
//! universe into a conferencing-room instance of the AFTER problem.
//!
//! * [`generators`] — Barabási–Albert, Watts–Strogatz, and stochastic block
//!   model social graphs with graded tie strengths.
//! * [`utility`] — preference `p(v,w)` and social-presence `s(v,w)` models.
//! * [`embedding`] — spectral node embeddings (the "pre-trained social
//!   embeddings" MIA consumes), an alternative preference signal.
//! * [`scenario`] — participants, MR/VR interfaces, ORCA trajectories.
//! * [`catalog`] — the three dataset analogues with paper-default configs.
//! * [`venue`] — crowd-scale stadium/concert generators (N = 10k–100k) with
//!   zoned density, join/leave churn and teleports.

pub mod catalog;
pub mod embedding;
pub mod generators;
pub mod scenario;
pub mod utility;
pub mod venue;

pub use catalog::{Dataset, DatasetKind};
pub use embedding::{spectral_embedding, SpectralEmbedding};
pub use scenario::{Interface, Scenario, ScenarioConfig};
pub use utility::PreferenceModel;
pub use venue::{VenueConfig, VenueKind, VenueSim, VenueZone};
