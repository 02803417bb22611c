//! # poshgnn
//!
//! The paper's primary contribution: the AFTER problem (Adaptive Friend
//! Discovery for Temporal-spatial and Social-aware XR) and the POSHGNN
//! recommender.
//!
//! * [`problem`] — [`TargetContext`]: one target user's view of an XR
//!   conferencing scenario (occlusion graphs, distances, candidate masks,
//!   utility rows).
//! * [`metrics`] — the AFTER utility (Defs. 2–3) and evaluation metrics.
//! * [`view`] — [`StepView`]: the no-lookahead causal window (ticks
//!   `0..=t`) recommenders receive at each step.
//! * [`recommender`] — the [`AfterRecommender`] trait (Def. 1) every method
//!   (POSHGNN and all baselines) implements.
//! * [`mia`] / [`loss`] / [`model`] — the three POSHGNN submodules: MIA
//!   preprocessing, the POSHGNN loss (Def. 7), and the PDR+LWP network with
//!   its BPTT trainer and ablation variants.

pub mod loss;
pub mod metrics;
pub mod mia;
pub mod model;
pub mod problem;
pub mod recommender;
pub mod view;

pub use loss::{poshgnn_loss, LossParams};
pub use metrics::{evaluate_sequence, UtilityBreakdown};
pub use mia::{Mia, MiaOutput};
pub use model::{PoshGnn, PoshGnnConfig, PoshVariant};
pub use problem::TargetContext;
pub use recommender::{mask_from_indices, threshold_decision, top_k_indices, AfterRecommender};
pub use view::StepView;
