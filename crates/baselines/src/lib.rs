//! # xr-baselines
//!
//! The seven comparison methods of the paper's evaluation (§V-A.2), all
//! implementing [`poshgnn::AfterRecommender`]:
//!
//! | Method | Kind | Module |
//! |--------|------|--------|
//! | Random | trivial | [`simple`] |
//! | Nearest | trivial, spatial | [`simple`] |
//! | MvAGC \[66\] | static grouping | [`mvagc`] |
//! | GraFrank \[31\] | static personalized ranking | [`grafrank`] |
//! | TGCN \[73\] | recurrent GNN, POSHGNN loss | [`rnn`] |
//! | DCRNN \[72\] | recurrent GNN, POSHGNN loss | [`rnn`] |
//! | COMURNet \[37\] | per-step RL, hard no-occlusion | [`comurnet`] |
//!
//! Plus [`oracle`] — a per-step weighted-MWIS reference (not in the paper)
//! used to report optimality gaps of the learned methods.

pub mod comurnet;
pub mod grafrank;
pub mod mvagc;
pub mod oracle;
pub mod rnn;
pub mod simple;

#[cfg(test)]
pub(crate) mod test_support;

pub use comurnet::{ComurNetConfig, ComurNetRecommender};
pub use grafrank::{GraFrankConfig, GraFrankRecommender};
pub use mvagc::MvAgcRecommender;
pub use oracle::MwisOracle;
pub use rnn::{RnnConfig, RnnKind, RnnRecommender};
pub use simple::{NearestRecommender, RandomRecommender};
