//! # after-xr
//!
//! Facade crate for the AFTER / POSHGNN reproduction (ICDE 2024):
//! *Adaptive Friend Discovery for Temporal-spatial and Social-aware XR*.
//!
//! The workspace is organized bottom-up; this crate simply re-exports every
//! member so applications can depend on a single crate:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`xr_tensor`] | dense matrices, tape autodiff, Adam/SGD |
//! | [`xr_graph`] | social graphs, occlusion graphs, circular-arc converter, MWIS |
//! | [`xr_crowd`] | ORCA reciprocal collision avoidance |
//! | [`xr_datasets`] | synthetic Timik/SMM/Hubs universes, scenario sampling |
//! | [`xr_gnn`] | GCN/GRU/DCGRU layers |
//! | [`poshgnn`] | the AFTER problem, utility evaluator, and POSHGNN model |
//! | [`xr_baselines`] | Random, Nearest, MvAGC, GraFrank, DCRNN, TGCN, COMURNet |
//! | [`xr_eval`] | metrics, statistics, experiment runners, user-study simulator |
//! | [`xr_obs`] | tracing spans, metrics registry, SLO tracking, flight recorder |
//! | [`xr_session`] | frame-driven `SceneEngine`: from-scratch ticks of per-viewer shortlists, complete or the K nearest |
//! | [`xr_serve`] | multi-room scheduler: mailboxes, admission control, degradation |
//!
//! See `examples/quickstart.rs` for an end-to-end tour and
//! `examples/room_server.rs` for the multi-room serving layer.

pub use poshgnn;
pub use xr_baselines;
pub use xr_crowd;
pub use xr_datasets;
pub use xr_eval;
pub use xr_gnn;
pub use xr_graph;
pub use xr_obs;
pub use xr_serve;
pub use xr_session;
pub use xr_tensor;
