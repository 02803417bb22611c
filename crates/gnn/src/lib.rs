//! # xr-gnn
//!
//! Graph-neural-network building blocks on top of the `xr-tensor` autodiff
//! engine — the role PyTorch Geometric plays for the paper:
//!
//! * [`layers`] — dense layers, MLPs, and the paper's sum-aggregation GCN
//!   layer (Eq. 1) used by both PDR and LWP.
//! * [`recurrent`] — GRU, T-GCN \[73\], and diffusion-convolutional GRU
//!   (DCRNN \[72\]) cells for the recurrent baselines.

pub mod layers;
pub mod recurrent;

pub use layers::{Activation, Dense, GcnLayer, Mlp};
pub use recurrent::{DcGruCell, DiffusionConv, GruCell, TgcnCell};
