//! # xr-tensor
//!
//! Minimal dense linear algebra plus tape-based reverse-mode automatic
//! differentiation, built from scratch for the AFTER/POSHGNN reproduction.
//!
//! The crate provides exactly what a small graph-neural-network stack needs:
//!
//! * [`Matrix`] — dense row-major `f64` matrices with the usual kernels
//!   (matmul is register-tiled; the reference loop stays as
//!   [`Matrix::matmul_naive`]).
//! * [`CsrAdj`] — CSR sparse matrices with an SpMM kernel
//!   ([`CsrAdj::matmul_dense`]): the one representation of every graph
//!   operator, recorded on a tape as a [`SparseVar`].
//! * [`Tape`] / [`Var`] — a define-by-run autodiff engine. Operations on
//!   [`Var`] handles are recorded on the tape; [`Var::backward`] accumulates
//!   gradients into a [`ParamStore`].
//! * [`ParamStore`] — persistent trainable parameters with gradient and Adam
//!   state, plus flat export/import for checkpointing.
//! * [`optim`] — [`Sgd`] and [`Adam`] optimizers and gradient clipping.
//! * [`init`] — the Xavier initializer and Box–Muller Gaussian sampling.
//! * [`checkpoint`] — save/restore parameters in a validated text format.
//!
//! ## Example
//!
//! ```
//! use xr_tensor::{Matrix, ParamStore, Tape, Adam, Optimizer};
//!
//! // Fit w ≈ 2 by minimizing (w·x − y)² at x = 1, y = 2.
//! let mut store = ParamStore::new();
//! let w = store.register("w", Matrix::zeros(1, 1));
//! let mut adam = Adam::with_lr(0.1);
//! for _ in 0..200 {
//!     let tape = Tape::new();
//!     let wv = tape.param(&store, w);
//!     let x = tape.constant(Matrix::full(1, 1, 1.0));
//!     let y = tape.constant(Matrix::full(1, 1, 2.0));
//!     let err = wv.matmul(x) - y;
//!     let loss = (err * err).sum();
//!     loss.backward(&mut store);
//!     adam.step(&mut store);
//! }
//! assert!((store.value(w)[(0, 0)] - 2.0).abs() < 1e-3);
//! ```

pub mod checkpoint;
pub mod init;
pub mod matrix;
pub mod optim;
pub mod sparse;
pub mod tape;

pub use matrix::{Matrix, ShapeError};
pub use optim::{Adam, Optimizer, Sgd};
pub use sparse::CsrAdj;
pub use tape::{Nonlinearity, ParamId, ParamStore, SparseVar, Tape, Var};
