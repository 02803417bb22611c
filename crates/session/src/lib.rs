//! # xr-session
//!
//! The streaming scene-session layer. Where the original pipeline
//! precomputed every target user's full episode up front (`TargetContext`
//! building N independent O(N²·T) passes over the same room — O(N³·T)
//! total), this crate maintains the scene **once per tick** and hands each
//! target a cheap view borrowing that shared state:
//!
//! * [`SceneEngine`] ingests one [`Frame`] (all positions at tick `t`) at a
//!   time and appends that tick's [`SceneState`]: each viewer's distance
//!   row (each pair measured in `(min, max)` order — bit-exact either way,
//!   since IEEE negation is exact), the per-viewer occlusion structure, and
//!   the MR co-location candidate masks derived from it.
//! * [`TargetView`] borrows one `(viewer, tick)` slice of that shared state;
//!   it is what per-target code (compat wrappers, recommenders) reads.
//!
//! Per-viewer occlusion graphs are built with an angular sweep over arcs
//! sorted by center instead of the all-pairs intersection loop, so a tick
//! costs O(V·(N log N + E)) work instead of V·O(N²) — the
//! O(N³·T) → O(N²·T) drop for a whole-scene session (V = N viewers). Every
//! candidate pair still goes through the *exact* [`xr_graph::ViewArc`]
//! intersection predicate and edges are inserted in the same lexicographic
//! order as the brute-force build, so the resulting graphs — and everything
//! derived from them — are structurally identical, not just equivalent.
//!
//! Every tick is built from its frame alone: nothing is carried from the
//! previous tick on either payload. Every engine starts on dense full-N
//! state; crowd-scale K-candidate shortlists are reached only through
//! [`SceneEngine::set_prune_k`]`(k)` on an engine the caller owns, never
//! through the environment.

pub mod engine;
pub mod prune;

pub use engine::{Frame, SceneConfig, SceneEngine, SceneState, TargetView};
pub use prune::{CandidateSet, PruneIndex};
