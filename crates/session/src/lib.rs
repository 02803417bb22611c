//! # xr-session
//!
//! The streaming scene-session layer. Where the original pipeline
//! precomputed every target user's full episode up front (`TargetContext`
//! building N independent O(N²·T) passes over the same room — O(N³·T)
//! total), this crate maintains the scene **once per tick** and hands each
//! target a cheap view borrowing that shared state:
//!
//! * [`SceneEngine`] ingests one [`Frame`] (all positions at tick `t`) at a
//!   time and appends that tick's [`SceneState`]: one [`CandidateSet`] per
//!   registered viewer — its members' exact distances (each pair measured
//!   in `(min, max)` order, bit-exact either way since IEEE negation is
//!   exact), the occlusion edges among them, and the MR co-location mask
//!   bits derived from those edges.
//! * [`TargetView`] borrows one `(viewer, tick)` slice of that shared state;
//!   it is what per-target code (compat wrappers, recommenders) reads.
//!
//! A shortlist is complete (`K = N − 1`, every other user) unless the
//! caller caps it with [`SceneEngine::set_prune_k`]`(k)`, in which case it
//! holds the `K` nearest users out of a per-tick spatial index — the
//! crowd-scale setting, reached only on an engine the caller owns, never
//! through the environment. Every tick is built from its frame alone:
//! nothing is carried from the previous tick.
//!
//! Occlusion edges are found with an angular sweep over arcs sorted by
//! center instead of the all-pairs intersection loop, so a complete tick
//! costs O(V·(N log N + E)) work instead of V·O(N²) — the
//! O(N³·T) → O(N²·T) drop for a whole-scene session (V = N viewers). Every
//! candidate pair still goes through the *exact* [`xr_graph::ViewArc`]
//! intersection predicate and edges come out in the same lexicographic
//! order as the brute-force build, so the graphs densified from them — and
//! everything derived from them — are structurally identical, not just
//! equivalent.

pub mod engine;
pub mod prune;

pub use engine::{Frame, SceneConfig, SceneEngine, SceneState, TargetView};
pub use prune::{CandidateSet, PruneIndex};
