//! # xr-graph
//!
//! Graph substrate for the AFTER/POSHGNN reproduction:
//!
//! * [`geom`] — 2-D geometry shared with the crowd simulator.
//! * [`ugraph`] — undirected simple graphs with adjacency queries.
//! * [`social`] — weighted social networks and structural-similarity scores
//!   used to derive preference (`p`) and social-presence (`s`) utilities.
//! * [`occlusion`] — the circular-arc occlusion converter of paper §III-B,
//!   static and dynamic occlusion graphs, and viewport visibility semantics.
//! * [`mwis`] — exact, greedy, and local-search Maximum Weighted Independent
//!   Set solvers (Def. 5), the combinatorial core of the hardness result.
//! * [`circular`] — exact *polynomial* MWIS for circular-arc graphs, the
//!   structured special case the occlusion converter actually produces.
//! * [`gig`] — geometric intersection graphs (Def. 6) and the GIG → DOG
//!   reduction of Lemma 1 / Thm. 1.

pub mod circular;
pub mod geom;
pub mod gig;
pub mod mwis;
pub mod occlusion;
pub mod social;
pub mod ugraph;

pub use circular::{mwis_circular_arcs, CircArc};
pub use geom::Point2;
pub use gig::{gig_to_dog, weights_to_preferences, DiskGig};
pub use mwis::{local_search_improve, mwis_exact, mwis_greedy, MwisSolution};
pub use occlusion::{DynamicOcclusionGraph, OcclusionConverter, ViewArc};
pub use social::SocialGraph;
pub use ugraph::{PairSort, UGraph};
