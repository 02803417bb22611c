//! # xr-crowd
//!
//! ORCA-style reciprocal collision avoidance, reimplementing the crowd
//! simulation role the paper delegates to the RVO2 library \[71\]: generating
//! smooth, non-colliding trajectories for conferencing-room participants.
//!
//! * [`orca`] — the per-pair velocity-obstacle half-plane construction and
//!   the incremental 2-D linear program (with 3-D fallback for dense crowds).
//! * [`simulator`] — agents, rooms, and the stepping loop used by the
//!   dataset scenario generators.

pub mod obstacles;
pub mod orca;
pub mod simulator;

pub use obstacles::{segments_intersect, SegmentObstacle};
pub use orca::{orca_line, solve_velocity, AgentState, OrcaLine};
pub use simulator::{Agent, CrowdSimulator, Room, SimConfig};
