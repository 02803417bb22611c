//! # xr-serve
//!
//! The multi-room serving layer: many concurrent [`xr_session::SceneEngine`]
//! rooms behind bounded per-room frame mailboxes, scheduled in rounds onto a
//! pinned deterministic worker pool, with admission control and an
//! SLO-driven degradation ladder.
//!
//! * [`par`] — the scoped-thread work-queue pool (moved here from `xr_eval`,
//!   which re-exports it): dynamic index scheduling over an explicit worker
//!   count, `xr_obs` context propagation into workers.
//! * [`mailbox`] — the bounded SPSC-style frame ring with oldest-frame
//!   coalescing and strictly increasing delivery sequence numbers.
//! * [`room`] — one served room: engine + mailbox + the
//!   Full → MaskOnly degradation ladder and the shared top-k-nearest
//!   decision rule.
//! * [`server`] — the [`RoomServer`] front end: admission control, pump
//!   rounds, load shedding, and the `serve.*` metric namespace (windowed
//!   through `xr_obs` timeseries and exported by the Prometheus renderer).
//!
//! ## Determinism contract
//!
//! With no latency budget configured, a multi-room run is **byte-identical
//! at any worker count**: rooms are independent cells, each round's work
//! list is id-ordered, the pool returns results in index order, and the
//! worker count is pinned at server construction. The ladder and shedding
//! are wall-clock-driven, so the contract is scoped to runs where they stay
//! inert (no budget, or a budget no tick misses) — exactly what the
//! `MultiRoomVsSequential` differential subject and the thread-count
//! determinism test pin.

pub mod mailbox;
pub mod par;
pub mod room;
pub mod server;

pub use mailbox::{EnqueueOutcome, FrameMailbox, SeqFrame};
pub use par::par_map_indexed;
pub use room::{decide_topk_f64, decide_view, Decision, Room, RoomConfig, ServeLevel};
pub use server::{AdmitError, PumpReport, RoomDrain, RoomId, RoomServer, ServerConfig, ServerStats};
