//! Online failure detection, self-healing overlay repair and NACK
//! retransmission for the multi-tree streaming schemes.
//!
//! The paper's schedules assume a fixed receiver population; this crate
//! supplies the robustness layer that keeps them useful when nodes
//! crash mid-stream:
//!
//! * [`FailureDetector`] — per-link delivery timeouts: a receiver that
//!   stops hearing from a scheduled sender suspects it, and a
//!   configurable number of distinct watchers confirms the failure.
//! * [`WallClockDetector`] — the same detector core keyed by wall-clock
//!   nanoseconds for the networked runtime (`clustream-net`), where
//!   silence is physical rather than simulated.
//! * [`DynamicMultiTree`] — the appendix add/delete dynamics as one
//!   [`clustream_core::Scheme`] with two drivers: the engine's
//!   [`clustream_core::Scheme::membership_event`] (the *self-healing*
//!   tree: an all-leaf node is promoted into a crashed node's interior
//!   positions, ≤ `d²` members displaced per operation, the round-robin
//!   schedule re-derived mid-run) and a *scripted* event list (the
//!   *flash crowd*: a scenario's join curves and regional failures apply
//!   at the top of each slot's transmissions call, so growth replays
//!   bit-identically on every engine).
//! * [`NackManager`] + [`RepairBuffer`] — NACK-based retransmission of
//!   gap packets with capped, jittered, seeded exponential backoff,
//!   served from bounded per-node repair buffers, degrading gracefully
//!   to a recorded hiccup when retries or buffers run out.
//!
//! The discrete-event engine (`clustream_des`) wires these together;
//! with [`RecoveryMode::Off`] none of this machinery is touched and DES
//! runs stay bit-identical to the fail-silent baseline.
//!
//! The state behind all three is probed on every delivery and never
//! iterated, so it is dense — rows indexed by node id and packet seq —
//! and nothing in this crate hashes or descends a tree per event. Every
//! table grows with what it is told, never with a bound it is given: an
//! id outside a detector's id space is ignored (the networked
//! orchestrator feeds it ids off the wire), and a repair buffer's
//! capacity caps its rings without sizing them.

#![warn(missing_docs)]

pub mod buffer;
pub mod config;
pub mod detector;
pub mod dynamic;
pub mod nack;
pub mod wallclock;

pub use buffer::RepairBuffer;
pub use config::{RecoveryConfig, RecoveryMode};
pub use detector::{FailureDetector, TimeoutVerdict};
pub use dynamic::DynamicMultiTree;
pub use nack::NackManager;
pub use wallclock::WallClockDetector;

// `benchmark/` (frozen outside `[benchmark]` PRs) still calls the two
// drivers of `DynamicMultiTree` by their pre-fold type names. Two names,
// zero code: the next `[benchmark]` PR removes both aliases, and nothing
// else in the workspace may use them.
/// [`DynamicMultiTree`] built by `new`: the event-driven, self-healing tree.
pub type SelfHealingMultiTree = DynamicMultiTree;
/// [`DynamicMultiTree`] built by `from_plan`: the scripted flash crowd.
pub type FlashCrowdScheme = DynamicMultiTree;
