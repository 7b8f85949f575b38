//! Synchronous time-slotted simulator for `clustream` overlays.
//!
//! The paper models a cluster as a logically fully-connected graph in which,
//! per time slot, every node can transmit one packet and receive one packet
//! (super nodes and the source have elevated *send* capacity). This crate
//! executes any [`clustream_core::Scheme`] under that model:
//!
//! * every transmission is validated (sender holds the packet, send
//!   capacities respected, at most one arrival per node per slot);
//! * arrival slots of the first `track_packets` packets are recorded per
//!   node;
//! * from the arrival table, [`playback`] derives each node's minimal safe
//!   playback start `a(i)`, its buffer high-water mark, and hiccup-freedom;
//! * [`metrics`] accumulates per-sender link rows and traffic counters.
//!
//! The simulator is fully deterministic: same scheme, same config, same
//! result, bit for bit.
//!
//! The semantics are written out twice, both here. The readable
//! reference ([`Simulator`], hash sets, a link set and a `BTreeMap`) is
//! the oracle. The slot kernel ([`kernel`]: columnar bitset holdings,
//! a ring-buffer arrival queue, a [`faults::FaultLedger`], per-sender
//! link rows, reusable arenas) is the one dense implementation, and
//! two drivers run it: [`MegaEngine`] (module [`mega`]), the slot
//! engine, runs the kernel's slot loop and adds precompiled
//! steady-state transmission tables and in-run sharding for runs with
//! 10^5–10^6 nodes, and `clustream_des`'s strict tick admits through it
//! and turns each admitted transmission into a `Deliver` event. (Module
//! [`fast`] is the bare loop, kept for the performance ledger and for
//! tests.) All results are bit-identical; [`diff`]
//! names the fields on which two results differ, the differential
//! oracle (`clustream_des`'s `Column` and `agree`) runs the engines
//! side by side through it, and [`sweep`] farms experiment grids
//! across worker threads with deterministic input-order results.

#![warn(missing_docs)]

pub mod diff;
pub mod engine;
pub mod fast;
pub mod faults;
pub mod kernel;
pub mod mega;
pub mod metrics;
mod parallel;
pub mod playback;
pub mod resilience;
pub mod trace;

pub use diff::diff_fields;
pub use engine::{RunResult, SimConfig, Simulator};
// The performance ledger calls the bare loop by its crate-root name.
pub use fast::*;
pub use faults::{FaultCause, FaultPlan, LossReport, LossyPlayback};
pub use mega::{MegaEngine, MegaSimulator};
pub use parallel::sweep;
pub use playback::{ArrivalTable, PlaybackAnalysis};
pub use resilience::ResilienceMetrics;
pub use trace::{EventTrace, TraceEvent};
