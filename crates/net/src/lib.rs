//! Real networked deployment of `clustream` schedules.
//!
//! Everything else in the workspace *simulates* the paper's streaming
//! schemes; this crate *runs* them: `clustream-node` processes execute a
//! lowered slot schedule over real sockets (TCP or Unix-domain, plain
//! `std::net` — the container is offline and has no async runtime), and
//! a cluster orchestrator spawns them, injects fail-stop kills with
//! SIGKILL, and measures detection and repair in wall-clock time.
//!
//! The pipeline, end to end:
//!
//! 1. **Lowering** ([`schedule`]) — run the mega slot engine once
//!    with tracing on; split the validated transmission trace into
//!    per-node send/expect calendars ([`NodeConfig`]).
//! 2. **Transport** ([`frame`], [`transport`]) — length-prefixed binary
//!    frames over a socket; explicit [`FrameError`]s for truncated,
//!    oversized, or corrupt input (a malformed peer must never panic a
//!    node).
//! 3. **Node runtime** ([`node`]) — a slot loop over wall-clock
//!    boundaries, mirroring the DES relaxed semantics: deferred sends
//!    release on arrival, overdue tracked packets are NACKed to the
//!    source, silent upstream senders are reported to the control plane
//!    via [`clustream_recovery::WallClockDetector`].
//! 4. **Orchestration** ([`cluster`]) — spawn, configure, start, kill,
//!    collect; children are owned by a [`Reaper`] so no process outlives
//!    the run, and every node's observations aggregate into transport
//!    telemetry and a [`RunTrace`].
//! 5. **Replay oracle** ([`trace`]) — re-run the recorded trace inside
//!    the DES under [`clustream_des::RecordedLatencies`] and score
//!    per-node delivery-order concordance: the check that the physical
//!    deployment implements the semantics the simulators analyze.

#![warn(missing_docs)]

pub mod chaos;
pub mod cluster;
pub mod faultspec;
pub mod frame;
pub mod killspec;
pub mod node;
pub mod schedule;
pub mod trace;
pub mod transport;

pub use chaos::{ChaosPolicy, SendPlan};
pub use cluster::{run_cluster, ClusterOptions, ClusterOutcome, KillOutcome, Reaper, RepairEvent};
pub use faultspec::{format_chaos_spec, parse_chaos_spec, ChaosKind, ChaosSpec, ChaosTarget};
pub use frame::{read_frame, write_frame, Frame, FrameError, MAX_FRAME};
pub use killspec::{format_kill_spec, parse_kill_spec, KillSpec};
pub use node::{run_node, NodeOptions};
pub use schedule::{
    lower_schedule, lower_scheme_healed, CalendarSendObs, LoweredSchedule, NodeConfig, NodeReport,
    ScheduleUpdate, SchemeParams,
};
pub use trace::{compare_delivery_order, replay_in_des, ReplayComparison, RunTrace};
pub use transport::{connect_retry, Conn, NetListener, Transport};
