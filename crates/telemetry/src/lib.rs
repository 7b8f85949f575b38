//! Zero-cost-when-disabled instrumentation for `clustream` engines.
//!
//! Engines carry a [`Telemetry`] handle (embedded in their run config,
//! default disabled) and call probe methods at interesting points:
//! monotone [counters](Telemetry::counter), high-water-mark
//! [gauges](Telemetry::gauge_max), log-linear
//! [histograms](Telemetry::observe) (HdrHistogram-style bucketing,
//! in-tree, no registry deps — see [`histogram`]), and RAII
//! [span timers](Telemetry::span) for engine phases.
//!
//! **Disabled is free and inert.** A disabled handle is a `None`; every
//! probe is a single branch, and nothing the engines compute or return
//! depends on whether a recorder is attached — `RunResult`s are
//! bit-identical with telemetry off or on, which `tests/telemetry.rs`
//! enforces with the same differential discipline as
//! `recovery_off_is_the_fail_silent_des`.
//!
//! The in-memory [`MemoryRecorder`] accumulates everything behind a
//! mutex (any clone of its handle may record from any thread) and
//! exports a [`MetricsSnapshot`], which [`export`] maps to and from a
//! deterministic JSONL format consumed by `clustream report`.
//!
//! Metric names live in [`names`]: one flat registry of `&'static str`
//! constants so producers (engines) and consumers (`report`, tests)
//! cannot drift apart silently.

#![warn(missing_docs)]

pub mod export;
pub mod histogram;
pub mod recorder;

pub use export::{from_jsonl, to_jsonl};
pub use histogram::{Histogram, HistogramSnapshot};
pub use recorder::{MemoryRecorder, MetricsSnapshot, Recorder, SpanGuard, SpanStats, Telemetry};

/// The metric name registry.
///
/// Every probe wired through the workspace uses one of these constants
/// (or a documented `*_PREFIX` plus a dynamic suffix, for per-event-class
/// and per-worker metrics). `clustream report` and the telemetry tests
/// reference the same constants, so renaming a metric is a compile-time
/// event, not a silent decode-to-zero.
pub mod names {
    // ----------------------------------------------------- slot engines
    /// Span: one full slot-engine run (reference or mega).
    pub const ENGINE_RUN: &str = "engine.run";
    /// Span: mega's lowering of a declared period into its steady
    /// tables, before the run.
    pub const ENGINE_LOWER: &str = "engine.lower";
    /// Span: mega's steady replay from the hand-off, with the flush of
    /// the sends still in flight at its end.
    pub const ENGINE_REPLAY: &str = "engine.replay";
    /// Span: mega's end of a run, each receiver's playback scored.
    pub const ENGINE_RESULT: &str = "engine.result";
    /// Counter: slots executed.
    pub const ENGINE_SLOTS: &str = "engine.slots";
    /// Counter: packet deliveries (validated receives).
    pub const ENGINE_DELIVERIES: &str = "engine.deliveries";
    /// Counter: transmissions attempted (before loss/validation).
    pub const ENGINE_TRANSMISSIONS: &str = "engine.transmissions";
    /// Histogram: deliveries per slot.
    pub const ENGINE_SLOT_DELIVERIES: &str = "engine.slot_deliveries";
    /// Histogram: per-receiver buffer high-water mark (packets).
    pub const ENGINE_BUFFER_OCCUPANCY: &str = "engine.buffer_occupancy";
    /// Histogram: per-receiver playback delay `a(i)` (slots).
    pub const ENGINE_PLAYBACK_DELAY: &str = "engine.playback_delay";
    /// Counter: receivers whose playback would hiccup at the minimal
    /// safe start (0 for the paper's hiccup-free schedules).
    pub const ENGINE_HICCUPS: &str = "engine.playback_hiccups";

    // -------------------------------------------------------------- DES
    /// Span: one full DES run.
    pub const DES_RUN: &str = "des.run";
    /// Counter: events dispatched (all classes).
    pub const DES_EVENTS: &str = "des.events";
    /// Counter prefix: events per class, e.g. `des.events.deliver`.
    pub const DES_EVENT_PREFIX: &str = "des.events.";
    /// Span prefix: service time per class, e.g. `des.service.deliver`.
    pub const DES_SERVICE_PREFIX: &str = "des.service.";
    /// Gauge (high-water mark): event-queue depth.
    pub const DES_QUEUE_DEPTH_MAX: &str = "des.queue_depth_max";

    // --------------------------------------------------------- recovery
    /// Histogram: failure detection latency (ticks from true crash to
    /// suspicion confirmation).
    pub const RECOVERY_DETECTION_LATENCY: &str = "recovery.detection_latency_ticks";
    /// Histogram: NACK round-trip time (ticks from NACK send to the
    /// retransmitted packet's delivery).
    pub const RECOVERY_NACK_RTT: &str = "recovery.nack_rtt_ticks";
    /// Counter: repairs committed.
    pub const RECOVERY_REPAIRS: &str = "recovery.repairs";
    /// Counter: retransmissions performed.
    pub const RECOVERY_RETRANSMITS: &str = "recovery.retransmits";
    /// Counter: packets abandoned after exhausting NACK retries.
    pub const RECOVERY_ABANDONS: &str = "recovery.abandons";
    /// Counter: control messages (heartbeats, suspicions, NACKs, …).
    pub const RECOVERY_CONTROL_MESSAGES: &str = "recovery.control_messages";

    // ------------------------------------------- networked runtime (net)
    /// Counter: frames written to data links, cluster-wide.
    pub const NET_FRAMES_SENT: &str = "net.frames_sent";
    /// Counter: frames read from data links, cluster-wide.
    pub const NET_FRAMES_RECEIVED: &str = "net.frames_received";
    /// Counter: bytes written to data links, cluster-wide.
    pub const NET_BYTES_SENT: &str = "net.bytes_sent";
    /// Counter: bytes read from data links, cluster-wide.
    pub const NET_BYTES_RECEIVED: &str = "net.bytes_received";
    /// Counter: failed dial attempts before links connected.
    pub const NET_RECONNECTS: &str = "net.reconnects";
    /// Counter: NACKs sent by nodes chasing overdue packets.
    pub const NET_NACKS: &str = "net.nacks";
    /// Counter: retransmissions served in response to NACKs.
    pub const NET_RETRANSMITS: &str = "net.retransmits";
    /// Gauge (high-water mark): per-link send-queue occupancy.
    pub const NET_SEND_QUEUE_HIGH_WATER: &str = "net.send_queue_high_water";
    /// Histogram: observed per-delivery link latency, microseconds.
    pub const NET_LINK_LATENCY_US: &str = "net.link_latency_us";
    /// Counter: frames eaten by injected chaos loss.
    pub const NET_CHAOS_DROPS: &str = "net.chaos.drops";
    /// Counter: frames duplicated by injected chaos.
    pub const NET_CHAOS_DUPS: &str = "net.chaos.dups";
    /// Counter: frames held behind their successor by injected chaos.
    pub const NET_CHAOS_REORDERS: &str = "net.chaos.reorders";
    /// Counter: frames delayed by injected chaos (fixed/jitter/gray).
    pub const NET_CHAOS_DELAYS: &str = "net.chaos.delays";
    /// Counter: frames eaten by an injected partition blackout.
    pub const NET_CHAOS_PARTITION_DROPS: &str = "net.chaos.partition_drops";
    /// Counter: NACKs suppressed by dedup or the retransmit budget.
    pub const NET_NACKS_SUPPRESSED: &str = "net.nacks_suppressed";
    /// Counter: healed schedule updates spliced in by nodes.
    pub const NET_REPAIR_SCHEDULE_UPDATES: &str = "net.repair.schedule_updates";
    /// Histogram: update-receipt to barrier-splice lag, microseconds.
    pub const NET_REPAIR_SPLICE_LAG_US: &str = "net.repair.splice_lag_us";

    // ----------------------------------------------- scenario suite / QoE
    /// Counter: flash-crowd joins applied during a scenario run.
    pub const SCENARIO_JOINS: &str = "scenario.joins";
    /// Counter: regional-failure departures applied during a scenario run.
    pub const SCENARIO_FAILURES: &str = "scenario.failures";
    /// Gauge: interrupted nodes at the paper's `h·d` delay budget
    /// (Wait policy), per thousand members.
    pub const QOE_INTERRUPTED_PER_MILLE: &str = "qoe.interrupted_per_mille";
    /// Gauge: total stall slots at the `h·d` budget (Wait policy).
    pub const QOE_STALL_SLOTS: &str = "qoe.stall_slots";
}
