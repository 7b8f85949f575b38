//! The interface between streaming overlays and the slot simulator.
//!
//! A **scheme** (multi-tree, hypercube, chain, …) is a deterministic
//! generator of per-slot transmissions. The simulator in `clustream-sim`
//! drives a scheme slot by slot, enforces the communication model (send
//! capacities, one receive per node per slot, packets must be held before
//! being forwarded), tracks arrivals, and derives QoS metrics.
//!
//! Schemes may keep whatever internal state they need (tree tables, cube
//! buffers); the [`StateView`] passed to [`Scheme::transmissions`] exposes
//! the simulator's ground-truth buffers for schemes that prefer to consult
//! it — the structured schemes of the paper are fully deterministic and
//! typically ignore it.

use crate::ids::{NodeId, PacketId, Slot};

/// One directed packet transfer initiated during a slot.
///
/// A transmission sent during slot `t` with latency `ℓ` is usable by the
/// receiver from slot `t + ℓ` onward. Intra-cluster transfers have
/// `latency = 1` (the paper's `T_i = 1`); inter-cluster transfers have
/// `latency = T_c > 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Transmission {
    /// Sending node (must hold `packet` at the start of the slot, except the
    /// source, which holds every produced packet).
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// The packet transferred.
    pub packet: PacketId,
    /// Slots until the packet is usable by `to` (`1` = next slot).
    pub latency: u32,
}

impl Transmission {
    /// An intra-cluster transfer (`latency = 1`, the paper's `T_i`).
    #[inline]
    pub fn local(from: NodeId, to: NodeId, packet: PacketId) -> Self {
        Transmission {
            from,
            to,
            packet,
            latency: 1,
        }
    }

    /// An inter-cluster transfer taking `t_c` slots (the paper's `T_c`).
    #[inline]
    pub fn remote(from: NodeId, to: NodeId, packet: PacketId, t_c: u32) -> Self {
        Transmission {
            from,
            to,
            packet,
            latency: t_c,
        }
    }
}

/// When stream packets become available at the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Availability {
    /// All packets exist at slot 0 (delivery of a movie, §2.2.3).
    #[default]
    PreRecorded,
    /// Packet `p` is produced during slot `p` and can first be transmitted
    /// in slot `p` (a live broadcast). Schemes targeting live streams must
    /// never schedule a packet before it exists.
    Live,
}

impl Availability {
    /// Whether `packet` can be transmitted by the source during `slot`.
    #[inline]
    pub fn produced(self, packet: PacketId, slot: Slot) -> bool {
        match self {
            Availability::PreRecorded => true,
            Availability::Live => packet.seq() <= slot.t(),
        }
    }
}

/// Read-only view of simulator ground truth offered to schemes.
pub trait StateView {
    /// Whether `node` holds `packet` (arrived and usable) at the start of
    /// the current slot. The source implicitly holds every produced packet.
    fn holds(&self, node: NodeId, packet: PacketId) -> bool;

    /// The highest-numbered packet `node` has received, if any.
    fn newest(&self, node: NodeId) -> Option<PacketId>;

    /// The current slot being scheduled.
    fn slot(&self) -> Slot;
}

/// A runtime membership change reported to a scheme by the engine's
/// recovery layer (see `clustream-recovery`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipEvent {
    /// The node has been confirmed crashed; the scheme should route
    /// around it from the current slot onward.
    Failed,
    /// A previously failed node has come back and should be readmitted.
    Rejoined,
}

/// What a self-healing scheme did in response to a [`MembershipEvent`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Label/position swaps performed by the repair (the appendix
    /// dynamics' work measure).
    pub swaps: usize,
    /// Nodes whose schedule positions changed — each may suffer a
    /// transient gap bounded by the paper's `d²` displacement bound.
    pub displaced: Vec<NodeId>,
}

/// A scheme's declared steady-state periodicity.
///
/// A scheme returning `Some(SchedulePeriod { warmup, period })` from
/// [`Scheme::schedule_period`] promises that for every slot
/// `t ≥ warmup`, the transmission list of slot `t + period` equals the
/// list of slot `t` with every packet id advanced by exactly `period`
/// (same senders, receivers, latencies and emission order), that it
/// never consults the [`StateView`] — its lists depend on the slot
/// alone, so an engine may ask for them ahead of the run — and that
/// send capacities and availability are time-invariant. Engines may
/// exploit the declaration by lowering one period of the schedule into
/// a flat table and replaying it without per-slot scheme dispatch. The
/// mega engine generates the period ahead of the run with a view that
/// answers only [`StateView::slot`] and drops the lowering on any other
/// call, *verifies* one full repeated period against it, and then
/// compares each slot before `warmup` with the table *clipped at packet
/// 0* (the sends that would carry a negative packet id removed): the
/// run replays the table from slot 0 when every one of them is the
/// clipped table, from `warmup` otherwise. So a wrong declaration
/// degrades performance but never correctness.
///
/// Two further obligations come with it:
///
/// * **Replayable from slot 0.** An engine may ask for slots out of
///   order (the mega engine generates `[warmup, warmup + 2·period)`
///   and then the ramp from slot 0 before the run, and runs everything
///   again from slot 0 when a check in its replay fails).
///   A scheme whose state advances with the slots — a scripted
///   membership — must rewind to its initial state when asked for a
///   slot below the last one it served.
/// * **Nothing changes after `warmup` but the slot.** Past the hand-off
///   an engine stops asking for transmissions, so a declaration must not
///   begin before the scheme's last self-inflicted change (a scripted
///   event): the replay would silently run the stale schedule. A
///   [`Scheme::membership_event`] voids the declaration outright; only
///   the discrete-event runtime delivers those, and it never reads one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulePeriod {
    /// First slot from which the pattern repeats.
    pub warmup: u64,
    /// Repetition period in slots (≥ 1); packet ids advance by `period`
    /// per period.
    pub period: u64,
}

/// A streaming overlay: topology plus per-slot transmission schedule.
pub trait Scheme {
    /// Human-readable identifier used in reports (e.g. `"multi-tree(d=3)"`).
    fn name(&self) -> String;

    /// Number of receivers `N` (excluding the source and excluding dummy
    /// placeholder nodes).
    fn num_receivers(&self) -> usize;

    /// Size of the node-id space: every `NodeId` this scheme emits is
    /// `< id_space()`. Defaults to `N + 1` (receivers plus source `0`).
    fn id_space(&self) -> usize {
        self.num_receivers() + 1
    }

    /// The nodes whose QoS should be measured. Defaults to ids `1..=N`;
    /// schemes with non-contiguous populations (dummy placeholders,
    /// multi-cluster id spaces) override this.
    fn receivers(&self) -> Vec<NodeId> {
        (1..=self.num_receivers() as u32).map(NodeId).collect()
    }

    /// How many packets `node` may transmit in one slot. Defaults to 1 for
    /// everyone; schemes override it so the source gets `d`
    /// (intra-cluster) or `D` (backbone) and super nodes their elevated
    /// capacities.
    fn send_capacity(&self, node: NodeId) -> usize {
        let _ = node;
        1
    }

    /// Packet availability model this scheme is driving.
    fn availability(&self) -> Availability {
        Availability::PreRecorded
    }

    /// Append every transmission initiated during `slot` to `out`.
    ///
    /// `out` is cleared by the caller; it is passed in (rather than
    /// returned) so the simulator can reuse one allocation across the whole
    /// run.
    fn transmissions(&mut self, slot: Slot, view: &dyn StateView, out: &mut Vec<Transmission>);

    /// The scheme's steady-state periodicity, if it has one (see
    /// [`SchedulePeriod`] for the exact contract). Defaults to `None`:
    /// view-dependent or aperiodic schemes simply keep the default and
    /// engines generate every slot live.
    fn schedule_period(&self) -> Option<SchedulePeriod> {
        None
    }

    /// Natural contiguous partition boundaries of the id space, for
    /// engines that shard a run across workers: each entry is the first
    /// id of a natural group (e.g. a cluster), ascending, excluding 0.
    /// `None` (the default) means there is no natural structure and an
    /// engine may cut the id space anywhere.
    fn shard_boundaries(&self) -> Option<Vec<u32>> {
        None
    }

    /// Notify the scheme of a confirmed membership change at runtime.
    ///
    /// Self-healing schemes (see `clustream-recovery`) rewire their
    /// topology and return what the repair displaced; static schemes keep
    /// the default no-op and return `None` (the engine then treats the
    /// failure as permanently fail-silent, PR 2 behavior).
    fn membership_event(&mut self, node: NodeId, event: MembershipEvent) -> Option<RepairOutcome> {
        let _ = (node, event);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_and_remote_latencies() {
        let t = Transmission::local(NodeId(1), NodeId(2), PacketId(5));
        assert_eq!(t.latency, 1);
        let t = Transmission::remote(NodeId(1), NodeId(2), PacketId(5), 10);
        assert_eq!(t.latency, 10);
    }

    #[test]
    fn prerecorded_always_available() {
        let a = Availability::PreRecorded;
        assert!(a.produced(PacketId(1_000_000), Slot(0)));
    }

    #[test]
    fn live_packets_appear_at_their_slot() {
        let a = Availability::Live;
        assert!(!a.produced(PacketId(5), Slot(4)));
        assert!(a.produced(PacketId(5), Slot(5)));
        assert!(a.produced(PacketId(5), Slot(6)));
        assert!(a.produced(PacketId(0), Slot(0)));
    }

    #[test]
    fn default_scheme_capacities_are_unit() {
        struct Nop;
        impl Scheme for Nop {
            fn name(&self) -> String {
                "nop".into()
            }
            fn num_receivers(&self) -> usize {
                3
            }
            fn transmissions(&mut self, _: Slot, _: &dyn StateView, _: &mut Vec<Transmission>) {}
        }
        let s = Nop;
        assert_eq!(s.id_space(), 4);
        assert_eq!(s.send_capacity(NodeId(0)), 1);
        assert_eq!(s.send_capacity(NodeId(2)), 1);
    }
}
