//! The event queue: timestamped events popped in deterministic order.
//!
//! Time is measured in **ticks**, a fixed-point subdivision of the slot
//! ([`TICKS_PER_SLOT`] ticks per slot) so that jittered latencies can fall
//! *between* slot boundaries while slot-aligned events remain exact — no
//! floating-point time, no accumulation error, total order guaranteed.
//!
//! Events at the same tick are ordered by **class** and then by insertion
//! sequence number:
//!
//! 1. [`EventKind::Deliver`] — a packet arriving at a node. Processing
//!    deliveries first makes a packet arriving exactly at a slot boundary
//!    usable *during* that slot, matching the slot engines ("a packet sent
//!    at `t` with latency `ℓ` is usable from `t + ℓ`").
//! 2. [`EventKind::Churn`] — membership changes applied at slot
//!    boundaries, before the schedule consults the population.
//! 3. [`EventKind::SuspectTimeout`] — a link-silence timer firing at the
//!    failure detector (after same-tick deliveries, so a delivery landing
//!    exactly on the deadline re-arms instead of suspecting).
//! 4. [`EventKind::RepairCommit`] — a confirmed failure triggering the
//!    appendix delete dynamics, before the slot's calendar is consulted
//!    so the rebuilt schedule takes effect the same slot.
//! 5. [`EventKind::PlaybackTick`] — the slot boundary itself: playback
//!    consumes one packet-slot and the scheme's calendar is consulted for
//!    the new slot's transmissions.
//! 6. [`EventKind::Send`] — a validated transmission leaving a node's
//!    uplink (possibly later than its calendar slot if the uplink gate
//!    serialized it behind earlier sends). Relaxed runs only: a strict
//!    (slot-faithful) run's tick pushes each transmission's `Deliver`
//!    directly.
//! 7. [`EventKind::Nack`] — a gap-retry timer at a receiver (after the
//!    slot's regular sends, so a same-tick regular delivery wins).
//! 8. [`EventKind::Retransmit`] — a repair server answering a NACK.
//!
//! The recovery classes interleave with the original four without
//! disturbing their relative order, so a run that never schedules a
//! recovery event pops the exact same sequence as before the recovery
//! layer existed — the recovery-off bit-identity the differential suite
//! enforces.
//!
//! Insertion order as the final tie-break makes the whole simulation
//! deterministic and, in the degenerate slot-faithful configuration,
//! reproduces the slot engines' delivery order exactly.
//!
//! The queue itself is a trait, [`EventQueue`], with two production
//! implementations: [`HeapQueue`], the original binary min-heap, and
//! [`crate::WheelQueue`], a hierarchical timing wheel that pops the
//! identical sequence an order of magnitude cheaper (see `wheel.rs` for
//! the structure and the determinism argument). A third,
//! [`crate::CheckedQueue`], drives both in lockstep and records the first
//! pop where they differ — the queue-level analogue of the engine
//! differential oracle.

use clustream_core::{NodeId, PacketId, Transmission};
use clustream_workloads::ResolvedChurnAction;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Fixed-point sub-slot resolution: one slot is this many ticks.
///
/// A power of two, so slot-aligned times (`slot * TICKS_PER_SLOT`) and
/// per-capacity uplink occupancy (`TICKS_PER_SLOT / capacity`) stay exact
/// for every capacity the schemes use.
pub const TICKS_PER_SLOT: u64 = 1024;

/// What an event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// `packet` arrives at `to` and becomes usable.
    Deliver {
        /// Sending node (feeds the failure detector's link freshness).
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// The packet delivered.
        packet: PacketId,
    },
    /// A membership change from a resolved churn trace.
    Churn(ResolvedChurnAction),
    /// A link-silence timer: `watcher` checks whether it has heard from
    /// `subject` recently enough.
    SuspectTimeout {
        /// The receiver timing the link.
        watcher: NodeId,
        /// The sender being timed.
        subject: NodeId,
    },
    /// A confirmed failure commits the tree repair.
    RepairCommit {
        /// The node whose failure was confirmed.
        failed: NodeId,
    },
    /// A slot boundary: advance the playback clock and consult the
    /// scheme's calendar for the new slot.
    PlaybackTick,
    /// A validated transmission dispatches from its sender's uplink
    /// (relaxed runs only).
    Send(Transmission),
    /// A gap-retry timer: `node` (re)requests `packet` (attempt number
    /// drives the backoff and the source escalation).
    Nack {
        /// The receiver chasing the gap.
        node: NodeId,
        /// The missing packet.
        packet: PacketId,
        /// Zero-based retry attempt.
        attempt: u32,
    },
    /// A repair server answers a NACK with a retransmission.
    Retransmit {
        /// The serving node (or the source).
        from: NodeId,
        /// The requester.
        to: NodeId,
        /// The packet being repaired.
        packet: PacketId,
    },
}

/// Number of same-tick processing classes.
pub const NUM_CLASSES: usize = 8;

impl EventKind {
    /// Same-tick processing class (lower fires first).
    pub fn class(&self) -> u8 {
        match self {
            EventKind::Deliver { .. } => 0,
            EventKind::Churn(_) => 1,
            EventKind::SuspectTimeout { .. } => 2,
            EventKind::RepairCommit { .. } => 3,
            EventKind::PlaybackTick => 4,
            EventKind::Send(_) => 5,
            EventKind::Nack { .. } => 6,
            EventKind::Retransmit { .. } => 7,
        }
    }
}

/// A scheduled event. Ordered by `(time, class, seq)` ascending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Fire time in ticks.
    pub time: u64,
    /// Insertion sequence number (unique; the deterministic tie-break).
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

impl Event {
    fn key(&self) -> (u64, u8, u64) {
        (self.time, self.kind.class(), self.seq)
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other.key().cmp(&self.key())
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The scheduling interface the DES engine drives.
///
/// Every implementation pops events in ascending `(time, class, seq)`
/// order — the total order documented at the top of this module — so two
/// implementations fed the identical push sequence return the identical
/// pop sequence, event for event.
///
/// **Push contract:** `push(time, …)` must satisfy `time ≥` the fire time
/// of the most recently popped event. The engine never schedules into the
/// past (every handler schedules at or after the event it is processing),
/// and the timing wheel exploits this monotonicity: its cursor only moves
/// forward. Implementations `debug_assert!` the contract and clamp in
/// release builds.
///
/// **Cancellation** is lazy: [`EventQueue::cancel`] marks a sequence
/// number (as returned by `push`) dead, and the entry is silently dropped
/// when its turn comes. `len` therefore keeps counting a cancelled entry
/// until its fire time passes — identically across implementations, which
/// is what the lockstep oracle checks. Cancelling a seq that was already
/// popped, or never issued, leaves a tombstone that matches nothing.
pub trait EventQueue {
    /// Schedule `kind` at `time` ticks; returns the insertion sequence
    /// number (the cancellation handle).
    fn push(&mut self, time: u64, kind: EventKind) -> u64;

    /// Remove and return the earliest non-cancelled event.
    fn pop(&mut self) -> Option<Event>;

    /// Lazily cancel the event that `push` returned `seq` for.
    fn cancel(&mut self, seq: u64);

    /// Events currently scheduled (cancelled-but-unexpired included).
    fn len(&self) -> usize;

    /// Whether no events are scheduled.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever scheduled (the DES throughput denominator).
    fn total_pushed(&self) -> u64;

    /// The first disagreement of a lockstep pair ([`crate::CheckedQueue`]),
    /// which ended its drain. A single queue has nothing to disagree with.
    fn divergence(&self) -> Option<String> {
        None
    }
}

/// Min-heap of events with a monotonically increasing sequence counter:
/// the original, obviously-correct [`EventQueue`] — `O(log n)` per
/// operation — kept as the reference implementation the timing wheel is
/// checked against.
#[derive(Debug, Default)]
pub struct HeapQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
    pushed: u64,
    cancelled: HashSet<u64>,
}

impl HeapQueue {
    /// An empty queue.
    pub fn new() -> HeapQueue {
        HeapQueue::default()
    }
}

impl EventQueue for HeapQueue {
    fn push(&mut self, time: u64, kind: EventKind) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed += 1;
        self.heap.push(Event { time, seq, kind });
        seq
    }

    fn pop(&mut self) -> Option<Event> {
        while let Some(e) = self.heap.pop() {
            if !self.cancelled.is_empty() && self.cancelled.remove(&e.seq) {
                continue;
            }
            return Some(e);
        }
        None
    }

    fn cancel(&mut self, seq: u64) {
        self.cancelled.insert(seq);
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn total_pushed(&self) -> u64 {
        self.pushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wheel::{CheckedQueue, WheelQueue};
    use clustream_core::SOURCE;

    fn deliver(to: u32, p: u64) -> EventKind {
        EventKind::Deliver {
            from: SOURCE,
            to: NodeId(to),
            packet: PacketId(p),
        }
    }

    /// Every ordering test runs on every implementation: the trait
    /// contract, not any one structure, is what the engine relies on.
    fn each_impl(check: impl Fn(&mut dyn EventQueue)) {
        check(&mut HeapQueue::new());
        check(&mut WheelQueue::new());
        check(&mut CheckedQueue::new());
    }

    #[test]
    fn pops_in_time_order() {
        each_impl(|q| {
            q.push(30, EventKind::PlaybackTick);
            q.push(10, EventKind::PlaybackTick);
            q.push(20, EventKind::PlaybackTick);
            let times: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
            assert_eq!(times, vec![10, 20, 30]);
        });
    }

    #[test]
    fn same_tick_orders_by_class_then_seq() {
        each_impl(|q| {
            let tx = Transmission::local(SOURCE, NodeId(1), PacketId(0));
            q.push(5, EventKind::Send(tx));
            q.push(5, EventKind::PlaybackTick);
            q.push(5, deliver(2, 7));
            q.push(5, deliver(3, 8));
            let kinds: Vec<u8> = std::iter::from_fn(|| q.pop())
                .map(|e| e.kind.class())
                .collect();
            assert_eq!(kinds, vec![0, 0, 4, 5]);
        });
        // Same class, same tick: insertion order.
        each_impl(|q| {
            q.push(5, deliver(2, 7));
            q.push(5, deliver(3, 8));
            let first = q.pop().unwrap();
            assert_eq!(first.kind, deliver(2, 7));
        });
    }

    #[test]
    fn recovery_classes_slot_between_the_original_four() {
        each_impl(|q| {
            let tx = Transmission::local(SOURCE, NodeId(1), PacketId(0));
            q.push(
                5,
                EventKind::Retransmit {
                    from: NodeId(2),
                    to: NodeId(1),
                    packet: PacketId(3),
                },
            );
            q.push(
                5,
                EventKind::Nack {
                    node: NodeId(1),
                    packet: PacketId(3),
                    attempt: 0,
                },
            );
            q.push(5, EventKind::Send(tx));
            q.push(5, EventKind::PlaybackTick);
            q.push(5, EventKind::RepairCommit { failed: NodeId(4) });
            q.push(
                5,
                EventKind::SuspectTimeout {
                    watcher: NodeId(1),
                    subject: NodeId(4),
                },
            );
            q.push(5, deliver(2, 7));
            let kinds: Vec<u8> = std::iter::from_fn(|| q.pop())
                .map(|e| e.kind.class())
                .collect();
            assert_eq!(kinds, vec![0, 2, 3, 4, 5, 6, 7]);
        });
    }

    #[test]
    fn counts_pushed_events() {
        each_impl(|q| {
            assert!(q.is_empty());
            q.push(0, EventKind::PlaybackTick);
            q.push(1, EventKind::PlaybackTick);
            q.pop();
            assert_eq!(q.len(), 1);
            assert_eq!(q.total_pushed(), 2);
        });
    }

    #[test]
    fn cancelled_events_are_skipped_and_counted_until_expiry() {
        each_impl(|q| {
            let a = q.push(10, EventKind::PlaybackTick);
            let b = q.push(20, deliver(1, 0));
            let c = q.push(30, EventKind::PlaybackTick);
            q.cancel(b);
            assert_eq!(q.len(), 3, "cancellation is lazy");
            assert_eq!(q.pop().map(|e| e.seq), Some(a));
            assert_eq!(q.pop().map(|e| e.seq), Some(c), "b was cancelled");
            assert!(q.pop().is_none());
            assert_eq!(q.total_pushed(), 3);
        });
    }
}
