//! Arrival bookkeeping and playback-delay / buffer-space analysis.
//!
//! A node may receive packets out of order but must play them in order at
//! one packet per slot (§2.2). Given the slot at which each tracked packet
//! became *usable* at a node, the minimal safe playback start is
//!
//! ```text
//! a(i) = max_j ( usable(i, j) − j )
//! ```
//!
//! so that packet `j`, played during slot `a(i) + j`, has always arrived.
//! `a(i)` is the paper's playback delay. The buffer high-water mark is the
//! largest number of packets simultaneously held (arrived, not yet played)
//! when playback starts at `a(i)`.

use clustream_core::{CoreError, NodeId, PacketId, Slot};
use serde::{Deserialize, Serialize};

/// Per-node arrival slots for the first `track_packets` packets.
///
/// `usable_slot(node, packet)` is the first slot in which the node can play
/// or forward the packet (i.e. *send slot + latency*). `None` means the
/// packet never arrived within the simulated horizon.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrivalTable {
    n_ids: usize,
    track_packets: u64,
    /// One allocation, `cells[node · track_packets + packet]`, holding
    /// `usable slot + 1` so that a zeroed cell — what a fresh allocation
    /// is, at no up-front cost — means "never arrived" ([`NEVER`]).
    cells: Vec<u64>,
}

/// The cell value of a packet that never arrived.
pub(crate) const NEVER: u64 = 0;

/// The cell value recording `usable` as a first arrival. Slot
/// `u64::MAX` has no encoding and reads back as "never arrived".
#[inline]
pub(crate) fn cell_of(usable: u64) -> u64 {
    usable.wrapping_add(1)
}

/// Buffers [`ArrivalTable::playback`] works in; one instance serves any
/// number of rows, so a per-receiver loop allocates once.
#[derive(Default)]
pub(crate) struct PlaybackScratch {
    /// Dense arm: arrivals per receive slot over the row's slot span.
    counts: Vec<usize>,
    /// Sparse arm: the row's receive slots, sorted.
    recv: Vec<u64>,
    /// Rows with gaps: `below[k]` = arrived packets with index `< k`.
    below: Vec<usize>,
}

/// What one row says about playback, missing packets tolerated.
struct RowPlayback {
    /// `a = max_j (usable(j) − j)` over the packets that arrived.
    delay: u64,
    max_buffer: usize,
    missing: usize,
    first_missing: Option<usize>,
}

impl ArrivalTable {
    /// An empty table covering `n_ids` node ids and `track_packets` packets.
    pub fn new(n_ids: usize, track_packets: u64) -> Self {
        ArrivalTable {
            n_ids,
            track_packets,
            cells: vec![NEVER; n_ids * track_packets as usize],
        }
    }

    /// Number of node ids covered.
    pub fn n_ids(&self) -> usize {
        self.n_ids
    }

    /// Number of tracked packets.
    pub fn track_packets(&self) -> u64 {
        self.track_packets
    }

    /// Record that `packet` became usable at `node` from `slot` onward.
    /// Later duplicate deliveries do not overwrite the first arrival.
    pub fn record(&mut self, node: NodeId, packet: PacketId, usable_from: Slot) {
        if packet.seq() >= self.track_packets {
            return;
        }
        let track = self.track_packets as usize;
        let cell = &mut self.cells[node.index() * track + packet.seq() as usize];
        if *cell == NEVER {
            *cell = cell_of(usable_from.t());
        }
    }

    /// The whole table as one slice, node `i`'s row at
    /// `[i · track_packets, (i + 1) · track_packets)`, cells as
    /// [`cell_of`] writes them. The mega engine's steady-state gears
    /// write first arrivals straight into it (and into `split_at_mut`
    /// windows of it), bypassing the per-call logic of
    /// [`ArrivalTable::record`]; writers must preserve the first-wins
    /// rule themselves.
    pub(crate) fn cells_mut(&mut self) -> &mut [u64] {
        &mut self.cells
    }

    /// `node`'s cells.
    fn row(&self, node: NodeId) -> &[u64] {
        let track = self.track_packets as usize;
        &self.cells[node.index() * track..(node.index() + 1) * track]
    }

    /// First slot `packet` is usable at `node`, if it ever arrived;
    /// `None` too for a packet or a node the table does not cover —
    /// what [`ArrivalTable::record`] ignores was never recorded.
    pub fn usable_slot(&self, node: NodeId, packet: PacketId) -> Option<Slot> {
        if node.index() >= self.n_ids || packet.seq() >= self.track_packets {
            return None;
        }
        let v = self.row(node)[packet.seq() as usize];
        (v != NEVER).then(|| Slot(v - 1))
    }

    /// Whether every tracked packet reached `node`.
    pub fn complete_for(&self, node: NodeId) -> bool {
        self.row(node).iter().all(|&s| s != NEVER)
    }

    /// Analyse playback for `node` over the tracked window.
    ///
    /// Errors with [`CoreError::Hiccup`] if some tracked packet never
    /// arrived (no finite playback start exists within the horizon).
    pub fn analyze(&self, node: NodeId) -> Result<PlaybackAnalysis, CoreError> {
        self.analyze_with(node, &mut PlaybackScratch::default())
    }

    /// [`ArrivalTable::analyze`] working in the caller's scratch buffers.
    pub(crate) fn analyze_with(
        &self,
        node: NodeId,
        scratch: &mut PlaybackScratch,
    ) -> Result<PlaybackAnalysis, CoreError> {
        let pb = self.playback(node, scratch);
        match pb.first_missing {
            Some(j) => Err(CoreError::Hiccup {
                node,
                packet: PacketId(j as u64),
                playback_slot: Slot(u64::MAX),
            }),
            None => Ok(PlaybackAnalysis {
                node,
                playback_delay: pb.delay,
                max_buffer: pb.max_buffer,
            }),
        }
    }

    /// Playback analysis tolerating missing packets (fault-injection
    /// runs): the delay is computed over the packets that did arrive, and
    /// the number of tracked packets that never arrived is reported.
    ///
    /// The buffer high-water mark uses the same playback schedule as
    /// [`ArrivalTable::analyze`] — playback starts at `a` and advances one
    /// packet per slot, with missing packets concealed (their slot is
    /// consumed but nothing is buffered for them) — and counts only
    /// packets that actually arrived. On a loss-free table it therefore
    /// equals `analyze(..).max_buffer` exactly.
    pub fn analyze_lossy(&self, node: NodeId) -> crate::faults::LossyPlayback {
        self.analyze_lossy_with(node, &mut PlaybackScratch::default())
    }

    /// [`ArrivalTable::analyze_lossy`] working in the caller's scratch
    /// buffers.
    pub(crate) fn analyze_lossy_with(
        &self,
        node: NodeId,
        scratch: &mut PlaybackScratch,
    ) -> crate::faults::LossyPlayback {
        let pb = self.playback(node, scratch);
        crate::faults::LossyPlayback {
            node,
            missing: pb.missing,
            playback_delay: pb.delay,
            max_buffer: pb.max_buffer,
        }
    }

    /// Delay and buffer high-water mark of `node`'s row.
    ///
    /// With playback starting at `a`, a packet occupies the buffer from
    /// the slot it is *received* (usable slot − 1) until it is played;
    /// the peak is measured after the slot's reception and before its
    /// playback, matching the paper's §2.3 example where node 1 receives
    /// packets 0, 1, 2 in slots 0, 2, 1 and needs a buffer of 3.
    /// Occupancy before playing in slot `t`, over arrived packets only:
    ///
    /// ```text
    /// B(t) = #{j : recv(j) ≤ t} − #{j : j < t − a}
    /// ```
    ///
    /// Between two receive slots the first term stands still and the
    /// second only grows, so the maximum sits on a receive slot: the
    /// cost is per packet, whatever the horizon. `#{j : recv(j) ≤ t}` is
    /// the rank of `t` among the receive slots — counted into an array
    /// over the row's receive-slot span when that span is of the order
    /// of the row (every periodic schedule's is), sorted otherwise (a
    /// repaired or heavy-tailed straggler far from the rest).
    fn playback(&self, node: NodeId, scratch: &mut PlaybackScratch) -> RowPlayback {
        let row = self.row(node);
        let mut delay = 0u64;
        let mut missing = 0usize;
        let mut first_missing = None;
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for (j, &c) in row.iter().enumerate() {
            if c == NEVER {
                missing += 1;
                first_missing.get_or_insert(j);
                continue;
            }
            let usable = c - 1;
            delay = delay.max(usable.saturating_sub(j as u64));
            let recv = usable.saturating_sub(1);
            lo = lo.min(recv);
            hi = hi.max(recv);
        }
        let mut pb = RowPlayback {
            delay,
            max_buffer: 0,
            missing,
            first_missing,
        };
        if missing == row.len() {
            return pb;
        }

        // Arrived packets played strictly before slot t: those with
        // index below min(t − a, track) — that index itself on a row
        // without gaps, for which `below` stays empty.
        let below = &mut scratch.below;
        below.clear();
        if missing > 0 {
            below.push(0);
            for &c in row {
                below.push(below[below.len() - 1] + usize::from(c != NEVER));
            }
        }
        let played = |t: u64| {
            let through = t.saturating_sub(delay).min(row.len() as u64) as usize;
            below.get(through).copied().unwrap_or(through)
        };
        let recv_of = |c: u64| (c - 1).saturating_sub(1);

        let span = hi - lo;
        if span <= 4 * row.len() as u64 {
            let counts = &mut scratch.counts;
            counts.clear();
            counts.resize(span as usize + 1, 0);
            for &c in row.iter().filter(|&&c| c != NEVER) {
                counts[(recv_of(c) - lo) as usize] += 1;
            }
            let mut arrived = 0usize;
            for (i, &n) in counts.iter().enumerate() {
                if n > 0 {
                    arrived += n;
                    pb.max_buffer = pb
                        .max_buffer
                        .max(arrived.saturating_sub(played(lo + i as u64)));
                }
            }
        } else {
            let recv = &mut scratch.recv;
            recv.clear();
            recv.extend(row.iter().filter(|&&c| c != NEVER).map(|&c| recv_of(c)));
            recv.sort_unstable();
            for (i, &t) in recv.iter().enumerate() {
                // The last of equal receive slots carries their rank.
                if recv.get(i + 1) != Some(&t) {
                    pb.max_buffer = pb.max_buffer.max((i + 1).saturating_sub(played(t)));
                }
            }
        }
        pb
    }

    /// Check that the tail of the window does not move `a(i)`: computes the
    /// playback delay using only the first half of the window and using the
    /// whole window, returning `true` when they agree. Used by tests and
    /// benches as evidence the tracked window reached steady state.
    pub fn steady_state_for(&self, node: NodeId) -> bool {
        let row = self.row(node);
        if row.len() < 4 || row.contains(&NEVER) {
            return false;
        }
        let half = row.len() / 2;
        let a = |r: &[u64]| {
            r.iter()
                .enumerate()
                .map(|(j, &c)| (c - 1).saturating_sub(j as u64))
                .max()
                .unwrap_or(0)
        };
        a(&row[..half]) == a(row)
    }
}

/// Result of playback analysis for one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlaybackAnalysis {
    /// The node analysed.
    pub node: NodeId,
    /// Minimal safe playback start `a(i)` (the playback delay, in slots).
    pub playback_delay: u64,
    /// Buffer high-water mark (packets) when starting at `a(i)`.
    pub max_buffer: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_from(rows: &[&[u64]]) -> ArrivalTable {
        let tp = rows[0].len() as u64;
        let mut t = ArrivalTable::new(rows.len(), tp);
        for (n, row) in rows.iter().enumerate() {
            for (p, &s) in row.iter().enumerate() {
                t.record(NodeId(n as u32), PacketId(p as u64), Slot(s));
            }
        }
        t
    }

    #[test]
    fn in_order_unit_latency_has_delay_one() {
        // Packet j usable at slot j+1 (chain head): a = max(j+1−j) = 1.
        // Buffer peaks at 2: packet j+1 is received during the same slot in
        // which packet j is played.
        let t = table_from(&[&[1, 2, 3, 4, 5, 6]]);
        let a = t.analyze(NodeId(0)).unwrap();
        assert_eq!(a.playback_delay, 1);
        assert_eq!(a.max_buffer, 2);
    }

    #[test]
    fn paper_node1_example_buffer_three() {
        // §2.3: node 1 receives packets 0, 1, 2 in slots 0, 2, 1 — buffer
        // of size 3 is sufficient. Usable slots are receive slot + 1.
        // Extended periodically: packet j+3 usable 3 slots after packet j.
        let t = table_from(&[&[1, 3, 2, 4, 6, 5, 7, 9, 8]]);
        let a = t.analyze(NodeId(0)).unwrap();
        // a = max(1−0, 3−1, 2−2, …) = 2
        assert_eq!(a.playback_delay, 2);
        assert_eq!(a.max_buffer, 3, "paper says a buffer of 3 suffices");
        assert!(t.steady_state_for(NodeId(0)));
    }

    #[test]
    fn out_of_order_arrivals_force_waiting() {
        // Packet 0 arrives last: a = usable(0) = 9.
        let t = table_from(&[&[9, 1, 2, 3, 4]]);
        let a = t.analyze(NodeId(0)).unwrap();
        assert_eq!(a.playback_delay, 9);
        // All 5 packets are in the buffer just before playback starts.
        assert_eq!(a.max_buffer, 5);
    }

    #[test]
    fn missing_packet_is_a_hiccup() {
        let mut t = ArrivalTable::new(1, 3);
        t.record(NodeId(0), PacketId(0), Slot(1));
        t.record(NodeId(0), PacketId(2), Slot(3));
        let err = t.analyze(NodeId(0)).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Hiccup {
                packet: PacketId(1),
                ..
            }
        ));
        assert!(!t.complete_for(NodeId(0)));
    }

    #[test]
    fn duplicate_record_keeps_first_arrival() {
        let mut t = ArrivalTable::new(1, 1);
        t.record(NodeId(0), PacketId(0), Slot(4));
        t.record(NodeId(0), PacketId(0), Slot(2));
        assert_eq!(t.usable_slot(NodeId(0), PacketId(0)), Some(Slot(4)));
    }

    #[test]
    fn untracked_packets_are_ignored() {
        let mut t = ArrivalTable::new(1, 2);
        t.record(NodeId(0), PacketId(5), Slot(1));
        assert_eq!(t.track_packets(), 2);
        assert!(t.usable_slot(NodeId(0), PacketId(0)).is_none());
    }

    #[test]
    fn lookups_outside_the_table_are_none() {
        // What `record` ignores reads back as "never arrived", not as a
        // panic: a packet past the tracked window, a node past the ids.
        let mut t = ArrivalTable::new(2, 2);
        t.record(NodeId(1), PacketId(7), Slot(3));
        assert_eq!(t.usable_slot(NodeId(1), PacketId(7)), None);
        assert_eq!(t.usable_slot(NodeId(1), PacketId(2)), None);
        assert_eq!(t.usable_slot(NodeId(1), PacketId(u64::MAX)), None);
        assert_eq!(t.usable_slot(NodeId(2), PacketId(0)), None);
        assert_eq!(t.usable_slot(NodeId(u32::MAX), PacketId(0)), None);
    }

    #[test]
    fn one_late_arrival_costs_a_packet_not_a_horizon() {
        // A repaired or heavy-tailed straggler near a large horizon: a
        // sweep over every slot up to it would never return.
        let t = table_from(&[&[1, 1 << 40]]);
        let a = t.analyze(NodeId(0)).unwrap();
        assert_eq!(a.playback_delay, (1 << 40) - 1);
        assert_eq!(a.max_buffer, 2);
        let l = t.analyze_lossy(NodeId(0));
        assert_eq!(
            (l.missing, l.playback_delay, l.max_buffer),
            (0, a.playback_delay, a.max_buffer)
        );
    }

    #[test]
    fn steady_state_detects_drift() {
        // Delay keeps growing (arrival gap widens): not steady.
        let t = table_from(&[&[1, 3, 6, 10, 15, 21, 28, 36]]);
        assert!(!t.steady_state_for(NodeId(0)));
    }

    #[test]
    fn empty_track_window_is_trivial() {
        let t = ArrivalTable::new(2, 0);
        let a = t.analyze(NodeId(1)).unwrap();
        assert_eq!(a.playback_delay, 0);
        assert_eq!(a.max_buffer, 0);
    }
}
