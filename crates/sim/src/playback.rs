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
//!
//! The table stores one 32-bit cell per node × tracked packet: at
//! N = 10⁵ and 256 tracked packets that is 98 MiB, most of a mega run's
//! memory. A cell holds `usable slot + 1`, which covers every slot up to
//! `u32::MAX − 2`; a later first arrival (a straggler past 2³² slots)
//! marks its cell `u32::MAX` and keeps its exact slot in a sorted side
//! list. Readers decode a row once — the cells as they are, or, when the
//! row has a spilled cell, widened to 64 bits — so the per-cell loops of
//! the analysis never test for the sentinel.

use clustream_core::{CoreError, NodeId, PacketId, Slot};
use serde::{Deserialize, Serialize};
use std::alloc::Layout;

/// Per-node arrival slots for the first `track_packets` packets.
///
/// `usable_slot(node, packet)` is the first slot in which the node can play
/// or forward the packet (i.e. *send slot + latency*). `None` means the
/// packet never arrived within the simulated horizon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalTable {
    n_ids: usize,
    track_packets: u64,
    /// One allocation, `cells[node · track_packets + packet]`, holding
    /// `usable slot + 1` so that a zeroed cell — what a fresh allocation
    /// is, at no up-front cost — means "never arrived" ([`NEVER`]). A
    /// usable slot past [`DIRECT_MAX`] is [`SPILLED`] instead.
    cells: Vec<u32>,
    /// The spilled cells, `(cell index, usable slot + 1)`, sorted by
    /// index: one entry per [`SPILLED`] cell.
    spill: Vec<(usize, u64)>,
}

/// The cell value of a packet that never arrived.
const NEVER: u32 = 0;

/// The cell value of a first arrival whose slot is in the spill list.
const SPILLED: u32 = u32::MAX;

/// The largest usable slot a cell holds itself (as `u32::MAX − 1`).
const DIRECT_MAX: u64 = u32::MAX as u64 - 2;

/// `len` zeroed cells, or `None` when the allocator refuses them. The
/// pages come zeroed from the allocator (`alloc_zeroed`: fresh mappings
/// for a large table), so nothing here touches them — a table pays for
/// the rows it is written in, not for its size.
fn zeroed_cells(len: usize) -> Option<Vec<u32>> {
    if len == 0 {
        return Some(Vec::new());
    }
    let layout = Layout::array::<u32>(len).ok()?;
    // SAFETY: `layout` has a non-zero size (`len > 0`, and `u32` is not
    // zero-sized).
    let ptr = unsafe { std::alloc::alloc_zeroed(layout) }.cast::<u32>();
    if ptr.is_null() {
        return None;
    }
    // SAFETY: `ptr` comes from the global allocator with the layout of
    // `[u32; len]` — the layout a `Vec<u32>` of capacity `len` frees with
    // — and its `len` elements are initialized, all-zero bytes being a
    // valid `u32`.
    Some(unsafe { Vec::from_raw_parts(ptr, len, len) })
}

/// Buffers [`ArrivalTable::playback`] works in; one instance serves any
/// number of rows, so a per-receiver loop allocates once.
#[derive(Default)]
pub(crate) struct PlaybackScratch {
    /// A row with a spilled cell, decoded to 64-bit cells.
    wide: Vec<u64>,
    /// Dense arm: arrivals per receive slot over the row's slot span.
    counts: Vec<usize>,
    /// Sparse arm: the row's receive slots, sorted.
    recv: Vec<u64>,
    /// Rows with gaps: `below[k]` = arrived packets with index `< k`.
    below: Vec<usize>,
}

/// One row's cells, decoded: `usable + 1` per packet, 0 for never.
enum Row<'a> {
    /// No spilled cell: the table's own cells.
    Narrow(&'a [u32]),
    /// Widened, spilled slots in place.
    Wide(&'a [u64]),
}

/// Write access to the cells for the mega engine's steady-state gears,
/// which bypass [`ArrivalTable::record`]'s per-call logic: indices are
/// table indices (`node · track_packets + packet`), and a write goes
/// through [`CellsMut::first`], which keeps the first-wins rule. A
/// view covers the whole table ([`ArrivalTable::cells_mut`]) or one
/// window of rows ([`ArrivalTable::windows`]).
pub(crate) struct CellsMut<'a> {
    cells: &'a mut [u32],
    /// Table index of `cells[0]`.
    start: usize,
    /// Where spilled writes go, sorted by index: the table's own list,
    /// or a window's, merged back by [`ArrivalTable::absorb`].
    spill: &'a mut Vec<(usize, u64)>,
}

impl CellsMut<'_> {
    /// Whether table cell `i` has no arrival yet.
    #[inline]
    pub(crate) fn is_empty(&self, i: usize) -> bool {
        self.cells[i - self.start] == NEVER
    }

    /// Record `usable` as table cell `i`'s first arrival. `false` (and
    /// nothing written) when the cell already has one. Slot `u64::MAX`
    /// has no encoding: the cell reads back as "never arrived".
    #[inline]
    pub(crate) fn first(&mut self, i: usize, usable: u64) -> bool {
        let cell = &mut self.cells[i - self.start];
        if *cell != NEVER {
            return false;
        }
        if usable <= DIRECT_MAX {
            *cell = usable as u32 + 1;
        } else if usable != u64::MAX {
            *cell = SPILLED;
            spill_insert(self.spill, i, usable + 1);
        }
        true
    }
}

/// Insert `(i, value)` into the sorted spill list; `i` is not in it yet.
#[cold]
fn spill_insert(spill: &mut Vec<(usize, u64)>, i: usize, value: u64) {
    let at = spill.partition_point(|&(j, _)| j < i);
    spill.insert(at, (i, value));
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
    /// An empty table covering `n_ids` node ids and `track_packets`
    /// packets. Panics where [`ArrivalTable::try_new`] errs.
    pub fn new(n_ids: usize, track_packets: u64) -> Self {
        Self::try_new(n_ids, track_packets).unwrap_or_else(|e| panic!("{e}"))
    }

    /// An empty table covering `n_ids` node ids and `track_packets`
    /// packets, or [`CoreError::InvalidConfig`] when `n_ids ×
    /// track_packets` cells overflow the address space or the allocator
    /// refuses them. The cells are not touched: a fresh table costs
    /// address space, not memory.
    pub fn try_new(n_ids: usize, track_packets: u64) -> Result<Self, CoreError> {
        let cells = usize::try_from(track_packets)
            .ok()
            .and_then(|track| n_ids.checked_mul(track))
            .and_then(zeroed_cells)
            .ok_or_else(|| {
                CoreError::InvalidConfig(format!(
                    "an arrival table of {n_ids} node ids × {track_packets} tracked packets \
                     does not fit in memory"
                ))
            })?;
        Ok(ArrivalTable {
            n_ids,
            track_packets,
            cells,
            spill: Vec::new(),
        })
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
        let i = node.index() * self.track_packets as usize + packet.seq() as usize;
        self.cells_mut().first(i, usable_from.t());
    }

    /// The whole table, for the mega engine's steady-state gears.
    pub(crate) fn cells_mut(&mut self) -> CellsMut<'_> {
        CellsMut {
            cells: &mut self.cells,
            start: 0,
            spill: &mut self.spill,
        }
    }

    /// The table as consecutive windows of `rows[k]` rows each, for
    /// writers working on disjoint id ranges at once; window `k` spills
    /// into `spills[k]`, which [`ArrivalTable::absorb`] merges back.
    pub(crate) fn windows<'a>(
        &'a mut self,
        rows: &[usize],
        spills: &'a mut [Vec<(usize, u64)>],
    ) -> Vec<CellsMut<'a>> {
        let track = self.track_packets as usize;
        let mut rest = &mut self.cells[..];
        let mut start = 0;
        rows.iter()
            .zip(spills)
            .map(|(&n, spill)| {
                let (cells, tail) = std::mem::take(&mut rest).split_at_mut(n * track);
                rest = tail;
                let window = CellsMut {
                    cells,
                    start,
                    spill,
                };
                start += n * track;
                window
            })
            .collect()
    }

    /// Merge the spill lists of [`ArrivalTable::windows`] back in,
    /// leaving them empty.
    pub(crate) fn absorb(&mut self, spills: &mut [Vec<(usize, u64)>]) {
        for s in spills {
            self.spill.append(s);
        }
        self.spill.sort_unstable();
    }

    /// `node`'s cells, as stored.
    fn row(&self, node: NodeId) -> &[u32] {
        let track = self.track_packets as usize;
        &self.cells[node.index() * track..(node.index() + 1) * track]
    }

    /// `node`'s row decoded, widened into `wide` only when one of its
    /// cells is spilled — one check per row instead of one per cell.
    fn decode<'a>(&'a self, node: NodeId, wide: &'a mut Vec<u64>) -> Row<'a> {
        let row = self.row(node);
        let lo = node.index() * self.track_packets as usize;
        let from = self.spill.partition_point(|&(i, _)| i < lo);
        let spilled = &self.spill[from..];
        let spilled = &spilled[..spilled.partition_point(|&(i, _)| i < lo + row.len())];
        if spilled.is_empty() {
            return Row::Narrow(row);
        }
        wide.clear();
        wide.extend(row.iter().map(|&c| u64::from(c)));
        for &(i, v) in spilled {
            wide[i - lo] = v;
        }
        Row::Wide(wide)
    }

    /// First slot `packet` is usable at `node`, if it ever arrived;
    /// `None` too for a packet or a node the table does not cover —
    /// what [`ArrivalTable::record`] ignores was never recorded.
    pub fn usable_slot(&self, node: NodeId, packet: PacketId) -> Option<Slot> {
        if node.index() >= self.n_ids || packet.seq() >= self.track_packets {
            return None;
        }
        let i = node.index() * self.track_packets as usize + packet.seq() as usize;
        match self.cells[i] {
            NEVER => None,
            SPILLED => {
                let at = self.spill.partition_point(|&(j, _)| j < i);
                Some(Slot(self.spill[at].1 - 1))
            }
            c => Some(Slot(u64::from(c) - 1)),
        }
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
        let PlaybackScratch {
            wide,
            counts,
            recv,
            below,
        } = scratch;
        match self.decode(node, wide) {
            Row::Narrow(row) => playback_of(row, counts, recv, below),
            Row::Wide(row) => playback_of(row, counts, recv, below),
        }
    }

    /// Check that the tail of the window does not move `a(i)`: computes the
    /// playback delay using only the first half of the window and using the
    /// whole window, returning `true` when they agree. Used by tests and
    /// benches as evidence the tracked window reached steady state.
    pub fn steady_state_for(&self, node: NodeId) -> bool {
        match self.decode(node, &mut Vec::new()) {
            Row::Narrow(row) => steady_of(row),
            Row::Wide(row) => steady_of(row),
        }
    }
}

/// [`ArrivalTable::playback`] over one decoded row, cells `usable + 1`
/// with 0 for never.
fn playback_of<C: Copy + Into<u64>>(
    row: &[C],
    counts: &mut Vec<usize>,
    recv: &mut Vec<u64>,
    below: &mut Vec<usize>,
) -> RowPlayback {
    let mut delay = 0u64;
    let mut missing = 0usize;
    let mut first_missing = None;
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for (j, &c) in row.iter().enumerate() {
        let c: u64 = c.into();
        if c == 0 {
            missing += 1;
            first_missing.get_or_insert(j);
            continue;
        }
        let usable = c - 1;
        delay = delay.max(usable.saturating_sub(j as u64));
        let r = usable.saturating_sub(1);
        lo = lo.min(r);
        hi = hi.max(r);
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

    // Arrived packets played strictly before slot t: those with index
    // below min(t − a, track) — that index itself on a row without gaps,
    // for which `below` stays empty.
    below.clear();
    if missing > 0 {
        below.push(0);
        for &c in row {
            below.push(below[below.len() - 1] + usize::from(c.into() != 0));
        }
    }
    let played = |t: u64| {
        let through = t.saturating_sub(delay).min(row.len() as u64) as usize;
        below.get(through).copied().unwrap_or(through)
    };
    let recv_slots = row
        .iter()
        .map(|&c| c.into())
        .filter(|&c| c != 0)
        .map(|c| (c - 1).saturating_sub(1));

    let span = hi - lo;
    if span <= 4 * row.len() as u64 {
        counts.clear();
        counts.resize(span as usize + 1, 0);
        for r in recv_slots {
            counts[(r - lo) as usize] += 1;
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
        recv.clear();
        recv.extend(recv_slots);
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

/// [`ArrivalTable::steady_state_for`] over one decoded row.
fn steady_of<C: Copy + Into<u64>>(row: &[C]) -> bool {
    if row.len() < 4 || row.iter().any(|&c| c.into() == 0) {
        return false;
    }
    let a = |r: &[C]| {
        r.iter()
            .enumerate()
            .map(|(j, &c)| (c.into() - 1).saturating_sub(j as u64))
            .max()
            .unwrap_or(0)
    };
    a(&row[..row.len() / 2]) == a(row)
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

    #[test]
    fn slots_past_a_cell_spill_exactly() {
        let big = [DIRECT_MAX - 1, DIRECT_MAX, DIRECT_MAX + 1, 1 << 40];
        let t = table_from(&[&[1, 2, 3, 4], &big]);
        for (p, &s) in big.iter().enumerate() {
            let got = t.usable_slot(NodeId(1), PacketId(p as u64));
            assert_eq!(got, Some(Slot(s)), "packet {p}");
        }
        assert_eq!(t.spill.len(), 2, "only the two slots past a cell spill");
        assert!(t.steady_state_for(NodeId(0)));
        assert_eq!(t.analyze(NodeId(1)).unwrap().playback_delay, (1 << 40) - 3);
        // A spilled first arrival is still the first.
        let mut t2 = t.clone();
        t2.record(NodeId(1), PacketId(3), Slot(5));
        assert_eq!(t2, t);
    }

    #[test]
    fn windows_spill_into_their_own_lists_and_merge_back() {
        let mut t = ArrivalTable::new(3, 2);
        let mut spills = vec![Vec::new(); 2];
        {
            let mut w = t.windows(&[1, 2], &mut spills);
            assert!(w[1].first(5, 1 << 33));
            assert!(w[0].first(1, 1 << 34));
            assert!(w[1].first(2, 7));
            assert!(!w[1].first(2, 1 << 35), "first arrival wins");
            assert!(!w[1].is_empty(5) && w[1].is_empty(4));
        }
        t.absorb(&mut spills);
        assert!(spills.iter().all(Vec::is_empty));
        let mut want = ArrivalTable::new(3, 2);
        want.record(NodeId(2), PacketId(1), Slot(1 << 33));
        want.record(NodeId(0), PacketId(1), Slot(1 << 34));
        want.record(NodeId(1), PacketId(0), Slot(7));
        assert_eq!(t, want);
    }

    #[test]
    fn a_table_too_large_to_allocate_is_an_error() {
        for (n_ids, track) in [(11, 99_999_999_999_999), (usize::MAX, 2), (2, u64::MAX)] {
            let err = ArrivalTable::try_new(n_ids, track).unwrap_err();
            assert!(
                matches!(&err, CoreError::InvalidConfig(m) if m.contains("does not fit")),
                "{err}"
            );
        }
    }
}
