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
//! The table stores the quantity Theorem 2 bounds rather than the slot
//! itself: one byte per node × tracked packet holding the packet's
//! lateness `usable(i, j) − j`, biased so that 0 means "never arrived".
//! A multi-tree schedule keeps it small (−1…31 at N = 10⁵, d = 3, and
//! never below `2 − d`), so at N = 10⁵ and 256 tracked packets the table
//! is 24.5 MiB where 32-bit slots took 98. A row whose first arrival
//! falls outside a byte — a chain's far end, a repaired straggler, a slot
//! near 2⁶⁴ — is widened once: its bytes are decoded into a side row of
//! 64-bit slots, found in O(1) by node, and every byte of the row
//! becomes the marker 255. A row is therefore read either all narrow or all
//! wide, so the per-cell loops of the analysis never test for the
//! marker, and a narrow row's delay is its largest byte minus the bias.

use clustream_core::{CoreError, NodeId, PacketId, Slot};
use serde::{Deserialize, Serialize};
use std::alloc::Layout;

/// Per-node arrival slots for the first `track_packets` packets.
///
/// `usable_slot(node, packet)` is the first slot in which the node can play
/// or forward the packet (i.e. *send slot + latency*). `None` means the
/// packet never arrived within the simulated horizon.
///
/// Two tables are equal when they hold the same first arrivals, whatever
/// order they were recorded — and rows widened — in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalTable {
    n_ids: usize,
    track_packets: u64,
    /// One allocation, `cells[node · track_packets + packet]`. A narrow
    /// row's cell holds the packet's lateness as [`narrow`] encodes it,
    /// so that a zeroed cell — what a fresh allocation is, at no up-front
    /// cost — means "never arrived" ([`NEVER`]); a widened row's cells
    /// are all [`WIDE`].
    cells: Vec<u8>,
    /// Per node id, its widened row, if one was. Zeroed like `cells`, so
    /// the index costs address space until a row widens; a row sits
    /// behind a thin `Box` so that an all-zero entry is a valid `None`.
    wide: Vec<Option<Box<WideRow>>>,
}

/// A widened row: `usable slot + 1` per packet, 0 for never, which
/// covers every slot up to `u64::MAX − 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WideRow(Box<[u64]>);

/// The cell value of a packet that never arrived.
const NEVER: u8 = 0;

/// The value of every cell of a widened row.
const WIDE: u8 = u8::MAX;

/// How early a first arrival a narrow cell holds: lateness `−BIAS`
/// (cell 1) through `253 − BIAS` (cell 254). Pre-recorded multi-tree
/// packets arrive at most `d − 2` slots early.
const BIAS: u64 = 64;

/// The narrow cell of packet `j`'s first arrival, usable from `usable`:
/// its lateness `usable − j` plus `BIAS + 1`, or `None` when that is not
/// strictly between [`NEVER`] and [`WIDE`].
#[inline]
fn narrow(usable: u64, j: usize) -> Option<u8> {
    let c = usable.checked_add(BIAS + 1)?.checked_sub(j as u64)?;
    u8::try_from(c).ok().filter(|&c| c != NEVER && c != WIDE)
}

/// `len` all-zero values, or `None` when the allocator refuses them. The
/// pages come zeroed from the allocator (`alloc_zeroed`: fresh mappings
/// for a large table), so nothing here touches them — a table pays for
/// the rows it is written in, not for its size.
///
/// # Safety
///
/// `T` is not zero-sized, and all-zero bytes are a valid `T`.
unsafe fn zeroed<T>(len: usize) -> Option<Vec<T>> {
    if len == 0 {
        return Some(Vec::new());
    }
    let layout = Layout::array::<T>(len).ok()?;
    // SAFETY: `layout` has a non-zero size (`len > 0`, and `T` is not
    // zero-sized, by the caller's contract).
    let ptr = unsafe { std::alloc::alloc_zeroed(layout) }.cast::<T>();
    if ptr.is_null() {
        return None;
    }
    // SAFETY: `ptr` comes from the global allocator with the layout of
    // `[T; len]` — the layout a `Vec<T>` of capacity `len` frees with —
    // and its `len` elements are initialized, all-zero bytes being a
    // valid `T` by the caller's contract.
    Some(unsafe { Vec::from_raw_parts(ptr, len, len) })
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

/// One row's cells as stored.
enum Row<'a> {
    /// Lateness bytes.
    Narrow(&'a [u8]),
    /// The row's [`WideRow`].
    Wide(&'a [u64]),
}

/// A cell as the analysis reads it, in either form of row.
trait Cell: Copy {
    /// The slot packet `j` became usable, if it ever arrived.
    fn usable(self, j: usize) -> Option<u64>;

    /// `max_j (usable(j) − j)` over the packets of `row` that arrived,
    /// 0 if none did.
    fn delay(row: &[Self]) -> u64;
}

impl Cell for u8 {
    #[inline]
    fn usable(self, j: usize) -> Option<u64> {
        (self != NEVER).then(|| j as u64 + u64::from(self) - (BIAS + 1))
    }

    fn delay(row: &[u8]) -> u64 {
        // Every byte is a lateness plus `BIAS + 1`, and never is 0.
        row.iter()
            .max()
            .map_or(0, |&c| u64::from(c).saturating_sub(BIAS + 1))
    }
}

impl Cell for u64 {
    #[inline]
    fn usable(self, _: usize) -> Option<u64> {
        self.checked_sub(1)
    }

    fn delay(row: &[u64]) -> u64 {
        row.iter()
            .enumerate()
            .filter_map(|(j, c)| c.usable(j).map(|u| u.saturating_sub(j as u64)))
            .max()
            .unwrap_or(0)
    }
}

/// Write access to the cells for the mega engine's steady-state gears,
/// which bypass [`ArrivalTable::record`]'s per-call logic: rows are
/// addressed by the table index of their first cell (`node ·
/// track_packets`), and a write goes through [`CellsMut::first`], which
/// keeps the first-wins rule and widens a row when it must. A view
/// covers the whole table ([`ArrivalTable::cells_mut`]) or one window of
/// rows ([`ArrivalTable::windows`]).
pub(crate) struct CellsMut<'a> {
    cells: &'a mut [u8],
    /// The same rows' wide forms: `wide[0]` is row `start / track`'s.
    wide: &'a mut [Option<Box<WideRow>>],
    /// Table index of `cells[0]`, a row start.
    start: usize,
    track: usize,
}

impl CellsMut<'_> {
    /// Whether packet `j` of the row starting at table index `row` has
    /// no arrival yet.
    #[inline]
    pub(crate) fn is_empty(&self, row: usize, j: usize) -> bool {
        match self.cells[row + j - self.start] {
            NEVER => true,
            WIDE => self.wide_row(row)[j] == 0,
            _ => false,
        }
    }

    /// Record `usable` as packet `j`'s first arrival in the row starting
    /// at table index `row`. `false` (and nothing written) when the cell
    /// already has one. Slot `u64::MAX` has no encoding: the cell reads
    /// back as "never arrived".
    #[inline]
    pub(crate) fn first(&mut self, row: usize, j: usize, usable: u64) -> bool {
        let cell = &mut self.cells[row + j - self.start];
        match *cell {
            NEVER => {
                match narrow(usable, j) {
                    Some(c) => *cell = c,
                    None => self.widen(row, j, usable),
                }
                true
            }
            WIDE => self.first_wide(row, j, usable),
            _ => false,
        }
    }

    /// The wide form of the row starting at table index `row`.
    fn wide_row(&self, row: usize) -> &[u64] {
        let w = &self.wide[(row - self.start) / self.track];
        &w.as_ref().expect("a WIDE row has its wide form").0
    }

    /// Widen a narrow row for a first arrival no byte holds.
    #[cold]
    fn widen(&mut self, row: usize, j: usize, usable: u64) {
        if usable == u64::MAX {
            return;
        }
        let at = row - self.start;
        let cells = &mut self.cells[at..at + self.track];
        let mut slots: Box<[u64]> = cells
            .iter()
            .enumerate()
            .map(|(k, &c)| c.usable(k).map_or(0, |u| u + 1))
            .collect();
        slots[j] = usable + 1;
        cells.fill(WIDE);
        self.wide[at / self.track] = Some(Box::new(WideRow(slots)));
    }

    /// [`CellsMut::first`] in a widened row.
    #[cold]
    fn first_wide(&mut self, row: usize, j: usize, usable: u64) -> bool {
        let w = &mut self.wide[(row - self.start) / self.track];
        let slot = &mut w.as_mut().expect("a WIDE row has its wide form").0[j];
        if *slot != 0 {
            return false;
        }
        if usable != u64::MAX {
            *slot = usable + 1;
        }
        true
    }
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
        let too_large = || {
            CoreError::InvalidConfig(format!(
                "an arrival table of {n_ids} node ids × {track_packets} tracked packets \
                 does not fit in memory"
            ))
        };
        let cells = usize::try_from(track_packets)
            .ok()
            .and_then(|track| n_ids.checked_mul(track))
            // SAFETY: `u8` is not zero-sized, and 0 is a `u8`.
            .and_then(|len| unsafe { zeroed(len) })
            .ok_or_else(too_large)?;
        // SAFETY: an `Option<Box<_>>` of a sized type is a pointer, and
        // all-zero bytes are its `None`.
        let wide = unsafe { zeroed(n_ids) }.ok_or_else(too_large)?;
        Ok(ArrivalTable {
            n_ids,
            track_packets,
            cells,
            wide,
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

    /// Record that `packet` became usable at `node` from `slot` onward;
    /// `true` when it is the packet's first arrival there. Later
    /// duplicate deliveries do not overwrite the first arrival, and a
    /// packet past the tracked window is ignored (`false`).
    #[inline]
    pub fn record(&mut self, node: NodeId, packet: PacketId, usable_from: Slot) -> bool {
        if packet.seq() >= self.track_packets {
            return false;
        }
        let row = node.index() * self.track_packets as usize;
        self.cells_mut()
            .first(row, packet.seq() as usize, usable_from.t())
    }

    /// The whole table, for the mega engine's steady-state gears.
    pub(crate) fn cells_mut(&mut self) -> CellsMut<'_> {
        CellsMut {
            cells: &mut self.cells,
            wide: &mut self.wide,
            start: 0,
            track: self.track_packets as usize,
        }
    }

    /// The table as consecutive windows of `rows[k]` rows each, for
    /// writers working on disjoint id ranges at once. A window widens
    /// its own rows.
    pub(crate) fn windows(&mut self, rows: &[usize]) -> Vec<CellsMut<'_>> {
        let track = self.track_packets as usize;
        let (mut cells, mut wide) = (&mut self.cells[..], &mut self.wide[..]);
        let mut start = 0;
        rows.iter()
            .map(|&n| {
                let (c, c_rest) = std::mem::take(&mut cells).split_at_mut(n * track);
                let (w, w_rest) = std::mem::take(&mut wide).split_at_mut(n);
                (cells, wide) = (c_rest, w_rest);
                let window = CellsMut {
                    cells: c,
                    wide: w,
                    start,
                    track,
                };
                start += n * track;
                window
            })
            .collect()
    }

    /// `node`'s row, in the form it is stored in.
    fn row(&self, node: NodeId) -> Row<'_> {
        let track = self.track_packets as usize;
        let cells = &self.cells[node.index() * track..(node.index() + 1) * track];
        match &self.wide[node.index()] {
            Some(w) => Row::Wide(&w.0),
            None => Row::Narrow(cells),
        }
    }

    /// First slot `packet` is usable at `node`, if it ever arrived;
    /// `None` too for a packet or a node the table does not cover —
    /// what [`ArrivalTable::record`] ignores was never recorded.
    pub fn usable_slot(&self, node: NodeId, packet: PacketId) -> Option<Slot> {
        if node.index() >= self.n_ids || packet.seq() >= self.track_packets {
            return None;
        }
        let j = packet.seq() as usize;
        match self.row(node) {
            Row::Narrow(row) => row[j].usable(j),
            Row::Wide(row) => row[j].usable(j),
        }
        .map(Slot)
    }

    /// Whether every tracked packet reached `node`.
    pub fn complete_for(&self, node: NodeId) -> bool {
        match self.row(node) {
            Row::Narrow(row) => complete(row),
            Row::Wide(row) => complete(row),
        }
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
        match self.row(node) {
            Row::Narrow(row) => playback_of(row, scratch),
            Row::Wide(row) => playback_of(row, scratch),
        }
    }

    /// Check that the tail of the window does not move `a(i)`: computes the
    /// playback delay using only the first half of the window and using the
    /// whole window, returning `true` when they agree. Used by tests and
    /// benches as evidence the tracked window reached steady state.
    pub fn steady_state_for(&self, node: NodeId) -> bool {
        match self.row(node) {
            Row::Narrow(row) => steady_of(row),
            Row::Wide(row) => steady_of(row),
        }
    }
}

/// Whether every packet of `row` arrived.
fn complete<C: Cell>(row: &[C]) -> bool {
    row.iter().enumerate().all(|(j, c)| c.usable(j).is_some())
}

/// [`ArrivalTable::playback`] over one row.
fn playback_of<C: Cell>(row: &[C], scratch: &mut PlaybackScratch) -> RowPlayback {
    let PlaybackScratch {
        counts,
        recv,
        below,
    } = scratch;
    let delay = C::delay(row);
    let mut missing = 0usize;
    let mut first_missing = None;
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for (j, &c) in row.iter().enumerate() {
        let Some(usable) = c.usable(j) else {
            missing += 1;
            first_missing.get_or_insert(j);
            continue;
        };
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
        for (j, &c) in row.iter().enumerate() {
            below.push(below[below.len() - 1] + usize::from(c.usable(j).is_some()));
        }
    }
    let played = |t: u64| {
        let through = t.saturating_sub(delay).min(row.len() as u64) as usize;
        below.get(through).copied().unwrap_or(through)
    };
    let recv_slots = row
        .iter()
        .enumerate()
        .filter_map(|(j, &c)| c.usable(j))
        .map(|u| u.saturating_sub(1));

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

/// [`ArrivalTable::steady_state_for`] over one row.
fn steady_of<C: Cell>(row: &[C]) -> bool {
    row.len() >= 4 && complete(row) && C::delay(&row[..row.len() / 2]) == C::delay(row)
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
        assert!(t.record(NodeId(0), PacketId(0), Slot(4)));
        assert!(!t.record(NodeId(0), PacketId(0), Slot(2)));
        assert_eq!(t.usable_slot(NodeId(0), PacketId(0)), Some(Slot(4)));
    }

    #[test]
    fn untracked_packets_are_ignored() {
        let mut t = ArrivalTable::new(1, 2);
        assert!(!t.record(NodeId(0), PacketId(5), Slot(1)));
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
    fn late_rows_widen_and_keep_every_slot() {
        // Row 1 turns wide at its third record; its earlier bytes carry
        // over, and slots past 2³² and up to u64::MAX − 1 are exact.
        let big = [3, 4, 1 << 40, u64::MAX - 1];
        let t = table_from(&[&[1, 2, 3, 4], &big]);
        for (p, &s) in big.iter().enumerate() {
            let got = t.usable_slot(NodeId(1), PacketId(p as u64));
            assert_eq!(got, Some(Slot(s)), "packet {p}");
        }
        assert!(t.wide[0].is_none() && t.wide[1].is_some());
        assert!(t.steady_state_for(NodeId(0)));
        assert_eq!(t.analyze(NodeId(1)).unwrap().playback_delay, u64::MAX - 4);
        // A first arrival in a wide row is still the first.
        let mut t2 = t.clone();
        assert!(!t2.record(NodeId(1), PacketId(2), Slot(5)));
        assert_eq!(t2, t);
        // Slot u64::MAX has no encoding and widens nothing.
        let mut t3 = ArrivalTable::new(1, 2);
        assert!(t3.record(NodeId(0), PacketId(1), Slot(u64::MAX)));
        assert!(t3.wide[0].is_none());
        assert_eq!(t3.usable_slot(NodeId(0), PacketId(1)), None);
    }

    #[test]
    fn windows_widen_their_own_rows() {
        let mut t = ArrivalTable::new(3, 2);
        {
            let mut w = t.windows(&[1, 2]);
            assert!(w[1].first(4, 1, 1 << 33));
            assert!(w[0].first(0, 1, 1 << 34));
            assert!(w[1].first(2, 0, 7));
            assert!(!w[1].first(2, 0, 1 << 35), "first arrival wins");
            assert!(!w[1].is_empty(4, 1) && w[1].is_empty(4, 0));
            assert!(w[0].is_empty(0, 0) && !w[0].is_empty(0, 1));
        }
        let mut want = ArrivalTable::new(3, 2);
        want.record(NodeId(2), PacketId(1), Slot(1 << 33));
        want.record(NodeId(0), PacketId(1), Slot(1 << 34));
        want.record(NodeId(1), PacketId(0), Slot(7));
        assert_eq!(t, want);
        assert!(t.wide[1].is_none(), "row 1 stays narrow");
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
