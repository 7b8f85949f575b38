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
//! never below `2 − d`). A row whose first arrival falls outside a byte —
//! a chain's far end, a repaired straggler, a slot near 2⁶⁴ — is widened
//! once: its bytes are decoded into a side row of 64-bit slots, found in
//! O(1) by node, and every byte of the row becomes the marker 255. A row
//! is therefore read either all narrow or all wide, so the per-cell loops
//! of the analysis never test for the marker, and a narrow row's delay is
//! its largest byte minus the bias.
//!
//! A row's first 64 cells, its *head*, are stored with the other rows'
//! heads, apart from the rest, its *tail*. Once a receiver runs on a
//! verified periodic schedule its
//! lateness repeats with the period, and the mega engine marks its row
//! *periodic*: every tail cell up to an implied end is `cell(j) = cell(j −
//! p)`, read back from the head and never stored, so its page is never
//! touched. At N = 10⁵ and 256 tracked packets a run to completion so
//! keeps 6.1 MiB of heads where every cell took 24.4 MiB.
//!
//! The analysis reads a narrow row in place, in one fused pass: one scan
//! of its bytes gives its delay, its misses and its smallest lateness,
//! one walk over its cells counts arrivals per receive slot, and one
//! branch-free sweep over the slots they span gives the buffer peak; no
//! cell is copied. A periodic row is walked through a window: its head,
//! as many implied cells as a held packet spans, and its stored tail.

use clustream_core::{CoreError, NodeId, PacketId, Slot};
use serde::{Deserialize, Serialize};
use std::alloc::Layout;
use std::ops::Range;

/// Per-node arrival slots for the first `track_packets` packets.
///
/// `usable_slot(node, packet)` is the first slot in which the node can play
/// or forward the packet (i.e. *send slot + latency*). `None` means the
/// packet never arrived within the simulated horizon.
///
/// Two tables are equal when they hold the same first arrivals, whatever
/// order they were recorded in and whatever form — narrow, wide or
/// periodic — their rows are kept in.
#[derive(Debug, Clone)]
pub struct ArrivalTable {
    n_ids: usize,
    track_packets: u64,
    /// Cells per row in its head: `min(track_packets, HEAD)`.
    head_len: usize,
    /// Every row's first `head_len` cells, its head, at `node · head_len +
    /// j`; past all of them ([`ArrivalTable::parts`]) the rest of every
    /// row, its tail, at `node · (track − head_len) + j − head_len`. A
    /// narrow row's cell holds the packet's lateness as [`narrow`]
    /// encodes it, so that a zeroed cell — what a fresh allocation is, at
    /// no up-front cost — means "never arrived" ([`NEVER`]); a widened
    /// row's cells are all [`WIDE`]. A periodic row's implied cells have
    /// a place in the tails that is never written.
    cells: Vec<u8>,
    /// Per node id, its widened row, if one was. Zeroed like the cells,
    /// so the index costs address space until a row widens; a row sits
    /// behind a thin `Box` so that an all-zero entry is a valid `None`.
    wide: Vec<Option<Box<WideRow>>>,
    /// Per node id, its [`Periodic`] marker as [`Periodic::pack`] packs
    /// it, 0 for a row that is not periodic. Empty until a writer asks
    /// for markers ([`ArrivalTable::allow_periodic`]), then zeroed.
    periodic: Vec<u32>,
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

/// Cells a row keeps in its head.
const HEAD: usize = 64;

/// Low bits of a packed [`Periodic`] marker that hold its period.
const PERIOD_BITS: u32 = 6;

/// The narrow cell of packet `j`'s first arrival, usable from `usable`:
/// its lateness `usable − j` plus `BIAS + 1`, or `None` when that is not
/// strictly between [`NEVER`] and [`WIDE`].
#[inline]
fn narrow(usable: u64, j: usize) -> Option<u8> {
    let c = usable.checked_add(BIAS + 1)?.checked_sub(j as u64)?;
    u8::try_from(c).ok().filter(|&c| c != NEVER && c != WIDE)
}

/// What makes a narrow row periodic: each cell `j` with `head_len ≤ j <
/// end` is implied, `cell(j) = cell(j − period)`, so it reads back from
/// the head's last `period` cells.
#[derive(Clone, Copy)]
struct Periodic {
    period: usize,
    end: usize,
}

impl Periodic {
    /// The marker in one word, `end` above the period's bits; `None`
    /// when either does not fit (a period of 0 or ≥ 64, an end ≥ 2²⁶).
    fn pack(self) -> Option<u32> {
        let end = u32::try_from(self.end)
            .ok()
            .filter(|&e| e < 1 << (32 - PERIOD_BITS))?;
        let period = u32::try_from(self.period)
            .ok()
            .filter(|p| (1..1 << PERIOD_BITS).contains(p))?;
        Some(end << PERIOD_BITS | period)
    }

    /// The marker [`Periodic::pack`] packed, `None` for 0.
    fn unpack(word: u32) -> Option<Periodic> {
        (word != 0).then_some(Periodic {
            period: (word & ((1 << PERIOD_BITS) - 1)) as usize,
            end: (word >> PERIOD_BITS) as usize,
        })
    }
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
    /// Arrivals per receive slot over the row's slot span (a wide row's
    /// dense arm, every narrow row).
    counts: Vec<u32>,
    /// A wide row's sparse arm: its receive slots, sorted.
    recv: Vec<u64>,
    /// Rows with gaps: `below[k]` = arrived packets with index `< k`.
    below: Vec<usize>,
}

/// One row's cells as stored.
enum Row<'a> {
    Narrow(NarrowRow<'a>),
    /// The row's [`WideRow`].
    Wide(&'a [u64]),
}

/// A narrow row: its head, its whole tail and its marker.
#[derive(Clone, Copy)]
struct NarrowRow<'a> {
    head: &'a [u8],
    tail: &'a [u8],
    periodic: Option<Periodic>,
}

impl<'a> NarrowRow<'a> {
    /// The implied cells and the period they repeat with: an empty range
    /// for a row that is not periodic.
    fn implied(&self) -> (Range<usize>, usize) {
        let h = self.head.len();
        self.periodic.map_or((h..h, 1), |p| (h..p.end, p.period))
    }

    /// Cell `j`.
    #[inline]
    fn cell(&self, j: usize) -> u8 {
        let h = self.head.len();
        let (implied, p) = self.implied();
        if j < h {
            self.head[j]
        } else if implied.contains(&j) {
            self.head[h - p + (j - h) % p]
        } else {
            self.tail[j - h]
        }
    }

    /// Every cell of the row, implied ones expanded.
    fn cells(self) -> impl Iterator<Item = u8> + 'a {
        let h = self.head.len();
        let (implied, p) = self.implied();
        let pattern = &self.head[h.saturating_sub(p)..];
        self.head
            .iter()
            .chain(pattern.iter().cycle().take(implied.len()))
            .chain(&self.tail[implied.end - h..])
            .copied()
    }

    /// The cells stored past the implied ones: the whole tail of a row
    /// that is not periodic.
    fn stored_tail(&self) -> &'a [u8] {
        &self.tail[self.implied().0.end - self.head.len()..]
    }

    /// The row's bytes in one pass: its largest, its smallest arrived
    /// and its misses, over the head and the stored tail — the implied
    /// cells repeat the head's, so these hold every lateness of the row.
    fn bytes(&self) -> RowBytes {
        let mut b = RowBytes {
            max: NEVER,
            below: u8::MAX,
            misses: 0,
        };
        for run in [self.head, self.stored_tail()] {
            for &c in run {
                b.max = b.max.max(c);
                b.below = b.below.min(c.wrapping_sub(1));
                b.misses += usize::from(c == NEVER);
            }
        }
        b
    }

    /// How many implied cells the analysis skips, a multiple of the
    /// period: all but `a − λ + 1` of them, `a` the row's delay and `λ`
    /// its smallest lateness, rounded up to whole periods. No delay or
    /// buffer peak moves (DESIGN.md §14.2).
    fn cut(&self, b: &RowBytes) -> usize {
        let (implied, p) = self.implied();
        if implied.is_empty() || b.max == NEVER {
            return 0;
        }
        let keep = usize::from(b.max.max(BIAS as u8 + 1) - b.below);
        implied.len().saturating_sub(keep) / p * p
    }

    /// The row as the analysis reads it, in runs of cells: the head,
    /// the implied cells less the `cut` ones (copies of the head's last
    /// period), the stored tail.
    fn window(self, cut: usize) -> impl Iterator<Item = &'a [u8]> {
        let h = self.head.len();
        let (implied, p) = self.implied();
        let kept = implied.len() - cut;
        let pattern = &self.head[h.saturating_sub(p)..];
        std::iter::once(self.head)
            .chain(std::iter::repeat_n(pattern, kept / p))
            .chain([&pattern[..kept % p], self.stored_tail()])
    }

    /// [`ArrivalTable::playback`] of the row: one pass over its bytes,
    /// one over its window counting arrivals per receive slot, one
    /// sweep over the slots those span.
    fn playback(self, scratch: &mut PlaybackScratch) -> RowPlayback {
        let h = self.head.len();
        let (implied, p) = self.implied();
        let b = self.bytes();
        // Every byte is a lateness plus `BIAS + 1`, and never is 0.
        let delay = u64::from(b.max).saturating_sub(BIAS + 1);
        let (missing, first_missing) = if b.misses == 0 {
            (0, None)
        } else {
            // Implied cells repeat the head's last period: a head
            // without a miss leaves the first one in the stored tail.
            let pattern = &self.head[h.saturating_sub(p)..];
            let misses = |cells: &[u8]| cells.iter().filter(|&&c| c == NEVER).count();
            let implied_misses =
                implied.len() / p * misses(pattern) + misses(&pattern[..implied.len() % p]);
            let first = match self.head.iter().position(|&c| c == NEVER) {
                Some(j) => j,
                None => implied.end + self.stored_tail().iter().position(|&c| c == NEVER).unwrap(),
            };
            (b.misses + implied_misses, Some(first))
        };
        let mut pb = RowPlayback {
            delay,
            max_buffer: 0,
            missing,
            first_missing,
        };
        if b.max == NEVER {
            return pb;
        }

        // Cell `c` at index `i` of the window is received in slot `i + c
        // − (BIAS + 2)`, counted at `i + c − min`, `min` the smallest
        // arrived cell. A packet usable from slot 0 counts as received in
        // slot −1, not 0: that moves no occupancy at a slot `t ≥ 0`, and
        // the one at −1 is at most the one at 0.
        let cut = self.cut(&b);
        let len = self.head.len() + self.tail.len() - cut;
        let min = usize::from(b.below) + 1;
        let first = min as isize - (BIAS as isize + 2);
        let PlaybackScratch { counts, below, .. } = scratch;
        counts.clear();
        counts.resize(len + usize::from(b.max) - min, 0);
        below.clear();
        let mut i = 0;
        if b.misses == 0 {
            for run in self.window(cut) {
                for &c in run {
                    counts[i + usize::from(c) - min] += 1;
                    i += 1;
                }
            }
            sweep(&mut pb, counts, first, |through| through.min(len));
        } else {
            below.push(0);
            for run in self.window(cut) {
                for &c in run {
                    if c != NEVER {
                        counts[i + usize::from(c) - min] += 1;
                    }
                    below.push(below[i] + usize::from(c != NEVER));
                    i += 1;
                }
            }
            sweep(&mut pb, counts, first, |through| below[through.min(len)]);
        }
        pb
    }
}

/// What [`NarrowRow::bytes`] finds.
struct RowBytes {
    /// The largest byte: [`NEVER`] when nothing arrived.
    max: u8,
    /// The smallest arrived byte less one; a miss wraps round to 255 and
    /// is never it.
    below: u8,
    /// Misses in the head and the stored tail.
    misses: usize,
}

/// The buffer peak of a row whose arrivals per receive slot `first + k`
/// are `counts[k]`, into `pb`, `played(k)` the arrived packets with
/// index below `k`. Every slot of the span is visited: between two
/// receive slots the arrived count stands still and the played one only
/// grows, and before the first the buffer holds nothing, so the peak
/// over all of them is the peak over the receive slots.
#[inline]
fn sweep(pb: &mut RowPlayback, counts: &[u32], first: isize, played: impl Fn(usize) -> usize) {
    // Nothing is played before slot `a`: up to there the buffer holds
    // every arrival.
    let a = pb.delay as isize;
    let (early, late) = counts.split_at((a - first).clamp(0, counts.len() as isize) as usize);
    let mut arrived: usize = early.iter().map(|&n| n as usize).sum();
    let mut peak = arrived;
    let from = (first + early.len() as isize - a) as usize;
    for (k, &n) in late.iter().enumerate() {
        arrived += n as usize;
        peak = peak.max(arrived - played(from + k));
    }
    pb.max_buffer = peak;
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
/// addressed by node id, and a write goes through [`CellsMut::first`],
/// which keeps the first-wins rule, widens a row when it must and
/// respects a periodic row's implied cells. A view covers the whole
/// table ([`ArrivalTable::cells_mut`]) or one window of rows
/// ([`ArrivalTable::windows`]).
pub(crate) struct CellsMut<'a> {
    head: &'a mut [u8],
    tail: &'a mut [u8],
    /// The same rows' wide forms and markers: `wide[0]` is row
    /// `start`'s.
    wide: &'a mut [Option<Box<WideRow>>],
    periodic: &'a mut [u32],
    /// Node id of the view's first row.
    start: usize,
    head_len: usize,
    track: usize,
}

impl CellsMut<'_> {
    /// Cells per row in the head: a periodic row's implied cells start
    /// here.
    pub(crate) fn head_len(&self) -> usize {
        self.head_len
    }

    /// Row `r` of the view, if narrow.
    fn row(&self, r: usize) -> NarrowRow<'_> {
        let (h, t) = (self.head_len, self.track - self.head_len);
        NarrowRow {
            head: &self.head[r * h..(r + 1) * h],
            tail: &self.tail[r * t..(r + 1) * t],
            periodic: self.periodic.get(r).and_then(|&w| Periodic::unpack(w)),
        }
    }

    /// Where cell `j` of row `r` is stored.
    #[inline]
    fn stored(&mut self, r: usize, j: usize) -> &mut u8 {
        let h = self.head_len;
        match j.checked_sub(h) {
            None => &mut self.head[r * h + j],
            Some(k) => &mut self.tail[r * (self.track - h) + k],
        }
    }

    /// The cells of `node`'s row that are implied rather than stored:
    /// empty unless the row is periodic.
    #[inline]
    pub(crate) fn implied(&self, node: usize) -> Range<usize> {
        self.row(node - self.start).implied().0
    }

    /// Whether packet `j` of `node`'s row has no arrival yet.
    #[inline]
    pub(crate) fn is_empty(&self, node: usize, j: usize) -> bool {
        let r = node - self.start;
        match self.row(r).cell(j) {
            NEVER => true,
            WIDE => self.wide_row(r)[j] == 0,
            _ => false,
        }
    }

    /// Record `usable` as packet `j`'s first arrival in `node`'s row.
    /// `false` (and nothing written) when the cell already has one. Slot
    /// `u64::MAX` has no encoding: the cell reads back as "never
    /// arrived". In a periodic row, a first arrival in a cell that other
    /// cells are implied from, or in an implied cell, stores the row's
    /// implied cells first (the row stops being periodic), so that no
    /// other cell changes.
    #[inline]
    pub(crate) fn first(&mut self, node: usize, j: usize, usable: u64) -> bool {
        let r = node - self.start;
        let cell = *self.stored(r, j);
        match cell {
            // A table with no periodic rows has no markers to read.
            NEVER if self.periodic.get(r).is_some_and(|&w| w != 0) => {
                self.first_periodic(r, j, usable)
            }
            NEVER => {
                self.store(r, j, usable);
                true
            }
            WIDE => self.first_wide(r, j, usable),
            _ => false,
        }
    }

    /// [`CellsMut::first`] on each cell `j` of `node`'s row in `from..to`
    /// by steps of `step`, each usable `lateness` slots after its packet
    /// (`usable = j + lateness`); returns how many were first arrivals.
    /// The cells all hold one byte, so on a narrow row that is not
    /// periodic, with `to` inside the head, this is one strided pass.
    pub(crate) fn fill(
        &mut self,
        node: usize,
        (from, to, step): (usize, usize, usize),
        lateness: i128,
    ) -> usize {
        let r = node - self.start;
        let usable = |j: usize| (j as i128 + lateness) as u64;
        let plain = self.wide[r].is_none() && self.periodic.get(r).is_none_or(|&w| w == 0);
        match narrow(usable(from), from).filter(|_| plain && from < to && to <= self.head_len) {
            Some(c) => {
                let h = self.head_len;
                let cells = &mut self.head[r * h + from..r * h + to];
                let empty = cells.iter_mut().step_by(step).filter(|c| **c == NEVER);
                empty.map(|cell| *cell = c).count()
            }
            None => (from..to)
                .step_by(step)
                .filter(|&j| self.first(node, j, usable(j)))
                .count(),
        }
    }

    /// [`CellsMut::first`] on an empty stored cell `j` of the periodic
    /// row `r`.
    #[cold]
    fn first_periodic(&mut self, r: usize, j: usize, usable: u64) -> bool {
        let pr = Periodic::unpack(self.periodic[r]).expect("a periodic row");
        if self.row(r).cell(j) != NEVER {
            return false;
        }
        if j + pr.period >= self.head_len && j < pr.end {
            self.materialize(r, pr);
        }
        self.store(r, j, usable);
        true
    }

    /// Store `usable` in the empty cell `j` of the narrow row `r`.
    #[inline]
    fn store(&mut self, r: usize, j: usize, usable: u64) {
        match narrow(usable, j) {
            Some(c) => *self.stored(r, j) = c,
            None => self.widen(r, j, usable),
        }
    }

    /// Mark `node`'s row periodic: from now on its cells `head_len ..
    /// end` are `cell(j) = cell(j − period)` and are not stored. The
    /// caller vouches that the row's arrivals from the head's last
    /// `period` cells on, all recorded by now, repeat with `period` up
    /// to `end`. `false`, and the row left as it is, in a table without
    /// markers ([`ArrivalTable::allow_periodic`]), for a wide or already
    /// periodic row, a period of 0 or longer than the head or 63, or an
    /// end that leaves nothing implied or lies past the row (or past
    /// 2²⁶).
    pub(crate) fn mark_periodic(&mut self, node: usize, period: usize, end: usize) -> bool {
        let r = node - self.start;
        let h = self.head_len;
        let free = self.periodic.get(r) == Some(&0);
        if !free || self.wide[r].is_some() || period > h || end <= h {
            return false;
        }
        let Some(word) = Periodic { period, end }
            .pack()
            .filter(|_| end <= self.track)
        else {
            return false;
        };
        debug_assert!(
            self.row(r).tail[..end - h].iter().all(|&c| c == NEVER),
            "an implied cell was stored"
        );
        self.periodic[r] = word;
        true
    }

    /// The wide form of row `r`.
    fn wide_row(&self, r: usize) -> &[u64] {
        &self.wide[r]
            .as_ref()
            .expect("a WIDE row has its wide form")
            .0
    }

    /// Store a periodic row's implied cells and drop its marker.
    #[cold]
    fn materialize(&mut self, r: usize, pr: Periodic) {
        for j in self.head_len..pr.end {
            let c = self.row(r).cell(j);
            *self.stored(r, j) = c;
        }
        self.periodic[r] = 0;
    }

    /// Widen a narrow row for a first arrival no byte holds.
    #[cold]
    fn widen(&mut self, r: usize, j: usize, usable: u64) {
        if usable == u64::MAX {
            return;
        }
        let mut slots: Box<[u64]> = self
            .row(r)
            .cells()
            .enumerate()
            .map(|(k, c)| c.usable(k).map_or(0, |u| u + 1))
            .collect();
        slots[j] = usable + 1;
        let (h, t) = (self.head_len, self.track - self.head_len);
        self.head[r * h..(r + 1) * h].fill(WIDE);
        self.tail[r * t..(r + 1) * t].fill(WIDE);
        if let Some(marker) = self.periodic.get_mut(r) {
            *marker = 0;
        }
        self.wide[r] = Some(Box::new(WideRow(slots)));
    }

    /// [`CellsMut::first`] in a widened row.
    #[cold]
    fn first_wide(&mut self, r: usize, j: usize, usable: u64) -> bool {
        let slot = &mut self.wide[r]
            .as_mut()
            .expect("a WIDE row has its wide form")
            .0[j];
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
        let track = usize::try_from(track_packets).map_err(|_| too_large())?;
        // SAFETY: `u8` is not zero-sized, and 0 is a `u8`.
        let cells = n_ids
            .checked_mul(track)
            .and_then(|len| unsafe { zeroed::<u8>(len) })
            .ok_or_else(too_large)?;
        // SAFETY: an `Option<Box<_>>` of a sized type is a pointer, and
        // all-zero bytes are its `None`.
        let wide = unsafe { zeroed(n_ids) }.ok_or_else(too_large)?;
        Ok(ArrivalTable {
            n_ids,
            track_packets,
            head_len: track.min(HEAD),
            cells,
            wide,
            periodic: Vec::new(),
        })
    }

    /// Every row's head, then every row's tail.
    fn parts(&self) -> (&[u8], &[u8]) {
        self.cells.split_at(self.n_ids * self.head_len)
    }

    /// Give every row a periodic marker, so that rows can be marked
    /// ([`CellsMut::mark_periodic`]). Until then — and if the markers
    /// cannot be allocated — no row is periodic and a write reads no
    /// marker.
    pub(crate) fn allow_periodic(&mut self) {
        if self.periodic.is_empty() {
            // SAFETY: `u32` is not zero-sized, and 0 is a `u32`.
            self.periodic = unsafe { zeroed(self.n_ids) }.unwrap_or_default();
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

    /// Record that `packet` became usable at `node` from `slot` onward;
    /// `true` when it is the packet's first arrival there. Later
    /// duplicate deliveries do not overwrite the first arrival, and a
    /// packet past the tracked window is ignored (`false`).
    #[inline]
    pub fn record(&mut self, node: NodeId, packet: PacketId, usable_from: Slot) -> bool {
        if packet.seq() >= self.track_packets {
            return false;
        }
        self.cells_mut()
            .first(node.index(), packet.seq() as usize, usable_from.t())
    }

    /// The whole table, for the mega engine's steady-state gears.
    pub(crate) fn cells_mut(&mut self) -> CellsMut<'_> {
        let (head, tail) = self.cells.split_at_mut(self.n_ids * self.head_len);
        CellsMut {
            head,
            tail,
            wide: &mut self.wide,
            periodic: &mut self.periodic,
            start: 0,
            head_len: self.head_len,
            track: self.track_packets as usize,
        }
    }

    /// The table as consecutive windows of `rows[k]` rows each, for
    /// writers working on disjoint id ranges at once. A window widens
    /// its own rows.
    pub(crate) fn windows(&mut self, rows: &[usize]) -> Vec<CellsMut<'_>> {
        let track = self.track_packets as usize;
        let (h, t) = (self.head_len, track - self.head_len);
        let (mut head, mut tail) = self.cells.split_at_mut(self.n_ids * h);
        let mut wide = &mut self.wide[..];
        let markers = usize::from(!self.periodic.is_empty());
        let mut periodic = &mut self.periodic[..];
        let mut start = 0;
        rows.iter()
            .map(|&n| {
                let window = CellsMut {
                    head: split_off(&mut head, n * h),
                    tail: split_off(&mut tail, n * t),
                    wide: split_off(&mut wide, n),
                    periodic: split_off(&mut periodic, n * markers),
                    start,
                    head_len: h,
                    track,
                };
                start += n;
                window
            })
            .collect()
    }

    /// `node`'s row, in the form it is stored in.
    fn row(&self, node: usize) -> Row<'_> {
        if let Some(w) = &self.wide[node] {
            return Row::Wide(&w.0);
        }
        let (h, t) = (self.head_len, self.track_packets as usize - self.head_len);
        let (head, tail) = self.parts();
        Row::Narrow(NarrowRow {
            head: &head[node * h..(node + 1) * h],
            tail: &tail[node * t..(node + 1) * t],
            periodic: self.periodic.get(node).and_then(|&w| Periodic::unpack(w)),
        })
    }

    /// First slot `packet` is usable at `node`, if it ever arrived;
    /// `None` too for a packet or a node the table does not cover —
    /// what [`ArrivalTable::record`] ignores was never recorded.
    pub fn usable_slot(&self, node: NodeId, packet: PacketId) -> Option<Slot> {
        if node.index() >= self.n_ids || packet.seq() >= self.track_packets {
            return None;
        }
        let j = packet.seq() as usize;
        match self.row(node.index()) {
            Row::Narrow(row) => row.cell(j).usable(j),
            Row::Wide(row) => row[j].usable(j),
        }
        .map(Slot)
    }

    /// Whether every tracked packet reached `node`.
    pub fn complete_for(&self, node: NodeId) -> bool {
        match self.row(node.index()) {
            Row::Narrow(row) => row.cells().all(|c| c != NEVER),
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
    /// the rank of `t` among the receive slots, counted into an array
    /// over the row's receive-slot span.
    ///
    /// A narrow row is read in place, in one pass over its bytes (its
    /// delay, its misses, its smallest lateness), one over its cells
    /// counting arrivals per receive slot and one sweep over every slot
    /// of their span, at most 253 more than the cells. A periodic row's
    /// cells are read through a window of its implied ones
    /// ([`NarrowRow::window`]); the cut cells' misses are counted from
    /// the head. A wide row's span can be anything (a repaired or
    /// heavy-tailed straggler far from the rest): it is counted when
    /// that span is of the order of the row and sorted otherwise.
    fn playback(&self, node: NodeId, scratch: &mut PlaybackScratch) -> RowPlayback {
        match self.row(node.index()) {
            Row::Wide(row) => playback_of(row, scratch),
            Row::Narrow(row) => row.playback(scratch),
        }
    }

    /// Check that the tail of the window does not move `a(i)`: computes the
    /// playback delay using only the first half of the window and using the
    /// whole window, returning `true` when they agree. Used by tests and
    /// benches as evidence the tracked window reached steady state.
    pub fn steady_state_for(&self, node: NodeId) -> bool {
        match self.row(node.index()) {
            Row::Narrow(row) => steady_of(&row.cells().collect::<Vec<_>>()),
            Row::Wide(row) => steady_of(row),
        }
    }
}

impl PartialEq for ArrivalTable {
    /// Row by row, a narrow row read with its implied cells expanded: a
    /// periodic row equals the same arrivals written cell by cell.
    fn eq(&self, other: &Self) -> bool {
        self.n_ids == other.n_ids
            && self.track_packets == other.track_packets
            && (0..self.n_ids).all(|i| match (self.row(i), other.row(i)) {
                (Row::Wide(a), Row::Wide(b)) => a == b,
                (Row::Narrow(a), Row::Narrow(b)) => match (a.periodic, b.periodic) {
                    (None, None) => a.head == b.head && a.tail == b.tail,
                    _ => a.cells().eq(b.cells()),
                },
                _ => false,
            })
    }
}

impl Eq for ArrivalTable {}

/// The first `n` elements of `*rest`, leaving the others there.
fn split_off<'a, T>(rest: &mut &'a mut [T], n: usize) -> &'a mut [T] {
    let (first, others) = std::mem::take(rest).split_at_mut(n);
    *rest = others;
    first
}

/// Whether every packet of `row` arrived.
fn complete<C: Cell>(row: &[C]) -> bool {
    row.iter().enumerate().all(|(j, c)| c.usable(j).is_some())
}

/// [`ArrivalTable::playback`] over one wide row.
fn playback_of(row: &[u64], scratch: &mut PlaybackScratch) -> RowPlayback {
    let PlaybackScratch {
        counts,
        recv,
        below,
    } = scratch;
    let delay = u64::delay(row);
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
                arrived += n as usize;
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
    fn fill_is_first_cell_by_cell() {
        // Row 0 takes the strided pass; row 1 holds a cell already; row 2
        // is wide; a lateness of 400 needs a wide row; a stride that
        // reaches past the head goes cell by cell.
        for (lateness, range) in [
            (3, (2, 64, 3)),
            (-1, (1, 64, 2)),
            (400, (0, 64, 3)),
            (5, (40, 100, 7)),
        ] {
            let mut want = ArrivalTable::new(3, 256);
            want.record(NodeId(1), PacketId(8), Slot(2));
            want.record(NodeId(2), PacketId(0), Slot(1000));
            let mut got = want.clone();
            for node in 0..3 {
                let (from, to, step) = range;
                let mut cells = want.cells_mut();
                let firsts = (from..to).step_by(step);
                let usable = |j: usize| (j as i128 + lateness) as u64;
                let n = firsts.filter(|&j| cells.first(node, j, usable(j))).count();
                assert_eq!(got.cells_mut().fill(node, range, lateness), n, "{range:?}");
            }
            assert_eq!(got, want, "lateness {lateness}, {range:?}");
        }
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
            assert!(w[1].first(2, 1, 1 << 33));
            assert!(w[0].first(0, 1, 1 << 34));
            assert!(w[1].first(1, 0, 7));
            assert!(!w[1].first(1, 0, 1 << 35), "first arrival wins");
            assert!(!w[1].is_empty(2, 1) && w[1].is_empty(2, 0));
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

    /// A one-row table of `track` packets, packet `j` at lateness
    /// `late(j)` (`None`: never arrived), written cell by cell; and the
    /// same row marked periodic with period `p` up to `end`, its cells
    /// `HEAD..end` never written.
    fn periodic_twins(
        track: usize,
        p: usize,
        end: usize,
        late: impl Fn(usize) -> Option<i64>,
    ) -> (ArrivalTable, ArrivalTable) {
        let mut written = ArrivalTable::new(1, track as u64);
        let mut periodic = ArrivalTable::new(1, track as u64);
        periodic.allow_periodic();
        for j in 0..track {
            let Some(l) = late(j) else { continue };
            let usable = Slot(u64::try_from(j as i64 + l).unwrap());
            written.record(NodeId(0), PacketId(j as u64), usable);
            if !(HEAD..end).contains(&j) {
                periodic.record(NodeId(0), PacketId(j as u64), usable);
            }
        }
        assert!(periodic.cells_mut().mark_periodic(0, p, end));
        assert_eq!(periodic, written);
        (written, periodic)
    }

    /// The cells the analysis reads of `t`'s narrow row 0.
    fn window_len(t: &ArrivalTable) -> usize {
        let Row::Narrow(row) = t.row(0) else {
            panic!("a wide row has no window")
        };
        row.window(row.cut(&row.bytes())).map(<[u8]>::len).sum()
    }

    /// Both analyses of row 0 read the same on either twin, the periodic
    /// one through a window of fewer than 200 cells.
    fn assert_same_playback(written: &ArrivalTable, periodic: &ArrivalTable) {
        let read = window_len(periodic);
        assert!(read < 200, "read {read} cells");
        assert_eq!(periodic.analyze(NodeId(0)), written.analyze(NodeId(0)));
        assert_eq!(
            periodic.analyze_lossy(NodeId(0)),
            written.analyze_lossy(NodeId(0))
        );
    }

    #[test]
    fn a_long_periodic_row_reads_as_written() {
        // Lateness 2, 1, 3 from packet 0 on over 1064 packets: one table
        // writes every cell, the other only the head.
        let track = HEAD + 1000;
        let (written, periodic) = periodic_twins(track, 3, track, |j| Some([2, 1, 3][j % 3]));
        assert!(periodic.parts().1.iter().all(|&c| c == NEVER));
        let (a, b) = (
            periodic.analyze(NodeId(0)).unwrap(),
            written.analyze(NodeId(0)).unwrap(),
        );
        assert_eq!((a.playback_delay, a.max_buffer), (3, b.max_buffer));
    }

    #[test]
    fn a_periodic_row_behind_a_ramp_is_read_through_a_window() {
        // A 40-packet ramp at lateness −1 … 31, then 2, 0, 1 with period
        // 3 to packet 1064: the delay comes from the ramp, the buffer
        // peak from where the ramp meets the period.
        let track = HEAD + 1000;
        let (written, periodic) = periodic_twins(track, 3, track, |j| {
            Some(if j < 40 {
                (j as i64 * 7 + 1) % 33 - 1
            } else {
                [2, 0, 1][j % 3]
            })
        });
        assert_eq!(written.analyze(NodeId(0)).unwrap().playback_delay, 31);
        assert_same_playback(&written, &periodic);
    }

    #[test]
    fn the_window_keeps_every_cell_a_held_packet_spans() {
        // Packets 63 … 963 alone, at one lateness: the buffer peaks only
        // where a packet overlaps the a − λ + 1 next ones, the head's
        // last cell and as many implied ones. At lateness −1 the delay
        // is 0, and a packet is held from two slots early.
        let track = HEAD + 1000;
        for lateness in [-1, 0, 5] {
            let arrived = HEAD - 1..HEAD + 900;
            let (written, periodic) = periodic_twins(track, 1, arrived.end, |j| {
                arrived.contains(&j).then_some(lateness)
            });
            assert_same_playback(&written, &periodic);
        }
    }

    #[test]
    fn a_late_joiners_periodic_row_is_cut_deeply() {
        // Nothing before packet 20, and packets ≡ 1 (mod 3) never: the
        // head's last period holds a miss that the cut takes 331 times.
        let track = HEAD + 1000;
        let late = |j: usize| match j % 3 {
            _ if j < 20 => None,
            0 => Some(4),
            1 => None,
            _ => Some(1),
        };
        let (written, periodic) = periodic_twins(track, 3, track, late);
        let lossy = periodic.analyze_lossy(NodeId(0));
        assert_eq!(
            lossy.missing,
            20 + (20..track).filter(|j| j % 3 == 1).count()
        );
        assert!(lossy.max_buffer > 0);
        assert!(matches!(
            periodic.analyze(NodeId(0)),
            Err(CoreError::Hiccup {
                packet: PacketId(0),
                ..
            })
        ));
        assert_same_playback(&written, &periodic);
    }

    #[test]
    fn a_miss_past_a_cut_is_reported_where_it_is() {
        // The implied run ends at packet 1000 and nothing arrives past
        // it: the first miss sits behind the cut, and is packet 1000.
        let track = HEAD + 1000;
        let (written, periodic) =
            periodic_twins(track, 3, 1000, |j| (j < 1000).then_some([1, 2, 0][j % 3]));
        assert!(matches!(
            periodic.analyze(NodeId(0)),
            Err(CoreError::Hiccup {
                packet: PacketId(1000),
                ..
            })
        ));
        assert_eq!(periodic.analyze_lossy(NodeId(0)).missing, track - 1000);
        assert_same_playback(&written, &periodic);
    }

    #[test]
    fn a_first_arrival_in_a_periodic_rows_pattern_changes_no_other_cell() {
        // Period 2 with odd packets never arrived: head cell 63 is what
        // cells 65, 67, … read back. A first arrival there, or in one of
        // them, must reach no other cell.
        let track = HEAD + 10;
        for j in [HEAD - 1, HEAD + 3] {
            let (mut written, mut periodic) =
                periodic_twins(track, 2, track, |j| (j % 2 == 0).then_some(1));
            for t in [&mut written, &mut periodic] {
                assert!(t.record(NodeId(0), PacketId(j as u64), Slot(99)));
            }
            assert_eq!(periodic, written, "packet {j}");
            assert_eq!(
                periodic.usable_slot(NodeId(0), PacketId(HEAD as u64 + 1)),
                None
            );
            assert_eq!(periodic.periodic[0], 0, "the row was stored out");
        }
    }

    #[test]
    fn a_mega_run_at_n_10_4_never_writes_a_receivers_tail() {
        use clustream_multitree::{greedy_forest, MultiTreeScheme, StreamMode};
        let scheme =
            || MultiTreeScheme::new(greedy_forest(10_000, 3).unwrap(), StreamMode::PreRecorded);
        let cfg = crate::SimConfig::until_complete(256, 100_000);
        let want = crate::FastSimulator::run(&mut scheme(), &cfg).unwrap();
        let mut mega = crate::MegaEngine::new();
        let got = mega.run(&mut scheme(), &cfg).unwrap();
        assert!(mega.steady_slots() > 0, "the steady table never ran");
        assert_eq!(crate::diff::diff_fields(&want, &got), Vec::<&str>::new());
        assert_eq!(want, got);
        let t = &got.arrivals;
        let tail = t.track_packets() as usize - t.head_len;
        for q in &got.qos.nodes {
            let i = q.node.index();
            assert!(
                t.parts().1[i * tail..(i + 1) * tail]
                    .iter()
                    .all(|&c| c == NEVER),
                "receiver {i}'s tail was written"
            );
        }
    }

    /// A periodic row against the plain `Vec<Option<u64>>` model.
    mod periodic_rows {
        use super::*;
        use proptest::prelude::*;

        /// `(kind, x)`: a first arrival's lateness on either side of each
        /// edge of a byte, small, anywhere between, or none. A `calm` one
        /// is small or none, so that more rows stay narrow and are marked.
        fn lateness((kind, x): (u8, i64), calm: bool) -> Option<i64> {
            let bias = BIAS as i64;
            match kind % 6 {
                2 => None,
                _ if calm => Some(-1 + x.rem_euclid(4)),
                0 => Some(-bias - 1 + x.rem_euclid(3)),
                1 => Some(252 - bias + x.rem_euclid(4)),
                3 | 4 => Some(-1 + x.rem_euclid(4)),
                _ => Some(-bias - 1 + x.rem_euclid(257)),
            }
        }

        fn usable(j: usize, lateness: Option<i64>) -> Option<u64> {
            lateness.and_then(|l| u64::try_from(j as i64 + l).ok())
        }

        /// `max_j (usable(j) − j)` over the arrived packets.
        fn delay_of(row: &[Option<u64>]) -> u64 {
            row.iter()
                .enumerate()
                .filter_map(|(j, u)| u.map(|u| u.saturating_sub(j as u64)))
                .max()
                .unwrap_or(0)
        }

        /// Buffer peak with playback from `a`, over the receive slots.
        fn buffer_of(row: &[Option<u64>], a: u64) -> usize {
            let recv: Vec<(usize, u64)> = row
                .iter()
                .enumerate()
                .filter_map(|(j, u)| u.map(|u| (j, u.saturating_sub(1))))
                .collect();
            recv.iter()
                .map(|&(_, t)| {
                    recv.iter()
                        .filter(|&&(j, r)| r <= t && j as u64 + a >= t)
                        .count()
                })
                .max()
                .unwrap_or(0)
        }

        /// Every accessor and both analyses of node 1 against `model`.
        fn check(t: &ArrivalTable, model: &[Option<u64>]) -> Result<(), TestCaseError> {
            let node = NodeId(1);
            for j in 0..model.len() + 2 {
                let want = model.get(j).copied().flatten().map(Slot);
                prop_assert_eq!(
                    t.usable_slot(node, PacketId(j as u64)),
                    want,
                    "packet {}",
                    j
                );
            }
            prop_assert_eq!(t.complete_for(node), model.iter().all(Option::is_some));
            let a = delay_of(model);
            let l = t.analyze_lossy(node);
            prop_assert_eq!(l.missing, model.iter().filter(|u| u.is_none()).count());
            prop_assert_eq!(l.playback_delay, a);
            prop_assert_eq!(l.max_buffer, buffer_of(model, a));
            match model.iter().position(Option::is_none) {
                Some(j) => prop_assert!(matches!(
                    t.analyze(node),
                    Err(CoreError::Hiccup { packet, .. }) if packet == PacketId(j as u64)
                )),
                None => {
                    let full = t.analyze(node).unwrap();
                    prop_assert_eq!((full.playback_delay, full.max_buffer), (a, l.max_buffer));
                }
            }
            let steady =
                model.iter().all(Option::is_some) && delay_of(&model[..model.len() / 2]) == a;
            prop_assert_eq!(t.steady_state_for(node), steady);
            Ok(())
        }

        fn arrival() -> impl Strategy<Value = (u8, i64)> {
            (any::<u8>(), any::<i64>())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Packets from `j0` to `end` arrive with a period-`p` lateness,
            /// the others at any; the row is marked periodic when its head
            /// holds a whole period of it and the rest is recorded. It must
            /// read as the model, equal the row written cell by cell, and
            /// keep doing so under records on stored, implied and
            /// past-the-end cells — one of them continuing the period at
            /// its implied end, some in the head's last period, some
            /// widening the row.
            #[test]
            fn a_periodic_row_reads_as_its_expansion(
                p in 1usize..=4,
                j0 in 0usize..HEAD + 8,
                extra in 0usize..1000,
                end_off in 0usize..1100,
                pattern in proptest::collection::vec(arrival(), 4),
                free in proptest::collection::vec(arrival(), HEAD + 8),
                after in proptest::collection::vec(arrival(), 0..400),
                calm in any::<bool>(),
                more in proptest::collection::vec((any::<usize>(), arrival()), 0..8),
            ) {
                let track = HEAD + extra;
                let end = (j0 + end_off).min(track);
                let lateness_at = |j: usize| {
                    if j < j0 {
                        lateness(free[j], calm)
                    } else if j < end {
                        lateness(pattern[(j - j0) % p], calm)
                    } else {
                        after.get(j - end).and_then(|&x| lateness(x, calm))
                    }
                };
                let mut model: Vec<Option<u64>> =
                    (0..track).map(|j| usable(j, lateness_at(j))).collect();
                let late = |model: &[Option<u64>], j: usize| {
                    model[j].map(|u| u as i64 - j as i64)
                };
                let periodic = j0 + p <= HEAD
                    && end > HEAD
                    && (HEAD..end).all(|j| late(&model, j) == late(&model, j - p));

                let node = NodeId(1);
                let mut t = ArrivalTable::new(2, track as u64);
                t.allow_periodic();
                let mut w = ArrivalTable::new(2, track as u64);
                for (j, u) in model.iter().enumerate() {
                    if let Some(u) = *u {
                        w.record(node, PacketId(j as u64), Slot(u));
                        if j < HEAD {
                            t.record(node, PacketId(j as u64), Slot(u));
                        }
                    }
                }
                // A head arrival past a byte widened the row: no marker.
                let marked = periodic && t.cells_mut().mark_periodic(1, p, end);
                prop_assert_eq!(marked, periodic && t.wide[1].is_none());
                for (j, u) in model.iter().enumerate().skip(HEAD) {
                    if let Some(u) = *u {
                        if !(marked && j < end) {
                            t.record(node, PacketId(j as u64), Slot(u));
                        }
                    }
                }
                if marked && t.periodic[1] != 0 {
                    let tail = &t.parts().1[track - HEAD..];
                    prop_assert!(tail[..end - HEAD].iter().all(|&c| c == NEVER));
                }
                check(&t, &model)?;
                prop_assert_eq!(&t, &w);

                // The period continued at the implied end.
                let mut records: Vec<(usize, Option<u64>)> = Vec::new();
                if end < track && end >= p {
                    records.push((end, usable(end, late(&model, end - p))));
                }
                // Half of the others land in the head's last period or
                // the implied cells right past it.
                records.extend(more.iter().map(|&(i, x)| {
                    let j = match i % 2 {
                        0 => i / 2 % track,
                        _ => (HEAD - p + i / 2 % (2 * p)).min(track - 1),
                    };
                    (j, usable(j, lateness(x, false)))
                }));
                for (j, u) in records {
                    let Some(u) = u else { continue };
                    let first = model[j].is_none();
                    prop_assert_eq!(t.record(node, PacketId(j as u64), Slot(u)), first);
                    w.record(node, PacketId(j as u64), Slot(u));
                    model[j].get_or_insert(u);
                    check(&t, &model)?;
                    prop_assert_eq!(&t, &w);
                }
            }

            /// Rows of 1 to 300 cells, so across the head, each read by
            /// the one pass as the model reads it: narrow as drawn or
            /// widened by one late arrival, all misses, and periodic —
            /// its implied run cut down to a window, too short for a cut,
            /// or as the draw falls. Drawn arrivals include misses and
            /// packets usable from slot 0.
            #[test]
            fn every_row_reads_as_the_model(
                len in 1usize..=300,
                mode in 0u8..6,
                cells in proptest::collection::vec(arrival(), 300),
                p in 1usize..=4,
                j0 in 0usize..=HEAD - 4,
                end_off in any::<usize>(),
                pattern in proptest::collection::vec(arrival(), 4),
            ) {
                let calm = mode != 0 && mode != 5;
                let periodic = mode >= 3;
                let len = match mode {
                    3 => HEAD + 20 + len % (300 - HEAD - 19),
                    4 | 5 => HEAD + 1 + len % (300 - HEAD),
                    _ => len,
                };
                let end = match mode {
                    3 => len,
                    4 => (HEAD + 1 + end_off % p).min(len),
                    5 => HEAD + 1 + end_off % (len - HEAD),
                    _ => 0,
                };
                let late = |j: usize| match mode {
                    2 => None,
                    _ if periodic && j >= j0 && j < end => lateness(pattern[(j - j0) % p], calm),
                    _ if mode != 3 && cells[j].0 % 7 == 6 => Some(-(j as i64)),
                    _ => lateness(cells[j], calm),
                };
                let mut model: Vec<Option<u64>> = (0..len).map(|j| usable(j, late(j))).collect();
                if mode == 1 {
                    let j = end_off % len;
                    model[j] = usable(j, Some(300));
                }

                let node = NodeId(1);
                let h = len.min(HEAD);
                let mut t = ArrivalTable::new(2, len as u64);
                t.allow_periodic();
                let mut w = ArrivalTable::new(2, len as u64);
                let record = |t: &mut ArrivalTable, j: usize| {
                    if let Some(u) = model[j] {
                        t.record(node, PacketId(j as u64), Slot(u));
                    }
                };
                for j in 0..len {
                    record(&mut w, j);
                }
                (0..h).for_each(|j| record(&mut t, j));
                let implied = periodic
                    && (HEAD..end).all(|j| {
                        let l = |j: usize| model[j].map(|u| u as i64 - j as i64);
                        l(j) == l(j - p)
                    })
                    && t.cells_mut().mark_periodic(1, p, end);
                prop_assert!(implied || !calm || !periodic, "a calm row was not marked");
                let stored = |j: &usize| !(implied && (HEAD..end).contains(j));
                (h..len).filter(stored).for_each(|j| record(&mut t, j));
                prop_assert!(mode != 1 || t.wide[1].is_some(), "a late arrival did not widen");
                if let (true, Row::Narrow(row)) = (implied, t.row(1)) {
                    let cut = row.cut(&row.bytes());
                    match mode {
                        3 => prop_assert!(cut > 0 || model.iter().all(Option::is_none)),
                        4 => prop_assert_eq!(cut, 0),
                        _ => {}
                    }
                }
                check(&t, &model)?;
                prop_assert_eq!(&t, &w);
            }
        }
    }
}
