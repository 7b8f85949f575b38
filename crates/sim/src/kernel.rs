//! The slot kernel: the one dense-state implementation of the
//! communication model, split into the phases of a slot. The mega
//! engine drives it slot by slot, and so does the DES's strict
//! (slot-faithful) tick.
//!
//! A run is `begin`, then per slot `deliver` → `dispatch` → `admit`
//! (`Kernel::run_slots` is that loop), then `flush_ring` and `finish`.
//! [`Kernel`] is the arena reused across runs; [`Run`] is the state of
//! one run. Mega's full mode is exactly that loop, up to the hand-off
//! where its steady-state gears take over on the same holdings rows.
//! The DES opens each slot with [`Kernel::open`] instead of `deliver`
//! (its `Deliver` events hand each arrival to [`Kernel::store`]) and
//! admits through [`Kernel::admit_with`], whose hook turns every
//! admitted transmission into a `Deliver` event.
//! Results and errors are **bit-identical** to the reference
//! [`crate::Simulator`], which stays a structurally independent
//! implementation (hash sets and a `BTreeMap`) because it is the oracle
//! the differential harness in [`crate::diff`] compares against.
//!
//! What the kernel uses where the reference uses `std` collections:
//!
//! * per-node packet holdings: one **columnar bitset** (a fixed number
//!   of words per node in one flat array, spill rows past its memory
//!   budget) for `HashSet<u64>`;
//! * the arrival queue: a **ring buffer** indexed by
//!   `arrival_slot % window` for the `BTreeMap`, with a per-cell node
//!   bitmask for the `HashSet<(slot, node)>` collision guard;
//! * the first-cause table: dense rows in the run's
//!   [`FaultLedger`] for a `HashMap`;
//! * every scratch buffer lives in the arena and is reset, not
//!   reallocated, by `begin`.
//!
//! Determinism mirrors the reference exactly: deliveries flush in queue
//! order per arrival slot, the final flush walks arrival slots in
//! ascending order, and the loss RNG consumes one draw per validated
//! transmission in validation order (only when `loss_rate > 0`).

use crate::engine::{RunResult, SimConfig};
use crate::faults::FaultLedger;
use crate::metrics::TrafficStats;
use crate::playback::{ArrivalTable, PlaybackScratch};
use crate::resilience::ResilienceMetrics;
use crate::trace::EventTrace;
use clustream_core::{
    Availability, CoreError, NodeId, NodeQos, PacketId, QosReport, Scheme, Slot, StateView,
    Transmission,
};
use clustream_telemetry::{names as tm, Telemetry};

/// Sentinel for "no packet yet" in the dense newest-packet array.
const NO_PACKET: u64 = u64::MAX;

/// Close one slot's delivery accounting: `n` fresh deliveries became
/// usable in it. The per-slot series is these two probes and nothing
/// else, whichever loop or gear counted `n` (zeros included: the
/// histogram's `count` is the number of slots run). Only the reference
/// engine spells the pair out itself — it is what `tests/telemetry.rs`
/// compares this with.
#[inline]
pub(crate) fn record_slot_deliveries(tel: &Telemetry, n: u64) {
    tel.counter(tm::ENGINE_DELIVERIES, n);
    tel.observe(tm::ENGINE_SLOT_DELIVERIES, n);
}

/// Columnar holdings budget: grow the per-node stride only while the
/// whole array stays under this many words (256 MiB). Beyond it,
/// out-of-range seqs go to the per-node spill rows.
const COLUMNAR_WORDS_LIMIT: usize = 1 << 25;

/// A growable bitset over packet sequence numbers: one node's spill row
/// for the seqs past the columnar budget.
#[derive(Debug, Default, Clone)]
pub(crate) struct PacketSet {
    pub(crate) words: Vec<u64>,
}

impl PacketSet {
    /// Insert `seq`; returns `false` if it was already present (the
    /// `HashSet::insert` contract the duplicate counters rely on).
    #[inline]
    pub(crate) fn insert(&mut self, seq: u64) -> bool {
        let (w, b) = ((seq / 64) as usize, seq % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << b;
        let fresh = self.words[w] & mask == 0;
        self.words[w] |= mask;
        fresh
    }

    /// Whether `seq` is in the set.
    #[inline]
    pub(crate) fn contains(&self, seq: u64) -> bool {
        let (w, b) = ((seq / 64) as usize, seq % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    fn clear(&mut self) {
        self.words.clear();
    }
}

/// The per-node packet holdings: `stride` words per node in one flat
/// struct-of-arrays `Vec<u64>`, plus per-node spill rows for sequence
/// numbers past the columnar budget. Inserts and membership tests are
/// single word operations, growth is one bulk re-layout, and mega's
/// range-sharded workers borrow disjoint row windows with
/// `split_at_mut`.
#[derive(Default)]
pub(crate) struct ColumnarHeld {
    n_ids: usize,
    pub(crate) stride: usize,
    pub(crate) words: Vec<u64>,
    pub(crate) spill: Vec<PacketSet>,
}

impl ColumnarHeld {
    /// Empty the store for a run over `n_ids` nodes expecting seqs up to
    /// about `hint_seq`.
    pub(crate) fn reset(&mut self, n_ids: usize, hint_seq: u64) {
        self.n_ids = n_ids;
        let want = ((hint_seq / 64) as usize + 1).next_power_of_two();
        self.stride = want.min(Self::max_stride(n_ids)).max(1);
        self.words.clear();
        self.words.resize(n_ids * self.stride, 0);
        for s in &mut self.spill {
            s.clear();
        }
        self.spill.resize(n_ids, PacketSet::default());
    }

    /// Insert `seq` for `node`; `false` if already present.
    #[inline]
    pub(crate) fn insert(&mut self, node: usize, seq: u64) -> bool {
        let w = seq / 64;
        if w < self.stride as u64 {
            let idx = node * self.stride + w as usize;
            let mask = 1u64 << (seq % 64);
            let fresh = self.words[idx] & mask == 0;
            self.words[idx] |= mask;
            fresh
        } else {
            self.insert_outlier(node, seq)
        }
    }

    /// Whether `node` holds `seq`.
    #[inline]
    pub(crate) fn contains(&self, node: usize, seq: u64) -> bool {
        let w = seq / 64;
        if w < self.stride as u64 {
            self.words[node * self.stride + w as usize] & (1u64 << (seq % 64)) != 0
        } else {
            self.spill[node].contains(seq)
        }
    }

    /// Largest power-of-two stride the memory budget allows for `n_ids`.
    fn max_stride(n_ids: usize) -> usize {
        let cap = COLUMNAR_WORDS_LIMIT / n_ids.max(1);
        if cap == 0 {
            1
        } else {
            1usize << (usize::BITS - 1 - cap.leading_zeros())
        }
    }

    /// Grow the stride so `seq` stays columnar if the budget allows.
    /// Returns whether `seq` is now covered by the columnar rows.
    pub(crate) fn ensure_covers(&mut self, seq: u64) -> bool {
        let w = seq / 64;
        if w < self.stride as u64 {
            return true;
        }
        let cap = Self::max_stride(self.n_ids) as u64;
        let new = (w + 1).next_power_of_two().min(cap);
        if new > self.stride as u64 {
            self.grow(new as usize);
        }
        w < self.stride as u64
    }

    /// Bulk re-layout to a larger stride; spilled seqs that now fit
    /// move back into the columnar rows (word-level ORs).
    #[cold]
    fn grow(&mut self, new_stride: usize) {
        let mut words = vec![0u64; self.n_ids * new_stride];
        for n in 0..self.n_ids {
            words[n * new_stride..n * new_stride + self.stride]
                .copy_from_slice(&self.words[n * self.stride..(n + 1) * self.stride]);
        }
        self.words = words;
        let (words, spill) = (&mut self.words, &mut self.spill);
        for (n, sp) in spill.iter_mut().enumerate() {
            for (w, word) in sp.words.iter_mut().enumerate().take(new_stride) {
                words[n * new_stride + w] |= *word;
                *word = 0;
            }
        }
        self.stride = new_stride;
    }

    #[cold]
    fn insert_outlier(&mut self, node: usize, seq: u64) -> bool {
        if self.ensure_covers(seq) {
            let idx = node * self.stride + (seq / 64) as usize;
            let mask = 1u64 << (seq % 64);
            let fresh = self.words[idx] & mask == 0;
            self.words[idx] |= mask;
            fresh
        } else {
            self.spill[node].insert(seq)
        }
    }

    /// One past the largest seq `node` holds, 0 when it holds none.
    pub(crate) fn end(&self, node: usize) -> u64 {
        let top = |words: &[u64]| {
            words.iter().rposition(|&w| w != 0).map_or(0, |i| {
                i as u64 * 64 + 64 - u64::from(words[i].leading_zeros())
            })
        };
        let row = &self.words[node * self.stride..(node + 1) * self.stride];
        top(row).max(top(&self.spill[node].words))
    }
}

/// Dense per-run simulation state exposed to schemes through
/// [`StateView`].
#[derive(Default)]
pub struct State {
    pub(crate) held: ColumnarHeld,
    /// Highest packet seq held per node; [`NO_PACKET`] = none.
    newest: Vec<u64>,
    slot: Slot,
    availability: Availability,
}

impl StateView for State {
    fn holds(&self, node: NodeId, packet: PacketId) -> bool {
        if node.is_source() {
            self.availability.produced(packet, self.slot)
        } else {
            self.held.contains(node.index(), packet.seq())
        }
    }

    fn newest(&self, node: NodeId) -> Option<PacketId> {
        let v = self.newest[node.index()];
        (v != NO_PACKET).then_some(PacketId(v))
    }

    fn slot(&self) -> Slot {
        self.slot
    }
}

/// Ring-buffer arrival queue indexed by `arrival_slot % window`.
///
/// Invariant: `window` strictly exceeds the largest in-flight latency, so
/// at any moment all queued arrival slots map to distinct cells and a
/// cell's contents all share one arrival slot. Each cell carries a node
/// bitmask enforcing the one-arrival-per-node-per-slot constraint.
///
/// A cell owns a buffer only while it has entries: [`ArrivalRing::take`]
/// hands the buffer to the caller, [`ArrivalRing::recycle`] parks it on
/// a spare list, and the next first push into any cell picks it up. The
/// ring so holds as many buffers as arrival slots were ever queued at
/// once — one for a unit-latency run, not one per cell it walked through.
#[derive(Default)]
pub(crate) struct ArrivalRing {
    cells: Vec<Vec<(NodeId, PacketId)>>,
    /// Emptied cell buffers awaiting reuse.
    spare: Vec<Vec<(NodeId, PacketId)>>,
    /// Per-cell receiver bitmask (`n_words` words per cell).
    guards: Vec<u64>,
    pub(crate) window: u64,
    n_words: usize,
    /// One past the largest arrival slot ever reserved (0 = none): no
    /// queued arrival and no guard bit lies at or beyond it.
    reserved_end: u64,
}

impl ArrivalRing {
    /// Reset for a run over `n_ids` nodes with an initial window.
    pub(crate) fn reset(&mut self, n_ids: usize) {
        self.n_words = n_ids.div_ceil(64);
        self.window = 64;
        self.reserved_end = 0;
        for cell in &mut self.cells {
            if cell.capacity() > 0 {
                cell.clear();
                self.spare.push(std::mem::take(cell));
            }
        }
        self.cells.resize(self.window as usize, Vec::new());
        self.guards.clear();
        self.guards.resize(self.window as usize * self.n_words, 0);
    }

    /// Grow the window so `latency` fits, re-indexing queued arrivals, or
    /// [`CoreError::InvalidConfig`] when the allocator refuses the larger
    /// ring (the ring is left as it was).
    /// Outstanding arrival slots all lie in `[cur_slot, cur_slot + old_window)`,
    /// which makes each old cell's true arrival slot recoverable from its
    /// index.
    #[cold]
    pub(crate) fn grow(&mut self, latency: u64, cur_slot: u64) -> Result<(), CoreError> {
        let new_window = (latency + 1).next_power_of_two().max(self.window * 2);
        let ring = usize::try_from(new_window).ok().and_then(|w| {
            let cells = filled(w, Vec::new())?;
            Some((cells, filled(w.checked_mul(self.n_words)?, 0)?))
        });
        let Some((mut cells, mut guards)) = ring else {
            return Err(CoreError::InvalidConfig(format!(
                "a transmission latency of {latency} slots needs an arrival ring of \
                 {new_window} slots, which does not fit in memory"
            )));
        };
        for (i, cell) in self.cells.iter_mut().enumerate() {
            if cell.is_empty() {
                continue;
            }
            let offset = (i as u64 + self.window - cur_slot % self.window) % self.window;
            let arr = cur_slot + offset;
            let ni = (arr % new_window) as usize;
            for &(to, _) in cell.iter() {
                let w = ni * self.n_words + to.0 as usize / 64;
                guards[w] |= 1 << (to.0 % 64);
            }
            cells[ni] = std::mem::take(cell);
        }
        self.cells = cells;
        self.guards = guards;
        self.window = new_window;
        Ok(())
    }

    #[inline]
    pub(crate) fn cell_index(&self, arrival_slot: u64) -> usize {
        (arrival_slot % self.window) as usize
    }

    /// Reserve `(arrival_slot, to)`; `false` on a receive collision.
    #[inline]
    pub(crate) fn try_reserve(&mut self, arrival_slot: u64, to: NodeId) -> bool {
        let idx = self.cell_index(arrival_slot);
        let w = idx * self.n_words + to.0 as usize / 64;
        let mask = 1u64 << (to.0 % 64);
        if self.guards[w] & mask != 0 {
            return false;
        }
        self.guards[w] |= mask;
        self.reserved_end = self.reserved_end.max(arrival_slot + 1);
        true
    }

    /// Queue a reserved arrival in cell `cell_idx`.
    #[inline]
    pub(crate) fn push(&mut self, cell_idx: usize, to: NodeId, packet: PacketId) {
        let cell = &mut self.cells[cell_idx];
        if cell.capacity() == 0 {
            if let Some(buf) = self.spare.pop() {
                *cell = buf;
            }
        }
        cell.push((to, packet));
    }

    /// The entries queued in cell `cell_idx`.
    pub(crate) fn queued(&self, cell_idx: usize) -> &[(NodeId, PacketId)] {
        &self.cells[cell_idx]
    }

    /// Empty cell `cell_idx`: its guard bits are cleared and its entries
    /// (and buffer) handed over.
    pub(crate) fn take(&mut self, cell_idx: usize) -> Vec<(NodeId, PacketId)> {
        let batch = std::mem::take(&mut self.cells[cell_idx]);
        for &(to, _) in &batch {
            let w = cell_idx * self.n_words + to.0 as usize / 64;
            self.guards[w] &= !(1u64 << (to.0 % 64));
        }
        batch
    }

    /// Empty cell `cell_idx` unread: its guard words are zeroed whole and
    /// its buffer parked for reuse.
    pub(crate) fn discard(&mut self, cell_idx: usize) {
        let buf = std::mem::take(&mut self.cells[cell_idx]);
        self.recycle(buf);
        self.guards[cell_idx * self.n_words..(cell_idx + 1) * self.n_words].fill(0);
    }

    /// Give a [`ArrivalRing::take`]n buffer back for reuse.
    pub(crate) fn recycle(&mut self, mut buf: Vec<(NodeId, PacketId)>) {
        if buf.capacity() > 0 {
            buf.clear();
            self.spare.push(buf);
        }
    }

    /// The last slot at which a run whose final ring-admitted send was
    /// before `t0` can still find the ring non-empty: the cell of arrival
    /// slot `a` drains at slot `a + 1`, and nothing was ever reserved at
    /// or past `reserved_end`. From the slot after, every cell is empty
    /// and every guard bit clear.
    pub(crate) fn live_until(&self, t0: u64) -> u64 {
        t0.max(self.reserved_end)
    }

    /// Whether `(arrival_slot, to)` is currently reserved — a read-only
    /// probe used by the mega engine to detect collisions between
    /// precompiled steady-state sends and ramp-phase in-flight arrivals.
    #[inline]
    pub(crate) fn reserved(&self, arrival_slot: u64, to: NodeId) -> bool {
        let idx = self.cell_index(arrival_slot);
        let w = idx * self.n_words + to.0 as usize / 64;
        self.guards[w] & (1u64 << (to.0 % 64)) != 0
    }
}

/// `len` copies of `value`, or `None` when the allocator refuses them.
fn filled<T: Clone>(len: usize, value: T) -> Option<Vec<T>> {
    let mut v = Vec::new();
    v.try_reserve_exact(len).ok()?;
    v.resize(len, value);
    Some(v)
}

/// The state of one run, created by [`Kernel::begin`] and consumed by
/// [`Kernel::result`]. Fields the mega engine's steady-state gears
/// advance directly are crate-visible.
pub struct Run<'a> {
    cfg: &'a SimConfig,
    receivers: Vec<NodeId>,
    pub(crate) arrivals: ArrivalTable,
    pub(crate) is_receiver: Vec<bool>,
    /// Remaining (receiver, tracked packet) firsts before completion.
    pub(crate) remaining: u64,
    /// The run's faults: what went missing, why, and the loss process.
    pub ledger: FaultLedger<'a>,
    /// The transmission trace, when the config records one.
    pub trace: Option<EventTrace>,
    pub(crate) slots_run: u64,
}

impl Run<'_> {
    /// First arrival slot not yet delivered when the slot loop ended.
    pub(crate) fn first_unflushed(&self) -> u64 {
        self.slots_run.saturating_sub(1)
    }

    /// The nodes whose playback the run measures.
    pub fn receivers(&self) -> &[NodeId] {
        &self.receivers
    }

    /// Whether `node` is one of [`Run::receivers`].
    pub fn is_receiver(&self, node: NodeId) -> bool {
        self.is_receiver[node.index()]
    }

    /// Record an arrival, usable from slot `usable`, that the slot loop
    /// never reaches: the table notes it (unless the receiver has
    /// fail-stopped), nothing holds it.
    pub fn record_late(&mut self, to: NodeId, packet: PacketId, usable: u64) {
        if !self
            .ledger
            .drop_late_at_stopped(to, usable.saturating_sub(1))
        {
            self.arrivals.record(to, packet, Slot(usable));
        }
    }
}

/// The sender and receiver of `tx` exist among `n_ids` ids, and the
/// packet takes at least one slot.
#[inline]
pub fn check_ends(tx: &Transmission, n_ids: usize) -> Result<(), CoreError> {
    if tx.from.index() >= n_ids {
        return Err(CoreError::UnknownNode { node: tx.from });
    }
    if tx.to.index() >= n_ids {
        return Err(CoreError::UnknownNode { node: tx.to });
    }
    if tx.latency == 0 {
        return Err(CoreError::InvalidConfig(format!(
            "zero-latency transmission {} → {}",
            tx.from, tx.to
        )));
    }
    Ok(())
}

/// Reusable kernel arena. One instance can run many simulations (e.g. a
/// whole sweep) without re-allocating its internal state.
#[derive(Default)]
pub struct Kernel {
    pub(crate) state: State,
    pub(crate) ring: ArrivalRing,
    pub(crate) stats: TrafficStats,
    send_counts: Vec<u32>,
    touched: Vec<usize>,
    /// The current slot's generated transmissions, between `dispatch`
    /// and `admit`.
    pub(crate) out: Vec<Transmission>,
}

impl Kernel {
    /// Check the scheme's id space, reset the arena and set up the
    /// per-run state.
    pub fn begin<'a>(
        &mut self,
        scheme: &dyn Scheme,
        cfg: &'a SimConfig,
    ) -> Result<Run<'a>, CoreError> {
        let n_ids = scheme.id_space();
        if n_ids == 0 {
            return Err(CoreError::InvalidConfig("empty id space".into()));
        }
        let receivers = scheme.receivers();
        for r in &receivers {
            if r.index() >= n_ids {
                return Err(CoreError::UnknownNode { node: *r });
            }
        }
        let arrivals = ArrivalTable::try_new(n_ids, cfg.track_packets)?;

        self.state.held.reset(n_ids, cfg.track_packets);
        self.state.newest.clear();
        self.state.newest.resize(n_ids, NO_PACKET);
        self.state.slot = Slot(0);
        self.state.availability = scheme.availability();
        self.ring.reset(n_ids);
        self.stats.reset(n_ids);
        self.send_counts.clear();
        self.send_counts.resize(n_ids, 0);
        self.touched.clear();

        let mut is_receiver = vec![false; n_ids];
        for r in &receivers {
            is_receiver[r.index()] = true;
        }
        Ok(Run {
            cfg,
            arrivals,
            is_receiver,
            remaining: receivers.len() as u64 * cfg.track_packets,
            receivers,
            ledger: FaultLedger::new(cfg.faults.as_ref(), n_ids),
            trace: cfg.record_trace.then(EventTrace::default),
            slots_run: 0,
        })
    }

    /// Open slot `t`: deliver the packets whose arrival slot was `t − 1`
    /// (usable from `t`). Returns `true` when the run is configured to
    /// stop on completion and every receiver now has every tracked
    /// packet — the caller stops before this slot's sends.
    pub(crate) fn deliver(&mut self, run: &mut Run<'_>, t: u64) -> bool {
        self.state.slot = Slot(t);
        run.slots_run = t + 1;
        let mut slot_deliveries: u64 = 0;
        if t > 0 {
            let batch = self.ring.take(self.ring.cell_index(t - 1));
            for &(to, packet) in &batch {
                // Fail-stopped receivers drop arrivals on the floor.
                if !run.ledger.drop_at_stopped(to, packet, t - 1) && self.store(run, to, packet, t)
                {
                    slot_deliveries += 1;
                }
            }
            self.ring.recycle(batch);
        }
        record_slot_deliveries(&run.cfg.telemetry, slot_deliveries);
        run.cfg.stop_when_complete && run.remaining == 0
    }

    /// Open slot `t` for a driver that delivers through
    /// [`Kernel::store`] itself: the ring keeps only the receive guards
    /// of what was admitted, and those of arrival slot `t − 1` are freed.
    /// Returns `true` when the run stops here, as `deliver` does.
    pub fn open(&mut self, run: &mut Run<'_>, t: u64) -> bool {
        self.state.slot = Slot(t);
        run.slots_run = t + 1;
        if t > 0 {
            self.ring.discard(self.ring.cell_index(t - 1));
        }
        run.cfg.stop_when_complete && run.remaining == 0
    }

    /// Hand `packet` to `to`, usable from slot `usable`: it joins `to`'s
    /// holdings and the arrival table. `false` for a duplicate (counted,
    /// otherwise ignored).
    #[inline]
    pub fn store(&mut self, run: &mut Run<'_>, to: NodeId, packet: PacketId, usable: u64) -> bool {
        if !self.state.held.insert(to.index(), packet.seq()) {
            self.stats.record_duplicate();
            return false;
        }
        let nw = &mut self.state.newest[to.index()];
        if *nw == NO_PACKET || packet.seq() > *nw {
            *nw = packet.seq();
        }
        if run.arrivals.record(to, packet, Slot(usable)) && run.is_receiver[to.index()] {
            run.remaining -= 1;
        }
        true
    }

    /// Slots `0..end`, each `deliver` → `dispatch` → `admit`: a whole
    /// run when `end` is the horizon, mega's full mode up to its
    /// hand-off otherwise. `Ok(true)` when the run stopped on completion
    /// before `end`.
    pub(crate) fn run_slots(
        &mut self,
        scheme: &mut dyn Scheme,
        run: &mut Run<'_>,
        end: u64,
    ) -> Result<bool, CoreError> {
        for t in 0..end {
            if self.deliver(run, t) {
                return Ok(true);
            }
            self.dispatch(scheme, t);
            self.admit(scheme, run, t)?;
        }
        Ok(false)
    }

    /// Ask the scheme for slot `t`'s transmissions (read back with
    /// [`Kernel::generated`]).
    pub fn dispatch(&mut self, scheme: &mut dyn Scheme, t: u64) {
        self.out.clear();
        scheme.transmissions(Slot(t), &self.state, &mut self.out);
    }

    /// The transmissions the last [`Kernel::dispatch`] generated, in
    /// generation order.
    pub fn generated(&self) -> &[Transmission] {
        &self.out
    }

    /// Whether `tx`'s sender has its packet at slot `t`: the source once
    /// the packet is produced ([`CoreError::PacketNotProduced`] before),
    /// any other node once it holds it.
    #[inline]
    pub fn sender_has(&self, tx: &Transmission, t: u64) -> Result<bool, CoreError> {
        if !tx.from.is_source() {
            return Ok(self.state.held.contains(tx.from.index(), tx.packet.seq()));
        }
        if self.state.availability.produced(tx.packet, Slot(t)) {
            Ok(true)
        } else {
            Err(CoreError::PacketNotProduced {
                slot: Slot(t),
                packet: tx.packet,
            })
        }
    }

    /// Validate slot `t`'s transmissions in generation order and queue
    /// the ones that go through.
    #[inline]
    pub(crate) fn admit(
        &mut self,
        scheme: &dyn Scheme,
        run: &mut Run<'_>,
        t: u64,
    ) -> Result<(), CoreError> {
        self.admit_with(scheme, run, t, |_| {})
    }

    /// The admission rule. Validates slot `t`'s transmissions in
    /// generation order — ids and latency, crash suppression, holdings
    /// (or loss propagation), send capacity, the loss draw, receive
    /// capacity — and queues each one that goes through in the ring, its
    /// traffic counted and traced; `admitted` then sees it, in the same
    /// order.
    #[inline]
    pub fn admit_with(
        &mut self,
        scheme: &dyn Scheme,
        run: &mut Run<'_>,
        t: u64,
        mut admitted: impl FnMut(&Transmission),
    ) -> Result<(), CoreError> {
        let n_ids = run.arrivals.n_ids();
        for idx in self.touched.drain(..) {
            self.send_counts[idx] = 0;
        }
        for i in 0..self.out.len() {
            let tx = self.out[i];
            check_ends(&tx, n_ids)?;

            // Crashed senders transmit nothing.
            if run.ledger.crash_suppress(&tx, t) {
                continue;
            }

            // Sender must hold (or, for the source, have produced) it —
            // unless a fault is propagating downstream.
            if !self.sender_has(&tx, t)? {
                if run.ledger.propagate(&tx) {
                    continue;
                }
                return Err(CoreError::PacketNotHeld {
                    node: tx.from,
                    slot: Slot(t),
                    packet: tx.packet,
                });
            }

            // Send capacity.
            let c = &mut self.send_counts[tx.from.index()];
            if *c == 0 {
                self.touched.push(tx.from.index());
            }
            *c += 1;
            let cap = scheme.send_capacity(tx.from);
            if *c as usize > cap {
                return Err(CoreError::SendCapacityExceeded {
                    node: tx.from,
                    slot: Slot(t),
                    capacity: cap,
                });
            }

            // Link loss: uplink capacity is spent, nothing arrives.
            if run.ledger.lose_in_flight(&tx) {
                continue;
            }

            // Receive capacity at the arrival slot.
            if tx.latency as u64 + 1 > self.ring.window {
                self.ring.grow(tx.latency as u64, t)?;
            }
            let arrival_slot = t + tx.latency as u64 - 1;
            let cell_idx = self.ring.cell_index(arrival_slot);
            if !self.ring.try_reserve(arrival_slot, tx.to) {
                let other = self
                    .ring
                    .queued(cell_idx)
                    .iter()
                    .find(|(to, _)| *to == tx.to)
                    .map(|&(_, p)| p)
                    .unwrap_or(tx.packet);
                return Err(CoreError::ReceiveCollision {
                    node: tx.to,
                    slot: Slot(arrival_slot),
                    packets: (other, tx.packet),
                });
            }
            self.ring.push(cell_idx, tx.to, tx.packet);
            self.stats.record(&tx);
            if let Some(tr) = run.trace.as_mut() {
                tr.push(t, &tx);
            }
            admitted(&tx);
        }
        Ok(())
    }

    /// After the last slot: record the deliveries queued for
    /// `arrival_slot`, usable one slot later.
    pub(crate) fn flush_cell(&mut self, run: &mut Run<'_>, arrival_slot: u64) {
        let batch = self.ring.take(self.ring.cell_index(arrival_slot));
        for &(to, packet) in &batch {
            run.record_late(to, packet, arrival_slot + 1);
        }
        self.ring.recycle(batch);
    }

    /// Flush the deliveries completing after the last slot, in ascending
    /// arrival-slot order (mirrors the reference's `BTreeMap` drain), so
    /// tight horizons still complete.
    pub(crate) fn flush_ring(&mut self, run: &mut Run<'_>) {
        let first = run.first_unflushed();
        for arrival_slot in first..first + self.ring.window {
            self.flush_cell(run, arrival_slot);
        }
    }

    /// The slot engines' end of a run: [`Kernel::result`] under the
    /// config's fault regime, recorded as the `engine.*` series.
    pub(crate) fn finish(&self, scheme: &dyn Scheme, run: Run<'_>) -> Result<RunResult, CoreError> {
        let cfg = run.cfg;
        let faulty = cfg.faults.is_some();
        let r = self.result(scheme, run, faulty, faulty.then(ResilienceMetrics::default))?;
        let tel = &cfg.telemetry;
        let hiccups = r.loss.as_ref().map_or(0, |l| l.missing.len() as u64);
        if hiccups > 0 {
            tel.counter(tm::ENGINE_HICCUPS, hiccups);
        }
        for q in &r.qos.nodes {
            tel.observe(tm::ENGINE_PLAYBACK_DELAY, q.playback_delay);
            tel.observe(tm::ENGINE_BUFFER_OCCUPANCY, q.max_buffer as u64);
        }
        tel.counter(tm::ENGINE_SLOTS, r.slots_run);
        tel.counter(tm::ENGINE_TRANSMISSIONS, r.total_transmissions);
        Ok(r)
    }

    /// Analyse playback per receiver and assemble the [`RunResult`]. A
    /// `lossy` run reports each receiver's missing packets in its loss
    /// report; any other run fails hard on the first missing packet.
    /// `resilience`, when given, takes its stall counters from the
    /// missing total.
    pub fn result(
        &self,
        scheme: &dyn Scheme,
        run: Run<'_>,
        lossy: bool,
        mut resilience: Option<ResilienceMetrics>,
    ) -> Result<RunResult, CoreError> {
        let Run {
            receivers,
            arrivals,
            ledger,
            trace,
            slots_run,
            ..
        } = run;
        let mut loss_report = ledger.into_report();
        let mut nodes = Vec::with_capacity(receivers.len());
        let mut scratch = PlaybackScratch::default();
        for r in &receivers {
            let (delay, buffer) = if lossy {
                let pb = arrivals.analyze_lossy_with(*r, &mut scratch);
                if pb.missing > 0 {
                    loss_report.missing.push((*r, pb.missing));
                }
                (pb.playback_delay, pb.max_buffer)
            } else {
                let pb = arrivals.analyze_with(*r, &mut scratch)?;
                (pb.playback_delay, pb.max_buffer)
            };
            nodes.push(NodeQos {
                node: *r,
                playback_delay: delay,
                max_buffer: buffer,
                out_neighbors: self.stats.out_degree(*r),
                in_neighbors: self.stats.in_degree(*r),
                neighbors: self.stats.degree(*r),
            });
        }
        if let Some(m) = resilience.as_mut() {
            let total = loss_report.total_missing() as u64;
            m.stall_events = total;
            m.stall_slots = total;
        }
        Ok(RunResult {
            scheme: scheme.name(),
            slots_run,
            arrivals,
            qos: QosReport::new(scheme.name(), nodes),
            total_transmissions: self.stats.total_transmissions(),
            duplicate_deliveries: self.stats.duplicate_deliveries(),
            loss: lossy.then_some(loss_report),
            trace,
            upload_counts: self.stats.upload_counts().to_vec(),
            resilience,
        })
    }

    /// The run's traffic counters, for a driver that admits some
    /// transmissions outside [`Kernel::admit_with`].
    pub fn stats_mut(&mut self) -> &mut TrafficStats {
        &mut self.stats
    }

    /// The state schemes see.
    pub fn state(&self) -> &State {
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_set_grows_and_dedups() {
        let mut s = PacketSet::default();
        assert!(s.insert(0));
        assert!(!s.insert(0));
        assert!(s.insert(1000));
        assert!(s.contains(1000));
        assert!(!s.contains(999));
    }

    #[test]
    fn columnar_held_insert_dedup_and_grow() {
        let mut h = ColumnarHeld::default();
        h.reset(3, 63);
        assert_eq!(h.stride, 1);
        assert!(h.insert(1, 5));
        assert!(!h.insert(1, 5), "duplicate insert must report stale");
        assert!(h.contains(1, 5));
        assert!(!h.contains(2, 5));
        // An out-of-range seq triggers a columnar re-layout.
        assert!(h.insert(2, 1000));
        assert!(h.contains(2, 1000));
        assert!(h.contains(1, 5), "grow must preserve existing bits");
        assert!(h.stride >= 16);
    }

    #[test]
    fn grow_migrates_spill_bits_into_columns() {
        let mut h = ColumnarHeld::default();
        h.reset(2, 63);
        h.spill[1].insert(70);
        h.grow(2);
        assert!(h.contains(1, 70), "spilled bit must move into the columns");
        assert!(h.spill[1].words.iter().all(|&w| w == 0));
        assert!(!h.contains(0, 70));
    }

    #[test]
    fn ring_guard_detects_collision() {
        let mut r = ArrivalRing::default();
        r.reset(10);
        assert!(r.try_reserve(5, NodeId(3)));
        assert!(!r.try_reserve(5, NodeId(3)));
        assert!(r.try_reserve(6, NodeId(3)));
        assert!(r.try_reserve(5, NodeId(4)));
        // Draining the cell frees its receivers for that slot again.
        let idx = r.cell_index(5);
        r.push(idx, NodeId(3), PacketId(0));
        assert_eq!(r.take(idx), [(NodeId(3), PacketId(0))]);
        assert!(r.try_reserve(5, NodeId(3)));
        assert!(!r.try_reserve(5, NodeId(4)));
        // Discarding frees every receiver of the cell, queued or not.
        r.discard(idx);
        assert!(r.try_reserve(5, NodeId(3)) && r.try_reserve(5, NodeId(4)));
        assert!(!r.try_reserve(6, NodeId(3)), "other cells keep theirs");
    }

    #[test]
    fn unit_latency_run_keeps_one_ring_buffer_in_circulation() {
        /// A binary tree over ids `1..=n`: every node relays the packet
        /// that just arrived to both children, so each slot queues about
        /// `n` arrivals into a fresh ring cell.
        struct Fanout {
            n: u32,
        }
        impl Scheme for Fanout {
            fn name(&self) -> String {
                "fanout".into()
            }
            fn num_receivers(&self) -> usize {
                self.n as usize
            }
            fn send_capacity(&self, _: NodeId) -> usize {
                2
            }
            fn transmissions(
                &mut self,
                slot: Slot,
                view: &dyn StateView,
                out: &mut Vec<Transmission>,
            ) {
                out.push(Transmission::local(
                    NodeId(0),
                    NodeId(1),
                    PacketId(slot.t()),
                ));
                for i in 1..=self.n / 2 {
                    if let Some(p) = view.newest(NodeId(i)) {
                        for child in (2 * i..=2 * i + 1).filter(|&c| c <= self.n) {
                            out.push(Transmission::local(NodeId(i), NodeId(child), p));
                        }
                    }
                }
            }
        }

        let mut scheme = Fanout { n: 2000 };
        let cfg = SimConfig::until_complete(8, 100);
        let mut k = Kernel::default();
        let mut run = k.begin(&scheme, &cfg).unwrap();
        assert!(k.run_slots(&mut scheme, &mut run, cfg.max_slots).unwrap());
        assert!(run.slots_run > 16, "{} slots", run.slots_run);
        assert_eq!(run.remaining, 0);
        // Every slot filled and drained its own cell; the buffer went
        // round through the spare list instead of staying behind in each.
        let buffers = k.ring.cells.iter().chain(&k.ring.spare);
        assert_eq!(buffers.filter(|b| b.capacity() > 0).count(), 1);
    }

    #[test]
    fn ring_grow_preserves_entries() {
        let mut r = ArrivalRing::default();
        r.reset(10);
        // Queue arrivals at slots 7 and 70 relative to current slot 5.
        assert!(r.try_reserve(7, NodeId(1)));
        let i7 = r.cell_index(7);
        r.push(i7, NodeId(1), PacketId(9));
        r.grow(100, 5).unwrap();
        assert!(r.window > 100);
        let i7b = r.cell_index(7);
        assert_eq!(r.queued(i7b), [(NodeId(1), PacketId(9))]);
        // Guard moved with the entry.
        assert!(!r.try_reserve(7, NodeId(1)));
        assert!(r.try_reserve(70, NodeId(1)));
        // A ring the allocator refuses is an error, and the ring stays.
        let window = r.window;
        let err = r.grow(1 << 62, 5).unwrap_err();
        assert!(err.to_string().contains("does not fit in memory"), "{err}");
        assert_eq!(r.window, window);
        assert_eq!(r.queued(i7b), [(NodeId(1), PacketId(9))]);
    }
}
