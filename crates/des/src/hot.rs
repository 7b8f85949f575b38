//! Hot-path containers for the event loop's relaxed regime: the parked
//! sends. (Everything the strict regime touches — holdings, the receive
//! guard, the first-cause table — is the slot kernel's, in
//! [`clustream_sim::kernel`].)
//!
//! [`ParkedSends`] replaces `std` containers — an ordered map, then a
//! hashed index — that dominated the per-event profile; it does not
//! hash. It is not iterated while events run, so determinism is
//! untouched — every access is a point lookup keyed by values the
//! simulation already ordered; the one walk that produces output (the
//! end-of-run leftover attribution, [`ParkedSends::settle`]) reads the
//! parked sends seq by seq, each row in ascending sender order.

use clustream_core::{NodeId, PacketId, Transmission};
use clustream_sim::FaultCause;

/// Relaxed-mode calendar entries parked until their packet arrives at the
/// sender: a seq-major `(sender, packet) → head` index over one
/// free-listed arena of blocks, each holding up to `BLOCK` (3) entries of
/// one chain side by side.
///
/// Replaces a `BTreeMap<(u32, u64), Vec<Transmission>>` (an ordered-map
/// descent and a `Vec` allocation per deferred send) and then a hashed
/// index over an arena of singly linked entries. A chain keeps push
/// order, so a release dispatches exactly what the `Vec` did. A release
/// from a dense row is two array reads and one block per `BLOCK`
/// entries — a forwarder parks one entry per child, so a chain is
/// typically one block — with no hashing and no hop per entry.
///
/// The key fixes every entry's `from` and `packet`, so a block stores
/// only what it does not say — each entry's `to` and `latency`, 8 bytes
/// of the 24 a [`Transmission`] takes — and a release rebuilds the rest
/// from the key: a 32-byte block for 3 entries, where whole
/// transmissions took 80.
///
/// The index is seq-major, one row per seq: the entries parked and
/// released around the same time are for the same few packets, so their
/// heads share a few rows. While the run still works on a row it is
/// dense, one 4-byte cell per sender up to the largest parked under it;
/// a park walks the chain to its tail, which for a `d = 3` forwarder is
/// the head. Once the run has moved past a row — it lies below the
/// lowest seq parked or released in the previous slot
/// ([`ParkedSends::slide`]) — what it still holds are mostly chains whose
/// packet never came, a few hundred in a row as wide as the overlay, and
/// the row goes sparse if that is smaller: its live chains as sorted
/// `(sender, head)` pairs, 8 bytes a live chain beside its blocks, at
/// exact capacity. A release from a sparse row tombstones its pair (head
/// `NIL`) and a late park finds its sender by binary search, inserting
/// one the row lacks in order, so a NACK repair that lands ~100 slots
/// after its seq is served exactly and nothing sorted or shifted sits
/// on the hot path.
#[derive(Debug)]
pub struct ParkedSends {
    /// One row of chain heads per seq.
    index: Vec<Row>,
    /// The block arena.
    slots: Vec<Block>,
    free: Vec<u32>,
    /// The rows below this one the run has moved past: each was offered
    /// to [`Row::compact`] once.
    frontier: usize,
    /// The lowest seq parked or released since the last slide;
    /// `usize::MAX` when none was.
    touched: usize,
}

impl Default for ParkedSends {
    fn default() -> Self {
        ParkedSends {
            index: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            frontier: 0,
            touched: usize::MAX,
        }
    }
}

/// One seq's chain heads.
#[derive(Debug)]
enum Row {
    /// `cells[sender]`: the chain's head block, or `NIL` when nothing is
    /// parked under that sender.
    Dense(Vec<u32>),
    /// `(sender, head)` by ascending sender; a released chain leaves its
    /// pair behind with head `NIL`.
    Sparse(Vec<(u32, u32)>),
}

impl Default for Row {
    fn default() -> Self {
        Row::Dense(Vec::new())
    }
}

impl Row {
    /// `sender`'s head cell, made empty if the row has none.
    fn cell_or_insert(&mut self, sender: u32) -> &mut u32 {
        match self {
            Row::Dense(cells) => {
                let at = sender as usize;
                if at >= cells.len() {
                    cells.resize(at + 1, NIL);
                }
                &mut cells[at]
            }
            Row::Sparse(pairs) => {
                let at = pairs
                    .binary_search_by_key(&sender, |&(s, _)| s)
                    .unwrap_or_else(|at| {
                        pairs.insert(at, (sender, NIL));
                        at
                    });
                &mut pairs[at].1
            }
        }
    }

    /// `sender`'s head cell, if the row has one.
    fn cell(&mut self, sender: u32) -> Option<&mut u32> {
        match self {
            Row::Dense(cells) => cells.get_mut(sender as usize),
            Row::Sparse(pairs) => {
                let at = pairs.binary_search_by_key(&sender, |&(s, _)| s).ok()?;
                Some(&mut pairs[at].1)
            }
        }
    }

    /// The `(sender, head)` of every chain in the row, by ascending
    /// sender.
    fn live(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let (cells, pairs): (&[u32], &[(u32, u32)]) = match self {
            Row::Dense(cells) => (cells, &[]),
            Row::Sparse(pairs) => (&[], pairs),
        };
        (0..)
            .zip(cells.iter().copied())
            .chain(pairs.iter().copied())
            .filter(|&(_, head)| head != NIL)
    }

    /// Store a dense row as pairs if they take fewer bytes than its
    /// cells.
    fn compact(&mut self) {
        let Row::Dense(cells) = self else {
            return;
        };
        let live = cells.iter().filter(|&&head| head != NIL).count();
        if live * std::mem::size_of::<(u32, u32)>() < cells.len() * std::mem::size_of::<u32>() {
            let mut pairs = Vec::with_capacity(live);
            pairs.extend(self.live());
            *self = Row::Sparse(pairs);
        }
    }
}

/// Entries per [`ParkedSends`] block: one per child of a `d = 3`
/// forwarder, the paper's degree.
const BLOCK: usize = 3;

/// Up to [`BLOCK`] consecutive entries of one chain, as what their key
/// does not fix: 32 bytes.
#[derive(Debug, Clone, Copy)]
struct Block {
    /// Each entry's receiver.
    to: [u32; BLOCK],
    /// Each entry's latency in slots.
    latency: [u32; BLOCK],
    /// Entries in use, `1..=BLOCK`.
    len: u32,
    /// The chain's next block.
    next: u32,
}

const _: () = assert!(std::mem::size_of::<Block>() == 32);

/// End-of-chain marker (and an empty index cell).
const NIL: u32 = u32::MAX;

impl ParkedSends {
    /// Park `tx` behind any earlier entries for the same
    /// `(sender, packet)`.
    pub fn park(&mut self, tx: Transmission) {
        let seq = tx.packet.seq() as usize;
        self.touched = self.touched.min(seq);
        if seq >= self.index.len() {
            self.index.resize_with(seq + 1, Row::default);
        }
        let head = self.index[seq].cell_or_insert(tx.from.0);
        let block = Block {
            to: [tx.to.0; BLOCK],
            latency: [tx.latency; BLOCK],
            len: 1,
            next: NIL,
        };
        if *head == NIL {
            *head = alloc(&mut self.slots, &mut self.free, block);
            return;
        }
        let mut tail = *head as usize;
        while self.slots[tail].next != NIL {
            tail = self.slots[tail].next as usize;
        }
        let last = &mut self.slots[tail];
        let at = last.len as usize;
        if at < BLOCK {
            last.to[at] = tx.to.0;
            last.latency[at] = tx.latency;
            last.len += 1;
            return;
        }
        self.slots[tail].next = alloc(&mut self.slots, &mut self.free, block);
    }

    /// Move the chain parked for `(sender, seq)` onto `out`, in push
    /// order, recycling its blocks.
    pub fn release_into(&mut self, sender: u32, seq: u64, out: &mut Vec<Transmission>) {
        let Ok(row) = usize::try_from(seq) else {
            return;
        };
        let Some(cell) = self.index.get_mut(row).and_then(|r| r.cell(sender)) else {
            return;
        };
        let mut at = std::mem::replace(cell, NIL);
        if at != NIL {
            self.touched = self.touched.min(row);
        }
        while at != NIL {
            let block = &self.slots[at as usize];
            out.extend(entries(block, sender, seq));
            self.free.push(at);
            at = block.next;
        }
    }

    /// Mark a slot boundary. The rows below the lowest seq parked or
    /// released in the slot that just ended are rows the run has moved
    /// past; each newly passed one goes sparse if that is smaller. A slot
    /// that touched no row, or none above the frontier, moves nothing.
    pub fn slide(&mut self) {
        let bound = std::mem::replace(&mut self.touched, usize::MAX);
        if let Some(rows) = self.index.get_mut(self.frontier..bound) {
            rows.iter_mut().for_each(Row::compact);
            self.frontier = bound;
        }
    }

    /// Settle the chains still parked at the end of the run: every entry
    /// is a downstream suppression, blamed through `blame` on the cause
    /// `cause` reads for its sender's copy. Attribution chases chains to
    /// a fixpoint — one leftover may be what starved the next — and blames
    /// what nothing explains on `fallback`.
    ///
    /// The walk runs seq by seq, each row's chains in ascending sender
    /// order, and frees every row once it is done, so it holds no more
    /// than one row's chains beside the store. A cause read and a
    /// first-cause note stay within one seq, so this blames exactly what
    /// a fixpoint over all keys in ascending `(sender, seq)` order does.
    pub fn settle<L>(
        mut self,
        ledger: &mut L,
        cause: impl Fn(&L, NodeId, PacketId) -> Option<FaultCause>,
        mut blame: impl FnMut(&mut L, &Transmission, FaultCause),
        fallback: FaultCause,
    ) {
        let mut live = Vec::new();
        for (seq, row) in (0..).zip(&mut self.index) {
            live.clear();
            live.extend(std::mem::take(row).live());
            loop {
                let before = live.len();
                live.retain(|&(sender, head)| {
                    let Some(cause) = cause(ledger, NodeId(sender), PacketId(seq)) else {
                        return true;
                    };
                    for tx in chain(&self.slots, head, sender, seq) {
                        blame(ledger, &tx, cause);
                    }
                    false
                });
                if live.len() == before || live.is_empty() {
                    break;
                }
            }
            for &(sender, head) in &live {
                for tx in chain(&self.slots, head, sender, seq) {
                    blame(ledger, &tx, fallback);
                }
            }
        }
    }
}

/// Put `block` in a free slot of the arena, or a new one, and return its
/// index.
fn alloc(slots: &mut Vec<Block>, free: &mut Vec<u32>, block: Block) -> u32 {
    match free.pop() {
        Some(b) => {
            slots[b as usize] = block;
            b
        }
        None => {
            slots.push(block);
            (slots.len() - 1) as u32
        }
    }
}

/// The entries of the chain whose head block is `at`, in push order, as
/// the transmissions they stand for under the key `(sender, seq)`.
fn chain(
    slots: &[Block],
    mut at: u32,
    sender: u32,
    seq: u64,
) -> impl Iterator<Item = Transmission> + '_ {
    std::iter::from_fn(move || {
        let block = slots.get(at as usize)?;
        at = block.next;
        Some(entries(block, sender, seq))
    })
    .flatten()
}

/// `block`'s entries as the transmissions they stand for under the key
/// `(sender, seq)`.
fn entries(block: &Block, sender: u32, seq: u64) -> impl Iterator<Item = Transmission> + '_ {
    let len = block.len as usize;
    block.to[..len]
        .iter()
        .zip(&block.latency[..len])
        .map(move |(&to, &latency)| Transmission {
            from: NodeId(sender),
            to: NodeId(to),
            packet: PacketId(seq),
            latency,
        })
}

#[cfg(test)]
impl ParkedSends {
    /// The `(sender, seq)` keys with a chain still parked, in ascending
    /// order: the order of the sender-major fixpoint [`ParkedSends::settle`]
    /// is held to.
    fn keys(&self) -> Vec<(u32, u64)> {
        let mut keys: Vec<(u32, u64)> = (0..)
            .zip(&self.index)
            .flat_map(|(seq, row)| row.live().map(move |(sender, _)| (sender, seq)))
            .collect();
        keys.sort_unstable();
        keys
    }

    /// The entries parked under `(sender, seq)`, in push order.
    fn chain(&self, (sender, seq): (u32, u64)) -> impl Iterator<Item = Transmission> + '_ {
        let head = usize::try_from(seq)
            .ok()
            .and_then(|at| self.index.get(at))
            .and_then(|row| row.live().find(|&(s, _)| s == sender))
            .map_or(NIL, |(_, head)| head);
        chain(&self.slots, head, sender, seq)
    }

    /// Whether `seq`'s row is stored as pairs.
    fn is_sparse(&self, seq: usize) -> bool {
        matches!(self.index.get(seq), Some(Row::Sparse(_)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustream_core::{NodeId, PacketId};
    use clustream_sim::LossReport;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn tx(from: u32, to: u32, seq: u64, latency: u32) -> Transmission {
        Transmission {
            from: NodeId(from),
            to: NodeId(to),
            packet: PacketId(seq),
            latency,
        }
    }

    fn released(parked: &mut ParkedSends, sender: u32, seq: u64) -> Vec<Transmission> {
        let mut out = Vec::new();
        parked.release_into(sender, seq, &mut out);
        out
    }

    proptest! {
        /// Parks, releases and slot boundaries against the ordered map of
        /// `Vec`s the arena replaced: each release yields the same entries
        /// in the same order, every sparse row stays sorted, and the
        /// surviving chains walk to what `into_values()` does. Senders,
        /// receivers and latencies range widely, since a block stores some
        /// of them and the key implies the rest; a park op parks up to 4
        /// entries under one of four senders, so chains run past a block
        /// and past two. A slide op ends a slot, so rows go sparse under
        /// live chains and then take late parks and releases, under new
        /// senders and under released (tombstoned) ones.
        #[test]
        fn parked_sends_match_the_ordered_map_model(
            senders in proptest::collection::vec(0u32..4000, 4),
            ops in proptest::collection::vec(
                ((0u8..5, 0usize..4, 0u64..6), (0u32..4000, 1u32..1000, 1usize..5)),
                1..200,
            ),
        ) {
            let mut parked = ParkedSends::default();
            let mut model: BTreeMap<(u32, u64), Vec<Transmission>> = BTreeMap::new();
            let mut high_water = 0;
            for ((op, who, seq), (to, latency, count)) in ops {
                let from = senders[who];
                match op {
                    0 => {
                        let want = model.remove(&(from, seq)).unwrap_or_default();
                        prop_assert_eq!(released(&mut parked, from, seq), want);
                    }
                    1 => parked.slide(),
                    _ => {
                        for k in 0..count as u32 {
                            let tx = tx(from, to + k, seq, latency + k);
                            parked.park(tx);
                            model.entry((from, seq)).or_default().push(tx);
                        }
                    }
                }
                for row in &parked.index {
                    if let Row::Sparse(pairs) = row {
                        prop_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "{:?}", pairs);
                    }
                }
                let live: usize = model.values().map(Vec::len).sum();
                high_water = high_water.max(live);
                prop_assert!(parked.slots.len() <= high_water, "freed slots are reused");
            }
            let walked: Vec<Transmission> = parked
                .keys()
                .into_iter()
                .flat_map(|key| parked.chain(key))
                .collect();
            let want: Vec<Transmission> = model.into_values().flatten().collect();
            prop_assert_eq!(walked, want);
        }

        /// The row-by-row leftover walk against the one it replaced: the
        /// sender-major fixpoint over every parked key. Senders and
        /// receivers share one small pool, so a chain's receivers are
        /// other senders of its seq and a fixpoint takes several passes,
        /// and two senders often blame one receiver first-wins; seed
        /// causes, some rows gone sparse and the fallback are drawn too.
        /// Both walks must leave the same counters and the same first
        /// causes.
        #[test]
        fn row_wise_settle_matches_the_sender_major_fixpoint(
            parks in proptest::collection::vec((0u32..8, 0u32..8, 0u64..4, 1u32..4), 0..60),
            slide_after in proptest::collection::vec(0usize..60, 0..4),
            seeds in proptest::collection::vec((0u32..8, 0u64..4, any::<bool>()), 0..12),
            fallback_loss in any::<bool>(),
        ) {
            let cause_of = |loss: bool| if loss { FaultCause::Loss } else { FaultCause::Crash };
            let mut parked = ParkedSends::default();
            for (i, &(from, to, seq, latency)) in parks.iter().enumerate() {
                parked.park(tx(from, to, seq, latency));
                if slide_after.contains(&i) {
                    parked.slide();
                }
            }
            let mut seeded = Ledger::default();
            for &(node, seq, loss) in &seeds {
                seeded.causes.entry((node, seq)).or_insert(cause_of(loss));
            }
            let fallback = cause_of(fallback_loss);

            let mut model = seeded.clone();
            let mut leftovers = parked.keys();
            loop {
                let before = leftovers.len();
                leftovers.retain(|&(sender, seq)| {
                    let Some(cause) = model.cause(NodeId(sender), PacketId(seq)) else {
                        return true;
                    };
                    for tx in parked.chain((sender, seq)) {
                        model.propagate_from(&tx, cause);
                    }
                    false
                });
                if leftovers.len() == before || leftovers.is_empty() {
                    break;
                }
            }
            for key in leftovers {
                for tx in parked.chain(key) {
                    model.propagate_from(&tx, fallback);
                }
            }

            let mut settled = seeded;
            parked.settle(&mut settled, Ledger::cause, Ledger::propagate_from, fallback);
            prop_assert_eq!(settled, model);
        }
    }

    /// The part of `FaultLedger` the leftover walk touches: its loss
    /// counters and a first-wins cause per `(node, seq)`.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct Ledger {
        report: LossReport,
        causes: BTreeMap<(u32, u64), FaultCause>,
    }

    impl Ledger {
        fn cause(&self, node: NodeId, packet: PacketId) -> Option<FaultCause> {
            self.causes.get(&(node.0, packet.seq())).copied()
        }

        fn propagate_from(&mut self, tx: &Transmission, cause: FaultCause) {
            self.report.propagation_suppressed += 1;
            match cause {
                FaultCause::Loss => self.report.propagation_from_loss += 1,
                FaultCause::Crash => self.report.propagation_from_crash += 1,
            }
            self.causes
                .entry((tx.to.0, tx.packet.seq()))
                .or_insert(cause);
        }
    }

    #[test]
    fn a_row_the_run_moved_past_goes_sparse_and_serves_late_parks_and_releases() {
        let mut parked = ParkedSends::default();
        // Slot 0 parks under seq 0 for senders 10 and 900 (a row 901
        // cells wide) and under seq 1 for sender 5.
        parked.park(tx(10, 11, 0, 1));
        parked.park(tx(900, 901, 0, 1));
        parked.park(tx(5, 6, 1, 1));
        parked.slide();
        assert!(!parked.is_sparse(0), "slot 0 still worked on seq 0");
        // Slot 1 touches only seq 1, so the run has moved past seq 0.
        parked.park(tx(5, 7, 1, 2));
        parked.slide();
        assert!(parked.is_sparse(0) && !parked.is_sparse(1));
        let Row::Sparse(pairs) = &parked.index[0] else {
            unreachable!()
        };
        assert_eq!(pairs.len(), 2);
        assert_eq!(
            pairs.capacity(),
            2,
            "a sparse row holds its live chains only"
        );
        // A late release tombstones its pair; a re-park under that sender
        // takes the pair back; a new sender is inserted in order.
        assert_eq!(released(&mut parked, 900, 0), [tx(900, 901, 0, 1)]);
        assert!(released(&mut parked, 900, 0).is_empty());
        parked.park(tx(900, 3, 0, 4));
        parked.park(tx(400, 401, 0, 2));
        parked.park(tx(400, 402, 0, 3));
        parked.slide();
        assert!(parked.is_sparse(0), "a row the run moved past stays sparse");
        assert_eq!(parked.keys(), [(5, 1), (10, 0), (400, 0), (900, 0)]);
        assert_eq!(
            released(&mut parked, 400, 0),
            [tx(400, 401, 0, 2), tx(400, 402, 0, 3)]
        );
        assert_eq!(released(&mut parked, 900, 0), [tx(900, 3, 0, 4)]);
        assert_eq!(released(&mut parked, 10, 0), [tx(10, 11, 0, 1)]);
        assert_eq!(
            released(&mut parked, 5, 1),
            [tx(5, 6, 1, 1), tx(5, 7, 1, 2)]
        );
        assert!(parked.keys().is_empty());
    }

    #[test]
    fn a_row_whose_cells_are_smaller_than_its_pairs_stays_dense() {
        let mut parked = ParkedSends::default();
        for sender in 0..4 {
            parked.park(tx(sender, 9, 0, 1));
        }
        parked.slide();
        parked.park(tx(0, 9, 1, 1));
        parked.slide();
        assert!(!parked.is_sparse(0), "4 live chains in 4 cells");
        assert_eq!(parked.keys(), [(0, 0), (0, 1), (1, 0), (2, 0), (3, 0)]);
    }
}
