//! Hot-path containers for the event loop: the strict-mode arrival
//! guard ring, the relaxed-mode parked-send table and the first-cause
//! table. (Per-node packet holdings are [`clustream_sim::PacketSet`], the
//! slot kernel's bitset.)
//!
//! Each replaces a `std` container — a hash map or an ordered map — that
//! dominated the per-event profile; none of them hashes. None is
//! iterated while events run, so determinism is untouched — every access
//! is a point lookup keyed by values the simulation already ordered; the
//! one walk that produces output (the end-of-run leftover attribution)
//! reads the parked sends in ascending key order.

use clustream_core::Transmission;
use clustream_sim::faults::FaultCause;

/// The strict-mode receive-capacity guard: at most one pending arrival
/// per `(arrival slot, node)`.
///
/// Replaces a `HashMap<(u64, u32), PacketId>`, which spent most of the
/// DES hot loop churning tombstones — every slot inserts and removes one
/// entry per transmission, so the map rehashed continuously. The ring
/// exploits two monotonicity facts instead:
///
/// * arrival slots never repeat — a send from playback slot `t` targets
///   an arrival slot `≥ t`, and `t` has already passed every slot whose
///   deliveries fired — so an entry never needs removal: a stale cell
///   can never match a live query's slot;
/// * pending arrivals span at most the largest in-flight latency, so a
///   ring of `width >` that span never aliases two live entries.
///
/// Cells are keyed by their exact slot, making overwrite-on-stale safe,
/// and the ring grows (re-seating live cells, no hashing anywhere) when
/// a latency outgrows the current width.
#[derive(Debug)]
pub struct ArrivalRing {
    /// `width × n_ids` cells, slot-major: `(slot, packet)`, slot
    /// `u64::MAX` when vacant.
    cells: Vec<(u64, PacketId2)>,
    n_ids: usize,
    /// Power of two, strictly greater than any in-flight latency span.
    width: u64,
}

/// The packet payload stored in a ring cell. A plain `u64` (the packet
/// seq) keeps the cell `Copy` without importing core types here.
type PacketId2 = u64;

/// Vacant-cell marker; real slots are bounded by `SimConfig::max_slots`.
const VACANT: u64 = u64::MAX;

impl ArrivalRing {
    /// A ring for `n_ids` nodes with the minimum width.
    pub fn new(n_ids: usize) -> ArrivalRing {
        let width = 8;
        ArrivalRing {
            cells: vec![(VACANT, 0); width as usize * n_ids],
            n_ids,
            width,
        }
    }

    /// Claim `(arrival_slot, node)` for packet seq `packet`. Returns the
    /// already-pending packet seq on a collision. `now_slot` is the
    /// current playback slot (the live-window floor, needed on growth).
    #[inline]
    pub fn try_insert(
        &mut self,
        arrival_slot: u64,
        node: u32,
        packet: u64,
        now_slot: u64,
    ) -> Result<(), u64> {
        debug_assert!(arrival_slot >= now_slot);
        if arrival_slot - now_slot + 2 > self.width {
            self.grow(arrival_slot - now_slot + 2, now_slot);
        }
        let cell = &mut self.cells
            [(arrival_slot & (self.width - 1)) as usize * self.n_ids + node as usize];
        if cell.0 == arrival_slot {
            return Err(cell.1);
        }
        *cell = (arrival_slot, packet);
        Ok(())
    }

    /// Re-seat every live cell (slot ≥ `now_slot`) into a wider ring.
    fn grow(&mut self, need: u64, now_slot: u64) {
        let width = need.next_power_of_two();
        let mut cells = vec![(VACANT, 0); width as usize * self.n_ids];
        for (i, &(slot, packet)) in self.cells.iter().enumerate() {
            if slot != VACANT && slot >= now_slot {
                let node = i % self.n_ids;
                cells[(slot & (width - 1)) as usize * self.n_ids + node] = (slot, packet);
            }
        }
        self.cells = cells;
        self.width = width;
    }
}

/// Relaxed-mode calendar entries parked until their packet arrives at the
/// sender: a dense `(sender, packet) → (head, tail)` index over one
/// free-listed arena of blocks, each holding up to `BLOCK` (3) entries of
/// one chain side by side.
///
/// Replaces a `BTreeMap<(u32, u64), Vec<Transmission>>` (an ordered-map
/// descent and a `Vec` allocation per deferred send) and then a hashed
/// index over an arena of singly linked entries. A chain keeps push
/// order, so a release dispatches exactly what the `Vec` did. A release
/// is two array reads and one block per `BLOCK` entries — a forwarder
/// parks one entry per child, so a chain is typically one block — with
/// no hashing and no hop per entry.
///
/// The index is seq-major, `index[seq][sender]`: the entries parked and
/// released around the same time are for the same few packets, so their
/// cells share a few rows. A row grows with the largest sender parked
/// under it, and there are as many rows as the largest seq parked —
/// like the held sets, bounded by the packets the calendar names.
/// Walking the cells sender by sender visits the keys in ascending
/// `(sender, packet)` order, the order the `BTreeMap` iterated in, with
/// no sort ([`ParkedSends::heads_by_key`]).
#[derive(Debug, Default)]
pub struct ParkedSends {
    /// `index[seq][sender]`: the chain's `(head, tail)` blocks, or
    /// `(NIL, NIL)` when nothing is parked under that key.
    index: Vec<Vec<(u32, u32)>>,
    /// The block arena.
    slots: Vec<Block>,
    free: Vec<u32>,
}

/// Entries per [`ParkedSends`] block: one per child of a `d = 3`
/// forwarder, the paper's degree.
const BLOCK: usize = 3;

/// Up to [`BLOCK`] consecutive entries of one chain.
#[derive(Debug, Clone, Copy)]
struct Block {
    txs: [Transmission; BLOCK],
    /// Entries in use, `1..=BLOCK`.
    len: u32,
    /// The chain's next block.
    next: u32,
}

/// End-of-chain marker (and an empty index cell's head and tail).
const NIL: u32 = u32::MAX;

impl ParkedSends {
    /// Park `tx` behind any earlier entries for the same
    /// `(sender, packet)`.
    pub fn park(&mut self, tx: Transmission) {
        let (sender, seq) = (tx.from.index(), tx.packet.seq() as usize);
        if seq >= self.index.len() {
            self.index.resize_with(seq + 1, Vec::new);
        }
        let row = &mut self.index[seq];
        if sender >= row.len() {
            row.resize(sender + 1, (NIL, NIL));
        }
        let cell = &mut row[sender];
        if cell.0 != NIL {
            let tail = &mut self.slots[cell.1 as usize];
            if (tail.len as usize) < BLOCK {
                tail.txs[tail.len as usize] = tx;
                tail.len += 1;
                return;
            }
        }
        let block = Block {
            txs: [tx; BLOCK],
            len: 1,
            next: NIL,
        };
        let b = match self.free.pop() {
            Some(b) => {
                self.slots[b as usize] = block;
                b
            }
            None => {
                self.slots.push(block);
                (self.slots.len() - 1) as u32
            }
        };
        if cell.0 == NIL {
            *cell = (b, b);
        } else {
            let tail = std::mem::replace(&mut cell.1, b);
            self.slots[tail as usize].next = b;
        }
    }

    /// Move the chain parked for `(sender, seq)` onto `out`, in push
    /// order, recycling its blocks.
    pub fn release_into(&mut self, sender: u32, seq: u64, out: &mut Vec<Transmission>) {
        let row = usize::try_from(seq)
            .ok()
            .and_then(|s| self.index.get_mut(s));
        let Some(cell) = row.and_then(|row| row.get_mut(sender as usize)) else {
            return;
        };
        let (mut at, _) = std::mem::replace(cell, (NIL, NIL));
        while at != NIL {
            let block = &self.slots[at as usize];
            out.extend_from_slice(&block.txs[..block.len as usize]);
            self.free.push(at);
            at = block.next;
        }
    }

    /// Heads of the chains still parked, in ascending `(sender, packet)`
    /// order — the order the replaced `BTreeMap` iterated in.
    pub fn heads_by_key(&self) -> Vec<u32> {
        let senders = self.index.iter().map(Vec::len).max().unwrap_or(0);
        (0..senders)
            .flat_map(|sender| self.index.iter().filter_map(move |row| row.get(sender)))
            .filter(|&&(head, _)| head != NIL)
            .map(|&(head, _)| head)
            .collect()
    }

    /// The entries of the chain starting at `head`, in push order.
    pub fn chain(&self, head: u32) -> impl Iterator<Item = &Transmission> {
        let mut at = head;
        std::iter::from_fn(move || {
            let block = self.slots.get(at as usize)?;
            at = block.next;
            Some(&block.txs[..block.len as usize])
        })
        .flatten()
    }
}

/// The first fault cause that took out each `(node, packet)` copy —
/// what a downstream suppression of that copy is blamed on.
///
/// One row of cells per node, indexed by seq and grown, like the node's
/// held [`clustream_sim::PacketSet`], up to the largest seq noted for it;
/// a node never noted has an empty row. Replaces a hashed
/// `(node, seq) → FaultCause` map filled with `or_insert`: the first
/// cause noted for a copy wins, and a cell never noted (or past its
/// row's end) has none.
#[derive(Debug, Default)]
pub struct FirstCauses {
    rows: Vec<Vec<Option<FaultCause>>>,
}

impl FirstCauses {
    /// Blame `cause` for `node`'s copy of `seq`, unless an earlier cause
    /// already is.
    pub fn note(&mut self, node: u32, seq: u64, cause: FaultCause) {
        let (node, seq) = (node as usize, seq as usize);
        if node >= self.rows.len() {
            self.rows.resize_with(node + 1, Vec::new);
        }
        let row = &mut self.rows[node];
        if seq >= row.len() {
            row.resize(seq + 1, None);
        }
        row[seq].get_or_insert(cause);
    }

    /// The cause blamed for `node`'s copy of `seq`, if any.
    pub fn get(&self, node: u32, seq: u64) -> Option<FaultCause> {
        let row = self.rows.get(node as usize)?;
        *row.get(usize::try_from(seq).ok()?)?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustream_core::{NodeId, PacketId};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};

    proptest! {
        /// Parks and releases against the ordered map of `Vec`s the arena
        /// replaced: each release yields the same entries in the same
        /// order, and the leftover walk visits what `into_values()` did.
        #[test]
        fn parked_sends_match_the_ordered_map_model(
            ops in proptest::collection::vec((any::<bool>(), 1u32..5, 0u64..6, 1u32..40), 1..300),
        ) {
            let mut parked = ParkedSends::default();
            let mut model: BTreeMap<(u32, u64), Vec<Transmission>> = BTreeMap::new();
            let mut out = Vec::new();
            let mut high_water = 0;
            for (park, from, seq, to) in ops {
                if park {
                    let tx = Transmission::local(NodeId(from), NodeId(to), PacketId(seq));
                    parked.park(tx);
                    model.entry((from, seq)).or_default().push(tx);
                } else {
                    out.clear();
                    parked.release_into(from, seq, &mut out);
                    prop_assert_eq!(&out, &model.remove(&(from, seq)).unwrap_or_default());
                }
                let live: usize = model.values().map(Vec::len).sum();
                high_water = high_water.max(live);
                prop_assert!(parked.slots.len() <= high_water, "freed slots are reused");
            }
            let walked: Vec<Transmission> = parked
                .heads_by_key()
                .into_iter()
                .flat_map(|head| parked.chain(head).copied())
                .collect();
            let want: Vec<Transmission> = model.into_values().flatten().collect();
            prop_assert_eq!(walked, want);
        }
    }

    proptest! {
        /// The dense first-cause table against the hash map it replaced
        /// (`entry(..).or_insert(cause)`): whatever order copies are
        /// blamed in, the first cause wins, and cells never blamed —
        /// including seqs past every row and nodes past every row — have
        /// none.
        #[test]
        fn first_causes_match_the_hash_map_model(
            notes in proptest::collection::vec((0u32..6, 0u64..80, any::<bool>()), 0..300),
        ) {
            let mut dense = FirstCauses::default();
            let mut model: HashMap<(u32, u64), FaultCause> = HashMap::new();
            for (node, seq, loss) in notes {
                let cause = if loss { FaultCause::Loss } else { FaultCause::Crash };
                dense.note(node, seq, cause);
                model.entry((node, seq)).or_insert(cause);
            }
            for node in 0..8 {
                for seq in (0..100).chain([u64::MAX]) {
                    prop_assert_eq!(dense.get(node, seq), model.get(&(node, seq)).copied());
                }
            }
            prop_assert_eq!(dense.get(u32::MAX, 0), None);
        }
    }

    #[test]
    fn arrival_ring_detects_same_slot_collisions() {
        let mut r = ArrivalRing::new(4);
        assert_eq!(r.try_insert(5, 2, 10, 5), Ok(()));
        assert_eq!(r.try_insert(5, 2, 11, 5), Err(10), "same (slot, node)");
        assert_eq!(r.try_insert(5, 3, 11, 5), Ok(()), "other node is free");
        assert_eq!(r.try_insert(6, 2, 12, 5), Ok(()), "other slot is free");
    }

    #[test]
    fn arrival_ring_stale_cells_never_match() {
        let mut r = ArrivalRing::new(2);
        assert_eq!(r.try_insert(3, 1, 7, 3), Ok(()));
        // Slot 3's delivery has fired; slot 11 aliases it (mod 8) and
        // must overwrite the stale cell, not report a collision.
        assert_eq!(r.try_insert(11, 1, 8, 10), Ok(()));
        assert_eq!(r.try_insert(11, 1, 9, 10), Err(8));
    }

    #[test]
    fn arrival_ring_grows_past_long_latencies() {
        let mut r = ArrivalRing::new(3);
        for slot in 0..40 {
            assert_eq!(r.try_insert(slot, 1, slot, 0), Ok(()));
        }
        // Every claim survives the growth re-seat.
        for slot in 0..40 {
            assert_eq!(r.try_insert(slot, 1, slot + 100, 0), Err(slot));
        }
    }
}
