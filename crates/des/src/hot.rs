//! Hot-path containers for the event loop: the strict-mode arrival
//! guard ring and the relaxed-mode parked-send arena. (Per-node packet
//! holdings are [`clustream_sim::PacketSet`], the slot kernel's bitset;
//! the point-lookup maps hash with [`clustream_core::hash`].)
//!
//! Both replace `std` containers that dominated the per-event profile.
//! Neither is iterated while events run, so determinism is untouched —
//! every access is a point lookup keyed by values the simulation already
//! ordered; the one walk that produces output (the end-of-run leftover
//! attribution) sorts by key first.

use clustream_core::hash::FxHashMap;
use clustream_core::Transmission;
use std::collections::hash_map::Entry;

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
/// sender: a hashed `(sender, packet) → (head, tail)` index over one
/// free-listed arena of singly linked [`Transmission`]s.
///
/// Replaces a `BTreeMap<(u32, u64), Vec<Transmission>>`, which paid an
/// ordered-map descent and a `Vec` allocation per deferred send. A chain
/// keeps push order, so a release dispatches exactly what the `Vec` did;
/// the index is lookup-only until the end-of-run leftover walk, which
/// sorts the surviving chains by key first ([`ParkedSends::heads_by_key`]).
#[derive(Debug, Default)]
pub struct ParkedSends {
    index: FxHashMap<(u32, u64), (u32, u32)>,
    /// `(entry, next slot in its chain)`.
    slots: Vec<(Transmission, u32)>,
    free: Vec<u32>,
}

/// End-of-chain marker.
const NIL: u32 = u32::MAX;

impl ParkedSends {
    /// Park `tx` behind any earlier entries for the same
    /// `(sender, packet)`.
    pub fn park(&mut self, tx: Transmission) {
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = (tx, NIL);
                i
            }
            None => {
                self.slots.push((tx, NIL));
                (self.slots.len() - 1) as u32
            }
        };
        match self.index.entry((tx.from.0, tx.packet.seq())) {
            Entry::Occupied(mut e) => {
                let tail = std::mem::replace(&mut e.get_mut().1, i);
                self.slots[tail as usize].1 = i;
            }
            Entry::Vacant(e) => {
                e.insert((i, i));
            }
        }
    }

    /// Move the chain parked for `(sender, seq)` onto `out`, in push
    /// order, recycling its slots.
    pub fn release_into(&mut self, sender: u32, seq: u64, out: &mut Vec<Transmission>) {
        let Some((mut at, _)) = self.index.remove(&(sender, seq)) else {
            return;
        };
        while at != NIL {
            let (tx, next) = self.slots[at as usize];
            out.push(tx);
            self.free.push(at);
            at = next;
        }
    }

    /// Heads of the chains still parked, in ascending `(sender, packet)`
    /// order — the order the replaced `BTreeMap` iterated in.
    pub fn heads_by_key(&self) -> Vec<u32> {
        let mut heads: Vec<u32> = self.index.values().map(|&(head, _)| head).collect();
        heads.sort_unstable_by_key(|&h| {
            let tx = &self.slots[h as usize].0;
            (tx.from.0, tx.packet.seq())
        });
        heads
    }

    /// The entries of the chain starting at `head`, in push order.
    pub fn chain(&self, head: u32) -> impl Iterator<Item = &Transmission> {
        let mut at = head;
        std::iter::from_fn(move || {
            let (tx, next) = self.slots.get(at as usize)?;
            at = *next;
            Some(tx)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustream_core::{NodeId, PacketId};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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
