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
//! end-of-run leftover attribution) reads the parked sends in ascending
//! key order.

use clustream_core::Transmission;

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
}
