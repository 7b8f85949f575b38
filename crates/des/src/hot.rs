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

use clustream_core::{NodeId, PacketId, Transmission};

/// Relaxed-mode calendar entries parked until their packet arrives at the
/// sender: a dense `(sender, packet) → head` index over one free-listed
/// arena of blocks, each holding up to `BLOCK` (3) entries of one chain
/// side by side.
///
/// Replaces a `BTreeMap<(u32, u64), Vec<Transmission>>` (an ordered-map
/// descent and a `Vec` allocation per deferred send) and then a hashed
/// index over an arena of singly linked entries. A chain keeps push
/// order, so a release dispatches exactly what the `Vec` did. A release
/// is two array reads and one block per `BLOCK` entries — a forwarder
/// parks one entry per child, so a chain is typically one block — with
/// no hashing and no hop per entry.
///
/// The key fixes every entry's `from` and `packet`, so a block stores
/// only what it does not say — each entry's `to` and `latency`, 8 bytes
/// of the 24 a [`Transmission`] takes — and a release rebuilds the rest
/// from the key: a 32-byte block for 3 entries, where whole
/// transmissions took 80.
///
/// The index is seq-major, `index[seq][sender]`: the entries parked and
/// released around the same time are for the same few packets, so their
/// cells share a few rows. A cell is the chain's head block, 4 bytes; a
/// park walks the chain to its tail, which for a `d = 3` forwarder is the
/// head. A row grows with the largest sender parked under it, and there
/// are as many rows as the largest seq parked — like the held sets,
/// bounded by the packets the calendar names. Walking the cells sender
/// by sender visits the keys in ascending `(sender, packet)` order, the
/// order the `BTreeMap` iterated in, with no sort
/// ([`ParkedSends::keys`]).
#[derive(Debug, Default)]
pub struct ParkedSends {
    /// `index[seq][sender]`: the chain's head block, or `NIL` when
    /// nothing is parked under that key.
    index: Vec<Vec<u32>>,
    /// The block arena.
    slots: Vec<Block>,
    free: Vec<u32>,
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
        let (sender, seq) = (tx.from.index(), tx.packet.seq() as usize);
        if seq >= self.index.len() {
            self.index.resize_with(seq + 1, Vec::new);
        }
        let row = &mut self.index[seq];
        if sender >= row.len() {
            row.resize(sender + 1, NIL);
        }
        let head = row[sender];
        let mut tail = head;
        if tail != NIL {
            while self.slots[tail as usize].next != NIL {
                tail = self.slots[tail as usize].next;
            }
            let block = &mut self.slots[tail as usize];
            let at = block.len as usize;
            if at < BLOCK {
                block.to[at] = tx.to.0;
                block.latency[at] = tx.latency;
                block.len += 1;
                return;
            }
        }
        let block = Block {
            to: [tx.to.0; BLOCK],
            latency: [tx.latency; BLOCK],
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
        if head == NIL {
            self.index[seq][sender] = b;
        } else {
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
        let mut at = std::mem::replace(cell, NIL);
        while at != NIL {
            let block = &self.slots[at as usize];
            out.extend(entries(block, sender, seq));
            self.free.push(at);
            at = block.next;
        }
    }

    /// The `(sender, seq)` keys with a chain still parked, in ascending
    /// order — the order the replaced `BTreeMap` iterated in.
    pub fn keys(&self) -> Vec<(u32, u64)> {
        let senders = self.index.iter().map(Vec::len).max().unwrap_or(0);
        (0..senders)
            .flat_map(|sender| {
                self.index.iter().enumerate().filter_map(move |(seq, row)| {
                    row.get(sender)
                        .is_some_and(|&head| head != NIL)
                        .then_some((sender as u32, seq as u64))
                })
            })
            .collect()
    }

    /// The entries parked under `(sender, seq)`, in push order.
    pub fn chain(&self, (sender, seq): (u32, u64)) -> impl Iterator<Item = Transmission> + '_ {
        let mut at = usize::try_from(seq)
            .ok()
            .and_then(|s| self.index.get(s))
            .and_then(|row| row.get(sender as usize))
            .copied()
            .unwrap_or(NIL);
        std::iter::from_fn(move || {
            let block = self.slots.get(at as usize)?;
            at = block.next;
            Some(entries(block, sender, seq))
        })
        .flatten()
    }
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
mod tests {
    use super::*;
    use clustream_core::{NodeId, PacketId};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        /// Parks and releases against the ordered map of `Vec`s the arena
        /// replaced: each release yields the same entries in the same
        /// order, and the leftover walk visits what `into_values()` did.
        /// Senders, receivers and latencies range widely, since a block
        /// stores some of them and the key implies the rest; a park op
        /// parks up to 4 entries under one of four senders, so chains run
        /// past a block and past two.
        #[test]
        fn parked_sends_match_the_ordered_map_model(
            senders in proptest::collection::vec(0u32..4000, 4),
            ops in proptest::collection::vec(
                ((0u8..4, 0usize..4, 0u64..6), (0u32..4000, 1u32..1000, 1usize..5)),
                1..200,
            ),
        ) {
            let mut parked = ParkedSends::default();
            let mut model: BTreeMap<(u32, u64), Vec<Transmission>> = BTreeMap::new();
            let mut out = Vec::new();
            let mut high_water = 0;
            for ((op, who, seq), (to, latency, count)) in ops {
                let from = senders[who];
                if op > 0 {
                    for k in 0..count as u32 {
                        let tx = Transmission {
                            from: NodeId(from),
                            to: NodeId(to + k),
                            packet: PacketId(seq),
                            latency: latency + k,
                        };
                        parked.park(tx);
                        model.entry((from, seq)).or_default().push(tx);
                    }
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
                .keys()
                .into_iter()
                .flat_map(|key| parked.chain(key))
                .collect();
            let want: Vec<Transmission> = model.into_values().flatten().collect();
            prop_assert_eq!(walked, want);
        }
    }
}
