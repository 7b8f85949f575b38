//! Bounded per-node repair buffers.
//!
//! A node can only serve a retransmission for a packet it still holds in
//! its repair buffer — a FIFO window over its most recent arrivals. The
//! bound is the graceful-degradation lever: once a gap packet has aged
//! out of every candidate server's buffer, the requester's retries
//! escalate to the source and, failing that, the packet is abandoned.
//!
//! Each node's window is one flat ring of seqs plus membership bits
//! indexed by seq, so `note` and `contains` are array reads — no hashing,
//! whatever the capacity. The bits are laid out band-major, one 64-bit
//! word per (64-seq band, node): nodes receiving the same recent packets
//! — every delivery of a broadcast stream does — share a few hot cache
//! lines instead of one cold row each. Both grow with what has been
//! noted, never with the configured capacity: a ring by its node's
//! arrivals up to `capacity`, the bits (like the held sets) up to the
//! largest seq noted. An unbounded capacity costs what the arrivals
//! cost.

/// One node's FIFO window.
#[derive(Debug, Clone, Default)]
struct Ring {
    /// The window's seqs; once it holds `capacity` of them, the oldest
    /// sits at `head`.
    seqs: Vec<u64>,
    /// The cell the next arrival overwrites once the ring is full.
    head: usize,
}

/// FIFO repair buffers, one per node, each bounded to `capacity` packets.
#[derive(Debug, Clone)]
pub struct RepairBuffer {
    rings: Vec<Ring>,
    /// Bit `seq % 64` of `bits[(seq / 64) * n_ids + node]` is set iff
    /// `seq` is in `node`'s ring.
    bits: Vec<u64>,
    n_ids: usize,
    capacity: usize,
}

impl RepairBuffer {
    /// Buffers for `n_ids` nodes, each holding at most `capacity`
    /// packets.
    pub fn new(n_ids: usize, capacity: usize) -> Self {
        RepairBuffer {
            rings: Vec::new(),
            bits: Vec::new(),
            n_ids,
            capacity,
        }
    }

    /// `node`'s membership word for `seq` and the bit within it; no word
    /// for a node outside the id space.
    #[inline]
    fn bit(&self, node: u32, seq: u64) -> (Option<usize>, u64) {
        let node = node as usize;
        let word = usize::try_from(seq / 64)
            .ok()
            .and_then(|band| band.checked_mul(self.n_ids))
            .and_then(|base| base.checked_add(node))
            .filter(|_| node < self.n_ids);
        (word, 1 << (seq % 64))
    }

    /// Note that `node` received `seq`, evicting the oldest entry when
    /// full. Duplicate arrivals do not reshuffle the window; an evicted
    /// seq re-enters as the newest when it arrives again. A node outside
    /// the id space buffers nothing.
    pub fn note(&mut self, node: u32, seq: u64) {
        let (Some(word), mask) = self.bit(node, seq) else {
            return;
        };
        if self.capacity == 0 || self.bits.get(word).is_some_and(|w| w & mask != 0) {
            return;
        }
        if word >= self.bits.len() {
            // Whole bands at a time, so every node's word exists.
            let bands = word / self.n_ids + 1;
            self.bits.resize(bands * self.n_ids, 0);
        }
        self.bits[word] |= mask;
        let node = node as usize;
        if node >= self.rings.len() {
            self.rings.resize_with(node + 1, Ring::default);
        }
        let ring = &mut self.rings[node];
        if ring.seqs.len() < self.capacity {
            ring.seqs.push(seq);
            return;
        }
        let evicted = std::mem::replace(&mut ring.seqs[ring.head], seq);
        ring.head += 1;
        if ring.head == ring.seqs.len() {
            ring.head = 0;
        }
        let (word, mask) = self.bit(node as u32, evicted);
        self.bits[word.expect("an evicted seq was noted")] &= !mask;
    }

    /// Whether `node` can still serve `seq` from its repair buffer.
    pub fn contains(&self, node: u32, seq: u64) -> bool {
        let (word, mask) = self.bit(node, seq);
        word.and_then(|w| self.bits.get(w))
            .is_some_and(|w| w & mask != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The shape this module replaced, spelt as plainly as possible: an
    /// ordered set beside each FIFO (a `Vec` popped at the front).
    struct Model {
        fifo: Vec<Vec<u64>>,
        member: Vec<BTreeSet<u64>>,
        capacity: usize,
    }

    impl Model {
        fn note(&mut self, node: usize, seq: u64) {
            if self.capacity == 0 || !self.member[node].insert(seq) {
                return;
            }
            self.fifo[node].push(seq);
            if self.fifo[node].len() > self.capacity {
                let evicted = self.fifo[node].remove(0);
                self.member[node].remove(&evicted);
            }
        }
    }

    /// Drive buffer and model through `ops`, probing the noted seq, its
    /// neighbours and the oldest candidate for eviction after each note.
    fn assert_matches_model(capacity: usize, ops: impl Iterator<Item = (u32, u64)>) {
        let mut buf = RepairBuffer::new(3, capacity);
        let mut model = Model {
            fifo: vec![Vec::new(); 3],
            member: vec![BTreeSet::new(); 3],
            capacity,
        };
        for (node, seq) in ops {
            buf.note(node, seq);
            model.note(node as usize, seq);
            let oldest = model.fifo[node as usize].first().copied().unwrap_or(0);
            for probe in [
                seq,
                seq.wrapping_sub(1),
                seq + 1,
                oldest,
                oldest.wrapping_sub(1),
            ] {
                assert_eq!(
                    buf.contains(node, probe),
                    model.member[node as usize].contains(&probe),
                    "capacity {capacity}, node {node}, probe {probe}"
                );
            }
            assert!(buf.rings.get(node as usize).map_or(0, |r| r.seqs.len()) <= capacity);
        }
    }

    proptest! {
        #[test]
        fn hashed_membership_matches_the_ordered_set_model(
            capacity in 0usize..4,
            ops in proptest::collection::vec((0u32..3, 0u64..90), 1..400),
        ) {
            assert_matches_model([0, 1, 64, 10_000][capacity], ops.into_iter());
        }
    }

    #[test]
    fn a_ten_thousand_packet_window_evicts_in_fifo_order() {
        // Three windows' worth of mostly-fresh arrivals with a repeating
        // stride, so the window fills, evicts, and sees duplicates of
        // both live and long-evicted packets. Membership is hashed: the
        // 150k probes below do not scan the window.
        let ops = (0..30_000u64).map(|i| ((i % 3) as u32, (i * 7919) % 45_000));
        assert_matches_model(10_000, ops);
    }

    #[test]
    fn bounded_fifo_eviction() {
        let mut b = RepairBuffer::new(3, 2);
        b.note(1, 10);
        b.note(1, 11);
        assert!(b.contains(1, 10));
        b.note(1, 12);
        assert!(!b.contains(1, 10), "oldest evicted");
        assert!(b.contains(1, 11));
        assert!(b.contains(1, 12));
        assert!(!b.contains(2, 11), "per-node isolation");
    }

    #[test]
    fn duplicates_do_not_evict() {
        let mut b = RepairBuffer::new(2, 2);
        b.note(0, 1);
        b.note(0, 2);
        b.note(0, 2);
        assert!(b.contains(0, 1), "duplicate must not push out packet 1");
    }

    #[test]
    fn an_evicted_seq_re_enters_as_the_newest() {
        let mut b = RepairBuffer::new(1, 2);
        for seq in [1, 2, 3, 1] {
            b.note(0, seq);
        }
        // 1 was evicted by 3, came back and pushed out 2 (the oldest).
        assert!(b.contains(0, 1) && b.contains(0, 3));
        assert!(!b.contains(0, 2));
    }

    #[test]
    fn zero_capacity_serves_nothing() {
        let mut b = RepairBuffer::new(2, 0);
        b.note(0, 1);
        assert!(!b.contains(0, 1));
    }
}
