//! Bounded per-node repair buffers.
//!
//! A node can only serve a retransmission for a packet it still holds in
//! its repair buffer — a FIFO window over its most recent arrivals. The
//! bound is the graceful-degradation lever: once a gap packet has aged
//! out of every candidate server's buffer, the requester's retries
//! escalate to the source and, failing that, the packet is abandoned.
//!
//! Eviction order is the FIFO's; membership is lookup-only, so it is a
//! hashed set per node — O(1) whatever the capacity, and never iterated.

use clustream_core::hash::FxHashSet;
use std::collections::VecDeque;

/// FIFO repair buffers, one per node, each bounded to `capacity` packets.
#[derive(Debug, Clone)]
pub struct RepairBuffer {
    /// Insertion-ordered window per node.
    fifo: Vec<VecDeque<u64>>,
    /// Same contents with O(1) membership.
    member: Vec<FxHashSet<u64>>,
    capacity: usize,
}

impl RepairBuffer {
    /// Buffers for `n_ids` nodes, each holding at most `capacity`
    /// packets.
    pub fn new(n_ids: usize, capacity: usize) -> Self {
        RepairBuffer {
            fifo: vec![VecDeque::new(); n_ids],
            member: vec![FxHashSet::default(); n_ids],
            capacity,
        }
    }

    /// Note that `node` received `seq`, evicting the oldest entry when
    /// full. Duplicate arrivals do not reshuffle the window.
    pub fn note(&mut self, node: u32, seq: u64) {
        if self.capacity == 0 || !self.member[node as usize].insert(seq) {
            return;
        }
        let fifo = &mut self.fifo[node as usize];
        if fifo.len() == self.capacity {
            let evicted = fifo.pop_front().expect("capacity is positive");
            self.member[node as usize].remove(&evicted);
        }
        fifo.push_back(seq);
    }

    /// Whether `node` can still serve `seq` from its repair buffer.
    pub fn contains(&self, node: u32, seq: u64) -> bool {
        self.member[node as usize].contains(&seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The shape this module replaced: an ordered set beside each FIFO.
    struct Model {
        fifo: Vec<VecDeque<u64>>,
        member: Vec<BTreeSet<u64>>,
        capacity: usize,
    }

    impl Model {
        fn note(&mut self, node: usize, seq: u64) {
            if self.capacity == 0 || !self.member[node].insert(seq) {
                return;
            }
            self.fifo[node].push_back(seq);
            if self.fifo[node].len() > self.capacity {
                let evicted = self.fifo[node].pop_front().unwrap();
                self.member[node].remove(&evicted);
            }
        }
    }

    /// Drive buffer and model through `ops`, probing the noted seq, its
    /// neighbours and the oldest candidate for eviction after each note.
    fn assert_matches_model(capacity: usize, ops: impl Iterator<Item = (u32, u64)>) {
        let mut buf = RepairBuffer::new(3, capacity);
        let mut model = Model {
            fifo: vec![VecDeque::new(); 3],
            member: vec![BTreeSet::new(); 3],
            capacity,
        };
        for (node, seq) in ops {
            buf.note(node, seq);
            model.note(node as usize, seq);
            let oldest = model.fifo[node as usize].front().copied().unwrap_or(0);
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
            assert!(buf.fifo[node as usize].len() <= capacity);
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
    fn zero_capacity_serves_nothing() {
        let mut b = RepairBuffer::new(2, 0);
        b.note(0, 1);
        assert!(!b.contains(0, 1));
    }
}
