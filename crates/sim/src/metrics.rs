//! Traffic and communication-requirement accounting.
//!
//! The paper's third QoS axis is the number of distinct neighbors a node
//! must communicate with (footnote 1): each live peering costs protocol
//! maintenance (keep-alives, churn handling), which is why the multi-tree
//! scheme's `O(d)` neighbors versus the hypercube scheme's `O(log N)` is a
//! headline difference in Table 1.

use clustream_core::{NodeId, Transmission};

/// Receivers a sender's link row keeps inline before it spills.
const INLINE: usize = 7;

/// Accumulates per-node link counts and global traffic counters.
///
/// Each sender owns one 32-byte row: `row[0]` is its out-link count,
/// and up to seven receivers follow in first-send order. Past that,
/// `row[1]` indexes the sender's sorted list in `spill`, which only
/// high-degree senders (the source, hypercube vertices) ever need.
/// Beside the rows sit two counters per node: `in_deg`, and `mutual`,
/// the links that exist in both directions (a self-link counts once),
/// so every degree is `O(1)` and `degree = out + in − mutual`.
///
/// `record` sits on the per-transmission hot path of every engine, and
/// schemes emit sender by sender, so the sender's row is already in
/// cache; only a link's first transmission touches the receiver's
/// counters and looks up the reverse link. An open-addressing hash set
/// keyed by `(from, to)` was measured against this layout and lost
/// (+7.5 % CPU on the 20 000-node DES run, +23.9 % on the N = 10⁵ mega
/// run): hashing throws that sender locality away.
#[derive(Debug, Clone, Default)]
pub struct TrafficStats {
    links: Vec<[u32; INLINE + 1]>,
    spill: Vec<Vec<u32>>,
    /// Lists of `spill` in use this run; the rest are kept for reuse.
    spilled: usize,
    in_deg: Vec<u32>,
    mutual: Vec<u32>,
    uploads: Vec<u64>,
    total_transmissions: u64,
    // Crate-visible for the mega engine's steady-state gears, which
    // count their deliveries' duplicates themselves.
    pub(crate) duplicate_deliveries: u64,
}

impl TrafficStats {
    /// Stats for an id space of `n_ids` nodes.
    pub fn new(n_ids: usize) -> Self {
        let mut s = TrafficStats::default();
        s.reset(n_ids);
        s
    }

    /// Zero every counter and link row for a new run over `n_ids`
    /// nodes, keeping the allocations (the slot kernel's arena reset).
    pub fn reset(&mut self, n_ids: usize) {
        self.links.clear();
        self.links.resize(n_ids, [0; INLINE + 1]);
        for list in &mut self.spill[..self.spilled] {
            list.clear();
        }
        self.spilled = 0;
        for v in [&mut self.in_deg, &mut self.mutual] {
            v.clear();
            v.resize(n_ids, 0);
        }
        self.uploads.clear();
        self.uploads.resize(n_ids, 0);
        self.total_transmissions = 0;
        self.duplicate_deliveries = 0;
    }

    /// Whether `from` has sent to `to`.
    fn has_link(&self, from: usize, to: u32) -> bool {
        let row = &self.links[from];
        let n = row[0] as usize;
        if n <= INLINE {
            row[1..=n].contains(&to)
        } else {
            self.spill[row[1] as usize].binary_search(&to).is_ok()
        }
    }

    /// Add `from → to` to the sender's row; false if it was there.
    #[inline]
    fn insert_link(&mut self, from: usize, to: u32) -> bool {
        let row = &mut self.links[from];
        let n = row[0] as usize;
        if n < INLINE {
            if row[1..=n].contains(&to) {
                return false;
            }
            row[n + 1] = to;
        } else if n == INLINE {
            if row[1..].contains(&to) {
                return false;
            }
            if self.spilled == self.spill.len() {
                self.spill.push(Vec::new());
            }
            let list = &mut self.spill[self.spilled];
            list.extend_from_slice(&row[1..]);
            list.push(to);
            list.sort_unstable();
            row[1] = self.spilled as u32;
            self.spilled += 1;
        } else {
            let list = &mut self.spill[row[1] as usize];
            match list.binary_search(&to) {
                Ok(_) => return false,
                Err(at) => list.insert(at, to),
            }
        }
        row[0] += 1;
        true
    }

    /// Record one transmission (called once per validated send).
    #[inline]
    pub fn record(&mut self, tx: &Transmission) {
        let (from, to) = (tx.from.index(), tx.to.index());
        if self.insert_link(from, tx.to.0) {
            self.in_deg[to] += 1;
            if from == to {
                self.mutual[to] += 1;
            } else if self.has_link(to, tx.from.0) {
                self.mutual[from] += 1;
                self.mutual[to] += 1;
            }
        }
        self.uploads[from] += 1;
        self.total_transmissions += 1;
    }

    /// Record `n ≥ 1` transmissions over `tx`'s link: the mega engine's
    /// steady-state gears book each replayed send once for the run. Kept
    /// apart from [`TrafficStats::record`], which every engine's
    /// admission calls per send.
    pub(crate) fn record_many(&mut self, tx: &Transmission, n: u64) {
        self.record(tx);
        self.uploads[tx.from.index()] += n - 1;
        self.total_transmissions += n - 1;
    }

    /// Packets uploaded by `node` over the whole run — the paper's
    /// resource-contribution measure ("leaf nodes contribute no
    /// resources").
    pub fn uploads(&self, node: NodeId) -> u64 {
        self.uploads[node.index()]
    }

    /// Per-node upload counts, indexed by node id.
    pub fn upload_counts(&self) -> &[u64] {
        &self.uploads
    }

    /// Record that a delivery duplicated a packet the node already held.
    pub fn record_duplicate(&mut self) {
        self.duplicate_deliveries += 1;
    }

    /// Number of distinct nodes `node` sent to.
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.links[node.index()][0] as usize
    }

    /// Number of distinct nodes `node` received from.
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.in_deg[node.index()] as usize
    }

    /// Distinct nodes communicated with in either direction.
    pub fn degree(&self, node: NodeId) -> usize {
        self.out_degree(node) + self.in_degree(node) - self.mutual[node.index()] as usize
    }

    /// Total validated transmissions over the run.
    pub fn total_transmissions(&self) -> u64 {
        self.total_transmissions
    }

    /// Deliveries that duplicated an already-held packet. The paper's
    /// schemes never produce these ("nodes do not receive redundant
    /// packets"); a nonzero count flags a wasteful scheme.
    pub fn duplicate_deliveries(&self) -> u64 {
        self.duplicate_deliveries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustream_core::{PacketId, Transmission};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Feed `links` to `s` and hold its degrees to a link-set model.
    fn check_against_model(
        s: &mut TrafficStats,
        n_ids: u32,
        links: &[(u32, u32)],
    ) -> Result<(), TestCaseError> {
        let mut model = BTreeSet::new();
        for (seq, &(from, to)) in links.iter().enumerate() {
            let tx = Transmission::local(NodeId(from), NodeId(to), PacketId(seq as u64));
            s.record(&tx);
            model.insert((from, to));
        }
        for n in 0..n_ids {
            let out = model.iter().filter(|&&(a, _)| a == n).count();
            let inn = model.iter().filter(|&&(_, b)| b == n).count();
            let either: BTreeSet<u32> = model
                .iter()
                .filter_map(|&(a, b)| match (a == n, b == n) {
                    (true, _) => Some(b),
                    (_, true) => Some(a),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(s.out_degree(NodeId(n)), out, "out-degree of {}", n);
            prop_assert_eq!(s.in_degree(NodeId(n)), inn, "in-degree of {}", n);
            prop_assert_eq!(s.degree(NodeId(n)), either.len(), "degree of {}", n);
        }
        prop_assert_eq!(s.total_transmissions(), links.len() as u64);
        Ok(())
    }

    proptest! {
        /// The link rows against a `BTreeSet` of links. Twelve ids and
        /// streams of up to 300 sends cover self-links, repeats, links
        /// in both directions and senders past the seven inline
        /// receivers; the second stream runs on the same stats after a
        /// `reset` to another id space, reusing the spill lists the
        /// first one left behind.
        #[test]
        fn degrees_match_a_link_set_model(
            first in proptest::collection::vec((0u32..12, 0u32..12), 0..300),
            second in proptest::collection::vec((0u32..12, 0u32..12), 0..300),
            n2 in 1u32..=12,
        ) {
            let mut s = TrafficStats::new(12);
            check_against_model(&mut s, 12, &first)?;
            s.reset(n2 as usize);
            let second: Vec<(u32, u32)> = second.iter().map(|&(a, b)| (a % n2, b % n2)).collect();
            check_against_model(&mut s, n2, &second)?;
        }
    }

    #[test]
    fn a_hub_spills_past_its_inline_row() {
        // The source sends to 20 receivers, some twice, and hears back
        // from every third one: its row spills at the eighth.
        let mut s = TrafficStats::new(21);
        for round in 0..2 {
            for to in (1..=20).rev() {
                s.record(&Transmission::local(NodeId(0), NodeId(to), PacketId(round)));
            }
        }
        for from in (3..=20).step_by(3) {
            s.record(&Transmission::local(NodeId(from), NodeId(0), PacketId(0)));
        }
        assert_eq!(s.out_degree(NodeId(0)), 20);
        assert_eq!(s.in_degree(NodeId(0)), 6);
        assert_eq!(s.degree(NodeId(0)), 20);
        assert_eq!(s.degree(NodeId(3)), 1);
        assert_eq!(s.total_transmissions(), 46);
    }

    #[test]
    fn neighbor_sets_deduplicate() {
        let mut s = TrafficStats::new(4);
        let tx = Transmission::local(NodeId(1), NodeId(2), PacketId(0));
        s.record(&tx);
        s.record(&Transmission::local(NodeId(1), NodeId(2), PacketId(1)));
        s.record(&Transmission::local(NodeId(1), NodeId(3), PacketId(2)));
        assert_eq!(s.out_degree(NodeId(1)), 2);
        assert_eq!(s.in_degree(NodeId(2)), 1);
        assert_eq!(s.total_transmissions(), 3);
    }

    #[test]
    fn degree_unions_directions() {
        let mut s = TrafficStats::new(4);
        s.record(&Transmission::local(NodeId(1), NodeId(2), PacketId(0)));
        s.record(&Transmission::local(NodeId(3), NodeId(1), PacketId(0)));
        // node 1 talks to 2 (out) and 3 (in) → degree 2
        assert_eq!(s.degree(NodeId(1)), 2);
        // exchange with the same node counts once
        s.record(&Transmission::local(NodeId(2), NodeId(1), PacketId(1)));
        assert_eq!(s.degree(NodeId(1)), 2);
    }

    #[test]
    fn upload_counts_accumulate() {
        let mut s = TrafficStats::new(3);
        s.record(&Transmission::local(NodeId(1), NodeId(2), PacketId(0)));
        s.record(&Transmission::local(NodeId(1), NodeId(2), PacketId(1)));
        assert_eq!(s.uploads(NodeId(1)), 2);
        assert_eq!(s.uploads(NodeId(2)), 0);
        assert_eq!(s.upload_counts(), &[0, 2, 0]);
    }

    #[test]
    fn duplicates_counted() {
        let mut s = TrafficStats::new(2);
        assert_eq!(s.duplicate_deliveries(), 0);
        s.record_duplicate();
        s.record_duplicate();
        assert_eq!(s.duplicate_deliveries(), 2);
    }
}
