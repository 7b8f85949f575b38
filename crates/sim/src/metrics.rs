//! Traffic and communication-requirement accounting.
//!
//! The paper's third QoS axis is the number of distinct neighbors a node
//! must communicate with (footnote 1): each live peering costs protocol
//! maintenance (keep-alives, churn handling), which is why the multi-tree
//! scheme's `O(d)` neighbors versus the hypercube scheme's `O(log N)` is a
//! headline difference in Table 1.

use clustream_core::{NodeId, Transmission};

/// Accumulates per-node neighbor sets and global traffic counters.
///
/// Neighbor sets are sorted `Vec<u32>`s, not hash sets: degrees are
/// `O(d)` / `O(log N)` by the paper's construction, so a binary-search
/// insert into a handful of contiguous words beats a hashed probe —
/// `record` sits on the per-transmission hot path of every engine.
#[derive(Debug, Clone, Default)]
pub struct TrafficStats {
    out_neighbors: Vec<Vec<u32>>,
    in_neighbors: Vec<Vec<u32>>,
    // The counters are crate-visible for the mega engine's steady-state
    // gears, which account replayed sends in bulk.
    pub(crate) uploads: Vec<u64>,
    pub(crate) total_transmissions: u64,
    pub(crate) duplicate_deliveries: u64,
}

/// Set-insert into a sorted vector.
#[inline]
fn insert_sorted(set: &mut Vec<u32>, id: u32) {
    if let Err(at) = set.binary_search(&id) {
        set.insert(at, id);
    }
}

impl TrafficStats {
    /// Stats for an id space of `n_ids` nodes.
    pub fn new(n_ids: usize) -> Self {
        TrafficStats {
            out_neighbors: vec![Vec::new(); n_ids],
            in_neighbors: vec![Vec::new(); n_ids],
            uploads: vec![0; n_ids],
            total_transmissions: 0,
            duplicate_deliveries: 0,
        }
    }

    /// Zero every counter and neighbor set for a new run over `n_ids`
    /// nodes, keeping the allocations (the slot kernel's arena reset).
    pub fn reset(&mut self, n_ids: usize) {
        for v in self.out_neighbors.iter_mut().chain(&mut self.in_neighbors) {
            v.clear();
        }
        self.out_neighbors.resize(n_ids, Vec::new());
        self.in_neighbors.resize(n_ids, Vec::new());
        self.uploads.clear();
        self.uploads.resize(n_ids, 0);
        self.total_transmissions = 0;
        self.duplicate_deliveries = 0;
    }

    /// Record one transmission (called once per validated send).
    #[inline]
    pub fn record(&mut self, tx: &Transmission) {
        insert_sorted(&mut self.out_neighbors[tx.from.index()], tx.to.0);
        insert_sorted(&mut self.in_neighbors[tx.to.index()], tx.from.0);
        self.uploads[tx.from.index()] += 1;
        self.total_transmissions += 1;
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
        self.out_neighbors[node.index()].len()
    }

    /// Number of distinct nodes `node` received from.
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.in_neighbors[node.index()].len()
    }

    /// Distinct nodes communicated with in either direction: two-pointer
    /// merge count over the sorted adjacency vectors.
    pub fn degree(&self, node: NodeId) -> usize {
        let (a, b) = (
            &self.out_neighbors[node.index()],
            &self.in_neighbors[node.index()],
        );
        let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
        while i < a.len() && j < b.len() {
            count += 1;
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        count + (a.len() - i) + (b.len() - j)
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
