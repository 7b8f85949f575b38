//! The single-tree baseline: one `d`-ary tree rooted at the source.
//!
//! In the *elevated-capacity* model every interior node (and the source)
//! uploads `d` packets per slot — one copy of the current packet to each
//! child — so packet `p` reaches depth `δ` at slot `p + δ`: delay
//! `⌈log_d N⌉`-ish, buffer `O(1)`. The paper rejects this model because
//! interior upload must be `d×` the stream rate while leaves upload
//! nothing.
//!
//! The *unit-capacity* variant keeps the same tree but lets each interior
//! node send only one packet per slot, round-robining its children; each
//! child then receives only every `d`-th packet of its parent's intake, so
//! for `d ≥ 2` the stream **cannot be sustained** — delays diverge
//! linearly. The tests demonstrate exactly that failure.

use clustream_core::{NodeId, PacketId, Scheme, Slot, StateView, Transmission, SOURCE};

/// Which upload model the single tree runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Capacity {
    /// Interior nodes upload `d` packets per slot (the shallow-tree model
    /// the paper criticizes as unrealistic).
    Elevated,
    /// Interior nodes upload 1 packet per slot (the paper's model); the
    /// tree then starves its subtrees.
    Unit,
}

/// A single `d`-ary BFS tree over receivers `1..=N`, rooted at the source.
#[derive(Debug, Clone)]
pub struct SingleTreeScheme {
    n: usize,
    d: usize,
    capacity: Capacity,
}

impl SingleTreeScheme {
    /// Elevated-capacity single tree (`d ≥ 1`, `n ≥ 1`).
    pub fn new(n: usize, d: usize) -> Self {
        assert!(n >= 1 && d >= 1);
        SingleTreeScheme {
            n,
            d,
            capacity: Capacity::Elevated,
        }
    }

    /// Unit-capacity single tree — demonstrably unsustainable for `d ≥ 2`.
    pub fn unit_capacity(n: usize, d: usize) -> Self {
        assert!(n >= 1 && d >= 1);
        SingleTreeScheme {
            n,
            d,
            capacity: Capacity::Unit,
        }
    }

    /// Depth of node `i` in the BFS layout (root children = 1).
    pub fn depth(&self, i: u32) -> u64 {
        Self::bfs_depth(self.d, i)
    }

    /// Depth of node `i` in the BFS layout of any `d`-ary (`d ≥ 1`)
    /// single tree — a property of the layout, not of an instance.
    pub fn bfs_depth(d: usize, i: u32) -> u64 {
        let mut depth = 0;
        let mut p = i as u64;
        while p >= 1 {
            p = (p - 1) / d as u64;
            depth += 1;
        }
        depth
    }

    /// Number of leaf nodes — receivers contributing no upload.
    pub fn leaf_count(&self) -> usize {
        (1..=self.n as u32)
            .filter(|&i| (i as usize) * self.d + 1 > self.n)
            .count()
    }

    fn children(&self, p: u64) -> impl Iterator<Item = u64> + '_ {
        (p * self.d as u64 + 1..=p * self.d as u64 + self.d as u64).filter(|&c| c <= self.n as u64)
    }
}

impl Scheme for SingleTreeScheme {
    fn name(&self) -> String {
        let cap = match self.capacity {
            Capacity::Elevated => "elevated",
            Capacity::Unit => "unit",
        };
        format!("single-tree(d={}, {cap})", self.d)
    }

    fn num_receivers(&self) -> usize {
        self.n
    }

    fn send_capacity(&self, node: NodeId) -> usize {
        match self.capacity {
            Capacity::Elevated => self.d,
            Capacity::Unit => {
                if node.is_source() {
                    // The paper grants the source d× capacity in every
                    // scheme; the criticism targets interior receivers.
                    self.d
                } else {
                    1
                }
            }
        }
    }

    fn availability(&self) -> clustream_core::Availability {
        clustream_core::Availability::Live
    }

    fn transmissions(&mut self, slot: Slot, view: &dyn StateView, out: &mut Vec<Transmission>) {
        let t = slot.t();
        match self.capacity {
            Capacity::Elevated => {
                // Node at depth δ holds packet t − δ and fans it out.
                // BFS order: node p's packet is t − depth(p).
                for c in self.children(0) {
                    out.push(Transmission::local(SOURCE, NodeId(c as u32), PacketId(t)));
                }
                for p in 1..=self.n as u64 {
                    let depth = self.depth(p as u32);
                    if t >= depth {
                        for c in self.children(p) {
                            out.push(Transmission::local(
                                NodeId(p as u32),
                                NodeId(c as u32),
                                PacketId(t - depth),
                            ));
                        }
                    }
                }
            }
            Capacity::Unit => {
                // Source fans out packet t to all its children (capacity
                // d); interior receivers round-robin their children,
                // forwarding the newest packet they actually hold. Each
                // child is served only every d-th slot, so it receives a
                // sparse subset of the stream — starvation by
                // construction.
                for c in self.children(0) {
                    out.push(Transmission::local(SOURCE, NodeId(c as u32), PacketId(t)));
                }
                for p in 1..=self.n as u64 {
                    let kids: Vec<u64> = self.children(p).collect();
                    if kids.is_empty() {
                        continue;
                    }
                    let c_idx = (t % self.d as u64) as usize;
                    if c_idx >= kids.len() {
                        continue;
                    }
                    let kid = NodeId(kids[c_idx] as u32);
                    if let Some(newest) = view.newest(NodeId(p as u32)) {
                        if !view.holds(kid, newest) {
                            out.push(Transmission::local(NodeId(p as u32), kid, newest));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustream_core::CoreError;
    use clustream_sim::{SimConfig, Simulator};

    #[test]
    fn elevated_tree_delay_equals_depth() {
        let mut s = SingleTreeScheme::new(13, 3);
        let sc = s.clone();
        let r = Simulator::run(&mut s, &SimConfig::until_complete(12, 1000)).unwrap();
        for q in &r.qos.nodes {
            assert_eq!(q.playback_delay, sc.depth(q.node.0), "node {}", q.node);
            assert!(q.max_buffer <= 2);
        }
        assert_eq!(r.duplicate_deliveries, 0);
    }

    #[test]
    fn elevated_tree_wastes_leaf_upload() {
        // The paper's §1 criticism: ~half the nodes (for d = 2) upload
        // nothing.
        let s = SingleTreeScheme::new(15, 2);
        assert_eq!(s.leaf_count(), 8);
        let mut s2 = SingleTreeScheme::new(15, 2);
        let r = Simulator::run(&mut s2, &SimConfig::until_complete(10, 1000)).unwrap();
        let silent = r.qos.nodes.iter().filter(|q| q.out_neighbors == 0).count();
        assert_eq!(silent, 8);
    }

    #[test]
    fn unit_capacity_tree_starves() {
        // With unit upload, depth-2 nodes' arrivals lag by d per level and
        // the inter-arrival gap is d slots for a 1-slot playback: the
        // stream is unsustainable. Over a fixed horizon, deep nodes simply
        // never accumulate the tracked prefix.
        let mut s = SingleTreeScheme::unit_capacity(13, 3);
        let err = Simulator::run(
            &mut s,
            &SimConfig {
                max_slots: 400,
                track_packets: 64,
                stop_when_complete: false,
                ..SimConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Hiccup { .. }), "{err}");
    }

    #[test]
    fn depth_arithmetic() {
        let s = SingleTreeScheme::new(13, 3);
        assert_eq!(s.depth(1), 1);
        assert_eq!(s.depth(3), 1);
        assert_eq!(s.depth(4), 2);
        assert_eq!(s.depth(13), 3);
    }
}
