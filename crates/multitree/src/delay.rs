//! Exact per-node playback delay and buffer occupancy (closed form).
//!
//! Rather than running the slot simulator, this module evaluates the
//! arrival recursion of [`crate::schedule`] directly and feeds it through
//! the same playback analysis as the simulator
//! ([`clustream_sim::ArrivalTable`]), so the two paths are comparable
//! packet-for-packet — the tests in this crate assert they agree exactly.
//! The closed form is what makes the Figure 4 sweep over `N ≤ 2000`,
//! `d ∈ {2..5}` cheap.

use crate::schedule::MultiTreeScheme;
use clustream_core::{CoreError, NodeId, PacketId, QosReport, Scheme, Slot};
use clustream_sim::ArrivalTable;

/// Closed-form delay/buffer profile of a multi-tree schedule.
#[derive(Debug, Clone)]
pub struct DelayProfile {
    qos: QosReport,
    table: ArrivalTable,
}

impl DelayProfile {
    /// Evaluate the schedule for all real receivers.
    ///
    /// The arrival pattern is exactly periodic (packet `j + d` arrives `d`
    /// slots after packet `j`), so a window of
    /// `max-first-arrival + 3d` packets provably contains each node's
    /// buffer high-water mark.
    pub fn compute(scheme: &MultiTreeScheme) -> Result<Self, CoreError> {
        let forest = scheme.forest();
        let d = forest.d();
        let n = forest.n();

        // Window size: cover the slowest first arrival plus padding.
        let max_first = (0..d)
            .flat_map(|k| (1..=forest.n_pad()).map(move |p| (k, p)))
            .map(|(k, p)| scheme.recv_slot_at(k, p, 0))
            .max()
            .unwrap_or(0);
        let track = (max_first + 3 * d as u64 + 1).div_ceil(d as u64) * d as u64;

        let mut table = ArrivalTable::try_new(n + 1, track)?;
        for node in 1..=n as u32 {
            for k in 0..d {
                let pos = forest.position(k, node);
                let mut m = 0u64;
                loop {
                    let packet = k as u64 + m * d as u64;
                    if packet >= track {
                        break;
                    }
                    // usable = receive slot + 1 (simulator convention)
                    table.record(
                        NodeId(node),
                        PacketId(packet),
                        Slot(scheme.recv_slot_at(k, pos, m) + 1),
                    );
                    m += 1;
                }
            }
        }

        let mut nodes = Vec::with_capacity(n);
        for node in 1..=n as u32 {
            let pb = table.analyze(NodeId(node))?;
            nodes.push(clustream_core::NodeQos {
                node: NodeId(node),
                playback_delay: pb.playback_delay,
                max_buffer: pb.max_buffer,
                // Closed form doesn't count traffic; the paper's structural
                // bound is ≤ 2d neighbors (d parents + d children).
                out_neighbors: 0,
                in_neighbors: 0,
                neighbors: 0,
            });
        }
        Ok(DelayProfile {
            qos: QosReport::new(scheme.name(), nodes),
            table,
        })
    }

    /// Aggregate QoS (delays and buffers; neighbor fields are zero here —
    /// use the simulator for measured neighbor counts).
    pub fn qos(&self) -> &QosReport {
        &self.qos
    }

    /// The synthesized arrival table (for cross-validation).
    pub fn arrivals(&self) -> &ArrivalTable {
        &self.table
    }

    /// Worst-case playback delay `T = max_i a(i)`.
    pub fn max_delay(&self) -> u64 {
        self.qos.max_delay()
    }

    /// Average playback delay `Σ a(i) / N`.
    pub fn avg_delay(&self) -> f64 {
        self.qos.avg_delay()
    }

    /// Worst-case buffer occupancy in packets.
    pub fn max_buffer(&self) -> usize {
        self.qos.max_buffer()
    }
}

/// Distribution of per-tree delays of tree `k`'s **leaf** nodes, keyed by
/// inter-layer delay sum (the appendix's `A(i, k)` for `i ∈ L_k`,
/// expressed in 1-based slots like the paper's `A(1,1) = 1`).
///
/// Lemma 1 (appendix): in a complete forest, the number of leaves with
/// delay `j` equals the number with delay `(d+1)(h−1) − j` — the
/// inter-layer delays `X_ℓ ∈ {1..d}` are symmetric around `(d+1)/2`.
pub fn leaf_delay_distribution(
    scheme: &MultiTreeScheme,
    k: usize,
) -> std::collections::BTreeMap<u64, usize> {
    let forest = scheme.forest();
    let mut map = std::collections::BTreeMap::new();
    for pos in forest.interior_count() + 1..=forest.n_pad() {
        // 1-based delay of the tree's first packet (every tree injects its
        // first packet to child r during slot r, so the origin is slot 0
        // for all k).
        let a = scheme.recv_slot_at(k, pos, 0) + 1;
        *map.entry(a).or_insert(0usize) += 1;
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_forest;
    use crate::schedule::StreamMode;
    use crate::structured::structured_forest;
    use clustream_sim::{SimConfig, Simulator};

    #[test]
    fn paper_node1_needs_buffer_three() {
        // §2.3: in the Figure 3 multi-tree, node 1 receives packets 0, 1, 2
        // in slots 0, 2, 1 ⇒ buffer of 3 suffices.
        let f = structured_forest(15, 3).unwrap();
        let s = MultiTreeScheme::new(f, StreamMode::PreRecorded);
        assert_eq!(s.first_recv(0, 1), 0);
        assert_eq!(s.first_recv(1, 1), 2);
        assert_eq!(s.first_recv(2, 1), 1);
        let p = DelayProfile::compute(&s).unwrap();
        let q = p.qos().node(NodeId(1)).unwrap();
        assert_eq!(q.max_buffer, 3);
        assert_eq!(q.playback_delay, 2); // a(1) = max(0−0, 2−1, 1−2) + 1
    }

    #[test]
    fn closed_form_agrees_with_simulator() {
        for &(n, d) in &[(15usize, 3usize), (31, 2), (12, 4), (6, 2), (45, 5)] {
            for &structured in &[true, false] {
                let f = if structured {
                    structured_forest(n, d).unwrap()
                } else {
                    greedy_forest(n, d).unwrap()
                };
                let mut s = MultiTreeScheme::new(f, StreamMode::PreRecorded);
                let profile = DelayProfile::compute(&s).unwrap();
                let track = profile.arrivals().track_packets();
                let r = Simulator::run(&mut s, &SimConfig::until_complete(track, 100_000)).unwrap();
                for node in r.qos.nodes.iter() {
                    let c = profile.qos().node(node.node).unwrap();
                    assert_eq!(
                        node.playback_delay, c.playback_delay,
                        "delay mismatch N={n} d={d} node {}",
                        node.node
                    );
                    assert_eq!(
                        node.max_buffer, c.max_buffer,
                        "buffer mismatch N={n} d={d} node {}",
                        node.node
                    );
                }
            }
        }
    }

    #[test]
    fn worst_case_delay_within_theorem2_bound() {
        // T ≤ h·d (Theorem 2), h = tree height of the padded forest.
        for n in 1..=64 {
            for d in 2..=5 {
                let f = greedy_forest(n, d).unwrap();
                let h = f.height() as u64;
                let s = MultiTreeScheme::new(f, StreamMode::PreRecorded);
                let p = DelayProfile::compute(&s).unwrap();
                assert!(
                    p.max_delay() <= h * d as u64,
                    "N={n} d={d}: delay {} > h·d = {}",
                    p.max_delay(),
                    h * d as u64
                );
            }
        }
    }

    #[test]
    fn buffer_bound_hd_holds() {
        // §2.3: "a buffer of size h·d is sufficient at every node".
        for &(n, d) in &[(15usize, 3usize), (63, 2), (40, 4), (100, 3)] {
            let f = greedy_forest(n, d).unwrap();
            let h = f.height();
            let s = MultiTreeScheme::new(f, StreamMode::PreRecorded);
            let p = DelayProfile::compute(&s).unwrap();
            assert!(
                p.max_buffer() <= h * d + 1,
                "N={n} d={d}: buffer {} > h·d = {}",
                p.max_buffer(),
                h * d
            );
        }
    }

    #[test]
    fn best_node_starts_within_d_slots() {
        // A node's delay is governed by its *worst* tree position, but the
        // luckiest node (near the root in every tree) starts within d
        // slots: node 1 in the Figure 3 forest has a(1) = 2 ≤ d = 3.
        let f = structured_forest(15, 3).unwrap();
        let s = MultiTreeScheme::new(f, StreamMode::PreRecorded);
        let p = DelayProfile::compute(&s).unwrap();
        let min = p
            .qos()
            .nodes
            .iter()
            .map(|q| q.playback_delay)
            .min()
            .unwrap();
        assert!(min <= 3, "min delay {min}");
        // And nobody can start before slot 1.
        assert!(p.qos().nodes.iter().all(|q| q.playback_delay >= 1));
    }

    /// Lemma 1 (appendix): the leaf-delay distribution of every tree is
    /// symmetric — as many leaves at delay `j` as at `min+max−j`.
    #[test]
    fn lemma1_leaf_delay_symmetry() {
        use super::leaf_delay_distribution;
        for (n, d) in [(12usize, 3usize), (39, 3), (14, 2), (30, 2), (20, 4)] {
            let f = greedy_forest(n, d).unwrap();
            let s = MultiTreeScheme::new(f, StreamMode::PreRecorded);
            for k in 0..d {
                let dist = leaf_delay_distribution(&s, k);
                let lo = *dist.keys().next().unwrap();
                let hi = *dist.keys().last().unwrap();
                for (&j, &count) in &dist {
                    let mirror = lo + hi - j;
                    assert_eq!(
                        dist.get(&mirror).copied().unwrap_or(0),
                        count,
                        "N={n} d={d} tree {k}: delay {j} has {count} leaves, \
                         mirror {mirror} differs"
                    );
                }
            }
        }
    }

    /// The paper's concrete anchors from the Theorem 3 proof:
    /// `A(1, T_0) = 1` and `A(d, T_0) = d` (1-based, tree origin).
    #[test]
    fn theorem3_anchor_values() {
        let f = greedy_forest(15, 3).unwrap();
        let s = MultiTreeScheme::new(f, StreamMode::PreRecorded);
        assert_eq!(s.first_recv(0, 1) + 1, 1); // A(1, T_0) = 1
        assert_eq!(s.first_recv(0, 3) + 1, 3); // A(d, T_0) = d
    }

    #[test]
    fn live_prebuffered_adds_exactly_d_delay() {
        let f = greedy_forest(20, 4).unwrap();
        let pre = DelayProfile::compute(&MultiTreeScheme::new(f.clone(), StreamMode::PreRecorded))
            .unwrap();
        let live =
            DelayProfile::compute(&MultiTreeScheme::new(f, StreamMode::LivePrebuffered)).unwrap();
        for (a, b) in pre.qos().nodes.iter().zip(live.qos().nodes.iter()) {
            assert_eq!(b.playback_delay, a.playback_delay + 4, "node {}", a.node);
        }
    }

    #[test]
    fn pipelined_delay_at_most_prebuffered_plus_d() {
        // Pipelining skews tree k's start by ≤ 2k ≤ 2(d−1); neither live
        // variant dominates in general, but both stay within ~2d of the
        // pre-recorded schedule.
        for &(n, d) in &[(15usize, 3usize), (40, 5), (9, 2)] {
            let f = greedy_forest(n, d).unwrap();
            let pre =
                DelayProfile::compute(&MultiTreeScheme::new(f.clone(), StreamMode::PreRecorded))
                    .unwrap();
            let pip =
                DelayProfile::compute(&MultiTreeScheme::new(f, StreamMode::LivePipelined)).unwrap();
            assert!(pip.max_delay() >= pre.max_delay());
            assert!(
                pip.max_delay() <= pre.max_delay() + 2 * d as u64,
                "N={n} d={d}: {} vs {}",
                pip.max_delay(),
                pre.max_delay()
            );
        }
    }
}
