//! Quality-of-service measurements: playback delay, buffer space, neighbors.
//!
//! These are exactly the three axes of the paper's Table 1. The simulator
//! produces one [`NodeQos`] per receiver and aggregates them into a
//! [`QosReport`].

use crate::ids::NodeId;
use serde::{Deserialize, Serialize};

/// QoS observed for one receiver.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeQos {
    /// The receiver this record describes.
    pub node: NodeId,
    /// Minimal safe playback start `a(i)`: the earliest slot at which the
    /// node can begin consuming one packet per slot and never hiccup.
    /// Packet `j` is played during slot `a(i) + j`, so this equals the
    /// paper's *playback delay* in time slots.
    pub playback_delay: u64,
    /// Maximum number of packets simultaneously buffered (arrived but not
    /// yet played) when playback starts at `playback_delay`.
    pub max_buffer: usize,
    /// Distinct nodes this receiver sent packets to.
    pub out_neighbors: usize,
    /// Distinct nodes this receiver received packets from.
    pub in_neighbors: usize,
    /// Distinct nodes communicated with in either direction (the paper's
    /// "number of neighbors with which a node needs to communicate").
    pub neighbors: usize,
}

/// Aggregate QoS over all receivers of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QosReport {
    /// Scheme identifier (from [`crate::Scheme::name`]).
    pub scheme: String,
    /// Number of receivers measured.
    pub n: usize,
    /// Per-node records, sorted by node id.
    pub nodes: Vec<NodeQos>,
}

impl QosReport {
    /// Build a report, sorting records by node id.
    pub fn new(scheme: String, mut nodes: Vec<NodeQos>) -> Self {
        nodes.sort_by_key(|q| q.node);
        let n = nodes.len();
        QosReport { scheme, n, nodes }
    }

    /// Worst-case playback delay over all receivers (paper: "Max Delay").
    pub fn max_delay(&self) -> u64 {
        self.nodes
            .iter()
            .map(|q| q.playback_delay)
            .max()
            .unwrap_or(0)
    }

    /// Average playback delay (paper: "Ave Delay", `Σ a(i) / N`).
    pub fn avg_delay(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes
            .iter()
            .map(|q| q.playback_delay as f64)
            .sum::<f64>()
            / self.nodes.len() as f64
    }

    /// Worst-case buffer occupancy over all receivers (paper: "Buffer
    /// Size", in packets).
    pub fn max_buffer(&self) -> usize {
        self.nodes.iter().map(|q| q.max_buffer).max().unwrap_or(0)
    }

    /// Worst-case neighbor count (paper: "Num of Neighbors").
    pub fn max_neighbors(&self) -> usize {
        self.nodes.iter().map(|q| q.neighbors).max().unwrap_or(0)
    }

    /// Record for one node, if present.
    pub fn node(&self, node: NodeId) -> Option<&NodeQos> {
        self.nodes.iter().find(|q| q.node == node)
    }

    /// Playback-delay percentile (nearest-rank; `p ∈ (0, 100]`). The 50th
    /// percentile is the median startup experience, the 95th the tail the
    /// paper's worst-case bounds guard.
    pub fn delay_percentile(&self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 100.0, "percentile out of range");
        if self.nodes.is_empty() {
            return 0;
        }
        let mut delays: Vec<u64> = self.nodes.iter().map(|q| q.playback_delay).collect();
        delays.sort_unstable();
        let rank = ((p / 100.0) * delays.len() as f64).ceil() as usize;
        delays[rank.clamp(1, delays.len()) - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(id: u32, delay: u64, buf: usize, nbrs: usize) -> NodeQos {
        NodeQos {
            node: NodeId(id),
            playback_delay: delay,
            max_buffer: buf,
            out_neighbors: nbrs,
            in_neighbors: nbrs,
            neighbors: nbrs,
        }
    }

    #[test]
    fn aggregates() {
        let r = QosReport::new(
            "test".into(),
            vec![q(2, 4, 2, 3), q(1, 6, 1, 2), q(3, 2, 5, 1)],
        );
        assert_eq!(r.n, 3);
        assert_eq!(r.max_delay(), 6);
        assert!((r.avg_delay() - 4.0).abs() < 1e-12);
        assert_eq!(r.max_buffer(), 5);
        assert_eq!(r.max_neighbors(), 3);
    }

    #[test]
    fn nodes_sorted_and_lookup_works() {
        let r = QosReport::new("test".into(), vec![q(2, 4, 2, 3), q(1, 6, 1, 2)]);
        assert_eq!(r.nodes[0].node, NodeId(1));
        assert_eq!(r.node(NodeId(2)).unwrap().playback_delay, 4);
        assert!(r.node(NodeId(9)).is_none());
    }

    #[test]
    fn empty_report_is_all_zero() {
        let r = QosReport::new("empty".into(), vec![]);
        assert_eq!(r.max_delay(), 0);
        assert_eq!(r.avg_delay(), 0.0);
        assert_eq!(r.max_buffer(), 0);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let r = QosReport::new("p".into(), (1..=10).map(|i| q(i, i as u64, 1, 1)).collect());
        assert_eq!(r.delay_percentile(50.0), 5);
        assert_eq!(r.delay_percentile(95.0), 10);
        assert_eq!(r.delay_percentile(10.0), 1);
        assert_eq!(r.delay_percentile(100.0), 10);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_zero_rejected() {
        let r = QosReport::new("x".into(), vec![q(1, 1, 1, 1)]);
        r.delay_percentile(0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let r = QosReport::new("rt".into(), vec![q(1, 6, 1, 2)]);
        let s = serde_json::to_string(&r).unwrap();
        let back: QosReport = serde_json::from_str(&s).unwrap();
        assert_eq!(back, r);
    }
}
