//! QoE metrics: interruption probability, initial-buffering tradeoff
//! curves, and throughput–smoothness frontiers.
//!
//! The paper bounds worst-case playback delay and buffer space; modern
//! streaming work reports the same tension as *quality-of-experience*
//! frontiers. This module computes those frontiers from per-node
//! arrival timelines, policy-parameterised:
//!
//! * **Interruption probability** and the **initial-buffering vs.
//!   interruption tradeoff** (ParandehGheibi et al., arXiv:1001.1937):
//!   under the *wait* policy a node buffers for `initial_delay` slots
//!   after joining, then plays one packet per slot, stalling whenever
//!   the next packet has not arrived. A node with ≥ 1 stall is
//!   interrupted; sweeping `initial_delay` trades startup latency
//!   against interruption rate.
//! * **Throughput–smoothness frontier** (Joshi et al., arXiv:1405.3697):
//!   the *skip* policy never stalls — a packet that misses its play
//!   slot is dropped — giving smoothness 1 at reduced throughput, while
//!   *wait* delivers every received packet at reduced smoothness.
//!   Sweeping both policies over the delay grid traces the frontier.
//!
//! All metrics are pure functions of [`NodeTimeline`]s, so every engine
//! (and hand computation in the tests) feeds the same math.

/// When a node joined and when each packet became usable for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeTimeline {
    /// External node id.
    pub node: u64,
    /// Slot the node joined (0 for initial members).
    pub join_slot: u64,
    /// `usable[p]` = slot packet `p` became usable at this node;
    /// `None` = never received.
    pub usable: Vec<Option<u64>>,
}

/// What the player does when the next packet has not arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlayPolicy {
    /// Stall until the packet arrives (every received packet plays).
    Wait,
    /// Skip it and keep the play-out clock running (never stalls).
    Skip,
}

impl PlayPolicy {
    /// The policy's label in reports.
    pub fn label(&self) -> &'static str {
        match self {
            PlayPolicy::Wait => "wait",
            PlayPolicy::Skip => "skip",
        }
    }
}

/// Per-node playback outcome for one `(policy, initial_delay)` point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeQoe {
    /// External node id.
    pub node: u64,
    /// Packets in the node's playback window (first received id to the
    /// end of the tracked window).
    pub wanted: u64,
    /// Packets actually played.
    pub played: u64,
    /// Packets skipped (never received, or late under [`PlayPolicy::Skip`]).
    pub skipped: u64,
    /// Stall (rebuffering) events after playback started.
    pub stall_events: u64,
    /// Total slots spent stalled.
    pub stall_slots: u64,
    /// Whether playback was interrupted (≥ 1 stall, or ≥ 1 skip under
    /// [`PlayPolicy::Skip`]); a node that played nothing counts as
    /// interrupted.
    pub interrupted: bool,
}

impl NodeQoe {
    /// Fraction of play-out time spent playing rather than stalled:
    /// `played / (played + stall_slots)`; 0 if nothing played.
    pub fn smoothness(&self) -> f64 {
        if self.played == 0 {
            0.0
        } else {
            self.played as f64 / (self.played + self.stall_slots) as f64
        }
    }

    /// Fraction of the wanted window that played: `played / wanted`;
    /// 0 if the window is empty.
    pub fn throughput(&self) -> f64 {
        if self.wanted == 0 {
            0.0
        } else {
            self.played as f64 / self.wanted as f64
        }
    }
}

/// Play one node's timeline under `policy` with `initial_delay` slots
/// of startup buffering.
///
/// Playback starts at `join_slot + initial_delay` from the first packet
/// the node ever received, at one packet per slot. Packets never
/// received are skipped under both policies (a pure waiter would hang
/// forever on them); [`PlayPolicy::Wait`] stalls for late packets,
/// [`PlayPolicy::Skip`] drops them.
pub fn play(tl: &NodeTimeline, policy: PlayPolicy, initial_delay: u64) -> NodeQoe {
    let first = tl.usable.iter().position(|u| u.is_some());
    let Some(first) = first else {
        return NodeQoe {
            node: tl.node,
            wanted: tl.usable.len() as u64,
            played: 0,
            skipped: tl.usable.len() as u64,
            stall_events: 0,
            stall_slots: 0,
            interrupted: true,
        };
    };
    let wanted = (tl.usable.len() - first) as u64;
    let start = tl.join_slot + initial_delay;
    let (mut played, mut skipped, mut stall_events, mut stall_slots) = (0u64, 0u64, 0u64, 0u64);
    match policy {
        PlayPolicy::Wait => {
            let mut clock = start;
            for u in &tl.usable[first..] {
                let Some(s) = *u else {
                    skipped += 1;
                    continue;
                };
                if s > clock {
                    stall_events += 1;
                    stall_slots += s - clock;
                    clock = s;
                }
                played += 1;
                clock += 1;
            }
        }
        PlayPolicy::Skip => {
            for (i, u) in tl.usable[first..].iter().enumerate() {
                let sched = start + i as u64;
                match *u {
                    Some(s) if s <= sched => played += 1,
                    _ => skipped += 1,
                }
            }
        }
    }
    let interrupted = match policy {
        PlayPolicy::Wait => stall_events > 0 || played == 0,
        PlayPolicy::Skip => skipped > 0 || played == 0,
    };
    NodeQoe {
        node: tl.node,
        wanted,
        played,
        skipped,
        stall_events,
        stall_slots,
        interrupted,
    }
}

/// Population-level QoE for one `(policy, initial_delay)` point.
#[derive(Debug, Clone, PartialEq)]
pub struct QoeSummary {
    /// Playback policy the point was evaluated under.
    pub policy: PlayPolicy,
    /// Startup buffering delay, in slots.
    pub initial_delay: u64,
    /// Nodes evaluated.
    pub nodes: u64,
    /// Nodes with an interrupted playback.
    pub interrupted_nodes: u64,
    /// `interrupted_nodes / nodes`.
    pub interruption_probability: f64,
    /// Mean stall slots per node.
    pub mean_stall_slots: f64,
    /// Mean per-node smoothness.
    pub smoothness: f64,
    /// Mean per-node throughput.
    pub throughput: f64,
    /// Total packets played across the population.
    pub total_played: u64,
    /// Total packets skipped across the population.
    pub total_skipped: u64,
}

/// Evaluate the whole population at one `(policy, initial_delay)` point.
pub fn summarize(timelines: &[NodeTimeline], policy: PlayPolicy, initial_delay: u64) -> QoeSummary {
    let per: Vec<NodeQoe> = timelines
        .iter()
        .map(|tl| play(tl, policy, initial_delay))
        .collect();
    let nodes = per.len() as u64;
    let interrupted_nodes = per.iter().filter(|q| q.interrupted).count() as u64;
    let mean = |f: &dyn Fn(&NodeQoe) -> f64| per.iter().map(f).sum::<f64>() / nodes.max(1) as f64;
    QoeSummary {
        policy,
        initial_delay,
        nodes,
        interrupted_nodes,
        interruption_probability: interrupted_nodes as f64 / nodes.max(1) as f64,
        mean_stall_slots: mean(&|q| q.stall_slots as f64),
        smoothness: mean(&NodeQoe::smoothness),
        throughput: mean(&NodeQoe::throughput),
        total_played: per.iter().map(|q| q.played).sum(),
        total_skipped: per.iter().map(|q| q.skipped).sum(),
    }
}

/// The initial-buffering vs. interruption tradeoff: [`summarize`] under
/// [`PlayPolicy::Wait`] at every delay in `delay_grid`.
pub fn initial_buffering_frontier(
    timelines: &[NodeTimeline],
    delay_grid: &[u64],
) -> Vec<QoeSummary> {
    delay_grid
        .iter()
        .map(|&d| summarize(timelines, PlayPolicy::Wait, d))
        .collect()
}

/// The throughput–smoothness frontier: both policies swept over
/// `delay_grid`. Wait points pay smoothness for throughput 1 on the
/// received set; skip points pay throughput for smoothness 1.
pub fn throughput_smoothness_frontier(
    timelines: &[NodeTimeline],
    delay_grid: &[u64],
) -> Vec<QoeSummary> {
    let mut out = Vec::with_capacity(delay_grid.len() * 2);
    for &policy in &[PlayPolicy::Wait, PlayPolicy::Skip] {
        for &d in delay_grid {
            out.push(summarize(timelines, policy, d));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tl(node: u64, join_slot: u64, usable: Vec<Option<u64>>) -> NodeTimeline {
        NodeTimeline {
            node,
            join_slot,
            usable,
        }
    }

    #[test]
    fn fully_in_order_run_is_perfectly_smooth() {
        // Packet p usable at slot p+1; one slot of startup buffering
        // keeps the player exactly on schedule.
        let t = tl(1, 0, (0..8).map(|p| Some(p + 1)).collect());
        let q = play(&t, PlayPolicy::Wait, 1);
        assert_eq!((q.played, q.stall_events, q.stall_slots), (8, 0, 0));
        assert!(!q.interrupted);
        assert_eq!(q.smoothness(), 1.0);
        assert_eq!(q.throughput(), 1.0);
    }

    #[test]
    fn known_hiccup_run_hand_computed() {
        // usable = [1, 5, 6, 7], delay 1: packet 0 plays at slot 1;
        // packet 1 wanted at slot 2, arrives 5 → one stall of 3 slots;
        // packets 2 and 3 then arrive just in time.
        let t = tl(7, 0, vec![Some(1), Some(5), Some(6), Some(7)]);
        let q = play(&t, PlayPolicy::Wait, 1);
        assert_eq!((q.played, q.stall_events, q.stall_slots), (4, 1, 3));
        assert!(q.interrupted);
        assert_eq!(q.smoothness(), 4.0 / 7.0);
        // Four extra slots of buffering absorb the gap entirely.
        let q = play(&t, PlayPolicy::Wait, 4);
        assert_eq!((q.stall_events, q.stall_slots), (0, 0));
        assert!(!q.interrupted);
    }

    #[test]
    fn skip_policy_trades_throughput_for_smoothness() {
        let t = tl(2, 0, vec![Some(1), Some(5), Some(6), Some(7)]);
        let q = play(&t, PlayPolicy::Skip, 1);
        // Slots 1..5 schedule packets 0..4; only packet 0 is on time.
        assert_eq!((q.played, q.skipped), (1, 3));
        assert_eq!(q.smoothness(), 1.0);
        assert_eq!(q.throughput(), 0.25);
        assert!(q.interrupted);
    }

    #[test]
    fn interruption_probability_counts_interrupted_nodes() {
        let smooth = tl(1, 0, (0..4).map(|p| Some(p + 1)).collect());
        let stalling = tl(2, 0, vec![Some(1), Some(9), Some(10), Some(11)]);
        let s = summarize(&[smooth, stalling], PlayPolicy::Wait, 1);
        assert_eq!(s.nodes, 2);
        assert_eq!(s.interrupted_nodes, 1);
        assert_eq!(s.interruption_probability, 0.5);
        // The stalling node waits slots 2..9 for packet 1: 7 slots,
        // averaged over both nodes.
        assert_eq!(s.mean_stall_slots, 3.5);
    }

    #[test]
    fn late_joiner_plays_from_its_first_packet() {
        // Joined at slot 10, missed packets 0..2 entirely; wanted
        // window starts at packet 2.
        let t = tl(3, 10, vec![None, None, Some(11), Some(12)]);
        let q = play(&t, PlayPolicy::Wait, 1);
        assert_eq!((q.wanted, q.played, q.skipped), (2, 2, 0));
        assert!(!q.interrupted);
    }

    #[test]
    fn node_with_nothing_received_is_interrupted() {
        let t = tl(4, 0, vec![None, None]);
        let q = play(&t, PlayPolicy::Wait, 0);
        assert_eq!((q.played, q.skipped), (0, 2));
        assert!(q.interrupted);
        assert_eq!(q.smoothness(), 0.0);
        assert_eq!(q.throughput(), 0.0);
    }

    #[test]
    fn frontier_interruption_rate_is_monotone_in_delay() {
        let mut tls = Vec::new();
        for n in 0..10u64 {
            // Node n's packet p arrives at p + 1 + n: deeper nodes need
            // more startup buffering.
            tls.push(tl(n, 0, (0..12).map(|p| Some(p + 1 + n)).collect()));
        }
        let grid: Vec<u64> = (0..12).collect();
        let frontier = initial_buffering_frontier(&tls, &grid);
        let probs: Vec<f64> = frontier
            .iter()
            .map(|s| s.interruption_probability)
            .collect();
        for w in probs.windows(2) {
            assert!(
                w[1] <= w[0],
                "interruption must not rise with delay: {probs:?}"
            );
        }
        assert_eq!(*probs.last().unwrap(), 0.0);
    }
}
