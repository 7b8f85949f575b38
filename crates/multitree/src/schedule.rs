//! The multi-tree transmission schedule (§2.2.3).
//!
//! Tree `T_k` carries packets `k, k+d, k+2d, …`. Writing `t = m·d + r`,
//! the source sends packet `k + m·d` to its `r`-th child in `T_k` during
//! slot `t` (one send per tree per slot — `d` sends total, the source's
//! capacity). Every interior node forwards to its `r`-th child in slots
//! `t ≡ r (mod d)`, relaying each packet exactly once per child. Arrival
//! times therefore satisfy a simple recursion: the child with child-index
//! `c` receives a packet in the first slot `> t_parent` congruent to `c`
//! mod `d`, and packet `j + d` of the same tree arrives exactly `d` slots
//! after packet `j`.
//!
//! Three stream modes are supported:
//!
//! * [`StreamMode::PreRecorded`] — all packets available at slot 0;
//! * [`StreamMode::LivePrebuffered`] — the source delays the start by `d`
//!   slots to accumulate `d` packets, then runs the pre-recorded schedule
//!   shifted by `d` ("all nodes experience `d` units of additional delay");
//! * [`StreamMode::LivePipelined`] — tree `T_k`'s injection is gated so
//!   packet `k + m·d` is never sent before slot `2k + m·d` (the paper's
//!   `r = (t+k) mod d` pipelining); receive residues are unchanged, so the
//!   schedule stays collision-free, but the per-tree start is skewed.

use crate::tree::DisjointTrees;
use clustream_core::{
    Availability, NodeId, PacketId, SchedulePeriod, Scheme, Slot, StateView, Transmission, SOURCE,
};

/// When packets become available and how the source paces injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StreamMode {
    /// §2.2.3 pre-recorded: everything available at slot 0.
    #[default]
    PreRecorded,
    /// Live; source pre-buffers `d` packets, schedule shifts by `d`.
    LivePrebuffered,
    /// Live; per-tree pipelined start (`T_k` begins ~`2k` slots in).
    LivePipelined,
}

impl StreamMode {
    /// The packet-availability model this mode implies.
    pub fn availability(self) -> Availability {
        match self {
            StreamMode::PreRecorded => Availability::PreRecorded,
            StreamMode::LivePrebuffered | StreamMode::LivePipelined => Availability::Live,
        }
    }
}

/// Smallest slot `≥ from` congruent to `c (mod d)`.
fn next_congruent(from: u64, c: u64, d: u64) -> u64 {
    from + (c + d - (from % d)) % d
}

/// The multi-tree streaming scheme: a [`DisjointTrees`] forest plus the
/// round-robin schedule, exposed both as closed-form arrival times and as a
/// [`Scheme`] for the slot simulator.
///
/// ```
/// use clustream_multitree::{greedy_forest, MultiTreeScheme, StreamMode};
/// use clustream_sim::{SimConfig, Simulator};
///
/// let forest = greedy_forest(39, 3)?; // complete: 3 + 9 + 27
/// let mut scheme = MultiTreeScheme::new(forest, StreamMode::PreRecorded);
/// let run = Simulator::run(&mut scheme, &SimConfig::until_complete(36, 10_000))?;
/// // Theorem 2: worst-case delay ≤ h·d = 3·3 for N = 39, d = 3.
/// assert!(run.qos.max_delay() <= 9);
/// assert_eq!(run.duplicate_deliveries, 0);
/// # Ok::<(), clustream_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MultiTreeScheme {
    forest: DisjointTrees,
    mode: StreamMode,
    /// `recv0[k][pos−1]`: slot in which the node at position `pos` of tree
    /// `T_k` receives the tree's first packet (packet `k`). Packet
    /// `k + m·d` arrives exactly `m·d` slots later.
    recv0: Vec<Vec<u64>>,
}

impl MultiTreeScheme {
    /// Attach the schedule to a forest.
    pub fn new(forest: DisjointTrees, mode: StreamMode) -> Self {
        let d = forest.d() as u64;
        let n_pad = forest.n_pad();
        let mut recv0 = vec![vec![0u64; n_pad]; forest.d()];
        for (k, table) in recv0.iter_mut().enumerate() {
            for pos in 1..=n_pad {
                let c = forest.child_index(pos) as u64;
                table[pos - 1] = if forest.parent_pos(pos) == 0 {
                    // Depth 1: the source's r-th child receives packet k in
                    // slot r (+ mode shift).
                    match mode {
                        StreamMode::PreRecorded => c,
                        StreamMode::LivePrebuffered => c + d,
                        // First slot ≥ 2k congruent to c mod d.
                        StreamMode::LivePipelined => next_congruent(2 * k as u64, c, d),
                    }
                } else {
                    // First slot strictly after the parent's receipt that is
                    // congruent to this child's index.
                    let t_parent = table[forest.parent_pos(pos) - 1];
                    next_congruent(t_parent + 1, c, d)
                };
                debug_assert_eq!(table[pos - 1] % d, c, "tree {k} pos {pos} off its residue");
            }
        }
        MultiTreeScheme {
            forest,
            mode,
            recv0,
        }
    }

    /// The underlying forest.
    pub fn forest(&self) -> &DisjointTrees {
        &self.forest
    }

    /// The stream mode.
    pub fn mode(&self) -> StreamMode {
        self.mode
    }

    /// Slot in which the node at position `pos` of tree `k` receives packet
    /// `k + m·d` (closed form).
    pub fn recv_slot_at(&self, k: usize, pos: usize, m: u64) -> u64 {
        self.recv0[k][pos - 1] + m * self.forest.d() as u64
    }

    /// Slot in which `node` receives tree `k`'s first packet (packet `k`).
    /// This is the paper's `A(node, k)` measured in 0-based slots.
    pub fn first_recv(&self, k: usize, node: u32) -> u64 {
        self.recv0[k][self.forest.position(k, node) - 1]
    }
}

impl Scheme for MultiTreeScheme {
    fn name(&self) -> String {
        let mode = match self.mode {
            StreamMode::PreRecorded => "prerecorded",
            StreamMode::LivePrebuffered => "live-prebuffered",
            StreamMode::LivePipelined => "live-pipelined",
        };
        format!("multi-tree(d={}, {mode})", self.forest.d())
    }

    fn num_receivers(&self) -> usize {
        self.forest.n()
    }

    fn send_capacity(&self, node: NodeId) -> usize {
        if node.is_source() {
            self.forest.d()
        } else {
            1
        }
    }

    fn availability(&self) -> Availability {
        self.mode.availability()
    }

    fn schedule_period(&self) -> Option<SchedulePeriod> {
        // Position `pos` of tree `k` becomes active at slot `recv0[k][pos−1]`
        // and then re-fires every `d` slots with the packet id advanced by
        // `d`; once every position is active (`t ≥ max recv0`) the whole
        // emission list repeats with period `d` and uniform packet delta `d`.
        let warmup = self
            .recv0
            .iter()
            .flat_map(|table| table.iter().copied())
            .max()
            .unwrap_or(0)
            + 1;
        Some(SchedulePeriod {
            warmup,
            period: self.forest.d() as u64,
        })
    }

    /// §2.2.3's calendar for slot `t`: a parent sends to its child with
    /// index `c` only in slots `t ≡ c (mod d)`, and `recv0[k][pos−1] ≡
    /// child_index(pos) = (pos−1) mod d`. So only the positions
    /// `pos = r+1+j·d` with `r = t mod d` can fire; such a position's
    /// parent is position `j`, and once active (`t ≥ recv0`) it receives
    /// packet `k + (t − recv0)`. Each tree walks that stride alone, emitting
    /// in tree-major, ascending-position order.
    fn transmissions(&mut self, slot: Slot, _view: &dyn StateView, out: &mut Vec<Transmission>) {
        let d = self.forest.d();
        let t = slot.t();
        let n_real = self.forest.n() as u32;
        let r = (t % d as u64) as usize;
        for (k, table) in self.recv0.iter().enumerate() {
            let tree = self.forest.tree(k);
            // `tree[pos−1]` and `table[pos−1]` for `pos = r+1+j·d`; `N_pad`
            // is a positive multiple of `d`, so `r < N_pad`.
            let fired = tree[r..]
                .iter()
                .step_by(d)
                .zip(table[r..].iter().step_by(d));
            for (j, (&node, &base)) in fired.enumerate() {
                if node > n_real || t < base {
                    continue; // dummy leaf, or not yet active
                }
                let packet = PacketId(k as u64 + (t - base));
                let from = if j == 0 { SOURCE } else { NodeId(tree[j - 1]) };
                out.push(Transmission::local(from, NodeId(node), packet));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_forest;
    use crate::structured::structured_forest;
    use clustream_sim::{SimConfig, Simulator};

    #[test]
    fn source_round_robin_matches_paper_walkthrough() {
        // §2.2.3: with the Figure 3 multi-tree, in slot 0 S sends packet 0
        // to node 1 (T_0), packet 1 to node 5 (T_1), packet 2 to node 9
        // (T_2); in slot 1, packet 0 → node 2, packet 1 → node 6,
        // packet 2 → node 10.
        let f = structured_forest(15, 3).unwrap();
        let mut s = MultiTreeScheme::new(f, StreamMode::PreRecorded);
        let mut out = Vec::new();
        let view = Probe;
        s.transmissions(Slot(0), &view, &mut out);
        let from_source: Vec<_> = out.iter().filter(|t| t.from == SOURCE).collect();
        assert_eq!(from_source.len(), 3);
        assert!(from_source
            .iter()
            .any(|t| t.to == NodeId(1) && t.packet == PacketId(0)));
        assert!(from_source
            .iter()
            .any(|t| t.to == NodeId(5) && t.packet == PacketId(1)));
        assert!(from_source
            .iter()
            .any(|t| t.to == NodeId(9) && t.packet == PacketId(2)));

        out.clear();
        s.transmissions(Slot(1), &view, &mut out);
        let from_source: Vec<_> = out.iter().filter(|t| t.from == SOURCE).collect();
        assert!(from_source
            .iter()
            .any(|t| t.to == NodeId(2) && t.packet == PacketId(0)));
        assert!(from_source
            .iter()
            .any(|t| t.to == NodeId(6) && t.packet == PacketId(1)));
        assert!(from_source
            .iter()
            .any(|t| t.to == NodeId(10) && t.packet == PacketId(2)));
    }

    #[test]
    fn node1_relays_packet0_in_slots_1_2_3() {
        // §2.2.3: "After receiving packet 0 from S in slot 0 in T_0, node 1
        // will send packet 0 to node 5 in slot 1, node 6 in slot 2 and
        // node 4 in slot 3" (structured construction: children of position
        // 1 in T_0 are positions 4, 5, 6 = nodes 4, 5, 6, with child
        // indices 0, 1, 2 → slots 3, 1, 2).
        let f = structured_forest(15, 3).unwrap();
        let mut s = MultiTreeScheme::new(f, StreamMode::PreRecorded);
        let mut out = Vec::new();
        let mut sends_of_node1 = Vec::new();
        for t in 0..4 {
            out.clear();
            s.transmissions(Slot(t), &Probe, &mut out);
            for tx in &out {
                if tx.from == NodeId(1) && tx.packet == PacketId(0) {
                    sends_of_node1.push((t, tx.to));
                }
            }
        }
        assert_eq!(
            sends_of_node1,
            vec![(1, NodeId(5)), (2, NodeId(6)), (3, NodeId(4))]
        );
    }

    /// Stand-in view; the multi-tree schedule never consults it.
    struct Probe;
    impl StateView for Probe {
        fn holds(&self, _: NodeId, _: PacketId) -> bool {
            unreachable!("schedule is closed-form")
        }
        fn newest(&self, _: NodeId) -> Option<PacketId> {
            unreachable!()
        }
        fn slot(&self) -> Slot {
            unreachable!()
        }
    }

    fn run(n: usize, d: usize, mode: StreamMode, structured: bool) -> clustream_sim::RunResult {
        let f = if structured {
            structured_forest(n, d).unwrap()
        } else {
            greedy_forest(n, d).unwrap()
        };
        let mut s = MultiTreeScheme::new(f, mode);
        let track = (4 * d * 8) as u64;
        Simulator::run(&mut s, &SimConfig::until_complete(track, 100_000)).unwrap()
    }

    #[test]
    fn simulator_accepts_prerecorded_schedules() {
        for &(n, d) in &[(15usize, 3usize), (14, 3), (8, 2), (40, 5), (1, 2), (5, 4)] {
            for &structured in &[true, false] {
                let r = run(n, d, StreamMode::PreRecorded, structured);
                assert_eq!(r.duplicate_deliveries, 0, "N={n} d={d}");
            }
        }
    }

    #[test]
    fn simulator_accepts_live_modes() {
        for &mode in &[StreamMode::LivePrebuffered, StreamMode::LivePipelined] {
            for &(n, d) in &[(15usize, 3usize), (26, 4), (7, 2)] {
                let r = run(n, d, mode, true);
                assert_eq!(r.duplicate_deliveries, 0, "N={n} d={d} {mode:?}");
            }
        }
    }

    #[test]
    fn closed_form_matches_simulation() {
        for &(n, d) in &[(15usize, 3usize), (22, 4), (9, 2)] {
            let f = greedy_forest(n, d).unwrap();
            let mut s = MultiTreeScheme::new(f, StreamMode::PreRecorded);
            let closed = s.clone();
            let track = (3 * d * d) as u64;
            let r = Simulator::run(&mut s, &SimConfig::until_complete(track, 10_000)).unwrap();
            for node in 1..=n as u32 {
                for k in 0..d {
                    for m in 0..2u64 {
                        let pos = closed.forest.position(k, node);
                        let packet = PacketId(k as u64 + m * d as u64);
                        if packet.seq() >= track {
                            continue;
                        }
                        let predicted = closed.recv_slot_at(k, pos, m);
                        let simulated = r
                            .arrivals
                            .usable_slot(NodeId(node), packet)
                            .unwrap_or_else(|| panic!("missing {packet} at node {node}"));
                        // usable = receive slot + 1
                        assert_eq!(
                            simulated.t(),
                            predicted + 1,
                            "N={n} d={d} node {node} tree {k} m={m}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn live_prebuffered_shifts_by_d() {
        let f = structured_forest(15, 3).unwrap();
        let pre = MultiTreeScheme::new(f.clone(), StreamMode::PreRecorded);
        let buf = MultiTreeScheme::new(f, StreamMode::LivePrebuffered);
        for k in 0..3 {
            for pos in 1..=15 {
                assert_eq!(buf.recv_slot_at(k, pos, 0), pre.recv_slot_at(k, pos, 0) + 3);
            }
        }
    }

    #[test]
    fn pipelined_preserves_residues() {
        let f = greedy_forest(26, 4).unwrap();
        let pre = MultiTreeScheme::new(f.clone(), StreamMode::PreRecorded);
        let pip = MultiTreeScheme::new(f, StreamMode::LivePipelined);
        for k in 0..4 {
            for pos in 1..=pre.forest().n_pad() {
                assert_eq!(
                    pre.recv_slot_at(k, pos, 0) % 4,
                    pip.recv_slot_at(k, pos, 0) % 4,
                    "tree {k} pos {pos}"
                );
                assert!(pip.recv_slot_at(k, pos, 0) >= pre.recv_slot_at(k, pos, 0));
            }
        }
    }

    /// Every (construction, mode, N, d) the residue tests sweep: complete
    /// and non-complete forests, and `N < d`.
    fn sweep() -> Vec<MultiTreeScheme> {
        let mut schemes = Vec::new();
        for d in 2..=4usize {
            for n in [1, d - 1, d, d + 1, d * d + d, 2 * d * d + 3, 40] {
                for structured in [true, false] {
                    for mode in [
                        StreamMode::PreRecorded,
                        StreamMode::LivePrebuffered,
                        StreamMode::LivePipelined,
                    ] {
                        let f = if structured {
                            structured_forest(n, d).unwrap()
                        } else {
                            greedy_forest(n, d).unwrap()
                        };
                        schemes.push(MultiTreeScheme::new(f, mode));
                    }
                }
            }
        }
        schemes
    }

    #[test]
    fn first_receipts_sit_on_their_child_index_residue() {
        let schemes = sweep();
        assert!(schemes.iter().any(|s| s.forest().n() < s.forest().d()));
        assert!(schemes.iter().any(|s| s.forest().n() < s.forest().n_pad()));
        for s in &schemes {
            let d = s.forest().d();
            for (k, table) in s.recv0.iter().enumerate() {
                for pos in 1..=s.forest().n_pad() {
                    assert_eq!(
                        table[pos - 1] % d as u64,
                        s.forest().child_index(pos) as u64,
                        "{} N={} tree {k} pos {pos}",
                        s.name(),
                        s.forest().n()
                    );
                }
            }
        }
    }

    /// The calendar before the residue walk: every position of every tree,
    /// kept as the reference the strided walk must reproduce.
    fn full_scan(s: &MultiTreeScheme, t: u64, out: &mut Vec<Transmission>) {
        let d = s.forest.d() as u64;
        let n_real = s.forest.n() as u32;
        for k in 0..s.forest.d() {
            for pos in 1..=s.forest.n_pad() {
                let node = s.forest.node_at(k, pos);
                if node > n_real {
                    continue;
                }
                let base = s.recv0[k][pos - 1];
                if t >= base && (t - base).is_multiple_of(d) {
                    let packet = PacketId(k as u64 + (t - base) / d * d);
                    let parent_pos = s.forest.parent_pos(pos);
                    let from = if parent_pos == 0 {
                        SOURCE
                    } else {
                        NodeId(s.forest.node_at(k, parent_pos))
                    };
                    out.push(Transmission::local(from, NodeId(node), packet));
                }
            }
        }
    }

    #[test]
    fn the_residue_walk_emits_the_full_scan_slot_by_slot() {
        let (mut fast, mut slow) = (Vec::new(), Vec::new());
        for mut s in sweep() {
            let period = s.schedule_period().unwrap();
            for t in 0..period.warmup + 2 * period.period {
                fast.clear();
                slow.clear();
                s.transmissions(Slot(t), &Probe, &mut fast);
                full_scan(&s, t, &mut slow);
                assert_eq!(fast, slow, "{} N={} slot {t}", s.name(), s.forest().n());
            }
        }
    }

    #[test]
    fn every_node_receives_exactly_one_packet_per_steady_slot() {
        // The collision-freedom property in its strongest form: in steady
        // state each node receives exactly one packet per slot.
        let f = structured_forest(16, 4).unwrap();
        let mut s = MultiTreeScheme::new(f, StreamMode::PreRecorded);
        let mut out = Vec::new();
        // Steady state by slot 4·h·d; count receives per node at one slot.
        let t = 64;
        out.clear();
        s.transmissions(Slot(t), &Probe, &mut out);
        let mut count = [0usize; 17];
        for tx in &out {
            count[tx.to.index()] += 1;
        }
        for (node, &c) in count.iter().enumerate().skip(1) {
            assert_eq!(c, 1, "node {node} at slot {t}");
        }
    }
}
