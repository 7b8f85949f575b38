//! Streaming *through* churn: the dynamic multi-tree as a live scheme.
//!
//! The paper's appendix gives the tree-maintenance algorithms and notes
//! that displaced nodes "may suffer from hiccups", deferring measurement
//! to omitted simulations. This module closes that gap: an
//! [`AdaptiveMultiTree`] owns a [`DynamicForest`], applies a scripted
//! churn plan *while the stream is running*, and forwards packets with a
//! state-driven rule instead of the closed-form calendar:
//!
//! * the source sends packet `k + ⌊t/d⌋·d` to the current occupant of
//!   depth-1 position `(t mod d) + 1` of tree `T_k` (skipping dummies);
//! * every interior node of the *current* forest serves, in slot
//!   `t ≡ c (mod d)`, its `c`-th child with the newest tree-`k` packet it
//!   holds that the child lacks (consulting the simulator's ground truth
//!   through [`StateView`]).
//!
//! Because the forest is structurally valid at every instant (each node
//! occupies one position per residue class), the schedule remains
//! collision-free *through* every reconfiguration; what churn costs is
//! bounded packet gaps for displaced nodes, which the engine's lossy
//! accounting measures per node. Joiners receive from their join slot
//! onward; leavers stop receiving. Runs must therefore use a zero-loss
//! [`clustream_sim` fault config](clustream_sim::SimConfig::with_faults)
//! so gaps are reported rather than fatal — see
//! [`AdaptiveMultiTree::recommended_config`].

use crate::dynamics::{DynamicForest, ExtId};
use crate::Construction;
use clustream_core::{
    Availability, CoreError, NodeId, PacketId, Scheme, Slot, StateView, Transmission, SOURCE,
};
use clustream_workloads::{ChurnAction, ChurnTrace};

/// A scripted churn event resolved to external ids at apply time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlannedEvent {
    slot: u64,
    action: ChurnAction,
}

/// The churn-driven multi-tree scheme.
pub struct AdaptiveMultiTree {
    forest: DynamicForest,
    d: usize,
    plan: Vec<PlannedEvent>,
    next_event: usize,
    /// Total ids ever used: initial members + every join in the plan.
    id_space: usize,
    /// `(ext, slot)` log of applied reconfiguration displacements.
    displacements: Vec<(ExtId, u64)>,
    /// Join slot per member (initial members join at slot 0).
    joins: std::collections::BTreeMap<ExtId, u64>,
}

impl AdaptiveMultiTree {
    /// Build from an initial population and a churn trace. External ids
    /// double as simulator node ids (`1..=initial`, then one per join in
    /// trace order), so identities are stable across reconfigurations.
    pub fn new(
        initial: usize,
        d: usize,
        construction: Construction,
        trace: &ChurnTrace,
    ) -> Result<Self, CoreError> {
        let forest = DynamicForest::new(initial, d, construction, /*lazy=*/ true)?;
        let joins = trace
            .events
            .iter()
            .filter(|e| matches!(e.action, ChurnAction::Join | ChurnAction::Rejoin { .. }))
            .count();
        let plan = trace
            .events
            .iter()
            .map(|e| PlannedEvent {
                slot: e.slot,
                action: e.action,
            })
            .collect();
        Ok(AdaptiveMultiTree {
            forest,
            d,
            plan,
            next_event: 0,
            id_space: 1 + initial + joins,
            displacements: Vec::new(),
            joins: (1..=initial as ExtId).map(|e| (e, 0)).collect(),
        })
    }

    /// The simulator configuration adaptive runs need: zero-loss fault
    /// accounting (gaps are data, not errors), no early stop.
    pub fn recommended_config(track: u64, max_slots: u64) -> clustream_sim::SimConfig {
        clustream_sim::SimConfig::with_faults(
            track,
            max_slots,
            clustream_sim::FaultPlan::loss(0.0, 0),
        )
    }

    /// Current members (external ids).
    pub fn members(&self) -> Vec<ExtId> {
        self.forest.members()
    }

    /// Reconfiguration displacements applied so far: `(member, slot)`.
    pub fn displacements(&self) -> &[(ExtId, u64)] {
        &self.displacements
    }

    /// Slot of the last scripted event (stabilization begins after it).
    pub fn last_event_slot(&self) -> u64 {
        self.plan.last().map_or(0, |e| e.slot)
    }

    /// Slot at which `ext` joined (0 for initial members; `None` if the
    /// id has not joined yet).
    pub fn join_slot(&self, ext: ExtId) -> Option<u64> {
        self.joins.get(&ext).copied()
    }

    /// The underlying forest (e.g. for post-churn validation).
    pub fn forest(&self) -> &DynamicForest {
        &self.forest
    }

    fn apply_due_events(&mut self, t: u64) {
        while let Some(e) = self.plan.get(self.next_event) {
            if e.slot > t {
                break;
            }
            let report = match e.action {
                // A rejoin gets a fresh external id here: the adaptive
                // scheme has no identity continuity across departures
                // (that is the recovery layer's job, see
                // `clustream_recovery::DynamicMultiTree`).
                ChurnAction::Join | ChurnAction::Rejoin { .. } => {
                    let (ext, rep) = self.forest.add();
                    self.joins.insert(ext, t);
                    rep
                }
                ChurnAction::Leave { victim_rank } => {
                    let members = self.forest.members();
                    let victim = members[victim_rank.min(members.len() - 1)];
                    self.forest.remove(victim).expect("victim exists")
                }
            };
            for ext in report.displaced {
                self.displacements.push((ext, t));
            }
            self.next_event += 1;
        }
    }

    /// Global node id of the member at position `pos` of tree `k`, if it
    /// is a real member.
    fn member_at(&self, k: usize, pos: usize) -> Option<u32> {
        let members = &self.forest;
        // Handle at the position → external id (None for dummies).
        let handle = members.handle_at(k, pos)?;
        members.ext_of(handle).map(|e| e as u32)
    }
}

impl Scheme for AdaptiveMultiTree {
    fn name(&self) -> String {
        format!("adaptive-multi-tree(d={})", self.d)
    }

    fn num_receivers(&self) -> usize {
        self.id_space - 1
    }

    fn availability(&self) -> Availability {
        Availability::PreRecorded
    }

    fn send_capacity(&self, node: NodeId) -> usize {
        if node.is_source() {
            self.d
        } else {
            1
        }
    }

    fn transmissions(&mut self, slot: Slot, view: &dyn StateView, out: &mut Vec<Transmission>) {
        let t = slot.t();
        self.apply_due_events(t);
        let d = self.d as u64;
        let r = (t % d) as usize;
        let m = t / d;

        // Source: packet k + m·d to depth-1 position r + 1 of T_k.
        for k in 0..self.d {
            if let Some(target) = self.member_at(k, r + 1) {
                let packet = PacketId(k as u64 + m * d);
                if !view.holds(NodeId(target), packet) {
                    out.push(Transmission::local(SOURCE, NodeId(target), packet));
                }
            }
        }

        // Interior nodes: serve child index r with the newest tree-k
        // packet held that the child lacks.
        let n_pad = self.forest.n_pad();
        let i_count = n_pad / self.d - 1;
        for k in 0..self.d {
            for q in 1..=i_count {
                let Some(sender) = self.member_at(k, q) else {
                    continue;
                };
                let child_pos = q * self.d + 1 + r;
                if child_pos > n_pad {
                    continue;
                }
                let Some(child) = self.member_at(k, child_pos) else {
                    continue;
                };
                // Newest packet of residue k the sender holds: walk down
                // from the stream head. The source has emitted packets of
                // tree k up to k + m·d, so the scan is bounded.
                let head = k as u64 + m * d;
                let mut probe = head;
                let found = loop {
                    if view.holds(NodeId(sender), PacketId(probe)) {
                        break Some(probe);
                    }
                    if probe < d {
                        break None;
                    }
                    probe -= d;
                };
                if let Some(p) = found {
                    if !view.holds(NodeId(child), PacketId(p)) {
                        out.push(Transmission::local(
                            NodeId(sender),
                            NodeId(child),
                            PacketId(p),
                        ));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustream_sim::Simulator;
    use clustream_workloads::{ChurnEvent, ChurnTraceConfig};

    fn trace_from(events: Vec<(u64, ChurnAction)>) -> ChurnTrace {
        ChurnTrace {
            config: ChurnTraceConfig {
                initial_members: 0,
                slots: events.last().map_or(0, |e| e.0 + 1),
                join_rate: 0.0,
                leave_rate: 0.0,
                rejoin_rate: 0.0,
                seed: 0,
            },
            events: events
                .into_iter()
                .map(|(slot, action)| ChurnEvent { slot, action })
                .collect(),
        }
    }

    #[test]
    fn static_adaptive_run_is_gap_free() {
        // No churn: the adaptive rule must deliver everything, like the
        // closed-form schedule.
        let trace = trace_from(vec![]);
        let mut s = AdaptiveMultiTree::new(15, 3, Construction::Greedy, &trace).unwrap();
        let cfg = AdaptiveMultiTree::recommended_config(30, 400);
        let r = Simulator::run(&mut s, &cfg).unwrap();
        assert_eq!(r.loss.unwrap().total_missing(), 0);
        assert_eq!(r.duplicate_deliveries, 0);
    }

    #[test]
    fn joiner_catches_up_after_joining() {
        // One join at slot 12 into a 14-member forest (one dummy slot, so
        // the join is swap-free). The joiner must receive every packet
        // from some catch-up point onward.
        let trace = trace_from(vec![(12, ChurnAction::Join)]);
        let mut s = AdaptiveMultiTree::new(14, 3, Construction::Greedy, &trace).unwrap();
        let joiner = 15u32;
        let cfg = AdaptiveMultiTree::recommended_config(60, 600);
        let r = Simulator::run(&mut s, &cfg).unwrap();

        // All original members: gap-free.
        for node in 1..=14u32 {
            assert!(
                !r.loss
                    .as_ref()
                    .unwrap()
                    .missing
                    .iter()
                    .any(|(n, _)| n.0 == node),
                "original member {node} has gaps"
            );
        }
        // The joiner receives everything after a bounded catch-up window.
        let first_received = (0..60u64)
            .find(|&p| {
                r.arrivals
                    .usable_slot(NodeId(joiner), PacketId(p))
                    .is_some()
            })
            .expect("joiner eventually receives");
        for p in first_received + 9..60 {
            assert!(
                r.arrivals
                    .usable_slot(NodeId(joiner), PacketId(p))
                    .is_some(),
                "joiner missing packet {p} after catch-up"
            );
        }
    }

    #[test]
    fn leaver_stops_receiving_and_stream_survives() {
        let trace = trace_from(vec![(10, ChurnAction::Leave { victim_rank: 4 })]);
        let mut s = AdaptiveMultiTree::new(15, 3, Construction::Greedy, &trace).unwrap();
        let cfg = AdaptiveMultiTree::recommended_config(48, 600);
        let r = Simulator::run(&mut s, &cfg).unwrap();
        let survivors = s.members();
        assert_eq!(survivors.len(), 14);
        // Every survivor receives the whole tail of the window.
        for &ext in &survivors {
            for p in 30..48u64 {
                assert!(
                    r.arrivals
                        .usable_slot(NodeId(ext as u32), PacketId(p))
                        .is_some(),
                    "survivor {ext} missing packet {p}"
                );
            }
        }
        s.forest().validate().unwrap();
    }

    #[test]
    fn heavy_churn_stabilizes() {
        let trace = trace_from(vec![
            (6, ChurnAction::Join),
            (9, ChurnAction::Leave { victim_rank: 0 }),
            (12, ChurnAction::Join),
            (15, ChurnAction::Leave { victim_rank: 7 }),
            (18, ChurnAction::Join),
        ]);
        let mut s = AdaptiveMultiTree::new(12, 3, Construction::Greedy, &trace).unwrap();
        let cfg = AdaptiveMultiTree::recommended_config(80, 1000);
        let r = Simulator::run(&mut s, &cfg).unwrap();
        assert_eq!(r.duplicate_deliveries, 0);
        s.forest().validate().unwrap();

        // After the last event + a stabilization margin, every current
        // member receives every packet.
        for &ext in &s.members() {
            let joined_late = ext > 12;
            let from = if joined_late { 60 } else { 50 };
            for p in from..80u64 {
                assert!(
                    r.arrivals
                        .usable_slot(NodeId(ext as u32), PacketId(p))
                        .is_some(),
                    "member {ext} missing packet {p} after stabilization"
                );
            }
        }
    }

    #[test]
    fn hiccups_are_bounded_and_recoverable() {
        // A deletion that displaces one replacement node. The displaced
        // node *and its new subtree* may hiccup (the paper's "up to d²
        // nodes may suffer from hiccups"), but every survivor's gap is a
        // bounded burst and the stream tail is delivered in full.
        let trace = trace_from(vec![(10, ChurnAction::Leave { victim_rank: 0 })]);
        let mut s = AdaptiveMultiTree::new(15, 3, Construction::Greedy, &trace).unwrap();
        let cfg = AdaptiveMultiTree::recommended_config(48, 600);
        let r = Simulator::run(&mut s, &cfg).unwrap();
        let departed = 1u64; // victim_rank 0 of members 1..=15
        let d = 3usize;
        let loss = r.loss.unwrap();
        let mut gapped_survivors = 0usize;
        for &(node, missing) in &loss.missing {
            let ext = node.0 as u64;
            if ext == departed {
                continue;
            }
            gapped_survivors += 1;
            assert!(
                missing <= 2 * d,
                "node {ext} lost {missing} packets — not a bounded hiccup"
            );
        }
        // The blast radius stays within the paper's d² bound.
        assert!(gapped_survivors <= d * d, "{gapped_survivors} > d²");
        // Full recovery: every survivor holds the tail of the window.
        for &ext in &s.members() {
            for p in 36..48u64 {
                assert!(
                    r.arrivals
                        .usable_slot(NodeId(ext as u32), PacketId(p))
                        .is_some(),
                    "member {ext} missing tail packet {p}"
                );
            }
        }
    }
}
