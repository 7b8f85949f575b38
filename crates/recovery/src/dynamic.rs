//! The dynamic multi-tree: the appendix add/delete dynamics behind the
//! [`Scheme`] interface, with two drivers over one state.
//!
//! [`DynamicMultiTree`] owns a [`DynamicForest`], the round-robin
//! [`MultiTreeScheme`] over its current snapshot and the id translation
//! between them. A membership change — add a node as an all-leaf, delete
//! one by promoting an all-leaf into its interior positions (at most `d²`
//! members displaced per operation) — reaches it from either side:
//!
//! * **event-driven** ([`Scheme::membership_event`]): the engine's
//!   recovery layer reports a confirmed failure or a rejoin; the forest
//!   is repaired, the schedule re-derived, and the [`RepairOutcome`]
//!   returned. A scheme with an empty script is exactly this
//!   *self-healing* tree.
//! * **script-driven** ([`DynamicMultiTree::scripted`]): a slot-sorted
//!   list of resolved churn events (a scenario's join curves and regional
//!   failures). At the top of each [`Scheme::transmissions`] call every
//!   event due at or before the slot is applied and the schedule is
//!   re-derived **once** per eventful slot. Every engine's slot loop
//!   (reference, mega, slot-faithful DES) asks for transmissions
//!   exactly once per slot in increasing order, and an engine that asks
//!   out of order (the mega engine's lowering) makes the script rewind
//!   first, so the growth replays bit-identically with no engine-loop
//!   support; `tests/scenario.rs` closes the loop. A
//!   scheme that never hears a `membership_event` is exactly this *flash
//!   crowd*.
//!
//! Either way the schedule continues from the **current absolute slot**:
//! it maps slot `t` to packet `k + ⌊(t − base)/d⌋·d` with no per-run
//! offset, so a rebuilt scheme picks up mid-stream without replaying
//! from zero. Displaced nodes may miss packets during the transition;
//! the NACK layer (or a hiccup) covers those.
//!
//! Once the script is spent the schedule is the settled forest's
//! round-robin, so the scheme declares a [`SchedulePeriod`]: period `d`
//! from the last scripted slot plus the settled schedule's own warmup.
//! The sum, not the larger of the two: a member the last event displaced
//! may be asked for a packet it missed until one tree depth after it, and
//! a declared warmup never ends before the script does (past the
//! hand-off an engine stops asking). A run that asks for a slot below
//! the last one served — the mega engine's ramp after it generated the
//! settled period ahead, or its full-mode re-run — rewinds the script to
//! the initial membership first.
//!
//! Identity bookkeeping: the engines' node ids are stable forever —
//! `1..=N₀` for initial members, then the fresh monotone ids
//! [`clustream_workloads::ChurnTrace::resolve`] hands out per scripted
//! join. The forest mints its own external ids (a fresh one after each
//! rejoin) and each snapshot compacts members to `1..=N`; every emitted
//! transmission is translated back, so engines, arrival tables and QoS
//! reports never see repair internals. The engine id space is sized up
//! front ([`Scheme::num_receivers`] is the largest id the script ever
//! uses), so state tables never resize mid-run; nodes simply receive
//! nothing before they join. Scripted runs are therefore *lossy by
//! design* and run under a zero-rate fault plan.

use clustream_core::{
    CoreError, MembershipEvent, NodeId, RepairOutcome, SchedulePeriod, Scheme, Slot, StateView,
    Transmission,
};
use clustream_multitree::dynamics::{ChurnReport, DynamicForest, ExtId};
use clustream_multitree::{Construction, MultiTreeScheme, StreamMode};
use clustream_workloads::scenario::ScenarioPlan;
use clustream_workloads::{ResolvedChurnAction, ResolvedChurnEvent};

/// A multi-tree overlay that repairs, grows and shrinks itself as the
/// run advances.
#[derive(Debug, Clone)]
pub struct DynamicMultiTree {
    forest: DynamicForest,
    /// The round-robin schedule over the forest's latest snapshot.
    inner: MultiTreeScheme,
    mode: StreamMode,
    construction: Construction,
    name: String,
    /// Initial members: engine ids `1..=n0`.
    n0: usize,
    /// Largest engine id that is ever a member (= engine receiver count).
    max_id: usize,
    /// Slot-sorted script; `cursor` marks the first unapplied event.
    events: Vec<ResolvedChurnEvent>,
    cursor: usize,
    /// The last slot [`Scheme::transmissions`] served.
    last_slot: u64,
    /// The declaration, fixed at construction (see the module docs).
    period: Option<SchedulePeriod>,
    /// Engine id → slot its scripted join fires (0 for initial members).
    join_slots: Vec<u64>,
    /// Forest external id → engine id; 0 = departed.
    ext_to_orig: Vec<u32>,
    /// Engine id → forest external id; 0 = not currently a member.
    orig_to_ext: Vec<ExtId>,
    /// Snapshot node id (0 = source, then 1..=members) → engine id.
    snap_to_orig: Vec<u32>,
    /// Reused buffer for pre-translation transmissions.
    scratch: Vec<Transmission>,
    joins_applied: u64,
    leaves_applied: u64,
    rebuilds: u64,
    total_swaps: usize,
}

/// `len` zeros, or `None` when they do not fit in memory.
fn zeroed<T: Copy + Default>(len: usize) -> Option<Vec<T>> {
    let mut v = Vec::new();
    v.try_reserve_exact(len).ok()?;
    v.resize(len, T::default());
    Some(v)
}

/// The schedule over `forest`'s compact snapshot and its id translation.
fn lower(
    forest: &DynamicForest,
    ext_to_orig: &[u32],
    mode: StreamMode,
) -> Result<(MultiTreeScheme, Vec<u32>), CoreError> {
    let (trees, ext_to_snap) = forest.snapshot()?;
    let mut snap_to_orig = vec![0; ext_to_snap.len() + 1];
    for (&ext, &snap) in &ext_to_snap {
        snap_to_orig[snap as usize] = ext_to_orig[ext as usize];
    }
    Ok((MultiTreeScheme::new(trees, mode), snap_to_orig))
}

impl DynamicMultiTree {
    /// The self-healing tree over `n` receivers with degree `d`: no
    /// script, repaired through [`Scheme::membership_event`].
    pub fn new(
        n: usize,
        d: usize,
        mode: StreamMode,
        construction: Construction,
    ) -> Result<Self, CoreError> {
        let mut s = Self::scripted(n, d, mode, construction, Vec::new())?;
        s.name = format!("self-healing {}", s.inner.name());
        Ok(s)
    }

    /// The flash crowd over `n0` initial receivers (ids `1..=n0`) with
    /// degree `d`, scripted by `events` (sorted by slot; ties keep list
    /// order, the order [`clustream_workloads::ChurnTrace::resolve`]
    /// produced).
    pub fn scripted(
        n0: usize,
        d: usize,
        mode: StreamMode,
        construction: Construction,
        events: Vec<ResolvedChurnEvent>,
    ) -> Result<Self, CoreError> {
        let mut s = Self::unsettled(n0, d, mode, construction, events)?;
        s.period = s.settled_period();
        Ok(s)
    }

    /// [`DynamicMultiTree::scripted`] without its declaration, which
    /// takes running the script on a copy.
    fn unsettled(
        n0: usize,
        d: usize,
        mode: StreamMode,
        construction: Construction,
        mut events: Vec<ResolvedChurnEvent>,
    ) -> Result<Self, CoreError> {
        events.sort_by_key(|e| e.slot);
        let (mut max_id, mut joins, mut fails) = (n0 as u64, 0u64, 0u64);
        for e in &events {
            match e.action {
                ResolvedChurnAction::Join { ext } | ResolvedChurnAction::Rejoin { ext } => {
                    max_id = max_id.max(ext);
                    joins += 1;
                }
                ResolvedChurnAction::Leave { ext } if ext > max_id => {
                    return Err(CoreError::InvalidConfig(format!(
                        "leave event names id {ext} before any join created it"
                    )));
                }
                ResolvedChurnAction::Leave { .. } => fails += 1,
            }
        }
        let max_id = max_id as usize;
        let oom = || {
            CoreError::InvalidConfig(format!(
                "a crowd of {n0} initial members and {joins} joins does not fit in memory"
            ))
        };
        let mut join_slots = zeroed(max_id + 1).ok_or_else(oom)?;
        for e in &events {
            if let ResolvedChurnAction::Join { ext } = e.action {
                join_slots[ext as usize] = e.slot;
            }
        }
        // The forest mints external ids 1..=n0 for the initial members —
        // the engines' ids exactly — and monotonically from there.
        let forest = DynamicForest::new(n0, d, construction, true)?;
        let ext_to_orig: Vec<u32> = (0..=n0 as u32).collect();
        let mut orig_to_ext: Vec<ExtId> = zeroed(max_id + 1).ok_or_else(oom)?;
        for (id, ext) in orig_to_ext[..=n0].iter_mut().enumerate() {
            *ext = id as ExtId;
        }
        let (inner, snap_to_orig) = lower(&forest, &ext_to_orig, mode)?;
        Ok(DynamicMultiTree {
            forest,
            inner,
            mode,
            construction,
            name: format!("flash-crowd(n0={n0},d={d},joins={joins},fails={fails})"),
            n0,
            max_id,
            events,
            cursor: 0,
            last_slot: 0,
            period: None,
            join_slots,
            ext_to_orig,
            orig_to_ext,
            snap_to_orig,
            scratch: Vec::new(),
            joins_applied: 0,
            leaves_applied: 0,
            rebuilds: 0,
            total_swaps: 0,
        })
    }

    /// The settled schedule's declaration shifted past the script: its
    /// warmup (max first receive + 1) counted from the last scripted
    /// slot, its period `d`. The script runs once, on a copy, to find the
    /// settled forest.
    fn settled_period(&self) -> Option<SchedulePeriod> {
        let settled = if self.events.is_empty() {
            self.inner.schedule_period()
        } else {
            let mut end = self.clone();
            end.apply_due(u64::MAX);
            end.inner.schedule_period()
        }?;
        Some(SchedulePeriod {
            warmup: self.settled_slot().saturating_add(settled.warmup),
            ..settled
        })
    }

    /// Back to construction time: the initial membership, the script
    /// unapplied, every counter zero. The declaration is the script's,
    /// so it is kept rather than derived again.
    fn rewind(&mut self) {
        let events = std::mem::take(&mut self.events);
        let (period, name) = (self.period, std::mem::take(&mut self.name));
        *self = Self::unsettled(self.n0, self.d(), self.mode, self.construction, events)
            .expect("the script was accepted at construction");
        (self.period, self.name) = (period, name);
    }

    /// Script a crowd from a [`ScenarioPlan`]: compile against `n0`
    /// initial members and resolve with no protected nodes — the
    /// configuration the differential and DES oracles replay.
    pub fn from_plan(
        n0: usize,
        d: usize,
        mode: StreamMode,
        construction: Construction,
        plan: &ScenarioPlan,
    ) -> Result<Self, CoreError> {
        let initial: Vec<u64> = (1..=n0 as u64).collect();
        let resolved = plan.compile(n0)?.resolve(&initial, &[])?;
        Self::scripted(n0, d, mode, construction, resolved)
    }

    /// Re-derive the compact snapshot, its id translation and the
    /// round-robin schedule from the current forest.
    fn rebuild(&mut self) -> Result<(), CoreError> {
        (self.inner, self.snap_to_orig) = lower(&self.forest, &self.ext_to_orig, self.mode)?;
        self.rebuilds += 1;
        Ok(())
    }

    /// Appendix `add`: admit engine id `id` as an all-leaf node. `None`
    /// when it is already a member.
    fn join(&mut self, id: usize) -> Option<ChurnReport> {
        if self.orig_to_ext.len() <= id {
            self.orig_to_ext.resize(id + 1, 0);
        }
        if self.orig_to_ext[id] != 0 {
            return None;
        }
        let (ext, report) = self.forest.add();
        debug_assert_eq!(ext as usize, self.ext_to_orig.len(), "monotone forest ids");
        self.ext_to_orig.push(id as u32);
        self.orig_to_ext[id] = ext;
        self.joins_applied += 1;
        self.total_swaps += report.swaps;
        Some(report)
    }

    /// Appendix `delete`: promote an all-leaf node into `id`'s interior
    /// positions. `None` when `id` is not a member, or when the dynamics
    /// refuse (they never empty the forest) — the victim then stays
    /// fail-silent.
    fn leave(&mut self, id: usize) -> Option<ChurnReport> {
        let ext = *self.orig_to_ext.get(id).filter(|&&ext| ext != 0)?;
        let report = self.forest.remove(ext).ok()?;
        self.orig_to_ext[id] = 0;
        self.ext_to_orig[ext as usize] = 0;
        self.leaves_applied += 1;
        self.total_swaps += report.swaps;
        Some(report)
    }

    /// Apply every scripted event due at or before slot `t`; rebuild the
    /// schedule once if anything was due.
    fn apply_due(&mut self, t: u64) {
        let before = self.cursor;
        while self.cursor < self.events.len() && self.events[self.cursor].slot <= t {
            let _ = match self.events[self.cursor].action {
                ResolvedChurnAction::Join { ext } | ResolvedChurnAction::Rejoin { ext } => {
                    self.join(ext as usize)
                }
                ResolvedChurnAction::Leave { ext } => self.leave(ext as usize),
            };
            self.cursor += 1;
        }
        if self.cursor != before {
            self.rebuild()
                .expect("snapshot of a non-empty valid forest cannot fail");
        }
    }

    /// Apply every scripted event a run of `slots` slots applied (those
    /// due before slot `slots`), so a fresh replica reads as the instance
    /// that ran did at its end: membership, join slots and every counter
    /// but [`DynamicMultiTree::rebuilds`] (one rebuild here, one per
    /// eventful slot in a run). Every engine's slot loop asks for
    /// transmissions once per slot in increasing order, so this does not
    /// depend on the engine; the mega engine also asks for slots ahead of
    /// its slot loop, so read the replica, not the instance that ran.
    pub fn replay_script(&mut self, slots: u64) {
        if let Some(last) = slots.checked_sub(1) {
            self.apply_due(last);
        }
    }

    /// Whether engine id `node` is currently a member.
    pub fn is_member(&self, node: NodeId) -> bool {
        self.orig_to_ext
            .get(node.0 as usize)
            .is_some_and(|&e| e != 0)
    }

    /// The tree degree `d`.
    pub fn d(&self) -> usize {
        self.forest.d()
    }

    /// Per-id scripted join slots, indexed by engine id (0 for the source
    /// and for initial members). Feeds the QoE timelines.
    pub fn join_slots(&self) -> &[u64] {
        &self.join_slots
    }

    /// Joins and rejoins applied so far, by either driver.
    pub fn joins_applied(&self) -> u64 {
        self.joins_applied
    }

    /// Departures applied so far, by either driver.
    pub fn leaves_applied(&self) -> u64 {
        self.leaves_applied
    }

    /// Schedule rebuilds performed: one per eventful scripted slot, one
    /// per accepted membership event.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Total forest label swaps across all applied changes (the appendix
    /// work measure).
    pub fn total_swaps(&self) -> usize {
        self.total_swaps
    }

    /// Slot of the last scripted event (the crowd is settled after it).
    pub fn settled_slot(&self) -> u64 {
        self.events.last().map_or(0, |e| e.slot)
    }

    /// The forest driving the schedule (tests validate its invariants).
    pub fn forest(&self) -> &DynamicForest {
        &self.forest
    }

    fn translate(&self, snap: NodeId) -> NodeId {
        NodeId(self.snap_to_orig[snap.0 as usize])
    }
}

impl Scheme for DynamicMultiTree {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn num_receivers(&self) -> usize {
        self.max_id
    }

    fn send_capacity(&self, node: NodeId) -> usize {
        if node.is_source() {
            self.forest.d()
        } else {
            1
        }
    }

    fn availability(&self) -> clustream_core::Availability {
        self.mode.availability()
    }

    fn schedule_period(&self) -> Option<SchedulePeriod> {
        self.period
    }

    fn transmissions(&mut self, slot: Slot, view: &dyn StateView, out: &mut Vec<Transmission>) {
        if slot.t() < self.last_slot && self.cursor > 0 {
            self.rewind();
        }
        self.last_slot = slot.t();
        self.apply_due(slot.t());
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        self.inner.transmissions(slot, view, &mut scratch);
        out.extend(scratch.iter().map(|tx| Transmission {
            from: self.translate(tx.from),
            to: self.translate(tx.to),
            ..*tx
        }));
        self.scratch = scratch;
    }

    fn membership_event(&mut self, node: NodeId, event: MembershipEvent) -> Option<RepairOutcome> {
        let report = match event {
            MembershipEvent::Failed => self.leave(node.0 as usize),
            MembershipEvent::Rejoined => self.join(node.0 as usize),
        }?;
        self.rebuild().ok()?;
        Some(RepairOutcome {
            swaps: report.swaps,
            displaced: (report.displaced.iter())
                .map(|&ext| self.ext_to_orig[ext as usize])
                .filter(|&id| id != 0)
                .map(NodeId)
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustream_core::PacketId;
    use clustream_sim::{FaultPlan, SimConfig, Simulator};
    use proptest::prelude::*;

    const PRE: StreamMode = StreamMode::PreRecorded;

    fn healing(n: usize, d: usize) -> DynamicMultiTree {
        DynamicMultiTree::new(n, d, PRE, Construction::Greedy).unwrap()
    }

    fn crowd(n0: usize, d: usize, scenario: &str) -> DynamicMultiTree {
        let plan = match scenario {
            "" => ScenarioPlan::default(),
            s => ScenarioPlan::parse(s).unwrap(),
        };
        DynamicMultiTree::from_plan(n0, d, PRE, Construction::Greedy, &plan).unwrap()
    }

    fn static_tree(n: usize, d: usize) -> MultiTreeScheme {
        let forest = clustream_multitree::build_forest(n, d, Construction::Greedy).unwrap();
        MultiTreeScheme::new(forest, PRE)
    }

    /// The established fault-tolerant-regime idiom: zero-rate loss so
    /// joiner gaps are reported instead of erroring the run.
    fn lossy_cfg(track: u64, slots: u64) -> SimConfig {
        SimConfig::with_faults(track, slots, FaultPlan::loss(0.0, 1))
    }

    struct NoView;
    impl StateView for NoView {
        fn holds(&self, _: NodeId, _: PacketId) -> bool {
            false
        }
        fn newest(&self, _: NodeId) -> Option<PacketId> {
            None
        }
        fn slot(&self) -> Slot {
            Slot(0)
        }
    }

    /// The schedule of slots `slots`, one list per slot.
    fn schedule(s: &mut DynamicMultiTree, slots: std::ops::Range<u64>) -> Vec<Vec<Transmission>> {
        slots
            .map(|t| {
                let mut out = Vec::new();
                s.transmissions(Slot(t), &NoView, &mut out);
                out
            })
            .collect()
    }

    // ---- event-driven: the self-healing tree (from `heal.rs`) ----

    #[test]
    fn clean_run_matches_static_multitree() {
        // Without membership events the wrapper is an id-preserving
        // facade: QoS must match the static scheme bit for bit.
        let cfg = SimConfig::until_complete(24, 10_000);
        let a = Simulator::run(&mut healing(27, 3), &cfg).unwrap();
        let b = Simulator::run(&mut static_tree(27, 3), &cfg).unwrap();
        assert_eq!(a.qos.max_delay(), b.qos.max_delay());
        assert_eq!(a.qos.avg_delay(), b.qos.avg_delay());
        assert_eq!(a.qos.max_buffer(), b.qos.max_buffer());
        assert_eq!(a.total_transmissions, b.total_transmissions);
        assert_eq!(a.arrivals, b.arrivals);
    }

    #[test]
    fn failure_removes_node_from_schedule() {
        let mut s = healing(15, 3);
        let victim = NodeId(4);
        assert!(s.is_member(victim));
        let outcome = s
            .membership_event(victim, MembershipEvent::Failed)
            .expect("repairable");
        assert!(!s.is_member(victim));
        let d = s.d();
        assert!(
            outcome.displaced.len() <= d * d,
            "{} displaced > d² = {}",
            outcome.displaced.len(),
            d * d
        );
        s.forest().validate().unwrap();
        // The dead node never appears in the schedule again.
        for (t, out) in schedule(&mut s, 0..60).iter().enumerate() {
            for tx in out {
                assert_ne!(tx.from, victim, "slot {t}: dead node asked to send");
                assert_ne!(tx.to, victim, "slot {t}: dead node scheduled to receive");
                assert!(tx.to.0 as usize <= 15, "unknown id {}", tx.to.0);
            }
        }
        // A second failure notification for the same node is a no-op.
        assert!(s
            .membership_event(victim, MembershipEvent::Failed)
            .is_none());
    }

    #[test]
    fn rejoin_restores_membership_under_original_id() {
        let mut s = healing(12, 2);
        let node = NodeId(7);
        s.membership_event(node, MembershipEvent::Failed).unwrap();
        assert!(!s.is_member(node));
        s.membership_event(node, MembershipEvent::Rejoined).unwrap();
        assert!(s.is_member(node));
        s.forest().validate().unwrap();
        // Rejoining an already-live node is a no-op.
        assert!(s
            .membership_event(node, MembershipEvent::Rejoined)
            .is_none());
        // The schedule addresses it again.
        let seen = schedule(&mut s, 0..60)
            .iter()
            .any(|out| out.iter().any(|tx| tx.to == node));
        assert!(seen, "rejoined node never scheduled");
    }

    // ---- script-driven: the flash crowd (from `crowd.rs`) ----

    #[test]
    fn no_events_matches_static_multitree() {
        let cfg = SimConfig::until_complete(24, 10_000);
        let a = Simulator::run(&mut crowd(27, 3, ""), &cfg).unwrap();
        let b = Simulator::run(&mut static_tree(27, 3), &cfg).unwrap();
        assert_eq!(a.qos.max_delay(), b.qos.max_delay());
        assert_eq!(a.qos.max_buffer(), b.qos.max_buffer());
        assert_eq!(a.arrivals, b.arrivals);
    }

    #[test]
    fn joiners_become_members_and_receive() {
        let mut crowd = crowd(8, 2, "step:6@4");
        assert_eq!(crowd.num_receivers(), 14);
        let r = Simulator::run(&mut crowd, &lossy_cfg(24, 200)).unwrap();
        assert_eq!(crowd.joins_applied(), 6);
        assert!(crowd.is_member(NodeId(14)));
        // Every joiner eventually holds late-window packets.
        for node in 9..=14u32 {
            assert!(
                r.arrivals.usable_slot(NodeId(node), 23.into()).is_some(),
                "joiner {node} missing packet 23"
            );
        }
        crowd.forest().validate().unwrap();
    }

    #[test]
    fn regional_failure_silences_the_region() {
        let mut crowd = crowd(9, 3, "fail:3-5@6");
        let _ = Simulator::run(&mut crowd, &lossy_cfg(16, 120)).unwrap();
        assert_eq!(crowd.leaves_applied(), 3);
        for dead in 3..=5u32 {
            assert!(!crowd.is_member(NodeId(dead)));
        }
        // The dead ids never appear in the schedule again.
        for out in schedule(&mut crowd, 120..180) {
            for tx in out {
                assert!(
                    !(3..=5).contains(&tx.to.0),
                    "dead node {} scheduled",
                    tx.to.0
                );
                assert!(
                    !(3..=5).contains(&tx.from.0),
                    "dead node {} sending",
                    tx.from.0
                );
            }
        }
    }

    #[test]
    fn eventful_slots_rebuild_once() {
        let mut crowd = crowd(6, 2, "step:10@3,step:5@7");
        let _ = Simulator::run(&mut crowd, &lossy_cfg(12, 100)).unwrap();
        assert_eq!(crowd.rebuilds(), 2, "one rebuild per eventful slot");
        assert_eq!(crowd.settled_slot(), 7);
    }

    #[test]
    fn join_slots_index_resolved_ids() {
        let crowd = crowd(4, 2, "step:3@9");
        let js = crowd.join_slots();
        assert_eq!(js.len(), 8);
        assert!(js[..5].iter().all(|&s| s == 0));
        assert!(js[5..].iter().all(|&s| s == 9));
    }

    #[test]
    fn a_scripted_crowd_replays_from_slot_0() {
        // The mega engine re-runs the same instance after a steady
        // anomaly: a second run must start from the initial membership,
        // not from the settled forest the first one left behind.
        let cfg = lossy_cfg(16, 120);
        let scenario = "step:6@4,fail:2-3@9";
        let want = Simulator::run(&mut crowd(8, 2, scenario), &cfg).unwrap();
        let mut twice = crowd(8, 2, scenario);
        let mut eng = clustream_sim::FastEngine::new();
        for run in 0..2 {
            assert_eq!(eng.run(&mut twice, &cfg).unwrap(), want, "run {run}");
            assert_eq!(twice.rebuilds(), 2, "run {run}");
            assert_eq!(twice.joins_applied(), 6, "run {run}");
            assert_eq!(twice.leaves_applied(), 2, "run {run}");
        }
        // Asking for the same slot again is not a rewind.
        let at = schedule(&mut twice, 119..120);
        assert_eq!(schedule(&mut twice, 119..120), at);
        assert_eq!(twice.rebuilds(), 2);
    }

    #[test]
    fn the_declaration_starts_past_the_script_by_the_settled_warmup() {
        // No script: the static multi-tree's own declaration.
        let still = healing(27, 3);
        assert_eq!(
            still.schedule_period(),
            static_tree(27, 3).schedule_period()
        );
        assert_eq!(
            crowd(27, 3, "").schedule_period(),
            static_tree(27, 3).schedule_period()
        );
        // A script: the settled forest's warmup, counted from its last
        // slot — whatever the initial forest's warmup was.
        let mut c = crowd(9, 3, "ramp:20@5+30,fail:2-4@50");
        let settled = c.settled_slot();
        assert_eq!(settled, 50);
        let decl = c.schedule_period().unwrap();
        let _ = schedule(&mut c, 0..settled + 1);
        let w = c.inner.schedule_period().unwrap();
        assert_eq!(decl.period, 3);
        assert_eq!(decl.warmup, settled + w.warmup);
        // From there the emission list repeats with packet delta d.
        let window = schedule(&mut c, decl.warmup..decl.warmup + 2 * decl.period);
        let (a, b) = window.split_at(decl.period as usize);
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.len(), y.len());
            for (p, q) in x.iter().zip(y) {
                assert_eq!((p.from, p.to), (q.from, q.to));
                assert_eq!(q.packet.seq(), p.packet.seq() + decl.period);
            }
        }
    }

    // ---- one type: the two drivers agree ----

    #[test]
    fn the_two_names_survive_the_fold() {
        assert_eq!(
            healing(9, 3).name(),
            "self-healing multi-tree(d=3, prerecorded)"
        );
        assert_eq!(
            crowd(9, 3, "step:4@2,fail:2-3@6").name(),
            "flash-crowd(n0=9,d=3,joins=4,fails=2)"
        );
        assert_eq!(healing(9, 3).num_receivers(), 9);
        assert_eq!(crowd(9, 3, "step:4@2").num_receivers(), 13);
    }

    #[test]
    fn a_leave_before_its_join_is_a_config_error() {
        let ev = |slot, action| ResolvedChurnEvent { slot, action };
        let err = DynamicMultiTree::scripted(
            4,
            2,
            PRE,
            Construction::Greedy,
            vec![
                ev(1, ResolvedChurnAction::Leave { ext: 5 }),
                ev(2, ResolvedChurnAction::Join { ext: 5 }),
            ],
        )
        .unwrap_err();
        assert!(err.to_string().contains("before any join"), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Script-driven ≡ event-driven: one random join / leave / rejoin
        /// sequence — no-ops included: leaves of non-members, rejoins of
        /// members, a leave the dynamics refuse — fed as a script (all
        /// due at slot 0) and as `membership_event` calls yields the same
        /// forest (position tables, labels, swap count: its whole `Debug`
        /// rendering), the same counters and membership, and the same
        /// transmissions from the next slot on.
        #[test]
        fn a_script_and_the_same_events_build_the_same_forest(
            n0 in 4usize..15,
            d in 2usize..4,
            ops in proptest::collection::vec((0u8..4, 0u64..64), 0..24),
        ) {
            let mut next = n0 as u64;
            let actions: Vec<ResolvedChurnAction> = ops
                .iter()
                .map(|&(kind, pick)| {
                    let ext = 1 + pick % next;
                    match kind {
                        0 => {
                            next += 1;
                            ResolvedChurnAction::Join { ext: next }
                        }
                        1 => ResolvedChurnAction::Rejoin { ext },
                        _ => ResolvedChurnAction::Leave { ext },
                    }
                })
                .collect();

            let events = actions.iter().map(|&action| ResolvedChurnEvent { slot: 0, action });
            let mut scripted =
                DynamicMultiTree::scripted(n0, d, PRE, Construction::Greedy, events.collect())
                    .unwrap();
            let mut driven = healing(n0, d);
            for action in &actions {
                let (ext, event) = match *action {
                    ResolvedChurnAction::Join { ext } | ResolvedChurnAction::Rejoin { ext } => {
                        (ext, MembershipEvent::Rejoined)
                    }
                    ResolvedChurnAction::Leave { ext } => (ext, MembershipEvent::Failed),
                };
                driven.membership_event(NodeId(ext as u32), event);
            }

            // Slot 0 applies the whole script; from there on the two are
            // one scheme.
            prop_assert_eq!(schedule(&mut scripted, 0..3 * d as u64), schedule(&mut driven, 0..3 * d as u64));
            scripted.forest().validate().unwrap();
            driven.forest().validate().unwrap();
            prop_assert_eq!(format!("{:?}", scripted.forest()), format!("{:?}", driven.forest()));
            prop_assert_eq!(scripted.total_swaps(), driven.total_swaps());
            prop_assert_eq!(scripted.joins_applied(), driven.joins_applied());
            prop_assert_eq!(scripted.leaves_applied(), driven.leaves_applied());
            prop_assert_eq!(scripted.forest().members(), driven.forest().members());
            for id in 0..=next as u32 + 1 {
                prop_assert_eq!(scripted.is_member(NodeId(id)), driven.is_member(NodeId(id)), "id {}", id);
            }
        }
    }
}
