//! Property tests for runtime overlay repair: arbitrary interleavings of
//! confirmed failures and rejoins, applied through the self-healing
//! wrapper mid-"run", must preserve every §2.2 multi-tree invariant
//! (interior-disjointness, each residue class mod `d` covered exactly
//! once, collision-free round-robin schedule) and respect the appendix's
//! `d²` displacement bound per operation.

use clustream::core::{MembershipEvent, RepairOutcome};
use clustream::prelude::*;
use clustream::workloads::ChurnEvent;
use proptest::prelude::*;

/// Replay `ops` as membership events against a self-healing scheme.
/// `true` = fail the `pick`-th live member, `false` = rejoin the
/// `pick`-th failed one (no-op when nobody has failed).
fn apply_ops(
    s: &mut DynamicMultiTree,
    n: usize,
    ops: &[(bool, usize)],
) -> Vec<(NodeId, MembershipEvent, Option<RepairOutcome>)> {
    let mut live: Vec<u64> = (1..=n as u64).collect();
    let mut failed: Vec<u64> = Vec::new();
    let mut log = Vec::new();
    for &(fail, pick) in ops {
        if fail {
            if live.len() <= 3 {
                continue; // the dynamics refuse to empty the forest
            }
            let v = live.remove(pick % live.len());
            let out = s.membership_event(NodeId(v as u32), MembershipEvent::Failed);
            log.push((NodeId(v as u32), MembershipEvent::Failed, out));
            failed.push(v);
        } else if !failed.is_empty() {
            let v = failed.remove(pick % failed.len());
            let out = s.membership_event(NodeId(v as u32), MembershipEvent::Rejoined);
            log.push((NodeId(v as u32), MembershipEvent::Rejoined, out));
            let at = live.binary_search(&v).unwrap_err();
            live.insert(at, v);
        }
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Invariants survive arbitrary repair interleavings, and the healed
    /// overlay still runs collision-free end to end.
    #[test]
    fn repair_interleavings_preserve_invariants(
        n in 6usize..40,
        d in 2usize..5,
        ops in proptest::collection::vec((any::<bool>(), 0usize..100), 0..12),
    ) {
        let mut s =
            DynamicMultiTree::new(n, d, StreamMode::PreRecorded, Construction::Greedy)
                .unwrap();
        let log = apply_ops(&mut s, n, &ops);

        // Structural invariants (§2.2): interior-disjointness, residue
        // cover, dummy placement — all enforced by validate().
        s.forest().validate().unwrap();

        // Every op the wrapper accepted reported an outcome, and every
        // failed-and-not-rejoined node is gone from membership.
        for (node, event, out) in &log {
            prop_assert!(out.is_some(), "{node:?} {event:?} silently dropped");
        }

        // The healed schedule is still collision-free and delivers the
        // full window to every current member. Permanently failed nodes
        // remain receivers by id (identity is stable) but are no longer
        // scheduled, so run in the fault-tolerant regime — capacity and
        // collision violations still abort the run there.
        let cfg = SimConfig::with_faults(16, 400, clustream::sim::FaultPlan::loss(0.0, 1));
        let r = Simulator::run(&mut s, &cfg).unwrap();
        prop_assert_eq!(r.duplicate_deliveries, 0);
        // Members (by original id) each hold the whole tracked window.
        for id in 1..=n as u64 {
            if s.is_member(NodeId(id as u32)) {
                for p in 0..16u64 {
                    prop_assert!(
                        r.arrivals.usable_slot(NodeId(id as u32), PacketId(p)).is_some(),
                        "member {id} missing packet {p}"
                    );
                }
            }
        }
    }

    /// The appendix displacement bound, measured per operation at the
    /// forest level: each add/remove displaces at most `d²` real nodes,
    /// except when the lazy dynamics amortize a whole-group rebuild
    /// (`resized < 0`, the documented shrink case).
    #[test]
    fn each_repair_displaces_at_most_d_squared(
        n in 6usize..40,
        d in 2usize..5,
        ops in proptest::collection::vec((any::<bool>(), 0usize..100), 0..16),
    ) {
        let mut forest = DynamicForest::new(n, d, Construction::Greedy, true).unwrap();
        let mut live = forest.members();
        for &(remove, pick) in &ops {
            let report = if remove {
                if live.len() <= 3 {
                    continue;
                }
                let v = live.remove(pick % live.len());
                forest.remove(v).unwrap()
            } else {
                let (ext, report) = forest.add();
                live.push(ext);
                live.sort_unstable();
                report
            };
            if !matches!(report.resized, Some(r) if r < 0) {
                prop_assert!(
                    report.displaced.len() <= d * d,
                    "{} displaced > d² = {} (resized {:?})",
                    report.displaced.len(),
                    d * d,
                    report.resized
                );
            }
            forest.validate().unwrap();
        }
    }

    /// A pure join storm (the flash-crowd ingredient): every single add
    /// respects the appendix `d²` displacement bound, incumbents keep
    /// their external ids throughout, and newcomers draw monotonically
    /// increasing fresh ids — the property that lets
    /// [`clustream_workloads::ChurnTrace::resolve`] and the forest agree
    /// on identity without a side channel.
    #[test]
    fn join_storms_bound_displacement_and_preserve_ids(
        n in 4usize..24,
        d in 2usize..5,
        storm in 1usize..80,
    ) {
        let mut forest = DynamicForest::new(n, d, Construction::Greedy, true).unwrap();
        let incumbents = forest.members();
        for expected_next in (n as u64 + 1)..(n as u64 + 1 + storm as u64) {
            let (ext, report) = forest.add();
            prop_assert_eq!(ext, expected_next, "fresh ids must be monotone");
            prop_assert!(
                report.displaced.len() <= d * d,
                "join displaced {} > d² = {} (resized {:?})",
                report.displaced.len(),
                d * d,
                report.resized
            );
            // A join never evicts anyone: every incumbent is still a
            // member under the same external id.
            prop_assert!(
                !report.displaced.contains(&0),
                "the source can never be displaced"
            );
        }
        forest.validate().unwrap();
        let after = forest.members();
        for id in &incumbents {
            prop_assert!(after.contains(id), "incumbent {id} lost its id in the storm");
        }
        prop_assert_eq!(after.len(), incumbents.len() + storm);
    }

    /// End-to-end join storm through the flash-crowd scheme: once the
    /// storm has settled, **no survivor is missing a packet** from the
    /// post-settle window — incumbents and joiners alike hold the tail
    /// of the tracked stream, and the run closes on the reference engine
    /// in the fault-tolerant regime (transient duplicates to displaced
    /// nodes are permitted — they are the cost the appendix bounds).
    #[test]
    fn settled_join_storms_leave_no_survivor_behind(
        n0 in 4usize..12,
        d in 2usize..4,
        joins in 1u64..20,
        at in 0u64..10,
    ) {
        let plan = ScenarioPlan::parse(&format!("step:{joins}@{at}")).unwrap();
        let mut crowd = DynamicMultiTree::from_plan(
            n0, d, StreamMode::PreRecorded, Construction::Greedy, &plan,
        ).unwrap();
        let cfg = SimConfig::lossy_regime(12, 500);
        let r = Simulator::run(&mut crowd, &cfg).unwrap();
        prop_assert_eq!(crowd.joins_applied(), joins);
        prop_assert!(crowd.settled_slot() >= at);
        // The last tracked packet leaves the source well after the storm
        // (at < 10 < 11): every member must hold it.
        for id in 1..=(n0 as u64 + joins) {
            prop_assert!(crowd.is_member(NodeId(id as u32)));
            prop_assert!(
                r.arrivals.usable_slot(NodeId(id as u32), PacketId(11)).is_some(),
                "survivor {id} missing packet 11 after the storm settled"
            );
        }
        crowd.forest().validate().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Streaming through random small join/leave scripts on the scheme
    /// that ships: the script goes through `ChurnTrace::resolve` (the one
    /// victim rule) and `DynamicMultiTree::scripted`, the engine validates
    /// every slot, the forest stays invariant-clean, and once the churn
    /// has settled every member holds the tail of the window. Transient
    /// duplicates to displaced nodes are allowed: they are the cost
    /// `settled_join_storms_leave_no_survivor_behind` documents.
    #[test]
    fn settled_mixed_churn_leaves_no_member_missing_the_tail(
        n0 in 6usize..16,
        d in 2usize..4,
        script in proptest::collection::vec((5u64..30, any::<bool>(), 0usize..100), 0..5),
    ) {
        let mut events: Vec<ChurnEvent> = script
            .iter()
            .map(|&(slot, join, pick)| ChurnEvent {
                slot,
                action: if join {
                    ChurnAction::Join
                } else {
                    ChurnAction::Leave { victim_rank: pick }
                },
            })
            .collect();
        events.sort_by_key(|e| e.slot);
        // Never drop below 2 members.
        let mut members = n0;
        events.retain(|e| match e.action {
            ChurnAction::Join | ChurnAction::Rejoin { .. } => {
                members += 1;
                true
            }
            ChurnAction::Leave { .. } if members > 2 => {
                members -= 1;
                true
            }
            ChurnAction::Leave { .. } => false,
        });
        let trace = ChurnTrace {
            config: ChurnTraceConfig {
                initial_members: n0,
                slots: 40,
                join_rate: 0.0,
                leave_rate: 0.0,
                rejoin_rate: 0.0,
                seed: 0,
            },
            events,
        };
        let initial: Vec<u64> = (1..=n0 as u64).collect();
        let mut s = DynamicMultiTree::scripted(
            n0,
            d,
            StreamMode::PreRecorded,
            Construction::Greedy,
            trace.resolve(&initial, &[]).unwrap(),
        )
        .unwrap();
        let track = 90u64;
        let r = Simulator::run(&mut s, &SimConfig::lossy_regime(track, 1200)).unwrap();
        s.forest().validate().unwrap();
        for id in (1..=s.num_receivers() as u32).filter(|&id| s.is_member(NodeId(id))) {
            let from = s.join_slots()[id as usize] + 40;
            for p in from.max(track - 20)..track {
                prop_assert!(
                    r.arrivals.usable_slot(NodeId(id), PacketId(p)).is_some(),
                    "member {id} missing tail packet {p}"
                );
            }
        }
    }
}
