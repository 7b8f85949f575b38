//! Cross-crate fault-injection properties: loss/crash behaviour of every
//! scheme family under the shared engine.

use clustream::prelude::*;
use clustream::sim::FaultPlan;
use clustream::NodeId;
use proptest::prelude::*;

#[test]
fn loss_free_fault_runs_match_clean_runs_everywhere() {
    // A fault plan with zero loss must not perturb any scheme's QoS.
    let clean_vs_lossless = |mk: &dyn Fn() -> Box<dyn Scheme>| {
        let mut a = mk();
        let clean = Simulator::run(a.as_mut(), &SimConfig::until_complete(24, 100_000)).unwrap();
        let mut b = mk();
        let cfg = SimConfig::with_faults(24, 4 * clean.slots_run + 32, FaultPlan::loss(0.0, 5));
        let lossless = Simulator::run(b.as_mut(), &cfg).unwrap();
        for q in &clean.qos.nodes {
            assert_eq!(
                lossless.qos.node(q.node).unwrap().playback_delay,
                q.playback_delay,
                "{} node {}",
                clean.scheme,
                q.node
            );
        }
        assert_eq!(
            lossless.loss.unwrap().total_missing(),
            0,
            "{}",
            clean.scheme
        );
    };
    clean_vs_lossless(&|| {
        Box::new(MultiTreeScheme::new(
            greedy_forest(40, 3).unwrap(),
            StreamMode::PreRecorded,
        ))
    });
    clean_vs_lossless(&|| Box::new(HypercubeStream::new(40).unwrap()));
    clean_vs_lossless(&|| Box::new(ChainScheme::new(20)));
}

#[test]
fn crashing_an_all_leaf_node_is_harmless_in_multitrees() {
    // An all-leaf (G_d) node uploads nothing: crashing it starves nobody.
    let forest = greedy_forest(15, 3).unwrap();
    let all_leaf = forest.node_at(0, 15); // tail of T_0 is in G_d
    let mut s = MultiTreeScheme::new(forest, StreamMode::PreRecorded);
    let cfg = SimConfig::with_faults(24, 200, FaultPlan::crash(NodeId(all_leaf), 0));
    let r = Simulator::run(&mut s, &cfg).unwrap();
    let loss = r.loss.unwrap();
    assert_eq!(loss.total_missing(), 0, "leaf crash starved someone");
    assert_eq!(loss.crash_suppressed, 0, "leaves never send anyway");
}

#[test]
fn crashing_the_interior_node_starves_only_its_tree_share() {
    // The multi-tree resilience claim, asserted per node: a T_0 interior
    // crash costs its descendants only the T_0 packet share (1/d-ish),
    // never the whole stream.
    let d = 3;
    let track = 30u64;
    let forest = greedy_forest(39, d).unwrap();
    let mut s = MultiTreeScheme::new(forest, StreamMode::PreRecorded);
    let cfg = SimConfig::with_faults(track, 400, FaultPlan::crash(NodeId(1), 2));
    let r = Simulator::run(&mut s, &cfg).unwrap();
    let loss = r.loss.unwrap();
    assert!(loss.affected_nodes() > 0, "node 1 has descendants");
    for &(node, missing) in &loss.missing {
        assert!(
            (missing as u64) <= track / d as u64 + 2,
            "{node} lost {missing} > one tree's share"
        );
    }
}

#[test]
fn hypercube_loses_nothing_before_the_crash_slot() {
    let crash_at = 12u64;
    let mut s = HypercubeStream::new(31).unwrap();
    let cfg = SimConfig::with_faults(24, 300, FaultPlan::crash(NodeId(5), crash_at));
    let r = Simulator::run(&mut s, &cfg).unwrap();
    // Packets consumed before the crash were fully distributed: packet p
    // is everywhere by slot p + k + 1 = p + 6; so packets with
    // p + 6 ≤ 12 are safe.
    for node in 1..=31u32 {
        for p in 0..(crash_at - 6) {
            assert!(
                r.arrivals
                    .usable_slot(NodeId(node), clustream::PacketId(p))
                    .is_some(),
                "node {node} lost pre-crash packet {p}"
            );
        }
    }
}

#[test]
fn chain_crash_severs_everything_downstream() {
    let mut s = ChainScheme::new(10);
    let cfg = SimConfig::with_faults(16, 100, FaultPlan::crash(NodeId(5), 0));
    let r = Simulator::run(&mut s, &cfg).unwrap();
    let loss = r.loss.unwrap();
    // Nodes 6..10 get nothing at all; nodes 1..5 everything.
    assert_eq!(loss.affected_nodes(), 5);
    for &(node, missing) in &loss.missing {
        assert!(node.0 >= 6);
        assert_eq!(missing, 16, "{node} should miss the whole window");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A zero-probability loss process must be a perfect no-op for
    /// **every** scheme family: identical per-node playback delay *and*
    /// buffer occupancy, and an all-zero loss report. Buffers matter
    /// here — the lossy analysis path once pinned them at zero.
    #[test]
    fn zero_loss_runs_equal_clean_runs_for_every_family(
        n in 2usize..60,
        d in 1usize..5,
        seed in any::<u64>(),
        t_c in 2u32..20,
    ) {
        let cluster = n.clamp(2, 9);
        let families: Vec<Box<dyn Fn() -> Box<dyn Scheme>>> = vec![
            Box::new(move || {
                Box::new(MultiTreeScheme::new(
                    greedy_forest(n, d).unwrap(),
                    StreamMode::PreRecorded,
                ))
            }),
            Box::new(move || Box::new(HypercubeStream::new(n).unwrap())),
            Box::new(move || Box::new(ChainScheme::new(n))),
            Box::new(move || Box::new(SingleTreeScheme::new(n, d.max(2)))),
            Box::new(move || {
                Box::new(
                    ClusterSession::new(
                        &[cluster, cluster, cluster],
                        3,
                        t_c,
                        IntraScheme::MultiTree {
                            d,
                            construction: Construction::Greedy,
                        },
                    )
                    .unwrap(),
                )
            }),
        ];
        for mk in &families {
            let mut a = mk();
            let clean =
                Simulator::run(a.as_mut(), &SimConfig::until_complete(16, 100_000)).unwrap();
            let mut b = mk();
            let cfg = SimConfig::with_faults(
                16,
                4 * clean.slots_run + 32,
                FaultPlan::loss(0.0, seed),
            );
            let lossless = Simulator::run(b.as_mut(), &cfg).unwrap();
            for q in &clean.qos.nodes {
                let l = lossless.qos.node(q.node).unwrap();
                prop_assert_eq!(
                    (l.playback_delay, l.max_buffer),
                    (q.playback_delay, q.max_buffer),
                    "{} node {}",
                    clean.scheme,
                    q.node
                );
            }
            let loss = lossless.loss.as_ref().unwrap();
            prop_assert_eq!(loss.total_missing(), 0, "{}", clean.scheme);
            prop_assert_eq!(loss.lost_in_flight, 0, "{}", clean.scheme);
            prop_assert_eq!(loss.propagation_suppressed, 0, "{}", clean.scheme);
        }
    }
}

#[test]
fn total_loss_starves_every_receiver_completely() {
    // loss_rate = 1.0 drops every transmission in flight: no receiver
    // ever holds anything, so all n nodes miss the entire window.
    let track = 12u64;
    type SchemeFactory = Box<dyn Fn() -> Box<dyn Scheme>>;
    let runs: Vec<(usize, SchemeFactory)> = vec![
        (
            20,
            Box::new(|| {
                Box::new(MultiTreeScheme::new(
                    greedy_forest(20, 2).unwrap(),
                    StreamMode::PreRecorded,
                ))
            }),
        ),
        (15, Box::new(|| Box::new(HypercubeStream::new(15).unwrap()))),
        (10, Box::new(|| Box::new(ChainScheme::new(10)))),
    ];
    for (n, mk) in &runs {
        let mut s = mk();
        let cfg = SimConfig::with_faults(track, 200, FaultPlan::loss(1.0, 11));
        let r = Simulator::run(s.as_mut(), &cfg).unwrap();
        let loss = r.loss.unwrap();
        assert_eq!(loss.affected_nodes(), *n, "{}", r.scheme);
        for &(node, missing) in &loss.missing {
            assert_eq!(missing as u64, track, "{} node {node}", r.scheme);
        }
        assert!(loss.lost_in_flight > 0, "{}", r.scheme);
    }
}

#[test]
fn crash_at_slot_zero_silences_the_node_for_the_whole_run() {
    // Node 1 uploads plenty in a clean run; crashed at slot 0 it must
    // never send a single packet — everything it would have relayed is
    // crash-suppressed instead.
    let mk = || MultiTreeScheme::new(greedy_forest(30, 2).unwrap(), StreamMode::PreRecorded);
    let mut clean_scheme = mk();
    let clean = Simulator::run(&mut clean_scheme, &SimConfig::until_complete(16, 100_000)).unwrap();
    assert!(clean.upload_counts[1] > 0, "node 1 is interior");

    let mut s = mk();
    let cfg = SimConfig::with_faults(16, 300, FaultPlan::crash(NodeId(1), 0));
    let r = Simulator::run(&mut s, &cfg).unwrap();
    assert_eq!(r.upload_counts[1], 0, "crashed-at-0 node must never upload");
    assert!(r.loss.as_ref().unwrap().crash_suppressed > 0);
}

#[test]
fn source_adjacent_crash_severs_the_entire_chain() {
    // Crashing the only node the source feeds is the largest possible
    // blast radius: node 1 still receives, everyone downstream starves.
    let n = 8u32;
    let track = 10u64;
    let mut s = ChainScheme::new(n as usize);
    let cfg = SimConfig::with_faults(track, 100, FaultPlan::crash(NodeId(1), 0));
    let r = Simulator::run(&mut s, &cfg).unwrap();
    let loss = r.loss.unwrap();
    assert_eq!(loss.affected_nodes(), n as usize - 1);
    for &(node, missing) in &loss.missing {
        assert!(node.0 >= 2, "node 1 itself keeps receiving");
        assert_eq!(missing as u64, track, "{node} should miss the window");
    }
}

#[test]
fn lossy_runs_report_real_buffer_occupancy() {
    // Pins the lossy-analysis fix: `max_buffer` comes from the actual
    // playback simulation, not a hardwired zero.
    let mk = || MultiTreeScheme::new(greedy_forest(40, 3).unwrap(), StreamMode::PreRecorded);
    let mut clean_scheme = mk();
    let clean = Simulator::run(&mut clean_scheme, &SimConfig::until_complete(32, 100_000)).unwrap();
    assert!(clean.qos.max_buffer() > 0);

    // Zero loss: buffers identical to the clean run, node by node.
    let mut a = mk();
    let cfg = SimConfig::with_faults(32, 4 * clean.slots_run + 32, FaultPlan::loss(0.0, 9));
    let lossless = Simulator::run(&mut a, &cfg).unwrap();
    for q in &clean.qos.nodes {
        assert_eq!(
            lossless.qos.node(q.node).unwrap().max_buffer,
            q.max_buffer,
            "node {}",
            q.node
        );
    }

    // Genuine loss: occupancy must still be reported, not zeroed.
    let mut b = mk();
    let cfg = SimConfig::with_faults(32, 400, FaultPlan::loss(0.15, 9));
    let lossy = Simulator::run(&mut b, &cfg).unwrap();
    assert!(lossy.loss.as_ref().unwrap().total_missing() > 0);
    assert!(
        lossy.qos.max_buffer() > 0,
        "lossy runs must report real buffer occupancy"
    );
}

#[test]
fn fail_stop_that_never_triggers_equals_clean() {
    // Satellite: threading a fail-stop plan through the engines must be a
    // perfect no-op until the stop slot arrives. A stop scheduled past the
    // horizon therefore reproduces the clean run bit for bit.
    let mk = || MultiTreeScheme::new(greedy_forest(30, 3).unwrap(), StreamMode::PreRecorded);
    let mut clean_scheme = mk();
    let clean = Simulator::run(&mut clean_scheme, &SimConfig::until_complete(16, 100_000)).unwrap();

    let mut plan = FaultPlan::fail_stop(NodeId(5), 1_000_000);
    plan.loss_rate = 0.0;
    let cfg = SimConfig::with_faults(16, 4 * clean.slots_run + 32, plan);
    for engine in [
        Simulator::run as fn(&mut dyn Scheme, &SimConfig) -> _,
        MegaSimulator::run,
    ] {
        let mut s = mk();
        let r = engine(&mut s, &cfg).unwrap();
        for q in &clean.qos.nodes {
            let l = r.qos.node(q.node).unwrap();
            assert_eq!(
                (l.playback_delay, l.max_buffer),
                (q.playback_delay, q.max_buffer),
                "node {}",
                q.node
            );
        }
        let loss = r.loss.as_ref().unwrap();
        assert_eq!(loss.total_missing(), 0);
        assert_eq!(loss.stopped_receives, 0);
    }
}

#[test]
fn fail_stop_silences_sends_and_receives() {
    // A fail-stopped node is deaf as well as mute: it suppresses its own
    // sends (like a crash) *and* drops arrivals on the floor, so it shows
    // up in the missing set itself while its descendants starve too.
    let stop_at = 6u64;
    let track = 24u64;
    let mk = || MultiTreeScheme::new(greedy_forest(30, 3).unwrap(), StreamMode::PreRecorded);

    // Node 1 is interior (it uploads in a clean run).
    let mut probe = mk();
    let clean = Simulator::run(&mut probe, &SimConfig::until_complete(track, 100_000)).unwrap();
    assert!(clean.upload_counts[1] > 0);

    let cfg = SimConfig::with_faults(track, 300, FaultPlan::fail_stop(NodeId(1), stop_at));
    let reference = {
        let mut s = mk();
        Simulator::run(&mut s, &cfg).unwrap()
    };
    let mega = {
        let mut s = mk();
        MegaSimulator::run(&mut s, &cfg).unwrap()
    };
    assert_eq!(diff_fields(&reference, &mega), Vec::<&str>::new());

    let loss = reference.loss.as_ref().unwrap();
    assert!(loss.stopped_receives > 0, "arrivals must be dropped");
    assert!(loss.crash_suppressed > 0, "sends must be suppressed");
    assert!(
        loss.missing.iter().any(|&(n, _)| n == NodeId(1)),
        "the stopped node itself goes starved"
    );
    // Fail-stop is a crash variant: every propagation loss it causes is
    // attributed to the crash side of the split.
    assert_eq!(loss.propagation_from_loss, 0);
    assert_eq!(
        loss.propagation_from_crash, loss.propagation_suppressed,
        "crash-only plans attribute all propagation to the crash"
    );
    // And the uniform resilience report carries the stall accounting.
    let resil = reference.resilience.unwrap();
    assert_eq!(resil.stall_events, loss.total_missing() as u64);
}

#[test]
fn propagation_split_attributes_each_originating_fault() {
    // Satellite: the LossReport splits downstream suppression by the
    // fault that originated it, and the split always sums to the total.
    let mk = || MultiTreeScheme::new(greedy_forest(40, 3).unwrap(), StreamMode::PreRecorded);

    // Loss-only plan: everything on the loss side.
    let mut a = mk();
    let lossy = Simulator::run(
        &mut a,
        &SimConfig::with_faults(24, 300, FaultPlan::loss(0.3, 7)),
    )
    .unwrap();
    let lr = lossy.loss.as_ref().unwrap();
    assert!(lr.propagation_suppressed > 0);
    assert_eq!(lr.propagation_from_crash, 0);
    assert_eq!(lr.propagation_from_loss, lr.propagation_suppressed);

    // Crash-only plan: everything on the crash side.
    let mut b = mk();
    let crashed = Simulator::run(
        &mut b,
        &SimConfig::with_faults(24, 300, FaultPlan::crash(NodeId(1), 2)),
    )
    .unwrap();
    let cr = crashed.loss.as_ref().unwrap();
    assert!(cr.propagation_suppressed > 0);
    assert_eq!(cr.propagation_from_loss, 0);
    assert_eq!(cr.propagation_from_crash, cr.propagation_suppressed);

    // Mixed plan: both sides populated, split exact, engines agree.
    let mut plan = FaultPlan::loss(0.2, 11);
    plan.crashes.push((NodeId(1), 4));
    let cfg = SimConfig::with_faults(24, 300, plan);
    let mut c = mk();
    let mixed = Simulator::run(&mut c, &cfg).unwrap();
    let mut d = mk();
    let mixed_mega = MegaSimulator::run(&mut d, &cfg).unwrap();
    assert_eq!(diff_fields(&mixed, &mixed_mega), Vec::<&str>::new());
    let mr = mixed.loss.as_ref().unwrap();
    assert!(mr.propagation_from_loss > 0, "loss should propagate too");
    assert!(mr.propagation_from_crash > 0, "the crash should propagate");
    assert_eq!(
        mr.propagation_from_loss + mr.propagation_from_crash,
        mr.propagation_suppressed
    );
}
