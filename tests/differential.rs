//! Differential-testing suite: the mega engine must produce results
//! **bit-identical** to the reference engine for every scheme
//! family — multi-tree forests (both constructions), chained hypercubes
//! (special and arbitrary `N`, grouped splits), the baselines, and
//! composed multi-cluster overlay sessions — across arbitrary
//! populations, degrees, inter-cluster latencies, traces and fault
//! plans. The mega engine's in-run sharding is additionally held to
//! `--shards 1 ≡ --shards k` bit-determinism at every shard count.
//!
//! The oracle is [`agree`] over the mega and reference [`Column`]s: it
//! runs one fresh scheme instance per engine and compares the
//! [`RunResult`]s field by field (arrivals, QoS, traffic stats, loss
//! reports, traces). Two engines failing with
//! identically-rendered errors also count as agreement.
//!
//! Shapes that once needed special care in the slot kernel are pinned
//! as named regression tests at the bottom (ring-buffer growth under
//! large latencies, holdings rows growing mid-run, link rows spilling
//! past their inline receivers, loss_rate = 1.0, crashes from slot 0,
//! single-node populations).

use clustream::prelude::*;
use clustream::sim::FaultPlan;
use proptest::prelude::*;

/// Assertion-friendly wrapper: `None` = engines agree.
fn divergence(factory: impl FnMut() -> Box<dyn Scheme>, cfg: &SimConfig) -> Option<String> {
    agree(&[Column::Mega, Column::Reference], factory, cfg).err()
}

/// Build the fault plan for a sampled case. `crash_sel` picks none /
/// a source-adjacent node from slot 0 / a mid-population node later.
fn fault_plan(n: usize, loss_permille: u32, seed: u64, crash_sel: usize) -> FaultPlan {
    let mut plan = FaultPlan::loss(loss_permille as f64 / 1000.0, seed);
    match crash_sel {
        1 => plan.crashes.push((NodeId(1), 0)),
        2 => plan.crashes.push((NodeId((n / 2).max(1) as u32), 6)),
        _ => {}
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Multi-tree forests, both constructions, clean and traced runs.
    #[test]
    fn multitree_engines_agree(
        n in 1usize..120,
        d in 1usize..6,
        structured in any::<bool>(),
        traced in any::<bool>(),
    ) {
        let c = if structured { Construction::Structured } else { Construction::Greedy };
        let mut cfg = SimConfig::until_complete(24, 100_000);
        if traced { cfg = cfg.traced(); }
        let div = divergence(
            || Box::new(MultiTreeScheme::new(build_forest(n, d, c).unwrap(), StreamMode::PreRecorded)),
            &cfg,
        );
        prop_assert!(div.is_none(), "{div:?}");
    }

    /// Multi-tree forests under arbitrary loss and crash plans.
    #[test]
    fn multitree_fault_engines_agree(
        n in 2usize..80,
        d in 1usize..5,
        loss_permille in 0u32..400,
        seed in any::<u64>(),
        crash_sel in 0usize..3,
    ) {
        let plan = fault_plan(n, loss_permille, seed, crash_sel);
        let cfg = SimConfig::with_faults(16, 400, plan).traced();
        let div = divergence(
            || Box::new(MultiTreeScheme::new(greedy_forest(n, d).unwrap(), StreamMode::PreRecorded)),
            &cfg,
        );
        prop_assert!(div.is_none(), "{div:?}");
    }

    /// Hypercubes: special sizes, arbitrary sizes, grouped splits.
    #[test]
    fn hypercube_engines_agree(
        n in 1usize..200,
        groups in 1usize..5,
        traced in any::<bool>(),
    ) {
        let groups = groups.min(n);
        let mut cfg = SimConfig::until_complete(24, 100_000);
        if traced { cfg = cfg.traced(); }
        let div = divergence(
            || Box::new(HypercubeStream::with_groups(n, groups).unwrap()),
            &cfg,
        );
        prop_assert!(div.is_none(), "{div:?}");
    }

    /// Hypercubes under loss and crashes.
    #[test]
    fn hypercube_fault_engines_agree(
        n in 2usize..120,
        loss_permille in 0u32..400,
        seed in any::<u64>(),
        crash_sel in 0usize..3,
    ) {
        let plan = fault_plan(n, loss_permille, seed, crash_sel);
        let cfg = SimConfig::with_faults(16, 400, plan);
        let div = divergence(|| Box::new(HypercubeStream::new(n).unwrap()), &cfg);
        prop_assert!(div.is_none(), "{div:?}");
    }

    /// Baselines (chain and elevated-capacity single tree), clean and
    /// lossy.
    #[test]
    fn baseline_engines_agree(
        n in 1usize..60,
        d in 2usize..5,
        single_tree in any::<bool>(),
        loss_permille in 0u32..300,
        seed in any::<u64>(),
    ) {
        let mk = move || -> Box<dyn Scheme> {
            if single_tree {
                Box::new(SingleTreeScheme::new(n, d))
            } else {
                Box::new(ChainScheme::new(n))
            }
        };
        let clean = SimConfig::until_complete(12, 100_000);
        let div = divergence(mk, &clean);
        prop_assert!(div.is_none(), "clean: {div:?}");
        let lossy = SimConfig::with_faults(
            12,
            300,
            FaultPlan::loss(loss_permille as f64 / 1000.0, seed),
        );
        let div = divergence(mk, &lossy);
        prop_assert!(div.is_none(), "lossy: {div:?}");
    }

    /// Composed multi-cluster sessions: remote latencies exercise the
    /// slot kernel's ring-buffer arrival queue across send slots.
    #[test]
    fn overlay_session_engines_agree(
        k in 1usize..4,
        cluster_size in 2usize..10,
        t_c in 2u32..30,
        big_d in 3usize..6,
        d in 1usize..4,
    ) {
        let sizes = vec![cluster_size; k];
        let div = divergence(
            || Box::new(ClusterSession::new(
                &sizes,
                big_d,
                t_c,
                IntraScheme::MultiTree { d, construction: Construction::Greedy },
            ).unwrap()),
            &SimConfig::until_complete(16, 100_000),
        );
        prop_assert!(div.is_none(), "{div:?}");
    }

    /// In-run sharding is pure parallelism: a sharded mega run must be
    /// bit-identical to the sequential (`--shards 1`) run at any shard
    /// count, with or without natural group boundaries.
    #[test]
    fn mega_shard_counts_are_bit_identical(
        n in 2usize..90,
        d in 1usize..5,
        shards in 2usize..6,
        track in 1u64..32,
    ) {
        let cfg = SimConfig::until_complete(track, 100_000);
        let mut a = MultiTreeScheme::new(greedy_forest(n, d).unwrap(), StreamMode::PreRecorded);
        let mut b = MultiTreeScheme::new(greedy_forest(n, d).unwrap(), StreamMode::PreRecorded);
        let seq = MegaSimulator::run_sharded(&mut a, &cfg, 1).unwrap();
        let sh = MegaSimulator::run_sharded(&mut b, &cfg, shards).unwrap();
        let diffs = diff_fields(&seq, &sh);
        prop_assert!(diffs.is_empty(), "shards={shards}: {diffs:?}");
    }

    /// Sharded composed sessions: the declared cluster boundaries give
    /// each shard whole clusters, leaving the super-node exchange as
    /// the only cross-shard coupling — still bit-identical.
    #[test]
    fn mega_sharded_sessions_agree(
        k in 2usize..4,
        cluster_size in 2usize..8,
        t_c in 2u32..20,
        shards in 2usize..5,
    ) {
        let sizes = vec![cluster_size; k];
        let mk = |sizes: &[usize]| ClusterSession::new(
            sizes,
            3,
            t_c,
            IntraScheme::MultiTree { d: 2, construction: Construction::Greedy },
        ).unwrap();
        let cfg = SimConfig::until_complete(12, 100_000);
        let seq = MegaSimulator::run(&mut mk(&sizes), &cfg).unwrap();
        let sh = MegaSimulator::run_sharded(&mut mk(&sizes), &cfg, shards).unwrap();
        let diffs = diff_fields(&seq, &sh);
        prop_assert!(diffs.is_empty(), "k={k} shards={shards}: {diffs:?}");
    }
}

// ---------------------------------------------------------------------
// Named regression shapes: inputs that stress specific slot-kernel
// mechanics, pinned so they run on every `cargo test`.

/// Inter-cluster latency far beyond the ring buffer's initial window
/// forces `ArrivalRing::grow` to re-index queued arrivals mid-run.
#[test]
fn regression_ring_growth_under_large_latency() {
    for t_c in [70u32, 150, 400] {
        let sizes = [6usize, 6, 6];
        let div = divergence(
            || {
                Box::new(
                    ClusterSession::new(
                        &sizes,
                        3,
                        t_c,
                        IntraScheme::MultiTree {
                            d: 2,
                            construction: Construction::Greedy,
                        },
                    )
                    .unwrap(),
                )
            },
            &SimConfig::until_complete(12, 100_000),
        );
        assert!(div.is_none(), "t_c={t_c}: {div:?}");
    }
}

/// Total loss: every transmission is dropped, every tracked packet is
/// missing, and both engines report the identical (degenerate) result.
#[test]
fn regression_total_loss_engines_agree() {
    let cfg = SimConfig::with_faults(8, 120, FaultPlan::loss(1.0, 3));
    let div = divergence(
        || {
            Box::new(MultiTreeScheme::new(
                greedy_forest(20, 2).unwrap(),
                StreamMode::PreRecorded,
            ))
        },
        &cfg,
    );
    assert!(div.is_none(), "{div:?}");
}

/// A lost send still spends its sender's uplink: under total loss a
/// source of capacity 1 that sends two packets a slot is over capacity,
/// on every engine column, exactly as without loss. (Drawing the loss
/// before counting the send would let every lost send through.)
#[test]
fn regression_a_lost_send_still_spends_capacity() {
    /// S sends packet `t` to both receivers each slot, at capacity 1.
    struct Burst;
    impl Scheme for Burst {
        fn name(&self) -> String {
            "burst".into()
        }
        fn num_receivers(&self) -> usize {
            2
        }
        fn transmissions(&mut self, slot: Slot, _: &dyn StateView, out: &mut Vec<Transmission>) {
            for to in [NodeId(1), NodeId(2)] {
                out.push(Transmission::local(SOURCE, to, PacketId(slot.t())));
            }
        }
    }
    let cfg = SimConfig::with_faults(4, 20, FaultPlan::loss(1.0, 3));
    let outcome = agree(&Column::ALL, || Box::new(Burst), &cfg).unwrap_or_else(|d| panic!("{d}"));
    let err = outcome.map(|r| r.scheme).unwrap_err();
    assert_eq!(err.to_string(), "S exceeded send capacity 1 in t0");
}

/// Crash of the source-adjacent node from slot 0: nothing it relays is
/// ever sent, the largest possible crash blast radius.
#[test]
fn regression_crash_at_slot_zero_engines_agree() {
    for n in [7usize, 15, 40] {
        let cfg = SimConfig::with_faults(12, 300, FaultPlan::crash(NodeId(1), 0));
        let div = divergence(|| Box::new(HypercubeStream::new(n).unwrap()), &cfg);
        assert!(div.is_none(), "n={n}: {div:?}");
    }
}

/// Degenerate populations: a single receiver, and a single tracked
/// packet.
#[test]
fn regression_tiny_populations_engines_agree() {
    for (n, track) in [(1usize, 1u64), (1, 8), (2, 1), (3, 0)] {
        let div = divergence(
            || {
                Box::new(MultiTreeScheme::new(
                    greedy_forest(n, 1).unwrap(),
                    StreamMode::PreRecorded,
                ))
            },
            &SimConfig::until_complete(track, 10_000),
        );
        assert!(div.is_none(), "n={n} track={track}: {div:?}");
    }
}

/// Live-mode multi-trees (the `Availability::Live` source path).
#[test]
fn regression_live_modes_engines_agree() {
    for mode in [StreamMode::LivePrebuffered, StreamMode::LivePipelined] {
        let div = divergence(
            || Box::new(MultiTreeScheme::new(greedy_forest(30, 3).unwrap(), mode)),
            &SimConfig::until_complete(24, 100_000).traced(),
        );
        assert!(div.is_none(), "{mode:?}: {div:?}");
    }
}

/// A packet crossing a shard boundary through the super-node exchange:
/// in a sharded session each cluster is its own shard, so cluster
/// `i > 0`'s head node receives every packet from the *previous*
/// cluster's shard — coordinator work between barrier waits. Pin one
/// such packet end to end: its arrival slot at every cluster head must
/// exist, be strictly later per hop (the `t_c` backbone latency), and
/// agree with the reference engine at every shard count.
#[test]
fn regression_cluster_boundary_packet_across_shard_exchange() {
    let sizes = [5usize, 5, 5];
    let t_c = 9u32;
    let mk = || {
        Box::new(
            ClusterSession::new(
                &sizes,
                3,
                t_c,
                IntraScheme::MultiTree {
                    d: 2,
                    construction: Construction::Greedy,
                },
            )
            .unwrap(),
        )
    };
    let cfg = SimConfig::until_complete(16, 100_000);
    let reference = Simulator::run(mk().as_mut(), &cfg).unwrap();
    for shards in [1usize, 2, 3, 5] {
        let sharded = MegaSimulator::run_sharded(mk().as_mut(), &cfg, shards).unwrap();
        let diffs = diff_fields(&reference, &sharded);
        assert!(diffs.is_empty(), "shards={shards}: {diffs:?}");
        // Heads of clusters 1 and 2 are the first ids past each
        // boundary; packet 0 reaches them only over the exchange.
        let head1 = NodeId(sizes[0] as u32 + 1);
        let head2 = NodeId((sizes[0] + sizes[1]) as u32 + 1);
        let a0 = sharded.arrivals.usable_slot(NodeId(1), PacketId(0));
        let a1 = sharded.arrivals.usable_slot(head1, PacketId(0));
        let a2 = sharded.arrivals.usable_slot(head2, PacketId(0));
        let (a0, a1, a2) = (
            a0.expect("cluster 0 head missing packet 0").t(),
            a1.expect("cluster 1 head missing packet 0").t(),
            a2.expect("cluster 2 head missing packet 0").t(),
        );
        // Any path into a non-first cluster crosses at least one
        // backbone edge of latency t_c, so the packet cannot be usable
        // before slot t_c — and the slots must match the reference
        // engine's cell for cell (the exchange preserved them).
        assert!(
            a1 >= t_c as u64 && a2 >= t_c as u64,
            "shards={shards}: boundary packet skipped the exchange: {a0} {a1} {a2}"
        );
        for (head, got) in [(NodeId(1), a0), (head1, a1), (head2, a2)] {
            let want = reference
                .arrivals
                .usable_slot(head, PacketId(0))
                .unwrap()
                .t();
            assert_eq!(got, want, "shards={shards}: {head} packet 0 slot moved");
        }
    }
}

/// Seeds that drew unusual loss patterns during development, kept as
/// fixed regressions (loss exactly at a collision-heavy slot boundary).
#[test]
fn regression_fixed_fault_seeds_engines_agree() {
    for (n, d, seed, permille) in [
        (33usize, 3usize, 0u64, 100u32),
        (64, 2, u64::MAX, 250),
        (17, 4, 0xDEAD_BEEF, 399),
        (50, 2, 42, 1000),
    ] {
        let plan = FaultPlan::loss(permille as f64 / 1000.0, seed);
        let cfg = SimConfig::with_faults(16, 400, plan).traced();
        let div = divergence(
            || {
                Box::new(MultiTreeScheme::new(
                    greedy_forest(n, d).unwrap(),
                    StreamMode::PreRecorded,
                ))
            },
            &cfg,
        );
        assert!(div.is_none(), "n={n} d={d} seed={seed}: {div:?}");
    }
}

/// The holdings rows start one word wide for a track of 8 and must grow
/// while a run is in flight, keeping the bits they already hold. A
/// 300-node chain keeps its source sending until the last receiver has
/// packet 7, so seqs cross 64, 128 and 256 and every driver of the
/// kernel re-lays its rows out 1 → 2 → 4 → 8 words mid-run; a chain
/// only ever relays what arrived the slot before, so a multi-tree over a
/// fixed 300-slot horizon, whose interior nodes relay packets they have
/// held for up to d slots, reads bits from before each re-layout.
#[test]
fn regression_holdings_stride_grows_mid_run() {
    stride_growth_agrees(
        "chain",
        || Box::new(ChainScheme::new(300)),
        SimConfig::until_complete(8, 1_000),
    );
    stride_growth_agrees(
        "multitree",
        || {
            Box::new(MultiTreeScheme::new(
                greedy_forest(100, 3).unwrap(),
                StreamMode::PreRecorded,
            ))
        },
        SimConfig {
            max_slots: 300,
            track_packets: 8,
            ..SimConfig::default()
        },
    );
}

fn stride_growth_agrees(name: &str, factory: fn() -> Box<dyn Scheme>, cfg: SimConfig) {
    let outcome = agree(&Column::ALL, factory, &cfg).unwrap_or_else(|d| panic!("{name}: {d}"));
    let strict = outcome.unwrap();
    assert!(
        strict.slots_run > 4 * 64,
        "{name}: {} slots never crossed seq 256",
        strict.slots_run
    );

    // A relaxed (jittered) DES run relays through the same rows. A lost
    // bit parks a send for good; the only sends a correct run may leave
    // parked are those whose packet arrives past the horizon, under half
    // a slot of jitter less than one slot's worth.
    let des = DesConfig::slot_faithful(cfg)
        .with_latency(LatencyModel::UniformJitter { jitter: 0.5 })
        .seeded(7)
        .with_queue(QueueKind::Checked);
    let relaxed = DesEngine::new().run(factory().as_mut(), &des).unwrap();
    let per_slot = strict.total_transmissions / strict.slots_run;
    assert!(
        relaxed.total_transmissions + per_slot > strict.total_transmissions,
        "{name}: relaxed sent {} of {}",
        relaxed.total_transmissions,
        strict.total_transmissions
    );
    assert_eq!(relaxed.duplicate_deliveries, 0, "{name}");
}

/// A sender's link row keeps seven receivers inline and spills the rest
/// into a sorted list; the reference counts links in a plain set. Every
/// hypercube vertex at N = 511 sends along nine dimensions, and every
/// interior node of a degree-10 single tree or multi-tree (whose source
/// also feeds ten roots) has ten children, so each schedule runs rows
/// past the spill on every engine.
#[test]
fn regression_link_rows_spill_past_the_inline_row() {
    spilled_rows_agree("hypercube N=511", || {
        Box::new(HypercubeStream::new(511).unwrap())
    });
    spilled_rows_agree("single tree d=10", || {
        Box::new(SingleTreeScheme::new(400, 10))
    });
    spilled_rows_agree("multitree d=10", || {
        Box::new(MultiTreeScheme::new(
            greedy_forest(200, 10).unwrap(),
            StreamMode::PreRecorded,
        ))
    });
}

fn spilled_rows_agree(name: &str, factory: fn() -> Box<dyn Scheme>) {
    let run = agree(
        &Column::ALL,
        factory,
        &SimConfig::until_complete(16, 10_000),
    )
    .unwrap_or_else(|d| panic!("{name}: {d}"))
    .unwrap();
    let widest = run.qos.nodes.iter().map(|q| q.out_neighbors).max();
    assert!(widest > Some(7), "{name}: no row spilled ({widest:?})");
}

/// A declared schedule whose ramp is its table clipped at packet 0 —
/// every multi-tree (both constructions, all three stream modes) and
/// the chain — replays from slot 0: mega's steady slots are all the
/// run's slots, and the run still agrees with the reference.
/// The horizons: to completion; the smallest fixed horizon that arms
/// the lowering (its two verified periods end one slot before it); and
/// a run that completes before them, inside what used to be the
/// full-mode ramp.
#[test]
fn clipped_ramps_hand_off_at_slot_0() {
    type Build = Box<dyn Fn() -> Box<dyn Scheme>>;
    let mut cases: Vec<(String, Build)> =
        vec![("chain".into(), Box::new(|| Box::new(ChainScheme::new(50))))];
    for d in [2, 3] {
        for c in [Construction::Greedy, Construction::Structured] {
            for mode in [
                StreamMode::PreRecorded,
                StreamMode::LivePrebuffered,
                StreamMode::LivePipelined,
            ] {
                cases.push((
                    format!("multitree d={d} {c:?} {mode:?}"),
                    Box::new(move || {
                        Box::new(MultiTreeScheme::new(build_forest(100, d, c).unwrap(), mode))
                    }),
                ));
            }
        }
    }
    for (name, build) in &cases {
        let decl = build().schedule_period().unwrap();
        let verified_end = decl.warmup + 2 * decl.period;
        for cfg in [
            SimConfig::until_complete(24, 100_000),
            SimConfig::lossy_regime(8, verified_end + 1),
            SimConfig::until_complete(1, 100_000),
        ] {
            let div = divergence(build, &cfg);
            assert!(div.is_none(), "{name}, {cfg:?}: {div:?}");
            let mut mega = MegaEngine::new();
            let res = mega.run(build().as_mut(), &cfg).unwrap();
            assert_eq!(mega.steady_slots(), res.slots_run, "{name}, {cfg:?}");
            if cfg.track_packets == 1 {
                assert!(res.slots_run <= verified_end, "{name}: {}", res.slots_run);
            }
        }
    }
}

/// A scripted crowd changes its forest until its last event, so its
/// ramp is not the settled table clipped at packet 0: it hands off at
/// its declared warmup, past slot 0, and still equals the reference.
#[test]
fn a_scripted_crowd_hands_off_after_its_script() {
    let plan = ScenarioPlan::parse("step:40@10").unwrap();
    let make = || {
        DynamicMultiTree::from_plan(16, 3, StreamMode::PreRecorded, Construction::Greedy, &plan)
            .unwrap()
    };
    let warmup = make().schedule_period().unwrap().warmup;
    let cfg = SimConfig::lossy_regime(16, 300);
    let want = Simulator::run(&mut make(), &cfg).unwrap();
    let mut mega = MegaEngine::new();
    let got = mega.run(&mut make(), &cfg).unwrap();
    assert_eq!(diff_fields(&want, &got), Vec::<&str>::new());
    assert!(warmup > 10, "{warmup}");
    assert_eq!(mega.steady_slots(), got.slots_run - warmup);
}
