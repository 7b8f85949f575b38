//! Differential-testing suite for the discrete-event runtime: in the
//! slot-faithful configuration (fixed unit intra-cluster latency, fixed
//! `T_c`, unconstrained uplinks, no churn) a DES run must reproduce the
//! mega slot engine's [`RunResult`] **field for field** — arrivals, QoS,
//! traffic stats, loss reports, traces — for every scheme family:
//! multi-tree forests (both constructions), chained hypercubes, the
//! baselines, and composed multi-cluster overlay sessions, clean and
//! under arbitrary loss/crash plans. Two engines failing with
//! identically-rendered errors also count as agreement.
//!
//! This is the correctness anchor that licenses the *relaxed* DES modes
//! (jitter, heavy tails, uplink serialization, churn): any measured
//! deviation from the slot model is then attributable to the network
//! model, not engine drift.
//!
//! Every case here runs the DES on [`QueueKind::Checked`] — the heap and
//! timing-wheel event queues in lockstep, panicking on the first pop
//! where they disagree — so the whole suite doubles as the wheel's
//! queue-equivalence harness without running each scheme twice.

use clustream::prelude::*;
use clustream::sim::FaultPlan;
use proptest::prelude::*;

/// Assertion-friendly wrapper: `None` = slot and DES engines agree (and,
/// via the checked queue, the wheel agrees with the heap pop for pop).
fn divergence(factory: impl FnMut() -> Box<dyn Scheme>, cfg: &SimConfig) -> Option<String> {
    agree(
        &[Column::Des(QueueKind::Checked), Column::Mega],
        factory,
        cfg,
    )
    .err()
}

/// Build the fault plan for a sampled case. `crash_sel` picks none /
/// a source-adjacent node from slot 0 / a mid-population node later /
/// the fail-stop (deaf *and* mute) variants of the same two shapes.
fn fault_plan(n: usize, loss_permille: u32, seed: u64, crash_sel: usize) -> FaultPlan {
    let mut plan = FaultPlan::loss(loss_permille as f64 / 1000.0, seed);
    match crash_sel {
        1 => plan.crashes.push((NodeId(1), 0)),
        2 => plan.crashes.push((NodeId((n / 2).max(1) as u32), 6)),
        3 => plan.stop_crashes.push((NodeId(1), 0)),
        4 => plan.stop_crashes.push((NodeId((n / 2).max(1) as u32), 6)),
        _ => {}
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Multi-tree forests, both constructions, clean and traced runs.
    #[test]
    fn multitree_des_agrees(
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

    /// Multi-tree forests under arbitrary loss and crash plans: the DES
    /// must consume the loss RNG in the slot engines' draw order.
    #[test]
    fn multitree_fault_des_agrees(
        n in 2usize..80,
        d in 1usize..5,
        loss_permille in 0u32..400,
        seed in any::<u64>(),
        crash_sel in 0usize..5,
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
    fn hypercube_des_agrees(
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
    fn hypercube_fault_des_agrees(
        n in 2usize..120,
        loss_permille in 0u32..400,
        seed in any::<u64>(),
        crash_sel in 0usize..5,
    ) {
        let plan = fault_plan(n, loss_permille, seed, crash_sel);
        let cfg = SimConfig::with_faults(16, 400, plan);
        let div = divergence(|| Box::new(HypercubeStream::new(n).unwrap()), &cfg);
        prop_assert!(div.is_none(), "{div:?}");
    }

    /// Baselines (chain and elevated-capacity single tree), clean and
    /// lossy.
    #[test]
    fn baseline_des_agrees(
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

    /// Composed multi-cluster sessions: fixed `T_c` latencies land many
    /// slots ahead, exercising the DES heap's cross-slot delivery order
    /// against the slot engines' pending-queue order.
    #[test]
    fn overlay_session_des_agrees(
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
}

// ---------------------------------------------------------------------
// Named regression shapes mirrored from tests/differential.rs, plus
// DES-specific ones.

/// Inter-cluster latency far beyond one slot: a `Deliver` scheduled
/// hundreds of slots ahead must interleave correctly with the local
/// traffic queued meanwhile.
#[test]
fn regression_des_large_latency_agrees() {
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

/// An inter-cluster latency the arrival ring cannot grow to: the DES
/// claims receive slots through the slot kernel's ring, so it refuses the
/// latency with the kernel's typed error on every queue (its own guard
/// used to abort in the allocator).
#[test]
fn regression_des_unfittable_latency_agrees() {
    let des = [QueueKind::Heap, QueueKind::Wheel, QueueKind::Checked].map(Column::Des);
    let outcome = agree(
        &[&[Column::Mega], &des[..]].concat(),
        || {
            Box::new(
                ClusterSession::new(
                    &[5],
                    3,
                    2_000_000_000,
                    IntraScheme::MultiTree {
                        d: 2,
                        construction: Construction::Greedy,
                    },
                )
                .unwrap(),
            )
        },
        &SimConfig::until_complete(16, 100_000),
    )
    .unwrap_or_else(|d| panic!("{d}"));
    let err = outcome.map(|r| r.scheme).unwrap_err();
    assert_eq!(
        err.to_string(),
        "invalid configuration: a transmission latency of 2000000000 slots needs an \
         arrival ring of 2147483648 slots, which does not fit in memory"
    );
}

/// Total loss: every transmission is dropped; both engines must report
/// the identical degenerate result.
#[test]
fn regression_des_total_loss_agrees() {
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

/// Crash of the source-adjacent node from slot 0.
#[test]
fn regression_des_crash_at_slot_zero_agrees() {
    for n in [7usize, 15, 40] {
        let cfg = SimConfig::with_faults(12, 300, FaultPlan::crash(NodeId(1), 0));
        let div = divergence(|| Box::new(HypercubeStream::new(n).unwrap()), &cfg);
        assert!(div.is_none(), "n={n}: {div:?}");
    }
}

/// Degenerate populations and windows, including `track_packets = 0`
/// (the empty heap edge: the run must stop at slot 0 in both engines).
#[test]
fn regression_des_tiny_populations_agree() {
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

/// Live-mode multi-trees: the `Availability::Live` production check runs
/// at `PlaybackTick` time in the DES and must gate identically.
#[test]
fn regression_des_live_modes_agree() {
    for mode in [StreamMode::LivePrebuffered, StreamMode::LivePipelined] {
        let div = divergence(
            || Box::new(MultiTreeScheme::new(greedy_forest(30, 3).unwrap(), mode)),
            &SimConfig::until_complete(24, 100_000).traced(),
        );
        assert!(div.is_none(), "{mode:?}: {div:?}");
    }
}

/// A fixed-horizon run (no early stop): transmissions queued in the final
/// slots land past the horizon and must be flushed in the slot engines'
/// pending-queue order.
#[test]
fn regression_des_horizon_flush_agrees() {
    for max_slots in [5u64, 17, 64] {
        let cfg = SimConfig {
            max_slots,
            track_packets: 8,
            stop_when_complete: false,
            ..SimConfig::default()
        };
        let div = divergence(
            || {
                Box::new(MultiTreeScheme::new(
                    greedy_forest(24, 3).unwrap(),
                    StreamMode::PreRecorded,
                ))
            },
            &cfg,
        );
        assert!(div.is_none(), "max_slots={max_slots}: {div:?}");
    }
}

/// Fixed fault seeds kept as regressions, matching the slot-engine suite.
#[test]
fn regression_des_fixed_fault_seeds_agree() {
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

/// Fail-stop (deaf and mute) crashes: the DES must drop arrivals at a
/// stopped receiver in exactly the slot engines' order, including the
/// post-horizon flush, and report the identical `stopped_receives`.
#[test]
fn regression_des_fail_stop_agrees() {
    for (n, stop_at) in [(20usize, 0u64), (30, 4), (40, 11)] {
        let mut plan = FaultPlan::fail_stop(NodeId(1), stop_at);
        plan.loss_rate = 0.05;
        let cfg = SimConfig::with_faults(16, 300, plan).traced();
        let div = divergence(
            || {
                Box::new(MultiTreeScheme::new(
                    greedy_forest(n, 3).unwrap(),
                    StreamMode::PreRecorded,
                ))
            },
            &cfg,
        );
        assert!(div.is_none(), "n={n} stop_at={stop_at}: {div:?}");
    }
}

/// The recovery layer in mode Off is inert: the slot-faithful oracle must
/// keep passing with the recovery-enabled engine build (the new event
/// classes exist but are never scheduled). The relaxed-regime analogue
/// lives in tests/recovery.rs (`recovery_off_is_the_fail_silent_des`).
#[test]
fn regression_des_recovery_off_stays_slot_faithful() {
    let cfg = DesConfig::slot_faithful(SimConfig::until_complete(16, 100_000));
    assert!(cfg.is_slot_faithful());
    let plan = FaultPlan::loss(0.15, 21);
    let div = divergence(
        || {
            Box::new(MultiTreeScheme::new(
                greedy_forest(35, 3).unwrap(),
                StreamMode::PreRecorded,
            ))
        },
        &SimConfig::with_faults(16, 400, plan),
    );
    assert!(div.is_none(), "{div:?}");
}
