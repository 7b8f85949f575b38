//! Flash-crowd scenario differential suite: a [`ScenarioPlan`] compiled
//! to scripted churn and replayed through [`DynamicMultiTree`] must
//! produce **bit-identical** results on every engine — reference, mega
//! and the DES in slot-faithful mode, each a [`Column`] of
//! [`agree`]. The scheme applies its scripted joins and regional
//! failures at the top of each `transmissions(slot)` call, which every
//! engine invokes exactly once per slot in order, so growth mid-run is
//! engine-invisible by construction; this suite enforces that argument
//! over arbitrary join curves (step, ramp, spike trains) and failure
//! regions.
//!
//! Runs use the fault-tolerant regime ([`SimConfig::lossy_regime`]):
//! late joiners necessarily miss the head of the window, which must be
//! *reported* (loss accounting), not fatal — on every engine alike.
//!
//! Named regressions at the bottom pin the two shapes that stress the
//! dynamics hardest: a join wave landing at slot 0 (growth before the
//! first transmission is ever scheduled) and a burst much larger than
//! the current forest (repeated `+d` grows plus full relabelling in one
//! eventful slot).

use clustream::prelude::*;
use proptest::prelude::*;

/// The slot engines' columns: mega and the reference.
const SLOT: [Column; 2] = [Column::Mega, Column::Reference];

/// The slot-faithful DES (heap queue) against the mega slot engine.
const DES: [Column; 2] = [Column::Des(QueueKind::Heap), Column::Mega];

/// Assertion-friendly wrapper: `None` = the reference and mega agree.
fn divergence(factory: impl FnMut() -> Box<dyn Scheme>, cfg: &SimConfig) -> Option<String> {
    agree(&SLOT, factory, cfg).err()
}

/// Assertion-friendly wrapper: `None` = mega slot engine ≡ DES.
fn des_divergence(factory: impl FnMut() -> Box<dyn Scheme>, cfg: &SimConfig) -> Option<String> {
    agree(&DES, factory, cfg).err()
}

/// Build one sampled join curve from raw draws (the proptest shim has no
/// `prop_oneof`, so variants are selected by integer tag).
fn build_curve(kind: u32, joins: u64, start: u64, span: u64, count: u64) -> JoinCurve {
    match kind % 3 {
        0 => JoinCurve::Step { joins, at: start },
        1 => JoinCurve::Ramp {
            joins,
            start,
            duration: span,
        },
        _ => JoinCurve::SpikeTrain {
            joins,
            start,
            period: span,
            count,
        },
    }
}

fn crowd_factory(n0: usize, d: usize, plan: ScenarioPlan) -> impl FnMut() -> Box<dyn Scheme> {
    move || {
        Box::new(
            DynamicMultiTree::from_plan(
                n0,
                d,
                StreamMode::PreRecorded,
                Construction::Greedy,
                &plan,
            )
            .expect("sampled plans are well-formed"),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The reference and mega engines agree bit for bit on arbitrary
    /// flash-crowd replays, and the slot world agrees with the DES.
    #[test]
    fn flash_crowd_replays_are_engine_agnostic(
        geometry in (4usize..12, 2usize..4, any::<bool>()),
        shape in ((0u32..3, 1u64..16), (0u64..10, 1u64..6, 1u64..4)),
    ) {
        let (n0, d, with_fail) = geometry;
        let ((kind, joins), (start, span, count)) = shape;
        let mut plan = ScenarioPlan {
            curves: vec![build_curve(kind, joins, start, span, count)],
            failures: vec![],
        };
        if with_fail {
            // A small region of initial members (node 0 is the source,
            // so regions start at 1), failing mid-curve.
            let lo = 1 + (start % (n0 as u64 - 1));
            let hi = (lo + 1).min(n0 as u64);
            plan.failures.push(RegionalFailure { lo, hi, at: start + 2 });
        }
        let cfg = SimConfig::lossy_regime(12, 400);

        let div = divergence(crowd_factory(n0, d, plan.clone()), &cfg);
        prop_assert!(div.is_none(), "slot engines diverge: {}", div.unwrap());

        let div = des_divergence(crowd_factory(n0, d, plan), &cfg);
        prop_assert!(div.is_none(), "slot vs DES diverge: {}", div.unwrap());
    }

    /// The compiled trace is deterministic: compiling and resolving the
    /// same plan twice yields schemes that replay identically (the
    /// factory contract [`agree`] relies on).
    #[test]
    fn compiled_plans_are_deterministic(
        n0 in 4usize..10,
        joins in 1u64..12,
        at in 0u64..8,
    ) {
        let plan = ScenarioPlan::parse(&format!("step:{joins}@{at}")).unwrap();
        let a = plan.compile(n0).unwrap();
        let b = plan.compile(n0).unwrap();
        let initial: Vec<u64> = (1..=n0 as u64).collect();
        prop_assert_eq!(a.resolve(&initial, &[]).unwrap(), b.resolve(&initial, &[]).unwrap());
    }
}

/// Joins scripted for slot 0 must apply before the very first
/// transmission is scheduled — on every engine. The joiners were present
/// from the start, so this run is *not* lossy: everyone gets everything,
/// and the strict (fault-free) regime must close cleanly too.
#[test]
fn join_at_slot_0_is_engine_agnostic() {
    let plan = ScenarioPlan::parse("step:6@0").unwrap();
    let cfg = SimConfig::until_complete(16, 10_000);

    let div = divergence(crowd_factory(5, 2, plan.clone()), &cfg);
    assert!(div.is_none(), "slot engines diverge: {}", div.unwrap());

    let r = agree(&DES, crowd_factory(5, 2, plan), &cfg)
        .expect("oracle-closed")
        .expect("the run succeeds");
    // All 11 receivers (5 incumbents + 6 slot-0 joiners) hold the window.
    for id in 1..=11u32 {
        for p in 0..16u64 {
            assert!(
                r.arrivals.usable_slot(NodeId(id), p.into()).is_some(),
                "node {id} missing packet {p}"
            );
        }
    }
}

/// A join burst an order of magnitude larger than the current forest:
/// n₀ = 4 receivers absorb 100 joins in one eventful slot, forcing
/// repeated `+d` grows and a full snapshot relabel. Must stay
/// oracle-closed (slot ≡ DES) and agree across the slot engines.
#[test]
fn join_burst_larger_than_forest_is_engine_agnostic() {
    let plan = ScenarioPlan::parse("step:100@3").unwrap();
    let cfg = SimConfig::lossy_regime(16, 600);

    let div = divergence(crowd_factory(4, 3, plan.clone()), &cfg);
    assert!(div.is_none(), "slot engines diverge: {}", div.unwrap());

    let r = agree(&DES, crowd_factory(4, 3, plan.clone()), &cfg)
        .expect("oracle-closed")
        .expect("the run succeeds");
    // Every joiner eventually receives the tail of the tracked window.
    let mut crowd =
        DynamicMultiTree::from_plan(4, 3, StreamMode::PreRecorded, Construction::Greedy, &plan)
            .unwrap();
    let _ = Simulator::run(&mut crowd, &cfg).unwrap();
    assert_eq!(crowd.joins_applied(), 100);
    for id in 5..=104u32 {
        assert!(
            r.arrivals.usable_slot(NodeId(id), 15.into()).is_some(),
            "joiner {id} missing packet 15"
        );
    }
    crowd.forest().validate().unwrap();
}

/// Mega against the reference on one fresh crowd each: the same result
/// field for field. Returns the slots mega replayed from its steady
/// table.
fn mega_steady_slots(n0: usize, d: usize, plan: &ScenarioPlan, cfg: &SimConfig) -> u64 {
    let mut make = crowd_factory(n0, d, plan.clone());
    let want = Simulator::run(make().as_mut(), cfg).unwrap();
    let mut mega = MegaEngine::new();
    let got = mega.run(make().as_mut(), cfg).unwrap();
    assert_eq!(diff_fields(&want, &got), Vec::<&str>::new(), "`{plan}`");
    mega.steady_slots()
}

/// Once the script is spent the crowd is a static multi-tree, so mega
/// replays the rest of a long run from its steady table — under the
/// zero-rate lossy regime, whose plan only reports, as under the strict
/// one — and still equals the reference.
#[test]
fn settled_crowds_replay_on_the_steady_gears() {
    for spec in [
        "step:40@10",
        "ramp:30@5+20",
        "spikes:8@4+6=4",
        "ramp:24@2+8,fail:2-4@20",
    ] {
        let plan = ScenarioPlan::parse(spec).unwrap();
        let steady = mega_steady_slots(16, 3, &plan, &SimConfig::lossy_regime(16, 600));
        assert!(steady > 400, "`{spec}`: {steady} steady slots of 600");
    }
    let joined_at_0 = ScenarioPlan::parse("step:6@0").unwrap();
    let strict = SimConfig::until_complete(48, 10_000);
    assert!(mega_steady_slots(5, 2, &joined_at_0, &strict) > 0);
}

/// A plan that can drop a transmission — link loss, a fail-silent or a
/// fail-stop crash — keeps mega in full mode for the whole crowd.
#[test]
fn plans_that_drop_keep_the_crowd_in_full_mode() {
    use clustream::sim::FaultPlan;
    let plan = ScenarioPlan::parse("ramp:24@2+8").unwrap();
    for faults in [
        FaultPlan::loss(0.05, 3),
        FaultPlan::crash(NodeId(2), 40),
        FaultPlan::fail_stop(NodeId(5), 40),
    ] {
        let cfg = SimConfig::with_faults(16, 600, faults);
        assert_eq!(mega_steady_slots(16, 3, &plan, &cfg), 0, "{:?}", cfg.faults);
    }
}

/// Regional failures layered on a join wave stay engine-agnostic: the
/// membership set shrinks mid-run and the survivors' replay must still
/// be bit-identical everywhere.
#[test]
fn crowd_with_regional_failure_is_engine_agnostic() {
    let plan = ScenarioPlan::parse("ramp:12@2+6,fail:2-4@10").unwrap();
    let cfg = SimConfig::lossy_regime(12, 400);

    let div = divergence(crowd_factory(8, 2, plan.clone()), &cfg);
    assert!(div.is_none(), "slot engines diverge: {}", div.unwrap());
    let div = des_divergence(crowd_factory(8, 2, plan), &cfg);
    assert!(div.is_none(), "slot vs DES diverge: {}", div.unwrap());
}
