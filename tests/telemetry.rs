//! Zero-cost-off oracle for the telemetry layer: attaching a recorder
//! must never perturb a simulation. For every scheme family and every
//! engine (reference slot simulator, mega slot engine,
//! slot-faithful DES on both the heap and timing-wheel event queues) the
//! [`RunResult`] of an instrumented run is compared **field for field**
//! against the bare run, and the recorder is checked to have actually
//! observed the run (so the equivalence is not vacuous).
//!
//! And the other direction: what the recorder saw does not depend on
//! which slot engine ran — the snapshot, wall-clock spans aside, is
//! equal across the reference and mega, whichever gear mega took.

use clustream::prelude::*;
use clustream::telemetry::names as tm;
use clustream::telemetry::MetricsSnapshot;
use clustream_plan::{Family, SchemeSpec};
use proptest::prelude::*;

/// The four scheme families exercised by the oracle, in
/// [`Family::ALL`] order; the hypercube is one unsplit chain.
fn scheme_for(family: usize, n: usize, d: usize) -> Box<dyn Scheme> {
    let family = Family::ALL[family];
    let d = if family == Family::Hypercube { 1 } else { d };
    SchemeSpec::new(family, n, d).build().unwrap()
}

/// Run `family` on the `engine`-th [`Column`] twice — bare, then with a
/// live recorder — and return `(diffs, instrumented_counter)`.
fn run_both(
    family: usize,
    n: usize,
    d: usize,
    track: u64,
    engine: usize,
) -> (Vec<&'static str>, u64) {
    let bare_cfg = SimConfig::until_complete(track, 100_000);
    let (recorder, tel) = MemoryRecorder::handle();
    let on_cfg = bare_cfg.clone().with_telemetry(tel);

    let run = |cfg: &SimConfig| {
        Column::ALL[engine]
            .run(scheme_for(family, n, d).as_mut(), cfg)
            .unwrap()
    };

    let bare = run(&bare_cfg);
    let instrumented = run(&on_cfg);
    let snap = recorder.snapshot();
    // Slot engines count slots, the DES counts events; either proves the
    // recorder saw the instrumented run.
    let observed = snap.counter(tm::ENGINE_SLOTS) + snap.counter(tm::DES_EVENTS);
    (diff_fields(&bare, &instrumented), observed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Recorder on vs off is bit-identical on every engine and family.
    #[test]
    fn recorder_never_perturbs_a_run(
        family in 0usize..4,
        engine in 0..Column::ALL.len(),
        n in 1usize..60,
        d in 1usize..5,
        track in 4u64..32,
    ) {
        let (diffs, observed) = run_both(family, n, d, track, engine);
        prop_assert!(diffs.is_empty(), "telemetry perturbed the run: {diffs:?}");
        prop_assert!(observed > 0, "recorder attached but observed nothing");
    }

    /// One run, one snapshot, whichever slot engine recorded it.
    #[test]
    fn every_slot_engine_records_the_same_snapshot(
        family in 0usize..4,
        n in 1usize..60,
        d in 1usize..5,
        track in 4u64..96,
        complete in any::<bool>(),
    ) {
        let cfg = if complete {
            SimConfig::until_complete(track, 100_000)
        } else {
            // A fixed horizon: somewhere in the ramp, or mid-replay.
            SimConfig { max_slots: 3 * track, track_packets: track, ..SimConfig::default() }
        };
        snapshots_agree(family, n, d, &cfg);
    }
}

/// What a recorder attached to `cfg` holds after `run`, minus the
/// spans (wall-clock time is the one thing engines are meant to differ
/// in).
fn snapshot_of(cfg: &SimConfig, run: impl FnOnce(&SimConfig)) -> MetricsSnapshot {
    let (recorder, tel) = MemoryRecorder::handle();
    run(&cfg.clone().with_telemetry(tel));
    let mut snap = recorder.snapshot();
    assert!(snap.spans.remove(tm::ENGINE_RUN).is_some(), "run not timed");
    // Mega times its phases too; the reference has none to time.
    for phase in [tm::ENGINE_LOWER, tm::ENGINE_REPLAY, tm::ENGINE_RESULT] {
        snap.spans.remove(phase);
    }
    snap
}

/// Run `family` under `cfg` on the reference and mega; the two
/// snapshots must be equal. Returns the slots mega replayed from its
/// steady table. A run that errors (a fixed horizon may end before the
/// tracked window does) must error on both, and what was recorded
/// up to there is compared all the same.
fn snapshots_agree(family: usize, n: usize, d: usize, cfg: &SimConfig) -> u64 {
    let scheme = || scheme_for(family, n, d);
    let mut ok = Vec::new();
    let reference = snapshot_of(cfg, |c| {
        ok.push(Column::Reference.run(scheme().as_mut(), c).is_ok())
    });
    let mut steady = 0;
    let mega = snapshot_of(cfg, |c| {
        let mut eng = MegaEngine::new();
        ok.push(eng.run(scheme().as_mut(), c).is_ok());
        steady = eng.steady_slots();
    });
    let what = format!("family {family}, n {n}, d {d}, {cfg:?}");
    assert!(ok.iter().all(|&o| o == ok[0]), "{what}: {ok:?}");
    assert!(reference.counter(tm::ENGINE_SLOTS) > 0 || !ok[0], "{what}");
    assert_eq!(reference, mega, "reference vs mega: {what}");
    steady
}

/// The families that declare a period, at sizes where most of the run
/// is replayed from the steady table — so it is the analytic gear's
/// tally, not the kernel's slot loop, that the reference is compared
/// with: to completion, to a fixed horizon that ends mid-replay, and
/// over a replay longer than one tally window (1024 slots; 1024 is not
/// a multiple of the multi-tree's period 3, so a window boundary cuts
/// through a period).
#[test]
fn the_analytic_gear_records_what_the_slot_loop_records() {
    for (family, n, d) in [(0, 40, 3), (0, 25, 2), (2, 12, 1)] {
        let fixed = |max_slots, track_packets| SimConfig {
            max_slots,
            track_packets,
            ..SimConfig::default()
        };
        for (cfg, at_least) in [
            (SimConfig::until_complete(64, 100_000), 1),
            (fixed(150, 64), 1),
            (SimConfig::until_complete(2_600, 100_000), 2 * 1024),
            (fixed(2_500, 16), 2 * 1024),
        ] {
            let steady = snapshots_agree(family, n, d, &cfg);
            assert!(
                steady >= at_least,
                "family {family}, {cfg:?}: {steady} steady slots"
            );
        }
    }
}

/// The recorded-latency replay path (the networked cluster's DES
/// oracle) is equally inert under instrumentation: a replay under a
/// recorded table — with recorded in-flight drops (chaos transport),
/// and with and without fail-stop crashes — is bit-identical with the
/// recorder on and off. This pins the networked config plumbing
/// (`DesConfig::recorded`, including the lossy drop entries a chaos
/// run records) into the zero-cost-off contract alongside the
/// parametric models.
#[test]
fn recorder_never_perturbs_a_recorded_replay() {
    use clustream::des::RecordedLatencies;
    use clustream::sim::FaultPlan;

    let mut recorded = RecordedLatencies::new();
    for p in 0..24u64 {
        recorded.push(0, 1, 900 + (p % 7) * 40);
        // Every fifth copy on the interior link was eaten by chaos: the
        // replay loses it in flight at the same FIFO position.
        if p % 5 == 4 {
            recorded.push_drop(1, 2);
        } else {
            recorded.push(1, 2, 1_100 + (p % 5) * 30);
        }
        recorded.push(2, 3, 1_000 + (p % 3) * 55);
    }
    assert!(recorded.drop_count() > 0);
    let plans = [
        None,
        Some(FaultPlan {
            loss_rate: 0.0,
            seed: 0,
            crashes: Vec::new(),
            stop_crashes: vec![(NodeId(2), 6)],
        }),
    ];
    for plan in plans {
        let sim = match plan.clone() {
            None => SimConfig::until_complete(16, 500),
            Some(p) => SimConfig::with_faults(16, 500, p),
        };
        let (recorder, tel) = MemoryRecorder::handle();
        let run = |cfg: &SimConfig| {
            DesEngine::new()
                .run(
                    scheme_for(2, 4, 1).as_mut(),
                    &DesConfig::slot_faithful(cfg.clone())
                        .with_recorded_latencies(recorded.clone()),
                )
                .unwrap()
        };
        let bare = run(&sim);
        let instrumented = run(&sim.clone().with_telemetry(tel));
        let diffs = diff_fields(&bare, &instrumented);
        assert!(diffs.is_empty(), "replay perturbed: {diffs:?}");
        // The recorded drops actually fired — the equivalence covers the
        // lossy replay path, not just the clean one.
        assert!(
            bare.loss.as_ref().is_some_and(|l| l.lost_in_flight > 0),
            "no recorded drop was replayed: {:?}",
            bare.loss
        );
        assert!(
            recorder.snapshot().counter(tm::DES_EVENTS) > 0,
            "recorder attached but observed nothing"
        );
    }
}

/// Pin the non-vacuousness explicitly: the recorder's totals agree with
/// the [`RunResult`] of the run it must not perturb.
#[test]
fn recorder_totals_agree_with_the_run_result() {
    let (recorder, tel) = MemoryRecorder::handle();
    let cfg = SimConfig::until_complete(16, 100_000).with_telemetry(tel);
    let r = MegaEngine::new()
        .run(scheme_for(0, 30, 3).as_mut(), &cfg)
        .unwrap();
    let snap = recorder.snapshot();
    assert_eq!(snap.counter(tm::ENGINE_SLOTS), r.slots_run);
    assert_eq!(
        snap.counter(tm::ENGINE_TRANSMISSIONS),
        r.total_transmissions
    );
    assert!(
        snap.spans.contains_key(tm::ENGINE_RUN),
        "the whole run is timed under a span"
    );
}

/// Mega times its lowering, its replay and its result under spans of
/// their own; the DES, whose strict tick ends through the same kernel
/// result, records none of them. (The inertness proptest above covers
/// every engine with these spans open.)
#[test]
fn mega_times_its_phases_and_the_des_does_not() {
    let cfg = SimConfig::until_complete(64, 100_000);
    let phases = [tm::ENGINE_LOWER, tm::ENGINE_REPLAY, tm::ENGINE_RESULT];
    let (recorder, tel) = MemoryRecorder::handle();
    let mut mega = MegaEngine::new();
    mega.run(
        scheme_for(0, 40, 3).as_mut(),
        &cfg.clone().with_telemetry(tel),
    )
    .unwrap();
    assert!(mega.steady_slots() > 0, "the steady gears never ran");
    let snap = recorder.snapshot();
    for phase in phases {
        assert_eq!(snap.spans.get(phase).map(|s| s.count), Some(1), "{phase}");
    }

    let (recorder, tel) = MemoryRecorder::handle();
    Column::Des(QueueKind::Wheel)
        .run(scheme_for(0, 40, 3).as_mut(), &cfg.with_telemetry(tel))
        .unwrap();
    let snap = recorder.snapshot();
    assert!(snap.spans.contains_key(tm::DES_RUN), "the DES run is timed");
    for phase in phases {
        assert!(!snap.spans.contains_key(phase), "the DES recorded {phase}");
    }
}
