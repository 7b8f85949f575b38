//! The horizon rule: a completing run of a scheme stops within `track` +
//! its theorem's delay bound on every engine, the horizon `RunPlan`
//! derives is never the reason a correct run ends, and a run that misses
//! it is blamed on the bound it broke.

use clustream::core::{Availability, NodeId, Scheme, Slot, StateView, Transmission};
use clustream::des::{agree, Column, QueueKind};
use clustream::multitree::{Construction, StreamMode};
use clustream::telemetry::Telemetry;
use clustream_plan::{Engine, Family, RunPlan, Runtime, SchemeSpec};

/// Family × n ≤ 64 × d ≤ 4 for one construction and mode: every cell
/// that builds.
fn clean_cells(family: Family, construction: Construction, mode: StreamMode) -> Vec<SchemeSpec> {
    let mut cells = Vec::new();
    for n in 1..=64 {
        for d in 1..=4 {
            let spec = SchemeSpec {
                mode,
                construction,
                ..SchemeSpec::new(family, n, d)
            };
            if spec.build().is_ok() {
                cells.push(spec);
            }
        }
    }
    cells
}

/// Every cell of one lattice group completes on the reference, mega
/// and wheel-DES engines alike, within `track` + its bound.
fn every_cell_completes_within_track_plus_its_bound(cells: Vec<SchemeSpec>) {
    let columns = Column::ALL;
    let track = 24;
    assert!(!cells.is_empty());
    for spec in cells {
        let cfg = RunPlan::new(spec, track).sim_config();
        let bound = spec.worst_delay_bound();
        assert_eq!(cfg.max_slots, track + bound.slots, "{spec:?}");
        let make = || spec.build().expect("the cell builds");
        let r = agree(&columns, make, &cfg)
            .unwrap_or_else(|d| panic!("{spec:?}: {d}"))
            .unwrap_or_else(|e| panic!("{spec:?} does not complete: {e}"));
        assert!(r.slots_run <= track + bound.slots, "{spec:?}");
        assert!(
            r.qos.max_delay() <= bound.slots,
            "{spec:?}: {}",
            bound.theorem
        );
    }
}

/// One test per lattice group (family × construction × mode).
macro_rules! lattice_groups {
    ($($name:ident: $family:ident, $construction:ident, $mode:ident;)*) => {
        /// Every group of the lattice, as listed by the tests below.
        const GROUPS: &[(Family, Construction, StreamMode)] =
            &[$((Family::$family, Construction::$construction, StreamMode::$mode)),*];
        $(
            #[test]
            fn $name() {
                every_cell_completes_within_track_plus_its_bound(clean_cells(
                    Family::$family,
                    Construction::$construction,
                    StreamMode::$mode,
                ));
            }
        )*
    };
}

lattice_groups! {
    greedy_prerecorded_multitrees_complete_within_theorem_2: MultiTree, Greedy, PreRecorded;
    greedy_prebuffered_multitrees_complete_within_theorem_2: MultiTree, Greedy, LivePrebuffered;
    greedy_pipelined_multitrees_complete_within_theorem_2: MultiTree, Greedy, LivePipelined;
    structured_prerecorded_multitrees_complete_within_theorem_2: MultiTree, Structured, PreRecorded;
    structured_prebuffered_multitrees_complete_within_theorem_2:
        MultiTree, Structured, LivePrebuffered;
    structured_pipelined_multitrees_complete_within_theorem_2: MultiTree, Structured, LivePipelined;
    hypercubes_complete_within_proposition_2: Hypercube, Greedy, PreRecorded;
    chains_complete_within_n: Chain, Greedy, PreRecorded;
    single_trees_complete_within_their_depth: SingleTree, Greedy, PreRecorded;
}

/// The groups above cover the whole clean lattice: both constructions
/// and all three modes of the multi-tree, and the other families'
/// only ones.
#[test]
fn the_lattice_groups_hold_every_cell_that_builds() {
    let cells: usize = GROUPS
        .iter()
        .map(|&(f, c, m)| clean_cells(f, c, m).len())
        .sum();
    assert!(cells > 2000, "{cells} cells");
    assert_eq!(GROUPS.len(), 9);
}

/// Where the bound is exact on every cell — the chain's N and the single
/// tree's depth — the last tracked packet is usable in the horizon's
/// last slot: the derived horizon wastes no slot.
fn every_cell_meets_its_bound_exactly(family: Family) {
    let track = 24;
    for spec in clean_cells(family, Construction::Greedy, StreamMode::PreRecorded) {
        let bound = spec.worst_delay_bound();
        let r = RunPlan::new(spec, track)
            .run(&Telemetry::disabled())
            .unwrap_or_else(|e| panic!("{spec:?}: {e}"))
            .1;
        assert_eq!(r.qos.max_delay(), bound.slots, "{spec:?}");
        assert_eq!(r.slots_run, spec.completion_horizon(track), "{spec:?}");
    }
}

#[test]
fn every_chain_meets_n_exactly() {
    every_cell_meets_its_bound_exactly(Family::Chain);
}

#[test]
fn every_single_tree_meets_its_depth_exactly() {
    every_cell_meets_its_bound_exactly(Family::SingleTree);
}

/// `inner`'s schedule with every transmission `lag` slots late: every
/// receiver's delay grows by exactly `lag`.
struct Late {
    inner: Box<dyn Scheme>,
    lag: u64,
}

impl Late {
    fn new(spec: SchemeSpec, lag: u64) -> Late {
        let inner = spec.build().expect("the spec builds");
        Late { inner, lag }
    }
}

impl Scheme for Late {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn num_receivers(&self) -> usize {
        self.inner.num_receivers()
    }
    fn id_space(&self) -> usize {
        self.inner.id_space()
    }
    fn receivers(&self) -> Vec<NodeId> {
        self.inner.receivers()
    }
    fn send_capacity(&self, node: NodeId) -> usize {
        self.inner.send_capacity(node)
    }
    fn availability(&self) -> Availability {
        self.inner.availability()
    }
    fn transmissions(&mut self, slot: Slot, view: &dyn StateView, out: &mut Vec<Transmission>) {
        if let Some(t) = slot.t().checked_sub(self.lag) {
            self.inner.transmissions(Slot(t), view, out);
        }
    }
}

/// A complete tree meets Theorem 2 exactly: n = 3 + 9, d = 3 has
/// h·d = 6, so 13 tracked packets get a horizon of 19 slots.
fn complete_tree() -> SchemeSpec {
    SchemeSpec::new(Family::MultiTree, 12, 3)
}

/// `plan`'s scheme run `lag` slots late on `plan`'s engine.
fn run_late(plan: &RunPlan, lag: u64) -> Result<clustream::sim::RunResult, String> {
    let mut late = Late::new(plan.scheme, lag);
    plan.run_scheme(&mut late, &Telemetry::disabled())
        .map(|(_, r, _)| r)
        .map_err(|e| e.to_string())
}

fn on_time_completes_within_its_bound(plan: RunPlan) {
    assert_eq!(plan.horizon_slots(), 19);
    let r = run_late(&plan, 0).unwrap();
    assert_eq!((r.slots_run, r.qos.max_delay()), (19, 6));
}

/// One slot past the bound on the last packet still completes: the
/// engines count an arrival in the horizon's last slot as usable at the
/// horizon itself. The excess shows in the receivers' playback delays,
/// and the plan refuses the run for the first receiver past the bound.
fn one_slot_late_completes_past_its_bound(plan: RunPlan) {
    assert_eq!(
        run_late(&plan, 1).unwrap_err(),
        "model error: n12 breaks Theorem 2's h·d = 6 slots: its playback delay is 7 slots"
    );
}

fn two_slots_late_breaks_theorem_2(plan: RunPlan) {
    assert_eq!(
        run_late(&plan, 2).unwrap_err(),
        "model error: n12 breaks Theorem 2's h·d = 6 slots: p12 is not usable by slot 18"
    );
}

/// A run on a horizon of its own is not sized by the bound, so the same
/// miss stays the engine's bare hiccup.
#[test]
fn a_run_on_its_own_horizon_is_not_blamed_on_the_bound() {
    let plan = RunPlan {
        horizon: Some(19),
        ..RunPlan::new(complete_tree(), 13)
    };
    assert_eq!(
        run_late(&plan, 2).unwrap_err(),
        "model error: n12 hiccups: p12 never arrives within the run's horizon"
    );
}

/// A correct chain of 5 tracking 48 packets stops in the last slot of
/// its 53-slot horizon, whichever engine runs it.
fn a_plain_run_stops_on_its_completion_horizon(plan: RunPlan) {
    assert_eq!(plan.sim_config().max_slots, 53);
    let (_, r, _) = plan.run(&Telemetry::disabled()).unwrap();
    assert_eq!((r.slots_run, r.qos.max_delay()), (53, 5));
}

/// One module of tests per `simulate` engine, each a `RunPlan` with the
/// given fields. Checked engines compare fresh instances they build
/// themselves, so they get only the plain run.
macro_rules! engines {
    ($($name:ident { $($field:ident: $value:expr),* } $($late:ident)?;)*) => {$(
        mod $name {
            use super::*;

            fn plan(scheme: SchemeSpec, track: u64) -> RunPlan {
                RunPlan { $($field: $value,)* ..RunPlan::new(scheme, track) }
            }

            #[test]
            fn a_plain_run_stops_on_its_completion_horizon() {
                super::a_plain_run_stops_on_its_completion_horizon(plan(
                    SchemeSpec::new(Family::Chain, 5, 1),
                    48,
                ));
            }

            $(engines!(@$late);)?
        }
    )*};
    (@late) => {
        #[test]
        fn a_schedule_on_time_completes_within_its_bound() {
            on_time_completes_within_its_bound(plan(complete_tree(), 13));
        }

        #[test]
        fn one_slot_late_completes_past_its_bound() {
            super::one_slot_late_completes_past_its_bound(plan(complete_tree(), 13));
        }

        #[test]
        fn two_slots_late_breaks_theorem_2() {
            super::two_slots_late_breaks_theorem_2(plan(complete_tree(), 13));
        }
    };
}

engines! {
    reference { engine: Some(Engine::Reference) } late;
    mega { engine: Some(Engine::Mega) } late;
    des_heap { runtime: Runtime::Des, queue: Some(QueueKind::Heap) } late;
    des_wheel { runtime: Runtime::Des, queue: Some(QueueKind::Wheel) } late;
    checked { check: true };
    des_checked { runtime: Runtime::Des, check: true };
}

/// The fewest slots `spec`'s schedule must run late for its run on the
/// default (mega) engine to fail, and the error. A run its bound sizes
/// fails exactly when it breaks the bound: a lag adds to every delay, so
/// that is the lag that takes the worst delay one past the bound, and
/// the plan refuses the run node by node before the horizon cuts it.
fn just_late_enough_to_break(spec: SchemeSpec) -> (u64, String) {
    let plan = RunPlan::new(spec, 13);
    let bound = spec.worst_delay_bound().slots;
    let on_time = run_late(&plan, 0).unwrap().qos.max_delay();
    assert!(on_time <= bound, "{spec:?}");
    for lag in 1..=bound + 1 {
        match run_late(&plan, lag) {
            Ok(r) => assert!(r.qos.max_delay() <= bound, "{spec:?} late by {lag}"),
            Err(e) => {
                assert_eq!(lag, bound - on_time + 1, "{spec:?}");
                return (lag, e);
            }
        }
    }
    panic!("{spec:?} completes {} slots late", bound + 1)
}

#[test]
fn a_late_prebuffered_multitree_breaks_theorem_2_plus_d() {
    let spec = SchemeSpec {
        mode: StreamMode::LivePrebuffered,
        ..complete_tree()
    };
    assert_eq!(
        just_late_enough_to_break(spec),
        (
            1,
            "model error: n12 breaks Theorem 2's h·d + d (prebuffered) = 9 slots: \
             its playback delay is 10 slots"
                .to_string()
        )
    );
}

#[test]
fn a_late_pipelined_multitree_breaks_theorem_2_plus_2d() {
    let spec = SchemeSpec {
        mode: StreamMode::LivePipelined,
        ..complete_tree()
    };
    assert_eq!(
        just_late_enough_to_break(spec),
        (
            5,
            "model error: n3 breaks Theorem 2's h·d + 2d (pipelined) = 12 slots: \
             its playback delay is 13 slots"
                .to_string()
        )
    );
}

#[test]
fn a_late_hypercube_breaks_proposition_2() {
    let spec = SchemeSpec::new(Family::Hypercube, 15, 2);
    assert_eq!(
        just_late_enough_to_break(spec),
        (
            2,
            "model error: n8 breaks Proposition 2's chained-cube delay = 6 slots: \
             its playback delay is 7 slots"
                .to_string()
        )
    );
}

#[test]
fn a_late_chain_breaks_n() {
    let spec = SchemeSpec::new(Family::Chain, 5, 1);
    assert_eq!(
        just_late_enough_to_break(spec),
        (
            1,
            "model error: n5 breaks the chain's N = 5 slots: its playback delay is 6 slots"
                .to_string()
        )
    );
}

#[test]
fn a_late_single_tree_breaks_its_depth() {
    let spec = SchemeSpec::new(Family::SingleTree, 12, 3);
    assert_eq!(
        just_late_enough_to_break(spec),
        (
            1,
            "model error: n4 breaks the single tree's depth = 2 slots: its playback delay is 3 slots"
                .to_string()
        )
    );
}

fn cli(line: &str) -> Result<String, String> {
    let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
    clustream_cli::run(&argv).map_err(|e| e.to_string())
}

/// `trace` of packet 100 to the last receiver: the path it prints ends
/// at that receiver, and the packet is usable `delay` slots after its
/// index, within the family's bound.
fn a_traced_packet_is_usable_within_its_bound(flags: &str, node: u32, delay: u64) {
    let out = cli(&format!("trace {flags} --node {node} --packet 100")).unwrap();
    let path = format!("packet 100 → node {node}: S → ");
    assert!(out.starts_with(&path), "{out}");
    assert!(out.contains(&format!(" → n{node}\nusable from slot {}\n", 100 + delay)));
    let args: Vec<String> = flags.split_whitespace().map(str::to_string).collect();
    let spec = SchemeSpec::from_args(&clustream_plan::ArgMap::parse(&args).unwrap()).unwrap();
    assert!(delay <= spec.worst_delay_bound().slots, "{flags}");
}

#[test]
fn a_traced_multitree_packet_is_usable_within_theorem_2() {
    a_traced_packet_is_usable_within_its_bound("--scheme multitree --n 12 --d 3", 12, 4);
}

#[test]
fn a_traced_hypercube_packet_is_usable_within_proposition_2() {
    a_traced_packet_is_usable_within_its_bound("--scheme hypercube --n 15 --d 2", 15, 3);
}

#[test]
fn a_traced_chain_packet_is_usable_n_slots_late() {
    a_traced_packet_is_usable_within_its_bound("--scheme chain --n 5", 5, 5);
}

#[test]
fn a_traced_single_tree_packet_is_usable_depth_slots_late() {
    a_traced_packet_is_usable_within_its_bound("--scheme singletree --n 12 --d 3", 12, 2);
}

/// The trace keeps every transmission of its run: a packet whose earlier
/// packets it could not keep is a usage error stating the limit, before
/// anything is sized or run (`cli_golden`'s `trace_chain3000` pins that
/// the default packet is not refused for the size of its run).
#[test]
fn trace_refuses_a_packet_whose_earlier_packets_outgrow_its_limit() {
    assert_eq!(
        cli("trace --scheme multitree --n 15 --d 3 --node 6 --packet 999999").unwrap_err(),
        "usage error: --packet 999999 is too late to trace: the trace would keep the 14999985 \
         transmissions of earlier packets to its 15 receivers, and it keeps at most 8388608"
    );
}

/// `plan`'s run is sized by Theorem 1's session bound, not a fixed
/// horizon: a backbone hop of 10⁶ slots still completes.
#[test]
fn a_session_with_a_million_slot_backbone_completes() {
    let out = cli("plan --clusters 5 --tc 1000000").unwrap();
    assert!(
        out.contains("simulated: worst startup 1000006 slots, max buffer 3 packets, 0 hiccups"),
        "{out}"
    );
}
