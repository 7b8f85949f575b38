//! The differential oracle: one vocabulary for every engine column.
//!
//! The reference and mega slot engines and the DES in its
//! degenerate configuration ([`DesConfig::slot_faithful`]) promise the
//! same [`RunResult`] **field for field**, or the identically-rendered
//! error. A [`Column`] names one of them; [`agree`] runs a fresh scheme
//! through each of a set of columns and diffs every outcome against the
//! first, and [`disagreement`] is that diff for one pair. `simulate
//! --check` (which diffs its reported column against the others it
//! admits), the model checker (`clustream_mc`) and the differential
//! suites (`tests/differential.rs`, `tests/des_differential.rs`) all go
//! through these two functions.

use crate::config::{DesConfig, QueueKind};
use crate::engine::DesEngine;
use clustream_core::{CoreError, Scheme};
use clustream_sim::{diff_fields, MegaSimulator, RunResult, SimConfig, Simulator};

/// One engine column of the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Column {
    /// The readable reference slot simulator.
    Reference,
    /// The mega slot engine.
    Mega,
    /// The DES in its slot-faithful configuration, on this event queue.
    Des(QueueKind),
}

impl Column {
    /// The model checker's three columns, in the order it runs them:
    /// the oracle, the slot engine and the event runtime.
    pub const ALL: [Column; 3] = [
        Column::Reference,
        Column::Mega,
        Column::Des(QueueKind::Wheel),
    ];

    /// Stable label, as violations and divergences name the column.
    pub fn label(self) -> &'static str {
        match self {
            Column::Reference => "reference",
            Column::Mega => "mega",
            Column::Des(QueueKind::Heap) => "des",
            Column::Des(QueueKind::Wheel) => "des-wheel",
            Column::Des(QueueKind::Checked) => "des-checked",
        }
    }

    /// Run `scheme` under `cfg` on this column's engine.
    pub fn run(self, scheme: &mut dyn Scheme, cfg: &SimConfig) -> Result<RunResult, CoreError> {
        match self {
            Column::Reference => Simulator::run(scheme, cfg),
            Column::Mega => MegaSimulator::run(scheme, cfg),
            Column::Des(queue) => DesEngine::new().run(
                scheme,
                &DesConfig::slot_faithful(cfg.clone()).with_queue(queue),
            ),
        }
    }
}

/// How the outcomes of two columns differ, or `None` when they agree:
/// equal results, or errors that render identically.
pub fn disagreement(
    (a, ra): (Column, &Result<RunResult, CoreError>),
    (b, rb): (Column, &Result<RunResult, CoreError>),
) -> Option<String> {
    let (a, b) = (a.label(), b.label());
    match (ra, rb) {
        (Ok(x), Ok(y)) => {
            let diffs = diff_fields(x, y);
            (!diffs.is_empty()).then(|| {
                format!(
                    "{a} and {b} diverge on {} for scheme {}",
                    diffs.join(", "),
                    x.scheme
                )
            })
        }
        (Err(x), Err(y)) => {
            let (x, y) = (x.to_string(), y.to_string());
            (x != y).then(|| format!("{a} and {b} fail differently: `{x}` vs `{y}`"))
        }
        (Ok(x), Err(e)) => Some(format!("{a} succeeds ({}) but {b} errors: {e}", x.scheme)),
        (Err(e), Ok(y)) => Some(format!("{b} succeeds ({}) but {a} errors: {e}", y.scheme)),
    }
}

/// Run one fresh scheme from `factory` on each of `columns` and demand
/// one outcome. Only `columns[0]` records `cfg`'s telemetry (a checked
/// run records its metrics once, not once per engine); every other
/// column runs without it and is diffed against the first.
///
/// `Err(description)` on the first divergence; otherwise the shared
/// outcome — the first column's result, or the error every column
/// rendered identically.
pub fn agree(
    columns: &[Column],
    mut factory: impl FnMut() -> Box<dyn Scheme>,
    cfg: &SimConfig,
) -> Result<Result<RunResult, CoreError>, String> {
    let (&first, rest) = columns.split_first().expect("agree needs a column");
    let base = first.run(factory().as_mut(), cfg);
    let quiet = cfg.without_telemetry();
    for &column in rest {
        let other = column.run(factory().as_mut(), &quiet);
        if let Some(d) = disagreement((first, &base), (column, &other)) {
            return Err(d);
        }
    }
    Ok(base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustream_core::{NodeId, PacketId, Slot, StateView, Transmission, SOURCE};
    use clustream_sim::FaultPlan;
    use clustream_telemetry::names as tm;
    use clustream_telemetry::MemoryRecorder;

    /// Chain scheme: S → 1 → … → N.
    struct Chain {
        n: usize,
    }

    impl Scheme for Chain {
        fn name(&self) -> String {
            format!("chain({})", self.n)
        }
        fn num_receivers(&self) -> usize {
            self.n
        }
        fn transmissions(&mut self, slot: Slot, _: &dyn StateView, out: &mut Vec<Transmission>) {
            let t = slot.t();
            out.push(Transmission::local(SOURCE, NodeId(1), PacketId(t)));
            for i in 1..self.n as u64 {
                if t >= i {
                    out.push(Transmission::local(
                        NodeId(i as u32),
                        NodeId(i as u32 + 1),
                        PacketId(t - i),
                    ));
                }
            }
        }
    }

    /// The column sets the callers run: `simulate --check` on the slot
    /// runtime (either engine first) and on a slot-faithful DES, the DES
    /// beside mega on every queue, and the model checker's three.
    fn column_sets() -> Vec<Vec<Column>> {
        let mut sets = vec![
            vec![Column::Mega, Column::Reference],
            vec![Column::Reference, Column::Mega],
            Column::ALL.to_vec(),
        ];
        for queue in [QueueKind::Heap, QueueKind::Wheel, QueueKind::Checked] {
            sets.push(vec![Column::Des(queue), Column::Mega]);
        }
        sets
    }

    type Expect = fn(&Result<RunResult, CoreError>);

    #[test]
    fn every_column_set_agrees_on_the_chain() {
        let rows: [(&str, usize, SimConfig, Expect); 4] = [
            ("clean", 6, SimConfig::until_complete(16, 200), |r| {
                assert_eq!(r.as_ref().unwrap().qos.max_delay(), 6)
            }),
            (
                "traced",
                4,
                SimConfig::until_complete(10, 200).traced(),
                |r| {
                    let r = r.as_ref().unwrap();
                    assert_eq!(
                        r.trace.as_ref().unwrap().events.len() as u64,
                        r.total_transmissions
                    );
                },
            ),
            (
                "lossy",
                6,
                SimConfig::with_faults(24, 80, FaultPlan::loss(0.25, 42)),
                |r| assert!(r.as_ref().unwrap().loss.as_ref().unwrap().lost_in_flight > 0),
            ),
            // A horizon far too short: every column reports the same
            // hiccup, which is agreement, not a divergence.
            (
                "identical errors",
                5,
                SimConfig {
                    max_slots: 2,
                    track_packets: 4,
                    ..SimConfig::default()
                },
                |r| assert!(r.is_err(), "{r:?}"),
            ),
        ];
        for columns in column_sets() {
            for (case, n, cfg, expect) in &rows {
                let outcome = agree(&columns, || Box::new(Chain { n: *n }), cfg)
                    .unwrap_or_else(|d| panic!("{case} on {columns:?}: {d}"));
                expect(&outcome);
            }
        }
    }

    #[test]
    fn only_the_first_column_records_telemetry() {
        for columns in column_sets() {
            let (recorder, tel) = MemoryRecorder::handle();
            let cfg = SimConfig::until_complete(16, 200).with_telemetry(tel);
            agree(&columns, || Box::new(Chain { n: 6 }), &cfg)
                .unwrap()
                .unwrap();
            let snap = recorder.snapshot();
            let runs = |name| snap.spans.get(name).map_or(0, |s| s.count);
            let expected = match columns[0] {
                Column::Des(_) => (0, 1),
                _ => (1, 0),
            };
            assert_eq!(
                (runs(tm::ENGINE_RUN), runs(tm::DES_RUN)),
                expected,
                "{columns:?}"
            );
        }
    }

    #[test]
    fn disagreement_covers_every_arm() {
        let cfg = SimConfig::until_complete(8, 100);
        let ok = Simulator::run(&mut Chain { n: 3 }, &cfg);
        let mut mutated = ok.clone();
        mutated.as_mut().unwrap().total_transmissions += 1;
        let short = SimConfig {
            max_slots: 2,
            ..cfg.clone()
        };
        let err = Simulator::run(&mut Chain { n: 3 }, &short);
        let other_err = Err(CoreError::InvalidConfig("elsewhere".into()));
        let (reference, mega) = (Column::Reference, Column::Mega);

        assert_eq!(disagreement((reference, &ok), (mega, &ok)), None);
        assert_eq!(disagreement((reference, &err), (mega, &err)), None);
        for (a, b, expected) in [
            (
                &ok,
                &mutated,
                "reference and mega diverge on total_transmissions for scheme chain(3)",
            ),
            (&err, &other_err, "reference and mega fail differently: `"),
            (&ok, &err, "reference succeeds (chain(3)) but mega errors: "),
            (&err, &ok, "mega succeeds (chain(3)) but reference errors: "),
        ] {
            let d = disagreement((reference, a), (mega, b)).expect("a divergence");
            assert!(d.starts_with(expected), "{d}");
        }
    }
}
