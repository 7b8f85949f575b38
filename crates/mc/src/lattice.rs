//! The exhaustive small-world driver.
//!
//! Enumerates *every* genome in a bounded lattice — all `d ∈ {2,3,4}`,
//! `N ≤ 64`, both constructions, all four scheme families, and a small
//! canonical set of crash/loss plans — and checks the full invariant
//! registry on every [`Column::ALL`] engine column (reference, mega and
//! wheel-DES), including cross-engine field equality
//! ([`clustream_des::disagreement`]). Degree is skipped for the chain
//! (which ignores it) and construction for everything but the
//! multi-tree, so no configuration is checked twice.
//!
//! A companion driver sweeps the recovery layer: canonical membership
//! event sequences against [`DynamicMultiTree`], checking that every
//! repair preserves the interior-disjoint forest shape, keeps surviving
//! ids stable, and displaces at most `d²` nodes per incremental op — and
//! that the same sequence fed as a script builds the same forest.
//!
//! [`Column::ALL`]: clustream_des::Column::ALL

use crate::checker::check_genome;
use crate::genome::{ConstructionChoice, Family, Genome};
use crate::invariant::Violation;
use clustream_core::{MembershipEvent, NodeId, Scheme, Slot, StateView, Transmission};
use clustream_multitree::StreamMode;
use clustream_recovery::DynamicMultiTree;
use clustream_sim::FaultPlan;
use clustream_workloads::{ResolvedChurnAction, ResolvedChurnEvent};

/// Lattice shape. [`LatticeOptions::default`] is the issue's full lattice.
#[derive(Debug, Clone)]
pub struct LatticeOptions {
    /// Largest population (inclusive).
    pub max_n: usize,
    /// Degrees / source splits to sweep.
    pub degrees: Vec<usize>,
    /// Also run the canonical fault plans (not just the clean run).
    pub fault_plans: bool,
}

impl Default for LatticeOptions {
    fn default() -> Self {
        LatticeOptions {
            max_n: 64,
            degrees: vec![2, 3, 4],
            fault_plans: true,
        }
    }
}

/// Outcome of one exhaustive sweep.
#[derive(Debug, Clone, Default)]
pub struct LatticeReport {
    /// Genomes enumerated (excluding skipped out-of-domain points).
    pub genomes: usize,
    /// Engine runs executed (one per `Column::ALL` column per genome).
    pub runs: usize,
    /// Out-of-domain lattice points (scheme not buildable there).
    pub skipped: usize,
    /// Every violation, with the genome that produced it.
    pub violations: Vec<(Genome, Violation)>,
}

/// The canonical fault plans: clean, seeded 25% link loss, a fail-silent
/// mid-population crash, and a fail-stop mid-population crash.
pub fn canonical_fault_plans(n: usize) -> Vec<Option<FaultPlan>> {
    let mid = NodeId((n / 2).max(1) as u32);
    vec![
        None,
        Some(FaultPlan::loss(0.25, 7)),
        Some(FaultPlan::crash(mid, 3)),
        Some(FaultPlan::fail_stop(mid, 3)),
    ]
}

/// Every genome in the lattice, without redundant axes.
pub fn enumerate(opts: &LatticeOptions) -> Vec<Genome> {
    let mut genomes = Vec::new();
    for family in Family::ALL {
        let degrees: &[usize] = match family {
            Family::Chain => &opts.degrees[..1], // degree is ignored
            _ => &opts.degrees,
        };
        for &d in degrees {
            let constructions: &[ConstructionChoice] = match family {
                Family::MultiTree => &ConstructionChoice::ALL,
                _ => &ConstructionChoice::ALL[..1],
            };
            for &construction in constructions {
                for n in 1..=opts.max_n {
                    let base = Genome::clean(family, n, d, construction);
                    if opts.fault_plans {
                        for plan in canonical_fault_plans(n) {
                            let mut g = base.clone();
                            g.faults = plan;
                            genomes.push(g);
                        }
                    } else {
                        genomes.push(base);
                    }
                }
            }
        }
    }
    genomes
}

/// Run the exhaustive sweep: every lattice genome through every engine
/// and the full registry.
pub fn exhaustive(opts: &LatticeOptions) -> LatticeReport {
    let mut report = LatticeReport::default();
    for g in enumerate(opts) {
        let rep = check_genome(&g);
        if rep.skipped {
            report.skipped += 1;
            continue;
        }
        report.genomes += 1;
        report.runs += rep.runs;
        for v in rep.violations {
            report.violations.push((g.clone(), v));
        }
    }
    report
}

/// Outcome of the recovery sweep.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// `(n, d, construction, sequence)` cases exercised.
    pub cases: usize,
    /// Membership events applied.
    pub events: usize,
    /// Violations, labelled with a case description.
    pub violations: Vec<(String, Violation)>,
}

/// A view that holds nothing — membership repairs are topology-only, so
/// the schedule probe does not need live engine state.
struct NoView;

impl StateView for NoView {
    fn holds(&self, _: NodeId, _: clustream_core::PacketId) -> bool {
        false
    }
    fn newest(&self, _: NodeId) -> Option<clustream_core::PacketId> {
        None
    }
    fn slot(&self) -> Slot {
        Slot(0)
    }
}

fn recovery_violation(case: &str, invariant: &str, detail: String) -> (String, Violation) {
    (
        case.to_string(),
        Violation {
            invariant: invariant.to_string(),
            engine: "recovery".to_string(),
            detail,
        },
    )
}

/// Canonical membership sequences: a single failure, a failure that
/// rejoins, and two failures with one rejoin.
fn canonical_event_sequences(n: usize) -> Vec<Vec<(NodeId, MembershipEvent)>> {
    let a = NodeId(1);
    let b = NodeId((n / 2).max(1) as u32);
    let mut seqs = vec![
        vec![(b, MembershipEvent::Failed)],
        vec![(b, MembershipEvent::Failed), (b, MembershipEvent::Rejoined)],
    ];
    if a != b {
        seqs.push(vec![
            (a, MembershipEvent::Failed),
            (b, MembershipEvent::Failed),
            (a, MembershipEvent::Rejoined),
        ]);
    }
    seqs
}

/// The schedule of slots `0..3d`, in emission order.
fn probe(scheme: &mut DynamicMultiTree, d: usize) -> Vec<Vec<Transmission>> {
    (0..3 * d as u64)
        .map(|t| {
            let mut txs = Vec::new();
            scheme.transmissions(Slot(t), &NoView, &mut txs);
            txs
        })
        .collect()
}

/// Apply one event sequence, checking the recovery invariants after every
/// event: forest shape valid, displacement ≤ d² for non-resizing ops,
/// failed ids absent from (and surviving ids stable in) the schedule, and
/// the scripted twin — the events so far as a script due at slot 0 —
/// in the same state emitting the same schedule.
fn check_recovery_case(
    n: usize,
    d: usize,
    construction: ConstructionChoice,
    seq: &[(NodeId, MembershipEvent)],
    case: &str,
    out: &mut Vec<(String, Violation)>,
) -> usize {
    let (mode, construction) = (StreamMode::PreRecorded, construction.construction());
    let Ok(mut scheme) = DynamicMultiTree::new(n, d, mode, construction) else {
        return 0;
    };
    let mut script: Vec<ResolvedChurnEvent> = Vec::new();
    let mut events = 0;
    let mut dead: Vec<NodeId> = Vec::new();
    for &(node, event) in seq {
        let pad_before = scheme.forest().n_pad();
        let outcome = scheme.membership_event(node, event);
        events += 1;
        match event {
            MembershipEvent::Failed => dead.push(node),
            MembershipEvent::Rejoined => dead.retain(|&v| v != node),
        }
        if let Err(e) = scheme.forest().validate() {
            out.push(recovery_violation(
                case,
                "RepairShape",
                format!("forest invalid after {event:?} of {node}: {e}"),
            ));
            return events;
        }
        if let Some(outcome) = outcome {
            // The paper's d² bound applies to incremental repairs; a
            // forest resize (±d positions) legitimately relabels more.
            let resized = scheme.forest().n_pad() != pad_before;
            if !resized && outcome.displaced.len() > d * d {
                out.push(recovery_violation(
                    case,
                    "DisplacementBound",
                    format!(
                        "{} displaced > d² = {} after {event:?} of {node}",
                        outcome.displaced.len(),
                        d * d
                    ),
                ));
            }
        }
        // Id stability: dead nodes must vanish from the schedule, live
        // ones keep their original ids (every endpoint stays in range).
        let schedule = probe(&mut scheme, d);
        for (t, txs) in schedule.iter().enumerate() {
            for tx in txs {
                if dead.contains(&tx.from) || dead.contains(&tx.to) {
                    out.push(recovery_violation(
                        case,
                        "StableIds",
                        format!("slot {t}: dead node scheduled ({} → {})", tx.from, tx.to),
                    ));
                    return events;
                }
                if tx.to.0 as usize > n || tx.from.0 as usize > n {
                    out.push(recovery_violation(
                        case,
                        "StableIds",
                        format!("slot {t}: id outside 0..={n} ({} → {})", tx.from, tx.to),
                    ));
                    return events;
                }
            }
        }
        // The other entry point: the same events as a script.
        let ext = node.0 as u64;
        script.push(ResolvedChurnEvent {
            slot: 0,
            action: match event {
                MembershipEvent::Failed => ResolvedChurnAction::Leave { ext },
                MembershipEvent::Rejoined => ResolvedChurnAction::Rejoin { ext },
            },
        });
        let mut twin = DynamicMultiTree::scripted(n, d, mode, construction, script.clone())
            .expect("the event-driven twin built over the same forest");
        if probe(&mut twin, d) != schedule
            || format!("{:?}", twin.forest()) != format!("{:?}", scheme.forest())
            || twin.total_swaps() != scheme.total_swaps()
        {
            out.push(recovery_violation(
                case,
                "ScriptEventAgreement",
                format!("script and events diverge after {event:?} of {node}"),
            ));
            return events;
        }
    }
    events
}

/// Run the recovery sweep over the lattice's multi-tree points.
pub fn exhaustive_recovery(opts: &LatticeOptions) -> RecoveryReport {
    let mut report = RecoveryReport::default();
    for &d in &opts.degrees {
        for construction in ConstructionChoice::ALL {
            for n in 2..=opts.max_n {
                for (i, seq) in canonical_event_sequences(n).iter().enumerate() {
                    let case = format!("n={n} d={d} {construction:?} seq#{i}");
                    report.cases += 1;
                    report.events +=
                        check_recovery_case(n, d, construction, seq, &case, &mut report.violations);
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustream_des::Column;

    #[test]
    fn enumeration_covers_every_axis_once() {
        let opts = LatticeOptions {
            max_n: 8,
            degrees: vec![2, 3],
            fault_plans: false,
        };
        let genomes = enumerate(&opts);
        // multitree: 2 d × 2 constructions × 8 n = 32; hypercube: 2 × 8;
        // chain: 1 × 8; singletree: 2 × 8.
        assert_eq!(genomes.len(), 32 + 16 + 8 + 16);
        // No duplicates.
        let mut seen = std::collections::HashSet::new();
        for g in &genomes {
            assert!(seen.insert(g.to_json()), "duplicate genome {}", g.to_json());
        }
    }

    #[test]
    fn tiny_lattice_is_clean() {
        let opts = LatticeOptions {
            max_n: 10,
            degrees: vec![2],
            fault_plans: true,
        };
        let report = exhaustive(&opts);
        assert!(
            report.violations.is_empty(),
            "violations: {:?}",
            report
                .violations
                .iter()
                .map(|(g, v)| format!("{} ⇒ {v}", g.to_json()))
                .collect::<Vec<_>>()
        );
        assert!(report.genomes > 0);
        assert_eq!(report.runs, Column::ALL.len() * report.genomes);
    }

    #[test]
    fn tiny_recovery_lattice_is_clean() {
        let opts = LatticeOptions {
            max_n: 12,
            degrees: vec![2, 3],
            fault_plans: false,
        };
        let report = exhaustive_recovery(&opts);
        assert!(
            report.violations.is_empty(),
            "violations: {:?}",
            report.violations
        );
        assert!(report.cases > 0 && report.events > 0);
    }
}
