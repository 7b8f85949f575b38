//! Running one genome through the engine columns and the invariant
//! registry.

use crate::genome::Genome;
use crate::invariant::{bounds_for, check_result, violation_from_error, Violation};
use clustream_des::{disagreement, Column};
use clustream_telemetry::Telemetry;

/// Outcome of checking one genome.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Every invariant violation found, across all engines run.
    pub violations: Vec<Violation>,
    /// `true` when the genome is outside the scheme family's domain
    /// (the scheme could not even be built) — not a violation.
    pub skipped: bool,
    /// Engine runs executed.
    pub runs: usize,
}

impl CheckReport {
    /// Whether any violation was found.
    pub fn violated(&self) -> bool {
        !self.violations.is_empty()
    }

    /// Whether some violation matches `invariant` (any, when `None`).
    pub fn violates(&self, invariant: Option<&str>) -> bool {
        match invariant {
            None => self.violated(),
            Some(name) => self.violations.iter().any(|v| v.invariant == name),
        }
    }
}

/// Check `g` on each of `columns`, optionally recording telemetry on
/// the first (the explorer's coverage signature source), then diff
/// every column's outcome against the first's.
pub fn check_genome_with(
    g: &Genome,
    columns: &[Column],
    telemetry: Option<&Telemetry>,
) -> CheckReport {
    // Outside the scheme family's domain: not a violation.
    let skipped = CheckReport {
        violations: Vec::new(),
        skipped: true,
        runs: 0,
    };
    let Ok(bounds) = bounds_for(g) else {
        return skipped;
    };
    let mut violations = Vec::new();
    let mut outcomes = Vec::new();
    for (i, &column) in columns.iter().enumerate() {
        let Ok(mut scheme) = g.build_scheme() else {
            return skipped;
        };
        let mut cfg = g.sim_config();
        if let Some(tel) = telemetry.filter(|_| i == 0) {
            cfg = cfg.with_telemetry(tel.clone());
        }
        let outcome = column.run(&mut *scheme, &cfg);
        match &outcome {
            Ok(result) => violations.extend(check_result(g, &bounds, column.label(), result)),
            Err(e) => violations.push(violation_from_error(e, column.label())),
        }
        outcomes.push((column, outcome));
    }
    // Cross-engine agreement: every column must produce the identical
    // RunResult (or fail with the identical error).
    if let Some(((base, first), rest)) = outcomes.split_first() {
        for (column, other) in rest {
            if let Some(detail) = disagreement((*base, first), (*column, other)) {
                violations.push(Violation {
                    invariant: "EngineAgreement".to_string(),
                    engine: format!("{}≡{}", base.label(), column.label()),
                    detail,
                });
            }
        }
    }
    CheckReport {
        violations,
        skipped: false,
        runs: outcomes.len(),
    }
}

/// Check `g` on every [`Column::ALL`] column (reference, mega,
/// wheel-DES) with cross-engine agreement.
pub fn check_genome(g: &Genome) -> CheckReport {
    check_genome_with(g, &Column::ALL, None)
}

/// Check `g` on the mega engine only.
pub fn check_genome_mega(g: &Genome) -> CheckReport {
    check_genome_with(g, &[Column::Mega], None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::{ConstructionChoice, Family};
    use crate::sabotage::Sabotage;

    #[test]
    fn clean_genomes_pass_all_engines() {
        for family in Family::ALL {
            let g = Genome::clean(family, 13, 2, ConstructionChoice::Greedy);
            let rep = check_genome(&g);
            assert!(!rep.skipped, "{family:?} skipped");
            assert_eq!(rep.runs, Column::ALL.len());
            assert!(
                rep.violations.is_empty(),
                "{family:?}: {:?}",
                rep.violations
            );
        }
    }

    #[test]
    fn source_stall_violates_delay_bound_on_every_engine() {
        let mut g = Genome::clean(Family::MultiTree, 20, 2, ConstructionChoice::Structured);
        g.sabotage = Some(Sabotage::SourceStall(40));
        let rep = check_genome(&g);
        assert!(rep.violates(Some("DelayBound")), "{:?}", rep.violations);
        // The stall shifts everything uniformly, so nothing else breaks.
        assert!(
            rep.violations.iter().all(|v| v.invariant == "DelayBound"),
            "{:?}",
            rep.violations
        );
    }

    #[test]
    fn out_of_domain_genomes_are_skipped_not_violated() {
        // A multi-tree forest cannot be built for n = 0 receivers.
        let g = Genome::clean(Family::MultiTree, 0, 2, ConstructionChoice::Greedy);
        let rep = check_genome(&g);
        assert!(rep.skipped);
        assert!(rep.violations.is_empty());
    }
}
