//! Counterexample shrinking.
//!
//! Greedy deterministic minimization: from a violating genome, try a
//! fixed-order list of simplifications (halve/decrement the population,
//! lower the degree, strip fault-plan components, shrink the sabotage
//! magnitude, trim the tracked window) and keep any candidate that still
//! violates. Repeats to a fixpoint, so the result is 1-minimal: no single
//! simplification step preserves the violation.
//!
//! The algorithm uses no randomness and visits candidates in a fixed
//! order, so the same input genome and predicate always produce the same
//! minimal counterexample — byte-identical once serialized (the serde
//! shim keeps JSON object fields in declaration order).

use crate::genome::{Genome, ModeChoice};
use crate::sabotage::Sabotage;

/// Candidate one-step simplifications of `g`, most aggressive first.
fn candidates(g: &Genome) -> Vec<Genome> {
    let mut out = Vec::new();
    let mut push = |f: &dyn Fn(&mut Genome)| {
        let mut c = g.clone();
        f(&mut c);
        if c != *g {
            out.push(c);
        }
    };
    // Population: halve, then decrement.
    if g.n > 1 {
        push(&|c| c.n /= 2);
        push(&|c| c.n -= 1);
    }
    // Degree toward 1.
    if g.d > 1 {
        push(&|c| c.d -= 1);
    }
    // Fault plan: drop wholesale, then piecewise.
    if g.faults.is_some() {
        push(&|c| c.faults = None);
        push(&|c| {
            if let Some(f) = &mut c.faults {
                f.loss_rate = 0.0;
                f.seed = 0;
            }
        });
        push(&|c| {
            if let Some(f) = &mut c.faults {
                f.crashes.pop();
            }
        });
        push(&|c| {
            if let Some(f) = &mut c.faults {
                f.stop_crashes.pop();
            }
        });
    }
    // Sabotage magnitude toward the smallest still-violating defect.
    match g.sabotage {
        Some(Sabotage::SourceStall(k)) if k > 1 => {
            push(&|c| c.sabotage = Some(Sabotage::SourceStall(k / 2)));
            push(&|c| c.sabotage = Some(Sabotage::SourceStall(k - 1)));
        }
        Some(Sabotage::DelaySkew(e)) if e > 1 => {
            push(&|c| c.sabotage = Some(Sabotage::DelaySkew(e / 2)));
            push(&|c| c.sabotage = Some(Sabotage::DelaySkew(e - 1)));
        }
        _ => {}
    }
    // Stream mode back to the simplest.
    if g.mode != ModeChoice::Pre {
        push(&|c| c.mode = ModeChoice::Pre);
    }
    // Tracked window: halve, then decrement.
    if g.track > 1 {
        push(&|c| c.track /= 2);
        push(&|c| c.track -= 1);
    }
    out
}

/// Shrink `g` to a 1-minimal genome for which `still_violates` holds.
///
/// `still_violates(&g)` must be true on entry (the genome being shrunk
/// is a known counterexample); the return value always satisfies it.
pub fn shrink<F>(g: &Genome, mut still_violates: F) -> Genome
where
    F: FnMut(&Genome) -> bool,
{
    let mut current = g.clone();
    // Each accepted step strictly shrinks (n, d, faults, sabotage, track),
    // so the fixpoint loop terminates; the cap is a safety net.
    for _ in 0..10_000 {
        let mut advanced = false;
        for candidate in candidates(&current) {
            if still_violates(&candidate) {
                current = candidate;
                advanced = true;
                break;
            }
        }
        if !advanced {
            break;
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_genome_mega;
    use crate::genome::{ConstructionChoice, Family};

    fn violating_genome() -> Genome {
        let mut g = Genome::clean(Family::Chain, 24, 2, ConstructionChoice::Greedy);
        g.sabotage = Some(Sabotage::SourceStall(50));
        g
    }

    #[test]
    fn shrink_reaches_a_one_minimal_fixpoint() {
        let g = violating_genome();
        let pred = |c: &Genome| check_genome_mega(c).violates(Some("DelayBound"));
        assert!(pred(&g), "starting genome must violate");
        let min = shrink(&g, pred);
        assert!(pred(&min), "shrunk genome still violates");
        // 1-minimal: no single candidate step still violates.
        for c in candidates(&min) {
            assert!(
                !pred(&c),
                "further shrinkable: {} → {}",
                min.to_json(),
                c.to_json()
            );
        }
        // The chain bound is delay ≤ n with exact delay n, so any stall
        // violates: the minimum is the smallest config expressible.
        assert_eq!(min.n, 1);
        assert_eq!(min.sabotage, Some(Sabotage::SourceStall(1)));
    }

    #[test]
    fn shrink_is_deterministic() {
        let g = violating_genome();
        let pred = |c: &Genome| check_genome_mega(c).violates(Some("DelayBound"));
        let a = shrink(&g, pred);
        let b = shrink(&g, pred);
        assert_eq!(a.to_json(), b.to_json());
    }
}
