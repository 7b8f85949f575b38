//! The coverage-guided explorer.
//!
//! For the space beyond the exhaustive lattice, the explorer mutates
//! genomes (population, degree, family, mode, fault plan) under a seeded
//! RNG and scores each run's *novelty* from its telemetry
//! [`MetricsSnapshot`]: the signature hashes which histogram buckets are
//! populated (the bucketed shape, not the raw counts) plus the
//! order-of-magnitude of every counter, so two runs count as equivalent
//! coverage when their metric shapes match. Novel genomes join the
//! mutation frontier; violating genomes are shrunk to minimal
//! counterexamples (see [`mod@crate::shrink`]) for the repro corpus.

use crate::checker::{check_genome_mega, check_genome_with};
use crate::genome::{ConstructionChoice, Family, Genome, ModeChoice};
use crate::shrink::shrink;
use clustream_core::NodeId;
use clustream_des::Column;
use clustream_sim::FaultPlan;
use clustream_telemetry::{MemoryRecorder, MetricsSnapshot};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

/// Explorer budget and seed.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Genomes to execute.
    pub budget: usize,
    /// RNG seed: the whole exploration is a pure function of it.
    pub seed: u64,
    /// Largest population mutations may reach.
    pub max_n: usize,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            budget: 500,
            seed: 0,
            max_n: 192,
        }
    }
}

/// A violating genome and its shrunk minimal form.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The genome as the explorer found it.
    pub found: Genome,
    /// Its 1-minimal shrink.
    pub shrunk: Genome,
    /// The violated invariant's name.
    pub invariant: String,
}

/// Outcome of one exploration.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Genomes executed (including out-of-domain skips).
    pub executed: usize,
    /// Out-of-domain genomes hit.
    pub skipped: usize,
    /// Distinct coverage signatures observed.
    pub novel: usize,
    /// Shrunk counterexamples, in discovery order.
    pub counterexamples: Vec<Counterexample>,
}

/// FNV-1a over the snapshot's *shape*: histogram names with their
/// populated bucket bounds and per-bucket count magnitudes, counter and
/// gauge names with value magnitudes. `BTreeMap` iteration keeps it
/// deterministic.
pub fn coverage_signature(snap: &MetricsSnapshot) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    let mag = |v: u64| 64 - v.leading_zeros() as u64; // 0 → 0, else ⌈log₂⌉+1
    for (name, hist) in &snap.histograms {
        eat(b"h");
        eat(name.as_bytes());
        for &(lo, _hi, count) in &hist.buckets {
            if count > 0 {
                eat(&lo.to_le_bytes());
                eat(&mag(count).to_le_bytes());
            }
        }
    }
    for (name, &v) in &snap.counters {
        eat(b"c");
        eat(name.as_bytes());
        eat(&mag(v).to_le_bytes());
    }
    for (name, &v) in &snap.gauges {
        eat(b"g");
        eat(name.as_bytes());
        eat(&mag(v).to_le_bytes());
    }
    h
}

/// One seeded mutation of `g` (never touches the sabotage layer: the
/// explorer searches for bugs in the real schemes, not in seeded ones).
fn mutate(g: &Genome, rng: &mut ChaCha8Rng, max_n: usize) -> Genome {
    let mut c = g.clone();
    match rng.gen_range(0..10u32) {
        0 => c.n = (c.n + rng.gen_range(1..=8usize)).min(max_n),
        1 => c.n = c.n.saturating_sub(rng.gen_range(1..=8usize)).max(1),
        2 => c.d = rng.gen_range(1..=6usize),
        3 => {
            c.family = Family::ALL[rng.gen_range(0..Family::ALL.len())];
        }
        4 => {
            c.construction = match c.construction {
                ConstructionChoice::Structured => ConstructionChoice::Greedy,
                ConstructionChoice::Greedy => ConstructionChoice::Structured,
            }
        }
        5 => {
            c.mode = [ModeChoice::Pre, ModeChoice::Buffered, ModeChoice::Pipelined]
                [rng.gen_range(0..3usize)];
        }
        6 => c.track = rng.gen_range(1..=48u64),
        7 => {
            let f = c.faults.get_or_insert_with(FaultPlan::default);
            f.loss_rate = rng.gen_range(0.0..0.4);
            f.seed = rng.gen_range(0..1_000u64);
        }
        8 => {
            let node = NodeId(rng.gen_range(1..=c.n.max(1)) as u32);
            let slot = rng.gen_range(0..24u64);
            let f = c.faults.get_or_insert_with(FaultPlan::default);
            if rng.gen_bool(0.5) {
                f.crashes.push((node, slot));
            } else {
                f.stop_crashes.push((node, slot));
            }
        }
        _ => c.faults = None,
    }
    c
}

/// Run the coverage-guided exploration.
pub fn explore(opts: &ExploreOptions) -> ExploreReport {
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    let mut report = ExploreReport::default();
    let mut signatures: HashSet<u64> = HashSet::new();
    // Seed frontier: one small genome per family.
    let mut frontier: Vec<Genome> = Family::ALL
        .iter()
        .map(|&f| Genome::clean(f, 12, 2, ConstructionChoice::Greedy))
        .collect();
    for _ in 0..opts.budget {
        let parent = &frontier[rng.gen_range(0..frontier.len())];
        let child = mutate(parent, &mut rng, opts.max_n);
        report.executed += 1;
        let (rec, tel) = MemoryRecorder::handle();
        let rep = check_genome_with(&child, &[Column::Mega], Some(&tel));
        if rep.skipped {
            report.skipped += 1;
            continue;
        }
        if let Some(v) = rep.violations.first() {
            let invariant = v.invariant.clone();
            let shrunk = shrink(&child, |g| check_genome_mega(g).violates(Some(&invariant)));
            report.counterexamples.push(Counterexample {
                found: child.clone(),
                shrunk,
                invariant,
            });
        }
        if signatures.insert(coverage_signature(&rec.snapshot())) {
            report.novel += 1;
            frontier.push(child);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exploration_is_deterministic_per_seed() {
        let opts = ExploreOptions {
            budget: 40,
            seed: 11,
            max_n: 48,
        };
        let a = explore(&opts);
        let b = explore(&opts);
        assert_eq!(a.executed, b.executed);
        assert_eq!(a.novel, b.novel);
        assert_eq!(a.skipped, b.skipped);
        assert_eq!(a.counterexamples.len(), b.counterexamples.len());
    }

    #[test]
    fn exploration_of_correct_schemes_finds_no_counterexamples() {
        let opts = ExploreOptions {
            budget: 60,
            seed: 3,
            max_n: 48,
        };
        let rep = explore(&opts);
        assert!(
            rep.counterexamples.is_empty(),
            "unexpected counterexamples: {:?}",
            rep.counterexamples
                .iter()
                .map(|c| format!("{} ⇒ {}", c.invariant, c.shrunk.to_json()))
                .collect::<Vec<_>>()
        );
        assert!(rep.novel > 1, "coverage map never grew");
    }

    #[test]
    fn signature_distinguishes_metric_shapes() {
        let (rec_a, tel_a) = MemoryRecorder::handle();
        tel_a.observe("x", 3);
        let (rec_b, tel_b) = MemoryRecorder::handle();
        tel_b.observe("x", 4000);
        assert_ne!(
            coverage_signature(&rec_a.snapshot()),
            coverage_signature(&rec_b.snapshot())
        );
        // Same shape ⇒ same signature.
        let (rec_c, tel_c) = MemoryRecorder::handle();
        tel_c.observe("x", 3);
        assert_eq!(
            coverage_signature(&rec_a.snapshot()),
            coverage_signature(&rec_c.snapshot())
        );
    }
}
