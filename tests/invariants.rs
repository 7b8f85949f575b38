//! The model-checker end to end: the invariant registry reproduces the
//! paper's Theorem 2 / buffer-bound assertions, the exhaustive lattice
//! driver is clean over a debug-sized world, a deliberately seeded
//! schedule bug is caught and shrunk to its minimal form, and the
//! committed repro corpus replays green — with the shrinker's output
//! byte-identical in-process, across processes and across builds.

use clustream::mc::{
    bounds_for, check_genome, check_genome_mega, exhaustive, exhaustive_recovery, load_dir,
    replay_dir, shrink, ConstructionChoice, CorpusEntry, Family, Genome, LatticeOptions, Sabotage,
};
use clustream::prelude::{thm2_worst_delay_bound, tree_height, Column};
use std::path::Path;

const CORPUS_DIR: &str = "tests/corpus";

/// The seeded schedule bug: a multi-tree whose source stalls for 9 slots
/// before replaying the correct schedule — collision-free, in-order, same
/// buffers, but every packet lands 9 slots late.
fn seeded_bug() -> Genome {
    let mut g = Genome::clean(Family::MultiTree, 20, 2, ConstructionChoice::Structured);
    g.sabotage = Some(Sabotage::SourceStall(9));
    g
}

fn delay_violating(g: &Genome) -> bool {
    check_genome_mega(g).violates(Some("DelayBound"))
}

/// Theorem 2 and the buffer bound, as the registry encodes them: the
/// closed-form bounds the checker enforces are exactly the paper's
/// `h·d` and `h·d + 1` (ported from tests/properties.rs), and clean
/// multi-tree genomes satisfy them on every engine.
#[test]
fn registry_encodes_theorem2_and_buffer_bounds() {
    for (n, d) in [(1, 2), (7, 2), (30, 3), (64, 4), (100, 2)] {
        for construction in ConstructionChoice::ALL {
            let g = Genome::clean(Family::MultiTree, n, d, construction);
            let b = bounds_for(&g).unwrap();
            assert_eq!(
                g.spec().worst_delay_bound().slots,
                thm2_worst_delay_bound(n, d)
            );
            assert_eq!(b.buffer, tree_height(n, d) * d as u64 + 1);
            assert_eq!(b.neighbors, 2 * d as u64);
            let rep = check_genome(&g);
            assert_eq!(rep.runs, Column::ALL.len());
            assert!(
                rep.violations.is_empty(),
                "n={n} d={d} {construction:?}: {:?}",
                rep.violations
            );
        }
    }
}

/// A debug-build-sized slice of the exhaustive lattice (the full `N ≤ 64`
/// sweep runs in release CI): every family, degree, construction and
/// canonical fault plan, on all five engine columns (reference, fast,
/// mega, heap-DES, wheel-DES), zero violations.
#[test]
fn exhaustive_lattice_slice_is_clean() {
    let opts = LatticeOptions {
        max_n: 20,
        ..LatticeOptions::default()
    };
    let report = exhaustive(&opts);
    assert!(
        report.violations.is_empty(),
        "violations: {:?}",
        report
            .violations
            .iter()
            .map(|(g, v)| format!("{} ⇐ {}", v, g.to_json()))
            .collect::<Vec<_>>()
    );
    assert!(
        report.genomes > 500,
        "lattice too small: {}",
        report.genomes
    );
    assert_eq!(report.runs, Column::ALL.len() * report.genomes);
    let recovery = exhaustive_recovery(&opts);
    assert!(
        recovery.violations.is_empty(),
        "recovery violations: {:?}",
        recovery.violations
    );
}

/// The seeded bug is caught by the registry — as a DelayBound violation
/// and nothing else — and shrinks to the minimal configuration that
/// still exhibits it: one receiver, one tree, a one-slot stall.
#[test]
fn seeded_schedule_bug_is_caught_and_shrunk_minimal() {
    let g = seeded_bug();
    let rep = check_genome(&g);
    assert!(rep.violates(Some("DelayBound")), "{:?}", rep.violations);
    assert!(
        rep.violations.iter().all(|v| v.invariant == "DelayBound"),
        "the stall must violate only the delay bound: {:?}",
        rep.violations
    );
    let min = shrink(&g, delay_violating);
    assert!(delay_violating(&min));
    assert_eq!((min.n, min.d), (1, 1), "not minimal: {}", min.to_json());
    assert_eq!(min.sabotage, Some(Sabotage::SourceStall(1)));
    // The minimum also violates on the reference and DES engines.
    assert!(check_genome(&min).violates(Some("DelayBound")));
}

/// Same seed, same violation ⇒ byte-identical minimal counterexample,
/// twice in-process.
#[test]
fn shrink_is_deterministic_in_process() {
    let g = seeded_bug();
    let a = shrink(&g, delay_violating).to_json();
    let b = shrink(&g, delay_violating).to_json();
    assert_eq!(a, b);
}

/// …and across processes: the corpus entry tagged `shrunk-from-seeded-bug`
/// was produced by a different process of a different build, and a fresh
/// shrink must reproduce its genome byte for byte.
#[test]
fn shrink_is_deterministic_across_processes() {
    let entries = load_dir(Path::new(CORPUS_DIR)).unwrap();
    let committed = entries
        .iter()
        .find(|(_, _, e)| e.id == "shrunk-from-seeded-bug")
        .expect("corpus entry `shrunk-from-seeded-bug` is committed")
        .2
        .clone();
    let fresh = shrink(&seeded_bug(), delay_violating);
    assert_eq!(
        fresh.to_json(),
        committed.genome.to_json(),
        "shrink output drifted from the committed corpus bytes"
    );
    assert_eq!(committed.invariant.as_deref(), Some("DelayBound"));
    assert!(committed.expect_violation);
}

/// Every committed corpus entry replays as recorded on all five engine
/// columns (the mega engine and the wheel-backed DES included):
/// violating entries still violate their invariant, clean pins stay
/// clean.
#[test]
fn committed_corpus_replays_green() {
    let report = replay_dir(Path::new(CORPUS_DIR)).unwrap();
    assert!(
        report.failures.is_empty(),
        "corpus replay failures: {:#?}",
        report.failures
    );
    assert!(report.entries >= 5, "corpus shrank to {}", report.entries);
    assert_eq!(report.runs, Column::ALL.len() * report.entries);
}

/// The corpus entries, regenerated. Run `cargo test -q --test invariants
/// -- --ignored regenerate_corpus` after adding a seed entry here; the
/// byte-equality test above keeps the committed file honest.
fn corpus_entries() -> Vec<CorpusEntry> {
    let mut entries = vec![CorpusEntry {
        id: "shrunk-from-seeded-bug".into(),
        note: "SourceStall schedule bug on a multi-tree, shrunk to 1-minimal".into(),
        invariant: Some("DelayBound".into()),
        expect_violation: true,
        genome: shrink(&seeded_bug(), delay_violating),
    }];
    for family in Family::ALL {
        entries.push(CorpusEntry {
            id: format!("clean-{}", family.label()),
            note: "must stay violation-free on every engine".into(),
            invariant: None,
            expect_violation: false,
            genome: Genome::clean(family, 13, 2, ConstructionChoice::Greedy),
        });
    }
    entries
}

/// Regenerates `tests/corpus/seed.jsonl`. Ignored: run explicitly when
/// the entry set changes.
#[test]
#[ignore = "writes tests/corpus/seed.jsonl; run explicitly to regenerate"]
fn regenerate_corpus() {
    let lines: Vec<String> = corpus_entries().iter().map(CorpusEntry::to_json).collect();
    std::fs::create_dir_all(CORPUS_DIR).unwrap();
    std::fs::write(
        Path::new(CORPUS_DIR).join("seed.jsonl"),
        format!("{}\n", lines.join("\n")),
    )
    .unwrap();
}

/// The committed corpus is exactly the regenerated entry set, byte for
/// byte — nothing drifted, nothing was hand-edited out of canonical form.
#[test]
fn committed_corpus_matches_generator() {
    let committed = std::fs::read_to_string(Path::new(CORPUS_DIR).join("seed.jsonl")).unwrap();
    let expected: Vec<String> = corpus_entries().iter().map(CorpusEntry::to_json).collect();
    assert_eq!(committed, format!("{}\n", expected.join("\n")));
}
