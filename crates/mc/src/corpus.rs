//! The JSONL repro corpus.
//!
//! Every counterexample the explorer ever shrank (plus hand-written
//! regression pins) lives in `tests/corpus/*.jsonl`, one entry per line.
//! `cargo test` replays the whole corpus on every run — every
//! [`Column::ALL`] engine column with cross-engine agreement — so a bug
//! caught once stays caught forever.
//!
//! [`Column::ALL`]: clustream_des::Column::ALL

use crate::checker::check_genome;
use crate::genome::Genome;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// One corpus line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusEntry {
    /// Stable identifier (unique within the corpus).
    pub id: String,
    /// Why the entry exists (what it reproduces or pins).
    pub note: String,
    /// When expecting a violation: the invariant that must fire. `None`
    /// accepts any violation.
    pub invariant: Option<String>,
    /// `true`: the genome must violate; `false`: it must check clean.
    pub expect_violation: bool,
    /// The configuration to replay.
    pub genome: Genome,
}

impl CorpusEntry {
    /// Canonical single-line JSON encoding.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("corpus entry is serializable")
    }
}

/// Load every `*.jsonl` corpus file under `dir` (sorted by file name for
/// determinism). Loading is total: a line that is not UTF-8, not an
/// entry, or whose genome lies outside the checker's domain
/// ([`Genome::check_domain`]) is an error naming its file and line. An
/// unreadable or empty corpus (no files, or no entries across all files)
/// is an error too: a silently-vanished corpus must not look like a
/// passing replay.
///
/// [`Genome::check_domain`]: crate::Genome::check_domain
pub fn load_dir(dir: &Path) -> Result<Vec<(PathBuf, usize, CorpusEntry)>, String> {
    let listing = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read corpus directory `{}`: {e}", dir.display()))?;
    let mut files: Vec<PathBuf> = listing
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    files.sort();
    let mut entries = Vec::new();
    for file in files {
        let bytes = std::fs::read(&file)
            .map_err(|e| format!("cannot read corpus file `{}`: {e}", file.display()))?;
        for (lineno, line) in bytes.split(|&b| b == b'\n').enumerate() {
            let at = |what: String| format!("{}:{}: {what}", file.display(), lineno + 1);
            let line = std::str::from_utf8(line)
                .map_err(|e| at(format!("corpus line is not UTF-8: {e}")))?
                .trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let entry: CorpusEntry =
                serde_json::from_str(line).map_err(|e| at(format!("corrupt corpus line: {e}")))?;
            entry.genome.check_domain().map_err(at)?;
            entries.push((file.clone(), lineno + 1, entry));
        }
    }
    if entries.is_empty() {
        return Err(format!(
            "corpus directory `{}` contains no corpus entries (*.jsonl)",
            dir.display()
        ));
    }
    Ok(entries)
}

/// Outcome of a corpus replay.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Entries replayed.
    pub entries: usize,
    /// Engine runs executed.
    pub runs: usize,
    /// Per-entry mismatches (empty = corpus fully green).
    pub failures: Vec<String>,
}

/// Replay every corpus entry under `dir` on all engines.
pub fn replay_dir(dir: &Path) -> Result<ReplayReport, String> {
    let mut report = ReplayReport::default();
    for (file, lineno, entry) in load_dir(dir)? {
        let at = format!("{}:{} ({})", file.display(), lineno, entry.id);
        let rep = check_genome(&entry.genome);
        report.entries += 1;
        report.runs += rep.runs;
        if rep.skipped {
            report
                .failures
                .push(format!("{at}: genome is out of domain — stale entry?"));
            continue;
        }
        if entry.expect_violation {
            if !rep.violates(entry.invariant.as_deref()) {
                report.failures.push(format!(
                    "{at}: expected a {} violation, got {}",
                    entry.invariant.as_deref().unwrap_or("any"),
                    if rep.violations.is_empty() {
                        "a clean run".to_string()
                    } else {
                        format!("{:?}", rep.violations)
                    }
                ));
            }
        } else if rep.violated() {
            report
                .failures
                .push(format!("{at}: expected clean, got {:?}", rep.violations));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::{ConstructionChoice, Family, MAX_D, MAX_N, MAX_TRACK};
    use crate::sabotage::Sabotage;

    fn write(dir: &Path, name: &str, text: &str) {
        std::fs::write(dir.join(name), text).unwrap();
    }

    /// A fresh directory per tag, process and thread (the test harness
    /// may run one test on two threads at once).
    fn tmpdir(tag: &str) -> PathBuf {
        let thread = format!("{:?}", std::thread::current().id());
        let thread: String = thread.chars().filter(char::is_ascii_digit).collect();
        let dir = std::env::temp_dir().join(format!(
            "clustream-mc-corpus-{tag}-{}-{thread}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn corrupt_lines_error_with_file_and_line() {
        let dir = tmpdir("corrupt");
        write(&dir, "a.jsonl", "# comment\nnot json\n");
        let err = load_dir(&dir).unwrap_err();
        assert!(err.contains("a.jsonl:2"), "{err}");
        assert!(err.contains("corrupt corpus line"), "{err}");
    }

    #[test]
    fn genomes_past_the_domain_bounds_error_with_file_and_line() {
        let dir = tmpdir("domain");
        let mut g = Genome::clean(Family::MultiTree, 13, 2, ConstructionChoice::Greedy);
        let entry = |g: &Genome| CorpusEntry {
            id: "big".into(),
            note: "test".into(),
            invariant: None,
            expect_violation: false,
            genome: g.clone(),
        };
        for (field, set) in [
            (
                "n = 4000000000",
                (|g: &mut Genome| g.n = 4_000_000_000) as fn(&mut Genome),
            ),
            ("d = 100000", |g| g.d = 100_000),
            ("track = 257", |g| g.track = MAX_TRACK + 1),
        ] {
            let mut big = g.clone();
            set(&mut big);
            write(
                &dir,
                "a.jsonl",
                &format!("# pinned\n{}\n", entry(&big).to_json()),
            );
            let err = load_dir(&dir).unwrap_err();
            assert!(err.contains("a.jsonl:2: genome outside"), "{err}");
            assert!(err.contains(field), "{err}");
            assert!(err.contains("n ≤ 1024, d ≤ 64, track ≤ 256"), "{err}");
        }
        // The bounds themselves are inside.
        (g.n, g.d, g.track) = (MAX_N, MAX_D, MAX_TRACK);
        write(&dir, "a.jsonl", &entry(&g).to_json());
        assert_eq!(load_dir(&dir).unwrap().len(), 1);
    }

    /// Whether `load_dir`'s outcome on a corpus of one file `a.jsonl` is
    /// total: entries, or an error naming a line of the file (or an
    /// empty corpus).
    fn loads_or_names_its_line(dir: &Path) -> Result<(), String> {
        match load_dir(dir) {
            Ok(_) => Ok(()),
            Err(e) if e.contains("a.jsonl:") || e.contains("no corpus entries") => Ok(()),
            Err(e) => Err(e),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_bytes_load_or_name_their_line(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512),
        ) {
            // The raw bytes, then the same bytes over JSON's alphabet so
            // that most lines reach the parser instead of the UTF-8 check.
            const JSON: &[u8] = b"{}[]\":,0123456789-.eE \ntruefalsnl\\u\"genome";
            let json: Vec<u8> = bytes.iter().map(|&b| JSON[b as usize % JSON.len()]).collect();
            let dir = tmpdir("bytes");
            for text in [&bytes, &json] {
                std::fs::write(dir.join("a.jsonl"), text).unwrap();
                proptest::prop_assert!(
                    loads_or_names_its_line(&dir).is_ok(),
                    "{:?}",
                    load_dir(&dir)
                );
            }
        }

        #[test]
        fn truncated_seed_lines_load_or_name_their_line(
            pick in 0usize..64,
            cut in 0usize..4096,
            rest in proptest::prelude::any::<bool>(),
        ) {
            let seed = std::fs::read(
                Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus/seed.jsonl"),
            )
            .unwrap();
            let lines: Vec<&[u8]> = seed.split(|&b| b == b'\n').collect();
            let i = pick % lines.len();
            // One seed line cut at any byte (possibly inside a UTF-8
            // sequence), alone or followed by the intact lines after it.
            let mut text = lines[i][..cut.min(lines[i].len())].to_vec();
            if rest {
                for line in &lines[i + 1..] {
                    text.push(b'\n');
                    text.extend_from_slice(line);
                }
            }
            let dir = tmpdir("truncated");
            std::fs::write(dir.join("a.jsonl"), &text).unwrap();
            proptest::prop_assert!(loads_or_names_its_line(&dir).is_ok(), "{:?}", load_dir(&dir));
        }
    }

    #[test]
    fn empty_corpus_is_an_error() {
        let dir = tmpdir("empty");
        let err = load_dir(&dir).unwrap_err();
        assert!(err.contains("no corpus entries"), "{err}");
    }

    #[test]
    fn replay_detects_expectation_mismatches_both_ways() {
        let dir = tmpdir("mismatch");
        let clean = CorpusEntry {
            id: "clean-but-expected-violating".into(),
            note: "test".into(),
            invariant: Some("DelayBound".into()),
            expect_violation: true,
            genome: Genome::clean(Family::Chain, 3, 2, ConstructionChoice::Greedy),
        };
        let mut violating_genome = Genome::clean(Family::Chain, 3, 2, ConstructionChoice::Greedy);
        violating_genome.sabotage = Some(Sabotage::SourceStall(4));
        let violating = CorpusEntry {
            id: "violating-but-expected-clean".into(),
            note: "test".into(),
            invariant: None,
            expect_violation: false,
            genome: violating_genome,
        };
        write(
            &dir,
            "a.jsonl",
            &format!("{}\n{}\n", clean.to_json(), violating.to_json()),
        );
        let report = replay_dir(&dir).unwrap();
        assert_eq!(report.entries, 2);
        assert_eq!(report.failures.len(), 2, "{:?}", report.failures);
    }

    #[test]
    fn entry_json_round_trips() {
        let e = CorpusEntry {
            id: "x".into(),
            note: "y".into(),
            invariant: Some("DelayBound".into()),
            expect_violation: true,
            genome: Genome::clean(Family::MultiTree, 9, 2, ConstructionChoice::Structured),
        };
        let j = e.to_json();
        let back: CorpusEntry = serde_json::from_str(&j).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.to_json(), j);
    }
}
