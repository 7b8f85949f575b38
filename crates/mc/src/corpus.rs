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
/// determinism). Errors name the offending file and line. An unreadable
/// or empty corpus (no files, or no entries across all files) is an
/// error: a silently-vanished corpus must not look like a passing replay.
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
        let text = std::fs::read_to_string(&file)
            .map_err(|e| format!("cannot read corpus file `{}`: {e}", file.display()))?;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let entry: CorpusEntry = serde_json::from_str(line).map_err(|e| {
                format!(
                    "{}:{}: corrupt corpus line: {e}",
                    file.display(),
                    lineno + 1
                )
            })?;
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
    use crate::genome::{ConstructionChoice, Family};
    use crate::sabotage::Sabotage;

    fn write(dir: &Path, name: &str, text: &str) {
        std::fs::write(dir.join(name), text).unwrap();
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("clustream-mc-corpus-{tag}-{}", std::process::id()));
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
