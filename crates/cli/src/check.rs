//! `clustream check`: the invariant model-checker front-end. Its three
//! modes (`--exhaustive`, `--explore`, `--replay-corpus`) are switches;
//! at least one must be given.

use crate::args::{flag_list, ArgMap, CliError, Usage};
use clustream_des::Column;
use clustream_mc::{
    exhaustive, exhaustive_recovery, explore, replay_dir, ExploreOptions, LatticeOptions, MAX_N,
};
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::path::Path;

/// `check`'s usage text (and flag vocabulary); the three modes are
/// valueless switches.
pub const CHECK_USAGE: Usage = &[
    "[--exhaustive] [--explore] [--replay-corpus]",
    "[--budget <GENOMES>] [--seed <SEED>]",
    "[--corpus <DIR>] [--max-n <N>]",
];

/// `clustream check [--exhaustive] [--explore --budget N --seed S]
/// [--replay-corpus --corpus DIR] [--max-n N]`.
pub fn check(args: &ArgMap) -> Result<String, CliError> {
    args.check_known(CHECK_USAGE)?;
    let budget = args
        .parsed("budget", "a positive integer")?
        .map_or(500, NonZeroUsize::get);
    let seed = args.parsed("seed", "an integer")?.unwrap_or(0);
    let corpus = args.optional("corpus").unwrap_or("tests/corpus");
    let max_n = args.int_in("max-n", 1..=MAX_N)?;
    let [exhaustive_mode, explore_mode, replay_mode] =
        ["exhaustive", "explore", "replay-corpus"].map(|mode| args.switch(mode));
    if !(exhaustive_mode || explore_mode || replay_mode) {
        return Err(CliError::Usage(format!(
            "check needs at least one mode; valid options are: {}",
            flag_list(CHECK_USAGE)
        )));
    }
    let mut out = String::new();
    if exhaustive_mode {
        let opts = LatticeOptions {
            max_n: max_n.unwrap_or(64),
            ..LatticeOptions::default()
        };
        let report = exhaustive(&opts);
        let _ = writeln!(
            out,
            "exhaustive  : {} genomes × {} engines = {} runs ({} out-of-domain points skipped)",
            report.genomes,
            Column::ALL.len(),
            report.runs,
            report.skipped
        );
        let recovery = exhaustive_recovery(&opts);
        let _ = writeln!(
            out,
            "recovery    : {} cases, {} membership events",
            recovery.cases, recovery.events
        );
        let mut violations: Vec<String> = report
            .violations
            .iter()
            .map(|(g, v)| format!("{v} ⇐ {}", g.to_json()))
            .collect();
        violations.extend(
            recovery
                .violations
                .iter()
                .map(|(case, v)| format!("{v} ⇐ {case}")),
        );
        if !violations.is_empty() {
            return Err(CliError::Model(format!(
                "exhaustive sweep found {} violation(s):\n{}",
                violations.len(),
                violations.join("\n")
            )));
        }
        let _ = writeln!(out, "invariants  : all hold over the full lattice");
    }
    if explore_mode {
        let opts = ExploreOptions {
            budget,
            seed,
            max_n: max_n.unwrap_or(ExploreOptions::default().max_n),
        };
        let report = explore(&opts);
        let _ = writeln!(
            out,
            "explore     : {} genomes executed (seed {}), {} novel coverage signatures, {} skipped",
            report.executed, seed, report.novel, report.skipped
        );
        if !report.counterexamples.is_empty() {
            let mut msg = format!(
                "exploration found {} counterexample(s) — add them to the corpus:\n",
                report.counterexamples.len()
            );
            for c in &report.counterexamples {
                let _ = writeln!(msg, "{}: {}", c.invariant, c.shrunk.to_json());
            }
            return Err(CliError::Model(msg));
        }
        let _ = writeln!(out, "invariants  : no counterexamples found");
    }
    if replay_mode {
        let report = replay_dir(Path::new(corpus)).map_err(CliError::Model)?;
        let _ = writeln!(
            out,
            "corpus      : {} entries replayed from {} ({} engine runs)",
            report.entries, corpus, report.runs
        );
        if !report.failures.is_empty() {
            return Err(CliError::Model(format!(
                "corpus replay failed for {} entrie(s):\n{}",
                report.failures.len(),
                report.failures.join("\n")
            )));
        }
        let _ = writeln!(out, "invariants  : every corpus entry behaves as recorded");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::run;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn empty_corpus_dir_is_an_error() {
        let dir =
            std::env::temp_dir().join(format!("clustream-check-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let err = run(&argv(&[
            "check",
            "--replay-corpus",
            "--corpus",
            dir.to_str().unwrap(),
        ]))
        .unwrap_err()
        .to_string();
        assert!(err.contains("no corpus entries"), "{err}");
    }

    #[test]
    fn corrupt_corpus_line_is_an_error_naming_file_and_line() {
        let dir =
            std::env::temp_dir().join(format!("clustream-check-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("bad.jsonl"), "{\"id\": \"oops\"\n").unwrap();
        let err = run(&argv(&[
            "check",
            "--replay-corpus",
            "--corpus",
            dir.to_str().unwrap(),
        ]))
        .unwrap_err()
        .to_string();
        assert!(err.contains("bad.jsonl:1"), "{err}");
        assert!(err.contains("corrupt corpus line"), "{err}");
    }

    #[test]
    fn small_exhaustive_sweep_reports_clean() {
        let out = run(&argv(&["check", "--exhaustive", "--max-n", "6"])).unwrap();
        assert!(out.contains("exhaustive"), "{out}");
        assert!(out.contains("all hold over the full lattice"), "{out}");
        assert!(out.contains("recovery"), "{out}");
    }

    #[test]
    fn small_exploration_reports_clean() {
        let out = run(&argv(&[
            "check",
            "--explore",
            "--budget",
            "30",
            "--seed",
            "5",
            "--max-n",
            "32",
        ]))
        .unwrap();
        assert!(out.contains("30 genomes executed (seed 5)"), "{out}");
        assert!(out.contains("no counterexamples"), "{out}");
    }
}
