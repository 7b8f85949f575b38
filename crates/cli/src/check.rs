//! `clustream check`: the invariant model-checker front-end.
//!
//! Boolean mode flags (`--exhaustive`, `--explore`, `--replay-corpus`)
//! don't fit [`crate::ArgMap`]'s strict `--key value` grammar, so this
//! subcommand parses its own argument vector.

use crate::args::{flag_list, CliError, Usage};
use crate::commands::usize_in;
use clustream_des::Column;
use clustream_mc::{
    exhaustive, exhaustive_recovery, explore, replay_dir, ExploreOptions, LatticeOptions, MAX_N,
};
use std::fmt::Write as _;
use std::path::Path;

/// `check`'s usage text (and flag vocabulary); the three modes are
/// valueless switches.
pub const CHECK_USAGE: Usage = &[
    "[--exhaustive] [--explore] [--replay-corpus]",
    "[--budget <GENOMES>] [--seed <SEED>]",
    "[--corpus <DIR>] [--max-n <N>]",
];

#[derive(Debug, Default)]
struct CheckArgs {
    exhaustive: bool,
    explore: bool,
    replay_corpus: bool,
    budget: usize,
    seed: u64,
    corpus: String,
    max_n: Option<usize>,
}

fn parse(argv: &[String]) -> Result<CheckArgs, CliError> {
    let mut args = CheckArgs {
        budget: 500,
        corpus: "tests/corpus".into(),
        ..CheckArgs::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| CliError::Usage(format!("--{name} requires a value")))
        };
        match flag.as_str() {
            "--exhaustive" => args.exhaustive = true,
            "--explore" => args.explore = true,
            "--replay-corpus" => args.replay_corpus = true,
            "--budget" => {
                args.budget = value("budget")?
                    .parse()
                    .ok()
                    .filter(|&b| b > 0)
                    .ok_or_else(|| CliError::Usage("--budget must be a positive integer".into()))?;
            }
            "--seed" => {
                args.seed = value("seed")?
                    .parse()
                    .map_err(|_| CliError::Usage("--seed must be an integer".into()))?;
            }
            "--corpus" => args.corpus = value("corpus")?.clone(),
            "--max-n" => args.max_n = Some(usize_in("max-n", value("max-n")?, 1..=MAX_N)?),
            other => {
                return Err(CliError::Usage(format!(
                    "unknown flag `{other}`; valid options are: {}",
                    flag_list(CHECK_USAGE)
                )));
            }
        }
    }
    if !(args.exhaustive || args.explore || args.replay_corpus) {
        return Err(CliError::Usage(format!(
            "check needs at least one mode; valid options are: {}",
            flag_list(CHECK_USAGE)
        )));
    }
    Ok(args)
}

/// `clustream check [--exhaustive] [--explore --budget N --seed S]
/// [--replay-corpus --corpus DIR] [--max-n N]`.
pub fn check(argv: &[String]) -> Result<String, CliError> {
    let args = parse(argv)?;
    let mut out = String::new();
    if args.exhaustive {
        let opts = LatticeOptions {
            max_n: args.max_n.unwrap_or(64),
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
    if args.explore {
        let opts = ExploreOptions {
            budget: args.budget,
            seed: args.seed,
            max_n: args.max_n.unwrap_or(ExploreOptions::default().max_n),
        };
        let report = explore(&opts);
        let _ = writeln!(
            out,
            "explore     : {} genomes executed (seed {}), {} novel coverage signatures, {} skipped",
            report.executed, args.seed, report.novel, report.skipped
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
    if args.replay_corpus {
        let report = replay_dir(Path::new(&args.corpus)).map_err(CliError::Model)?;
        let _ = writeln!(
            out,
            "corpus      : {} entries replayed from {} ({} engine runs)",
            report.entries, args.corpus, report.runs
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
    fn unknown_flag_error_lists_valid_options() {
        let err = run(&argv(&["check", "--frobnicate"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown flag `--frobnicate`"), "{err}");
        for opt in [
            "--exhaustive",
            "--explore",
            "--replay-corpus",
            "--budget",
            "--seed",
            "--corpus",
            "--max-n",
        ] {
            assert!(err.contains(opt), "missing `{opt}` in: {err}");
        }
    }

    #[test]
    fn no_mode_is_a_usage_error() {
        let err = run(&argv(&["check"])).unwrap_err().to_string();
        assert!(err.contains("at least one mode"), "{err}");
        assert!(err.contains("--exhaustive"), "{err}");
    }

    #[test]
    fn missing_values_are_usage_errors() {
        let err = run(&argv(&["check", "--explore", "--budget"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("--budget requires a value"), "{err}");
        let err = run(&argv(&["check", "--explore", "--budget", "many"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("--budget must be a positive integer"), "{err}");
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
