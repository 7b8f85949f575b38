//! The clustream performance ledger: pinned workloads through the real
//! CLI entry point and `crates/net`, timed end to end as fresh processes
//! and attributed layer by layer in a separate traced pass.
//!
//! ```text
//! run.sh --workload W --seed S --seconds T --trace 0|1   one workload; last line is JSON
//! run.sh [--seed S] [--rounds R] [--out FILE]            every workload, interleaved in rounds
//! run.sh --compare A.json B.json                         two results files against the bounds
//! ```
//!
//! See `README.md` beside this crate for the metrics and the reasoning.

mod check;
mod layers;
mod metrics;
mod pump;
mod report;
mod runner;
mod stats;
mod trace;
mod worker;
mod workloads;

use report::{compare, loadavg, BenchmarkSpec, Env, Results};
use runner::{Harness, Run, OUT_DIR};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{workload, DEFAULT_SEED, WORKLOADS};

/// Rounds when every workload runs and `--rounds` is not given.
const DEFAULT_ROUNDS: u64 = 12;

const USAGE: &str = "usage:
  run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
  run.sh [--seed <n>] [--rounds <n>] [--out <results.json>]
  run.sh --compare <A.json> <B.json>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("worker") => return worker::main(&args[1..]),
        Some("--compare") => compare_files(&args[1..]),
        _ => match Flags::parse(&args) {
            Ok(flags) if flags.workload.is_some() => one_workload(&flags),
            Ok(flags) => every_workload(&flags),
            Err(e) => Err(e),
        },
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    rounds: u64,
    out: Option<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: 0,
            trace: false,
            rounds: DEFAULT_ROUNDS,
            out: None,
        };
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{key} needs a value\n{USAGE}"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{key} takes a whole number, got `{value}`"))
            };
            match key.as_str() {
                "--workload" => flags.workload = Some(value.clone()),
                "--seed" => flags.seed = number()?,
                "--seconds" => flags.seconds = number()?,
                "--rounds" => flags.rounds = number()?.max(1),
                "--trace" => flags.trace = number()? != 0,
                "--out" => flags.out = Some(value.clone()),
                other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
            }
        }
        Ok(flags)
    }
}

fn harness(seed: u64) -> Result<Harness, String> {
    Ok(Harness {
        exe: std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?,
        out: OUT_DIR.into(),
        seed,
    })
}

/// The benchmark contract's mode: one workload, timed for `--seconds`.
/// With `--trace 1` the timed units get half of that and the traced
/// pass follows, so both kinds of run cost about the same.
fn one_workload(flags: &Flags) -> Result<ExitCode, String> {
    let name = flags.workload.as_deref().unwrap_or_default();
    let w = workload(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{name}`; the workloads are: {}",
            known.join(", ")
        )
    })?;
    let h = harness(flags.seed)?;
    let mut env = Env::capture(flags.seed, 0, flags.seconds);
    let mut run = Run::new(w);
    let budget = Duration::from_secs(flags.seconds) / if flags.trace { 2 } else { 1 };
    let t0 = Instant::now();
    let mut unit = Duration::ZERO;
    // Start a unit only if one as long as the last still fits.
    while run.samples() == 0 || t0.elapsed() + unit < budget {
        let unit_ms = run.sample(&h).map_err(|e| format!("set-up failed: {e}"))?;
        unit = Duration::from_secs_f64(unit_ms / 1e3);
    }
    let result = run.finish(&h, flags.trace, env.loadavg_start);
    env.loadavg_end = loadavg();
    print!("{}{}", env.render(), result.render());
    println!("{}", result.contract_line(flags.trace));
    Ok(ExitCode::SUCCESS)
}

/// Every workload, interleaved in rounds so that a noisy phase of the
/// machine falls on all of them and each minimum spans the whole run;
/// then the traced passes; then the results file.
fn every_workload(flags: &Flags) -> Result<ExitCode, String> {
    let h = harness(flags.seed)?;
    let mut env = Env::capture(flags.seed, flags.rounds, 0);
    print!("{}", env.render());
    let mut runs: Vec<Run> = WORKLOADS.iter().map(Run::new).collect();
    for round in 1..=flags.rounds {
        for run in &mut runs {
            for _ in 0..run.workload.units_per_round {
                run.sample(&h).map_err(|e| format!("set-up failed: {e}"))?;
            }
        }
        eprintln!("round {round}/{} done", flags.rounds);
    }
    let workloads = runs
        .into_iter()
        .map(|run| run.finish(&h, true, env.loadavg_start))
        .collect();
    env.loadavg_end = loadavg();
    let results = Results { env, workloads };
    for w in &results.workloads {
        print!("{}", w.render());
    }
    print!("{}", results.env.render());
    let path = flags.out.clone().unwrap_or_else(|| {
        h.out
            .join(format!("results-seed{}.json", flags.seed))
            .to_string_lossy()
            .into_owned()
    });
    std::fs::write(&path, results.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("results written to {path}");
    let failed: u64 = results.workloads.iter().map(|w| w.failed).sum();
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err(format!("--compare takes two results files\n{USAGE}"));
    };
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let load = |path: &str| Results::from_json(&read(path)?).map_err(|e| format!("{path}: {e}"));
    let spec = BenchmarkSpec::from_json(&read("BENCHMARK.json")?)
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let (table, breaches) = compare(&load(a)?, &load(b)?, &spec);
    print!("{table}");
    Ok(if breaches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    /// A scratch directory under `benchmark/out` for tests that need
    /// socket or metrics files.
    pub fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The settings of a manifest's `[profile.release]` table, without
    /// comments and blank lines.
    fn release_profile(manifest: &str) -> Vec<String> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(|l| l.split('#').next().unwrap_or_default().trim().to_string())
            .filter(|l| !l.is_empty())
            .collect()
    }

    /// Path dependencies are built with the profile of the workspace that
    /// builds them, so the benchmark must carry the root's release
    /// profile or it measures a differently optimised program.
    #[test]
    fn release_profile_matches_the_root_manifest() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let read = |p: std::path::PathBuf| std::fs::read_to_string(p).unwrap();
        let root = release_profile(&read(here.join("../Cargo.toml")));
        let own = release_profile(&read(here.join("Cargo.toml")));
        assert!(!root.is_empty(), "the root manifest has a release profile");
        assert_eq!(own, root, "copy the root [profile.release] verbatim");
    }

    #[test]
    fn release_profile_reader_stops_at_the_next_table() {
        let manifest = "[a]\nx = 1\n[profile.release]\n# why\nlto = \"thin\" # note\n\ncodegen-units = 1\n[b]\ny = 2\n";
        assert_eq!(
            release_profile(manifest),
            ["lto = \"thin\"", "codegen-units = 1"]
        );
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
    }
}
