//! Implementation of the `clustream` command-line tool.
//!
//! Subcommands:
//!
//! * `simulate` — run a scheme through the validating slot simulator and
//!   print its QoS;
//! * `analyze` — closed-form bounds, the Pareto frontier and a scheme
//!   recommendation for a population;
//! * `plan` — pick per-cluster schemes for a multi-cluster session from
//!   buffer budgets, then verify the plan by simulation;
//! * `trace` — follow one packet's delivery path to one node;
//! * `report` — summarize a `--metrics-out` JSONL metrics file into
//!   delay/buffer tables;
//! * `check` — the invariant model-checker: exhaustive small-world
//!   lattice sweep, coverage-guided exploration, repro-corpus replay;
//! * `cluster` — spawn a real networked cluster of `clustream-node`
//!   processes over loopback, optionally SIGKILLing nodes mid-stream,
//!   and report detection/repair wall-clocks;
//! * `replay` — re-run a recorded cluster trace through the DES under
//!   the observed link latencies and score delivery-order concordance.
//!
//! Every subcommand but `report` parses its flags with one grammar,
//! [`ArgMap`]: `--key value` pairs and valueless `--switch`es, checked
//! against the subcommand's usage text, which names each flag and its
//! arity. `report` takes one positional file path.

#![warn(missing_docs)]

pub mod check;
pub mod commands;
pub mod net_cmd;

pub use clustream_plan::args;
pub use clustream_plan::{ArgMap, CliError};

use clustream_plan::{render_usage, SIMULATE_USAGE};

/// Entry point shared by `main` and the tests.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let (cmd, rest) = argv.split_first().ok_or_else(|| CliError::Usage(usage()))?;
    // `report` takes a positional file path, not flags.
    if cmd == "report" {
        return commands::report(rest);
    }
    let args = ArgMap::parse(rest)?;
    match cmd.as_str() {
        "check" => check::check(&args),
        "simulate" => commands::simulate(&args),
        "analyze" => commands::analyze(&args),
        "plan" => commands::plan(&args),
        "trace" => commands::trace(&args),
        "cluster" => net_cmd::cluster(&args),
        "replay" => net_cmd::replay(&args),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(CliError::Usage(format!(
            "unknown subcommand `{other}`\n\n{}",
            usage()
        ))),
    }
}

/// The usage text: each subcommand's own, which is also the vocabulary it
/// checks its flags against.
pub fn usage() -> String {
    let mut out = String::from(
        "clustream — streaming overlays with provable delay/buffer tradeoffs\n\nUSAGE:\n",
    );
    for (cmd, text) in [
        ("simulate", SIMULATE_USAGE),
        ("analyze", commands::ANALYZE_USAGE),
        ("plan", commands::PLAN_USAGE),
        ("trace", commands::TRACE_USAGE),
        ("check", check::CHECK_USAGE),
        ("cluster", net_cmd::CLUSTER_USAGE),
        ("replay", net_cmd::REPLAY_USAGE),
    ] {
        out.push_str(&render_usage(&format!("clustream {cmd:<8}"), text));
    }
    out.push_str("  clustream report   <FILE.jsonl>\n  clustream help\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustream_plan::usage_flags;

    #[test]
    fn help_prints_every_flag_the_subcommands_accept() {
        // The usage text is rendered from the tables `check_known` uses,
        // so the `simulate` flags it used to omit cannot go missing again.
        let help = run(&["help".to_string()]).unwrap();
        for usage in [
            SIMULATE_USAGE,
            commands::ANALYZE_USAGE,
            commands::PLAN_USAGE,
            commands::TRACE_USAGE,
            check::CHECK_USAGE,
            net_cmd::CLUSTER_USAGE,
            net_cmd::REPLAY_USAGE,
        ] {
            for line in usage {
                assert!(help.contains(line), "help lacks `{line}`");
            }
        }
        assert_eq!(usage_flags(SIMULATE_USAGE).count(), 29);
        assert_eq!(usage_flags(net_cmd::CLUSTER_USAGE).count(), 14);
        assert!(help.contains("clustream report   <FILE.jsonl>"), "{help}");
    }

    #[test]
    fn unknown_subcommand_is_reported_with_the_usage() {
        // The one error message of more than one line: not a table row.
        let err = run(&["nope".to_string()]).unwrap_err().to_string();
        assert_eq!(
            err,
            format!("usage error: unknown subcommand `nope`\n\n{}", usage())
        );
    }
}
