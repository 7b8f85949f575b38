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
//! Argument parsing is hand-rolled (`--key value` pairs) to keep the
//! dependency surface at zero beyond the workspace itself.

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
    // `report` takes a positional file path, which `ArgMap` (strictly
    // `--key value` pairs) would reject — it parses its own arguments.
    if cmd == "report" {
        return commands::report(rest);
    }
    // `check` mixes boolean mode flags with valued ones, which `ArgMap`
    // cannot express either.
    if cmd == "check" {
        return check::check(rest);
    }
    let args = ArgMap::parse(rest)?;
    match cmd.as_str() {
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
