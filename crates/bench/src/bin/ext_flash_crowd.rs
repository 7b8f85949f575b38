//! ext-F: flash crowd — grow the forest online by a join curve and score
//! the survivors' QoE (DESIGN.md §15, EXPERIMENTS.md "flash crowd").
//!
//! Runs one [`ScenarioPlan`] through a scripted
//! [`clustream_recovery::DynamicMultiTree`] on the mega slot engine,
//! prints the initial-buffering and throughput–smoothness frontiers with
//! the paper's `h·d` bound pinned as a grid row, and writes the
//! machine-readable
//! [`clustream_bench::scenarios::FlashCrowdReport`] as JSON.
//!
//! `--oracle` additionally closes the run against the DES
//! (slot ≡ event world, bit for bit) — the CI quick-tier gate.

use clustream_bench::render_table;
use clustream_bench::scenarios::{crowd_plan, flash_crowd_oracle, run_flash_crowd, write_report};
use clustream_plan::{render_usage, ArgMap, CliError, RunPlan, Usage};
use clustream_workloads::ScenarioPlan;
use std::process::ExitCode;

const USAGE: Usage = &[
    "[--n0 <N>] [--d <D>] [--joins <J>] [--scenario <SPEC>] [--track <T>] [--horizon <H>]",
    "[--oracle] [--out <PATH>]",
];

/// The plan, whether to close it against the DES, and the report path.
fn parse(argv: Vec<String>) -> Result<(RunPlan, bool, String), CliError> {
    let args = ArgMap::parse(&argv)?;
    args.check_known(USAGE)?;
    // Default curve: the whole crowd arrives as a ramp over 200 slots
    // starting at slot 10 — "10⁵ joins within a few hundred slots".
    let spec = match args.optional("scenario") {
        Some(spec) => spec.to_string(),
        None => format!("ramp:{}@10+200", args.u64_or("joins", 1_000)?),
    };
    // The tracked window must outlast the join curve (default ramp ends
    // at slot 210): joiners only ever receive packets sent after they
    // arrive, so a shorter window scores late joiners as receiving
    // nothing and the frontier never closes.
    let plan = crowd_plan(
        args.usize_or("n0", 100)?,
        args.usize_or("d", 3)?,
        ScenarioPlan::parse(&spec).map_err(CliError::Usage)?,
        args.u64_or("track", 256)?,
        args.u64_or("horizon", 2_000)?,
    );
    let out = args.optional("out").unwrap_or("BENCH_flash_crowd.json");
    Ok((plan, args.switch("oracle"), out.to_string()))
}

fn main() -> ExitCode {
    let (plan, oracle, out) = match parse(std::env::args().skip(1).collect()) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\nusage:\n{}", render_usage("ext_flash_crowd", USAGE));
            return ExitCode::from(2);
        }
    };

    println!(
        "ext-F — flash crowd: n0 = {}, d = {}, scenario `{}`, engine {}\n",
        plan.scheme.n,
        plan.scheme.d,
        plan.scenario.as_ref().expect("a crowd plan"),
        plan.label()
    );
    let rep = match run_flash_crowd(&plan) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("flash-crowd run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "joins {} | final members {} | rebuilds {} | swaps {} | settled slot {} | \
         measured max delay {} | h·d bound {} | wall {} ms\n",
        rep.joins_applied,
        rep.final_members,
        rep.rebuilds,
        rep.total_swaps,
        rep.settled_slot,
        rep.max_delay,
        rep.bound_h_d,
        rep.wall_ms,
    );

    // Every frontier table pins the paper's h·d budget as a grid row.
    let delay = |d0: u64| match d0 == rep.bound_h_d {
        true => format!("{d0} (= h·d)"),
        false => d0.to_string(),
    };
    println!("initial buffering vs. interruption (Wait policy):\n");
    println!(
        "{}",
        render_table(
            &rep.initial_buffering,
            &[
                ("delay d0", &|p| delay(p.initial_delay)),
                ("P(interrupt)", &|p| format!(
                    "{:.4}",
                    p.interruption_probability
                )),
                ("stall slots", &|p| format!("{:.2}", p.mean_stall_slots)),
                ("smoothness", &|p| format!("{:.4}", p.smoothness)),
            ]
        )
    );

    println!("\nthroughput–smoothness frontier (both policies):\n");
    println!(
        "{}",
        render_table(
            &rep.throughput_smoothness,
            &[
                ("policy", &|p| p.policy.label().to_string()),
                ("delay d0", &|p| delay(p.initial_delay)),
                ("throughput", &|p| format!("{:.4}", p.throughput)),
                ("smoothness", &|p| format!("{:.4}", p.smoothness)),
            ]
        )
    );

    println!();
    if let Err(e) = write_report(&out, &rep) {
        eprintln!("cannot write --out `{out}`: {e}");
        return ExitCode::FAILURE;
    }

    if oracle {
        print!("oracle: slot ≡ DES on the same plan ... ");
        match flash_crowd_oracle(&plan) {
            Ok(()) => println!("closed"),
            Err(div) => {
                println!("DIVERGED");
                eprintln!("{div}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
