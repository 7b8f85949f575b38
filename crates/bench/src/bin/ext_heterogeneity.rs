//! ext-G: heterogeneity — the overlay through the DES with named uplink
//! capacity classes (DESIGN.md §15, EXPERIMENTS.md "heterogeneity").
//!
//! Sweeps a set of class mixes (or one `--classes` spec) through the
//! serialized uplink gate, prints per-class QoE at the paper's `h·d`
//! budget, and writes the machine-readable reports as a JSON array.
//! A `--scenario` plan (regional failures, late joins) can be layered
//! on top, reusing the `fail:`/`step:` grammar.

use clustream_bench::render_table;
use clustream_bench::scenarios::{
    crowd_plan, run_heterogeneity, write_report, HeterogeneityReport,
};
use clustream_des::{CapacityClassPlan, LatencyModel, UplinkModel};
use clustream_plan::{render_usage, ArgMap, CliError, RunPlan, Runtime, Usage};
use clustream_workloads::ScenarioPlan;
use std::process::ExitCode;

/// The default sweep: homogeneous fiber baseline, the classic zipf mix,
/// and a mobile-heavy tail.
const SWEEP: &[&str] = &["fiber", "fiber,cable,mobile", "mobile,cable"];

const USAGE: Usage = &[
    "[--n <N>] [--d <D>] [--classes <SPEC>] [--zipf <S>] [--seed <K>] [--jitter <J>]",
    "[--latency-seed <K>] [--scenario <SPEC>] [--track <T>] [--horizon <H>] [--out <PATH>]",
];

/// One plan per class mix (the `--classes` spec, or the default sweep),
/// and the report path.
fn parse(argv: &[String]) -> Result<(Vec<RunPlan>, String), CliError> {
    let args = ArgMap::parse(argv)?;
    args.check_known(USAGE)?;
    let scenario = match args.optional("scenario") {
        None | Some("") => ScenarioPlan::default(),
        Some(spec) => ScenarioPlan::parse(spec).map_err(CliError::Usage)?,
    };
    // Jitter is what makes class capacity bite: under fixed latency one
    // send per slot fits even a mobile uplink on time; jitter bunches
    // sends into bursts that only the fat classes absorb.
    let jitter = args.f64_or("jitter", 0.75)?;
    let base = RunPlan {
        runtime: Runtime::Des,
        uplink: UplinkModel::Serialized,
        latency: match jitter > 0.0 {
            true => LatencyModel::UniformJitter { jitter },
            false => LatencyModel::Fixed,
        },
        des_seed: args.u64_or("latency-seed", 1)?,
        ..crowd_plan(
            args.usize_or("n", 400)?,
            args.usize_or("d", 3)?,
            scenario,
            args.u64_or("track", 48)?,
            args.u64_or("horizon", 4_000)?,
        )
    };
    let (zipf, seed) = (args.f64_or("zipf", 1.0)?, args.u64_or("seed", 7)?);
    let specs = args.optional("classes").map_or(SWEEP.to_vec(), |s| vec![s]);
    let plans = specs
        .into_iter()
        .map(|spec| {
            let classes = CapacityClassPlan::parse(spec).map_err(CliError::Usage)?;
            Ok(RunPlan {
                classes: Some(classes.with_zipf(zipf).seeded(seed)),
                ..base.clone()
            })
        })
        .collect::<Result<_, CliError>>()?;
    let out = args.optional("out").unwrap_or("BENCH_heterogeneity.json");
    Ok((plans, out.to_string()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (plans, out) = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\nusage:\n{}", render_usage("ext_heterogeneity", USAGE));
            return ExitCode::from(2);
        }
    };

    // Every plan shares everything but its class mix.
    fn mix(plan: &RunPlan) -> &CapacityClassPlan {
        plan.classes.as_ref().expect("one mix per plan")
    }
    println!(
        "ext-G — heterogeneity: N = {}, d = {}, zipf s = {}, seed {}, {}\n",
        plans[0].scheme.n,
        plans[0].scheme.d,
        mix(&plans[0]).zipf_exponent,
        mix(&plans[0]).seed,
        plans[0].label()
    );
    let mut reports: Vec<HeterogeneityReport> = Vec::new();
    for plan in &plans {
        match run_heterogeneity(plan) {
            Ok(r) => reports.push(r),
            Err(e) => {
                eprintln!("heterogeneity run `{}` failed: {e}", mix(plan));
                return ExitCode::FAILURE;
            }
        }
    }

    let rows: Vec<_> = reports
        .iter()
        .flat_map(|rep| rep.per_class.iter().map(move |c| (rep, c)))
        .collect();
    println!(
        "{}",
        render_table(
            &rows,
            &[
                ("mix", &|(rep, _)| rep.classes.clone()),
                ("class", &|(_, c)| c.class.clone()),
                ("cap", &|(_, c)| c.capacity.to_string()),
                ("nodes", &|(_, c)| c.nodes.to_string()),
                ("P(interrupt) @ h·d", &|(_, c)| {
                    format!("{:.4}", c.qoe_wait_at_bound.interruption_probability)
                }),
                ("stall slots", &|(_, c)| {
                    format!("{:.2}", c.qoe_wait_at_bound.mean_stall_slots)
                }),
                ("smoothness", &|(_, c)| {
                    format!("{:.4}", c.qoe_wait_at_bound.smoothness)
                }),
            ]
        )
    );
    for rep in &reports {
        println!(
            "mix `{}`: max delay {} (h·d bound {}), wall {} ms",
            rep.classes, rep.max_delay, rep.bound_h_d, rep.wall_ms
        );
    }

    println!();
    if let Err(e) = write_report(&out, &reports) {
        eprintln!("cannot write --out `{out}`: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
