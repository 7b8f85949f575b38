//! Bench-regression gate: re-run a reduced tier of every committed bench
//! suite and compare against the checked-in baselines.
//!
//! Reads `BENCH_engine.json`, `BENCH_des.json` and `BENCH_recovery.json`
//! from the current directory (the repo root under `ci.sh`), takes the
//! same measurements (`clustream_bench::suites`) at a reduced sample
//! count, and fails when
//!
//! * a correctness-derived field changes at all — slot counts,
//!   transmission/event counts and every deterministic recovery counter
//!   are compared exactly;
//! * a throughput number falls below `baseline * (1 - tolerance)`
//!   (`--tolerance`, default 0.25). Throughput is a one-sided floor:
//!   running faster than the baseline is never a failure.
//!
//! Wall-clock fields (`wall_ms`, `*_min_ns`) are never compared, and the
//! jitter sweep is validated from the baseline alone (its zero-jitter row
//! must be slot-faithful) rather than re-run. In debug builds the
//! throughput floors are skipped — the baselines are release numbers.
//!
//! `--suite engine|des|recovery|scale|all` selects which suites run;
//! the default is the engine+des+recovery trio. The `scale` suite
//! re-runs the scaling rows of `BENCH_engine.json`: exact fields on
//! every row, plus — on the gated rows — a hard `MIN_MEGA_SPEEDUP`
//! floor on the mega engine's measured speedup over the fast engine.

use clustream_bench::suites::{
    measure_des, measure_engine, recovery_tiers, recovery_trace_for, run_recovery_tier,
    scale_workloads, time_fast_and_mega, DesReport, EngineReport, RecoveryReport, MIN_MEGA_SPEEDUP,
    RECOVERY_RATES,
};
use clustream_plan::{choice, render_usage, ArgMap, CliError, Usage};
use clustream_sim::{diff_fields, FastEngine, MegaEngine};
use std::process::ExitCode;

/// Timing samples per workload for the reduced re-run tier.
const REDUCED_SAMPLES: usize = 2;

struct Checker {
    tolerance: f64,
    timing: bool,
    checks: usize,
    failures: Vec<String>,
}

impl Checker {
    fn exact<T: PartialEq + std::fmt::Display>(&mut self, ctx: &str, field: &str, base: T, got: T) {
        self.checks += 1;
        if base != got {
            self.failures.push(format!(
                "{ctx}: {field} changed: baseline {base}, measured {got}"
            ));
        }
    }

    /// Deterministic float fields (ratios of exact counters); a tiny
    /// epsilon absorbs nothing but representation noise.
    fn exact_f64(&mut self, ctx: &str, field: &str, base: f64, got: f64) {
        self.checks += 1;
        if (base - got).abs() > 1e-9 {
            self.failures.push(format!(
                "{ctx}: {field} changed: baseline {base}, measured {got}"
            ));
        }
    }

    /// One-sided throughput floor: measured must reach
    /// `baseline * (1 - tolerance)`.
    fn floor(&mut self, ctx: &str, field: &str, base: f64, got: f64) {
        if !self.timing {
            return;
        }
        self.checks += 1;
        let floor = base * (1.0 - self.tolerance);
        if got < floor {
            self.failures.push(format!(
                "{ctx}: {field} regressed: baseline {base:.0}, floor {floor:.0}, measured {got:.0}"
            ));
        }
    }

    fn fail(&mut self, msg: String) {
        self.checks += 1;
        self.failures.push(msg);
    }
}

fn load<T: serde::Deserialize>(path: &str) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn check_engine(c: &mut Checker, baseline: &EngineReport) {
    for got in measure_engine(REDUCED_SAMPLES) {
        let ctx = format!("engine/{}", got.workload);
        let Some(base) = baseline.rows.iter().find(|r| r.workload == got.workload) else {
            c.fail(format!("{ctx}: no baseline row in BENCH_engine.json"));
            continue;
        };
        c.exact(&ctx, "slots_run", base.slots_run, got.slots_run);
        c.exact(&ctx, "transmissions", base.transmissions, got.transmissions);
        c.floor(
            &ctx,
            "reference_slots_per_sec",
            base.reference_slots_per_sec,
            got.reference_slots_per_sec,
        );
        c.floor(
            &ctx,
            "fast_slots_per_sec",
            base.fast_slots_per_sec,
            got.fast_slots_per_sec,
        );
    }
}

fn check_des(c: &mut Checker, baseline: &DesReport) {
    for got in measure_des(REDUCED_SAMPLES) {
        let ctx = format!("des/{}/{}", got.workload, got.queue);
        let Some(base) = baseline
            .throughput
            .iter()
            .find(|r| r.workload == got.workload && r.queue == got.queue)
        else {
            c.fail(format!("{ctx}: no baseline row in BENCH_des.json"));
            continue;
        };
        c.exact(&ctx, "slots_run", base.slots_run, got.slots_run);
        c.exact(&ctx, "events", base.events, got.events);
        c.floor(
            &ctx,
            "events_per_sec",
            base.events_per_sec,
            got.events_per_sec,
        );
    }

    // The jitter sweep is expensive and statistical, so it is validated
    // from the committed baseline instead of re-run: the zero-jitter row
    // must exist and must be exactly slot-faithful.
    match baseline.jitter_sweep.first() {
        None => c.fail("des/jitter_sweep: baseline has no rows".to_string()),
        Some(row0) => {
            c.exact_f64(
                "des/jitter_sweep",
                "row0.jitter_slots",
                0.0,
                row0.jitter_slots,
            );
            c.exact_f64(
                "des/jitter_sweep",
                "row0.delay_inflation",
                1.0,
                row0.delay_inflation,
            );
        }
    }
}

fn check_scale(c: &mut Checker, baseline: &EngineReport) {
    for w in scale_workloads() {
        let ctx = format!("scale/{}", w.name);
        let Some(base) = baseline.scaling.iter().find(|r| r.workload == w.name) else {
            c.fail(format!(
                "{ctx}: no baseline scaling row in BENCH_engine.json"
            ));
            continue;
        };
        let cfg = w.sim();
        let mega = MegaEngine::new().run(w.make().as_mut(), &cfg).unwrap();
        c.exact(&ctx, "slots_run", base.slots_run, mega.slots_run);
        c.exact(
            &ctx,
            "transmissions",
            base.transmissions,
            mega.total_transmissions,
        );
        if !w.gate {
            continue;
        }
        // Gated rows additionally cross-check against the fast engine
        // and — in timing builds — hold the mega engine to its speedup
        // floor, engine-only (scheme construction untimed).
        let fast = FastEngine::new().run(w.make().as_mut(), &cfg).unwrap();
        let diffs = diff_fields(&fast, &mega);
        if !diffs.is_empty() {
            c.fail(format!("{ctx}: fast and mega diverge on {diffs:?}"));
        }
        if c.timing {
            let (t_fast, t_mega) = time_fast_and_mega(&w, REDUCED_SAMPLES);
            let speedup = t_fast.as_secs_f64() / t_mega.as_secs_f64();
            c.checks += 1;
            if speedup < MIN_MEGA_SPEEDUP {
                c.failures.push(format!(
                    "{ctx}: mega_speedup floor missed: required {MIN_MEGA_SPEEDUP:.2}x, \
                     measured {speedup:.2}x"
                ));
            }
            c.floor(
                &ctx,
                "mega_slots_per_sec",
                base.mega_slots_per_sec,
                mega.slots_run as f64 / t_mega.as_secs_f64(),
            );
        }
    }
}

fn check_recovery(c: &mut Checker, baseline: &RecoveryReport) {
    for &rate in &RECOVERY_RATES {
        let trace = recovery_trace_for(rate);
        for (mode, rec) in recovery_tiers() {
            let ctx = format!("recovery/{rate}/{mode}");
            let Some(base) = baseline
                .rows
                .iter()
                .find(|r| r.mode == mode && (r.churn_rate - rate).abs() < 1e-12)
            else {
                c.fail(format!("{ctx}: no baseline row in BENCH_recovery.json"));
                continue;
            };
            let got = run_recovery_tier(&trace, rate, mode, rec);
            // Every field but `wall_ms` is deterministic given the trace.
            macro_rules! fields {
                ($check:ident: $($field:ident),*) => {
                    $(c.$check(&ctx, stringify!($field), base.$field, got.$field);)*
                };
            }
            fields!(exact: departures, missing_packets, failures_detected, repairs_committed);
            fields!(exact: displaced_total, nacks_sent, retransmissions, repaired_packets);
            fields!(exact: abandoned_packets, control_messages);
            fields!(exact_f64: delivered_fraction, control_overhead);
            fields!(exact_f64: recovery_latency_avg_slots, recovery_latency_max_slots);
        }
    }
}

const USAGE: Usage = &["[--tolerance <FRAC>] [--suite <engine|des|recovery|scale|all>]"];

const SUITES: [&str; 5] = ["engine", "des", "recovery", "scale", "all"];

/// The throughput tolerance and the suite selection (`default` when
/// `--suite` is absent).
fn parse(argv: &[String]) -> Result<(f64, &'static str), CliError> {
    let args = ArgMap::parse(argv)?;
    args.check_known(USAGE)?;
    let suite = choice(&args, "suite", &SUITES.map(|s| (s, s))).map_err(|_| {
        CliError::Usage(format!(
            "unknown suite `{}`; valid suites: {}",
            args.optional("suite").unwrap_or_default(),
            SUITES.join(", ")
        ))
    })?;
    Ok((args.f64_or("tolerance", 0.25)?, suite.unwrap_or("default")))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (tolerance, suite) = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\nusage:\n{}", render_usage("bench_check", USAGE));
            return ExitCode::from(2);
        }
    };
    // The default set is the pre-scaling trio, so the full CI tier's
    // bench stage cost is unchanged; `scale` runs only when asked for.
    let on =
        |name: &str| suite == name || suite == "all" || (suite == "default" && name != "scale");

    let timing = !cfg!(debug_assertions);
    if !timing {
        eprintln!("warning: debug build — throughput floors skipped, exact checks only");
    }

    let mut c = Checker {
        tolerance,
        timing,
        checks: 0,
        failures: Vec::new(),
    };

    if on("engine") || on("scale") {
        match load::<EngineReport>("BENCH_engine.json") {
            Ok(baseline) => {
                if on("engine") {
                    check_engine(&mut c, &baseline);
                }
                if on("scale") {
                    check_scale(&mut c, &baseline);
                }
            }
            Err(e) => c.fail(e),
        }
    }
    if on("des") {
        match load::<DesReport>("BENCH_des.json") {
            Ok(baseline) => check_des(&mut c, &baseline),
            Err(e) => c.fail(e),
        }
    }
    if on("recovery") {
        match load::<RecoveryReport>("BENCH_recovery.json") {
            Ok(baseline) => check_recovery(&mut c, &baseline),
            Err(e) => c.fail(e),
        }
    }

    if c.failures.is_empty() {
        println!(
            "bench_check: {} checks against committed baselines, no regressions (tolerance {:.0}%)",
            c.checks,
            tolerance * 100.0
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench_check: {} of {} checks FAILED (tolerance {:.0}%):",
            c.failures.len(),
            c.checks,
            tolerance * 100.0
        );
        for f in &c.failures {
            eprintln!("  - {f}");
        }
        eprintln!("(if a throughput floor fails on a slower machine, raise --tolerance;");
        eprintln!(" if a correctness field changed intentionally, regenerate the BENCH_*.json");
        eprintln!(" baselines with the bench_engine / bench_des / bench_recovery binaries)");
        ExitCode::FAILURE
    }
}
