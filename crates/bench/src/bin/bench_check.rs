//! Bench-regression gate: re-run a reduced tier of every committed bench
//! suite and compare against the checked-in baselines.
//!
//! Reads `BENCH_engine.json`, `BENCH_des.json` and `BENCH_recovery.json`
//! from the current directory (the repo root under `ci.sh`), re-runs the
//! same workload definitions (`clustream_bench::suites`) with a reduced
//! sample count, and fails when
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
    des_queues, des_workloads, engine_workloads, recovery_tiers, recovery_trace_for,
    run_recovery_tier, scale_workloads, DesReport, EngineReport, RecoveryReport, MIN_MEGA_SPEEDUP,
    RECOVERY_RATES,
};
use clustream_bench::timing::{bench, bench_prepared};
use clustream_des::DesEngine;
use clustream_sim::{diff_fields, FastEngine, MegaEngine, Simulator};
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
    let mut engine = FastEngine::new();
    for w in engine_workloads() {
        let ctx = format!("engine/{}", w.name);
        let Some(base) = baseline.rows.iter().find(|r| r.workload == w.name) else {
            c.fail(format!("{ctx}: no baseline row in BENCH_engine.json"));
            continue;
        };
        let cfg = w.sim();
        let reference = Simulator::run(w.make().as_mut(), &cfg).unwrap();
        let fast = engine.run(w.make().as_mut(), &cfg).unwrap();
        let diffs = diff_fields(&reference, &fast);
        if !diffs.is_empty() {
            c.fail(format!("{ctx}: engines diverge on {diffs:?}"));
        }
        c.exact(&ctx, "slots_run", base.slots_run, reference.slots_run);
        c.exact(
            &ctx,
            "transmissions",
            base.transmissions,
            reference.total_transmissions,
        );
        if c.timing {
            let m_ref = bench(&format!("{}_reference", w.name), REDUCED_SAMPLES, || {
                Simulator::run(w.make().as_mut(), &cfg).unwrap().slots_run
            });
            let m_fast = bench(&format!("{}_fast", w.name), REDUCED_SAMPLES, || {
                engine.run(w.make().as_mut(), &cfg).unwrap().slots_run
            });
            let slots = reference.slots_run as f64;
            c.floor(
                &ctx,
                "reference_slots_per_sec",
                base.reference_slots_per_sec,
                slots / m_ref.min().as_secs_f64(),
            );
            c.floor(
                &ctx,
                "fast_slots_per_sec",
                base.fast_slots_per_sec,
                slots / m_fast.min().as_secs_f64(),
            );
        }
    }
}

fn check_des(c: &mut Checker, baseline: &DesReport) {
    let mut fast = FastEngine::new();
    for w in des_workloads() {
        let sim = w.sim();
        let reference = fast.run(w.make().as_mut(), &sim).unwrap();
        for queue in des_queues() {
            let ctx = format!("des/{}/{}", w.name, queue.label());
            let Some(base) = baseline
                .throughput
                .iter()
                .find(|r| r.workload == w.name && r.queue == queue.label())
            else {
                c.fail(format!("{ctx}: no baseline row in BENCH_des.json"));
                continue;
            };
            let des_cfg = w.des(queue);
            let mut engine = DesEngine::new();
            let des = engine.run(w.make().as_mut(), &des_cfg).unwrap();
            let diffs = diff_fields(&reference, &des);
            if !diffs.is_empty() {
                c.fail(format!("{ctx}: DES diverges from slot engine on {diffs:?}"));
            }
            let events = engine.stats().events_processed;
            c.exact(&ctx, "slots_run", base.slots_run, reference.slots_run);
            c.exact(&ctx, "events", base.events, events);
            if c.timing {
                let m_des = bench(
                    &format!("{}_des_{}", w.name, queue.label()),
                    REDUCED_SAMPLES,
                    || engine.run(w.make().as_mut(), &des_cfg).unwrap().slots_run,
                );
                c.floor(
                    &ctx,
                    "events_per_sec",
                    base.events_per_sec,
                    events as f64 / m_des.min().as_secs_f64(),
                );
            }
        }
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
            let m_fast = bench_prepared(
                &format!("{}_fast", w.name),
                REDUCED_SAMPLES,
                || w.make(),
                |mut s| FastEngine::new().run(s.as_mut(), &cfg).unwrap().slots_run,
            );
            let m_mega = bench_prepared(
                &format!("{}_mega", w.name),
                REDUCED_SAMPLES,
                || w.make(),
                |mut s| MegaEngine::new().run(s.as_mut(), &cfg).unwrap().slots_run,
            );
            let speedup = m_fast.min().as_secs_f64() / m_mega.min().as_secs_f64();
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
                mega.slots_run as f64 / m_mega.min().as_secs_f64(),
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
            c.exact(&ctx, "departures", base.departures, got.departures);
            c.exact(
                &ctx,
                "missing_packets",
                base.missing_packets,
                got.missing_packets,
            );
            c.exact(
                &ctx,
                "failures_detected",
                base.failures_detected,
                got.failures_detected,
            );
            c.exact(
                &ctx,
                "repairs_committed",
                base.repairs_committed,
                got.repairs_committed,
            );
            c.exact(
                &ctx,
                "displaced_total",
                base.displaced_total,
                got.displaced_total,
            );
            c.exact(&ctx, "nacks_sent", base.nacks_sent, got.nacks_sent);
            c.exact(
                &ctx,
                "retransmissions",
                base.retransmissions,
                got.retransmissions,
            );
            c.exact(
                &ctx,
                "repaired_packets",
                base.repaired_packets,
                got.repaired_packets,
            );
            c.exact(
                &ctx,
                "abandoned_packets",
                base.abandoned_packets,
                got.abandoned_packets,
            );
            c.exact(
                &ctx,
                "control_messages",
                base.control_messages,
                got.control_messages,
            );
            c.exact_f64(
                &ctx,
                "delivered_fraction",
                base.delivered_fraction,
                got.delivered_fraction,
            );
            c.exact_f64(
                &ctx,
                "control_overhead",
                base.control_overhead,
                got.control_overhead,
            );
            c.exact_f64(
                &ctx,
                "recovery_latency_avg_slots",
                base.recovery_latency_avg_slots,
                got.recovery_latency_avg_slots,
            );
            c.exact_f64(
                &ctx,
                "recovery_latency_max_slots",
                base.recovery_latency_max_slots,
                got.recovery_latency_max_slots,
            );
        }
    }
}

fn main() -> ExitCode {
    let mut tolerance = 0.25_f64;
    let mut suite = "default".to_string();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--tolerance" => {
                let Some(v) = argv.next().and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("--tolerance needs a numeric value, e.g. --tolerance 0.25");
                    return ExitCode::from(2);
                };
                tolerance = v;
            }
            "--suite" => {
                let Some(v) = argv.next() else {
                    eprintln!("--suite needs a value: engine, des, recovery, scale or all");
                    return ExitCode::from(2);
                };
                if !["engine", "des", "recovery", "scale", "all"].contains(&v.as_str()) {
                    eprintln!(
                        "unknown suite `{v}`; valid suites: engine, des, recovery, scale, all"
                    );
                    return ExitCode::from(2);
                }
                suite = v;
            }
            other => {
                eprintln!(
                    "unknown argument `{other}`; usage: bench_check [--tolerance FRAC] \
                     [--suite engine|des|recovery|scale|all]"
                );
                return ExitCode::from(2);
            }
        }
    }
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
