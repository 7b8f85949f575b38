//! What a run leaves behind: the environment block, the results file,
//! and the comparison of two results files against `BENCHMARK.json`'s
//! bounds.

use crate::metrics::Metric;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::process::Command;

/// Where and how the numbers were taken.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Env {
    pub nproc: u64,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
    pub git_commit: String,
    pub seed: u64,
    /// Interleaved rounds (`run.sh` without `--workload`), else 0.
    pub rounds: u64,
    /// Seconds of timed units per workload (`--workload` mode), else 0.
    pub seconds: u64,
    /// 1-minute load average when the run started and ended.
    pub loadavg_start: f64,
    pub loadavg_end: f64,
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

impl Env {
    /// Capture the environment at the start of a run.
    pub fn capture(seed: u64, rounds: u64, seconds: u64) -> Env {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        let load = loadavg();
        Env {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            cpu_model,
            kernel,
            rustc: first_line_of("rustc", &["-V"]),
            git_commit: first_line_of("git", &["rev-parse", "HEAD"]),
            seed,
            rounds,
            seconds,
            loadavg_start: load,
            loadavg_end: load,
        }
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "environment: nproc {} | {} | kernel {} | {} | commit {} | seed {} | ",
            self.nproc, self.cpu_model, self.kernel, self.rustc, self.git_commit, self.seed
        );
        if self.rounds > 0 {
            let _ = write!(out, "{} rounds | ", self.rounds);
        } else {
            let _ = write!(out, "{} s per workload | ", self.seconds);
        }
        let _ = writeln!(
            out,
            "load {:.2} → {:.2}",
            self.loadavg_start, self.loadavg_end
        );
        if self.loadavg_start > 0.5 {
            let _ = writeln!(
                out,
                "warning: 1-minute load average was {:.2} at start (> 0.5): timings include \
                 other processes' noise",
                self.loadavg_start
            );
        }
        out
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub name: String,
    /// Worker invocations made and checked, warm-ups included.
    pub attempted: u64,
    /// Invocations that exited non-zero or printed a wrong pinned field.
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl WorkloadResult {
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} — attempted {}, failed {}, fail_frac {}\n",
            self.name,
            self.attempted,
            self.failed,
            self.fail_frac()
        );
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            let _ = writeln!(out, "  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
        out
    }

    /// The line the benchmark contract asks for: `metrics` holds the
    /// end-to-end values of an untraced run or the per-layer values of a
    /// traced one.
    pub fn contract_line(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// A results file: `run.sh` writes one, `run.sh --compare` reads two.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Results {
    pub env: Env,
    pub workloads: Vec<WorkloadResult>,
}

impl Results {
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("results serialize")
    }

    pub fn from_json(text: &str) -> Result<Results, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct WorkloadDecl {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct EndToEndDecl {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Share of the baseline by which the metric may get worse.
    pub bound: f64,
}

#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct LayerDecl {
    pub name: String,
    pub unit: String,
    pub better: String,
}

/// `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct BenchmarkSpec {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadDecl>,
    pub end_to_end: Vec<EndToEndDecl>,
    pub per_layer: Vec<LayerDecl>,
}

impl BenchmarkSpec {
    pub fn from_json(text: &str) -> Result<BenchmarkSpec, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

/// Compare results `b` against baseline `a`: one row per (workload,
/// end-to-end metric) with both values, the change and the bound, plus a
/// `fail_frac` row that any increase breaches. Returns the table with its
/// verdict line and the number of breaches.
pub fn compare(a: &Results, b: &Results, spec: &BenchmarkSpec) -> (String, usize) {
    let mut out = format!(
        "{:<16} {:<13} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "A", "B", "change", "bound"
    );
    let mut breaches = 0;
    let mut rows = 0;
    for wa in &a.workloads {
        rows += spec.end_to_end.len() + 1;
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            let _ = writeln!(out, "{:<16} missing from B", wa.name);
            breaches += 1;
            continue;
        };
        for decl in &spec.end_to_end {
            let value = |w: &WorkloadResult| {
                w.end_to_end
                    .iter()
                    .find(|m| m.name == decl.name)
                    .map(|m| m.value)
            };
            let (Some(va), Some(vb)) = (value(wa), value(wb)) else {
                let _ = writeln!(out, "{:<16} {:<13} missing", wa.name, decl.name);
                breaches += 1;
                continue;
            };
            let change = (vb - va) / va;
            let worse = if decl.better == "lower" {
                change
            } else {
                -change
            };
            // A NaN (a zero baseline) is a breach, not a pass.
            let breach = worse.is_nan() || worse > decl.bound;
            breaches += usize::from(breach);
            let _ = writeln!(
                out,
                "{:<16} {:<13} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}%  {}",
                wa.name,
                decl.name,
                va,
                vb,
                change * 100.0,
                decl.bound * 100.0,
                if breach { "BREACH" } else { "ok" }
            );
        }
        let breach = wb.fail_frac() > wa.fail_frac();
        breaches += usize::from(breach);
        let _ = writeln!(
            out,
            "{:<16} {:<13} {:>14.4} {:>14.4} {:>9} {:>7}  {}",
            wa.name,
            "fail_frac",
            wa.fail_frac(),
            wb.fail_frac(),
            "",
            "0%",
            if breach { "BREACH" } else { "ok" }
        );
    }
    let _ = writeln!(out, "{breaches} breach(es) in {rows} comparisons");
    (out, breaches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use crate::workloads::WORKLOADS;

    fn sample(wall: f64, rate: f64, failed: u64) -> Results {
        let metric = |name: &str, value: f64, unit: &str| Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        };
        Results {
            env: Env::capture(7, 12, 0),
            workloads: vec![WorkloadResult {
                name: "des_plain".into(),
                attempted: 30,
                failed,
                end_to_end: vec![
                    metric("wall_ms_min", wall, "ms"),
                    metric("work_per_s", rate, "1/s"),
                    metric("peak_rss_mib", 99.25, "MiB"),
                    metric("setup_s", 0.5, "s"),
                ],
                per_layer: vec![metric("des.events_processed", 5_508_131.0, "count")],
            }],
        }
    }

    fn spec() -> BenchmarkSpec {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        BenchmarkSpec::from_json(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    #[test]
    fn results_round_trip_through_json() {
        let r = sample(412.5, 6.68e6, 0);
        assert_eq!(Results::from_json(&r.to_json()).unwrap(), r);
        assert!(Results::from_json("{\"env\": 3}").is_err());
    }

    #[test]
    fn contract_line_carries_the_asked_keys() {
        let r = &sample(412.5, 6.68e6, 1).workloads[0];
        let line = r.contract_line(false);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 30, \"failed\": 1, "));
        assert!(line.contains("\"wall_ms_min\": {\"value\": 412.5, \"unit\": \"ms\"}"));
        assert!(!line.contains("des.events_processed"));
        assert!(r.contract_line(true).contains("\"des.events_processed\""));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn compare_passes_within_bounds_and_flags_each_kind_of_breach() {
        let spec = spec();
        let base = sample(400.0, 6.9e6, 0);
        let (table, breaches) = compare(&base, &sample(410.0, 6.8e6, 0), &spec);
        assert_eq!(breaches, 0, "{table}");
        // Slower than the bound allows, on a lower-is-better metric.
        let (table, breaches) = compare(&base, &sample(600.0, 6.9e6, 0), &spec);
        assert_eq!(breaches, 1, "{table}");
        assert!(table.contains("BREACH"));
        // Less work per second, on a higher-is-better metric.
        assert_eq!(compare(&base, &sample(400.0, 4.0e6, 0), &spec).1, 1);
        // Faster is never a breach.
        assert_eq!(compare(&base, &sample(200.0, 9.9e6, 0), &spec).1, 0);
        // Any new failure is.
        assert_eq!(compare(&base, &sample(400.0, 6.9e6, 1), &spec).1, 1);
    }

    #[test]
    fn benchmark_json_declares_what_the_harness_reports() {
        let spec = spec();
        let declared: Vec<(&str, &str)> = spec
            .end_to_end
            .iter()
            .map(|d| (&*d.name, &*d.unit))
            .collect();
        let reported: Vec<(&str, &str)> = END_TO_END.iter().map(|d| (d.name, d.unit)).collect();
        assert_eq!(declared, reported);
        let declared: Vec<(&str, &str)> = spec
            .per_layer
            .iter()
            .map(|d| (&*d.name, &*d.unit))
            .collect();
        let reported: Vec<(&str, &str)> = PER_LAYER.iter().map(|d| (d.name, d.unit)).collect();
        assert_eq!(declared, reported);
        let declared: Vec<&str> = spec.workloads.iter().map(|w| &*w.name).collect();
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(declared, known);
        assert_eq!(spec.paths, ["benchmark"]);
        for d in &spec.end_to_end {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "{} bound", d.name);
            assert!(matches!(&*d.better, "lower" | "higher"), "{}", d.name);
        }
        for d in &spec.per_layer {
            assert!(matches!(&*d.better, "lower" | "higher"), "{}", d.name);
        }
        for w in &spec.workloads {
            assert!(
                w.why.chars().count() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
        }
    }
}
