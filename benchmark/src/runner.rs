//! The parent side: set a workload up, run its timed units as fresh
//! worker processes, check what they print, and turn the samples into
//! the end-to-end metrics.
//!
//! Closed loop, one client: the next worker starts when the previous one
//! has exited. A worker is timed from spawn to exit, because a CLI user
//! pays process start, cold memory and teardown on every command.

use crate::check;
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::report::WorkloadResult;
use crate::stats;
use crate::worker::VMHWM_LABEL;
use crate::workloads::{steps, work_per_unit, Action, Step, Workload, REPORT_LABELS};
use std::io;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Set-ups before each timed unit: a unit of a second or two leaves room
/// for only a dozen units in a run, too few set-ups for a steady minimum.
const SETUPS_PER_UNIT: usize = 3;

/// Failure messages kept per workload (all are counted).
const KEPT_FAILURES: usize = 8;

pub struct Harness {
    /// This executable: workers are re-executions of it.
    pub exe: PathBuf,
    /// `benchmark/out`: metrics files, socket files, traces, results.
    pub out: PathBuf,
    pub seed: u64,
}

struct Invocation {
    wall_ms: f64,
    stdout: String,
    failure: Option<String>,
}

impl Harness {
    /// Run one worker to completion and time it from spawn to exit.
    fn invoke(&self, args: &[String]) -> Invocation {
        let t0 = Instant::now();
        let output = Command::new(&self.exe)
            .arg("worker")
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::piped())
            .output();
        let wall_ms = t0.elapsed().as_nanos() as f64 / 1e6;
        match output {
            Ok(o) => Invocation {
                wall_ms,
                failure: (!o.status.success()).then(|| {
                    format!(
                        "`{}` exited with {}: {}",
                        args.join(" "),
                        o.status,
                        String::from_utf8_lossy(&o.stderr).trim()
                    )
                }),
                stdout: String::from_utf8_lossy(&o.stdout).into_owned(),
            },
            Err(e) => Invocation {
                wall_ms,
                stdout: String::new(),
                failure: Some(format!("cannot spawn worker: {e}")),
            },
        }
    }

    fn metrics_file(&self) -> String {
        self.out
            .join(format!("metrics-{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    fn worker_args(&self, step: &Step) -> Vec<String> {
        match step.cli_argv(&self.metrics_file()) {
            Some(argv) => std::iter::once("cli".to_string()).chain(argv).collect(),
            None => vec![
                "pump".to_string(),
                self.out.to_string_lossy().into_owned(),
                self.seed.to_string(),
            ],
        }
    }
}

/// One workload's samples so far.
pub struct Run {
    pub workload: &'static Workload,
    steps: Vec<Step>,
    setups_s: Vec<f64>,
    /// Spawn→exit of every timed invocation, per step of the unit.
    step_wall_ms: Vec<Vec<f64>>,
    /// The same, summed per unit.
    unit_wall_ms: Vec<f64>,
    peak_rss_kib: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Run {
    pub fn new(workload: &'static Workload) -> Run {
        Run {
            workload,
            steps: Vec::new(),
            setups_s: Vec::new(),
            step_wall_ms: Vec::new(),
            unit_wall_ms: Vec::new(),
            peak_rss_kib: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// One set-up: everything between starting the workload and a timed
    /// unit. It generates the inputs from the seed, makes the output
    /// directory and runs one untimed worker (`help`), which leaves the
    /// executable resident. Every timed unit is preceded by
    /// [`SETUPS_PER_UNIT`] set-ups, so the set-ups of a run are spread over
    /// the same seconds as its samples; `setup_s` is the fastest of them.
    fn setup(&mut self, h: &Harness) -> io::Result<()> {
        let t0 = Instant::now();
        std::fs::create_dir_all(&h.out)?;
        self.steps = steps(self.workload.name, h.seed);
        let warm_up = h.invoke(&["cli".to_string(), "help".to_string()]);
        self.setups_s.push(t0.elapsed().as_secs_f64());
        self.record(
            warm_up
                .failure
                .map(|why| format!("{}/warm-up: {why}", self.workload.name)),
        );
        Ok(())
    }

    /// Count one checked invocation.
    fn record(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(why);
            }
        }
    }

    /// Set up, then run one timed unit and check it; returns the unit's
    /// wall time in milliseconds.
    pub fn sample(&mut self, h: &Harness) -> io::Result<f64> {
        for _ in 0..SETUPS_PER_UNIT {
            self.setup(h)?;
        }
        self.step_wall_ms.resize(self.steps.len(), Vec::new());
        let mut unit_ms = 0.0;
        let mut simulate_stdout = String::new();
        for (i, step) in self.steps.clone().iter().enumerate() {
            let inv = h.invoke(&h.worker_args(step));
            self.step_wall_ms[i].push(inv.wall_ms);
            unit_ms += inv.wall_ms;
            let mut problems: Vec<String> = inv.failure.into_iter().collect();
            problems.extend(check::mismatches(&inv.stdout, step.pins));
            if step.action == Action::Report {
                problems.extend(check::report_mismatches(
                    &simulate_stdout,
                    &inv.stdout,
                    &REPORT_LABELS,
                ));
            }
            match check::field(&inv.stdout, VMHWM_LABEL).and_then(|v| v.parse::<u64>().ok()) {
                Some(kib) => self.peak_rss_kib = self.peak_rss_kib.max(kib),
                None => problems.push("worker did not report its VmHWM".to_string()),
            }
            self.record((!problems.is_empty()).then(|| {
                format!(
                    "{}/{}: {}",
                    self.workload.name,
                    step.key,
                    problems.join("; ")
                )
            }));
            if matches!(step.action, Action::Simulate { .. }) {
                simulate_stdout = inv.stdout;
            } else if step.action == Action::Report {
                let _ = std::fs::remove_file(h.metrics_file());
            }
        }
        self.unit_wall_ms.push(unit_ms);
        Ok(unit_ms)
    }

    pub fn samples(&self) -> usize {
        self.unit_wall_ms.len()
    }

    /// The sum over the unit's steps of each step's fastest invocation.
    fn wall_ms_min(&self) -> f64 {
        self.step_wall_ms.iter().map(|w| stats::min(w)).sum()
    }

    /// The end-to-end metrics. The timing is built from fastest
    /// invocations: on a shared machine the minimum repeats within a few
    /// percent where the median drifts by tens (README, "Why the
    /// minimum").
    fn end_to_end(&self) -> Values {
        let wall_ms_min = self.wall_ms_min();
        let mut v = Values::default();
        v.set("wall_ms_min", wall_ms_min);
        v.set(
            "work_per_s",
            work_per_unit(self.workload, &self.steps) as f64 / (wall_ms_min / 1e3),
        );
        v.set("peak_rss_mib", self.peak_rss_kib as f64 / 1024.0);
        // The fastest set-up, for the reason the timing is a minimum:
        // between consecutive sets of five runs the median set-up moved
        // by 25 %, with the machine's phases.
        v.set("setup_s", stats::min(&self.setups_s));
        v
    }

    /// The traced pass, in a fresh worker, plus the diagnostics only the
    /// parent knows.
    fn per_layer(&mut self, h: &Harness, loadavg_start: f64) -> Values {
        let inv = h.invoke(&[
            "trace".to_string(),
            self.workload.name.to_string(),
            h.seed.to_string(),
            h.out.to_string_lossy().into_owned(),
        ]);
        let mut v = Values::default();
        for line in inv.stdout.lines() {
            if let Some((name, value)) = line
                .strip_prefix("metric ")
                .and_then(|rest| rest.split_once(' '))
            {
                if let Ok(value) = value.parse() {
                    v.set(name, value);
                }
            }
        }
        self.record(
            inv.failure
                .map(|why| format!("{}/trace: {why}", self.workload.name)),
        );
        let wall_ms_min = self.wall_ms_min();
        if v.get("cli.run.ms") > 0.0 {
            // What a fresh process costs beyond the warm in-process call:
            // exec, dynamic linking, first-touch page faults, exit.
            v.set("cli.cold.ms", wall_ms_min - v.get("cli.run.ms"));
        }
        v.set(
            "harness.wall_ms_p25",
            stats::quantile(&self.unit_wall_ms, 0.25),
        );
        v.set("harness.wall_ms_p50", stats::median(&self.unit_wall_ms));
        v.set(
            "harness.wall_ms_p75",
            stats::quantile(&self.unit_wall_ms, 0.75),
        );
        v.set("harness.samples", self.unit_wall_ms.len() as f64);
        v.set("harness.loadavg_start", loadavg_start);
        v
    }

    /// Close the run: every end-to-end metric, and with `traced` every
    /// per-layer metric too.
    pub fn finish(mut self, h: &Harness, traced: bool, loadavg_start: f64) -> WorkloadResult {
        let end_to_end = self.end_to_end().to_metrics(&END_TO_END);
        let per_layer = if traced {
            self.per_layer(h, loadavg_start).to_metrics(&PER_LAYER)
        } else {
            Vec::new()
        };
        for f in &self.failures {
            eprintln!("FAILED {f}");
        }
        WorkloadResult {
            name: self.workload.name.to_string(),
            attempted: self.attempted,
            failed: self.failed,
            end_to_end,
            per_layer,
        }
    }
}

/// Under the current directory, which `run.sh` makes the repository
/// root. Relative on purpose: a Unix socket path holds about a hundred
/// bytes, and a checkout can sit anywhere.
pub const OUT_DIR: &str = "benchmark/out";
