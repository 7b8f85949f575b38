//! Dependency-free timing harness behind the committed bench suites
//! (criterion is unavailable offline), and what every recorder shares:
//! the build label and the JSON report writer.

use std::time::{Duration, Instant};

/// `debug` or `release` — recorded in every report, since only release
/// timings are representative.
pub fn build_label() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Write `report` to `path` as pretty, newline-terminated JSON, and say
/// so.
pub fn write_report<T: serde::Serialize>(path: &str, report: &T) {
    let json = serde_json::to_string_pretty(report).expect("serializable");
    std::fs::write(path, json + "\n").unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// One benchmark measurement: per-iteration wall times over `samples`
/// runs after a warmup iteration.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark label.
    pub name: String,
    /// Per-iteration wall time, one entry per sample.
    pub times: Vec<Duration>,
}

impl Measurement {
    /// Fastest observed iteration — the least noisy single-thread
    /// estimator of the true cost.
    pub fn min(&self) -> Duration {
        self.times.iter().copied().min().unwrap_or(Duration::ZERO)
    }

    /// Mean iteration time.
    pub fn mean(&self) -> Duration {
        if self.times.is_empty() {
            return Duration::ZERO;
        }
        self.times.iter().sum::<Duration>() / self.times.len() as u32
    }
}

/// Time `f` over `samples` iterations (plus one untimed warmup), print a
/// one-line summary, and return the measurement.
///
/// The closure's return value is passed through `std::hint::black_box` so
/// the computation cannot be optimized away.
pub fn bench<R>(name: &str, samples: usize, mut f: impl FnMut() -> R) -> Measurement {
    bench_prepared(name, samples, || (), |()| f())
}

/// Like [`bench()`], but each iteration first runs `setup` *untimed* and
/// only `run` is measured. Used when per-iteration state construction
/// (e.g. building a fresh scheme) would otherwise dominate the timed
/// region.
pub fn bench_prepared<S, R>(
    name: &str,
    samples: usize,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(S) -> R,
) -> Measurement {
    std::hint::black_box(run(setup()));
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples.max(1) {
        let state = setup();
        let start = Instant::now();
        std::hint::black_box(run(state));
        times.push(start.elapsed());
    }
    let m = Measurement {
        name: name.to_string(),
        times,
    };
    println!(
        "{:<44} min {:>12?}   mean {:>12?}   ({} samples)",
        m.name,
        m.min(),
        m.mean(),
        m.times.len()
    );
    m
}

/// Process-wide peak resident set size (`VmHWM` from
/// `/proc/self/status`), in bytes. `None` off Linux or when the file is
/// unreadable. A high-water mark: run workloads in increasing size
/// order for per-workload readings to be meaningful.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_samples() {
        let m = bench("noop", 3, || 1 + 1);
        assert_eq!(m.times.len(), 3);
        assert!(m.min() <= m.mean() || m.times.len() == 1);
    }

    #[test]
    fn bench_prepared_times_only_the_run_closure() {
        let mut setups = 0u32;
        let m = bench_prepared("prepared", 2, || setups += 1, |_| 7u32);
        assert_eq!(m.times.len(), 2);
        // Warmup + two samples each call setup once.
        assert_eq!(setups, 3);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes().unwrap_or(0) > 0);
        }
    }
}
