//! Shared definitions of the committed bench suites.
//!
//! The `bench_engine` / `bench_des` / `bench_recovery` binaries measure
//! these workloads and commit the results (`BENCH_engine.json`,
//! `BENCH_des.json`, `BENCH_recovery.json` at the repo root);
//! `bench_check` takes the *same* measurement at a reduced sample count
//! and fails when a throughput number regresses past tolerance or a
//! correctness-derived field (slot counts, transmission counts, the
//! deterministic recovery counters) changes at all. Keeping workload
//! tables, measurement loops and row schemas in one module is what
//! makes that comparison meaningful: both sides are guaranteed to run
//! the same simulations the same way.

use crate::timing::{bench, bench_prepared};
use clustream_core::Scheme;
use clustream_des::{DesConfig, DesEngine, QueueKind, TICKS_PER_SLOT};
use clustream_plan::{Family, RunPlan, Runtime, SchemeSpec};
use clustream_recovery::RecoveryConfig;
use clustream_sim::{diff_fields, FastEngine, MegaEngine, SimConfig, Simulator};
use clustream_workloads::{ChurnAction, ChurnTrace, ChurnTraceConfig};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// One named simulation workload of a bench suite.
pub struct Workload {
    /// Stable identifier, the join key against committed baseline rows.
    pub name: &'static str,
    /// Timing samples for the full bench run (reduced by `bench_check`).
    pub samples: usize,
    /// Scaling suite only: whether `bench_check --suite scale` re-times
    /// this row and holds it to [`MIN_MEGA_SPEEDUP`]. The largest rows
    /// are generate-time only — their exact fields are still checked,
    /// mega-only.
    pub gate: bool,
    /// What runs: the scheme and its tracked-packet window.
    pub plan: RunPlan,
}

impl Workload {
    fn new(name: &'static str, family: Family, n: usize, d: usize, track: u64) -> Workload {
        Workload {
            name,
            samples: 5,
            gate: false,
            plan: RunPlan::new(SchemeSpec::new(family, n, d), track),
        }
    }

    fn samples(mut self, samples: usize) -> Workload {
        self.samples = samples;
        self
    }

    /// A fresh scheme (engines mutate schemes, so every run gets its own
    /// instance).
    pub fn make(&self) -> Box<dyn Scheme> {
        self.plan
            .scheme
            .build()
            .expect("suite parameters are valid")
    }

    /// The slot-engine configuration.
    pub fn sim(&self) -> SimConfig {
        self.plan.sim_config()
    }

    /// The slot-faithful DES configuration on `queue`.
    pub fn des(&self, queue: QueueKind) -> DesConfig {
        RunPlan {
            runtime: Runtime::Des,
            queue: Some(queue),
            ..self.plan.clone()
        }
        .des_config()
    }
}

/// The reference-vs-fast slot-engine suite (`BENCH_engine.json`).
pub fn engine_workloads() -> Vec<Workload> {
    use Family::{Chain, Hypercube, MultiTree};
    vec![
        Workload::new("fig4_multitree_n2000_d3_track48", MultiTree, 2000, 3, 48).samples(10),
        Workload::new("fig4_multitree_n2000_d2_track48", MultiTree, 2000, 2, 48).samples(10),
        Workload::new("table1_multitree_n1023_d3_track64", MultiTree, 1023, 3, 64).samples(10),
        Workload::new("table1_hypercube_n1023_track64", Hypercube, 1023, 1, 64).samples(10),
        Workload::new("table1_chain_n1023_track8", Chain, 1023, 1, 8),
        Workload::new("scale_hypercube_n20000_track64", Hypercube, 20_000, 1, 64).samples(3),
    ]
}

/// Floor on the mega engine's speedup over the fast engine across the
/// gated scaling rows. Enforced by `bench_check --suite scale` exactly
/// like the wheel-vs-heap floor, timing-tier only.
pub const MIN_MEGA_SPEEDUP: f64 = 2.0;

/// The scaling suite (the `scaling` section of `BENCH_engine.json`): the
/// fast and mega engines on large multi-tree populations. Ordered by
/// increasing `n` so the peak-RSS high-water readings stay per-row
/// meaningful.
pub fn scale_workloads() -> Vec<Workload> {
    let row = |name, n, samples| Workload::new(name, Family::MultiTree, n, 3, 256).samples(samples);
    vec![
        row("scale_multitree_n1000_d3_track256", 1_000, 5),
        row("scale_multitree_n10000_d3_track256", 10_000, 4),
        Workload {
            gate: true,
            ..row("scale_multitree_n100000_d3_track256", 100_000, 3)
        },
        row("scale_multitree_n1000000_d3_track256", 1_000_000, 2),
    ]
}

/// The DES-throughput suite (`BENCH_des.json`).
pub fn des_workloads() -> Vec<Workload> {
    vec![
        Workload::new("multitree_n2000_d3_track48", Family::MultiTree, 2000, 3, 48),
        Workload::new("hypercube_n1023_track64", Family::Hypercube, 1023, 1, 64),
        Workload::new("chain_n1023_track8", Family::Chain, 1023, 1, 8).samples(3),
    ]
}

// ---------------------------------------------------------- row schemas

/// One engine-suite workload: both slot engines timed on it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineRow {
    pub workload: String,
    pub slots_run: u64,
    pub transmissions: u64,
    pub samples: usize,
    pub reference_min_ns: u64,
    pub fast_min_ns: u64,
    pub reference_slots_per_sec: f64,
    pub fast_slots_per_sec: f64,
    pub speedup: f64,
}

/// One scaling-suite workload: the fast and mega engines timed
/// engine-only (scheme construction excluded from the timed region).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleRow {
    pub workload: String,
    pub n: usize,
    pub slots_run: u64,
    pub transmissions: u64,
    pub samples: usize,
    pub fast_min_ns: u64,
    pub mega_min_ns: u64,
    pub fast_slots_per_sec: f64,
    pub mega_slots_per_sec: f64,
    pub mega_speedup: f64,
    /// Process peak RSS after this row, bytes (a high-water mark — rows
    /// run in increasing `n` order). 0 when unavailable.
    pub peak_rss_bytes: u64,
    /// Whether `bench_check` re-times this row against
    /// [`MIN_MEGA_SPEEDUP`].
    pub gate: bool,
}

/// `BENCH_engine.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineReport {
    pub build: String,
    pub threads: usize,
    pub rows: Vec<EngineRow>,
    pub min_speedup: f64,
    /// The scaling suite (fast vs mega at growing `n`).
    pub scaling: Vec<ScaleRow>,
    /// Smallest `mega_speedup` across the gated scaling rows.
    pub min_mega_speedup: f64,
}

/// The event queues the DES suite times on every workload. `bench_check`
/// matches baseline rows on `(workload, queue)`, so both columns are
/// regression-gated independently.
pub fn des_queues() -> [QueueKind; 2] {
    [QueueKind::Heap, QueueKind::Wheel]
}

/// One DES-suite `(workload, queue)` cell: event throughput vs the fast
/// slot engine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThroughputRow {
    pub workload: String,
    /// Event-queue implementation (`heap` or `wheel`).
    pub queue: String,
    pub slots_run: u64,
    pub events: u64,
    pub samples: usize,
    pub des_min_ns: u64,
    pub fast_min_ns: u64,
    pub events_per_sec: f64,
    /// DES wall time over fast-slot-engine wall time (the price of the
    /// event queue; < 1.0 would mean the DES is somehow faster).
    pub slowdown_vs_fast: f64,
}

/// `BENCH_des.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DesReport {
    pub build: String,
    pub threads: usize,
    pub throughput: Vec<ThroughputRow>,
    /// Smallest per-workload `heap_min_ns / wheel_min_ns` — the wheel's
    /// worst-case speedup over the heap across the suite.
    pub min_wheel_speedup: f64,
    pub jitter_sweep: Vec<crate::JitterRow>,
}

/// One recovery-suite cell: a (churn rate, recovery tier) pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecoveryRow {
    pub churn_rate: f64,
    pub mode: String,
    pub departures: usize,
    /// Fraction of the N·track tracked packets that reached their node.
    pub delivered_fraction: f64,
    pub missing_packets: u64,
    pub failures_detected: u64,
    pub repairs_committed: u64,
    pub displaced_total: u64,
    pub recovery_latency_avg_slots: f64,
    pub recovery_latency_max_slots: f64,
    pub nacks_sent: u64,
    pub retransmissions: u64,
    pub repaired_packets: u64,
    pub abandoned_packets: u64,
    pub control_messages: u64,
    /// Control messages per data transmission (the overhead the
    /// recovery layer adds to the stream).
    pub control_overhead: f64,
    pub wall_ms: f64,
}

/// `BENCH_recovery.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecoveryReport {
    pub build: String,
    pub n: usize,
    pub d: usize,
    pub track: u64,
    pub horizon: u64,
    pub rows: Vec<RecoveryRow>,
}

// ---------------------------------------------------- measurement loops

/// Measure the engine suite: each workload on both slot engines, first
/// diffed field by field (a divergence aborts), then timed over at most
/// `max_samples` samples.
pub fn measure_engine(max_samples: usize) -> Vec<EngineRow> {
    let mut engine = FastEngine::new();
    let mut rows = Vec::new();
    for w in engine_workloads() {
        let cfg = w.sim();
        let samples = w.samples.min(max_samples);

        // Correctness first: both engines must agree bit for bit.
        let reference = Simulator::run(w.make().as_mut(), &cfg).unwrap();
        let fast = engine.run(w.make().as_mut(), &cfg).unwrap();
        let diffs = diff_fields(&reference, &fast);
        assert!(diffs.is_empty(), "{}: engines diverge on {diffs:?}", w.name);

        let m_ref = bench(&format!("{}_reference", w.name), samples, || {
            Simulator::run(w.make().as_mut(), &cfg).unwrap().slots_run
        });
        let m_fast = bench(&format!("{}_fast", w.name), samples, || {
            engine.run(w.make().as_mut(), &cfg).unwrap().slots_run
        });

        let ref_s = m_ref.min().as_secs_f64();
        let fast_s = m_fast.min().as_secs_f64();
        rows.push(EngineRow {
            workload: w.name.to_string(),
            slots_run: reference.slots_run,
            transmissions: reference.total_transmissions,
            samples,
            reference_min_ns: m_ref.min().as_nanos() as u64,
            fast_min_ns: m_fast.min().as_nanos() as u64,
            reference_slots_per_sec: reference.slots_run as f64 / ref_s,
            fast_slots_per_sec: reference.slots_run as f64 / fast_s,
            speedup: ref_s / fast_s,
        });
    }
    rows
}

/// Measure the DES suite: every `(workload, queue)` cell first checked
/// field by field against the fast slot engine (the correctness anchor;
/// a divergence aborts), then timed over at most `max_samples` samples.
/// Rows come per workload in [`des_queues`] order.
pub fn measure_des(max_samples: usize) -> Vec<ThroughputRow> {
    let mut fast = FastEngine::new();
    let mut rows = Vec::new();
    for w in des_workloads() {
        let sim = w.sim();
        let samples = w.samples.min(max_samples);
        let reference = fast.run(w.make().as_mut(), &sim).unwrap();
        let m_fast = bench(&format!("{}_fast", w.name), samples, || {
            fast.run(w.make().as_mut(), &sim).unwrap().slots_run
        });

        for queue in des_queues() {
            let des_cfg = w.des(queue);

            // Correctness first: slot-faithful DES ≡ fast slot engine,
            // whichever queue backs it.
            let mut engine = DesEngine::new();
            let des = engine.run(w.make().as_mut(), &des_cfg).unwrap();
            let diffs = diff_fields(&reference, &des);
            assert!(
                diffs.is_empty(),
                "{}/{}: DES diverges on {diffs:?}",
                w.name,
                queue.label()
            );
            let events = engine.stats().events_processed;

            let m_des = bench(
                &format!("{}_des_{}", w.name, queue.label()),
                samples,
                || engine.run(w.make().as_mut(), &des_cfg).unwrap().slots_run,
            );
            let des_s = m_des.min().as_secs_f64();
            rows.push(ThroughputRow {
                workload: w.name.to_string(),
                queue: queue.label().to_string(),
                slots_run: reference.slots_run,
                events,
                samples,
                des_min_ns: m_des.min().as_nanos() as u64,
                fast_min_ns: m_fast.min().as_nanos() as u64,
                events_per_sec: events as f64 / des_s,
                slowdown_vs_fast: des_s / m_fast.min().as_secs_f64(),
            });
        }
    }
    rows
}

/// Time the fast and the mega engine on one scaling workload,
/// engine-only: scheme construction dominates wall time at these sizes,
/// so each sample builds its scheme untimed. Returns the fastest sample
/// of each.
pub fn time_fast_and_mega(w: &Workload, samples: usize) -> (Duration, Duration) {
    let cfg = w.sim();
    let m_fast = bench_prepared(
        &format!("{}_fast", w.name),
        samples,
        || w.make(),
        |mut s| FastEngine::new().run(s.as_mut(), &cfg).unwrap().slots_run,
    );
    let m_mega = bench_prepared(
        &format!("{}_mega", w.name),
        samples,
        || w.make(),
        |mut s| MegaEngine::new().run(s.as_mut(), &cfg).unwrap().slots_run,
    );
    (m_fast.min(), m_mega.min())
}

// ------------------------------------------------------- recovery suite

/// Recovery-suite population.
pub const RECOVERY_N: usize = 60;
/// Recovery-suite tree degree.
pub const RECOVERY_D: usize = 3;
/// Recovery-suite tracked-packet window.
pub const RECOVERY_TRACK: u64 = 48;
/// Recovery-suite playback horizon (churned runs never "complete").
pub const RECOVERY_HORIZON: u64 = 240;
/// Recovery-suite churn-trace seed.
pub const RECOVERY_SEED: u64 = 11;
/// Per-slot per-member departure rates swept by the recovery suite.
pub const RECOVERY_RATES: [f64; 3] = [0.0005, 0.002, 0.005];

/// The seeded churn trace replayed through every tier at `rate`.
pub fn recovery_trace_for(rate: f64) -> ChurnTrace {
    ChurnTrace::generate(ChurnTraceConfig {
        initial_members: RECOVERY_N,
        slots: RECOVERY_HORIZON,
        join_rate: 0.0,
        leave_rate: rate,
        rejoin_rate: rate / 2.0,
        seed: RECOVERY_SEED,
    })
}

/// The three recovery tiers, weakest first.
pub fn recovery_tiers() -> [(&'static str, RecoveryConfig); 3] {
    [
        ("off", RecoveryConfig::default()),
        ("repair", RecoveryConfig::repair()),
        ("repair+nack", RecoveryConfig::repair_nack()),
    ]
}

/// Replay `trace` through one recovery tier and summarize the outcome.
///
/// Every field except `wall_ms` is deterministic given the trace, so
/// `bench_check` compares those exactly against the committed baseline.
pub fn run_recovery_tier(
    trace: &ChurnTrace,
    rate: f64,
    mode: &str,
    rec: RecoveryConfig,
) -> RecoveryRow {
    let plan = RunPlan {
        horizon: Some(RECOVERY_HORIZON),
        runtime: Runtime::Des,
        recovery: rec,
        // Regenerated from its parameters: the same seeded trace.
        churn: Some(trace.config),
        ..RunPlan::new(
            SchemeSpec::new(Family::MultiTree, RECOVERY_N, RECOVERY_D),
            RECOVERY_TRACK,
        )
    };
    // Every tier, `off` included, streams through the healing wrapper.
    let mut scheme = plan.scheme.self_healing().unwrap();
    let cfg = plan.des_config();
    let start = Instant::now();
    let r = DesEngine::new().run(&mut scheme, &cfg).unwrap();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let missing = r.loss.as_ref().map_or(0, |l| l.total_missing()) as u64;
    let expected = (RECOVERY_N as u64) * RECOVERY_TRACK;
    let res = r.resilience.unwrap_or_default();
    let departures = trace
        .events
        .iter()
        .filter(|e| matches!(e.action, ChurnAction::Leave { .. }))
        .count();
    RecoveryRow {
        churn_rate: rate,
        mode: mode.to_string(),
        departures,
        delivered_fraction: 1.0 - missing as f64 / expected as f64,
        missing_packets: missing,
        failures_detected: res.failures_detected,
        repairs_committed: res.repairs_committed,
        displaced_total: res.displaced_total,
        recovery_latency_avg_slots: res
            .avg_recovery_latency_slots(TICKS_PER_SLOT)
            .unwrap_or(0.0),
        recovery_latency_max_slots: res.recovery_latency_max_ticks as f64 / TICKS_PER_SLOT as f64,
        nacks_sent: res.nacks_sent,
        retransmissions: res.retransmissions,
        repaired_packets: res.repaired_packets,
        abandoned_packets: res.abandoned_packets,
        control_messages: res.control_messages,
        control_overhead: res.control_messages as f64 / r.total_transmissions.max(1) as f64,
        wall_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_unique() {
        for suite in [engine_workloads(), des_workloads(), scale_workloads()] {
            let mut names: Vec<&str> = suite.iter().map(|w| w.name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), suite.len(), "duplicate workload name");
        }
    }

    #[test]
    fn scale_suite_runs_in_increasing_n_order_and_gates_n100k() {
        let scale = scale_workloads();
        let n = |w: &Workload| w.plan.scheme.n;
        assert!(scale.windows(2).all(|w| n(&w[0]) < n(&w[1])));
        assert!(scale.iter().any(|w| n(w) == 100_000 && w.gate));
        assert!(scale.iter().any(|w| n(w) == 1_000_000 && !w.gate));
    }

    #[test]
    fn reports_round_trip_through_json() {
        let report = EngineReport {
            build: "release".into(),
            threads: 4,
            rows: vec![EngineRow {
                workload: "w".into(),
                slots_run: 10,
                transmissions: 20,
                samples: 3,
                reference_min_ns: 100,
                fast_min_ns: 25,
                reference_slots_per_sec: 1e6,
                fast_slots_per_sec: 4e6,
                speedup: 4.0,
            }],
            min_speedup: 4.0,
            scaling: vec![ScaleRow {
                workload: "s".into(),
                n: 1000,
                slots_run: 300,
                transmissions: 3000,
                samples: 2,
                fast_min_ns: 50,
                mega_min_ns: 20,
                fast_slots_per_sec: 6e6,
                mega_slots_per_sec: 15e6,
                mega_speedup: 2.5,
                peak_rss_bytes: 1 << 20,
                gate: true,
            }],
            min_mega_speedup: 2.5,
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: EngineReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.rows[0].slots_run, 10);
        assert_eq!(back.rows[0].workload, "w");
        assert!((back.min_speedup - 4.0).abs() < 1e-12);
        assert_eq!(back.scaling[0].n, 1000);
        assert!(back.scaling[0].gate);
        assert!((back.min_mega_speedup - 2.5).abs() < 1e-12);
    }

    #[test]
    fn recovery_trace_is_deterministic() {
        let a = recovery_trace_for(0.002);
        let b = recovery_trace_for(0.002);
        assert_eq!(a.events.len(), b.events.len());
    }
}
