//! The metrics the benchmark reports, by name. `BENCHMARK.json` declares
//! the same lists (a test holds the two together) and adds, for each
//! metric, which direction is better and, end to end, the bound.

use serde::{Deserialize, Serialize};

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees; every workload reports all four, with
/// tracing off. The failed share of invocations is reported beside them
/// as `attempted` and `failed`.
pub const END_TO_END: [MetricDef; 4] = [
    def("wall_ms_min", "ms"),
    def("work_per_s", "1/s"),
    def("peak_rss_mib", "MiB"),
    def("setup_s", "s"),
];

/// Host time and exact counts of single layers, from the traced pass.
/// A `.ms`/`.us` metric whose name minus the suffix is a span name is the
/// summed duration of those spans; the rest are computed where noted in
/// `layers.rs`. A layer a workload never enters reports 0.
pub const PER_LAYER: [MetricDef; 77] = [
    def("cli.parse.us", "us"),
    def("cli.run.ms", "ms"),
    def("cli.self.ms", "ms"),
    def("cli.cold.ms", "ms"),
    def("cli.report.ms", "ms"),
    def("cli.cmd.mt2000d3.ms", "ms"),
    def("cli.cmd.mt2000d2.ms", "ms"),
    def("cli.cmd.mt1023buf.ms", "ms"),
    def("cli.cmd.mt1023pipe.ms", "ms"),
    def("cli.cmd.hc1023.ms", "ms"),
    def("cli.cmd.hc2000.ms", "ms"),
    def("cli.cmd.chain1023.ms", "ms"),
    def("cli.cmd.st1023.ms", "ms"),
    def("cli.cmd.crowd1000.ms", "ms"),
    def("cli.cmd.analyze.ms", "ms"),
    def("cli.cmd.plan.ms", "ms"),
    def("cli.cmd.trace.ms", "ms"),
    def("multitree.greedy_forest.ms", "ms"),
    def("multitree.scheme_new.ms", "ms"),
    def("hypercube.new.ms", "ms"),
    def("sim.reference.run.ms", "ms"),
    def("sim.fast.run.ms", "ms"),
    def("sim.mega.run.ms", "ms"),
    def("sim.mega.run_shards2.ms", "ms"),
    def("sim.mega.run_observed.ms", "ms"),
    def("sim.mega.steady_slots", "count"),
    def("sim.mega.steady_share", "ratio"),
    def("sim.slots_run", "count"),
    def("sim.transmissions", "count"),
    def("sim.ns_per_tx", "ns"),
    def("sim.result_drop.ms", "ms"),
    def("telemetry.snapshot.ms", "ms"),
    def("telemetry.to_jsonl.ms", "ms"),
    def("telemetry.from_jsonl.ms", "ms"),
    def("telemetry.jsonl_bytes", "bytes"),
    def("telemetry.tax_ratio", "ratio"),
    def("des.run.wheel.ms", "ms"),
    def("des.run.heap.ms", "ms"),
    def("des.events_processed", "count"),
    def("des.events_scheduled", "count"),
    def("des.deferred_sends", "count"),
    def("des.released_sends", "count"),
    def("des.ns_per_event", "ns"),
    def("des.slowdown_vs_fast", "ratio"),
    def("recovery.selfheal_new.ms", "ms"),
    def("recovery.crowd_new.ms", "ms"),
    def("recovery.added.ms", "ms"),
    def("recovery.failures_detected", "count"),
    def("recovery.repairs_committed", "count"),
    def("recovery.displaced_total", "count"),
    def("recovery.nacks_sent", "count"),
    def("recovery.retransmissions", "count"),
    def("recovery.repaired_packets", "count"),
    def("recovery.abandoned_packets", "count"),
    def("recovery.nack_useful_ratio", "ratio"),
    def("recovery.control_messages", "count"),
    def("workloads.churn_generate.ms", "ms"),
    def("workloads.scenario_parse.us", "us"),
    def("workloads.qoe_summarize.ms", "ms"),
    def("net.encode.ns_per_frame", "ns"),
    def("net.decode.ns_per_frame", "ns"),
    def("net.write_frame.ns_per_frame", "ns"),
    def("net.read_frame.ns_per_frame", "ns"),
    def("net.bytes_per_frame", "bytes"),
    def("net.pump.uds.frames_per_s", "1/s"),
    def("net.pump.tcp.frames_per_s", "1/s"),
    def("net.pump.config4k.mib_per_s", "MiB/s"),
    def("net.lower_schedule.ms", "ms"),
    def("net.faultspec_parse.us", "us"),
    def("net.chaos_plan.ns_per_call", "ns"),
    def("harness.wall_ms_p25", "ms"),
    def("harness.wall_ms_p50", "ms"),
    def("harness.wall_ms_p75", "ms"),
    def("harness.samples", "count"),
    def("harness.trace_overhead_ratio", "ratio"),
    def("harness.unattributed.ms", "ms"),
    def("harness.loadavg_start", "load"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// Metric values keyed by name, in first-insertion order.
#[derive(Debug, Default)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    /// Accumulate: a workload of several commands sums a layer's time and
    /// counts over them.
    pub fn add(&mut self, name: &str, value: f64) {
        self.set(name, self.get(name) + value);
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// Every metric of `defs`, in that order; 0 where nothing was set.
    pub fn to_metrics(&self, defs: &[MetricDef]) -> Vec<Metric> {
        defs.iter()
            .map(|d| Metric {
                name: d.name.to_string(),
                value: self.get(d.name),
                unit: d.unit.to_string(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(well_formed(d.name), "bad metric name `{}`", d.name);
            assert!(seen.insert(d.name), "duplicate metric `{}`", d.name);
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit `{}` on `{}`",
                d.unit,
                d.name
            );
        }
        assert!(!well_formed(".leading"));
        assert!(!well_formed("has space"));
    }

    #[test]
    fn values_accumulate_and_default_to_zero() {
        let mut v = Values::default();
        v.add("cli.run.ms", 1.5);
        v.add("cli.run.ms", 2.0);
        v.set("sim.slots_run", 65.0);
        assert_eq!(v.get("cli.run.ms"), 3.5);
        assert_eq!(v.get("never.set"), 0.0);
        let all = v.to_metrics(&PER_LAYER);
        assert_eq!(all.len(), PER_LAYER.len());
        assert_eq!(all[1].value, 3.5);
        assert_eq!(all[0].value, 0.0);
    }
}
