//! The CLI subcommands.

use crate::args::{ArgMap, CliError, Usage};
use clustream_core::{spec, NodeId, PacketId};
use clustream_des::{DesStats, TICKS_PER_SLOT};
use clustream_multitree::node_calendar;
use clustream_overlay::{plan_session, ClusterRequirement, IntraScheme};
use clustream_plan::{member_timelines, Family, RunPlan, SchemeSpec, SCHEME_USAGE};
use clustream_sim::{FastSimulator, RunResult, SimConfig};
use clustream_telemetry::{
    from_jsonl, names as tm, to_jsonl, Histogram, MemoryRecorder, Telemetry,
};
use clustream_workloads::{summarize, PlayPolicy};
use std::fmt::Write as _;

/// The QoS, DES, loss and resilience lines of a finished run.
fn render_run(engine_name: &str, r: &RunResult, des_stats: Option<DesStats>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "scheme      : {}", r.scheme);
    let _ = writeln!(out, "engine      : {engine_name}");
    let _ = writeln!(out, "receivers   : {}", r.qos.n);
    let _ = writeln!(out, "slots run   : {}", r.slots_run);
    let _ = writeln!(out, "max delay   : {} slots", r.qos.max_delay());
    let _ = writeln!(out, "avg delay   : {:.2} slots", r.qos.avg_delay());
    let _ = writeln!(out, "max buffer  : {} packets", r.qos.max_buffer());
    let _ = writeln!(out, "max peers   : {}", r.qos.max_neighbors());
    let _ = writeln!(out, "transmissions: {}", r.total_transmissions);
    if let Some(s) = des_stats {
        let _ = writeln!(out, "des events  : {}", s.events_processed);
        if s.deferred_sends > 0 {
            let _ = writeln!(
                out,
                "des deferred: {} sends ({} released on arrival)",
                s.deferred_sends, s.released_sends
            );
        }
    }
    if let Some(loss) = &r.loss {
        let _ = writeln!(
            out,
            "missing     : {} packets across {} nodes",
            loss.total_missing(),
            loss.missing.len()
        );
    }
    if let Some(res) = &r.resilience {
        let _ = writeln!(out, "stalls      : {}", res.stall_events);
        let _ = writeln!(out, "failures det: {}", res.failures_detected);
        let _ = writeln!(
            out,
            "repairs     : {} committed, {} nodes displaced",
            res.repairs_committed, res.displaced_total
        );
        if let Some(avg) = res.avg_recovery_latency_slots(TICKS_PER_SLOT) {
            let _ = writeln!(
                out,
                "recovery lat: {avg:.2} slots avg, {:.2} slots max",
                res.recovery_latency_max_ticks as f64 / TICKS_PER_SLOT as f64
            );
        }
        let _ = writeln!(
            out,
            "nacks       : {} sent, {} retransmissions, {} repaired, {} abandoned",
            res.nacks_sent, res.retransmissions, res.repaired_packets, res.abandoned_packets
        );
        let _ = writeln!(out, "control msgs: {}", res.control_messages);
    }
    out
}

/// `clustream simulate`: parse → validate → run → render.
pub fn simulate(args: &ArgMap) -> Result<String, CliError> {
    let plan = RunPlan::from_args(args)?;
    plan.validate()?;
    let recorder = plan.metrics_out.as_ref().map(|_| MemoryRecorder::handle());
    let telemetry = recorder
        .as_ref()
        .map_or_else(Telemetry::disabled, |(_, tel)| tel.clone());
    let (engine_name, r, des_stats) = plan.run(&telemetry)?;
    let mut out = render_run(&engine_name, &r, des_stats);
    if let Some(scenario) = &plan.scenario {
        // Score the survivors' QoE at the paper's h·d budget. Join slots
        // and the id space come from a fresh replica of the crowd scheme;
        // survivors are the ids outside every failure region.
        let crowd = plan.scheme.dynamic(Some(scenario))?;
        let failed = |id: u64| {
            scenario
                .failures
                .iter()
                .any(|f| (f.lo..=f.hi).contains(&id))
        };
        let timelines = member_timelines(&r, &crowd, plan.track, |id| !failed(id));
        let bound = clustream_analysis::thm2_worst_delay_bound(timelines.len(), plan.scheme.d);
        let q = summarize(&timelines, PlayPolicy::Wait, bound);
        let failures: u64 = scenario.failures.iter().map(|f| f.hi - f.lo + 1).sum();
        let _ = writeln!(
            out,
            "scenario    : `{scenario}` ({} joins, {failures} regional departures)",
            scenario.total_joins()
        );
        let _ = writeln!(
            out,
            "qoe @ h·d={bound}: P(interrupt) {:.4}, {:.2} stall slots avg, \
             smoothness {:.4}, throughput {:.4} (wait policy)",
            q.interruption_probability, q.mean_stall_slots, q.smoothness, q.throughput
        );
        telemetry.counter(tm::SCENARIO_JOINS, scenario.total_joins());
        telemetry.counter(tm::SCENARIO_FAILURES, failures);
        telemetry.gauge(
            tm::QOE_INTERRUPTED_PER_MILLE,
            (q.interruption_probability * 1000.0).round() as u64,
        );
        telemetry.gauge(
            tm::QOE_STALL_SLOTS,
            (q.mean_stall_slots * q.nodes as f64).round() as u64,
        );
    }
    if let (Some(path), Some((rec, _))) = (&plan.metrics_out, recorder) {
        std::fs::write(path, to_jsonl(&rec.snapshot()))
            .map_err(|e| CliError::Usage(format!("cannot write --metrics-out `{path}`: {e}")))?;
        let _ = writeln!(out, "metrics     : {path}");
    }
    Ok(out)
}

/// `clustream report`: summarize a `--metrics-out` JSONL file.
pub fn report(argv: &[String]) -> Result<String, CliError> {
    let [path] = argv else {
        return Err(CliError::Usage(
            "report takes exactly one argument: clustream report <metrics.jsonl>".into(),
        ));
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Usage(format!("cannot read metrics file `{path}`: {e}")))?;
    let snap = from_jsonl(&text).map_err(|e| CliError::Model(format!("{path}: {e}")))?;
    Ok(render_report(&snap))
}

/// Render a metrics snapshot into the delay/buffer summary tables. The
/// playback labels mirror `simulate`'s output lines exactly, so the
/// report of a run's metrics file reproduces the run's own summary.
fn render_report(snap: &clustream_telemetry::MetricsSnapshot) -> String {
    let mut out = String::new();
    let delay = snap.histogram(tm::ENGINE_PLAYBACK_DELAY);
    let buffer = snap.histogram(tm::ENGINE_BUFFER_OCCUPANCY);
    if let Some(d) = &delay {
        let _ = writeln!(out, "receivers   : {}", d.count());
    }
    if snap.counters.contains_key(tm::ENGINE_SLOTS) {
        let _ = writeln!(out, "slots run   : {}", snap.counter(tm::ENGINE_SLOTS));
    }
    if let Some(d) = &delay {
        let _ = writeln!(out, "max delay   : {} slots", d.max());
        let _ = writeln!(out, "avg delay   : {:.2} slots", d.mean());
        let _ = writeln!(
            out,
            "delay p50/90: {} / {} slots",
            d.quantile(0.5),
            d.quantile(0.9)
        );
    }
    if let Some(b) = &buffer {
        let _ = writeln!(out, "max buffer  : {} packets", b.max());
        let _ = writeln!(out, "avg buffer  : {:.2} packets", b.mean());
    }
    if snap.counters.contains_key(tm::ENGINE_TRANSMISSIONS) {
        let _ = writeln!(
            out,
            "transmissions: {}",
            snap.counter(tm::ENGINE_TRANSMISSIONS)
        );
    }
    if snap.counters.contains_key(tm::ENGINE_DELIVERIES) {
        let _ = writeln!(out, "deliveries  : {}", snap.counter(tm::ENGINE_DELIVERIES));
    }
    if snap.counters.contains_key(tm::ENGINE_HICCUPS) {
        let _ = writeln!(out, "hiccups     : {}", snap.counter(tm::ENGINE_HICCUPS));
    }
    if let Some(d) = &delay {
        render_hist_table(&mut out, "delay distribution (slots)", d);
    }
    if let Some(b) = &buffer {
        render_hist_table(&mut out, "buffer distribution (packets)", b);
    }
    if snap.counters.contains_key(tm::DES_EVENTS) {
        let _ = writeln!(out, "\ndes events  : {}", snap.counter(tm::DES_EVENTS));
        if let Some(rate) = snap.rate_per_sec(tm::DES_EVENTS, tm::DES_RUN) {
            let _ = writeln!(out, "des rate    : {rate:.0} events/sec");
        }
        if let Some(depth) = snap.gauges.get(tm::DES_QUEUE_DEPTH_MAX) {
            let _ = writeln!(out, "queue depth : {depth} max");
        }
        for (k, v) in &snap.counters {
            if let Some(class) = k.strip_prefix(tm::DES_EVENT_PREFIX) {
                let service = snap
                    .spans
                    .get(&format!("{}{class}", tm::DES_SERVICE_PREFIX))
                    .map(|s| format!("  ({:.1} µs total service)", s.total_ns as f64 / 1e3))
                    .unwrap_or_default();
                let _ = writeln!(out, "  {class:<16} {v}{service}");
            }
        }
    }
    if snap.counters.keys().any(|k| k.starts_with("recovery."))
        || snap.histograms.keys().any(|k| k.starts_with("recovery."))
    {
        let _ = writeln!(out, "\nrecovery:");
        for (label, name) in [
            ("repairs", tm::RECOVERY_REPAIRS),
            ("retransmits", tm::RECOVERY_RETRANSMITS),
            ("abandons", tm::RECOVERY_ABANDONS),
            ("control msgs", tm::RECOVERY_CONTROL_MESSAGES),
        ] {
            if snap.counters.contains_key(name) {
                let _ = writeln!(out, "  {label:<16} {}", snap.counter(name));
            }
        }
        let slots = |ticks: u64| ticks as f64 / TICKS_PER_SLOT as f64;
        if let Some(h) = snap.histogram(tm::RECOVERY_DETECTION_LATENCY) {
            let _ = writeln!(
                out,
                "  detection lat    {:.2} slots avg, {:.2} slots max",
                slots(h.sum()) / h.count() as f64,
                slots(h.max())
            );
        }
        if let Some(h) = snap.histogram(tm::RECOVERY_NACK_RTT) {
            let _ = writeln!(
                out,
                "  nack rtt         {:.2} slots avg, {:.2} slots max",
                slots(h.sum()) / h.count() as f64,
                slots(h.max())
            );
        }
    }
    if snap.counters.contains_key(tm::SCENARIO_JOINS) {
        let _ = writeln!(
            out,
            "\nscenario    : {} joins, {} regional departures",
            snap.counter(tm::SCENARIO_JOINS),
            snap.counter(tm::SCENARIO_FAILURES)
        );
        if let Some(pm) = snap.gauges.get(tm::QOE_INTERRUPTED_PER_MILLE) {
            let _ = writeln!(
                out,
                "qoe @ h·d   : {:.1}% interrupted, {} total stall slots (wait policy)",
                *pm as f64 / 10.0,
                snap.gauges.get(tm::QOE_STALL_SLOTS).copied().unwrap_or(0)
            );
        }
    }
    if snap.counters.contains_key(tm::SWEEP_CELLS) {
        let _ = writeln!(out, "\nsweep cells : {}", snap.counter(tm::SWEEP_CELLS));
        for (k, v) in &snap.counters {
            if let Some(w) = k.strip_prefix(tm::SWEEP_WORKER_CLAIMS_PREFIX) {
                let busy = snap
                    .spans
                    .get(&format!("{}{w}", tm::SWEEP_WORKER_BUSY_PREFIX))
                    .map(|s| format!("  ({:.1} ms busy)", s.total_ns as f64 / 1e6))
                    .unwrap_or_default();
                let _ = writeln!(out, "  worker{w:<10} {v} cells{busy}");
            }
        }
    }
    if !snap.spans.is_empty() {
        let _ = writeln!(out, "\nspans:");
        for (name, s) in &snap.spans {
            let _ = writeln!(
                out,
                "  {name:<28} {:>8} × {:>10.3} ms total",
                s.count,
                s.total_ns as f64 / 1e6
            );
        }
    }
    if out.is_empty() {
        out.push_str("metrics file holds no recognized series\n");
    }
    out
}

/// One histogram as an indented bucket table.
fn render_hist_table(out: &mut String, title: &str, h: &Histogram) {
    let _ = writeln!(out, "\n{title}:");
    for (lo, hi, count) in h.nonzero_buckets() {
        let _ = writeln!(out, "  [{lo:>6}, {hi:>6})  {count}");
    }
}

/// `analyze`'s usage text (and flag vocabulary).
pub const ANALYZE_USAGE: Usage = &["--n <N> [--max-d <D>]"];

/// `clustream analyze`.
pub fn analyze(args: &ArgMap) -> Result<String, CliError> {
    args.check_known(ANALYZE_USAGE)?;
    let n = args.required_usize("n")?;
    let max_d = args.usize_or("max-d", 5)?.max(2);
    let mut out = String::new();
    let _ = writeln!(out, "population N = {n}\n");
    let _ = writeln!(
        out,
        "optimal tree degree (Theorem 2 argmin): d = {}",
        clustream_analysis::optimal_degree(n.max(2), max_d.max(3))
    );
    let _ = writeln!(
        out,
        "multi-tree bound (d=2): delay ≤ {}, buffer ≤ {}",
        clustream_analysis::thm2_worst_delay_bound(n, 2),
        clustream_analysis::multitree::buffer_bound(n, 2)
    );
    let _ = writeln!(
        out,
        "hypercube chain: delay ≤ {}, avg ≤ {:.2}, buffer 2 resident",
        clustream_analysis::chained_worst_delay(n),
        clustream_analysis::chained_avg_delay(n)
    );
    let _ = writeln!(out, "\nPareto frontier (delay, buffer):");
    for p in clustream_analysis::pareto_frontier(&clustream_analysis::candidates(n, max_d)) {
        let _ = writeln!(
            out,
            "  {:<18} delay {:>4}  buffer {:>4}  peers ≤ {}",
            p.scheme, p.delay, p.buffer, p.neighbors
        );
    }
    Ok(out)
}

/// `plan`'s usage text (and flag vocabulary).
pub const PLAN_USAGE: Usage =
    &["--clusters <size[:budget],size[:budget],…> [--tc <T>] [--bigd <D>]"];

/// What a flag parsed as `u32` must be.
const U32: &str = "an integer in 0..=4294967295";

/// `plan --clusters SIZE[:BUDGET],…`: one cluster per entry, its buffer
/// budget a packet count or `none` (the default). Nothing is trimmed.
pub fn parse_clusters(s: &str) -> Result<Vec<ClusterRequirement>, String> {
    spec::entries("clusters", s)
        .map(|e| {
            let size = e
                .head
                .parse()
                .map_err(|_| format!("bad cluster size `{}`", e.head))?;
            let buffer_budget = match e.arg {
                None | Some("none") => None,
                Some(b) => Some(b.parse().map_err(|_| format!("bad buffer budget `{b}`"))?),
            };
            Ok(ClusterRequirement {
                size,
                buffer_budget,
            })
        })
        .collect()
}

/// `clustream plan`.
pub fn plan(args: &ArgMap) -> Result<String, CliError> {
    args.check_known(PLAN_USAGE)?;
    let clusters = args.required("clusters")?;
    let t_c: u32 = args.parsed("tc", U32)?.unwrap_or(5);
    let big_d = args.usize_or("bigd", 3)?;
    let requirements = parse_clusters(clusters).map_err(CliError::Usage)?;
    let (mut session, plans) = plan_session(&requirements, big_d, t_c)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "planned session: K = {}, D = {big_d}, T_c = {t_c}\n",
        plans.len()
    );
    for (i, p) in plans.iter().enumerate() {
        let scheme = match p.scheme {
            IntraScheme::MultiTree { d, .. } => format!("multi-tree d={d}"),
            IntraScheme::Hypercube { .. } => "hypercube".into(),
        };
        let _ = writeln!(
            out,
            "  cluster {i}: {} members, budget {:?} → {scheme} (intra delay ≤ {}, buffer {})",
            p.requirement.size,
            p.requirement.buffer_budget,
            p.predicted_intra_delay,
            p.predicted_buffer
        );
    }
    let r = FastSimulator::run(&mut session, &SimConfig::until_complete(24, 1_000_000))?;
    let _ = writeln!(
        out,
        "\nsimulated: worst startup {} slots, max buffer {} packets, 0 hiccups",
        r.qos.max_delay(),
        r.qos.max_buffer()
    );
    Ok(out)
}

/// `trace`'s usage text: the scheme's flags, then which delivery to
/// follow.
pub const TRACE_USAGE: Usage = &[
    SCHEME_USAGE[0],
    SCHEME_USAGE[1],
    "--node <ID> [--packet <P>]",
];

/// `clustream trace`.
pub fn trace(args: &ArgMap) -> Result<String, CliError> {
    args.check_known(TRACE_USAGE)?;
    let spec = SchemeSpec::from_args(args)?;
    let mut scheme = spec.build()?;
    args.required("node")?;
    let node: u32 = args.parsed("node", U32)?.unwrap_or(0);
    let packet = args.usize_or("packet", 0)? as u64;
    if node as usize > scheme.num_receivers() || node == 0 {
        return Err(CliError::Usage(format!(
            "--node must be in 1..={}",
            scheme.num_receivers()
        )));
    }
    let track = (packet + 16).max(48);
    let cfg = SimConfig::until_complete(track, 1_000_000).traced();
    let r = FastSimulator::run(scheme.as_mut(), &cfg)?;
    let tr = r.trace.as_ref().expect("trace requested");

    let mut out = String::new();
    match tr.path_to(NodeId(node), PacketId(packet)) {
        Some(path) => {
            let names: Vec<String> = path
                .iter()
                .map(|&id| {
                    if id == 0 {
                        "S".into()
                    } else {
                        format!("n{id}")
                    }
                })
                .collect();
            let _ = writeln!(out, "packet {packet} → node {node}: {}", names.join(" → "));
        }
        None => {
            let _ = writeln!(out, "packet {packet} never reached node {node}");
        }
    }
    if let Some(usable) = r.arrivals.usable_slot(NodeId(node), PacketId(packet)) {
        let _ = writeln!(out, "usable from slot {}", usable.t());
    }
    // For multi-trees, print the node's Figure-2 style calendar.
    if spec.family == Family::MultiTree {
        let _ = writeln!(
            out,
            "\n{}",
            node_calendar(&spec.multitree()?, node).render()
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {

    use crate::run;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn simulate_multitree() {
        let out = run(&argv(&[
            "simulate",
            "--scheme",
            "multitree",
            "--n",
            "30",
            "--d",
            "3",
        ]))
        .unwrap();
        assert!(out.contains("multi-tree(d=3"));
        assert!(out.contains("max delay"));
    }

    #[test]
    fn simulate_all_schemes() {
        for s in ["multitree", "hypercube", "chain", "singletree"] {
            let out = run(&argv(&["simulate", "--scheme", s, "--n", "12"])).unwrap();
            assert!(out.contains("receivers   : 12"), "{s}: {out}");
        }
    }

    /// Satellite bugfix 1: scheme parameters outside a family's domain
    /// used to reach `assert!`s in `crates/baselines` (exit 101) from all
    /// four entry points; they are model errors now.
    #[test]
    fn out_of_domain_scheme_parameters_are_model_errors_on_every_entry_point() {
        let trace_file = |family: &str, n: u64, d: u64| {
            let path = std::env::temp_dir().join(format!(
                "clustream-bad-trace-{family}-{}.json",
                std::process::id()
            ));
            let trace = clustream_net::RunTrace {
                params: clustream_net::SchemeParams {
                    family: family.into(),
                    n,
                    d,
                },
                track: 4,
                max_slots: 64,
                slot_micros: 2_000,
                links: Vec::new(),
                kills: Vec::new(),
                chaos: Vec::new(),
                chaos_seed: 0,
                deliveries: Vec::new(),
            };
            std::fs::write(&path, trace.to_json()).unwrap();
            path.to_str().unwrap().to_string()
        };
        let (chain0, tree0) = (trace_file("chain", 0, 1), trace_file("singletree", 4, 0));
        let receivers = "model error: invalid configuration: need at least one receiver";
        let degree = "model error: invalid configuration: tree degree d must be ≥ 1";
        for (args, want) in [
            (vec!["simulate", "--scheme", "chain", "--n", "0"], receivers),
            (
                vec!["simulate", "--scheme", "singletree", "--n", "0"],
                receivers,
            ),
            (
                vec!["simulate", "--scheme", "singletree", "--n", "5", "--d", "0"],
                degree,
            ),
            (
                vec![
                    "simulate",
                    "--scheme",
                    "singletree",
                    "--n",
                    "5",
                    "--d",
                    "0",
                    "--engine",
                    "checked",
                ],
                degree,
            ),
            (
                vec![
                    "simulate",
                    "--scheme",
                    "chain",
                    "--n",
                    "0",
                    "--runtime",
                    "des-checked",
                ],
                receivers,
            ),
            (
                vec!["trace", "--scheme", "chain", "--n", "0", "--node", "1"],
                receivers,
            ),
            (
                vec![
                    "trace",
                    "--scheme",
                    "singletree",
                    "--n",
                    "5",
                    "--d",
                    "0",
                    "--node",
                    "1",
                ],
                degree,
            ),
            (
                vec![
                    "cluster",
                    "--nodes",
                    "4",
                    "--scheme",
                    "singletree",
                    "--d",
                    "0",
                ],
                degree,
            ),
            (vec!["replay", "--trace", &chain0], receivers),
            (vec!["replay", "--trace", &tree0], degree),
        ] {
            let err = run(&argv(&args)).unwrap_err();
            assert_eq!(err.to_string(), want, "{args:?}");
        }
        for path in [chain0, tree0] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn help_prints_every_flag_the_subcommands_accept() {
        // The usage text is rendered from the tables `check_known` uses,
        // so the `simulate` flags it used to omit cannot go missing again.
        let help = run(&argv(&["help"])).unwrap();
        for flag in [
            "recovery",
            "churn-leave",
            "churn-join",
            "churn-rejoin",
            "churn-slots",
            "churn-seed",
            "scenario",
            "classes",
            "classes-zipf",
            "classes-seed",
            "horizon",
        ] {
            assert!(
                help.contains(&format!("[--{flag} <")),
                "help lacks --{flag}"
            );
        }
        for usage in [
            clustream_plan::SIMULATE_USAGE,
            super::ANALYZE_USAGE,
            super::PLAN_USAGE,
            super::TRACE_USAGE,
            crate::check::CHECK_USAGE,
            crate::net_cmd::CLUSTER_USAGE,
            crate::net_cmd::REPLAY_USAGE,
        ] {
            for line in usage {
                assert!(help.contains(line), "help lacks `{line}`");
            }
        }
        assert_eq!(
            clustream_plan::usage_flags(clustream_plan::SIMULATE_USAGE).count(),
            28
        );
        assert_eq!(
            clustream_plan::usage_flags(crate::net_cmd::CLUSTER_USAGE).count(),
            14
        );
        assert!(help.contains("clustream report   <FILE.jsonl>"), "{help}");
    }

    #[test]
    fn engine_flag_selects_engine() {
        for (flag, label) in [
            ("fast", "engine      : fast"),
            ("reference", "engine      : reference"),
            ("mega", "engine      : mega"),
            ("checked", "engine      : checked (reference ≡ fast ≡ mega)"),
        ] {
            let out = run(&argv(&[
                "simulate",
                "--scheme",
                "hypercube",
                "--n",
                "25",
                "--engine",
                flag,
            ]))
            .unwrap();
            assert!(out.contains(label), "{flag}: {out}");
        }
        // All four engine flags agree on the QoS numbers.
        let runs: Vec<String> = ["fast", "reference", "mega", "checked"]
            .iter()
            .map(|f| {
                let out = run(&argv(&[
                    "simulate",
                    "--scheme",
                    "multitree",
                    "--n",
                    "30",
                    "--engine",
                    f,
                ]))
                .unwrap();
                out.lines()
                    .filter(|l| !l.starts_with("engine"))
                    .collect::<Vec<_>>()
                    .join("\n")
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
        assert_eq!(runs[0], runs[3]);
    }

    #[test]
    fn shards_flag_keeps_results_identical() {
        // Sharded and unsharded mega runs print identical reports
        // (modulo the engine label naming the shard count).
        let strip = |out: String| {
            out.lines()
                .filter(|l| !l.starts_with("engine"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let one = strip(
            run(&argv(&[
                "simulate",
                "--scheme",
                "multitree",
                "--n",
                "40",
                "--d",
                "3",
                "--engine",
                "mega",
            ]))
            .unwrap(),
        );
        let sharded = run(&argv(&[
            "simulate",
            "--scheme",
            "multitree",
            "--n",
            "40",
            "--d",
            "3",
            "--engine",
            "mega",
            "--shards",
            "3",
        ]))
        .unwrap();
        assert!(sharded.contains("mega (3 shards)"), "{sharded}");
        assert_eq!(one, strip(sharded));
    }

    #[test]
    fn runtime_flag_selects_des() {
        // The slot-faithful DES produces the same QoS lines as the slot
        // engines (only the engine label and the event counter differ).
        let strip = |out: &str| {
            out.lines()
                .filter(|l| !l.starts_with("engine") && !l.starts_with("des "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let slot = run(&argv(&[
            "simulate",
            "--scheme",
            "multitree",
            "--n",
            "30",
            "--d",
            "3",
        ]))
        .unwrap();
        for rt in ["des", "des-checked"] {
            let out = run(&argv(&[
                "simulate",
                "--scheme",
                "multitree",
                "--n",
                "30",
                "--d",
                "3",
                "--runtime",
                rt,
            ]))
            .unwrap();
            assert!(out.contains("des"), "{rt}: {out}");
            assert_eq!(strip(&slot), strip(&out), "{rt}");
        }
    }

    /// The `des_recovery` benchmark command line at `--n 300` on the
    /// checked queue, plus `extra`.
    fn des_recovery_n300(recovery: &str, extra: &[&str]) -> String {
        let mut args = argv(&[
            "simulate",
            "--scheme",
            "multitree",
            "--n",
            "300",
            "--d",
            "3",
            "--track",
            "128",
            "--runtime",
            "des",
            "--queue",
            "checked",
            "--latency",
            "jitter",
            "--jitter",
            "0.5",
            "--uplink",
            "serialized",
            "--recovery",
            recovery,
            "--churn-leave",
            "0.0005",
            "--churn-slots",
            "200",
            "--des-seed",
            "7",
        ]);
        args.extend(argv(extra));
        run(&args).unwrap()
    }

    // Printed reports recorded before the DES recovery state went flat
    // (PR 13); `tests/des_golden.rs` pins the same runs' full counters.
    #[test]
    fn des_recovery_golden_repair_nack() {
        assert_eq!(
            des_recovery_n300("repair+nack", &[]),
            "\
scheme      : self-healing multi-tree(d=3, prerecorded)\n\
engine      : des (jitter ≤ 0.5 slots, self-healing repair+nack), checked queue\n\
receivers   : 300\n\
slots run   : 512\n\
max delay   : 37 slots\n\
avg delay   : 30.22 slots\n\
max buffer  : 30 packets\n\
max peers   : 36\n\
transmissions: 132381\n\
des events  : 451347\n\
des deferred: 118555 sends (105828 released on arrival)\n\
missing     : 1936 packets across 25 nodes\n\
stalls      : 1936\n\
failures det: 16\n\
repairs     : 16 committed, 1461 nodes displaced\n\
recovery lat: 7.65 slots avg, 15.22 slots max\n\
nacks       : 4627 sent, 4573 retransmissions, 4620 repaired, 0 abandoned\n\
control msgs: 16237\n\
"
        );
    }

    #[test]
    fn des_recovery_golden_repair_only() {
        assert_eq!(
            des_recovery_n300("repair", &[]),
            "\
scheme      : self-healing multi-tree(d=3, prerecorded)\n\
engine      : des (jitter ≤ 0.5 slots, self-healing repair), checked queue\n\
receivers   : 300\n\
slots run   : 512\n\
max delay   : 17 slots\n\
avg delay   : 13.20 slots\n\
max buffer  : 10 packets\n\
max peers   : 35\n\
transmissions: 128834\n\
des events  : 440880\n\
des deferred: 110727 sends (94044 released on arrival)\n\
missing     : 5825 packets across 300 nodes\n\
stalls      : 5825\n\
failures det: 15\n\
repairs     : 15 committed, 1177 nodes displaced\n\
recovery lat: 6.70 slots avg, 7.99 slots max\n\
nacks       : 0 sent, 0 retransmissions, 0 repaired, 0 abandoned\n\
control msgs: 28857\n\
"
        );
    }

    #[test]
    fn des_recovery_golden_with_rejoins() {
        assert_eq!(
            des_recovery_n300("repair+nack", &["--churn-rejoin", "0.001"]),
            "\
scheme      : self-healing multi-tree(d=3, prerecorded)\n\
engine      : des (jitter ≤ 0.5 slots, self-healing repair+nack), checked queue\n\
receivers   : 300\n\
slots run   : 512\n\
max delay   : 57 slots\n\
avg delay   : 29.22 slots\n\
max buffer  : 48 packets\n\
max peers   : 40\n\
transmissions: 112632\n\
des events  : 393599\n\
des deferred: 117434 sends (84173 released on arrival)\n\
missing     : 1538 packets across 20 nodes\n\
stalls      : 1538\n\
failures det: 14\n\
repairs     : 14 committed, 1176 nodes displaced\n\
recovery lat: 7.06 slots avg, 10.87 slots max\n\
nacks       : 3651 sent, 3624 retransmissions, 3650 repaired, 0 abandoned\n\
control msgs: 15857\n\
"
        );
    }

    #[test]
    fn scenario_runs_on_every_engine_and_runtime() {
        // The same flash-crowd replay through the fast engine, the
        // triple-checked slot engines and the slot/DES oracle: all four
        // columns must close, and the surface report must agree.
        let base = ["simulate", "--scheme", "multitree", "--n", "12", "--d", "2"];
        let mut fast = argv(&base);
        fast.extend(argv(&["--scenario", "step:6@2"]));
        let out_fast = run(&fast).unwrap();
        assert!(
            out_fast.contains("flash-crowd(n0=12,d=2,joins=6,fails=0)"),
            "{out_fast}"
        );
        assert!(
            out_fast.contains("scenario    : `step:6@2` (6 joins"),
            "{out_fast}"
        );
        assert!(out_fast.contains("qoe @ h·d="), "{out_fast}");

        let mut checked = argv(&base);
        checked.extend(argv(&["--scenario", "step:6@2", "--engine", "checked"]));
        let out_checked = run(&checked).unwrap();
        assert!(
            out_checked.contains("reference ≡ fast ≡ mega"),
            "{out_checked}"
        );

        let mut des = argv(&base);
        des.extend(argv(&[
            "--scenario",
            "step:6@2",
            "--runtime",
            "des-checked",
        ]));
        let out_des = run(&des).unwrap();
        assert!(out_des.contains("slot ≡ des"), "{out_des}");

        // Identical QoE line on every column.
        let qoe = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("qoe"))
                .map(str::to_string)
                .unwrap()
        };
        assert_eq!(qoe(&out_fast), qoe(&out_checked));
        assert_eq!(qoe(&out_fast), qoe(&out_des));
    }

    #[test]
    fn classes_run_through_the_serialized_gate() {
        let out = run(&argv(&[
            "simulate",
            "--scheme",
            "multitree",
            "--n",
            "20",
            "--d",
            "2",
            "--runtime",
            "des",
            "--uplink",
            "serialized",
            "--classes",
            "fiber,cable:3,mobile",
            "--classes-seed",
            "5",
        ]))
        .unwrap();
        assert!(out.contains("des events"), "{out}");
        assert!(out.contains("max delay"), "{out}");
    }

    #[test]
    fn queue_flag_selects_the_wheel_without_changing_results() {
        // Every queue produces the identical report (only the engine
        // label differs), on both DES runtimes. `des events` is dropped
        // too: the des-checked report omits that line entirely.
        let strip = |out: &str| {
            out.lines()
                .filter(|l| !l.starts_with("engine") && !l.starts_with("des events"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let base = run(&argv(&[
            "simulate",
            "--scheme",
            "multitree",
            "--n",
            "30",
            "--d",
            "3",
            "--runtime",
            "des",
        ]))
        .unwrap();
        for (rt, q) in [
            ("des", "wheel"),
            ("des", "checked"),
            ("des-checked", "wheel"),
        ] {
            let out = run(&argv(&[
                "simulate",
                "--scheme",
                "multitree",
                "--n",
                "30",
                "--d",
                "3",
                "--runtime",
                rt,
                "--queue",
                q,
            ]))
            .unwrap();
            assert!(out.contains(&format!("{q} queue")), "{rt}/{q}: {out}");
            assert_eq!(strip(&base), strip(&out), "{rt}/{q}");
        }
        // The explicit default label stays unadorned.
        let heap = run(&argv(&[
            "simulate",
            "--scheme",
            "chain",
            "--n",
            "5",
            "--runtime",
            "des",
            "--queue",
            "heap",
        ]))
        .unwrap();
        assert!(!heap.contains("queue"), "{heap}");
    }

    #[test]
    fn des_latency_flags_parse() {
        let out = run(&argv(&[
            "simulate",
            "--scheme",
            "chain",
            "--n",
            "8",
            "--runtime",
            "des",
            "--latency",
            "jitter",
            "--jitter",
            "1.5",
            "--uplink",
            "serialized",
            "--des-seed",
            "11",
        ]))
        .unwrap();
        assert!(out.contains("jitter ≤ 1.5 slots"), "{out}");
        assert!(out.contains("des events"), "{out}");
    }

    #[test]
    fn recovery_run_reports_resilience() {
        let out = run(&argv(&[
            "simulate",
            "--scheme",
            "multitree",
            "--n",
            "30",
            "--d",
            "3",
            "--track",
            "32",
            "--runtime",
            "des",
            "--recovery",
            "repair+nack",
            "--churn-leave",
            "0.002",
            "--churn-slots",
            "160",
            "--churn-seed",
            "7",
        ]))
        .unwrap();
        assert!(out.contains("self-healing repair+nack"), "{out}");
        for line in [
            "missing     :",
            "stalls      :",
            "failures det:",
            "repairs     :",
            "nacks       :",
            "control msgs:",
        ] {
            assert!(out.contains(line), "missing `{line}` in: {out}");
        }
    }

    #[test]
    fn recovery_off_des_output_is_unchanged() {
        // `--recovery off` is inert: the DES output matches a run with no
        // recovery flag at all.
        let base = argv(&[
            "simulate",
            "--scheme",
            "multitree",
            "--n",
            "24",
            "--d",
            "3",
            "--runtime",
            "des",
        ]);
        let mut off = base.clone();
        off.extend(argv(&["--recovery", "off"]));
        assert_eq!(run(&base).unwrap(), run(&off).unwrap());
    }

    #[test]
    fn analyze_prints_frontier() {
        let out = run(&argv(&["analyze", "--n", "500"])).unwrap();
        assert!(out.contains("Pareto frontier"));
        assert!(out.contains("optimal tree degree"));
        assert!(out.contains("hypercube"));
    }

    #[test]
    fn plan_parses_cluster_specs() {
        let out = run(&argv(&[
            "plan",
            "--clusters",
            "20,15:2,25:none",
            "--tc",
            "4",
        ]))
        .unwrap();
        assert!(out.contains("cluster 0"));
        assert!(out.contains("hypercube"), "{out}");
        assert!(out.contains("multi-tree"), "{out}");
        assert!(out.contains("simulated"));
    }

    #[test]
    fn trace_follows_packets() {
        let out = run(&argv(&[
            "trace",
            "--scheme",
            "multitree",
            "--n",
            "15",
            "--d",
            "3",
            "--node",
            "6",
        ]))
        .unwrap();
        assert!(out.contains("packet 0 → node 6"));
        assert!(out.contains("recv"));
    }

    #[test]
    fn unknown_subcommand_is_reported_with_the_usage() {
        // The one error message of more than one line: not a table row.
        let err = run(&argv(&["nope"])).unwrap_err().to_string();
        let usage = crate::usage();
        assert_eq!(
            err,
            format!("usage error: unknown subcommand `nope`\n\n{usage}")
        );
        let help = run(&argv(&["help"])).unwrap();
        assert!(help.contains("USAGE"));
    }

    #[test]
    fn metrics_out_writes_file_and_report_reproduces_the_summary() {
        let path = std::env::temp_dir().join(format!(
            "clustream-metrics-roundtrip-{}.jsonl",
            std::process::id()
        ));
        let path_s = path.to_str().unwrap().to_string();
        let sim = run(&argv(&[
            "simulate",
            "--scheme",
            "chain",
            "--n",
            "5",
            "--metrics-out",
            &path_s,
        ]))
        .unwrap();
        assert!(sim.contains(&format!("metrics     : {path_s}")), "{sim}");
        let rep = run(&argv(&["report", &path_s])).unwrap();
        // The report of the run's metrics file reproduces the run's own
        // delay/buffer summary lines, verbatim.
        for label in ["max delay", "avg delay", "max buffer"] {
            let line = sim
                .lines()
                .find(|l| l.starts_with(label))
                .unwrap_or_else(|| panic!("simulate lacks `{label}`: {sim}"));
            assert!(rep.contains(line), "report lacks `{line}`:\n{rep}");
        }
        // The metrics file does not perturb the run itself.
        let plain = run(&argv(&["simulate", "--scheme", "chain", "--n", "5"])).unwrap();
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("metrics"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&sim), strip(&plain));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn report_pins_hand_computed_summary() {
        use clustream_telemetry::{names as tm, to_jsonl, MemoryRecorder};
        let (rec, tel) = MemoryRecorder::handle();
        // A hand-built run: 5 receivers with delays 1..=5 slots, buffer
        // occupancies peaking at 2, 9 slots, 25 transmissions.
        for d in 1..=5u64 {
            tel.observe(tm::ENGINE_PLAYBACK_DELAY, d);
        }
        for b in [1u64, 2, 2, 1, 1] {
            tel.observe(tm::ENGINE_BUFFER_OCCUPANCY, b);
        }
        tel.counter(tm::ENGINE_SLOTS, 9);
        tel.counter(tm::ENGINE_TRANSMISSIONS, 25);
        tel.counter(tm::ENGINE_DELIVERIES, 25);
        let path = std::env::temp_dir().join(format!(
            "clustream-report-pinned-{}.jsonl",
            std::process::id()
        ));
        std::fs::write(&path, to_jsonl(&rec.snapshot())).unwrap();
        let rep = run(&argv(&["report", path.to_str().unwrap()])).unwrap();
        for line in [
            "receivers   : 5",
            "slots run   : 9",
            "max delay   : 5 slots",
            "avg delay   : 3.00 slots",
            "delay p50/90: 3 / 5 slots",
            "max buffer  : 2 packets",
            "avg buffer  : 1.40 packets",
            "transmissions: 25",
            "deliveries  : 25",
        ] {
            assert!(rep.contains(line), "missing `{line}` in:\n{rep}");
        }
        // The delay distribution table lists the five unit buckets.
        for row in ["[     1,      2)  1", "[     5,      6)  1"] {
            assert!(rep.contains(row), "missing `{row}` in:\n{rep}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn metrics_out_covers_des_and_recovery_series() {
        let path = std::env::temp_dir().join(format!(
            "clustream-metrics-des-{}.jsonl",
            std::process::id()
        ));
        let path_s = path.to_str().unwrap().to_string();
        run(&argv(&[
            "simulate",
            "--scheme",
            "multitree",
            "--n",
            "30",
            "--d",
            "3",
            "--track",
            "32",
            "--runtime",
            "des",
            "--recovery",
            "repair+nack",
            "--churn-leave",
            "0.002",
            "--churn-slots",
            "160",
            "--churn-seed",
            "7",
            "--metrics-out",
            &path_s,
        ]))
        .unwrap();
        let rep = run(&argv(&["report", &path_s])).unwrap();
        assert!(rep.contains("des events"), "{rep}");
        assert!(rep.contains("playback_tick"), "{rep}");
        assert!(rep.contains("recovery:"), "{rep}");
        assert!(rep.contains("control msgs"), "{rep}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mode_flag_selects_live_variants() {
        let pre = run(&argv(&[
            "simulate",
            "--scheme",
            "multitree",
            "--n",
            "20",
            "--d",
            "2",
        ]))
        .unwrap();
        let buffered = run(&argv(&[
            "simulate",
            "--scheme",
            "multitree",
            "--n",
            "20",
            "--d",
            "2",
            "--mode",
            "buffered",
        ]))
        .unwrap();
        assert!(pre.contains("prerecorded"));
        assert!(buffered.contains("live-prebuffered"));
    }
}
