//! The CLI subcommands.

use crate::args::{ArgMap, CliError, Usage};
use clustream_core::{spec, NodeId, PacketId};
use clustream_des::{DesStats, TICKS_PER_SLOT};
use clustream_multitree::node_calendar;
use clustream_overlay::{plan_session, ClusterRequirement, IntraScheme};
use clustream_plan::{member_timelines, DelayBound, Family, RunPlan, SchemeSpec, SCHEME_USAGE};
use clustream_sim::{MegaSimulator, RunResult, SimConfig};
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
        // Score the survivors' QoE at the paper's h·d budget. A replica of
        // the crowd scheme, brought to where the run ended, says what the
        // script applied: its members are the survivors (at least one —
        // the dynamics never empty the forest), its counts the report's.
        let mut crowd = plan.scheme.dynamic(Some(scenario))?;
        crowd.replay_script(r.slots_run);
        let timelines = member_timelines(&r, &crowd, plan.track, |id| {
            crowd.is_member(NodeId(id as u32))
        });
        let bound = clustream_analysis::thm2_worst_delay_bound(timelines.len(), plan.scheme.d);
        let q = summarize(&timelines, PlayPolicy::Wait, bound);
        let (joins, failures) = (crowd.joins_applied(), crowd.leaves_applied());
        let _ = writeln!(
            out,
            "scenario    : `{scenario}` ({joins} joins, {failures} regional departures)"
        );
        let _ = writeln!(
            out,
            "qoe @ h·d={bound}: P(interrupt) {:.4}, {:.2} stall slots avg, \
             smoothness {:.4}, throughput {:.4} (wait policy)",
            q.interruption_probability, q.mean_stall_slots, q.smoothness, q.throughput
        );
        telemetry.counter(tm::SCENARIO_JOINS, joins);
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
    // N is a receiver count in the id range; §2.3 proves degree 2 or 3
    // optimal, so a few dozen candidate degrees is already generous.
    args.required("n")?;
    let n = args.int_in("n", 1..=u32::MAX as usize)?.unwrap_or(1);
    let max_d = args.int_in("max-d", 2..=64)?.unwrap_or(5);
    let mut out = String::new();
    let _ = writeln!(out, "population N = {n}\n");
    let _ = writeln!(
        out,
        "optimal tree degree (Theorem 2 argmin): d = {}",
        clustream_analysis::optimal_degree(n, max_d)
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
    let t_c = args.int_in("tc", 0..=u32::MAX)?.unwrap_or(5);
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
    let bound = DelayBound::session(session.worst_delay_bound());
    let cfg = SimConfig::until_complete(24, bound.completion_horizon(24));
    let r = MegaSimulator::run(&mut session, &cfg).map_err(|e| bound.blame(e))?;
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

/// The most transmissions of packets before the traced one that a
/// `trace` run may keep, at about 32 bytes each: packet 559 240 on 15
/// receivers, just within it, peaks at 273 MB and 0.8 s (2-core Xeon).
const TRACE_TRANSMISSIONS: u64 = 1 << 23;

/// `clustream trace`.
pub fn trace(args: &ArgMap) -> Result<String, CliError> {
    args.check_known(TRACE_USAGE)?;
    let spec = SchemeSpec::from_args(args)?;
    let mut scheme = spec.build()?;
    args.required("node")?;
    let node = args.int_in("node", 0..=u32::MAX)?.unwrap_or(0);
    let packet = args.usize_or("packet", 0)? as u64;
    if node as usize > scheme.num_receivers() || node == 0 {
        return Err(CliError::Usage(format!(
            "--node must be in 1..={}",
            scheme.num_receivers()
        )));
    }
    // The trace keeps every transmission of its run, so a receiver's
    // copy of each packet before the traced one too: refuse a packet that
    // would keep more of those than `TRACE_TRANSMISSIONS` before the run
    // sizes anything.
    let receivers = scheme.num_receivers() as u64;
    let earlier = packet.saturating_mul(receivers);
    if earlier > TRACE_TRANSMISSIONS {
        return Err(CliError::Usage(format!(
            "--packet {packet} is too late to trace: the trace would keep the {earlier} \
             transmissions of earlier packets to its {receivers} receivers, and it keeps \
             at most {TRACE_TRANSMISSIONS}"
        )));
    }
    let (bound, track) = (spec.worst_delay_bound(), (packet + 16).max(48));
    let horizon = bound.completion_horizon(track);
    let cfg = SimConfig::until_complete(track, horizon).traced();
    let r = MegaSimulator::run(scheme.as_mut(), &cfg).map_err(|e| bound.blame(e))?;
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
