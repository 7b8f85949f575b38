//! The networked subcommands: `clustream cluster` (spawn a local process
//! cluster, stream, optionally kill nodes) and `clustream replay`
//! (re-run a recorded cluster trace through the DES and score
//! delivery-order concordance).

use crate::args::{ArgMap, CliError, Usage};
use clustream_net::{
    compare_delivery_order, parse_chaos_spec, parse_kill_spec, replay_in_des, run_cluster,
    ClusterOptions, RunTrace, SchemeParams, Transport,
};
use clustream_telemetry::{to_jsonl, MemoryRecorder};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Where the `clustream-node` binary lives: `--node-bin` if given, else
/// a sibling of the running `clustream` binary (the cargo layout).
fn node_bin(args: &ArgMap) -> Result<PathBuf, CliError> {
    if let Some(p) = args.optional("node-bin") {
        return Ok(PathBuf::from(p));
    }
    let exe = std::env::current_exe()
        .map_err(|e| CliError::Usage(format!("cannot locate the running binary: {e}")))?;
    Ok(exe.with_file_name("clustream-node"))
}

/// `cluster`'s usage text (and flag vocabulary).
pub const CLUSTER_USAGE: Usage = &[
    "--nodes <N> [--transport <tcp|uds>] [--scheme <FAMILY>]",
    "[--d <D>] [--track <P>] [--slot-us <MICROS>]",
    "[--kill <NODE@SLOT,…>] [--suspect-timeout-slots <S>]",
    "[--chaos <KIND:TARGET@START[+DUR][=PARAM],…>]",
    "[--chaos-seed <SEED>] [--repair <true|false>]",
    "[--trace-out <FILE.json>] [--metrics-out <FILE.jsonl>]",
    "[--node-bin <PATH>]",
];

/// `replay`'s usage text (and flag vocabulary).
pub const REPLAY_USAGE: Usage = &["--trace <FILE.json> [--min-concordance <F>]"];

/// `clustream cluster`: run a real networked cluster over loopback.
pub fn cluster(args: &ArgMap) -> Result<String, CliError> {
    args.check_known(CLUSTER_USAGE)?;
    let nodes = args.required_usize("nodes")? as u64;
    let mut opts = ClusterOptions::new(nodes, node_bin(args)?);
    opts.transport =
        Transport::parse(args.optional("transport").unwrap_or("tcp")).map_err(CliError::Usage)?;
    let family = args.optional("scheme").unwrap_or("multitree");
    opts.params = SchemeParams {
        family: family.to_string(),
        n: nodes,
        d: args.u64_or("d", 2)?,
    };
    opts.track = args.u64_or("track", 24)?;
    opts.slot_micros = args.u64_or("slot-us", 5_000)?;
    opts.suspect_timeout_slots = args.u64_or("suspect-timeout-slots", 8)?;
    if let Some(spec) = args.optional("kill") {
        opts.kills = parse_kill_spec(spec).map_err(CliError::Usage)?;
    }
    if let Some(spec) = args.optional("chaos") {
        opts.chaos = parse_chaos_spec(spec).map_err(CliError::Usage)?;
    }
    opts.chaos_seed = args.u64_or("chaos-seed", 0)?;
    opts.repair = args.bool_or("repair", false)?;
    let metrics = args
        .optional("metrics-out")
        .map(|p| (p.to_string(), MemoryRecorder::handle()));
    if let Some((_, (_, tel))) = &metrics {
        opts.telemetry = tel.clone();
    }

    let outcome = run_cluster(&opts).map_err(CliError::Model)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "cluster     : {} receivers + source over {} ({})",
        nodes,
        opts.transport.label(),
        family
    );
    let _ = writeln!(
        out,
        "stream      : {} tracked packets, {} µs slots, wall {:.1} ms",
        opts.track,
        opts.slot_micros,
        outcome.wall_ns as f64 / 1e6
    );
    let _ = writeln!(
        out,
        "complete    : {}/{} expected survivors",
        outcome.completed, outcome.expected_complete
    );
    for k in &outcome.kills {
        let detect = k
            .detection_ms()
            .map(|ms| format!("{ms:.1} ms"))
            .unwrap_or_else(|| "not detected".into());
        let repair = k
            .repair_ms()
            .map(|ms| format!("{ms:.1} ms"))
            .unwrap_or_else(|| "not repaired".into());
        let _ = writeln!(
            out,
            "kill        : node {} at slot {} — detected {detect}, repaired {repair}",
            k.node, k.slot
        );
    }
    if !opts.chaos.is_empty() {
        let mut drops = 0u64;
        let mut dups = 0u64;
        let mut reorders = 0u64;
        let mut delays = 0u64;
        let mut pdrops = 0u64;
        for r in &outcome.reports {
            drops += r.chaos_drops;
            dups += r.chaos_dups;
            reorders += r.chaos_reorders;
            delays += r.chaos_delays;
            pdrops += r.chaos_partition_drops;
        }
        let _ = writeln!(
            out,
            "chaos       : seed {} — {drops} drops, {dups} dups, {reorders} reorders, \
             {delays} delays, {pdrops} partition drops injected",
            opts.chaos_seed
        );
    }
    for rp in &outcome.repairs {
        let healed = rp
            .first_healed_ms()
            .map(|ms| format!("first healed delivery {ms:.1} ms"))
            .unwrap_or_else(|| "no gap needed healing".into());
        let _ = writeln!(
            out,
            "repair      : node {} epoch {} — {} survivors spliced at slot {}, \
             dispatched {:.1} ms, {healed}",
            rp.subject,
            rp.epoch,
            rp.survivors_updated,
            rp.barrier_slot,
            rp.dispatch_ms()
        );
    }
    if outcome.completed < outcome.expected_complete {
        return Err(CliError::Model(format!(
            "{}only {}/{} survivors completed the stream",
            out, outcome.completed, outcome.expected_complete
        )));
    }
    if let Some(path) = args.optional("trace-out") {
        std::fs::write(path, outcome.trace.to_json())
            .map_err(|e| CliError::Usage(format!("cannot write --trace-out `{path}`: {e}")))?;
        let _ = writeln!(out, "trace       : {path}");
    }
    if let Some((path, (rec, _))) = &metrics {
        std::fs::write(path, to_jsonl(&rec.snapshot()))
            .map_err(|e| CliError::Usage(format!("cannot write --metrics-out `{path}`: {e}")))?;
        let _ = writeln!(out, "metrics     : {path}");
    }
    Ok(out)
}

/// `clustream replay`: DES replay oracle over a recorded cluster trace.
pub fn replay(args: &ArgMap) -> Result<String, CliError> {
    args.check_known(REPLAY_USAGE)?;
    let path = args.required("trace")?;
    let min = args.f64_or("min-concordance", 0.9)?;
    let json = std::fs::read_to_string(path)
        .map_err(|e| CliError::Usage(format!("cannot read --trace `{path}`: {e}")))?;
    let trace = RunTrace::from_json(&json).map_err(CliError::Model)?;
    let result = replay_in_des(&trace).map_err(CliError::Model)?;
    let cmp = compare_delivery_order(&trace, &result);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "replay      : {} ({} links, {} samples, {} kills)",
        trace.params.family,
        trace.recorded_latencies().link_count(),
        trace.recorded_latencies().len(),
        trace.kills.len()
    );
    for c in &cmp.per_node {
        let _ = writeln!(
            out,
            "node {:>4}   : concordance {:.3} over {} packets ({} inversions)",
            c.node, c.concordance, c.common, c.inversions
        );
    }
    let _ = writeln!(out, "min / mean  : {:.3} / {:.3}", cmp.min, cmp.mean);
    if cmp.min < min {
        return Err(CliError::Model(format!(
            "{}concordance {:.3} is below --min-concordance {min}",
            out, cmp.min
        )));
    }
    let _ = writeln!(out, "oracle      : delivery order concordant (>= {min})");
    Ok(out)
}
