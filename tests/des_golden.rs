//! Golden DES runs, recorded on the commit *before* the recovery and
//! deferral state went flat (ordered maps → dense rows, hashed indexes
//! and a parked-send arena).
//!
//! That change was allowed to make each event cheaper and nothing else:
//! no event elided, no draw moved, no iteration order changed. These
//! pins hold it — and every later change to the per-event state, such
//! as outer wheel buckets freed on cascade and parked sends that keep
//! only what their key does not fix — to that: the `des_recovery` benchmark command line at `--n 300`, on the
//! checked queue (so heap and wheel pop the whole run in lockstep),
//! plus the variants that reach the code the base run does not (repair
//! without NACKs, rejoins → `clear_links`/`forget`, a loss plan on the
//! relaxed path, and the strict path's propagation attribution). Every
//! `DesStats` and `ResilienceMetrics` counter, the loss report and a
//! hash of the full arrival table are pinned; the printed report of the
//! same command lines is pinned in `crates/cli` (`des_recovery_golden_*`).

use clustream::prelude::*;
use clustream::sim::FaultPlan;

const N: usize = 300;
const D: usize = 3;
const TRACK: u64 = 128;
/// The CLI's churn horizon: `max(churn slots, 4 · track)`, churn slots
/// being 200.
const HORIZON: u64 = 4 * TRACK;

fn churn(rejoin_rate: f64) -> ChurnTrace {
    ChurnTrace::generate(ChurnTraceConfig {
        initial_members: N,
        slots: 200,
        join_rate: 0.0,
        leave_rate: 0.0005,
        rejoin_rate,
        seed: 0,
    })
}

/// `--latency jitter --jitter 0.5 --uplink serialized --des-seed 7`.
fn jittered(sim: SimConfig) -> DesConfig {
    DesConfig::slot_faithful(sim)
        .with_latency(LatencyModel::UniformJitter { jitter: 0.5 })
        .with_uplink(UplinkModel::Serialized)
        .seeded(7)
}

fn fnv(hash: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *hash = (*hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Everything the run reports, one line per group.
fn digest(cfg: DesConfig) -> String {
    let mut scheme =
        DynamicMultiTree::new(N, D, StreamMode::PreRecorded, Construction::Greedy).unwrap();
    let mut engine = DesEngine::new();
    let r = engine
        .run(&mut scheme, &cfg.with_queue(QueueKind::Checked))
        .unwrap();
    let mut arrivals = 0xcbf2_9ce4_8422_2325u64;
    for node in 1..=N as u32 {
        for p in 0..TRACK {
            let slot = r.arrivals.usable_slot(NodeId(node), PacketId(p));
            fnv(&mut arrivals, slot.map_or(u64::MAX, |s| s.t()));
        }
    }
    let mut uploads = 0xcbf2_9ce4_8422_2325u64;
    for &u in &r.upload_counts {
        fnv(&mut uploads, u);
    }
    let loss = r.loss.as_ref().map(|l| {
        format!(
            "lost {} crash {} prop {} ({} loss + {} crash) stopped {} missing {}/{}",
            l.lost_in_flight,
            l.crash_suppressed,
            l.propagation_suppressed,
            l.propagation_from_loss,
            l.propagation_from_crash,
            l.stopped_receives,
            l.total_missing(),
            l.affected_nodes()
        )
    });
    format!(
        "{:?}\n{:?}\n{loss:?}\nslots {} delay {}/{:.4} buffer {} peers {} tx {} dup {} \
         arrivals {arrivals:016x} uploads {uploads:016x}",
        engine.stats(),
        r.resilience,
        r.slots_run,
        r.qos.max_delay(),
        r.qos.avg_delay(),
        r.qos.max_buffer(),
        r.qos.max_neighbors(),
        r.total_transmissions,
        r.duplicate_deliveries,
    )
}

fn assert_golden(name: &str, cfg: DesConfig, want: &str) {
    let got = digest(cfg);
    assert_eq!(got, want, "{name} drifted from the recorded run:\n{got}");
}

#[test]
fn des_recovery_command_line() {
    assert_golden(
        "repair+nack",
        jittered(SimConfig::until_complete(TRACK, HORIZON))
            .with_churn(churn(0.0))
            .with_recovery(RecoveryConfig::repair_nack()),
        "DesStats { events_processed: 451347, events_scheduled: 451347, sends: 132381, deliveries: 136954, deferred_sends: 118555, released_sends: 105828, churn_leaves: 29, churn_joins_ignored: 0, churn_rejoins: 0, deliveries_to_departed: 5881 }\n\
         Some(ResilienceMetrics { stall_events: 1936, stall_slots: 1936, failures_detected: 16, repairs_committed: 16, recovery_latency_total_ticks: 125360, recovery_latency_max_ticks: 15589, displaced_total: 1461, nacks_sent: 4627, retransmissions: 4573, repaired_packets: 4620, abandoned_packets: 0, control_messages: 16237 })\n\
         Some(\"lost 0 crash 6 prop 12727 (0 loss + 12727 crash) stopped 0 missing 1936/25\")\n\
         slots 512 delay 37/30.2233 buffer 30 peers 36 tx 132381 dup 3572 arrivals a550e529de393a4b uploads 6ef75271e9fcd7c6",
    );
}

#[test]
fn repair_without_nacks() {
    assert_golden(
        "repair",
        jittered(SimConfig::until_complete(TRACK, HORIZON))
            .with_churn(churn(0.0))
            .with_recovery(RecoveryConfig::repair()),
        "DesStats { events_processed: 440880, events_scheduled: 440880, sends: 128834, deliveries: 128834, deferred_sends: 110727, released_sends: 94044, churn_leaves: 29, churn_joins_ignored: 0, churn_rejoins: 0, deliveries_to_departed: 6111 }\n\
         Some(ResilienceMetrics { stall_events: 5825, stall_slots: 5825, failures_detected: 15, repairs_committed: 15, recovery_latency_total_ticks: 102930, recovery_latency_max_ticks: 8182, displaced_total: 1177, nacks_sent: 0, retransmissions: 0, repaired_packets: 0, abandoned_packets: 0, control_messages: 28857 })\n\
         Some(\"lost 0 crash 9 prop 16683 (0 loss + 16683 crash) stopped 0 missing 5825/300\")\n\
         slots 512 delay 17/13.2033 buffer 10 peers 35 tx 128834 dup 646 arrivals cfa4730214d054cd uploads 39c61e5b8ae48a43",
    );
}

#[test]
fn rejoins_clear_links_and_forget_confirmations() {
    assert_golden(
        "repair+nack with rejoins",
        jittered(SimConfig::until_complete(TRACK, HORIZON))
            .with_churn(churn(0.001))
            .with_recovery(RecoveryConfig::repair_nack()),
        "DesStats { events_processed: 393599, events_scheduled: 393599, sends: 112632, deliveries: 116256, deferred_sends: 117434, released_sends: 84173, churn_leaves: 32, churn_joins_ignored: 0, churn_rejoins: 2, deliveries_to_departed: 5459 }\n\
         Some(ResilienceMetrics { stall_events: 1538, stall_slots: 1538, failures_detected: 14, repairs_committed: 14, recovery_latency_total_ticks: 101201, recovery_latency_max_ticks: 11130, displaced_total: 1176, nacks_sent: 3651, retransmissions: 3624, repaired_packets: 3650, abandoned_packets: 0, control_messages: 15857 })\n\
         Some(\"lost 0 crash 8 prop 33261 (0 loss + 33261 crash) stopped 0 missing 1538/20\")\n\
         slots 512 delay 57/29.2167 buffer 48 peers 40 tx 112632 dup 2894 arrivals 99d0a88f9a2d8334 uploads 4a25dfde033d38b6",
    );
}

#[test]
fn loss_plan_on_the_relaxed_path() {
    // Fixed latency and an unconstrained uplink, but churn and recovery
    // keep the engine relaxed: loss draws in the admission path, lossy
    // retransmissions, and loss-caused leftovers in the end-of-run walk.
    assert_golden(
        "fixed + loss + repair+nack",
        DesConfig::slot_faithful(SimConfig::with_faults(
            TRACK,
            HORIZON,
            FaultPlan::loss(0.02, 5),
        ))
        .with_churn(churn(0.0))
        .with_recovery(RecoveryConfig::repair_nack()),
        "DesStats { events_processed: 422413, events_scheduled: 422413, sends: 118850, deliveries: 123897, deferred_sends: 28997, released_sends: 4830, churn_leaves: 29, churn_joins_ignored: 0, churn_rejoins: 0, deliveries_to_departed: 5345 }\n\
         Some(ResilienceMetrics { stall_events: 1903, stall_slots: 1903, failures_detected: 15, repairs_committed: 15, recovery_latency_total_ticks: 78848, recovery_latency_max_ticks: 7168, displaced_total: 1177, nacks_sent: 5744, retransmissions: 5144, repaired_packets: 5686, abandoned_packets: 0, control_messages: 13284 })\n\
         Some(\"lost 2441 crash 47 prop 24167 (24158 loss + 9 crash) stopped 0 missing 1903/24\")\n\
         slots 512 delay 37/27.4867 buffer 30 peers 34 tx 118850 dup 3303 arrivals a3c130e159796a61 uploads d2d4739fb59c90a5",
    );
}

#[test]
fn loss_plan_on_the_strict_path() {
    // No churn, no recovery: the slot-faithful regime, where a missing
    // packet is attributed through the kernel's fault ledger at calendar
    // time. The
    // tick pushes each transmission's `Deliver` itself, so the run pops
    // one event per delivery and one per slot (121431 + 512); the pin
    // dropped by exactly `sends` when the strict path lost its `Send` hop.
    let cfg = DesConfig::slot_faithful(SimConfig::with_faults(
        TRACK,
        HORIZON,
        FaultPlan {
            crashes: vec![(NodeId(2), 40)],
            ..FaultPlan::loss(0.02, 5)
        },
    ));
    assert!(cfg.is_slot_faithful());
    assert_golden("strict + loss + crash", cfg, "DesStats { events_processed: 121943, events_scheduled: 121943, sends: 121431, deliveries: 121431, deferred_sends: 0, released_sends: 0, churn_leaves: 0, churn_joins_ignored: 0, churn_rejoins: 0, deliveries_to_departed: 0 }\n\
         Some(ResilienceMetrics { stall_events: 6783, stall_slots: 6783, failures_detected: 0, repairs_committed: 0, recovery_latency_total_ticks: 0, recovery_latency_max_ticks: 0, displaced_total: 0, nacks_sent: 0, retransmissions: 0, repaired_packets: 0, abandoned_packets: 0, control_messages: 0 })\n\
         Some(\"lost 2502 crash 472 prop 27224 (9020 loss + 18204 crash) stopped 0 missing 6783/300\")\n\
         slots 512 delay 14/9.6500 buffer 7 peers 6 tx 121431 dup 0 arrivals 5f37d9ee6e8879ba uploads e260442d104393d6");
}
