//! End-to-end recovery acceptance: online failure detection, self-healing
//! tree repair and NACK retransmission in the discrete-event runtime.
//!
//! The headline property (the PR's acceptance criterion): under a
//! crash-only churn trace with zero link loss, a `repair+nack` run leaves
//! **every non-crashed node's missing-packet set empty** — detection
//! confirms the silent node, the appendix dynamics route around it, and
//! NACK retransmission backfills the packets lost during the detection
//! window.

use clustream::prelude::*;
use clustream::sim::ResilienceMetrics;
use clustream::workloads::{ChurnAction, ChurnEvent, ChurnTrace, ChurnTraceConfig};

/// A hand-written crash-only trace (no joins, no rejoins, no loss).
fn crash_only_trace(n: usize, slots: u64, crashes: &[(u64, usize)]) -> ChurnTrace {
    ChurnTrace {
        config: ChurnTraceConfig {
            initial_members: n,
            slots,
            join_rate: 0.0,
            leave_rate: 0.0,
            rejoin_rate: 0.0,
            seed: 0,
        },
        events: crashes
            .iter()
            .map(|&(slot, victim_rank)| ChurnEvent {
                slot,
                action: ChurnAction::Leave { victim_rank },
            })
            .collect(),
    }
}

/// Victim ranks (among current members, ascending-id order) that make the
/// trace remove exactly `victims`, in order.
fn ranks_for(n: usize, victims: &[u64]) -> Vec<usize> {
    let mut members: Vec<u64> = (1..=n as u64).collect();
    victims
        .iter()
        .map(|v| {
            let r = members.iter().position(|m| m == v).unwrap();
            members.remove(r);
            r
        })
        .collect()
}

/// The busiest relays of a clean run — crashing one of these is the
/// worst case for downstream starvation.
fn busiest_relays(n: usize, d: usize, track: u64, how_many: usize) -> Vec<u64> {
    let mut probe =
        DynamicMultiTree::new(n, d, StreamMode::PreRecorded, Construction::Greedy).unwrap();
    let clean = Simulator::run(&mut probe, &SimConfig::until_complete(track, 100_000)).unwrap();
    let mut by_uploads: Vec<(u64, u64)> = clean
        .upload_counts
        .iter()
        .enumerate()
        .skip(1)
        .map(|(id, &u)| (u, id as u64))
        .collect();
    by_uploads.sort();
    by_uploads.reverse();
    by_uploads.truncate(how_many);
    assert!(by_uploads[0].0 > 0, "no interior relay found");
    by_uploads.into_iter().map(|(_, id)| id).collect()
}

fn run_with_mode(
    n: usize,
    d: usize,
    track: u64,
    horizon: u64,
    trace: &ChurnTrace,
    recovery: RecoveryConfig,
) -> RunResult {
    let mut scheme =
        DynamicMultiTree::new(n, d, StreamMode::PreRecorded, Construction::Greedy).unwrap();
    let cfg = DesConfig::slot_faithful(SimConfig::until_complete(track, horizon))
        .with_churn(trace.clone())
        .with_recovery(recovery);
    DesEngine::new().run(&mut scheme, &cfg).unwrap()
}

/// Missing packets summed over nodes that never crashed.
fn survivor_missing(r: &RunResult, victims: &[u64]) -> u64 {
    r.loss
        .as_ref()
        .unwrap()
        .missing
        .iter()
        .filter(|(node, _)| !victims.contains(&(node.0 as u64)))
        .map(|&(_, m)| m as u64)
        .sum()
}

#[test]
fn repair_nack_clears_every_survivors_missing_set() {
    // The acceptance criterion: crash-only churn, zero loss, repair+nack —
    // once the recovery pipeline has run its course every non-crashed
    // node holds the entire tracked window.
    let (n, d, track, horizon) = (40, 3, 48u64, 260u64);
    let victims = busiest_relays(n, d, track, 2);
    let ranks = ranks_for(n, &victims);
    let trace = crash_only_trace(n, horizon, &[(10, ranks[0]), (22, ranks[1])]);

    let r = run_with_mode(n, d, track, horizon, &trace, RecoveryConfig::repair_nack());

    let loss = r.loss.as_ref().unwrap();
    for &(node, missing) in &loss.missing {
        assert!(
            victims.contains(&(node.0 as u64)),
            "survivor {node} still missing {missing} packets after recovery"
        );
    }
    let resil = r.resilience.expect("recovery runs report resilience");
    assert!(resil.failures_detected >= 1, "silence was never confirmed");
    assert!(resil.repairs_committed >= 1, "no repair was committed");
    assert!(
        resil.recovery_latency_max_ticks > 0,
        "repair cannot be instantaneous"
    );
    assert!(
        resil
            .avg_recovery_latency_slots(clustream::des::TICKS_PER_SLOT)
            .is_some(),
        "committed repairs must report a latency"
    );
    assert!(resil.nacks_sent > 0, "gaps must have been chased");
    assert!(resil.repaired_packets > 0, "no gap was ever backfilled");
    assert!(
        resil.control_messages >= resil.nacks_sent + resil.retransmissions,
        "control accounting must cover NACKs and retransmissions"
    );
}

#[test]
fn each_recovery_tier_strictly_helps_under_interior_crashes() {
    // off (fail-silent) ≥ repair ≥ repair+nack (= 0 for survivors): the
    // repair tier stops the post-detection bleeding, the NACK tier
    // backfills the detection window.
    let (n, d, track, horizon) = (40, 3, 48u64, 260u64);
    let victims = busiest_relays(n, d, track, 1);
    let ranks = ranks_for(n, &victims);
    let trace = crash_only_trace(n, horizon, &[(10, ranks[0])]);

    let off = run_with_mode(n, d, track, horizon, &trace, RecoveryConfig::default());
    let repair = run_with_mode(n, d, track, horizon, &trace, RecoveryConfig::repair());
    let nack = run_with_mode(n, d, track, horizon, &trace, RecoveryConfig::repair_nack());

    let (m_off, m_repair, m_nack) = (
        survivor_missing(&off, &victims),
        survivor_missing(&repair, &victims),
        survivor_missing(&nack, &victims),
    );
    assert!(
        m_off > 0,
        "an interior crash must starve someone fail-silent"
    );
    assert!(
        m_repair < m_off,
        "repair must beat fail-silent ({m_repair} ≥ {m_off})"
    );
    assert!(
        m_nack <= m_repair,
        "adding NACKs cannot hurt ({m_nack} > {m_repair})"
    );
    assert_eq!(m_nack, 0, "repair+nack must fully backfill survivors");

    // Fail-silent runs still report resilience (stall accounting only).
    let off_resil = off.resilience.unwrap();
    assert_eq!(
        off_resil.stall_events,
        off.loss.as_ref().unwrap().total_missing() as u64
    );
    assert_eq!(off_resil.repairs_committed, 0);
    assert_eq!(off_resil.nacks_sent, 0);
}

#[test]
fn recovery_runs_are_deterministic() {
    // Same trace, same knobs, same seed — bit-identical RunResult,
    // including the jittered NACK backoff draws.
    let (n, d, track, horizon) = (30, 3, 32u64, 200u64);
    let victims = busiest_relays(n, d, track, 1);
    let ranks = ranks_for(n, &victims);
    let trace = crash_only_trace(n, horizon, &[(8, ranks[0])]);
    let a = run_with_mode(n, d, track, horizon, &trace, RecoveryConfig::repair_nack());
    let b = run_with_mode(n, d, track, horizon, &trace, RecoveryConfig::repair_nack());
    assert_eq!(diff_fields(&a, &b), Vec::<&str>::new());
}

#[test]
fn rejoin_restores_a_crashed_member_end_to_end() {
    // Crash an interior node, let the overlay repair, then bring the same
    // identity back: the rejoined node is readmitted into the schedule
    // and resumes receiving (its own earlier gap is its problem — the
    // survivors must stay whole throughout).
    let (n, d, track, horizon) = (30, 3, 40u64, 300u64);
    let victims = busiest_relays(n, d, track, 1);
    let ranks = ranks_for(n, &victims);
    let mut trace = crash_only_trace(n, horizon, &[(8, ranks[0])]);
    trace.events.push(ChurnEvent {
        slot: 60,
        action: ChurnAction::Rejoin { departed_rank: 0 },
    });

    let r = run_with_mode(n, d, track, horizon, &trace, RecoveryConfig::repair_nack());
    // Survivors end whole; the returnee may only miss pre-rejoin packets.
    for &(node, missing) in &r.loss.as_ref().unwrap().missing {
        assert!(
            victims.contains(&(node.0 as u64)),
            "survivor {node} missing {missing} packets"
        );
    }
    // The returnee received post-rejoin packets (the tail of the window).
    let returnee = NodeId(victims[0] as u32);
    assert!(
        r.arrivals
            .usable_slot(returnee, PacketId(track - 1))
            .is_some(),
        "rejoined node never resumed receiving"
    );
}

#[test]
fn recovery_off_is_the_fail_silent_des() {
    // Mode Off leaves the engine as it was before the recovery layer, in
    // both DES regimes.

    // Slot-faithful regime: still matches the slot engine exactly.
    let sim_cfg = SimConfig::until_complete(24, 10_000);
    let mut a =
        DynamicMultiTree::new(20, 3, StreamMode::PreRecorded, Construction::Greedy).unwrap();
    let want = Simulator::run(&mut a, &sim_cfg).unwrap();
    let mut b =
        DynamicMultiTree::new(20, 3, StreamMode::PreRecorded, Construction::Greedy).unwrap();
    let cfg = DesConfig::slot_faithful(sim_cfg).with_recovery(RecoveryConfig::default());
    assert!(cfg.is_slot_faithful(), "mode Off must stay slot-faithful");
    let got = DesEngine::new().run(&mut b, &cfg).unwrap();
    assert_eq!(diff_fields(&want, &got), Vec::<&str>::new());

    // Relaxed regime (churn): no probe, repair or NACK — the resilience
    // record is the stall accounting of a fail-silent run and nothing else.
    let (n, d, track, horizon) = (24, 3, 24u64, 160u64);
    let trace = crash_only_trace(n, horizon, &[(6, 2), (14, 9)]);
    let off = run_with_mode(n, d, track, horizon, &trace, RecoveryConfig::default());
    let missing = off.loss.as_ref().unwrap().total_missing() as u64;
    assert!(missing > 0, "the crashes must starve someone");
    assert_eq!(
        off.resilience,
        Some(ResilienceMetrics::from_missing(missing))
    );
}

#[test]
fn the_recovery_constants_run_as_the_knobs_defaults_did() {
    // The recovery timers, retry cap, repair-buffer bound and the rest are
    // constants holding the values their flags defaulted to. A jittered,
    // serialized repair+nack run under churn — one that exercises
    // detection, repair and NACK at once — prints what it printed when
    // those values came from the flags' defaults; moving the suspect or
    // NACK timeout or shrinking the repair buffer changes these lines.
    let argv: Vec<String> = "simulate --scheme multitree --n 200 --d 3 --track 64 \
         --runtime des --latency jitter --jitter 0.5 --uplink serialized \
         --recovery repair+nack --churn-leave 0.002 --churn-slots 100 --des-seed 7"
        .split_whitespace()
        .map(String::from)
        .collect();
    let out = clustream_cli::run(&argv).unwrap();
    for line in [
        "max delay   : 55 slots",
        "des events  : 129910",
        "missing     : 1266 packets across 35 nodes",
        "failures det: 11",
        "repairs     : 11 committed, 590 nodes displaced",
        "recovery lat: 6.79 slots avg, 13.07 slots max",
        "nacks       : 2681 sent, 2635 retransmissions, 2668 repaired, 0 abandoned",
        "control msgs: 12788",
    ] {
        assert!(out.contains(line), "missing `{line}` in:\n{out}");
    }
}
