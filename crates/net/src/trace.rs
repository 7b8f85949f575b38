//! Run traces and the DES replay oracle.
//!
//! A networked cluster run records what the wire actually did: per-link
//! latency samples (in per-link send order), the kill schedule as
//! executed, and each survivor's packet delivery order. [`RunTrace`]
//! serializes all of that to JSON. [`replay_in_des`] then re-runs the
//! *same* schedule inside the discrete-event simulator with a
//! [`clustream_des::RecordedLatencies`] table built from the trace, and
//! [`compare_delivery_order`] scores per-node delivery-order concordance
//! between the physical run and the replay — the oracle that the
//! networked runtime implements the semantics the simulators analyze.
//!
//! Concordance is `1 − inversions/pairs` over the packets both runs
//! delivered to a node (a Kendall-tau-style rank agreement; DES ties —
//! same usable slot — count as concordant, since the networked run's
//! sub-slot ordering of a same-slot batch is arbitrary).

use crate::faultspec::ChaosSpec;
use crate::schedule::SchemeParams;
use clustream_core::{NodeId, PacketId};
use clustream_des::{DesConfig, DesEngine, RecordedLatencies, TICKS_PER_SLOT};
use clustream_sim::{FaultPlan, RunResult, SimConfig};
use serde::{Deserialize, Serialize};

/// One per-link latency observation, in DES ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkObs {
    /// Sending node.
    pub from: u32,
    /// Receiving node.
    pub to: u32,
    /// Observed wire+queue time, in ticks ([`TICKS_PER_SLOT`] per slot).
    /// Meaningless (zero) when `dropped`.
    pub ticks: u64,
    /// The sender put this copy on the calendar but chaos ate it (an
    /// injected drop or a partition blackout): the replay must lose the
    /// copy at the same position in the link's FIFO, not deliver it.
    pub dropped: bool,
}

/// One kill as the orchestrator executed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KillObs {
    /// Killed node.
    pub node: u32,
    /// Stream slot at which the SIGKILL landed.
    pub slot: u64,
}

/// One node's tracked-packet delivery order (by wall-clock arrival).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeDeliveries {
    /// The receiving node.
    pub node: u32,
    /// Tracked packets in arrival order.
    pub packets: Vec<u64>,
}

/// Everything a networked run recorded, sufficient to replay it in-sim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunTrace {
    /// The scheme the schedule was lowered from.
    pub params: SchemeParams,
    /// Tracked window (packets `0..track`).
    pub track: u64,
    /// Slot horizon handed to the nodes.
    pub max_slots: u64,
    /// Wall-clock slot length the cluster ran at.
    pub slot_micros: u64,
    /// Per-link latency samples, in per-link send order. Retransmissions
    /// are excluded: the replay runs the calendar, not the repair path.
    pub links: Vec<LinkObs>,
    /// Kills as executed.
    pub kills: Vec<KillObs>,
    /// The chaos schedule the run was injected with (empty = clean run).
    pub chaos: Vec<ChaosSpec>,
    /// Seed the [`crate::ChaosPolicy`] drew its decisions from.
    pub chaos_seed: u64,
    /// Per-survivor delivery orders.
    pub deliveries: Vec<NodeDeliveries>,
}

impl RunTrace {
    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<RunTrace, String> {
        serde_json::from_str(s).map_err(|e| format!("bad RunTrace JSON: {e}"))
    }

    /// The recorded-latency table for the DES replay.
    pub fn recorded_latencies(&self) -> RecordedLatencies {
        let mut rec = RecordedLatencies::new();
        for l in &self.links {
            if l.dropped {
                rec.push_drop(l.from, l.to);
            } else {
                rec.push(l.from, l.to, l.ticks);
            }
        }
        rec
    }

    /// Convert an observed nanosecond latency to DES ticks under this
    /// trace's slot length (clamped to ≥ 1 tick).
    pub fn ns_to_ticks(&self, latency_ns: u64) -> u64 {
        let slot_ns = (self.slot_micros.max(1)) * 1_000;
        (latency_ns.saturating_mul(TICKS_PER_SLOT) / slot_ns).max(1)
    }
}

/// Re-run the trace's schedule in the DES under the recorded latencies
/// and kill schedule.
pub fn replay_in_des(trace: &RunTrace) -> Result<RunResult, String> {
    let mut scheme = trace.params.build()?;
    let sim = if trace.kills.is_empty() {
        SimConfig::until_complete(trace.track, trace.max_slots)
    } else {
        let plan = FaultPlan {
            loss_rate: 0.0,
            seed: 0,
            crashes: Vec::new(),
            stop_crashes: trace
                .kills
                .iter()
                .map(|k| (NodeId(k.node), k.slot))
                .collect(),
        };
        SimConfig::with_faults(trace.track, trace.max_slots, plan)
    };
    let cfg = DesConfig::slot_faithful(sim).with_recorded_latencies(trace.recorded_latencies());
    DesEngine::new()
        .run(scheme.as_mut(), &cfg)
        .map_err(|e| format!("DES replay failed: {e}"))
}

/// Rank agreement between one networked node's delivery order and the
/// DES replay's arrival slots.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeConcordance {
    /// The node.
    pub node: u32,
    /// Packets delivered in both runs.
    pub common: u64,
    /// Strictly inverted pairs (networked order vs DES slot order).
    pub inversions: u64,
    /// `1 − inversions/pairs`; `1.0` when fewer than two common packets.
    pub concordance: f64,
}

/// Concordance across all nodes of a comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayComparison {
    /// Per-node scores, in node order.
    pub per_node: Vec<NodeConcordance>,
    /// Worst per-node concordance (`1.0` when no nodes compared).
    pub min: f64,
    /// Mean per-node concordance (`1.0` when no nodes compared).
    pub mean: f64,
}

/// Score delivery-order concordance of a networked trace against its DES
/// replay. Packets only one side delivered (e.g. NACK-repaired packets
/// the recovery-off replay never forwards) are dropped from the
/// comparison; order over the common set is what is scored.
pub fn compare_delivery_order(trace: &RunTrace, replay: &RunResult) -> ReplayComparison {
    let mut per_node = Vec::new();
    for d in &trace.deliveries {
        let node = NodeId(d.node);
        // The networked order, restricted to packets the replay delivered.
        let common: Vec<(u64, u64)> = d
            .packets
            .iter()
            .filter_map(|&p| {
                replay
                    .arrivals
                    .usable_slot(node, PacketId(p))
                    .map(|s| (p, s.0))
            })
            .collect();
        let pairs = (common.len() * common.len().saturating_sub(1) / 2) as u64;
        let mut inversions = 0u64;
        for i in 0..common.len() {
            for j in (i + 1)..common.len() {
                // Networked order says i before j; a strictly later DES
                // slot for i is an inversion. Equal slots are ties.
                if common[i].1 > common[j].1 {
                    inversions += 1;
                }
            }
        }
        let concordance = if pairs == 0 {
            1.0
        } else {
            1.0 - inversions as f64 / pairs as f64
        };
        per_node.push(NodeConcordance {
            node: d.node,
            common: common.len() as u64,
            inversions,
            concordance,
        });
    }
    let (min, mean) = if per_node.is_empty() {
        (1.0, 1.0)
    } else {
        let min = per_node
            .iter()
            .map(|c| c.concordance)
            .fold(f64::INFINITY, f64::min);
        let mean = per_node.iter().map(|c| c.concordance).sum::<f64>() / per_node.len() as f64;
        (min, mean)
    };
    ReplayComparison {
        per_node,
        min,
        mean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_trace() -> RunTrace {
        RunTrace {
            params: SchemeParams {
                family: "chain".into(),
                n: 4,
                d: 1,
            },
            track: 4,
            max_slots: 64,
            slot_micros: 2_000,
            links: vec![
                LinkObs {
                    from: 0,
                    to: 1,
                    ticks: 900,
                    dropped: false,
                },
                LinkObs {
                    from: 0,
                    to: 1,
                    ticks: 1_100,
                    dropped: false,
                },
            ],
            kills: Vec::new(),
            chaos: Vec::new(),
            chaos_seed: 0,
            deliveries: vec![NodeDeliveries {
                node: 1,
                packets: vec![0, 1, 2, 3],
            }],
        }
    }

    #[test]
    fn a_trace_naming_out_of_domain_parameters_replays_as_an_error() {
        // The trace file is input: `chain` with no receivers and a
        // degree-0 single tree used to reach the constructors' asserts.
        for (family, n, d, needle) in [
            ("chain", 0, 1, "need at least one receiver"),
            ("singletree", 4, 0, "tree degree d must be ≥ 1"),
        ] {
            let mut t = small_trace();
            t.params = SchemeParams {
                family: family.into(),
                n,
                d,
            };
            let t = RunTrace::from_json(&t.to_json()).unwrap();
            let err = replay_in_des(&t).unwrap_err();
            assert_eq!(err, format!("invalid configuration: {needle}"));
        }
    }

    #[test]
    fn trace_json_roundtrips() {
        let mut t = small_trace();
        t.chaos = crate::faultspec::parse_chaos_spec("drop:1@0+32=0.1").unwrap();
        t.chaos_seed = 7;
        t.links[0].dropped = true;
        let back = RunTrace::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn dropped_links_replay_as_in_flight_losses() {
        let mut t = small_trace();
        // First copy on 0→1 is eaten by chaos; the replay must count an
        // in-flight loss rather than delivering it.
        t.links[0].dropped = true;
        t.links[0].ticks = 0;
        t.chaos = crate::faultspec::parse_chaos_spec("drop:1@0=0.5").unwrap();
        let rec = t.recorded_latencies();
        assert_eq!(rec.drop_count(), 1);
        let result = replay_in_des(&t).unwrap();
        let loss = result
            .loss
            .expect("recorded drops must enable loss accounting");
        assert!(loss.lost_in_flight >= 1, "{loss:?}");
    }

    #[test]
    fn replay_runs_and_orders_concord() {
        let t = small_trace();
        let result = replay_in_des(&t).unwrap();
        let cmp = compare_delivery_order(&t, &result);
        assert_eq!(cmp.per_node.len(), 1);
        // The chain delivers in packet order; the networked trace agrees.
        assert_eq!(cmp.min, 1.0);
        assert_eq!(cmp.mean, 1.0);
    }

    #[test]
    fn inverted_delivery_is_penalized() {
        let mut t = small_trace();
        t.deliveries[0].packets = vec![3, 2, 1, 0]; // fully reversed
        let result = replay_in_des(&t).unwrap();
        let cmp = compare_delivery_order(&t, &result);
        assert!(cmp.min < 0.5, "reversed order must score low: {cmp:?}");
    }

    #[test]
    fn kills_replay_as_stop_crashes() {
        let mut t = small_trace();
        t.params = SchemeParams {
            family: "multitree".into(),
            n: 8,
            d: 2,
        };
        t.track = 8;
        t.kills = vec![KillObs { node: 3, slot: 2 }];
        t.deliveries.clear();
        t.links.clear();
        let result = replay_in_des(&t).unwrap();
        assert!(result.loss.is_some(), "fault plan must be installed");
    }

    #[test]
    fn ns_to_ticks_clamps_and_scales() {
        let t = small_trace(); // 2ms slots
        assert_eq!(t.ns_to_ticks(0), 1);
        assert_eq!(t.ns_to_ticks(2_000_000), TICKS_PER_SLOT);
        assert_eq!(t.ns_to_ticks(1_000_000), TICKS_PER_SLOT / 2);
    }
}
