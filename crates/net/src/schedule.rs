//! Schedule lowering: from a [`clustream_core::Scheme`]'s implicit
//! calendar to the explicit per-node send/expect lists a
//! `clustream-node` process executes.
//!
//! The lowering runs the mega slot engine once with tracing on and
//! harvests the validated transmission trace — so a networked run
//! executes exactly the transmissions the paper's schedule prescribes,
//! already validated (capacity, holdings, collisions) under the contract
//! the differential harness holds every slot engine to (the reference's
//! trace and errors, bit for bit). The same determinism is what makes the
//! DES a usable replay oracle afterwards: re-running the scheme in-sim
//! regenerates this identical calendar.

use clustream_core::{NodeId, Scheme};
use clustream_plan::{Family, SchemeSpec};
use clustream_sim::{FaultPlan, MegaSimulator, SimConfig};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Scheme family + parameters, the shared vocabulary of the orchestrator,
/// the trace file, and the DES replay — one struct so a recorded run can
/// be rebuilt in-sim without guessing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchemeParams {
    /// Family label: `multitree`, `hypercube`, `chain` or `singletree`.
    pub family: String,
    /// Receiver population.
    pub n: u64,
    /// Family degree parameter (forest degree / source splits).
    pub d: u64,
}

impl SchemeParams {
    /// The typed spec this parameter set names (pre-recorded, greedy
    /// forest). A hypercube's `d = 0` means "unsplit", as it always has
    /// in trace files.
    pub fn spec(&self) -> Result<SchemeSpec, String> {
        let family = Family::parse(&self.family).ok_or_else(|| {
            format!(
                "unknown scheme family `{}`; valid families are: multitree, hypercube, \
                 chain, singletree",
                self.family
            )
        })?;
        let d = match family {
            Family::Hypercube => self.d.max(1),
            _ => self.d,
        };
        Ok(SchemeSpec::new(family, self.n as usize, d as usize))
    }

    /// Construct the scheme this parameter set names.
    pub fn build(&self) -> Result<Box<dyn Scheme>, String> {
        self.spec()?.build().map_err(|e| e.to_string())
    }
}

/// One lowered outgoing transmission: at slot `slot`, send `packet` to
/// node `to` (provided the packet has arrived; otherwise the node defers
/// and sends on arrival, mirroring the DES relaxed mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoweredSend {
    /// Calendar slot of the send.
    pub slot: u64,
    /// Receiving node.
    pub to: u32,
    /// Packet sequence number.
    pub packet: u64,
}

/// One lowered expected arrival: `packet` should be usable by slot
/// `slot` (send slot + link latency), coming from node `from`. Drives
/// the NACK overdue scan and the wall-clock failure detector's watch
/// list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoweredRecv {
    /// Slot by which the packet should be usable.
    pub slot: u64,
    /// Scheduled sender.
    pub from: u32,
    /// Packet sequence number.
    pub packet: u64,
}

/// The full lowered schedule of one stream: per-node send and expect
/// calendars plus the slot horizon of the lowering run.
#[derive(Debug, Clone, Default)]
pub struct LoweredSchedule {
    /// Slots the lowering run took to deliver the tracked window.
    pub slots_run: u64,
    /// Outgoing calendar per sender.
    pub sends: BTreeMap<u32, Vec<LoweredSend>>,
    /// Expected arrivals per receiver.
    pub expects: BTreeMap<u32, Vec<LoweredRecv>>,
}

/// Lower `params` for a `track`-packet stream by running the slot
/// engine with tracing enabled, on the scheme's completion horizon,
/// and splitting the trace per node.
pub fn lower_schedule(params: &SchemeParams, track: u64) -> Result<LoweredSchedule, String> {
    let spec = params.spec()?;
    let mut scheme = spec.build().map_err(|e| e.to_string())?;
    let bound = spec.worst_delay_bound();
    let cfg = SimConfig::until_complete(track, bound.completion_horizon(track)).traced();
    let run = MegaSimulator::run(scheme.as_mut(), &cfg).map_err(|e| bound.blame(e).to_string())?;
    Ok(split_trace(&run, track))
}

/// Lower an already-built scheme around a set of `dead` nodes. The
/// healed forest no longer contains them, so the slot engine
/// must treat them as crashed from slot 0 (lossy playback analysis)
/// instead of failing hard on their missing deliveries. Faulty runs
/// never "complete", so the caller bounds the horizon with `max_slots`
/// (the cluster's own horizon is a natural choice).
pub fn lower_scheme_healed(
    scheme: &mut dyn Scheme,
    track: u64,
    dead: &[u32],
    max_slots: u64,
) -> Result<LoweredSchedule, String> {
    let plan = FaultPlan {
        loss_rate: 0.0,
        seed: 0,
        crashes: Vec::new(),
        stop_crashes: dead.iter().map(|&d| (NodeId(d), 0)).collect(),
    };
    let cfg = SimConfig::with_faults(track, max_slots, plan).traced();
    let run = MegaSimulator::run(scheme, &cfg).map_err(|e| e.to_string())?;
    Ok(split_trace(&run, track))
}

/// Split a traced lowering run into per-node calendars. Untracked
/// packets are skipped: a fixed-horizon (faulty) run may stream past
/// the tracked window, and nodes only account for packets `0..track`.
fn split_trace(run: &clustream_sim::RunResult, track: u64) -> LoweredSchedule {
    let trace = run.trace.as_ref().expect("tracing was enabled");
    let mut lowered = LoweredSchedule {
        slots_run: run.slots_run,
        ..LoweredSchedule::default()
    };
    for ev in &trace.events {
        if ev.packet >= track {
            continue;
        }
        lowered.sends.entry(ev.from).or_default().push(LoweredSend {
            slot: ev.slot,
            to: ev.to,
            packet: ev.packet,
        });
        lowered.expects.entry(ev.to).or_default().push(LoweredRecv {
            slot: ev.slot + ev.latency as u64,
            from: ev.from,
            packet: ev.packet,
        });
    }
    lowered
}

/// An address book entry: where to dial node `node`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeerAddr {
    /// The peer's node id.
    pub node: u32,
    /// The address its data listener bound.
    pub addr: String,
}

/// Everything one `clustream-node` process needs, shipped as the JSON
/// payload of a [`crate::frame::Frame::Config`] frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeConfig {
    /// This node's id (0 is the source).
    pub node: u32,
    /// Receiver population.
    pub n: u64,
    /// Tracked window: packets `0..track` must arrive for completion.
    pub track: u64,
    /// Slot horizon: the node exits after this many slots even without a
    /// `Stop` (lowered `slots_run` plus slack for repair traffic).
    pub max_slots: u64,
    /// Wall-clock slot length, microseconds.
    pub slot_micros: u64,
    /// Silence horizon before a watched upstream sender is suspected,
    /// in slots.
    pub suspect_timeout_slots: u64,
    /// How many slots past its expected arrival a packet may run late
    /// before the first NACK.
    pub gap_slack_slots: u64,
    /// Slots between NACK retries for the same packet.
    pub nack_retry_slots: u64,
    /// NACK attempts per packet before giving up.
    pub nack_max_attempts: u64,
    /// This node's outgoing calendar.
    pub sends: Vec<LoweredSend>,
    /// This node's expected arrivals.
    pub expects: Vec<LoweredRecv>,
    /// Dial addresses for every scheduled downstream peer (and, for the
    /// source, every receiver — NACK replies dial lazily).
    pub peers: Vec<PeerAddr>,
    /// The source's dial address (NACK target); empty for the source.
    pub source_addr: String,
    /// The run's chaos schedule (every node gets the full list; each
    /// node's [`crate::chaos::ChaosPolicy`] applies only the entries
    /// matching its own outbound frames).
    pub chaos: Vec<crate::faultspec::ChaosSpec>,
    /// Seed for the deterministic per-frame chaos decisions.
    pub chaos_seed: u64,
    /// Retransmissions the source serves per slot before deferring the
    /// rest (NACK-storm rate limit). Zero means unlimited.
    pub retransmit_budget_per_slot: u64,
}

/// A healed calendar for one node, shipped as the JSON payload of a
/// [`crate::frame::Frame::ScheduleUpdate`] frame after the orchestrator
/// confirms a failure and re-lowers the repaired forest. The node
/// splices it in at `barrier_slot`: calendar entries at or after the
/// barrier come from this update; entries before it stay from the old
/// calendar (their packets are already in flight or delivered).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleUpdate {
    /// Repair generation, monotonically increasing; a node ignores
    /// updates at or below the last epoch it applied.
    pub epoch: u64,
    /// First slot the new calendar governs. Chosen past every node's
    /// current slot (estimated + margin) so all survivors splice at the
    /// same calendar position.
    pub barrier_slot: u64,
    /// The node's full healed outgoing calendar, slots relative to the
    /// barrier.
    pub sends: Vec<LoweredSend>,
    /// The node's full healed expected arrivals, slots relative to the
    /// barrier.
    pub expects: Vec<LoweredRecv>,
    /// Dial addresses for peers the healed calendar introduces.
    pub peers: Vec<PeerAddr>,
}

/// One observed arrival at a node, wall-clock timestamped on both ends.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrivalObs {
    /// Packet sequence number.
    pub packet: u64,
    /// Sending node.
    pub from: u32,
    /// The sender's slot when it sent.
    pub slot: u64,
    /// Sender wall clock at send, UNIX nanoseconds.
    pub sent_ns: u64,
    /// Receiver wall clock at arrival, UNIX nanoseconds.
    pub recv_ns: u64,
    /// Whether this copy was a NACK-triggered retransmission.
    pub retransmit: bool,
    /// Whether this copy arrived via a spliced (healed) calendar — a
    /// first-copy delivery of a packet that was missing when the node
    /// applied a [`ScheduleUpdate`]. Healed arrivals are structural
    /// repair traffic, excluded from replay link-latency samples the
    /// same way retransmissions are.
    pub healed: bool,
}

/// One calendar send a chaos-run sender logged: what the chaos layer
/// did to it. Only pre-splice, non-retransmit calendar sends are logged
/// — exactly the sends the DES replay will regenerate — so the replay
/// table keeps per-link FIFO alignment between recorded drops and
/// observed deliveries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CalendarSendObs {
    /// Receiving node.
    pub to: u32,
    /// Packet sequence number.
    pub packet: u64,
    /// Whether the chaos layer ate this copy (injected loss or a
    /// partition blackout).
    pub dropped: bool,
}

/// Final statistics one node reports back to the orchestrator, as the
/// JSON payload of a [`crate::frame::Frame::Report`] frame.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeReport {
    /// The reporting node.
    pub node: u32,
    /// Whether every tracked packet arrived.
    pub complete: bool,
    /// Wall clock at completion, UNIX nanoseconds (0 if incomplete).
    pub complete_ns: u64,
    /// First-copy arrivals in receive order (tracked packets only).
    pub arrivals: Vec<ArrivalObs>,
    /// Frames written to data links.
    pub frames_sent: u64,
    /// Frames read from data links.
    pub frames_received: u64,
    /// Bytes written to data links.
    pub bytes_sent: u64,
    /// Bytes read from data links.
    pub bytes_received: u64,
    /// Failed dial attempts before each link connected.
    pub reconnects: u64,
    /// Highest per-link send-queue occupancy observed.
    pub send_queue_high_water: u64,
    /// NACKs this node sent.
    pub nacks_sent: u64,
    /// Retransmissions this node served.
    pub retransmits_served: u64,
    /// Calendar sends deferred because the packet had not arrived yet.
    pub deferred_sends: u64,
    /// Suspect frames this node raised.
    pub suspects_reported: u64,
    /// Pre-splice calendar sends in send order (chaos runs only; empty
    /// otherwise), the sender-side half of the replay drop ledger.
    pub calendar_sends: Vec<CalendarSendObs>,
    /// Frames the chaos layer dropped (injected loss).
    pub chaos_drops: u64,
    /// Frames the chaos layer duplicated.
    pub chaos_dups: u64,
    /// Frames the chaos layer held behind their successor.
    pub chaos_reorders: u64,
    /// Frames the chaos layer delayed (fixed/jittered delay or gray
    /// slowdown).
    pub chaos_delays: u64,
    /// Frames dropped by a partition blackout.
    pub chaos_partition_drops: u64,
    /// NACKs suppressed by dedup or the per-slot retransmit budget.
    pub nacks_suppressed: u64,
    /// Schedule updates this node spliced in.
    pub schedule_updates_applied: u64,
    /// Wall-clock from receiving the last update to splicing it at the
    /// barrier, microseconds.
    pub splice_lag_us: u64,
    /// Wall clock of the first post-splice arrival that filled a missing
    /// packet, UNIX nanoseconds (0 if none).
    pub first_healed_delivery_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustream_plan::ArgMap;
    use clustream_sim::Simulator;

    /// Every family, and the multi-tree in each stream mode, as the CLI
    /// spells them.
    const LOWERED: [&str; 6] = [
        "--scheme multitree --n 13 --d 3",
        "--scheme multitree --n 13 --d 3 --mode buffered",
        "--scheme multitree --n 13 --d 3 --mode pipelined",
        "--scheme hypercube --n 13 --d 2",
        "--scheme chain --n 13",
        "--scheme singletree --n 13 --d 3",
    ];

    fn spec_of(flags: &str) -> SchemeSpec {
        let argv: Vec<String> = flags.split_whitespace().map(str::to_string).collect();
        SchemeSpec::from_args(&ArgMap::parse(&argv).unwrap()).unwrap()
    }

    /// The reference engine's traced run of `spec` under `cfg`, split
    /// per node the way the lowering splits its own run.
    fn reference_split(spec: SchemeSpec, cfg: &SimConfig, track: u64) -> LoweredSchedule {
        let run = Simulator::run(spec.build().unwrap().as_mut(), cfg).unwrap();
        split_trace(&run, track)
    }

    fn assert_same(got: &LoweredSchedule, want: &LoweredSchedule, what: &str) {
        assert_eq!(got.slots_run, want.slots_run, "{what}");
        assert_eq!(got.sends, want.sends, "{what}");
        assert_eq!(got.expects, want.expects, "{what}");
    }

    /// The lowering's engine against the reference: the plain lowering
    /// runs mega's traced gear, the healed one its full mode under a
    /// stop-crash plan (and, with nobody dead, under a plan that only
    /// reports). Both must split into the reference's calendars.
    #[test]
    fn lowerings_split_what_the_reference_engine_traces() {
        let track = 20;
        for flags in LOWERED {
            let spec = spec_of(flags);
            let horizon = spec.worst_delay_bound().completion_horizon(track);
            // `SchemeParams` names pre-recorded schemes only.
            if !flags.contains("--mode") {
                let params = SchemeParams {
                    family: spec.family.label().into(),
                    n: spec.n as u64,
                    d: spec.d as u64,
                };
                assert_eq!(params.spec().unwrap(), spec, "{flags}");
                let cfg = SimConfig::until_complete(track, horizon).traced();
                let want = reference_split(spec, &cfg, track);
                assert_same(&lower_schedule(&params, track).unwrap(), &want, flags);
            }
            for dead in [&[][..], &[4], &[2, 9]] {
                let plan = FaultPlan {
                    loss_rate: 0.0,
                    seed: 0,
                    crashes: Vec::new(),
                    stop_crashes: dead.iter().map(|&d| (NodeId(d), 0)).collect(),
                };
                let cfg = SimConfig::with_faults(track, horizon, plan).traced();
                let want = reference_split(spec, &cfg, track);
                let mut scheme = spec.build().unwrap();
                let got = lower_scheme_healed(scheme.as_mut(), track, dead, horizon).unwrap();
                assert_same(&got, &want, &format!("{flags}, dead {dead:?}"));
            }
        }
    }

    #[test]
    fn lowering_covers_every_tracked_packet_for_every_receiver() {
        let params = SchemeParams {
            family: "multitree".into(),
            n: 9,
            d: 2,
        };
        let track = 8u64;
        let lowered = lower_schedule(&params, track).unwrap();
        assert!(lowered.slots_run > 0);
        for node in 1..=params.n as u32 {
            let expects = lowered.expects.get(&node).unwrap_or_else(|| {
                panic!("node {node} expects nothing — schedule lowering dropped a receiver")
            });
            for p in 0..track {
                assert!(
                    expects.iter().any(|e| e.packet == p),
                    "node {node} never expects packet {p}"
                );
            }
        }
        // Every expected arrival has a matching send on the other side.
        for (node, expects) in &lowered.expects {
            for e in expects {
                let sends = &lowered.sends[&e.from];
                assert!(
                    sends.iter().any(|s| s.to == *node && s.packet == e.packet),
                    "expect {e:?} at node {node} has no matching send"
                );
            }
        }
    }

    #[test]
    fn a_long_stream_lowers_within_its_completion_horizon() {
        // `cluster --nodes 2 --track 200000`: the lowering run used to
        // stop at a fixed 100 000 slots and fail with a hiccup.
        let params = SchemeParams {
            family: "multitree".into(),
            n: 2,
            d: 2,
        };
        let track = 200_000;
        let lowered = lower_schedule(&params, track).unwrap();
        let bound = params.spec().unwrap().worst_delay_bound().slots;
        assert!(lowered.slots_run <= track + bound, "{}", lowered.slots_run);
        for node in 1..=2 {
            assert_eq!(lowered.expects[&node].len() as u64, track, "n{node}");
        }
    }

    #[test]
    fn unknown_family_lists_valid_families() {
        let params = SchemeParams {
            family: "gossip".into(),
            n: 4,
            d: 2,
        };
        let err = params.build().map(|_| ()).unwrap_err();
        assert!(err.contains("unknown scheme family `gossip`"), "{err}");
        assert!(
            err.contains("multitree, hypercube, chain, singletree"),
            "{err}"
        );
    }

    #[test]
    fn params_build_what_the_hand_written_factory_built() {
        // `SchemeParams::build` used to carry its own constructor match;
        // these are the names and receiver counts it produced.
        for (family, n, d, name) in [
            ("multitree", 9, 2, "multi-tree(d=2, prerecorded)"),
            ("multitree", 40, 3, "multi-tree(d=3, prerecorded)"),
            ("hypercube", 9, 1, "hypercube(N=9)"),
            ("hypercube", 9, 2, "hypercube(N=9, d=2)"),
            // A hypercube split is clamped into 1..=n, as it always was.
            ("hypercube", 9, 0, "hypercube(N=9)"),
            ("hypercube", 3, 8, "hypercube(N=3, d=3)"),
            ("chain", 5, 2, "chain(N=5)"),
            ("singletree", 7, 2, "single-tree(d=2, elevated)"),
        ] {
            let params = SchemeParams {
                family: family.into(),
                n,
                d,
            };
            let scheme = params.build().unwrap();
            assert_eq!(scheme.name(), name, "{params:?}");
            assert_eq!(scheme.num_receivers() as u64, n, "{params:?}");
            let spec = params.spec().unwrap();
            assert_eq!(spec.build().unwrap().name(), name);
            assert_eq!((spec.family.label(), spec.n as u64), (family, n));
        }
    }

    #[test]
    fn out_of_domain_params_are_errors_not_asserts() {
        for (family, n, d, want) in [
            (
                "chain",
                0,
                1,
                "invalid configuration: need at least one receiver",
            ),
            (
                "singletree",
                0,
                2,
                "invalid configuration: need at least one receiver",
            ),
            (
                "singletree",
                4,
                0,
                "invalid configuration: tree degree d must be ≥ 1",
            ),
            (
                "multitree",
                4,
                0,
                "invalid configuration: tree degree d must be ≥ 1",
            ),
            (
                "hypercube",
                0,
                1,
                "invalid configuration: need at least one receiver",
            ),
        ] {
            let params = SchemeParams {
                family: family.into(),
                n,
                d,
            };
            assert_eq!(params.build().map(|_| ()).unwrap_err(), want, "{params:?}");
            assert_eq!(lower_schedule(&params, 4).map(|_| ()).unwrap_err(), want);
        }
    }

    #[test]
    fn node_config_roundtrips_through_json() {
        let cfg = NodeConfig {
            node: 3,
            n: 8,
            track: 12,
            max_slots: 40,
            slot_micros: 2000,
            suspect_timeout_slots: 8,
            gap_slack_slots: 2,
            nack_retry_slots: 4,
            nack_max_attempts: 10,
            sends: vec![LoweredSend {
                slot: 1,
                to: 4,
                packet: 0,
            }],
            expects: vec![LoweredRecv {
                slot: 1,
                from: 0,
                packet: 0,
            }],
            peers: vec![PeerAddr {
                node: 4,
                addr: "127.0.0.1:9999".into(),
            }],
            source_addr: "127.0.0.1:9998".into(),
            chaos: crate::faultspec::parse_chaos_spec("drop:3@10+40=0.05,partition:2/5@20+30")
                .unwrap(),
            chaos_seed: 0xC0FFEE,
            retransmit_budget_per_slot: 32,
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: NodeConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn schedule_update_roundtrips_through_json() {
        let upd = ScheduleUpdate {
            epoch: 2,
            barrier_slot: 40,
            sends: vec![LoweredSend {
                slot: 0,
                to: 5,
                packet: 7,
            }],
            expects: vec![LoweredRecv {
                slot: 1,
                from: 2,
                packet: 7,
            }],
            peers: vec![PeerAddr {
                node: 5,
                addr: "127.0.0.1:9997".into(),
            }],
        };
        let json = serde_json::to_string(&upd).unwrap();
        let back: ScheduleUpdate = serde_json::from_str(&json).unwrap();
        assert_eq!(back, upd);
    }
}
