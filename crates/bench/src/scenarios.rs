//! Flash-crowd & heterogeneity scenario experiments (DESIGN.md §15).
//!
//! Two scenario families stress the paper's delay/buffer story beyond
//! the static populations of its figures:
//!
//! * **Flash crowd** — a [`ScenarioPlan`] join curve grows the forest
//!   online through a scripted [`DynamicMultiTree`] (the appendix add dynamics),
//!   then every node's arrival timeline is scored with the
//!   [`clustream_workloads::qoe`] playback model: interruption
//!   probability, the initial-buffering vs. interruption tradeoff and
//!   the throughput–smoothness frontier, each annotated with the
//!   paper's `h·d` worst-delay bound (Theorem 2) at the *final*
//!   population — the delay budget at which the frontier should flatten.
//! * **Heterogeneity** — the same overlay replayed through the DES with
//!   a [`clustream_des::CapacityClassPlan`] over the serialized uplink gate: fiber /
//!   cable / mobile nodes drawn by seeded zipf, per-class QoE reported
//!   side by side.
//!
//! Both produce serde-serializable reports; `ext_flash_crowd` and
//! `ext_heterogeneity` are the JSON-emitting wrappers, and CI pins a
//! small oracle-closed crowd in the quick tier plus a 10⁵-join crowd on
//! the mega engine in the full tier.

use clustream_analysis::thm2_worst_delay_bound;
use clustream_core::{NodeId, Scheme};
use clustream_des::LatencyModel;
use clustream_plan::{member_timelines, CliError, Family, RunPlan, Runtime, SchemeSpec};
use clustream_recovery::DynamicMultiTree;
use clustream_sim::RunResult;
use clustream_telemetry::Telemetry;
use clustream_workloads::{
    initial_buffering_frontier, summarize, throughput_smoothness_frontier, NodeTimeline,
    PlayPolicy, QoeSummary, ScenarioPlan,
};
use serde::{Deserialize, Serialize};

/// `debug` or `release` — recorded in every report, since only release
/// wall times are representative.
fn build_label() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Write `report` to `path` as pretty, newline-terminated JSON, and say
/// so.
pub fn write_report<T: Serialize>(path: &str, report: &T) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(report).expect("serializable");
    std::fs::write(path, json + "\n")?;
    println!("wrote {path}");
    Ok(())
}

/// The plan of one crowd run: `scenario` (an empty one streams the
/// static forest) over an `n0`-member degree-`d` greedy forest, on the
/// mega slot engine, in the fault-tolerant regime, for `horizon` slots.
pub fn crowd_plan(
    n0: usize,
    d: usize,
    scenario: ScenarioPlan,
    track: u64,
    horizon: u64,
) -> RunPlan {
    RunPlan {
        horizon: Some(horizon),
        scenario: Some(scenario),
        ..RunPlan::new(SchemeSpec::new(Family::MultiTree, n0, d), track)
    }
}

/// Validate `plan`, run it on a crowd scheme of its own and keep the
/// scheme: the reports read its post-run state. Survivors are the
/// scheme's current members — nodes that left (regional failures) have
/// no player to stall.
fn run_crowd(
    plan: &RunPlan,
) -> Result<(String, RunResult, DynamicMultiTree, Vec<NodeTimeline>), CliError> {
    plan.validate()?;
    let scenario = plan.scenario.as_ref().ok_or_else(|| {
        CliError::Usage("a crowd run needs a scenario (an empty one will do)".into())
    })?;
    let mut crowd = plan.scheme.dynamic(Some(scenario))?;
    let (engine, r, _) = plan.run_scheme(&mut crowd, &Telemetry::disabled())?;
    let timelines = member_timelines(&r, &crowd, plan.track, |id| {
        crowd.is_member(NodeId(id as u32))
    });
    Ok((engine, r, crowd, timelines))
}

/// The delay grid a frontier is swept over: powers of two up to `2·bound`
/// with the bound itself pinned as a grid point, so every frontier table
/// has an exact row at the paper's `h·d` budget.
pub fn delay_grid(bound: u64) -> Vec<u64> {
    let mut grid = vec![0u64];
    let mut v = 1u64;
    while v <= bound.saturating_mul(2) {
        grid.push(v);
        v *= 2;
    }
    grid.push(bound);
    grid.sort_unstable();
    grid.dedup();
    grid
}

/// Machine-readable outcome of one flash-crowd run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlashCrowdReport {
    pub build: String,
    pub engine: String,
    pub n0: usize,
    pub d: usize,
    /// Canonical scenario spec (round-trips through [`ScenarioPlan::parse`]).
    pub scenario: String,
    pub track: u64,
    pub horizon: u64,
    pub joins_applied: u64,
    pub leaves_applied: u64,
    pub final_members: u64,
    pub rebuilds: u64,
    pub total_swaps: usize,
    pub settled_slot: u64,
    /// Theorem 2's `h·d` worst-delay bound at the final population — the
    /// initial-buffering budget that should close the frontier.
    pub bound_h_d: u64,
    /// Measured worst playback delay over the run.
    pub max_delay: u64,
    /// QoE at the paper's bound, both policies.
    pub qoe_wait_at_bound: QoeSummary,
    pub qoe_skip_at_bound: QoeSummary,
    /// Interruption probability vs. initial buffering (Wait policy).
    pub initial_buffering: Vec<QoeSummary>,
    /// Throughput–smoothness frontier (both policies over the grid).
    pub throughput_smoothness: Vec<QoeSummary>,
    pub wall_ms: u64,
}

/// Run one flash-crowd plan (see [`crowd_plan`]; pick the slot engine
/// with [`RunPlan::engine`]) and score the survivors' QoE.
pub fn run_flash_crowd(plan: &RunPlan) -> Result<FlashCrowdReport, CliError> {
    let t0 = std::time::Instant::now();
    let (engine, r, crowd, timelines) = run_crowd(plan)?;
    let final_members = timelines.len() as u64;
    let bound = thm2_worst_delay_bound(final_members as usize, plan.scheme.d);
    let grid = delay_grid(bound);
    Ok(FlashCrowdReport {
        build: build_label().to_string(),
        engine,
        n0: plan.scheme.n,
        d: plan.scheme.d,
        scenario: plan.scenario.iter().map(|s| s.to_string()).collect(),
        track: plan.track,
        horizon: plan.horizon_slots(),
        joins_applied: crowd.joins_applied(),
        leaves_applied: crowd.leaves_applied(),
        final_members,
        rebuilds: crowd.rebuilds(),
        total_swaps: crowd.total_swaps(),
        settled_slot: crowd.settled_slot(),
        bound_h_d: bound,
        max_delay: r.qos.max_delay(),
        qoe_wait_at_bound: summarize(&timelines, PlayPolicy::Wait, bound),
        qoe_skip_at_bound: summarize(&timelines, PlayPolicy::Skip, bound),
        initial_buffering: initial_buffering_frontier(&timelines, &grid),
        throughput_smoothness: throughput_smoothness_frontier(&timelines, &grid),
        wall_ms: t0.elapsed().as_millis() as u64,
    })
}

/// Per-class slice of a heterogeneity run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassQoe {
    pub class: String,
    pub capacity: usize,
    pub nodes: u64,
    /// QoE for this class's nodes at the paper's `h·d` delay budget
    /// (Wait policy).
    pub qoe_wait_at_bound: QoeSummary,
}

/// Machine-readable outcome of one heterogeneity run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeterogeneityReport {
    pub build: String,
    pub n0: usize,
    pub d: usize,
    /// Canonical class spec (round-trips through
    /// [`clustream_des::CapacityClassPlan::parse`]).
    pub classes: String,
    pub zipf_exponent: f64,
    pub seed: u64,
    /// Uniform latency-jitter width in slots (`0.0` = fixed wire times).
    pub jitter: f64,
    /// Scenario layered on top (regional failures / joins); empty = none.
    pub scenario: String,
    pub track: u64,
    pub horizon: u64,
    pub bound_h_d: u64,
    pub max_delay: u64,
    pub per_class: Vec<ClassQoe>,
    /// Whole-population throughput–smoothness frontier.
    pub throughput_smoothness: Vec<QoeSummary>,
    pub wall_ms: u64,
}

/// Run one heterogeneity plan through the DES: a [`crowd_plan`] on
/// [`Runtime::Des`] under a serialized uplink whose per-node credit is
/// drawn from [`RunPlan::classes`], optionally with regional failures
/// and late joins in its scenario. Reports per-class QoE side by side.
///
/// Latency jitter ([`LatencyModel::UniformJitter`]) is what makes class
/// capacity *bite*: under fixed latency every forwarder's demand is
/// exactly one send per slot, which even a mobile uplink absorbs on
/// time. Jitter bunches a delayed send against the next slot's, and a
/// burst of two is where a capacity-4 fiber uplink shrugs and a
/// capacity-1 mobile uplink queues — the queueing cascades down the
/// mobile node's subtree.
pub fn run_heterogeneity(plan: &RunPlan) -> Result<HeterogeneityReport, CliError> {
    let t0 = std::time::Instant::now();
    let classes = plan
        .classes
        .as_ref()
        .filter(|_| plan.runtime == Runtime::Des)
        .ok_or_else(|| CliError::Usage("a heterogeneity run needs DES capacity classes".into()))?;
    let (_, r, crowd, timelines) = run_crowd(plan)?;
    let (n0, d) = (plan.scheme.n, plan.scheme.d);
    let n_ids = crowd.num_receivers() + 1;
    let bound = thm2_worst_delay_bound(timelines.len(), d);
    let grid = delay_grid(bound);

    // Slice the population by assigned class. The assignment is the
    // same seeded draw the engine used (same plan, same id space).
    let assigned = classes.assign_classes(n_ids);
    let per_class = classes
        .classes
        .iter()
        .enumerate()
        .map(|(k, c)| {
            let slice: Vec<NodeTimeline> = timelines
                .iter()
                .filter(|tl| assigned[tl.node as usize] == k)
                .cloned()
                .collect();
            ClassQoe {
                class: c.name.clone(),
                capacity: c.capacity,
                nodes: slice.len() as u64,
                qoe_wait_at_bound: summarize(&slice, PlayPolicy::Wait, bound),
            }
        })
        .collect();

    Ok(HeterogeneityReport {
        build: build_label().to_string(),
        n0,
        d,
        classes: classes.to_string(),
        zipf_exponent: classes.zipf_exponent,
        seed: classes.seed,
        jitter: match plan.latency {
            LatencyModel::UniformJitter { jitter } => jitter,
            _ => 0.0,
        },
        scenario: plan.scenario.iter().map(|s| s.to_string()).collect(),
        track: plan.track,
        horizon: plan.horizon_slots(),
        bound_h_d: bound,
        max_delay: r.qos.max_delay(),
        per_class,
        throughput_smoothness: throughput_smoothness_frontier(&timelines, &grid),
        wall_ms: t0.elapsed().as_millis() as u64,
    })
}

/// Oracle closure for a crowd plan: the slot world (mega engine) and the
/// DES must agree bit for bit on the replay. Returns the divergence
/// description on failure — `ext_flash_crowd --oracle` turns it into a
/// nonzero exit, which is the CI quick-tier gate.
pub fn flash_crowd_oracle(plan: &RunPlan) -> Result<(), String> {
    let checked = RunPlan {
        runtime: Runtime::DesChecked,
        ..plan.clone()
    };
    match checked.run(&Telemetry::disabled()) {
        Ok(_) => Ok(()),
        Err(e) => Err(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustream_des::{CapacityClassPlan, UplinkModel};
    use clustream_plan::Engine;

    #[test]
    fn flash_crowd_report_round_trips_through_json() {
        let plan = ScenarioPlan::parse("step:20@4").unwrap();
        let rep = run_flash_crowd(&crowd_plan(10, 2, plan, 16, 400)).unwrap();
        assert_eq!(rep.engine, "mega");
        assert_eq!(rep.joins_applied, 20);
        assert_eq!(rep.final_members, 30);
        assert_eq!(rep.scenario, "step:20@4");
        // The frontier sweeps the Wait policy and pins the h·d bound as
        // a grid point.
        assert!(rep
            .initial_buffering
            .iter()
            .any(|p| p.initial_delay == rep.bound_h_d));
        let json = serde_json::to_string(&rep).unwrap();
        let back: FlashCrowdReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.final_members, rep.final_members);
        assert_eq!(back.qoe_wait_at_bound, rep.qoe_wait_at_bound);
        assert_eq!(
            back.throughput_smoothness.len(),
            rep.throughput_smoothness.len()
        );
    }

    #[test]
    fn engines_agree_on_the_crowd_report() {
        let plan = ScenarioPlan::parse("ramp:30@2+8").unwrap();
        let mega = crowd_plan(8, 3, plan, 12, 300);
        let reference = RunPlan {
            engine: Engine::Reference,
            ..mega.clone()
        };
        let (mega, reference) = (
            run_flash_crowd(&mega).unwrap(),
            run_flash_crowd(&reference).unwrap(),
        );
        assert_eq!(reference.engine, "reference");
        assert_eq!(reference.max_delay, mega.max_delay);
        assert_eq!(reference.qoe_wait_at_bound, mega.qoe_wait_at_bound);
        assert_eq!(reference.initial_buffering, mega.initial_buffering);
    }

    #[test]
    fn heterogeneity_report_round_trips_through_json() {
        let classes = CapacityClassPlan::parse("fiber,cable,mobile")
            .unwrap()
            .seeded(3);
        let plan = RunPlan {
            runtime: Runtime::Des,
            uplink: UplinkModel::Serialized,
            classes: Some(classes),
            latency: LatencyModel::UniformJitter { jitter: 0.75 },
            des_seed: 1,
            ..crowd_plan(40, 2, ScenarioPlan::default(), 16, 600)
        };
        let rep = run_heterogeneity(&plan).unwrap();
        assert_eq!(rep.jitter, 0.75);
        assert_eq!(rep.scenario, "");
        assert_eq!(rep.classes, "fiber:4,cable:2,mobile:1");
        assert_eq!(rep.per_class.len(), 3);
        assert_eq!(
            rep.per_class.iter().map(|c| c.nodes).sum::<u64>(),
            40,
            "every member lands in exactly one class"
        );
        let json = serde_json::to_string(&rep).unwrap();
        let back: HeterogeneityReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.per_class.len(), rep.per_class.len());
        assert_eq!(back.max_delay, rep.max_delay);
    }

    #[test]
    fn small_crowd_is_oracle_closed() {
        let plan = ScenarioPlan::parse("spikes:12@2+3=2").unwrap();
        flash_crowd_oracle(&crowd_plan(6, 2, plan, 12, 300)).unwrap();
    }

    #[test]
    fn delay_grid_pins_the_bound() {
        let g = delay_grid(6);
        assert!(g.contains(&0) && g.contains(&6) && g.contains(&8));
        assert!(g.windows(2).all(|w| w[0] < w[1]));
    }
}
