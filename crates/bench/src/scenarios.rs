//! Flash-crowd & heterogeneity scenario runs (DESIGN.md §15).
//!
//! Two scenario families stress the paper's delay/buffer story beyond
//! the static populations of its figures:
//!
//! * **Flash crowd** — a [`ScenarioPlan`] join curve grows the forest
//!   online through a scripted [`DynamicMultiTree`] (the appendix add dynamics),
//!   then every node's arrival timeline is scored with the
//!   [`clustream_workloads::qoe`] playback model: the initial-buffering
//!   vs. interruption tradeoff and the throughput–smoothness frontier,
//!   each swept over a delay grid that pins the paper's `h·d` worst-delay
//!   bound (Theorem 2) at the *final* population — the delay budget at
//!   which the frontier should flatten.
//! * **Heterogeneity** — the same overlay replayed through the DES with
//!   a [`clustream_des::CapacityClassPlan`] over the serialized uplink gate: fiber /
//!   cable / mobile nodes drawn by seeded zipf, per-class QoE reported
//!   side by side.
//!
//! The catalog items `ext_flash_crowd` and `ext_heterogeneity` render
//! these reports at their one parameter set; a crowd of any size is a
//! plain `clustream simulate --scenario` run.

use clustream_analysis::thm2_worst_delay_bound;
use clustream_core::Scheme;
use clustream_des::CapacityClass;
use clustream_plan::{member_timelines, CliError, Family, RunPlan, SchemeSpec};
use clustream_recovery::DynamicMultiTree;
use clustream_sim::RunResult;
use clustream_telemetry::Telemetry;
use clustream_workloads::{
    initial_buffering_frontier, summarize, throughput_smoothness_frontier, NodeTimeline,
    PlayPolicy, QoeSummary, ScenarioPlan,
};

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
/// scheme: the reports read its post-run state (a fresh replica would
/// report one rebuild, not the run's). Survivors are the scheme's current
/// members — nodes that left (regional failures) have no player to stall.
fn run_crowd(plan: &RunPlan) -> Result<(RunResult, DynamicMultiTree, Vec<NodeTimeline>), CliError> {
    plan.validate()?;
    let scenario = plan.scenario.as_ref().ok_or_else(|| {
        CliError::Usage("a crowd run needs a scenario (an empty one will do)".into())
    })?;
    let mut crowd = plan.scheme.dynamic(Some(scenario))?;
    let (_, r, _) = plan.run_scheme(&mut crowd, &Telemetry::disabled())?;
    let timelines = member_timelines(&r, &crowd, plan.track);
    Ok((r, crowd, timelines))
}

/// The delay grid a frontier is swept over: powers of two up to `2·bound`
/// with the bound itself pinned as a grid point, so every frontier table
/// has an exact row at the paper's `h·d` budget.
fn delay_grid(bound: u64) -> Vec<u64> {
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

/// Outcome of one flash-crowd run.
#[derive(Debug, Clone, PartialEq)]
pub struct FlashCrowdReport {
    pub joins_applied: u64,
    pub final_members: u64,
    pub rebuilds: u64,
    pub total_swaps: usize,
    pub settled_slot: u64,
    /// Theorem 2's `h·d` worst-delay bound at the final population — the
    /// initial-buffering budget that should close the frontier.
    pub bound_h_d: u64,
    /// Measured worst playback delay over the run.
    pub max_delay: u64,
    /// Interruption probability vs. initial buffering (Wait policy).
    pub initial_buffering: Vec<QoeSummary>,
    /// Throughput–smoothness frontier (both policies over the grid).
    pub throughput_smoothness: Vec<QoeSummary>,
}

/// Run one flash-crowd plan (see [`crowd_plan`]; pick the slot engine
/// with [`RunPlan::engine`]) and score the survivors' QoE.
pub fn run_flash_crowd(plan: &RunPlan) -> Result<FlashCrowdReport, CliError> {
    let (r, crowd, timelines) = run_crowd(plan)?;
    let final_members = timelines.len() as u64;
    let bound = thm2_worst_delay_bound(final_members as usize, plan.scheme.d);
    let grid = delay_grid(bound);
    Ok(FlashCrowdReport {
        joins_applied: crowd.joins_applied(),
        final_members,
        rebuilds: crowd.rebuilds(),
        total_swaps: crowd.total_swaps(),
        settled_slot: crowd.settled_slot(),
        bound_h_d: bound,
        max_delay: r.qos.max_delay(),
        initial_buffering: initial_buffering_frontier(&timelines, &grid),
        throughput_smoothness: throughput_smoothness_frontier(&timelines, &grid),
    })
}

/// Outcome of one heterogeneity run.
#[derive(Debug, Clone, PartialEq)]
pub struct HeterogeneityReport {
    /// Canonical class spec (round-trips through
    /// [`clustream_des::CapacityClassPlan::parse`]).
    pub classes: String,
    pub bound_h_d: u64,
    pub max_delay: u64,
    /// Each class, and the QoE of its nodes at the paper's `h·d` delay
    /// budget (Wait policy; `nodes` counts them).
    pub per_class: Vec<(CapacityClass, QoeSummary)>,
}

/// Run one heterogeneity plan through the DES: a [`crowd_plan`] on
/// the DES runtime under a serialized uplink whose per-node credit is
/// drawn from [`RunPlan::classes`], optionally with regional failures
/// and late joins in its scenario. Reports per-class QoE side by side.
///
/// Latency jitter ([`clustream_des::LatencyModel::UniformJitter`]) is
/// what makes class capacity *bite*: under fixed latency every
/// forwarder's demand is exactly one send per slot, which even a mobile
/// uplink absorbs on time. Jitter bunches a delayed send against the next
/// slot's, and a burst of two is where a capacity-4 fiber uplink shrugs
/// and a capacity-1 mobile uplink queues — the queueing cascades down the
/// mobile node's subtree.
pub fn run_heterogeneity(plan: &RunPlan) -> Result<HeterogeneityReport, CliError> {
    // The rule book keeps classes off the slot runtime.
    let Some(classes) = &plan.classes else {
        return Err(CliError::Usage(
            "a heterogeneity run needs capacity classes".into(),
        ));
    };
    let (r, crowd, timelines) = run_crowd(plan)?;
    let bound = thm2_worst_delay_bound(timelines.len(), plan.scheme.d);

    // Slice the population by assigned class. The assignment is the
    // same seeded draw the engine used (same plan, same id space).
    let assigned = classes.assign_classes(crowd.num_receivers() + 1);
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
            (c.clone(), summarize(&slice, PlayPolicy::Wait, bound))
        })
        .collect();

    Ok(HeterogeneityReport {
        classes: classes.to_string(),
        bound_h_d: bound,
        max_delay: r.qos.max_delay(),
        per_class,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustream_des::{CapacityClassPlan, LatencyModel, UplinkModel};
    use clustream_plan::{Engine, Runtime};

    #[test]
    fn a_flash_crowd_report_counts_the_crowd_and_pins_the_bound() {
        let plan = ScenarioPlan::parse("step:20@4").unwrap();
        let rep = run_flash_crowd(&crowd_plan(10, 2, plan, 16, 400)).unwrap();
        assert_eq!(rep.joins_applied, 20);
        assert_eq!(rep.final_members, 30);
        assert_eq!(rep.bound_h_d, thm2_worst_delay_bound(30, 2));
        // The frontier sweeps the Wait policy and pins the h·d bound as
        // a grid point; the second frontier sweeps both policies.
        let at = rep
            .initial_buffering
            .iter()
            .find(|p| p.initial_delay == rep.bound_h_d);
        let at = at.expect("the bound is a grid point");
        assert_eq!((at.policy, at.nodes), (PlayPolicy::Wait, 30));
        assert_eq!(
            rep.throughput_smoothness.len(),
            2 * rep.initial_buffering.len()
        );
    }

    #[test]
    fn engines_agree_on_the_crowd_report() {
        let plan = ScenarioPlan::parse("ramp:30@2+8").unwrap();
        let mega = crowd_plan(8, 3, plan, 12, 300);
        let reference = RunPlan {
            engine: Some(Engine::Reference),
            ..mega.clone()
        };
        assert_eq!(reference.label(), "reference");
        assert_eq!(
            run_flash_crowd(&reference).unwrap(),
            run_flash_crowd(&mega).unwrap()
        );
    }

    #[test]
    fn a_heterogeneity_report_slices_every_member_into_one_class() {
        let classes = CapacityClassPlan::parse("fiber,cable,mobile")
            .unwrap()
            .seeded(3);
        let plan = RunPlan {
            runtime: Runtime::Des,
            uplink: UplinkModel::Serialized,
            classes: Some(classes),
            latency: LatencyModel::UniformJitter { jitter: 0.75 },
            des_seed: Some(1),
            ..crowd_plan(40, 2, ScenarioPlan::default(), 16, 600)
        };
        let rep = run_heterogeneity(&plan).unwrap();
        assert_eq!(rep.classes, "fiber:4,cable:2,mobile:1");
        assert_eq!(rep.bound_h_d, thm2_worst_delay_bound(40, 2));
        let caps: Vec<usize> = rep.per_class.iter().map(|(c, _)| c.capacity).collect();
        assert_eq!(caps, [4, 2, 1]);
        assert_eq!(
            rep.per_class.iter().map(|(_, q)| q.nodes).sum::<u64>(),
            40,
            "every member lands in exactly one class"
        );
        for (_, q) in &rep.per_class {
            assert_eq!(q.initial_delay, rep.bound_h_d);
        }
    }

    #[test]
    fn a_heterogeneity_run_needs_capacity_classes() {
        let plan = crowd_plan(10, 2, ScenarioPlan::default(), 8, 100);
        let err = run_heterogeneity(&plan).unwrap_err();
        assert!(err.to_string().contains("needs capacity classes"), "{err}");
    }

    #[test]
    fn delay_grid_pins_the_bound() {
        let g = delay_grid(6);
        assert!(g.contains(&0) && g.contains(&6) && g.contains(&8));
        assert!(g.windows(2).all(|w| w[0] < w[1]));
    }
}
