//! Session planning: choose per-cluster schemes from QoS constraints.
//!
//! Table 1 is a decision table; this module applies it per cluster.
//! Given each cluster's size and (optional) per-node buffer budget, the
//! planner picks the intra-cluster scheme minimizing that cluster's
//! predicted worst-case playback delay subject to the budget, and
//! assembles the mixed [`ClusterSession`]. Budgets are in *resident*
//! packets (the simulator's measured high-water mark may additionally
//! count one in-slot transient).

use crate::session::{ClusterSession, IntraScheme};
use clustream_analysis as analysis;
use clustream_core::CoreError;
use clustream_multitree::Construction;

/// QoS requirements of one cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterRequirement {
    /// Members.
    pub size: usize,
    /// Per-node buffer budget in resident packets (`None` = unlimited).
    pub buffer_budget: Option<usize>,
}

/// A planned cluster: the chosen scheme and its predicted figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedCluster {
    /// The requirement this answers.
    pub requirement: ClusterRequirement,
    /// The chosen scheme.
    pub scheme: IntraScheme,
    /// Predicted intra-cluster worst-case delay (excluding backbone σ).
    pub predicted_intra_delay: u64,
    /// Predicted resident buffer requirement.
    pub predicted_buffer: u64,
}

/// Plan one cluster: multi-tree at the optimal degree when the buffer
/// budget allows `h·d` packets, otherwise a hypercube chain (2 resident
/// packets).
pub fn plan_cluster(req: ClusterRequirement) -> Result<PlannedCluster, CoreError> {
    if req.size == 0 {
        return Err(CoreError::InvalidConfig("empty cluster".into()));
    }
    let d = analysis::optimal_degree(req.size.max(2), 8);
    let mt_buffer = analysis::multitree::buffer_bound(req.size, d);
    let construction = Construction::Greedy;
    let mt = IntraScheme::MultiTree { d, construction };
    let hc = IntraScheme::Hypercube { d: 1 };
    let mt_delay = mt.worst_delay_bound(req.size);
    let hc_delay = hc.worst_delay_bound(req.size);

    let fits_multitree = req.buffer_budget.is_none_or(|b| b as u64 >= mt_buffer);
    // Prefer the lower predicted delay among feasible options; hypercube
    // (2 resident packets) is always feasible for budgets ≥ 2.
    if fits_multitree && (mt_delay <= hc_delay || req.buffer_budget.is_none()) {
        Ok(PlannedCluster {
            requirement: req,
            scheme: mt,
            predicted_intra_delay: mt_delay,
            predicted_buffer: mt_buffer,
        })
    } else if req.buffer_budget.is_none_or(|b| b >= 2) {
        Ok(PlannedCluster {
            requirement: req,
            scheme: hc,
            predicted_intra_delay: hc_delay,
            predicted_buffer: 2,
        })
    } else {
        Err(CoreError::InvalidConfig(format!(
            "no scheme fits a buffer budget of {:?} packets",
            req.buffer_budget
        )))
    }
}

/// Plan a whole session.
pub fn plan_session(
    requirements: &[ClusterRequirement],
    big_d: usize,
    t_c: u32,
) -> Result<(ClusterSession, Vec<PlannedCluster>), CoreError> {
    let plans: Vec<PlannedCluster> = requirements
        .iter()
        .map(|&r| plan_cluster(r))
        .collect::<Result<_, _>>()?;
    let specs: Vec<(usize, IntraScheme)> = plans
        .iter()
        .map(|p| (p.requirement.size, p.scheme))
        .collect();
    let session = ClusterSession::new_mixed(&specs, big_d, t_c)?;
    Ok((session, plans))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustream_core::NodeId;
    use clustream_sim::{SimConfig, Simulator};

    #[test]
    fn unconstrained_clusters_get_multitree() {
        let p = plan_cluster(ClusterRequirement {
            size: 100,
            buffer_budget: None,
        })
        .unwrap();
        assert!(matches!(p.scheme, IntraScheme::MultiTree { d: 2..=3, .. }));
    }

    #[test]
    fn tight_budgets_get_hypercube() {
        let p = plan_cluster(ClusterRequirement {
            size: 100,
            buffer_budget: Some(3),
        })
        .unwrap();
        assert!(matches!(p.scheme, IntraScheme::Hypercube { .. }));
        assert!(p.predicted_buffer <= 3);
    }

    #[test]
    fn impossible_budgets_error() {
        assert!(plan_cluster(ClusterRequirement {
            size: 50,
            buffer_budget: Some(1)
        })
        .is_err());
        assert!(plan_cluster(ClusterRequirement {
            size: 0,
            buffer_budget: None
        })
        .is_err());
    }

    #[test]
    fn planned_sessions_honor_budgets_in_simulation() {
        let reqs = [
            ClusterRequirement {
                size: 20,
                buffer_budget: None,
            },
            ClusterRequirement {
                size: 15,
                buffer_budget: Some(2),
            },
            ClusterRequirement {
                size: 25,
                buffer_budget: Some(64),
            },
        ];
        let (mut session, plans) = plan_session(&reqs, 3, 5).unwrap();
        assert!(matches!(plans[0].scheme, IntraScheme::MultiTree { .. }));
        assert!(matches!(plans[1].scheme, IntraScheme::Hypercube { .. }));
        assert!(matches!(plans[2].scheme, IntraScheme::MultiTree { .. }));

        let r = Simulator::run(&mut session, &SimConfig::until_complete(24, 100_000)).unwrap();
        for (i, plan) in plans.iter().enumerate() {
            if let Some(budget) = plan.requirement.buffer_budget {
                for m in session.members_of(i) {
                    let b = r.qos.node(NodeId(m)).unwrap().max_buffer;
                    // Resident budget + 1 in-slot transient.
                    assert!(
                        b <= budget + 1,
                        "cluster {i} node {m}: buffer {b} over budget {budget}"
                    );
                }
            }
        }
    }

    #[test]
    fn planner_minimizes_delay_for_small_special_sizes() {
        // For N = 2^k − 1 and generous budgets, the hypercube's k+1 delay
        // beats h·d + d only sometimes; the planner must take whichever
        // prediction wins when the budget forces comparison.
        let p = plan_cluster(ClusterRequirement {
            size: 7,
            buffer_budget: Some(4),
        })
        .unwrap();
        // mt: d=2 h=2 → bound 4+2=6 buffer 4; hc: delay 4. Budget 4 fits
        // multitree, but hypercube is faster — with a binding budget the
        // planner compares delays.
        assert!(matches!(p.scheme, IntraScheme::Hypercube { .. }), "{p:?}");
    }
}
