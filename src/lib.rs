//! # clustream
//!
//! Structured peer-to-peer streaming overlays with **provable
//! playback-delay / buffer-space tradeoffs**, reproducing Chow, Golubchik,
//! Khuller & Yao, *"On the Tradeoff Between Playback Delay and Buffer
//! Space in Streaming"* (USC CSTR 09-904 / IPPS 2009).
//!
//! A source streams an ordered packet sequence to `N` receivers that can
//! each send and receive one packet per time slot. Two overlay families
//! are provided, spanning the paper's Table 1 tradeoff:
//!
//! | Scheme | Max delay | Avg delay | Buffer | Neighbors |
//! |---|---|---|---|---|
//! | Multi-tree | `O(d·log N)` | `O(d·log N)` | `O(d·log N)` | `O(d)` |
//! | Hypercube (N = 2ᵏ−1) | `O(log N)` | `O(log N)` | `O(1)` | `O(log N)` |
//! | Hypercube (any N) | `O(log²(N/d))` | `O(log(N/d))` | `O(1)` | `O(log(N/d))` |
//!
//! ## Quick start
//!
//! ```
//! use clustream::prelude::*;
//!
//! // 100 receivers over d = 3 interior-disjoint trees.
//! let forest = greedy_forest(100, 3)?;
//! let mut scheme = MultiTreeScheme::new(forest, StreamMode::PreRecorded);
//! let run = Simulator::run(&mut scheme, &SimConfig::until_complete(64, 10_000))?;
//! assert!(run.qos.max_delay() <= thm2_worst_delay_bound(100, 3));
//!
//! // The same stream over chained hypercubes: tiny buffers instead.
//! let mut cube = HypercubeStream::new(100)?;
//! let run = Simulator::run(&mut cube, &SimConfig::until_complete(64, 10_000))?;
//! assert!(run.qos.max_buffer() <= 3);
//! # Ok::<(), clustream::CoreError>(())
//! ```
//!
//! ## Crate map
//!
//! * [`core`](mod@core) — ids, the [`Scheme`]
//!   trait, QoS types;
//! * [`sim`](mod@sim) — the validating slot simulator;
//! * [`des`](mod@des) — the asynchronous discrete-event runtime
//!   (latency models, uplink gates, churn) and the differential oracle
//!   that holds every engine column to one result
//!   ([`Column`](des::Column), [`agree`](des::agree));
//! * [`multitree`](mod@multitree) — §2: interior-disjoint trees,
//!   schedules, churn dynamics;
//! * [`hypercube`](mod@hypercube) — §3: the `O(1)`-buffer exchange
//!   protocol and chained cubes;
//! * [`overlay`](mod@overlay) — §2.1: multi-cluster sessions over
//!   the super-tree `τ`;
//! * [`baselines`](mod@baselines) — chain and single-tree strawmen;
//! * [`analysis`](mod@analysis) — Theorems 1–4 / Propositions 1–2
//!   closed forms;
//! * [`npc`](mod@npc) — the Two Interior-Disjoint Tree problem and
//!   the E-4 Set Splitting reduction;
//! * [`workloads`](mod@workloads) — churn traces and sweep grids;
//! * [`recovery`](mod@recovery) — failure detection, self-healing tree
//!   repair and NACK retransmission;
//! * [`telemetry`](mod@telemetry) — zero-cost-when-disabled counters,
//!   histograms and span timers behind every engine;
//! * [`mc`](mod@mc) — the invariant model-checker: pluggable invariant
//!   registry, exhaustive small-world lattice driver, coverage-guided
//!   explorer with shrinking repro corpus;
//! * [`net`](mod@net) — real networked deployment: `clustream-node`
//!   processes executing lowered schedules over TCP/Unix sockets, a
//!   kill-injecting cluster orchestrator, and the DES replay oracle.

#![warn(missing_docs)]

pub use clustream_analysis as analysis;
pub use clustream_baselines as baselines;
pub use clustream_core as core;
pub use clustream_des as des;
pub use clustream_hypercube as hypercube;
pub use clustream_mc as mc;
pub use clustream_multitree as multitree;
pub use clustream_net as net;
pub use clustream_npc as npc;
pub use clustream_overlay as overlay;
pub use clustream_recovery as recovery;
pub use clustream_sim as sim;
pub use clustream_telemetry as telemetry;
pub use clustream_workloads as workloads;

pub use clustream_core::{
    Availability, CoreError, NodeId, NodeQos, PacketId, QosReport, Scheme, Slot, StateView,
    Transmission, SOURCE,
};

/// One-stop imports for applications.
pub mod prelude {
    pub use clustream_analysis::{
        chained_avg_delay, chained_worst_delay, optimal_degree, thm1_delay_bound,
        thm2_worst_delay_bound, thm3_avg_delay_lower_bound, thm4_avg_bound, tree_height,
    };
    pub use clustream_baselines::{ChainScheme, SingleTreeScheme};
    pub use clustream_core::{
        Availability, CoreError, NodeId, NodeQos, PacketId, QosReport, Scheme, Slot, StateView,
        Transmission, SOURCE,
    };
    pub use clustream_des::{
        agree, CapacityClass, CapacityClassPlan, CheckedQueue, Column, DesConfig, DesEngine, Event,
        EventKind, EventQueue, HeapQueue, LatencyModel, QueueKind, UplinkModel, WheelQueue,
    };
    pub use clustream_hypercube::HypercubeStream;
    pub use clustream_mc::{
        check_genome, exhaustive, explore, shrink, ExploreOptions, Genome, LatticeOptions,
    };
    pub use clustream_multitree::{
        build_forest, greedy_forest, structured_forest, Construction, DelayProfile, DisjointTrees,
        DynamicForest, MultiTreeScheme, StreamMode,
    };
    pub use clustream_net::{
        compare_delivery_order, replay_in_des, run_cluster, ClusterOptions, ClusterOutcome,
        RunTrace, SchemeParams, Transport,
    };
    pub use clustream_overlay::{Backbone, ClusterSession, IntraScheme};
    pub use clustream_recovery::{DynamicMultiTree, RecoveryConfig, RecoveryMode};
    pub use clustream_sim::{
        diff_fields, sweep, ArrivalTable, MegaEngine, MegaSimulator, RunResult, SimConfig,
        Simulator,
    };
    pub use clustream_telemetry::{MemoryRecorder, Recorder, Telemetry};
    pub use clustream_workloads::{
        initial_buffering_frontier, summarize, throughput_smoothness_frontier, ChurnAction,
        ChurnTrace, ChurnTraceConfig, JoinCurve, NodeTimeline, PlayPolicy, QoeSummary,
        RegionalFailure, ScenarioPlan,
    };
}

/// Pick the scheme the paper's Table 1 recommends for given QoS
/// priorities.
///
/// * Tight playback deadlines and plentiful memory → multi-tree with the
///   optimal degree (2 or 3);
/// * memory-constrained receivers (set-top boxes, embedded players) →
///   chained hypercubes;
/// * both constrained → multi-tree still wins on worst-case delay, but
///   the hypercube's `O(1)` buffer makes it the only fit below
///   `h·d`-packet buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeChoice {
    /// Use `MultiTreeScheme` with this degree.
    MultiTree {
        /// The delay-optimal tree degree.
        d: usize,
    },
    /// Use `HypercubeStream`.
    Hypercube,
}

/// Recommend a scheme for `n` receivers given a per-node buffer budget in
/// packets (`None` = unconstrained).
pub fn recommend_scheme(n: usize, buffer_budget: Option<usize>) -> SchemeChoice {
    let d = clustream_analysis::optimal_degree(n.max(2), 8);
    let needed = clustream_analysis::multitree::buffer_bound(n.max(1), d);
    match buffer_budget {
        Some(b) if (b as u64) < needed => SchemeChoice::Hypercube,
        _ => SchemeChoice::MultiTree { d },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommendation_prefers_multitree_when_memory_allows() {
        assert!(matches!(
            recommend_scheme(1000, None),
            SchemeChoice::MultiTree { d: 2 } | SchemeChoice::MultiTree { d: 3 }
        ));
    }

    #[test]
    fn recommendation_switches_to_hypercube_under_memory_pressure() {
        assert_eq!(recommend_scheme(1000, Some(3)), SchemeChoice::Hypercube);
    }

    #[test]
    fn tiny_populations_never_panic() {
        recommend_scheme(1, Some(1));
        recommend_scheme(2, None);
    }
}
