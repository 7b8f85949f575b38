//! One function per reproduced display item.

use clustream_analysis as analysis;
use clustream_core::{NodeId, PacketId, QosReport, Scheme};
use clustream_des::{agree, Column, DesEngine, LatencyModel, TICKS_PER_SLOT};
use clustream_hypercube::HypercubeStream;
use clustream_multitree::{
    build_forest, greedy_forest, structured_forest, Construction, DelayProfile, DynamicForest,
    MultiTreeScheme, StreamMode,
};
use clustream_npc::{find_two_interior_disjoint_trees, reduce, E4SetSplitting};
use clustream_overlay::{Backbone, ClusterSession, IntraScheme};
use clustream_plan::{DelayBound, Family, RunPlan, Runtime, SchemeSpec};
use clustream_recovery::{DynamicMultiTree, RecoveryConfig};
use clustream_sim::{FaultPlan, MegaEngine, ResilienceMetrics, RunResult, SimConfig, Simulator};
use clustream_workloads::{ChurnAction, ChurnTrace, ChurnTraceConfig};

/// Run `scheme` on the reference engine until `track` packets reached
/// every receiver, on the completion horizon of its delay `bound`.
pub fn simulate(scheme: &mut dyn Scheme, track: u64, bound: DelayBound) -> RunResult {
    let cfg = SimConfig::until_complete(track, bound.completion_horizon(track));
    let run = Simulator::run(scheme, &cfg).map_err(|e| bound.blame(e));
    run.expect("scheme violates the communication model")
}

/// Like [`simulate`], for `spec`'s scheme on the mega engine with a
/// reusable arena.
///
/// Debug builds also run the reference and mega engines through the
/// differential oracle and demand the reused arena's result bit for bit
/// — every `cargo test` / debug invocation of `experiments` doubles as a
/// differential check.
pub fn simulate_mega(engine: &mut MegaEngine, spec: SchemeSpec, track: u64) -> RunResult {
    let bound = spec.worst_delay_bound();
    let cfg = SimConfig::until_complete(track, bound.completion_horizon(track));
    let make = || spec.build().expect("valid");
    let run = engine.run(make().as_mut(), &cfg);
    #[cfg(debug_assertions)]
    {
        let oracle = agree(&[Column::Reference, Column::Mega], make, &cfg);
        let oracle = oracle.unwrap_or_else(|d| panic!("{d}"));
        let mega = (Column::Mega, &run);
        if let Some(d) = clustream_des::disagreement((Column::Reference, &oracle), mega) {
            panic!("the reused arena: {d}");
        }
    }
    run.map_err(|e| bound.blame(e))
        .expect("scheme violates the communication model")
}

/// Enough tracked packets to reach steady state for any scheme here.
fn track_for(worst_delay_estimate: u64) -> u64 {
    2 * worst_delay_estimate + 16
}

// ---------------------------------------------------------------- Figure 4

/// One point of Figure 4: worst-case startup delay of the multi-tree
/// scheme.
#[derive(Debug, Clone)]
pub struct Fig4Point {
    pub d: usize,
    pub n: usize,
    pub max_delay: u64,
    /// Theorem 2 bound `h·d` for reference.
    pub bound: u64,
}

/// Figure 4: worst-case delay vs N for tree degrees 2–5 (closed form,
/// validated against full simulation by the test suite).
pub fn fig4(ns: &[usize], degrees: &[usize]) -> Vec<Fig4Point> {
    let grid: Vec<(usize, usize)> = degrees
        .iter()
        .flat_map(|&d| ns.iter().map(move |&n| (d, n)))
        .collect();
    clustream_sim::sweep(&grid, |_, &(d, n)| {
        let forest = greedy_forest(n, d).expect("valid parameters");
        let scheme = MultiTreeScheme::new(forest, StreamMode::PreRecorded);
        let profile = DelayProfile::compute(&scheme).expect("schedulable");
        Fig4Point {
            d,
            n,
            max_delay: profile.max_delay(),
            bound: analysis::thm2_worst_delay_bound(n, d),
        }
    })
}

// ----------------------------------------------------------------- Table 1

/// One measured row of Table 1 (plus the two baselines).
#[derive(Debug, Clone)]
pub struct Table1Row {
    pub scheme: String,
    pub n: usize,
    pub max_delay: u64,
    pub avg_delay: f64,
    pub p50_delay: u64,
    pub p95_delay: u64,
    pub max_buffer: usize,
    pub max_neighbors: usize,
}

fn row_from(name: &str, n: usize, qos: &QosReport) -> Table1Row {
    Table1Row {
        scheme: name.to_string(),
        n,
        max_delay: qos.max_delay(),
        avg_delay: qos.avg_delay(),
        p50_delay: qos.delay_percentile(50.0),
        p95_delay: qos.delay_percentile(95.0),
        max_buffer: qos.max_buffer(),
        max_neighbors: qos.max_neighbors(),
    }
}

/// Table 1: measured max/avg delay, buffer size and neighbor count for
/// multi-tree (d = 2 and 3), the hypercube scheme at the nearest special
/// `N' = 2^k − 1 ≤ N`, the arbitrary-`N` hypercube chain, and the chain
/// baseline.
pub fn table1(ns: &[usize]) -> Vec<Table1Row> {
    clustream_sim::sweep(ns, |engine, &n| {
        let mut rows = Vec::new();
        for d in [2usize, 3] {
            let r = simulate_mega(
                engine,
                SchemeSpec::new(Family::MultiTree, n, d),
                track_for(analysis::thm2_worst_delay_bound(n, d)),
            );
            rows.push(row_from(&format!("multi-tree d={d}"), n, &r.qos));
        }
        {
            // Special N: largest 2^k − 1 ≤ N.
            let k = usize::BITS as usize - 1 - (n + 1).leading_zeros() as usize;
            let n_special = (1usize << k) - 1;
            let r = simulate_mega(
                engine,
                SchemeSpec::new(Family::Hypercube, n_special, 1),
                track_for(k as u64 + 1),
            );
            rows.push(row_from("hypercube special", n_special, &r.qos));
        }
        {
            let r = simulate_mega(
                engine,
                SchemeSpec::new(Family::Hypercube, n, 1),
                track_for(analysis::chained_worst_delay(n)),
            );
            rows.push(row_from("hypercube arbitrary", n, &r.qos));
        }
        {
            let r = simulate_mega(
                engine,
                SchemeSpec::new(Family::Chain, n, 1),
                track_for(n as u64),
            );
            rows.push(row_from("chain baseline", n, &r.qos));
        }
        {
            // Elevated-capacity single tree: the paper's §1 strawman
            // (interior upload = d× stream rate).
            let r = simulate_mega(
                engine,
                SchemeSpec::new(Family::SingleTree, n, 2),
                track_for(2 * analysis::tree_height(n, 2)),
            );
            rows.push(row_from("single-tree d=2 (d× upload)", n, &r.qos));
        }
        rows
    })
    .into_iter()
    .flatten()
    .collect()
}

// --------------------------------------------------------------- Theorem 1

/// Theorem 1 check: measured multi-cluster worst delay vs the bound.
#[derive(Debug, Clone)]
pub struct Thm1Row {
    pub k: usize,
    pub t_c: u32,
    pub big_d: usize,
    pub d: usize,
    pub cluster_size: usize,
    pub measured: u64,
    pub bound: u64,
}

/// Theorem 1: sweep cluster count and inter-cluster latency, measuring
/// the composed session's worst-case delay against
/// `T_c·depth(τ) + 1 + d + h·d`.
pub fn thm1(
    ks: &[usize],
    t_cs: &[u32],
    big_d: usize,
    d: usize,
    cluster_size: usize,
) -> Vec<Thm1Row> {
    let grid: Vec<(usize, u32)> = ks
        .iter()
        .flat_map(|&k| t_cs.iter().map(move |&t| (k, t)))
        .collect();
    clustream_sim::sweep(&grid, |_, &(k, t_c)| {
        let sizes = vec![cluster_size; k];
        let mut s = ClusterSession::new(
            &sizes,
            big_d,
            t_c,
            IntraScheme::MultiTree {
                d,
                construction: Construction::Greedy,
            },
        )
        .expect("valid session");
        let bound = analysis::thm1_delay_bound(k, big_d, t_c, d, cluster_size);
        let session_bound = DelayBound::session(s.worst_delay_bound());
        let r = simulate(&mut s, track_for(bound), session_bound);
        Thm1Row {
            k,
            t_c,
            big_d,
            d,
            cluster_size,
            measured: r.qos.max_delay(),
            bound,
        }
    })
}

// ---------------------------------------------------- Theorems 2 & 3, F(d)

/// Theorem 2/3 check rows for complete populations.
#[derive(Debug, Clone)]
pub struct Thm23Row {
    pub n: usize,
    pub d: usize,
    pub h: u64,
    pub measured_max: u64,
    pub thm2_bound: u64,
    pub measured_avg: f64,
    pub thm3_lower: f64,
    pub measured_buffer: usize,
}

/// Theorems 2 and 3 on complete populations `N = d + d² + … + d^h`.
pub fn thm2_thm3(max_h: u32) -> Vec<Thm23Row> {
    let mut grid = Vec::new();
    for d in 2..=5usize {
        let mut n = 0usize;
        for h in 1..=max_h {
            n += d.pow(h);
            if n > 4000 {
                break;
            }
            grid.push((n, d));
        }
    }
    clustream_sim::sweep(&grid, |_, &(n, d)| {
        let forest = greedy_forest(n, d).expect("valid");
        let scheme = MultiTreeScheme::new(forest, StreamMode::PreRecorded);
        let p = DelayProfile::compute(&scheme).expect("schedulable");
        Thm23Row {
            n,
            d,
            h: analysis::tree_height(n, d),
            measured_max: p.max_delay(),
            thm2_bound: analysis::thm2_worst_delay_bound(n, d),
            measured_avg: p.avg_delay(),
            thm3_lower: analysis::thm3_avg_delay_lower_bound(n, d),
            measured_buffer: p.max_buffer(),
        }
    })
}

/// §2.3 degree optimization: the exact-bound-optimal degree per N.
#[derive(Debug, Clone)]
pub struct OptDegreeRow {
    pub n: usize,
    pub optimal_d: usize,
    pub bound_d2: u64,
    pub bound_d3: u64,
    pub bound_d4: u64,
    pub bound_d5: u64,
}

/// Optimal tree degree across populations (always 2 or 3).
pub fn opt_degree(ns: &[usize]) -> Vec<OptDegreeRow> {
    ns.iter()
        .map(|&n| OptDegreeRow {
            n,
            optimal_d: analysis::optimal_degree(n, 16),
            bound_d2: analysis::thm2_worst_delay_bound(n, 2),
            bound_d3: analysis::thm2_worst_delay_bound(n, 3),
            bound_d4: analysis::thm2_worst_delay_bound(n, 4),
            bound_d5: analysis::thm2_worst_delay_bound(n, 5),
        })
        .collect()
}

// ------------------------------------------------- Propositions 1 & 2, Thm 4

/// Proposition 1 check for `N = 2^k − 1`.
#[derive(Debug, Clone)]
pub struct Prop1Row {
    pub k: usize,
    pub n: usize,
    pub measured_max_delay: u64,
    pub predicted_delay: u64,
    pub measured_buffer: usize,
    pub measured_neighbors: usize,
}

/// Proposition 1: delay `k + 1`, `O(1)` buffer, `k` neighbors.
pub fn prop1(ks: &[usize]) -> Vec<Prop1Row> {
    clustream_sim::sweep(ks, |engine, &k| {
        let n = (1usize << k) - 1;
        let r = simulate_mega(
            engine,
            SchemeSpec::new(Family::Hypercube, n, 1),
            track_for(k as u64 + 1),
        );
        Prop1Row {
            k,
            n,
            measured_max_delay: r.qos.max_delay(),
            predicted_delay: k as u64 + 1,
            measured_buffer: r.qos.max_buffer(),
            measured_neighbors: r.qos.max_neighbors(),
        }
    })
}

/// Proposition 2 / Theorem 4 check for arbitrary `N`.
#[derive(Debug, Clone)]
pub struct Prop2Row {
    pub n: usize,
    pub cubes: usize,
    pub measured_max_delay: u64,
    pub predicted_max_delay: u64,
    pub measured_avg_delay: f64,
    pub thm4_bound: f64,
    pub measured_buffer: usize,
    pub measured_neighbors: usize,
}

/// Proposition 2 + Theorem 4: chained hypercubes across populations.
pub fn prop2_thm4(ns: &[usize]) -> Vec<Prop2Row> {
    clustream_sim::sweep(ns, |engine, &n| {
        let cubes = HypercubeStream::new(n).expect("valid").cubes().count();
        let predicted = analysis::chained_worst_delay(n);
        let r = simulate_mega(
            engine,
            SchemeSpec::new(Family::Hypercube, n, 1),
            track_for(predicted),
        );
        Prop2Row {
            n,
            cubes,
            measured_max_delay: r.qos.max_delay(),
            predicted_max_delay: predicted,
            measured_avg_delay: r.qos.avg_delay(),
            thm4_bound: analysis::thm4_avg_bound(n),
            measured_buffer: r.qos.max_buffer(),
            measured_neighbors: r.qos.max_neighbors(),
        }
    })
}

// ------------------------------------------------------ Extension sweeps

/// ext-A: incomplete (ragged) populations — slack between measured delay
/// and the complete-tree bound.
#[derive(Debug, Clone)]
pub struct IncompleteRow {
    pub n: usize,
    pub d: usize,
    pub measured: u64,
    pub bound: u64,
    pub slack: u64,
}

/// The simulation the paper omitted "due to lack of space": delays of
/// incomplete trees stay below, and often strictly below, `h·d`.
pub fn ext_incomplete(ns: &[usize], d: usize) -> Vec<IncompleteRow> {
    clustream_sim::sweep(ns, |_, &n| {
        let forest = greedy_forest(n, d).expect("valid");
        let scheme = MultiTreeScheme::new(forest, StreamMode::PreRecorded);
        let p = DelayProfile::compute(&scheme).expect("schedulable");
        let bound = analysis::thm2_worst_delay_bound(n, d);
        IncompleteRow {
            n,
            d,
            measured: p.max_delay(),
            bound,
            slack: bound - p.max_delay(),
        }
    })
}

/// ext-B: churn — eager vs lazy bookkeeping under one trace.
#[derive(Debug, Clone)]
pub struct ChurnRow {
    pub variant: String,
    pub events: usize,
    pub total_swaps: u64,
    pub rebuilds: usize,
    pub max_displaced: usize,
    /// Estimated hiccup slots over all displaced nodes of all
    /// *incremental* operations (rebuilds excluded — they displace
    /// everyone by design and dominate trivially).
    pub hiccup_slots: u64,
    pub final_members: usize,
    pub post_churn_max_delay: u64,
}

/// Replay a churn trace against the dynamic forest, eager and lazy.
pub fn ext_churn(cfg: ChurnTraceConfig, d: usize) -> Vec<ChurnRow> {
    let trace = ChurnTrace::generate(cfg);
    [false, true]
        .iter()
        .map(|&lazy| {
            let mut f = DynamicForest::new(cfg.initial_members, d, Construction::Greedy, lazy)
                .expect("valid");
            let mut rebuilds = 0usize;
            let mut max_displaced = 0usize;
            let mut hiccup_slots = 0u64;
            let mut before = f.member_delays().expect("schedulable");
            for e in &trace.events {
                let rep = match e.action {
                    // Rejoin re-enters as a fresh member here; identity
                    // continuity is the recovery layer's concern.
                    ChurnAction::Join | ChurnAction::Rejoin { .. } => f.add().1,
                    ChurnAction::Leave { victim_rank } => {
                        let members = f.members();
                        f.remove(members[victim_rank]).expect("valid victim")
                    }
                };
                if matches!(rep.resized, Some(r) if r < 0) {
                    rebuilds += 1;
                } else if !rep.displaced.is_empty() {
                    hiccup_slots += f
                        .hiccup_estimate(&before, &rep.displaced)
                        .expect("schedulable");
                }
                max_displaced = max_displaced.max(rep.displaced.len());
                before = f.member_delays().expect("schedulable");
            }
            f.validate().expect("invariants hold after churn");
            let (snapshot, _) = f.snapshot().expect("snapshot");
            let scheme = MultiTreeScheme::new(snapshot, StreamMode::PreRecorded);
            let p = DelayProfile::compute(&scheme).expect("schedulable");
            ChurnRow {
                variant: if lazy { "lazy".into() } else { "eager".into() },
                events: trace.events.len(),
                total_swaps: f.total_swaps(),
                rebuilds,
                max_displaced,
                hiccup_slots,
                final_members: f.n_real(),
                post_churn_max_delay: p.max_delay(),
            }
        })
        .collect()
}

/// Live-mode ablation: pre-recorded vs the two live variants.
#[derive(Debug, Clone)]
pub struct LiveModeRow {
    pub n: usize,
    pub d: usize,
    pub mode: String,
    pub max_delay: u64,
    pub avg_delay: f64,
    pub max_buffer: usize,
}

/// Compare the §2.2.3 live-streaming strategies.
pub fn ext_live_modes(ns: &[usize], d: usize) -> Vec<LiveModeRow> {
    let modes = [
        (StreamMode::PreRecorded, "pre-recorded"),
        (StreamMode::LivePrebuffered, "live-prebuffered"),
        (StreamMode::LivePipelined, "live-pipelined"),
    ];
    clustream_sim::sweep(ns, |_, &n| {
        modes.map(|(mode, name)| {
            let forest = greedy_forest(n, d).expect("valid");
            let p =
                DelayProfile::compute(&MultiTreeScheme::new(forest, mode)).expect("schedulable");
            LiveModeRow {
                n,
                d,
                mode: name.to_string(),
                max_delay: p.max_delay(),
                avg_delay: p.avg_delay(),
                max_buffer: p.max_buffer(),
            }
        })
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Construction ablation: structured vs greedy delay profiles.
#[derive(Debug, Clone)]
pub struct ConstructionRow {
    pub n: usize,
    pub d: usize,
    pub construction: String,
    pub max_delay: u64,
    pub avg_delay: f64,
    pub max_buffer: usize,
}

/// Do the two §2.2 constructions differ in delivered QoS?
pub fn ext_constructions(ns: &[usize], d: usize) -> Vec<ConstructionRow> {
    clustream_sim::sweep(ns, |_, &n| {
        [Construction::Structured, Construction::Greedy].map(|c| {
            let forest = build_forest(n, d, c).expect("valid");
            let p = DelayProfile::compute(&MultiTreeScheme::new(forest, StreamMode::PreRecorded))
                .expect("schedulable");
            ConstructionRow {
                n,
                d,
                construction: format!("{c:?}"),
                max_delay: p.max_delay(),
                avg_delay: p.avg_delay(),
                max_buffer: p.max_buffer(),
            }
        })
    })
    .into_iter()
    .flatten()
    .collect()
}

// -------------------------------------------------- Upload utilization

/// ext-G: per-scheme resource-contribution profile.
#[derive(Debug, Clone)]
pub struct UtilizationRow {
    pub scheme: String,
    pub n: usize,
    /// Receivers that uploaded nothing over the run.
    pub idle_receivers: usize,
    /// Mean uploads per receiver per slot (1.0 = fully used uplink).
    pub mean_upload_rate: f64,
    /// Max uploads per receiver per slot.
    pub max_upload_rate: f64,
}

/// §1 quantified: the single tree idles its leaves and overloads its
/// interior; the interior-disjoint multi-trees leave only the `d` all-leaf
/// nodes idle at unit upload; the hypercube spreads upload evenly.
pub fn ext_utilization(n: usize, d: usize, track: u64) -> Vec<UtilizationRow> {
    let mut engine = MegaEngine::new();
    [
        (format!("multi-tree d={d}"), Family::MultiTree, d),
        ("hypercube".into(), Family::Hypercube, 1),
        (format!("single-tree d={d}"), Family::SingleTree, d),
        ("chain".into(), Family::Chain, 1),
    ]
    .into_iter()
    .map(|(scheme, family, degree)| {
        let r = simulate_mega(&mut engine, SchemeSpec::new(family, n, degree), track);
        let slots = r.slots_run as f64;
        let uploads = &r.upload_counts[1..=n];
        UtilizationRow {
            scheme,
            n,
            idle_receivers: uploads.iter().filter(|&&u| u == 0).count(),
            mean_upload_rate: uploads.iter().sum::<u64>() as f64 / n as f64 / slots,
            max_upload_rate: uploads.iter().copied().max().unwrap_or(0) as f64 / slots,
        }
    })
    .collect()
}

// ------------------------------------------------------ Fault injection

/// ext-D: link-loss resilience of each scheme.
#[derive(Debug, Clone)]
pub struct LossRow {
    pub scheme: String,
    pub n: usize,
    pub loss_rate: f64,
    /// Fraction of receivers that missed ≥ 1 tracked packet.
    pub affected_frac: f64,
    /// Missing tracked packets per receiver, averaged.
    pub avg_missing: f64,
    /// Transmissions dropped in flight.
    pub lost_in_flight: u64,
}

/// Sweep link-loss rates against multi-tree and hypercube overlays. The
/// paper's schemes carry each packet over a single path with no
/// retransmission, so any loss becomes a playback gap; this measures how
/// widely one lost link-crossing spreads in each overlay.
pub fn ext_loss(n: usize, d: usize, rates: &[f64], track: u64) -> Vec<LossRow> {
    let mut rows = Vec::new();
    for &rate in rates {
        let cfg = SimConfig::with_faults(track, 8 * track, FaultPlan::loss(rate, 17));
        for (scheme, family, degree) in [
            (format!("multi-tree d={d}"), Family::MultiTree, d),
            ("hypercube".into(), Family::Hypercube, 1),
        ] {
            let mut built = SchemeSpec::new(family, n, degree).build().expect("valid");
            let r = Simulator::run(built.as_mut(), &cfg).expect("model holds");
            let loss = r.loss.as_ref().expect("fault run");
            rows.push(LossRow {
                scheme,
                n,
                loss_rate: rate,
                affected_frac: loss.affected_nodes() as f64 / n as f64,
                avg_missing: loss.total_missing() as f64 / n as f64,
                lost_in_flight: loss.lost_in_flight,
            });
        }
    }
    rows
}

/// ext-E: blast radius of a single interior-node crash.
#[derive(Debug, Clone)]
pub struct CrashRow {
    pub scheme: String,
    pub n: usize,
    pub crashed: u32,
    /// Receivers that miss ≥ 1 packet after the crash.
    pub starved_nodes: usize,
    /// Worst per-node fraction of the post-crash stream lost.
    pub worst_loss_frac: f64,
}

/// Crash one high-impact interior node in each overlay and measure who
/// starves — quantifying §1's resilience argument: in the single tree the
/// crashed node's subtree loses the *whole* stream; in the multi-tree the
/// same node is interior in only one of `d` trees, so its subtree loses
/// only ~`1/d` of the packets.
pub fn ext_crash(n: usize, d: usize, crash_slot: u64, track: u64) -> Vec<CrashRow> {
    let cfg = SimConfig::with_faults(track, 8 * track, FaultPlan::crash(NodeId(1), crash_slot));
    // Node 1 is interior in T_0 near the root of the multi-tree; the
    // root's first child in the (elevated-capacity) single tree, whose
    // whole subtree goes dark; a spare-rotation vertex of the first cube.
    [
        (format!("multi-tree d={d}"), Family::MultiTree, d),
        (format!("single-tree d={d}"), Family::SingleTree, d),
        ("hypercube".into(), Family::Hypercube, 1),
    ]
    .into_iter()
    .map(|(scheme, family, degree)| {
        let mut built = SchemeSpec::new(family, n, degree).build().expect("valid");
        let r = Simulator::run(built.as_mut(), &cfg).expect("model holds");
        let loss = r.loss.as_ref().expect("fault run");
        CrashRow {
            scheme,
            n,
            crashed: 1,
            starved_nodes: loss.affected_nodes(),
            worst_loss_frac: loss
                .missing
                .iter()
                .map(|&(_, m)| m as f64 / track as f64)
                .fold(0.0, f64::max),
        }
    })
    .collect()
}

// ------------------------------------------ Streaming through churn (ext)

/// ext-F: one churn trace streamed *through* by the dynamic multi-tree.
#[derive(Debug, Clone)]
pub struct ChurnThroughRow {
    pub seed: u64,
    pub events: usize,
    pub joins: u64,
    pub leaves: u64,
    pub final_members: usize,
    /// Forest label swaps across every applied change.
    pub swaps: usize,
    /// Final members that missed ≥ 1 packet they were owed.
    pub survivors_gapped: usize,
    /// Most owed packets any final member missed.
    pub worst_gap: u64,
    /// Whether the last 24 tracked packets reached every final member.
    pub tail_complete: bool,
}

/// Stream 360 packets through 300 slots of churn per `(seed, join rate,
/// leave rate)` cell on the shipped [`DynamicMultiTree`], on every
/// oracle column ([`Column::ALL`]), and measure the actual
/// per-node packet gaps (the hiccups the paper's appendix discusses
/// qualitatively). `Err` names the first divergence between the columns.
pub fn ext_adaptive_churn(
    n0: usize,
    d: usize,
    cells: &[(u64, f64, f64)],
) -> Result<Vec<ChurnThroughRow>, String> {
    let columns = Column::ALL;
    let track = 360u64;
    // A member is owed the tracked packets *after* its join slot plus a
    // catch-up margin (pre-join packets were never owed).
    let margin = 16u64;
    let initial: Vec<u64> = (1..=n0 as u64).collect();
    let cfg = SimConfig::lossy_regime(track, 4000);
    cells
        .iter()
        .map(|&(seed, join_rate, leave_rate)| {
            let trace = ChurnTrace::generate(ChurnTraceConfig {
                initial_members: n0,
                slots: 300,
                join_rate,
                leave_rate,
                rejoin_rate: 0.0,
                seed,
            });
            let mut s = DynamicMultiTree::scripted(
                n0,
                d,
                StreamMode::PreRecorded,
                Construction::Greedy,
                trace.resolve(&initial, &[]).expect("small script"),
            )
            .unwrap();
            let r = agree(&columns, || Box::new(s.clone()), &cfg)?
                .expect("a scripted churn run is a valid model");
            // `s` never ran: bring it to where every column's instance ended.
            s.replay_script(r.slots_run);
            let missing = |id: u32, from: u64| {
                (from.min(track)..track)
                    .filter(|&p| r.arrivals.usable_slot(NodeId(id), PacketId(p)).is_none())
                    .count() as u64
            };
            let members: Vec<u32> = (1..=s.num_receivers() as u32)
                .filter(|&id| s.is_member(NodeId(id)))
                .collect();
            let gaps: Vec<u64> = members
                .iter()
                .map(|&id| missing(id, s.join_slots()[id as usize] + margin))
                .collect();
            Ok(ChurnThroughRow {
                seed,
                events: trace.events.len(),
                joins: s.joins_applied(),
                leaves: s.leaves_applied(),
                final_members: members.len(),
                swaps: s.total_swaps(),
                survivors_gapped: gaps.iter().filter(|&&g| g > 0).count(),
                worst_gap: gaps.iter().max().copied().unwrap_or(0),
                // Stabilization: the tail of the window is complete for
                // everyone who joined before the last event.
                tail_complete: members.iter().all(|&id| missing(id, track - 24) == 0),
            })
        })
        .collect()
}

// ------------------------------------------------ NP-completeness (ext)

/// ext-C: one E-4 Set Splitting instance and its reduction, both solved
/// exactly.
#[derive(Debug, Clone)]
pub struct NpcRow {
    pub name: &'static str,
    /// A splitting `V₁` (bit mask), when one exists.
    pub split: Option<u32>,
    /// Interior masks of two interior-disjoint spanning trees of the
    /// reduced graph, when they exist.
    pub trees: Option<(u64, u64)>,
}

/// Reduce three E-4 Set Splitting instances to Two Interior-Disjoint
/// Trees and solve both sides; the reduction preserves the answer iff
/// `split.is_some() == trees.is_some()` on every row.
pub fn ext_npc() -> Vec<NpcRow> {
    let instances = [
        ("single set", 4, vec![[0, 1, 2, 3]]),
        (
            "overlapping sets",
            6,
            vec![[0, 1, 2, 3], [2, 3, 4, 5], [0, 2, 4, 5]],
        ),
        (
            "all 4-subsets of 5",
            5,
            vec![
                [0, 1, 2, 3],
                [0, 1, 2, 4],
                [0, 1, 3, 4],
                [0, 2, 3, 4],
                [1, 2, 3, 4],
            ],
        ),
    ];
    instances
        .into_iter()
        .map(|(name, universe, sets)| {
            let inst = E4SetSplitting::new(universe, sets).unwrap();
            let (g, layout) = reduce(&inst);
            NpcRow {
                name,
                split: inst.solve_brute(),
                trees: find_two_interior_disjoint_trees(&g, layout.root)
                    .map(|(t1, t2)| (t1.interior(), t2.interior())),
            }
        })
        .collect()
}

// ------------------------------------------------------ Scalability (ext)

/// One validated large-N simulation: the reference and mega engines on
/// the same scheme.
#[derive(Debug, Clone)]
pub struct ScaleSimRow {
    pub scheme: String,
    pub transmissions: u64,
    /// Fields on which the two engines disagree (empty = bit-identical).
    pub diffs: Vec<&'static str>,
}

/// Fully validated simulations at population `n`, multi-tree (`d = 3`)
/// and hypercube, on both engines: the readable reference and the
/// production engine, diffed field by field.
pub fn scale_validated(n: usize) -> Vec<ScaleSimRow> {
    let mut engine = MegaEngine::new();
    [(Family::MultiTree, 3, 48), (Family::Hypercube, 1, 64)]
        .into_iter()
        .map(|(family, d, track)| {
            let spec = SchemeSpec::new(family, n, d);
            let make = || spec.build().expect("valid");
            let bound = spec.worst_delay_bound();
            let reference = simulate(make().as_mut(), track, bound);
            let cfg = SimConfig::until_complete(track, bound.completion_horizon(track));
            let mega = engine.run(make().as_mut(), &cfg).unwrap();
            ScaleSimRow {
                diffs: clustream_sim::diff_fields(&reference, &mega),
                scheme: reference.scheme,
                transmissions: reference.total_transmissions,
            }
        })
        .collect()
}

// ----------------------------------------------- DES jitter sweep (ext)

/// One jitter level of the DES sweep: observed playback QoS under
/// uniform link jitter vs the synchronous Theorem 2 `h·d` bound.
#[derive(Debug, Clone)]
pub struct JitterRow {
    pub jitter_slots: f64,
    pub max_delay: u64,
    pub avg_delay: f64,
    pub max_buffer: usize,
    /// Theorem 2 worst-delay bound `h·d` (synchronous model).
    pub thm2_bound: u64,
    /// `max_delay / slot-model max_delay` — how far jitter pushes the
    /// observed delay past the idealized run.
    pub delay_inflation: f64,
    /// `max_buffer / slot-model max_buffer`.
    pub buffer_inflation: f64,
}

/// DES jitter sweep: run a multi-tree overlay under growing uniform link
/// jitter and chart observed worst playback delay against the paper's
/// Theorem 2 `h·d` bound (which assumes the synchronous slot model).
///
/// At `jitter = 0` the DES is slot-faithful, so the first row doubles as
/// an equivalence check: its inflations must be exactly 1.0.
pub fn ext_jitter_sweep(
    n: usize,
    d: usize,
    jitters: &[f64],
    track: u64,
    seed: u64,
) -> Vec<JitterRow> {
    let plan = RunPlan {
        runtime: Runtime::Des,
        des_seed: Some(seed),
        ..RunPlan::new(SchemeSpec::new(Family::MultiTree, n, d), track)
    };
    let make = || plan.scheme.build().expect("valid");
    let baseline = simulate(make().as_mut(), track, plan.scheme.worst_delay_bound());
    let base_delay = baseline.qos.max_delay().max(1) as f64;
    let base_buffer = baseline.qos.max_buffer().max(1) as f64;
    let bound = analysis::thm2_worst_delay_bound(n, d);

    jitters
        .iter()
        .map(|&jitter| {
            let latency = if jitter == 0.0 {
                LatencyModel::Fixed
            } else {
                LatencyModel::UniformJitter { jitter }
            };
            let cfg = RunPlan {
                latency,
                ..plan.clone()
            }
            .des_config();
            let r = DesEngine::new()
                .run(make().as_mut(), &cfg)
                .expect("model holds");
            JitterRow {
                jitter_slots: jitter,
                max_delay: r.qos.max_delay(),
                avg_delay: r.qos.avg_delay(),
                max_buffer: r.qos.max_buffer(),
                thm2_bound: bound,
                delay_inflation: r.qos.max_delay() as f64 / base_delay,
                buffer_inflation: r.qos.max_buffer() as f64 / base_buffer,
            }
        })
        .collect()
}

// ------------------------------------------------ Recovery tiers (ext)

/// One (churn rate, recovery tier) cell: what the tier delivered and
/// what it cost. Every field is deterministic given the seeded trace.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    pub churn_rate: f64,
    pub mode: &'static str,
    pub departures: usize,
    pub transmissions: u64,
    /// Fraction of the N·track tracked packets that reached their node.
    pub delivered_fraction: f64,
    pub missing_packets: u64,
    /// The run's detection / repair / NACK counters.
    pub res: ResilienceMetrics,
    pub recovery_latency_avg_slots: f64,
    pub recovery_latency_max_slots: f64,
    /// Control messages per data transmission (the overhead the
    /// recovery layer adds to the stream).
    pub control_overhead: f64,
}

/// Recovery tiers under churn: per leave rate, one seeded crash trace
/// (rejoins at half the leave rate, no fresh joins) replayed through the
/// DES three times — fail-silent (`off`), detection and repair, repair
/// and NACK retransmission — over `horizon` slots (churned runs never
/// "complete").
pub fn ext_recovery_tiers(
    n: usize,
    d: usize,
    track: u64,
    horizon: u64,
    seed: u64,
    leave_rates: &[f64],
) -> Vec<RecoveryRow> {
    let tiers = [
        ("off", RecoveryConfig::default()),
        ("repair", RecoveryConfig::repair()),
        ("repair+nack", RecoveryConfig::repair_nack()),
    ];
    let mut rows = Vec::new();
    for &rate in leave_rates {
        let churn = ChurnTraceConfig {
            initial_members: n,
            slots: horizon,
            join_rate: 0.0,
            leave_rate: rate,
            rejoin_rate: rate / 2.0,
            seed,
        };
        let departures = ChurnTrace::generate(churn)
            .events
            .iter()
            .filter(|e| matches!(e.action, ChurnAction::Leave { .. }))
            .count();
        for (mode, recovery) in tiers {
            let plan = RunPlan {
                horizon: Some(horizon),
                runtime: Runtime::Des,
                recovery,
                churn: Some(churn),
                ..RunPlan::new(SchemeSpec::new(Family::MultiTree, n, d), track)
            };
            rows.push(run_recovery_tier(&plan, rate, mode, departures));
        }
    }
    rows
}

/// Replay `plan`'s churn trace through its recovery tier and summarize
/// the outcome.
fn run_recovery_tier(
    plan: &RunPlan,
    churn_rate: f64,
    mode: &'static str,
    departures: usize,
) -> RecoveryRow {
    // Every tier, `off` included, streams through the healing wrapper.
    let mut scheme = plan.scheme.dynamic(None).unwrap();
    let r = DesEngine::new()
        .run(&mut scheme, &plan.des_config())
        .unwrap();
    let missing = r.loss.as_ref().map_or(0, |l| l.total_missing()) as u64;
    let expected = plan.scheme.n as u64 * plan.track;
    let res = r.resilience.unwrap_or_default();
    RecoveryRow {
        churn_rate,
        mode,
        departures,
        transmissions: r.total_transmissions,
        delivered_fraction: 1.0 - missing as f64 / expected as f64,
        missing_packets: missing,
        res,
        recovery_latency_avg_slots: res
            .avg_recovery_latency_slots(TICKS_PER_SLOT)
            .unwrap_or(0.0),
        recovery_latency_max_slots: res.recovery_latency_max_ticks as f64 / TICKS_PER_SLOT as f64,
        control_overhead: res.control_messages as f64 / r.total_transmissions.max(1) as f64,
    }
}

// ------------------------------------------------ Illustration reprints

/// Figure 1: render the super-tree for K clusters.
pub fn fig1_supertree(k: usize, big_d: usize) -> String {
    let b = Backbone::new(k, big_d).expect("valid backbone");
    let mut out = String::new();
    out.push_str(&format!("super-tree τ: K={k}, D={big_d}\n"));
    out.push_str("S\n");
    fn rec(b: &Backbone, children: &[usize], depth: usize, out: &mut String) {
        for &c in children {
            out.push_str(&format!(
                "{}S_{} (depth {})\n",
                "  ".repeat(depth),
                c + 1,
                b.depth(c)
            ));
            rec(b, &b.children(c), depth + 1, out);
        }
    }
    let roots: Vec<usize> = (0..k).filter(|&i| b.parent(i).is_none()).collect();
    rec(&b, &roots, 1, &mut out);
    out
}

/// Figure 3: the two constructions for N = 15, d = 3 as position tables.
pub fn fig3_trees() -> String {
    let mut out = String::new();
    for (name, f) in [
        ("structured", structured_forest(15, 3).unwrap()),
        ("greedy", greedy_forest(15, 3).unwrap()),
    ] {
        out.push_str(&format!("{name} construction (N=15, d=3):\n"));
        for k in 0..3 {
            out.push_str(&format!(
                "  T_{k}: S {}\n",
                f.tree(k)
                    .iter()
                    .map(|id| id.to_string())
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
        }
    }
    out
}

/// Figure 2: node `id`'s receive/send schedule in the Figure 3 forests.
pub fn fig2_node_schedule(id: u32) -> String {
    let mut out = String::new();
    for (name, f) in [
        ("structured", structured_forest(15, 3).unwrap()),
        ("greedy", greedy_forest(15, 3).unwrap()),
    ] {
        let s = MultiTreeScheme::new(f.clone(), StreamMode::PreRecorded);
        out.push_str(&format!("{name}: node {id}\n"));
        for k in 0..3 {
            let pos = f.position(k, id);
            let recv = s.first_recv(k, id);
            let parent = f.parent_pos(pos);
            let from = if parent == 0 {
                "S".to_string()
            } else {
                f.node_at(k, parent).to_string()
            };
            out.push_str(&format!(
                "  T_{k}: position {pos}, receives packets ≡{k} (mod 3) from {from} in slots ≡{} (mod 3), first at t{recv}\n",
                (pos - 1) % 3
            ));
            if f.is_interior_pos(pos) {
                let kids: Vec<String> = f
                    .children_pos(pos)
                    .map(|p| f.node_at(k, p).to_string())
                    .collect();
                out.push_str(&format!(
                    "        sends to children [{}]\n",
                    kids.join(", ")
                ));
            }
        }
    }
    out
}

/// Figures 5/6: slot-by-slot count of nodes holding each packet in the
/// `N = 7` hypercube — the doubling invariant.
pub fn fig5_hypercube_state(slots: u64) -> String {
    let n = 7usize;
    let mut s = HypercubeStream::new(n).unwrap();
    let bound = SchemeSpec::new(Family::Hypercube, n, 1).worst_delay_bound();
    let r = simulate(&mut s, slots + 4, bound);
    let mut out = String::new();
    out.push_str("slot | nodes holding packet p by end of slot (N=7, k=3)\n");
    for t in 0..slots {
        let counts: Vec<String> = (0..=t.min(12))
            .map(|p| {
                let c = (1..=n as u32)
                    .filter(|&id| {
                        r.arrivals
                            .usable_slot(NodeId(id), PacketId(p))
                            .is_some_and(|u| u.t() <= t + 1)
                    })
                    .count();
                format!("p{p}:{c}")
            })
            .collect();
        out.push_str(&format!("t{t:<3} | {}\n", counts.join(" ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_points_respect_bound_and_monotonicity() {
        let pts = fig4(&[50, 100, 200, 400], &[2, 3, 4, 5]);
        assert_eq!(pts.len(), 16);
        for p in &pts {
            assert!(p.max_delay <= p.bound, "N={} d={}", p.n, p.d);
        }
        // Figure 4 shape: at N = 400, degrees 2 and 3 beat 4 and 5.
        let at = |d: usize| {
            pts.iter()
                .find(|p| p.d == d && p.n == 400)
                .unwrap()
                .max_delay
        };
        assert!(at(2) <= at(4) && at(2) <= at(5));
        assert!(at(3) <= at(4) && at(3) <= at(5));
    }

    #[test]
    fn table1_orderings_match_paper() {
        let rows = table1(&[200]);
        let get = |s: &str| rows.iter().find(|r| r.scheme.starts_with(s)).unwrap();
        let mt = get("multi-tree d=2");
        let hc = get("hypercube arbitrary");
        let chain = get("chain");
        // Multi-tree: best worst-case delay; hypercube: best buffers;
        // chain: terrible delay.
        assert!(mt.max_delay <= hc.max_delay);
        assert!(hc.max_buffer <= 3);
        assert!(hc.max_buffer <= mt.max_buffer);
        assert!(chain.max_delay >= 10 * mt.max_delay);
        // Multi-tree keeps O(d) neighbors, hypercube pays O(log N).
        assert!(mt.max_neighbors <= 2 * 2 + 1);
        assert!(hc.max_neighbors > mt.max_neighbors);
    }

    #[test]
    fn thm1_rows_bounded() {
        let rows = thm1(&[3, 9], &[5, 10], 3, 2, 6);
        for r in &rows {
            assert!(
                r.measured <= r.bound,
                "K={} T_c={}: {} > {}",
                r.k,
                r.t_c,
                r.measured,
                r.bound
            );
        }
    }

    #[test]
    fn thm23_rows_consistent() {
        for r in thm2_thm3(3) {
            assert!(r.measured_max <= r.thm2_bound);
            assert!(r.measured_avg + 1e-9 >= r.thm3_lower, "N={} d={}", r.n, r.d);
            assert!(r.measured_buffer as u64 <= r.thm2_bound + 1);
        }
    }

    #[test]
    fn prop_rows_consistent() {
        for r in prop1(&[2, 3, 4, 5]) {
            assert_eq!(r.measured_max_delay, r.predicted_delay);
            assert!(r.measured_neighbors <= r.k);
        }
        for r in prop2_thm4(&[5, 12, 33]) {
            assert!(r.measured_max_delay <= r.predicted_max_delay);
            assert!(r.measured_avg_delay <= r.thm4_bound + 1.0);
            assert!(r.measured_buffer <= 3);
        }
    }

    #[test]
    fn churn_lazy_swaps_fewer_or_equal() {
        let cfg = ChurnTraceConfig {
            initial_members: 24,
            slots: 300,
            join_rate: 0.05,
            leave_rate: 0.004,
            rejoin_rate: 0.0,
            seed: 3,
        };
        let rows = ext_churn(cfg, 3);
        assert_eq!(rows.len(), 2);
        let eager = &rows[0];
        let lazy = &rows[1];
        assert_eq!(eager.final_members, lazy.final_members);
        assert!(lazy.total_swaps <= eager.total_swaps);
    }

    #[test]
    fn utilization_matches_section1_claims() {
        let rows = ext_utilization(63, 2, 32);
        let get = |s: &str| rows.iter().find(|r| r.scheme.starts_with(s)).unwrap();
        let mt = get("multi-tree");
        let st = get("single-tree");
        let hc = get("hypercube");
        // Single tree: about half the receivers idle, interiors ~2×.
        assert!(st.idle_receivers >= 30, "{}", st.idle_receivers);
        assert!(st.max_upload_rate > 1.5);
        // Multi-tree: at most d receivers idle, nobody above 1×.
        assert!(mt.idle_receivers <= 2);
        assert!(mt.max_upload_rate <= 1.0 + 1e-9);
        // Hypercube: everyone contributes.
        assert_eq!(hc.idle_receivers, 0);
        assert!(hc.max_upload_rate <= 1.0 + 1e-9);
    }

    #[test]
    fn crash_blast_radius_matches_paper_intuition() {
        // 40 nodes, d = 2, crash at slot 4, 32 tracked packets.
        let rows = ext_crash(40, 2, 4, 32);
        let get = |s: &str| rows.iter().find(|r| r.scheme.starts_with(s)).unwrap();
        let mt = get("multi-tree");
        let st = get("single-tree");
        // The single tree starves its subtree of ~everything sent after
        // the crash; the multi-tree subtree loses only ~1/d of packets.
        assert!(
            st.worst_loss_frac > 0.8,
            "single tree: {}",
            st.worst_loss_frac
        );
        assert!(
            mt.worst_loss_frac < st.worst_loss_frac,
            "multi-tree {} vs single {}",
            mt.worst_loss_frac,
            st.worst_loss_frac
        );
        assert!(
            mt.worst_loss_frac <= 0.5 + 0.2,
            "≈1/d: {}",
            mt.worst_loss_frac
        );
    }

    #[test]
    fn loss_rows_scale_with_rate() {
        let rows = ext_loss(60, 2, &[0.0, 0.05], 24);
        let at = |s: &str, rate: f64| {
            rows.iter()
                .find(|r| r.scheme.starts_with(s) && (r.loss_rate - rate).abs() < 1e-12)
                .unwrap()
        };
        assert_eq!(at("multi-tree", 0.0).avg_missing, 0.0);
        assert_eq!(at("hypercube", 0.0).avg_missing, 0.0);
        assert!(at("multi-tree", 0.05).avg_missing > 0.0);
        assert!(at("hypercube", 0.05).avg_missing > 0.0);
    }

    #[test]
    fn adaptive_churn_restabilizes_on_every_seed() {
        let rows = ext_adaptive_churn(30, 3, &[1, 2, 3].map(|seed| (seed, 0.03, 0.002))).unwrap();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.tail_complete, "seed {}: tail incomplete", r.seed);
            assert!(r.events > 0 && r.worst_gap < 360, "seed {}: {r:?}", r.seed);
            assert_eq!(
                r.joins + r.leaves,
                r.events as u64,
                "seed {}: {r:?}",
                r.seed
            );
            assert_eq!(
                r.final_members as u64,
                30 + r.joins - r.leaves,
                "seed {}",
                r.seed
            );
        }
    }

    #[test]
    fn npc_reduction_preserves_the_answer() {
        let rows = ext_npc();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert_eq!(r.split.is_some(), r.trees.is_some(), "{}", r.name);
            // Interior-disjoint: the two trees share no interior vertex.
            if let Some((t1, t2)) = r.trees {
                assert_eq!(t1 & t2, 0, "{}", r.name);
            }
        }
    }

    #[test]
    fn illustrations_render() {
        assert!(fig1_supertree(9, 3).contains("S_9"));
        assert!(fig3_trees().contains("T_2"));
        assert!(fig2_node_schedule(6).contains("position 2"));
        let s = fig5_hypercube_state(8);
        assert!(
            s.contains("p0:7"),
            "all 7 nodes eventually hold packet 0:\n{s}"
        );
    }
}
