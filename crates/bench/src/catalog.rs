//! The experiment catalog: every reproduced display item, defined once.
//!
//! An [`Item`] is an id (DESIGN.md §5's regeneration target), the one
//! parameter set the item runs at, its full rendering and — where it
//! makes a pass/fail claim — a one-line verdict computed from the rows
//! it rendered. `experiments <id>` prints the rendering; bare
//! `experiments` prints [`summarize`]'s verdict lines, the source of
//! EXPERIMENTS.md's numbers.

use crate::experiments as ex;
use crate::render_table;
use crate::scenarios::{
    crowd_plan, run_flash_crowd, run_heterogeneity, FlashCrowdReport, HeterogeneityReport,
};
use clustream_analysis::tradeoff::{candidates, multitree_beats_hypercube_from, pareto_frontier};
use clustream_analysis::{
    chained_avg_delay, chained_worst_delay, optimal_degree, thm2_worst_delay_bound,
};
use clustream_des::{CapacityClassPlan, LatencyModel, UplinkModel};
use clustream_multitree::{greedy_forest, DelayProfile, MultiTreeScheme, StreamMode};
use clustream_plan::{RunPlan, Runtime};
use clustream_telemetry::Telemetry;
use clustream_workloads::{geometric_grid, linear_grid, ChurnTraceConfig, ScenarioPlan};
use std::fmt::Write;

/// What running one catalog item produced.
pub struct Report {
    /// The full rendering: what `experiments <id>` prints.
    pub text: String,
    /// The item's claim about the rows in `text` — whether it holds, and
    /// its one-line statement. `None` for pure illustrations.
    pub verdict: Option<(bool, String)>,
}

impl Report {
    fn shown(text: String) -> Report {
        Report {
            text,
            verdict: None,
        }
    }

    fn checked(text: String, ok: bool, line: String) -> Report {
        Report {
            text,
            verdict: Some((ok, line)),
        }
    }
}

/// One display item: its id and how to run and render it.
pub struct Item {
    pub id: &'static str,
    pub run: fn() -> Report,
}

/// Every item, in DESIGN.md §5 order; an item's id is its function's
/// name.
pub fn catalog() -> Vec<Item> {
    macro_rules! items {
        ($($f:ident),* $(,)?) => { vec![$(Item { id: stringify!($f), run: $f }),*] };
    }
    items![
        fig1_supertree,
        fig2_node_schedule,
        fig3_trees,
        fig4_worst_delay,
        fig5_hypercube_state,
        table1_comparison,
        thm1_multicluster,
        thm2_thm3_bounds,
        opt_degree,
        prop1_special,
        prop2_arbitrary,
        ext_incomplete_trees,
        ext_churn,
        ext_npc_demo,
        ext_resilience,
        ext_live_modes,
        ext_constructions,
        ext_adaptive_churn,
        ext_utilization,
        ext_jitter_sweep,
        ext_recovery_tiers,
        ext_flash_crowd,
        ext_heterogeneity,
        tradeoff_frontier,
        scale_sweep,
    ]
}

/// The reproduction summary over `reports` (id, report): one line per
/// item, and the ids whose verdict failed.
pub fn summarize(reports: &[(&'static str, Report)]) -> (String, Vec<&'static str>) {
    let mut out = String::from("=== clustream reproduction summary ===\n\n");
    let mut failed = Vec::new();
    for (id, report) in reports {
        let (status, line) = match &report.verdict {
            None => ("--", "illustration, no pass/fail claim"),
            Some((true, line)) => ("ok", line.as_str()),
            Some((false, line)) => {
                failed.push(*id);
                ("FAIL", line.as_str())
            }
        };
        writeln!(out, "{id:<22} {status:<4} {line}").unwrap();
    }
    (out, failed)
}

// ------------------------------------------------ Illustration reprints

fn fig1_supertree() -> Report {
    Report::shown(ex::fig1_supertree(9, 3) + "\n")
}

fn fig2_node_schedule() -> Report {
    Report::shown(ex::fig2_node_schedule(6) + "\n")
}

fn fig3_trees() -> Report {
    Report::shown(ex::fig3_trees() + "\n")
}

fn fig5_hypercube_state() -> Report {
    Report::shown(ex::fig5_hypercube_state(12) + "\n")
}

// ------------------------------------------------- Evaluation artifacts

fn fig4_worst_delay() -> Report {
    let ns = linear_grid(25, 2000, 80);
    let degrees = [2usize, 3, 4, 5];
    let pts = ex::fig4(&ns, &degrees);
    let at = |n: usize, d: usize| {
        let p = pts.iter().find(|p| p.n == n && p.d == d).expect("point");
        p.max_delay.to_string()
    };
    let table = render_table(
        &ns,
        &[
            ("N", &|n| n.to_string()),
            ("degree 2", &|&n| at(n, 2)),
            ("degree 3", &|&n| at(n, 3)),
            ("degree 4", &|&n| at(n, 4)),
            ("degree 5", &|&n| at(n, 5)),
        ],
    );
    let mut text = format!(
        "Figure 4 — worst-case startup delay (slots) vs N\n\n{table}\nCSV:\nN,d2,d3,d4,d5\n"
    );
    for &n in &ns {
        writeln!(text, "{n},{}", degrees.map(|d| at(n, d)).join(",")).unwrap();
    }
    let violations = pts.iter().filter(|p| p.max_delay > p.bound).count();
    let last = *ns.last().expect("non-empty grid");
    let at_last = degrees.map(|d| format!("d{d}={}", at(last, d)));
    Report::checked(
        text,
        violations == 0,
        format!(
            "worst-case delay at N={last}: {}; bound h·d respected at all {} points \
             (violations: {violations})",
            at_last.join(" "),
            pts.len()
        ),
    )
}

fn table1_comparison() -> Report {
    // Mix of special (2^k − 1) and general populations so both hypercube
    // rows are exercised. (N = 1000 is deliberately non-special: the
    // arbitrary-N hypercube pays its O(log²N) chain there.)
    let ns = [63usize, 250, 1000, 2000];
    let rows = ex::table1(&ns);
    let table = render_table(
        &rows,
        &[
            ("scheme", &|r| r.scheme.clone()),
            ("N", &|r| r.n.to_string()),
            ("max delay", &|r| r.max_delay.to_string()),
            ("avg delay", &|r| format!("{:.1}", r.avg_delay)),
            ("p50", &|r| r.p50_delay.to_string()),
            ("p95", &|r| r.p95_delay.to_string()),
            ("buffer", &|r| r.max_buffer.to_string()),
            ("neighbors", &|r| r.max_neighbors.to_string()),
        ],
    );
    let get = |scheme: &str, n: usize| {
        let found = rows.iter().find(|r| r.scheme == scheme && r.n == n);
        found.expect("every N has every non-special scheme row")
    };
    let (mt, hc) = ("multi-tree d=2", "hypercube arbitrary");
    let ok = ns.iter().all(|&n| {
        get(hc, n).max_buffer <= 3
            && get(hc, n).max_buffer <= get(mt, n).max_buffer
            && get(mt, n).max_neighbors <= 2 * 2
    });
    let brief = |r: &ex::Table1Row| {
        format!(
            "max={} avg={:.1} buf={} nbrs={}",
            r.max_delay, r.avg_delay, r.max_buffer, r.max_neighbors
        )
    };
    Report::checked(
        format!(
            "Table 1 — measured QoS per scheme\n\n{table}\n\
             paper's asymptotics: multi-tree O(d·logN) delay / O(d·logN) buffer / O(d) nbrs;\n\
             hypercube O(log²(N/d)) delay / O(1) buffer / O(log(N/d)) nbrs.\n"
        ),
        ok,
        format!(
            "N=1000: {mt} {} | {hc} {}; hypercube buffer ≤ 3 ≤ multi-tree's and \
             multi-tree neighbors ≤ 2d at every N: {ok}",
            brief(get(mt, 1000)),
            brief(get(hc, 1000))
        ),
    )
}

fn thm1_multicluster() -> Report {
    let rows = ex::thm1(&[2, 4, 9, 16, 32, 64], &[5, 10, 20], 3, 2, 14);
    let check = |r: &ex::Thm1Row| match r.measured <= r.bound {
        true => "ok",
        false => "VIOLATED",
    };
    let table = render_table(
        &rows,
        &[
            ("K", &|r| r.k.to_string()),
            ("T_c", &|r| r.t_c.to_string()),
            ("measured", &|r| r.measured.to_string()),
            ("bound", &|r| r.bound.to_string()),
            ("check", &|r| check(r).into()),
        ],
    );
    let bad = rows.iter().filter(|r| r.measured > r.bound).count();
    Report::checked(
        format!("Theorem 1 — multi-cluster worst delay (D=3, d=2, 14 nodes/cluster)\n\n{table}\n"),
        bad == 0,
        format!("{} (K, T_c) points, bound violations: {bad}", rows.len()),
    )
}

fn thm2_thm3_bounds() -> Report {
    let rows = ex::thm2_thm3(5);
    let table = render_table(
        &rows,
        &[
            ("N", &|r| r.n.to_string()),
            ("d", &|r| r.d.to_string()),
            ("h", &|r| r.h.to_string()),
            ("max", &|r| r.measured_max.to_string()),
            ("h·d bound", &|r| r.thm2_bound.to_string()),
            ("avg", &|r| format!("{:.2}", r.measured_avg)),
            ("thm3 lower", &|r| format!("{:.2}", r.thm3_lower)),
            ("buffer", &|r| r.measured_buffer.to_string()),
        ],
    );
    let bad2 = rows
        .iter()
        .filter(|r| r.measured_max > r.thm2_bound)
        .count();
    let bad3 = rows
        .iter()
        .filter(|r| r.measured_avg + 1e-9 < r.thm3_lower)
        .count();
    Report::checked(
        format!("Theorems 2 & 3 — complete d-ary populations\n\n{table}\n"),
        bad2 + bad3 == 0,
        format!(
            "{} complete populations, Thm 2 violations: {bad2}, Thm 3 average-delay \
             lower-bound violations: {bad3}",
            rows.len()
        ),
    )
}

fn opt_degree() -> Report {
    let rows = ex::opt_degree(&geometric_grid(4, 100_000, 15));
    let table = render_table(
        &rows,
        &[
            ("N", &|r| r.n.to_string()),
            ("opt d", &|r| r.optimal_d.to_string()),
            ("h·d (d=2)", &|r| r.bound_d2.to_string()),
            ("d=3", &|r| r.bound_d3.to_string()),
            ("d=4", &|r| r.bound_d4.to_string()),
            ("d=5", &|r| r.bound_d5.to_string()),
        ],
    );
    let all23 = rows.iter().all(|r| r.optimal_d == 2 || r.optimal_d == 3);
    Report::checked(
        format!("Optimal tree degree (argmin of the exact h·d bound)\n\n{table}\n"),
        all23,
        format!(
            "optimal degree ∈ {{2,3}} at all {} N grid points: {all23}",
            rows.len()
        ),
    )
}

fn prop1_special() -> Report {
    let rows = ex::prop1(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
    let table = render_table(
        &rows,
        &[
            ("k", &|r| r.k.to_string()),
            ("N", &|r| r.n.to_string()),
            ("max delay", &|r| r.measured_max_delay.to_string()),
            ("k+1", &|r| r.predicted_delay.to_string()),
            ("buffer (≤3)", &|r| r.measured_buffer.to_string()),
            ("neighbors (≤k)", &|r| r.measured_neighbors.to_string()),
        ],
    );
    // k = 1 starts even earlier than k + 1.
    let exact = rows
        .iter()
        .all(|r| r.k < 2 || r.measured_max_delay == r.predicted_delay);
    let buffer = rows.iter().map(|r| r.measured_buffer).max().unwrap_or(0);
    Report::checked(
        format!("Proposition 1 — special N = 2^k − 1\n\n{table}\n"),
        exact && buffer <= 3,
        format!("delay == k+1 for k ∈ 2..=10: {exact}; buffers ≤ {buffer} packets"),
    )
}

fn prop2_arbitrary() -> Report {
    let rows = ex::prop2_thm4(&geometric_grid(2, 2000, 14));
    let table = render_table(
        &rows,
        &[
            ("N", &|r| r.n.to_string()),
            ("cubes", &|r| r.cubes.to_string()),
            ("max", &|r| r.measured_max_delay.to_string()),
            ("predicted", &|r| r.predicted_max_delay.to_string()),
            ("avg", &|r| format!("{:.2}", r.measured_avg_delay)),
            ("2log₂N", &|r| format!("{:.2}", r.thm4_bound)),
            ("buffer", &|r| r.measured_buffer.to_string()),
            ("nbrs", &|r| r.measured_neighbors.to_string()),
        ],
    );
    let prop2 = rows
        .iter()
        .all(|r| r.measured_max_delay <= r.predicted_max_delay && r.measured_buffer <= 3);
    let thm4 = rows
        .iter()
        .all(|r| r.measured_avg_delay <= r.thm4_bound + 1.0);
    Report::checked(
        format!("Proposition 2 / Theorem 4 — arbitrary N hypercube chains\n\n{table}\n"),
        prop2 && thm4,
        format!(
            "delay ≤ Σ(k+1) and buffers ≤ 3 at all {} N grid points: {prop2}; avg delay ≤ \
             2log₂N (+1 small-N slack): {thm4}",
            rows.len()
        ),
    )
}

// ------------------------------- Omitted simulations and extensions

fn ext_incomplete_trees() -> Report {
    let ns = linear_grid(5, 500, 34);
    let mut text = String::new();
    let mut all = Vec::new();
    for d in [2usize, 3] {
        let rows = ex::ext_incomplete(&ns, d);
        let table = render_table(
            &rows,
            &[
                ("N", &|r| r.n.to_string()),
                ("measured", &|r| r.measured.to_string()),
                ("h·d", &|r| r.bound.to_string()),
                ("slack", &|r| r.slack.to_string()),
            ],
        );
        write!(text, "ext-A — incomplete trees, d = {d}\n\n{table}\n").unwrap();
        all.extend(rows);
    }
    let under = all.iter().all(|r| r.measured <= r.bound);
    Report::checked(
        text,
        under,
        format!(
            "incomplete trees stay under h·d at all {} points (d = 2, 3): {under}; max slack \
             observed: {}",
            all.len(),
            all.iter().map(|r| r.slack).max().unwrap_or(0)
        ),
    )
}

fn ext_churn() -> Report {
    let mut text = String::new();
    let mut swaps = Vec::new();
    for (seed, leave_rate) in [(1u64, 0.002f64), (2, 0.01), (3, 0.03)] {
        let cfg = ChurnTraceConfig {
            initial_members: 60,
            slots: 2000,
            join_rate: 0.05,
            leave_rate,
            rejoin_rate: 0.0,
            seed,
        };
        let rows = ex::ext_churn(cfg, 3);
        let table = render_table(
            &rows,
            &[
                ("variant", &|r| r.variant.clone()),
                ("events", &|r| r.events.to_string()),
                ("swaps", &|r| r.total_swaps.to_string()),
                ("rebuilds", &|r| r.rebuilds.to_string()),
                ("max displaced", &|r| r.max_displaced.to_string()),
                ("hiccup slots", &|r| r.hiccup_slots.to_string()),
                ("final N", &|r| r.final_members.to_string()),
                ("post delay", &|r| r.post_churn_max_delay.to_string()),
            ],
        );
        write!(
            text,
            "ext-B — churn (seed {seed}, leave rate {leave_rate}), d = 3, N₀ = 60\n\n{table}\n"
        )
        .unwrap();
        swaps.push((rows[0].total_swaps, rows[1].total_swaps));
    }
    let lazy_wins = swaps.iter().all(|(eager, lazy)| lazy <= eager);
    let pairs: Vec<String> = swaps.iter().map(|(e, l)| format!("{e}/{l}")).collect();
    Report::checked(
        text,
        lazy_wins,
        format!(
            "churn swaps eager/lazy per trace: {}; lazy ≤ eager: {lazy_wins}",
            pairs.join(", ")
        ),
    )
}

fn ext_npc_demo() -> Report {
    let rows = ex::ext_npc();
    let mut text = String::new();
    for r in &rows {
        writeln!(
            text,
            "{}: splittable = {}, reduction has two interior-disjoint trees = {}",
            r.name,
            r.split.is_some(),
            r.trees.is_some()
        )
        .unwrap();
        if let (Some(v1), Some((t1, t2))) = (r.split, r.trees) {
            writeln!(text, "  V₁ mask = {v1:#b}").unwrap();
            writeln!(text, "  T₁ interior mask = {t1:#b}").unwrap();
            writeln!(text, "  T₂ interior mask = {t2:#b}").unwrap();
        }
    }
    text += "\nThe decision problem is NP-complete (reduction from E-4 Set Splitting).\n";
    let preserved = rows.iter().all(|r| r.split.is_some() == r.trees.is_some());
    Report::checked(
        text,
        preserved,
        format!(
            "reduction preserves the answer on all {} instances: {preserved}",
            rows.len()
        ),
    )
}

fn ext_resilience() -> Report {
    let loss = ex::ext_loss(200, 2, &[0.001, 0.01, 0.05], 48);
    let loss_table = render_table(
        &loss,
        &[
            ("scheme", &|r| r.scheme.clone()),
            ("loss rate", &|r| format!("{:.3}", r.loss_rate)),
            ("affected nodes", &|r| {
                format!("{:.1}%", 100.0 * r.affected_frac)
            }),
            ("avg missing", &|r| format!("{:.2}", r.avg_missing)),
            ("lost links", &|r| r.lost_in_flight.to_string()),
        ],
    );
    let crash = ex::ext_crash(200, 2, 4, 48);
    let crash_table = render_table(
        &crash,
        &[
            ("scheme", &|r| r.scheme.clone()),
            ("starved nodes", &|r| r.starved_nodes.to_string()),
            ("worst stream loss", &|r| {
                format!("{:.0}%", 100.0 * r.worst_loss_frac)
            }),
        ],
    );
    let worst = |scheme: &str| {
        let row = crash.iter().find(|r| r.scheme.starts_with(scheme));
        row.expect("one crash row per scheme").worst_loss_frac
    };
    let (st, mt) = (worst("single-tree"), worst("multi-tree"));
    Report::checked(
        format!(
            "ext-D — link loss (N = 200, d = 2, 48 tracked packets)\n\n{loss_table}\n\
             ext-E — crash of node 1 at slot 4 (N = 200, d = 2, 48 packets)\n\n{crash_table}\n\
             single tree: the crashed subtree loses ~the whole stream;\n\
             multi-tree: the same subtree loses ~1/d of packets (one tree of d).\n"
        ),
        mt < st,
        format!(
            "crash blast radius (worst stream loss): single-tree {:.0}%, multi-tree {:.0}%, \
             hypercube {:.0}%; multi-tree < single-tree: {}",
            100.0 * st,
            100.0 * mt,
            100.0 * worst("hypercube"),
            mt < st
        ),
    )
}

fn ext_live_modes() -> Report {
    let d = 3;
    let rows = ex::ext_live_modes(&[15, 63, 255, 1023], d);
    let table = render_table(
        &rows,
        &[
            ("N", &|r| r.n.to_string()),
            ("mode", &|r| r.mode.clone()),
            ("max delay", &|r| r.max_delay.to_string()),
            ("avg delay", &|r| format!("{:.2}", r.avg_delay)),
            ("buffer", &|r| r.max_buffer.to_string()),
        ],
    );
    // Rows come three per N: pre-recorded, live-prebuffered, live-pipelined.
    let ok = rows.chunks(3).all(|m| {
        m[1].max_delay == m[0].max_delay + d as u64
            && m[2].max_delay <= m[0].max_delay + 2 * (d as u64 - 1)
    });
    let at255: Vec<String> = rows
        .iter()
        .filter(|r| r.n == 255)
        .map(|r| format!("{} max={} buf={}", r.mode, r.max_delay, r.max_buffer))
        .collect();
    Report::checked(
        format!("Live-mode ablation, d = 3\n\n{table}\n"),
        ok,
        format!(
            "N=255: {}; prebuffered = +d and pipelined ≤ +2(d−1) worst delay at every N: {ok}",
            at255.join(", ")
        ),
    )
}

fn ext_constructions() -> Report {
    let rows = ex::ext_constructions(&[15, 100, 500, 2000], 3);
    let table = render_table(
        &rows,
        &[
            ("N", &|r| r.n.to_string()),
            ("construction", &|r| r.construction.clone()),
            ("max delay", &|r| r.max_delay.to_string()),
            ("avg delay", &|r| format!("{:.2}", r.avg_delay)),
            ("buffer", &|r| r.max_buffer.to_string()),
        ],
    );
    // Rows come two per N: structured, greedy.
    let same = rows.chunks(2).all(|c| c[0].max_delay == c[1].max_delay);
    Report::checked(
        format!("Construction ablation, d = 3\n\n{table}\n"),
        same,
        format!(
            "structured and greedy deliver the same worst-case delay at all {} N: {same}",
            rows.len() / 2
        ),
    )
}

fn ext_adaptive_churn() -> Report {
    let title = "ext-F — streaming through churn (dynamic multi-tree, d = 3, N₀ = 30)";
    let cells = [(1, 0.01, 0.0005), (2, 0.03, 0.002), (3, 0.06, 0.004)];
    let rows = match ex::ext_adaptive_churn(30, 3, &cells) {
        Ok(rows) => rows,
        Err(divergence) => return Report::checked(format!("{title}\n"), false, divergence),
    };
    let table = render_table(
        &rows,
        &[
            ("seed", &|r| r.seed.to_string()),
            ("events", &|r| r.events.to_string()),
            ("joins", &|r| r.joins.to_string()),
            ("leaves", &|r| r.leaves.to_string()),
            ("final N", &|r| r.final_members.to_string()),
            ("swaps", &|r| r.swaps.to_string()),
            ("survivors w/ gaps", &|r| r.survivors_gapped.to_string()),
            ("worst gap (pkts)", &|r| r.worst_gap.to_string()),
            ("tail complete", &|r| {
                if r.tail_complete { "yes" } else { "NO" }.into()
            }),
        ],
    );
    let stable = rows.iter().all(|r| r.tail_complete);
    let gaps: Vec<String> = rows.iter().map(|r| r.worst_gap.to_string()).collect();
    Report::checked(
        format!(
            "{title}\n\n{table}\n\
             gaps are transient bursts around reconfigurations; the stream always\n\
             re-stabilizes — quantifying the appendix's hiccup discussion.\n"
        ),
        stable,
        format!(
            "worst real gap per trace: {} packets; tail complete for every member of all {} \
             traces: {stable}; reference, mega and des-wheel agree on every trace",
            gaps.join(", "),
            rows.len()
        ),
    )
}

fn ext_utilization() -> Report {
    let mut text = String::new();
    let mut all = Vec::new();
    for n in [63usize, 255] {
        let rows = ex::ext_utilization(n, 2, 48);
        let table = render_table(
            &rows,
            &[
                ("scheme", &|r| r.scheme.clone()),
                ("idle receivers", &|r| r.idle_receivers.to_string()),
                ("mean rate", &|r| format!("{:.2}", r.mean_upload_rate)),
                ("max rate", &|r| format!("{:.2}", r.max_upload_rate)),
            ],
        );
        write!(
            text,
            "ext-G — upload utilization, N = {n}, d = 2\n\n{table}\n"
        )
        .unwrap();
        all.extend(rows);
    }
    text += "single tree: ~half the receivers idle while interiors upload at 2×;\n\
             multi-tree: only the d all-leaf nodes idle, everyone else at ≤ 1×;\n\
             hypercube: contribution spread across all nodes.\n";
    let idle = |scheme: &str| {
        let row = all
            .iter()
            .find(|r| r.n == 255 && r.scheme.starts_with(scheme));
        row.expect("one row per scheme and N").idle_receivers
    };
    let ok = idle("multi-tree") <= 2 && idle("hypercube") == 0;
    Report::checked(
        text,
        ok,
        format!(
            "idle receivers at N=255: single-tree {}, multi-tree {}, hypercube {}, chain {}; \
             multi-tree ≤ d and hypercube 0: {ok}",
            idle("single-tree"),
            idle("multi-tree"),
            idle("hypercube"),
            idle("chain")
        ),
    )
}

fn ext_jitter_sweep() -> Report {
    let rows = ex::ext_jitter_sweep(500, 3, &[0.0, 0.25, 0.5, 1.0, 2.0, 4.0], 48, 1);
    let table = render_table(
        &rows,
        &[
            ("jitter", &|r| format!("{:.2}", r.jitter_slots)),
            ("max delay", &|r| r.max_delay.to_string()),
            ("avg delay", &|r| format!("{:.3}", r.avg_delay)),
            ("buffer", &|r| r.max_buffer.to_string()),
            ("thm2 bound", &|r| r.thm2_bound.to_string()),
            ("delay infl", &|r| format!("{:.4}x", r.delay_inflation)),
            ("buffer infl", &|r| format!("{:.4}x", r.buffer_inflation)),
        ],
    );
    // Zero jitter is the slot-faithful DES: exactly the slot engine's run.
    let faithful = rows[0].delay_inflation == 1.0 && rows[0].buffer_inflation == 1.0;
    let broken = rows.iter().find(|r| r.max_delay > r.thm2_bound);
    Report::checked(
        format!(
            "DES jitter sweep — multi-tree N = 500, d = 3, uniform link jitter (slots), seed 1\n\n\
             {table}\n"
        ),
        faithful,
        format!(
            "zero-jitter DES run equals the slot model (inflation exactly 1.0): {faithful}; \
             h·d = {} first exceeded at jitter {}",
            rows[0].thm2_bound,
            broken.map_or("never".into(), |r| format!("{:.2}", r.jitter_slots))
        ),
    )
}

fn ext_recovery_tiers() -> Report {
    let rows = ex::ext_recovery_tiers(60, 3, 48, 240, 11, &[0.0005, 0.002, 0.005]);
    let table = render_table(
        &rows,
        &[
            ("churn", &|r| format!("{:.4}", r.churn_rate)),
            ("mode", &|r| r.mode.into()),
            ("leaves", &|r| r.departures.to_string()),
            ("data tx", &|r| r.transmissions.to_string()),
            ("delivered", &|r| format!("{:.4}", r.delivered_fraction)),
            ("missing", &|r| r.missing_packets.to_string()),
            ("detected", &|r| r.res.failures_detected.to_string()),
            ("repairs", &|r| r.res.repairs_committed.to_string()),
            ("displaced", &|r| r.res.displaced_total.to_string()),
            ("lat avg", &|r| {
                format!("{:.4}", r.recovery_latency_avg_slots)
            }),
            ("lat max", &|r| {
                format!("{:.1}", r.recovery_latency_max_slots)
            }),
            ("nacks", &|r| r.res.nacks_sent.to_string()),
            ("retx", &|r| r.res.retransmissions.to_string()),
            ("repaired", &|r| r.res.repaired_packets.to_string()),
            ("abandoned", &|r| r.res.abandoned_packets.to_string()),
            ("ctl msgs", &|r| r.res.control_messages.to_string()),
            ("ctl ovhd", &|r| format!("{:.4}", r.control_overhead)),
        ],
    );
    // Rows come three per churn rate: off, repair, repair+nack. Bare
    // repair may trail `off` by a few packets when departures rejoin
    // (tests/recovery.rs holds the strict ordering for crashes without
    // rejoins), so the claim is about the full tier only.
    let ok = rows.chunks(3).all(|t| {
        t[0].res.control_messages == 0 && t[2].delivered_fraction > t[0].delivered_fraction
    });
    let delivered: Vec<String> = rows
        .chunks(3)
        .map(|t| {
            format!(
                "{:.4}→{:.4}",
                t[0].delivered_fraction, t[2].delivered_fraction
            )
        })
        .collect();
    Report::checked(
        format!(
            "Recovery tiers under churn — multi-tree N = 60, d = 3, track 48, horizon 240 slots, \
             trace seed 11\n\n{table}\n"
        ),
        ok,
        format!(
            "delivered fraction off→repair+nack per churn rate: {}; fail-silent sends no control \
             traffic and repair+nack delivers more at every rate: {ok}",
            delivered.join(", ")
        ),
    )
}

fn ext_flash_crowd() -> Report {
    // The whole crowd arrives as a ramp over 200 slots from slot 10; the
    // 256-packet window outlasts it, since joiners only receive packets
    // sent after they arrive and a shorter window never closes the
    // frontier.
    let (n0, d, curve) = (100, 3, "ramp:1000@10+200");
    let scenario = ScenarioPlan::parse(curve).expect("a valid join curve");
    let plan = crowd_plan(n0, d, scenario, 256, 2_000);
    let title = format!(
        "ext-F — flash crowd: n0 = {n0}, d = {d}, scenario `{curve}`, engine {}\n\n",
        plan.label()
    );
    let rep = match run_flash_crowd(&plan) {
        Ok(rep) => rep,
        Err(e) => return Report::checked(title, false, format!("flash-crowd run failed: {e}")),
    };
    // The same plan on the DES under --check: heap and wheel in lockstep,
    // and mega beside them, bit for bit.
    let replay = RunPlan {
        runtime: Runtime::Des,
        check: true,
        ..plan
    };
    let diverged = replay.run(&Telemetry::disabled()).err();
    crowd_report(title, &rep, diverged.map(|e| e.to_string()))
}

/// The flash crowd's rendering and verdict: the interruption frontier
/// closes at the paper's `h·d` budget, and the DES replays the run
/// (`diverged` says how it did not).
fn crowd_report(title: String, rep: &FlashCrowdReport, diverged: Option<String>) -> Report {
    // Every frontier table pins the paper's h·d budget as a grid row.
    let delay = |d0: u64| match d0 == rep.bound_h_d {
        true => format!("{d0} (= h·d)"),
        false => d0.to_string(),
    };
    let buffering = render_table(
        &rep.initial_buffering,
        &[
            ("delay d0", &|p| delay(p.initial_delay)),
            ("P(interrupt)", &|p| {
                format!("{:.4}", p.interruption_probability)
            }),
            ("stall slots", &|p| format!("{:.2}", p.mean_stall_slots)),
            ("smoothness", &|p| format!("{:.4}", p.smoothness)),
        ],
    );
    let frontier = render_table(
        &rep.throughput_smoothness,
        &[
            ("policy", &|p| p.policy.label().to_string()),
            ("delay d0", &|p| delay(p.initial_delay)),
            ("throughput", &|p| format!("{:.4}", p.throughput)),
            ("smoothness", &|p| format!("{:.4}", p.smoothness)),
        ],
    );
    let replayed = diverged.is_none();
    let replay = diverged.map_or("closed".into(), |e| format!("DIVERGED: {e}"));
    let text = format!(
        "{title}joins {} | final members {} | rebuilds {} | swaps {} | settled slot {} | \
         measured max delay {} | h·d bound {}\n\n\
         initial buffering vs. interruption (Wait policy):\n\n{buffering}\n\n\
         throughput–smoothness frontier (both policies):\n\n{frontier}\n\n\
         oracle: slot ≡ DES on the same plan ... {replay}\n",
        rep.joins_applied,
        rep.final_members,
        rep.rebuilds,
        rep.total_swaps,
        rep.settled_slot,
        rep.max_delay,
        rep.bound_h_d,
    );
    let at_bound = rep
        .initial_buffering
        .iter()
        .find(|p| p.initial_delay == rep.bound_h_d);
    let at_bound = at_bound.map(|p| p.interruption_probability);
    let closed = at_bound == Some(0.0);
    Report::checked(
        text,
        closed && replayed,
        format!(
            "{} members after {} joins: P(interrupt) {} at d0 = h·d = {} (measured max delay \
             {}); frontier closed at h·d: {closed}; slot ≡ DES replay: {replay}",
            rep.final_members,
            rep.joins_applied,
            at_bound.map_or("missing".into(), |p| format!("{p:.4}")),
            rep.bound_h_d,
            rep.max_delay
        ),
    )
}

/// The heterogeneity sweep's class mixes, and whether each one's worst
/// delay exceeds `h·d`: the homogeneous fiber baseline and the zipf mix
/// stay within it, the mobile-heavy tail does not.
const MIXES: [(&str, bool); 3] = [
    ("fiber", false),
    ("fiber,cable,mobile", false),
    ("mobile,cable", true),
];

fn ext_heterogeneity() -> Report {
    // Jitter is what makes class capacity bite: under fixed latency one
    // send per slot fits even a mobile uplink on time; jitter bunches
    // sends into bursts that only the fat classes absorb.
    let (n, d, zipf, seed) = (400, 3, 1.0, 7);
    let base = RunPlan {
        runtime: Runtime::Des,
        uplink: UplinkModel::Serialized,
        latency: LatencyModel::UniformJitter { jitter: 0.75 },
        des_seed: Some(1),
        ..crowd_plan(n, d, ScenarioPlan::default(), 48, 4_000)
    };
    let title = format!(
        "ext-G — heterogeneity: N = {n}, d = {d}, zipf s = {zipf}, seed {seed}, {}\n\n",
        base.label()
    );
    let mut reports = Vec::new();
    for (spec, _) in MIXES {
        let classes = CapacityClassPlan::parse(spec).expect("a valid class mix");
        let plan = RunPlan {
            classes: Some(classes.with_zipf(zipf).seeded(seed)),
            ..base.clone()
        };
        match run_heterogeneity(&plan) {
            Ok(rep) => reports.push(rep),
            Err(e) => {
                let line = format!("heterogeneity run `{spec}` failed: {e}");
                return Report::checked(title, false, line);
            }
        }
    }
    mixes_report(title, &reports)
}

/// The heterogeneity sweep's rendering and verdict: only the mixes
/// [`MIXES`] expects to break `h·d` do.
fn mixes_report(title: String, reports: &[HeterogeneityReport]) -> Report {
    let rows: Vec<_> = reports
        .iter()
        .flat_map(|rep| rep.per_class.iter().map(move |(c, q)| (rep, c, q)))
        .collect();
    let table = render_table(
        &rows,
        &[
            ("mix", &|(rep, _, _)| rep.classes.clone()),
            ("class", &|(_, c, _)| c.name.clone()),
            ("cap", &|(_, c, _)| c.capacity.to_string()),
            ("nodes", &|(_, _, q)| q.nodes.to_string()),
            ("P(interrupt) @ h·d", &|(_, _, q)| {
                format!("{:.4}", q.interruption_probability)
            }),
            ("stall slots", &|(_, _, q)| {
                format!("{:.2}", q.mean_stall_slots)
            }),
            ("smoothness", &|(_, _, q)| format!("{:.4}", q.smoothness)),
        ],
    );
    let (mut text, mut delays) = (format!("{title}{table}\n"), Vec::new());
    for r in reports {
        let (mix, max, bound) = (&r.classes, r.max_delay, r.bound_h_d);
        writeln!(text, "mix `{mix}`: max delay {max} (h·d bound {bound})").unwrap();
        delays.push(format!("{mix} {max}/{bound}"));
    }
    text.push('\n');
    let ok = reports.len() == MIXES.len()
        && (reports.iter().zip(MIXES))
            .all(|(rep, (_, beyond))| (rep.max_delay > rep.bound_h_d) == beyond);
    Report::checked(
        text,
        ok,
        format!(
            "max delay / h·d per mix: {}; fiber and zipf mixes within h·d, only the \
             mobile-heavy mix beyond: {ok}",
            delays.join(", ")
        ),
    )
}

fn tradeoff_frontier() -> Report {
    let mut text = String::new();
    for n in [63usize, 250, 1000, 10_000, 100_000] {
        let table = render_table(
            &pareto_frontier(&candidates(n, 5)),
            &[
                ("scheme", &|p| p.scheme.clone()),
                ("delay ≤", &|p| p.delay.to_string()),
                ("buffer", &|p| p.buffer.to_string()),
                ("peers ≤", &|p| p.neighbors.to_string()),
            ],
        );
        write!(text, "Pareto frontier at N = {n}\n\n{table}\n").unwrap();
    }
    let crossover = multitree_beats_hypercube_from(5000);
    let line = match crossover {
        Some(x) => format!(
            "degree-2 multi-trees dominate the single hypercube chain on worst-case \
             delay from N ≈ {x} onward"
        ),
        None => "no stable crossover below N = 5000".to_string(),
    };
    Report::checked(text + &line + "\n", crossover.is_some(), line)
}

/// Closed-form predictions for populations far beyond the paper's
/// 2000-node figures, plus large validated simulations to show the
/// engines agree there.
fn scale_sweep() -> Report {
    let table = render_table(
        &[1_000usize, 10_000, 100_000, 1_000_000, 10_000_000],
        &[
            ("N", &|n| n.to_string()),
            ("mt d=2 (h·d)", &|&n| {
                thm2_worst_delay_bound(n, 2).to_string()
            }),
            ("mt d=3", &|&n| thm2_worst_delay_bound(n, 3).to_string()),
            ("hc worst", &|&n| chained_worst_delay(n).to_string()),
            ("hc avg", &|&n| format!("{:.1}", chained_avg_delay(n))),
            ("opt d", &|&n| optimal_degree(n, 8).to_string()),
        ],
    );
    let mut text = format!("closed-form predictions at scale\n\n{table}\n");

    let s = MultiTreeScheme::new(greedy_forest(100_000, 3).unwrap(), StreamMode::PreRecorded);
    let max_delay = DelayProfile::compute(&s).unwrap().max_delay();
    let bound = thm2_worst_delay_bound(100_000, 3);
    writeln!(
        text,
        "exact profile, N = 100000, d = 3: max delay {max_delay} (bound {bound})"
    )
    .unwrap();

    let sims = ex::scale_validated(20_000);
    for r in &sims {
        writeln!(
            text,
            "validated sim, N = 20000 ({}): {} transmissions",
            r.scheme, r.transmissions
        )
        .unwrap();
    }
    let identical = sims.iter().all(|r| r.diffs.is_empty());
    Report::checked(
        text,
        max_delay <= bound && identical,
        format!(
            "N=100000 exact profile: max delay {max_delay} ≤ bound {bound}; mega ≡ reference \
             at N=20000: {identical}"
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustream_workloads::{PlayPolicy, QoeSummary};

    fn run(items: &[Item]) -> Vec<(&'static str, Report)> {
        items.iter().map(|i| (i.id, (i.run)())).collect()
    }

    #[test]
    fn a_sabotaged_verdict_fails_the_summary_and_names_the_item() {
        // Closed-form items only: the full catalog is run (and held to
        // passing) by tests/golden.rs.
        let mut items = catalog();
        items.retain(|i| ["fig3_trees", "opt_degree", "tradeoff_frontier"].contains(&i.id));
        assert_eq!(items.len(), 3);
        let (text, failed) = summarize(&run(&items));
        assert!(failed.is_empty(), "untouched catalog must pass:\n{text}");

        items[1].run = || Report::checked(String::new(), false, "sabotaged".into());
        let (text, failed) = summarize(&run(&items));
        assert_eq!(failed, [items[1].id]);
        assert!(text.contains("FAIL sabotaged"), "{text}");
    }

    /// `report` judged under `id`: the ids the summary fails.
    fn judged(id: &'static str, report: Report) -> Vec<&'static str> {
        summarize(&[(id, report)]).1
    }

    fn wait_point(initial_delay: u64, interruption_probability: f64) -> QoeSummary {
        QoeSummary {
            policy: PlayPolicy::Wait,
            initial_delay,
            nodes: 10,
            interrupted_nodes: (10.0 * interruption_probability) as u64,
            interruption_probability,
            mean_stall_slots: 0.0,
            smoothness: 1.0,
            throughput: 1.0,
            total_played: 0,
            total_skipped: 0,
        }
    }

    #[test]
    fn a_crowd_frontier_still_open_at_h_d_fails_the_summary() {
        let mut rep = FlashCrowdReport {
            joins_applied: 5,
            final_members: 10,
            rebuilds: 1,
            total_swaps: 4,
            settled_slot: 9,
            bound_h_d: 6,
            max_delay: 5,
            initial_buffering: vec![wait_point(4, 0.5), wait_point(6, 0.0), wait_point(8, 0.0)],
            throughput_smoothness: vec![],
        };
        let report = |rep: &FlashCrowdReport, oracle| crowd_report(String::new(), rep, oracle);
        assert!(judged("ext_flash_crowd", report(&rep, None)).is_empty());
        let diverged = report(&rep, Some("mega and des-checked diverge".into()));
        assert_eq!(judged("ext_flash_crowd", diverged), ["ext_flash_crowd"]);

        rep.initial_buffering[1] = wait_point(6, 0.1);
        let open = report(&rep, None);
        let (_, line) = open.verdict.as_ref().expect("a checked item");
        assert!(
            line.contains("P(interrupt) 0.1000 at d0 = h·d = 6"),
            "{line}"
        );
        assert_eq!(judged("ext_flash_crowd", open), ["ext_flash_crowd"]);
    }

    #[test]
    fn a_zipf_mix_beyond_h_d_fails_the_summary() {
        let mix = |classes: &str, max_delay| HeterogeneityReport {
            classes: classes.into(),
            bound_h_d: 18,
            max_delay,
            per_class: vec![],
        };
        let mut reports = vec![mix("fiber:4", 17), mix("zipf", 17), mix("mobile", 19)];
        let report = |reports: &[HeterogeneityReport]| mixes_report(String::new(), reports);
        assert!(judged("ext_heterogeneity", report(&reports)).is_empty());

        reports[1].max_delay = 19;
        assert_eq!(
            judged("ext_heterogeneity", report(&reports)),
            ["ext_heterogeneity"]
        );
        // …and so does a mobile-heavy mix that no longer breaks h·d.
        reports[1].max_delay = 17;
        reports[2].max_delay = 18;
        assert_eq!(
            judged("ext_heterogeneity", report(&reports)),
            ["ext_heterogeneity"]
        );
    }
}
