//! Scalability sweep: closed-form predictions for populations far beyond
//! the paper's 2000-node figures, plus a large validated simulation to
//! show the engine keeps up.

use clustream_analysis as analysis;
use clustream_bench::{render_table, simulate};
use clustream_multitree::{greedy_forest, DelayProfile, MultiTreeScheme, StreamMode};
use clustream_plan::{Family, SchemeSpec};
use clustream_sim::{diff_fields, FastEngine, SimConfig};
use std::time::Instant;

fn main() {
    println!("closed-form predictions at scale\n");
    let rows: Vec<Vec<String>> = [1_000usize, 10_000, 100_000, 1_000_000, 10_000_000]
        .iter()
        .map(|&n| {
            vec![
                n.to_string(),
                analysis::thm2_worst_delay_bound(n, 2).to_string(),
                analysis::thm2_worst_delay_bound(n, 3).to_string(),
                analysis::chained_worst_delay(n).to_string(),
                format!("{:.1}", analysis::chained_avg_delay(n)),
                analysis::optimal_degree(n, 8).to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["N", "mt d=2 (h·d)", "mt d=3", "hc worst", "hc avg", "opt d"],
            &rows
        )
    );

    // Exact closed-form profile of a 100k-node forest.
    let t0 = Instant::now();
    let s = MultiTreeScheme::new(greedy_forest(100_000, 3).unwrap(), StreamMode::PreRecorded);
    let p = DelayProfile::compute(&s).unwrap();
    println!(
        "exact profile, N = 100000, d = 3: max delay {} (bound {}), computed in {:.2?}",
        p.max_delay(),
        analysis::thm2_worst_delay_bound(100_000, 3),
        t0.elapsed()
    );

    // Fully validated simulations at N = 20000, on both engines: the
    // readable reference and the allocation-light fast path (identical
    // results, checked field by field on every run).
    let mut engine = FastEngine::new();
    let cells = [
        (
            "multitree",
            48,
            SchemeSpec::new(Family::MultiTree, 20_000, 3),
        ),
        (
            "hypercube",
            64,
            SchemeSpec::new(Family::Hypercube, 20_000, 1),
        ),
    ];
    let cells = cells.map(|(name, track, spec)| (name, track, move || spec.build().unwrap()));
    for (_, track, make) in &cells {
        let t0 = Instant::now();
        let reference = simulate(make().as_mut(), *track);
        let t_ref = t0.elapsed();
        let cfg = SimConfig::until_complete(*track, 1_000_000);
        let t0 = Instant::now();
        let fast = engine.run(make().as_mut(), &cfg).unwrap();
        let t_fast = t0.elapsed();
        let diffs = diff_fields(&reference, &fast);
        assert!(diffs.is_empty(), "engines diverge on {diffs:?}");
        println!(
            "validated sim, N = 20000 ({}): {} transmissions — reference {:.2?}, fast {:.2?} ({:.2}x)",
            reference.scheme,
            reference.total_transmissions,
            t_ref,
            t_fast,
            t_ref.as_secs_f64() / t_fast.as_secs_f64()
        );
    }
}
