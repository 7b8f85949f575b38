//! Reference-vs-fast engine comparison on the Figure 4 / Table 1 /
//! scale-sweep simulation workloads.
//!
//! Each workload is simulated by both engines (results are first checked
//! field-by-field for equality), timed, and reported as slots/sec plus
//! the fast-engine speedup. A machine-readable summary is written to
//! `BENCH_engine.json` in the current directory.

use clustream_bench::render_table;
use clustream_bench::suites::{
    engine_workloads, scale_workloads, EngineReport, EngineRow, ScaleRow,
};
use clustream_bench::timing::{bench, bench_prepared, peak_rss_bytes};
use clustream_sim::{diff_fields, FastEngine, MegaEngine, Simulator};

fn main() {
    let build = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    if build == "debug" {
        eprintln!("warning: debug build — speedups are not representative");
    }

    let mut engine = FastEngine::new();
    let mut rows = Vec::new();
    for w in engine_workloads() {
        let cfg = w.sim();

        // Correctness first: both engines must agree bit for bit.
        let reference = Simulator::run(w.make().as_mut(), &cfg).unwrap();
        let fast = engine.run(w.make().as_mut(), &cfg).unwrap();
        let diffs = diff_fields(&reference, &fast);
        assert!(diffs.is_empty(), "{}: engines diverge on {diffs:?}", w.name);

        let m_ref = bench(&format!("{}_reference", w.name), w.samples, || {
            Simulator::run(w.make().as_mut(), &cfg).unwrap().slots_run
        });
        let m_fast = bench(&format!("{}_fast", w.name), w.samples, || {
            engine.run(w.make().as_mut(), &cfg).unwrap().slots_run
        });

        let ref_s = m_ref.min().as_secs_f64();
        let fast_s = m_fast.min().as_secs_f64();
        rows.push(EngineRow {
            workload: w.name.to_string(),
            slots_run: reference.slots_run,
            transmissions: reference.total_transmissions,
            samples: w.samples,
            reference_min_ns: m_ref.min().as_nanos() as u64,
            fast_min_ns: m_fast.min().as_nanos() as u64,
            reference_slots_per_sec: reference.slots_run as f64 / ref_s,
            fast_slots_per_sec: reference.slots_run as f64 / fast_s,
            speedup: ref_s / fast_s,
        });
    }

    let min_speedup = rows.iter().map(|r| r.speedup).fold(f64::INFINITY, f64::min);
    println!(
        "\n{}",
        render_table(
            &[
                "workload",
                "slots",
                "ref slots/s",
                "fast slots/s",
                "speedup"
            ],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.workload.clone(),
                        r.slots_run.to_string(),
                        format!("{:.0}", r.reference_slots_per_sec),
                        format!("{:.0}", r.fast_slots_per_sec),
                        format!("{:.2}x", r.speedup),
                    ]
                })
                .collect::<Vec<_>>()
        )
    );
    println!("minimum speedup across workloads: {min_speedup:.2}x");

    // Scaling section: fast vs mega at growing populations. Scheme
    // construction dominates wall time at these sizes, so each sample
    // builds its scheme untimed and only the engine run is measured.
    let mut scaling = Vec::new();
    for w in scale_workloads() {
        let cfg = w.sim();

        // Correctness first — every row, including the generate-only
        // ones: fast and mega must agree bit for bit.
        let fast = FastEngine::new().run(w.make().as_mut(), &cfg).unwrap();
        let mega = MegaEngine::new().run(w.make().as_mut(), &cfg).unwrap();
        let diffs = diff_fields(&fast, &mega);
        assert!(diffs.is_empty(), "{}: engines diverge on {diffs:?}", w.name);

        let m_fast = bench_prepared(
            &format!("{}_fast", w.name),
            w.samples,
            || w.make(),
            |mut s| FastEngine::new().run(s.as_mut(), &cfg).unwrap().slots_run,
        );
        let m_mega = bench_prepared(
            &format!("{}_mega", w.name),
            w.samples,
            || w.make(),
            |mut s| MegaEngine::new().run(s.as_mut(), &cfg).unwrap().slots_run,
        );

        let fast_s = m_fast.min().as_secs_f64();
        let mega_s = m_mega.min().as_secs_f64();
        scaling.push(ScaleRow {
            workload: w.name.to_string(),
            n: w.plan.scheme.n,
            slots_run: fast.slots_run,
            transmissions: fast.total_transmissions,
            samples: w.samples,
            fast_min_ns: m_fast.min().as_nanos() as u64,
            mega_min_ns: m_mega.min().as_nanos() as u64,
            fast_slots_per_sec: fast.slots_run as f64 / fast_s,
            mega_slots_per_sec: fast.slots_run as f64 / mega_s,
            mega_speedup: fast_s / mega_s,
            peak_rss_bytes: peak_rss_bytes().unwrap_or(0),
            gate: w.gate,
        });
    }

    let min_mega_speedup = scaling
        .iter()
        .filter(|r| r.gate)
        .map(|r| r.mega_speedup)
        .fold(f64::INFINITY, f64::min);
    println!(
        "\n{}",
        render_table(
            &[
                "scale workload",
                "n",
                "slots",
                "fast slots/s",
                "mega slots/s",
                "speedup",
                "peak RSS"
            ],
            &scaling
                .iter()
                .map(|r| {
                    vec![
                        r.workload.clone(),
                        r.n.to_string(),
                        r.slots_run.to_string(),
                        format!("{:.0}", r.fast_slots_per_sec),
                        format!("{:.0}", r.mega_slots_per_sec),
                        format!("{:.2}x", r.mega_speedup),
                        format!("{:.0} MiB", r.peak_rss_bytes as f64 / (1 << 20) as f64),
                    ]
                })
                .collect::<Vec<_>>()
        )
    );
    println!("minimum gated mega speedup: {min_mega_speedup:.2}x");

    let report = EngineReport {
        build: build.to_string(),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rows,
        min_speedup,
        scaling,
        min_mega_speedup,
    };
    let json = serde_json::to_string_pretty(&report).expect("serializable");
    std::fs::write("BENCH_engine.json", json + "\n").expect("write BENCH_engine.json");
    println!("wrote BENCH_engine.json");
}
