//! Reference-vs-fast engine comparison on the Figure 4 / Table 1 /
//! scale-sweep simulation workloads.
//!
//! Each workload is simulated by both engines (results are first checked
//! field-by-field for equality), timed, and reported as slots/sec plus
//! the fast-engine speedup. A machine-readable summary is written to
//! `BENCH_engine.json` in the current directory.

use clustream_bench::render_table;
use clustream_bench::suites::{
    measure_engine, scale_workloads, time_fast_and_mega, EngineReport, ScaleRow,
};
use clustream_bench::timing::{build_label, peak_rss_bytes, write_report};
use clustream_sim::{diff_fields, FastEngine, MegaEngine};

fn main() {
    if build_label() == "debug" {
        eprintln!("warning: debug build — speedups are not representative");
    }

    let rows = measure_engine(usize::MAX);
    let min_speedup = rows.iter().map(|r| r.speedup).fold(f64::INFINITY, f64::min);
    println!(
        "\n{}",
        render_table(
            &rows,
            &[
                ("workload", &|r| r.workload.clone()),
                ("slots", &|r| r.slots_run.to_string()),
                ("ref slots/s", &|r| format!(
                    "{:.0}",
                    r.reference_slots_per_sec
                )),
                ("fast slots/s", &|r| format!("{:.0}", r.fast_slots_per_sec)),
                ("speedup", &|r| format!("{:.2}x", r.speedup)),
            ]
        )
    );
    println!("minimum speedup across workloads: {min_speedup:.2}x");

    // Scaling section: fast vs mega at growing populations.
    let mut scaling = Vec::new();
    for w in scale_workloads() {
        let cfg = w.sim();

        // Correctness first — every row, including the generate-only
        // ones: fast and mega must agree bit for bit.
        let fast = FastEngine::new().run(w.make().as_mut(), &cfg).unwrap();
        let mega = MegaEngine::new().run(w.make().as_mut(), &cfg).unwrap();
        let diffs = diff_fields(&fast, &mega);
        assert!(diffs.is_empty(), "{}: engines diverge on {diffs:?}", w.name);

        let (t_fast, t_mega) = time_fast_and_mega(&w, w.samples);
        let (fast_s, mega_s) = (t_fast.as_secs_f64(), t_mega.as_secs_f64());
        scaling.push(ScaleRow {
            workload: w.name.to_string(),
            n: w.plan.scheme.n,
            slots_run: fast.slots_run,
            transmissions: fast.total_transmissions,
            samples: w.samples,
            fast_min_ns: t_fast.as_nanos() as u64,
            mega_min_ns: t_mega.as_nanos() as u64,
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
    let mib = |r: &ScaleRow| r.peak_rss_bytes as f64 / (1 << 20) as f64;
    println!(
        "\n{}",
        render_table(
            &scaling,
            &[
                ("scale workload", &|r| r.workload.clone()),
                ("n", &|r| r.n.to_string()),
                ("slots", &|r| r.slots_run.to_string()),
                ("fast slots/s", &|r| format!("{:.0}", r.fast_slots_per_sec)),
                ("mega slots/s", &|r| format!("{:.0}", r.mega_slots_per_sec)),
                ("speedup", &|r| format!("{:.2}x", r.mega_speedup)),
                ("peak RSS", &|r| format!("{:.0} MiB", mib(r))),
            ]
        )
    );
    println!("minimum gated mega speedup: {min_mega_speedup:.2}x");

    let report = EngineReport {
        build: build_label().to_string(),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rows,
        min_speedup,
        scaling,
        min_mega_speedup,
    };
    write_report("BENCH_engine.json", &report);
}
