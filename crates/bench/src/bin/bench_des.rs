//! Discrete-event runtime benchmark: event throughput on the standard
//! simulation workloads — on both event queues (binary heap and timing
//! wheel) — plus the delay/buffer inflation the relaxed network models
//! introduce over the synchronous slot model.
//!
//! Every `(workload, queue)` cell is first checked field-by-field against
//! the fast slot engine (the correctness anchor), then timed. The jitter
//! table reuses `ext_jitter_sweep`: observed worst playback delay under
//! uniform link jitter vs the Theorem 2 `h·d` bound. A machine-readable
//! summary is written to `BENCH_des.json`.

use clustream_bench::ext_jitter_sweep;
use clustream_bench::render_table;
use clustream_bench::suites::{des_queues, des_workloads, DesReport, ThroughputRow};
use clustream_bench::timing::bench;
use clustream_des::DesEngine;
use clustream_sim::{diff_fields, FastEngine};

fn main() {
    let build = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    if build == "debug" {
        eprintln!("warning: debug build — throughput is not representative");
    }

    let mut fast = FastEngine::new();
    let mut throughput = Vec::new();
    let mut min_wheel_speedup = f64::INFINITY;
    for w in des_workloads() {
        let sim = w.sim();
        let reference = fast.run(w.make().as_mut(), &sim).unwrap();
        let m_fast = bench(&format!("{}_fast", w.name), w.samples, || {
            fast.run(w.make().as_mut(), &sim).unwrap().slots_run
        });

        let mut heap_min_ns = 0u64;
        for queue in des_queues() {
            let des_cfg = w.des(queue);

            // Correctness first: slot-faithful DES ≡ fast slot engine,
            // whichever queue backs it.
            let mut engine = DesEngine::new();
            let des = engine.run(w.make().as_mut(), &des_cfg).unwrap();
            let diffs = diff_fields(&reference, &des);
            assert!(
                diffs.is_empty(),
                "{}/{}: DES diverges on {diffs:?}",
                w.name,
                queue.label()
            );
            let events = engine.stats().events_processed;

            let m_des = bench(
                &format!("{}_des_{}", w.name, queue.label()),
                w.samples,
                || engine.run(w.make().as_mut(), &des_cfg).unwrap().slots_run,
            );

            let des_min_ns = m_des.min().as_nanos() as u64;
            if queue.label() == "heap" {
                heap_min_ns = des_min_ns;
            } else {
                let speedup = heap_min_ns as f64 / des_min_ns as f64;
                min_wheel_speedup = min_wheel_speedup.min(speedup);
                println!("{}: wheel speedup over heap {speedup:.2}x", w.name);
            }
            let des_s = m_des.min().as_secs_f64();
            throughput.push(ThroughputRow {
                workload: w.name.to_string(),
                queue: queue.label().to_string(),
                slots_run: reference.slots_run,
                events,
                samples: w.samples,
                des_min_ns,
                fast_min_ns: m_fast.min().as_nanos() as u64,
                events_per_sec: events as f64 / des_s,
                slowdown_vs_fast: des_s / m_fast.min().as_secs_f64(),
            });
        }
    }

    println!(
        "\n{}",
        render_table(
            &["workload", "queue", "slots", "events", "events/s", "vs fast"],
            &throughput
                .iter()
                .map(|r| {
                    vec![
                        r.workload.clone(),
                        r.queue.clone(),
                        r.slots_run.to_string(),
                        r.events.to_string(),
                        format!("{:.0}", r.events_per_sec),
                        format!("{:.2}x", r.slowdown_vs_fast),
                    ]
                })
                .collect::<Vec<_>>()
        )
    );
    println!("min wheel speedup over heap: {min_wheel_speedup:.2}x");

    // Jitter sweep: how far observed delay drifts past Theorem 2's
    // synchronous-model bound as link jitter grows.
    let jitter_sweep = ext_jitter_sweep(500, 3, &[0.0, 0.25, 0.5, 1.0, 2.0, 4.0], 48, 1);
    assert!(
        (jitter_sweep[0].delay_inflation - 1.0).abs() < f64::EPSILON,
        "jitter=0 must be slot-faithful"
    );
    println!(
        "\n{}",
        render_table(
            &[
                "jitter",
                "max delay",
                "thm2 bound",
                "delay infl",
                "buffer infl"
            ],
            &jitter_sweep
                .iter()
                .map(|r| {
                    vec![
                        format!("{:.2}", r.jitter_slots),
                        r.max_delay.to_string(),
                        r.thm2_bound.to_string(),
                        format!("{:.2}x", r.delay_inflation),
                        format!("{:.2}x", r.buffer_inflation),
                    ]
                })
                .collect::<Vec<_>>()
        )
    );

    let report = DesReport {
        build: build.to_string(),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        throughput,
        min_wheel_speedup,
        jitter_sweep,
    };
    let json = serde_json::to_string_pretty(&report).expect("serializable");
    std::fs::write("BENCH_des.json", json + "\n").expect("write BENCH_des.json");
    println!("wrote BENCH_des.json");
}
