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
use clustream_bench::suites::{measure_des, DesReport};
use clustream_bench::timing::{build_label, write_report};

fn main() {
    if build_label() == "debug" {
        eprintln!("warning: debug build — throughput is not representative");
    }

    let throughput = measure_des(usize::MAX);
    // Rows come per workload as a (heap, wheel) pair.
    let mut min_wheel_speedup = f64::INFINITY;
    for pair in throughput.chunks(2) {
        let speedup = pair[0].des_min_ns as f64 / pair[1].des_min_ns as f64;
        min_wheel_speedup = min_wheel_speedup.min(speedup);
        println!(
            "{}: wheel speedup over heap {speedup:.2}x",
            pair[0].workload
        );
    }

    println!(
        "\n{}",
        render_table(
            &throughput,
            &[
                ("workload", &|r| r.workload.clone()),
                ("queue", &|r| r.queue.clone()),
                ("slots", &|r| r.slots_run.to_string()),
                ("events", &|r| r.events.to_string()),
                ("events/s", &|r| format!("{:.0}", r.events_per_sec)),
                ("vs fast", &|r| format!("{:.2}x", r.slowdown_vs_fast)),
            ]
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
            &jitter_sweep,
            &[
                ("jitter", &|r| format!("{:.2}", r.jitter_slots)),
                ("max delay", &|r| r.max_delay.to_string()),
                ("thm2 bound", &|r| r.thm2_bound.to_string()),
                ("delay infl", &|r| format!("{:.2}x", r.delay_inflation)),
                ("buffer infl", &|r| format!("{:.2}x", r.buffer_inflation)),
            ]
        )
    );

    let report = DesReport {
        build: build_label().to_string(),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        throughput,
        min_wheel_speedup,
        jitter_sweep,
    };
    write_report("BENCH_des.json", &report);
}
