//! Profiling driver: repeat one DES workload forever-ish so a sampling
//! profiler gets enough hits. Not part of the bench suite.

use clustream_bench::suites::des_workloads;
use clustream_des::{DesEngine, QueueKind};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "chain".into());
    let queue = match std::env::args().nth(2).as_deref() {
        Some("heap") => QueueKind::Heap,
        _ => QueueKind::Wheel,
    };
    let reps: usize = std::env::args()
        .nth(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);
    let w = des_workloads()
        .into_iter()
        .find(|w| w.name.starts_with(&which))
        .expect("workload");
    let cfg = w.des(queue);
    let mut engine = DesEngine::new();
    let mut total = 0u64;
    for _ in 0..reps {
        total += engine.run(w.make().as_mut(), &cfg).unwrap().slots_run;
    }
    println!("{} reps, slots total {total}", reps);
}
