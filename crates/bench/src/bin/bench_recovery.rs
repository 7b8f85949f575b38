//! Recovery benchmark: what failure detection, online tree repair and
//! NACK retransmission buy under membership churn.
//!
//! For each churn rate, the same seeded crash trace is replayed through
//! the DES three times — fail-silent (`off`), detection + repair
//! (`repair`), and repair + retransmission (`repair+nack`) — and the
//! table reports delivered fraction, recovery latency and control
//! overhead per tier. A machine-readable summary is written to
//! `BENCH_recovery.json`.

use clustream_bench::render_table;
use clustream_bench::suites::{
    recovery_tiers, recovery_trace_for, run_recovery_tier, RecoveryReport, RECOVERY_D,
    RECOVERY_HORIZON, RECOVERY_N, RECOVERY_RATES, RECOVERY_TRACK,
};
use clustream_bench::timing::{build_label, write_report};

fn main() {
    if build_label() == "debug" {
        eprintln!("warning: debug build — wall times are not representative");
    }

    let mut rows = Vec::new();
    for &rate in &RECOVERY_RATES {
        let trace = recovery_trace_for(rate);
        for (mode, rec) in recovery_tiers() {
            rows.push(run_recovery_tier(&trace, rate, mode, rec));
        }
        // Tier monotonicity (repair ≥ off ≥ …) is only a theorem for
        // interior crashes without rejoins (see tests/recovery.rs); with
        // rejoins a leaf departure can make the tiers trade places by a
        // few packets, so the bench reports rather than asserts.
    }

    println!(
        "\n{}",
        render_table(
            &rows,
            &[
                ("churn", &|r| format!("{:.4}", r.churn_rate)),
                ("mode", &|r| r.mode.clone()),
                ("leaves", &|r| r.departures.to_string()),
                ("delivered", &|r| format!("{:.4}", r.delivered_fraction)),
                ("repairs", &|r| r.repairs_committed.to_string()),
                ("lat avg", &|r| format!(
                    "{:.1}",
                    r.recovery_latency_avg_slots
                )),
                ("nacks", &|r| r.nacks_sent.to_string()),
                ("ctl ovhd", &|r| format!("{:.4}", r.control_overhead)),
            ]
        )
    );

    let report = RecoveryReport {
        build: build_label().to_string(),
        n: RECOVERY_N,
        d: RECOVERY_D,
        track: RECOVERY_TRACK,
        horizon: RECOVERY_HORIZON,
        rows,
    };
    write_report("BENCH_recovery.json", &report);
}
