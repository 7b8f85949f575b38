//! The bytes a relaxed DES run has allocated at its peak, under a
//! counting `#[global_allocator]`: `tests/des_golden.rs`'s N = 300
//! `des_recovery` configuration (jitter, a serialized uplink, churn and
//! repair+nack) on the timing wheel, the ledger's queue. The event
//! loop's two containers, the wheel's buckets and the parked sends, are
//! most of it; either one holding memory for more than its live entries
//! — a wheel that pools drained buckets, parked-send rows kept dense
//! after the run has moved past them, a leftover walk that copies every
//! parked key — fails the bound.

mod counting;

use clustream::prelude::*;
use counting::peak_bytes;

#[test]
fn a_des_recovery_run_at_n_300_peaks_under_its_bound() {
    let churn = ChurnTrace::generate(ChurnTraceConfig {
        initial_members: 300,
        slots: 200,
        join_rate: 0.0,
        leave_rate: 0.0005,
        rejoin_rate: 0.0,
        seed: 0,
    });
    let cfg = DesConfig::slot_faithful(SimConfig::until_complete(128, 4 * 128))
        .with_latency(LatencyModel::UniformJitter { jitter: 0.5 })
        .with_uplink(UplinkModel::Serialized)
        .seeded(7)
        .with_churn(churn)
        .with_recovery(RecoveryConfig::repair_nack())
        .with_queue(QueueKind::Wheel);
    let mut scheme =
        DynamicMultiTree::new(300, 3, StreamMode::PreRecorded, Construction::Greedy).unwrap();
    let mut engine = DesEngine::new();
    let (peak, res) = peak_bytes(|| engine.run(&mut scheme, &cfg).unwrap());
    // The run `des_golden` pins on the checked queue.
    assert_eq!(res.total_transmissions, 132_381);
    assert_eq!(engine.stats().events_processed, 451_347);
    // Measured at 1 428 276 bytes; the bound leaves 10 % headroom. With
    // every parked-send row kept dense for the whole run and the
    // leftover walk copying every parked key into one buffer, the same
    // run peaked at 2 186 098 bytes; with drained outer wheel buckets
    // pooled for reuse and whole transmissions parked under (head, tail)
    // index cells, at 4 492 130; with the pool gone alone, at 3 089 762.
    assert!(
        peak < 1_571_000,
        "a des_recovery run at N = 300 peaked at {peak} bytes"
    );
}
