//! The bytes a mega run has allocated at its peak, under a counting
//! `#[global_allocator]`: at N = 10⁴, d = 3 and 256 tracked packets the
//! arrival table's one-byte cells are 2.6 MB of it, and a table that
//! widens them again fails the bound.
//!
//! This counts allocations, not resident memory. The table's cells are
//! allocated lazily zeroed, so a page nobody writes costs address space
//! but is counted all the same: the periodic rows' tails, which the run
//! never touches, do not lower this figure. What they save shows in the
//! process's peak RSS (the `scale_multitree` row of `benchmark/`), and
//! that they stay untouched is pinned by the arrival table's own tests.

mod counting;

use clustream::prelude::*;
use counting::peak_bytes;

#[test]
fn a_mega_run_at_n_10_4_peaks_under_its_bound() {
    let mut scheme =
        MultiTreeScheme::new(greedy_forest(10_000, 3).unwrap(), StreamMode::PreRecorded);
    let cfg = SimConfig::until_complete(256, 100_000);
    let mut mega = MegaEngine::new();
    let (peak, res) = peak_bytes(|| mega.run(&mut scheme, &cfg).unwrap());
    assert_eq!(res.qos.nodes.len(), 10_000);
    assert!(mega.steady_slots() > 0, "the steady table never ran");
    // Measured at 6 485 685 bytes, 2.6 MB of them the arrival cells;
    // the bound leaves 10 % headroom. While the ramp ran in full mode
    // it peaked at 6 879 149 bytes. With two sorted neighbor `Vec`s
    // per node in place of one 32-byte link row the same run peaked at
    // 7 279 053 bytes, with 32-bit cells at 14.8 MB, with 64-bit cells
    // at 26.2 MB.
    assert!(
        peak < 7_135_000,
        "a mega run at N = 10⁴ peaked at {peak} bytes"
    );
}
