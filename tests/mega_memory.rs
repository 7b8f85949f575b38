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

use clustream::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread holds (freed on this thread) and the peak since
    /// the last reset. The mega engine at one shard allocates and frees
    /// on the caller's thread only.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn grew(by: isize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + by);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are plain thread-local `Cell`s
// with no destructor, so touching them neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as isize);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as isize);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grew(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size as isize - layout.size() as isize);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most bytes `f` held at once on this thread, beyond what was held
/// when it started.
fn peak_bytes<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start));
    let out = f();
    (PEAK.with(Cell::get).abs_diff(start), out)
}

#[test]
fn a_mega_run_at_n_10_4_peaks_under_its_bound() {
    let mut scheme =
        MultiTreeScheme::new(greedy_forest(10_000, 3).unwrap(), StreamMode::PreRecorded);
    let cfg = SimConfig::until_complete(256, 100_000);
    let mut mega = MegaEngine::new();
    let (peak, res) = peak_bytes(|| mega.run(&mut scheme, &cfg).unwrap());
    assert_eq!(res.qos.nodes.len(), 10_000);
    assert!(mega.steady_slots() > 0, "the steady table never ran");
    // Measured at 6 879 149 bytes, 2.6 MB of them the arrival cells;
    // the bound leaves 10 % headroom. With two sorted neighbor `Vec`s
    // per node in place of one 32-byte link row the same run peaked at
    // 7 279 053 bytes, with 32-bit cells at 14.8 MB, with 64-bit cells
    // at 26.2 MB.
    assert!(
        peak < 7_570_000,
        "a mega run at N = 10⁴ peaked at {peak} bytes"
    );
}
