//! Deterministic parallel sweep runner.
//!
//! Experiment grids — `(N, d, seed)` cells for the paper's figures and
//! tables — are embarrassingly parallel: every cell is an independent
//! simulation. [`sweep`] farms the cells out to worker threads, each
//! owning one reusable [`MegaEngine`] arena, and returns results **in
//! input order** regardless of which worker finished which cell when:
//! workers tag each result with its cell index and the results are
//! sorted by that index at the end. Because each cell's simulation is
//! itself deterministic, the whole sweep is — same grid, same output,
//! bit for bit, at any thread count (including 1).
//!
//! Scheduling is dynamic (an atomic next-cell counter), so a grid mixing
//! `N = 100` and `N = 20 000` cells keeps all workers busy instead of
//! stalling on a pre-chunked straggler.

use crate::mega::MegaEngine;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Dynamic work-claiming counter shared by a pool of workers.
///
/// Each worker repeatedly [`claims`](ClaimCounter::claim) the next unit
/// index until the pool is drained — the scheduling idiom behind both
/// the sweep workers below and the mega engine's in-run shard rounds
/// (`crate::mega`). Claiming is a single relaxed `fetch_add`; any
/// ordering the caller needs between rounds comes from its own
/// synchronisation (the sweep joins its threads, the mega engine sits
/// between barrier waits).
#[derive(Debug, Default)]
pub(crate) struct ClaimCounter {
    next: AtomicUsize,
}

impl ClaimCounter {
    /// A fresh counter starting at unit 0.
    pub(crate) fn new() -> Self {
        ClaimCounter {
            next: AtomicUsize::new(0),
        }
    }

    /// Claim the next unit index, or `None` once `limit` units have been
    /// handed out.
    #[inline]
    pub(crate) fn claim(&self, limit: usize) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < limit).then_some(i)
    }

    /// Rewind to unit 0 for the next round. Callers must ensure no
    /// worker is claiming concurrently (e.g. by a barrier).
    pub(crate) fn reset(&self) {
        self.next.store(0, Ordering::Relaxed);
    }
}

/// Number of worker threads a sweep will use for `n_cells` cells.
fn sweep_threads(n_cells: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(n_cells.max(1))
}

/// Run `run_cell` over every cell, in parallel, with deterministic
/// input-order results.
///
/// Each worker thread gets its own single-shard [`MegaEngine`] arena,
/// reused across all cells the worker claims, so the kernel's buffers
/// are amortised over the whole sweep. `run_cell` receives the arena and a
/// reference to the cell. A cell that panics re-raises its own panic
/// here, payload and all.
pub fn sweep<I, R, F>(cells: &[I], run_cell: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(&mut MegaEngine, &I) -> R + Sync,
{
    sweep_with_threads(cells, sweep_threads(cells.len()), run_cell)
}

/// [`sweep`] with an explicit worker-pool size.
///
/// Results are in input order and bit-identical at every pool size —
/// the property the determinism tests pin down. `threads` is clamped to
/// at least 1; sizes beyond the cell count just idle.
fn sweep_with_threads<I, R, F>(cells: &[I], threads: usize, run_cell: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(&mut MegaEngine, &I) -> R + Sync,
{
    let threads = threads.max(1).min(cells.len().max(1));
    if threads <= 1 {
        let mut engine = MegaEngine::new();
        return cells.iter().map(|c| run_cell(&mut engine, c)).collect();
    }

    let next = ClaimCounter::new();
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut engine = MegaEngine::new();
                    let mut local = Vec::new();
                    while let Some(i) = next.claim(cells.len()) {
                        local.push((i, run_cell(&mut engine, &cells[i])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimConfig;
    use clustream_core::{NodeId, PacketId, Slot, StateView, Transmission, SOURCE};

    struct Chain {
        n: usize,
    }
    impl clustream_core::Scheme for Chain {
        fn name(&self) -> String {
            format!("chain({})", self.n)
        }
        fn num_receivers(&self) -> usize {
            self.n
        }
        fn transmissions(&mut self, slot: Slot, _: &dyn StateView, out: &mut Vec<Transmission>) {
            let t = slot.t();
            out.push(Transmission::local(SOURCE, NodeId(1), PacketId(t)));
            for i in 1..self.n as u64 {
                if t >= i {
                    out.push(Transmission::local(
                        NodeId(i as u32),
                        NodeId(i as u32 + 1),
                        PacketId(t - i),
                    ));
                }
            }
        }
    }

    #[test]
    fn results_are_in_input_order() {
        // Deliberately unsorted mix of sizes.
        let cells: Vec<usize> = vec![9, 2, 7, 1, 5, 3, 8, 4, 6, 10];
        let results = sweep(&cells, |engine, &n| {
            let mut s = Chain { n };
            engine
                .run(&mut s, &SimConfig::until_complete(8, 200))
                .unwrap()
                .qos
                .max_delay()
        });
        // Chain max delay equals chain length.
        let expected: Vec<u64> = cells.iter().map(|&n| n as u64).collect();
        assert_eq!(results, expected);
    }

    #[test]
    fn sweep_matches_sequential_reference() {
        let cells: Vec<(usize, u64)> = (2..10).map(|n| (n, n as u64 * 3)).collect();
        let par = sweep(&cells, |engine, &(n, track)| {
            let mut s = Chain { n };
            engine
                .run(&mut s, &SimConfig::until_complete(track, 500))
                .unwrap()
        });
        for (cell, got) in cells.iter().zip(&par) {
            let mut s = Chain { n: cell.0 };
            let want =
                crate::Simulator::run(&mut s, &SimConfig::until_complete(cell.1, 500)).unwrap();
            assert_eq!(crate::diff::diff_fields(&want, got), Vec::<&str>::new());
        }
    }

    /// A cell's own panic reaches the caller: the message an experiment's
    /// `.expect` wrote, not a generic "worker panicked".
    #[test]
    fn a_panicking_cell_re_raises_its_own_panic() {
        let cells: Vec<usize> = (0..8).collect();
        let caught = std::panic::catch_unwind(|| {
            sweep_with_threads(&cells, 2, |_, &i| {
                if i == 3 {
                    panic!("cell 3 failed");
                }
                i
            })
        })
        .expect_err("the sweep must propagate the cell's panic");
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"cell 3 failed"));
    }

    #[test]
    fn empty_sweep_is_empty() {
        let cells: Vec<usize> = Vec::new();
        let results = sweep(&cells, |_, _| 0u32);
        assert!(results.is_empty());
    }

    /// The sweep contract: input-order, bit-identical results at every
    /// pool size — 1 worker, 2 workers, and whatever `sweep_threads`
    /// would pick for the grid.
    #[test]
    fn results_are_deterministic_across_pool_sizes() {
        let cells: Vec<(usize, u64)> = (1..24).map(|n| (n, 4 + (n as u64 % 7))).collect();
        let run = |engine: &mut MegaEngine, &(n, track): &(usize, u64)| {
            let mut s = Chain { n };
            engine
                .run(&mut s, &SimConfig::until_complete(track, 500))
                .unwrap()
        };
        let auto = sweep_threads(cells.len());
        let baseline = sweep_with_threads(&cells, 1, run);
        for threads in [2usize, auto] {
            let got = sweep_with_threads(&cells, threads, run);
            assert_eq!(got.len(), baseline.len());
            for (i, (want, have)) in baseline.iter().zip(&got).enumerate() {
                assert_eq!(
                    crate::diff::diff_fields(want, have),
                    Vec::<&str>::new(),
                    "cell {i} diverged at {threads} threads"
                );
            }
        }
        // Oversized pools are clamped, not a panic.
        let oversized = sweep_with_threads(&cells, cells.len() * 4, run);
        assert_eq!(oversized.len(), baseline.len());
    }
}
