//! NACK retransmission state: per-gap retry tracking and seeded
//! exponential backoff.
//!
//! Gap status is lookup-only — nothing ever iterates it — so it lives
//! in dense per-node rows indexed by packet seq rather than an ordered
//! map: every probe is two array reads. Rows grow only in
//! [`NackManager::open`]; the DES opens gaps inside its tracked window
//! (`seq < track_packets`, `node < id_space`), which bounds them.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Lifecycle of one NACKed gap packet at one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GapStatus {
    /// Never opened.
    Untracked,
    /// Retries in flight.
    Open,
    /// Filled by a retransmission (or a late regular delivery).
    Repaired,
    /// Retry budget exhausted: skipped, hiccup recorded.
    Abandoned,
}

/// Tracks which `(node, packet)` gaps are being chased and computes the
/// capped, jittered exponential backoff between retries.
#[derive(Debug)]
pub struct NackManager {
    /// `gaps[node][seq]`; cells past a row's end are untracked.
    gaps: Vec<Vec<GapStatus>>,
    base: u64,
    multiplier: f64,
    cap: u64,
    jitter: u64,
    rng: ChaCha8Rng,
}

impl NackManager {
    /// A manager with backoff `min(cap, base·multiplier^attempt)` plus
    /// uniform jitter in `[0, jitter)` ticks drawn from `seed`.
    pub fn new(base: u64, multiplier: f64, cap: u64, jitter: u64, seed: u64) -> Self {
        NackManager {
            gaps: Vec::new(),
            base: base.max(1),
            multiplier: multiplier.max(1.0),
            cap: cap.max(1),
            jitter,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    fn status(&self, node: u32, seq: u64) -> GapStatus {
        let row = self.gaps.get(node as usize);
        let cell = row.and_then(|r| r.get(usize::try_from(seq).ok()?));
        cell.copied().unwrap_or(GapStatus::Untracked)
    }

    /// Move an open gap to `to`; `false` (and no change) unless it was
    /// open.
    fn close(&mut self, node: u32, seq: u64, to: GapStatus) -> bool {
        let row = self.gaps.get_mut(node as usize);
        match row.and_then(|r| r.get_mut(usize::try_from(seq).ok()?)) {
            Some(status @ GapStatus::Open) => {
                *status = to;
                true
            }
            _ => false,
        }
    }

    /// Open a gap; `false` if it is already tracked (in any state).
    pub fn open(&mut self, node: u32, seq: u64) -> bool {
        if self.status(node, seq) != GapStatus::Untracked {
            return false;
        }
        let (node, seq) = (node as usize, seq as usize);
        if self.gaps.len() <= node {
            self.gaps.resize_with(node + 1, Vec::new);
        }
        let row = &mut self.gaps[node];
        if row.len() <= seq {
            row.resize(seq + 1, GapStatus::Untracked);
        }
        row[seq] = GapStatus::Open;
        true
    }

    /// Whether retries for this gap should continue.
    pub fn is_open(&self, node: u32, seq: u64) -> bool {
        self.status(node, seq) == GapStatus::Open
    }

    /// Mark the gap filled; `true` if it was open (a genuine repair).
    pub fn resolve(&mut self, node: u32, seq: u64) -> bool {
        self.close(node, seq, GapStatus::Repaired)
    }

    /// Give up on the gap; `true` if it was open (a fresh abandonment).
    pub fn abandon(&mut self, node: u32, seq: u64) -> bool {
        self.close(node, seq, GapStatus::Abandoned)
    }

    /// Ticks to wait after retry number `attempt` (0-based):
    /// `min(cap, base·multiplier^attempt)` plus seeded jitter.
    pub fn backoff_delay(&mut self, attempt: u32) -> u64 {
        let exp = self.multiplier.powi(attempt.min(63) as i32);
        let raw = (self.base as f64 * exp).round() as u64;
        let capped = raw.min(self.cap);
        let jitter = if self.jitter > 0 {
            self.rng.gen_range(0..self.jitter)
        } else {
            0
        };
        capped.saturating_add(jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        /// The dense rows against the ordered map they replaced: every
        /// call returns what the map-backed manager returned.
        #[test]
        fn dense_rows_match_the_ordered_map_model(
            ops in proptest::collection::vec((0u8..4, 0u32..6, 0u64..48), 1..400),
        ) {
            let mut dense = NackManager::new(100, 2.0, 1000, 0, 1);
            let mut model: BTreeMap<(u32, u64), GapStatus> = BTreeMap::new();
            let close = |model: &mut BTreeMap<(u32, u64), GapStatus>, key, to| {
                match model.get_mut(&key) {
                    Some(s @ GapStatus::Open) => {
                        *s = to;
                        true
                    }
                    _ => false,
                }
            };
            for (op, node, seq) in ops {
                let key = (node, seq);
                match op {
                    0 => {
                        let fresh = !model.contains_key(&key);
                        model.entry(key).or_insert(GapStatus::Open);
                        prop_assert_eq!(dense.open(node, seq), fresh);
                    }
                    1 => prop_assert_eq!(
                        dense.resolve(node, seq),
                        close(&mut model, key, GapStatus::Repaired)
                    ),
                    2 => prop_assert_eq!(
                        dense.abandon(node, seq),
                        close(&mut model, key, GapStatus::Abandoned)
                    ),
                    _ => {}
                }
                prop_assert_eq!(
                    dense.is_open(node, seq),
                    model.get(&key) == Some(&GapStatus::Open)
                );
            }
        }
    }

    #[test]
    fn probes_outside_every_row_are_untracked_and_allocate_nothing() {
        let mut m = NackManager::new(100, 2.0, 1000, 0, 1);
        assert!(!m.is_open(u32::MAX, u64::MAX));
        assert!(!m.resolve(u32::MAX, u64::MAX));
        assert!(!m.abandon(7, u64::MAX));
        assert!(m.gaps.is_empty());
    }

    #[test]
    fn backoff_with_an_infinite_cap_saturates() {
        let mut m = NackManager::new(u64::MAX, 2.0, u64::MAX, 256, 1);
        assert_eq!(m.backoff_delay(3), u64::MAX);
    }

    #[test]
    fn gap_lifecycle() {
        let mut m = NackManager::new(100, 2.0, 1000, 0, 1);
        assert!(m.open(3, 7));
        assert!(!m.open(3, 7), "already tracked");
        assert!(m.is_open(3, 7));
        assert!(m.resolve(3, 7));
        assert!(!m.resolve(3, 7), "only repaired once");
        assert!(!m.is_open(3, 7));
        assert!(!m.open(3, 7), "resolved gaps are not reopened");

        assert!(m.open(4, 7));
        assert!(m.abandon(4, 7));
        assert!(!m.abandon(4, 7));
        assert!(!m.resolve(4, 7), "abandoned gaps stay abandoned");
    }

    #[test]
    fn backoff_grows_and_caps() {
        let mut m = NackManager::new(100, 2.0, 1000, 0, 1);
        assert_eq!(m.backoff_delay(0), 100);
        assert_eq!(m.backoff_delay(1), 200);
        assert_eq!(m.backoff_delay(2), 400);
        assert_eq!(m.backoff_delay(5), 1000, "capped");
        assert_eq!(m.backoff_delay(60), 1000, "huge attempts stay capped");
    }

    #[test]
    fn jitter_is_seeded_and_bounded() {
        let draws = |seed: u64| {
            let mut m = NackManager::new(100, 2.0, 1000, 50, seed);
            (0..64).map(|_| m.backoff_delay(0)).collect::<Vec<_>>()
        };
        let a = draws(9);
        for &d in &a {
            assert!((100..150).contains(&d), "jitter out of range: {d}");
        }
        assert_eq!(a, draws(9), "same seed ⇒ same jitter");
        assert_ne!(a, draws(10), "different seed ⇒ different jitter");
    }
}
