//! Wall-clock failure detection for the networked runtime.
//!
//! The DES drives [`crate::FailureDetector`] with simulated ticks and
//! explicit timeout events; a real `clustream-node` process has neither —
//! it has a wall clock and a slot loop. [`WallClockDetector`] wraps the
//! same detector core for that setting: one local watcher, timestamps in
//! UNIX nanoseconds, and a poll called once per slot boundary instead of
//! a timer queue. Silence verdicts fire **once** per subject; the caller
//! forwards them to the orchestrator as `Suspect` frames, where the
//! cluster-level tally (again the shared [`crate::FailureDetector`], via
//! [`crate::FailureDetector::suspect`]) counts distinct watchers.

use crate::detector::{FailureDetector, TimeoutVerdict};
use std::collections::BTreeSet;

/// Single-watcher, wall-clock view of the failure detector.
#[derive(Debug, Clone)]
pub struct WallClockDetector {
    inner: FailureDetector,
    watched: BTreeSet<u32>,
    reported: BTreeSet<u32>,
}

/// The local node's watcher id inside [`WallClockDetector`]'s one-id
/// detector: there is only ever the one watcher, so its real node id does
/// not matter, and the detector's rows stay one row long whatever it is.
const LOCAL: u32 = 0;

impl WallClockDetector {
    /// A detector for the local node that suspects a subject after
    /// `timeout_ns` nanoseconds of silence.
    pub fn new(timeout_ns: u64) -> Self {
        WallClockDetector {
            // Threshold 1: locally, one watcher's silence IS the verdict;
            // the cross-watcher tally happens at the orchestrator.
            inner: FailureDetector::new(1, 1, timeout_ns),
            watched: BTreeSet::new(),
            reported: BTreeSet::new(),
        }
    }

    /// Start (or refresh) watching `subject`; `now_ns` starts its
    /// silence window. Equivalent to [`WallClockDetector::heard`] — a
    /// watch is just a synthetic first hearing.
    pub fn watch(&mut self, subject: u32, now_ns: u64) {
        self.heard(subject, now_ns);
    }

    /// Record traffic from `subject` at `now_ns`. Hearing from a subject
    /// withdraws any un-forwarded suspicion; an already-reported subject
    /// stays reported (the orchestrator saw the frame — retracting would
    /// need a protocol message the tally deliberately doesn't have, as
    /// real traffic from the subject also reaches other watchers).
    pub fn heard(&mut self, subject: u32, now_ns: u64) {
        self.watched.insert(subject);
        self.inner.record(LOCAL, subject, now_ns);
    }

    /// Evaluate every watched subject at `now_ns`, returning the
    /// subjects that crossed the silence horizon **this poll** (each
    /// fires exactly once). `still_owed` filters the scan: a subject
    /// that owes this node nothing further is silent by design, not
    /// dead — scheduled senders go quiet when their calendar ends.
    pub fn poll(&mut self, now_ns: u64, mut still_owed: impl FnMut(u32) -> bool) -> Vec<u32> {
        let mut newly = Vec::new();
        for &subject in &self.watched {
            if self.reported.contains(&subject) || !still_owed(subject) {
                continue;
            }
            if let TimeoutVerdict::Suspect = self.inner.check(LOCAL, subject, now_ns) {
                newly.push(subject);
            }
        }
        for &s in &newly {
            self.reported.insert(s);
        }
        newly
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn silence_past_timeout_fires_once() {
        let mut d = WallClockDetector::new(10 * MS);
        d.watch(2, 0);
        assert_eq!(d.poll(5 * MS, |_| true), Vec::<u32>::new());
        assert_eq!(d.poll(10 * MS, |_| true), vec![2]);
        // Fired once; later polls stay quiet even under more silence.
        assert_eq!(d.poll(50 * MS, |_| true), Vec::<u32>::new());
    }

    #[test]
    fn traffic_resets_the_silence_window() {
        let mut d = WallClockDetector::new(10 * MS);
        d.watch(2, 0);
        d.heard(2, 8 * MS);
        assert_eq!(d.poll(12 * MS, |_| true), Vec::<u32>::new());
        assert_eq!(d.poll(18 * MS, |_| true), vec![2]);
    }

    #[test]
    fn subjects_owing_nothing_are_never_suspected() {
        let mut d = WallClockDetector::new(10 * MS);
        d.watch(2, 0);
        d.watch(3, 0);
        // Node 3's calendar toward us has ended: silence is expected.
        assert_eq!(d.poll(30 * MS, |s| s == 2), vec![2]);
    }

    #[test]
    fn multiple_subjects_fire_independently() {
        let mut d = WallClockDetector::new(10 * MS);
        d.watch(5, 0);
        d.watch(6, 5 * MS);
        assert_eq!(d.poll(11 * MS, |_| true), vec![5]);
        assert_eq!(d.poll(15 * MS, |_| true), vec![6]);
    }
}
