//! Per-link silence detection with a watcher-count suspicion threshold.
//!
//! Every delivery `from → to` refreshes the link's last-heard time; the
//! receiver (`to`, the *watcher*) arms a timeout for `from` (the
//! *subject*). If the link stays silent past the timeout the watcher
//! suspects the subject; once enough **distinct** watchers suspect the
//! same subject, the failure is confirmed. Timeouts are lazily re-armed
//! (one outstanding timer per link — until a repair clears the links, see
//! [`FailureDetector::clear_links`]), so the detector adds O(live links)
//! events, not O(deliveries).
//!
//! Every piece of state is lookup-only and dense, indexed by node id:
//! one short row of `(subject, last heard)` pairs per watcher (a watcher
//! hears from about `d` live subjects, so a row is a handful of entries
//! scanned linearly), and one tally per subject — the distinct watchers
//! suspecting it, in no particular order (only their number is ever
//! read), and whether its failure is confirmed. A delivery withdraws its
//! watcher from one short row; no step descends a tree or hashes.
//!
//! Rows exist only for ids inside the detector's id space and grow with
//! the largest id seen. Ids outside it — a corrupt or hostile
//! `Suspect { subject }` frame on the networked path — are ignored, never
//! used to resize: such a watcher arms no link, such a subject is judged
//! by its link but never tallied or confirmed.

/// What a watcher should do when a link timeout fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutVerdict {
    /// The link was reset (repair committed, subject already confirmed,
    /// or the watcher stopped caring): drop the timer.
    Drop,
    /// The link delivered since the timer was armed: re-arm at this tick.
    Rearm(u64),
    /// The link has been silent past the timeout: suspect the subject.
    Suspect,
}

/// One subject's suspicion state.
#[derive(Debug, Default, Clone)]
struct Tally {
    /// Distinct watchers currently suspecting the subject, unordered.
    suspecting: Vec<u32>,
    /// Whether the failure has been confirmed.
    confirmed: bool,
    /// Whether the subject is on the detector's `tallied` list.
    listed: bool,
}

/// The failure detector: link freshness plus suspicion tallies.
#[derive(Debug, Default, Clone)]
pub struct FailureDetector {
    /// `links[watcher]`: `(subject, last delivery tick)` per live link.
    links: Vec<Vec<(u32, u64)>>,
    /// `tallies[subject]`, grown on demand up to `id_space`.
    tallies: Vec<Tally>,
    /// Subjects suspected since the last [`FailureDetector::clear_links`]:
    /// the only tallies it has to empty.
    tallied: Vec<u32>,
    /// Ids at or past this have no rows.
    id_space: usize,
    /// Distinct watchers needed to confirm.
    threshold: usize,
    /// Link silence horizon in ticks.
    timeout: u64,
}

impl FailureDetector {
    /// A detector over node ids `0..id_space`, confirming a failure after
    /// `threshold` distinct watchers each observe `timeout` ticks of
    /// silence.
    pub fn new(id_space: usize, threshold: usize, timeout: u64) -> Self {
        FailureDetector {
            id_space,
            threshold: threshold.max(1),
            timeout,
            ..FailureDetector::default()
        }
    }

    /// The configured link timeout in ticks.
    pub fn timeout(&self) -> u64 {
        self.timeout
    }

    /// Count `watcher` among `subject`'s suspecting watchers (once),
    /// unless `subject` is outside the id space.
    fn add_suspicion(&mut self, watcher: u32, subject: u32) {
        let i = subject as usize;
        if i >= self.id_space {
            return;
        }
        if i >= self.tallies.len() {
            self.tallies.resize_with(i + 1, Tally::default);
        }
        let t = &mut self.tallies[i];
        if t.suspecting.contains(&watcher) {
            return;
        }
        t.suspecting.push(watcher);
        if !t.listed {
            t.listed = true;
            self.tallied.push(subject);
        }
    }

    /// Record a delivery on the link `subject → watcher` at `now`.
    /// Returns `true` if the link is newly watched — the caller must then
    /// schedule the link's first timeout at `now + timeout` (afterwards
    /// the timer re-arms itself via [`FailureDetector::check`]).
    pub fn record(&mut self, watcher: u32, subject: u32, now: u64) -> bool {
        // A heard-from subject is clearly not (or no longer) failed.
        if let Some(t) = self.tallies.get_mut(subject as usize) {
            if let Some(i) = t.suspecting.iter().position(|&w| w == watcher) {
                t.suspecting.swap_remove(i);
            }
        }
        if watcher as usize >= self.id_space {
            return false;
        }
        if self.links.len() <= watcher as usize {
            self.links.resize_with(watcher as usize + 1, Vec::new);
        }
        let row = &mut self.links[watcher as usize];
        match row.iter_mut().find(|link| link.0 == subject) {
            Some(link) => {
                link.1 = now;
                false
            }
            None => {
                row.push((subject, now));
                true
            }
        }
    }

    /// Evaluate the link timeout for `watcher` on `subject` firing at
    /// `now`.
    pub fn check(&mut self, watcher: u32, subject: u32, now: u64) -> TimeoutVerdict {
        if self.is_confirmed(subject) {
            return TimeoutVerdict::Drop;
        }
        let row = self.links.get(watcher as usize);
        let Some(&(_, last)) = row.and_then(|r| r.iter().find(|link| link.0 == subject)) else {
            // Link forgotten (topology changed under us): timer dies.
            return TimeoutVerdict::Drop;
        };
        // Saturating: an "infinite" timeout must never fire, not wrap.
        let deadline = last.saturating_add(self.timeout);
        if deadline > now {
            TimeoutVerdict::Rearm(deadline)
        } else {
            self.add_suspicion(watcher, subject);
            TimeoutVerdict::Suspect
        }
    }

    /// Record an externally reported suspicion — the networked path,
    /// where a remote watcher raises the suspicion over a control link
    /// instead of a local timeout event. Suspicions against an
    /// already-confirmed subject are dropped, like
    /// [`FailureDetector::check`] drops their timers; so are suspicions
    /// against a subject outside the id space.
    pub fn suspect(&mut self, watcher: u32, subject: u32) {
        if self.is_confirmed(subject) {
            return;
        }
        self.add_suspicion(watcher, subject);
    }

    /// Distinct watchers currently suspecting `subject`.
    pub fn suspicion_count(&self, subject: u32) -> usize {
        self.tallies
            .get(subject as usize)
            .map_or(0, |t| t.suspecting.len())
    }

    /// Whether `subject` has accumulated enough distinct suspecting
    /// watchers to confirm its failure. Idempotent: the first `true`
    /// marks the subject confirmed, later calls keep returning `false`
    /// (the failure is only confirmed once).
    pub fn confirm(&mut self, subject: u32) -> bool {
        let threshold = self.threshold;
        match self.tallies.get_mut(subject as usize) {
            Some(t) if !t.confirmed && t.suspecting.len() >= threshold => {
                t.confirmed = true;
                true
            }
            _ => false,
        }
    }

    /// Whether `subject`'s failure has been confirmed.
    pub fn is_confirmed(&self, subject: u32) -> bool {
        self.tallies
            .get(subject as usize)
            .is_some_and(|t| t.confirmed)
    }

    /// Forget all link state and suspicions (but keep confirmations):
    /// called after a repair commits, because the rebuilt schedule
    /// rewires who hears from whom and stale silence must not confirm
    /// healthy nodes.
    ///
    /// Outstanding timers are *not* cancelled. A timer whose link stays
    /// unheard resolves to [`TimeoutVerdict::Drop`]; but a link heard
    /// again before its old timer fires is re-created, so the old timer
    /// finds it and re-arms (or suspects) like the fresh timer the new
    /// [`FailureDetector::record`] asked for. Each such link then runs
    /// two timer chains, and every repair can add another.
    pub fn clear_links(&mut self) {
        self.links.iter_mut().for_each(Vec::clear);
        for subject in self.tallied.drain(..) {
            let t = &mut self.tallies[subject as usize];
            t.suspecting.clear();
            t.listed = false;
        }
    }

    /// Forget a confirmation (the node rejoined).
    pub fn forget(&mut self, subject: u32) {
        if let Some(t) = self.tallies.get_mut(subject as usize) {
            t.confirmed = false;
            t.suspecting.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// Ids 0..10: every id the tests below use.
    const ID_SPACE: usize = 10;

    /// The shape the link rows replaced: one ordered map of last-heard
    /// ticks (suspicion and confirmation state is the detector's own).
    #[derive(Default)]
    struct LinkModel(BTreeMap<(u32, u32), u64>);

    impl LinkModel {
        fn check(
            &self,
            d: &FailureDetector,
            watcher: u32,
            subject: u32,
            now: u64,
        ) -> TimeoutVerdict {
            if d.is_confirmed(subject) {
                return TimeoutVerdict::Drop;
            }
            match self.0.get(&(watcher, subject)) {
                None => TimeoutVerdict::Drop,
                Some(&last) if last + d.timeout() > now => {
                    TimeoutVerdict::Rearm(last + d.timeout())
                }
                Some(_) => TimeoutVerdict::Suspect,
            }
        }
    }

    proptest! {
        /// Random deliveries, timer firings, repairs (`clear_links`) and
        /// rejoins (`forget`): every verdict and tally equals the
        /// map-backed detector's.
        #[test]
        fn link_rows_match_the_ordered_map_model(
            ops in proptest::collection::vec((0u8..8, 0u32..5, 0u32..5, 0u64..60), 1..400),
        ) {
            let mut d = FailureDetector::new(ID_SPACE, 2, 100);
            let mut model = LinkModel::default();
            let mut now = 0;
            for (op, watcher, subject, dt) in ops {
                now += dt;
                match op {
                    0..=2 => {
                        let fresh = model.0.insert((watcher, subject), now).is_none();
                        prop_assert_eq!(d.record(watcher, subject, now), fresh);
                    }
                    3..=5 => {
                        let want = model.check(&d, watcher, subject, now);
                        prop_assert_eq!(d.check(watcher, subject, now), want);
                        if want == TimeoutVerdict::Suspect {
                            prop_assert!(d.suspicion_count(subject) >= 1);
                            d.confirm(subject);
                        }
                    }
                    6 => {
                        d.clear_links();
                        model.0.clear();
                        prop_assert_eq!(d.suspicion_count(subject), 0);
                    }
                    _ => d.forget(subject),
                }
            }
            // After a repair every outstanding timer dies, whoever armed it.
            d.clear_links();
            for watcher in 0..6 {
                for subject in 0..5 {
                    prop_assert_eq!(d.check(watcher, subject, now), TimeoutVerdict::Drop);
                    prop_assert!(d.record(watcher, subject, now), "cleared links re-arm");
                }
            }
        }
    }

    #[test]
    fn an_infinite_timeout_rearms_at_the_end_of_time_instead_of_wrapping() {
        let mut d = FailureDetector::new(ID_SPACE, 1, u64::MAX);
        d.record(1, 2, 5_000);
        assert_eq!(d.check(1, 2, 9_000), TimeoutVerdict::Rearm(u64::MAX));
    }

    #[test]
    fn first_record_arms_later_records_do_not() {
        let mut d = FailureDetector::new(ID_SPACE, 2, 100);
        assert!(d.record(1, 2, 10));
        assert!(!d.record(1, 2, 20));
        assert!(d.record(3, 2, 20), "a different watcher is a new link");
    }

    #[test]
    fn timeout_rearm_then_suspect_then_confirm() {
        let mut d = FailureDetector::new(ID_SPACE, 2, 100);
        d.record(1, 9, 10);
        d.record(2, 9, 15);
        // Fresh delivery at 90 moves the deadline.
        d.record(1, 9, 90);
        assert_eq!(d.check(1, 9, 110), TimeoutVerdict::Rearm(190));
        // Silence past the deadline: suspect.
        assert_eq!(d.check(1, 9, 190), TimeoutVerdict::Suspect);
        assert!(!d.confirm(9), "one watcher below threshold 2");
        assert_eq!(d.check(2, 9, 190), TimeoutVerdict::Suspect);
        assert!(d.confirm(9));
        assert!(d.is_confirmed(9));
        assert!(!d.confirm(9), "confirmation fires exactly once");
        // Timers for a confirmed subject die.
        assert_eq!(d.check(1, 9, 500), TimeoutVerdict::Drop);
    }

    #[test]
    fn remote_suspicions_tally_like_local_timeouts() {
        let mut d = FailureDetector::new(ID_SPACE, 2, 100);
        d.suspect(1, 9);
        assert_eq!(d.suspicion_count(9), 1);
        assert!(!d.confirm(9));
        d.suspect(1, 9); // same watcher again: still one distinct voice
        assert_eq!(d.suspicion_count(9), 1);
        d.suspect(4, 9);
        assert!(d.confirm(9));
        // Post-confirmation reports are dropped, not re-tallied.
        d.suspect(5, 9);
        assert_eq!(d.suspicion_count(9), 2);
        // A delivery withdraws a remote suspicion like a local one.
        let mut d = FailureDetector::new(ID_SPACE, 2, 100);
        d.suspect(1, 3);
        d.record(1, 3, 50);
        assert_eq!(d.suspicion_count(3), 0);
    }

    #[test]
    fn fresh_delivery_withdraws_suspicion() {
        let mut d = FailureDetector::new(ID_SPACE, 1, 100);
        d.record(1, 5, 0);
        assert_eq!(d.check(1, 5, 100), TimeoutVerdict::Suspect);
        // The subject speaks again before confirmation: suspicion cleared.
        d.record(1, 5, 150);
        assert!(!d.confirm(5));
    }

    #[test]
    fn clear_links_drops_timers_but_keeps_confirmations() {
        let mut d = FailureDetector::new(ID_SPACE, 1, 50);
        d.record(1, 7, 0);
        assert_eq!(d.check(1, 7, 60), TimeoutVerdict::Suspect);
        assert!(d.confirm(7));
        d.record(2, 8, 0);
        d.clear_links();
        assert_eq!(d.check(2, 8, 100), TimeoutVerdict::Drop);
        assert!(d.is_confirmed(7));
        d.forget(7);
        assert!(!d.is_confirmed(7));
    }

    #[test]
    fn a_link_heard_again_after_clear_links_revives_its_old_timer() {
        // The contract `clear_links` really has: it forgets the link, not
        // the timer. Re-hearing the link before the old timer fires asks
        // for a fresh timer, and the old one re-arms too — two chains.
        let mut d = FailureDetector::new(ID_SPACE, 1, 100);
        assert!(d.record(1, 2, 0), "first timer: due at 100");
        d.clear_links();
        assert!(d.record(1, 2, 50), "heard again: second timer, due at 150");
        assert_eq!(
            d.check(1, 2, 100),
            TimeoutVerdict::Rearm(150),
            "old timer lives"
        );
        assert_eq!(d.check(1, 2, 150), TimeoutVerdict::Suspect);
        // Unheard since the clear, the old timer does die.
        d.clear_links();
        assert_eq!(d.check(1, 2, 250), TimeoutVerdict::Drop);
    }

    #[test]
    fn ids_outside_the_id_space_are_ignored() {
        let mut d = FailureDetector::new(ID_SPACE, 1, 100);
        d.suspect(1, u32::MAX);
        assert_eq!(d.suspicion_count(u32::MAX), 0);
        assert!(!d.confirm(u32::MAX));
        assert!(!d.is_confirmed(u32::MAX));
        d.forget(u32::MAX);
        // A subject outside is judged by its link, never tallied.
        assert!(d.record(1, u32::MAX, 0));
        assert_eq!(d.check(1, u32::MAX, 100), TimeoutVerdict::Suspect);
        assert_eq!(d.suspicion_count(u32::MAX), 0);
        // A watcher outside arms nothing.
        assert!(!d.record(u32::MAX, 1, 0));
        assert_eq!(d.check(u32::MAX, 1, 100), TimeoutVerdict::Drop);
        assert!(d.tallies.is_empty() && d.links.len() == 2);
    }

    proptest! {
        /// The dense tallies against the ordered map of ordered sets and
        /// the ordered confirmed set they replaced: every count and every
        /// confirmation agrees, across repairs and rejoins.
        #[test]
        fn dense_tallies_match_the_ordered_set_model(
            ops in proptest::collection::vec((0u8..6, 0u32..6, 0u32..6), 1..400),
        ) {
            let mut d = FailureDetector::new(ID_SPACE, 2, 100);
            let mut suspicions: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
            let mut confirmed: BTreeSet<u32> = BTreeSet::new();
            for (op, watcher, subject) in ops {
                match op {
                    0 | 1 => {
                        d.suspect(watcher, subject);
                        if !confirmed.contains(&subject) {
                            suspicions.entry(subject).or_default().insert(watcher);
                        }
                    }
                    2 => {
                        d.record(watcher, subject, 0);
                        if let Some(s) = suspicions.get_mut(&subject) {
                            s.remove(&watcher);
                        }
                    }
                    3 => {
                        let n = suspicions.get(&subject).map_or(0, BTreeSet::len);
                        let want = !confirmed.contains(&subject) && n >= 2;
                        if want {
                            confirmed.insert(subject);
                        }
                        prop_assert_eq!(d.confirm(subject), want);
                    }
                    4 => {
                        d.clear_links();
                        suspicions.clear();
                    }
                    _ => {
                        d.forget(subject);
                        confirmed.remove(&subject);
                        suspicions.remove(&subject);
                    }
                }
                for s in 0..6 {
                    let n = suspicions.get(&s).map_or(0, BTreeSet::len);
                    prop_assert_eq!(d.suspicion_count(s), n);
                    prop_assert_eq!(d.is_confirmed(s), confirmed.contains(&s));
                }
            }
        }
    }
}
