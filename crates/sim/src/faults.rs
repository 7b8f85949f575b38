//! Fault injection: link loss and node crashes.
//!
//! The paper's schemes have *no retransmission*: each packet travels one
//! path to each receiver. Fault injection quantifies the consequences the
//! paper's introduction argues about qualitatively — e.g. that a single
//! tree is fragile (an interior crash starves its whole subtree of the
//! *entire* stream) while the multi-tree overlay degrades gracefully (the
//! crashed node is interior in only one of `d` trees, so its subtree loses
//! only every `d`-th packet).
//!
//! Two crash flavors are modelled:
//!
//! * **fail-silent uplink** ([`FaultPlan::crash`]): the node stops
//!   *sending* from its crash slot onward but keeps receiving and playing
//!   — the worst case for contribution-based overlays;
//! * **fail-stop** ([`FaultPlan::fail_stop`]): the node stops sending
//!   *and* receiving/playing — a true process crash. In-flight packets
//!   addressed to it are dropped on arrival (counted in
//!   [`LossReport::stopped_receives`]).
//!
//! With a [`FaultPlan`] installed, the engine:
//!
//! * drops each otherwise-valid transmission with probability
//!   `loss_rate` (seeded, deterministic) — the send still spends uplink
//!   capacity, the packet just never arrives;
//! * suppresses all sends from a node from its crash slot onward;
//! * converts `PacketNotHeld` from a *non-source* sender into a counted
//!   suppression instead of a hard error (a node cannot forward what it
//!   never received — exactly how loss propagates downstream), and
//!   attributes each such suppression to the fault that originated it
//!   ([`FaultCause`]: link loss vs. crash);
//! * reports per-node missing packets instead of failing playback
//!   analysis.

use clustream_core::{NodeId, PacketId, Transmission};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Deterministic fault schedule for one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FaultPlan {
    /// Probability each validated transmission is lost in flight.
    pub loss_rate: f64,
    /// Seed for the loss process.
    pub seed: u64,
    /// `(node, slot)`: the node sends nothing from `slot` onward. (It
    /// still receives and plays; "fail-silent uplink", the worst case for
    /// contribution-based overlays.)
    pub crashes: Vec<(NodeId, u64)>,
    /// `(node, slot)`: fail-stop crashes — the node stops sending **and**
    /// receiving/playing from `slot` onward.
    pub stop_crashes: Vec<(NodeId, u64)>,
}

impl FaultPlan {
    /// Pure link loss.
    pub fn loss(loss_rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&loss_rate));
        FaultPlan {
            loss_rate,
            seed,
            crashes: Vec::new(),
            stop_crashes: Vec::new(),
        }
    }

    /// A single fail-silent uplink crash, no link loss.
    pub fn crash(node: NodeId, slot: u64) -> Self {
        FaultPlan {
            loss_rate: 0.0,
            seed: 0,
            crashes: vec![(node, slot)],
            stop_crashes: Vec::new(),
        }
    }

    /// A single fail-stop crash (stops receiving and playing too), no
    /// link loss.
    pub fn fail_stop(node: NodeId, slot: u64) -> Self {
        FaultPlan {
            loss_rate: 0.0,
            seed: 0,
            crashes: Vec::new(),
            stop_crashes: vec![(node, slot)],
        }
    }

    /// Whether the plan only *reports*: no link loss and no crash of
    /// either flavor, so nothing is ever dropped and the loss RNG never
    /// draws. What is left of the fault regime is its bookkeeping — a
    /// missing packet is a [`LossReport`] line instead of a hiccup error,
    /// and a sender forwarding what it never received is a counted
    /// suppression instead of a model violation
    /// ([`crate::SimConfig::lossy_regime`] is this plan).
    pub fn reports_only(&self) -> bool {
        self.loss_rate == 0.0 && self.crashes.is_empty() && self.stop_crashes.is_empty()
    }

    /// Whether `node`'s uplink is dead at `slot` (either crash flavor —
    /// fail-stop implies fail-silent).
    pub fn crashed(&self, node: NodeId, slot: u64) -> bool {
        self.crashes.iter().any(|&(n, s)| n == node && slot >= s) || self.stopped(node, slot)
    }

    /// Whether `node` has fail-stopped at `slot` (no longer receives or
    /// plays).
    pub fn stopped(&self, node: NodeId, slot: u64) -> bool {
        self.stop_crashes
            .iter()
            .any(|&(n, s)| n == node && slot >= s)
    }
}

/// The originating fault behind a missing packet copy: did the packet
/// first disappear to the seeded loss process, or to a crashed node?
/// Downstream suppressions inherit the cause of the copy the sender
/// never received.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultCause {
    /// Lost in flight by the link-loss process.
    Loss,
    /// Suppressed or dropped because of a crashed (fail-silent or
    /// fail-stop) node.
    Crash,
}

/// Fallback attribution for a suppression whose originating fault was
/// never observed (e.g. a scheme asked a node to forward a packet no one
/// ever sent it). Crashes are blamed when the plan contains any; pure
/// loss plans blame loss.
pub fn default_cause(plan: &FaultPlan) -> FaultCause {
    if plan.crashes.is_empty() && plan.stop_crashes.is_empty() {
        FaultCause::Loss
    } else {
        FaultCause::Crash
    }
}

/// Outcome of playback analysis when packets may be missing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LossyPlayback {
    /// The node analysed.
    pub node: NodeId,
    /// Packets of the tracked window that never arrived.
    pub missing: usize,
    /// Minimal safe playback start over the packets that *did* arrive
    /// (missing packets would be skipped or concealed by the player).
    pub playback_delay: u64,
    /// Buffer high-water mark over the packets that did arrive, under the
    /// same playback schedule as the clean analysis (start at
    /// `playback_delay`, one packet-slot consumed per slot, missing
    /// packets concealed). Equals the clean `max_buffer` when nothing is
    /// missing.
    pub max_buffer: usize,
}

/// Aggregate loss metrics of a faulty run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct LossReport {
    /// Transmissions dropped in flight by the loss process.
    pub lost_in_flight: u64,
    /// Sends suppressed because the sender had crashed.
    pub crash_suppressed: u64,
    /// Sends suppressed because the sender never received the packet
    /// (faults propagating downstream). Always equals
    /// `propagation_from_loss + propagation_from_crash`.
    pub propagation_suppressed: u64,
    /// Downstream suppressions whose originating fault was link loss.
    pub propagation_from_loss: u64,
    /// Downstream suppressions whose originating fault was a crash.
    pub propagation_from_crash: u64,
    /// Arrivals dropped because the receiver had fail-stopped.
    pub stopped_receives: u64,
    /// Per-node missing tracked packets (nodes with zero omitted).
    pub missing: Vec<(NodeId, usize)>,
}

impl LossReport {
    /// Total missing packet instances across nodes.
    pub fn total_missing(&self) -> usize {
        self.missing.iter().map(|(_, m)| m).sum()
    }

    /// Number of receivers that missed at least one tracked packet.
    pub fn affected_nodes(&self) -> usize {
        self.missing.len()
    }
}

/// The first fault cause that took out each `(node, packet)` copy —
/// what a downstream suppression of that copy is blamed on.
///
/// One row of cells per node, indexed by seq and grown up to the
/// largest seq noted for it; a node never noted has an empty row. It
/// answers as a hashed `(node, seq) → FaultCause` map filled with
/// `or_insert` would: the first cause noted for a copy wins, and a cell
/// never noted (or past its row's end) has none. Lookup-only, so the
/// layout cannot reach the results.
#[derive(Debug, Default)]
struct FirstCauses {
    /// The ids a run can name: the first note sizes `rows` to them at
    /// once, so the row table is one allocation, not a doubling chain.
    n_ids: usize,
    rows: Vec<Vec<Option<FaultCause>>>,
}

impl FirstCauses {
    /// Blame `cause` for `node`'s copy of `seq`, unless an earlier cause
    /// already is.
    fn note(&mut self, node: u32, seq: u64, cause: FaultCause) {
        let (node, seq) = (node as usize, seq as usize);
        if node >= self.rows.len() {
            self.rows.resize_with(self.n_ids.max(node + 1), Vec::new);
        }
        let row = &mut self.rows[node];
        if seq >= row.len() {
            row.resize(seq + 1, None);
        }
        row[seq].get_or_insert(cause);
    }

    /// The cause blamed for `node`'s copy of `seq`, if any.
    fn get(&self, node: u32, seq: u64) -> Option<FaultCause> {
        let row = self.rows.get(node as usize)?;
        *row.get(usize::try_from(seq).ok()?)?
    }
}

/// The fault regime of one run in one place: the plan, the seeded loss
/// process, the [`LossReport`] they fill and the first cause behind each
/// missing copy. Every engine but the reference books its faults here,
/// one step per way a copy goes missing, so a step and its blame cannot
/// drift apart between them.
///
/// Without a plan every step is a no-op that answers "not dropped",
/// except `propagate`, which refuses: forwarding an unheld
/// packet is then a model error, not a fault.
#[derive(Debug)]
pub struct FaultLedger<'a> {
    plan: Option<&'a FaultPlan>,
    /// The loss process: one draw per transmission that reaches it, and
    /// only when `loss_rate > 0`.
    rng: Option<ChaCha8Rng>,
    report: LossReport,
    causes: FirstCauses,
}

impl<'a> FaultLedger<'a> {
    /// An empty ledger for a run over `n_ids` ids under `plan`.
    pub(crate) fn new(plan: Option<&'a FaultPlan>, n_ids: usize) -> Self {
        FaultLedger {
            plan,
            rng: plan.map(|f| ChaCha8Rng::seed_from_u64(f.seed)),
            report: LossReport::default(),
            causes: FirstCauses {
                n_ids,
                ..FirstCauses::default()
            },
        }
    }

    /// Crash-suppress: whether `tx`'s sender has crashed by `slot`, in
    /// which case the send is counted as suppressed.
    #[inline]
    pub fn crash_suppress(&mut self, tx: &Transmission, slot: u64) -> bool {
        let crashed = self.plan.is_some_and(|f| f.crashed(tx.from, slot));
        if crashed {
            self.suppress(tx);
        }
        crashed
    }

    /// Count `tx` as a send its fail-silent sender never made, blamed on
    /// a crash.
    pub fn suppress(&mut self, tx: &Transmission) {
        self.report.crash_suppressed += 1;
        self.causes
            .note(tx.to.0, tx.packet.seq(), FaultCause::Crash);
    }

    /// Lose in flight: draw from the loss process, and count `tx` as lost
    /// when the draw says so. The sender's uplink is spent either way.
    #[inline]
    pub fn lose_in_flight(&mut self, tx: &Transmission) -> bool {
        let lost = match (self.plan, self.rng.as_mut()) {
            (Some(f), Some(r)) => f.loss_rate > 0.0 && r.gen_bool(f.loss_rate),
            _ => false,
        };
        if lost {
            self.lost(tx);
        }
        lost
    }

    /// Count `tx` as lost in flight without a draw (a drop recorded
    /// elsewhere, such as a networked trace's).
    pub fn lost(&mut self, tx: &Transmission) {
        self.report.lost_in_flight += 1;
        self.causes.note(tx.to.0, tx.packet.seq(), FaultCause::Loss);
    }

    /// Propagate an unheld forward: with a plan, count `tx` as a
    /// downstream suppression blamed on whatever first took out the
    /// sender's copy (the plan's [`default_cause`] when nothing did) and
    /// return `true`; without one return `false` — the caller's model
    /// error.
    pub(crate) fn propagate(&mut self, tx: &Transmission) -> bool {
        let Some(f) = self.plan else {
            return false;
        };
        let cause = self.cause(tx.from, tx.packet).unwrap_or(default_cause(f));
        self.propagate_from(tx, cause);
        true
    }

    /// Count `tx` as a downstream suppression blamed on `cause`, and pass
    /// the cause on to the copy it would have delivered.
    pub fn propagate_from(&mut self, tx: &Transmission, cause: FaultCause) {
        self.report.propagation_suppressed += 1;
        match cause {
            FaultCause::Loss => self.report.propagation_from_loss += 1,
            FaultCause::Crash => self.report.propagation_from_crash += 1,
        }
        self.causes.note(tx.to.0, tx.packet.seq(), cause);
    }

    /// Drop at a stopped receiver: whether `to` has fail-stopped by
    /// `arrival_slot`, in which case the arrival is counted as dropped
    /// and the lost copy blamed on a crash.
    #[inline]
    pub fn drop_at_stopped(&mut self, to: NodeId, packet: PacketId, arrival_slot: u64) -> bool {
        let stopped = self.drop_late_at_stopped(to, arrival_slot);
        if stopped {
            self.causes.note(to.0, packet.seq(), FaultCause::Crash);
        }
        stopped
    }

    /// [`FaultLedger::drop_at_stopped`] for an arrival the slot loop
    /// never reaches: counted, but blamed on nothing, since nothing sends
    /// after it.
    pub(crate) fn drop_late_at_stopped(&mut self, to: NodeId, arrival_slot: u64) -> bool {
        let stopped = self.plan.is_some_and(|f| f.stopped(to, arrival_slot));
        if stopped {
            self.report.stopped_receives += 1;
        }
        stopped
    }

    /// The cause blamed for `node`'s copy of `packet`, if any.
    pub fn cause(&self, node: NodeId, packet: PacketId) -> Option<FaultCause> {
        self.causes.get(node.0, packet.seq())
    }

    /// What a suppression nothing else explains is blamed on: the plan's
    /// [`default_cause`], or a crash when there is no plan (a departure).
    pub fn fallback(&self) -> FaultCause {
        self.plan.map_or(FaultCause::Crash, default_cause)
    }

    /// The report, for the run's result.
    pub(crate) fn into_report(self) -> LossReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        /// The dense first-cause table against the hash map it replaced
        /// (`entry(..).or_insert(cause)`): whatever order copies are
        /// blamed in, the first cause wins, and cells never blamed —
        /// including seqs past every row and nodes past every row — have
        /// none.
        #[test]
        fn first_causes_match_the_hash_map_model(
            notes in proptest::collection::vec((0u32..6, 0u64..80, any::<bool>()), 0..300),
        ) {
            let mut dense = FirstCauses::default();
            let mut model: HashMap<(u32, u64), FaultCause> = HashMap::new();
            for (node, seq, loss) in notes {
                let cause = if loss { FaultCause::Loss } else { FaultCause::Crash };
                dense.note(node, seq, cause);
                model.entry((node, seq)).or_insert(cause);
            }
            for node in 0..8 {
                for seq in (0..100).chain([u64::MAX]) {
                    prop_assert_eq!(dense.get(node, seq), model.get(&(node, seq)).copied());
                }
            }
            prop_assert_eq!(dense.get(u32::MAX, 0), None);
        }
    }

    #[test]
    fn crash_predicate() {
        let p = FaultPlan::crash(NodeId(3), 10);
        assert!(!p.crashed(NodeId(3), 9));
        assert!(p.crashed(NodeId(3), 10));
        assert!(p.crashed(NodeId(3), 99));
        assert!(!p.crashed(NodeId(4), 99));
        // Fail-silent crashes do not stop the downlink.
        assert!(!p.stopped(NodeId(3), 99));
    }

    #[test]
    fn fail_stop_implies_fail_silent() {
        let p = FaultPlan::fail_stop(NodeId(5), 4);
        assert!(!p.stopped(NodeId(5), 3));
        assert!(p.stopped(NodeId(5), 4));
        assert!(p.crashed(NodeId(5), 4), "fail-stop also kills the uplink");
        assert!(!p.crashed(NodeId(5), 3));
        assert!(!p.stopped(NodeId(6), 100));
    }

    #[test]
    fn loss_plan_validates_rate() {
        let p = FaultPlan::loss(0.05, 7);
        assert_eq!(p.crashes.len(), 0);
        assert!((p.loss_rate - 0.05).abs() < 1e-12);
    }

    #[test]
    fn only_a_plan_that_can_drop_nothing_reports_only() {
        assert!(FaultPlan::loss(0.0, 7).reports_only());
        assert!(FaultPlan::default().reports_only());
        assert!(!FaultPlan::loss(0.05, 7).reports_only());
        assert!(!FaultPlan::loss(f64::MIN_POSITIVE, 7).reports_only());
        assert!(!FaultPlan::crash(NodeId(3), 10).reports_only());
        assert!(!FaultPlan::fail_stop(NodeId(5), 4).reports_only());
        // A crash scheduled past any horizon still disqualifies: the gate
        // reads the plan, not the run.
        let late = FaultPlan {
            crashes: vec![(NodeId(1), u64::MAX)],
            ..FaultPlan::loss(0.0, 1)
        };
        assert!(!late.reports_only());
    }

    #[test]
    #[should_panic]
    fn rejects_bad_rate() {
        let _ = FaultPlan::loss(1.5, 0);
    }

    #[test]
    fn report_aggregates() {
        let r = LossReport {
            lost_in_flight: 4,
            crash_suppressed: 2,
            propagation_suppressed: 7,
            propagation_from_loss: 5,
            propagation_from_crash: 2,
            stopped_receives: 0,
            missing: vec![(NodeId(1), 3), (NodeId(5), 2)],
        };
        assert_eq!(r.total_missing(), 5);
        assert_eq!(r.affected_nodes(), 2);
    }
}
