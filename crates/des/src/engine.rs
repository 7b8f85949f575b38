//! The discrete-event engine.
//!
//! Instead of iterating lockstep slots, [`DesEngine`] drains an
//! [`EventQueue`]. The scheme's calendar is still consulted once per slot
//! (at each [`EventKind::PlaybackTick`]). In the relaxed regime every
//! transmission then lives as explicit `Send` → `Deliver` events whose
//! times need not be slot-aligned: the latency model can land a packet
//! mid-slot and the uplink gate can push a send past its calendar slot.
//! In the strict regime the tick pushes each transmission's `Deliver`
//! directly, one queue event per transmission.
//!
//! # Two regimes
//!
//! **Strict (slot-faithful)** — fixed latencies, unconstrained uplinks,
//! no churn ([`DesConfig::is_slot_faithful`]). The engine drives the slot
//! kernel ([`clustream_sim::kernel`]): each tick opens its slot there and
//! admits the calendar through the kernel's one admission rule, so
//! validation order, receive guard, loss draws, fault attribution and
//! errors are the slot engines' own, not a copy of them. The rule's hook
//! pushes each admitted transmission's `Deliver` at its arrival tick
//! right away: with fixed latency, no replay and no churn a `Send` hop
//! would only push that same `Deliver`, and `Deliver` being the first
//! class, the arrivals pop in the same order either way. Every event
//! lands on a slot boundary and every delivery goes through
//! [`clustream_sim::kernel::Kernel::store`], so the run is field-for-field
//! identical to [`clustream_sim::MegaEngine`] — enforced by
//! `tests/des_differential.rs`.
//!
//! **Relaxed** — any jitter, uplink serialization, churn, or recovery.
//! Capacity and receive-collision *errors* stop making sense (the network
//! queues instead), so nodes become reactive: a calendar entry whose
//! packet has not arrived yet is deferred and dispatched the moment the
//! packet is delivered; the uplink gate serializes concurrent sends;
//! departed (churned-out) nodes fall silent. Runs report losses like
//! fault runs do rather than erroring.
//!
//! # Recovery
//!
//! With [`clustream_recovery::RecoveryMode::Repair`] or
//! [`clustream_recovery::RecoveryMode::RepairNack`] enabled the engine
//! drives the full failure-handling loop:
//!
//! 1. **Detection** — every delivery refreshes a per-link freshness timer
//!    in a [`clustream_recovery::FailureDetector`]; a link silent past the
//!    suspect timeout makes the receiver suspect the sender, and enough
//!    distinct suspecting watchers confirm the failure.
//! 2. **Repair** — a confirmed failure fires
//!    [`crate::event::EventKind::RepairCommit`], which invokes the
//!    scheme's [`clustream_core::Scheme::membership_event`] (the appendix
//!    delete dynamics for
//!    [`clustream_recovery::DynamicMultiTree`]): an all-leaf node is
//!    promoted into the crashed node's interior positions, the round-robin
//!    schedule is re-derived mid-run, and at most `d²` members are
//!    displaced.
//! 3. **Retransmission** (`RepairNack`) — receivers scan for gap packets
//!    (sequence holes older than `GAP_SLACK` behind their newest arrival)
//!    and chase each with NACKs under capped, jittered, seeded exponential
//!    backoff, served from bounded per-node repair buffers with source
//!    escalation; exhausted retries abandon the packet and record a
//!    hiccup.
//!
//! Determinism rule for the per-event state: anything *iterated* to
//! produce output is ordered at the point of iteration; state that is
//! only ever *looked up* may be laid out any way that answers
//! identically. Gap status, repair-buffer windows, the detector's links
//! and tallies, the kernel's first-cause table and the parked sends are
//! all lookup-only while events run, and all indexed by node id and
//! packet seq, nothing hashed, no tree descended (see
//! [`clustream_recovery`], [`clustream_sim::faults::FaultLedger`] and
//! [`crate::hot`]): dense rows and cells, except the parked sends' rows
//! the run has moved past, which keep their live chains as sorted
//! pairs. The one walk over parked sends, the end-of-run leftover
//! attribution, reads them seq by seq, each row in ascending sender
//! order. With recovery randomness drawn from a dedicated seeded
//! stream, recovery runs are fully deterministic and recovery-off runs
//! are bit-identical to the fail-silent engine (enforced by
//! `tests/des_differential.rs`; `tests/des_golden.rs` pins whole runs).
//! Recovery tables grow with what a run touches, so a recovery-off run
//! holds nothing of them but two per-node cursors.

use crate::config::{DesConfig, QueueKind};
use crate::event::{EventKind, EventQueue, HeapQueue, TICKS_PER_SLOT};
use crate::hot::ParkedSends;
use crate::uplink::{UplinkGate, UplinkModel};
use crate::wheel::{CheckedQueue, WheelQueue};
use clustream_core::{
    CoreError, MembershipEvent, NodeId, PacketId, Scheme, Slot, StateView, Transmission, SOURCE,
};
use clustream_recovery::config::{
    GAP_SLACK, MAX_RETRIES, NACK_BACKOFF, NACK_CAP_TICKS, NACK_JITTER_TICKS, NACK_TIMEOUT_TICKS,
    RECOVERY_SEED, REPAIR_BUFFER, SUSPECT_TIMEOUT_TICKS, SUSPICION_THRESHOLD,
};
use clustream_recovery::{FailureDetector, NackManager, RepairBuffer, TimeoutVerdict};
use clustream_sim::faults::FaultLedger;
use clustream_sim::kernel::{check_ends, Kernel, Run};
use clustream_sim::metrics::TrafficStats;
use clustream_sim::{ResilienceMetrics, RunResult};
use clustream_telemetry::names as tm;
use clustream_workloads::ResolvedChurnAction;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

/// Counters describing one DES run (the bench denominators).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DesStats {
    /// Events popped and processed (including the final flush).
    pub events_processed: u64,
    /// Events ever scheduled.
    pub events_scheduled: u64,
    /// Transmissions dispatched: validated strict-mode transmissions
    /// (each pushed straight as its `Deliver`) plus relaxed-mode `Send`
    /// events.
    pub sends: u64,
    /// Deliver events fired.
    pub deliveries: u64,
    /// Calendar entries deferred because the packet had not arrived yet
    /// (relaxed mode only).
    pub deferred_sends: u64,
    /// Deferred entries later released by a delivery.
    pub released_sends: u64,
    /// Churn departures applied.
    pub churn_leaves: u64,
    /// Churn joins observed (static schemes cannot grow, so joins are
    /// counted and ignored).
    pub churn_joins_ignored: u64,
    /// Churn rejoins applied (a previously departed member came back).
    pub churn_rejoins: u64,
    /// Deliveries dropped because the receiver had departed.
    pub deliveries_to_departed: u64,
}

/// Telemetry names for one event class: the per-class counter
/// (under [`tm::DES_EVENT_PREFIX`]) and service-time span (under
/// [`tm::DES_SERVICE_PREFIX`]). Static strings so the disabled path
/// never allocates.
fn event_probe_names(kind: &EventKind) -> (&'static str, &'static str) {
    match kind {
        EventKind::Deliver { .. } => ("des.events.deliver", "des.service.deliver"),
        EventKind::Churn(_) => ("des.events.churn", "des.service.churn"),
        EventKind::SuspectTimeout { .. } => {
            ("des.events.suspect_timeout", "des.service.suspect_timeout")
        }
        EventKind::RepairCommit { .. } => ("des.events.repair_commit", "des.service.repair_commit"),
        EventKind::Nack { .. } => ("des.events.nack", "des.service.nack"),
        EventKind::Retransmit { .. } => ("des.events.retransmit", "des.service.retransmit"),
        EventKind::PlaybackTick => ("des.events.playback_tick", "des.service.playback_tick"),
        EventKind::Send(_) => ("des.events.send", "des.service.send"),
    }
}

/// Relaxed-mode admission: crash/departure suppression, uplink gating,
/// loss draw — booked in the run's fault ledger — then schedule the
/// `Send` event (the only place one is pushed). Free function so both the
/// calendar path and the deferred-release path share it without fighting
/// the borrow checker.
#[allow(clippy::too_many_arguments)]
fn admit_relaxed<Q: EventQueue>(
    tx: &Transmission,
    now: u64,
    capacity: usize,
    departed: &[bool],
    run: &mut Run<'_>,
    uplink: UplinkModel,
    gate: &mut UplinkGate,
    stats: &mut TrafficStats,
    des_stats: &mut DesStats,
    q: &mut Q,
) {
    if run.ledger.crash_suppress(tx, now / TICKS_PER_SLOT) {
        return;
    }
    // A departed member is fail-silent, like a crash.
    if departed[tx.from.index()] {
        run.ledger.suppress(tx);
        return;
    }
    let dispatch = match uplink {
        UplinkModel::Unconstrained => now,
        UplinkModel::Serialized => gate.admit(tx.from, capacity, now),
    };
    // The uplink time is spent whether or not the packet survives.
    if run.ledger.lose_in_flight(tx) {
        return;
    }
    stats.record(tx);
    if let Some(tr) = run.trace.as_mut() {
        tr.push(dispatch / TICKS_PER_SLOT, tx);
    }
    des_stats.sends += 1;
    q.push(dispatch, EventKind::Send(*tx));
}

/// The discrete-event engine. Reusable across runs; [`DesEngine::stats`]
/// reports the event counters of the most recent run.
#[derive(Debug, Default)]
pub struct DesEngine {
    stats: DesStats,
}

impl DesEngine {
    /// A fresh engine.
    pub fn new() -> Self {
        DesEngine::default()
    }

    /// Event counters of the most recent [`DesEngine::run`].
    pub fn stats(&self) -> &DesStats {
        &self.stats
    }

    /// Run `scheme` under `cfg`, returning the same [`RunResult`] shape as
    /// the slot engines (so [`clustream_sim::diff_fields`] applies
    /// unchanged).
    ///
    /// The event queue implementation is chosen by [`DesConfig::queue`];
    /// every choice pops the identical event sequence (see
    /// [`crate::WheelQueue`] for the argument), so the `RunResult` is
    /// bit-identical across queues — only the wall clock differs.
    pub fn run(
        &mut self,
        scheme: &mut dyn Scheme,
        cfg: &DesConfig,
    ) -> Result<RunResult, CoreError> {
        match cfg.queue {
            QueueKind::Heap => self.run_with_queue(scheme, cfg, HeapQueue::new()),
            QueueKind::Wheel => self.run_with_queue(scheme, cfg, WheelQueue::new()),
            QueueKind::Checked => self.run_with_queue(scheme, cfg, CheckedQueue::new()),
        }
    }

    /// The monomorphized engine loop behind [`DesEngine::run`].
    fn run_with_queue<Q: EventQueue>(
        &mut self,
        scheme: &mut dyn Scheme,
        cfg: &DesConfig,
        mut q: Q,
    ) -> Result<RunResult, CoreError> {
        cfg.validate().map_err(CoreError::InvalidConfig)?;
        self.stats = DesStats::default();
        let sim = &cfg.sim;
        let tel = &sim.telemetry;
        let tel_on = tel.enabled();
        let _run_span = tel.span(tm::DES_RUN);
        let strict = cfg.is_slot_faithful();

        // The slot kernel holds the run's state: holdings, the strict
        // receive guard, traffic counters, the fault ledger, the arrival
        // table and the completion count.
        let mut kernel = Kernel::default();
        let mut run = kernel.begin(scheme, sim)?;
        let n_ids = scheme.id_space();
        let availability = scheme.availability();
        let mut gate = UplinkGate::new(n_ids);

        // Heterogeneity: per-node uplink capacities from the class plan,
        // overriding the scheme's uniform capacity for non-source
        // senders at the serialized gate.
        let class_caps: Option<Vec<usize>> = cfg.capacity_classes.as_ref().map(|p| p.assign(n_ids));
        // Relaxed mode: calendar entries waiting for their packet, keyed
        // by (sender, packet); `released` is the scratch a delivery drains
        // its chain into.
        let mut waiting = ParkedSends::default();
        let mut released: Vec<Transmission> = Vec::new();
        let mut departed = vec![false; n_ids];

        // Recovery layer. All state is created unconditionally — empty
        // tables that grow only when touched, plus two per-node cursors —
        // but only touched when `rec_on`; recovery-off runs schedule no
        // recovery events and stay bit-identical to the plain engine.
        let rec = cfg.recovery;
        let rec_on = rec.mode.enabled();
        let mut detector = FailureDetector::new(n_ids, SUSPICION_THRESHOLD, SUSPECT_TIMEOUT_TICKS);
        let mut nacks = NackManager::new(
            NACK_TIMEOUT_TICKS,
            NACK_BACKOFF,
            NACK_CAP_TICKS,
            NACK_JITTER_TICKS,
            RECOVERY_SEED,
        );
        let mut repair_buf = RepairBuffer::new(n_ids, REPAIR_BUFFER);
        // Most recent non-source sender per node: the first NACK target.
        let mut last_sender: Vec<u32> = vec![0; n_ids];
        // Monotone per-node gap-scan cursor (bounds total scan work).
        let mut gap_scan: Vec<u64> = vec![0; n_ids];
        // Ground-truth crash ticks (from the churn trace / fault plan),
        // the recovery-latency baseline.
        let mut crash_tick: BTreeMap<u32, u64> = BTreeMap::new();
        // Dedicated randomness for repair traffic so enabling recovery
        // never perturbs the main loss process.
        let mut rec_rng = ChaCha8Rng::seed_from_u64(RECOVERY_SEED);
        let mut resil = ResilienceMetrics::default();
        // Telemetry-only bookkeeping: first NACK send tick per open
        // (node, packet) chase, consumed when the repair lands to observe
        // the NACK round-trip. Never touched with telemetry off.
        let mut nack_sent_tick: BTreeMap<(u32, u64), u64> = BTreeMap::new();
        if rec_on {
            if let Some(f) = &sim.faults {
                for &(node, slot) in f.crashes.iter().chain(f.stop_crashes.iter()) {
                    crash_tick.insert(node.0, slot * TICKS_PER_SLOT);
                }
            }
        }

        let mut lat_rng = cfg
            .latency
            .needs_rng()
            .then(|| ChaCha8Rng::seed_from_u64(cfg.latency_seed));
        // Networked replay: per-link recorded samples override the
        // parametric latency model, consumed FIFO per link.
        let mut replay = cfg.recorded.as_ref().map(crate::replay::ReplayCursor::new);

        if sim.max_slots > 0 {
            q.push(0, EventKind::PlaybackTick);
        }
        if let Some(churn) = &cfg.churn {
            let initial: Vec<u64> = run.receivers().iter().map(|r| r.0 as u64).collect();
            let protected: Vec<u64> = run
                .receivers()
                .iter()
                .filter(|r| scheme.send_capacity(**r) > 1)
                .map(|r| r.0 as u64)
                .collect();
            for ev in churn.resolve(&initial, &protected)? {
                if ev.slot < sim.max_slots {
                    q.push(ev.slot * TICKS_PER_SLOT, EventKind::Churn(ev.action));
                }
            }
        }

        let mut stopped = false;

        while let Some(ev) = q.pop() {
            self.stats.events_processed += 1;
            // RAII service-time span: most arms exit via `continue`, so
            // only a drop guard times every path uniformly.
            let _event_span = if tel_on {
                let (class_counter, service_span) = event_probe_names(&ev.kind);
                tel.counter(tm::DES_EVENTS, 1);
                tel.counter(class_counter, 1);
                tel.gauge_max(tm::DES_QUEUE_DEPTH_MAX, q.len() as u64);
                Some(tel.span(service_span))
            } else {
                None
            };
            match ev.kind {
                EventKind::Deliver { from, to, packet } => {
                    self.stats.deliveries += 1;
                    // First slot the packet is usable: the next slot
                    // boundary at or after the arrival tick.
                    let usable = ev.time.div_ceil(TICKS_PER_SLOT);
                    if stopped || usable >= sim.max_slots {
                        // The playback loop never reaches this slot: record
                        // the arrival only, exactly like the slot engines'
                        // post-loop flush of the pending queue.
                        run.record_late(to, packet, usable);
                        continue;
                    }
                    // Fail-stopped receivers drop arrivals on the floor.
                    if run.ledger.drop_at_stopped(to, packet, usable - 1) {
                        continue;
                    }
                    if !strict && departed[to.index()] {
                        self.stats.deliveries_to_departed += 1;
                        continue;
                    }
                    if rec_on {
                        // Even a duplicate arrival proves the sender alive
                        // and fills an open gap.
                        if nacks.resolve(to.0, packet.seq()) {
                            resil.repaired_packets += 1;
                            if tel_on {
                                if let Some(sent) = nack_sent_tick.remove(&(to.0, packet.seq())) {
                                    tel.observe(
                                        tm::RECOVERY_NACK_RTT,
                                        ev.time.saturating_sub(sent),
                                    );
                                }
                            }
                        }
                        repair_buf.note(to.0, packet.seq());
                        if !from.is_source() {
                            last_sender[to.index()] = from.0;
                            if detector.record(to.0, from.0, ev.time) {
                                // Saturating, here and at every timer
                                // below: a deadline past the end of time
                                // parks the timer there, never wraps.
                                q.push(
                                    ev.time.saturating_add(detector.timeout()),
                                    EventKind::SuspectTimeout {
                                        watcher: to,
                                        subject: from,
                                    },
                                );
                            }
                        }
                    }
                    if !kernel.store(&mut run, to, packet, usable) {
                        continue;
                    }
                    if rec_on && rec.mode.nack() && run.is_receiver(to) {
                        // Scan for gaps that have fallen more than
                        // `GAP_SLACK` behind the newest arrival. The cursor
                        // is monotone, so total scan work is O(window).
                        let state = kernel.state();
                        let horizon = state
                            .newest(to)
                            .map_or(0, PacketId::seq)
                            .saturating_sub(GAP_SLACK)
                            .min(sim.track_packets);
                        let cur = &mut gap_scan[to.index()];
                        while *cur < horizon {
                            let s = *cur;
                            *cur += 1;
                            if !state.holds(to, PacketId(s)) && nacks.open(to.0, s) {
                                q.push(
                                    ev.time,
                                    EventKind::Nack {
                                        node: to,
                                        packet: PacketId(s),
                                        attempt: 0,
                                    },
                                );
                            }
                        }
                    }
                    if !strict {
                        released.clear();
                        waiting.release_into(to.0, packet.seq(), &mut released);
                        for tx in &released {
                            self.stats.released_sends += 1;
                            let cap = match &class_caps {
                                Some(c) if !tx.from.is_source() => c[tx.from.index()],
                                _ => scheme.send_capacity(tx.from),
                            };
                            admit_relaxed(
                                tx,
                                ev.time,
                                cap,
                                &departed,
                                &mut run,
                                cfg.uplink,
                                &mut gate,
                                kernel.stats_mut(),
                                &mut self.stats,
                                &mut q,
                            );
                        }
                    }
                }
                EventKind::Churn(action) => match action {
                    ResolvedChurnAction::Leave { ext } => {
                        if (ext as usize) < n_ids {
                            departed[ext as usize] = true;
                            self.stats.churn_leaves += 1;
                            if rec_on {
                                crash_tick.entry(ext as u32).or_insert(ev.time);
                            }
                        }
                    }
                    ResolvedChurnAction::Join { .. } => {
                        self.stats.churn_joins_ignored += 1;
                    }
                    ResolvedChurnAction::Rejoin { ext } => {
                        if (ext as usize) < n_ids {
                            departed[ext as usize] = false;
                            self.stats.churn_rejoins += 1;
                            if rec_on {
                                if let Some(outcome) = scheme
                                    .membership_event(NodeId(ext as u32), MembershipEvent::Rejoined)
                                {
                                    resil.displaced_total += outcome.displaced.len() as u64;
                                    // Stale silence from the pre-rejoin
                                    // topology must not confirm anyone.
                                    detector.clear_links();
                                }
                                detector.forget(ext as u32);
                                crash_tick.remove(&(ext as u32));
                            }
                        }
                    }
                },
                EventKind::SuspectTimeout { watcher, subject } => {
                    // Timers die with the playback horizon — re-armed
                    // probes must not keep the queue alive forever.
                    if !rec_on
                        || stopped
                        || departed[watcher.index()]
                        || ev.time >= sim.max_slots * TICKS_PER_SLOT
                    {
                        continue;
                    }
                    match detector.check(watcher.0, subject.0, ev.time) {
                        TimeoutVerdict::Drop => {}
                        TimeoutVerdict::Rearm(deadline) => {
                            q.push(deadline, EventKind::SuspectTimeout { watcher, subject });
                        }
                        TimeoutVerdict::Suspect => {
                            // Silence alone cannot distinguish a crashed
                            // parent from a merely starved one (a crash
                            // silences its whole subtree at once) or from a
                            // link the last repair rewired away. The watcher
                            // therefore probes the subject before accusing
                            // it: a live subject answers, the alarm is
                            // defused and the link re-armed; only true
                            // silence counts toward confirmation.
                            resil.control_messages += 1;
                            let slot_now = ev.time / TICKS_PER_SLOT;
                            let alive = !departed[subject.index()]
                                && !sim.faults.as_ref().is_some_and(|f| {
                                    f.stopped(subject, slot_now) || f.crashed(subject, slot_now)
                                });
                            if alive {
                                detector.record(watcher.0, subject.0, ev.time);
                                q.push(
                                    ev.time.saturating_add(detector.timeout()),
                                    EventKind::SuspectTimeout { watcher, subject },
                                );
                            } else if detector.confirm(subject.0) {
                                resil.failures_detected += 1;
                                q.push(ev.time, EventKind::RepairCommit { failed: subject });
                            }
                        }
                    }
                }
                EventKind::RepairCommit { failed } => {
                    if !rec_on || stopped {
                        continue;
                    }
                    if let Some(outcome) = scheme.membership_event(failed, MembershipEvent::Failed)
                    {
                        resil.repairs_committed += 1;
                        resil.displaced_total += outcome.displaced.len() as u64;
                        let latency = ev
                            .time
                            .saturating_sub(crash_tick.get(&failed.0).copied().unwrap_or(ev.time));
                        resil.recovery_latency_total_ticks += latency;
                        resil.recovery_latency_max_ticks =
                            resil.recovery_latency_max_ticks.max(latency);
                        tel.observe(tm::RECOVERY_DETECTION_LATENCY, latency);
                        // The rebuilt schedule rewires who hears from whom;
                        // outstanding link timers must die, not misfire.
                        detector.clear_links();
                    }
                }
                EventKind::Nack {
                    node,
                    packet,
                    attempt,
                } => {
                    if !rec_on
                        || stopped
                        || ev.time >= sim.max_slots * TICKS_PER_SLOT
                        || !nacks.is_open(node.0, packet.seq())
                    {
                        continue;
                    }
                    let slot_now = ev.time / TICKS_PER_SLOT;
                    if departed[node.index()]
                        || sim
                            .faults
                            .as_ref()
                            .is_some_and(|f| f.stopped(node, slot_now))
                    {
                        // A dead requester stops chasing (no hiccup: it no
                        // longer plays).
                        nacks.abandon(node.0, packet.seq());
                        continue;
                    }
                    if attempt >= MAX_RETRIES {
                        // Graceful degradation: skip the packet, record the
                        // hiccup, move on.
                        nacks.abandon(node.0, packet.seq());
                        resil.abandoned_packets += 1;
                        continue;
                    }
                    // First attempts go to the most recent parent while it
                    // still buffers the packet; later attempts (or a dead /
                    // bufferless parent) escalate to the source.
                    let mut server = SOURCE;
                    let parent = last_sender[node.index()];
                    if attempt < 2 && parent != 0 {
                        let cand = NodeId(parent);
                        let dead = departed[cand.index()]
                            || sim
                                .faults
                                .as_ref()
                                .is_some_and(|f| f.crashed(cand, slot_now));
                        if !dead && repair_buf.contains(parent, packet.seq()) {
                            server = cand;
                        }
                    }
                    resil.nacks_sent += 1;
                    resil.control_messages += 1;
                    if tel_on {
                        nack_sent_tick
                            .entry((node.0, packet.seq()))
                            .or_insert(ev.time);
                    }
                    // The NACK reaches the server one slot later; the retry
                    // timer re-fires after the (capped, jittered) backoff.
                    q.push(
                        ev.time + TICKS_PER_SLOT,
                        EventKind::Retransmit {
                            from: server,
                            to: node,
                            packet,
                        },
                    );
                    q.push(
                        (ev.time + TICKS_PER_SLOT).saturating_add(nacks.backoff_delay(attempt)),
                        EventKind::Nack {
                            node,
                            packet,
                            attempt: attempt + 1,
                        },
                    );
                }
                EventKind::Retransmit { from, to, packet } => {
                    if !rec_on || stopped || !nacks.is_open(to.0, packet.seq()) {
                        continue;
                    }
                    let slot_now = ev.time / TICKS_PER_SLOT;
                    // The server must still be able to serve.
                    if from.is_source() {
                        if !availability.produced(packet, Slot(slot_now)) {
                            continue;
                        }
                    } else {
                        let dead = departed[from.index()]
                            || sim
                                .faults
                                .as_ref()
                                .is_some_and(|f| f.crashed(from, slot_now));
                        if dead || !repair_buf.contains(from.0, packet.seq()) {
                            continue;
                        }
                    }
                    resil.retransmissions += 1;
                    resil.control_messages += 1;
                    // Repair traffic crosses the same lossy links, but draws
                    // from the dedicated recovery stream so the main loss
                    // process is untouched.
                    if let Some(f) = &sim.faults {
                        if f.loss_rate > 0.0 && rec_rng.gen_bool(f.loss_rate) {
                            continue;
                        }
                    }
                    q.push(
                        ev.time + TICKS_PER_SLOT,
                        EventKind::Deliver { from, to, packet },
                    );
                }
                EventKind::PlaybackTick => {
                    if stopped {
                        continue;
                    }
                    let t = ev.time / TICKS_PER_SLOT;
                    if kernel.open(&mut run, t) {
                        stopped = true;
                        continue;
                    }
                    kernel.dispatch(scheme, t);
                    if strict {
                        // Fixed latency, no replay, and `stopped` cannot
                        // change before this tick's sends: the `Send` hop
                        // would only push this very `Deliver`.
                        let sends = &mut self.stats.sends;
                        kernel.admit_with(&*scheme, &mut run, t, |tx| {
                            *sends += 1;
                            q.push(
                                ev.time + tx.latency as u64 * TICKS_PER_SLOT,
                                EventKind::Deliver {
                                    from: tx.from,
                                    to: tx.to,
                                    packet: tx.packet,
                                },
                            );
                        })?;
                    } else {
                        waiting.slide();
                        for i in 0..kernel.generated().len() {
                            let tx = kernel.generated()[i];
                            check_ends(&tx, n_ids)?;
                            if !kernel.sender_has(&tx, t)? {
                                // Reactive node: send the moment it arrives.
                                self.stats.deferred_sends += 1;
                                waiting.park(tx);
                                continue;
                            }
                            let cap = match &class_caps {
                                Some(c) if !tx.from.is_source() => c[tx.from.index()],
                                _ => scheme.send_capacity(tx.from),
                            };
                            admit_relaxed(
                                &tx,
                                ev.time,
                                cap,
                                &departed,
                                &mut run,
                                cfg.uplink,
                                &mut gate,
                                kernel.stats_mut(),
                                &mut self.stats,
                                &mut q,
                            );
                        }
                    }
                    if t + 1 < sim.max_slots {
                        q.push((t + 1) * TICKS_PER_SLOT, EventKind::PlaybackTick);
                    }
                }
                EventKind::Send(tx) => {
                    if stopped {
                        continue;
                    }
                    let lat = match replay.as_mut() {
                        Some(r) => match r.sample_ticks(tx.from.0, tx.to.0, tx.latency) {
                            Some(l) => l,
                            None => {
                                // A recorded chaos drop (injected loss or a
                                // partition blackout): the networked wire ate
                                // this copy, so the replay loses it in flight
                                // at the same position in the link's FIFO.
                                run.ledger.lost(&tx);
                                continue;
                            }
                        },
                        None => cfg.latency.sample_ticks(tx.latency, &mut lat_rng),
                    };
                    q.push(
                        ev.time + lat,
                        EventKind::Deliver {
                            from: tx.from,
                            to: tx.to,
                            packet: tx.packet,
                        },
                    );
                }
            }
        }
        self.stats.events_scheduled = q.total_pushed();
        if let Some(what) = q.divergence() {
            return Err(CoreError::QueueDivergence(what));
        }
        if tel_on && rec_on {
            // End-of-run recovery totals, mirrored from the resilience
            // counters so a metrics file alone tells the recovery story.
            tel.counter(tm::RECOVERY_REPAIRS, resil.repairs_committed);
            tel.counter(tm::RECOVERY_RETRANSMITS, resil.retransmissions);
            tel.counter(tm::RECOVERY_ABANDONS, resil.abandoned_packets);
            tel.counter(tm::RECOVERY_CONTROL_MESSAGES, resil.control_messages);
        }

        // Calendar entries still waiting for a packet that never came are
        // downstream loss propagation, same as the slot engines count it.
        // Attribution chases chains (one leftover may be what starved the
        // next) to a fixpoint, then falls back to the ledger's default
        // cause. A parked chain shares its key, so it resolves whole; the
        // walk runs seq by seq and frees each row once it is done, so it
        // never holds more than one row's chains beside the parked sends.
        let fallback = run.ledger.fallback();
        waiting.settle(
            &mut run.ledger,
            FaultLedger::cause,
            FaultLedger::propagate_from,
            fallback,
        );

        // Resilience: slot engines report Some iff faults are installed
        // (stall counters only); the DES also reports under churn and
        // fills the recovery counters when the recovery layer ran.
        let lossy = sim.faults.is_some()
            || cfg.churn.is_some()
            || cfg.recorded.as_ref().is_some_and(|r| r.drop_count() > 0);
        kernel.result(scheme, run, lossy, (lossy || rec_on).then_some(resil))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;
    use clustream_core::SOURCE;
    use clustream_sim::{diff_fields, SimConfig, Simulator};

    /// S → 1 → 2 → … → N, the engine-exercise scheme used across the
    /// workspace.
    struct Chain {
        n: usize,
    }

    impl Scheme for Chain {
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
    fn slot_faithful_matches_reference_engine() {
        let sim_cfg = SimConfig::until_complete(16, 200);
        let want = Simulator::run(&mut Chain { n: 6 }, &sim_cfg).unwrap();
        let got = DesEngine::new()
            .run(&mut Chain { n: 6 }, &DesConfig::slot_faithful(sim_cfg))
            .unwrap();
        assert_eq!(diff_fields(&want, &got), Vec::<&str>::new());
    }

    #[test]
    fn every_queue_kind_reproduces_the_heap_run() {
        // Strict, faulty and recovery-heavy runs: the queue choice must
        // never show up in the RunResult, only in the wall clock.
        use clustream_sim::FaultPlan;
        let configs = [
            DesConfig::slot_faithful(SimConfig::until_complete(16, 200)),
            DesConfig::slot_faithful(SimConfig::with_faults(24, 80, FaultPlan::loss(0.25, 42))),
            DesConfig::slot_faithful(SimConfig::with_faults(24, 200, FaultPlan::loss(0.2, 9)))
                .with_recovery(clustream_recovery::RecoveryConfig::repair_nack()),
            DesConfig::slot_faithful(SimConfig::until_complete(12, 2000))
                .with_latency(LatencyModel::UniformJitter { jitter: 3.0 })
                .seeded(11),
        ];
        for cfg in configs {
            let mut heap_engine = DesEngine::new();
            let want = heap_engine.run(&mut Chain { n: 6 }, &cfg).unwrap();
            for queue in [QueueKind::Wheel, QueueKind::Checked] {
                let mut engine = DesEngine::new();
                let got = engine
                    .run(&mut Chain { n: 6 }, &cfg.clone().with_queue(queue))
                    .unwrap();
                assert_eq!(diff_fields(&want, &got), Vec::<&str>::new(), "{queue:?}");
                assert_eq!(engine.stats(), heap_engine.stats(), "{queue:?}");
            }
        }
    }

    /// A wheel that pops its `nth` event one tick late.
    struct LateWheel {
        wheel: WheelQueue,
        nth: u64,
        popped: u64,
    }

    impl EventQueue for LateWheel {
        fn push(&mut self, time: u64, kind: EventKind) -> u64 {
            self.wheel.push(time, kind)
        }
        fn pop(&mut self) -> Option<crate::event::Event> {
            self.popped += 1;
            let mut e = self.wheel.pop()?;
            e.time += u64::from(self.popped == self.nth);
            Some(e)
        }
        fn cancel(&mut self, seq: u64) {
            self.wheel.cancel(seq)
        }
        fn len(&self) -> usize {
            self.wheel.len()
        }
        fn total_pushed(&self) -> u64 {
            self.wheel.total_pushed()
        }
    }

    #[test]
    fn a_lockstep_divergence_is_an_error_not_a_panic() {
        let cfg = DesConfig::slot_faithful(SimConfig::until_complete(16, 200));
        let late = LateWheel {
            wheel: WheelQueue::new(),
            nth: 5,
            popped: 0,
        };
        let pair = CheckedQueue::pair(HeapQueue::new(), late);
        let err = DesEngine::new()
            .run_with_queue(&mut Chain { n: 6 }, &cfg, pair)
            .unwrap_err();
        let CoreError::QueueDivergence(what) = &err else {
            panic!("not a queue divergence: {err}");
        };
        assert!(what.starts_with("on pop 5: heap Some("), "{what}");
        assert!(
            err.to_string()
                .starts_with("differential check failed: heap and wheel diverge on pop 5: "),
            "{err}"
        );
    }

    #[test]
    fn slot_faithful_matches_reference_with_faults() {
        use clustream_sim::FaultPlan;
        let sim_cfg = SimConfig::with_faults(24, 80, FaultPlan::loss(0.25, 42));
        let want = Simulator::run(&mut Chain { n: 6 }, &sim_cfg).unwrap();
        let got = DesEngine::new()
            .run(&mut Chain { n: 6 }, &DesConfig::slot_faithful(sim_cfg))
            .unwrap();
        assert_eq!(diff_fields(&want, &got), Vec::<&str>::new());
        assert!(got.loss.as_ref().unwrap().lost_in_flight > 0);
    }

    #[test]
    fn every_admission_failure_is_one_error_on_every_column() {
        use crate::oracle::{agree, Column};
        use clustream_core::Availability;

        /// Three receivers; the source sends `cap` per slot; slot 0 sends
        /// `script` and nothing else ever does.
        #[derive(Clone)]
        struct Script {
            live: bool,
            cap: usize,
            script: Vec<Transmission>,
        }
        impl Scheme for Script {
            fn name(&self) -> String {
                "script".into()
            }
            fn num_receivers(&self) -> usize {
                3
            }
            fn send_capacity(&self, node: NodeId) -> usize {
                if node.is_source() {
                    self.cap
                } else {
                    1
                }
            }
            fn availability(&self) -> Availability {
                if self.live {
                    Availability::Live
                } else {
                    Availability::PreRecorded
                }
            }
            fn transmissions(
                &mut self,
                slot: Slot,
                _: &dyn StateView,
                out: &mut Vec<Transmission>,
            ) {
                if slot.t() == 0 {
                    out.extend_from_slice(&self.script);
                }
            }
        }
        let tx = |from: u32, to: u32, seq: u64| {
            Transmission::local(NodeId(from), NodeId(to), PacketId(seq))
        };
        let latency = |latency: u32| Transmission {
            latency,
            ..tx(0, 1, 0)
        };
        let script = |cap: usize, script: Vec<Transmission>| Script {
            live: false,
            cap,
            script,
        };
        let rows = [
            (
                "unknown sender",
                script(1, vec![tx(9, 1, 0)]),
                "unknown node n9",
            ),
            (
                "unknown receiver",
                script(1, vec![tx(0, 9, 0)]),
                "unknown node n9",
            ),
            (
                "zero latency",
                script(1, vec![latency(0)]),
                "zero-latency transmission",
            ),
            (
                "not produced",
                Script {
                    live: true,
                    ..script(1, vec![tx(0, 1, 5)])
                },
                "p5 is not yet produced at t0",
            ),
            (
                "not held",
                script(1, vec![tx(1, 2, 0)]),
                "n1 does not hold p0 at t0",
            ),
            (
                "send capacity",
                script(1, vec![tx(0, 1, 0), tx(0, 2, 0)]),
                "exceeded send capacity 1 in t0",
            ),
            (
                "receive collision",
                script(2, vec![tx(0, 1, 0), tx(0, 1, 1)]),
                "n1 scheduled to receive both p0 and p1 in t0",
            ),
            (
                "ring refusal",
                script(1, vec![latency(2_000_000_000)]),
                "an arrival ring of 2147483648 slots, which does not fit in memory",
            ),
        ];
        let cfg = SimConfig::until_complete(2, 10);
        let des = [QueueKind::Heap, QueueKind::Wheel, QueueKind::Checked].map(Column::Des);
        for (case, scheme, message) in rows {
            // The reference holds its queue in a `BTreeMap`, which never
            // refuses a latency: only the dense columns can.
            let reference = (case != "ring refusal").then_some(Column::Reference);
            let columns: Vec<Column> = reference
                .into_iter()
                .chain([Column::Mega])
                .chain(des)
                .collect();
            let outcome = agree(&columns, || Box::new(scheme.clone()), &cfg)
                .unwrap_or_else(|d| panic!("{case}: {d}"));
            let err = outcome.map(|r| r.scheme).unwrap_err().to_string();
            assert!(err.contains(message), "{case}: {err}");
        }
    }

    #[test]
    fn jitter_inflates_delay_but_still_completes() {
        let sim_cfg = SimConfig::until_complete(16, 400);
        let clean = DesEngine::new()
            .run(
                &mut Chain { n: 5 },
                &DesConfig::slot_faithful(sim_cfg.clone()),
            )
            .unwrap();
        let jittered = DesEngine::new()
            .run(
                &mut Chain { n: 5 },
                &DesConfig::slot_faithful(sim_cfg)
                    .with_latency(LatencyModel::UniformJitter { jitter: 2.0 })
                    .seeded(7),
            )
            .unwrap();
        assert!(
            jittered.qos.max_delay() >= clean.qos.max_delay(),
            "jitter cannot shrink the worst-case delay ({} < {})",
            jittered.qos.max_delay(),
            clean.qos.max_delay()
        );
        // Completion takes longer, so the calendar keeps streaming longer.
        assert!(jittered.slots_run >= clean.slots_run);
        // Deterministic under a fixed latency seed.
        let again = DesEngine::new()
            .run(
                &mut Chain { n: 5 },
                &DesConfig::slot_faithful(SimConfig::until_complete(16, 400))
                    .with_latency(LatencyModel::UniformJitter { jitter: 2.0 })
                    .seeded(7),
            )
            .unwrap();
        assert_eq!(diff_fields(&jittered, &again), Vec::<&str>::new());
    }

    #[test]
    fn serialized_uplink_delays_burst_sends() {
        // Source with capacity 2 multicasts packet t to both nodes each
        // slot. Unconstrained: both dispatch at the slot start. Serialized:
        // the second send occupies the uplink half a slot later, landing
        // mid-slot and usable one slot later.
        struct Burst;
        impl Scheme for Burst {
            fn name(&self) -> String {
                "burst".into()
            }
            fn num_receivers(&self) -> usize {
                2
            }
            fn send_capacity(&self, node: NodeId) -> usize {
                if node.is_source() {
                    2
                } else {
                    1
                }
            }
            fn transmissions(
                &mut self,
                slot: Slot,
                _: &dyn StateView,
                out: &mut Vec<Transmission>,
            ) {
                let t = slot.t();
                out.push(Transmission::local(SOURCE, NodeId(1), PacketId(t)));
                out.push(Transmission::local(SOURCE, NodeId(2), PacketId(t)));
            }
        }
        let cfg = DesConfig::slot_faithful(SimConfig::until_complete(8, 100))
            .with_uplink(UplinkModel::Serialized);
        let r = DesEngine::new().run(&mut Burst, &cfg).unwrap();
        // Node 1's copy dispatches on the boundary: usable next slot.
        assert_eq!(
            r.arrivals.usable_slot(NodeId(1), PacketId(0)),
            Some(Slot(1))
        );
        // Node 2's copy dispatches half a slot late: usable one slot later.
        assert_eq!(
            r.arrivals.usable_slot(NodeId(2), PacketId(0)),
            Some(Slot(2))
        );
        assert_eq!(r.qos.node(NodeId(1)).unwrap().playback_delay, 1);
        assert_eq!(r.qos.node(NodeId(2)).unwrap().playback_delay, 2);
    }

    #[test]
    fn deferred_sends_release_on_arrival() {
        // Under heavy jitter a chain node's calendar entry routinely fires
        // before the packet arrived; the reactive path must still deliver
        // everything (no Hiccup) within a generous horizon.
        let cfg = DesConfig::slot_faithful(SimConfig::until_complete(12, 2000))
            .with_latency(LatencyModel::UniformJitter { jitter: 3.0 })
            .seeded(11);
        let mut engine = DesEngine::new();
        let r = engine.run(&mut Chain { n: 6 }, &cfg).unwrap();
        assert!(r.arrivals.complete_for(NodeId(6)));
        assert!(
            engine.stats().deferred_sends > 0,
            "3-slot jitter on a chain must defer some forwards"
        );
        // Releases can only lag deferrals (entries whose packet lands
        // after the early stop are never released).
        assert!(engine.stats().released_sends > 0);
        assert!(engine.stats().released_sends <= engine.stats().deferred_sends);
    }

    #[test]
    fn churned_out_node_starves_downstream() {
        use clustream_workloads::{ChurnAction, ChurnEvent, ChurnTrace, ChurnTraceConfig};
        // Hand-built trace: rank 1 (node 2, no supers) leaves at slot 6.
        let trace = ChurnTrace {
            config: ChurnTraceConfig {
                initial_members: 5,
                slots: 40,
                join_rate: 0.0,
                leave_rate: 0.0,
                rejoin_rate: 0.0,
                seed: 0,
            },
            events: vec![ChurnEvent {
                slot: 6,
                action: ChurnAction::Leave { victim_rank: 1 },
            }],
        };
        let cfg = DesConfig::slot_faithful(SimConfig {
            max_slots: 40,
            track_packets: 12,
            ..SimConfig::default()
        })
        .with_churn(trace);
        let mut engine = DesEngine::new();
        let r = engine.run(&mut Chain { n: 5 }, &cfg).unwrap();
        assert_eq!(engine.stats().churn_leaves, 1);
        let loss = r.loss.as_ref().expect("churn runs report loss");
        let missing = |id: u32| {
            loss.missing
                .iter()
                .find(|(n, _)| n.0 == id)
                .map_or(0, |(_, m)| *m)
        };
        assert_eq!(missing(1), 0);
        // Node 2 held packets 0..=4 when it left at slot 6 (chain: packet
        // j usable at node 2 from slot j + 2) and misses the rest.
        assert_eq!(missing(2), 7, "the departed node stops receiving");
        assert!(missing(3) > 0, "downstream of the departed node starves");
        assert!(missing(5) > 0);
        assert!(loss.crash_suppressed > 0, "departed sends are suppressed");
    }

    #[test]
    fn event_probe_names_follow_the_registry_prefixes() {
        let kinds = [
            EventKind::PlaybackTick,
            EventKind::Send(Transmission::local(SOURCE, NodeId(1), PacketId(0))),
            EventKind::Deliver {
                from: SOURCE,
                to: NodeId(1),
                packet: PacketId(0),
            },
            EventKind::Churn(ResolvedChurnAction::Join { ext: 9 }),
            EventKind::SuspectTimeout {
                watcher: NodeId(1),
                subject: NodeId(2),
            },
            EventKind::RepairCommit { failed: NodeId(2) },
            EventKind::Nack {
                node: NodeId(1),
                packet: PacketId(0),
                attempt: 0,
            },
            EventKind::Retransmit {
                from: SOURCE,
                to: NodeId(1),
                packet: PacketId(0),
            },
        ];
        for kind in &kinds {
            let (counter, span) = event_probe_names(kind);
            assert!(counter.starts_with(tm::DES_EVENT_PREFIX), "{counter}");
            assert!(span.starts_with(tm::DES_SERVICE_PREFIX), "{span}");
            assert_eq!(
                counter.strip_prefix(tm::DES_EVENT_PREFIX),
                span.strip_prefix(tm::DES_SERVICE_PREFIX),
                "counter and span must name the same event class"
            );
        }
    }

    #[test]
    fn telemetry_off_and_on_runs_are_identical_with_recovery() {
        use clustream_sim::FaultPlan;
        use clustream_telemetry::{MemoryRecorder, Telemetry};
        let mut sim_cfg = SimConfig::with_faults(24, 200, FaultPlan::loss(0.2, 9));
        let base = DesConfig::slot_faithful(sim_cfg.clone())
            .with_recovery(clustream_recovery::RecoveryConfig::repair_nack());
        let plain = DesEngine::new().run(&mut Chain { n: 6 }, &base).unwrap();
        let (rec, tel) = MemoryRecorder::handle();
        sim_cfg.telemetry = tel;
        let cfg = DesConfig {
            sim: sim_cfg,
            ..base
        };
        let instrumented = DesEngine::new().run(&mut Chain { n: 6 }, &cfg).unwrap();
        assert_eq!(
            diff_fields(&plain, &instrumented),
            Vec::<&str>::new(),
            "telemetry must not perturb the run"
        );
        let snap = rec.snapshot();
        assert_eq!(
            snap.counter(tm::DES_EVENTS),
            instrumented_events(&instrumented, &snap)
        );
        assert!(snap.spans.contains_key(tm::DES_RUN));
        assert!(snap.spans.contains_key("des.service.playback_tick"));
        assert!(snap.gauges.contains_key(tm::DES_QUEUE_DEPTH_MAX));
        let _ = Telemetry::disabled();
    }

    /// The per-class counters must sum to the total event counter, and
    /// that total must equal the engine's own processed count.
    fn instrumented_events(_r: &RunResult, snap: &clustream_telemetry::MetricsSnapshot) -> u64 {
        snap.counters
            .iter()
            .filter(|(k, _)| k.starts_with(tm::DES_EVENT_PREFIX))
            .map(|(_, &v)| v)
            .sum()
    }

    #[test]
    fn a_strict_run_pops_one_event_per_delivery_and_per_slot() {
        use clustream_hypercube::HypercubeStream;
        use clustream_multitree::{greedy_forest, MultiTreeScheme, StreamMode};
        use clustream_sim::FaultPlan;
        let multitree = || {
            let forest = greedy_forest(40, 3).unwrap();
            Box::new(MultiTreeScheme::new(forest, StreamMode::PreRecorded)) as Box<dyn Scheme>
        };
        let lossy = SimConfig::with_faults(
            24,
            200,
            FaultPlan {
                crashes: vec![(NodeId(2), 10)],
                ..FaultPlan::loss(0.05, 5)
            },
        );
        let cases: [(Box<dyn Scheme>, SimConfig); 4] = [
            (multitree(), SimConfig::until_complete(24, 200)),
            (
                Box::new(HypercubeStream::new(25).unwrap()),
                SimConfig::until_complete(24, 200),
            ),
            (Box::new(Chain { n: 6 }), SimConfig::until_complete(16, 200)),
            (multitree(), lossy),
        ];
        for (mut scheme, sim_cfg) in cases {
            let cfg = DesConfig::slot_faithful(sim_cfg);
            assert!(cfg.is_slot_faithful());
            let mut engine = DesEngine::new();
            let run = engine.run(scheme.as_mut(), &cfg).unwrap();
            let s = engine.stats();
            assert_eq!(
                s.events_processed,
                s.deliveries + run.slots_run,
                "{}",
                run.scheme
            );
            assert_eq!(s.events_processed, s.events_scheduled, "{}", run.scheme);
        }
    }

    #[test]
    fn only_relaxed_runs_count_send_events() {
        use clustream_telemetry::MemoryRecorder;
        let send = "des.events.send";
        for (cfg, relaxed) in [
            (
                DesConfig::slot_faithful(SimConfig::until_complete(16, 200)),
                false,
            ),
            (
                DesConfig::slot_faithful(SimConfig::until_complete(16, 2000))
                    .with_latency(LatencyModel::UniformJitter { jitter: 1.5 })
                    .seeded(3),
                true,
            ),
        ] {
            let (rec, tel) = MemoryRecorder::handle();
            let cfg = DesConfig {
                sim: SimConfig {
                    telemetry: tel,
                    ..cfg.sim.clone()
                },
                ..cfg
            };
            let mut engine = DesEngine::new();
            engine.run(&mut Chain { n: 6 }, &cfg).unwrap();
            let snap = rec.snapshot();
            assert!(engine.stats().sends > 0);
            if relaxed {
                assert_eq!(snap.counter(send), engine.stats().sends);
            } else {
                assert!(!snap.counters.contains_key(send), "{:?}", snap.counters);
            }
        }
    }

    #[test]
    fn event_counters_populate() {
        let mut engine = DesEngine::new();
        let _ = engine
            .run(
                &mut Chain { n: 4 },
                &DesConfig::slot_faithful(SimConfig::until_complete(8, 100)),
            )
            .unwrap();
        let s = engine.stats();
        assert!(s.events_processed > 0);
        assert_eq!(s.events_processed, s.events_scheduled);
        assert!(s.sends > 0);
        assert!(s.deliveries > 0);
    }
}
