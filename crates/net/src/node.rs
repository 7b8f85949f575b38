//! The `clustream-node` runtime: one process executing one node's
//! lowered slot schedule over real sockets.
//!
//! Threading model (the container has no async runtime, so this is
//! plain `std`): one **main loop** owns all protocol state and blocks on
//! an inbox channel with a deadline at the next slot boundary; one
//! **acceptor** thread turns incoming connections into **reader**
//! threads that decode frames into the inbox; one **writer** thread per
//! outgoing link drains a bounded queue onto the socket. The main loop
//! never blocks on a socket: enqueues are `try_send` (a full queue to a
//! dead peer drops the frame rather than stalling the stream), so a
//! SIGKILLed neighbour costs its subtree packets — which the NACK path
//! then repairs — but never wedges a survivor.
//!
//! Semantics mirror the DES relaxed mode on purpose (the replay oracle
//! depends on it): a calendar send whose packet has not arrived is
//! deferred and dispatched the moment the packet lands; missing tracked
//! packets overdue past `gap_slack` are chased with NACKs to the source;
//! upstream silence past the suspect timeout raises a `Suspect` frame to
//! the orchestrator ([`clustream_recovery::WallClockDetector`]).

use crate::chaos::{ChaosPolicy, SendPlan};
use crate::frame::{read_frame, Frame};
use crate::schedule::{
    ArrivalObs, CalendarSendObs, LoweredSend, NodeConfig, NodeReport, ScheduleUpdate,
};
use crate::transport::{connect_retry, Conn, NetListener, Transport};
use clustream_plan::{ArgMap, CliError, Usage};
use clustream_recovery::WallClockDetector;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Command-line parameters of one node process.
#[derive(Debug, Clone)]
pub struct NodeOptions {
    /// This node's id.
    pub node: u32,
    /// Socket family for every link.
    pub transport: Transport,
    /// The orchestrator's control address.
    pub control_addr: String,
    /// Directory for Unix sockets (unused under TCP).
    pub socket_dir: PathBuf,
}

/// `clustream-node`'s usage text (and flag vocabulary).
pub const NODE_USAGE: Usage = &[
    "--node <ID> --control <ADDR>",
    "[--transport <tcp|uds>] [--socket-dir <DIR>]",
];

impl NodeOptions {
    /// Parse `clustream-node`'s flags.
    pub fn from_args(args: &ArgMap) -> Result<NodeOptions, CliError> {
        args.check_known(NODE_USAGE)?;
        args.required("node")?;
        Ok(NodeOptions {
            node: args.int_in("node", 0..=u32::MAX)?.unwrap_or(0),
            transport: Transport::parse(args.optional("transport").unwrap_or("tcp"))
                .map_err(CliError::Usage)?,
            control_addr: args.required("control")?.to_string(),
            socket_dir: args
                .optional("socket-dir")
                .map_or_else(std::env::temp_dir, PathBuf::from),
        })
    }
}

/// Wall clock in UNIX nanoseconds — comparable across processes on the
/// same host, which is all a loopback cluster needs.
pub fn sys_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// Transport-level counters shared between the main loop and the
/// reader/writer threads.
#[derive(Debug, Default)]
struct Counters {
    frames_sent: AtomicU64,
    bytes_sent: AtomicU64,
    frames_received: AtomicU64,
    bytes_received: AtomicU64,
    reconnects: AtomicU64,
    send_queue_high_water: AtomicU64,
}

/// What reader threads feed the main loop.
enum Inbox {
    /// A decoded frame from any link (control or data).
    Frame(Frame),
    /// The control link closed: the orchestrator is gone, exit.
    ControlClosed,
}

/// One outgoing data link: a bounded queue drained by a writer thread.
/// Each queue entry carries the frame plus an injected chaos delay in
/// microseconds — the writer sleeps before writing, so the delay applies
/// to the frame *and* everything FIFO-behind it, which is exactly how a
/// slow wire behaves.
struct Link {
    tx: mpsc::SyncSender<(Frame, u64)>,
    queued: Arc<AtomicU64>,
    dead: Arc<AtomicBool>,
}

const LINK_QUEUE: usize = 4096;
/// How long a single frame write may stall on a non-reading peer before
/// the writer treats the link as broken and tries to reconnect.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);
/// How long the writer retries the re-dial after a send error before
/// declaring the link dead for good.
const REDIAL_WINDOW: Duration = Duration::from_millis(500);

impl Link {
    /// Open a link: dial with retry, then spawn the writer.
    fn open(
        transport: Transport,
        addr: &str,
        counters: Arc<Counters>,
        deadline: Instant,
    ) -> Result<Link, String> {
        let (conn, failures) =
            connect_retry(transport, addr, deadline).map_err(|e| e.to_string())?;
        let _ = conn.set_write_timeout(Some(WRITE_TIMEOUT));
        counters.reconnects.fetch_add(failures, Ordering::Relaxed);
        let (tx, rx) = mpsc::sync_channel::<(Frame, u64)>(LINK_QUEUE);
        let queued = Arc::new(AtomicU64::new(0));
        let dead = Arc::new(AtomicBool::new(false));
        let link = Link {
            tx,
            queued: Arc::clone(&queued),
            dead: Arc::clone(&dead),
        };
        let addr = addr.to_string();
        std::thread::spawn(move || {
            let mut conn = conn;
            while let Ok((frame, delay_us)) = rx.recv() {
                queued.fetch_sub(1, Ordering::Relaxed);
                if dead.load(Ordering::Relaxed) {
                    continue; // drain-and-discard after a write error
                }
                if delay_us > 0 {
                    std::thread::sleep(Duration::from_micros(delay_us));
                }
                let sent = conn.send(&frame).or_else(|_| {
                    // One bounded reconnect attempt: a transient peer
                    // stall (gray node, TCP reset under load) should
                    // cost one frame window, not the whole link.
                    let (fresh, failures) =
                        connect_retry(transport, &addr, Instant::now() + REDIAL_WINDOW)?;
                    let _ = fresh.set_write_timeout(Some(WRITE_TIMEOUT));
                    counters
                        .reconnects
                        .fetch_add(failures + 1, Ordering::Relaxed);
                    conn = fresh;
                    conn.send(&frame)
                });
                match sent {
                    Ok(n) => {
                        counters.frames_sent.fetch_add(1, Ordering::Relaxed);
                        counters.bytes_sent.fetch_add(n as u64, Ordering::Relaxed);
                    }
                    Err(_) => dead.store(true, Ordering::Relaxed),
                }
            }
        });
        Ok(link)
    }

    /// Enqueue without ever blocking the slot loop: a full queue (a peer
    /// that stopped reading, i.e. a killed process) drops the frame.
    fn enqueue(&self, counters: &Counters, frame: Frame, delay_us: u64) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        // Count before sending: the writer decrements as it dequeues, so
        // incrementing after a send could underflow the counter.
        let q = self.queued.fetch_add(1, Ordering::Relaxed) + 1;
        if self.tx.try_send((frame, delay_us)).is_ok() {
            counters
                .send_queue_high_water
                .fetch_max(q, Ordering::Relaxed);
        } else {
            self.queued.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Spawn a reader thread decoding frames from `conn` into the inbox.
/// `on_close` is delivered when the stream ends (cleanly or not).
fn spawn_reader(
    mut conn: Conn,
    tx: mpsc::Sender<Inbox>,
    counters: Arc<Counters>,
    on_close: Option<Inbox>,
) {
    std::thread::spawn(move || {
        while let Ok(Some((frame, bytes))) = read_frame(&mut conn) {
            counters.frames_received.fetch_add(1, Ordering::Relaxed);
            counters
                .bytes_received
                .fetch_add(bytes as u64, Ordering::Relaxed);
            if tx.send(Inbox::Frame(frame)).is_err() {
                return; // main loop exited
            }
        }
        if let Some(msg) = on_close {
            let _ = tx.send(msg);
        }
    });
}

/// Protocol state of one running node.
struct Node {
    cfg: NodeConfig,
    transport: Transport,
    counters: Arc<Counters>,
    /// Open outgoing links by peer id.
    links: BTreeMap<u32, Link>,
    /// Dial addresses for lazily opened links (NACK replies).
    addrs: BTreeMap<u32, String>,
    /// Calendar sends grouped by slot.
    by_slot: BTreeMap<u64, Vec<LoweredSend>>,
    /// Earliest expected (slot, sender) per packet.
    expected: BTreeMap<u64, (u64, u32)>,
    /// Packets each upstream sender is scheduled to deliver here.
    from_peer: BTreeMap<u32, Vec<u64>>,
    /// Packets this node holds.
    held: BTreeSet<u64>,
    /// Tracked packets still missing.
    missing: BTreeSet<u64>,
    /// Calendar sends waiting for their packet.
    pending: BTreeMap<u64, Vec<LoweredSend>>,
    /// NACK chase state per missing packet: (attempts, next retry slot).
    nack_state: BTreeMap<u64, (u64, u64)>,
    detector: WallClockDetector,
    /// Per-frame chaos decisions for this node's outbound traffic.
    chaos: ChaosPolicy,
    /// Reorder buffer: one held (frame, delay) per link, released behind
    /// the next frame to that link or at the next slot boundary.
    reorder_hold: BTreeMap<u32, (Frame, u64)>,
    /// Retransmissions served in the current slot (budget accounting).
    retransmits_this_slot: u64,
    /// Last slot each (requester, packet) NACK was served — the dedup
    /// window that keeps duplicated/reordered NACKs from amplifying.
    served_nacks: BTreeMap<(u32, u64), u64>,
    /// A schedule update waiting for its barrier slot, with its receive
    /// timestamp (splice-lag accounting).
    pending_update: Option<(ScheduleUpdate, u64)>,
    /// Highest repair epoch applied (stale updates are ignored).
    applied_epoch: u64,
    /// Whether a healed calendar has been spliced in: subsequent
    /// first-copy arrivals fill structural gaps and are excluded from
    /// replay latency samples.
    healed_mode: bool,
    report: NodeReport,
    complete: bool,
    slot: u64,
}

impl Node {
    fn new(cfg: NodeConfig, transport: Transport, counters: Arc<Counters>) -> Node {
        let mut by_slot: BTreeMap<u64, Vec<LoweredSend>> = BTreeMap::new();
        for s in &cfg.sends {
            by_slot.entry(s.slot).or_default().push(*s);
        }
        let mut expected: BTreeMap<u64, (u64, u32)> = BTreeMap::new();
        let mut from_peer: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for e in &cfg.expects {
            let entry = expected.entry(e.packet).or_insert((e.slot, e.from));
            if e.slot < entry.0 {
                *entry = (e.slot, e.from);
            }
            from_peer.entry(e.from).or_default().push(e.packet);
        }
        let missing: BTreeSet<u64> = if cfg.node == 0 {
            BTreeSet::new() // the source produces; it misses nothing
        } else {
            (0..cfg.track).collect()
        };
        // A timeout past u64 nanoseconds never fires.
        let timeout_ns = cfg
            .suspect_timeout_slots
            .saturating_mul(cfg.slot_micros)
            .saturating_mul(1_000);
        let detector = WallClockDetector::new(timeout_ns.max(1));
        let report = NodeReport {
            node: cfg.node,
            ..NodeReport::default()
        };
        let mut addrs: BTreeMap<u32, String> =
            cfg.peers.iter().map(|p| (p.node, p.addr.clone())).collect();
        if !cfg.source_addr.is_empty() {
            addrs.insert(0, cfg.source_addr.clone());
        }
        let chaos = ChaosPolicy::new(cfg.chaos.clone(), cfg.chaos_seed, cfg.node, cfg.slot_micros);
        Node {
            cfg,
            transport,
            counters,
            links: BTreeMap::new(),
            addrs,
            by_slot,
            expected,
            from_peer,
            held: BTreeSet::new(),
            missing,
            pending: BTreeMap::new(),
            nack_state: BTreeMap::new(),
            detector,
            chaos,
            reorder_hold: BTreeMap::new(),
            retransmits_this_slot: 0,
            served_nacks: BTreeMap::new(),
            pending_update: None,
            applied_epoch: 0,
            healed_mode: false,
            report,
            complete: false,
            slot: 0,
        }
    }

    fn holds(&self, packet: u64) -> bool {
        self.cfg.node == 0 || self.held.contains(&packet)
    }

    /// The open link to `peer`, dialing lazily from the address book.
    fn link(&mut self, peer: u32) -> Option<&Link> {
        if !self.links.contains_key(&peer) {
            let addr = self.addrs.get(&peer)?.clone();
            let deadline = Instant::now() + Duration::from_secs(5);
            match Link::open(self.transport, &addr, Arc::clone(&self.counters), deadline) {
                Ok(link) => {
                    self.links.insert(peer, link);
                }
                Err(_) => return None,
            }
        }
        self.links.get(&peer)
    }

    fn send_packet(&mut self, to: u32, packet: u64, retransmit: bool) {
        let plan = if self.chaos.is_active() {
            self.chaos.plan(to, self.slot)
        } else {
            SendPlan::default()
        };
        // The replay ledger mirrors exactly the sends the DES will
        // regenerate: pre-splice, non-retransmit calendar traffic.
        if self.chaos.is_active() && !retransmit && !self.healed_mode {
            self.report.calendar_sends.push(CalendarSendObs {
                to,
                packet,
                dropped: plan.lost(),
            });
        }
        if plan.lost() {
            if plan.partitioned {
                self.report.chaos_partition_drops += 1;
            } else {
                self.report.chaos_drops += 1;
            }
            return;
        }
        if plan.delay_us > 0 {
            self.report.chaos_delays += 1;
        }
        let frame = Frame::Packet {
            from: self.cfg.node,
            to,
            packet,
            slot: self.slot,
            sent_ns: sys_ns(),
            retransmit,
        };
        if plan.duplicate {
            self.report.chaos_dups += 1;
            self.dispatch(to, frame.clone(), plan.delay_us, false);
        }
        self.dispatch(to, frame, plan.delay_us, plan.reorder);
    }

    /// Put one frame on the link, honoring the reorder buffer: a frame
    /// marked for reordering is held back and released behind the *next*
    /// frame to the same link (or at the next slot boundary, whichever
    /// comes first) — a one-deep swap, the way a multi-path wire
    /// reorders adjacent packets.
    fn dispatch(&mut self, to: u32, frame: Frame, delay_us: u64, reorder: bool) {
        if reorder && !self.reorder_hold.contains_key(&to) {
            self.report.chaos_reorders += 1;
            self.reorder_hold.insert(to, (frame, delay_us));
            return;
        }
        let held = self.reorder_hold.remove(&to);
        let counters = Arc::clone(&self.counters);
        if let Some(link) = self.link(to) {
            link.enqueue(&counters, frame, delay_us);
            if let Some((hf, hd)) = held {
                link.enqueue(&counters, hf, hd);
            }
        }
    }

    /// Release every held reorder frame (slot boundary flush).
    fn flush_reorder_holds(&mut self) {
        let held: Vec<(u32, (Frame, u64))> =
            std::mem::take(&mut self.reorder_hold).into_iter().collect();
        for (to, (frame, delay_us)) in held {
            let counters = Arc::clone(&self.counters);
            if let Some(link) = self.link(to) {
                link.enqueue(&counters, frame, delay_us);
            }
        }
    }

    /// Eagerly open every link the calendar needs (before `Ready`, so
    /// `Start` never races a connect).
    fn connect_calendar_links(&mut self) -> Result<(), String> {
        let targets: BTreeSet<u32> = self.cfg.sends.iter().map(|s| s.to).collect();
        let deadline = Instant::now() + Duration::from_secs(20);
        for to in targets {
            let addr = self
                .addrs
                .get(&to)
                .cloned()
                .ok_or_else(|| format!("no address for scheduled peer {to}"))?;
            let link = Link::open(self.transport, &addr, Arc::clone(&self.counters), deadline)?;
            self.links.insert(to, link);
        }
        Ok(())
    }

    /// Execute the calendar + maintenance work of slot `t`. `lagging` is
    /// true while the main loop is burning through a multi-slot catch-up
    /// burst: inbound frames are then sitting unprocessed in the inbox,
    /// so the detector's `last_heard` view is stale — polling it would
    /// suspect healthy senders whenever *this* node falls behind its own
    /// calendar (the false-positive the suspect gate exists to stop).
    fn execute_slot(&mut self, t: u64, control: &mut Conn, lagging: bool) {
        self.slot = t;
        self.retransmits_this_slot = 0;
        self.flush_reorder_holds();
        if let Some((upd, recv_ns)) = self.pending_update.take() {
            if t >= upd.barrier_slot {
                self.apply_update(upd, recv_ns, t);
            } else {
                self.pending_update = Some((upd, recv_ns));
            }
        }
        if let Some(sends) = self.by_slot.remove(&t) {
            for s in sends {
                if self.holds(s.packet) {
                    self.send_packet(s.to, s.packet, false);
                } else {
                    self.report.deferred_sends += 1;
                    self.pending.entry(s.packet).or_default().push(s);
                }
            }
        }
        if self.cfg.node != 0 && !self.complete {
            if !lagging {
                self.poll_detector(control);
            }
            self.chase_gaps(t);
        }
    }

    /// A [`Frame::ScheduleUpdate`] arrived from the control plane: stash
    /// it until its barrier slot. Epochs at or below the last applied
    /// (or an already-pending newer one) are stale and dropped.
    fn on_schedule_update(&mut self, payload: &str) {
        let Ok(upd) = serde_json::from_str::<ScheduleUpdate>(payload) else {
            return;
        };
        if upd.epoch <= self.applied_epoch {
            return;
        }
        if let Some((p, _)) = &self.pending_update {
            if upd.epoch <= p.epoch {
                return;
            }
        }
        self.pending_update = Some((upd, sys_ns()));
    }

    /// Splice a healed calendar in at slot `t` (≥ the barrier). The old
    /// calendar keeps every slot before the splice base — those packets
    /// are in flight or delivered — and the healed calendar, lowered
    /// relative to slot 0, replays from the base. Re-sent duplicates are
    /// ignored by receivers, so correctness only needs the healed
    /// calendar to be complete, which the lowering guarantees.
    fn apply_update(&mut self, upd: ScheduleUpdate, recv_ns: u64, t: u64) {
        let base = upd.barrier_slot.max(t);
        self.by_slot.split_off(&base);
        for sends in self.pending.values_mut() {
            sends.retain(|s| s.slot < base);
        }
        self.pending.retain(|_, v| !v.is_empty());
        for p in &upd.peers {
            self.addrs.entry(p.node).or_insert_with(|| p.addr.clone());
        }
        for s in &upd.sends {
            let slot = base + s.slot;
            self.by_slot.entry(slot).or_default().push(LoweredSend {
                slot,
                to: s.to,
                packet: s.packet,
            });
        }
        // Expectations rebuild wholesale: the healed forest re-derives
        // who owes what, and stale pre-repair entries must not keep NACK
        // or suspect pressure on routes that no longer exist.
        self.expected.clear();
        self.from_peer.clear();
        for e in &upd.expects {
            let slot = base + e.slot;
            let entry = self.expected.entry(e.packet).or_insert((slot, e.from));
            if slot < entry.0 {
                *entry = (slot, e.from);
            }
            self.from_peer.entry(e.from).or_default().push(e.packet);
        }
        // Fresh silence windows for the (possibly new) upstream set; old
        // upstreams owing nothing are filtered out by the poll closure.
        let now = sys_ns();
        let watched: Vec<u32> = self.from_peer.keys().copied().collect();
        for subject in watched {
            self.detector.watch(subject, now);
        }
        self.nack_state.clear();
        self.applied_epoch = upd.epoch;
        self.healed_mode = true;
        self.report.schedule_updates_applied += 1;
        self.report.splice_lag_us = sys_ns().saturating_sub(recv_ns) / 1_000;
    }

    /// Wall-clock silence scan; overdue-and-missing subjects only.
    fn poll_detector(&mut self, control: &mut Conn) {
        let now = sys_ns();
        let slot = self.slot;
        let gap = self.cfg.gap_slack_slots;
        let missing = &self.missing;
        let expected = &self.expected;
        let from_peer = &self.from_peer;
        let owes = |subject: u32| {
            from_peer.get(&subject).is_some_and(|packets| {
                packets.iter().any(|p| {
                    missing.contains(p) && expected.get(p).is_some_and(|(s, _)| s + gap < slot)
                })
            })
        };
        for subject in self.detector.poll(now, owes) {
            self.report.suspects_reported += 1;
            let _ = control.send(&Frame::Suspect {
                watcher: self.cfg.node,
                subject,
                at_ns: now,
            });
        }
    }

    /// NACK every tracked packet overdue past the gap slack, with a
    /// per-packet retry cadence and attempt cap.
    fn chase_gaps(&mut self, t: u64) {
        let overdue: Vec<u64> = self
            .missing
            .iter()
            .copied()
            .filter(|p| {
                self.expected
                    .get(p)
                    .is_some_and(|(slot, _)| slot + self.cfg.gap_slack_slots < t)
            })
            .collect();
        for packet in overdue {
            let (attempts, next) = self.nack_state.get(&packet).copied().unwrap_or((0, 0));
            if attempts >= self.cfg.nack_max_attempts || t < next {
                continue;
            }
            self.nack_state
                .insert(packet, (attempts + 1, t + self.cfg.nack_retry_slots));
            self.report.nacks_sent += 1;
            let frame = Frame::Nack {
                from: self.cfg.node,
                packet,
            };
            let counters = Arc::clone(&self.counters);
            // NACKs go to the source: it provably holds everything.
            if let Some(link) = self.link(0) {
                link.enqueue(&counters, frame, 0);
            }
        }
    }

    /// A packet landed (first copy or duplicate).
    fn on_packet(&mut self, frame: &Frame, control: &mut Conn) {
        let Frame::Packet {
            from,
            packet,
            slot,
            sent_ns,
            retransmit,
            ..
        } = *frame
        else {
            return;
        };
        let now = sys_ns();
        self.detector.heard(from, now);
        if !self.held.insert(packet) {
            return; // duplicate
        }
        if packet < self.cfg.track {
            // After a splice, every first copy fills a structural gap
            // the healed calendar repaired; the first one is the
            // detection→repair→delivery wall-clock endpoint.
            let healed = self.healed_mode && !retransmit;
            if healed && self.report.first_healed_delivery_ns == 0 {
                self.report.first_healed_delivery_ns = now;
            }
            self.report.arrivals.push(ArrivalObs {
                packet,
                from,
                slot,
                sent_ns,
                recv_ns: now,
                retransmit,
                healed,
            });
        }
        self.missing.remove(&packet);
        self.nack_state.remove(&packet);
        // Reactive release: calendar sends waiting on this packet go now.
        if let Some(sends) = self.pending.remove(&packet) {
            for s in sends {
                self.send_packet(s.to, s.packet, false);
            }
        }
        if !self.complete && self.cfg.node != 0 && self.missing.is_empty() {
            self.complete = true;
            self.report.complete = true;
            self.report.complete_ns = sys_ns();
            let _ = control.send(&Frame::Complete {
                node: self.cfg.node,
                at_ns: self.report.complete_ns,
            });
        }
    }

    /// Serve a retransmission request if we hold the packet — after the
    /// storm filters: a (requester, packet) pair served within the last
    /// `nack_retry_slots` is a duplicate (chaos dup/reorder of the NACK
    /// stream, or an impatient retry), and a slot that has already spent
    /// its retransmit budget defers the rest to the requester's next
    /// retry. Both keep a noisy wire from amplifying into a storm.
    fn on_nack(&mut self, from: u32, packet: u64) {
        if !self.holds(packet) {
            return;
        }
        if let Some(&last) = self.served_nacks.get(&(from, packet)) {
            if self.slot < last.saturating_add(self.cfg.nack_retry_slots) {
                self.report.nacks_suppressed += 1;
                return;
            }
        }
        let budget = self.cfg.retransmit_budget_per_slot;
        if budget > 0 && self.retransmits_this_slot >= budget {
            self.report.nacks_suppressed += 1;
            return;
        }
        self.retransmits_this_slot += 1;
        self.served_nacks.insert((from, packet), self.slot);
        self.report.retransmits_served += 1;
        self.send_packet(from, packet, true);
    }

    /// Fold the shared transport counters into the report.
    fn finalize_report(&mut self) {
        self.report.frames_sent = self.counters.frames_sent.load(Ordering::Relaxed);
        self.report.bytes_sent = self.counters.bytes_sent.load(Ordering::Relaxed);
        self.report.frames_received = self.counters.frames_received.load(Ordering::Relaxed);
        self.report.bytes_received = self.counters.bytes_received.load(Ordering::Relaxed);
        self.report.reconnects = self.counters.reconnects.load(Ordering::Relaxed);
        self.report.send_queue_high_water =
            self.counters.send_queue_high_water.load(Ordering::Relaxed);
        // The source is complete by construction (it produces the stream).
        if self.cfg.node == 0 {
            self.report.complete = true;
        }
    }
}

/// What a control link that closes before `Start` reads as.
const CLOSED: &str = "control connection closed during handshake";

/// Run one node process to completion. Returns after `Stop`, the slot
/// horizon, or loss of the control link.
pub fn run_node(opts: &NodeOptions) -> Result<(), String> {
    let counters = Arc::new(Counters::default());
    let (inbox_tx, inbox_rx) = mpsc::channel::<Inbox>();

    // Bind the data listener first: its ephemeral address rides in Hello.
    let sock_name = format!("node-{}.sock", opts.node);
    let (listener, listen_addr) = NetListener::bind(opts.transport, &opts.socket_dir, &sock_name)
        .map_err(|e| format!("bind data listener: {e}"))?;
    {
        let tx = inbox_tx.clone();
        let counters = Arc::clone(&counters);
        std::thread::spawn(move || loop {
            match listener.accept() {
                Ok(conn) => spawn_reader(conn, tx.clone(), Arc::clone(&counters), None),
                Err(_) => return,
            }
        });
    }

    // Control handshake: Hello → Config → (connect links) → Ready → Start.
    let deadline = Instant::now() + Duration::from_secs(20);
    let (mut control, _) = connect_retry(opts.transport, &opts.control_addr, deadline)
        .map_err(|e| format!("dial control plane: {e}"))?;
    control
        .send(&Frame::Hello {
            node: opts.node,
            listen_addr,
        })
        .map_err(|e| e.to_string())?;
    let cfg: NodeConfig = match control.read_frame_within(Duration::from_secs(30), CLOSED)? {
        Frame::Config { payload } => {
            serde_json::from_str(&payload).map_err(|e| format!("bad NodeConfig: {e}"))?
        }
        other => return Err(format!("expected Config, got {other:?}")),
    };
    if cfg.node != opts.node {
        return Err(format!(
            "config for node {} sent to node {}",
            cfg.node, opts.node
        ));
    }
    let mut node = Node::new(cfg, opts.transport, Arc::clone(&counters));
    node.connect_calendar_links()?;
    control
        .send(&Frame::Ready { node: opts.node })
        .map_err(|e| e.to_string())?;
    match control.read_frame_within(Duration::from_secs(60), CLOSED)? {
        Frame::Start => {}
        Frame::Stop => return Ok(()), // orchestrator aborted before start
        other => return Err(format!("expected Start, got {other:?}")),
    }
    // Hand the control read half — and whatever arrived coalesced behind
    // `Start` — to a reader thread; keep the write half.
    let control_reader = control.split().map_err(|e| e.to_string())?;
    spawn_reader(
        control_reader,
        inbox_tx.clone(),
        Arc::clone(&counters),
        Some(Inbox::ControlClosed),
    );

    // Arm the silence windows now — slot 0 of the stream begins here.
    let start_ns = sys_ns();
    let watched: Vec<u32> = node.from_peer.keys().copied().collect();
    for subject in watched {
        node.detector.watch(subject, start_ns);
    }

    let t0 = Instant::now();
    let slot_micros = node.cfg.slot_micros.max(1);
    let max_slots = node.cfg.max_slots;
    node.execute_slot(0, &mut control, false);
    let mut slot: u64 = 0;
    let mut stopped = false;
    'main: loop {
        // Advance the slot clock from the wall clock, not from inbox
        // idleness: a steady inbound stream must never stall the
        // calendar (the boundary check runs before every wait).
        let boundary = |s: u64| t0 + Duration::from_micros(slot_micros.saturating_mul(s + 1));
        while Instant::now() >= boundary(slot) {
            slot += 1;
            if slot >= max_slots {
                break 'main;
            }
            // Still behind after advancing? Then this is a catch-up
            // burst with unprocessed arrivals queued — suspend suspect
            // polling so our own lag never reads as upstream silence.
            let lagging = Instant::now() >= boundary(slot);
            node.execute_slot(slot, &mut control, lagging);
        }
        let wait = boundary(slot).saturating_duration_since(Instant::now());
        match inbox_rx.recv_timeout(wait) {
            Ok(Inbox::Frame(frame)) => match frame {
                Frame::Packet { .. } => node.on_packet(&frame, &mut control),
                Frame::Nack { from, packet } => node.on_nack(from, packet),
                Frame::ScheduleUpdate { payload } => node.on_schedule_update(&payload),
                Frame::Stop => {
                    stopped = true;
                    break 'main;
                }
                // Start duplicates and control-plane frames addressed to
                // the orchestrator are ignored on a node.
                _ => {}
            },
            Ok(Inbox::ControlClosed) => break 'main,
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break 'main,
        }
    }

    node.finalize_report();
    let payload = serde_json::to_string(&node.report).map_err(|e| e.to_string())?;
    let _ = control.send(&Frame::Report { payload });
    if !stopped {
        // Horizon reached without Stop: linger briefly so the unsolicited
        // report is read before the socket drops.
        let linger = Instant::now() + Duration::from_secs(3);
        while Instant::now() < linger {
            match inbox_rx.recv_timeout(Duration::from_millis(50)) {
                Ok(Inbox::Frame(Frame::Stop)) | Ok(Inbox::ControlClosed) => break,
                Ok(_) => {}
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::LoweredRecv;

    fn node_options(argv: &str) -> Result<NodeOptions, String> {
        let argv: Vec<String> = argv.split_whitespace().map(str::to_string).collect();
        ArgMap::parse(&argv)
            .and_then(|args| NodeOptions::from_args(&args))
            .map_err(|e| e.to_string())
    }

    #[test]
    fn node_options_parse_from_the_orchestrator_command_line() {
        let opts =
            node_options("--node 3 --control 127.0.0.1:9 --transport uds --socket-dir /d").unwrap();
        assert_eq!(opts.node, 3);
        assert_eq!(opts.transport, Transport::Uds);
        assert_eq!(opts.control_addr, "127.0.0.1:9");
        assert_eq!(opts.socket_dir, PathBuf::from("/d"));
        let opts = node_options("--node 1 --control 127.0.0.1:9").unwrap();
        assert_eq!(opts.transport, Transport::Tcp);
        assert_eq!(opts.socket_dir, std::env::temp_dir());
    }

    #[test]
    fn node_options_errors_name_the_flag() {
        for (argv, want) in [
            (
                "--control 127.0.0.1:9",
                "usage error: missing required --node",
            ),
            (
                "--node 1 --control 127.0.0.1:9 --bogus 1",
                "usage error: unknown flag `--bogus`; valid options are: \
                 --node, --control, --transport, --socket-dir",
            ),
            (
                "--node 1 --control 127.0.0.1:9 --transport carrier-pigeon",
                "usage error: unknown --transport `carrier-pigeon`; valid options are: tcp, uds",
            ),
        ] {
            assert_eq!(node_options(argv).unwrap_err(), want, "{argv}");
        }
    }

    fn test_cfg(node: u32) -> NodeConfig {
        NodeConfig {
            node,
            n: 4,
            track: 4,
            max_slots: 100,
            slot_micros: 10,
            suspect_timeout_slots: 1,
            gap_slack_slots: 0,
            nack_retry_slots: 4,
            nack_max_attempts: 10,
            sends: vec![],
            expects: vec![
                LoweredRecv {
                    slot: 0,
                    from: 2,
                    packet: 0,
                },
                LoweredRecv {
                    slot: 0,
                    from: 2,
                    packet: 1,
                },
            ],
            peers: vec![],
            source_addr: String::new(),
            chaos: vec![],
            chaos_seed: 0,
            retransmit_budget_per_slot: 64,
        }
    }

    fn test_node(cfg: NodeConfig) -> (Node, Conn) {
        let counters = Arc::new(Counters::default());
        let node = Node::new(cfg, Transport::Uds, counters);
        let (a, b) = std::os::unix::net::UnixStream::pair().unwrap();
        // Leak the far end so suspect writes don't fail with EPIPE.
        std::mem::forget(b);
        (node, Conn::from(a))
    }

    /// A link whose peer hung up redials once and sends the frame again,
    /// whole, on the new connection; with nobody left to dial it is dead.
    #[test]
    fn a_link_redials_once_then_is_dead() {
        let dir = std::env::temp_dir().join(format!("clustream-link-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (listener, addr) = NetListener::bind(Transport::Uds, &dir, "peer.sock").unwrap();
        let counters = Arc::new(Counters::default());
        let deadline = Instant::now() + Duration::from_secs(5);
        let link = Link::open(Transport::Uds, &addr, Arc::clone(&counters), deadline).unwrap();
        let nack = Frame::Nack { from: 1, packet: 7 };

        drop(listener.accept().unwrap());
        link.enqueue(&counters, nack.clone(), 0);
        let mut redialled = listener.accept().unwrap();
        let (got, n) = read_frame(&mut redialled).unwrap().unwrap();
        assert_eq!(got, nack);
        assert_eq!(counters.reconnects.load(Ordering::Relaxed), 1);

        drop((redialled, listener));
        std::fs::remove_dir_all(&dir).unwrap();
        link.enqueue(&counters, nack, 0);
        while !link.dead.load(Ordering::Relaxed) {
            assert!(Instant::now() < deadline, "the link never gave up");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(counters.frames_sent.load(Ordering::Relaxed), 1);
        assert_eq!(counters.bytes_sent.load(Ordering::Relaxed), n as u64);
    }

    /// The satellite-fix regression: a node burning through a catch-up
    /// burst (its own calendar lag) must not read queued-but-unprocessed
    /// arrivals as upstream silence and raise false suspects. Suspect
    /// polling is gated on `lagging`; the same overdue state fires the
    /// moment the node catches up.
    #[test]
    fn lagging_nodes_do_not_raise_false_suspects() {
        let (mut node, mut control) = test_node(test_cfg(1));
        // Upstream 2 armed at wall-clock 0: silent for far longer than
        // the 10µs timeout, and it owes overdue packets.
        node.detector.watch(2, 0);
        node.execute_slot(5, &mut control, true);
        assert_eq!(
            node.report.suspects_reported, 0,
            "a lagging node must not suspect its senders"
        );
        node.execute_slot(6, &mut control, false);
        assert_eq!(
            node.report.suspects_reported, 1,
            "the same silence fires once the node has caught up"
        );
    }

    /// Duplicate NACKs inside the retry window are deduplicated; the
    /// per-slot retransmit budget defers the overflow. Both count into
    /// `nacks_suppressed` instead of amplifying.
    #[test]
    fn nack_dedup_and_budget_suppress_storms() {
        let mut cfg = test_cfg(0); // the source holds everything
        cfg.retransmit_budget_per_slot = 2;
        let (mut node, mut control) = test_node(cfg);
        node.execute_slot(1, &mut control, false);
        // Same (requester, packet) three times in one slot: served once.
        node.on_nack(3, 0);
        node.on_nack(3, 0);
        node.on_nack(3, 0);
        assert_eq!(node.report.retransmits_served, 1);
        assert_eq!(node.report.nacks_suppressed, 2);
        // Distinct requests past the budget of 2 are deferred.
        node.on_nack(3, 1);
        node.on_nack(3, 2);
        assert_eq!(node.report.retransmits_served, 2);
        assert_eq!(node.report.nacks_suppressed, 3);
        // The dedup window releases after nack_retry_slots.
        node.execute_slot(5, &mut control, false);
        node.on_nack(3, 0);
        assert_eq!(node.report.retransmits_served, 3);
    }

    /// A spliced calendar replaces everything at or past the barrier and
    /// rebuilds the expectation maps from the healed forest.
    #[test]
    fn schedule_update_splices_at_the_barrier() {
        let (mut node, mut control) = test_node(test_cfg(1));
        let upd = ScheduleUpdate {
            epoch: 1,
            barrier_slot: 10,
            sends: vec![crate::schedule::LoweredSend {
                slot: 0,
                to: 3,
                packet: 2,
            }],
            expects: vec![LoweredRecv {
                slot: 1,
                from: 4,
                packet: 0,
            }],
            peers: vec![],
        };
        node.on_schedule_update(&serde_json::to_string(&upd).unwrap());
        node.execute_slot(5, &mut control, false);
        assert_eq!(
            node.report.schedule_updates_applied, 0,
            "the barrier is still ahead"
        );
        node.execute_slot(10, &mut control, false);
        assert_eq!(node.report.schedule_updates_applied, 1);
        assert!(node.healed_mode);
        assert_eq!(node.expected.get(&0), Some(&(11, 4)), "rebased expects");
        assert!(node.from_peer.contains_key(&4));
        assert!(!node.from_peer.contains_key(&2), "old upstream dropped");
        // The rebased send at the barrier slot ran immediately; the
        // packet is not held, so it sits deferred awaiting arrival.
        assert!(
            node.pending.contains_key(&2),
            "healed send rebased and deferred"
        );
        // A stale epoch is ignored outright.
        node.on_schedule_update(&serde_json::to_string(&upd).unwrap());
        assert!(node.pending_update.is_none());
    }
}
