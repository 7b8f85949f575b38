//! The cluster orchestrator: spawn `clustream-node` processes, drive the
//! control plane, inject kills, and collect the run trace.
//!
//! One `run_cluster` call is a full experiment: lower the schedule
//! (mega slot engine), spawn `n + 1` local processes (node 0 is the
//! source), distribute per-node [`NodeConfig`]s, release the stream with
//! a synchronized `Start`, SIGKILL the scheduled victims at their slot
//! deadlines, tally `Suspect` frames into detection wall-clocks
//! ([`clustream_recovery::FailureDetector`] at a fixed watcher
//! threshold), and wait for every expected survivor's `Complete`. Child
//! processes are owned by a [`Reaper`] drop guard, so they are killed
//! and waited even when the orchestrator panics mid-run — `cargo test`
//! must never leak a node process.

use crate::faultspec::{format_chaos_spec, ChaosKind, ChaosSpec};
use crate::frame::{read_frame, Frame};
use crate::killspec::KillSpec;
use crate::schedule::{
    lower_schedule, lower_scheme_healed, NodeConfig, NodeReport, PeerAddr, ScheduleUpdate,
    SchemeParams,
};
use crate::trace::{KillObs, LinkObs, NodeDeliveries, RunTrace};
use crate::transport::{Conn, NetListener, Transport};
use clustream_core::{MembershipEvent, NodeId, Scheme};
use clustream_plan::{Family, SchemeSpec};
use clustream_recovery::{DynamicMultiTree, FailureDetector};
use clustream_telemetry::{names as tm, Telemetry};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::node::sys_ns;

/// Distinct watchers that must suspect a node before the orchestrator
/// calls it detected.
const SUSPECT_THRESHOLD: usize = 1;
/// Extra slots past the lowered horizon the nodes keep running (repair
/// headroom).
const HORIZON_SLACK: u64 = 64;
/// Slots between a node's NACK retries.
const NACK_RETRY_SLOTS: u64 = 6;
/// NACK attempts per packet before a node gives up.
const NACK_MAX_ATTEMPTS: u64 = 12;
/// Per-slot retransmit budget handed to every node.
const RETRANSMIT_BUDGET_PER_SLOT: u64 = 64;
/// Slots of headroom between the estimated current slot and the splice
/// barrier of a shipped schedule update.
const SPLICE_MARGIN_SLOTS: u64 = 8;

/// Parameters of one orchestrated cluster run.
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Receiver population (`n` node processes plus the source).
    pub nodes: u64,
    /// Socket family for every link.
    pub transport: Transport,
    /// Scheme to lower; `params.n` must equal `nodes`.
    pub params: SchemeParams,
    /// Tracked window (packets `0..track`).
    pub track: u64,
    /// Wall-clock slot length, microseconds.
    pub slot_micros: u64,
    /// Kill schedule (validated against the lowered horizon).
    pub kills: Vec<KillSpec>,
    /// Per-node silence horizon before suspecting, in slots.
    pub suspect_timeout_slots: u64,
    /// Slots past the expected arrival before the first NACK.
    pub gap_slack_slots: u64,
    /// Path to the `clustream-node` binary.
    pub node_bin: PathBuf,
    /// Chaos schedule injected into every node's outbound data path
    /// (empty = clean run).
    pub chaos: Vec<ChaosSpec>,
    /// Seed the per-node chaos policies draw their decisions from.
    pub chaos_seed: u64,
    /// Repair confirmed failures live: remove the subject from a
    /// [`DynamicMultiTree`], re-lower the healed forest and ship
    /// [`ScheduleUpdate`] frames to every survivor. Multitree only.
    pub repair: bool,
    /// Telemetry sink for aggregated transport counters.
    pub telemetry: Telemetry,
}

impl ClusterOptions {
    /// Defaults for an `n`-receiver multi-tree run with no kills.
    pub fn new(nodes: u64, node_bin: PathBuf) -> ClusterOptions {
        ClusterOptions {
            nodes,
            transport: Transport::Tcp,
            params: SchemeParams {
                family: "multitree".into(),
                n: nodes,
                d: 2,
            },
            track: 24,
            slot_micros: 5_000,
            kills: Vec::new(),
            suspect_timeout_slots: 8,
            gap_slack_slots: 4,
            node_bin,
            chaos: Vec::new(),
            chaos_seed: 0,
            repair: false,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// What happened to one scheduled kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillOutcome {
    /// The victim.
    pub node: u32,
    /// Requested kill slot.
    pub slot: u64,
    /// Wall clock when the SIGKILL was delivered, UNIX nanoseconds.
    pub kill_ns: u64,
    /// Wall clock when `SUSPECT_THRESHOLD` distinct watchers had
    /// suspected the victim; `None` if never detected.
    pub detection_ns: Option<u64>,
    /// Wall clock of the last survivor `Complete` at or after the kill —
    /// the moment the stream was whole again; `None` if survivors did
    /// not all complete.
    pub repair_ns: Option<u64>,
}

impl KillOutcome {
    /// Detection latency in milliseconds, if detected.
    pub fn detection_ms(&self) -> Option<f64> {
        self.detection_ns
            .map(|d| d.saturating_sub(self.kill_ns) as f64 / 1e6)
    }

    /// Repair latency in milliseconds, if repaired.
    pub fn repair_ms(&self) -> Option<f64> {
        self.repair_ns
            .map(|r| r.saturating_sub(self.kill_ns) as f64 / 1e6)
    }
}

/// One live in-network repair: a confirmed failure healed structurally
/// by re-lowering the forest and shipping spliced calendars to the
/// survivors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairEvent {
    /// The confirmed-failed node the forest healed around.
    pub subject: u32,
    /// Repair generation carried by the shipped updates.
    pub epoch: u64,
    /// Wall clock when the detector confirmed the subject, UNIX ns.
    pub confirmed_ns: u64,
    /// Wall clock when the last survivor's update was on the wire.
    pub dispatch_ns: u64,
    /// Barrier slot every survivor splices the healed calendar at.
    pub barrier_slot: u64,
    /// Survivors an update was shipped to.
    pub survivors_updated: u64,
    /// Wall clock of the earliest post-splice delivery that filled a
    /// missing packet anywhere in the cluster; `None` if no survivor
    /// was missing anything (or none reported one).
    pub first_healed_ns: Option<u64>,
}

impl RepairEvent {
    /// Confirm-to-dispatch latency (healing + re-lowering + shipping),
    /// milliseconds.
    pub fn dispatch_ms(&self) -> f64 {
        self.dispatch_ns.saturating_sub(self.confirmed_ns) as f64 / 1e6
    }

    /// Confirm-to-first-healed-delivery latency, milliseconds.
    pub fn first_healed_ms(&self) -> Option<f64> {
        self.first_healed_ns
            .map(|h| h.saturating_sub(self.confirmed_ns) as f64 / 1e6)
    }
}

/// Everything a cluster run produced.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Final per-node reports, sorted by node id (killed nodes absent).
    pub reports: Vec<NodeReport>,
    /// Per-kill wall-clock accounting.
    pub kills: Vec<KillOutcome>,
    /// Live repairs dispatched (empty unless `repair` was on and a
    /// failure was confirmed).
    pub repairs: Vec<RepairEvent>,
    /// Survivors that reported `Complete`.
    pub completed: u64,
    /// Survivors expected to complete (receivers minus victims).
    pub expected_complete: u64,
    /// Wall clock of the whole run (Start to last event), nanoseconds.
    pub wall_ns: u64,
    /// The recorded trace, replayable via [`crate::trace::replay_in_des`].
    pub trace: RunTrace,
    /// PIDs of every spawned child (all reaped by return time).
    pub child_pids: Vec<u32>,
}

/// Drop guard owning the spawned node processes: whatever way the
/// orchestrator exits — success, error return, or panic — every child is
/// SIGKILLed and waited, so no test run leaks processes.
#[derive(Debug, Default)]
pub struct Reaper {
    children: Vec<(u32, Option<Child>)>,
}

impl Reaper {
    /// An empty guard.
    pub fn new() -> Reaper {
        Reaper::default()
    }

    /// Take ownership of `child`, spawned for `node`.
    pub fn push(&mut self, node: u32, child: Child) {
        self.children.push((node, Some(child)));
    }

    /// PIDs of every child ever pushed, in push order.
    pub fn pids(&self) -> Vec<u32> {
        self.children
            .iter()
            .filter_map(|(_, c)| c.as_ref().map(Child::id))
            .collect()
    }

    /// SIGKILL and reap `node` now. No-op if already reaped.
    pub fn kill(&mut self, node: u32) {
        for (id, slot) in &mut self.children {
            if *id == node {
                if let Some(mut child) = slot.take() {
                    let _ = child.kill();
                    let _ = child.wait();
                }
            }
        }
    }

    /// Reap children that exited on their own; SIGKILL the rest after
    /// `grace`.
    pub fn wait_all(&mut self, grace: Duration) {
        let deadline = Instant::now() + grace;
        loop {
            let mut alive = false;
            for (_, slot) in &mut self.children {
                if let Some(child) = slot {
                    match child.try_wait() {
                        Ok(Some(_)) => *slot = None,
                        Ok(None) => alive = true,
                        Err(_) => *slot = None,
                    }
                }
            }
            if !alive || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        for (_, slot) in &mut self.children {
            if let Some(mut child) = slot.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

impl Drop for Reaper {
    fn drop(&mut self) {
        for (_, slot) in &mut self.children {
            if let Some(mut child) = slot.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

/// Unique-per-call suffix for the run's socket directory.
static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// One frame read off a node's control connection.
type ControlEvent = (u32, Frame);

/// What a node's control link that closes during setup reads as.
const CLOSED: &str = "control connection closed";

/// `slots` of `slot_us` µs each, in µs; an error naming `what` when the
/// count (`None`) or the product overflows u64.
fn wall_us(slots: Option<u64>, slot_us: u64, what: std::fmt::Arguments) -> Result<u64, String> {
    slots
        .and_then(|slots| slots.checked_mul(slot_us))
        .ok_or_else(|| format!("{what} overflows u64 at {slot_us} µs per slot"))
}

/// Run a full orchestrated cluster experiment. See the module docs.
pub fn run_cluster(opts: &ClusterOptions) -> Result<ClusterOutcome, String> {
    let n = opts.nodes;
    if n == 0 {
        return Err("a cluster needs at least one receiver".into());
    }
    if opts.params.n != n {
        return Err(format!(
            "scheme population {} does not match --nodes {n}",
            opts.params.n
        ));
    }
    let lowered = lower_schedule(&opts.params, opts.track)?;
    // Slot counts become wall time here (the run deadline, 4× the horizon,
    // which also bounds every kill's due time) and in every node (chaos
    // delays): each product must fit u64 microseconds.
    let slot_us = opts.slot_micros.max(1);
    let max_slots = lowered.slots_run + HORIZON_SLACK;
    let deadline_us = wall_us(
        max_slots.checked_mul(4),
        slot_us,
        format_args!(
            "the run deadline, 4 × ({} + {HORIZON_SLACK}) slots,",
            lowered.slots_run
        ),
    )?;
    for k in &opts.kills {
        if u64::from(k.node) > n {
            return Err(format!(
                "kill target {} is outside the population 1..={n}",
                k.node
            ));
        }
        if k.slot >= lowered.slots_run {
            return Err(format!(
                "kill slot {} is past the schedule horizon {} — the stream \
                 would already be complete",
                k.slot, lowered.slots_run
            ));
        }
    }
    for c in &opts.chaos {
        let spec = format_chaos_spec(std::slice::from_ref(c));
        for node in c.nodes() {
            if u64::from(node) > n {
                return Err(format!(
                    "chaos target {node} in `{spec}` is outside the population 0..={n}"
                ));
            }
        }
        let delay = match c.kind {
            ChaosKind::Delay {
                slots,
                jitter_slots,
            } => slots.checked_add(jitter_slots),
            ChaosKind::Gray { slots } => Some(slots),
            _ => Some(0),
        };
        wall_us(delay, slot_us, format_args!("the delay of chaos `{spec}`"))?;
    }
    if opts.repair && opts.params.family != "multitree" {
        return Err(format!(
            "live repair only heals the multitree family, not `{}`",
            opts.params.family
        ));
    }

    // Scratch directory for Unix sockets (harmless under TCP).
    let dir = std::env::temp_dir().join(format!(
        "clustream-cluster-{}-{}",
        std::process::id(),
        RUN_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let result = run_cluster_in(opts, &lowered, max_slots, deadline_us, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_cluster_in(
    opts: &ClusterOptions,
    lowered: &crate::schedule::LoweredSchedule,
    max_slots: u64,
    deadline_us: u64,
    dir: &std::path::Path,
) -> Result<ClusterOutcome, String> {
    let n = opts.nodes;
    let (control_listener, control_addr) =
        NetListener::bind(opts.transport, dir, "control.sock").map_err(|e| e.to_string())?;

    // Spawn the source and every receiver under the reaper.
    let mut reaper = Reaper::new();
    for node in 0..=n as u32 {
        let child = Command::new(&opts.node_bin)
            .arg("--node")
            .arg(node.to_string())
            .arg("--control")
            .arg(&control_addr)
            .arg("--transport")
            .arg(opts.transport.label())
            .arg("--socket-dir")
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", opts.node_bin.display()))?;
        reaper.push(node, child);
    }
    let child_pids = reaper.pids();

    // Accept every Hello within the handshake deadline.
    control_listener
        .set_nonblocking(true)
        .map_err(|e| e.to_string())?;
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut controls: BTreeMap<u32, crate::transport::Conn> = BTreeMap::new();
    let mut data_addrs: BTreeMap<u32, String> = BTreeMap::new();
    while controls.len() < (n + 1) as usize {
        match control_listener.accept() {
            Ok(mut conn) => match conn.read_frame_within(Duration::from_secs(10), CLOSED)? {
                Frame::Hello { node, listen_addr } => {
                    data_addrs.insert(node, listen_addr);
                    controls.insert(node, conn);
                }
                other => return Err(format!("expected Hello, got {other:?}")),
            },
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    return Err(format!(
                        "only {}/{} nodes reported in before the handshake deadline",
                        controls.len(),
                        n + 1
                    ));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(format!("accept control connection: {e}")),
        }
    }

    // Distribute configs and collect Ready.
    let source_addr = data_addrs
        .get(&0)
        .cloned()
        .ok_or("the source never said Hello")?;
    for node in 0..=n as u32 {
        let sends = lowered.sends.get(&node).cloned().unwrap_or_default();
        let expects = lowered.expects.get(&node).cloned().unwrap_or_default();
        // The source learns every receiver's address (NACK replies dial
        // lazily); receivers only their scheduled downstream peers.
        let peer_ids: BTreeSet<u32> = if node == 0 {
            (1..=n as u32).collect()
        } else {
            sends.iter().map(|s| s.to).collect()
        };
        let peers: Vec<PeerAddr> = peer_ids
            .iter()
            .filter_map(|id| {
                data_addrs.get(id).map(|addr| PeerAddr {
                    node: *id,
                    addr: addr.clone(),
                })
            })
            .collect();
        let cfg = NodeConfig {
            node,
            n,
            track: opts.track,
            max_slots,
            slot_micros: opts.slot_micros,
            suspect_timeout_slots: opts.suspect_timeout_slots,
            gap_slack_slots: opts.gap_slack_slots,
            nack_retry_slots: NACK_RETRY_SLOTS,
            nack_max_attempts: NACK_MAX_ATTEMPTS,
            sends,
            expects,
            peers,
            source_addr: if node == 0 {
                String::new()
            } else {
                source_addr.clone()
            },
            chaos: opts.chaos.clone(),
            chaos_seed: opts.chaos_seed,
            retransmit_budget_per_slot: RETRANSMIT_BUDGET_PER_SLOT,
        };
        let payload = serde_json::to_string(&cfg).map_err(|e| e.to_string())?;
        let conn = controls.get_mut(&node).expect("accepted above");
        conn.send(&Frame::Config { payload })
            .map_err(|e| format!("send config to node {node}: {e}"))?;
    }
    for (node, conn) in controls.iter_mut() {
        match conn.read_frame_within(Duration::from_secs(20), CLOSED)? {
            Frame::Ready { node: who } if who == *node => {}
            other => return Err(format!("expected Ready from node {node}, got {other:?}")),
        }
    }

    // Hand each control conn's read half to a reader thread; release.
    let (ev_tx, ev_rx) = mpsc::channel::<ControlEvent>();
    for (node, conn) in controls.iter_mut() {
        let mut rd = conn.split().map_err(|e| e.to_string())?;
        let tx = ev_tx.clone();
        let node = *node;
        std::thread::spawn(move || loop {
            match read_frame(&mut rd) {
                Ok(Some((frame, _))) => {
                    if tx.send((node, frame)).is_err() {
                        return;
                    }
                }
                Ok(None) | Err(_) => return,
            }
        });
    }
    drop(ev_tx);

    let t0 = Instant::now();
    let start_ns = sys_ns();
    for conn in controls.values_mut() {
        conn.send(&Frame::Start).map_err(|e| e.to_string())?;
    }

    // The stream runs; kills fire at their slot deadlines (a kill slot is
    // below the horizon, so its product with the slot length fits).
    let slot_due = |slot: u64| t0 + Duration::from_micros(slot * opts.slot_micros.max(1));
    let mut kill_queue: Vec<KillSpec> = opts.kills.clone();
    kill_queue.sort_by_key(|k| k.slot);
    let mut kill_outcomes: Vec<KillOutcome> = Vec::new();
    let killed: BTreeSet<u32> = kill_queue.iter().map(|k| k.node).collect();
    let expected_complete = n - killed.len() as u64;
    // Node ids are 0..=n; a `Suspect` frame naming any other subject is
    // ignored by the detector, never tallied.
    let mut detector = FailureDetector::new(n as usize + 1, SUSPECT_THRESHOLD, 0);
    let mut completions: BTreeMap<u32, u64> = BTreeMap::new();
    let mut reports: BTreeMap<u32, NodeReport> = BTreeMap::new();
    // Live repair: the healing forest persists across the run so repeated
    // failures compose; `repaired` guards one repair per subject.
    let mut healer: Option<DynamicMultiTree> = if opts.repair {
        Some(
            SchemeSpec::new(Family::MultiTree, n as usize, opts.params.d as usize)
                .dynamic(None)
                .map_err(|e| format!("build healing forest: {e}"))?,
        )
    } else {
        None
    };
    let mut repaired: BTreeSet<u32> = BTreeSet::new();
    let mut repair_events: Vec<RepairEvent> = Vec::new();
    // Generous overall deadline: 4× the nominal stream plus repair slack.
    let overall = Duration::from_secs(10).max(Duration::from_micros(deadline_us));
    let run_deadline = Instant::now() + overall;
    let mut next_kill = 0usize;

    loop {
        if completions.len() as u64 >= expected_complete && next_kill >= kill_queue.len() {
            break;
        }
        if Instant::now() > run_deadline {
            break;
        }
        // Fire every kill whose slot deadline has passed.
        while next_kill < kill_queue.len() {
            let k = kill_queue[next_kill];
            if Instant::now() < slot_due(k.slot) {
                break;
            }
            reaper.kill(k.node);
            kill_outcomes.push(KillOutcome {
                node: k.node,
                slot: k.slot,
                kill_ns: sys_ns(),
                detection_ns: None,
                repair_ns: None,
            });
            next_kill += 1;
        }
        let wait = if next_kill < kill_queue.len() {
            slot_due(kill_queue[next_kill].slot)
                .saturating_duration_since(Instant::now())
                .min(Duration::from_millis(50))
        } else {
            Duration::from_millis(50)
        };
        match ev_rx.recv_timeout(wait) {
            Ok((from, frame)) => match frame {
                Frame::Suspect { subject, .. } => {
                    detector.suspect(from, subject);
                    if detector.confirm(subject) {
                        let now = sys_ns();
                        for ko in kill_outcomes.iter_mut() {
                            if ko.node == subject && ko.detection_ns.is_none() {
                                ko.detection_ns = Some(now);
                            }
                        }
                        if subject != 0 && repaired.insert(subject) {
                            if let Some(h) = healer.as_mut() {
                                // Dead set: everything confirmed so far plus
                                // every scheduled victim already killed.
                                let mut dead = repaired.clone();
                                for k in kill_queue.iter().take(next_kill) {
                                    dead.insert(k.node);
                                }
                                match dispatch_repair(
                                    h,
                                    subject,
                                    repair_events.len() as u64 + 1,
                                    opts,
                                    max_slots,
                                    t0,
                                    &data_addrs,
                                    &mut controls,
                                    &dead,
                                ) {
                                    Ok(mut ev) => {
                                        ev.confirmed_ns = now;
                                        repair_events.push(ev);
                                    }
                                    Err(e) => {
                                        // A refused heal (forest would empty)
                                        // or a dead control conn must not
                                        // abort the run; record nothing.
                                        let _ = e;
                                    }
                                }
                            }
                        }
                    }
                }
                Frame::Complete { node, at_ns } => {
                    completions.insert(node, at_ns);
                }
                Frame::Report { payload } => {
                    if let Ok(report) = serde_json::from_str::<NodeReport>(&payload) {
                        reports.insert(report.node, report);
                    }
                }
                _ => {}
            },
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    let wall_ns = sys_ns().saturating_sub(start_ns);

    // Stop everyone still alive and drain their final reports.
    for (node, conn) in controls.iter_mut() {
        if !killed.contains(node) {
            let _ = conn.send(&Frame::Stop);
        }
    }
    let report_deadline = Instant::now() + Duration::from_secs(10);
    while reports.len() < (n + 1 - killed.len() as u64) as usize {
        let left = report_deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        match ev_rx.recv_timeout(left.min(Duration::from_millis(100))) {
            Ok((_, Frame::Report { payload })) => {
                if let Ok(report) = serde_json::from_str::<NodeReport>(&payload) {
                    reports.insert(report.node, report);
                }
            }
            Ok((node, Frame::Complete { node: who, at_ns })) => {
                let _ = node;
                completions.insert(who, at_ns);
            }
            Ok(_) => {}
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    reaper.wait_all(Duration::from_secs(5));

    // Repair wall-clock: the last survivor completion at or after each kill.
    for ko in kill_outcomes.iter_mut() {
        let all_done = completions.len() as u64 >= expected_complete;
        if all_done {
            ko.repair_ns = completions
                .values()
                .copied()
                .filter(|&c| c >= ko.kill_ns)
                .max()
                .or(Some(ko.kill_ns));
        }
    }

    let reports: Vec<NodeReport> = reports.into_values().collect();
    // The earliest post-splice gap-filling delivery anywhere closes the
    // detection→repair→first-healed-delivery wall-clock chain.
    let first_healed = reports
        .iter()
        .map(|r| r.first_healed_delivery_ns)
        .filter(|&x| x > 0)
        .min();
    for ev in repair_events.iter_mut() {
        ev.first_healed_ns = first_healed.filter(|&h| h >= ev.dispatch_ns);
    }
    record_telemetry(&opts.telemetry, &reports);
    let trace = assemble_trace(opts, max_slots, &kill_outcomes, &reports);
    Ok(ClusterOutcome {
        reports,
        kills: kill_outcomes,
        repairs: repair_events,
        completed: completions.len() as u64,
        expected_complete,
        wall_ns,
        trace,
        child_pids,
    })
}

/// Heal the forest around a confirmed-failed `subject`, re-lower the
/// healed schedule and ship one [`ScheduleUpdate`] per survivor over its
/// control connection. Returns the event with `confirmed_ns` left for
/// the caller to stamp. Errors only when the forest refuses the heal
/// (it would empty) or the healed schedule cannot be lowered; a single
/// dead control connection just lowers `survivors_updated`.
#[allow(clippy::too_many_arguments)]
fn dispatch_repair(
    healer: &mut DynamicMultiTree,
    subject: u32,
    epoch: u64,
    opts: &ClusterOptions,
    max_slots: u64,
    t0: Instant,
    data_addrs: &BTreeMap<u32, String>,
    controls: &mut BTreeMap<u32, Conn>,
    dead: &BTreeSet<u32>,
) -> Result<RepairEvent, String> {
    healer
        .membership_event(NodeId(subject), MembershipEvent::Failed)
        .ok_or_else(|| format!("forest refused to heal around node {subject}"))?;
    let dead_list: Vec<u32> = dead.iter().copied().collect();
    let lowered = lower_scheme_healed(healer, opts.track, &dead_list, max_slots)?;
    let n = opts.nodes;
    // Barrier: past every survivor's current slot (estimated from the
    // shared Start instant) plus margin for control-plane latency, so
    // all survivors splice at the same calendar position.
    let elapsed_us = t0.elapsed().as_micros() as u64;
    let barrier_slot = elapsed_us / opts.slot_micros.max(1) + SPLICE_MARGIN_SLOTS;
    let mut survivors_updated = 0u64;
    for node in 0..=n as u32 {
        if node != 0 && dead.contains(&node) {
            continue;
        }
        let sends = lowered.sends.get(&node).cloned().unwrap_or_default();
        let expects = lowered.expects.get(&node).cloned().unwrap_or_default();
        let peer_ids: BTreeSet<u32> = if node == 0 {
            (1..=n as u32).filter(|id| !dead.contains(id)).collect()
        } else {
            sends.iter().map(|s| s.to).collect()
        };
        let peers: Vec<PeerAddr> = peer_ids
            .iter()
            .filter_map(|id| {
                data_addrs.get(id).map(|addr| PeerAddr {
                    node: *id,
                    addr: addr.clone(),
                })
            })
            .collect();
        let upd = ScheduleUpdate {
            epoch,
            barrier_slot,
            sends,
            expects,
            peers,
        };
        let payload = serde_json::to_string(&upd).map_err(|e| e.to_string())?;
        if let Some(conn) = controls.get_mut(&node) {
            if conn.send(&Frame::ScheduleUpdate { payload }).is_ok() {
                survivors_updated += 1;
            }
        }
    }
    Ok(RepairEvent {
        subject,
        epoch,
        confirmed_ns: 0,
        dispatch_ns: sys_ns(),
        barrier_slot,
        survivors_updated,
        first_healed_ns: None,
    })
}

/// Fold per-node transport counters into the telemetry sink.
fn record_telemetry(tel: &Telemetry, reports: &[NodeReport]) {
    if !tel.enabled() {
        return;
    }
    for r in reports {
        tel.counter(tm::NET_FRAMES_SENT, r.frames_sent);
        tel.counter(tm::NET_FRAMES_RECEIVED, r.frames_received);
        tel.counter(tm::NET_BYTES_SENT, r.bytes_sent);
        tel.counter(tm::NET_BYTES_RECEIVED, r.bytes_received);
        tel.counter(tm::NET_RECONNECTS, r.reconnects);
        tel.counter(tm::NET_NACKS, r.nacks_sent);
        tel.counter(tm::NET_RETRANSMITS, r.retransmits_served);
        tel.counter(tm::NET_CHAOS_DROPS, r.chaos_drops);
        tel.counter(tm::NET_CHAOS_DUPS, r.chaos_dups);
        tel.counter(tm::NET_CHAOS_REORDERS, r.chaos_reorders);
        tel.counter(tm::NET_CHAOS_DELAYS, r.chaos_delays);
        tel.counter(tm::NET_CHAOS_PARTITION_DROPS, r.chaos_partition_drops);
        tel.counter(tm::NET_NACKS_SUPPRESSED, r.nacks_suppressed);
        tel.counter(tm::NET_REPAIR_SCHEDULE_UPDATES, r.schedule_updates_applied);
        if r.schedule_updates_applied > 0 {
            tel.observe(tm::NET_REPAIR_SPLICE_LAG_US, r.splice_lag_us);
        }
        tel.gauge_max(tm::NET_SEND_QUEUE_HIGH_WATER, r.send_queue_high_water);
        for a in &r.arrivals {
            let us = a.recv_ns.saturating_sub(a.sent_ns) / 1_000;
            tel.observe(tm::NET_LINK_LATENCY_US, us);
        }
    }
}

/// Build the replayable [`RunTrace`] from the survivors' observations.
fn assemble_trace(
    opts: &ClusterOptions,
    max_slots: u64,
    kills: &[KillOutcome],
    reports: &[NodeReport],
) -> RunTrace {
    let mut trace = RunTrace {
        params: opts.params.clone(),
        track: opts.track,
        max_slots,
        slot_micros: opts.slot_micros,
        links: Vec::new(),
        kills: kills
            .iter()
            .map(|k| KillObs {
                node: k.node,
                slot: k.slot,
            })
            .collect(),
        chaos: opts.chaos.clone(),
        chaos_seed: opts.chaos_seed,
        deliveries: Vec::new(),
    };
    // Deliveries include every arrival (calendar, retransmit, healed):
    // they are what the node actually played back.
    for r in reports {
        if r.node == 0 {
            continue;
        }
        let mut packets: Vec<(u64, u64)> =
            r.arrivals.iter().map(|a| (a.recv_ns, a.packet)).collect();
        packets.sort_unstable();
        trace.deliveries.push(NodeDeliveries {
            node: r.node,
            packets: packets.into_iter().map(|(_, p)| p).collect(),
        });
    }
    let chaos_run = reports.iter().any(|r| !r.calendar_sends.is_empty());
    if chaos_run {
        // Sender-ledger assembly: every sender logged its pre-splice
        // calendar sends in order, including the copies chaos ate. Pair
        // each delivered entry with the receiver's first-copy arrival of
        // that packet — by packet id, not FIFO position: a lowered
        // calendar may carry redundant copies of one packet on two
        // links, and the receiver records only whichever landed first
        // (the redundant copy borrows the first copy's latency).
        let mut first_copy: BTreeMap<u32, BTreeMap<u64, u64>> = BTreeMap::new();
        for r in reports {
            let per_packet = first_copy.entry(r.node).or_default();
            for a in &r.arrivals {
                if !a.retransmit && !a.healed {
                    per_packet
                        .entry(a.packet)
                        .or_insert_with(|| trace.ns_to_ticks(a.recv_ns.saturating_sub(a.sent_ns)));
                }
            }
        }
        for r in reports {
            for cs in &r.calendar_sends {
                let ticks = (!cs.dropped)
                    .then(|| {
                        first_copy
                            .get(&cs.to)
                            .and_then(|m| m.get(&cs.packet))
                            .copied()
                    })
                    .flatten();
                trace.links.push(match ticks {
                    Some(ticks) => LinkObs {
                        from: r.node,
                        to: cs.to,
                        ticks,
                        dropped: false,
                    },
                    // Chaos ate it, or it left the sender and the
                    // receiver never reported it arriving (killed
                    // mid-flight): either way the wire lost this copy.
                    None => LinkObs {
                        from: r.node,
                        to: cs.to,
                        ticks: 0,
                        dropped: true,
                    },
                });
            }
        }
    } else {
        // Clean runs record no sender ledger: receiver-driven assembly,
        // per-link samples in arrival order (= send order per FIFO
        // stream). Retransmissions and healed deliveries are repair
        // traffic, not calendar traffic.
        let mut link_obs: Vec<(u64, LinkObs)> = Vec::new();
        for r in reports {
            if r.node == 0 {
                continue;
            }
            for a in &r.arrivals {
                if !a.retransmit && !a.healed {
                    link_obs.push((
                        a.recv_ns,
                        LinkObs {
                            from: a.from,
                            to: r.node,
                            ticks: trace.ns_to_ticks(a.recv_ns.saturating_sub(a.sent_ns)),
                            dropped: false,
                        },
                    ));
                }
            }
        }
        link_obs.sort_by_key(|(recv_ns, _)| *recv_ns);
        trace.links = link_obs.into_iter().map(|(_, l)| l).collect();
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_default_to_a_consistent_population() {
        let o = ClusterOptions::new(16, PathBuf::from("/bin/true"));
        assert_eq!(o.params.n, 16);
        assert_eq!(o.transport, Transport::Tcp);
        assert!(o.kills.is_empty());
    }

    #[test]
    fn population_mismatch_is_rejected() {
        let mut o = ClusterOptions::new(8, PathBuf::from("/bin/true"));
        o.params.n = 9;
        let err = run_cluster(&o).unwrap_err();
        assert!(err.contains("does not match"), "{err}");
    }

    #[test]
    fn out_of_range_kills_are_rejected() {
        let mut o = ClusterOptions::new(8, PathBuf::from("/bin/true"));
        o.kills = vec![KillSpec { node: 9, slot: 1 }];
        let err = run_cluster(&o).unwrap_err();
        assert!(err.contains("outside the population"), "{err}");

        o.kills = vec![KillSpec {
            node: 3,
            slot: 1_000_000,
        }];
        let err = run_cluster(&o).unwrap_err();
        assert!(err.contains("past the schedule horizon"), "{err}");
    }

    #[test]
    fn slot_counts_whose_wall_time_overflows_are_rejected() {
        let reject = |edit: &dyn Fn(&mut ClusterOptions), needle: &str| {
            let mut o = ClusterOptions::new(8, PathBuf::from("/bin/true"));
            edit(&mut o);
            let err = run_cluster(&o).unwrap_err();
            assert!(err.contains(needle), "{err}");
        };
        reject(&|o| o.slot_micros = u64::MAX / 4, "the run deadline");
        for chaos in [
            "delay:1@0=18446744073709551615",
            "delay:1@0=1~18446744073709551615",
            "gray:1@0=4611686018427387904",
        ] {
            let chaos = crate::faultspec::parse_chaos_spec(chaos).unwrap();
            reject(&|o| o.chaos = chaos.clone(), "the delay of chaos");
        }
    }

    #[test]
    fn reaper_kills_children_on_drop() {
        let mut reaper = Reaper::new();
        let child = Command::new("sleep")
            .arg("30")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn sleep");
        let pid = child.id();
        reaper.push(1, child);
        assert_eq!(reaper.pids(), vec![pid]);
        drop(reaper);
        // After the drop the PID must be gone (or a zombie already reaped
        // — /proc/<pid> disappears once waited).
        assert!(
            !std::path::Path::new(&format!("/proc/{pid}")).exists(),
            "child {pid} survived the reaper"
        );
    }

    #[test]
    fn reaper_reaps_even_when_the_holder_panics() {
        let child = Command::new("sleep")
            .arg("30")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn sleep");
        let pid = child.id();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let mut reaper = Reaper::new();
            reaper.push(1, child);
            panic!("orchestrator exploded");
        }));
        assert!(result.is_err());
        assert!(
            !std::path::Path::new(&format!("/proc/{pid}")).exists(),
            "child {pid} leaked through a panic"
        );
    }

    #[test]
    fn wait_all_reaps_fast_exits_without_killing() {
        let mut reaper = Reaper::new();
        let child = Command::new("true")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn true");
        reaper.push(1, child);
        reaper.wait_all(Duration::from_secs(5));
        // Nothing to assert beyond "returns promptly and drop is clean".
    }
}
