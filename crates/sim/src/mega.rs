//! Scale-oriented execution mode: precompiled transmission tables and
//! in-run sharding over the kernel's columnar holdings.
//!
//! [`MegaEngine`] is the production slot engine, built for runs with
//! 10^5–10^6 nodes. It produces **bit-identical** [`RunResult`]s (and
//! identical errors) to the reference [`crate::Simulator`] — the
//! differential harness in [`crate::diff`] holds the engines to one
//! contract — while restructuring the hot loop around two ideas. Both
//! work on the slot kernel's one holdings store (module `kernel`):
//! `stride` words per node in one flat array, with per-node spill rows
//! for sequence numbers past its memory budget, so a steady-state
//! delivery is one word operation and range-sharded workers borrow
//! disjoint row windows with `split_at_mut`.
//!
//! 1. **Precompiled flat transmission tables.** A scheme declaring
//!    [`SchedulePeriod`] has its steady-state schedule lowered once
//!    into dense per-residue `(sender, receiver, packet, latency)`
//!    arrays. Before the run, the engine generates one period of the
//!    schedule ahead (`[warmup, warmup + period)`), **verifies** that
//!    the next period repeats it with the declared packet delta, and
//!    proves statically what admitting it would check. It then
//!    generates the ramp `0..warmup` and compares each slot with its
//!    residue's list *clipped at packet 0* (the sends that would carry
//!    a negative packet id removed): the run hands off at `h = 0` when
//!    every ramp slot is the clipped table, at `h = warmup` otherwise.
//!    Slots `[0, h)` run in full mode (the kernel's slot loop); from
//!    `h` on the table is replayed with no per-slot scheme dispatch, no
//!    per-transmission validation and no arrival-ring traffic. Two
//!    residual word-level checks remain per replayed send (the sender
//!    still holds the packet; no collision with a ramp-phase in-flight
//!    arrival); any
//!    violation aborts the replay and re-runs the whole simulation in
//!    full mode, so a wrong declaration that slips past verification
//!    but trips a check degrades performance, never correctness.
//! 2. **In-run sharding.** With `shards = k`, steady-state slots are
//!    partitioned into `k` contiguous id ranges following
//!    [`Scheme::shard_boundaries`] — for cluster sessions, exactly the
//!    paper's clusters. Workers claim shards through the same
//!    `ClaimCounter` work-claiming idiom as [`crate::sweep`];
//!    traffic whose sender and receiver fall in one shard is applied by
//!    that shard's worker, and the remainder — the backbone super-node
//!    traffic — is applied by the coordinator in a sequential exchange
//!    phase between barrier waits. Every write is either shard-local or
//!    coordinator-sequential and every shared counter is additive, so
//!    `shards = k` is bit-identical to `shards = 1` at any `k`.
//!
//! Ramp slots before the hand-off, runs under a fault plan that can
//! drop a transmission (anything but [`FaultPlan::reports_only`]), and
//! schemes without a declared period run in full mode: the slot
//! kernel's `deliver` → `dispatch` → `admit` loop (module `kernel`).

use crate::engine::{RunResult, SimConfig};
use crate::faults::FaultPlan;
use crate::kernel::{check_ends, record_slot_deliveries, ColumnarHeld, Kernel, PacketSet, Run};
use crate::metrics::TrafficStats;
use crate::parallel::ClaimCounter;
use crate::playback::{ArrivalTable, CellsMut};
use clustream_core::{
    CoreError, NodeId, PacketId, SchedulePeriod, Scheme, Slot, StateView, Transmission,
};
use clustream_telemetry::names as tm;
use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Minimum number of steady slots a sharded chunk should cover before
/// the coordinator pauses the workers to re-layout the columnar state.
const CHUNK_MIN_SLOTS: u64 = 4096;

/// Slots the analytic gear replays per pass over the table: the size of
/// its per-slot delivery tally (8 KiB), so a fixed-horizon run's tally
/// does not grow with the horizon.
const TALLY_WINDOW: usize = 1024;

/// One delivery in the lowered table, keyed by arrival residue
/// `(j + latency − 1) mod period`; `j` is the send residue.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct ArrEntry {
    from: u32,
    to: u32,
    packet0: u64,
    latency: u32,
    /// `packet0 mod period`, the receiver's residue class this entry
    /// fills.
    class: u32,
    j: u64,
}

impl ArrEntry {
    /// `(to, class)` packed: the order the table lays its deliveries out
    /// in, and equal for two entries that may deliver one packet twice.
    fn key(&self) -> u64 {
        u64::from(self.to) << 32 | u64::from(self.class)
    }

    /// The seq this entry sends at slot `s` of its progression (`s ≡
    /// base + j`), or `None` where the send is clipped: it would carry
    /// a packet below 0, so nothing goes on the wire.
    fn seq_at(&self, base: u64, s: u64) -> Option<u64> {
        (self.packet0 + s).checked_sub(base + self.j)
    }

    /// The seq this entry delivers usable from slot `t` (one of its
    /// arrival slots plus one), when the send behind it left in `sent`
    /// and was not clipped.
    fn delivers(&self, base: u64, sent: Range<u64>, t: u64) -> Option<u64> {
        let s = t.checked_sub(self.latency as u64)?;
        sent.contains(&s).then(|| self.seq_at(base, s)).flatten()
    }
}

/// Arithmetic on residues modulo a period `p`, already reduced, so that
/// no step divides.
#[derive(Clone, Copy)]
struct Residues(u64);

impl Residues {
    /// `(a + b) mod p`.
    fn add(self, a: u64, b: u64) -> u64 {
        let s = a + b;
        if s >= self.0 {
            s - self.0
        } else {
            s
        }
    }

    /// `(a − b) mod p`.
    fn sub(self, a: u64, b: u64) -> u64 {
        if a >= b {
            a - b
        } else {
            a + self.0 - b
        }
    }
}

/// One entry's deliveries in seq space: the seqs of its class, `class +
/// k·p` for `k ≥ 0`, seq `q` sent at slot `q + shift` and usable from
/// slot `q + late`. Both offsets come with their residues mod `p`, so a
/// slot bound turns into the first seq of the class past it with no
/// division.
#[derive(Clone, Copy)]
struct Seqs {
    class: u64,
    shift: i128,
    shift_res: u64,
    late: i128,
    late_res: u64,
    m: Residues,
}

impl Seqs {
    /// `e`'s seqs in a table whose send residue 0 is slot `base`,
    /// `base_res` its residue.
    #[inline]
    fn new(e: &ArrEntry, base: u64, base_res: u64, m: Residues) -> Seqs {
        let class = u64::from(e.class);
        let at = base + e.j;
        let l = u64::from(e.latency);
        // `j` is a send residue, below `p`; a latency mostly is too.
        let shift_res = m.sub(m.add(base_res, e.j), class);
        let l_res = if l < m.0 { l } else { l % m.0 };
        Seqs {
            class,
            shift: i128::from(at) - i128::from(e.packet0),
            shift_res,
            late: i128::from(at + l) - i128::from(e.packet0),
            late_res: m.add(shift_res, l_res),
            m,
        }
    }

    /// The first seq of the class at or past `bound` and 0, `res` the
    /// bound's residue.
    #[inline]
    fn first(&self, bound: i128, res: u64) -> u64 {
        if bound <= self.class as i128 {
            self.class
        } else {
            bound as u64 + self.m.sub(self.class, res)
        }
    }

    /// The first seq sent at or after slot `s`, residue `s_res`: the
    /// entry's first unclipped send from `s` on.
    #[inline]
    fn first_sent(&self, s: u64, s_res: u64) -> u64 {
        self.first(
            i128::from(s) - self.shift,
            self.m.sub(s_res, self.shift_res),
        )
    }

    /// The first seq usable from slot `t` or later, `t_res` its residue.
    #[inline]
    fn first_usable(&self, t: u64, t_res: u64) -> u64 {
        self.first(i128::from(t) - self.late, self.m.sub(t_res, self.late_res))
    }

    /// The slot seq `q` is sent in.
    fn sent(&self, q: u64) -> u64 {
        (i128::from(q) + self.shift) as u64
    }

    /// The seq sent in slot `s`.
    fn seq(&self, s: u64) -> u64 {
        (i128::from(s) - self.shift) as u64
    }

    /// The slot seq `q` is usable from.
    fn usable(&self, q: u64) -> u64 {
        (i128::from(q) + self.late) as u64
    }
}

/// The slot bounds of the analytic replay, with their residues mod the
/// period: its table's send residue 0 (`base`), its hand-off (`t0`)
/// and its first replayed slot (`blaze`).
#[derive(Clone, Copy)]
struct Replay {
    m: Residues,
    base: u64,
    base_res: u64,
    t0: u64,
    t0_res: u64,
    blaze: u64,
    blaze_res: u64,
}

impl Replay {
    /// Entry `e`'s seqs.
    #[inline]
    fn seqs(&self, e: &ArrEntry) -> Seqs {
        Seqs::new(e, self.base, self.base_res, self.m)
    }

    /// The fresh point of the row `group` delivers to, where it is empty
    /// for good before the replay: past every seq the node holds (each
    /// cell written so far was a fresh insert; its holdings end at
    /// `held_end`), and past each entry's first replayed seq — its first
    /// unclipped send at or after `t0` and usable no earlier than
    /// `blaze` — rounded down to a whole period (no seq of the entry's
    /// class lies in between, so a row nothing reached before the replay
    /// starts at 0); at most `track`. From there on a residue class of
    /// the row fills only from its entry, at that entry's one lateness,
    /// or never. It takes no division, so each pass works it out again
    /// rather than keeping one per row.
    #[inline]
    fn fresh_point(&self, group: &[ArrEntry], held_end: u64, track: u64) -> usize {
        let replayed = group.iter().map(|e| {
            let s = self.seqs(e);
            let first = s.first_sent(self.t0, self.t0_res);
            first.max(s.first_usable(self.blaze, self.blaze_res)) - s.class
        });
        replayed.fold(held_end, u64::max).min(track) as usize
    }
}

/// The view a scheme sees while the engine generates its declared
/// period ahead of the run: the slot, and nothing else. A scheme that
/// declares a period never reads the holdings ([`SchedulePeriod`]), so
/// a read means the generated lists say nothing about the run, and
/// the lowering is dropped.
#[derive(Default)]
struct Ahead {
    slot: Cell<Slot>,
    read: Cell<bool>,
}

impl StateView for Ahead {
    fn holds(&self, _: NodeId, _: PacketId) -> bool {
        self.read.set(true);
        false
    }

    fn newest(&self, _: NodeId) -> Option<PacketId> {
        self.read.set(true);
        None
    }

    fn slot(&self) -> Slot {
        self.slot.get()
    }
}

impl Ahead {
    /// Slot `t`'s transmissions, into `out`.
    fn generate(&self, scheme: &mut dyn Scheme, t: u64, out: &mut Vec<Transmission>) {
        self.slot.set(Slot(t));
        out.clear();
        scheme.transmissions(Slot(t), self, out);
    }
}

/// The precompiled flat transmission table for one verified period.
struct SteadyTables {
    /// Slot of send residue 0 (the scheme's declared warmup).
    base: u64,
    period: u64,
    /// First slot replayed from the table, `h`: 0 when every ramp slot
    /// generates the table clipped at packet 0, `base` otherwise.
    hand_off: u64,
    /// Per send residue `j`: the transmissions recorded at slot `base +
    /// j`, in emission order. The packet replayed at slot `s ≡ base + j
    /// (mod period)` is the recorded one plus `s − (base + j)`; a send
    /// whose packet that puts below 0 is clipped (it is not sent).
    sends: Vec<Vec<Transmission>>,
    /// Every delivery of the period, once, sorted by `(receiver, packet0
    /// mod period)`: the order in which the table's static properties
    /// are derived and in which the analytic gear streams through the
    /// arrival table.
    entries: Vec<ArrEntry>,
    /// Indices into `entries` grouped by arrival residue: residue `r`'s
    /// deliveries are `by_arrival[arr_start[r]..arr_start[r + 1]]`, in
    /// receiver order. Which order is unobservable: a receiver takes at
    /// most one arrival per slot, so one residue's deliveries touch
    /// distinct rows.
    by_arrival: Vec<u32>,
    arr_start: Vec<u32>,
    max_latency: u64,
    /// `max(packet0 − (base + j))` over all sends: the largest seq
    /// replayed at slot `s` is bounded by `s + off`. `None` when the
    /// table is empty.
    off: Option<i128>,
    /// Static feed closure: when `Some(g)`, every non-source send at
    /// slot `s ≥ hand_off + g` is fed by an in-pattern arrival that the
    /// replay itself applies no later than `s` — so the per-send
    /// holding check provably never fires from that slot on and the
    /// send loop can be replaced by closed-form accounting. `None` when
    /// some send is not covered by any pattern arrival (its holdings
    /// come from the ramp phase and run out eventually unless the
    /// dynamic check keeps watching).
    feed_slack: Option<u64>,
    /// `true` when no two arrival entries can ever deliver the same
    /// `(receiver, seq)` pair — i.e. no two entries share a receiver
    /// and a packet residue mod `period`. Pattern deliveries then
    /// commute across slots (first-delivery cells are single-writer),
    /// so the blazing phase may replay them entry-outer in streaming
    /// order instead of slot by slot.
    collision_free: bool,
}

impl SteadyTables {
    /// The deliveries landing at arrival residue `r`.
    fn arriving(&self, r: usize) -> impl Iterator<Item = &ArrEntry> {
        let at = self.arr_start[r] as usize..self.arr_start[r + 1] as usize;
        self.by_arrival[at]
            .iter()
            .map(|&i| &self.entries[i as usize])
    }

    /// The deliveries grouped by receiver: `entries` is sorted by
    /// `(receiver, class)`, so one group per row.
    fn rows(&self) -> impl Iterator<Item = &[ArrEntry]> {
        self.entries.chunk_by(|a, b| a.to == b.to)
    }

    /// The bounds of a replay that starts at `blaze_start`.
    fn replay(&self, blaze_start: u64) -> Replay {
        let p = self.period;
        Replay {
            m: Residues(p),
            base: self.base,
            base_res: self.base % p,
            t0: self.hand_off,
            t0_res: self.hand_off % p,
            blaze: blaze_start,
            blaze_res: blaze_start % p,
        }
    }

    /// The residue of slot `t`: `t ≡ base + r (mod period)`. Send
    /// residue `r` sends at such a slot, arrival residue `r` arrives.
    fn residue(&self, t: u64) -> usize {
        let p = self.period;
        ((t % p + p - self.base % p) % p) as usize
    }

    /// The seq send `tx` of residue `js` carries at slot `t` (a slot of
    /// that residue), `None` where it is clipped.
    fn seq_sent(&self, tx: &Transmission, js: usize, t: u64) -> Option<u64> {
        (tx.packet.seq() + t).checked_sub(self.base + js as u64)
    }

    /// The pattern deliveries usable from slot `t`, as `(receiver,
    /// seq)`: arrival residue `t − 1`'s entries, less the sends before
    /// the hand-off (they went through the ring) and the clipped ones.
    fn arrivals_at(&self, t: u64) -> impl Iterator<Item = (usize, u64)> + '_ {
        let r = t.checked_sub(1).map(|a| self.residue(a));
        let sent = self.hand_off..u64::MAX;
        let entries = r.into_iter().flat_map(|r| self.arriving(r));
        entries.filter_map(move |e| Some((e.to as usize, e.delivers(self.base, sent.clone(), t)?)))
    }

    /// What the table replays at slot `t`: its residue's sends in
    /// emission order, each packet moved to `t`, less the clipped ones.
    fn clipped(&self, t: u64) -> impl Iterator<Item = Transmission> + '_ {
        let js = self.residue(t);
        self.sends[js].iter().filter_map(move |tx| {
            let seq = self.seq_sent(tx, js, t)?;
            Some(Transmission {
                packet: PacketId(seq),
                ..*tx
            })
        })
    }

    /// Whether `out`, generated for slot `t`, is [`SteadyTables::clipped`].
    fn replays(&self, t: u64, out: &[Transmission]) -> bool {
        let mut want = self.clipped(t);
        out.iter().all(|got| want.next().as_ref() == Some(got)) && want.next().is_none()
    }

    /// Whether every replayed slot passes what admission checks besides
    /// holdings and ramp collisions, proven once from the table with
    /// the kernel's own predicates. A replayed slot sends its residue's
    /// list or less and arrives its arrival residue's entries or fewer,
    /// so per residue: each sender within its send capacity, and at
    /// most one arrival per receiver (a residue lists its entries in
    /// receiver order). A source send's `seq − slot` is the same at
    /// every slot, so passing the production rule at its recorded slot
    /// passes it everywhere. And the arrival ring, which admission
    /// grows to fit each latency, must fit the longest one. Ids and
    /// latencies were checked as the period was recorded.
    fn admissible(&self, scheme: &dyn Scheme, kernel: &mut Kernel, n_ids: usize) -> bool {
        let mut sent = vec![0u32; n_ids];
        for lst in &self.sends {
            for tx in lst {
                let c = &mut sent[tx.from.index()];
                *c += 1;
                if *c as usize > scheme.send_capacity(tx.from) {
                    return false;
                }
            }
            for tx in lst {
                sent[tx.from.index()] = 0;
            }
        }
        let collides = (0..self.period as usize).any(|r| {
            let next = self.arriving(r).skip(1);
            self.arriving(r).zip(next).any(|(a, b)| a.to == b.to)
        });
        let produced = self.sends.iter().enumerate().all(|(js, lst)| {
            let at = self.base + js as u64;
            let mut source = lst.iter().filter(|tx| tx.from.is_source());
            source.all(|tx| kernel.sender_has(tx, at).is_ok())
        });
        let ring = &mut kernel.ring;
        !collides
            && produced
            && (self.max_latency < ring.window || ring.grow(self.max_latency, 0).is_ok())
    }

    /// Book the sends replayed in slots `[hand_off, end)`: each one's
    /// uploads and transmissions, and its link once it went on the
    /// wire at all.
    fn book_sends(&self, stats: &mut TrafficStats, end: u64) {
        for (js, lst) in self.sends.iter().enumerate() {
            let at = self.base + js as u64;
            for tx in lst {
                let from = self.hand_off.max(at.saturating_sub(tx.packet.seq()));
                let n = phase_count(from, end, self.base, js as u64, self.period);
                if n > 0 {
                    stats.record_many(tx, n);
                }
            }
        }
    }
}

/// One period of a declared schedule, generated ahead of the run.
struct Lowering {
    warmup: u64,
    period: u64,
    /// Generated output of slots `[warmup, warmup + period)`.
    recorded: Vec<Vec<Transmission>>,
}

impl Lowering {
    /// Lower the period; the recorded slots become the send table as
    /// they are, and the deliveries are laid out once — each put
    /// straight into its receiver's bucket, the bucket sorted by class,
    /// then indexed by arrival residue. The hand-off is left at 0.
    fn compile(self) -> SteadyTables {
        let p = self.period;
        // One counting pass gives every receiver's bucket end; walking
        // the period backwards, each delivery goes to the back of its
        // bucket, which leaves the buckets in emission order and turns
        // every end into the bucket's start. Each bucket's few entries
        // are then sorted by class. Ties (a table that is not
        // collision-free) keep an order nothing observes.
        let sent = || self.recorded.iter().flatten();
        let receivers = sent().map(|tx| tx.to.index() + 1).max().unwrap_or(0);
        let mut to_start = vec![0u32; receivers + 1];
        for tx in sent() {
            to_start[tx.to.index()] += 1;
        }
        let mut end = 0;
        for at in &mut to_start {
            end += *at;
            *at = end;
        }
        let mut entries = vec![ArrEntry::default(); end as usize];
        let mut max_latency = 1u64;
        let mut off: Option<i128> = None;
        for (j, slot) in self.recorded.iter().enumerate().rev() {
            for tx in slot.iter().rev() {
                max_latency = max_latency.max(tx.latency as u64);
                let at = &mut to_start[tx.to.index()];
                *at -= 1;
                entries[*at as usize] = ArrEntry {
                    from: tx.from.0,
                    to: tx.to.0,
                    packet0: tx.packet.seq(),
                    latency: tx.latency,
                    class: (tx.packet.seq() % p) as u32,
                    j: j as u64,
                };
                let o = tx.packet.seq() as i128 - (self.warmup + j as u64) as i128;
                off = Some(off.map_or(o, |c| c.max(o)));
            }
        }
        for w in to_start.windows(2) {
            entries[w[0] as usize..w[1] as usize].sort_unstable_by_key(|e| e.class);
        }
        let collision_free = entries.windows(2).all(|w| w[0].key() != w[1].key());

        // Counting sort of the entry indices by arrival residue.
        let residue = |e: &ArrEntry| ((e.j + e.latency as u64 - 1) % p) as usize;
        let arr_start = bucket_starts(p as usize, entries.iter().map(residue));
        let mut next = arr_start.clone();
        let mut by_arrival = vec![0u32; entries.len()];
        for (i, e) in entries.iter().enumerate() {
            let at = &mut next[residue(e)];
            by_arrival[*at as usize] = i as u32;
            *at += 1;
        }

        let feed_slack = Self::feed_slack(&self.recorded, &entries, &to_start, p);
        SteadyTables {
            base: self.warmup,
            period: p,
            hand_off: 0,
            sends: self.recorded,
            entries,
            by_arrival,
            arr_start,
            max_latency,
            off,
            feed_slack,
            collision_free,
        }
    }

    /// Compute the static feed closure (see [`SteadyTables::feed_slack`]).
    ///
    /// A send entry at residue `js` replays `seq(s) = packet0 + (s −
    /// base − js)` at slots `s ≡ base + js (mod period)`. An arrival
    /// entry `(to, packet0_a, j_a, L_a)` delivers `packet0_a + (s_a −
    /// base − j_a)` usable from slot `s_a + L_a`, for pattern send slots
    /// `s_a ≥ hand_off`. Matching the two: the feeding send slot is
    /// `s_a = s − g` with constant `g = (js − j_a) + (packet0_a −
    /// packet0)`, valid iff the packet offsets agree mod `period` and
    /// `g ≥ L_a` (the copy arrives no later than it is needed). Every
    /// quantity is slot-independent, so "is this send fed forever?"
    /// reduces to per-entry arithmetic: the send is self-feeding from
    /// `hand_off + g` on (its feeder is then itself a pattern send, and
    /// carries the same seq, so it is not clipped when the fed send is
    /// not), and the table-wide slack is the max over entries of the
    /// best (smallest) `g`.
    fn feed_slack(
        sends: &[Vec<Transmission>],
        entries: &[ArrEntry],
        to_start: &[u32],
        period: u64,
    ) -> Option<u64> {
        // Sorted by receiver, so each receiver's entries are
        // `entries[to_start[r]..to_start[r + 1]]`, and each send entry
        // scans only its own feeder candidates.
        let mut slack: u64 = 0;
        for (js, lst) in sends.iter().enumerate() {
            for e in lst {
                if e.from.is_source() {
                    // Source sends passed the production rule once in
                    // `admissible`; it is slot-invariant (`seq − slot`
                    // is constant per entry), so they stay valid forever.
                    continue;
                }
                let feeders = match to_start.get(e.from.index()..e.from.index() + 2) {
                    Some(&[lo, hi]) => &entries[lo as usize..hi as usize],
                    _ => &[],
                };
                let class = e.packet.seq() % period;
                let mut best: Option<i128> = None;
                for f in feeders {
                    if u64::from(f.class) != class {
                        continue;
                    }
                    let dp = e.packet.seq() as i128 - f.packet0 as i128;
                    let g = js as i128 - f.j as i128 - dp;
                    if g >= f.latency as i128 {
                        best = Some(best.map_or(g, |b| b.min(g)));
                    }
                }
                slack = slack.max(u64::try_from(best?).ok()?);
            }
        }
        Some(slack)
    }
}

/// Where each of `n` buckets starts when `keys` (each `< n`) are laid
/// out in key order: bucket `k` is `[start[k], start[k + 1])`.
fn bucket_starts(n: usize, keys: impl Iterator<Item = usize>) -> Vec<u32> {
    let mut start = vec![0u32; n + 1];
    for k in keys {
        start[k + 1] += 1;
    }
    for k in 0..n {
        start[k + 1] += start[k];
    }
    start
}

/// Number of slots `s` in `[a, b)` with `s ≡ base + js (mod p)`.
fn phase_count(a: u64, b: u64, base: u64, js: u64, p: u64) -> u64 {
    if b <= a {
        return 0;
    }
    let rem = (base + js) % p;
    let first = a + (rem + p - a % p) % p;
    if first >= b {
        0
    } else {
        (b - 1 - first) / p + 1
    }
}

/// Contiguous id ranges for `shards` workers over `n_ids` ids,
/// following the scheme's natural group boundaries when declared.
fn shard_ranges(n_ids: usize, shards: usize, boundaries: Option<Vec<u32>>) -> Vec<(usize, usize)> {
    if shards <= 1 || n_ids == 0 {
        return vec![(0, n_ids)];
    }
    match boundaries {
        None => {
            let k = shards.min(n_ids);
            (0..k)
                .map(|s| (n_ids * s / k, n_ids * (s + 1) / k))
                .filter(|(a, b)| a < b)
                .collect()
        }
        Some(b) => {
            // Group ends: each natural group is [cut_{i-1}, cut_i); the
            // source id 0 rides with the first group. Pack consecutive
            // groups into at most `shards` unions balanced by size.
            let mut cuts: Vec<usize> = b
                .into_iter()
                .map(|x| x as usize)
                .filter(|&x| x > 0 && x < n_ids)
                .collect();
            cuts.sort_unstable();
            cuts.dedup();
            cuts.push(n_ids);
            let k = shards.min(cuts.len());
            let mut ranges = Vec::with_capacity(k);
            let (mut start, mut gi) = (0usize, 0usize);
            for s in 0..k {
                let target = n_ids * (s + 1) / k;
                let mut end = start;
                while gi < cuts.len() && (end < target || end == start) {
                    end = cuts[gi];
                    gi += 1;
                }
                if s == k - 1 {
                    end = n_ids;
                    gi = cuts.len();
                }
                if end > start {
                    ranges.push((start, end));
                }
                start = end;
            }
            ranges
        }
    }
}

/// Apply one steady-state delivery to the sequential columnar state.
#[allow(clippy::too_many_arguments)]
#[inline]
fn deliver_columnar(
    held: &mut ColumnarHeld,
    cells: &mut CellsMut<'_>,
    dup: &mut u64,
    remaining: &mut u64,
    is_receiver: &[bool],
    track: u64,
    t: u64,
    to: usize,
    seq: u64,
    slot_deliveries: &mut u64,
) {
    if !held.insert(to, seq) {
        *dup += 1;
        return;
    }
    if seq < track && cells.first(to, seq as usize, t) && is_receiver[to] {
        *remaining -= 1;
    }
    *slot_deliveries += 1;
}

/// One shard's disjoint window over every columnar array.
struct ShardSlices<'a> {
    start: usize,
    words: &'a mut [u64],
    spill: &'a mut [PacketSet],
    /// The shard's rows of the arrival table.
    cells: CellsMut<'a>,
}

/// Apply one steady-state delivery to a shard's state window. Counter
/// updates are additive atomics, so totals match the sequential path
/// regardless of scheduling.
#[allow(clippy::too_many_arguments)]
#[inline]
fn deliver_shard(
    st: &mut ShardSlices<'_>,
    stride: usize,
    track: u64,
    t: u64,
    to: usize,
    seq: u64,
    is_receiver: &[bool],
    remaining: &AtomicU64,
    dup: &AtomicU64,
    slot_deliv: &AtomicU64,
) {
    let li = to - st.start;
    let w = seq / 64;
    let fresh = if w < stride as u64 {
        let idx = li * stride + w as usize;
        let mask = 1u64 << (seq % 64);
        let f = st.words[idx] & mask == 0;
        st.words[idx] |= mask;
        f
    } else {
        st.spill[li].insert(seq)
    };
    if !fresh {
        dup.fetch_add(1, Ordering::Relaxed);
        return;
    }
    if seq < track && st.cells.first(to, seq as usize, t) && is_receiver[to] {
        remaining.fetch_sub(1, Ordering::Relaxed);
    }
    slot_deliv.fetch_add(1, Ordering::Relaxed);
}

/// How a steady-state replay ended.
enum SteadyEnd {
    /// Replay ran to the stop condition; the sends of slots `[hand_off,
    /// send_end)` went out (for their booking and the flush).
    Done { send_end: u64 },
    /// A residual check failed: the declaration was wrong in a way the
    /// verified periods and the static checks did not expose. The
    /// caller discards everything and re-runs in full mode.
    Anomaly,
}

/// Reusable mega-engine arena; see the module docs for the execution
/// model. One instance can run many simulations without re-allocating
/// its internal state.
pub struct MegaEngine {
    shards: usize,
    kernel: Kernel,
    steady_slots: u64,
}

impl Default for MegaEngine {
    fn default() -> Self {
        MegaEngine::new()
    }
}

impl MegaEngine {
    /// A fresh single-shard engine arena.
    pub fn new() -> MegaEngine {
        MegaEngine::with_shards(1)
    }

    /// A fresh arena replaying steady-state slots over `shards` id-range
    /// shards (clamped to at least 1). Results are bit-identical at
    /// every shard count — sharding only changes how the work is split.
    pub fn with_shards(shards: usize) -> MegaEngine {
        MegaEngine {
            shards: shards.max(1),
            kernel: Kernel::default(),
            steady_slots: 0,
        }
    }

    /// Shard count this engine was configured with.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Slots of the most recent run executed from the precompiled table
    /// (0 = the whole run used full mode).
    pub fn steady_slots(&self) -> u64 {
        self.steady_slots
    }

    /// Run `scheme` under `cfg`. Semantics, results and errors are
    /// bit-identical to [`crate::Simulator::run`]; see the module docs
    /// for how the work is executed.
    ///
    /// If a steady-state residual check trips mid-replay (the
    /// periodicity declaration was wrong in a way the verified periods
    /// and the static checks did not expose), the whole simulation is
    /// re-run in full mode, which is exact by construction. Lowering
    /// asks for slots ahead of the run and the re-run drives the *same*
    /// instance from slot 0 again, so schemes declaring a period must
    /// be replayable — required by the [`SchedulePeriod`] contract,
    /// which forbids consulting the [`StateView`] and makes a
    /// self-mutating scheme rewind when asked for a slot below the last
    /// one it served.
    pub fn run(
        &mut self,
        scheme: &mut dyn Scheme,
        cfg: &SimConfig,
    ) -> Result<RunResult, CoreError> {
        match self.run_attempt(scheme, cfg, true)? {
            Some(r) => Ok(r),
            None => match self.run_attempt(scheme, cfg, false)? {
                Some(r) => Ok(r),
                None => unreachable!("full mode cannot raise a steady anomaly"),
            },
        }
    }

    /// One attempt at running `scheme`: the kernel's slot loop up to
    /// the hand-off, with lowering into steady-state replay permitted
    /// when `allow_steady`. `Ok(None)` means a replay residual check
    /// failed and the caller must re-run with `allow_steady = false`
    /// (which cannot fail this way).
    fn run_attempt(
        &mut self,
        scheme: &mut dyn Scheme,
        cfg: &SimConfig,
        allow_steady: bool,
    ) -> Result<Option<RunResult>, CoreError> {
        let _span = cfg.telemetry.span(tm::ENGINE_RUN);
        let mut run = self.kernel.begin(scheme, cfg)?;
        self.steady_slots = 0;

        // Lowering only arms for schemes declaring a period whose two
        // verified periods end within the horizon, on runs where nothing
        // is ever dropped: no fault plan, or one that only reports. Such
        // a plan draws no loss and crashes no one; its one remaining
        // effect, a forward of an unheld packet counted instead of
        // fatal, is an anomaly in the careful gear.
        let drops_nothing = cfg.faults.as_ref().is_none_or(FaultPlan::reports_only);
        let tbl = if allow_steady && drops_nothing {
            scheme
                .schedule_period()
                .filter(|d| d.period >= 1)
                .filter(|d| d.warmup.saturating_add(d.period.saturating_mul(2)) < cfg.max_slots)
                .and_then(|d| {
                    let _span = cfg.telemetry.span(tm::ENGINE_LOWER);
                    self.lower(scheme, d, run.arrivals.n_ids())
                })
        } else {
            None
        };

        // Full mode up to the hand-off (the whole run when nothing was
        // lowered); the scheme rewinds when asked for slot 0 again.
        let hand_off = tbl.as_ref().map_or(cfg.max_slots, |l| l.hand_off);
        let stopped = self.kernel.run_slots(scheme, &mut run, hand_off)?;
        let Some(tbl) = tbl.filter(|_| !stopped) else {
            self.kernel.flush_ring(&mut run);
            let _span = cfg.telemetry.span(tm::ENGINE_RESULT);
            return self.kernel.finish(scheme, run).map(Some);
        };
        let replay = cfg.telemetry.span(tm::ENGINE_REPLAY);
        let ranges = shard_ranges(run.arrivals.n_ids(), self.shards, scheme.shard_boundaries());
        let end = if ranges.len() > 1 && run.trace.is_none() {
            self.steady_sharded(cfg, &tbl, &ranges, &mut run)
        } else {
            self.steady_sequential(cfg, &tbl, &mut run)
        };
        let SteadyEnd::Done { send_end } = end else {
            return Ok(None);
        };
        self.steady_slots = run.slots_run - tbl.hand_off;
        tbl.book_sends(&mut self.kernel.stats, send_end);

        // Ramp leftovers drain from the ring and in-flight pattern sends
        // re-derive arithmetically, interleaved in ascending arrival-slot
        // order (first arrival wins). No pattern send lands past
        // `send_end + max_latency − 2`.
        let first = run.first_unflushed();
        let ring_end = first + self.kernel.ring.window;
        let pattern_end = send_end + tbl.max_latency - 1;
        for arrival_slot in first..ring_end.max(pattern_end) {
            if arrival_slot < ring_end {
                self.kernel.flush_cell(&mut run, arrival_slot);
            }
            if arrival_slot >= pattern_end {
                continue;
            }
            let usable = arrival_slot + 1;
            for e in tbl.arriving(tbl.residue(arrival_slot)) {
                if let Some(seq) = e.delivers(tbl.base, tbl.hand_off..send_end, usable) {
                    run.arrivals
                        .record(NodeId(e.to), PacketId(seq), Slot(usable));
                }
            }
        }
        // By value: the tables are dead weight once the flush is done, and
        // `finish` allocates the per-receiver report.
        drop(tbl);
        drop(replay);
        let _span = cfg.telemetry.span(tm::ENGINE_RESULT);
        self.kernel.finish(scheme, run).map(Some)
    }

    /// Generate `scheme`'s declared period ahead of the run and lower
    /// it: record `[warmup, warmup + p)`, compile it, and check that
    /// `[warmup + p, warmup + 2p)` repeats it and that it is
    /// [`SteadyTables::admissible`]. Then place the hand-off: slot 0
    /// when every ramp slot `0..warmup` generates the table clipped at
    /// packet 0, the declared warmup otherwise. `None` — full mode for
    /// the whole run — when any check fails or the scheme reads the
    /// view.
    fn lower(
        &mut self,
        scheme: &mut dyn Scheme,
        decl: SchedulePeriod,
        n_ids: usize,
    ) -> Option<SteadyTables> {
        let SchedulePeriod { warmup, period } = decl;
        if period > u32::MAX as u64 {
            return None;
        }
        let view = Ahead::default();
        let mut out = Vec::new();
        let mut recorded = Vec::new();
        let mut size = 0;
        for t in warmup..warmup + period {
            view.generate(scheme, t, &mut out);
            if out.iter().any(|tx| check_ends(tx, n_ids).is_err()) {
                return None;
            }
            size += out.len();
            recorded.push(out.clone());
        }
        if size > u32::MAX as usize {
            return None;
        }
        let mut tbl = Lowering {
            warmup,
            period,
            recorded,
        }
        .compile();
        for t in warmup + period..warmup + 2 * period {
            view.generate(scheme, t, &mut out);
            if !tbl.replays(t, &out) {
                return None;
            }
        }
        if !tbl.admissible(scheme, &mut self.kernel, n_ids) {
            return None;
        }
        let clipped = (0..warmup).all(|t| {
            view.generate(scheme, t, &mut out);
            tbl.replays(t, &out)
        });
        tbl.hand_off = if clipped { 0 } else { warmup };
        (!view.read.get()).then_some(tbl)
    }

    /// Sequential steady-state replay from `tbl.hand_off` until the
    /// stop condition, updating `slots_run` per slot like the full loop.
    fn steady_sequential(
        &mut self,
        cfg: &SimConfig,
        tbl: &SteadyTables,
        run: &mut Run<'_>,
    ) -> SteadyEnd {
        let Run {
            arrivals,
            remaining,
            is_receiver,
            trace,
            slots_run,
            ..
        } = run;
        let track = arrivals.track_packets();
        let mut cells = arrivals.cells_mut();
        let t0 = tbl.hand_off;
        // Past this slot every ramp-phase send has arrived: the ring is
        // empty and the per-send collision probe can be skipped.
        let ring_live_until = self.kernel.ring.live_until(t0);
        // Past this slot the table is statically self-feeding (see
        // [`SteadyTables::feed_slack`]): the ring is drained, every
        // holding check provably passes, and — untraced — the send loop
        // has no observable effect beyond its counters, which
        // `book_sends` accumulates in closed form for every gear.
        let check_free_from = match tbl.feed_slack {
            Some(slack) if trace.is_none() => t0
                .saturating_add(slack)
                .max(ring_live_until.saturating_add(1)),
            _ => u64::MAX,
        };
        let mut t = t0;
        while t < cfg.max_slots && t < check_free_from {
            *slots_run = t + 1;
            let mut slot_deliveries: u64 = 0;

            // Ramp-phase in-flight arrivals still drain from the ring.
            if t > 0 {
                let batch = self.kernel.ring.take(self.kernel.ring.cell_index(t - 1));
                for &(to, packet) in &batch {
                    deliver_columnar(
                        &mut self.kernel.state.held,
                        &mut cells,
                        &mut self.kernel.stats.duplicate_deliveries,
                        remaining,
                        is_receiver,
                        track,
                        t,
                        to.index(),
                        packet.seq(),
                        &mut slot_deliveries,
                    );
                }
                self.kernel.ring.recycle(batch);
            }
            for (to, seq) in tbl.arrivals_at(t) {
                deliver_columnar(
                    &mut self.kernel.state.held,
                    &mut cells,
                    &mut self.kernel.stats.duplicate_deliveries,
                    remaining,
                    is_receiver,
                    track,
                    t,
                    to,
                    seq,
                    &mut slot_deliveries,
                );
            }
            record_slot_deliveries(&cfg.telemetry, slot_deliveries);

            if cfg.stop_when_complete && *remaining == 0 {
                return SteadyEnd::Done { send_end: t };
            }

            // Replayed sends: residual holding check plus (while ramp
            // arrivals are in flight) a collision probe — everything
            // else the full loop validates is statically impossible for
            // an admissible table. The slot is traced once all passed.
            let js = tbl.residue(t);
            let probe_ring = t <= ring_live_until;
            let sent = || {
                let sends = tbl.sends[js].iter();
                sends.filter_map(move |e| Some((e, tbl.seq_sent(e, js, t)?)))
            };
            for (e, seq) in sent() {
                if !e.from.is_source() && !self.kernel.state.held.contains(e.from.index(), seq) {
                    return SteadyEnd::Anomaly;
                }
                if probe_ring && self.kernel.ring.reserved(t + e.latency as u64 - 1, e.to) {
                    return SteadyEnd::Anomaly;
                }
            }
            if let Some(tr) = trace.as_mut() {
                for (e, seq) in sent() {
                    let packet = PacketId(seq);
                    tr.push(t, &Transmission { packet, ..*e });
                }
            }
            t += 1;
        }
        if t >= cfg.max_slots {
            return SteadyEnd::Done { send_end: t };
        }
        if tbl.collision_free {
            // Collision-free deliveries commute across slots: replay the
            // pattern entry-outer in streaming order instead. The gear
            // tallies the per-slot series itself, so whether a recorder
            // is attached plays no part in the choice.
            return self.steady_analytic(cfg, tbl, arrivals, remaining, is_receiver, slots_run, t);
        }

        // Blazing phase, slot-outer: the exact gear for a table that is
        // not collision-free (two entries may deliver the same packet to
        // one receiver, so which copy is first depends on slot order).
        // The ring is empty and the holding checks are statically
        // discharged, so each slot is just its deliveries plus the stop
        // check (a stop breaks before the sends of its slot, exactly
        // like the loop above).
        while t < cfg.max_slots {
            *slots_run = t + 1;
            let mut slot_deliveries: u64 = 0;
            for (to, seq) in tbl.arrivals_at(t) {
                deliver_columnar(
                    &mut self.kernel.state.held,
                    &mut cells,
                    &mut self.kernel.stats.duplicate_deliveries,
                    remaining,
                    is_receiver,
                    track,
                    t,
                    to,
                    seq,
                    &mut slot_deliveries,
                );
            }
            record_slot_deliveries(&cfg.telemetry, slot_deliveries);
            if cfg.stop_when_complete && *remaining == 0 {
                break;
            }
            t += 1;
        }
        SteadyEnd::Done { send_end: t }
    }

    /// Entry-outer blazing phase: once the careful loop has discharged
    /// the ring and the holding checks, a collision-free table's
    /// remaining observable work is pure delivery replay — and because
    /// no two entries ever touch the same `(receiver, seq)` cell, the
    /// deliveries of different slots commute. So instead of walking
    /// slots (two random memory accesses per delivery), walk *entries*:
    /// each entry's deliveries form an arithmetic seq progression with
    /// stride `period` inside one receiver's row — streaming access,
    /// receiver by receiver. The stop slot is computed up front from the
    /// still-needed cells (each has exactly one covering entry, hence an
    /// exact delivery slot), which also removes the per-slot stop check.
    /// The one thing a slot loop observes that entries do not — how many
    /// deliveries each slot saw — is tallied per usable slot on the way
    /// and emitted through [`record_slot_deliveries`], so the telemetry
    /// snapshot is the slot-outer loop's.
    #[allow(clippy::too_many_arguments)]
    fn steady_analytic(
        &mut self,
        cfg: &SimConfig,
        tbl: &SteadyTables,
        arrivals: &mut ArrivalTable,
        remaining: &mut u64,
        is_receiver: &[bool],
        slots_run: &mut u64,
        blaze_start: u64,
    ) -> SteadyEnd {
        let track = arrivals.track_packets() as usize;
        arrivals.allow_periodic();
        let mut cells = arrivals.cells_mut();
        let t0 = tbl.hand_off;
        let p = tbl.period;
        let pz = p as usize;
        let replay = tbl.replay(blaze_start);
        let (m, t0_res) = (replay.m, replay.t0_res);
        let seqs = |e: &ArrEntry| replay.seqs(e);
        let rows = || tbl.rows();
        let held = &mut self.kernel.state.held;
        let fresh =
            |group: &[ArrEntry], held_end| replay.fresh_point(group, held_end, track as u64);

        // Exclusive end of applied arrival slots: stop slot + 1 when the
        // run completes in-horizon, else the horizon itself.
        let mut arr_end = cfg.max_slots;
        let mut will_stop = false;
        if cfg.stop_when_complete && *remaining > 0 {
            // An entry's pattern sends leave at slots `base + j + k`,
            // `k ≡ 0 (mod p)`, from `t0` on and unclipped (`packet0 + k ≥
            // 0`), and deliver seq `packet0 + k` at slot `base + j + L +
            // k`: one residue class of the
            // receiver's row, later seqs later. Collision-freedom makes
            // the classes of one receiver's entries disjoint, so the run
            // completes iff the still-needed cells the entries reach
            // inside the horizon are all `remaining` of them, and then
            // at the latest of each entry's last needed cell — exact, no
            // simulation. Cells below the row's fresh point are looked
            // at; those past it are all still needed, so they are
            // counted, not walked.
            let mut latest = blaze_start;
            let mut covered = 0u64;
            for group in rows() {
                let to = group[0].to as usize;
                if !is_receiver[to] {
                    continue;
                }
                let fresh = fresh(group, held.end(to));
                let fresh_res = fresh as u64 % p;
                for e in group {
                    let s = seqs(e);
                    let seq_lo = s.first_sent(t0, t0_res).min(track as u64) as usize;
                    let seq_end =
                        (i128::from(cfg.max_slots) - s.late).clamp(0, track as i128) as usize;
                    let mut last = None;
                    for seq in (seq_lo..seq_end.min(fresh)).step_by(pz) {
                        if cells.is_empty(to, seq) {
                            covered += 1;
                            last = Some(seq);
                        }
                    }
                    let from = if fresh > seq_lo {
                        fresh + m.sub(s.class, fresh_res) as usize
                    } else {
                        seq_lo
                    };
                    if from < seq_end {
                        let n = (seq_end - 1 - from) / pz + 1;
                        covered += n as u64;
                        last = Some(from + (n - 1) * pz);
                    }
                    if let Some(seq) = last {
                        latest = latest.max(s.usable(seq as u64));
                    }
                }
            }
            if covered == *remaining {
                arr_end = latest + 1;
                will_stop = true;
            }
        }

        // The replay takes each row over whole: a row turns periodic when
        // its head holds a whole period past its fresh point. Its
        // class-`c` cells from there on all hold the entry's lateness
        // until the entry's first seq usable no earlier than `arr_end`,
        // so every cell past the head and before the first such seq of
        // any class is implied. The head's cells from the fresh point on
        // are seeded here, the row is marked, and the replay below writes
        // none of the cells before the implied end; the cells past it it
        // stores.
        let h = cells.head_len();
        let (h_res, arr_res) = (h as u64 % p, arr_end % p);
        for group in rows() {
            let to = group[0].to as usize;
            let fresh = fresh(group, held.end(to));
            if fresh + pz > h {
                continue;
            }
            let fresh_res = fresh as u64 % p;
            let first_fresh = |s: &Seqs| fresh + m.sub(s.class, fresh_res) as usize;
            let mut end = track;
            for e in group {
                let s = seqs(e);
                let cut = i128::from(arr_end) - s.late;
                if cut <= fresh as i128 {
                    end = end.min(first_fresh(&s));
                } else if cut < track as i128 {
                    end = end.min(s.first_usable(arr_end, arr_res) as usize);
                }
            }
            if end <= h {
                continue;
            }
            for e in group {
                let s = seqs(e);
                let seeded = cells.fill(to, (first_fresh(&s), h, pz), s.late);
                if is_receiver[to] {
                    *remaining -= seeded as u64;
                }
            }
            if cells.mark_periodic(to, pz, end) && is_receiver[to] {
                // Of the implied cells `h..end`, each class holds
                // `⌊(end − h)/p⌋`, and one more when its first lies
                // within the remainder.
                let (full, rem) = ((end - h) / pz, (end - h) % pz);
                let implied: usize = group
                    .iter()
                    .map(|e| full + usize::from((m.sub(u64::from(e.class), h_res) as usize) < rem))
                    .sum();
                *remaining -= implied as u64;
            }
        }
        // Send slots: a stop breaks before the sends of its slot.
        let send_end = if will_stop {
            arr_end - 1
        } else {
            cfg.max_slots
        };

        // Window → row → entry → stride. Nothing reads the holdings after
        // this gear (the flush and `finish` read the arrival table and
        // the stats), and on a collision-free table a replayed seq at or
        // past its row's held end is a fresh insert: nothing held it, and
        // no other delivery of the replay carries it. So only the seqs
        // below the held end go through the held set (and can be
        // duplicates); the rest are tallied in closed form and write
        // only the row's stored cells, skipping the seeded and implied
        // run `[fresh, e)` of a periodic row by range. Each fresh
        // delivery counts under its usable slot `s + l`: an entry's
        // usable slots in a window step by `p`, so the tally takes a +1
        // where the run starts and a −1 where it ends, and one prefix
        // sum of stride `p` per window turns those into the per-slot
        // series of the slot-outer loop (counters add and the histogram
        // is order-free), from `TALLY_WINDOW` words whatever the
        // horizon.
        let dup = &mut self.kernel.stats.duplicate_deliveries;
        let mut tally = [0i64; TALLY_WINDOW];
        let mut w_start = blaze_start;
        while w_start < arr_end {
            let w_end = arr_end.min(w_start.saturating_add(TALLY_WINDOW as u64));
            let (len, w_res) = ((w_end - w_start) as usize, w_start % p);
            // `n` usable slots from window offset `o` on, `p` apart.
            let mut tally_run = |o: usize, n: u64| {
                tally[o] += 1;
                let stop = o as u64 + n * p;
                if stop < len as u64 {
                    tally[stop as usize] -= 1;
                }
            };
            for group in rows() {
                let to = group[0].to as usize;
                let held_end = held.end(to);
                let implied = cells.implied(to);
                let skip = if implied.is_empty() {
                    track..track
                } else {
                    fresh(group, held_end)..implied.end
                };
                for e in group {
                    let sq = seqs(e);
                    let l = e.latency as u64;
                    // First replayed arrival slot ≥ w_start; earlier ones
                    // ran in the careful loop or an earlier window. Sends
                    // before `t0` went through the ring and are not the
                    // table's to replay: `w_start − l` may lie up to a
                    // period below `t0` (the entry's last ramp send
                    // reserved `s′ + l − 1`, and the careful loop only
                    // waits for the ring to drain), hence the bound at
                    // `t0`. Nor are the clipped ones, before the entry's
                    // first packet.
                    let q = sq
                        .first_sent(t0, t0_res)
                        .max(sq.first_usable(w_start, w_res));
                    let mut s = sq.sent(q);
                    let s_end = w_end.saturating_sub(l);
                    // Sends from here on carry seqs at or past the held end.
                    let s_fresh = (held_end as i128 + sq.shift).max(0) as u64;
                    while s < s_end.min(s_fresh) {
                        let seq = sq.seq(s);
                        if !held.insert(to, seq) {
                            *dup += 1;
                        } else {
                            // Below the held end, hence below `skip`.
                            tally_run((s + l - w_start) as usize, 1);
                            if seq < track as u64
                                && cells.first(to, seq as usize, s + l)
                                && is_receiver[to]
                            {
                                *remaining -= 1;
                            }
                        }
                        s += p;
                    }
                    if s >= s_end {
                        continue;
                    }
                    let n = (s_end - 1 - s) / p + 1;
                    tally_run((s + l - w_start) as usize, n);
                    let seq_lo = sq.seq(s);
                    let seq_end = seq_lo.saturating_add(n * p).min(track as u64) as usize;
                    let seq_lo = seq_lo.min(track as u64) as usize;
                    let stored = [
                        (seq_lo, skip.start.min(seq_end)),
                        (skip.end.max(seq_lo), seq_end),
                    ];
                    for (lo, hi) in stored.into_iter().filter(|(lo, hi)| lo < hi) {
                        // `seq_lo` is of the class; the implied end is
                        // rounded into it.
                        let lo = match lo == seq_lo {
                            true => lo,
                            false => lo + m.sub(sq.class, lo as u64 % p) as usize,
                        };
                        for seq in (lo..hi).step_by(pz) {
                            if cells.first(to, seq, sq.usable(seq as u64)) && is_receiver[to] {
                                *remaining -= 1;
                            }
                        }
                    }
                }
            }
            for i in pz..len {
                tally[i] += tally[i - pz];
            }
            for n in &mut tally[..len] {
                record_slot_deliveries(&cfg.telemetry, std::mem::take(n) as u64);
            }
            w_start = w_end;
        }
        debug_assert!(!will_stop || *remaining == 0);
        *slots_run = arr_end;
        SteadyEnd::Done { send_end }
    }

    /// Sharded steady-state replay: id-range shards process their own
    /// deliveries and sends in parallel each slot, while the coordinator
    /// applies cross-shard traffic — the super-node exchange — plus ring
    /// leftovers sequentially between barrier waits. Bit-identical to
    /// [`MegaEngine::steady_sequential`] at every shard count: every
    /// write lands in exactly one shard's window or in the coordinator's
    /// exchange phase, and all shared counters are additive.
    fn steady_sharded(
        &mut self,
        cfg: &SimConfig,
        tbl: &SteadyTables,
        ranges: &[(usize, usize)],
        run: &mut Run<'_>,
    ) -> SteadyEnd {
        use std::sync::{Barrier, Mutex};

        let Run {
            arrivals,
            remaining: remaining_io,
            is_receiver,
            slots_run,
            ..
        } = run;
        let is_receiver = &is_receiver[..];
        let Kernel {
            state, ring, stats, ..
        } = &mut self.kernel;
        let track = arrivals.track_packets();
        let t0 = tbl.hand_off;
        let ring_live_until = ring.live_until(t0);
        let k = ranges.len();
        let pz = tbl.period as usize;
        let shard_of = |id: u32| ranges.partition_point(|&(_, end)| end <= id as usize);

        // Split the table: traffic whose sender and receiver share a
        // shard runs on that shard's worker; the rest is exchange-phase
        // work. Sends are grouped by the sender's shard (the holding
        // check lives there).
        let mut send_local: Vec<Vec<Vec<Transmission>>> = vec![vec![Vec::new(); pz]; k];
        let mut arr_local: Vec<Vec<Vec<ArrEntry>>> = vec![vec![Vec::new(); pz]; k];
        let mut arr_cross: Vec<Vec<ArrEntry>> = vec![Vec::new(); pz];
        for (js, slot) in tbl.sends.iter().enumerate() {
            for e in slot {
                send_local[shard_of(e.from.0)][js].push(*e);
            }
        }
        for ra in 0..pz {
            for e in tbl.arriving(ra) {
                if shard_of(e.from) == shard_of(e.to) {
                    arr_local[shard_of(e.to)][ra].push(*e);
                } else {
                    arr_cross[ra].push(*e);
                }
            }
        }

        let workers = k.min(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .max(2),
        );
        let remaining = AtomicU64::new(*remaining_io);
        let dup = AtomicU64::new(0);
        let slot_deliv = AtomicU64::new(0);
        let anomaly = AtomicBool::new(false);
        let slot_cell = AtomicU64::new(0);
        let claim = ClaimCounter::new();
        // Each shard's rows of the arrival table.
        let rows: Vec<usize> = ranges.iter().map(|&(s0, s1)| s1 - s0).collect();

        let mut t = t0;
        let mut stopped = false;

        while t < cfg.max_slots && !stopped && !anomaly.load(Ordering::Relaxed) {
            // A columnar re-layout moves every word, so it must not race
            // the worker scope: pre-grow the stride to cover at least the
            // next chunk of slots and run the chunk with it frozen.
            let chunk_end = match tbl.off {
                None => cfg.max_slots,
                Some(off) => {
                    let want = (t + CHUNK_MIN_SLOTS) as i128 + off;
                    if want >= 0 {
                        state.held.ensure_covers(want as u64);
                    }
                    let covered = (state.held.stride as u64).saturating_mul(64) as i128;
                    let horizon = (covered - off).clamp(0, cfg.max_slots as i128) as u64;
                    if horizon <= t {
                        // Budget-capped stride: the spill sets absorb
                        // everything past it, no more re-layouts.
                        cfg.max_slots
                    } else {
                        horizon
                    }
                }
            };
            let stride = state.held.stride;

            // Disjoint per-shard windows over every columnar array.
            let mut shard_states: Vec<Mutex<ShardSlices<'_>>> = Vec::with_capacity(k);
            {
                let mut words = &mut state.held.words[..];
                let mut spill = &mut state.held.spill[..];
                let cells = arrivals.windows(&rows);
                for (&(s0, s1), cells) in ranges.iter().zip(cells) {
                    let n = s1 - s0;
                    let (w, wr) = words.split_at_mut(n * stride);
                    words = wr;
                    let (sp, spr) = spill.split_at_mut(n);
                    spill = spr;
                    shard_states.push(Mutex::new(ShardSlices {
                        start: s0,
                        words: w,
                        spill: sp,
                        cells,
                    }));
                }
            }
            let barrier_start = Barrier::new(workers + 1);
            let barrier_end = Barrier::new(workers + 1);

            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let (shard_states, claim) = (&shard_states, &claim);
                    let (send_local, arr_local) = (&send_local, &arr_local);
                    let (barrier_start, barrier_end) = (&barrier_start, &barrier_end);
                    let (slot_cell, remaining, dup, slot_deliv, anomaly) =
                        (&slot_cell, &remaining, &dup, &slot_deliv, &anomaly);
                    scope.spawn(move || loop {
                        barrier_start.wait();
                        let ts = slot_cell.load(Ordering::Acquire);
                        if ts == u64::MAX {
                            break;
                        }
                        let ra = ts.checked_sub(1).map(|a| tbl.residue(a));
                        let js = tbl.residue(ts);
                        while let Some(i) = claim.claim(k) {
                            let mut guard = shard_states[i].lock().expect("shard lock");
                            let st = &mut *guard;
                            for e in ra.map_or(&[][..], |ra| &arr_local[i][ra]) {
                                let Some(seq) = e.delivers(tbl.base, t0..u64::MAX, ts) else {
                                    continue;
                                };
                                deliver_shard(
                                    st,
                                    stride,
                                    track,
                                    ts,
                                    e.to as usize,
                                    seq,
                                    is_receiver,
                                    remaining,
                                    dup,
                                    slot_deliv,
                                );
                            }
                            for e in &send_local[i][js] {
                                let Some(seq) = tbl.seq_sent(e, js, ts) else {
                                    continue;
                                };
                                if !e.from.is_source() {
                                    let li = e.from.index() - st.start;
                                    let w = seq / 64;
                                    let held = if w < stride as u64 {
                                        st.words[li * stride + w as usize] & (1u64 << (seq % 64))
                                            != 0
                                    } else {
                                        st.spill[li].contains(seq)
                                    };
                                    if !held {
                                        anomaly.store(true, Ordering::Relaxed);
                                    }
                                }
                            }
                        }
                        barrier_end.wait();
                    });
                }

                // Coordinator: per slot, sequential exchange phase, one
                // parallel round, then the stop check.
                while t < chunk_end {
                    *slots_run = t + 1;
                    let ra = t.checked_sub(1).map(|a| tbl.residue(a));
                    let js = tbl.residue(t);

                    // Exchange 1: ramp-phase ring leftovers. Applied
                    // before the round so replayed relays see them.
                    let batch = match t.checked_sub(1) {
                        Some(a) => ring.take(ring.cell_index(a)),
                        None => Vec::new(),
                    };
                    for &(to, packet) in &batch {
                        let mut guard = shard_states[shard_of(to.0)].lock().expect("shard lock");
                        deliver_shard(
                            &mut guard,
                            stride,
                            track,
                            t,
                            to.index(),
                            packet.seq(),
                            is_receiver,
                            &remaining,
                            &dup,
                            &slot_deliv,
                        );
                    }
                    ring.recycle(batch);

                    // Exchange 2: cross-shard precompiled traffic — the
                    // super-node backbone between clusters. Same-slot
                    // relays inside the receiving shard depend on these,
                    // so they land before the parallel round.
                    for e in ra.map_or(&[][..], |ra| &arr_cross[ra]) {
                        let Some(seq) = e.delivers(tbl.base, t0..u64::MAX, t) else {
                            continue;
                        };
                        let mut guard = shard_states[shard_of(e.to)].lock().expect("shard lock");
                        deliver_shard(
                            &mut guard,
                            stride,
                            track,
                            t,
                            e.to as usize,
                            seq,
                            is_receiver,
                            &remaining,
                            &dup,
                            &slot_deliv,
                        );
                    }

                    // Parallel round: workers claim shards and apply
                    // shard-local deliveries, then check the sends.
                    slot_cell.store(t, Ordering::Release);
                    claim.reset();
                    barrier_start.wait();
                    barrier_end.wait();

                    let sd = slot_deliv.swap(0, Ordering::Relaxed);
                    record_slot_deliveries(&cfg.telemetry, sd);
                    if cfg.stop_when_complete && remaining.load(Ordering::Relaxed) == 0 {
                        // The tracked window completed during this slot's
                        // deliveries; the full loop stops before this
                        // slot's sends, which are not booked.
                        stopped = true;
                        break;
                    }
                    // Residual collision probe while ramp arrivals are
                    // still in flight.
                    if t <= ring_live_until
                        && tbl.sends[js].iter().any(|e| {
                            tbl.seq_sent(e, js, t).is_some()
                                && ring.reserved(t + e.latency as u64 - 1, e.to)
                        })
                    {
                        anomaly.store(true, Ordering::Relaxed);
                    }
                    if anomaly.load(Ordering::Relaxed) {
                        break;
                    }
                    t += 1;
                }

                // Park the workers out of the round loop.
                slot_cell.store(u64::MAX, Ordering::Release);
                claim.reset();
                barrier_start.wait();
            });
        }

        stats.duplicate_deliveries += dup.load(Ordering::Relaxed);
        *remaining_io = remaining.load(Ordering::Relaxed);
        // A stop slot's sends never go out, so a holding check the
        // workers failed on them is no anomaly.
        if anomaly.load(Ordering::Relaxed) && !stopped {
            return SteadyEnd::Anomaly;
        }
        SteadyEnd::Done { send_end: t }
    }
}

/// Stateless façade over [`MegaEngine`] matching the
/// [`crate::Simulator`] API shape.
pub struct MegaSimulator;

impl MegaSimulator {
    /// Run `scheme` under `cfg` on a fresh single-shard [`MegaEngine`].
    pub fn run(scheme: &mut dyn Scheme, cfg: &SimConfig) -> Result<RunResult, CoreError> {
        MegaEngine::new().run(scheme, cfg)
    }

    /// Run `scheme` under `cfg` on a fresh [`MegaEngine`] with `shards`
    /// in-run shards. Bit-identical to [`MegaSimulator::run`].
    pub fn run_sharded(
        scheme: &mut dyn Scheme,
        cfg: &SimConfig,
        shards: usize,
    ) -> Result<RunResult, CoreError> {
        MegaEngine::with_shards(shards).run(scheme, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::diff_fields;
    use crate::FastSimulator;
    use clustream_core::{StateView, SOURCE};

    /// The engine-test chain, here *declaring* its periodicity so the
    /// steady-state path engages: from slot `n` on, every relay is
    /// active and the pattern repeats every slot with packet delta 1.
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
        fn schedule_period(&self) -> Option<SchedulePeriod> {
            Some(SchedulePeriod {
                warmup: self.n as u64,
                period: 1,
            })
        }
    }

    #[test]
    fn shard_ranges_split_and_boundaries() {
        assert_eq!(shard_ranges(10, 1, None), vec![(0, 10)]);
        assert_eq!(shard_ranges(10, 2, None), vec![(0, 5), (5, 10)]);
        // Natural cluster boundaries are respected exactly.
        let r = shard_ranges(22, 3, Some(vec![1, 8, 15]));
        assert_eq!(r, vec![(0, 8), (8, 15), (15, 22)]);
        // More shards than groups collapses to the group count.
        let r = shard_ranges(22, 8, Some(vec![8, 15]));
        assert_eq!(r, vec![(0, 8), (8, 15), (15, 22)]);
        // Equal split always covers 0..n contiguously.
        let r = shard_ranges(9, 4, None);
        assert_eq!(r.first().unwrap().0, 0);
        assert_eq!(r.last().unwrap().1, 9);
        for w in r.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }

    #[test]
    fn steady_replay_matches_fast_engine() {
        let cfg = SimConfig::until_complete(40, 500);
        let want = FastSimulator::run(&mut Chain { n: 6 }, &cfg).unwrap();
        let mut eng = MegaEngine::new();
        let got = eng.run(&mut Chain { n: 6 }, &cfg).unwrap();
        assert_eq!(diff_fields(&want, &got), Vec::<&str>::new());
        assert!(
            eng.steady_slots() > 0,
            "declared chain must engage steady mode"
        );
    }

    #[test]
    fn traced_steady_run_matches_fast_trace() {
        let cfg = SimConfig::until_complete(12, 200).traced();
        let want = FastSimulator::run(&mut Chain { n: 4 }, &cfg).unwrap();
        let mut eng = MegaEngine::new();
        let got = eng.run(&mut Chain { n: 4 }, &cfg).unwrap();
        assert!(eng.steady_slots() > 0);
        assert_eq!(diff_fields(&want, &got), Vec::<&str>::new());
        assert_eq!(want.trace, got.trace, "steady trace must be identical");
    }

    #[test]
    fn sharded_replay_is_bit_identical() {
        let cfg = SimConfig::until_complete(48, 800);
        let mut base_eng = MegaEngine::with_shards(1);
        let base = base_eng.run(&mut Chain { n: 9 }, &cfg).unwrap();
        assert!(base_eng.steady_slots() > 0);
        for k in [2usize, 3, 5] {
            let mut eng = MegaEngine::with_shards(k);
            let got = eng.run(&mut Chain { n: 9 }, &cfg).unwrap();
            assert_eq!(
                diff_fields(&base, &got),
                Vec::<&str>::new(),
                "shards = {k} diverged from shards = 1"
            );
            assert_eq!(eng.steady_slots(), base_eng.steady_slots());
        }
        // And the whole thing still equals the fast engine.
        let want = FastSimulator::run(&mut Chain { n: 9 }, &cfg).unwrap();
        assert_eq!(diff_fields(&want, &base), Vec::<&str>::new());
    }

    /// A scheme whose declaration is a lie: it only transmits on even
    /// slots but claims period 1. Verification must catch it and the
    /// run must fall back to (exact) full mode.
    struct EvenOnly;
    impl Scheme for EvenOnly {
        fn name(&self) -> String {
            "even-only".into()
        }
        fn num_receivers(&self) -> usize {
            1
        }
        fn transmissions(&mut self, slot: Slot, _: &dyn StateView, out: &mut Vec<Transmission>) {
            let t = slot.t();
            if t.is_multiple_of(2) {
                out.push(Transmission::local(SOURCE, NodeId(1), PacketId(t / 2)));
            }
        }
        fn schedule_period(&self) -> Option<SchedulePeriod> {
            Some(SchedulePeriod {
                warmup: 0,
                period: 1,
            })
        }
    }

    #[test]
    fn wrong_declaration_is_caught_by_verification() {
        let cfg = SimConfig {
            max_slots: 40,
            track_packets: 8,
            ..SimConfig::default()
        };
        let want = FastSimulator::run(&mut EvenOnly, &cfg).unwrap();
        let mut eng = MegaEngine::new();
        let got = eng.run(&mut EvenOnly, &cfg).unwrap();
        assert_eq!(diff_fields(&want, &got), Vec::<&str>::new());
        assert_eq!(
            eng.steady_slots(),
            0,
            "failed verification must keep the run in full mode"
        );
    }

    /// A declaration that *passes* verification but collides later: a
    /// one-shot long-latency send from slot 0 lands on the same arrival
    /// slot as a replayed steady send. The residual ring probe must
    /// abort the replay, and the full-mode re-run must reproduce the
    /// fast engine's error exactly.
    struct Colliding;
    impl Scheme for Colliding {
        fn name(&self) -> String {
            "colliding".into()
        }
        fn num_receivers(&self) -> usize {
            1
        }
        fn send_capacity(&self, node: NodeId) -> usize {
            if node.is_source() {
                2
            } else {
                1
            }
        }
        fn transmissions(&mut self, slot: Slot, _: &dyn StateView, out: &mut Vec<Transmission>) {
            let t = slot.t();
            if t == 0 {
                out.push(Transmission::remote(SOURCE, NodeId(1), PacketId(99), 40));
            }
            out.push(Transmission::local(SOURCE, NodeId(1), PacketId(t)));
        }
        fn schedule_period(&self) -> Option<SchedulePeriod> {
            Some(SchedulePeriod {
                warmup: 1,
                period: 1,
            })
        }
    }

    #[test]
    fn steady_anomaly_reruns_and_reproduces_fast_error() {
        let cfg = SimConfig {
            max_slots: 100,
            track_packets: 4,
            ..SimConfig::default()
        };
        let want = FastSimulator::run(&mut Colliding, &cfg).unwrap_err();
        let got = MegaSimulator::run(&mut Colliding, &cfg).unwrap_err();
        assert!(matches!(got, CoreError::ReceiveCollision { .. }), "{got}");
        assert_eq!(want.to_string(), got.to_string());
    }

    /// A genuinely period-3 schedule. A chain `S → 1 → … → n` streams
    /// one packet per slot (first hop latency 1, relays latency 5); next
    /// to it, every third slot, the source bursts three packets to a
    /// leaf `n + 1` at latencies 5, 6, 7, which land one per slot. Each
    /// relay starts with packet 0, so the ramp is the table clipped at
    /// packet 0 and the run hands off at slot 0; [`LateHandOff`] keeps
    /// ramp sends in flight at the hand-off.
    #[derive(Clone, Copy)]
    struct Burst {
        n: u32,
        /// Relay `n − 1` drops every packet `≡ 2 (mod 3)`: node `n`
        /// never completes and no table entry covers its gaps.
        gap: bool,
        /// A slot-0 send whose arrival at the leaf coincides with the
        /// latency-6 packet of the burst at `steady_from`.
        stray: bool,
    }

    impl Burst {
        fn warmup(&self) -> u64 {
            (5 * self.n as u64).next_multiple_of(3)
        }
        /// The end of the two verified periods: the first slot a
        /// declaration that runs full mode over its whole ramp replays.
        fn steady_from(&self) -> u64 {
            self.warmup() + 6
        }
    }

    impl Scheme for Burst {
        fn name(&self) -> String {
            format!("burst({})", self.n)
        }
        fn num_receivers(&self) -> usize {
            self.n as usize + 1
        }
        fn send_capacity(&self, node: NodeId) -> usize {
            if node.is_source() {
                5
            } else {
                1
            }
        }
        fn availability(&self) -> clustream_core::Availability {
            clustream_core::Availability::PreRecorded
        }
        fn transmissions(&mut self, slot: Slot, _: &dyn StateView, out: &mut Vec<Transmission>) {
            let t = slot.t();
            let leaf = NodeId(self.n + 1);
            if t == 0 && self.stray {
                let latency = self.steady_from() as u32 + 6;
                out.push(Transmission::remote(
                    SOURCE,
                    leaf,
                    PacketId(10_000),
                    latency,
                ));
            }
            out.push(Transmission::local(SOURCE, NodeId(1), PacketId(t)));
            for i in 1..self.n {
                let first = 1 + 5 * (i as u64 - 1);
                let skip = self.gap && i == self.n - 1 && (t - first.min(t)) % 3 == 2;
                if t >= first && !skip {
                    out.push(Transmission::remote(
                        NodeId(i),
                        NodeId(i + 1),
                        PacketId(t - first),
                        5,
                    ));
                }
            }
            if t.is_multiple_of(3) {
                for q in 0..3 {
                    out.push(Transmission::remote(
                        SOURCE,
                        leaf,
                        PacketId(t + q),
                        5 + q as u32,
                    ));
                }
            }
        }
        fn schedule_period(&self) -> Option<SchedulePeriod> {
            Some(SchedulePeriod {
                warmup: self.warmup(),
                period: 3,
            })
        }
    }

    /// [`Burst`] with its relays emitted last to first before the
    /// warmup: the same sends, so the same run, but no ramp slot with
    /// two relays is the table's. The run hands off at the warmup, a
    /// burst slot, with the burst of three slots earlier in flight: its
    /// latency-7 entry is the case where `blaze_start − latency`
    /// undercuts the hand-off.
    #[derive(Clone, Copy)]
    struct LateHandOff(Burst);

    impl Scheme for LateHandOff {
        fn name(&self) -> String {
            self.0.name()
        }
        fn num_receivers(&self) -> usize {
            self.0.num_receivers()
        }
        fn send_capacity(&self, node: NodeId) -> usize {
            self.0.send_capacity(node)
        }
        fn availability(&self) -> clustream_core::Availability {
            self.0.availability()
        }
        fn transmissions(&mut self, slot: Slot, view: &dyn StateView, out: &mut Vec<Transmission>) {
            self.0.transmissions(slot, view, out);
            if slot.t() < self.0.warmup() {
                let relay = |tx: &Transmission| !tx.from.is_source();
                if let (Some(a), Some(b)) =
                    (out.iter().position(relay), out.iter().rposition(relay))
                {
                    out[a..=b].reverse();
                }
            }
        }
        fn schedule_period(&self) -> Option<SchedulePeriod> {
            self.0.schedule_period()
        }
    }

    /// Mega at one and at two shards against the fast engine: the same
    /// result field for field, or the same error. Returns the outcome
    /// and the steady slots the one-shard run replayed.
    fn mega_equals_fast<S: Scheme + Clone>(
        scheme: S,
        cfg: &SimConfig,
    ) -> (Result<RunResult, CoreError>, u64) {
        let want = FastSimulator::run(&mut scheme.clone(), cfg);
        let mut steady = 0;
        for shards in [2, 1] {
            let mut eng = MegaEngine::with_shards(shards);
            let got = eng.run(&mut scheme.clone(), cfg);
            match (&want, &got) {
                (Ok(w), Ok(g)) => {
                    assert_eq!(diff_fields(w, g), Vec::<&str>::new(), "shards {shards}")
                }
                (Err(w), Err(g)) => assert_eq!(w.to_string(), g.to_string(), "shards {shards}"),
                _ => panic!("shards {shards}: {:?} vs {:?}", want.is_ok(), got.is_ok()),
            }
            steady = eng.steady_slots();
        }
        (want, steady)
    }

    #[test]
    fn period_three_hand_off_with_ramp_sends_in_flight_matches_fast() {
        let scheme = Burst {
            n: 4,
            gap: false,
            stray: false,
        };
        // To completion, and to a fixed horizon.
        let t0 = scheme.steady_from();
        for cfg in [
            SimConfig::until_complete(60, 400),
            SimConfig {
                max_slots: t0 + 20,
                track_packets: 28,
                ..SimConfig::default()
            },
        ] {
            // The ramp is the clipped table: every slot is replayed.
            let (res, steady) = mega_equals_fast(scheme, &cfg);
            let res = res.unwrap();
            assert_eq!(res.duplicate_deliveries, 0);
            assert_eq!(steady, res.slots_run);
            // Handing off at the warmup, every slot from there on was
            // replayed: the ring's last reservation, not its window,
            // bounds the careful gear.
            let (late, steady) = mega_equals_fast(LateHandOff(scheme), &cfg);
            assert_eq!(diff_fields(&res, &late.unwrap()), Vec::<&str>::new());
            assert_eq!(steady, res.slots_run - scheme.warmup());
        }
    }

    /// What a recorder attached to `cfg` holds after `run`, the
    /// wall-clock span aside.
    fn snapshot_of(
        cfg: &SimConfig,
        run: impl FnOnce(&SimConfig),
    ) -> clustream_telemetry::MetricsSnapshot {
        let (rec, tel) = clustream_telemetry::MemoryRecorder::handle();
        run(&cfg.clone().with_telemetry(tel));
        let mut snap = rec.snapshot();
        snap.spans.clear();
        snap
    }

    /// The per-slot series does not say which gear counted it: reference
    /// ≡ fast ≡ mega (one shard: the analytic gear's tally; two: the
    /// sharded loop) on a period-3, latency-5 table handing off at slot
    /// 0 and at a slot with ramp sends in flight (the `s_min` clamp),
    /// on the period-1 chain
    /// and on a delay line whose receiver holds a packet ahead of the
    /// replay — to completion, to a horizon that ends mid-replay, and
    /// over more steady slots than one tally window holds.
    #[test]
    fn every_gear_records_the_slot_loops_series() {
        use clustream_telemetry::names as tm;
        const BURST: Burst = Burst {
            n: 4,
            gap: false,
            stray: false,
        };
        let t0 = BURST.steady_from();
        let fixed = |max_slots, track_packets| SimConfig {
            max_slots,
            track_packets,
            ..SimConfig::default()
        };
        let long = 2 * TALLY_WINDOW as u64 + 500;
        type Build = fn() -> Box<dyn Scheme>;
        let burst: Build = || Box::new(BURST);
        let ahead: Build = || {
            Box::new(DelayLine {
                ahead: Some(20),
                ..DelayLine::plain()
            })
        };
        let late: Build = || Box::new(LateHandOff(BURST));
        let cases: [(Build, SimConfig); 10] = [
            (burst, SimConfig::until_complete(60, 400)),
            (late, SimConfig::until_complete(60, 400)),
            (burst, fixed(t0 + 20, 28)),
            (burst, SimConfig::until_complete(long, 2 * long)),
            (burst, fixed(t0 + long, 28)),
            (
                || Box::new(Chain { n: 6 }),
                SimConfig::until_complete(40, 500),
            ),
            (|| Box::new(Chain { n: 7 }), fixed(60, 50)),
            (|| Box::new(Chain { n: 3 }), fixed(long, 8)),
            // A row held past its first replayed seq: the replay's
            // duplicate-checked deliveries and its closed-form ones.
            (ahead, SimConfig::until_complete(200, 400)),
            (ahead, fixed(long, 200)),
        ];
        for (scheme, cfg) in &cases {
            let want = snapshot_of(cfg, |c| {
                crate::Simulator::run(scheme().as_mut(), c).unwrap();
            });
            let fast = snapshot_of(cfg, |c| {
                FastSimulator::run(scheme().as_mut(), c).unwrap();
            });
            assert_eq!(want, fast, "reference vs fast, {cfg:?}");
            for shards in [1, 2] {
                let mut steady = 0;
                let got = snapshot_of(cfg, |c| {
                    let mut eng = MegaEngine::with_shards(shards);
                    eng.run(scheme().as_mut(), c).unwrap();
                    steady = eng.steady_slots();
                });
                assert!(steady > 0, "{cfg:?}: the steady table never ran");
                assert_eq!(want, got, "reference vs mega × {shards}, {cfg:?}");
            }
            let h = &want.histograms[tm::ENGINE_SLOT_DELIVERIES];
            assert_eq!(h.count, want.counter(tm::ENGINE_SLOTS), "one sample a slot");
            assert_eq!(h.sum, want.counter(tm::ENGINE_DELIVERIES));
        }
    }

    #[test]
    fn steady_send_colliding_with_a_ramp_arrival_reproduces_fast_error() {
        let scheme = Burst {
            n: 4,
            gap: false,
            stray: true,
        };
        let (res, _) = mega_equals_fast(scheme, &SimConfig::until_complete(60, 400));
        let leaf = NodeId(5);
        assert!(
            matches!(res, Err(CoreError::ReceiveCollision { node, slot, .. })
                if node == leaf && slot.t() == scheme.steady_from() + 5),
            "{res:?}"
        );
    }

    #[test]
    fn stop_calc_answers_cannot_complete() {
        // The horizon ends before the tracked window does…
        let whole = Burst {
            n: 4,
            gap: false,
            stray: false,
        };
        let short = SimConfig::until_complete(60, whole.steady_from() + 20);
        let (res, steady) = mega_equals_fast(whole, &short);
        assert!(matches!(res, Err(CoreError::Hiccup { .. })), "{res:?}");
        assert_eq!(steady, short.max_slots);
        // …or a needed cell is one no table entry ever delivers.
        let gappy = Burst { gap: true, ..whole };
        let (res, steady) = mega_equals_fast(gappy, &SimConfig::until_complete(60, 400));
        assert!(
            matches!(res, Err(CoreError::Hiccup { node, packet, .. })
                if node == NodeId(4) && packet == PacketId(2)),
            "{res:?}"
        );
        assert_eq!(steady, 400);
    }

    #[test]
    fn full_mode_matches_fast_for_undeclared_schemes() {
        // Without a declaration the mega engine is the fast engine on
        // columnar state; exercise faults through it too.
        struct Undeclared {
            n: usize,
        }
        impl Scheme for Undeclared {
            fn name(&self) -> String {
                format!("undeclared({})", self.n)
            }
            fn num_receivers(&self) -> usize {
                self.n
            }
            fn transmissions(
                &mut self,
                slot: Slot,
                _: &dyn StateView,
                out: &mut Vec<Transmission>,
            ) {
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
        let clean = SimConfig::until_complete(16, 300);
        let want = FastSimulator::run(&mut Undeclared { n: 5 }, &clean).unwrap();
        let mut eng = MegaEngine::new();
        let got = eng.run(&mut Undeclared { n: 5 }, &clean).unwrap();
        assert_eq!(diff_fields(&want, &got), Vec::<&str>::new());
        assert_eq!(eng.steady_slots(), 0);

        let lossy = SimConfig::with_faults(16, 120, crate::faults::FaultPlan::loss(0.15, 7));
        let want = FastSimulator::run(&mut Undeclared { n: 5 }, &lossy).unwrap();
        let got = MegaSimulator::run(&mut Undeclared { n: 5 }, &lossy).unwrap();
        assert_eq!(diff_fields(&want, &got), Vec::<&str>::new());
        assert_eq!(want.loss, got.loss);
    }

    #[test]
    fn faults_disable_lowering_even_when_declared() {
        // A declared scheme under a plan that can drop a transmission must
        // run fully live: the replay models neither the loss draws nor
        // crash suppression.
        for plan in [
            FaultPlan::loss(0.15, 7),
            FaultPlan::crash(NodeId(3), 9),
            FaultPlan::fail_stop(NodeId(3), 9),
        ] {
            let cfg = SimConfig::with_faults(12, 150, plan);
            let want = FastSimulator::run(&mut Chain { n: 6 }, &cfg).unwrap();
            let mut eng = MegaEngine::new();
            let got = eng.run(&mut Chain { n: 6 }, &cfg).unwrap();
            assert_eq!(eng.steady_slots(), 0, "{:?}", cfg.faults);
            assert_eq!(diff_fields(&want, &got), Vec::<&str>::new());
            assert_eq!(want.loss, got.loss);
        }
    }

    #[test]
    fn a_plan_that_only_reports_keeps_the_steady_gears() {
        let cfg = SimConfig::lossy_regime(12, 150);
        let want = FastSimulator::run(&mut Chain { n: 6 }, &cfg).unwrap();
        let mut eng = MegaEngine::new();
        let got = eng.run(&mut Chain { n: 6 }, &cfg).unwrap();
        assert_eq!(eng.steady_slots(), 150);
        assert_eq!(diff_fields(&want, &got), Vec::<&str>::new());
        assert!(got
            .loss
            .is_some_and(|l| l == crate::faults::LossReport::default()));
    }

    /// A period-1 delay line: the source streams packet `t` to node 1,
    /// which relays packet `t − 4` to node 2 from slot 4 on (the declared
    /// warmup). With holes or a direct stream, like [`Colliding`], a
    /// declaration that verification accepts and the steady state
    /// contradicts.
    struct DelayLine {
        /// Packets the source never sends node 1 (before the warmup, so
        /// the schedule is periodic from it all the same).
        holes: std::ops::Range<u64>,
        /// The source also streams packet `t` straight to node 2, so a
        /// relay that goes through collides with it.
        direct: bool,
        /// The relay's latency.
        latency: u32,
        /// A packet the source also sends node 2 at slot 1, long before
        /// the relay brings it.
        ahead: Option<u64>,
    }

    impl DelayLine {
        fn plain() -> DelayLine {
            DelayLine {
                holes: 0..0,
                direct: false,
                latency: 1,
                ahead: None,
            }
        }
    }

    impl Scheme for DelayLine {
        fn name(&self) -> String {
            "delay-line".into()
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
        fn transmissions(&mut self, slot: Slot, _: &dyn StateView, out: &mut Vec<Transmission>) {
            let t = slot.t();
            if !self.holes.contains(&t) {
                out.push(Transmission::local(SOURCE, NodeId(1), PacketId(t)));
            }
            if self.direct {
                out.push(Transmission::local(SOURCE, NodeId(2), PacketId(t)));
            }
            if let Some(seq) = self.ahead.filter(|_| t == 1) {
                out.push(Transmission::local(SOURCE, NodeId(2), PacketId(seq)));
            }
            if t >= 4 {
                out.push(Transmission::remote(
                    NodeId(1),
                    NodeId(2),
                    PacketId(t - 4),
                    self.latency,
                ));
            }
        }
        fn schedule_period(&self) -> Option<SchedulePeriod> {
            Some(SchedulePeriod {
                warmup: 4,
                period: 1,
            })
        }
    }

    #[test]
    fn a_hole_the_careful_gear_finds_falls_back_and_is_counted() {
        // Packet 3 never reaches node 1: slot 3 is not the table, so the
        // run hands off at the warmup, 4, and the relay of packet 3 at
        // slot 7 lies inside the careful gear (the relay's feed slack
        // keeps it checking until slot 8): the replay aborts, and the
        // full-mode re-run counts the suppression the fast engine
        // counts. At relay latency 3 the relays of slots 4 to 6 are
        // still in flight when the replay aborts.
        let cfg = SimConfig::lossy_regime(8, 40);
        let mut eng = MegaEngine::new();
        for latency in [1, 3] {
            let scheme = || DelayLine {
                holes: 3..4,
                latency,
                ..DelayLine::plain()
            };
            let want = FastSimulator::run(&mut scheme(), &cfg).unwrap();
            let got = eng.run(&mut scheme(), &cfg).unwrap();
            assert_eq!(diff_fields(&want, &got), Vec::<&str>::new(), "{latency}");
            assert_eq!(eng.steady_slots(), 0, "the anomaly re-runs in full mode");
            let loss = got.loss.unwrap();
            assert_eq!(
                (loss.propagation_suppressed, loss.propagation_from_loss),
                (1, 1)
            );
            assert_eq!(loss.missing, [(NodeId(1), 1), (NodeId(2), 1)]);
        }

        // Without the hole the same run stays on the table.
        let mut whole = DelayLine::plain();
        let want = FastSimulator::run(&mut whole, &cfg).unwrap();
        let got = eng.run(&mut whole, &cfg).unwrap();
        assert_eq!(diff_fields(&want, &got), Vec::<&str>::new());
        assert_eq!(eng.steady_slots(), 40);
    }

    #[test]
    fn a_hole_past_the_window_at_the_stop_slot_is_no_anomaly() {
        // Node 1 misses packet 3, one past the tracked window. Node 2
        // completes the window with packet 2 at slot 7, the slot node 1
        // would relay packet 3: the run stops before that send, in fast
        // and at every shard count, so the replay runs to the stop.
        let cfg = SimConfig::until_complete(3, 40);
        let scheme = || DelayLine {
            holes: 3..4,
            ..DelayLine::plain()
        };
        let want = FastSimulator::run(&mut scheme(), &cfg).unwrap();
        assert_eq!(want.slots_run, 8);
        for shards in [2, 1] {
            let mut eng = MegaEngine::with_shards(shards);
            let got = eng.run(&mut scheme(), &cfg).unwrap();
            assert_eq!(
                diff_fields(&want, &got),
                Vec::<&str>::new(),
                "shards {shards}"
            );
            assert_eq!(eng.steady_slots(), 8 - 4, "shards {shards}");
        }
    }

    #[test]
    fn a_suppression_inside_the_verified_periods_keeps_full_mode() {
        // Node 1 misses packets 0 and 1, so both recorded relays are
        // suppressed; the first one it can make, at slot 6, collides with
        // the direct stream. Had the table taken the two suppressed slots
        // as verified, it would replay that relay without a receive check
        // and finish a run the fast engine fails.
        let scheme = || DelayLine {
            holes: 0..2,
            direct: true,
            ..DelayLine::plain()
        };
        let cfg = SimConfig::lossy_regime(8, 40);
        let want = FastSimulator::run(&mut scheme(), &cfg).unwrap_err();
        let mut eng = MegaEngine::new();
        let got = eng.run(&mut scheme(), &cfg).unwrap_err();
        assert!(
            matches!(got, CoreError::ReceiveCollision { node, slot, .. }
                if node == NodeId(2) && slot.t() == 6),
            "{got}"
        );
        assert_eq!(want.to_string(), got.to_string());
        assert_eq!(eng.steady_slots(), 0);
    }

    #[test]
    fn fixed_horizon_steady_run_flushes_in_flight_sends() {
        // No early stop: the run ends mid-steady-state with pattern
        // sends still in flight; the arithmetic flush must record them.
        let cfg = SimConfig {
            max_slots: 60,
            track_packets: 50,
            ..SimConfig::default()
        };
        let want = FastSimulator::run(&mut Chain { n: 7 }, &cfg).unwrap();
        let mut eng = MegaEngine::new();
        let got = eng.run(&mut Chain { n: 7 }, &cfg).unwrap();
        assert!(eng.steady_slots() > 0);
        assert_eq!(diff_fields(&want, &got), Vec::<&str>::new());
    }

    #[test]
    fn a_row_held_past_its_first_replayed_seq_replays_on_both_sides_of_its_held_end() {
        // Node 2 holds packet 20 from slot 2 on, so when the analytic gear
        // takes over (its first replayed seq is 5) its held end is 21: the
        // seqs below go through the held set, packet 20 a duplicate, and
        // the seqs from 21 on are fresh by construction.
        let scheme = || DelayLine {
            ahead: Some(20),
            ..DelayLine::plain()
        };
        let fixed = SimConfig {
            max_slots: 300,
            track_packets: 200,
            ..SimConfig::default()
        };
        for cfg in [SimConfig::until_complete(200, 400), fixed] {
            let want = FastSimulator::run(&mut scheme(), &cfg).unwrap();
            let mut eng = MegaEngine::new();
            let got = eng.run(&mut scheme(), &cfg).unwrap();
            assert!(eng.steady_slots() > 0, "{cfg:?}");
            assert_eq!(diff_fields(&want, &got), Vec::<&str>::new(), "{cfg:?}");
            assert_eq!(got.duplicate_deliveries, 1, "{cfg:?}");
        }
    }

    #[test]
    fn a_fixed_horizon_flush_records_the_last_send_in_flight() {
        // Relay latency 2: the relay at the last slot, `H − 1`, carries
        // packet `H − 5`, the last tracked one, and lands at arrival slot
        // `H = last_send + max_latency − 1` — the flush's last.
        let h = 40;
        let cfg = SimConfig {
            max_slots: h,
            track_packets: h - 4,
            ..SimConfig::default()
        };
        let scheme = || DelayLine {
            latency: 2,
            ..DelayLine::plain()
        };
        let want = FastSimulator::run(&mut scheme(), &cfg).unwrap();
        let mut eng = MegaEngine::new();
        let got = eng.run(&mut scheme(), &cfg).unwrap();
        assert!(eng.steady_slots() > 0);
        assert_eq!(diff_fields(&want, &got), Vec::<&str>::new());
        assert_eq!(
            got.arrivals.usable_slot(NodeId(2), PacketId(h - 5)),
            Some(Slot(h + 1))
        );
    }

    #[test]
    fn a_horizon_that_cuts_periodic_rows_stores_their_tails_as_fast_does() {
        // A multi-tree row's d classes arrive at d latenesses, so a
        // horizon inside the tracked window leaves a row's implied run at
        // its latest class's cut, and the replay stores the cells of the
        // earlier classes past it (a reports-only plan lists what never
        // arrived instead of failing).
        use clustream_multitree::{greedy_forest, MultiTreeScheme, StreamMode};
        let scheme =
            || MultiTreeScheme::new(greedy_forest(40, 3).unwrap(), StreamMode::PreRecorded);
        let cfg = SimConfig::lossy_regime(256, 150);
        let want = FastSimulator::run(&mut scheme(), &cfg).unwrap();
        let mut eng = MegaEngine::new();
        let got = eng.run(&mut scheme(), &cfg).unwrap();
        assert!(eng.steady_slots() > 0);
        assert_eq!(diff_fields(&want, &got), Vec::<&str>::new());
        assert_eq!(want.loss, got.loss);
    }

    #[test]
    fn the_analytic_gear_leaves_the_held_set_stride_alone() {
        // 2548 steady slots of a period-1 chain replay seqs past 2500;
        // none of them goes into the held set, which keeps the one word
        // per node that tracking 8 packets sized it to.
        let cfg = SimConfig {
            max_slots: 2 * TALLY_WINDOW as u64 + 500,
            track_packets: 8,
            ..SimConfig::default()
        };
        let mut eng = MegaEngine::new();
        let got = eng.run(&mut Chain { n: 3 }, &cfg).unwrap();
        let want = FastSimulator::run(&mut Chain { n: 3 }, &cfg).unwrap();
        assert_eq!(diff_fields(&want, &got), Vec::<&str>::new());
        assert!(eng.steady_slots() > 2 * TALLY_WINDOW as u64);
        let mut fresh = ColumnarHeld::default();
        fresh.reset(4, 8);
        assert_eq!(eng.kernel.state.held.stride, fresh.stride);
    }

    /// A live line `S → 1 → 2`, node 3 an id no receiver, declaring
    /// period 2 from slot 12 on; each knob adds what the lowering must
    /// catch. A knob's sends carry packets from 0 up from the slot they
    /// start at (`eager`'s from 1 up from slot 0), so they are in the
    /// table and, but for `spur`, the ramp is the table clipped at
    /// packet 0.
    #[derive(Clone, Copy, Default)]
    struct Line {
        /// At slot 5 only, one more send to node 3: `(sender, packet)`.
        spur: Option<(u32, u64)>,
        /// Asks whether node 1 holds packet 0 at slot 1.
        peeks: bool,
        /// At odd slots from 11 on, node 1 also sends node 3 packet
        /// `t − 10`: two sends at its capacity of one.
        overrun: bool,
        /// At even slots from 10 on, the source also sends node 2
        /// packet `t − 10`, arriving with the relay.
        collide: bool,
        /// At every slot the source also sends node 3 packet `t + 1`,
        /// which the live stream has not produced yet.
        eager: bool,
    }

    impl Scheme for Line {
        fn name(&self) -> String {
            "line".into()
        }
        fn num_receivers(&self) -> usize {
            2
        }
        fn id_space(&self) -> usize {
            4
        }
        fn send_capacity(&self, node: NodeId) -> usize {
            if node.is_source() {
                2
            } else {
                1
            }
        }
        fn availability(&self) -> clustream_core::Availability {
            clustream_core::Availability::Live
        }
        fn transmissions(&mut self, slot: Slot, view: &dyn StateView, out: &mut Vec<Transmission>) {
            let t = slot.t();
            if self.peeks && t == 1 {
                let _ = view.holds(NodeId(1), PacketId(0));
            }
            out.push(Transmission::local(SOURCE, NodeId(1), PacketId(t)));
            if self.eager {
                out.push(Transmission::local(SOURCE, NodeId(3), PacketId(t + 1)));
            }
            if t >= 1 {
                out.push(Transmission::local(NodeId(1), NodeId(2), PacketId(t - 1)));
            }
            if self.overrun && t % 2 == 1 && t >= 11 {
                out.push(Transmission::local(NodeId(1), NodeId(3), PacketId(t - 10)));
            }
            if self.collide && t.is_multiple_of(2) && t >= 10 {
                out.push(Transmission::local(SOURCE, NodeId(2), PacketId(t - 10)));
            }
            if let Some((from, packet)) = self.spur.filter(|_| t == 5) {
                out.push(Transmission::local(
                    NodeId(from),
                    NodeId(3),
                    PacketId(packet),
                ));
            }
        }
        fn schedule_period(&self) -> Option<SchedulePeriod> {
            Some(SchedulePeriod {
                warmup: 12,
                period: 2,
            })
        }
    }

    #[test]
    fn a_ramp_off_the_clipped_table_hands_off_at_the_warmup() {
        let cfg = SimConfig::until_complete(24, 200);
        let line = Line::default();
        let (res, steady) = mega_equals_fast(line, &cfg);
        assert_eq!(
            steady,
            res.unwrap().slots_run,
            "the plain line hands off at 0"
        );
        // One more send at ramp slot 5 moves the hand-off to the
        // warmup…
        let spur = Line {
            spur: Some((0, 5)),
            ..line
        };
        let (res, steady) = mega_equals_fast(spur, &cfg);
        assert_eq!(steady, res.unwrap().slots_run - 12);
        // …and one of a packet its sender does not hold fails in the
        // full-mode ramp, as in fast.
        let unheld = Line {
            spur: Some((2, 99)),
            ..line
        };
        let (res, steady) = mega_equals_fast(unheld, &cfg);
        assert!(
            matches!(res, Err(CoreError::PacketNotHeld { node, slot, .. })
                if node == NodeId(2) && slot.t() == 5),
            "{res:?}"
        );
        assert_eq!(steady, 0);
    }

    #[test]
    fn a_scheme_that_reads_the_view_is_not_lowered() {
        let cfg = SimConfig::until_complete(24, 200);
        let peeks = Line {
            peeks: true,
            ..Line::default()
        };
        let (res, steady) = mega_equals_fast(peeks, &cfg);
        res.unwrap();
        assert_eq!(steady, 0, "a read of the holdings voids the lowering");
    }

    #[test]
    fn a_table_failing_a_static_check_runs_full_mode_into_fasts_error() {
        // Each fault lies in a table every ramp slot matches, so the run
        // would hand off at 0 and no slot would be admitted: only the
        // static checks can see it.
        let cfg = SimConfig::until_complete(24, 200);
        let line = Line::default();
        let cases = [
            (
                Line {
                    overrun: true,
                    ..line
                },
                "send capacity",
                11,
            ),
            (
                Line {
                    collide: true,
                    ..line
                },
                "receive collision",
                10,
            ),
            (
                Line {
                    eager: true,
                    ..line
                },
                "not yet produced",
                0,
            ),
        ];
        for (scheme, what, at) in cases {
            let (res, steady) = mega_equals_fast(scheme, &cfg);
            let err = res.unwrap_err();
            let slot = match err {
                CoreError::SendCapacityExceeded { slot, .. } => slot,
                CoreError::ReceiveCollision { slot, .. } => slot,
                CoreError::PacketNotProduced { slot, .. } => slot,
                _ => panic!("{what}: {err}"),
            };
            assert_eq!(slot.t(), at, "{what}: {err}");
            assert_eq!(steady, 0, "{what}");
        }
    }

    #[test]
    fn every_multi_tree_hands_off_at_slot_0() {
        use clustream_multitree::{build_forest, Construction, MultiTreeScheme, StreamMode};
        let fixed = SimConfig {
            max_slots: 60,
            track_packets: 32,
            ..SimConfig::default()
        };
        // The last: a run that completes inside what used to be the
        // full-mode ramp (the two verified periods past the warmup).
        let horizons = [
            SimConfig::until_complete(32, 10_000),
            fixed,
            SimConfig::until_complete(1, 10_000),
        ];
        for d in [2, 3] {
            for construction in [Construction::Greedy, Construction::Structured] {
                for mode in [
                    StreamMode::PreRecorded,
                    StreamMode::LivePrebuffered,
                    StreamMode::LivePipelined,
                ] {
                    let forest = build_forest(40, d, construction).unwrap();
                    let scheme = MultiTreeScheme::new(forest, mode);
                    let ramp_end = scheme.schedule_period().unwrap().warmup + 2 * d as u64;
                    for cfg in &horizons {
                        let (res, steady) = mega_equals_fast(scheme.clone(), cfg);
                        let res = res.unwrap();
                        assert_eq!(steady, res.slots_run, "d {d} {construction:?} {mode:?}");
                        if cfg.track_packets == 1 {
                            assert!(res.slots_run < ramp_end, "d {d} {mode:?}");
                        }
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// `compile` buckets the deliveries by receiver and sorts each
        /// bucket by class: with distinct `(receiver, class)` keys that is
        /// the one order a sort of the whole table by key gives.
        #[test]
        fn compile_orders_the_entries_by_key(
            period in 1u64..6,
            picks in proptest::collection::vec(
                ((0u32..24, 0u64..6), (0u64..6, 0u64..40), 1u32..4, 0u32..24),
                0..48,
            ),
        ) {
            let mut recorded = vec![Vec::new(); period as usize];
            let mut keys = std::collections::HashSet::new();
            for ((to, class), (j, k), latency, from) in picks {
                let (to, class) = (to + 1, class % period);
                if keys.insert((to, class)) {
                    recorded[(j % period) as usize].push(Transmission::remote(
                        NodeId(from),
                        NodeId(to),
                        PacketId(class + period * k),
                        latency,
                    ));
                }
            }
            let mut want: Vec<ArrEntry> = recorded
                .iter()
                .enumerate()
                .flat_map(|(j, slot)| {
                    slot.iter().map(move |tx| ArrEntry {
                        from: tx.from.0,
                        to: tx.to.0,
                        packet0: tx.packet.seq(),
                        latency: tx.latency,
                        class: (tx.packet.seq() % period) as u32,
                        j: j as u64,
                    })
                })
                .collect();
            want.sort_unstable_by_key(ArrEntry::key);
            let lowering = Lowering {
                warmup: 0,
                period,
                recorded,
            };
            proptest::prop_assert_eq!(lowering.compile().entries, want);
        }

        /// Every row's fresh point equals a slot-by-slot scan: each
        /// entry's sends stepped one slot at a time from the later of the
        /// hand-off and `blaze_start − L` to the first of its residue
        /// whose packet is not below 0, that packet rounded down to a
        /// whole period; the latest of those and the row's held end,
        /// capped at the track.
        #[test]
        fn fresh_points_match_a_slot_by_slot_scan(
            period in 1u64..6,
            base in 0u64..20,
            at_base in proptest::prelude::any::<bool>(),
            blaze in 0u64..40,
            track in 1u64..120,
            picks in proptest::collection::vec(
                ((0u32..12, 0u64..6), (0u64..6, 0u64..40), 1u32..9),
                0..40,
            ),
            held in proptest::collection::vec(0u64..130, 13),
        ) {
            let mut recorded = vec![Vec::new(); period as usize];
            for ((to, class), (j, k), latency) in picks {
                recorded[(j % period) as usize].push(Transmission::remote(
                    NodeId(0),
                    NodeId(to + 1),
                    PacketId(class % period + period * k),
                    latency,
                ));
            }
            let mut tbl = Lowering {
                warmup: base,
                period,
                recorded,
            }
            .compile();
            tbl.hand_off = if at_base { base } else { 0 };
            let blaze_start = tbl.hand_off + blaze;
            let want: Vec<u32> = tbl
                .rows()
                .map(|group| {
                    let replayed = group.iter().map(|e| {
                        let at = base + e.j;
                        let mut s = blaze_start
                            .saturating_sub(e.latency as u64)
                            .max(tbl.hand_off);
                        while s % period != at % period || e.packet0 + s < at {
                            s += 1;
                        }
                        let seq = e.packet0 + s - at;
                        seq - seq % period
                    });
                    let fresh = replayed.fold(held[group[0].to as usize], u64::max);
                    fresh.min(track) as u32
                })
                .collect();
            let replay = tbl.replay(blaze_start);
            let got: Vec<u32> = tbl
                .rows()
                .map(|g| replay.fresh_point(g, held[g[0].to as usize], track) as u32)
                .collect();
            proptest::prop_assert_eq!(got, want);
        }
    }
}
