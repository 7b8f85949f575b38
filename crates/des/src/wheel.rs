//! The hierarchical timing wheel — the fast [`EventQueue`] — and the
//! lockstep [`CheckedQueue`] oracle that proves it pops the identical
//! sequence as the binary heap.
//!
//! # Structure
//!
//! Three wheel levels of 1024 power-of-two tick buckets each, plus a
//! calendar fallback for events beyond the wheel horizon:
//!
//! | level    | bucket width  | span from cursor        |
//! |----------|---------------|-------------------------|
//! | L0       | 1 tick        | 2¹⁰ ticks (one slot)    |
//! | L1       | 2¹⁰ ticks     | 2²⁰ ticks (1024 slots)  |
//! | L2       | 2²⁰ ticks     | 2³⁰ ticks (~10⁶ slots)  |
//! | calendar | 2³⁰ ticks     | unbounded (`BTreeMap`)  |
//!
//! A push lands in the innermost level whose current window contains its
//! fire time — an O(1) append. Each level keeps an occupancy bitmap
//! (`[u64; 16]`), so finding the next non-empty bucket is a handful of
//! `trailing_zeros` scans rather than a walk over 1024 `Vec`s. When the
//! cursor exhausts a level's window, the next outer bucket **cascades**:
//! its entries are redistributed one level down (L2 → L1 → L0, calendar →
//! L2). An L0 bucket holds exactly one tick, so draining it yields the
//! whole same-tick batch at once.
//!
//! # Allocation
//!
//! Event payloads live in a free-list **arena** (`Vec<EventKind>` slots +
//! recycled indices), and an L0 bucket, revisited every window, keeps its
//! `Vec`: a push into the current slot window reuses a freed slot and a
//! bucket that has already grown, so its cost is two array writes and a
//! bitmap OR — no allocator traffic, no `O(log n)` sift, no 48-byte
//! `Event` moves through a heap.
//!
//! An L1/L2 bucket is visited once per 2²⁰ (2³⁰) ticks — once per run, in
//! practice — so a cascade frees its drained `Vec`, and an outer bucket
//! allocates on its first push: one allocation per occupied outer bucket
//! per visit, sized by what that bucket holds, so bucket memory follows
//! the live entries, not the run length. Handing drained `Vec`s on to
//! whichever empty outer bucket asks next would not: each reused `Vec`
//! grows to the largest one-slot batch, and one is held per outer bucket
//! open at once, so a few timers spread far ahead keep the capacity of
//! as many full slots. Which allocation backs a bucket is invisible to
//! the pop order.
//!
//! # Determinism argument
//!
//! The engine requires pops in ascending `(time, class, seq)` order. The
//! wheel reproduces it exactly:
//!
//! * **time** — the cursor only moves forward (the engine never schedules
//!   into the past; see the [`EventQueue`] push contract), bucket scans
//!   start at the cursor, and a cascade never moves an entry to a bucket
//!   the cursor has passed. The inner-level scans restart *inclusively*
//!   at the cursor position because a cascade can land entries in the
//!   bucket the cursor already points at (time == now is legal).
//! * **seq within a bucket** — every bucket `Vec` is append-only and is
//!   filled in strictly increasing seq order: direct pushes append in
//!   push (= seq) order, and a bucket receives its one cascade *before*
//!   any direct push can target it (a push only lands in a level whose
//!   window contains the cursor, and the cursor only enters a window by
//!   performing that cascade). Cascades iterate in order, so the
//!   invariant is preserved level to level.
//! * **class within a tick** — draining an L0 bucket splits its (seq-
//!   sorted) entries into eight per-class FIFO lanes; popping takes the
//!   lowest occupied class's front. Events pushed *at* the current tick
//!   while the batch drains (in relaxed runs: `PlaybackTick` schedules
//!   the slot's unthrottled `Send`s at its own fire time, recovery its
//!   `Nack`s and `RepairCommit`s; a strict run's tick pushes only future
//!   `Deliver`s and the next tick) append to their class lane
//!   and re-set its bit, which is exactly where the heap would surface
//!   them: after earlier same-class events, before any higher class.
//!
//! [`CheckedQueue`] turns this argument into a machine-checked one: it
//! feeds every push to both implementations and asserts, pop by pop, that
//! they return the identical [`Event`].

use crate::event::{Event, EventKind, EventQueue, HeapQueue, NUM_CLASSES};
use std::collections::{BTreeMap, HashSet};

/// log2 of the bucket count per level.
const LEVEL_BITS: u32 = 10;
/// Buckets per level.
const BUCKETS: usize = 1 << LEVEL_BITS;
/// Words per occupancy bitmap.
const WORDS: usize = BUCKETS / 64;
/// Wheel levels (L0..L2).
const LEVELS: usize = 3;
/// Ticks covered by the wheel proper; beyond this, the calendar.
const HORIZON_BITS: u32 = LEVEL_BITS * LEVELS as u32;
/// Low-bits mask for one level's bucket index.
const MASK: u64 = (BUCKETS - 1) as u64;

/// A scheduled entry: 24 bytes, payload out-of-line in the arena.
#[derive(Debug, Clone, Copy)]
struct Entry {
    time: u64,
    seq: u64,
    idx: u32,
    class: u8,
}

/// Free-list arena of event payloads. `alloc` overwrites the whole slot,
/// so a recycled slot can never leak a stale payload.
#[derive(Debug, Default)]
struct Arena {
    slots: Vec<EventKind>,
    free: Vec<u32>,
}

impl Arena {
    fn alloc(&mut self, kind: EventKind) -> u32 {
        if let Some(i) = self.free.pop() {
            self.slots[i as usize] = kind;
            i
        } else {
            let i = self.slots.len() as u32;
            self.slots.push(kind);
            i
        }
    }

    /// Return the payload and recycle the slot.
    fn take(&mut self, i: u32) -> EventKind {
        self.free.push(i);
        self.slots[i as usize]
    }
}

/// The current tick's events, split into per-class FIFO lanes. `mask`
/// tracks occupied classes; popping is `trailing_zeros` + lane front.
#[derive(Debug, Default)]
struct Batch {
    tick: u64,
    lanes: [Vec<(u64, u32)>; NUM_CLASSES],
    heads: [usize; NUM_CLASSES],
    mask: u8,
}

impl Batch {
    fn insert(&mut self, class: u8, seq: u64, idx: u32) {
        self.lanes[class as usize].push((seq, idx));
        self.mask |= 1 << class;
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        if self.mask == 0 {
            return None;
        }
        let c = self.mask.trailing_zeros() as usize;
        let front = self.lanes[c][self.heads[c]];
        self.heads[c] += 1;
        if self.heads[c] == self.lanes[c].len() {
            // Keep the lane's capacity: steady state reallocates nothing.
            self.lanes[c].clear();
            self.heads[c] = 0;
            self.mask &= !(1 << c);
        }
        Some(front)
    }
}

/// First set bit at index ≥ `from`, if any.
fn scan(words: &[u64; WORDS], from: usize) -> Option<usize> {
    let mut w = from >> 6;
    let mut bits = words[w] & (!0u64 << (from & 63));
    loop {
        if bits != 0 {
            return Some((w << 6) | bits.trailing_zeros() as usize);
        }
        w += 1;
        if w == WORDS {
            return None;
        }
        bits = words[w];
    }
}

/// Hierarchical timing wheel: O(1) push, amortized-O(1) pop, identical
/// pop order to [`HeapQueue`] (see the module docs for the argument and
/// `tests/queue_equivalence.rs` for the enforcement).
#[derive(Debug)]
pub struct WheelQueue {
    /// Cursor: the fire time of the current batch (monotone while events
    /// are live; rewound to `floor` when the queue drains empty).
    now: u64,
    /// Time of the last event `pop` actually returned — the push
    /// contract's floor. Skipping cancelled events can carry the cursor
    /// past this; an empty wheel rewinds to it so that every push a
    /// [`HeapQueue`] would accept is accepted here too.
    floor: u64,
    arena: Arena,
    /// `LEVELS × BUCKETS` bucket `Vec`s, flattened level-major.
    buckets: Vec<Vec<Entry>>,
    bitmap: [[u64; WORDS]; LEVELS],
    /// Calendar fallback, keyed by `time >> HORIZON_BITS`.
    overflow: BTreeMap<u64, Vec<Entry>>,
    batch: Batch,
    live: usize,
    next_seq: u64,
    pushed: u64,
    cancelled: HashSet<u64>,
}

impl Default for WheelQueue {
    fn default() -> Self {
        WheelQueue {
            now: 0,
            floor: 0,
            arena: Arena::default(),
            buckets: vec![Vec::new(); LEVELS * BUCKETS],
            bitmap: [[0; WORDS]; LEVELS],
            overflow: BTreeMap::new(),
            batch: Batch::default(),
            live: 0,
            next_seq: 0,
            pushed: 0,
            cancelled: HashSet::new(),
        }
    }
}

impl WheelQueue {
    /// An empty wheel with its cursor at tick 0.
    pub fn new() -> WheelQueue {
        WheelQueue::default()
    }

    /// Arena high-water mark: the most events ever live at once (pool
    /// slots are recycled, so this stays flat across repeated runs of the
    /// same workload — see the pool tests).
    pub fn pool_high_water(&self) -> usize {
        self.arena.slots.len()
    }

    /// File `e` (with `e.time ≥ self.now`, strictly later than the
    /// current batch tick unless cascading) into the innermost level
    /// whose window covers it.
    fn place(&mut self, e: Entry) {
        let t = e.time;
        debug_assert!(t >= self.now);
        let (level, bucket) = if t >> LEVEL_BITS == self.now >> LEVEL_BITS {
            (0, (t & MASK) as usize)
        } else if t >> (2 * LEVEL_BITS) == self.now >> (2 * LEVEL_BITS) {
            (1, ((t >> LEVEL_BITS) & MASK) as usize)
        } else if t >> HORIZON_BITS == self.now >> HORIZON_BITS {
            (2, ((t >> (2 * LEVEL_BITS)) & MASK) as usize)
        } else {
            self.overflow.entry(t >> HORIZON_BITS).or_default().push(e);
            return;
        };
        self.buckets[level * BUCKETS + bucket].push(e);
        self.bitmap[level][bucket >> 6] |= 1 << (bucket & 63);
    }

    /// Redistribute bucket `b` of `level` one level down, freeing its
    /// allocation.
    fn cascade(&mut self, level: usize, b: usize) {
        self.bitmap[level][b >> 6] &= !(1u64 << (b & 63));
        for e in std::mem::take(&mut self.buckets[level * BUCKETS + b]) {
            self.place(e);
        }
    }

    /// Move the cursor to the next occupied tick and load its batch.
    /// `false` when nothing is scheduled anywhere.
    fn advance(&mut self) -> bool {
        loop {
            // L0: the next occupied tick in the current slot window.
            // Inclusive of the cursor position — a cascade may have just
            // landed entries at time == now.
            if let Some(b) = scan(&self.bitmap[0], (self.now & MASK) as usize) {
                self.now = (self.now & !MASK) | b as u64;
                self.bitmap[0][b >> 6] &= !(1u64 << (b & 63));
                let mut bucket = std::mem::take(&mut self.buckets[b]);
                self.batch.tick = self.now;
                for e in bucket.drain(..) {
                    debug_assert_eq!(e.time, self.now);
                    self.batch.insert(e.class, e.seq, e.idx);
                }
                self.buckets[b] = bucket;
                return true;
            }
            // L1: cascade the next occupied 2¹⁰-tick bucket down to L0.
            if let Some(b) = scan(&self.bitmap[1], ((self.now >> LEVEL_BITS) & MASK) as usize) {
                self.now =
                    (self.now & !((1u64 << (2 * LEVEL_BITS)) - 1)) | ((b as u64) << LEVEL_BITS);
                self.cascade(1, b);
                continue;
            }
            // L2: cascade the next occupied 2²⁰-tick bucket down to L1.
            if let Some(b) = scan(
                &self.bitmap[2],
                ((self.now >> (2 * LEVEL_BITS)) & MASK) as usize,
            ) {
                self.now =
                    (self.now & !((1u64 << HORIZON_BITS) - 1)) | ((b as u64) << (2 * LEVEL_BITS));
                self.cascade(2, b);
                continue;
            }
            // Calendar: jump the cursor to the next occupied 2³⁰-tick
            // window and spread it over the wheel.
            let Some((key, mut bucket)) = self.overflow.pop_first() else {
                return false;
            };
            self.now = key << HORIZON_BITS;
            for e in bucket.drain(..) {
                self.place(e);
            }
        }
    }
}

impl EventQueue for WheelQueue {
    fn push(&mut self, time: u64, kind: EventKind) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed += 1;
        self.live += 1;
        debug_assert!(
            time >= self.now,
            "event scheduled in the past: {time} < cursor {}",
            self.now
        );
        let time = time.max(self.now);
        let class = kind.class();
        let idx = self.arena.alloc(kind);
        if time == self.now {
            // The current tick: straight into the live batch, where the
            // class lanes put it exactly where the heap would.
            self.batch.insert(class, seq, idx);
        } else {
            self.place(Entry {
                time,
                seq,
                idx,
                class,
            });
        }
        seq
    }

    fn pop(&mut self) -> Option<Event> {
        loop {
            while let Some((seq, idx)) = self.batch.pop() {
                let kind = self.arena.take(idx);
                self.live -= 1;
                if !self.cancelled.is_empty() && self.cancelled.remove(&seq) {
                    continue;
                }
                self.floor = self.batch.tick;
                return Some(Event {
                    time: self.batch.tick,
                    seq,
                    kind,
                });
            }
            if !self.advance() {
                // Draining tombstones may have advanced the cursor past
                // the last returned event; with nothing scheduled, rewind
                // so the push contract stays exactly the heap's.
                self.now = self.floor;
                self.batch.tick = self.floor;
                return None;
            }
        }
    }

    fn cancel(&mut self, seq: u64) {
        self.cancelled.insert(seq);
    }

    fn len(&self) -> usize {
        self.live
    }

    fn total_pushed(&self) -> u64 {
        self.pushed
    }
}

/// Heap and wheel in lockstep: every push goes to both, every pop asserts
/// both return the identical [`Event`]. The queue-level differential
/// oracle — the DES half of `simulate --check`, and what the acceptance
/// criterion "wheel is bit-identical to heap" means mechanically.
#[derive(Debug, Default)]
pub struct CheckedQueue {
    heap: HeapQueue,
    wheel: WheelQueue,
}

impl CheckedQueue {
    /// An empty lockstep pair.
    pub fn new() -> CheckedQueue {
        CheckedQueue::default()
    }
}

impl EventQueue for CheckedQueue {
    fn push(&mut self, time: u64, kind: EventKind) -> u64 {
        let seq = self.heap.push(time, kind);
        let wheel_seq = self.wheel.push(time, kind);
        debug_assert_eq!(seq, wheel_seq);
        seq
    }

    fn pop(&mut self) -> Option<Event> {
        let h = self.heap.pop();
        let w = self.wheel.pop();
        assert_eq!(
            h, w,
            "queue lockstep divergence: heap and wheel disagree on the next event"
        );
        h
    }

    fn cancel(&mut self, seq: u64) {
        self.heap.cancel(seq);
        self.wheel.cancel(seq);
    }

    fn len(&self) -> usize {
        let (h, w) = (self.heap.len(), self.wheel.len());
        assert_eq!(h, w, "queue lockstep divergence: depths disagree");
        h
    }

    fn total_pushed(&self) -> u64 {
        let (h, w) = (self.heap.total_pushed(), self.wheel.total_pushed());
        assert_eq!(h, w, "queue lockstep divergence: push counts disagree");
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustream_core::{NodeId, PacketId, SOURCE};

    fn deliver(to: u32, p: u64) -> EventKind {
        EventKind::Deliver {
            from: SOURCE,
            to: NodeId(to),
            packet: PacketId(p),
        }
    }

    /// Drive heap and wheel through the same schedule, asserting lockstep
    /// equality on every pop (and depth after every op).
    fn assert_lockstep(schedule: &[(u64, EventKind)]) -> Vec<Event> {
        let mut q = CheckedQueue::new();
        let mut out = Vec::new();
        for &(t, kind) in schedule {
            q.push(t, kind);
        }
        while let Some(e) = q.pop() {
            q.len();
            out.push(e);
        }
        out
    }

    #[test]
    fn spans_every_level_and_the_calendar() {
        // One event per structural regime, pushed shuffled.
        let schedule = [
            (1u64 << 35, EventKind::PlaybackTick), // calendar
            (5, deliver(1, 0)),                    // L0
            (1 << 25, deliver(4, 3)),              // L2
            (1 << 15, deliver(3, 2)),              // L1
            (0, deliver(9, 9)),                    // immediate
            (1023, deliver(2, 1)),                 // L0 window edge
        ];
        let out = assert_lockstep(&schedule);
        let times: Vec<u64> = out.iter().map(|e| e.time).collect();
        assert_eq!(times, vec![0, 5, 1023, 1 << 15, 1 << 25, 1 << 35]);
    }

    #[test]
    fn empty_bucket_cascade_skips_straight_to_the_occupied_tick() {
        // A single far event: every L1/L2 bucket it cascades through is
        // otherwise empty, so the bitmap scans must skip 1000+ empty
        // buckets per level without visiting them.
        let mut q = WheelQueue::new();
        let t = (7 << 20) + (13 << 10) + 977;
        q.push(t, EventKind::PlaybackTick);
        let e = q.pop().expect("the event survives two cascades");
        assert_eq!(e.time, t);
        assert!(q.pop().is_none());
    }

    #[test]
    fn event_exactly_at_the_cascade_boundary() {
        // now sits at the last tick of an L0 window; the next event fires
        // exactly at the first tick of the next window (the cascade
        // boundary), which an exclusive cursor scan would skip.
        let mut q = CheckedQueue::new();
        q.push(1023, deliver(1, 0));
        assert_eq!(q.pop().unwrap().time, 1023);
        q.push(1024, deliver(2, 1)); // exactly at the L0→L1 boundary
        q.push(1 << 20, deliver(3, 2)); // exactly at the L1→L2 boundary
        q.push(1 << 30, deliver(4, 3)); // exactly at the wheel horizon
        assert_eq!(q.pop().unwrap().time, 1024);
        assert_eq!(q.pop().unwrap().time, 1 << 20);
        assert_eq!(q.pop().unwrap().time, 1 << 30);
        assert!(q.pop().is_none());
    }

    #[test]
    fn cascaded_entries_keep_seq_order_within_a_tick() {
        // Two same-tick events far enough out to cascade through L2, plus
        // a same-tick direct push after the cursor arrives: pop order
        // must be pure seq order.
        let t = (1 << 22) + 7;
        let mut q = CheckedQueue::new();
        let a = q.push(t, deliver(1, 0));
        let b = q.push(t, deliver(2, 1));
        let first = q.pop().unwrap();
        assert_eq!((first.time, first.seq), (t, a));
        let c = q.push(t, deliver(3, 2)); // lands in the live batch
        assert_eq!(q.pop().unwrap().seq, b);
        assert_eq!(q.pop().unwrap().seq, c);
    }

    #[test]
    fn same_tick_lower_class_push_during_drain_fires_first() {
        // While draining tick t's Sends, a zero-latency Deliver pushed at
        // t must pop before the remaining Sends — class order beats push
        // order, exactly as the heap resolves it.
        let tx = clustream_core::Transmission::local(SOURCE, NodeId(1), PacketId(0));
        let mut q = CheckedQueue::new();
        q.push(64, EventKind::Send(tx));
        q.push(64, EventKind::Send(tx));
        assert_eq!(q.pop().unwrap().kind.class(), 5);
        q.push(64, deliver(1, 0)); // same tick, class 0
        assert_eq!(q.pop().unwrap().kind.class(), 0, "Deliver preempts");
        assert_eq!(q.pop().unwrap().kind.class(), 5);
    }

    #[test]
    fn max_tick_wraparound_is_ordered_not_lost() {
        let schedule = [
            (u64::MAX, EventKind::PlaybackTick),
            (u64::MAX - 1, deliver(1, 0)),
            (3, deliver(2, 1)),
            (u64::MAX, deliver(3, 2)),
        ];
        let out = assert_lockstep(&schedule);
        let keys: Vec<(u64, u8)> = out.iter().map(|e| (e.time, e.kind.class())).collect();
        assert_eq!(
            keys,
            vec![(3, 0), (u64::MAX - 1, 0), (u64::MAX, 0), (u64::MAX, 4)]
        );
    }

    #[test]
    fn pool_high_water_stays_flat_across_repeated_runs() {
        let mut q = WheelQueue::new();
        let mut peak = 0;
        for round in 0..50u64 {
            for i in 0..100 {
                q.push(round * 2048 + i, deliver(i as u32, i));
            }
            while q.pop().is_some() {}
            if round == 0 {
                peak = q.pool_high_water();
            }
            assert_eq!(
                q.pool_high_water(),
                peak,
                "round {round}: freed slots must be reused, not leaked"
            );
        }
        assert!(peak <= 100, "peak {peak} exceeds max live events");
    }

    #[test]
    fn recycled_slots_carry_no_stale_payload() {
        let mut q = WheelQueue::new();
        q.push(1, deliver(7, 99));
        assert_eq!(q.pop().unwrap().kind, deliver(7, 99));
        // The freed slot is recycled for a different kind entirely.
        q.push(2, EventKind::RepairCommit { failed: NodeId(3) });
        assert_eq!(q.pool_high_water(), 1, "slot must be recycled");
        assert_eq!(
            q.pop().unwrap().kind,
            EventKind::RepairCommit { failed: NodeId(3) }
        );
    }

    /// `Entry` capacity held by every bucket.
    fn retained_entries(q: &WheelQueue) -> usize {
        q.buckets.iter().map(Vec::capacity).sum()
    }

    #[test]
    fn bucket_memory_follows_the_live_window_not_the_run_length() {
        // 2000 slots of a steady stream: each slot's tick schedules 300
        // deliveries one to three slots out, so every L1 bucket along the
        // way is filled and cascaded. Were each to keep the allocation it
        // grew, the wheel would end up holding half a million entries.
        let mut q = WheelQueue::new();
        q.push(0, EventKind::PlaybackTick);
        let mut popped = 0u64;
        while let Some(e) = q.pop() {
            popped += 1;
            let slot = e.time >> LEVEL_BITS;
            if e.kind == EventKind::PlaybackTick && slot < 2000 {
                for i in 0..300u64 {
                    q.push(e.time + (1 + i % 3) * 1024 + i, deliver(i as u32, slot));
                }
                q.push(e.time + 1024, EventKind::PlaybackTick);
            }
        }
        assert_eq!(popped, 2000 * 301 + 1);
        let live = q.pool_high_water();
        assert!(live <= 3 * 300 + 2, "live window is three slots: {live}");
        let retained = retained_entries(&q);
        assert!(
            retained <= 4 * live,
            "{retained} retained entries for a live window of {live}"
        );
    }

    #[test]
    fn bucket_memory_follows_the_live_entries_not_the_largest_bucket() {
        // The `des_recovery` shape: each slot's tick schedules one large
        // batch of deliveries one slot out, spread over that slot's
        // ticks, and a few timers 50 to 150 slots ahead. Every outer
        // bucket a timer opens must cost what the timer holds, not what
        // the largest one-slot batch once needed.
        let mut q = WheelQueue::new();
        q.push(0, EventKind::PlaybackTick);
        let mut retained = 0;
        while let Some(e) = q.pop() {
            let slot = e.time >> LEVEL_BITS;
            if e.kind == EventKind::PlaybackTick && slot < 600 {
                let next = e.time + 1024;
                for i in 0..2000u64 {
                    q.push(next + i % 512, deliver(i as u32, slot));
                }
                for k in 0..3u64 {
                    let ahead = 50 + (slot * 37 + k * 31) % 100;
                    let timer = EventKind::SuspectTimeout {
                        watcher: NodeId(k as u32),
                        subject: NodeId(slot as u32),
                    };
                    q.push(e.time + ahead * 1024 + k, timer);
                }
                q.push(next, EventKind::PlaybackTick);
                retained = retained.max(retained_entries(&q));
            }
        }
        let live = q.pool_high_water();
        // Two batches overlap: a slot's tick schedules the next one
        // before its own deliveries past tick 0 have fired.
        assert!(live <= 2 * 2000 + 3 * 150 + 2, "live window: {live}");
        assert!(
            retained <= 4 * live,
            "{retained} retained entries for a live window of {live}"
        );
    }

    #[test]
    fn cancel_heavy_run_across_three_l1_windows_stays_lockstep() {
        // Three L1 windows back to back, so every L1 bucket is filled,
        // cascaded and filled again; two thirds of the events are
        // cancelled, so most cascaded entries are tombstones the drain
        // must skip without disturbing the order.
        let mut q = CheckedQueue::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut now = 0u64;
        let mut survivors = 0u64;
        let mut popped = 0u64;
        for round in 0..4 * 1024u64 {
            for i in 0..6 {
                let seq = q.push(now + 1 + next(8 * 1024), deliver(i, round));
                if i % 3 != 0 {
                    q.cancel(seq);
                } else {
                    survivors += 1;
                }
            }
            while let Some(e) = q.pop() {
                popped += 1;
                now = e.time;
                if q.len() < 24 {
                    break;
                }
            }
        }
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, survivors);
        assert!(q.is_empty());
        assert!(now >= 3 << (2 * LEVEL_BITS), "only reached tick {now}");
    }

    #[test]
    fn interleaved_push_pop_across_windows_stays_lockstep() {
        // A deterministic pseudo-random interleave (LCG) of pushes at
        // mixed distances and pops, all under the lockstep oracle.
        let mut q = CheckedQueue::new();
        let mut state = 0x2545f4914f6cdd1du64;
        let mut t = 0u64;
        for i in 0..5_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = state >> 33;
            let dt = match r % 5 {
                0 => 0,
                1 => r % 7,
                2 => r % 1024,
                3 => r % (1 << 14),
                _ => r % (1 << 32),
            };
            q.push(t + dt, deliver((r % 64) as u32, i));
            if r.is_multiple_of(3) {
                if let Some(e) = q.pop() {
                    t = e.time;
                }
            }
        }
        while q.pop().is_some() {}
        assert!(q.is_empty());
    }
}
