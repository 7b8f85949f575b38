//! The analytic gear's per-slot delivery tally is a fixed window, not
//! a word per slot of the horizon: a `#[global_allocator]` counts the
//! bytes a five-million-slot fixed-horizon mega run asks for.

use clustream_core::{
    NodeId, PacketId, SchedulePeriod, Scheme, Slot, StateView, Transmission, SOURCE,
};
use clustream_sim::{MegaEngine, SimConfig};
use clustream_telemetry::{names as tm, MemoryRecorder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes requested by this thread (tests run on threads of their
    /// own, so neither the harness nor a sibling test is counted).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain thread-local `Cell`
// with no destructor, so touching it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = BYTES.try_with(|n| n.set(n.get() + layout.size() as u64));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = BYTES.try_with(|n| n.set(n.get() + layout.size() as u64));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = BYTES.try_with(|n| n.set(n.get() + new_size as u64));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `S → 1 → 2`, one packet a slot: one relay, period 1 from slot 2 on.
struct OneRelay;

impl Scheme for OneRelay {
    fn name(&self) -> String {
        "one-relay".into()
    }
    fn num_receivers(&self) -> usize {
        2
    }
    fn transmissions(&mut self, slot: Slot, _: &dyn StateView, out: &mut Vec<Transmission>) {
        let t = slot.t();
        out.push(Transmission::local(SOURCE, NodeId(1), PacketId(t)));
        if t >= 1 {
            out.push(Transmission::local(NodeId(1), NodeId(2), PacketId(t - 1)));
        }
    }
    fn schedule_period(&self) -> Option<SchedulePeriod> {
        Some(SchedulePeriod {
            warmup: 2,
            period: 1,
        })
    }
}

#[test]
fn a_fixed_horizon_replay_does_not_allocate_a_word_per_slot() {
    const SLOTS: u64 = 5_000_000;
    let (recorder, tel) = MemoryRecorder::handle();
    let cfg = SimConfig {
        max_slots: SLOTS,
        track_packets: 8,
        ..SimConfig::default()
    }
    .with_telemetry(tel);
    let mut eng = MegaEngine::new();

    let before = BYTES.with(Cell::get);
    let res = eng.run(&mut OneRelay, &cfg).unwrap();
    let bytes = BYTES.with(Cell::get) - before;

    assert_eq!(res.slots_run, SLOTS);
    assert!(
        eng.steady_slots() > SLOTS - 16,
        "the analytic gear replayed {} slots",
        eng.steady_slots()
    );
    // The series is complete: one sample per slot, zeros included.
    let snap = recorder.snapshot();
    let h = &snap.histograms[tm::ENGINE_SLOT_DELIVERIES];
    assert_eq!(h.count, res.slots_run);
    assert_eq!(h.sum, snap.counter(tm::ENGINE_DELIVERIES));
    assert_eq!(h.sum, 2 * SLOTS - 3, "slot 0 sees nothing, slot 1 one");

    // A tally indexed by slot would be 8 bytes × 5 M = 38 MiB by itself.
    // The gear replays in windows of 1024 slots with the tally on the
    // stack, and the run, handing off at slot 0, never grows the held
    // set either: nothing grows with the horizon. Measured at 5 186
    // bytes; the bound leaves 10 % headroom (while the ramp ran in full
    // mode the held set grew once to a one-bit-per-slot stride, 3 × 1
    // MiB).
    assert!(
        bytes < 5_705,
        "a {SLOTS}-slot replay allocated {bytes} bytes"
    );
}
