//! The recovery layer's boundary under a counting `#[global_allocator]`:
//! neither an id taken from outside — a `Suspect { subject }` frame off
//! the wire — nor a repair buffer's capacity ever sizes an allocation.
//! Ids outside the detector's id space are ignored, and a repair buffer
//! grows with what it is told, not with its bound.

use clustream_recovery::{FailureDetector, RepairBuffer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes requested by this thread (tests run on threads of their
    /// own, so neither the harness nor a sibling test is counted).
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain thread-local `Cell`
// with no destructor, so touching it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = BYTES.try_with(|n| n.set(n.get().saturating_add(layout.size())));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = BYTES.try_with(|n| n.set(n.get().saturating_add(new_size)));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes `f` asks the allocator for on this thread.
fn bytes<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (BYTES.with(Cell::get) - before, out)
}

#[test]
fn a_suspicion_against_a_wire_sized_subject_allocates_nothing() {
    // The orchestrator's shape: a 2000-node cluster's id space, and a
    // `Suspect` frame naming a subject no node has.
    let mut d = FailureDetector::new(2001, 2, 0);
    let (n, confirmed) = bytes(|| {
        d.suspect(1, u32::MAX);
        d.suspect(2, u32::MAX);
        d.confirm(u32::MAX)
    });
    assert_eq!(n, 0, "suspect + confirm of subject u32::MAX allocated");
    assert!(!confirmed);
    assert_eq!(d.suspicion_count(u32::MAX), 0);
    assert!(!d.is_confirmed(u32::MAX));
    // Real subjects still tally and confirm.
    d.suspect(1, 2000);
    d.suspect(2, 2000);
    assert!(d.confirm(2000));
}

#[test]
fn an_unbounded_repair_buffer_costs_what_its_arrivals_cost() {
    let (n, mut buf) = bytes(|| RepairBuffer::new(2000, usize::MAX));
    assert_eq!(n, 0, "an empty buffer allocated");
    let (n, ()) = bytes(|| {
        for seq in 0..10 {
            buf.note(1999, seq);
        }
        buf.note(0, 3);
    });
    // One band of membership words (2000 × 8 B), one ring header per node
    // up to the highest noted, and the rings' few pushes: nothing scaled
    // by the capacity.
    assert!(n < 128 << 10, "{n} bytes for 11 notes");
    assert!((0..10).all(|seq| buf.contains(1999, seq)));
    assert!(buf.contains(0, 3) && !buf.contains(0, 4));
    // A node outside the id space buffers nothing and sizes nothing.
    let (n, ()) = bytes(|| buf.note(u32::MAX, 7));
    assert_eq!(n, 0);
    assert!(!buf.contains(u32::MAX, 7));
}
