//! The data path's heap budget, counted by a `#[global_allocator]`:
//! sending and receiving a `Packet` frame allocates nothing, and
//! `encode_body` allocates once.

use clustream_net::{read_frame, write_frame, Frame};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;

thread_local! {
    /// Allocations made by this thread (tests run on threads of their
    /// own, so neither the harness nor a sibling test is counted).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain thread-local `Cell`
// with no destructor, so touching it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

fn packet() -> Frame {
    Frame::Packet {
        from: 3,
        to: 4,
        packet: 5,
        slot: 6,
        sent_ns: 7,
        retransmit: false,
    }
}

#[test]
fn a_packet_frame_is_written_and_read_without_touching_the_heap() {
    let frame = packet();
    let mut wire = Vec::new();
    write_frame(&mut wire, &frame).unwrap();

    let (n, written) = allocations(|| write_frame(&mut io::sink(), &frame).unwrap());
    assert_eq!((n, written), (0, 38), "write_frame allocated");

    let (n, got) = allocations(|| read_frame(&mut wire.as_slice()).unwrap().unwrap());
    assert_eq!(n, 0, "read_frame allocated");
    assert_eq!(got, (frame, 38));
}

#[test]
fn encode_body_allocates_exactly_once() {
    for frame in [
        packet(),
        Frame::Config {
            payload: "p".repeat(4096),
        },
    ] {
        let (n, body) = allocations(|| frame.encode_body());
        assert_eq!(n, 1, "{} byte body", body.len());
    }
}
