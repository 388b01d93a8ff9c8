//! Counting global allocator: live bytes process-wide, allocations and bytes
//! requested per thread, with zero edits to the measured crates.
//!
//! Per-thread totals are plain thread-local cells, which is what the
//! single-threaded layer walk scopes its measurements with.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

static LIVE: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // Const-initialised and without destructors, so touching them from
    // inside the allocator never allocates or runs after teardown.
    static MY_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static MY_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(allocs: u64, bytes: u64, live: i64) {
    // Relaxed: a statistic; it publishes no other data.
    LIVE.fetch_add(live, Ordering::Relaxed);
    let _ = MY_ALLOCS.try_with(|c| c.set(c.get() + allocs));
    let _ = MY_BYTES.try_with(|c| c.set(c.get() + bytes));
}

/// The allocator installed by `main.rs`.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counting touches only an atomic and const-initialised
// thread-local cells and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as u64, layout.size() as i64);
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as u64, layout.size() as i64);
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, 0, -(layout.size() as i64));
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as u64, new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Bytes currently allocated and not yet freed, process-wide.
pub fn live_bytes() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// `(allocations, bytes requested)` made by the calling thread so far.
pub fn thread_totals() -> (u64, u64) {
    (MY_ALLOCS.with(Cell::get), MY_BYTES.with(Cell::get))
}
