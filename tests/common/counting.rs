//! The counting allocator of the budget suites (`tests/doc_budget.rs`,
//! `tests/flightrec_heap.rs`): every allocation is counted twice, into the
//! allocating thread's cells — so tests of one binary can run side by side —
//! and into one process-wide count of live bytes, for heap that is allocated
//! on one thread and freed on another. A binary installs it with
//! `#[global_allocator] static GLOBAL: Counting = Counting;`.
#![allow(dead_code)] // each binary reads the counts it needs

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

thread_local! {
    // Const-initialised and without destructors, so the allocator may touch
    // them at any point of a thread's life.
    /// Allocations (and reallocations) this thread made.
    pub static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread asked for.
    pub static REQUESTED: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated less bytes this thread freed.
    pub static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Live heap of the whole process, in bytes.
pub static PROCESS_LIVE: AtomicI64 = AtomicI64::new(0);

fn count(allocs: u64, requested: usize, live: i64) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + allocs));
    let _ = REQUESTED.try_with(|c| c.set(c.get() + requested as u64));
    let _ = LIVE.try_with(|c| c.set(c.get() + live));
    PROCESS_LIVE.fetch_add(live, Ordering::Relaxed);
}

pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counting touches only const-initialised
// thread-local cells and one atomic, and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size(), layout.size() as i64);
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, 0, -(layout.size() as i64));
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size, new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
