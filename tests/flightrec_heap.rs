//! What the flight recorder holds on the heap (DESIGN.md §12.2): a ring
//! costs what it holds, and an exited thread's ring is folded into one shared
//! retired ring, so memory is bounded by the threads recording now and not
//! by every thread that ever recorded.
//!
//! Rings are allocated on one thread and freed on another, so live heap is
//! counted process-wide by this binary's own allocator
//! (`tests/common/counting.rs`) — which is why these tests have a binary to
//! themselves, beside `tests/flightrec.rs`, and take turns in it
//! ([`in_turn`]).

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use dio_backend::{DocStore, StorageConfig};
use dio_telemetry::trace::{self, Attrs, FlightRecorder, TraceSpan};

#[path = "common/counting.rs"]
mod counting;
use counting::{Counting, PROCESS_LIVE as LIVE};

#[global_allocator]
static GLOBAL: Counting = Counting;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Runs `test` while no other runs, on a thread of its own, and returns once
/// that thread has exited: a ring it filled is folded and freed before the
/// next test reads the count, not while.
fn in_turn(test: impl FnOnce() + Send + 'static) {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    if let Err(panic) = std::thread::spawn(test).join() {
        std::panic::resume_unwind(panic);
    }
}

fn span(n: u64) -> TraceSpan {
    TraceSpan {
        trace_id: 1,
        span_id: n + 1,
        parent_id: 0,
        category: "heap",
        name: "heap.span",
        start_ns: n,
        end_ns: n + 1,
        thread: 0,
        emit_seq: 0,
        attrs: Attrs::default(),
    }
}

/// 64 threads that record one span each and exit leave one ring's worth of
/// spans behind — their newest — and not 64 rings.
#[test]
fn short_lived_threads_leave_one_ring_behind() {
    in_turn(sixty_four_threads);
}

fn sixty_four_threads() {
    const CAPACITY: usize = 16;
    const THREADS: u64 = 64;
    let recorder = Arc::new(FlightRecorder::new(CAPACITY, 7));
    let live = LIVE.load(Ordering::Relaxed);
    for n in 0..THREADS {
        let recorder = Arc::clone(&recorder);
        // Joined: the thread has exited, thread-local destructors and all.
        std::thread::spawn(move || recorder.record(span(n))).join().expect("recording thread");
    }
    let grown = LIVE.load(Ordering::Relaxed) - live;
    let bound = (CAPACITY * std::mem::size_of::<TraceSpan>() + 64 * 1_024) as i64;
    assert!(grown <= bound, "{THREADS} exited threads hold {grown} B of rings");

    let spans = recorder.snapshot();
    let newest: Vec<u64> = (THREADS - CAPACITY as u64..THREADS).map(|n| span(n).span_id).collect();
    assert_eq!(spans.iter().map(|s| s.span_id).collect::<Vec<_>>(), newest);
    assert_eq!(recorder.evicted(), THREADS - CAPACITY as u64);
    let mut threads: Vec<u32> = spans.iter().map(|s| s.thread).collect();
    threads.dedup();
    assert_eq!(threads.len(), CAPACITY, "every thread keeps a number of its own");
}

/// Every open of a persisted store runs eight shard threads that record one
/// recovery span each and exit. With the rings that outlive them filled to
/// their bound first, ten more opens hold no more heap than two did.
#[test]
fn reopening_a_store_does_not_grow_the_recorder() {
    in_turn(ten_opens);
}

fn ten_opens() {
    let dir = std::env::temp_dir().join(format!("dio-flightrec-heap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || DocStore::open_with(&dir, StorageConfig::default()).expect("open store");
    let store = open();
    store.bulk("dio-heap", (0..64).map(|n| serde_json::json!({ "n": n })).collect());
    store.flush().expect("flush");
    drop(store);

    // This thread's ring and the retired ring, both full: from here on the
    // recorder may replace spans, not add any.
    let fill = || (0..trace::recorder().capacity()).for_each(|_| drop(trace::span("heap", "fill")));
    fill();
    std::thread::spawn(fill).join().expect("filling thread");

    let grown_by_opens = |opens: usize| {
        let live = LIVE.load(Ordering::Relaxed);
        for _ in 0..opens {
            drop(open());
        }
        LIVE.load(Ordering::Relaxed) - live
    };
    let twice = grown_by_opens(2);
    let ten = grown_by_opens(10);
    let _ = std::fs::remove_dir_all(&dir);
    // Both read 0; the slack is for what the test harness may be doing
    // meanwhile. Eight rings of 4 096 slots were 13.9 MB an open.
    assert!(ten <= twice.max(0) + 4_096, "ten opens grew live heap by {ten} B, two by {twice} B");
}
