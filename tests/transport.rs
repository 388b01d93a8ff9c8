//! The transport between ring and bulk request (DESIGN.md, "Transport:
//! drains, not events"): how often an idle consumer wakes, how soon a burst
//! and a trickle reach the backend, and what the drain-granular hand-off
//! must not change — per-thread order, the bound on documents in flight.
//!
//! Wake-ups are checked by count (`tracer.consumer.polls`), not by timing.

use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dio::core::{
    DiskProfile, DocStore, Kernel, OpenFlags, Query, RingConfig, SearchRequest, StorageConfig,
    Tracer, TracerConfig,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::json;

fn fast_kernel() -> Kernel {
    Kernel::builder().root_disk(DiskProfile::instant()).build()
}

fn polls(tracer: &Tracer) -> u64 {
    tracer.health_snapshot().counter("tracer.consumer.polls")
}

/// Polls made while the session sits idle for 300 ms.
fn idle_polls(config: TracerConfig) -> u64 {
    let kernel = fast_kernel();
    let tracer = Tracer::attach(config, &kernel, DocStore::new());
    let before = polls(&tracer);
    std::thread::sleep(Duration::from_millis(300));
    let made = polls(&tracer) - before;
    tracer.stop();
    made
}

#[test]
fn idle_consumer_backs_off() {
    // A poll that finds the rings empty sleeps until the next push: no poll
    // in 300 ms but, should it fall inside them, the session's first. An
    // idle timer of flush_interval / 32 = 3.1 ms made about a hundred, a
    // fixed 200 µs sleep about 1 200.
    let made = idle_polls(TracerConfig::new("idle"));
    assert!(made <= 1, "an idle default consumer polled {made} times in 300 ms");
}

#[test]
fn paced_consumer_keeps_its_poll_interval() {
    // `poll_interval` above `flush_interval / 32` leaves nothing to back
    // off to: 300 ms / 10 ms, as before.
    let made = idle_polls(TracerConfig::new("paced").poll_interval(Duration::from_millis(10)));
    assert!((10..=35).contains(&made), "a 10 ms consumer polled {made} times in 300 ms");
}

#[test]
fn burst_after_idleness_is_drained_within_the_backoff_cap() {
    let kernel = fast_kernel();
    let tracer = Tracer::attach(TracerConfig::new("burst"), &kernel, DocStore::new());
    let t = kernel.spawn_process("app").spawn_thread("app");
    std::thread::sleep(Duration::from_millis(100));
    for i in 0..50 {
        t.creat(&format!("/burst{i}"), 0o644).unwrap();
    }
    // The consumer must find the burst on its own: `stop()` would wake it.
    let waited = Instant::now();
    while tracer.ring_stats().consumed < 50 {
        assert!(waited.elapsed() < Duration::from_secs(5), "burst never drained");
        std::thread::sleep(Duration::from_millis(1));
    }
    let summary = tracer.stop();
    assert_eq!(summary.events_stored, 50);
    let in_ring = summary.spans.stage("push_to_drain").expect("ring transition recorded");
    assert_eq!(in_ring.count, 50);
    // The burst's first push wakes the consumer, which drains it at once.
    // The limit is the idle timer's old cap, flush_interval / 32, plus 5 ms
    // of scheduling slack.
    let limit = Duration::from_millis(100) / 32 + Duration::from_millis(5);
    assert!(
        Duration::from_nanos(in_ring.max) <= limit,
        "an event waited {:?} in the ring (limit {limit:?})",
        Duration::from_nanos(in_ring.max)
    );
}

/// `tracer.channel.depth` is read from the hand-off when a snapshot is
/// taken, not written by the consumer's polls: once a burst is
/// acknowledged it reads 0, although the consumer sleeps until the next
/// push.
#[test]
fn channel_depth_reads_zero_once_a_burst_is_acknowledged() {
    let kernel = fast_kernel();
    let config = TracerConfig::new("depth").telemetry_interval(Duration::from_millis(20));
    let tracer = Tracer::attach(config, &kernel, DocStore::new());
    let t = kernel.spawn_process("app").spawn_thread("app");
    for i in 0..50 {
        t.creat(&format!("/depth{i}"), 0o644).unwrap();
    }
    let waited = Instant::now();
    while tracer.events_stored() < 50 {
        assert!(waited.elapsed() < Duration::from_secs(5), "burst never acknowledged");
        std::thread::sleep(Duration::from_millis(1));
    }
    // One export round passes.
    std::thread::sleep(Duration::from_millis(40));
    let depth = tracer.health_snapshot().gauge("tracer.channel.depth");
    tracer.stop();
    assert_eq!(depth, 0, "documents in flight after the burst was acknowledged");
}

/// `flush_interval` is the longest a partial batch may wait, counted from
/// its first document — also when the next event always arrives before it
/// runs out.
#[test]
fn trickle_meets_the_flush_deadline() {
    let kernel = fast_kernel();
    let tracer = Tracer::attach(
        TracerConfig::new("trickle").batch_size(1_000).flush_interval(Duration::from_millis(50)),
        &kernel,
        DocStore::new(),
    );
    let t = kernel.spawn_process("app").spawn_thread("app");
    for i in 0..4 {
        t.creat(&format!("/trickle{i}"), 0o644).unwrap();
        std::thread::sleep(Duration::from_millis(30));
    }
    // 120 ms in: the first event's 50 ms ran out long ago.
    let stored = tracer.events_stored();
    t.creat("/trickle4", 0o644).unwrap();
    assert!(stored >= 1, "nothing stored before the fifth syscall");
    assert_eq!(tracer.stop().events_stored, 5);
}

/// A consumer that finds the rings empty hands over what it holds: five
/// syscalls are queryable within a second although neither `batch_size` nor
/// `flush_interval` will run out for a minute. In memory that is also when
/// they are acknowledged. A persisted store acknowledges an event once it is
/// logged, and the shipper logs as soon as no request waits behind the one
/// it took: acknowledged within a second too, in the log before `stop()`.
#[test]
fn a_trickle_is_queryable_before_its_bulk_fills() {
    let config = |name: &str| {
        TracerConfig::new(name).batch_size(10_000).flush_interval(Duration::from_secs(60))
    };
    let within_a_second = |done: &dyn Fn() -> bool| {
        let waited = Instant::now();
        while !done() {
            if waited.elapsed() > Duration::from_secs(1) {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    };
    let trickle = |kernel: &Kernel| {
        let t = kernel.spawn_process("app").spawn_thread("app");
        for i in 0..5 {
            t.creat(&format!("/trickle{i}"), 0o644).unwrap();
        }
    };

    let kernel = fast_kernel();
    let tracer = Tracer::attach(config("trickle-mem"), &kernel, DocStore::new());
    trickle(&kernel);
    let stored = within_a_second(&|| tracer.events_stored() == 5);
    tracer.stop();
    assert!(stored, "five events not acknowledged within a second");

    let dir = std::env::temp_dir().join(format!("dio-trickle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // One shard, no compactor: a store this small needs no more threads
    // beside the tests running alongside.
    let store = || {
        DocStore::open_with(&dir, StorageConfig { shards: 1, ..StorageConfig::tiny_for_tests() })
    };
    let backend = store().unwrap();
    let tracer = Tracer::attach(config("trickle-disk"), &kernel, backend.clone());
    trickle(&kernel);
    let index = backend.index("dio-trickle-disk");
    let queryable = within_a_second(&|| index.count(&Query::MatchAll) == 5);
    let acknowledged = within_a_second(&|| tracer.events_stored() == 5);
    let unlogged = backend.log_events("dio-trickle-disk");
    assert_eq!(tracer.stop().events_stored, 5);
    drop((index, backend));
    let reopened = store().unwrap();
    assert_eq!(reopened.index("dio-trickle-disk").len(), 5, "a reopen finds them");
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(queryable, "five events not queryable within a second");
    assert!(acknowledged, "five events not acknowledged within a second");
    assert_eq!(unlogged, 0, "acknowledged before they were logged");
}

/// Documents of one thread reach the index in issue order, however the
/// stream is cut into drains and bulk requests.
#[test]
fn documents_of_one_thread_reach_the_index_in_issue_order() {
    const THREADS: u64 = 3;
    const SYSCALLS: usize = 500;
    let kernel = fast_kernel();
    let backend = DocStore::new();
    let tracer = Tracer::attach(
        TracerConfig::new("ordered").drain_batch(7).batch_size(11),
        &kernel,
        backend.clone(),
    );
    let process = kernel.spawn_process("app");
    let workers: Vec<_> = (0..THREADS)
        .map(|w| {
            let t = process.spawn_thread(format!("w{w}"));
            std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xD10 + w);
                let fd = t
                    .openat(&format!("/ordered{w}"), OpenFlags::CREAT | OpenFlags::RDWR, 0o644)
                    .unwrap();
                let mut buf = [0u8; 64];
                for _ in 0..SYSCALLS - 2 {
                    match rng.gen_range(0..3) {
                        0 => t.write(fd, &buf[..rng.gen_range(1..64)]).map(drop),
                        1 => t.pread64(fd, &mut buf, rng.gen_range(0..4_096)).map(drop),
                        _ => t.fsync(fd),
                    }
                    .unwrap();
                }
                t.close(fd).unwrap();
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }
    let summary = tracer.stop();
    assert_eq!(summary.events_dropped, 0);
    assert_eq!(summary.events_stored, THREADS * SYSCALLS as u64);
    let drains = summary.health.histogram("tracer.consumer.drain_batch").expect("drains");
    assert!(drains.max <= 7, "a drain of {} events", drains.max);
    let sizes = summary.health.histogram("tracer.shipper.batch_size").expect("batches");
    assert!(sizes.max <= 11, "a bulk request of {} documents", sizes.max);

    // Hits come back in insertion order.
    let hits =
        backend.index("dio-ordered").search(&SearchRequest::match_all().size(usize::MAX)).hits;
    assert_eq!(hits.len(), THREADS as usize * SYSCALLS);
    let mut last_time: HashMap<u64, u64> = HashMap::new();
    for hit in &hits {
        let tid = hit.source["tid"].as_u64().expect("tid");
        let time = hit.source["time"].as_u64().expect("time");
        let last = last_time.entry(tid).or_insert(0);
        assert!(time >= *last, "tid {tid}: time {time} stored after {last}");
        *last = time;
    }
    assert_eq!(last_time.len(), THREADS as usize);
}

/// Behind a backend that does not answer, the documents between ring and
/// index stay within `batch_size × 64`: the consumer stops draining and
/// the ring — which counts what it drops — absorbs the rest.
#[test]
fn in_flight_documents_stay_bounded_behind_a_stalled_backend() {
    const BOUND: u64 = 2 * 64;
    const SYSCALLS: u64 = 2_000;
    let kernel = fast_kernel();
    let backend = DocStore::new();
    let index = backend.index("dio-stalled");
    index.index_doc(json!({"seed": true}));

    // Hold the index's write lock: `update_by_query` runs its closure under
    // it, and the closure waits to be released.
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let stall = {
        let index = index.clone();
        std::thread::spawn(move || {
            index.update_by_query(&Query::MatchAll, |_| {
                entered_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            })
        })
    };
    entered_rx.recv().unwrap();

    let tracer = Tracer::attach(
        TracerConfig::new("stalled")
            .batch_size(2)
            .ring(RingConfig { bytes_per_cpu: 256 * 512, est_event_bytes: 512 }),
        &kernel,
        backend.clone(),
    );
    let t = kernel.spawn_process("app").spawn_thread("app");
    let mut peak_depth = 0;
    for i in 0..SYSCALLS {
        t.creat(&format!("/stalled{i}"), 0o644).unwrap();
        if i % 100 == 99 {
            std::thread::sleep(Duration::from_millis(2));
            peak_depth = peak_depth.max(tracer.health_snapshot().gauge("tracer.channel.depth"));
        }
    }
    // Observe while stalled, assert after the release: a panic that drops
    // the tracer behind a held lock would wait for the shipper forever.
    let (stored, ring) = (tracer.events_stored(), tracer.ring_stats());
    release_tx.send(()).unwrap();
    assert_eq!(stall.join().unwrap(), 1);
    assert_eq!(stored, 0, "the backend was stalled");
    assert!(peak_depth > 0 && peak_depth <= BOUND, "channel depth peaked at {peak_depth}");
    assert!(ring.consumed <= BOUND, "{} events left the ring for the heap", ring.consumed);
    assert!(ring.dropped > 0, "a 256-slot ring cannot hold the rest");

    let summary = tracer.stop();
    assert_eq!(summary.events_stored + summary.events_dropped, SYSCALLS);
    assert_eq!(summary.spans.completed, summary.events_stored);
    assert_eq!(summary.spans.dropped, summary.events_dropped);
    assert_eq!(summary.spans.drops_by_stage.get("ring_push"), Some(&summary.events_dropped));
    assert_eq!(index.len() as u64, summary.events_stored + 1);
}
