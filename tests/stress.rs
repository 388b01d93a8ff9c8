//! Concurrency stress: many threads, shared files, tracing under load,
//! drops under a deliberately starved consumer.

use std::sync::Arc;

use dio::core::{Dio, DiskProfile, Kernel, OpenFlags, Query, RingConfig, TracerConfig};
use dio_kernel::{SimClock, Vfs};

fn fast_kernel() -> Kernel {
    Kernel::builder().root_disk(DiskProfile::instant()).build()
}

#[test]
fn parallel_file_churn_is_trace_consistent() {
    let kernel = fast_kernel();
    let dio = Dio::with_kernel(kernel);
    let session = dio.trace(TracerConfig::new("churn"));

    let mut handles = Vec::new();
    for w in 0..6 {
        let proc = dio.kernel().spawn_process(format!("worker{w}"));
        let t = proc.spawn_thread(format!("worker{w}"));
        handles.push(std::thread::spawn(move || {
            t.mkdir(&format!("/w{w}"), 0o755).unwrap();
            for i in 0..50 {
                let path = format!("/w{w}/f{i}");
                let fd = t.openat(&path, OpenFlags::CREAT | OpenFlags::RDWR, 0o644).unwrap();
                t.write(fd, &[w as u8; 64]).unwrap();
                t.fsync(fd).unwrap();
                t.close(fd).unwrap();
                if i % 2 == 0 {
                    t.unlink(&path).unwrap();
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let report = session.stop();
    // 6 workers x (1 mkdir + 50 x (open+write+fsync+close) + 25 unlink)
    let expected = 6 * (1 + 50 * 4 + 25);
    assert_eq!(report.trace.events_stored, expected);
    assert_eq!(report.trace.events_dropped, 0);

    let index = dio.session_index("churn").unwrap();
    for w in 0..6 {
        assert_eq!(
            index.count(&Query::term("proc_name", format!("worker{w}"))),
            (1 + 50 * 4 + 25) as u64,
            "worker{w} attribution"
        );
    }
    // Every event that carries a tag got a path (all opens captured).
    assert_eq!(report.correlation.events_unresolved, 0);
}

#[test]
fn starved_consumer_drops_but_stays_consistent() {
    let kernel = fast_kernel();
    let dio = Dio::with_kernel(kernel);
    let session = dio.trace(
        TracerConfig::new("starved")
            .ring(RingConfig { bytes_per_cpu: 64 * 512, est_event_bytes: 512 }) // 64 slots/cpu
            .drain_batch(16)
            .poll_interval(std::time::Duration::from_millis(10)),
    );
    let t = dio.kernel().spawn_process("burst").spawn_thread("burst");
    for i in 0..5_000 {
        t.creat(&format!("/b{i}"), 0o644).unwrap();
    }
    let report = session.stop();
    let total = report.trace.events_stored + report.trace.events_dropped;
    assert_eq!(total, 5_000, "every event either stored or counted as dropped");
    assert!(report.trace.events_dropped > 0, "the tiny ring must overflow");
    // Whatever reached the backend is whole and queryable.
    let index = dio.session_index("starved").unwrap();
    assert_eq!(index.count(&Query::term("syscall", "creat")), report.trace.events_stored);
}

#[test]
fn shared_fd_between_threads_of_one_process() {
    let kernel = fast_kernel();
    let proc = kernel.spawn_process("sharer");
    let opener = proc.spawn_thread("opener");
    let fd = opener.openat("/shared", OpenFlags::CREAT | OpenFlags::RDWR, 0o644).unwrap();

    // Positional writes from many threads over the same descriptor.
    let mut handles = Vec::new();
    for w in 0..4u8 {
        let t = proc.spawn_thread(format!("t{w}"));
        handles.push(std::thread::spawn(move || {
            for i in 0..64u64 {
                t.pwrite64(fd, &[w + 1], w as u64 * 64 + i).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut buf = vec![0u8; 256];
    assert_eq!(opener.pread64(fd, &mut buf, 0).unwrap(), 256);
    for (i, &b) in buf.iter().enumerate() {
        assert_eq!(b, (i / 64) as u8 + 1, "byte {i}");
    }
}

#[test]
fn concurrent_inode_reuse_never_collides() {
    let kernel = fast_kernel();
    let barrier = Arc::new(std::sync::Barrier::new(4));
    let mut handles = Vec::new();
    for w in 0..4 {
        let proc = kernel.spawn_process(format!("reuser{w}"));
        let t = proc.spawn_thread(format!("reuser{w}"));
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let mut inos = Vec::new();
            for i in 0..100 {
                let path = format!("/r{w}-{i}");
                let fd = t.creat(&path, 0o644).unwrap();
                inos.push((t.fstat(fd).unwrap().ino, path.clone()));
                t.close(fd).unwrap();
                if i % 3 != 0 {
                    t.unlink(&path).unwrap();
                }
            }
            // Inode numbers of still-live files from this worker.
            inos.into_iter()
                .enumerate()
                .filter(|(i, _)| i % 3 == 0)
                .map(|(_, (ino, path))| (ino, path))
                .collect::<Vec<_>>()
        }));
    }
    let mut live: Vec<(u64, String)> = Vec::new();
    for h in handles {
        live.extend(h.join().unwrap());
    }
    // Every live path still resolves to its recorded inode: reuse never
    // handed a live number to someone else.
    let t = kernel.spawn_process("checker").spawn_thread("checker");
    let mut seen = std::collections::HashSet::new();
    for (ino, path) in live {
        assert!(seen.insert(ino), "inode {ino} appears twice among live files");
        assert_eq!(t.stat(&path).unwrap().ino, ino, "{path}");
    }
}

#[test]
fn two_devices_show_distinct_tags() {
    // The paper's testbed: an NVMe dataset disk and a SATA logging disk.
    let kernel = fast_kernel();
    let log_vfs = Vfs::new(999_001, DiskProfile::instant(), SimClock::new());
    kernel.mount("/log", log_vfs);
    let dio = Dio::with_kernel(kernel);
    let session = dio.trace(TracerConfig::new("two-disks"));

    let t = dio.kernel().spawn_process("app").spawn_thread("app");
    let fd1 = t.creat("/data.bin", 0o644).unwrap();
    t.write(fd1, b"on root").unwrap();
    let fd2 = t.creat("/log/app.log", 0o644).unwrap();
    t.write(fd2, b"on logging disk").unwrap();
    session.stop();

    let index = dio.session_index("two-disks").unwrap();
    let tags: Vec<dio::core::FileTag> = index
        .search(&dio::core::SearchRequest::new(Query::term("syscall", "write")))
        .hits
        .iter()
        .map(|h| h.source["file_tag"].as_str().unwrap().parse().unwrap())
        .collect();
    assert_eq!(tags.len(), 2);
    let devs: std::collections::HashSet<u64> = tags.iter().map(|t| t.dev).collect();
    assert_eq!(devs, [dio_kernel::ROOT_DEV, 999_001].into_iter().collect());
    assert_eq!(index.count(&Query::term("file_path", "/log/app.log")), 2);
}

#[test]
fn ring_buffer_concurrent_drop_accounting_is_exact() {
    // Multi-producer / multi-consumer hammering on the per-CPU ring: every
    // push attempt must land in exactly one of {pushed, dropped}, consumers
    // never observe more events than were pushed, and the per-CPU counters
    // sum to the totals.
    use std::sync::atomic::{AtomicBool, Ordering};

    const CPUS: u32 = 4;
    const SLOTS: usize = 32;
    const PRODUCERS: u64 = 8;
    const PER_PRODUCER: u64 = 20_000;

    let ring: Arc<dio_ebpf::RingBuffer<u64>> =
        Arc::new(dio_ebpf::RingBuffer::with_slots(CPUS, SLOTS));
    let stop = Arc::new(AtomicBool::new(false));

    let consumers: Vec<_> = (0..2)
        .map(|_| {
            let ring = Arc::clone(&ring);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut taken = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    taken += ring.drain_all(64).len() as u64;
                    // A deliberately lagging consumer, so the tiny buffers
                    // actually overflow (the regime §III-D measures).
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                taken += ring.drain_all(usize::MAX).len() as u64;
                taken
            })
        })
        .collect();

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    let _ = ring.try_push((p % CPUS as u64) as u32, p * PER_PRODUCER + i);
                }
            })
        })
        .collect();
    for h in producers {
        h.join().unwrap();
    }

    // Mid-run (consumers still draining): accounting already exact.
    let attempts = PRODUCERS * PER_PRODUCER;
    let mid = ring.stats();
    assert_eq!(mid.pushed + mid.dropped, attempts, "every attempt pushed or dropped");
    assert!(mid.consumed <= mid.pushed, "cannot consume more than was pushed");

    stop.store(true, Ordering::Relaxed);
    let consumed_by_threads: u64 = consumers.into_iter().map(|h| h.join().unwrap()).sum();
    let leftover = ring.drain_all(usize::MAX).len() as u64;

    let stats = ring.stats();
    assert_eq!(stats.pushed + stats.dropped, attempts);
    assert_eq!(stats.consumed, consumed_by_threads + leftover, "drains account for consumed");
    assert_eq!(stats.consumed, stats.pushed, "fully drained at shutdown");
    assert!(ring.is_empty());
    assert!(stats.dropped > 0, "32-slot buffers under 160k bursty pushes must overflow");

    // Per-CPU counters reconcile with the totals, and no buffer ever held
    // more than its capacity.
    assert_eq!(stats.per_cpu.iter().map(|c| c.pushed).sum::<u64>(), stats.pushed);
    assert_eq!(stats.per_cpu.iter().map(|c| c.dropped).sum::<u64>(), stats.dropped);
    assert_eq!(stats.per_cpu.iter().map(|c| c.consumed).sum::<u64>(), stats.consumed);
    assert!(stats.occupancy_hwm as usize <= SLOTS);
    for cpu in &stats.per_cpu {
        assert_eq!(cpu.pushed + cpu.dropped, attempts / CPUS as u64, "uniform producer load");
        assert!(cpu.occupancy_hwm as usize <= SLOTS);
    }
}

/// The hook reads the caller's descriptor under the fd-table lock (and the
/// offset lock inside it) while sibling threads open, close, read and write
/// through the same table: nothing deadlocks, and every event is accounted
/// for.
#[test]
fn concurrent_hooks_of_two_processes_reconcile() {
    use dio_ebpf::{ProgramConfig, RingBuffer, TracerProgram};
    use dio_kernel::SyscallProbe;
    use std::time::{Duration, Instant};

    const THREADS_PER_PROCESS: usize = 4;
    let kernel = fast_kernel();
    // Nobody drains: most pushes are drops, which must be counted too.
    let ring = Arc::new(RingBuffer::with_slots(kernel.num_cpus(), 256));
    let program = TracerProgram::new(ProgramConfig::default(), Arc::clone(&ring)).unwrap();
    kernel.tracepoints().attach(Arc::clone(&program) as Arc<dyn SyscallProbe>);

    let start = Arc::new(std::sync::Barrier::new(2 * THREADS_PER_PROCESS));
    let mut handles = Vec::new();
    for p in 0..2 {
        let process = kernel.spawn_process(format!("proc{p}"));
        let shared = process
            .spawn_thread("opener")
            .openat(&format!("/shared{p}"), OpenFlags::CREAT | OpenFlags::RDWR, 0o644)
            .unwrap();
        for i in 0..THREADS_PER_PROCESS {
            let t = process.spawn_thread(format!("proc{p}:{i}"));
            let start = Arc::clone(&start);
            handles.push(std::thread::spawn(move || {
                let path = format!("/own{p}-{i}");
                let mut buf = [0u8; 16];
                start.wait();
                let deadline = Instant::now() + Duration::from_millis(200);
                let mut calls = 0u64;
                while Instant::now() < deadline {
                    let fd = t.openat(&path, OpenFlags::CREAT | OpenFlags::RDWR, 0o644).unwrap();
                    t.write(shared, b"0123456789abcdef").unwrap();
                    t.write(fd, b"0123456789abcdef").unwrap();
                    t.read(shared, &mut buf).unwrap();
                    t.close(fd).unwrap();
                    calls += 5;
                }
                calls
            }));
        }
    }
    let calls: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();

    let (stats, ring_stats) = (program.stats(), ring.stats());
    assert_eq!(stats.admitted, calls + 2, "the two shared opens were traced too");
    assert_eq!(stats.emitted, stats.admitted, "every entry met its exit");
    assert_eq!((stats.join_overflow, stats.orphaned, program.pending()), (0, 0, 0));
    assert_eq!(ring_stats.pushed + ring_stats.dropped, stats.emitted);
    assert!(ring_stats.dropped > 0, "256-slot buffers overflow within 200 ms");
}
