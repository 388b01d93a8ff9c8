//! The byte budget of a stored event (DESIGN.md, "Document model and the
//! per-event byte budget"): what `to_document` may allocate, what an indexed
//! document may hold on the heap, and the exact bytes documents serialize to —
//! and the hook's budget (DESIGN.md, "The hook's budget"): what tracing may
//! allocate on the application's thread.
//!
//! Heap is counted by this binary's own allocator (`tests/common/counting.rs`),
//! per thread — and, for heap the store's recovery threads allocate and this
//! one keeps, process-wide. The tests take turns, so no other test's heap is
//! in the process-wide count.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};

use dio::core::{DiskProfile, Kernel, OpenFlags, Query};
use dio_backend::{DocStore, Index, StorageConfig};
use dio_diagnose::DiagnoseConfig;
use dio_ebpf::{FilterSpec, ProgramConfig, RawEvent, RingBuffer, TracerProgram};
use dio_kernel::{SyscallProbe, ThreadCtx};
use dio_profile::{DfgMiner, ProfileConfig};
use dio_syscall::{ArgValue, EventView, FileTag, FileType, Pid, SyscallEvent, SyscallKind, Tid};
use dio_telemetry::MetricsRegistry;

#[path = "common/counting.rs"]
mod counting;
use counting::{Counting, ALLOCS, LIVE, PROCESS_LIVE, REQUESTED};

#[global_allocator]
static GLOBAL: Counting = Counting;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Held for the length of a test: no other test allocates meanwhile.
fn in_turn() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Traces `rounds` rounds of write / pread64 / lseek / fsync on one file (plus
/// its open and close) through the real hook and ring, and parses them.
fn traced_events(rounds: usize) -> Vec<SyscallEvent> {
    let kernel = Kernel::builder().root_disk(DiskProfile::instant()).build();
    let ring = Arc::new(RingBuffer::with_slots(kernel.num_cpus(), 4 * rounds + 2));
    let program =
        TracerProgram::new(ProgramConfig::default(), Arc::clone(&ring)).expect("default filter");
    let probe = kernel.tracepoints().attach(Arc::clone(&program) as Arc<dyn SyscallProbe>);
    let t = kernel.spawn_process("budget").spawn_thread("budget");
    let fd = t.openat("/app.log", OpenFlags::CREAT | OpenFlags::RDWR, 0o644).unwrap();
    let mut buf = [0u8; 26];
    for round in 0..rounds {
        t.write(fd, b"abcdefghijklmnopqrstuvwxyz").unwrap();
        t.pread64(fd, &mut buf, 26 * round as u64).unwrap();
        t.lseek(fd, 0, dio::core::Whence::End).unwrap();
        t.fsync(fd).unwrap();
    }
    t.close(fd).unwrap();
    kernel.tracepoints().detach(probe);
    let raws = ring.drain_all(usize::MAX);
    assert_eq!(raws.len(), 4 * rounds + 2, "ring dropped events");
    raws.into_iter().map(|raw| raw.into_event("budget")).collect()
}

#[test]
fn to_document_stays_within_its_allocation_budget() {
    let _turn = in_turn();
    let events = traced_events(1);
    let write = events.iter().find(|e| e.kind == SyscallKind::Write).expect("traced write");
    let (allocs, requested) = (ALLOCS.get(), REQUESTED.get());
    let doc = write.to_document();
    let (allocs, requested) = (ALLOCS.get() - allocs, REQUESTED.get() - requested);
    assert_eq!(doc["syscall"], "write");
    assert_eq!(doc.as_object().unwrap().len(), 15, "every optional field of a write is present");
    // 2 852 B in 30 allocations before the compact document model.
    assert!(requested <= 1_400, "to_document requested {requested} B");
    assert!(allocs <= 26, "to_document made {allocs} allocations");
}

/// A kernel on an instant disk and one thread of it, with the tracer program
/// attached (nobody draining its ring) when `config` is given.
fn hooked_thread(config: Option<ProgramConfig>) -> (ThreadCtx, Option<Arc<TracerProgram>>) {
    let kernel = Kernel::builder().root_disk(DiskProfile::instant()).build();
    let program = config.map(|config| {
        let ring = Arc::new(RingBuffer::with_slots(kernel.num_cpus(), 4_096));
        let program = TracerProgram::new(config, ring).expect("verified filter");
        kernel.tracepoints().attach(Arc::clone(&program) as Arc<dyn SyscallProbe>);
        program
    });
    (kernel.spawn_process("hook").spawn_thread("hook"), program)
}

/// Allocations this thread makes in `calls`, after `prepare` ran untimed.
fn allocs_of<T>(prepare: impl FnOnce() -> T, calls: impl FnOnce(T)) -> u64 {
    let prepared = prepare();
    let before = ALLOCS.get();
    calls(prepared);
    ALLOCS.get() - before
}

/// The hook allocates nothing for a syscall whose arguments are integers:
/// traced, the calls allocate exactly what they allocate untraced (3 more
/// per call before the fixed-layout record).
#[test]
fn the_hook_allocates_nothing_for_integer_only_syscalls() {
    let _turn = in_turn();
    const FILES: usize = 200;
    let allocs = |config| {
        let (t, program) = hooked_thread(config);
        let allocs = allocs_of(
            // The opens also allocate the thread's task slot.
            || {
                let open =
                    |i| t.openat(&format!("/f{i}"), OpenFlags::CREAT | OpenFlags::RDWR, 0o644);
                (0..FILES).map(|i| open(i).unwrap()).collect::<Vec<_>>()
            },
            |fds| {
                let mut buf = [0u8; 8];
                for fd in fds {
                    t.write(fd, b"12345678").unwrap();
                    t.lseek(fd, 0, dio::core::Whence::Set).unwrap();
                    t.read(fd, &mut buf).unwrap();
                    t.fsync(fd).unwrap();
                    t.close(fd).unwrap();
                }
            },
        );
        if let Some(program) = program {
            assert_eq!(program.stats().emitted, 6 * FILES as u64);
            assert_eq!(program.ring().stats().dropped, 0);
        }
        allocs
    };
    assert_eq!(allocs(Some(ProgramConfig::default())), allocs(None), "over {} calls", 5 * FILES);
}

/// A string argument costs the hook one allocation, and the path is not
/// stored a second time.
#[test]
fn the_hook_allocates_once_per_string_argument() {
    let _turn = in_turn();
    const CALLS: usize = 500;
    let allocs = |config| {
        let (t, _program) = hooked_thread(config);
        let opens = allocs_of(
            || t.close(t.creat("/a", 0o644).unwrap()).unwrap(),
            |()| {
                for _ in 0..CALLS {
                    t.openat("/a", OpenFlags::RDONLY, 0).unwrap();
                }
            },
        );
        let renames = allocs_of(
            || (),
            |()| {
                for _ in 0..CALLS / 2 {
                    t.renameat2("/a", "/b", 0).unwrap();
                    t.renameat2("/b", "/a", 0).unwrap();
                }
            },
        );
        (opens, renames)
    };
    let (opens, renames) = allocs(Some(ProgramConfig::default()));
    let (vanilla_opens, vanilla_renames) = allocs(None);
    let per_open = (opens - vanilla_opens) as f64 / CALLS as f64;
    let per_rename = (renames - vanilla_renames) as f64 / CALLS as f64;
    assert!(per_open <= 1.0, "{per_open} hook allocations per openat (one string)");
    assert!(per_rename <= 2.0, "{per_rename} hook allocations per renameat2 (two strings)");
}

/// A path filter decides a `read` by the descriptor's open-time path without
/// copying it: admitted or rejected, the hook allocates nothing.
#[test]
fn a_path_filtered_read_copies_no_path() {
    let _turn = in_turn();
    const READS: usize = 500;
    let allocs = |config| {
        let (t, program) = hooked_thread(config);
        let open = |dir: &str| {
            t.mkdir(dir, 0o755).unwrap();
            let flags = OpenFlags::CREAT | OpenFlags::RDWR;
            let fd = t.openat(&format!("{dir}/f"), flags, 0o644).unwrap();
            t.write(fd, b"x").unwrap();
            fd
        };
        let allocs = allocs_of(
            || (open("/watched"), open("/elsewhere")),
            |(watched, elsewhere)| {
                let mut buf = [0u8; 1];
                for _ in 0..READS {
                    t.read(watched, &mut buf).unwrap();
                    t.read(elsewhere, &mut buf).unwrap();
                }
            },
        );
        (allocs, program.map(|p| p.stats()))
    };
    let filter = FilterSpec::new().path_prefix("/watched");
    let (filtered, stats) = allocs(Some(ProgramConfig { filter, ..ProgramConfig::default() }));
    let (vanilla, _) = allocs(None);
    assert_eq!(filtered, vanilla, "allocations over {} filtered reads", 2 * READS);
    let stats = stats.expect("program attached");
    // mkdir, openat, write and the reads under /watched are admitted; the same
    // calls under /elsewhere are rejected.
    assert_eq!((stats.admitted, stats.filtered), (READS as u64 + 3, READS as u64 + 3));
    assert_eq!(stats.emitted, stats.admitted);
}

/// The ring initialises every slot when the program attaches, so set-up time
/// is proportional to the record's size.
#[test]
fn raw_event_stays_within_its_slot_size() {
    let _turn = in_turn();
    assert!(std::mem::size_of::<RawEvent>() <= 208, "{} B", std::mem::size_of::<RawEvent>());
}

/// An idle poll costs no allocation: the consumer drains an empty ring a
/// few hundred times a second.
#[test]
fn draining_an_empty_ring_allocates_nothing() {
    let _turn = in_turn();
    let ring: RingBuffer<RawEvent> = RingBuffer::with_slots(4, 64);
    let allocs = ALLOCS.get();
    for _ in 0..100 {
        assert!(ring.drain_all_stamped(4_096).is_empty());
        assert!(ring.drain_all(4_096).is_empty());
    }
    assert_eq!(ALLOCS.get() - allocs, 0, "allocations in 200 empty drains");
}

/// What the taps — DFG miner, then the diagnosis engine of a session (the
/// four shipped rule sets), the miner its attributor, wired by the tracer's
/// own functions — allocate per event of the second half of `events`, fed in
/// 16-event drains after the first half warmed keys, windows and the
/// transition ring: (allocations, bytes requested).
fn tap_cost_per_event<E: EventView>(events: &[E]) -> (f64, f64) {
    let miner = DfgMiner::new(ProfileConfig::default());
    let engine = dio_tracer::diagnosis_engine(DiagnoseConfig::default(), Vec::new());
    dio_tracer::attribute_with(&engine, &miner);
    let feed = |events: &[E]| {
        for drain in events.chunks(16) {
            miner.observe_batch(drain);
            assert!(engine.observe_batch(drain).is_empty(), "a quiet stream");
        }
    };
    let (warm, measured) = events.split_at(events.len() / 2);
    feed(warm);
    let (allocs, requested) = (ALLOCS.get(), REQUESTED.get());
    feed(measured);
    let per_event = |total: u64| total as f64 / measured.len() as f64;
    (per_event(ALLOCS.get() - allocs), per_event(REQUESTED.get() - requested))
}

/// Through the typed door — what the tracer's consumer does — a tapped event
/// allocates nothing once the session is warm: rule evaluator and miner read
/// the event's fields and look their state up by borrowed key. Reads 0.00
/// allocations / 0.1 B (four allocations in 5 001 events). Before PR 20
/// the consumer built a document per event and fed that: 57.56 allocations /
/// 1 586.2 B on this stream (25.06 / 1 144 B of it the document).
#[test]
fn a_tapped_event_allocates_nothing_in_steady_state() {
    let _turn = in_turn();
    let (allocs, bytes) = tap_cost_per_event(&traced_events(2_500));
    assert!(allocs <= 1.0, "{allocs:.2} allocations per tapped event");
    assert!(bytes <= 100.0, "{bytes:.1} B per tapped event");
}

/// The document door runs the same code and nothing keeps an observed event
/// any more, so it reads what the typed door reads: 0.00 allocations / 0.1 B,
/// the documents themselves not counted. It read 6.25 / 277.5 B while a
/// built-in detector kept a copy of the last write per file tag, 32.50 /
/// 442.2 B before the taps read through one view.
#[test]
fn a_tapped_document_allocates_no_more_than_before() {
    let _turn = in_turn();
    let docs: Vec<_> = traced_events(2_500).iter().map(SyscallEvent::to_document).collect();
    let (allocs, bytes) = tap_cost_per_event(&docs);
    assert!(allocs <= 0.01, "{allocs:.4} allocations per tapped document");
    assert!(bytes <= 1.0, "{bytes:.2} B per tapped document");
}

/// The heap a queryable session occupies per event, however the events got
/// there: `fill` puts `DOCS` traced events into `index_of`'s index. Counted
/// process-wide: a reopened store's rows are decoded on its recovery threads.
fn heap_per_indexed_event(index_of: impl FnOnce(Vec<SyscallEvent>) -> Arc<Index>) -> i64 {
    const DOCS: usize = 10_000;
    let live = PROCESS_LIVE.load(Ordering::Relaxed);
    let mut events = traced_events(DOCS / 4);
    events.truncate(DOCS);
    let index = index_of(events);
    // The first query refreshes: the inverted indexes are built and held.
    assert_eq!(index.count(&Query::term("syscall", "write")), DOCS as u64 / 4);
    let per_doc = (PROCESS_LIVE.load(Ordering::Relaxed) - live) / DOCS as i64;
    drop(index);
    per_doc
}

#[test]
fn indexed_event_documents_stay_within_their_heap_budget() {
    let _turn = in_turn();
    let per_doc = heap_per_indexed_event(|events| {
        let index = Index::new("budget");
        index.bulk(events.iter().map(SyscallEvent::to_document).collect());
        Arc::new(index)
    });
    // About 3 340 B before the compact document model, 1 560 B while the
    // index kept the JSON object of every event, 774 B while rows and posting
    // lists sat in hash tables, 437 B while numeric terms sat in B-trees,
    // 367 B while each row was a whole event; 201 B with compact rows over
    // the index's dictionaries.
    assert!(per_doc <= 221, "an indexed event document holds {per_doc} B of heap");
}

/// Path correlation gives every fd-bearing event a `file_path` that is not
/// its own path argument; the index holds each distinct path once, so 10 000
/// events updated with 16 paths grow its heap by the new terms' posting lists
/// alone: 3.7 B per event. 43.5 B while every updated row held its path in an
/// allocation of its own.
#[test]
fn correlated_paths_share_one_allocation() {
    let _turn = in_turn();
    const DOCS: usize = 10_000;
    const PATHS: u32 = 16;
    let index = Index::new("budget");
    let mut events = traced_events(DOCS / 4);
    events.truncate(DOCS);
    for (i, e) in events.iter_mut().enumerate() {
        e.tid = Tid(i as u32 % PATHS);
    }
    index.bulk(events.iter().map(SyscallEvent::to_document).collect());
    drop(events);
    index.refresh();
    let live = LIVE.get();
    let mut updated = 0;
    for tid in 0..PATHS {
        let path = format!("/data/correlated-{tid}.log");
        let query = Query::bool_query()
            .must(Query::term("tid", tid))
            .must_not(Query::exists("file_path"))
            .build();
        updated += index.update_by_query(&query, |doc| doc["file_path"] = path.as_str().into());
    }
    let per_event = (LIVE.get() - live) as f64 / DOCS as f64;
    assert!(updated >= DOCS - 2, "{updated} events updated");
    assert_eq!(index.count(&Query::prefix("file_path", "/data/correlated-")), updated as u64);
    assert!(per_event <= 8.0, "an updated event holds {per_event:.1} B more heap");
}

/// Path correlation learns each tag's path once and writes a string id into
/// the path slot of each fd event's row: over 10 000 traced events on 16 tags
/// it allocates with the tags, not with the events — 85 allocations (the
/// learned paths, the updated rows' ids, five per path's posting list). It
/// made 310 969, 31 per event, while each tag was an update by query that
/// built, rendered, parsed and re-interned every event it updated.
#[test]
fn correlation_allocates_per_tag_not_per_event() {
    let _turn = in_turn();
    const DOCS: usize = 10_000;
    const TAGS: u64 = 16;
    let mut events = traced_events(DOCS / 4);
    events.truncate(DOCS);
    let open = events[0].clone();
    assert_eq!(open.kind, SyscallKind::Openat);
    for (i, e) in events.iter_mut().enumerate() {
        e.file_tag.as_mut().expect("every traced event has a tag").first_access_ns =
            i as u64 % TAGS;
    }
    // Each tag's last open, stored after its events, names its path.
    for first_access_ns in 0..TAGS {
        let mut open = open.clone();
        open.file_tag = open.file_tag.map(|tag| FileTag { first_access_ns, ..tag });
        open.file_path = Some(format!("/data/correlated-{first_access_ns}.log").into());
        events.push(open);
    }
    let index = Index::new("budget");
    index.bulk(events.iter().map(SyscallEvent::to_document).collect());
    drop(events);
    index.refresh();
    let allocs = ALLOCS.get();
    let report = dio::core::correlate_paths(&index);
    let allocs = ALLOCS.get() - allocs;
    let updated = report.events_updated;
    assert_eq!((report.tags_resolved, updated, report.events_unresolved), (16, DOCS - 1, 0));
    let correlated = index.count(&Query::prefix("file_path", "/data/correlated-"));
    assert_eq!(correlated, (updated + TAGS as usize) as u64);
    assert!(allocs * 100 < updated as u64, "{allocs} allocations for {updated} updated events");
}

/// A term's posting list that reaches its second id in the block its
/// first id sits in — as the index's dense ids nearly always do — is built
/// with both: indexing a second copy of a traced write, every term of which
/// the first copy holds, makes 64 allocations; 80 while each of those 16
/// lists was built with one id and grown for the second.
#[test]
fn a_posting_list_reaching_two_ids_is_built_at_once() {
    let _turn = in_turn();
    let events = traced_events(1);
    let write = events.iter().find(|e| e.kind == SyscallKind::Write).expect("traced write");
    let index = Index::new("budget");
    index.bulk(vec![write.to_document()]);
    index.refresh();
    let second = write.to_document();
    let allocs = ALLOCS.get();
    index.bulk(vec![second]);
    index.refresh();
    let allocs = ALLOCS.get() - allocs;
    assert_eq!(index.count(&Query::term("syscall", "write")), 2);
    assert!(allocs <= 64, "{allocs} allocations indexing the second copy");
}

/// A narrowed query costs its answer: the candidates are the term's posting
/// list copied out once, 8 B an id (copied as the hash table it was held in,
/// 36.9 KB for these 2 500 matches).
#[test]
fn counting_a_term_allocates_its_candidates_and_nothing_more() {
    let _turn = in_turn();
    const DOCS: usize = 10_000;
    let index = Index::new("budget");
    index.bulk(traced_events(DOCS / 4).iter().map(SyscallEvent::to_document).collect());
    index.refresh();
    let requested = REQUESTED.get();
    let matches = index.count(&Query::term("syscall", "write"));
    let requested = REQUESTED.get() - requested;
    assert_eq!(matches, DOCS as u64 / 4);
    assert!(requested <= 8 * matches + 1_024, "count(term) requested {requested} B");
}

/// A session closed and reopened from disk occupies what the live one did:
/// recovery decodes each run of events and interns them as the live session
/// does. 206 B here, the store with them; 322 B while each row was a whole
/// event, 388 B while numeric terms sat in B-trees, 479 B while
/// recovery parsed every event's JSON text
/// (the keydir's entry per event, 75 B, among it), 1 460 B while recovered
/// events were kept as the JSON they were parsed from. The per-thread count
/// this test read before runs — -102 B — credited this thread with freeing the
/// text the recovery threads had read, and reads +186 B now that there is none.
#[test]
fn reopened_event_documents_stay_within_their_heap_budget() {
    let _turn = in_turn();
    let dir = std::env::temp_dir().join(format!("dio-reopen-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let store = DocStore::open_with(&dir, StorageConfig::default()).expect("open store");
        store.bulk_spans("budget", traced_events(2_500), &mut []);
        store.flush().expect("flush");
    }
    let per_doc = heap_per_indexed_event(|_| {
        let store = DocStore::open_with(&dir, StorageConfig::default()).expect("reopen store");
        store.index("budget")
    });
    let _ = std::fs::remove_dir_all(&dir);
    assert!(per_doc <= 227, "a reopened event document holds {per_doc} B of heap");
}

/// The bytes on disk per event of a persisted store that took `bulks`
/// through `bulk_spans`, one log each.
fn disk_bytes_per_event(tag: &str, bulks: Vec<Vec<SyscallEvent>>) -> f64 {
    let dir = std::env::temp_dir().join(format!("dio-disk-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let count: usize = bulks.iter().map(Vec::len).sum();
    {
        let store = DocStore::open_with(&dir, StorageConfig::default()).expect("open store");
        for bulk in bulks {
            store.bulk_spans("budget", bulk, &mut []);
        }
    }
    let mut bytes = 0;
    let mut dirs = vec![dir.clone()];
    while let Some(at) = dirs.pop() {
        for entry in std::fs::read_dir(&at).expect("read store dir") {
            let meta = entry.as_ref().expect("entry").metadata().expect("metadata");
            match meta.is_dir() {
                true => dirs.push(entry.expect("entry").path()),
                false => bytes += meta.len(),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    bytes as f64 / count as f64
}

/// The bytes a persisted session leaves on disk per traced event: its runs
/// of rows and the one dictionary record they name, 16.3 B an event (as
/// much while each run carried its own dictionaries; a JSON frame of
/// 350-odd B before runs). The bound is the reading and 15 %.
#[test]
fn a_stored_event_takes_a_tenth_of_its_text_on_disk() {
    let _turn = in_turn();
    let per_event = disk_bytes_per_event("budget", vec![traced_events(2_500)]);
    assert!(per_event <= 18.7, "{per_event:.1} B on disk per stored event");
}

/// A traced session of four threads, each writing, reading, seeking in and
/// syncing four files of its own in turn — what a paced group names — with
/// the `openat`s and `close`s around them.
fn traced_session(rounds: usize) -> Vec<SyscallEvent> {
    let kernel = Kernel::builder().root_disk(DiskProfile::instant()).build();
    let ring = Arc::new(RingBuffer::with_slots(kernel.num_cpus(), 70 * rounds + 40));
    let program =
        TracerProgram::new(ProgramConfig::default(), Arc::clone(&ring)).expect("default filter");
    let probe = kernel.tracepoints().attach(Arc::clone(&program) as Arc<dyn SyscallProbe>);
    let process = kernel.spawn_process("budget");
    let threads: Vec<ThreadCtx> =
        (0..4).map(|t| process.spawn_thread(format!("worker-{t}"))).collect();
    let files: Vec<_> = (0..16)
        .map(|i| {
            let path = format!("/worker-{}-file-{}.log", i / 4, i % 4);
            let t = &threads[i / 4];
            (t, t.openat(&path, OpenFlags::CREAT | OpenFlags::RDWR, 0o644).unwrap())
        })
        .collect();
    let mut buf = [0u8; 26];
    for round in 0..rounds {
        for &(t, fd) in &files {
            t.write(fd, b"abcdefghijklmnopqrstuvwxyz").unwrap();
            t.pread64(fd, &mut buf, 26 * round as u64).unwrap();
            t.lseek(fd, 0, dio::core::Whence::End).unwrap();
            t.fsync(fd).unwrap();
        }
    }
    files.iter().for_each(|&(t, fd)| t.close(fd).unwrap());
    kernel.tracepoints().detach(probe);
    let raws = ring.drain_all(usize::MAX);
    assert_eq!(raws.len(), 64 * rounds + 32, "ring dropped events");
    raws.into_iter().map(|raw| raw.into_event("budget")).collect()
}

/// A run names the index's dictionaries, which the log holds once: a short
/// run costs an event no more than a long one, so the shipper can log as
/// often as it catches up. 2 500 events of a session of 16 files as one log
/// and as 25 logs of 100 take 16.5 and 16.9 B on disk each; while every run
/// wrote its own dictionaries they took 16.7 and 19.8 B (25.3 and 27.9 B on
/// `paced_persist` at 1 000 and 100 events a run).
#[test]
fn a_short_run_costs_an_event_no_more_than_a_long_one() {
    let _turn = in_turn();
    let mut events = traced_session(39);
    events.truncate(2_500);
    let long = disk_bytes_per_event("long", vec![events.clone()]);
    let short = disk_bytes_per_event("short", events.chunks(100).map(<[_]>::to_vec).collect());
    assert!(short - long <= 1.0, "{long:.2} B per event in one log, {short:.2} B in 25");
}

/// What persistence keeps on the heap per traced event — a persisted store's
/// heap less an in-memory one's — is its share of one keydir entry per run:
/// 74.9 B while each event had an entry of its own.
#[test]
fn the_storage_engine_keeps_one_keydir_entry_per_run() {
    let _turn = in_turn();
    let dir = std::env::temp_dir().join(format!("dio-run-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let heap_of = |store: DocStore| {
        let events = traced_events(12_500);
        let count = events.len() as f64;
        let live = LIVE.get();
        store.bulk_spans("budget", events, &mut []);
        let held = (LIVE.get() - live) as f64 / count;
        drop(store);
        held
    };
    let persisted =
        heap_of(DocStore::open_with(&dir, StorageConfig::default()).expect("open store"));
    let in_memory = heap_of(DocStore::new());
    let _ = std::fs::remove_dir_all(&dir);
    let keydir = persisted - in_memory;
    assert!(keydir <= 4.0, "persistence holds {keydir:.2} B of heap per event");
}

/// A flight-recorder ring costs what it holds: a thread's first span allocates
/// a few slots, its registration and the span stack — not the 4 096 slots
/// (655 KB) a thread that records one span never fills.
#[test]
fn a_threads_first_span_allocates_a_few_slots() {
    let _turn = in_turn();
    let requested = std::thread::spawn(|| {
        let requested = REQUESTED.get();
        drop(dio_telemetry::trace::span("budget", "budget.first"));
        REQUESTED.get() - requested
    });
    let requested = requested.join().expect("recording thread");
    assert!(requested <= 16 * 1_024, "a thread's first span requested {requested} B");
}

/// Health, storage and alert documents are not events: they are stored,
/// found and handed back as the JSON values they are.
#[test]
fn telemetry_documents_round_trip_as_they_are() {
    let _turn = in_turn();
    let registry = MetricsRegistry::new();
    registry.counter("tracer.events").add(7);
    registry.histogram("tracer.parse_ns").record(1_000);
    let mut docs = registry.snapshot().health_documents("s1", 2, 99);
    docs.push(dio_backend::StorageReport { fsyncs: 3, ..Default::default() }.to_document());
    docs.push(serde_json::json!({
        "kind": "alert", "detector": "data-loss", "severity": "critical", "session": "s1",
        "time": 99, "evidence": {"file_tag": "1|12|5", "syscall": "read", "pid": 3},
    }));
    let index = Index::new("telemetry");
    let ids = index.bulk(docs.clone());
    for (id, doc) in ids.iter().zip(&docs) {
        assert_eq!(SyscallEvent::from_document(doc), None, "{doc}");
        assert_eq!(index.get(*id).as_ref(), Some(doc));
        assert_eq!(index.get(*id).map(|d| d.to_string()), Some(doc.to_string()));
    }
    assert_eq!(index.count(&Query::term("kind", "alert")), 1);
    assert_eq!(index.count(&Query::term("evidence.file_tag", "1|12|5")), 1);
}

/// A session's health rounds as the exporter ships them: 41 metrics — 20
/// counters, 12 of them still 0; 8 gauges, 4 of them constant; 13 histograms,
/// 3 of them idle — over 50 rounds of 100 ms, the first and the final round
/// whole, the others the metrics that changed. Returns the rounds' documents
/// as JSON text.
fn health_rounds() -> Vec<Vec<String>> {
    let registry = MetricsRegistry::new();
    let counters: Vec<_> =
        (0..20).map(|i| registry.counter(&format!("tracer.stage{i}.events"))).collect();
    let gauges: Vec<_> =
        (0..8).map(|i| registry.gauge(&format!("tracer.stage{i}.depth"))).collect();
    let histograms: Vec<_> =
        (0..13).map(|i| registry.histogram(&format!("tracer.stage{i}.latency_ns"))).collect();
    let (mut rounds, mut previous) = (Vec::new(), None);
    for seq in 1..=50u64 {
        for (i, counter) in counters.iter().enumerate().take(8) {
            counter.add(seq * 97 + i as u64);
        }
        for (i, gauge) in gauges.iter().enumerate() {
            gauge.set(if i < 4 { seq * 13 + i as u64 } else { 64 });
        }
        for (i, histogram) in histograms.iter().enumerate().take(10) {
            histogram.record_all(
                (0..200).map(|k| 1_000 + (seq * 7_919 + k * 104_729 + i as u64) % 2_000_000),
                0,
            );
        }
        let snapshot = registry.snapshot();
        let since = previous.as_ref().filter(|_| seq < 50);
        let time_ns = 1_760_000_000_000_000_000 + seq * 100_000_000;
        rounds.push(snapshot.health_texts(since, "budget", seq, time_ns));
        previous = Some(snapshot);
    }
    rounds
}

/// A health document is held as its text (DESIGN.md §16): the 1 138
/// documents of [`health_rounds`] through the exporter's door into an index,
/// refreshed, hold 394 B of heap each — row table, text and inverted indexes —
/// where the same documents held as `Value` rows took 814 B (656 B a
/// document in `paced_mem`'s unrefreshed telemetry index, 308 B as text). The
/// limit is 10 % above the reading.
#[test]
fn a_stored_health_document_holds_its_text() {
    let _turn = in_turn();
    let live = LIVE.get();
    let rounds = health_rounds();
    let docs: usize = rounds.iter().map(Vec::len).sum();
    let index = Index::new("dio-telemetry-budget");
    for round in rounds {
        index.bulk_text(round).expect("JSON text");
    }
    assert_eq!(index.count(&Query::MatchAll), docs as u64);
    let per_doc = (LIVE.get() - live) / docs as i64;
    drop(index);
    assert!(per_doc <= 433, "a stored health document holds {per_doc} B of heap");
}

/// Resolving a registry histogram walks the buckets from its min's to its
/// max's once and allocates nothing; it copied all 1 919 bucket counts into
/// a vector and walked it four times before.
#[test]
fn a_histogram_snapshot_allocates_nothing() {
    let _turn = in_turn();
    let histogram = dio_telemetry::Histogram::new();
    for v in 1..=10_000u64 {
        histogram.record(v * 37);
    }
    let allocs = ALLOCS.get();
    let snapshot = histogram.snapshot();
    assert_eq!(ALLOCS.get() - allocs, 0, "a histogram snapshot allocated");
    assert_eq!((snapshot.count, snapshot.min, snapshot.max), (10_000, 37, 370_000));
}

/// `append_puts` of `docs` documents into a fresh default-config store, the
/// index name shared: allocations made per document, and live heap the engine
/// still holds per document once the batch is consumed.
fn append_cost_per_doc(docs: u64) -> (f64, f64) {
    let dir = std::env::temp_dir().join(format!("dio-append-budget-{}-{docs}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DocStore::open_with(&dir, StorageConfig::default()).expect("open store");
    let engine = Arc::clone(store.storage().expect("persistent store"));
    let body = br#"{"args":{"count":26,"fd":3},"class":"data","syscall":"write"}"#;
    let live = LIVE.get();
    let batch: Vec<(u64, Vec<u8>)> = (0..docs).map(|id| (id, body.to_vec())).collect();
    let allocs = ALLOCS.get();
    engine.append_puts("dio-budget", batch).expect("append");
    let per_doc = |count: f64| count / docs as f64;
    let cost = (per_doc((ALLOCS.get() - allocs) as f64), per_doc((LIVE.get() - live) as f64));
    drop((engine, store));
    let _ = std::fs::remove_dir_all(&dir);
    cost
}

/// Appending a batch copies nothing per document: the index name is shared by
/// the batch's ops and records, and the keydir looks an index up before it
/// inserts one. What is left is the amortised growth of the per-shard vectors
/// and maps: 0.04 allocations per document now that a block of ids routes to
/// one shard (0.229 while each id was routed alone, 2.3 while each op copied
/// the name, 0.277 while the shard kept a hint entry per record).
#[test]
fn appending_a_batch_allocates_nothing_per_document() {
    let _turn = in_turn();
    let (allocs, _) = append_cost_per_doc(1_000);
    assert!(allocs <= 0.25, "append_puts made {allocs} allocations per document");
}

/// What persistence keeps on the heap per stored document is its keydir
/// entry and nothing else: 74.9 B, hash-table slack included (137.8 B while
/// the shard also kept a hint entry per record of its active segment, to write
/// a sidecar no reader could use).
#[test]
fn the_storage_engine_keeps_one_keydir_entry_per_document() {
    let _turn = in_turn();
    let (_, live) = append_cost_per_doc(50_000);
    assert!(live <= 80.0, "the storage engine holds {live:.1} B of heap per appended document");
}

/// A document model change may not move a byte of what is stored: golden
/// files, `store_v1`'s segments and `results/*.json` all hold these bytes.
#[test]
fn event_document_serializes_to_pinned_bytes() {
    let _turn = in_turn();
    let mut e = SyscallEvent::synthetic(SyscallKind::Pwrite64);
    e.session = "s1".into();
    e.pid = Pid(100);
    e.tid = Tid(101);
    e.comm = "app \"one\"".into();
    e.cpu = 3;
    e.time_enter_ns = 1_000;
    e.time_exit_ns = 3_500;
    e.ret = -28;
    e.args = [ArgValue::Int(3), ArgValue::UInt(26), ArgValue::UInt(52)].into_iter().collect();
    e.file_type = Some(FileType::Regular);
    e.offset = Some(52);
    e.file_tag = Some(FileTag::new(7_340_032, 12, 2_156_997_363_734_041));
    e.file_path = Some("/data/app.log".into());
    let doc = e.to_document();
    let pinned = r#"{"args":{"count":26,"fd":3,"offset":52},"class":"data","cpu":3,"file_path":"/data/app.log","file_tag":"7340032|12|2156997363734041","file_type":"regular","latency_ns":2500,"offset":52,"pid":100,"proc_name":"app \"one\"","ret_val":-28,"session":"s1","syscall":"pwrite64","tid":101,"time":1000,"time_exit":3500}"#;
    assert_eq!(doc.to_string(), pinned);
    assert_eq!(serde_json::to_string(&doc).unwrap(), pinned);
    assert_eq!(serde_json::from_str::<serde_json::Value>(pinned).unwrap(), doc);

    // A negative integer beside a string, with the path shared into
    // `file_path`; then the widest signature: five arguments, two strings.
    let mut open = SyscallEvent::synthetic(SyscallKind::Openat);
    open.comm = "app".into();
    open.ret = 3;
    open.args = [
        ArgValue::Int(-100),
        ArgValue::from("/data/app \"1\".log"),
        ArgValue::UInt(0o102),
        ArgValue::UInt(0o644),
    ]
    .into_iter()
    .collect();
    open.file_type = Some(FileType::Regular);
    open.file_tag = Some(FileTag::new(7_340_032, 12, 42));
    open.file_path = open.args.str_at(1).cloned();
    let pinned = r#"{"args":{"dfd":-100,"flags":66,"mode":420,"path":"/data/app \"1\".log"},"class":"metadata","cpu":0,"file_path":"/data/app \"1\".log","file_tag":"7340032|12|42","file_type":"regular","latency_ns":0,"pid":0,"proc_name":"app","ret_val":3,"session":"test","syscall":"openat","tid":0,"time":0,"time_exit":0}"#;
    assert_eq!(open.to_document().to_string(), pinned);
    let mut rename = SyscallEvent::synthetic(SyscallKind::Renameat2);
    rename.args = [
        ArgValue::Int(-100),
        ArgValue::from("/a"),
        ArgValue::Int(-100),
        ArgValue::from("/b"),
        ArgValue::UInt(1),
    ]
    .into_iter()
    .collect();
    rename.ret = -17;
    rename.file_path = rename.args.str_at(1).cloned();
    let pinned = r#"{"args":{"flags":1,"newdfd":-100,"newpath":"/b","olddfd":-100,"oldpath":"/a"},"class":"metadata","cpu":0,"file_path":"/a","latency_ns":0,"pid":0,"proc_name":"","ret_val":-17,"session":"test","syscall":"renameat2","tid":0,"time":0,"time_exit":0}"#;
    assert_eq!(rename.to_document().to_string(), pinned);

    let bare = SyscallEvent::synthetic(SyscallKind::Mkdir);
    let pinned = r#"{"args":{},"class":"directory management","cpu":0,"latency_ns":0,"pid":0,"proc_name":"","ret_val":0,"session":"test","syscall":"mkdir","tid":0,"time":0,"time_exit":0}"#;
    assert_eq!(bare.to_document().to_string(), pinned);
}

#[test]
fn telemetry_documents_serialize_to_pinned_bytes() {
    let _turn = in_turn();
    let registry = MetricsRegistry::new();
    registry.counter("tracer.events").add(7);
    registry.gauge("tracer.channel.depth").set(3);
    registry.histogram("tracer.parse_ns").record(1_000);
    let docs = registry.snapshot().health_documents("s1", 2, 99);
    let lines: Vec<String> = docs.iter().map(ToString::to_string).collect();
    assert_eq!(
        lines,
        [
            r#"{"kind":"counter","metric":"tracer.events","seq":2,"session":"s1","time":99,"value":7}"#,
            r#"{"kind":"gauge","metric":"tracer.channel.depth","seq":2,"session":"s1","time":99,"value":3}"#,
            r#"{"count":1,"kind":"histogram","max":1000,"mean":1000.0,"metric":"tracer.parse_ns","min":1000,"p50":1000,"p90":1000,"p99":1000,"p999":1000,"seq":2,"session":"s1","time":99}"#,
        ]
    );
    let pretty = serde_json::to_string_pretty(&docs[0]).unwrap();
    assert_eq!(
        pretty,
        "{\n  \"kind\": \"counter\",\n  \"metric\": \"tracer.events\",\n  \"seq\": 2,\n  \
         \"session\": \"s1\",\n  \"time\": 99,\n  \"value\": 7\n}"
    );
}
