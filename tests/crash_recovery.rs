//! In-process recovery tests for the persistent backend (DESIGN.md §11):
//! deliberate on-disk corruption, subscription shutdown semantics, the
//! committed golden fixture, and property-based write→crash→reopen→query
//! round trips. The *process-kill* side of the crash contract lives in
//! `crates/bench/tests/crash_recovery.rs` (child-process harness).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use serde_json::{json, Value};

use dio_backend::storage::record::{Record, FLAG_DICT, FLAG_EVENTS};
use dio_backend::storage::segment;
use dio_backend::{DocStore, Query, SearchRequest, StorageConfig};
use dio_syscall::{ArgValue, FileTag, FileType, Pid, SyscallEvent, SyscallKind, Tid};
use dio_telemetry::MetricsRegistry;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn tmp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dio-recover-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The segment logs of every shard, oldest first: the last of each is the
/// active one, the others are sealed.
fn segment_logs(root: &Path) -> Vec<Vec<PathBuf>> {
    let mut shards = Vec::new();
    for entry in std::fs::read_dir(root).expect("read store root") {
        let path = entry.expect("dir entry").path();
        if !path.is_dir() {
            continue;
        }
        let mut segs: Vec<PathBuf> = std::fs::read_dir(&path)
            .expect("read shard dir")
            .map(|e| e.expect("entry").path())
            .filter(|p| {
                p.extension().is_some_and(|e| e == "log")
                    && p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with("seg-"))
            })
            .collect();
        segs.sort();
        shards.push(segs);
    }
    shards.sort();
    shards
}

/// The active (highest-generation) segment log of every shard.
fn active_logs(root: &Path) -> Vec<PathBuf> {
    segment_logs(root).into_iter().filter_map(|mut segs| segs.pop()).collect()
}

/// Every sealed segment log, shard 0's first.
fn sealed_logs(root: &Path) -> Vec<PathBuf> {
    let without_active = |mut segs: Vec<PathBuf>| {
        segs.pop();
        segs
    };
    segment_logs(root).into_iter().flat_map(without_active).collect()
}

fn all_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("read dir") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy root");
    for file in all_files(from) {
        let rel = file.strip_prefix(from).expect("under root");
        let dst = to.join(rel);
        std::fs::create_dir_all(dst.parent().expect("parent")).expect("create parent");
        std::fs::copy(&file, &dst).expect("copy file");
    }
}

/// Every file under `root`, by relative path, with its bytes.
fn tree(root: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    all_files(root)
        .into_iter()
        .map(|p| {
            (p.strip_prefix(root).expect("under root").to_path_buf(), std::fs::read(&p).unwrap())
        })
        .collect()
}

/// Same files, same bytes — naming the file that differs, not printing it.
fn assert_same_tree(left: &[(PathBuf, Vec<u8>)], right: &[(PathBuf, Vec<u8>)], what: &str) {
    let names = |tree: &[(PathBuf, Vec<u8>)]| -> Vec<PathBuf> {
        tree.iter().map(|(path, _)| path.clone()).collect()
    };
    assert_eq!(names(left), names(right), "{what}: files created or removed");
    for ((path, a), (_, b)) in left.iter().zip(right) {
        assert!(a == b, "{what}: {} differs", path.display());
    }
}

fn has_extension(path: &Path, ext: &str) -> bool {
    path.extension().is_some_and(|e| e == ext)
}

/// Every document of every index, by id.
fn store_state(store: &DocStore) -> BTreeMap<String, Vec<(u64, Value)>> {
    let mut state = BTreeMap::new();
    for name in store.index_names() {
        let resp = store.index(&name).search(&SearchRequest::match_all().size(1_000_000));
        let mut docs: Vec<(u64, Value)> = resp.hits.into_iter().map(|h| (h.id, h.source)).collect();
        docs.sort_by_key(|(id, _)| *id);
        state.insert(name, docs);
    }
    state
}

fn padded_docs(count: usize, pad: usize) -> Vec<Value> {
    (0..count).map(|n| json!({"n": n, "pad": "x".repeat(pad)})).collect()
}

/// Event `n` of a deterministic session on two files of two threads: an
/// `openat`, two `write`s and an `fsync` in turn, `tag` telling sessions
/// apart.
fn traced_event(tag: &str, n: u64) -> SyscallEvent {
    let kinds = [SyscallKind::Openat, SyscallKind::Write, SyscallKind::Write, SyscallKind::Fsync];
    let mut e = SyscallEvent::synthetic(kinds[n as usize % 4]);
    e.session = tag.into();
    e.comm = ["db_bench", "rocksdb:low0"][n as usize % 2].into();
    e.pid = Pid(40);
    e.tid = Tid(41 + n as u32 % 2);
    e.cpu = n as u32 % 2;
    e.time_enter_ns = 1_000_000 + 1_500 * n;
    e.time_exit_ns = e.time_enter_ns + 700 + n % 5;
    let path = format!("/db/{tag}-{}.log", n % 2);
    e.args = match e.kind {
        SyscallKind::Openat => {
            e.ret = 3;
            [ArgValue::Int(-100), path.into(), ArgValue::UInt(0o102), ArgValue::UInt(0o644)]
                .into_iter()
                .collect()
        }
        SyscallKind::Write => {
            e.ret = 26;
            e.offset = Some(26 * n);
            [ArgValue::Int(3), ArgValue::UInt(26)].into_iter().collect()
        }
        _ => [ArgValue::Int(3)].into_iter().collect(),
    };
    e.file_path = dio_syscall::path_arg(e.kind).and_then(|i| e.args.str_at(i)).cloned();
    e.file_type = Some(FileType::Regular);
    if e.file_path.is_none() {
        e.file_tag = Some(FileTag::new(7_340_032, 12 + n % 2, 42));
    }
    e
}

fn flip_a_byte_mid_file(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    assert!(bytes.len() > 40, "victim segment has content");
    let at = bytes.len() / 2;
    bytes[at] ^= 0xFF;
    std::fs::write(path, &bytes).unwrap();
}

// ------------------------------------------------- deliberate corruption

#[test]
fn torn_tail_is_truncated_and_counted() {
    let dir = tmp_store("torn");
    let docs: Vec<Value> = (0..40).map(|n| json!({"n": n, "syscall": "write"})).collect();
    {
        let store = DocStore::open_with(&dir, StorageConfig::tiny_for_tests()).unwrap();
        store.bulk("dio-t", docs.clone());
        store.flush().unwrap();
    }
    // Simulate a kill mid-append: junk bytes (an unfinished frame) on
    // the tail of two shards' active segments.
    let mut torn_shards = 0;
    for log in active_logs(&dir).into_iter().take(2) {
        let mut f = std::fs::OpenOptions::new().append(true).open(&log).unwrap();
        f.write_all(&[0xAB; 37]).unwrap();
        torn_shards += 1;
    }
    assert!(torn_shards > 0, "workload produced active segments");

    let store = DocStore::open_with(&dir, StorageConfig::tiny_for_tests()).unwrap();
    // Every acknowledged document survives; the junk is gone.
    let idx = store.index("dio-t");
    assert_eq!(idx.len(), docs.len());
    for (id, doc) in docs.iter().enumerate() {
        assert_eq!(idx.get(id as u64).as_ref(), Some(doc));
    }
    store.storage().unwrap().verify().expect("invariants after truncation");
    // The repair is visible in telemetry: `backend.recovery.truncated`.
    let registry = MetricsRegistry::new();
    store.bind_telemetry(&registry);
    assert_eq!(
        registry.counter("backend.recovery.truncated").get(),
        torn_shards,
        "one truncation per torn shard"
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flip a byte in the middle of one segment: everything from that frame
/// on is unrecoverable (media corruption, not a torn write), and recovery
/// must degrade to a clean prefix — open succeeds, survivors are
/// byte-exact, invariants hold. Where the corruption sits does not decide
/// whether the store opens: the largest active log of a store that never
/// sealed, or a sealed log of one that did (4 KiB segments, ~100-byte
/// documents).
#[test]
fn mid_file_corruption_opens_with_valid_survivors() {
    for (docs, victim_is_sealed) in [(padded_docs(30, 40), false), (padded_docs(300, 64), true)] {
        let dir = tmp_store("midfile");
        {
            let store = DocStore::open_with(&dir, StorageConfig::tiny_for_tests()).unwrap();
            store.bulk("dio-m", docs.clone());
            store.flush().unwrap();
        }
        let victim = if victim_is_sealed {
            sealed_logs(&dir).into_iter().next().expect("workload sealed a segment")
        } else {
            assert!(sealed_logs(&dir).is_empty(), "workload fits the active segments");
            let largest = active_logs(&dir).into_iter().max_by_key(|p| p.metadata().unwrap().len());
            largest.expect("an active segment")
        };
        flip_a_byte_mid_file(&victim);

        let store = DocStore::open_with(&dir, StorageConfig::tiny_for_tests())
            .unwrap_or_else(|e| panic!("open with {} corrupted: {e}", victim.display()));
        assert!(store.storage_report().unwrap().recovery_truncated >= 1);
        store.storage().unwrap().verify().expect("invariants after corruption");
        let idx = store.index("dio-m");
        assert!(idx.len() < docs.len(), "the corrupted suffix is really gone");
        let resp = idx.search(&SearchRequest::match_all().size(1_000_000));
        for hit in resp.hits {
            assert_eq!(
                Some(&hit.source),
                docs.get(hit.id as usize),
                "survivor {} must be byte-exact",
                hit.id
            );
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Compaction never deletes what it could not read: an input with a frame
/// that fails its CRC is refused before a merge file exists, a slot is
/// repointed or an input removed — merging its valid prefix and deleting
/// it would lose acknowledged documents without a count. Reopen truncates
/// and counts, as it does for any torn segment.
#[test]
fn compaction_refuses_an_input_it_cannot_read() {
    let dir = tmp_store("refuse");
    let docs = padded_docs(300, 64);
    let store = DocStore::open_with(&dir, StorageConfig::tiny_for_tests()).unwrap();
    store.bulk("dio-r", docs.clone());
    store.flush().unwrap();
    // On disk a store is its manifest and segment logs, nothing else; and
    // what a refused compaction may touch is a segment nothing was written to.
    let files_holding_data = || -> Vec<(PathBuf, Vec<u8>)> {
        let tree = tree(&dir);
        for (path, _) in &tree {
            let name = path.file_name().and_then(|n| n.to_str()).expect("utf-8 name");
            let is_segment = name.starts_with("seg-") && has_extension(path, "log");
            assert!(name == "MANIFEST" || is_segment, "unexpected file {}", path.display());
        }
        tree.into_iter().filter(|(_, bytes)| !bytes.is_empty()).collect()
    };
    // Shard 0's sealed log: `compact_now` takes the shards in order and
    // stops at the first error, so no other shard is merged before it.
    let victim = sealed_logs(&dir).into_iter().next().expect("workload sealed a segment");
    assert!(victim.parent().unwrap().ends_with("shard-000"), "{}", victim.display());
    flip_a_byte_mid_file(&victim);
    let before = files_holding_data();
    let compactions = store.storage_report().unwrap().compactions;

    let err = store.compact_now().expect_err("an unreadable input is refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().starts_with("shard 0 gen 1 offset "), "{err}");
    assert_eq!(store.storage_report().unwrap().compactions, compactions);
    // Every file that holds a byte is where it was, byte for byte, and no
    // merge output exists. All the refused run did is rotate: the shard's
    // active segment — empty before and after — has a new generation.
    assert_same_tree(&files_holding_data(), &before, "a refused compaction");
    drop(store);

    let store = DocStore::open_with(&dir, StorageConfig::tiny_for_tests()).unwrap();
    assert_eq!(store.storage_report().unwrap().recovery_truncated, 1, "the loss is counted");
    store.storage().unwrap().verify().expect("invariants after truncation");
    let survivors = store_state(&store).remove("dio-r").expect("index survives");
    assert!(survivors.len() < docs.len(), "the corrupted suffix is really gone");
    for (id, doc) in &survivors {
        assert_eq!(Some(doc), docs.get(*id as usize), "survivor {id} must be byte-exact");
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------- subscriptions across close

#[test]
fn subscription_closes_deterministically_on_store_shutdown() {
    let dir = tmp_store("subs");
    let sub;
    {
        let store = DocStore::open_with(&dir, StorageConfig::tiny_for_tests()).unwrap();
        sub = store.subscribe_with_capacity("dio-live", 2);
        store.bulk("dio-live", vec![json!({"n": 1})]);
        store.bulk("dio-live", vec![json!({"n": 2})]);
        store.bulk("dio-live", vec![json!({"n": 3})]); // over capacity: dropped
        assert!(!sub.is_closed());
        assert_eq!(sub.missed_batches(), 1);
    } // store (and its indexes) dropped: the index side closes the queue

    assert!(sub.is_closed(), "index shutdown closes the subscription");
    // Batches delivered before the close stay drainable...
    assert_eq!(sub.recv_timeout(Duration::from_secs(30)).unwrap()[0]["n"], 1);
    assert_eq!(sub.try_recv().unwrap()[0]["n"], 2);
    // ...and once drained, recv returns None immediately instead of
    // sleeping out the timeout.
    let start = Instant::now();
    assert!(sub.recv_timeout(Duration::from_secs(30)).is_none());
    assert!(start.elapsed() < Duration::from_secs(5), "closed recv must not block");
    assert_eq!(sub.missed_batches(), 1, "miss counter is final after close");

    // Reopening the store is a fresh world: the old handle stays closed,
    // a new subscription sees new traffic.
    let store = DocStore::open_with(&dir, StorageConfig::tiny_for_tests()).unwrap();
    let fresh = store.subscribe("dio-live");
    store.bulk("dio-live", vec![json!({"n": 4})]);
    assert!(sub.is_closed());
    assert!(sub.try_recv().is_none());
    assert_eq!(fresh.try_recv().unwrap()[0]["n"], 4);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn delete_index_closes_its_subscriptions() {
    let dir = tmp_store("subdel");
    let store = DocStore::open_with(&dir, StorageConfig::tiny_for_tests()).unwrap();
    let sub = store.subscribe("dio-gone");
    store.bulk("dio-gone", vec![json!({"n": 1})]);
    assert!(store.delete_index("dio-gone"));
    assert!(sub.is_closed());
    assert_eq!(sub.try_recv().unwrap()[0]["n"], 1, "pre-delete batch still drainable");
    assert!(sub.recv_timeout(Duration::from_secs(30)).is_none());
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------- the unlogged tail

/// The documents `events` become, by the ids a fresh index gives them.
fn documents_of(events: &[SyscallEvent]) -> Vec<(u64, Value)> {
    events.iter().map(SyscallEvent::to_document).enumerate().map(|(id, d)| (id as u64, d)).collect()
}

/// The tracer's events on a persisted index are queryable before they are
/// logged, and an event not yet logged was never acknowledged: a crash may
/// lose it. Any other write to the index logs the tail first, so the log
/// replays in id order and the later write wins. The crash here is the
/// store forgotten in place — no drop, no flush — with every append already
/// in the page cache.
#[test]
fn a_write_behind_an_unlogged_tail_logs_the_tail_first() {
    for write in ["none", "update_by_query", "json bulk", "delete", "correlate"] {
        let dir = tmp_store("tail");
        let store = DocStore::open_with(&dir, fixture_config()).unwrap();
        let mut events: Vec<SyscallEvent> = (0..20).map(|n| traced_event("tail", n)).collect();
        if write == "correlate" {
            // The opens name the tag of one of the two files.
            for e in events.iter_mut().filter(|e| e.kind == SyscallKind::Openat) {
                e.file_tag = Some(FileTag::new(7_340_032, 12, 42));
            }
        }
        let mut expect = documents_of(&events);
        assert!(!store.accept_events("dio-tail", &mut events), "held, not acknowledged");
        assert!(events.is_empty());
        let index = store.index("dio-tail");
        assert_eq!(index.count(&Query::MatchAll), 20, "{write}: queryable before it is logged");
        match write {
            "none" => expect.clear(),
            "update_by_query" => {
                let rewrite = Query::term("time", expect[6].1["time"].clone());
                assert_eq!(
                    index.update_by_query(&rewrite, |doc| doc["file_path"] = json!("/x")),
                    1
                );
                expect[6].1["file_path"] = json!("/x");
            }
            "json bulk" => {
                let ids = store.bulk("dio-tail", vec![json!({"kind": "health"})]);
                expect.push((ids[0], json!({"kind": "health"})));
            }
            "correlate" => {
                let report = dio_backend::correlate_paths(&index);
                assert_eq!((report.events_updated, report.events_unresolved), (5, 10));
                for (_, doc) in
                    expect.iter_mut().filter(|(_, doc)| doc["file_tag"] == "7340032|12|42")
                {
                    doc["file_path"] = json!("/db/tail-0.log");
                }
            }
            _ => {
                assert!(index.delete(9));
                expect.remove(9);
            }
        }
        std::mem::forget(index);
        std::mem::forget(store);

        let store = DocStore::open_with(&dir, fixture_config()).unwrap();
        let state = store_state(&store);
        let recovered = state.get("dio-tail").cloned().unwrap_or_default();
        assert_eq!(recovered, expect, "{write}: recovered after the crash");
        store.storage().unwrap().verify().expect("invariants");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A store dropped without `flush()` logs what its indices held unlogged,
/// and `log_events` logs it on request; an index deleted meanwhile does not
/// come back.
#[test]
fn dropping_a_store_logs_its_unlogged_tail() {
    let dir = tmp_store("tail-drop");
    let (mut logged, mut dropped) = (
        (0..12).map(|n| traced_event("logged", n)).collect::<Vec<_>>(),
        (0..30).map(|n| traced_event("dropped", n)).collect::<Vec<_>>(),
    );
    let mut expect = BTreeMap::new();
    expect.insert("dio-logged".to_string(), documents_of(&logged));
    expect.insert("dio-dropped".to_string(), documents_of(&dropped));
    {
        let store = DocStore::open_with(&dir, fixture_config()).unwrap();
        store.accept_events("dio-logged", &mut logged);
        assert_eq!(store.log_events("dio-logged"), 12);
        assert_eq!(store.log_events("dio-logged"), 0, "nothing left to log");
        store.accept_events("dio-dropped", &mut dropped);
        let mut gone: Vec<SyscallEvent> = (0..5).map(|n| traced_event("gone", n)).collect();
        store.accept_events("dio-gone", &mut gone);
        assert!(store.delete_index("dio-gone"));
    }
    let store = DocStore::open_with(&dir, fixture_config()).unwrap();
    assert_eq!(store_state(&store), expect);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------- golden fixtures

/// The exact config the committed fixtures were generated with. Spelled
/// out literally (not via `tiny_for_tests`) so later tuning of the test
/// profile cannot silently invalidate them.
fn fixture_config() -> StorageConfig {
    StorageConfig {
        shards: 4,
        max_segment_bytes: 4096,
        compact_min_dead_ratio: 0.2,
        compact_min_sealed_bytes: 1024,
        sync_every_batch: false,
        auto_compact: false,
    }
}

/// `tests/fixtures/store_v1`, an earlier version's store (JSON frames,
/// per-id routing, `.hint` sidecars), frozen; `store_v2`, the next one's
/// (self-contained runs), frozen; `store_v3`, what this version writes (runs
/// of rows naming the index's dictionary records).
fn fixture_dir(version: u32) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/fixtures/store_v{version}"))
}

/// Runs the deterministic history behind a fixture on `store` and returns
/// the state it must recover to: puts across two sessions, overwrite-free
/// deletes, a dropped third session, and one compaction — and for `store_v2`
/// (`typed`) a traced session too, one of its events deleted and one
/// rewritten, as path correlation does, before the compaction.
fn fixture_state(store: &DocStore, typed: bool) -> BTreeMap<String, Vec<(u64, Value)>> {
    let s1: Vec<Value> = (0..120).map(|n| json!({"n": n, "syscall": "read"})).collect();
    let s2: Vec<Value> = (0..30).map(|n| json!({"n": n, "syscall": "openat"})).collect();
    store.bulk("dio-fix1", s1.clone());
    store.bulk("dio-fix2", s2.clone());
    store.bulk("dio-dropped", (0..50).map(|n| json!({"n": n})).collect());
    let mut expect = BTreeMap::new();
    if typed {
        let s3: Vec<SyscallEvent> = (0..40).map(|n| traced_event("fix3", n)).collect();
        let mut docs: Vec<(u64, Value)> =
            s3.iter().enumerate().map(|(id, e)| (id as u64, e.to_document())).collect();
        store.bulk_spans("dio-fix3", s3, &mut []);
        let idx3 = store.index("dio-fix3");
        assert!(idx3.delete(9));
        docs.remove(9);
        let rewrite = Query::term("time", docs[6].1["time"].clone());
        assert_eq!(idx3.update_by_query(&rewrite, |doc| doc["file_path"] = json!("/db/LOG")), 1);
        docs[6].1["file_path"] = json!("/db/LOG");
        expect.insert("dio-fix3".to_string(), docs);
    }
    let idx1 = store.index("dio-fix1");
    for id in [3u64, 77, 118] {
        assert!(idx1.delete(id));
    }
    store.delete_index("dio-dropped");
    store.compact_now().unwrap();
    store.flush().unwrap();

    expect.insert(
        "dio-fix1".to_string(),
        s1.into_iter()
            .enumerate()
            .map(|(id, doc)| (id as u64, doc))
            .filter(|(id, _)| ![3u64, 77, 118].contains(id))
            .collect::<Vec<_>>(),
    );
    expect.insert(
        "dio-fix2".to_string(),
        s2.into_iter().enumerate().map(|(id, doc)| (id as u64, doc)).collect(),
    );
    expect
}

/// Regenerates the manifest and segment logs of `tests/fixtures/store_v3`.
/// Run explicitly (and commit the result) when the on-disk format version
/// changes: `cargo test --test crash_recovery regenerate -- --ignored`.
/// `store_v1` and `store_v2` are never regenerated: nothing writes their
/// versions any more.
#[test]
#[ignore = "writes the committed fixture; run by hand on format changes"]
fn regenerate_golden_fixture() {
    let dir = fixture_dir(3);
    let _ = std::fs::remove_dir_all(&dir);
    let scratch = tmp_store("regenerate");
    let store = DocStore::open_with(&scratch, fixture_config()).unwrap();
    fixture_state(&store, true);
    drop(store);
    copy_tree(&scratch, &dir);
    let _ = std::fs::remove_dir_all(&scratch);
    println!("fixture regenerated at {}", dir.display());
}

/// The state a fixture's history produces, from a scratch store it is
/// replayed on; `check` sees that store's directory before it goes.
fn regenerated_fixture_state(
    typed: bool,
    check: impl FnOnce(&Path),
) -> BTreeMap<String, Vec<(u64, Value)>> {
    let scratch = tmp_store("golden-expect");
    let store = DocStore::open_with(&scratch, fixture_config()).unwrap();
    let state = fixture_state(&store, typed);
    drop(store);
    check(&scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    state
}

/// Opens a copy of the fixture of `version` and checks it holds `expect`, its
/// invariants hold, and a clean open + close rewrote no byte and removed no
/// file, sidecars included: recovery is read-only on an intact store, so
/// format compatibility is testable against the committed tree forever.
fn fixture_reopens_unchanged(version: u32, expect: &BTreeMap<String, Vec<(u64, Value)>>) {
    let fixture = fixture_dir(version);
    assert!(
        fixture.join("MANIFEST").exists(),
        "committed fixture missing — run the regenerate_golden_fixture test"
    );
    // Work on a copy: the committed tree must stay pristine even if the
    // assertions below fail halfway.
    let dir = tmp_store("golden");
    copy_tree(&fixture, &dir);
    let store = DocStore::open_with(&dir, fixture_config()).unwrap();
    assert_eq!(&store_state(&store), expect, "store_v{version}");
    store.storage().unwrap().verify().expect("fixture invariants");
    assert_eq!(store.storage_report().unwrap().recovery_truncated, 0);
    drop(store);
    assert_same_tree(&tree(&dir), &tree(&fixture), "open + close of the fixture");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store an earlier version wrote — JSON frames routed by single ids —
/// still opens to the state its history produces.
#[test]
fn golden_fixture_reopens_byte_for_byte() {
    fixture_reopens_unchanged(1, &regenerated_fixture_state(false, |_| ()));
}

/// A store of self-contained runs, which the previous version wrote, still
/// opens to the state its history produces, its runs' events interned into
/// the index's dictionaries as they are read.
#[test]
fn golden_v2_fixture_reopens_byte_for_byte() {
    fixture_reopens_unchanged(2, &regenerated_fixture_state(true, |_| ()));
}

/// Replaying `store_v3`'s history writes the committed manifest and logs
/// again, runs and dictionary records included: neither the record format,
/// a run's or a dictionary record's encoding nor a document's serialization
/// moved.
#[test]
fn golden_v3_fixture_regenerates_byte_for_byte() {
    let expect = regenerated_fixture_state(true, |scratch| {
        assert_same_tree(
            &tree(scratch),
            &tree(&fixture_dir(3)),
            "a regenerated store and the fixture",
        );
    });
    fixture_reopens_unchanged(3, &expect);
}

/// Events appended to a `v1` store are runs and dictionary records, which a
/// `v1` reader cannot read: the manifest says `v3` before the first one is
/// written, routing by single ids as the store always has. A document
/// append leaves it alone.
#[test]
fn events_appended_to_a_v1_store_make_it_v3() {
    let dir = tmp_store("upgrade");
    copy_tree(&fixture_dir(1), &dir);
    let manifest = || std::fs::read_to_string(dir.join("MANIFEST")).unwrap();
    let mut expect = regenerated_fixture_state(false, |_| ());
    {
        let store = DocStore::open_with(&dir, fixture_config()).unwrap();
        let ids = store.bulk("dio-fix2", vec![json!({"n": 30, "syscall": "openat"})]);
        expect.get_mut("dio-fix2").unwrap().push((ids[0], json!({"n": 30, "syscall": "openat"})));
        assert_eq!(manifest(), "dio-store v1\nshards 4\n");
        let events: Vec<SyscallEvent> = (0..12).map(|n| traced_event("fix4", n)).collect();
        let docs = events.iter().map(SyscallEvent::to_document).enumerate();
        expect.insert("dio-fix4".into(), docs.map(|(id, doc)| (id as u64, doc)).collect());
        store.bulk_spans("dio-fix4", events, &mut []);
        assert_eq!(manifest(), "dio-store v3\nshards 4\nblock 1\n");
    }
    let store = DocStore::open_with(&dir, fixture_config()).unwrap();
    assert_eq!(store_state(&store), expect);
    store.storage().unwrap().verify().expect("invariants");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `v2` store's index takes new events beside the self-contained runs it
/// holds: the manifest says `v3` once they are logged, and the index's
/// dictionaries — the old events' names interned at open among them — go
/// into its first dictionary record. A compaction keeps a run of the old
/// format that lost an event as the documents of the events it kept.
#[test]
fn events_appended_to_a_v2_store_make_it_v3() {
    let dir = tmp_store("upgrade-v2");
    copy_tree(&fixture_dir(2), &dir);
    let manifest = || std::fs::read_to_string(dir.join("MANIFEST")).unwrap();
    let mut expect = regenerated_fixture_state(true, |_| ());
    {
        let store = DocStore::open_with(&dir, fixture_config()).unwrap();
        let fix3 = expect.get_mut("dio-fix3").unwrap();
        let (gone, _) = fix3.remove(2);
        assert!(store.index("dio-fix3").delete(gone), "an event of an old run");
        let events: Vec<SyscallEvent> = (40..52).map(|n| traced_event("fix3", n)).collect();
        let docs: Vec<Value> = events.iter().map(SyscallEvent::to_document).collect();
        let ids = store.bulk_spans("dio-fix3", events, &mut []);
        fix3.extend(ids.into_iter().zip(docs));
        assert_eq!(manifest(), "dio-store v3\nshards 4\nblock 1024\n");
        store.compact_now().unwrap();
        assert_eq!(store_state(&store), expect, "before the reopen");
    }
    let store = DocStore::open_with(&dir, fixture_config()).unwrap();
    assert_eq!(store_state(&store), expect);
    store.storage().unwrap().verify().expect("invariants");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every frame of `log` with its offset and flags.
fn frames_of(log: &Path) -> Vec<(u64, u8)> {
    let scan = segment::scan(log).unwrap();
    scan.records.iter().map(|r| (r.offset, r.record.flags)).collect()
}

/// A kill inside a dictionary record tears it, and the run written after it
/// never reaches the log: the shard truncates the torn record at reopen and
/// opens, the index without the events whose names the record held. What
/// was logged before stays, and the next log writes the names again.
#[test]
fn a_torn_dictionary_record_admits_no_run_after_it() {
    let dir = tmp_store("torn-dict");
    let config = StorageConfig { shards: 1, ..fixture_config() };
    let first: Vec<SyscallEvent> = (0..8).map(|n| traced_event("kept", n)).collect();
    let mut expect = documents_of(&first);
    {
        let store = DocStore::open_with(&dir, config.clone()).unwrap();
        store.bulk_spans("dio-torn", first, &mut []);
        store.bulk_spans("dio-torn", (0..8).map(|n| traced_event("lost", n)).collect(), &mut []);
    }
    let log = active_logs(&dir).into_iter().next().expect("the shard's active log");
    let frames = frames_of(&log);
    let flags: Vec<u8> = frames.iter().map(|&(_, flags)| flags).collect();
    assert_eq!(
        flags,
        [FLAG_DICT, FLAG_EVENTS, FLAG_DICT, FLAG_EVENTS],
        "a record ahead of each run"
    );
    // The kill lands in the second dictionary record: its run never came.
    let torn_at = frames[2].0 + 30;
    let file = std::fs::OpenOptions::new().write(true).open(&log).unwrap();
    file.set_len(torn_at).unwrap();
    drop(file);

    let store = DocStore::open_with(&dir, config.clone()).unwrap();
    assert_eq!(store.storage_report().unwrap().recovery_truncated, 1);
    assert_eq!(store_state(&store)["dio-torn"], expect, "only what the log holds whole");
    store.storage().unwrap().verify().expect("invariants");
    let again: Vec<SyscallEvent> = (0..4).map(|n| traced_event("again", n)).collect();
    let ids = store.bulk_spans("dio-torn", again.clone(), &mut []);
    expect.extend(ids.into_iter().zip(again.iter().map(SyscallEvent::to_document)));
    drop(store);
    let store = DocStore::open_with(&dir, config).unwrap();
    assert_eq!(store_state(&store)["dio-torn"], expect, "the names logged again");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A run naming an id no dictionary record defines — a record lost with
/// the page cache, or damage a checksum cannot see — is refused: the store
/// does not open, and names the index.
#[test]
fn a_run_naming_an_undefined_id_refuses_open() {
    let dir = tmp_store("undefined");
    let config = StorageConfig { shards: 1, ..fixture_config() };
    {
        let store = DocStore::open_with(&dir, config.clone()).unwrap();
        store.bulk_spans("dio-u", (0..8).map(|n| traced_event("u", n)).collect(), &mut []);
    }
    let log = active_logs(&dir).into_iter().next().expect("the shard's active log");
    let (dict_at, run_at) = match frames_of(&log)[..] {
        [(dict, FLAG_DICT), (run, FLAG_EVENTS)] => (dict as usize, run as usize),
        ref other => panic!("{other:?}"),
    };
    let bytes = std::fs::read(&log).unwrap();
    std::fs::write(&log, [&bytes[..dict_at], &bytes[run_at..]].concat()).unwrap();
    let err = DocStore::open_with(&dir, config).expect_err("the store is refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().starts_with("index dio-u: document 0 names an id"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A run frame whose checksum holds but whose payload does not decode was
/// written, whole, by a version this one does not know — or is damage a
/// checksum cannot see. It is not a torn tail: open refuses the store, names
/// where the frame is, and leaves every file as it was.
#[test]
fn a_run_of_an_unknown_format_refuses_open_and_changes_nothing() {
    for (payload, why) in
        [(vec![0xFF, 1, 2, 3], "version 255"), (vec![1, 0, 0, 0, 0, 7], "invalid")]
    {
        let dir = tmp_store("unknown");
        {
            let store = DocStore::open_with(&dir, fixture_config()).unwrap();
            store.bulk_spans("dio-u", (0..20).map(|n| traced_event("u", n)).collect(), &mut []);
            store.bulk("dio-u", vec![json!({"kind": "health"})]);
        }
        let log = active_logs(&dir).into_iter().next().expect("shard 0's active log");
        let offset = std::fs::metadata(&log).unwrap().len();
        let value = payload.clone();
        let frame =
            Record { seqno: 1 << 40, flags: FLAG_EVENTS, index: "dio-u".into(), doc_id: 21, value };
        let mut bytes = Vec::new();
        frame.encode_into(&mut bytes);
        std::fs::OpenOptions::new().append(true).open(&log).unwrap().write_all(&bytes).unwrap();
        let before = tree(&dir);

        let err = DocStore::open_with(&dir, fixture_config()).expect_err("the store is refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        let at = format!("shard 0 gen 1 offset {offset}: ");
        assert!(err.to_string().starts_with(&at) && err.to_string().contains(why), "{err}");
        assert_same_tree(&tree(&dir), &before, "a refused open");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A store written by an earlier version carries a `.hint` sidecar beside
/// each sealed log. They are never read and never rewritten: the fixture
/// opens to the same state with them intact, damaged or gone, and open +
/// close leaves the tree as it found it. Compaction removes a sidecar
/// with the log it described.
#[test]
fn legacy_hint_sidecars_are_ignored() {
    let fixture = fixture_dir(1);
    let expect = regenerated_fixture_state(false, |_| ());
    let hints_of = |dir: &Path| -> Vec<PathBuf> {
        all_files(dir).into_iter().filter(|p| has_extension(p, "hint")).collect()
    };
    assert_eq!(hints_of(&fixture).len(), 4, "the fixture keeps its sidecars");

    for variant in ["intact", "damaged", "deleted"] {
        let dir = tmp_store("legacy");
        copy_tree(&fixture, &dir);
        let hints = hints_of(&dir);
        match variant {
            "damaged" => {
                flip_a_byte_mid_file(&hints[0]);
                let bytes = std::fs::read(&hints[1]).unwrap();
                std::fs::write(&hints[1], &bytes[..bytes.len() - 7]).unwrap();
            }
            "deleted" => hints.iter().for_each(|h| std::fs::remove_file(h).unwrap()),
            _ => {}
        }
        let before = tree(&dir);
        let store = DocStore::open_with(&dir, fixture_config()).unwrap();
        assert_eq!(store_state(&store), expect, "sidecars {variant}");
        assert_eq!(store.storage_report().unwrap().recovery_truncated, 0, "sidecars {variant}");
        store.storage().unwrap().verify().expect("invariants");
        drop(store);
        assert_same_tree(&tree(&dir), &before, &format!("open + close, sidecars {variant}"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    let dir = tmp_store("legacy-compact");
    copy_tree(&fixture, &dir);
    let store = DocStore::open_with(&dir, fixture_config()).unwrap();
    store.compact_now().unwrap();
    assert_eq!(store_state(&store), expect);
    drop(store);
    assert_eq!(hints_of(&dir), Vec::<PathBuf>::new(), "a sidecar outlived its log");
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------------ proptests

/// Abstract mutation for the model-based round trip.
#[derive(Debug, Clone)]
enum StoreOp {
    Put {
        index: u8,
        count: u8,
    },
    /// Traced events through the tracer's door: runs.
    PutEvents {
        index: u8,
        count: u8,
    },
    Delete {
        index: u8,
        pick: u16,
    },
    Compact,
}

fn store_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        4 => (0u8..3, 1u8..5).prop_map(|(index, count)| StoreOp::Put { index, count }),
        3 => (0u8..3, 1u8..40).prop_map(|(index, count)| StoreOp::PutEvents { index, count }),
        2 => (0u8..3, any::<u16>()).prop_map(|(index, pick)| StoreOp::Delete { index, pick }),
        1 => Just(StoreOp::Compact),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary put/delete/compact histories, documents and runs of events
    /// among the puts, a simulated crash (junk
    /// appended beyond the acknowledged tail of every active segment),
    /// then reopen: the store must equal the in-memory model exactly.
    #[test]
    fn arbitrary_history_survives_crash_and_reopen(
        ops in proptest::collection::vec(store_op(), 1..30),
        junk in proptest::collection::vec(any::<u8>(), 1..80),
    ) {
        let dir = tmp_store("prop");
        let mut model: BTreeMap<(u8, u64), Value> = BTreeMap::new();
        let mut next_id = [0u64; 3];
        {
            let store = DocStore::open_with(&dir, StorageConfig::tiny_for_tests()).unwrap();
            for (n, op) in ops.iter().enumerate() {
                match op {
                    StoreOp::Put { index, count } => {
                        let docs: Vec<Value> = (0..*count)
                            .map(|k| json!({"op": n, "k": k, "pad": "p".repeat(n % 23)}))
                            .collect();
                        let ids = store.bulk(&format!("dio-p{index}"), docs.clone());
                        for (id, doc) in ids.into_iter().zip(docs) {
                            prop_assert_eq!(id, next_id[*index as usize]);
                            next_id[*index as usize] += 1;
                            model.insert((*index, id), doc);
                        }
                    }
                    StoreOp::PutEvents { index, count } => {
                        let events: Vec<SyscallEvent> = (0..*count as u64)
                            .map(|k| traced_event(&format!("op{n}"), k))
                            .collect();
                        let docs: Vec<Value> = events.iter().map(SyscallEvent::to_document).collect();
                        let ids = store.bulk_spans(&format!("dio-p{index}"), events, &mut []);
                        for (id, doc) in ids.into_iter().zip(docs) {
                            prop_assert_eq!(id, next_id[*index as usize]);
                            next_id[*index as usize] += 1;
                            model.insert((*index, id), doc);
                        }
                    }
                    StoreOp::Delete { index, pick } => {
                        let live: Vec<u64> = model
                            .keys()
                            .filter(|(i, _)| i == index)
                            .map(|(_, id)| *id)
                            .collect();
                        if !live.is_empty() {
                            let id = live[*pick as usize % live.len()];
                            let deleted = store.index(&format!("dio-p{index}")).delete(id);
                            prop_assert!(deleted);
                            model.remove(&(*index, id));
                        }
                    }
                    StoreOp::Compact => store.compact_now().unwrap(),
                }
            }
        }
        // Crash: unacknowledged junk lands after the durable tail.
        for log in active_logs(&dir) {
            let mut f = std::fs::OpenOptions::new().append(true).open(&log).unwrap();
            f.write_all(&junk).unwrap();
        }

        let store = DocStore::open_with(&dir, StorageConfig::tiny_for_tests()).unwrap();
        store.storage().unwrap().verify().map_err(TestCaseError::fail)?;
        let total: usize = store.index_names().iter().map(|n| store.index(n).len()).sum();
        prop_assert_eq!(total, model.len(), "exact live-set cardinality");
        for ((index, id), doc) in &model {
            let got = store.get_index(&format!("dio-p{index}")).and_then(|i| i.get(*id));
            prop_assert_eq!(got.as_ref(), Some(doc), "doc {}/{}", index, id);
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
