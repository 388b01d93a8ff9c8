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

use dio_backend::{DocStore, SearchRequest, StorageConfig};
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

/// The active (highest-generation) segment log of every shard.
fn active_logs(root: &Path) -> Vec<PathBuf> {
    let mut logs = Vec::new();
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
        if let Some(active) = segs.pop() {
            logs.push(active);
        }
    }
    logs
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

#[test]
fn mid_file_corruption_opens_with_valid_survivors() {
    let dir = tmp_store("midfile");
    let docs: Vec<Value> = (0..60).map(|n| json!({"n": n, "pad": "x".repeat(40)})).collect();
    {
        let store = DocStore::open_with(&dir, StorageConfig::tiny_for_tests()).unwrap();
        store.bulk("dio-m", docs.clone());
        store.flush().unwrap();
    }
    // Flip a byte in the middle of one active segment: everything from
    // that frame on is unrecoverable (media corruption, not a torn
    // write), and recovery must degrade to a clean prefix — open
    // succeeds, survivors are byte-exact, invariants hold.
    let victim = active_logs(&dir).into_iter().max_by_key(|p| p.metadata().unwrap().len());
    let victim = victim.expect("an active segment");
    let mut bytes = std::fs::read(&victim).unwrap();
    assert!(bytes.len() > 40, "victim segment has content");
    let at = bytes.len() / 2;
    bytes[at] ^= 0xFF;
    std::fs::write(&victim, &bytes).unwrap();

    let store = DocStore::open_with(&dir, StorageConfig::tiny_for_tests()).unwrap();
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

#[test]
fn corrupt_hint_file_is_rebuilt_without_data_loss() {
    let dir = tmp_store("hint");
    // 4 KiB segments + ~100-byte docs: plenty of seals, hence hints.
    let docs: Vec<Value> = (0..300).map(|n| json!({"n": n, "pad": "h".repeat(64)})).collect();
    {
        let store = DocStore::open_with(&dir, StorageConfig::tiny_for_tests()).unwrap();
        store.bulk("dio-h", docs.clone());
        store.flush().unwrap();
    }
    let hints: Vec<PathBuf> = all_files(&dir)
        .into_iter()
        .filter(|p| p.extension().is_some_and(|e| e == "hint"))
        .collect();
    assert!(!hints.is_empty(), "workload sealed at least one segment");
    // Corrupt one hint mid-file and truncate another: both anomalies
    // must be detected (per-entry CRCs, covered-length trailer) and the
    // hints rebuilt from the logs — hints are an optimization, never a
    // source of truth.
    let mut bytes = std::fs::read(&hints[0]).unwrap();
    let at = bytes.len() / 2;
    bytes[at] ^= 0x5A;
    std::fs::write(&hints[0], &bytes).unwrap();
    let mut rebuilt = 1;
    if let Some(second) = hints.get(1) {
        let bytes = std::fs::read(second).unwrap();
        std::fs::write(second, &bytes[..bytes.len() - 7]).unwrap();
        rebuilt += 1;
    }

    let store = DocStore::open_with(&dir, StorageConfig::tiny_for_tests()).unwrap();
    assert!(store.storage_report().unwrap().hints_rewritten >= rebuilt);
    assert_eq!(store.storage_report().unwrap().recovery_truncated, 0, "logs were fine");
    let idx = store.index("dio-h");
    assert_eq!(idx.len(), docs.len());
    for (id, doc) in docs.iter().enumerate() {
        assert_eq!(idx.get(id as u64).as_ref(), Some(doc));
    }
    store.storage().unwrap().verify().expect("invariants");
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

// ------------------------------------------------------- golden fixture

/// The exact config the committed fixture was generated with. Spelled
/// out literally (not via `tiny_for_tests`) so later tuning of the test
/// profile cannot silently invalidate the fixture.
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

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/store_v1")
}

/// The deterministic history behind the fixture, and the state it must
/// recover to: puts across two sessions, overwrite-free deletes, a
/// dropped third session, and one compaction.
fn fixture_state(store: &DocStore) -> BTreeMap<String, Vec<(u64, Value)>> {
    let s1: Vec<Value> = (0..120).map(|n| json!({"n": n, "syscall": "read"})).collect();
    let s2: Vec<Value> = (0..30).map(|n| json!({"n": n, "syscall": "openat"})).collect();
    store.bulk("dio-fix1", s1.clone());
    store.bulk("dio-fix2", s2.clone());
    store.bulk("dio-dropped", (0..50).map(|n| json!({"n": n})).collect());
    let idx1 = store.index("dio-fix1");
    for id in [3u64, 77, 118] {
        assert!(idx1.delete(id));
    }
    store.delete_index("dio-dropped");
    store.compact_now().unwrap();
    store.flush().unwrap();

    let mut expect = BTreeMap::new();
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

/// Regenerates `tests/fixtures/store_v1`. Run explicitly (and commit the
/// result) when the on-disk format version changes:
/// `cargo test --test crash_recovery regenerate -- --ignored`
#[test]
#[ignore = "writes the committed fixture; run by hand on format changes"]
fn regenerate_golden_fixture() {
    let dir = fixture_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let store = DocStore::open_with(&dir, fixture_config()).unwrap();
    fixture_state(&store);
    drop(store);
    println!("fixture regenerated at {}", dir.display());
}

#[test]
fn golden_fixture_reopens_byte_for_byte() {
    let fixture = fixture_dir();
    assert!(
        fixture.join("MANIFEST").exists(),
        "committed fixture missing — run the regenerate_golden_fixture test"
    );
    // Work on a copy: the committed tree must stay pristine even if the
    // assertions below fail halfway.
    let dir = tmp_store("golden");
    copy_tree(&fixture, &dir);

    let store = DocStore::open_with(&dir, fixture_config()).unwrap();
    // Contents: exactly the state the fixture history produced.
    let expect = {
        let scratch = tmp_store("golden-expect");
        let s = DocStore::open_with(&scratch, fixture_config()).unwrap();
        let state = fixture_state(&s);
        drop(s);
        // Replaying the fixture's history writes the committed bytes again:
        // neither the record format nor a document's serialization moved.
        for path in all_files(&fixture) {
            let rel = path.strip_prefix(&fixture).unwrap();
            assert_eq!(
                std::fs::read(scratch.join(rel)).ok(),
                Some(std::fs::read(&path).unwrap()),
                "{} differs from a regenerated store",
                rel.display()
            );
        }
        let _ = std::fs::remove_dir_all(&scratch);
        state
    };
    assert_eq!(store.index_names(), expect.keys().cloned().collect::<Vec<_>>());
    for (name, docs) in &expect {
        let idx = store.index(name);
        assert_eq!(idx.len(), docs.len(), "{name}");
        for (id, doc) in docs {
            assert_eq!(idx.get(*id).as_ref(), Some(doc), "{name}/{id}");
        }
    }
    store.storage().unwrap().verify().expect("fixture invariants");
    assert_eq!(store.storage_report().unwrap().recovery_truncated, 0);
    assert_eq!(store.storage_report().unwrap().hints_rewritten, 0);
    drop(store);

    // A clean open + close must not rewrite a single byte: recovery is
    // read-only on an intact store, so format compatibility is
    // testable against the committed tree forever.
    let before: Vec<(PathBuf, Vec<u8>)> = all_files(&fixture)
        .into_iter()
        .map(|p| (p.strip_prefix(&fixture).unwrap().to_path_buf(), std::fs::read(&p).unwrap()))
        .collect();
    let after: Vec<(PathBuf, Vec<u8>)> = all_files(&dir)
        .into_iter()
        .map(|p| (p.strip_prefix(&dir).unwrap().to_path_buf(), std::fs::read(&p).unwrap()))
        .collect();
    assert_eq!(before.len(), after.len(), "no files created or removed");
    for ((rel_a, bytes_a), (rel_b, bytes_b)) in before.iter().zip(after.iter()) {
        assert_eq!(rel_a, rel_b);
        assert_eq!(bytes_a, bytes_b, "{} changed across reopen", rel_a.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------------ proptests

/// Abstract mutation for the model-based round trip.
#[derive(Debug, Clone)]
enum StoreOp {
    Put { index: u8, count: u8 },
    Delete { index: u8, pick: u16 },
    Compact,
}

fn store_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        4 => (0u8..3, 1u8..5).prop_map(|(index, count)| StoreOp::Put { index, count }),
        2 => (0u8..3, any::<u16>()).prop_map(|(index, pick)| StoreOp::Delete { index, pick }),
        1 => Just(StoreOp::Compact),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary put/delete/compact histories, a simulated crash (junk
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
