//! Flight-recorder integration tests (DESIGN.md §12): the causal span
//! chain of a persistent ingest, dump triggers (alert fire, explicit
//! request), reconciliation of recovery counters against recovery span
//! attributes, the golden Chrome-trace snapshot, and the eviction
//! causality property.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use serde_json::json;

use dio_backend::{DocStore, StorageConfig};
use dio_diagnose::DiagnoseConfig;
use dio_kernel::{DiskProfile, Kernel};
use dio_telemetry::trace::{self, AttrValue, Attrs, FlightRecorder, TraceSpan};
use dio_tracer::{Tracer, TracerConfig};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dio-flightrec-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fast_kernel() -> Kernel {
    Kernel::builder().root_disk(DiskProfile::instant()).build()
}

/// The span with `name` whose parent is `parent`, within `trace_id`.
fn child_of<'a>(
    spans: &'a [TraceSpan],
    trace_id: u64,
    parent: u64,
    name: &str,
) -> Option<&'a TraceSpan> {
    spans.iter().find(|s| s.trace_id == trace_id && s.parent_id == parent && s.name == name)
}

// ------------------------------------------------ the causal ingest chain

/// One traced ingest into a persistent store must leave the full
/// causally-nested chain in the flight recorder:
/// session → ship.batch → backend.bulk → storage.append → storage.fsync.
#[test]
fn persistent_ingest_records_causal_chain() {
    let dir = tmp_dir("chain");
    let config = StorageConfig { sync_every_batch: true, ..StorageConfig::tiny_for_tests() };
    let backend = DocStore::open_with(&dir, config).expect("open persistent store");
    let kernel = fast_kernel();
    let tracer = Tracer::attach(TracerConfig::new("flightrec-chain"), &kernel, backend.clone());

    let t = kernel.spawn_process("app").spawn_thread("app");
    let fd = t.creat("/chain.bin", 0o644).unwrap();
    for _ in 0..12 {
        t.write(fd, b"twelve bytes").unwrap();
    }
    t.close(fd).unwrap();
    let summary = tracer.stop();
    assert!(summary.events_stored >= 14, "workload shipped");

    let spans = trace::recorder().snapshot();
    let session = spans
        .iter()
        .find(|s| {
            s.name == "session"
                && s.attrs.get("sid") == Some(AttrValue::U64(trace::fnv64("flightrec-chain")))
        })
        .expect("session root span recorded");
    let ship = child_of(&spans, session.trace_id, session.span_id, "ship.batch")
        .expect("ship.batch parented to the session");
    let bulk = child_of(&spans, session.trace_id, ship.span_id, "backend.bulk")
        .expect("backend.bulk parented to the shipped batch");
    let append = child_of(&spans, session.trace_id, bulk.span_id, "storage.append")
        .expect("storage.append parented to the bulk");
    let fsync = child_of(&spans, session.trace_id, append.span_id, "storage.fsync")
        .expect("storage.fsync parented to the append (sync_every_batch)");

    // The chain nests in time as well as by parent links.
    assert!(session.start_ns <= ship.start_ns && ship.end_ns <= session.end_ns);
    assert!(ship.start_ns <= bulk.start_ns && bulk.end_ns <= ship.end_ns);
    assert!(bulk.start_ns <= append.start_ns && append.end_ns <= bulk.end_ns);
    assert!(append.start_ns <= fsync.start_ns && fsync.end_ns <= append.end_ns);

    // And the exported Chrome trace carries every stage of the chain.
    let chrome = trace::chrome_trace_json(&spans);
    let parsed: serde_json::Value = serde_json::from_str(&chrome).expect("valid JSON");
    let events = parsed["traceEvents"].as_array().expect("traceEvents array");
    for name in ["session", "ship.batch", "backend.bulk", "storage.append", "storage.fsync"] {
        assert!(events.iter().any(|e| e["name"] == *name), "chrome export contains {name}");
    }

    drop(backend);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------- dump triggers

fn buggy_batch() -> Vec<serde_json::Value> {
    let ev = |time: u64, proc_name: &str, syscall: &str, ret: i64, tag: &str, offset: u64| {
        json!({
            "time": time, "proc_name": proc_name, "syscall": syscall,
            "ret_val": ret, "file_tag": tag, "offset": offset, "class": "data",
        })
    };
    vec![
        ev(1, "app", "write", 26, "7340032|12|100", 0),
        ev(2, "fluent-bit", "read", 26, "7340032|12|100", 0),
        ev(3, "fluent-bit", "read", 0, "7340032|12|100", 26),
        ev(4, "app", "write", 16, "7340032|12|200", 0),
        ev(5, "fluent-bit", "read", 0, "7340032|12|200", 26),
    ]
}

/// The first alert an engine raises freezes the flight recorder to
/// `flightrec-alert-01.json` — a deterministic name, not the pid, so
/// re-runs overwrite their artifacts instead of littering `results/`.
/// Later alerts do not rewrite it, an explicit dump lands beside it as
/// `flightrec-manual-01.json`, and a dump storm is capped at
/// [`trace::DUMP_CAP`] files per reason.
///
/// Serializes on `DIO_RESULTS_DIR`, which no other test in this binary
/// touches.
#[test]
fn alert_and_manual_dumps_write_chrome_artifacts() {
    let dir = tmp_dir("dumps");
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_var("DIO_RESULTS_DIR", &dir);

    let engine = dio_tracer::diagnosis_engine(DiagnoseConfig::default(), Vec::new());
    let fresh = engine.observe_batch(&buggy_batch());
    assert!(!fresh.is_empty(), "batch raises an alert");
    let alert_dump = dir.join("flightrec-alert-01.json");
    assert!(alert_dump.is_file(), "alert fire dumped the recorder");

    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&alert_dump).unwrap())
            .expect("dump is valid JSON");
    assert_eq!(doc["otherData"]["reason"], "alert");
    assert!(doc["traceEvents"].as_array().is_some());
    assert!(doc["otherData"]["criticalPath"].as_str().is_some());

    // A second alerting batch must not dump again (one snapshot per
    // engine): overwrite the file with a marker and re-fire.
    std::fs::write(&alert_dump, "marker").unwrap();
    engine.observe_batch(&buggy_batch());
    assert_eq!(std::fs::read_to_string(&alert_dump).unwrap(), "marker");

    let manual = trace::dump_on_trigger("manual").expect("manual dump path");
    assert_eq!(manual, dir.join("flightrec-manual-01.json"));
    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&manual).unwrap()).unwrap();
    assert_eq!(doc["otherData"]["reason"], "manual");

    // A dump storm stays capped: past the cap, the last slot is reused.
    let cap = trace::DUMP_CAP;
    let mut last = None;
    for _ in 0..cap + 3 {
        last = trace::dump_on_trigger("storm");
    }
    assert_eq!(last.unwrap(), dir.join(format!("flightrec-storm-{cap:02}.json")));
    let storms = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref().unwrap().file_name().to_string_lossy().starts_with("flightrec-storm-")
        })
        .count() as u64;
    assert_eq!(storms, cap, "storm artifacts capped at DUMP_CAP files");

    std::env::remove_var("DIO_RESULTS_DIR");
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------- recovery spans reconcile counters

/// Reopening a torn store must describe the same repairs twice — as
/// `backend.recovery.*` counters and as attributes on the recovery
/// spans — and the two must agree exactly.
#[test]
fn recovery_spans_reconcile_with_recovery_counters() {
    let dir = tmp_dir("reconcile");
    let docs: Vec<serde_json::Value> =
        (0..40).map(|n| json!({"n": n, "syscall": "write"})).collect();
    {
        let store = DocStore::open_with(&dir, StorageConfig::tiny_for_tests()).unwrap();
        store.bulk("dio-r", docs);
        store.flush().unwrap();
    }
    // Tear the tail of every shard's active segment.
    let mut torn_shards = 0u64;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let shard_dir = entry.unwrap().path();
        if !shard_dir.is_dir() {
            continue;
        }
        let mut segs: Vec<PathBuf> = std::fs::read_dir(&shard_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "log"))
            .collect();
        segs.sort();
        if let Some(active) = segs.pop() {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new().append(true).open(&active).unwrap();
            f.write_all(&[0xAB; 29]).unwrap();
            torn_shards += 1;
        }
    }
    assert!(torn_shards > 0, "workload produced active segments");

    let store = DocStore::open_with(&dir, StorageConfig::tiny_for_tests()).unwrap();
    let report = store.storage_report().expect("persistent store");
    assert_eq!(report.recovery_truncated, torn_shards);

    // Find THIS store's most recent storage.open span by its path hash,
    // then sum the torn-tail attrs over its recovery.shard children.
    let spans = trace::recorder().snapshot();
    let store_hash = trace::fnv64(&dir.to_string_lossy());
    let open = spans
        .iter()
        .filter(|s| {
            s.name == "storage.open" && s.attrs.get("store") == Some(AttrValue::U64(store_hash))
        })
        .max_by_key(|s| s.start_ns)
        .expect("reopen recorded a storage.open span");
    assert_eq!(open.attrs.get("torn_truncated"), Some(AttrValue::U64(torn_shards)));
    let shard_spans: Vec<&TraceSpan> = spans
        .iter()
        .filter(|s| s.name == "recovery.shard" && s.parent_id == open.span_id)
        .collect();
    assert_eq!(shard_spans.len(), report.shards, "one recovery span per shard");
    let span_truncations: u64 = shard_spans
        .iter()
        .map(|s| match s.attrs.get("torn_truncated") {
            Some(AttrValue::U64(n)) => n,
            other => panic!("recovery.shard carries torn_truncated, got {other:?}"),
        })
        .sum();
    assert_eq!(
        span_truncations, report.recovery_truncated,
        "span attrs and backend.recovery.truncated describe the same repairs"
    );

    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

// ----------------------------------------------- golden Chrome snapshot

/// A seeded recorder with pinned span times must export byte-identical
/// Chrome JSON. Regenerate after an intentional format change with:
///
/// ```text
/// DIO_UPDATE_GOLDEN=1 cargo test --test flightrec golden
/// ```
#[test]
fn chrome_export_matches_golden_snapshot() {
    let rec = FlightRecorder::new(16, 42);
    let trace_id = rec.alloc_id();
    let root_id = rec.alloc_id();
    let child_id = rec.alloc_id();
    let mut root_attrs = Attrs::default();
    root_attrs.push("docs", AttrValue::U64(128));
    root_attrs.push("note", AttrValue::Str("golden \"quoted\"\n"));
    root_attrs.push("factor", AttrValue::F64(1.5));
    let span =
        |span_id: u64, parent_id: u64, name: &'static str, start: u64, end: u64, attrs: Attrs| {
            rec.record(TraceSpan {
                trace_id,
                span_id,
                parent_id,
                category: "storage",
                name,
                start_ns: start,
                end_ns: end,
                thread: 0,
                emit_seq: 0,
                attrs,
            });
        };
    span(child_id, root_id, "storage.fsync", 2_500, 7_750, Attrs::default());
    span(root_id, 0, "storage.append", 1_000, 9_000, root_attrs);

    let rendered = rec.export_chrome_json();
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/flightrec_chrome.json");
    if std::env::var_os("DIO_UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &rendered).expect("write golden");
    }
    let golden = std::fs::read_to_string(golden_path).expect("golden snapshot present");
    assert_eq!(rendered, golden, "chrome export drifted from tests/golden/flightrec_chrome.json");
}

// ------------------------------------------------ eviction causality

proptest! {
    /// Ring eviction is oldest-first per thread, so a surviving span
    /// whose parent was emitted *after* it (the guard pattern: children
    /// record before their parents) implies the parent also survives —
    /// the recorder never strands a child by evicting its later-emitted
    /// parent.
    #[test]
    fn eviction_never_strands_a_child_of_a_later_parent(
        capacity in 1usize..12,
        links in proptest::collection::vec((any::<bool>(), 0usize..64), 1..64),
    ) {
        let rec = FlightRecorder::new(capacity, 7);
        let n = links.len();
        // Span i may pick a parent among spans emitted after it
        // (j > i), mirroring how guards finish children before parents.
        let parent_of: Vec<Option<usize>> = links
            .iter()
            .enumerate()
            .map(|(i, &(has_parent, r))| {
                let later = n - i - 1;
                (has_parent && later > 0).then(|| i + 1 + r % later)
            })
            .collect();
        for (i, parent) in parent_of.iter().enumerate() {
            rec.record(TraceSpan {
                trace_id: 1,
                span_id: i as u64 + 1,
                parent_id: parent.map(|p| p as u64 + 1).unwrap_or(0),
                category: "t",
                name: "t",
                start_ns: i as u64,
                end_ns: i as u64 + 1,
                thread: 0,
                emit_seq: 0,
                attrs: Attrs::default(),
            });
        }
        let survivors: std::collections::HashSet<u64> =
            rec.snapshot().iter().map(|s| s.span_id).collect();
        prop_assert!(survivors.len() <= capacity);
        prop_assert!(!survivors.is_empty());
        for (i, parent) in parent_of.iter().enumerate() {
            let (child_id, Some(p)) = (i as u64 + 1, parent) else { continue };
            // Parent emitted after the child: child surviving implies
            // the parent does too.
            if survivors.contains(&child_id) {
                prop_assert!(
                    survivors.contains(&(*p as u64 + 1)),
                    "span {child_id} survived but its later-emitted parent {} was evicted",
                    p + 1
                );
            }
        }
    }
}
