//! The multi-index document store (the Elasticsearch cluster stand-in).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, OnceLock};

use dio_syscall::SyscallEvent;
use parking_lot::RwLock;
use serde_json::Value;

use dio_telemetry::span::{monotonic_ns, Stage, StageStamps};
use dio_telemetry::{trace, Counter, Histogram, MetricsRegistry};

use crate::index::Index;
use crate::storage::{StorageConfig, StorageEngine, StorageReport};

/// Telemetry handles updated on the store's ingest and query paths once
/// [`DocStore::bind_telemetry`] is called.
#[derive(Debug)]
struct StoreTelemetry {
    bulk_ns: Arc<Histogram>,
    bulk_docs: Arc<Counter>,
    query_ns: Arc<Histogram>,
}

/// A store of named indices, one per tracing session by DIO convention
/// (`dio-<session>`).
///
/// Cloning shares the underlying store, as multiple tracer/visualizer
/// components talk to the same backend.
///
/// # Examples
///
/// ```
/// use dio_backend::DocStore;
/// use serde_json::json;
///
/// let store = DocStore::new();
/// store.index("dio-session1").index_doc(json!({"syscall": "read"}));
/// assert_eq!(store.index_names(), vec!["dio-session1".to_string()]);
/// ```
#[derive(Clone, Default)]
pub struct DocStore {
    indices: Arc<RwLock<BTreeMap<String, Arc<Index>>>>,
    telemetry: Arc<OnceLock<StoreTelemetry>>,
    /// Present when the store was [`DocStore::open`]ed on disk; `None`
    /// for the in-memory default (unit tests, short-lived sessions).
    persist: Option<Arc<StorageEngine>>,
}

impl std::fmt::Debug for DocStore {
    /// Non-blocking by design: `Debug` is called from logging and panic
    /// paths that may already interleave with writers, so it must never
    /// queue behind the indices lock (a second acquisition on a path
    /// that holds it — or a writer waiting in between — would deadlock).
    /// It takes the read lock at most once, via `try_read`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("DocStore");
        match self.indices.try_read() {
            Some(guard) => s.field("indices", &guard.keys().collect::<Vec<_>>()),
            None => s.field("indices", &"<locked>"),
        };
        s.field("persistent", &self.persist.is_some()).finish()
    }
}

impl DocStore {
    /// Creates an empty in-memory store (contents vanish at drop).
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens (creating if needed) a persistent store rooted at `path`,
    /// replaying any existing segments — see DESIGN.md §11. Every index
    /// write is acknowledged only after it is on disk (the tracer's events
    /// when [`DocStore::log_events`] returns); reopening the same path
    /// recovers every acknowledged document, truncating torn tail records
    /// (counted in `backend.recovery.truncated`).
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Self::open_with(path, StorageConfig::default())
    }

    /// [`DocStore::open`] with explicit [`StorageConfig`] tuning.
    pub fn open_with(path: impl AsRef<Path>, config: StorageConfig) -> std::io::Result<Self> {
        let (engine, loaded) = StorageEngine::open(path.as_ref(), config)?;
        let mut indices = BTreeMap::new();
        for (name, loaded) in loaded {
            let index = Index::from_persisted(&*name, Arc::clone(&engine), loaded)?;
            indices.insert(name.to_string(), Arc::new(index));
        }
        Ok(DocStore {
            indices: Arc::new(RwLock::new(indices)),
            telemetry: Arc::new(OnceLock::new()),
            persist: Some(engine),
        })
    }

    /// Whether the store persists to disk.
    pub fn is_persistent(&self) -> bool {
        self.persist.is_some()
    }

    /// The storage engine behind a persistent store (`None` in-memory).
    /// Exposes maintenance and verification entry points for tests,
    /// benches, and the crash harness.
    pub fn storage(&self) -> Option<&Arc<StorageEngine>> {
        self.persist.as_ref()
    }

    /// Logs every index's unlogged events, then `fdatasync`s all shards of
    /// a persistent store (a durability point; the tracer calls this when a
    /// session closes). No-op in-memory.
    pub fn flush(&self) -> std::io::Result<()> {
        let Some(engine) = &self.persist else { return Ok(()) };
        for index in self.indices.read().values() {
            index.log_tail()?;
        }
        engine.flush()
    }

    /// Synchronously compacts all shards of a persistent store. No-op
    /// in-memory.
    pub fn compact_now(&self) -> std::io::Result<()> {
        match &self.persist {
            Some(engine) => engine.compact_now(),
            None => Ok(()),
        }
    }

    /// Storage statistics of a persistent store (`None` in-memory).
    pub fn storage_report(&self) -> Option<StorageReport> {
        self.persist.as_ref().map(|e| e.report())
    }

    /// Registers the store's metrics (`backend.bulk.ns` / `backend.bulk.docs`
    /// and `backend.query.ns`) with `registry`. Existing and future indices
    /// record their search latency into the shared query histogram. Binding
    /// twice is a no-op.
    pub fn bind_telemetry(&self, registry: &MetricsRegistry) {
        let _ = self.telemetry.set(StoreTelemetry {
            bulk_ns: registry.histogram("backend.bulk.ns"),
            bulk_docs: registry.counter("backend.bulk.docs"),
            query_ns: registry.histogram("backend.query.ns"),
        });
        if let Some(t) = self.telemetry.get() {
            for idx in self.indices.read().values() {
                idx.bind_query_histogram(Arc::clone(&t.query_ns));
            }
        }
        if let Some(engine) = &self.persist {
            engine.bind_telemetry(registry);
        }
    }

    /// Returns the index named `name`, creating it if absent.
    pub fn index(&self, name: &str) -> Arc<Index> {
        if let Some(idx) = self.indices.read().get(name) {
            return Arc::clone(idx);
        }
        let mut indices = self.indices.write();
        let idx = Arc::clone(indices.entry(name.to_string()).or_insert_with(|| {
            Arc::new(match &self.persist {
                Some(engine) => Index::new_persistent(name, Arc::clone(engine)),
                None => Index::new(name),
            })
        }));
        if let Some(t) = self.telemetry.get() {
            idx.bind_query_histogram(Arc::clone(&t.query_ns));
        }
        idx
    }

    /// Returns the index named `name` if it exists.
    pub fn get_index(&self, name: &str) -> Option<Arc<Index>> {
        self.indices.read().get(name).cloned()
    }

    /// Opens a continuous query on `name` (creating the index if needed)
    /// with the default queue depth. See [`Index::subscribe`].
    pub fn subscribe(&self, name: &str) -> crate::Subscription {
        self.subscribe_with_capacity(name, crate::DEFAULT_SUBSCRIPTION_CAPACITY)
    }

    /// [`DocStore::subscribe`] with an explicit bounded queue depth (in
    /// batches).
    pub fn subscribe_with_capacity(&self, name: &str, capacity: usize) -> crate::Subscription {
        self.index(name).subscribe(capacity)
    }

    /// Deletes an index, returning whether it existed. On a persistent
    /// store a drop barrier is appended to every shard first, so the
    /// deletion itself survives a crash.
    pub fn delete_index(&self, name: &str) -> bool {
        let Some(index) = self.indices.write().remove(name) else { return false };
        if let Some(engine) = &self.persist {
            // Its unlogged events must not be logged past the barrier.
            index.discard_tail();
            engine.drop_index(name).expect("dio-backend: persistent index drop failed");
        }
        true
    }

    /// Names of all indices, sorted. One read-lock acquisition; callers
    /// formatting the store should prefer `{:?}` (non-blocking) over
    /// composing this with other locked accessors.
    pub fn index_names(&self) -> Vec<String> {
        self.indices.read().keys().cloned().collect()
    }

    /// Bulk-indexes documents into `name` (creating the index if needed).
    pub fn bulk(&self, name: &str, docs: Vec<Value>) -> Vec<u64> {
        self.timed_bulk(&self.index(name), docs.len(), |index| index.bulk(docs))
    }

    /// [`DocStore::bulk`] for documents already written as JSON text (see
    /// [`Index::bulk_text`]): a health round's, as the exporter renders it.
    pub fn bulk_text(&self, name: &str, docs: Vec<String>) -> Result<Vec<u64>, serde_json::Error> {
        self.timed_bulk(&self.index(name), docs.len(), |index| index.bulk_text(docs))
    }

    /// One bulk request of `docs` documents against `index`, which the
    /// caller has looked up, traced as a `backend.bulk` span and recorded in
    /// `backend.bulk.docs` / `.ns`.
    fn timed_bulk<R>(&self, index: &Index, docs: usize, request: impl FnOnce(&Index) -> R) -> R {
        let mut bulk_span = trace::span("backend", "backend.bulk");
        bulk_span.attr("docs", docs);
        bulk_span.attr("index", trace::fnv64(index.name()));
        let _timer = self.telemetry.get().map(|t| {
            t.bulk_docs.add(docs as u64);
            t.bulk_ns.start_timer()
        });
        request(index)
    }

    /// The tracer's bulk request: `events` become rows of `name`, stored as
    /// they are (no JSON document is built for them; see [`Index::bulk`] for
    /// what a reader sees) and queryable at once. Drains `events`; the
    /// vector keeps its capacity for the next request.
    ///
    /// Returns whether the events are acknowledged with it. An in-memory
    /// store is durable on accept: yes, and this is the `backend.bulk`. A
    /// persisted index holds them as its unlogged tail — queryable, not yet
    /// acknowledged — until [`DocStore::log_events`], or any other write to
    /// the index, [`DocStore::flush`] or its drop logs them.
    pub fn accept_events(&self, name: &str, events: &mut Vec<SyscallEvent>) -> bool {
        if self.persist.is_some() {
            self.index(name).accept_events(events, false);
            return false;
        }
        self.timed_bulk(&self.index(name), events.len(), |index| {
            index.accept_events(events, false)
        });
        true
    }

    /// Appends the events `name` holds unlogged ([`DocStore::accept_events`])
    /// as runs — the `backend.bulk` of a persisted store — and returns how
    /// many. When it returns they are in the page cache, as every event the
    /// index accepted before the call is: the caller may acknowledge them.
    /// 0, and no request, when there were none.
    pub fn log_events(&self, name: &str) -> usize {
        let Some(index) = self.persist.as_ref().and_then(|_| self.get_index(name)) else {
            return 0;
        };
        match index.tail_len() {
            0 => 0,
            held => self.timed_bulk(&index, held, |index| {
                index.log_tail().expect("dio-backend: persistent append failed")
            }),
        }
    }

    /// A batch of events written through at once: accepted and logged as
    /// one request, each with its [`StageStamps`] record. After the backend
    /// acknowledges the request, every record is stamped
    /// [`Stage::BulkIndex`] (one clock read for the batch — the whole bulk is
    /// acknowledged at once, like a single Elasticsearch `_bulk` response).
    pub fn bulk_spans(
        &self,
        name: &str,
        mut events: Vec<SyscallEvent>,
        spans: &mut [StageStamps],
    ) -> Vec<u64> {
        let index = self.index(name);
        let ids =
            self.timed_bulk(&index, events.len(), |index| index.accept_events(&mut events, true));
        let now = monotonic_ns();
        for stamps in spans.iter_mut() {
            stamps.stamp(Stage::BulkIndex, now);
        }
        ids.collect()
    }

    /// Total documents across all indices.
    pub fn total_docs(&self) -> usize {
        self.indices.read().values().map(|i| i.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dio_syscall::SyscallKind;
    use serde_json::json;

    #[test]
    fn get_or_create_semantics() {
        let store = DocStore::new();
        assert!(store.get_index("a").is_none());
        let a = store.index("a");
        assert!(Arc::ptr_eq(&a, &store.index("a")));
        assert!(store.get_index("a").is_some());
    }

    #[test]
    fn clones_share_state() {
        let store = DocStore::new();
        let clone = store.clone();
        clone.bulk("x", vec![json!({"v": 1}), json!({"v": 2})]);
        assert_eq!(store.total_docs(), 2);
        assert_eq!(store.index("x").len(), 2);
    }

    #[test]
    fn delete_index() {
        let store = DocStore::new();
        store.index("gone");
        assert!(store.delete_index("gone"));
        assert!(!store.delete_index("gone"));
        assert!(store.index_names().is_empty());
    }

    #[test]
    fn bulk_spans_stamps_bulk_index_on_ack() {
        let store = DocStore::new();
        let mut spans = vec![StageStamps::new(), StageStamps::new()];
        spans[0].stamp(Stage::KernelDispatch, 10);
        let events = [SyscallKind::Read, SyscallKind::Close].map(SyscallEvent::synthetic).to_vec();
        let ids = store.bulk_spans("dio-s1", events, &mut spans);
        assert_eq!(ids.len(), 2);
        assert_eq!(store.index("dio-s1").count(&crate::Query::term("syscall", "close")), 1);
        let first = spans[0].get(Stage::BulkIndex).expect("stamped");
        let second = spans[1].get(Stage::BulkIndex).expect("stamped");
        assert_eq!(first, second, "one acknowledgement time for the whole bulk");
    }

    #[test]
    fn debug_does_not_deadlock_under_a_held_write_lock() {
        // Regression guard for the old Debug impl, which re-acquired the
        // indices read lock via `index_names()` while already formatting —
        // with a writer queued in between, that self-deadlocked. The new
        // impl must complete (with a placeholder) even while another
        // thread holds the write guard.
        let store = DocStore::new();
        store.index("dio-held");
        let guard = store.indices.write();
        let clone = store.clone();
        let handle = std::thread::spawn(move || format!("{clone:?}"));
        let rendered = handle.join().expect("Debug must not deadlock");
        assert!(rendered.contains("<locked>"), "got: {rendered}");
        drop(guard);
        let rendered = format!("{store:?}");
        assert!(rendered.contains("dio-held"), "got: {rendered}");
    }

    #[test]
    fn persistent_store_roundtrips_across_reopen() {
        let dir = std::env::temp_dir().join(format!("dio-store-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = DocStore::open_with(&dir, StorageConfig::tiny_for_tests()).unwrap();
            assert!(store.is_persistent());
            store.bulk("dio-s1", vec![json!({"syscall": "read"}), json!({"syscall": "write"})]);
            store.bulk("dio-s2", vec![json!({"syscall": "openat"})]);
            store.index("dio-s1").delete(1);
            store.flush().unwrap();
        }
        let store = DocStore::open_with(&dir, StorageConfig::tiny_for_tests()).unwrap();
        assert_eq!(store.index_names(), vec!["dio-s1".to_string(), "dio-s2".to_string()]);
        assert_eq!(store.index("dio-s1").len(), 1);
        assert_eq!(store.index("dio-s2").len(), 1);
        let resp = store
            .index("dio-s1")
            .search(&crate::SearchRequest::new(crate::Query::term("syscall", "read")));
        assert_eq!(resp.total, 1);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An id no index hands out would size the row table: the store is
    /// refused, not opened at any cost.
    #[test]
    fn a_store_holding_an_id_out_of_range_is_refused() {
        let dir = std::env::temp_dir().join(format!("dio-store-id-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = DocStore::open_with(&dir, StorageConfig::tiny_for_tests()).unwrap();
            let engine = store.storage().expect("persistent store");
            engine
                .append_puts("dio-s1", vec![(7, b"{}".to_vec()), (1 << 40, b"{}".to_vec())])
                .unwrap();
            store.flush().unwrap();
        }
        let refused = DocStore::open_with(&dir, StorageConfig::tiny_for_tests()).unwrap_err();
        assert_eq!(refused.kind(), std::io::ErrorKind::InvalidData, "{refused}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A put whose frame is whole but whose bytes are not a JSON document is
    /// damage like an id out of range: the store is refused, not a panic,
    /// and the error names the index and the id.
    #[test]
    fn a_store_holding_a_document_that_is_not_json_is_refused() {
        let dir = std::env::temp_dir().join(format!("dio-store-json-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = DocStore::open_with(&dir, StorageConfig::tiny_for_tests()).unwrap();
            let engine = store.storage().expect("persistent store");
            engine.append_puts("dio-s1", vec![(0, b"{not json".to_vec())]).unwrap();
            store.flush().unwrap();
        }
        let refused = DocStore::open_with(&dir, StorageConfig::tiny_for_tests()).unwrap_err();
        assert_eq!(refused.kind(), std::io::ErrorKind::InvalidData, "{refused}");
        let message = refused.to_string();
        assert!(message.contains("dio-s1") && message.contains("document 0"), "{message}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Whatever the door — a value, or text as `serde_json` writes it — a
    /// document that is exactly an event's is kept as an event row and any
    /// other as its text, in memory and after a reopen, and each reads back
    /// as the JSON it was. Text that is not one JSON document is refused,
    /// and nothing of its bulk is accepted.
    #[test]
    fn an_event_document_is_an_event_row_through_either_door() {
        let mut event = SyscallEvent::synthetic(SyscallKind::Pwrite64);
        (event.offset, event.file_path) = (Some(52), Some("/data/app.log".into()));
        let docs = [
            event.to_document(),
            json!({"kind": "gauge", "metric": "tracer.channel.depth", "seq": 2, "value": 3}),
            json!({"args": {"fd": 3}, "syscall": "write"}),
        ];
        let texts: Vec<String> = docs.iter().map(ToString::to_string).collect();
        let stored = |index: &crate::Index| {
            let ids = 0..2 * docs.len() as u64;
            let typed = ids.clone().map(|id| index.keeps_typed(id).expect("stored"));
            let got: Vec<Value> = ids.map(|id| index.get(id).expect("stored")).collect();
            (typed.collect::<Vec<_>>(), got)
        };
        let expected = (
            vec![true, false, false, true, false, false],
            docs.iter().chain(&docs).cloned().collect::<Vec<_>>(),
        );
        let fill = |store: &DocStore| {
            store.bulk("dio-s1", docs.to_vec());
            store.bulk_text("dio-s1", texts.clone()).expect("JSON text");
            let refused = store.bulk_text("dio-s1", vec![texts[1].clone(), "{not json".into()]);
            assert!(refused.is_err());
            assert_eq!(store.index("dio-s1").len(), 2 * docs.len(), "a refused bulk adds nothing");
        };
        let memory = DocStore::new();
        fill(&memory);
        assert_eq!(stored(&memory.index("dio-s1")), expected, "in memory");

        let dir = std::env::temp_dir().join(format!("dio-store-doors-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = DocStore::open_with(&dir, StorageConfig::tiny_for_tests()).unwrap();
            fill(&store);
            assert_eq!(stored(&store.index("dio-s1")), expected, "persisted");
        }
        let store = DocStore::open_with(&dir, StorageConfig::tiny_for_tests()).unwrap();
        assert_eq!(stored(&store.index("dio-s1")), expected, "reopened");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A log of an empty tail is no request: it returns 0 and adds nothing
    /// to `backend.bulk.docs`; a log of a held tail is one request of its
    /// events.
    #[test]
    fn a_log_with_nothing_held_makes_no_request() {
        let dir = std::env::temp_dir().join(format!("dio-store-log-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DocStore::open_with(&dir, StorageConfig::tiny_for_tests()).unwrap();
        let registry = MetricsRegistry::new();
        store.bind_telemetry(&registry);
        let docs = registry.counter("backend.bulk.docs");
        store.index("dio-s1");
        assert_eq!((store.log_events("dio-s1"), docs.get()), (0, 0));
        let mut events = vec![SyscallEvent::synthetic(SyscallKind::Read); 3];
        assert!(!store.accept_events("dio-s1", &mut events), "held unlogged");
        assert_eq!((store.log_events("dio-s1"), docs.get()), (3, 3));
        assert_eq!((store.log_events("dio-s1"), docs.get()), (0, 3));
        assert_eq!(store.log_events("dio-none"), 0, "no index, no request");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sessions_are_isolated() {
        let store = DocStore::new();
        store.bulk("dio-s1", vec![json!({"syscall": "read"})]);
        store.bulk("dio-s2", vec![json!({"syscall": "write"})]);
        assert_eq!(store.index("dio-s1").len(), 1);
        assert_eq!(store.index("dio-s2").len(), 1);
        assert_eq!(store.index_names(), vec!["dio-s1".to_string(), "dio-s2".to_string()]);
    }
}
