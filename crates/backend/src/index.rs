//! A document index: storage + inverted indexes + search.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use dio_syscall::SyscallEvent;
use parking_lot::RwLock;
use serde_json::Value;

use crate::agg::{AggResult, Aggregation};
use crate::postings::Postings;
use crate::query::{compare_docs, Query, SortOrder};
use crate::value_path::{as_keyword, as_number, DocRef, Entry, Term};

/// Total-ordered wrapper over `f64` usable as a BTreeMap key.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FKey(f64);

impl Eq for FKey {}

impl PartialOrd for FKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A stored document. What decides its kind is the document, not the door it
/// came through: one that is exactly a syscall event's document is kept as
/// the event (a quarter of the heap, and nothing to re-parse field by field),
/// anything else — health, span, alert, phase and storage documents, an event
/// an update gave a foreign field — as the JSON value it is. Every reader goes
/// through [`Row::as_ref`], so no answer depends on the kind.
enum Row {
    Event(SyscallEvent),
    Json(Value),
}

impl From<Value> for Row {
    /// The one way a JSON value enters the table.
    fn from(doc: Value) -> Row {
        match SyscallEvent::from_document(&doc) {
            Some(event) => Row::Event(event),
            None => Row::Json(doc),
        }
    }
}

impl Row {
    fn as_ref(&self) -> DocRef<'_> {
        match self {
            Row::Event(event) => DocRef::Event(event),
            Row::Json(doc) => DocRef::Json(doc),
        }
    }

    /// The document's JSON text for the write-through log.
    fn to_json(&self) -> Vec<u8> {
        match self {
            Row::Event(event) => {
                let mut text = Vec::with_capacity(512);
                event.write_json(&mut text);
                text
            }
            Row::Json(doc) => doc.to_string().into_bytes(),
        }
    }
}

#[derive(Default)]
struct IndexInner {
    docs: HashMap<u64, Row>,
    order: Vec<u64>,
    inverted: Inverted,
    /// Documents accepted but not yet merged into the inverted indexes.
    /// Mirrors Elasticsearch's near-real-time model: `_bulk` buffers, a
    /// *refresh* makes documents searchable. Queries trigger the refresh.
    pending: Vec<u64>,
    next_id: u64,
    deletions: u64,
}

/// The inverted indexes: field → term → ids of the documents holding it.
/// A struct of its own so a document can be indexed while `docs` lends it.
#[derive(Default)]
struct Inverted {
    keywords: HashMap<String, HashMap<String, Postings>>,
    numerics: HashMap<String, BTreeMap<FKey, Postings>>,
}

/// Runs `f` on `map[key]`, default-inserted first if absent. The key is
/// copied only then: indexing a document allocates for the fields and terms
/// it is the first to hold, not for every leaf.
fn with_slot<V: Default, R>(
    map: &mut HashMap<String, V>,
    key: &str,
    f: impl FnOnce(&mut V) -> R,
) -> R {
    match map.get_mut(key) {
        Some(slot) => f(slot),
        None => f(map.entry(key.to_owned()).or_default()),
    }
}

impl Inverted {
    fn index_term(&mut self, id: u64, path: &str, term: Term<'_>) {
        match term {
            Term::Keyword(kw) => with_slot(&mut self.keywords, path, |terms| {
                with_slot(terms, kw, |ids| ids.insert(id));
            }),
            Term::Number(n) => with_slot(&mut self.numerics, path, |tree| {
                tree.entry(FKey(n)).or_default().insert(id);
            }),
        }
    }

    fn unindex_term(&mut self, id: u64, path: &str, term: Term<'_>) {
        match term {
            Term::Keyword(kw) => {
                if let Some(terms) = self.keywords.get_mut(path) {
                    if let Some(ids) = terms.get_mut(kw) {
                        ids.remove(id);
                        if ids.is_empty() {
                            terms.remove(kw);
                        }
                    }
                }
            }
            Term::Number(n) => {
                if let Some(tree) = self.numerics.get_mut(path) {
                    if let Some(ids) = tree.get_mut(&FKey(n)) {
                        ids.remove(id);
                        if ids.is_empty() {
                            tree.remove(&FKey(n));
                        }
                    }
                }
            }
        }
    }

    fn index_doc(&mut self, id: u64, doc: DocRef<'_>) {
        doc.for_each_term(&mut |path, term| self.index_term(id, path, term));
    }

    fn unindex_doc(&mut self, id: u64, doc: DocRef<'_>) {
        doc.for_each_term(&mut |path, term| self.unindex_term(id, path, term));
    }

    /// `unindex_doc(id, was)` then `index_doc(id, now)`, touching only the
    /// top-level fields in which the two differ: an update that adds a field
    /// to an event moves that field's terms, not the event's thirty-odd.
    /// Both enumerate their fields in key order, so one merge pass pairs them.
    fn reindex_event<'a>(
        &mut self,
        id: u64,
        was: &SyscallEvent,
        now: impl Iterator<Item = (&'a str, Entry<'a>)>,
    ) {
        let mut was = was.fields().peekable();
        let mut now = now.peekable();
        loop {
            use std::cmp::Ordering::{Greater, Less};
            let side = match (was.peek(), now.peek()) {
                (None, None) => return,
                (Some(_), None) => Less,
                (None, Some(_)) => Greater,
                (Some((old, _)), Some((new, _))) => (*old).cmp(new),
            };
            let old = if side != Greater { was.next() } else { None };
            let new = if side != Less { now.next() } else { None };
            if let (Some((_, old)), Some((_, new))) = (old, new) {
                if new.same_terms(old) {
                    continue;
                }
            }
            if let Some((name, old)) = old {
                Entry::Event(old)
                    .for_each_term(name, &mut |path, term| self.unindex_term(id, path, term));
            }
            if let Some((name, new)) = new {
                new.for_each_term(name, &mut |path, term| self.index_term(id, path, term));
            }
        }
    }

    /// Returns the candidate doc-id set for a query, or `None` when the
    /// query cannot be narrowed by the indexes (meaning: scan everything).
    /// Candidates are a superset of matches; the caller re-verifies.
    fn candidates(&self, query: &Query) -> Option<HashSet<u64>> {
        match query {
            Query::Term { field, value } => {
                let ids = if let Some(kw) = as_keyword(value) {
                    self.keywords.get(field).and_then(|t| t.get(kw))
                } else {
                    let n = as_number(value)?;
                    self.numerics.get(field).and_then(|t| t.get(&FKey(n)))
                };
                Some(ids.map(Postings::to_set).unwrap_or_default())
            }
            Query::Terms { field, values } => {
                let mut out = HashSet::new();
                for v in values {
                    match self.candidates(&Query::Term { field: field.clone(), value: v.clone() }) {
                        Some(ids) => out.extend(ids),
                        None => return None,
                    }
                }
                Some(out)
            }
            Query::Range { field, gte, gt, lte, lt } => {
                let tree = match self.numerics.get(field) {
                    Some(t) => t,
                    None => return Some(HashSet::new()),
                };
                use std::ops::Bound;
                let lower = match (gte, gt) {
                    (Some(a), Some(b)) if b >= a => Bound::Excluded(FKey(*b)),
                    (Some(a), _) => Bound::Included(FKey(*a)),
                    (None, Some(b)) => Bound::Excluded(FKey(*b)),
                    (None, None) => Bound::Unbounded,
                };
                let upper = match (lte, lt) {
                    (Some(a), Some(b)) if b <= a => Bound::Excluded(FKey(*b)),
                    (Some(a), _) => Bound::Included(FKey(*a)),
                    (None, Some(b)) => Bound::Excluded(FKey(*b)),
                    (None, None) => Bound::Unbounded,
                };
                // Bounds that admit no number (`gt 5, lt 5`; `gte 9, lte 3`)
                // are an empty answer, where `BTreeMap::range` would panic.
                let admits_none = match (&lower, &upper) {
                    (Bound::Excluded(a), Bound::Excluded(b)) => a >= b,
                    (
                        Bound::Included(a) | Bound::Excluded(a),
                        Bound::Included(b) | Bound::Excluded(b),
                    ) => a > b,
                    _ => false,
                };
                let mut out = HashSet::new();
                if !admits_none {
                    for (_, ids) in tree.range((lower, upper)) {
                        out.extend(ids.iter());
                    }
                }
                Some(out)
            }
            Query::Prefix { field, prefix } => {
                let terms = match self.keywords.get(field) {
                    Some(t) => t,
                    None => return Some(HashSet::new()),
                };
                let mut out = HashSet::new();
                for (term, ids) in terms {
                    if term.starts_with(prefix.as_str()) {
                        out.extend(ids.iter());
                    }
                }
                Some(out)
            }
            Query::Bool { must, should, must_not: _ } => {
                // Intersect the narrowable must clauses; union the shoulds.
                let mut acc: Option<HashSet<u64>> = None;
                for q in must {
                    if let Some(ids) = self.candidates(q) {
                        acc = Some(match acc {
                            None => ids,
                            Some(prev) => prev.intersection(&ids).copied().collect(),
                        });
                    }
                }
                if acc.is_none() && !should.is_empty() {
                    let mut union = HashSet::new();
                    for q in should {
                        match self.candidates(q) {
                            Some(ids) => union.extend(ids),
                            None => return None,
                        }
                    }
                    acc = Some(union);
                }
                acc
            }
            Query::MatchAll | Query::Exists { .. } => None,
        }
    }
}

impl IndexInner {
    /// The documents matching `query` with their ids, in insertion order
    /// (stable results). Each id is resolved to its row here, once, for
    /// whatever the caller goes on to do with the match.
    fn matching<'a>(&'a self, query: &'a Query) -> impl Iterator<Item = (u64, DocRef<'a>)> {
        let cands = self.inverted.candidates(query);
        self.order
            .iter()
            .filter(move |id| cands.as_ref().is_none_or(|cands| cands.contains(id)))
            .filter_map(|&id| Some((id, self.docs.get(&id)?.as_ref())))
            .filter(|&(_, doc)| query.matches_doc(doc))
    }

    fn matching_ids(&self, query: &Query) -> Vec<u64> {
        self.matching(query).map(|(id, _)| id).collect()
    }
}

/// A search request: query + sort + pagination + aggregations.
///
/// Defaults: match-all, insertion order, first 10 000 hits, no aggregations.
/// Aggregations always run over *all* matching documents, as in
/// Elasticsearch.
#[derive(Debug, Clone)]
pub struct SearchRequest {
    /// The filter query.
    pub query: Query,
    /// Sort keys, applied in order.
    pub sort: Vec<(String, SortOrder)>,
    /// Offset into the sorted hit list.
    pub from: usize,
    /// Maximum hits returned.
    pub size: usize,
    /// Named aggregations.
    pub aggs: BTreeMap<String, Aggregation>,
}

impl SearchRequest {
    /// A request returning documents matching `query`.
    pub fn new(query: Query) -> Self {
        SearchRequest { query, sort: Vec::new(), from: 0, size: 10_000, aggs: BTreeMap::new() }
    }

    /// A match-all request (useful for pure aggregations).
    pub fn match_all() -> Self {
        Self::new(Query::MatchAll)
    }

    /// Adds a sort key.
    pub fn sort_by(mut self, field: impl Into<String>, order: SortOrder) -> Self {
        self.sort.push((field.into(), order));
        self
    }

    /// Sets the pagination offset.
    pub fn from(mut self, from: usize) -> Self {
        self.from = from;
        self
    }

    /// Sets the maximum number of hits.
    pub fn size(mut self, size: usize) -> Self {
        self.size = size;
        self
    }

    /// Adds a named aggregation.
    pub fn agg(mut self, name: impl Into<String>, agg: Aggregation) -> Self {
        self.aggs.insert(name.into(), agg);
        self
    }
}

/// One returned document.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// Document id within the index.
    pub id: u64,
    /// The document body.
    pub source: Value,
}

/// The result of [`Index::search`].
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResponse {
    /// Total matching documents (before pagination).
    pub total: u64,
    /// The requested page of hits.
    pub hits: Vec<Hit>,
    /// Aggregation results over all matches.
    pub aggs: BTreeMap<String, AggResult>,
}

/// A thread-safe document index with keyword and numeric inverted indexes.
///
/// # Examples
///
/// ```
/// use dio_backend::{Index, Query, SearchRequest};
/// use serde_json::json;
///
/// let index = Index::new("events");
/// index.bulk(vec![json!({"syscall": "read"}), json!({"syscall": "write"})]);
/// let res = index.search(&SearchRequest::new(Query::term("syscall", "read")));
/// assert_eq!(res.total, 1);
/// ```
pub struct Index {
    name: String,
    inner: RwLock<IndexInner>,
    /// Query-latency histogram, bound by the owning [`crate::DocStore`]
    /// when telemetry is enabled.
    query_ns: std::sync::OnceLock<std::sync::Arc<dio_telemetry::Histogram>>,
    /// Continuous-query subscribers; ingest delivers batch copies to each
    /// (see [`crate::Subscription`]). Kept outside `inner` so delivery
    /// happens after the ingest write lock is released.
    subscribers: RwLock<Vec<std::sync::Arc<crate::subscribe::SubQueue>>>,
    /// Write-through persistence, set when the owning [`crate::DocStore`]
    /// was opened on disk. Every accepted mutation is appended (and on
    /// disk) before the call acknowledges; the in-memory structures stay
    /// the query path.
    persist: Option<std::sync::Arc<crate::storage::StorageEngine>>,
}

impl std::fmt::Debug for Index {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Index").field("name", &self.name).field("docs", &self.len()).finish()
    }
}

impl Index {
    /// Creates an empty in-memory index.
    pub fn new(name: impl Into<String>) -> Self {
        Index {
            name: name.into(),
            inner: RwLock::new(IndexInner::default()),
            query_ns: std::sync::OnceLock::new(),
            subscribers: RwLock::new(Vec::new()),
            persist: None,
        }
    }

    /// Creates an empty index that writes through to `engine`.
    pub(crate) fn new_persistent(
        name: impl Into<String>,
        engine: std::sync::Arc<crate::storage::StorageEngine>,
    ) -> Self {
        let mut index = Index::new(name);
        index.persist = Some(engine);
        index
    }

    /// Rebuilds an index from recovered documents (sorted by id). The
    /// inverted indexes are built lazily at the first query, so reopening
    /// a large store stays cheap until someone actually searches it.
    ///
    /// Recovered events become typed rows like freshly traced ones — a
    /// reopened session occupies what the live one did — and, as there, the
    /// events of a session share one session name and one name per thread.
    pub(crate) fn from_persisted(
        name: impl Into<String>,
        engine: std::sync::Arc<crate::storage::StorageEngine>,
        docs: Vec<(u64, Vec<u8>)>,
    ) -> Self {
        let index = Index::new_persistent(name, engine);
        {
            let mut inner = index.inner.write();
            let mut names: HashSet<Arc<str>> = HashSet::new();
            for (id, bytes) in docs {
                let text = std::str::from_utf8(&bytes).expect("recovered document is UTF-8");
                let doc: Value =
                    serde_json::from_str(text).expect("recovered document parses as JSON");
                let mut row = Row::from(doc);
                if let Row::Event(event) = &mut row {
                    for name in [&mut event.session, &mut event.comm] {
                        match names.get(&**name) {
                            Some(held) => *name = Arc::clone(held),
                            None => drop(names.insert(Arc::clone(name))),
                        }
                    }
                }
                inner.docs.insert(id, row);
                inner.order.push(id);
                inner.pending.push(id);
                inner.next_id = inner.next_id.max(id + 1);
            }
        }
        index
    }

    /// Opens a continuous query: every batch accepted from now on is also
    /// delivered to the returned [`crate::Subscription`], whose bounded
    /// queue holds up to `capacity` batches (overflow drops batches for
    /// that subscriber — ingest never blocks).
    pub fn subscribe(&self, capacity: usize) -> crate::Subscription {
        let queue = std::sync::Arc::new(crate::subscribe::SubQueue::new(capacity));
        self.subscribers.write().push(std::sync::Arc::clone(&queue));
        crate::Subscription::new(self.name.clone(), queue)
    }

    /// Number of live subscriptions.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.read().iter().filter(|s| s.is_alive()).count()
    }

    fn has_subscribers(&self) -> bool {
        !self.subscribers.read().is_empty()
    }

    /// Delivers a batch copy to every live subscriber and prunes dead
    /// ones. Called outside the ingest write lock.
    fn notify_subscribers(&self, batch: &[Value]) {
        let mut saw_dead = false;
        for sub in self.subscribers.read().iter() {
            if sub.is_alive() {
                sub.offer(batch);
            } else {
                saw_dead = true;
            }
        }
        if saw_dead {
            self.subscribers.write().retain(|s| s.is_alive());
        }
    }

    pub(crate) fn bind_query_histogram(&self, histogram: std::sync::Arc<dio_telemetry::Histogram>) {
        let _ = self.query_ns.set(histogram);
    }

    /// The index name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of live documents.
    pub fn len(&self) -> usize {
        self.inner.read().docs.len()
    }

    /// Whether the index holds no documents.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accepts one document, returning its id. The document becomes
    /// searchable at the next [`Index::refresh`] (queries refresh
    /// implicitly, as in Elasticsearch's near-real-time model).
    pub fn index_doc(&self, doc: Value) -> u64 {
        self.bulk(vec![doc])[0]
    }

    /// Bulk-accepts documents under one lock acquisition (the analogue of
    /// Elasticsearch's `_bulk` API the tracer batches into). Ingestion is
    /// O(1) per document; the inverted indexes are built at refresh time,
    /// keeping the hot tracing path cheap — in the paper's deployment this
    /// work happens on the separate backend server.
    ///
    /// A document that is exactly a syscall event's
    /// ([`SyscallEvent::from_document`]) is stored as the event; every read
    /// answers as if the JSON value had been kept.
    pub fn bulk(&self, docs: Vec<Value>) -> Vec<u64> {
        // Copy for subscribers before the documents move into the store;
        // the copy is skipped entirely when nobody subscribed.
        let snapshot = self.has_subscribers().then(|| docs.clone());
        self.accept(docs.into_iter().map(Row::from).collect(), snapshot)
    }

    /// [`Index::bulk`] for the tracer's own events: stored as they are, with
    /// no JSON value built unless someone subscribed.
    pub(crate) fn bulk_events(&self, events: Vec<SyscallEvent>) -> Vec<u64> {
        let snapshot =
            self.has_subscribers().then(|| events.iter().map(SyscallEvent::to_document).collect());
        self.accept(events.into_iter().map(Row::Event).collect(), snapshot)
    }

    fn accept(&self, rows: Vec<Row>, snapshot: Option<Vec<Value>>) -> Vec<u64> {
        // Serialize for the write-through log before taking the lock.
        let bytes: Option<Vec<Vec<u8>>> =
            self.persist.as_ref().map(|_| rows.iter().map(Row::to_json).collect());
        let ids = {
            let mut inner = self.inner.write();
            let mut ids = Vec::with_capacity(rows.len());
            let first_id = inner.next_id;
            if let (Some(engine), Some(bytes)) = (&self.persist, bytes) {
                let puts = bytes.into_iter().enumerate().map(|(i, b)| (first_id + i as u64, b));
                engine
                    .append_puts(&self.name, puts.collect())
                    .expect("dio-backend: persistent append failed");
            }
            for row in rows {
                let id = inner.next_id;
                inner.next_id += 1;
                inner.docs.insert(id, row);
                inner.order.push(id);
                inner.pending.push(id);
                ids.push(id);
            }
            ids
        };
        if let Some(batch) = snapshot {
            self.notify_subscribers(&batch);
        }
        ids
    }

    /// Merges pending documents into the inverted indexes. Called
    /// implicitly by every query entry point.
    pub fn refresh(&self) {
        if self.inner.read().pending.is_empty() {
            return;
        }
        let mut guard = self.inner.write();
        let inner = &mut *guard;
        for id in std::mem::take(&mut inner.pending) {
            if let Some(row) = inner.docs.get(&id) {
                inner.inverted.index_doc(id, row.as_ref());
            }
        }
    }

    /// Whether document `id` is kept as a typed event rather than as JSON.
    #[cfg(test)]
    pub(crate) fn keeps_typed(&self, id: u64) -> Option<bool> {
        self.inner.read().docs.get(&id).map(|row| matches!(row, Row::Event(_)))
    }

    /// Fetches a document by id.
    pub fn get(&self, id: u64) -> Option<Value> {
        self.inner.read().docs.get(&id).map(|row| row.as_ref().to_value())
    }

    /// Deletes a document by id, returning whether it existed.
    pub fn delete(&self, id: u64) -> bool {
        self.refresh();
        let mut inner = self.inner.write();
        let Some(doc) = inner.docs.remove(&id) else {
            return false;
        };
        if let Some(engine) = &self.persist {
            engine.append_delete(&self.name, id).expect("dio-backend: persistent delete failed");
        }
        inner.inverted.unindex_doc(id, doc.as_ref());
        inner.deletions += 1;
        // Compact `order` lazily once deletions pile up.
        if inner.deletions > 1024 && inner.deletions * 2 > inner.order.len() as u64 {
            let live: HashSet<u64> = inner.docs.keys().copied().collect();
            inner.order.retain(|i| live.contains(i));
            inner.deletions = 0;
        }
        true
    }

    /// Counts documents matching `query`.
    pub fn count(&self, query: &Query) -> u64 {
        self.refresh();
        self.inner.read().matching(query).count() as u64
    }

    /// Executes a search.
    pub fn search(&self, request: &SearchRequest) -> SearchResponse {
        let _timer = self.query_ns.get().map(|h| h.start_timer());
        self.refresh();
        let inner = self.inner.read();
        let mut matches: Vec<(u64, DocRef<'_>)> = inner.matching(&request.query).collect();
        if !request.sort.is_empty() {
            matches.sort_by(|&(_, a), &(_, b)| {
                for (field, order) in &request.sort {
                    let ord = compare_docs(a, b, field, *order);
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        let total = matches.len() as u64;
        let aggs = if request.aggs.is_empty() {
            BTreeMap::new()
        } else {
            let docs: Vec<DocRef<'_>> = matches.iter().map(|&(_, doc)| doc).collect();
            request.aggs.iter().map(|(name, agg)| (name.clone(), agg.compute_over(&docs))).collect()
        };
        let hits = matches
            .into_iter()
            .skip(request.from)
            .take(request.size)
            .map(|(id, doc)| Hit { id, source: doc.to_value() })
            .collect();
        SearchResponse { total, hits, aggs }
    }

    /// Applies `update` to every document matching `query`, keeping the
    /// inverted indexes consistent. Returns the number of updated documents.
    ///
    /// This is the primitive DIO's *file path correlation algorithm* uses
    /// (Elasticsearch `_update_by_query`).
    pub fn update_by_query(&self, query: &Query, mut update: impl FnMut(&mut Value)) -> usize {
        self.refresh();
        let mut guard = self.inner.write();
        let inner = &mut *guard;
        let ids = inner.matching_ids(query);
        let mut rewritten: Vec<(u64, Vec<u8>)> = Vec::new();
        for &id in &ids {
            let row = inner.docs.get_mut(&id).expect("id from matching_ids");
            // The closure sees the document; what it leaves decides the
            // row's kind afresh.
            match row {
                Row::Event(event) => {
                    let mut doc = event.to_document();
                    update(&mut doc);
                    let mut updated = Row::from(doc);
                    match &mut updated {
                        Row::Event(now) => {
                            // The rewritten event keeps sharing its session's
                            // and its thread's name.
                            for (name, held) in
                                [(&mut now.session, &event.session), (&mut now.comm, &event.comm)]
                            {
                                if **name == **held {
                                    *name = Arc::clone(held);
                                }
                            }
                            let now = now.fields().map(|(name, field)| (name, Entry::Event(field)));
                            inner.inverted.reindex_event(id, event, now);
                        }
                        Row::Json(Value::Object(now)) => {
                            let now = now.iter().map(|(name, v)| (name.as_str(), Entry::Json(v)));
                            inner.inverted.reindex_event(id, event, now);
                        }
                        Row::Json(now) => {
                            inner.inverted.unindex_doc(id, DocRef::Event(event));
                            inner.inverted.index_doc(id, DocRef::Json(now));
                        }
                    }
                    *row = updated;
                }
                Row::Json(doc) => {
                    inner.inverted.unindex_doc(id, DocRef::Json(doc));
                    update(doc);
                    *row = Row::from(std::mem::take(doc));
                    inner.inverted.index_doc(id, row.as_ref());
                }
            }
            if self.persist.is_some() {
                rewritten.push((id, row.to_json()));
            }
        }
        if let Some(engine) = &self.persist {
            if !rewritten.is_empty() {
                engine
                    .append_puts(&self.name, rewritten)
                    .expect("dio-backend: persistent update failed");
            }
        }
        ids.len()
    }

    /// Deletes every document matching `query`, returning how many.
    pub fn delete_by_query(&self, query: &Query) -> usize {
        self.refresh();
        let ids = self.inner.read().matching_ids(query);
        for &id in &ids {
            self.delete(id);
        }
        ids.len()
    }
}

impl Drop for Index {
    /// Closing the index (store shutdown, `delete_index`, reopen cycle)
    /// closes every subscription deterministically: queued batches stay
    /// drainable, but receives return `None` immediately instead of
    /// waiting out their timeout, and [`crate::Subscription::is_closed`]
    /// flips to true. See the `subscribe` module docs.
    fn drop(&mut self) {
        for sub in self.subscribers.read().iter() {
            sub.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn sample_index() -> Index {
        let idx = Index::new("t");
        idx.bulk(vec![
            json!({"syscall": "openat", "tid": 1, "time": 100, "ret_val": 3}),
            json!({"syscall": "write", "tid": 1, "time": 200, "ret_val": 26, "offset": 0}),
            json!({"syscall": "read", "tid": 2, "time": 300, "ret_val": 26, "offset": 0}),
            json!({"syscall": "read", "tid": 2, "time": 400, "ret_val": 0, "offset": 26}),
            json!({"syscall": "close", "tid": 1, "time": 500, "ret_val": 0}),
        ]);
        idx
    }

    #[test]
    fn term_search_uses_keyword_index() {
        let idx = sample_index();
        let res = idx.search(&SearchRequest::new(Query::term("syscall", "read")));
        assert_eq!(res.total, 2);
        assert!(res.hits.iter().all(|h| h.source["syscall"] == "read"));
    }

    #[test]
    fn numeric_term_and_range() {
        let idx = sample_index();
        assert_eq!(idx.count(&Query::term("tid", 1)), 3);
        assert_eq!(idx.count(&Query::range("time").gte(200.0).lte(400.0).build()), 3);
        assert_eq!(idx.count(&Query::range("time").gt(200.0).lt(400.0).build()), 1);
        assert_eq!(idx.count(&Query::range("missing_field").gte(0.0).build()), 0);
    }

    #[test]
    fn bool_narrowing_still_correct() {
        let idx = sample_index();
        let q = Query::bool_query()
            .must(Query::term("syscall", "read"))
            .must(Query::term("tid", 2))
            .must_not(Query::term("ret_val", 0))
            .build();
        assert_eq!(idx.count(&q), 1);
    }

    #[test]
    fn sort_and_pagination() {
        let idx = sample_index();
        let res = idx
            .search(&SearchRequest::match_all().sort_by("time", SortOrder::Desc).from(1).size(2));
        assert_eq!(res.total, 5);
        assert_eq!(res.hits.len(), 2);
        assert_eq!(res.hits[0].source["time"], 400);
        assert_eq!(res.hits[1].source["time"], 300);
    }

    #[test]
    fn insertion_order_without_sort() {
        let idx = sample_index();
        let res = idx.search(&SearchRequest::match_all());
        let times: Vec<_> = res.hits.iter().map(|h| h.source["time"].as_u64().unwrap()).collect();
        assert_eq!(times, vec![100, 200, 300, 400, 500]);
    }

    #[test]
    fn aggregations_cover_all_matches_not_page() {
        let idx = sample_index();
        let res = idx.search(
            &SearchRequest::match_all()
                .size(1)
                .agg("by_syscall", Aggregation::terms("syscall", 10)),
        );
        assert_eq!(res.hits.len(), 1);
        let buckets = res.aggs["by_syscall"].buckets();
        assert_eq!(buckets.iter().map(|b| b.doc_count).sum::<u64>(), 5);
    }

    #[test]
    fn get_delete_roundtrip() {
        let idx = Index::new("t");
        let id = idx.index_doc(json!({"a": 1}));
        assert_eq!(idx.get(id).unwrap()["a"], 1);
        assert!(idx.delete(id));
        assert!(!idx.delete(id));
        assert!(idx.get(id).is_none());
        assert_eq!(idx.count(&Query::term("a", 1)), 0);
    }

    #[test]
    fn update_by_query_reindexes() {
        let idx = sample_index();
        let n = idx.update_by_query(&Query::term("tid", 2), |doc| {
            doc["file_path"] = json!("/tmp/app.log");
        });
        assert_eq!(n, 2);
        // The new field is queryable through the index.
        assert_eq!(idx.count(&Query::term("file_path", "/tmp/app.log")), 2);
        assert_eq!(idx.count(&Query::exists("file_path")), 2);
    }

    #[test]
    fn update_by_query_moves_terms() {
        let idx = Index::new("t");
        idx.index_doc(json!({"s": "a"}));
        idx.update_by_query(&Query::term("s", "a"), |doc| {
            doc["s"] = json!("b");
        });
        assert_eq!(idx.count(&Query::term("s", "a")), 0);
        assert_eq!(idx.count(&Query::term("s", "b")), 1);
    }

    #[test]
    fn a_term_leaves_the_index_with_its_last_document() {
        let idx = Index::new("t");
        let first = idx.index_doc(json!({"s": "a", "n": 7}));
        let second = idx.index_doc(json!({"s": "b", "n": 7}));
        assert!(idx.delete(first));
        {
            let inner = idx.inner.read();
            let terms: Vec<&String> = inner.inverted.keywords["s"].keys().collect();
            assert_eq!(terms, ["b"], "`a` lost its only document");
            assert_eq!(inner.inverted.numerics["n"].len(), 1, "7 is still held by one");
        }
        assert!(idx.delete(second));
        let inner = idx.inner.read();
        assert!(inner.inverted.keywords["s"].is_empty());
        assert!(inner.inverted.numerics["n"].is_empty());
    }

    #[test]
    fn delete_by_query() {
        let idx = sample_index();
        assert_eq!(idx.delete_by_query(&Query::term("tid", 1)), 3);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.count(&Query::MatchAll), 2);
    }

    #[test]
    fn prefix_query_through_index() {
        let idx = Index::new("t");
        idx.bulk(vec![
            json!({"file_path": "/db/LOG"}),
            json!({"file_path": "/db/000001.sst"}),
            json!({"file_path": "/tmp/x"}),
        ]);
        assert_eq!(idx.count(&Query::prefix("file_path", "/db/")), 2);
    }

    #[test]
    fn nested_fields_indexed_with_dotted_paths() {
        let idx = Index::new("t");
        idx.index_doc(json!({"args": {"count": 26, "path": "/f"}}));
        assert_eq!(idx.count(&Query::term("args.count", 26)), 1);
        assert_eq!(idx.count(&Query::term("args.path", "/f")), 1);
    }

    #[test]
    fn many_deletions_compact_order() {
        let idx = Index::new("t");
        let ids = idx.bulk((0..5000).map(|i| json!({ "i": i })).collect());
        for id in &ids[..4000] {
            idx.delete(*id);
        }
        assert_eq!(idx.len(), 1000);
        let res = idx.search(&SearchRequest::match_all().size(usize::MAX));
        assert_eq!(res.total, 1000);
    }
}
