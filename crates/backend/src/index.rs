//! A document index: storage + inverted indexes + search.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

use dio_syscall::SyscallEvent;
use parking_lot::RwLock;
use serde_json::Value;

use crate::agg::{AggResult, Aggregation};
use crate::postings::Postings;
use crate::query::{compare_docs, Query, SortOrder};
use crate::row::{Dicts, Doc, Row};
use crate::storage::{Loaded, StorageEngine, Stored};
use crate::value_path::{as_keyword, as_number, DocRef, Term};
use crate::CorrelationReport;

/// Slots per chunk of the row table. A chunk is one allocation of
/// 1 024 slots of at most 96 B: the table's slack is at most that (2 B a
/// document at 50 000, where a doubling vector or a hash table wastes up to
/// half of itself), and a small index — a session's telemetry — pays one
/// chunk.
const CHUNK_BITS: u32 = 10;
const CHUNK_SLOTS: usize = 1 << CHUNK_BITS;
/// Ids a table accepts. Its chunk directory costs 24 B per 1 024 ids up to the
/// highest one, held or not, so an id read from a damaged store must not be
/// allowed to size it: 2³² documents are 352 GiB of rows, more than any
/// session holds in memory, and a directory of 96 MiB at the very worst.
const MAX_ID: u64 = u32::MAX as u64;

/// The rows of an index in id order: a row's place is its id.
///
/// The index hands ids out densely and ascending, so the table is an array
/// cut into fixed-capacity chunks: appending never copies a row, insertion
/// order is iteration order, and a lookup is two indexings. A deleted or
/// never-seen id is an empty slot (or a slot its chunk never grew to); the
/// slot of a deleted row keeps its bytes, which nothing on the tracing path
/// pays — only tests and the crash harness delete.
#[derive(Default)]
struct Table {
    chunks: Vec<Vec<Option<Row>>>,
    live: usize,
}

/// The chunk and the slot in it that hold `id`.
fn place(id: u64) -> Option<(usize, usize)> {
    Some((usize::try_from(id >> CHUNK_BITS).ok()?, (id % CHUNK_SLOTS as u64) as usize))
}

impl Table {
    /// One past the highest id ever put: the next id to hand out.
    fn end(&self) -> u64 {
        let full = (self.chunks.len().saturating_sub(1) as u64) << CHUNK_BITS;
        full + self.chunks.last().map_or(0, Vec::len) as u64
    }

    /// Stores `row` under `id`, which is at or past [`Table::end`].
    fn put(&mut self, id: u64, row: Row) {
        assert!(self.end() <= id && id <= MAX_ID, "document id {id} out of order or range");
        let (chunk, slot) = place(id).expect("an id up to MAX_ID has a place");
        if self.chunks.len() <= chunk {
            self.chunks.resize_with(chunk + 1, Vec::new);
        }
        let chunk = &mut self.chunks[chunk];
        if chunk.capacity() == 0 {
            chunk.reserve_exact(CHUNK_SLOTS);
        }
        chunk.resize_with(slot, || None);
        chunk.push(Some(row));
        self.live += 1;
    }

    fn get(&self, id: u64) -> Option<&Row> {
        let (chunk, slot) = place(id)?;
        self.chunks.get(chunk)?.get(slot)?.as_ref()
    }

    fn slot_mut(&mut self, id: u64) -> Option<&mut Option<Row>> {
        let (chunk, slot) = place(id)?;
        self.chunks.get_mut(chunk)?.get_mut(slot)
    }

    fn take(&mut self, id: u64) -> Option<Row> {
        let row = self.slot_mut(id)?.take()?;
        self.live -= 1;
        Some(row)
    }

    /// Every row with its id, ascending — which is insertion order.
    fn iter(&self) -> impl Iterator<Item = (u64, &Row)> {
        self.chunks.iter().enumerate().flat_map(|(at, chunk)| {
            let base = (at as u64) << CHUNK_BITS;
            let slots = chunk.iter().enumerate();
            slots.filter_map(move |(slot, row)| Some((base + slot as u64, row.as_ref()?)))
        })
    }
}

#[derive(Default)]
struct IndexInner {
    rows: Table,
    /// What the event rows name by id (see [`crate::row`]).
    dicts: Dicts,
    inverted: Inverted,
    /// Ids below this are in the inverted indexes; rows from it on were
    /// accepted but not merged yet. Mirrors Elasticsearch's near-real-time
    /// model: `_bulk` buffers, a *refresh* makes documents searchable.
    /// Queries trigger the refresh.
    refreshed: u64,
    /// The rows from this id on are the tracer's events a persisted index
    /// took in and has not logged yet: its unlogged tail. Queryable like any
    /// row, durable once [`Index::log_tail`] appends them; every other write
    /// to the index logs them first, so the log replays in id order.
    unlogged: u64,
}

/// The inverted indexes: field → term → ids of the documents holding it.
/// A struct of its own so a document can be indexed while `docs` lends it.
#[derive(Default)]
struct Inverted {
    keywords: HashMap<String, HashMap<String, Postings>>,
    numerics: HashMap<String, TermArray>,
}

/// The order-preserving `u64` of a number: `key(a) < key(b)` exactly when
/// `a.total_cmp(&b)` is `Less`, except that `-0.0` is `0.0` — a term or a
/// bound of zero holds both, as the `==` and `>=` a match is re-checked with
/// do. Negative numbers have every bit flipped, the rest the sign bit set.
fn key(n: f64) -> u64 {
    let bits = if n == 0.0 { 0 } else { n.to_bits() };
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The terms of one numeric field: its distinct values as [`key`]s, strictly
/// ascending, and beside each the posting list of the documents holding it —
/// 24 B a value, where a B-tree entry cost 39–49 B with its nodes' slack.
/// A term is two binary searches away, a range is a slice of `lists`.
///
/// Writes leave the arrays alone until [`TermArray::settle`]:
///
/// * an indexed term is *staged* as `(key, id)`; settling sorts the k staged
///   pairs and merges them from the back in one pass after one reserve, and
///   every held entry above the least staged key moves once. New timestamps
///   land past the tail, and next to nothing moves; the new values of a
///   field like `offset` or `latency_ns` fall anywhere, and nearly all of
///   its n entries move. A settle costs O(k log k + n) where a B-tree cost
///   O(k log n), so a session refreshed every k events pays O(n / k) moves
///   per event for such a field;
/// * a removed term finds its key by binary search, O(log n) plus the list's
///   own removal; a list it empties stays, empty, and settling drops every
///   such list of the field in one O(n) pass.
///
/// A refresh, and an `update_by_query` at its end, settle every field; a
/// delete settles nothing, so deleting m documents by id or by query costs
/// O(m log n) and the next refresh one pass per field it emptied a list of.
#[derive(Default)]
struct TermArray {
    keys: Vec<u64>,
    lists: Vec<Postings>,
    /// `(key, id)` of the terms indexed since the last settle; empty, without
    /// a buffer, in between.
    staged: Vec<(u64, u64)>,
    /// Whether a removal emptied a list since the last settle.
    emptied: bool,
}

impl TermArray {
    fn get(&self, key: u64) -> Option<&Postings> {
        self.keys.binary_search(&key).ok().map(|at| &self.lists[at])
    }

    /// The place of the first key at or above `key` — above it, unless
    /// `inclusive`.
    fn bound(&self, key: u64, inclusive: bool) -> usize {
        self.keys.partition_point(|&held| held < key || (!inclusive && held == key))
    }

    /// The lists of the values a range admits: `gte`, `gt`, `lte` and `lt`
    /// each narrow the slice, so bounds that admit nothing give an empty one.
    fn range(
        &self,
        gte: Option<f64>,
        gt: Option<f64>,
        lte: Option<f64>,
        lt: Option<f64>,
    ) -> &[Postings] {
        let len = self.keys.len();
        let lo = gte
            .map_or(0, |n| self.bound(key(n), true))
            .max(gt.map_or(0, |n| self.bound(key(n), false)));
        let hi = lte
            .map_or(len, |n| self.bound(key(n), false))
            .min(lt.map_or(len, |n| self.bound(key(n), true)));
        &self.lists[lo..hi.max(lo)]
    }

    fn stage(&mut self, key: u64, id: u64) {
        self.staged.push((key, id));
    }

    /// Removes `id` from `key`'s list. The writers remove the terms of
    /// documents indexed before they began, which are never staged.
    fn remove(&mut self, key: u64, id: u64) {
        if let Ok(at) = self.keys.binary_search(&key) {
            let ids = &mut self.lists[at];
            ids.remove(id);
            self.emptied |= ids.is_empty();
        }
    }

    fn is_settled(&self) -> bool {
        self.staged.is_empty() && !self.emptied
    }

    /// Drops the emptied lists, then merges the staged pairs in.
    fn settle(&mut self) {
        if std::mem::take(&mut self.emptied) {
            let mut kept = 0;
            for at in 0..self.keys.len() {
                if !self.lists[at].is_empty() {
                    self.keys[kept] = self.keys[at];
                    self.lists.swap(kept, at);
                    kept += 1;
                }
            }
            self.keys.truncate(kept);
            self.lists.truncate(kept);
        }
        let mut staged = std::mem::take(&mut self.staged);
        staged.sort_unstable();
        let Some(&(least, _)) = staged.first() else { return };
        // Held entries below the least staged key stay where they are.
        let start = self.bound(least, true);
        let groups = || staged.chunk_by(|a, b| a.0 == b.0);
        let mut held = self.keys[start..].iter().peekable();
        let fresh = groups()
            .filter(|group| {
                while held.next_if(|&&k| k < group[0].0).is_some() {}
                held.peek() != Some(&&group[0].0)
            })
            .count();
        let (old, len) = (self.keys.len(), self.keys.len() + fresh);
        self.keys.resize(len, 0);
        self.lists.resize_with(len, Postings::default);
        // From the back: `read` walks the held entries down, `write` the
        // places they and the fresh keys take; every place in between holds
        // an empty list.
        let (mut read, mut write) = (old, len);
        for group in groups().rev() {
            let key = group[0].0;
            while read > start && self.keys[read - 1] > key {
                (read, write) = (read - 1, write - 1);
                self.keys[write] = self.keys[read];
                self.lists.swap(write, read);
            }
            write -= 1;
            if read > start && self.keys[read - 1] == key {
                read -= 1;
                self.lists.swap(write, read);
            }
            self.keys[write] = key;
            for &(_, id) in group {
                self.lists[write].insert(id);
            }
        }
        debug_assert_eq!(read, write, "every fresh key has its place");
    }
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
    /// Indexes a term: a keyword at once, a number staged until
    /// [`Inverted::settle`].
    fn index_term(&mut self, id: u64, path: &str, term: Term<'_>) {
        match term {
            Term::Keyword(kw) => with_slot(&mut self.keywords, path, |terms| {
                with_slot(terms, kw, |ids| ids.insert(id));
            }),
            Term::Number(n) => with_slot(&mut self.numerics, path, |terms| terms.stage(key(n), id)),
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
                if let Some(terms) = self.numerics.get_mut(path) {
                    terms.remove(key(n), id);
                }
            }
        }
    }

    /// Whether every numeric field is settled: nothing staged, no list empty.
    fn is_settled(&self) -> bool {
        self.numerics.values().all(TermArray::is_settled)
    }

    /// Settles every numeric field (see [`TermArray`]).
    fn settle(&mut self) {
        for terms in self.numerics.values_mut() {
            terms.settle();
        }
    }

    fn index_doc(&mut self, id: u64, doc: DocRef<'_>) {
        doc.for_each_term(&mut |path, term| self.index_term(id, path, term));
    }

    fn unindex_doc(&mut self, id: u64, doc: DocRef<'_>) {
        doc.for_each_term(&mut |path, term| self.unindex_term(id, path, term));
    }

    /// The posting list of `field: value` (an empty one when no document
    /// holds the term), or `None` when `value` is nothing the indexes hold.
    fn term(&self, field: &str, value: &Value) -> Option<&Postings> {
        let ids = if let Some(kw) = as_keyword(value) {
            self.keywords.get(field).and_then(|t| t.get(kw))
        } else {
            let n = as_number(value)?;
            self.numerics.get(field).and_then(|terms| terms.get(key(n)))
        };
        Some(ids.unwrap_or(&Postings::Empty))
    }

    /// Returns the candidate doc ids for a query, ascending and without
    /// duplicates, or `None` when the query cannot be narrowed by the
    /// indexes (meaning: scan everything). Candidates are a superset of
    /// matches; the caller re-verifies.
    fn candidates(&self, query: &Query) -> Option<Vec<u64>> {
        match query {
            Query::Term { field, value } => {
                let ids = self.term(field, value)?;
                let mut out = Vec::with_capacity(ids.len());
                out.extend(ids.iter());
                Some(out)
            }
            Query::Terms { field, values } => {
                let lists: Option<Vec<&Postings>> =
                    values.iter().map(|value| self.term(field, value)).collect();
                Some(union(lists?))
            }
            Query::Range { field, gte, gt, lte, lt } => {
                let Some(terms) = self.numerics.get(field) else { return Some(Vec::new()) };
                Some(union(terms.range(*gte, *gt, *lte, *lt)))
            }
            Query::Prefix { field, prefix } => {
                let Some(terms) = self.keywords.get(field) else { return Some(Vec::new()) };
                let holders = terms.iter().filter(|(term, _)| term.starts_with(prefix.as_str()));
                Some(union(holders.map(|(_, ids)| ids)))
            }
            Query::Bool { must, should, must_not: _ } => {
                // Intersect the narrowable must clauses; union the shoulds.
                let mut acc: Option<Vec<u64>> = None;
                for ids in must.iter().filter_map(|q| self.candidates(q)) {
                    acc = Some(match acc {
                        None => ids,
                        Some(mut held) => {
                            // Two cursors over two ascending lists.
                            let mut rest = ids.as_slice();
                            held.retain(|id| {
                                while rest.first().is_some_and(|other| other < id) {
                                    rest = &rest[1..];
                                }
                                rest.first() == Some(id)
                            });
                            held
                        }
                    });
                }
                if acc.is_none() && !should.is_empty() {
                    let mut out = Vec::new();
                    for q in should {
                        out.append(&mut self.candidates(q)?);
                    }
                    acc = Some(ascending(out));
                }
                acc
            }
            Query::MatchAll | Query::Exists { .. } => None,
        }
    }
}

/// The ids of `lists` together, ascending, each once.
fn union<'a>(lists: impl IntoIterator<Item = &'a Postings>) -> Vec<u64> {
    let mut out = Vec::new();
    for ids in lists {
        out.reserve(ids.len());
        out.extend(ids.iter());
    }
    ascending(out)
}

/// `ids` sorted, each once. They arrive as a few ascending runs — one per
/// posting list — which is what the stable sort merges in O(n log runs), and
/// a document holding two of the terms (a JSON array) is in two of them.
fn ascending(mut ids: Vec<u64>) -> Vec<u64> {
    ids.sort();
    ids.dedup();
    ids
}

impl IndexInner {
    /// Indexes the rows accepted since the last refresh and settles every
    /// numeric field.
    fn refresh(&mut self) {
        for id in self.refreshed..self.rows.end() {
            if let Some(row) = self.rows.get(id) {
                self.inverted.index_doc(id, self.dicts.doc(row).as_ref());
            }
        }
        self.refreshed = self.rows.end();
        self.inverted.settle();
    }

    /// The documents matching `query` with their ids, in insertion order
    /// (stable results), which is id order: the candidates are walked
    /// straight to their rows, or the whole table when the query cannot be
    /// narrowed. Each row visited has its event built, or its text parsed.
    fn matching<'a>(&'a self, query: &'a Query) -> impl Iterator<Item = (u64, Doc<Value>)> + 'a {
        let (narrowed, all) = match self.inverted.candidates(query) {
            Some(ids) => {
                (Some(ids.into_iter().filter_map(|id| Some((id, self.rows.get(id)?)))), None)
            }
            None => (None, Some(self.rows.iter())),
        };
        let rows = narrowed.into_iter().flatten().chain(all.into_iter().flatten());
        rows.map(|(id, row)| (id, self.dicts.doc(row)))
            .filter(|(_, doc)| query.matches_doc(doc.as_ref()))
    }

    fn matching_ids(&self, query: &Query) -> Vec<u64> {
        self.matching(query).map(|(id, _)| id).collect()
    }

    /// Appends the rows of `ids`, ascending, to `engine` — the event rows as
    /// runs — with a dictionary record of the entries the rows may name that
    /// the log does not hold yet ahead of them.
    fn append(
        &mut self,
        engine: &StorageEngine,
        name: &str,
        ids: impl IntoIterator<Item = u64>,
    ) -> std::io::Result<()> {
        let rows = &self.rows;
        let puts = ids.into_iter().filter_map(|id| Some((id, rows.get(id)?.to_put())));
        engine.append_rows(name, self.dicts.record(), puts)?;
        self.dicts.note_logged();
        Ok(())
    }

    /// Appends the unlogged tail to `engine`, returning how many rows it
    /// held.
    fn log_tail(&mut self, engine: &StorageEngine, name: &str) -> std::io::Result<usize> {
        let (first, end) = (self.unlogged, self.rows.end());
        if first < end {
            self.append(engine, name, first..end)?;
            self.unlogged = end;
        }
        Ok((end - first) as usize)
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
    /// Persistence, set when the owning [`crate::DocStore`] was opened on
    /// disk. Every accepted mutation is appended (and on disk) before the
    /// call acknowledges — the tracer's events when it asks
    /// ([`Index::log_tail`]); the in-memory structures stay the query path.
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

    /// Rebuilds an index from what the log recovered of it: its dictionary
    /// records, replayed first, and its documents (sorted by id; the ids of
    /// deleted documents are gaps). The inverted indexes are built lazily at
    /// the first query, so reopening a large store stays cheap until someone
    /// actually searches it.
    ///
    /// A recovered event row goes into the table as it is, naming the ids the
    /// records define; no event is built. An event of a run of the first
    /// format is interned as ingested ones are, and a recovered JSON
    /// document becomes a row as one through [`Index::bulk_text`] does: its
    /// bytes are kept as they were logged.
    ///
    /// Fails on records that do not agree, on a row naming an id no record
    /// defines, on an id no index hands out (see [`MAX_ID`]) and on a
    /// document that is not JSON text: the store is damaged, and the row
    /// table must not be sized by it.
    pub(crate) fn from_persisted(
        name: impl Into<String>,
        engine: std::sync::Arc<crate::storage::StorageEngine>,
        loaded: Loaded,
    ) -> std::io::Result<Self> {
        let index = Index::new_persistent(name, engine);
        {
            let inner = &mut *index.inner.write();
            let damaged = |what: String| {
                let what = format!("index {}: {what}", index.name);
                std::io::Error::new(std::io::ErrorKind::InvalidData, what)
            };
            inner.dicts = Dicts::replay(loaded.dicts).map_err(|e| damaged(e.to_string()))?;
            for (id, stored) in loaded.docs {
                if id > MAX_ID {
                    return Err(damaged(format!("document id {id} is out of range")));
                }
                let row = match stored {
                    Stored::Row(row) if inner.dicts.admits(&row) => Row::Event(row),
                    Stored::Row(_) => {
                        return Err(damaged(format!(
                            "document {id} names an id no dictionary record defines"
                        )))
                    }
                    Stored::Event(event) => Row::Event(inner.dicts.intern(&event)),
                    Stored::Json(bytes) => {
                        match String::from_utf8(bytes).ok().and_then(|t| Doc::from_text(t).ok()) {
                            Some(doc) => inner.dicts.row(doc),
                            None => return Err(damaged(format!("document {id} is not JSON"))),
                        }
                    }
                };
                inner.rows.put(id, row);
            }
            inner.unlogged = inner.rows.end();
        }
        Ok(index)
    }

    /// Opens a continuous query: every batch accepted from now on is also
    /// delivered to the returned [`crate::Subscription`], whose bounded
    /// queue holds up to `capacity` batches (overflow drops batches for
    /// that subscriber — ingest never blocks).
    pub fn subscribe(&self, capacity: usize) -> crate::Subscription {
        let queue = std::sync::Arc::new(crate::subscribe::SubQueue::new(capacity));
        self.subscribers.write().push(std::sync::Arc::clone(&queue));
        crate::Subscription::new(queue)
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
        self.inner.read().rows.live
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
    /// ([`SyscallEvent::from_document`]) is stored as the event, any other
    /// as the text `serde_json` writes for it; every read answers as if the
    /// JSON value had been kept.
    pub fn bulk(&self, docs: Vec<Value>) -> Vec<u64> {
        // Copy for subscribers before the documents move into the store;
        // the copy is skipped entirely when nobody subscribed.
        let snapshot = self.has_subscribers().then(|| docs.clone());
        self.accept(docs.into_iter().map(|doc| Doc::from(doc).into_text()).collect(), snapshot)
    }

    /// [`Index::bulk`] for documents already written as JSON text: each is
    /// kept as the text it is (and logged as those bytes), unless it is
    /// exactly a syscall event's document. Nothing is accepted when one of
    /// them is not one JSON document.
    pub fn bulk_text(&self, docs: Vec<String>) -> Result<Vec<u64>, serde_json::Error> {
        let snapshot = match self.has_subscribers() {
            true => {
                Some(docs.iter().map(|text| serde_json::from_str(text)).collect::<Result<_, _>>()?)
            }
            false => None,
        };
        let docs = docs.into_iter().map(Doc::from_text).collect::<Result<_, _>>()?;
        Ok(self.accept(docs, snapshot))
    }

    /// [`Index::bulk`] for the tracer's own events, which it drains (the
    /// vector is left empty, with capacity): each is interned into its row,
    /// and no JSON value is built unless someone subscribed. Returns the ids
    /// they got. Queryable at once. A persisted index logs them with
    /// `write_through`, after any unlogged tail; else they join its unlogged
    /// tail until [`Index::log_tail`].
    pub(crate) fn accept_events(
        &self,
        events: &mut Vec<SyscallEvent>,
        write_through: bool,
    ) -> Range<u64> {
        let snapshot = self
            .has_subscribers()
            .then(|| events.iter().map(SyscallEvent::to_document).collect::<Vec<_>>());
        let ids = {
            let inner = &mut *self.inner.write();
            let first = inner.rows.end();
            let ids = first..first + events.len() as u64;
            for (id, event) in ids.clone().zip(events.drain(..)) {
                let row = Row::Event(inner.dicts.intern(&event));
                inner.rows.put(id, row);
            }
            if write_through {
                self.log_tail_in(inner).expect("dio-backend: persistent append failed");
            }
            ids
        };
        if let Some(batch) = snapshot {
            self.notify_subscribers(&batch);
        }
        ids
    }

    /// Appends the unlogged tail as runs (one per block of ids), with a
    /// dictionary record ahead of them if the index's dictionaries grew, and
    /// returns how many events it held; once it returns they are in the
    /// page cache. 0 on an in-memory index, which holds none.
    pub(crate) fn log_tail(&self) -> std::io::Result<usize> {
        self.log_tail_in(&mut self.inner.write())
    }

    fn log_tail_in(&self, inner: &mut IndexInner) -> std::io::Result<usize> {
        match &self.persist {
            Some(engine) => inner.log_tail(engine, &self.name),
            None => Ok(0),
        }
    }

    /// Events accepted and not yet logged.
    pub(crate) fn tail_len(&self) -> usize {
        let inner = self.inner.read();
        match &self.persist {
            Some(_) => (inner.rows.end() - inner.unlogged) as usize,
            None => 0,
        }
    }

    /// Forgets the unlogged tail: the index is being deleted.
    pub(crate) fn discard_tail(&self) {
        let inner = &mut *self.inner.write();
        inner.unlogged = inner.rows.end();
    }

    /// Takes `docs` in, then writes them through to disk after any unlogged
    /// tail, as they came: all under the write lock that hands out their ids.
    fn accept(&self, docs: Vec<Doc<Box<str>>>, snapshot: Option<Vec<Value>>) -> Vec<u64> {
        let ids = {
            let inner = &mut *self.inner.write();
            let first_id = inner.rows.end();
            let ids: Vec<u64> = (first_id..first_id + docs.len() as u64).collect();
            for (&id, doc) in ids.iter().zip(docs) {
                inner.rows.put(id, inner.dicts.row(doc));
            }
            self.log_tail_in(inner).expect("dio-backend: persistent append failed");
            ids
        };
        if let Some(batch) = snapshot {
            self.notify_subscribers(&batch);
        }
        ids
    }

    /// Merges pending documents into the inverted indexes and drops the
    /// posting lists deletes emptied. Called implicitly by every query entry
    /// point.
    pub fn refresh(&self) {
        {
            let inner = self.inner.read();
            if inner.refreshed == inner.rows.end() && inner.inverted.is_settled() {
                return;
            }
        }
        self.inner.write().refresh();
    }

    /// Whether document `id` is kept as a typed event rather than as JSON.
    #[cfg(test)]
    pub(crate) fn keeps_typed(&self, id: u64) -> Option<bool> {
        self.inner.read().rows.get(id).map(|row| matches!(row, Row::Event(_)))
    }

    /// Fetches a document by id.
    pub fn get(&self, id: u64) -> Option<Value> {
        let inner = self.inner.read();
        inner.rows.get(id).map(|row| inner.dicts.doc(row).into_value())
    }

    /// Deletes a document by id, returning whether it existed. A numeric
    /// term's list is found by binary search; one the delete empties is
    /// dropped at the next refresh.
    pub fn delete(&self, id: u64) -> bool {
        self.delete_in(&mut self.inner.write(), id)
    }

    fn delete_in(&self, inner: &mut IndexInner, id: u64) -> bool {
        let Some(row) = inner.rows.take(id) else {
            return false;
        };
        if let Some(engine) = &self.persist {
            self.log_tail_in(inner).expect("dio-backend: persistent append failed");
            engine.append_delete(&self.name, id).expect("dio-backend: persistent delete failed");
        }
        // A row past `refreshed` has no terms in the indexes yet.
        if id < inner.refreshed {
            inner.inverted.unindex_doc(id, inner.dicts.doc(&row).as_ref());
        }
        true
    }

    /// Counts documents matching `query`.
    pub fn count(&self, query: &Query) -> u64 {
        self.refresh();
        self.inner.read().matching(query).count() as u64
    }

    /// Lends `f` the index's syscall events in `(time, id)` order — a stored
    /// session as it was traced. Rows kept as JSON (health, alert and phase
    /// documents; an event an update gave a foreign field) are not events and
    /// are left out; no document is built. The events are built under the
    /// read lock and lent after it is released.
    pub fn with_events_by_time<R>(&self, f: impl FnOnce(&[&SyscallEvent]) -> R) -> R {
        let events: Vec<SyscallEvent> = {
            let inner = self.inner.read();
            let rows = inner.rows.iter().filter_map(|(_, row)| match row {
                Row::Event(row) => Some(inner.dicts.event(row)),
                Row::Json(_) => None,
            });
            rows.collect()
        };
        // Rows come in id order and the sort is stable, so equal times keep it.
        let mut by_time: Vec<&SyscallEvent> = events.iter().collect();
        by_time.sort_by_key(|event| event.time_enter_ns);
        f(&by_time)
    }

    /// Executes a search.
    pub fn search(&self, request: &SearchRequest) -> SearchResponse {
        let _timer = self.query_ns.get().map(|h| h.start_timer());
        self.refresh();
        let inner = self.inner.read();
        let mut matches: Vec<(u64, Doc<Value>)> = inner.matching(&request.query).collect();
        if !request.sort.is_empty() {
            matches.sort_by(|(_, a), (_, b)| {
                for (field, order) in &request.sort {
                    let ord = compare_docs(a.as_ref(), b.as_ref(), field, *order);
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
            let docs: Vec<DocRef<'_>> = matches.iter().map(|(_, doc)| doc.as_ref()).collect();
            request.aggs.iter().map(|(name, agg)| (name.clone(), agg.compute_over(&docs))).collect()
        };
        let hits = matches
            .into_iter()
            .skip(request.from)
            .take(request.size)
            .map(|(id, doc)| Hit { id, source: doc.into_value() })
            .collect();
        SearchResponse { total, hits, aggs }
    }

    /// Applies `update` to every document matching `query`, keeping the
    /// inverted indexes consistent. Returns the number of updated documents.
    ///
    /// Elasticsearch's `_update_by_query`: the closure is handed each
    /// document, and what it leaves decides the row's kind afresh. Path
    /// correlation does not go through it ([`crate::correlate_paths`] writes
    /// the rows' path slot directly).
    ///
    /// Over m documents a numeric term costs O(log n) to remove, and the new
    /// ones are merged in at the end, one pass per field: never O(m × n) for
    /// n distinct values.
    pub fn update_by_query(&self, query: &Query, mut update: impl FnMut(&mut Value)) -> usize {
        let mut guard = self.inner.write();
        let inner = &mut *guard;
        inner.refresh();
        let ids = inner.matching_ids(query);
        for &id in &ids {
            let row =
                inner.rows.slot_mut(id).and_then(Option::as_mut).expect("id from matching_ids");
            // The closure sees the document; what it leaves decides the
            // row's kind afresh.
            let was = inner.dicts.doc(row);
            inner.inverted.unindex_doc(id, was.as_ref());
            let mut doc = was.into_value();
            update(&mut doc);
            let updated = Doc::from(doc);
            inner.inverted.index_doc(id, updated.as_ref());
            *row = inner.dicts.row(updated.into_text());
        }
        inner.inverted.settle();
        self.write_updates(inner, ids.iter().copied());
        ids.len()
    }

    /// Writes the rows of `ids`, ascending, through to a persisted index once
    /// they were updated: the unlogged tail is logged as its rows now are,
    /// then the others again. Nothing when none was.
    fn write_updates(&self, inner: &mut IndexInner, ids: impl ExactSizeIterator<Item = u64>) {
        if let Some(engine) = self.persist.as_ref().filter(|_| ids.len() > 0) {
            let tail = inner.unlogged;
            inner
                .log_tail(engine, &self.name)
                .and_then(|_| inner.append(engine, &self.name, ids.filter(|&id| id < tail)))
                .expect("dio-backend: persistent update failed");
        }
    }

    /// [`crate::correlate_paths`]: one pass over the rows under the write
    /// lock, after a refresh, that builds no event.
    pub(crate) fn correlate_paths(&self) -> CorrelationReport {
        let inner = &mut *self.inner.write();
        inner.refresh();
        // Each tag's path: the one the open with the highest id names.
        let (mut paths, mut pathless) = (HashMap::new(), 0);
        for (_, row) in inner.rows.iter() {
            if let Some((tag, path)) = row.opened() {
                paths.insert(tag, path);
            }
            pathless += usize::from(matches!(row, Row::Event(row) if row.pathless_tag().is_some()));
        }
        // `(path, id)` of each event given a path, ascending by id.
        let (mut updated, mut events_unresolved) = (Vec::with_capacity(pathless), 0);
        for id in 0..inner.rows.end() {
            let Some(Some(Row::Event(row))) = inner.rows.slot_mut(id) else { continue };
            match row.pathless_tag().map(|tag| paths.get(&tag)) {
                Some(Some(&path)) => {
                    row.set_path(path);
                    updated.push((path, id));
                }
                Some(None) => events_unresolved += 1,
                None => {}
            }
        }
        self.write_updates(inner, updated.iter().map(|&(_, id)| id));
        // A path's new holders join its `file_path` list in one merge.
        updated.sort_unstable();
        for same in updated.chunk_by(|a, b| a.0 == b.0) {
            let (path, ids) = (inner.dicts.text(same[0].0), same.iter().map(|&(_, id)| id));
            with_slot(&mut inner.inverted.keywords, "file_path", |terms| {
                with_slot(terms, path, |list| list.merge(ids));
            });
        }
        let (tags_resolved, events_updated) = (paths.len(), updated.len());
        CorrelationReport { tags_resolved, events_updated, events_unresolved }
    }

    /// Deletes every document matching `query`, returning how many: each as
    /// [`Index::delete`] does, under one lock, so m of them cost O(m log n)
    /// against n distinct values of a field, and the next refresh one pass.
    pub fn delete_by_query(&self, query: &Query) -> usize {
        let mut inner = self.inner.write();
        inner.refresh();
        let ids = inner.matching_ids(query);
        for &id in &ids {
            self.delete_in(&mut inner, id);
        }
        ids.len()
    }
}

impl Drop for Index {
    /// Closing the index (store shutdown, `delete_index`, reopen cycle)
    /// closes every subscription deterministically: queued batches stay
    /// drainable, but receives return `None` immediately instead of
    /// waiting out their timeout, and [`crate::Subscription::is_closed`]
    /// flips to true. See the `subscribe` module docs. A persisted index
    /// logs its unlogged tail first.
    fn drop(&mut self) {
        if let Some(engine) = &self.persist {
            if let Err(e) = self.inner.get_mut().log_tail(engine, &self.name) {
                eprintln!("dio-backend: index {} dropped with its tail unlogged: {e}", self.name);
            }
        }
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
    fn events_are_lent_in_time_then_id_order_without_the_json_rows() {
        let idx = Index::new("t");
        let event = |time: u64, ret: i64| {
            let mut event = SyscallEvent::synthetic(dio_syscall::SyscallKind::Read);
            (event.time_enter_ns, event.ret) = (time, ret);
            event.to_document()
        };
        idx.bulk(vec![
            event(300, 1),
            json!({"kind": "health", "time": 50}),
            event(100, 2),
            event(300, 3),
            event(200, 4),
        ]);
        let order = idx.with_events_by_time(|events| {
            events.iter().map(|e| (e.time_enter_ns, e.ret)).collect::<Vec<_>>()
        });
        assert_eq!(order, [(100, 2), (200, 4), (300, 1), (300, 3)]);
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
        idx.refresh();
        {
            let inner = idx.inner.read();
            let terms: Vec<&String> = inner.inverted.keywords["s"].keys().collect();
            assert_eq!(terms, ["b"], "`a` lost its only document");
            assert_eq!(inner.inverted.numerics["n"].keys.len(), 1, "7 is still held by one");
        }
        assert!(idx.delete(second));
        {
            let inner = idx.inner.read();
            assert!(inner.inverted.keywords["s"].is_empty());
            let n = &inner.inverted.numerics["n"];
            assert_eq!(n.keys.len(), 1, "an emptied list waits for the refresh");
            assert!(n.lists[0].is_empty());
        }
        idx.refresh();
        let inner = idx.inner.read();
        assert!(inner.inverted.numerics["n"].keys.is_empty());
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
    fn many_deletions_leave_the_rest_findable() {
        let idx = Index::new("t");
        let ids = idx.bulk((0..5000).map(|i| json!({ "i": i })).collect());
        for id in &ids[..4000] {
            idx.delete(*id);
        }
        assert_eq!(idx.len(), 1000);
        let res = idx.search(&SearchRequest::match_all().size(usize::MAX));
        assert_eq!(res.total, 1000);
    }

    /// Documents spread over three chunks of the table, refreshed, and their
    /// ids.
    fn spread_index() -> (Index, Vec<u64>) {
        let idx = Index::new("t");
        let docs =
            (0..2 * CHUNK_SLOTS + 5).map(|i| json!({"even": i % 2 == 0, "third": i % 3, "i": i}));
        let ids = idx.bulk(docs.collect());
        idx.refresh();
        (idx, ids)
    }

    #[test]
    fn candidates_of_a_term_are_its_posting_list() {
        let (idx, ids) = spread_index();
        let inner = idx.inner.read();
        let cands = inner.inverted.candidates(&Query::term("even", true)).expect("narrowed");
        let held: Vec<u64> = inner.inverted.keywords["even"]["true"].iter().collect();
        assert_eq!(cands, held);
        assert_eq!(cands, ids.iter().copied().step_by(2).collect::<Vec<_>>());
        assert_eq!(cands.capacity(), cands.len(), "copied out at exact capacity");
        assert_eq!(inner.inverted.candidates(&Query::term("even", "maybe")), Some(vec![]));
        assert_eq!(inner.inverted.candidates(&Query::term("even", json!(null))), None);
    }

    #[test]
    fn candidates_of_a_must_are_the_intersection() {
        let (idx, ids) = spread_index();
        let inner = idx.inner.read();
        let q = Query::bool_query()
            .must(Query::term("even", true))
            .must(Query::exists("i"))
            .must(Query::term("third", 0))
            .build();
        let cands = inner.inverted.candidates(&q).expect("narrowed by two of the three");
        assert_eq!(cands, ids.iter().copied().step_by(6).collect::<Vec<_>>());
    }

    #[test]
    fn candidates_of_a_range_are_the_union_of_its_values_lists() {
        let (idx, ids) = spread_index();
        // One document holds two of the range's values: it is one candidate.
        let both = idx.index_doc(json!({"third": [1, 2]}));
        idx.refresh();
        let inner = idx.inner.read();
        let cands =
            inner.inverted.candidates(&Query::range("third").gte(1.0).build()).expect("narrowed");
        let mut expected: Vec<u64> = ids.iter().copied().filter(|id| id % 3 != 0).collect();
        expected.push(both);
        assert_eq!(cands, expected, "ascending, each id once");
        let either = Query::terms("third", vec![json!(2), json!(1), json!(2)]);
        assert_eq!(inner.inverted.candidates(&either), Some(expected.clone()));
        let should = Query::bool_query()
            .should(Query::term("third", 2))
            .should(Query::term("third", 1))
            .build();
        assert_eq!(inner.inverted.candidates(&should), Some(expected));
    }

    #[test]
    fn ids_and_rows_survive_gaps_and_chunk_boundaries() {
        let (idx, ids) = spread_index();
        assert_eq!(ids, (0..ids.len() as u64).collect::<Vec<_>>());
        let last_of_first_chunk = CHUNK_SLOTS as u64 - 1;
        assert!(idx.delete(last_of_first_chunk));
        assert!(idx.delete(*ids.last().unwrap()));
        assert_eq!(idx.get(last_of_first_chunk), None);
        assert_eq!(idx.get(CHUNK_SLOTS as u64).unwrap()["i"], CHUNK_SLOTS);
        assert_eq!(idx.get(u64::MAX), None);
        assert_eq!(idx.len(), ids.len() - 2);
        // An id is handed out once, whatever was deleted since.
        assert_eq!(idx.index_doc(json!({"i": "new"})), ids.len() as u64);
        let hits = idx.search(&SearchRequest::match_all().size(usize::MAX)).hits;
        let expected: Vec<u64> = (0..=ids.len() as u64)
            .filter(|id| ![last_of_first_chunk, ids.len() as u64 - 1].contains(id))
            .collect();
        assert_eq!(hits.iter().map(|hit| hit.id).collect::<Vec<_>>(), expected);
    }

    /// `-0.0` is `0.0` to a term and to a range, as it is to the re-check of
    /// a match: the candidates hold the document.
    #[test]
    fn negative_zero_is_found_by_term_and_range_on_zero() {
        let idx = Index::new("t");
        idx.bulk(vec![json!({"n": -0.0}), json!({"n": 1})]);
        assert_eq!(idx.count(&Query::term("n", 0)), 1);
        assert_eq!(idx.count(&Query::term("n", -0.0)), 1);
        assert_eq!(idx.count(&Query::range("n").gte(0.0).build()), 2);
        assert_eq!(idx.count(&Query::range("n").lte(-0.0).build()), 1);
        assert_eq!(idx.count(&Query::range("n").gt(-0.0).build()), 1);
        assert_eq!(idx.count(&Query::range("n").lt(0.0).build()), 0);
    }

    /// One refresh of 10 000 distinct values, out of order, reserves each
    /// array once and exactly, and keeps no staging buffer.
    #[test]
    fn one_refresh_sizes_the_term_arrays_exactly() {
        let idx = Index::new("t");
        idx.bulk((0..10_000u64).map(|i| json!({ "n": i * 7_919 % 10_000 })).collect());
        idx.refresh();
        let inner = idx.inner.read();
        let n = &inner.inverted.numerics["n"];
        assert_eq!(n.keys.len(), 10_000);
        assert_eq!((n.keys.capacity(), n.lists.capacity()), (10_000, 10_000));
        assert_eq!(n.staged.capacity(), 0);
    }

    /// The values the model draws, strictly ascending: large negatives,
    /// zero, fractions, and epoch nanoseconds one double apart.
    const VALUES: [f64; 11] =
        [f64::MIN, -3.4e18, -2.5, -1.0, 0.0, 0.5, 26.0, 1_000.0, 1.7e18, 1.7e18 + 256.0, f64::MAX];
    const ZERO: usize = 4;
    const EPOCH: usize = 8;

    /// Value `i` as a document or a query holds it, and its place in
    /// [`VALUES`]: past them, `-0.0` and an integer that rounds to 1.7e18.
    fn drawn(i: usize) -> (Value, usize) {
        match i % (VALUES.len() + 2) {
            i if i < VALUES.len() => (json!(VALUES[i]), i),
            i if i == VALUES.len() => (json!(-0.0), ZERO),
            _ => (json!(1_700_000_000_000_000_100u64), EPOCH),
        }
    }

    /// Range bounds on, between, below and above the values.
    fn bounds() -> Vec<f64> {
        let mut bounds = VALUES.to_vec();
        bounds.extend(VALUES.windows(2).map(|pair| pair[0] / 2.0 + pair[1] / 2.0));
        bounds.extend([-0.0, f64::NEG_INFINITY, f64::INFINITY]);
        bounds
    }

    fn range_of(lower: Option<(f64, bool)>, upper: Option<(f64, bool)>) -> Query {
        let mut range = Query::range("n");
        range = match lower {
            Some((n, true)) => range.gte(n),
            Some((n, false)) => range.gt(n),
            None => range,
        };
        match upper {
            Some((n, true)) => range.lte(n),
            Some((n, false)) => range.lt(n),
            None => range,
        }
        .build()
    }

    /// Whether a value of the model matches `query`, by the comparisons a
    /// match is re-checked with.
    fn model_matches(query: &Query, value: f64) -> bool {
        match query {
            Query::Term { value: held, .. } => as_number(held) == Some(value),
            Query::Range { gte, gt, lte, lt, .. } => {
                gte.is_none_or(|b| value >= b)
                    && gt.is_none_or(|b| value > b)
                    && lte.is_none_or(|b| value <= b)
                    && lt.is_none_or(|b| value < b)
            }
            _ => unreachable!("the model holds terms and ranges"),
        }
    }

    /// The documents of the model, by id: the places in [`VALUES`] of their
    /// `n` (none for a document without it).
    type Docs = BTreeMap<u64, Vec<usize>>;

    /// The ids of the documents holding a value `query` matches: its
    /// candidates.
    fn model_ids(docs: &Docs, query: &Query) -> Vec<u64> {
        let held =
            docs.iter().filter(|(_, ns)| ns.iter().any(|&n| model_matches(query, VALUES[n])));
        held.map(|(&id, _)| id).collect()
    }

    /// The ids of the documents `query` matches: an array is no number to a
    /// match, so only those holding one value.
    fn model_matches_ids(docs: &Docs, query: &Query) -> Vec<u64> {
        let held =
            docs.iter().filter(|(_, ns)| matches!(ns[..], [n] if model_matches(query, VALUES[n])));
        held.map(|(&id, _)| id).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Random histories of bulks, refreshes at random points (so merges
        /// meet an empty array, a tail append and a mid-array insert),
        /// deletes, deletes and updates by query: after every step the
        /// candidates of every term and of ranges bounded on, between, below
        /// and above the values are the model's ids, ascending, each once;
        /// the keys stay strictly ascending, and a refresh leaves no list
        /// empty and exactly the model's lists.
        #[test]
        fn numeric_terms_match_a_btreemap_model(
            ops in proptest::collection::vec((0u8..8, 0usize..64, 0usize..64, 0usize..64), 1..48),
        ) {
            use std::collections::BTreeSet;
            let idx = Index::new("t");
            let (mut indexed, mut pending, mut next) = (Docs::new(), Docs::new(), 0u64);
            let bounds = bounds();
            let bound = |i: usize, inclusive: bool| (bounds[i % bounds.len()], inclusive);
            for (op, a, b, c) in ops {
                let query = match c % 3 {
                    0 => Query::term("n", drawn(a).0),
                    1 => range_of(Some(bound(a, c % 2 == 0)), Some(bound(b, c % 4 < 2))),
                    _ => range_of(None, Some(bound(b, c % 2 == 0))),
                };
                let mut refreshed = false;
                match op {
                    0..=2 => {
                        let ((x, rank_x), (y, rank_y)) = (drawn(a), drawn(b));
                        let docs = match c % 4 {
                            0 => vec![(json!({ "n": x }), vec![rank_x])],
                            1 => vec![(json!({ "n": [x, y] }), vec![rank_x, rank_y])],
                            2 => vec![(json!({ "m": 1 }), vec![])],
                            _ => vec![(json!({ "n": x }), vec![rank_x]), (json!({ "n": y }), vec![rank_y])],
                        };
                        let ids = idx.bulk(docs.iter().map(|(doc, _)| doc.clone()).collect());
                        for (id, (_, ranks)) in ids.into_iter().zip(docs) {
                            proptest::prop_assert_eq!(id, next);
                            pending.insert(id, ranks);
                            next += 1;
                        }
                    }
                    3 => {
                        idx.refresh();
                        indexed.append(&mut pending);
                        refreshed = true;
                    }
                    4 => {
                        let id = c as u64 % (next + 1);
                        let held = indexed.remove(&id).or_else(|| pending.remove(&id)).is_some();
                        proptest::prop_assert_eq!(idx.delete(id), held);
                    }
                    5 => {
                        indexed.append(&mut pending);
                        let gone = model_matches_ids(&indexed, &query);
                        for id in &gone {
                            indexed.remove(id);
                        }
                        proptest::prop_assert_eq!(idx.delete_by_query(&query), gone.len());
                    }
                    _ => {
                        indexed.append(&mut pending);
                        let (now, rank) = drawn(b);
                        let moved = model_matches_ids(&indexed, &query);
                        for id in &moved {
                            indexed.insert(*id, vec![rank]);
                        }
                        let updated = idx.update_by_query(&query, |doc| doc["n"] = now.clone());
                        proptest::prop_assert_eq!(updated, moved.len());
                        refreshed = true;
                    }
                }

                let inner = idx.inner.read();
                let mut queries: Vec<Query> = (0..VALUES.len() + 2).map(|i| Query::term("n", drawn(i).0)).collect();
                for i in 0..bounds.len() {
                    queries.push(range_of(Some(bound(i, true)), None));
                    queries.push(range_of(Some(bound(i, false)), None));
                    queries.push(range_of(None, Some(bound(i, true))));
                    queries.push(range_of(None, Some(bound(i, false))));
                }
                queries.push(query);
                for query in &queries {
                    let candidates = inner.inverted.candidates(query);
                    proptest::prop_assert_eq!(candidates, Some(model_ids(&indexed, query)), "{:?}", query);
                }
                let Some(n) = inner.inverted.numerics.get("n") else { continue };
                proptest::prop_assert!(n.keys.windows(2).all(|pair| pair[0] < pair[1]), "{:?}", n.keys);
                proptest::prop_assert!(n.staged.is_empty());
                if refreshed {
                    let mut model: BTreeMap<usize, BTreeSet<u64>> = BTreeMap::new();
                    for (&id, ranks) in &indexed {
                        for &rank in ranks {
                            model.entry(rank).or_default().insert(id);
                        }
                    }
                    let lists: Vec<Vec<u64>> = n.lists.iter().map(|ids| ids.iter().collect()).collect();
                    let held: Vec<Vec<u64>> = model.values().map(|ids| ids.iter().copied().collect()).collect();
                    proptest::prop_assert_eq!(lists, held);
                    let keys: Vec<u64> = model.keys().map(|&rank| key(VALUES[rank])).collect();
                    proptest::prop_assert_eq!(&n.keys, &keys);
                }
            }
        }
    }
}
