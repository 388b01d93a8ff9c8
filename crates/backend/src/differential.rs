//! Differential test of the two row kinds: an index that keeps events typed
//! must answer every search as a plain scan over their JSON documents does.
//!
//! The model holds `to_document()` values, filters them with
//! [`Query::matches`], sorts with [`compare_docs`] and aggregates with
//! [`Aggregation::compute`] — the `&Value` paths, untouched by how the index
//! stores a row. Path correlation's model is the algorithm as it was written
//! against that search API ([`model_correlate`]).

use std::collections::HashMap;

use proptest::prelude::*;
use serde_json::{json, Value};

use dio_syscall::{ArgRef, FileTag, FileType, Pid, SyscallEvent, SyscallKind, Tid};

use crate::query::compare_docs;
use crate::value_path::DocRef;
use crate::{
    correlate_paths, Aggregation, CorrelationReport, DocStore, Query, SearchRequest, SortOrder,
    StorageConfig,
};

/// SplitMix64: one generated seed becomes as many draws as a case needs.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())]
    }
}

const KINDS: [SyscallKind; 6] = [
    SyscallKind::Read,
    SyscallKind::Pwrite64,
    SyscallKind::Openat,
    SyscallKind::Close,
    SyscallKind::Renameat2,
    SyscallKind::Mkdir,
];
const PATHS: [&str; 4] = ["/db/LOG", "/db/000001.sst", "/tmp/x", "/tmp/y \"q\""];
const COMMS: [&str; 3] = ["db_bench", "rocksdb:low0", "rocksdb:high0"];

/// One of three inodes in one of two generations: an inode reused under a
/// new tag (Fig. 2a).
fn tag(d: &mut Draw) -> FileTag {
    FileTag::new(1, 10 + d.below(3) as u64, d.pick(&[5, 6]))
}

/// An event drawn from few enough values per field that queries hit, ties
/// occur in every sort key, and every optional field is sometimes absent. An
/// `openat` may carry a tag, with its path or without: a tag is opened under
/// more than one path, and some fd events' tags are never opened.
fn event(d: &mut Draw) -> SyscallEvent {
    let kind = d.pick(&KINDS);
    let mut e = SyscallEvent::synthetic(kind);
    e.session = "diff".into();
    e.pid = Pid(1 + d.below(3) as u32);
    e.tid = Tid(10 + d.below(4) as u32);
    e.comm = d.pick(&COMMS).into();
    e.cpu = d.below(2) as u32;
    e.time_enter_ns = 1_000 + d.below(20) as u64 * 50;
    e.time_exit_ns = e.time_enter_ns + d.below(6) as u64 * 10;
    e.ret = d.below(30) as i64 - 3;
    for name in dio_syscall::expected_args(kind) {
        let value = match *name {
            "fd" | "dfd" | "olddfd" | "newdfd" => ArgRef::Int(d.below(5) as i64 - 1),
            name if name.ends_with("path") => ArgRef::Str(d.pick(&PATHS)),
            _ => ArgRef::UInt(d.below(4) as u64 * 26),
        };
        assert!(e.args.try_push(value), "{kind} fits the layout");
    }
    if kind.takes_fd() {
        e.file_type = (d.below(4) > 0).then_some(FileType::Regular);
        e.offset = (d.below(3) > 0).then(|| d.below(4) as u64 * 26);
        e.file_tag = (d.below(4) > 0).then(|| tag(d));
    } else {
        if d.below(3) > 0 {
            e.file_path = dio_syscall::path_arg(kind).and_then(|i| e.args.str_at(i)).cloned();
        }
        if kind == SyscallKind::Openat && d.below(3) > 0 {
            e.file_tag = Some(tag(d));
        }
    }
    e
}

const KEYWORD_FIELDS: [&str; 9] = [
    "syscall",
    "proc_name",
    "class",
    "file_tag",
    "file_path",
    "file_type",
    "args.path",
    "args.oldpath",
    "kind",
];
const NUMBER_FIELDS: [&str; 11] = [
    "pid",
    "tid",
    "time",
    "time_exit",
    "latency_ns",
    "ret_val",
    "offset",
    "args.count",
    "args.fd",
    "args.flags",
    "value",
];
/// Objects, members of scalars, a field an update adds, one nobody has.
const ODD_FIELDS: [&str; 6] = ["args", "walked", "pid.x", "args.count.x", "nope", ""];

fn any_field(d: &mut Draw) -> &'static str {
    match d.below(5) {
        0 | 1 => d.pick(&KEYWORD_FIELDS),
        2 | 3 => d.pick(&NUMBER_FIELDS),
        _ => d.pick(&ODD_FIELDS),
    }
}

fn keyword(d: &mut Draw) -> Value {
    match d.below(6) {
        0 => json!(d.pick(&KINDS).name()),
        1 => json!(d.pick(&COMMS)),
        2 => json!(d.pick(&PATHS)),
        3 => json!(tag(d).to_string()),
        4 => json!(d.pick(&["data", "metadata", "regular", "health", "true"])),
        _ => json!(true),
    }
}

/// Nanoseconds since the epoch, about now: past 2^53, where a double is 256
/// apart from the next, so integers 100 apart can round to one number.
const EPOCH_NS: u64 = 1_700_000_000_000_000_000;

fn number(d: &mut Draw) -> f64 {
    match d.below(7) {
        0 => d.below(30) as f64 - 3.0,
        1 => 1_000.0 + d.below(20) as f64 * 50.0,
        2 => d.below(4) as f64 * 26.0,
        3 => d.below(60) as f64 * 10.0 + 0.5,
        4 => -0.0,
        5 => (EPOCH_NS + d.below(4) as u64 * 100) as f64,
        _ => -(EPOCH_NS as f64) * (1 + d.below(3)) as f64,
    }
}

/// A number a telemetry document holds: one a query draws, or an epoch
/// integer that only rounding makes equal to one.
fn held_number(d: &mut Draw) -> Value {
    match d.below(3) {
        0 => json!(d.below(9)),
        1 => json!(EPOCH_NS + d.below(4) as u64 * 100),
        _ => json!(number(d)),
    }
}

fn query(d: &mut Draw, depth: usize) -> Query {
    match d.below(if depth == 0 { 7 } else { 6 }) {
        0 => Query::term(d.pick(&KEYWORD_FIELDS), keyword(d)),
        1 => Query::term(any_field(d), json!(number(d))),
        2 => {
            let field = d.pick(&KEYWORD_FIELDS);
            Query::terms(field, (0..1 + d.below(3)).map(|_| keyword(d)).collect::<Vec<_>>())
        }
        3 => {
            let (mut range, at) = (Query::range(any_field(d)), number(d));
            range = match d.below(3) {
                0 => range.gte(at),
                1 => range.gt(at),
                _ => range,
            };
            // Mostly above the lower bound; sometimes at or below it.
            let width = number(d) * d.pick(&[1.0, 1.0, 0.0, -1.0]);
            match d.below(3) {
                0 => range.lte(at + width).build(),
                1 => range.lt(at + width).build(),
                _ => range.build(),
            }
        }
        4 => {
            let prefix = d.pick(&["/db/", "/tmp", "r", "1|1", "", "rocksdb:"]);
            Query::prefix(d.pick(&KEYWORD_FIELDS), prefix)
        }
        5 => Query::exists(any_field(d)),
        _ => {
            let mut b = Query::bool_query();
            for _ in 0..d.below(3) {
                b = b.must(query(d, depth + 1));
            }
            for _ in 0..d.below(3) {
                b = b.should(query(d, depth + 1));
            }
            for _ in 0..d.below(2) {
                b = b.must_not(query(d, depth + 1));
            }
            b.build()
        }
    }
}

fn aggregations(d: &mut Draw) -> Vec<Aggregation> {
    let filter = query(d, 1);
    vec![
        Aggregation::terms(d.pick(&KEYWORD_FIELDS), 1 + d.below(8))
            .sub("latency", Aggregation::percentiles("latency_ns", [50.0, 99.0]))
            .sub("tags", Aggregation::cardinality("file_tag")),
        Aggregation::date_histogram("time", 100).sub("by", Aggregation::terms("proc_name", 4)),
        Aggregation::histogram(d.pick(&NUMBER_FIELDS), 13.0),
        Aggregation::stats(d.pick(&NUMBER_FIELDS)),
        Aggregation::value_count(any_field(d)),
        Aggregation::cardinality(any_field(d)),
        Aggregation::min(d.pick(&NUMBER_FIELDS)),
        Aggregation::max(d.pick(&NUMBER_FIELDS)),
        Aggregation::avg("args.count"),
        Aggregation::sum("ret_val"),
        Aggregation::filter(filter).sub("n", Aggregation::value_count("offset")),
        Aggregation::ranges(
            "ret_val",
            [(None, Some(0.0)), (Some(0.0), Some(10.0)), (Some(10.0), None)],
        ),
    ]
}

/// The model: every document the index was given, by id, in insertion order.
type Model = Vec<(u64, Value)>;

/// One random search against index and model; `Err` names what differed.
fn check_search(d: &mut Draw, store: &DocStore, model: &Model) -> Result<(), TestCaseError> {
    let q = query(d, 0);
    check_query(d, store, model, q)
}

/// `q` with a random sort and random aggregations against index and model.
fn check_query(
    d: &mut Draw,
    store: &DocStore,
    model: &Model,
    q: Query,
) -> Result<(), TestCaseError> {
    let sort: Vec<(String, SortOrder)> = (0..d.below(3))
        .map(|_| (any_field(d).to_string(), d.pick(&[SortOrder::Asc, SortOrder::Desc])))
        .collect();
    let aggs = aggregations(d);
    let mut request = SearchRequest::new(q.clone()).size(usize::MAX);
    request.sort = sort.clone();
    for (i, agg) in aggs.iter().enumerate() {
        request = request.agg(format!("a{i}"), agg.clone());
    }
    let got = store.index("dio-diff").search(&request);

    let mut expected: Vec<&(u64, Value)> = model.iter().filter(|(_, doc)| q.matches(doc)).collect();
    expected.sort_by(|a, b| {
        sort.iter()
            .map(|(field, order)| {
                compare_docs(DocRef::Json(&a.1), DocRef::Json(&b.1), field, *order)
            })
            .find(|ord| ord.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    prop_assert_eq!(got.total, expected.len() as u64, "total of {:?}", q);
    let got_hits: Vec<(u64, &Value)> = got.hits.iter().map(|h| (h.id, &h.source)).collect();
    let expected_hits: Vec<(u64, &Value)> = expected.iter().map(|(id, doc)| (*id, doc)).collect();
    prop_assert_eq!(got_hits, expected_hits, "hits of {:?} sorted by {:?}", q, sort);
    let docs: Vec<&Value> = expected.iter().map(|(_, doc)| doc).collect();
    for (i, agg) in aggs.iter().enumerate() {
        // By their debug form: an empty percentile is NaN on both sides.
        prop_assert_eq!(
            format!("{:?}", got.aggs[&format!("a{i}")]),
            format!("{:?}", agg.compute(&docs)),
            "{:?} over {:?}",
            agg,
            q
        );
    }
    Ok(())
}

/// `update_by_query` on index and model alike; returns the ids it touched.
fn update_both(
    store: &DocStore,
    model: &mut Model,
    q: &Query,
    update: impl Fn(&mut Value),
) -> Vec<u64> {
    let touched: Vec<u64> =
        model.iter().filter(|(_, doc)| q.matches(doc)).map(|(id, _)| *id).collect();
    let updated = store.index("dio-diff").update_by_query(q, &update);
    assert_eq!(updated, touched.len(), "documents updated by {q:?}");
    for (_, doc) in model.iter_mut().filter(|(id, _)| touched.contains(id)) {
        update(doc);
    }
    touched
}

fn typed_rows(store: &DocStore, ids: &[u64]) -> Vec<bool> {
    let index = store.index("dio-diff");
    ids.iter().map(|id| index.keeps_typed(*id).expect("a stored document")).collect()
}

/// A batch of events through one of the two doors, then a telemetry document.
fn ingest(d: &mut Draw, store: &DocStore, model: &mut Model) -> Result<(), TestCaseError> {
    let events: Vec<SyscallEvent> = (0..d.below(16)).map(|_| event(d)).collect();
    let docs: Vec<Value> = events.iter().map(SyscallEvent::to_document).collect();
    // The tracer's door, then the document door; the rows are the same.
    let ids = match d.below(2) {
        0 => store.bulk_spans("dio-diff", events, &mut []),
        _ => store.bulk("dio-diff", docs.clone()),
    };
    prop_assert!(!typed_rows(store, &ids).contains(&false));
    model.extend(ids.into_iter().zip(docs));
    let health = json!({"kind": "health", "metric": "x", "value": held_number(d), "time": 1_500});
    let ids = store.bulk("dio-diff", vec![health.clone()]);
    prop_assert_eq!(typed_rows(store, &ids), [false]);
    model.push((ids[0], health));
    Ok(())
}

/// Whether `doc` is exactly an event's document: what an index keeps as an
/// event row.
fn is_event(doc: &Value) -> bool {
    SyscallEvent::from_document(doc).is_some()
}

/// Path correlation as it was written against the search API — a search for
/// the opens, one update by query per tag, a count of what is left — run over
/// the model's documents by [`Query::matches`]. It takes in only events'
/// documents, as [`correlate_paths`] does.
fn model_correlate(model: &mut Model) -> CorrelationReport {
    let opens = Query::bool_query()
        .must(Query::terms("syscall", ["open", "openat", "creat"]))
        .must(Query::exists("file_tag"))
        .must(Query::exists("file_path"))
        .build();
    let mut tag_to_path: HashMap<String, String> = HashMap::new();
    for (_, doc) in model.iter().filter(|(_, doc)| opens.matches(doc) && is_event(doc)) {
        if let (Some(tag), Some(path)) = (doc["file_tag"].as_str(), doc["file_path"].as_str()) {
            tag_to_path.insert(tag.to_string(), path.to_string());
        }
    }
    let mut events_updated = 0;
    for (tag, path) in &tag_to_path {
        let query = Query::bool_query()
            .must(Query::term("file_tag", tag.clone()))
            .must_not(Query::exists("file_path"))
            .build();
        for (_, doc) in model.iter_mut().filter(|(_, doc)| query.matches(doc) && is_event(doc)) {
            doc["file_path"] = json!(path);
            events_updated += 1;
        }
    }
    let unresolved = Query::bool_query()
        .must(Query::exists("file_tag"))
        .must_not(Query::exists("file_path"))
        .build();
    let events_unresolved =
        model.iter().filter(|(_, doc)| unresolved.matches(doc) && is_event(doc)).count();
    CorrelationReport { tags_resolved: tag_to_path.len(), events_updated, events_unresolved }
}

/// Path correlation on index and model alike: the same report, and every
/// event's document still an event row.
fn correlate_both(store: &DocStore, model: &mut Model) -> Result<(), TestCaseError> {
    let expected = model_correlate(model);
    prop_assert_eq!(correlate_paths(&store.index("dio-diff")), expected);
    let ids: Vec<u64> = model.iter().map(|(id, _)| *id).collect();
    let events: Vec<bool> = model.iter().map(|(_, doc)| is_event(doc)).collect();
    prop_assert_eq!(typed_rows(store, &ids), events);
    Ok(())
}

/// `delete_by_query` on index and model alike.
fn delete_both(store: &DocStore, model: &mut Model, q: &Query) {
    let matching = model.iter().filter(|(_, doc)| q.matches(doc)).count();
    assert_eq!(store.index("dio-diff").delete_by_query(q), matching, "documents deleted by {q:?}");
    model.retain(|(_, doc)| !q.matches(doc));
}

/// The whole history against one store: ingest through both doors with a few
/// telemetry documents between (until there are `at_least` documents),
/// searches, path correlation, an update that keeps rows typed, one that does
/// not, a second correlation over new events while those rows are not events,
/// a delete and a delete-by-query between them, searches after each — and,
/// for a persisted store, all of the searches again after a close and
/// reopen, which finds the deleted ids missing and the correlated paths kept,
/// and after one more batch on top, correlated once more.
fn run_case(
    seed: u64,
    dir: Option<&std::path::Path>,
    at_least: usize,
) -> Result<(), TestCaseError> {
    let mut d = Draw(seed);
    let open = || match dir {
        Some(dir) => DocStore::open_with(dir, StorageConfig::tiny_for_tests()).expect("open store"),
        None => DocStore::new(),
    };
    let store = open();
    let mut model: Model = Vec::new();
    let mut batches = 1 + d.below(4);
    while batches > 0 || model.len() < at_least {
        batches = batches.saturating_sub(1);
        ingest(&mut d, &store, &mut model)?;
    }
    for _ in 0..6 {
        check_search(&mut d, &store, &model)?;
    }

    correlate_both(&store, &mut model)?;
    for _ in 0..4 {
        check_search(&mut d, &store, &model)?;
    }

    // One document leaves, by id and once: its slot is empty, its terms gone.
    let (gone, _) = model.remove(d.below(model.len()));
    let index = store.index("dio-diff");
    prop_assert!(index.delete(gone) && !index.delete(gone));
    prop_assert_eq!(index.get(gone), None);
    check_search(&mut d, &store, &model)?;

    // New values in a field every event has and in one some have: the terms
    // move (a stale posting list would lose the document from its new value).
    let some = query(&mut d, 0);
    update_both(&store, &mut model, &some, |doc| {
        doc["ret_val"] = json!(77);
        doc["args"]["count"] = json!(99);
    });
    check_query(&mut d, &store, &model, Query::term("ret_val", 77))?;
    check_query(&mut d, &store, &model, Query::term("args.count", 99))?;
    check_search(&mut d, &store, &model)?;

    // A thread's events leave, updated ones among them: ids go missing from
    // the middle of long posting lists.
    delete_both(&store, &mut model, &Query::term("tid", 10 + d.below(4)));
    prop_assert_eq!(store.index("dio-diff").len(), model.len());
    for _ in 0..2 {
        check_search(&mut d, &store, &model)?;
    }

    // A foreign field: the row becomes the value it now is.
    let some = query(&mut d, 0);
    let touched = update_both(&store, &mut model, &some, |doc| doc["walked"] = json!(true));
    prop_assert!(!typed_rows(&store, &touched).contains(&true));
    for _ in 0..4 {
        check_search(&mut d, &store, &model)?;
    }
    // A second pass: new opens and fd events; the rows that are not events
    // now are left alone.
    ingest(&mut d, &store, &mut model)?;
    correlate_both(&store, &mut model)?;
    for _ in 0..2 {
        check_search(&mut d, &store, &model)?;
    }
    // And back: without it, an event's document is an event again.
    let walked = Query::exists("walked");
    let touched = update_both(&store, &mut model, &walked, |doc| {
        doc.as_object_mut().expect("documents are objects").remove("walked");
    });
    // The document decides the row's kind, whatever it went through.
    let events: Vec<bool> =
        model.iter().filter(|(id, _)| touched.contains(id)).map(|(_, doc)| is_event(doc)).collect();
    prop_assert_eq!(typed_rows(&store, &touched), events);
    check_search(&mut d, &store, &model)?;

    if dir.is_some() {
        store.flush().expect("flush");
        drop(store);
        let store = open();
        let ids: Vec<u64> = model.iter().map(|(id, _)| *id).collect();
        let events: Vec<bool> = model.iter().map(|(_, doc)| is_event(doc)).collect();
        prop_assert_eq!(typed_rows(&store, &ids), events, "recovered events are typed rows");
        let index = store.index("dio-diff");
        prop_assert_eq!(index.len(), model.len(), "the deleted stay deleted");
        prop_assert_eq!(index.get(gone), None);
        for _ in 0..6 {
            check_search(&mut d, &store, &model)?;
        }
        // The recovered table takes new rows past its gaps, and correlation
        // resolves them against what the log kept.
        ingest(&mut d, &store, &mut model)?;
        correlate_both(&store, &mut model)?;
        delete_both(&store, &mut model, &Query::term("tid", 10 + d.below(4)));
        for _ in 0..2 {
            check_search(&mut d, &store, &model)?;
        }
    }
    Ok(())
}

fn with_store_dir(
    seed: u64,
    run: impl FnOnce(&std::path::Path) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    let dir = std::env::temp_dir().join(format!("dio-diff-{}-{seed:x}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = run(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// The same with more documents than a chunk of the row table holds (1 024),
/// live and reopened: rows, deletes and gaps on both sides of the boundary.
#[test]
fn a_session_past_a_chunk_boundary_answers_as_documents_do() {
    with_store_dir(0xC0FFEE, |dir| run_case(0xC0FFEE, Some(dir), 1_100)).expect("same answers");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn typed_rows_answer_as_documents_do(seed in any::<u64>()) {
        run_case(seed, None, 0)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn typed_rows_answer_as_documents_do_across_a_reopen(seed in any::<u64>()) {
        with_store_dir(seed, |dir| run_case(seed, Some(dir), 0))?;
    }
}
