//! The read side of a run: first query over the finished session, `dio top`,
//! the predefined dashboards, a seeded batch of searches with aggregations,
//! and path correlation — checked against the generator's tally.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use dio_backend::{Aggregation, DocStore, Index, Query, SearchRequest, SortOrder, StorageConfig};
use dio_correlate::correlate_paths;
use dio_viz::{dashboards, render_top, TopOptions};
use rand::{Rng, SeedableRng, SmallRng};

use crate::proc::{timed, Took};
use crate::spans::Recorder;
use crate::stats::{median, quantile};
use crate::stream::Tally;

/// Renders of `dio top` and of the dashboard set per query pass.
const PASSES: usize = 3;
const SEARCHES: usize = 80;
const HOT_SYSCALLS: [&str; 6] = ["read", "write", "openat", "close", "lseek", "fsync"];

/// Reopens a persisted store: segment replay plus JSON parsing of every
/// live document.
pub fn reopen(dir: &Path) -> DocStore {
    DocStore::open_with(dir, StorageConfig::default()).expect("reopen store")
}

/// The first answer after the session: the lazy inverted-index build over
/// every document no query has touched yet.
pub fn first_query(index: &Index) -> u64 {
    index.count(&Query::term("syscall", "write"))
}

/// Checks a stored session against what the generator issued.
pub fn check_against_tally(index: &Index, tally: &Tally, failures: &mut Vec<String>) {
    if index.len() as u64 != tally.events {
        failures.push(format!(
            "index holds {} docs, generator issued {}",
            index.len(),
            tally.events
        ));
    }
    let by_syscall = index
        .search(&SearchRequest::match_all().size(0).agg("s", Aggregation::terms("syscall", 64)));
    let stored: BTreeMap<&str, u64> = by_syscall.aggs["s"]
        .buckets()
        .iter()
        .filter_map(|b| Some((b.key.as_str()?, b.doc_count)))
        .collect();
    let issued: BTreeMap<&str, u64> = tally.by_syscall.iter().map(|(k, v)| (*k, *v)).collect();
    if stored != issued {
        failures.push(format!("per-syscall counts differ: stored {stored:?}, issued {issued:?}"));
    }
}

/// Search `i` of the batch: four kinds in turn, and within a kind the
/// parameter that decides how many documents match steps through its values
/// in turn, so every seed's batch costs the same; the seed only decides
/// where each kind starts and where inside its slot a window begins.
fn seeded_search(rng: &mut SmallRng, i: usize, t0: f64, t1: f64) -> SearchRequest {
    let (kind, nth) = (i % 4, i / 4);
    let slots = SEARCHES / 4;
    let slot = (nth as f64 + rng.gen_range(0.0..1.0)) / slots as f64;
    let query = match kind {
        0 => Query::term("syscall", HOT_SYSCALLS[nth % HOT_SYSCALLS.len()]),
        1 => Query::term("proc_name", format!("app{}-w{}", nth % 4, nth / 4 % 2)),
        2 => {
            let from = t0 + (t1 - t0) * 0.9 * slot;
            Query::range("time").gte(from).lt(from + 200e6).build()
        }
        // Reads and writes return a byte count of 128..=4096.
        _ => Query::bool_query()
            .must(Query::term("syscall", HOT_SYSCALLS[nth % 2]))
            .must(Query::range("ret_val").gte((2048.0 * slot).floor()).build())
            .build(),
    };
    SearchRequest::new(query)
        .size(10)
        .agg("by_syscall", Aggregation::terms("syscall", 10))
        .agg("latency", Aggregation::percentiles("latency_ns", [50.0, 99.0]))
}

fn time_bound(index: &Index, order: SortOrder) -> f64 {
    let hit = index.search(&SearchRequest::match_all().sort_by("time", order).size(1));
    hit.hits.first().and_then(|h| h.source["time"].as_f64()).unwrap_or(0.0)
}

fn cpu_ms(took: &[Took]) -> Vec<f64> {
    took.iter().map(|t| t.cpu_ms).collect()
}

/// Runs the query pass; `index` has already answered its first query. Every
/// step is timed in CPU time of the whole process, and in wall-clock time
/// where the step may wait (see `proc::process_cpu_ns`).
pub fn pass(
    index: &Arc<Index>,
    tally: &Tally,
    seed: u64,
    rec: &mut Recorder,
    failures: &mut Vec<String>,
) -> BTreeMap<&'static str, f64> {
    let mut metrics = BTreeMap::new();
    check_against_tally(index, tally, failures);

    let top: Vec<Took> = (0..PASSES)
        .map(|_| {
            let (screen, took) =
                rec.scope("top", || timed(|| render_top(index, &[], &TopOptions::default())));
            if !screen.contains("app0-w0") {
                failures.push("dio top shows no generator thread".into());
            }
            took
        })
        .collect();
    metrics.insert("viz.top_ms", median(&cpu_ms(&top)));

    let dashboard: Vec<Took> = (0..PASSES)
        .map(|_| {
            let (rendered, took) = rec.scope("dashboards", || {
                timed(|| {
                    [
                        dashboards::session_overview().render(index),
                        dashboards::syscalls_over_time(Query::MatchAll, 100_000_000).render(index),
                        dashboards::syscall_table(Query::MatchAll).render(index),
                    ]
                })
            });
            if !rendered.iter().all(|r| r.contains("app0-w0") || r.contains("write")) {
                failures.push("a dashboard rendered without session data".into());
            }
            took
        })
        .collect();
    metrics.insert("viz.dashboard_ms", median(&cpu_ms(&dashboard)));

    let (t0, t1) = (time_bound(index, SortOrder::Asc), time_bound(index, SortOrder::Desc));
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EA2C4);
    rec.begin("searches");
    let search_us: Vec<f64> = (0..SEARCHES)
        .map(|i| {
            let request = seeded_search(&mut rng, i, t0, t1);
            let (response, took) = timed(|| index.search(&request));
            // A term search has an exact answer in the generator's tally; a
            // time window may be empty if the generator was stalled.
            let expected = match &request.query {
                Query::Term { field, value } if field == "syscall" => {
                    value.as_str().and_then(|name| tally.by_syscall.get(name)).copied()
                }
                _ => None,
            };
            // The aggregation keeps the ten most frequent syscalls only.
            let counted: u64 =
                response.aggs["by_syscall"].buckets().iter().map(|b| b.doc_count).sum();
            if expected.is_some_and(|n| n != response.total) || counted > response.total {
                failures.push(format!(
                    "search {i} {:?}: total {}, buckets hold {counted}, generator issued {expected:?}",
                    request.query, response.total
                ));
            }
            took.cpu_ms * 1e3
        })
        .collect();
    rec.end();
    metrics.insert("backend.search_p50_us", median(&search_us));
    let kind_p50 =
        |kind: usize| median(&search_us.iter().skip(kind).step_by(4).copied().collect::<Vec<_>>());
    println!(
        "# searches: {} samples, p90 {:.1} us; p50 by kind: term(syscall) {:.1}, \
         term(proc_name) {:.1}, range(time) {:.1}, bool {:.1} us",
        search_us.len(),
        quantile(&search_us, 0.9),
        kind_p50(0),
        kind_p50(1),
        kind_p50(2),
        kind_p50(3),
    );

    // Update-by-query: a write through the read-side layer. It can run
    // once per session — afterwards every event has its path.
    let (report, took) = rec.scope("correlate", || timed(|| correlate_paths(index)));
    metrics.insert("correlate.correlate_ms", took.cpu_ms);
    metrics.insert("correlate.wall_ms", took.wall_ms);
    if report.events_updated as u64 != tally.fd_events || report.events_unresolved != 0 {
        failures.push(format!(
            "correlation updated {} events ({} unresolved), generator issued {} on descriptors",
            report.events_updated, report.events_unresolved, tally.fd_events
        ));
    }
    metrics
}
