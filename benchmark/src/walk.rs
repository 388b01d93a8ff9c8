//! The layer walk of a `--trace 1` run: one thread feeds the identical
//! seeded event stream through each layer's public entry point, in pipeline
//! order, and reports time, allocations and bytes per event per layer.
//!
//! Every loop is timed as a whole (one clock pair per layer, not per item),
//! and allocation counts come from the calling thread's own counters.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dio_backend::{Aggregation, DocStore, Query, SearchRequest, StorageConfig};
use dio_correlate::correlate_paths;
use dio_diagnose::{DiagnoseConfig, DiagnosisEngine, DynDetector};
use dio_ebpf::{ProgramConfig, RingBuffer, RingConfig, TracerProgram};
use dio_kernel::SyscallProbe;
use dio_profile::{DfgMiner, ProfileConfig};
use dio_serve::ServeState;
use dio_tracer::{Tracer, TracerConfig};
use dio_viz::{dashboards, render_top, top_snapshot, TopOptions};
use serde_json::Value;

use crate::alloc::thread_totals;
use crate::ingest::fresh_kernel;
use crate::spans::Recorder;
use crate::stats::median;
use crate::stream::Stream;

/// Events walked through every layer.
const EVENTS: usize = 30_000;
/// Untimed events run first on each kernel so both are equally warm.
const WARM_EVENTS: usize = 3_000;
/// Events blasted unpaced at an attached tracer for `drain_events_per_s`.
const BURST_EVENTS: usize = 50_000;
const BATCH: usize = 1_000;

fn http_get(addr: std::net::SocketAddr, path: &str) -> std::io::Result<()> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(Duration::from_secs(10)))?;
    write!(conn, "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")?;
    let mut response = Vec::new();
    conn.read_to_end(&mut response)?;
    if !response.starts_with(b"HTTP/1.1 200") {
        return Err(std::io::Error::other(format!("GET {path}: not 200")));
    }
    Ok(())
}

/// One `/metrics` scrape and one `/api/top` call against a live session, in
/// wall-clock milliseconds.
fn scrape(tracer: &Tracer, backend: &DocStore) -> std::io::Result<(f64, f64)> {
    let state = ServeState {
        session: tracer.session().to_string(),
        registry: Arc::clone(tracer.registry()),
        backend: Arc::new(backend.clone()),
        index_name: tracer.index_name().to_string(),
        telemetry_index: format!("dio-telemetry-{}", tracer.session()),
        engine: tracer.diagnosis(),
        profiler: tracer.profiler(),
    };
    let mut server = dio_serve::serve("127.0.0.1:0", state)?;
    let timed_get = |path| {
        let t = Instant::now();
        http_get(server.addr(), path).map(|()| t.elapsed().as_secs_f64() * 1e3)
    };
    let scraped = timed_get("/metrics").and_then(|m| Ok((m, timed_get("/api/top")?)));
    server.shutdown();
    scraped
}

/// Wall time, allocations and bytes the calling thread spent in `f`.
fn measured<T>(f: impl FnOnce() -> T) -> (T, f64, f64, f64) {
    let (allocs, bytes) = thread_totals();
    let t = Instant::now();
    let out = f();
    let ns = t.elapsed().as_nanos() as f64;
    let (allocs_after, bytes_after) = thread_totals();
    (out, ns, (allocs_after - allocs) as f64, (bytes_after - bytes) as f64)
}

fn median_of<T>(repeats: usize, scale: f64, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * scale
        })
        .collect();
    median(&samples)
}

pub fn run(seed: u64, scratch: &Path, rec: &mut Recorder) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let n = EVENTS as f64;

    // kernel → ebpf: the same stream with no probe, then with the program
    // attached and nobody draining; the difference is the hook.
    rec.begin("walk.hook");
    let mut vanilla = Stream::new(&fresh_kernel(), seed);
    vanilla.run(WARM_EVENTS);
    let ((), vanilla_ns, vanilla_allocs, _) = measured(|| vanilla.run(EVENTS));
    drop(vanilla);
    let kernel = fresh_kernel();
    let ring = Arc::new(RingBuffer::with_slots(kernel.num_cpus(), EVENTS));
    let program =
        TracerProgram::new(ProgramConfig::default(), Arc::clone(&ring)).expect("default filter");
    let mut hooked = Stream::new(&kernel, seed);
    let probe = kernel.tracepoints().attach(Arc::clone(&program) as Arc<dyn SyscallProbe>);
    hooked.run(WARM_EVENTS);
    while !ring.drain_all(4096).is_empty() {}
    let ((), hooked_ns, hooked_allocs, _) = measured(|| hooked.run(EVENTS));
    kernel.tracepoints().detach(probe);
    m.insert("ebpf.hook_ns_per_event", (hooked_ns - vanilla_ns) / n);
    m.insert("ebpf.hook_allocs_per_event", (hooked_allocs - vanilla_allocs) / n);
    rec.end();

    rec.begin("walk.drain");
    let (raws, drain_ns, _, _) = measured(|| {
        let mut raws = Vec::with_capacity(EVENTS);
        loop {
            let chunk = ring.drain_all_stamped(4096);
            if chunk.is_empty() {
                break raws;
            }
            raws.extend(chunk);
        }
    });
    assert_eq!(raws.len(), EVENTS, "walk ring dropped events");
    m.insert("ebpf.ring.drain_ns_per_event", drain_ns / n);
    drop((hooked, program, ring, kernel));
    rec.end();

    rec.begin("walk.parse");
    let (events, into_ns, _, _) =
        measured(|| raws.into_iter().map(|raw| raw.into_event("walk")).collect::<Vec<_>>());
    m.insert("ebpf.into_event_ns", into_ns / n);
    let (docs, doc_ns, doc_allocs, doc_bytes) =
        measured(|| events.iter().map(|e| e.to_document()).collect::<Vec<Value>>());
    m.insert("syscall.to_document_ns", doc_ns / n);
    m.insert("syscall.to_document_allocs", doc_allocs / n);
    m.insert("syscall.to_document_bytes", doc_bytes / n);
    drop(events);
    rec.end();

    rec.begin("walk.channel");
    type Item = [u64; 16];
    let (tx, rx) = crossbeam::channel::bounded::<Item>(BATCH * 64);
    let ((), one_ns, _, _) = measured(|| {
        for round in 0..EVENTS / BATCH {
            for i in 0..BATCH {
                tx.send([(round * BATCH + i) as u64; 16]).expect("receiver alive");
            }
            for _ in 0..BATCH {
                std::hint::black_box(rx.recv().expect("sender alive"));
            }
        }
    });
    m.insert("shim.channel_ns_per_item_1t", one_ns / n);
    let ((), two_ns, _, _) = measured(|| {
        std::thread::scope(|scope| {
            scope.spawn(move || while rx.recv().is_ok() {});
            for i in 0..EVENTS {
                tx.send([i as u64; 16]).expect("receiver alive");
            }
            drop(tx);
        })
    });
    m.insert("shim.channel_ns_per_item_2t", two_ns / n);
    rec.end();

    rec.begin("walk.taps");
    let (clones, clone_ns, _, _) = measured(|| docs.to_vec());
    m.insert("tracer.tap_clone_ns_per_doc", clone_ns / n);
    let engine = DiagnosisEngine::new(DiagnoseConfig::default());
    let ((), diagnose_ns, _, _) = measured(|| {
        for batch in docs.chunks(BATCH) {
            std::hint::black_box(engine.observe_batch(batch));
        }
    });
    m.insert("diagnose.observe_ns_per_doc", diagnose_ns / n);
    let (mut rule_sets, compile_ns, _, _) = measured(|| {
        dio_rules::shipped::ALL
            .iter()
            .map(|(_, src)| dio_rules::compile(src).expect("shipped rules compile"))
            .collect::<Vec<_>>()
    });
    m.insert("rules.compile_ms", compile_ns / 1e6);
    let ((), rules_ns, _, _) = measured(|| {
        let mut alerts = Vec::new();
        for batch in docs.chunks(BATCH) {
            for set in &mut rule_sets {
                for doc in batch {
                    set.observe(doc, &mut alerts);
                }
                set.evaluate_ready(&mut alerts);
            }
        }
        std::hint::black_box(alerts);
    });
    m.insert("rules.observe_ns_per_doc", rules_ns / n);
    let miner = DfgMiner::new(ProfileConfig::default());
    let ((), profile_ns, _, _) = measured(|| {
        for batch in docs.chunks(BATCH) {
            miner.observe_batch(batch);
        }
    });
    m.insert("profile.observe_ns_per_doc", profile_ns / n);
    drop((engine, rule_sets, miner));
    rec.end();

    // backend: bulk into an in-memory and a persisted store, then the
    // storage engine alone with pre-serialized bodies.
    rec.begin("walk.bulk");
    let mem = DocStore::new();
    let mut batches: Vec<Vec<Value>> = clones.chunks(BATCH).map(<[Value]>::to_vec).collect();
    drop(clones);
    let ((), bulk_ns, bulk_allocs, _) = measured(|| {
        for batch in batches.drain(..) {
            mem.bulk("dio-walk", batch);
        }
    });
    m.insert("backend.bulk_ns_per_doc", bulk_ns / n);
    m.insert("backend.bulk_allocs_per_doc", bulk_allocs / n);

    let dir = scratch.join("walk-store");
    let store = DocStore::open_with(&dir, StorageConfig::default()).expect("open walk store");
    let mut batches: Vec<Vec<Value>> = docs.chunks(BATCH).map(<[Value]>::to_vec).collect();
    let ((), persist_ns, persist_allocs, _) = measured(|| {
        for batch in batches.drain(..) {
            store.bulk("dio-walk", batch);
        }
    });
    m.insert("backend.bulk_persist_ns_per_doc", persist_ns / n);
    m.insert("backend.bulk_persist_allocs_per_doc", persist_allocs / n);
    let bodies: Vec<Vec<u8>> =
        docs.iter().map(|d| serde_json::to_string(d).expect("serializes").into_bytes()).collect();
    let engine = Arc::clone(store.storage().expect("persistent store"));
    let mut puts: Vec<Vec<(u64, Vec<u8>)>> = bodies
        .chunks(BATCH)
        .enumerate()
        .map(|(b, chunk)| {
            chunk
                .iter()
                .enumerate()
                .map(|(i, body)| ((b * BATCH + i) as u64, body.clone()))
                .collect()
        })
        .collect();
    drop(bodies);
    let ((), append_ns, _, _) = measured(|| {
        for batch in puts.drain(..) {
            engine.append_puts("walk-append", batch).expect("append");
        }
    });
    m.insert("backend.storage.append_ns_per_doc", append_ns / n);
    let (flushed, flush_ns, _, _) = measured(|| store.flush());
    flushed.expect("flush walk store");
    m.insert("backend.storage.flush_ms", flush_ns / 1e6);
    let report = store.storage_report().expect("persistent store");
    m.insert("backend.storage.fsyncs_per_kdoc", report.fsyncs as f64 / (2.0 * n / 1e3));
    m.insert("backend.storage.segments_sealed", report.segments_sealed as f64);
    drop((engine, store));
    let (reopened, reopen_ns, _, _) =
        measured(|| DocStore::open_with(&dir, StorageConfig::default()).expect("reopen"));
    m.insert("backend.storage.reopen_ns_per_doc", reopen_ns / (2.0 * n));
    assert_eq!(reopened.total_docs(), 2 * EVENTS, "walk store lost documents");
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    rec.end();

    rec.begin("walk.query");
    let index = mem.index("dio-walk");
    let (_, refresh_ns, _, _) = measured(|| index.count(&Query::term("syscall", "write")));
    m.insert("backend.refresh_ns_per_doc", refresh_ns / n);
    let t0 = docs[0]["time"].as_f64().expect("event time");
    let term = SearchRequest::new(Query::term("syscall", "write")).size(10);
    m.insert("backend.search_term_us", median_of(21, 1e6, || index.search(&term)));
    let range = SearchRequest::new(Query::range("time").gte(t0).lt(t0 + 200e6).build()).size(10);
    m.insert("backend.search_range_us", median_of(21, 1e6, || index.search(&range)));
    let terms = SearchRequest::match_all().size(0).agg("a", Aggregation::terms("syscall", 42));
    m.insert("backend.agg_terms_ms", median_of(5, 1e3, || index.search(&terms)));
    let pct = SearchRequest::match_all()
        .size(0)
        .agg("a", Aggregation::percentiles("latency_ns", [50.0, 99.0]));
    m.insert("backend.agg_percentiles_ms", median_of(5, 1e3, || index.search(&pct)));
    let opts = TopOptions::default();
    m.insert("viz.top_snapshot_ms", median_of(3, 1e3, || top_snapshot(&index, &[], &opts)));
    m.insert("viz.render_top_ms", median_of(3, 1e3, || render_top(&index, &[], &opts)));
    let overview = dashboards::session_overview();
    m.insert("viz.dashboard_overview_ms", median_of(3, 1e3, || overview.render(&index)));
    let (updated, update_ns, _, _) = measured(|| {
        index.update_by_query(&Query::term("syscall", "read"), |doc| doc["walked"] = true.into())
    });
    m.insert("backend.update_by_query_ns_per_doc", update_ns / updated.max(1) as f64);
    let (_, correlate_ns, _, _) = measured(|| correlate_paths(&index));
    m.insert("correlate.paths_ns_per_doc", correlate_ns / n);
    drop((index, mem, docs));
    rec.end();

    // Saturated drain, informational: known to be bimodal on two cores
    // (see README, "bimodal drain"); then the introspection server against
    // that session while it is still live.
    rec.begin("walk.burst");
    let kernel = fresh_kernel();
    let mut stream = Stream::new(&kernel, seed);
    let backend = DocStore::new();
    let tracer = Tracer::attach(
        TracerConfig::new("burst").ring(RingConfig::with_bytes_per_cpu(32 << 20)),
        &kernel,
        backend.clone(),
    );
    let t = Instant::now();
    stream.run(BURST_EVENTS);
    let deadline = t + Duration::from_secs(60);
    while tracer.events_stored() < BURST_EVENTS as u64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    m.insert(
        "tracer.drain_events_per_s",
        tracer.events_stored() as f64 / t.elapsed().as_secs_f64(),
    );
    let (metrics_ms, top_ms) = scrape(&tracer, &backend).expect("scrape the live session");
    m.insert("serve.metrics_scrape_ms", metrics_ms);
    m.insert("serve.api_top_ms", top_ms);
    tracer.stop();
    rec.end();

    m
}
