//! End-to-end coverage of the live introspection server: OpenMetrics
//! exposition (golden snapshot + self-lint against a live scrape),
//! metric→trace exemplars resolving into the flight-recorder dump, SSE
//! alert streaming during a Fig. 2-style run, and scrape-under-ingest
//! isolation (the served pipeline must not drop a single event because
//! someone is watching it).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use dio::core::{lint_openmetrics, DiagnoseConfig, Dio, DiskProfile, Kernel, TracerConfig};
use dio_fluentbit::{run_issue_1875, FluentBitVersion};
use dio_telemetry::{openmetrics, MetricsRegistry};

fn fast_kernel() -> Kernel {
    Kernel::builder().root_disk(DiskProfile::instant()).build()
}

/// Plain blocking GET against the server; returns (status, body).
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to dio-serve");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status =
        response.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status line");
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

// --------------------------------------------- golden OpenMetrics render

/// A deterministically seeded registry must render byte-identical
/// OpenMetrics text. Regenerate after an intentional format change with:
///
/// ```text
/// DIO_UPDATE_GOLDEN=1 cargo test --test serve golden
/// ```
#[test]
fn openmetrics_render_matches_golden_snapshot() {
    let registry = MetricsRegistry::new();
    registry.counter("tracer.events.stored").add(1234);
    registry.counter("consumer.batches").add(9);
    registry.counter("serve.sse.missed_batches").add(2);
    registry.gauge("ring.occupancy").set(17);
    let h = registry.histogram("tracer.shipper.batch_ns");
    h.enable_exemplars();
    h.record_with_exemplar(1_500, 0xdead_beef);
    h.record_with_exemplar(3_000_000, 0x0abc);
    h.record(10);
    // An empty histogram still closes its family with +Inf/_sum/_count.
    registry.histogram("backend.storage.fsync_ns");

    let rendered = openmetrics::render(&registry);
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/openmetrics.txt");
    if std::env::var_os("DIO_UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &rendered).expect("write golden");
    }
    let golden = std::fs::read_to_string(golden_path).expect("golden snapshot present");
    assert_eq!(rendered, golden, "exposition drifted from tests/golden/openmetrics.txt");
    assert_eq!(lint_openmetrics(&rendered), Vec::<String>::new(), "golden must lint clean");
    // SSE backpressure accounting is part of the stable exposition: a
    // slow alert-stream client shows up here, never as silent loss.
    assert!(
        rendered.contains("serve_sse_missed_batches_total 2"),
        "SSE missed-batch counter must render: {rendered}"
    );
}

// ------------------------------------ live endpoints, lint and exemplars

/// Boots a diagnosed session with the server attached, replays the
/// Fig. 2 workload, and checks every endpoint: the scrape lints clean,
/// the JSON views carry the workload, the flight recorder downloads as
/// Chrome JSON, and a `trace_id` exemplar of each exemplar family —
/// `tracer.shipper.batch_ns` and `span.e2e_ns` — resolves to a span in that
/// same dump.
#[test]
fn live_scrape_lints_clean_and_exemplars_resolve_into_flightrec() {
    let dio = Dio::with_kernel(fast_kernel());
    let width = 250_000_000;
    let diagnose = DiagnoseConfig::default().window_ns(width);
    let mut session = dio.trace(TracerConfig::new("serve-e2e").diagnose(diagnose));
    let addr = session.serve("127.0.0.1:0").expect("bind ephemeral");
    assert_eq!(session.serve_addr(), Some(addr));

    run_issue_1875(dio.kernel(), FluentBitVersion::V1_4_0, "/app.log", 20_000_000)
        .expect("scenario replays");
    // Let the consumer/shipper drain and the shipper record batch_ns and
    // e2e (the exemplar sources) before scraping.
    for _ in 0..1_000 {
        if session.events_stored() >= 10 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(lint_openmetrics(&metrics), Vec::<String>::new(), "live scrape must lint clean");
    assert!(metrics.contains("ebpf_ring_consumed_total"), "{metrics}");
    assert!(metrics.contains("tracer_shipper_batch_ns_bucket"), "{metrics}");

    // A diagnosed session's scrape is complete: every `diagnose.*` name of
    // DESIGN.md §7's diagnosis row, and a fired / suppressed pair for each
    // of the seven shipped rules.
    const SHIPPED: [&str; 7] = [
        "data_loss",
        "stale_offset_resume",
        "validated_restart",
        "contention_skew",
        "rate_spike",
        "rate_collapse",
        "error_rate",
    ];
    let counters = [
        "events_observed",
        "events_evaluated",
        "events_sampled_out",
        "events_late",
        "batches_degraded",
        "alerts_raised",
    ];
    let mut samples: Vec<String> = counters.iter().map(|c| format!("diagnose_{c}_total")).collect();
    samples.extend(["diagnose_alerts_active", "diagnose_windows_open"].map(String::from));
    for rule in SHIPPED {
        samples.extend(["fired", "suppressed"].map(|c| format!("diagnose_rule_{rule}_{c}_total")));
    }
    for sample in samples {
        let found =
            metrics.lines().any(|l| l.strip_prefix(&sample).is_some_and(|v| v.starts_with(' ')));
        assert!(found, "{sample} missing: {metrics}");
    }

    // `/api/rules` lists the same seven, their windows as wide as configured.
    let (status, rules) = http_get(addr, "/api/rules");
    assert_eq!(status, 200);
    let rules: serde_json::Value = serde_json::from_str(&rules).expect("valid JSON");
    let rules = rules["rules"].as_array().expect("rule list");
    assert!(rules.iter().map(|r| r["rule"].as_str().unwrap()).eq(SHIPPED), "{rules:?}");
    for rule in rules {
        let windowed = rule["trigger"] == "window";
        assert_eq!(rule["window_ns"].as_u64(), windowed.then_some(width), "{rule}");
    }

    // Both exemplar families — the shipper's batch latency and the events'
    // end-to-end latency — carry a trace_id on at least one bucket...
    let exemplar_ids: Vec<String> = ["tracer_shipper_batch_ns_bucket", "span_e2e_ns_bucket"]
        .into_iter()
        .map(|family| {
            metrics
                .lines()
                .filter(|l| l.starts_with(family))
                .find_map(|l| {
                    let (_, rest) = l.split_once("trace_id=\"")?;
                    rest.split_once('"').map(|(id, _)| id.to_string())
                })
                .unwrap_or_else(|| panic!("{family} must expose a trace_id exemplar"))
        })
        .collect();

    // ...and each id resolves to a span in the /flightrec download.
    let (status, flightrec) = http_get(addr, "/flightrec");
    assert_eq!(status, 200);
    let dump: serde_json::Value = serde_json::from_str(&flightrec).expect("valid Chrome JSON");
    assert!(dump.get("traceEvents").is_some(), "Chrome Trace Event envelope");
    for exemplar_id in exemplar_ids {
        assert!(
            flightrec.contains(&format!("0x{exemplar_id}")),
            "exemplar trace_id {exemplar_id} must resolve to a span in the flight recorder"
        );
    }

    let (status, top) = http_get(addr, "/api/top?rows=5&window_ns=60000000000");
    assert_eq!(status, 200);
    let top: serde_json::Value = serde_json::from_str(&top).expect("valid JSON");
    assert!(top["total_ops"].as_u64().unwrap_or(0) > 0, "{top}");
    assert!(top["processes"].as_array().is_some_and(|p| !p.is_empty()), "{top}");

    let (status, health) = http_get(addr, "/api/health");
    assert_eq!(status, 200);
    let health: serde_json::Value = serde_json::from_str(&health).expect("valid JSON");
    assert_eq!(health["session"].as_str(), Some("serve-e2e"));

    let (status, screen) = http_get(addr, "/top");
    assert_eq!(status, 200);
    assert!(screen.contains("dio top"), "{screen}");

    let (status, dashboard) = http_get(addr, "/dashboard");
    assert_eq!(status, 200);
    assert!(dashboard.contains("pipeline-health"), "{dashboard}");

    assert_eq!(http_get(addr, "/healthz").0, 200);
    assert_eq!(http_get(addr, "/readyz").0, 200);
    assert_eq!(http_get(addr, "/api/storage").0, 404, "in-memory session");
    assert_eq!(http_get(addr, "/nope").0, 404);

    session.stop();
}

// -------------------------------------------------- SSE alert streaming

/// An SSE client connected before the workload sees the Fig. 2a
/// data-loss alert live, as an `event: alert` frame, while the trace is
/// still running.
#[test]
fn sse_client_receives_live_data_loss_alert() {
    let dio = Dio::with_kernel(fast_kernel());
    let mut session = dio.trace(TracerConfig::new("serve-sse").diagnose(DiagnoseConfig::default()));
    let addr = session.serve("127.0.0.1:0").expect("bind ephemeral");

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(stream, "GET /api/alerts/stream HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut buf = [0u8; 4096];
    let n = stream.read(&mut buf).expect("sse head");
    let mut collected = String::from_utf8_lossy(&buf[..n]).to_string();
    assert!(collected.contains("text/event-stream"), "{collected}");

    // The buggy tail plugin loses data; the engine raises the alert live
    // and the sink ships it to the telemetry index the stream watches.
    run_issue_1875(dio.kernel(), FluentBitVersion::V1_4_0, "/app.log", 20_000_000)
        .expect("scenario replays");

    while !collected.contains("event: alert") {
        let n = stream.read(&mut buf).expect("alert frame before timeout");
        assert!(n > 0, "stream closed before an alert arrived");
        collected.push_str(&String::from_utf8_lossy(&buf[..n]));
    }
    let data_line = collected
        .lines()
        .find(|l| l.starts_with("data: "))
        .expect("alert frame carries a data line");
    let alert: serde_json::Value =
        serde_json::from_str(data_line.trim_start_matches("data: ")).expect("alert is JSON");
    assert_eq!(alert["kind"].as_str(), Some("alert"));

    drop(stream);
    session.stop();
}

// ------------------------------------------- scrape-under-ingest safety

/// Sustained scraping (several concurrent pollers hammering /metrics and
/// /api/top) while the traced application writes thousands of events:
/// the pipeline must finish with zero drops, and SSE backpressure stays
/// accounted (missed batches are counted, never silently lost).
#[test]
fn concurrent_scrapes_never_stall_the_pipeline() {
    let dio = Dio::with_kernel(fast_kernel());
    let mut session = dio.trace(TracerConfig::new("serve-load"));
    let addr = session.serve("127.0.0.1:0").expect("bind ephemeral");

    let stop_scraping = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scrapers: Vec<_> = (0..3)
        .map(|i| {
            let stop = std::sync::Arc::clone(&stop_scraping);
            std::thread::spawn(move || {
                let mut scrapes = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    let path = if i % 2 == 0 { "/metrics" } else { "/api/top" };
                    let (status, _) = http_get(addr, path);
                    assert!(status == 200 || status == 503, "unexpected status {status}");
                    scrapes += 1;
                }
                scrapes
            })
        })
        .collect();

    let t = dio.kernel().spawn_process("writer").spawn_thread("writer");
    let fd = t.creat("/load.bin", 0o644).unwrap();
    for i in 0..5_000u64 {
        t.pwrite64(fd, b"payload", i * 7).unwrap();
    }
    t.close(fd).unwrap();

    stop_scraping.store(true, std::sync::atomic::Ordering::Release);
    let total_scrapes: u64 = scrapers.into_iter().map(|s| s.join().expect("scraper ok")).sum();
    assert!(total_scrapes > 0, "scrapers must have run");

    let report = session.stop();
    assert_eq!(report.trace.events_dropped, 0, "scraping must never cost events");
    assert_eq!(report.trace.events_stored, 5_002);
}

// ----------------------------------------------- env-var bootstrapping

/// `DIO_SERVE_ADDR` starts the server without any code change; the
/// session reports where it bound.
#[test]
fn serve_addr_env_bootstraps_server() {
    std::env::set_var("DIO_SERVE_ADDR", "127.0.0.1:0");
    let dio = Dio::with_kernel(fast_kernel());
    let session = dio.trace(TracerConfig::new("serve-env"));
    std::env::remove_var("DIO_SERVE_ADDR");

    let addr = session.serve_addr().expect("env var must start the server");
    assert_eq!(http_get(addr, "/healthz").0, 200);
    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_eq!(lint_openmetrics(&metrics), Vec::<String>::new());
    session.stop();
}
