//! CI smoke pass for the live introspection server
//! (`results/SMOKE_serve_metrics.txt`, `results/SMOKE_serve_health.json`).
//!
//! Boots a diagnosed session with `dio-serve` attached (honouring
//! `DIO_SERVE_ADDR`, defaulting to an ephemeral port), connects an SSE
//! client, replays the Fig. 2 data-loss workload, and then walks every
//! endpoint like an operator would:
//!
//! * `/metrics` must pass the self-written OpenMetrics lint;
//! * the SSE stream must deliver at least one live `event: alert` frame;
//! * `/flightrec` must download valid Chrome Trace JSON, a `trace_id`
//!   exemplar of both `tracer.shipper.batch_ns` and `span.e2e_ns` from the
//!   scrape must resolve to a span in that same dump, and every
//!   `ship.batch` span in it must carry `e2e_ns`;
//! * the JSON and ANSI views must reflect the workload.
//!
//! The scrape and the health payload land in `results/` as CI artifacts,
//! so a red run ships the evidence.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use dio_core::{lint_openmetrics, DiagnoseConfig, Dio, DiskProfile, Kernel, TracerConfig};
use dio_fluentbit::{run_issue_1875, FluentBitVersion};

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to dio-serve");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("set timeout");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status =
        response.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status line");
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

fn expect_200(addr: SocketAddr, path: &str) -> String {
    let (status, body) = http_get(addr, path);
    assert_eq!(status, 200, "{path} must answer 200, got {status}: {body}");
    eprintln!("  GET {path} -> 200 ({} bytes)", body.len());
    body
}

fn main() {
    let dio = Dio::with_kernel(Kernel::builder().root_disk(DiskProfile::instant()).build());
    let mut session =
        dio.trace(TracerConfig::new("serve-smoke").diagnose(DiagnoseConfig::default()));
    // DIO_SERVE_ADDR (the CI job sets 127.0.0.1:0) already started the
    // server through the env bootstrap; otherwise attach one explicitly.
    let addr = match session.serve_addr() {
        Some(addr) => addr,
        None => session.serve("127.0.0.1:0").expect("bind introspection server"),
    };
    eprintln!("serve_smoke: introspection server on http://{addr}");

    // SSE client first, so the live alert has a subscriber to reach.
    let mut sse = TcpStream::connect(addr).expect("connect SSE");
    sse.set_read_timeout(Some(Duration::from_secs(10))).expect("set timeout");
    write!(sse, "GET /api/alerts/stream HTTP/1.1\r\nHost: smoke\r\n\r\n").expect("send request");
    let mut buf = [0u8; 4096];
    let n = sse.read(&mut buf).expect("sse head");
    let mut sse_frames = String::from_utf8_lossy(&buf[..n]).to_string();
    assert!(sse_frames.contains("text/event-stream"), "SSE head: {sse_frames}");

    run_issue_1875(dio.kernel(), FluentBitVersion::V1_4_0, "/app.log", 20_000_000)
        .expect("Fig. 2 scenario replays");
    for _ in 0..1_000 {
        if session.events_stored() >= 10 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    // The buggy tailer's data loss must arrive live over the stream.
    while !sse_frames.contains("event: alert") {
        let n = sse.read(&mut buf).expect("alert frame before timeout");
        assert!(n > 0, "SSE stream closed before an alert arrived");
        sse_frames.push_str(&String::from_utf8_lossy(&buf[..n]));
    }
    eprintln!("  SSE delivered a live alert frame");

    let metrics = expect_200(addr, "/metrics");
    let lint = lint_openmetrics(&metrics);
    assert!(lint.is_empty(), "OpenMetrics lint violations: {lint:#?}");
    eprintln!("  /metrics lints clean ({} lines)", metrics.lines().count());

    let flightrec = expect_200(addr, "/flightrec");
    let dump: serde_json::Value =
        serde_json::from_str(&flightrec).expect("flightrec is valid Chrome JSON");
    assert!(dump.get("traceEvents").is_some(), "Chrome Trace Event envelope");
    // Both exemplar families — the shipper's batch latency and the events'
    // end-to-end latency — must resolve into that same dump.
    for family in ["tracer_shipper_batch_ns_bucket", "span_e2e_ns_bucket"] {
        let exemplar_id = metrics
            .lines()
            .filter(|l| l.starts_with(family))
            .find_map(|l| {
                let (_, rest) = l.split_once("trace_id=\"")?;
                rest.split_once('"').map(|(id, _)| id.to_string())
            })
            .unwrap_or_else(|| panic!("{family} must carry a trace_id exemplar"));
        assert!(
            flightrec.contains(&format!("0x{exemplar_id}")),
            "{family} exemplar trace_id {exemplar_id} must resolve into the flight-recorder dump"
        );
        eprintln!("  {family} exemplar trace_id {exemplar_id} resolves into /flightrec");
    }
    // Per-event timing leaves through the same dump: every shipped batch
    // carries its oldest event's end-to-end time and stage breakdown.
    let events = dump["traceEvents"].as_array().expect("traceEvents array");
    let batches: Vec<&serde_json::Value> =
        events.iter().filter(|e| e["name"] == "ship.batch").collect();
    assert!(!batches.is_empty(), "the dump holds the session's ship.batch spans");
    for batch in &batches {
        assert!(batch["args"]["e2e_ns"].as_u64().is_some(), "ship.batch without e2e_ns: {batch}");
    }
    eprintln!("  {} ship.batch spans carry e2e_ns", batches.len());

    let health = expect_200(addr, "/api/health");
    serde_json::from_str::<serde_json::Value>(&health).expect("health is valid JSON");
    let top_json = expect_200(addr, "/api/top");
    let top: serde_json::Value = serde_json::from_str(&top_json).expect("top is valid JSON");
    assert!(top["total_ops"].as_u64().unwrap_or(0) > 0, "top must reflect the workload: {top}");
    let screen = expect_200(addr, "/top");
    assert!(screen.contains("dio top"), "ANSI top renders");
    expect_200(addr, "/dashboard");
    expect_200(addr, "/healthz");
    expect_200(addr, "/readyz");
    let (status, _) = http_get(addr, "/api/storage");
    assert_eq!(status, 404, "in-memory session has no storage report");

    dio_bench::write_result("SMOKE_serve_metrics.txt", &metrics);
    dio_bench::write_result("SMOKE_serve_health.json", &health);

    drop(sse);
    session.stop();
    println!("serve_smoke: all endpoints healthy, lint clean, live alert streamed");
}
