//! `dio-serve`: an embeddable live-introspection HTTP server.
//!
//! A traced session can expose its telemetry registry, live top/health
//! views, alert stream, and flight recorder over plain HTTP — scrapeable
//! by Prometheus, `curl`, or a browser — without adding a single external
//! dependency. The server is a std [`std::net::TcpListener`] plus a small
//! fixed worker pool; every socket carries hard read/write timeouts and
//! every response is `Connection: close`, so a slow or hostile client can
//! never wedge a worker for long and the traced pipeline never blocks on
//! the server under any circumstance.
//!
//! ## Endpoints
//!
//! | path                 | payload                                            |
//! |----------------------|----------------------------------------------------|
//! | `/metrics`           | OpenMetrics text exposition (with exemplars)       |
//! | `/api/top`           | JSON `dio top` snapshot (`window_ns`, `rows` query)|
//! | `/api/health`        | JSON pipeline-health report                        |
//! | `/api/rules`         | JSON loaded-rule list with fire/suppress counters  |
//! | `/api/storage`       | JSON storage-engine report (404 when in-memory)    |
//! | `/api/dfg`           | JSON DFG snapshot; `?format=dot\|mermaid` exports  |
//! | `/dfg`               | text DFG panel (busiest directly-follows edges)    |
//! | `/top`               | ANSI `dio top` render, text/plain                  |
//! | `/dashboard`         | ANSI health dashboard, text/plain                  |
//! | `/api/alerts/stream` | Server-Sent Events: live diagnosis alerts          |
//! | `/flightrec`         | Chrome Trace Event JSON from the flight recorder   |
//! | `/healthz`           | liveness (200 once the listener thread runs)       |
//! | `/readyz`            | readiness (503 until the accept loop is up)        |

#![warn(missing_docs)]

pub mod http;
pub mod lint;

pub use lint::lint_openmetrics;

use std::collections::VecDeque;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use dio_backend::DocStore;
use dio_diagnose::DiagnosisEngine;
use dio_profile::DfgMiner;
use dio_telemetry::{trace, MetricsRegistry};
use dio_viz::{
    render_health_dashboard, render_storage_panel, render_top, top_snapshot, HealthReport,
    TopOptions,
};
use serde_json::json;

/// Number of worker threads answering requests.
const WORKERS: usize = 4;
/// Pending connections held while all workers are busy; beyond this the
/// accept loop answers 503 directly instead of queueing.
const QUEUE_CAP: usize = 32;
/// Concurrent SSE clients; each holds a dedicated thread.
const MAX_SSE_CLIENTS: u64 = 8;
/// How long the SSE pump waits for a batch before emitting a heartbeat
/// comment (which doubles as a disconnect probe).
const SSE_POLL: Duration = Duration::from_millis(250);

/// Everything a request handler may read. All fields are snapshots or
/// internally synchronized handles, so handlers never take locks the
/// tracing pipeline contends on.
#[derive(Clone)]
pub struct ServeState {
    /// Session name, echoed in `/api/*` payloads.
    pub session: String,
    /// The session's metrics registry (source of `/metrics`).
    pub registry: Arc<MetricsRegistry>,
    /// Document store holding the trace and telemetry indices.
    pub backend: Arc<DocStore>,
    /// Index the session ships syscall documents into.
    pub index_name: String,
    /// Index health snapshots and alert documents land in.
    pub telemetry_index: String,
    /// Live diagnosis engine, when the session runs with diagnosis on.
    pub engine: Option<Arc<DiagnosisEngine>>,
    /// Streaming DFG miner, when the session runs with profiling on.
    pub profiler: Option<Arc<DfgMiner>>,
}

/// One tick of the `dio top` screen: trailing-window syscall rates per
/// process and file with the engine's active alerts, then — when the
/// session has them — the loaded rules with live fire/suppress counters,
/// the busiest directly-follows edges, and the storage engine's occupancy
/// and compaction debt.
pub fn render_top_screen(state: &ServeState, opts: &TopOptions) -> String {
    let alerts = state.engine.as_ref().map(|e| e.active_alerts()).unwrap_or_default();
    let mut out = render_top(&state.backend.index(&state.index_name), &alerts, opts);
    if let Some(engine) = &state.engine {
        let reports = engine.dynamic_reports();
        if !reports.is_empty() {
            out.push('\n');
            out.push_str(&dio_viz::render_rules_panel(&reports));
        }
    }
    if let Some(miner) = &state.profiler {
        out.push('\n');
        out.push_str(&dio_viz::render_dfg_panel(&dio_profile::to_json(&miner.snapshot())));
    }
    if let Some(report) = state.backend.storage_report() {
        out.push('\n');
        out.push_str(&render_storage_panel(&report, None));
    }
    out
}

/// Server self-observation, registered into the session registry so the
/// server's own cost shows up on `/metrics`.
struct ServeTelemetry {
    requests: Arc<dio_telemetry::Counter>,
    errors: Arc<dio_telemetry::Counter>,
    busy: Arc<dio_telemetry::Counter>,
    sse_clients: Arc<dio_telemetry::Gauge>,
    sse_events: Arc<dio_telemetry::Counter>,
    sse_missed: Arc<dio_telemetry::Counter>,
}

impl ServeTelemetry {
    fn bind(registry: &MetricsRegistry) -> ServeTelemetry {
        ServeTelemetry {
            requests: registry.counter("serve.http.requests"),
            errors: registry.counter("serve.http.errors"),
            busy: registry.counter("serve.http.busy"),
            sse_clients: registry.gauge("serve.sse.clients"),
            sse_events: registry.counter("serve.sse.events"),
            sse_missed: registry.counter("serve.sse.missed_batches"),
        }
    }
}

/// Hand-rolled bounded MPMC queue of accepted connections. The crossbeam
/// shim's `send` blocks when full, which the accept loop must never do,
/// so this uses a plain `Mutex<VecDeque>` + `Condvar` with an explicit
/// non-blocking `offer`.
struct ConnQueue {
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    closed: AtomicBool,
}

impl ConnQueue {
    fn new() -> ConnQueue {
        ConnQueue {
            queue: Mutex::new(VecDeque::with_capacity(QUEUE_CAP)),
            ready: Condvar::new(),
            closed: AtomicBool::new(false),
        }
    }

    /// Enqueues `stream` unless the queue is full; returns it back to the
    /// caller on overflow so the accept loop can answer 503 inline.
    fn offer(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() >= QUEUE_CAP {
            return Err(stream);
        }
        q.push_back(stream);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a connection or shutdown; `None` means shut down.
    fn take(&self) -> Option<TcpStream> {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(stream) = q.pop_front() {
                return Some(stream);
            }
            if self.closed.load(Ordering::Acquire) {
                return None;
            }
            let (guard, _) =
                self.ready.wait_timeout(q, Duration::from_millis(100)).unwrap_or_else(|e| {
                    let t = e.into_inner();
                    (t.0, t.1)
                });
            q = guard;
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.ready.notify_all();
    }
}

/// Handle to a running introspection server. Dropping it (or calling
/// [`ServeHandle::shutdown`]) stops the accept loop, drains the workers,
/// and joins every SSE pump thread.
pub struct ServeHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    ready: Arc<AtomicBool>,
    queue: Arc<ConnQueue>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    sse_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for ServeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeHandle")
            .field("addr", &self.addr)
            .field("ready", &self.ready.load(Ordering::Acquire))
            .finish()
    }
}

impl ServeHandle {
    /// The bound address — with port `0` requested, this carries the
    /// kernel-assigned port.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server and joins all its threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.queue.close();
        if let Some(t) = self.accept_thread.take() {
            // The accept loop sleeps in `accept`: a connection of our own
            // wakes it to see the stop flag.
            let _ = TcpStream::connect_timeout(&wake_addr(self.addr), WAKE_TIMEOUT);
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let pumps = {
            let mut guard = self.sse_threads.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *guard)
        };
        for p in pumps {
            let _ = p.join();
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How long `shutdown` tries to connect to its own listener.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Where a connection reaches a listener bound to `addr`: the loopback
/// address when it is bound to every interface.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => (Ipv4Addr::LOCALHOST, addr.port()).into(),
        IpAddr::V6(ip) if ip.is_unspecified() => (Ipv6Addr::LOCALHOST, addr.port()).into(),
        _ => addr,
    }
}

/// Starts the introspection server on `addr` (use port `0` for an
/// ephemeral port) serving snapshots of `state`. Returns once the
/// listener is bound and the accept loop is running.
pub fn serve(addr: impl ToSocketAddrs, state: ServeState) -> std::io::Result<ServeHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;

    let stop = Arc::new(AtomicBool::new(false));
    let ready = Arc::new(AtomicBool::new(false));
    let queue = Arc::new(ConnQueue::new());
    let sse_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let sse_count = Arc::new(AtomicU64::new(0));
    let telemetry = Arc::new(ServeTelemetry::bind(&state.registry));
    let state = Arc::new(state);

    let mut workers = Vec::with_capacity(WORKERS);
    for i in 0..WORKERS {
        let queue = Arc::clone(&queue);
        let state = Arc::clone(&state);
        let telemetry = Arc::clone(&telemetry);
        let stop_flag = Arc::clone(&stop);
        let ready_flag = Arc::clone(&ready);
        let sse_threads = Arc::clone(&sse_threads);
        let sse_count = Arc::clone(&sse_count);
        workers.push(std::thread::Builder::new().name(format!("dio-serve-{i}")).spawn(
            move || {
                while let Some(stream) = queue.take() {
                    handle_connection(
                        stream,
                        &state,
                        &telemetry,
                        &ready_flag,
                        &stop_flag,
                        &sse_threads,
                        &sse_count,
                    );
                }
            },
        )?);
    }

    let accept_queue = Arc::clone(&queue);
    let accept_stop = Arc::clone(&stop);
    let accept_ready = Arc::clone(&ready);
    let accept_telemetry = Arc::clone(&telemetry);
    let accept_thread =
        std::thread::Builder::new().name("dio-serve-accept".to_string()).spawn(move || {
            accept_ready.store(true, Ordering::Release);
            loop {
                let accepted = listener.accept();
                // `shutdown` raises the flag, then connects to wake us.
                if accept_stop.load(Ordering::Acquire) {
                    break;
                }
                match accepted {
                    Ok((stream, _)) => {
                        if prepare_stream(&stream).is_err() {
                            continue;
                        }
                        if let Err(mut rejected) = accept_queue.offer(stream) {
                            accept_telemetry.busy.inc();
                            let _ = http::write_response(
                                &mut rejected,
                                503,
                                "application/json",
                                b"{\"error\":\"server busy\"}",
                            );
                        }
                    }
                    // Out of descriptors and the like: back off, don't spin.
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
            accept_queue.close();
        })?;

    Ok(ServeHandle {
        addr,
        stop,
        ready,
        queue,
        accept_thread: Some(accept_thread),
        workers,
        sse_threads,
    })
}

/// Requests are handled with plain blocking reads under hard timeouts.
fn prepare_stream(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(http::READ_TIMEOUT))?;
    stream.set_write_timeout(Some(http::WRITE_TIMEOUT))?;
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn handle_connection(
    mut stream: TcpStream,
    state: &Arc<ServeState>,
    telemetry: &Arc<ServeTelemetry>,
    ready: &Arc<AtomicBool>,
    stop: &Arc<AtomicBool>,
    sse_threads: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    sse_count: &Arc<AtomicU64>,
) {
    telemetry.requests.inc();
    let request = match http::read_request(&mut stream) {
        Ok(r) => r,
        Err(_) => {
            telemetry.errors.inc();
            let _ = http::write_response(
                &mut stream,
                400,
                "application/json",
                b"{\"error\":\"malformed request\"}",
            );
            return;
        }
    };
    if request.method != "GET" {
        telemetry.errors.inc();
        let _ =
            http::write_response(&mut stream, 405, "application/json", b"{\"error\":\"GET only\"}");
        return;
    }

    if request.path == "/api/alerts/stream" {
        serve_sse(stream, state, telemetry, stop, sse_threads, sse_count);
        return;
    }

    let (status, content_type, body): (u16, &str, Vec<u8>) = match request.path.as_str() {
        "/metrics" => (
            200,
            "application/openmetrics-text; version=1.0.0; charset=utf-8",
            dio_telemetry::openmetrics::render(&state.registry).into_bytes(),
        ),
        "/api/top" => {
            let mut opts = TopOptions::default();
            if let Some(w) = request.query.get("window_ns").and_then(|v| v.parse().ok()) {
                opts.window_ns = w;
            }
            if let Some(r) = request.query.get("rows").and_then(|v| v.parse().ok()) {
                opts.rows = r;
            }
            let alerts = state.engine.as_ref().map(|e| e.active_alerts()).unwrap_or_default();
            let snap = top_snapshot(&state.backend.index(&state.index_name), &alerts, &opts);
            (200, "application/json", snap.to_json().to_string().into_bytes())
        }
        "/api/health" => {
            let report = HealthReport::from_index(&state.backend.index(&state.telemetry_index));
            (200, "application/json", report.to_json().to_string().into_bytes())
        }
        "/api/rules" => match &state.engine {
            Some(engine) => {
                let reports = engine.dynamic_reports();
                let body = json!({
                    "session": state.session,
                    "rules": reports,
                });
                (200, "application/json", body.to_string().into_bytes())
            }
            None => (
                404,
                "application/json",
                b"{\"error\":\"session has no diagnosis engine\"}".to_vec(),
            ),
        },
        "/api/dfg" => match &state.profiler {
            Some(miner) => {
                let snapshot = miner.snapshot();
                match request.query.get("format").map(String::as_str) {
                    Some("dot") => (
                        200,
                        "text/vnd.graphviz; charset=utf-8",
                        dio_profile::to_dot(&snapshot.global, &state.session).into_bytes(),
                    ),
                    Some("mermaid") => (
                        200,
                        "text/plain; charset=utf-8",
                        dio_profile::to_mermaid(&snapshot.global).into_bytes(),
                    ),
                    Some(other) => {
                        telemetry.errors.inc();
                        let body = json!({
                            "error": format!("unknown format `{other}`"),
                            "formats": ["dot", "mermaid"],
                        });
                        (400, "application/json", body.to_string().into_bytes())
                    }
                    None => {
                        let mut body = dio_profile::to_json(&snapshot);
                        body["session"] = json!(state.session);
                        (200, "application/json", body.to_string().into_bytes())
                    }
                }
            }
            None => (404, "application/json", b"{\"error\":\"session has no profiler\"}".to_vec()),
        },
        "/dfg" => match &state.profiler {
            Some(miner) => {
                let out = dio_viz::render_dfg_panel(&dio_profile::to_json(&miner.snapshot()));
                (200, "text/plain; charset=utf-8", out.into_bytes())
            }
            None => (404, "application/json", b"{\"error\":\"session has no profiler\"}".to_vec()),
        },
        "/api/storage" => match state.backend.storage_report() {
            Some(report) => {
                (200, "application/json", report.to_document().to_string().into_bytes())
            }
            None => (
                404,
                "application/json",
                b"{\"error\":\"session has no persistent storage\"}".to_vec(),
            ),
        },
        "/top" => (
            200,
            "text/plain; charset=utf-8",
            render_top_screen(state, &TopOptions::default()).into_bytes(),
        ),
        "/dashboard" => {
            let out = render_health_dashboard(&state.backend.index(&state.telemetry_index));
            (200, "text/plain; charset=utf-8", out.into_bytes())
        }
        "/flightrec" => {
            (200, "application/json", trace::recorder().export_chrome_json().into_bytes())
        }
        "/healthz" => (200, "text/plain; charset=utf-8", b"ok\n".to_vec()),
        "/readyz" => {
            if ready.load(Ordering::Acquire) {
                (200, "text/plain; charset=utf-8", b"ready\n".to_vec())
            } else {
                (503, "text/plain; charset=utf-8", b"starting\n".to_vec())
            }
        }
        _ => {
            telemetry.errors.inc();
            let body = json!({
                "error": "not found",
                "endpoints": [
                    "/metrics", "/api/top", "/api/health", "/api/rules",
                    "/api/storage", "/api/dfg", "/api/alerts/stream", "/top",
                    "/dfg", "/dashboard", "/flightrec", "/healthz", "/readyz",
                ],
            });
            (404, "application/json", body.to_string().into_bytes())
        }
    };
    if http::write_response(&mut stream, status, content_type, &body).is_err() {
        telemetry.errors.inc();
    }
}

/// Upgrades the connection to a Server-Sent Events stream on a dedicated
/// thread. The pump reads from a bounded [`DocStore`] subscription: when
/// the client is slow, the *subscription* drops whole batches (counted in
/// `missed_batches`) and the shipper is never slowed down.
fn serve_sse(
    mut stream: TcpStream,
    state: &Arc<ServeState>,
    telemetry: &Arc<ServeTelemetry>,
    stop: &Arc<AtomicBool>,
    sse_threads: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    sse_count: &Arc<AtomicU64>,
) {
    if sse_count.load(Ordering::Acquire) >= MAX_SSE_CLIENTS {
        telemetry.busy.inc();
        let _ = http::write_response(
            &mut stream,
            503,
            "application/json",
            b"{\"error\":\"too many stream clients\"}",
        );
        return;
    }
    sse_count.fetch_add(1, Ordering::AcqRel);
    telemetry.sse_clients.set(sse_count.load(Ordering::Acquire));

    let subscription = state.backend.subscribe_with_capacity(&state.telemetry_index, 64);
    let stop = Arc::clone(stop);
    let pump_telemetry = Arc::clone(telemetry);
    let sse_count_pump = Arc::clone(sse_count);
    let pump = std::thread::Builder::new().name("dio-serve-sse".to_string()).spawn(move || {
        let result = pump_sse(&mut stream, &subscription, &stop, &pump_telemetry);
        if result.is_err() {
            pump_telemetry.errors.inc();
        }
        sse_count_pump.fetch_sub(1, Ordering::AcqRel);
        pump_telemetry.sse_clients.set(sse_count_pump.load(Ordering::Acquire));
    });
    match pump {
        Ok(handle) => {
            let mut guard = sse_threads.lock().unwrap_or_else(|e| e.into_inner());
            // Opportunistically reap pumps that already exited so the
            // vector doesn't grow with every short-lived client.
            guard.retain(|h| !h.is_finished());
            guard.push(handle);
        }
        Err(_) => {
            sse_count.fetch_sub(1, Ordering::AcqRel);
            telemetry.sse_clients.set(sse_count.load(Ordering::Acquire));
        }
    }
}

fn pump_sse(
    stream: &mut TcpStream,
    subscription: &dio_backend::Subscription,
    stop: &AtomicBool,
    telemetry: &ServeTelemetry,
) -> std::io::Result<()> {
    use std::io::Write;

    http::write_stream_head(stream, "text/event-stream")?;
    stream.write_all(b": dio alert stream\n\n")?;
    stream.flush()?;
    // Batches the subscription dropped because this client was slow,
    // folded into `serve.sse.missed_batches` as deltas so the counter
    // aggregates across clients while each heartbeat reports its own.
    let mut reported_missed = 0u64;
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(());
        }
        let missed = subscription.missed_batches();
        if missed > reported_missed {
            telemetry.sse_missed.add(missed - reported_missed);
            reported_missed = missed;
        }
        match subscription.recv_timeout(SSE_POLL) {
            Some(batch) => {
                for doc in batch {
                    if doc.get("kind").and_then(|k| k.as_str()) != Some("alert") {
                        continue;
                    }
                    telemetry.sse_events.inc();
                    let frame = format!("event: alert\ndata: {doc}\n\n");
                    stream.write_all(frame.as_bytes())?;
                }
                stream.flush()?;
            }
            None => {
                if subscription.is_closed() {
                    return Ok(());
                }
                // Heartbeat comment: keeps intermediaries from timing the
                // stream out and detects dead clients; carries the drop
                // accounting so slow consumers can see what they lost.
                let beat = format!(": heartbeat missed={}\n\n", subscription.missed_batches());
                stream.write_all(beat.as_bytes())?;
                stream.flush()?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn test_state(session: &str) -> ServeState {
        let backend = Arc::new(DocStore::new());
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter("test.requests").add(3);
        ServeState {
            session: session.to_string(),
            registry,
            backend,
            index_name: format!("dio-{session}"),
            telemetry_index: format!("dio-telemetry-{session}"),
            engine: None,
            profiler: None,
        }
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let status =
            response.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status code");
        let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
        (status, body)
    }

    #[test]
    fn serves_metrics_health_and_404() {
        let mut handle = serve("127.0.0.1:0", test_state("unit")).expect("serve");
        let addr = handle.addr();

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("test_requests_total 3"), "{body}");
        assert!(body.ends_with("# EOF\n"), "{body}");
        assert!(lint_openmetrics(&body).is_empty(), "{:?}", lint_openmetrics(&body));

        let (status, body) = get(addr, "/api/health");
        assert_eq!(status, 200);
        assert!(body.contains("\"snapshots\""), "{body}");

        let (status, _) = get(addr, "/healthz");
        assert_eq!(status, 200);
        let (status, _) = get(addr, "/readyz");
        assert_eq!(status, 200);

        let (status, body) = get(addr, "/nope");
        assert_eq!(status, 404);
        assert!(body.contains("/metrics"), "{body}");

        let (status, _) = get(addr, "/api/storage");
        assert_eq!(status, 404, "in-memory store has no storage report");

        handle.shutdown();
    }

    #[test]
    fn api_rules_lists_loaded_rules_with_counters() {
        // Without an engine the endpoint is a clean 404.
        let mut handle = serve("127.0.0.1:0", test_state("norules")).expect("serve");
        let (status, body) = get(handle.addr(), "/api/rules");
        assert_eq!(status, 404);
        assert!(body.contains("no diagnosis engine"), "{body}");
        handle.shutdown();

        // With rules installed, the endpoint lists one report per rule.
        let engine = DiagnosisEngine::new(dio_diagnose::DiagnoseConfig::default());
        let set = dio_rules::compile(dio_rules::shipped::FIG2_DATA_LOSS).unwrap();
        engine.install_detector(Box::new(set));
        let mut state = test_state("ruled");
        state.engine = Some(engine);
        let mut handle = serve("127.0.0.1:0", state).expect("serve");
        let (status, body) = get(handle.addr(), "/api/rules");
        assert_eq!(status, 200);
        let doc: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(doc["session"], json!("ruled"));
        let rules = doc["rules"].as_array().unwrap();
        assert_eq!(rules.len(), 3, "{body}");
        assert_eq!(rules[0]["rule"], json!("data_loss"));
        assert_eq!(rules[0]["fired"], json!(0));
        assert_eq!(rules[0]["suppressed"], json!(0));
        // The ANSI /top view carries the same panel.
        let (status, top) = get(handle.addr(), "/top");
        assert_eq!(status, 200);
        assert!(top.contains("### Rules (3 loaded)"), "{top}");
        handle.shutdown();
    }

    #[test]
    fn api_dfg_serves_snapshot_and_exports() {
        // Without a profiler the endpoints are clean 404s.
        let mut handle = serve("127.0.0.1:0", test_state("nodfg")).expect("serve");
        let (status, body) = get(handle.addr(), "/api/dfg");
        assert_eq!(status, 404);
        assert!(body.contains("no profiler"), "{body}");
        let (status, _) = get(handle.addr(), "/dfg");
        assert_eq!(status, 404);
        handle.shutdown();

        // With a miner attached, the snapshot and exports come through.
        let miner = DfgMiner::new(dio_profile::ProfileConfig::default());
        let ev = |t: u64, syscall: &str| {
            json!({
                "time": t, "syscall": syscall, "pid": 1, "tid": 1,
                "proc_name": "writer", "latency_ns": 1_000, "ret_val": 8,
                "file_path": "/data.bin",
            })
        };
        miner.observe_batch(&[ev(10, "openat"), ev(20, "write"), ev(30, "fsync")]);
        let mut state = test_state("dfg");
        state.profiler = Some(Arc::clone(&miner));
        let mut handle = serve("127.0.0.1:0", state).expect("serve");

        let (status, body) = get(handle.addr(), "/api/dfg");
        assert_eq!(status, 200);
        let doc: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(doc["session"], json!("dfg"));
        assert_eq!(doc["transitions"], json!(2), "{body}");

        let (status, dot) = get(handle.addr(), "/api/dfg?format=dot");
        assert_eq!(status, 200);
        assert!(dot.contains("digraph"), "{dot}");
        assert!(dot.contains("write") && dot.contains("fsync"), "{dot}");

        let (status, mmd) = get(handle.addr(), "/api/dfg?format=mermaid");
        assert_eq!(status, 200);
        assert!(mmd.contains("graph LR"), "{mmd}");

        let (status, body) = get(handle.addr(), "/api/dfg?format=svg");
        assert_eq!(status, 400);
        assert!(body.contains("unknown format"), "{body}");

        let (status, panel) = get(handle.addr(), "/dfg");
        assert_eq!(status, 200);
        assert!(panel.contains("### DFG (2 transitions"), "{panel}");

        // The ANSI /top view carries the same panel.
        let (status, top) = get(handle.addr(), "/top");
        assert_eq!(status, 200);
        assert!(top.contains("### DFG"), "{top}");
        handle.shutdown();
    }

    #[test]
    fn rejects_non_get_and_garbage() {
        let mut handle = serve("127.0.0.1:0", test_state("unit2")).expect("serve");
        let addr = handle.addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"garbage\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");

        handle.shutdown();
    }

    #[test]
    fn sse_stream_delivers_alert_documents() {
        let state = test_state("unit3");
        let backend = Arc::clone(&state.backend);
        let telemetry_index = state.telemetry_index.clone();
        let mut handle = serve("127.0.0.1:0", state).expect("serve");
        let addr = handle.addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /api/alerts/stream HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

        // Wait for the head, then publish one alert and one non-alert doc.
        let mut buf = [0u8; 4096];
        let n = stream.read(&mut buf).expect("sse head");
        let head = String::from_utf8_lossy(&buf[..n]).to_string();
        assert!(head.contains("text/event-stream"), "{head}");

        backend.bulk(
            &telemetry_index,
            vec![
                json!({"kind": "health", "seq": 0}),
                json!({"kind": "alert", "detector": "unit-test", "severity": "warn"}),
            ],
        );

        let mut collected = head;
        while !collected.contains("event: alert") {
            let n = stream.read(&mut buf).expect("sse frame");
            assert!(n > 0, "stream closed before alert arrived");
            collected.push_str(&String::from_utf8_lossy(&buf[..n]));
        }
        assert!(collected.contains("\"detector\":\"unit-test\""), "{collected}");
        assert!(!collected.contains("\"kind\":\"health\""), "non-alert docs filtered");

        drop(stream);
        handle.shutdown();
    }
}
