#![warn(missing_docs)]

//! DIO: a generic tool for observing and diagnosing applications' storage
//! I/O through system call observability.
//!
//! This is the facade crate of the DSN 2023 reproduction. It wires the
//! pieces of Fig. 1 together:
//!
//! * a [`Kernel`] (simulated substrate) whose tracepoints the *tracer*
//!   hooks;
//! * the *tracer* ([`dio_tracer::Tracer`]), which filters and enriches
//!   syscalls in kernel space and ships them asynchronously;
//! * the *backend* ([`DocStore`]), which indexes events and runs queries,
//!   aggregations and the file-path correlation algorithm;
//! * the *visualizer* ([`dio_viz`]), whose dashboards render the stored
//!   events.
//!
//! # Examples
//!
//! ```
//! use dio_core::{Dio, TracerConfig};
//!
//! let dio = Dio::new();
//! let session = dio.trace(TracerConfig::new("quickstart"));
//!
//! let app = dio.kernel().spawn_process("app");
//! let thread = app.spawn_thread("app");
//! let fd = thread.creat("/data.bin", 0o644)?;
//! thread.write(fd, b"hello")?;
//! thread.close(fd)?;
//!
//! let report = session.stop();
//! assert_eq!(report.trace.events_stored, 3);
//! assert_eq!(report.correlation.events_updated, 2); // write + close gain a path
//! # Ok::<(), dio_core::Errno>(())
//! ```

use std::net::SocketAddr;
use std::sync::Arc;

pub use dio_backend::{
    correlate_paths, AggResult, Aggregation, Bucket, CorrelationReport, DocStore, Hit, Index,
    Query, SearchRequest, SearchResponse, ShardReport, SortOrder, StatsResult, StorageConfig,
    StorageEngine, StorageReport, Subscription, DEFAULT_SUBSCRIPTION_CAPACITY,
};
pub use dio_diagnose::{Alert, AlertKind, DiagnoseConfig, DiagnosisEngine, EngineStats, Severity};
pub use dio_ebpf::{FilterSpec, RingConfig, RingStats};
pub use dio_kernel::{
    DiskProfile, Errno, Kernel, OpenFlags, Process, SimClock, SysResult, ThreadCtx, Vfs, Whence,
};
pub use dio_profile::{
    to_dot, to_json, to_mermaid, DfgMiner, DfgSnapshot, EdgeSnapshot, GraphSnapshot, NodeSnapshot,
    ProfileConfig,
};
pub use dio_rules::{
    compile as compile_rules, parse_rules, verify_rules, RuleCheck, RuleSet, RulesError,
    RulesReport,
};
pub use dio_serve::{lint_openmetrics, serve, ServeHandle, ServeState};
pub use dio_syscall::{FileTag, FileType, Pid, SyscallClass, SyscallEvent, SyscallKind, Tid};
pub use dio_telemetry::{
    format_ns, trace, FlightRecorder, SpanCollector, SpanCtx, SpanSummary, Stage, StageStamps,
    TraceSpan,
};
pub use dio_tracer::{
    diagnose_index, generate_session_name, AttachError, RuleCompileError, TraceSummary, Tracer,
    TracerConfig,
};
pub use dio_viz::{
    dashboards, latest_storage_report, render_alert_history, render_compaction_timeline,
    render_dfg_panel, render_health_dashboard, render_latency_waterfall, render_rules_panel,
    render_storage_panel, render_top, sparkline, Chart, Column, Dashboard, HealthReport, Heatmap,
    Panel, PanelSpec, Series, Table, TopOptions,
};

/// The assembled DIO deployment: one kernel under observation plus the
/// analysis pipeline (backend + visualizer).
///
/// Cloning shares both the kernel and the backend, mirroring the paper's
/// deployment where multiple tracer executions feed one pipeline.
#[derive(Debug, Clone)]
pub struct Dio {
    kernel: Kernel,
    backend: DocStore,
}

impl Dio {
    /// A DIO deployment over a fresh default kernel.
    pub fn new() -> Self {
        Self::with_kernel(Kernel::new())
    }

    /// A DIO deployment observing an existing kernel.
    pub fn with_kernel(kernel: Kernel) -> Self {
        Dio { kernel, backend: DocStore::new() }
    }

    /// The kernel under observation.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The analysis backend.
    pub fn backend(&self) -> &DocStore {
        &self.backend
    }

    /// Starts a tracing session.
    ///
    /// When `DIO_SERVE_ADDR` is set (e.g. `127.0.0.1:9900`, port `0` for
    /// ephemeral), the session's live introspection server starts
    /// automatically on that address; a bind failure is reported on
    /// stderr and tracing proceeds unserved.
    pub fn trace(&self, config: TracerConfig) -> DioSession {
        let index_name = config.index_name();
        let session_name = config.session().to_string();
        let tracer = Tracer::attach(config, &self.kernel, self.backend.clone());
        let mut session = DioSession {
            backend: self.backend.clone(),
            tracer: Some(tracer),
            session_name,
            index_name,
            server: None,
        };
        if let Ok(addr) = std::env::var("DIO_SERVE_ADDR") {
            match session.serve(addr.as_str()) {
                Ok(bound) => eprintln!("dio: serving introspection on http://{bound}"),
                Err(e) => eprintln!("dio: DIO_SERVE_ADDR={addr} bind failed: {e}"),
            }
        }
        session
    }

    /// The backend index of a previous session (post-mortem analysis).
    pub fn session_index(&self, session: &str) -> Option<Arc<Index>> {
        self.backend.get_index(&format!("dio-{session}"))
    }

    /// Names of all stored sessions.
    ///
    /// Health indices (`dio-telemetry-<session>`) are excluded — use
    /// [`Dio::telemetry_index`] to reach those.
    pub fn sessions(&self) -> Vec<String> {
        self.backend
            .index_names()
            .into_iter()
            .filter(|n| !n.starts_with("dio-telemetry-"))
            .filter_map(|n| n.strip_prefix("dio-").map(str::to_string))
            .collect()
    }

    /// The health-document index of a session, if self-telemetry was on.
    pub fn telemetry_index(&self, session: &str) -> Option<Arc<Index>> {
        self.backend.get_index(&format!("dio-telemetry-{session}"))
    }
}

impl Default for Dio {
    fn default() -> Self {
        Self::new()
    }
}

/// Final report of a tracing session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Tracer-side counters (stored/dropped/filtered events).
    pub trace: TraceSummary,
    /// Path-correlation outcome.
    pub correlation: CorrelationReport,
}

/// A live tracing session bound to the analysis pipeline.
///
/// Dropping the session stops the tracer; prefer [`DioSession::stop`] to
/// also run the file-path correlation algorithm and obtain the report.
#[derive(Debug)]
pub struct DioSession {
    backend: DocStore,
    tracer: Option<Tracer>,
    session_name: String,
    index_name: String,
    server: Option<ServeHandle>,
}

impl DioSession {
    /// The session name.
    pub fn session(&self) -> &str {
        &self.session_name
    }

    /// The backend index receiving this session's events.
    pub fn index(&self) -> Arc<Index> {
        self.backend.index(&self.index_name)
    }

    /// Live ring-buffer counters.
    pub fn ring_stats(&self) -> RingStats {
        self.tracer.as_ref().map(|t| t.ring_stats()).unwrap_or_default()
    }

    /// Events stored at the backend so far.
    pub fn events_stored(&self) -> u64 {
        self.tracer.as_ref().map(|t| t.events_stored()).unwrap_or(0)
    }

    /// Renders a dashboard over the session's events (near real-time: the
    /// session keeps running).
    pub fn render(&self, dashboard: &Dashboard) -> String {
        dashboard.render(&self.index())
    }

    /// The in-process diagnosis engine, when the session was started with
    /// [`TracerConfig::diagnose`] — poll it for alerts *while* the trace
    /// runs.
    pub fn diagnosis(&self) -> Option<Arc<DiagnosisEngine>> {
        self.tracer.as_ref().and_then(|t| t.diagnosis())
    }

    /// Renders one tick of the `dio top` live view — the screen `/top`
    /// serves (see [`dio_serve::render_top_screen`]): trailing-window
    /// syscall rates per process and file, the engine's currently active
    /// alerts, and the rules, DFG and storage panels the session has.
    pub fn top(&self, opts: &TopOptions) -> String {
        dio_serve::render_top_screen(&self.serve_state(), opts)
    }

    /// What the introspection server and the `dio top` screen read.
    fn serve_state(&self) -> ServeState {
        let tracer = self.tracer.as_ref().expect("tracer present until stop");
        ServeState {
            session: self.session_name.clone(),
            registry: Arc::clone(tracer.registry()),
            backend: Arc::new(self.backend.clone()),
            index_name: self.index_name.clone(),
            telemetry_index: format!("dio-telemetry-{}", self.session_name),
            engine: tracer.diagnosis(),
            profiler: tracer.profiler(),
        }
    }

    /// Starts the live introspection server on `addr` (port `0` binds an
    /// ephemeral port; see [`dio_serve`] for the endpoint catalogue) and
    /// returns the bound address. The server runs until the session stops
    /// or [`DioSession::stop_serving`] is called; starting twice replaces
    /// the previous server.
    ///
    /// # Errors
    ///
    /// Propagates the bind error when `addr` is unavailable.
    pub fn serve(&mut self, addr: impl std::net::ToSocketAddrs) -> std::io::Result<SocketAddr> {
        let handle = serve(addr, self.serve_state())?;
        let bound = handle.addr();
        self.server = Some(handle);
        Ok(bound)
    }

    /// The introspection server's bound address, when one is running.
    pub fn serve_addr(&self) -> Option<SocketAddr> {
        self.server.as_ref().map(|s| s.addr())
    }

    /// Stops the introspection server (if running) without stopping the
    /// trace.
    pub fn stop_serving(&mut self) {
        self.server = None;
    }

    /// Writes the flight recorder's current spans to
    /// `results/flightrec-manual-NN.json` (Chrome Trace Event Format plus a
    /// critical-path summary; `NN` counts this process's manual dumps, the
    /// last of [`trace::DUMP_CAP`] slots reused) and returns the path.
    /// `None` when no dump directory is available (see `DIO_RESULTS_DIR`).
    pub fn dump_flight_recorder(&self) -> Option<std::path::PathBuf> {
        trace::recorder().dump("manual")
    }

    /// Stops tracing, drains buffered events, runs path correlation and
    /// reports.
    pub fn stop(mut self) -> SessionReport {
        let tracer = self.tracer.take().expect("tracer present until stop");
        let trace = tracer.stop();
        // The tracer's shutdown ships the final alerts and health docs
        // before this point; connected SSE clients get a last chance at
        // them before the server's threads are joined.
        self.server = None;
        SessionReport { trace, correlation: correlate_paths(&self.index()) }
    }

    /// Blocks until every process in `pids` has exited, then stops — the
    /// paper's default tracer lifecycle: "the tracer executes along with
    /// the targeted application, stopping once its main and child
    /// processes finish" (§II-F).
    pub fn stop_when_exited(self, kernel: &Kernel, pids: &[Pid]) -> SessionReport {
        while !kernel.all_exited(pids) {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        self.stop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_dio() -> Dio {
        Dio::with_kernel(Kernel::builder().root_disk(DiskProfile::instant()).build())
    }

    #[test]
    fn end_to_end_trace_correlate_render() {
        let dio = fast_dio();
        let session = dio.trace(TracerConfig::new("full"));
        let t = dio.kernel().spawn_process("app").spawn_thread("app");
        let fd = t.openat("/app.log", OpenFlags::CREAT | OpenFlags::RDWR, 0o644).unwrap();
        t.write(fd, b"26 bytes of log content...").unwrap();
        let mut buf = [0u8; 8];
        t.lseek(fd, 0, Whence::Set).unwrap();
        t.read(fd, &mut buf).unwrap();
        t.close(fd).unwrap();

        let rendered = {
            // Near-real-time render while the session is live.
            std::thread::sleep(std::time::Duration::from_millis(300));
            session.render(&dashboards::syscall_table(Query::MatchAll))
        };
        assert!(rendered.contains("openat"));

        let report = session.stop();
        assert_eq!(report.trace.events_stored, 5);
        // write/lseek/read/close resolve to the open's path.
        assert_eq!(report.correlation.events_updated, 4);
        assert_eq!(report.correlation.events_unresolved, 0);

        let idx = dio.session_index("full").unwrap();
        assert_eq!(idx.count(&Query::term("file_path", "/app.log")), 5);
    }

    #[test]
    fn sessions_listed() {
        let dio = fast_dio();
        let s1 = dio.trace(TracerConfig::new("a"));
        let s2 = dio.trace(TracerConfig::new("b"));
        s1.stop();
        s2.stop();
        assert_eq!(dio.sessions(), vec!["a".to_string(), "b".to_string()]);
        assert!(dio.session_index("a").is_some());
        assert!(dio.session_index("zzz").is_none());
    }

    #[test]
    fn live_diagnosis_and_top_view() {
        let dio = fast_dio();
        let session = dio.trace(TracerConfig::new("live").diagnose(DiagnoseConfig::default()));
        let t = dio.kernel().spawn_process("app").spawn_thread("app");
        let fd = t.creat("/hot.bin", 0o644).unwrap();
        for _ in 0..20 {
            t.write(fd, b"payload").unwrap();
        }
        t.close(fd).unwrap();

        let engine = session.diagnosis().expect("diagnose configured");
        // Wait for the tap (engine) *and* the shipper (backend index) to
        // both see the workload before rendering.
        for _ in 0..500 {
            if engine.stats().observed >= 22 && session.events_stored() >= 22 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let screen = session.top(&TopOptions::default());
        assert!(screen.contains("dio top"), "{screen}");
        assert!(screen.contains("app"), "{screen}");

        let report = session.stop();
        let stats = report.trace.diagnosis.expect("summary carries stats");
        assert_eq!(stats.observed, report.trace.events_stored);
    }

    #[test]
    fn rules_sessions_show_the_rules_panel_in_top() {
        let dio = fast_dio();
        let session = dio.trace(TracerConfig::new("ruled-top").shipped_rules());
        let t = dio.kernel().spawn_process("app").spawn_thread("app");
        let fd = t.creat("/f.bin", 0o644).unwrap();
        t.write(fd, b"x").unwrap();
        t.close(fd).unwrap();
        let engine = session.diagnosis().expect("shipped rules imply diagnosis");
        for _ in 0..500 {
            if engine.stats().observed >= 3 && session.events_stored() >= 3 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let screen = session.top(&TopOptions::default());
        assert!(screen.contains("### Rules"), "{screen}");
        assert!(screen.contains("data_loss"), "{screen}");
        assert!(screen.contains("contention_skew"), "{screen}");
        session.stop();
    }

    #[test]
    fn top_without_diagnosis_still_renders() {
        let dio = fast_dio();
        let session = dio.trace(TracerConfig::new("plain-top"));
        let t = dio.kernel().spawn_process("p").spawn_thread("p");
        t.creat("/f", 0o644).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(300));
        assert!(session.diagnosis().is_none());
        let screen = session.top(&TopOptions::default());
        assert!(screen.contains("none active"));
        session.stop();
    }

    #[test]
    fn clone_shares_pipeline() {
        let dio = fast_dio();
        let clone = dio.clone();
        let session = dio.trace(TracerConfig::new("shared"));
        let t = clone.kernel().spawn_process("p").spawn_thread("p");
        t.creat("/x", 0o644).unwrap();
        session.stop();
        assert_eq!(clone.session_index("shared").unwrap().len(), 1);
    }
}
