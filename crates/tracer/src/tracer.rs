//! The user-space tracer: consume ring buffers, batch, ship to the backend.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, SendError, Sender};
use serde_json::{json, Value};

use dio_backend::{DocStore, Index};
use dio_diagnose::{Alert, DiagnoseConfig, DiagnosisEngine, EngineStats};
use dio_ebpf::{ProgramConfig, RawEvent, RingBuffer, RingStats, TracerProgram};
use dio_kernel::{Kernel, ProbeId, SyscallProbe};
use dio_profile::DfgMiner;
use dio_rules::RuleSet;
use dio_syscall::SyscallEvent;
use dio_telemetry::span::{monotonic_ns, SpanCollector, SpanSummary, Stage, StageStamps};
use dio_telemetry::{
    trace, Counter, Exporter, ExporterHandle, HealthRound, Histogram, MetricsRegistry,
    TelemetrySnapshot,
};
use dio_verify::VerifyError;

use crate::config::{TracerConfig, DRAIN_BATCH};
use crate::policy::{Ack, Bulk, Consumer, Shipper, Spare, Wait};

/// Why [`Tracer::try_attach`] refused to attach.
///
/// Both variants are *load-time* rejections: nothing was attached, no
/// tracepoint was enabled, and the backend holds no session index.
#[derive(Debug)]
pub enum AttachError {
    /// The event filter was statically rejected by `dio-verify`.
    Filter(VerifyError),
    /// A configured `dio-rules` rule file failed to parse or was
    /// rejected by the rule verifier.
    Rules {
        /// Index of the offending source in
        /// [`TracerConfig::rule_sources`].
        index: usize,
        /// The parse or verification error.
        error: dio_rules::CompileError,
    },
}

impl AttachError {
    /// Whether the rejection includes the given filter-verifier rule
    /// (convenience passthrough to [`VerifyError::violates`]).
    pub fn violates(&self, rule: dio_verify::Rule) -> bool {
        matches!(self, AttachError::Filter(err) if err.violates(rule))
    }

    /// The rule-compilation error, when rules caused the rejection.
    pub fn rules_error(&self) -> Option<&dio_rules::CompileError> {
        match self {
            AttachError::Rules { error, .. } => Some(error),
            AttachError::Filter(_) => None,
        }
    }
}

impl std::fmt::Display for AttachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttachError::Filter(err) => err.fmt(f),
            AttachError::Rules { index, error } => {
                write!(f, "rule file #{index} rejected: {error}")
            }
        }
    }
}

impl std::error::Error for AttachError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AttachError::Filter(err) => Some(err),
            AttachError::Rules { error, .. } => Some(error),
        }
    }
}

impl From<VerifyError> for AttachError {
    fn from(err: VerifyError) -> Self {
        AttachError::Filter(err)
    }
}

/// The engine of a diagnosed session: the shipped rule files
/// (`rules/*.dio`), their windows [`DiagnoseConfig::window_ns`] wide, then
/// the session's `configured` sets — a custom rule adds to the shipped
/// verdicts, it never replaces them. All of them are installed as one
/// [`RuleSet::join`]ed set, so window rules of any file with one `(width,
/// slide, key field)` route an event once between them.
pub fn diagnosis_engine(config: DiagnoseConfig, configured: Vec<RuleSet>) -> Arc<DiagnosisEngine> {
    let shipped = dio_rules::shipped::compile_all(config.window_ns);
    let engine = DiagnosisEngine::new(config);
    engine.install_detector(Box::new(RuleSet::join(shipped.into_iter().chain(configured))));
    engine
}

/// Re-diagnoses a stored session: the engine a live session gets
/// ([`diagnosis_engine`]) is fed the index's syscall events in `(time, id)`
/// order, a default drain at a time, and finished. The rows are read as the
/// typed events they are ([`Index::with_events_by_time`]), so a verdict over a
/// stored session is the rules' verdict, reached through the evaluator the
/// tap uses; in time order no window sees a late event.
pub fn diagnose_index(
    index: &Index,
    config: DiagnoseConfig,
    configured: Vec<RuleSet>,
) -> Arc<DiagnosisEngine> {
    let engine = diagnosis_engine(config, configured);
    index.with_events_by_time(|events| {
        for drain in events.chunks(DRAIN_BATCH) {
            engine.observe_batch(drain);
        }
    });
    engine.finish();
    engine
}

/// Makes `miner` the engine's attributor: each committed alert of a rule
/// with `attribution on` gets the critical directly-follows edge over its
/// window plus the overlapping flight-recorder spans.
pub fn attribute_with(engine: &DiagnosisEngine, miner: &Arc<DfgMiner>) {
    let miner = Arc::clone(miner);
    engine.set_attributor(Box::new(move |alert| {
        let spans = trace::recorder().snapshot();
        miner.attribute(
            alert.window_start_ns,
            alert.window_end_ns,
            alert.time_ns,
            &alert.subject,
            &spans,
        )
    }));
}

/// Summary of a finished tracing session.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// The session name.
    pub session: String,
    /// The backend index holding the events.
    pub index_name: String,
    /// Events stored at the backend.
    pub events_stored: u64,
    /// Events dropped at the ring buffer (consumer lagged).
    pub events_dropped: u64,
    /// Events rejected by the in-kernel filter.
    pub events_filtered: u64,
    /// Batches the backend acknowledged: one per bulk request in memory,
    /// one per log of a persisted store's unlogged events.
    pub batches: u64,
    /// Final self-telemetry snapshot: every pipeline metric at shutdown
    /// (see the DESIGN.md "Self-telemetry" section for the catalog).
    pub health: TelemetrySnapshot,
    /// Span-derived statistics: per-stage and end-to-end latency
    /// percentiles, the lag watermark, and drop attribution (see the
    /// DESIGN.md "Span lifecycle" section).
    pub spans: SpanSummary,
    /// Operator-facing warnings about the session, e.g. the empty-trace
    /// diagnosis (events were inspected but the filter admitted none).
    pub notes: Vec<String>,
    /// Every alert the live diagnosis engine raised (empty when
    /// [`crate::TracerConfig::diagnose`] was not enabled).
    pub alerts: Vec<Alert>,
    /// Live-diagnosis engine counters, when diagnosis was enabled.
    pub diagnosis: Option<EngineStats>,
    /// Final directly-follows-graph snapshot, when profiling was enabled
    /// (see [`crate::TracerConfig::profile`]); sealed at shutdown.
    pub dfg: Option<dio_profile::DfgSnapshot>,
}

impl TraceSummary {
    /// Fraction of captured events that were dropped before reaching the
    /// backend (the §III-D metric: 3.5% for the paper's RocksDB run).
    pub fn drop_rate(&self) -> f64 {
        let total = self.events_stored + self.events_dropped;
        self.events_dropped as f64 / total.max(1) as f64
    }
}

/// A live tracing session.
///
/// Construction attaches the kernel-side program and starts two user-space
/// threads mirroring DIO's pipeline:
///
/// 1. the **consumer**, which drains the per-CPU ring buffers, parses raw
///    records into typed events and groups them into bulk requests, and
/// 2. the **shipper**, which bulk-indexes each request at the backend,
///
/// so the only work on the traced application's critical path is the
/// kernel-side filter/enrich/push (§II "Asynchronous event handling").
///
/// # Examples
///
/// ```
/// use dio_backend::DocStore;
/// use dio_kernel::Kernel;
/// use dio_tracer::{Tracer, TracerConfig};
///
/// let kernel = Kernel::new();
/// let backend = DocStore::new();
/// let tracer = Tracer::attach(TracerConfig::new("demo"), &kernel, backend.clone());
///
/// let t = kernel.spawn_process("app").spawn_thread("app");
/// t.creat("/f", 0o644)?;
///
/// let summary = tracer.stop();
/// assert_eq!(summary.events_stored, 1);
/// assert_eq!(backend.index("dio-demo").len(), 1);
/// # Ok::<(), dio_kernel::Errno>(())
/// ```
pub struct Tracer {
    index_name: String,
    kernel: Kernel,
    probe_id: ProbeId,
    program: Arc<TracerProgram>,
    stop_flag: Arc<AtomicBool>,
    consumer: Option<JoinHandle<()>>,
    shipper: Option<JoinHandle<()>>,
    /// `tracer.shipper.batch_size`: one sample per acknowledged batch, its
    /// events.
    acknowledged: Arc<Histogram>,
    registry: Arc<MetricsRegistry>,
    spans: Arc<SpanCollector>,
    exporter: Option<ExporterHandle>,
    engine: Option<Arc<DiagnosisEngine>>,
    /// The streaming DFG miner, when [`TracerConfig::profile`] enabled it.
    profiler: Option<Arc<DfgMiner>>,
    /// Destination for the alert and phase documents raised after the
    /// consumer exits (the end-of-stream passes during shutdown). Its store
    /// is the one every pipeline stage ships into, flushed at shutdown so
    /// session close is a durability point for persistent backends.
    sink: AlertSink,
    /// The session's causal root span in the flight recorder: every
    /// shipped batch parents to it, so one session is one trace.
    session_span: Option<trace::ManualSpan>,
}

/// Destination for live alert and phase documents (the session's telemetry
/// index).
#[derive(Clone)]
struct AlertSink {
    backend: DocStore,
    telemetry_index: String,
    session: String,
}

impl AlertSink {
    /// Bulk-indexes alerts as `kind: "alert"` documents.
    fn ship(&self, alerts: &[Alert]) {
        self.ship_docs(alerts.iter().map(Alert::to_document).collect());
    }

    /// Bulk-indexes already-typed documents (e.g. the profiler's
    /// `kind: "phase"` documents), stamped with the session name.
    fn ship_docs(&self, mut docs: Vec<Value>) {
        if docs.is_empty() {
            return;
        }
        for doc in docs.iter_mut() {
            doc["session"] = json!(self.session);
        }
        self.backend.bulk(&self.telemetry_index, docs);
    }
}

/// In-process feed from the consumer thread to the diagnosis engine.
struct DiagnoseTap {
    engine: Arc<DiagnosisEngine>,
    sink: AlertSink,
}

/// In-process feed from the consumer thread to the DFG profiler.
struct ProfileTap {
    miner: Arc<DfgMiner>,
    /// Ships `kind: "phase"` documents.
    sink: AlertSink,
}

/// Emptied requests kept for reuse: the one the consumer fills while the
/// shipper works on another.
const SPARES: usize = 2;

/// The hand-off from consumer to shipper: one channel message per bulk
/// request, bounded in *documents*. The consumer adds a drain's documents
/// as it takes them out of the ring — they are in flight while it holds
/// them for their bulk — and never drains more than `capacity - in_flight`;
/// the shipper subtracts documents once the backend has acknowledged them.
struct Handoff {
    capacity: usize,
    /// Documents drained and not yet acknowledged. Relaxed: it gates how
    /// much the consumer drains and publishes no data (the documents travel
    /// through the channel's mutex); a stale read only under-estimates the
    /// room.
    in_flight: AtomicUsize,
    /// The vectors of requests the shipper is done with, which the
    /// consumer fills again instead of growing new ones.
    spares: Mutex<Vec<Spare>>,
}

impl Handoff {
    fn new(capacity: usize) -> Self {
        Handoff { capacity, in_flight: AtomicUsize::new(0), spares: Mutex::default() }
    }

    /// An emptied request's vectors, or new ones.
    fn spare(&self) -> Spare {
        self.spares.lock().unwrap_or_else(PoisonError::into_inner).pop().unwrap_or_default()
    }

    /// Keeps a request's vectors, emptied, for a later one.
    fn recycle(&self, (mut events, mut stamps): Spare) {
        events.clear();
        stamps.clear();
        let mut spares = self.spares.lock().unwrap_or_else(PoisonError::into_inner);
        if spares.len() < SPARES {
            spares.push((events, stamps));
        }
    }
}

/// Telemetry handles for the consumer thread.
struct ConsumerTelemetry {
    polls: Arc<Counter>,
    /// Bulk requests handed to the shipper.
    handoffs: Arc<Counter>,
    drain_batch: Arc<Histogram>,
    parse_ns: Arc<Histogram>,
}

impl ConsumerTelemetry {
    fn register(registry: &MetricsRegistry) -> Self {
        ConsumerTelemetry {
            polls: registry.counter("tracer.consumer.polls"),
            handoffs: registry.counter("tracer.consumer.handoffs"),
            drain_batch: registry.histogram("tracer.consumer.drain_batch"),
            parse_ns: registry.histogram("tracer.consumer.parse_ns"),
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("session", &self.sink.session)
            .field("stored", &self.events_stored())
            .finish()
    }
}

impl Tracer {
    /// Attaches the tracer to `kernel` and starts the pipeline into
    /// `backend`.
    ///
    /// # Panics
    ///
    /// Panics with the verifier's diagnostics when the configuration's
    /// filter is statically rejected (see [`Tracer::try_attach`] for the
    /// non-panicking form).
    pub fn attach(config: TracerConfig, kernel: &Kernel, backend: DocStore) -> Tracer {
        Self::try_attach(config, kernel, backend).unwrap_or_else(|err| panic!("{err}"))
    }

    /// Attaches the tracer after statically verifying the configuration.
    ///
    /// This is the load-time gate of DESIGN.md §9: the filter is analyzed
    /// by `dio-verify` — and every configured `dio-rules` file by the
    /// rule verifier — before any tracepoint is enabled, so a spec that
    /// provably traces nothing (or costs unbounded per-event work, or a
    /// rule that provably never fires) is rejected here instead of
    /// producing a silently empty session.
    ///
    /// # Errors
    ///
    /// Returns the [`AttachError`] naming each violated filter rule or
    /// the rule-file diagnostics.
    pub fn try_attach(
        config: TracerConfig,
        kernel: &Kernel,
        backend: DocStore,
    ) -> Result<Tracer, AttachError> {
        // Rule files gate attach exactly like the filter does: reject
        // before any tracepoint or ring buffer exists.
        let rule_sets = config
            .rule_sources()
            .iter()
            .enumerate()
            .map(|(index, src)| {
                dio_rules::compile(src).map_err(|error| AttachError::Rules { index, error })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let ring = Arc::new(RingBuffer::new(kernel.num_cpus(), config.ring_config()));
        let (enter_cost_ns, exit_cost_ns) = config.costs();
        let program = TracerProgram::new(
            ProgramConfig {
                filter: config.filter_spec().clone(),
                enter_cost_ns,
                exit_cost_ns,
                ..ProgramConfig::default()
            },
            Arc::clone(&ring),
        )?;
        let probe_id = kernel.tracepoints().attach(Arc::clone(&program) as Arc<dyn SyscallProbe>);

        // Self-telemetry: one registry per session, shared by every pipeline
        // stage. Binding is done before the worker threads start so no
        // increment is lost.
        let registry = Arc::new(MetricsRegistry::new());
        kernel.bind_telemetry(&registry);
        program.bind_telemetry(&registry);
        backend.bind_telemetry(&registry);
        let spans = SpanCollector::new(&registry);
        program.bind_spans(Arc::clone(&spans));

        // Live diagnosis (off by default): the consumer thread taps every
        // parsed batch into the engine, so alerts rise while the trace
        // runs — no backend round-trip involved. Configured rules imply
        // diagnosis even without an explicit DiagnoseConfig, and add to the
        // shipped ones; rule sets install before telemetry binds so their
        // per-rule counters (`diagnose.rule.*`) register with the session
        // registry.
        let diagnose_config = config
            .diagnose_config()
            .or_else(|| (!rule_sets.is_empty()).then(DiagnoseConfig::default));
        let engine = diagnose_config
            .map(|diagnose| diagnosis_engine(diagnose, rule_sets))
            .inspect(|engine| engine.bind_telemetry(&registry));
        let sink = AlertSink {
            backend: backend.clone(),
            telemetry_index: config.telemetry_index_name(),
            session: config.session().to_string(),
        };

        // Streaming DFG profiling (off by default): the consumer feeds the
        // miner the same parsed batches at the same pressure signal the
        // diagnosis tap sees, and with diagnosis also on the miner becomes
        // the engine's attributor.
        let profiler = config
            .profile_config()
            .map(DfgMiner::new)
            .inspect(|miner| miner.bind_telemetry(&registry));
        if let (Some(engine), Some(miner)) = (&engine, &profiler) {
            attribute_with(engine, miner);
        }

        // The session's root span: batches shipped on the shipper thread
        // parent to it via its SpanCtx, so the flight recorder sees one
        // causal tree per session.
        let mut session_span = trace::begin_manual("session", "session", None);
        session_span.attr("sid", trace::fnv64(config.session()));
        let session_ctx = session_span.ctx();

        let stop_flag = Arc::new(AtomicBool::new(false));
        let acknowledged = registry.histogram("tracer.shipper.batch_size");
        // A deep hand-off so the consumer is rarely held back by the
        // shipper. Every message holds at least one document, so a channel
        // of `capacity` messages never fills before the document bound
        // does and `send` never blocks.
        let handoff = Arc::new(Handoff::new(config.batch() * 64));
        let (tx, rx) = bounded::<Bulk>(handoff.capacity);
        // Read at every snapshot, so it is current while the consumer sleeps.
        let depth = Arc::clone(&handoff);
        registry.gauge_fn("tracer.channel.depth", move || {
            depth.in_flight.load(Ordering::Relaxed) as u64
        });

        let ctx = ConsumerCtx {
            ring: Arc::clone(&ring),
            stop: Arc::clone(&stop_flag),
            session: Arc::from(config.session()),
            handoff: Arc::clone(&handoff),
            drain_batch: config.drain(),
            batch_size: config.batch(),
            poll_interval: config.poll(),
            flush_interval: config.flush(),
            spans: Arc::clone(&spans),
            telemetry: ConsumerTelemetry::register(&registry),
            tap: engine
                .as_ref()
                .map(|engine| DiagnoseTap { engine: Arc::clone(engine), sink: sink.clone() }),
            profile: profiler
                .as_ref()
                .map(|miner| ProfileTap { miner: Arc::clone(miner), sink: sink.clone() }),
        };
        let consumer = std::thread::Builder::new()
            .name(format!("dio-consumer-{}", config.session()))
            .spawn(move || consumer_loop(&ctx, tx))
            .expect("spawn consumer thread");
        let ctx = ShipperCtx {
            backend: backend.clone(),
            index_name: config.index_name(),
            handoff,
            spans: Arc::clone(&spans),
            batch_ns: registry.histogram("tracer.shipper.batch_ns"),
            batch_size: Arc::clone(&acknowledged),
            session_ctx,
        };
        // batch_ns carries metric→trace exemplars so OpenMetrics scrapes can
        // link latency buckets to flight-recorder spans.
        ctx.batch_ns.enable_exemplars();
        let shipper = Shipper::new(backend.is_persistent(), config.batch(), config.flush());
        let shipper = std::thread::Builder::new()
            .name(format!("dio-shipper-{}", config.session()))
            .spawn(move || shipper_loop(&ctx, shipper, &rx))
            .expect("spawn shipper thread");

        let exporter = {
            let health = sink.clone();
            let lag_spans = Arc::clone(&spans);
            Exporter::new(config.session(), config.telemetry_tick()).spawn(
                Arc::clone(&registry),
                // Recompute the lag watermark right before each export so
                // the shipped gauge is current, not last-event stale.
                move |_| {
                    lag_spans.refresh_lag();
                },
                move |round| {
                    ship_health_round(
                        &health.backend,
                        &health.telemetry_index,
                        &health.session,
                        round,
                    )
                },
            )
        };

        Ok(Tracer {
            index_name: config.index_name(),
            kernel: kernel.clone(),
            probe_id,
            program,
            stop_flag,
            consumer: Some(consumer),
            shipper: Some(shipper),
            acknowledged,
            registry,
            spans,
            exporter: Some(exporter),
            engine,
            profiler,
            sink,
            session_span: Some(session_span),
        })
    }

    /// The session name.
    pub fn session(&self) -> &str {
        &self.sink.session
    }

    /// The backend index this tracer writes to.
    pub fn index_name(&self) -> &str {
        &self.index_name
    }

    /// Live ring-buffer counters.
    pub fn ring_stats(&self) -> RingStats {
        self.program.ring().stats()
    }

    /// Events the backend has acknowledged so far. On a persisted store an
    /// event is acknowledged once it is logged (in the page cache), and it
    /// is queryable before that: the shipper has the index log what it holds
    /// when it catches up, at `batch_size` events, or when the oldest falls
    /// `flush_interval` due ([`crate::policy::Shipper::step`]).
    pub fn events_stored(&self) -> u64 {
        self.acknowledged.sum()
    }

    /// The session's metrics registry.
    ///
    /// Components outside the tracer pipeline (e.g. the `dio-lsmkv` store's
    /// `Db::bind_telemetry`) can register their own metrics here so they
    /// ride along in the same health documents.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// A live snapshot of every pipeline metric (the lag watermark gauge
    /// is recomputed first, so it reflects now rather than the last tick).
    pub fn health_snapshot(&self) -> TelemetrySnapshot {
        self.spans.refresh_lag();
        self.registry.snapshot()
    }

    /// Live span-derived statistics (per-stage/e2e latency percentiles,
    /// lag watermark, drop attribution).
    pub fn span_summary(&self) -> SpanSummary {
        self.spans.summary()
    }

    /// The live diagnosis engine, when [`crate::TracerConfig::diagnose`]
    /// enabled it — poll [`DiagnosisEngine::alerts`] /
    /// [`DiagnosisEngine::active_alerts`] for verdicts *during* the trace.
    pub fn diagnosis(&self) -> Option<Arc<DiagnosisEngine>> {
        self.engine.clone()
    }

    /// The streaming DFG miner, when [`crate::TracerConfig::profile`]
    /// enabled it — poll [`DfgMiner::snapshot`] for the graphs *during*
    /// the trace, or keep the `Arc` across [`Tracer::stop`] for the final
    /// (sealed) state.
    pub fn profiler(&self) -> Option<Arc<DfgMiner>> {
        self.profiler.clone()
    }

    /// Detaches from the kernel, drains every buffered event, flushes the
    /// last batch, and returns the session summary.
    pub fn stop(mut self) -> TraceSummary {
        self.shutdown()
    }

    fn shutdown(&mut self) -> TraceSummary {
        let first_shutdown = self.consumer.is_some();
        if let Some(consumer) = self.consumer.take() {
            self.kernel.tracepoints().detach(self.probe_id);
            self.stop_flag.store(true, Ordering::Release);
            // An idle consumer is parked until the next push, or for up to
            // `poll_interval`: wake it so stopping never waits for either.
            consumer.thread().unpark();
            let _ = consumer.join();
            let _ = self.shipper.take().map(JoinHandle::join);
        }
        let ring = self.program.ring().stats();
        let prog = self.program.stats();
        let mut notes = Vec::new();
        // Empty-trace diagnosis: the filter inspected events but admitted
        // none. The verifier rejects specs where this is statically
        // certain; this catches the runtime-contingent cases (wrong pid,
        // path nobody touched, ...). Counted before the exporter's final
        // flush so the warning ships with the session's health documents.
        if first_shutdown && prog.admitted == 0 && prog.filtered > 0 {
            self.registry.counter("tracer.warn.empty_trace").inc();
            notes.push(format!(
                "empty trace: filter inspected {} event(s) and admitted none — \
                 the spec is satisfiable but matched nothing at runtime",
                prog.filtered
            ));
        }
        // Seal the profiler first: the engine's end-of-stream pass below
        // may raise final alerts, and their attribution should see the
        // completed transition ring and final phase window.
        if let Some(miner) = &self.profiler {
            miner.finish();
            self.sink.ship_docs(miner.drain_phase_docs());
        }
        // End-of-stream diagnosis pass: seal every open window and ship
        // the final alerts before the exporter's last flush, so the
        // `diagnose.*` counters in the shipped health documents are final.
        let (alerts, diagnosis) = match &self.engine {
            Some(engine) => {
                engine.finish();
                self.sink.ship(&engine.drain_unshipped());
                (engine.alerts(), Some(engine.stats()))
            }
            None => (Vec::new(), None),
        };
        // Stop the exporter only after the pipeline has drained, so its
        // final flush ships the end state of every metric.
        if let Some(exporter) = self.exporter.take() {
            exporter.stop();
        }
        // Session close is a durability point: everything the pipeline
        // shipped — events, health documents, final alerts — is fsynced
        // before the summary is handed back. A no-op for in-memory stores.
        let session_span = self.session_span.take();
        let flush_span = session_span
            .as_ref()
            .map(|span| trace::span_child_of(Some(span.ctx()), "storage", "storage.flush"));
        let _ = self.sink.backend.flush();
        drop(flush_span);
        if let Some(mut session_span) = session_span {
            session_span.attr("events", self.acknowledged.sum());
            session_span.attr("batches", self.acknowledged.count());
            session_span.finish();
        }
        // Summarize spans first: it refreshes the lag gauges, so the
        // health snapshot below carries the final (drained = 0) lag.
        let spans = self.spans.summary();
        TraceSummary {
            session: self.sink.session.clone(),
            index_name: self.index_name.clone(),
            events_stored: self.acknowledged.sum(),
            events_dropped: ring.dropped,
            events_filtered: prog.filtered,
            batches: self.acknowledged.count(),
            health: self.registry.snapshot(),
            spans,
            notes,
            alerts,
            diagnosis,
            dfg: self.profiler.as_ref().map(|m| m.snapshot()),
        }
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        // Never fails: detach and stop threads if `stop` was not called.
        let _ = self.shutdown();
    }
}

/// Everything the consumer thread needs, bundled like [`ShipperCtx`].
struct ConsumerCtx {
    ring: Arc<RingBuffer<RawEvent>>,
    stop: Arc<AtomicBool>,
    /// Shared by every event the consumer parses.
    session: Arc<str>,
    handoff: Arc<Handoff>,
    drain_batch: usize,
    batch_size: usize,
    poll_interval: Duration,
    flush_interval: Duration,
    spans: Arc<SpanCollector>,
    telemetry: ConsumerTelemetry,
    tap: Option<DiagnoseTap>,
    profile: Option<ProfileTap>,
}

/// Drives [`Consumer::step`]: polls, sends what it hands over, and sleeps
/// as told — on a timer, or on the ring until the first push once it caught
/// up (DESIGN.md §17.5). `shutdown()` unparks it too.
/// Dropping `tx` on return closes the channel and the shipper exits.
fn consumer_loop(ctx: &ConsumerCtx, tx: Sender<Bulk>) {
    let (session, drain, batch) = (Arc::clone(&ctx.session), ctx.drain_batch, ctx.batch_size);
    let mut consumer = Consumer::new(session, drain, batch, ctx.poll_interval, ctx.flush_interval);
    ctx.ring.wake_on_push(std::thread::current());
    loop {
        // Sampled before draining: post-drain occupancy is flattered by the
        // drain itself and would hide the pressure the taps degrade under.
        let pressure = ctx.ring.fill_fraction();
        let in_flight = ctx.handoff.in_flight.load(Ordering::Relaxed);
        ctx.telemetry.polls.inc();
        let room = ctx.handoff.capacity.saturating_sub(in_flight);
        let stopping = ctx.stop.load(Ordering::Acquire);
        let (drained, wait) = consumer.step(monotonic_ns(), &ctx.ring, room, stopping);
        if drained > 0 {
            ctx.handoff.in_flight.fetch_add(drained, Ordering::Relaxed);
            let pressure = pressure.max(in_flight as f64 / ctx.handoff.capacity as f64);
            observe(ctx, consumer.held(), drained, pressure);
        }
        while let Some(mut bulk) = consumer.bulk(|| ctx.handoff.spare()) {
            bulk.enqueued_ns = monotonic_ns();
            if let Err(SendError(refused)) = tx.send(bulk) {
                consumer.refused(&refused).for_each(|stamp| ctx.spans.record_drop(stamp));
                return;
            }
            ctx.telemetry.handoffs.inc();
        }
        match wait {
            Wait::Until(at) => {
                let nap = at.saturating_sub(monotonic_ns());
                if nap > 0 {
                    std::thread::park_timeout(Duration::from_nanos(nap));
                }
            }
            Wait::UntilPush => ctx.ring.nap(),
            Wait::Message | Wait::Stop => return,
        }
    }
}

/// Records a drain's telemetry and lends its events to the taps.
fn observe(ctx: &ConsumerCtx, held: (&[SyscallEvent], &[StageStamps]), n: usize, pressure: f64) {
    let first = held.0.len() - n;
    let (events, stamps) = (&held.0[first..], &held.1[first..]);
    ctx.telemetry.drain_batch.record(events.len() as u64);
    // One clock read per event is its `Parse` stamp, ends its `parse_ns`
    // sample and starts the next event's; the first starts at the drain.
    let mut parsed_at = stamps[0].get(Stage::RingDrain).unwrap_or(0);
    let parsed = stamps.iter().filter_map(|st| st.get(Stage::Parse));
    let samples = parsed.map(|at| at.saturating_sub(std::mem::replace(&mut parsed_at, at)));
    ctx.telemetry.parse_ns.record_all(samples, 0);
    // The taps read the typed events as they are, at once: no document is
    // built for them. Past a tap's pressure threshold it evaluates a sample
    // instead of every event, so diagnosis sheds load rather than slowing
    // the drain (and growing the drops it exists to observe). The profiler
    // observes *before* the engine: an alert raised by this very batch is
    // attributed against a transition ring that already includes it.
    if let Some(profile) = &ctx.profile {
        profile.miner.observe_batch_with_pressure(events, pressure);
        profile.sink.ship_docs(profile.miner.drain_phase_docs());
    }
    if let Some(tap) = &ctx.tap {
        tap.sink.ship(&tap.engine.observe_batch_with_pressure(events, pressure));
    }
    // The lag peak is sampled where the lag is made, not only on the
    // exporter's rounds.
    ctx.spans.refresh_lag();
}

/// Everything the shipper thread needs, bundled to keep the loop readable.
struct ShipperCtx {
    backend: DocStore,
    index_name: String,
    handoff: Arc<Handoff>,
    spans: Arc<SpanCollector>,
    batch_ns: Arc<Histogram>,
    batch_size: Arc<Histogram>,
    /// The session root span's coordinates: each acknowledged batch opens a
    /// `ship.batch` child of it (cross-thread parenting).
    session_ctx: trace::SpanCtx,
}

/// Drives [`Shipper::step`]: blocks for a bulk and has the index accept, log
/// and acknowledge as told. The consumer decided each bulk's size and moment,
/// so an idle shipper sleeps until there is one; what a persisted index holds
/// unlogged has a bulk behind it.
fn shipper_loop(ctx: &ShipperCtx, mut shipper: Shipper, rx: &Receiver<Bulk>) {
    loop {
        let input = rx.recv().ok().map(|bulk| (bulk, !rx.is_empty()));
        let (bulk, ack, wait) = shipper.step(monotonic_ns(), input);
        if let Some(mut bulk) = bulk {
            let Bulk { events, stamps, .. } = &mut bulk;
            let mut accept = || ctx.backend.accept_events(&ctx.index_name, events);
            if let Ack::Accept = ack {
                acknowledge(ctx, stamps, accept);
            } else {
                accept();
            }
            ctx.handoff.recycle((bulk.events, bulk.stamps));
        }
        if let Ack::Log(mut stamps) = ack {
            acknowledge(ctx, &mut stamps, || ctx.backend.log_events(&ctx.index_name));
        }
        if wait == Wait::Stop {
            return;
        }
    }
}

/// Acknowledges the events whose stamps are `stamps` once `request` has made
/// them durable: one `ship.batch` span around it, carrying the oldest event's
/// stage breakdown, and one clock read for every `BulkIndex` stamp.
fn acknowledge<T>(ctx: &ShipperCtx, stamps: &mut [StageStamps], request: impl FnOnce() -> T) {
    let n = stamps.len() as u64;
    let batch_start = Instant::now();
    // The causal chain of one acknowledged batch: ship.batch →
    // backend.bulk → storage.append → storage.fsync, all nested via the
    // shipper thread's span stack.
    let mut ship_span = trace::span_child_of(Some(ctx.session_ctx), "ship", "ship.batch");
    ship_span.attr("docs", n);
    request();
    let acknowledged = monotonic_ns();
    for stamp in stamps.iter_mut() {
        stamp.stamp(Stage::BulkIndex, acknowledged);
    }
    let batch_ns = batch_start.elapsed().as_nanos() as u64;
    // Every event of the batch carries the same bulk-index stamp, so
    // the oldest has the largest end-to-end time: its stage breakdown
    // rides on the batch's span. The span histograms are fed while that
    // span is open, so e2e's exemplars name the session's trace too.
    if let Some(oldest) = stamps.iter().max_by_key(|st| st.e2e_ns()) {
        ship_span.attr("e2e_ns", oldest.e2e_ns().unwrap_or(0));
        for (name, ns) in oldest.transitions() {
            ship_span.attr(name, ns.unwrap_or(0));
        }
    }
    ctx.spans.record_shipped_all(stamps);
    drop(ship_span);
    ctx.handoff.in_flight.fetch_sub(stamps.len(), Ordering::Relaxed);
    // Recorded with the session trace id as an exemplar: a `/metrics`
    // scrape can jump from a slow batch_ns bucket straight to this
    // session's span tree in the flight-recorder dump.
    ctx.batch_ns.record_with_exemplar(batch_ns, ctx.session_ctx.trace_id);
    ctx.batch_size.record(n);
}

/// Ships one export round into the session's telemetry index: the health
/// documents of the metrics that changed and, on a persisted store, a
/// `kind: "storage"` report stamped with the round's `session`, `seq` and
/// `time`, so the dashboard can align them — every round, whether a metric
/// changed in it or not. A round with nothing to store makes no request.
fn ship_health_round(backend: &DocStore, index: &str, session: &str, round: HealthRound) {
    let HealthRound { seq, time_ns, mut documents } = round;
    if let Some(report) = backend.storage_report() {
        let mut doc = report.to_document();
        doc["session"] = Value::from(session);
        doc["seq"] = Value::from(seq);
        doc["time"] = Value::from(time_ns);
        documents.push(doc.to_string());
    }
    if !documents.is_empty() {
        backend.bulk_text(index, documents).expect("health documents are JSON text");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dio_backend::Query;
    use dio_kernel::{DiskProfile, OpenFlags};
    use dio_syscall::SyscallKind;
    use std::sync::atomic::AtomicU64;

    fn kernel() -> Kernel {
        Kernel::builder().root_disk(DiskProfile::instant()).build()
    }

    #[test]
    fn end_to_end_trace_to_backend() {
        let k = kernel();
        let backend = DocStore::new();
        let tracer = Tracer::attach(TracerConfig::new("e2e"), &k, backend.clone());
        let t = k.spawn_process("app").spawn_thread("app");
        let fd = t.openat("/app.log", OpenFlags::CREAT | OpenFlags::RDWR, 0o644).unwrap();
        t.write(fd, b"abcdefghijklmnopqrstuvwxyz").unwrap();
        t.close(fd).unwrap();
        let summary = tracer.stop();
        assert_eq!(summary.events_stored, 3);
        assert_eq!(summary.events_dropped, 0);
        assert_eq!(summary.drop_rate(), 0.0);

        let idx = backend.index("dio-e2e");
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.count(&Query::term("syscall", "write")), 1);
        assert_eq!(idx.count(&Query::term("proc_name", "app")), 3);
        let hit =
            &idx.search(&dio_backend::SearchRequest::new(Query::term("syscall", "write"))).hits[0];
        assert_eq!(hit.source["ret_val"], 26);
        assert_eq!(hit.source["offset"], 0);
        assert!(hit.source["file_tag"].as_str().unwrap().contains('|'));
    }

    #[test]
    fn filtered_sessions_store_only_matching() {
        let k = kernel();
        let backend = DocStore::new();
        let tracer = Tracer::attach(
            TracerConfig::new("filtered").syscalls([SyscallKind::Write]),
            &k,
            backend.clone(),
        );
        let t = k.spawn_process("app").spawn_thread("app");
        let fd = t.openat("/f", OpenFlags::CREAT | OpenFlags::RDWR, 0o644).unwrap();
        t.write(fd, b"1").unwrap();
        t.write(fd, b"2").unwrap();
        t.close(fd).unwrap();
        let summary = tracer.stop();
        assert_eq!(summary.events_stored, 2);
        assert_eq!(backend.index("dio-filtered").count(&Query::term("syscall", "write")), 2);
    }

    #[test]
    fn stop_drains_pending_events() {
        let k = kernel();
        let backend = DocStore::new();
        let tracer = Tracer::attach(
            TracerConfig::new("drain").batch_size(10_000).flush_interval(Duration::from_secs(60)),
            &k,
            backend.clone(),
        );
        let t = k.spawn_process("app").spawn_thread("app");
        for i in 0..50 {
            t.creat(&format!("/f{i}"), 0o644).unwrap();
        }
        // Neither batch size nor interval reached — stop must flush anyway.
        let summary = tracer.stop();
        assert_eq!(summary.events_stored, 50);
        assert_eq!(backend.index("dio-drain").len(), 50);
    }

    #[test]
    fn stop_is_a_durability_point_for_persistent_backends() {
        let dir = std::env::temp_dir().join(format!("dio-tracer-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let k = kernel();
            let backend = DocStore::open(&dir).expect("open persistent store");
            let tracer = Tracer::attach(TracerConfig::new("durable"), &k, backend.clone());
            let t = k.spawn_process("app").spawn_thread("app");
            for i in 0..8 {
                t.creat(&format!("/d{i}"), 0o644).unwrap();
            }
            let summary = tracer.stop();
            assert_eq!(summary.events_stored, 8);
        }
        // A fresh process (here: a fresh store over the same directory)
        // sees everything the stopped session shipped.
        let reopened = DocStore::open(&dir).expect("reopen");
        assert_eq!(reopened.index("dio-durable").len(), 8);
        assert_eq!(reopened.index("dio-durable").count(&Query::term("syscall", "creat")), 8);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A persisted session whose metrics stop changing still ships its
    /// storage report every round, changed (the store grew) and stamped with
    /// that round's `seq`; only the first and the final round store health
    /// documents.
    #[test]
    fn a_round_without_changed_metrics_ships_its_storage_report() {
        let dir = std::env::temp_dir().join(format!("dio-tracer-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let backend = DocStore::open(&dir).expect("open persistent store");
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter("tracer.events").add(3);
        let rounds = Arc::new(AtomicU64::new(0));
        let (sink_backend, sink_rounds) = (backend.clone(), Arc::clone(&rounds));
        let exporter = Exporter::new("s", Duration::from_millis(5)).spawn(
            Arc::clone(&registry),
            |_| {},
            move |round| {
                ship_health_round(&sink_backend, "dio-telemetry-s", "s", round);
                sink_rounds.fetch_add(1, Ordering::SeqCst);
            },
        );
        // Three rounds reach the sink within the deadline — unless it is
        // not called on rounds that changed no metric.
        let deadline = Instant::now() + Duration::from_secs(5);
        while rounds.load(Ordering::SeqCst) < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let last = exporter.stop();
        assert!(last >= 3, "{last} rounds");
        let hits = backend
            .index("dio-telemetry-s")
            .search(
                &dio_backend::SearchRequest::match_all()
                    .sort_by("seq", dio_backend::SortOrder::Asc)
                    .size(usize::MAX),
            )
            .hits;
        let seq = |doc: &Value| doc["seq"].as_u64().expect("stamped with its round's seq");
        let reports: Vec<(u64, u64)> = hits
            .iter()
            .map(|hit| &hit.source)
            .filter(|doc| doc["kind"] == "storage")
            .inspect(|doc| assert_eq!(doc["session"], "s"))
            .map(|doc| (seq(doc), doc["bytes_appended"].as_u64().expect("a storage report")))
            .collect();
        assert_eq!(reports.iter().map(|r| r.0).collect::<Vec<_>>(), (1..=last).collect::<Vec<_>>());
        assert!(reports.windows(2).all(|w| w[0].1 < w[1].1), "every report changed: {reports:?}");
        let mut health: Vec<u64> = hits
            .iter()
            .filter(|hit| hit.source.get("metric").is_some())
            .map(|hit| seq(&hit.source))
            .collect();
        health.dedup();
        assert_eq!(health, [1, last], "the metric stopped changing after the first round");
        drop(backend);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multiple_sessions_coexist() {
        let k = kernel();
        let backend = DocStore::new();
        let t1 = Tracer::attach(TracerConfig::new("s1"), &k, backend.clone());
        let t2 = Tracer::attach(TracerConfig::new("s2"), &k, backend.clone());
        let t = k.spawn_process("app").spawn_thread("app");
        t.creat("/x", 0o644).unwrap();
        let s1 = t1.stop();
        let s2 = t2.stop();
        assert_eq!(s1.events_stored, 1);
        assert_eq!(s2.events_stored, 1);
        assert_eq!(
            backend.index_names(),
            vec![
                "dio-s1".to_string(),
                "dio-s2".to_string(),
                "dio-telemetry-s1".to_string(),
                "dio-telemetry-s2".to_string(),
            ]
        );
    }

    #[test]
    fn drop_detaches_cleanly() {
        let k = kernel();
        let backend = DocStore::new();
        {
            let _tracer = Tracer::attach(TracerConfig::new("dropped"), &k, backend.clone());
        }
        // After drop, syscalls are no longer traced.
        let t = k.spawn_process("app").spawn_thread("app");
        t.creat("/after", 0o644).unwrap();
        assert!(!k.tracepoints().is_traced(SyscallKind::Creat));
        assert_eq!(backend.index("dio-dropped").count(&Query::term("args.path", "/after")), 0);
    }

    #[test]
    fn summary_exposes_span_latencies() {
        let k = kernel();
        let tracer = Tracer::attach(TracerConfig::new("spans"), &k, DocStore::new());
        let t = k.spawn_process("app").spawn_thread("app");
        for i in 0..10 {
            t.creat(&format!("/s{i}"), 0o644).unwrap();
        }
        let summary = tracer.stop();
        assert_eq!(summary.spans.completed, 10);
        assert_eq!(summary.spans.dropped, 0);
        assert_eq!(summary.spans.e2e.count, 10, "every stored event has an e2e span");
        assert!(summary.spans.e2e.max > 0);
        assert!(summary.spans.e2e.p50 <= summary.spans.e2e.p99);
        for name in SpanSummary::transition_names() {
            let stage = summary.spans.stage(name).unwrap_or_else(|| panic!("stage {name}"));
            assert_eq!(stage.count, 10, "all 10 events crossed {name}");
        }
        assert_eq!(summary.spans.lag_watermark_ns, 0, "drained at shutdown");
        assert!(summary.spans.drops_by_stage.is_empty());
        // The health gauge rode along via the exporter's final flush.
        assert!(summary.health.gauges.contains_key("span.lag.watermark_ns"));
    }

    #[test]
    fn try_attach_rejects_unsatisfiable_configs() {
        let k = kernel();
        let backend = DocStore::new();
        let err = Tracer::try_attach(TracerConfig::new("bad").syscalls([]), &k, backend.clone())
            .unwrap_err();
        assert!(err.violates(dio_verify::Rule::EmptySyscallSet));
        // Nothing was attached: syscalls run untraced.
        let t = k.spawn_process("app").spawn_thread("app");
        t.creat("/x", 0o644).unwrap();
        assert!(!k.tracepoints().is_traced(SyscallKind::Creat));
        assert!(backend.index_names().is_empty());
        // A sound config still attaches through the same path.
        let tracer = Tracer::try_attach(TracerConfig::new("ok"), &k, backend).unwrap();
        t.creat("/y", 0o644).unwrap();
        assert_eq!(tracer.stop().events_stored, 1);
    }

    #[test]
    #[should_panic(expected = "empty-pid-set")]
    fn attach_panics_with_diagnostics_on_rejected_spec() {
        let k = kernel();
        let _ = Tracer::attach(TracerConfig::new("boom").pids([]), &k, DocStore::new());
    }

    #[test]
    fn empty_trace_session_is_flagged() {
        let k = kernel();
        let backend = DocStore::new();
        // Pid 9999 is satisfiable in general but matches no live process.
        let tracer = Tracer::attach(
            TracerConfig::new("empty").pids([dio_syscall::Pid(9_999)]),
            &k,
            backend.clone(),
        );
        let t = k.spawn_process("app").spawn_thread("app");
        t.creat("/f", 0o644).unwrap();
        let summary = tracer.stop();
        assert_eq!(summary.events_stored, 0);
        assert_eq!(summary.events_filtered, 1);
        assert_eq!(summary.notes.len(), 1, "summary carries the empty-trace note");
        assert!(summary.notes[0].contains("empty trace"), "note: {}", summary.notes[0]);
        assert_eq!(summary.health.counters.get("tracer.warn.empty_trace"), Some(&1));
        // The warning also shipped with the final health documents.
        let idx = backend.index("dio-telemetry-empty");
        assert!(
            idx.count(&Query::term("metric", "tracer.warn.empty_trace")) >= 1,
            "warning counter exported to the telemetry index"
        );
    }

    #[test]
    fn sessions_with_events_carry_no_notes() {
        let k = kernel();
        let tracer = Tracer::attach(TracerConfig::new("fine"), &k, DocStore::new());
        let t = k.spawn_process("app").spawn_thread("app");
        t.creat("/f", 0o644).unwrap();
        let summary = tracer.stop();
        assert_eq!(summary.events_stored, 1);
        assert!(summary.notes.is_empty());
        assert!(!summary.health.counters.contains_key("tracer.warn.empty_trace"));
    }

    #[test]
    fn diagnosis_tap_observes_events_while_the_trace_runs() {
        use dio_diagnose::DiagnoseConfig;

        let k = kernel();
        let backend = DocStore::new();
        let tracer = Tracer::attach(
            TracerConfig::new("live").diagnose(DiagnoseConfig::default()),
            &k,
            backend.clone(),
        );
        let t = k.spawn_process("app").spawn_thread("app");
        let fd = t.openat("/app.log", OpenFlags::CREAT | OpenFlags::RDWR, 0o644).unwrap();
        t.write(fd, b"hello").unwrap();
        t.close(fd).unwrap();

        let engine = tracer.diagnosis().expect("engine present when configured");
        // The consumer thread feeds the engine asynchronously: the events
        // must arrive while the tracer is still attached.
        for _ in 0..500 {
            if engine.stats().observed >= 3 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(engine.stats().observed >= 3, "tap saw events before teardown");

        let summary = tracer.stop();
        let stats = summary.diagnosis.expect("summary carries engine stats");
        assert_eq!(stats.observed, summary.events_stored);
        assert_eq!(stats.evaluated, stats.observed, "no pressure, no sampling");
        assert!(summary.alerts.is_empty(), "healthy workload raises nothing");
    }

    #[test]
    fn sessions_without_diagnose_have_no_engine() {
        let k = kernel();
        let tracer = Tracer::attach(TracerConfig::new("plain"), &k, DocStore::new());
        assert!(tracer.diagnosis().is_none());
        let t = k.spawn_process("app").spawn_thread("app");
        t.creat("/f", 0o644).unwrap();
        let summary = tracer.stop();
        assert!(summary.diagnosis.is_none());
        assert!(summary.alerts.is_empty());
        assert!(!summary.health.counters.contains_key("diagnose.events.observed"));
    }

    #[test]
    fn try_attach_rejects_bad_rule_files() {
        let k = kernel();
        let backend = DocStore::new();
        // `offset < 0` is provably empty (offset is unsigned): the rule
        // verifier rejects the file at attach time.
        let config = TracerConfig::new("badrules")
            .rules_source("rule dead when offset < 0 then alert(critical, \"never\")");
        let err = Tracer::try_attach(config, &k, backend.clone()).unwrap_err();
        let rules_err = err.rules_error().expect("rules, not the filter, caused the reject");
        match rules_err {
            crate::RuleCompileError::Verify(v) => {
                assert!(v.violates(dio_rules::RuleCheck::UnsatisfiablePredicate))
            }
            other => panic!("expected verify rejection, got {other}"),
        }
        assert!(err.to_string().contains("rule file #0"), "{err}");
        assert!(!err.violates(dio_verify::Rule::EmptySyscallSet));
        // Nothing was attached and no session index exists.
        let t = k.spawn_process("app").spawn_thread("app");
        t.creat("/x", 0o644).unwrap();
        assert!(!k.tracepoints().is_traced(SyscallKind::Creat));
        assert!(backend.index_names().is_empty());
    }

    #[test]
    fn configured_rules_run_live_and_register_counters() {
        let k = kernel();
        let backend = DocStore::new();
        // Rules without an explicit DiagnoseConfig still get an engine;
        // the shipped files ride along and stay quiet on this workload.
        let config = TracerConfig::new("ruled")
            .rules_source(
                "rule every_write when syscall == \"write\" \
                 then alert(info, rule_match, \"write seen\") limit 2",
            )
            .shipped_rules();
        let tracer = Tracer::attach(config, &k, backend);
        assert!(tracer.diagnosis().is_some(), "rules imply live diagnosis");

        let t = k.spawn_process("app").spawn_thread("app");
        let fd = t.openat("/app.log", OpenFlags::CREAT | OpenFlags::RDWR, 0o644).unwrap();
        for _ in 0..3 {
            t.write(fd, b"hello").unwrap();
        }
        t.close(fd).unwrap();
        let summary = tracer.stop();

        // 3 writes, limit 2: two alerts fired, the third suppressed.
        assert_eq!(summary.alerts.len(), 2, "alerts: {:?}", summary.alerts);
        for alert in &summary.alerts {
            assert_eq!(alert.detector, "rules");
            assert_eq!(alert.fields["rule"], json!("every_write"));
        }
        assert_eq!(summary.health.counters.get("diagnose.rule.every_write.fired"), Some(&2));
        assert_eq!(summary.health.counters.get("diagnose.rule.every_write.suppressed"), Some(&1));
        // Shipped rules registered their counters too, without firing.
        assert_eq!(summary.health.counters.get("diagnose.rule.data_loss.fired"), Some(&0));
    }

    #[test]
    fn profile_tap_mines_dfgs_while_the_trace_runs() {
        use dio_profile::ProfileConfig;

        let k = kernel();
        let backend = DocStore::new();
        let tracer = Tracer::attach(
            TracerConfig::new("profiled").profile(ProfileConfig::default()),
            &k,
            backend.clone(),
        );
        let miner = tracer.profiler().expect("profiler present when configured");
        let t = k.spawn_process("app").spawn_thread("app");
        let fd = t.openat("/app.log", OpenFlags::CREAT | OpenFlags::RDWR, 0o644).unwrap();
        for _ in 0..4 {
            t.write(fd, b"hello").unwrap();
        }
        t.close(fd).unwrap();
        let summary = tracer.stop();
        assert_eq!(summary.events_stored, 6);
        // The kept Arc sees the final sealed state: openat→write,
        // write→write, write→close all mined on the consumer thread.
        let snap = miner.snapshot();
        assert_eq!(snap.events, 6);
        assert_eq!(snap.transitions, 5);
        let labels: Vec<String> = snap.global.edges.iter().map(|e| e.label()).collect();
        assert!(labels.contains(&"write->write".to_string()), "edges: {labels:?}");
        assert!(labels.contains(&"write->close".to_string()), "edges: {labels:?}");
        // Miner telemetry rode the session registry into the summary.
        assert_eq!(summary.health.counters.get("dfg.transitions"), Some(&5));
        // No profile config → no miner.
        let bare = Tracer::attach(TracerConfig::new("bare"), &k, DocStore::new());
        assert!(bare.profiler().is_none());
    }

    #[test]
    fn alerts_carry_dfg_attribution_when_profiling_is_on() {
        use dio_diagnose::DiagnoseConfig;
        use dio_profile::ProfileConfig;

        let k = kernel();
        let backend = DocStore::new();
        let tracer = Tracer::attach(
            TracerConfig::new("attributed")
                .diagnose(DiagnoseConfig::default())
                .profile(ProfileConfig::default()),
            &k,
            backend.clone(),
        );
        // The Fig. 2 data-loss shape: a reader resumes a recreated file
        // from a stale offset and reads 0 bytes.
        let writer = k.spawn_process("app").spawn_thread("app");
        let reader = k.spawn_process("fluent-bit").spawn_thread("fluent-bit");
        let fd = writer.openat("/log", OpenFlags::CREAT | OpenFlags::RDWR, 0o644).unwrap();
        writer.write(fd, b"abcdefghijklmnopqrstuvwxyz").unwrap();
        let rfd = reader.openat("/log", OpenFlags::RDONLY, 0).unwrap();
        let mut buf = [0u8; 26];
        reader.read(rfd, &mut buf).unwrap();
        writer.close(fd).unwrap();
        reader.close(rfd).unwrap();
        writer.unlink("/log").unwrap();
        let fd2 = writer.openat("/log", OpenFlags::CREAT | OpenFlags::RDWR, 0o644).unwrap();
        writer.write(fd2, b"0123456789").unwrap();
        let rfd2 = reader.openat("/log", OpenFlags::RDONLY, 0).unwrap();
        reader.pread64(rfd2, &mut buf, 26).unwrap();
        let summary = tracer.stop();

        let loss = summary
            .alerts
            .iter()
            .find(|a| a.kind == dio_diagnose::AlertKind::DataLoss)
            .expect("data-loss alert raised");
        let attribution = loss.attribution.as_ref().expect("alert carries attribution");
        let edge = attribution["edge"].as_str().unwrap();
        assert!(edge.contains("->"), "critical edge names a transition: {edge}");
        assert!(attribution["transitions"].as_u64().unwrap() >= 1);
        // The decoration rode the shipped alert document too.
        let idx = backend.index("dio-telemetry-attributed");
        let hits = idx.search(&dio_backend::SearchRequest::new(Query::term("kind", "alert")));
        let shipped = hits
            .hits
            .iter()
            .find(|h| h.source["alert_kind"] == "data_loss")
            .expect("alert document shipped");
        assert_eq!(shipped.source["attribution"]["edge"], json!(edge));
    }

    #[test]
    fn batching_respects_batch_size() {
        let k = kernel();
        let backend = DocStore::new();
        let tracer = Tracer::attach(TracerConfig::new("batches").batch_size(5), &k, backend);
        let t = k.spawn_process("app").spawn_thread("app");
        for i in 0..20 {
            t.creat(&format!("/b{i}"), 0o644).unwrap();
        }
        let summary = tracer.stop();
        assert_eq!(summary.events_stored, 20);
        assert!(summary.batches >= 4, "expected >=4 batches, got {}", summary.batches);

        // The same 20 events arriving in *one* drain: the consumer sleeps
        // through the burst and `stop()` wakes it, so the shipper is handed
        // four batches' worth at once and must still cut them at 5.
        let tracer = Tracer::attach(
            TracerConfig::new("one-drain").batch_size(5).poll_interval(Duration::from_secs(5)),
            &k,
            DocStore::new(),
        );
        while tracer.health_snapshot().counter("tracer.consumer.polls") == 0 {
            std::thread::yield_now();
        }
        for i in 0..20 {
            t.creat(&format!("/c{i}"), 0o644).unwrap();
        }
        let summary = tracer.stop();
        assert_eq!(summary.events_stored, 20);
        let drains = summary.health.histogram("tracer.consumer.drain_batch").expect("drains");
        assert_eq!((drains.count, drains.max), (1, 20), "all 20 events left the ring together");
        assert!(summary.batches >= 4, "expected >=4 batches, got {}", summary.batches);
        let sizes = summary.health.histogram("tracer.shipper.batch_size").expect("batches");
        assert!(sizes.max <= 5, "a bulk request of {} documents", sizes.max);
    }

    /// A bulk the shipper can no longer take is lost with whatever the
    /// consumer still holds, and every one of those events must be
    /// accounted for (`emitted == stored +
    /// attributed drops`).
    #[test]
    fn refused_drain_attributes_every_event_to_batch_enqueue() {
        let k = kernel();
        let registry = MetricsRegistry::new();
        let spans = SpanCollector::new(&registry);
        let ring = Arc::new(RingBuffer::with_slots(k.num_cpus(), 32));
        let program = TracerProgram::new(ProgramConfig::default(), Arc::clone(&ring)).unwrap();
        program.bind_spans(Arc::clone(&spans));
        let probe = k.tracepoints().attach(Arc::clone(&program) as Arc<dyn SyscallProbe>);
        let t = k.spawn_process("app").spawn_thread("app");
        for i in 0..20 {
            t.creat(&format!("/r{i}"), 0o644).unwrap();
        }
        k.tracepoints().detach(probe);
        assert_eq!(ring.occupancy(), 20);

        let ctx = ConsumerCtx {
            ring,
            stop: Arc::new(AtomicBool::new(true)),
            session: Arc::from("refused"),
            handoff: Arc::new(Handoff::new(64)),
            drain_batch: 4_096,
            batch_size: 1_000,
            poll_interval: Duration::from_micros(200),
            flush_interval: Duration::from_millis(100),
            spans: Arc::clone(&spans),
            telemetry: ConsumerTelemetry::register(&registry),
            tap: None,
            profile: None,
        };
        let (tx, rx) = bounded::<Bulk>(64);
        drop(rx);
        consumer_loop(&ctx, tx);

        let summary = spans.summary();
        assert_eq!(summary.dropped, 20);
        assert_eq!(summary.drops_by_stage.get("batch_enqueue"), Some(&20));
        assert_eq!(summary.completed, 0);
        assert_eq!(summary.lag_watermark_ns, 0, "every emitted event retired");
    }

    /// A tapped consumer lends both taps the drain's typed events and builds
    /// no document for them: a detector installed in the engine sees every
    /// event through the typed door, the miner mines every one, and the
    /// shipper is handed the same events.
    #[test]
    fn tapped_consumer_lends_the_taps_typed_events() {
        use dio_diagnose::{DiagnoseConfig, DynDetector};
        use dio_profile::ProfileConfig;
        use dio_syscall::{EventView, Field, Scalar};

        /// Counts what came through which door.
        struct Doors(Arc<[AtomicU64; 2]>);
        impl DynDetector for Doors {
            fn name(&self) -> &str {
                "doors"
            }
            fn observe(&mut self, event: &dyn EventView, _out: &mut Vec<Alert>) -> bool {
                // Only a typed event holds its tag as a tag; a document
                // spells it as a string.
                let door = match event.scalar(Field::FileTag) {
                    Some(Scalar::Tag(_)) => 0,
                    _ => 1,
                };
                self.0[door].fetch_add(1, Ordering::Relaxed);
                false
            }
            fn evaluate_ready(&mut self, _out: &mut Vec<Alert>) {}
            fn evaluate_all(&mut self, _out: &mut Vec<Alert>) {}
        }

        let k = kernel();
        let registry = MetricsRegistry::new();
        let ring = Arc::new(RingBuffer::with_slots(k.num_cpus(), 32));
        let program = TracerProgram::new(ProgramConfig::default(), Arc::clone(&ring)).unwrap();
        let probe = k.tracepoints().attach(Arc::clone(&program) as Arc<dyn SyscallProbe>);
        let t = k.spawn_process("app").spawn_thread("app");
        for i in 0..20 {
            t.creat(&format!("/t{i}"), 0o644).unwrap();
        }
        k.tracepoints().detach(probe);

        let doors = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let engine = DiagnosisEngine::new(DiagnoseConfig::default());
        engine.install_detector(Box::new(Doors(Arc::clone(&doors))));
        let miner = DfgMiner::new(ProfileConfig::default());
        let sink = AlertSink {
            backend: DocStore::new(),
            telemetry_index: "dio-telemetry-tapped".to_string(),
            session: "tapped".to_string(),
        };
        let ctx = ConsumerCtx {
            ring,
            stop: Arc::new(AtomicBool::new(true)),
            session: Arc::from("tapped"),
            handoff: Arc::new(Handoff::new(64)),
            drain_batch: 8,
            batch_size: 1_000,
            poll_interval: Duration::from_micros(200),
            flush_interval: Duration::from_millis(100),
            spans: SpanCollector::new(&registry),
            telemetry: ConsumerTelemetry::register(&registry),
            tap: Some(DiagnoseTap { engine: Arc::clone(&engine), sink: sink.clone() }),
            profile: Some(ProfileTap { miner: Arc::clone(&miner), sink }),
        };
        let (tx, rx) = bounded::<Bulk>(64);
        consumer_loop(&ctx, tx);

        let [typed, documents] = [0, 1].map(|door| doors[door].load(Ordering::Relaxed));
        assert_eq!((typed, documents), (20, 0));
        assert_eq!(engine.stats().evaluated, 20);
        assert_eq!(miner.snapshot().events, 20);
        // The consumer returned, so its sender is gone and `recv` ends.
        let handed = std::iter::from_fn(|| rx.recv().ok()).map(|bulk| bulk.events.len());
        assert_eq!(handed.sum::<usize>(), 20);
    }
}
