//! Tracer configuration (the paper's §II-F configuration file).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use dio_diagnose::DiagnoseConfig;
use dio_ebpf::{FilterSpec, RingConfig};
use dio_profile::ProfileConfig;
use dio_syscall::{Pid, SyscallKind, Tid};

static SESSION_COUNTER: AtomicU64 = AtomicU64::new(1);

/// Generates a unique session name (`dio-session-N`).
///
/// The paper labels "each tracing execution with a unique session name" so
/// that multiple executions can share one backend (§II-F).
pub fn generate_session_name() -> String {
    format!("dio-session-{}", SESSION_COUNTER.fetch_add(1, Ordering::Relaxed))
}

/// Events the consumer takes from the rings per poll, by default.
pub(crate) const DRAIN_BATCH: usize = 4_096;

/// Full configuration of a tracing session.
///
/// # Examples
///
/// ```
/// use dio_tracer::TracerConfig;
/// use dio_syscall::SyscallKind;
///
/// let config = TracerConfig::new("rocksdb-run")
///     .syscalls([SyscallKind::Open, SyscallKind::Read, SyscallKind::Write, SyscallKind::Close])
///     .batch_size(500);
/// assert_eq!(config.session(), "rocksdb-run");
/// ```
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TracerConfig {
    session: String,
    filter: FilterSpec,
    ring: RingConfig,
    batch_size: usize,
    flush_interval: Duration,
    drain_batch: usize,
    poll_interval: Duration,
    enter_cost_ns: u64,
    exit_cost_ns: u64,
    telemetry_interval: Duration,
    diagnose: Option<DiagnoseConfig>,
    rules: Vec<String>,
    profile: Option<ProfileConfig>,
}

impl TracerConfig {
    /// Configuration with the given session name, tracing all 42 syscalls
    /// system-wide with paper-default buffers (256 MiB/CPU, 1000-event
    /// batches).
    pub fn new(session: impl Into<String>) -> Self {
        TracerConfig {
            session: session.into(),
            filter: FilterSpec::new(),
            ring: RingConfig::paper_default(),
            batch_size: 1_000,
            flush_interval: Duration::from_millis(100),
            drain_batch: DRAIN_BATCH,
            poll_interval: Duration::from_micros(200),
            enter_cost_ns: 0,
            exit_cost_ns: 0,
            telemetry_interval: Duration::from_millis(100),
            diagnose: None,
            rules: Vec::new(),
            profile: None,
        }
    }

    /// Configuration with a generated unique session name.
    pub fn with_generated_session() -> Self {
        Self::new(generate_session_name())
    }

    /// Serializes the configuration as pretty JSON — the paper's §II-F
    /// configuration file ("all these configurations ... can be set
    /// through a configuration file").
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("config serializes")
    }

    /// Parses a configuration from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying parse error for malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Loads a configuration from a JSON file on the host file system.
    ///
    /// # Errors
    ///
    /// I/O errors and parse errors, boxed.
    pub fn from_file(
        path: impl AsRef<std::path::Path>,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let raw = std::fs::read_to_string(path)?;
        Ok(Self::from_json(&raw)?)
    }

    /// The session name.
    pub fn session(&self) -> &str {
        &self.session
    }

    /// The backend index this session writes to (`dio-<session>`).
    pub fn index_name(&self) -> String {
        format!("dio-{}", self.session)
    }

    /// The backend index receiving this session's health documents
    /// (`dio-telemetry-<session>`).
    pub fn telemetry_index_name(&self) -> String {
        format!("dio-telemetry-{}", self.session)
    }

    /// Restricts tracing to the given syscalls.
    pub fn syscalls(mut self, kinds: impl IntoIterator<Item = SyscallKind>) -> Self {
        self.filter = self.filter.syscalls(kinds);
        self
    }

    /// Restricts tracing to the given processes.
    pub fn pids(mut self, pids: impl IntoIterator<Item = Pid>) -> Self {
        self.filter = self.filter.pids(pids);
        self
    }

    /// Restricts tracing to the given threads.
    pub fn tids(mut self, tids: impl IntoIterator<Item = Tid>) -> Self {
        self.filter = self.filter.tids(tids);
        self
    }

    /// Restricts tracing to paths under `prefix` (repeatable).
    pub fn path_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.filter = self.filter.path_prefix(prefix);
        self
    }

    /// Replaces the whole filter.
    pub fn filter(mut self, filter: FilterSpec) -> Self {
        self.filter = filter;
        self
    }

    /// Sets the per-CPU ring-buffer size.
    pub fn ring(mut self, ring: RingConfig) -> Self {
        self.ring = ring;
        self
    }

    /// Events per bulk-index request, at most. A consumer that catches up
    /// hands over what it holds at once, so under a paced load a request is
    /// what arrived since the last one. On a persisted store it also caps
    /// how many events the shipper logs (and acknowledges) at a time: an
    /// event is queryable when its request is accepted, and acknowledged
    /// ([`crate::Tracer::events_stored`]) when it is logged — which is as
    /// soon as the shipper finds no request waiting behind it, so under a
    /// paced load a log is what arrived since the last one too.
    pub fn batch_size(mut self, n: usize) -> Self {
        self.batch_size = n.max(1);
        self
    }

    /// Maximum time a partial batch may wait before being flushed, counted
    /// from the kernel dispatch of its oldest event. The consumer hands the
    /// shipper a bulk request when `batch_size` events are held, when a poll
    /// finds the rings empty, or when this runs out, whichever comes first,
    /// and clips its sleep to that deadline: it bounds a consumer that never
    /// catches up. On a persisted store it bounds a shipper that never
    /// catches up the same way: the shipper logs what it holds unlogged when
    /// the oldest is this long past its dispatch, if neither an empty
    /// channel nor `batch_size` came first. It also sets the idle consumer's
    /// sleep (see [`TracerConfig::poll_interval`]).
    pub fn flush_interval(mut self, d: Duration) -> Self {
        self.flush_interval = d;
        self
    }

    /// Limits how many events the consumer drains per poll (throttling
    /// knob for the §III-D discard experiments).
    pub fn drain_batch(mut self, n: usize) -> Self {
        self.drain_batch = n.max(1);
        self
    }

    /// Sets how long after a poll that found events the consumer polls
    /// again (at least 50 µs, counted from the poll's start; with 0, a poll
    /// that filled `drain_batch` is followed by the next at once).
    ///
    /// After a poll that found the rings empty it sleeps
    /// `max(poll_interval, min(flush_interval / 32, 3.1 ms))` — 3.1 ms at
    /// the defaults — at once, and returns to `poll_interval` with the first
    /// event. An
    /// idle session therefore wakes a few hundred times a second, and an
    /// interval at or above `flush_interval / 32` (the paced consumers of
    /// the discard experiments) sleeps the same after every poll. Neither
    /// sleep outlasts the flush deadline of an event the consumer holds.
    pub fn poll_interval(mut self, d: Duration) -> Self {
        self.poll_interval = d;
        self
    }

    /// Sets calibrated in-kernel per-event costs (see DESIGN.md §6).
    pub fn kernel_costs(mut self, enter_ns: u64, exit_ns: u64) -> Self {
        self.enter_cost_ns = enter_ns;
        self.exit_cost_ns = exit_ns;
        self
    }

    /// Sets how often the exporter snapshots the registry and ships health
    /// documents to `dio-telemetry-<session>` (default 100 ms; stopping the
    /// session ships one last round).
    pub fn telemetry_interval(mut self, d: Duration) -> Self {
        self.telemetry_interval = d;
        self
    }

    /// Enables live diagnosis: the consumer thread feeds every parsed
    /// event batch to an in-process [`dio_diagnose::DiagnosisEngine`]
    /// running the shipped rule files (`dio_rules::shipped::ALL`: Fig. 2
    /// data loss, Fig. 3 contention, rate and error-rate anomalies) at
    /// `config`'s window width, raising alerts *during* the trace (see
    /// [`crate::Tracer::diagnosis`]). Off by default.
    pub fn diagnose(mut self, config: DiagnoseConfig) -> Self {
        self.diagnose = Some(config);
        self
    }

    /// Enables streaming DFG profiling: the consumer thread feeds every
    /// parsed event batch (at the same pipeline pressure the diagnosis
    /// engine sees) to an in-process [`dio_profile::DfgMiner`] configured
    /// by `config`, mining directly-follows graphs *during* the trace
    /// (see [`crate::Tracer::profiler`]). When live diagnosis is also
    /// enabled, the miner is installed as the engine's attributor: every
    /// alert whose rule says `attribution on` — the shipped alerting rules
    /// all do — gets a critical-path `attribution` block. Off by default.
    pub fn profile(mut self, config: ProfileConfig) -> Self {
        self.profile = Some(config);
        self
    }

    /// Appends one `dio-rules` rule-file source (DSL text).
    ///
    /// The sources are compiled — and statically verified — when the
    /// tracer attaches; a file the verifier rejects fails
    /// [`crate::Tracer::try_attach`] with the rule diagnostics, before
    /// any tracepoint is enabled. The rules run beside the shipped ones;
    /// configuring rules without [`TracerConfig::diagnose`] enables live
    /// diagnosis with the default [`DiagnoseConfig`].
    pub fn rules_source(mut self, src: impl Into<String>) -> Self {
        self.rules.push(src.into());
        self
    }

    /// Enables live diagnosis with the default [`DiagnoseConfig`] unless
    /// [`TracerConfig::diagnose`] already configured it: every diagnosed
    /// session runs the shipped rule files, so this adds nothing to one.
    pub fn shipped_rules(mut self) -> Self {
        self.diagnose.get_or_insert_with(DiagnoseConfig::default);
        self
    }

    /// Appends a rule file read from the host file system.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the file cannot be read; DSL errors
    /// surface later, at attach time.
    pub fn rules_file(self, path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let src = std::fs::read_to_string(path)?;
        Ok(self.rules_source(src))
    }

    /// The configured rule-file sources, in configuration order.
    pub fn rule_sources(&self) -> &[String] {
        &self.rules
    }

    /// Runs the static verifier over this configuration's filter (the
    /// analysis [`crate::Tracer::try_attach`] applies before attaching).
    ///
    /// # Examples
    ///
    /// ```
    /// use dio_tracer::TracerConfig;
    /// use dio_verify::Rule;
    ///
    /// let bad = TracerConfig::new("s").pids([]);
    /// assert!(bad.verify().into_result().unwrap_err().violates(Rule::EmptyPidSet));
    /// assert!(TracerConfig::new("s").verify().is_ok());
    /// ```
    pub fn verify(&self) -> dio_verify::VerifyReport {
        self.filter.verify()
    }

    pub(crate) fn filter_spec(&self) -> &FilterSpec {
        &self.filter
    }

    pub(crate) fn ring_config(&self) -> RingConfig {
        self.ring
    }

    /// Events per bulk-index request, at most ([`TracerConfig::batch_size`]).
    pub fn batch(&self) -> usize {
        self.batch_size
    }

    /// The flush deadline ([`TracerConfig::flush_interval`]).
    pub fn flush(&self) -> Duration {
        self.flush_interval
    }

    /// Events drained per poll, at most ([`TracerConfig::drain_batch`]).
    pub fn drain(&self) -> usize {
        self.drain_batch
    }

    /// The consumer's poll interval ([`TracerConfig::poll_interval`]).
    pub fn poll(&self) -> Duration {
        self.poll_interval
    }

    pub(crate) fn costs(&self) -> (u64, u64) {
        (self.enter_cost_ns, self.exit_cost_ns)
    }

    pub(crate) fn telemetry_tick(&self) -> Duration {
        self.telemetry_interval
    }

    pub(crate) fn diagnose_config(&self) -> Option<DiagnoseConfig> {
        self.diagnose.clone()
    }

    pub(crate) fn profile_config(&self) -> Option<ProfileConfig> {
        self.profile.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_sessions_are_unique() {
        let a = generate_session_name();
        let b = generate_session_name();
        assert_ne!(a, b);
        assert!(a.starts_with("dio-session-"));
    }

    #[test]
    fn index_name_convention() {
        assert_eq!(TracerConfig::new("x").index_name(), "dio-x");
    }

    #[test]
    fn json_roundtrip_preserves_configuration() {
        let original = TracerConfig::new("from-file")
            .syscalls([SyscallKind::Read, SyscallKind::Write])
            .pids([Pid(42)])
            .path_prefix("/db")
            .batch_size(512)
            .kernel_costs(100, 200);
        let json = original.to_json();
        assert!(json.contains("from-file"));
        let parsed = TracerConfig::from_json(&json).unwrap();
        assert_eq!(parsed.session(), "from-file");
        assert_eq!(parsed.batch(), 512);
        assert_eq!(parsed.costs(), (100, 200));
        assert_eq!(parsed.filter_spec(), original.filter_spec());
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(TracerConfig::from_json("{not json").is_err());
        assert!(TracerConfig::from_json("{}").is_err(), "all fields required");
    }

    #[test]
    fn telemetry_interval_defaults_to_100_ms() {
        assert_eq!(TracerConfig::new("t").telemetry_tick(), Duration::from_millis(100));
        let explicit =
            TracerConfig::new("t").telemetry_interval(Duration::from_secs(3)).telemetry_tick();
        assert_eq!(explicit, Duration::from_secs(3));
    }

    #[test]
    fn rules_accumulate_and_roundtrip_through_json() {
        let config = TracerConfig::new("rules")
            .rules_source("rule r when offset > 0 then record(\"r\")")
            .shipped_rules();
        assert_eq!(config.rule_sources().len(), 1, "the shipped files are no configured source");
        assert_eq!(config.diagnose_config(), Some(DiagnoseConfig::default()));
        let parsed = TracerConfig::from_json(&config.to_json()).unwrap();
        assert_eq!(parsed.rule_sources(), config.rule_sources());
        let narrow = DiagnoseConfig::default().window_ns(250_000_000);
        let kept = TracerConfig::new("rules").diagnose(narrow.clone()).shipped_rules();
        assert_eq!(kept.diagnose_config(), Some(narrow), "an explicit configuration stays");
    }

    /// A configuration file written before the detectors' thresholds moved
    /// into rule text still loads: the ten keys that went are ignored.
    #[test]
    fn a_configuration_with_the_removed_diagnose_keys_still_loads() {
        let json = TracerConfig::new("old")
            .diagnose(DiagnoseConfig::default().window_ns(250_000_000))
            .to_json()
            .replace(
                "\"window_ns\"",
                "\"slide_ns\": 0, \"rate_key\": \"pid\", \"client_prefix\": \"db_bench\", \
                 \"background_prefix\": \"rocksdb:low\", \"background_threshold\": 5, \
                 \"rate_factor\": 4.0, \"rate_min_ops\": 100, \"rate_baseline_windows\": 3, \
                 \"error_rate_threshold\": 0.25, \"error_min_ops\": 20, \"window_ns\"",
            );
        assert!(json.contains("rate_baseline_windows"), "{json}");
        let parsed = TracerConfig::from_json(&json).unwrap();
        assert_eq!(
            parsed.diagnose_config(),
            Some(DiagnoseConfig::default().window_ns(250_000_000))
        );
    }

    /// A configuration file written while telemetry could be switched off,
    /// span documents sampled and enrichment switched off still loads: the
    /// three keys are ignored, and the session ships its health documents
    /// and no span document.
    #[test]
    fn a_configuration_with_the_removed_telemetry_keys_still_loads() {
        use dio_backend::{DocStore, Query};
        use dio_kernel::{DiskProfile, Kernel};

        let json = TracerConfig::new("old-telemetry").to_json().replace(
            "\"telemetry_interval\"",
            "\"telemetry\": false, \"span_sample_every\": 1, \"enrich\": false, \
             \"telemetry_interval\"",
        );
        assert!(json.contains("\"telemetry\": false"), "{json}");
        let parsed = TracerConfig::from_json(&json).unwrap();

        let kernel = Kernel::builder().root_disk(DiskProfile::instant()).build();
        let backend = DocStore::new();
        let tracer = crate::Tracer::attach(parsed, &kernel, backend.clone());
        let t = kernel.spawn_process("app").spawn_thread("app");
        let fd = t.creat("/f", 0o644).unwrap();
        t.write(fd, b"data").unwrap();
        t.close(fd).unwrap();
        assert_eq!(tracer.stop().events_stored, 3);
        let telemetry = backend.get_index("dio-telemetry-old-telemetry").expect("exporter ran");
        assert!(telemetry.count(&Query::term("metric", "kernel.syscalls.dispatched")) >= 1);
        assert_eq!(telemetry.count(&Query::term("kind", "span")), 0);
    }

    #[test]
    fn builder_accumulates() {
        let c = TracerConfig::new("s")
            .syscalls([SyscallKind::Read])
            .pids([Pid(1)])
            .path_prefix("/db")
            .batch_size(0)
            .kernel_costs(10, 20);
        assert_eq!(c.batch(), 1, "batch size clamped to >= 1");
        assert_eq!(c.costs(), (10, 20));
        assert_eq!(c.filter_spec().enabled_syscalls().len(), 1);
    }
}
