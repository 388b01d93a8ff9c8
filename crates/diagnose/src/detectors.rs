//! Incremental ports of the offline `dio-correlate` algorithms.
//!
//! Each detector consumes observed events one at a time (arrival order)
//! and emits [`Alert`]s as soon as a pattern becomes true — the same
//! verdicts the batch algorithms reach post-hoc, raised while the trace is
//! still running. Windowed detectors route events through
//! [`SlidingWindows`] and evaluate each window when the watermark seals
//! it; keyed detectors (inode-reuse tracking) hold per-file state instead.
//!
//! An event is read through [`EventView`], so one detector serves the typed
//! events the tracer's consumer lends and the documents everything else
//! feeds. Per event a detector allocates nothing once its keys and windows
//! exist: state is looked up by borrowed key, and evidence is kept as
//! [`Evidence`] and rendered into a document only when an alert carries it.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use dio_correlate::{ContentionReport, WindowActivity};
use dio_syscall::{EventView, Evidence, Field, FileTag, SyscallKind, Text};
use serde_json::{json, Value};

use crate::alert::{Alert, AlertKind, Severity};
use crate::window::SlidingWindows;

/// Offline `fill_numeric_buckets` gap-fills empty histogram buckets only
/// when the occupied-slot span stays below this bound; the streaming
/// contention report applies the same rule so both agree window-for-window.
const GAP_FILL_MAX_SPAN: u64 = 100_000;

/// Counts one more event under `key`, copying the key only when it is new.
fn bump(counts: &mut BTreeMap<String, u64>, key: &str) {
    match counts.get_mut(key) {
        Some(count) => *count += 1,
        None => {
            counts.insert(key.to_string(), 1);
        }
    }
}

/// Builds an alert skeleton; the engine assigns the final `seq`.
#[allow(clippy::too_many_arguments)]
fn alert(
    detector: &'static str,
    kind: AlertKind,
    severity: Severity,
    time_ns: u64,
    window: Option<(u64, u64)>,
    subject: String,
    message: String,
    fields: Value,
    evidence: Vec<Value>,
) -> Alert {
    Alert {
        seq: 0,
        detector,
        kind,
        severity,
        time_ns,
        window_start_ns: window.map(|w| w.0),
        window_end_ns: window.map(|w| w.1),
        subject,
        message,
        fields,
        evidence,
        attribution: None,
    }
}

// ---------------------------------------------------------------------------
// Data loss / stale-offset after inode reuse (streaming Fig. 2 analysis)
// ---------------------------------------------------------------------------

/// Streaming port of [`dio_correlate::detect_data_loss`] plus offset-0
/// restart validation.
///
/// Tracks file generations per `(dev, ino)` in first-appearance order (the
/// inode-reuse signature) and inspects the *first read* of every
/// generation after the first:
///
/// * offset > 0 and 0 bytes returned → **data loss** (critical): the
///   reader resumed from stale state and silently skipped the bytes
///   before the offset — the Fig. 2a bug.
/// * offset > 0 with data returned → **stale-offset resume** (warning):
///   reader state survived the generation change even though bytes were
///   still readable.
/// * offset 0 → a validated restart, counted but not alerted (the
///   Fig. 2b fixed behavior).
#[derive(Debug, Default)]
pub struct DataLossDetector {
    generations: BTreeMap<(u64, u64), Vec<FileTag>>,
    writes_per_tag: HashMap<FileTag, u64>,
    first_read_seen: HashSet<FileTag>,
    path_per_tag: HashMap<FileTag, String>,
    last_write: HashMap<FileTag, Evidence>,
    validated_restarts: u64,
}

impl DataLossDetector {
    /// Generations whose first read started at offset 0 (clean restarts).
    pub fn validated_restarts(&self) -> u64 {
        self.validated_restarts
    }

    /// Feeds one event; pushes any resulting alerts onto `out`.
    pub fn observe(&mut self, event: &dyn EventView, out: &mut Vec<Alert>) {
        let Some(tag) = event.file_tag() else {
            return;
        };
        use SyscallKind::{Pread64, Pwrite64, Read, Write};
        let Some(kind @ (Read | Write | Pread64 | Pwrite64)) = event.kind() else {
            return;
        };
        let gens = self.generations.entry((tag.dev, tag.ino)).or_default();
        if !gens.contains(&tag) {
            gens.push(tag);
        }
        let generation_index = gens.iter().position(|t| *t == tag).unwrap_or(0);
        let previous_generation = generation_index.checked_sub(1).map(|i| gens[i]);
        if let Some(p) = event.str(Field::FilePath) {
            self.path_per_tag.entry(tag).or_insert_with(|| p.to_string());
        }
        let ret = event.ret_val().unwrap_or(0);
        if matches!(kind, Write | Pwrite64) {
            if ret > 0 {
                *self.writes_per_tag.entry(tag).or_insert(0) += ret as u64;
                self.last_write.insert(tag, event.keep());
            }
            return;
        }
        if !self.first_read_seen.insert(tag) {
            return; // only the first read of a generation matters
        }
        let Some(prev) = previous_generation else {
            return; // first generation: EOF polls etc. are benign
        };
        let offset = event.uint(Field::Offset).unwrap_or(0);
        if offset == 0 {
            self.validated_restarts += 1;
            return;
        }
        let reader = event.str(Field::ProcName).unwrap_or("").to_string();
        let path = self.path_per_tag.get(&tag).cloned();
        let time = event.time();
        let mut evidence = Vec::new();
        if let Some(write) = self.last_write.get(&tag) {
            evidence.push(write.clone().into_document());
        }
        evidence.push(event.document());
        if ret == 0 {
            // Non-zero offset, zero bytes: the Fig. 2a incident.
            let written = self.writes_per_tag.get(&tag).copied().unwrap_or(0);
            let bytes_at_risk = written.min(offset);
            out.push(alert(
                "data_loss",
                AlertKind::DataLoss,
                Severity::Critical,
                time,
                None,
                tag.to_string(),
                format!(
                    "{reader} resumed new generation of {} at stale offset {offset} \
                     and read 0 bytes: up to {bytes_at_risk} byte(s) silently lost",
                    path.as_deref().unwrap_or("<unresolved>")
                ),
                json!({
                    "tag": tag.to_string(),
                    "path": path,
                    "stale_offset": offset,
                    "bytes_at_risk": bytes_at_risk,
                    "previous_generation": prev.to_string(),
                    "reader": reader,
                }),
                evidence,
            ));
        } else {
            out.push(alert(
                "data_loss",
                AlertKind::StaleOffsetResume,
                Severity::Warning,
                time,
                None,
                tag.to_string(),
                format!(
                    "{reader} first read the new generation of {} at offset {offset} \
                     instead of 0: stale reader state survived inode reuse",
                    path.as_deref().unwrap_or("<unresolved>")
                ),
                json!({
                    "tag": tag.to_string(),
                    "path": path,
                    "stale_offset": offset,
                    "previous_generation": prev.to_string(),
                    "reader": reader,
                }),
                evidence,
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Per-thread contention skew (streaming Fig. 4 analysis)
// ---------------------------------------------------------------------------

/// Streaming port of [`dio_correlate::detect_contention`].
///
/// Windows tumble at the configured width (matching the backend's
/// `date_histogram` bucketing) and count ops per thread name. A sealed
/// window raises a [`AlertKind::ContentionSkew`] warning when enough
/// background threads were active **and** client throughput fell below the
/// calm-window mean observed so far. [`ContentionDetector::report`]
/// reproduces the offline [`ContentionReport`] exactly — including
/// gap-filled empty windows — once the stream ends.
#[derive(Debug)]
pub struct ContentionDetector {
    windows: SlidingWindows<BTreeMap<String, u64>>,
    closed: BTreeMap<u64, WindowActivity>,
    client_prefix: String,
    background_prefix: String,
    background_threshold: usize,
    calm_ops_sum: u64,
    calm_windows: u64,
    alerted: bool,
}

impl ContentionDetector {
    /// Tumbling windows of `window_ns` with the Fig. 4 thread-name
    /// prefixes and background-thread threshold.
    pub fn new(
        window_ns: u64,
        client_prefix: String,
        background_prefix: String,
        background_threshold: usize,
    ) -> Self {
        ContentionDetector {
            windows: SlidingWindows::new(window_ns, 0),
            closed: BTreeMap::new(),
            client_prefix,
            background_prefix,
            background_threshold,
            calm_ops_sum: 0,
            calm_windows: 0,
            alerted: false,
        }
    }

    /// Whether any per-window contention alert has fired.
    pub fn alerted(&self) -> bool {
        self.alerted
    }

    /// Number of windows still accumulating.
    pub fn open_windows(&self) -> usize {
        self.windows.open_count()
    }

    /// Events refused because their window had already been sealed.
    pub fn late_events(&self) -> u64 {
        self.windows.late_events()
    }

    /// Feeds one event (every event counts toward window occupancy,
    /// exactly like the offline `match_all` date histogram).
    pub fn observe(&mut self, event: &dyn EventView) {
        let name = event.str(Field::ProcName).unwrap_or("");
        self.windows.observe(event.time(), |threads| bump(threads, name));
    }

    /// Seals watermark-ready windows and raises alerts for contended ones.
    pub fn evaluate_ready(&mut self, out: &mut Vec<Alert>) {
        for (start, threads) in self.windows.drain_ready() {
            self.seal(start, threads, out);
        }
    }

    /// Seals every remaining window (end of stream).
    pub fn evaluate_all(&mut self, out: &mut Vec<Alert>) {
        for (start, threads) in self.windows.drain_all() {
            self.seal(start, threads, out);
        }
    }

    fn seal(&mut self, start: u64, threads: BTreeMap<String, u64>, out: &mut Vec<Alert>) {
        let mut client_ops = 0u64;
        let mut background_ops = 0u64;
        let mut active_background = 0usize;
        for (name, &count) in &threads {
            if name.starts_with(self.client_prefix.as_str()) {
                client_ops += count;
            } else if name.starts_with(self.background_prefix.as_str()) {
                background_ops += count;
                if count > 0 {
                    active_background += 1;
                }
            }
        }
        let contended = active_background >= self.background_threshold;
        let width = self.windows.width_ns();
        if contended && self.calm_windows > 0 {
            let calm_mean = self.calm_ops_sum as f64 / self.calm_windows as f64;
            if (client_ops as f64) < calm_mean {
                self.alerted = true;
                let evidence: Vec<Value> = threads
                    .iter()
                    .filter(|(name, _)| name.starts_with(self.background_prefix.as_str()))
                    .map(|(name, ops)| json!({"proc_name": name, "ops": ops}))
                    .collect();
                out.push(alert(
                    "contention",
                    AlertKind::ContentionSkew,
                    Severity::Warning,
                    start + width,
                    Some((start, start + width)),
                    format!("{}*", self.client_prefix),
                    format!(
                        "{active_background} {}* thread(s) issued {background_ops} op(s) while \
                         {}* throughput fell to {client_ops} op(s)/window (calm mean {calm_mean:.1})",
                        self.background_prefix, self.client_prefix
                    ),
                    json!({
                        "window_start_ns": start,
                        "client_ops": client_ops,
                        "background_ops": background_ops,
                        "active_background_threads": active_background,
                        "calm_mean_client_ops": calm_mean,
                    }),
                    evidence,
                ));
            }
        }
        if !contended {
            self.calm_ops_sum += client_ops;
            self.calm_windows += 1;
        }
        self.closed.insert(
            start,
            WindowActivity {
                start_ns: start,
                client_ops,
                background_ops,
                active_background_threads: active_background,
                contended,
            },
        );
    }

    /// The full offline-parity report over every sealed window.
    ///
    /// Call after the stream ended (all windows sealed); empty windows
    /// between the first and last occupied ones are gap-filled under the
    /// same span bound the backend's date histogram uses, so the result
    /// matches [`dio_correlate::detect_contention`] on the same events.
    pub fn report(&self) -> ContentionReport {
        let width = self.windows.width_ns();
        let mut windows: Vec<WindowActivity> = Vec::new();
        if let (Some((&first, _)), Some((&last, _))) =
            (self.closed.iter().next(), self.closed.iter().next_back())
        {
            let span = (last - first) / width + 1;
            if span <= GAP_FILL_MAX_SPAN {
                let mut start = first;
                while start <= last {
                    windows.push(self.closed.get(&start).cloned().unwrap_or(WindowActivity {
                        start_ns: start,
                        client_ops: 0,
                        background_ops: 0,
                        active_background_threads: 0,
                        contended: self.background_threshold == 0,
                    }));
                    start += width;
                }
            } else {
                windows.extend(self.closed.values().cloned());
            }
        }
        let mean = |contended: bool| {
            let vals: Vec<u64> =
                windows.iter().filter(|w| w.contended == contended).map(|w| w.client_ops).collect();
            if vals.is_empty() {
                f64::NAN
            } else {
                vals.iter().sum::<u64>() as f64 / vals.len() as f64
            }
        };
        ContentionReport { client_ops_contended: mean(true), client_ops_calm: mean(false), windows }
    }
}

// ---------------------------------------------------------------------------
// Keyed rate / error-rate anomalies
// ---------------------------------------------------------------------------

/// Which document field keys the rate and error-rate windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateKey {
    /// Syscall class (`"class"` field) — the default.
    Class,
    /// Process id.
    Pid,
    /// File tag (`dev|ino|first_access_ns`).
    FileTag,
    /// Thread/process name.
    Proc,
}

impl RateKey {
    /// Parses the configuration string (`class`/`pid`/`file_tag`/`proc`);
    /// unknown values fall back to [`RateKey::Class`].
    pub fn parse(s: &str) -> RateKey {
        match s {
            "pid" => RateKey::Pid,
            "file_tag" => RateKey::FileTag,
            "proc" | "proc_name" => RateKey::Proc,
            _ => RateKey::Class,
        }
    }

    /// The event's key in this dimension: a string field as it is, the pid
    /// in decimal. A field of the other type (a numeric class) is no key.
    fn of(self, event: &dyn EventView) -> Option<Text<'_>> {
        match self {
            RateKey::Class => event.scalar(Field::Class)?.text(),
            RateKey::Pid => event.scalar(Field::Pid).filter(|pid| pid.as_u64().is_some())?.key(),
            RateKey::FileTag => event.scalar(Field::FileTag)?.text(),
            RateKey::Proc => event.scalar(Field::ProcName)?.text(),
        }
    }
}

/// Per-key syscall-rate anomaly detection.
///
/// Each sealed window's per-key op count is compared against the mean of
/// that key's last `baseline_windows` sealed windows: a count above
/// `factor ×` baseline (and at least `min_ops`) is a **spike** (warning);
/// a count below `baseline / factor` while the baseline itself averaged at
/// least `min_ops` is a **collapse** (info). The warm-up guard (a full
/// baseline is required) keeps short traces silent.
#[derive(Debug)]
pub struct RateDetector {
    windows: SlidingWindows<BTreeMap<String, u64>>,
    baselines: HashMap<String, VecDeque<u64>>,
    key: RateKey,
    factor: f64,
    min_ops: u64,
    baseline_windows: usize,
}

impl RateDetector {
    /// Windows of `width_ns`/`slide_ns` keyed by `key`.
    pub fn new(
        width_ns: u64,
        slide_ns: u64,
        key: RateKey,
        factor: f64,
        min_ops: u64,
        baseline_windows: usize,
    ) -> Self {
        RateDetector {
            windows: SlidingWindows::new(width_ns, slide_ns),
            baselines: HashMap::new(),
            key,
            factor: factor.max(1.0),
            min_ops,
            baseline_windows: baseline_windows.max(1),
        }
    }

    /// Number of windows still accumulating.
    pub fn open_windows(&self) -> usize {
        self.windows.open_count()
    }

    /// Events refused because their window had already been sealed.
    pub fn late_events(&self) -> u64 {
        self.windows.late_events()
    }

    /// Feeds one event.
    pub fn observe(&mut self, event: &dyn EventView) {
        let Some(key) = self.key.of(event) else {
            return;
        };
        self.windows.observe(event.time(), |counts| bump(counts, &key));
    }

    /// Seals watermark-ready windows and raises anomaly alerts.
    pub fn evaluate_ready(&mut self, out: &mut Vec<Alert>) {
        for (start, counts) in self.windows.drain_ready() {
            self.seal(start, counts, out);
        }
    }

    /// Seals every remaining window (end of stream).
    pub fn evaluate_all(&mut self, out: &mut Vec<Alert>) {
        for (start, counts) in self.windows.drain_all() {
            self.seal(start, counts, out);
        }
    }

    fn seal(&mut self, start: u64, counts: BTreeMap<String, u64>, out: &mut Vec<Alert>) {
        let width = self.windows.width_ns();
        for (key, ops) in counts {
            if let Some(hist) = self.baselines.get(&key) {
                if hist.len() == self.baseline_windows {
                    let mean = hist.iter().sum::<u64>() as f64 / hist.len() as f64;
                    let evidence = vec![json!({
                        "key": key,
                        "ops": ops,
                        "baseline_mean": mean,
                        "baseline": hist.iter().copied().collect::<Vec<u64>>(),
                    })];
                    if ops as f64 > mean * self.factor && ops >= self.min_ops {
                        out.push(alert(
                            "rate",
                            AlertKind::SyscallRateAnomaly,
                            Severity::Warning,
                            start + width,
                            Some((start, start + width)),
                            key.clone(),
                            format!(
                                "syscall rate spike for {key}: {ops} op(s)/window vs \
                                 baseline {mean:.1}"
                            ),
                            json!({"key": key, "ops": ops, "baseline_mean": mean,
                                   "direction": "spike"}),
                            evidence,
                        ));
                    } else if (ops as f64) * self.factor < mean && mean >= self.min_ops as f64 {
                        out.push(alert(
                            "rate",
                            AlertKind::SyscallRateAnomaly,
                            Severity::Info,
                            start + width,
                            Some((start, start + width)),
                            key.clone(),
                            format!(
                                "syscall rate collapse for {key}: {ops} op(s)/window vs \
                                 baseline {mean:.1}"
                            ),
                            json!({"key": key, "ops": ops, "baseline_mean": mean,
                                   "direction": "collapse"}),
                            evidence,
                        ));
                    }
                }
            }
            let hist = self.baselines.entry(key).or_default();
            hist.push_back(ops);
            if hist.len() > self.baseline_windows {
                hist.pop_front();
            }
        }
    }
}

/// Per-window accumulator of the error-rate detector.
#[derive(Debug, Default)]
pub struct ErrAcc {
    ops: u64,
    errs: u64,
    /// Up to `evidence_limit` failing events, documents once an alert
    /// carries them.
    samples: Vec<Evidence>,
}

/// Per-key error-rate detection: a sealed window whose failing fraction
/// (`ret_val < 0`) reaches the threshold over at least `min_ops` ops
/// raises a warning carrying up to `evidence_limit` failing events.
#[derive(Debug)]
pub struct ErrorRateDetector {
    windows: SlidingWindows<BTreeMap<String, ErrAcc>>,
    key: RateKey,
    threshold: f64,
    min_ops: u64,
    evidence_limit: usize,
}

impl ErrorRateDetector {
    /// Windows of `width_ns`/`slide_ns` keyed by `key`.
    pub fn new(
        width_ns: u64,
        slide_ns: u64,
        key: RateKey,
        threshold: f64,
        min_ops: u64,
        evidence_limit: usize,
    ) -> Self {
        ErrorRateDetector {
            windows: SlidingWindows::new(width_ns, slide_ns),
            key,
            threshold,
            min_ops: min_ops.max(1),
            evidence_limit,
        }
    }

    /// Number of windows still accumulating.
    pub fn open_windows(&self) -> usize {
        self.windows.open_count()
    }

    /// Events refused because their window had already been sealed.
    pub fn late_events(&self) -> u64 {
        self.windows.late_events()
    }

    /// Feeds one event.
    pub fn observe(&mut self, event: &dyn EventView) {
        let Some(key) = self.key.of(event) else {
            return;
        };
        let failed = event.ret_val().unwrap_or(0) < 0;
        let limit = self.evidence_limit;
        self.windows.observe(event.time(), |accs| {
            let acc = match accs.get_mut(&*key) {
                Some(acc) => acc,
                None => accs.entry(key.to_string()).or_default(),
            };
            acc.ops += 1;
            if failed {
                acc.errs += 1;
                if acc.samples.len() < limit {
                    acc.samples.push(event.keep());
                }
            }
        });
    }

    /// Seals watermark-ready windows and raises error-rate alerts.
    pub fn evaluate_ready(&mut self, out: &mut Vec<Alert>) {
        for (start, accs) in self.windows.drain_ready() {
            self.seal(start, accs, out);
        }
    }

    /// Seals every remaining window (end of stream).
    pub fn evaluate_all(&mut self, out: &mut Vec<Alert>) {
        for (start, accs) in self.windows.drain_all() {
            self.seal(start, accs, out);
        }
    }

    fn seal(&mut self, start: u64, accs: BTreeMap<String, ErrAcc>, out: &mut Vec<Alert>) {
        let width = self.windows.width_ns();
        for (key, acc) in accs {
            if acc.ops < self.min_ops {
                continue;
            }
            let fraction = acc.errs as f64 / acc.ops as f64;
            if fraction >= self.threshold {
                out.push(alert(
                    "error_rate",
                    AlertKind::ErrorRateAnomaly,
                    Severity::Warning,
                    start + width,
                    Some((start, start + width)),
                    key.clone(),
                    format!(
                        "{:.0}% of {} op(s) for {key} failed in this window",
                        fraction * 100.0,
                        acc.ops
                    ),
                    json!({"key": key, "ops": acc.ops, "errors": acc.errs,
                           "error_fraction": fraction}),
                    acc.samples.into_iter().map(Evidence::into_document).collect(),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: u64, proc: &str, syscall: &str, ret: i64, tag: &str, offset: Option<u64>) -> Value {
        let mut doc = json!({
            "time": time, "proc_name": proc, "syscall": syscall,
            "ret_val": ret, "file_tag": tag,
        });
        if let Some(o) = offset {
            doc["offset"] = json!(o);
        }
        doc
    }

    /// The exact Fig. 2a event sequence from `dio-correlate`'s fixtures.
    fn buggy_events() -> Vec<Value> {
        vec![
            ev(1, "app", "write", 26, "7340032|12|100", Some(0)),
            ev(2, "fluent-bit", "read", 26, "7340032|12|100", Some(0)),
            ev(3, "fluent-bit", "read", 0, "7340032|12|100", Some(26)),
            ev(4, "app", "write", 16, "7340032|12|200", Some(0)),
            ev(5, "fluent-bit", "read", 0, "7340032|12|200", Some(26)),
        ]
    }

    /// The Fig. 2b (fixed) sequence.
    fn fixed_events() -> Vec<Value> {
        vec![
            ev(1, "app", "write", 26, "7340032|12|100", Some(0)),
            ev(2, "flb-pipeline", "read", 26, "7340032|12|100", Some(0)),
            ev(3, "flb-pipeline", "read", 0, "7340032|12|100", Some(26)),
            ev(4, "app", "write", 16, "7340032|12|200", Some(0)),
            ev(5, "flb-pipeline", "read", 16, "7340032|12|200", Some(0)),
            ev(6, "flb-pipeline", "read", 0, "7340032|12|200", Some(16)),
        ]
    }

    #[test]
    fn data_loss_fires_on_the_buggy_sequence_at_the_triggering_event() {
        let mut det = DataLossDetector::default();
        let mut out = Vec::new();
        for (i, doc) in buggy_events().iter().enumerate() {
            det.observe(doc, &mut out);
            if i < 4 {
                assert!(out.is_empty(), "no alert before the stale read (event {i})");
            }
        }
        let losses: Vec<&Alert> = out.iter().filter(|a| a.kind == AlertKind::DataLoss).collect();
        assert_eq!(losses.len(), 1);
        let a = losses[0];
        assert_eq!(a.severity, Severity::Critical);
        assert_eq!(a.time_ns, 5);
        assert_eq!(a.subject, "7340032|12|200");
        assert_eq!(a.fields["stale_offset"], 26);
        assert_eq!(a.fields["bytes_at_risk"], 16);
        assert_eq!(a.fields["previous_generation"], "7340032|12|100");
        assert_eq!(a.fields["reader"], "fluent-bit");
        assert_eq!(a.evidence.len(), 2, "last write + triggering read");
        assert_eq!(a.evidence[1]["time"], 5);
    }

    #[test]
    fn fixed_sequence_raises_nothing_and_validates_the_restart() {
        let mut det = DataLossDetector::default();
        let mut out = Vec::new();
        for doc in fixed_events() {
            det.observe(&doc, &mut out);
        }
        assert!(out.is_empty(), "got {out:?}");
        assert_eq!(det.validated_restarts(), 1);
    }

    #[test]
    fn eof_poll_on_first_generation_is_benign() {
        let mut det = DataLossDetector::default();
        let mut out = Vec::new();
        for doc in [
            ev(1, "app", "write", 10, "1|5|100", Some(0)),
            ev(2, "tailer", "read", 10, "1|5|100", Some(0)),
            ev(3, "tailer", "read", 0, "1|5|100", Some(10)),
        ] {
            det.observe(&doc, &mut out);
        }
        assert!(out.is_empty());
    }

    #[test]
    fn stale_resume_with_readable_bytes_is_a_warning() {
        let mut det = DataLossDetector::default();
        let mut out = Vec::new();
        for doc in [
            ev(1, "app", "write", 30, "1|5|100", Some(0)),
            ev(2, "tailer", "read", 30, "1|5|100", Some(0)),
            ev(3, "app", "write", 30, "1|5|200", Some(0)),
            ev(4, "tailer", "read", 20, "1|5|200", Some(10)),
        ] {
            det.observe(&doc, &mut out);
        }
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, AlertKind::StaleOffsetResume);
        assert_eq!(out[0].severity, Severity::Warning);
    }

    fn contention_window(docs: &mut Vec<Value>, start_s: u64, clients: usize, bg: usize) {
        let base = start_s * 1_000_000_000;
        for i in 0..clients {
            docs.push(json!({"proc_name": "db_bench", "time": base + i as u64}));
        }
        for t in 0..bg {
            for i in 0..10 {
                docs.push(json!({
                    "proc_name": format!("rocksdb:low{t}"),
                    "time": base + 100 + i as u64,
                }));
            }
        }
    }

    fn contention_detector() -> ContentionDetector {
        ContentionDetector::new(1_000_000_000, "db_bench".into(), "rocksdb:low".into(), 5)
    }

    #[test]
    fn contention_alert_fires_when_the_contended_window_seals() {
        let mut det = contention_detector();
        let mut docs = Vec::new();
        contention_window(&mut docs, 0, 100, 1);
        contention_window(&mut docs, 1, 110, 2);
        contention_window(&mut docs, 2, 20, 6); // the dip
        contention_window(&mut docs, 3, 105, 1);
        contention_window(&mut docs, 4, 104, 1);
        let mut out = Vec::new();
        for doc in &docs {
            det.observe(doc);
            det.evaluate_ready(&mut out);
        }
        det.evaluate_all(&mut out);
        assert_eq!(out.len(), 1, "got {out:?}");
        assert_eq!(out[0].kind, AlertKind::ContentionSkew);
        assert_eq!(out[0].window_start_ns, Some(2_000_000_000));
        assert_eq!(out[0].fields["active_background_threads"], 6);
        assert!(det.alerted());
    }

    #[test]
    fn contention_report_matches_offline_shape() {
        let mut det = contention_detector();
        let mut docs = Vec::new();
        contention_window(&mut docs, 0, 100, 1);
        contention_window(&mut docs, 2, 20, 6); // gap at second 1
        let mut out = Vec::new();
        for doc in &docs {
            det.observe(doc);
        }
        det.evaluate_all(&mut out);
        let report = det.report();
        assert_eq!(report.windows.len(), 3, "gap window filled");
        assert_eq!(report.windows[1].client_ops, 0);
        assert!(!report.windows[1].contended);
        assert!(report.windows[2].contended);
        assert!(report.contention_detected());
    }

    #[test]
    fn rate_detector_needs_full_baseline_then_flags_spike_and_collapse() {
        let w = 1_000u64;
        let mut det = RateDetector::new(w, 0, RateKey::Class, 4.0, 10, 2);
        let mut out = Vec::new();
        let mut docs = Vec::new();
        let mut push = |win: u64, n: usize| {
            for i in 0..n {
                docs.push(json!({"time": win * w + i as u64, "class": "data"}));
            }
        };
        push(0, 12); // baseline
        push(1, 12); // baseline
        push(2, 60); // spike: 60 > 12 * 4
        push(3, 12);
        push(4, 2); // collapse: 2 * 4 < mean(60, 12) = 36, mean >= 10
        push(5, 12);
        push(6, 12); // extra windows so earlier ones seal
        for doc in &docs {
            det.observe(doc);
            det.evaluate_ready(&mut out);
        }
        det.evaluate_all(&mut out);
        let spikes: Vec<_> = out
            .iter()
            .filter(|a| a.fields["direction"] == "spike")
            .map(|a| a.window_start_ns.unwrap())
            .collect();
        let collapses: Vec<_> = out
            .iter()
            .filter(|a| a.fields["direction"] == "collapse")
            .map(|a| a.window_start_ns.unwrap())
            .collect();
        assert_eq!(spikes, vec![2 * w]);
        assert_eq!(collapses, vec![4 * w]);
    }

    #[test]
    fn rate_detector_is_silent_without_min_ops() {
        let mut det = RateDetector::new(1_000, 0, RateKey::Class, 4.0, 100, 2);
        let mut out = Vec::new();
        for win in 0..6u64 {
            let n = if win == 3 { 50 } else { 2 };
            for i in 0..n {
                det.observe(&json!({"time": win * 1_000 + i, "class": "data"}));
            }
            det.evaluate_ready(&mut out);
        }
        det.evaluate_all(&mut out);
        assert!(out.is_empty(), "min_ops guard keeps tiny traces silent: {out:?}");
    }

    #[test]
    fn error_rate_detector_flags_failing_windows_with_evidence() {
        let mut det = ErrorRateDetector::new(1_000, 0, RateKey::Class, 0.25, 20, 3);
        let mut out = Vec::new();
        for i in 0..40u64 {
            let ret = if i % 2 == 0 { -5 } else { 1 };
            det.observe(&json!({"time": i, "class": "data", "ret_val": ret}));
        }
        for i in 0..40u64 {
            det.observe(&json!({"time": 1_000 + i, "class": "data", "ret_val": 1}));
        }
        det.evaluate_all(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, AlertKind::ErrorRateAnomaly);
        assert_eq!(out[0].fields["errors"], 20);
        assert_eq!(out[0].evidence.len(), 3, "evidence capped at the limit");
    }

    #[test]
    fn rate_key_extraction() {
        let doc = json!({"class": "data", "pid": 7, "file_tag": "1|2|3", "proc_name": "p"});
        assert_eq!(RateKey::Class.of(&doc).as_deref(), Some("data"));
        assert_eq!(RateKey::Pid.of(&doc).as_deref(), Some("7"));
        assert_eq!(RateKey::FileTag.of(&doc).as_deref(), Some("1|2|3"));
        assert_eq!(RateKey::Proc.of(&doc).as_deref(), Some("p"));
        let odd = json!({"class": 3, "pid": "seven"});
        assert!(RateKey::Class.of(&odd).is_none() && RateKey::Pid.of(&odd).is_none());
        assert_eq!(RateKey::parse("pid"), RateKey::Pid);
        assert_eq!(RateKey::parse("bogus"), RateKey::Class);
    }

    /// A burst for a window that was sealed long ago is counted late and
    /// leaves the key's baseline — and so the verdicts that follow — as it
    /// was: no ghost window, no false collapse, no false spike later.
    #[test]
    fn a_late_burst_leaves_the_rate_baseline_unchanged() {
        let w = 1_000u64;
        let run = |late_burst: bool| {
            let mut det = RateDetector::new(w, 0, RateKey::Class, 4.0, 10, 2);
            let mut out = Vec::new();
            for win in 0..8u64 {
                for i in 0..12 {
                    det.observe(&json!({"time": win * w + i, "class": "data"}));
                }
                if late_burst && win == 5 {
                    for i in 0..2 {
                        det.observe(&json!({"time": w + 500 + i, "class": "data"}));
                    }
                }
                det.evaluate_ready(&mut out);
            }
            det.evaluate_all(&mut out);
            (out, det.baselines.clone(), det.late_events())
        };
        let (alerts, baselines, late) = run(true);
        assert_eq!(late, 2);
        assert!(alerts.is_empty(), "a ghost window of 2 ops would be a collapse: {alerts:?}");
        assert_eq!((alerts, baselines, 0), run(false));
    }
}
