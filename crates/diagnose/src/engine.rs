//! The windowed event-stream diagnosis engine.
//!
//! [`DiagnosisEngine`] hosts the detectors installed into it
//! ([`DiagnosisEngine::install_detector`] — compiled rule sets) and exposes
//! a batch-oriented ingestion API ([`DiagnosisEngine::observe_batch`]). It
//! has two feeds: the tracer's consumer thread calls
//! [`DiagnosisEngine::observe_batch_with_pressure`] with the typed events of
//! each drain, passing the pipeline's current fill level (no document is
//! built, no backend round-trip), and `dio_tracer::diagnose_index` replays a
//! stored session's events in time order.
//!
//! Backpressure degrades, never stalls: when the reported pressure crosses
//! [`DiagnoseConfig::degrade_pressure`], the engine evaluates only 1 in
//! [`DiagnoseConfig::degraded_sample_every`] events (counted in
//! [`EngineStats::sampled_out`] and the `diagnose.events.sampled_out`
//! telemetry counter) — the shipper-side cost of diagnosis stays bounded
//! under ring-buffer pressure.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use dio_syscall::EventView;
use dio_telemetry::{Counter, Gauge, MetricsRegistry};
use parking_lot::Mutex;
use serde_json::Value;

use crate::alert::Alert;
use crate::dynamic::DynDetector;

/// Configuration of the live diagnosis engine (flat so it serializes
/// through the tracer's JSON configuration file). What a verdict means —
/// thresholds, keys, prefixes — is rule text, not configuration.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DiagnoseConfig {
    /// The width (ns) the shipped rules' windows are compiled at. Default
    /// 1s, the paper's Fig. 4 bucketing; a configured rule's width is what
    /// its text says.
    pub window_ns: u64,
    /// Pipeline pressure (0..1) beyond which evaluation degrades to
    /// sampling.
    pub degrade_pressure: f64,
    /// Under degradation, evaluate 1 in this many events.
    pub degraded_sample_every: u64,
    /// An alert stays "active" while the event-time clock is within this
    /// horizon of it (drives the `dio top` active-alerts panel).
    pub active_ttl_ns: u64,
    /// Maximum evidence rows attached per alert.
    pub evidence_limit: usize,
}

impl Default for DiagnoseConfig {
    fn default() -> Self {
        DiagnoseConfig {
            window_ns: 1_000_000_000,
            degrade_pressure: 0.75,
            degraded_sample_every: 16,
            active_ttl_ns: 5_000_000_000,
            evidence_limit: 8,
        }
    }
}

impl DiagnoseConfig {
    /// Sets the shipped rules' window width (ns).
    pub fn window_ns(mut self, ns: u64) -> Self {
        self.window_ns = ns.max(1);
        self
    }

    /// Sets the degradation trigger (pipeline fill fraction, 0..1).
    pub fn degrade_pressure(mut self, fraction: f64) -> Self {
        self.degrade_pressure = fraction;
        self
    }

    /// Sets the degraded sampling period (evaluate 1 in `n` events).
    pub fn degraded_sample_every(mut self, n: u64) -> Self {
        self.degraded_sample_every = n.max(1);
        self
    }
}

/// Counters summarizing an engine's lifetime (also exported as
/// `diagnose.*` telemetry while a registry is bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Events offered to the engine.
    pub observed: u64,
    /// Events actually run through the detectors.
    pub evaluated: u64,
    /// Events skipped by degraded (sampled) evaluation.
    pub sampled_out: u64,
    /// Evaluated events at least one window router refused because the
    /// window they belong to had already been sealed (each event once).
    pub late_events: u64,
    /// Batches that arrived while the engine was degraded.
    pub degraded_batches: u64,
    /// Alerts raised.
    pub alerts_raised: u64,
}

struct EngineInner {
    /// The installed detectors (compiled rule sets), in installation order.
    dynamic: Vec<Box<dyn DynDetector>>,
    /// Rule names that opted into DFG attribution (`attribution on`).
    attribution_rules: std::collections::BTreeSet<String>,
    alerts: Vec<Alert>,
    /// When each alert still active stops being so (`time_ns` + TTL),
    /// soonest first: the active gauge is this heap's size, kept by popping
    /// what the event-time clock has passed instead of rescanning `alerts`.
    active_until: BinaryHeap<Reverse<u64>>,
    unshipped: Vec<Alert>,
    finished: bool,
}

impl EngineInner {
    /// Late events summed over every window router of the engine.
    fn late_events(&self) -> u64 {
        self.dynamic.iter().map(|d| d.late_events()).sum()
    }
}

struct EngineTelemetry {
    observed: Arc<Counter>,
    evaluated: Arc<Counter>,
    sampled_out: Arc<Counter>,
    late: Arc<Counter>,
    degraded_batches: Arc<Counter>,
    alerts_raised: Arc<Counter>,
    active_alerts: Arc<Gauge>,
    open_windows: Arc<Gauge>,
}

/// Computes the `attribution` block for an alert, installed via
/// [`DiagnosisEngine::set_attributor`]. In the shipped wiring this is the
/// DFG profiler's critical-path computation; the engine itself only knows
/// the type, keeping `dio-diagnose` free of a profile dependency.
pub type Attributor = Box<dyn Fn(&Alert) -> Option<Value> + Send + Sync>;

/// The live diagnosis engine (see the module docs).
pub struct DiagnosisEngine {
    config: DiagnoseConfig,
    inner: Mutex<EngineInner>,
    attributor: OnceLock<Attributor>,
    observed: AtomicU64,
    evaluated: AtomicU64,
    sampled_out: AtomicU64,
    late_events: AtomicU64,
    degraded_batches: AtomicU64,
    last_event_ns: AtomicU64,
    sample_tick: AtomicU64,
    telemetry: OnceLock<EngineTelemetry>,
    /// Set once the first alert has dumped the flight recorder, so a
    /// noisy engine produces one forensic snapshot, not one per alert.
    flight_dumped: AtomicBool,
}

impl std::fmt::Debug for DiagnosisEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiagnosisEngine")
            .field("observed", &self.observed.load(Ordering::Relaxed))
            .field("alerts", &self.inner.lock().alerts.len())
            .finish()
    }
}

impl DiagnosisEngine {
    /// Builds an engine with nothing installed: it raises what the
    /// detectors given to [`DiagnosisEngine::install_detector`] raise.
    pub fn new(config: DiagnoseConfig) -> Arc<Self> {
        Arc::new(DiagnosisEngine {
            inner: Mutex::new(EngineInner {
                dynamic: Vec::new(),
                attribution_rules: Default::default(),
                alerts: Vec::new(),
                active_until: BinaryHeap::new(),
                unshipped: Vec::new(),
                finished: false,
            }),
            config,
            attributor: OnceLock::new(),
            observed: AtomicU64::new(0),
            evaluated: AtomicU64::new(0),
            sampled_out: AtomicU64::new(0),
            late_events: AtomicU64::new(0),
            degraded_batches: AtomicU64::new(0),
            last_event_ns: AtomicU64::new(0),
            sample_tick: AtomicU64::new(0),
            telemetry: OnceLock::new(),
            flight_dumped: AtomicBool::new(false),
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &DiagnoseConfig {
        &self.config
    }

    /// Installs a detector (e.g. a compiled `dio-rules` rule set).
    ///
    /// Install **before** [`DiagnosisEngine::bind_telemetry`] so the
    /// detector's own counters (`diagnose.rule.*`) register with the
    /// session registry; detectors installed later still run but skip
    /// telemetry registration.
    pub fn install_detector(&self, detector: Box<dyn DynDetector>) {
        let mut inner = self.inner.lock();
        inner.attribution_rules.extend(detector.attribution_optins());
        inner.dynamic.push(detector);
    }

    /// Installs the attribution callback (at most once; later calls are
    /// ignored). When present, an alert whose `fields.rule` names a rule
    /// that opted in via `attribution on` (see
    /// [`DynDetector::attribution_optins`]) is decorated with its result
    /// before being stored or returned.
    pub fn set_attributor(&self, attributor: Attributor) {
        let _ = self.attributor.set(attributor);
    }

    /// Per-unit status reports of every installed detector (one JSON
    /// object per rule), in installation order.
    pub fn dynamic_reports(&self) -> Vec<Value> {
        let inner = self.inner.lock();
        inner.dynamic.iter().flat_map(|d| d.reports()).collect()
    }

    /// Registers the `diagnose.*` counters and gauges with a session
    /// registry so degradation and alert activity ship with the health
    /// documents. Also binds every detector installed so far.
    pub fn bind_telemetry(&self, registry: &MetricsRegistry) {
        for detector in self.inner.lock().dynamic.iter_mut() {
            detector.bind_telemetry(registry);
        }
        let _ = self.telemetry.set(EngineTelemetry {
            observed: registry.counter("diagnose.events.observed"),
            evaluated: registry.counter("diagnose.events.evaluated"),
            sampled_out: registry.counter("diagnose.events.sampled_out"),
            late: registry.counter("diagnose.events.late"),
            degraded_batches: registry.counter("diagnose.batches.degraded"),
            alerts_raised: registry.counter("diagnose.alerts.raised"),
            active_alerts: registry.gauge("diagnose.alerts.active"),
            open_windows: registry.gauge("diagnose.windows.open"),
        });
    }

    /// Feeds a batch at zero pressure (full evaluation).
    pub fn observe_batch<E: EventView>(&self, events: &[E]) -> Vec<Alert> {
        self.observe_batch_with_pressure(events, 0.0)
    }

    /// Feeds a batch of events — typed events or their documents, the
    /// detectors read both through [`EventView`] — returning any alerts
    /// raised.
    ///
    /// `pressure` is the caller's pipeline fill fraction (0..1); at or
    /// above [`DiagnoseConfig::degrade_pressure`] the engine samples
    /// instead of evaluating every event, so a loaded pipeline never waits
    /// on diagnosis.
    pub fn observe_batch_with_pressure<E: EventView>(
        &self,
        events: &[E],
        pressure: f64,
    ) -> Vec<Alert> {
        self.observe_views(events.len(), &mut events.iter().map(|e| e as &dyn EventView), pressure)
    }

    fn observe_views(
        &self,
        count: usize,
        events: &mut dyn Iterator<Item = &dyn EventView>,
        pressure: f64,
    ) -> Vec<Alert> {
        if count == 0 {
            return Vec::new();
        }
        let degraded =
            pressure >= self.config.degrade_pressure && self.config.degraded_sample_every > 1;
        if degraded {
            self.degraded_batches.fetch_add(1, Ordering::Relaxed);
        }
        let mut fresh = Vec::new();
        let mut evaluated = 0u64;
        let mut sampled_out = 0u64;
        let mut late = 0u64;
        let mut max_time = 0u64;
        {
            let mut inner = self.inner.lock();
            let mut late_so_far = inner.late_events();
            for event in events {
                max_time = max_time.max(event.time());
                if degraded {
                    let tick = self.sample_tick.fetch_add(1, Ordering::Relaxed);
                    if !tick.is_multiple_of(self.config.degraded_sample_every) {
                        sampled_out += 1;
                        continue;
                    }
                }
                evaluated += 1;
                for detector in inner.dynamic.iter_mut() {
                    detector.observe(event, &mut fresh);
                }
                // An event counts as late once, however many routers
                // refused it; windowless stream rules saw it all the same.
                let late_now = inner.late_events();
                late += u64::from(late_now > late_so_far);
                late_so_far = late_now;
            }
            for detector in inner.dynamic.iter_mut() {
                detector.evaluate_ready(&mut fresh);
            }
            self.commit(&mut inner, &mut fresh, max_time);
        }
        self.observed.fetch_add(count as u64, Ordering::Relaxed);
        self.evaluated.fetch_add(evaluated, Ordering::Relaxed);
        self.sampled_out.fetch_add(sampled_out, Ordering::Relaxed);
        self.late_events.fetch_add(late, Ordering::Relaxed);
        if let Some(t) = self.telemetry.get() {
            t.observed.add(count as u64);
            t.evaluated.add(evaluated);
            t.sampled_out.add(sampled_out);
            t.late.add(late);
            if degraded {
                t.degraded_batches.inc();
            }
        }
        fresh
    }

    /// Seals every open window and runs the end-of-stream checks; further
    /// calls are no-ops. Returns the alerts raised by this final pass.
    pub fn finish(&self) -> Vec<Alert> {
        let mut fresh = Vec::new();
        let mut inner = self.inner.lock();
        if inner.finished {
            return fresh;
        }
        inner.finished = true;
        for detector in inner.dynamic.iter_mut() {
            detector.evaluate_all(&mut fresh);
        }
        let time = self.last_event_ns.load(Ordering::Relaxed);
        self.commit(&mut inner, &mut fresh, time);
        fresh
    }

    /// Assigns sequence numbers, records the batch's event-time high
    /// water mark, and publishes `fresh` into the alert log.
    fn commit(&self, inner: &mut EngineInner, fresh: &mut [Alert], max_time: u64) {
        if max_time > 0 {
            self.last_event_ns.fetch_max(max_time, Ordering::Relaxed);
        }
        if !fresh.is_empty() {
            let attributor = self.attributor.get();
            for alert in fresh.iter_mut() {
                alert.seq = inner.alerts.len() as u64;
                alert.evidence.truncate(self.config.evidence_limit);
                // Decorate before cloning so the stored, shipped, and
                // returned copies all carry the same attribution — an
                // alert gets one when its rule opted in.
                if alert.attribution.is_none() {
                    if let Some(attribute) = attributor {
                        let wants = alert.fields["rule"]
                            .as_str()
                            .is_some_and(|rule| inner.attribution_rules.contains(rule));
                        if wants {
                            alert.attribution = attribute(alert);
                        }
                    }
                }
                let until = alert.time_ns.saturating_add(self.config.active_ttl_ns);
                inner.active_until.push(Reverse(until));
                inner.alerts.push(alert.clone());
                inner.unshipped.push(alert.clone());
            }
            if let Some(t) = self.telemetry.get() {
                t.alerts_raised.add(fresh.len() as u64);
            }
            // First alert of the session: freeze the flight recorder so
            // the spans leading up to the anomaly survive for forensics.
            if !self.flight_dumped.swap(true, Ordering::Relaxed) {
                let _ = dio_telemetry::trace::dump_on_trigger("alert");
            }
        }
        // The event-time clock only advances, so an alert it has passed
        // stays passed: each is pushed once and popped once.
        let now = self.last_event_ns.load(Ordering::Relaxed);
        while inner.active_until.peek().is_some_and(|until| until.0 <= now) {
            inner.active_until.pop();
        }
        if let Some(t) = self.telemetry.get() {
            t.active_alerts.set(inner.active_until.len() as u64);
            t.open_windows
                .set(inner.dynamic.iter().map(|d| d.open_windows()).sum::<usize>() as u64);
        }
    }

    /// Every alert raised so far, in sequence order.
    pub fn alerts(&self) -> Vec<Alert> {
        self.inner.lock().alerts.clone()
    }

    /// Alerts whose event time is within [`DiagnoseConfig::active_ttl_ns`]
    /// of the engine's event-time clock (the `dio top` active panel).
    pub fn active_alerts(&self) -> Vec<Alert> {
        let now = self.last_event_ns.load(Ordering::Relaxed);
        self.inner
            .lock()
            .alerts
            .iter()
            .filter(|a| a.time_ns.saturating_add(self.config.active_ttl_ns) > now)
            .cloned()
            .collect()
    }

    /// Alerts raised since the last drain (for shipping to the backend).
    pub fn drain_unshipped(&self) -> Vec<Alert> {
        std::mem::take(&mut self.inner.lock().unshipped)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            observed: self.observed.load(Ordering::Relaxed),
            evaluated: self.evaluated.load(Ordering::Relaxed),
            sampled_out: self.sampled_out.load(Ordering::Relaxed),
            late_events: self.late_events.load(Ordering::Relaxed),
            degraded_batches: self.degraded_batches.load(Ordering::Relaxed),
            alerts_raised: self.inner.lock().alerts.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::{AlertKind, Severity};
    use crate::window::SlidingWindows;
    use dio_syscall::Field;
    use serde_json::json;

    fn ev(time: u64, proc: &str, syscall: &str, ret: i64, tag: &str, offset: u64) -> Value {
        json!({
            "time": time, "proc_name": proc, "syscall": syscall,
            "ret_val": ret, "file_tag": tag, "offset": offset, "class": "data",
        })
    }

    fn buggy_batch() -> Vec<Value> {
        vec![
            ev(1, "app", "write", 26, "7340032|12|100", 0),
            ev(2, "fluent-bit", "read", 26, "7340032|12|100", 0),
            ev(3, "fluent-bit", "read", 0, "7340032|12|100", 26),
            ev(4, "app", "write", 16, "7340032|12|200", 0),
            ev(5, "fluent-bit", "read", 0, "7340032|12|200", 26),
        ]
    }

    fn alert(detector: &'static str, kind: AlertKind, time_ns: u64, rule: &str) -> Alert {
        Alert {
            seq: 0,
            detector,
            kind,
            severity: Severity::Info,
            time_ns,
            window_start_ns: None,
            window_end_ns: None,
            subject: rule.into(),
            message: format!("rule {rule} matched"),
            fields: json!({"rule": rule}),
            evidence: Vec::new(),
            attribution: None,
        }
    }

    /// Stands in for a stream rule: a read of nothing at an offset past 0
    /// is `data_loss`, raised as the event is observed.
    struct StaleReads;
    impl DynDetector for StaleReads {
        fn name(&self) -> &str {
            "rules"
        }
        fn observe(&mut self, event: &dyn EventView, out: &mut Vec<Alert>) {
            if event.ret_val() == Some(0) && event.uint(Field::Offset).is_some_and(|o| o > 0) {
                out.push(alert("rules", AlertKind::DataLoss, event.time(), "data_loss"));
            }
        }
        fn evaluate_ready(&mut self, _out: &mut Vec<Alert>) {}
        fn evaluate_all(&mut self, _out: &mut Vec<Alert>) {}
        fn attribution_optins(&self) -> Vec<String> {
            vec!["data_loss".to_string()]
        }
    }

    fn engine_with_stale_reads(config: DiagnoseConfig) -> Arc<DiagnosisEngine> {
        let engine = DiagnosisEngine::new(config);
        engine.install_detector(Box::new(StaleReads));
        engine
    }

    #[test]
    fn engine_raises_a_stream_alert_immediately() {
        let engine = engine_with_stale_reads(DiagnoseConfig::default());
        let fresh = engine.observe_batch(&buggy_batch());
        assert!(fresh.iter().any(|a| a.kind == AlertKind::DataLoss), "got {fresh:?}");
        let stats = engine.stats();
        assert_eq!(stats.observed, 5);
        assert_eq!(stats.evaluated, 5);
        assert_eq!(stats.sampled_out, 0);
        assert!(stats.alerts_raised >= 1);
    }

    #[test]
    fn an_engine_with_nothing_installed_counts_and_raises_nothing() {
        let engine = DiagnosisEngine::new(DiagnoseConfig::default());
        assert!(engine.observe_batch(&buggy_batch()).is_empty());
        assert!(engine.finish().is_empty());
        assert_eq!((engine.stats().evaluated, engine.stats().alerts_raised), (5, 0));
    }

    #[test]
    fn sequence_numbers_are_assigned_in_order() {
        let engine = engine_with_stale_reads(DiagnoseConfig::default());
        engine.observe_batch(&buggy_batch());
        engine.finish();
        let alerts = engine.alerts();
        assert_eq!(alerts.len(), 2);
        for (i, a) in alerts.iter().enumerate() {
            assert_eq!(a.seq, i as u64);
        }
    }

    #[test]
    fn pressure_degrades_to_sampling_and_counts_it() {
        let config = DiagnoseConfig::default().degrade_pressure(0.5).degraded_sample_every(4);
        let engine = DiagnosisEngine::new(config);
        let registry = MetricsRegistry::new();
        engine.bind_telemetry(&registry);
        let docs: Vec<Value> =
            (0..100).map(|i| json!({"time": i, "class": "data", "ret_val": 1})).collect();
        engine.observe_batch_with_pressure(&docs, 0.9);
        let stats = engine.stats();
        assert_eq!(stats.observed, 100);
        assert_eq!(stats.sampled_out, 75, "3 of 4 skipped");
        assert_eq!(stats.evaluated, 25);
        assert_eq!(stats.degraded_batches, 1);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("diagnose.events.sampled_out"), 75);
        assert_eq!(snap.counter("diagnose.batches.degraded"), 1);
    }

    #[test]
    fn below_threshold_pressure_evaluates_everything() {
        let engine = DiagnosisEngine::new(DiagnoseConfig::default());
        let docs: Vec<Value> = (0..50).map(|i| json!({"time": i, "class": "data"})).collect();
        engine.observe_batch_with_pressure(&docs, 0.2);
        assert_eq!(engine.stats().evaluated, 50);
        assert_eq!(engine.stats().sampled_out, 0);
    }

    #[test]
    fn finish_is_idempotent_and_drain_unshipped_clears() {
        let engine = engine_with_stale_reads(DiagnoseConfig::default());
        engine.observe_batch(&buggy_batch());
        engine.finish();
        let shipped = engine.drain_unshipped();
        assert!(!shipped.is_empty());
        assert!(engine.drain_unshipped().is_empty());
        assert!(engine.finish().is_empty(), "second finish is a no-op");
    }

    #[test]
    fn active_alerts_expire_with_event_time() {
        let config = DiagnoseConfig { active_ttl_ns: 100, ..Default::default() };
        let engine = engine_with_stale_reads(config);
        engine.observe_batch(&buggy_batch());
        assert_eq!(engine.active_alerts().len(), engine.alerts().len());
        // Advance the event-time clock far beyond the TTL.
        engine.observe_batch(&[json!({"time": 10_000, "class": "data"})]);
        assert!(engine.active_alerts().is_empty());
        assert!(!engine.alerts().is_empty(), "history is retained");
    }

    #[test]
    fn dynamic_detector_runs_the_full_lifecycle() {
        struct Probe {
            seen: u64,
        }
        impl DynDetector for Probe {
            fn name(&self) -> &str {
                "probe"
            }
            fn observe(&mut self, _event: &dyn EventView, _out: &mut Vec<Alert>) {
                self.seen += 1;
            }
            fn evaluate_ready(&mut self, _out: &mut Vec<Alert>) {}
            fn evaluate_all(&mut self, out: &mut Vec<Alert>) {
                let mut seen = alert("rule", AlertKind::RuleMatch, 9, "probe");
                seen.message = format!("saw {} events", self.seen);
                out.push(seen);
            }
            fn reports(&self) -> Vec<Value> {
                vec![json!({"rule": "probe", "seen": self.seen})]
            }
        }

        let engine = engine_with_stale_reads(DiagnoseConfig::default());
        engine.install_detector(Box::new(Probe { seen: 0 }));
        engine.observe_batch(&buggy_batch());
        let fresh = engine.finish();
        assert!(fresh
            .iter()
            .any(|a| a.kind == AlertKind::RuleMatch && a.message == "saw 5 events"));
        let reports = engine.dynamic_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0]["seen"], 5);
        // The end-of-stream alert went through commit: it has a real
        // sequence number and shows up in the shared alert log.
        let alerts = engine.alerts();
        assert!(alerts.iter().any(|a| a.kind == AlertKind::RuleMatch));
        for (i, a) in alerts.iter().enumerate() {
            assert_eq!(a.seq, i as u64);
        }
    }

    #[test]
    fn attributor_decorates_opted_in_rules_only() {
        struct RulePair;
        impl DynDetector for RulePair {
            fn name(&self) -> &str {
                "rules"
            }
            fn observe(&mut self, _event: &dyn EventView, _out: &mut Vec<Alert>) {}
            fn evaluate_ready(&mut self, _out: &mut Vec<Alert>) {}
            fn evaluate_all(&mut self, out: &mut Vec<Alert>) {
                out.extend(["opted", "plain"].map(|r| alert("rules", AlertKind::RuleMatch, 9, r)));
            }
            fn attribution_optins(&self) -> Vec<String> {
                vec!["opted".to_string()]
            }
        }

        let engine = engine_with_stale_reads(DiagnoseConfig::default());
        engine.install_detector(Box::new(RulePair));
        engine.set_attributor(Box::new(|alert| {
            Some(json!({"edge": "write->fsync", "for": alert.subject}))
        }));
        engine.observe_batch(&buggy_batch());
        engine.finish();
        let alerts = engine.alerts();
        let data_loss = alerts.iter().find(|a| a.kind == AlertKind::DataLoss).unwrap();
        assert!(data_loss.attribution.is_some(), "another set's opted-in rule");
        let opted = alerts.iter().find(|a| a.subject == "opted").unwrap();
        assert_eq!(opted.attribution.as_ref().unwrap()["for"], "opted");
        let plain = alerts.iter().find(|a| a.subject == "plain").unwrap();
        assert!(plain.attribution.is_none(), "non-opted rule stays bare");
        // The shipped copies carry the same decoration as the stored ones.
        let shipped = engine.drain_unshipped();
        let shipped_loss = shipped.iter().find(|a| a.kind == AlertKind::DataLoss).unwrap();
        assert_eq!(shipped_loss.attribution, data_loss.attribution);
    }

    /// Stands in for a window rule: one alert per sealed tumbling window
    /// that held at least two events, named after the detector.
    struct Busy(&'static str, SlidingWindows<u64>);
    impl Busy {
        fn seal(&self, sealed: Vec<(u64, u64)>, out: &mut Vec<Alert>) {
            let width = self.1.width_ns();
            for (start, _) in sealed.into_iter().filter(|&(_, ops)| ops >= 2) {
                let mut busy = alert(self.0, AlertKind::ErrorRateAnomaly, start + width, self.0);
                (busy.window_start_ns, busy.window_end_ns) = (Some(start), Some(start + width));
                out.push(busy);
            }
        }
    }
    impl DynDetector for Busy {
        fn name(&self) -> &str {
            self.0
        }
        fn observe(&mut self, event: &dyn EventView, _out: &mut Vec<Alert>) {
            self.1.observe(event.time(), |ops| *ops += 1);
        }
        fn evaluate_ready(&mut self, out: &mut Vec<Alert>) {
            let sealed = self.1.drain_ready();
            self.seal(sealed, out);
        }
        fn evaluate_all(&mut self, out: &mut Vec<Alert>) {
            let sealed = self.1.drain_all();
            self.seal(sealed, out);
        }
        fn open_windows(&self) -> usize {
            self.1.open_count()
        }
        fn late_events(&self) -> u64 {
            self.1.late_events()
        }
    }

    /// The order a round-robin drain hands over after a stall: five
    /// windows' worth waiting in two per-CPU queues, one event per window
    /// in the sparse one, a hundred in the dense one. The sparse queue runs
    /// the watermark four windows ahead within the first drain, so most of
    /// the dense queue arrives after its windows were sealed.
    #[test]
    fn late_events_of_an_uneven_round_robin_drain_are_counted_and_seal_nothing_twice() {
        let w = 1_000u64;
        let engine = DiagnosisEngine::new(DiagnoseConfig::default());
        for name in ["a", "b", "c"] {
            engine.install_detector(Box::new(Busy(name, SlidingWindows::new(w, 0))));
        }
        let registry = MetricsRegistry::new();
        engine.bind_telemetry(&registry);
        let ev = |time: u64, proc: &str| {
            json!({"time": time, "proc_name": proc, "syscall": "read", "class": "data",
                   "ret_val": -5, "file_tag": "7|12|100", "offset": 0})
        };
        let mut sparse = (0..5).map(|win| ev(win * w + w / 2, "sparse"));
        let mut dense = (0..500).map(|i| ev(i * (w / 100), "dense"));
        let mut order = Vec::new();
        loop {
            let (a, b) = (sparse.next(), dense.next());
            if a.is_none() && b.is_none() {
                break;
            }
            order.extend(a);
            order.extend(b);
        }
        for drain in order.chunks(16) {
            engine.observe_batch(drain);
        }
        engine.finish();

        let stats = engine.stats();
        assert_eq!(stats.observed, 505);
        assert_eq!(stats.observed, stats.evaluated + stats.sampled_out);
        // The first drain seals [0, 3w) on 11 dense events; the other 289
        // of those windows come too late, and each counts once although
        // three routers refuse it.
        assert_eq!(stats.late_events, 289);
        assert_eq!(registry.snapshot().counter("diagnose.events.late"), 289);
        let alerts = engine.alerts();
        let windows: Vec<_> = alerts
            .iter()
            .filter(|a| a.detector == "a")
            .map(|a| a.window_start_ns.unwrap())
            .collect();
        assert_eq!(windows, [0, 3 * w, 4 * w], "every window that filled alerts once");
        let mut sealed = std::collections::HashSet::new();
        for a in &alerts {
            let window = (a.detector, a.window_start_ns, a.subject.as_str());
            assert!(sealed.insert(window), "evaluated twice: {a:?}");
        }
        assert_eq!(sealed.len(), 9);
    }

    /// The active gauge is kept by expiry, not by rescanning the log: it
    /// must read what a rescan reads after every batch, with alerts whose
    /// times run ahead of and behind the event-time clock.
    #[test]
    fn active_gauge_equals_a_recount_through_a_thousand_alerts() {
        struct Noisy;
        impl DynDetector for Noisy {
            fn name(&self) -> &str {
                "noisy"
            }
            fn observe(&mut self, event: &dyn EventView, out: &mut Vec<Alert>) {
                let t = event.time();
                // Up to 60 ns behind or 30 ns ahead of the event.
                let time_ns = (t + (t * 7) % 90).saturating_sub(60);
                out.push(alert("noisy", AlertKind::RuleMatch, time_ns, "noisy"));
            }
            fn evaluate_ready(&mut self, _out: &mut Vec<Alert>) {}
            fn evaluate_all(&mut self, _out: &mut Vec<Alert>) {}
        }

        let config = DiagnoseConfig { active_ttl_ns: 40, ..Default::default() };
        let engine = DiagnosisEngine::new(config);
        engine.install_detector(Box::new(Noisy));
        let registry = MetricsRegistry::new();
        engine.bind_telemetry(&registry);
        let docs: Vec<Value> = (0..1_000u64).map(|i| json!({"time": i * 3 + i % 5})).collect();
        let mut peak = 0;
        for batch in docs.chunks(7) {
            engine.observe_batch(batch);
            let gauge = registry.snapshot().gauge("diagnose.alerts.active");
            assert_eq!(gauge, engine.active_alerts().len() as u64);
            peak = peak.max(gauge);
        }
        assert!(peak > 7, "alerts of earlier batches stay active: {peak}");
        engine.observe_batch(&[json!({"time": 100_000})]);
        assert_eq!(registry.snapshot().gauge("diagnose.alerts.active"), 1, "only the newest");
        assert_eq!(registry.snapshot().counter("diagnose.alerts.raised"), 1_001);
    }

    #[test]
    fn config_json_roundtrip() {
        let config = DiagnoseConfig::default().window_ns(250_000_000).degraded_sample_every(3);
        let json = serde_json::to_string(&config).unwrap();
        let parsed: DiagnoseConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, config);
    }
}
