//! The detector interface.
//!
//! The engine knows no pattern of its own: everything it diagnoses is a
//! [`DynDetector`] installed with [`crate::DiagnosisEngine::install_detector`]
//! — most prominently rule sets compiled from the `dio-rules` DSL. Every
//! installed detector sees the same event stream (and degradation sampling)
//! and publishes into the same alert log.

use dio_syscall::EventView;
use dio_telemetry::MetricsRegistry;
use serde_json::Value;

use crate::alert::Alert;

/// A detector installed into the [`crate::DiagnosisEngine`].
///
/// The engine drives its lifecycle:
///
/// 1. [`DynDetector::observe`] for every evaluated event — a typed event
///    from the tracer's consumer or a document from any other feed, read
///    through [`EventView`] — in arrival order, under the engine lock
///    (implementations must not block);
/// 2. [`DynDetector::evaluate_ready`] after each batch (seal
///    watermark-ready windows);
/// 3. [`DynDetector::evaluate_all`] once, at end of stream.
///
/// Alerts pushed onto `out` receive their sequence numbers from the
/// engine and ship through its sinks.
pub trait DynDetector: Send {
    /// Stable name of the detector (used in reports and telemetry).
    fn name(&self) -> &str;

    /// Feeds one event; pushes any resulting alerts onto `out`.
    fn observe(&mut self, event: &dyn EventView, out: &mut Vec<Alert>);

    /// Seals watermark-ready windows and raises their alerts.
    fn evaluate_ready(&mut self, out: &mut Vec<Alert>);

    /// Seals every remaining window (end of stream).
    fn evaluate_all(&mut self, out: &mut Vec<Alert>);

    /// Number of windows still accumulating (feeds the
    /// `diagnose.windows.open` gauge).
    fn open_windows(&self) -> usize {
        0
    }

    /// Events this detector's window routers refused because their window
    /// had already been sealed (feeds [`crate::EngineStats::late_events`]).
    fn late_events(&self) -> u64 {
        0
    }

    /// Per-unit status reports (one JSON object per rule/check), used by
    /// `/api/rules` and the `dio top` rules panel. The default is empty.
    fn reports(&self) -> Vec<Value> {
        Vec::new()
    }

    /// Registers detector-specific telemetry (e.g. per-rule counters)
    /// with the session registry. Called when the engine itself is bound.
    fn bind_telemetry(&mut self, _registry: &MetricsRegistry) {}

    /// Names of rules that opted into DFG attribution (`attribution on`
    /// in the rule DSL). The engine collects these at install time and
    /// decorates only opted-in rule alerts; the default opts nothing in.
    fn attribution_optins(&self) -> Vec<String> {
        Vec::new()
    }
}
