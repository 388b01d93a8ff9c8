#![warn(missing_docs)]

//! Live diagnosis: a streaming host for detectors over the event pipeline.
//!
//! The paper's headline claim is *near real-time* diagnosis — its
//! Elasticsearch/Kibana backend surfaces the Fluent Bit data-loss bug
//! (Fig. 2) and the RocksDB thread-contention pattern (Fig. 3/4) while
//! the trace is still running, by *configuration* of one generic pipeline.
//! This crate is that pipeline's live half: it knows no bug. What is
//! diagnosed is what the installed detectors — rule sets compiled by
//! `dio-rules`, the shipped `rules/*.dio` among them — say, raised as typed
//! [`Alert`]s carrying the evidence rows that triggered them.
//!
//! Three layers:
//!
//! * [`SlidingWindows`] — event-time windowing with watermark sealing;
//! * [`DynDetector`] — the observe / seal / finish lifecycle a detector
//!   implements;
//! * [`DiagnosisEngine`] — hosts the installed detectors, ingests event
//!   batches from the tracer's in-process tap or a stored session's replay,
//!   degrades to sampled evaluation under pipeline pressure, and publishes
//!   alerts + `diagnose.*` telemetry.
//!
//! # Examples
//!
//! ```
//! use dio_diagnose::{Alert, AlertKind, DiagnoseConfig, DiagnosisEngine, DynDetector, Severity};
//! use dio_syscall::EventView;
//! use serde_json::json;
//!
//! /// Flags every failed call.
//! struct Failures;
//! impl DynDetector for Failures {
//!     fn name(&self) -> &str {
//!         "failures"
//!     }
//!     fn observe(&mut self, event: &dyn EventView, out: &mut Vec<Alert>) {
//!         if event.ret_val().is_some_and(|ret| ret < 0) {
//!             out.push(Alert {
//!                 seq: 0,
//!                 detector: "failures",
//!                 kind: AlertKind::RuleMatch,
//!                 severity: Severity::Info,
//!                 time_ns: event.time(),
//!                 window_start_ns: None,
//!                 window_end_ns: None,
//!                 subject: "failures".into(),
//!                 message: "a call failed".into(),
//!                 fields: json!({}),
//!                 evidence: vec![event.document()],
//!                 attribution: None,
//!             });
//!         }
//!     }
//!     fn evaluate_ready(&mut self, _out: &mut Vec<Alert>) {}
//!     fn evaluate_all(&mut self, _out: &mut Vec<Alert>) {}
//! }
//!
//! let engine = DiagnosisEngine::new(DiagnoseConfig::default());
//! engine.install_detector(Box::new(Failures));
//! let fresh = engine.observe_batch(&[
//!     json!({"time": 1, "syscall": "write", "ret_val": 26}),
//!     json!({"time": 2, "syscall": "read", "ret_val": -5}),
//! ]);
//! assert_eq!(fresh.len(), 1);
//! assert_eq!(fresh[0].evidence[0]["time"], 2);
//! ```

mod alert;
mod dynamic;
mod engine;
mod window;

pub use alert::{Alert, AlertKind, Severity};
pub use dynamic::DynDetector;
pub use engine::{DiagnoseConfig, DiagnosisEngine, EngineStats};
pub use window::SlidingWindows;
