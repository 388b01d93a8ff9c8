#![warn(missing_docs)]

//! Self-telemetry for the DIO pipeline (DIO observing DIO).
//!
//! The paper's argument (DSN 2023) is that you cannot diagnose what you
//! cannot observe; the same holds for the tracing pipeline itself. This
//! crate provides the substrate every stage reports into:
//!
//! * [`MetricsRegistry`] — named, lock-free [`Counter`]s, [`Gauge`]s and
//!   log-bucketed [`Histogram`]s (p50/p90/p99/p999 snapshots);
//! * [`LogHistogram`] — the one bucket layout and rank walk behind every
//!   latency distribution DIO summarises: the registry's histograms, the
//!   Fig. 3 windows of `dio-dbbench` and the DFG edges of `dio-profile`,
//!   each at a resolution fixed in code; exact samples read percentiles by
//!   the same nearest-rank rule ([`quantile_sorted`]), and nanoseconds
//!   print through one [`format_ns`];
//! * [`Histogram::start_timer`] — cheap scoped stage timers;
//! * [`TelemetrySnapshot`] — a point-in-time copy of every metric, able
//!   to render itself as flat backend health documents in JSON text — of
//!   every metric, or of those that changed since another snapshot — and to
//!   be read back from them ([`ExportRound`]);
//! * [`Exporter`] — a background thread that periodically snapshots the
//!   registry and hands each round's changed documents to a sink (the
//!   tracer wires the sink to `DocStore::bulk_text` on a
//!   `dio-telemetry-<session>` index);
//! * [`span`] — end-to-end event span tracing: per-event [`StageStamps`]
//!   stamped at every pipeline hand-off, aggregated by [`SpanCollector`]
//!   into per-stage/e2e latency histograms, a pipeline lag watermark, and
//!   drop attribution;
//! * [`trace`] — causal span tracing into the always-on, bounded
//!   [`trace::FlightRecorder`] (per-thread lock-free rings,
//!   oldest-evicted), with Chrome-trace export, a critical-path
//!   summary, and post-hoc dump triggers.
//!
//! Metric names are dotted paths (`ebpf.ring.dropped`,
//! `tracer.shipper.batch_ns`); the full catalog is documented in
//! DESIGN.md §"Self-telemetry".
//!
//! # Examples
//!
//! ```
//! use dio_telemetry::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let dropped = registry.counter("ebpf.ring.dropped");
//! dropped.add(3);
//! let parse = registry.histogram("tracer.consumer.parse_ns");
//! {
//!     let _timer = parse.start_timer();
//!     // ... stage work ...
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("ebpf.ring.dropped"), 3);
//! assert_eq!(snap.histogram("tracer.consumer.parse_ns").unwrap().count, 1);
//! ```

mod exporter;
mod metrics;
pub mod openmetrics;
mod registry;
pub mod span;
pub mod trace;

pub use exporter::{Exporter, ExporterHandle, HealthRound};
pub use metrics::{
    format_ns, quantile_sorted, Counter, Gauge, Histogram, HistogramBucket, HistogramSnapshot,
    LogHistogram, StageTimer,
};
pub use registry::{ExportRound, MetricRef, MetricsRegistry, TelemetrySnapshot};
pub use span::{
    monotonic_ns, monotonic_ns_at, SpanCollector, SpanSummary, Stage, StageStamps, StampCarrier,
};
pub use trace::{FlightRecorder, SpanCtx, TraceSpan};
