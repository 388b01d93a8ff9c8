//! End-to-end event span tracing for the DIO pipeline.
//!
//! Every traced event carries a compact [`StageStamps`] record — a fixed
//! array of monotonic nanosecond timestamps, one per pipeline hand-off
//! ([`Stage`]): kernel dispatch, ring push, ring drain, parse, batch
//! enqueue, bulk index. Stages stamp at their hand-off point; the
//! [`SpanCollector`] turns completed records into per-transition and
//! end-to-end latency histograms, attributes dropped events to the stage
//! that starved (partial stamp records), and maintains the pipeline **lag
//! watermark** — the age of the oldest event that has entered the pipeline
//! but not yet been bulk-indexed, as far as the shipped frontier can tell.
//!
//! All stamps come from one process-wide monotonic clock
//! ([`monotonic_ns`]), so latencies derived between stages are always
//! non-negative regardless of which thread stamped which stage.
//!
//! # Examples
//!
//! ```
//! use dio_telemetry::span::{monotonic_ns, SpanCollector, Stage, StageStamps};
//! use dio_telemetry::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let spans = SpanCollector::new(&registry);
//!
//! let mut stamps = StageStamps::new();
//! for stage in Stage::ALL {
//!     stamps.stamp(stage, monotonic_ns());
//! }
//! spans.note_emitted(stamps.get(Stage::KernelDispatch).unwrap());
//! spans.record_shipped(&stamps);
//!
//! let summary = spans.summary();
//! assert_eq!(summary.completed, 1);
//! assert_eq!(summary.e2e.count, 1);
//! assert_eq!(summary.lag_watermark_ns, 0, "pipeline fully drained");
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::registry::MetricsRegistry;

/// Process-wide monotonic clock base, initialized on first use.
static MONO_BASE: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide monotonic epoch (always >= 1, so 0
/// can serve as the "never stamped" sentinel in [`StageStamps`]).
#[inline]
pub fn monotonic_ns() -> u64 {
    monotonic_ns_at(Instant::now())
}

/// [`monotonic_ns`] of a clock reading the caller already holds, so one
/// reading can also serve another clock.
#[inline]
pub fn monotonic_ns_at(at: Instant) -> u64 {
    let base = MONO_BASE.get_or_init(Instant::now);
    u64::try_from(at.saturating_duration_since(*base).as_nanos()).unwrap_or(u64::MAX).max(1)
}

/// The pipeline hand-off points an event passes through, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Stage {
    /// The kernel fired `sys_exit` and the joined event left kernel space.
    KernelDispatch = 0,
    /// The kernel-side program handed the event to the per-CPU ring.
    RingPush = 1,
    /// The user-space consumer drained the event out of the ring.
    RingDrain = 2,
    /// The consumer finished parsing the raw record into a document.
    Parse = 3,
    /// The document entered the consumer→shipper batch channel.
    BatchEnqueue = 4,
    /// The backend acknowledged the bulk request holding the document.
    BulkIndex = 5,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::KernelDispatch,
        Stage::RingPush,
        Stage::RingDrain,
        Stage::Parse,
        Stage::BatchEnqueue,
        Stage::BulkIndex,
    ];

    /// Number of stages.
    pub const COUNT: usize = 6;

    /// Stable snake_case name (metric suffixes, document keys).
    pub fn name(self) -> &'static str {
        match self {
            Stage::KernelDispatch => "kernel_dispatch",
            Stage::RingPush => "ring_push",
            Stage::RingDrain => "ring_drain",
            Stage::Parse => "parse",
            Stage::BatchEnqueue => "batch_enqueue",
            Stage::BulkIndex => "bulk_index",
        }
    }
}

/// The 5 stage-to-stage transitions, as `(from, to, metric_suffix)`.
const TRANSITIONS: [(Stage, Stage, &str); 5] = [
    (Stage::KernelDispatch, Stage::RingPush, "dispatch_to_push"),
    (Stage::RingPush, Stage::RingDrain, "push_to_drain"),
    (Stage::RingDrain, Stage::Parse, "drain_to_parse"),
    (Stage::Parse, Stage::BatchEnqueue, "parse_to_enqueue"),
    (Stage::BatchEnqueue, Stage::BulkIndex, "enqueue_to_index"),
];

/// A compact per-event record of monotonic stamp times, one slot per
/// [`Stage`] (0 = never stamped). 48 bytes, `Copy`, no allocation — cheap
/// enough to ride inside every raw event through the ring buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct StageStamps {
    stamps: [u64; Stage::COUNT],
}

impl StageStamps {
    /// A record with no stage stamped.
    pub fn new() -> Self {
        StageStamps::default()
    }

    /// Records `ns` for `stage` (first stamp wins; later stamps of the
    /// same stage are ignored so a retry cannot rewrite history).
    pub fn stamp(&mut self, stage: Stage, ns: u64) {
        let slot = &mut self.stamps[stage as usize];
        if *slot == 0 {
            *slot = ns.max(1);
        }
    }

    /// Stamps `stage` with [`monotonic_ns`] now.
    pub fn stamp_now(&mut self, stage: Stage) {
        self.stamp(stage, monotonic_ns());
    }

    /// The stamp of `stage`, if recorded.
    pub fn get(&self, stage: Stage) -> Option<u64> {
        match self.stamps[stage as usize] {
            0 => None,
            ns => Some(ns),
        }
    }

    /// Nanoseconds between two stamped stages (`None` unless both are
    /// stamped). Saturating: never negative even under stamp reordering.
    pub fn latency_between(&self, from: Stage, to: Stage) -> Option<u64> {
        Some(self.get(to)?.saturating_sub(self.get(from)?))
    }

    /// End-to-end latency: kernel dispatch → bulk index.
    pub fn e2e_ns(&self) -> Option<u64> {
        self.latency_between(Stage::KernelDispatch, Stage::BulkIndex)
    }

    /// Whether every stage is stamped.
    pub fn is_complete(&self) -> bool {
        self.stamps.iter().all(|&s| s != 0)
    }

    /// The last stage stamped before the record stops — `None` for a
    /// blank record.
    pub fn last_stamped(&self) -> Option<Stage> {
        Stage::ALL.into_iter().rev().find(|&s| self.get(s).is_some())
    }

    /// The first stage missing a stamp — for a record discarded mid-flight
    /// this is the hand-off the event failed to clear (the stage that
    /// starved). `None` when complete.
    pub fn first_missing(&self) -> Option<Stage> {
        Stage::ALL.into_iter().find(|&s| self.get(s).is_none())
    }

    /// Each transition's latency in pipeline order, keyed by its name
    /// (`dispatch_to_push`, …, `enqueue_to_index`); `None` unless both of
    /// its stages are stamped.
    pub fn transitions(&self) -> impl Iterator<Item = (&'static str, Option<u64>)> + '_ {
        TRANSITIONS.into_iter().map(|(from, to, name)| (name, self.latency_between(from, to)))
    }
}

/// Implemented by event records that carry a [`StageStamps`]; lets
/// transport layers (the ring buffer) stamp hand-offs generically.
pub trait StampCarrier {
    /// Read access to the record's stamps.
    fn stamps(&self) -> &StageStamps;
    /// Write access to the record's stamps.
    fn stamps_mut(&mut self) -> &mut StageStamps;
}

impl StampCarrier for StageStamps {
    fn stamps(&self) -> &StageStamps {
        self
    }
    fn stamps_mut(&mut self) -> &mut StageStamps {
        self
    }
}

/// Aggregates [`StageStamps`] records into registry metrics: per-transition
/// latency histograms (`span.stage.<transition>_ns`), the end-to-end
/// histogram (`span.e2e_ns`), drop-attribution counters
/// (`span.drop.at_<stage>`), and the lag watermark gauges
/// (`span.lag.watermark_ns`, `span.lag.peak_ns`).
///
/// One collector per tracing session, shared by the kernel-side program
/// (emit accounting), the ring (drop attribution), the shipper (completed
/// spans) and the exporter (lag refresh).
pub struct SpanCollector {
    stage_ns: [Arc<Histogram>; TRANSITIONS.len()],
    e2e_ns: Arc<Histogram>,
    completed: Arc<Counter>,
    dropped: Arc<Counter>,
    drop_at: [Arc<Counter>; Stage::COUNT],
    lag_watermark: Arc<Gauge>,
    lag_peak: Arc<Gauge>,
    /// Events that entered the pipeline (kernel dispatch).
    emitted: AtomicU64,
    /// Events that left it (bulk-indexed or dropped).
    retired: AtomicU64,
    /// Kernel-dispatch stamp of the first event ever emitted (0 = none).
    first_dispatch_ns: AtomicU64,
    /// Highest kernel-dispatch stamp among bulk-indexed events.
    shipped_frontier_ns: AtomicU64,
}

impl std::fmt::Debug for SpanCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanCollector")
            .field("completed", &self.completed.get())
            .field("dropped", &self.dropped.get())
            .finish_non_exhaustive()
    }
}

impl SpanCollector {
    /// Creates a collector registering its metrics with `registry`.
    pub fn new(registry: &MetricsRegistry) -> Arc<Self> {
        let stage_ns =
            TRANSITIONS.map(|(_, _, name)| registry.histogram(&format!("span.stage.{name}_ns")));
        let drop_at = Stage::ALL.map(|s| registry.counter(&format!("span.drop.at_{}", s.name())));
        // The lag gauges are session-scoped state: when registries are
        // shared or pooled across back-to-back sessions, a stale peak from
        // a previous collector must not leak into this session's
        // waterline, so both are zeroed at construction.
        let lag_watermark = registry.gauge("span.lag.watermark_ns");
        let lag_peak = registry.gauge("span.lag.peak_ns");
        lag_watermark.set(0);
        lag_peak.set(0);
        // e2e carries metric→trace exemplars, as the shipper's batch_ns
        // does: a slow bucket on `/metrics` names the flight-recorder trace
        // whose `ship.batch` spans hold that request's stage breakdown.
        let e2e_ns = registry.histogram("span.e2e_ns");
        e2e_ns.enable_exemplars();
        Arc::new(SpanCollector {
            stage_ns,
            e2e_ns,
            completed: registry.counter("span.completed"),
            dropped: registry.counter("span.dropped"),
            drop_at,
            lag_watermark,
            lag_peak,
            emitted: AtomicU64::new(0),
            retired: AtomicU64::new(0),
            first_dispatch_ns: AtomicU64::new(0),
            shipped_frontier_ns: AtomicU64::new(0),
        })
    }

    /// Accounts an event entering the pipeline (stamped
    /// [`Stage::KernelDispatch`] at `dispatch_ns`).
    pub fn note_emitted(&self, dispatch_ns: u64) {
        self.emitted.fetch_add(1, Ordering::Relaxed);
        let _ = self.first_dispatch_ns.compare_exchange(
            0,
            dispatch_ns.max(1),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Records a fully shipped span: every stamped transition latency plus
    /// end-to-end, and advances the shipped frontier. The end-to-end sample
    /// takes the calling thread's innermost open span's trace as its
    /// bucket's exemplar.
    pub fn record_shipped(&self, stamps: &StageStamps) {
        self.record_shipped_all(std::slice::from_ref(stamps));
    }

    /// [`SpanCollector::record_shipped`] for every record of a bulk at
    /// once: each histogram's atomics are shared among them
    /// ([`Histogram::record_all`]).
    pub fn record_shipped_all(&self, stamps: &[StageStamps]) {
        for (histogram, (from, to, _)) in self.stage_ns.iter().zip(TRANSITIONS) {
            histogram.record_all(stamps.iter().filter_map(|st| st.latency_between(from, to)), 0);
        }
        let trace_id = crate::trace::current_trace_id().unwrap_or(0);
        self.e2e_ns.record_all(stamps.iter().filter_map(StageStamps::e2e_ns), trace_id);
        let n = stamps.len() as u64;
        self.completed.add(n);
        self.retired.fetch_add(n, Ordering::Relaxed);
        if let Some(dispatch) = stamps.iter().filter_map(|st| st.get(Stage::KernelDispatch)).max() {
            self.shipped_frontier_ns.fetch_max(dispatch, Ordering::Relaxed);
        }
    }

    /// Records a partial span for an event discarded mid-pipeline: stamped
    /// transitions still feed the per-stage histograms (they are real
    /// measurements), the drop is attributed to the first un-stamped stage
    /// (the hand-off that starved), and the end-to-end histogram is **not**
    /// touched — partial spans never count toward e2e.
    pub fn record_drop(&self, stamps: &StageStamps) {
        self.record_transitions(stamps);
        self.dropped.inc();
        self.retired.fetch_add(1, Ordering::Relaxed);
        let at = stamps.first_missing().unwrap_or(Stage::BulkIndex);
        self.drop_at[at as usize].inc();
    }

    fn record_transitions(&self, stamps: &StageStamps) {
        for (histogram, (_, ns)) in self.stage_ns.iter().zip(stamps.transitions()) {
            if let Some(ns) = ns {
                histogram.record(ns);
            }
        }
    }

    /// The lag watermark at monotonic time `now_ns`: `now` minus the newest
    /// kernel-dispatch stamp among bulk-indexed events (before anything
    /// ships, the first dispatch stamp), while any event is still in flight
    /// (emitted but neither bulk-indexed nor dropped). 0 when the pipeline
    /// is drained.
    ///
    /// Not an upper bound on the oldest in-flight event's age: the ring
    /// drains its per-CPU queues in turn, so a lightly loaded CPU's newer
    /// event can ship ahead of a busy CPU's older ones, and the single
    /// shipped frontier then under-reports.
    pub fn lag_watermark_ns(&self, now_ns: u64) -> u64 {
        if self.emitted.load(Ordering::Relaxed) == self.retired.load(Ordering::Relaxed) {
            return 0;
        }
        let frontier = self
            .shipped_frontier_ns
            .load(Ordering::Relaxed)
            .max(self.first_dispatch_ns.load(Ordering::Relaxed));
        if frontier == 0 {
            return 0;
        }
        now_ns.saturating_sub(frontier)
    }

    /// Recomputes the lag watermark now and publishes it to the
    /// `span.lag.watermark_ns` gauge (and the `span.lag.peak_ns`
    /// high-water mark). Called by the exporter before every round.
    pub fn refresh_lag(&self) -> u64 {
        let lag = self.lag_watermark_ns(monotonic_ns());
        self.lag_watermark.set(lag);
        self.lag_peak.set_max(lag);
        lag
    }

    /// Point-in-time summary of everything the collector derived.
    pub fn summary(&self) -> SpanSummary {
        let mut stages = BTreeMap::new();
        for (i, (_, _, name)) in TRANSITIONS.into_iter().enumerate() {
            stages.insert(name.to_string(), self.stage_ns[i].snapshot());
        }
        let mut drops_by_stage = BTreeMap::new();
        for stage in Stage::ALL {
            let n = self.drop_at[stage as usize].get();
            if n > 0 {
                drops_by_stage.insert(stage.name().to_string(), n);
            }
        }
        SpanSummary {
            completed: self.completed.get(),
            dropped: self.dropped.get(),
            stages,
            e2e: self.e2e_ns.snapshot(),
            lag_watermark_ns: self.refresh_lag(),
            peak_lag_ns: self.lag_peak.get(),
            drops_by_stage,
        }
    }
}

/// Span-derived statistics of a finished (or running) session: per-stage
/// and end-to-end latency percentiles, the lag watermark, and drop
/// attribution. Embedded in the tracer's `TraceSummary`.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SpanSummary {
    /// Spans that reached the backend (complete stamp records).
    pub completed: u64,
    /// Spans discarded mid-pipeline (partial stamp records).
    pub dropped: u64,
    /// Latency snapshot per stage transition, keyed by transition name
    /// (`dispatch_to_push`, `push_to_drain`, `drain_to_parse`,
    /// `parse_to_enqueue`, `enqueue_to_index`).
    pub stages: BTreeMap<String, HistogramSnapshot>,
    /// End-to-end latency (kernel dispatch → bulk index); counts only
    /// completed spans, never drop-attributed partials.
    pub e2e: HistogramSnapshot,
    /// Lag watermark at summary time (0 once the pipeline drained).
    pub lag_watermark_ns: u64,
    /// Highest lag watermark observed at any refresh point.
    pub peak_lag_ns: u64,
    /// Dropped events attributed to the stage that starved, keyed by
    /// stage name; empty when nothing dropped.
    pub drops_by_stage: BTreeMap<String, u64>,
}

impl SpanSummary {
    /// The latency snapshot of one transition (by transition name).
    pub fn stage(&self, transition: &str) -> Option<&HistogramSnapshot> {
        self.stages.get(transition)
    }

    /// Names of the stage transitions in pipeline order.
    pub fn transition_names() -> [&'static str; TRANSITIONS.len()] {
        TRANSITIONS.map(|(_, _, name)| name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamped(upto: usize) -> StageStamps {
        let mut s = StageStamps::new();
        for (i, stage) in Stage::ALL.into_iter().enumerate().take(upto) {
            s.stamp(stage, (i as u64 + 1) * 100);
        }
        s
    }

    #[test]
    fn monotonic_clock_is_monotone_and_nonzero() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(a >= 1);
        assert!(b >= a);
    }

    #[test]
    fn stamps_first_write_wins() {
        let mut s = StageStamps::new();
        assert_eq!(s.get(Stage::Parse), None);
        s.stamp(Stage::Parse, 500);
        s.stamp(Stage::Parse, 900);
        assert_eq!(s.get(Stage::Parse), Some(500));
        // A zero stamp is clamped to the sentinel-safe minimum.
        s.stamp(Stage::RingPush, 0);
        assert_eq!(s.get(Stage::RingPush), Some(1));
    }

    #[test]
    fn latencies_and_completion() {
        let full = stamped(Stage::COUNT);
        assert!(full.is_complete());
        assert_eq!(full.e2e_ns(), Some(500));
        assert_eq!(full.latency_between(Stage::RingPush, Stage::RingDrain), Some(100));
        assert_eq!(full.first_missing(), None);
        assert_eq!(full.last_stamped(), Some(Stage::BulkIndex));

        let partial = stamped(2); // dispatch + ring push only
        assert!(!partial.is_complete());
        assert_eq!(partial.e2e_ns(), None);
        assert_eq!(partial.first_missing(), Some(Stage::RingDrain));
        assert_eq!(partial.last_stamped(), Some(Stage::RingPush));
    }

    #[test]
    fn reordered_stamps_saturate_to_zero() {
        let mut s = StageStamps::new();
        s.stamp(Stage::KernelDispatch, 1_000);
        s.stamp(Stage::RingPush, 400); // clock misuse: earlier than dispatch
        assert_eq!(s.latency_between(Stage::KernelDispatch, Stage::RingPush), Some(0));
    }

    #[test]
    fn transitions_name_each_stamped_hand_off() {
        let full: Vec<_> = stamped(Stage::COUNT).transitions().collect();
        let names: Vec<&str> = full.iter().map(|&(name, _)| name).collect();
        assert_eq!(names, SpanSummary::transition_names());
        assert!(full.iter().all(|&(_, ns)| ns == Some(100)));
        let partial: Vec<_> = stamped(2).transitions().map(|(_, ns)| ns).collect();
        assert_eq!(partial, [Some(100), None, None, None, None]);
    }

    #[test]
    fn collector_records_complete_and_partial_spans() {
        let registry = MetricsRegistry::new();
        let spans = SpanCollector::new(&registry);
        let full = stamped(Stage::COUNT);
        spans.note_emitted(full.get(Stage::KernelDispatch).unwrap());
        spans.record_shipped(&full);

        let partial = stamped(2);
        spans.note_emitted(partial.get(Stage::KernelDispatch).unwrap());
        spans.record_drop(&partial);

        let summary = spans.summary();
        assert_eq!(summary.completed, 1);
        assert_eq!(summary.dropped, 1);
        assert_eq!(summary.e2e.count, 1, "partial spans never reach e2e");
        // dispatch→push saw both records; push→drain only the complete one.
        assert_eq!(summary.stage("dispatch_to_push").unwrap().count, 2);
        assert_eq!(summary.stage("push_to_drain").unwrap().count, 1);
        assert_eq!(summary.drops_by_stage.get("ring_drain"), Some(&1));
        assert_eq!(summary.lag_watermark_ns, 0, "both events retired");
    }

    #[test]
    fn e2e_exemplar_names_the_open_span_trace() {
        let registry = MetricsRegistry::new();
        let spans = SpanCollector::new(&registry);
        spans.record_shipped(&stamped(Stage::COUNT));
        let trace_id = {
            let batch = crate::trace::span("test", "test.batch");
            let mut late = StageStamps::new();
            late.stamp(Stage::KernelDispatch, 1_000);
            late.stamp(Stage::BulkIndex, 1_000_000_000);
            spans.record_shipped(&late);
            batch.ctx().trace_id
        };
        let e2e = registry.histogram("span.e2e_ns");
        let exemplars: Vec<_> = e2e.nonzero_buckets().iter().map(|b| b.exemplar).collect();
        assert_eq!(exemplars.len(), 2);
        assert_eq!(exemplars[0], None, "recorded outside any span");
        assert_eq!(exemplars[1], Some((trace_id, 999_999_000)));
    }

    #[test]
    fn lag_watermark_tracks_in_flight_events() {
        let registry = MetricsRegistry::new();
        let spans = SpanCollector::new(&registry);
        assert_eq!(spans.lag_watermark_ns(1_000_000), 0, "empty pipeline has no lag");

        spans.note_emitted(1_000);
        assert_eq!(spans.lag_watermark_ns(5_000), 4_000, "anchored at first dispatch");

        let mut full = StageStamps::new();
        full.stamp(Stage::KernelDispatch, 1_000);
        full.stamp(Stage::BulkIndex, 2_000);
        spans.record_shipped(&full);
        assert_eq!(spans.lag_watermark_ns(5_000), 0, "drained again");

        // Two in flight, one ships: bound anchored at the shipped frontier.
        spans.note_emitted(3_000);
        spans.note_emitted(4_000);
        let mut second = StageStamps::new();
        second.stamp(Stage::KernelDispatch, 3_000);
        second.stamp(Stage::BulkIndex, 4_500);
        spans.record_shipped(&second);
        assert_eq!(spans.lag_watermark_ns(10_000), 7_000);
        let lag = spans.refresh_lag();
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("span.lag.watermark_ns"), lag);
        assert!(snap.gauge("span.lag.peak_ns") >= lag);
    }

    /// Back-to-back sessions sharing one registry (or a pooled registry)
    /// must each start with a clean lag waterline: constructing a new
    /// collector resets both lag gauges.
    #[test]
    fn new_collector_resets_lag_gauges_from_previous_session() {
        let registry = MetricsRegistry::new();
        let first = SpanCollector::new(&registry);
        first.note_emitted(1_000); // in flight forever: lag grows
        let lag = first.refresh_lag();
        assert!(lag > 0);
        let snap = registry.snapshot();
        assert!(snap.gauge("span.lag.peak_ns") >= lag);

        let _second = SpanCollector::new(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("span.lag.watermark_ns"), 0, "fresh session, fresh waterline");
        assert_eq!(snap.gauge("span.lag.peak_ns"), 0, "previous session's peak not inherited");
    }

    #[test]
    fn summary_serializes() {
        let registry = MetricsRegistry::new();
        let spans = SpanCollector::new(&registry);
        spans.record_shipped(&stamped(Stage::COUNT));
        let summary = spans.summary();
        let v = serde_json::to_value(&summary).unwrap();
        assert_eq!(v["completed"], 1);
        assert!(v["stages"]["dispatch_to_push"].get("p99").is_some());
        let back: SpanSummary = serde_json::from_value(&v).unwrap();
        assert_eq!(back, summary);
    }
}
