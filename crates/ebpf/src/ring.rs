//! Per-CPU bounded ring buffers for kernel→user event transport.
//!
//! Mirrors the BPF per-CPU ring buffer: producers (eBPF programs in the
//! syscall path) never block — when the consumer lags and a CPU's buffer is
//! full, the event is **dropped** and counted. §III-D of the paper measures
//! exactly this (3.5% of 549 M events dropped at 256 MiB/CPU).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crossbeam::queue::ArrayQueue;

use dio_telemetry::span::{monotonic_ns, SpanCollector, Stage, StageStamps, StampCarrier};
use dio_telemetry::{Counter, Gauge, MetricsRegistry};

/// Sizing for the per-CPU buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RingConfig {
    /// Bytes reserved per CPU (the paper's experiments use 256 MiB).
    pub bytes_per_cpu: u64,
    /// Estimated serialized size of one event, used to convert bytes to
    /// slots (DIO events average a few hundred bytes of JSON).
    pub est_event_bytes: u64,
}

impl RingConfig {
    /// The paper's configuration: 256 MiB per CPU.
    pub fn paper_default() -> Self {
        RingConfig { bytes_per_cpu: 256 * 1024 * 1024, est_event_bytes: 512 }
    }

    /// A small buffer for tests and discard-rate experiments.
    pub fn with_bytes_per_cpu(bytes_per_cpu: u64) -> Self {
        RingConfig { bytes_per_cpu, est_event_bytes: 512 }
    }

    /// Slots per CPU implied by this configuration (at least 1).
    pub fn slots_per_cpu(&self) -> usize {
        ((self.bytes_per_cpu / self.est_event_bytes.max(1)) as usize).max(1)
    }
}

/// Counters for a single CPU's buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CpuRingStats {
    /// The CPU index.
    pub cpu: u32,
    /// Events successfully produced into this CPU's buffer.
    pub pushed: u64,
    /// Events taken out by the consumer.
    pub consumed: u64,
    /// Events dropped because this CPU's buffer was full.
    pub dropped: u64,
    /// Highest occupancy (queued events) this buffer ever reached.
    pub occupancy_hwm: u64,
}

impl CpuRingStats {
    /// Fraction of this CPU's produced-or-dropped events that were dropped.
    pub fn drop_rate(&self) -> f64 {
        let total = self.pushed + self.dropped;
        if total == 0 {
            0.0
        } else {
            self.dropped as f64 / total as f64
        }
    }
}

/// Counters describing ring-buffer behaviour over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Events successfully produced into some CPU buffer.
    pub pushed: u64,
    /// Events taken out by the consumer.
    pub consumed: u64,
    /// Events dropped because the target CPU buffer was full.
    pub dropped: u64,
    /// Highest occupancy any single CPU buffer ever reached.
    pub occupancy_hwm: u64,
    /// Per-CPU breakdown, indexed by CPU.
    pub per_cpu: Vec<CpuRingStats>,
}

impl RingStats {
    /// Fraction of produced-or-dropped events that were dropped.
    pub fn drop_rate(&self) -> f64 {
        let total = self.pushed + self.dropped;
        if total == 0 {
            0.0
        } else {
            self.dropped as f64 / total as f64
        }
    }

    /// Spread between the busiest and quietest CPU's drop rate — nonzero
    /// when the consumer's round-robin draining or a skewed producer load
    /// penalizes some CPUs more than others.
    pub fn drop_skew(&self) -> f64 {
        let rates: Vec<f64> = self.per_cpu.iter().map(CpuRingStats::drop_rate).collect();
        match (
            rates.iter().cloned().fold(f64::INFINITY, f64::min),
            rates.iter().cloned().fold(0.0f64, f64::max),
        ) {
            (min, max) if min.is_finite() => max - min,
            _ => 0.0,
        }
    }
}

/// Telemetry handles the ring updates on its hot paths once
/// [`RingBuffer::bind_telemetry`] is called.
#[derive(Debug)]
struct RingTelemetry {
    pushed: Arc<Counter>,
    dropped: Arc<Counter>,
    consumed: Arc<Counter>,
    occupancy_hwm: Arc<Gauge>,
}

/// Per-queue counters backing [`CpuRingStats`].
#[derive(Debug, Default)]
struct CpuCounters {
    pushed: AtomicU64,
    consumed: AtomicU64,
    dropped: AtomicU64,
    occupancy_hwm: AtomicU64,
}

/// A set of per-CPU bounded queues with drop accounting.
///
/// # Examples
///
/// ```
/// use dio_ebpf::{RingBuffer, RingConfig};
///
/// let ring: RingBuffer<u32> = RingBuffer::with_slots(2, 4);
/// ring.try_push(0, 7);
/// assert_eq!(ring.drain(0, 16), vec![7]);
/// assert_eq!(ring.stats().consumed, 1);
/// ```
#[derive(Debug)]
pub struct RingBuffer<T> {
    queues: Vec<ArrayQueue<T>>,
    counters: Vec<CpuCounters>,
    telemetry: OnceLock<RingTelemetry>,
    spans: OnceLock<Arc<SpanCollector>>,
}

impl<T> RingBuffer<T> {
    /// Creates per-CPU buffers sized by `config`.
    pub fn new(num_cpus: u32, config: RingConfig) -> Self {
        Self::with_slots(num_cpus, config.slots_per_cpu())
    }

    /// Creates per-CPU buffers with an explicit slot count.
    pub fn with_slots(num_cpus: u32, slots_per_cpu: usize) -> Self {
        let n = num_cpus.max(1) as usize;
        RingBuffer {
            queues: (0..n).map(|_| ArrayQueue::new(slots_per_cpu.max(1))).collect(),
            counters: (0..n).map(|_| CpuCounters::default()).collect(),
            telemetry: OnceLock::new(),
            spans: OnceLock::new(),
        }
    }

    /// Registers the ring's metrics (`ebpf.ring.pushed` / `.dropped` /
    /// `.consumed` / `.occupancy_hwm`) with `registry`; the hot paths
    /// update them lock-free from then on. Binding twice is a no-op.
    pub fn bind_telemetry(&self, registry: &MetricsRegistry) {
        let _ = self.telemetry.set(RingTelemetry {
            pushed: registry.counter("ebpf.ring.pushed"),
            dropped: registry.counter("ebpf.ring.dropped"),
            consumed: registry.counter("ebpf.ring.consumed"),
            occupancy_hwm: registry.gauge("ebpf.ring.occupancy_hwm"),
        });
    }

    /// Attaches a span collector for drop attribution: from then on,
    /// events rejected by [`RingBuffer::try_push_stamped`] are reported as
    /// drop-attributed partial spans. Binding twice is a no-op.
    pub fn bind_spans(&self, spans: Arc<SpanCollector>) {
        let _ = self.spans.set(spans);
    }

    /// Number of per-CPU queues.
    pub fn num_cpus(&self) -> u32 {
        self.queues.len() as u32
    }

    /// Events currently queued across all CPU buffers.
    pub fn occupancy(&self) -> u64 {
        self.queues.iter().map(|q| q.len() as u64).sum()
    }

    /// Total slots across all CPU buffers.
    pub fn capacity(&self) -> u64 {
        self.queues.iter().map(|q| q.capacity() as u64).sum()
    }

    /// Current fill level of the *fullest* CPU buffer, 0.0 (empty) to
    /// 1.0 (every slot occupied) — the backpressure signal consumers use
    /// to shed optional work before drops begin. Per-CPU, not averaged:
    /// overflow happens per queue, so one saturated CPU is real pressure
    /// even while the others idle.
    pub fn fill_fraction(&self) -> f64 {
        self.queues
            .iter()
            .map(|q| if q.capacity() == 0 { 0.0 } else { q.len() as f64 / q.capacity() as f64 })
            .fold(0.0, f64::max)
    }

    /// The single overflow-accounting site. The per-CPU counters are the
    /// **source of truth** for drop counts; the `ebpf.ring.dropped`
    /// telemetry counter and the span collector's drop attribution are
    /// derived views updated here, in the same call, so the three can
    /// never diverge (they are reconciled against each other in tests).
    fn note_drop(&self, slot: usize, pre_push: Option<&StageStamps>) {
        self.counters[slot].dropped.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = self.telemetry.get() {
            t.dropped.inc();
        }
        if let Some(pre) = pre_push {
            if let Some(spans) = self.spans.get() {
                spans.record_drop(pre);
            }
        }
    }

    /// Success path of a push: counters and telemetry on accept, `false`
    /// (no accounting) on overflow — the caller routes overflow through
    /// [`RingBuffer::note_drop`].
    fn push_at(&self, slot: usize, item: T) -> bool {
        let q = &self.queues[slot];
        match q.push(item) {
            Ok(()) => {
                self.counters[slot].pushed.fetch_add(1, Ordering::Relaxed);
                let occupancy = q.len() as u64;
                // Raised only when a load shows a new maximum (see
                // `Gauge::set_max`).
                let hwm = &self.counters[slot].occupancy_hwm;
                if occupancy > hwm.load(Ordering::Relaxed) {
                    hwm.fetch_max(occupancy, Ordering::Relaxed);
                }
                if let Some(t) = self.telemetry.get() {
                    t.pushed.inc();
                    t.occupancy_hwm.set_max(occupancy);
                }
                true
            }
            Err(_) => false,
        }
    }

    /// Non-blocking push from CPU `cpu`. On overflow the event is dropped
    /// and counted; the producer never waits.
    pub fn try_push(&self, cpu: u32, item: T) -> bool {
        let slot = cpu as usize % self.queues.len();
        if self.push_at(slot, item) {
            true
        } else {
            self.note_drop(slot, None);
            false
        }
    }

    /// [`RingBuffer::try_push`] for span-carrying events: stamps
    /// [`Stage::RingPush`] on the event entering the ring, and on overflow
    /// hands the *pre-push* partial stamp record to the bound
    /// [`SpanCollector`] so the drop is attributed to the `ring_push`
    /// hand-off the event failed to clear — in the same internal
    /// `note_drop` call that bumps the counters.
    pub fn try_push_stamped(&self, cpu: u32, mut item: T) -> bool
    where
        T: StampCarrier,
    {
        let slot = cpu as usize % self.queues.len();
        let pre_push = *item.stamps();
        item.stamps_mut().stamp_now(Stage::RingPush);
        if self.push_at(slot, item) {
            true
        } else {
            self.note_drop(slot, Some(&pre_push));
            false
        }
    }

    fn count_consumed(&self, slot: usize, n: u64) {
        if n == 0 {
            return;
        }
        self.counters[slot].consumed.fetch_add(n, Ordering::Relaxed);
        if let Some(t) = self.telemetry.get() {
            t.consumed.add(n);
        }
    }

    /// Pops up to `max` events from CPU `cpu`'s buffer.
    pub fn drain(&self, cpu: u32, max: usize) -> Vec<T> {
        let slot = cpu as usize % self.queues.len();
        let q = &self.queues[slot];
        let mut out = Vec::new();
        while out.len() < max {
            match q.pop() {
                Some(item) => out.push(item),
                None => break,
            }
        }
        self.count_consumed(slot, out.len() as u64);
        out
    }

    /// Pops up to `max` events across all CPU buffers, round-robin.
    pub fn drain_all(&self, max: usize) -> Vec<T> {
        // An idle poll returns before the per-queue tally is built, so it
        // allocates nothing.
        if self.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut taken = vec![0u64; self.queues.len()];
        'outer: loop {
            let mut empty = 0;
            for (slot, q) in self.queues.iter().enumerate() {
                if out.len() >= max {
                    break 'outer;
                }
                match q.pop() {
                    Some(item) => {
                        out.push(item);
                        taken[slot] += 1;
                    }
                    None => empty += 1,
                }
            }
            if empty == self.queues.len() {
                break;
            }
        }
        for (slot, n) in taken.into_iter().enumerate() {
            self.count_consumed(slot, n);
        }
        out
    }

    /// [`RingBuffer::drain_all`] for span-carrying events: stamps
    /// [`Stage::RingDrain`] on every event leaving the ring (one clock
    /// read for the whole batch).
    pub fn drain_all_stamped(&self, max: usize) -> Vec<T>
    where
        T: StampCarrier,
    {
        let mut out = self.drain_all(max);
        if !out.is_empty() {
            let now = monotonic_ns();
            for item in &mut out {
                item.stamps_mut().stamp(Stage::RingDrain, now);
            }
        }
        out
    }

    /// Whether every CPU buffer is currently empty.
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty())
    }

    /// Counter snapshot, with the per-CPU breakdown.
    pub fn stats(&self) -> RingStats {
        let per_cpu: Vec<CpuRingStats> = self
            .counters
            .iter()
            .enumerate()
            .map(|(cpu, c)| CpuRingStats {
                cpu: cpu as u32,
                pushed: c.pushed.load(Ordering::Relaxed),
                consumed: c.consumed.load(Ordering::Relaxed),
                dropped: c.dropped.load(Ordering::Relaxed),
                occupancy_hwm: c.occupancy_hwm.load(Ordering::Relaxed),
            })
            .collect();
        RingStats {
            pushed: per_cpu.iter().map(|c| c.pushed).sum(),
            consumed: per_cpu.iter().map(|c| c.consumed).sum(),
            dropped: per_cpu.iter().map(|c| c.dropped).sum(),
            occupancy_hwm: per_cpu.iter().map(|c| c.occupancy_hwm).max().unwrap_or(0),
            per_cpu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_slot_math() {
        let c = RingConfig::paper_default();
        assert_eq!(c.slots_per_cpu(), (256 * 1024 * 1024 / 512) as usize);
        assert_eq!(RingConfig::with_bytes_per_cpu(1024).slots_per_cpu(), 2);
        assert_eq!(RingConfig { bytes_per_cpu: 1, est_event_bytes: 512 }.slots_per_cpu(), 1);
    }

    #[test]
    fn push_drain_roundtrip() {
        let ring: RingBuffer<u32> = RingBuffer::with_slots(2, 8);
        for i in 0..5 {
            assert!(ring.try_push(i % 2, i));
        }
        let cpu0 = ring.drain(0, 16);
        let cpu1 = ring.drain(1, 16);
        assert_eq!(cpu0, vec![0, 2, 4]);
        assert_eq!(cpu1, vec![1, 3]);
        assert!(ring.is_empty());
    }

    #[test]
    fn overflow_drops_and_counts() {
        let ring: RingBuffer<u32> = RingBuffer::with_slots(1, 2);
        assert!(ring.try_push(0, 1));
        assert!(ring.try_push(0, 2));
        assert!(!ring.try_push(0, 3));
        assert!(!ring.try_push(0, 4));
        let s = ring.stats();
        assert_eq!(s.pushed, 2);
        assert_eq!(s.dropped, 2);
        assert!((s.drop_rate() - 0.5).abs() < 1e-9);
        // Consumer only ever sees the events that fit.
        assert_eq!(ring.drain(0, 16), vec![1, 2]);
    }

    #[test]
    fn drain_all_round_robins() {
        let ring: RingBuffer<u32> = RingBuffer::with_slots(3, 4);
        ring.try_push(0, 0);
        ring.try_push(1, 1);
        ring.try_push(2, 2);
        ring.try_push(0, 3);
        let all = ring.drain_all(10);
        assert_eq!(all, vec![0, 1, 2, 3]);
        assert_eq!(ring.stats().consumed, 4);
    }

    #[test]
    fn drain_respects_max() {
        let ring: RingBuffer<u32> = RingBuffer::with_slots(1, 8);
        for i in 0..6 {
            ring.try_push(0, i);
        }
        assert_eq!(ring.drain(0, 4).len(), 4);
        assert_eq!(ring.drain_all(1).len(), 1);
        assert_eq!(ring.drain(0, 16).len(), 1);
    }

    #[test]
    fn cpu_index_wraps() {
        let ring: RingBuffer<u32> = RingBuffer::with_slots(2, 4);
        ring.try_push(5, 42); // cpu 5 % 2 == 1
        assert_eq!(ring.drain(1, 4), vec![42]);
    }

    #[test]
    fn empty_drop_rate_is_zero() {
        let ring: RingBuffer<u32> = RingBuffer::with_slots(1, 1);
        assert_eq!(ring.stats().drop_rate(), 0.0);
    }

    /// Regression: the aggregate occupancy high-water mark is per-CPU and
    /// must be the max of the per-CPU maxima, never their sum — HWM 3 on
    /// cpu0 plus HWM 2 on cpu1 is an aggregate of 3, not 5.
    #[test]
    fn occupancy_hwm_aggregates_max_of_maxes_not_sum() {
        let ring: RingBuffer<u32> = RingBuffer::with_slots(2, 8);
        for i in 0..3 {
            ring.try_push(0, i); // cpu0 occupancy reaches 3
        }
        for i in 0..2 {
            ring.try_push(1, i); // cpu1 occupancy reaches 2
        }
        let s = ring.stats();
        assert_eq!(s.per_cpu[0].occupancy_hwm, 3);
        assert_eq!(s.per_cpu[1].occupancy_hwm, 2);
        assert_eq!(s.occupancy_hwm, 3, "aggregate must be max(3, 2), not 3 + 2");
        // Draining never lowers a high-water mark.
        ring.drain_all(16);
        assert_eq!(ring.stats().occupancy_hwm, 3);
    }

    #[test]
    fn stamped_push_and_drain_stamp_hand_offs() {
        use dio_telemetry::span::StageStamps;

        let ring: RingBuffer<StageStamps> = RingBuffer::with_slots(1, 4);
        let mut stamps = StageStamps::new();
        stamps.stamp_now(Stage::KernelDispatch);
        assert!(ring.try_push_stamped(0, stamps));
        let drained = ring.drain_all_stamped(4);
        assert_eq!(drained.len(), 1);
        let s = drained[0];
        let push = s.get(Stage::RingPush).expect("push stamped");
        let drain = s.get(Stage::RingDrain).expect("drain stamped");
        assert!(s.get(Stage::KernelDispatch).unwrap() <= push);
        assert!(push <= drain);
        assert_eq!(s.first_missing(), Some(Stage::Parse));
    }

    #[test]
    fn capacity_and_fill_fraction_track_occupancy() {
        let ring: RingBuffer<u32> = RingBuffer::with_slots(2, 4);
        assert_eq!(ring.capacity(), 8);
        assert_eq!(ring.fill_fraction(), 0.0);
        for i in 0..2 {
            ring.try_push(0, i);
        }
        // Fill is per-CPU (the fullest queue), not a workspace average:
        // CPU 0 at 2/4 while CPU 1 idles reads as 0.5, not 0.25.
        assert!((ring.fill_fraction() - 0.5).abs() < 1e-9);
        for i in 0..4 {
            ring.try_push(1, i);
        }
        assert!((ring.fill_fraction() - 1.0).abs() < 1e-9);
        ring.drain_all(16);
        assert_eq!(ring.fill_fraction(), 0.0);
    }

    /// The drop-accounting contract: the per-CPU counters are the source
    /// of truth, and both derived views — the `ebpf.ring.dropped`
    /// telemetry counter and the span collector's drop attribution — must
    /// reconcile with them exactly, because all three are updated at the
    /// single `note_drop` site.
    #[test]
    fn drop_accounting_reconciles_across_stats_telemetry_and_spans() {
        use dio_telemetry::span::StageStamps;
        use dio_telemetry::MetricsRegistry;

        let registry = MetricsRegistry::new();
        let spans = SpanCollector::new(&registry);
        let ring: RingBuffer<StageStamps> = RingBuffer::with_slots(2, 2);
        ring.bind_telemetry(&registry);
        ring.bind_spans(Arc::clone(&spans));

        let mut stamps = StageStamps::new();
        stamps.stamp_now(Stage::KernelDispatch);
        let mut accepted = 0u64;
        for i in 0..20u32 {
            if ring.try_push_stamped(i % 2, stamps) {
                accepted += 1;
            }
        }
        let stats = ring.stats();
        assert_eq!(stats.pushed, accepted);
        assert_eq!(stats.dropped, 20 - accepted);
        assert!(stats.dropped > 0, "tiny ring must overflow");
        let per_cpu_sum: u64 = stats.per_cpu.iter().map(|c| c.dropped).sum();
        assert_eq!(per_cpu_sum, stats.dropped, "aggregate = sum of source-of-truth counters");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("ebpf.ring.dropped"), stats.dropped);
        assert_eq!(snap.counter("ebpf.ring.pushed"), stats.pushed);
        let summary = spans.summary();
        assert_eq!(summary.dropped, stats.dropped);
        assert_eq!(summary.drops_by_stage.get("ring_push"), Some(&stats.dropped));
    }

    #[test]
    fn stamped_push_overflow_attributes_drop_to_ring_push() {
        use dio_telemetry::span::StageStamps;
        use dio_telemetry::MetricsRegistry;

        let registry = MetricsRegistry::new();
        let spans = SpanCollector::new(&registry);
        let ring: RingBuffer<StageStamps> = RingBuffer::with_slots(1, 1);
        ring.bind_spans(Arc::clone(&spans));

        let mut stamps = StageStamps::new();
        stamps.stamp_now(Stage::KernelDispatch);
        assert!(ring.try_push_stamped(0, stamps));
        assert!(!ring.try_push_stamped(0, stamps), "second push overflows");

        let summary = spans.summary();
        assert_eq!(summary.dropped, 1);
        assert_eq!(summary.drops_by_stage.get("ring_push"), Some(&1));
        assert_eq!(summary.e2e.count, 0, "dropped events never reach e2e");
    }
}
