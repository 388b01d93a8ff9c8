//! The named-metric registry and its snapshots.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

use serde_json::{json, Value};

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A borrowed view of one registered metric, as visited by
/// [`MetricsRegistry::for_each`]. Lets encoders (e.g. the OpenMetrics
/// exposition) reach the live instruments — including histogram buckets
/// and exemplars a [`TelemetrySnapshot`] does not carry — without
/// cloning the registry.
#[derive(Clone, Copy)]
pub enum MetricRef<'a> {
    /// A counter.
    Counter(&'a Counter),
    /// A gauge.
    Gauge(&'a Gauge),
    /// A histogram.
    Histogram(&'a Histogram),
}

/// Registry of named metrics for one pipeline instance.
///
/// Registration (`counter`/`gauge`/`histogram`) takes a write lock once;
/// components hold the returned `Arc` and update it lock-free afterwards.
/// Names are dotted paths, e.g. `ebpf.ring.dropped`.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Returns the counter `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = self.metrics.write().unwrap_or_else(|e| e.into_inner());
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// Returns the gauge `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut metrics = self.metrics.write().unwrap_or_else(|e| e.into_inner());
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// Returns the histogram `name`, creating it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut metrics = self.metrics.write().unwrap_or_else(|e| e.into_inner());
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// Visits every registered metric in name order, borrowing the live
    /// instrument. The registry's read lock is held for the duration of
    /// the walk, so keep `f` cheap (recording stays lock-free — only
    /// registration takes the write lock).
    pub fn for_each(&self, mut f: impl FnMut(&str, MetricRef<'_>)) {
        let metrics = self.metrics.read().unwrap_or_else(|e| e.into_inner());
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => f(name, MetricRef::Counter(c)),
                Metric::Gauge(g) => f(name, MetricRef::Gauge(g)),
                Metric::Histogram(h) => f(name, MetricRef::Histogram(h)),
            }
        }
    }

    /// Copies every metric's current value into a [`TelemetrySnapshot`].
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let metrics = self.metrics.read().unwrap_or_else(|e| e.into_inner());
        let mut snap = TelemetrySnapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let metrics = self.metrics.read().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("MetricsRegistry").field("metrics", &metrics.len()).finish()
    }
}

/// A point-in-time copy of every registered metric.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TelemetrySnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram statistics by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl TelemetrySnapshot {
    /// Counter total, or 0 when the counter never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, or 0 when the gauge never registered.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram statistics, when recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders the snapshot as flat health documents for bulk-indexing —
    /// one document per metric, all sharing `session`, export sequence
    /// number `seq`, and timestamp `time` (ns).
    ///
    /// Schema: `{session, seq, time, metric, kind, value}` for counters
    /// and gauges; histogram documents replace `value` with
    /// `{count, min, max, mean, p50, p90, p99, p999}`.
    pub fn health_documents(&self, session: &str, seq: u64, time_ns: u64) -> Vec<Value> {
        let mut docs =
            Vec::with_capacity(self.counters.len() + self.gauges.len() + self.histograms.len());
        for (name, value) in &self.counters {
            docs.push(json!({
                "session": session,
                "seq": seq,
                "time": time_ns,
                "metric": name,
                "kind": "counter",
                "value": *value,
            }));
        }
        for (name, value) in &self.gauges {
            docs.push(json!({
                "session": session,
                "seq": seq,
                "time": time_ns,
                "metric": name,
                "kind": "gauge",
                "value": *value,
            }));
        }
        for (name, h) in &self.histograms {
            docs.push(json!({
                "session": session,
                "seq": seq,
                "time": time_ns,
                "metric": name,
                "kind": "histogram",
                "count": h.count,
                "min": h.min,
                "max": h.max,
                "mean": h.mean,
                "p50": h.p50,
                "p90": h.p90,
                "p99": h.p99,
                "p999": h.p999,
            }));
        }
        docs
    }
}

/// One export round read back from health documents: every metric as of
/// `time_ns`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExportRound {
    /// Export sequence number.
    pub seq: u64,
    /// Export wall-clock time (ns since the Unix epoch).
    pub time_ns: u64,
    /// The metrics as the round exported them.
    pub metrics: TelemetrySnapshot,
}

impl ExportRound {
    /// Reads documents written by [`TelemetrySnapshot::health_documents`]
    /// back into export rounds, in `seq` order. Documents without a
    /// `metric` or of another `kind` (alerts, storage reports) are skipped.
    pub fn from_documents<'a>(docs: impl IntoIterator<Item = &'a Value>) -> Vec<ExportRound> {
        let mut rounds: BTreeMap<u64, ExportRound> = BTreeMap::new();
        for doc in docs {
            let (Some(name), Some(kind)) = (doc["metric"].as_str(), doc["kind"].as_str()) else {
                continue;
            };
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                continue;
            }
            let seq = doc["seq"].as_u64().unwrap_or(0);
            let round = rounds.entry(seq).or_insert_with(|| ExportRound {
                seq,
                time_ns: doc["time"].as_u64().unwrap_or(0),
                metrics: TelemetrySnapshot::default(),
            });
            let (m, name, value) =
                (&mut round.metrics, name.to_string(), doc["value"].as_u64().unwrap_or(0));
            match kind {
                "counter" => {
                    m.counters.insert(name, value);
                }
                "gauge" => {
                    m.gauges.insert(name, value);
                }
                _ => {
                    if let Ok(h) = serde_json::from_value(doc) {
                        m.histograms.insert(name, h);
                    }
                }
            }
        }
        rounds.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_instrument() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("x.count");
        let b = registry.counter("x.count");
        a.add(2);
        b.add(3);
        assert_eq!(registry.snapshot().counter("x.count"), 5);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflicts_panic() {
        let registry = MetricsRegistry::new();
        registry.counter("x");
        registry.gauge("x");
    }

    #[test]
    fn snapshot_covers_all_kinds() {
        let registry = MetricsRegistry::new();
        registry.counter("c").add(7);
        registry.gauge("g").set(42);
        registry.histogram("h").record(1000);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("c"), 7);
        assert_eq!(snap.gauge("g"), 42);
        assert_eq!(snap.histogram("h").unwrap().count, 1);
        assert_eq!(snap.counter("missing"), 0);
        assert!(!snap.is_empty());
    }

    #[test]
    fn health_documents_carry_schema() {
        let registry = MetricsRegistry::new();
        registry.counter("ebpf.ring.dropped").add(9);
        registry.histogram("tracer.shipper.batch_ns").record(500);
        let docs = registry.snapshot().health_documents("s1", 3, 1_000_000);
        assert_eq!(docs.len(), 2);
        let counter_doc = docs.iter().find(|d| d["kind"] == "counter").expect("counter doc");
        assert_eq!(counter_doc["session"], "s1");
        assert_eq!(counter_doc["seq"], 3);
        assert_eq!(counter_doc["metric"], "ebpf.ring.dropped");
        assert_eq!(counter_doc["value"], 9);
        let hist_doc = docs.iter().find(|d| d["kind"] == "histogram").expect("histogram doc");
        assert_eq!(hist_doc["count"], 1);
        assert!(hist_doc.get("p999").is_some());
    }

    #[test]
    fn health_documents_read_back_into_rounds() {
        let registry = MetricsRegistry::new();
        registry.counter("c").add(7);
        registry.gauge("g").set(42);
        for v in [3, 500, 70_000] {
            registry.histogram("h").record(v);
        }
        let first = registry.snapshot();
        registry.counter("c").add(1);
        let second = registry.snapshot();
        let mut docs = second.health_documents("s", 2, 2_000);
        docs.extend(first.health_documents("s", 1, 1_000));
        docs.push(json!({"session": "s", "kind": "alert", "seq": 0}));
        docs.push(json!({"session": "s", "seq": 3, "metric": "x", "kind": "span"}));
        let rounds = ExportRound::from_documents(&docs);
        assert_eq!(rounds.len(), 2, "other kinds open no round");
        assert_eq!((rounds[0].seq, rounds[0].time_ns), (1, 1_000));
        assert_eq!(rounds[0].metrics, first);
        assert_eq!(rounds[1].metrics, second);
    }

    #[test]
    fn snapshot_roundtrips_through_serde() {
        let registry = MetricsRegistry::new();
        registry.counter("a").add(1);
        registry.histogram("b").record(10);
        let snap = registry.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
