//! The named-metric registry and its snapshots.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, RwLock};

use serde_json::Value;

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

/// Reads a count where it is kept, at snapshot time.
type Read = Box<dyn Fn() -> u64 + Send + Sync>;

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    /// A counter kept by its component ([`MetricsRegistry::counter_fn`]).
    CounterFn(Read),
    /// A gauge kept by its component ([`MetricsRegistry::gauge_fn`]).
    GaugeFn(Read),
}

/// A view of one registered metric, as visited by
/// [`MetricsRegistry::for_each`]. Lets encoders (e.g. the OpenMetrics
/// exposition) reach the live histograms — including buckets and exemplars
/// a [`TelemetrySnapshot`] does not carry — without cloning the registry.
#[derive(Clone, Copy)]
pub enum MetricRef<'a> {
    /// A counter's total.
    Counter(u64),
    /// A gauge's value.
    Gauge(u64),
    /// A histogram.
    Histogram(&'a Histogram),
}

/// Registry of named metrics for one pipeline instance.
///
/// Registration (`counter`/`gauge`/`histogram`) takes a write lock once;
/// components hold the returned `Arc` and update it lock-free afterwards.
/// A component that already keeps a count where it is made — per CPU or per
/// task, on a hot path — registers a reader of it instead
/// ([`MetricsRegistry::counter_fn`] / [`MetricsRegistry::gauge_fn`]), so the
/// fact is counted once. Names are dotted paths, e.g. `ebpf.ring.dropped`.
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

    /// Registers counter `name` as `read`, called at every snapshot: the
    /// count stays in the component's own cells and is summed only when
    /// read. Registering the name again replaces the reader.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter_fn(&self, name: &str, read: impl Fn() -> u64 + Send + Sync + 'static) {
        self.register_fn(name, Metric::CounterFn(Box::new(read)));
    }

    /// Registers gauge `name` as `read`, called at every snapshot (a value
    /// scanned from the component's state rather than written per update).
    /// Registering the name again replaces the reader.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge_fn(&self, name: &str, read: impl Fn() -> u64 + Send + Sync + 'static) {
        self.register_fn(name, Metric::GaugeFn(Box::new(read)));
    }

    fn register_fn(&self, name: &str, metric: Metric) {
        let mut metrics = self.metrics.write().unwrap_or_else(|e| e.into_inner());
        let same_kind = metrics
            .get(name)
            .is_none_or(|old| std::mem::discriminant(old) == std::mem::discriminant(&metric));
        assert!(same_kind, "metric `{name}` already registered with a different kind");
        metrics.insert(name.to_string(), metric);
    }

    /// Visits every registered metric in name order, borrowing the live
    /// instrument. The registry's read lock is held for the duration of
    /// the walk, so keep `f` cheap (recording stays lock-free — only
    /// registration takes the write lock).
    pub fn for_each(&self, mut f: impl FnMut(&str, MetricRef<'_>)) {
        let metrics = self.metrics.read().unwrap_or_else(|e| e.into_inner());
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => f(name, MetricRef::Counter(c.get())),
                Metric::Gauge(g) => f(name, MetricRef::Gauge(g.get())),
                Metric::Histogram(h) => f(name, MetricRef::Histogram(h)),
                Metric::CounterFn(read) => f(name, MetricRef::Counter(read())),
                Metric::GaugeFn(read) => f(name, MetricRef::Gauge(read())),
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
                Metric::CounterFn(read) => {
                    snap.counters.insert(name.clone(), read());
                }
                Metric::GaugeFn(read) => {
                    snap.gauges.insert(name.clone(), read());
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

    /// Renders the health documents of the metrics whose values differ from
    /// `previous`'s — of every metric when there is none — as JSON text: one
    /// document per metric, all sharing `session`, export sequence number
    /// `seq`, and timestamp `time` (ns). A metric `previous` lacks has
    /// changed.
    ///
    /// Schema: `{session, seq, time, metric, kind, value}` for counters
    /// and gauges; histogram documents replace `value` with
    /// `{count, min, max, mean, p50, p90, p99, p999}`. The text is what
    /// `serde_json` writes for the document: keys in order, no whitespace.
    pub fn health_texts(
        &self,
        previous: Option<&TelemetrySnapshot>,
        session: &str,
        seq: u64,
        time_ns: u64,
    ) -> Vec<String> {
        fn changed<V: PartialEq>(
            previous: Option<&BTreeMap<String, V>>,
            name: &str,
            now: &V,
        ) -> bool {
            previous.and_then(|held| held.get(name)) != Some(now)
        }
        // The keys every document of the round ends with, in order.
        let mut round = String::new();
        let _ = write!(round, ",\"seq\":{seq},\"session\":");
        push_json_str(&mut round, session);
        let _ = write!(round, ",\"time\":{time_ns}");
        // Each document is written into `doc`, then copied out at its size.
        let (mut docs, mut doc) = (Vec::new(), String::with_capacity(256));
        let scalars = [
            ("counter", &self.counters, previous.map(|p| &p.counters)),
            ("gauge", &self.gauges, previous.map(|p| &p.gauges)),
        ];
        for (kind, values, previous) in scalars {
            for (name, value) in values.iter().filter(|(name, v)| changed(previous, name, *v)) {
                doc.clear();
                let _ = write!(doc, "{{\"kind\":\"{kind}\",\"metric\":");
                push_json_str(&mut doc, name);
                let _ = write!(doc, "{round},\"value\":{value}}}");
                docs.push(doc.as_str().to_owned());
            }
        }
        let previous = previous.map(|p| &p.histograms);
        for (name, h) in self.histograms.iter().filter(|(name, h)| changed(previous, name, *h)) {
            doc.clear();
            let mean = serde_json::Number::from(h.mean);
            let _ = write!(
                doc,
                "{{\"count\":{},\"kind\":\"histogram\",\"max\":{},\"mean\":{mean},\"metric\":",
                h.count, h.max
            );
            push_json_str(&mut doc, name);
            let _ = write!(
                doc,
                ",\"min\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}{round}}}",
                h.min, h.p50, h.p90, h.p99, h.p999
            );
            docs.push(doc.as_str().to_owned());
        }
        docs
    }

    /// Every metric's health document ([`TelemetrySnapshot::health_texts`]
    /// without a previous round), as the value its text parses into.
    pub fn health_documents(&self, session: &str, seq: u64, time_ns: u64) -> Vec<Value> {
        let texts = self.health_texts(None, session, seq, time_ns);
        texts
            .iter()
            .map(|text| serde_json::from_str(text).expect("a health document is JSON"))
            .collect()
    }
}

/// Appends `s` as a JSON string literal, escaped as `serde_json` escapes it.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One export round read back from health documents: every metric as of
/// `time_ns`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExportRound {
    /// Export sequence number.
    pub seq: u64,
    /// Export wall-clock time (ns since the Unix epoch).
    pub time_ns: u64,
    /// The metrics as of the round: those it exported, and every other as
    /// the last round before it exported it.
    pub metrics: TelemetrySnapshot,
}

impl ExportRound {
    /// Reads documents written by [`TelemetrySnapshot::health_texts`] back
    /// into export rounds, in `seq` order. A round holds the documents of
    /// the metrics that changed; every other metric is carried forward from
    /// the round before, so each round reads as the complete snapshot it
    /// was taken from. Documents without a `metric` or of another `kind`
    /// (alerts, storage reports) are skipped, and open no round.
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
        let mut carried = TelemetrySnapshot::default();
        let mut rounds: Vec<ExportRound> = rounds.into_values().collect();
        for round in &mut rounds {
            let changed = std::mem::take(&mut round.metrics);
            carried.counters.extend(changed.counters);
            carried.gauges.extend(changed.gauges);
            carried.histograms.extend(changed.histograms);
            round.metrics = carried.clone();
        }
        rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

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
    fn read_metrics_are_read_at_every_snapshot() {
        let registry = MetricsRegistry::new();
        let cells = Arc::new([std::sync::atomic::AtomicU64::new(0), Default::default()]);
        let read = Arc::clone(&cells);
        registry.counter_fn("x.count", move || {
            read.iter().map(|c| c.load(std::sync::atomic::Ordering::Relaxed)).sum()
        });
        registry.gauge_fn("x.level", || 7);
        cells[0].fetch_add(2, std::sync::atomic::Ordering::Relaxed);
        cells[1].fetch_add(3, std::sync::atomic::Ordering::Relaxed);
        let snap = registry.snapshot();
        assert_eq!((snap.counter("x.count"), snap.gauge("x.level")), (5, 7));
        registry.counter_fn("x.count", || 1);
        assert_eq!(registry.snapshot().counter("x.count"), 1, "a second reader replaces the first");
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn a_reader_cannot_replace_an_instrument() {
        let registry = MetricsRegistry::new();
        registry.counter("x");
        registry.counter_fn("x", || 0);
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

    /// A registry state changed as one step of a generated session says:
    /// `(op, which, v)` adds to counter `c{which}`, sets gauge `g{which}`,
    /// raises only the `max` of histogram `h{which}`, records into it (every
    /// field moves), or changes nothing. A metric is registered by the first
    /// step that names it.
    fn apply(state: &mut TelemetrySnapshot, (op, which, v): (u8, u8, u64)) {
        match op {
            0 => *state.counters.entry(format!("c{which}")).or_default() += v,
            1 => {
                state.gauges.insert(format!("g{which}"), v);
            }
            2 => state.histograms.entry(format!("h{which}.\"ns\"")).or_default().max += 1 + v,
            3 => {
                let h = state.histograms.entry(format!("h{which}.\"ns\"")).or_default();
                (h.count, h.min, h.mean) = (h.count + 1, v, (h.mean + v as f64) / 3.0);
                (h.p50, h.p90, h.p99, h.p999, h.max) = (v, v + 1, v + 2, v + 3, h.max.max(v + 3));
            }
            _ => {}
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Random sessions of registry states, exported as the exporter
        /// exports them — complete first and final rounds, the metrics that
        /// changed in between — read back as the complete round at every
        /// `seq` that shipped a document, and the last round as the end
        /// state. A round ships exactly when something changed, or when it
        /// is the first or the final one with any metric.
        #[test]
        fn delta_rounds_read_back_as_complete_rounds(
            steps in proptest::collection::vec(
                proptest::collection::vec((0u8..5, 0u8..3, 0u64..1_000), 0..4),
                1..10,
            ),
        ) {
            let (mut state, mut states) = (TelemetrySnapshot::default(), Vec::new());
            let (mut texts, mut shipped) = (Vec::new(), Vec::new());
            for (at, changes) in steps.iter().enumerate() {
                let was = state.clone();
                for &change in changes {
                    apply(&mut state, change);
                }
                let (seq, last) = (at as u64 + 1, at + 1 == steps.len());
                let since = Some(&was).filter(|_| at > 0 && !last);
                let docs = state.health_texts(since, "s \"1\"", seq, seq * 1_000);
                proptest::prop_assert_eq!(docs.is_empty(), since.map_or(state.is_empty(), |was| *was == state));
                if !docs.is_empty() {
                    shipped.push(seq);
                }
                texts.extend(docs);
                states.push(state.clone());
            }
            let docs: Vec<Value> = texts.iter().map(|text| serde_json::from_str(text).unwrap()).collect();
            let rounds = ExportRound::from_documents(&docs);
            proptest::prop_assert_eq!(rounds.iter().map(|r| r.seq).collect::<Vec<_>>(), shipped);
            for round in &rounds {
                proptest::prop_assert_eq!(&round.metrics, &states[round.seq as usize - 1]);
                proptest::prop_assert_eq!(round.time_ns, round.seq * 1_000);
            }
            match rounds.last() {
                Some(last) => {
                    proptest::prop_assert_eq!(last.seq, steps.len() as u64);
                    proptest::prop_assert_eq!(&last.metrics, &state);
                }
                None => proptest::prop_assert!(state.is_empty()),
            }
        }
    }
}
