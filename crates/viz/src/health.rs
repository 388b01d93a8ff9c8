//! The pipeline-health dashboard, rendered from a session's
//! `dio-telemetry-<session>` index.
//!
//! Health documents are flat (`{session, seq, time, metric, kind, ...}`;
//! see the DESIGN.md "Self-telemetry" section), so this dashboard plots
//! metric *values* over export rounds rather than document counts — the
//! existing [`crate::PanelSpec`] shapes aggregate `doc_count` and cannot
//! express that.

use std::collections::BTreeMap;

use dio_backend::{Index, Query, SearchRequest, SortOrder};
use dio_telemetry::HistogramSnapshot;
use serde_json::{json, Value};

use crate::chart::{Chart, Series};

/// One metric observation inside a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricPoint {
    /// A monotonically increasing counter.
    Counter(u64),
    /// A last-value gauge.
    Gauge(u64),
    /// A latency/size distribution summary.
    Histogram(HistogramSnapshot),
}

impl MetricPoint {
    /// The scalar value used when plotting this metric over time
    /// (histograms plot their p99).
    pub fn plot_value(&self) -> f64 {
        match self {
            MetricPoint::Counter(v) | MetricPoint::Gauge(v) => *v as f64,
            MetricPoint::Histogram(h) => h.p99 as f64,
        }
    }

    /// Serializes the observation with its kind tag, mirroring the
    /// health-document schema.
    pub fn to_json(&self) -> Value {
        match self {
            MetricPoint::Counter(v) => json!({"kind": "counter", "value": *v}),
            MetricPoint::Gauge(v) => json!({"kind": "gauge", "value": *v}),
            MetricPoint::Histogram(h) => json!({
                "kind": "histogram",
                "count": h.count, "min": h.min, "max": h.max, "mean": h.mean,
                "p50": h.p50, "p90": h.p90, "p99": h.p99, "p999": h.p999,
            }),
        }
    }
}

/// One export round: every metric as of `time`.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSnapshot {
    /// Export round number (1-based).
    pub seq: u64,
    /// Export wall-clock time (ns since the Unix epoch).
    pub time_ns: u64,
    /// Metric name → observation.
    pub metrics: BTreeMap<String, MetricPoint>,
}

impl HealthSnapshot {
    /// The observation for `metric` in this round, if present.
    pub fn get(&self, metric: &str) -> Option<&MetricPoint> {
        self.metrics.get(metric)
    }

    /// The scalar value of a counter or gauge metric (0 when absent).
    pub fn counter(&self, metric: &str) -> u64 {
        match self.get(metric) {
            Some(MetricPoint::Counter(v)) | Some(MetricPoint::Gauge(v)) => *v,
            _ => 0,
        }
    }
}

/// The parsed contents of a `dio-telemetry-<session>` index.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// The session the documents belong to.
    pub session: String,
    /// Export rounds in `seq` order.
    pub snapshots: Vec<HealthSnapshot>,
}

fn u64_field(doc: &Value, key: &str) -> u64 {
    doc[key].as_u64().unwrap_or(0)
}

impl HealthReport {
    /// Loads every health document from `index` and groups it into
    /// per-round snapshots.
    pub fn from_index(index: &Index) -> HealthReport {
        let response = index.search(
            &SearchRequest::new(Query::MatchAll).sort_by("seq", SortOrder::Asc).size(usize::MAX),
        );
        let mut session = String::new();
        let mut rounds: BTreeMap<u64, HealthSnapshot> = BTreeMap::new();
        for hit in &response.hits {
            let doc = &hit.source;
            let Some(metric) = doc["metric"].as_str() else { continue };
            if session.is_empty() {
                session = doc["session"].as_str().unwrap_or("").to_string();
            }
            let seq = u64_field(doc, "seq");
            let point = match doc["kind"].as_str() {
                Some("counter") => MetricPoint::Counter(u64_field(doc, "value")),
                Some("gauge") => MetricPoint::Gauge(u64_field(doc, "value")),
                Some("histogram") => MetricPoint::Histogram(HistogramSnapshot {
                    count: u64_field(doc, "count"),
                    min: u64_field(doc, "min"),
                    max: u64_field(doc, "max"),
                    mean: doc["mean"].as_f64().unwrap_or(0.0),
                    p50: u64_field(doc, "p50"),
                    p90: u64_field(doc, "p90"),
                    p99: u64_field(doc, "p99"),
                    p999: u64_field(doc, "p999"),
                }),
                _ => continue,
            };
            let snap = rounds.entry(seq).or_insert_with(|| HealthSnapshot {
                seq,
                time_ns: u64_field(doc, "time"),
                metrics: BTreeMap::new(),
            });
            snap.metrics.insert(metric.to_string(), point);
        }
        HealthReport { session, snapshots: rounds.into_values().collect() }
    }

    /// The most recent snapshot.
    pub fn latest(&self) -> Option<&HealthSnapshot> {
        self.snapshots.last()
    }

    /// Ring drop rate (`dropped / (pushed + dropped)`) in the latest
    /// snapshot.
    pub fn drop_rate(&self) -> f64 {
        let Some(last) = self.latest() else { return 0.0 };
        let pushed = last.counter("ebpf.ring.pushed");
        let dropped = last.counter("ebpf.ring.dropped");
        if pushed + dropped == 0 {
            0.0
        } else {
            dropped as f64 / (pushed + dropped) as f64
        }
    }

    /// Mean syscall dispatch rate (syscalls/s) across the trace, from the
    /// first and last snapshots.
    pub fn syscall_rate(&self) -> f64 {
        let (Some(first), Some(last)) = (self.snapshots.first(), self.latest()) else {
            return 0.0;
        };
        let dispatched = last.counter("kernel.syscalls.dispatched");
        let elapsed_ns = last.time_ns.saturating_sub(first.time_ns);
        if elapsed_ns == 0 {
            // Single snapshot: no time base, report the raw count.
            dispatched as f64
        } else {
            dispatched as f64 * 1e9 / elapsed_ns as f64
        }
    }

    /// A per-round time series of `metric` (histograms plot their p99).
    pub fn series(&self, metric: &str) -> Vec<(f64, f64)> {
        self.snapshots
            .iter()
            .filter_map(|s| s.get(metric).map(|p| (s.seq as f64, p.plot_value())))
            .collect()
    }

    /// Serializes the report (session, per-round snapshots, derived
    /// indicators) for the `/api/health` endpoint.
    pub fn to_json(&self) -> Value {
        let snapshots: Vec<Value> = self
            .snapshots
            .iter()
            .map(|s| {
                let metrics: serde_json::Map =
                    s.metrics.iter().map(|(name, p)| (name.clone(), p.to_json())).collect();
                json!({"seq": s.seq, "time_ns": s.time_ns, "metrics": Value::Object(metrics)})
            })
            .collect();
        json!({
            "session": self.session,
            "rounds": self.snapshots.len(),
            "drop_rate": self.drop_rate(),
            "syscall_rate": self.syscall_rate(),
            "snapshots": snapshots,
        })
    }
}

/// Renders the pipeline-health dashboard for a `dio-telemetry-<session>`
/// index: a summary table of the latest snapshot, derived indicators
/// (syscall rate, drop rate), stage-latency percentiles, and time series
/// of drop rate and queue depths across export rounds.
pub fn render_health_dashboard(index: &Index) -> String {
    let report = HealthReport::from_index(index);
    let mut out = format!(
        "== Dashboard: pipeline-health (session {}, {} export rounds) ==\n\n",
        report.session,
        report.snapshots.len()
    );
    let Some(last) = report.latest() else {
        out.push_str("no health documents\n");
        return out;
    };

    // --- Summary: scalar metrics at the end of the trace.
    out.push_str(&format!("### Health summary (seq {})\n", last.seq));
    let name_width = last.metrics.keys().map(String::len).max().unwrap_or(6).max("metric".len());
    out.push_str(&format!("{:<name_width$}  {:>9}  value\n", "metric", "kind"));
    for (name, point) in &last.metrics {
        match point {
            MetricPoint::Counter(v) => {
                out.push_str(&format!("{name:<name_width$}  {:>9}  {v}\n", "counter"));
            }
            MetricPoint::Gauge(v) => {
                out.push_str(&format!("{name:<name_width$}  {:>9}  {v}\n", "gauge"));
            }
            MetricPoint::Histogram(_) => {} // rendered below
        }
    }
    out.push('\n');

    // --- Stage latencies: percentile table over every histogram.
    out.push_str("### Stage latencies and sizes (histograms)\n");
    out.push_str(&format!(
        "{:<name_width$}  {:>10} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
        "metric", "count", "p50", "p90", "p99", "p999", "max"
    ));
    for (name, point) in &last.metrics {
        if let MetricPoint::Histogram(h) = point {
            out.push_str(&format!(
                "{name:<name_width$}  {:>10} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
                h.count, h.p50, h.p90, h.p99, h.p999, h.max
            ));
        }
    }
    out.push('\n');

    // --- Derived indicators.
    out.push_str("### Derived indicators\n");
    out.push_str(&format!("syscall dispatch rate: {:.0} syscalls/s\n", report.syscall_rate()));
    out.push_str(&format!(
        "ring drop rate: {:.2}% ({} dropped / {} pushed, occupancy high-water mark {})\n",
        report.drop_rate() * 100.0,
        last.counter("ebpf.ring.dropped"),
        last.counter("ebpf.ring.pushed"),
        last.counter("ebpf.ring.occupancy_hwm"),
    ));
    // Entries the join map admitted and did not turn into events.
    out.push_str(&format!(
        "join: {} entries inserted, {} overflowed, {} orphaned (never met their exit)\n",
        last.counter("ebpf.join.inserted"),
        last.counter("ebpf.join.overflow"),
        last.counter("ebpf.join.orphaned"),
    ));
    // How often the consumer woke for what it drained: thousands of polls
    // per event mean it is burning CPU on an empty ring.
    let polls = last.counter("tracer.consumer.polls");
    let consumed = last.counter("ebpf.ring.consumed");
    let per_event = match consumed {
        0 => "n/a".to_string(),
        n => format!("{:.3}", polls as f64 / n as f64),
    };
    out.push_str(&format!(
        "consumer: {polls} polls for {consumed} events drained ({per_event} polls per event)\n"
    ));
    out.push('\n');

    // --- Storage engine: `kind: "storage"` reports shipped by
    // persistent sessions into the same telemetry index.
    if let Some(storage) = crate::storage::latest_storage_report(index) {
        let fsync_ns = last.get("backend.storage.fsync_ns");
        out.push_str(&crate::storage::render_storage_panel(&storage, fsync_ns));
        out.push('\n');
    }

    // --- Alert history: `kind: "alert"` documents shipped live by the
    // diagnosis engine into the same telemetry index.
    let alerts = index
        .search(
            &SearchRequest::new(Query::term("kind", "alert"))
                .sort_by("seq", SortOrder::Asc)
                .size(usize::MAX),
        )
        .hits;
    if !alerts.is_empty() {
        out.push_str(&format!("### Alert history ({} raised)\n", alerts.len()));
        for hit in &alerts {
            let d = &hit.source;
            out.push_str(&format!(
                "  [{:<8}] {:<20} t={} {} — {}\n",
                d["severity"].as_str().unwrap_or("?"),
                d["alert_kind"].as_str().unwrap_or("?"),
                d["time"].as_u64().unwrap_or(0),
                d["subject"].as_str().unwrap_or(""),
                d["message"].as_str().unwrap_or(""),
            ));
        }
        out.push('\n');
    }

    // --- Time series across export rounds.
    if report.snapshots.len() > 1 {
        let drop_series: Vec<(f64, f64)> = report
            .snapshots
            .iter()
            .map(|s| {
                let pushed = s.counter("ebpf.ring.pushed");
                let dropped = s.counter("ebpf.ring.dropped");
                let total = pushed + dropped;
                let rate = if total == 0 { 0.0 } else { dropped as f64 * 100.0 / total as f64 };
                (s.seq as f64, rate)
            })
            .collect();
        out.push_str(
            &Chart::new("### Ring drop rate over export rounds")
                .y_label("% dropped (cumulative)")
                .x_label("export round")
                .series(Series::new("drop %", drop_series))
                .to_ascii(96, 12),
        );
        out.push('\n');
        out.push_str(
            &Chart::new("### Queue depths over export rounds")
                .y_label("events queued")
                .x_label("export round")
                .series(Series::new("channel depth", report.series("tracer.channel.depth")))
                .series(Series::new("join map", report.series("ebpf.join.occupancy")))
                .to_ascii(96, 12),
        );
        out.push('\n');
        // Pipeline lag: how stale the backend view is at each export
        // round (upper bound on the oldest unshipped event's age).
        let lag = report.series("span.lag.watermark_ns");
        if !lag.is_empty() {
            let lag_us: Vec<(f64, f64)> = lag.into_iter().map(|(x, y)| (x, y / 1e3)).collect();
            out.push_str(
                &Chart::new("### Pipeline lag watermark over export rounds")
                    .y_label("lag (µs, oldest unshipped event age)")
                    .x_label("export round")
                    .series(Series::new("lag µs", lag_us))
                    .to_ascii(96, 12),
            );
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn doc(seq: u64, time: u64, metric: &str, kind: &str, value: u64) -> Value {
        json!({
            "session": "s", "seq": seq, "time": time,
            "metric": metric, "kind": kind, "value": value,
        })
    }

    fn hist_doc(seq: u64, time: u64, metric: &str, p99: u64) -> Value {
        json!({
            "session": "s", "seq": seq, "time": time,
            "metric": metric, "kind": "histogram",
            "count": 10u64, "min": 1u64, "max": p99 * 2, "mean": 3.5,
            "p50": p99 / 2, "p90": p99, "p99": p99, "p999": p99,
        })
    }

    fn sample_index() -> Index {
        let idx = Index::new("dio-telemetry-s");
        let mut docs = Vec::new();
        for seq in 1..=3u64 {
            let t = 1_000_000_000 * seq;
            docs.push(doc(seq, t, "kernel.syscalls.dispatched", "counter", 100 * seq));
            docs.push(doc(seq, t, "ebpf.ring.pushed", "counter", 90 * seq));
            docs.push(doc(seq, t, "ebpf.ring.dropped", "counter", 10 * seq));
            docs.push(doc(seq, t, "ebpf.ring.consumed", "counter", 90 * seq));
            docs.push(doc(seq, t, "ebpf.join.inserted", "counter", 100 * seq));
            docs.push(doc(seq, t, "ebpf.join.orphaned", "counter", seq));
            docs.push(doc(seq, t, "tracer.consumer.polls", "counter", 30 * seq));
            docs.push(doc(seq, t, "ebpf.ring.occupancy_hwm", "gauge", 7));
            docs.push(doc(seq, t, "tracer.channel.depth", "gauge", 5 * seq));
            docs.push(doc(seq, t, "span.lag.watermark_ns", "gauge", 20_000 * seq));
            docs.push(hist_doc(seq, t, "tracer.shipper.batch_ns", 4_000));
        }
        idx.bulk(docs);
        idx
    }

    #[test]
    fn report_groups_rounds_and_derives_rates() {
        let report = HealthReport::from_index(&sample_index());
        assert_eq!(report.session, "s");
        assert_eq!(report.snapshots.len(), 3);
        assert_eq!(report.latest().unwrap().counter("ebpf.ring.pushed"), 270);
        assert!((report.drop_rate() - 0.1).abs() < 1e-9, "30 of 300 dropped");
        // 300 syscalls over 2 seconds of export span.
        assert!((report.syscall_rate() - 150.0).abs() < 1e-6);
    }

    #[test]
    fn dashboard_renders_summary_latencies_and_series() {
        let out = render_health_dashboard(&sample_index());
        assert!(out.contains("pipeline-health"));
        assert!(out.contains("kernel.syscalls.dispatched"));
        assert!(out.contains("tracer.shipper.batch_ns"));
        assert!(out.contains("ring drop rate: 10.00%"));
        assert!(out.contains("occupancy high-water mark 7"));
        assert!(out.contains("join: 300 entries inserted, 0 overflowed, 3 orphaned"));
        assert!(out.contains("consumer: 90 polls for 270 events drained (0.333 polls per event)"));
        assert!(out.contains("drop rate over export rounds"));
        assert!(out.contains("Queue depths over export rounds"));
        assert!(out.contains("Pipeline lag watermark over export rounds"));
    }

    #[test]
    fn lag_watermark_series_plots_one_point_per_round() {
        let report = HealthReport::from_index(&sample_index());
        assert_eq!(report.snapshots.len(), 3);
        let lag = report.series("span.lag.watermark_ns");
        assert_eq!(lag.len(), 3);
        assert_eq!(lag[2].1, 60_000.0);
    }

    #[test]
    fn alert_documents_render_as_history_panel() {
        let idx = sample_index();
        idx.bulk(vec![json!({
            "session": "s", "kind": "alert", "seq": 0u64,
            "detector": "data_loss", "alert_kind": "data_loss",
            "severity": "critical", "time": 42u64,
            "subject": "/var/log/app.log",
            "message": "read resumed at stale offset 26",
        })]);
        let out = render_health_dashboard(&idx);
        assert!(out.contains("Alert history (1 raised)"));
        assert!(out.contains("[critical] data_loss"));
        assert!(out.contains("/var/log/app.log"));
        // The alert doc must not pollute the metric snapshots.
        assert_eq!(HealthReport::from_index(&idx).snapshots.len(), 3);
    }

    #[test]
    fn storage_document_renders_storage_panel() {
        let idx = sample_index();
        let report = dio_backend::StorageReport { shards: 2, fsyncs: 9, ..Default::default() };
        idx.bulk(vec![report.to_document()]);
        let out = render_health_dashboard(&idx);
        assert!(out.contains("### Storage engine"), "{out}");
        assert!(out.contains("fsyncs 9"), "{out}");
        // The storage doc must not pollute the metric snapshots.
        assert_eq!(HealthReport::from_index(&idx).snapshots.len(), 3);
    }

    #[test]
    fn empty_index_renders_placeholder() {
        let out = render_health_dashboard(&Index::new("dio-telemetry-x"));
        assert!(out.contains("no health documents"));
    }

    #[test]
    fn histogram_series_plot_p99() {
        let report = HealthReport::from_index(&sample_index());
        let series = report.series("tracer.shipper.batch_ns");
        assert_eq!(series.len(), 3);
        assert!(series.iter().all(|&(_, v)| v == 4_000.0));
    }
}
