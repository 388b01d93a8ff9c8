//! The pipeline-health dashboard, rendered from a session's
//! `dio-telemetry-<session>` index.
//!
//! Health documents are flat (`{session, seq, time, metric, kind, ...}`;
//! see the DESIGN.md "Self-telemetry" section), so this dashboard plots
//! metric *values* over export rounds rather than document counts — the
//! existing [`crate::PanelSpec`] shapes aggregate `doc_count` and cannot
//! express that.

use dio_backend::{Index, Query, SearchRequest, SortOrder};
use dio_telemetry::{ExportRound, TelemetrySnapshot};
use serde_json::{json, Value};

use crate::chart::{Chart, Series};

/// The parsed contents of a `dio-telemetry-<session>` index.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// The session the documents belong to.
    pub session: String,
    /// Export rounds in `seq` order.
    pub rounds: Vec<ExportRound>,
}

/// The value `metric` plots in one round: a counter's or gauge's value, a
/// histogram's p99.
fn plot_value(m: &TelemetrySnapshot, metric: &str) -> Option<f64> {
    let scalar = m.counters.get(metric).or_else(|| m.gauges.get(metric));
    scalar.map(|&v| v as f64).or_else(|| m.histogram(metric).map(|h| h.p99 as f64))
}

impl HealthReport {
    /// Loads every health document from `index` and groups it into
    /// export rounds.
    pub fn from_index(index: &Index) -> HealthReport {
        let response = index.search(
            &SearchRequest::new(Query::MatchAll).sort_by("seq", SortOrder::Asc).size(usize::MAX),
        );
        let docs = || response.hits.iter().map(|hit| &hit.source);
        let session = docs()
            .find(|d| d["metric"].as_str().is_some())
            .and_then(|d| d["session"].as_str())
            .unwrap_or("")
            .to_string();
        HealthReport { session, rounds: ExportRound::from_documents(docs()) }
    }

    /// The most recent round's metrics.
    pub fn latest(&self) -> Option<&TelemetrySnapshot> {
        self.rounds.last().map(|r| &r.metrics)
    }

    /// Ring drop rate (`dropped / (pushed + dropped)`) in the latest
    /// round.
    pub fn drop_rate(&self) -> f64 {
        self.latest().map_or(0.0, drop_rate)
    }

    /// Mean syscall dispatch rate (syscalls/s) between the first and last
    /// rounds; `None` without two rounds apart in time to divide by.
    pub fn syscall_rate(&self) -> Option<f64> {
        let (first, last) = (self.rounds.first()?, self.rounds.last()?);
        let elapsed_ns = last.time_ns.checked_sub(first.time_ns).filter(|&ns| ns > 0)?;
        Some(last.metrics.counter("kernel.syscalls.dispatched") as f64 * 1e9 / elapsed_ns as f64)
    }

    /// A per-round time series of `metric` (histograms plot their p99).
    pub fn series(&self, metric: &str) -> Vec<(f64, f64)> {
        self.rounds
            .iter()
            .filter_map(|r| plot_value(&r.metrics, metric).map(|v| (r.seq as f64, v)))
            .collect()
    }

    /// Serializes the report (session, per-round snapshots, derived
    /// indicators) for the `/api/health` endpoint.
    pub fn to_json(&self) -> Value {
        let snapshots: Vec<Value> = self
            .rounds
            .iter()
            .map(|r| {
                let m = &r.metrics;
                let mut metrics = serde_json::Map::new();
                for (name, v) in &m.counters {
                    metrics.insert(name.clone(), json!({"kind": "counter", "value": *v}));
                }
                for (name, v) in &m.gauges {
                    metrics.insert(name.clone(), json!({"kind": "gauge", "value": *v}));
                }
                for (name, h) in &m.histograms {
                    metrics.insert(
                        name.clone(),
                        json!({
                            "kind": "histogram",
                            "count": h.count, "min": h.min, "max": h.max, "mean": h.mean,
                            "p50": h.p50, "p90": h.p90, "p99": h.p99, "p999": h.p999,
                        }),
                    );
                }
                json!({"seq": r.seq, "time_ns": r.time_ns, "metrics": Value::Object(metrics)})
            })
            .collect();
        json!({
            "session": self.session,
            "rounds": self.rounds.len(),
            "drop_rate": self.drop_rate(),
            "syscall_rate": self.syscall_rate(),
            "snapshots": snapshots,
        })
    }
}

/// `dropped / (pushed + dropped)` of the ring, 0 before anything arrived.
fn drop_rate(m: &TelemetrySnapshot) -> f64 {
    let pushed = m.counter("ebpf.ring.pushed");
    let dropped = m.counter("ebpf.ring.dropped");
    if pushed + dropped == 0 {
        0.0
    } else {
        dropped as f64 / (pushed + dropped) as f64
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
        report.rounds.len()
    );
    let Some(round) = report.rounds.last() else {
        out.push_str("no health documents\n");
        return out;
    };
    let last = &round.metrics;

    // --- Summary: scalar metrics at the end of the trace.
    out.push_str(&format!("### Health summary (seq {})\n", round.seq));
    let mut scalars: Vec<(&String, &str, u64)> =
        last.counters.iter().map(|(n, &v)| (n, "counter", v)).collect();
    scalars.extend(last.gauges.iter().map(|(n, &v)| (n, "gauge", v)));
    scalars.sort_unstable();
    let name_width = scalars
        .iter()
        .map(|(n, ..)| n.len())
        .chain(last.histograms.keys().map(String::len))
        .max()
        .unwrap_or(6)
        .max("metric".len());
    out.push_str(&format!("{:<name_width$}  {:>9}  value\n", "metric", "kind"));
    for (name, kind, v) in scalars {
        out.push_str(&format!("{name:<name_width$}  {kind:>9}  {v}\n"));
    }
    out.push('\n');

    // --- Stage latencies: percentile table over every histogram.
    out.push_str("### Stage latencies and sizes (histograms)\n");
    out.push_str(&format!(
        "{:<name_width$}  {:>10} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
        "metric", "count", "p50", "p90", "p99", "p999", "max"
    ));
    for (name, h) in &last.histograms {
        out.push_str(&format!(
            "{name:<name_width$}  {:>10} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
            h.count, h.p50, h.p90, h.p99, h.p999, h.max
        ));
    }
    out.push('\n');

    // --- Derived indicators.
    out.push_str("### Derived indicators\n");
    // One round has no time base to divide the dispatch count by.
    let rate = report.syscall_rate().map_or("n/a".to_string(), |r| format!("{r:.0}"));
    out.push_str(&format!("syscall dispatch rate: {rate} syscalls/s\n"));
    out.push_str(&format!(
        "ring drop rate: {:.2}% ({} dropped / {} pushed, occupancy high-water mark {})\n",
        report.drop_rate() * 100.0,
        last.counter("ebpf.ring.dropped"),
        last.counter("ebpf.ring.pushed"),
        last.gauge("ebpf.ring.occupancy_hwm"),
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
        let fsync_ns = last.histogram("backend.storage.fsync_ns");
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
    if report.rounds.len() > 1 {
        let drop_series: Vec<(f64, f64)> =
            report.rounds.iter().map(|r| (r.seq as f64, drop_rate(&r.metrics) * 100.0)).collect();
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
        assert_eq!(report.rounds.len(), 3);
        assert_eq!(report.latest().unwrap().counter("ebpf.ring.pushed"), 270);
        assert!((report.drop_rate() - 0.1).abs() < 1e-9, "30 of 300 dropped");
        // 300 syscalls over 2 seconds of export span.
        assert!((report.syscall_rate().unwrap() - 150.0).abs() < 1e-6);
    }

    /// A session shorter than one telemetry interval exports one round:
    /// there is no time base, so no rate — not the raw count as a rate.
    #[test]
    fn one_round_has_no_syscall_rate() {
        let idx = Index::new("dio-telemetry-s");
        idx.bulk(vec![doc(1, 1_000_000_000, "kernel.syscalls.dispatched", "counter", 100)]);
        let out = render_health_dashboard(&idx);
        assert!(out.contains("syscall dispatch rate: n/a syscalls/s"), "{out}");
        let json = HealthReport::from_index(&idx).to_json();
        assert!(json["syscall_rate"].is_null(), "{json}");
        assert_eq!(json["snapshots"][0]["metrics"]["kernel.syscalls.dispatched"]["value"], 100);
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
        assert_eq!(report.rounds.len(), 3);
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
        assert_eq!(HealthReport::from_index(&idx).rounds.len(), 3);
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
        assert_eq!(HealthReport::from_index(&idx).rounds.len(), 3);
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
