//! The storage-engine observability panel.
//!
//! Persistent sessions ship `kind: "storage"` documents
//! ([`StorageReport::to_document`]) into the same telemetry index the
//! health dashboard reads. This module renders them: per-shard segment
//! and byte occupancy, compaction debt against the engine's dead-byte
//! ratio, fsync counts and latency, and — when a flight-recorder
//! snapshot is at hand — a timeline of compaction phases reconstructed
//! from `storage.compact` spans and their children.

use dio_backend::{Index, Query, SearchRequest, SortOrder, StorageReport};
use dio_telemetry::{format_ns, trace::TraceSpan, HistogramSnapshot};

/// The most recent `kind: "storage"` document in `index`, parsed back
/// into a [`StorageReport`] (`None` when the session was in-memory).
pub fn latest_storage_report(index: &Index) -> Option<StorageReport> {
    let response = index.search(
        &SearchRequest::new(Query::term("kind", "storage"))
            .sort_by("seq", SortOrder::Asc)
            .size(usize::MAX),
    );
    response.hits.last().and_then(|hit| StorageReport::from_document(&hit.source))
}

fn fmt_bytes(b: u64) -> String {
    if b >= 10 * 1024 * 1024 {
        format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0))
    } else if b >= 10 * 1024 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

/// Renders the storage panel: engine totals, compaction debt, per-shard
/// occupancy, and (when provided) the `backend.storage.fsync_ns`
/// histogram from the health snapshot.
pub fn render_storage_panel(
    report: &StorageReport,
    fsync_ns: Option<&HistogramSnapshot>,
) -> String {
    let mut out = String::from("### Storage engine\n");
    let t = &report.totals;
    out.push_str(&format!(
        "shards {}  segments {}  live keys {}  sealed {}  active {}  dead {} ({:.1}% debt)\n",
        report.shards,
        t.segments,
        t.live_keys,
        fmt_bytes(t.sealed_bytes),
        fmt_bytes(t.active_bytes),
        fmt_bytes(t.dead_bytes),
        report.dead_ratio() * 100.0,
    ));
    out.push_str(&format!(
        "lifetime: appended {}  fsyncs {}  seals {}  compactions {} ({} rewritten)\n",
        fmt_bytes(report.bytes_appended),
        report.fsyncs,
        report.segments_sealed,
        report.compactions,
        fmt_bytes(report.compacted_bytes),
    ));
    out.push_str(&format!("recovery: {} torn tails truncated\n", report.recovery_truncated));
    if let Some(h) = fsync_ns {
        out.push_str(&format!(
            "fsync latency: {} syncs, p50 {}, p99 {}, max {}\n",
            h.count,
            format_ns(h.p50),
            format_ns(h.p99),
            format_ns(h.max),
        ));
    }

    if !report.per_shard.is_empty() {
        out.push_str(&format!(
            "\n{:>5}  {:>8}  {:>9}  {:>10}  {:>10}  {:>10}  dead%\n",
            "shard", "segments", "live keys", "sealed", "active", "dead"
        ));
        for (k, s) in report.per_shard.iter().enumerate() {
            let stored = s.sealed_bytes + s.active_bytes;
            let debt = if stored == 0 { 0.0 } else { s.dead_bytes as f64 * 100.0 / stored as f64 };
            out.push_str(&format!(
                "{k:>5}  {:>8}  {:>9}  {:>10}  {:>10}  {:>10}  {debt:>4.1}\n",
                s.segments,
                s.live_keys,
                fmt_bytes(s.sealed_bytes),
                fmt_bytes(s.active_bytes),
                fmt_bytes(s.dead_bytes),
            ));
        }
    }
    out
}

/// Renders an ASCII timeline of compaction runs found in `spans`: one
/// row per `storage.compact` span, with its `compact.*` phase children
/// positioned proportionally inside the run. Returns an empty string
/// when no compaction spans are present.
pub fn render_compaction_timeline(spans: &[TraceSpan]) -> String {
    const WIDTH: usize = 40;
    let mut compacts: Vec<&TraceSpan> =
        spans.iter().filter(|s| s.name == "storage.compact").collect();
    if compacts.is_empty() {
        return String::new();
    }
    compacts.sort_by_key(|s| s.start_ns);
    let mut out = format!("### Compaction timeline ({} runs)\n", compacts.len());
    for (i, run) in compacts.iter().enumerate() {
        let shard = run.attrs.get("shard").map(|v| v.to_string()).unwrap_or_default();
        out.push_str(&format!(
            "run {:>2}  shard {:<3} total {:>9}\n",
            i + 1,
            shard,
            format_ns(run.duration_ns()),
        ));
        let total = run.duration_ns().max(1);
        let mut phases: Vec<&TraceSpan> = spans
            .iter()
            .filter(|s| s.parent_id == run.span_id && s.name.starts_with("compact."))
            .collect();
        phases.sort_by_key(|s| s.start_ns);
        for phase in phases {
            let begin = phase.start_ns.saturating_sub(run.start_ns).min(total);
            let len = phase.duration_ns().min(total - begin);
            let from = (begin as f64 / total as f64 * WIDTH as f64).floor() as usize;
            let cells = ((len as f64 / total as f64 * WIDTH as f64).ceil() as usize)
                .max(1)
                .min(WIDTH - from.min(WIDTH - 1));
            let mut bar = vec![' '; WIDTH];
            for cell in bar.iter_mut().skip(from).take(cells) {
                *cell = '#';
            }
            let label = phase.name.strip_prefix("compact.").unwrap_or(phase.name);
            out.push_str(&format!(
                "  {label:<8} [{}] {:>9}\n",
                bar.into_iter().collect::<String>(),
                format_ns(phase.duration_ns()),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dio_backend::ShardReport;
    use dio_telemetry::trace::Attrs;

    fn report() -> StorageReport {
        let shard0 = ShardReport {
            segments: 3,
            live_keys: 100,
            sealed_bytes: 4096,
            dead_bytes: 1024,
            active_bytes: 512,
        };
        let shard1 = ShardReport { segments: 1, live_keys: 7, ..Default::default() };
        let mut totals = shard0;
        totals.merge(&shard1);
        StorageReport {
            shards: 2,
            totals,
            per_shard: vec![shard0, shard1],
            recovery_truncated: 1,
            segments_sealed: 5,
            compactions: 3,
            compacted_bytes: 2048,
            bytes_appended: 9000,
            fsyncs: 42,
        }
    }

    #[test]
    fn panel_shows_totals_and_per_shard_rows() {
        let out = render_storage_panel(&report(), None);
        assert!(out.contains("### Storage engine"), "{out}");
        assert!(out.contains("shards 2"), "{out}");
        assert!(out.contains("fsyncs 42"), "{out}");
        assert!(out.contains("recovery: 1 torn tails truncated\n"), "{out}");
        // Two per-shard rows, indexed 0 and 1.
        assert!(out.lines().any(|l| l.trim_start().starts_with("0 ")), "{out}");
        assert!(out.lines().any(|l| l.trim_start().starts_with("1 ")), "{out}");
    }

    #[test]
    fn panel_renders_fsync_histogram_line() {
        let fsync = HistogramSnapshot {
            count: 42,
            min: 1_000,
            max: 9_000_000,
            mean: 2e5,
            p50: 150_000,
            p90: 400_000,
            p99: 1_500_000,
            p999: 8_000_000,
        };
        let out = render_storage_panel(&report(), Some(&fsync));
        assert!(
            out.contains("fsync latency: 42 syncs, p50 150.0us, p99 1.5ms, max 9.0ms"),
            "{out}"
        );
    }

    #[test]
    fn storage_report_round_trips_through_documents() {
        let report = report();
        let idx = Index::new("dio-telemetry-s");
        idx.bulk(vec![report.to_document()]);
        let back = latest_storage_report(&idx).expect("storage doc parses");
        assert_eq!(back.fsyncs, 42);
        assert_eq!(back.per_shard.len(), 2);
        assert_eq!(back.totals.live_keys, 107);
        // Health-metric readers must skip the storage doc (no `metric`).
        assert!(latest_storage_report(&Index::new("empty")).is_none());
    }

    fn span(name: &'static str, span_id: u64, parent_id: u64, start: u64, end: u64) -> TraceSpan {
        TraceSpan {
            trace_id: 1,
            span_id,
            parent_id,
            category: "storage",
            name,
            start_ns: start,
            end_ns: end,
            thread: 0,
            emit_seq: span_id as u32,
            attrs: Attrs::default(),
        }
    }

    #[test]
    fn compaction_timeline_orders_phases() {
        let spans = vec![
            span("storage.compact", 10, 0, 1_000, 101_000),
            span("compact.rotate", 11, 10, 1_000, 11_000),
            span("compact.merge", 12, 10, 11_000, 81_000),
            span("compact.delete", 13, 10, 95_000, 101_000),
            span("storage.append", 99, 0, 0, 50),
        ];
        let out = render_compaction_timeline(&spans);
        assert!(out.contains("Compaction timeline (1 runs)"), "{out}");
        let rotate = out.find("rotate").unwrap();
        let merge = out.find("merge").unwrap();
        let delete = out.find("delete").unwrap();
        assert!(rotate < merge && merge < delete, "{out}");
        assert!(!out.contains("append"), "unrelated spans excluded: {out}");
    }

    #[test]
    fn compaction_timeline_empty_without_compactions() {
        assert_eq!(render_compaction_timeline(&[]), "");
        let spans = vec![span("storage.append", 1, 0, 0, 10)];
        assert_eq!(render_compaction_timeline(&spans), "");
    }
}
