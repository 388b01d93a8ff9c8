//! `dio top` — the live view of a running tracing session.
//!
//! Renders, from the session's event index plus the diagnosis engine's
//! alert feed, a `top(1)`-style screen: per-process syscall rates with
//! latency sparklines, the hottest files, and the currently active
//! alerts. The screen describes one *window* of trailing activity
//! ([`TopOptions::window_ns`]) ending at "now" (the newest event time
//! unless pinned via [`TopOptions::now_ns`], which the golden-snapshot
//! test uses for determinism).

use std::collections::BTreeMap;

use dio_backend::{Index, Query, SearchRequest, SortOrder};
use dio_diagnose::Alert;
use dio_telemetry::{format_ns, quantile_sorted};
use serde_json::{json, Value};

/// Tuning knobs for [`render_top`].
#[derive(Debug, Clone, PartialEq)]
pub struct TopOptions {
    /// Width of the trailing window the screen describes (default 1 s).
    pub window_ns: u64,
    /// Maximum rows per table (default 10).
    pub rows: usize,
    /// Buckets in each activity sparkline (default 16).
    pub spark_buckets: usize,
    /// Pins "now"; `None` uses the newest event time in the index.
    pub now_ns: Option<u64>,
}

impl Default for TopOptions {
    fn default() -> Self {
        TopOptions { window_ns: 1_000_000_000, rows: 10, spark_buckets: 16, now_ns: None }
    }
}

const SPARK_LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders a unicode block-character sparkline of `values`, scaled to the
/// maximum value (an all-zero series renders as a flat baseline).
///
/// # Examples
///
/// ```
/// assert_eq!(dio_viz::sparkline(&[0.0, 1.0, 2.0, 4.0]), "▁▃▅█");
/// ```
pub fn sparkline(values: &[f64]) -> String {
    let max = values.iter().copied().fold(0.0_f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 || v <= 0.0 {
                SPARK_LEVELS[0]
            } else {
                let idx = ((v / max) * 7.0).round() as usize;
                SPARK_LEVELS[idx.min(7)]
            }
        })
        .collect()
}

#[derive(Default)]
struct ProcRow {
    ops: u64,
    errors: u64,
    latencies: Vec<u64>,
    buckets: Vec<f64>,
}

#[derive(Default)]
struct FileRow {
    ops: u64,
    reads: u64,
    writes: u64,
    errors: u64,
}

/// One process row of a [`TopSnapshot`], busiest first.
#[derive(Debug, Clone, PartialEq)]
pub struct TopProcess {
    /// Process id.
    pub pid: u64,
    /// Process name (`?` when unknown).
    pub name: String,
    /// Syscalls in the window.
    pub ops: u64,
    /// Syscall rate over the window.
    pub ops_per_sec: f64,
    /// Failed syscalls (negative return) in the window.
    pub errors: u64,
    /// Median syscall latency (ns) in the window.
    pub p50_ns: u64,
    /// 95th-percentile syscall latency (ns).
    pub p95_ns: u64,
    /// 99th-percentile syscall latency (ns).
    pub p99_ns: u64,
    /// Ops per sparkline bucket across the window.
    pub activity: Vec<f64>,
}

/// One file row of a [`TopSnapshot`], busiest first.
#[derive(Debug, Clone, PartialEq)]
pub struct TopFile {
    /// File path (or tag) the syscalls targeted.
    pub path: String,
    /// Syscalls touching the file in the window.
    pub ops: u64,
    /// Read-class syscalls.
    pub reads: u64,
    /// Write-class syscalls.
    pub writes: u64,
    /// Failed syscalls.
    pub errors: u64,
}

/// The data behind one `dio top` screen: the trailing-window process and
/// file aggregates plus the alerts handed in. [`render_top`] draws it;
/// [`TopSnapshot::to_json`] serves it as `/api/top`.
#[derive(Debug, Clone, PartialEq)]
pub struct TopSnapshot {
    /// The event index the window was read from.
    pub index: String,
    /// End of the window (ns).
    pub now_ns: u64,
    /// Window width (ns).
    pub window_ns: u64,
    /// Total syscalls observed in the window.
    pub total_ops: u64,
    /// Busiest processes, at most `opts.rows`.
    pub processes: Vec<TopProcess>,
    /// Busiest files, at most `opts.rows`.
    pub files: Vec<TopFile>,
    /// The alerts supplied by the caller (active or historical).
    pub alerts: Vec<Alert>,
}

impl TopSnapshot {
    /// Serializes the snapshot for the `/api/top` endpoint.
    pub fn to_json(&self) -> Value {
        let processes: Vec<Value> = self
            .processes
            .iter()
            .map(|p| {
                json!({
                    "pid": p.pid, "name": p.name, "ops": p.ops,
                    "ops_per_sec": p.ops_per_sec, "errors": p.errors,
                    "p50_ns": p.p50_ns, "p95_ns": p.p95_ns, "p99_ns": p.p99_ns,
                    "activity": p.activity,
                })
            })
            .collect();
        let files: Vec<Value> = self
            .files
            .iter()
            .map(|f| {
                json!({
                    "path": f.path, "ops": f.ops, "reads": f.reads,
                    "writes": f.writes, "errors": f.errors,
                })
            })
            .collect();
        let alerts: Vec<Value> = self.alerts.iter().map(Alert::to_document).collect();
        json!({
            "index": self.index,
            "now_ns": self.now_ns,
            "window_ns": self.window_ns,
            "total_ops": self.total_ops,
            "processes": processes,
            "files": files,
            "alerts": alerts,
        })
    }
}

fn window_events(index: &Index, start_ns: u64, end_ns: u64) -> Vec<Value> {
    let query = Query::bool_query()
        .must(Query::range("time").gte(start_ns as f64).lte(end_ns as f64).build())
        .build();
    index
        .search(&SearchRequest::new(query).sort_by("time", SortOrder::Asc).size(usize::MAX))
        .hits
        .into_iter()
        .map(|h| h.source)
        .collect()
}

fn newest_event_time(index: &Index) -> u64 {
    index
        .search(&SearchRequest::new(Query::MatchAll).sort_by("time", SortOrder::Desc).size(1))
        .hits
        .first()
        .map(|h| h.source["time"].as_u64().unwrap_or(0))
        .unwrap_or(0)
}

/// Aggregates one trailing window of `index` into a [`TopSnapshot`] —
/// the shared substrate of [`render_top`] (ANSI) and `/api/top` (JSON).
///
/// The caller decides which alerts to include — pass
/// [`dio_diagnose::DiagnosisEngine::active_alerts`] for the live view, or
/// the full history for a post-mortem.
pub fn top_snapshot(index: &Index, alerts: &[Alert], opts: &TopOptions) -> TopSnapshot {
    let now_ns = opts.now_ns.unwrap_or_else(|| newest_event_time(index));
    let start_ns = now_ns.saturating_sub(opts.window_ns.max(1));
    let events = window_events(index, start_ns, now_ns);
    let window_s = opts.window_ns.max(1) as f64 / 1e9;
    let buckets = opts.spark_buckets.max(1);
    let bucket_ns = (opts.window_ns.max(1) / buckets as u64).max(1);

    let mut procs: BTreeMap<(u64, String), ProcRow> = BTreeMap::new();
    let mut files: BTreeMap<String, FileRow> = BTreeMap::new();
    for doc in &events {
        let pid = doc["pid"].as_u64().unwrap_or(0);
        let name = doc["proc_name"].as_str().unwrap_or("?").to_string();
        let row = procs.entry((pid, name)).or_default();
        row.ops += 1;
        if doc["ret_val"].as_i64().unwrap_or(0) < 0 {
            row.errors += 1;
        }
        if let Some(lat) = doc["latency_ns"].as_u64() {
            row.latencies.push(lat);
        }
        if row.buckets.is_empty() {
            row.buckets = vec![0.0; buckets];
        }
        let t = doc["time"].as_u64().unwrap_or(0).saturating_sub(start_ns);
        let slot = ((t / bucket_ns) as usize).min(buckets - 1);
        row.buckets[slot] += 1.0;

        let file = doc["file_path"]
            .as_str()
            .or_else(|| doc["file_tag"].as_str())
            .unwrap_or("")
            .to_string();
        if !file.is_empty() {
            let frow = files.entry(file).or_default();
            frow.ops += 1;
            match doc["syscall"].as_str() {
                Some("read" | "pread64" | "readv") => frow.reads += 1,
                Some("write" | "pwrite64" | "writev") => frow.writes += 1,
                _ => {}
            }
            if doc["ret_val"].as_i64().unwrap_or(0) < 0 {
                frow.errors += 1;
            }
        }
    }

    let mut proc_rows: Vec<_> = procs.into_iter().collect();
    proc_rows.sort_by(|a, b| b.1.ops.cmp(&a.1.ops).then_with(|| a.0.cmp(&b.0)));
    let processes = proc_rows
        .into_iter()
        .take(opts.rows)
        .map(|((pid, name), mut row)| {
            row.latencies.sort_unstable();
            TopProcess {
                pid,
                name,
                ops: row.ops,
                ops_per_sec: row.ops as f64 / window_s,
                errors: row.errors,
                p50_ns: quantile_sorted(&row.latencies, 0.50).unwrap_or(0),
                p95_ns: quantile_sorted(&row.latencies, 0.95).unwrap_or(0),
                p99_ns: quantile_sorted(&row.latencies, 0.99).unwrap_or(0),
                activity: row.buckets,
            }
        })
        .collect();

    let mut file_rows: Vec<_> = files.into_iter().collect();
    file_rows.sort_by(|a, b| b.1.ops.cmp(&a.1.ops).then_with(|| a.0.cmp(&b.0)));
    let files = file_rows
        .into_iter()
        .take(opts.rows)
        .map(|(path, row)| TopFile {
            path,
            ops: row.ops,
            reads: row.reads,
            writes: row.writes,
            errors: row.errors,
        })
        .collect();

    TopSnapshot {
        index: index.name().to_string(),
        now_ns,
        window_ns: opts.window_ns.max(1),
        total_ops: events.len() as u64,
        processes,
        files,
        alerts: alerts.to_vec(),
    }
}

/// Renders the `dio top` screen over `index` (a session's `dio-<session>`
/// event index) and the engine's current `alerts`.
///
/// The caller decides which alerts to show — pass
/// [`dio_diagnose::DiagnosisEngine::active_alerts`] for the live view, or
/// the full history for a post-mortem.
pub fn render_top(index: &Index, alerts: &[Alert], opts: &TopOptions) -> String {
    render_top_snapshot(&top_snapshot(index, alerts, opts))
}

/// Renders an already-built [`TopSnapshot`] as the `dio top` screen.
pub fn render_top_snapshot(snap: &TopSnapshot) -> String {
    let window_s = snap.window_ns.max(1) as f64 / 1e9;
    let mut out = format!(
        "== dio top — {} ({} syscalls in the last {:.1}s, t = {} ns) ==\n\n",
        snap.index, snap.total_ops, window_s, snap.now_ns,
    );

    // --- Per-process table, busiest first.
    out.push_str("### Processes\n");
    out.push_str(&format!(
        "{:>7}  {:<16} {:>7} {:>9} {:>5} {:>9} {:>9}  activity\n",
        "pid", "process", "ops", "ops/s", "err", "p50(µs)", "p99(µs)"
    ));
    for p in &snap.processes {
        out.push_str(&format!(
            "{:>7}  {:<16} {:>7} {:>9.0} {:>5} {:>9.1} {:>9.1}  {}\n",
            p.pid,
            p.name,
            p.ops,
            p.ops_per_sec,
            p.errors,
            p.p50_ns as f64 / 1e3,
            p.p99_ns as f64 / 1e3,
            sparkline(&p.activity),
        ));
    }
    out.push('\n');

    // --- Per-file table, busiest first.
    out.push_str("### Files\n");
    out.push_str(&format!(
        "{:<40} {:>7} {:>7} {:>7} {:>5}\n",
        "file", "ops", "reads", "writes", "err"
    ));
    for f in &snap.files {
        out.push_str(&format!(
            "{:<40} {:>7} {:>7} {:>7} {:>5}\n",
            f.path, f.ops, f.reads, f.writes, f.errors
        ));
    }
    out.push('\n');

    // --- Active alerts.
    if snap.alerts.is_empty() {
        out.push_str("### Alerts\nnone active\n");
    } else {
        out.push_str(&format!("### Alerts ({} active)\n", snap.alerts.len()));
        out.push_str(&render_alert_rows(&snap.alerts));
    }
    out
}

fn render_alert_rows(alerts: &[Alert]) -> String {
    let mut out = String::new();
    for a in alerts {
        out.push_str(&format!(
            "  [{:<8}] {:<20} t={} {} — {}\n",
            a.severity.as_str(),
            a.kind.as_str(),
            a.time_ns,
            a.subject,
            a.message
        ));
    }
    out
}

/// Renders the loaded diagnosis rules as a `dio top` panel: one row per
/// rule with its trigger and live fire/suppress counters.
///
/// `reports` is the engine's per-rule status
/// ([`dio_diagnose::DiagnosisEngine::dynamic_reports`], one JSON object
/// per rule); the same documents back `/api/rules` on the introspection
/// server.
pub fn render_rules_panel(reports: &[Value]) -> String {
    let mut out = format!("### Rules ({} loaded)\n", reports.len());
    if reports.is_empty() {
        out.push_str("no rule files loaded\n");
        return out;
    }
    out.push_str(&format!(
        "{:<24} {:<18} {:>9} {:>7} {:>7} {:>7}\n",
        "rule", "trigger", "evaluated", "fired", "supp", "rec"
    ));
    for r in reports {
        let mut trigger = r["trigger"].as_str().unwrap_or("?").to_string();
        if let Some(key) = r["key"].as_str() {
            trigger.push_str(&format!(" by {key}"));
        }
        out.push_str(&format!(
            "{:<24} {:<18} {:>9} {:>7} {:>7} {:>7}\n",
            r["rule"].as_str().unwrap_or("?"),
            trigger,
            r["evaluated"].as_u64().unwrap_or(0),
            r["fired"].as_u64().unwrap_or(0),
            r["suppressed"].as_u64().unwrap_or(0),
            r["records"].as_u64().unwrap_or(0),
        ));
    }
    out
}

/// Renders a streaming DFG snapshot as a `dio top` panel: the busiest
/// directly-follows edges of the global graph with their latency and
/// inter-arrival percentiles.
///
/// `snapshot` is the miner's serialized [`DfgSnapshot`] (the same JSON
/// `/api/dfg` serves), passed as a [`Value`] so the renderer needs no
/// `dio-profile` dependency.
///
/// [`DfgSnapshot`]: https://docs.rs/dio-profile
pub fn render_dfg_panel(snapshot: &Value) -> String {
    let transitions = snapshot["transitions"].as_u64().unwrap_or(0);
    let shifts = snapshot["phase_shifts"].as_u64().unwrap_or(0);
    let mut out = format!("### DFG ({transitions} transitions, {shifts} phase shifts)\n");
    let edges = snapshot["global"]["edges"].as_array().cloned().unwrap_or_default();
    if edges.is_empty() {
        out.push_str("no transitions mined\n");
        return out;
    }
    let mut rows: Vec<&Value> = edges.iter().collect();
    rows.sort_by_key(|e| std::cmp::Reverse(e["count"].as_u64().unwrap_or(0)));
    out.push_str(&format!(
        "{:<28} {:>8} {:>10} {:>10} {:>10}\n",
        "edge", "count", "lat p50", "lat p99", "gap p50"
    ));
    for edge in rows.iter().take(10) {
        out.push_str(&format!(
            "{:<28} {:>8} {:>10} {:>10} {:>10}\n",
            format!(
                "{}->{}",
                edge["from"].as_str().unwrap_or("?"),
                edge["to"].as_str().unwrap_or("?")
            ),
            edge["count"].as_u64().unwrap_or(0),
            format_ns(edge["latency"]["p50"].as_u64().unwrap_or(0)),
            format_ns(edge["latency"]["p99"].as_u64().unwrap_or(0)),
            format_ns(edge["gap"]["p50"].as_u64().unwrap_or(0)),
        ));
    }
    let procs = snapshot["processes"].as_object().map(|m| m.len()).unwrap_or(0);
    let tags = snapshot["tags"].as_object().map(|m| m.len()).unwrap_or(0);
    out.push_str(&format!(
        "{} edge(s) total, {} process graph(s), {} file-tag graph(s)\n",
        edges.len(),
        procs,
        tags
    ));
    out
}

/// Renders the full alert history as a panel (newest last) — the
/// companion to the active-alerts section of [`render_top`].
pub fn render_alert_history(alerts: &[Alert]) -> String {
    let mut out = format!("### Alert history ({} raised)\n", alerts.len());
    if alerts.is_empty() {
        out.push_str("no alerts raised\n");
    } else {
        out.push_str(&render_alert_rows(alerts));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dio_diagnose::{Alert, AlertKind, Severity};
    use serde_json::json;

    fn event(time: u64, pid: u64, name: &str, class: &str, lat: u64, ret: i64) -> Value {
        json!({
            "session": "s", "syscall": class, "class": class, "pid": pid,
            "tid": pid, "proc_name": name, "time": time,
            "latency_ns": lat, "ret_val": ret, "file_path": "/data.bin",
        })
    }

    fn sample_index() -> Index {
        let idx = Index::new("dio-s");
        let mut docs = Vec::new();
        for i in 0..40u64 {
            docs.push(event(1_000_000 * i, 7, "writer", "write", 5_000 + i, 8));
        }
        docs.push(event(45_000_000, 9, "reader", "read", 2_000, -5));
        idx.bulk(docs);
        idx
    }

    fn alert() -> Alert {
        Alert {
            seq: 0,
            detector: "data_loss",
            kind: AlertKind::DataLoss,
            severity: Severity::Critical,
            time_ns: 39_000_000,
            window_start_ns: None,
            window_end_ns: None,
            subject: "/data.bin".to_string(),
            message: "read resumed at stale offset".to_string(),
            fields: json!({}),
            evidence: vec![],
            attribution: None,
        }
    }

    #[test]
    fn top_renders_processes_files_and_alerts() {
        let idx = sample_index();
        let opts =
            TopOptions { window_ns: 50_000_000, now_ns: Some(50_000_000), ..Default::default() };
        let out = render_top(&idx, &[alert()], &opts);
        assert!(out.contains("dio top"));
        assert!(out.contains("writer"));
        assert!(out.contains("reader"));
        assert!(out.contains("/data.bin"));
        assert!(out.contains("[critical] data_loss"));
        // 40 writer ops over a 0.05 s window → 800 ops/s.
        assert!(out.contains("800"), "ops/s column present:\n{out}");
    }

    #[test]
    fn top_without_alerts_says_none() {
        let out = render_top(&sample_index(), &[], &TopOptions::default());
        assert!(out.contains("none active"));
    }

    #[test]
    fn window_excludes_older_events() {
        let idx = sample_index();
        // Window covering only the final read.
        let opts =
            TopOptions { window_ns: 500_000, now_ns: Some(45_200_000), ..Default::default() };
        let out = render_top(&idx, &[], &opts);
        assert!(out.contains("reader"));
        assert!(!out.contains("writer"));
    }

    #[test]
    fn sparkline_scales_to_max() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        let s = sparkline(&[1.0, 8.0]);
        assert_eq!(s.chars().last(), Some('█'));
    }

    #[test]
    fn rules_panel_lists_per_rule_counters() {
        let reports = vec![
            json!({
                "rule": "data_loss", "trigger": "stream", "key": null,
                "evaluated": 120, "fired": 2, "suppressed": 0, "records": 0,
            }),
            json!({
                "rule": "rate_spike", "trigger": "window", "key": "class",
                "evaluated": 9, "fired": 1, "suppressed": 3, "records": 0,
            }),
        ];
        let out = render_rules_panel(&reports);
        assert!(out.contains("Rules (2 loaded)"), "{out}");
        assert!(out.contains("data_loss"), "{out}");
        assert!(out.contains("window by class"), "{out}");
        let spike_row = out.lines().find(|l| l.starts_with("rate_spike")).unwrap();
        assert!(spike_row.contains('1') && spike_row.contains('3'), "{spike_row}");
        assert!(render_rules_panel(&[]).contains("no rule files loaded"));
    }

    #[test]
    fn dfg_panel_lists_busiest_edges_first() {
        let snapshot = json!({
            "events": 12, "transitions": 9, "phase_shifts": 1,
            "global": {
                "nodes": [],
                "edges": [
                    {"from": "write", "to": "fsync", "count": 3,
                     "latency": {"p50": 2_000_000u64, "p99": 9_000_000u64},
                     "gap": {"p50": 500u64}},
                    {"from": "open", "to": "write", "count": 6,
                     "latency": {"p50": 800u64, "p99": 1_200u64},
                     "gap": {"p50": 100u64}},
                ],
                "evicted_edges": 0,
            },
            "processes": {"writer": {"nodes": [], "edges": [], "evicted_edges": 0}},
            "tags": {},
        });
        let out = render_dfg_panel(&snapshot);
        assert!(out.contains("DFG (9 transitions, 1 phase shifts)"), "{out}");
        let open_line = out.lines().position(|l| l.starts_with("open->write")).unwrap();
        let fsync_line = out.lines().position(|l| l.starts_with("write->fsync")).unwrap();
        assert!(open_line < fsync_line, "edges sorted by count:\n{out}");
        assert!(out.contains("2.0ms"), "latency formatted:\n{out}");
        assert!(out.contains("1 process graph(s)"), "{out}");
        assert!(render_dfg_panel(&json!({})).contains("no transitions mined"));
    }

    #[test]
    fn alert_history_lists_every_alert() {
        let out = render_alert_history(&[alert(), alert()]);
        assert!(out.contains("2 raised"));
        assert_eq!(out.matches("data_loss").count(), 2);
        assert!(render_alert_history(&[]).contains("no alerts raised"));
    }
}
