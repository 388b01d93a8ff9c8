//! The offline oracle the shipped rules are held to (`tests/diagnose_parity.rs`
//! declares this module, nothing else does): the Fig. 2 and Fig. 4 analyses
//! written as queries over a stored session, independently of the rule
//! evaluator.
//!
//! * [`detect_data_loss`] — the Fluent Bit bug (issue #1875) in a trace: a
//!   file is removed and re-created, the new *generation* receives the same
//!   `dev|ino` (inode reuse), and the reader's **first read of the new
//!   generation starts at a non-zero offset and returns 0 bytes** — the bytes
//!   before that offset are silently lost.
//! * [`detect_contention`] — "when multiple compaction threads submit I/O
//!   requests, the number of syscalls of db_bench threads decreases": the
//!   trace windowed, per-window activity of client vs background threads
//!   counted, and windows flagged where many background threads are active.

use std::collections::{BTreeMap, HashMap};

use dio_backend::{Aggregation, Index, Query, SearchRequest, SortOrder};
use dio_syscall::FileTag;

/// One detected data-loss incident.
#[derive(Debug, Clone, PartialEq)]
pub struct DataLossIncident {
    /// The tag of the file generation whose content was skipped.
    pub tag: FileTag,
    /// Resolved path, when correlation ran.
    pub path: Option<String>,
    /// The stale offset the reader started from.
    pub stale_offset: u64,
    /// Bytes written to the generation before that offset — an upper bound
    /// on the data lost.
    pub bytes_at_risk: u64,
    /// The tag of the earlier generation whose state leaked into this one.
    pub previous_generation: FileTag,
    /// Name of the process that performed the misread.
    pub reader: String,
}

/// Scans a session index for stale-offset reads across inode-reuse
/// generations. Needs events with `file_tag`, `offset` and `ret_val`, i.e. a
/// trace with enrichment on.
pub fn detect_data_loss(index: &Index) -> Vec<DataLossIncident> {
    // Pull all tag-bearing data events, time-ordered.
    let response = index.search(
        &SearchRequest::new(
            Query::bool_query()
                .must(Query::exists("file_tag"))
                .must(Query::terms("syscall", ["read", "write", "pread64", "pwrite64"]))
                .build(),
        )
        .sort_by("time", SortOrder::Asc)
        .size(usize::MAX),
    );

    // Group per generation; remember generation order per (dev, ino).
    let mut generations: BTreeMap<(u64, u64), Vec<FileTag>> = BTreeMap::new();
    let mut writes_per_tag: HashMap<FileTag, u64> = HashMap::new();
    let mut first_read: HashMap<FileTag, (u64, i64, String)> = HashMap::new(); // offset, ret, reader
    let mut path_per_tag: HashMap<FileTag, String> = HashMap::new();

    for hit in &response.hits {
        let Some(tag) = hit.source["file_tag"].as_str().and_then(|s| s.parse::<FileTag>().ok())
        else {
            continue;
        };
        let gens = generations.entry((tag.dev, tag.ino)).or_default();
        if !gens.contains(&tag) {
            gens.push(tag);
        }
        if let Some(p) = hit.source["file_path"].as_str() {
            path_per_tag.entry(tag).or_insert_with(|| p.to_string());
        }
        let syscall = hit.source["syscall"].as_str().unwrap_or("");
        let ret = hit.source["ret_val"].as_i64().unwrap_or(0);
        match syscall {
            "write" | "pwrite64" if ret > 0 => {
                *writes_per_tag.entry(tag).or_insert(0) += ret as u64;
            }
            "read" | "pread64" => {
                first_read.entry(tag).or_insert_with(|| {
                    let offset = hit.source["offset"].as_u64().unwrap_or(0);
                    let reader = hit.source["proc_name"].as_str().unwrap_or("").to_string();
                    (offset, ret, reader)
                });
            }
            _ => {}
        }
    }

    let mut incidents = Vec::new();
    for gens in generations.values() {
        // Only later generations can inherit stale state from a predecessor.
        for (i, tag) in gens.iter().enumerate().skip(1) {
            let Some(&(offset, ret, ref reader)) = first_read.get(tag) else {
                continue;
            };
            if offset > 0 && ret == 0 {
                let written = writes_per_tag.get(tag).copied().unwrap_or(0);
                incidents.push(DataLossIncident {
                    tag: *tag,
                    path: path_per_tag.get(tag).cloned(),
                    stale_offset: offset,
                    bytes_at_risk: written.min(offset),
                    previous_generation: gens[i - 1],
                    reader: reader.clone(),
                });
            }
        }
    }
    incidents
}

/// Configuration of the contention analysis.
#[derive(Debug, Clone)]
pub struct ContentionConfig {
    /// Window width in nanoseconds (Fig. 4 uses per-second buckets).
    pub window_ns: u64,
    /// Thread-name prefix of foreground/client threads (`db_bench`).
    pub client_prefix: String,
    /// Thread-name prefix of background threads (`rocksdb:low`).
    pub background_prefix: String,
    /// Minimum simultaneously-active background threads to flag a window
    /// (the paper observes spikes when ≥5 compaction threads do I/O).
    pub background_threshold: usize,
}

impl Default for ContentionConfig {
    fn default() -> Self {
        ContentionConfig {
            window_ns: 1_000_000_000,
            client_prefix: "db_bench".to_string(),
            background_prefix: "rocksdb:low".to_string(),
            background_threshold: 5,
        }
    }
}

/// Activity inside one time window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowActivity {
    /// Window start (ns).
    pub start_ns: u64,
    /// Syscalls issued by client threads.
    pub client_ops: u64,
    /// Syscalls issued by background threads.
    pub background_ops: u64,
    /// Distinct background threads active in the window.
    pub active_background_threads: usize,
    /// Whether the window exceeds the background-thread threshold.
    pub contended: bool,
}

/// Result of the contention analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionReport {
    /// Per-window activity, time-ordered.
    pub windows: Vec<WindowActivity>,
    /// Mean client ops/window during contended windows.
    pub client_ops_contended: f64,
    /// Mean client ops/window during calm windows.
    pub client_ops_calm: f64,
}

impl ContentionReport {
    /// Windows flagged as contended.
    pub fn contended_windows(&self) -> impl Iterator<Item = &WindowActivity> {
        self.windows.iter().filter(|w| w.contended)
    }

    /// Whether the trace exhibits the Fig. 4 signature: contended windows
    /// exist and client throughput drops in them.
    pub fn contention_detected(&self) -> bool {
        self.windows.iter().any(|w| w.contended) && self.client_ops_contended < self.client_ops_calm
    }

    /// Client throughput degradation factor (calm / contended mean ops).
    pub fn degradation_factor(&self) -> f64 {
        if self.client_ops_contended <= 0.0 {
            f64::INFINITY
        } else {
            self.client_ops_calm / self.client_ops_contended
        }
    }
}

/// Analyzes a session index for multi-threaded I/O contention.
pub fn detect_contention(index: &Index, config: &ContentionConfig) -> ContentionReport {
    let agg = Aggregation::date_histogram("time", config.window_ns)
        .sub("by_thread", Aggregation::terms("proc_name", 64));
    let response = index.search(&SearchRequest::match_all().size(0).agg("per_window", agg));

    let mut windows = Vec::new();
    for bucket in response.aggs["per_window"].buckets() {
        let start_ns = bucket.key.as_u64().unwrap_or(0);
        let mut client_ops = 0u64;
        let mut background_ops = 0u64;
        let mut active_background = 0usize;
        for thread in bucket.sub["by_thread"].buckets() {
            let name = thread.key.as_str().unwrap_or("");
            if name.starts_with(config.client_prefix.as_str()) {
                client_ops += thread.doc_count;
            } else if name.starts_with(config.background_prefix.as_str()) {
                background_ops += thread.doc_count;
                if thread.doc_count > 0 {
                    active_background += 1;
                }
            }
        }
        windows.push(WindowActivity {
            start_ns,
            client_ops,
            background_ops,
            active_background_threads: active_background,
            contended: active_background >= config.background_threshold,
        });
    }

    let mean = |contended: bool| {
        let vals: Vec<u64> =
            windows.iter().filter(|w| w.contended == contended).map(|w| w.client_ops).collect();
        if vals.is_empty() {
            f64::NAN
        } else {
            vals.iter().sum::<u64>() as f64 / vals.len() as f64
        }
    };
    ContentionReport { client_ops_contended: mean(true), client_ops_calm: mean(false), windows }
}

mod data_loss_tests {
    use super::*;
    use serde_json::json;

    fn ev(
        time: u64,
        proc: &str,
        syscall: &str,
        ret: i64,
        tag: &str,
        offset: Option<u64>,
    ) -> serde_json::Value {
        let mut doc = json!({
            "time": time, "proc_name": proc, "syscall": syscall,
            "ret_val": ret, "file_tag": tag,
        });
        if let Some(o) = offset {
            doc["offset"] = json!(o);
        }
        doc
    }

    /// The exact Fig. 2a scenario.
    fn buggy_trace(idx: &Index) {
        idx.bulk(vec![
            ev(1, "app", "write", 26, "7340032|12|100", Some(0)),
            ev(2, "fluent-bit", "read", 26, "7340032|12|100", Some(0)),
            ev(3, "fluent-bit", "read", 0, "7340032|12|100", Some(26)),
            // unlink + recreate: same dev|ino, new generation.
            ev(4, "app", "write", 16, "7340032|12|200", Some(0)),
            // fluent-bit lseeks to 26 and reads 0 bytes: the bug.
            ev(5, "fluent-bit", "read", 0, "7340032|12|200", Some(26)),
        ]);
    }

    /// The Fig. 2b (fixed) scenario.
    fn fixed_trace(idx: &Index) {
        idx.bulk(vec![
            ev(1, "app", "write", 26, "7340032|12|100", Some(0)),
            ev(2, "flb-pipeline", "read", 26, "7340032|12|100", Some(0)),
            ev(3, "flb-pipeline", "read", 0, "7340032|12|100", Some(26)),
            ev(4, "app", "write", 16, "7340032|12|200", Some(0)),
            ev(5, "flb-pipeline", "read", 16, "7340032|12|200", Some(0)),
            ev(6, "flb-pipeline", "read", 0, "7340032|12|200", Some(16)),
        ]);
    }

    #[test]
    fn flags_the_buggy_version() {
        let idx = Index::new("t");
        buggy_trace(&idx);
        let incidents = detect_data_loss(&idx);
        assert_eq!(incidents.len(), 1);
        let inc = &incidents[0];
        assert_eq!(inc.stale_offset, 26);
        assert_eq!(inc.bytes_at_risk, 16);
        assert_eq!(inc.reader, "fluent-bit");
        assert_eq!(inc.tag, "7340032|12|200".parse().unwrap());
        assert_eq!(inc.previous_generation, "7340032|12|100".parse().unwrap());
    }

    #[test]
    fn passes_the_fixed_version() {
        let idx = Index::new("t");
        fixed_trace(&idx);
        assert!(detect_data_loss(&idx).is_empty());
    }

    #[test]
    fn eof_read_on_first_generation_is_benign() {
        let idx = Index::new("t");
        idx.bulk(vec![
            ev(1, "app", "write", 10, "1|5|100", Some(0)),
            ev(2, "tailer", "read", 10, "1|5|100", Some(0)),
            ev(3, "tailer", "read", 0, "1|5|100", Some(10)), // normal EOF poll
        ]);
        assert!(detect_data_loss(&idx).is_empty());
    }

    #[test]
    fn includes_correlated_path() {
        let idx = Index::new("t");
        buggy_trace(&idx);
        idx.update_by_query(&Query::term("file_tag", "7340032|12|200"), |d| {
            d["file_path"] = json!("/logs/app.log");
        });
        let incidents = detect_data_loss(&idx);
        assert_eq!(incidents[0].path.as_deref(), Some("/logs/app.log"));
    }

    #[test]
    fn multiple_files_independent() {
        let idx = Index::new("t");
        buggy_trace(&idx);
        // A healthy unrelated file with generations.
        idx.bulk(vec![
            ev(10, "app", "write", 5, "1|7|300", Some(0)),
            ev(11, "tailer", "read", 5, "1|7|400", Some(0)),
        ]);
        assert_eq!(detect_data_loss(&idx).len(), 1);
    }
}

mod contention_tests {
    use super::*;
    use serde_json::json;

    /// Builds a window of events: `clients` client ops and `bg_threads`
    /// background threads doing `bg_ops_each` ops apiece.
    fn window(idx: &Index, start_s: u64, clients: usize, bg_threads: usize, bg_ops_each: usize) {
        let base = start_s * 1_000_000_000;
        let mut docs = Vec::new();
        for i in 0..clients {
            docs.push(
                json!({"proc_name": "db_bench", "time": base + i as u64, "syscall": "write"}),
            );
        }
        for t in 0..bg_threads {
            for i in 0..bg_ops_each {
                docs.push(json!({
                    "proc_name": format!("rocksdb:low{t}"),
                    "time": base + 100 + i as u64,
                    "syscall": "read",
                }));
            }
        }
        idx.bulk(docs);
    }

    #[test]
    fn detects_the_fig4_signature() {
        let idx = Index::new("t");
        // Calm: 1-2 compaction threads, many client ops.
        window(&idx, 0, 100, 1, 10);
        window(&idx, 1, 110, 2, 10);
        // Contended: 6 compaction threads, client ops dip.
        window(&idx, 2, 20, 6, 30);
        window(&idx, 3, 15, 7, 30);
        // Recovery.
        window(&idx, 4, 105, 1, 10);

        let report = detect_contention(&idx, &ContentionConfig::default());
        assert_eq!(report.windows.len(), 5);
        assert!(report.contention_detected());
        assert_eq!(report.contended_windows().count(), 2);
        assert!(report.windows[2].contended);
        assert_eq!(report.windows[2].active_background_threads, 6);
        assert!(report.degradation_factor() > 3.0);
    }

    #[test]
    fn no_contention_in_calm_trace() {
        let idx = Index::new("t");
        window(&idx, 0, 100, 2, 10);
        window(&idx, 1, 90, 1, 10);
        let report = detect_contention(&idx, &ContentionConfig::default());
        assert!(!report.contention_detected());
        assert!(report.contended_windows().count() == 0);
    }

    #[test]
    fn busy_background_without_client_dip_is_not_contention() {
        let idx = Index::new("t");
        window(&idx, 0, 100, 1, 5);
        window(&idx, 1, 120, 6, 5); // many bg threads but clients unaffected
        let report = detect_contention(&idx, &ContentionConfig::default());
        assert_eq!(report.contended_windows().count(), 1);
        assert!(!report.contention_detected(), "client throughput did not drop");
    }

    #[test]
    fn threshold_is_configurable() {
        let idx = Index::new("t");
        window(&idx, 0, 100, 3, 10);
        let strict = ContentionConfig { background_threshold: 3, ..Default::default() };
        let lax = ContentionConfig::default();
        assert_eq!(detect_contention(&idx, &strict).contended_windows().count(), 1);
        assert_eq!(detect_contention(&idx, &lax).contended_windows().count(), 0);
    }

    #[test]
    fn empty_index_yields_empty_report() {
        let idx = Index::new("t");
        let report = detect_contention(&idx, &ContentionConfig::default());
        assert!(report.windows.is_empty());
        assert!(!report.contention_detected());
    }
}
