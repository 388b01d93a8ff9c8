//! Fig. 4 — syscalls issued by RocksDB over time, aggregated by thread
//! name, traced by DIO (§III-C).
//!
//! The same workload as Fig. 3, but observed through DIO configured to
//! capture only the data-path syscalls. The dashboard shows client
//! (`db_bench`) vs compaction (`rocksdb:lowX`) vs flush (`rocksdb:high0`)
//! activity per window — the paper's `date_histogram × terms(proc_name)`
//! aggregation, folded into a per-window table — and the stored session,
//! re-diagnosed by the shipped `contention_skew` rule, flags the intervals
//! where many compaction threads submit I/O while client syscalls dip: the
//! paper's red boxes.

use dio_backend::{Aggregation, Query, SearchRequest};
use dio_bench::rocksdb_run::{run_rocksdb, RocksdbRunConfig, TracingSetup};
use dio_core::{correlate_paths, diagnose_index, AlertKind, DiagnoseConfig};
use dio_viz::dashboards;

/// Active compaction threads that mark a window in the paper's figure (and
/// in `rules/fig3_contention.dio`).
const COMPACTION_THREADS: usize = 5;

/// One window of the per-thread aggregation.
struct Window {
    start_ns: u64,
    client_ops: u64,
    background_ops: u64,
    active_compaction_threads: usize,
}

impl Window {
    fn contended(&self) -> bool {
        self.active_compaction_threads >= COMPACTION_THREADS
    }
}

fn main() {
    let config = if dio_bench::smoke_mode() {
        RocksdbRunConfig::smoke()
    } else {
        RocksdbRunConfig::default()
    };
    let result = run_rocksdb(TracingSetup::Dio, &config);
    let (summary, backend) = result.dio.expect("DIO outputs present");
    let index = backend.index("dio-rocksdb");
    let correlation = correlate_paths(&index);

    let window_ns = config.window_ns;
    let dashboard = dashboards::syscalls_over_time(Query::MatchAll, window_ns);
    let rendered = dashboard.render(&index);

    let by_thread = Aggregation::date_histogram("time", window_ns)
        .sub("by_thread", Aggregation::terms("proc_name", 64));
    let response = index.search(&SearchRequest::match_all().size(0).agg("per_window", by_thread));
    let windows: Vec<Window> = response.aggs["per_window"]
        .buckets()
        .iter()
        .map(|bucket| {
            let mut window = Window {
                start_ns: bucket.key.as_u64().unwrap_or(0),
                client_ops: 0,
                background_ops: 0,
                active_compaction_threads: 0,
            };
            for thread in bucket.sub["by_thread"].buckets() {
                let name = thread.key.as_str().unwrap_or("");
                if name.starts_with("db_bench") {
                    window.client_ops += thread.doc_count;
                } else if name.starts_with("rocksdb:low") {
                    window.background_ops += thread.doc_count;
                    window.active_compaction_threads += 1;
                }
            }
            window
        })
        .collect();

    // The verdict is the shipped rules', over the stored session, at the
    // width the figure buckets by.
    let stored = diagnose_index(&index, DiagnoseConfig::default().window_ns(window_ns), Vec::new());
    let stats = stored.stats();
    let alerts = stored.alerts();
    let skewed: Vec<u64> = alerts
        .iter()
        .filter(|a| a.kind == AlertKind::ContentionSkew)
        .filter_map(|a| a.window_start_ns)
        .collect();

    let mean_client_ops = |keep: &dyn Fn(&Window) -> bool| {
        let ops: Vec<u64> = windows.iter().filter(|w| keep(w)).map(|w| w.client_ops).collect();
        ops.iter().sum::<u64>() as f64 / ops.len() as f64
    };
    let calm = mean_client_ops(&|w| !w.contended());
    let contended = mean_client_ops(&Window::contended);
    let flagged = mean_client_ops(&|w| skewed.contains(&w.start_ns));
    let degradation = if contended <= 0.0 { f64::INFINITY } else { calm / contended };
    let contended_windows = windows.iter().filter(|w| w.contended()).count();

    let mut out =
        String::from("FIG. 4: syscalls issued by RocksDB over time, aggregated by thread name\n\n");
    out.push_str(&rendered);
    out.push_str(&format!(
        "\ntrace: {} events stored, {} dropped ({:.2}% discard), {} unresolved paths\n",
        summary.events_stored,
        summary.events_dropped,
        summary.drop_rate() * 100.0,
        correlation.events_unresolved,
    ));
    out.push_str(&format!(
        "contention windows (>= {COMPACTION_THREADS} active compaction threads): {contended_windows} of {}\n",
        windows.len(),
    ));
    out.push_str(&format!(
        "client syscalls per window: calm avg {calm:.0}, contended avg {contended:.0} (degradation {degradation:.2}x)\n",
    ));
    out.push_str(&format!(
        "stored session re-diagnosed: {} events observed ({} late), {} contention_skew alerts\n",
        stats.observed,
        stats.late_events,
        skewed.len(),
    ));
    out.push_str("\npaper: when >=5 compaction threads submit I/O, db_bench syscalls decrease\n");
    out.push_str(&format!(
        "measured: contention detected = {} — client syscalls avg {flagged:.0} in the flagged windows, calm avg {calm:.0}\n",
        !skewed.is_empty(),
    ));

    // Per-window breakdown table (the machine-readable Fig. 4).
    let mut csv = String::from(
        "window_start_s,client_ops,background_ops,active_compaction_threads,contended\n",
    );
    let t0 = windows.first().map_or(0, |w| w.start_ns);
    let start_s = |w: &Window| (w.start_ns - t0) as f64 / 1e9;
    for w in &windows {
        csv.push_str(&format!(
            "{},{},{},{},{}\n",
            start_s(w),
            w.client_ops,
            w.background_ops,
            w.active_compaction_threads,
            w.contended()
        ));
    }

    println!("{out}");
    dio_bench::write_result("fig4_syscalls_by_thread.txt", &out);
    dio_bench::write_result("fig4_syscalls_by_thread.csv", &csv);
    dio_bench::write_json_result(
        "fig4_syscalls_by_thread.json",
        "exp_fig4",
        config.params_json(),
        serde_json::json!({
            "events_stored": summary.events_stored,
            "events_dropped": summary.events_dropped,
            "events_unresolved": correlation.events_unresolved,
            "drop_rate": summary.drop_rate(),
            "windows": windows.len(),
            "contended_windows": contended_windows,
            "contention_detected": !skewed.is_empty(),
            "client_ops_calm": calm,
            "client_ops_contended": contended,
            "degradation_factor": degradation,
            "stored_verdict": {
                "alerts_raised": alerts.len(),
                "contention_skew_alerts": skewed.len(),
                "events_observed": stats.observed,
                "late_events": stats.late_events,
            },
            "per_window": windows.iter().map(|w| serde_json::json!({
                "start_s": start_s(w),
                "client_ops": w.client_ops,
                "background_ops": w.background_ops,
                "active_compaction_threads": w.active_compaction_threads,
                "contended": w.contended(),
                "contention_skew": skewed.contains(&w.start_ns),
            })).collect::<Vec<_>>(),
        }),
    );

    if !dio_bench::smoke_mode() {
        assert!(summary.events_stored > 0);
        assert_eq!(
            (stats.observed, stats.late_events),
            (summary.events_stored, 0),
            "the stored replay observes every stored event, in time order"
        );
        assert!(
            windows.iter().any(Window::contended),
            "expected windows with >=5 active compaction threads"
        );
        assert!(
            !skewed.is_empty(),
            "expected the Fig. 4 anti-correlation between compaction activity and client syscalls"
        );
    }
}
