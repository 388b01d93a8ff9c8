//! exp_dfg — streaming directly-follows-graph mining over the two
//! case-study workloads.
//!
//! Replays the Fig. 2 Fluent Bit data-loss scenario and the Fig. 3
//! RocksDB contention run with the DFG profiler riding the tracer, then
//! exports the mined graphs (DOT artifacts + machine-readable JSON) and
//! checks the causal story end to end: both workloads' alerts must carry
//! critical-edge attribution blocks naming a transition between
//! data-path syscalls, and the mined graphs must reflect each workload's
//! signature access pattern.

use dio_core::{
    to_dot, to_json, Alert, AlertKind, DfgSnapshot, DiagnoseConfig, Dio, ProfileConfig,
    SyscallKind, TracerConfig,
};
use dio_fluentbit::{run_issue_1875, FluentBitVersion};

use dio_bench::rocksdb_run::{run_rocksdb, RocksdbRunConfig, TracingSetup};

/// Same phase gap exp_fig2 uses on the simulated time axis.
const GAP_NS: u64 = 20_000_000;

/// Every attributed critical edge must connect two syscalls the traced
/// workload actually issues — i.e. both endpoints parse as tracepoint
/// names, not placeholder strings.
fn assert_traced_edge(attribution: &serde_json::Value) -> String {
    let edge = attribution["edge"].as_str().expect("attribution names an edge").to_string();
    let (from, to) = edge.split_once("->").expect("edge is a transition");
    assert!(from.parse::<SyscallKind>().is_ok(), "edge source {from} is a traced syscall");
    assert!(to.parse::<SyscallKind>().is_ok(), "edge target {to} is a traced syscall");
    assert!(
        attribution["transitions"].as_u64().unwrap_or(0) > 0,
        "attribution backed by observed transitions: {attribution}"
    );
    edge
}

/// The attributed alerts among `alerts`, each as (the rule that raised it,
/// its critical edge).
fn attributed(alerts: &[Alert]) -> Vec<(String, String)> {
    alerts
        .iter()
        .filter_map(|a| {
            let rule = a.fields["rule"].as_str().unwrap_or(a.detector).to_string();
            a.attribution.as_ref().map(|attr| (rule, assert_traced_edge(attr)))
        })
        .collect()
}

/// At least one alert of `kind` was raised, and every one is attributed.
fn assert_attributed(alerts: &[Alert], kind: AlertKind) {
    let raised: Vec<&Alert> = alerts.iter().filter(|a| a.kind == kind).collect();
    assert!(!raised.is_empty(), "no {kind} alert among {alerts:?}");
    assert!(raised.iter().all(|a| a.attribution.is_some()), "a {kind} alert went unattributed");
}

/// One graph's headline numbers for the JSON result.
fn graph_metrics(dfg: &DfgSnapshot) -> serde_json::Value {
    let busiest = dfg.global.edges.iter().max_by_key(|e| e.count);
    serde_json::json!({
        "events": dfg.events,
        "transitions": dfg.transitions,
        "nodes": dfg.global.nodes.len(),
        "edges": dfg.global.edges.len(),
        "evicted_edges": dfg.global.evicted_edges,
        "phase_shifts": dfg.phase_shifts,
        "process_graphs": dfg.processes.len(),
        "file_tag_graphs": dfg.tags.len(),
        "busiest_edge": busiest.map(|e| e.label()),
        "busiest_edge_count": busiest.map(|e| e.count),
    })
}

fn main() {
    // ---------------------------------------- Fig. 2: data-loss workload
    let dio = Dio::new();
    let session = dio.trace(
        TracerConfig::new("dfg-fig2")
            .diagnose(DiagnoseConfig::default())
            .profile(ProfileConfig::default()),
    );
    run_issue_1875(dio.kernel(), FluentBitVersion::V1_4_0, "/app.log", GAP_NS)
        .expect("scenario replays cleanly");
    let fig2 = session.stop();
    let fig2_dfg = fig2.trace.dfg.expect("profiling enabled");
    assert!(fig2_dfg.transitions > 0, "fig2 run must mine transitions");
    assert!(!fig2_dfg.global.edges.is_empty(), "fig2 run must mine edges");

    // The buggy tailer's verdicts carry attribution naming a transition
    // between the workload's data-path syscalls.
    let fig2_attributed = attributed(&fig2.trace.alerts);
    assert_attributed(&fig2.trace.alerts, AlertKind::DataLoss);

    // The per-file-tag graphs separate the two /app.log generations the
    // paper's file-tag design distinguishes.
    assert_eq!(
        fig2_dfg.tags.len(),
        2,
        "two file-tag generations mined, got {:?}",
        fig2_dfg.tags.keys()
    );

    // --------------------------------------- Fig. 3: contention workload
    let base = if dio_bench::smoke_mode() {
        RocksdbRunConfig::smoke()
    } else {
        // The DFG story doesn't need the full Fig. 3 duration; a third of
        // the ops still drives compaction contention and keeps exp_dfg fast.
        RocksdbRunConfig { ops_per_thread: 4_000, ..RocksdbRunConfig::default() }
    };
    let config = RocksdbRunConfig { diagnose: true, profile: true, ..base };
    let result = run_rocksdb(TracingSetup::Dio, &config);
    let (summary, _backend) = result.dio.expect("dio outputs");
    let fig3_dfg = summary.dfg.expect("profiling enabled");
    assert!(fig3_dfg.transitions > 0, "fig3 run must mine transitions");
    let fig3_attributed = attributed(&summary.alerts);
    if !dio_bench::smoke_mode() {
        assert_attributed(&summary.alerts, AlertKind::ContentionSkew);
    }

    // ------------------------------------------------- exported artifacts
    let fig2_dot = to_dot(&fig2_dfg.global, "fig2 fluentbit data loss");
    let fig3_dot = to_dot(&fig3_dfg.global, "fig3 rocksdb contention");
    dio_bench::write_result("exp_dfg_fig2.dot", &fig2_dot);
    dio_bench::write_result("exp_dfg_fig3.dot", &fig3_dot);

    let mut out = String::from("EXP DFG: directly-follows graphs of the case-study workloads\n\n");
    out.push_str(&format!(
        "fig2 (fluentbit v1.4.0): {} events, {} transitions, {} edges, {} file-tag graphs\n",
        fig2_dfg.events,
        fig2_dfg.transitions,
        fig2_dfg.global.edges.len(),
        fig2_dfg.tags.len(),
    ));
    for (rule, edge) in &fig2_attributed {
        out.push_str(&format!("  alert {rule} attributed to critical edge {edge}\n"));
    }
    out.push_str(&format!(
        "\nfig3 (rocksdb ycsb-a): {} events, {} transitions, {} edges, {} process graphs\n",
        fig3_dfg.events,
        fig3_dfg.transitions,
        fig3_dfg.global.edges.len(),
        fig3_dfg.processes.len(),
    ));
    for (rule, edge) in &fig3_attributed {
        out.push_str(&format!("  alert {rule} attributed to critical edge {edge}\n"));
    }
    out.push('\n');
    out.push_str(&dio_viz::render_dfg_panel(&to_json(&fig2_dfg)));
    println!("{out}");
    dio_bench::write_result("exp_dfg.txt", &out);

    dio_bench::write_json_result(
        "exp_dfg.json",
        "exp_dfg",
        serde_json::json!({
            "fig2_workload": "fluentbit_issue_1875_v1_4_0",
            "fig2_gap_ns": GAP_NS,
            "fig3": config.params_json(),
        }),
        serde_json::json!({
            "fig2": graph_metrics(&fig2_dfg),
            "fig2_attributed_alerts": fig2_attributed.len(),
            "fig2_critical_edges": fig2_attributed.iter().map(|(_, e)| e).collect::<Vec<_>>(),
            "fig3": graph_metrics(&fig3_dfg),
            "fig3_attributed_alerts": fig3_attributed.len(),
            "fig3_critical_edges": fig3_attributed.iter().map(|(_, e)| e).collect::<Vec<_>>(),
        }),
    );
    println!(
        "\nDFG mining reproduced both case studies: {} fig2 + {} fig3 attributed alerts.",
        fig2_attributed.len(),
        fig3_attributed.len()
    );
}
