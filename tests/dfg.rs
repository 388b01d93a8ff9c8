//! The streaming DFG profiler end to end: mining determinism (property:
//! the mined graph is a pure function of the event sequence, however it
//! is batched), the golden `dio top` DFG panel, and alert attribution
//! over both case-study workloads — the Fig. 2 data-loss alert and the
//! Fig. 3 contention alerts must each name a critical syscall edge.

use proptest::prelude::*;
use serde_json::{json, Value};

use dio::core::{
    to_json, AlertKind, DfgMiner, DiagnoseConfig, Dio, ProfileConfig, SyscallKind, TracerConfig,
};
use dio_bench::rocksdb_run::{run_rocksdb, RocksdbRunConfig, TracingSetup};
use dio_fluentbit::{run_issue_1875, FluentBitVersion};

// ------------------------------------------------------ mined-event gen

const SYSCALLS: &[&str] =
    &["openat", "read", "pread64", "write", "pwrite64", "lseek", "fsync", "close", "unlink"];

/// One synthetic parsed event: (tid, syscall index, time gap, latency,
/// optional file-tag index).
fn event_strategy() -> impl Strategy<Value = (u8, u8, u16, u16, u8)> {
    (0u8..3, 0u8..SYSCALLS.len() as u8, any::<u16>(), any::<u16>(), 0u8..3)
}

/// Materializes the generated tuples into the parsed-event documents the
/// consumer ships (monotonic time axis, stable pid/proc fields).
fn materialize(raw: &[(u8, u8, u16, u16, u8)]) -> Vec<Value> {
    let mut time = 0u64;
    raw.iter()
        .map(|&(tid, syscall, gap, latency, tag)| {
            time += 1 + gap as u64;
            json!({
                "time": time,
                "syscall": SYSCALLS[syscall as usize],
                "pid": 100 + (tid as u64 % 2),
                "tid": 100 + tid as u64,
                "proc_name": "gen",
                "latency_ns": latency as u64,
                "ret_val": 1,
                "file_tag": if tag == 0 { Value::Null } else { json!(format!("8:1|{tag}|7")) },
            })
        })
        .collect()
}

fn mine(docs: &[Value], batch: usize) -> Value {
    let miner = DfgMiner::new(ProfileConfig::default());
    for chunk in docs.chunks(batch.max(1)) {
        miner.observe_batch(chunk);
    }
    miner.finish();
    to_json(&miner.snapshot())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Mining the same sequence twice yields byte-identical snapshots —
    /// no hidden wall-clock or iteration-order dependence.
    #[test]
    fn same_sequence_mines_identically(raw in proptest::collection::vec(event_strategy(), 1..120)) {
        let docs = materialize(&raw);
        prop_assert_eq!(mine(&docs, 16), mine(&docs, 16));
    }

    /// Streaming in arbitrary batch sizes equals one-shot offline replay:
    /// the DFG is a pure function of the event sequence, not its framing.
    #[test]
    fn stream_batching_equals_offline_replay(
        raw in proptest::collection::vec(event_strategy(), 1..120),
        batch in 1usize..32,
    ) {
        let docs = materialize(&raw);
        prop_assert_eq!(mine(&docs, batch), mine(&docs, docs.len()));
    }
}

// ------------------------------------------------------ golden top panel

/// A pinned event sequence renders a byte-stable `dio top` DFG panel.
/// Regenerate after an intentional format change with:
///
/// ```text
/// DIO_UPDATE_GOLDEN=1 cargo test --test dfg golden
/// ```
#[test]
fn dfg_top_panel_matches_golden_snapshot() {
    let miner = DfgMiner::new(ProfileConfig::default());
    let script: &[(&str, u64, u64)] = &[
        ("openat", 1_000, 2_500),
        ("write", 11_000, 40_000),
        ("write", 61_000, 42_000),
        ("write", 111_000, 41_000),
        ("fsync", 161_000, 2_900_000),
        ("write", 3_100_000, 39_000),
        ("fsync", 3_150_000, 3_050_000),
        ("close", 6_300_000, 1_800),
    ];
    let docs: Vec<Value> = script
        .iter()
        .map(|&(syscall, time, latency)| {
            json!({
                "time": time, "syscall": syscall, "pid": 7, "tid": 7,
                "proc_name": "writer", "latency_ns": latency, "ret_val": 8,
                "file_tag": "8:1|42|1000",
            })
        })
        .collect();
    miner.observe_batch(&docs);
    miner.finish();

    let rendered = dio::core::render_dfg_panel(&to_json(&miner.snapshot()));
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/dfg_top.txt");
    if std::env::var_os("DIO_UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &rendered).expect("write golden");
    }
    let golden = std::fs::read_to_string(golden_path).expect("golden snapshot present");
    assert_eq!(rendered, golden, "DFG panel drifted from tests/golden/dfg_top.txt");
}

// --------------------------------------------- case-study attribution

fn assert_traced_edge(attribution: &Value) -> String {
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

/// Fig. 2 (exp_fig2's workload): the buggy tailer's live data-loss alert
/// carries a non-empty attribution block naming a DFG edge.
#[test]
fn fig2_data_loss_alert_carries_dfg_attribution() {
    let dio = Dio::new();
    let session = dio.trace(
        TracerConfig::new("dfg-attr-fig2")
            .diagnose(DiagnoseConfig::default())
            .profile(ProfileConfig::default()),
    );
    run_issue_1875(dio.kernel(), FluentBitVersion::V1_4_0, "/app.log", 20_000_000)
        .expect("scenario replays");
    let report = session.stop();

    let data_loss: Vec<_> =
        report.trace.alerts.iter().filter(|a| a.kind == AlertKind::DataLoss).collect();
    assert!(!data_loss.is_empty(), "buggy tailer must raise data loss: {:?}", report.trace.alerts);
    for alert in data_loss {
        let attribution = alert.attribution.as_ref().expect("data-loss alert attributed");
        let edge = assert_traced_edge(attribution);
        // The fault is the reader resuming at a stale offset: the alert
        // window closes on the reader's I/O, so the critical transition
        // ends (or starts) in a data-path operation, not pure metadata.
        assert!(
            ["read", "pread64", "write", "openat", "close", "lseek", "stat", "unlink", "creat"]
                .iter()
                .any(|s| edge.contains(s)),
            "edge {edge} names the tail-and-rotate data path"
        );
    }
    // The final DFG rides the summary for offline inspection.
    let dfg = report.trace.dfg.expect("profiling enabled");
    assert!(dfg.transitions > 0);
    assert_eq!(dfg.tags.len(), 2, "both /app.log generations mined");
}

/// Fig. 3 (exp_fig3's workload, scaled down): every live contention
/// alert carries a non-empty attribution block naming a DFG edge.
#[test]
fn fig3_contention_alerts_carry_dfg_attribution() {
    let config = RocksdbRunConfig {
        diagnose: true,
        profile: true,
        ops_per_thread: 4_000,
        ..RocksdbRunConfig::default()
    };
    let result = run_rocksdb(TracingSetup::Dio, &config);
    let (summary, _backend) = result.dio.expect("dio outputs");

    let contention: Vec<_> =
        summary.alerts.iter().filter(|a| a.kind == AlertKind::ContentionSkew).collect();
    assert!(!contention.is_empty(), "compaction must contend: {:?}", summary.alerts);
    for alert in contention {
        let attribution = alert.attribution.as_ref().expect("contention alert attributed");
        assert_traced_edge(attribution);
        assert!(
            attribution["latency_ns"].as_u64().unwrap_or(0) > 0,
            "critical edge carries window latency: {attribution}"
        );
    }
    let dfg = summary.dfg.expect("profiling enabled");
    assert!(dfg.transitions > 0, "fig3 run must mine transitions");
    assert!(!dfg.processes.is_empty(), "per-process graphs mined");
}
