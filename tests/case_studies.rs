//! Integration tests reproducing both of the paper's case studies at
//! test scale (the full-scale versions live in `dio-bench`'s binaries).

use std::sync::Arc;

use dio::core::{
    diagnose_index, Alert, AlertKind, DiagnoseConfig, Dio, DiskProfile, Index, Kernel, Query,
    SearchRequest, SortOrder, TracerConfig,
};
use dio_dbbench::{load_phase, run, BenchConfig, YcsbWorkload};
use dio_fluentbit::{run_issue_1875, FluentBitVersion};
use dio_lsmkv::{Db, LsmOptions};
use dio_syscall::SyscallKind;

fn fast_dio() -> Dio {
    Dio::with_kernel(Kernel::builder().root_disk(DiskProfile::instant()).build())
}

/// The `data_loss` alerts the shipped rules raise over a stored session.
fn data_loss_alerts(index: &Index) -> Vec<Alert> {
    let engine = diagnose_index(index, DiagnoseConfig::default(), Vec::new());
    engine.alerts().into_iter().filter(|a| a.kind == AlertKind::DataLoss).collect()
}

/// §III-B, Fig. 2a: the traced buggy run shows the exact erroneous pattern
/// and the shipped rules flag it in the stored session.
#[test]
fn fluentbit_bug_pattern_in_trace() {
    let dio = fast_dio();
    let session = dio.trace(TracerConfig::new("fb-bug"));
    let outcome = run_issue_1875(dio.kernel(), FluentBitVersion::V1_4_0, "/app.log", 0).unwrap();
    session.stop();
    assert_eq!(outcome.bytes_lost(), 16);

    let index = dio.session_index("fb-bug").unwrap();
    // The reader's events in time order, second generation only.
    let tags: Vec<String> = index
        .search(
            &SearchRequest::new(Query::term("syscall", "openat")).sort_by("time", SortOrder::Asc),
        )
        .hits
        .iter()
        .filter_map(|h| h.source["file_tag"].as_str().map(String::from))
        .collect();
    let last_tag = tags.last().unwrap().clone();
    let reads = index.search(
        &SearchRequest::new(
            Query::bool_query()
                .must(Query::term("syscall", "read"))
                .must(Query::term("file_tag", last_tag))
                .build(),
        )
        .sort_by("time", SortOrder::Asc),
    );
    // Fig. 2a step 5: first read of the new generation is at offset 26, ret 0.
    let first = &reads.hits[0].source;
    assert_eq!(first["offset"], 26);
    assert_eq!(first["ret_val"], 0);

    let [loss] = &data_loss_alerts(&index)[..] else { panic!("one data_loss alert") };
    let [read] = &loss.evidence[..] else { panic!("the stale read is the evidence: {loss:?}") };
    assert_eq!((read["syscall"].as_str(), read["offset"].as_u64()), (Some("read"), Some(26)));
    assert_eq!(read["ret_val"], 0);
}

/// §III-B, Fig. 2b: the fixed version reads generation 2 from offset 0.
#[test]
fn fluentbit_fix_pattern_in_trace() {
    let dio = fast_dio();
    let session = dio.trace(TracerConfig::new("fb-fix"));
    let outcome = run_issue_1875(dio.kernel(), FluentBitVersion::V2_0_5, "/app.log", 0).unwrap();
    session.stop();
    assert_eq!(outcome.bytes_lost(), 0);
    let index = dio.session_index("fb-fix").unwrap();
    assert!(data_loss_alerts(&index).is_empty());
    // Fig. 2b: a read at offset 0 returning 16 bytes exists.
    assert!(
        index.count(
            &Query::bool_query()
                .must(Query::term("syscall", "read"))
                .must(Query::term("offset", 0))
                .must(Query::term("ret_val", 16))
                .build()
        ) >= 1
    );
}

/// §III-C at test scale: the traced LSM workload shows client and
/// background thread names, and the store's stall machinery engages.
#[test]
fn lsm_workload_under_dio() {
    let disk = DiskProfile {
        read_bw_bps: 256 << 20,
        write_bw_bps: 128 << 20,
        base_latency_ns: 5_000,
        flush_latency_ns: 20_000,
    };
    let kernel = Kernel::builder().num_cpus(4).root_disk(disk).build();
    let dio = Dio::with_kernel(kernel);
    let process = dio.kernel().spawn_process("db_bench");
    let opts = LsmOptions {
        memtable_bytes: 16 * 1024,
        l0_compaction_trigger: 2,
        compaction_threads: 3,
        ..LsmOptions::new("/db")
    };
    let db = Arc::new(Db::open(&process, opts).unwrap());
    let bench = BenchConfig {
        workload: YcsbWorkload::A,
        client_threads: 4,
        records: 500,
        value_size: 200,
        ops_per_thread: 500,
        window_ns: 100_000_000,
        ..BenchConfig::default()
    };
    load_phase(&db, &process, &bench, 2).unwrap();

    let session = dio.trace(TracerConfig::new("lsm").syscalls([
        SyscallKind::Openat,
        SyscallKind::Read,
        SyscallKind::Pread64,
        SyscallKind::Write,
        SyscallKind::Pwrite64,
        SyscallKind::Close,
    ]));
    let report = run(&db, &process, &bench);
    let closer = process.spawn_thread("closer");
    db.shutdown(&closer).unwrap();
    let trace = session.stop();

    assert_eq!(report.ops, 2_000);
    assert!(trace.trace.events_stored > 1_000);

    let index = dio.session_index("lsm").unwrap();
    // Thread attribution: clients and at least the flush thread appear.
    assert!(index.count(&Query::term("proc_name", "db_bench")) > 500);
    assert!(index.count(&Query::term("proc_name", "rocksdb:high0")) > 0, "flush thread traced");
    assert!(index.count(&Query::prefix("proc_name", "rocksdb:low")) > 0, "compactions traced");

    // The shipped rules re-diagnose the stored session end to end (whether
    // contention fires depends on scale): every stored event is observed, in
    // time order, so none arrives after its window was sealed.
    let stored = index.len() as u64;
    assert_eq!(stored, trace.trace.events_stored);
    let engine =
        diagnose_index(&index, DiagnoseConfig::default().window_ns(100_000_000), Vec::new());
    let stats = engine.stats();
    assert_eq!((stats.observed, stats.evaluated, stats.late_events), (stored, stored, 0));
}

/// Running both case studies against ONE shared pipeline, as a deployed
/// DIO service would (§II-F "deploy DIO as a service").
#[test]
fn shared_pipeline_multiple_applications() {
    let dio = fast_dio();
    let s1 = dio.trace(TracerConfig::new("svc-fluentbit"));
    run_issue_1875(dio.kernel(), FluentBitVersion::V1_4_0, "/one.log", 0).unwrap();
    s1.stop();

    let s2 = dio.trace(TracerConfig::new("svc-other"));
    let t = dio.kernel().spawn_process("other").spawn_thread("other");
    t.creat("/other.txt", 0o644).unwrap();
    s2.stop();

    assert_eq!(dio.sessions().len(), 2);
    assert_eq!(data_loss_alerts(&dio.session_index("svc-fluentbit").unwrap()).len(), 1);
    assert!(data_loss_alerts(&dio.session_index("svc-other").unwrap()).is_empty());
}
