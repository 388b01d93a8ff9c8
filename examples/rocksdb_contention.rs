//! The §III-C case study as a runnable example: finding the root cause of
//! tail-latency spikes in an LSM key-value store with DIO.
//!
//! ```text
//! cargo run --release --example rocksdb_contention
//! ```
//!
//! Runs a scaled YCSB-A workload against the bundled LSM store (1 flush
//! thread + 7 compaction threads, as in the paper), traced by DIO, then
//! re-runs the shipped rules over the stored session: `contention_skew`
//! names the time windows where background I/O starved the clients.

use std::sync::Arc;

use dio::core::{
    diagnose_index, AlertKind, DiagnoseConfig, Dio, DiskProfile, Kernel, Query, TracerConfig,
};
use dio_dbbench::{load_phase, run, BenchConfig, YcsbWorkload};
use dio_lsmkv::{Db, LsmOptions};
use dio_syscall::SyscallKind;
use dio_viz::dashboards;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A slowed-down disk so compaction bursts visibly contend (see
    // DESIGN.md "Substitutions").
    let disk = DiskProfile {
        read_bw_bps: 192 << 20,
        write_bw_bps: 96 << 20,
        base_latency_ns: 15_000,
        flush_latency_ns: 60_000,
    };
    let kernel = Kernel::builder().num_cpus(4).root_disk(disk).build();
    let dio = Dio::with_kernel(kernel);
    let process = dio.kernel().spawn_process("db_bench");

    let db = Arc::new(Db::open(&process, LsmOptions::benchmark_profile("/db"))?);
    let bench = BenchConfig {
        workload: YcsbWorkload::A,
        client_threads: 8,
        records: 10_000,
        ops_per_thread: 4_000,
        value_size: 400,
        window_ns: 250_000_000,
        ..BenchConfig::default()
    };
    println!("loading {} records...", bench.records);
    load_phase(&db, &process, &bench, 4)?;

    // Trace only the data-path syscalls, as the paper does for this run.
    let session = dio.trace(TracerConfig::new("rocksdb").syscalls([
        SyscallKind::Open,
        SyscallKind::Openat,
        SyscallKind::Creat,
        SyscallKind::Read,
        SyscallKind::Pread64,
        SyscallKind::Write,
        SyscallKind::Pwrite64,
        SyscallKind::Close,
    ]));

    println!("running YCSB-A with 8 client threads...");
    let report = run(&db, &process, &bench);
    let closer = process.spawn_thread("closer");
    db.shutdown(&closer)?;
    let trace = session.stop();

    println!(
        "\nbenchmark: {} ops at {:.0} ops/s; client p99 = {:.2} ms (p50 = {:.3} ms)",
        report.ops,
        report.throughput_ops_sec(),
        report.overall.percentile(99.0) as f64 / 1e6,
        report.overall.percentile(50.0) as f64 / 1e6,
    );
    println!(
        "trace: {} events, {} dropped ({:.2}%)",
        trace.trace.events_stored,
        trace.trace.events_dropped,
        trace.trace.drop_rate() * 100.0
    );

    let index = dio.session_index("rocksdb").expect("session stored");
    println!("\n{}", dashboards::syscalls_over_time(Query::MatchAll, 250_000_000).render(&index));

    let engine =
        diagnose_index(&index, DiagnoseConfig::default().window_ns(250_000_000), Vec::new());
    let skews: Vec<_> =
        engine.alerts().into_iter().filter(|a| a.kind == AlertKind::ContentionSkew).collect();
    for skew in &skews {
        let start = skew.window_start_ns.unwrap_or(0);
        println!("root cause: window at {start} ns — {}", skew.message);
    }
    if skews.is_empty() {
        println!("no contention signature in this run — try a slower disk or more ops");
    }
    Ok(())
}
