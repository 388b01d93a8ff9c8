//! The shared RocksDB-style workload run (the §III-C testbed), with
//! pluggable tracing setups for the Table II comparison.

use std::sync::Arc;

use dio_backend::DocStore;
use dio_baselines::{StraceConfig, StraceTracer, SysdigConfig, SysdigTracer};
use dio_dbbench::{load_phase, run, BenchConfig, BenchReport, KeyDistribution, YcsbWorkload};
use dio_diagnose::DiagnoseConfig;
use dio_kernel::{DiskProfile, Kernel, SyscallProbe};
use dio_lsmkv::{Db, DbStats, LsmOptions};
use dio_syscall::SyscallKind;
use dio_tracer::{TraceSummary, Tracer, TracerConfig};

/// Which tracer observes the run (the Table II columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracingSetup {
    /// No tracer attached.
    Vanilla,
    /// The Sysdig-like baseline.
    Sysdig,
    /// DIO with the paper's Fig. 4 configuration.
    Dio,
    /// The strace-like baseline.
    Strace,
}

impl TracingSetup {
    /// Column label.
    pub fn name(self) -> &'static str {
        match self {
            TracingSetup::Vanilla => "vanilla",
            TracingSetup::Sysdig => "sysdig",
            TracingSetup::Dio => "DIO",
            TracingSetup::Strace => "strace",
        }
    }

    /// All four setups in Table II order.
    pub const ALL: [TracingSetup; 4] =
        [TracingSetup::Vanilla, TracingSetup::Sysdig, TracingSetup::Dio, TracingSetup::Strace];
}

/// Calibrated in-kernel per-event costs (see DESIGN.md §6 "Overhead
/// model"). These stand in for the parts of each tracer's real cost that
/// an in-process simulation does not naturally pay (eBPF program
/// execution, perf-buffer copies, ptrace traps).
pub mod costs {
    fn env_or(name: &str, default: u64) -> u64 {
        std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// DIO eBPF program: argument copy + map update at `sys_enter`.
    pub fn dio_enter_ns() -> u64 {
        env_or("DIO_COST_ENTER_NS", 1_200)
    }

    /// DIO eBPF program: enrichment + event assembly + ring push at exit.
    pub fn dio_exit_ns() -> u64 {
        env_or("DIO_COST_EXIT_NS", 3_000)
    }

    /// Sysdig's slimmer probe.
    pub fn sysdig_probe_ns() -> u64 {
        env_or("DIO_COST_SYSDIG_NS", 500)
    }

    /// One ptrace stop (2 context switches + tracer dispatch).
    pub fn strace_stop_ns() -> u64 {
        env_or("DIO_COST_STRACE_NS", 12_000)
    }
}

/// Workload scale parameters.
#[derive(Debug, Clone)]
pub struct RocksdbRunConfig {
    /// Records loaded before measurement.
    pub records: u64,
    /// Measured operations per client thread.
    pub ops_per_thread: u64,
    /// Value size (YCSB default-ish).
    pub value_size: usize,
    /// Closed-loop client threads (paper: 8).
    pub client_threads: usize,
    /// Compaction threads (paper: 7) — plus 1 flush thread.
    pub compaction_threads: usize,
    /// Latency window width (Fig. 3 granularity).
    pub window_ns: u64,
    /// RNG seed.
    pub seed: u64,
    /// Attach the live diagnosis engine to the DIO tracer (streaming
    /// contention/rate detectors windowed at `window_ns`).
    pub diagnose: bool,
    /// Attach the streaming DFG profiler to the DIO tracer; combined
    /// with `diagnose`, alerts gain critical-edge attribution blocks.
    pub profile: bool,
}

impl Default for RocksdbRunConfig {
    fn default() -> Self {
        RocksdbRunConfig {
            records: 20_000,
            ops_per_thread: 12_000,
            value_size: 400,
            client_threads: 8,
            compaction_threads: 7,
            window_ns: 250_000_000,
            seed: 42,
            diagnose: false,
            profile: false,
        }
    }
}

impl RocksdbRunConfig {
    /// A tiny configuration for smoke tests.
    pub fn smoke() -> Self {
        RocksdbRunConfig { records: 300, ops_per_thread: 120, ..Default::default() }
    }

    /// The shared `params` block of a machine-readable result document.
    /// Every RocksDB-workload binary embeds this so a parameter lives
    /// under the same key in every `results/*.json` file; binaries append
    /// their extra knobs to the returned object.
    pub fn params_json(&self) -> serde_json::Value {
        serde_json::json!({
            "workload": "rocksdb_ycsb_a",
            "records": self.records,
            "ops_per_thread": self.ops_per_thread,
            "value_size": self.value_size,
            "client_threads": self.client_threads,
            "compaction_threads": self.compaction_threads,
            "window_ns": self.window_ns,
            "seed": self.seed,
            "diagnose": self.diagnose,
            "profile": self.profile,
        })
    }
}

/// The scaled equivalent of the paper's NVMe dataset disk: bandwidth is
/// shrunk with the dataset so compaction bursts still dominate the FCFS
/// channel and create the Fig. 3 latency spikes.
pub fn contended_disk() -> DiskProfile {
    DiskProfile {
        read_bw_bps: 192 * 1024 * 1024,
        write_bw_bps: 96 * 1024 * 1024,
        base_latency_ns: 15_000,
        flush_latency_ns: 60_000,
    }
}

/// Everything one run produces.
pub struct RocksdbRunResult {
    /// Which setup ran.
    pub setup: TracingSetup,
    /// Benchmark measurements (ops, latency windows).
    pub report: BenchReport,
    /// Store-side counters (flushes, compactions, stalls).
    pub db_stats: DbStats,
    /// Total syscalls the kernel executed during the measured phase.
    pub syscalls: u64,
    /// DIO session outputs (events, drops, backend), when setup is DIO.
    pub dio: Option<(TraceSummary, DocStore)>,
    /// Sysdig unresolved-path rate, when setup is Sysdig.
    pub sysdig_unresolved: Option<f64>,
}

/// Runs load + measured phase of the YCSB-A workload under one tracing
/// setup, on a fresh kernel.
pub fn run_rocksdb(setup: TracingSetup, config: &RocksdbRunConfig) -> RocksdbRunResult {
    let kernel = Kernel::builder().num_cpus(4).root_disk(contended_disk()).build();
    let process = kernel.spawn_process("db_bench");
    let opts = LsmOptions {
        compaction_threads: config.compaction_threads,
        ..LsmOptions::benchmark_profile("/db")
    };
    let db = Arc::new(Db::open(&process, opts).expect("open store"));

    let bench = BenchConfig {
        workload: YcsbWorkload::A,
        client_threads: config.client_threads,
        records: config.records,
        value_size: config.value_size,
        ops_per_thread: config.ops_per_thread,
        max_duration: None,
        window_ns: config.window_ns,
        key_dist: KeyDistribution::Zipfian { theta: 0.99 },
        seed: config.seed,
        scan_limit: 50,
    };
    // Load phase is never traced (the paper pre-loads the dataset), and
    // the store is shut down afterwards so the traced run re-opens every
    // file *under* the tracer — as when RocksDB starts under DIO.
    load_phase(&db, &process, &bench, 4).expect("load phase");
    let loader = process.spawn_thread("db_bench_load");
    db.shutdown(&loader).expect("settle after load");
    drop(db);

    // Attach the tracer for the measured phase.
    let mut dio_tracer = None;
    let mut sysdig_tracer = None;
    let mut strace_probe_id = None;
    let backend = DocStore::new();
    match setup {
        TracingSetup::Vanilla => {}
        TracingSetup::Dio => {
            // "we configured DIO's tracer to capture exclusively open,
            // read, write, and close syscalls" (§III-C) — plus their
            // positional variants, which our store uses.
            // The paper provisions 256 MiB/CPU of ring buffer; the scaled
            // run needs far fewer slots (events are in-memory structs, and
            // preallocating half a million slots per CPU would swamp the
            // 1-CPU harness). 16 MiB/CPU keeps the same no-drop regime.
            let mut tracer_config = TracerConfig::new("rocksdb")
                .syscalls(data_path_syscalls())
                .ring(dio_ebpf::RingConfig::with_bytes_per_cpu(16 * 1024 * 1024))
                .kernel_costs(costs::dio_enter_ns(), costs::dio_exit_ns());
            if config.diagnose {
                // Run the shipped rules at the same window width Fig. 3
                // uses for its latency plot; the contention rule's text
                // already names this workload's threads (db_bench clients,
                // rocksdb:low compactors).
                tracer_config =
                    tracer_config.diagnose(DiagnoseConfig::default().window_ns(config.window_ns));
            }
            if config.profile {
                tracer_config = tracer_config.profile(dio_profile::ProfileConfig::default());
            }
            dio_tracer = Some(Tracer::attach(tracer_config, &kernel, backend.clone()));
        }
        TracingSetup::Sysdig => {
            let tracer = SysdigTracer::new(
                SysdigConfig { probe_cost_ns: costs::sysdig_probe_ns(), ..Default::default() },
                kernel.num_cpus(),
            );
            strace_probe_id =
                Some(kernel.tracepoints().attach(Arc::clone(&tracer) as Arc<dyn SyscallProbe>));
            sysdig_tracer = Some(tracer);
        }
        TracingSetup::Strace => {
            let tracer = StraceTracer::new(StraceConfig {
                stop_cost_ns: costs::strace_stop_ns(),
                record_lines: false,
            });
            strace_probe_id =
                Some(kernel.tracepoints().attach(Arc::clone(&tracer) as Arc<dyn SyscallProbe>));
        }
    }

    let db = Arc::new(
        Db::open(
            &process,
            LsmOptions {
                compaction_threads: config.compaction_threads,
                ..LsmOptions::benchmark_profile("/db")
            },
        )
        .expect("re-open store under tracer"),
    );
    if let Some(tracer) = &dio_tracer {
        // The store's flush/compaction/stall counters join the session's
        // self-telemetry (lsmkv.* metrics in the health index).
        db.bind_telemetry(tracer.registry());
    }
    let syscalls_before = kernel.syscalls_executed();
    let report = run(&db, &process, &bench);
    let syscalls = kernel.syscalls_executed() - syscalls_before;

    // Tear down.
    let closer = process.spawn_thread("closer");
    db.shutdown(&closer).expect("shutdown store");
    if let Some(id) = strace_probe_id {
        kernel.tracepoints().detach(id);
    }
    let dio = dio_tracer.map(|t| (t.stop(), backend.clone()));
    let sysdig_unresolved = sysdig_tracer.map(|t| t.unresolved_path_rate());

    RocksdbRunResult { setup, report, db_stats: db.stats(), syscalls, dio, sysdig_unresolved }
}

/// The syscall set DIO traces in the §III-C experiment.
pub fn data_path_syscalls() -> Vec<SyscallKind> {
    vec![
        SyscallKind::Open,
        SyscallKind::Openat,
        SyscallKind::Creat,
        SyscallKind::Read,
        SyscallKind::Pread64,
        SyscallKind::Write,
        SyscallKind::Pwrite64,
        SyscallKind::Close,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vanilla_smoke_run_completes() {
        let result = run_rocksdb(TracingSetup::Vanilla, &RocksdbRunConfig::smoke());
        assert_eq!(result.report.ops, 8 * 120);
        assert_eq!(result.report.errors, 0);
        assert!(result.syscalls > 0);
        assert!(result.dio.is_none());
    }

    #[test]
    fn dio_smoke_run_stores_events() {
        let result = run_rocksdb(TracingSetup::Dio, &RocksdbRunConfig::smoke());
        let (summary, backend) = result.dio.expect("dio outputs");
        assert!(summary.events_stored > 0);
        let idx = backend.index("dio-rocksdb");
        assert_eq!(idx.len() as u64, summary.events_stored);
        // Only the configured syscalls are present.
        let kinds = idx.search(
            &dio_backend::SearchRequest::match_all()
                .size(0)
                .agg("k", dio_backend::Aggregation::terms("syscall", 50)),
        );
        for bucket in kinds.aggs["k"].buckets() {
            let name = bucket.key.as_str().unwrap();
            assert!(
                ["open", "openat", "creat", "read", "pread64", "write", "pwrite64", "close"]
                    .contains(&name),
                "unexpected syscall {name}"
            );
        }
    }
}
