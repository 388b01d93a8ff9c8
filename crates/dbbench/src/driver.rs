//! The closed-loop benchmark driver (the `db_bench` stand-in).
//!
//! Spawns N client threads named `db_bench` — the thread name the paper's
//! Fig. 4 groups client syscalls under — each issuing one operation at a
//! time against the store and recording its latency on the simulated
//! clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use dio_kernel::{Process, SysResult};
use dio_lsmkv::Db;
use dio_telemetry::LogHistogram;

use crate::histogram::WindowedLatency;
use crate::workload::{KeyDistribution, KeyGenerator, Operation, ValueGenerator, YcsbWorkload};

/// Configuration of one benchmark run.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// The operation mix.
    pub workload: YcsbWorkload,
    /// Closed-loop client threads (the paper uses 8).
    pub client_threads: usize,
    /// Records loaded before the run / addressed during it.
    pub records: u64,
    /// Value size in bytes.
    pub value_size: usize,
    /// Operations per client thread.
    pub ops_per_thread: u64,
    /// Optional wall-clock cap for the measured phase.
    pub max_duration: Option<Duration>,
    /// Window width for the latency time series (Fig. 3 granularity).
    pub window_ns: u64,
    /// Key distribution.
    pub key_dist: KeyDistribution,
    /// RNG seed.
    pub seed: u64,
    /// Entries per scan for workload E.
    pub scan_limit: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            workload: YcsbWorkload::A,
            client_threads: 8,
            records: 10_000,
            value_size: 400,
            ops_per_thread: 1_000,
            max_duration: None,
            window_ns: 1_000_000_000,
            key_dist: KeyDistribution::Zipfian { theta: 0.99 },
            seed: 42,
            scan_limit: 50,
        }
    }
}

/// Result of a benchmark run.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Operations completed.
    pub ops: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// Wall-clock duration of the measured phase (simulated ns).
    pub elapsed_ns: u64,
    /// All latencies collapsed.
    pub overall: LogHistogram<5>,
    /// Latencies bucketed by time window (drives the Fig. 3 series).
    pub windowed: WindowedLatency,
}

impl BenchReport {
    /// Throughput in operations per second.
    pub fn throughput_ops_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.ops as f64 * 1e9 / self.elapsed_ns as f64
        }
    }
}

/// Loads the initial `records` dataset, splitting the keyspace across
/// `threads` loader threads.
///
/// # Errors
///
/// Propagates kernel errors from the store.
pub fn load_phase(
    db: &Arc<Db>,
    process: &Process,
    config: &BenchConfig,
    threads: usize,
) -> SysResult<()> {
    let threads = threads.max(1);
    let per = config.records.div_ceil(threads as u64);
    let mut handles = Vec::new();
    for t in 0..threads {
        let db = Arc::clone(db);
        let ctx = process.spawn_thread("db_bench_load");
        let start = per * t as u64;
        let end = (start + per).min(config.records);
        let value_size = config.value_size;
        let seed = config.seed + t as u64;
        handles.push(std::thread::spawn(move || -> SysResult<()> {
            let mut values = ValueGenerator::new(value_size, seed);
            for i in start..end {
                db.put(&ctx, &KeyGenerator::key_for(i), &values.next_value())?;
            }
            Ok(())
        }));
    }
    for h in handles {
        h.join().expect("loader thread panicked")?;
    }
    Ok(())
}

/// Runs the measured phase: `client_threads` closed-loop clients issuing
/// `ops_per_thread` operations each.
pub fn run(db: &Arc<Db>, process: &Process, config: &BenchConfig) -> BenchReport {
    let clock = {
        let probe = process.spawn_thread("db_bench_clock");
        probe.kernel().clock().clone()
    };
    let started_ns = clock.now_ns();
    let deadline_ns = config.max_duration.map(|d| started_ns + d.as_nanos() as u64);
    let next_insert = Arc::new(AtomicU64::new(config.records));
    let errors = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    for t in 0..config.client_threads {
        let db = Arc::clone(db);
        let ctx = process.spawn_thread("db_bench");
        let config = config.clone();
        let next_insert = Arc::clone(&next_insert);
        let errors = Arc::clone(&errors);
        let clock = clock.clone();
        handles.push(std::thread::spawn(move || {
            let mut keys = KeyGenerator::new(
                config.records,
                config.key_dist.clone(),
                config.seed + 100 + t as u64,
            );
            let mut values = ValueGenerator::new(config.value_size, config.seed + 200 + t as u64);
            let mut op_rng = SmallRng::seed_from_u64(config.seed + 300 + t as u64);
            let mut recorder = WindowedLatency::new(config.window_ns);
            let mut ops = 0u64;
            let mut buf = Vec::new();
            while ops < config.ops_per_thread {
                if let Some(deadline) = deadline_ns {
                    if clock.now_ns() >= deadline {
                        break;
                    }
                }
                let op = config.workload.next_op(&mut op_rng);
                let t0 = clock.now_ns();
                let result: SysResult<()> = match op {
                    Operation::Read => db.get(&ctx, &keys.next_key()).map(|v| {
                        buf.clear();
                        if let Some(v) = v {
                            buf.extend_from_slice(&v);
                        }
                    }),
                    Operation::Update => db.put(&ctx, &keys.next_key(), &values.next_value()),
                    Operation::Insert => {
                        let id = next_insert.fetch_add(1, Ordering::Relaxed);
                        db.put(&ctx, &KeyGenerator::key_for(id), &values.next_value())
                    }
                    Operation::Scan => {
                        db.scan(&ctx, &keys.next_key(), config.scan_limit).map(|_| ())
                    }
                    Operation::ReadModifyWrite => {
                        let key = keys.next_key();
                        db.get(&ctx, &key).and_then(|_| db.put(&ctx, &key, &values.next_value()))
                    }
                };
                let t1 = clock.now_ns();
                recorder.record(t0, t1 - t0);
                if result.is_err() {
                    errors.fetch_add(1, Ordering::Relaxed);
                }
                ops += 1;
            }
            (ops, recorder)
        }));
    }

    let mut total_ops = 0u64;
    let mut windowed = WindowedLatency::new(config.window_ns);
    for h in handles {
        let (ops, recorder) = h.join().expect("client thread panicked");
        total_ops += ops;
        windowed.merge(&recorder);
    }
    BenchReport {
        ops: total_ops,
        errors: errors.load(Ordering::Relaxed),
        elapsed_ns: clock.now_ns() - started_ns,
        overall: windowed.overall(),
        windowed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dio_kernel::{DiskProfile, Kernel};
    use dio_lsmkv::LsmOptions;

    fn setup() -> (Kernel, Process, Arc<Db>) {
        let kernel = Kernel::builder().root_disk(DiskProfile::instant()).build();
        let process = kernel.spawn_process("db_bench");
        let db = Arc::new(Db::open(&process, LsmOptions::new("/db")).unwrap());
        (kernel, process, db)
    }

    #[test]
    fn load_then_read_only_run() {
        let (_k, process, db) = setup();
        let config = BenchConfig {
            workload: YcsbWorkload::C,
            client_threads: 2,
            records: 500,
            value_size: 64,
            ops_per_thread: 200,
            ..Default::default()
        };
        load_phase(&db, &process, &config, 2).unwrap();
        let report = run(&db, &process, &config);
        assert_eq!(report.ops, 400);
        assert_eq!(report.errors, 0);
        assert!(report.throughput_ops_sec() > 0.0);
        assert_eq!(report.overall.count(), 400);
        let client = process.spawn_thread("check");
        db.shutdown(&client).unwrap();
    }

    #[test]
    fn ycsb_a_mixed_run_produces_windows() {
        let (_k, process, db) = setup();
        let config = BenchConfig {
            client_threads: 4,
            records: 300,
            value_size: 100,
            ops_per_thread: 250,
            window_ns: 1_000_000, // 1 ms windows
            ..Default::default()
        };
        load_phase(&db, &process, &config, 1).unwrap();
        let report = run(&db, &process, &config);
        assert_eq!(report.ops, 1_000);
        let summaries = report.windowed.summaries();
        assert!(!summaries.is_empty());
        assert_eq!(summaries.iter().map(|w| w.count).sum::<u64>(), 1_000);
        // p99 >= p50 in every window.
        for w in &summaries {
            assert!(w.p99_ns >= w.p50_ns);
        }
        let client = process.spawn_thread("check");
        db.shutdown(&client).unwrap();
    }

    #[test]
    fn inserts_extend_the_keyspace() {
        let (_k, process, db) = setup();
        let config = BenchConfig {
            workload: YcsbWorkload::D,
            client_threads: 2,
            records: 100,
            value_size: 32,
            ops_per_thread: 200,
            ..Default::default()
        };
        load_phase(&db, &process, &config, 1).unwrap();
        let report = run(&db, &process, &config);
        assert_eq!(report.errors, 0);
        // Some inserts landed beyond the initial keyspace.
        let client = process.spawn_thread("check");
        let found =
            (100..120u64).any(|i| db.get(&client, &KeyGenerator::key_for(i)).unwrap().is_some());
        assert!(found, "YCSB-D inserts new records");
        db.shutdown(&client).unwrap();
    }

    #[test]
    fn scan_workload_runs() {
        let (_k, process, db) = setup();
        let config = BenchConfig {
            workload: YcsbWorkload::E,
            client_threads: 1,
            records: 200,
            value_size: 32,
            ops_per_thread: 50,
            scan_limit: 10,
            ..Default::default()
        };
        load_phase(&db, &process, &config, 1).unwrap();
        let report = run(&db, &process, &config);
        assert_eq!(report.ops, 50);
        assert_eq!(report.errors, 0);
        let client = process.spawn_thread("check");
        db.shutdown(&client).unwrap();
    }

    #[test]
    fn duration_cap_stops_early() {
        let (_k, process, db) = setup();
        let config = BenchConfig {
            client_threads: 2,
            records: 100,
            value_size: 32,
            ops_per_thread: u64::MAX / 2,
            max_duration: Some(Duration::from_millis(50)),
            ..Default::default()
        };
        load_phase(&db, &process, &config, 1).unwrap();
        let report = run(&db, &process, &config);
        assert!(report.ops > 0);
        assert!(report.elapsed_ns < 5_000_000_000, "must stop near the 50 ms cap");
        let client = process.spawn_thread("check");
        db.shutdown(&client).unwrap();
    }
}
