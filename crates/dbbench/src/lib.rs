#![warn(missing_docs)]

//! `db_bench`-style benchmarking for the LSM store.
//!
//! Implements the measurement side of the paper's RocksDB experiment
//! (§III-C): YCSB core workload mixes with zipfian key selection
//! ([`YcsbWorkload`], [`KeyGenerator`]), a closed-loop multi-threaded
//! driver whose clients appear in traces as `db_bench` ([`run`]), and
//! per-window latency percentiles through `dio-telemetry`'s log-bucketed
//! histogram — the data behind the Fig. 3 tail-latency series
//! ([`WindowedLatency`]).

mod driver;
mod histogram;
mod workload;

pub use driver::{load_phase, run, BenchConfig, BenchReport};
pub use histogram::{WindowSummary, WindowedLatency};
pub use workload::{KeyDistribution, KeyGenerator, Operation, ValueGenerator, YcsbWorkload};
