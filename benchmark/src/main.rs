//! Full-pipeline benchmark of the DIO reproduction. See `README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload paced_mem --seed 1 --seconds 5 --trace 0
//! ```
//!
//! The last line of standard output is the result object the benchmark
//! contract asks for; `BENCHMARK.json` at the repository root is the single
//! list of workload and metric names, units and regression bounds, and is
//! compiled into this binary.

mod alloc;
mod history;
mod ingest;
mod proc;
mod query;
mod spans;
mod stats;
mod stream;
mod walk;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use serde_json::{json, Value};

use ingest::{Workload, WORKLOADS};
use spans::Recorder;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const MANIFEST: &str = include_str!("../../BENCHMARK.json");

const USAGE: &str = "usage: pipeline-bench [--workload <name>] [--seed <u64>] [--seconds <n>] \
[--trace <0|1>] [--selfcheck]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: None, seed: 1, seconds: None, trace: false, selfcheck: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|_| format!("{flag}: not a number: {v}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = Some(number(value()?)?.clamp(1, 60)),
            "--trace" => args.trace = number(value()?)? != 0,
            "--selfcheck" => args.selfcheck = true,
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Where runs leave their by-products (git-ignored): persisted stores while
/// a run lasts, Chrome traces, the history and its rendering.
fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Runs one workload, prints its metrics and returns the result object.
fn run_workload(w: &Workload, seed: u64, seconds: u64, trace: bool, manifest: &Value) -> Value {
    let started = Instant::now();
    let scratch = results_dir().join(format!("tmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("create scratch directory");
    let mut rec = Recorder::new(trace);

    let ingested = ingest::run(w, seed, seconds, &scratch, &mut rec);
    let mut metrics = ingested.metrics;
    let mut failures = ingested.failures;
    let attempted = ingested.tally.events;
    let lost = attempted.saturating_sub(ingested.stored);

    // First answer after the session, and the heap the session occupies
    // once it has answered. On `query_cold` the store is closed and reopened
    // first: the answer waits for segment replay too, and the heap that
    // counts is the reopened store's.
    let (warm, mut heap) = if w.cold {
        drop(ingested.backend);
        (None, 0)
    } else {
        (Some(ingested.backend), ingested.heap_growth)
    };
    let live_before = alloc::live_bytes();
    rec.begin("first_query");
    let ((backend, index), took) = proc::timed(|| {
        let backend = warm.unwrap_or_else(|| {
            let dir = ingested.dir.as_deref().expect("a cold workload persists");
            rec.scope("reopen", || query::reopen(dir))
        });
        let index = backend.index(&ingested.index_name);
        query::first_query(&index);
        (backend, index)
    });
    rec.end();
    heap += alloc::live_bytes() - live_before;
    metrics.insert("backend.first_query_ms", took.cpu_ms);
    metrics.insert("backend.first_query_wall_ms", took.wall_ms);
    let events = attempted as f64;
    metrics.insert("backend.heap_bytes_per_event", heap as f64 / events);
    metrics.insert("backend.storage.disk_bytes_per_event", ingested.disk_bytes as f64 / events);
    metrics
        .insert("footprint_bytes_per_event", (heap as f64 + ingested.disk_bytes as f64) / events);

    metrics.extend(query::pass(&index, &ingested.tally, seed, &mut rec, &mut failures));
    if let Some(live_ms) = ingested.live_top_ms {
        // On `live_top` the screen a user waits for is the live one.
        metrics.insert("viz.top_ms", live_ms);
    }

    // A persisted session must survive a close and reopen intact,
    // correlation's rewrites included.
    drop(index);
    if let Some(dir) = &ingested.dir {
        backend.flush().expect("flush store");
        drop(backend);
        let reopened = query::reopen(dir);
        query::check_against_tally(
            &reopened.index(&ingested.index_name),
            &ingested.tally,
            &mut failures,
        );
    }

    if trace {
        metrics.extend(walk::run(seed, &scratch, &mut rec));
        let traced_ns = rec.now_ns() as f64;
        let overhead = rec.len() as f64 * Recorder::cost_per_span_ns() / traced_ns * 100.0;
        metrics.insert("bench.trace_overhead_pct", overhead);
        let path = results_dir().join(format!("trace-{}.json", w.name));
        std::fs::write(&path, rec.to_chrome_trace().to_string()).expect("write trace");
        println!("# {} spans written to {}", rec.len(), path.display());
    }
    let _ = std::fs::remove_dir_all(&scratch);

    for failure in &failures {
        println!("# FAILED {}: {failure}", w.name);
    }
    println!(
        "# {} seed {seed} {seconds} s ({:.1} s wall)",
        w.name,
        started.elapsed().as_secs_f64()
    );
    // Prints a section of the manifest; returns it as the result's metrics.
    let mut print_section = |section: &str| {
        let mut reported = serde_json::Map::new();
        for spec in manifest[section].as_array().expect("manifest metric list") {
            let (name, unit) =
                (spec["name"].as_str().expect("name"), spec["unit"].as_str().expect("unit"));
            match metrics.get(name) {
                Some(value) => {
                    println!("{name:<40} {value:>16.4} {unit}");
                    reported.insert(name.into(), json!({ "value": *value, "unit": unit }));
                }
                // Absent, never zero: e.g. CPU metrics without schedstat.
                None => {
                    println!("{name:<40} {:>16} {unit}", "absent");
                    failures.push(format!("metric {name} could not be measured"));
                }
            }
        }
        reported
    };
    // A traced run prints the end-to-end metrics too, so the two passes can
    // be laid side by side; its result object holds the per-layer ones.
    let mut reported = print_section("end_to_end");
    if trace {
        reported = print_section("per_layer");
    }
    let failed = lost + failures.len() as u64;
    println!("{:<40} {attempted:>16} count", "ops_attempted");
    println!("{:<40} {failed:>16} count", "ops_failed");
    json!({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed.min(attempted),
        "metrics": reported,
    })
}

/// Fixes glibc's malloc thresholds. Left alone they adapt to the sizes freed
/// so far, and whether the tracer's ring (tens of MiB) lands on fresh zero
/// pages or on recycled heap then differs from one set-up to the next:
/// `setup_s` read 7 ms or 28 ms at random. With blocks of 8 MiB and more
/// always mapped afresh, every set-up pays the page faults a fresh process
/// would; with the heap keeping up to 64 MiB of freed memory, the query
/// side's large temporaries reuse warm pages, as they do in a long-lived
/// process once the thresholds have adapted.
#[cfg(target_env = "gnu")]
fn pin_malloc_policy() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only stores a tunable; it runs before any other
    // thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 8 << 20);
        mallopt(M_TRIM_THRESHOLD, 64 << 20);
    }
}

#[cfg(not(target_env = "gnu"))]
fn pin_malloc_policy() {}

fn main() -> ExitCode {
    pin_malloc_policy();
    // Flight-recorder dumps the pipeline writes on an alert land with the
    // benchmark's other by-products, not in the working directory.
    std::env::set_var("DIO_RESULTS_DIR", results_dir());
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let manifest: Value = serde_json::from_str(MANIFEST).expect("BENCHMARK.json parses");
    if args.selfcheck {
        return history::selfcheck(&manifest, args.seed);
    }
    let run_seconds = manifest["run_seconds"].as_u64().expect("run_seconds");
    let seconds = args.seconds.unwrap_or(run_seconds);
    if seconds != run_seconds {
        println!("# a {seconds} s trial is not comparable with the {run_seconds} s runs on record");
    }
    let selected: Vec<&Workload> = match &args.workload {
        Some(name) => match WORKLOADS.iter().find(|w| w.name == name) {
            Some(w) => vec![w],
            None => {
                eprintln!("unknown workload {name}; known: {:?}", WORKLOADS.map(|w| w.name));
                return ExitCode::from(2);
            }
        },
        None => WORKLOADS.iter().collect(),
    };
    let mut all_correct = true;
    let mut measured: BTreeMap<String, Value> = BTreeMap::new();
    for w in &selected {
        let result = run_workload(w, args.seed, seconds, args.trace, &manifest);
        all_correct &= result["correct"] == true;
        history::append(w.name, args.seed, seconds, args.trace, &result);
        measured.insert(w.name.to_string(), result);
    }
    // The contract's result line: one workload's object when one was asked
    // for, an object keyed by workload otherwise.
    match &args.workload {
        Some(name) => println!("{}", measured[name]),
        None => println!("{}", json!(measured)),
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
