//! The paced ingest half of a run: set-up, a discarded warm-up trial, and
//! one measured trial in which an open-loop generator drives a vanilla
//! kernel and a traced kernel in lockstep.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dio_backend::{DocStore, Index, StorageConfig};
use dio_diagnose::DiagnoseConfig;
use dio_ebpf::RingConfig;
use dio_kernel::{DiskProfile, Kernel};
use dio_profile::ProfileConfig;
use dio_tracer::{Tracer, TracerConfig};
use dio_viz::{render_top, TopOptions};

use crate::alloc;
use crate::proc::{cpu_between, pipeline_threads, timed, ROLES};
use crate::spans::Recorder;
use crate::stats::{median, ns_to_f64, quantile};
use crate::stream::{Stream, Tally};

/// Open loop: one group of syscalls is due every tick, whatever the
/// pipeline does. 100 syscalls / 10 ms = 10 000 events/s — the paper's
/// 29 k/s on 4 cores scaled to a shared 2-core box.
pub const TICK: Duration = Duration::from_millis(10);
pub const GROUP: usize = 100;
/// How often the generator looks at `Tracer::events_stored()` between
/// groups; the resolution of the stored-lag metrics.
const POLL: Duration = Duration::from_millis(1);
/// No ring drops are expected at 10 k events/s with 32 MiB per CPU, and the
/// ring's allocation stays inside `setup_s`.
const RING_BYTES_PER_CPU: u64 = 32 << 20;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 7;
const WARMUP_GROUPS: usize = 100;
/// Untimed syscalls run at each wake-up before the timed groups.
const WAKE: usize = 20;
/// Refresh interval of the live `dio top` client.
const REFRESH: Duration = Duration::from_millis(250);

pub struct Workload {
    pub name: &'static str,
    /// Persist through `DocStore::open_with(dir, StorageConfig::default())`
    /// (8 shards, `sync_every_batch = false`, `auto_compact = true`).
    pub persist: bool,
    /// Diagnosis engine, shipped rules and DFG profiler on the consumer.
    pub taps: bool,
    /// A second thread renders `dio top` against the live index.
    pub live_top: bool,
    /// Close and reopen the store before the query pass.
    pub cold: bool,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload { name: "paced_mem", persist: false, taps: false, live_top: false, cold: false },
    Workload { name: "paced_persist", persist: true, taps: false, live_top: false, cold: false },
    Workload { name: "paced_taps", persist: false, taps: true, live_top: false, cold: false },
    Workload { name: "query_cold", persist: true, taps: false, live_top: false, cold: true },
    Workload { name: "live_top", persist: false, taps: false, live_top: true, cold: false },
];

/// A deployed pipeline: traced kernel, its syscall stream, backend, tracer.
pub struct Pipeline {
    pub stream: Stream,
    pub backend: DocStore,
    pub tracer: Tracer,
    pub index_name: String,
    pub dir: Option<PathBuf>,
    /// Live heap after the kernel was built, before backend and tracer.
    live_before_backend: i64,
    _kernel: Kernel,
}

pub fn fresh_kernel() -> Kernel {
    Kernel::builder().root_disk(DiskProfile::instant()).build()
}

/// Kernel build + backend open + `Tracer::attach`: what `setup_s` times.
fn setup(w: &Workload, seed: u64, scratch: &Path, serial: &mut u32) -> Pipeline {
    *serial += 1;
    let session = format!("bench{serial}");
    let kernel = fresh_kernel();
    let stream = Stream::new(&kernel, seed);
    let live_before_backend = alloc::live_bytes();
    let dir = w.persist.then(|| scratch.join(format!("store-{serial}")));
    let backend = match &dir {
        Some(dir) => DocStore::open_with(dir, StorageConfig::default()).expect("open store"),
        None => DocStore::new(),
    };
    let mut config =
        TracerConfig::new(&session).ring(RingConfig::with_bytes_per_cpu(RING_BYTES_PER_CPU));
    if w.taps {
        config = config
            .diagnose(DiagnoseConfig::default())
            .shipped_rules()
            .profile(ProfileConfig::default());
    }
    let index_name = config.index_name();
    let tracer = Tracer::attach(config, &kernel, backend.clone());
    Pipeline { stream, backend, tracer, index_name, dir, live_before_backend, _kernel: kernel }
}

fn teardown(p: Pipeline) {
    p.tracer.stop();
    drop(p.backend);
    if let Some(dir) = p.dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Generator-side clocks of one paced trial.
#[derive(Default)]
struct Paced {
    vanilla_ns: Vec<u64>,
    traced_ns: Vec<u64>,
    late_ns: Vec<u64>,
    lag_ns: Vec<u64>,
    /// Groups whose events were never seen stored before the deadline.
    lost_groups: usize,
}

impl Paced {
    /// Traced group time over vanilla group time. Each group gives one
    /// ratio of two times taken microseconds apart, which cancels what the
    /// machine was doing at that moment; whichever kernel runs first in a
    /// group is a little slower, so the median ratio is taken per order and
    /// the two are combined by their geometric mean, which cancels that.
    fn overhead(&self) -> f64 {
        let ratio_when = |vanilla_first: bool| {
            let ratios: Vec<f64> = (0..self.traced_ns.len())
                .filter(|g| (g % 2 == 0) == vanilla_first)
                .map(|g| self.traced_ns[g] as f64 / self.vanilla_ns[g] as f64)
                .collect();
            median(&ratios)
        };
        (ratio_when(true) * ratio_when(false)).sqrt()
    }
}

/// Drives `groups` groups, each timed from when it was due. After a few
/// untimed syscalls on a third kernel (the generator has just slept, and the
/// first code to run pays for the cold core), the vanilla and the traced
/// kernel get the identical group back to back, in alternating order.
fn paced(
    p: &mut Pipeline,
    vanilla: &mut Stream,
    wake: &mut Stream,
    groups: usize,
    rec: &mut Recorder,
) -> Paced {
    let mut out = Paced::default();
    let mut pending: VecDeque<(Instant, u64)> = VecDeque::new();
    let start = Instant::now();
    let resolve = |pending: &mut VecDeque<(Instant, u64)>, lag_ns: &mut Vec<u64>| {
        let stored = p.tracer.events_stored();
        let now = Instant::now();
        while pending.front().is_some_and(|&(_, upto)| stored >= upto) {
            let (due, _) = pending.pop_front().expect("front checked");
            lag_ns.push((now - due).as_nanos() as u64);
        }
    };
    let first_event = p.stream.tally.events;
    for g in 0..groups {
        let due = start + TICK * g as u32;
        loop {
            resolve(&mut pending, &mut out.lag_ns);
            let now = Instant::now();
            if now >= due {
                out.late_ns.push((now - due).as_nanos() as u64);
                break;
            }
            std::thread::sleep(POLL.min(due - now));
        }
        wake.run(WAKE);
        rec.begin("group");
        let time = |stream: &mut Stream, sink: &mut Vec<u64>| {
            let t = Instant::now();
            stream.run(GROUP);
            sink.push(t.elapsed().as_nanos() as u64);
        };
        if g % 2 == 0 {
            time(vanilla, &mut out.vanilla_ns);
            time(&mut p.stream, &mut out.traced_ns);
        } else {
            time(&mut p.stream, &mut out.traced_ns);
            time(vanilla, &mut out.vanilla_ns);
        }
        rec.end();
        pending.push_back((due, p.stream.tally.events - first_event));
    }
    rec.begin("wait_stored");
    let deadline = Instant::now() + Duration::from_secs(20);
    while !pending.is_empty() && Instant::now() < deadline {
        resolve(&mut pending, &mut out.lag_ns);
        std::thread::sleep(POLL);
    }
    rec.end();
    out.lost_groups = pending.len();
    out
}

/// The live `dio top` client: one screen per 250 ms worth of stored events
/// (every run renders at the same index sizes), while the first three
/// quarters of the session arrive. It leaves the last second before that
/// share is stored without a render, refreshes the index the moment it is
/// stored, and detaches — so the post-session first query finds the same
/// unindexed tail in every run. Returns when each render started and ended,
/// in nanoseconds since `origin`: the wall clock, because what the operator
/// waits for includes the index lock the shipper's bulk writes hold.
fn live_top(
    index: &Index,
    detach_at: usize,
    done: &AtomicBool,
    origin: Instant,
) -> Vec<(u64, u64)> {
    let events_per_s = GROUP * (1000 / TICK.as_millis() as usize);
    let wait_for = |stored: usize| {
        while index.len() < stored && !done.load(Ordering::Acquire) {
            std::thread::sleep(POLL);
        }
    };
    let mut renders = Vec::new();
    let step = events_per_s * REFRESH.as_millis() as usize / 1000;
    for at in (step..=detach_at.saturating_sub(events_per_s)).step_by(step) {
        wait_for(at);
        let start_ns = origin.elapsed().as_nanos() as u64;
        std::hint::black_box(render_top(index, &[], &TopOptions::default()));
        renders.push((start_ns, origin.elapsed().as_nanos() as u64));
    }
    wait_for(detach_at);
    index.refresh();
    renders
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// What the measured trial leaves for the query pass and the checks.
pub struct Ingested {
    pub backend: DocStore,
    pub index_name: String,
    pub dir: Option<PathBuf>,
    pub tally: Tally,
    /// Events the tracer reports stored at the backend.
    pub stored: u64,
    /// Live-heap growth from before the backend was opened to after `stop()`.
    pub heap_growth: i64,
    /// Bytes under the store directory after `stop()`, which flushes.
    pub disk_bytes: u64,
    /// Median wall-clock latency of the live `dio top` renders (`live_top`
    /// only).
    pub live_top_ms: Option<f64>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub failures: Vec<String>,
}

pub fn run(w: &Workload, seed: u64, seconds: u64, scratch: &Path, rec: &mut Recorder) -> Ingested {
    let mut serial = 0;
    let mut setup_s = Vec::new();
    let mut timed_setup = |rec: &mut Recorder, serial: &mut u32| {
        let (p, took) = rec.scope("setup", || timed(|| setup(w, seed, scratch, serial)));
        setup_s.push(took.cpu_ms / 1e3);
        p
    };
    for _ in 2..SETUP_SAMPLES {
        teardown(timed_setup(rec, &mut serial));
    }

    // Warm-up trial, discarded: first-touch page faults on a fresh heap
    // triple the CPU per event of whichever trial runs first.
    rec.trial = 0;
    let mut vanilla = Stream::new(&fresh_kernel(), seed);
    let mut wake = Stream::new(&fresh_kernel(), seed);
    let mut p = timed_setup(rec, &mut serial);
    paced(&mut p, &mut vanilla, &mut wake, WARMUP_GROUPS, rec);
    teardown(p);

    rec.trial = 1;
    let groups = (seconds as usize * 1000 / TICK.as_millis() as usize).max(1);
    let expected_events = groups * GROUP;
    let mut vanilla = Stream::new(&fresh_kernel(), seed);
    let mut p = timed_setup(rec, &mut serial);
    let cpu_before = pipeline_threads();
    let index = p.backend.index(&p.index_name);
    let done = AtomicBool::new(false);
    let origin = rec.origin();
    let (clocks, renders) = std::thread::scope(|scope| {
        let top = w.live_top.then(|| {
            let (index, done) = (&index, &done);
            scope.spawn(move || live_top(index, expected_events * 3 / 4, done, origin))
        });
        let clocks = paced(&mut p, &mut vanilla, &mut wake, groups, rec);
        done.store(true, Ordering::Release);
        (clocks, top.map(|t| t.join().expect("top thread")))
    });
    let cpu = cpu_before.zip(pipeline_threads()).map(|(b, a)| cpu_between(&b, &a));
    let ring = p.tracer.ring_stats();

    rec.begin("stop");
    let t = Instant::now();
    let summary = p.tracer.stop();
    let stop_ms = t.elapsed().as_secs_f64() * 1e3;
    rec.end();
    let heap_growth = alloc::live_bytes() - p.live_before_backend;

    let tally = p.stream.tally.clone();
    let events = tally.events as f64;
    let mut failures = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    check(vanilla.tally == tally, "vanilla and traced streams diverged".into());
    check(tally.failed == 0, format!("{} syscalls returned an error", tally.failed));
    check(
        summary.events_stored + summary.events_dropped == tally.events,
        format!(
            "emitted {} != stored {} + dropped {}",
            tally.events, summary.events_stored, summary.events_dropped
        ),
    );
    check(
        ring.pushed == tally.events && ring.consumed == ring.pushed && ring.dropped == 0,
        format!("ring pushed {} consumed {} dropped {}", ring.pushed, ring.consumed, ring.dropped),
    );
    check(clocks.lost_groups == 0, format!("{} groups never seen stored", clocks.lost_groups));
    drop(index);

    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", median(&setup_s));
    metrics.insert("app_overhead_x", clocks.overhead());
    let lag_ms: Vec<f64> = clocks.lag_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    if !lag_ms.is_empty() {
        metrics.insert("stored_lag_p50_ms", median(&lag_ms));
        metrics.insert("tracer.stored_lag_p99_ms", quantile(&lag_ms, 0.99));
    }
    if let Some((total_ns, by_role)) = cpu {
        let us = |ns: u64| ns as f64 / 1e3 / events;
        metrics.insert("pipeline_cpu_us_per_event", us(total_ns));
        for ((_, metric), ns) in ROLES.iter().zip(by_role) {
            metrics.insert(metric, us(ns));
        }
    }
    let late_ms: Vec<f64> = clocks.late_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    metrics.insert(
        "kernel.dispatch_ns_per_syscall",
        median(&ns_to_f64(&clocks.vanilla_ns)) / GROUP as f64,
    );
    metrics.insert("tracer.generator_late_p99_ms", quantile(&late_ms, 0.99));
    metrics.insert("tracer.stop_ms", stop_ms);
    let disk_bytes = p.dir.as_deref().map_or(0, dir_bytes);
    // A trial too short for the client's schedule has no live render.
    let live_top_ms = renders.filter(|renders| !renders.is_empty()).map(|renders| {
        rec.adopt("live_top.render", 2, &renders);
        let wall_ms: Vec<f64> = renders.iter().map(|&(s, e)| (e - s) as f64 / 1e6).collect();
        println!(
            "# live dio top: {} renders, wall clock; p90 {:.2} ms",
            renders.len(),
            quantile(&wall_ms, 0.9)
        );
        median(&wall_ms)
    });
    println!(
        "# paced: {} groups of {GROUP} every {} ms; stored lag sampled every {} ms over {} groups; \
         generator late p50 {:.3} ms, worst {:.3} ms",
        groups,
        TICK.as_millis(),
        POLL.as_millis(),
        lag_ms.len(),
        median(&late_ms),
        late_ms.iter().copied().fold(0.0, f64::max),
    );

    Ingested {
        backend: p.backend,
        index_name: p.index_name,
        dir: p.dir,
        tally,
        stored: summary.events_stored,
        heap_growth,
        disk_bytes,
        live_top_ms,
        metrics,
        failures,
    }
}
