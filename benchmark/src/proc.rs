//! CPU time, read from outside: per pipeline thread through
//! `/proc/self/task/*/{comm,schedstat}`, and for the whole process through
//! `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`.

use std::collections::BTreeMap;
use std::fs;

/// On-CPU nanoseconds of every live `dio-*` thread, keyed by thread id.
/// `None` when schedstat cannot be read (kernel built without scheduler
/// statistics): CPU metrics are then reported as absent, never as zero.
pub fn pipeline_threads() -> Option<BTreeMap<u64, (String, u64)>> {
    let mut out = BTreeMap::new();
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let dir = entry.ok()?.path();
        let Some(tid) = dir.file_name().and_then(|n| n.to_str()?.parse::<u64>().ok()) else {
            continue;
        };
        // A thread may exit between the listing and the reads.
        let Ok(comm) = fs::read_to_string(dir.join("comm")) else { continue };
        if !comm.starts_with("dio-") {
            continue;
        }
        let stat = fs::read_to_string(dir.join("schedstat")).ok()?;
        let run_ns = stat.split_whitespace().next()?.parse().ok()?;
        out.insert(tid, (comm.trim().to_string(), run_ns));
    }
    Some(out)
}

/// The pipeline's thread roles: `comm` prefix (every pipeline thread is
/// named `dio-*`; the kernel truncates names to 15 bytes) and the per-layer
/// metric that reports the role's on-CPU time per event.
pub const ROLES: [(&str, &str); 4] = [
    ("dio-consumer", "tracer.consumer_cpu_us_per_event"),
    ("dio-shipper", "tracer.shipper_cpu_us_per_event"),
    ("dio-telemetry", "telemetry.exporter_cpu_us_per_event"),
    ("dio-compactor", "backend.compactor_cpu_us_per_event"),
];

/// On-CPU nanoseconds between two [`pipeline_threads`] readings: in total,
/// and per role in the order of [`ROLES`]. No other `dio-*` thread runs
/// during a trial today (the taps run on the consumer; `dio-serve-*` and
/// `dio-diagnose-*` exist only when a caller starts them); one that appears
/// counts in the total and is named on standard output, so that parts which
/// no longer sum to the total are explained.
pub fn cpu_between(
    before: &BTreeMap<u64, (String, u64)>,
    after: &BTreeMap<u64, (String, u64)>,
) -> (u64, [u64; ROLES.len()]) {
    let (mut total, mut by_role) = (0, [0; ROLES.len()]);
    for (tid, (comm, run_ns)) in after {
        let spent = run_ns.saturating_sub(before.get(tid).map_or(0, |(_, ns)| *ns));
        total += spent;
        match ROLES.iter().position(|(prefix, _)| comm.starts_with(prefix)) {
            Some(role) => by_role[role] += spent,
            None => println!("# pipeline thread {comm} has no per-layer metric: {spent} ns"),
        }
    }
    (total, by_role)
}

/// CPU time of every thread of this process, living or ended, to the
/// nanosecond.
///
/// Set-up and the query side run while no pipeline is attached, so all the
/// process's CPU in that interval is theirs — the caller's and that of any
/// helper thread the measured code starts (`StorageEngine::open` replays
/// its shards on threads of its own). The wall clock also counts waiting —
/// for `fsync`, for a lock — and [`timed`] reads it too, for the steps that
/// may wait; but on this shared virtual machine the hypervisor takes the CPU
/// away for milliseconds at a time, and the wall-clock time of one and the
/// same step differed by up to 1.5× from run to run.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two C longs on
    // Linux), and the clock id is one every Linux kernel knows.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Milliseconds `f` took: CPU of the whole process, and wall clock.
#[derive(Debug, Clone, Copy)]
pub struct Took {
    pub cpu_ms: f64,
    pub wall_ms: f64,
}

/// Runs `f` and times it on both clocks.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Took) {
    let (cpu, wall) = (process_cpu_ns(), std::time::Instant::now());
    let out = f();
    let took = Took {
        cpu_ms: (process_cpu_ns() - cpu) as f64 / 1e6,
        wall_ms: wall.elapsed().as_secs_f64() * 1e3,
    };
    (out, took)
}
