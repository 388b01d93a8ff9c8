//! An strace-style baseline tracer.
//!
//! strace uses ptrace: the traced thread is **stopped twice per syscall**
//! (entry and exit), each stop costing a pair of context switches into the
//! single-threaded tracer, which serializes all traced threads. This is
//! the mechanism the paper cites for strace's 1.71× slowdown ("the trap
//! mechanism used to intercept syscalls and the context switching done by
//! strace impose considerable overhead" §III-D). The baseline reproduces
//! both effects: a per-stop busy cost and a global tracer lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use dio_kernel::{EnterEvent, ExitEvent, KernelInspect, SyscallProbe};
use dio_syscall::SyscallSet;

/// Configuration of the ptrace cost model.
#[derive(Debug, Clone, Copy)]
pub struct StraceConfig {
    /// Cost of one ptrace stop (two context switches + tracer wakeup), in
    /// nanoseconds. Applied at entry *and* exit, under the tracer lock.
    pub stop_cost_ns: u64,
    /// Keep formatted output lines in memory (real strace writes them to
    /// stderr/file; disable to measure pure interception cost).
    pub record_lines: bool,
}

impl Default for StraceConfig {
    fn default() -> Self {
        StraceConfig { stop_cost_ns: 6_000, record_lines: true }
    }
}

/// The strace-like probe. Attach to a kernel's tracepoints; collected
/// lines are available via [`StraceTracer::lines`].
///
/// Unlike DIO, strace never drops events — it blocks the application
/// instead, trading throughput for completeness.
pub struct StraceTracer {
    config: StraceConfig,
    /// The single-threaded tracer: all stops serialize here.
    tracer: Mutex<TracerState>,
    events: AtomicU64,
}

#[derive(Default)]
struct TracerState {
    lines: Vec<String>,
    pending: std::collections::HashMap<dio_syscall::Tid, String>,
}

impl std::fmt::Debug for StraceTracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StraceTracer").field("events", &self.events()).finish()
    }
}

fn spin_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let start = Instant::now();
    while (start.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

impl StraceTracer {
    /// Creates a tracer with the given cost model.
    pub fn new(config: StraceConfig) -> Arc<Self> {
        Arc::new(StraceTracer {
            config,
            tracer: Mutex::new(TracerState::default()),
            events: AtomicU64::new(0),
        })
    }

    /// Completed (entry+exit) events observed.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// The formatted trace lines (strace's output file).
    pub fn lines(&self) -> Vec<String> {
        self.tracer.lock().lines.clone()
    }
}

impl SyscallProbe for StraceTracer {
    fn kinds(&self) -> SyscallSet {
        SyscallSet::all()
    }

    fn on_enter(&self, _view: &dyn KernelInspect, event: &EnterEvent<'_>) {
        // ptrace stop #1: the thread blocks until the tracer handled it.
        let mut tracer = self.tracer.lock();
        spin_ns(self.config.stop_cost_ns);
        if self.config.record_lines {
            let args: Vec<String> = event.args.iter().map(ToString::to_string).collect();
            tracer.pending.insert(
                event.tid,
                format!("[pid {}] {}({})", event.tid, event.kind, args.join(", ")),
            );
        }
    }

    fn on_exit(&self, _view: &dyn KernelInspect, event: &ExitEvent) {
        // ptrace stop #2.
        let mut tracer = self.tracer.lock();
        spin_ns(self.config.stop_cost_ns);
        self.events.fetch_add(1, Ordering::Relaxed);
        if self.config.record_lines {
            if let Some(prefix) = tracer.pending.remove(&event.tid) {
                let line = format!("{prefix} = {}", event.ret);
                tracer.lines.push(line);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dio_kernel::{DiskProfile, Kernel};

    #[test]
    fn records_formatted_lines() {
        let k = Kernel::builder().root_disk(DiskProfile::instant()).build();
        let tracer = StraceTracer::new(StraceConfig { stop_cost_ns: 0, record_lines: true });
        k.tracepoints().attach(Arc::clone(&tracer) as Arc<dyn SyscallProbe>);
        let t = k.spawn_process("app").spawn_thread("app");
        let fd = t.creat("/f", 0o644).unwrap();
        t.write(fd, b"abc").unwrap();
        t.close(fd).unwrap();
        let lines = tracer.lines();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("creat"), "{lines:?}");
        assert!(lines[0].ends_with("= 3"));
        assert!(lines[1].contains("write"));
        assert!(lines[1].ends_with("= 3"));
        assert_eq!(tracer.events(), 3);
    }

    #[test]
    fn never_drops_events() {
        let k = Kernel::builder().root_disk(DiskProfile::instant()).build();
        let tracer = StraceTracer::new(StraceConfig { stop_cost_ns: 0, record_lines: true });
        k.tracepoints().attach(Arc::clone(&tracer) as Arc<dyn SyscallProbe>);
        let t = k.spawn_process("app").spawn_thread("app");
        for i in 0..500 {
            t.creat(&format!("/f{i}"), 0o644).unwrap();
        }
        assert_eq!(tracer.events(), 500);
        assert_eq!(tracer.lines().len(), 500);
    }

    /// Host-clock noise only ever adds time: the untraced and the traced
    /// loop run five times each, alternating, and their fastest runs are
    /// compared.
    #[test]
    fn stop_cost_slows_the_traced_thread() {
        let k = Kernel::builder().root_disk(DiskProfile::instant()).build();
        let t = k.spawn_process("app").spawn_thread("app");
        let clock = k.clock().clone();
        // A 20 µs stop cost, paid twice per traced syscall.
        let tracer = StraceTracer::new(StraceConfig { stop_cost_ns: 20_000, record_lines: false });
        let (mut untraced, mut traced) = (u64::MAX, u64::MAX);
        for round in 0..5 {
            let t0 = clock.now_ns();
            for i in 0..50 {
                t.creat(&format!("/a{round}-{i}"), 0o644).unwrap();
            }
            untraced = untraced.min(clock.now_ns() - t0);
            let probe = k.tracepoints().attach(Arc::clone(&tracer) as Arc<dyn SyscallProbe>);
            let t1 = clock.now_ns();
            for i in 0..50 {
                t.creat(&format!("/b{round}-{i}"), 0o644).unwrap();
            }
            traced = traced.min(clock.now_ns() - t1);
            k.tracepoints().detach(probe);
        }
        assert!(
            traced > untraced + 50 * 2 * 15_000,
            "traced={traced} untraced={untraced}: stops must add ≥30 µs per syscall"
        );
    }

    #[test]
    fn failed_syscalls_reported_with_errno() {
        let k = Kernel::builder().root_disk(DiskProfile::instant()).build();
        let tracer = StraceTracer::new(StraceConfig { stop_cost_ns: 0, record_lines: true });
        k.tracepoints().attach(Arc::clone(&tracer) as Arc<dyn SyscallProbe>);
        let t = k.spawn_process("app").spawn_thread("app");
        let _ = t.unlink("/does-not-exist");
        let lines = tracer.lines();
        assert!(lines[0].ends_with("= -2"), "{lines:?}");
    }
}
