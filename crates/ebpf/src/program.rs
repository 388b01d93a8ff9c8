//! The DIO tracer's kernel-side program.
//!
//! [`TracerProgram`] plays the role of DIO's eBPF programs: it attaches to
//! the `sys_enter`/`sys_exit` tracepoints of the selected syscalls, filters
//! events in kernel space, **joins entry and exit into a single event**
//! (kernel-side aggregation — a feature the paper credits only to DIO, CaT
//! and Tracee), enriches it with file type / offset / file tag, and pushes
//! it into the per-CPU ring buffer without ever blocking.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

use dio_kernel::{EnterEvent, ExitEvent, FdInfo, KernelInspect, SyscallProbe};
use dio_syscall::{
    expected_args, path_arg, ArgList, FileTag, FileType, Pid, SyscallClass, SyscallEvent,
    SyscallKind, SyscallSet, Tid,
};
use dio_telemetry::span::{SpanCollector, Stage, StageStamps, StampCarrier};
use dio_telemetry::{Counter, Gauge, MetricsRegistry};
use dio_verify::VerifyError;

use crate::filter::FilterSpec;
use crate::ring::RingBuffer;

/// A joined (entry+exit) raw event as it travels through the ring buffer.
///
/// This is the kernel-side record; the user-space tracer turns it into a
/// [`SyscallEvent`] by stamping the session name.
///
/// The layout is fixed: integers and the descriptor snapshot inline, the
/// thread name and each string argument behind a reference count, nothing
/// stored twice. The program fills it on the application's thread without
/// allocating for an integer-only syscall, and it may not outgrow 208 bytes —
/// the ring initialises every slot when the program attaches.
#[derive(Debug, Clone, PartialEq)]
pub struct RawEvent {
    /// Syscall kind.
    pub kind: SyscallKind,
    /// Calling process.
    pub pid: Pid,
    /// Calling thread.
    pub tid: Tid,
    /// Thread name, shared with the calling thread.
    pub comm: Arc<str>,
    /// CPU of the entry tracepoint.
    pub cpu: u32,
    /// Entry timestamp (ns).
    pub time_enter_ns: u64,
    /// Exit timestamp (ns).
    pub time_exit_ns: u64,
    /// Return value (`-errno` on failure).
    pub ret: i64,
    /// Raw argument values captured at entry, named by position
    /// ([`dio_syscall::expected_args`]).
    pub args: ArgList,
    /// Enrichment: the target descriptor as the program saw it — at entry
    /// for fd-bearing syscalls (`offset` is the one being accessed), at exit
    /// for a successful open.
    pub file: Option<FdInfo>,
    /// Position in `args` of the recorded path ([`dio_syscall::path_arg`],
    /// resolved by the program): `None` for a syscall that takes no path.
    pub path_arg: Option<u8>,
    /// Per-stage span stamps accumulated along the pipeline
    /// (kernel dispatch set at emit; ring push/drain and later stages
    /// stamped by the transport layers).
    pub stamps: StageStamps,
}

impl StampCarrier for RawEvent {
    fn stamps(&self) -> &StageStamps {
        &self.stamps
    }
    fn stamps_mut(&mut self) -> &mut StageStamps {
        &mut self.stamps
    }
}

impl RawEvent {
    /// Enrichment: file type of the target.
    pub fn file_type(&self) -> Option<FileType> {
        self.file.map(|f| f.file_type)
    }

    /// Enrichment: offset before the syscall applied (data syscalls only).
    pub fn offset(&self) -> Option<u64> {
        self.file.filter(|_| self.kind.class() == SyscallClass::Data).map(|f| f.offset)
    }

    /// Enrichment: file tag of the target.
    pub fn file_tag(&self) -> Option<FileTag> {
        self.file.map(|f| f.tag())
    }

    /// Path argument of a path-bearing syscall, when paths are recorded.
    pub fn path(&self) -> Option<&Arc<str>> {
        self.args.str_at(self.path_arg?.into())
    }

    /// Converts the raw record into a backend-ready event.
    pub fn into_event(self, session: &str) -> SyscallEvent {
        self.into_event_of(Arc::from(session))
    }

    /// [`Self::into_event`] for a consumer converting record after record of
    /// one session: handed clones of one name, the events share its
    /// allocation.
    pub fn into_event_of(self, session: Arc<str>) -> SyscallEvent {
        SyscallEvent {
            session,
            kind: self.kind,
            class: self.kind.class(),
            pid: self.pid,
            tid: self.tid,
            cpu: self.cpu,
            time_enter_ns: self.time_enter_ns,
            time_exit_ns: self.time_exit_ns,
            ret: self.ret,
            file_type: self.file_type(),
            offset: self.offset(),
            file_tag: self.file_tag(),
            file_path: self.path().cloned(),
            comm: self.comm,
            args: self.args,
        }
    }
}

/// Behavioural knobs of the kernel-side program.
#[derive(Debug, Clone)]
pub struct ProgramConfig {
    /// In-kernel filter applied at `sys_enter`.
    pub filter: FilterSpec,
    /// Calibrated extra in-kernel work per `sys_enter`, in nanoseconds.
    ///
    /// Models the cost of the real eBPF program (argument copies, map
    /// updates) that the in-process simulation does not naturally pay.
    /// See DESIGN.md §6 "Overhead model".
    pub enter_cost_ns: u64,
    /// Calibrated extra in-kernel work per `sys_exit`, in nanoseconds.
    pub exit_cost_ns: u64,
    /// Capacity of the entry→exit join map (BPF maps are bounded).
    pub join_capacity: usize,
}

impl Default for ProgramConfig {
    fn default() -> Self {
        ProgramConfig {
            filter: FilterSpec::new(),
            enter_cost_ns: 0,
            exit_cost_ns: 0,
            join_capacity: 65_536,
        }
    }
}

/// Counters exported by the program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramStats {
    /// Events admitted by the filter at `sys_enter`.
    pub admitted: u64,
    /// Events rejected by the filter.
    pub filtered: u64,
    /// Entries dropped because the join map was full.
    pub join_overflow: u64,
    /// Joined events pushed to the ring buffer (successfully or not —
    /// ring-buffer drops are counted by [`RingBuffer::stats`]).
    pub emitted: u64,
    /// Entries that never met their exit: replaced by a later entry of the
    /// same thread (a probe detached mid-syscall), or met by the exit of a
    /// different syscall. With the entries still waiting in the join map,
    /// `admitted == emitted + join_overflow + orphaned + pending`.
    pub orphaned: u64,
}

#[derive(Debug)]
struct Pending {
    kind: SyscallKind,
    time_enter_ns: u64,
    cpu: u32,
    comm: Arc<str>,
    args: ArgList,
    file: Option<FdInfo>,
}

const JOIN_SHARDS: usize = 16;

/// Telemetry handles updated on the program's hot paths once
/// [`TracerProgram::bind_telemetry`] is called.
#[derive(Debug)]
struct ProgramTelemetry {
    accepted: Arc<Counter>,
    rejected: Arc<Counter>,
    join_inserted: Arc<Counter>,
    join_overflow: Arc<Counter>,
    join_orphaned: Arc<Counter>,
    join_occupancy: Arc<Gauge>,
}

/// Kernel-side tracer program. Attach with
/// [`dio_kernel::TracepointRegistry::attach`].
pub struct TracerProgram {
    config: ProgramConfig,
    ring: Arc<RingBuffer<RawEvent>>,
    pending: Vec<Mutex<std::collections::HashMap<Tid, Pending>>>,
    pending_count: AtomicU64,
    admitted: AtomicU64,
    filtered: AtomicU64,
    join_overflow: AtomicU64,
    emitted: AtomicU64,
    orphaned: AtomicU64,
    telemetry: OnceLock<ProgramTelemetry>,
    spans: OnceLock<Arc<SpanCollector>>,
}

impl std::fmt::Debug for TracerProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracerProgram").field("stats", &self.stats()).finish()
    }
}

/// Busy-waits for `ns` nanoseconds (models in-kernel program cost; the work
/// happens on the traced thread, inside the syscall, exactly like eBPF).
#[inline]
fn spin_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let start = Instant::now();
    while (start.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

impl TracerProgram {
    /// Creates a program emitting into `ring`.
    ///
    /// The filter is statically verified first (the analogue of the eBPF
    /// verifier's `BPF_PROG_LOAD` check): a spec that can never admit an
    /// event, or whose path filter exceeds the per-event cost budget, is
    /// rejected here with a typed [`VerifyError`] naming each violated
    /// rule — instead of attaching and producing a silently empty trace.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError`] when [`FilterSpec::verify`] rejects the
    /// filter; warnings (e.g. shadowed prefixes) do not fail the load.
    pub fn new(
        config: ProgramConfig,
        ring: Arc<RingBuffer<RawEvent>>,
    ) -> Result<Arc<Self>, VerifyError> {
        config.filter.verify().into_result()?;
        let pending =
            (0..JOIN_SHARDS).map(|_| Mutex::new(std::collections::HashMap::new())).collect();
        Ok(Arc::new(TracerProgram {
            config,
            ring,
            pending,
            pending_count: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            filtered: AtomicU64::new(0),
            join_overflow: AtomicU64::new(0),
            emitted: AtomicU64::new(0),
            orphaned: AtomicU64::new(0),
            telemetry: OnceLock::new(),
            spans: OnceLock::new(),
        }))
    }

    /// Attaches a span collector: every emitted event is accounted as
    /// entering the pipeline (lag watermark), and ring-rejected events are
    /// reported as drop-attributed partial spans. Binding twice is a no-op.
    pub fn bind_spans(&self, spans: Arc<SpanCollector>) {
        self.ring.bind_spans(Arc::clone(&spans));
        let _ = self.spans.set(spans);
    }

    /// Registers the program's metrics (`ebpf.filter.accepted` /
    /// `.rejected`, `ebpf.join.inserted` / `.overflow` / `.orphaned` /
    /// `.occupancy`)
    /// with `registry` and binds the ring buffer's metrics too. Binding
    /// twice is a no-op.
    pub fn bind_telemetry(&self, registry: &MetricsRegistry) {
        let _ = self.telemetry.set(ProgramTelemetry {
            accepted: registry.counter("ebpf.filter.accepted"),
            rejected: registry.counter("ebpf.filter.rejected"),
            join_inserted: registry.counter("ebpf.join.inserted"),
            join_overflow: registry.counter("ebpf.join.overflow"),
            join_orphaned: registry.counter("ebpf.join.orphaned"),
            join_occupancy: registry.gauge("ebpf.join.occupancy"),
        });
        self.ring.bind_telemetry(registry);
    }

    /// The ring buffer this program produces into.
    pub fn ring(&self) -> &Arc<RingBuffer<RawEvent>> {
        &self.ring
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ProgramStats {
        ProgramStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            filtered: self.filtered.load(Ordering::Relaxed),
            join_overflow: self.join_overflow.load(Ordering::Relaxed),
            emitted: self.emitted.load(Ordering::Relaxed),
            orphaned: self.orphaned.load(Ordering::Relaxed),
        }
    }

    /// Entries waiting in the join map for their exit.
    pub fn pending(&self) -> u64 {
        self.pending_count.load(Ordering::Relaxed)
    }

    fn shard(&self, tid: Tid) -> &Mutex<std::collections::HashMap<Tid, Pending>> {
        &self.pending[tid.0 as usize % JOIN_SHARDS]
    }

    /// An admitted entry left the join without being emitted.
    fn count_orphan(&self) {
        self.orphaned.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = self.telemetry.get() {
            t.join_orphaned.inc();
        }
    }
}

impl SyscallProbe for TracerProgram {
    fn kinds(&self) -> SyscallSet {
        self.config.filter.enabled_syscalls()
    }

    fn on_enter(&self, view: &dyn KernelInspect, event: &EnterEvent<'_>) {
        spin_ns(self.config.enter_cost_ns);
        if !self.config.filter.admits(view, event) {
            self.filtered.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = self.telemetry.get() {
                t.rejected.inc();
            }
            return;
        }
        self.admitted.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = self.telemetry.get() {
            t.accepted.inc();
        }
        if self.pending() >= self.config.join_capacity as u64 {
            self.join_overflow.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = self.telemetry.get() {
                t.join_overflow.inc();
            }
            return;
        }
        debug_assert!(
            event.args.iter().map(|a| &*a.name).eq(expected_args(event.kind).iter().copied()),
            "{}: the record names arguments by position",
            event.kind
        );
        let file = event.fd.and_then(|fd| view.fd_info(event.pid, fd)).map(|mut info| {
            // "The file offset being accessed": positional syscalls carry it
            // as an argument; cursor-based ones use the open file
            // description's offset.
            if matches!(
                event.kind,
                SyscallKind::Pread64 | SyscallKind::Pwrite64 | SyscallKind::Readahead
            ) {
                let arg = event.args.iter().find(|a| a.name == "offset");
                if let Some(offset) = arg.and_then(|a| a.value.as_u64()) {
                    info.offset = offset;
                }
            }
            info
        });
        let p = Pending {
            kind: event.kind,
            time_enter_ns: event.time_ns,
            cpu: event.cpu,
            comm: Arc::clone(event.comm),
            args: event.args.iter().map(|a| &a.value).collect(),
            file,
        };
        if self.shard(event.tid).lock().insert(event.tid, p).is_some() {
            // The thread's previous entry never met its exit.
            self.count_orphan();
            return;
        }
        let occupancy = self.pending_count.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(t) = self.telemetry.get() {
            t.join_inserted.inc();
            t.join_occupancy.set(occupancy);
        }
    }

    fn on_exit(&self, view: &dyn KernelInspect, event: &ExitEvent) {
        spin_ns(self.config.exit_cost_ns);
        let Some(mut p) = self.shard(event.tid).lock().remove(&event.tid) else {
            return; // filtered at entry, or join-map overflow
        };
        let occupancy = self.pending_count.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
        if let Some(t) = self.telemetry.get() {
            t.join_occupancy.set(occupancy);
        }
        if p.kind != event.kind {
            // The exit of another syscall: this entry's own exit was missed.
            self.count_orphan();
            return;
        }
        // Opens resolve their fd only at exit: enrich the fresh descriptor.
        if matches!(p.kind, SyscallKind::Open | SyscallKind::Openat | SyscallKind::Creat)
            && event.ret >= 0
        {
            p.file = view.fd_info(event.pid, event.ret as i32);
        }
        let mut stamps = StageStamps::new();
        stamps.stamp(Stage::KernelDispatch, event.mono_ns);
        let raw = RawEvent {
            kind: p.kind,
            pid: event.pid,
            tid: event.tid,
            comm: p.comm,
            cpu: p.cpu,
            time_enter_ns: p.time_enter_ns,
            time_exit_ns: event.time_ns,
            ret: event.ret,
            args: p.args,
            file: p.file,
            path_arg: path_arg(p.kind).map(|i| i as u8),
            stamps,
        };
        self.emitted.fetch_add(1, Ordering::Relaxed);
        if let Some(spans) = self.spans.get() {
            spans.note_emitted(event.mono_ns);
        }
        self.ring.try_push_stamped(event.cpu, raw);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::RingConfig;
    use dio_kernel::{DiskProfile, Kernel, OpenFlags};

    fn kernel() -> Kernel {
        Kernel::builder().root_disk(DiskProfile::instant()).build()
    }

    fn attach(kernel: &Kernel, config: ProgramConfig) -> Arc<TracerProgram> {
        let ring =
            Arc::new(RingBuffer::new(kernel.num_cpus(), RingConfig::with_bytes_per_cpu(1 << 20)));
        let prog = TracerProgram::new(config, ring).expect("valid filter spec");
        kernel.tracepoints().attach(Arc::clone(&prog) as Arc<dyn SyscallProbe>);
        prog
    }

    #[test]
    fn captures_joined_events_with_enrichment() {
        let k = kernel();
        let prog = attach(&k, ProgramConfig::default());
        let t = k.spawn_process("app").spawn_thread("app");
        let fd = t.openat("/app.log", OpenFlags::CREAT | OpenFlags::RDWR, 0o644).unwrap();
        t.write(fd, b"0123456789012345678901234&").unwrap();
        t.close(fd).unwrap();

        let events = prog.ring().drain_all(100);
        assert_eq!(events.len(), 3);
        let open = &events[0];
        assert_eq!(open.kind, SyscallKind::Openat);
        assert_eq!(open.ret, fd as i64);
        assert_eq!(open.path().map(|p| &**p), Some("/app.log"));
        let tag = open.file_tag().expect("open enriched with tag at exit");
        assert_eq!(tag.dev, dio_kernel::ROOT_DEV);
        assert!(tag.first_access_ns > 0);

        let write = &events[1];
        assert_eq!(write.kind, SyscallKind::Write);
        assert_eq!(write.ret, 26);
        assert_eq!(write.offset(), Some(0), "offset reported BEFORE the write applies");
        assert_eq!(write.file_tag(), Some(tag), "same generation, same tag");
        assert_eq!(write.file_type(), Some(FileType::Regular));
        assert!(write.time_exit_ns >= write.time_enter_ns);

        let close = &events[2];
        assert_eq!(close.kind, SyscallKind::Close);
        assert_eq!(close.file_tag(), Some(tag));
        // close is not a data syscall: no offset enrichment.
        assert_eq!(close.offset(), None);
    }

    #[test]
    fn positional_syscalls_report_the_accessed_offset() {
        let k = kernel();
        let prog = attach(&k, ProgramConfig::default());
        let t = k.spawn_process("app").spawn_thread("app");
        let fd = t.openat("/f", OpenFlags::CREAT | OpenFlags::RDWR, 0o644).unwrap();
        t.pwrite64(fd, b"abcd", 1_000).unwrap();
        let mut buf = [0u8; 2];
        t.pread64(fd, &mut buf, 1_002).unwrap();
        // Cursor-based write still reports the cursor position (0).
        t.write(fd, b"x").unwrap();
        let events = prog.ring().drain_all(100);
        let pwrite = events.iter().find(|e| e.kind == SyscallKind::Pwrite64).unwrap();
        assert_eq!(pwrite.offset(), Some(1_000), "pwrite64 offset from its argument");
        let pread = events.iter().find(|e| e.kind == SyscallKind::Pread64).unwrap();
        assert_eq!(pread.offset(), Some(1_002));
        let write = events.iter().find(|e| e.kind == SyscallKind::Write).unwrap();
        assert_eq!(write.offset(), Some(0), "plain write uses the cursor");
    }

    #[test]
    fn filter_rejections_are_counted_not_emitted() {
        let k = kernel();
        let cfg = ProgramConfig {
            filter: FilterSpec::new().syscalls([SyscallKind::Write]),
            ..ProgramConfig::default()
        };
        let prog = attach(&k, cfg);
        let t = k.spawn_process("app").spawn_thread("app");
        let fd = t.openat("/f", OpenFlags::CREAT | OpenFlags::RDWR, 0o644).unwrap();
        t.write(fd, b"x").unwrap();
        t.close(fd).unwrap();
        let events = prog.ring().drain_all(100);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, SyscallKind::Write);
        // openat/close tracepoints were never enabled -> not even filtered.
        assert_eq!(prog.stats().filtered, 0);
        assert_eq!(prog.stats().admitted, 1);
    }

    #[test]
    fn pid_filter_separates_processes() {
        let k = kernel();
        let p1 = k.spawn_process("one");
        let p2 = k.spawn_process("two");
        let cfg = ProgramConfig {
            filter: FilterSpec::new().pids([p1.pid()]),
            ..ProgramConfig::default()
        };
        let prog = attach(&k, cfg);
        let t1 = p1.spawn_thread("one");
        let t2 = p2.spawn_thread("two");
        t1.creat("/a", 0o644).unwrap();
        t2.creat("/b", 0o644).unwrap();
        let events = prog.ring().drain_all(100);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].pid, p1.pid());
        assert_eq!(prog.stats().filtered, 1);
    }

    #[test]
    fn failed_syscalls_carry_negative_errno() {
        let k = kernel();
        let prog = attach(&k, ProgramConfig::default());
        let t = k.spawn_process("app").spawn_thread("app");
        let _ = t.openat("/missing", OpenFlags::RDONLY, 0);
        let events = prog.ring().drain_all(10);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].ret, -2, "ENOENT encoded as -2");
        assert!(events[0].file_tag().is_none());
    }

    #[test]
    fn into_event_stamps_session() {
        let k = kernel();
        let prog = attach(&k, ProgramConfig::default());
        let t = k.spawn_process("app").spawn_thread("worker1");
        t.creat("/f", 0o644).unwrap();
        let raw = prog.ring().drain_all(1).pop().unwrap();
        let ev = raw.into_event("sess-42");
        assert_eq!(&*ev.session, "sess-42");
        assert_eq!(&*ev.comm, "worker1");
        assert_eq!(ev.kind, SyscallKind::Creat);
        assert_eq!(ev.class, dio_syscall::SyscallClass::Metadata);
    }

    #[test]
    fn ring_overflow_drops_newest_events() {
        let k = kernel();
        let ring = Arc::new(RingBuffer::with_slots(k.num_cpus(), 2));
        let prog = TracerProgram::new(ProgramConfig::default(), ring).unwrap();
        k.tracepoints().attach(Arc::clone(&prog) as Arc<dyn SyscallProbe>);
        let p = k.spawn_process("app");
        let t = p.spawn_thread("app"); // one thread => one CPU => one 2-slot queue
        for i in 0..10 {
            t.creat(&format!("/f{i}"), 0o644).unwrap();
        }
        let stats = prog.ring().stats();
        assert_eq!(stats.pushed, 2);
        assert_eq!(stats.dropped, 8);
        assert_eq!(prog.stats().emitted, 10);
    }

    #[test]
    fn join_capacity_overflow_counts() {
        let k = kernel();
        let ring = Arc::new(RingBuffer::with_slots(k.num_cpus(), 64));
        let cfg = ProgramConfig { join_capacity: 0, ..ProgramConfig::default() };
        let prog = TracerProgram::new(cfg, ring).unwrap();
        k.tracepoints().attach(Arc::clone(&prog) as Arc<dyn SyscallProbe>);
        let t = k.spawn_process("app").spawn_thread("app");
        t.creat("/f", 0o644).unwrap();
        assert_eq!(prog.stats().join_overflow, 1);
        assert!(prog.ring().is_empty());
    }

    /// Every admitted entry ends as exactly one of emitted, overflowed,
    /// orphaned or still pending — with each of the four forced once.
    #[test]
    fn every_admitted_entry_is_accounted_for() {
        struct NoFiles;
        impl KernelInspect for NoFiles {
            fn fd_info(&self, _: Pid, _: i32) -> Option<FdInfo> {
                None
            }
            fn fd_path_matches(&self, _: Pid, _: i32, _: &dyn Fn(&str) -> bool) -> bool {
                false
            }
        }
        let comm: Arc<str> = Arc::from("app");
        let args = [dio_syscall::Arg::new("fd", 3i64)];
        let enter = |kind, tid| EnterEvent {
            kind,
            pid: Pid(1),
            tid: Tid(tid),
            comm: &comm,
            cpu: 0,
            time_ns: 1,
            args: &args,
            path: None,
            fd: Some(3),
        };
        let exit = |kind, tid| ExitEvent {
            kind,
            pid: Pid(1),
            tid: Tid(tid),
            cpu: 0,
            time_ns: 2,
            ret: 0,
            mono_ns: 1,
        };
        let registry = MetricsRegistry::new();
        let ring = Arc::new(RingBuffer::with_slots(1, 8));
        let cfg = ProgramConfig { join_capacity: 2, ..ProgramConfig::default() };
        let prog = TracerProgram::new(cfg, ring).unwrap();
        prog.bind_telemetry(&registry);
        let reconciles = |prog: &TracerProgram| {
            let s = prog.stats();
            assert_eq!(s.admitted, s.emitted + s.join_overflow + s.orphaned + prog.pending());
            s
        };

        // A matched pair is emitted.
        prog.on_enter(&NoFiles, &enter(SyscallKind::Close, 7));
        prog.on_exit(&NoFiles, &exit(SyscallKind::Close, 7));
        assert_eq!(reconciles(&prog).emitted, 1);
        // An entry whose exit never came is replaced by the thread's next.
        prog.on_enter(&NoFiles, &enter(SyscallKind::Fsync, 7));
        prog.on_enter(&NoFiles, &enter(SyscallKind::Close, 7));
        assert_eq!(reconciles(&prog).orphaned, 1);
        assert_eq!(prog.pending(), 1);
        // The exit of a different syscall meets the waiting entry.
        prog.on_exit(&NoFiles, &exit(SyscallKind::Fstat, 7));
        assert_eq!(reconciles(&prog).orphaned, 2);
        assert_eq!(prog.pending(), 0);
        // Two entries fill the map; the third overflows, the two stay pending.
        for tid in [1, 2, 3] {
            prog.on_enter(&NoFiles, &enter(SyscallKind::Close, tid));
        }
        let s = reconciles(&prog);
        assert_eq!((s.admitted, s.emitted, s.join_overflow, s.orphaned), (6, 1, 1, 2));
        assert_eq!(prog.pending(), 2);
        assert_eq!(prog.ring().stats().pushed, 1, "only the matched pair reached the ring");

        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("ebpf.join.orphaned"), 2);
        assert_eq!(snapshot.counter("ebpf.join.overflow"), 1);
        assert_eq!(snapshot.counter("ebpf.filter.accepted"), 6);
    }

    mod load_time_verification {
        use super::*;
        use dio_verify::Rule;

        fn load(filter: FilterSpec) -> Result<Arc<TracerProgram>, dio_verify::VerifyError> {
            let ring = Arc::new(RingBuffer::with_slots(1, 8));
            TracerProgram::new(ProgramConfig { filter, ..ProgramConfig::default() }, ring)
        }

        #[test]
        fn empty_syscall_set_fails_load() {
            let err = load(FilterSpec::new().syscalls([])).unwrap_err();
            assert!(err.violates(Rule::EmptySyscallSet));
            assert!(err.to_string().contains("error[empty-syscall-set]"));
        }

        #[test]
        fn empty_pid_set_fails_load() {
            let err = load(FilterSpec::new().pids([])).unwrap_err();
            assert!(err.violates(Rule::EmptyPidSet));
        }

        #[test]
        fn empty_tid_set_fails_load() {
            let err = load(FilterSpec::new().tids([])).unwrap_err();
            assert!(err.violates(Rule::EmptyTidSet));
        }

        #[test]
        fn unmatchable_id_fails_load() {
            let err = load(FilterSpec::new().pids([Pid(0)])).unwrap_err();
            assert!(err.violates(Rule::UnmatchableId));
            let err = load(FilterSpec::new().tids([Tid(0)])).unwrap_err();
            assert!(err.violates(Rule::UnmatchableId));
        }

        #[test]
        fn unmatchable_path_prefix_fails_load() {
            let err = load(FilterSpec::new().path_prefix("relative/never")).unwrap_err();
            assert!(err.violates(Rule::UnmatchablePathPrefix));
            let err = load(FilterSpec::new().path_prefix("")).unwrap_err();
            assert!(err.violates(Rule::UnmatchablePathPrefix));
        }

        #[test]
        fn duplicate_path_prefix_fails_load() {
            let err = load(FilterSpec::new().path_prefix("/db").path_prefix("/db")).unwrap_err();
            assert!(err.violates(Rule::DuplicatePathPrefix));
        }

        #[test]
        fn path_filter_cost_fails_load() {
            let mut spec = FilterSpec::new();
            for i in 0..=dio_verify::MAX_PATH_PREFIXES {
                spec = spec.path_prefix(format!("/p{i}"));
            }
            let err = load(spec).unwrap_err();
            assert!(err.violates(Rule::PathFilterCost));
        }

        #[test]
        fn warnings_do_not_fail_load() {
            // A shadowed prefix warns but the program still loads.
            let spec = FilterSpec::new().path_prefix("/db").path_prefix("/db/wal");
            assert_eq!(spec.verify().warnings().count(), 1);
            assert!(load(spec).is_ok());
            assert!(load(FilterSpec::new()).is_ok(), "default spec always loads");
        }
    }
}
