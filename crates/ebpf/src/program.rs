//! The DIO tracer's kernel-side program.
//!
//! [`TracerProgram`] plays the role of DIO's eBPF programs: it attaches to
//! the `sys_enter`/`sys_exit` tracepoints of the selected syscalls, filters
//! events in kernel space, **joins entry and exit into a single event**
//! (kernel-side aggregation — a feature the paper credits only to DIO, CaT
//! and Tracee), enriches it with file type / offset / file tag, and pushes
//! it into the per-CPU ring buffer without ever blocking.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use dio_kernel::{EnterEvent, ExitEvent, FdInfo, KernelInspect, SyscallProbe, TaskSlot};
use dio_syscall::{
    expected_args, path_arg, ArgList, FileTag, FileType, Pid, SyscallClass, SyscallEvent,
    SyscallKind, SyscallSet, Tid,
};
use dio_telemetry::span::{SpanCollector, Stage, StageStamps, StampCarrier};
use dio_telemetry::MetricsRegistry;
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
    /// Bound on entries waiting for their exit at once (BPF maps are
    /// bounded): an entry that would exceed it overflows. One below the
    /// task-slot table's [`MAX_TASKS`] costs each entry a scan of the table.
    pub join_capacity: usize,
}

impl Default for ProgramConfig {
    fn default() -> Self {
        ProgramConfig {
            filter: FilterSpec::new(),
            enter_cost_ns: 0,
            exit_cost_ns: 0,
            join_capacity: MAX_TASKS,
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
    /// Entries dropped because the join was at capacity.
    pub join_overflow: u64,
    /// Joined events pushed to the ring buffer (successfully or not —
    /// ring-buffer drops are counted by [`RingBuffer::stats`]).
    pub emitted: u64,
    /// Entries that never met their exit: replaced by a later entry of the
    /// same task (two OS threads sharing one task), or met by the exit of a
    /// different syscall.
    pub orphaned: u64,
    /// Entries waiting in their task's slot for the exit. Read in the same
    /// scan as the counts, so every snapshot holds
    /// `admitted == emitted + join_overflow + orphaned + pending`.
    pub pending: u64,
}

/// Task slots in the program's table: as many tasks as the kernel has live
/// can be joined, and entries of a task lent a slot beyond it overflow.
pub const MAX_TASKS: usize = 65_536;
/// Slots are allocated in chunks, the first time a task of the chunk traces.
const CHUNK: usize = 64;

/// What one task's `sys_enter` leaves for its `sys_exit`.
#[derive(Debug)]
struct Pending {
    kind: SyscallKind,
    time_enter_ns: u64,
    cpu: u32,
    comm: Arc<str>,
    args: ArgList,
    file: Option<FdInfo>,
}

/// One task's slot: the entry waiting for its exit, and the counts of the
/// task's entries, changed together while the slot is held.
#[derive(Debug, Default)]
struct SlotState {
    pending: Option<Pending>,
    admitted: u64,
    join_overflow: u64,
    emitted: u64,
    /// Entries the task's next entry found waiting.
    orphaned_at_entry: u64,
    /// Entries met by the exit of another syscall.
    orphaned_at_exit: u64,
}

/// The program's storage for one task (`BPF_MAP_TYPE_TASK_STORAGE`), on a
/// line of its own: only its task writes it, one syscall at a time, so
/// holding it is one uncontended swap and one store. Another thread holds
/// it only when OS threads share a task, or while a reader scans.
#[repr(align(128))]
#[derive(Debug, Default)]
struct JoinSlot {
    held: AtomicBool,
    /// Entries the filter rejected: counted without holding the slot, as
    /// no other count depends on it.
    filtered: AtomicU64,
    state: UnsafeCell<SlotState>,
}

// SAFETY: `state` is reached only through `JoinSlot::with`, while `held` is
// set by the caller, so no two threads reach it at once; what it holds is
// `Send`.
unsafe impl Sync for JoinSlot {}
const _: fn() = || {
    fn send<T: Send>() {}
    send::<SlotState>();
};

/// Clears the flag of a held slot, also when the holder unwinds.
struct Holding<'a>(&'a AtomicBool);

impl Drop for Holding<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

impl JoinSlot {
    /// Runs `f` on the slot's state, holding the slot. Keep `f` short: it
    /// allocates and drops nothing heavier than a counter.
    fn with<R>(&self, f: impl FnOnce(&mut SlotState) -> R) -> R {
        let mut spins = 0u32;
        while self.held.swap(true, Ordering::Acquire) {
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        let _holding = Holding(&self.held);
        // SAFETY: `held` was clear and this thread set it; it stays set
        // until `_holding` drops, after `f`.
        f(unsafe { &mut *self.state.get() })
    }
}

/// Every count of the program, summed over the task slots in one scan.
#[derive(Debug, Default)]
struct Tally {
    stats: ProgramStats,
    orphaned_at_entry: u64,
}

/// The program's task-local storage: slot `i` of the table is the one the
/// kernel lent task `i` ([`dio_kernel::TaskSlot`]).
#[derive(Debug)]
struct TaskSlots {
    chunks: Box<[OnceLock<Box<[JoinSlot]>>]>,
    /// Chunks up to the highest one allocated: what a scan visits.
    used: AtomicUsize,
    /// Where a task lent a slot beyond the table is counted; its entries
    /// overflow.
    spill: JoinSlot,
}

impl TaskSlots {
    fn new() -> Self {
        TaskSlots {
            chunks: (0..MAX_TASKS / CHUNK).map(|_| OnceLock::new()).collect(),
            used: AtomicUsize::new(0),
            spill: JoinSlot::default(),
        }
    }

    fn get(&self, slot: TaskSlot) -> &JoinSlot {
        let at = slot.index() / CHUNK;
        match self.chunks.get(at) {
            Some(chunk) => {
                let chunk = chunk.get_or_init(|| {
                    self.used.fetch_max(at + 1, Ordering::Relaxed);
                    (0..CHUNK).map(|_| JoinSlot::default()).collect()
                });
                &chunk[slot.index() % CHUNK]
            }
            None => &self.spill,
        }
    }

    fn iter(&self) -> impl Iterator<Item = &JoinSlot> {
        let used = &self.chunks[..self.used.load(Ordering::Relaxed)];
        used.iter().filter_map(OnceLock::get).flat_map(|c| c.iter()).chain([&self.spill])
    }

    /// Every count, O(tasks), each slot's read while it is held — so the
    /// identity that holds in each slot holds in the sum.
    fn tally(&self) -> Tally {
        let mut tally = Tally::default();
        for slot in self.iter() {
            let t = &mut tally.stats;
            t.filtered += slot.filtered.load(Ordering::Relaxed);
            slot.with(|s| {
                t.admitted += s.admitted;
                t.join_overflow += s.join_overflow;
                t.emitted += s.emitted;
                t.orphaned += s.orphaned_at_entry + s.orphaned_at_exit;
                t.pending += u64::from(s.pending.is_some());
                tally.orphaned_at_entry += s.orphaned_at_entry;
            });
        }
        tally
    }
}

/// Kernel-side tracer program. Attach with
/// [`dio_kernel::TracepointRegistry::attach`].
pub struct TracerProgram {
    config: ProgramConfig,
    ring: Arc<RingBuffer<RawEvent>>,
    /// Every count the program keeps, in its task slots; telemetry and the
    /// span collector read them there.
    slots: Arc<TaskSlots>,
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
        Ok(Arc::new(TracerProgram {
            config,
            ring,
            slots: Arc::new(TaskSlots::new()),
            spans: OnceLock::new(),
        }))
    }

    /// Attaches a span collector: the program's emitted count is the
    /// pipeline's intake (lag watermark), and ring-rejected events are
    /// reported as drop-attributed partial spans. Binding twice is a no-op.
    pub fn bind_spans(&self, spans: Arc<SpanCollector>) {
        self.ring.bind_spans(Arc::clone(&spans));
        let slots = Arc::clone(&self.slots);
        spans.read_emitted_from(move || slots.tally().stats.emitted);
        let _ = self.spans.set(spans);
    }

    /// Registers the program's metrics (`ebpf.filter.accepted` /
    /// `.rejected`, `ebpf.join.inserted` / `.overflow` / `.orphaned` /
    /// `.occupancy`) with `registry` and binds the ring buffer's metrics
    /// too. Each is read from the task slots at snapshot, in one scan of
    /// them; `ebpf.join.occupancy` is the count of slots holding an entry.
    pub fn bind_telemetry(&self, registry: &MetricsRegistry) {
        let read = |field: fn(&Tally) -> u64| {
            let slots = Arc::clone(&self.slots);
            move || field(&slots.tally())
        };
        registry.counter_fn("ebpf.filter.accepted", read(|t| t.stats.admitted));
        registry.counter_fn("ebpf.filter.rejected", read(|t| t.stats.filtered));
        registry.counter_fn(
            "ebpf.join.inserted",
            read(|t| t.stats.admitted - t.stats.join_overflow - t.orphaned_at_entry),
        );
        registry.counter_fn("ebpf.join.overflow", read(|t| t.stats.join_overflow));
        registry.counter_fn("ebpf.join.orphaned", read(|t| t.stats.orphaned));
        registry.gauge_fn("ebpf.join.occupancy", read(|t| t.stats.pending));
        self.ring.bind_telemetry(registry);
    }

    /// The ring buffer this program produces into.
    pub fn ring(&self) -> &Arc<RingBuffer<RawEvent>> {
        &self.ring
    }

    /// Counter snapshot: a scan of the task slots, O(tasks).
    pub fn stats(&self) -> ProgramStats {
        self.slots.tally().stats
    }

    /// Entries waiting in their task's slot for the exit: a scan, O(tasks).
    pub fn pending(&self) -> u64 {
        self.stats().pending
    }

    /// Whether an entry now would exceed `join_capacity`. At the default
    /// capacity every slot may hold an entry, and nothing is scanned.
    fn at_capacity(&self) -> bool {
        let capacity = self.config.join_capacity;
        capacity < MAX_TASKS && self.pending() >= capacity as u64
    }
}

impl SyscallProbe for TracerProgram {
    fn kinds(&self) -> SyscallSet {
        self.config.filter.enabled_syscalls()
    }

    fn on_enter(&self, view: &dyn KernelInspect, event: &EnterEvent<'_>) {
        spin_ns(self.config.enter_cost_ns);
        let slot = self.slots.get(event.slot);
        if !self.config.filter.admits(view, event) {
            slot.filtered.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if std::ptr::eq(slot, &self.slots.spill) || self.at_capacity() {
            slot.with(|s| {
                s.admitted += 1;
                s.join_overflow += 1;
            });
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
        let entry = Pending {
            kind: event.kind,
            time_enter_ns: event.time_ns,
            cpu: event.cpu,
            comm: Arc::clone(event.comm),
            args: event.args.iter().map(|a| &a.value).collect(),
            file,
        };
        let orphan = slot.with(|s| {
            s.admitted += 1;
            let orphan = s.pending.replace(entry);
            // The task's previous entry never met its exit.
            s.orphaned_at_entry += u64::from(orphan.is_some());
            orphan
        });
        drop(orphan);
    }

    fn on_exit(&self, view: &dyn KernelInspect, event: &ExitEvent) {
        spin_ns(self.config.exit_cost_ns);
        let met = self.slots.get(event.slot).with(|s| {
            let entry = s.pending.take()?;
            if entry.kind == event.kind {
                s.emitted += 1;
                Some(Ok(entry))
            } else {
                // The exit of another syscall: this entry's own exit was missed.
                s.orphaned_at_exit += 1;
                Some(Err(entry))
            }
        });
        // Nothing waiting (filtered at entry, or overflowed), or an orphan.
        let Some(Ok(mut p)) = met else { return };
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
        if let Some(spans) = self.spans.get() {
            spans.note_dispatch(event.mono_ns);
        }
        // The push is stamped with the exit's reading: the hook's own work
        // after it is not timed, and the clock is read twice a syscall.
        self.ring.try_push_stamped(event.cpu, raw, event.mono_ns);
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
            slot: TaskSlot(tid),
        };
        let exit = |kind, tid| ExitEvent {
            kind,
            pid: Pid(1),
            tid: Tid(tid),
            cpu: 0,
            time_ns: 2,
            ret: 0,
            mono_ns: 1,
            slot: TaskSlot(tid),
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
