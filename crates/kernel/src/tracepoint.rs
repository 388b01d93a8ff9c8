//! Syscall tracepoints: the kernel-side attachment points for eBPF-style
//! probes.
//!
//! The simulated kernel fires `sys_enter`/`sys_exit` for every executed
//! syscall whose kind has at least one attached probe, mirroring Linux's
//! `tracepoint:syscalls:sys_enter_*` / `sys_exit_*` pairs. Probes run
//! *synchronously in the syscall path* — whatever work they do is overhead
//! charged to the traced application, exactly as with real eBPF programs.

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use dio_syscall::{Arg, FileTag, FileType, Pid, SyscallKind, SyscallSet, Tid};

/// Snapshot of an open file description, as an eBPF program would recover it
/// from `task_struct`/`files_struct` at probe time: five integers, copied
/// out under the descriptor table's lock. The open-time path is not part of
/// it — [`KernelInspect::fd_path_matches`] lends that to the one probe that
/// reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FdInfo {
    /// Type of the file behind the descriptor.
    pub file_type: FileType,
    /// Current seek offset (before the syscall applies).
    pub offset: u64,
    /// Device number.
    pub dev: u64,
    /// Inode number.
    pub ino: u64,
    /// First-access timestamp of this inode generation (file-tag component).
    pub first_access_ns: u64,
}

impl FdInfo {
    /// The DIO file tag for this description.
    pub fn tag(&self) -> FileTag {
        FileTag::new(self.dev, self.ino, self.first_access_ns)
    }
}

/// Read-only view of kernel state offered to probes (what eBPF programs get
/// via helpers and direct struct access).
///
/// The kernel's view knows the calling task, as `bpf_get_current_task()`
/// does: a lookup for the caller's own `pid` reads its descriptor table
/// directly, without the kernel-wide process table; any other `pid` is
/// looked up there first.
pub trait KernelInspect {
    /// Resolves a descriptor of process `pid` to its open-file snapshot.
    fn fd_info(&self, pid: Pid, fd: i32) -> Option<FdInfo>;

    /// Lends the path descriptor `fd` of process `pid` was opened with (the
    /// *dentry* name; the file may since have been renamed) to `pred` and
    /// returns its verdict; `false` when the descriptor does not resolve.
    ///
    /// `pred` runs under the lock of that process's descriptor table, which
    /// is not reentrant: it must not call back into the view (for the same
    /// process that deadlocks), and it must be short — every descriptor
    /// operation of the process waits for it.
    fn fd_path_matches(&self, pid: Pid, fd: i32, pred: &dyn Fn(&str) -> bool) -> bool;
}

/// Payload of a `sys_enter` tracepoint.
#[derive(Debug)]
pub struct EnterEvent<'a> {
    /// Which syscall is entering.
    pub kind: SyscallKind,
    /// Calling process.
    pub pid: Pid,
    /// Calling thread.
    pub tid: Tid,
    /// Thread `comm` name, shareable by reference count.
    pub comm: &'a Arc<str>,
    /// CPU executing the syscall.
    pub cpu: u32,
    /// Entry timestamp (ns).
    pub time_ns: u64,
    /// Raw syscall arguments.
    pub args: &'a [Arg],
    /// The primary target path for path-bearing syscalls.
    pub path: Option<&'a str>,
    /// The file descriptor argument for fd-bearing syscalls.
    pub fd: Option<i32>,
    /// The calling task's slot in probes' task-local storage.
    pub slot: TaskSlot,
}

/// Payload of a `sys_exit` tracepoint.
#[derive(Debug)]
pub struct ExitEvent {
    /// Which syscall is exiting.
    pub kind: SyscallKind,
    /// Calling process.
    pub pid: Pid,
    /// Calling thread.
    pub tid: Tid,
    /// CPU executing the syscall.
    pub cpu: u32,
    /// Exit timestamp (ns).
    pub time_ns: u64,
    /// Return value (`-errno` on failure).
    pub ret: i64,
    /// Monotonic dispatch stamp ([`dio_telemetry::monotonic_ns`]) taken
    /// when the kernel fired the tracepoint — the span's
    /// `Stage::KernelDispatch` anchor. Unlike `time_ns` (simulated clock)
    /// this is comparable with user-space stamps.
    pub mono_ns: u64,
    /// The calling task's slot in probes' task-local storage.
    pub slot: TaskSlot,
}

/// A kernel-side probe attached to syscall tracepoints.
///
/// Implementors must be cheap and non-blocking on the happy path: they run
/// inside the traced application's syscall. (The strace baseline exploits
/// this deliberately — its probe blocks, as the real ptrace stop does.)
pub trait SyscallProbe: Send + Sync {
    /// The syscall kinds this probe wants to observe. Checked once at
    /// attach time; tracepoints for other kinds stay disabled.
    fn kinds(&self) -> SyscallSet {
        SyscallSet::all()
    }

    /// Called at `sys_enter`.
    fn on_enter(&self, view: &dyn KernelInspect, event: &EnterEvent<'_>);

    /// Called at `sys_exit`.
    fn on_exit(&self, view: &dyn KernelInspect, event: &ExitEvent);
}

/// Identifier returned by [`TracepointRegistry::attach`], used to detach.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProbeId(u64);

/// The slot the kernel lends a live task in every probe's task-local
/// storage, as Linux keeps `BPF_MAP_TYPE_TASK_STORAGE` with the task: a
/// dense index, unique among the registry's live tasks and reused once a
/// task is gone. A probe keeps what one task's `sys_enter` leaves for its
/// `sys_exit` at this index of a table it owns — no lock of its own, no
/// hash, nothing allocated per syscall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskSlot(pub u32);

impl TaskSlot {
    /// The slot as an index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A task's cell: `IDLE`, or the generation of the probe table a traced
/// syscall of the task read. On a line of its own: only its task writes it.
#[repr(align(128))]
#[derive(Debug, Default)]
struct ReaderCell(AtomicU64);

const IDLE: u64 = 0;

/// A live task's registration with the tracepoints
/// ([`TracepointRegistry::register_task`]): the slot it is lent, and the cell
/// through which its traced syscalls hold the probe table they read.
#[derive(Debug)]
pub struct Task {
    slot: TaskSlot,
    cell: Arc<ReaderCell>,
}

impl Task {
    /// The slot this task is lent in probes' task-local storage.
    pub fn slot(&self) -> TaskSlot {
        self.slot
    }
}

/// The probe lists of every kind, as one immutable snapshot: replaced
/// whole on attach and detach, never changed in place.
///
/// It borrows its probes. The registry's attached list owns them, and
/// `detach` drops a probe only after every traced syscall that could have
/// read it has ended — so a table may outlive its probes, but no reader
/// can reach one that is gone.
struct ProbeTable {
    per_kind: Vec<Box<[*const dyn SyscallProbe]>>,
}

// SAFETY: the pointers are shared references in all but lifetime: every
// probe is `Send + Sync`, and the registry keeps each one alive for as long
// as a reader can hold a table naming it (see `TracepointRegistry::read`).
unsafe impl Send for ProbeTable {}
unsafe impl Sync for ProbeTable {}

struct Attached {
    id: ProbeId,
    probe: Arc<dyn SyscallProbe>,
    kinds: SyscallSet,
    /// The generation of the first table that named the probe.
    since: u64,
}

/// What attach and detach change, under the writer lock.
struct Writer {
    next_id: u64,
    attached: Vec<Attached>,
    /// Every table ever published. Attach is rare, and a table is small
    /// (it holds pointers, not probes), so retired tables are kept until
    /// the registry drops rather than tracked until no reader holds them.
    tables: Vec<Arc<ProbeTable>>,
}

/// The tasks lent a slot: `cells[slot]` is the slot's reader cell.
#[derive(Default)]
struct Tasks {
    cells: Vec<Arc<ReaderCell>>,
    free: Vec<u32>,
}

/// The registry of attached probes, indexed by syscall kind.
///
/// Dispatch takes no lock: a traced syscall loads the current probe table
/// once and fires both of its tracepoints from it. Attach and detach build
/// a new table under one writer lock and publish it whole, as Linux
/// tracepoints publish their probe arrays under RCU. Attach never waits;
/// detach waits only for traced syscalls that may be running the probe it
/// removes, and then drops the probe.
pub struct TracepointRegistry {
    /// Bitmap of kinds with ≥1 probe: lets untraced syscalls skip all
    /// tracepoint work with a single atomic load.
    active: AtomicU64,
    /// The current table, owned by `Writer::tables`.
    table: AtomicPtr<ProbeTable>,
    /// Numbers the published tables from 1. A traced syscall announces in
    /// its task's cell the generation it read the table under.
    generation: AtomicU64,
    /// Traced syscalls running while another OS thread held their task's
    /// cell (one `ThreadCtx` shared between threads): counted, not
    /// announced, and waited out by every detach.
    shared_readers: AtomicU64,
    writer: Mutex<Writer>,
    tasks: Mutex<Tasks>,
}

impl std::fmt::Debug for TracepointRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracepointRegistry")
            .field("active_kinds", &self.active.load(Ordering::Relaxed).count_ones())
            .finish()
    }
}

/// One traced syscall's hold on the probe table it read
/// ([`TracepointRegistry::read`]): both of its tracepoints fire from that
/// table, so a probe attached mid-syscall sees neither, and a probe
/// detached mid-syscall sees both — `detach` returns after the syscall ends.
pub struct Traced<'a> {
    table: &'a ProbeTable,
    hold: Hold<'a>,
}

enum Hold<'a> {
    /// The task's own cell, announcing the generation read.
    Cell(&'a AtomicU64),
    /// The registry's count of shared readers.
    Shared(&'a AtomicU64),
}

impl Traced<'_> {
    /// Fires `sys_enter` for `event.kind`.
    pub fn dispatch_enter(&self, view: &dyn KernelInspect, event: &EnterEvent<'_>) {
        for &probe in self.table.per_kind[event.kind as usize].iter() {
            // SAFETY: the table names only probes the registry keeps alive
            // while this hold lasts (`TracepointRegistry::read`).
            unsafe { &*probe }.on_enter(view, event);
        }
    }

    /// Fires `sys_exit` for `event.kind`.
    pub fn dispatch_exit(&self, view: &dyn KernelInspect, event: &ExitEvent) {
        for &probe in self.table.per_kind[event.kind as usize].iter() {
            // SAFETY: as in `dispatch_enter`.
            unsafe { &*probe }.on_exit(view, event);
        }
    }
}

impl Drop for Traced<'_> {
    fn drop(&mut self) {
        match self.hold {
            Hold::Cell(cell) => cell.store(IDLE, Ordering::Release),
            Hold::Shared(count) => {
                count.fetch_sub(1, Ordering::Release);
            }
        }
    }
}

impl TracepointRegistry {
    /// Creates a registry with no probes.
    pub fn new() -> Self {
        let empty = Arc::new(ProbeTable {
            per_kind: (0..SyscallKind::ALL.len()).map(|_| Box::default()).collect(),
        });
        TracepointRegistry {
            active: AtomicU64::new(0),
            table: AtomicPtr::new(Arc::as_ptr(&empty).cast_mut()),
            generation: AtomicU64::new(1),
            shared_readers: AtomicU64::new(0),
            writer: Mutex::new(Writer { next_id: 1, attached: Vec::new(), tables: vec![empty] }),
            tasks: Mutex::new(Tasks::default()),
        }
    }

    /// Lends a new task a free slot — one an exited task gave back, when
    /// there is one. Give it back with [`TracepointRegistry::release_task`]
    /// when the task exits.
    pub fn register_task(&self) -> Task {
        let mut tasks = self.tasks.lock();
        let slot = match tasks.free.pop() {
            Some(slot) => slot,
            None => {
                tasks.cells.push(Arc::default());
                (tasks.cells.len() - 1) as u32
            }
        };
        Task { slot: TaskSlot(slot), cell: Arc::clone(&tasks.cells[slot as usize]) }
    }

    /// Takes back an exited task's slot, to lend it again. Call once per
    /// task, after its last traced syscall.
    pub fn release_task(&self, task: &Task) {
        self.tasks.lock().free.push(task.slot.0);
    }

    /// Attaches a probe to the tracepoints of every kind in `probe.kinds()`.
    pub fn attach(&self, probe: Arc<dyn SyscallProbe>) -> ProbeId {
        let mut writer = self.writer.lock();
        let id = ProbeId(writer.next_id);
        writer.next_id += 1;
        // The generation moves before the table does: a syscall that reads
        // the new table validates under a generation at or past `since`.
        let since = self.generation.load(Ordering::Relaxed) + 1;
        self.generation.store(since, Ordering::SeqCst);
        let kinds = probe.kinds();
        writer.attached.push(Attached { id, probe, kinds, since });
        self.publish(&mut writer);
        id
    }

    /// Detaches a probe from all tracepoints. Returns once no traced
    /// syscall can call the probe any more; a syscall that read a table
    /// without it is not waited for.
    pub fn detach(&self, id: ProbeId) {
        let mut writer = self.writer.lock();
        let Some(at) = writer.attached.iter().position(|a| a.id == id) else { return };
        let gone = writer.attached.remove(at);
        self.publish(&mut writer);
        // The table moved before the generation does: a syscall that still
        // holds the old table announced a generation below `until`.
        let until = self.generation.load(Ordering::Relaxed) + 1;
        self.generation.store(until, Ordering::SeqCst);
        drop(writer);
        self.wait_for_readers(gone.since, until);
    }

    /// Builds the table of the attached probes and makes it current.
    fn publish(&self, writer: &mut Writer) {
        let mut per_kind = vec![Vec::new(); SyscallKind::ALL.len()];
        let mut active = 0u64;
        for attached in &writer.attached {
            for kind in attached.kinds.iter() {
                per_kind[kind as usize].push(Arc::as_ptr(&attached.probe));
                active |= 1 << kind as u32;
            }
        }
        let table = Arc::new(ProbeTable {
            per_kind: per_kind.into_iter().map(Vec::into_boxed_slice).collect(),
        });
        self.table.store(Arc::as_ptr(&table).cast_mut(), Ordering::SeqCst);
        self.active.store(active, Ordering::Release);
        writer.tables.push(table);
    }

    /// Waits until no traced syscall holds a table read under a generation
    /// in `since..until` — the tables that named a probe now detached — and
    /// no shared reader holds any.
    fn wait_for_readers(&self, since: u64, until: u64) {
        let cells = self.tasks.lock().cells.clone();
        let holds = |cell: &ReaderCell| {
            let seen = cell.0.load(Ordering::SeqCst);
            seen != IDLE && (since..until).contains(&seen)
        };
        for cell in &cells {
            while holds(cell) {
                std::thread::yield_now();
            }
        }
        while self.shared_readers.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
    }

    /// Whether any probe observes `kind` (hot-path check).
    #[inline]
    pub fn is_traced(&self, kind: SyscallKind) -> bool {
        self.active.load(Ordering::Acquire) & (1 << kind as u32) != 0
    }

    /// Reads the current probe table for one traced syscall of `task`.
    ///
    /// The task announces in its cell the generation it read under, then
    /// checks the generation has not moved; `detach` publishes a table
    /// without the probe, moves the generation, and waits while a cell
    /// announces a generation under which the probe was published. (All of
    /// these accesses are sequentially consistent, so a detach that misses
    /// the announcement was published before the read, which then sees
    /// the new table.) When another OS thread holds the task's cell, the
    /// syscall is counted as a shared reader instead.
    pub fn read<'a>(&'a self, task: &'a Task) -> Traced<'a> {
        let cell = &task.cell.0;
        let mut seen = self.generation.load(Ordering::SeqCst);
        let hold = if cell.compare_exchange(IDLE, seen, Ordering::SeqCst, Ordering::Relaxed).is_ok()
        {
            loop {
                let table = self.table.load(Ordering::SeqCst);
                let now = self.generation.load(Ordering::SeqCst);
                if now == seen {
                    // SAFETY: tables live as long as the registry.
                    return Traced { table: unsafe { &*table }, hold: Hold::Cell(cell) };
                }
                seen = now;
                cell.store(seen, Ordering::SeqCst);
            }
        } else {
            self.shared_readers.fetch_add(1, Ordering::SeqCst);
            Hold::Shared(&self.shared_readers)
        };
        // SAFETY: tables live as long as the registry.
        Traced { table: unsafe { &*self.table.load(Ordering::SeqCst) }, hold }
    }
}

impl Default for TracepointRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    struct CountingProbe {
        kinds: SyscallSet,
        enters: AtomicUsize,
        exits: AtomicUsize,
    }

    impl SyscallProbe for CountingProbe {
        fn kinds(&self) -> SyscallSet {
            self.kinds
        }
        fn on_enter(&self, _: &dyn KernelInspect, _: &EnterEvent<'_>) {
            self.enters.fetch_add(1, Ordering::Relaxed);
        }
        fn on_exit(&self, _: &dyn KernelInspect, _: &ExitEvent) {
            self.exits.fetch_add(1, Ordering::Relaxed);
        }
    }

    struct NullView;
    impl KernelInspect for NullView {
        fn fd_info(&self, _: Pid, _: i32) -> Option<FdInfo> {
            None
        }
        fn fd_path_matches(&self, _: Pid, _: i32, _: &dyn Fn(&str) -> bool) -> bool {
            false
        }
    }

    fn enter(kind: SyscallKind, comm: &Arc<str>) -> EnterEvent<'_> {
        EnterEvent {
            kind,
            pid: Pid(1),
            tid: Tid(1),
            comm,
            cpu: 0,
            time_ns: 0,
            args: &[],
            path: None,
            fd: None,
            slot: TaskSlot(0),
        }
    }

    fn exit(kind: SyscallKind) -> ExitEvent {
        ExitEvent {
            kind,
            pid: Pid(1),
            tid: Tid(1),
            cpu: 0,
            time_ns: 0,
            ret: 0,
            mono_ns: 1,
            slot: TaskSlot(0),
        }
    }

    fn counting(kinds: impl IntoIterator<Item = SyscallKind>) -> Arc<CountingProbe> {
        Arc::new(CountingProbe {
            kinds: kinds.into_iter().collect(),
            enters: AtomicUsize::new(0),
            exits: AtomicUsize::new(0),
        })
    }

    #[test]
    fn attach_dispatch_detach() {
        let reg = TracepointRegistry::new();
        let task = reg.register_task();
        let probe = counting([SyscallKind::Read]);
        assert!(!reg.is_traced(SyscallKind::Read));
        let id = reg.attach(Arc::clone(&probe) as Arc<dyn SyscallProbe>);
        assert!(reg.is_traced(SyscallKind::Read));
        assert!(!reg.is_traced(SyscallKind::Write));

        let comm = Arc::from("t");
        reg.read(&task).dispatch_enter(&NullView, &enter(SyscallKind::Read, &comm));
        reg.read(&task).dispatch_enter(&NullView, &enter(SyscallKind::Write, &comm));
        assert_eq!(probe.enters.load(Ordering::Relaxed), 2 - 1); // only Read routed

        reg.detach(id);
        assert!(!reg.is_traced(SyscallKind::Read));
        reg.read(&task).dispatch_enter(&NullView, &enter(SyscallKind::Read, &comm));
        assert_eq!(probe.enters.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn multiple_probes_share_a_tracepoint() {
        let reg = TracepointRegistry::new();
        let task = reg.register_task();
        let (a, b) = (counting([SyscallKind::Close]), counting([SyscallKind::Close]));
        let id_a = reg.attach(Arc::clone(&a) as Arc<dyn SyscallProbe>);
        reg.attach(Arc::clone(&b) as Arc<dyn SyscallProbe>);
        reg.read(&task).dispatch_exit(&NullView, &exit(SyscallKind::Close));
        assert_eq!(a.exits.load(Ordering::Relaxed), 1);
        assert_eq!(b.exits.load(Ordering::Relaxed), 1);
        // Detaching one keeps the kind active for the other.
        reg.detach(id_a);
        assert!(reg.is_traced(SyscallKind::Close));
    }

    /// Both tracepoints of one syscall fire from the table it read at
    /// entry: a probe attached in between sees neither half.
    #[test]
    fn a_syscall_fires_both_halves_from_one_table() {
        let reg = TracepointRegistry::new();
        let task = reg.register_task();
        let (first, late) = (counting([SyscallKind::Fsync]), counting([SyscallKind::Fsync]));
        reg.attach(Arc::clone(&first) as Arc<dyn SyscallProbe>);
        let comm = Arc::from("t");
        let traced = reg.read(&task);
        traced.dispatch_enter(&NullView, &enter(SyscallKind::Fsync, &comm));
        reg.attach(Arc::clone(&late) as Arc<dyn SyscallProbe>);
        traced.dispatch_exit(&NullView, &exit(SyscallKind::Fsync));
        drop(traced);
        assert_eq!(first.exits.load(Ordering::Relaxed), 1);
        assert_eq!(late.enters.load(Ordering::Relaxed) + late.exits.load(Ordering::Relaxed), 0);
    }

    /// Slots are dense among live tasks: an exited task's slot is lent
    /// again.
    #[test]
    fn an_exited_tasks_slot_is_lent_again() {
        let reg = TracepointRegistry::new();
        let (a, b) = (reg.register_task(), reg.register_task());
        assert_ne!(a.slot(), b.slot());
        reg.release_task(&a);
        assert_eq!(reg.register_task().slot(), a.slot());
    }

    /// Attach and detach do not wait for a dispatch that runs another
    /// probe: with one probe parked inside `on_enter`, a second probe is
    /// attached and detached at once. (While probe lists sat behind a
    /// read-write lock that dispatch held, `attach` waited for the parked
    /// probe, and this test timed out.)
    #[test]
    fn attach_and_detach_do_not_wait_for_a_parked_dispatch() {
        use std::sync::mpsc;
        use std::sync::Barrier;
        use std::time::Duration;

        struct Parked {
            entered: Barrier,
            release: Barrier,
        }
        impl SyscallProbe for Parked {
            fn kinds(&self) -> SyscallSet {
                [SyscallKind::Read].into_iter().collect()
            }
            fn on_enter(&self, _: &dyn KernelInspect, _: &EnterEvent<'_>) {
                self.entered.wait();
                self.release.wait();
            }
            fn on_exit(&self, _: &dyn KernelInspect, _: &ExitEvent) {}
        }

        let reg = Arc::new(TracepointRegistry::new());
        let parked = Arc::new(Parked { entered: Barrier::new(2), release: Barrier::new(2) });
        reg.attach(Arc::clone(&parked) as Arc<dyn SyscallProbe>);
        let dispatcher = {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                let task = reg.register_task();
                let comm = Arc::from("t");
                reg.read(&task).dispatch_enter(&NullView, &enter(SyscallKind::Read, &comm));
            })
        };
        parked.entered.wait();
        let (done, finished) = mpsc::channel();
        {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                let second = counting([SyscallKind::Read, SyscallKind::Write]);
                let id = reg.attach(second as Arc<dyn SyscallProbe>);
                let _ = done.send("attach");
                reg.detach(id);
                let _ = done.send("detach");
            });
        }
        for step in ["attach", "detach"] {
            let returned = finished.recv_timeout(Duration::from_secs(1));
            assert_eq!(returned, Ok(step), "{step} waited for the parked dispatch");
        }
        parked.release.wait();
        dispatcher.join().unwrap();
    }

    #[test]
    fn fd_info_tag() {
        let info = FdInfo {
            file_type: FileType::Regular,
            offset: 0,
            dev: 7,
            ino: 12,
            first_access_ns: 99,
        };
        assert_eq!(info.tag(), FileTag::new(7, 12, 99));
    }
}
