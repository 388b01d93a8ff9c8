//! Syscall tracepoints: the kernel-side attachment points for eBPF-style
//! probes.
//!
//! The simulated kernel fires `sys_enter`/`sys_exit` for every executed
//! syscall whose kind has at least one attached probe, mirroring Linux's
//! `tracepoint:syscalls:sys_enter_*` / `sys_exit_*` pairs. Probes run
//! *synchronously in the syscall path* — whatever work they do is overhead
//! charged to the traced application, exactly as with real eBPF programs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

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

/// Probes attached to one syscall kind's tracepoint pair.
type ProbeList = Vec<(ProbeId, Arc<dyn SyscallProbe>)>;

/// The registry of attached probes, indexed by syscall kind.
pub struct TracepointRegistry {
    per_kind: Vec<RwLock<ProbeList>>,
    /// Bitmap of kinds with ≥1 probe: lets untraced syscalls skip all
    /// tracepoint work with a single atomic load.
    active: AtomicU64,
    next_id: AtomicU64,
}

impl std::fmt::Debug for TracepointRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracepointRegistry")
            .field("active_kinds", &self.active.load(Ordering::Relaxed).count_ones())
            .finish()
    }
}

impl TracepointRegistry {
    /// Creates a registry with no probes.
    pub fn new() -> Self {
        TracepointRegistry {
            per_kind: (0..SyscallKind::ALL.len()).map(|_| RwLock::new(Vec::new())).collect(),
            active: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
        }
    }

    /// Attaches a probe to the tracepoints of every kind in `probe.kinds()`.
    pub fn attach(&self, probe: Arc<dyn SyscallProbe>) -> ProbeId {
        let id = ProbeId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let kinds = probe.kinds();
        for kind in kinds.iter() {
            self.per_kind[kind as usize].write().push((id, Arc::clone(&probe)));
        }
        let mut bits = 0u64;
        for kind in kinds.iter() {
            bits |= 1 << kind as u32;
        }
        self.active.fetch_or(bits, Ordering::Release);
        id
    }

    /// Detaches a probe from all tracepoints.
    pub fn detach(&self, id: ProbeId) {
        let mut still_active = 0u64;
        for (i, slot) in self.per_kind.iter().enumerate() {
            let mut probes = slot.write();
            probes.retain(|(pid, _)| *pid != id);
            if !probes.is_empty() {
                still_active |= 1 << i as u32;
            }
        }
        self.active.store(still_active, Ordering::Release);
    }

    /// Whether any probe observes `kind` (hot-path check).
    #[inline]
    pub fn is_traced(&self, kind: SyscallKind) -> bool {
        self.active.load(Ordering::Acquire) & (1 << kind as u32) != 0
    }

    /// Fires `sys_enter` for `event.kind`.
    pub fn dispatch_enter(&self, view: &dyn KernelInspect, event: &EnterEvent<'_>) {
        for (_, probe) in self.per_kind[event.kind as usize].read().iter() {
            probe.on_enter(view, event);
        }
    }

    /// Fires `sys_exit` for `event.kind`.
    pub fn dispatch_exit(&self, view: &dyn KernelInspect, event: &ExitEvent) {
        for (_, probe) in self.per_kind[event.kind as usize].read().iter() {
            probe.on_exit(view, event);
        }
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
        }
    }

    #[test]
    fn attach_dispatch_detach() {
        let reg = TracepointRegistry::new();
        let probe = Arc::new(CountingProbe {
            kinds: [SyscallKind::Read].into_iter().collect(),
            enters: AtomicUsize::new(0),
            exits: AtomicUsize::new(0),
        });
        assert!(!reg.is_traced(SyscallKind::Read));
        let id = reg.attach(Arc::clone(&probe) as Arc<dyn SyscallProbe>);
        assert!(reg.is_traced(SyscallKind::Read));
        assert!(!reg.is_traced(SyscallKind::Write));

        let comm = Arc::from("t");
        reg.dispatch_enter(&NullView, &enter(SyscallKind::Read, &comm));
        reg.dispatch_enter(&NullView, &enter(SyscallKind::Write, &comm));
        assert_eq!(probe.enters.load(Ordering::Relaxed), 2 - 1); // only Read routed

        reg.detach(id);
        assert!(!reg.is_traced(SyscallKind::Read));
        reg.dispatch_enter(&NullView, &enter(SyscallKind::Read, &comm));
        assert_eq!(probe.enters.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn multiple_probes_share_a_tracepoint() {
        let reg = TracepointRegistry::new();
        let mk = || {
            Arc::new(CountingProbe {
                kinds: [SyscallKind::Close].into_iter().collect(),
                enters: AtomicUsize::new(0),
                exits: AtomicUsize::new(0),
            })
        };
        let (a, b) = (mk(), mk());
        let id_a = reg.attach(Arc::clone(&a) as Arc<dyn SyscallProbe>);
        reg.attach(Arc::clone(&b) as Arc<dyn SyscallProbe>);
        reg.dispatch_exit(
            &NullView,
            &ExitEvent {
                kind: SyscallKind::Close,
                pid: Pid(1),
                tid: Tid(1),
                cpu: 0,
                time_ns: 0,
                ret: 0,
                mono_ns: 1,
            },
        );
        assert_eq!(a.exits.load(Ordering::Relaxed), 1);
        assert_eq!(b.exits.load(Ordering::Relaxed), 1);
        // Detaching one keeps the kind active for the other.
        reg.detach(id_a);
        assert!(reg.is_traced(SyscallKind::Close));
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
