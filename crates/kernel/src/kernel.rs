//! The simulated kernel: processes, mounts, tracepoints, clock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use dio_syscall::{Pid, SyscallClass, SyscallKind, Tid};
use dio_telemetry::MetricsRegistry;

use crate::clock::SimClock;
use crate::disk::DiskProfile;
use crate::errno::{Errno, SysResult};
use crate::fd::{FdTable, OpenFile};
use crate::syscalls::ThreadCtx;
use crate::tracepoint::{FdInfo, KernelInspect, TracepointRegistry};
use crate::vfs::Vfs;

/// Device number used for the root mount, matching the `dev_no` shown in the
/// paper's Fig. 2 trace tables.
pub const ROOT_DEV: u64 = 7_340_032;

pub(crate) struct ProcessInner {
    pub(crate) pid: Pid,
    pub(crate) name: String,
    pub(crate) fds: FdTable,
    pub(crate) threads: Mutex<Vec<Tid>>,
    pub(crate) exited: std::sync::atomic::AtomicBool,
}

/// A simulated process. Cloning shares the underlying process.
#[derive(Clone)]
pub struct Process {
    pub(crate) kernel: Kernel,
    pub(crate) inner: Arc<ProcessInner>,
}

impl std::fmt::Debug for Process {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Process")
            .field("pid", &self.inner.pid)
            .field("name", &self.inner.name)
            .finish()
    }
}

impl Process {
    /// The process id.
    pub fn pid(&self) -> Pid {
        self.inner.pid
    }

    /// The process name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Registers a thread of this process and returns its syscall context.
    ///
    /// `comm` is the thread name a tracer observes (e.g. `rocksdb:low3`).
    /// The thread is assigned to a CPU round-robin, like a default scheduler
    /// spreading runnable threads.
    pub fn spawn_thread(&self, comm: impl Into<String>) -> ThreadCtx {
        let tid = Tid(self.kernel.inner.next_tid.fetch_add(1, Ordering::Relaxed));
        self.inner.threads.lock().push(tid);
        let cpu =
            self.kernel.inner.next_cpu.fetch_add(1, Ordering::Relaxed) % self.kernel.inner.num_cpus;
        let comm = Arc::from(comm.into());
        ThreadCtx::new(self.kernel.clone(), Arc::clone(&self.inner), tid, comm, cpu)
    }

    /// The thread ids registered so far.
    pub fn thread_ids(&self) -> Vec<Tid> {
        self.inner.threads.lock().clone()
    }

    /// Number of open file descriptors.
    pub fn open_fds(&self) -> usize {
        self.inner.fds.len()
    }

    /// Whether the process has exited.
    pub fn has_exited(&self) -> bool {
        self.inner.exited.load(Ordering::Acquire)
    }

    /// Marks the process as exited, closing all of its descriptors (as the
    /// kernel does on `exit_group`). The paper's tracer stops "once its
    /// main and child processes finish" — [`crate::Kernel::all_exited`]
    /// exposes that condition.
    pub fn exit(&self) {
        self.inner.fds.clear();
        self.inner.exited.store(true, Ordering::Release);
    }
}

/// Syscalls dispatched since boot, one cell per [`SyscallClass`] (indexed by
/// [`class_slot`]): the kernel counts each syscall once, here, and every
/// registry bound with [`Kernel::bind_telemetry`] reads the cells.
type ClassCells = [AtomicU64; 4];

fn sum(cells: &ClassCells) -> u64 {
    cells.iter().map(|c| c.load(Ordering::Relaxed)).sum()
}

fn class_slot(class: SyscallClass) -> usize {
    match class {
        SyscallClass::Data => 0,
        SyscallClass::Metadata => 1,
        SyscallClass::ExtendedAttributes => 2,
        SyscallClass::DirectoryManagement => 3,
    }
}

pub(crate) struct KernelState {
    clock: SimClock,
    /// Mount table: `(prefix, vfs)`, longest prefix wins. `/` is always last.
    mounts: RwLock<Vec<(String, Arc<Vfs>)>>,
    processes: Mutex<HashMap<Pid, Arc<ProcessInner>>>,
    tracepoints: TracepointRegistry,
    num_cpus: u32,
    next_pid: AtomicU32,
    next_tid: AtomicU32,
    next_cpu: AtomicU32,
    /// Shared with the readers bound registries hold.
    by_class: Arc<ClassCells>,
}

/// Handle to the simulated kernel. Cloning is cheap and shares state.
///
/// # Examples
///
/// ```
/// use dio_kernel::Kernel;
///
/// let kernel = Kernel::new();
/// let proc = kernel.spawn_process("app");
/// let thread = proc.spawn_thread("app");
/// let fd = thread.openat("/data.log", dio_kernel::OpenFlags::CREAT | dio_kernel::OpenFlags::WRONLY, 0o644)?;
/// thread.write(fd, b"hello")?;
/// thread.close(fd)?;
/// # Ok::<(), dio_kernel::Errno>(())
/// ```
#[derive(Clone)]
pub struct Kernel {
    pub(crate) inner: Arc<KernelState>,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("num_cpus", &self.inner.num_cpus)
            .field("syscalls_executed", &self.syscalls_executed())
            .finish()
    }
}

/// Builder for [`Kernel`] (CPU count, root disk profile, clock).
#[derive(Debug)]
pub struct KernelBuilder {
    num_cpus: u32,
    root_profile: DiskProfile,
    clock: Option<SimClock>,
}

impl KernelBuilder {
    /// Number of CPUs (default 4, like the paper's application server).
    pub fn num_cpus(mut self, n: u32) -> Self {
        self.num_cpus = n.max(1);
        self
    }

    /// Disk profile of the root mount (default NVMe-like).
    pub fn root_disk(mut self, profile: DiskProfile) -> Self {
        self.root_profile = profile;
        self
    }

    /// Uses a caller-provided clock (e.g. to share across kernels).
    pub fn clock(mut self, clock: SimClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Builds the kernel with a root mount at `/`.
    pub fn build(self) -> Kernel {
        let clock = self.clock.unwrap_or_default();
        let root = Vfs::new(ROOT_DEV, self.root_profile, clock.clone());
        Kernel {
            inner: Arc::new(KernelState {
                clock,
                mounts: RwLock::new(vec![("/".to_string(), root)]),
                processes: Mutex::new(HashMap::new()),
                tracepoints: TracepointRegistry::new(),
                num_cpus: self.num_cpus,
                next_pid: AtomicU32::new(1000),
                next_tid: AtomicU32::new(1000),
                next_cpu: AtomicU32::new(0),
                by_class: Arc::default(),
            }),
        }
    }
}

impl Kernel {
    /// A kernel with 4 CPUs and an NVMe-like root disk.
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// Starts building a kernel.
    pub fn builder() -> KernelBuilder {
        KernelBuilder { num_cpus: 4, root_profile: DiskProfile::nvme(), clock: None }
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.inner.clock
    }

    /// The tracepoint registry (probe attachment surface).
    pub fn tracepoints(&self) -> &TracepointRegistry {
        &self.inner.tracepoints
    }

    /// Number of simulated CPUs.
    pub fn num_cpus(&self) -> u32 {
        self.inner.num_cpus
    }

    /// Total syscalls executed since boot.
    pub fn syscalls_executed(&self) -> u64 {
        sum(&self.inner.by_class)
    }

    /// Counts one syscall, once, in its class's cell.
    pub(crate) fn count_syscall(&self, kind: SyscallKind) {
        self.inner.by_class[class_slot(kind.class())].fetch_add(1, Ordering::Relaxed);
    }

    /// Registers the kernel's dispatch metrics (`kernel.syscalls.class.<class>`,
    /// and `kernel.syscalls.dispatched`, their sum) with `registry`, as
    /// readers of the kernel's cells that count from this call on. Each
    /// registry bound — one per traced session — counts the syscalls
    /// dispatched since its own bind.
    pub fn bind_telemetry(&self, registry: &MetricsRegistry) {
        const NAMES: [&str; 4] = [
            "kernel.syscalls.class.data",
            "kernel.syscalls.class.metadata",
            "kernel.syscalls.class.extended_attributes",
            "kernel.syscalls.class.directory_management",
        ];
        let base: [u64; 4] =
            std::array::from_fn(|i| self.inner.by_class[i].load(Ordering::Relaxed));
        let since = move |cells: &ClassCells, i: usize| {
            cells[i].load(Ordering::Relaxed).saturating_sub(base[i])
        };
        for (i, name) in NAMES.into_iter().enumerate() {
            let cells = Arc::clone(&self.inner.by_class);
            registry.counter_fn(name, move || since(&cells, i));
        }
        let cells = Arc::clone(&self.inner.by_class);
        registry.counter_fn("kernel.syscalls.dispatched", move || {
            (0..NAMES.len()).map(|i| since(&cells, i)).sum()
        });
    }

    /// Mounts a file system at `prefix` (e.g. `/log`). Longest prefix wins
    /// during resolution.
    ///
    /// # Panics
    ///
    /// Panics if `prefix` does not start with `/`.
    pub fn mount(&self, prefix: impl Into<String>, vfs: Arc<Vfs>) {
        let prefix = prefix.into();
        assert!(prefix.starts_with('/'), "mount prefix must be absolute");
        let mut mounts = self.inner.mounts.write();
        mounts.push((prefix, vfs));
        mounts.sort_by_key(|(p, _)| std::cmp::Reverse(p.len()));
    }

    /// The root file system.
    pub fn root_vfs(&self) -> Arc<Vfs> {
        let mounts = self.inner.mounts.read();
        mounts
            .iter()
            .find(|(p, _)| p == "/")
            .map(|(_, v)| Arc::clone(v))
            .expect("root mount always exists")
    }

    /// Resolves `path` to its mount, returning the file system and the path
    /// *within* that file system.
    ///
    /// # Errors
    ///
    /// `ENOENT` when no mount covers the path (cannot happen while `/` is
    /// mounted); `EINVAL` for relative paths.
    pub fn resolve_mount(&self, path: &str) -> SysResult<(Arc<Vfs>, String)> {
        if !path.starts_with('/') {
            return Err(Errno::EINVAL);
        }
        let mounts = self.inner.mounts.read();
        for (prefix, vfs) in mounts.iter() {
            let matched = if prefix == "/" {
                true
            } else {
                path == prefix || path.starts_with(&format!("{prefix}/"))
            };
            if matched {
                let inner =
                    if prefix == "/" { path.to_string() } else { path[prefix.len()..].to_string() };
                let inner = if inner.is_empty() { "/".to_string() } else { inner };
                return Ok((Arc::clone(vfs), inner));
            }
        }
        Err(Errno::ENOENT)
    }

    /// Creates a new process.
    pub fn spawn_process(&self, name: impl Into<String>) -> Process {
        let pid = Pid(self.inner.next_pid.fetch_add(1, Ordering::Relaxed));
        let inner = Arc::new(ProcessInner {
            pid,
            name: name.into(),
            fds: FdTable::new(),
            threads: Mutex::new(Vec::new()),
            exited: std::sync::atomic::AtomicBool::new(false),
        });
        self.inner.processes.lock().insert(pid, Arc::clone(&inner));
        Process { kernel: self.clone(), inner }
    }

    /// Looks up a process by pid.
    pub fn process(&self, pid: Pid) -> Option<Process> {
        self.inner
            .processes
            .lock()
            .get(&pid)
            .map(|inner| Process { kernel: self.clone(), inner: Arc::clone(inner) })
    }

    /// Pids of all live processes.
    pub fn pids(&self) -> Vec<Pid> {
        let mut v: Vec<Pid> = self.inner.processes.lock().keys().copied().collect();
        v.sort();
        v
    }

    /// Whether every process in `pids` has exited (unknown pids count as
    /// exited, as they would after reaping).
    pub fn all_exited(&self, pids: &[Pid]) -> bool {
        let processes = self.inner.processes.lock();
        pids.iter().all(|pid| processes.get(pid).is_none_or(|p| p.exited.load(Ordering::Acquire)))
    }

    /// An inspector implementing [`KernelInspect`] for the probes a
    /// syscall of process `current` fires.
    pub(crate) fn inspector<'a>(&'a self, current: &'a ProcessInner) -> KernelViewImpl<'a> {
        KernelViewImpl { kernel: self, current }
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

/// Concrete [`KernelInspect`] over a [`Kernel`], for the task `current`.
pub(crate) struct KernelViewImpl<'a> {
    kernel: &'a Kernel,
    current: &'a ProcessInner,
}

impl KernelViewImpl<'_> {
    /// Reads descriptor `fd` of process `pid` in place. The caller's own
    /// table is at hand; another process's is found through the kernel-wide
    /// process table first.
    fn with_file<R>(&self, pid: Pid, fd: i32, read: impl FnOnce(&OpenFile) -> R) -> Option<R> {
        if pid == self.current.pid {
            return self.current.fds.with(fd, read);
        }
        let other = self.kernel.inner.processes.lock().get(&pid).cloned()?;
        other.fds.with(fd, read)
    }
}

impl KernelInspect for KernelViewImpl<'_> {
    fn fd_info(&self, pid: Pid, fd: i32) -> Option<FdInfo> {
        self.with_file(pid, fd, |file| {
            let inode = file.inode();
            FdInfo {
                file_type: inode.file_type(),
                offset: file.offset(),
                dev: inode.dev(),
                ino: inode.ino(),
                first_access_ns: inode.first_access_ns(),
            }
        })
    }

    fn fd_path_matches(&self, pid: Pid, fd: i32, pred: &dyn Fn(&str) -> bool) -> bool {
        self.with_file(pid, fd, |file| pred(file.path())).unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_kernel() -> Kernel {
        Kernel::builder().root_disk(DiskProfile::instant()).build()
    }

    #[test]
    fn pids_and_tids_are_unique() {
        let k = fast_kernel();
        let p1 = k.spawn_process("a");
        let p2 = k.spawn_process("b");
        assert_ne!(p1.pid(), p2.pid());
        let t1 = p1.spawn_thread("a0");
        let t2 = p1.spawn_thread("a1");
        assert_ne!(t1.tid(), t2.tid());
        assert_eq!(p1.thread_ids().len(), 2);
        assert_eq!(k.pids().len(), 2);
    }

    #[test]
    fn cpu_assignment_round_robins() {
        let k = Kernel::builder().num_cpus(2).root_disk(DiskProfile::instant()).build();
        let p = k.spawn_process("a");
        let cpus: Vec<u32> = (0..4).map(|i| p.spawn_thread(format!("t{i}")).cpu()).collect();
        assert_eq!(cpus, vec![0, 1, 0, 1]);
    }

    #[test]
    fn mount_resolution_longest_prefix() {
        let k = fast_kernel();
        let log_vfs = Vfs::new(999, DiskProfile::instant(), k.clock().clone());
        k.mount("/log", log_vfs);
        let (vfs, inner) = k.resolve_mount("/log/app.log").unwrap();
        assert_eq!(vfs.dev(), 999);
        assert_eq!(inner, "/app.log");
        let (vfs, inner) = k.resolve_mount("/data/x").unwrap();
        assert_eq!(vfs.dev(), ROOT_DEV);
        assert_eq!(inner, "/data/x");
        // `/logs` must NOT match the `/log` mount.
        let (vfs, _) = k.resolve_mount("/logs/x").unwrap();
        assert_eq!(vfs.dev(), ROOT_DEV);
        assert!(k.resolve_mount("relative").is_err());
    }

    #[test]
    fn process_lookup() {
        let k = fast_kernel();
        let p = k.spawn_process("svc");
        let found = k.process(p.pid()).unwrap();
        assert_eq!(found.name(), "svc");
        assert!(k.process(Pid(1)).is_none());
    }

    #[test]
    fn inspector_reads_fd_state() {
        let k = fast_kernel();
        let p = k.spawn_process("app");
        let t = p.spawn_thread("app");
        let fd = t
            .openat("/f", crate::fd::OpenFlags::CREAT | crate::fd::OpenFlags::RDWR, 0o644)
            .unwrap();
        t.write(fd, b"abcd").unwrap();
        let view = k.inspector(&p.inner);
        let info = view.fd_info(p.pid(), fd).unwrap();
        assert_eq!(info.offset, 4);
        assert_eq!(info.dev, ROOT_DEV);
        assert!(info.first_access_ns > 0);
        assert!(view.fd_path_matches(p.pid(), fd, &|path| path == "/f"));
        assert!(!view.fd_path_matches(p.pid(), fd, &|path| path == "/g"));
        assert!(view.fd_info(p.pid(), 99).is_none());
        assert!(!view.fd_path_matches(p.pid(), 99, &|_| true));
    }

    /// A probe fired by one process may inspect another: that lookup goes
    /// through the process table, and finds nothing once the other exited.
    #[test]
    fn inspector_resolves_a_foreign_pid_until_it_exits() {
        let k = fast_kernel();
        let (caller, other) = (k.spawn_process("caller"), k.spawn_process("other"));
        let t = other.spawn_thread("other");
        let fd = t.creat("/other.log", 0o644).unwrap();
        t.write(fd, b"abc").unwrap();
        let view = k.inspector(&caller.inner);
        let own = k.inspector(&other.inner).fd_info(other.pid(), fd);
        assert_eq!(view.fd_info(other.pid(), fd), own);
        assert_eq!(own.map(|info| info.offset), Some(3));
        assert!(view.fd_path_matches(other.pid(), fd, &|path| path == "/other.log"));
        assert!(view.fd_info(caller.pid(), fd).is_none(), "the caller has no such descriptor");
        assert!(view.fd_info(Pid(1), fd).is_none(), "unknown pid");
        other.exit();
        assert!(view.fd_info(other.pid(), fd).is_none());
        assert!(!view.fd_path_matches(other.pid(), fd, &|_| true));
    }
}
