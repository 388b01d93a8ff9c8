#![warn(missing_docs)]

//! A simulated POSIX kernel: the substrate DIO traces.
//!
//! The real DIO attaches eBPF programs to Linux syscall tracepoints. This
//! crate provides the equivalent surface without privileges or a testbed:
//!
//! * a virtual file system ([`Vfs`]) with Linux-style **inode-number reuse**
//!   (lowest free number first) — the mechanism behind the Fluent Bit
//!   data-loss case study (Fig. 2 of the paper);
//! * processes and threads ([`Kernel::spawn_process`],
//!   [`Process::spawn_thread`]) whose [`ThreadCtx`] exposes the 42 storage
//!   syscalls of Table I with Linux argument/return conventions;
//! * `sys_enter`/`sys_exit` tracepoints ([`TracepointRegistry`]) where
//!   probes — DIO's eBPF programs, or the strace/sysdig baselines — attach
//!   and run synchronously in the syscall path;
//! * a shared-bandwidth FCFS disk model ([`Disk`]) that reproduces the I/O
//!   contention between foreground and background threads studied in the
//!   RocksDB experiment (Fig. 3/4).
//!
//! # Examples
//!
//! ```
//! use dio_kernel::{Kernel, OpenFlags};
//!
//! let kernel = Kernel::new();
//! let app = kernel.spawn_process("app");
//! let thread = app.spawn_thread("app");
//!
//! let fd = thread.openat("/app.log", OpenFlags::CREAT | OpenFlags::WRONLY, 0o644)?;
//! thread.write(fd, b"hello syscalls")?;
//! thread.close(fd)?;
//!
//! assert_eq!(kernel.syscalls_executed(), 3);
//! # Ok::<(), dio_kernel::Errno>(())
//! ```

mod clock;
mod disk;
mod errno;
mod fd;
mod kernel;
mod syscalls;
mod tracepoint;
mod vfs;

pub use clock::{SimClock, PAPER_EPOCH_NS};
pub use disk::{Disk, DiskOp, DiskProfile, DiskStats};
pub use errno::{Errno, SysResult};
pub use fd::{FdTable, OpenFile, OpenFlags, Whence, FIRST_FD};
pub use kernel::{Kernel, KernelBuilder, Process, ROOT_DEV};
pub use syscalls::{ThreadCtx, AT_FDCWD, AT_REMOVEDIR, RENAME_NOREPLACE};
pub use tracepoint::{
    EnterEvent, ExitEvent, FdInfo, KernelInspect, ProbeId, SyscallProbe, Task, TaskSlot, Traced,
    TracepointRegistry,
};
pub use vfs::{Inode, InodeContent, StatBuf, StatFs, Vfs};
