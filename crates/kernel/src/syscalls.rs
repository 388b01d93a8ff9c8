//! The syscall interface of the simulated kernel.
//!
//! [`ThreadCtx`] is what an application thread holds; its methods are the 42
//! storage syscalls of Table I. Every invocation fires the `sys_enter` /
//! `sys_exit` tracepoints (when probed) around the actual VFS work, with the
//! same argument/return conventions as Linux — including `-errno` returns in
//! the exit event.

use std::sync::Arc;
use std::time::Instant;

use dio_syscall::{Arg, FileType, Pid, SyscallKind, Tid};

use crate::errno::{Errno, SysResult};
use crate::fd::{OpenFile, OpenFlags, Whence};
use crate::kernel::{Kernel, ProcessInner};
use crate::tracepoint::{EnterEvent, ExitEvent};
use crate::vfs::{StatBuf, StatFs, Vfs};

/// `dirfd` value meaning "relative to the current directory" for `*at`
/// syscalls. The simulator only supports absolute paths, so this is the only
/// meaningful value and appears in traces just as on Linux.
pub const AT_FDCWD: i64 = -100;

/// `unlinkat` flag selecting directory removal.
pub const AT_REMOVEDIR: u32 = 0x200;

/// `renameat2` flag forbidding replacement of an existing target.
pub const RENAME_NOREPLACE: u32 = 1;

/// The syscall context of one simulated thread.
///
/// Obtained from [`crate::Process::spawn_thread`]. Each method performs the
/// syscall, firing tracepoints exactly once per invocation.
pub struct ThreadCtx {
    kernel: Kernel,
    process: Arc<ProcessInner>,
    tid: Tid,
    /// Shared once here, so a probe keeps the name by reference count.
    comm: Arc<str>,
    cpu: u32,
}

impl std::fmt::Debug for ThreadCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadCtx")
            .field("pid", &self.process.pid)
            .field("tid", &self.tid)
            .field("comm", &self.comm)
            .field("cpu", &self.cpu)
            .finish()
    }
}

impl ThreadCtx {
    pub(crate) fn new(
        kernel: Kernel,
        process: Arc<ProcessInner>,
        tid: Tid,
        comm: Arc<str>,
        cpu: u32,
    ) -> Self {
        ThreadCtx { kernel, process, tid, comm, cpu }
    }

    /// The owning process id.
    pub fn pid(&self) -> Pid {
        self.process.pid
    }

    /// This thread's id.
    pub fn tid(&self) -> Tid {
        self.tid
    }

    /// The thread name a tracer observes.
    pub fn comm(&self) -> &str {
        &self.comm
    }

    /// The CPU this thread is pinned to.
    pub fn cpu(&self) -> u32 {
        self.cpu
    }

    /// The kernel this thread runs on.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    // ------------------------------------------------------------ plumbing

    /// Runs `op` as the syscall `kind`, firing tracepoints around it.
    fn invoke<T>(
        &self,
        kind: SyscallKind,
        args: Vec<Arg>,
        path: Option<&str>,
        fd: Option<i32>,
        op: impl FnOnce() -> SysResult<(i64, T)>,
    ) -> SysResult<T> {
        self.kernel.count_syscall(kind);
        let registry = self.kernel.tracepoints();
        if !registry.is_traced(kind) {
            return op().map(|(_, v)| v);
        }
        let view = self.kernel.inspector(&self.process);
        let enter = EnterEvent {
            kind,
            pid: self.process.pid,
            tid: self.tid,
            comm: &self.comm,
            cpu: self.cpu,
            time_ns: self.kernel.clock().now_ns(),
            args: &args,
            path,
            fd,
        };
        registry.dispatch_enter(&view, &enter);
        let result = op();
        let ret = match &result {
            Ok((ret, _)) => *ret,
            Err(e) => e.to_ret(),
        };
        // One reading of the machine's clock is both timestamps.
        let now = Instant::now();
        let exit = ExitEvent {
            kind,
            pid: self.process.pid,
            tid: self.tid,
            cpu: self.cpu,
            time_ns: self.kernel.clock().ns_at(now),
            ret,
            mono_ns: dio_telemetry::monotonic_ns_at(now),
        };
        registry.dispatch_exit(&view, &exit);
        result.map(|(_, v)| v)
    }

    fn resolve(&self, path: &str) -> SysResult<(Arc<Vfs>, String)> {
        self.kernel.resolve_mount(path)
    }

    fn file(&self, fd: i32) -> SysResult<Arc<OpenFile>> {
        self.process.fds.get(fd)
    }

    // ---------------------------------------------------------------- open

    fn do_open(&self, path: &str, flags: OpenFlags) -> SysResult<(i64, i32)> {
        let (vfs, inner) = self.resolve(path)?;
        let inode = if flags.contains(OpenFlags::CREAT) {
            vfs.create_file(&inner, flags.contains(OpenFlags::EXCL))?
        } else {
            vfs.lookup(&inner, true)?
        };
        if inode.file_type() == FileType::Directory && flags.writable() {
            return Err(Errno::EISDIR);
        }
        if flags.contains(OpenFlags::TRUNC)
            && flags.writable()
            && inode.file_type() == FileType::Regular
        {
            vfs.truncate(&inode, 0)?;
        }
        inode.touch_first_access(self.kernel.clock().now_ns());
        let file = OpenFile::new(vfs, inode, flags, path.to_string());
        let fd = self.process.fds.install(file);
        Ok((fd as i64, fd))
    }

    /// `open(path, flags, mode)`.
    ///
    /// # Errors
    ///
    /// `ENOENT`, `EEXIST` (with `O_CREAT|O_EXCL`), `EISDIR`, `EINVAL`.
    pub fn open(&self, path: &str, flags: OpenFlags, mode: u32) -> SysResult<i32> {
        let args =
            vec![Arg::new("path", path), Arg::new("flags", flags.bits()), Arg::new("mode", mode)];
        self.invoke(SyscallKind::Open, args, Some(path), None, || self.do_open(path, flags))
    }

    /// `openat(AT_FDCWD, path, flags, mode)`.
    ///
    /// # Errors
    ///
    /// As [`ThreadCtx::open`].
    pub fn openat(&self, path: &str, flags: OpenFlags, mode: u32) -> SysResult<i32> {
        let args = vec![
            Arg::new("dfd", AT_FDCWD),
            Arg::new("path", path),
            Arg::new("flags", flags.bits()),
            Arg::new("mode", mode),
        ];
        self.invoke(SyscallKind::Openat, args, Some(path), None, || self.do_open(path, flags))
    }

    /// `creat(path, mode)` — equivalent to `open(path, O_WRONLY|O_CREAT|O_TRUNC)`.
    ///
    /// # Errors
    ///
    /// As [`ThreadCtx::open`].
    pub fn creat(&self, path: &str, mode: u32) -> SysResult<i32> {
        let flags = OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::TRUNC;
        let args = vec![Arg::new("path", path), Arg::new("mode", mode)];
        self.invoke(SyscallKind::Creat, args, Some(path), None, || self.do_open(path, flags))
    }

    /// `close(fd)`.
    ///
    /// # Errors
    ///
    /// `EBADF` for unknown descriptors.
    pub fn close(&self, fd: i32) -> SysResult<()> {
        let args = vec![Arg::new("fd", fd)];
        self.invoke(SyscallKind::Close, args, None, Some(fd), || {
            self.process.fds.remove(fd)?;
            Ok((0, ()))
        })
    }

    // ------------------------------------------------------------ data path

    /// `read(fd, buf)` — reads at the current offset, advancing it.
    ///
    /// # Errors
    ///
    /// `EBADF` when `fd` is unknown or not readable; `EISDIR`.
    pub fn read(&self, fd: i32, buf: &mut [u8]) -> SysResult<usize> {
        let args = vec![Arg::new("fd", fd), Arg::new("count", buf.len())];
        self.invoke(SyscallKind::Read, args, None, Some(fd), || {
            let file = self.file(fd)?;
            if !file.flags().readable() {
                return Err(Errno::EBADF);
            }
            let off = file.offset();
            let n = file.vfs().read_at(file.inode(), off, buf)?;
            file.set_offset(off + n as u64);
            Ok((n as i64, n))
        })
    }

    /// `pread64(fd, buf, offset)` — positional read; the cursor is unchanged.
    ///
    /// # Errors
    ///
    /// As [`ThreadCtx::read`].
    pub fn pread64(&self, fd: i32, buf: &mut [u8], offset: u64) -> SysResult<usize> {
        let args =
            vec![Arg::new("fd", fd), Arg::new("count", buf.len()), Arg::new("offset", offset)];
        self.invoke(SyscallKind::Pread64, args, None, Some(fd), || {
            let file = self.file(fd)?;
            if !file.flags().readable() {
                return Err(Errno::EBADF);
            }
            let n = file.vfs().read_at(file.inode(), offset, buf)?;
            Ok((n as i64, n))
        })
    }

    /// `readv(fd, iov)` — scatter read into multiple buffers.
    ///
    /// # Errors
    ///
    /// As [`ThreadCtx::read`].
    pub fn readv(&self, fd: i32, bufs: &mut [&mut [u8]]) -> SysResult<usize> {
        let total: usize = bufs.iter().map(|b| b.len()).sum();
        let args =
            vec![Arg::new("fd", fd), Arg::new("iovcnt", bufs.len()), Arg::new("count", total)];
        self.invoke(SyscallKind::Readv, args, None, Some(fd), || {
            let file = self.file(fd)?;
            if !file.flags().readable() {
                return Err(Errno::EBADF);
            }
            let mut off = file.offset();
            let mut done = 0usize;
            for buf in bufs.iter_mut() {
                let n = file.vfs().read_at(file.inode(), off, buf)?;
                off += n as u64;
                done += n;
                if n < buf.len() {
                    break;
                }
            }
            file.set_offset(off);
            Ok((done as i64, done))
        })
    }

    /// `write(fd, buf)` — writes at the current offset (or EOF with
    /// `O_APPEND`), advancing the cursor.
    ///
    /// # Errors
    ///
    /// `EBADF` when `fd` is unknown or not writable; `EISDIR`; `ENOSPC`.
    pub fn write(&self, fd: i32, buf: &[u8]) -> SysResult<usize> {
        let args = vec![Arg::new("fd", fd), Arg::new("count", buf.len())];
        self.invoke(SyscallKind::Write, args, None, Some(fd), || {
            let file = self.file(fd)?;
            if !file.flags().writable() {
                return Err(Errno::EBADF);
            }
            let append = file.flags().contains(OpenFlags::APPEND);
            let off = file.offset();
            let (n, wrote_at) = file.vfs().write_at(file.inode(), off, buf, append)?;
            file.set_offset(wrote_at + n as u64);
            Ok((n as i64, n))
        })
    }

    /// `pwrite64(fd, buf, offset)` — positional write; cursor unchanged.
    ///
    /// # Errors
    ///
    /// As [`ThreadCtx::write`].
    pub fn pwrite64(&self, fd: i32, buf: &[u8], offset: u64) -> SysResult<usize> {
        let args =
            vec![Arg::new("fd", fd), Arg::new("count", buf.len()), Arg::new("offset", offset)];
        self.invoke(SyscallKind::Pwrite64, args, None, Some(fd), || {
            let file = self.file(fd)?;
            if !file.flags().writable() {
                return Err(Errno::EBADF);
            }
            let (n, _) = file.vfs().write_at(file.inode(), offset, buf, false)?;
            Ok((n as i64, n))
        })
    }

    /// `writev(fd, iov)` — gather write from multiple buffers.
    ///
    /// # Errors
    ///
    /// As [`ThreadCtx::write`].
    pub fn writev(&self, fd: i32, bufs: &[&[u8]]) -> SysResult<usize> {
        let total: usize = bufs.iter().map(|b| b.len()).sum();
        let args =
            vec![Arg::new("fd", fd), Arg::new("iovcnt", bufs.len()), Arg::new("count", total)];
        self.invoke(SyscallKind::Writev, args, None, Some(fd), || {
            let file = self.file(fd)?;
            if !file.flags().writable() {
                return Err(Errno::EBADF);
            }
            let append = file.flags().contains(OpenFlags::APPEND);
            let mut done = 0usize;
            for buf in bufs {
                let off = file.offset();
                let (n, wrote_at) = file.vfs().write_at(file.inode(), off, buf, append)?;
                file.set_offset(wrote_at + n as u64);
                done += n;
            }
            Ok((done as i64, done))
        })
    }

    /// `lseek(fd, offset, whence)` — repositions the cursor, returning the
    /// new absolute offset.
    ///
    /// # Errors
    ///
    /// `EBADF`; `EINVAL` for a resulting negative offset; `ESPIPE` on pipes.
    pub fn lseek(&self, fd: i32, offset: i64, whence: Whence) -> SysResult<u64> {
        let args =
            vec![Arg::new("fd", fd), Arg::new("offset", offset), Arg::new("whence", whence as u32)];
        self.invoke(SyscallKind::Lseek, args, None, Some(fd), || {
            let file = self.file(fd)?;
            if file.inode().file_type() == FileType::Pipe {
                return Err(Errno::ESPIPE);
            }
            let base: i64 = match whence {
                Whence::Set => 0,
                Whence::Cur => file.offset() as i64,
                Whence::End => file.inode().size() as i64,
            };
            let new = base + offset;
            if new < 0 {
                return Err(Errno::EINVAL);
            }
            file.set_offset(new as u64);
            Ok((new, new as u64))
        })
    }

    /// `readahead(fd, offset, count)` — populates the (modelled) page cache.
    ///
    /// # Errors
    ///
    /// `EBADF`; `EINVAL` on non-regular files.
    pub fn readahead(&self, fd: i32, offset: u64, count: usize) -> SysResult<()> {
        let args = vec![Arg::new("fd", fd), Arg::new("offset", offset), Arg::new("count", count)];
        self.invoke(SyscallKind::Readahead, args, None, Some(fd), || {
            let file = self.file(fd)?;
            if file.inode().file_type() != FileType::Regular {
                return Err(Errno::EINVAL);
            }
            file.vfs().readahead(file.inode(), offset, count as u64)?;
            Ok((0, ()))
        })
    }

    // ------------------------------------------------------------ metadata

    /// `truncate(path, length)`.
    ///
    /// # Errors
    ///
    /// `ENOENT`; `EISDIR`; `EINVAL` for non-regular files.
    pub fn truncate(&self, path: &str, length: u64) -> SysResult<()> {
        let args = vec![Arg::new("path", path), Arg::new("length", length)];
        self.invoke(SyscallKind::Truncate, args, Some(path), None, || {
            let (vfs, inner) = self.resolve(path)?;
            let inode = vfs.lookup(&inner, true)?;
            vfs.truncate(&inode, length)?;
            Ok((0, ()))
        })
    }

    /// `ftruncate(fd, length)`.
    ///
    /// # Errors
    ///
    /// `EBADF`; `EINVAL` for non-regular files.
    pub fn ftruncate(&self, fd: i32, length: u64) -> SysResult<()> {
        let args = vec![Arg::new("fd", fd), Arg::new("length", length)];
        self.invoke(SyscallKind::Ftruncate, args, None, Some(fd), || {
            let file = self.file(fd)?;
            file.vfs().truncate(file.inode(), length)?;
            Ok((0, ()))
        })
    }

    /// `fsync(fd)` — flush data and metadata.
    ///
    /// # Errors
    ///
    /// `EBADF`.
    pub fn fsync(&self, fd: i32) -> SysResult<()> {
        let args = vec![Arg::new("fd", fd)];
        self.invoke(SyscallKind::Fsync, args, None, Some(fd), || {
            let file = self.file(fd)?;
            file.vfs().sync();
            Ok((0, ()))
        })
    }

    /// `fdatasync(fd)` — flush data only.
    ///
    /// # Errors
    ///
    /// `EBADF`.
    pub fn fdatasync(&self, fd: i32) -> SysResult<()> {
        let args = vec![Arg::new("fd", fd)];
        self.invoke(SyscallKind::Fdatasync, args, None, Some(fd), || {
            let file = self.file(fd)?;
            file.vfs().sync();
            Ok((0, ()))
        })
    }

    /// `stat(path)` — follows symlinks.
    ///
    /// # Errors
    ///
    /// `ENOENT`, `ENOTDIR`, `ELOOP`.
    pub fn stat(&self, path: &str) -> SysResult<StatBuf> {
        let args = vec![Arg::new("path", path)];
        self.invoke(SyscallKind::Stat, args, Some(path), None, || {
            let (vfs, inner) = self.resolve(path)?;
            let inode = vfs.lookup(&inner, true)?;
            Ok((0, vfs.getattr(&inode)))
        })
    }

    /// `lstat(path)` — does not follow a final symlink.
    ///
    /// # Errors
    ///
    /// As [`ThreadCtx::stat`].
    pub fn lstat(&self, path: &str) -> SysResult<StatBuf> {
        let args = vec![Arg::new("path", path)];
        self.invoke(SyscallKind::Lstat, args, Some(path), None, || {
            let (vfs, inner) = self.resolve(path)?;
            let inode = vfs.lookup(&inner, false)?;
            Ok((0, vfs.getattr(&inode)))
        })
    }

    /// `fstat(fd)`.
    ///
    /// # Errors
    ///
    /// `EBADF`.
    pub fn fstat(&self, fd: i32) -> SysResult<StatBuf> {
        let args = vec![Arg::new("fd", fd)];
        self.invoke(SyscallKind::Fstat, args, None, Some(fd), || {
            let file = self.file(fd)?;
            Ok((0, file.vfs().getattr(file.inode())))
        })
    }

    /// `fstatfs(fd)`.
    ///
    /// # Errors
    ///
    /// `EBADF`.
    pub fn fstatfs(&self, fd: i32) -> SysResult<StatFs> {
        let args = vec![Arg::new("fd", fd)];
        self.invoke(SyscallKind::Fstatfs, args, None, Some(fd), || {
            let file = self.file(fd)?;
            Ok((0, file.vfs().statfs()))
        })
    }

    // ----------------------------------------------------- rename / unlink

    fn do_rename(&self, old: &str, new: &str, noreplace: bool) -> SysResult<(i64, ())> {
        let (vfs_old, inner_old) = self.resolve(old)?;
        let (vfs_new, inner_new) = self.resolve(new)?;
        if !Arc::ptr_eq(&vfs_old, &vfs_new) {
            // Cross-device rename, as on Linux.
            return Err(Errno::EINVAL);
        }
        vfs_old.rename(&inner_old, &inner_new, noreplace)?;
        Ok((0, ()))
    }

    /// `rename(old, new)`.
    ///
    /// # Errors
    ///
    /// `ENOENT`, `ENOTEMPTY`, `EINVAL` (cross-device).
    pub fn rename(&self, old: &str, new: &str) -> SysResult<()> {
        let args = vec![Arg::new("oldpath", old), Arg::new("newpath", new)];
        self.invoke(SyscallKind::Rename, args, Some(old), None, || self.do_rename(old, new, false))
    }

    /// `renameat(AT_FDCWD, old, AT_FDCWD, new)`.
    ///
    /// # Errors
    ///
    /// As [`ThreadCtx::rename`].
    pub fn renameat(&self, old: &str, new: &str) -> SysResult<()> {
        let args = vec![
            Arg::new("olddfd", AT_FDCWD),
            Arg::new("oldpath", old),
            Arg::new("newdfd", AT_FDCWD),
            Arg::new("newpath", new),
        ];
        self.invoke(SyscallKind::Renameat, args, Some(old), None, || {
            self.do_rename(old, new, false)
        })
    }

    /// `renameat2(AT_FDCWD, old, AT_FDCWD, new, flags)`.
    ///
    /// # Errors
    ///
    /// As [`ThreadCtx::rename`], plus `EEXIST` with `RENAME_NOREPLACE`.
    pub fn renameat2(&self, old: &str, new: &str, flags: u32) -> SysResult<()> {
        let args = vec![
            Arg::new("olddfd", AT_FDCWD),
            Arg::new("oldpath", old),
            Arg::new("newdfd", AT_FDCWD),
            Arg::new("newpath", new),
            Arg::new("flags", flags),
        ];
        self.invoke(SyscallKind::Renameat2, args, Some(old), None, || {
            self.do_rename(old, new, flags & RENAME_NOREPLACE != 0)
        })
    }

    /// `unlink(path)`.
    ///
    /// # Errors
    ///
    /// `ENOENT`; `EISDIR` for directories.
    pub fn unlink(&self, path: &str) -> SysResult<()> {
        let args = vec![Arg::new("path", path)];
        self.invoke(SyscallKind::Unlink, args, Some(path), None, || {
            let (vfs, inner) = self.resolve(path)?;
            vfs.unlink(&inner)?;
            Ok((0, ()))
        })
    }

    /// `unlinkat(AT_FDCWD, path, flags)` — removes a file, or a directory
    /// with [`AT_REMOVEDIR`].
    ///
    /// # Errors
    ///
    /// As [`ThreadCtx::unlink`] / [`ThreadCtx::rmdir`].
    pub fn unlinkat(&self, path: &str, flags: u32) -> SysResult<()> {
        let args =
            vec![Arg::new("dfd", AT_FDCWD), Arg::new("path", path), Arg::new("flags", flags)];
        self.invoke(SyscallKind::Unlinkat, args, Some(path), None, || {
            let (vfs, inner) = self.resolve(path)?;
            if flags & AT_REMOVEDIR != 0 {
                vfs.rmdir(&inner)?;
            } else {
                vfs.unlink(&inner)?;
            }
            Ok((0, ()))
        })
    }

    // --------------------------------------------------------------- xattr

    fn xattr_target(
        &self,
        path: &str,
        follow: bool,
    ) -> SysResult<(Arc<Vfs>, Arc<crate::vfs::Inode>)> {
        let (vfs, inner) = self.resolve(path)?;
        let inode = vfs.lookup(&inner, follow)?;
        Ok((vfs, inode))
    }

    /// `getxattr(path, name)`.
    ///
    /// # Errors
    ///
    /// `ENOENT`; `ENODATA` when the attribute is absent.
    pub fn getxattr(&self, path: &str, name: &str) -> SysResult<Vec<u8>> {
        let args = vec![Arg::new("path", path), Arg::new("name", name)];
        self.invoke(SyscallKind::Getxattr, args, Some(path), None, || {
            let (vfs, inode) = self.xattr_target(path, true)?;
            let v = vfs.getxattr(&inode, name)?;
            Ok((v.len() as i64, v))
        })
    }

    /// `lgetxattr(path, name)` — on the link itself.
    ///
    /// # Errors
    ///
    /// As [`ThreadCtx::getxattr`].
    pub fn lgetxattr(&self, path: &str, name: &str) -> SysResult<Vec<u8>> {
        let args = vec![Arg::new("path", path), Arg::new("name", name)];
        self.invoke(SyscallKind::Lgetxattr, args, Some(path), None, || {
            let (vfs, inode) = self.xattr_target(path, false)?;
            let v = vfs.getxattr(&inode, name)?;
            Ok((v.len() as i64, v))
        })
    }

    /// `fgetxattr(fd, name)`.
    ///
    /// # Errors
    ///
    /// `EBADF`; `ENODATA`.
    pub fn fgetxattr(&self, fd: i32, name: &str) -> SysResult<Vec<u8>> {
        let args = vec![Arg::new("fd", fd), Arg::new("name", name)];
        self.invoke(SyscallKind::Fgetxattr, args, None, Some(fd), || {
            let file = self.file(fd)?;
            let v = file.vfs().getxattr(file.inode(), name)?;
            Ok((v.len() as i64, v))
        })
    }

    /// `setxattr(path, name, value)`.
    ///
    /// # Errors
    ///
    /// `ENOENT`; `EINVAL` for invalid names.
    pub fn setxattr(&self, path: &str, name: &str, value: &[u8]) -> SysResult<()> {
        let args =
            vec![Arg::new("path", path), Arg::new("name", name), Arg::new("size", value.len())];
        self.invoke(SyscallKind::Setxattr, args, Some(path), None, || {
            let (vfs, inode) = self.xattr_target(path, true)?;
            vfs.setxattr(&inode, name, value)?;
            Ok((0, ()))
        })
    }

    /// `lsetxattr(path, name, value)` — on the link itself.
    ///
    /// # Errors
    ///
    /// As [`ThreadCtx::setxattr`].
    pub fn lsetxattr(&self, path: &str, name: &str, value: &[u8]) -> SysResult<()> {
        let args =
            vec![Arg::new("path", path), Arg::new("name", name), Arg::new("size", value.len())];
        self.invoke(SyscallKind::Lsetxattr, args, Some(path), None, || {
            let (vfs, inode) = self.xattr_target(path, false)?;
            vfs.setxattr(&inode, name, value)?;
            Ok((0, ()))
        })
    }

    /// `fsetxattr(fd, name, value)`.
    ///
    /// # Errors
    ///
    /// `EBADF`; `EINVAL`.
    pub fn fsetxattr(&self, fd: i32, name: &str, value: &[u8]) -> SysResult<()> {
        let args = vec![Arg::new("fd", fd), Arg::new("name", name), Arg::new("size", value.len())];
        self.invoke(SyscallKind::Fsetxattr, args, None, Some(fd), || {
            let file = self.file(fd)?;
            file.vfs().setxattr(file.inode(), name, value)?;
            Ok((0, ()))
        })
    }

    /// `listxattr(path)`.
    ///
    /// # Errors
    ///
    /// `ENOENT`.
    pub fn listxattr(&self, path: &str) -> SysResult<Vec<String>> {
        let args = vec![Arg::new("path", path)];
        self.invoke(SyscallKind::Listxattr, args, Some(path), None, || {
            let (vfs, inode) = self.xattr_target(path, true)?;
            let names = vfs.listxattr(&inode);
            let size: i64 = names.iter().map(|n| n.len() as i64 + 1).sum();
            Ok((size, names))
        })
    }

    /// `llistxattr(path)` — on the link itself.
    ///
    /// # Errors
    ///
    /// `ENOENT`.
    pub fn llistxattr(&self, path: &str) -> SysResult<Vec<String>> {
        let args = vec![Arg::new("path", path)];
        self.invoke(SyscallKind::Llistxattr, args, Some(path), None, || {
            let (vfs, inode) = self.xattr_target(path, false)?;
            let names = vfs.listxattr(&inode);
            let size: i64 = names.iter().map(|n| n.len() as i64 + 1).sum();
            Ok((size, names))
        })
    }

    /// `flistxattr(fd)`.
    ///
    /// # Errors
    ///
    /// `EBADF`.
    pub fn flistxattr(&self, fd: i32) -> SysResult<Vec<String>> {
        let args = vec![Arg::new("fd", fd)];
        self.invoke(SyscallKind::Flistxattr, args, None, Some(fd), || {
            let file = self.file(fd)?;
            let names = file.vfs().listxattr(file.inode());
            let size: i64 = names.iter().map(|n| n.len() as i64 + 1).sum();
            Ok((size, names))
        })
    }

    /// `removexattr(path, name)`.
    ///
    /// # Errors
    ///
    /// `ENOENT`; `ENODATA`.
    pub fn removexattr(&self, path: &str, name: &str) -> SysResult<()> {
        let args = vec![Arg::new("path", path), Arg::new("name", name)];
        self.invoke(SyscallKind::Removexattr, args, Some(path), None, || {
            let (vfs, inode) = self.xattr_target(path, true)?;
            vfs.removexattr(&inode, name)?;
            Ok((0, ()))
        })
    }

    /// `lremovexattr(path, name)` — on the link itself.
    ///
    /// # Errors
    ///
    /// As [`ThreadCtx::removexattr`].
    pub fn lremovexattr(&self, path: &str, name: &str) -> SysResult<()> {
        let args = vec![Arg::new("path", path), Arg::new("name", name)];
        self.invoke(SyscallKind::Lremovexattr, args, Some(path), None, || {
            let (vfs, inode) = self.xattr_target(path, false)?;
            vfs.removexattr(&inode, name)?;
            Ok((0, ()))
        })
    }

    /// `fremovexattr(fd, name)`.
    ///
    /// # Errors
    ///
    /// `EBADF`; `ENODATA`.
    pub fn fremovexattr(&self, fd: i32, name: &str) -> SysResult<()> {
        let args = vec![Arg::new("fd", fd), Arg::new("name", name)];
        self.invoke(SyscallKind::Fremovexattr, args, None, Some(fd), || {
            let file = self.file(fd)?;
            file.vfs().removexattr(file.inode(), name)?;
            Ok((0, ()))
        })
    }

    // -------------------------------------------------- directory management

    /// `mknod(path, type)` — creates a special file (or a regular file).
    ///
    /// # Errors
    ///
    /// `EEXIST`; `EINVAL` for unsupported types.
    pub fn mknod(&self, path: &str, file_type: FileType) -> SysResult<()> {
        let args = vec![Arg::new("path", path), Arg::new("mode", mode_bits(file_type))];
        self.invoke(SyscallKind::Mknod, args, Some(path), None, || {
            let (vfs, inner) = self.resolve(path)?;
            vfs.mknod(&inner, file_type)?;
            Ok((0, ()))
        })
    }

    /// `mknodat(AT_FDCWD, path, type)`.
    ///
    /// # Errors
    ///
    /// As [`ThreadCtx::mknod`].
    pub fn mknodat(&self, path: &str, file_type: FileType) -> SysResult<()> {
        let args = vec![
            Arg::new("dfd", AT_FDCWD),
            Arg::new("path", path),
            Arg::new("mode", mode_bits(file_type)),
        ];
        self.invoke(SyscallKind::Mknodat, args, Some(path), None, || {
            let (vfs, inner) = self.resolve(path)?;
            vfs.mknod(&inner, file_type)?;
            Ok((0, ()))
        })
    }

    /// `mkdir(path, mode)`.
    ///
    /// # Errors
    ///
    /// `EEXIST`; `ENOENT` for missing parents.
    pub fn mkdir(&self, path: &str, mode: u32) -> SysResult<()> {
        let args = vec![Arg::new("path", path), Arg::new("mode", mode)];
        self.invoke(SyscallKind::Mkdir, args, Some(path), None, || {
            let (vfs, inner) = self.resolve(path)?;
            vfs.mkdir(&inner)?;
            Ok((0, ()))
        })
    }

    /// `mkdirat(AT_FDCWD, path, mode)`.
    ///
    /// # Errors
    ///
    /// As [`ThreadCtx::mkdir`].
    pub fn mkdirat(&self, path: &str, mode: u32) -> SysResult<()> {
        let args = vec![Arg::new("dfd", AT_FDCWD), Arg::new("path", path), Arg::new("mode", mode)];
        self.invoke(SyscallKind::Mkdirat, args, Some(path), None, || {
            let (vfs, inner) = self.resolve(path)?;
            vfs.mkdir(&inner)?;
            Ok((0, ()))
        })
    }

    /// `rmdir(path)`.
    ///
    /// # Errors
    ///
    /// `ENOTEMPTY`; `ENOTDIR`; `ENOENT`.
    pub fn rmdir(&self, path: &str) -> SysResult<()> {
        let args = vec![Arg::new("path", path)];
        self.invoke(SyscallKind::Rmdir, args, Some(path), None, || {
            let (vfs, inner) = self.resolve(path)?;
            vfs.rmdir(&inner)?;
            Ok((0, ()))
        })
    }
}

/// `mode` bits (file-type part) used in `mknod` trace arguments.
fn mode_bits(file_type: FileType) -> u32 {
    match file_type {
        FileType::Regular => 0o100000,
        FileType::Directory => 0o040000,
        FileType::CharDevice => 0o020000,
        FileType::BlockDevice => 0o060000,
        FileType::Pipe => 0o010000,
        FileType::Socket => 0o140000,
        FileType::Symlink => 0o120000,
        FileType::Unknown => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskProfile;
    use crate::kernel::Kernel;

    fn thread() -> ThreadCtx {
        let k = Kernel::builder().root_disk(DiskProfile::instant()).build();
        k.spawn_process("test").spawn_thread("test")
    }

    #[test]
    fn open_write_read_close() {
        let t = thread();
        let fd = t.openat("/f", OpenFlags::CREAT | OpenFlags::RDWR, 0o644).unwrap();
        assert_eq!(fd, 3);
        assert_eq!(t.write(fd, b"hello").unwrap(), 5);
        assert_eq!(t.lseek(fd, 0, Whence::Set).unwrap(), 0);
        let mut buf = [0u8; 5];
        assert_eq!(t.read(fd, &mut buf).unwrap(), 5);
        assert_eq!(&buf, b"hello");
        t.close(fd).unwrap();
        assert_eq!(t.close(fd).unwrap_err(), Errno::EBADF);
    }

    #[test]
    fn sequential_reads_advance_offset() {
        let t = thread();
        let fd = t.openat("/f", OpenFlags::CREAT | OpenFlags::RDWR, 0o644).unwrap();
        t.write(fd, b"abcdef").unwrap();
        t.lseek(fd, 0, Whence::Set).unwrap();
        let mut buf = [0u8; 2];
        t.read(fd, &mut buf).unwrap();
        assert_eq!(&buf, b"ab");
        t.read(fd, &mut buf).unwrap();
        assert_eq!(&buf, b"cd");
    }

    #[test]
    fn pread_pwrite_do_not_move_cursor() {
        let t = thread();
        let fd = t.openat("/f", OpenFlags::CREAT | OpenFlags::RDWR, 0o644).unwrap();
        t.write(fd, b"0123456789").unwrap();
        let before = t.lseek(fd, 0, Whence::Cur).unwrap();
        t.pwrite64(fd, b"XX", 2).unwrap();
        let mut buf = [0u8; 4];
        t.pread64(fd, &mut buf, 1).unwrap();
        assert_eq!(&buf, b"1XX4");
        assert_eq!(t.lseek(fd, 0, Whence::Cur).unwrap(), before);
    }

    #[test]
    fn append_mode() {
        let t = thread();
        let fd = t
            .openat("/log", OpenFlags::CREAT | OpenFlags::WRONLY | OpenFlags::APPEND, 0o644)
            .unwrap();
        t.write(fd, b"aa").unwrap();
        // Even after seeking back, append writes land at EOF.
        t.lseek(fd, 0, Whence::Set).unwrap();
        t.write(fd, b"bb").unwrap();
        t.close(fd).unwrap();
        let fd = t.openat("/log", OpenFlags::RDONLY, 0).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(t.read(fd, &mut buf).unwrap(), 4);
        assert_eq!(&buf, b"aabb");
    }

    #[test]
    fn readv_writev() {
        let t = thread();
        let fd = t.openat("/v", OpenFlags::CREAT | OpenFlags::RDWR, 0o644).unwrap();
        assert_eq!(t.writev(fd, &[b"ab", b"cd", b"ef"]).unwrap(), 6);
        t.lseek(fd, 0, Whence::Set).unwrap();
        let mut b1 = [0u8; 3];
        let mut b2 = [0u8; 3];
        assert_eq!(t.readv(fd, &mut [&mut b1, &mut b2]).unwrap(), 6);
        assert_eq!(&b1, b"abc");
        assert_eq!(&b2, b"def");
    }

    #[test]
    fn lseek_whence_variants() {
        let t = thread();
        let fd = t.openat("/s", OpenFlags::CREAT | OpenFlags::RDWR, 0o644).unwrap();
        t.write(fd, b"0123456789").unwrap();
        assert_eq!(t.lseek(fd, 4, Whence::Set).unwrap(), 4);
        assert_eq!(t.lseek(fd, 2, Whence::Cur).unwrap(), 6);
        assert_eq!(t.lseek(fd, -1, Whence::End).unwrap(), 9);
        assert_eq!(t.lseek(fd, -100, Whence::Cur).unwrap_err(), Errno::EINVAL);
    }

    #[test]
    fn read_requires_read_access() {
        let t = thread();
        let fd = t.openat("/w", OpenFlags::CREAT | OpenFlags::WRONLY, 0o644).unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(t.read(fd, &mut buf).unwrap_err(), Errno::EBADF);
        let fd2 = t.openat("/w", OpenFlags::RDONLY, 0).unwrap();
        assert_eq!(t.write(fd2, b"x").unwrap_err(), Errno::EBADF);
    }

    #[test]
    fn open_trunc_clears_file() {
        let t = thread();
        let fd = t.creat("/t", 0o644).unwrap();
        t.write(fd, b"data").unwrap();
        t.close(fd).unwrap();
        let fd = t.openat("/t", OpenFlags::WRONLY | OpenFlags::TRUNC, 0).unwrap();
        assert_eq!(t.fstat(fd).unwrap().size, 0);
    }

    #[test]
    fn stat_family() {
        let t = thread();
        let fd = t.creat("/x", 0o644).unwrap();
        t.write(fd, b"12345").unwrap();
        let st = t.stat("/x").unwrap();
        assert_eq!(st.size, 5);
        assert_eq!(st.file_type, FileType::Regular);
        assert_eq!(t.fstat(fd).unwrap().ino, st.ino);
        let sfs = t.fstatfs(fd).unwrap();
        assert_eq!(sfs.dev, crate::kernel::ROOT_DEV);
        assert!(t.stat("/missing").is_err());
    }

    #[test]
    fn rename_family() {
        let t = thread();
        t.creat("/a", 0o644).unwrap();
        t.rename("/a", "/b").unwrap();
        assert!(t.stat("/b").is_ok());
        t.renameat("/b", "/c").unwrap();
        t.creat("/d", 0o644).unwrap();
        assert_eq!(t.renameat2("/c", "/d", RENAME_NOREPLACE).unwrap_err(), Errno::EEXIST);
        t.renameat2("/c", "/e", 0).unwrap();
        assert!(t.stat("/e").is_ok());
    }

    #[test]
    fn unlink_family_and_dirs() {
        let t = thread();
        t.mkdir("/d", 0o755).unwrap();
        t.mkdirat("/d/sub", 0o755).unwrap();
        t.creat("/d/f", 0o644).unwrap();
        assert_eq!(t.unlinkat("/d", 0).unwrap_err(), Errno::EISDIR);
        t.unlinkat("/d/f", 0).unwrap();
        t.unlinkat("/d/sub", AT_REMOVEDIR).unwrap();
        t.rmdir("/d").unwrap();
        assert!(t.stat("/d").is_err());
    }

    #[test]
    fn xattr_family() {
        let t = thread();
        let fd = t.creat("/x", 0o644).unwrap();
        t.setxattr("/x", "user.a", b"1").unwrap();
        t.fsetxattr(fd, "user.b", b"2").unwrap();
        assert_eq!(t.getxattr("/x", "user.a").unwrap(), b"1");
        assert_eq!(t.fgetxattr(fd, "user.b").unwrap(), b"2");
        assert_eq!(t.listxattr("/x").unwrap().len(), 2);
        assert_eq!(t.flistxattr(fd).unwrap().len(), 2);
        t.removexattr("/x", "user.a").unwrap();
        t.fremovexattr(fd, "user.b").unwrap();
        assert!(t.listxattr("/x").unwrap().is_empty());
        assert_eq!(t.getxattr("/x", "user.a").unwrap_err(), Errno::ENODATA);
    }

    #[test]
    fn xattr_on_symlink_vs_target() {
        let t = thread();
        let k = t.kernel();
        t.creat("/real", 0o644).unwrap();
        k.root_vfs().symlink("/real", "/ln").unwrap();
        t.setxattr("/ln", "user.x", b"target").unwrap();
        t.lsetxattr("/ln", "user.x", b"link").unwrap();
        assert_eq!(t.getxattr("/real", "user.x").unwrap(), b"target");
        assert_eq!(t.lgetxattr("/ln", "user.x").unwrap(), b"link");
        assert_eq!(t.llistxattr("/ln").unwrap(), vec!["user.x".to_string()]);
        t.lremovexattr("/ln", "user.x").unwrap();
        assert!(t.llistxattr("/ln").unwrap().is_empty());
    }

    #[test]
    fn mknod_and_lseek_on_pipe() {
        let t = thread();
        t.mknod("/pipe", FileType::Pipe).unwrap();
        t.mknodat("/sock", FileType::Socket).unwrap();
        assert_eq!(t.stat("/pipe").unwrap().file_type, FileType::Pipe);
        let fd = t.openat("/pipe", OpenFlags::RDONLY, 0).unwrap();
        assert_eq!(t.lseek(fd, 0, Whence::Set).unwrap_err(), Errno::ESPIPE);
    }

    #[test]
    fn truncate_and_ftruncate() {
        let t = thread();
        let fd = t.creat("/tr", 0o644).unwrap();
        t.write(fd, b"123456").unwrap();
        t.truncate("/tr", 3).unwrap();
        assert_eq!(t.stat("/tr").unwrap().size, 3);
        t.ftruncate(fd, 1).unwrap();
        assert_eq!(t.stat("/tr").unwrap().size, 1);
    }

    #[test]
    fn fsync_family_and_readahead() {
        let t = thread();
        let fd = t.creat("/s", 0o644).unwrap();
        t.write(fd, &[0u8; 1024]).unwrap();
        t.fsync(fd).unwrap();
        t.fdatasync(fd).unwrap();
        t.readahead(fd, 0, 512).unwrap();
        assert!(t.kernel().root_vfs().disk().stats().flushes >= 2);
    }

    #[test]
    fn syscall_counter_increments() {
        let t = thread();
        let before = t.kernel().syscalls_executed();
        t.creat("/c", 0o644).unwrap();
        t.stat("/c").unwrap();
        assert_eq!(t.kernel().syscalls_executed(), before + 2);
    }

    #[test]
    fn open_missing_without_creat_fails() {
        let t = thread();
        assert_eq!(t.openat("/nope", OpenFlags::RDONLY, 0).unwrap_err(), Errno::ENOENT);
        assert_eq!(t.open("/nope", OpenFlags::RDONLY, 0).unwrap_err(), Errno::ENOENT);
    }

    #[test]
    fn open_directory_for_write_fails() {
        let t = thread();
        t.mkdir("/d", 0o755).unwrap();
        assert_eq!(t.openat("/d", OpenFlags::WRONLY, 0).unwrap_err(), Errno::EISDIR);
        // Read-only open of a directory is allowed (e.g. for fstat).
        let fd = t.openat("/d", OpenFlags::RDONLY, 0).unwrap();
        assert_eq!(t.fstat(fd).unwrap().file_type, FileType::Directory);
    }
}
