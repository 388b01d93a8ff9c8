//! Open-file descriptions and per-process file-descriptor tables.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::errno::{Errno, SysResult};
use crate::vfs::{Inode, Vfs};

/// Open flags, numerically compatible with Linux (octal values).
///
/// # Examples
///
/// ```
/// use dio_kernel::OpenFlags;
///
/// let f = OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::APPEND;
/// assert!(f.contains(OpenFlags::CREAT));
/// assert!(f.writable());
/// assert!(!f.readable());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct OpenFlags(pub u32);

impl OpenFlags {
    /// Open read-only.
    pub const RDONLY: OpenFlags = OpenFlags(0o0);
    /// Open write-only.
    pub const WRONLY: OpenFlags = OpenFlags(0o1);
    /// Open read-write.
    pub const RDWR: OpenFlags = OpenFlags(0o2);
    /// Create the file if it does not exist.
    pub const CREAT: OpenFlags = OpenFlags(0o100);
    /// Fail if the file exists (with `CREAT`).
    pub const EXCL: OpenFlags = OpenFlags(0o200);
    /// Truncate the file on open.
    pub const TRUNC: OpenFlags = OpenFlags(0o1000);
    /// All writes append to the end of the file.
    pub const APPEND: OpenFlags = OpenFlags(0o2000);

    const ACCESS_MASK: u32 = 0o3;

    /// Whether all bits of `other` are set.
    pub fn contains(self, other: OpenFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether the access mode permits reading.
    pub fn readable(self) -> bool {
        matches!(self.0 & Self::ACCESS_MASK, 0o0 | 0o2)
    }

    /// Whether the access mode permits writing.
    pub fn writable(self) -> bool {
        matches!(self.0 & Self::ACCESS_MASK, 0o1 | 0o2)
    }

    /// The raw bits, as they would appear in a traced `flags` argument.
    pub fn bits(self) -> u32 {
        self.0
    }
}

impl std::ops::BitOr for OpenFlags {
    type Output = OpenFlags;

    fn bitor(self, rhs: OpenFlags) -> OpenFlags {
        OpenFlags(self.0 | rhs.0)
    }
}

/// `whence` argument of `lseek`, numerically matching Linux.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum Whence {
    /// Absolute offset.
    Set = 0,
    /// Relative to the current position.
    Cur = 1,
    /// Relative to end of file.
    End = 2,
}

/// A system-wide open file description (what an `fd` points at).
///
/// Holds the seek cursor, which is shared by duplicated descriptors in real
/// kernels; here each `open` creates one description.
#[derive(Debug)]
pub struct OpenFile {
    vfs: Arc<Vfs>,
    inode: Arc<Inode>,
    offset: Mutex<u64>,
    flags: OpenFlags,
    path: String,
}

impl OpenFile {
    pub(crate) fn new(
        vfs: Arc<Vfs>,
        inode: Arc<Inode>,
        flags: OpenFlags,
        path: String,
    ) -> Arc<Self> {
        vfs.inc_open(&inode);
        Arc::new(OpenFile { vfs, inode, offset: Mutex::new(0), flags, path })
    }

    /// The file system this description lives on.
    pub fn vfs(&self) -> &Arc<Vfs> {
        &self.vfs
    }

    /// The inode behind the descriptor.
    pub fn inode(&self) -> &Arc<Inode> {
        &self.inode
    }

    /// Current seek offset.
    pub fn offset(&self) -> u64 {
        *self.offset.lock()
    }

    pub(crate) fn set_offset(&self, off: u64) {
        *self.offset.lock() = off;
    }

    /// Atomically advances the cursor by `by`, returning the prior offset.
    pub fn advance_offset(&self, by: u64) -> u64 {
        let mut guard = self.offset.lock();
        let before = *guard;
        *guard = before + by;
        before
    }

    /// Flags the file was opened with.
    pub fn flags(&self) -> OpenFlags {
        self.flags
    }

    /// The absolute path used at open time (the *dentry* name; the file may
    /// since have been renamed or unlinked).
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for OpenFile {
    fn drop(&mut self) {
        // Never fails: releases the open count and frees the inode number if
        // this was the last reference to an unlinked file.
        self.vfs.dec_open(&self.inode);
    }
}

/// A per-process descriptor table. Descriptors start at 3 (0-2 are reserved
/// for the standard streams, which the simulator does not model).
///
/// Lock order: the table's lock is taken first, and [`FdTable::with`] and
/// [`FdTable::clear`] hold it while they take what an [`OpenFile`] guards
/// (its offset, its inode's content, the file system's open counts). Nothing
/// that holds one of those takes the table's lock.
#[derive(Debug, Default)]
pub struct FdTable {
    inner: Mutex<HashMap<i32, Arc<OpenFile>>>,
}

/// First descriptor handed out by [`FdTable`].
pub const FIRST_FD: i32 = 3;

impl FdTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs an open file at the lowest free descriptor ≥ 3.
    pub fn install(&self, file: Arc<OpenFile>) -> i32 {
        let mut map = self.inner.lock();
        let mut fd = FIRST_FD;
        while map.contains_key(&fd) {
            fd += 1;
        }
        map.insert(fd, file);
        fd
    }

    /// Looks up a descriptor.
    ///
    /// # Errors
    ///
    /// `EBADF` for unknown descriptors.
    pub fn get(&self, fd: i32) -> SysResult<Arc<OpenFile>> {
        self.inner.lock().get(&fd).cloned().ok_or(Errno::EBADF)
    }

    /// Reads a descriptor's open file in place, under the table's lock
    /// alone: no reference count moves. `None` for unknown descriptors.
    ///
    /// `read` holds that lock: it must not touch this table again (the lock
    /// is not reentrant) and must be short, since every other descriptor
    /// operation of the process waits for it.
    pub fn with<R>(&self, fd: i32, read: impl FnOnce(&OpenFile) -> R) -> Option<R> {
        self.inner.lock().get(&fd).map(|file| read(file))
    }

    /// Removes a descriptor, returning its open file.
    ///
    /// # Errors
    ///
    /// `EBADF` for unknown descriptors.
    pub fn remove(&self, fd: i32) -> SysResult<Arc<OpenFile>> {
        self.inner.lock().remove(&fd).ok_or(Errno::EBADF)
    }

    /// Number of open descriptors.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Closes every descriptor (process exit).
    pub fn clear(&self) {
        self.inner.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::disk::DiskProfile;

    fn open_file(vfs: &Arc<Vfs>, path: &str) -> Arc<OpenFile> {
        let inode = vfs.create_file(path, false).unwrap();
        OpenFile::new(Arc::clone(vfs), inode, OpenFlags::RDWR, path.to_string())
    }

    #[test]
    fn flags_access_modes() {
        assert!(OpenFlags::RDONLY.readable());
        assert!(!OpenFlags::RDONLY.writable());
        assert!(OpenFlags::WRONLY.writable());
        assert!(!OpenFlags::WRONLY.readable());
        assert!(OpenFlags::RDWR.readable() && OpenFlags::RDWR.writable());
        let f = OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::TRUNC;
        assert_eq!(f.bits(), 0o1 | 0o100 | 0o1000);
    }

    #[test]
    fn fd_allocation_lowest_first() {
        let vfs = Vfs::new(1, DiskProfile::instant(), SimClock::new());
        let table = FdTable::new();
        let fd3 = table.install(open_file(&vfs, "/a"));
        let fd4 = table.install(open_file(&vfs, "/b"));
        let fd5 = table.install(open_file(&vfs, "/c"));
        assert_eq!((fd3, fd4, fd5), (3, 4, 5));
        table.remove(4).unwrap();
        assert_eq!(table.install(open_file(&vfs, "/d")), 4);
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn get_unknown_fd_is_ebadf() {
        let table = FdTable::new();
        assert_eq!(table.get(3).unwrap_err(), Errno::EBADF);
        assert_eq!(table.remove(3).unwrap_err(), Errno::EBADF);
    }

    #[test]
    fn drop_releases_open_count() {
        let vfs = Vfs::new(1, DiskProfile::instant(), SimClock::new());
        let f = open_file(&vfs, "/x");
        assert_eq!(f.inode().open_count(), 1);
        let inode = Arc::clone(f.inode());
        drop(f);
        assert_eq!(inode.open_count(), 0);
    }

    #[test]
    fn offset_tracking() {
        let vfs = Vfs::new(1, DiskProfile::instant(), SimClock::new());
        let f = open_file(&vfs, "/x");
        assert_eq!(f.offset(), 0);
        assert_eq!(f.advance_offset(10), 0);
        assert_eq!(f.offset(), 10);
        f.set_offset(3);
        assert_eq!(f.offset(), 3);
    }
}
