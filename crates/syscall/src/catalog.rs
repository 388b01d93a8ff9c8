//! The catalog of the 42 storage-related syscalls supported by DIO (Table I).

use serde::{Deserialize, Serialize};

/// The functional class of a storage syscall, per Table I of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SyscallClass {
    /// Data-path requests that move bytes or position a file cursor
    /// (e.g. `read`, `pwrite64`, `lseek`).
    Data,
    /// Metadata requests (e.g. `open`, `stat`, `rename`, `fsync`).
    Metadata,
    /// Extended-attribute requests (e.g. `getxattr`, `fsetxattr`).
    ExtendedAttributes,
    /// Directory-management requests (e.g. `mkdir`, `mknod`, `rmdir`).
    DirectoryManagement,
}

impl SyscallClass {
    /// The name stored in the `class` field of backend documents.
    pub fn name(self) -> &'static str {
        match self {
            SyscallClass::Data => "data",
            SyscallClass::Metadata => "metadata",
            SyscallClass::ExtendedAttributes => "extended attributes",
            SyscallClass::DirectoryManagement => "directory management",
        }
    }
}

impl std::fmt::Display for SyscallClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

macro_rules! syscall_kinds {
    ($(($variant:ident, $name:literal, $class:ident, $fd:literal, $path:literal)),+ $(,)?) => {
        /// One of the 42 storage-related syscalls DIO intercepts (Table I).
        ///
        /// # Examples
        ///
        /// ```
        /// use dio_syscall::SyscallKind;
        /// assert_eq!(SyscallKind::Openat.name(), "openat");
        /// assert_eq!("openat".parse::<SyscallKind>().unwrap(), SyscallKind::Openat);
        /// ```
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
        pub enum SyscallKind {
            $(
                #[doc = concat!("The `", $name, "` system call.")]
                $variant,
            )+
        }

        impl SyscallKind {
            /// Every supported syscall, in Table I order.
            pub const ALL: &'static [SyscallKind] = &[$(SyscallKind::$variant),+];

            /// The Linux name of the syscall (e.g. `"pread64"`).
            pub fn name(self) -> &'static str {
                match self {
                    $(SyscallKind::$variant => $name,)+
                }
            }

            /// The functional class of the syscall (Table I column).
            pub fn class(self) -> SyscallClass {
                match self {
                    $(SyscallKind::$variant => SyscallClass::$class,)+
                }
            }

            /// Whether the syscall operates on an already-open file descriptor.
            pub fn takes_fd(self) -> bool {
                match self {
                    $(SyscallKind::$variant => $fd,)+
                }
            }

            /// Whether the syscall names a file-system path in its arguments.
            pub fn takes_path(self) -> bool {
                match self {
                    $(SyscallKind::$variant => $path,)+
                }
            }
        }

        impl std::str::FromStr for SyscallKind {
            type Err = UnknownSyscallError;

            fn from_str(s: &str) -> Result<Self, Self::Err> {
                match s {
                    $($name => Ok(SyscallKind::$variant),)+
                    _ => Err(UnknownSyscallError(s.to_string())),
                }
            }
        }
    };
}

// (variant, linux name, class, takes_fd, takes_path)
syscall_kinds! {
    // -- data --
    (Read,          "read",          Data,                true,  false),
    (Pread64,       "pread64",       Data,                true,  false),
    (Readv,         "readv",         Data,                true,  false),
    (Write,         "write",         Data,                true,  false),
    (Pwrite64,      "pwrite64",      Data,                true,  false),
    (Writev,        "writev",        Data,                true,  false),
    (Lseek,         "lseek",         Data,                true,  false),
    (Readahead,     "readahead",     Data,                true,  false),
    // -- metadata --
    (Creat,         "creat",         Metadata,            false, true),
    (Open,          "open",          Metadata,            false, true),
    (Openat,        "openat",        Metadata,            false, true),
    (Close,         "close",         Metadata,            true,  false),
    (Truncate,      "truncate",      Metadata,            false, true),
    (Ftruncate,     "ftruncate",     Metadata,            true,  false),
    (Rename,        "rename",        Metadata,            false, true),
    (Renameat,      "renameat",      Metadata,            false, true),
    (Renameat2,     "renameat2",     Metadata,            false, true),
    (Unlink,        "unlink",        Metadata,            false, true),
    (Unlinkat,      "unlinkat",      Metadata,            false, true),
    (Fsync,         "fsync",         Metadata,            true,  false),
    (Fdatasync,     "fdatasync",     Metadata,            true,  false),
    (Stat,          "stat",          Metadata,            false, true),
    (Lstat,         "lstat",         Metadata,            false, true),
    (Fstat,         "fstat",         Metadata,            true,  false),
    (Fstatfs,       "fstatfs",       Metadata,            true,  false),
    // -- extended attributes --
    (Getxattr,      "getxattr",      ExtendedAttributes,  false, true),
    (Lgetxattr,     "lgetxattr",     ExtendedAttributes,  false, true),
    (Fgetxattr,     "fgetxattr",     ExtendedAttributes,  true,  false),
    (Setxattr,      "setxattr",      ExtendedAttributes,  false, true),
    (Lsetxattr,     "lsetxattr",     ExtendedAttributes,  false, true),
    (Fsetxattr,     "fsetxattr",     ExtendedAttributes,  true,  false),
    (Listxattr,     "listxattr",     ExtendedAttributes,  false, true),
    (Llistxattr,    "llistxattr",    ExtendedAttributes,  false, true),
    (Flistxattr,    "flistxattr",    ExtendedAttributes,  true,  false),
    (Removexattr,   "removexattr",   ExtendedAttributes,  false, true),
    (Lremovexattr,  "lremovexattr",  ExtendedAttributes,  false, true),
    (Fremovexattr,  "fremovexattr",  ExtendedAttributes,  true,  false),
    // -- directory management --
    (Mknod,         "mknod",         DirectoryManagement, false, true),
    (Mknodat,       "mknodat",       DirectoryManagement, false, true),
    (Mkdir,         "mkdir",         DirectoryManagement, false, true),
    (Mkdirat,       "mkdirat",       DirectoryManagement, false, true),
    (Rmdir,         "rmdir",         DirectoryManagement, false, true),
}

impl std::fmt::Display for SyscallKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown syscall name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownSyscallError(String);

impl std::fmt::Display for UnknownSyscallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown syscall name `{}`", self.0)
    }
}

impl std::error::Error for UnknownSyscallError {}

/// A compact membership set over [`SyscallKind`], used by in-kernel filters.
///
/// Backed by a single `u64` bitmap, so membership tests in the syscall hot
/// path are a mask-and-test.
///
/// # Examples
///
/// ```
/// use dio_syscall::{SyscallKind, SyscallSet};
///
/// let set: SyscallSet = [SyscallKind::Read, SyscallKind::Write].into_iter().collect();
/// assert!(set.contains(SyscallKind::Read));
/// assert!(!set.contains(SyscallKind::Close));
/// assert_eq!(set.len(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SyscallSet(u64);

impl SyscallSet {
    /// The empty set.
    pub const EMPTY: SyscallSet = SyscallSet(0);

    /// Creates an empty set.
    pub fn new() -> Self {
        Self::EMPTY
    }

    /// The set containing all 42 supported syscalls.
    pub fn all() -> Self {
        let mut s = Self::EMPTY;
        for &k in SyscallKind::ALL {
            s.insert(k);
        }
        s
    }

    /// Inserts a syscall into the set; returns `true` if it was not present.
    pub fn insert(&mut self, kind: SyscallKind) -> bool {
        let bit = 1u64 << kind as u32;
        let fresh = self.0 & bit == 0;
        self.0 |= bit;
        fresh
    }

    /// Removes a syscall from the set; returns `true` if it was present.
    pub fn remove(&mut self, kind: SyscallKind) -> bool {
        let bit = 1u64 << kind as u32;
        let present = self.0 & bit != 0;
        self.0 &= !bit;
        present
    }

    /// Whether the set contains `kind`.
    #[inline]
    pub fn contains(self, kind: SyscallKind) -> bool {
        self.0 & (1u64 << kind as u32) != 0
    }

    /// Number of syscalls in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over the members in Table I order.
    pub fn iter(self) -> impl Iterator<Item = SyscallKind> {
        SyscallKind::ALL.iter().copied().filter(move |&k| self.contains(k))
    }

    /// The union of two sets.
    pub fn union(self, other: SyscallSet) -> SyscallSet {
        SyscallSet(self.0 | other.0)
    }

    /// The intersection of two sets.
    pub fn intersection(self, other: SyscallSet) -> SyscallSet {
        SyscallSet(self.0 & other.0)
    }
}

impl Default for SyscallSet {
    fn default() -> Self {
        Self::new()
    }
}

impl FromIterator<SyscallKind> for SyscallSet {
    fn from_iter<I: IntoIterator<Item = SyscallKind>>(iter: I) -> Self {
        let mut s = SyscallSet::new();
        for k in iter {
            s.insert(k);
        }
        s
    }
}

impl Extend<SyscallKind> for SyscallSet {
    fn extend<I: IntoIterator<Item = SyscallKind>>(&mut self, iter: I) {
        for k in iter {
            self.insert(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_exactly_42_syscalls() {
        assert_eq!(SyscallKind::ALL.len(), 42, "Table I lists 42 syscalls");
    }

    #[test]
    fn names_are_unique_and_roundtrip() {
        let mut seen = std::collections::HashSet::new();
        for &k in SyscallKind::ALL {
            assert!(seen.insert(k.name()), "duplicate name {}", k.name());
            assert_eq!(k.name().parse::<SyscallKind>().unwrap(), k);
        }
    }

    #[test]
    fn unknown_name_fails_to_parse() {
        let err = "notasyscall".parse::<SyscallKind>().unwrap_err();
        assert!(err.to_string().contains("notasyscall"));
    }

    #[test]
    fn class_census_matches_table_one() {
        let count = |c: SyscallClass| SyscallKind::ALL.iter().filter(|k| k.class() == c).count();
        assert_eq!(count(SyscallClass::Data), 8);
        assert_eq!(count(SyscallClass::Metadata), 17);
        assert_eq!(count(SyscallClass::ExtendedAttributes), 12);
        assert_eq!(count(SyscallClass::DirectoryManagement), 5);
    }

    #[test]
    fn fd_and_path_flags_are_consistent() {
        // Every data syscall works on an fd; every *at and path syscall names a path.
        assert!(SyscallKind::Read.takes_fd());
        assert!(!SyscallKind::Read.takes_path());
        assert!(SyscallKind::Openat.takes_path());
        assert!(SyscallKind::Unlink.takes_path());
        assert!(SyscallKind::Close.takes_fd());
        assert!(SyscallKind::Fgetxattr.takes_fd());
    }

    #[test]
    fn set_all_has_42_members() {
        assert_eq!(SyscallSet::all().len(), 42);
        assert!(!SyscallSet::all().is_empty());
    }

    #[test]
    fn set_insert_remove_contains() {
        let mut s = SyscallSet::new();
        assert!(s.insert(SyscallKind::Read));
        assert!(!s.insert(SyscallKind::Read));
        assert!(s.contains(SyscallKind::Read));
        assert!(s.remove(SyscallKind::Read));
        assert!(!s.remove(SyscallKind::Read));
        assert!(s.is_empty());
    }

    #[test]
    fn set_union_intersection() {
        let a: SyscallSet = [SyscallKind::Read, SyscallKind::Write].into_iter().collect();
        let b: SyscallSet = [SyscallKind::Write, SyscallKind::Close].into_iter().collect();
        assert_eq!(a.union(b).len(), 3);
        assert_eq!(a.intersection(b).len(), 1);
        assert!(a.intersection(b).contains(SyscallKind::Write));
    }

    #[test]
    fn set_iterates_in_catalog_order() {
        let s: SyscallSet = [SyscallKind::Close, SyscallKind::Read].into_iter().collect();
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![SyscallKind::Read, SyscallKind::Close]);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(SyscallKind::Pwrite64.to_string(), "pwrite64");
        assert_eq!(SyscallClass::Data.to_string(), "data");
    }
}
