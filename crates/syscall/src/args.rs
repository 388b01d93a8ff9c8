//! Typed syscall argument values as observed at a tracepoint.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::SyscallKind;

/// The argument names a tracepoint records for `kind`, in signature order.
///
/// This is the decoding contract between the kernel probes (which build the
/// `Arg` vectors) and every consumer of trace documents: dashboards query
/// `args.count`, `args.offset`, etc. by these names. `dio-verify
/// --check-catalog` cross-checks this table against the probe dispatch in
/// `dio-kernel`, so drift between the two layers is a CI failure rather
/// than a silently mis-decoded trace.
///
/// # Examples
///
/// ```
/// use dio_syscall::{expected_args, SyscallKind};
/// assert_eq!(expected_args(SyscallKind::Pread64), ["fd", "count", "offset"]);
/// ```
pub fn expected_args(kind: SyscallKind) -> &'static [&'static str] {
    #[allow(unreachable_patterns)]
    // the `_` arm keeps arm removal compiling; the catalog lint catches it
    match kind {
        SyscallKind::Read => &["fd", "count"],
        SyscallKind::Pread64 => &["fd", "count", "offset"],
        SyscallKind::Readv => &["fd", "iovcnt", "count"],
        SyscallKind::Write => &["fd", "count"],
        SyscallKind::Pwrite64 => &["fd", "count", "offset"],
        SyscallKind::Writev => &["fd", "iovcnt", "count"],
        SyscallKind::Lseek => &["fd", "offset", "whence"],
        SyscallKind::Readahead => &["fd", "offset", "count"],
        SyscallKind::Creat => &["path", "mode"],
        SyscallKind::Open => &["path", "flags", "mode"],
        SyscallKind::Openat => &["dfd", "path", "flags", "mode"],
        SyscallKind::Close => &["fd"],
        SyscallKind::Truncate => &["path", "length"],
        SyscallKind::Ftruncate => &["fd", "length"],
        SyscallKind::Rename => &["oldpath", "newpath"],
        SyscallKind::Renameat => &["olddfd", "oldpath", "newdfd", "newpath"],
        SyscallKind::Renameat2 => &["olddfd", "oldpath", "newdfd", "newpath", "flags"],
        SyscallKind::Unlink => &["path"],
        SyscallKind::Unlinkat => &["dfd", "path", "flags"],
        SyscallKind::Fsync => &["fd"],
        SyscallKind::Fdatasync => &["fd"],
        SyscallKind::Stat => &["path"],
        SyscallKind::Lstat => &["path"],
        SyscallKind::Fstat => &["fd"],
        SyscallKind::Fstatfs => &["fd"],
        SyscallKind::Getxattr => &["path", "name"],
        SyscallKind::Lgetxattr => &["path", "name"],
        SyscallKind::Fgetxattr => &["fd", "name"],
        SyscallKind::Setxattr => &["path", "name", "size"],
        SyscallKind::Lsetxattr => &["path", "name", "size"],
        SyscallKind::Fsetxattr => &["fd", "name", "size"],
        SyscallKind::Listxattr => &["path"],
        SyscallKind::Llistxattr => &["path"],
        SyscallKind::Flistxattr => &["fd"],
        SyscallKind::Removexattr => &["path", "name"],
        SyscallKind::Lremovexattr => &["path", "name"],
        SyscallKind::Fremovexattr => &["fd", "name"],
        SyscallKind::Mknod => &["path", "mode"],
        SyscallKind::Mknodat => &["dfd", "path", "mode"],
        SyscallKind::Mkdir => &["path", "mode"],
        SyscallKind::Mkdirat => &["dfd", "path", "mode"],
        SyscallKind::Rmdir => &["path"],
        _ => &[],
    }
}

/// Position, in [`expected_args`]`(kind)`, of the argument that names the
/// syscall's primary target path (`path`, or `oldpath` for the rename family);
/// `None` for syscalls that take no path.
pub fn path_arg(kind: SyscallKind) -> Option<usize> {
    use SyscallKind::{Mkdirat, Mknodat, Openat, Renameat, Renameat2, Unlinkat};
    match kind {
        // The `*at` family names a directory descriptor first.
        Openat | Renameat | Renameat2 | Unlinkat | Mknodat | Mkdirat => Some(1),
        _ if kind.takes_path() => Some(0),
        _ => None,
    }
}

/// A single syscall argument value.
///
/// Mirrors what an eBPF program can read at a `sys_enter` tracepoint: raw
/// integers plus the user-space strings (paths, xattr names) the kernel
/// copies in.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(untagged)]
pub enum ArgValue {
    /// A signed integer argument (fds, whence values, modes...).
    Int(i64),
    /// An unsigned integer argument (sizes, offsets, flags...).
    UInt(u64),
    /// A string argument (paths, xattr names...).
    Str(String),
}

impl ArgValue {
    /// The value, lent: integers by value, a string by reference.
    pub fn as_ref(&self) -> ArgRef<'_> {
        match self {
            ArgValue::Int(v) => ArgRef::Int(*v),
            ArgValue::UInt(v) => ArgRef::UInt(*v),
            ArgValue::Str(s) => ArgRef::Str(s),
        }
    }

    /// Returns the value as `i64` when it is numeric.
    pub fn as_i64(&self) -> Option<i64> {
        self.as_ref().as_i64()
    }

    /// Returns the value as `u64` when it is numeric and non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_ref().as_u64()
    }

    /// Returns the value as a string slice when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        self.as_ref().as_str()
    }
}

impl PartialEq for ArgValue {
    /// Numeric variants compare by value ([`ArgRef`]'s equality).
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

/// An [`ArgValue`] lent rather than owned: what an [`ArgList`] hands out
/// without copying its strings.
#[derive(Debug, Clone, Copy)]
pub enum ArgRef<'a> {
    /// A signed integer argument.
    Int(i64),
    /// An unsigned integer argument.
    UInt(u64),
    /// A string argument.
    Str(&'a str),
}

impl<'a> ArgRef<'a> {
    /// Returns the value as `i64` when it is numeric.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            ArgRef::Int(v) => Some(v),
            ArgRef::UInt(v) => i64::try_from(v).ok(),
            ArgRef::Str(_) => None,
        }
    }

    /// Returns the value as `u64` when it is numeric and non-negative.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            ArgRef::Int(v) => u64::try_from(v).ok(),
            ArgRef::UInt(v) => Some(v),
            ArgRef::Str(_) => None,
        }
    }

    /// Returns the value as `f64` when it is numeric (the number a JSON
    /// reader sees; lossy beyond 2^53).
    pub fn as_f64(self) -> Option<f64> {
        match self {
            ArgRef::Int(v) => Some(v as f64),
            ArgRef::UInt(v) => Some(v as f64),
            ArgRef::Str(_) => None,
        }
    }

    /// Returns the value as a string slice when it is a string.
    pub fn as_str(self) -> Option<&'a str> {
        match self {
            ArgRef::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl PartialEq for ArgRef<'_> {
    /// Numeric variants compare by value (`Int(26) == UInt(26)`), so that an
    /// event survives a JSON round trip unchanged even though untagged serde
    /// picks one canonical integer representation.
    fn eq(&self, other: &Self) -> bool {
        match (*self, *other) {
            (ArgRef::Str(a), ArgRef::Str(b)) => a == b,
            (ArgRef::Str(_), _) | (_, ArgRef::Str(_)) => false,
            (ArgRef::Int(a), ArgRef::Int(b)) => a == b,
            (ArgRef::UInt(a), ArgRef::UInt(b)) => a == b,
            (ArgRef::Int(a), ArgRef::UInt(b)) | (ArgRef::UInt(b), ArgRef::Int(a)) => {
                u64::try_from(a).map(|a| a == b).unwrap_or(false)
            }
        }
    }
}

impl From<ArgRef<'_>> for ArgValue {
    fn from(v: ArgRef<'_>) -> Self {
        match v {
            ArgRef::Int(v) => ArgValue::Int(v),
            ArgRef::UInt(v) => ArgValue::UInt(v),
            ArgRef::Str(s) => ArgValue::Str(s.to_string()),
        }
    }
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::Int(v)
    }
}

impl From<i32> for ArgValue {
    fn from(v: i32) -> Self {
        ArgValue::Int(v as i64)
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::UInt(v)
    }
}

impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::UInt(v as u64)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::UInt(v as u64)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

impl std::fmt::Display for ArgValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgValue::Int(v) => write!(f, "{v}"),
            ArgValue::UInt(v) => write!(f, "{v}"),
            ArgValue::Str(s) => write!(f, "{s:?}"),
        }
    }
}

/// A named syscall argument, e.g. `count=4096` for `read`.
///
/// # Examples
///
/// ```
/// use dio_syscall::Arg;
///
/// let a = Arg::new("count", 4096u64);
/// assert_eq!(a.name, "count");
/// assert_eq!(a.value.as_u64(), Some(4096));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Arg {
    /// Argument name as it appears in the syscall signature.
    pub name: std::borrow::Cow<'static, str>,
    /// The observed value.
    pub value: ArgValue,
}

impl Arg {
    /// Creates a named argument from any supported value type.
    pub fn new(name: &'static str, value: impl Into<ArgValue>) -> Self {
        Arg { name: std::borrow::Cow::Borrowed(name), value: value.into() }
    }
}

impl std::fmt::Display for Arg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={}", self.name, self.value)
    }
}

/// The argument values of one syscall in the fixed layout they travel in,
/// from the tracepoint to the stored document: integers inline, each string
/// behind one shared allocation, names left to [`expected_args`] by position.
///
/// The layout is sized for the catalog — no traced syscall takes more than
/// [`ArgList::MAX_INTS`] integer or [`ArgList::MAX_STRS`] string arguments
/// (`renameat2` takes three and two) — so recording an integer-only syscall
/// allocates nothing, and the list is 64 bytes whatever it holds.
///
/// # Examples
///
/// ```
/// use dio_syscall::{ArgList, ArgValue};
///
/// let args: ArgList = [ArgValue::from(3i64), ArgValue::from("/f")].into_iter().collect();
/// assert_eq!(args.len(), 2);
/// assert_eq!(args.get(0).and_then(|v| v.as_i64()), Some(3));
/// assert_eq!(args.get(1).and_then(|v| v.as_str()), Some("/f"));
/// ```
///
/// It serializes as the sequence of its values, and compares as one: equal
/// integers are equal whatever their signedness, as for [`ArgValue`].
#[derive(Clone, Default)]
pub struct ArgList {
    /// Integer arguments in order; an `i64` is held by its bit pattern.
    ints: [u64; Self::MAX_INTS],
    /// String arguments in order.
    strs: [Option<Arc<str>>; Self::MAX_STRS],
    len: u8,
    /// Bit `i` set: argument `i` is a string.
    str_mask: u8,
    /// Bit `i` set: argument `i` is an unsigned integer.
    uint_mask: u8,
}

impl ArgList {
    /// Most integer arguments a list holds.
    pub const MAX_INTS: usize = 3;
    /// Most string arguments a list holds.
    pub const MAX_STRS: usize = 2;

    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of arguments.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list holds no argument.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How many of the arguments before position `i` are strings.
    fn strs_before(&self, i: usize) -> usize {
        (self.str_mask & ((1u8 << i) - 1)).count_ones() as usize
    }

    /// Appends `value`; a string is copied into its own shared allocation.
    ///
    /// # Panics
    ///
    /// Panics when the list already holds [`ArgList::MAX_INTS`] integers or
    /// [`ArgList::MAX_STRS`] strings: the catalog has grown past the layout.
    pub fn push(&mut self, value: &ArgValue) {
        assert!(
            self.try_push(value.as_ref()),
            "more than {} integer or {} string arguments",
            Self::MAX_INTS,
            Self::MAX_STRS
        );
    }

    /// [`Self::push`] for a value that may not be a syscall's: `false`, and
    /// the list unchanged, where `push` would panic.
    pub fn try_push(&mut self, value: ArgRef<'_>) -> bool {
        let i = self.len();
        let strs = self.strs_before(i);
        let (bits, unsigned) = match value {
            ArgRef::Str(s) => return self.try_push_shared(Arc::from(s)),
            ArgRef::Int(v) => (v as u64, false),
            ArgRef::UInt(v) => (v, true),
        };
        let ints = i - strs;
        if ints == Self::MAX_INTS {
            return false;
        }
        self.ints[ints] = bits;
        self.uint_mask |= (unsigned as u8) << i;
        self.len += 1;
        true
    }

    /// [`Self::try_push`] of a string argument that is already shared: the
    /// list holds `s` itself.
    pub fn try_push_shared(&mut self, s: Arc<str>) -> bool {
        let i = self.len();
        let strs = self.strs_before(i);
        if strs == Self::MAX_STRS {
            return false;
        }
        self.strs[strs] = Some(s);
        self.str_mask |= 1 << i;
        self.len += 1;
        true
    }

    /// The shared string at position `i`, when that argument is a string.
    pub fn str_at(&self, i: usize) -> Option<&Arc<str>> {
        if i < self.len() && self.str_mask & (1 << i) != 0 {
            self.strs[self.strs_before(i)].as_ref()
        } else {
            None
        }
    }

    /// The argument at position `i`.
    pub fn get(&self, i: usize) -> Option<ArgRef<'_>> {
        if i >= self.len() {
            return None;
        }
        Some(match self.str_at(i) {
            Some(s) => ArgRef::Str(s),
            None => {
                let bits = self.ints[i - self.strs_before(i)];
                if self.uint_mask & (1 << i) != 0 {
                    ArgRef::UInt(bits)
                } else {
                    ArgRef::Int(bits as i64)
                }
            }
        })
    }

    /// The arguments in order.
    pub fn iter(&self) -> impl Iterator<Item = ArgRef<'_>> {
        (0..self.len()).filter_map(|i| self.get(i))
    }
}

impl PartialEq for ArgList {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Serialize for ArgList {
    fn to_value(&self) -> serde_json::Value {
        self.iter().map(ArgValue::from).collect::<Vec<_>>().to_value()
    }
}

impl Deserialize for ArgList {
    fn from_value(value: &serde_json::Value) -> Result<Self, serde_json::Error> {
        let mut list = ArgList::new();
        for value in Vec::<ArgValue>::from_value(value)? {
            if !list.try_push(value.as_ref()) {
                return Err(serde_json::Error::custom("more arguments than a syscall takes"));
            }
        }
        Ok(list)
    }
}

impl<V: std::borrow::Borrow<ArgValue>> FromIterator<V> for ArgList {
    fn from_iter<I: IntoIterator<Item = V>>(values: I) -> Self {
        let mut list = ArgList::new();
        for value in values {
            list.push(value.borrow());
        }
        list
    }
}

impl std::fmt::Debug for ArgList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_list_keeps_order_type_and_sign() {
        let values = [
            ArgValue::Int(-100),
            ArgValue::from("/old"),
            ArgValue::Int(-100),
            ArgValue::from("/new"),
            ArgValue::UInt(u64::MAX),
        ];
        let list: ArgList = values.iter().collect();
        assert_eq!(list.len(), 5);
        assert!(list.iter().eq(values.iter().map(ArgValue::as_ref)));
        assert!(matches!(list.get(0), Some(ArgRef::Int(-100))));
        assert!(matches!(list.get(4), Some(ArgRef::UInt(u64::MAX))));
        assert_eq!(list.str_at(3).map(|s| &**s), Some("/new"));
        assert!(list.str_at(0).is_none() && list.str_at(5).is_none());
        assert!(list.get(5).is_none());
        assert_eq!(
            format!("{list:?}"),
            r#"[Int(-100), Str("/old"), Int(-100), Str("/new"), UInt(18446744073709551615)]"#
        );
        assert_eq!(list, list.clone());
        assert_ne!(list, values[..4].iter().collect::<ArgList>());
        assert!(std::mem::size_of::<ArgList>() <= 64);
    }

    #[test]
    #[should_panic(expected = "more than 3 integer")]
    fn arg_list_rejects_a_fourth_integer() {
        let _: ArgList = (0..4).map(ArgValue::Int).collect();
    }

    #[test]
    fn try_push_refuses_what_push_panics_on() {
        let mut list: ArgList = (0..3).map(ArgValue::Int).collect();
        assert!(!list.try_push(ArgRef::UInt(9)));
        assert!(list.try_push(ArgRef::Str("a")) && list.try_push(ArgRef::Str("b")));
        assert!(!list.try_push(ArgRef::Str("c")));
        assert_eq!(list.len(), 5);
        assert_eq!(list.get(4), Some(ArgRef::Str("b")));
    }

    #[test]
    fn path_arg_is_the_first_path_name() {
        assert_eq!(path_arg(SyscallKind::Openat), Some(1));
        assert_eq!(path_arg(SyscallKind::Renameat2), Some(1));
        assert_eq!(path_arg(SyscallKind::Mkdir), Some(0));
        assert_eq!(path_arg(SyscallKind::Read), None);
        for &k in SyscallKind::ALL {
            let first = expected_args(k).iter().position(|name| name.ends_with("path"));
            assert_eq!(path_arg(k), first, "{k}");
        }
    }

    #[test]
    fn arg_list_compares_and_serializes_as_its_values() {
        let list: ArgList =
            [ArgValue::Int(3), ArgValue::from("/f"), ArgValue::UInt(26)].iter().collect();
        let json = serde_json::to_string(&list).unwrap();
        assert_eq!(json, r#"[3,"/f",26]"#);
        // Untagged integers come back signed; they still compare equal.
        let back: ArgList = serde_json::from_str(&json).unwrap();
        assert!(matches!(back.get(2), Some(ArgRef::Int(26))));
        assert_eq!(back, list);
        assert_ne!(
            back,
            [ArgValue::Int(3), ArgValue::from("/g"), ArgValue::UInt(26)].iter().collect()
        );
        assert_ne!(back, [ArgValue::Int(3), ArgValue::from("/f")].iter().collect());
        assert!(serde_json::from_str::<ArgList>("[1,2,3,4]").is_err());
        assert!(serde_json::from_str::<ArgList>(r#"["a","b","c"]"#).is_err());
    }

    #[test]
    fn conversions() {
        assert_eq!(ArgValue::from(-1i64).as_i64(), Some(-1));
        assert_eq!(ArgValue::from(7u32).as_u64(), Some(7));
        assert_eq!(ArgValue::from("x").as_str(), Some("x"));
        assert_eq!(ArgValue::from("x").as_i64(), None);
        assert_eq!(ArgValue::Int(-1).as_u64(), None);
        assert_eq!(ArgValue::UInt(u64::MAX).as_i64(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Arg::new("fd", 3i64).to_string(), "fd=3");
        assert_eq!(Arg::new("path", "/tmp/a").to_string(), "path=\"/tmp/a\"");
    }

    #[test]
    fn serializes_untagged() {
        let v = serde_json::to_value(Arg::new("count", 26u64)).unwrap();
        assert_eq!(v["value"], serde_json::json!(26));
    }

    #[test]
    fn every_kind_has_expected_args() {
        for &k in SyscallKind::ALL {
            let names = expected_args(k);
            assert!(!names.is_empty(), "{k} has no expected args — decoding arm missing");
            let mut seen = std::collections::HashSet::new();
            for n in names {
                assert!(seen.insert(n), "{k} lists duplicate arg {n}");
            }
            // fd-bearing calls record `fd`; path-bearing calls record a path arg.
            if k.takes_fd() {
                assert!(names.contains(&"fd"), "{k} takes an fd but records no fd arg");
            }
            if k.takes_path() {
                assert!(
                    names.iter().any(|n| n.ends_with("path")),
                    "{k} takes a path but records no path arg"
                );
            }
        }
    }
}
