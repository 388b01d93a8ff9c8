//! The varints every binary payload of a persisted store is written in, and
//! the reader of the store's first run format (DESIGN.md §11.1).
//!
//! A store now writes runs of an index's compact rows, whose strings,
//! threads and file tags are ids into the index's own dictionaries, logged
//! as records of their own (`dio-store v3`, `dio_backend`'s `row` module).
//! Runs of the first format ([`VERSION`]), which `dio-store v2` stores hold,
//! still decode here; nothing writes them any more. Each is self-contained,
//! with its own dictionaries:
//!
//! ```text
//! [version: u8]                          VERSION
//! [count]                                events in the run
//! [strings] n, then n × (len, bytes)     sessions, thread names, string arguments, paths
//! [threads] n, then n × (session, pid, tid, comm)   string indices and numbers
//! [tags]    n, then n × (dev, ino, first_access_ns)
//! count × event:
//!   [kind: u8]                           position in `SyscallKind::ALL`; `class` is derived
//!   [present: u8]                        bits 0-3 file type + 1 (0 = none), bit 4 offset,
//!                                        bit 5 file tag, bits 6-7 file path (0 none,
//!                                        1 the path argument's, 2 a string)
//!   [thread] [cpu]
//!   [time]                               zigzag delta from the previous event's
//!   [time_exit]                          zigzag delta from `time`: the latency
//!   [ret]                                zigzag
//!   [shape]                              argument count | strings << 3 | negatives << 8
//!   [args]                               by catalog position: a string index, a
//!                                        non-negative integer, or !v of a negative one
//!   [offset] [tag] [path]                when `present` says so
//! ```
//!
//! Every number but the two leading bytes of an event is a LEB128 varint. An
//! integer argument keeps its value and sign, not its Rust type: `Int(3)`
//! decodes as `UInt(3)`, which compares equal and prints the same — what
//! [`SyscallEvent::from_document`] gives back too.

use std::sync::Arc;

use crate::{path_arg, ArgList, ArgRef, FileTag, FileType, Pid, SyscallEvent, SyscallKind, Tid};

/// The first run format, which this code reads.
pub const VERSION: u8 = 1;

/// Why a payload did not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The leading byte names a format this code does not know.
    Version(u8),
    /// The payload ends before what it declares.
    Truncated,
    /// A value no encoder writes: an out-of-range index, kind or width,
    /// bytes that are not UTF-8, bytes after the last event.
    Invalid(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Version(v) => write!(f, "unknown run format version {v}"),
            DecodeError::Truncated => f.write_str("run payload truncated"),
            DecodeError::Invalid(what) => write!(f, "invalid run payload: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends `v` to `out` as a LEB128 varint.
pub fn put(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// `v` with its sign in the low bit: small magnitudes stay small.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// The inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    (v >> 1) as i64 ^ -((v & 1) as i64)
}

const PRESENT_OFFSET: u8 = 1 << 4;
const PRESENT_TAG: u8 = 1 << 5;
const PATH_SHIFT: u8 = 6;
const PATH_IS_ARG: u8 = 1;
const PATH_IS_STRING: u8 = 2;

/// A cursor over a payload. Every count it reads is checked against the
/// bytes left before anything is sized by it.
pub struct Reader<'b> {
    bytes: &'b [u8],
    at: usize,
}

impl<'b> Reader<'b> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'b [u8]) -> Self {
        Reader { bytes, at: 0 }
    }

    /// Bytes not read yet.
    pub fn left(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// The next byte.
    pub fn byte(&mut self) -> Result<u8, DecodeError> {
        let b = *self.bytes.get(self.at).ok_or(DecodeError::Truncated)?;
        self.at += 1;
        Ok(b)
    }

    /// The next varint.
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            if shift == 63 && b > 1 {
                return Err(DecodeError::Invalid("varint beyond 64 bits"));
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(DecodeError::Invalid("varint beyond 64 bits"))
    }

    /// The next varint, which must fit 32 bits.
    pub fn narrow(&mut self) -> Result<u32, DecodeError> {
        u32::try_from(self.varint()?).map_err(|_| DecodeError::Invalid("number beyond u32"))
    }

    /// A count of items of at least one byte each: no more than are left.
    pub fn count(&mut self) -> Result<usize, DecodeError> {
        let n = self.varint()?;
        let left = (self.bytes.len() - self.at) as u64;
        if n > left {
            return Err(DecodeError::Truncated);
        }
        Ok(n as usize)
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'b str, DecodeError> {
        let len = self.count()?;
        let text = std::str::from_utf8(&self.bytes[self.at..self.at + len])
            .map_err(|_| DecodeError::Invalid("string is not UTF-8"))?;
        self.at += len;
        Ok(text)
    }

    /// The entry of `table` the next varint names.
    pub fn index<'t, T>(&mut self, table: &'t [T]) -> Result<&'t T, DecodeError> {
        let at = self.varint()?;
        usize::try_from(at)
            .ok()
            .and_then(|at| table.get(at))
            .ok_or(DecodeError::Invalid("dictionary index out of range"))
    }
}

/// Decodes a run payload into its events, appended to `out` in run order.
/// Nothing is appended when the payload does not decode.
pub fn decode(bytes: &[u8], out: &mut Vec<SyscallEvent>) -> Result<(), DecodeError> {
    let mut r = Reader::new(bytes);
    let version = r.byte()?;
    if version != VERSION {
        return Err(DecodeError::Version(version));
    }
    // An event takes at least eight bytes: a count beyond that does not
    // size the output.
    let count = r.count()?;
    if count > (bytes.len() - r.at) / 8 {
        return Err(DecodeError::Truncated);
    }
    let mut strings: Vec<Arc<str>> = Vec::new();
    for _ in 0..r.count()? {
        strings.push(Arc::from(r.str()?));
    }
    let mut threads = Vec::new();
    for _ in 0..r.count()? {
        let session = r.index(&strings)?;
        let (pid, tid) = (Pid(r.narrow()?), Tid(r.narrow()?));
        threads.push((session, pid, tid, r.index(&strings)?));
    }
    let mut tags = Vec::new();
    for _ in 0..r.count()? {
        tags.push(FileTag::new(r.varint()?, r.varint()?, r.varint()?));
    }

    let start = out.len();
    out.reserve(count);
    let mut last_time = 0u64;
    for _ in 0..count {
        match event(&mut r, &strings, &threads, &tags, &mut last_time) {
            Ok(e) => out.push(e),
            Err(e) => {
                out.truncate(start);
                return Err(e);
            }
        }
    }
    if r.at != bytes.len() {
        out.truncate(start);
        return Err(DecodeError::Invalid("bytes after the last event"));
    }
    Ok(())
}

type Thread<'s> = (&'s Arc<str>, Pid, Tid, &'s Arc<str>);

fn event(
    r: &mut Reader<'_>,
    strings: &[Arc<str>],
    threads: &[Thread<'_>],
    tags: &[FileTag],
    last_time: &mut u64,
) -> Result<SyscallEvent, DecodeError> {
    let kind = *SyscallKind::ALL.get(usize::from(r.byte()?)).ok_or(DecodeError::Invalid("kind"))?;
    let present = r.byte()?;
    let (session, pid, tid, comm) = *r.index(threads)?;
    let cpu = r.narrow()?;
    let time_enter_ns = last_time.wrapping_add(unzigzag(r.varint()?) as u64);
    *last_time = time_enter_ns;
    let time_exit_ns = time_enter_ns.wrapping_add(unzigzag(r.varint()?) as u64);
    let ret = unzigzag(r.varint()?);
    let shape = r.varint()?;
    let (len, strs, negatives) = ((shape & 7) as usize, (shape >> 3) & 0x1F, shape >> 8);
    if len > ArgList::MAX_INTS + ArgList::MAX_STRS
        || strs >> len != 0
        || negatives >> len != 0
        || strs & negatives != 0
    {
        return Err(DecodeError::Invalid("argument shape"));
    }
    let mut args = ArgList::new();
    for i in 0..len {
        // A string argument shares the dictionary's allocation: equal
        // strings of a run are one allocation.
        let pushed = if strs & 1 << i != 0 {
            args.try_push_shared(Arc::clone(r.index(strings)?))
        } else if negatives & 1 << i != 0 {
            args.try_push(ArgRef::Int(!(r.varint()? as i64)))
        } else {
            args.try_push(ArgRef::UInt(r.varint()?))
        };
        if !pushed {
            return Err(DecodeError::Invalid("more arguments than a syscall takes"));
        }
    }
    let file_type = match present & 0xF {
        0 => None,
        t => Some(*FileType::ALL.get(usize::from(t) - 1).ok_or(DecodeError::Invalid("file type"))?),
    };
    let offset = if present & PRESENT_OFFSET != 0 { Some(r.varint()?) } else { None };
    let file_tag = if present & PRESENT_TAG != 0 { Some(*r.index(tags)?) } else { None };
    let file_path = match present >> PATH_SHIFT {
        0 => None,
        PATH_IS_ARG => Some(
            path_arg(kind)
                .and_then(|i| args.str_at(i))
                .cloned()
                .ok_or(DecodeError::Invalid("file path names no path argument"))?,
        ),
        PATH_IS_STRING => Some(Arc::clone(r.index(strings)?)),
        _ => return Err(DecodeError::Invalid("file path mode")),
    };
    Ok(SyscallEvent {
        session: Arc::clone(session),
        kind,
        class: kind.class(),
        pid,
        tid,
        comm: Arc::clone(comm),
        cpu,
        time_enter_ns,
        time_exit_ns,
        ret,
        args,
        file_type,
        offset,
        file_tag,
        file_path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_and_zigzag_round_trip() {
        for v in [0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut out = Vec::new();
            put(&mut out, v);
            let mut r = Reader::new(&out);
            assert_eq!((r.varint(), r.left()), (Ok(v), 0));
        }
        for v in [0, -1, 1, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert!(zigzag(-3) < 8, "small magnitudes stay small");
        let mut r = Reader::new(&[0xFF; 11]);
        assert_eq!(r.varint(), Err(DecodeError::Invalid("varint beyond 64 bits")));
    }

    /// What is not a run of this format does not decode, and a count from
    /// the payload sizes nothing on its own. Runs this format wrote are
    /// decoded against a writer kept beside the property suites
    /// (`tests/common/legacy_run.rs`).
    #[test]
    fn what_is_not_a_run_does_not_decode() {
        let mut out = Vec::new();
        assert_eq!(decode(&[0xFF, 0], &mut out), Err(DecodeError::Version(0xFF)));
        assert_eq!(
            decode(&[VERSION, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F], &mut out),
            Err(DecodeError::Truncated)
        );
        assert_eq!(
            decode(&[VERSION, 0, 0, 0, 0, 7], &mut out),
            Err(DecodeError::Invalid("bytes after the last event"))
        );
        assert_eq!(decode(&[VERSION, 0, 0, 0, 0], &mut out), Ok(()));
        assert!(out.is_empty(), "nothing is appended by a failed decode");
    }
}
