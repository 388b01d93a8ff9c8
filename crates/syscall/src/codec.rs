//! The binary form of a run of events: what a persisted store writes for
//! them (DESIGN.md §11.1).
//!
//! A run is a self-contained payload — no state crosses its boundary, so a
//! store can cut, copy or drop runs without a segment-wide dictionary:
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

use std::collections::HashMap;
use std::sync::Arc;

use crate::{path_arg, ArgList, ArgRef, FileTag, FileType, Pid, SyscallEvent, SyscallKind, Tid};

/// The payload format this code writes and reads.
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

fn put(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    (v >> 1) as i64 ^ -((v & 1) as i64)
}

const PRESENT_OFFSET: u8 = 1 << 4;
const PRESENT_TAG: u8 = 1 << 5;
const PATH_SHIFT: u8 = 6;
const PATH_IS_ARG: u8 = 1;
const PATH_IS_STRING: u8 = 2;

/// A run's dictionary: values in first-use order, each written once.
struct Dict<K> {
    at: HashMap<K, u32>,
    list: Vec<K>,
}

impl<K> Default for Dict<K> {
    fn default() -> Self {
        Dict { at: HashMap::new(), list: Vec::new() }
    }
}

impl<K: std::hash::Hash + Eq + Copy> Dict<K> {
    /// The index of `key`, added if it is new.
    fn index(&mut self, key: K) -> u32 {
        let list = &mut self.list;
        *self.at.entry(key).or_insert_with(|| {
            list.push(key);
            list.len() as u32 - 1
        })
    }
}

/// Builds one run: events are pushed in id order, [`RunEncoder::finish`]
/// writes the payload. The dictionaries borrow the events' strings.
#[derive(Default)]
pub struct RunEncoder<'a> {
    strings: Dict<&'a str>,
    /// Session and thread name (as string indices), pid and tid.
    threads: Dict<[u32; 4]>,
    tags: Dict<FileTag>,
    events: Vec<u8>,
    count: u64,
    last_time: u64,
}

impl<'a> RunEncoder<'a> {
    /// An empty run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Events pushed so far.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether no event was pushed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Appends `e` to the run.
    pub fn push(&mut self, e: &'a SyscallEvent) {
        let (session, comm) = (self.strings.index(&e.session), self.strings.index(&e.comm));
        let thread = self.threads.index([session, e.pid.0, e.tid.0, comm]);
        let path_arg = path_arg(e.kind).and_then(|i| e.args.str_at(i));
        let path_mode = match (&e.file_path, path_arg) {
            (None, _) => 0,
            (Some(path), Some(arg)) if **path == **arg => PATH_IS_ARG,
            (Some(_), _) => PATH_IS_STRING,
        };
        let mut present = e.file_type.map_or(0, |t| t as u8 + 1) | path_mode << PATH_SHIFT;
        present |= if e.offset.is_some() { PRESENT_OFFSET } else { 0 };
        present |= if e.file_tag.is_some() { PRESENT_TAG } else { 0 };

        let mut shape = e.args.len() as u64;
        let mut body = [0u64; ArgList::MAX_INTS + ArgList::MAX_STRS];
        for (i, arg) in e.args.iter().enumerate() {
            body[i] = match arg {
                ArgRef::Str(s) => {
                    shape |= 1 << (3 + i);
                    u64::from(self.strings.index(s))
                }
                ArgRef::Int(v) if v < 0 => {
                    shape |= 1 << (8 + i);
                    !v as u64
                }
                ArgRef::Int(v) => v as u64,
                ArgRef::UInt(v) => v,
            };
        }
        let tag = e.file_tag.map(|tag| self.tags.index(tag));
        let path = match (path_mode, &e.file_path) {
            (PATH_IS_STRING, Some(path)) => Some(self.strings.index(path)),
            _ => None,
        };

        let out = &mut self.events;
        out.push(e.kind as u8);
        out.push(present);
        put(out, u64::from(thread));
        put(out, u64::from(e.cpu));
        put(out, zigzag(e.time_enter_ns.wrapping_sub(self.last_time) as i64));
        put(out, zigzag(e.time_exit_ns.wrapping_sub(e.time_enter_ns) as i64));
        put(out, zigzag(e.ret));
        put(out, shape);
        for &v in &body[..e.args.len()] {
            put(out, v);
        }
        if let Some(offset) = e.offset {
            put(out, offset);
        }
        if let Some(tag) = tag {
            put(out, u64::from(tag));
        }
        if let Some(path) = path {
            put(out, u64::from(path));
        }
        self.last_time = e.time_enter_ns;
        self.count += 1;
    }

    /// Appends the run's payload to `out`.
    pub fn finish(self, out: &mut Vec<u8>) {
        out.push(VERSION);
        put(out, self.count);
        put(out, self.strings.list.len() as u64);
        for s in &self.strings.list {
            put(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        put(out, self.threads.list.len() as u64);
        for thread in &self.threads.list {
            thread.iter().for_each(|&v| put(out, u64::from(v)));
        }
        put(out, self.tags.list.len() as u64);
        for tag in &self.tags.list {
            [tag.dev, tag.ino, tag.first_access_ns].into_iter().for_each(|v| put(out, v));
        }
        out.extend_from_slice(&self.events);
    }
}

/// Appends the payload of the run `events` to `out`.
pub fn encode<'a>(events: impl IntoIterator<Item = &'a SyscallEvent>, out: &mut Vec<u8>) {
    let mut run = RunEncoder::new();
    events.into_iter().for_each(|e| run.push(e));
    run.finish(out);
}

/// A cursor over a payload. Every count it reads is checked against the
/// bytes left before anything is sized by it.
struct Reader<'b> {
    bytes: &'b [u8],
    at: usize,
}

impl<'b> Reader<'b> {
    fn byte(&mut self) -> Result<u8, DecodeError> {
        let b = *self.bytes.get(self.at).ok_or(DecodeError::Truncated)?;
        self.at += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, DecodeError> {
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

    fn narrow(&mut self) -> Result<u32, DecodeError> {
        u32::try_from(self.varint()?).map_err(|_| DecodeError::Invalid("number beyond u32"))
    }

    /// A count of items of at least one byte each: no more than are left.
    fn count(&mut self) -> Result<usize, DecodeError> {
        let n = self.varint()?;
        let left = (self.bytes.len() - self.at) as u64;
        if n > left {
            return Err(DecodeError::Truncated);
        }
        Ok(n as usize)
    }

    fn index<'t, T>(&mut self, table: &'t [T]) -> Result<&'t T, DecodeError> {
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
    let mut r = Reader { bytes, at: 0 };
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
        let len = r.count()?;
        let text = std::str::from_utf8(&bytes[r.at..r.at + len])
            .map_err(|_| DecodeError::Invalid("string is not UTF-8"))?;
        r.at += len;
        strings.push(Arc::from(text));
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
    use crate::ArgValue;

    fn write(time: u64) -> SyscallEvent {
        let mut e = SyscallEvent::synthetic(SyscallKind::Write);
        e.session = "s1".into();
        e.comm = "app".into();
        e.pid = Pid(100);
        e.tid = Tid(101);
        e.time_enter_ns = time;
        e.time_exit_ns = time + 2_000;
        e.ret = 26;
        e.args = [ArgValue::Int(3), ArgValue::UInt(26)].into_iter().collect();
        e.file_type = Some(FileType::Regular);
        e.offset = Some(26 * time);
        e.file_tag = Some(FileTag::new(7_340_032, 12, 2_156_997_363_734_041));
        e
    }

    fn openat(path: &str, same: bool) -> SyscallEvent {
        let mut e = SyscallEvent::synthetic(SyscallKind::Openat);
        e.args = [ArgValue::Int(-100), path.into(), ArgValue::UInt(0o102), ArgValue::UInt(0o644)]
            .into_iter()
            .collect();
        e.file_path = if same { e.args.str_at(1).cloned() } else { Some("/elsewhere".into()) };
        e
    }

    fn roundtrip(events: &[SyscallEvent]) -> Vec<SyscallEvent> {
        let mut bytes = Vec::new();
        encode(events, &mut bytes);
        let mut back = Vec::new();
        decode(&bytes, &mut back).expect("decodes");
        back
    }

    #[test]
    fn a_run_decodes_to_its_events() {
        let events = vec![write(1_000), openat("/a \"q\"", true), write(900), openat("/b", false)];
        let back = roundtrip(&events);
        assert_eq!(back, events);
        for (a, b) in back.iter().zip(&events) {
            assert_eq!(a.to_document().to_string(), b.to_document().to_string());
        }
        assert!(Arc::ptr_eq(&back[0].session, &back[2].session), "one allocation per string");
        let path = back[1].args.str_at(1).expect("path argument");
        assert!(Arc::ptr_eq(back[1].file_path.as_ref().expect("file path"), path));
        assert!(roundtrip(&[]).is_empty());
    }

    /// A traced `write` costs about twenty bytes once the run's dictionaries
    /// are paid for.
    #[test]
    fn a_write_in_a_run_costs_about_twenty_bytes() {
        let events: Vec<SyscallEvent> = (0..100).map(|i| write(1_000_000 + 3_000 * i)).collect();
        let mut bytes = Vec::new();
        encode(&events, &mut bytes);
        let mut one = Vec::new();
        encode(&events[..1], &mut one);
        let per_event = (bytes.len() - one.len()) as f64 / 99.0;
        assert!(per_event <= 20.0, "{per_event} B per event");
    }

    #[test]
    fn what_is_not_a_run_does_not_decode() {
        let mut bytes = Vec::new();
        encode(&[write(5), openat("/a", true)], &mut bytes);
        let mut out = Vec::new();
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut], &mut out).is_err(), "a prefix of {cut} bytes decoded");
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(
            decode(&longer, &mut out),
            Err(DecodeError::Invalid("bytes after the last event"))
        );
        let mut newer = bytes.clone();
        newer[0] = 0xFF;
        assert_eq!(decode(&newer, &mut out), Err(DecodeError::Version(0xFF)));
        // A count from the payload does not size anything on its own.
        assert_eq!(
            decode(&[VERSION, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F], &mut out),
            Err(DecodeError::Truncated)
        );
        assert!(out.is_empty(), "nothing is appended by a failed decode");
    }
}
