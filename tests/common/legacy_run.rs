//! The writer of the first run format (`dio_syscall::codec::VERSION`),
//! which `dio-store v2` stores hold and nothing in the product writes any
//! more: kept verbatim so the property suite can hand the frozen reader
//! runs of every shape. Only `tests/properties.rs` compiles it.

use std::collections::HashMap;

use dio_syscall::codec::{put, zigzag, VERSION};
use dio_syscall::{path_arg, ArgList, ArgRef, FileTag, SyscallEvent};

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
struct RunEncoder<'a> {
    strings: Dict<&'a str>,
    /// Session and thread name (as string indices), pid and tid.
    threads: Dict<[u32; 4]>,
    tags: Dict<FileTag>,
    events: Vec<u8>,
    count: u64,
    last_time: u64,
}

impl<'a> RunEncoder<'a> {
    /// Appends `e` to the run.
    fn push(&mut self, e: &'a SyscallEvent) {
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
    fn finish(self, out: &mut Vec<u8>) {
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
    let mut run = RunEncoder::default();
    events.into_iter().for_each(|e| run.push(e));
    run.finish(out);
}
