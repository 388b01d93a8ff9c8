//! How an index holds a document: a syscall event as a fixed-width compact
//! row over the index's dictionaries, anything else as its JSON text.
//!
//! What an event repeats — its session and thread name, pid and tid, its
//! file tag, its paths and string arguments — each index holds once, in
//! append-only dictionaries, and the row names it by a `u32`. Everything
//! else stays inline. There is one conversion each way: [`Dicts::intern`]
//! makes the row of an event, [`Dicts::event`] builds the event back, and
//! every reader — queries, sort, aggregations, the inverted indexes, hits,
//! updates — reads the event it builds.
//!
//! The log holds the same two things (DESIGN.md §11.1): runs of rows
//! ([`RunWriter`], [`decode_run`]), written from the rows and read back into
//! rows, and dictionary records ([`Dicts::record`], [`DictRecord`]) of the
//! entries the index added since its last one. A run names what a record
//! defines by the same ids its rows hold; no event is built either way.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use dio_syscall::codec::{put, unzigzag, zigzag, DecodeError, Reader};
use dio_syscall::{
    path_arg, ArgList, ArgRef, FileTag, FileType, Pid, SyscallClass, SyscallEvent, SyscallKind, Tid,
};
use serde_json::Value;

use crate::storage::Put;
use crate::value_path::DocRef;

/// A stored document. What decides its kind is the document, not the door it
/// came through: one that is exactly a syscall event's document is kept as
/// the event's compact row, anything else — health, span, alert, phase and
/// storage documents, an event an update gave a foreign field — as its JSON
/// text, which a reader parses when it reads the row (Elasticsearch keeps
/// `_source` so beside its inverted index). A 120–340 B health document
/// took ≈ 1 KB as a `Value`; the text is also what the write-through log
/// stores.
pub(crate) enum Row {
    Event(Compact),
    Json(Box<str>),
}

/// An event in 88 bytes: the numbers it owns inline, what it shares with
/// other events as ids into the index's [`Dicts`].
#[derive(Debug, Clone, PartialEq)]
pub struct Compact {
    time_enter_ns: u64,
    time_exit_ns: u64,
    ret: i64,
    /// Meaningful when `flags` has [`OFFSET`].
    offset: u64,
    /// The integer arguments' bit patterns, in order.
    ints: [u64; ArgList::MAX_INTS],
    cpu: u32,
    /// `(session, pid, tid, thread name)` in [`Dicts::threads`].
    thread: u32,
    /// In [`Dicts::tags`], when `flags` has [`TAG`].
    tag: u32,
    /// `file_path` in [`Dicts::strings`], when `flags` has [`PATH`].
    path: u32,
    /// The string arguments, in order, in [`Dicts::strings`].
    strs: [u32; ArgList::MAX_STRS],
    kind: SyscallKind,
    /// As the event held it, which need not be `kind.class()`.
    class: SyscallClass,
    file_type: Option<FileType>,
    flags: u8,
    /// Number of arguments.
    len: u8,
    /// Bit `i` set: argument `i` is a string.
    str_mask: u8,
    /// Bit `i` set: argument `i` is an unsigned integer.
    uint_mask: u8,
}

const OFFSET: u8 = 1;
const TAG: u8 = 1 << 1;
const PATH: u8 = 1 << 2;

/// A document with its event built: what the table takes in (`Doc<Box<str>>`,
/// anything else as its JSON text) and what a reader is handed (`Doc<Value>`,
/// the text parsed).
pub(crate) enum Doc<J> {
    Event(SyscallEvent),
    Json(J),
}

impl From<Value> for Doc<Value> {
    /// The one way a JSON value becomes a document: an event if it is
    /// exactly an event's document ([`SyscallEvent::from_document`]).
    fn from(doc: Value) -> Self {
        match SyscallEvent::from_document(&doc) {
            Some(event) => Doc::Event(event),
            None => Doc::Json(doc),
        }
    }
}

impl Doc<Value> {
    pub(crate) fn as_ref(&self) -> DocRef<'_> {
        match self {
            Doc::Event(event) => DocRef::Event(event),
            Doc::Json(doc) => DocRef::Json(doc),
        }
    }

    /// The document as a JSON value.
    pub(crate) fn into_value(self) -> Value {
        match self {
            Doc::Event(event) => event.to_document(),
            Doc::Json(doc) => doc,
        }
    }

    /// The document as the table takes it in: anything but an event as the
    /// text `serde_json` writes for it.
    pub(crate) fn into_text(self) -> Doc<Box<str>> {
        match self {
            Doc::Event(event) => Doc::Event(event),
            Doc::Json(doc) => Doc::Json(doc.to_string().into_boxed_str()),
        }
    }
}

impl Doc<Box<str>> {
    /// The document `text` holds, unless it is not one JSON document: the
    /// event it is exactly the document of, or else the text as it came.
    /// Text as `serde_json` writes it — keys in order, no whitespace — starts
    /// an event's document with its first key, `{"args":`; any other text is
    /// only checked, not built.
    pub(crate) fn from_text(text: String) -> Result<Self, serde_json::Error> {
        if !text.starts_with(r#"{"args":"#) {
            serde_json::from_str::<serde::de::IgnoredAny>(&text)?;
            return Ok(Doc::Json(text.into_boxed_str()));
        }
        let doc: Value = serde_json::from_str(&text)?;
        Ok(match SyscallEvent::from_document(&doc) {
            Some(event) => Doc::Event(event),
            None => Doc::Json(text.into_boxed_str()),
        })
    }
}

/// Values in first-use order, each held once and named by its place.
struct Dict<K> {
    ids: HashMap<K, u32>,
    values: Vec<K>,
}

impl<K> Default for Dict<K> {
    fn default() -> Self {
        Dict { ids: HashMap::new(), values: Vec::new() }
    }
}

impl<K: Hash + Eq + Clone> Dict<K> {
    /// The id of the value `key` looks up; a new one is added as `own`
    /// makes it.
    fn id<Q>(&mut self, key: &Q, own: impl FnOnce() -> K) -> u32
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        let id = u32::try_from(self.values.len()).expect("fewer than 2^32 distinct values");
        let value = own();
        self.values.push(value.clone());
        self.ids.insert(value, id);
        id
    }

    fn get(&self, id: u32) -> &K {
        &self.values[id as usize]
    }
}

const RECENT: usize = 64;

/// Ids interned lately, one slot per `slot % 64`: the threads and files a
/// session names over and over are found without hashing anything.
struct Recent<K>([Option<(K, u32)>; RECENT]);

impl<K: Copy> Default for Recent<K> {
    fn default() -> Self {
        Recent([None; RECENT])
    }
}

impl<K: Copy + Eq> Recent<K> {
    fn get(&self, slot: u64, key: &K) -> Option<u32> {
        match self.0[slot as usize % RECENT] {
            Some((held, id)) if held == *key => Some(id),
            _ => None,
        }
    }

    fn put(&mut self, slot: u64, key: K, id: u32) {
        self.0[slot as usize % RECENT] = Some((key, id));
    }
}

/// The address of a shared string's bytes.
fn address(s: &Arc<str>) -> usize {
    Arc::as_ptr(s) as *const u8 as usize
}

/// The dictionaries of one index. They only grow: a value stays when the
/// last row naming it is deleted or updated away, as an id is never handed
/// out twice.
#[derive(Default)]
pub(crate) struct Dicts {
    /// Session and thread names, paths and string arguments: equal strings
    /// of an index are one allocation.
    strings: Dict<Arc<str>>,
    /// `[session, pid, tid, thread name]`, the names as string ids.
    threads: Dict<[u32; 4]>,
    tags: Dict<FileTag>,
    /// Threads by tid, keyed by the addresses of the session and thread
    /// names `strings` holds, pid and tid. An event's name at such an
    /// address is that very allocation — the dictionary keeps it alive, so
    /// nothing else can be there — as it is for every event a tracer parses.
    recent_threads: Recent<(usize, usize, u32, u32)>,
    /// Tags by inode.
    recent_tags: Recent<FileTag>,
    /// Entries of `strings`, `threads` and `tags` a dictionary record in the
    /// log defines: the lengths each had at the last one.
    logged: [usize; 3],
}

impl Dicts {
    fn string(&mut self, s: &Arc<str>) -> u32 {
        self.strings.id(&**s, || Arc::clone(s))
    }

    fn thread(&mut self, e: &SyscallEvent) -> u32 {
        let (pid, tid) = (e.pid.0, e.tid.0);
        let key = (address(&e.session), address(&e.comm), pid, tid);
        if let Some(id) = self.recent_threads.get(u64::from(tid), &key) {
            return id;
        }
        let (session, comm) = (self.string(&e.session), self.string(&e.comm));
        let id = self.threads.id(&[session, pid, tid, comm], || [session, pid, tid, comm]);
        let held = (address(self.strings.get(session)), address(self.strings.get(comm)), pid, tid);
        self.recent_threads.put(u64::from(tid), held, id);
        id
    }

    fn tag(&mut self, tag: FileTag) -> u32 {
        if let Some(id) = self.recent_tags.get(tag.ino, &tag) {
            return id;
        }
        let id = self.tags.id(&tag, || tag);
        self.recent_tags.put(tag.ino, tag, id);
        id
    }

    /// The row of `event`: `event(&intern(e))` is `e`, argument signedness
    /// and `class` included.
    pub(crate) fn intern(&mut self, e: &SyscallEvent) -> Compact {
        let thread = self.thread(e);
        let mut row = Compact {
            time_enter_ns: e.time_enter_ns,
            time_exit_ns: e.time_exit_ns,
            ret: e.ret,
            offset: e.offset.unwrap_or(0),
            ints: [0; ArgList::MAX_INTS],
            cpu: e.cpu,
            thread,
            tag: 0,
            path: 0,
            strs: [0; ArgList::MAX_STRS],
            kind: e.kind,
            class: e.class,
            file_type: e.file_type,
            flags: if e.offset.is_some() { OFFSET } else { 0 },
            len: e.args.len() as u8,
            str_mask: 0,
            uint_mask: 0,
        };
        let (mut ints, mut strs) = (0, 0);
        for (i, arg) in e.args.iter().enumerate() {
            match arg {
                ArgRef::Str(_) => {
                    let s = e.args.str_at(i).expect("a string argument is shared");
                    row.strs[strs] = self.string(s);
                    row.str_mask |= 1 << i;
                    strs += 1;
                    continue;
                }
                ArgRef::Int(v) => row.ints[ints] = v as u64,
                ArgRef::UInt(v) => {
                    row.ints[ints] = v;
                    row.uint_mask |= 1 << i;
                }
            }
            ints += 1;
        }
        if let Some(tag) = e.file_tag {
            row.tag = self.tag(tag);
            row.flags |= TAG;
        }
        if let Some(path) = &e.file_path {
            row.path = self.string(path);
            row.flags |= PATH;
        }
        row
    }

    /// String `id`.
    pub(crate) fn text(&self, id: u32) -> &str {
        self.strings.get(id)
    }

    /// The row of `doc`, interned if it is an event.
    pub(crate) fn row(&mut self, doc: Doc<Box<str>>) -> Row {
        match doc {
            Doc::Event(event) => Row::Event(self.intern(&event)),
            Doc::Json(text) => Row::Json(text),
        }
    }

    /// The event `row` holds, its strings shared with the dictionary.
    pub(crate) fn event(&self, row: &Compact) -> SyscallEvent {
        let string = |id: u32| Arc::clone(self.strings.get(id));
        let &[session, pid, tid, comm] = self.threads.get(row.thread);
        let mut args = ArgList::new();
        let (mut ints, mut strs) = (0, 0);
        for i in 0..row.len {
            let pushed = if row.str_mask & 1 << i != 0 {
                strs += 1;
                args.try_push_shared(string(row.strs[strs - 1]))
            } else {
                let bits = row.ints[ints];
                ints += 1;
                args.try_push(match row.uint_mask & 1 << i != 0 {
                    true => ArgRef::UInt(bits),
                    false => ArgRef::Int(bits as i64),
                })
            };
            debug_assert!(pushed, "a row holds what an argument list held");
        }
        SyscallEvent {
            session: string(session),
            kind: row.kind,
            class: row.class,
            pid: Pid(pid),
            tid: Tid(tid),
            comm: string(comm),
            cpu: row.cpu,
            time_enter_ns: row.time_enter_ns,
            time_exit_ns: row.time_exit_ns,
            ret: row.ret,
            args,
            file_type: row.file_type,
            offset: (row.flags & OFFSET != 0).then_some(row.offset),
            file_tag: (row.flags & TAG != 0).then(|| *self.tags.get(row.tag)),
            file_path: (row.flags & PATH != 0).then(|| string(row.path)),
        }
    }

    /// What a reader is handed for `row`: its event built, or its text
    /// parsed.
    pub(crate) fn doc(&self, row: &Row) -> Doc<Value> {
        match row {
            Row::Event(row) => Doc::Event(self.event(row)),
            Row::Json(text) => {
                Doc::Json(serde_json::from_str(text).expect("a JSON row holds JSON"))
            }
        }
    }
}

impl Row {
    /// The tag and path of an open event that names both: what path
    /// correlation learns.
    pub(crate) fn opened(&self) -> Option<(u32, u32)> {
        let Row::Event(row) = self else { return None };
        let open = matches!(row.kind, SyscallKind::Open | SyscallKind::Openat | SyscallKind::Creat);
        (open && row.flags & (TAG | PATH) == TAG | PATH).then_some((row.tag, row.path))
    }

    /// What the log stores for the row: an event row goes into a run, any
    /// other is its JSON text.
    pub(crate) fn to_put(&self) -> Put<'_> {
        match self {
            Row::Event(row) => Put::Row(row),
            Row::Json(text) => Put::Json(text.as_bytes().to_vec()),
        }
    }
}

/// The run format this module writes and reads; earlier runs are
/// `dio_syscall::codec`'s.
pub(crate) const RUN_VERSION: u8 = 3;

const PRESENT_OFFSET: u8 = 1 << 4;
const PRESENT_TAG: u8 = 1 << 5;
const PATH_SHIFT: u8 = 6;
const PATH_IS_ARG: u8 = 1;
const PATH_IS_ID: u8 = 2;

const CLASSES: [SyscallClass; 4] = [
    SyscallClass::Data,
    SyscallClass::Metadata,
    SyscallClass::ExtendedAttributes,
    SyscallClass::DirectoryManagement,
];

/// A shape no row has (its class is out of range): a kind whose shape was
/// not written yet in the run.
const NO_SHAPE: u64 = u64::MAX;

impl Compact {
    /// The tag of an event that has one and no path: what path correlation
    /// gives a path.
    pub(crate) fn pathless_tag(&self) -> Option<u32> {
        (self.flags & (TAG | PATH) == TAG).then_some(self.tag)
    }

    /// Gives the event `file_path`: string `path` of the index.
    pub(crate) fn set_path(&mut self, path: u32) {
        (self.path, self.flags) = (path, self.flags | PATH);
    }

    /// The string id of the argument `path_arg` names, if that is a string.
    fn path_arg(&self) -> Option<u32> {
        let at = path_arg(self.kind).filter(|&at| at < usize::from(self.len))?;
        let below = self.str_mask & ((1 << at) - 1);
        (self.str_mask & 1 << at != 0).then(|| self.strs[below.count_ones() as usize])
    }

    /// Argument count | strings << 3 | unsigned << 8 | negative << 13 |
    /// class << 18, where class 0 is the kind's and `i + 1` is `CLASSES[i]`.
    fn shape(&self) -> u64 {
        let mut negative = 0u64;
        let (mut ints, ints_mask) = (0, !self.str_mask);
        for i in (0..self.len).filter(|i| ints_mask & 1 << i != 0) {
            if self.uint_mask & 1 << i == 0 && (self.ints[ints] as i64) < 0 {
                negative |= 1 << i;
            }
            ints += 1;
        }
        let class = match self.class == self.kind.class() {
            true => 0,
            false => CLASSES.iter().position(|&c| c == self.class).expect("every class") + 1,
        };
        u64::from(self.len)
            | u64::from(self.str_mask) << 3
            | u64::from(self.uint_mask) << 8
            | negative << 13
            | (class as u64) << 18
    }
}

/// Builds one run of event rows, pushed in id order; [`RunWriter::finish`]
/// writes the payload:
///
/// ```text
/// [version: u8]            RUN_VERSION
/// [count]                  rows in the run
/// count × row:
///   [kind: u8]             position in `SyscallKind::ALL`
///   [present: u8]          bits 0-3 file type + 1 (0 = none), bit 4 offset, bit 5 file
///                          tag, bits 6-7 file path (0 none, 1 the path argument's, 2 an id)
///   [thread] [cpu]         the thread as its id
///   [time]                 zigzag delta from the previous row's
///   [time_exit]            zigzag delta from `time`: the latency
///   [ret]                  zigzag
///   [shape]                0: the last shape of this kind in the run; else 1 + the
///                          shape (`Compact::shape`)
///   [args]                 in order: a string id, an unsigned value, a signed one's
///                          value or, when the shape says it is negative, !value
///   [offset] [tag] [path]  when `present` says so; the tag and path as ids
/// ```
///
/// Every number but the two leading bytes of a row is a LEB128 varint.
pub(crate) struct RunWriter {
    rows: Vec<u8>,
    count: u64,
    last_time: u64,
    shapes: [u64; SyscallKind::ALL.len()],
}

impl Default for RunWriter {
    fn default() -> Self {
        RunWriter {
            rows: Vec::new(),
            count: 0,
            last_time: 0,
            shapes: [NO_SHAPE; SyscallKind::ALL.len()],
        }
    }
}

impl RunWriter {
    /// Rows pushed so far.
    pub(crate) fn len(&self) -> usize {
        self.count as usize
    }

    /// Appends `row` to the run.
    pub(crate) fn push(&mut self, row: &Compact) {
        let path_mode = match row.flags & PATH != 0 {
            false => 0,
            true if row.path_arg() == Some(row.path) => PATH_IS_ARG,
            true => PATH_IS_ID,
        };
        let mut present = row.file_type.map_or(0, |t| t as u8 + 1) | path_mode << PATH_SHIFT;
        present |= if row.flags & OFFSET != 0 { PRESENT_OFFSET } else { 0 };
        present |= if row.flags & TAG != 0 { PRESENT_TAG } else { 0 };
        let out = &mut self.rows;
        out.push(row.kind as u8);
        out.push(present);
        put(out, u64::from(row.thread));
        put(out, u64::from(row.cpu));
        put(out, zigzag(row.time_enter_ns.wrapping_sub(self.last_time) as i64));
        put(out, zigzag(row.time_exit_ns.wrapping_sub(row.time_enter_ns) as i64));
        put(out, zigzag(row.ret));
        let shape = row.shape();
        let last = &mut self.shapes[row.kind as usize];
        put(out, if *last == shape { 0 } else { shape + 1 });
        *last = shape;
        let (mut ints, mut strs) = (0, 0);
        for i in 0..row.len {
            if row.str_mask & 1 << i != 0 {
                put(out, u64::from(row.strs[strs]));
                strs += 1;
                continue;
            }
            let bits = row.ints[ints];
            ints += 1;
            put(out, if shape >> 13 & 1 << i != 0 { !(bits as i64) as u64 } else { bits });
        }
        if row.flags & OFFSET != 0 {
            put(out, row.offset);
        }
        if row.flags & TAG != 0 {
            put(out, u64::from(row.tag));
        }
        if path_mode == PATH_IS_ID {
            put(out, u64::from(row.path));
        }
        self.last_time = row.time_enter_ns;
        self.count += 1;
    }

    /// Appends the run's payload to `out`.
    pub(crate) fn finish(self, out: &mut Vec<u8>) {
        out.push(RUN_VERSION);
        put(out, self.count);
        out.extend_from_slice(&self.rows);
    }
}

/// The rows of a run payload, in run order. Their ids are not checked:
/// only the index's dictionaries know which it defines ([`Dicts::admits`]).
pub(crate) fn decode_run(bytes: &[u8]) -> Result<Vec<Compact>, DecodeError> {
    let mut r = Reader::new(bytes);
    let version = r.byte()?;
    if version != RUN_VERSION {
        return Err(DecodeError::Version(version));
    }
    // A row takes at least eight bytes: a count beyond that sizes nothing.
    let count = r.count()?;
    if count > r.left() / 8 {
        return Err(DecodeError::Truncated);
    }
    let mut rows = Vec::with_capacity(count);
    let (mut last_time, mut shapes) = (0, [NO_SHAPE; SyscallKind::ALL.len()]);
    for _ in 0..count {
        rows.push(decode_row(&mut r, &mut last_time, &mut shapes)?);
    }
    match r.left() {
        0 => Ok(rows),
        _ => Err(DecodeError::Invalid("bytes after the last event")),
    }
}

fn decode_row(
    r: &mut Reader<'_>,
    last_time: &mut u64,
    shapes: &mut [u64; SyscallKind::ALL.len()],
) -> Result<Compact, DecodeError> {
    let invalid = DecodeError::Invalid;
    let kind = *SyscallKind::ALL.get(usize::from(r.byte()?)).ok_or(invalid("kind"))?;
    let present = r.byte()?;
    let (thread, cpu) = (r.narrow()?, r.narrow()?);
    let time_enter_ns = last_time.wrapping_add(unzigzag(r.varint()?) as u64);
    *last_time = time_enter_ns;
    let time_exit_ns = time_enter_ns.wrapping_add(unzigzag(r.varint()?) as u64);
    let ret = unzigzag(r.varint()?);
    let shape = match r.varint()? {
        0 => shapes[kind as usize],
        written => {
            shapes[kind as usize] = written - 1;
            written - 1
        }
    };
    let (len, strs, uints) =
        ((shape & 7) as u8, (shape >> 3 & 0x1F) as u8, (shape >> 8 & 0x1F) as u8);
    let (negative, class) = ((shape >> 13 & 0x1F) as u8, shape >> 18);
    let int_args = len.saturating_sub(strs.count_ones() as u8);
    if usize::from(len) > ArgList::MAX_INTS + ArgList::MAX_STRS
        || (strs | uints | negative) >> len != 0
        || strs & (uints | negative) != 0
        || uints & negative != 0
        || strs.count_ones() as usize > ArgList::MAX_STRS
        || usize::from(int_args) > ArgList::MAX_INTS
        || class > CLASSES.len() as u64
    {
        return Err(invalid("argument shape"));
    }
    let mut row = Compact {
        time_enter_ns,
        time_exit_ns,
        ret,
        offset: 0,
        ints: [0; ArgList::MAX_INTS],
        cpu,
        thread,
        tag: 0,
        path: 0,
        strs: [0; ArgList::MAX_STRS],
        kind,
        class: match class {
            0 => kind.class(),
            c => CLASSES[c as usize - 1],
        },
        file_type: match present & 0xF {
            0 => None,
            t => Some(*FileType::ALL.get(usize::from(t) - 1).ok_or(invalid("file type"))?),
        },
        flags: 0,
        len,
        str_mask: strs,
        uint_mask: uints,
    };
    let (mut ints, mut strs) = (0, 0);
    for i in 0..len {
        if row.str_mask & 1 << i != 0 {
            row.strs[strs] = r.narrow()?;
            strs += 1;
            continue;
        }
        let v = r.varint()?;
        row.ints[ints] = match (row.uint_mask & 1 << i != 0, negative & 1 << i != 0) {
            (true, _) => v,
            (false, _) if v > i64::MAX as u64 => return Err(invalid("signed argument")),
            (false, true) => !(v as i64) as u64,
            (false, false) => v,
        };
        ints += 1;
    }
    if present & PRESENT_OFFSET != 0 {
        (row.offset, row.flags) = (r.varint()?, row.flags | OFFSET);
    }
    if present & PRESENT_TAG != 0 {
        (row.tag, row.flags) = (r.narrow()?, row.flags | TAG);
    }
    row.path = match present >> PATH_SHIFT {
        0 => return Ok(row),
        PATH_IS_ARG => row.path_arg().ok_or(invalid("file path names no path argument"))?,
        PATH_IS_ID => r.narrow()?,
        _ => return Err(invalid("file path mode")),
    };
    row.flags |= PATH;
    Ok(row)
}

/// The entries one dictionary record defines: of each dictionary, the id
/// of the first and the values from it on.
///
/// ```text
/// [version: u8]                                  RUN_VERSION
/// [strings] first, n, then n × (len, bytes)
/// [threads] first, n, then n × (session, pid, tid, comm)   names as string ids
/// [tags]    first, n, then n × (dev, ino, first_access_ns)
/// ```
#[derive(Debug, PartialEq)]
pub struct DictRecord {
    strings: (usize, Vec<Arc<str>>),
    threads: (usize, Vec<[u32; 4]>),
    tags: (usize, Vec<FileTag>),
}

impl DictRecord {
    /// The record a payload holds.
    pub(crate) fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let version = r.byte()?;
        if version != RUN_VERSION {
            return Err(DecodeError::Version(version));
        }
        let list = |r: &mut Reader<'_>, width: usize| -> Result<(usize, usize), DecodeError> {
            let first = r.narrow()? as usize;
            let n = r.count()?;
            match n <= r.left() / width {
                true => Ok((first, n)),
                false => Err(DecodeError::Truncated),
            }
        };
        let (first, n) = list(&mut r, 1)?;
        let strings = (first, (0..n).map(|_| r.str().map(Arc::from)).collect::<Result<_, _>>()?);
        let (first, n) = list(&mut r, 4)?;
        let thread = |r: &mut Reader<'_>| -> Result<[u32; 4], DecodeError> {
            Ok([r.narrow()?, r.narrow()?, r.narrow()?, r.narrow()?])
        };
        let threads = (first, (0..n).map(|_| thread(&mut r)).collect::<Result<_, _>>()?);
        let (first, n) = list(&mut r, 3)?;
        let tag = |r: &mut Reader<'_>| -> Result<FileTag, DecodeError> {
            Ok(FileTag::new(r.varint()?, r.varint()?, r.varint()?))
        };
        let tags = (first, (0..n).map(|_| tag(&mut r)).collect::<Result<_, _>>()?);
        match r.left() {
            0 => Ok(DictRecord { strings, threads, tags }),
            _ => Err(DecodeError::Invalid("bytes after the last entry")),
        }
    }
}

impl<K: Hash + Eq + Clone> Dict<K> {
    /// Defines the values `first..` of `values`: a value already held must
    /// be the same, the next is added, and one past a gap is not — no
    /// record that defines what lies between survived.
    fn define(&mut self, first: usize, values: Vec<K>) -> Result<(), &'static str> {
        for (id, value) in (first..).zip(values) {
            if id > self.values.len() {
                break;
            }
            if id < self.values.len() {
                if self.values[id] != value {
                    return Err("two dictionary records disagree");
                }
                continue;
            }
            let id32 = u32::try_from(id).map_err(|_| "a dictionary beyond 2^32 values")?;
            if self.ids.insert(value.clone(), id32).is_some() {
                return Err("a dictionary value under two ids");
            }
            self.values.push(value);
        }
        Ok(())
    }
}

impl Dicts {
    /// The payload of a dictionary record of what the index added since the
    /// last one, if anything.
    pub(crate) fn record(&self) -> Option<Vec<u8>> {
        let [strings, threads, tags] = self.logged;
        if [strings, threads, tags] == self.lens() {
            return None;
        }
        let mut out = vec![RUN_VERSION];
        let list = |out: &mut Vec<u8>, first: usize, len: usize| {
            put(out, first as u64);
            put(out, (len - first) as u64);
        };
        list(&mut out, strings, self.strings.values.len());
        for s in &self.strings.values[strings..] {
            put(&mut out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        list(&mut out, threads, self.threads.values.len());
        for thread in &self.threads.values[threads..] {
            thread.iter().for_each(|&v| put(&mut out, u64::from(v)));
        }
        list(&mut out, tags, self.tags.values.len());
        for tag in &self.tags.values[tags..] {
            [tag.dev, tag.ino, tag.first_access_ns].into_iter().for_each(|v| put(&mut out, v));
        }
        Some(out)
    }

    /// Notes that the log holds every entry: the last [`Dicts::record`] was
    /// appended.
    pub(crate) fn note_logged(&mut self) {
        self.logged = self.lens();
    }

    fn lens(&self) -> [usize; 3] {
        [self.strings.values.len(), self.threads.values.len(), self.tags.values.len()]
    }

    /// The dictionaries the records of a log define, in whatever order the
    /// shards recovered them: a record starts where an earlier one ended, so
    /// sorted by their first ids they replay in the order they were written.
    pub(crate) fn replay(mut records: Vec<DictRecord>) -> Result<Self, &'static str> {
        records.sort_by_key(|r| (r.strings.0, r.threads.0, r.tags.0));
        let mut dicts = Dicts::default();
        for DictRecord { strings, threads, tags } in records {
            dicts.strings.define(strings.0, strings.1)?;
            dicts.threads.define(threads.0, threads.1)?;
            dicts.tags.define(tags.0, tags.1)?;
        }
        let names = dicts.strings.values.len() as u32;
        if dicts.threads.values.iter().any(|&[session, _, _, comm]| session.max(comm) >= names) {
            return Err("a thread names a string no record defines");
        }
        dicts.note_logged();
        Ok(dicts)
    }

    /// Whether every id `row` names is one a dictionary record defines.
    pub(crate) fn admits(&self, row: &Compact) -> bool {
        let [strings, threads, tags] = self.logged.map(|len| len as u64);
        let strs = row.strs[..row.str_mask.count_ones() as usize].iter();
        u64::from(row.thread) < threads
            && (row.flags & TAG == 0 || u64::from(row.tag) < tags)
            && (row.flags & PATH == 0 || u64::from(row.path) < strings)
            && strs.into_iter().all(|&id| u64::from(id) < strings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dio_syscall::{path_arg, ArgValue};

    /// A slot of the row table, where an event took 200 B: the row is 88 B,
    /// and the row kinds' tags and the empty slot fit in bit patterns it
    /// leaves unused (the slot reads 88 B), or else in eight bytes beside it.
    #[test]
    fn a_table_slot_takes_at_most_96_bytes() {
        assert_eq!(std::mem::size_of::<Compact>(), 88);
        assert!(std::mem::size_of::<Option<Row>>() <= 96, "{}", std::mem::size_of::<Option<Row>>());
    }

    fn openat(path: &str, dfd: i64) -> SyscallEvent {
        let mut e = SyscallEvent::synthetic(SyscallKind::Openat);
        e.comm = "app".into();
        e.args = [ArgValue::Int(dfd), path.into(), ArgValue::UInt(0o102), ArgValue::Int(0o644)]
            .into_iter()
            .collect();
        e.file_path = e.args.str_at(1).cloned();
        e.file_type = Some(FileType::Regular);
        e.file_tag = Some(FileTag::new(7, 12, 42));
        e
    }

    #[test]
    fn a_row_gives_back_its_event_with_every_string_shared() {
        let mut dicts = Dicts::default();
        let mut write = SyscallEvent::synthetic(SyscallKind::Write);
        (write.class, write.offset, write.file_path) =
            (SyscallClass::Metadata, Some(u64::MAX), Some("/a".into()));
        // The same thread renamed, then under its old name again.
        let (mut renamed, mut again) = (openat("/b", 3), openat("/b", 3));
        renamed.comm = "renamed".into();
        again.comm = "app".into();
        let events = [openat("/a", -100), openat("/a", 3), write, renamed, again];
        let rows: Vec<Compact> = events.iter().map(|e| dicts.intern(e)).collect();
        let back: Vec<SyscallEvent> = rows.iter().map(|row| dicts.event(row)).collect();
        // Debug tells a signed argument from an unsigned one; `==` does not.
        assert_eq!(format!("{back:?}"), format!("{events:?}"));
        let path = |e: &SyscallEvent| Arc::clone(e.args.str_at(path_arg(e.kind).unwrap()).unwrap());
        assert!(Arc::ptr_eq(&path(&back[0]), &path(&back[1])));
        assert!(Arc::ptr_eq(&path(&back[0]), back[2].file_path.as_ref().unwrap()));
        assert!(Arc::ptr_eq(&back[0].session, &back[2].session));
        assert_eq!(dicts.threads.values.len(), 3, "three thread names");
        assert_eq!(rows[4].thread, rows[0].thread, "a name is found by its text");
        assert_eq!(dicts.tags.values.len(), 1);
    }

    /// Events of every shape a row holds: signed and unsigned arguments,
    /// negative ones, a path that is the argument and one that is not, a
    /// class that is not the kind's, absent optional fields.
    fn assorted() -> Vec<SyscallEvent> {
        let mut write = SyscallEvent::synthetic(SyscallKind::Write);
        (write.class, write.offset, write.file_path) =
            (SyscallClass::Metadata, Some(u64::MAX), Some("/a".into()));
        write.args = [ArgValue::Int(3), ArgValue::UInt(26)].into_iter().collect();
        let mut lseek = SyscallEvent::synthetic(SyscallKind::Lseek);
        lseek.args =
            [ArgValue::Int(3), ArgValue::Int(i64::MIN), ArgValue::Int(2)].into_iter().collect();
        (lseek.time_enter_ns, lseek.ret) = (5, -22);
        let mut renamed = openat("/b", 3);
        (renamed.comm, renamed.file_path) = ("renamed".into(), Some("/elsewhere".into()));
        vec![openat("/a", -100), write, renamed, lseek, openat("/a", 3), openat("/c", -100)]
    }

    fn run_of(rows: &[Compact]) -> Vec<u8> {
        let mut run = RunWriter::default();
        rows.iter().for_each(|row| run.push(row));
        let mut payload = Vec::new();
        run.finish(&mut payload);
        payload
    }

    #[test]
    fn a_run_decodes_to_its_rows() {
        let mut dicts = Dicts::default();
        let rows: Vec<Compact> = assorted().iter().map(|e| dicts.intern(e)).collect();
        assert_eq!(decode_run(&run_of(&rows)), Ok(rows.clone()));
        assert_eq!(decode_run(&run_of(&[])), Ok(Vec::new()));
        let back: Vec<SyscallEvent> = rows.iter().map(|row| dicts.event(row)).collect();
        assert_eq!(format!("{back:?}"), format!("{:?}", assorted()));
    }

    /// A traced `write` costs about fifteen bytes: its ids are the index's.
    #[test]
    fn a_write_in_a_run_costs_about_fifteen_bytes() {
        let mut dicts = Dicts::default();
        let rows: Vec<Compact> = (0..100u64)
            .map(|i| {
                let mut e = SyscallEvent::synthetic(SyscallKind::Write);
                e.args = [ArgValue::Int(3), ArgValue::UInt(26)].into_iter().collect();
                (e.time_enter_ns, e.time_exit_ns, e.ret) = (3_000 * i, 3_000 * i + 2_000, 26);
                (e.offset, e.file_tag) = (Some(26 * i), Some(FileTag::new(7, 12, 42)));
                dicts.intern(&e)
            })
            .collect();
        let per_event = (run_of(&rows).len() - run_of(&rows[..1]).len()) as f64 / 99.0;
        assert!(per_event <= 15.0, "{per_event} B per event");
    }

    #[test]
    fn what_is_not_a_run_does_not_decode() {
        let mut dicts = Dicts::default();
        let rows: Vec<Compact> = assorted().iter().map(|e| dicts.intern(e)).collect();
        let bytes = run_of(&rows);
        for cut in 0..bytes.len() {
            assert!(decode_run(&bytes[..cut]).is_err(), "a prefix of {cut} bytes decoded");
        }
        let longer = [&bytes[..], &[0]].concat();
        assert_eq!(decode_run(&longer), Err(DecodeError::Invalid("bytes after the last event")));
        assert_eq!(decode_run(&[1, 0]), Err(DecodeError::Version(1)), "the first format's");
        assert_eq!(decode_run(&[RUN_VERSION, 0xFF, 0xFF, 0x0F]), Err(DecodeError::Truncated));
        // A first row that repeats a shape no row wrote.
        let unshaped = [RUN_VERSION, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(decode_run(&unshaped), Err(DecodeError::Invalid("argument shape")));
        // Whatever a byte is changed to, decoding answers and does not panic;
        // so does a dictionary record's.
        let record = dicts.record().expect("entries");
        for bytes in [&bytes, &record] {
            for at in 0..bytes.len() {
                for v in [0, 1, 0x1F, 0x7F, 0x80, 0xFF] {
                    let mut changed = bytes.clone();
                    changed[at] = v;
                    let _ = (decode_run(&changed), DictRecord::decode(&changed));
                }
            }
        }
    }

    /// Dictionary records define what the runs name, whatever order the
    /// shards hand them over in; one past a lost record defines nothing,
    /// and a row naming what it would have defined is not admitted.
    #[test]
    fn dictionary_records_replay_in_any_order() {
        let mut dicts = Dicts::default();
        let mut records = Vec::new();
        let mut rows = Vec::new();
        for events in assorted().chunks(2) {
            rows.extend(events.iter().map(|e| dicts.intern(e)));
            records.push(dicts.record().expect("new entries"));
            dicts.note_logged();
        }
        assert_eq!(dicts.record(), None, "nothing new");
        let replay = |at: &[usize]| {
            Dicts::replay(at.iter().map(|&i| DictRecord::decode(&records[i]).unwrap()).collect())
        };
        let replayed = replay(&[2, 0, 1, 1]).expect("replays");
        assert!(rows.iter().all(|row| replayed.admits(row)));
        let built: Vec<SyscallEvent> = rows.iter().map(|row| replayed.event(row)).collect();
        assert_eq!(format!("{built:?}"), format!("{:?}", assorted()));
        let gap = replay(&[0, 2]).expect("replays what precedes the gap");
        assert!(gap.admits(&rows[4]) && !gap.admits(&rows[2]), "the renamed thread is lost");
        assert!(!gap.admits(&rows[5]), "and what the record after the gap defines");
        let mut other = Dicts::default();
        other.intern(&openat("/z", 3));
        let clash = DictRecord::decode(&other.record().unwrap()).unwrap();
        let first = DictRecord::decode(&records[0]).unwrap();
        assert_eq!(
            Dicts::replay(vec![first, clash]).err(),
            Some("two dictionary records disagree")
        );
    }
}
