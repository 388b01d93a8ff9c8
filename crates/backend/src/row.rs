//! How an index holds a document: a syscall event as a fixed-width compact
//! row over the index's dictionaries, anything else as its JSON text.
//!
//! What an event repeats — its session and thread name, pid and tid, its
//! file tag, its paths and string arguments — each index holds once, in
//! append-only dictionaries, and the row names it by a `u32`. Everything
//! else stays inline. There is one conversion each way: [`Dicts::intern`]
//! makes the row of an event, [`Dicts::event`] builds the event back, and
//! every reader — queries, sort, aggregations, the inverted indexes, hits,
//! updates, the write-through — reads the event it builds.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use dio_syscall::{
    ArgList, ArgRef, FileTag, FileType, Pid, SyscallClass, SyscallEvent, SyscallKind, Tid,
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
pub(crate) struct Compact {
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

impl<J: AsRef<str>> Doc<J> {
    /// What the write-through log stores for the document: an event goes
    /// into a run, anything else is its JSON text, as the row holds it.
    pub(crate) fn to_put(&self) -> Put<'_> {
        match self {
            Doc::Event(event) => Put::Event(event),
            Doc::Json(text) => Put::Json(text.as_ref().as_bytes().to_vec()),
        }
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

    /// What the write-through log stores for `row`: its event built, or its
    /// text as it is.
    pub(crate) fn stored<'a>(&self, row: &'a Row) -> Doc<&'a str> {
        match row {
            Row::Event(row) => Doc::Event(self.event(row)),
            Row::Json(text) => Doc::Json(text),
        }
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
}
