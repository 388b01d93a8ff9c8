//! The enriched syscall event produced by the tracer, and its document: the
//! JSON object dashboards and queries see.

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use serde_json::{Map, Value};

use crate::{
    expected_args, path_arg, ArgList, ArgRef, FileTag, FileType, Pid, SyscallClass, SyscallKind,
    Tid,
};

/// A fully-formed trace event: entry + exit of one syscall, enriched with
/// kernel context (§II-B "Collected information").
///
/// This is the unit DIO stores at the backend. One event aggregates the
/// `sys_enter` and `sys_exit` tracepoints of a single syscall invocation
/// (the kernel-side join the paper highlights as a DIO/CaT/Tracee-only
/// feature), carrying:
///
/// * request — [`kind`](Self::kind), [`args`](Self::args), [`ret`](Self::ret)
/// * process — [`pid`](Self::pid), [`tid`](Self::tid), [`comm`](Self::comm)
/// * time — [`time_enter_ns`](Self::time_enter_ns), [`time_exit_ns`](Self::time_exit_ns)
/// * enrichment — [`file_type`](Self::file_type), [`offset`](Self::offset),
///   [`file_tag`](Self::file_tag)
/// * correlation output — [`file_path`](Self::file_path), filled either at
///   open-time or later by the backend path-correlation algorithm.
///
/// What the kernel-side record already holds behind a shared allocation —
/// the thread name, the string arguments — is carried over by reference
/// count, and the session name is shared by every event of a drain, so
/// building an event from a record copies no string.
///
/// # The document
///
/// An event is also a JSON object with flat field names matching the paper's
/// dashboards (`syscall`, `proc_name`, `ret_val`, `file_tag`, `args.count`,
/// ...). One table of this module lists those fields in key order and where
/// the event keeps each; [`Self::fields`] enumerates it, and the object
/// ([`Self::to_document`]), the leaves an inverted index holds
/// ([`Self::for_each_leaf`]) and lookup by name ([`Self::field`]) are all
/// read off that enumeration. [`Self::from_document`] is the one way back,
/// and a strict one: a store can keep the event instead of the object and
/// nobody can tell. A persisted store writes events as binary runs
/// ([`crate::codec`]), not as the object's text.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyscallEvent {
    /// Tracing session this event belongs to, shared by the events of one
    /// drain.
    pub session: Arc<str>,
    /// The syscall that was invoked.
    pub kind: SyscallKind,
    /// Functional class of the syscall (denormalized for querying).
    pub class: SyscallClass,
    /// Process ID of the caller.
    pub pid: Pid,
    /// Thread ID of the caller.
    pub tid: Tid,
    /// Process/thread name (`comm`) of the caller, shared with the thread
    /// that issued the syscall.
    pub comm: Arc<str>,
    /// CPU on which the syscall entered.
    pub cpu: u32,
    /// Entry timestamp, nanoseconds.
    pub time_enter_ns: u64,
    /// Exit timestamp, nanoseconds.
    pub time_exit_ns: u64,
    /// Return value (negative values carry `-errno`, as in Linux).
    pub ret: i64,
    /// Observed argument values in signature order; their names are
    /// [`expected_args`]`(kind)`, by position ([`Self::named_args`]).
    pub args: ArgList,
    /// Type of the file the syscall targeted, when it resolved to an inode.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub file_type: Option<FileType>,
    /// File offset *before* the syscall applied, for offset-bearing calls.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub offset: Option<u64>,
    /// Unique identity of the accessed file.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub file_tag: Option<FileTag>,
    /// Resolved path; present on path-bearing syscalls (where it shares the
    /// path argument's allocation) and on fd-bearing events after path
    /// correlation ran.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub file_path: Option<Arc<str>>,
}

/// One field of an event's document, lent by the event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldRef<'a> {
    /// A number or a string.
    Scalar(ArgRef<'a>),
    /// `file_tag`: a string in the document, [`FileTag::text`].
    Tag(FileTag),
    /// `args`: an object in the document.
    Args(NamedArgs<'a>),
}

impl FieldRef<'_> {
    /// The field as the document holds it.
    pub fn to_value(&self) -> Value {
        match *self {
            FieldRef::Scalar(ArgRef::Int(v)) => v.into(),
            FieldRef::Scalar(ArgRef::UInt(v)) => v.into(),
            FieldRef::Scalar(ArgRef::Str(s)) => s.into(),
            // A string of exactly the tag's length.
            FieldRef::Tag(tag) => Value::String(String::from(&*tag.text())),
            FieldRef::Args(args) => {
                let mut object = Map::with_capacity(args.len());
                for (name, value) in args.sorted() {
                    object.insert(name.to_string(), FieldRef::Scalar(value).to_value());
                }
                Value::Object(object)
            }
        }
    }

    /// Calls `f` with every `(dotted path, scalar)` leaf of the field, as
    /// the document field `name`: itself, or one leaf per argument
    /// (`"args.count"`) for `args`.
    pub fn for_each_leaf(&self, name: &str, f: &mut impl FnMut(&str, ArgRef<'_>)) {
        match *self {
            FieldRef::Scalar(leaf) => f(name, leaf),
            FieldRef::Tag(tag) => f(name, ArgRef::Str(&tag.text())),
            FieldRef::Args(args) => {
                // One buffer for every `args.<name>` path.
                let mut path = String::with_capacity(name.len() + 12);
                path.push_str(name);
                path.push('.');
                for (arg, leaf) in args.iter() {
                    path.truncate(name.len() + 1);
                    path.push_str(arg);
                    f(&path, leaf);
                }
            }
        }
    }
}

/// An event's arguments under the names the catalog gives their positions:
/// the `args` object of its document.
#[derive(Debug, Clone, Copy)]
pub struct NamedArgs<'a> {
    names: &'static [&'static str],
    values: &'a ArgList,
}

impl<'a> NamedArgs<'a> {
    /// Number of named arguments.
    pub fn len(self) -> usize {
        self.names.len().min(self.values.len())
    }

    /// Whether there is no named argument.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The arguments in signature order.
    pub fn iter(self) -> impl Iterator<Item = (&'static str, ArgRef<'a>)> {
        self.names.iter().copied().zip(self.values.iter())
    }

    /// Looks up an argument by name.
    pub fn get(self, name: &str) -> Option<ArgRef<'a>> {
        self.iter().find(|&(n, _)| n == name).map(|(_, value)| value)
    }

    /// The arguments in name order: the key order of the document's object.
    fn sorted(self) -> impl Iterator<Item = (&'static str, ArgRef<'a>)> {
        let mut order = [0, 1, 2, 3, 4];
        const { assert!(ArgList::MAX_INTS + ArgList::MAX_STRS == 5) };
        let order_len = self.len();
        order[..order_len].sort_unstable_by_key(|&i| self.names[i]);
        order
            .into_iter()
            .take(order_len)
            .filter_map(move |i| Some((self.names[i], self.values.get(i)?)))
    }
}

impl PartialEq for NamedArgs<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// Reads one field out of an event; `None` when the event lacks it.
type Getter = for<'a> fn(&'a SyscallEvent) -> Option<FieldRef<'a>>;

fn uint<'a>(v: impl Into<u64>) -> Option<FieldRef<'a>> {
    Some(FieldRef::Scalar(ArgRef::UInt(v.into())))
}

fn text(s: &str) -> Option<FieldRef<'_>> {
    Some(FieldRef::Scalar(ArgRef::Str(s)))
}

/// The document schema: every field a document can have, in key order, and
/// where the event keeps it. This is the only place that spells the mapping
/// out; [`SyscallEvent::from_document`] is its inverse, and
/// [`Field`](crate::Field) numbers its rows.
pub(crate) const FIELDS: [(&str, Getter); 16] = [
    ("args", |e| Some(FieldRef::Args(e.args_by_name()))),
    ("class", |e| text(e.class.name())),
    ("cpu", |e| uint(e.cpu)),
    ("file_path", |e| text(e.file_path.as_deref()?)),
    ("file_tag", |e| Some(FieldRef::Tag(e.file_tag?))),
    ("file_type", |e| text(e.file_type?.name())),
    ("latency_ns", |e| uint(e.latency_ns())),
    ("offset", |e| uint(e.offset?)),
    ("pid", |e| uint(e.pid.0)),
    ("proc_name", |e| text(&e.comm)),
    ("ret_val", |e| Some(FieldRef::Scalar(ArgRef::Int(e.ret)))),
    ("session", |e| text(&e.session)),
    ("syscall", |e| text(e.kind.name())),
    ("tid", |e| uint(e.tid.0)),
    ("time", |e| uint(e.time_enter_ns)),
    ("time_exit", |e| uint(e.time_exit_ns)),
];

impl SyscallEvent {
    /// Latency of the call in nanoseconds (`exit - enter`).
    ///
    /// # Examples
    ///
    /// ```
    /// # let mut e = dio_syscall::SyscallEvent::synthetic(dio_syscall::SyscallKind::Read);
    /// e.time_enter_ns = 100;
    /// e.time_exit_ns = 350;
    /// assert_eq!(e.latency_ns(), 250);
    /// ```
    pub fn latency_ns(&self) -> u64 {
        self.time_exit_ns.saturating_sub(self.time_enter_ns)
    }

    /// Whether the syscall failed (`ret < 0`, Linux convention).
    pub fn is_error(&self) -> bool {
        self.ret < 0
    }

    fn args_by_name(&self) -> NamedArgs<'_> {
        NamedArgs { names: expected_args(self.kind), values: &self.args }
    }

    /// The arguments with the names the catalog gives their positions.
    pub fn named_args(&self) -> impl Iterator<Item = (&'static str, ArgRef<'_>)> {
        self.args_by_name().iter()
    }

    /// Looks up an argument by name.
    pub fn arg(&self, name: &str) -> Option<ArgRef<'_>> {
        self.args_by_name().get(name)
    }

    /// The fields of the event's document in key order; a field the event
    /// lacks (`offset` of an `mkdir`) is skipped.
    ///
    /// # Examples
    ///
    /// ```
    /// use dio_syscall::{SyscallEvent, SyscallKind};
    ///
    /// let event = SyscallEvent::synthetic(SyscallKind::Fsync);
    /// let names: Vec<&str> = event.fields().map(|(name, _)| name).collect();
    /// assert!(names.is_sorted() && names.contains(&"syscall") && !names.contains(&"offset"));
    /// ```
    pub fn fields(&self) -> impl Iterator<Item = (&'static str, FieldRef<'_>)> {
        FIELDS.iter().filter_map(move |&(name, get)| Some((name, get(self)?)))
    }

    /// The document field called `name`, if the event has it.
    pub fn field(&self, name: &str) -> Option<FieldRef<'_>> {
        let (_, get) = FIELDS.iter().find(|(field, _)| *field == name)?;
        get(self)
    }

    /// Serializes the event into a backend document (JSON object).
    ///
    /// The document uses flat field names matching the paper's dashboards:
    /// `syscall`, `proc_name`, `ret_val`, `file_tag`, `offset`, `file_path`, ...
    pub fn to_document(&self) -> Value {
        // One allocation of exactly the entries the event has, filled in key
        // order so every insert appends: the document carries no spare slots.
        let mut doc = Map::with_capacity(self.fields().count());
        for (name, value) in self.fields() {
            doc.insert(name.to_string(), value.to_value());
        }
        Value::Object(doc)
    }

    /// Calls `f` with every `(dotted path, scalar)` leaf of the document
    /// (`"pid"`, `"args.count"`, ...): what an inverted index over documents
    /// holds for this event.
    pub fn for_each_leaf(&self, f: &mut impl FnMut(&str, ArgRef<'_>)) {
        for (name, value) in self.fields() {
            value.for_each_leaf(name, f);
        }
    }

    /// The event `doc` is the document of, if it is one: the strict inverse
    /// of [`Self::to_document`]. `Some(event)` means
    /// `event.to_document() == *doc` and prints the same text; anything else
    /// is `None` — a foreign or a missing field, a `class` that is not the
    /// syscall's, a `latency_ns` that is not exit − enter, an argument name
    /// the catalog does not give the syscall at that position, a number that
    /// is a float or beyond its field's width, a `file_tag` spelled any other
    /// way than [`FileTag`] prints it. A path argument equal to `file_path`
    /// shares its allocation, as in an event built from a kernel record.
    pub fn from_document(doc: &Value) -> Option<SyscallEvent> {
        let doc = doc.as_object()?;
        let mut known = 0;
        let mut get = |name: &str| {
            let value = doc.get(name);
            known += usize::from(value.is_some());
            value
        };
        let kind: SyscallKind = get("syscall")?.as_str()?.parse().ok()?;
        let uint = |value: &Value| match value {
            Value::Number(n) if !n.is_f64() => n.as_u64(),
            _ => None,
        };
        let narrow = |value: &Value| u32::try_from(uint(value)?).ok();
        let shared = |value: &Value| value.as_str().map(Arc::<str>::from);

        let names = expected_args(kind);
        let named = get("args")?.as_object()?;
        let mut args = ArgList::new();
        // Names are unique per syscall, so as many entries as names looked up
        // leaves no room for a foreign one.
        for name in names.get(..named.len())? {
            let pushed = args.try_push(match named.get(name)? {
                Value::String(s) => ArgRef::Str(s),
                Value::Number(n) if !n.is_f64() => match n.as_u64() {
                    Some(v) => ArgRef::UInt(v),
                    None => ArgRef::Int(n.as_i64()?),
                },
                _ => return None,
            });
            if !pushed {
                return None;
            }
        }
        // An optional field may be absent; present, it must read.
        fn optional<T>(
            field: Option<&Value>,
            read: impl FnOnce(&Value) -> Option<T>,
        ) -> Option<Option<T>> {
            field.map_or(Some(None), |value| read(value).map(Some))
        }
        let file_path = optional(get("file_path"), |path| {
            let path = path.as_str()?;
            let argument = path_arg(kind).and_then(|i| args.str_at(i)).filter(|a| ***a == *path);
            Some(argument.cloned().unwrap_or_else(|| Arc::from(path)))
        })?;
        let event = SyscallEvent {
            session: shared(get("session")?)?,
            kind,
            class: kind.class(),
            pid: Pid(narrow(get("pid")?)?),
            tid: Tid(narrow(get("tid")?)?),
            comm: shared(get("proc_name")?)?,
            cpu: narrow(get("cpu")?)?,
            time_enter_ns: uint(get("time")?)?,
            time_exit_ns: uint(get("time_exit")?)?,
            ret: match get("ret_val")? {
                Value::Number(n) if !n.is_f64() => n.as_i64()?,
                _ => return None,
            },
            args,
            file_type: optional(get("file_type"), |name| FileType::from_name(name.as_str()?))?,
            offset: optional(get("offset"), uint)?,
            file_tag: optional(get("file_tag"), |text| {
                let text = text.as_str()?;
                text.parse::<FileTag>().ok().filter(|tag| *tag.text() == *text)
            })?,
            file_path,
        };
        let derived = get("class")?.as_str()? == kind.class().name()
            && uint(get("latency_ns")?)? == event.latency_ns();
        (derived && known == doc.len()).then_some(event)
    }

    /// Builds a minimal synthetic event for tests and examples.
    ///
    /// All identity fields are zeroed; callers overwrite what they need.
    pub fn synthetic(kind: SyscallKind) -> SyscallEvent {
        SyscallEvent {
            session: Arc::from("test"),
            kind,
            class: kind.class(),
            pid: Pid(0),
            tid: Tid(0),
            comm: Arc::from(""),
            cpu: 0,
            time_enter_ns: 0,
            time_exit_ns: 0,
            ret: 0,
            args: ArgList::new(),
            file_type: None,
            offset: None,
            file_tag: None,
            file_path: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArgValue;

    fn sample() -> SyscallEvent {
        let mut e = SyscallEvent::synthetic(SyscallKind::Write);
        e.session = "s1".into();
        e.pid = Pid(100);
        e.tid = Tid(101);
        e.comm = "app".into();
        e.time_enter_ns = 1_000;
        e.time_exit_ns = 3_000;
        e.ret = 26;
        e.args = [ArgValue::Int(3), ArgValue::UInt(26)].into_iter().collect();
        e.file_type = Some(FileType::Regular);
        e.offset = Some(0);
        e.file_tag = Some(FileTag::new(7340032, 12, 42));
        e
    }

    #[test]
    fn latency_and_error() {
        let e = sample();
        assert_eq!(e.latency_ns(), 2_000);
        assert!(!e.is_error());
        let mut bad = sample();
        bad.ret = -2;
        assert!(bad.is_error());
    }

    #[test]
    fn latency_saturates() {
        let mut e = sample();
        e.time_exit_ns = 0;
        assert_eq!(e.latency_ns(), 0);
    }

    #[test]
    fn arg_lookup() {
        let e = sample();
        assert_eq!(e.arg("count").and_then(|v| v.as_u64()), Some(26));
        assert!(e.arg("missing").is_none());
    }

    #[test]
    fn document_shape_matches_dashboards() {
        let d = sample().to_document();
        assert_eq!(d["syscall"], "write");
        assert_eq!(d["proc_name"], "app");
        assert_eq!(d["ret_val"], 26);
        assert_eq!(d["offset"], 0);
        assert_eq!(d["file_tag"], "7340032|12|42");
        assert_eq!(d["args"]["count"], 26);
        assert_eq!(d["class"], "data");
        assert!(d.get("file_path").is_none());
    }

    #[test]
    fn serde_roundtrip() {
        let e = sample();
        let s = serde_json::to_string(&e).unwrap();
        let back: SyscallEvent = serde_json::from_str(&s).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn serde_roundtrip_with_strings_and_path() {
        let mut e = sample();
        e.kind = SyscallKind::Openat;
        e.args = [ArgValue::Int(-100), "/f".into(), ArgValue::UInt(0o102), ArgValue::UInt(0o644)]
            .into_iter()
            .collect();
        e.file_path = e.args.str_at(1).cloned();
        let s = serde_json::to_string(&e).unwrap();
        assert!(s.contains(r#""args":[-100,"/f",66,420]"#), "{s}");
        let back: SyscallEvent = serde_json::from_str(&s).unwrap();
        assert_eq!(back, e);
        // A sixth argument is not a syscall's: an error, not a panic.
        let long = s.replace("[-100,", "[1,2,3,-100,");
        assert!(serde_json::from_str::<SyscallEvent>(&long).is_err());
    }

    #[test]
    fn document_text_leaves_and_lookup_agree() {
        let mut e = sample();
        e.comm = "app \"one\"\n".into();
        let doc = e.to_document();
        assert_eq!(SyscallEvent::from_document(&doc), Some(e.clone()));
        let names: Vec<&str> = e.fields().map(|(name, _)| name).collect();
        assert_eq!(names, doc.as_object().unwrap().keys().map(String::as_str).collect::<Vec<_>>());
        for (name, field) in e.fields() {
            assert_eq!(e.field(name), Some(field));
            assert_eq!(field.to_value(), doc[name]);
        }
        assert_eq!(e.field("file_path"), None, "absent from this event");
        assert_eq!(e.field("nope"), None);
        let mut leaves = Vec::new();
        e.for_each_leaf(&mut |path, leaf| leaves.push((path.to_string(), leaf.as_u64())));
        assert!(leaves.contains(&("args.count".to_string(), Some(26))));
        assert!(leaves.contains(&("file_tag".to_string(), None)));
        assert_eq!(leaves.len(), 16, "14 scalar fields and 2 arguments");
    }

    #[test]
    fn from_document_refuses_what_is_not_exactly_an_event() {
        let doc = sample().to_document();
        let refused = |key: &str, value: Value| {
            let mut doc = doc.clone();
            doc[key] = value;
            SyscallEvent::from_document(&doc).is_none()
        };
        assert!(refused("walked", true.into()));
        assert!(refused("class", "metadata".into()));
        assert!(refused("latency_ns", 1_999.into()));
        assert!(refused("file_tag", "007|12|42".into()));
        assert!(refused("pid", (1u64 << 32).into()));
        assert!(refused("time", 1_000.0.into()));
        assert!(refused("args", serde_json::json!({"fd": 3, "size": 26})));
        assert!(refused("args", serde_json::json!({"count": 26})), "not a prefix of (fd, count)");
        assert!(!refused("args", serde_json::json!({"fd": 3})), "a prefix is");
        assert!(!refused("offset", 7.into()));
        assert!(SyscallEvent::from_document(&serde_json::json!("write")).is_none());
    }

    /// What a consumer parses, a drain carries and a reader is handed: the
    /// index keeps the event in a compact row of its own, not in this.
    #[test]
    fn an_event_is_200_bytes() {
        assert_eq!(std::mem::size_of::<SyscallEvent>(), 200);
    }

    #[test]
    fn names_follow_the_catalog_by_position() {
        let e = sample();
        let named: Vec<_> = e.named_args().collect();
        assert_eq!(named, [("fd", ArgRef::Int(3)), ("count", ArgRef::UInt(26))]);
    }
}
