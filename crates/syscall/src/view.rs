//! An observed event, read one way whether it is the typed event or a JSON
//! document.
//!
//! What watches the stream while the trace runs — the diagnosis engine, the
//! rule evaluator, the DFG miner — is fed from two doors: the tracer's
//! consumer lends it [`SyscallEvent`]s, and everything else (a backend
//! subscription, a replayed export, a test) hands it documents, which may be
//! partial or carry anything under an event's field names, so they cannot be
//! converted first. [`EventView`] is the one shape both have: a field of the
//! document schema in, a [`Scalar`] out. A reader written against it runs
//! unchanged over either, and through the typed door it reads struct fields
//! and allocates nothing.

use serde_json::Value;

use crate::event::{FieldRef, FIELDS};
use crate::{ArgRef, FileTag, SyscallEvent, SyscallKind, TagText};

/// A field of the event document schema, in key order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // each variant is the document field of its name
pub enum Field {
    Args,
    Class,
    Cpu,
    FilePath,
    FileTag,
    FileType,
    LatencyNs,
    Offset,
    Pid,
    ProcName,
    RetVal,
    Session,
    Syscall,
    Tid,
    Time,
    TimeExit,
}

impl Field {
    /// Every field, in key order: `ALL[i] as usize == i`, which is also the
    /// field's place in the schema table.
    pub const ALL: [Field; 16] = [
        Field::Args,
        Field::Class,
        Field::Cpu,
        Field::FilePath,
        Field::FileTag,
        Field::FileType,
        Field::LatencyNs,
        Field::Offset,
        Field::Pid,
        Field::ProcName,
        Field::RetVal,
        Field::Session,
        Field::Syscall,
        Field::Tid,
        Field::Time,
        Field::TimeExit,
    ];

    /// The field's key in a document.
    pub fn name(self) -> &'static str {
        FIELDS[self as usize].0
    }

    /// The field a document key names, if the schema has it.
    pub fn named(name: &str) -> Option<Field> {
        FIELDS.iter().position(|(field, _)| *field == name).map(|at| Field::ALL[at])
    }
}

/// What a reader gets for one field: a number, a string or a boolean. An
/// absent field, a `null`, an array and an object (`args`) are all `None` to
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar<'a> {
    /// A non-negative integer.
    UInt(u64),
    /// A negative integer (or any integer an event holds signed).
    Int(i64),
    /// A number that is not an integer; only a document has one.
    Float(f64),
    /// A boolean; only a document has one.
    Bool(bool),
    /// A string.
    Str(&'a str),
    /// An event's `file_tag`, which a document spells as a string.
    Tag(FileTag),
}

impl<'a> Scalar<'a> {
    /// The value as `u64` when it is a non-negative integer.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Scalar::UInt(v) => Some(v),
            Scalar::Int(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as `i64` when it is an integer that fits.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Scalar::UInt(v) => i64::try_from(v).ok(),
            Scalar::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `f64` when it is any number (lossy beyond 2^53).
    pub fn as_f64(self) -> Option<f64> {
        match self {
            Scalar::UInt(v) => Some(v as f64),
            Scalar::Int(v) => Some(v as f64),
            Scalar::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a file tag: an event's, or a document's string that
    /// parses as one.
    pub fn as_tag(self) -> Option<FileTag> {
        match self {
            Scalar::Tag(tag) => Some(tag),
            Scalar::Str(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as text when it is a string: lent by a document, rendered
    /// inline for an event's tag.
    pub fn text(self) -> Option<Text<'a>> {
        match self {
            Scalar::Str(s) => Some(Text::Lent(s)),
            Scalar::Tag(tag) => Some(Text::Inline(tag.text())),
            _ => None,
        }
    }

    /// The value as the key of a group (a window's `by pid`): a string as it
    /// is, a non-negative integer in decimal.
    pub fn key(self) -> Option<Text<'a>> {
        self.text().or_else(|| self.as_u64().map(|v| Text::Inline(TagText::decimal(v))))
    }
}

impl<'a> From<ArgRef<'a>> for Scalar<'a> {
    fn from(value: ArgRef<'a>) -> Self {
        match value {
            ArgRef::Int(v) => Scalar::Int(v),
            ArgRef::UInt(v) => Scalar::UInt(v),
            ArgRef::Str(s) => Scalar::Str(s),
        }
    }
}

/// A short string that is either lent or held inline; it dereferences to the
/// string and never owns heap.
#[derive(Debug, Clone, Copy)]
pub enum Text<'a> {
    /// Lent by the event or document it was read from.
    Lent(&'a str),
    /// A tag or a number, rendered.
    Inline(TagText),
}

impl std::ops::Deref for Text<'_> {
    type Target = str;

    fn deref(&self) -> &str {
        match self {
            Text::Lent(s) => s,
            Text::Inline(text) => text,
        }
    }
}

/// An observed event: see the module documentation.
pub trait EventView {
    /// The document field `field`, when the event has it and it is a number,
    /// a string or a boolean.
    fn scalar(&self, field: Field) -> Option<Scalar<'_>>;

    /// The event's document, built (or copied) when an alert carries the
    /// event as evidence.
    fn document(&self) -> Value;

    /// `field` as a non-negative integer.
    fn uint(&self, field: Field) -> Option<u64> {
        self.scalar(field)?.as_u64()
    }

    /// `field` as a string; an event's `file_tag` is not one, see
    /// [`Scalar::text`].
    fn str(&self, field: Field) -> Option<&str> {
        match self.scalar(field)? {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Entry time in nanoseconds; an event without one is at 0.
    fn time(&self) -> u64 {
        self.uint(Field::Time).unwrap_or(0)
    }

    /// The return value.
    fn ret_val(&self) -> Option<i64> {
        self.scalar(Field::RetVal)?.as_i64()
    }

    /// The syscall, when `syscall` names one of the catalog's.
    fn kind(&self) -> Option<SyscallKind> {
        self.str(Field::Syscall)?.parse().ok()
    }

    /// The tag of the file the syscall touched.
    fn file_tag(&self) -> Option<FileTag> {
        self.scalar(Field::FileTag)?.as_tag()
    }
}

impl EventView for SyscallEvent {
    fn scalar(&self, field: Field) -> Option<Scalar<'_>> {
        match FIELDS[field as usize].1(self)? {
            FieldRef::Scalar(value) => Some(value.into()),
            FieldRef::Tag(tag) => Some(Scalar::Tag(tag)),
            FieldRef::Args(_) => None,
        }
    }

    fn document(&self) -> Value {
        self.to_document()
    }

    // What every detector reads per event comes straight from the struct.

    fn time(&self) -> u64 {
        self.time_enter_ns
    }

    fn ret_val(&self) -> Option<i64> {
        Some(self.ret)
    }

    fn kind(&self) -> Option<SyscallKind> {
        Some(self.kind)
    }

    fn file_tag(&self) -> Option<FileTag> {
        self.file_tag
    }
}

/// A borrowed event reads as the event: a stored session lends its rows
/// (`&[&SyscallEvent]`) without copying them.
impl<E: EventView + ?Sized> EventView for &E {
    fn scalar(&self, field: Field) -> Option<Scalar<'_>> {
        (**self).scalar(field)
    }

    fn document(&self) -> Value {
        (**self).document()
    }

    fn time(&self) -> u64 {
        (**self).time()
    }

    fn ret_val(&self) -> Option<i64> {
        (**self).ret_val()
    }

    fn kind(&self) -> Option<SyscallKind> {
        (**self).kind()
    }

    fn file_tag(&self) -> Option<FileTag> {
        (**self).file_tag()
    }
}

impl EventView for Value {
    fn scalar(&self, field: Field) -> Option<Scalar<'_>> {
        match self.get(field.name())? {
            Value::Number(n) => Some(match (n.as_u64(), n.as_i64()) {
                (Some(v), _) => Scalar::UInt(v),
                (None, Some(v)) => Scalar::Int(v),
                (None, None) => Scalar::Float(n.as_f64()),
            }),
            Value::String(s) => Some(Scalar::Str(s)),
            Value::Bool(b) => Some(Scalar::Bool(*b)),
            Value::Null | Value::Array(_) | Value::Object(_) => None,
        }
    }

    fn document(&self) -> Value {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArgValue, FileType, Pid, Tid};

    fn sample() -> SyscallEvent {
        let mut e = SyscallEvent::synthetic(SyscallKind::Pwrite64);
        e.pid = Pid(100);
        e.tid = Tid(101);
        e.comm = "app".into();
        e.time_enter_ns = 1_000;
        e.time_exit_ns = 3_000;
        e.ret = -28;
        e.args = [ArgValue::Int(3), ArgValue::UInt(26), ArgValue::UInt(52)].into_iter().collect();
        e.file_type = Some(FileType::Regular);
        e.offset = Some(52);
        e.file_tag = Some(FileTag::new(7340032, 12, 42));
        e
    }

    #[test]
    fn fields_are_the_schema_in_key_order() {
        for (i, field) in Field::ALL.into_iter().enumerate() {
            assert_eq!(field as usize, i);
            assert_eq!(Field::named(field.name()), Some(field));
        }
        assert_eq!(Field::Time.name(), "time");
        assert_eq!(Field::ProcName.name(), "proc_name");
        assert_eq!(Field::RetVal.name(), "ret_val");
        assert_eq!(Field::FileTag.name(), "file_tag");
        assert_eq!(Field::named("walked"), None);
    }

    /// Both doors answer every field alike; only `file_tag` differs in
    /// shape, and reads the same through either accessor.
    #[test]
    fn an_event_and_its_document_read_alike() {
        let event = sample();
        let doc = event.to_document();
        let (typed, loose): (&dyn EventView, &dyn EventView) = (&event, &doc);
        for field in Field::ALL {
            let (a, b) = (typed.scalar(field), loose.scalar(field));
            assert_eq!(a.and_then(Scalar::as_f64), b.and_then(Scalar::as_f64), "{field:?}");
            assert_eq!(
                a.and_then(Scalar::text).as_deref(),
                b.and_then(Scalar::text).as_deref(),
                "{field:?}"
            );
            assert_eq!(a.and_then(Scalar::key).as_deref(), b.and_then(Scalar::key).as_deref());
        }
        assert_eq!(typed.scalar(Field::Args), None, "an object is not a scalar");
        assert_eq!(typed.scalar(Field::FilePath), None, "absent");
        assert_eq!(typed.time(), 1_000);
        assert_eq!((typed.ret_val(), loose.ret_val()), (Some(-28), Some(-28)));
        assert_eq!((typed.kind(), loose.kind()), (Some(event.kind), Some(event.kind)));
        assert_eq!((typed.file_tag(), loose.file_tag()), (event.file_tag, event.file_tag));
        assert_eq!(typed.scalar(Field::Pid).and_then(Scalar::key).as_deref(), Some("100"));
        assert_eq!(typed.str(Field::FileTag), None, "a tag is text, not a lent string");
        assert_eq!(loose.str(Field::FileTag), Some("7340032|12|42"));
        assert_eq!(typed.document(), doc);
        assert_eq!(loose.document(), doc);
    }

    #[test]
    fn a_document_may_hold_anything_under_a_field_name() {
        let doc = serde_json::json!({
            "time": "later", "pid": -3, "ret_val": 1.5, "tid": true,
            "syscall": "fork", "file_tag": "8:1|4|7", "offset": null,
        });
        let view: &dyn EventView = &doc;
        assert_eq!(view.time(), 0);
        assert_eq!(view.scalar(Field::Pid), Some(Scalar::Int(-3)));
        assert_eq!(view.uint(Field::Pid), None);
        assert_eq!(view.scalar(Field::Pid).and_then(Scalar::key).as_deref(), None);
        assert_eq!(view.ret_val(), None);
        assert_eq!(view.scalar(Field::RetVal).and_then(Scalar::as_f64), Some(1.5));
        assert_eq!(view.scalar(Field::Tid), Some(Scalar::Bool(true)));
        assert_eq!(view.kind(), None);
        assert_eq!(view.file_tag(), None);
        assert_eq!(view.scalar(Field::FileTag).and_then(Scalar::text).as_deref(), Some("8:1|4|7"));
        assert_eq!(view.scalar(Field::Offset), None);
        assert_eq!(view.scalar(Field::Class), None);
    }
}
