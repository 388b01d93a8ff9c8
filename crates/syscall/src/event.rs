//! The enriched syscall event produced by the tracer.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::{
    expected_args, ArgList, ArgRef, FileTag, FileType, Pid, SyscallClass, SyscallKind, Tid,
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
/// count, so building an event from a record copies only the session name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyscallEvent {
    /// Tracing session this event belongs to.
    pub session: String,
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

    /// The arguments with the names the catalog gives their positions.
    pub fn named_args(&self) -> impl Iterator<Item = (&'static str, ArgRef<'_>)> {
        expected_args(self.kind).iter().copied().zip(self.args.iter())
    }

    /// Looks up an argument by name.
    pub fn arg(&self, name: &str) -> Option<ArgRef<'_>> {
        self.named_args().find(|&(n, _)| n == name).map(|(_, value)| value)
    }

    /// Serializes the event into a backend document (JSON object).
    ///
    /// The document uses flat field names matching the paper's dashboards:
    /// `syscall`, `proc_name`, `ret_val`, `file_tag`, `offset`, `file_path`, ...
    pub fn to_document(&self) -> serde_json::Value {
        use serde_json::{Map, Value};
        let mut args = Map::with_capacity(self.args.len());
        for (name, value) in self.named_args() {
            let value = match value {
                ArgRef::Int(v) => v.into(),
                ArgRef::UInt(v) => v.into(),
                ArgRef::Str(s) => s.into(),
            };
            args.insert(name.to_string(), value);
        }
        // In key order, so every insert appends; absent fields are skipped.
        let fields: [(&str, Option<Value>); 16] = [
            ("args", Some(Value::Object(args))),
            ("class", Some(self.class.name().into())),
            ("cpu", Some(self.cpu.into())),
            ("file_path", self.file_path.as_deref().map(Value::from)),
            ("file_tag", self.file_tag.map(|tag| tag_string(tag).into())),
            ("file_type", self.file_type.map(|ft| ft.name().into())),
            ("latency_ns", Some(self.latency_ns().into())),
            ("offset", self.offset.map(Value::from)),
            ("pid", Some(self.pid.0.into())),
            ("proc_name", Some((&*self.comm).into())),
            ("ret_val", Some(self.ret.into())),
            ("session", Some(self.session.as_str().into())),
            ("syscall", Some(self.kind.name().into())),
            ("tid", Some(self.tid.0.into())),
            ("time", Some(self.time_enter_ns.into())),
            ("time_exit", Some(self.time_exit_ns.into())),
        ];
        // One allocation of exactly the entries the event has: the stored
        // document carries no spare slots.
        let mut doc = Map::with_capacity(fields.iter().filter(|(_, v)| v.is_some()).count());
        for (key, value) in fields {
            if let Some(value) = value {
                doc.insert(key.to_string(), value);
            }
        }
        Value::Object(doc)
    }

    /// Builds a minimal synthetic event for tests and examples.
    ///
    /// All identity fields are zeroed; callers overwrite what they need.
    pub fn synthetic(kind: SyscallKind) -> SyscallEvent {
        SyscallEvent {
            session: "test".to_string(),
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

/// `tag` rendered into a string of exactly its length, so the stored
/// document carries none of `to_string`'s growth slack.
fn tag_string(tag: FileTag) -> String {
    use std::fmt::Write as _;
    let digits = |v: u64| v.checked_ilog10().map_or(1, |d| d as usize + 1);
    let len = digits(tag.dev) + digits(tag.ino) + digits(tag.first_access_ns) + 2;
    let mut out = String::with_capacity(len);
    write!(out, "{tag}").expect("writing to a String cannot fail");
    out
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
    fn names_follow_the_catalog_by_position() {
        let e = sample();
        let named: Vec<_> = e.named_args().collect();
        assert_eq!(named, [("fd", ArgRef::Int(3)), ("count", ArgRef::UInt(26))]);
    }
}
