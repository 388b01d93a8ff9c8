//! The enriched syscall event produced by the tracer.

use serde::{Deserialize, Serialize};

use crate::{Arg, FileTag, FileType, Pid, SyscallClass, SyscallKind, Tid};

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
    /// Process/thread name (`comm`) of the caller.
    pub comm: String,
    /// CPU on which the syscall entered.
    pub cpu: u32,
    /// Entry timestamp, nanoseconds.
    pub time_enter_ns: u64,
    /// Exit timestamp, nanoseconds.
    pub time_exit_ns: u64,
    /// Return value (negative values carry `-errno`, as in Linux).
    pub ret: i64,
    /// Observed arguments.
    pub args: Vec<Arg>,
    /// Type of the file the syscall targeted, when it resolved to an inode.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub file_type: Option<FileType>,
    /// File offset *before* the syscall applied, for offset-bearing calls.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub offset: Option<u64>,
    /// Unique identity of the accessed file.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub file_tag: Option<FileTag>,
    /// Resolved path; present on path-bearing syscalls and on fd-bearing
    /// events after path correlation ran.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub file_path: Option<String>,
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

    /// Looks up an argument by name.
    pub fn arg(&self, name: &str) -> Option<&crate::ArgValue> {
        self.args.iter().find(|a| a.name == name).map(|a| &a.value)
    }

    /// Serializes the event into a backend document (JSON object).
    ///
    /// The document uses flat field names matching the paper's dashboards:
    /// `syscall`, `proc_name`, `ret_val`, `file_tag`, `offset`, `file_path`, ...
    pub fn to_document(&self) -> serde_json::Value {
        use serde_json::{Map, Value};
        let mut args = Map::with_capacity(self.args.len());
        for a in &self.args {
            args.insert(a.name.to_string(), serde_json::to_value(&a.value).expect("arg value"));
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
            ("proc_name", Some(self.comm.as_str().into())),
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
            comm: String::new(),
            cpu: 0,
            time_enter_ns: 0,
            time_exit_ns: 0,
            ret: 0,
            args: Vec::new(),
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

    fn sample() -> SyscallEvent {
        let mut e = SyscallEvent::synthetic(SyscallKind::Write);
        e.session = "s1".into();
        e.pid = Pid(100);
        e.tid = Tid(101);
        e.comm = "app".into();
        e.time_enter_ns = 1_000;
        e.time_exit_ns = 3_000;
        e.ret = 26;
        e.args = vec![Arg::new("fd", 3i64), Arg::new("count", 26u64)];
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
}
