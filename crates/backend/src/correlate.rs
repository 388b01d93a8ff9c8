//! The file-path correlation algorithm (§II-C of the paper).
//!
//! Syscalls that operate on file descriptors (`read`, `write`, `close`, ...)
//! carry only a *file tag* (`dev|ino|first-access-timestamp`). Opens carry
//! both the tag and the path. Correlation joins the two at the storage
//! backend: the fd-based events are "translated into the actual file paths
//! being accessed".
//!
//! An index holds each distinct tag once, in its dictionary, and each event
//! row a path slot, so the join learns one path per tag and writes one string
//! id per event (DESIGN.md §20.7).

use crate::Index;

/// Outcome of one correlation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CorrelationReport {
    /// Distinct file tags for which a path was learned.
    pub tags_resolved: usize,
    /// Events whose `file_path` field was filled in.
    pub events_updated: usize,
    /// Events that still carry a tag without a resolvable path (their open
    /// happened before tracing started, or the open event was dropped at
    /// the ring buffer).
    pub events_unresolved: usize,
}

impl CorrelationReport {
    /// Fraction of tag-bearing events left without a path — the paper's
    /// §III-D quality metric (≤5% for DIO vs 45% for sysdig).
    pub fn unresolved_rate(&self) -> f64 {
        let total = self.events_updated + self.events_unresolved;
        if total == 0 {
            0.0
        } else {
            self.events_unresolved as f64 / total as f64
        }
    }
}

/// Runs file-path correlation over a session index.
///
/// Each tag learns its path from the `open`, `openat` and `creat` events that
/// carry both, the one stored last winning; then every event with that tag
/// and no path takes it. Only syscall events take part: a document that is
/// not exactly an event's (health, alerts, an event an update gave a foreign
/// field) is left alone and not counted. A persisted index logs its unlogged
/// tail first, then writes the updated rows through.
///
/// # Examples
///
/// ```
/// use dio_backend::{correlate_paths, Index, Query};
/// use dio_syscall::{FileTag, SyscallEvent, SyscallKind};
///
/// let (mut open, mut read) =
///     (SyscallEvent::synthetic(SyscallKind::Openat), SyscallEvent::synthetic(SyscallKind::Read));
/// (open.file_tag, open.file_path) = (Some(FileTag::new(1, 12, 5)), Some("/a.log".into()));
/// read.file_tag = open.file_tag;
///
/// let index = Index::new("t");
/// index.bulk(vec![open.to_document(), read.to_document()]);
/// let report = correlate_paths(&index);
/// assert_eq!(report.events_updated, 1);
/// assert_eq!(index.count(&Query::term("file_path", "/a.log")), 2);
/// ```
pub fn correlate_paths(index: &Index) -> CorrelationReport {
    index.correlate_paths()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Query, SearchRequest};
    use dio_syscall::{FileTag, SyscallEvent, SyscallKind};
    use serde_json::{json, Value};

    /// An event's document: `kind` with the tag `1|ino|first` and the path.
    fn event(kind: &str, tag: Option<(u64, u64)>, path: Option<&str>) -> Value {
        let mut e = SyscallEvent::synthetic(kind.parse::<SyscallKind>().expect("a syscall"));
        e.file_tag = tag.map(|(ino, first)| FileTag::new(1, ino, first));
        e.file_path = path.map(Into::into);
        e.to_document()
    }

    #[test]
    fn correlates_fd_events_to_open_paths() {
        let idx = Index::new("t");
        idx.bulk(vec![
            event("openat", Some((12, 100)), Some("/app.log")),
            event("read", Some((12, 100)), None),
            event("read", Some((12, 100)), None),
            event("close", Some((12, 100)), None),
        ]);
        let r = correlate_paths(&idx);
        assert_eq!(r.tags_resolved, 1);
        assert_eq!(r.events_updated, 3);
        assert_eq!(r.events_unresolved, 0);
        assert_eq!(idx.count(&Query::term("file_path", "/app.log")), 4);
    }

    #[test]
    fn distinguishes_inode_generations() {
        let idx = Index::new("t");
        idx.bulk(vec![
            event("openat", Some((12, 100)), Some("/gen1.log")),
            event("read", Some((12, 100)), None),
            // Same dev|ino, later generation, different name.
            event("openat", Some((12, 200)), Some("/gen2.log")),
            event("read", Some((12, 200)), None),
        ]);
        correlate_paths(&idx);
        let path_of_read = |tag: &str| {
            let query = Query::bool_query()
                .must(Query::term("syscall", "read"))
                .must(Query::term("file_tag", tag))
                .build();
            idx.search(&SearchRequest::new(query)).hits[0].source["file_path"].clone()
        };
        assert_eq!(path_of_read("1|12|100"), "/gen1.log");
        assert_eq!(path_of_read("1|12|200"), "/gen2.log");
    }

    /// A tag opened under two names takes the name of the open stored last.
    #[test]
    fn the_last_open_of_a_tag_names_it() {
        let idx = Index::new("t");
        idx.bulk(vec![
            event("creat", Some((12, 1)), Some("/old")),
            event("write", Some((12, 1)), None),
            event("open", Some((12, 1)), Some("/new")),
        ]);
        assert_eq!(correlate_paths(&idx).events_updated, 1);
        assert_eq!(idx.get(1).unwrap()["file_path"], "/new");
    }

    #[test]
    fn unresolvable_tags_are_counted() {
        let idx = Index::new("t");
        idx.bulk(vec![
            // Open for this tag was never captured (e.g. pre-attach).
            event("read", Some((99, 5)), None),
            event("close", Some((99, 5)), None),
            event("openat", Some((12, 1)), Some("/known")),
            event("read", Some((12, 1)), None),
        ]);
        let r = correlate_paths(&idx);
        assert_eq!(r.events_updated, 1);
        assert_eq!(r.events_unresolved, 2);
        assert!((r.unresolved_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    /// A document that is not exactly an event's — here one missing most of
    /// an event's fields — neither teaches a path nor takes one, nor counts.
    #[test]
    fn only_syscall_events_take_part() {
        let idx = Index::new("t");
        idx.bulk(vec![
            json!({"syscall": "openat", "file_tag": "1|12|5", "file_path": "/json.log"}),
            json!({"syscall": "read", "file_tag": "1|12|5"}),
            event("read", Some((12, 5)), None),
            event("openat", Some((13, 5)), Some("/event.log")),
            json!({"syscall": "read", "file_tag": "1|13|5"}),
        ]);
        let r = correlate_paths(&idx);
        assert_eq!(
            r,
            CorrelationReport { tags_resolved: 1, events_updated: 0, events_unresolved: 1 }
        );
        assert_eq!(idx.get(1).unwrap(), json!({"syscall": "read", "file_tag": "1|12|5"}));
        assert_eq!(idx.get(4).unwrap(), json!({"syscall": "read", "file_tag": "1|13|5"}));
        assert_eq!(idx.count(&Query::exists("file_path")), 2);
    }

    #[test]
    fn idempotent() {
        let idx = Index::new("t");
        idx.bulk(vec![
            event("openat", Some((12, 1)), Some("/f")),
            event("read", Some((12, 1)), None),
        ]);
        let first = correlate_paths(&idx);
        let second = correlate_paths(&idx);
        assert_eq!(first.events_updated, 1);
        assert_eq!(second.events_updated, 0);
        assert_eq!(second.events_unresolved, 0);
    }

    #[test]
    fn empty_index() {
        let idx = Index::new("t");
        let r = correlate_paths(&idx);
        assert_eq!(r, CorrelationReport::default());
        assert_eq!(r.unresolved_rate(), 0.0);
    }
}
