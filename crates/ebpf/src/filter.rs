//! Kernel-space event filters.
//!
//! DIO "allows collecting only events of interest, filtering them (in
//! kernel-space) by syscall type, PID, TID, or file paths" (§I). Filtering
//! before the ring buffer keeps both the performance overhead and the data
//! volume sent to user space down.

use std::collections::HashSet;

use dio_kernel::{EnterEvent, KernelInspect};
use dio_syscall::{Pid, SyscallKind, SyscallSet, Tid};
use dio_verify::{FilterFacts, VerifyReport};

/// An in-kernel filter specification.
///
/// Empty/`None` dimensions match everything, so `FilterSpec::default()`
/// traces all 42 syscalls from every process.
///
/// # Examples
///
/// ```
/// use dio_ebpf::FilterSpec;
/// use dio_syscall::SyscallKind;
///
/// let filter = FilterSpec::new()
///     .syscalls([SyscallKind::Open, SyscallKind::Read, SyscallKind::Write, SyscallKind::Close])
///     .path_prefix("/db");
/// assert!(filter.matches_kind(SyscallKind::Read));
/// assert!(!filter.matches_kind(SyscallKind::Stat));
/// ```
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FilterSpec {
    syscalls: Option<SyscallSet>,
    pids: Option<HashSet<Pid>>,
    tids: Option<HashSet<Tid>>,
    path_prefixes: Option<Vec<String>>,
}

impl FilterSpec {
    /// A filter matching everything.
    pub fn new() -> Self {
        Self::default()
    }

    /// Restricts to the given syscall kinds.
    pub fn syscalls(mut self, kinds: impl IntoIterator<Item = SyscallKind>) -> Self {
        self.syscalls = Some(kinds.into_iter().collect());
        self
    }

    /// Restricts to the given process ids.
    pub fn pids(mut self, pids: impl IntoIterator<Item = Pid>) -> Self {
        self.pids = Some(pids.into_iter().collect());
        self
    }

    /// Adds one process id to the pid filter.
    pub fn pid(mut self, pid: Pid) -> Self {
        self.pids.get_or_insert_with(HashSet::new).insert(pid);
        self
    }

    /// Restricts to the given thread ids.
    pub fn tids(mut self, tids: impl IntoIterator<Item = Tid>) -> Self {
        self.tids = Some(tids.into_iter().collect());
        self
    }

    /// Restricts to paths under the given prefix (repeatable).
    pub fn path_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.path_prefixes.get_or_insert_with(Vec::new).push(prefix.into());
        self
    }

    /// The syscall kinds this filter admits (all 42 when unrestricted).
    ///
    /// The tracer uses this to decide which tracepoints to enable at all.
    pub fn enabled_syscalls(&self) -> SyscallSet {
        self.syscalls.unwrap_or_else(SyscallSet::all)
    }

    /// Whether a syscall kind passes the type filter.
    pub fn matches_kind(&self, kind: SyscallKind) -> bool {
        self.syscalls.is_none_or(|s| s.contains(kind))
    }

    /// Whether a path passes the path filter.
    pub fn matches_path(&self, path: &str) -> bool {
        match &self.path_prefixes {
            None => true,
            Some(prefixes) => prefixes.iter().any(|p| {
                // An empty prefix matches nothing: prefixes are
                // directory-ish and "" is not a directory (the verifier
                // rejects it as unmatchable; this keeps the runtime
                // matcher consistent with that claim).
                !p.is_empty()
                    && (path == p
                        || (path.starts_with(p.as_str()) && {
                            // Prefixes are directory-ish: "/log" matches
                            // "/log/x" but not "/logfile".
                            p.ends_with('/') || path.as_bytes().get(p.len()) == Some(&b'/')
                        }))
            }),
        }
    }

    /// Lowers the filter into the verifier-neutral [`FilterFacts`] shape
    /// consumed by [`dio_verify::verify_filter`].
    ///
    /// Id sets are sorted so the facts (and thus diagnostics) are
    /// deterministic regardless of hash order.
    pub fn facts(&self) -> FilterFacts {
        fn sorted_ids<T: Copy>(
            set: &Option<HashSet<T>>,
            raw: impl Fn(T) -> u32,
        ) -> Option<Vec<u32>> {
            set.as_ref().map(|s| {
                let mut v: Vec<u32> = s.iter().map(|&id| raw(id)).collect();
                v.sort_unstable();
                v
            })
        }
        FilterFacts {
            syscalls: self.syscalls,
            pids: sorted_ids(&self.pids, |p: Pid| p.0),
            tids: sorted_ids(&self.tids, |t: Tid| t.0),
            path_prefixes: self.path_prefixes.clone(),
        }
    }

    /// Runs the static verifier over this filter.
    ///
    /// This is the load-time analysis [`crate::TracerProgram::new`] applies
    /// before attaching — the reproduction's analogue of the eBPF
    /// verifier's rejection at `BPF_PROG_LOAD`.
    ///
    /// # Examples
    ///
    /// ```
    /// use dio_ebpf::FilterSpec;
    /// use dio_verify::Rule;
    ///
    /// let spec = FilterSpec::new().syscalls([]);
    /// let err = spec.verify().into_result().unwrap_err();
    /// assert!(err.violates(Rule::EmptySyscallSet));
    /// ```
    pub fn verify(&self) -> VerifyReport {
        dio_verify::verify_filter(&self.facts())
    }

    /// Full admission check at `sys_enter`.
    ///
    /// For fd-bearing syscalls the path dimension consults the kernel view
    /// to resolve the descriptor's open path — this is what lets a path
    /// filter also catch `read`/`write`/`close` on a watched file. The view
    /// lends the path; nothing is copied.
    pub fn admits(&self, view: &dyn KernelInspect, event: &EnterEvent<'_>) -> bool {
        if !self.matches_kind(event.kind) {
            return false;
        }
        if let Some(pids) = &self.pids {
            if !pids.contains(&event.pid) {
                return false;
            }
        }
        if let Some(tids) = &self.tids {
            if !tids.contains(&event.tid) {
                return false;
            }
        }
        if self.path_prefixes.is_some() {
            let path_ok = if let Some(path) = event.path {
                self.matches_path(path)
            } else if let Some(fd) = event.fd {
                view.fd_path_matches(event.pid, fd, &|path| self.matches_path(path))
            } else {
                false
            };
            if !path_ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, LazyLock};

    use dio_kernel::{FdInfo, TaskSlot};
    use dio_syscall::FileType;

    struct FakeView {
        path: &'static str,
    }

    impl KernelInspect for FakeView {
        fn fd_info(&self, _: Pid, fd: i32) -> Option<FdInfo> {
            (fd == 3).then_some(FdInfo {
                file_type: FileType::Regular,
                offset: 0,
                dev: 1,
                ino: 1,
                first_access_ns: 1,
            })
        }
        fn fd_path_matches(&self, _: Pid, fd: i32, pred: &dyn Fn(&str) -> bool) -> bool {
            fd == 3 && pred(self.path)
        }
    }

    static COMM: LazyLock<Arc<str>> = LazyLock::new(|| Arc::from("t"));

    fn enter(
        kind: SyscallKind,
        pid: u32,
        tid: u32,
        path: Option<&'static str>,
        fd: Option<i32>,
    ) -> EnterEvent<'static> {
        EnterEvent {
            kind,
            pid: Pid(pid),
            tid: Tid(tid),
            comm: &COMM,
            cpu: 0,
            time_ns: 0,
            args: &[],
            path,
            fd,
            slot: TaskSlot(0),
        }
    }

    #[test]
    fn default_admits_everything() {
        let f = FilterSpec::new();
        let v = FakeView { path: "/x" };
        assert!(f.admits(&v, &enter(SyscallKind::Read, 1, 1, None, Some(3))));
        assert!(f.admits(&v, &enter(SyscallKind::Mkdir, 9, 9, Some("/d"), None)));
        assert_eq!(f.enabled_syscalls().len(), 42);
    }

    #[test]
    fn syscall_type_filter() {
        let f = FilterSpec::new().syscalls([SyscallKind::Open, SyscallKind::Close]);
        let v = FakeView { path: "/x" };
        assert!(f.admits(&v, &enter(SyscallKind::Open, 1, 1, Some("/x"), None)));
        assert!(!f.admits(&v, &enter(SyscallKind::Read, 1, 1, None, Some(3))));
        assert_eq!(f.enabled_syscalls().len(), 2);
    }

    #[test]
    fn pid_tid_filters() {
        let v = FakeView { path: "/x" };
        let f = FilterSpec::new().pids([Pid(10)]);
        assert!(f.admits(&v, &enter(SyscallKind::Read, 10, 99, None, Some(3))));
        assert!(!f.admits(&v, &enter(SyscallKind::Read, 11, 99, None, Some(3))));
        let f = FilterSpec::new().tids([Tid(7)]);
        assert!(f.admits(&v, &enter(SyscallKind::Read, 1, 7, None, Some(3))));
        assert!(!f.admits(&v, &enter(SyscallKind::Read, 1, 8, None, Some(3))));
        let f = FilterSpec::new().pid(Pid(1)).pid(Pid(2));
        assert!(f.admits(&v, &enter(SyscallKind::Read, 2, 8, None, Some(3))));
    }

    #[test]
    fn path_prefix_semantics() {
        let f = FilterSpec::new().path_prefix("/log");
        assert!(f.matches_path("/log"));
        assert!(f.matches_path("/log/app.log"));
        assert!(!f.matches_path("/logfile"));
        assert!(!f.matches_path("/data/x"));
        let f2 = FilterSpec::new().path_prefix("/a").path_prefix("/b");
        assert!(f2.matches_path("/a/x"));
        assert!(f2.matches_path("/b/y"));
        // An empty prefix matches nothing (consistent with the verifier's
        // unmatchable-path-prefix claim), and "/" matches everything.
        let empty = FilterSpec::new().path_prefix("");
        assert!(!empty.matches_path("/a"));
        assert!(!empty.matches_path(""));
        let root = FilterSpec::new().path_prefix("/");
        assert!(root.matches_path("/a/x"));
    }

    #[test]
    fn path_filter_resolves_fds() {
        let f = FilterSpec::new().path_prefix("/watched");
        let v = FakeView { path: "/watched/f" };
        // fd 3 resolves to /watched/f -> admitted.
        assert!(f.admits(&v, &enter(SyscallKind::Read, 1, 1, None, Some(3))));
        // fd 4 does not resolve -> rejected.
        assert!(!f.admits(&v, &enter(SyscallKind::Read, 1, 1, None, Some(4))));
        // Syscall with neither path nor fd is rejected under a path filter.
        assert!(!f.admits(&v, &enter(SyscallKind::Fstatfs, 1, 1, None, None)));
        let other = FakeView { path: "/other/f" };
        assert!(!f.admits(&other, &enter(SyscallKind::Read, 1, 1, None, Some(3))));
    }

    #[test]
    fn combined_dimensions_are_conjunctive() {
        let f = FilterSpec::new().syscalls([SyscallKind::Write]).pids([Pid(5)]).path_prefix("/d");
        let v = FakeView { path: "/d/f" };
        assert!(f.admits(&v, &enter(SyscallKind::Write, 5, 1, None, Some(3))));
        assert!(!f.admits(&v, &enter(SyscallKind::Write, 6, 1, None, Some(3))));
        assert!(!f.admits(&v, &enter(SyscallKind::Read, 5, 1, None, Some(3))));
    }
}
