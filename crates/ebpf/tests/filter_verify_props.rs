//! Property tests for the verifier's soundness contract (ISSUE §c):
//!
//! * an **accepted** `FilterSpec` never panics during verification or
//!   admission, and is never statically empty — brute-force evaluation
//!   over a kernel-realistic event universe finds a witness it admits;
//! * a spec the verifier proves **statically empty** admits no event from
//!   that same universe.
//!
//! The universe is built from the spec's own ids/prefixes plus neutral
//! candidates, restricted to what the simulated kernel can actually
//! produce: absolute, NUL-free paths no longer than `PATH_MAX`, and
//! thread/process ids the kernel allocator can assign (never 0).

use std::sync::Arc;

use proptest::prelude::*;

use dio_ebpf::FilterSpec;
use dio_kernel::{EnterEvent, FdInfo, KernelInspect};
use dio_syscall::{FileType, Pid, SyscallKind, Tid};
use dio_verify::PATH_MAX;

/// A kernel view resolving every fd to one configured open path.
struct OneFileView {
    path: String,
}

impl KernelInspect for OneFileView {
    fn fd_info(&self, _: Pid, _: i32) -> Option<FdInfo> {
        Some(FdInfo { file_type: FileType::Regular, offset: 0, dev: 1, ino: 1, first_access_ns: 1 })
    }
    fn fd_path_matches(&self, _: Pid, _: i32, pred: &dyn Fn(&str) -> bool) -> bool {
        pred(&self.path)
    }
}

/// Whether the simulated kernel could ever produce `path` as a resolved
/// file path: absolute, NUL-free, within `PATH_MAX`.
fn kernel_realistic(path: &str) -> bool {
    path.starts_with('/') && !path.contains('\0') && path.len() <= PATH_MAX
}

/// Brute-force search for an event the spec admits, over a universe
/// derived from the spec itself. Returns the witness, if any.
fn find_witness(spec: &FilterSpec, facts: &dio_verify::FilterFacts) -> Option<String> {
    let mut ids: Vec<u32> = vec![1000, 1001];
    ids.extend(facts.pids.iter().flatten().copied());
    ids.extend(facts.tids.iter().flatten().copied());
    ids.retain(|&id| id != 0); // the kernel never assigns id 0

    let mut paths: Vec<String> = vec!["/".into(), "/data".into(), "/data/f".into()];
    for p in facts.path_prefixes.iter().flatten() {
        paths.push(p.clone());
        paths.push(if p.ends_with('/') { format!("{p}f") } else { format!("{p}/f") });
    }
    paths.retain(|p| kernel_realistic(p));

    let comm = Arc::from("prop");
    for &kind in SyscallKind::ALL {
        for &pid in &ids {
            for &tid in &ids {
                for path in &paths {
                    let view = OneFileView { path: path.clone() };
                    // Path-bearing syscalls carry the path inline; fd-only
                    // ones rely on fd→path resolution, as at runtime.
                    let (ev_path, ev_fd) = if kind.takes_path() {
                        (Some(path.as_str()), None)
                    } else {
                        (None, Some(3))
                    };
                    let event = EnterEvent {
                        kind,
                        pid: Pid(pid),
                        tid: Tid(tid),
                        comm: &comm,
                        cpu: 0,
                        time_ns: 1,
                        args: &[],
                        path: ev_path,
                        fd: ev_fd,
                    };
                    if spec.admits(&view, &event) {
                        return Some(format!("{} pid={pid} tid={tid} path={path}", kind.name()));
                    }
                }
            }
        }
    }
    None
}

const ID_POOL: &[u32] = &[0, 1, 2, 999, 1000, 1001, 65536];
const PREFIX_POOL: &[&str] =
    &["", "relative", "/", "/db", "/db/", "/db/wal", "/log", "/nul\0byte", "/data"];

fn ids() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec((0usize..ID_POOL.len()).prop_map(|i| ID_POOL[i]), 0..4)
}

fn prefixes() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(
        (0usize..PREFIX_POOL.len()).prop_map(|i| PREFIX_POOL[i].to_string()),
        0..5,
    )
}

fn kinds() -> impl Strategy<Value = Vec<SyscallKind>> {
    proptest::collection::vec((0usize..42).prop_map(|i| SyscallKind::ALL[i]), 0..6)
}

fn spec() -> impl Strategy<Value = FilterSpec> {
    (
        prop_oneof![1 => Just(None), 3 => kinds().prop_map(Some)],
        prop_oneof![1 => Just(None), 3 => ids().prop_map(Some)],
        prop_oneof![1 => Just(None), 3 => ids().prop_map(Some)],
        prop_oneof![1 => Just(None), 3 => prefixes().prop_map(Some)],
    )
        .prop_map(|(kinds, pids, tids, prefixes)| {
            let mut spec = FilterSpec::new();
            if let Some(kinds) = kinds {
                spec = spec.syscalls(kinds);
            }
            if let Some(pids) = pids {
                spec = spec.pids(pids.into_iter().map(Pid));
            }
            if let Some(tids) = tids {
                spec = spec.tids(tids.into_iter().map(Tid));
            }
            if let Some(prefixes) = prefixes {
                for p in prefixes {
                    spec = spec.path_prefix(p);
                }
            }
            spec
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Soundness: what the verifier accepts works, what it proves empty
    /// is empty. (Verification itself panicking fails the case too.)
    #[test]
    fn verifier_verdicts_match_brute_force(spec in spec()) {
        let report = spec.verify();
        let facts = spec.facts();
        let witness = find_witness(&spec, &facts);

        if report.is_ok() {
            prop_assert!(!report.statically_empty());
            prop_assert!(
                witness.is_some(),
                "accepted spec admits no event at all: {:?}",
                facts
            );
        }
        if report.statically_empty() {
            prop_assert!(!report.is_ok(), "statically-empty specs must be rejected");
            prop_assert!(
                witness.is_none(),
                "spec proved empty but admits {}: {:?}",
                witness.unwrap(),
                facts
            );
        }
    }

    /// The report itself is well-formed for any input: diagnostics carry
    /// stable rule names and the error Display names every violated rule.
    #[test]
    fn diagnostics_are_well_formed(spec in spec()) {
        let report = spec.verify();
        for d in &report.diagnostics {
            prop_assert!(!d.rule.name().is_empty());
            prop_assert!(!d.message.is_empty());
        }
        if let Err(err) = spec.verify().into_result() {
            let rendered = err.to_string();
            for rule in err.rules() {
                prop_assert!(
                    rendered.contains(rule.name()),
                    "error text must name rule {}",
                    rule.name()
                );
            }
        }
    }
}
