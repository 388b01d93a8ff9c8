//! The cross-layer catalog lint: one machine-checked contract for the 42
//! syscalls of Table I.
//!
//! The catalog lives in five places that must agree: the class assignment
//! in `dio-syscall`'s `catalog.rs`, the arg-decoding contract in `args.rs`
//! ([`dio_syscall::expected_args`]), the probe dispatch in
//! `dio-kernel/src/syscalls.rs`, the backend document schema in
//! `event.rs`, and the Table I listings rendered into DESIGN.md/README.
//! [`check_catalog`] cross-checks all five; any drift is reported as a
//! [`LintFailure`] with a diff-style message and fails CI hard
//! (`dio-verify --check-catalog`).

use std::path::{Path, PathBuf};

use dio_syscall::{expected_args, SyscallClass, SyscallEvent, SyscallKind};

/// Marker opening the generated Table I block in DESIGN.md/README.md.
pub const TABLE1_BEGIN: &str = "<!-- dio-verify:table1:begin -->";
/// Marker closing the generated Table I block.
pub const TABLE1_END: &str = "<!-- dio-verify:table1:end -->";

/// Expected per-class census of Table I (class, count).
pub const CLASS_CENSUS: &[(SyscallClass, usize)] = &[
    (SyscallClass::Data, 8),
    (SyscallClass::Metadata, 17),
    (SyscallClass::ExtendedAttributes, 12),
    (SyscallClass::DirectoryManagement, 5),
];

/// Fields `SyscallEvent::to_document` must always emit (the dashboard
/// schema of §II-B).
pub const DOCUMENT_FIELDS: &[&str] = &[
    "session",
    "syscall",
    "class",
    "pid",
    "tid",
    "proc_name",
    "cpu",
    "time",
    "time_exit",
    "latency_ns",
    "ret_val",
    "args",
];

/// One failed catalog check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFailure {
    /// The stable name of the failed check (e.g. `kernel-dispatch`).
    pub check: &'static str,
    /// Diff-style explanation naming the drifted syscall/layer.
    pub message: String,
}

impl std::fmt::Display for LintFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "catalog[{}]: {}", self.check, self.message)
    }
}

/// Renders the canonical Table I listing from [`SyscallKind::ALL`] — the
/// single source of truth the docs embed between [`TABLE1_BEGIN`] /
/// [`TABLE1_END`] markers.
pub fn table1_markdown() -> String {
    let mut out = String::new();
    out.push_str("| # | Syscall | Class | FD | Path |\n");
    out.push_str("|--:|---------|-------|:--:|:----:|\n");
    for (i, &k) in SyscallKind::ALL.iter().enumerate() {
        let fd = if k.takes_fd() { "✓" } else { "" };
        let path = if k.takes_path() { "✓" } else { "" };
        out.push_str(&format!(
            "| {} | `{}` | {} | {} | {} |\n",
            i + 1,
            k.name(),
            k.class(),
            fd,
            path
        ));
    }
    let census =
        CLASS_CENSUS.iter().map(|(c, n)| format!("{n} {c}")).collect::<Vec<_>>().join(", ");
    out.push_str(&format!("\n{} syscalls: {census}.\n", SyscallKind::ALL.len()));
    out
}

// ------------------------------------------------------------ pure checks

/// Checks the in-crate invariants of the catalog: census, class counts,
/// name round-trips, fd/path flags, arg contract, and the document schema.
pub fn check_catalog_invariants() -> Vec<LintFailure> {
    let mut failures = Vec::new();

    if SyscallKind::ALL.len() != 42 {
        failures.push(LintFailure {
            check: "census",
            message: format!("Table I lists 42 syscalls, catalog has {}", SyscallKind::ALL.len()),
        });
    }
    for &(class, want) in CLASS_CENSUS {
        let got = SyscallKind::ALL.iter().filter(|k| k.class() == class).count();
        if got != want {
            failures.push(LintFailure {
                check: "class-census",
                message: format!("class `{class}` has {got} syscalls, Table I says {want}"),
            });
        }
    }

    let mut seen = std::collections::HashSet::new();
    for &k in SyscallKind::ALL {
        if !seen.insert(k.name()) {
            failures.push(LintFailure {
                check: "names",
                message: format!("duplicate syscall name `{}`", k.name()),
            });
        }
        match k.name().parse::<SyscallKind>() {
            Ok(back) if back == k => {}
            _ => failures.push(LintFailure {
                check: "names",
                message: format!("`{}` does not round-trip through FromStr", k.name()),
            }),
        }
        if !k.takes_fd() && !k.takes_path() {
            failures.push(LintFailure {
                check: "fd-path-flags",
                message: format!("`{}` neither takes an fd nor a path — untraceable target", k),
            });
        }
        if expected_args(k).is_empty() {
            failures.push(LintFailure {
                check: "args-contract",
                message: format!(
                    "`{}` has no expected args — decoding arm missing from args.rs",
                    k
                ),
            });
        }

        // The document schema, read off the event's own field enumeration:
        // every dashboard field present, keys in order, and the document the
        // strict inverse's fixed point.
        let event = SyscallEvent::synthetic(k);
        let names: Vec<&str> = event.fields().map(|(name, _)| name).collect();
        for field in DOCUMENT_FIELDS {
            if !names.contains(field) {
                failures.push(LintFailure {
                    check: "event-schema",
                    message: format!("document for `{k}` lacks required field `{field}`"),
                });
            }
        }
        if !names.is_sorted() {
            failures.push(LintFailure {
                check: "event-schema",
                message: format!("fields of `{k}` are not enumerated in key order: {names:?}"),
            });
        }
        let doc = event.to_document();
        if doc.get("syscall").and_then(|v| v.as_str()) != Some(k.name()) {
            failures.push(LintFailure {
                check: "event-schema",
                message: format!("document for `{k}` names a different syscall"),
            });
        }
        if doc.get("class").and_then(|v| v.as_str()) != Some(k.class().to_string().as_str()) {
            failures.push(LintFailure {
                check: "event-schema",
                message: format!("document for `{k}` carries the wrong class"),
            });
        }
        if SyscallEvent::from_document(&doc).as_ref() != Some(&event) {
            failures.push(LintFailure {
                check: "event-schema",
                message: format!("document for `{k}` does not read back as the event"),
            });
        }
    }

    failures
}

// --------------------------------------------------------- source scanning

/// Extracts `(kind variant, arg names)` for every `invoke(SyscallKind::X,
/// args, ...)` dispatch site in `dio-kernel/src/syscalls.rs` source text.
///
/// The kernel builds each `args` vector immediately before its dispatch,
/// so the `Arg::new("…")` literals between two dispatch sites belong to
/// the later one.
fn scan_kernel_dispatch(src: &str) -> Vec<(String, Vec<String>)> {
    const NEEDLE: &str = "invoke(SyscallKind::";
    let mut sites = Vec::new();
    let mut prev_end = 0usize;
    let mut from = 0usize;
    while let Some(rel) = src[from..].find(NEEDLE) {
        let at = from + rel;
        let tail = &src[at + NEEDLE.len()..];
        let variant: String = tail.chars().take_while(|c| c.is_ascii_alphanumeric()).collect();
        let args = scan_arg_names(&src[prev_end..at]);
        sites.push((variant, args));
        prev_end = at + NEEDLE.len();
        from = prev_end;
    }
    sites
}

/// All `Arg::new("name"` literals in a source slice, in order.
fn scan_arg_names(src: &str) -> Vec<String> {
    const NEEDLE: &str = "Arg::new(\"";
    let mut names = Vec::new();
    let mut from = 0usize;
    while let Some(rel) = src[from..].find(NEEDLE) {
        let start = from + rel + NEEDLE.len();
        if let Some(len) = src[start..].find('"') {
            names.push(src[start..start + len].to_string());
            from = start + len;
        } else {
            break;
        }
    }
    names
}

/// Checks the kernel probe dispatch source against the catalog: every kind
/// dispatched exactly once, with `Arg` names matching `expected_args`.
pub fn check_kernel_dispatch_src(src: &str) -> Vec<LintFailure> {
    let mut failures = Vec::new();
    let sites = scan_kernel_dispatch(src);

    for &k in SyscallKind::ALL {
        let variant = format!("{k:?}");
        let matching: Vec<_> = sites.iter().filter(|(v, _)| *v == variant).collect();
        match matching.as_slice() {
            [] => failures.push(LintFailure {
                check: "kernel-dispatch",
                message: format!(
                    "`{k}` has no probe dispatch site in dio-kernel — syscall untraced"
                ),
            }),
            [(_, args)] => {
                let expected = expected_args(k);
                if args.iter().map(String::as_str).ne(expected.iter().copied()) {
                    failures.push(LintFailure {
                        check: "kernel-args",
                        message: format!(
                            "`{k}` arg drift between layers:\n  - dio-syscall expects [{}]\n  - dio-kernel records  [{}]",
                            expected.join(", "),
                            args.join(", ")
                        ),
                    });
                }
            }
            many => failures.push(LintFailure {
                check: "kernel-dispatch",
                message: format!(
                    "`{k}` has {} dispatch sites in dio-kernel — duplicate probe",
                    many.len()
                ),
            }),
        }
    }
    for (variant, _) in &sites {
        if !SyscallKind::ALL.iter().any(|k| format!("{k:?}") == *variant) {
            failures.push(LintFailure {
                check: "kernel-dispatch",
                message: format!(
                    "dio-kernel dispatches unknown SyscallKind::{variant} — not in Table I"
                ),
            });
        }
    }
    failures
}

/// Checks the `args.rs` source for a decoding arm (`SyscallKind::X =>`)
/// per catalog entry. The `expected_args` match carries a `_ => &[]`
/// fallback, so a deleted arm still compiles — only this lint sees it.
pub fn check_args_arms_src(src: &str) -> Vec<LintFailure> {
    let mut failures = Vec::new();
    for &k in SyscallKind::ALL {
        let arm = format!("SyscallKind::{k:?} =>");
        if !src.contains(&arm) {
            failures.push(LintFailure {
                check: "args-arms",
                message: format!(
                    "`{k}` has no decoding arm in args.rs — expected_args falls through to []"
                ),
            });
        }
    }
    failures
}

/// Checks a doc file's generated Table I block against [`table1_markdown`].
pub fn check_doc_table(name: &str, content: &str) -> Vec<LintFailure> {
    match extract_between_markers(content) {
        None => vec![LintFailure {
            check: "docs-table1",
            message: format!("{name} has no `{TABLE1_BEGIN}` … `{TABLE1_END}` block"),
        }],
        Some(block) => {
            let want = table1_markdown();
            if block.trim() != want.trim() {
                let diff = first_divergence(block.trim(), want.trim());
                vec![LintFailure {
                    check: "docs-table1",
                    message: format!(
                        "{name} Table I listing drifted from SyscallKind::ALL; run `dio-verify --write-docs`\n{diff}"
                    ),
                }]
            } else {
                Vec::new()
            }
        }
    }
}

fn extract_between_markers(content: &str) -> Option<&str> {
    let start = content.find(TABLE1_BEGIN)? + TABLE1_BEGIN.len();
    let end = content[start..].find(TABLE1_END)? + start;
    Some(&content[start..end])
}

/// A diff-style excerpt of the first line where `got` and `want` diverge.
fn first_divergence(got: &str, want: &str) -> String {
    for (g, w) in got.lines().zip(want.lines()) {
        if g != w {
            return format!("  - {w}\n  + {g}");
        }
    }
    let (glen, wlen) = (got.lines().count(), want.lines().count());
    if glen < wlen {
        format!("  - {}", want.lines().nth(glen).unwrap_or(""))
    } else if glen > wlen {
        format!("  + {}", got.lines().nth(wlen).unwrap_or(""))
    } else {
        String::new()
    }
}

// ---------------------------------------------------------- repo-level API

/// Paths the repo-level lint reads, relative to the workspace root.
const ARGS_RS: &str = "crates/syscall/src/args.rs";
const KERNEL_SYSCALLS_RS: &str = "crates/kernel/src/syscalls.rs";
const DOC_FILES: &[&str] = &["DESIGN.md", "README.md"];

fn read(root: &Path, rel: &str) -> Result<String, LintFailure> {
    std::fs::read_to_string(root.join(rel))
        .map_err(|e| LintFailure { check: "io", message: format!("cannot read {rel}: {e}") })
}

/// Runs every catalog check against the workspace rooted at `root`.
///
/// Returns all failures; an empty vector means the five layers agree.
pub fn check_catalog(root: &Path) -> Vec<LintFailure> {
    let mut failures = check_catalog_invariants();

    match read(root, ARGS_RS) {
        Ok(src) => failures.extend(check_args_arms_src(&src)),
        Err(f) => failures.push(f),
    }
    match read(root, KERNEL_SYSCALLS_RS) {
        Ok(src) => failures.extend(check_kernel_dispatch_src(&src)),
        Err(f) => failures.push(f),
    }
    for doc in DOC_FILES {
        match read(root, doc) {
            Ok(content) => failures.extend(check_doc_table(doc, &content)),
            Err(f) => failures.push(f),
        }
    }
    for doc in crate::rules_lint::RULES_DOC_FILES {
        match read(root, doc) {
            Ok(content) => {
                failures.extend(crate::rules_lint::check_doc_rules_reference(doc, &content))
            }
            Err(f) => failures.push(f),
        }
    }
    failures
}

/// Regenerates the Table I block in each doc file under `root`, between
/// the existing markers. Returns the files rewritten.
///
/// # Errors
///
/// Fails when a doc file is unreadable or lacks the marker pair.
pub fn write_docs(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut written = Vec::new();
    for doc in DOC_FILES {
        let path = root.join(doc);
        let content =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {doc}: {e}"))?;
        let start = content
            .find(TABLE1_BEGIN)
            .ok_or_else(|| format!("{doc} has no {TABLE1_BEGIN} marker"))?
            + TABLE1_BEGIN.len();
        let end = content[start..]
            .find(TABLE1_END)
            .ok_or_else(|| format!("{doc} has no {TABLE1_END} marker"))?
            + start;
        let next = format!("{}\n{}{}", &content[..start], table1_markdown(), &content[end..]);
        if next != content {
            std::fs::write(&path, &next).map_err(|e| format!("cannot write {doc}: {e}"))?;
            written.push(path);
        }
    }
    written.extend(crate::rules_lint::write_rules_reference(root)?);
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invariants_hold_on_the_real_catalog() {
        let failures = check_catalog_invariants();
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn table1_lists_every_syscall_once() {
        let table = table1_markdown();
        for &k in SyscallKind::ALL {
            let cell = format!("`{}`", k.name());
            assert_eq!(table.matches(&cell).count(), 1, "{} should appear exactly once", k.name());
        }
        assert!(table.contains("42 syscalls"));
    }

    #[test]
    fn kernel_scan_reads_dispatch_sites() {
        let src = r#"
            pub fn close(&self, fd: i32) -> SysResult<()> {
                let args = vec![Arg::new("fd", fd)];
                self.invoke(SyscallKind::Close, args, None, Some(fd), || Ok((0, ())))
            }
            pub fn stat(&self, path: &str) -> SysResult<StatBuf> {
                let args = vec![Arg::new("path", path)];
                self.invoke(SyscallKind::Stat, args, Some(path), None, || todo!())
            }
        "#;
        let sites = scan_kernel_dispatch(src);
        assert_eq!(
            sites,
            vec![
                ("Close".to_string(), vec!["fd".to_string()]),
                ("Stat".to_string(), vec!["path".to_string()]),
            ]
        );
    }

    #[test]
    fn kernel_check_flags_missing_and_drifted_args() {
        // A fake kernel source with only one syscall, with a wrong arg name.
        let src = r#"
            let args = vec![Arg::new("fildes", fd)];
            self.invoke(SyscallKind::Close, args, None, Some(fd), || Ok((0, ())))
        "#;
        let failures = check_kernel_dispatch_src(src);
        assert!(failures.iter().any(|f| f.check == "kernel-args" && f.message.contains("close")));
        // The other 41 are missing entirely.
        assert_eq!(failures.iter().filter(|f| f.check == "kernel-dispatch").count(), 41);
    }

    #[test]
    fn kernel_check_flags_duplicates_and_unknowns() {
        let dup = r#"
            let args = vec![Arg::new("fd", fd)];
            self.invoke(SyscallKind::Close, args, None, Some(fd), || Ok((0, ())))
            let args = vec![Arg::new("fd", fd)];
            self.invoke(SyscallKind::Close, args, None, Some(fd), || Ok((0, ())))
            self.invoke(SyscallKind::Futex, vec![], None, None, || Ok((0, ())))
        "#;
        let failures = check_kernel_dispatch_src(dup);
        assert!(failures
            .iter()
            .any(|f| f.check == "kernel-dispatch" && f.message.contains("2 dispatch sites")));
        assert!(failures
            .iter()
            .any(|f| f.check == "kernel-dispatch" && f.message.contains("Futex")));
    }

    #[test]
    fn args_arm_check_flags_removed_arm() {
        let mut src = String::new();
        for &k in SyscallKind::ALL {
            if k != SyscallKind::Readahead {
                src.push_str(&format!("SyscallKind::{k:?} => &[\"x\"],\n"));
            }
        }
        let failures = check_args_arms_src(&src);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].message.contains("readahead"));
    }

    #[test]
    fn doc_check_flags_drift_and_missing_markers() {
        assert_eq!(check_doc_table("X.md", "no markers here").len(), 1);
        let good = format!("intro\n{TABLE1_BEGIN}\n{}{TABLE1_END}\nrest", table1_markdown());
        assert!(check_doc_table("X.md", &good).is_empty());
        let drifted = good.replace("`read`", "`reed`");
        let failures = check_doc_table("X.md", &drifted);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].message.contains("- |"), "diff excerpt: {}", failures[0].message);
    }

    #[test]
    fn first_divergence_reports_shape() {
        assert!(first_divergence("a\nb", "a\nc").contains("- c"));
        assert!(first_divergence("a", "a\nb").contains("- b"));
        assert!(first_divergence("a\nb", "a").contains("+ b"));
        assert_eq!(first_divergence("a", "a"), "");
    }
}
