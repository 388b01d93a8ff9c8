//! The README's environment-variable table is the reference for every
//! `DIO_*` variable: it must name each one the code spells as a string
//! literal, and nothing else.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const PREFIX: &str = "DIO_";

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The names of the `"DIO_…"` string literals in `text`.
fn quoted_names(text: &str) -> impl Iterator<Item = String> + '_ {
    text.match_indices('"').filter_map(|(at, _)| {
        let rest = &text[at + 1..];
        let len =
            rest.find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))?;
        let name = &rest[..len];
        (name.len() > PREFIX.len() && name.starts_with(PREFIX) && rest[len..].starts_with('"'))
            .then(|| name.to_string())
    })
}

/// What `crates/*/src`, `crates/*/tests`, `src/` and `tests/` read.
fn names_in_code() -> BTreeSet<String> {
    let root = root();
    let mut dirs = vec![root.join("src"), root.join("tests")];
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let krate = krate.expect("crate directory").path();
        dirs.extend([krate.join("src"), krate.join("tests")]);
    }
    let mut files = Vec::new();
    for dir in &dirs {
        rust_files(dir, &mut files);
    }
    files
        .iter()
        .flat_map(|file| {
            let text = std::fs::read_to_string(file).expect("readable source");
            quoted_names(&text).collect::<Vec<_>>()
        })
        .collect()
}

/// The first column of the README table: rows that open with `` | `DIO_``.
fn names_in_readme() -> BTreeSet<String> {
    let readme = std::fs::read_to_string(root().join("README.md")).expect("README.md");
    readme
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(|rest| rest.split_once('`').map(|(name, _)| name.to_string()))
        .filter(|name| name.starts_with(PREFIX))
        .collect()
}

#[test]
fn readme_lists_exactly_the_environment_variables_the_code_reads() {
    let code = names_in_code();
    let readme = names_in_readme();
    assert!(code.len() >= 10, "the scan found {code:?}");
    let missing: Vec<_> = code.difference(&readme).collect();
    let stale: Vec<_> = readme.difference(&code).collect();
    assert!(missing.is_empty(), "read by the code, missing from README.md's table: {missing:?}");
    assert!(stale.is_empty(), "in README.md's table, read by nothing: {stale:?}");
}

#[test]
fn the_scan_finds_whole_quoted_names_only() {
    // Spelled with `@` for the prefix and `'` for quotes, so the scan of
    // this very file finds none of them.
    let text = "var('@A_1') '@' '@b' @C 'x@D' '@E".replace('\'', "\"").replace('@', PREFIX);
    assert_eq!(quoted_names(&text).collect::<Vec<_>>(), [format!("{PREFIX}A_1")]);
}
