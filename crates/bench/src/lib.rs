//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each evaluation artifact has a binary (`exp_table1`, `exp_fig2`,
//! `exp_fig3`, `exp_fig4`, `exp_table2`, `exp_discard`, `exp_table3`);
//! this library holds the shared machinery: the scaled RocksDB workload
//! runner with pluggable tracer setups, and result-file output.
//!
//! Scaling: the paper's testbed runs db_bench for ~3h48m over a 250 GiB
//! NVMe device. The reproduction shrinks dataset, op count and disk
//! bandwidth together so each run completes in seconds while keeping the
//! ratios that produce the phenomena (compaction I/O ≫ client I/O per
//! burst; tracer cost a few percent of syscall cost). See DESIGN.md §2.

pub mod crash_schedule;
pub mod rocksdb_run;

use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Directory where experiment binaries drop their outputs:
/// `$DIO_RESULTS_DIR` when set; else `results/`, the committed full-mode
/// artifacts — which a smoke run must not overwrite, so it writes to the
/// git-ignored `results/smoke/`.
pub fn results_dir() -> PathBuf {
    results_dir_for(std::env::var("DIO_RESULTS_DIR").ok(), smoke_mode())
}

fn results_dir_for(explicit: Option<String>, smoke: bool) -> PathBuf {
    match explicit {
        Some(dir) => PathBuf::from(dir),
        None if smoke => PathBuf::from("results/smoke"),
        None => PathBuf::from("results"),
    }
}

/// Writes `content` to `results/<name>`, creating the directory, and
/// echoes the path written.
pub fn write_result(name: &str, content: &str) -> PathBuf {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("create result file");
    f.write_all(content.as_bytes()).expect("write result file");
    println!("[saved {}]", path.display());
    path
}

/// A unique-enough run identifier: Unix seconds plus the process id.
pub fn run_id() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    format!("{}-{}", secs, std::process::id())
}

/// The commit the results were produced from: `GITHUB_SHA` in CI, `git
/// rev-parse HEAD` on a dev box, `"unknown"` outside a work tree.
pub fn git_commit() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Writes a machine-readable result document to `results/<name>`:
/// `{run_id, experiment, git_commit, smoke, params, metrics}` as pretty
/// JSON.
///
/// Every experiment binary pairs this with its human-readable
/// [`write_result`] output so downstream tooling never has to parse
/// ASCII tables. `params` keys are shared across binaries (the RocksDB
/// ones all embed [`rocksdb_run::RocksdbRunConfig::params_json`]) so a
/// parameter always lives under the same name in every result file.
pub fn write_json_result(
    name: &str,
    experiment: &str,
    params: serde_json::Value,
    metrics: serde_json::Value,
) -> PathBuf {
    let doc = serde_json::json!({
        "run_id": run_id(),
        "experiment": experiment,
        "git_commit": git_commit(),
        "smoke": smoke_mode(),
        "params": params,
        "metrics": metrics,
    });
    write_result(name, &serde_json::to_string_pretty(&doc).expect("result serializes"))
}

/// Formats a nanosecond duration as `XhYYm` / `YmZZs` / `Z.ZZs`.
pub fn format_duration_ns(ns: u64) -> String {
    let secs = ns as f64 / 1e9;
    if secs >= 3600.0 {
        format!("{:.0}h{:02.0}m", (secs / 3600.0).floor(), (secs % 3600.0) / 60.0)
    } else if secs >= 60.0 {
        format!("{:.0}m{:02.0}s", (secs / 60.0).floor(), secs % 60.0)
    } else {
        format!("{secs:.2}s")
    }
}

/// Returns true when the experiment should run in smoke-test mode
/// (`DIO_SMOKE=1`): tiny workloads, just enough to validate the pipeline.
pub fn smoke_mode() -> bool {
    std::env::var("DIO_SMOKE").map(|v| v == "1").unwrap_or(false)
}

/// Whether a result landed on disk (test support).
pub fn result_exists(name: &str) -> bool {
    Path::new(&results_dir()).join(name).exists()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn git_commit_is_never_empty() {
        let sha = git_commit();
        assert!(!sha.is_empty());
        assert!(sha == "unknown" || sha.chars().all(|c| c.is_ascii_hexdigit()), "{sha}");
    }

    #[test]
    fn smoke_runs_write_beside_the_committed_results_not_over_them() {
        assert_eq!(results_dir_for(None, false), PathBuf::from("results"));
        assert_eq!(results_dir_for(None, true), PathBuf::from("results/smoke"));
        for smoke in [false, true] {
            assert_eq!(results_dir_for(Some("/tmp/x".into()), smoke), PathBuf::from("/tmp/x"));
        }
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration_ns(1_500_000_000), "1.50s");
        assert_eq!(format_duration_ns(90 * 1_000_000_000), "1m30s");
        assert_eq!(format_duration_ns(3 * 3600 * 1_000_000_000 + 48 * 60 * 1_000_000_000), "3h48m");
    }
}
