//! `results/history.jsonl` (one line per run: commit, seed, nproc, every
//! metric), its rendering `results/trajectory.txt`, and `--selfcheck`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::process::{Command, ExitCode};

use serde_json::{json, Value};

use crate::ingest::WORKLOADS;
use crate::results_dir;
use crate::stats::{median, spread};

/// What the repository's `.git/HEAD` points at, else `unknown` (the
/// driver's checkout is not a git repository). Read from the files: a run
/// starts no process and reads nothing outside its checkout.
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let hash = match head.trim().strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).unwrap_or_default(),
        None => head,
    };
    match hash.trim() {
        "" => "unknown".into(),
        hash => hash.chars().take(12).collect(),
    }
}

pub fn append(workload: &str, seed: u64, seconds: u64, trace: bool, result: &Value) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let line = json!({
        "commit": commit(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": nproc,
        "correct": result["correct"].clone(),
        "attempted": result["attempted"].clone(),
        "failed": result["failed"].clone(),
        "metrics": result["metrics"].clone(),
    });
    let dir = results_dir();
    let path = dir.join("history.jsonl");
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut file = std::fs::OpenOptions::new().create(true).append(true).open(&path)?;
        writeln!(file, "{line}")
    });
    if let Err(e) = written {
        eprintln!("warning: cannot append to {}: {e}", path.display());
        return;
    }
    let Ok(history) = std::fs::read_to_string(&path) else { return };
    let _ = std::fs::write(dir.join("trajectory.txt"), trajectory(&history));
}

/// Per workload, trial length and metric, the value of every end-to-end run
/// in history order, so a change shows as a step in a row.
fn trajectory(history: &str) -> String {
    let mut rows: BTreeMap<(String, String), Vec<String>> = BTreeMap::new();
    for line in history.lines() {
        let Ok(run) = serde_json::from_str::<Value>(line) else { continue };
        if run["trace"] == true {
            continue;
        }
        let (Some(workload), Some(metrics)) =
            (run["workload"].as_str(), run["metrics"].as_object())
        else {
            continue;
        };
        let commit = run["commit"].as_str().unwrap_or("unknown");
        let workload = format!("{workload}@{}s", run["seconds"]);
        for (name, m) in metrics.iter() {
            let cell = format!("{commit}:{:.4}", m["value"].as_f64().unwrap_or(f64::NAN));
            rows.entry((workload.clone(), name.clone())).or_default().push(cell);
        }
    }
    let mut out = String::from("# workload@seconds metric commit:value ... (oldest first)\n");
    for ((workload, metric), cells) in rows {
        out.push_str(&format!("{workload} {metric} {}\n", cells.join(" ")));
    }
    out
}

/// One fresh process per run, as the driver does it.
fn run_once(workload: &str, seed: u64) -> Option<BTreeMap<String, f64>> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string(), "--trace", "0"])
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result: Value = serde_json::from_str(stdout.lines().last()?).ok()?;
    if !out.status.success() || result["correct"] != true {
        eprintln!("{workload} seed {seed}: run failed\n{stdout}");
        return None;
    }
    let metrics = result["metrics"].as_object()?;
    Some(
        metrics.iter().map(|(k, m)| (k.clone(), m["value"].as_f64().unwrap_or(f64::NAN))).collect(),
    )
}

/// Runs per set of `--selfcheck`: the number the benchmark contract's spread
/// rule is stated for.
const RUNS: u64 = 10;

/// Two sets of [`RUNS`] runs per workload, each run on its own seed. Every
/// end-to-end metric must spread (quartile distance over median) within its
/// bound in both sets — `setup_s` excepted, as in the contract — and the
/// second set's median may not be worse than the first's by more than the
/// bound.
pub fn selfcheck(manifest: &Value, seed: u64) -> ExitCode {
    let specs = manifest["end_to_end"].as_array().expect("manifest end_to_end");
    let mut disagreements = 0;
    println!("workload metric median_a median_b spread_a spread_b bound verdict");
    for w in &WORKLOADS {
        let mut sets: Vec<Vec<BTreeMap<String, f64>>> = Vec::new();
        for set in 0..2 {
            let first = seed + set * RUNS;
            let Some(results) =
                (0..RUNS).map(|i| run_once(w.name, first + i)).collect::<Option<Vec<_>>>()
            else {
                return ExitCode::FAILURE;
            };
            sets.push(results);
        }
        for spec in specs {
            let name = spec["name"].as_str().expect("name");
            let bound = spec["bound"].as_f64().expect("bound");
            let values = |set: usize| sets[set].iter().map(|run| run[name]).collect::<Vec<f64>>();
            let (a, b) = (values(0), values(1));
            let (spread_a, spread_b) = (spread(&a), spread(&b));
            let drift = match spec["better"].as_str() {
                Some("higher") => (median(&a) - median(&b)) / median(&a),
                _ => (median(&b) - median(&a)) / median(&a),
            };
            let steady = name == "setup_s" || (spread_a <= bound && spread_b <= bound);
            let ok = steady && drift <= bound;
            disagreements += !ok as u32;
            println!(
                "{} {name} {:.4} {:.4} {:.3} {:.3} {bound} {}",
                w.name,
                median(&a),
                median(&b),
                spread_a,
                spread_b,
                if ok { "ok" } else { "DISAGREE" },
            );
        }
    }
    if disagreements == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
