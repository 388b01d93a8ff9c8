//! Crash-injection recovery harness (DESIGN.md §11.5).
//!
//! Each run spawns the `crash_runner` child with a seed-derived kill
//! point armed through `DIO_CRASH_POINT` — the child aborts partway
//! through a segment append or a compaction merge, leaving a torn write
//! on disk. The parent then reopens the store and asserts the recovery
//! contract:
//!
//! * every *acknowledged* document is present, byte-identical;
//! * every *acknowledged* tombstone holds (the document stays gone);
//! * every surviving document is one the workload actually attempted
//!   (recovery never invents or mangles data);
//! * the engine's full invariant check ([`StorageEngine::verify`])
//!   passes — keydir slots resolve, segments replay cleanly, the
//!   active segment is the max generation.
//!
//! Knobs (all env, all optional):
//! * `DIO_CRASH_SEEDS` — number of seeded runs (default 8; CI uses 50+);
//! * `DIO_CRASH_SEED_BASE` — first seed (reproduce a failure by setting
//!   this to the seed the panic message names, with `DIO_CRASH_SEEDS=1`);
//! * `DIO_CRASH_DIR` — where the per-run store directories live.
//!   Surviving directories of failed runs are kept for post-mortem.
//!
//! [`StorageEngine::verify`]: dio_backend::StorageEngine::verify

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use dio_backend::storage::record::FLAG_DICT;
use dio_backend::storage::segment;
use dio_backend::{DocStore, SearchRequest};
use dio_bench::crash_schedule as cs;

const STEPS: usize = 260;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn crash_dir(tag: &str) -> PathBuf {
    let base =
        std::env::var("DIO_CRASH_DIR").map(PathBuf::from).unwrap_or_else(|_| std::env::temp_dir());
    base.join(format!("dio-crash-{}-{tag}", std::process::id()))
}

/// Derives the kill point for `seed`: a site, how many hits of that
/// site to let pass, and the byte offset within the targeted write at
/// which the child dies.
fn crash_spec(seed: u64) -> String {
    let (site, countdown) = match seed % 2 {
        0 => ("append", cs::mix(seed, 101) % 220), // ~260 steps => plenty of appends
        _ => ("compact", cs::mix(seed, 103) % 6),  // ~5% of steps compact
    };
    let split = cs::mix(seed, 104) % 96;
    format!("{site}:{countdown}:{split}")
}

/// What a kill left torn in the store under `dir`, before recovery repairs
/// it: the flags byte of the frame it tore — a segment's or a merge
/// output's — if the prefix on disk reaches it.
fn torn_flags(dir: &Path) -> Option<u8> {
    for shard in std::fs::read_dir(dir).ok()?.flatten().filter(|e| e.path().is_dir()) {
        for file in std::fs::read_dir(shard.path()).ok()?.flatten() {
            let Ok(scanned) = segment::scan(&file.path()) else { continue };
            if scanned.torn.is_some() {
                let bytes = std::fs::read(file.path()).ok()?;
                return bytes.get(scanned.valid_len as usize + 12).copied();
            }
        }
    }
    None
}

/// How a seeded run ended: whether the child died at the armed point (vs.
/// completing the schedule), and whether the kill tore a dictionary record.
struct Outcome {
    crashed: bool,
    in_dict: bool,
}

/// One seeded child run + recovery check.
fn run_one(seed: u64) -> Outcome {
    let spec = crash_spec(seed);
    let dir = crash_dir(&format!("seed{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    let ctx = format!(
        "seed {seed} spec {spec} dir {} (reproduce: DIO_CRASH_SEED_BASE={seed} DIO_CRASH_SEEDS=1)",
        dir.display()
    );

    let output = Command::new(env!("CARGO_BIN_EXE_crash_runner"))
        .arg(&dir)
        .arg(seed.to_string())
        .arg(STEPS.to_string())
        .env("DIO_CRASH_POINT", &spec)
        .output()
        .expect("spawn crash_runner");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let crashed = !output.status.success();
    assert!(
        crashed || stdout.contains("DONE"),
        "child exited 0 without finishing — {ctx}\n{stdout}"
    );

    // Parse the progress protocol into per-step statuses.
    let mut started = HashSet::new();
    let mut acked = HashSet::new();
    for line in stdout.lines() {
        if let Some(n) = line.strip_prefix("S ") {
            started.insert(n.parse::<usize>().expect("step number"));
        } else if let Some(n) = line.strip_prefix("A ") {
            acked.insert(n.parse::<usize>().expect("step number"));
        }
    }

    let sched = cs::schedule(seed, STEPS);
    let exp = cs::expectation(&sched, |n| {
        if acked.contains(&n) {
            cs::StepStatus::Acked
        } else if started.contains(&n) {
            cs::StepStatus::Limbo
        } else {
            cs::StepStatus::NotReached
        }
    });

    // Reopen and check the contract.
    let in_dict = torn_flags(&dir).is_some_and(|flags| flags & FLAG_DICT != 0);
    let store = DocStore::open_with(&dir, cs::crash_config())
        .unwrap_or_else(|e| panic!("reopen after crash failed: {e} — {ctx}"));
    let engine = store.storage().expect("persistent store");
    engine.verify().unwrap_or_else(|e| panic!("invariant check failed: {e} — {ctx}"));

    for ((index, id), body) in &exp.must_exist {
        let got = store.get_index(index).and_then(|i| i.get(*id));
        assert_eq!(got.as_ref(), Some(body), "acked document {index}/{id} lost or mangled — {ctx}");
    }
    for (index, id) in &exp.must_not_exist {
        let got = store.get_index(index).and_then(|i| i.get(*id));
        assert_eq!(got, None, "acked tombstone {index}/{id} undone — {ctx}");
    }
    // Every survivor is an attempted document with an exact body.
    for index in store.index_names() {
        let resp = store.index(&index).search(&SearchRequest::match_all().size(1_000_000));
        for hit in resp.hits {
            let expect = exp.attempted.get(&(index.clone(), hit.id));
            assert_eq!(
                Some(&hit.source),
                expect,
                "survivor {index}/{} is not an attempted write — {ctx}",
                hit.id
            );
            assert!(
                !exp.must_not_exist.contains(&(index.clone(), hit.id)),
                "deleted document {index}/{} resurrected — {ctx}",
                hit.id
            );
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Outcome { crashed, in_dict }
}

#[test]
fn seeded_kill_points_lose_no_acknowledged_write() {
    let seeds = env_u64("DIO_CRASH_SEEDS", 8);
    let base = env_u64("DIO_CRASH_SEED_BASE", 0xD10);
    // Died at the armed point, by site (`crash_spec`: even seeds append),
    // and inside a dictionary record.
    let (mut died, mut in_dict) = ([0u64; 2], 0);
    for seed in base..base + seeds {
        let outcome = run_one(seed);
        if outcome.crashed {
            died[(seed % 2) as usize] += 1;
        }
        in_dict += u64::from(outcome.in_dict);
    }
    println!("died at the armed point: append {}, compact {} of {seeds} seeds", died[0], died[1]);
    println!("died inside a dictionary record: {in_dict} of {seeds} seeds");
    let crashed = died[0] + died[1];
    // The harness only earns its keep if the kills actually land. The
    // seed→kill-point map is deterministic, so this can't flake: if it
    // trips, the crash sites moved and the countdown ranges in
    // `crash_spec` need retuning.
    assert!(
        crashed * 2 >= seeds,
        "only {crashed}/{seeds} runs died at the armed point — kill points need retuning"
    );
}

/// The child with no crash point armed completes the schedule, and a
/// plain reopen preserves exactly the expected state (every step
/// acked). This pins the harness itself: if the protocol or schedule
/// replay were broken, this test would fail without any crash involved.
#[test]
fn uncrashed_run_roundtrips_exactly() {
    let seed = 0xFACE;
    let dir = crash_dir("clean");
    let _ = std::fs::remove_dir_all(&dir);
    let output = Command::new(env!("CARGO_BIN_EXE_crash_runner"))
        .arg(&dir)
        .arg(seed.to_string())
        .arg(STEPS.to_string())
        .env_remove("DIO_CRASH_POINT")
        .output()
        .expect("spawn crash_runner");
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    assert!(String::from_utf8_lossy(&output.stdout).contains("DONE"));

    let sched = cs::schedule(seed, STEPS);
    let exp = cs::expectation(&sched, |_| cs::StepStatus::Acked);
    let store = DocStore::open_with(&dir, cs::crash_config()).expect("reopen");
    store.storage().expect("persistent").verify().expect("invariants");
    let mut live = 0usize;
    for ((index, id), body) in &exp.must_exist {
        assert_eq!(store.get_index(index).and_then(|i| i.get(*id)).as_ref(), Some(body));
        live += 1;
    }
    let total: usize = store.index_names().iter().map(|n| store.index(n).len()).sum();
    assert_eq!(total, live, "no extra documents beyond the expected live set");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
