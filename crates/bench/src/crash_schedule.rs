//! Deterministic workload schedule shared by the crash-injection child
//! (`crash_runner`) and the parent recovery test.
//!
//! Both sides regenerate the *same* schedule from a seed, so the child
//! never has to report document bodies over its stdout protocol — only
//! which steps it started (`S <n>`) and which the store acknowledged
//! (`A <n>`). The parent replays the schedule against the step statuses
//! to compute three sets:
//!
//! * **must exist** — documents whose put was acknowledged and whose
//!   deletion was never *attempted*;
//! * **must not exist** — documents whose tombstone was acknowledged
//!   (ids are never reused, so no later put can resurrect them);
//! * **attempted** — the full universe of (index, id) → body any put
//!   ever tried to write. Every survivor in the reopened store must be
//!   in this set with a byte-identical body: a crash may lose unacked
//!   tail writes or preserve them, but it may never invent or mangle a
//!   document.
//!
//! Steps between the last acknowledgement and the kill are *limbo*:
//! their effects may or may not have reached the disk, so they are
//! excluded from both must-sets.
//!
//! About half the puts are *typed*: traced events through
//! `DocStore::bulk_spans`, which the store writes as runs, where the others
//! are JSON documents through `DocStore::bulk`. A typed document is compared
//! by its event's document, so kills land inside run frames, appends that
//! cut a run, and compaction re-encodes.

use std::collections::BTreeMap;

use dio_backend::StorageConfig;
use dio_syscall::{ArgValue, FileTag, FileType, Pid, SyscallEvent, SyscallKind, Tid};

/// Number of distinct indexes (sessions) the workload spreads over.
pub const INDEX_COUNT: usize = 3;

/// Name of the `i`-th workload index.
pub fn index_name(i: usize) -> String {
    format!("dio-crash{i}")
}

/// The storage profile under test: tiny segments force frequent seals,
/// and explicit `Compact` steps replace the background thread so every
/// run is deterministic.
pub fn crash_config() -> StorageConfig {
    StorageConfig {
        shards: 4,
        max_segment_bytes: 2048,
        compact_min_dead_ratio: 0.15,
        compact_min_sealed_bytes: 1024,
        sync_every_batch: false,
        auto_compact: false,
    }
}

/// SplitMix64: a tiny, seedable, allocation-free mixer. Both processes
/// derive every workload decision from `mix(seed, counter)` instead of
/// sharing an RNG stream, so there is no call-order coupling to break.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the `n`-th decision value from `seed`.
pub fn mix(seed: u64, n: u64) -> u64 {
    splitmix64(seed ^ splitmix64(n))
}

/// One step of the workload, with ids pre-assigned (the store's
/// sequential id allocation is deterministic, and the runner asserts
/// its prediction against the ids the store actually returns).
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Bulk-index `docs` into `index`.
    Put {
        /// Target index.
        index: String,
        /// Predicted (id, body) pairs.
        docs: Vec<(u64, serde_json::Value)>,
        /// The bodies are the documents of [`event`]s, put as events.
        typed: bool,
    },
    /// Delete one previously-put document.
    Delete {
        /// Target index.
        index: String,
        /// Victim document id.
        doc_id: u64,
    },
    /// Synchronous compaction of every shard.
    Compact,
    /// `fdatasync` every shard.
    Flush,
}

/// The deterministic body of document `k` of step `step`. The `pad`
/// field varies record sizes so torn-write splits land at interesting
/// offsets (inside headers, index names, values).
pub fn body(seed: u64, step: usize, k: usize, id: u64) -> serde_json::Value {
    let r = mix(seed, ((step as u64) << 20) | ((k as u64) << 8) | 1);
    let pad_len = (r % 120) as usize;
    let pad: String =
        (0..pad_len).map(|i| char::from(b'a' + ((r >> (i % 48)) as u8 & 15))).collect();
    serde_json::json!({ "seed": seed, "step": step, "k": k, "id": id, "pad": pad })
}

/// The deterministic event `k` of typed put step `step`: one of five kinds,
/// its strings as long as `body`'s pad varies, its numbers from small to
/// wide.
pub fn event(seed: u64, step: usize, k: usize, id: u64) -> SyscallEvent {
    let r = mix(seed, ((step as u64) << 20) | ((k as u64) << 8) | 2);
    let kinds = [
        SyscallKind::Openat,
        SyscallKind::Write,
        SyscallKind::Pread64,
        SyscallKind::Fsync,
        SyscallKind::Unlink,
    ];
    let mut e = SyscallEvent::synthetic(kinds[(r % 5) as usize]);
    let text = |len: u64| -> String {
        (0..len).map(|i| char::from(b'a' + ((r >> (i % 48)) as u8 & 15))).collect()
    };
    e.session = format!("crash{seed}").into();
    e.comm = text((r >> 8) % 24).into();
    e.pid = Pid(1_000 + (r >> 16) as u32 % 3);
    e.tid = Tid(2_000 + (r >> 18) as u32 % 5);
    e.cpu = (r >> 21) as u32 % 4;
    e.time_enter_ns = id * 1_000_000 + (r >> 24) % 997;
    e.time_exit_ns = e.time_enter_ns + (r >> 32) % 50_000;
    let path = format!("/db/{}", text((r >> 40) % 60));
    let fd = ArgValue::Int(3 + (r >> 48) as i64 % 8);
    let count = ArgValue::UInt((r >> 52) % 4_096);
    e.args = match e.kind {
        SyscallKind::Openat => {
            [ArgValue::Int(-100), path.into(), ArgValue::UInt(0o102), ArgValue::UInt(0o644)]
                .into_iter()
                .collect()
        }
        SyscallKind::Unlink => [ArgValue::from(path)].into_iter().collect(),
        SyscallKind::Write => [fd, count].into_iter().collect(),
        SyscallKind::Pread64 => [fd, count, ArgValue::UInt(r >> 12)].into_iter().collect(),
        _ => [fd].into_iter().collect(),
    };
    e.ret = if r.is_multiple_of(7) { -2 } else { (r >> 52) as i64 % 4_096 };
    e.file_path = dio_syscall::path_arg(e.kind).and_then(|i| e.args.str_at(i)).cloned();
    if e.kind.takes_fd() {
        e.file_type = Some(FileType::Regular);
        e.offset = Some(r >> 28);
        e.file_tag = Some(FileTag::new(7_340_032, (r >> 56) % 4, r >> 4));
    }
    e
}

/// Generates the full `steps`-long schedule for `seed`.
pub fn schedule(seed: u64, steps: usize) -> Vec<Step> {
    let mut next_id = [0u64; INDEX_COUNT];
    let mut live: Vec<Vec<u64>> = vec![Vec::new(); INDEX_COUNT];
    let mut out = Vec::with_capacity(steps);
    for n in 0..steps {
        let r = mix(seed, n as u64);
        let idx = (r % INDEX_COUNT as u64) as usize;
        let kind = (r >> 8) % 100;
        if kind < 5 {
            out.push(Step::Compact);
        } else if kind < 10 {
            out.push(Step::Flush);
        } else if kind < 28 && !live[idx].is_empty() {
            let v = (r >> 16) as usize % live[idx].len();
            let doc_id = live[idx].remove(v);
            out.push(Step::Delete { index: index_name(idx), doc_id });
        } else {
            let typed = (r >> 24).is_multiple_of(2);
            let count = 1 + ((r >> 16) % if typed { 24 } else { 4 }) as usize;
            let mut docs = Vec::with_capacity(count);
            for k in 0..count {
                let id = next_id[idx];
                next_id[idx] += 1;
                live[idx].push(id);
                let doc = match typed {
                    true => event(seed, n, k, id).to_document(),
                    false => body(seed, n, k, id),
                };
                docs.push((id, doc));
            }
            out.push(Step::Put { index: index_name(idx), docs, typed });
        }
    }
    out
}

/// How far a step got before the kill, as reported by the child's
/// stdout protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStatus {
    /// `A <n>` seen: the store acknowledged the step.
    Acked,
    /// `S <n>` seen without `A <n>`: the kill landed inside the step.
    Limbo,
    /// Never started (the runner is sequential, so everything after the
    /// first non-started step also never ran).
    NotReached,
}

/// What the reopened store must (and must not) contain. See module docs.
#[derive(Debug, Default)]
pub struct Expectation {
    /// Acked puts never invalidated by a delete attempt.
    pub must_exist: BTreeMap<(String, u64), serde_json::Value>,
    /// Acked tombstones.
    pub must_not_exist: Vec<(String, u64)>,
    /// Every document any put step attempted.
    pub attempted: BTreeMap<(String, u64), serde_json::Value>,
}

/// Replays `sched` against per-step statuses.
pub fn expectation(sched: &[Step], status: impl Fn(usize) -> StepStatus) -> Expectation {
    let mut exp = Expectation::default();
    for (n, step) in sched.iter().enumerate() {
        let st = status(n);
        if st == StepStatus::NotReached {
            break;
        }
        match step {
            Step::Put { index, docs, .. } => {
                for (id, body) in docs {
                    exp.attempted.insert((index.clone(), *id), body.clone());
                    if st == StepStatus::Acked {
                        exp.must_exist.insert((index.clone(), *id), body.clone());
                    }
                }
            }
            Step::Delete { index, doc_id } => {
                let key = (index.clone(), *doc_id);
                // Even a limbo delete voids the existence guarantee: the
                // tombstone may have hit the disk before the kill.
                exp.must_exist.remove(&key);
                if st == StepStatus::Acked {
                    exp.must_not_exist.push(key);
                }
            }
            Step::Compact | Step::Flush => {}
        }
    }
    exp
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A typed body is an event's document, which the store keeps typed.
    #[test]
    fn typed_bodies_are_events() {
        for step in schedule(5, 200) {
            if let Step::Put { docs, typed: true, .. } = step {
                for (_, doc) in docs {
                    assert!(SyscallEvent::from_document(&doc).is_some(), "{doc}");
                }
            }
        }
    }

    #[test]
    fn schedule_is_deterministic() {
        assert_eq!(schedule(42, 100), schedule(42, 100));
        assert_ne!(schedule(42, 100), schedule(43, 100));
    }

    #[test]
    fn schedule_mixes_op_kinds() {
        let sched = schedule(7, 400);
        let puts = sched.iter().filter(|s| matches!(s, Step::Put { .. })).count();
        let typed = sched.iter().filter(|s| matches!(s, Step::Put { typed: true, .. })).count();
        assert!(typed * 3 > puts && typed * 3 < 2 * puts, "{typed} of {puts} puts typed");
        let dels = sched.iter().filter(|s| matches!(s, Step::Delete { .. })).count();
        let compacts = sched.iter().filter(|s| matches!(s, Step::Compact)).count();
        let flushes = sched.iter().filter(|s| matches!(s, Step::Flush)).count();
        assert!(puts > 100, "{puts}");
        assert!(dels > 20, "{dels}");
        assert!(compacts > 3, "{compacts}");
        assert!(flushes > 3, "{flushes}");
    }

    #[test]
    fn deletes_target_previously_put_ids_exactly_once() {
        let sched = schedule(11, 500);
        let mut put: std::collections::HashSet<(String, u64)> = Default::default();
        let mut deleted: std::collections::HashSet<(String, u64)> = Default::default();
        for step in &sched {
            match step {
                Step::Put { index, docs, .. } => {
                    for (id, _) in docs {
                        assert!(put.insert((index.clone(), *id)), "ids never reused");
                    }
                }
                Step::Delete { index, doc_id } => {
                    let key = (index.clone(), *doc_id);
                    assert!(put.contains(&key), "victims were put earlier");
                    assert!(deleted.insert(key), "each id deleted at most once");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn expectation_handles_limbo_deletes() {
        let sched = vec![
            Step::Put { index: "i".into(), docs: vec![(0, body(1, 0, 0, 0))], typed: false },
            Step::Put { index: "i".into(), docs: vec![(1, body(1, 1, 0, 1))], typed: false },
            Step::Delete { index: "i".into(), doc_id: 0 },
        ];
        // Delete is limbo: doc 0 is in neither must-set, but stays in
        // the attempted universe.
        let exp = expectation(&sched, |n| match n {
            2 => StepStatus::Limbo,
            _ => StepStatus::Acked,
        });
        assert!(!exp.must_exist.contains_key(&("i".into(), 0)));
        assert!(exp.must_not_exist.is_empty());
        assert!(exp.must_exist.contains_key(&("i".into(), 1)));
        assert_eq!(exp.attempted.len(), 2);
        // Delete acked: doc 0 must be gone.
        let exp = expectation(&sched, |_| StepStatus::Acked);
        assert_eq!(exp.must_not_exist, vec![("i".into(), 0)]);
    }
}
