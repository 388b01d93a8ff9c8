//! Property-based tests over the core invariants DESIGN.md §6 calls out.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

mod common;
use common::arbitrary_event;
#[path = "common/legacy_run.rs"]
mod legacy_run;

use dio::core::{DiskProfile, Kernel, OpenFlags, Query, SimClock, Whence};
use dio_backend::{Index, SearchRequest};
use dio_ebpf::RingBuffer;
use dio_kernel::Vfs;
use dio_syscall::{codec, path_arg, FileTag, SyscallEvent, SyscallKind, SyscallSet};
use dio_telemetry::{LogHistogram, MetricsRegistry, SpanCollector, Stage, StageStamps};

// ------------------------------------------------------------------ VFS

/// Model-based test: a simulated-VFS file behaves like an in-memory byte
/// vector under arbitrary write/read/truncate/seek sequences.
#[derive(Debug, Clone)]
enum FileOp {
    Write(Vec<u8>),
    PWrite(Vec<u8>, u16),
    Read(u8),
    Seek(u16),
    Truncate(u16),
}

fn file_op() -> impl Strategy<Value = FileOp> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(FileOp::Write),
        (proptest::collection::vec(any::<u8>(), 0..64), any::<u16>())
            .prop_map(|(d, o)| FileOp::PWrite(d, o % 512)),
        any::<u8>().prop_map(FileOp::Read),
        any::<u16>().prop_map(|o| FileOp::Seek(o % 600)),
        any::<u16>().prop_map(|o| FileOp::Truncate(o % 600)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn vfs_file_matches_vec_model(ops in proptest::collection::vec(file_op(), 1..40)) {
        let kernel = Kernel::builder().root_disk(DiskProfile::instant()).build();
        let t = kernel.spawn_process("model").spawn_thread("model");
        let fd = t.openat("/m", OpenFlags::CREAT | OpenFlags::RDWR, 0o644).unwrap();
        let mut model: Vec<u8> = Vec::new();
        let mut cursor: usize = 0;

        for op in ops {
            match op {
                FileOp::Write(data) => {
                    let n = t.write(fd, &data).unwrap();
                    prop_assert_eq!(n, data.len());
                    let end = cursor + data.len();
                    if model.len() < end {
                        model.resize(end, 0);
                    }
                    model[cursor..end].copy_from_slice(&data);
                    cursor = end;
                }
                FileOp::PWrite(data, off) => {
                    t.pwrite64(fd, &data, off as u64).unwrap();
                    let end = off as usize + data.len();
                    if model.len() < end {
                        model.resize(end, 0);
                    }
                    model[off as usize..end].copy_from_slice(&data);
                }
                FileOp::Read(len) => {
                    let mut buf = vec![0u8; len as usize];
                    let n = t.read(fd, &mut buf).unwrap();
                    // The cursor may sit past EOF (seek/truncate): reads
                    // there return 0 bytes, like POSIX.
                    let start = cursor.min(model.len());
                    let expect_n = (model.len() - start).min(len as usize);
                    prop_assert_eq!(n, expect_n);
                    prop_assert_eq!(&buf[..n], &model[start..start + n]);
                    cursor += n;
                }
                FileOp::Seek(off) => {
                    let pos = t.lseek(fd, off as i64, Whence::Set).unwrap();
                    prop_assert_eq!(pos, off as u64);
                    cursor = off as usize;
                }
                FileOp::Truncate(len) => {
                    t.ftruncate(fd, len as u64).unwrap();
                    model.resize(len as usize, 0);
                }
            }
            prop_assert_eq!(t.fstat(fd).unwrap().size, model.len() as u64);
        }
    }

    /// Inode numbers are reused lowest-first and never collide while live.
    #[test]
    fn inode_reuse_is_lowest_first(removals in proptest::collection::vec(0usize..8, 1..8)) {
        let vfs = Vfs::new(1, DiskProfile::instant(), SimClock::new());
        let mut live: Vec<(String, u64)> = (0..8)
            .map(|i| {
                let path = format!("/f{i}");
                let ino = vfs.create_file(&path, false).unwrap().ino();
                (path, ino)
            })
            .collect();
        for r in removals {
            if live.is_empty() {
                break;
            }
            let (path, _) = live.remove(r % live.len());
            vfs.unlink(&path).unwrap();
        }
        // Allocate a new file: it must take the smallest free number.
        let live_inos: std::collections::HashSet<u64> = live.iter().map(|(_, i)| *i).collect();
        let fresh = vfs.create_file("/fresh", false).unwrap().ino();
        prop_assert!(!live_inos.contains(&fresh), "no collision with live inodes");
        for candidate in 2..fresh {
            prop_assert!(
                live_inos.contains(&candidate),
                "smaller number {candidate} was free but not used (got {fresh})"
            );
        }
    }

    /// File tags distinguish generations: same path recreated n times
    /// yields n distinct tags even when inode numbers repeat.
    #[test]
    fn file_tags_unique_per_generation(n in 2usize..6) {
        let kernel = Kernel::builder().root_disk(DiskProfile::instant()).build();
        let t = kernel.spawn_process("gen").spawn_thread("gen");
        let mut tags: Vec<FileTag> = Vec::new();
        for _ in 0..n {
            let fd = t.openat("/g", OpenFlags::CREAT | OpenFlags::WRONLY, 0o644).unwrap();
            let inode = t.fstat(fd).unwrap();
            let vfs = kernel.root_vfs();
            let ino = vfs.lookup("/g", true).unwrap();
            tags.push(FileTag::new(inode.dev, inode.ino, ino.first_access_ns()));
            t.close(fd).unwrap();
            t.unlink("/g").unwrap();
        }
        let distinct: std::collections::HashSet<&FileTag> = tags.iter().collect();
        prop_assert_eq!(distinct.len(), n, "{:?}", tags);
    }
}

// ----------------------------------------------------------- ring buffer

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation: pushed + dropped == produced, consumed <= pushed, and
    /// the consumer sees a per-CPU-FIFO prefix of what fit.
    #[test]
    fn ring_buffer_conserves_events(
        slots in 1usize..32,
        cpus in 1u32..4,
        items in proptest::collection::vec((0u32..4, any::<u32>()), 0..200),
    ) {
        let ring: RingBuffer<u32> = RingBuffer::with_slots(cpus, slots);
        let mut accepted_per_cpu: Vec<Vec<u32>> = vec![Vec::new(); cpus as usize];
        for (cpu, value) in &items {
            if ring.try_push(*cpu, *value) {
                accepted_per_cpu[(*cpu as usize) % cpus as usize].push(*value);
            }
        }
        let stats = ring.stats();
        prop_assert_eq!(stats.pushed + stats.dropped, items.len() as u64);
        for cpu in 0..cpus {
            let drained = ring.drain(cpu, usize::MAX);
            prop_assert_eq!(&drained, &accepted_per_cpu[cpu as usize], "cpu {} FIFO", cpu);
        }
        prop_assert_eq!(ring.stats().consumed, stats.pushed);
        prop_assert!(ring.is_empty());
    }
}

// ----------------------------------------------------------- histograms

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Histogram percentiles are monotone, bounded by min/max, and within
    /// the documented ~3% relative resolution.
    #[test]
    fn histogram_percentiles_bounded(values in proptest::collection::vec(1u64..10_000_000, 1..500)) {
        let mut h = LogHistogram::<5>::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let mut prev = 0u64;
        for p in [1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let got = h.percentile(p);
            prop_assert!(got >= *sorted.first().unwrap() && got <= *sorted.last().unwrap());
            prop_assert!(got >= prev, "percentiles are monotone");
            prev = got;
            let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize - 1;
            let exact = sorted[rank.min(sorted.len() - 1)] as f64;
            prop_assert!(
                (got as f64 - exact).abs() <= exact * 0.07 + 1.0,
                "p{}: got {}, exact {}", p, got, exact
            );
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, values.len() as u64);
        prop_assert_eq!(snap.max, *sorted.last().unwrap());
        prop_assert_eq!(snap.min, *sorted.first().unwrap());
    }
}

// -------------------------------------------------------------- backend

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Index-accelerated search returns exactly the same documents as a
    /// full scan with `Query::matches`.
    #[test]
    fn index_search_equals_scan(
        docs in proptest::collection::vec((0i64..20, 0i64..5, any::<bool>()), 1..80),
        term in 0i64..20,
        lo in 0i64..5,
    ) {
        let index = Index::new("prop");
        let values: Vec<serde_json::Value> = docs
            .iter()
            .map(|(a, b, c)| serde_json::json!({"a": a, "b": b, "flag": c}))
            .collect();
        index.bulk(values.clone());
        let queries = vec![
            Query::term("a", term),
            Query::range("b").gte(lo as f64).build(),
            Query::bool_query()
                .must(Query::term("a", term))
                .must_not(Query::term("flag", true))
                .build(),
            Query::bool_query()
                .should(Query::term("a", term))
                .should(Query::range("b").gt(lo as f64).build())
                .build(),
        ];
        for q in queries {
            let via_index = index.search(&SearchRequest::new(q.clone()).size(usize::MAX)).total;
            let via_scan = values.iter().filter(|d| q.matches(d)).count() as u64;
            prop_assert_eq!(via_index, via_scan, "query {:?}", q);
        }
    }

    /// SyscallSet behaves like a HashSet over the 42 kinds.
    #[test]
    fn syscall_set_matches_hashset(indices in proptest::collection::vec(0usize..42, 0..80)) {
        let mut set = SyscallSet::new();
        let mut model = std::collections::HashSet::new();
        for (i, idx) in indices.iter().enumerate() {
            let kind = SyscallKind::ALL[*idx];
            if i % 3 == 2 {
                prop_assert_eq!(set.remove(kind), model.remove(&kind));
            } else {
                prop_assert_eq!(set.insert(kind), model.insert(kind));
            }
            prop_assert_eq!(set.len(), model.len());
        }
        for &kind in SyscallKind::ALL {
            prop_assert_eq!(set.contains(kind), model.contains(&kind));
        }
    }
}

// ------------------------------------------------------------- LSM store

/// Model-based test of the LSM engine: arbitrary put/delete/get/scan/flush
/// sequences behave like a BTreeMap, including across a crash-free reopen.
#[derive(Debug, Clone)]
enum KvOp {
    Put(u8, u8),
    Delete(u8),
    Get(u8),
    Scan(u8, u8),
    Flush,
}

fn kv_op() -> impl Strategy<Value = KvOp> {
    prop_oneof![
        4 => (any::<u8>(), any::<u8>()).prop_map(|(k, v)| KvOp::Put(k % 64, v)),
        2 => any::<u8>().prop_map(|k| KvOp::Delete(k % 64)),
        3 => any::<u8>().prop_map(|k| KvOp::Get(k % 64)),
        1 => (any::<u8>(), any::<u8>()).prop_map(|(f, n)| KvOp::Scan(f % 64, n % 16 + 1)),
        1 => Just(KvOp::Flush),
    ]
}

fn kv_key(k: u8) -> Vec<u8> {
    format!("key{k:03}").into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lsm_store_matches_btreemap_model(ops in proptest::collection::vec(kv_op(), 1..60)) {
        let kernel = Kernel::builder().root_disk(DiskProfile::instant()).build();
        let process = kernel.spawn_process("kv");
        let client = process.spawn_thread("client");
        let opts = dio_lsmkv::LsmOptions {
            memtable_bytes: 256, // rotate aggressively to exercise flush/compaction
            l0_compaction_trigger: 2,
            compaction_threads: 2,
            ..dio_lsmkv::LsmOptions::new("/db")
        };
        let db = dio_lsmkv::Db::open(&process, opts.clone()).unwrap();
        let mut model: std::collections::BTreeMap<Vec<u8>, Vec<u8>> = std::collections::BTreeMap::new();

        for op in &ops {
            match op {
                KvOp::Put(k, v) => {
                    db.put(&client, &kv_key(*k), &[*v; 8]).unwrap();
                    model.insert(kv_key(*k), vec![*v; 8]);
                }
                KvOp::Delete(k) => {
                    db.delete(&client, &kv_key(*k)).unwrap();
                    model.remove(&kv_key(*k));
                }
                KvOp::Get(k) => {
                    prop_assert_eq!(
                        db.get(&client, &kv_key(*k)).unwrap(),
                        model.get(&kv_key(*k)).cloned(),
                        "get {:?}", kv_key(*k)
                    );
                }
                KvOp::Scan(from, n) => {
                    let got = db.scan(&client, &kv_key(*from), *n as usize).unwrap();
                    let expect: Vec<(Vec<u8>, Vec<u8>)> = model
                        .range(kv_key(*from)..)
                        .take(*n as usize)
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    prop_assert_eq!(got, expect, "scan from {:?}", kv_key(*from));
                }
                KvOp::Flush => db.flush_now(&client).unwrap(),
            }
        }

        // Clean shutdown + reopen must preserve every key (durability).
        db.shutdown(&client).unwrap();
        drop(db);
        let db = dio_lsmkv::Db::open(&process, opts).unwrap();
        for (k, v) in &model {
            let got = db.get(&client, k).unwrap();
            prop_assert_eq!(got.as_ref(), Some(v), "after reopen: {:?}", k);
        }
        // And deleted keys stay deleted.
        for k in 0..64u8 {
            if !model.contains_key(&kv_key(k)) {
                prop_assert_eq!(db.get(&client, &kv_key(k)).unwrap(), None);
            }
        }
        db.shutdown(&client).unwrap();
    }
}

// ------------------------------------------- ring drop accounting

/// One step of an arbitrary producer/consumer interleaving.
#[derive(Debug, Clone)]
enum RingOp {
    Push(u32, u32),
    Drain(u32, usize),
    DrainAll(usize),
}

fn ring_op() -> impl Strategy<Value = RingOp> {
    prop_oneof![
        4 => (0u32..4, any::<u32>()).prop_map(|(c, v)| RingOp::Push(c, v)),
        1 => (0u32..4, 1usize..8).prop_map(|(c, n)| RingOp::Drain(c, n)),
        1 => (1usize..16).prop_map(RingOp::DrainAll),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Exact drop accounting under arbitrary push/drain interleavings:
    /// after every step `pushed + dropped == attempts` and
    /// `consumed <= pushed`; per-CPU counters always sum to the totals and
    /// no buffer's occupancy high-water mark exceeds its capacity.
    #[test]
    fn ring_buffer_exact_drop_accounting(
        slots in 1usize..16,
        cpus in 1u32..4,
        ops in proptest::collection::vec(ring_op(), 0..250),
    ) {
        let ring: RingBuffer<u32> = RingBuffer::with_slots(cpus, slots);
        let mut attempts = 0u64;
        for op in &ops {
            match *op {
                RingOp::Push(cpu, value) => {
                    let _ = ring.try_push(cpu, value);
                    attempts += 1;
                }
                RingOp::Drain(cpu, max) => {
                    ring.drain(cpu % cpus, max);
                }
                RingOp::DrainAll(max) => {
                    ring.drain_all(max);
                }
            }
            let s = ring.stats();
            prop_assert_eq!(s.pushed + s.dropped, attempts);
            prop_assert!(s.consumed <= s.pushed);
        }

        // Drain to empty: everything pushed is eventually consumed.
        ring.drain_all(usize::MAX);
        let s = ring.stats();
        prop_assert_eq!(s.pushed + s.dropped, attempts);
        prop_assert_eq!(s.consumed, s.pushed);
        prop_assert!(ring.is_empty());
        prop_assert_eq!(s.per_cpu.iter().map(|c| c.pushed).sum::<u64>(), s.pushed);
        prop_assert_eq!(s.per_cpu.iter().map(|c| c.dropped).sum::<u64>(), s.dropped);
        prop_assert_eq!(s.per_cpu.iter().map(|c| c.consumed).sum::<u64>(), s.consumed);
        prop_assert!(s.occupancy_hwm as usize <= slots);
        for c in &s.per_cpu {
            prop_assert!(c.occupancy_hwm as usize <= slots, "cpu {} HWM", c.cpu);
        }
    }
}

// ------------------------------------------------------------ event spans

/// Stamp values are bounded so a wrapped subtraction (a "negative"
/// latency) would be detected as a huge outlier by the assertions below.
const STAMP_BOUND: u64 = 1_000_000;

/// A stamp record with an arbitrary subset of stages stamped, in
/// arbitrary (possibly inverted) order.
fn arbitrary_stamps() -> impl Strategy<Value = StageStamps> {
    let maybe_stamp = prop_oneof![Just(None), (1u64..STAMP_BOUND).prop_map(Some),];
    proptest::collection::vec(maybe_stamp, Stage::COUNT).prop_map(|values| {
        let mut stamps = StageStamps::new();
        for (stage, v) in Stage::ALL.into_iter().zip(values) {
            if let Some(ns) = v {
                stamps.stamp(stage, ns);
            }
        }
        stamps
    })
}

/// A complete record whose stamps respect pipeline order.
fn ordered_stamps() -> impl Strategy<Value = StageStamps> {
    proptest::collection::vec(1u64..STAMP_BOUND, Stage::COUNT).prop_map(|mut values| {
        values.sort_unstable();
        let mut stamps = StageStamps::new();
        for (stage, ns) in Stage::ALL.into_iter().zip(values) {
            stamps.stamp(stage, ns);
        }
        stamps
    })
}

/// A partial record: a prefix of the pipeline stamped in order, at least
/// one stage missing — what a mid-flight discard leaves behind.
fn partial_stamps() -> impl Strategy<Value = StageStamps> {
    (0..Stage::COUNT, proptest::collection::vec(1u64..STAMP_BOUND, Stage::COUNT)).prop_map(
        |(len, mut values)| {
            values.sort_unstable();
            let mut stamps = StageStamps::new();
            for (stage, ns) in Stage::ALL.into_iter().zip(values).take(len) {
                stamps.stamp(stage, ns);
            }
            stamps
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Derived latencies never go negative (i.e. never wrap) under
    /// arbitrary stamp interleavings, and exist exactly when both
    /// endpoints are stamped.
    #[test]
    fn span_latencies_non_negative_under_arbitrary_interleavings(stamps in arbitrary_stamps()) {
        for (i, from) in Stage::ALL.into_iter().enumerate() {
            for to in Stage::ALL.into_iter().skip(i + 1) {
                match stamps.latency_between(from, to) {
                    Some(ns) => {
                        prop_assert!(stamps.get(from).is_some() && stamps.get(to).is_some());
                        // Bounded stamps -> bounded latency; a wrapped
                        // subtraction would land near u64::MAX.
                        prop_assert!(ns < STAMP_BOUND, "{} -> {}: {ns}", from.name(), to.name());
                    }
                    None => prop_assert!(
                        stamps.get(from).is_none() || stamps.get(to).is_none()
                    ),
                }
            }
        }

        // The collector ingests the same record without panicking, and
        // every histogram it derives stays within the stamp bound.
        let registry = MetricsRegistry::new();
        let spans = SpanCollector::new(&registry);
        if stamps.is_complete() {
            spans.record_shipped(&stamps);
        } else {
            spans.record_drop(&stamps);
        }
        let summary = spans.summary();
        for h in summary.stages.values().chain([&summary.e2e]) {
            prop_assert!(h.max < STAMP_BOUND, "wrapped latency leaked: {}", h.max);
        }
    }

    /// For in-order stamps the per-stage transitions decompose the
    /// end-to-end latency exactly: adjacent latencies sum to e2e.
    #[test]
    fn span_stage_latencies_decompose_e2e(stamps in ordered_stamps()) {
        let adjacent: u64 = Stage::ALL
            .windows(2)
            .map(|w| stamps.latency_between(w[0], w[1]).expect("complete record"))
            .sum();
        prop_assert_eq!(stamps.e2e_ns().expect("complete record"), adjacent);
    }

    /// Drop-attributed partial spans never count toward the end-to-end
    /// histogram, whatever the interleaving of completions and drops; the
    /// per-outcome counters and drop attribution reconcile exactly.
    #[test]
    fn dropped_partial_spans_never_count_toward_e2e(
        ops in proptest::collection::vec(
            prop_oneof![
                ordered_stamps().prop_map(|s| (true, s)),
                partial_stamps().prop_map(|s| (false, s)),
            ],
            0..60,
        ),
    ) {
        let registry = MetricsRegistry::new();
        let spans = SpanCollector::new(&registry);
        let mut shipped = 0u64;
        let mut droppedu = 0u64;
        for (complete, stamps) in &ops {
            if *complete {
                spans.record_shipped(stamps);
                shipped += 1;
            } else {
                spans.record_drop(stamps);
                droppedu += 1;
            }
        }

        let summary = spans.summary();
        prop_assert_eq!(summary.completed, shipped);
        prop_assert_eq!(summary.e2e.count, shipped, "only complete spans reach e2e");
        prop_assert_eq!(summary.dropped, droppedu);
        prop_assert_eq!(summary.drops_by_stage.values().sum::<u64>(), droppedu);
        // A prefix record is attributed to the first stage it never
        // reached, so ring-stage attribution can only come from records
        // that stopped before the ring.
        for (stage, n) in &summary.drops_by_stage {
            prop_assert!(*n > 0, "empty attribution bucket {stage} published");
        }
    }
}

// ----------------------------------------------------------- document map

/// Abstract mutation for the model-based test of the JSON object type.
#[derive(Debug, Clone)]
enum MapOp {
    Insert(u8, u64),
    IndexAssign(u8, u64),
    GetMutAssign(u8, u64),
    Remove(u8),
}

fn map_op() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        (any::<u8>(), any::<u64>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
        (any::<u8>(), any::<u64>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
        (any::<u8>(), any::<u64>()).prop_map(|(k, v)| MapOp::IndexAssign(k, v)),
        (any::<u8>(), any::<u64>()).prop_map(|(k, v)| MapOp::GetMutAssign(k, v)),
        any::<u8>().prop_map(MapOp::Remove),
    ]
}

/// 48 keys of five different lengths, in an order unrelated to `k`: maps
/// grow past the 24 entries up to which lookups scan instead of bisecting,
/// and most keys share their length with others.
fn map_key(k: u8) -> String {
    let k = usize::from(k) % 48;
    format!("{}{}", "kfpax".repeat(k % 5 + 1), (k * 29) % 48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `serde_json::Map` behaves like a `BTreeMap<String, Value>` under any
    /// insert/replace/remove history in any key order, through every
    /// accessor the workspace uses.
    #[test]
    fn json_map_matches_btreemap_model(ops in proptest::collection::vec(map_op(), 1..160)) {
        use serde_json::{Map, Value};
        use std::collections::BTreeMap;

        let mut map = Map::new();
        let mut model: BTreeMap<String, Value> = BTreeMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    prop_assert_eq!(map.insert(map_key(k), v.into()), model.insert(map_key(k), v.into()));
                }
                MapOp::IndexAssign(k, v) => {
                    let mut object = Value::Object(std::mem::take(&mut map));
                    object[map_key(k).as_str()] = v.into();
                    map = match object {
                        Value::Object(m) => m,
                        other => panic!("object became {other}"),
                    };
                    model.insert(map_key(k), v.into());
                }
                MapOp::GetMutAssign(k, v) => {
                    let (slot, expect) = (map.get_mut(&map_key(k)), model.get_mut(&map_key(k)));
                    prop_assert_eq!(slot.is_some(), expect.is_some());
                    if let (Some(slot), Some(expect)) = (slot, expect) {
                        *slot = v.into();
                        *expect = v.into();
                    }
                }
                MapOp::Remove(k) => {
                    prop_assert_eq!(map.remove(&map_key(k)), model.remove(&map_key(k)));
                }
            }

            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.is_empty(), model.is_empty());
            for k in 0..48 {
                let key = map_key(k);
                prop_assert_eq!(map.get(&key), model.get(&key));
                prop_assert_eq!(map.contains_key(&key), model.contains_key(&key));
            }
            // Sorted iteration, by every route.
            prop_assert!(map.iter().eq(model.iter()));
            prop_assert!((&map).into_iter().eq(model.iter()));
            prop_assert!(map.keys().eq(model.keys()));
            prop_assert!(map.values().eq(model.values()));
            prop_assert!(map.iter_mut().map(|(k, v)| (k, &*v)).eq(model.iter()));
            prop_assert!(map.clone().into_iter().eq(model.clone()));
            // Equality ignores how a map was built: collected from the
            // entries backwards, with a stale duplicate first.
            let stale = model.keys().next().map(|k| (k.clone(), Value::Null));
            let rebuilt: Map = stale.into_iter().chain(model.clone().into_iter().rev()).collect();
            prop_assert_eq!(&rebuilt, &map);
            let serialized = Value::Object(map.clone()).to_string();
            prop_assert_eq!(serde_json::from_str::<Value>(&serialized).unwrap(), Value::Object(rebuilt));
        }
    }
}

// -------------------------------------------------------- the stored event

/// What a document may not be and still be an event's: each entry makes one
/// such change to a genuine document.
fn hostile_mutations(event: &SyscallEvent) -> Vec<(&'static str, serde_json::Value)> {
    use serde_json::json;
    let doc = event.to_document();
    let with = |key: &str, value: serde_json::Value| {
        let mut doc = doc.clone();
        doc[key] = value;
        doc
    };
    let mut without_cpu = doc.clone();
    without_cpu.as_object_mut().expect("an object").remove("cpu");
    let mut foreign_arg = doc.clone();
    foreign_arg["args"]["bogus"] = json!(1);
    let other_class = SyscallKind::ALL
        .iter()
        .map(|k| k.class())
        .find(|c| *c != event.class)
        .expect("four classes");
    vec![
        ("a foreign key", with("walked", json!(true))),
        ("a missing key", without_cpu),
        ("another syscall's class", with("class", json!(other_class.name()))),
        ("a latency that is not exit - enter", with("latency_ns", json!(event.latency_ns() ^ 1))),
        ("an argument the catalog does not name", foreign_arg),
        ("a file tag spelled another way", with("file_tag", json!("007|1|2"))),
        ("a pid beyond u32", with("pid", json!(u64::from(u32::MAX) + 1))),
        ("a float", with("time", json!(1.0))),
        ("a number as a string", with("ret_val", json!("0"))),
        ("an unknown syscall", with("syscall", json!("fork"))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `from_document` inverts `to_document`, and the text the document
    /// prints parses back to it. So does a binary run of the first format,
    /// which `dio-store v2` stores hold: the event alone, and among 6 and 255
    /// others, decodes to an equal event whose document prints the same text.
    #[test]
    fn event_survives_its_document_and_prints_its_text(seed in any::<u64>()) {
        let event = arbitrary_event(seed);
        let doc = event.to_document();
        let back = SyscallEvent::from_document(&doc);
        prop_assert_eq!(back.as_ref(), Some(&event));
        let back = back.expect("compared above");
        prop_assert_eq!(back.to_document(), doc.clone());
        if let (Some(path), Some(arg)) =
            (&back.file_path, path_arg(back.kind).and_then(|i| back.args.str_at(i)))
        {
            prop_assert_eq!(**path == **arg, std::sync::Arc::ptr_eq(path, arg), "path shared iff equal");
        }
        prop_assert_eq!(serde_json::from_str::<serde_json::Value>(&doc.to_string()).expect("parses"), doc.clone());
        let mut leaves = Vec::new();
        event.for_each_leaf(&mut |path, _| leaves.push(path.to_string()));
        let mut of_doc = Vec::new();
        dio_backend::for_each_leaf(&doc, &mut |path, _| of_doc.push(path.to_string()));
        leaves.sort();
        of_doc.sort();
        prop_assert_eq!(leaves, of_doc);

        for len in [1u64, 7, 256] {
            let run: Vec<SyscallEvent> =
                (0..len).map(|i| arbitrary_event(seed.wrapping_add(i))).collect();
            let mut payload = Vec::new();
            legacy_run::encode(&run, &mut payload);
            let mut back = Vec::new();
            codec::decode(&payload, &mut back).expect("a run decodes");
            prop_assert_eq!(&back, &run);
            for (got, was) in back.iter().zip(&run) {
                prop_assert_eq!(got.to_document().to_string(), was.to_document().to_string());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Bytes that are not a run do not decode into one, whatever they are —
    /// random, a run with a byte changed, a run cut short — and a count they
    /// claim sizes nothing: decoding never panics and, failing, appends
    /// nothing.
    #[test]
    fn a_run_decodes_from_its_own_bytes_only(
        seed in any::<u64>(),
        noise in proptest::collection::vec(any::<u8>(), 0..64),
        at in any::<usize>(),
    ) {
        let run: Vec<SyscallEvent> = (0..1 + seed % 9).map(|i| arbitrary_event(seed ^ i)).collect();
        let mut payload = Vec::new();
        legacy_run::encode(&run, &mut payload);
        let mut changed = payload.clone();
        let i = at % changed.len();
        changed[i] = changed[i].wrapping_add(noise.first().copied().unwrap_or(1).max(1));
        let mut longer = payload.clone();
        longer.extend_from_slice(&noise);
        for (bytes, must_fail) in [
            (&noise[..], noise.first().is_some_and(|&v| v != codec::VERSION)),
            (&changed[..], false),
            (&payload[..at % payload.len()], true),
            (&longer[..], !noise.is_empty()),
        ] {
            let mut out = Vec::new();
            match codec::decode(bytes, &mut out) {
                Ok(()) => prop_assert!(!must_fail, "{:?} decoded", bytes),
                Err(_) => prop_assert!(out.is_empty(), "a failed decode appended events"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A document that is almost an event's is not one: it is refused by
    /// `from_document`, stored as the value it is, found by the queries that
    /// would find it, and handed back unchanged.
    #[test]
    fn hostile_documents_are_stored_as_they_are(seed in any::<u64>()) {
        let event = arbitrary_event(seed);
        let index = Index::new("hostile");
        let genuine = index.index_doc(event.to_document());
        for (what, doc) in hostile_mutations(&event) {
            prop_assert_eq!(SyscallEvent::from_document(&doc), None, "{} in {}", what, doc);
            let id = index.index_doc(doc.clone());
            prop_assert_eq!(index.get(id), Some(doc.clone()), "{}", what);
            let found = index.search(
                &SearchRequest::new(Query::term("session", &*event.session)).size(usize::MAX),
            );
            let hit = found.hits.iter().find(|h| h.id == id);
            prop_assert_eq!(hit.map(|h| &h.source), Some(&doc), "{}", what);
            prop_assert_eq!(hit.map(|h| h.source.to_string()), Some(doc.to_string()), "{}", what);
        }
        prop_assert_eq!(index.get(genuine), Some(event.to_document()));
    }
}

/// Every string an event holds: session, thread name, string arguments and
/// `file_path`.
fn strings_of(event: &SyscallEvent) -> Vec<&Arc<str>> {
    let args = (0..event.args.len()).filter_map(|i| event.args.str_at(i));
    [&event.session, &event.comm].into_iter().chain(args).chain(&event.file_path).collect()
}

/// `events` as a reader of one index gets them: whether each is exactly
/// `expected` (by their debug form, which tells a signed argument from an
/// unsigned one and prints `class`), and whether equal strings are one
/// allocation.
fn read_back_exactly(
    index: &Index,
    ids: &[u64],
    expected: &[SyscallEvent],
) -> Result<(), TestCaseError> {
    let mut by_time: Vec<&SyscallEvent> = expected.iter().collect();
    by_time.sort_by_key(|e| e.time_enter_ns);
    let shared = index.with_events_by_time(|events| {
        prop_assert_eq!(format!("{events:?}"), format!("{by_time:?}"));
        let mut held: HashMap<&str, &Arc<str>> = HashMap::new();
        for s in events.iter().flat_map(|e| strings_of(e)) {
            let first = held.entry(&**s).or_insert(s);
            prop_assert!(Arc::ptr_eq(first, s), "{:?} is two allocations", s);
        }
        Ok(())
    });
    shared?;
    for (id, event) in ids.iter().zip(expected) {
        let doc = index.get(*id).expect("a stored event");
        prop_assert_eq!(doc.to_string(), event.to_document().to_string());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// An index keeps an event as a compact row over its dictionaries and
    /// builds the event back on every read. What `bulk_spans` stored comes
    /// back exactly through `with_events_by_time` and `get` — every kind, the
    /// signedness of every argument, a `class` that is not the syscall's,
    /// every optional field — and so it does across a close and reopen: the
    /// log holds the rows and the dictionaries they name. Strings repeat
    /// across events in allocations of their own; within the index each is
    /// one allocation.
    #[test]
    fn the_compact_row_is_the_event(seed in any::<u64>()) {
        use dio_syscall::SyscallClass;
        let mut events: Vec<SyscallEvent> =
            (0..1 + seed % 48).map(|i| arbitrary_event(seed.wrapping_add(i))).collect();
        let names: Vec<String> = events.iter().take(3).map(|e| e.comm.to_string()).collect();
        for (i, e) in events.iter_mut().enumerate() {
            let name = &names[i % names.len()];
            if i % 2 == 1 {
                (e.session, e.comm) = (Arc::from(name.as_str()), Arc::from(name.as_str()));
            }
            if i % 3 == 1 && e.file_path.is_some() {
                e.file_path = Some(Arc::from(name.as_str()));
            }
            if i % 4 == 2 {
                let others = [SyscallClass::Data, SyscallClass::Metadata];
                e.class = others.into_iter().find(|&c| c != e.kind.class()).expect("two classes");
            }
        }
        let dir = std::env::temp_dir()
            .join(format!("dio-compact-row-{}-{seed:x}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || dio_backend::DocStore::open_with(&dir, dio_backend::StorageConfig::default());
        let outcome = (|| {
            let ids = {
                let store = open().expect("open store");
                let ids = store.bulk_spans("dio-rows", events.clone(), &mut []);
                read_back_exactly(&store.index("dio-rows"), &ids, &events)?;
                store.flush().expect("flush");
                ids
            };
            let store = open().expect("reopen store");
            read_back_exactly(&store.index("dio-rows"), &ids, &events)
        })();
        let _ = std::fs::remove_dir_all(&dir);
        outcome?;
    }
}
