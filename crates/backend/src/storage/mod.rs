//! Persistent sharded storage under [`crate::DocStore`] (DESIGN.md §11).
//!
//! A bitcask-style engine: every mutation is one CRC-framed record
//! appended to a segment file — the event rows of one log as binary *runs*
//! of consecutive ids, with a *dictionary record* ahead of them when the
//! index's dictionaries grew; any other document as its JSON text. An
//! in-memory [`keydir`] maps each live (index, doc id) key to its newest
//! frame, one entry per run; reopening replays every segment once — the
//! store loads each live document anyway, a run decodes straight to its
//! rows, and the dictionary records of every shard are handed to the index
//! with them. A background compactor merges sealed segments through the
//! same replay, dropping superseded frames, re-encoding runs to their live
//! ids and writing the dictionary records ahead of them. The key space is
//! split over N independent **shards** — separate directories, locks, and
//! segment chains — by blocks of [`BLOCK`] consecutive ids, so concurrent
//! sessions append in parallel instead of serializing on one lock domain,
//! and a run never spans two shards.
//!
//! Durability contract: when an append returns, the batch has reached
//! the kernel page cache — it survives a process kill (the crash
//! harness's threat model). `fdatasync` runs at segment seal, on
//! [`StorageEngine::flush`] (wired to tracer session close), and per
//! batch when [`StorageConfig::sync_every_batch`] is set. A write is
//! acknowledged only once appended — but the tracer's events are queryable
//! before that: a persisted index takes them into its table at once and
//! appends them as runs when the shipper asks
//! ([`crate::DocStore::log_events`]), before any other write to the index,
//! at [`crate::DocStore::flush`] or when the index is dropped. Until then
//! they are not acknowledged, and a crash may lose them.

pub mod crash;
pub mod crc;
pub mod keydir;
pub mod record;
pub mod segment;
pub mod shard;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Condvar, Mutex};

use dio_syscall::SyscallEvent;
use dio_telemetry::{trace, Counter, Histogram, MetricsRegistry};

use crate::row::{Compact, DictRecord, RunWriter};
pub use shard::ShardReport;
use shard::{Op, Shard};

/// Consecutive ids routed to one shard: a run is cut where a block ends, so
/// the shard holding an id also receives its later tombstone or overwrite
/// (seqnos are shard-local). One chunk of an index's row table. Recorded in
/// the manifest; a store written before runs existed routes by single ids.
pub const BLOCK: u64 = 1_024;

/// Tuning knobs for [`StorageEngine::open`].
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Number of independent shards (fixed at store creation; recorded
    /// in the manifest and reused on reopen regardless of this value).
    pub shards: usize,
    /// Active-segment size that triggers a seal + rotation.
    pub max_segment_bytes: u64,
    /// Dead-byte fraction of sealed data that triggers compaction.
    pub compact_min_dead_ratio: f64,
    /// Minimum sealed bytes before compaction is considered.
    pub compact_min_sealed_bytes: u64,
    /// `fdatasync` every batch (machine-crash durability) instead of
    /// only at seal/flush (process-crash durability).
    pub sync_every_batch: bool,
    /// Run the background compaction thread.
    pub auto_compact: bool,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            shards: 8,
            max_segment_bytes: 8 * 1024 * 1024,
            compact_min_dead_ratio: 0.35,
            compact_min_sealed_bytes: 1024 * 1024,
            sync_every_batch: false,
            auto_compact: true,
        }
    }
}

impl StorageConfig {
    /// A profile with tiny segments and eager compaction, so unit tests
    /// and the crash harness exercise rotation/merge without gigabytes.
    pub fn tiny_for_tests() -> Self {
        StorageConfig {
            shards: 4,
            max_segment_bytes: 4 * 1024,
            compact_min_dead_ratio: 0.2,
            compact_min_sealed_bytes: 1024,
            auto_compact: false,
            ..StorageConfig::default()
        }
    }
}

/// A monotonically increasing statistic, mirrored into a bound
/// telemetry counter once [`StorageEngine::bind_telemetry`] runs.
#[derive(Debug, Default)]
pub struct StatCell {
    local: AtomicU64,
    bound: OnceLock<Arc<Counter>>,
}

impl StatCell {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.local.fetch_add(n, Ordering::Relaxed);
        if let Some(c) = self.bound.get() {
            c.add(n);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.local.load(Ordering::Relaxed)
    }

    fn bind(&self, counter: Arc<Counter>) {
        counter.add(self.get());
        let _ = self.bound.set(counter);
    }
}

/// Engine-lifetime counters (recovery and maintenance activity).
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Torn tails truncated during recovery (`backend.recovery.truncated`).
    pub recovery_truncated: StatCell,
    /// Active segments sealed (rotations).
    pub segments_sealed: StatCell,
    /// Compaction merges completed.
    pub compactions: StatCell,
    /// Bytes written by compaction merges.
    pub compacted_bytes: StatCell,
    /// Bytes appended by ingest.
    pub bytes_appended: StatCell,
    /// Records appended by ingest.
    pub records_appended: StatCell,
    /// `fdatasync` calls issued (per-batch syncs, seals, flushes).
    pub fsyncs: StatCell,
    /// Fsync latency (`backend.storage.fsync_ns`), bound alongside the
    /// counters by [`StorageEngine::bind_telemetry`].
    fsync_ns: OnceLock<Arc<Histogram>>,
}

impl EngineStats {
    /// Counts one fsync that took `ns` nanoseconds. Called inside the
    /// `storage.fsync` span, so the ambient trace id rides along as the
    /// bucket's exemplar.
    pub(crate) fn record_fsync(&self, ns: u64) {
        self.fsyncs.add(1);
        if let Some(h) = self.fsync_ns.get() {
            h.record_traced(ns);
        }
    }
}

/// Point-in-time engine statistics. Serializable so reports can travel
/// as `kind: "storage"` documents into the telemetry index (the
/// dashboard's feed) and be reconstructed on the viz side.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct StorageReport {
    /// Number of shards.
    pub shards: usize,
    /// Aggregated per-shard state.
    pub totals: ShardReport,
    /// State of each shard, in shard order.
    pub per_shard: Vec<ShardReport>,
    /// Torn tails truncated during recovery.
    pub recovery_truncated: u64,
    /// Segments sealed over the engine's lifetime.
    pub segments_sealed: u64,
    /// Compactions completed over the engine's lifetime.
    pub compactions: u64,
    /// Bytes written by compaction merges over the engine's lifetime.
    pub compacted_bytes: u64,
    /// Bytes appended by ingest over the engine's lifetime.
    pub bytes_appended: u64,
    /// `fdatasync` calls over the engine's lifetime.
    pub fsyncs: u64,
}

impl StorageReport {
    /// Dead fraction of all stored bytes — the compaction debt the
    /// background merger works against.
    pub fn dead_ratio(&self) -> f64 {
        let stored = self.totals.sealed_bytes + self.totals.active_bytes;
        if stored == 0 {
            0.0
        } else {
            self.totals.dead_bytes as f64 / stored as f64
        }
    }

    /// The report as a backend document (`kind: "storage"`). It carries
    /// no `metric` field, so health-report readers of the telemetry
    /// index skip it; the storage panel queries it by `kind`.
    pub fn to_document(&self) -> serde_json::Value {
        let mut doc = serde_json::to_value(self).expect("storage report serializes");
        doc["kind"] = serde_json::Value::from("storage");
        doc
    }

    /// Parses a document produced by [`StorageReport::to_document`].
    pub fn from_document(doc: &serde_json::Value) -> Option<StorageReport> {
        if doc["kind"].as_str() != Some("storage") {
            return None;
        }
        serde_json::from_value(doc).ok()
    }
}

struct CompactorHandle {
    thread: std::thread::JoinHandle<()>,
}

struct CompactorShared {
    stop: Mutex<bool>,
    wake: Condvar,
}

/// The persistent sharded engine (see module docs). One per on-disk
/// store; shared by every [`crate::DocStore`] clone.
pub struct StorageEngine {
    root: PathBuf,
    config: StorageConfig,
    shards: Vec<Arc<Shard>>,
    /// Routing block of the store ([`BLOCK`], or 1 for a `v1` store).
    block: u64,
    /// The manifest still names an earlier version, whose readers know
    /// neither these runs nor dictionary records: it is rewritten before the
    /// first one is.
    manifest_old: Mutex<bool>,
    stats: Arc<EngineStats>,
    compactor_shared: Arc<CompactorShared>,
    compactor: Mutex<Option<CompactorHandle>>,
}

impl std::fmt::Debug for StorageEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageEngine")
            .field("root", &self.root)
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// FNV-1a over (index name, block of ids): the shard router. Deterministic
/// across processes (unlike `std` hashing), so reopen routes every key
/// to the shard that wrote it.
fn route(index: &str, block: u64, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in index.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for b in block.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

const MANIFEST: &str = "MANIFEST";

/// What a manifest pins: shard count and routing block, and the version it
/// names.
struct Manifest {
    shards: usize,
    block: u64,
    version: u8,
}

fn write_manifest(root: &Path, shards: usize, block: u64) -> std::io::Result<()> {
    let tmp = root.join("MANIFEST.tmp");
    std::fs::write(&tmp, format!("dio-store v3\nshards {shards}\nblock {block}\n"))?;
    std::fs::rename(&tmp, root.join(MANIFEST))
}

fn read_or_write_manifest(root: &Path, config: &StorageConfig) -> std::io::Result<Manifest> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    match std::fs::read_to_string(root.join(MANIFEST)) {
        Ok(text) => {
            let mut lines = text.lines();
            let version = lines.next().unwrap_or("");
            let version = match version {
                "dio-store v1" => 1,
                "dio-store v2" => 2,
                "dio-store v3" => 3,
                _ => return Err(bad(&format!("unsupported store format: {version:?}"))),
            };
            let mut number = |key: &str| {
                lines
                    .next()
                    .and_then(|l| l.strip_prefix(key)?.strip_prefix(' ')?.parse::<u64>().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| bad(&format!("bad manifest {key} line")))
            };
            let shards = number("shards")? as usize;
            let block = if version == 1 { 1 } else { number("block")? };
            Ok(Manifest { shards, block, version })
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            let shards = config.shards.max(1);
            write_manifest(root, shards, BLOCK)?;
            Ok(Manifest { shards, block: BLOCK, version: 3 })
        }
        Err(e) => Err(e),
    }
}

/// What a live id recovered at open holds.
#[derive(Debug, PartialEq)]
pub enum Stored {
    /// A document's JSON text.
    Json(Vec<u8>),
    /// An event row of a run, naming the ids of its index's dictionary
    /// records.
    Row(Compact),
    /// An event of a run of the first format, self-contained.
    Event(Box<SyscallEvent>),
}

/// What one index recovered at open.
#[derive(Debug, Default)]
pub struct Loaded {
    /// Its dictionary records, in no particular order.
    pub dicts: Vec<DictRecord>,
    /// Its live documents, sorted by doc id (the original ingest order).
    pub docs: Vec<(u64, Stored)>,
}

/// Everything live recovered at open, by index.
pub type LoadedStore = BTreeMap<Arc<str>, Loaded>;

/// One id's value for [`StorageEngine::append_rows`].
pub(crate) enum Put<'a> {
    /// A document, as JSON text.
    Json(Vec<u8>),
    /// An event row, written into a run with its neighbours.
    Row(&'a Compact),
}

impl StorageEngine {
    /// Opens (creating if needed) the store under `root`, replaying all
    /// shards and returning the engine plus every live document.
    pub fn open(root: &Path, config: StorageConfig) -> std::io::Result<(Arc<Self>, LoadedStore)> {
        std::fs::create_dir_all(root)?;
        let manifest = read_or_write_manifest(root, &config)?;
        let shard_count = manifest.shards;
        let stats = Arc::new(EngineStats::default());

        // Recovery is traced: one storage.open root span for the store,
        // one recovery.shard child per shard (carrying its torn-tail
        // count), so a slow reopen is attributable.
        let mut open_span = trace::begin_manual("storage", "storage.open", None);
        open_span.attr("store", trace::fnv64(&root.to_string_lossy()));
        open_span.attr("shards", shard_count);
        let open_ctx = open_span.ctx();

        // Every shard replays before any is repaired: a store that refuses
        // to open (a run it cannot decode) is left as it was found.
        let recovered = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shard_count)
                .map(|k| {
                    let dir = root.join(format!("shard-{k:03}"));
                    scope.spawn(move || Shard::recover(dir, k, open_ctx))
                })
                .collect();
            let joined = handles.into_iter().map(|h| h.join().expect("shard open thread panicked"));
            joined.collect::<std::io::Result<Vec<_>>>()
        })?;

        let mut loaded: LoadedStore = BTreeMap::new();
        let mut shard_arcs = Vec::with_capacity(shard_count);
        for recovered in recovered {
            shard_arcs.push(Arc::new(recovered.open(&stats, &mut loaded)?));
        }
        for index in loaded.values_mut() {
            index.docs.sort_by_key(|(id, _)| *id);
        }
        open_span.attr("torn_truncated", stats.recovery_truncated.get());
        open_span.attr("live_docs", loaded.values().map(|index| index.docs.len()).sum::<usize>());
        open_span.finish();

        let engine = Arc::new(StorageEngine {
            root: root.to_path_buf(),
            config,
            shards: shard_arcs,
            block: manifest.block,
            manifest_old: Mutex::new(manifest.version < 3),
            stats,
            compactor_shared: Arc::new(CompactorShared {
                stop: Mutex::new(false),
                wake: Condvar::new(),
            }),
            compactor: Mutex::new(None),
        });
        if engine.config.auto_compact {
            engine.spawn_compactor();
        }
        Ok((engine, loaded))
    }

    fn spawn_compactor(self: &Arc<Self>) {
        let shards: Vec<Arc<Shard>> = self.shards.clone();
        let config = self.config.clone();
        let stats = Arc::clone(&self.stats);
        let shared = Arc::clone(&self.compactor_shared);
        let thread = std::thread::Builder::new()
            .name("dio-compactor".into())
            .spawn(move || loop {
                {
                    let mut stop = shared.stop.lock();
                    if *stop {
                        return;
                    }
                    // Woken early by appends that notice garbage piling
                    // up; otherwise polls.
                    shared.wake.wait_for(&mut stop, std::time::Duration::from_millis(100));
                    if *stop {
                        return;
                    }
                }
                for shard in &shards {
                    if shard.needs_compaction(&config) {
                        if let Err(e) = shard.compact(&stats) {
                            // Maintenance failure must not take ingest
                            // down; surface it and retry next round. A
                            // shard that refused an unreadable input is
                            // not retried: it stops asking until reopen.
                            eprintln!("dio-backend: compaction failed: {e}");
                        }
                    }
                }
            })
            .expect("spawn compactor thread");
        *self.compactor.lock() = Some(CompactorHandle { thread });
    }

    fn nudge_compactor(&self) {
        self.compactor_shared.wake.notify_all();
    }

    /// Root directory of the store.
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// Number of shards (from the manifest).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &StorageConfig {
        &self.config
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Appends a batch of document writes for one index, each its JSON
    /// text. Returns once every routed shard has the bytes on disk — the
    /// caller may then acknowledge the documents.
    pub fn append_puts(&self, index: &str, docs: Vec<(u64, Vec<u8>)>) -> std::io::Result<()> {
        self.append_rows(index, None, docs.into_iter().map(|(id, value)| (id, Put::Json(value))))
    }

    /// Appends a batch of writes for one index, in id order: the event rows
    /// of consecutive ids as one run per block, any other document as its
    /// JSON text. `dict`, the payload of a dictionary record defining ids
    /// the rows name, goes ahead of them all: into the shard the first write
    /// goes to, which writes before any other.
    pub(crate) fn append_rows<'a>(
        &self,
        index: &str,
        dict: Option<Vec<u8>>,
        rows: impl IntoIterator<Item = (u64, Put<'a>)>,
    ) -> std::io::Result<()> {
        let index: Arc<str> = Arc::from(index);
        // Each op with the id it is routed by.
        let mut ops: Vec<(u64, Op)> = Vec::new();
        let mut run: Option<(u64, RunWriter)> = None;
        let end_run = |run: &mut Option<(u64, RunWriter)>, ops: &mut Vec<(u64, Op)>| {
            if let Some((first, writer)) = run.take() {
                let ids = writer.len() as u32;
                let mut payload = Vec::new();
                writer.finish(&mut payload);
                ops.push((first, Op::Run { index: Arc::clone(&index), first, ids, payload }));
            }
        };
        for (doc_id, put) in rows {
            // A run ends at a gap in the ids, where a block ends, and at a
            // document that is not an event.
            let next = run.as_ref().map(|(first, writer)| first + writer.len() as u64);
            if next.is_some_and(|next| next != doc_id || doc_id % self.block == 0) {
                end_run(&mut run, &mut ops);
            }
            match put {
                Put::Row(row) => {
                    run.get_or_insert_with(|| (doc_id, RunWriter::default())).1.push(row)
                }
                Put::Json(value) => {
                    end_run(&mut run, &mut ops);
                    ops.push((doc_id, Op::Put { index: Arc::clone(&index), doc_id, value }));
                }
            }
        }
        end_run(&mut run, &mut ops);
        let n = self.shards.len();
        let runs = dict.is_some() || ops.iter().any(|(_, op)| matches!(op, Op::Run { .. }));
        let first = ops.first().map_or(0, |&(id, _)| route(&index, id / self.block, n));
        let mut per_shard: Vec<Vec<Op>> = Vec::new();
        per_shard.resize_with(n, Vec::new);
        if let Some(payload) = dict {
            per_shard[first].push(Op::Dict { index: Arc::clone(&index), payload });
        }
        for (id, op) in ops {
            per_shard[route(&index, id / self.block, n)].push(op);
        }
        if runs {
            let mut old = self.manifest_old.lock();
            if *old {
                write_manifest(&self.root, n, self.block)?;
                *old = false;
            }
        }
        let mut compact_wanted = false;
        for k in std::iter::once(first).chain((0..n).filter(|&k| k != first)) {
            let ops = std::mem::take(&mut per_shard[k]);
            if !ops.is_empty() {
                compact_wanted |= self.shards[k].append_batch(ops, &self.config, &self.stats)?;
            }
        }
        if compact_wanted {
            self.nudge_compactor();
        }
        Ok(())
    }

    /// Appends a tombstone for one document.
    pub fn append_delete(&self, index: &str, doc_id: u64) -> std::io::Result<()> {
        let k = route(index, doc_id / self.block, self.shards.len());
        let ops = vec![Op::Delete { index: Arc::from(index), doc_id }];
        if self.shards[k].append_batch(ops, &self.config, &self.stats)? {
            self.nudge_compactor();
        }
        Ok(())
    }

    /// Appends a drop-index barrier to every shard (keys of an index
    /// are spread across all of them).
    pub fn drop_index(&self, index: &str) -> std::io::Result<()> {
        let mut compact_wanted = false;
        let index: Arc<str> = Arc::from(index);
        for shard in &self.shards {
            let ops = vec![Op::DropIndex { index: Arc::clone(&index) }];
            compact_wanted |= shard.append_batch(ops, &self.config, &self.stats)?;
        }
        if compact_wanted {
            self.nudge_compactor();
        }
        Ok(())
    }

    /// `fdatasync`s every shard's active segment (session close, or an
    /// explicit durability point).
    pub fn flush(&self) -> std::io::Result<()> {
        for shard in &self.shards {
            shard.sync(&self.stats)?;
        }
        Ok(())
    }

    /// Synchronously compacts every shard (tests and maintenance CLIs;
    /// production relies on the background thread).
    pub fn compact_now(&self) -> std::io::Result<()> {
        for shard in &self.shards {
            shard.compact(&self.stats)?;
        }
        Ok(())
    }

    /// Point-in-time statistics across shards.
    pub fn report(&self) -> StorageReport {
        let per_shard: Vec<ShardReport> = self.shards.iter().map(|s| s.stats()).collect();
        self.report_from(per_shard)
    }

    fn report_from(&self, per_shard: Vec<ShardReport>) -> StorageReport {
        let mut totals = ShardReport::default();
        for shard in &per_shard {
            totals.merge(shard);
        }
        StorageReport {
            shards: self.shards.len(),
            totals,
            per_shard,
            recovery_truncated: self.stats.recovery_truncated.get(),
            segments_sealed: self.stats.segments_sealed.get(),
            compactions: self.stats.compactions.get(),
            compacted_bytes: self.stats.compacted_bytes.get(),
            bytes_appended: self.stats.bytes_appended.get(),
            fsyncs: self.stats.fsyncs.get(),
        }
    }

    /// Full invariant check (crash harness): every shard's keydir,
    /// segment chain, and active-writer bookkeeping must be internally
    /// consistent. Expensive — reads every record.
    pub fn verify(&self) -> Result<StorageReport, String> {
        let mut per_shard = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            per_shard.push(shard.verify()?);
        }
        Ok(self.report_from(per_shard))
    }

    /// Registers the engine's counters with `registry` under
    /// `backend.recovery.*` / `backend.storage.*`. Idempotent.
    pub fn bind_telemetry(&self, registry: &MetricsRegistry) {
        self.stats.recovery_truncated.bind(registry.counter("backend.recovery.truncated"));
        self.stats.segments_sealed.bind(registry.counter("backend.storage.segments_sealed"));
        self.stats.compactions.bind(registry.counter("backend.storage.compactions"));
        self.stats.compacted_bytes.bind(registry.counter("backend.storage.compacted_bytes"));
        self.stats.bytes_appended.bind(registry.counter("backend.storage.bytes_appended"));
        self.stats.records_appended.bind(registry.counter("backend.storage.records_appended"));
        self.stats.fsyncs.bind(registry.counter("backend.storage.fsyncs"));
        let fsync_ns = registry.histogram("backend.storage.fsync_ns");
        // Exemplars link slow fsync buckets to the flight-recorder span
        // that produced them (record_fsync runs inside `storage.fsync`).
        fsync_ns.enable_exemplars();
        let _ = self.stats.fsync_ns.set(fsync_ns);
    }
}

impl Drop for StorageEngine {
    fn drop(&mut self) {
        if let Some(handle) = self.compactor.lock().take() {
            *self.compactor_shared.stop.lock() = true;
            self.compactor_shared.wake.notify_all();
            let _ = handle.thread.join();
        }
        // Close = durability point: a cleanly dropped store survives
        // machine crashes too, not just process kills.
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dio-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn doc(i: u64) -> Vec<u8> {
        format!("{{\"n\":{i}}}").into_bytes()
    }

    #[test]
    fn open_write_reopen_roundtrip() {
        let root = tmp_root("roundtrip");
        let config = StorageConfig::tiny_for_tests();
        {
            let (engine, loaded) = StorageEngine::open(&root, config.clone()).unwrap();
            assert!(loaded.is_empty());
            engine.append_puts("dio-a", (0..50).map(|i| (i, doc(i))).collect()).unwrap();
            engine.append_puts("dio-b", vec![(0, doc(99))]).unwrap();
            engine.append_delete("dio-a", 7).unwrap();
        }
        let (engine, loaded) = StorageEngine::open(&root, config).unwrap();
        assert_eq!(loaded.len(), 2);
        let a = &loaded["dio-a"].docs;
        assert_eq!(a.len(), 49, "one doc tombstoned");
        assert!(a.iter().all(|(id, _)| *id != 7));
        // Sorted by id == original ingest order.
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(loaded["dio-b"].docs, vec![(0, Stored::Json(doc(99)))]);
        engine.verify().unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn routing_is_deterministic_and_spread() {
        let hits: std::collections::HashSet<usize> =
            (0..64).map(|i| route("dio-x", i, 8)).collect();
        assert!(hits.len() >= 4, "64 keys land on at least half the shards: {hits:?}");
        assert_eq!(route("dio-x", 3, 8), route("dio-x", 3, 8));
    }

    #[test]
    fn drop_index_erases_across_shards() {
        let root = tmp_root("dropidx");
        let config = StorageConfig::tiny_for_tests();
        {
            let (engine, _) = StorageEngine::open(&root, config.clone()).unwrap();
            engine.append_puts("gone", (0..40).map(|i| (i, doc(i))).collect()).unwrap();
            engine.append_puts("kept", (0..10).map(|i| (i, doc(i))).collect()).unwrap();
            engine.drop_index("gone").unwrap();
        }
        let (engine, loaded) = StorageEngine::open(&root, config).unwrap();
        assert!(!loaded.contains_key("gone"));
        assert_eq!(loaded["kept"].docs.len(), 10);
        engine.verify().unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn compaction_shrinks_and_preserves() {
        let root = tmp_root("compact");
        let config = StorageConfig::tiny_for_tests();
        let (engine, _) = StorageEngine::open(&root, config.clone()).unwrap();
        // Overwrite the same 20 keys many times: most frames are garbage.
        for round in 0..50u64 {
            engine
                .append_puts("dio-a", (0..20).map(|i| (i, doc(round * 100 + i))).collect())
                .unwrap();
        }
        let before = engine.report();
        engine.compact_now().unwrap();
        let after = engine.report();
        assert!(after.compactions > 0);
        assert!(
            after.totals.sealed_bytes + after.totals.active_bytes
                < before.totals.sealed_bytes + before.totals.active_bytes,
            "compaction reclaims space: {before:?} -> {after:?}"
        );
        engine.verify().unwrap();
        drop(engine);

        let (engine, loaded) = StorageEngine::open(&root, config).unwrap();
        let a = &loaded["dio-a"].docs;
        assert_eq!(a.len(), 20);
        for (id, value) in a {
            assert_eq!(value, &Stored::Json(doc(49 * 100 + id)), "latest round survives");
        }
        engine.verify().unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The background compactor asks `needs_compaction` every 100 ms: a
    /// shard whose input cannot be read says so once, not ten times a second.
    #[test]
    fn a_refused_shard_stops_asking_for_compaction() {
        let root = tmp_root("refused");
        let config = StorageConfig { shards: 1, ..StorageConfig::tiny_for_tests() };
        let (engine, _) = StorageEngine::open(&root, config.clone()).unwrap();
        for round in 0..50u64 {
            engine
                .append_puts("dio-a", (0..20).map(|i| (i, doc(round * 100 + i))).collect())
                .unwrap();
        }
        assert!(engine.shards[0].needs_compaction(&config), "overwrites left garbage");
        let sealed = root.join("shard-000").join(segment::log_name(1));
        let mut bytes = std::fs::read(&sealed).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0xFF;
        std::fs::write(&sealed, &bytes).unwrap();

        let err = engine.compact_now().expect_err("an unreadable input is refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(!engine.shards[0].needs_compaction(&config));
        assert!(engine.compact_now().is_err(), "asked explicitly, it refuses again");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A compaction input holding a run frame that does not decode is
    /// refused like any unreadable input: nothing written, nothing deleted.
    #[test]
    fn compaction_refuses_a_run_it_cannot_decode() {
        let root = tmp_root("undecodable");
        let config = StorageConfig { shards: 1, ..StorageConfig::tiny_for_tests() };
        let (engine, _) = StorageEngine::open(&root, config.clone()).unwrap();
        let run = Op::Run { index: Arc::from("dio-a"), first: 0, ids: 1, payload: vec![0xFF] };
        engine.shards[0].append_batch(vec![run], &config, &engine.stats).unwrap();
        for round in 0..50u64 {
            engine
                .append_puts("dio-a", (1..21).map(|i| (i, doc(round * 100 + i))).collect())
                .unwrap();
        }
        // The sealed logs, the inputs: the active one is left by the rotation.
        let logs = || segment::list_generations(&root.join("shard-000")).unwrap();
        let sealed = logs().len() - 1;
        let before = logs();
        let err = engine.compact_now().expect_err("an undecodable run is refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("unknown run format version 255"), "{err}");
        assert!(!engine.shards[0].needs_compaction(&config));
        assert_eq!(logs()[..sealed], before[..sealed], "no input deleted");
        drop(engine);
        let refused = StorageEngine::open(&root, config).expect_err("and so is the store");
        assert_eq!(refused.kind(), std::io::ErrorKind::InvalidData, "{refused}");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The live-key count a storage report carries is kept as records apply,
    /// not recounted, and agrees with a recount through every kind of
    /// change: runs and documents, overwrites, tombstones, a dropped index,
    /// a compaction, a reopen.
    #[test]
    fn live_keys_are_kept_as_records_apply() {
        use crate::{DocStore, Query};
        use dio_syscall::{SyscallEvent, SyscallKind};
        let root = tmp_root("livekeys");
        let config = StorageConfig::tiny_for_tests();
        let events = |n: u64| -> Vec<SyscallEvent> {
            let kinds = [SyscallKind::Write, SyscallKind::Read, SyscallKind::Fsync];
            let mut events: Vec<SyscallEvent> =
                (0..n).map(|i| SyscallEvent::synthetic(kinds[i as usize % 3])).collect();
            events.iter_mut().zip(0..).for_each(|(e, i)| e.time_enter_ns = i);
            events
        };
        let check = |store: &DocStore, live: usize| {
            let engine = store.storage().expect("persistent");
            let counted = engine.verify().expect("invariants").totals.live_keys;
            assert_eq!((engine.report().totals.live_keys, counted), (live, live));
        };
        let store = DocStore::open_with(&root, config.clone()).unwrap();
        store.bulk_spans("dio-e", events(3_000), &mut []);
        store.bulk("dio-e", vec![serde_json::json!({"kind": "health"})]);
        store.bulk_spans("dio-e", events(40), &mut []);
        store.bulk("dio-j", (0..30).map(|i| serde_json::json!({ "n": i })).collect());
        check(&store, 3_071);
        let rewritten =
            store.index("dio-e").update_by_query(&Query::term("syscall", "fsync"), |doc| {
                doc["file_path"] = serde_json::json!("/f");
            });
        assert_eq!(rewritten, 1_013);
        store.index("dio-e").update_by_query(&Query::term("time", 5), |doc| {
            doc["walked"] = serde_json::json!(true);
        });
        check(&store, 3_071);
        for id in [0, 1, 2, 1_023, 1_024, 2_999, 3_000, 3_001] {
            assert!(store.index("dio-e").delete(id));
        }
        assert!(store.index("dio-j").delete(7));
        check(&store, 3_062);
        store.delete_index("dio-j");
        check(&store, 3_033);
        store.compact_now().unwrap();
        check(&store, 3_033);
        drop(store);
        let store = DocStore::open_with(&root, config).unwrap();
        check(&store, 3_033);
        assert_eq!(store.index("dio-e").len(), 3_033);
        drop(store);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// An index dropped and taken up again under its name starts new
    /// dictionaries: a barrier drops the old ones' records with the old
    /// runs, at reopen and in a compaction, and the new runs name the new
    /// records' ids.
    #[test]
    fn a_dropped_index_takes_its_dictionary_records_with_it() {
        use crate::DocStore;
        use dio_syscall::{SyscallEvent, SyscallKind};
        let root = tmp_root("dropdicts");
        let config = StorageConfig::tiny_for_tests();
        let events = |comm: &str, n: u64| -> Vec<SyscallEvent> {
            let mut e = SyscallEvent::synthetic(SyscallKind::Write);
            e.comm = comm.into();
            (0..n).map(|i| SyscallEvent { time_enter_ns: i, ..e.clone() }).collect()
        };
        let docs = |store: &DocStore| -> Vec<serde_json::Value> {
            let index = store.index("dio-x");
            (0..index.len() as u64).filter_map(|id| index.get(id)).collect()
        };
        let store = DocStore::open_with(&root, config.clone()).unwrap();
        store.bulk_spans("dio-x", events("old-name", 3_000), &mut []);
        assert!(store.delete_index("dio-x"));
        store.bulk_spans("dio-x", events("new-name", 40), &mut []);
        let expect = docs(&store);
        assert_eq!(expect[0]["proc_name"], "new-name");
        drop(store);
        for compact in [false, true] {
            let store = DocStore::open_with(&root, config.clone()).unwrap();
            assert_eq!(docs(&store), expect, "compacted: {compact}");
            if compact {
                store.compact_now().unwrap();
            }
            store.storage().unwrap().verify().unwrap();
        }
        let store = DocStore::open_with(&root, config).unwrap();
        assert_eq!(docs(&store), expect, "after the compaction");
        drop(store);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_storage_document_of_an_earlier_version_still_parses() {
        let mut doc = StorageReport { fsyncs: 3, ..Default::default() }.to_document();
        doc["hints_rewritten"] = serde_json::Value::from(2u64);
        assert_eq!(StorageReport::from_document(&doc).map(|r| r.fsyncs), Some(3));
    }

    #[test]
    fn manifest_pins_shard_count() {
        let root = tmp_root("manifest");
        {
            let (engine, _) =
                StorageEngine::open(&root, StorageConfig { shards: 3, ..Default::default() })
                    .unwrap();
            assert_eq!(engine.shard_count(), 3);
        }
        let (engine, _) =
            StorageEngine::open(&root, StorageConfig { shards: 16, ..Default::default() }).unwrap();
        assert_eq!(engine.shard_count(), 3, "manifest wins over config on reopen");
        let _ = std::fs::remove_dir_all(&root);
    }
}
