//! One storage shard: an independent bitcask instance.
//!
//! A shard owns a directory of segment files, an active
//! [`SegmentWriter`], a [`KeyDir`], and its own mutex — the unit of
//! write concurrency. The router in [`super`] spreads (index, doc id)
//! keys over shards, so eight writer threads land on eight different
//! locks and files instead of contending on one.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use dio_syscall::{codec, SyscallEvent};
use dio_telemetry::span::monotonic_ns;
use dio_telemetry::trace;

use crate::row::{decode_run, Compact, DictRecord, RunWriter, RUN_VERSION};

use super::crash::{self, CrashSite};
use super::keydir::{Displaced, KeyDir, Slot};
use super::record::{DecodeError, Record, FLAG_DICT, FLAG_DROP_INDEX, FLAG_EVENTS, FLAG_TOMBSTONE};
use super::segment::{self, ScannedRecord, SegmentWriter};
use super::{EngineStats, LoadedStore, StorageConfig, Stored};

/// One logical mutation routed to a shard. The ops of one batch share
/// their index name's allocation, and hand it on to the record written
/// for them.
#[derive(Debug)]
pub enum Op {
    /// Write `doc_id` of `index` with a serialized JSON body.
    Put {
        /// Target index.
        index: Arc<str>,
        /// Document id within the index.
        doc_id: u64,
        /// Serialized JSON body.
        value: Vec<u8>,
    },
    /// Write the events of ids `first..first + ids` of `index` as one run.
    Run {
        /// Target index.
        index: Arc<str>,
        /// The run's first id.
        first: u64,
        /// Events in the run.
        ids: u32,
        /// The run's payload (`crate::row`).
        payload: Vec<u8>,
    },
    /// Define dictionary entries the runs of `index` name.
    Dict {
        /// Target index.
        index: Arc<str>,
        /// The record's payload (`crate::row`).
        payload: Vec<u8>,
    },
    /// Delete `doc_id` of `index`.
    Delete {
        /// Target index.
        index: Arc<str>,
        /// Document id within the index.
        doc_id: u64,
    },
    /// Drop every document of `index`.
    DropIndex {
        /// Target index.
        index: Arc<str>,
    },
}

/// Bookkeeping for one sealed (immutable) segment.
#[derive(Debug, Clone, Copy, Default)]
struct SealedInfo {
    len: u64,
}

struct ShardInner {
    writer: SegmentWriter,
    keydir: KeyDir,
    next_seqno: u64,
    next_gen: u64,
    /// Sealed generations and their lengths.
    sealed: BTreeMap<u64, SealedInfo>,
    /// Dead (superseded) bytes per generation, active included.
    dead_by_gen: HashMap<u64, u64>,
    /// A compaction found a sealed segment it could not read whole. The
    /// shard stops asking for one: only reopen, which truncates and counts
    /// the loss, makes its segments mergeable again.
    compaction_refused: bool,
}

impl ShardInner {
    fn sealed_bytes(&self) -> u64 {
        self.sealed.values().map(|s| s.len).sum()
    }

    fn sealed_dead_bytes(&self) -> u64 {
        self.sealed.keys().map(|gen| self.dead_by_gen.get(gen).copied().unwrap_or(0)).sum()
    }
}

/// One independent bitcask instance (see module docs).
pub struct Shard {
    id: usize,
    dir: PathBuf,
    inner: Mutex<ShardInner>,
    /// Serializes compactions (they overlap with appends, never with
    /// each other).
    compact_gate: Mutex<()>,
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard").field("id", &self.id).field("dir", &self.dir).finish()
    }
}

/// Applies the record framed at `slot` to `keydir`, newest-seqno-wins, and
/// charges what became garbage to `dead_by_gen`: the frames it displaced
/// and, for a tombstone or a barrier, its own — pure metadata, dead weight
/// in its segment from birth.
fn apply(
    keydir: &mut KeyDir,
    dead_by_gen: &mut HashMap<u64, u64>,
    flags: u8,
    index: &str,
    doc_id: u64,
    slot: Slot,
) {
    let mut dead = |d: Displaced| *dead_by_gen.entry(d.gen).or_insert(0) += d.bytes;
    let own = Displaced { gen: slot.gen, bytes: slot.frame_len as u64 };
    if flags & FLAG_DROP_INDEX != 0 {
        dead(own);
        keydir.apply_drop_index(index, slot.seqno, &mut dead);
    } else if flags & FLAG_TOMBSTONE != 0 {
        dead(own);
        keydir.apply_tombstone(index, doc_id, slot.seqno, &mut dead);
    } else if flags & FLAG_EVENTS != 0 {
        keydir.apply_run(index, doc_id, slot, &mut dead);
    } else if flags & FLAG_DICT == 0 {
        keydir.apply_put(index, doc_id, slot, &mut dead);
    }
}

/// How far one generation scanned during a [`replay`].
struct Scanned {
    gen: u64,
    /// Length of the log's valid prefix.
    valid_len: u64,
    /// Why the scan stopped before the end of the file, if it did.
    torn: Option<DecodeError>,
}

/// A record's value: a document's text, a run's rows — `None` where a newer
/// record shadows the id — or a dictionary record, with its payload.
enum Body {
    Doc(Vec<u8>),
    Rows(Vec<Option<Compact>>),
    /// A run of the first format: its payload and its events.
    Events(Vec<u8>, Vec<Option<SyscallEvent>>),
    Dict(Vec<u8>, DictRecord),
}

impl Body {
    /// The body of a run's or a dictionary record's payload.
    fn decode(flags: u8, value: Vec<u8>) -> Result<Body, codec::DecodeError> {
        if flags & FLAG_DICT != 0 {
            let record = DictRecord::decode(&value)?;
            return Ok(Body::Dict(value, record));
        }
        if value.first() == Some(&RUN_VERSION) {
            return Ok(Body::Rows(decode_run(&value)?.into_iter().map(Some).collect()));
        }
        let mut events = Vec::new();
        codec::decode(&value, &mut events)?;
        Ok(Body::Events(value, events.into_iter().map(Some).collect()))
    }

    /// Ids the record holds.
    fn ids(&self) -> usize {
        match self {
            Body::Rows(rows) => rows.len(),
            Body::Events(_, events) => events.len(),
            Body::Doc(_) | Body::Dict(..) => 1,
        }
    }
}

/// A record that survives a set of segments, with what of it survives.
struct Live {
    index: Arc<str>,
    /// Where the record is.
    slot: Slot,
    /// The document's id, or the run's first.
    first: u64,
    body: Body,
}

/// What a set of segments replays to.
struct Replayed {
    /// Newest state of every key seen, tombstones and barriers included.
    keydir: KeyDir,
    /// The records `keydir`'s slots point at — the documents that survive
    /// the set — in no particular order.
    live: Vec<Live>,
    /// The scanned generations, oldest first.
    scanned: Vec<Scanned>,
    /// Superseded bytes per generation.
    dead_by_gen: HashMap<u64, u64>,
    max_seqno: u64,
}

/// Replays the segments `gens` of shard `shard` in `dir`, oldest first: each
/// log is read and CRC-decoded once, up to its first torn or corrupt frame,
/// and its records applied newest-seqno-wins (after an interrupted
/// compaction the same record can sit in two files; only its sequence
/// number says which wins). Which records survive a set of segments is
/// decided here and nowhere else: recovery replays a whole shard,
/// compaction its inputs. Neither truncates here — what to do about a torn
/// segment is the caller's call.
///
/// A run frame whose checksum holds but whose payload does not decode — a
/// format this code does not know, or bytes no encoder writes — is not a
/// torn write: it is `InvalidData`, and nothing is replayed.
fn replay(dir: &Path, shard: usize, gens: impl Iterator<Item = u64>) -> std::io::Result<Replayed> {
    let mut keydir = KeyDir::new();
    let mut dead_by_gen = HashMap::new();
    let mut scanned = Vec::new();
    let mut live = Vec::new();
    let mut max_seqno = 0;
    for gen in gens {
        let scan = segment::scan(&dir.join(segment::log_name(gen)))?;
        for ScannedRecord { record, offset, len } in scan.records {
            let Record { seqno, flags, index, doc_id, value } = record;
            let (body, ids) = if flags & (FLAG_EVENTS | FLAG_DICT) != 0 {
                let decoded = Body::decode(flags, value).and_then(|body| {
                    let ids = u32::try_from(body.ids())
                        .ok()
                        .filter(|&n| n > 0 && doc_id.checked_add(u64::from(n)).is_some());
                    Ok((body, ids.ok_or(codec::DecodeError::Invalid("run length"))?))
                });
                decoded.map_err(|e| {
                    let at = format!("shard {shard} gen {gen} offset {offset}: {e}");
                    std::io::Error::new(std::io::ErrorKind::InvalidData, at)
                })?
            } else {
                (Body::Doc(value), 1)
            };
            let slot = Slot { gen, offset, frame_len: len, ids, seqno };
            max_seqno = max_seqno.max(seqno);
            apply(&mut keydir, &mut dead_by_gen, flags, &index, doc_id, slot);
            if flags & (FLAG_TOMBSTONE | FLAG_DROP_INDEX) == 0 {
                live.push(Live { index, slot, first: doc_id, body });
            }
        }
        scanned.push(Scanned { gen, valid_len: scan.valid_len, torn: scan.torn });
    }
    // A run keeps the ids it is the newest record of; a dictionary record
    // lives until a barrier drops its index.
    live.retain_mut(|rec| {
        let held = |keydir: &KeyDir| keydir.live_ids(&rec.index, rec.first, rec.slot);
        match &mut rec.body {
            Body::Doc(_) => keydir.get(&rec.index, rec.first) == Some(rec.slot),
            Body::Dict(..) => !keydir.barred(&rec.index, rec.slot.seqno),
            Body::Rows(rows) => keep_live(held(&keydir), rec.first, rows),
            Body::Events(_, events) => keep_live(held(&keydir), rec.first, events),
        }
    });
    Ok(Replayed { keydir, live, scanned, dead_by_gen, max_seqno })
}

/// Empties the places of `items`, the ids from `first` on, that `held` does
/// not name; returns whether any is left.
fn keep_live<T>(held: Vec<u64>, first: u64, items: &mut [Option<T>]) -> bool {
    let mut held = held.into_iter().peekable();
    for (id, item) in (first..).zip(items.iter_mut()) {
        if held.next_if_eq(&id).is_none() {
            *item = None;
        }
    }
    items.iter().any(Option::is_some)
}

/// One `fdatasync` of the active segment, traced as a `storage.fsync`
/// span and counted into the engine's fsync stats.
fn synced_write(
    writer: &mut SegmentWriter,
    stats: &EngineStats,
    shard: usize,
) -> std::io::Result<()> {
    let mut fsync_span = trace::span("storage", "storage.fsync");
    fsync_span.attr("shard", shard);
    fsync_span.attr("gen", writer.gen());
    let t0 = monotonic_ns();
    writer.sync()?;
    stats.record_fsync(monotonic_ns().saturating_sub(t0));
    Ok(())
}

/// A shard whose segments replayed, before anything on disk was changed.
pub struct Recovered {
    id: usize,
    dir: PathBuf,
    replayed: Replayed,
}

impl Recovered {
    /// Finishes opening the shard: a segment whose scan stopped short —
    /// active or sealed, a torn write or a flipped byte — is truncated to
    /// its valid prefix and counted, leftover merge outputs go, and the
    /// highest generation is reopened for append. The live documents go
    /// into `loaded`.
    pub fn open(self, stats: &EngineStats, loaded: &mut LoadedStore) -> std::io::Result<Shard> {
        let Recovered { id, dir, replayed } = self;
        let Replayed { keydir, live, scanned, dead_by_gen, max_seqno } = replayed;
        segment::remove_stale_merge_tmps(&dir)?;
        for seg in scanned.iter().filter(|seg| seg.torn.is_some()) {
            segment::truncate(&dir.join(segment::log_name(seg.gen)), seg.valid_len)?;
            stats.recovery_truncated.add(1);
        }
        let mut sealed: BTreeMap<u64, SealedInfo> =
            scanned.iter().map(|seg| (seg.gen, SealedInfo { len: seg.valid_len })).collect();
        // The highest generation is the active one: reopened for append.
        let (writer, next_gen) = match sealed.pop_last() {
            Some((gen, active)) => (SegmentWriter::reopen(&dir, gen, active.len)?, gen + 1),
            None => (SegmentWriter::create(&dir, 1)?, 2),
        };
        for Live { index, first, body, .. } in live {
            let loaded = loaded.entry(index).or_default();
            let docs = &mut loaded.docs;
            match body {
                Body::Doc(value) => docs.push((first, Stored::Json(value))),
                Body::Dict(_, record) => loaded.dicts.push(record),
                Body::Rows(rows) => docs.extend(
                    (first..).zip(rows).filter_map(|(id, row)| Some((id, Stored::Row(row?)))),
                ),
                Body::Events(_, events) => docs.extend(
                    (first..)
                        .zip(events)
                        .filter_map(|(id, e)| Some((id, Stored::Event(e?.into())))),
                ),
            }
        }
        let inner = ShardInner {
            writer,
            keydir,
            next_seqno: max_seqno + 1,
            next_gen,
            sealed,
            dead_by_gen,
            compaction_refused: false,
        };
        Ok(Shard { id, dir, inner: Mutex::new(inner), compact_gate: Mutex::new(()) })
    }
}

/// What a compaction wrote for one surviving record, to repoint the keydir
/// at.
enum Written {
    Doc {
        doc_id: u64,
        slot: Slot,
    },
    /// The live ids of the run frame at `was`, re-encoded as runs of
    /// consecutive ids: `(first id, slot)`.
    Run {
        was: Slot,
        pieces: Vec<(u64, Slot)>,
    },
}

impl Shard {
    /// Replays the shard under `dir` (created if missing) without changing
    /// a byte of it; [`Recovered::open`] then repairs and opens it. The
    /// recovery work is recorded as a `recovery.shard` span under `parent`
    /// (the engine's `storage.open` span) with a torn-tail attr, so counters
    /// and causal spans describe the same repairs.
    pub fn recover(dir: PathBuf, id: usize, parent: trace::SpanCtx) -> std::io::Result<Recovered> {
        let mut recovery_span = trace::span_child_of(Some(parent), "storage", "recovery.shard");
        recovery_span.attr("shard", id);
        std::fs::create_dir_all(&dir)?;
        let gens = segment::list_generations(&dir)?;
        let mut replayed = replay(&dir, id, gens.iter().copied())?;
        replayed.keydir.prune_shadows();
        recovery_span.attr("segments", gens.len());
        recovery_span.attr("live_keys", replayed.keydir.live_len());
        recovery_span
            .attr("torn_truncated", replayed.scanned.iter().filter(|s| s.torn.is_some()).count());
        Ok(Recovered { id, dir, replayed })
    }

    /// Appends a batch of mutations. When this returns, every op is on
    /// disk (page cache): the caller may acknowledge the batch. Returns
    /// whether the shard now wants compaction.
    pub fn append_batch(
        &self,
        ops: Vec<Op>,
        config: &StorageConfig,
        stats: &EngineStats,
    ) -> std::io::Result<bool> {
        let mut append_span = trace::span("storage", "storage.append");
        append_span.attr("shard", self.id);
        append_span.attr("records", ops.len());
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let gen = inner.writer.gen();
        let mut buf = Vec::new();
        // Keydir updates wait here until the write has succeeded: a failed
        // append leaves no slot pointing at bytes that are not there.
        let mut staged: Vec<(u8, Arc<str>, u64, Slot)> = Vec::with_capacity(ops.len());
        for op in ops {
            let seqno = inner.next_seqno;
            inner.next_seqno += 1;
            let (record, ids) = match op {
                Op::Put { index, doc_id, value } => {
                    (Record { seqno, flags: 0, index, doc_id, value }, 1)
                }
                Op::Run { index, first, ids, payload } => {
                    let flags = FLAG_EVENTS;
                    (Record { seqno, flags, index, doc_id: first, value: payload }, ids)
                }
                Op::Dict { index, payload } => {
                    (Record { seqno, flags: FLAG_DICT, index, doc_id: 0, value: payload }, 1)
                }
                Op::Delete { index, doc_id } => {
                    let flags = FLAG_TOMBSTONE;
                    (Record { seqno, flags, index, doc_id, value: Vec::new() }, 1)
                }
                Op::DropIndex { index } => {
                    let flags = FLAG_DROP_INDEX;
                    (Record { seqno, flags, index, doc_id: 0, value: Vec::new() }, 1)
                }
            };
            let offset = inner.writer.len() + buf.len() as u64;
            let frame_len = record.encoded_len() as u32;
            record.encode_into(&mut buf);
            let slot = Slot { gen, offset, frame_len, ids, seqno };
            staged.push((record.flags, record.index, record.doc_id, slot));
        }
        append_span.attr("bytes", buf.len());
        inner.writer.append(&buf)?;
        if config.sync_every_batch {
            synced_write(&mut inner.writer, stats, self.id)?;
        }
        stats.bytes_appended.add(buf.len() as u64);
        stats.records_appended.add(staged.len() as u64);
        for (flags, index, doc_id, slot) in staged {
            apply(&mut inner.keydir, &mut inner.dead_by_gen, flags, &index, doc_id, slot);
        }

        if inner.writer.len() >= config.max_segment_bytes {
            Self::seal_active(inner, stats, self.id)?;
        }
        Ok(self.wants_compaction(inner, config))
    }

    /// Seals the active segment in place (sync + bookkeeping) without
    /// rotating — the caller installs the replacement writer.
    fn seal_current(
        inner: &mut ShardInner,
        stats: &EngineStats,
        shard: usize,
    ) -> std::io::Result<()> {
        let mut seal_span = trace::span("storage", "storage.seal");
        seal_span.attr("shard", shard);
        seal_span.attr("gen", inner.writer.gen());
        seal_span.attr("bytes", inner.writer.len());
        synced_write(&mut inner.writer, stats, shard)?;
        inner.sealed.insert(inner.writer.gen(), SealedInfo { len: inner.writer.len() });
        stats.segments_sealed.add(1);
        Ok(())
    }

    /// Seals the active segment and opens a fresh one.
    fn seal_active(
        inner: &mut ShardInner,
        stats: &EngineStats,
        shard: usize,
    ) -> std::io::Result<()> {
        Self::seal_current(inner, stats, shard)?;
        let dir = inner.writer.path().parent().expect("segment has parent dir").to_path_buf();
        let next = inner.next_gen;
        inner.next_gen += 1;
        inner.writer = SegmentWriter::create(&dir, next)?;
        Ok(())
    }

    fn wants_compaction(&self, inner: &ShardInner, config: &StorageConfig) -> bool {
        let sealed_bytes = inner.sealed_bytes();
        if inner.compaction_refused
            || sealed_bytes < config.compact_min_sealed_bytes
            || inner.sealed.len() < 2
        {
            return false;
        }
        inner.sealed_dead_bytes() as f64 >= sealed_bytes as f64 * config.compact_min_dead_ratio
    }

    /// Whether background compaction would currently help.
    pub fn needs_compaction(&self, config: &StorageConfig) -> bool {
        let inner = self.inner.lock();
        self.wants_compaction(&inner, config)
    }

    /// Flushes the active segment to durable storage.
    pub fn sync(&self, stats: &EngineStats) -> std::io::Result<()> {
        let mut inner = self.inner.lock();
        synced_write(&mut inner.writer, stats, self.id)
    }

    /// Merges every sealed segment into one, dropping superseded records,
    /// tombstones, and barriers (full-merge semantics: anything outside
    /// the inputs is strictly newer, so shadow records need not survive).
    ///
    /// Appends proceed concurrently — the shard lock is held only to
    /// rotate at the start and to install the result at the end.
    /// Crash-safe: output is written to `merge-*.tmp`, fsynced, renamed,
    /// and only then are inputs deleted oldest-first, so at every kill
    /// point the union of surviving files replays to the same store.
    ///
    /// An input that does not read back whole — a frame fails its CRC, or
    /// the log is not as long as it was when sealed — is refused with
    /// `InvalidData` before anything is written, repointed or deleted:
    /// merging its valid prefix and deleting it would lose acknowledged
    /// documents uncounted. Reopen truncates and counts the loss.
    pub fn compact(&self, stats: &EngineStats) -> std::io::Result<()> {
        let _gate = self.compact_gate.lock();
        // The whole merge is one storage.compact span with a child per
        // phase, so the compaction timeline can be read off the flight
        // recorder (and a stall attributed to the phase that caused it).
        let mut compact_span = trace::span("storage", "storage.compact");
        compact_span.attr("shard", self.id);
        // Phase 1 (locked): allocate the output generation *below* a
        // fresh active segment, and snapshot the input set.
        let rotate_span = trace::span("storage", "compact.rotate");
        let (output_gen, inputs) = {
            let mut inner = self.inner.lock();
            let inner = &mut *inner;
            if inner.sealed.is_empty() && inner.writer.is_empty() {
                return Ok(());
            }
            // Seal the current active so it participates in the merge;
            // the new active's gen is above the output's. An *empty*
            // active can't be sealed (a zero-length sealed segment is
            // pure cruft), so its file is removed once the replacement
            // exists — a crash in between just leaves an empty segment
            // for the next open to scan.
            let empty_active = if inner.writer.is_empty() {
                Some(inner.writer.path().to_path_buf())
            } else {
                Self::seal_current(inner, stats, self.id)?;
                None
            };
            let output_gen = inner.next_gen;
            inner.next_gen += 1;
            let active_gen = inner.next_gen;
            inner.next_gen += 1;
            inner.writer = SegmentWriter::create(&self.dir, active_gen)?;
            if let Some(path) = empty_active {
                std::fs::remove_file(path)?;
            }
            (output_gen, inner.sealed.clone())
        };
        drop(rotate_span);
        if inputs.is_empty() {
            return Ok(());
        }
        compact_span.attr("inputs", inputs.len());

        // Phase 2 (unlocked): replay the immutable inputs; what survives
        // is the newest record of each key *within the inputs* that no
        // tombstone or barrier shadows.
        let mut merge_span = trace::span("storage", "compact.merge");
        let refuse = |why: String| {
            self.inner.lock().compaction_refused = true;
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{why}; compaction refused (reopen truncates and counts the loss)"),
            )
        };
        let Replayed { live: mut keep, scanned, .. } =
            replay(&self.dir, self.id, inputs.keys().copied()).map_err(|e| match e.kind() {
                std::io::ErrorKind::InvalidData => refuse(e.to_string()),
                _ => e,
            })?;
        if let Some(seg) =
            scanned.iter().find(|seg| seg.torn.is_some() || seg.valid_len != inputs[&seg.gen].len)
        {
            let why = seg.torn.map_or("log ends".into(), |e| format!("{e:?}"));
            return Err(refuse(format!(
                "shard {} gen {} offset {}: {why}, sealed at {} bytes",
                self.id, seg.gen, seg.valid_len, inputs[&seg.gen].len,
            )));
        }
        // Stable output order: the dictionary records ahead of the runs that
        // name their entries, then by original seqno.
        keep.sort_by_key(|rec| (!matches!(rec.body, Body::Dict(..)), rec.slot.seqno));
        merge_span.attr("kept", keep.len());

        // Phase 3 (unlocked): write the output to a tmp file, then
        // atomically promote it to a real segment. A run keeps its seqno and
        // loses the ids something newer shadows: its live ids are
        // re-encoded as runs of consecutive ids. A run of the first format
        // that lost some keeps the others as their documents' text — nothing
        // writes that format any more.
        let tmp_path = self.dir.join(segment::merge_tmp_name(output_gen));
        let mut out = std::fs::File::create(&tmp_path)?;
        let mut out_len = 0u64;
        let mut written: Vec<(Arc<str>, Written)> = Vec::with_capacity(keep.len());
        let mut buf = Vec::new();
        let mut write_frame = |record: &Record, ids: u32| -> std::io::Result<Slot> {
            use std::io::Write as _;
            buf.clear();
            record.encode_into(&mut buf);
            if let Some(split) = crash::armed_split(CrashSite::Compact, buf.len()) {
                out.write_all(&buf[..split]).expect("crash-injection prefix write");
                let _ = out.sync_data();
                crash::abort_now();
            }
            out.write_all(&buf)?;
            let frame_len = buf.len() as u32;
            let slot =
                Slot { gen: output_gen, offset: out_len, frame_len, ids, seqno: record.seqno };
            out_len += buf.len() as u64;
            Ok(slot)
        };
        for Live { index, slot: was, first, body } in keep {
            let seqno = was.seqno;
            let record = |flags, doc_id, value| Record {
                seqno,
                flags,
                index: Arc::clone(&index),
                doc_id,
                value,
            };
            let done = match body {
                Body::Doc(value) => {
                    Written::Doc { doc_id: first, slot: write_frame(&record(0, first, value), 1)? }
                }
                Body::Dict(value, _) => {
                    write_frame(&record(FLAG_DICT, 0, value), 1)?;
                    continue;
                }
                Body::Events(value, events) if events.iter().all(Option::is_some) => {
                    let slot = write_frame(&record(FLAG_EVENTS, first, value), was.ids)?;
                    Written::Run { was, pieces: vec![(first, slot)] }
                }
                Body::Events(_, events) => {
                    let mut pieces = Vec::new();
                    for (doc_id, event) in (first..).zip(events) {
                        let Some(event) = event else { continue };
                        let text = event.to_document().to_string().into_bytes();
                        pieces.push((doc_id, write_frame(&record(0, doc_id, text), 1)?));
                    }
                    Written::Run { was, pieces }
                }
                Body::Rows(rows) => {
                    let mut pieces = Vec::new();
                    let mut at = 0;
                    while at < rows.len() {
                        let len = rows[at..].iter().take_while(|row| row.is_some()).count();
                        if len > 0 {
                            let mut run = RunWriter::default();
                            rows[at..at + len].iter().flatten().for_each(|row| run.push(row));
                            let mut value = Vec::new();
                            run.finish(&mut value);
                            let doc_id = first + at as u64;
                            let slot =
                                write_frame(&record(FLAG_EVENTS, doc_id, value), len as u32)?;
                            pieces.push((doc_id, slot));
                        }
                        at += len.max(1);
                    }
                    Written::Run { was, pieces }
                }
            };
            written.push((index, done));
        }
        let t0 = monotonic_ns();
        out.sync_data()?;
        stats.record_fsync(monotonic_ns().saturating_sub(t0));
        drop(out);
        merge_span.attr("out_bytes", out_len);
        drop(merge_span);
        {
            let _rename_span = trace::span("storage", "compact.rename");
            std::fs::rename(&tmp_path, self.dir.join(segment::log_name(output_gen)))?;
        }

        // Phase 4 (locked): repoint still-current keydir entries at the
        // output and swap the segment bookkeeping.
        {
            let _repoint_span = trace::span("storage", "compact.repoint");
            let mut inner = self.inner.lock();
            let inner = &mut *inner;
            let mut out_dead = 0u64;
            for (index, done) in written {
                // Repoint keys that did not advance mid-merge; frames of
                // keys that did are garbage in the output from birth.
                match done {
                    Written::Doc { doc_id, slot } => {
                        if !inner.keydir.repoint(&index, doc_id, slot) {
                            out_dead += slot.frame_len as u64;
                        }
                    }
                    Written::Run { was, pieces } => {
                        out_dead += inner.keydir.repoint_run(&index, was, &pieces);
                    }
                }
            }
            for gen in inputs.keys() {
                inner.sealed.remove(gen);
                inner.dead_by_gen.remove(gen);
            }
            inner.sealed.insert(output_gen, SealedInfo { len: out_len });
            if out_dead > 0 {
                inner.dead_by_gen.insert(output_gen, out_dead);
            }
        }

        // Phase 5 (unlocked): delete inputs oldest-first, so a crash
        // mid-deletion can never leave an old value without the newer
        // record that shadowed it.
        {
            let mut delete_span = trace::span("storage", "compact.delete");
            delete_span.attr("inputs", inputs.len());
            for &gen in inputs.keys() {
                std::fs::remove_file(self.dir.join(segment::log_name(gen)))?;
                // Earlier versions wrote a `.hint` sidecar beside each sealed
                // log. Nothing reads one any more; it goes with its log.
                let _ = std::fs::remove_file(self.dir.join(segment::hint_name(gen)));
            }
        }
        compact_span.attr("out_bytes", out_len);
        stats.compactions.add(1);
        stats.compacted_bytes.add(out_len);
        Ok(())
    }

    /// Verifies shard invariants for the crash harness: every keydir slot
    /// must resolve to a checksum-valid record with matching key and
    /// seqno, every segment must replay cleanly end-to-end, and the
    /// active segment must be the highest generation on disk.
    pub fn verify(&self) -> Result<ShardReport, String> {
        let inner = self.inner.lock();
        let gens = segment::list_generations(&self.dir)
            .map_err(|e| format!("shard {}: list: {e}", self.id))?;
        let active_gen = inner.writer.gen();
        if gens.last().copied() != Some(active_gen) {
            return Err(format!(
                "shard {}: active gen {} is not the max on disk ({:?})",
                self.id, active_gen, gens
            ));
        }
        let mut segments = 0usize;
        for &gen in &gens {
            let scanned = segment::scan(&self.dir.join(segment::log_name(gen)))
                .map_err(|e| format!("shard {} gen {gen}: scan: {e}", self.id))?;
            if scanned.torn.is_some() {
                return Err(format!(
                    "shard {} gen {gen}: torn record at offset {} after recovery",
                    self.id, scanned.valid_len
                ));
            }
            if gen == active_gen && scanned.valid_len != inner.writer.len() {
                return Err(format!(
                    "shard {} gen {gen}: writer believes {} bytes, disk has {}",
                    self.id,
                    inner.writer.len(),
                    scanned.valid_len
                ));
            }
            segments += 1;
        }
        for (index, id, slot) in inner.keydir.frames() {
            let what = format!("shard {}: keydir slot {index}/{id}", self.id);
            let rec = segment::read_at(
                &self.dir.join(segment::log_name(slot.gen)),
                slot.offset,
                slot.frame_len,
            )
            .map_err(|e| format!("{what} unreadable: {e}"))?;
            let ids = match rec.flags & FLAG_EVENTS != 0 {
                true => {
                    Body::decode(rec.flags, rec.value).map_err(|e| format!("{what}: {e}"))?.ids()
                }
                false => 1,
            } as u64;
            let holds = rec.doc_id <= id && id - rec.doc_id < ids;
            if *rec.index != *index || !holds || rec.seqno != slot.seqno || ids != slot.ids as u64 {
                return Err(format!(
                    "{what} resolves to {}/{} seq {} of {ids} ids",
                    rec.index, rec.doc_id, rec.seqno
                ));
            }
        }
        let live_keys = inner.keydir.count_live();
        if live_keys != inner.keydir.live_len() {
            return Err(format!(
                "shard {}: {live_keys} live keys, counted as {}",
                self.id,
                inner.keydir.live_len()
            ));
        }
        Ok(ShardReport {
            segments,
            live_keys,
            sealed_bytes: inner.sealed_bytes(),
            dead_bytes: inner.dead_by_gen.values().sum(),
            active_bytes: inner.writer.len(),
        })
    }

    /// Point-in-time shard statistics.
    pub fn stats(&self) -> ShardReport {
        let inner = self.inner.lock();
        ShardReport {
            segments: inner.sealed.len() + 1,
            live_keys: inner.keydir.live_len(),
            sealed_bytes: inner.sealed_bytes(),
            dead_bytes: inner.dead_by_gen.values().sum(),
            active_bytes: inner.writer.len(),
        }
    }
}

/// Per-shard snapshot returned by [`Shard::stats`] / [`Shard::verify`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ShardReport {
    /// Segment files (active included).
    pub segments: usize,
    /// Live keydir entries.
    pub live_keys: usize,
    /// Bytes in sealed segments.
    pub sealed_bytes: u64,
    /// Superseded bytes across all segments.
    pub dead_bytes: u64,
    /// Bytes in the active segment.
    pub active_bytes: u64,
}

impl ShardReport {
    /// Folds another report into this one (for engine-level totals).
    pub fn merge(&mut self, other: &ShardReport) {
        self.segments += other.segments;
        self.live_keys += other.live_keys;
        self.sealed_bytes += other.sealed_bytes;
        self.dead_bytes += other.dead_bytes;
        self.active_bytes += other.active_bytes;
    }
}
