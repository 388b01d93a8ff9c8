//! Causal span tracing and the flight recorder (DESIGN.md §12).
//!
//! Aggregate counters say *that* a histogram moved; they cannot say
//! *why* a particular batch stalled. This module slices the pipeline's
//! work into **causally linked spans** — `(trace_id, span_id,
//! parent_id, category, start/end mono ns, key=value attrs)` — so one
//! ingest can be followed ship → bulk → append → fsync as a tree, the
//! ReLayTracer idea applied to DIO's own layers.
//!
//! Spans land in the [`FlightRecorder`]: one bounded ring **per
//! thread**, oldest-evicted, always on, plus one ring of the same bound
//! for what exited threads left behind. The hot path after first use on
//! a thread is a thread-local lookup plus a push of a `Copy` value under
//! a lock only a snapshot ever contends for — no shared lock, and no
//! allocation once the ring has grown to what the thread records — so the
//! recorder can stay enabled in production and be *dumped* after the
//! fact (on a `dio-diagnose` alert, a crash-injection abort, or an
//! explicit [`crate::trace::dump_on_trigger`] call), the Recorder-style
//! "always-on trace, analyze post-hoc" workflow.
//!
//! Exports: [`FlightRecorder::export_chrome_json`] produces a Chrome
//! Trace Event Format artifact loadable in Perfetto / chrome://tracing,
//! and [`critical_path_summary`] renders the slowest span chain per
//! trace as compact text.
//!
//! # Example
//!
//! ```
//! use dio_telemetry::trace;
//!
//! let root = {
//!     let mut g = trace::span("demo", "demo.parent");
//!     g.attr("items", 3u64);
//!     let _child = trace::span("demo", "demo.child"); // nests under parent
//!     g.ctx()
//! };
//! let spans = trace::recorder().snapshot();
//! assert!(spans.iter().any(|s| s.span_id == root.span_id));
//! assert!(spans
//!     .iter()
//!     .any(|s| s.name == "demo.child" && s.parent_id == root.span_id));
//! ```

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, Weak};

use crate::span::monotonic_ns;

/// Maximum key=value attributes one span can carry. Spans are `Copy`
/// and fixed-size — attributes past the cap are silently dropped (the
/// instrumentation sites all stay well under it).
pub const MAX_ATTRS: usize = 8;

/// Per-thread ring capacity of the global recorder.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Per-reason cap on dump artifacts: dumps past it reuse the last slot.
pub const DUMP_CAP: u64 = 8;

/// One typed attribute value. Strings are `&'static str` so spans stay
/// `Copy` and the hot path never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Static string.
    Str(&'static str),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> Self {
        AttrValue::Str(v)
    }
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::I64(v) => write!(f, "{v}"),
            AttrValue::F64(v) => write!(f, "{v}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
            AttrValue::Str(v) => write!(f, "{v}"),
        }
    }
}

/// The `&'static str`s spans have named — attribute keys and string
/// values — each held once for the whole process; a span holds a name as
/// its place here. Places start at 1: 0 marks an empty attribute slot.
#[derive(Default)]
struct Names {
    places: HashMap<&'static str, u16>,
    names: Vec<&'static str>,
}

/// Names a slot's 14 place bits can tell apart.
const MAX_NAMES: usize = (1 << KIND_SHIFT) - 1;

fn names() -> &'static RwLock<Names> {
    static NAMES: OnceLock<RwLock<Names>> = OnceLock::new();
    NAMES.get_or_init(RwLock::default)
}

/// The place of `name`, added on first use; `None` once the table is full.
fn place_of(name: &'static str) -> Option<u16> {
    if let Some(&place) = names().read().unwrap_or_else(PoisonError::into_inner).places.get(name) {
        return Some(place);
    }
    let mut table = names().write().unwrap_or_else(PoisonError::into_inner);
    if let Some(&place) = table.places.get(name) {
        return Some(place);
    }
    if table.names.len() >= MAX_NAMES {
        return None;
    }
    table.names.push(name);
    let place = table.names.len() as u16;
    table.places.insert(name, place);
    Some(place)
}

/// The name at `place` (from [`place_of`]).
fn name_at(place: u16) -> &'static str {
    names().read().unwrap_or_else(PoisonError::into_inner).names[usize::from(place) - 1]
}

/// A slot's value kind, in the top two bits of its key.
const KIND_SHIFT: u32 = 14;
const KIND_U64: u16 = 0;
const KIND_I64: u16 = 1;
const KIND_F64: u16 = 2;
/// A name's place, or a boolean ([`BOOL`]).
const KIND_STATIC: u16 = 3;
/// A static value above every place: the boolean in its low bit.
const BOOL: u64 = 1 << 32;

impl AttrValue {
    /// The value as a kind and 64 bits; `None` for a string the name table
    /// has no room for.
    fn encode(self) -> Option<(u16, u64)> {
        Some(match self {
            AttrValue::U64(v) => (KIND_U64, v),
            AttrValue::I64(v) => (KIND_I64, v as u64),
            AttrValue::F64(v) => (KIND_F64, v.to_bits()),
            AttrValue::Bool(v) => (KIND_STATIC, BOOL | u64::from(v)),
            AttrValue::Str(v) => (KIND_STATIC, u64::from(place_of(v)?)),
        })
    }

    fn decode(kind: u16, bits: u64) -> Self {
        match kind {
            KIND_U64 => AttrValue::U64(bits),
            KIND_I64 => AttrValue::I64(bits as i64),
            KIND_F64 => AttrValue::F64(f64::from_bits(bits)),
            _ if bits & BOOL != 0 => AttrValue::Bool(bits & 1 == 1),
            _ => AttrValue::Str(name_at(bits as u16)),
        }
    }
}

/// Fixed-capacity attribute set (part of the `Copy` span): per slot, the
/// key's place in the process-wide name table with the value's kind in its
/// top two bits, and the value as 64 bits. 80 bytes for eight attributes.
#[derive(Clone, Copy, Default)]
pub struct Attrs {
    /// 0: an empty slot, and every slot after it.
    keys: [u16; MAX_ATTRS],
    values: [u64; MAX_ATTRS],
}

impl std::fmt::Debug for Attrs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl Attrs {
    /// Adds `key=value`; silently dropped past [`MAX_ATTRS`] (or past
    /// 16 383 distinct names in the process).
    pub fn push(&mut self, key: &'static str, value: AttrValue) {
        let Some(slot) = self.keys.iter().position(|&k| k == 0) else { return };
        let (Some(place), Some((kind, bits))) = (place_of(key), value.encode()) else { return };
        self.keys[slot] = kind << KIND_SHIFT | place;
        self.values[slot] = bits;
    }

    /// The attributes, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, AttrValue)> + '_ {
        let slots = self.keys.iter().zip(&self.values).take_while(|(&k, _)| k != 0);
        slots.map(|(&k, &bits)| {
            (name_at(k & MAX_NAMES as u16), AttrValue::decode(k >> KIND_SHIFT, bits))
        })
    }

    /// Looks up `key`, returning the first match.
    pub fn get(&self, key: &str) -> Option<AttrValue> {
        self.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// The causal coordinates of a span: enough to parent further work to
/// it, including across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanCtx {
    /// Identifies the whole causal tree (e.g. one traced session).
    pub trace_id: u64,
    /// Identifies this span within the tree.
    pub span_id: u64,
}

/// One recorded span. `Copy` and fixed-size by design: recording is a
/// single ring push, eviction a single pop. 160 bytes, of which the
/// attributes are half.
#[derive(Debug, Clone, Copy)]
pub struct TraceSpan {
    /// Causal tree this span belongs to.
    pub trace_id: u64,
    /// Unique id of this span.
    pub span_id: u64,
    /// Parent span id (0 = root).
    pub parent_id: u64,
    /// Coarse layer label (`ship`, `backend`, `storage`, ...).
    pub category: &'static str,
    /// Operation name (`ship.batch`, `storage.fsync`, ...).
    pub name: &'static str,
    /// Start, [`monotonic_ns`] clock.
    pub start_ns: u64,
    /// End, [`monotonic_ns`] clock.
    pub end_ns: u64,
    /// Recording thread (registration order within the recorder).
    pub thread: u32,
    /// Per-thread emission sequence number (drop/eviction ordering);
    /// wraps after 2³² spans of one thread.
    pub emit_seq: u32,
    /// Key=value attributes.
    pub attrs: Attrs,
}

impl TraceSpan {
    /// Span duration in nanoseconds (0 when the clock went backwards,
    /// which the monotonic clock rules out).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The span's causal coordinates.
    pub fn ctx(&self) -> SpanCtx {
        SpanCtx { trace_id: self.trace_id, span_id: self.span_id }
    }
}

/// One thread's ring: the spans it recorded that survive, oldest first.
/// Registered with the recorder on first record from that thread, and
/// folded into the recorder's retired ring when the thread exits (spans of
/// dead threads stay visible in dumps).
struct ThreadRing {
    spans: Mutex<VecDeque<TraceSpan>>,
    thread: u32,
    emit_seq: AtomicU32,
}

/// What a recorder shares with the threads recording into it: they reach it
/// once more as they exit.
struct Shared {
    capacity: usize,
    evicted: AtomicU64,
    registry: Mutex<Registry>,
}

#[derive(Default)]
struct Registry {
    /// The rings of threads that can still record.
    live: Vec<Arc<ThreadRing>>,
    /// What exited threads' rings held, in the order they exited: one more
    /// ring of `capacity` spans, so memory is bounded by the threads
    /// recording now, not by every thread that ever did.
    retired: VecDeque<TraceSpan>,
    /// Threads ever registered: the next thread number.
    threads: u32,
}

/// Locks through poisoning: spans are recorded from destructors, which must
/// not panic, and a ring is valid after every step of a push.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Appends `span`, first evicting the oldest if `ring` holds `capacity`;
/// returns whether it did. A ring costs what it holds: its slots double as
/// it fills, up to `capacity` and no further.
fn push_bounded(ring: &mut VecDeque<TraceSpan>, capacity: usize, span: TraceSpan) -> bool {
    let evicted = ring.len() >= capacity && ring.pop_front().is_some();
    if ring.len() == ring.capacity() {
        ring.reserve_exact(ring.len().max(4).min(capacity - ring.len()));
    }
    ring.push_back(span);
    evicted
}

impl Shared {
    /// Moves what an exiting thread's ring holds to the retired ring. The
    /// retired ring takes a whole ring at a time, so it grows to what it
    /// then holds (up to `capacity`), not to double, which would leave up to
    /// half of itself empty — but by at least an eighth, so that many short
    /// rings retiring one after another cost a copy of it every few, not
    /// every one.
    fn retire(&self, ring: &Arc<ThreadRing>) {
        let mut registry = lock(&self.registry);
        registry.live.retain(|held| !Arc::ptr_eq(held, ring));
        let mut spans = lock(&ring.spans);
        let retired = &mut registry.retired;
        let wanted = (retired.len() + spans.len()).min(self.capacity);
        let slots = retired.capacity();
        if wanted > slots {
            let grown = wanted.max(slots + (slots / 8).max(4)).min(self.capacity);
            retired.reserve_exact(grown - retired.len());
        }
        for span in spans.drain(..) {
            if push_bounded(retired, self.capacity, span) {
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// A thread's hold on its ring in one recorder; dropped when the thread
/// exits.
struct RingHandle {
    recorder: u64,
    ring: Arc<ThreadRing>,
    home: Weak<Shared>,
}

impl Drop for RingHandle {
    fn drop(&mut self) {
        if let Some(home) = self.home.upgrade() {
            home.retire(&self.ring);
        }
    }
}

thread_local! {
    /// Per-thread cache of this thread's ring in each recorder, so the hot
    /// path skips the recorder's registration lock.
    static TLS_RINGS: RefCell<Vec<RingHandle>> = const { RefCell::new(Vec::new()) };
    /// The ambient span stack of guard-based spans on this thread.
    static STACK: RefCell<Vec<SpanCtx>> = const { RefCell::new(Vec::new()) };
}

static RECORDER_IDS: AtomicU64 = AtomicU64::new(1);

/// splitmix64: the id allocator. Seeded, so tests get stable ids.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over a string — a stable way to tag spans with dynamic
/// identity (store paths, session names) without allocating.
pub fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The bounded span sink (see module docs). One global instance serves
/// the whole process ([`recorder`]); tests build their own with known
/// capacity and seed.
pub struct FlightRecorder {
    id: u64,
    enabled: AtomicBool,
    next_seed: AtomicU64,
    shared: Arc<Shared>,
    recorded: AtomicU64,
    dump_seq: Mutex<std::collections::BTreeMap<String, u64>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity())
            .field("enabled", &self.enabled())
            .field("recorded", &self.recorded())
            .field("evicted", &self.evicted())
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder with `capacity` spans per thread ring and a seeded id
    /// allocator (same seed + same allocation order = same ids).
    pub fn new(capacity: usize, seed: u64) -> Self {
        FlightRecorder {
            id: RECORDER_IDS.fetch_add(1, Ordering::Relaxed),
            enabled: AtomicBool::new(true),
            next_seed: AtomicU64::new(seed),
            shared: Arc::new(Shared {
                capacity: capacity.max(1),
                evicted: AtomicU64::new(0),
                registry: Mutex::default(),
            }),
            recorded: AtomicU64::new(0),
            dump_seq: Mutex::new(std::collections::BTreeMap::new()),
        }
    }

    /// Allocates a fresh nonzero trace/span id.
    pub fn alloc_id(&self) -> u64 {
        loop {
            let id = splitmix64(self.next_seed.fetch_add(1, Ordering::Relaxed));
            if id != 0 {
                return id;
            }
        }
    }

    /// Whether recording is on. Disabled recorders drop spans at the
    /// guard, before any clock read or ring traffic.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off (`DIO_FLIGHTREC=off` starts the global
    /// recorder off).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Spans recorded over the recorder's lifetime.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Spans evicted (overwritten before ever being read).
    pub fn evicted(&self) -> u64 {
        self.shared.evicted.load(Ordering::Relaxed)
    }

    /// Per-thread ring capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    fn ring_for_this_thread(&self) -> Option<Arc<ThreadRing>> {
        TLS_RINGS
            .try_with(|cell| {
                let mut rings = cell.borrow_mut();
                if let Some(held) = rings.iter().find(|held| held.recorder == self.id) {
                    return Arc::clone(&held.ring);
                }
                let ring = {
                    let mut registry = lock(&self.shared.registry);
                    let ring = Arc::new(ThreadRing {
                        spans: Mutex::default(),
                        thread: registry.threads,
                        emit_seq: AtomicU32::new(0),
                    });
                    registry.threads += 1;
                    registry.live.push(Arc::clone(&ring));
                    ring
                };
                rings.push(RingHandle {
                    recorder: self.id,
                    ring: Arc::clone(&ring),
                    home: Arc::downgrade(&self.shared),
                });
                ring
            })
            .ok()
    }

    /// Records one finished span into the calling thread's ring,
    /// evicting the oldest span when full. `thread` and `emit_seq` are
    /// assigned here. No-op while disabled.
    pub fn record(&self, mut span: TraceSpan) {
        if !self.enabled() {
            return;
        }
        // During thread teardown the TLS slot may already be gone; the
        // span is dropped rather than panicking in a destructor.
        let Some(ring) = self.ring_for_this_thread() else { return };
        span.thread = ring.thread;
        span.emit_seq = ring.emit_seq.fetch_add(1, Ordering::Relaxed);
        if push_bounded(&mut lock(&ring.spans), self.shared.capacity, span) {
            self.shared.evicted.fetch_add(1, Ordering::Relaxed);
        }
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of every surviving span — the retired ring
    /// and every thread's — sorted by start time. Threads keep recording
    /// meanwhile, each held up only while its own ring is copied: the
    /// copy is a snapshot, not a barrier.
    pub fn snapshot(&self) -> Vec<TraceSpan> {
        // Held throughout, so a thread exiting meanwhile cannot move its
        // spans from a ring not yet copied into the retired ring already
        // copied.
        let registry = lock(&self.shared.registry);
        let mut out: Vec<TraceSpan> = registry.retired.iter().copied().collect();
        for ring in &registry.live {
            out.extend(lock(&ring.spans).iter().copied());
        }
        drop(registry);
        out.sort_by_key(|s| (s.start_ns, s.thread, s.emit_seq));
        out
    }

    /// The surviving spans as a Chrome Trace Event Format JSON string
    /// (Perfetto / chrome://tracing loadable). See [`chrome_trace_json`].
    pub fn export_chrome_json(&self) -> String {
        chrome_trace_json(&self.snapshot())
    }

    /// Writes the current window to
    /// `$DIO_RESULTS_DIR|results/flightrec-<reason>-<NN>.json` (Chrome
    /// trace format plus an `otherData` block with the trigger reason
    /// and the critical-path summary). Returns the path, or `None` when
    /// no results directory exists — dump triggers fire from library
    /// code, so they only write where an artifact directory is already
    /// established (experiments, CI) or explicitly requested via env.
    ///
    /// Naming is deterministic and capped: `NN` is a per-reason
    /// sequence (`01`, `02`, …) held by this recorder, never the pid —
    /// re-runs overwrite the same artifact names instead of littering
    /// the results directory. Past [`DUMP_CAP`] dumps for one reason
    /// the last slot is overwritten in place, so a dump storm leaves at
    /// most [`DUMP_CAP`] files per reason with the storm's earliest dumps and
    /// its latest.
    pub fn dump(&self, reason: &str) -> Option<PathBuf> {
        let dir = dump_dir()?;
        std::fs::create_dir_all(&dir).ok()?;
        let tag: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' { c } else { '-' })
            .collect();
        let seq = {
            let mut seqs = lock(&self.dump_seq);
            let n = seqs.entry(tag.clone()).or_insert(0);
            *n = (*n + 1).min(DUMP_CAP);
            *n
        };
        let path = dir.join(format!("flightrec-{tag}-{seq:02}.json"));
        let spans = self.snapshot();
        let mut doc = String::from("{\"otherData\":{");
        doc.push_str(&format!(
            "\"reason\":\"{tag}\",\"recorded\":{},\"evicted\":{},\"spans\":{},",
            self.recorded(),
            self.evicted(),
            spans.len()
        ));
        doc.push_str("\"criticalPath\":");
        json_escape_into(&critical_path_summary(&spans), &mut doc);
        doc.push_str("},\"traceEvents\":");
        chrome_trace_events_into(&spans, &mut doc);
        doc.push('}');
        std::fs::write(&path, doc).ok()?;
        Some(path)
    }
}

fn dump_dir() -> Option<PathBuf> {
    if let Ok(dir) = std::env::var("DIO_RESULTS_DIR") {
        if !dir.is_empty() {
            return Some(PathBuf::from(dir));
        }
    }
    let default = PathBuf::from("results");
    default.is_dir().then_some(default)
}

static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();

/// The process-wide flight recorder, [`DEFAULT_CAPACITY`] spans per
/// thread; `DIO_FLIGHTREC=off|0|false` starts it disabled.
pub fn recorder() -> &'static FlightRecorder {
    GLOBAL.get_or_init(|| {
        let rec = FlightRecorder::new(DEFAULT_CAPACITY, 0x0d10_0000_0000_0001);
        if matches!(std::env::var("DIO_FLIGHTREC").as_deref(), Ok("off") | Ok("0") | Ok("false")) {
            rec.set_enabled(false);
        }
        rec
    })
}

/// Dumps the global recorder, tagged `reason` (alert fired, crash
/// harness abort, explicit request). See [`FlightRecorder::dump`].
pub fn dump_on_trigger(reason: &str) -> Option<PathBuf> {
    recorder().dump(reason)
}

/// The ambient span context of the calling thread (the innermost open
/// guard span), if any.
pub fn current_ctx() -> Option<SpanCtx> {
    STACK.try_with(|s| s.borrow().last().copied()).ok().flatten()
}

/// The trace id of the calling thread's innermost open span, if any —
/// the hook metric exemplars use
/// ([`Histogram::record_traced`](crate::Histogram::record_traced)) to
/// link a histogram bucket back to a flight-recorder trace.
pub fn current_trace_id() -> Option<u64> {
    current_ctx().map(|c| c.trace_id)
}

/// An open span tied to the calling thread: records itself into the
/// global recorder on drop and parents any span opened below it on
/// this thread. Obtained from [`span`] / [`span_child_of`].
pub struct SpanGuard {
    span: TraceSpan,
    live: bool,
}

impl SpanGuard {
    /// Adds a `key=value` attribute (dropped past [`MAX_ATTRS`]).
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if self.live {
            self.span.attrs.push(key, value.into());
        }
    }

    /// The span's causal coordinates, for parenting work on other
    /// threads. Zero ids when the recorder is disabled.
    pub fn ctx(&self) -> SpanCtx {
        self.span.ctx()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let _ = STACK.try_with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|c| c.span_id == self.span.span_id) {
                stack.truncate(pos);
            }
        });
        self.span.end_ns = monotonic_ns();
        recorder().record(self.span);
    }
}

fn noop_guard() -> SpanGuard {
    SpanGuard {
        span: TraceSpan {
            trace_id: 0,
            span_id: 0,
            parent_id: 0,
            category: "",
            name: "",
            start_ns: 0,
            end_ns: 0,
            thread: 0,
            emit_seq: 0,
            attrs: Attrs::default(),
        },
        live: false,
    }
}

fn start_guard(category: &'static str, name: &'static str, parent: Option<SpanCtx>) -> SpanGuard {
    let rec = recorder();
    if !rec.enabled() {
        return noop_guard();
    }
    let (trace_id, parent_id) = match parent {
        Some(ctx) => (ctx.trace_id, ctx.span_id),
        None => (rec.alloc_id(), 0),
    };
    let ctx = SpanCtx { trace_id, span_id: rec.alloc_id() };
    let _ = STACK.try_with(|s| s.borrow_mut().push(ctx));
    SpanGuard {
        span: TraceSpan {
            trace_id,
            span_id: ctx.span_id,
            parent_id,
            category,
            name,
            start_ns: monotonic_ns(),
            end_ns: 0,
            thread: 0,
            emit_seq: 0,
            attrs: Attrs::default(),
        },
        live: true,
    }
}

/// Opens a span parented to the calling thread's innermost open span
/// (a new root when there is none).
pub fn span(category: &'static str, name: &'static str) -> SpanGuard {
    span_child_of(current_ctx(), category, name)
}

/// Opens a span with an explicit parent — the cross-thread hand-off
/// primitive (e.g. shipper batches parented to the session span).
pub fn span_child_of(
    parent: Option<SpanCtx>,
    category: &'static str,
    name: &'static str,
) -> SpanGuard {
    start_guard(category, name, parent)
}

/// A long-lived span detached from any thread's stack: started on one
/// thread, finished on another (or much later). Children parent to it
/// through [`ManualSpan::ctx`] + [`span_child_of`].
pub struct ManualSpan {
    span: TraceSpan,
    finished: bool,
}

impl ManualSpan {
    /// The span's causal coordinates.
    pub fn ctx(&self) -> SpanCtx {
        self.span.ctx()
    }

    /// Adds a `key=value` attribute.
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        self.span.attrs.push(key, value.into());
    }

    /// Ends the span and records it.
    pub fn finish(mut self) {
        self.finish_inner();
    }

    fn finish_inner(&mut self) {
        if !self.finished {
            self.finished = true;
            self.span.end_ns = monotonic_ns();
            recorder().record(self.span);
        }
    }
}

impl Drop for ManualSpan {
    fn drop(&mut self) {
        self.finish_inner();
    }
}

/// Starts a [`ManualSpan`] on the global recorder. The span is real
/// even while the recorder is disabled (ids still allocate) so causal
/// plumbing does not depend on the enable switch; it is simply not
/// recorded at finish if recording is off then.
pub fn begin_manual(
    category: &'static str,
    name: &'static str,
    parent: Option<SpanCtx>,
) -> ManualSpan {
    let rec = recorder();
    let (trace_id, parent_id) = match parent {
        Some(ctx) => (ctx.trace_id, ctx.span_id),
        None => (rec.alloc_id(), 0),
    };
    ManualSpan {
        span: TraceSpan {
            trace_id,
            span_id: rec.alloc_id(),
            parent_id,
            category,
            name,
            start_ns: monotonic_ns(),
            end_ns: 0,
            thread: 0,
            emit_seq: 0,
            attrs: Attrs::default(),
        },
        finished: false,
    }
}

// ---------------------------------------------------------------- export

fn json_escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn attr_json_into(value: AttrValue, out: &mut String) {
    match value {
        AttrValue::U64(v) => out.push_str(&v.to_string()),
        AttrValue::I64(v) => out.push_str(&v.to_string()),
        AttrValue::F64(v) if v.is_finite() => out.push_str(&v.to_string()),
        AttrValue::F64(_) => out.push_str("null"),
        AttrValue::Bool(v) => out.push_str(&v.to_string()),
        AttrValue::Str(v) => json_escape_into(v, out),
    }
}

fn chrome_trace_events_into(spans: &[TraceSpan], out: &mut String) {
    out.push('[');
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json_escape_into(span.name, out);
        out.push_str(",\"cat\":");
        json_escape_into(span.category, out);
        // Complete ("X") events; timestamps and durations are
        // microseconds with ns precision kept in the fraction.
        out.push_str(&format!(
            ",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{",
            span.start_ns as f64 / 1000.0,
            span.duration_ns() as f64 / 1000.0,
            span.thread
        ));
        out.push_str(&format!(
            "\"trace\":\"{:#018x}\",\"span\":\"{:#018x}\",\"parent\":\"{:#018x}\"",
            span.trace_id, span.span_id, span.parent_id
        ));
        for (key, value) in span.attrs.iter() {
            out.push(',');
            json_escape_into(key, out);
            out.push(':');
            attr_json_into(value, out);
        }
        out.push_str("}}");
    }
    out.push(']');
}

/// Renders `spans` in Chrome Trace Event Format: a JSON object with a
/// `traceEvents` array of complete (`"ph":"X"`) events, `ts`/`dur` in
/// microseconds, `tid` = recorder thread index, and the causal ids in
/// `args` (`trace`/`span`/`parent`, hex). Load the file directly in
/// Perfetto (ui.perfetto.dev) or chrome://tracing.
pub fn chrome_trace_json(spans: &[TraceSpan]) -> String {
    let mut out = String::from("{\"traceEvents\":");
    chrome_trace_events_into(spans, &mut out);
    out.push('}');
    out
}

/// The slowest causal chain per trace, as compact text: for each trace
/// (slowest root first, capped at `MAX_TRACES`), walks from the root
/// through the largest-duration child at every level.
pub fn critical_path_summary(spans: &[TraceSpan]) -> String {
    const MAX_TRACES: usize = 5;
    if spans.is_empty() {
        return String::from("(no spans recorded)\n");
    }
    let by_id: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.span_id, i)).collect();
    let mut children: std::collections::HashMap<u64, Vec<usize>> = std::collections::HashMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for (i, span) in spans.iter().enumerate() {
        if span.parent_id != 0 && by_id.contains_key(&span.parent_id) {
            children.entry(span.parent_id).or_default().push(i);
        } else {
            // True roots, and orphans whose parent was evicted: both
            // head their own chain.
            roots.push(i);
        }
    }
    roots.sort_by_key(|&i| std::cmp::Reverse(spans[i].duration_ns()));
    let mut out = String::new();
    for &root in roots.iter().take(MAX_TRACES) {
        let span = &spans[root];
        out.push_str(&format!(
            "trace {:#018x}: {} spans\n",
            span.trace_id,
            spans.iter().filter(|s| s.trace_id == span.trace_id).count()
        ));
        let mut depth = 0usize;
        let mut cursor = root;
        loop {
            let s = &spans[cursor];
            out.push_str(&format!(
                "{:indent$}{}/{} {:.3}us\n",
                "",
                s.category,
                s.name,
                s.duration_ns() as f64 / 1000.0,
                indent = 2 + depth * 2
            ));
            let Some(next) = children
                .get(&s.span_id)
                .and_then(|kids| kids.iter().max_by_key(|&&i| spans[i].duration_ns()))
            else {
                break;
            };
            cursor = *next;
            depth += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_nesting_links_parent_child() {
        let root_ctx;
        {
            let mut parent = span("test", "trace.parent");
            parent.attr("batch", 7u64);
            root_ctx = parent.ctx();
            {
                let child = span("test", "trace.child");
                assert_eq!(child.ctx().trace_id, root_ctx.trace_id);
            }
        }
        let spans = recorder().snapshot();
        let child = spans
            .iter()
            .find(|s| s.name == "trace.child" && s.trace_id == root_ctx.trace_id)
            .expect("child recorded");
        assert_eq!(child.parent_id, root_ctx.span_id);
        let parent = spans.iter().find(|s| s.span_id == root_ctx.span_id).expect("parent recorded");
        assert_eq!(parent.parent_id, 0);
        assert_eq!(parent.attrs.get("batch"), Some(AttrValue::U64(7)));
        assert!(parent.start_ns <= child.start_ns);
        assert!(parent.end_ns >= child.end_ns);
    }

    #[test]
    fn manual_span_parents_across_threads() {
        let session = begin_manual("test", "manual.session", None);
        let ctx = session.ctx();
        std::thread::spawn(move || {
            let _child = span_child_of(Some(ctx), "test", "manual.remote");
        })
        .join()
        .unwrap();
        session.finish();
        let spans = recorder().snapshot();
        let child = spans
            .iter()
            .find(|s| s.name == "manual.remote" && s.trace_id == ctx.trace_id)
            .expect("remote child recorded");
        assert_eq!(child.parent_id, ctx.span_id);
        assert!(spans.iter().any(|s| s.span_id == ctx.span_id));
    }

    /// A span is 160 bytes (416 when keys and names were `&'static str`s
    /// and values an enum): the shipper records two for every bulk.
    #[test]
    fn a_span_takes_at_most_160_bytes() {
        assert!(std::mem::size_of::<TraceSpan>() <= 160, "{}", std::mem::size_of::<TraceSpan>());
        assert_eq!(std::mem::size_of::<Attrs>(), 80);
    }

    #[test]
    fn attributes_give_back_every_kind_they_took() {
        let values = [
            ("u", AttrValue::U64(u64::MAX)),
            ("i", AttrValue::I64(-7)),
            ("f", AttrValue::F64(-0.25)),
            ("yes", AttrValue::Bool(true)),
            ("no", AttrValue::Bool(false)),
            ("s", AttrValue::Str("a \"string\"")),
            ("u", AttrValue::U64(3)),
            ("last", AttrValue::Str("")),
            ("dropped", AttrValue::U64(9)),
        ];
        let mut attrs = Attrs::default();
        for (key, value) in values {
            attrs.push(key, value);
        }
        let kept: Vec<_> = attrs.iter().collect();
        assert_eq!(kept, values[..MAX_ATTRS].to_vec(), "in order, past the cap dropped");
        assert_eq!(attrs.get("u"), Some(AttrValue::U64(u64::MAX)), "the first match");
        assert_eq!(attrs.get("dropped"), None);
        assert_eq!(format!("{attrs:?}").matches(':').count(), MAX_ATTRS);
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let rec = FlightRecorder::new(4, 99);
        for i in 0..10u64 {
            let mut span = blank_span(i);
            span.attrs.push("i", AttrValue::U64(i));
            rec.record(span);
        }
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 4);
        assert_eq!(rec.recorded(), 10);
        assert_eq!(rec.evicted(), 6);
        let seqs: Vec<u32> = spans.iter().map(|s| s.emit_seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "survivors are the newest suffix");
    }

    #[test]
    fn seeded_ids_are_stable() {
        let a = FlightRecorder::new(8, 42);
        let b = FlightRecorder::new(8, 42);
        let ids_a: Vec<u64> = (0..5).map(|_| a.alloc_id()).collect();
        let ids_b: Vec<u64> = (0..5).map(|_| b.alloc_id()).collect();
        assert_eq!(ids_a, ids_b);
        assert_eq!(ids_a.iter().collect::<std::collections::HashSet<_>>().len(), 5);
    }

    #[test]
    fn disabled_recorder_drops_spans() {
        let rec = FlightRecorder::new(8, 7);
        rec.set_enabled(false);
        rec.record(blank_span(1));
        assert_eq!(rec.snapshot().len(), 0);
        rec.set_enabled(true);
        rec.record(blank_span(2));
        assert_eq!(rec.snapshot().len(), 1);
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let rec = FlightRecorder::new(8, 5);
        let mut span = blank_span(1);
        span.attrs.push("path", AttrValue::Str("a\"b"));
        span.attrs.push("ratio", AttrValue::F64(0.5));
        rec.record(span);
        let json = rec.export_chrome_json();
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(parsed["traceEvents"][0]["ph"], serde_json::json!("X"));
        assert_eq!(parsed["traceEvents"][0]["args"]["path"], serde_json::json!("a\"b"));
    }

    #[test]
    fn critical_path_follows_slowest_child() {
        let mut spans = Vec::new();
        let root = mk(1, 0, "root", 0, 100_000);
        spans.push(root);
        spans.push(mk(2, 1, "fast", 10_000, 20_000));
        spans.push(mk(3, 1, "slow", 20_000, 90_000));
        spans.push(mk(4, 3, "leaf", 30_000, 80_000));
        let text = critical_path_summary(&spans);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[1].contains("root"));
        assert!(lines[2].contains("slow"));
        assert!(lines[3].contains("leaf"));
        assert!(!text.contains("fast\n"));
    }

    /// The retired ring takes a long ring at its size, and many one-span
    /// rings with a regrowth every few, not every one.
    #[test]
    fn the_retired_ring_grows_by_at_least_an_eighth() {
        let shared =
            Shared { capacity: 4_096, evicted: AtomicU64::new(0), registry: Mutex::default() };
        let retire = |spans: u64| {
            let ring = Arc::new(ThreadRing {
                spans: Mutex::new((0..spans).map(blank_span).collect()),
                thread: 0,
                emit_seq: AtomicU32::new(0),
            });
            lock(&shared.registry).live.push(Arc::clone(&ring));
            shared.retire(&ring);
            lock(&shared.registry).retired.capacity()
        };
        assert_eq!(retire(1_000), 1_000, "one long ring: no slack");
        let mut slots = 1_000;
        let mut regrowths = 0;
        for _ in 0..1_000 {
            let now = retire(1);
            regrowths += usize::from(now != slots);
            slots = now;
        }
        assert_eq!(lock(&shared.registry).retired.len(), 2_000);
        assert!(slots <= 2_000 + 2_000 / 8, "{slots} slots for 2 000 spans");
        assert!(regrowths <= 8, "{regrowths} regrowths for 1 000 one-span rings");
        assert_eq!(retire(4_000), 4_096, "never past the capacity");
        assert_eq!(shared.evicted.load(Ordering::Relaxed), 1_904);
    }

    fn blank_span(seed: u64) -> TraceSpan {
        TraceSpan {
            trace_id: seed,
            span_id: seed,
            parent_id: 0,
            category: "test",
            name: "test.span",
            start_ns: seed * 1000 + 1,
            end_ns: seed * 1000 + 500,
            thread: 0,
            emit_seq: 0,
            attrs: Attrs::default(),
        }
    }

    fn mk(span_id: u64, parent_id: u64, name: &'static str, start: u64, end: u64) -> TraceSpan {
        TraceSpan {
            trace_id: 0xabc,
            span_id,
            parent_id,
            category: "t",
            name,
            start_ns: start,
            end_ns: end,
            thread: 0,
            emit_seq: span_id as u32,
            attrs: Attrs::default(),
        }
    }
}
