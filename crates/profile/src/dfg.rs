//! The streaming directly-follows-graph miner.
//!
//! [`DfgMiner`] consumes the same events the diagnosis engine sees — the
//! tracer's typed events or their documents, both read through
//! [`EventView`] — and maintains directly-follows graphs: nodes are the 42
//! catalog syscalls (annotated with their class), an edge `a → b` means
//! syscall `b` directly followed syscall `a` in a sequence. Three graph
//! scopes are mined at once:
//!
//! * **global** — one graph over the whole stream, sequenced per thread;
//! * **per process** — one graph per pid, sequenced per thread;
//! * **per file tag** — one graph per `dev|ino|ts` tag, sequenced by the
//!   order of operations on the tag.
//!
//! Edges carry a transition count plus two log-scale histograms: the
//! latency of the destination syscall and the inter-arrival gap between
//! the two calls. Memory is bounded everywhere: at most
//! [`ProfileConfig::top_k_edges`] edges per graph (the minimum-count edge
//! is evicted, space-saving style), at most [`ProfileConfig::max_graphs`]
//! per-process and per-tag graphs (excess keys fold into the global
//! graph), and a fixed-capacity transition ring for alert attribution.
//! Under pipeline pressure the miner degrades to 1-in-N sampling exactly
//! like the diagnosis engine does.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, OnceLock};

use dio_syscall::{EventView, Field, FileTag, Scalar, SyscallKind};
use dio_telemetry::{Counter, Gauge, HistogramSnapshot, LogHistogram, MetricsRegistry, TraceSpan};
use parking_lot::Mutex;
use serde_json::{json, Value};

/// Configuration of the DFG miner (flat, so it serializes through the
/// tracer's JSON configuration file alongside `DiagnoseConfig`-style
/// blocks).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ProfileConfig {
    /// Maximum edges kept per graph; beyond it the minimum-count edge is
    /// evicted (space-saving policy, counted in `dfg.edges_evicted`).
    pub top_k_edges: usize,
    /// Maximum per-process and per-file-tag graphs each; excess keys
    /// still feed the global graph (counted in `dfg.graphs_dropped`).
    pub max_graphs: usize,
    /// Pipeline pressure (0..1) beyond which mining degrades to sampling
    /// (same semantics as `DiagnoseConfig::degrade_pressure`).
    pub degrade_pressure: f64,
    /// Under degradation, mine 1 in this many events.
    pub degraded_sample_every: u64,
    /// Phase-segmentation window width (ns): dominant edge sets are
    /// compared across consecutive windows of this width.
    pub phase_window_ns: u64,
    /// Size of the dominant edge set compared across phase windows.
    pub phase_top_edges: usize,
    /// Jaccard similarity below which consecutive dominant edge sets are
    /// declared a phase shift (`kind: "phase"` document).
    pub phase_min_similarity: f64,
    /// Capacity of the transition ring backing alert attribution.
    pub ring_capacity: usize,
    /// Attribution look-back (ns) for alerts that carry no window.
    pub attribution_horizon_ns: u64,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            top_k_edges: 32,
            max_graphs: 64,
            degrade_pressure: 0.75,
            degraded_sample_every: 16,
            phase_window_ns: 100_000_000,
            phase_top_edges: 6,
            phase_min_similarity: 0.5,
            ring_capacity: 8_192,
            attribution_horizon_ns: 1_000_000_000,
        }
    }
}

impl ProfileConfig {
    /// Sets the per-graph edge budget.
    pub fn top_k_edges(mut self, k: usize) -> Self {
        self.top_k_edges = k.max(1);
        self
    }

    /// Sets the per-scope graph budget.
    pub fn max_graphs(mut self, n: usize) -> Self {
        self.max_graphs = n;
        self
    }

    /// Sets the degradation trigger (pipeline fill fraction, 0..1).
    pub fn degrade_pressure(mut self, fraction: f64) -> Self {
        self.degrade_pressure = fraction;
        self
    }

    /// Sets the degraded sampling period (mine 1 in `n` events).
    pub fn degraded_sample_every(mut self, n: u64) -> Self {
        self.degraded_sample_every = n.max(1);
        self
    }

    /// Sets the phase-segmentation window width (ns).
    pub fn phase_window_ns(mut self, ns: u64) -> Self {
        self.phase_window_ns = ns.max(1);
        self
    }

    /// Sets the dominant edge-set size compared across phase windows.
    pub fn phase_top_edges(mut self, n: usize) -> Self {
        self.phase_top_edges = n.max(1);
        self
    }

    /// Sets the phase-shift similarity threshold.
    pub fn phase_min_similarity(mut self, s: f64) -> Self {
        self.phase_min_similarity = s;
        self
    }
}

// --------------------------------------------------------------- graphs

type EdgeKey = (SyscallKind, SyscallKind);

/// The catalog's syscalls: a graph counts its nodes at `kind as usize`.
const KINDS: usize = SyscallKind::ALL.len();

/// One edge's transition count and its two histograms. Bucketed at one
/// power of two — enough for "which edge got slow", and 64 buckets at most
/// where a session may hold thousands of edges; exact latencies stay in the
/// session's telemetry histograms.
#[derive(Debug, Clone, Default, PartialEq)]
struct Edge {
    count: u64,
    latency: LogHistogram<0>,
    gap: LogHistogram<0>,
}

/// One bounded directly-follows graph.
#[derive(Debug, Clone, PartialEq)]
struct Graph {
    /// Occurrences per syscall, in catalog order.
    nodes: [u64; KINDS],
    edges: BTreeMap<EdgeKey, Edge>,
    evicted: u64,
}

impl Default for Graph {
    fn default() -> Self {
        Graph { nodes: [0; KINDS], edges: BTreeMap::new(), evicted: 0 }
    }
}

impl Graph {
    fn observe_node(&mut self, kind: SyscallKind) {
        self.nodes[kind as usize] += 1;
    }

    /// Records one transition; an eviction it causes is counted on the
    /// graph and on the miner's running total `evicted`.
    fn observe_edge(
        &mut self,
        from: SyscallKind,
        to: SyscallKind,
        gap: u64,
        lat: u64,
        top_k: usize,
        evicted: &mut u64,
    ) {
        // Known edges take the single-lookup fast path: the steady state
        // of a mined workload repeats a small set of transitions.
        if let Some(edge) = self.edges.get_mut(&(from, to)) {
            edge.count += 1;
            edge.gap.record(gap);
            edge.latency.record(lat);
            return;
        }
        if self.edges.len() >= top_k {
            // Space-saving eviction: drop the minimum-count edge (ties
            // resolve by key order, keeping eviction deterministic).
            let victim = self
                .edges
                .iter()
                .min_by_key(|(k, e)| (e.count, **k))
                .map(|(k, _)| *k)
                .expect("top_k >= 1 so a full graph has a victim");
            self.edges.remove(&victim);
            self.evicted += 1;
            *evicted += 1;
        }
        let edge = self.edges.entry((from, to)).or_default();
        edge.count += 1;
        edge.gap.record(gap);
        edge.latency.record(lat);
    }

    fn snapshot(&self) -> GraphSnapshot {
        GraphSnapshot {
            nodes: (SyscallKind::ALL.iter().zip(self.nodes))
                .filter(|&(_, count)| count > 0)
                .map(|(k, count)| NodeSnapshot {
                    syscall: k.name().to_string(),
                    class: k.class().to_string(),
                    count,
                })
                .collect(),
            edges: self
                .edges
                .iter()
                .map(|((from, to), e)| EdgeSnapshot {
                    from: from.name().to_string(),
                    to: to.name().to_string(),
                    count: e.count,
                    latency: e.latency.snapshot(),
                    gap: e.gap.snapshot(),
                })
                .collect(),
            evicted_edges: self.evicted,
        }
    }
}

/// One node of a [`GraphSnapshot`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NodeSnapshot {
    /// Catalog syscall name.
    pub syscall: String,
    /// The syscall's class (Table I column).
    pub class: String,
    /// Occurrences mined into this graph.
    pub count: u64,
}

/// One directed edge of a [`GraphSnapshot`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EdgeSnapshot {
    /// Source syscall.
    pub from: String,
    /// Destination syscall.
    pub to: String,
    /// Directly-follows transitions observed.
    pub count: u64,
    /// Latency of the destination call (ns), log-bucketed.
    pub latency: HistogramSnapshot,
    /// Inter-arrival gap between the two calls (ns), log-bucketed.
    pub gap: HistogramSnapshot,
}

impl EdgeSnapshot {
    /// The edge rendered `from->to`.
    pub fn label(&self) -> String {
        format!("{}->{}", self.from, self.to)
    }
}

/// Point-in-time copy of one mined graph.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct GraphSnapshot {
    /// Nodes, in catalog order.
    pub nodes: Vec<NodeSnapshot>,
    /// Edges, ordered by (from, to).
    pub edges: Vec<EdgeSnapshot>,
    /// Edges evicted by the top-K bound over this graph's lifetime.
    pub evicted_edges: u64,
}

/// Point-in-time copy of every graph plus miner counters — the payload
/// behind `/api/dfg`, the exporters, and the `dio top` DFG panel.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DfgSnapshot {
    /// Events offered to the miner.
    pub events: u64,
    /// Events skipped by degraded (sampled) mining.
    pub sampled_out: u64,
    /// Directly-follows transitions recorded (global sequence).
    pub transitions: u64,
    /// Events whose syscall name is outside the 42-call catalog.
    pub unknown_syscalls: u64,
    /// Events routed past a full per-process/per-tag graph table.
    pub graphs_dropped: u64,
    /// Phase shifts detected so far.
    pub phase_shifts: u64,
    /// The whole-stream graph.
    pub global: GraphSnapshot,
    /// Per-process graphs, keyed `pid:proc_name`.
    pub processes: BTreeMap<String, GraphSnapshot>,
    /// Per-file-tag graphs, keyed by the `dev|ino|ts` tag.
    pub tags: BTreeMap<String, GraphSnapshot>,
}

// ---------------------------------------------------------------- miner

#[derive(Debug, Clone, Copy)]
struct Transition {
    from: SyscallKind,
    to: SyscallKind,
    pid: u64,
    time_ns: u64,
    latency_ns: u64,
}

#[derive(Debug, Default)]
struct PhaseState {
    window_start: Option<u64>,
    window_edges: BTreeMap<EdgeKey, u64>,
    prev_dominant: Option<BTreeSet<EdgeKey>>,
    shifts: u64,
}

struct ProcGraph {
    name: String,
    graph: Graph,
}

/// A file tag as the miner keys it: the tag, which copies, or — for a
/// document whose `file_tag` is not a tag's canonical spelling (`8:1|42|7`,
/// `07|42|7`) — the text, so that it keeps its own graph under that text.
#[derive(Debug, Clone, Copy)]
enum TagRef<'a> {
    Tag(FileTag),
    Text(&'a str),
}

impl<'a> TagRef<'a> {
    /// The key of an event's `file_tag`, if it has a non-empty one.
    fn of(value: Scalar<'a>) -> Option<TagRef<'a>> {
        match value {
            Scalar::Tag(tag) => Some(TagRef::Tag(tag)),
            Scalar::Str(text) if !text.is_empty() => {
                Some(canonical_tag(text).map_or(TagRef::Text(text), TagRef::Tag))
            }
            _ => None,
        }
    }
}

/// The tag `text` spells, if a tag renders as `text`: three decimal numbers
/// without a sign or a leading zero. Parsing allocates nothing, whatever the
/// text (`FileTag`'s `FromStr` copies it into its error).
fn canonical_tag(text: &str) -> Option<FileTag> {
    let mut parts = text.split('|').map(|n| {
        let canonical = n == "0" || !n.starts_with(['+', '0']);
        n.parse::<u64>().ok().filter(|_| canonical)
    });
    let tag = FileTag::new(parts.next()??, parts.next()??, parts.next()??);
    parts.next().is_none().then_some(tag)
}

/// What the miner keeps of a tag: the last operation on it, and its graph
/// if the table had room for one when the tag was met.
struct TagEntry {
    last: (SyscallKind, u64),
    graph: Option<Box<Graph>>,
}

/// The per-tag table, keyed by [`TagRef`]: text is rendered only when a
/// snapshot is taken, and copied only for a text key not seen before.
#[derive(Default)]
struct TagTable {
    tags: BTreeMap<FileTag, TagEntry>,
    texts: BTreeMap<String, TagEntry>,
}

impl TagTable {
    fn len(&self) -> usize {
        self.tags.len() + self.texts.len()
    }

    fn get_mut(&mut self, key: TagRef<'_>) -> Option<&mut TagEntry> {
        match key {
            TagRef::Tag(tag) => self.tags.get_mut(&tag),
            TagRef::Text(text) => self.texts.get_mut(text),
        }
    }

    fn insert(&mut self, key: TagRef<'_>, entry: TagEntry) -> &mut TagEntry {
        match key {
            TagRef::Tag(tag) => self.tags.entry(tag).or_insert(entry),
            TagRef::Text(text) => self.texts.entry(text.to_string()).or_insert(entry),
        }
    }

    fn remove(&mut self, key: TagRef<'_>) {
        match key {
            TagRef::Tag(tag) => self.tags.remove(&tag),
            TagRef::Text(text) => self.texts.remove(text),
        };
    }

    /// Every tag graph, under the text documents spell its tag as.
    fn graphs(&self) -> impl Iterator<Item = (String, &Graph)> {
        let tags = self.tags.iter();
        let tags = tags.filter_map(|(tag, e)| e.graph.as_deref().map(|g| (tag.to_string(), g)));
        let texts = self.texts.iter();
        tags.chain(texts.filter_map(|(text, e)| e.graph.as_deref().map(|g| (text.clone(), g))))
    }
}

#[derive(Default)]
struct MinerInner {
    global: Graph,
    last_by_tid: BTreeMap<u64, (SyscallKind, u64)>,
    procs: BTreeMap<u64, ProcGraph>,
    tags: TagTable,
    /// Tags with a graph.
    tag_graphs: usize,
    ring: VecDeque<Transition>,
    phase: PhaseState,
    phase_docs: Vec<Value>,
    events: u64,
    sampled_out: u64,
    degraded_batches: u64,
    transitions: u64,
    /// Edges evicted from any graph: the sum of every `Graph::evicted`,
    /// kept as they happen instead of summed over the graphs per batch.
    edges_evicted: u64,
    unknown_syscalls: u64,
    graphs_dropped: u64,
    attributions: u64,
    sample_tick: u64,
}

struct DfgTelemetry {
    events: Arc<Counter>,
    sampled_out: Arc<Counter>,
    degraded_batches: Arc<Counter>,
    transitions: Arc<Counter>,
    edges_evicted: Arc<Counter>,
    graphs_dropped: Arc<Counter>,
    phase_shifts: Arc<Counter>,
    attributions: Arc<Counter>,
    edges: Arc<Gauge>,
    graphs: Arc<Gauge>,
}

/// The streaming DFG miner (see the module docs).
pub struct DfgMiner {
    config: ProfileConfig,
    inner: Mutex<MinerInner>,
    telemetry: OnceLock<DfgTelemetry>,
}

impl std::fmt::Debug for DfgMiner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("DfgMiner")
            .field("events", &inner.events)
            .field("transitions", &inner.transitions)
            .field("edges", &inner.global.edges.len())
            .finish()
    }
}

impl DfgMiner {
    /// Builds a miner from `config`.
    pub fn new(config: ProfileConfig) -> Arc<Self> {
        Arc::new(DfgMiner {
            config,
            inner: Mutex::new(MinerInner::default()),
            telemetry: OnceLock::new(),
        })
    }

    /// The miner's configuration.
    pub fn config(&self) -> &ProfileConfig {
        &self.config
    }

    /// Registers the `dfg.*` counters and gauges with a session registry.
    pub fn bind_telemetry(&self, registry: &MetricsRegistry) {
        let _ = self.telemetry.set(DfgTelemetry {
            events: registry.counter("dfg.events"),
            sampled_out: registry.counter("dfg.events.sampled_out"),
            degraded_batches: registry.counter("dfg.batches.degraded"),
            transitions: registry.counter("dfg.transitions"),
            edges_evicted: registry.counter("dfg.edges.evicted"),
            graphs_dropped: registry.counter("dfg.graphs.dropped"),
            phase_shifts: registry.counter("dfg.phase.shifts"),
            attributions: registry.counter("dfg.attributions"),
            edges: registry.gauge("dfg.edges"),
            graphs: registry.gauge("dfg.graphs"),
        });
    }

    /// Mines a batch at zero pressure (every event).
    pub fn observe_batch<E: EventView>(&self, events: &[E]) {
        self.observe_batch_with_pressure(events, 0.0);
    }

    /// Mines a batch of events, typed or documents.
    ///
    /// `pressure` is the caller's pipeline fill fraction (0..1); at or
    /// above [`ProfileConfig::degrade_pressure`] the miner samples 1 in
    /// [`ProfileConfig::degraded_sample_every`] events instead of mining
    /// all of them, so a loaded pipeline never waits on profiling.
    pub fn observe_batch_with_pressure<E: EventView>(&self, events: &[E], pressure: f64) {
        self.observe_views(events.len(), &mut events.iter().map(|e| e as &dyn EventView), pressure);
    }

    fn observe_views(
        &self,
        count: usize,
        events: &mut dyn Iterator<Item = &dyn EventView>,
        pressure: f64,
    ) {
        if count == 0 {
            return;
        }
        let degraded =
            pressure >= self.config.degrade_pressure && self.config.degraded_sample_every > 1;
        let mut inner = self.inner.lock();
        if degraded {
            inner.degraded_batches += 1;
        }
        let before_sampled = inner.sampled_out;
        let before_transitions = inner.transitions;
        let before_evicted = inner.edges_evicted;
        let before_dropped = inner.graphs_dropped;
        let before_shifts = inner.phase.shifts;
        for event in events {
            inner.events += 1;
            if degraded {
                let tick = inner.sample_tick;
                inner.sample_tick += 1;
                if !tick.is_multiple_of(self.config.degraded_sample_every) {
                    inner.sampled_out += 1;
                    continue;
                }
            }
            self.observe_locked(&mut inner, event);
        }
        if let Some(t) = self.telemetry.get() {
            t.events.add(count as u64);
            t.sampled_out.add(inner.sampled_out - before_sampled);
            if degraded {
                t.degraded_batches.inc();
            }
            t.transitions.add(inner.transitions - before_transitions);
            t.edges_evicted.add(inner.edges_evicted - before_evicted);
            t.graphs_dropped.add(inner.graphs_dropped - before_dropped);
            t.phase_shifts.add(inner.phase.shifts - before_shifts);
            t.edges.set(inner.global.edges.len() as u64);
            t.graphs.set((1 + inner.procs.len() + inner.tag_graphs) as u64);
        }
    }

    fn observe_locked(&self, inner: &mut MinerInner, event: &dyn EventView) {
        let Some(kind) = event.kind() else {
            inner.unknown_syscalls += 1;
            return;
        };
        let time = event.time();
        let latency = event.uint(Field::LatencyNs).unwrap_or(0);
        let pid = event.uint(Field::Pid).unwrap_or(0);
        let tid = event.uint(Field::Tid).unwrap_or(pid);
        let top_k = self.config.top_k_edges;

        // Global graph, sequenced per thread.
        inner.global.observe_node(kind);
        let prev = inner.last_by_tid.insert(tid, (kind, time));
        if let Some((from, from_time)) = prev {
            let gap = time.saturating_sub(from_time);
            inner.global.observe_edge(from, kind, gap, latency, top_k, &mut inner.edges_evicted);
            inner.transitions += 1;
            if inner.ring.len() >= self.config.ring_capacity.max(1) {
                inner.ring.pop_front();
            }
            inner.ring.push_back(Transition {
                from,
                to: kind,
                pid,
                time_ns: time,
                latency_ns: latency,
            });
            self.phase_observe(inner, (from, kind), time);
        } else {
            // The thread's first event still opens the phase clock.
            self.phase_clock(inner, time);
        }

        // Per-process graph (same per-thread sequence, scoped to the pid).
        // A known process is one lookup; a new one is admitted while there
        // is room.
        let max_graphs = self.config.max_graphs;
        let room = inner.procs.len() < max_graphs;
        let proc = match inner.procs.get_mut(&pid) {
            Some(proc) => Some(proc),
            None if room => Some(inner.procs.entry(pid).or_insert_with(|| ProcGraph {
                name: event.str(Field::ProcName).unwrap_or("?").to_string(),
                graph: Graph::default(),
            })),
            None => None,
        };
        if let Some(ProcGraph { graph, .. }) = proc {
            graph.observe_node(kind);
            if let Some((from, from_time)) = prev {
                let gap = time.saturating_sub(from_time);
                graph.observe_edge(from, kind, gap, latency, top_k, &mut inner.edges_evicted);
            }
        } else {
            inner.graphs_dropped += 1;
        }

        // Per-file-tag graph, sequenced by operations on the tag and keyed
        // by the tag (any non-empty string a document spells otherwise by
        // its text): one lookup finds the tag's last operation and its
        // graph, and the steady state renders and allocates nothing.
        let Some(tag) = event.scalar(Field::FileTag).and_then(TagRef::of) else { return };
        let (tag_prev, entry) = match inner.tags.get_mut(tag) {
            Some(entry) => (Some(std::mem::replace(&mut entry.last, (kind, time))), entry),
            None => (None, inner.tags.insert(tag, TagEntry { last: (kind, time), graph: None })),
        };
        if entry.graph.is_none() && inner.tag_graphs < max_graphs {
            entry.graph = Some(Box::default());
            inner.tag_graphs += 1;
        }
        if let Some(graph) = entry.graph.as_deref_mut() {
            graph.observe_node(kind);
            if let Some((from, from_time)) = tag_prev {
                let gap = time.saturating_sub(from_time);
                graph.observe_edge(from, kind, gap, latency, top_k, &mut inner.edges_evicted);
            }
            return;
        }
        inner.graphs_dropped += 1;
        if inner.tags.len() > max_graphs.saturating_mul(4).max(1024) {
            // Keep the sequencing table bounded too: forget dropped tags
            // instead of tracking them forever.
            inner.tags.remove(tag);
        }
    }

    // ------------------------------------------------------------ phases

    fn phase_clock(&self, inner: &mut MinerInner, time: u64) {
        let width = self.config.phase_window_ns.max(1);
        match inner.phase.window_start {
            None => inner.phase.window_start = Some((time / width) * width),
            Some(start) if time >= start + width => self.phase_seal(inner, time),
            Some(_) => {}
        }
    }

    fn phase_observe(&self, inner: &mut MinerInner, edge: EdgeKey, time: u64) {
        self.phase_clock(inner, time);
        *inner.phase.window_edges.entry(edge).or_insert(0) += 1;
    }

    /// Seals the current phase window: compares its dominant edge set to
    /// the previous window's and emits a `kind: "phase"` document when
    /// the sets diverge below the similarity threshold.
    fn phase_seal(&self, inner: &mut MinerInner, now: u64) {
        let width = self.config.phase_window_ns.max(1);
        let Some(start) = inner.phase.window_start else { return };
        let mut ranked: Vec<(EdgeKey, u64)> =
            inner.phase.window_edges.iter().map(|(k, &c)| (*k, c)).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(self.config.phase_top_edges.max(1));
        let dominant: BTreeSet<EdgeKey> = ranked.iter().map(|(k, _)| *k).collect();
        if let Some(prev) = &inner.phase.prev_dominant {
            if !prev.is_empty() && !dominant.is_empty() {
                let both = prev.intersection(&dominant).count();
                let either = prev.union(&dominant).count();
                let similarity = both as f64 / either.max(1) as f64;
                if similarity < self.config.phase_min_similarity {
                    inner.phase.shifts += 1;
                    let label = |set: &BTreeSet<EdgeKey>| -> Vec<String> {
                        set.iter().map(|(a, b)| format!("{}->{}", a.name(), b.name())).collect()
                    };
                    let entered =
                        label(&dominant.difference(prev).copied().collect::<BTreeSet<_>>());
                    let left = label(&prev.difference(&dominant).copied().collect::<BTreeSet<_>>());
                    let doc = json!({
                        "kind": "phase",
                        "seq": inner.phase.shifts,
                        "time": start + width,
                        "window_start_ns": start,
                        "window_end_ns": start + width,
                        "similarity": similarity,
                        "dominant": label(&dominant),
                        "previous": label(prev),
                        "entered": entered,
                        "left": left,
                    });
                    inner.phase_docs.push(doc);
                    // Bound the unshipped phase log like the alert log.
                    if inner.phase_docs.len() > 256 {
                        inner.phase_docs.remove(0);
                    }
                }
            }
        }
        if !dominant.is_empty() {
            inner.phase.prev_dominant = Some(dominant);
        }
        inner.phase.window_edges.clear();
        inner.phase.window_start = Some((now / width) * width);
    }

    /// Seals the in-progress phase window (end of stream).
    pub fn finish(&self) {
        let mut inner = self.inner.lock();
        let width = self.config.phase_window_ns.max(1);
        if let Some(start) = inner.phase.window_start {
            self.phase_seal(&mut inner, start + width);
        }
        let shifts = inner.phase.shifts;
        drop(inner);
        if let Some(t) = self.telemetry.get() {
            let counted = t.phase_shifts.get();
            if shifts > counted {
                t.phase_shifts.add(shifts - counted);
            }
        }
    }

    /// Drains the `kind: "phase"` documents emitted since the last drain
    /// (for shipping into the session's telemetry index).
    pub fn drain_phase_docs(&self) -> Vec<Value> {
        std::mem::take(&mut self.inner.lock().phase_docs)
    }

    /// Phase shifts detected so far.
    pub fn phase_shifts(&self) -> u64 {
        self.inner.lock().phase.shifts
    }

    // ---------------------------------------------------------- snapshot

    /// A point-in-time copy of every graph plus the miner counters.
    pub fn snapshot(&self) -> DfgSnapshot {
        let inner = self.inner.lock();
        DfgSnapshot {
            events: inner.events,
            sampled_out: inner.sampled_out,
            transitions: inner.transitions,
            unknown_syscalls: inner.unknown_syscalls,
            graphs_dropped: inner.graphs_dropped,
            phase_shifts: inner.phase.shifts,
            global: inner.global.snapshot(),
            processes: inner
                .procs
                .iter()
                .map(|(pid, p)| (format!("{pid}:{}", p.name), p.graph.snapshot()))
                .collect(),
            tags: inner.tags.graphs().map(|(tag, graph)| (tag, graph.snapshot())).collect(),
        }
    }

    // ------------------------------------------------------- attribution

    /// Computes the critical-path attribution for an alert window.
    ///
    /// The DFG delta over `[window_start, window_end]` (falling back to
    /// [`ProfileConfig::attribution_horizon_ns`] behind `time_ns` for
    /// un-windowed alerts) is read from the transition ring; the edge
    /// whose share of transition latency grew most against its full-trace
    /// baseline is named the critical edge. Flight-recorder `spans`
    /// overlapping the window are attached as corroborating evidence.
    /// Returns `None` only when the miner has seen no transitions at all.
    pub fn attribute(
        &self,
        window_start: Option<u64>,
        window_end: Option<u64>,
        time_ns: u64,
        subject: &str,
        spans: &[TraceSpan],
    ) -> Option<Value> {
        let mut inner = self.inner.lock();
        let we = window_end.unwrap_or(time_ns).max(1);
        let ws = window_start
            .unwrap_or_else(|| we.saturating_sub(self.config.attribution_horizon_ns.max(1)));
        let subject_pid: Option<u64> = subject.parse().ok();

        let in_window: Vec<Transition> = {
            let windowed =
                inner.ring.iter().filter(|t| t.time_ns >= ws && t.time_ns <= we).copied();
            match subject_pid {
                Some(pid) => {
                    let scoped: Vec<Transition> = inner
                        .ring
                        .iter()
                        .filter(|t| t.time_ns >= ws && t.time_ns <= we && t.pid == pid)
                        .copied()
                        .collect();
                    if scoped.is_empty() {
                        windowed.collect()
                    } else {
                        scoped
                    }
                }
                None => windowed.collect(),
            }
        };
        let window_hit = !in_window.is_empty();
        let candidates: Vec<Transition> = if window_hit {
            in_window
        } else {
            // Clock skew or an empty window: fall back to the ring tail,
            // the transitions leading up to the alert.
            inner.ring.iter().rev().take(256).copied().collect()
        };
        if candidates.is_empty() {
            return None;
        }

        // Window aggregation per edge.
        let mut agg: BTreeMap<EdgeKey, (u64, u64)> = BTreeMap::new();
        let mut window_total = 0u64;
        for t in &candidates {
            let slot = agg.entry((t.from, t.to)).or_insert((0, 0));
            slot.0 += 1;
            slot.1 = slot.1.saturating_add(t.latency_ns);
            window_total = window_total.saturating_add(t.latency_ns);
        }
        // Full-trace baseline shares from the global graph.
        let baseline_total: u64 =
            inner.global.edges.values().map(|e| e.latency.sum()).fold(0, u64::saturating_add);
        let share = |sum: u64, total: u64| {
            if total == 0 {
                0.0
            } else {
                sum as f64 / total as f64
            }
        };
        let (edge, (count, lat_sum), growth) = agg
            .iter()
            .map(|(k, v)| {
                let window_share = share(v.1, window_total);
                let base = inner
                    .global
                    .edges
                    .get(k)
                    .map(|e| share(e.latency.sum(), baseline_total))
                    .unwrap_or(0.0);
                (*k, *v, window_share - base)
            })
            .max_by(|a, b| {
                a.2.partial_cmp(&b.2)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.1 .1.cmp(&b.1 .1))
                    .then(b.0.cmp(&a.0))
            })?;
        let (from, to) = edge;
        let edge_hist = inner.global.edges.get(&edge).map(|e| e.latency.snapshot());

        // Flight-recorder spans overlapping the window (or, when the
        // clocks do not line up, the most recent spans), largest first.
        let mut overlapping: Vec<&TraceSpan> =
            spans.iter().filter(|s| s.start_ns < we && s.end_ns > ws).collect();
        let spans_aligned = !overlapping.is_empty();
        if !spans_aligned {
            overlapping = spans.iter().collect();
            overlapping.sort_by_key(|s| std::cmp::Reverse(s.end_ns));
            overlapping.truncate(8);
        }
        overlapping.sort_by(|a, b| {
            (b.end_ns - b.start_ns).cmp(&(a.end_ns - a.start_ns)).then(a.name.cmp(b.name))
        });
        let span_rows: Vec<Value> = overlapping
            .iter()
            .take(3)
            .map(|s| {
                json!({
                    "name": s.name,
                    "category": s.category,
                    "trace_id": format!("{:016x}", s.trace_id),
                    "duration_ns": s.end_ns - s.start_ns,
                })
            })
            .collect();

        inner.attributions += 1;
        let phase = inner.phase.shifts;
        drop(inner);
        if let Some(t) = self.telemetry.get() {
            t.attributions.inc();
        }
        let window_share = share(lat_sum, window_total);
        Some(json!({
            "edge": format!("{}->{}", from.name(), to.name()),
            "from": from.name(),
            "to": to.name(),
            "from_class": from.class().to_string(),
            "to_class": to.class().to_string(),
            "window": { "start_ns": ws, "end_ns": we, "hit": window_hit },
            "transitions": count,
            "latency_ns": lat_sum,
            "latency_share": window_share,
            "baseline_share": window_share - growth,
            "growth": growth,
            "latency_p50_ns": edge_hist.map(|h| h.p50),
            "latency_p99_ns": edge_hist.map(|h| h.p99),
            "phase": phase,
            "spans_aligned": spans_aligned,
            "spans": span_rows,
        }))
    }

    /// Attributions computed so far.
    pub fn attributions(&self) -> u64 {
        self.inner.lock().attributions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn ev(time: u64, tid: u64, syscall: &str, latency: u64) -> Value {
        json!({
            "time": time, "pid": 1, "tid": tid, "proc_name": "app",
            "syscall": syscall, "latency_ns": latency, "ret_val": 1,
            "file_tag": "7|12|100",
        })
    }

    #[test]
    fn mines_per_thread_transitions() {
        let miner = DfgMiner::new(ProfileConfig::default());
        miner.observe_batch(&[
            ev(10, 1, "write", 100),
            ev(20, 1, "fsync", 900),
            ev(30, 2, "read", 50),
            ev(40, 1, "write", 110),
        ]);
        let snap = miner.snapshot();
        assert_eq!(snap.events, 4);
        assert_eq!(snap.transitions, 2, "tid 2's first event opens no edge");
        let labels: Vec<String> = snap.global.edges.iter().map(|e| e.label()).collect();
        assert_eq!(labels, vec!["write->fsync", "fsync->write"]);
        let wf = &snap.global.edges[0];
        assert_eq!(wf.count, 1);
        assert_eq!(wf.latency.count, 1);
        assert_eq!(wf.latency.max, 900, "edge latency is the destination call's");
        assert_eq!(wf.gap.max, 10);
    }

    #[test]
    fn tag_graphs_sequence_across_threads() {
        let miner = DfgMiner::new(ProfileConfig::default());
        miner.observe_batch(&[ev(10, 1, "write", 10), ev(20, 2, "read", 20)]);
        let snap = miner.snapshot();
        assert_eq!(snap.tags.len(), 1);
        let (tag, graph) = snap.tags.iter().next().unwrap();
        assert_eq!(tag, "7|12|100");
        assert_eq!(graph.edges.len(), 1, "tag sequence crosses threads");
        assert_eq!(graph.edges[0].label(), "write->read");
        assert!(snap.global.edges.is_empty(), "per-thread global sequence has no edge yet");
    }

    /// A tag is keyed by the tag whichever door it came through; a
    /// `file_tag` that is not a tag's spelling keeps its own graph under its
    /// text, and a non-canonical spelling is not folded into the tag's.
    #[test]
    fn tags_are_keyed_by_the_tag_and_odd_spellings_by_their_text() {
        use dio_syscall::SyscallEvent;
        let miner = DfgMiner::new(ProfileConfig::default());
        let mut typed = SyscallEvent::synthetic(SyscallKind::Fsync);
        typed.time_enter_ns = 30;
        typed.file_tag = Some(FileTag::new(7, 12, 100));
        let spelled = |time: u64, syscall: &str, tag: &str| {
            let mut doc = ev(time, 1, syscall, 10);
            doc["file_tag"] = json!(tag);
            doc
        };
        miner.observe_batch(&[
            ev(10, 1, "write", 10),
            spelled(20, "read", "8:1|42|1000"),
            spelled(25, "lseek", "8:1|42|1000"),
            spelled(27, "close", "007|12|100"),
            spelled(27, "close", "+7|12|100"),
            spelled(28, "close", ""),
        ]);
        miner.observe_batch(&[typed]);
        let snap = miner.snapshot();
        let keys: Vec<&str> = snap.tags.keys().map(String::as_str).collect();
        assert_eq!(keys, ["+7|12|100", "007|12|100", "7|12|100", "8:1|42|1000"]);
        let labels = |tag: &str| -> Vec<String> {
            snap.tags[tag].edges.iter().map(EdgeSnapshot::label).collect()
        };
        assert_eq!(labels("7|12|100"), ["write->fsync"], "a document and a typed event");
        assert_eq!(labels("8:1|42|1000"), ["read->lseek"]);
        assert!(labels("007|12|100").is_empty() && labels("+7|12|100").is_empty());
        let nodes: Vec<(&str, u64)> =
            snap.global.nodes.iter().map(|n| (n.syscall.as_str(), n.count)).collect();
        assert_eq!(nodes, [("read", 1), ("write", 1), ("lseek", 1), ("close", 3), ("fsync", 1)]);
    }

    #[test]
    fn a_tag_is_read_only_from_its_own_spelling() {
        for tag in [FileTag::new(0, 0, 0), FileTag::new(7, 12, 100), FileTag::new(u64::MAX, 1, 2)] {
            assert_eq!(canonical_tag(&tag.to_string()), Some(tag));
        }
        for odd in ["7|12", "7|12|100|1", "7||100", "07|12|100", "+7|12|100", "8:1|42|7"] {
            assert_eq!(canonical_tag(odd), None, "{odd}");
        }
        assert_eq!(canonical_tag("18446744073709551616|1|2"), None, "past u64");
    }

    #[test]
    fn top_k_evicts_the_minimum_count_edge() {
        let miner = DfgMiner::new(ProfileConfig::default().top_k_edges(2));
        // write->fsync twice, then fsync->read once, then read->openat
        // (forces an eviction of the weakest edge).
        miner.observe_batch(&[
            ev(1, 1, "write", 1),
            ev(2, 1, "fsync", 1),
            ev(3, 1, "write", 1),
            ev(4, 1, "fsync", 1),
            ev(5, 1, "read", 1),
            ev(6, 1, "openat", 1),
        ]);
        let snap = miner.snapshot();
        assert_eq!(snap.global.edges.len(), 2);
        assert!(snap.global.evicted_edges >= 1);
        assert!(snap.global.edges.iter().any(|e| e.label() == "write->fsync"));
    }

    /// The evicted counter is a running total, not a per-batch sum over the
    /// graphs: after 64 overflowing graphs it must equal that sum.
    #[test]
    fn evicted_counter_equals_the_sum_over_sixty_four_graphs() {
        let miner = DfgMiner::new(ProfileConfig::default().top_k_edges(2));
        let registry = MetricsRegistry::new();
        miner.bind_telemetry(&registry);
        const SYSCALLS: [&str; 7] =
            ["openat", "read", "write", "fsync", "close", "lseek", "pread64"];
        // The global graph, 31 processes and 32 tags, each walked through
        // more distinct transitions than two edges hold.
        let docs: Vec<Value> = (0..40u64)
            .flat_map(|step| (0..31u64).map(move |p| (step, p)))
            .map(|(step, p)| {
                json!({
                    "time": step * 100 + p, "pid": p, "tid": p, "proc_name": "app",
                    "syscall": SYSCALLS[((step * (p + 2) + step / 3) % 7) as usize],
                    "latency_ns": 10, "file_tag": format!("7|{}|1", (p + step) % 32),
                })
            })
            .collect();
        for batch in docs.chunks(13) {
            miner.observe_batch(batch);
        }
        let snap = miner.snapshot();
        assert_eq!(1 + snap.processes.len() + snap.tags.len(), 64);
        let graphs = || snap.processes.values().chain(snap.tags.values()).chain([&snap.global]);
        assert!(graphs().all(|g| g.evicted_edges > 0), "every graph overflowed");
        let recounted: u64 = graphs().map(|g| g.evicted_edges).sum();
        assert_eq!(registry.snapshot().counter("dfg.edges.evicted"), recounted);
        assert_eq!(registry.snapshot().gauge("dfg.graphs"), 64);
    }

    #[test]
    fn unknown_syscalls_are_counted_not_mined() {
        let miner = DfgMiner::new(ProfileConfig::default());
        miner.observe_batch(&[ev(1, 1, "write", 1), ev(2, 1, "notasyscall", 1)]);
        let snap = miner.snapshot();
        assert_eq!(snap.unknown_syscalls, 1);
        assert_eq!(snap.transitions, 0);
    }

    #[test]
    fn pressure_degrades_to_sampling() {
        let config = ProfileConfig::default().degrade_pressure(0.5).degraded_sample_every(4);
        let miner = DfgMiner::new(config);
        let registry = MetricsRegistry::new();
        miner.bind_telemetry(&registry);
        let docs: Vec<Value> = (0..100).map(|i| ev(i, 1, "read", 1)).collect();
        miner.observe_batch_with_pressure(&docs, 0.9);
        let snap = miner.snapshot();
        assert_eq!(snap.events, 100);
        assert_eq!(snap.sampled_out, 75, "3 of 4 skipped");
        let t = registry.snapshot();
        assert_eq!(t.counter("dfg.events.sampled_out"), 75);
        assert_eq!(t.counter("dfg.batches.degraded"), 1);
    }

    #[test]
    fn phase_shift_emits_a_typed_document() {
        let config = ProfileConfig::default()
            .phase_window_ns(1_000)
            .phase_top_edges(2)
            .phase_min_similarity(0.6);
        let miner = DfgMiner::new(config);
        // Window 0: read-heavy. Window 1: fsync/write-heavy.
        let mut docs = Vec::new();
        for i in 0..10u64 {
            docs.push(ev(i * 50, 1, if i % 2 == 0 { "read" } else { "pread64" }, 10));
        }
        for i in 0..10u64 {
            docs.push(ev(1_000 + i * 50, 1, if i % 2 == 0 { "write" } else { "fsync" }, 10));
        }
        docs.push(ev(2_500, 1, "close", 10));
        miner.observe_batch(&docs);
        assert_eq!(miner.phase_shifts(), 1, "read phase -> flush phase");
        let phases = miner.drain_phase_docs();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0]["kind"], "phase");
        assert!(phases[0]["similarity"].as_f64().unwrap() < 0.6);
        assert!(phases[0]["entered"].as_array().is_some_and(|v| !v.is_empty()));
        assert!(miner.drain_phase_docs().is_empty(), "drain clears");
    }

    #[test]
    fn attribution_names_the_grown_edge() {
        let miner = DfgMiner::new(ProfileConfig::default());
        // Baseline: cheap read->read traffic, then a slow write->fsync
        // burst inside the alert window.
        let mut docs = Vec::new();
        for i in 0..50u64 {
            docs.push(ev(i * 10, 1, "read", 100));
        }
        for i in 0..5u64 {
            docs.push(ev(10_000 + i * 20, 1, if i % 2 == 0 { "write" } else { "fsync" }, 50_000));
        }
        miner.observe_batch(&docs);
        let block = miner
            .attribute(Some(10_000), Some(11_000), 11_000, "1", &[])
            .expect("transitions exist");
        let edge = block["edge"].as_str().unwrap();
        assert!(edge == "write->fsync" || edge == "fsync->write", "got {edge}");
        assert_eq!(block["window"]["hit"], true);
        assert!(block["growth"].as_f64().unwrap() > 0.0);
        assert!(block["latency_p99_ns"].as_u64().is_some());
        assert_eq!(miner.attributions(), 1);
    }

    #[test]
    fn attribution_falls_back_to_ring_tail_outside_the_window() {
        let miner = DfgMiner::new(ProfileConfig::default());
        miner.observe_batch(&[ev(10, 1, "write", 5), ev(20, 1, "fsync", 5)]);
        let block =
            miner.attribute(Some(1_000_000), Some(2_000_000), 2_000_000, "app", &[]).unwrap();
        assert_eq!(block["window"]["hit"], false);
        assert_eq!(block["edge"], "write->fsync");
    }

    #[test]
    fn attribution_is_none_only_without_transitions() {
        let miner = DfgMiner::new(ProfileConfig::default());
        assert!(miner.attribute(None, None, 100, "x", &[]).is_none());
        miner.observe_batch(&[ev(1, 1, "read", 1)]);
        assert!(miner.attribute(None, None, 100, "x", &[]).is_none(), "one event, no edge");
    }

    #[test]
    fn config_json_roundtrip() {
        let config = ProfileConfig::default().top_k_edges(8).phase_window_ns(5_000);
        let json = serde_json::to_string(&config).unwrap();
        let parsed: ProfileConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, config);
    }
}
