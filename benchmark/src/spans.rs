//! Benchmark-side spans around each call into a layer.
//!
//! Recorded only in a `--trace 1` run, held in memory, written once at the
//! end as Chrome Trace Event JSON. Spans are opened and closed on the
//! benchmark's own thread around calls into the pipeline; nothing is
//! recorded inside the measured crates.

use std::time::Instant;

use serde_json::{json, Value};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// 0 is the discarded warm-up trial, 1 the measured one.
    pub trial: u32,
    /// 1 is the generator / query thread, 2 the live `dio top` thread.
    pub lane: u32,
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pub trial: u32,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), trial: 0 }
    }

    /// The instant span timestamps count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span { name, start_ns, end_ns: 0, parent, trial: self.trial, lane: 1 });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("end() without begin()");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Adds spans measured on another thread (`(start, end)` on this
    /// recorder's clock) under the innermost open span.
    pub fn adopt(&mut self, name: &'static str, lane: u32, intervals: &[(u64, u64)]) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        for &(start_ns, end_ns) in intervals {
            self.spans.push(Span { name, start_ns, end_ns, parent, trial: self.trial, lane });
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Cost of recording one span, measured on a scratch recorder.
    pub fn cost_per_span_ns() -> f64 {
        const N: usize = 100_000;
        let mut scratch = Recorder::new(true);
        let start = Instant::now();
        for _ in 0..N {
            scratch.begin("calibrate");
            scratch.end();
        }
        std::hint::black_box(&scratch.spans);
        start.elapsed().as_nanos() as f64 / N as f64
    }

    /// Chrome Trace Event JSON. A span's self time is its duration minus
    /// the part its children on the same lane cover.
    pub fn to_chrome_trace(&self) -> Value {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                if self.spans[p].lane == s.lane {
                    child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
                }
            }
        }
        let events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let dur = s.end_ns.saturating_sub(s.start_ns);
                json!({
                    "name": s.name,
                    "ph": "X",
                    "pid": 1,
                    "tid": s.lane,
                    "ts": s.start_ns as f64 / 1e3,
                    "dur": dur as f64 / 1e3,
                    "args": {
                        "id": id,
                        "parent": s.parent,
                        "trial": s.trial,
                        "self_us": dur.saturating_sub(child_ns[id]) as f64 / 1e3,
                    },
                })
            })
            .collect();
        json!({ "displayTimeUnit": "ms", "traceEvents": events })
    }
}
