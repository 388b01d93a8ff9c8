//! Windowed latency percentiles: the data behind Fig. 3.

use std::collections::BTreeMap;

use dio_telemetry::LogHistogram;

/// One time window's latency summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSummary {
    /// Window start timestamp (ns).
    pub start_ns: u64,
    /// Samples in the window.
    pub count: u64,
    /// Median (ns).
    pub p50_ns: u64,
    /// 99th percentile (ns) — the Fig. 3 series.
    pub p99_ns: u64,
    /// Maximum (ns).
    pub max_ns: u64,
}

/// Latency samples bucketed into fixed time windows, producing the
/// per-window p99 series that Fig. 3 plots. Each window is a
/// `dio-telemetry` [`LogHistogram`] at 32 buckets per power of two (≈ 3 %
/// value resolution).
#[derive(Debug, Clone)]
pub struct WindowedLatency {
    window_ns: u64,
    windows: BTreeMap<u64, LogHistogram<5>>,
}

impl WindowedLatency {
    /// Creates a recorder with the given window width.
    pub fn new(window_ns: u64) -> Self {
        WindowedLatency { window_ns: window_ns.max(1), windows: BTreeMap::new() }
    }

    /// The configured window width (ns).
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Records a sample observed at absolute time `at_ns`.
    pub fn record(&mut self, at_ns: u64, latency_ns: u64) {
        let slot = at_ns / self.window_ns * self.window_ns;
        self.windows.entry(slot).or_default().record(latency_ns);
    }

    /// Merges another recorder (same window width) into this one.
    ///
    /// # Panics
    ///
    /// Panics if the window widths differ.
    pub fn merge(&mut self, other: &WindowedLatency) {
        assert_eq!(self.window_ns, other.window_ns, "window widths must match");
        for (slot, hist) in &other.windows {
            self.windows.entry(*slot).or_default().merge(hist);
        }
    }

    /// Time-ordered per-window summaries.
    pub fn summaries(&self) -> Vec<WindowSummary> {
        self.windows
            .iter()
            .map(|(&start_ns, h)| {
                let s = h.snapshot();
                WindowSummary {
                    start_ns,
                    count: s.count,
                    p50_ns: s.p50,
                    p99_ns: s.p99,
                    max_ns: s.max,
                }
            })
            .collect()
    }

    /// Collapses every window into one histogram.
    pub fn overall(&self) -> LogHistogram<5> {
        let mut out = LogHistogram::new();
        for h in self.windows.values() {
            out.merge(h);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_partition_time() {
        let mut w = WindowedLatency::new(1_000);
        w.record(100, 10);
        w.record(900, 20);
        w.record(1_100, 30);
        w.record(5_500, 40);
        let s = w.summaries();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].start_ns, 0);
        assert_eq!(s[0].count, 2);
        assert_eq!(s[1].start_ns, 1_000);
        assert_eq!(s[2].start_ns, 5_000);
        assert_eq!(w.overall().count(), 4);
    }

    #[test]
    fn windowed_merge_across_threads() {
        let mut a = WindowedLatency::new(1_000);
        let mut b = WindowedLatency::new(1_000);
        a.record(100, 5);
        b.record(150, 500);
        b.record(2_500, 7);
        a.merge(&b);
        let s = a.summaries();
        assert_eq!(s[0].count, 2);
        assert_eq!(s.len(), 2);
        assert!(s[0].max_ns >= 500);
    }

    #[test]
    #[should_panic(expected = "window widths")]
    fn windowed_merge_rejects_mismatched_widths() {
        let mut a = WindowedLatency::new(1_000);
        let b = WindowedLatency::new(2_000);
        a.merge(&b);
    }
}
