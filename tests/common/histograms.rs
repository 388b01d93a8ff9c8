//! Oracles for `tests/percentiles.rs`: the two histograms `dio-telemetry`'s
//! `LogHistogram` replaced, as they were — `dio-dbbench`'s latency
//! histogram (32 buckets per power of two, the Fig. 3 windows) and
//! `dio-profile`'s `LogHist` (one bucket per power of two, the DFG edges).
//!
//! Copied unchanged but for two things: the latency histogram's `sum`
//! saturates, as `LogHist`'s and the shared type's do (its `+=` panics in a
//! debug build on the near-`u64::MAX` samples the property feeds it), and
//! doc comments that linked deleted paths are cut.

use dio_telemetry::HistogramSnapshot;

// ------------------------------------------------ dio-dbbench (1/32 octave)

/// Sub-buckets per power of two (resolution ≈ 1/32 ≈ 3%).
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = 64 * SUB;

/// A log-scale latency histogram over nanosecond values.
///
/// Constant memory, ~3% value resolution, O(1) record — the usual design
/// for benchmark latency capture (HdrHistogram-style).
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_of(value: u64) -> usize {
    let v = value.max(1);
    let msb = 63 - v.leading_zeros();
    if msb < SUB_BITS {
        return v as usize;
    }
    let sub = ((v >> (msb - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize;
    ((msb - SUB_BITS + 1) as usize * SUB + sub).min(BUCKETS - 1)
}

fn bucket_lower_bound(bucket: usize) -> u64 {
    if bucket < SUB {
        return bucket as u64;
    }
    let msb = (bucket / SUB) as u32 + SUB_BITS - 1;
    let sub = (bucket % SUB) as u64;
    (1u64 << msb) | (sub << (msb - SUB_BITS))
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram { counts: vec![0; BUCKETS], total: 0, min: u64::MAX, max: 0, sum: 0 }
    }

    /// Records one latency sample (ns).
    pub fn record(&mut self, value_ns: u64) {
        self.counts[bucket_of(value_ns)] += 1;
        self.total += 1;
        self.min = self.min.min(value_ns);
        self.max = self.max.max(value_ns);
        self.sum = self.sum.saturating_add(value_ns);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The value at percentile `p` (0–100). Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_lower_bound(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

// -------------------------------------------------- dio-profile (1 octave)

/// A log2-bucketed histogram over `u64` samples: 64 buckets, O(1)
/// record, `Clone + PartialEq` so graphs snapshot and compare cheaply.
/// Percentile resolution is one power of two — enough for the "which
/// edge got slow" question the DFG answers; exact latencies stay in the
/// session's main telemetry histograms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHist {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist { buckets: [0; 64], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl LogHist {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = 63 - value.max(1).leading_zeros() as usize;
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Resolves the histogram into the shared [`HistogramSnapshot`] form
    /// (the same struct the session telemetry uses).
    pub fn snapshot(&self) -> HistogramSnapshot {
        if self.count == 0 {
            return HistogramSnapshot::default();
        }
        let percentile = |p: f64| -> u64 {
            let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (i, &c) in self.buckets.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return (1u64 << i).clamp(self.min, self.max);
                }
            }
            self.max
        };
        HistogramSnapshot {
            count: self.count,
            min: self.min,
            max: self.max,
            mean: self.sum as f64 / self.count as f64,
            p50: percentile(50.0),
            p90: percentile(90.0),
            p99: percentile(99.0),
            p999: percentile(99.9),
        }
    }
}
