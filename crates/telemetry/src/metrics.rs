//! The individual metric instruments: counters, gauges, histograms, timers.

use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Sub-bucket bits of the registry's histograms: 32 buckets per power of
/// two, ≈ 3 % value resolution.
const REGISTRY_SUB_BITS: u32 = 5;
const BUCKETS: usize = LogHistogram::<REGISTRY_SUB_BITS>::BUCKETS;

/// The bucket of `value` in a histogram of 2^`sub_bits` buckets per power of
/// two: below 2^`sub_bits` every value has a bucket of its own, and each
/// power of two above is cut into 2^`sub_bits` equal parts. 0 shares 1's
/// bucket.
fn bucket_of(value: u64, sub_bits: u32) -> usize {
    let v = value.max(1);
    let msb = 63 - v.leading_zeros();
    if msb < sub_bits {
        return v as usize - 1;
    }
    let shift = msb - sub_bits;
    ((shift as usize) << sub_bits) + (v >> shift) as usize - 1
}

/// The smallest value [`bucket_of`] puts into `bucket`.
fn bucket_lower_bound(bucket: usize, sub_bits: u32) -> u64 {
    let i = bucket + 1;
    let octave = i >> sub_bits;
    if octave == 0 {
        return i as u64;
    }
    ((i - ((octave - 1) << sub_bits)) as u64) << (octave - 1)
}

/// The nearest rank of quantile `q` (in `[0, 1]`) among `n` ordered samples:
/// the 1-based position `ceil(q·n)`, at least 1 and at most `n`. The one rule
/// DIO reads a percentile with — from exact samples ([`quantile_sorted`]) and
/// from buckets ([`LogHistogram::percentile`]).
fn nearest_rank(q: f64, n: u64) -> u64 {
    (q * n as f64).ceil().max(1.0).min(n as f64) as u64
}

/// The nearest-rank sample of quantile `q` (in `[0, 1]`) in an
/// already-sorted slice — the `ceil(q·n)`-th, at least the first — or
/// `None` when it is empty. `dio top`'s percentiles and a rule's `pNN` are
/// this statistic.
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    let rank = nearest_rank(q, sorted.len() as u64) as usize;
    sorted.get(rank.checked_sub(1)?).copied()
}

/// Renders nanoseconds compactly (`950ns`, `1.5us`, `2.3ms`, `1.2s`).
pub fn format_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}us", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.1}s", ns as f64 / 1e9),
    }
}

/// A log-bucketed histogram over `u64` samples with 2^`SUB_BITS` buckets per
/// power of two, in plain counts: `LogHistogram<5>` resolves a value to
/// ≈ 3 % (the registry's [`Histogram`] resolves by the same walk),
/// `LogHistogram<0>` to its power of two (64 buckets cover `u64`). O(1)
/// record; the bucket vector grows to the largest bucket recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram<const SUB_BITS: u32> {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl<const SUB_BITS: u32> Default for LogHistogram<SUB_BITS> {
    fn default() -> Self {
        LogHistogram { counts: Vec::new(), count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl<const SUB_BITS: u32> LogHistogram<SUB_BITS> {
    /// Buckets covering the whole `u64` range.
    const BUCKETS: usize = ((65 - SUB_BITS as usize) << SUB_BITS) - 1;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = bucket_of(value, SUB_BITS);
        if bucket >= self.counts.len() {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Self) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The value at percentile `p` (0–100): the lower bound of the bucket
    /// holding the nearest-rank sample (the `ceil(p·n/100)`-th, as
    /// [`quantile_sorted`] picks), clamped to `[min, max]`. 0 when
    /// empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let [value] =
            percentiles([p], self.count, self.min, self.max, SUB_BITS, |r| self.buckets(r));
        value
    }

    /// The counts of the buckets in `range` (0 past the last recorded).
    fn buckets(&self, range: RangeInclusive<usize>) -> impl Iterator<Item = u64> + '_ {
        range.map(|i| self.counts.get(i).copied().unwrap_or(0))
    }

    /// The histogram resolved: count, min, max, mean and four percentiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        summarize(self.count, self.sum, self.min, self.max, SUB_BITS, |r| self.buckets(r))
    }
}

/// Percentiles `ps` (0–100, ascending) of `count` samples from `min` to
/// `max`, resolved in one walk over the buckets from `min`'s to `max`'s,
/// `buckets(range)` yielding the counts of the buckets in `range`: each the
/// lower bound of the bucket holding its nearest-rank sample, clamped to
/// `[min, max]`. A rank the walk does not reach — a snapshot of live atomics
/// may read a sample's count before its bucket — is `max`. All 0 when empty.
fn percentiles<const N: usize, I: Iterator<Item = u64>>(
    ps: [f64; N],
    count: u64,
    min: u64,
    max: u64,
    sub_bits: u32,
    buckets: impl FnOnce(RangeInclusive<usize>) -> I,
) -> [u64; N] {
    let mut out = [0; N];
    if count == 0 {
        return out;
    }
    let ranks = ps.map(|p| nearest_rank(p / 100.0, count));
    // `min.min(max)`: live atomics may be read with a sample's min and not
    // yet its max.
    let floor = min.min(max);
    let first = bucket_of(floor, sub_bits);
    let (mut resolved, mut seen) = (0, 0u64);
    for (i, n) in (first..).zip(buckets(first..=bucket_of(max, sub_bits))) {
        seen += n;
        while seen >= ranks[resolved] {
            out[resolved] = bucket_lower_bound(i, sub_bits).min(max).max(floor);
            resolved += 1;
            if resolved == N {
                return out;
            }
        }
    }
    out[resolved..].fill(max);
    out
}

/// [`HistogramSnapshot`] of `count` samples summing to `sum`, from `min` to
/// `max`, in the buckets `buckets` yields: one walk, nothing allocated.
fn summarize<I: Iterator<Item = u64>>(
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    sub_bits: u32,
    buckets: impl FnOnce(RangeInclusive<usize>) -> I,
) -> HistogramSnapshot {
    let [p50, p90, p99, p999] =
        percentiles([50.0, 90.0, 99.0, 99.9], count, min, max, sub_bits, buckets);
    let empty = count == 0;
    HistogramSnapshot {
        count,
        min: if empty { 0 } else { min },
        max,
        mean: if empty { 0.0 } else { sum as f64 / count as f64 },
        p50,
        p90,
        p99,
        p999,
    }
}

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value instrument (queue depth, occupancy, ...).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if `v` is larger (high-water marks). A mark
    /// is seldom raised: a load tells first, which leaves the cache line
    /// shared where a read-modify-write would take it.
    pub fn set_max(&self, v: u64) {
        if v > self.value.load(Ordering::Relaxed) {
            self.value.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last traced sample to land in one bucket: `(trace_id, value)` slots
/// written racily on record and read racily by the exposition encoder —
/// exemplars are best-effort pointers, not accounting.
struct ExemplarSlot {
    trace_id: AtomicU64,
    value: AtomicU64,
}

/// One non-empty histogram bucket as seen by exposition encoders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramBucket {
    /// Inclusive integer upper bound of the bucket (`u64::MAX` for the
    /// final open-ended bucket). Integer samples `<= upper` land in this
    /// bucket or an earlier one, so cumulative counts rendered against
    /// these bounds are exact.
    pub upper: u64,
    /// Samples recorded into this bucket.
    pub count: u64,
    /// Last `(trace_id, value)` recorded here, when exemplar capture is
    /// enabled and a traced sample has landed in the bucket.
    pub exemplar: Option<(u64, u64)>,
}

/// A lock-free log-bucketed histogram over `u64` samples (latencies in ns,
/// batch sizes, ...): the atomic twin of `LogHistogram<5>`. Constant memory,
/// ≈ 3 % value resolution, O(1) record.
///
/// `Debug` prints the summary snapshot, not the raw buckets.
pub struct Histogram {
    counts: Box<[AtomicU64]>,
    total: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    exemplars: OnceLock<Box<[ExemplarSlot]>>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Histogram").field(&self.snapshot()).finish()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            exemplars: OnceLock::new(),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.counts[bucket_of(value, REGISTRY_SUB_BITS)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records every one of `values`, as many [`Histogram::record`]s would
    /// (with `trace_id`, when nonzero, as each bucket's exemplar), in fewer
    /// atomic operations: one add per run of samples in the same bucket, and
    /// the count, sum, min and max once for all of them.
    pub fn record_all(&self, values: impl IntoIterator<Item = u64>, trace_id: u64) {
        let exemplars = self.exemplars.get().filter(|_| trace_id != 0);
        let add = |bucket: usize, n: u64, value: u64| {
            self.counts[bucket].fetch_add(n, Ordering::Relaxed);
            if let Some(slots) = exemplars {
                slots[bucket].trace_id.store(trace_id, Ordering::Relaxed);
                slots[bucket].value.store(value, Ordering::Relaxed);
            }
        };
        let (mut total, mut sum, mut min, mut max) = (0, 0u64, u64::MAX, 0);
        // The bucket of the current run, its length and its last sample.
        let mut run: Option<(usize, u64, u64)> = None;
        for value in values {
            let bucket = bucket_of(value, REGISTRY_SUB_BITS);
            run = match run {
                Some((held, n, _)) if held == bucket => Some((held, n + 1, value)),
                ended => {
                    if let Some((held, n, last)) = ended {
                        add(held, n, last);
                    }
                    Some((bucket, 1, value))
                }
            };
            total += 1;
            sum = sum.wrapping_add(value);
            (min, max) = (min.min(value), max.max(value));
        }
        let Some((held, n, last)) = run else { return };
        add(held, n, last);
        self.total.fetch_add(total, Ordering::Relaxed);
        self.sum.fetch_add(sum, Ordering::Relaxed);
        self.min.fetch_min(min, Ordering::Relaxed);
        self.max.fetch_max(max, Ordering::Relaxed);
    }

    /// Allocates per-bucket exemplar slots so subsequent
    /// [`record_with_exemplar`](Histogram::record_with_exemplar) /
    /// [`record_traced`](Histogram::record_traced) calls remember which
    /// flight-recorder trace last landed in each bucket. Idempotent;
    /// costs `BUCKETS * 16` bytes once enabled, nothing before.
    pub fn enable_exemplars(&self) {
        self.exemplars.get_or_init(|| {
            (0..BUCKETS)
                .map(|_| ExemplarSlot { trace_id: AtomicU64::new(0), value: AtomicU64::new(0) })
                .collect()
        });
    }

    /// Whether exemplar capture has been enabled.
    pub fn exemplars_enabled(&self) -> bool {
        self.exemplars.get().is_some()
    }

    /// Records one sample and, when exemplar capture is enabled and
    /// `trace_id` is non-zero, remembers `(trace_id, value)` as the
    /// bucket's exemplar (last writer wins).
    pub fn record_with_exemplar(&self, value: u64, trace_id: u64) {
        self.record(value);
        if trace_id != 0 {
            if let Some(slots) = self.exemplars.get() {
                let slot = &slots[bucket_of(value, REGISTRY_SUB_BITS)];
                slot.trace_id.store(trace_id, Ordering::Relaxed);
                slot.value.store(value, Ordering::Relaxed);
            }
        }
    }

    /// Records one sample, tagging the bucket exemplar with the calling
    /// thread's ambient flight-recorder trace id (the innermost open
    /// span), when there is one and exemplar capture is enabled.
    pub fn record_traced(&self, value: u64) {
        match crate::trace::current_trace_id() {
            Some(id) => self.record_with_exemplar(value, id),
            None => self.record(value),
        }
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The non-empty buckets in ascending value order, with inclusive
    /// integer upper bounds — the raw material for cumulative
    /// (`le`-style) exposition.
    pub fn nonzero_buckets(&self) -> Vec<HistogramBucket> {
        let slots = self.exemplars.get();
        let mut out = Vec::new();
        for (i, c) in self.counts.iter().enumerate() {
            let count = c.load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            // Inclusive: one below the next bucket's lower bound; the last
            // bucket absorbs everything up to `u64::MAX`.
            let upper = if i + 1 == BUCKETS {
                u64::MAX
            } else {
                bucket_lower_bound(i + 1, REGISTRY_SUB_BITS) - 1
            };
            let exemplar = slots.and_then(|s| {
                let id = s[i].trace_id.load(Ordering::Relaxed);
                (id != 0).then(|| (id, s[i].value.load(Ordering::Relaxed)))
            });
            out.push(HistogramBucket { upper, count, exemplar });
        }
        out
    }

    /// Starts a scoped timer that records elapsed nanoseconds on drop.
    pub fn start_timer(&self) -> StageTimer<'_> {
        StageTimer { histogram: self, start: Instant::now() }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// A point-in-time copy with percentiles resolved, in one walk over the
    /// buckets from `min`'s to `max`'s and without allocating, as
    /// [`LogHistogram::snapshot`] resolves its own.
    ///
    /// Concurrent recording may skew a snapshot by the in-flight samples;
    /// quiescent snapshots (after threads join) are exact.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let (min, max) = (self.min.load(Ordering::Relaxed), self.max.load(Ordering::Relaxed));
        // A sample counts in its bucket before the total: the walk finds every
        // sample counted here, but one recorded since `min` and `max` were
        // read, outside them (a rank the walk misses reads `max`).
        let count = self.total.load(Ordering::Relaxed);
        let sum = self.sum.load(Ordering::Relaxed);
        let buckets = |range: RangeInclusive<usize>| {
            self.counts[range].iter().map(|n| n.load(Ordering::Relaxed))
        };
        summarize(count, sum, min, max, REGISTRY_SUB_BITS, buckets)
    }
}

/// Resolved histogram statistics at one point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// 50th percentile.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

/// Scoped timer from [`Histogram::start_timer`]; records the elapsed
/// wall-clock nanoseconds into the histogram when dropped.
pub struct StageTimer<'a> {
    histogram: &'a Histogram,
    start: Instant,
}

impl StageTimer<'_> {
    /// Stops early, recording now instead of at scope end.
    pub fn observe(self) {}
}

impl Drop for StageTimer<'_> {
    fn drop(&mut self) {
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.histogram.record(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(10);
        g.set_max(7);
        assert_eq!(g.get(), 10, "set_max never lowers");
        g.set_max(15);
        assert_eq!(g.get(), 15);
    }

    #[test]
    fn histogram_percentiles_bound_the_data() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        assert!((450..=550).contains(&s.p50), "p50={}", s.p50);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.p999);
        assert!(s.p999 <= 1000);
        assert!((s.mean - 500.5).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.min, s.max, s.p50, s.p999), (0, 0, 0, 0, 0));
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn concurrent_recording_counts_every_sample() {
        let h = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i + 1);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(h.snapshot().count, 80_000);
    }

    #[test]
    fn stage_timer_records_on_drop() {
        let h = Histogram::new();
        {
            let _t = h.start_timer();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert!(s.max >= 1_000_000, "recorded at least 1ms, got {}ns", s.max);
    }

    #[test]
    fn nonzero_buckets_are_cumulative_exact_for_integer_samples() {
        let h = Histogram::new();
        for v in [1u64, 1, 5, 100, 100_000, u64::MAX] {
            h.record(v);
        }
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.iter().map(|b| b.count).sum::<u64>(), 6);
        // Upper bounds ascend and every recorded value fits under the
        // bound of the bucket it was counted in.
        for pair in buckets.windows(2) {
            assert!(pair[0].upper < pair[1].upper);
        }
        assert_eq!(buckets.last().unwrap().upper, u64::MAX);
        let below = |v: u64| buckets.iter().filter(|b| b.upper >= v).map(|b| b.count).sum::<u64>();
        assert_eq!(below(0), 6, "all counts sit at or above each value's bucket");
    }

    /// A batch recorded at once reads as the same samples recorded one by
    /// one: buckets, count, sum, min, max and each bucket's last exemplar.
    #[test]
    fn recording_all_at_once_is_recording_each() {
        let values = [7u64, 7, 7, 1_000, 1_010, 3, 1_000_000, 1_000, 0, 7];
        let (one_by_one, at_once) = (Histogram::new(), Histogram::new());
        for h in [&one_by_one, &at_once] {
            h.enable_exemplars();
            h.record(5);
        }
        for (i, &v) in values.iter().enumerate() {
            one_by_one.record_with_exemplar(v, if i < 5 { 40 } else { 41 });
        }
        at_once.record_all(values.iter().copied().take(5), 40);
        at_once.record_all(values.iter().copied().skip(5), 41);
        at_once.record_all([], 42);
        assert_eq!(at_once.snapshot(), one_by_one.snapshot());
        let buckets = |h: &Histogram| h.nonzero_buckets();
        assert_eq!(buckets(&at_once), buckets(&one_by_one));
        let last = buckets(&at_once).last().and_then(|b| b.exemplar);
        assert_eq!(last, Some((41, 1_000_000)));
    }

    #[test]
    fn exemplars_capture_last_trace_per_bucket() {
        let h = Histogram::new();
        h.record_with_exemplar(10, 0xaaaa); // dropped: capture not enabled yet
        h.enable_exemplars();
        assert!(h.exemplars_enabled());
        h.record_with_exemplar(10, 0xbbbb);
        h.record_with_exemplar(10, 0xcccc); // same bucket: last writer wins
        h.record_with_exemplar(1_000_000, 0); // trace id 0 = no exemplar
        let buckets = h.nonzero_buckets();
        let small = buckets.iter().find(|b| b.upper >= 10 && b.count == 3).expect("bucket of 10");
        assert_eq!(small.exemplar, Some((0xcccc, 10)));
        let big = buckets.iter().find(|b| b.upper >= 1_000_000).expect("bucket of 1e6");
        assert_eq!(big.exemplar, None);
    }

    #[test]
    fn buckets_tile_the_u64_range_at_both_resolutions() {
        fn check<const S: u32>() {
            let mut values: Vec<u64> = (0..64).flat_map(|b| [1u64 << b, (1u64 << b) - 1]).collect();
            values.extend([0, 2, 31, 33, 1_000, u64::MAX]);
            values.sort_unstable();
            let mut prev = 0;
            for v in values {
                let b = bucket_of(v, S);
                assert!(b >= prev && b < LogHistogram::<S>::BUCKETS, "bucket({v}) = {b}");
                assert!(bucket_lower_bound(b, S) <= v.max(1), "lower_bound({b}) > {v}");
                if b + 1 < LogHistogram::<S>::BUCKETS {
                    assert!(v < bucket_lower_bound(b + 1, S), "{v} belongs past bucket {b}");
                }
                prev = b;
            }
            assert_eq!(bucket_of(u64::MAX, S), LogHistogram::<S>::BUCKETS - 1);
        }
        check::<5>();
        check::<0>();
        // One bucket per octave is the octave's index; 1/32 is exact to 63.
        assert_eq!((bucket_of(1, 0), bucket_of(1_000, 0), bucket_lower_bound(9, 0)), (0, 9, 512));
        assert_eq!((bucket_of(63, 5), bucket_lower_bound(62, 5)), (62, 63));
        assert_eq!((LogHistogram::<5>::BUCKETS, LogHistogram::<0>::BUCKETS), (1_919, 64));
    }

    #[test]
    fn log_histogram_merges_into_what_recording_everything_gives() {
        let (mut a, mut b, mut all) =
            (LogHistogram::<5>::new(), LogHistogram::new(), LogHistogram::new());
        for v in 1..=1_000u64 {
            if v % 2 == 0 {
                a.record(v * 1_000)
            } else {
                b.record(v)
            }
            all.record(if v % 2 == 0 { v * 1_000 } else { v });
        }
        a.merge(&b);
        assert_eq!(a, all);
        assert_eq!(a.snapshot(), all.snapshot());
        let mut empty = LogHistogram::<5>::new();
        empty.merge(&LogHistogram::new());
        assert_eq!(empty.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn percentile_accuracy_within_resolution() {
        let mut h = LogHistogram::<5>::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for p in [50.0, 90.0, 99.0, 99.9] {
            let expected = p / 100.0 * 100_000.0;
            let got = h.percentile(p) as f64;
            assert!(
                (got - expected).abs() / expected < 0.05,
                "p{p}: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn one_sample_is_every_percentile() {
        let mut h = LogHistogram::<0>::new();
        h.record(42);
        let s = h.snapshot();
        assert_eq!((s.min, s.p50, s.p999, s.max), (42, 42, 42, 42), "clamped to [min, max]");
        assert_eq!(h.percentile(0.1), 42);
    }

    #[test]
    fn nearest_rank_is_the_ceiling_of_q_n() {
        assert_eq!(quantile_sorted::<u64>(&[], 0.5), None);
        assert_eq!(quantile_sorted(&[7], 0.99), Some(7));
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.0), Some(1), "rank at least 1");
        assert_eq!(quantile_sorted(&v, 0.5), Some(50), "ceil(0.5 * 100) = 50");
        assert_eq!(quantile_sorted(&v, 0.99), Some(99));
        assert_eq!(quantile_sorted(&v, 1.0), Some(100));
        assert_eq!(quantile_sorted(&[1.5, 2.5, 9.0], 0.5), Some(2.5));
        assert_eq!((nearest_rank(f64::NAN, 10), nearest_rank(2.0, 10)), (1, 10));
    }

    #[test]
    fn ns_formatting_scales() {
        assert_eq!(format_ns(950), "950ns");
        assert_eq!(format_ns(1_500), "1.5us");
        assert_eq!(format_ns(2_300_000), "2.3ms");
        assert_eq!(format_ns(1_200_000_000), "1.2s");
    }

    #[test]
    fn snapshot_serializes_with_percentile_fields() {
        let h = Histogram::new();
        h.record(100);
        let v = serde_json::to_value(h.snapshot()).unwrap();
        assert_eq!(v["count"], 1);
        assert!(v.get("p99").is_some());
    }
}
