//! Aggregations: the summarization layer behind DIO's dashboards.
//!
//! Implements the Elasticsearch aggregations the paper's visualizations
//! rely on — `terms` (syscalls per thread name), `date_histogram` (events
//! over time, Fig. 4), `percentiles` (tail latency, Fig. 3), plus `stats`,
//! `value_count` and `cardinality` — all with nested sub-aggregations.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::query::Query;
use crate::value_path::DocRef;

/// An aggregation request, optionally nested.
///
/// # Examples
///
/// ```
/// use dio_backend::Aggregation;
///
/// // Fig. 4's shape: syscalls over time, split by thread name.
/// let agg = Aggregation::date_histogram("time", 1_000_000_000)
///     .sub("by_thread", Aggregation::terms("proc_name", 16));
/// assert_eq!(agg.field(), "time");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregation {
    kind: AggKind,
    field: String,
    sub: BTreeMap<String, Aggregation>,
}

#[derive(Debug, Clone, PartialEq)]
enum AggKind {
    Terms { size: usize },
    Histogram { interval: f64 },
    DateHistogram { interval_ns: u64 },
    Percentiles { percents: Vec<f64> },
    Stats,
    ValueCount,
    Cardinality,
    Min,
    Max,
    Avg,
    Sum,
    Filter { query: Box<Query> },
    Range { ranges: Vec<(Option<f64>, Option<f64>)> },
}

impl Aggregation {
    /// Buckets by distinct keyword value, most-populous first.
    pub fn terms(field: impl Into<String>, size: usize) -> Self {
        Aggregation { kind: AggKind::Terms { size }, field: field.into(), sub: BTreeMap::new() }
    }

    /// Buckets numeric values into fixed-width intervals.
    pub fn histogram(field: impl Into<String>, interval: f64) -> Self {
        Aggregation {
            kind: AggKind::Histogram { interval },
            field: field.into(),
            sub: BTreeMap::new(),
        }
    }

    /// Buckets nanosecond timestamps into fixed windows (gaps filled with
    /// empty buckets so time series stay contiguous).
    pub fn date_histogram(field: impl Into<String>, interval_ns: u64) -> Self {
        Aggregation {
            kind: AggKind::DateHistogram { interval_ns: interval_ns.max(1) },
            field: field.into(),
            sub: BTreeMap::new(),
        }
    }

    /// Computes percentiles of a numeric field.
    pub fn percentiles(field: impl Into<String>, percents: impl IntoIterator<Item = f64>) -> Self {
        Aggregation {
            kind: AggKind::Percentiles { percents: percents.into_iter().collect() },
            field: field.into(),
            sub: BTreeMap::new(),
        }
    }

    /// Count / min / max / avg / sum of a numeric field.
    pub fn stats(field: impl Into<String>) -> Self {
        Aggregation { kind: AggKind::Stats, field: field.into(), sub: BTreeMap::new() }
    }

    /// Number of documents with the field present.
    pub fn value_count(field: impl Into<String>) -> Self {
        Aggregation { kind: AggKind::ValueCount, field: field.into(), sub: BTreeMap::new() }
    }

    /// Number of distinct values of the field.
    pub fn cardinality(field: impl Into<String>) -> Self {
        Aggregation { kind: AggKind::Cardinality, field: field.into(), sub: BTreeMap::new() }
    }

    /// Minimum of a numeric field.
    pub fn min(field: impl Into<String>) -> Self {
        Aggregation { kind: AggKind::Min, field: field.into(), sub: BTreeMap::new() }
    }

    /// Maximum of a numeric field.
    pub fn max(field: impl Into<String>) -> Self {
        Aggregation { kind: AggKind::Max, field: field.into(), sub: BTreeMap::new() }
    }

    /// Mean of a numeric field.
    pub fn avg(field: impl Into<String>) -> Self {
        Aggregation { kind: AggKind::Avg, field: field.into(), sub: BTreeMap::new() }
    }

    /// Sum of a numeric field.
    pub fn sum(field: impl Into<String>) -> Self {
        Aggregation { kind: AggKind::Sum, field: field.into(), sub: BTreeMap::new() }
    }

    /// A single bucket holding the documents matching `query` — used to
    /// nest metrics under a condition (ES `filter` aggregation).
    pub fn filter(query: Query) -> Self {
        Aggregation {
            kind: AggKind::Filter { query: Box::new(query) },
            field: String::new(),
            sub: BTreeMap::new(),
        }
    }

    /// Buckets a numeric field into explicit `[from, to)` ranges (ES
    /// `range` aggregation); `None` bounds are open.
    pub fn ranges(
        field: impl Into<String>,
        ranges: impl IntoIterator<Item = (Option<f64>, Option<f64>)>,
    ) -> Self {
        Aggregation {
            kind: AggKind::Range { ranges: ranges.into_iter().collect() },
            field: field.into(),
            sub: BTreeMap::new(),
        }
    }

    /// Adds a named sub-aggregation (bucket aggregations only).
    pub fn sub(mut self, name: impl Into<String>, agg: Aggregation) -> Self {
        self.sub.insert(name.into(), agg);
        self
    }

    /// The field this aggregation runs on.
    pub fn field(&self) -> &str {
        &self.field
    }

    /// Evaluates the aggregation over a set of documents.
    pub fn compute(&self, docs: &[&Value]) -> AggResult {
        self.compute_over(&docs.iter().map(|doc| DocRef::Json(doc)).collect::<Vec<_>>())
    }

    /// The number in this aggregation's field of `doc`.
    fn number(&self, doc: DocRef<'_>) -> Option<f64> {
        doc.field(&self.field)?.as_number()
    }

    /// [`Self::compute`] over stored documents of either kind.
    pub(crate) fn compute_over(&self, docs: &[DocRef<'_>]) -> AggResult {
        match &self.kind {
            AggKind::Terms { size } => {
                // Keyed by an owned string: an event lends some keywords
                // (`file_tag`) only for as long as the field is looked at.
                let mut groups: BTreeMap<String, Vec<DocRef<'_>>> = BTreeMap::new();
                for &doc in docs {
                    let field = doc.field(&self.field);
                    if let Some(key) = field.as_ref().and_then(|f| f.as_keyword()) {
                        match groups.get_mut(key) {
                            Some(group) => group.push(doc),
                            None => drop(groups.insert(key.to_owned(), vec![doc])),
                        }
                    }
                }
                let mut buckets: Vec<Bucket> = groups
                    .into_iter()
                    .map(|(key, group)| self.bucket(Value::String(key), &group))
                    .collect();
                buckets.sort_by(|a, b| {
                    b.doc_count.cmp(&a.doc_count).then_with(|| {
                        a.key.as_str().unwrap_or("").cmp(b.key.as_str().unwrap_or(""))
                    })
                });
                buckets.truncate(*size);
                AggResult::Buckets(buckets)
            }
            AggKind::Histogram { interval } => {
                let interval = if *interval > 0.0 { *interval } else { 1.0 };
                let mut groups: BTreeMap<i64, Vec<DocRef<'_>>> = BTreeMap::new();
                for &doc in docs {
                    if let Some(n) = self.number(doc) {
                        groups.entry((n / interval).floor() as i64).or_default().push(doc);
                    }
                }
                let buckets =
                    self.fill_numeric_buckets(groups, |slot| Value::from(slot as f64 * interval));
                AggResult::Buckets(buckets)
            }
            AggKind::DateHistogram { interval_ns } => {
                let mut groups: BTreeMap<i64, Vec<DocRef<'_>>> = BTreeMap::new();
                for &doc in docs {
                    if let Some(n) = self.number(doc) {
                        groups
                            .entry((n / *interval_ns as f64).floor() as i64)
                            .or_default()
                            .push(doc);
                    }
                }
                let interval = *interval_ns;
                let buckets =
                    self.fill_numeric_buckets(groups, |slot| Value::from(slot as u64 * interval));
                AggResult::Buckets(buckets)
            }
            AggKind::Percentiles { percents } => {
                let mut values: Vec<f64> = docs.iter().filter_map(|&d| self.number(d)).collect();
                values.sort_by(f64::total_cmp);
                let out = percents.iter().map(|&p| (p, percentile(&values, p))).collect();
                AggResult::Percentiles(out)
            }
            AggKind::Stats => {
                let mut stats = StatsResult::default();
                for n in docs.iter().filter_map(|&d| self.number(d)) {
                    stats.push(n);
                }
                AggResult::Stats(stats)
            }
            AggKind::ValueCount => {
                let n = docs.iter().filter(|d| d.field(&self.field).is_some()).count();
                AggResult::Value(n as f64)
            }
            AggKind::Cardinality => {
                let distinct: std::collections::HashSet<String> = docs
                    .iter()
                    .filter_map(|d| d.field(&self.field))
                    .map(|field| field.to_json())
                    .collect();
                AggResult::Value(distinct.len() as f64)
            }
            AggKind::Min | AggKind::Max | AggKind::Avg | AggKind::Sum => {
                let values: Vec<f64> = docs.iter().filter_map(|&d| self.number(d)).collect();
                let v = if values.is_empty() {
                    f64::NAN
                } else {
                    match &self.kind {
                        AggKind::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
                        AggKind::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                        AggKind::Avg => values.iter().sum::<f64>() / values.len() as f64,
                        _ => values.iter().sum::<f64>(),
                    }
                };
                AggResult::Value(v)
            }
            AggKind::Filter { query } => {
                let matching: Vec<DocRef<'_>> =
                    docs.iter().copied().filter(|&d| query.matches_doc(d)).collect();
                AggResult::Buckets(vec![self.bucket(Value::Bool(true), &matching)])
            }
            AggKind::Range { ranges } => {
                let buckets = ranges
                    .iter()
                    .map(|(from, to)| {
                        let members: Vec<DocRef<'_>> = docs
                            .iter()
                            .copied()
                            .filter(|&d| {
                                let Some(n) = self.number(d) else {
                                    return false;
                                };
                                from.is_none_or(|f| n >= f) && to.is_none_or(|t| n < t)
                            })
                            .collect();
                        let key = format!(
                            "{}-{}",
                            from.map_or("*".to_string(), |f| f.to_string()),
                            to.map_or("*".to_string(), |t| t.to_string())
                        );
                        self.bucket(Value::String(key), &members)
                    })
                    .collect();
                AggResult::Buckets(buckets)
            }
        }
    }

    fn bucket(&self, key: Value, docs: &[DocRef<'_>]) -> Bucket {
        let sub =
            self.sub.iter().map(|(name, agg)| (name.clone(), agg.compute_over(docs))).collect();
        Bucket { key, doc_count: docs.len() as u64, sub }
    }

    /// Materializes numeric buckets in key order, filling interior gaps with
    /// empty buckets (bounded to 100 000 buckets to stay safe).
    fn fill_numeric_buckets(
        &self,
        groups: BTreeMap<i64, Vec<DocRef<'_>>>,
        key_of: impl Fn(i64) -> Value,
    ) -> Vec<Bucket> {
        let Some((&min, _)) = groups.first_key_value() else {
            return Vec::new();
        };
        let (&max, _) = groups.last_key_value().expect("non-empty");
        let span = (max - min) as u64 + 1;
        if span > 100_000 {
            // Too sparse to fill: emit only occupied buckets.
            return groups
                .into_iter()
                .map(|(slot, docs)| self.bucket(key_of(slot), &docs))
                .collect();
        }
        (min..=max)
            .map(|slot| match groups.get(&slot) {
                Some(docs) => self.bucket(key_of(slot), docs),
                None => self.bucket(key_of(slot), &[]),
            })
            .collect()
    }
}

/// Linear-interpolation percentile over a sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0) * (sorted.len() as f64 - 1.0);
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi.min(sorted.len() - 1)] * frac
    }
}

/// One bucket of a bucket aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct Bucket {
    /// The bucket key (string for `terms`, number for histograms).
    pub key: Value,
    /// Number of documents in the bucket.
    pub doc_count: u64,
    /// Results of nested sub-aggregations.
    pub sub: BTreeMap<String, AggResult>,
}

/// `stats` aggregation output.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StatsResult {
    /// Number of numeric values seen.
    pub count: u64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Sum.
    pub sum: f64,
}

impl StatsResult {
    fn push(&mut self, n: f64) {
        if self.count == 0 {
            self.min = n;
            self.max = n;
        } else {
            self.min = self.min.min(n);
            self.max = self.max.max(n);
        }
        self.sum += n;
        self.count += 1;
    }

    /// Arithmetic mean (NaN when empty).
    pub fn avg(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }
}

/// The result of one aggregation.
#[derive(Debug, Clone, PartialEq)]
pub enum AggResult {
    /// Bucket list (`terms`, `histogram`, `date_histogram`).
    Buckets(Vec<Bucket>),
    /// `(percent, value)` pairs.
    Percentiles(Vec<(f64, f64)>),
    /// `stats` output.
    Stats(StatsResult),
    /// Single-valued result (`value_count`, `cardinality`).
    Value(f64),
}

impl AggResult {
    /// The buckets of a bucket aggregation (empty slice otherwise).
    pub fn buckets(&self) -> &[Bucket] {
        match self {
            AggResult::Buckets(b) => b,
            _ => &[],
        }
    }

    /// The single value of a metric aggregation.
    pub fn value(&self) -> Option<f64> {
        match self {
            AggResult::Value(v) => Some(*v),
            _ => None,
        }
    }

    /// Looks up a percentile result.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        match self {
            AggResult::Percentiles(pairs) => {
                pairs.iter().find(|(q, _)| (*q - p).abs() < 1e-9).map(|(_, v)| *v)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn docs() -> Vec<Value> {
        vec![
            json!({"proc_name": "db_bench", "time": 1_000, "lat": 10}),
            json!({"proc_name": "db_bench", "time": 1_500, "lat": 20}),
            json!({"proc_name": "rocksdb:low0", "time": 2_100, "lat": 500}),
            json!({"proc_name": "rocksdb:low0", "time": 4_200, "lat": 700}),
            json!({"proc_name": "rocksdb:high0", "time": 4_300, "lat": 100}),
        ]
    }

    fn refs(docs: &[Value]) -> Vec<&Value> {
        docs.iter().collect()
    }

    #[test]
    fn terms_orders_by_count() {
        let d = docs();
        let res = Aggregation::terms("proc_name", 10).compute(&refs(&d));
        let buckets = res.buckets();
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].doc_count, 2);
        // tie (2,2) broken by key: db_bench < rocksdb:low0
        assert_eq!(buckets[0].key, json!("db_bench"));
        assert_eq!(buckets[1].key, json!("rocksdb:low0"));
        assert_eq!(buckets[2].key, json!("rocksdb:high0"));
    }

    #[test]
    fn terms_size_truncates() {
        let d = docs();
        let res = Aggregation::terms("proc_name", 1).compute(&refs(&d));
        assert_eq!(res.buckets().len(), 1);
    }

    #[test]
    fn date_histogram_fills_gaps() {
        let d = docs();
        let res = Aggregation::date_histogram("time", 1_000).compute(&refs(&d));
        let buckets = res.buckets();
        // Slots 1..=4 with slot 3 empty.
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets[0].key, json!(1_000));
        assert_eq!(buckets[0].doc_count, 2);
        assert_eq!(buckets[2].key, json!(3_000));
        assert_eq!(buckets[2].doc_count, 0);
        assert_eq!(buckets[3].doc_count, 2);
    }

    #[test]
    fn nested_terms_under_histogram() {
        let d = docs();
        let agg = Aggregation::date_histogram("time", 1_000)
            .sub("by_thread", Aggregation::terms("proc_name", 10));
        let res = agg.compute(&refs(&d));
        let first = &res.buckets()[0];
        let by_thread = first.sub["by_thread"].buckets();
        assert_eq!(by_thread.len(), 1);
        assert_eq!(by_thread[0].key, json!("db_bench"));
        assert_eq!(by_thread[0].doc_count, 2);
    }

    #[test]
    fn percentiles_interpolate() {
        let vals: Vec<Value> = (1..=100).map(|i| json!({ "v": i })).collect();
        let res = Aggregation::percentiles("v", [50.0, 99.0]).compute(&refs(&vals));
        let p50 = res.percentile(50.0).unwrap();
        let p99 = res.percentile(99.0).unwrap();
        assert!((p50 - 50.5).abs() < 0.01, "p50={p50}");
        assert!((p99 - 99.01).abs() < 0.1, "p99={p99}");
        assert!(res.percentile(10.0).is_none());
    }

    #[test]
    fn percentiles_empty_is_nan() {
        let res = Aggregation::percentiles("v", [50.0]).compute(&[]);
        assert!(res.percentile(50.0).unwrap().is_nan());
    }

    #[test]
    fn stats_and_counts() {
        let d = docs();
        let res = Aggregation::stats("lat").compute(&refs(&d));
        match res {
            AggResult::Stats(s) => {
                assert_eq!(s.count, 5);
                assert_eq!(s.min, 10.0);
                assert_eq!(s.max, 700.0);
                assert_eq!(s.sum, 1330.0);
                assert!((s.avg() - 266.0).abs() < 1e-9);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(Aggregation::value_count("lat").compute(&refs(&d)).value(), Some(5.0));
        assert_eq!(Aggregation::cardinality("proc_name").compute(&refs(&d)).value(), Some(3.0));
    }

    #[test]
    fn histogram_numeric() {
        let vals: Vec<Value> = [1.0, 2.5, 7.9, 8.0].iter().map(|v| json!({ "v": v })).collect();
        let res = Aggregation::histogram("v", 4.0).compute(&refs(&vals));
        let b = res.buckets();
        assert_eq!(b.len(), 3);
        assert_eq!(b[0].key, json!(0.0));
        assert_eq!(b[0].doc_count, 2);
        assert_eq!(b[1].doc_count, 1); // 7.9 in [4,8)
        assert_eq!(b[2].doc_count, 1); // 8.0 in [8,12)
    }

    #[test]
    fn single_value_metrics() {
        let d = docs();
        let r = refs(&d);
        assert_eq!(Aggregation::min("lat").compute(&r).value(), Some(10.0));
        assert_eq!(Aggregation::max("lat").compute(&r).value(), Some(700.0));
        assert_eq!(Aggregation::sum("lat").compute(&r).value(), Some(1330.0));
        assert!((Aggregation::avg("lat").compute(&r).value().unwrap() - 266.0).abs() < 1e-9);
        assert!(Aggregation::min("missing").compute(&r).value().unwrap().is_nan());
    }

    #[test]
    fn filter_agg_scopes_sub_metrics() {
        let d = docs();
        let agg = Aggregation::filter(Query::term("proc_name", "db_bench"))
            .sub("lat", Aggregation::max("lat"));
        let res = agg.compute(&refs(&d));
        let bucket = &res.buckets()[0];
        assert_eq!(bucket.doc_count, 2);
        assert_eq!(bucket.sub["lat"].value(), Some(20.0), "max over db_bench only");
    }

    #[test]
    fn range_agg_buckets_by_bounds() {
        let d = docs();
        let agg = Aggregation::ranges(
            "lat",
            [(None, Some(100.0)), (Some(100.0), Some(600.0)), (Some(600.0), None)],
        );
        let res = agg.compute(&refs(&d));
        let counts: Vec<u64> = res.buckets().iter().map(|b| b.doc_count).collect();
        assert_eq!(counts, vec![2, 2, 1]);
        assert_eq!(res.buckets()[0].key, serde_json::json!("*-100"));
        assert_eq!(res.buckets()[2].key, serde_json::json!("600-*"));
    }

    #[test]
    fn missing_fields_are_ignored() {
        let d = vec![json!({"other": 1})];
        assert!(Aggregation::terms("proc_name", 5).compute(&refs(&d)).buckets().is_empty());
        assert_eq!(Aggregation::value_count("x").compute(&refs(&d)).value(), Some(0.0));
    }
}
