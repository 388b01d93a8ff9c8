//! OpenMetrics / Prometheus text exposition of a [`MetricsRegistry`].
//!
//! Mapping rules (documented in DESIGN.md §13):
//!
//! * Dotted metric names sanitize to the exposition charset
//!   `[a-zA-Z_:][a-zA-Z0-9_:]*` — every other character becomes `_`
//!   (`ebpf.ring.dropped` → `ebpf_ring_dropped`), a leading digit gains
//!   a `_` prefix. The mapping is deterministic, so scrape series stay
//!   stable across runs.
//! * Counters render as `# TYPE x counter` with one `x_total` sample.
//! * Gauges render as `# TYPE x gauge` with one `x` sample.
//! * Histograms render as cumulative `x_bucket{le="..."}` families over
//!   the non-empty log-scale buckets, closed by `le="+Inf"`, `x_sum`
//!   and `x_count`. `le` bounds are the buckets' *inclusive integer*
//!   upper bounds ([`Histogram::nonzero_buckets`]), so cumulative
//!   counts are exact for the integer samples we record. `+Inf` and
//!   `x_count` are both computed from the same bucket reads, so they
//!   always agree even under concurrent recording.
//! * Buckets with a captured exemplar append
//!   `# {trace_id="<16-hex>"} <value>` — the last flight-recorder trace
//!   id to land in the bucket, resolvable against `/flightrec`.
//! * The body terminates with `# EOF`.

use crate::metrics::Histogram;
use crate::registry::{MetricRef, MetricsRegistry};

/// Sanitizes a dotted metric name into the exposition charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
///
/// # Examples
///
/// ```
/// use dio_telemetry::openmetrics::sanitize_metric_name;
/// assert_eq!(sanitize_metric_name("ebpf.ring.dropped"), "ebpf_ring_dropped");
/// assert_eq!(sanitize_metric_name("9lives"), "_9lives");
/// ```
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, ch) in name.chars().enumerate() {
        let valid = ch.is_ascii_alphabetic() || ch == '_' || ch == ':' || ch.is_ascii_digit();
        if i == 0 && ch.is_ascii_digit() {
            out.push('_');
        }
        out.push(if valid { ch } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn render_histogram(out: &mut String, name: &str, h: &Histogram) {
    out.push_str(&format!("# TYPE {name} histogram\n"));
    let buckets = h.nonzero_buckets();
    let total: u64 = buckets.iter().map(|b| b.count).sum();
    let mut cumulative = 0u64;
    for b in &buckets {
        cumulative += b.count;
        out.push_str(&format!("{name}_bucket{{le=\"{}\"}} {cumulative}", b.upper));
        if let Some((trace_id, value)) = b.exemplar {
            out.push_str(&format!(" # {{trace_id=\"{trace_id:016x}\"}} {value}"));
        }
        out.push('\n');
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {total}\n"));
    out.push_str(&format!("{name}_sum {}\n", h.sum()));
    out.push_str(&format!("{name}_count {total}\n"));
}

/// Renders the whole registry as an OpenMetrics text exposition,
/// terminated by `# EOF`. Served by `dio-serve` under `/metrics`; pure
/// function of the registry, usable standalone for files or tests.
pub fn render(registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    registry.for_each(|raw_name, metric| {
        let name = sanitize_metric_name(raw_name);
        match metric {
            MetricRef::Counter(total) => {
                out.push_str(&format!("# TYPE {name} counter\n{name}_total {total}\n"));
            }
            MetricRef::Gauge(value) => {
                out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
            }
            MetricRef::Histogram(h) => render_histogram(&mut out, &name, h),
        }
    });
    out.push_str("# EOF\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_maps_dots_and_leading_digits() {
        assert_eq!(sanitize_metric_name("tracer.shipper.batch_ns"), "tracer_shipper_batch_ns");
        assert_eq!(sanitize_metric_name("a:b_c1"), "a:b_c1");
        assert_eq!(sanitize_metric_name("1.2"), "_1_2");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(sanitize_metric_name("héllo"), "h_llo");
    }

    #[test]
    fn render_covers_all_kinds_and_terminates() {
        let registry = MetricsRegistry::new();
        registry.counter("ebpf.ring.dropped").add(3);
        registry.gauge("tracer.channel.depth").set(7);
        let h = registry.histogram("tracer.shipper.batch_ns");
        h.record(10);
        h.record(10);
        h.record(5_000);
        let text = render(&registry);
        assert!(text.contains("# TYPE ebpf_ring_dropped counter\nebpf_ring_dropped_total 3\n"));
        assert!(text.contains("# TYPE tracer_channel_depth gauge\ntracer_channel_depth 7\n"));
        assert!(text.contains("# TYPE tracer_shipper_batch_ns histogram\n"));
        assert!(text.contains("tracer_shipper_batch_ns_bucket{le=\"10\"} 2\n"));
        assert!(text.contains("tracer_shipper_batch_ns_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("tracer_shipper_batch_ns_sum 5020\n"));
        assert!(text.contains("tracer_shipper_batch_ns_count 3\n"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_monotone() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("lat");
        for v in [1u64, 2, 4, 8, 16, 1 << 20, 1 << 30] {
            h.record(v);
        }
        let text = render(&registry);
        let mut last = 0u64;
        let mut bucket_lines = 0;
        for line in text.lines().filter(|l| l.starts_with("lat_bucket")) {
            let count: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(count >= last, "cumulative counts never decrease: {line}");
            last = count;
            bucket_lines += 1;
        }
        assert!(bucket_lines >= 8, "7 value buckets plus +Inf");
        assert_eq!(last, 7, "+Inf bucket equals total count");
    }

    #[test]
    fn exemplars_render_inline_on_bucket_lines() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("io.fsync_ns");
        h.enable_exemplars();
        h.record_with_exemplar(4096, 0xdead_beef);
        let text = render(&registry);
        let line = text
            .lines()
            .find(|l| l.starts_with("io_fsync_ns_bucket") && l.contains("trace_id"))
            .expect("exemplar bucket line");
        assert!(line.contains("# {trace_id=\"00000000deadbeef\"} 4096"), "{line}");
    }

    #[test]
    fn empty_histogram_still_closes_the_family() {
        let registry = MetricsRegistry::new();
        registry.histogram("empty");
        let text = render(&registry);
        assert!(text.contains("empty_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("empty_sum 0\n"));
        assert!(text.contains("empty_count 0\n"));
    }
}
