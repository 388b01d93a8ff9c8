//! The latency waterfall: where does an event's time go between the
//! kernel tracepoint and the backend acknowledgement?
//!
//! Rendered from a session's span summary (`TraceSummary.spans` or
//! `Tracer::span_summary`), the waterfall shows per-stage p50/p99 bars in
//! pipeline order, the end-to-end latency distribution, the lag
//! watermark, and drop attribution — the uringscope-style
//! submission→completion view for DIO's own pipeline.

use dio_telemetry::{format_ns, HistogramSnapshot, SpanSummary};

fn bar(value: u64, max: u64, width: usize, glyph: char) -> String {
    if max == 0 {
        return String::new();
    }
    let n = ((value as f64 / max as f64) * width as f64).round() as usize;
    glyph.to_string().repeat(n.min(width))
}

fn distribution_line(name: &str, h: &HistogramSnapshot, name_width: usize) -> String {
    format!(
        "{name:<name_width$}  {:>8}  {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        h.count,
        format_ns(h.min),
        format_ns(h.p50),
        format_ns(h.p90),
        format_ns(h.p99),
        format_ns(h.p999),
        format_ns(h.max),
    )
}

/// Renders the per-stage latency waterfall of a tracing session.
///
/// Sections:
/// 1. **Waterfall** — one row per stage transition in pipeline order,
///    with p50 (`#`) and p99 (`-`) bars on a shared scale;
/// 2. **End-to-end** — the kernel-dispatch→bulk-index distribution
///    (completed spans only, drop-attributed partials excluded);
/// 3. **Lag watermark** — current and peak pipeline lag;
/// 4. **Drop attribution** — dropped events by the stage that starved
///    (omitted when nothing dropped).
///
/// # Examples
///
/// ```
/// use dio_telemetry::{MetricsRegistry, SpanCollector, Stage, StageStamps};
///
/// let registry = MetricsRegistry::new();
/// let spans = SpanCollector::new(&registry);
/// let mut stamps = StageStamps::new();
/// for (i, stage) in Stage::ALL.into_iter().enumerate() {
///     stamps.stamp(stage, 100 * (i as u64 + 1));
/// }
/// spans.record_shipped(&stamps);
/// let art = dio_viz::render_latency_waterfall(&spans.summary());
/// assert!(art.contains("Latency waterfall"));
/// assert!(art.contains("dispatch_to_push"));
/// ```
pub fn render_latency_waterfall(spans: &SpanSummary) -> String {
    let mut out = format!(
        "== Latency waterfall ({} spans completed, {} dropped) ==\n\n",
        spans.completed, spans.dropped
    );
    if spans.completed == 0 && spans.dropped == 0 {
        out.push_str("no spans recorded\n");
        return out;
    }

    let transitions = SpanSummary::transition_names();
    let name_width = transitions.iter().map(|n| n.len()).max().unwrap_or(8).max("transition".len());
    let scale_max =
        transitions.iter().filter_map(|n| spans.stage(n)).map(|h| h.p99).max().unwrap_or(0);

    const BAR_WIDTH: usize = 40;
    out.push_str(&format!(
        "### Per-stage latency (p50 `#`, p99 `-`, shared scale, max p99 = {})\n",
        format_ns(scale_max)
    ));
    for name in transitions {
        let Some(h) = spans.stage(name) else { continue };
        if h.count == 0 {
            out.push_str(&format!("{name:<name_width$} | (no samples)\n"));
            continue;
        }
        let p50_bar = bar(h.p50, scale_max, BAR_WIDTH, '#');
        let p99_tail = bar(h.p99, scale_max, BAR_WIDTH, '-');
        let tail = p99_tail.len().saturating_sub(p50_bar.len());
        out.push_str(&format!(
            "{name:<name_width$} | {p50_bar}{}  p50 {} / p99 {} ({} samples)\n",
            "-".repeat(tail),
            format_ns(h.p50),
            format_ns(h.p99),
            h.count,
        ));
    }
    out.push('\n');

    out.push_str("### Distributions\n");
    out.push_str(&format!(
        "{:<name_width$}  {:>8}  {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        "transition", "count", "min", "p50", "p90", "p99", "p999", "max"
    ));
    for name in transitions {
        if let Some(h) = spans.stage(name) {
            out.push_str(&distribution_line(name, h, name_width));
        }
    }
    out.push_str(&distribution_line("e2e", &spans.e2e, name_width));
    out.push('\n');

    out.push_str(&format!(
        "lag watermark: {} now, {} peak\n",
        format_ns(spans.lag_watermark_ns),
        format_ns(spans.peak_lag_ns)
    ));

    if !spans.drops_by_stage.is_empty() {
        out.push_str("\n### Drop attribution (stage that starved)\n");
        let stage_width =
            spans.drops_by_stage.keys().map(String::len).max().unwrap_or(5).max("stage".len());
        let max_drops = spans.drops_by_stage.values().copied().max().unwrap_or(0);
        for (stage, n) in &spans.drops_by_stage {
            out.push_str(&format!(
                "{stage:<stage_width$} | {} {n}\n",
                bar(*n, max_drops, BAR_WIDTH, '#')
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dio_telemetry::{MetricsRegistry, SpanCollector, Stage, StageStamps};

    fn stamps_with_gaps(base: u64, gaps: [u64; 5]) -> StageStamps {
        let mut s = StageStamps::new();
        let mut t = base;
        s.stamp(Stage::KernelDispatch, t);
        for (stage, gap) in Stage::ALL.into_iter().skip(1).zip(gaps) {
            t += gap;
            s.stamp(stage, t);
        }
        s
    }

    #[test]
    fn waterfall_renders_stages_e2e_and_drops() {
        let registry = MetricsRegistry::new();
        let spans = SpanCollector::new(&registry);
        for i in 0..20 {
            spans.record_shipped(&stamps_with_gaps(1_000 + i, [100, 5_000, 200, 300, 50_000]));
        }
        // One ring drop: only kernel dispatch stamped.
        let mut partial = StageStamps::new();
        partial.stamp(Stage::KernelDispatch, 9_999);
        spans.record_drop(&partial);

        let art = render_latency_waterfall(&spans.summary());
        assert!(art.contains("20 spans completed, 1 dropped"));
        assert!(art.contains("dispatch_to_push"));
        assert!(art.contains("enqueue_to_index"));
        assert!(art.contains("e2e"));
        assert!(art.contains("lag watermark:"));
        assert!(art.contains("Drop attribution"));
        assert!(art.contains("ring_push"), "ring drop attributed to ring_push:\n{art}");
        // The longest transition dominates the shared scale: its p50 bar
        // must be the longest rendered.
        let enqueue_row = art.lines().find(|l| l.starts_with("enqueue_to_index")).unwrap();
        let push_row = art.lines().find(|l| l.starts_with("dispatch_to_push")).unwrap();
        let hashes = |s: &str| s.chars().filter(|&c| c == '#').count();
        assert!(hashes(enqueue_row) > hashes(push_row));
    }

    #[test]
    fn empty_summary_renders_placeholder() {
        let registry = MetricsRegistry::new();
        let spans = SpanCollector::new(&registry);
        let art = render_latency_waterfall(&spans.summary());
        assert!(art.contains("no spans recorded"));
    }
}
