//! End-to-end event spans: per-stage stamps must reconcile *exactly*
//! with the pipeline's event accounting — every stored event is one
//! completed span, every dropped event is one drop-attributed partial
//! span, the lag watermark returns to zero once the session has shipped
//! everything it will ever ship, and each bulk request's span in the flight
//! recorder carries its slowest event's stage breakdown.

use std::time::Duration;

use dio::core::trace::{self, AttrValue};
use dio::core::{Dio, DiskProfile, Kernel, RingConfig, SpanSummary, TraceSpan, TracerConfig};

fn fast_kernel() -> Kernel {
    Kernel::builder().root_disk(DiskProfile::instant()).build()
}

fn transition_counts(spans: &SpanSummary) -> Vec<(&'static str, u64)> {
    SpanSummary::transition_names()
        .into_iter()
        .map(|name| (name, spans.stage(name).map(|h| h.count).unwrap_or(0)))
        .collect()
}

/// Span-derived end-to-end counts reconcile exactly with the event
/// counts of an under-provisioned (really dropping) session.
#[test]
fn span_counts_reconcile_exactly_with_event_counts() {
    let dio = Dio::with_kernel(fast_kernel());
    let session = dio.trace(
        TracerConfig::new("span-recon")
            // A starved consumer over tiny buffers -> real drops, so both
            // the completed and the drop-attributed paths are exercised.
            .ring(RingConfig { bytes_per_cpu: 32 * 512, est_event_bytes: 512 })
            .drain_batch(8)
            .poll_interval(Duration::from_millis(10))
            .telemetry_interval(Duration::from_millis(5)),
    );

    let t = dio.kernel().spawn_process("app").spawn_thread("app");
    let fd = t.creat("/data.bin", 0o644).unwrap();
    for i in 0..4_000u64 {
        t.pwrite64(fd, b"x", i).unwrap();
    }
    t.close(fd).unwrap();
    let report = session.stop();
    let spans = &report.trace.spans;

    // The workload actually exercised both outcomes.
    assert!(report.trace.events_dropped > 0, "tiny ring must drop");
    assert!(report.trace.events_stored > 0);

    // Exact reconciliation: one completed span per stored event, one
    // dropped span per dropped event, nothing double-counted.
    assert_eq!(spans.completed, report.trace.events_stored);
    assert_eq!(spans.e2e.count, report.trace.events_stored);
    assert_eq!(spans.dropped, report.trace.events_dropped);
    assert_eq!(
        spans.completed + spans.dropped,
        report.trace.events_stored + report.trace.events_dropped,
        "every accepted event ends as exactly one span"
    );

    // Every completed span crossed every hand-off: each transition
    // histogram counts exactly the stored events. (Ring-dropped events
    // never reach RingPush, so they contribute to no transition.)
    for (name, count) in transition_counts(spans) {
        assert_eq!(count, report.trace.events_stored, "transition {name}");
    }

    // Drop attribution: the only starvation point in this configuration
    // is the ring, and the per-stage counters sum back to the total.
    assert_eq!(spans.drops_by_stage.get("ring_push"), Some(&spans.dropped));
    assert_eq!(spans.drops_by_stage.values().sum::<u64>(), spans.dropped);

    // A stopped session has shipped everything it will ever ship.
    assert_eq!(spans.lag_watermark_ns, 0);
    assert!(spans.peak_lag_ns > 0, "a starved pipeline must have lagged at some point");

    // The health snapshot carries the same accounting as counters.
    assert_eq!(report.trace.health.counter("span.completed"), spans.completed);
    assert_eq!(report.trace.health.counter("span.dropped"), spans.dropped);
    assert_eq!(report.trace.health.counter("span.drop.at_ring_push"), spans.dropped);

    // One source of truth for drops: the ring's per-CPU counters, the
    // `ebpf.ring.dropped` telemetry counter, and the span collector's
    // attribution are all updated at the ring's single overflow site, so
    // every layer reports the same number.
    assert_eq!(report.trace.health.counter("ebpf.ring.dropped"), spans.dropped);
    assert_eq!(report.trace.health.counter("ebpf.ring.dropped"), report.trace.events_dropped);

    // Per-event timing leaves through the flight recorder: one
    // `ship.batch` span per bulk request under this session's root, each
    // carrying its oldest event's stage breakdown. The transitions sum to
    // that event's end-to-end time, and the slowest of them is the e2e
    // histogram's (exact) max.
    let recorded = trace::recorder().snapshot();
    let root = recorded
        .iter()
        .find(|s| {
            s.name == "session"
                && s.attrs.get("sid") == Some(AttrValue::U64(trace::fnv64("span-recon")))
        })
        .expect("session root span recorded");
    let u64_attr = |span: &TraceSpan, key: &str| match span.attrs.get(key) {
        Some(AttrValue::U64(v)) => v,
        other => panic!("ship.batch carries {key}, got {other:?}"),
    };
    let batches: Vec<&TraceSpan> =
        recorded.iter().filter(|s| s.name == "ship.batch" && s.parent_id == root.span_id).collect();
    assert_eq!(batches.len() as u64, report.trace.batches);
    for batch in &batches {
        let stages: u64 =
            SpanSummary::transition_names().into_iter().map(|name| u64_attr(batch, name)).sum();
        assert_eq!(stages, u64_attr(batch, "e2e_ns"), "transitions decompose e2e");
    }
    let slowest = batches.iter().map(|batch| u64_attr(batch, "e2e_ns")).max();
    assert_eq!(slowest, Some(spans.e2e.max));
}
