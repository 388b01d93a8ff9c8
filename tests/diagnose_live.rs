//! Live diagnosis under pressure: when the ring buffer backs up, the
//! engine must degrade to sampled evaluation — visible in its stats and
//! telemetry counters — while the shipper keeps flowing untouched. Plus
//! the zero-tap path: a backend-stored session diagnosed after the fact.

use std::time::Duration;

use dio::core::{DiagnoseConfig, Dio, DiskProfile, Kernel, RingConfig, TracerConfig};

fn fast_kernel() -> Kernel {
    Kernel::builder().root_disk(DiskProfile::instant()).build()
}

/// An under-provisioned session (tiny ring, starved consumer) with live
/// diagnosis: detector evaluation drops to sampled mode instead of
/// stalling the shipper.
#[test]
fn pressure_degrades_evaluation_to_sampling_without_stalling_shipper() {
    let dio = Dio::with_kernel(fast_kernel());
    let session = dio.trace(
        TracerConfig::new("degraded")
            .ring(RingConfig { bytes_per_cpu: 32 * 512, est_event_bytes: 512 })
            .drain_batch(8)
            .poll_interval(Duration::from_millis(10))
            .telemetry_interval(Duration::from_millis(5))
            .diagnose(DiagnoseConfig::default()),
    );

    let t = dio.kernel().spawn_process("app").spawn_thread("app");
    let fd = t.creat("/data.bin", 0o644).unwrap();
    for i in 0..4_000u64 {
        t.pwrite64(fd, b"x", i).unwrap();
    }
    t.close(fd).unwrap();
    let report = session.stop();
    let trace = &report.trace;

    // The starvation regime really held.
    assert!(trace.events_dropped > 0, "tiny ring must drop");
    assert!(trace.events_stored > 0);

    // Degradation engaged: some batches were evaluated 1-in-N, so the
    // engine saw everything but inspected only a sample.
    let stats = trace.diagnosis.expect("diagnosis enabled");
    assert_eq!(stats.observed, trace.events_stored, "tap sees every shipped event");
    assert!(stats.degraded_batches > 0, "ring pressure must trigger degraded mode: {stats:?}");
    assert!(stats.sampled_out > 0, "degraded batches skip events: {stats:?}");
    assert_eq!(stats.evaluated + stats.sampled_out, stats.observed);
    assert!(stats.evaluated < stats.observed);

    // Degradation is observable in the session's own telemetry.
    assert_eq!(
        trace.health.counter("diagnose.batches.degraded"),
        stats.degraded_batches,
        "degraded-mode counter must reach the health snapshot"
    );
    assert_eq!(trace.health.counter("diagnose.events.sampled_out"), stats.sampled_out);
    assert_eq!(trace.health.counter("diagnose.events.observed"), stats.observed);

    // The shipper was never stalled by diagnosis: every accepted event
    // still completed its span and landed in the backend.
    assert_eq!(trace.spans.completed, trace.events_stored);
    assert_eq!(trace.spans.lag_watermark_ns, 0, "session drained clean");
    let index = dio.session_index("degraded").expect("session stored");
    assert_eq!(index.len() as u64, trace.events_stored);
}

/// A healthy session evaluates everything: no degraded batches, no
/// sampling.
#[test]
fn unpressured_session_evaluates_every_event() {
    let dio = Dio::with_kernel(fast_kernel());
    let session = dio.trace(TracerConfig::new("calm").diagnose(DiagnoseConfig::default()));
    let t = dio.kernel().spawn_process("app").spawn_thread("app");
    let fd = t.creat("/calm.bin", 0o644).unwrap();
    for _ in 0..50 {
        t.write(fd, b"steady").unwrap();
    }
    t.close(fd).unwrap();
    let report = session.stop();
    let stats = report.trace.diagnosis.expect("diagnosis enabled");
    assert_eq!(stats.observed, report.trace.events_stored);
    assert_eq!(stats.evaluated, stats.observed);
    assert_eq!(stats.sampled_out, 0);
    assert_eq!(stats.degraded_batches, 0);
}

/// The zero-tap path: a session traced without the tap is diagnosed
/// afterwards from its backend-stored events. The replay observes every
/// stored event, none late, and reaches the verdict of a clean writer.
#[test]
fn backend_subscription_feeds_engine_without_tracer_tap() {
    let dio = Dio::with_kernel(fast_kernel());
    // No `.diagnose(..)` on the tracer: nothing is diagnosed while it runs.
    let session = dio.trace(TracerConfig::new("subfed"));
    let t = dio.kernel().spawn_process("tailer").spawn_thread("tailer");
    let fd = t.creat("/tail.log", 0o644).unwrap();
    for _ in 0..30 {
        t.write(fd, b"line\n").unwrap();
    }
    t.close(fd).unwrap();
    let report = session.stop();
    assert!(report.trace.diagnosis.is_none(), "tracer itself ran without an engine");

    let index = dio.session_index("subfed").expect("session stored");
    let engine = dio_tracer::diagnose_index(&index, DiagnoseConfig::default(), Vec::new());
    let stats = engine.stats();
    assert_eq!(stats.observed, report.trace.events_stored, "the replay saw every stored event");
    assert_eq!(stats.late_events, 0);
    let alerts = engine.alerts();
    assert!(alerts.is_empty(), "a clean writer raises nothing: {alerts:?}");
}
