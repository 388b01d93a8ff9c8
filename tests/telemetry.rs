//! Self-telemetry end-to-end: the metrics the pipeline reports about
//! itself must reconcile *exactly* with the ground truth the tracer
//! returns in its [`TraceSummary`], and the health index + dashboard must
//! be populated after a traced run.

use std::time::Duration;

use dio::core::{Dio, DiskProfile, Kernel, Query, RingConfig, TracerConfig};
use dio_viz::{render_health_dashboard, HealthReport};

fn fast_kernel() -> Kernel {
    Kernel::builder().root_disk(DiskProfile::instant()).build()
}

/// Telemetry counters reconcile exactly with the trace summary: stored,
/// dropped and filtered events agree between the self-reported metrics and
/// the pipeline's own accounting.
#[test]
fn telemetry_counters_reconcile_with_trace_summary() {
    let dio = Dio::with_kernel(fast_kernel());
    let traced = dio.kernel().spawn_process("app");
    let noisy = dio.kernel().spawn_process("neighbor");
    let session = dio.trace(
        TracerConfig::new("recon")
            // Only the traced process passes the in-kernel filter -> every
            // syscall of the neighbor is counted as filtered.
            .pids([traced.pid()])
            // A starved consumer over tiny buffers -> real drops.
            .ring(RingConfig { bytes_per_cpu: 32 * 512, est_event_bytes: 512 })
            .drain_batch(8)
            .poll_interval(Duration::from_millis(10))
            .telemetry_interval(Duration::from_millis(5)),
    );

    let t = traced.spawn_thread("app");
    let fd = t.creat("/data.bin", 0o644).unwrap();
    for i in 0..4_000u64 {
        t.pwrite64(fd, b"x", i).unwrap();
    }
    t.close(fd).unwrap();
    let n = noisy.spawn_thread("neighbor");
    let nfd = n.creat("/noise.bin", 0o644).unwrap();
    for i in 0..500u64 {
        n.pwrite64(nfd, b"y", i).unwrap();
    }
    n.close(nfd).unwrap();
    let report = session.stop();
    let health = &report.trace.health;

    // Exact reconciliation against the summary's ground truth.
    assert_eq!(health.counter("ebpf.ring.dropped"), report.trace.events_dropped);
    assert_eq!(health.counter("ebpf.filter.rejected"), report.trace.events_filtered);
    assert_eq!(health.counter("ebpf.ring.consumed"), report.trace.events_stored);
    assert_eq!(
        health.counter("ebpf.ring.pushed"),
        report.trace.events_stored,
        "shutdown drains the ring, so everything pushed is stored"
    );

    // The workload actually exercised every accounting path.
    assert!(report.trace.events_dropped > 0, "tiny ring must drop");
    assert_eq!(
        report.trace.events_filtered, 502,
        "the neighbor's creat + 500 writes + close rejected by the PID filter"
    );
    assert!(report.trace.events_stored > 0);

    // Conservation across the whole pipeline: every accepted event is
    // pushed or dropped, and every dispatched syscall is accepted or
    // rejected by the filter.
    assert_eq!(
        health.counter("ebpf.filter.accepted"),
        health.counter("ebpf.ring.pushed") + health.counter("ebpf.ring.dropped"),
    );
    assert_eq!(
        health.counter("kernel.syscalls.dispatched"),
        health.counter("ebpf.filter.accepted") + health.counter("ebpf.filter.rejected"),
    );
    assert_eq!(
        health.counter("kernel.syscalls.dispatched"),
        4_504,
        "both processes' syscalls are dispatched; only the filter separates them"
    );

    // Stage instrumentation saw real traffic.
    assert!(health.gauge("ebpf.ring.occupancy_hwm") > 0);
    let batches = health.histogram("tracer.shipper.batch_ns").expect("shipper timed batches");
    assert!(batches.count > 0);
    assert!(batches.p99 >= batches.p50);
    assert!(health.histogram("tracer.consumer.parse_ns").expect("parse timed").count > 0);
}

/// A traced run populates the `dio-telemetry-<session>` index with health
/// documents, the session listing hides it, and the health dashboard
/// renders nonzero derived indicators from it.
#[test]
fn health_index_and_dashboard_populated() {
    let dio = Dio::with_kernel(fast_kernel());
    let session = dio.trace(
        TracerConfig::new("healthy")
            .ring(RingConfig { bytes_per_cpu: 64 * 512, est_event_bytes: 512 })
            .drain_batch(16)
            .poll_interval(Duration::from_millis(5))
            .telemetry_interval(Duration::from_millis(5)),
    );
    let t = dio.kernel().spawn_process("app").spawn_thread("app");
    for i in 0..2_000u64 {
        let fd = t.creat(&format!("/f{i}"), 0o644).unwrap();
        t.write(fd, b"payload").unwrap();
        t.close(fd).unwrap();
    }
    let report = session.stop();

    // The telemetry index exists, is populated, and stays out of the
    // user-facing session list.
    assert_eq!(dio.sessions(), vec!["healthy".to_string()]);
    let index = dio.telemetry_index("healthy").expect("telemetry index exists");
    assert!(index.count(&Query::MatchAll) > 0, "health documents shipped");
    assert!(
        index.count(&Query::term("metric", "kernel.syscalls.dispatched")) > 0,
        "per-metric docs queryable"
    );

    // Parsed report agrees with the live snapshot the summary captured.
    let parsed = HealthReport::from_index(&index);
    assert!(!parsed.rounds.is_empty());
    let last = parsed.latest().expect("at least one export round");
    assert_eq!(
        last.counter("kernel.syscalls.dispatched"),
        report.trace.health.counter("kernel.syscalls.dispatched"),
        "final export round carries the end state"
    );
    assert!(parsed.syscall_rate().is_some_and(|rate| rate > 0.0), "several rounds: a rate");

    // The rendered dashboard shows the acceptance-criteria indicators.
    let out = render_health_dashboard(&index);
    assert!(out.contains("pipeline-health"), "dashboard header:\n{out}");
    assert!(out.contains("syscall dispatch rate:"), "syscall rate shown:\n{out}");
    assert!(out.contains("ring drop rate:"), "drop rate shown:\n{out}");
    assert!(out.contains("occupancy high-water mark"), "ring HWM shown:\n{out}");
    assert!(out.contains("tracer.shipper.batch_ns"), "shipper latency percentiles:\n{out}");
    assert!(!out.contains("no health documents"));
}

/// The telemetry index holds no per-event document: two sessions that issue
/// the same syscall mix 1 000 and 20 000 times, exporting only when they
/// stop, leave the same number of documents there.
#[test]
fn telemetry_index_holds_no_per_event_document() {
    let dio = Dio::with_kernel(fast_kernel());
    let telemetry_documents = |name: &str, writes: u64| {
        let session = dio.trace(
            TracerConfig::new(name)
                .ring(RingConfig::with_bytes_per_cpu(16 << 20))
                .telemetry_interval(Duration::from_secs(3_600)),
        );
        let t = dio.kernel().spawn_process("app").spawn_thread("app");
        let fd = t.creat(&format!("/{name}.bin"), 0o644).unwrap();
        for i in 0..writes {
            t.pwrite64(fd, b"x", i).unwrap();
        }
        t.close(fd).unwrap();
        let report = session.stop();
        assert_eq!(report.trace.events_stored, writes + 2);
        let index = dio.telemetry_index(name).expect("the final flush exported");
        index.count(&Query::MatchAll)
    };
    assert_eq!(telemetry_documents("few", 1_000), telemetry_documents("many", 20_000));
}
