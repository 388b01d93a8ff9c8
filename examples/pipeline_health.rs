//! Pipeline health: DIO observing itself.
//!
//! ```text
//! cargo run --example pipeline_health
//! ```
//!
//! Every tracing session ships metrics about its own pipeline — syscall
//! dispatch counts, in-kernel filter verdicts, ring-buffer occupancy and
//! drops, consumer/shipper batch latencies, backend bulk times — to a
//! `dio-telemetry-<session>` index next to the trace itself. This example
//! runs a deliberately under-provisioned session (tiny ring, slow
//! consumer) and renders the health dashboard from those documents, plus
//! the per-stage latency waterfall and the pipeline lag time series
//! derived from end-to-end event spans.

use std::time::Duration;

use dio::core::{
    render_health_dashboard, render_latency_waterfall, Dio, HealthReport, RingConfig, TracerConfig,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dio = Dio::new();

    // Small per-CPU buffers + a lazy consumer: the session will drop
    // events, and its telemetry will show exactly where and how many.
    let session = dio.trace(
        TracerConfig::new("health-demo")
            .ring(RingConfig { bytes_per_cpu: 64 * 512, est_event_bytes: 512 })
            .drain_batch(16)
            .poll_interval(Duration::from_millis(10))
            .telemetry_interval(Duration::from_millis(20)),
    );

    // A bursty application: thousands of small files.
    let thread = dio.kernel().spawn_process("burst").spawn_thread("burst");
    thread.mkdir("/spool", 0o755)?;
    for i in 0..3_000 {
        let fd = thread.creat(&format!("/spool/f{i}"), 0o644)?;
        thread.write(fd, b"payload")?;
        thread.close(fd)?;
    }
    let report = session.stop();

    // The summary carries the final health snapshot directly...
    let health = &report.trace.health;
    println!(
        "trace: stored={} dropped={} filtered={}",
        report.trace.events_stored, report.trace.events_dropped, report.trace.events_filtered
    );
    println!(
        "self-telemetry agrees: ring consumed={} dropped={} (filter rejected={})\n",
        health.counter("ebpf.ring.consumed"),
        health.counter("ebpf.ring.dropped"),
        health.counter("ebpf.filter.rejected"),
    );

    // Per-event spans: where did the time go between the kernel
    // tracepoint and the backend acknowledgement, and which stage starved
    // the dropped events?
    println!("{}", render_latency_waterfall(&report.trace.spans));
    assert_eq!(report.trace.spans.e2e.count, report.trace.events_stored);
    assert_eq!(report.trace.spans.dropped, report.trace.events_dropped);
    assert_eq!(
        report.trace.spans.lag_watermark_ns, 0,
        "a stopped session has shipped everything it will ever ship"
    );

    // ...and the exporter shipped per-round documents to the health index,
    // including the lag watermark the dashboard plots as a time series.
    let index = dio.telemetry_index("health-demo").expect("telemetry index");
    println!("{}", render_health_dashboard(&index));

    // The parsed report supports programmatic checks (alerts, CI gates).
    let parsed = HealthReport::from_index(&index);
    let lag_series = parsed.series("span.lag.watermark_ns");
    let peak_lag = lag_series.iter().map(|&(_, v)| v).fold(0.0f64, f64::max);
    assert!(
        peak_lag > 0.0,
        "an under-provisioned pipeline must show nonzero lag at some export round"
    );
    println!(
        "parsed {} export rounds: {:.0} syscalls/s, {:.2}% dropped, peak lag {:.1}µs",
        parsed.rounds.len(),
        parsed.syscall_rate().unwrap_or(0.0),
        parsed.drop_rate() * 100.0,
        peak_lag / 1e3,
    );
    Ok(())
}
