//! Pipeline threads wake for work, not for clocks (DESIGN.md §17): an idle
//! exporter or accept loop sleeps until there is something to do, `stop`
//! wakes it at once, and the consumer hands the shipper one message per
//! bulk request.
//!
//! Wake-ups are counted, not timed: a thread's `voluntary_ctxt_switches`
//! in `/proc/self/task/<tid>/status` grows by one each time it sleeps. The
//! file holds one `#[test]` so that the thread names it looks up are
//! unambiguous.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dio::core::{DiskProfile, DocStore, Kernel, Tracer, TracerConfig};
use dio_serve::{serve, ServeState};
use dio_telemetry::{Exporter, MetricsRegistry};

/// How long a thread sits idle while its sleeps are counted.
const IDLE: Duration = Duration::from_millis(300);
/// Sleeps an idle thread may take in [`IDLE`]: the one it is in, and one
/// spurious return.
const IDLE_SWITCHES: u64 = 2;
/// How soon `stop` must return.
const STOP_WITHIN: Duration = Duration::from_millis(50);

/// The voluntary context switches of the one live thread whose `comm`
/// starts with `prefix` (the kernel truncates names to 15 bytes).
fn voluntary_switches(prefix: &str) -> u64 {
    let mut found = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let dir = task.expect("task entry").path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else { continue };
        if !comm.starts_with(prefix) {
            continue;
        }
        let Ok(status) = std::fs::read_to_string(dir.join("status")) else { continue };
        let switches = status
            .lines()
            .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|n| n.trim().parse().ok())
            .expect("voluntary_ctxt_switches in status");
        found.push(switches);
    }
    assert_eq!(found.len(), 1, "one live thread named {prefix}*");
    found[0]
}

/// Sleeps made by the thread named `prefix` while idle for [`IDLE`],
/// after it had time to settle into its first sleep.
fn idle_switches(prefix: &str) -> u64 {
    std::thread::sleep(Duration::from_millis(50));
    let before = voluntary_switches(prefix);
    std::thread::sleep(IDLE);
    voluntary_switches(prefix) - before
}

fn exporter_parks_until_its_round() {
    let exporter = Exporter::new("idle", Duration::from_secs(60)).spawn(
        Arc::new(MetricsRegistry::new()),
        |_| {},
        |_| {},
    );
    let made = idle_switches("dio-telemetry");
    let asked = Instant::now();
    assert_eq!(exporter.stop(), 1, "only the final round ran");
    let took = asked.elapsed();
    assert!(made <= IDLE_SWITCHES, "an idle exporter slept {made} times in {IDLE:?}");
    assert!(took <= STOP_WITHIN, "the exporter took {took:?} to stop");
}

fn accept_loop_blocks_in_accept() {
    let state = ServeState {
        session: "idle".to_string(),
        registry: Arc::new(MetricsRegistry::new()),
        backend: Arc::new(DocStore::new()),
        index_name: "dio-idle".to_string(),
        telemetry_index: "dio-telemetry-idle".to_string(),
        engine: None,
        profiler: None,
    };
    let mut server = serve("127.0.0.1:0", state).expect("bind an ephemeral port");
    let made = idle_switches("dio-serve-accep");
    let asked = Instant::now();
    server.shutdown();
    let took = asked.elapsed();
    assert!(made <= IDLE_SWITCHES, "an idle accept loop slept {made} times in {IDLE:?}");
    assert!(took <= STOP_WITHIN, "the server took {took:?} to stop");
}

fn consumer_sends_one_message_per_bulk() {
    let kernel = Kernel::builder().root_disk(DiskProfile::instant()).build();
    // A paced load of groups of syscalls, one every 30 ms, polled every
    // 15 ms — not the default 200 µs. One bulk per group holds only while a
    // group is written within one `poll_interval`: a poll that lands inside
    // a group finds the rings empty when the writer is slower than the poll
    // and hands over the part written so far. A group takes a few
    // milliseconds to write in a debug build, so the long poll keeps each
    // group one bulk (and `stop()` may cut one more), never one per drain.
    // This does not cover the hand-over at the default poll: no test pins
    // bulks per group there.
    let config =
        TracerConfig::new("paced").batch_size(100).poll_interval(Duration::from_millis(15));
    let tracer = Tracer::attach(config, &kernel, DocStore::new());
    let t = kernel.spawn_process("app").spawn_thread("app");
    const GROUPS: u64 = 30;
    for group in 0..GROUPS {
        for i in 0..40 {
            t.creat(&format!("/paced{group}-{i}"), 0o644).unwrap();
        }
        std::thread::sleep(Duration::from_millis(30));
    }
    let summary = tracer.stop();
    assert_eq!(summary.events_stored, 1_200);
    let messages = summary.health.counter("tracer.consumer.handoffs");
    let bulks = summary.health.histogram("tracer.shipper.batch_size").expect("bulks").count;
    assert_eq!(messages, bulks, "consumer → shipper messages");
    assert_eq!(bulks, summary.batches);
    assert!(bulks <= GROUPS + 1, "{bulks} bulks for {GROUPS} groups");
}

#[test]
fn pipeline_threads_wake_for_work_not_for_clocks() {
    exporter_parks_until_its_round();
    accept_loop_blocks_in_accept();
    consumer_sends_one_message_per_bulk();
}
