//! Background exporter: periodically snapshots a registry and ships
//! health documents to a sink.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use serde_json::Value;

use crate::registry::{MetricsRegistry, TelemetrySnapshot};

fn unix_now_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// A running exporter thread (see [`Exporter::spawn`]).
pub struct ExporterHandle {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<u64>>,
}

impl ExporterHandle {
    /// Stops the thread after one final collect+export pass and returns
    /// the number of export rounds performed (including the final one).
    pub fn stop(mut self) -> u64 {
        self.finish()
    }

    /// Raises the stop flag, wakes the parked thread and joins it.
    fn finish(&mut self) -> u64 {
        self.stop.store(true, Ordering::SeqCst);
        match self.thread.take() {
            Some(t) => {
                t.thread().unpark();
                t.join().unwrap_or(0)
            }
            None => 0,
        }
    }
}

impl Drop for ExporterHandle {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Builder for the background telemetry exporter.
pub struct Exporter {
    session: String,
    interval: Duration,
}

impl Exporter {
    /// Configures an exporter for `session`, exporting every `interval`.
    pub fn new(session: impl Into<String>, interval: Duration) -> Self {
        Exporter { session: session.into(), interval }
    }

    /// Spawns the export thread.
    ///
    /// Every `interval` the thread runs `collect` (a hook for polling
    /// values that are not pushed, e.g. ring occupancy), snapshots the
    /// registry and passes the rendered health documents to `sink`. A
    /// final pass runs at [`ExporterHandle::stop`], so the last export
    /// always reflects the registry's end state. Between rounds the thread
    /// is parked: it wakes once per round, and `stop` wakes it at once.
    pub fn spawn(
        self,
        registry: Arc<MetricsRegistry>,
        collect: impl Fn(&MetricsRegistry) + Send + 'static,
        mut sink: impl FnMut(Vec<Value>) + Send + 'static,
    ) -> ExporterHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let thread = std::thread::Builder::new()
            .name("dio-telemetry-exporter".to_string())
            .spawn(move || {
                let mut seq = 0u64;
                let mut export = |registry: &MetricsRegistry, seq: u64| {
                    collect(registry);
                    let snapshot: TelemetrySnapshot = registry.snapshot();
                    let docs = snapshot.health_documents(&self.session, seq, unix_now_ns());
                    if !docs.is_empty() {
                        sink(docs);
                    }
                };
                // Rounds fall on a fixed grid: the thread parks until the
                // next one, and only `stop` wakes it earlier. A round that
                // overran its slot starts the grid afresh.
                let mut next = Instant::now() + self.interval;
                while !stop_flag.load(Ordering::SeqCst) {
                    let now = Instant::now();
                    if now < next {
                        // A spurious return re-checks and parks again.
                        std::thread::park_timeout(next - now);
                        continue;
                    }
                    seq += 1;
                    export(&registry, seq);
                    next = (next + self.interval).max(Instant::now());
                }
                // Final flush with the end-state of every metric.
                seq += 1;
                export(&registry, seq);
                seq
            })
            .expect("spawn telemetry exporter");
        ExporterHandle { stop, thread: Some(thread) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn exports_periodically_and_on_stop() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter("c").add(5);
        let seen: Arc<Mutex<Vec<Vec<Value>>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = seen.clone();
        let handle = Exporter::new("s", Duration::from_millis(10)).spawn(
            registry.clone(),
            |_| {},
            move |docs| sink_seen.lock().unwrap().push(docs),
        );
        std::thread::sleep(Duration::from_millis(40));
        registry.counter("c").add(1);
        let rounds = handle.stop();
        let batches = seen.lock().unwrap();
        assert!(rounds >= 2, "at least one periodic and one final export");
        assert_eq!(batches.len() as u64, rounds);
        let last = batches.last().unwrap();
        assert_eq!(last[0]["value"], 6, "final export sees the end state");
    }

    #[test]
    fn collect_hook_runs_before_each_export() {
        let registry = Arc::new(MetricsRegistry::new());
        let handle = Exporter::new("s", Duration::from_secs(60)).spawn(
            registry.clone(),
            |r| r.gauge("polled").set(123),
            |_| {},
        );
        let rounds = handle.stop();
        assert_eq!(rounds, 1, "only the final flush ran");
        assert_eq!(registry.snapshot().gauge("polled"), 123);
    }
}
