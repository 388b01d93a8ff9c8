//! Background exporter: periodically snapshots a registry and ships
//! health documents to a sink.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::registry::{MetricsRegistry, TelemetrySnapshot};

fn unix_now_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// One export round as the exporter hands it to its sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthRound {
    /// Export sequence number: 1 for the first round, one more per round.
    pub seq: u64,
    /// Export wall-clock time (ns since the Unix epoch).
    pub time_ns: u64,
    /// The health documents of the metrics that changed since the round
    /// before, as JSON text ([`TelemetrySnapshot::health_texts`]): of every
    /// metric in the first and the final round, of none in a round where
    /// nothing changed.
    pub documents: Vec<String>,
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
    /// registry and passes the round to `sink`: every round, with the health
    /// documents of the metrics whose values differ from the round before's.
    /// The first round renders every metric, and so does a final pass at
    /// [`ExporterHandle::stop`], so the last export always holds the
    /// registry's whole end state. Between rounds the thread is parked: it
    /// wakes once per round, and `stop` wakes it at once.
    pub fn spawn(
        self,
        registry: Arc<MetricsRegistry>,
        collect: impl Fn(&MetricsRegistry) + Send + 'static,
        mut sink: impl FnMut(HealthRound) + Send + 'static,
    ) -> ExporterHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let thread = std::thread::Builder::new()
            .name("dio-telemetry-exporter".to_string())
            .spawn(move || {
                let mut seq = 0u64;
                let mut previous: Option<TelemetrySnapshot> = None;
                let mut export = |registry: &MetricsRegistry, seq: u64, last: bool| {
                    collect(registry);
                    let snapshot = registry.snapshot();
                    let time_ns = unix_now_ns();
                    let since = previous.as_ref().filter(|_| !last);
                    let documents = snapshot.health_texts(since, &self.session, seq, time_ns);
                    sink(HealthRound { seq, time_ns, documents });
                    previous = Some(snapshot);
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
                    export(&registry, seq, false);
                    next = (next + self.interval).max(Instant::now());
                }
                // Final flush with the end-state of every metric.
                seq += 1;
                export(&registry, seq, true);
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

    /// A round ships the metrics that changed since the round before, and
    /// no document when none did; the final round ships every metric.
    #[test]
    fn exports_periodically_and_on_stop() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter("c").add(5);
        registry.counter("still").add(1);
        let seen: Arc<Mutex<Vec<HealthRound>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = seen.clone();
        let handle = Exporter::new("s", Duration::from_millis(10)).spawn(
            registry.clone(),
            |_| {},
            move |round| sink_seen.lock().unwrap().push(round),
        );
        while seen.lock().unwrap().len() < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        registry.counter("c").add(1);
        let shipped_after = |rounds: &[HealthRound]| {
            rounds.get(2..).and_then(|later| later.iter().position(|r| !r.documents.is_empty()))
        };
        while shipped_after(&seen.lock().unwrap()).is_none() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let rounds = handle.stop();
        let batches = seen.lock().unwrap();
        assert!(rounds >= 4, "periodic rounds and one final export");
        assert_eq!(batches.len() as u64, rounds, "the sink sees every round");
        let metrics = |round: &HealthRound| -> Vec<(String, u64)> {
            let docs = round.documents.iter().map(|text| serde_json::from_str(text).unwrap());
            let docs: Vec<serde_json::Value> = docs.collect();
            let metric = |d: &serde_json::Value| {
                (d["metric"].as_str().unwrap().into(), d["value"].as_u64().unwrap())
            };
            docs.iter().map(metric).collect()
        };
        assert!(batches[1].documents.is_empty(), "a round with no change ships no document");
        let changed = &batches[2 + shipped_after(&batches).unwrap()];
        assert_eq!(metrics(changed), [("c".to_string(), 6)], "the changed counter ships alone");
        let last = batches.last().unwrap();
        assert_eq!(last.seq, rounds);
        assert_eq!(
            metrics(last),
            [("c".to_string(), 6), ("still".to_string(), 1)],
            "the final round carries every metric"
        );
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
