//! Continuous queries: push-based subscriptions to an index's ingest.
//!
//! A [`Subscription`] receives every batch accepted by [`Index::bulk`] /
//! [`Index::index_doc`] *after* it was created — the push analogue of
//! Elasticsearch's `_changes`-style polling; `dio-serve` streams alert
//! documents to its SSE clients this way.
//!
//! Delivery never blocks the writer: each subscriber owns a bounded queue
//! of batches, and a full queue **drops the batch for that subscriber**
//! (counted in [`Subscription::missed_batches`]) rather than stalling the
//! ingest path.
//!
//! [`Index::bulk`]: crate::Index::bulk
//! [`Index::index_doc`]: crate::Index::index_doc

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde_json::Value;

/// Default bounded queue depth (in batches) for [`crate::DocStore::subscribe`].
pub const DEFAULT_SUBSCRIPTION_CAPACITY: usize = 64;

/// Shared state between an index and one subscriber.
#[derive(Debug)]
pub(crate) struct SubQueue {
    batches: Mutex<VecDeque<Vec<Value>>>,
    capacity: usize,
    missed: AtomicU64,
    alive: AtomicBool,
    /// Set by the index side when it shuts down (store close/reopen,
    /// `delete_index`): no further batches will ever arrive.
    closed: AtomicBool,
}

impl SubQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        SubQueue {
            batches: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            missed: AtomicU64::new(0),
            alive: AtomicBool::new(true),
            closed: AtomicBool::new(false),
        }
    }

    pub(crate) fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Non-blocking delivery: drops (and counts) the batch when full.
    pub(crate) fn offer(&self, batch: &[Value]) {
        let mut q = self.batches.lock();
        if q.len() >= self.capacity {
            drop(q);
            self.missed.fetch_add(1, Ordering::Relaxed);
        } else {
            q.push_back(batch.to_vec());
        }
    }
}

/// Consumer handle of a continuous query (see the module docs).
///
/// Dropping the subscription detaches it: the index stops cloning batches
/// for it on the next delivery.
#[derive(Debug)]
pub struct Subscription {
    queue: Arc<SubQueue>,
}

impl Subscription {
    pub(crate) fn new(queue: Arc<SubQueue>) -> Self {
        Subscription { queue }
    }

    /// Pops the oldest pending batch, if any.
    pub fn try_recv(&self) -> Option<Vec<Value>> {
        self.queue.batches.lock().pop_front()
    }

    /// Waits up to `timeout` for a batch (polling; granularity ~1ms).
    ///
    /// On a **closed** subscription (see [`Subscription::is_closed`])
    /// this still drains queued batches, but returns `None` immediately
    /// once the queue is empty instead of sleeping out the timeout — a
    /// consumer looping on `recv_timeout` terminates deterministically
    /// when its index shuts down.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Vec<Value>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(batch) = self.try_recv() {
                return Some(batch);
            }
            // Check closed *after* the drain attempt: batches delivered
            // before the close are never lost.
            if self.is_closed() || Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Whether the index side shut down (store close/reopen or
    /// `delete_index`). Queued batches remain drainable; nothing new
    /// will ever arrive, and [`Subscription::missed_batches`] is final.
    pub fn is_closed(&self) -> bool {
        self.queue.closed.load(Ordering::Acquire)
    }

    /// Pops every pending batch.
    pub fn drain(&self) -> Vec<Vec<Value>> {
        self.queue.batches.lock().drain(..).collect()
    }

    /// Batches dropped because this subscriber's queue was full.
    pub fn missed_batches(&self) -> u64 {
        self.queue.missed.load(Ordering::Relaxed)
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.queue.alive.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Index;
    use serde_json::json;

    #[test]
    fn subscription_sees_batches_indexed_after_creation() {
        let idx = Index::new("t");
        idx.bulk(vec![json!({"n": 0})]); // before subscribe: not delivered
        let sub = idx.subscribe(8);
        idx.bulk(vec![json!({"n": 1}), json!({"n": 2})]);
        idx.index_doc(json!({"n": 3}));
        let batches = sub.drain();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].len(), 2);
        assert_eq!(batches[1][0]["n"], 3);
        assert_eq!(sub.missed_batches(), 0);
        // The documents are also stored normally.
        assert_eq!(idx.len(), 4);
    }

    #[test]
    fn full_queue_drops_batches_instead_of_blocking() {
        let idx = Index::new("t");
        let sub = idx.subscribe(2);
        for n in 0..5 {
            idx.bulk(vec![json!({"n": n})]);
        }
        assert_eq!(sub.missed_batches(), 3);
        // Ingest was never stalled: all docs landed.
        assert_eq!(idx.len(), 5);
        // Draining frees space for new deliveries.
        assert_eq!(sub.drain().len(), 2, "queue capped at capacity");
        idx.bulk(vec![json!({"n": 9})]);
        assert_eq!(sub.try_recv().unwrap()[0]["n"], 9);
    }

    #[test]
    fn dropped_subscription_detaches() {
        let idx = Index::new("t");
        let sub = idx.subscribe(8);
        idx.bulk(vec![json!({"n": 1})]);
        drop(sub);
        idx.bulk(vec![json!({"n": 2})]);
        assert_eq!(idx.subscriber_count(), 0, "dead subscriber pruned on delivery");
    }

    #[test]
    fn multiple_subscribers_each_get_every_batch() {
        let idx = Index::new("t");
        let a = idx.subscribe(8);
        let b = idx.subscribe(8);
        idx.bulk(vec![json!({"n": 1})]);
        assert_eq!(a.try_recv().unwrap()[0]["n"], 1);
        assert_eq!(b.try_recv().unwrap()[0]["n"], 1);
    }

    #[test]
    fn recv_timeout_returns_queued_batch_and_times_out_when_empty() {
        let idx = Index::new("t");
        let sub = idx.subscribe(8);
        idx.bulk(vec![json!({"n": 1})]);
        assert!(sub.recv_timeout(Duration::from_millis(50)).is_some());
        assert!(sub.recv_timeout(Duration::from_millis(5)).is_none());
    }

    #[test]
    fn no_subscribers_means_no_cloning_path() {
        // Purely behavioral: bulk on an unsubscribed index works as before.
        let idx = Index::new("t");
        let ids = idx.bulk(vec![json!({"n": 1}), json!({"n": 2})]);
        assert_eq!(ids.len(), 2);
        assert_eq!(idx.subscriber_count(), 0);
    }
}
