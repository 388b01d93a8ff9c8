//! Blocking bounded channel, API-compatible with `crossbeam::channel` for
//! the operations the workspace uses (`bounded`, `send`, `recv`,
//! `recv_timeout`, disconnection semantics).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

struct Shared<T> {
    queue: Mutex<VecDeque<T>>,
    cap: usize,
    not_empty: Condvar,
    not_full: Condvar,
    senders: AtomicUsize,
    receivers: AtomicUsize,
}

/// Creates a bounded channel with room for `cap` in-flight messages.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        cap: cap.max(1),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
    });
    (Sender { shared: shared.clone() }, Receiver { shared })
}

/// Error returned by [`Sender::send`] when all receivers are gone.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Receiver::recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived before the timeout elapsed.
    Timeout,
    /// All senders disconnected and the queue is drained.
    Disconnected,
}

/// The sending half of a bounded channel.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    /// Sends a message, blocking while the channel is full. A blocked
    /// sender sleeps until a receive makes room or the last receiver goes.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if self.shared.receivers.load(Ordering::SeqCst) == 0 {
                return Err(SendError(value));
            }
            if queue.len() < self.shared.cap {
                queue.push_back(value);
                drop(queue);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            queue = self.shared.not_full.wait(queue).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Number of messages currently buffered.
    pub fn len(&self) -> usize {
        self.shared.queue.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the channel buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::SeqCst);
        Sender { shared: self.shared.clone() }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Under the lock: a receiver holds it from its check of
            // `senders` until it waits, so the wake cannot fall between.
            let _queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.not_empty.notify_all();
        }
    }
}

/// The receiving half of a bounded channel.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// Receives a message, blocking until one arrives or all senders hang
    /// up. It sleeps until then: no timer wakes it to look.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(v) = queue.pop_front() {
                drop(queue);
                self.shared.not_full.notify_one();
                return Ok(v);
            }
            if self.shared.senders.load(Ordering::SeqCst) == 0 {
                return Err(RecvError);
            }
            queue = self.shared.not_empty.wait(queue).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Receives a message, waiting at most `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(v) = queue.pop_front() {
                drop(queue);
                self.shared.not_full.notify_one();
                return Ok(v);
            }
            if self.shared.senders.load(Ordering::SeqCst) == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            queue = self
                .shared
                .not_empty
                .wait_timeout(queue, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// Attempts to receive without blocking.
    pub fn try_recv(&self) -> Option<T> {
        let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        let v = queue.pop_front();
        if v.is_some() {
            drop(queue);
            self.shared.not_full.notify_one();
        }
        v
    }

    /// Number of messages currently buffered.
    pub fn len(&self) -> usize {
        self.shared.queue.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the channel buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.receivers.fetch_add(1, Ordering::SeqCst);
        Receiver { shared: self.shared.clone() }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        if self.shared.receivers.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Under the lock, as in `Sender::drop`.
            let _queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_in_order() {
        let (tx, rx) = bounded(4);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(1));
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(2));
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Err(RecvTimeoutError::Timeout));
    }

    #[test]
    fn disconnect_after_drain() {
        let (tx, rx) = bounded(4);
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(7));
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Err(RecvTimeoutError::Disconnected));
    }

    #[test]
    fn send_blocks_until_room() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let t = std::thread::spawn(move || tx.send(2).is_ok());
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        assert!(t.join().unwrap());
    }

    #[test]
    fn recv_wakes_when_the_last_sender_goes() {
        let (tx, rx) = bounded::<i32>(1);
        let t = std::thread::spawn(move || rx.recv());
        std::thread::sleep(Duration::from_millis(20));
        drop(tx);
        assert_eq!(t.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn send_fails_without_receiver() {
        let (tx, rx) = bounded::<i32>(1);
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));
    }
}
