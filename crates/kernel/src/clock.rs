//! The simulated kernel clock.

use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic nanosecond clock shared by every kernel component.
///
/// Real wall time elapses (threads really run and really wait on the disk
/// model), but timestamps are reported relative to a paper-like epoch so
/// trace tables look like the figures in the paper.
///
/// # Examples
///
/// ```
/// use dio_kernel::SimClock;
///
/// let clock = SimClock::new();
/// let a = clock.now_ns();
/// let b = clock.now_ns();
/// assert!(b >= a);
/// ```
#[derive(Debug, Clone)]
pub struct SimClock {
    inner: Arc<ClockInner>,
}

#[derive(Debug)]
struct ClockInner {
    base: Instant,
    epoch_ns: u64,
}

/// Epoch matching the figures in the paper (March 2023, ns since Unix epoch).
pub const PAPER_EPOCH_NS: u64 = 1_679_308_382_000_000_000;

impl SimClock {
    /// Creates a clock starting at [`PAPER_EPOCH_NS`].
    pub fn new() -> Self {
        Self::with_epoch(PAPER_EPOCH_NS)
    }

    /// Creates a clock starting at an arbitrary epoch (ns).
    pub fn with_epoch(epoch_ns: u64) -> Self {
        SimClock { inner: Arc::new(ClockInner { base: Instant::now(), epoch_ns }) }
    }

    /// Current time in nanoseconds since the Unix epoch (simulated).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// The simulated time of a clock reading the caller already holds.
    #[inline]
    pub fn ns_at(&self, at: Instant) -> u64 {
        self.inner.epoch_ns + at.saturating_duration_since(self.inner.base).as_nanos() as u64
    }

    /// Nanoseconds elapsed since the clock was created.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.inner.base.elapsed().as_nanos() as u64
    }

    /// The epoch this clock started from.
    pub fn epoch_ns(&self) -> u64 {
        self.inner.epoch_ns
    }

    /// Blocks the calling thread until the clock reaches `deadline_ns`.
    ///
    /// Uses `thread::sleep` for coarse waits and a short spin for the final
    /// stretch, giving roughly ±30 µs accuracy without burning CPU.
    pub fn sleep_until(&self, deadline_ns: u64) {
        loop {
            let now = self.now_ns();
            if now >= deadline_ns {
                return;
            }
            let remaining = deadline_ns - now;
            if remaining > 120_000 {
                // Leave a margin for sleep overshoot.
                std::thread::sleep(Duration::from_nanos(remaining - 60_000));
            } else if remaining > 5_000 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Blocks the calling thread for `dur_ns` nanoseconds of simulated time.
    pub fn sleep_ns(&self, dur_ns: u64) {
        self.sleep_until(self.now_ns() + dur_ns);
    }
}

impl Default for SimClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic() {
        let c = SimClock::new();
        let mut prev = c.now_ns();
        for _ in 0..100 {
            let now = c.now_ns();
            assert!(now >= prev);
            prev = now;
        }
    }

    #[test]
    fn epoch_applied() {
        let c = SimClock::with_epoch(5_000);
        assert!(c.now_ns() >= 5_000);
        assert_eq!(c.epoch_ns(), 5_000);
        // Paper-like default epoch.
        assert!(SimClock::new().now_ns() >= PAPER_EPOCH_NS);
    }

    #[test]
    fn sleep_until_reaches_deadline() {
        let c = SimClock::new();
        let deadline = c.now_ns() + 2_000_000; // 2 ms
        c.sleep_until(deadline);
        assert!(c.now_ns() >= deadline);
    }

    #[test]
    fn sleep_until_past_deadline_returns_immediately() {
        let c = SimClock::new();
        let t0 = c.now_ns();
        c.sleep_until(t0.saturating_sub(1_000_000));
        assert!(c.now_ns() - t0 < 1_000_000);
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        let t1 = a.now_ns();
        let t2 = b.now_ns();
        assert!(t2 >= t1);
        assert!(t2 - t1 < 1_000_000_000);
    }
}
