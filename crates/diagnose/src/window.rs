//! Tumbling / sliding event-time windows.
//!
//! The streaming detectors bucket events into fixed-width windows keyed by
//! event time (`time` field, ns). A window *closes* once the watermark —
//! the largest event time observed so far — passes its end plus one full
//! window of allowed lateness; closed windows are handed to the detector
//! for evaluation and then dropped, so state stays bounded no matter how
//! long the trace runs.
//!
//! A window is sealed at most once. An event that arrives later than the
//! allowed lateness — older than the end of the newest window already
//! sealed — is *late*: it is routed nowhere and counted
//! ([`SlidingWindows::late_events`]), because the window it belongs to has
//! been evaluated and re-opening it would evaluate it again over the
//! stragglers alone. A round-robin drain of per-CPU queues produces exactly
//! that after a stall: a sparse queue runs the watermark ahead of a dense
//! one.
//!
//! With `slide_ns == 0` (the default) windows tumble: each event lands in
//! exactly one window starting at `floor(t / width) * width`, matching the
//! backend's `date_histogram` bucketing so streaming verdicts line up with
//! the offline `correlate` algorithms. A non-zero slide produces
//! overlapping windows anchored at every multiple of the slide.

use std::collections::BTreeMap;

/// Fixed-width windows over event time accumulating per-window state `A`.
#[derive(Debug)]
pub struct SlidingWindows<A> {
    width_ns: u64,
    slide_ns: u64,
    watermark_ns: u64,
    /// End of the newest sealed window: events before it are late.
    sealed_end_ns: u64,
    late: u64,
    open: BTreeMap<u64, A>,
}

impl<A: Default> SlidingWindows<A> {
    /// Tumbling windows of `width_ns`; `slide_ns == 0` means tumble,
    /// otherwise windows start at every multiple of `slide_ns`.
    pub fn new(width_ns: u64, slide_ns: u64) -> Self {
        SlidingWindows {
            width_ns: width_ns.max(1),
            slide_ns,
            watermark_ns: 0,
            sealed_end_ns: 0,
            late: 0,
            open: BTreeMap::new(),
        }
    }

    /// Window width in nanoseconds.
    pub fn width_ns(&self) -> u64 {
        self.width_ns
    }

    /// Largest event time seen so far.
    pub fn watermark_ns(&self) -> u64 {
        self.watermark_ns
    }

    /// Number of windows currently open (accumulating).
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Events refused because their window had already been sealed.
    pub fn late_events(&self) -> u64 {
        self.late
    }

    /// Start timestamps of every window containing `t`, ascending.
    fn starts_for(&self, t: u64) -> impl Iterator<Item = u64> {
        // Tumbling is sliding by the width: starts s, multiples of the
        // step, with s <= t < s + width.
        let step = if self.slide_ns == 0 { self.width_ns } else { self.slide_ns };
        let first = match t.checked_sub(self.width_ns) {
            Some(before) => (before / step).saturating_add(1).saturating_mul(step),
            None => 0,
        };
        (first..=t).step_by(usize::try_from(step).unwrap_or(usize::MAX))
    }

    /// Routes an event at time `t` into its window(s), applying `f` to each
    /// window's accumulator, and advances the watermark. A late event (see
    /// the module docs) is counted and routed nowhere; the return value
    /// says whether the event was late.
    pub fn observe(&mut self, t: u64, mut f: impl FnMut(&mut A)) -> bool {
        if t < self.sealed_end_ns {
            self.late += 1;
            return true;
        }
        for start in self.starts_for(t) {
            f(self.open.entry(start).or_default());
        }
        self.watermark_ns = self.watermark_ns.max(t);
        false
    }

    /// Closes and returns every window whose end + one window of lateness
    /// is behind the watermark, in start order.
    pub fn drain_ready(&mut self) -> Vec<(u64, A)> {
        // Allow one full window of lateness before sealing.
        let horizon = self.watermark_ns.saturating_sub(self.width_ns);
        let mut closed = Vec::new();
        while let Some(first) = self.open.first_entry() {
            let end = first.key().saturating_add(self.width_ns);
            if end > horizon {
                break;
            }
            self.sealed_end_ns = end;
            closed.push(first.remove_entry());
        }
        closed
    }

    /// Closes and returns every remaining window (end of stream).
    pub fn drain_all(&mut self) -> Vec<(u64, A)> {
        if let Some((&last, _)) = self.open.last_key_value() {
            self.sealed_end_ns = last.saturating_add(self.width_ns);
        }
        std::mem::take(&mut self.open).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tumbling_assigns_single_window() {
        let mut w: SlidingWindows<u64> = SlidingWindows::new(100, 0);
        for t in [0, 99, 100, 250] {
            w.observe(t, |c| *c += 1);
        }
        assert_eq!(w.open_count(), 3);
        let all = w.drain_all();
        assert_eq!(all, vec![(0, 2), (100, 1), (200, 1)]);
    }

    #[test]
    fn sliding_assigns_overlapping_windows() {
        let mut w: SlidingWindows<u64> = SlidingWindows::new(100, 50);
        w.observe(120, |c| *c += 1);
        // t=120 belongs to windows starting at 50 and 100.
        let all = w.drain_all();
        assert_eq!(all, vec![(50, 1), (100, 1)]);
    }

    #[test]
    fn drain_ready_respects_lateness() {
        let mut w: SlidingWindows<u64> = SlidingWindows::new(100, 0);
        w.observe(10, |c| *c += 1);
        assert!(w.drain_ready().is_empty(), "watermark too low");
        w.observe(250, |c| *c += 1);
        // horizon = 250 - 100 = 150: window [0,100) sealed, [200,300) open.
        let ready = w.drain_ready();
        assert_eq!(ready, vec![(0, 1)]);
        assert_eq!(w.open_count(), 1);
    }

    #[test]
    fn late_event_within_lateness_still_lands() {
        let mut w: SlidingWindows<u64> = SlidingWindows::new(100, 0);
        w.observe(199, |c| *c += 1);
        w.observe(50, |c| *c += 1); // late but window [0,100) not sealed yet
        let all = w.drain_all();
        assert_eq!(all, vec![(0, 1), (100, 1)]);
    }

    /// The sequence of the bug report: a straggler for a window that was
    /// sealed and evaluated must not seal it a second time.
    #[test]
    fn a_late_event_does_not_reopen_a_sealed_window() {
        let mut w: SlidingWindows<u64> = SlidingWindows::new(100, 0);
        for t in [10, 20, 250] {
            w.observe(t, |c| *c += 1);
        }
        assert_eq!(w.drain_ready(), vec![(0, 2)]);
        assert!(w.observe(50, |c| *c += 1), "refused as late");
        assert_eq!(w.drain_ready(), vec![], "[0, 100) was sealed once already");
        assert_eq!(w.late_events(), 1);
        assert_eq!(w.watermark_ns(), 250);
        // One window of lateness is still allowed: [100, 200) is open.
        assert!(!w.observe(150, |c| *c += 1));
        assert_eq!(w.late_events(), 1);
        assert_eq!(w.drain_all(), vec![(100, 1), (200, 1)]);
        w.observe(299, |c| *c += 1);
        assert_eq!((w.late_events(), w.open_count()), (2, 0), "sealed by drain_all");
    }

    #[test]
    fn sliding_starts_ascend_and_cover_the_event() {
        let w: SlidingWindows<u64> = SlidingWindows::new(100, 30);
        assert_eq!(w.starts_for(0).collect::<Vec<_>>(), [0]);
        assert_eq!(w.starts_for(99).collect::<Vec<_>>(), [0, 30, 60, 90]);
        assert_eq!(w.starts_for(100).collect::<Vec<_>>(), [30, 60, 90]);
        assert_eq!(w.starts_for(215).collect::<Vec<_>>(), [120, 150, 180, 210]);
        let tumbling: SlidingWindows<u64> = SlidingWindows::new(100, 0);
        assert_eq!(tumbling.starts_for(250).collect::<Vec<_>>(), [200]);
        assert_eq!(tumbling.starts_for(u64::MAX).count(), 1);
    }

    #[test]
    fn zero_width_clamped() {
        let w: SlidingWindows<u64> = SlidingWindows::new(0, 0);
        assert_eq!(w.width_ns(), 1);
    }

    #[test]
    fn sliding_near_origin_does_not_underflow() {
        let mut w: SlidingWindows<u64> = SlidingWindows::new(100, 50);
        w.observe(10, |c| *c += 1);
        let all = w.drain_all();
        assert_eq!(all, vec![(0, 1)]);
    }
}
