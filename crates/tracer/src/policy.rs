//! The hand-over policy (DESIGN.md §17): when the consumer hands the shipper
//! a bulk, when the shipper has a persisted index log what it accepted, and
//! how long each of them waits.
//!
//! Both halves are `step` functions of a time their caller passes in. A step
//! reads no clock to decide anything, never sleeps and owns no channel, so
//! the tracer's two threads only drive them — read the clock, step, send or
//! receive, wait as told — and a test can drive both on a clock of its own.
//!
//! Neither thread waits for a clock it has no use for. A consumer that caught
//! up holds nothing and sleeps until the next push ([`Wait::UntilPush`]); the
//! shipper sleeps until a bulk arrives. A timer remains only where something
//! must happen by a time: the flush deadline of a held event, the pace of a
//! consumer that polls at `flush_interval / 32` or slower, and the wait of a
//! consumer without room, which the shipper does not wake.

use std::sync::Arc;
use std::time::Duration;

use dio_ebpf::{RawEvent, RingBuffer};
use dio_syscall::SyscallEvent;
use dio_telemetry::span::{monotonic_ns, Stage, StageStamps};

/// What the shipper is handed by its wait: a bulk and whether another waits
/// behind it, or `None` once the channel closed.
pub type Input = Option<(Bulk, bool)>;

/// Shortest sleep between two polls: `poll_interval(0)` still yields the
/// core after a drain that did not fill its quota.
const MIN_POLL: Duration = Duration::from_micros(50);

/// A consumer polls at a pace of its own — and never sleeps until a push —
/// at `poll_interval ≥ flush_interval / PACED_DIVISOR`.
const PACED_DIVISOR: u32 = 32;

/// What a thread does after a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wait {
    /// Step again at this monotonic time (ns), at once if it has passed. Only
    /// the consumer waits for a time.
    Until(u64),
    /// Step again at the first event pushed into the rings, or when the
    /// tracer stops. The consumer's sleep once a poll found the rings empty:
    /// it handed over all it held, so no deadline and no timer ends it.
    UntilPush,
    /// Step again when a message arrives.
    Message,
    /// The thread is done.
    Stop,
}

/// One bulk request in flight from consumer to shipper: at most
/// `batch_size` events and, index for index, their span stamps (which must
/// survive until the backend acknowledges them).
pub struct Bulk {
    /// The events, in drain order.
    pub events: Vec<SyscallEvent>,
    /// Their stamps, index for index.
    pub stamps: Vec<StageStamps>,
    /// When the consumer handed the bulk over: the shipper writes it into
    /// every stamp record as [`Stage::BatchEnqueue`], so a bulk the channel
    /// refuses comes back without it.
    pub enqueued_ns: u64,
}

/// The stamps of events on their way to an acknowledgement, in order, with
/// the earliest kernel dispatch among them.
struct Pending {
    stamps: Vec<StageStamps>,
    /// `u64::MAX` when there are none.
    oldest_ns: u64,
    /// `flush_interval`: how long after its dispatch an event is due.
    flush_ns: u64,
}

impl Pending {
    fn new(flush: Duration) -> Self {
        let flush_ns = u64::try_from(flush.as_nanos()).unwrap_or(u64::MAX);
        Pending { stamps: Vec::new(), oldest_ns: u64::MAX, flush_ns }
    }

    fn push(&mut self, stamp: StageStamps) {
        self.oldest_ns = self.oldest_ns.min(dispatched_ns(&stamp));
        self.stamps.push(stamp);
    }

    /// When the oldest is due at the backend: `flush_interval` after the
    /// kernel dispatched it; `u64::MAX` when there are none.
    fn due_ns(&self) -> u64 {
        self.oldest_ns.saturating_add(self.flush_ns)
    }
}

/// An event's kernel dispatch; 0, so that it is due at once, when the
/// kernel left no stamp.
fn dispatched_ns(stamp: &StageStamps) -> u64 {
    stamp.get(Stage::KernelDispatch).unwrap_or(0)
}

/// A bulk's vectors: the ones of a bulk the shipper is done with, emptied
/// for the next.
pub type Spare = (Vec<SyscallEvent>, Vec<StageStamps>);

/// The consumer's half: drains the rings into parsed events it holds, and
/// decides when they go to the shipper.
pub struct Consumer {
    session: Arc<str>,
    drain_batch: usize,
    batch_size: usize,
    /// `poll_interval` was 0: a poll that filled its quota is followed by
    /// the next at once.
    back_to_back: bool,
    /// `poll_interval ≥ flush_interval / 32`: a poll that found the rings
    /// empty is followed by the next `poll_interval` later, not at a push.
    paced: bool,
    poll_ns: u64,
    events: Vec<SyscallEvent>,
    /// The held events' stamps; `oldest_ns` is that of the ones the last
    /// step did not hand over.
    held: Pending,
    /// Events at the front the last step handed over and
    /// [`Consumer::bulk`] has not cut yet.
    handing: usize,
}

impl Consumer {
    /// A consumer holding nothing, with the session's `drain_batch`,
    /// `batch_size`, `poll_interval` and `flush_interval`.
    pub fn new(
        session: Arc<str>,
        drain: usize,
        batch: usize,
        poll: Duration,
        flush: Duration,
    ) -> Self {
        Consumer {
            session,
            drain_batch: drain,
            batch_size: batch,
            back_to_back: poll.is_zero(),
            paced: poll >= flush / PACED_DIVISOR,
            poll_ns: poll.max(MIN_POLL).as_nanos() as u64,
            events: Vec::new(),
            held: Pending::new(flush),
            handing: 0,
        }
    }

    /// One poll at `now`. Drains at most `min(drain_batch, room)` events —
    /// never more than the hand-off has room for — and holds them parsed.
    /// Hands over bulks of `batch_size` events, and all it holds when this
    /// poll found nothing (it caught up: what it holds waits for nothing
    /// any more) or when the oldest is `flush_interval` past its kernel
    /// dispatch (it never catches up); [`Consumer::bulk`] cuts them.
    ///
    /// Returns how many events it drained, and when to poll next: after a
    /// drain that found events `poll_interval` later, cut short by the
    /// deadline of what it still holds; after one that found none at the
    /// first push, when there was room to drain and `poll_interval` is
    /// shorter than `flush_interval / 32` — it holds nothing then — and
    /// `poll_interval` later otherwise; at once after a full drain at
    /// `poll_interval` 0 or a drain while `stop`ping; never again once
    /// `stop`ping finds the rings empty.
    pub fn step(
        &mut self,
        now: u64,
        ring: &RingBuffer<RawEvent>,
        room: usize,
        stop: bool,
    ) -> (usize, Wait) {
        let raws = ring.drain_all_stamped(self.drain_batch.min(room));
        let drained = raws.len();
        self.events.reserve(drained);
        self.held.stamps.reserve(drained);
        for raw in raws {
            let mut stamp = raw.stamps;
            self.events.push(raw.into_event_of(Arc::clone(&self.session)));
            stamp.stamp(Stage::Parse, monotonic_ns());
            self.held.push(stamp);
        }
        let held = self.events.len();
        let flush = drained == 0 || self.held.due_ns() <= now;
        self.handing = if flush { held } else { held - held % self.batch_size };
        if self.handing > 0 {
            let rest = self.held.stamps[self.handing..].iter().map(dispatched_ns);
            self.held.oldest_ns = rest.min().unwrap_or(u64::MAX);
        }
        let wait = if drained == 0 && stop && ring.is_empty() {
            Wait::Stop
        } else if (self.back_to_back && drained >= self.drain_batch) || (stop && drained > 0) {
            Wait::Until(now)
        } else if drained > 0 || stop || room == 0 || self.paced {
            // Without room only the shipper can end the wait, and it does
            // not wake the consumer: a timer does.
            Wait::Until(now.saturating_add(self.poll_ns).min(self.held.due_ns()))
        } else {
            // Caught up: it handed over all it held, and a push ends the nap.
            Wait::UntilPush
        };
        (drained, wait)
    }

    /// The events held, handed over or not, and their stamps: the last
    /// step's drain at the back, until the first bulk is cut.
    pub fn held(&self) -> (&[SyscallEvent], &[StageStamps]) {
        (&self.events, &self.held.stamps)
    }

    /// The next bulk of what the last step handed over — at most
    /// `batch_size` events off the front, in drain order, in the vectors
    /// `spare` gives — or `None` once it is all cut. Its `enqueued_ns` is
    /// for the sender to stamp.
    pub fn bulk(&mut self, spare: impl FnOnce() -> Spare) -> Option<Bulk> {
        let n = self.handing.min(self.batch_size);
        if n == 0 {
            return None;
        }
        self.handing -= n;
        let (mut events, mut stamps) = spare();
        if n == self.events.len() {
            // All of it: a swap, so no event is moved.
            std::mem::swap(&mut self.events, &mut events);
            std::mem::swap(&mut self.held.stamps, &mut stamps);
        } else {
            events.extend(self.events.drain(..n));
            stamps.extend(self.held.stamps.drain(..n));
        }
        Some(Bulk { events, stamps, enqueued_ns: 0 })
    }

    /// The stamps to attribute as drops at `batch_enqueue` once the shipper
    /// is gone and refused `bulk`: its events' and every held event's, as
    /// none of them cleared that hand-off.
    pub fn refused<'a>(&'a self, bulk: &'a Bulk) -> impl Iterator<Item = &'a StageStamps> {
        bulk.stamps.iter().chain(&self.held.stamps)
    }
}

/// How the shipper acknowledges after a step.
pub enum Ack {
    /// Nothing yet.
    Nothing,
    /// The index acknowledges the accepted bulk as it takes it (in memory).
    Accept,
    /// The index logs what it holds unlogged; then these, the stamps of
    /// those events, are acknowledged.
    Log(Vec<StageStamps>),
}

/// The shipper's half: holds the stamps of the events a persisted index
/// accepted and has not logged, and decides when it logs them.
pub struct Shipper {
    /// The store is persisted: an accepted event is acknowledged once
    /// logged.
    logs: bool,
    batch_size: usize,
    unlogged: Pending,
}

impl Shipper {
    /// A shipper holding nothing, for a persisted store (`logs`) or an
    /// in-memory one.
    pub fn new(logs: bool, batch_size: usize, flush_interval: Duration) -> Self {
        Shipper { logs, batch_size, unlogged: Pending::new(flush_interval) }
    }

    /// The stamps of the accepted events not logged yet.
    pub fn unlogged(&self) -> &[StageStamps] {
        &self.unlogged.stamps
    }

    /// One input at `now` — a bulk and whether another waits behind it, or
    /// the channel closed — and what to do with it: the bulk for the index to
    /// accept, queryable at once, stamped [`Stage::BatchEnqueue`]; then the
    /// acknowledgement; then the wait, for the next message or none.
    ///
    /// In memory the accept acknowledges. A persisted index holds what it
    /// accepts unlogged: the shipper has it log all it holds — a group
    /// commit — once no bulk waits behind the one it took (it caught up),
    /// when they reach `batch_size`, when the oldest is `flush_interval` past
    /// its kernel dispatch (it never catches up), or when the channel closes.
    /// So a step leaves events unlogged only with a bulk waiting, which the
    /// next step takes at once: the shipper needs no timer.
    pub fn step(&mut self, now: u64, input: Input) -> (Option<Bulk>, Ack, Wait) {
        let (bulk, caught_up) = match input {
            Some((mut bulk, behind)) => {
                for stamp in &mut bulk.stamps {
                    stamp.stamp(Stage::BatchEnqueue, bulk.enqueued_ns);
                }
                if !self.logs {
                    return (Some(bulk), Ack::Accept, Wait::Message);
                }
                bulk.stamps.iter().for_each(|&stamp| self.unlogged.push(stamp));
                (Some(bulk), !behind)
            }
            None => (None, true),
        };
        let pending = &mut self.unlogged;
        let log = caught_up || pending.stamps.len() >= self.batch_size || pending.due_ns() <= now;
        let ack = if log && !pending.stamps.is_empty() {
            pending.oldest_ns = u64::MAX;
            Ack::Log(std::mem::take(&mut pending.stamps))
        } else {
            Ack::Nothing
        };
        let wait = if bulk.is_some() { Wait::Message } else { Wait::Stop };
        (bulk, ack, wait)
    }
}
