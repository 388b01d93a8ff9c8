//! A single-threaded stepper for the hand-over policy (`dio_tracer::policy`,
//! DESIGN.md §17). Synthetic events go into a real `RingBuffer` on a
//! schedule drawn from a seed; the consumer's and the shipper's `step` run on
//! a `u64` clock the stepper owns, the channel between them is a `VecDeque`,
//! and a real `DocStore` — in memory or persisted — accepts and logs as the
//! shipper says. No thread, no sleep and no host clock takes part in a
//! decision, so a seed replays exactly.
//!
//! The properties are asserted as the schedule runs (each message names the
//! seed); [`Tally`] counts how often each was put to the test.

use std::collections::VecDeque;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use dio_backend::{DocStore, StorageConfig};
use dio_ebpf::{RawEvent, RingBuffer};
use dio_syscall::{ArgList, Pid, SyscallKind, Tid};
use dio_telemetry::span::{SpanCollector, Stage, StageStamps};
use dio_telemetry::{Counter, MetricsRegistry};
use dio_tracer::policy::{Ack, Bulk, Consumer, Shipper, Wait};
use dio_tracer::TracerConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Where the clock starts: far above any host monotonic reading, so a
/// decision taken on a host stamp (`Parse`, say) instead of the kernel's
/// dispatch shows.
const EPOCH: u64 = 1 << 50;
const US: u64 = 1_000;
const MS: u64 = 1_000_000;
const CPUS: u32 = 2;
/// Threads pushing; thread `t` runs on CPU `t % CPUS`.
const THREADS: usize = 4;
/// Ring slots per CPU: a burst can overflow them.
const SLOTS: usize = 1_024;
const INDEX: &str = "dio-stepper";

/// How often each property met a case that could break it, summed over
/// schedules.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub schedules: u64,
    pub events: u64,
    /// Paced groups that reached the shipper, each checked to be one bulk.
    pub groups: u64,
    /// Polls that found the rings empty and whose hand-over was then checked
    /// queryable.
    pub caught_up: u64,
    /// Persisted: logs when the shipper found no bulk behind the one it took.
    pub caught_up_logs: u64,
    /// Partial bulks handed over because the oldest held event fell due.
    pub consumer_deadlines: u64,
    /// Persisted: logs below `batch_size` with a bulk still waiting.
    pub shipper_deadlines: u64,
    /// Persisted: shipper steps that left events unlogged, each checked to
    /// leave a bulk waiting for the next.
    pub left_unlogged: u64,
    /// Drains the hand-off's room held below `drain_batch` while the rings
    /// held more.
    pub room_limited: u64,
    /// Hand-overs refused by a shipper that was gone.
    pub refused: u64,
    /// Paced groups whose first push woke a consumer asleep until a push,
    /// each checked to take at most three consumer steps and none after its
    /// hand-over until the next push.
    pub quiet_groups: u64,
    /// Events the rings dropped.
    pub ring_drops: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, o: Tally) {
        self.schedules += o.schedules;
        self.events += o.events;
        self.groups += o.groups;
        self.caught_up += o.caught_up;
        self.caught_up_logs += o.caught_up_logs;
        self.consumer_deadlines += o.consumer_deadlines;
        self.shipper_deadlines += o.shipper_deadlines;
        self.left_unlogged += o.left_unlogged;
        self.room_limited += o.room_limited;
        self.refused += o.refused;
        self.quiet_groups += o.quiet_groups;
        self.ring_drops += o.ring_drops;
    }
}

/// What one seed pushes, and what it does to the shipper.
struct Schedule {
    /// `(time, thread)` of every push, in time order.
    pushes: Vec<(u64, usize)>,
    /// The pushes of each paced group: written within one poll interval.
    groups: Vec<Range<usize>>,
    /// `(from, for)`: a request of the shipper blocks that long.
    stalls: VecDeque<(u64, u64)>,
    /// What each event costs the shipper's requests (a slow backend).
    cost_ns: u64,
    /// After this the shipper goes away, once it idles with nothing held.
    gone_at: Option<u64>,
    /// The hand-off's bound, in documents.
    capacity: usize,
    /// When the tracer is stopped.
    end: u64,
}

/// Trickles, paced groups, bursts, steady streams a consumer never catches
/// up with, and shipper stalls, one to four of them in a row.
fn schedule(rng: &mut SmallRng, config: &TracerConfig) -> Schedule {
    let poll = config.poll().as_nanos() as u64;
    let mut s = Schedule {
        pushes: Vec::new(),
        groups: Vec::new(),
        stalls: VecDeque::new(),
        cost_ns: if rng.gen_range(0..4) == 0 { rng.gen_range(1..40u64) * US } else { 0 },
        gone_at: None,
        // The tracer's own bound, or one a burst behind a stall can reach.
        capacity: match rng.gen_range(0..4) {
            0 => 600,
            1 => 1_500,
            _ => config.batch() * 64,
        },
        end: 0,
    };
    let mut t = EPOCH + rng.gen_range(0..5 * MS);
    let thread = |rng: &mut SmallRng| rng.gen_range(0..THREADS);
    for _ in 0..rng.gen_range(1..=4) {
        match rng.gen_range(0..16) {
            0..=4 => {
                for _ in 0..rng.gen_range(1..=5) {
                    t += rng.gen_range(US..40 * MS);
                    s.pushes.push((t, thread(rng)));
                }
            }
            5..=9 => {
                for _ in 0..rng.gen_range(2..=6) {
                    let (n, span) = (rng.gen_range(1..=60u64), rng.gen_range(0..poll));
                    let first = s.pushes.len();
                    for i in 0..n {
                        s.pushes.push((t + span * i / n, thread(rng)));
                    }
                    s.groups.push(first..s.pushes.len());
                    t += span + rng.gen_range(6 * MS..15 * MS);
                }
            }
            10 | 11 => {
                let (n, span) = (rng.gen_range(100..=1_500u64), rng.gen_range(0..100 * US));
                for i in 0..n {
                    s.pushes.push((t + span * i / n, thread(rng)));
                }
                t += span;
            }
            12 => {
                // Closer than a poll apart for longer than `flush_interval`.
                let (gap, until) =
                    (rng.gen_range(60 * US..poll), t + rng.gen_range(105..200u64) * MS);
                while t < until {
                    t += gap;
                    s.pushes.push((t, thread(rng)));
                }
            }
            _ => s.stalls.push_back((t, rng.gen_range(US..150 * MS))),
        }
        t += rng.gen_range(0..20 * MS);
    }
    if rng.gen_range(0..10) == 0 {
        s.gone_at = Some(rng.gen_range(EPOCH..=t));
    }
    s.end = t + rng.gen_range(0..10 * MS);
    s
}

/// One schedule's pipeline and what the properties need to know about it.
struct Sim {
    seed: u64,
    now: u64,
    flush_ns: u64,
    batch_size: usize,
    drain_batch: usize,
    capacity: usize,
    ring: RingBuffer<RawEvent>,
    spans: Arc<SpanCollector>,
    /// `span.dropped` and `span.drop.at_batch_enqueue`.
    dropped: Arc<Counter>,
    dropped_at_enqueue: Arc<Counter>,
    /// `None` once the consumer thread would have returned.
    consumer: Option<Consumer>,
    /// When the consumer steps next; `None` while it sleeps until the next
    /// push ([`Wait::UntilPush`]).
    consumer_at: Option<u64>,
    stopping: bool,
    channel: VecDeque<Bulk>,
    in_channel: usize,
    /// The consumer returned and dropped its sender.
    closed: bool,
    shipper: Shipper,
    shipper_wait: Wait,
    busy_until: u64,
    /// What each event costs the shipper's requests.
    cost_ns: u64,
    /// The shipper is gone: a send is refused.
    gone: bool,
    store: DocStore,
    pushed: u64,
    ring_dropped: u64,
    accepted: u64,
    acknowledged: u64,
    bulks_sent: u64,
    bulks_taken: u64,
    /// Last sequence number accepted, per thread.
    accepted_seq: [u64; THREADS],
    pushed_seq: [u64; THREADS],
    /// Polls that found the rings empty: `(bulks sent by then, events that
    /// must be queryable once the shipper has taken those bulks)`.
    checkpoints: VecDeque<(u64, u64)>,
    /// Per push, its paced group; per group, whether the property applies.
    group_of: Vec<Option<usize>>,
    clean: Vec<bool>,
    handed: Vec<bool>,
    /// A clean group whose first push woke the consumer, and the consumer
    /// steps taken since; watched until the next push, or `stop()`.
    watched: Option<(usize, u32)>,
    tally: Tally,
}

impl Sim {
    fn fail(&self, property: &str, detail: String) -> ! {
        panic!("seed {}: {property}: {detail}", self.seed)
    }

    fn held(&self) -> &[StageStamps] {
        self.consumer.as_ref().map_or(&[], |c| c.held().1)
    }

    fn in_flight(&self) -> usize {
        self.held().len() + self.in_channel + self.shipper.unlogged().len()
    }

    /// Every event pushed is in a ring, held, in the channel, accepted and
    /// unlogged, acknowledged, or a drop attributed to a stage — and the
    /// hand-off's bound holds.
    fn account(&self, after: &str) {
        let there = self.ring.occupancy()
            + self.in_flight() as u64
            + self.acknowledged
            + self.dropped.get();
        if there != self.pushed {
            self.fail(
                "accounting",
                format!("after {after}: {} pushed, {there} found", self.pushed),
            );
        }
        if self.in_flight() > self.capacity {
            let detail = format!("{} in flight after {after}", self.in_flight());
            self.fail("documents in flight stay within the hand-off's capacity", detail);
        }
        if self.accepted != self.acknowledged + self.shipper.unlogged().len() as u64 {
            self.fail("accounting", format!("{} accepted after {after}", self.accepted));
        }
    }

    /// The oldest held event, or unlogged one, is not past its deadline.
    fn on_time(&self, whose: &str, stamps: &[StageStamps], strict: bool) {
        let oldest = stamps.iter().filter_map(|st| st.get(Stage::KernelDispatch)).min();
        if let Some(due) = oldest.map(|at| at + self.flush_ns) {
            if due < self.now || (strict && due == self.now) {
                let late = self.now - due;
                self.fail(whose, format!("an event {late} ns past its deadline at {}", self.now));
            }
        }
    }

    fn push(&mut self, index: usize, thread: usize) {
        if self.watched.is_some_and(|(g, _)| self.group_of[index] != Some(g)) {
            self.unwatch();
        }
        if let Some(g) = self.group_of[index] {
            let first = self.clean.len() == g;
            if first {
                let quiet =
                    self.consumer.is_some() && self.held().is_empty() && self.ring.is_empty();
                let group = self.group_of.iter().filter(|&&x| x == Some(g)).count();
                self.clean.push(quiet && self.in_flight() + group <= self.capacity);
                self.handed.push(false);
                // Room to spare at every step of the group: the consumer
                // without room waits on a timer.
                let asleep = quiet && self.consumer_at.is_none();
                if asleep && self.in_flight() + group < self.capacity {
                    self.watched = Some((g, 0));
                }
            }
        }
        self.pushed_seq[thread] += 1;
        let mut stamps = StageStamps::new();
        stamps.stamp(Stage::KernelDispatch, self.now);
        let raw = RawEvent {
            kind: SyscallKind::Write,
            pid: Pid(1),
            tid: Tid(thread as u32 + 1),
            comm: Arc::from("app"),
            cpu: thread as u32 % CPUS,
            time_enter_ns: self.pushed_seq[thread],
            time_exit_ns: self.now,
            ret: index as i64,
            args: ArgList::new(),
            file: None,
            path_arg: None,
            stamps,
        };
        self.pushed += 1;
        if self.ring.try_push_stamped(raw.cpu, raw, self.now) {
            // The push wakes a consumer napping on the rings.
            self.consumer_at.get_or_insert(self.now);
        } else {
            self.ring_dropped += 1;
            if let Some(g) = self.group_of[index] {
                self.clean[g] = false;
            }
        }
    }

    /// Ends the watch of a group: the next push, or `stop()`, wakes the
    /// consumer.
    fn unwatch(&mut self) {
        if let Some((g, _)) = self.watched.take() {
            if self.clean[g] && self.handed[g] {
                self.tally.quiet_groups += 1;
            }
        }
    }

    /// A paced group that woke the consumer takes it at most three steps:
    /// the push's, the poll that drains the rest of the group and the one
    /// that finds the rings empty and hands it over. Then the consumer
    /// sleeps until the next push: no step between groups.
    fn count_step(&mut self) {
        let Some((g, steps)) = self.watched.as_mut() else { return };
        *steps += 1;
        let (g, steps) = (*g, *steps);
        if !self.clean[g] {
            return;
        }
        if self.handed[g] {
            let detail = format!("step {steps} at {}, after group {g}'s hand-over", self.now);
            self.fail("a consumer that caught up sleeps until the next push", detail);
        }
        if steps > 3 {
            self.fail("a paced group takes at most three consumer steps", format!("group {g}"));
        }
    }

    fn consumer_step(&mut self) {
        self.count_step();
        let room = self.capacity.saturating_sub(self.in_flight());
        let Some(consumer) = self.consumer.as_mut() else { return };
        let before = self.ring.occupancy();
        let (drained, wait) = consumer.step(self.now, &self.ring, room, self.stopping);
        if room < self.drain_batch && drained == room && before > room as u64 {
            self.tally.room_limited += 1;
        }
        let mut cut = Vec::new();
        while let Some(mut bulk) = consumer.bulk(Default::default) {
            bulk.enqueued_ns = self.now;
            if self.gone {
                let refused = bulk.stamps.len() as u64;
                let held = consumer.held().1.len() as u64;
                let attributed = self.dropped_at_enqueue.get();
                consumer.refused(&bulk).for_each(|stamp| self.spans.record_drop(stamp));
                let now_attributed = self.dropped_at_enqueue.get() - attributed;
                self.consumer = None;
                self.tally.refused += 1;
                if now_attributed != refused + held {
                    let detail = format!("{now_attributed} of {refused} refused + {held} held");
                    self.fail(
                        "a refused hand-over attributes every event to batch_enqueue",
                        detail,
                    );
                }
                self.account("a refused hand-over");
                return;
            }
            cut.push(bulk);
        }
        for bulk in cut {
            self.check_groups(&bulk);
            if !self.stopping && drained > 0 && bulk.events.len() < self.batch_size {
                self.tally.consumer_deadlines += 1;
            }
            self.in_channel += bulk.events.len();
            self.bulks_sent += 1;
            self.channel.push_back(bulk);
        }
        let held = self.consumer.as_ref().expect("alive").held().1.to_vec();
        if held.len() >= self.batch_size {
            self.fail("a bulk goes when batch_size events are held", format!("{}", held.len()));
        }
        self.on_time("a consumer that never catches up hands over by the deadline", &held, true);
        if drained == 0 && self.ring.is_empty() {
            if !held.is_empty() {
                self.fail("a poll that finds the rings empty hands over", format!("{held:?}"));
            }
            self.checkpoints.push_back((self.bulks_sent, self.pushed - self.ring_dropped));
        }
        match wait {
            Wait::Until(at) if at >= self.now => self.consumer_at = Some(at),
            Wait::UntilPush => self.consumer_at = None,
            Wait::Stop => {
                self.consumer = None;
                self.closed = true;
            }
            other => self.fail("the consumer waits for a time", format!("{other:?}")),
        }
        self.account("a consumer step");
    }

    /// A paced group whose first event found the pipeline caught up, and
    /// that fits the hand-off and the rings, is one bulk: all of it and
    /// nothing else.
    fn check_groups(&mut self, bulk: &Bulk) {
        let mut groups: Vec<usize> =
            bulk.events.iter().filter_map(|e| self.group_of[e.ret as usize]).collect();
        groups.sort_unstable();
        groups.dedup();
        for g in groups {
            if self.handed[g] {
                if self.clean[g] {
                    self.fail("a paced group is one bulk", format!("group {g} split"));
                }
                continue;
            }
            self.handed[g] = true;
            if !self.clean[g] {
                continue;
            }
            self.tally.groups += 1;
            let all = bulk.events.iter().all(|e| self.group_of[e.ret as usize] == Some(g));
            let size = self.group_of.iter().filter(|&&x| x == Some(g)).count();
            if !all || bulk.events.len() != size {
                let detail = format!("group {g} of {size} in a bulk of {}", bulk.events.len());
                self.fail("a paced group is one bulk", detail);
            }
        }
    }

    /// When the shipper steps next: once a bulk waits or the channel closed,
    /// and it is not busy.
    fn shipper_at(&self) -> Option<u64> {
        let ready = !self.channel.is_empty() || self.closed;
        let waits = !self.gone && self.shipper_wait != Wait::Stop && ready;
        waits.then(|| self.now.max(self.busy_until))
    }

    fn shipper_step(&mut self, store: &dio_backend::Index) {
        let input = self.channel.pop_front().map(|bulk| {
            self.in_channel -= bulk.events.len();
            self.bulks_taken += 1;
            (bulk, !self.channel.is_empty())
        });
        let behind = matches!(input, Some((_, true)));
        let caught_up = matches!(input, Some((_, false)));
        let closing = input.is_none();
        let (bulk, ack, wait) = self.shipper.step(self.now, input);
        let mut cost = 0;
        if let Some(mut bulk) = bulk {
            for event in &bulk.events {
                let t = event.tid.0 as usize - 1;
                if event.time_enter_ns <= self.accepted_seq[t] {
                    let detail = format!(
                        "thread {t}: {} after {}",
                        event.time_enter_ns, self.accepted_seq[t]
                    );
                    self.fail("each thread's events keep their order", detail);
                }
                self.accepted_seq[t] = event.time_enter_ns;
            }
            if bulk.stamps.iter().any(|st| st.get(Stage::BatchEnqueue) != Some(bulk.enqueued_ns)) {
                self.fail("the shipper stamps batch_enqueue", format!("at {}", self.now));
            }
            let n = bulk.events.len() as u64;
            cost += n;
            self.accepted += n;
            let acknowledged = self.store.accept_events(INDEX, &mut bulk.events);
            if acknowledged != matches!(ack, Ack::Accept) {
                self.fail("in memory the accept acknowledges", format!("{acknowledged}"));
            }
            if acknowledged {
                self.acknowledged += n;
            }
        }
        if let Ack::Log(stamps) = &ack {
            let logged = self.store.log_events(INDEX);
            if logged != stamps.len() {
                let detail = format!("{logged} logged, {} acknowledged", stamps.len());
                self.fail("the shipper acknowledges what the index logged", detail);
            }
            if caught_up {
                self.tally.caught_up_logs += 1;
            } else if behind && stamps.len() < self.batch_size {
                self.tally.shipper_deadlines += 1;
            }
            cost += stamps.len() as u64;
            self.acknowledged += stamps.len() as u64;
        }
        if caught_up && !self.shipper.unlogged().is_empty() {
            let detail = format!("{} unlogged", self.shipper.unlogged().len());
            self.fail("a shipper with no bulk behind the one it took logs", detail);
        }
        let unlogged = self.shipper.unlogged().to_vec();
        if !unlogged.is_empty() {
            if self.channel.is_empty() {
                let detail = format!("{} unlogged, none behind", unlogged.len());
                self.fail("a shipper that leaves events unlogged has a bulk waiting", detail);
            }
            self.tally.left_unlogged += 1;
        }
        if unlogged.len() >= self.batch_size {
            let detail = format!("{} unlogged", unlogged.len());
            self.fail("a shipper holding batch_size unlogged events logs", detail);
        }
        self.on_time("a shipper that never catches up logs by the deadline", &unlogged, true);
        if wait != if closing { Wait::Stop } else { Wait::Message } {
            let detail = format!("{wait:?}");
            self.fail("the shipper waits for a message until the channel closes", detail);
        }
        self.shipper_wait = wait;
        self.busy_until = self.now + cost * self.cost_ns;
        // The polls that found the rings empty whose bulks the shipper has
        // now all taken: everything pushed before them is queryable.
        while let Some(&(bulks, events)) = self.checkpoints.front() {
            if bulks > self.bulks_taken {
                break;
            }
            self.checkpoints.pop_front();
            let found = store.len() as u64;
            if found < events {
                let detail = format!("{found} of {events} queryable at {}", self.now);
                self.fail("a poll that finds the rings empty makes a trickle queryable", detail);
            }
            self.tally.caught_up += 1;
        }
        self.account("a shipper step");
    }
}

/// Runs one seed's schedule at the default [`TracerConfig`], into a store in
/// memory or persisted under `dir`, asserting every property as it goes.
pub fn run(seed: u64, dir: Option<&Path>) -> Tally {
    let config = TracerConfig::new("stepper");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut s = schedule(&mut rng, &config);
    let store = match dir {
        Some(dir) => {
            let storage = StorageConfig { shards: 1, auto_compact: false, ..Default::default() };
            DocStore::open_with(dir, storage).expect("open a persisted store")
        }
        None => DocStore::new(),
    };
    let registry = MetricsRegistry::new();
    let spans = SpanCollector::new(&registry);
    let ring = RingBuffer::with_slots(CPUS, SLOTS);
    ring.bind_spans(Arc::clone(&spans));
    let mut group_of = vec![None; s.pushes.len()];
    for (g, range) in s.groups.iter().enumerate() {
        group_of[range.clone()].iter_mut().for_each(|x| *x = Some(g));
    }
    let session: Arc<str> = Arc::from(config.session());
    let mut sim = Sim {
        seed,
        now: EPOCH,
        flush_ns: config.flush().as_nanos() as u64,
        batch_size: config.batch(),
        drain_batch: config.drain(),
        capacity: s.capacity,
        ring,
        dropped: registry.counter("span.dropped"),
        dropped_at_enqueue: registry.counter("span.drop.at_batch_enqueue"),
        spans,
        consumer: Some(Consumer::new(
            session,
            config.drain(),
            config.batch(),
            config.poll(),
            config.flush(),
        )),
        consumer_at: Some(EPOCH),
        stopping: false,
        channel: VecDeque::new(),
        in_channel: 0,
        closed: false,
        shipper: Shipper::new(dir.is_some(), config.batch(), config.flush()),
        shipper_wait: Wait::Message,
        busy_until: EPOCH,
        cost_ns: s.cost_ns,
        gone: false,
        store: store.clone(),
        pushed: 0,
        ring_dropped: 0,
        accepted: 0,
        acknowledged: 0,
        bulks_sent: 0,
        bulks_taken: 0,
        accepted_seq: [0; THREADS],
        pushed_seq: [0; THREADS],
        checkpoints: VecDeque::new(),
        group_of,
        clean: Vec::new(),
        handed: Vec::new(),
        watched: None,
        tally: Tally { schedules: 1, ..Tally::default() },
    };
    let index = store.index(INDEX);
    let mut next = 0;
    for _ in 0..10_000_000u64 {
        let push_at = s.pushes.get(next).map(|&(at, _)| at);
        let gone_at = s.gone_at.filter(|&at| !sim.gone && at > sim.now);
        let candidates = [
            push_at,
            s.stalls.front().map(|&(at, _)| at),
            sim.consumer.as_ref().and(sim.consumer_at),
            sim.shipper_at(),
            (!sim.stopping).then_some(s.end),
            gone_at,
        ];
        let Some(at) = candidates.into_iter().flatten().min() else { break };
        if at < sim.now {
            sim.fail("time runs forward", format!("{at} after {}", sim.now));
        }
        sim.now = at;
        while let Some(&(_, thread)) = s.pushes.get(next).filter(|p| p.0 == sim.now) {
            sim.push(next, thread);
            next += 1;
        }
        while let Some((_, long)) = s.stalls.front().filter(|st| st.0 <= sim.now) {
            sim.busy_until = sim.busy_until.max(sim.now + long);
            s.stalls.pop_front();
        }
        if !sim.stopping && sim.now >= s.end && next == s.pushes.len() {
            // `stop()` unparks the consumer.
            sim.unwatch();
            sim.stopping = true;
            sim.consumer_at = Some(sim.now);
        }
        if s.gone_at.is_some_and(|at| at <= sim.now)
            && !sim.gone
            && sim.channel.is_empty()
            && sim.shipper.unlogged().is_empty()
            && sim.busy_until <= sim.now
        {
            sim.gone = true;
        }
        sim.account("a push");
        if sim.consumer.is_some() && sim.consumer_at.is_some_and(|at| at <= sim.now) {
            let held = sim.held().to_vec();
            sim.on_time("a consumer that never catches up wakes by the deadline", &held, false);
            sim.consumer_step();
        }
        while sim.shipper_at() == Some(sim.now) {
            sim.shipper_step(&index);
        }
    }
    if next < s.pushes.len() || sim.consumer.is_some() || !sim.channel.is_empty() {
        sim.fail("the schedule runs to its end", format!("{next} of {} pushed", s.pushes.len()));
    }
    if !sim.gone {
        // A stopped session has shipped everything it will ever ship.
        let (done, pushed) = (sim.acknowledged + sim.dropped.get(), sim.pushed);
        if done != pushed || sim.shipper_wait != Wait::Stop {
            sim.fail("stop ships everything", format!("{done} of {pushed} retired"));
        }
    }
    if index.len() as u64 != sim.accepted {
        sim.fail(
            "every accepted event is queryable",
            format!("{} of {}", index.len(), sim.accepted),
        );
    }
    sim.tally.events = sim.pushed;
    sim.tally.ring_drops = sim.ring_dropped;
    sim.tally
}
