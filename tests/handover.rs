//! The hand-over policy (`dio_tracer::policy`, DESIGN.md §17) as properties
//! over seeded schedules, at the default `TracerConfig`: trickles, paced
//! groups, bursts, steady streams and shipper stalls run through a real ring
//! buffer, both `step` functions and a real store, on a clock the stepper
//! (`tests/common/stepper.rs`) owns. After every step, every pushed event is
//! in a ring, held, in the channel, accepted and unlogged, acknowledged or an
//! attributed drop, and the documents in flight stay within the hand-off's
//! capacity. Besides:
//!
//! - a group pushed within one poll interval reaches the shipper as one bulk;
//! - a group whose first push wakes a consumer asleep until a push takes it
//!   at most three steps, and no step follows the group's hand-over before
//!   the next push;
//! - a poll that finds the rings empty hands over all it holds, queryable
//!   once the shipper has taken it;
//! - on a persisted store, a shipper with no bulk behind the one it took has
//!   the index log, and acknowledges what was logged;
//! - a shipper step that leaves events unlogged leaves a bulk waiting, which
//!   the next step takes at once: the shipper needs no timer;
//! - a consumer that never catches up hands over, and a shipper that never
//!   catches up logs, by the oldest event's kernel dispatch plus
//!   `flush_interval` — or at the step that ends a stall that held it past;
//! - a refused hand-over attributes every refused and still-held event to
//!   `batch_enqueue`;
//! - each thread's events keep their order.
//!
//! The threads that drive the steps are checked in real time by
//! `transport.rs`, `wakeups.rs` and `spans.rs`.

use std::ops::Range;

#[path = "common/stepper.rs"]
mod stepper;

use stepper::Tally;

/// Seeds `range` in memory, in one of four tests so that they run side by
/// side: 10 000 schedules.
fn in_memory(seeds: Range<u64>) {
    let mut tally = Tally::default();
    for seed in seeds {
        tally += stepper::run(seed, None);
    }
    eprintln!("{tally:?}");
    // Every property met cases that could break it.
    assert!(tally.groups > 0, "{tally:?}");
    assert!(tally.quiet_groups > 0, "{tally:?}");
    assert!(tally.caught_up > 0, "{tally:?}");
    assert!(tally.consumer_deadlines > 0, "{tally:?}");
    assert!(tally.room_limited > 0, "{tally:?}");
    assert!(tally.refused > 0, "{tally:?}");
    assert!(tally.ring_drops > 0, "{tally:?}");
}

#[test]
fn in_memory_schedules_0_to_2500() {
    in_memory(0..2_500);
}

#[test]
fn in_memory_schedules_2500_to_5000() {
    in_memory(2_500..5_000);
}

#[test]
fn in_memory_schedules_5000_to_7500() {
    in_memory(5_000..7_500);
}

#[test]
fn in_memory_schedules_7500_to_10000() {
    in_memory(7_500..10_000);
}

/// 250 schedules into persisted stores, one directory each.
#[test]
fn persisted_schedules() {
    let mut tally = Tally::default();
    for seed in 1_000_000..1_000_250 {
        let dir = std::env::temp_dir().join(format!("dio-handover-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        tally += stepper::run(seed, Some(&dir));
        let _ = std::fs::remove_dir_all(&dir);
    }
    eprintln!("{tally:?}");
    assert!(tally.groups > 0, "{tally:?}");
    assert!(tally.quiet_groups > 0, "{tally:?}");
    assert!(tally.caught_up_logs > 0, "{tally:?}");
    assert!(tally.shipper_deadlines > 0, "{tally:?}");
    assert!(tally.left_unlogged > 0, "{tally:?}");
    assert!(tally.consumer_deadlines > 0, "{tally:?}");
    assert!(tally.room_limited > 0, "{tally:?}");
}
