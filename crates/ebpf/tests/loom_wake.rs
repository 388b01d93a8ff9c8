//! Loom model of the push wake (DESIGN.md §17.5): a consumer that finds the
//! rings empty naps on them with no timeout (`RingBuffer::nap`), and the
//! first push after unparks it. Nothing else ends that nap, so a push that
//! lands between the consumer's last look at the rings and its park without
//! waking it leaves the consumer asleep beside an event, for good. The model
//! pushes just as the consumer goes to sleep, sweeping the push across the
//! nap's entry, and checks that every push is drained. Between its empty
//! drain and its nap the consumer spins, as the tracer's consumer hands
//! over what it held there: a push in that stretch is one only the nap's
//! own look at the rings can see.
//!
//! One run in four the consumer waits for the push before it naps, so that
//! a nap that looks at nothing but its own flag sleeps through it on every
//! such run, whatever the timing; the other runs sweep the push across the
//! nap's entry, from before its flag is set to after it parks.
//!
//! A lost wake must fail the model, not hang it: the watchdog — a real-time
//! one, as the shim runs models on OS threads — gives the consumer
//! [`LOST_AFTER`] to drain everything, then records the lost wake and
//! unparks it.
//!
//! Build only under `RUSTFLAGS="--cfg loom"`:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p dio-ebpf --test loom_wake
//! ```
#![cfg(loom)]

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use loom::sync::atomic::{AtomicBool, Ordering};
use loom::sync::Arc;
use loom::thread;

use dio_ebpf::RingBuffer;

/// How long the consumer may take to drain every push; a wake takes
/// microseconds.
const LOST_AFTER: Duration = Duration::from_secs(2);

/// Pushes per run of the model.
const PUSHES: u64 = 4;

/// Spins between the consumer's empty drain and its nap.
const HAND_OVER_SPINS: usize = 256;

/// Runs of the model so far: each run delays its pushes by a different
/// amount, so the runs together sweep the push across the nap's entry;
/// every fourth pushes before the nap.
static RUNS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

#[test]
fn a_push_racing_the_nap_wakes_the_consumer() {
    loom::model(|| {
        let run = RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let early = run.is_multiple_of(4);
        let ring: Arc<RingBuffer<u64>> = Arc::new(RingBuffer::with_slots(2, 4));
        // Set by the consumer as it goes to sleep, taken by the producer
        // before each push; set by the producer after each push, taken by
        // an `early` consumer before it naps.
        let sleeping = Arc::new(AtomicBool::new(false));
        let pushed = Arc::new(AtomicBool::new(false));
        let (done_tx, done_rx) = mpsc::channel();

        let consumer = {
            let (ring, sleeping, pushed) =
                (Arc::clone(&ring), Arc::clone(&sleeping), Arc::clone(&pushed));
            thread::spawn(move || {
                // The ring parks and unparks a `std` thread.
                ring.wake_on_push(std::thread::current());
                let mut seen = 0;
                loop {
                    seen += ring.drain_all(usize::MAX).len() as u64;
                    if seen == PUSHES {
                        break;
                    }
                    sleeping.store(true, Ordering::SeqCst);
                    for _ in 0..HAND_OVER_SPINS {
                        loom::hint::spin_loop();
                    }
                    while early && !pushed.swap(false, Ordering::SeqCst) {
                        loom::hint::spin_loop();
                    }
                    // May return for no reason; the loop looks again.
                    ring.nap();
                }
                done_tx.send(()).unwrap();
                seen
            })
        };
        let producer = {
            let (ring, sleeping, pushed) =
                (Arc::clone(&ring), Arc::clone(&sleeping), Arc::clone(&pushed));
            thread::spawn(move || {
                for seq in 0..PUSHES {
                    // Spin, not yield: a yield would see the consumer's
                    // word only once it had long since parked.
                    while !sleeping.swap(false, Ordering::SeqCst) {
                        loom::hint::spin_loop();
                    }
                    // 0 to 2 × HAND_OVER_SPINS − 1 spins after the consumer
                    // said it sleeps: from before its nap to into its park.
                    for _ in 0..(run * 7 + seq as usize * 13) % (2 * HAND_OVER_SPINS) {
                        loom::hint::spin_loop();
                    }
                    assert!(ring.try_push((seq % 2) as u32, seq), "4 slots hold 4 pushes");
                    pushed.store(true, Ordering::SeqCst);
                }
            })
        };

        // The watchdog: a consumer still asleep after LOST_AFTER missed a
        // wake; unpark it so the run ends and the failure is reported.
        let mut lost = 0;
        while let Err(RecvTimeoutError::Timeout) = done_rx.recv_timeout(LOST_AFTER) {
            lost += 1;
            consumer.thread().unpark();
        }
        producer.join().unwrap();
        let seen = consumer.join().unwrap();
        assert_eq!(seen, PUSHES);
        assert!(ring.is_empty());
        assert_eq!(lost, 0, "run {run} (early: {early}): the consumer slept through a push");
    });
}
