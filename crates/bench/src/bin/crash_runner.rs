//! Crash-injection child process for the recovery test harness.
//!
//! Opens a persistent [`DocStore`] and replays the deterministic
//! workload of [`dio_bench::crash_schedule`], reporting progress over
//! stdout (`S <n>` before each step, `A <n>` once the store
//! acknowledged it, `DONE` if the whole schedule completes). The parent
//! test arms a kill point via `DIO_CRASH_POINT=<site>:<countdown>:<split>`
//! (see `dio_backend::storage::crash`), so somewhere mid-schedule this
//! process aborts with a torn write on disk — that is the point.
//!
//! Every line is explicitly flushed: `abort()` discards userspace
//! buffers, exactly like the crash it simulates, and an acknowledgement
//! that never reached the parent is treated as limbo (which is sound —
//! the write *is* durable, the parent just can't assert it).

use std::io::Write as _;

use dio_backend::DocStore;
use dio_bench::crash_schedule as cs;

fn say(line: &str) {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    writeln!(out, "{line}").expect("write stdout");
    out.flush().expect("flush stdout");
}

fn main() {
    let mut args = std::env::args().skip(1);
    let usage = "usage: crash_runner <store-dir> <seed> <steps>";
    let dir = args.next().expect(usage);
    let seed: u64 = args.next().expect(usage).parse().expect("seed is a u64");
    let steps: usize = args.next().expect(usage).parse().expect("steps is a usize");

    let sched = cs::schedule(seed, steps);
    let store = DocStore::open_with(&dir, cs::crash_config()).expect("open store");

    for (n, step) in sched.iter().enumerate() {
        say(&format!("S {n}"));
        match step {
            cs::Step::Put { index, docs, typed } => {
                let ids = if *typed {
                    let events = docs.iter().enumerate();
                    let events = events.map(|(k, &(id, _))| cs::event(seed, n, k, id)).collect();
                    store.bulk_spans(index, events, &mut [])
                } else {
                    store.bulk(index, docs.iter().map(|(_, b)| b.clone()).collect())
                };
                let predicted: Vec<u64> = docs.iter().map(|(id, _)| *id).collect();
                assert_eq!(ids, predicted, "id assignment must match the schedule");
            }
            cs::Step::Delete { index, doc_id } => {
                assert!(store.index(index).delete(*doc_id), "victim {index}/{doc_id} existed");
            }
            cs::Step::Compact => store.compact_now().expect("compact"),
            cs::Step::Flush => store.flush().expect("flush"),
        }
        say(&format!("A {n}"));
    }
    say("DONE");
}
