//! Loom model of the program's task slots: each task's `sys_enter` and
//! `sys_exit` run on the task's own thread while a reader scans the slots
//! (the consumer's or exporter's snapshot). Every scan must reconcile
//!
//! `admitted == emitted + join_overflow + orphaned + pending`
//!
//! — each slot's counts and its waiting entry are read together, so the
//! identity that holds in every slot holds in the sum. Two OS threads
//! sharing one task stay sound: the second entry orphans the first.
//!
//! Build only under `RUSTFLAGS="--cfg loom"`:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p dio-ebpf --test loom_task_slot
//! ```
#![cfg(loom)]

use loom::sync::atomic::{AtomicBool, Ordering};
use loom::sync::Arc;
use loom::thread;

use dio_ebpf::{ProgramConfig, RingBuffer, TracerProgram};
use dio_kernel::{EnterEvent, ExitEvent, FdInfo, KernelInspect, SyscallProbe, TaskSlot};
use dio_syscall::{Arg, Pid, SyscallKind, Tid};

struct NoFiles;

impl KernelInspect for NoFiles {
    fn fd_info(&self, _: Pid, _: i32) -> Option<FdInfo> {
        None
    }
    fn fd_path_matches(&self, _: Pid, _: i32, _: &dyn Fn(&str) -> bool) -> bool {
        false
    }
}

fn enter(program: &TracerProgram, kind: SyscallKind, slot: u32) {
    let comm: std::sync::Arc<str> = std::sync::Arc::from("app");
    let args = [Arg::new("fd", 3i64)];
    program.on_enter(
        &NoFiles,
        &EnterEvent {
            kind,
            pid: Pid(1),
            tid: Tid(slot),
            comm: &comm,
            cpu: slot % 2,
            time_ns: 1,
            args: &args,
            path: None,
            fd: Some(3),
            slot: TaskSlot(slot),
        },
    );
}

fn exit(program: &TracerProgram, kind: SyscallKind, slot: u32) {
    program.on_exit(
        &NoFiles,
        &ExitEvent {
            kind,
            pid: Pid(1),
            tid: Tid(slot),
            cpu: slot % 2,
            time_ns: 2,
            ret: 0,
            mono_ns: 1,
            slot: TaskSlot(slot),
        },
    );
}

#[test]
fn every_scan_reconciles_while_tasks_trace() {
    loom::model(|| {
        const ROUNDS: usize = 16;
        let ring = std::sync::Arc::new(RingBuffer::with_slots(2, 4));
        let config = ProgramConfig { join_capacity: 3, ..ProgramConfig::default() };
        let program = Arc::new(TracerProgram::new(config, ring).unwrap());
        let done = Arc::new(AtomicBool::new(false));

        // Tasks 0 and 1 run matched pairs, an entry whose exit never comes
        // and the exit of another syscall; tasks 2 and 3 share slot 2.
        let tasks: Vec<_> = [0, 1, 2, 2]
            .into_iter()
            .map(|slot| {
                let program = Arc::clone(&program);
                thread::spawn(move || {
                    for round in 0..ROUNDS {
                        enter(&program, SyscallKind::Close, slot);
                        thread::yield_now();
                        match round % 4 {
                            0 => enter(&program, SyscallKind::Fsync, slot),
                            1 => exit(&program, SyscallKind::Fstat, slot),
                            _ => exit(&program, SyscallKind::Close, slot),
                        }
                    }
                })
            })
            .collect();
        let scanner = {
            let (program, done) = (Arc::clone(&program), Arc::clone(&done));
            thread::spawn(move || {
                let mut scans = 0;
                while !done.load(Ordering::Acquire) || scans == 0 {
                    let s = program.stats();
                    assert_eq!(
                        s.admitted,
                        s.emitted + s.join_overflow + s.orphaned + s.pending,
                        "scan {scans}: {s:?}"
                    );
                    assert!(s.pending <= 3, "at most one entry a slot: {s:?}");
                    scans += 1;
                    thread::yield_now();
                }
            })
        };
        for task in tasks {
            task.join().unwrap();
        }
        done.store(true, Ordering::Release);
        scanner.join().unwrap();

        let s = program.stats();
        assert_eq!(s.admitted, 4 * (ROUNDS + ROUNDS / 4) as u64);
        assert_eq!(s.admitted, s.emitted + s.join_overflow + s.orphaned + s.pending);
        assert_eq!(s.pending, program.pending());
        assert_eq!(s.emitted, program.ring().stats().pushed + program.ring().stats().dropped);
    });
}
