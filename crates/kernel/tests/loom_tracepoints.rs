//! Loom model of the tracepoint registry's contract under concurrent
//! attach, detach and dispatch:
//!
//! * every kind an attached probe asked for stays traced — an attach racing
//!   a detach does not lose its bit of the active bitmap;
//! * no probe is called once `detach` has returned, and every probe still
//!   attached is called by a dispatch of its kind.
//!
//! Build only under `RUSTFLAGS="--cfg loom"`:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p dio-kernel --test loom_tracepoints
//! ```
#![cfg(loom)]

use loom::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use loom::sync::Arc;
use loom::thread;

use dio_kernel::{
    EnterEvent, ExitEvent, FdInfo, KernelInspect, SyscallProbe, TaskSlot, TracepointRegistry,
};
use dio_syscall::{Pid, SyscallKind, SyscallSet, Tid};

struct Probe {
    kinds: SyscallSet,
    calls: AtomicUsize,
    detached: AtomicBool,
}

impl Probe {
    fn new(kinds: &[SyscallKind]) -> Arc<Probe> {
        Arc::new(Probe {
            kinds: kinds.iter().copied().collect(),
            calls: AtomicUsize::new(0),
            detached: AtomicBool::new(false),
        })
    }

    fn called(&self) {
        assert!(!self.detached.load(Ordering::SeqCst), "a probe was called after its detach");
        self.calls.fetch_add(1, Ordering::SeqCst);
    }
}

impl SyscallProbe for Probe {
    fn kinds(&self) -> SyscallSet {
        self.kinds
    }
    fn on_enter(&self, _: &dyn KernelInspect, _: &EnterEvent<'_>) {
        self.called();
    }
    fn on_exit(&self, _: &dyn KernelInspect, _: &ExitEvent) {
        self.called();
    }
}

struct NoFiles;

impl KernelInspect for NoFiles {
    fn fd_info(&self, _: Pid, _: i32) -> Option<FdInfo> {
        None
    }
    fn fd_path_matches(&self, _: Pid, _: i32, _: &dyn Fn(&str) -> bool) -> bool {
        false
    }
}

/// One traced syscall of `kind` on `slot`, both halves.
fn syscall(registry: &TracepointRegistry, task: &dio_kernel::Task, kind: SyscallKind) {
    if !registry.is_traced(kind) {
        return;
    }
    let comm: std::sync::Arc<str> = std::sync::Arc::from("app");
    let slot: TaskSlot = task.slot();
    let traced = registry.read(task);
    traced.dispatch_enter(
        &NoFiles,
        &EnterEvent {
            kind,
            pid: Pid(1),
            tid: Tid(1),
            comm: &comm,
            cpu: 0,
            time_ns: 1,
            args: &[],
            path: None,
            fd: None,
            slot,
        },
    );
    thread::yield_now();
    traced.dispatch_exit(
        &NoFiles,
        &ExitEvent { kind, pid: Pid(1), tid: Tid(1), cpu: 0, time_ns: 2, ret: 0, mono_ns: 1, slot },
    );
}

const KINDS: [SyscallKind; 3] = [SyscallKind::Read, SyscallKind::Write, SyscallKind::Fsync];

#[test]
fn attach_detach_and_dispatch_race() {
    loom::model(|| {
        let registry = Arc::new(TracepointRegistry::new());
        // Attached before the race; `gone` is detached during it, on a kind
        // `stays` is attached to at the same time.
        let gone = Probe::new(&[SyscallKind::Write, SyscallKind::Fsync]);
        let gone_id = registry.attach(Arc::clone(&gone) as Arc<dyn SyscallProbe>);
        let early = Probe::new(&[SyscallKind::Read]);
        let stays = Probe::new(&[SyscallKind::Write]);
        let both = Probe::new(&[SyscallKind::Read, SyscallKind::Write]);

        let dispatchers: Vec<_> = (0..2)
            .map(|_| {
                let registry = Arc::clone(&registry);
                thread::spawn(move || {
                    let task = registry.register_task();
                    for round in 0..12 {
                        syscall(&registry, &task, KINDS[round % KINDS.len()]);
                    }
                    registry.release_task(&task);
                })
            })
            .collect();
        let attacher = {
            let (registry, early, stays) =
                (Arc::clone(&registry), Arc::clone(&early), Arc::clone(&stays));
            thread::spawn(move || {
                let early_id = registry.attach(Arc::clone(&early) as Arc<dyn SyscallProbe>);
                thread::yield_now();
                registry.attach(stays as Arc<dyn SyscallProbe>);
                registry.detach(early_id);
                early.detached.store(true, Ordering::SeqCst);
            })
        };
        let detacher = {
            let (registry, gone, both) =
                (Arc::clone(&registry), Arc::clone(&gone), Arc::clone(&both));
            thread::spawn(move || {
                registry.attach(both as Arc<dyn SyscallProbe>);
                registry.detach(gone_id);
                gone.detached.store(true, Ordering::SeqCst);
            })
        };
        for thread in dispatchers.into_iter().chain([attacher, detacher]) {
            thread.join().unwrap();
        }

        assert!(registry.is_traced(SyscallKind::Read), "`both` reads");
        assert!(registry.is_traced(SyscallKind::Write), "`stays` and `both` write");
        assert!(!registry.is_traced(SyscallKind::Fsync), "only `gone` synced");
        let (stays_before, both_before) =
            (stays.calls.load(Ordering::SeqCst), both.calls.load(Ordering::SeqCst));
        let task = registry.register_task();
        for kind in KINDS {
            syscall(&registry, &task, kind);
        }
        assert_eq!(stays.calls.load(Ordering::SeqCst), stays_before + 2);
        assert_eq!(both.calls.load(Ordering::SeqCst), both_before + 4);
    });
}
