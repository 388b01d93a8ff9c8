//! The kernel↔catalog argument-decoding contract, checked end to end.
//!
//! `dio_syscall::expected_args` declares, per syscall, the argument names a
//! tracepoint records; the probe dispatch in `dio-kernel` builds the actual
//! `Arg` vectors. `dio-verify --check-catalog` cross-checks the two by
//! *source scanning*; this test checks the same contract *dynamically* by
//! attaching a capturing probe, invoking all 42 syscalls, and comparing the
//! observed argument names against the table.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use dio_kernel::{EnterEvent, ExitEvent, Kernel, KernelInspect, SyscallProbe};
use dio_syscall::{expected_args, SyscallKind};

mod all_syscalls;
use all_syscalls::drive_all_syscalls;

/// Records the argument-name vector of every `sys_enter` it observes.
#[derive(Default)]
struct ArgRecorder {
    seen: Mutex<BTreeMap<SyscallKind, Vec<Vec<String>>>>,
}

impl SyscallProbe for ArgRecorder {
    fn on_enter(&self, _: &dyn KernelInspect, event: &EnterEvent<'_>) {
        let names: Vec<String> = event.args.iter().map(|a| a.name.to_string()).collect();
        self.seen.lock().unwrap().entry(event.kind).or_default().push(names);
    }

    fn on_exit(&self, _: &dyn KernelInspect, _: &ExitEvent) {}
}

#[test]
fn every_syscall_emits_exactly_the_catalogued_args() {
    let kernel = Kernel::new();
    let recorder = Arc::new(ArgRecorder::default());
    kernel.tracepoints().attach(Arc::clone(&recorder) as Arc<dyn SyscallProbe>);

    drive_all_syscalls(&kernel);

    let seen = recorder.seen.lock().unwrap();
    for &kind in SyscallKind::ALL {
        let invocations = seen.get(&kind).unwrap_or_else(|| {
            panic!("driver never invoked {} — coverage hole in the contract test", kind.name())
        });
        let want: Vec<String> = expected_args(kind).iter().map(|s| s.to_string()).collect();
        assert!(
            !want.is_empty(),
            "expected_args({}) is empty — the args.rs arm was removed",
            kind.name()
        );
        for got in invocations {
            assert_eq!(
                got,
                &want,
                "arg drift for {}: kernel dispatch recorded {:?}, catalog expects {:?}",
                kind.name(),
                got,
                want
            );
        }
    }
    assert_eq!(seen.len(), SyscallKind::ALL.len(), "all 42 syscalls observed");
}

/// The enter-side fd/path hints agree with the catalog's `takes_fd` /
/// `takes_path` bits — the filter layer relies on them to resolve paths.
#[test]
fn enter_hints_match_catalog_bits() {
    #[derive(Default)]
    struct HintRecorder {
        seen: Mutex<BTreeMap<SyscallKind, (bool, bool)>>,
    }
    impl SyscallProbe for HintRecorder {
        fn on_enter(&self, _: &dyn KernelInspect, event: &EnterEvent<'_>) {
            let mut seen = self.seen.lock().unwrap();
            let entry = seen.entry(event.kind).or_insert((false, false));
            entry.0 |= event.fd.is_some();
            entry.1 |= event.path.is_some();
        }
        fn on_exit(&self, _: &dyn KernelInspect, _: &ExitEvent) {}
    }

    let kernel = Kernel::new();
    let recorder = Arc::new(HintRecorder::default());
    kernel.tracepoints().attach(Arc::clone(&recorder) as Arc<dyn SyscallProbe>);
    drive_all_syscalls(&kernel);

    let seen = recorder.seen.lock().unwrap();
    for (&kind, &(saw_fd, saw_path)) in seen.iter() {
        assert_eq!(
            saw_fd,
            kind.takes_fd(),
            "{}: fd hint disagrees with catalog takes_fd",
            kind.name()
        );
        assert_eq!(
            saw_path,
            kind.takes_path(),
            "{}: path hint disagrees with catalog takes_path",
            kind.name()
        );
    }
}
