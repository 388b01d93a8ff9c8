//! The positional argument contract, end to end: the tracer program keeps
//! argument *values* in a fixed layout and leaves their names to
//! `expected_args(kind)` by position, so what `into_event()` hands the
//! backend must be exactly what the tracepoint showed — names, order, `Int`
//! vs `UInt`, strings, and the path.
//!
//! A capturing probe records every `sys_enter` payload; the program, attached
//! beside it, records the same 42-syscall run.

use std::sync::{Arc, Mutex};

use dio_ebpf::{ProgramConfig, RingBuffer, TracerProgram};
use dio_kernel::{EnterEvent, ExitEvent, Kernel, KernelInspect, SyscallProbe};
use dio_syscall::{Arg, SyscallKind, SyscallSet};

#[path = "../../kernel/tests/all_syscalls/mod.rs"]
mod all_syscalls;

/// What one `sys_enter` showed: kind, arguments, path hint.
type Seen = (SyscallKind, Vec<Arg>, Option<String>);

#[derive(Default)]
struct Capture {
    seen: Mutex<Vec<Seen>>,
}

impl SyscallProbe for Capture {
    fn on_enter(&self, _: &dyn KernelInspect, event: &EnterEvent<'_>) {
        let seen = (event.kind, event.args.to_vec(), event.path.map(str::to_string));
        self.seen.lock().unwrap().push(seen);
    }

    fn on_exit(&self, _: &dyn KernelInspect, _: &ExitEvent) {}
}

#[test]
fn events_carry_the_tracepoint_arguments_and_path() {
    let kernel = Kernel::new();
    let capture = Arc::new(Capture::default());
    kernel.tracepoints().attach(Arc::clone(&capture) as Arc<dyn SyscallProbe>);
    let ring = Arc::new(RingBuffer::with_slots(kernel.num_cpus(), 1_024));
    let program =
        TracerProgram::new(ProgramConfig::default(), Arc::clone(&ring)).expect("default filter");
    kernel.tracepoints().attach(Arc::clone(&program) as Arc<dyn SyscallProbe>);

    all_syscalls::drive_all_syscalls(&kernel);

    // One thread, one CPU: the ring holds the calls in issue order.
    let events: Vec<_> =
        ring.drain_all(usize::MAX).into_iter().map(|raw| raw.into_event("contract")).collect();
    let seen = capture.seen.lock().unwrap();
    assert_eq!(events.len(), seen.len());
    assert_eq!(program.stats().emitted, seen.len() as u64);
    for (event, (kind, args, path)) in events.iter().zip(seen.iter()) {
        assert_eq!(event.kind, *kind);
        let named: Vec<_> = event.named_args().collect();
        let want: Vec<_> = args.iter().map(|a| (&*a.name, a.value.as_ref())).collect();
        assert_eq!(named, want, "{kind}");
        // Arguments compare integers by value; the signedness must survive too.
        for ((_, got), (name, want)) in named.iter().zip(&want) {
            assert_eq!(
                std::mem::discriminant(got),
                std::mem::discriminant(want),
                "{kind}: {name}={want:?} was recorded as {got:?}"
            );
        }
        assert_eq!(event.file_path.as_deref(), path.as_deref(), "{kind}");
    }
    let kinds: SyscallSet = events.iter().map(|e| e.kind).collect();
    assert_eq!(kinds.len(), SyscallKind::ALL.len(), "all 42 syscalls observed");
}
