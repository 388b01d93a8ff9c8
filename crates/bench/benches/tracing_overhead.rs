//! Ablation benches for the tracer's design choices: per-syscall cost
//! untraced vs traced, with and without enrichment, and the in-kernel
//! filter evaluation cost (§II-B).

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use dio_ebpf::{FilterSpec, ProgramConfig, RingBuffer, RingConfig, TracerProgram};
use dio_kernel::{DiskProfile, Kernel, OpenFlags, SyscallProbe, ThreadCtx};
use dio_syscall::{Pid, SyscallKind};

fn config() -> Criterion {
    Criterion::default()
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(800))
        .sample_size(20)
}

fn instant_kernel() -> (Kernel, ThreadCtx, i32) {
    let kernel = Kernel::builder().root_disk(DiskProfile::instant()).build();
    let t = kernel.spawn_process("bench").spawn_thread("bench");
    let fd = t.openat("/bench.dat", OpenFlags::CREAT | OpenFlags::RDWR, 0o644).unwrap();
    t.write(fd, &[0u8; 8192]).unwrap();
    (kernel, t, fd)
}

fn attach_dio(kernel: &Kernel, config: ProgramConfig) -> Arc<TracerProgram> {
    let ring =
        Arc::new(RingBuffer::new(kernel.num_cpus(), RingConfig::with_bytes_per_cpu(8 << 20)));
    let prog = TracerProgram::new(config, ring).expect("verified filter");
    kernel.tracepoints().attach(Arc::clone(&prog) as Arc<dyn SyscallProbe>);
    prog
}

/// One pread64 per iteration; a drain keeps the ring from overflowing.
fn bench_syscall(
    c: &mut Criterion,
    name: &str,
    setup: impl Fn(&Kernel) -> Option<Arc<TracerProgram>>,
) {
    c.bench_function(name, |b| {
        let (kernel, t, fd) = instant_kernel();
        let prog = setup(&kernel);
        let mut buf = [0u8; 256];
        let mut i = 0u64;
        b.iter(|| {
            t.pread64(fd, &mut buf, (i % 16) * 256).unwrap();
            i += 1;
            if i.is_multiple_of(1024) {
                if let Some(p) = &prog {
                    p.ring().drain_all(usize::MAX);
                }
            }
        });
    });
}

fn bench_untraced(c: &mut Criterion) {
    bench_syscall(c, "syscall_untraced", |_| None);
}

fn bench_traced_enriched(c: &mut Criterion) {
    bench_syscall(c, "syscall_dio_enriched", |k| Some(attach_dio(k, ProgramConfig::default())));
}

fn bench_traced_no_enrich(c: &mut Criterion) {
    bench_syscall(c, "syscall_dio_no_enrich", |k| {
        Some(attach_dio(k, ProgramConfig { enrich: false, ..ProgramConfig::default() }))
    });
}

fn bench_traced_filtered_out(c: &mut Criterion) {
    // The filtered-out path: tracepoint enabled for another kind only,
    // so the pread costs exactly the untraced path (tracepoint disabled).
    bench_syscall(c, "syscall_dio_other_kind_filtered", |k| {
        Some(attach_dio(
            k,
            ProgramConfig {
                filter: FilterSpec::new().syscalls([SyscallKind::Mkdir]),
                ..ProgramConfig::default()
            },
        ))
    });
}

fn bench_filter_eval(c: &mut Criterion) {
    // Pure filter admission cost on a synthetic event.
    struct NullView;
    impl dio_kernel::KernelInspect for NullView {
        fn fd_info(&self, _: Pid, _: i32) -> Option<dio_kernel::FdInfo> {
            None
        }
        fn fd_path_matches(&self, _: Pid, _: i32, _: &dyn Fn(&str) -> bool) -> bool {
            false
        }
    }
    let filter = FilterSpec::new()
        .syscalls([SyscallKind::Read, SyscallKind::Write])
        .pids([Pid(7)])
        .path_prefix("/watched");
    let args = [dio_syscall::Arg::new("fd", 3i64)];
    let comm = Arc::from("bench");
    let event = dio_kernel::EnterEvent {
        kind: SyscallKind::Read,
        pid: Pid(7),
        tid: dio_syscall::Tid(7),
        comm: &comm,
        cpu: 0,
        time_ns: 0,
        args: &args,
        path: Some("/watched/file"),
        fd: None,
    };
    c.bench_function("filter_admit", |b| {
        b.iter(|| std::hint::black_box(filter.admits(&NullView, &event)));
    });
}

fn bench_event_serialization(c: &mut Criterion) {
    // The user-space consumer's per-event work: RawEvent -> JSON document.
    let (kernel, t, fd) = instant_kernel();
    let prog = attach_dio(&kernel, ProgramConfig::default());
    let mut buf = [0u8; 64];
    t.pread64(fd, &mut buf, 0).unwrap();
    let raw = prog.ring().drain_all(1).pop().expect("one event");
    c.bench_function("event_to_document", |b| {
        b.iter(|| std::hint::black_box(raw.clone().into_event("bench").to_document()));
    });
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_untraced, bench_traced_enriched, bench_traced_no_enrich,
        bench_traced_filtered_out, bench_filter_eval, bench_event_serialization
}
criterion_main!(benches);
