//! The seeded syscall stream every workload replays.
//!
//! 4 simulated processes × 2 threads, visited round-robin by one OS thread.
//! Each simulated thread runs sessions back to back: 49 in 50 are file
//! sessions `openat → k×write → lseek → k×read → fsync → close` (k in 1..=8,
//! sizes 128 B..=4 KiB) over 256 zipf-chosen paths in 8 directories; one in
//! 50 is a metadata / xattr / directory session, so all four Table I classes
//! occur. The same seed yields the same syscalls, so a vanilla kernel and a
//! traced kernel can be driven in lockstep by two `Stream`s.

use std::collections::{BTreeMap, VecDeque};

use dio_kernel::{Errno, Kernel, OpenFlags, ThreadCtx, Whence};
use rand::{Rng, SeedableRng, SmallRng};

const PROCESSES: usize = 4;
const THREADS_PER_PROCESS: usize = 2;
const DIRS: usize = 8;
const PATHS: usize = 256;
const MAX_IO: usize = 4096;
const MAX_K: usize = 8;
const XATTR: &str = "user.dio";

#[derive(Clone, Copy)]
enum Op {
    Open(u16),
    Write(u16),
    Rewind,
    Read(u16),
    Fsync,
    Close,
    /// Step of a metadata session.
    Meta(u8),
}

const META_STEPS: u8 = 14;

struct SimThread {
    ctx: ThreadCtx,
    ops: VecDeque<Op>,
    fd: i32,
    /// Metadata sessions run so far (names their scratch directory).
    meta_sessions: u32,
}

/// What the generator issued: the reference the stored trace is checked
/// against.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Tally {
    /// Syscalls issued, by Linux name.
    pub by_syscall: BTreeMap<&'static str, u64>,
    /// Syscalls issued in total.
    pub events: u64,
    /// Syscalls issued on a file descriptor: they carry a file tag and no
    /// path, so path correlation must resolve exactly these.
    pub fd_events: u64,
    /// Syscalls that returned an error (the stream is built so none does).
    pub failed: u64,
}

impl Tally {
    fn note(&mut self, name: &'static str, on_fd: bool) {
        *self.by_syscall.entry(name).or_default() += 1;
        self.events += 1;
        self.fd_events += on_fd as u64;
    }
}

pub struct Stream {
    rng: SmallRng,
    threads: Vec<SimThread>,
    next: usize,
    paths: Vec<String>,
    zipf_cdf: Vec<f64>,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
    pub tally: Tally,
}

impl Stream {
    /// Spawns the simulated processes on `kernel`, creates the directory
    /// tree and fills every data file to its largest size, so the kernel's
    /// own memory does not grow while a trial is measured. Call before a
    /// tracer attaches: none of this is traced.
    pub fn new(kernel: &Kernel, seed: u64) -> Stream {
        let mut threads = Vec::new();
        for p in 0..PROCESSES {
            let process = kernel.spawn_process(format!("app{p}"));
            for t in 0..THREADS_PER_PROCESS {
                threads.push(SimThread {
                    ctx: process.spawn_thread(format!("app{p}-w{t}")),
                    ops: VecDeque::new(),
                    fd: -1,
                    meta_sessions: 0,
                });
            }
        }
        let paths: Vec<String> =
            (0..PATHS).map(|i| format!("/data/d{}/file-{i:03}.dat", i % DIRS)).collect();
        let wbuf: Vec<u8> = (0..MAX_IO).map(|i| (i % 251) as u8).collect();
        let setup = &threads[0].ctx;
        setup.mkdir("/data", 0o755).expect("fresh kernel");
        for d in 0..DIRS {
            setup.mkdir(&format!("/data/d{d}"), 0o755).expect("fresh kernel");
        }
        for path in &paths {
            let fd = setup.creat(path, 0o644).expect("fresh kernel");
            for _ in 0..MAX_K {
                setup.write(fd, &wbuf).expect("prefill");
            }
            setup.close(fd).expect("prefill");
        }
        // Zipf(1.0) over the paths; the seed decides which path gets which
        // rank, the popularity curve itself is fixed.
        let weights: Vec<f64> = (1..=PATHS).map(|r| 1.0 / r as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let zipf_cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let mut stream = Stream {
            rng: SmallRng::seed_from_u64(seed),
            threads,
            next: 0,
            paths,
            zipf_cdf,
            wbuf,
            rbuf: vec![0; MAX_IO],
            tally: Tally::default(),
        };
        for i in (1..PATHS).rev() {
            let j = stream.rng.gen_range(0..=i);
            stream.paths.swap(i, j);
        }
        stream
    }

    fn plan_session(&mut self, thread: usize) {
        let t = &mut self.threads[thread];
        if self.rng.gen_range(0..50u32) == 0 {
            t.ops.extend((0..META_STEPS).map(Op::Meta));
            return;
        }
        let u: f64 = self.rng.gen();
        let rank = self.zipf_cdf.partition_point(|&c| c < u).min(PATHS - 1);
        let k = self.rng.gen_range(1..=MAX_K);
        t.ops.push_back(Op::Open(rank as u16));
        for _ in 0..k {
            t.ops.push_back(Op::Write(self.rng.gen_range(128..=MAX_IO) as u16));
        }
        t.ops.push_back(Op::Rewind);
        for _ in 0..k {
            t.ops.push_back(Op::Read(self.rng.gen_range(128..=MAX_IO) as u16));
        }
        t.ops.push_back(Op::Fsync);
        t.ops.push_back(Op::Close);
    }

    /// Issues the next syscall of the stream.
    pub fn step(&mut self) {
        let thread = self.next;
        self.next = (self.next + 1) % self.threads.len();
        if self.threads[thread].ops.is_empty() {
            self.plan_session(thread);
        }
        let op = self.threads[thread].ops.pop_front().expect("session planned");
        let (name, on_fd, result) = self.issue(thread, op);
        self.tally.note(name, on_fd);
        if result.is_err() {
            self.tally.failed += 1;
        }
    }

    /// Issues `n` syscalls.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    fn issue(&mut self, thread: usize, op: Op) -> (&'static str, bool, Result<(), Errno>) {
        let t = &mut self.threads[thread];
        let ctx = &t.ctx;
        match op {
            Op::Open(rank) => {
                let flags = OpenFlags::CREAT | OpenFlags::RDWR;
                let r = ctx.openat(&self.paths[rank as usize], flags, 0o644).map(|fd| t.fd = fd);
                ("openat", false, r)
            }
            Op::Write(n) => ("write", true, ctx.write(t.fd, &self.wbuf[..n as usize]).map(drop)),
            Op::Rewind => ("lseek", true, ctx.lseek(t.fd, 0, Whence::Set).map(drop)),
            Op::Read(n) => ("read", true, ctx.read(t.fd, &mut self.rbuf[..n as usize]).map(drop)),
            Op::Fsync => ("fsync", true, ctx.fsync(t.fd)),
            Op::Close => ("close", true, ctx.close(t.fd)),
            Op::Meta(step) => {
                let dir = format!("/data/d{}/meta-{thread}-{}", thread % DIRS, t.meta_sessions);
                let file = format!("{dir}/f");
                let moved = format!("{dir}/g");
                match step {
                    0 => ("mkdir", false, ctx.mkdir(&dir, 0o755)),
                    1 => ("creat", false, ctx.creat(&file, 0o644).map(|fd| t.fd = fd)),
                    2 => ("fsetxattr", true, ctx.fsetxattr(t.fd, XATTR, b"bench")),
                    3 => ("fstat", true, ctx.fstat(t.fd).map(drop)),
                    4 => ("close", true, ctx.close(t.fd)),
                    5 => ("stat", false, ctx.stat(&file).map(drop)),
                    6 => ("setxattr", false, ctx.setxattr(&file, XATTR, b"again")),
                    7 => ("getxattr", false, ctx.getxattr(&file, XATTR).map(drop)),
                    8 => ("listxattr", false, ctx.listxattr(&file).map(drop)),
                    9 => ("removexattr", false, ctx.removexattr(&file, XATTR)),
                    10 => ("rename", false, ctx.rename(&file, &moved)),
                    11 => ("truncate", false, ctx.truncate(&moved, 0)),
                    12 => ("unlink", false, ctx.unlink(&moved)),
                    _ => {
                        t.meta_sessions += 1;
                        ("rmdir", false, ctx.rmdir(&dir))
                    }
                }
            }
        }
    }
}
