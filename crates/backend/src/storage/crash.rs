//! Crash-injection points for the recovery test harness.
//!
//! The crash harness (DESIGN.md §11.5) runs a child writer process with
//! `DIO_CRASH_POINT=<site>:<countdown>:<split>` in its environment and
//! expects the storage engine to die — `std::process::abort()`, no
//! unwinding, no destructors — *partway through* the named write, after
//! exactly `split` bytes of it reached the file. The parent then reopens
//! the directory and asserts the recovery invariants.
//!
//! * `site` — `append` (segment record write) or `compact`
//!   (merge-output write).
//! * `countdown` — the n-th hit of the site triggers the crash (0-based),
//!   so a seeded run can land the kill deep into a workload.
//! * `split` — byte offset *within* the targeted write at which the
//!   process dies; the bytes before it are flushed first so the torn
//!   frame is really on disk.
//!
//! The whole feature costs one `OnceLock` read on the hot path when the
//! variable is unset, and is inert in production.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::OnceLock;

/// A named write the harness can interrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSite {
    /// A segment-record append.
    Append,
    /// A compaction merge-output write.
    Compact,
}

impl CrashSite {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "append" => Some(CrashSite::Append),
            "compact" => Some(CrashSite::Compact),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct CrashPlan {
    site: CrashSite,
    /// Remaining hits before the crash fires; decremented per hit.
    countdown: AtomicI64,
    split: usize,
}

static PLAN: OnceLock<Option<CrashPlan>> = OnceLock::new();

fn plan() -> Option<&'static CrashPlan> {
    PLAN.get_or_init(|| {
        let spec = std::env::var("DIO_CRASH_POINT").ok()?;
        let mut parts = spec.split(':');
        let site = CrashSite::parse(parts.next()?)?;
        let countdown: i64 = parts.next()?.parse().ok()?;
        let split: usize = parts.next()?.parse().ok()?;
        Some(CrashPlan { site, countdown: AtomicI64::new(countdown), split })
    })
    .as_ref()
}

/// Consulted before a write at `site` of `len` bytes. Returns
/// `Some(split)` when this write is the one the plan kills: the caller
/// must write the first `split` bytes, flush them, then call
/// [`abort_now`].
pub fn armed_split(site: CrashSite, len: usize) -> Option<usize> {
    let p = plan()?;
    if p.site != site {
        return None;
    }
    if p.countdown.fetch_sub(1, Ordering::Relaxed) != 0 {
        return None;
    }
    Some(p.split.min(len.saturating_sub(1)))
}

/// Kills the process without unwinding, exactly like a SIGKILL landing
/// between two `write(2)` calls. The flight recorder is dumped first —
/// the dump only touches already-durable state, so the crash semantics
/// the harness verifies are unchanged.
pub fn abort_now() -> ! {
    let _ = dio_telemetry::trace::dump_on_trigger("crash");
    std::process::abort()
}
