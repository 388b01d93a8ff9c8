#![warn(missing_docs)]

//! DIO's user-space tracer component.
//!
//! Mirrors the Go user-space side of DIO: it enables the desired
//! tracepoints (attaching the kernel-side program), applies user-defined
//! filters, asynchronously consumes the per-CPU ring buffers, parses raw
//! records into JSON events, and bulk-ships them to the backend — all off
//! the traced application's critical path (§II-B of the paper).
//!
//! See [`Tracer`] for the lifecycle and [`TracerConfig`] for the knobs
//! (syscall/PID/TID/path filters, ring-buffer size, batch size).
//!
//! Attaching statically verifies the filter first ([`Tracer::try_attach`],
//! DESIGN.md §9): a configuration that provably traces nothing is rejected
//! with a typed [`VerifyError`] instead of producing an empty session.

mod config;
pub mod policy;
mod tracer;

pub use config::{generate_session_name, TracerConfig};
pub use tracer::{
    attribute_with, diagnose_index, diagnosis_engine, AttachError, TraceSummary, Tracer,
};

// Profiling vocabulary, re-exported so callers can configure the DFG
// miner without a direct `dio-profile` dependency.
pub use dio_profile::{DfgMiner, DfgSnapshot, ProfileConfig};

// Verification vocabulary, re-exported for callers handling rejections.
pub use dio_rules::{CompileError as RuleCompileError, RuleCheck, RulesError};
pub use dio_verify::{Rule, VerifyError, VerifyReport};
