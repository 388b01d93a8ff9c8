//! dio-profile: causal I/O profiling over the traced syscall stream.
//!
//! The diagnosis layer (dio-diagnose, dio-rules) says *that* something is
//! wrong; this crate is the half that explains *why*. A streaming
//! [`DfgMiner`] consumes the same parsed event documents the diagnosis
//! engine taps and mines **directly-follows graphs** — which syscall
//! follows which, how often, and at what latency — per process, per file
//! tag, and globally, in bounded memory ("Inspection of I/O Operations
//! from System Call Traces using Directly-Follows-Graph", Sankaran et
//! al.). On top of the graphs:
//!
//! * **phase segmentation** — when the dominant edge set of one time
//!   window diverges from the previous window's (load → compaction,
//!   ingest → flush), a typed `kind: "phase"` document is emitted;
//! * **alert attribution** — when a diagnosis alert fires, the DFG delta
//!   over the alert window is intersected with the flight-recorder span
//!   rings and the edge whose latency share grew most is named in an
//!   `attribution` block on the alert (the critical transition, in the
//!   spirit of ReLayTracer's layer slicing).
//!
//! Graphs export as Graphviz DOT, Mermaid, and JSON ([`export`]), feed
//! the `/api/dfg` + `/dfg` endpoints of dio-serve and the `dio top` DFG
//! panel, and report themselves through `dfg.*` telemetry counters.
//!
//! ```
//! use dio_profile::{DfgMiner, ProfileConfig};
//! use serde_json::json;
//!
//! let miner = DfgMiner::new(ProfileConfig::default());
//! miner.observe_batch(&[
//!     json!({"time": 10, "pid": 1, "tid": 1, "syscall": "write", "latency_ns": 120}),
//!     json!({"time": 25, "pid": 1, "tid": 1, "syscall": "fsync", "latency_ns": 8_000}),
//! ]);
//! let snapshot = miner.snapshot();
//! assert_eq!(snapshot.global.edges[0].label(), "write->fsync");
//! ```

pub mod dfg;
pub mod export;

pub use dfg::{DfgMiner, DfgSnapshot, EdgeSnapshot, GraphSnapshot, NodeSnapshot, ProfileConfig};
pub use export::{to_dot, to_json, to_mermaid};
