#![warn(missing_docs)]

//! The file-path correlation algorithm running on DIO's backend (§II-C).
//!
//! [`correlate_paths`] resolves `dev|ino|timestamp` file tags into the
//! actual paths using the backend's update-by-query. Diagnosis, live or over
//! a stored session (`dio_tracer::diagnose_index`), is the shipped rules'
//! job, not this crate's.

mod path;

pub use path::{correlate_paths, CorrelationReport};
