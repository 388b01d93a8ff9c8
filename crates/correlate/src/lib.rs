#![warn(missing_docs)]

//! The file-path correlation algorithm (§II-C), which lives in `dio-backend`
//! beside the rows it writes: this crate only re-exports it.

pub use dio_backend::{correlate_paths, CorrelationReport};
