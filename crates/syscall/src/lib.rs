#![warn(missing_docs)]

//! Syscall vocabulary shared by every DIO component.
//!
//! This crate models the 42 storage-related system calls supported by DIO
//! (Table I of the paper), their classification into *data*, *metadata*,
//! *extended attributes* and *directory management* classes, the value types
//! that flow through tracepoints (arguments, return values, errnos), and the
//! enriched [`SyscallEvent`] that the tracer ships to the analysis backend.
//!
//! # Examples
//!
//! ```
//! use dio_syscall::{SyscallKind, SyscallClass};
//!
//! assert_eq!(SyscallKind::Pwrite64.class(), SyscallClass::Data);
//! assert_eq!(SyscallKind::ALL.len(), 42);
//! ```

mod args;
mod catalog;
pub mod codec;
mod event;
mod file_type;
mod tag;
mod view;

pub use args::{expected_args, path_arg, Arg, ArgList, ArgRef, ArgValue};
pub use catalog::{SyscallClass, SyscallKind, SyscallSet};
pub use event::{FieldRef, NamedArgs, SyscallEvent};
pub use file_type::FileType;
pub use tag::{FileTag, TagText};
pub use view::{EventView, Field, Scalar, Text};

/// Process identifier inside the simulated kernel.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct Pid(pub u32);

/// Thread identifier inside the simulated kernel.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct Tid(pub u32);

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::fmt::Display for Tid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}
