//! Offline stand-in for `serde`.
//!
//! The real serde is a zero-cost serialization framework; this shim keeps
//! the same *surface* (the `Serialize`/`Deserialize` traits, the derive
//! macros, and — re-exported through the `serde_json` shim — `Value`,
//! `Map`, `Number`, `json!`) while funneling all serialization through a
//! single dynamic document model: [`Value`]. That trade is fine here: the
//! workspace only serializes configs, trace events, and backend documents.

mod impls;
mod value;

pub use serde_derive::{Deserialize, Serialize};
pub use value::{Map, Number, Value};

/// Types that can serialize themselves into a [`Value`] document.
pub trait Serialize {
    /// Converts `self` into the dynamic document model.
    fn to_value(&self) -> Value;
}

/// Types that can reconstruct themselves from a [`Value`] document.
pub trait Deserialize: Sized {
    /// Parses `Self` out of the dynamic document model.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] describing the first mismatch encountered.
    fn from_value(value: &Value) -> Result<Self, Error>;

    /// Whether [`Deserialize::from_value`] keeps nothing of the document, so
    /// a parser may check the text's syntax without building it (true for
    /// [`de::IgnoredAny`] alone).
    #[doc(hidden)]
    const KEEPS_NOTHING: bool = false;
}

/// Deserialization helpers.
pub mod de {
    /// A type any document deserializes into, keeping nothing of it:
    /// `serde_json::from_str::<IgnoredAny>` checks that a text is JSON.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct IgnoredAny;

    impl super::Deserialize for IgnoredAny {
        fn from_value(_: &super::Value) -> Result<Self, super::Error> {
            Ok(IgnoredAny)
        }

        const KEEPS_NOTHING: bool = true;
    }
}

/// Serialization/deserialization error (also re-exported as
/// `serde_json::Error`).
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error from any displayable message.
    pub fn custom(msg: impl std::fmt::Display) -> Self {
        Error { msg: msg.to_string() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}
