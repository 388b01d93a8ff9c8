//! Offline stand-in for `serde_json`, layered over the `serde` shim's
//! dynamic [`Value`] document model: `json!`, `to_string`,
//! `to_string_pretty`, `to_value`, `from_str`, `from_value`.

mod parse;

pub use serde::{Error, Map, Number, Value};

use serde::{Deserialize, Serialize};

/// Serializes any [`Serialize`] type into a [`Value`].
///
/// # Errors
///
/// Infallible with the shim's document model; kept as `Result` for API
/// compatibility.
pub fn to_value<T: Serialize>(value: T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Deserializes a typed value out of a [`Value`] document.
///
/// # Errors
///
/// Returns the first structural mismatch.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, Error> {
    T::from_value(value)
}

/// Serializes to compact JSON text.
///
/// # Errors
///
/// Infallible with the shim's document model.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().to_string())
}

/// Serializes to pretty-printed JSON (two-space indent).
///
/// # Errors
///
/// Infallible with the shim's document model.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_pretty(&value.to_value(), 0, &mut out);
    Ok(out)
}

fn write_pretty(value: &Value, indent: usize, out: &mut String) {
    use std::fmt::Write as _;
    match value {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_pretty(v, indent + 1, out);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push(']');
        }
        Value::Object(map) if !map.is_empty() => {
            out.push_str("{\n");
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                let _ = write!(out, "{}: ", Value::String(k.clone()));
                write_pretty(v, indent + 1, out);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push('}');
        }
        other => {
            let _ = write!(out, "{other}");
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Parses JSON text into any [`Deserialize`] type. Into
/// `serde::de::IgnoredAny` it only checks the syntax, building nothing.
///
/// # Errors
///
/// Returns a syntax error with byte offset, or the first structural
/// mismatch when converting into `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    if T::KEEPS_NOTHING {
        parse::check(s)?;
        return T::from_value(&Value::Null);
    }
    let value = parse::parse(s)?;
    T::from_value(&value)
}

/// Builds a [`Value`] from JSON-like literal syntax, interpolating Rust
/// expressions in value position.
#[macro_export]
macro_rules! json {
    ($($json:tt)+) => {
        $crate::json_internal!($($json)+)
    };
}

/// Implementation detail of [`json!`] — a token-tree muncher in the style
/// of the real serde_json macro.
#[doc(hidden)]
#[macro_export]
macro_rules! json_internal {
    // ----- array element accumulation -----
    (@array [$($elems:expr,)*]) => {
        vec![$($elems,)*]
    };
    (@array [$($elems:expr),*]) => {
        vec![$($elems),*]
    };
    (@array [$($elems:expr,)*] null $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(null),] $($rest)*)
    };
    (@array [$($elems:expr,)*] true $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(true),] $($rest)*)
    };
    (@array [$($elems:expr,)*] false $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(false),] $($rest)*)
    };
    (@array [$($elems:expr,)*] [$($array:tt)*] $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!([$($array)*]),] $($rest)*)
    };
    (@array [$($elems:expr,)*] {$($map:tt)*} $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!({$($map)*}),] $($rest)*)
    };
    (@array [$($elems:expr,)*] $next:expr, $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($next),] $($rest)*)
    };
    (@array [$($elems:expr,)*] $last:expr) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($last)])
    };
    (@array [$($elems:expr,)*] , $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)*] $($rest)*)
    };

    // ----- object key/value accumulation -----
    // Insert the finished entry, then continue with the rest.
    (@object $object:ident [$($key:tt)+] ($value:expr) , $($rest:tt)*) => {
        let _ = $object.insert(($($key)+).into(), $value);
        $crate::json_internal!(@object $object () ($($rest)*) ($($rest)*));
    };
    (@object $object:ident [$($key:tt)+] ($value:expr)) => {
        let _ = $object.insert(($($key)+).into(), $value);
    };
    // Munch a value for the current key.
    (@object $object:ident ($($key:tt)+) (: null $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(null)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: true $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(true)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: false $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(false)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: [$($array:tt)*] $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+]
            ($crate::json_internal!([$($array)*])) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: {$($map:tt)*} $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+]
            ($crate::json_internal!({$($map)*})) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr , $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+]
            ($crate::json_internal!($value)) , $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)));
    };
    // Accumulate key tokens until the `:`.
    (@object $object:ident ($($key:tt)*) ($tt:tt $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object ($($key)* $tt) ($($rest)*) $copy);
    };
    (@object $object:ident () () ()) => {};

    // ----- entry points -----
    (null) => {
        $crate::Value::Null
    };
    (true) => {
        $crate::Value::Bool(true)
    };
    (false) => {
        $crate::Value::Bool(false)
    };
    ([]) => {
        $crate::Value::Array(vec![])
    };
    ([ $($tt:tt)+ ]) => {
        $crate::Value::Array($crate::json_internal!(@array [] $($tt)+))
    };
    ({}) => {
        $crate::Value::Object($crate::Map::new())
    };
    ({ $($tt:tt)+ }) => {
        $crate::Value::Object({
            let mut object = $crate::Map::new();
            $crate::json_internal!(@object object () ($($tt)+) ($($tt)+));
            object
        })
    };
    ($other:expr) => {
        $crate::to_value(&$other).expect("json! value")
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn literals_and_nesting() {
        let v = json!({
            "a": 1,
            "b": { "c": "x", "d": [2, 3] },
            "t": true,
            "n": null,
        });
        assert_eq!(v["a"], 1);
        assert_eq!(v["b"]["c"], "x");
        assert_eq!(v["b"]["d"][1], 3);
        assert_eq!(v["t"], true);
        assert!(v["n"].is_null());
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn interpolation() {
        let session = "s1".to_string();
        let n = 42u64;
        let v = json!({ "session": session, "n": n, "sum": n + 1 });
        assert_eq!(v["session"], "s1");
        assert_eq!(v["n"], 42u64);
        assert_eq!(v["sum"], 43);
    }

    #[test]
    fn text_roundtrip() {
        let v = json!({ "s": "a\"b\\c\nd", "i": -7, "u": 18446744073709551615u64, "f": 1.5 });
        let text = crate::to_string(&v).unwrap();
        let back: crate::Value = crate::from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_contains_fields() {
        let v = json!({ "x": [1, 2], "y": { "z": "w" } });
        let text = crate::to_string_pretty(&v).unwrap();
        assert!(text.contains("\"x\": [\n"));
        assert!(text.contains("\"z\": \"w\""));
        let back: crate::Value = crate::from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn floats_keep_fraction_marker() {
        let text = crate::to_string(&json!(4.0)).unwrap();
        assert_eq!(text, "4.0");
        let back: crate::Value = crate::from_str(&text).unwrap();
        assert_eq!(back.as_f64(), Some(4.0));
        assert_eq!(back.as_u64(), None, "still a float after round-trip");
    }

    #[test]
    fn malformed_input_rejected() {
        assert!(crate::from_str::<crate::Value>("{not json").is_err());
        assert!(crate::from_str::<crate::Value>("").is_err());
        assert!(crate::from_str::<crate::Value>("{\"a\": 1,}").is_err());
        assert!(crate::from_str::<crate::Value>("[1 2]").is_err());
        assert!(crate::from_str::<crate::Value>("\"unterminated").is_err());
    }

    /// Checking a text accepts exactly what parsing it does.
    #[test]
    fn checking_accepts_what_parsing_accepts() {
        use serde::de::IgnoredAny;
        let texts = [
            r#"{"a":[1,-2,3.5e2,{"b":null}],"c":"x\"\u00e9\ud83d\ude00","d":true}"#,
            " [ ] ",
            "{}",
            "1.",
            "-",
            "1e",
            "\"\\u+123\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\q\"",
            "[1,]",
            "{\"a\" 1}",
            "nul",
            "nullx",
            "\"tab\there\"",
            "18446744073709551616",
        ];
        for text in texts {
            let parsed = crate::from_str::<crate::Value>(text);
            let checked = crate::from_str::<IgnoredAny>(text);
            assert_eq!(parsed.is_ok(), checked.is_ok(), "{text}");
        }
    }

    #[test]
    fn unicode_escapes() {
        let v: crate::Value = crate::from_str("\"\\u00e9\\u20ac \\ud83d\\ude00\"").unwrap();
        assert_eq!(v, "é€ 😀");
        let text = crate::to_string(&v).unwrap();
        let back: crate::Value = crate::from_str(&text).unwrap();
        assert_eq!(back, v);
    }
}
