//! The dynamic JSON document model: [`Value`], [`Number`], [`Map`].

use std::fmt;

/// A JSON value, mirroring `serde_json::Value`.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum Value {
    /// JSON `null`.
    #[default]
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number (integer or float).
    Number(Number),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object with string keys.
    Object(Map),
}

static NULL: Value = Value::Null;

impl Value {
    /// String view, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// `u64` view, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// `i64` view, if this is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// `f64` view, if this is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// Object view, if this is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Mutable object view, if this is an object.
    pub fn as_object_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Array view, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Mutable array view, if this is an array.
    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Member lookup on objects; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// Mutable member lookup on objects.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.as_object_mut().and_then(|m| m.get_mut(key))
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        self.as_array().and_then(|a| a.get(idx)).unwrap_or(&NULL)
    }
}

impl std::ops::IndexMut<&str> for Value {
    fn index_mut(&mut self, key: &str) -> &mut Value {
        if let Value::Null = self {
            *self = Value::Object(Map::new());
        }
        match self {
            Value::Object(map) => match map.search(key) {
                Ok(at) => &mut map.entries[at].1,
                Err(at) => map.insert_at(at, key.to_string(), Value::Null),
            },
            other => panic!("cannot index non-object value {other} with string key"),
        }
    }
}

impl std::ops::IndexMut<usize> for Value {
    fn index_mut(&mut self, idx: usize) -> &mut Value {
        match self {
            Value::Array(a) => a.get_mut(idx).expect("array index out of bounds"),
            other => panic!("cannot index non-array value {other} with usize"),
        }
    }
}

macro_rules! impl_value_eq_int {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                matches!(self, Value::Number(n) if n.eq_i128(*other as i128))
            }
        }
        impl PartialEq<Value> for $t {
            fn eq(&self, other: &Value) -> bool {
                other == self
            }
        }
    )*};
}

impl_value_eq_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        matches!(self, Value::Number(n) if n.as_f64() == *other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

macro_rules! impl_value_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Number(Number::from(v))
            }
        }
    )*};
}

impl_value_from_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Number(Number::from(v))
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::Number(Number::from(f64::from(v)))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Value {
        Value::Array(v)
    }
}

impl From<Map> for Value {
    fn from(m: Map) -> Value {
        Value::Object(m)
    }
}

impl From<Number> for Value {
    fn from(n: Number) -> Value {
        Value::Number(n)
    }
}

impl fmt::Display for Value {
    /// Renders compact JSON.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(n) => write!(f, "{n}"),
            Value::String(s) => write_escaped(f, s),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Object(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes a JSON string literal with escapes.
pub(crate) fn write_escaped(f: &mut impl fmt::Write, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            '\u{08}' => f.write_str("\\b")?,
            '\u{0C}' => f.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// A JSON number: positive integer, negative integer, or float.
#[derive(Clone, Copy)]
pub struct Number {
    n: N,
}

#[derive(Clone, Copy, Debug)]
enum N {
    PosInt(u64),
    NegInt(i64),
    Float(f64),
}

impl Number {
    /// `i64` view, when the value is an integer that fits.
    pub fn as_i64(&self) -> Option<i64> {
        match self.n {
            N::PosInt(u) => i64::try_from(u).ok(),
            N::NegInt(i) => Some(i),
            N::Float(_) => None,
        }
    }

    /// `u64` view, when the value is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self.n {
            N::PosInt(u) => Some(u),
            N::NegInt(i) => u64::try_from(i).ok(),
            N::Float(_) => None,
        }
    }

    /// The value as a float (lossy for very large integers).
    pub fn as_f64(&self) -> f64 {
        match self.n {
            N::PosInt(u) => u as f64,
            N::NegInt(i) => i as f64,
            N::Float(f) => f,
        }
    }

    /// Whether this number is stored as a float.
    pub fn is_f64(&self) -> bool {
        matches!(self.n, N::Float(_))
    }

    /// Builds a float number; integral-valued floats stay floats.
    pub fn from_f64(f: f64) -> Option<Number> {
        f.is_finite().then_some(Number { n: N::Float(f) })
    }

    pub(crate) fn eq_i128(&self, other: i128) -> bool {
        match self.n {
            N::PosInt(u) => i128::from(u) == other,
            N::NegInt(i) => i128::from(i) == other,
            N::Float(f) => f == other as f64,
        }
    }
}

macro_rules! impl_number_from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Number {
            fn from(v: $t) -> Number {
                Number { n: N::PosInt(v as u64) }
            }
        }
    )*};
}

macro_rules! impl_number_from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for Number {
            fn from(v: $t) -> Number {
                if v >= 0 {
                    Number { n: N::PosInt(v as u64) }
                } else {
                    Number { n: N::NegInt(v as i64) }
                }
            }
        }
    )*};
}

impl_number_from_unsigned!(u8, u16, u32, u64, usize);
impl_number_from_signed!(i8, i16, i32, i64, isize);

impl From<f64> for Number {
    fn from(v: f64) -> Number {
        Number { n: N::Float(v) }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Number) -> bool {
        match (self.n, other.n) {
            (N::PosInt(a), N::PosInt(b)) => a == b,
            (N::NegInt(a), N::NegInt(b)) => a == b,
            (N::Float(a), N::Float(b)) => a == b,
            // Cross-category comparisons are numeric, which is more lenient
            // than serde_json but never fails a comparison that should hold.
            (N::PosInt(a), N::NegInt(b)) | (N::NegInt(b), N::PosInt(a)) => b >= 0 && a == b as u64,
            (N::Float(f), N::PosInt(u)) | (N::PosInt(u), N::Float(f)) => f == u as f64,
            (N::Float(f), N::NegInt(i)) | (N::NegInt(i), N::Float(f)) => f == i as f64,
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.n {
            N::PosInt(u) => write!(f, "{u}"),
            N::NegInt(i) => write!(f, "{i}"),
            N::Float(v) if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 => {
                // Keep a trailing `.0` so floats survive a parse round-trip
                // as floats, matching serde_json's formatting.
                write!(f, "{v:.1}")
            }
            N::Float(v) if v.is_finite() => write!(f, "{v}"),
            N::Float(_) => f.write_str("null"),
        }
    }
}

impl fmt::Debug for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Number({self})")
    }
}

/// Maps up to this many entries are looked up by a linear equality scan
/// (`str == str` compares lengths before bytes, so most keys are rejected on
/// one integer) and grown one slot at a time; larger maps binary-search and
/// grow geometrically. Stored event documents are the small case: a binary
/// search over heap keys measured 1.8x slower than the scan on them.
const SCAN_MAX: usize = 24;

/// A JSON object: string keys mapped to [`Value`]s, ordered by key.
///
/// One contiguous vector of entries sorted by key, so an object costs its
/// entries and nothing else, and iteration is in key order.
#[derive(Clone, Default, PartialEq)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// Creates an empty object.
    pub fn new() -> Map {
        Map { entries: Vec::new() }
    }

    /// Creates an empty object with room for exactly `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Map {
        Map { entries: Vec::with_capacity(capacity) }
    }

    /// Index of `key`'s entry, if present.
    fn position(&self, key: &str) -> Option<usize> {
        if self.entries.len() <= SCAN_MAX {
            self.entries.iter().position(|(k, _)| k == key)
        } else {
            self.entries.binary_search_by(|(k, _)| k.as_str().cmp(key)).ok()
        }
    }

    /// Index of `key`'s entry, or the index that keeps the order if it is
    /// inserted.
    fn search(&self, key: &str) -> Result<usize, usize> {
        let before_key = |(k, _): &(String, Value)| k.as_str() < key;
        // Keys arriving in order (a sorted source, a parsed document)
        // append without a search.
        if self.entries.last().is_none_or(before_key) {
            return Err(self.entries.len());
        }
        self.position(key).ok_or_else(|| self.entries.partition_point(before_key))
    }

    fn insert_at(&mut self, at: usize, key: String, value: Value) -> &mut Value {
        if self.entries.len() == self.entries.capacity() && self.entries.len() < SCAN_MAX {
            self.entries.reserve_exact(1);
        }
        self.entries.insert(at, (key, value));
        &mut self.entries[at].1
    }

    /// Inserts a key/value pair, returning the previous value if any.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        match self.search(&key) {
            Ok(at) => Some(std::mem::replace(&mut self.entries[at].1, value)),
            Err(at) => {
                self.insert_at(at, key, value);
                None
            }
        }
    }

    /// Looks up a value by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.position(key).map(|at| &self.entries[at].1)
    }

    /// Looks up a value mutably by key.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.position(key).map(|at| &mut self.entries[at].1)
    }

    /// Removes a key, returning its value if present.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.position(key).map(|at| self.entries.remove(at).1)
    }

    /// Whether the key is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.position(key).is_some()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the object has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.into_iter()
    }

    /// Iterates entries mutably in key order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&String, &mut Value)> {
        self.entries.iter_mut().map(|(k, v)| (&*k, v))
    }

    /// Iterates keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Iterates values in key order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.entries.iter().map(|(_, v)| v)
    }
}

impl fmt::Debug for Map {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a Map {
    type Item = (&'a String, &'a Value);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (String, Value)>,
        fn(&'a (String, Value)) -> (&'a String, &'a Value),
    >;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

impl IntoIterator for Map {
    type Item = (String, Value);
    type IntoIter = std::vec::IntoIter<(String, Value)>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl FromIterator<(String, Value)> for Map {
    /// Later duplicates of a key replace earlier ones, as repeated
    /// [`Map::insert`] calls would.
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Map {
        let mut entries: Vec<(String, Value)> = iter.into_iter().collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.dedup_by(|later, kept| {
            let duplicate = later.0 == kept.0;
            if duplicate {
                std::mem::swap(later, kept);
            }
            duplicate
        });
        entries.shrink_to_fit();
        Map { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_debug_prints_as_a_map() {
        let map: Map = [("b", Value::Null), ("a", Value::Bool(true))]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        assert_eq!(format!("{map:?}"), r#"{"a": Bool(true), "b": Null}"#);
    }
}
