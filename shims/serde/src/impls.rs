//! `Serialize`/`Deserialize` impls for the std types the workspace relies on.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::Hash;
use std::sync::Arc;
use std::time::Duration;

use crate::{Deserialize, Error, Map, Number, Serialize, Value};

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_bool().ok_or_else(|| Error::custom("expected boolean"))
    }
}

macro_rules! impl_serde_int {
    ($($t:ty => $via:ident),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::from(*self))
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let n = value
                    .$via()
                    .ok_or_else(|| Error::custom(concat!("expected ", stringify!($t))))?;
                <$t>::try_from(n)
                    .map_err(|_| Error::custom(concat!("out of range for ", stringify!($t))))
            }
        }
    )*};
}

impl_serde_int!(
    u8 => as_u64, u16 => as_u64, u32 => as_u64, u64 => as_u64, usize => as_u64,
    i8 => as_i64, i16 => as_i64, i32 => as_i64, i64 => as_i64, isize => as_i64
);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::from(*self))
    }
}

impl Deserialize for f64 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_f64().ok_or_else(|| Error::custom("expected number"))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Number(Number::from(f64::from(*self)))
    }
}

impl Deserialize for f32 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(f64::from_value(value)? as f32)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_str().map(str::to_string).ok_or_else(|| Error::custom("expected string"))
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for Cow<'_, str> {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for Cow<'_, str> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(Cow::Owned(String::from_value(value)?))
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    /// Serializes the shared value itself, as real serde's `rc` feature does.
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Deserialize for Arc<str> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_str().map(Arc::from).ok_or_else(|| Error::custom("expected string"))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let items: Vec<T> = Vec::from_value(value)?;
        items.try_into().map_err(|_| Error::custom("array length mismatch"))
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(Error::custom("expected array")),
        }
    }
}

impl<T: Serialize> Serialize for HashSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Eq + Hash> Deserialize for HashSet<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(Error::custom("expected array")),
        }
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(Error::custom("expected array")),
        }
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(self.iter().map(|(k, v)| (k.clone(), v.to_value())).collect())
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Object(map) => {
                map.iter().map(|(k, v)| Ok((k.clone(), V::from_value(v)?))).collect()
            }
            _ => Err(Error::custom("expected object")),
        }
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(self.iter().map(|(k, v)| (k.clone(), v.to_value())).collect())
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Object(map) => {
                map.iter().map(|(k, v)| Ok((k.clone(), V::from_value(v)?))).collect()
            }
            _ => Err(Error::custom("expected object")),
        }
    }
}

impl Serialize for Map {
    fn to_value(&self) -> Value {
        Value::Object(self.clone())
    }
}

impl Deserialize for Map {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value.as_object().cloned().ok_or_else(|| Error::custom("expected object"))
    }
}

impl Serialize for Duration {
    /// Mirrors real serde's `{ "secs": u64, "nanos": u32 }` encoding.
    fn to_value(&self) -> Value {
        let mut map = Map::new();
        map.insert("secs".to_string(), self.as_secs().to_value());
        map.insert("nanos".to_string(), self.subsec_nanos().to_value());
        Value::Object(map)
    }
}

impl Deserialize for Duration {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let obj = value.as_object().ok_or_else(|| Error::custom("expected duration object"))?;
        let secs = obj
            .get("secs")
            .and_then(Value::as_u64)
            .ok_or_else(|| Error::custom("missing field `secs`"))?;
        let nanos = obj
            .get("nanos")
            .and_then(Value::as_u64)
            .ok_or_else(|| Error::custom("missing field `nanos`"))?;
        let nanos = u32::try_from(nanos).map_err(|_| Error::custom("`nanos` out of range"))?;
        Ok(Duration::new(secs, nanos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_roundtrip() {
        assert_eq!(Some(3u32).to_value(), Value::Number(Number::from(3u64)));
        assert!(None::<u32>.to_value().is_null());
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(Option::<u32>::from_value(&7u32.to_value()).unwrap(), Some(7));
    }

    #[test]
    fn shared_str_roundtrip() {
        let s: Arc<str> = Arc::from("app");
        assert_eq!(s.to_value(), Value::String("app".to_string()));
        assert_eq!(Arc::<str>::from_value(&s.to_value()).unwrap(), s);
        assert!(Arc::<str>::from_value(&Value::Null).is_err());
    }

    #[test]
    fn int_range_checked() {
        assert!(u8::from_value(&300u64.to_value()).is_err());
        assert_eq!(i64::from_value(&(-5i64).to_value()).unwrap(), -5);
        assert!(u64::from_value(&(-1i64).to_value()).is_err());
    }

    #[test]
    fn duration_roundtrip() {
        let d = Duration::new(3, 456_000_000);
        assert_eq!(Duration::from_value(&d.to_value()).unwrap(), d);
    }

    #[test]
    fn collections_roundtrip() {
        let v = vec![1u64, 2, 3];
        assert_eq!(Vec::<u64>::from_value(&v.to_value()).unwrap(), v);
        let s: HashSet<u32> = [5, 9].into_iter().collect();
        assert_eq!(HashSet::<u32>::from_value(&s.to_value()).unwrap(), s);
    }
}
