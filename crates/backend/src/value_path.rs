//! Dotted-path access and flattening over documents: JSON values, and the
//! one accessor ([`DocRef`]) through which queries, sorting, aggregations and
//! the inverted indexes read a stored document whichever way the index keeps
//! it.

use std::borrow::Cow;

use dio_syscall::{ArgRef, FieldRef, SyscallEvent, TagText};
use serde_json::Value;

/// A stored document, lent: the event when the index keeps it typed, the
/// JSON value otherwise.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DocRef<'a> {
    Event(&'a SyscallEvent),
    Json(&'a Value),
}

/// One field of a document, as [`DocRef::field`] found it.
#[derive(Debug)]
pub(crate) enum Field<'a> {
    /// A field of a JSON document — or an event's `args` object, built for
    /// the occasion (only a query on `args` itself, not `args.count`, asks).
    Json(Cow<'a, Value>),
    /// A number or string field of an event.
    Scalar(ArgRef<'a>),
    /// An event's `file_tag`.
    Tag(TagText),
}

/// What the inverted indexes hold for one leaf of a document.
pub(crate) enum Term<'a> {
    Keyword(&'a str),
    Number(f64),
}

impl<'a> Term<'a> {
    fn of_leaf(leaf: &'a Value) -> Option<Term<'a>> {
        as_keyword(leaf).map(Term::Keyword).or_else(|| as_number(leaf).map(Term::Number))
    }

    fn of_scalar(scalar: ArgRef<'a>) -> Term<'a> {
        match scalar.as_f64() {
            Some(n) => Term::Number(n),
            None => Term::Keyword(scalar.as_str().expect("a string or a number")),
        }
    }
}

impl<'a> DocRef<'a> {
    /// Resolves a dotted field path; for a JSON document this is
    /// [`get_path`], and an event answers as its document would.
    pub(crate) fn field(self, path: &str) -> Option<Field<'a>> {
        let event = match self {
            DocRef::Json(doc) => return get_path(doc, path).map(|v| Field::Json(Cow::Borrowed(v))),
            DocRef::Event(event) => event,
        };
        let (name, member) = match path.split_once('.') {
            Some((name, member)) => (name, Some(member)),
            None => (path, None),
        };
        match (event.field(name)?, member) {
            (FieldRef::Args(args), Some(arg)) => args.get(arg).map(Field::Scalar),
            (_, Some(_)) => None,
            (FieldRef::Scalar(scalar), None) => Some(Field::Scalar(scalar)),
            (FieldRef::Tag(tag), None) => Some(Field::Tag(tag.text())),
            (args @ FieldRef::Args(_), None) => Some(Field::Json(Cow::Owned(args.to_value()))),
        }
    }

    /// Calls `f` with every `(dotted path, term)` the inverted indexes hold
    /// for the document: the keyword and number leaves of [`for_each_leaf`].
    pub(crate) fn for_each_term(self, f: &mut impl FnMut(&str, Term<'_>)) {
        match self {
            DocRef::Json(doc) => walk_terms(&mut String::new(), doc, f),
            DocRef::Event(event) => {
                event.for_each_leaf(&mut |path, leaf| f(path, Term::of_scalar(leaf)))
            }
        }
    }
}

impl Field<'_> {
    /// [`as_number`] of the field.
    pub(crate) fn as_number(&self) -> Option<f64> {
        match self {
            Field::Json(value) => as_number(value),
            Field::Scalar(scalar) => scalar.as_f64(),
            Field::Tag(_) => None,
        }
    }

    /// [`as_keyword`] of the field.
    pub(crate) fn as_keyword(&self) -> Option<&str> {
        match self {
            Field::Json(value) => as_keyword(value),
            Field::Scalar(scalar) => scalar.as_str(),
            Field::Tag(tag) => Some(tag),
        }
    }

    /// Numeric-aware equality with a query's value: `26` (u64) equals
    /// `26.0`, strings compare as strings, anything else as JSON values do.
    pub(crate) fn equals(&self, value: &Value) -> bool {
        match (self.as_number(), as_number(value), self) {
            (Some(x), Some(y), _) => x == y,
            (_, _, Field::Json(held)) => **held == *value,
            // An event's string is a JSON string (`as_keyword` would also
            // take a boolean's name for one).
            _ => self.as_keyword().is_some_and(|s| value.as_str() == Some(s)),
        }
    }

    /// The JSON text of the field.
    pub(crate) fn to_json(&self) -> String {
        match self {
            Field::Json(value) => value.to_string(),
            Field::Scalar(scalar) => FieldRef::Scalar(*scalar).to_value().to_string(),
            Field::Tag(tag) => Value::from(&**tag).to_string(),
        }
    }
}

/// Resolves a dotted field path (`"args.count"`) inside a document.
///
/// # Examples
///
/// ```
/// use serde_json::json;
/// let doc = json!({"args": {"count": 26}});
/// assert_eq!(dio_backend::get_path(&doc, "args.count"), Some(&json!(26)));
/// assert_eq!(dio_backend::get_path(&doc, "missing"), None);
/// ```
pub fn get_path<'a>(doc: &'a Value, path: &str) -> Option<&'a Value> {
    let mut cur = doc;
    for part in path.split('.') {
        cur = cur.as_object()?.get(part)?;
    }
    Some(cur)
}

/// Numeric view of a JSON value (integers and floats unified as `f64`).
pub fn as_number(value: &Value) -> Option<f64> {
    value.as_f64()
}

/// Keyword view of a JSON value (strings verbatim; booleans as
/// `"true"`/`"false"`).
pub fn as_keyword(value: &Value) -> Option<&str> {
    match value {
        Value::String(s) => Some(s),
        Value::Bool(true) => Some("true"),
        Value::Bool(false) => Some("false"),
        _ => None,
    }
}

/// Calls `f` with every `(dotted_path, scalar)` leaf in the document.
/// Arrays contribute each element under the same path.
pub fn for_each_leaf<'a>(doc: &'a Value, f: &mut impl FnMut(&str, &'a Value)) {
    walk_leaves(&mut String::new(), doc, f);
}

/// The keyword and number leaves of `value` as index terms, every path
/// behind `prefix`.
fn walk_terms(prefix: &mut String, value: &Value, f: &mut impl FnMut(&str, Term<'_>)) {
    walk_leaves(prefix, value, &mut |path, leaf| {
        if let Some(term) = Term::of_leaf(leaf) {
            f(path, term);
        }
    });
}

/// [`for_each_leaf`] of `value`, every path behind `prefix`.
fn walk_leaves<'a>(prefix: &mut String, value: &'a Value, f: &mut impl FnMut(&str, &'a Value)) {
    match value {
        Value::Object(map) => {
            for (k, v) in map {
                let len = prefix.len();
                if !prefix.is_empty() {
                    prefix.push('.');
                }
                prefix.push_str(k);
                walk_leaves(prefix, v, f);
                prefix.truncate(len);
            }
        }
        Value::Array(items) => {
            for item in items {
                walk_leaves(prefix, item, f);
            }
        }
        Value::Null => {}
        scalar => f(prefix, scalar),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn nested_path_access() {
        let doc = json!({"a": {"b": {"c": 1}}, "x": 2});
        assert_eq!(get_path(&doc, "a.b.c"), Some(&json!(1)));
        assert_eq!(get_path(&doc, "x"), Some(&json!(2)));
        assert_eq!(get_path(&doc, "a.b.missing"), None);
        assert_eq!(get_path(&doc, "x.y"), None);
    }

    #[test]
    fn keyword_and_number_views() {
        assert_eq!(as_keyword(&json!("hi")), Some("hi"));
        assert_eq!(as_keyword(&json!(true)), Some("true"));
        assert_eq!(as_keyword(&json!(1)), None);
        assert_eq!(as_number(&json!(2.5)), Some(2.5));
        assert_eq!(as_number(&json!(-3)), Some(-3.0));
        assert_eq!(as_number(&json!("x")), None);
    }

    #[test]
    fn leaf_walk_flattens() {
        let doc = json!({"a": 1, "b": {"c": "x", "d": [2, 3]}, "n": null});
        let mut seen = Vec::new();
        for_each_leaf(&doc, &mut |p, v| seen.push((p.to_string(), v.clone())));
        assert!(seen.contains(&("a".to_string(), json!(1))));
        assert!(seen.contains(&("b.c".to_string(), json!("x"))));
        assert!(seen.contains(&("b.d".to_string(), json!(2))));
        assert!(seen.contains(&("b.d".to_string(), json!(3))));
        assert_eq!(seen.len(), 4, "nulls are not indexed");
    }
}
