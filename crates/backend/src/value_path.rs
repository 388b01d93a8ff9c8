//! Dotted-path access and flattening over JSON documents.

use serde_json::Value;

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
    fn walk<'a>(prefix: &mut String, value: &'a Value, f: &mut impl FnMut(&str, &'a Value)) {
        match value {
            Value::Object(map) => {
                for (k, v) in map {
                    let len = prefix.len();
                    if !prefix.is_empty() {
                        prefix.push('.');
                    }
                    prefix.push_str(k);
                    walk(prefix, v, f);
                    prefix.truncate(len);
                }
            }
            Value::Array(items) => {
                for item in items {
                    walk(prefix, item, f);
                }
            }
            Value::Null => {}
            scalar => f(prefix, scalar),
        }
    }
    let mut prefix = String::new();
    walk(&mut prefix, doc, f);
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
