//! The query DSL: a compact subset of the Elasticsearch bool/term/range
//! query language — everything DIO's dashboards and correlation algorithms
//! need.

use serde_json::Value;

use crate::value_path::DocRef;

/// A query over documents.
///
/// # Examples
///
/// ```
/// use dio_backend::Query;
/// use serde_json::json;
///
/// let q = Query::bool_query()
///     .must(Query::term("syscall", "read"))
///     .must(Query::range("offset").gte(10.0))
///     .build();
/// assert!(q.matches(&json!({"syscall": "read", "offset": 26})));
/// assert!(!q.matches(&json!({"syscall": "read", "offset": 0})));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Matches every document.
    MatchAll,
    /// Exact match on a keyword or numeric field.
    Term {
        /// Dotted field path.
        field: String,
        /// Value to compare against.
        value: Value,
    },
    /// Match any of several values.
    Terms {
        /// Dotted field path.
        field: String,
        /// Accepted values.
        values: Vec<Value>,
    },
    /// Numeric range.
    Range {
        /// Dotted field path.
        field: String,
        /// Inclusive lower bound.
        gte: Option<f64>,
        /// Exclusive lower bound.
        gt: Option<f64>,
        /// Inclusive upper bound.
        lte: Option<f64>,
        /// Exclusive upper bound.
        lt: Option<f64>,
    },
    /// Keyword prefix match.
    Prefix {
        /// Dotted field path.
        field: String,
        /// Required prefix.
        prefix: String,
    },
    /// Field presence.
    Exists {
        /// Dotted field path.
        field: String,
    },
    /// Boolean combination.
    Bool {
        /// All must match.
        must: Vec<Query>,
        /// At least one must match (when non-empty).
        should: Vec<Query>,
        /// None may match.
        must_not: Vec<Query>,
    },
}

impl Query {
    /// A `term` query.
    pub fn term(field: impl Into<String>, value: impl Into<Value>) -> Query {
        Query::Term { field: field.into(), value: value.into() }
    }

    /// A `terms` query.
    pub fn terms(
        field: impl Into<String>,
        values: impl IntoIterator<Item = impl Into<Value>>,
    ) -> Query {
        Query::Terms { field: field.into(), values: values.into_iter().map(Into::into).collect() }
    }

    /// Starts a range query on `field`.
    pub fn range(field: impl Into<String>) -> RangeBuilder {
        RangeBuilder { field: field.into(), gte: None, gt: None, lte: None, lt: None }
    }

    /// A `prefix` query.
    pub fn prefix(field: impl Into<String>, prefix: impl Into<String>) -> Query {
        Query::Prefix { field: field.into(), prefix: prefix.into() }
    }

    /// An `exists` query.
    pub fn exists(field: impl Into<String>) -> Query {
        Query::Exists { field: field.into() }
    }

    /// Starts a bool query.
    pub fn bool_query() -> BoolBuilder {
        BoolBuilder::default()
    }

    /// Whether this query matches `doc` (scan-time evaluation).
    pub fn matches(&self, doc: &Value) -> bool {
        self.matches_doc(DocRef::Json(doc))
    }

    /// [`Self::matches`] over a stored document of either kind.
    pub(crate) fn matches_doc(&self, doc: DocRef<'_>) -> bool {
        match self {
            Query::MatchAll => true,
            Query::Term { field, value } => doc.field(field).is_some_and(|f| f.equals(value)),
            Query::Terms { field, values } => {
                doc.field(field).is_some_and(|f| values.iter().any(|v| f.equals(v)))
            }
            Query::Range { field, gte, gt, lte, lt } => {
                let Some(n) = doc.field(field).and_then(|f| f.as_number()) else {
                    return false;
                };
                gte.is_none_or(|b| n >= b)
                    && gt.is_none_or(|b| n > b)
                    && lte.is_none_or(|b| n <= b)
                    && lt.is_none_or(|b| n < b)
            }
            Query::Prefix { field, prefix } => doc
                .field(field)
                .is_some_and(|f| f.as_keyword().is_some_and(|s| s.starts_with(prefix.as_str()))),
            Query::Exists { field } => doc.field(field).is_some(),
            Query::Bool { must, should, must_not } => {
                must.iter().all(|q| q.matches_doc(doc))
                    && (should.is_empty() || should.iter().any(|q| q.matches_doc(doc)))
                    && !must_not.iter().any(|q| q.matches_doc(doc))
            }
        }
    }
}

/// Builder returned by [`Query::range`].
#[derive(Debug, Clone)]
pub struct RangeBuilder {
    field: String,
    gte: Option<f64>,
    gt: Option<f64>,
    lte: Option<f64>,
    lt: Option<f64>,
}

impl RangeBuilder {
    /// Inclusive lower bound.
    pub fn gte(mut self, v: f64) -> Self {
        self.gte = Some(v);
        self
    }

    /// Exclusive lower bound.
    pub fn gt(mut self, v: f64) -> Self {
        self.gt = Some(v);
        self
    }

    /// Inclusive upper bound.
    pub fn lte(mut self, v: f64) -> Self {
        self.lte = Some(v);
        self
    }

    /// Exclusive upper bound.
    pub fn lt(mut self, v: f64) -> Self {
        self.lt = Some(v);
        self
    }

    /// Finishes the range query.
    pub fn build(self) -> Query {
        Query::Range { field: self.field, gte: self.gte, gt: self.gt, lte: self.lte, lt: self.lt }
    }
}

impl From<RangeBuilder> for Query {
    fn from(b: RangeBuilder) -> Query {
        b.build()
    }
}

/// Builder returned by [`Query::bool_query`].
#[derive(Debug, Clone, Default)]
pub struct BoolBuilder {
    must: Vec<Query>,
    should: Vec<Query>,
    must_not: Vec<Query>,
}

impl BoolBuilder {
    /// Adds a required clause.
    pub fn must(mut self, q: impl Into<Query>) -> Self {
        self.must.push(q.into());
        self
    }

    /// Adds an alternative clause.
    pub fn should(mut self, q: impl Into<Query>) -> Self {
        self.should.push(q.into());
        self
    }

    /// Adds an excluding clause.
    pub fn must_not(mut self, q: impl Into<Query>) -> Self {
        self.must_not.push(q.into());
        self
    }

    /// Finishes the bool query.
    pub fn build(self) -> Query {
        Query::Bool { must: self.must, should: self.should, must_not: self.must_not }
    }
}

impl From<BoolBuilder> for Query {
    fn from(b: BoolBuilder) -> Query {
        b.build()
    }
}

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// Ascending.
    Asc,
    /// Descending.
    Desc,
}

/// Compares two documents on a field for sorting (numbers before strings,
/// missing values last).
pub(crate) fn compare_docs(
    a: DocRef<'_>,
    b: DocRef<'_>,
    field: &str,
    order: SortOrder,
) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    let ord = match (a.field(field), b.field(field)) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => return Ordering::Greater, // missing last regardless of order
        (Some(_), None) => return Ordering::Less,
        (Some(x), Some(y)) => match (x.as_number(), y.as_number()) {
            (Some(nx), Some(ny)) => nx.total_cmp(&ny),
            _ => x.as_keyword().unwrap_or_default().cmp(y.as_keyword().unwrap_or_default()),
        },
    };
    match order {
        SortOrder::Asc => ord,
        SortOrder::Desc => ord.reverse(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn term_numeric_and_string() {
        assert!(Query::term("a", 1).matches(&json!({"a": 1})));
        assert!(Query::term("a", 1).matches(&json!({"a": 1.0})));
        assert!(Query::term("a", "x").matches(&json!({"a": "x"})));
        assert!(!Query::term("a", "x").matches(&json!({"a": "y"})));
        assert!(!Query::term("a", 1).matches(&json!({"b": 1})));
    }

    #[test]
    fn terms_matches_any() {
        let q = Query::terms("s", ["read", "write"]);
        assert!(q.matches(&json!({"s": "read"})));
        assert!(q.matches(&json!({"s": "write"})));
        assert!(!q.matches(&json!({"s": "close"})));
    }

    #[test]
    fn range_bounds() {
        let q = Query::range("n").gte(2.0).lt(5.0).build();
        assert!(!q.matches(&json!({"n": 1})));
        assert!(q.matches(&json!({"n": 2})));
        assert!(q.matches(&json!({"n": 4.9})));
        assert!(!q.matches(&json!({"n": 5})));
        assert!(!q.matches(&json!({"n": "x"})));
        let q = Query::range("n").gt(2.0).lte(3.0).build();
        assert!(!q.matches(&json!({"n": 2})));
        assert!(q.matches(&json!({"n": 3})));
    }

    #[test]
    fn prefix_and_exists() {
        assert!(Query::prefix("p", "/db").matches(&json!({"p": "/db/LOG"})));
        assert!(!Query::prefix("p", "/db").matches(&json!({"p": "/log"})));
        assert!(Query::exists("x").matches(&json!({"x": 0})));
        assert!(!Query::exists("x").matches(&json!({"y": 0})));
    }

    #[test]
    fn bool_combinations() {
        let q = Query::bool_query()
            .must(Query::term("a", 1))
            .must_not(Query::term("b", 2))
            .should(Query::term("c", 3))
            .should(Query::term("c", 4))
            .build();
        assert!(q.matches(&json!({"a": 1, "c": 3})));
        assert!(q.matches(&json!({"a": 1, "c": 4})));
        assert!(!q.matches(&json!({"a": 1, "c": 5})), "no should clause hit");
        assert!(!q.matches(&json!({"a": 1, "b": 2, "c": 3})), "must_not violated");
        assert!(!q.matches(&json!({"a": 2, "c": 3})));
    }

    #[test]
    fn empty_bool_is_match_all() {
        let q = Query::bool_query().build();
        assert!(q.matches(&json!({"anything": true})));
    }

    #[test]
    fn sort_comparisons() {
        use std::cmp::Ordering;
        let (a, b, missing) = (json!({"n": 1, "s": "a"}), json!({"n": 2, "s": "b"}), json!({}));
        let (a, b, missing) = (DocRef::Json(&a), DocRef::Json(&b), DocRef::Json(&missing));
        assert_eq!(compare_docs(a, b, "n", SortOrder::Asc), Ordering::Less);
        assert_eq!(compare_docs(a, b, "n", SortOrder::Desc), Ordering::Greater);
        assert_eq!(compare_docs(a, b, "s", SortOrder::Asc), Ordering::Less);
        assert_eq!(compare_docs(a, missing, "n", SortOrder::Desc), Ordering::Less);
        assert_eq!(compare_docs(missing, a, "n", SortOrder::Asc), Ordering::Greater);
    }
}
