#![warn(missing_docs)]

//! DIO's analysis backend: an embedded document store standing in for
//! Elasticsearch.
//!
//! The paper's backend "persists and indexes events ... and allows users to
//! query and summarize stored information" (§II-C). This crate provides the
//! pieces DIO actually uses:
//!
//! * [`DocStore`] / [`Index`] — JSON document storage with keyword and
//!   numeric inverted indexes, bulk indexing, and update/delete-by-query;
//! * [`correlate_paths`] — the file-path correlation algorithm, one pass
//!   over an index's rows;
//! * [`Query`] — a bool/term/terms/range/prefix/exists query DSL;
//! * [`Aggregation`] — terms, histogram, date-histogram, percentiles,
//!   stats, value-count and cardinality aggregations with nesting, which
//!   power every dashboard in the paper's evaluation.
//!
//! # Examples
//!
//! ```
//! use dio_backend::{Aggregation, DocStore, Query, SearchRequest};
//! use serde_json::json;
//!
//! let store = DocStore::new();
//! let index = store.index("dio-demo");
//! index.bulk(vec![
//!     json!({"syscall": "read",  "proc_name": "db_bench", "time": 1_000}),
//!     json!({"syscall": "write", "proc_name": "rocksdb:low0", "time": 1_200}),
//! ]);
//!
//! let response = index.search(
//!     &SearchRequest::new(Query::term("syscall", "read"))
//!         .agg("by_thread", Aggregation::terms("proc_name", 10)),
//! );
//! assert_eq!(response.total, 1);
//! ```

mod agg;
mod correlate;
#[cfg(test)]
mod differential;
mod index;
mod postings;
mod query;
mod row;
pub mod storage;
mod store;
mod subscribe;
mod value_path;

pub use agg::{AggResult, Aggregation, Bucket, StatsResult};
pub use correlate::{correlate_paths, CorrelationReport};
pub use index::{Hit, Index, SearchRequest, SearchResponse};
pub use query::{BoolBuilder, Query, RangeBuilder, SortOrder};
pub use storage::{ShardReport, StorageConfig, StorageEngine, StorageReport};
pub use store::DocStore;
pub use subscribe::{Subscription, DEFAULT_SUBSCRIPTION_CAPACITY};
pub use value_path::{as_keyword, as_number, for_each_leaf, get_path};
