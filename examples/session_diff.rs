//! Post-mortem session comparison (§II): trace two versions of an
//! application into one pipeline, then compare the executions.
//!
//! ```text
//! cargo run --example session_diff
//! ```
//!
//! Uses the Fluent Bit case study: the buggy v1.4.0 and fixed v2.0.5 runs
//! are stored as separate sessions, and one `terms(proc_name)` aggregation
//! over each shows how the fixed version's syscall behaviour differs.

use std::collections::{BTreeMap, BTreeSet};

use dio::core::{Aggregation, Dio, Index, SearchRequest, TracerConfig};
use dio_fluentbit::{run_issue_1875, FluentBitVersion};

/// Syscalls per thread name in a stored session.
fn per_thread(index: &Index) -> BTreeMap<String, u64> {
    let agg = Aggregation::terms("proc_name", 64);
    let response = index.search(&SearchRequest::match_all().size(0).agg("threads", agg));
    let buckets = response.aggs["threads"].buckets();
    buckets.iter().map(|b| (b.key.as_str().unwrap_or("?").to_string(), b.doc_count)).collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dio = Dio::new();

    // Session A: the buggy version.
    let session = dio.trace(TracerConfig::new("v1.4.0"));
    run_issue_1875(dio.kernel(), FluentBitVersion::V1_4_0, "/a.log", 0)?;
    session.stop();

    // Session B: the fixed version (same workload, fresh kernel state not
    // required — different log file keeps the runs independent).
    let session = dio.trace(TracerConfig::new("v2.0.5"));
    run_issue_1875(dio.kernel(), FluentBitVersion::V2_0_5, "/b.log", 0)?;
    session.stop();

    let a = per_thread(&dio.session_index("v1.4.0").expect("session A stored"));
    let b = per_thread(&dio.session_index("v2.0.5").expect("session B stored"));
    println!("{:<16} {:>8} {:>8} {:>7}", "thread", "v1.4.0", "v2.0.5", "delta");
    let mut changed = Vec::new();
    for thread in a.keys().chain(b.keys()).collect::<BTreeSet<_>>() {
        let (before, after) =
            (a.get(thread).copied().unwrap_or(0), b.get(thread).copied().unwrap_or(0));
        println!("{thread:<16} {before:>8} {after:>8} {:>+7}", after as i64 - before as i64);
        if before != after {
            changed.push(thread.as_str());
        }
    }

    // The fixed version reads the second generation instead of seeking
    // past it, and its thread is renamed fluent-bit -> flb-pipeline.
    assert!(changed.contains(&"fluent-bit"));
    assert!(changed.contains(&"flb-pipeline"));
    println!("thread-name change visible in the comparison: {changed:?}");
    Ok(())
}
