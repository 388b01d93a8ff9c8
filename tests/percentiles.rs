//! One way to summarise a latency. `dio-telemetry`'s `LogHistogram` is the
//! only bucketed histogram: it must give, bucket for bucket, the numbers the
//! two histograms it replaced gave (`tests/common/histograms.rs` keeps them
//! as oracles). And exact samples have one percentile rule: the p99 that
//! `dio top` prints is the p99 a rule tests.

use proptest::prelude::*;

#[path = "common/histograms.rs"]
mod histograms;
use histograms::{LatencyHistogram, LogHist};

use dio_backend::Index;
use dio_diagnose::DynDetector;
use dio_telemetry::{Histogram, HistogramSnapshot, LogHistogram};
use dio_viz::{top_snapshot, TopOptions};
use serde_json::{json, Value};

/// Zero, one, powers of two and their neighbours, the top of the range,
/// latencies, anything.
fn sample() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        (0u32..64, 0u64..3).prop_map(|(bit, d)| (1u64 << bit).wrapping_add(d).wrapping_sub(1)),
        (0u64..16).prop_map(|d| u64::MAX - d),
        1u64..10_000_000,
        any::<u64>(),
    ]
}

/// What the parent's db_bench histogram summarised, in the shared form.
fn oracle_snapshot(h: &LatencyHistogram) -> HistogramSnapshot {
    HistogramSnapshot {
        count: h.count(),
        min: h.min(),
        max: h.max(),
        mean: h.mean(),
        p50: h.percentile(50.0),
        p90: h.percentile(90.0),
        p99: h.percentile(99.0),
        p999: h.percentile(99.9),
    }
}

const PERCENTILES: [f64; 9] = [0.0, 0.1, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn log_histogram_gives_the_replaced_histograms_numbers(
        values in proptest::collection::vec(sample(), 0..300),
        split in any::<usize>(),
    ) {
        let split = split % (values.len() + 1);
        let (left, right) = values.split_at(split);

        // 1/32 of an octave: the Fig. 3 windows and the registry.
        let (mut old, mut old_right) = (LatencyHistogram::new(), LatencyHistogram::new());
        let (mut new, mut new_right) = (LogHistogram::<5>::new(), LogHistogram::<5>::new());
        let registry = Histogram::new();
        for &v in left {
            old.record(v);
            new.record(v);
            registry.record(v);
        }
        for &v in right {
            old_right.record(v);
            new_right.record(v);
            registry.record(v);
        }
        let mut new_all = new.clone();
        for &v in right {
            new_all.record(v);
        }
        prop_assert_eq!(new.snapshot(), oracle_snapshot(&old));
        prop_assert_eq!(new_right.snapshot(), oracle_snapshot(&old_right));
        old.merge(&old_right);
        new.merge(&new_right);
        prop_assert_eq!(new.snapshot(), oracle_snapshot(&old));
        prop_assert_eq!(&new, &new_all, "a merge is the recording of both");
        prop_assert_eq!(new.count(), old.count());
        for p in PERCENTILES {
            prop_assert_eq!(new.percentile(p), old.percentile(p), "p{}", p);
        }
        // The atomic registry histogram resolves through the same walk; its
        // sum wraps where the plain one saturates, so the mean is left out.
        let live = registry.snapshot();
        let want = oracle_snapshot(&old);
        prop_assert_eq!(
            (live.count, live.min, live.max, live.p50, live.p90, live.p99, live.p999),
            (want.count, want.min, want.max, want.p50, want.p90, want.p99, want.p999)
        );

        // One octave: the DFG edges.
        let mut old_edge = LogHist::default();
        let (mut edge, mut edge_right) = (LogHistogram::<0>::new(), LogHistogram::<0>::new());
        for &v in &values {
            old_edge.record(v);
        }
        for &v in left {
            edge.record(v);
        }
        for &v in right {
            edge_right.record(v);
        }
        edge.merge(&edge_right);
        prop_assert_eq!(edge.snapshot(), old_edge.snapshot());
        prop_assert_eq!((edge.count(), edge.sum()), (old_edge.count(), old_edge.sum()));
    }
}

/// `dio top` and a window rule read the same 150 latencies. At n = 150 the
/// two rules the repository used to have disagree — `round((n-1)·0.99)`
/// picks the 150th sample, nearest rank `ceil(0.99·n)` the 149th — so this
/// pins the one rule both now share.
#[test]
fn dio_top_p99_is_the_rules_p99() {
    // Distinct latencies (7 919 is prime to 150), not in sorted order.
    let docs: Vec<Value> = (0..150u64)
        .map(|i| {
            json!({
                "time": 1 + i * 1_000_000, "pid": 7, "tid": 7, "proc_name": "app",
                "syscall": "read", "latency_ns": 1_000 + (i * 7_919) % 150 * 10, "ret_val": 1,
            })
        })
        .collect();

    let index = Index::new("dio-percentiles");
    index.bulk(docs.clone());
    let opts =
        TopOptions { window_ns: 1_000_000_000, now_ns: Some(999_999_999), ..Default::default() };
    let top = top_snapshot(&index, &[], &opts);
    let app = &top.processes[0];
    assert_eq!(app.ops, 150);

    let mut set = dio_rules::compile(
        "rule tail on window(1s) \
         when p99(latency_ns) > 1ns and p95(latency_ns) > 1ns and p50(latency_ns) > 1ns \
         then alert(info, \"tail\")",
    )
    .expect("rule verifies");
    let mut alerts = Vec::new();
    for doc in &docs {
        set.observe(doc, &mut alerts);
    }
    set.evaluate_all(&mut alerts);
    assert_eq!(alerts.len(), 1, "{alerts:?}");
    let rule = |agg: &str| alerts[0].fields["values"][agg].as_f64().expect(agg) as u64;

    assert_eq!(app.p99_ns, rule("p99(latency_ns)"));
    assert_eq!(app.p95_ns, rule("p95(latency_ns)"));
    assert_eq!(app.p50_ns, rule("p50(latency_ns)"));
    assert_eq!(app.p99_ns, 1_000 + 148 * 10, "the 149th of 150, not the largest");
}
