//! Building customized analyses and visualizations (§II-C/§II-D).
//!
//! ```text
//! cargo run --example custom_dashboard
//! ```
//!
//! The paper's pipeline lets users "create their own queries, correlation
//! algorithms, and visualization dashboards". This example traces a small
//! mixed workload and then builds, from scratch: a custom query, a custom
//! aggregation, and a custom dashboard.

use dio::core::{
    Aggregation, Column, Dio, OpenFlags, Panel, PanelSpec, Query, SearchRequest, SortOrder,
    TracerConfig,
};
use dio_viz::Dashboard;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dio = Dio::new();
    let session = dio.trace(TracerConfig::new("custom"));

    // A workload with both sequential and random access, and some errors.
    let app = dio.kernel().spawn_process("workload");
    let t = app.spawn_thread("workload");
    let fd = t.openat("/seq.dat", OpenFlags::CREAT | OpenFlags::RDWR, 0o644)?;
    for i in 0..32 {
        t.pwrite64(fd, &[i as u8; 512], i * 512)?;
    }
    let fd2 = t.openat("/rand.dat", OpenFlags::CREAT | OpenFlags::RDWR, 0o644)?;
    t.pwrite64(fd2, &[0u8; 4096], 0)?;
    for off in [3000u64, 100, 2000, 500, 3900, 40] {
        let mut buf = [0u8; 64];
        t.pread64(fd2, &mut buf, off)?;
    }
    let _ = t.openat("/missing", OpenFlags::RDONLY, 0); // ENOENT on purpose
    let _ = t.unlink("/also-missing");
    t.close(fd)?;
    t.close(fd2)?;
    session.stop();

    let index = dio.session_index("custom").expect("session stored");

    // --- custom query: failed syscalls only ---
    let failures = index.search(
        &SearchRequest::new(Query::range("ret_val").lt(0.0).build())
            .sort_by("time", SortOrder::Asc),
    );
    println!("failed syscalls: {}", failures.total);
    for hit in &failures.hits {
        println!("  {} -> ret {}", hit.source["syscall"], hit.source["ret_val"]);
    }

    // --- custom aggregation: bytes moved per syscall type ---
    let agg = index.search(
        &SearchRequest::new(Query::terms("syscall", ["pread64", "pwrite64"])).size(0).agg(
            "per_syscall",
            Aggregation::terms("syscall", 10).sub("bytes", Aggregation::stats("ret_val")),
        ),
    );
    for bucket in agg.aggs["per_syscall"].buckets() {
        if let dio::core::AggResult::Stats(stats) = &bucket.sub["bytes"] {
            println!(
                "{}: {} calls, {:.0} bytes total, {:.0} bytes/call",
                bucket.key,
                stats.count,
                stats.sum,
                stats.avg()
            );
        }
    }

    // --- custom dashboard: latency-focused panels ---
    let dashboard = Dashboard::new("latency-hunters")
        .panel(Panel::new(
            "Slowest 5 syscalls",
            PanelSpec::Table {
                columns: vec![
                    Column::new("syscall"),
                    Column::new("latency_ns").grouped(),
                    Column::new("file_path"),
                ],
                request: SearchRequest::match_all().sort_by("latency_ns", SortOrder::Desc).size(5),
            },
        ))
        .panel(Panel::new(
            "Errors by syscall",
            PanelSpec::TopTerms {
                query: Query::range("ret_val").lt(0.0).build(),
                field: "syscall".into(),
                size: 10,
            },
        ));
    println!("\n{}", dashboard.render(&index));

    Ok(())
}
