//! The §III-B case study as a runnable example: diagnosing Fluent Bit's
//! tail-plugin data loss (issue fluent/fluent-bit#1875) with DIO.
//!
//! ```text
//! cargo run --example fluentbit_data_loss
//! ```
//!
//! Replays the log-rotation script against the buggy v1.4.0 plugin and the
//! fixed v2.0.5 plugin, both traced by DIO, and lets the shipped rules —
//! re-run over each stored session — find the bug in one and clear the
//! other.

use dio::core::{dashboards, diagnose_index, AlertKind, DiagnoseConfig, Dio, Query, TracerConfig};
use dio_fluentbit::{run_issue_1875, FluentBitVersion};

fn diagnose(version: FluentBitVersion) -> Result<(), Box<dyn std::error::Error>> {
    let label = match version {
        FluentBitVersion::V1_4_0 => "Fluent Bit v1.4.0 (buggy)",
        FluentBitVersion::V2_0_5 => "Fluent Bit v2.0.5 (fixed)",
    };
    println!("==== {label} ====");

    let dio = Dio::new();
    let session = dio.trace(TracerConfig::new("fluentbit"));
    let outcome = run_issue_1875(dio.kernel(), version, "/app.log", 1_000_000)?;
    session.stop();

    let index = dio.session_index("fluentbit").expect("session stored");
    println!(
        "{}",
        dashboards::syscall_table(Query::terms(
            "syscall",
            ["openat", "write", "read", "lseek", "close", "unlink"],
        ))
        .render(&index)
    );
    println!(
        "client wrote {} bytes, tailer consumed {} -> {} bytes lost",
        outcome.bytes_written,
        outcome.bytes_consumed,
        outcome.bytes_lost()
    );

    let engine = diagnose_index(&index, DiagnoseConfig::default(), Vec::new());
    let losses: Vec<_> =
        engine.alerts().into_iter().filter(|a| a.kind == AlertKind::DataLoss).collect();
    if losses.is_empty() {
        println!("diagnosis: no stale-offset reads found\n");
    }
    for loss in &losses {
        // The alert's evidence is the stale read.
        let read = &loss.evidence[0];
        println!(
            "diagnosis: DATA LOSS — {} resumed {} at stale offset {} \
             (inode generation {}) and read {} bytes\n",
            read["proc_name"].as_str().unwrap_or("?"),
            read["file_path"].as_str().unwrap_or("<uncorrelated>"),
            read["offset"],
            loss.subject,
            read["ret_val"]
        );
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    diagnose(FluentBitVersion::V1_4_0)?;
    diagnose(FluentBitVersion::V2_0_5)?;
    Ok(())
}
