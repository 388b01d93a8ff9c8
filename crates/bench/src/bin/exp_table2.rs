//! Table II — average execution time and standard deviation for 3
//! independent runs of the RocksDB workload under each tracer (§III-D).
//!
//! Paper: vanilla 3h48m (1.00×), sysdig 3h56m (1.04×), DIO 5h12m (1.37×),
//! strace 6h30m (1.71×). The reproduction checks the *ordering* and the
//! rough factor ranges, not absolute times (the substrate is scaled).
//!
//! Runs are interleaved round-robin (v,s,D,st, v,s,D,st, ...) after one
//! warmup, so machine drift hits every setup equally, and medians are
//! used against scheduler noise on small hosts.

use dio_bench::rocksdb_run::{run_rocksdb, RocksdbRunConfig, TracingSetup};
use dio_bench::{format_duration_ns, write_json_result, write_result};
use dio_viz::Table;

const RUNS: usize = 3;

fn main() {
    let config = if dio_bench::smoke_mode() {
        RocksdbRunConfig::smoke()
    } else {
        RocksdbRunConfig { ops_per_thread: 6_000, ..RocksdbRunConfig::default() }
    };

    // Warmup: populate allocator pools, caches, and lazy statics.
    let _ = run_rocksdb(TracingSetup::Vanilla, &RocksdbRunConfig::smoke());

    let mut times: Vec<Vec<f64>> = vec![Vec::new(); TracingSetup::ALL.len()];
    for run in 0..RUNS {
        for (i, setup) in TracingSetup::ALL.into_iter().enumerate() {
            let cfg = RocksdbRunConfig { seed: config.seed + run as u64, ..config.clone() };
            let result = run_rocksdb(setup, &cfg);
            times[i].push(result.report.elapsed_ns as f64);
            eprintln!(
                "  {} run {}: {} ({} syscalls)",
                setup.name(),
                run + 1,
                format_duration_ns(result.report.elapsed_ns),
                result.syscalls
            );
        }
    }

    let median = |v: &[f64]| {
        let mut s = v.to_vec();
        s.sort_by(f64::total_cmp);
        s[s.len() / 2]
    };
    let medians: Vec<f64> = times.iter().map(|t| median(t)).collect();
    let vanilla_median = medians[0];

    let table_rows: Vec<Vec<String>> = TracingSetup::ALL
        .into_iter()
        .enumerate()
        .map(|(i, setup)| {
            let mean = times[i].iter().sum::<f64>() / times[i].len() as f64;
            let var =
                times[i].iter().map(|t| (t - mean).powi(2)).sum::<f64>() / times[i].len() as f64;
            vec![
                setup.name().to_string(),
                format_duration_ns(medians[i] as u64),
                format!("±{}", format_duration_ns(var.sqrt() as u64)),
                format!("{:.2}x", medians[i] / vanilla_median),
            ]
        })
        .collect();
    let table =
        Table::from_rows(["setup", "median execution time", "stddev", "overhead"], table_rows);

    let factors: Vec<f64> = medians.iter().map(|m| m / vanilla_median).collect();
    let ordering_holds = factors[1] < factors[2] && factors[2] < factors[3];
    let mut out =
        String::from("TABLE II: execution time for 3 interleaved runs of RocksDB per setup\n\n");
    out.push_str(&table.to_ascii());
    out.push_str("\npaper:    vanilla 1.00x | sysdig 1.04x | DIO 1.37x | strace 1.71x\n");
    out.push_str(&format!(
        "measured: vanilla 1.00x | sysdig {:.2}x | DIO {:.2}x | strace {:.2}x\n",
        factors[1], factors[2], factors[3],
    ));
    out.push_str(&format!(
        "ordering sysdig < DIO < strace holds: {}\n",
        if ordering_holds { "YES" } else { "NO" }
    ));
    println!("{out}");
    write_result("table2_overhead.txt", &out);
    let mut params = config.params_json();
    params["runs"] = serde_json::json!(RUNS);
    write_json_result(
        "table2_overhead.json",
        "exp_table2",
        params,
        serde_json::json!({
            "setups": TracingSetup::ALL.into_iter().map(|s| s.name()).collect::<Vec<_>>(),
            "median_ns": medians.clone(),
            "overhead_factors": factors.clone(),
            "ordering_sysdig_dio_strace_holds": ordering_holds,
            "times_ns": times.clone(),
        }),
    );

    if !dio_bench::smoke_mode() {
        assert!(ordering_holds, "Table II overhead ordering must hold: {factors:?}");
        assert!(
            (0.85..1.20).contains(&factors[1]),
            "sysdig factor {:.2} should sit near vanilla (paper: 1.04)",
            factors[1]
        );
        // The paper's claim is the ordering, asserted above: DIO's floor is
        // whatever sysdig measured in the same interleaved runs, not a
        // constant a faster pipeline (or a quiet machine) falls below.
        assert!(
            factors[2] < 2.2,
            "DIO factor {:.2} out of plausible range (paper: 1.37)",
            factors[2]
        );
        assert!(factors[3] > factors[2], "strace must cost more than DIO (paper: 1.71 vs 1.37)");
    }
}
