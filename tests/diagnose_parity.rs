//! Parity between the live detectors — the shipped `rules/*.dio`, the only
//! implementation a diagnosed session runs — and the offline oracle in
//! `tests/common/oracle.rs`: fed the same event set, the rules must flag
//! what the oracle flags. Fig. 2: one `data_loss` alert per
//! [`detect_data_loss`] incident, on the read the incident names. Fig. 3:
//! `contention_skew` on exactly the windows a reference fold over
//! [`detect_contention`]'s windows selects.
//!
//! Then two ways into the same rules must tell one story: a stored session
//! re-diagnosed from its index raises what the live engine raises over the
//! same events, and the engine, the rule sets and the DFG miner fed a stream
//! as typed events and as the events' documents agree to the byte.

use std::sync::Arc;

use proptest::prelude::*;

mod common;
use common::{arbitrary_event, Draw};
#[path = "common/oracle.rs"]
mod oracle;
use oracle::{detect_contention, detect_data_loss, ContentionConfig, DataLossIncident};

use dio::core::{Dio, DiskProfile, Kernel, Query, SearchRequest, SortOrder, TracerConfig};
use dio_backend::Index;
use dio_diagnose::{Alert, AlertKind, DiagnoseConfig, DynDetector, EngineStats, Severity};
use dio_fluentbit::{run_issue_1875, FluentBitVersion};
use dio_profile::{DfgMiner, ProfileConfig};
use dio_rules::{shipped, RuleSet};
use dio_syscall::{EventView, FileTag, SyscallEvent, SyscallKind};
use serde_json::{json, Value};

/// Runs a rule set over a finished document stream, sealing after every
/// event as a drain of one would.
fn run_rules(mut set: RuleSet, docs: &[Value]) -> (Vec<Alert>, RuleSet) {
    let mut out = Vec::new();
    for doc in docs {
        set.observe(doc, &mut out);
        set.evaluate_ready(&mut out);
    }
    set.evaluate_all(&mut out);
    (out, set)
}

// --------------------------------------------------------- data loss

/// One file generation: bytes written, then the first read's (offset,
/// ret). Writes preceding reads per generation is the regime both
/// algorithms assume (a tailer only reads after the writer produced
/// something), and where their `bytes_at_risk` accounting coincides.
#[derive(Debug, Clone)]
struct GenSpec {
    writes: Vec<u16>,
    read: Option<(u16, i64)>, // first-read offset, ret_val
}

fn gen_spec() -> impl Strategy<Value = GenSpec> {
    let read =
        prop_oneof![Just(None), (0..200u16, prop_oneof![Just(0i64), 1..100i64]).prop_map(Some),];
    (proptest::collection::vec(1..400u16, 0..4), read)
        .prop_map(|(writes, read)| GenSpec { writes, read })
}

fn data_loss_docs(files: &[Vec<GenSpec>]) -> Vec<Value> {
    let mut docs = Vec::new();
    let mut time = 0u64;
    for (f, gens) in files.iter().enumerate() {
        let (dev, ino) = (7340032u64, 100 + f as u64);
        for (g, spec) in gens.iter().enumerate() {
            // Distinct first-access timestamp per generation = the
            // inode-reuse signature the file tag encodes.
            let tag = format!("{dev}|{ino}|{}", (g as u64 + 1) * 1_000);
            let mut offset = 0u64;
            for &w in &spec.writes {
                time += 10;
                docs.push(json!({
                    "session": "parity", "syscall": "write", "class": "write",
                    "pid": 1, "tid": 1, "proc_name": "flb-pipeline",
                    "time": time, "ret_val": w, "offset": offset,
                    "file_tag": tag, "file_path": format!("/log{f}"),
                }));
                offset += w as u64;
            }
            if let Some((roff, ret)) = spec.read {
                time += 10;
                docs.push(json!({
                    "session": "parity", "syscall": "read", "class": "read",
                    "pid": 2, "tid": 2, "proc_name": "fluent-bit",
                    "time": time, "ret_val": ret, "offset": roff,
                    "file_tag": tag, "file_path": format!("/log{f}"),
                }));
            }
        }
    }
    docs
}

/// `rules/fig2_data_loss.dio` over `docs`: its `data_loss` alerts, which must
/// be the oracle's `incidents`, one each and in order — raised on the read
/// the incident names (its offset, tag and reader are the evidence event's).
/// `bytes_at_risk` is the oracle's enrichment; the rule does not compute it.
fn assert_data_loss_matches(docs: &[Value], incidents: &[DataLossIncident]) -> Vec<Alert> {
    let (alerts, _) = run_rules(dio_rules::compile(shipped::FIG2_DATA_LOSS).unwrap(), docs);
    let losses: Vec<&Alert> = alerts.iter().filter(|a| a.kind == AlertKind::DataLoss).collect();
    assert_eq!(losses.len(), incidents.len(), "offline {incidents:?} vs live {alerts:?}");
    for (alert, incident) in losses.iter().zip(incidents) {
        assert_eq!((alert.severity, alert.detector), (Severity::Critical, "rules"));
        assert_eq!(alert.fields["rule"], "data_loss");
        assert_eq!(alert.subject, incident.tag.to_string());
        let [read] = &alert.evidence[..] else { panic!("one evidence event: {alert:?}") };
        assert_eq!(read["time"].as_u64(), Some(alert.time_ns));
        assert_eq!(read["offset"].as_u64(), Some(incident.stale_offset));
        assert_eq!(read["file_tag"].as_str(), Some(incident.tag.to_string().as_str()));
        assert_eq!(read["proc_name"].as_str(), Some(incident.reader.as_str()));
    }
    alerts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The shipped Fig. 2 rules == offline [`detect_data_loss`]: same
    /// incident count, and per incident the same stale offset, tag and
    /// reader.
    #[test]
    fn streaming_data_loss_matches_offline(
        files in proptest::collection::vec(
            proptest::collection::vec(gen_spec(), 1..4), 1..3)
    ) {
        let docs = data_loss_docs(&files);
        let index = Index::new("dio-parity");
        index.bulk(docs.clone());
        assert_data_loss_matches(&docs, &detect_data_loss(&index));
    }
}

// -------------------------------------------------------- contention

/// One Fig. 4 window: client ops plus background compaction threads.
/// `None` = a silent window (the oracle gap-fills it, the stream never
/// opens it).
fn window_spec() -> impl Strategy<Value = Option<(u8, u8, u8)>> {
    prop_oneof![Just(None), (0..12u8, 0..8u8, 1..5u8).prop_map(Some)]
}

const WINDOW_NS: u64 = 1_000;
const SECOND: u64 = 1_000_000_000;

/// A Fig. 3-shaped stream, one spec per window of `window_ns`: `db_bench*`
/// clients against `rocksdb:low*` compaction threads.
fn contention_docs(windows: &[Option<(u8, u8, u8)>], window_ns: u64) -> Vec<Value> {
    let mut docs = Vec::new();
    for (w, spec) in windows.iter().enumerate() {
        let base = w as u64 * window_ns;
        let Some((clients, bg_threads, bg_ops)) = spec else { continue };
        for i in 0..*clients as u64 {
            docs.push(json!({
                "session": "parity", "syscall": "pread64", "class": "read",
                "pid": 1, "tid": 1, "proc_name": "db_bench_c", "time": base + i,
                "ret_val": 4096,
            }));
        }
        for t in 0..*bg_threads {
            for i in 0..*bg_ops as u64 {
                docs.push(json!({
                    "session": "parity", "syscall": "pwrite64", "class": "write",
                    "pid": 1, "tid": 2 + t, "proc_name": format!("rocksdb:low{t}"),
                    "time": base + 100 + i, "ret_val": 4096,
                }));
            }
        }
    }
    docs
}

/// The windows `rules/fig3_contention.dio` must flag, from the offline
/// oracle's window activity: contended windows whose client throughput is
/// below the mean of the calm windows before them — or, had that flagged
/// none, below the calm mean of the whole stream (the rule's end-of-stream
/// pass). The oracle gap-fills the windows nothing happened in; a stream has
/// no such window to seal, so the fold passes over them.
fn oracle_contention_windows(docs: &[Value], window_ns: u64) -> Vec<u64> {
    let index = Index::new("dio-parity");
    index.bulk(docs.to_vec());
    let config = ContentionConfig { window_ns, ..Default::default() };
    let mut windows = detect_contention(&index, &config).windows;
    windows.retain(|w| w.client_ops + w.background_ops > 0);
    let flagged = |whole_stream: bool| -> Vec<u64> {
        let dips = windows.iter().enumerate().filter(|&(i, w)| {
            let seen = if whole_stream { &windows[..] } else { &windows[..i] };
            let calm: Vec<u64> =
                seen.iter().filter(|c| !c.contended).map(|c| c.client_ops).collect();
            let mean = calm.iter().sum::<u64>() as f64 / calm.len() as f64;
            w.contended && !calm.is_empty() && (w.client_ops as f64) < mean
        });
        dips.map(|(_, w)| w.start_ns).collect()
    };
    let streaming = flagged(false);
    if streaming.is_empty() {
        flagged(true)
    } else {
        streaming
    }
}

/// `rules/fig3_contention.dio`, its window `window_ns` wide, over `docs`
/// must alert on exactly the oracle's windows, in order, each alert a
/// warning at its window's end.
fn assert_contention_matches(docs: &[Value], window_ns: u64) -> Vec<Alert> {
    let fig3 = shipped::ALL.iter().position(|(name, _)| *name == "fig3_contention").unwrap();
    let (alerts, _) = run_rules(shipped::compile_all(window_ns).swap_remove(fig3), docs);
    let expected: Vec<AlertSpine> = oracle_contention_windows(docs, window_ns)
        .into_iter()
        .map(|start| {
            let end = start + window_ns;
            (AlertKind::ContentionSkew, Severity::Warning, end, Some(start), Some(end))
        })
        .collect();
    assert_eq!(spine(&alerts), expected, "rule alerts must be the oracle's windows");
    alerts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The shipped Fig. 3 rule == the fold over offline
    /// [`detect_contention`], silent windows in the stream included, at a
    /// width other than the one the file spells.
    #[test]
    fn streaming_contention_matches_offline(
        windows in proptest::collection::vec(window_spec(), 1..7),
    ) {
        assert_contention_matches(&contention_docs(&windows, WINDOW_NS), WINDOW_NS);
    }
}

// ------------------------------------------------- engine end-to-end

/// The assembled engine — the one a diagnosed session gets — over the exact
/// Fig. 2a fixture reaches the same verdict as the offline pass over the
/// same stored trace.
#[test]
fn engine_agrees_with_offline_on_fig2a_fixture() {
    let mk = |time: u64, syscall: &str, proc: &str, ret: i64, tag: &str, offset: u64| {
        json!({
            "session": "fig2a", "syscall": syscall,
            "class": if syscall == "read" { "read" } else { "write" },
            "pid": 1, "tid": 1, "proc_name": proc, "time": time,
            "ret_val": ret, "offset": offset, "file_tag": tag,
            "file_path": "/app.log",
        })
    };
    let docs = vec![
        mk(100, "write", "flb-pipeline", 26, "7340032|12|100", 0),
        mk(200, "read", "fluent-bit", 26, "7340032|12|100", 0),
        mk(300, "write", "flb-pipeline", 16, "7340032|12|200", 0),
        mk(400, "read", "fluent-bit", 0, "7340032|12|200", 26),
    ];

    let index = Index::new("dio-fig2a");
    index.bulk(docs.clone());
    let offline = detect_data_loss(&index);
    assert_eq!(offline.len(), 1);
    assert_eq!((offline[0].stale_offset, offline[0].bytes_at_risk), (26, 16));
    assert_data_loss_matches(&docs, &offline);

    let engine = dio_tracer::diagnosis_engine(DiagnoseConfig::default(), Vec::new());
    engine.observe_batch(&docs);
    engine.finish();
    let live = engine.alerts();
    let [loss] = &live[..] else { panic!("engine must flag the Fig. 2a bug, once: {live:?}") };
    assert_eq!((loss.kind, loss.time_ns), (AlertKind::DataLoss, 400));
    assert_eq!(loss.evidence[0]["offset"].as_u64(), Some(offline[0].stale_offset));
}

// -------------------------------------- shipped rules vs offline oracle

/// The spine of an alert: kind, severity, time, and window bounds are the
/// diagnosis; messages, subjects and evidence are its voice.
type AlertSpine = (AlertKind, Severity, u64, Option<u64>, Option<u64>);

fn spine(alerts: &[Alert]) -> Vec<AlertSpine> {
    alerts
        .iter()
        .map(|a| (a.kind, a.severity, a.time_ns, a.window_start_ns, a.window_end_ns))
        .collect()
}

/// Traces one Fluent Bit issue-1875 run and returns its event documents
/// in stream (time) order, with the session index they were stored in.
fn traced_fluentbit_stream(version: FluentBitVersion, session: &str) -> (Vec<Value>, Arc<Index>) {
    let dio = Dio::with_kernel(Kernel::builder().root_disk(DiskProfile::instant()).build());
    let handle = dio.trace(TracerConfig::new(session));
    run_issue_1875(dio.kernel(), version, "/app.log", 0).unwrap();
    handle.stop();
    let index = dio.session_index(session).unwrap();
    let total = index.count(&Query::MatchAll) as usize;
    let hits = index
        .search(&SearchRequest::new(Query::MatchAll).sort_by("time", SortOrder::Asc).size(total))
        .hits;
    assert_eq!(hits.len(), total, "stream pull must not truncate");
    (hits.into_iter().map(|h| h.source).collect(), index)
}

/// `rules/fig2_data_loss.dio` over the traced buggy run == offline
/// [`detect_data_loss`] on the same index: exactly the one critical
/// data-loss alert, on the read the incident names.
#[test]
fn fig2_rules_match_detector_on_traced_buggy_stream() {
    let (docs, index) = traced_fluentbit_stream(FluentBitVersion::V1_4_0, "rules-fig2a");
    let offline = detect_data_loss(&index);
    assert_eq!(offline.len(), 1, "the buggy run holds exactly the Fig. 2a incident: {offline:?}");
    let ruled = assert_data_loss_matches(&docs, &offline);
    assert_eq!(ruled.len(), 1, "and raises nothing else: {ruled:?}");
}

/// Over the fixed version's trace both stay silent, and the rule file's
/// `validated_restart` record observes the one offset-0 restart.
#[test]
fn fig2_rules_match_detector_on_traced_fixed_stream() {
    let (docs, index) = traced_fluentbit_stream(FluentBitVersion::V2_0_5, "rules-fig2b");
    assert!(detect_data_loss(&index).is_empty(), "the fix must not be flagged");

    let (ruled, set) = run_rules(dio_rules::compile(shipped::FIG2_DATA_LOSS).unwrap(), &docs);
    assert!(ruled.is_empty(), "rules must stay silent on the fixed run: {ruled:?}");
    let reports = set.reports();
    let restarts = reports.iter().find(|r| r["rule"] == "validated_restart").expect("shipped");
    assert_eq!(restarts["records"], 1, "the offset-0 restart is validated");
}

/// `attribution on` is pure decoration: the same stream through the
/// session's engine with and without an attributor installed yields
/// identical alert spines, fields, and messages — the block rides along on
/// the opted-in rules, which is every shipped rule that alerts, without
/// ever changing the diagnosis. Three streams: the traced buggy Fluent Bit
/// run, one on which the contention, rate-spike and error-rate rules fire
/// too, and three busy seconds before two near-silent ones — the collapse.
#[test]
fn attribution_never_changes_the_alert_spine() {
    let (traced, _) = traced_fluentbit_stream(FluentBitVersion::V1_4_0, "attr-parity");
    let eventful: Vec<Value> = eventful_stream(7).iter().map(SyscallEvent::to_document).collect();
    let collapse: Vec<Value> = (0..5u64)
        .flat_map(|w| (0..if w < 3 { 120 } else { 10 }).map(move |i| w * SECOND + i))
        .map(|time| json!({"time": time, "class": "data", "syscall": "read", "ret_val": 1}))
        .collect();

    let run = |docs: &[Value], attribute: bool| -> Vec<Alert> {
        let engine = dio_tracer::diagnosis_engine(DiagnoseConfig::default(), Vec::new());
        if attribute {
            engine.set_attributor(Box::new(|alert| {
                json!({
                    "edge": "write->read",
                    "transitions": 1,
                    "subject": alert.subject,
                })
                .into()
            }));
        }
        engine.observe_batch(docs);
        engine.finish();
        engine.alerts()
    };

    let mut attributed_rules = std::collections::BTreeSet::new();
    for docs in [&traced, &eventful, &collapse] {
        let bare = run(docs, false);
        let attributed = run(docs, true);
        assert!(!bare.is_empty(), "the stream must alert");
        assert!(bare.iter().all(|a| a.attribution.is_none()));
        assert_eq!(spine(&attributed), spine(&bare), "attribution must not change the spine");
        for (a, b) in attributed.iter().zip(&bare) {
            assert_eq!(a.fields, b.fields, "fields untouched by attribution");
            assert_eq!(a.message, b.message, "message untouched by attribution");
            assert_eq!(a.subject, b.subject);
            assert_eq!(a.evidence, b.evidence);
            assert!(a.attribution.is_some(), "every shipped alerting rule opts in: {a:?}");
            attributed_rules.extend(a.fields["rule"].as_str().map(str::to_string));
        }
    }
    let expected = [
        "contention_skew",
        "data_loss",
        "error_rate",
        "rate_collapse",
        "rate_spike",
        "stale_offset_resume",
    ];
    assert!(attributed_rules.iter().map(String::as_str).eq(expected), "{attributed_rules:?}");
}

#[test]
fn fig3_rule_matches_detector_on_contended_stream() {
    // Two calm windows (8 clients each, 2 background threads), then a
    // contended one: 6 distinct compaction threads, clients down to 3.
    let docs = contention_docs(&[Some((8, 2, 3)), Some((8, 2, 3)), Some((3, 6, 4))], SECOND);
    let ruled = assert_contention_matches(&docs, SECOND);
    assert_eq!(ruled.len(), 1, "the contended window must fire: {ruled:?}");
    assert_eq!(ruled[0].fields["rule"], "contention_skew");
    assert_eq!(ruled[0].window_start_ns, Some(2 * SECOND));
    // The same windows the other way round — the dip first, its calm
    // baseline after — are flagged by the end-of-stream pass, in place.
    let docs = contention_docs(&[Some((3, 6, 4)), Some((8, 2, 3)), Some((8, 2, 3))], SECOND);
    let ruled = assert_contention_matches(&docs, SECOND);
    assert_eq!(ruled.len(), 1, "the dip is found once its baseline exists: {ruled:?}");
    assert_eq!(ruled[0].window_start_ns, Some(0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary Fig. 3-shaped streams at the width the file spells (silent
    /// windows included): `rules/fig3_contention.dio` alerts on exactly the
    /// windows the fold over the oracle selects.
    #[test]
    fn fig3_rule_matches_detector_on_arbitrary_windows(
        windows in proptest::collection::vec(window_spec(), 1..7),
    ) {
        assert_contention_matches(&contention_docs(&windows, SECOND), SECOND);
    }
}

// ------------------------------------------------ two doors, one answer

/// A stream that makes every shipped rule fire: arbitrary events (all 42
/// kinds, hostile strings, every optional field present or absent, a third
/// of the returns negative) on a clock that crosses a dozen one-second
/// windows at an uneven pace — forty events a second, then a burst of four
/// hundred, then forty again — under thread names that make every other
/// window contended, with inode-reuse sequences (a new generation first read
/// at a stale offset, with and without bytes, and from offset 0) spliced in.
fn eventful_stream(seed: u64) -> Vec<SyscallEvent> {
    let mut d = Draw(seed);
    let mut events = Vec::new();
    let mut clock = 1 + d.next() % SECOND;
    let mut stamp = |event: &mut SyscallEvent, d: &mut Draw, step: u64| {
        clock += 1 + d.next() % step;
        event.time_enter_ns = clock;
        event.time_exit_ns = clock + d.next() % 5_000_000;
    };
    for (count, step) in [(160, 50_000_000), (400, 2_000_000), (200, 50_000_000)] {
        for _ in 0..count {
            let mut event = arbitrary_event(d.next());
            stamp(&mut event, &mut d, step);
            // Odd windows are contended: up to eight background threads
            // busy and the client mostly quiet; even ones the reverse.
            let contended = !(event.time_enter_ns / SECOND).is_multiple_of(2);
            let (clients, background, threads) = if contended { (1, 4, 8) } else { (3, 5, 2) };
            match d.below(6) {
                n if n < clients => event.comm = "db_bench".into(),
                n if n < background => {
                    event.comm = format!("rocksdb:low{}", d.below(threads)).into();
                }
                _ => {}
            }
            events.push(event);
            if d.below(40) == 0 {
                // An inode reused: written, read, recreated, written, and
                // first read again at 0 or at the stale offset.
                let (dev, ino, born) = (d.number(), d.number(), d.next() % 1_000);
                let (stale, ret) = ([0, 26][d.below(2)], [0, 16][d.below(2)]);
                for (kind, generation, offset, ret) in [
                    (SyscallKind::Write, 1, 0, 26),
                    (SyscallKind::Read, 1, 0, 26),
                    (SyscallKind::Pwrite64, 2, 0, 16),
                    (SyscallKind::Pread64, 2, stale, ret),
                ] {
                    let mut event = SyscallEvent::synthetic(kind);
                    stamp(&mut event, &mut d, step);
                    event.comm = d.text().into();
                    event.tid = dio_syscall::Tid(d.below(3) as u32);
                    event.ret = ret;
                    event.offset = Some(offset);
                    event.file_tag = Some(FileTag::new(dev, ino, born + generation));
                    event.file_path = (d.below(2) == 0).then(|| d.text().into());
                    events.push(event);
                }
            }
        }
    }
    events
}

/// Rules beyond the shipped ones, for what those do not touch: keys that
/// are rendered (`by pid`, `by file`), sliding windows, numbers and tags in
/// `distinct`, percentiles, `follows`, string operators on a tag.
const EXTRA_RULES: &str = r#"
rule busy_file on window(1s) by file
  when count >= 3 and distinct(syscall) >= 2 then alert(info, "busy file")
rule busy_pid on window(1s, 500ms) by pid
  when distinct(tid) >= 2 or distinct(file_tag, file_tag starts_with "0|") >= 1
  then alert(info, "busy pid") limit 5
rule slow_tail on window(2s) by proc
  when p95(latency_ns) > 4ms and count(ret_val < 0) >= 1 then alert(warning, "slow tail")
rule flush_after_write
  when follows(write) and syscall in (fsync, fdatasync, pread64) and file_tag > "1"
  then alert(info, "flush after write") limit 3
"#;

/// Everything the taps can be asked afterwards.
#[derive(Debug, PartialEq)]
struct Told {
    fresh: Vec<String>,
    alerts: Vec<String>,
    finish: Vec<String>,
    reports: Vec<Value>,
    stats: EngineStats,
    dfg: Value,
    phases: Vec<Value>,
}

/// Feeds `batches` through a fresh miner and a fresh engine, wired as the
/// tracer wires a diagnosed and profiled session's — the shipped rule sets,
/// then [`EXTRA_RULES`], the miner the attributor — in the consumer's
/// order: the miner first.
fn tell<E: EventView>(batches: &[(Vec<E>, f64)]) -> Told {
    // An attribution quotes flight-recorder spans; other tests of this
    // binary trace while this one runs, so the recorder is stopped for both
    // doors to quote the same ones.
    dio::core::trace::recorder().set_enabled(false);
    let miner = DfgMiner::new(ProfileConfig::default());
    let extra = dio_rules::compile(EXTRA_RULES).expect("rules verify");
    let engine = dio_tracer::diagnosis_engine(DiagnoseConfig::default(), vec![extra]);
    dio_tracer::attribute_with(&engine, &miner);
    let texts = |alerts: Vec<Alert>| -> Vec<String> {
        alerts.iter().map(|a| a.to_document().to_string()).collect()
    };
    let (mut fresh, mut phases) = (Vec::new(), Vec::new());
    for (batch, pressure) in batches {
        miner.observe_batch_with_pressure(batch, *pressure);
        phases.extend(miner.drain_phase_docs());
        fresh.extend(texts(engine.observe_batch_with_pressure(batch, *pressure)));
    }
    miner.finish();
    phases.extend(miner.drain_phase_docs());
    let finish = texts(engine.finish());
    Told {
        fresh,
        alerts: texts(engine.alerts()),
        finish,
        reports: engine.dynamic_reports(),
        stats: engine.stats(),
        dfg: dio::core::to_json(&miner.snapshot()),
        phases,
    }
}

/// The same stream, cut into the same drains at the same pressures, as
/// typed events and as their documents.
fn both_doors(seed: u64) -> (Told, Told) {
    let mut d = Draw(seed ^ 0xD00D);
    let mut stream = eventful_stream(seed).into_iter().peekable();
    let mut typed = Vec::new();
    while stream.peek().is_some() {
        let batch: Vec<SyscallEvent> = stream.by_ref().take(1 + d.below(48)).collect();
        // Every sixth drain, and a few more, arrive past the taps'
        // degradation threshold.
        let degraded = typed.len() % 6 == 3 || d.below(12) == 0;
        typed.push((batch, if degraded { 0.9 } else { 0.0 }));
    }
    let loose: Vec<(Vec<Value>, f64)> = typed
        .iter()
        .map(|(batch, pressure)| (batch.iter().map(SyscallEvent::to_document).collect(), *pressure))
        .collect();
    (tell(&typed), tell(&loose))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Alerts with their evidence and attribution, rule reports, engine
    /// counters, the mined graphs and the phase documents are the same
    /// whichever door the events came through.
    #[test]
    fn typed_events_and_their_documents_tell_the_same_story(seed in any::<u64>()) {
        let (typed, loose) = both_doors(seed);
        prop_assert_eq!(&typed, &loose);
        prop_assert_eq!(typed.stats.observed, typed.stats.evaluated + typed.stats.sampled_out);
        prop_assert!(typed.stats.sampled_out > 0, "some drains were degraded");
        prop_assert!(!typed.alerts.is_empty());
        prop_assert_eq!(typed.dfg["events"].as_u64(), Some(typed.stats.observed));
    }
}

/// The stream of [`eventful_stream`] is not an idle one: on a pinned seed
/// every shipped rule file speaks in all five kinds, evidence is attached,
/// alerts — the rate and error-rate ones too — are attributed, a restart is
/// recorded, a limit suppresses and phases shift — so the equality above
/// compares something.
#[test]
fn the_two_door_stream_exercises_every_detector() {
    let (typed, loose) = both_doors(7);
    assert_eq!(typed, loose);
    let alerts: Vec<Value> =
        typed.alerts.iter().map(|text| serde_json::from_str(text).expect("JSON")).collect();
    let of_kind = |kind: &'static str| alerts.iter().filter(move |a| a["alert_kind"] == kind);
    for kind in [
        "data_loss",
        "stale_offset_resume",
        "contention_skew",
        "error_rate_anomaly",
        "syscall_rate_anomaly",
    ] {
        assert!(of_kind(kind).count() > 0, "no rule raised {kind}");
        let attributed = of_kind(kind).all(|a| a.get("attribution").is_some_and(|a| !a.is_null()));
        assert!(attributed, "a {kind} alert went unattributed");
    }
    assert!(alerts.iter().all(|a| a["detector"] == "rules"));
    assert!(of_kind("rule_match").count() > 0, "extra rules silent");
    assert!(of_kind("data_loss").all(|a| a["evidence"].as_array().is_some_and(|e| e.len() == 1)));
    assert!(!typed.phases.is_empty(), "no phase shift");
    let report = |rule: &str| typed.reports.iter().find(|r| r["rule"] == rule).expect("installed");
    assert!(report("validated_restart")["records"].as_u64().is_some_and(|n| n > 0));
    assert!(typed.reports.iter().any(|r| r["suppressed"].as_u64().is_some_and(|n| n > 0)));
}

// ------------------------------------------------- stored equals live

/// One [`eventful_stream`] bulked into an index in shuffled order and
/// re-diagnosed from it ([`dio_tracer::diagnose_index`]), next to the
/// session's engine fed the same events in `(time, id)` order: the alerts of
/// each, as documents, and the stored replay's counters.
fn stored_and_live(seed: u64) -> (Vec<Alert>, Vec<Alert>, EngineStats, u64) {
    let mut d = Draw(seed ^ 0x5707_0ED0);
    let mut events = eventful_stream(seed);
    for i in (1..events.len()).rev() {
        events.swap(i, d.below(i + 1));
    }
    let index = Index::new("dio-stored");
    index.bulk(events.iter().map(SyscallEvent::to_document).collect());
    let extra = || vec![dio_rules::compile(EXTRA_RULES).expect("rules verify")];
    let stored = dio_tracer::diagnose_index(&index, DiagnoseConfig::default(), extra());

    // Ids were handed out in the shuffled order, so a stable sort by time is
    // the `(time, id)` order.
    events.sort_by_key(|event| event.time_enter_ns);
    let live = dio_tracer::diagnosis_engine(DiagnoseConfig::default(), extra());
    live.observe_batch(&events);
    live.finish();
    (stored.alerts(), live.alerts(), stored.stats(), events.len() as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A stored session is a rule input: re-diagnosed from its index it
    /// raises the live engine's alerts — spine, evidence and all — having
    /// observed every stored event, none of them late to any window.
    #[test]
    fn a_stored_session_is_diagnosed_as_the_live_one(seed in any::<u64>()) {
        let (stored, live, stats, events) = stored_and_live(seed);
        prop_assert_eq!(spine(&stored), spine(&live));
        let documents = |alerts: &[Alert]| -> Vec<Value> {
            alerts.iter().map(Alert::to_document).collect()
        };
        prop_assert_eq!(documents(&stored), documents(&live));
        prop_assert!(!stored.is_empty());
        prop_assert_eq!((stats.observed, stats.evaluated, stats.late_events), (events, events, 0));
    }
}
