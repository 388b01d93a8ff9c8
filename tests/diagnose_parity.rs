//! Parity between the streaming detectors in `dio-diagnose` and the
//! offline algorithms in `dio-correlate`: fed the same event set (with
//! the streaming window sized so nothing is cut off), both must reach
//! the same verdicts — the live engine is an *incremental port*, not a
//! different analysis.
//!
//! The second half holds the shipped `.dio` rule files to the same
//! standard against the *hand-coded* detectors they re-express: over
//! the traced Fig. 2 scenario and Fig. 3-shaped streams, compiled rules
//! must produce the identical alert sequence — same kinds, severities,
//! times, and window bounds, in the same order.
//!
//! The last part holds the two doors of the taps to one answer: the engine,
//! the rule sets and the DFG miner fed a stream as typed events and as the
//! events' documents must tell the same story to the byte.

use proptest::prelude::*;

mod common;
use common::{arbitrary_event, Draw};

use dio::core::{Dio, DiskProfile, Kernel, Query, SearchRequest, SortOrder, TracerConfig};
use dio_backend::Index;
use dio_correlate::{detect_contention, detect_data_loss, ContentionConfig};
use dio_diagnose::{
    Alert, AlertKind, ContentionDetector, DataLossDetector, DiagnoseConfig, DiagnosisEngine,
    DynDetector, EngineStats, Severity,
};
use dio_fluentbit::{run_issue_1875, FluentBitVersion};
use dio_profile::{DfgMiner, ProfileConfig};
use dio_syscall::{EventView, FileTag, SyscallEvent, SyscallKind};
use serde_json::{json, Value};

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

fn data_loss_alerts(alerts: &[Alert]) -> Vec<&Alert> {
    alerts.iter().filter(|a| a.kind == AlertKind::DataLoss).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Streaming [`DataLossDetector`] == offline [`detect_data_loss`]:
    /// same incident count, and per incident the same stale offset,
    /// bytes at risk, and reader.
    #[test]
    fn streaming_data_loss_matches_offline(
        files in proptest::collection::vec(
            proptest::collection::vec(gen_spec(), 1..4), 1..3)
    ) {
        let docs = data_loss_docs(&files);

        let index = Index::new("dio-parity");
        index.bulk(docs.clone());
        let offline = detect_data_loss(&index);

        let mut det = DataLossDetector::default();
        let mut alerts = Vec::new();
        for doc in &docs {
            det.observe(doc, &mut alerts);
        }
        let streamed = data_loss_alerts(&alerts);

        prop_assert_eq!(streamed.len(), offline.len(),
            "incident counts diverge: offline {:?} vs streamed {:?}", offline, alerts);
        for (alert, incident) in streamed.iter().zip(&offline) {
            prop_assert_eq!(alert.fields["stale_offset"].as_u64(), Some(incident.stale_offset));
            prop_assert_eq!(alert.fields["bytes_at_risk"].as_u64(), Some(incident.bytes_at_risk));
            prop_assert_eq!(alert.fields["reader"].as_str().unwrap_or(""), incident.reader.as_str());
            prop_assert_eq!(alert.fields["tag"].as_str().map(str::to_string),
                Some(incident.tag.to_string()));
        }
    }
}

// -------------------------------------------------------- contention

/// One Fig. 4 window: client ops plus background compaction threads.
/// `None` = a silent window (exercises the gap-fill path both
/// implementations must apply identically).
fn window_spec() -> impl Strategy<Value = Option<(u8, u8, u8)>> {
    prop_oneof![Just(None), (0..12u8, 0..8u8, 1..5u8).prop_map(Some)]
}

const WINDOW_NS: u64 = 1_000;

fn contention_docs(windows: &[Option<(u8, u8, u8)>]) -> Vec<Value> {
    let mut docs = Vec::new();
    for (w, spec) in windows.iter().enumerate() {
        let base = w as u64 * WINDOW_NS;
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

fn float_eq(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || a == b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Streaming [`ContentionDetector::report`] == offline
    /// [`detect_contention`]: identical window activity (including
    /// gap-filled silent windows), means, and overall verdict.
    #[test]
    fn streaming_contention_matches_offline(
        windows in proptest::collection::vec(window_spec(), 1..7),
        threshold in 0..7usize,
    ) {
        let docs = contention_docs(&windows);

        let index = Index::new("dio-parity");
        index.bulk(docs.clone());
        let config = ContentionConfig {
            window_ns: WINDOW_NS,
            background_threshold: threshold,
            ..Default::default()
        };
        let offline = detect_contention(&index, &config);

        let mut det = ContentionDetector::new(
            WINDOW_NS,
            config.client_prefix.clone(),
            config.background_prefix.clone(),
            threshold,
        );
        for doc in &docs {
            det.observe(doc);
        }
        let mut alerts = Vec::new();
        det.evaluate_all(&mut alerts);
        let streamed = det.report();

        prop_assert_eq!(&streamed.windows, &offline.windows);
        prop_assert!(float_eq(streamed.client_ops_contended, offline.client_ops_contended),
            "contended means diverge: {} vs {}",
            streamed.client_ops_contended, offline.client_ops_contended);
        prop_assert!(float_eq(streamed.client_ops_calm, offline.client_ops_calm),
            "calm means diverge: {} vs {}",
            streamed.client_ops_calm, offline.client_ops_calm);
        prop_assert_eq!(streamed.contention_detected(), offline.contention_detected());
    }
}

// ------------------------------------------------- engine end-to-end

/// The assembled engine over the exact Fig. 2a fixture reaches the same
/// verdict as the offline pass over the same stored trace.
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

    let engine = DiagnosisEngine::new(DiagnoseConfig::default());
    engine.observe_batch(&docs);
    engine.finish();
    let live = engine.alerts();
    let live_loss = data_loss_alerts(&live);
    assert_eq!(live_loss.len(), 1, "engine must flag the Fig. 2a bug: {live:?}");
    assert_eq!(live_loss[0].fields["stale_offset"].as_u64(), Some(offline[0].stale_offset));
    assert_eq!(live_loss[0].fields["bytes_at_risk"].as_u64(), Some(offline[0].bytes_at_risk));
}

// ------------------------------------------- shipped rules vs detectors

/// The comparable spine of an alert: what must be *identical* between a
/// hand-coded detector and the rule re-expressing it. Messages, subjects,
/// and evidence are each implementation's own voice; kind, severity,
/// time, and window bounds are the diagnosis.
type AlertSpine = (AlertKind, Severity, u64, Option<u64>, Option<u64>);

fn spine(alerts: &[Alert]) -> Vec<AlertSpine> {
    alerts
        .iter()
        .map(|a| (a.kind, a.severity, a.time_ns, a.window_start_ns, a.window_end_ns))
        .collect()
}

/// Runs a compiled rule file over a finished document stream.
fn run_rules(source: &str, docs: &[Value]) -> Vec<Alert> {
    let mut set = dio_rules::compile(source).expect("shipped rules verify");
    let mut out = Vec::new();
    for doc in docs {
        set.observe(doc, &mut out);
        set.evaluate_ready(&mut out);
    }
    set.evaluate_all(&mut out);
    out
}

/// Traces one Fluent Bit issue-1875 run and returns its event documents
/// in stream (time) order.
fn traced_fluentbit_stream(version: FluentBitVersion, session: &str) -> Vec<Value> {
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
    hits.into_iter().map(|h| h.source).collect()
}

/// `rules/fig2_data_loss.dio` over the traced buggy run == the
/// hand-coded [`DataLossDetector`]: one critical data-loss alert,
/// identical spine, naming the firing rule.
#[test]
fn fig2_rules_match_detector_on_traced_buggy_stream() {
    let docs = traced_fluentbit_stream(FluentBitVersion::V1_4_0, "rules-fig2a");

    let mut det = DataLossDetector::default();
    let mut hand = Vec::new();
    for doc in &docs {
        det.observe(doc, &mut hand);
    }
    let ruled = run_rules(dio_rules::shipped::FIG2_DATA_LOSS, &docs);

    assert_eq!(spine(&ruled), spine(&hand), "rule alerts must mirror the detector's");
    assert_eq!(hand.len(), 1, "the buggy run raises exactly the Fig. 2a alert: {hand:?}");
    assert_eq!(ruled[0].kind, AlertKind::DataLoss);
    assert_eq!(ruled[0].severity, Severity::Critical);
    assert_eq!(ruled[0].detector, "rules");
    assert_eq!(ruled[0].fields["rule"], "data_loss");
}

/// Over the fixed version's trace both stay silent, and the rule file's
/// `validated_restart` record observes the offset-0 restart the detector
/// counts.
#[test]
fn fig2_rules_match_detector_on_traced_fixed_stream() {
    let docs = traced_fluentbit_stream(FluentBitVersion::V2_0_5, "rules-fig2b");

    let mut det = DataLossDetector::default();
    let mut hand = Vec::new();
    for doc in &docs {
        det.observe(doc, &mut hand);
    }
    assert!(hand.is_empty(), "the fix must not alert: {hand:?}");

    let mut set = dio_rules::compile(dio_rules::shipped::FIG2_DATA_LOSS).unwrap();
    let mut ruled = Vec::new();
    for doc in &docs {
        set.observe(doc, &mut ruled);
    }
    set.evaluate_all(&mut ruled);
    assert!(ruled.is_empty(), "rules must stay silent on the fixed run: {ruled:?}");

    let validated = det.validated_restarts();
    let restarts = set
        .reports()
        .into_iter()
        .find(|r| r["rule"] == "validated_restart")
        .expect("shipped rule present")["records"]
        .as_u64()
        .unwrap_or(0);
    assert_eq!(restarts, validated, "validated restarts counted identically");
    assert_eq!(validated, 1);
}

/// `attribution on` is pure decoration: the same traced stream through
/// the engine with and without an attributor installed yields identical
/// alert spines, fields, and messages — the block rides along on the
/// opted-in rules without ever changing the diagnosis.
#[test]
fn attribution_never_changes_the_alert_spine() {
    let docs = traced_fluentbit_stream(FluentBitVersion::V1_4_0, "attr-parity");

    let run = |attribute: bool| -> Vec<Alert> {
        let engine = DiagnosisEngine::new(DiagnoseConfig::default());
        let set = dio_rules::compile(dio_rules::shipped::FIG2_DATA_LOSS).unwrap();
        engine.install_detector(Box::new(set));
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
        engine.observe_batch(&docs);
        engine.finish();
        engine.alerts()
    };

    let bare = run(false);
    let attributed = run(true);
    assert!(!bare.is_empty(), "the buggy stream must alert");
    assert!(bare.iter().all(|a| a.attribution.is_none()));
    assert_eq!(spine(&attributed), spine(&bare), "attribution must not change the spine");
    for (a, b) in attributed.iter().zip(&bare) {
        assert_eq!(a.fields, b.fields, "fields untouched by attribution");
        assert_eq!(a.message, b.message, "message untouched by attribution");
        assert_eq!(a.subject, b.subject);
        assert_eq!(a.evidence.len(), b.evidence.len());
    }
    // The shipped data_loss rule opts in, so its alerts carry the block.
    assert!(
        attributed
            .iter()
            .filter(|a| a.fields["rule"] == "data_loss")
            .all(|a| a.attribution.is_some()),
        "opted-in rule alerts must be attributed: {attributed:?}"
    );
}

/// Fig. 3-shaped stream at the engine's real scale (1 s windows,
/// `db_bench*` clients vs `rocksdb:low*` compactions, threshold 5):
/// calm windows build the baseline, then a contended window with
/// depressed client throughput fires — identically on both sides.
fn fig3_docs(windows: &[Option<(u8, u8, u8)>]) -> Vec<Value> {
    const SECOND: u64 = 1_000_000_000;
    let mut docs = Vec::new();
    for (w, spec) in windows.iter().enumerate() {
        let base = w as u64 * SECOND;
        let Some((clients, bg_threads, bg_ops)) = spec else { continue };
        for i in 0..*clients as u64 {
            docs.push(json!({
                "session": "rules-fig3", "syscall": "pread64", "class": "read",
                "pid": 1, "tid": 1, "proc_name": "db_bench_c", "time": base + i,
                "ret_val": 4096,
            }));
        }
        for t in 0..*bg_threads {
            for i in 0..*bg_ops as u64 {
                docs.push(json!({
                    "session": "rules-fig3", "syscall": "pwrite64", "class": "write",
                    "pid": 1, "tid": 2 + t, "proc_name": format!("rocksdb:low{t}"),
                    "time": base + 100 + i, "ret_val": 4096,
                }));
            }
        }
    }
    docs
}

fn fig3_hand_alerts(docs: &[Value]) -> Vec<Alert> {
    let defaults = DiagnoseConfig::default();
    let mut det = ContentionDetector::new(
        defaults.window_ns,
        defaults.client_prefix.clone(),
        defaults.background_prefix.clone(),
        defaults.background_threshold,
    );
    for doc in docs {
        det.observe(doc);
    }
    let mut out = Vec::new();
    det.evaluate_all(&mut out);
    out
}

#[test]
fn fig3_rule_matches_detector_on_contended_stream() {
    // Two calm windows (8 clients each, 2 background threads), then a
    // contended one: 6 distinct compaction threads, clients down to 3.
    let docs = fig3_docs(&[Some((8, 2, 3)), Some((8, 2, 3)), Some((3, 6, 4))]);

    let hand = fig3_hand_alerts(&docs);
    let ruled = run_rules(dio_rules::shipped::FIG3_CONTENTION, &docs);

    assert_eq!(spine(&ruled), spine(&hand), "rule alerts must mirror the detector's");
    assert_eq!(hand.len(), 1, "the contended window must fire: {hand:?}");
    assert_eq!(ruled[0].kind, AlertKind::ContentionSkew);
    assert_eq!(ruled[0].severity, Severity::Warning);
    assert_eq!(ruled[0].fields["rule"], "contention_skew");
    assert_eq!(ruled[0].window_start_ns, Some(2_000_000_000));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary Fig. 3-shaped streams (silent windows included, so the
    /// gap-fill path is exercised): `rules/fig3_contention.dio` and the
    /// hand-coded [`ContentionDetector`] emit identical alert sequences.
    #[test]
    fn fig3_rule_matches_detector_on_arbitrary_windows(
        windows in proptest::collection::vec(window_spec(), 1..7),
    ) {
        let docs = fig3_docs(&windows);
        let hand = fig3_hand_alerts(&docs);
        let ruled = run_rules(dio_rules::shipped::FIG3_CONTENTION, &docs);
        prop_assert_eq!(spine(&ruled), spine(&hand));
    }
}

// ------------------------------------------------ two doors, one answer

const SECOND: u64 = 1_000_000_000;

/// A stream that makes every detector and shipped rule fire: arbitrary
/// events (all 42 kinds, hostile strings, every optional field present or
/// absent, a third of the returns negative) on a clock that crosses a dozen
/// one-second windows at an uneven pace — forty events a second, then a
/// burst of four hundred, then forty again — under thread names that make
/// every other window contended, with inode-reuse sequences (a new generation
/// first read at a stale offset, with and without bytes, and from offset 0)
/// spliced in.
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
    validated_restarts: u64,
    dfg: Value,
    phases: Vec<Value>,
}

/// Feeds `batches` through a fresh miner and a fresh engine with the four
/// shipped rule sets (and [`EXTRA_RULES`]) installed and the miner as its
/// attributor, in the consumer's order: the miner first.
fn tell<E: EventView>(rate_key: &str, batches: &[(Vec<E>, f64)]) -> Told {
    let miner = DfgMiner::new(ProfileConfig::default());
    let engine = DiagnosisEngine::new(DiagnoseConfig::default().rate_key(rate_key));
    let sources = dio_rules::shipped::ALL.iter().map(|(_, src)| *src).chain([EXTRA_RULES]);
    for source in sources {
        engine.install_detector(Box::new(dio_rules::compile(source).expect("rules verify")));
    }
    let attributor = std::sync::Arc::clone(&miner);
    engine.set_attributor(Box::new(move |alert| {
        let (start, end) = (alert.window_start_ns, alert.window_end_ns);
        attributor.attribute(start, end, alert.time_ns, &alert.subject, &[])
    }));
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
        validated_restarts: engine.validated_restarts(),
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
    let rate_key = ["class", "pid", "file_tag", "proc"][d.below(4)];
    (tell(rate_key, &typed), tell(rate_key, &loose))
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
/// every built-in detector and every shipped rule file speaks, evidence is
/// attached, alerts are attributed and phases shift — so the equality above
/// compares something.
#[test]
fn the_two_door_stream_exercises_every_detector() {
    let (typed, loose) = both_doors(7);
    assert_eq!(typed, loose);
    let alerts: Vec<Value> =
        typed.alerts.iter().map(|text| serde_json::from_str(text).expect("JSON")).collect();
    let count = |detector: &str, kind: &str| {
        alerts.iter().filter(|a| a["detector"] == detector && a["alert_kind"] == kind).count()
    };
    for kind in ["data_loss", "stale_offset_resume", "error_rate_anomaly", "syscall_rate_anomaly"] {
        assert!(count("rules", kind) > 0, "no rule raised {kind}");
    }
    for (detector, kind) in [
        ("data_loss", "data_loss"),
        ("data_loss", "stale_offset_resume"),
        ("error_rate", "error_rate_anomaly"),
        ("rate", "syscall_rate_anomaly"),
        ("contention", "contention_skew"),
    ] {
        assert!(count(detector, kind) > 0, "{detector} did not raise {kind}");
    }
    assert!(count("rules", "contention_skew") > 0, "fig3 rule silent");
    assert!(count("rules", "rule_match") > 0, "extra rules silent");
    assert!(typed.validated_restarts > 0);
    assert!(alerts.iter().any(|a| a["evidence"].as_array().is_some_and(|e| e.len() == 2)));
    assert!(alerts.iter().any(|a| a.get("attribution").is_some_and(|a| !a.is_null())));
    assert!(!typed.phases.is_empty(), "no phase shift");
    assert!(typed.reports.iter().any(|r| r["suppressed"].as_u64().is_some_and(|n| n > 0)));
}
