//! Flight-recorder invariants as integration tests.
//!
//! Two properties hold the telemetry layer together:
//!
//! 1. **Determinism of the observed stream**: the deterministic subset of
//!    the event journal (stages, phases, experiments, edges, cycles,
//!    budget — everything [`TelemetryRecord::deterministic_key`] keeps)
//!    is a pure function of `(target, config)`. Thread counts change
//!    timestamps and interleavings, never the sequence.
//! 2. **Non-perturbation**: attaching a recorder changes nothing about
//!    the campaign — reports are Debug-identical with it on or off — and
//!    what it journals is whole: schema-valid JSONL, a binary journal that
//!    reads back every record, closed spans, a loadable Chrome trace, and
//!    a digest that counts what the report counts.
//!
//! The on-disk journal also inherits the snapshot threat model: a torn
//! tail and a flipped byte must be *typed* rejections, not garbage reads.

use std::sync::Arc;

use csnake::core::{CsnakeError, DetectConfig, Session, ThreePhase};
use csnake_telemetry::{
    chrome_trace_json, json, read_journal, unbalanced_spans, FlightRecorder, MetricsDigest,
    TelemetryRecord,
};

fn fast_config(parallel: bool) -> DetectConfig {
    let mut cfg = DetectConfig::default();
    cfg.driver.reps = 3;
    cfg.driver.delay_values_ms = vec![800];
    cfg.driver.retry.backoff_base_ms = 1;
    cfg.driver.parallel = parallel;
    cfg
}

/// Runs one recorded campaign; returns the report's Debug form and the
/// recorded stream.
fn recorded_run(target_name: &str, parallel: bool) -> (String, Vec<TelemetryRecord>) {
    let target = csnake_gen::by_name(target_name).expect("known target");
    let recorder = Arc::new(
        FlightRecorder::builder()
            .build()
            .expect("in-memory recorder"),
    );
    let mut session = Session::builder(target.as_ref())
        .config(fast_config(parallel))
        .observer(recorder.clone())
        .build()
        .expect("target is drivable");
    let report = session
        .run_to_report(&ThreePhase::default())
        .expect("campaign completes");
    (format!("{report:?}"), recorder.records())
}

/// The timestamp-free deterministic projection of a recorded stream.
fn deterministic_keys(records: &[TelemetryRecord]) -> Vec<String> {
    records
        .iter()
        .filter_map(|r| r.deterministic_key())
        .collect()
}

#[test]
fn event_stream_is_identical_across_thread_counts() {
    for name in ["toy", "gen:5"] {
        let (report_seq, sequential) = recorded_run(name, false);
        let (report_par, parallel) = recorded_run(name, true);
        assert_eq!(
            report_seq, report_par,
            "{name}: thread count changed the report"
        );
        assert_eq!(
            deterministic_keys(&sequential),
            deterministic_keys(&parallel),
            "{name}: thread count changed the deterministic event sequence"
        );
        assert!(
            !deterministic_keys(&sequential).is_empty(),
            "{name}: campaign produced no deterministic events"
        );
    }
}

#[test]
fn recorder_never_perturbs_the_report() {
    for name in ["toy", "gen:5"] {
        let target = csnake_gen::by_name(name).expect("known target");
        let mut bare = Session::builder(target.as_ref())
            .config(fast_config(true))
            .build()
            .expect("target is drivable");
        let report = bare
            .run_to_report(&ThreePhase::default())
            .expect("campaign completes");
        let baseline = format!("{report:?}");
        let (recorded, records) = recorded_run(name, true);
        assert_eq!(baseline, recorded, "{name}: recorder perturbed the report");
        assert!(!records.is_empty(), "{name}: recorder captured nothing");

        // The same recorder writing both journals to disk.
        let path = |ext: &str| {
            std::env::temp_dir().join(format!(
                "csnake-journal-{}-{}.{ext}",
                name.replace(':', "-"),
                std::process::id()
            ))
        };
        let (jsonl, binary) = (path("jsonl"), path("csnj"));
        let recorder = Arc::new(
            FlightRecorder::builder()
                .jsonl(jsonl.clone())
                .binary(binary.clone())
                .build()
                .expect("journals open"),
        );
        let mut journaled = Session::builder(target.as_ref())
            .config(fast_config(true))
            .observer(recorder.clone())
            .build()
            .expect("target is drivable");
        let journaled_report = journaled
            .run_to_report(&ThreePhase::default())
            .expect("campaign completes");
        assert_eq!(
            baseline,
            format!("{journaled_report:?}"),
            "{name}: a journaling recorder perturbed the report"
        );
        recorder.finish().expect("journals flush");
        let records = recorder.records();
        let open = unbalanced_spans(&records);
        assert!(open.is_empty(), "{name}: unbalanced spans: {open:?}");
        let text = std::fs::read_to_string(&jsonl).expect("JSONL journal exists");
        assert_eq!(text.lines().count(), records.len(), "{name}: JSONL lines");
        for (i, line) in text.lines().enumerate() {
            json::validate_record_line(line)
                .unwrap_or_else(|e| panic!("{name}: JSONL line {i} invalid: {e}"));
        }
        assert_eq!(
            read_journal(&binary).expect("binary journal reads").len(),
            records.len(),
            "{name}: binary journal round-trip"
        );
        let trace = json::parse(&chrome_trace_json(&records)).expect("Chrome trace parses");
        assert!(
            trace
                .get("traceEvents")
                .and_then(|v| v.as_arr())
                .is_some_and(|events| !events.is_empty()),
            "{name}: Chrome trace has no traceEvents"
        );
        let digest = MetricsDigest::from_records(&records);
        assert_eq!(
            (digest.experiments, digest.edges),
            (report.experiments_run, report.edge_count),
            "{name}: digest disagrees with the report"
        );
        std::fs::remove_file(&jsonl).ok();
        std::fs::remove_file(&binary).ok();
    }
}

/// The workload engine's cascade signal survives the whole path — driver
/// drain, observer, recorder, digest: on an open-loop target the injected
/// drain-loop delay backs the queue up, so the digest of a real campaign
/// must fold at least one windowed-p99 inflection out of the streamed
/// workload summaries.
#[test]
fn workload_campaign_inflects_the_digest_p99() {
    let (_, records) = recorded_run("workload:poisson", true);
    let digest = MetricsDigest::from_records(&records);
    assert!(
        digest.workload_summaries > 0,
        "campaign must stream workload summaries into telemetry"
    );
    assert!(
        digest.workload_inflections > 0 && digest.workload_first_inflection_ms.is_some(),
        "injected drain-loop delay must inflect the windowed p99: {digest:?}"
    );
}

#[test]
fn journal_rejects_truncation_and_garbling_typed() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("csnake-journal-threat-{}.csnj", std::process::id()));
    let recorder = Arc::new(
        FlightRecorder::builder()
            .binary(path.clone())
            .build()
            .expect("journal opens"),
    );
    let target = csnake_gen::by_name("toy").expect("toy exists");
    let mut session = Session::builder(target.as_ref())
        .config(fast_config(true))
        .observer(recorder.clone())
        .build()
        .expect("toy is drivable");
    session
        .run_to_report(&ThreePhase::default())
        .expect("campaign completes");
    recorder.finish().expect("journal flushes");

    let bytes = std::fs::read(&path).expect("journal exists");
    let n = recorder.records().len();
    assert_eq!(
        read_journal(&path).expect("intact journal reads").len(),
        n,
        "round-trip lost records"
    );

    // A torn tail (mid-frame) is a typed SnapshotTorn, and the prefix
    // before the tear is NOT silently returned as a complete journal.
    std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("truncate");
    match read_journal(&path) {
        Err(CsnakeError::SnapshotTorn { .. }) => {}
        other => panic!("truncated journal must be SnapshotTorn, got {other:?}"),
    }

    // A flipped payload byte is a typed SnapshotCorrupt via the checksum.
    let mut garbled = bytes.clone();
    let last = garbled.len() - 1;
    garbled[last] ^= 0x40;
    std::fs::write(&path, &garbled).expect("garble");
    match read_journal(&path) {
        Err(CsnakeError::SnapshotCorrupt(_)) => {}
        other => panic!("garbled journal must be SnapshotCorrupt, got {other:?}"),
    }

    std::fs::remove_file(&path).ok();
}
