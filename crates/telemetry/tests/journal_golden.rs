//! Golden pins of what the flight recorder writes.
//!
//! One hand-built [`TelemetryRecord`] per event kind, pinned as
//! `(name, hash of the binary frame's payload, hash of the JSONL line)`,
//! plus the hash of the deterministic JSONL stream of a recorded `toy`
//! campaign with the timing envelope normalised. A change to how events are
//! represented in memory may edit how the records below are *built*; it may
//! not move a pin unless the bytes on disk were meant to move.
//!
//! Two more pins hold what the campaign's counters read off one record
//! stream: the metrics digest's JSON and the live fleet view a progress
//! collector renders. A change to how events are counted may not move them.

use std::sync::Arc;
use std::time::Duration;

use csnake_core::frame::HEADER_LEN;
use csnake_core::{
    fnv1a_bytes, CampaignEvent, CampaignObserver, ClusterStats, DetectConfig, EdgeKind,
    ProgressCollector, Session, Stage, ThreePhase,
};
use csnake_inject::{FaultId, TestId};
use csnake_telemetry::{render_fleet, seal_record, FlightRecorder, MetricsDigest, TelemetryRecord};

/// One event of every kind, in persist-tag order, built by hand: a pin
/// whose input the code under test supplies pins nothing.
fn kinds() -> Vec<CampaignEvent> {
    let (fault, test) = (FaultId(7), TestId(2));
    let forwarded = |event| CampaignEvent::Forwarded {
        worker: 1,
        event: Box::new(event),
    };
    vec![
        CampaignEvent::StageStarted(Stage::Profiled),
        CampaignEvent::StageFinished(Stage::Stitched),
        CampaignEvent::PhaseStarted {
            phase: 1,
            planned: 12,
        },
        CampaignEvent::PhaseFinished {
            phase: 2,
            executed: 11,
        },
        CampaignEvent::ExperimentCompleted {
            fault,
            test,
            interference: 3,
            edges: 5,
        },
        CampaignEvent::EdgeEmitted {
            cause: fault,
            effect: FaultId(9),
            kind: EdgeKind::EI,
            test,
            phase: 1,
        },
        CampaignEvent::CycleFound {
            edges: 4,
            score: 0.25,
        },
        CampaignEvent::BudgetSpent {
            spent: 17,
            total: 64,
        },
        CampaignEvent::TraceCache {
            hits: 40,
            misses: 9,
        },
        CampaignEvent::Clustering(ClusterStats {
            vectors: 120,
            groups: 80,
            candidate_edges: 300,
            hot_dims: 2,
            hot_pairs: 14,
            merges: 21,
            matrix_bytes: 115_200,
            sparse_graph_bytes: 15_680,
        }),
        CampaignEvent::BatchRetried {
            batch: 6,
            failed_jobs: 2,
            attempt: 1,
            backoff_ms: 10,
        },
        CampaignEvent::BatchFailed {
            batch: 6,
            fault,
            test,
            phase: 3,
            reason: "chaos: \"boom\"\n".into(),
        },
        CampaignEvent::CheckpointWritten {
            path: "/tmp/c.csnake".into(),
            phase: 2,
            executed_in_phase: 8,
        },
        CampaignEvent::Degraded { missing: 3 },
        CampaignEvent::WorkerConnected { worker: 1 },
        CampaignEvent::WorkerLost {
            worker: 1,
            reason: "lease expired".into(),
        },
        CampaignEvent::ShardAssigned {
            shard: 14,
            worker: 0,
            jobs: 2,
        },
        CampaignEvent::ShardReassigned {
            shard: 14,
            worker: 1,
            attempt: 1,
        },
        forwarded(CampaignEvent::ExperimentCompleted {
            fault,
            test,
            interference: 3,
            edges: 5,
        }),
        forwarded(CampaignEvent::BatchRetried {
            batch: 6,
            failed_jobs: 2,
            attempt: 1,
            backoff_ms: 10,
        }),
        forwarded(CampaignEvent::BatchFailed {
            batch: 6,
            fault,
            test,
            phase: 3,
            reason: "job panicked".into(),
        }),
        forwarded(CampaignEvent::TraceCache {
            hits: 40,
            misses: 9,
        }),
        CampaignEvent::JournalFlushed {
            path: "/tmp/j.jsonl".into(),
            records: 99,
        },
        CampaignEvent::WorkloadSummary {
            test: TestId(1),
            seed: 42,
            offered: 6_000,
            completed: 5_900,
            dropped: 100,
            p50_us: 300,
            p99_us: 41_000,
            inflection_ms: Some(4_250),
        },
    ]
}

/// `(event name, hash of the frame payload, hash of the JSONL line)`.
#[rustfmt::skip]
const PINS: &[(&str, u64, u64)] = &[
    ("stage_started", 0xc15f486bea97a224, 0xd56755eafb7b8230),
    ("stage_finished", 0x945f45a83462aa26, 0x30235a692581edd9),
    ("phase_started", 0xbfa375ca6adff8e8, 0x96c7d2b1e3110f49),
    ("phase_finished", 0xb0dde2631bc8e031, 0xdf67327f00c09f88),
    ("experiment_completed", 0x76d397af256e0057, 0x91ba8e942c26a8af),
    ("edge_emitted", 0xac60cd0b837aeea5, 0x4ea9d726162588b9),
    ("cycle_found", 0x859a68ac5ad0ebbb, 0x1d0f72be5c104535),
    ("budget_spent", 0x27b64d74941b194d, 0x37c5815573d8b2d3),
    ("trace_cache", 0x697ea959264b15b1, 0x63a5212338aafe80),
    ("clustering", 0x0107391f01fcd7e1, 0x7ded4a2f7ad54cbb),
    ("batch_retried", 0xe40521d6c6be07b1, 0x56f4e535d5477605),
    ("batch_failed", 0x841a298e13904c9d, 0x29f41f413f303a9b),
    ("checkpoint_written", 0x4dda45081171d578, 0x34c06f1366f73ff1),
    ("degraded", 0x828d543833c8cfb9, 0xdd3f663f3a182672),
    ("worker_connected", 0x43ce397ffa737f23, 0x8538ffae5a8de1ac),
    ("worker_lost", 0x06c845f281124433, 0xfef9f6d8707ffd4e),
    ("shard_assigned", 0x1ba5219b83db2376, 0x74fa3ee6e97dcb6d),
    ("shard_reassigned", 0x8176347f386dbc9e, 0xc3ef1e0b31d7d609),
    ("forwarded_experiment", 0x0b686e5767b8a334, 0xd07f4b6728d76239),
    ("forwarded_retry", 0xd47ea008609d89a7, 0x0077965c05457dc5),
    ("forwarded_failure", 0xb26c9998c2899076, 0xa332c782f46a5180),
    ("forwarded_cache", 0xd8c59d0b7ad21647, 0x769fc2f66244ee66),
    ("journal_flushed", 0x34aac064babb1dca, 0x36ec375253d1d086),
    ("workload_summary", 0xf5786cc3dfc0d7c9, 0x4ade042906e9f570),
];

/// Hash of the `toy` campaign's normalised deterministic JSONL stream.
const CAMPAIGN_PIN: u64 = 0x945098a4d4cc6891;

#[test]
fn every_kind_keeps_its_bytes() {
    let got: Vec<(&str, u64, u64)> = kinds()
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let closes_span = matches!(
                kind,
                CampaignEvent::StageFinished(_) | CampaignEvent::PhaseFinished { .. }
            );
            let record = TelemetryRecord {
                seq: i as u64,
                micros: 1_000 + 10 * i as u64,
                thread: "main".into(),
                dur_micros: closes_span.then_some(390),
                kind,
            };
            let line = csnake_telemetry::json::validate_record_line(&record.to_json_line())
                .expect("every kind's line passes the journal schema");
            let event = line
                .get("event")
                .and_then(csnake_telemetry::json::Value::as_str);
            assert_eq!(event, Some(record.kind.name()));
            (
                record.kind.name(),
                fnv1a_bytes(&seal_record(&record)[HEADER_LEN..]),
                fnv1a_bytes(record.to_json_line().as_bytes()),
            )
        })
        .collect();
    assert_eq!(got.len(), 24, "one record per event kind");
    let table: String = got
        .iter()
        .map(|(n, bin, json)| format!("    ({n:?}, {bin:#018x}, {json:#018x}),\n"))
        .collect();
    assert_eq!(got, PINS, "journal bytes moved; computed pins:\n{table}");
}

#[test]
fn toy_campaign_keeps_its_deterministic_stream() {
    let target = csnake_targets::ToySystem::new();
    let mut cfg = DetectConfig::default();
    cfg.driver.reps = 3;
    cfg.driver.delay_values_ms = vec![800];
    cfg.driver.parallel = false;
    let recorder = Arc::new(FlightRecorder::new());
    let mut session = Session::builder(&target)
        .config(cfg)
        .observer(recorder.clone())
        .build()
        .expect("the toy target is drivable");
    session
        .run_to_report(&ThreePhase::default())
        .expect("campaign completes");

    let mut text = String::new();
    let mut lines = 0usize;
    for mut record in recorder.records() {
        if !record.kind.is_deterministic() {
            continue;
        }
        record.seq = 0;
        record.micros = 0;
        record.thread.clear();
        record.dur_micros = None;
        text.push_str(&record.to_json_line());
        text.push('\n');
        lines += 1;
    }
    assert!(
        lines > 20,
        "the campaign recorded only {lines} deterministic events"
    );
    let got = fnv1a_bytes(text.as_bytes());
    assert_eq!(
        got, CAMPAIGN_PIN,
        "deterministic JSONL stream moved ({lines} lines); computed pin: {got:#018x}"
    );
}

/// Every kind of [`kinds`], then what makes each counter fold more than
/// once: worker 0's copies of the four forwardable kinds (worker 1's are in
/// `kinds`), a second clustering run and a second workload summary (one
/// inflected, one flat), later budget and cache values that must win, and
/// worker 1 lost. Built by hand, with a fixed clock and span durations.
fn counted_stream() -> Vec<TelemetryRecord> {
    let forwarded = |event| CampaignEvent::Forwarded {
        worker: 0,
        event: Box::new(event),
    };
    let experiment = |fault, edges| CampaignEvent::ExperimentCompleted {
        fault: FaultId(fault),
        test: TestId(1),
        interference: 1,
        edges,
    };
    let mut events = vec![CampaignEvent::WorkerConnected { worker: 0 }];
    events.extend(kinds());
    events.extend([
        forwarded(experiment(3, 2)),
        forwarded(experiment(4, 1)),
        forwarded(CampaignEvent::BatchRetried {
            batch: 1,
            failed_jobs: 1,
            attempt: 2,
            backoff_ms: 20,
        }),
        forwarded(CampaignEvent::BatchFailed {
            batch: 1,
            fault: FaultId(4),
            test: TestId(1),
            phase: 2,
            reason: "job stalled".into(),
        }),
        forwarded(CampaignEvent::TraceCache {
            hits: 12,
            misses: 30,
        }),
        CampaignEvent::ShardAssigned {
            shard: 15,
            worker: 0,
            jobs: 3,
        },
        experiment(3, 2),
        CampaignEvent::Clustering(ClusterStats {
            vectors: 64,
            groups: 40,
            candidate_edges: 90,
            hot_dims: 1,
            hot_pairs: 3,
            merges: 24,
            matrix_bytes: 32_768,
            sparse_graph_bytes: 19_000,
        }),
        CampaignEvent::WorkloadSummary {
            test: TestId(0),
            seed: 43,
            offered: 2_000,
            completed: 1_950,
            dropped: 50,
            p50_us: 200,
            p99_us: 9_000,
            inflection_ms: None,
        },
        CampaignEvent::TraceCache {
            hits: 44,
            misses: 11,
        },
        CampaignEvent::BudgetSpent {
            spent: 25,
            total: 64,
        },
    ]);
    events
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let closes_span = matches!(
                kind,
                CampaignEvent::StageFinished(_) | CampaignEvent::PhaseFinished { .. }
            );
            TelemetryRecord {
                seq: i as u64,
                micros: 1_000 + 10 * i as u64,
                thread: "main".into(),
                dur_micros: closes_span.then_some(390),
                kind,
            }
        })
        .collect()
}

/// `(length, hash)` of the digest JSON of [`counted_stream`].
const DIGEST_PIN: (usize, u64) = (603, 0x08c1805d65dd9b1e);

/// The fleet view of a collector fed [`counted_stream`], ten seconds in.
const FLEET_PIN: &str = concat!(
    "[10.0s] budget 25/64  experiments 2  edges 1  cycles 1  retries 1  eta 15.6s  DEGRADED\n",
    "fleet: 2 connected, 1 lost, 2 shards (1 reassigned), 9 events forwarded\n",
    "  w0: shard 15  leases 2  experiments 2  edges 3  retries 1  cache 12/30\n",
    "  w1: LOST (lease expired)  leases 1  experiments 1  edges 5  retries 1  cache 40/9\n",
    "last loss: lease expired\n",
);

#[test]
fn the_digest_of_a_counted_stream_keeps_its_bytes() {
    let json = MetricsDigest::from_records(&counted_stream()).to_json();
    let got = (json.len(), fnv1a_bytes(json.as_bytes()));
    assert_eq!(
        got, DIGEST_PIN,
        "digest JSON moved; computed pin: ({}, {:#018x})\n{json}",
        got.0, got.1
    );
}

#[test]
fn the_fleet_view_of_a_counted_stream_keeps_its_text() {
    let collector = ProgressCollector::new();
    for record in counted_stream() {
        collector.on_event(&record.kind);
    }
    let text = render_fleet(
        &collector.snapshot(),
        &collector.worker_progress(),
        collector.last_loss_reason().as_deref(),
        Duration::from_secs(10),
    );
    assert_eq!(text, FLEET_PIN, "fleet view moved:\n{text}");
}

/// A collector and a recorder behind one fanout fold the same counters.
#[test]
fn a_collector_and_a_digest_fed_one_stream_agree() {
    let collector = Arc::new(ProgressCollector::new());
    let recorder = Arc::new(FlightRecorder::new());
    let fanout = csnake_core::FanoutObserver::new(vec![
        collector.clone() as Arc<dyn CampaignObserver>,
        recorder.clone() as Arc<dyn CampaignObserver>,
    ]);
    for record in counted_stream() {
        fanout.on_event(&record.kind);
    }
    assert_eq!(recorder.digest().counters, collector.snapshot());
}
