//! Worker event forwarding: the coordinator's collector must see the
//! whole fleet as if the campaign were local.
//!
//! With live [`WireMsg::Event`] frames re-emitted coordinator-side as
//! `CampaignEvent::Forwarded`, a `ProgressCollector` attached to
//! the coordinator session lands on the *same deterministic totals*
//! (experiments, edges, cycles, retries, cache hits/misses) as the same
//! collector on a single-process run — forwarded events feed per-worker
//! attribution only, never the campaign totals, so nothing double-counts.
//! The recorded deterministic event sequence is also fleet-size-invariant
//! across 1/2/4-worker fleets.
//!
//! The coordinator is also the router: a worker may originate four kinds
//! of event and nothing else, whatever its frames decode to.

use std::sync::Arc;
use std::time::Duration;

use csnake_core::alloc::ExperimentEngine;
use csnake_core::{
    CampaignEvent, CampaignObserver, CsnakeError, DetectConfig, Driver, ExperimentOutcome,
    FanoutObserver, ProgressCollector, ProgressSnapshot, Session, Stage, ThreePhase,
};
use csnake_daemon::wire::{open_frame, seal_frame, WireMsg};
use csnake_daemon::{
    channel_pair, drive_session, run_distributed, run_worker, spawn_thread_workers, DaemonConfig,
    DistributedEngine, Endpoint, RunOptions, WorkerOptions,
};
use csnake_inject::{FaultId, TestId};
use csnake_telemetry::{FlightRecorder, TelemetryRecord};

fn fast_config() -> DetectConfig {
    let mut cfg = DetectConfig::default();
    cfg.driver.reps = 3;
    cfg.driver.delay_values_ms = vec![800];
    cfg.driver.retry.backoff_base_ms = 1;
    // Cache injections so the trace-cache counters are live: the fleet
    // sum of per-worker figures must reproduce the local driver's.
    cfg.driver.cache_injections = true;
    cfg
}

fn deterministic_keys(records: &[TelemetryRecord]) -> Vec<String> {
    records
        .iter()
        .filter_map(|r| r.deterministic_key())
        .collect()
}

fn single_process(name: &str) -> (String, ProgressSnapshot, Vec<String>) {
    let target = csnake_daemon::targets::resolve(name).expect("known target");
    let progress = Arc::new(ProgressCollector::new());
    let recorder = Arc::new(FlightRecorder::builder().build().expect("recorder"));
    let fanout = Arc::new(FanoutObserver::new(vec![
        progress.clone() as Arc<dyn CampaignObserver>,
        recorder.clone() as Arc<dyn CampaignObserver>,
    ]));
    let mut session = Session::builder(target.as_ref())
        .config(fast_config())
        .observer(fanout)
        .build()
        .expect("target is drivable");
    let report = session
        .run_to_report(&ThreePhase::default())
        .expect("campaign completes");
    (
        format!("{report:?}"),
        progress.snapshot(),
        deterministic_keys(&recorder.records()),
    )
}

#[test]
fn collector_totals_match_single_process_across_fleet_sizes() {
    let name = "gen:5";
    let (baseline_report, baseline, baseline_keys) = single_process(name);
    assert!(baseline.experiments > 0 && baseline.cache_misses > 0);

    for workers in [1usize, 2, 4] {
        let progress = Arc::new(ProgressCollector::new());
        let recorder = Arc::new(FlightRecorder::builder().build().expect("recorder"));
        let fanout = Arc::new(FanoutObserver::new(vec![
            progress.clone() as Arc<dyn CampaignObserver>,
            recorder.clone() as Arc<dyn CampaignObserver>,
        ]));
        let run = run_distributed(
            name,
            fast_config(),
            workers,
            RunOptions {
                observer: Some(fanout),
                ..RunOptions::default()
            },
        )
        .expect("distributed campaign completes");
        assert_eq!(
            format!("{:?}", run.report),
            baseline_report,
            "{workers}-worker report diverged"
        );

        // Deterministic totals: the coordinator's own merge stream must
        // reproduce the local campaign exactly, forwarding or not.
        let snap = progress.snapshot();
        assert_eq!(snap.experiments, baseline.experiments, "w={workers}");
        assert_eq!(snap.edges, baseline.edges, "w={workers}");
        assert_eq!(snap.cycles, baseline.cycles, "w={workers}");
        assert_eq!(snap.retries, baseline.retries, "w={workers}");
        assert_eq!(snap.gaps, baseline.gaps, "w={workers}");
        assert_eq!(snap.budget_spent, baseline.budget_spent, "w={workers}");
        assert_eq!(
            snap.cache_hits, baseline.cache_hits,
            "w={workers}: fleet cache-hit sum diverged"
        );
        assert_eq!(
            snap.cache_misses, baseline.cache_misses,
            "w={workers}: fleet cache-miss sum diverged"
        );

        // ...and the recorded deterministic event sequence is the same
        // one, whatever the fleet size.
        assert_eq!(
            deterministic_keys(&recorder.records()),
            baseline_keys,
            "w={workers}: deterministic event sequence diverged"
        );

        // Live forwarding actually happened, with per-worker attribution
        // that tiles the campaign: every experiment ran on exactly one
        // worker.
        assert!(snap.events_forwarded > 0, "w={workers}: nothing forwarded");
        let per_worker = progress.worker_progress();
        assert_eq!(per_worker.len(), workers, "w={workers}");
        assert!(
            per_worker.iter().all(|(_, w)| w.leases > 0),
            "w={workers}: a live worker was never leased a shard: {per_worker:?}"
        );
        let attributed: usize = per_worker.iter().map(|(_, w)| w.counters.experiments).sum();
        assert_eq!(
            attributed, baseline.experiments,
            "w={workers}: per-worker experiment attribution must tile the campaign"
        );
        // Worker-side edge figures are raw per-outcome counts (pre-dedup:
        // the coordinator's db dedups sweep repeats at merge), so the
        // attributed sum bounds the accepted total from above.
        let attributed_edges: usize = per_worker.iter().map(|(_, w)| w.edges).sum();
        assert!(
            attributed_edges >= snap.edges,
            "w={workers}: raw attributed edges ({attributed_edges}) below accepted total ({})",
            snap.edges
        );
        let cache_sum: (usize, usize) = per_worker.iter().fold((0, 0), |(h, m), (_, w)| {
            (h + w.counters.cache_hits, m + w.counters.cache_misses)
        });
        assert_eq!(
            cache_sum,
            (snap.cache_hits, snap.cache_misses),
            "w={workers}: per-worker cache figures must sum to the fleet total"
        );
    }
}

/// What no worker may say: a lifecycle event, a stage event from the
/// deterministic stream, and a forwarded copy it wrapped itself (here
/// claiming to be worker 7).
fn rogue_events() -> Vec<CampaignEvent> {
    vec![
        CampaignEvent::WorkerLost {
            worker: 0,
            reason: "rogue".into(),
        },
        CampaignEvent::StageFinished(Stage::Built),
        CampaignEvent::Forwarded {
            worker: 7,
            event: Box::new(CampaignEvent::ExperimentCompleted {
                fault: FaultId(1),
                test: TestId(0),
                interference: 0,
                edges: 99,
            }),
        },
    ]
}

/// Whether a recorded event can only have come from [`rogue_events`].
fn is_rogue(event: &CampaignEvent) -> bool {
    match event {
        CampaignEvent::WorkerLost { .. } => true, // nobody is lost in these runs
        CampaignEvent::StageFinished(stage) => *stage == Stage::Built,
        CampaignEvent::Forwarded { worker, event } => {
            *worker == 7
                || !matches!(
                    **event,
                    CampaignEvent::ExperimentCompleted { .. }
                        | CampaignEvent::BatchRetried { .. }
                        | CampaignEvent::BatchFailed { .. }
                        | CampaignEvent::TraceCache { .. }
                )
        }
        _ => false,
    }
}

/// A real worker behind a tampering hop: every `Event` and `Result` frame
/// it sends reaches the coordinator with [`rogue_events`] appended.
fn rogue_worker() -> (Endpoint, std::thread::JoinHandle<csnake_core::Result<()>>) {
    let (coord_side, hop_up) = channel_pair();
    let (hop_down, worker_side) = channel_pair();
    let worker = std::thread::spawn(move || run_worker(worker_side, WorkerOptions::default()));
    let Endpoint {
        tx: mut up_tx,
        rx: mut up_rx,
    } = hop_up;
    let Endpoint {
        tx: mut down_tx,
        rx: mut down_rx,
    } = hop_down;
    std::thread::spawn(move || {
        while let Ok(Some(msg)) = up_rx.recv() {
            if down_tx.send(&msg).is_err() {
                return;
            }
        }
    });
    std::thread::spawn(move || {
        while let Ok(Some(mut msg)) = down_rx.recv() {
            if let WireMsg::Event { events, .. } | WireMsg::Result { events, .. } = &mut msg {
                events.extend(rogue_events());
            }
            if up_tx.send(&msg).is_err() {
                return;
            }
        }
    });
    (coord_side, worker)
}

#[test]
fn a_nonconforming_worker_cannot_speak_for_the_coordinator() {
    let name = "gen:5";
    let (baseline_report, baseline, baseline_keys) = single_process(name);

    let progress = Arc::new(ProgressCollector::new());
    let recorder = Arc::new(FlightRecorder::new());
    let fanout = Arc::new(FanoutObserver::new(vec![
        progress.clone() as Arc<dyn CampaignObserver>,
        recorder.clone() as Arc<dyn CampaignObserver>,
    ]));
    let (rogue, rogue_handle) = rogue_worker();
    let (mut endpoints, mut handles) = spawn_thread_workers(1, &[]);
    endpoints.insert(0, rogue);
    handles.push(rogue_handle);

    let target = csnake_daemon::targets::resolve(name).expect("known target");
    let mut session = Session::builder(target.as_ref())
        .config(fast_config())
        .observer(fanout)
        .build()
        .expect("target is drivable");
    let (report, _) = drive_session(
        &mut session,
        name,
        endpoints,
        DaemonConfig::default(),
        &ThreePhase::default(),
    )
    .expect("campaign completes");
    for h in handles {
        h.join()
            .expect("worker thread")
            .expect("worker exits cleanly");
    }

    assert_eq!(format!("{report:?}"), baseline_report);
    let records = recorder.records();
    let rogue: Vec<&TelemetryRecord> = records.iter().filter(|r| is_rogue(&r.kind)).collect();
    assert!(
        rogue.is_empty(),
        "a worker's say-so reached the recorder: {rogue:?}"
    );
    assert_eq!(deterministic_keys(&records), baseline_keys);
    let snap = progress.snapshot();
    assert_eq!(snap.workers_lost, 0);
    assert_eq!(snap.experiments, baseline.experiments);
    // The hop tampered with real traffic: worker 0's honest events made it.
    let per_worker = progress.worker_progress();
    assert!(per_worker[0].1.counters.experiments > 0, "{per_worker:?}");
    assert_eq!(
        per_worker
            .iter()
            .map(|(_, w)| w.counters.experiments)
            .sum::<usize>(),
        baseline.experiments
    );
}

#[test]
fn a_frame_of_only_dropped_events_still_refreshes_the_lease() {
    const LEASE_MS: u64 = 150;
    let (coord_side, worker_side) = channel_pair();
    // By hand: ack, hold the shard for three leases while saying only
    // things the coordinator must drop, then answer.
    let worker = std::thread::spawn(move || {
        let Endpoint { mut tx, mut rx } = worker_side;
        while let Ok(Some(msg)) = rx.recv() {
            match msg {
                WireMsg::Hello {
                    worker,
                    registry_fp,
                    ..
                } => tx
                    .send(&WireMsg::HelloAck {
                        worker,
                        registry_fp,
                    })
                    .expect("ack"),
                WireMsg::Assign { shard, jobs } => {
                    for _ in 0..(3 * LEASE_MS / 30) {
                        std::thread::sleep(Duration::from_millis(30));
                        tx.send(&WireMsg::Event {
                            worker: 0,
                            events: rogue_events(),
                        })
                        .expect("event");
                    }
                    tx.send(&WireMsg::Result {
                        shard,
                        outcomes: jobs
                            .iter()
                            .map(|&(fault, test, _)| ExperimentOutcome {
                                fault,
                                test,
                                interference: Default::default(),
                                edges: Vec::new(),
                            })
                            .collect(),
                        gaps: Vec::new(),
                        runs: 0,
                        events: rogue_events(),
                    })
                    .expect("result");
                }
                _ => return,
            }
        }
    });

    let target = csnake_daemon::targets::resolve("toy").expect("target resolves");
    let cfg = fast_config();
    let driver = Driver::new(target.as_ref(), cfg.driver.clone());
    let fault = driver.faults()[0];
    let jobs = vec![(fault, driver.tests_reaching(fault)[0], 1u8)];
    let dcfg = DaemonConfig {
        lease_ms: LEASE_MS,
        ..DaemonConfig::default()
    };
    let mut engine = DistributedEngine::connect(
        "toy",
        target.as_ref(),
        &cfg,
        &driver,
        vec![coord_side],
        dcfg,
    )
    .expect("handshake");
    let recorder = Arc::new(FlightRecorder::new());
    engine.attach_observer(recorder.clone());
    assert_eq!(engine.run_experiments(&jobs).len(), 1);
    assert_eq!(
        engine.live_workers(),
        1,
        "the talking worker was declared lost"
    );
    drop(engine);
    worker.join().expect("worker thread");

    let kinds: Vec<&str> = recorder.records().iter().map(|r| r.kind.name()).collect();
    assert_eq!(kinds, ["worker_connected", "shard_assigned"]);
}

#[test]
fn a_forwarded_nested_twice_is_rejected_at_decode() {
    let forwarded = |event| CampaignEvent::Forwarded {
        worker: 1,
        event: Box::new(event),
    };
    let once = forwarded(CampaignEvent::TraceCache { hits: 1, misses: 2 });
    let frame = |events| seal_frame(&WireMsg::Event { worker: 1, events });
    assert!(open_frame(&frame(vec![once.clone()])).is_ok());
    match open_frame(&frame(vec![forwarded(once)])) {
        Err(CsnakeError::SnapshotCorrupt(msg)) => assert!(msg.contains("nested"), "{msg}"),
        other => panic!("expected SnapshotCorrupt, got {other:?}"),
    }
}
