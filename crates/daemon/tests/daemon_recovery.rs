//! Fault tolerance: losing workers mid-phase must not perturb results.
//!
//! Two failure shapes are exercised — a crash (connection drops, the
//! coordinator reacts instantly) and a silent stall (heartbeats stop, only
//! the lease clock catches it). In both, the dead worker's unacked shard
//! is reassigned and the final report stays bit-identical to the
//! single-process run.

use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use csnake_core::alloc::ExperimentEngine;
use csnake_core::{
    CampaignEvent, CampaignObserver, DetectConfig, Driver, ExperimentOutcome, ProgressCollector,
    Session, ThreePhase,
};
use csnake_daemon::wire::WireMsg;
use csnake_daemon::{
    channel_pair, run_distributed, DaemonConfig, DistributedEngine, Endpoint, RunOptions,
    WorkerOptions,
};

fn fast_config() -> DetectConfig {
    let mut cfg = DetectConfig::default();
    cfg.driver.reps = 3;
    cfg.driver.delay_values_ms = vec![800];
    cfg.driver.retry.backoff_base_ms = 1;
    cfg
}

/// `(report debug, runs_executed)` of the plain in-process pipeline.
fn single_process(target_name: &str) -> (String, usize) {
    let target = csnake_daemon::targets::resolve(target_name).expect("target resolves");
    let mut session = Session::builder(target.as_ref())
        .config(fast_config())
        .build()
        .expect("session builds");
    let report = format!(
        "{:?}",
        session
            .run_to_report(&ThreePhase::default())
            .expect("single-process campaign")
    );
    (report, session.runs_executed())
}

#[test]
fn worker_crash_mid_phase_reassigns_and_report_is_identical() {
    let (baseline, baseline_runs) = single_process("toy");
    let progress = Arc::new(ProgressCollector::new());
    let opts = RunOptions {
        daemon: DaemonConfig {
            lease_ms: 500,
            ..DaemonConfig::default()
        },
        observer: Some(progress.clone()),
        // Worker 0 completes one shard, then accepts the next assignment
        // and dies holding it — the textbook mid-phase crash.
        worker_opts: vec![WorkerOptions {
            fail_after: Some(1),
            ..WorkerOptions::default()
        }],
        ..RunOptions::default()
    };
    let run = run_distributed("toy", fast_config(), 2, opts).expect("campaign survives the crash");
    assert_eq!(format!("{:?}", run.report), baseline);
    assert_eq!(run.outcome.runs_executed, baseline_runs, "run accounting");
    assert!(
        !run.report.degraded(),
        "a reassigned shard must not surface as missing cells"
    );

    let snap = progress.snapshot();
    assert_eq!(snap.workers_connected, 2);
    assert_eq!(snap.workers_lost, 1, "exactly the killed worker is lost");
    assert!(
        snap.shards_reassigned >= 1,
        "the orphaned shard must be reassigned (saw {})",
        snap.shards_reassigned
    );
}

#[test]
fn silent_stall_is_caught_by_the_lease_clock() {
    let (baseline, baseline_runs) = single_process("toy");
    let progress = Arc::new(ProgressCollector::new());
    let opts = RunOptions {
        daemon: DaemonConfig {
            lease_ms: 150,
            ..DaemonConfig::default()
        },
        observer: Some(progress.clone()),
        // Worker 0 goes silent holding its second shard, keeping the
        // connection open — no EOF, no heartbeats, nothing but the lease.
        worker_opts: vec![WorkerOptions {
            fail_after: Some(1),
            fail_hang_ms: 3_000,
            heartbeats: false,
        }],
        ..RunOptions::default()
    };
    let run = run_distributed("toy", fast_config(), 2, opts).expect("campaign survives the stall");
    assert_eq!(format!("{:?}", run.report), baseline);
    assert_eq!(run.outcome.runs_executed, baseline_runs, "run accounting");

    let snap = progress.snapshot();
    assert_eq!(snap.workers_lost, 1, "the stalled worker must be reaped");
    assert!(snap.shards_reassigned >= 1);
}

#[test]
fn losing_every_worker_degrades_instead_of_hanging() {
    let progress = Arc::new(ProgressCollector::new());
    let opts = RunOptions {
        daemon: DaemonConfig {
            lease_ms: 200,
            max_assign_attempts: 2,
            ..DaemonConfig::default()
        },
        observer: Some(progress.clone()),
        worker_opts: vec![
            WorkerOptions {
                fail_after: Some(0),
                ..WorkerOptions::default()
            },
            WorkerOptions {
                fail_after: Some(1),
                ..WorkerOptions::default()
            },
        ],
        ..RunOptions::default()
    };
    let run = run_distributed("toy", fast_config(), 2, opts)
        .expect("a dead fleet still completes the campaign");
    assert!(
        run.report.degraded(),
        "with no workers left, unfinished cells must be enumerated as missing"
    );
    assert!(!run.report.missing_cells.is_empty());
    assert_eq!(progress.snapshot().workers_lost, 2);
}

/// What the coordinator told its observer about leases and losses, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Lease {
    Lost(u32),
    Assigned { shard: u32, worker: u32 },
    Reassigned { shard: u32, worker: u32 },
}

#[derive(Default)]
struct LeaseLog(Mutex<Vec<Lease>>);

impl LeaseLog {
    fn entries(&self) -> Vec<Lease> {
        self.0.lock().expect("lease log").clone()
    }
}

impl CampaignObserver for LeaseLog {
    fn on_event(&self, event: &CampaignEvent) {
        self.0.lock().expect("lease log").push(match *event {
            CampaignEvent::WorkerLost { worker, .. } => Lease::Lost(worker),
            CampaignEvent::ShardAssigned { shard, worker, .. } => Lease::Assigned { shard, worker },
            CampaignEvent::ShardReassigned { shard, worker, .. } => {
                Lease::Reassigned { shard, worker }
            }
            _ => return,
        });
    }
}

/// A `Result` frame of placeholder outcomes for `jobs`.
fn placeholder_result(shard: u32, jobs: &[csnake_daemon::wire::Job]) -> WireMsg {
    WireMsg::Result {
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
        events: Vec::new(),
    }
}

/// A conforming hand-written worker: acks the Hello, answers every `Assign`
/// at once with placeholders — except shard `held`, which it answers only
/// once `gate` fires — and heartbeats every 20 ms from a second thread for
/// as long as the coordinator listens.
fn heartbeating_worker(endpoint: Endpoint, held: u32, gate: Receiver<()>) {
    let Endpoint { tx, mut rx } = endpoint;
    let tx = Arc::new(Mutex::new(tx));
    let beats = Arc::clone(&tx);
    std::thread::spawn(move || {
        for seq in 0u64.. {
            std::thread::sleep(Duration::from_millis(20));
            let beat = WireMsg::Heartbeat { worker: 1, seq };
            if beats.lock().expect("tx").send(&beat).is_err() {
                return;
            }
        }
    });
    while let Ok(Some(msg)) = rx.recv() {
        let reply = match msg {
            WireMsg::Hello {
                worker,
                registry_fp,
                ..
            } => WireMsg::HelloAck {
                worker,
                registry_fp,
            },
            WireMsg::Assign { shard, jobs } => {
                if shard == held {
                    gate.recv().expect("the test opens the gate");
                }
                placeholder_result(shard, &jobs)
            }
            _ => return,
        };
        if tx.lock().expect("tx").send(&reply).is_err() {
            return;
        }
    }
}

/// ROADMAP item 2(a): worker 0 goes silent holding shard 0, is declared
/// lost on its lease while worker 1 is busy — so shard 0 sits re-queued —
/// and only then answers. The late `Result` is accepted; the shard must not
/// be leased again, or worker 1 ends up `busy` on a shard whose second
/// `Result` matches nothing, kept alive by its heartbeats, and shard 3
/// never goes out.
#[test]
fn a_late_result_from_a_lost_worker_does_not_strand_the_fleet() {
    let (coord0, worker0) = channel_pair();
    let (coord1, worker1) = channel_pair();
    let (gate_tx, gate_rx) = channel();
    let worker1 = std::thread::spawn(move || heartbeating_worker(worker1, 2, gate_rx));

    let log = Arc::new(LeaseLog::default());
    let (progress_tx, progress_rx) = channel::<Vec<u32>>();
    let (done_tx, done_rx) = channel::<usize>();
    let engine_log = Arc::clone(&log);
    let coordinator = std::thread::spawn(move || {
        let target = csnake_daemon::targets::resolve("toy").expect("target resolves");
        let cfg = fast_config();
        let driver = Driver::new(target.as_ref(), cfg.driver.clone());
        let fault = driver.faults()[0];
        let test = driver.tests_reaching(fault)[0];
        // Four one-job shards; the workers answer with placeholders, so
        // the cells only have to be well-formed.
        let jobs = vec![(fault, test, 1u8); 4];
        let dcfg = DaemonConfig {
            shard_jobs: 1,
            lease_ms: 150,
            ..DaemonConfig::default()
        };
        let mut engine = DistributedEngine::connect(
            "toy",
            target.as_ref(),
            &cfg,
            &driver,
            vec![coord0, coord1],
            dcfg,
        )
        .expect("handshake");
        engine.attach_observer(engine_log);
        let outcomes = engine.run_experiments_checkpointed(&jobs, &mut |spans| {
            let _ = progress_tx.send(spans.iter().map(|s| s.shard).collect());
        });
        let _ = done_tx.send(outcomes.len());
    });

    // Worker 0, by hand: ack, take shard 0, say nothing.
    let Endpoint {
        tx: mut tx0,
        rx: mut rx0,
    } = worker0;
    match rx0.recv().expect("hello arrives") {
        Some(WireMsg::Hello {
            worker,
            registry_fp,
            ..
        }) => tx0
            .send(&WireMsg::HelloAck {
                worker,
                registry_fp,
            })
            .expect("ack"),
        other => panic!("expected Hello, got {other:?}"),
    }
    let jobs0 = match rx0.recv().expect("assign arrives") {
        Some(WireMsg::Assign { shard: 0, jobs }) => jobs,
        other => panic!("worker 0 expected shard 0, got {other:?}"),
    };
    // Worker 1 meanwhile finished shard 1 and holds shard 2 at the gate.
    let patience = Duration::from_secs(10);
    let waited = std::time::Instant::now();
    while !log.entries().contains(&Lease::Lost(0)) {
        assert!(waited.elapsed() < patience, "worker 0 was never lost");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Now the late answer; wait until the coordinator has taken it.
    tx0.send(&placeholder_result(0, &jobs0))
        .expect("late result");
    loop {
        let finished = progress_rx
            .recv_timeout(patience)
            .expect("the late result is accepted");
        if finished.contains(&0) {
            break;
        }
    }
    gate_tx.send(()).expect("worker 1 is waiting");

    // The watchdog: on the parent this never arrives.
    let merged = done_rx
        .recv_timeout(patience)
        .expect("the batch hung: a finished shard was leased again");
    assert_eq!(merged, 4);
    // Dropping the engine shut the fleet down; past the watchdog the
    // threads are joinable (on a hang they are left behind with the
    // failed test).
    coordinator.join().expect("coordinator thread");
    worker1.join().expect("worker 1 thread");

    let entries = log.entries();
    assert_eq!(
        entries
            .iter()
            .filter(|e| matches!(e, Lease::Lost(_)))
            .count(),
        1,
        "{entries:?}"
    );
    let shard0: Vec<&Lease> = entries
        .iter()
        .filter(|e| {
            matches!(
                e,
                Lease::Assigned { shard: 0, .. } | Lease::Reassigned { shard: 0, .. }
            )
        })
        .collect();
    assert_eq!(
        shard0,
        [&Lease::Assigned {
            shard: 0,
            worker: 0
        }],
        "a finished shard was leased again: {entries:?}"
    );
}
