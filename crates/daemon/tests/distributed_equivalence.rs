//! The daemon's headline contract: a distributed campaign produces a
//! `DetectionReport` Debug-identical to the single-process
//! `Session::run_to_report`, for any worker count.

use csnake_core::{DetectConfig, Session, ThreePhase};
use csnake_daemon::{run_distributed, DaemonConfig, RunOptions};

/// Small-but-real campaign config (the one every daemon test uses).
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

fn distributed(target_name: &str, workers: usize) -> (String, usize) {
    let opts = RunOptions {
        daemon: DaemonConfig {
            // Tight lease: these tests must also prove that healthy
            // heartbeat-keeping workers are never falsely reaped.
            lease_ms: 500,
            ..DaemonConfig::default()
        },
        ..RunOptions::default()
    };
    let run =
        run_distributed(target_name, fast_config(), workers, opts).expect("distributed campaign");
    (format!("{:?}", run.report), run.outcome.runs_executed)
}

#[test]
fn toy_reports_are_identical_across_worker_counts() {
    let (baseline, baseline_runs) = single_process("toy");
    for workers in [1, 2, 4] {
        let (report, runs) = distributed("toy", workers);
        assert_eq!(report, baseline, "toy, {workers} workers");
        assert_eq!(runs, baseline_runs, "toy runs, {workers} workers");
    }
}

#[test]
fn generated_target_reports_are_identical_across_worker_counts() {
    let (baseline, baseline_runs) = single_process("gen:5");
    for workers in [1, 2, 4] {
        let (report, runs) = distributed("gen:5", workers);
        assert_eq!(report, baseline, "gen:5, {workers} workers");
        assert_eq!(runs, baseline_runs, "gen:5 runs, {workers} workers");
    }
}

#[test]
fn scenario_corpus_target_report_is_identical_distributed() {
    let (baseline, baseline_runs) = single_process("kafka-isr");
    let (report, runs) = distributed("kafka-isr", 2);
    assert_eq!(report, baseline);
    assert_eq!(runs, baseline_runs);
}

/// The v3 handshake ships the coordinator's profile artifact so workers
/// skip the from-scratch profiling pass. This must be a pure startup-cost
/// optimization: a worker handed the artifact and a worker forced to
/// re-profile (empty artifact) must answer the same `Assign` with
/// bit-identical frames.
#[test]
fn shipped_profile_artifact_is_frame_identical_to_reprofiling() {
    use csnake_core::alloc::ExperimentEngine as _;
    use csnake_core::{registry_fingerprint, DetectConfig, Driver};
    use csnake_daemon::wire::{seal_frame, WireMsg};
    use csnake_daemon::{channel_pair, run_worker, WorkerOptions};
    use std::collections::BTreeMap;

    let target = csnake_daemon::targets::resolve("toy").expect("target resolves");
    let cfg: DetectConfig = fast_config();
    let driver = Driver::new(target.as_ref(), cfg.driver.clone());
    let registry_fp = registry_fingerprint(&target.registry());
    // A couple of real plan cells: first two faults, any test reaching them.
    let jobs: Vec<_> = driver
        .faults()
        .into_iter()
        .filter_map(|f| driver.tests_reaching(f).first().map(|&t| (f, t, 1u8)))
        .take(3)
        .collect();
    assert!(!jobs.is_empty(), "toy target must have injectable cells");

    let serve = |profiles: BTreeMap<_, _>| -> Vec<Vec<u8>> {
        let (coord, worker_side) = channel_pair();
        let handle = std::thread::spawn(move || run_worker(worker_side, WorkerOptions::default()));
        let mut tx = coord.tx;
        let mut rx = coord.rx;
        tx.send(&WireMsg::Hello {
            target: "toy".into(),
            registry_fp,
            cfg: cfg.clone(),
            worker: 0,
            lease_ms: 0, // no heartbeat thread: the reply stream is pure
            profiles,
        })
        .expect("hello");
        tx.send(&WireMsg::Assign {
            shard: 0,
            jobs: jobs.clone(),
        })
        .expect("assign");
        tx.send(&WireMsg::Shutdown).expect("shutdown");
        let mut frames = Vec::new();
        while let Some(msg) = rx.recv().expect("worker reply") {
            frames.push(seal_frame(&msg));
        }
        handle
            .join()
            .expect("worker thread")
            .expect("worker served cleanly");
        frames
    };

    let with_artifact = serve(driver.profiles().clone());
    let reprofiled = serve(BTreeMap::new());
    assert_eq!(
        with_artifact.len(),
        reprofiled.len(),
        "same frame count (HelloAck, Event, Result)"
    );
    for (i, (a, b)) in with_artifact.iter().zip(&reprofiled).enumerate() {
        assert_eq!(a, b, "frame {i} differs between artifact and re-profiling");
    }
}
