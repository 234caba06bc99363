//! Transport-level self-chaos: dropped and stalled assignment frames.
//!
//! Transient wire faults must be invisible in results (the coordinator
//! re-sends); permanent wire faults must degrade *deterministically* —
//! chaos keys on the global shard ordinal, which does not depend on the
//! worker count, so the same cells go missing whether one worker or four
//! carry the campaign.

use std::sync::Arc;

use csnake_core::{ChaosConfig, DetectConfig, ProgressCollector, Session, ThreePhase};
use csnake_daemon::{run_distributed, DaemonConfig, RunOptions};

fn fast_config() -> DetectConfig {
    let mut cfg = DetectConfig::default();
    cfg.driver.reps = 3;
    cfg.driver.delay_values_ms = vec![800];
    cfg.driver.retry.backoff_base_ms = 1;
    cfg
}

fn chaos_config(wire_drop: f64, wire_stall: f64, permanent: bool) -> DetectConfig {
    let mut cfg = fast_config();
    cfg.driver.chaos = ChaosConfig {
        seed: 0xC0FFEE,
        wire_drop,
        wire_stall,
        permanent,
        transient_attempts: 1,
        stall_ms: 1,
        ..ChaosConfig::default()
    };
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

fn run_with(
    cfg: DetectConfig,
    workers: usize,
    progress: Arc<ProgressCollector>,
) -> (String, usize) {
    let opts = RunOptions {
        daemon: DaemonConfig {
            lease_ms: 1_000,
            ..DaemonConfig::default()
        },
        observer: Some(progress),
        ..RunOptions::default()
    };
    let run = run_distributed("toy", cfg, workers, opts).expect("chaos campaign completes");
    (format!("{:?}", run.report), run.outcome.runs_executed)
}

#[test]
fn transient_wire_drops_are_invisible_in_results() {
    let (baseline, baseline_runs) = single_process("toy");
    let progress = Arc::new(ProgressCollector::new());
    // Every shard's first delivery is dropped; the re-send succeeds.
    let (report, runs) = run_with(chaos_config(1.0, 0.0, false), 2, progress.clone());
    assert_eq!(report, baseline, "transient drops must not reach results");
    assert_eq!(runs, baseline_runs, "a dropped frame ran nothing");
    assert!(
        progress.snapshot().shards_reassigned > 0,
        "the drops must actually have fired"
    );
}

#[test]
fn wire_stalls_only_pace_the_campaign() {
    let (baseline, baseline_runs) = single_process("toy");
    let progress = Arc::new(ProgressCollector::new());
    let (report, runs) = run_with(chaos_config(0.0, 1.0, true), 2, progress.clone());
    assert_eq!(report, baseline, "stalled frames still arrive");
    assert_eq!(runs, baseline_runs, "a stalled frame runs once");
    assert_eq!(progress.snapshot().workers_lost, 0);
}

#[test]
fn permanent_wire_drops_degrade_identically_across_worker_counts() {
    let reports: Vec<String> = [1, 2, 4]
        .into_iter()
        .map(|workers| {
            run_with(
                chaos_config(0.4, 0.0, true),
                workers,
                Arc::new(ProgressCollector::new()),
            )
            .0
        })
        .collect();
    assert!(
        !reports[0].contains("missing_cells: []"),
        "rate 0.4 permanent drops must cost some cells: {}",
        reports[0]
    );
    assert_eq!(reports[0], reports[1], "1 vs 2 workers");
    assert_eq!(reports[0], reports[2], "1 vs 4 workers");
    assert_ne!(
        reports[0],
        single_process("toy").0,
        "a degraded report must differ from the clean baseline"
    );
}
