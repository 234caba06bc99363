//! Distributed campaign: shard one detection campaign across a worker
//! fleet and prove the result is bit-identical to running it alone.
//!
//! The `csnake-daemon` crate splits the staged `Session` pipeline into a
//! **coordinator** (owns the session, the 3PA plan, and the merge order)
//! and stateless **workers** (re-profile deterministically, run whatever
//! shards they are assigned, stream results back over a length-prefixed,
//! checksummed frame protocol built on the same `Persist` trait as
//! `.csnake` snapshots). Because 3PA plans every phase's batch up front
//! and experiment outcomes are pure in `(test, plan, seed)`, sharding is
//! result-invariant: any worker count, any shard interleaving, any
//! crash/reassign history lands on the same `DetectionReport`.
//!
//! This example drives everything in one process — the workers live on
//! threads behind in-memory channel transports, exchanging the exact
//! bytes real sockets would carry. The same campaign distributed over
//! worker *processes* is one command:
//!
//! ```sh
//! cargo run -p csnake-daemon --bin csnake-daemon -- run --target toy -j 4 --fast
//! ```
//!
//! (or `serve`/`work --connect` to split coordinator and workers across
//! machines over TCP).
//!
//! ```sh
//! cargo run --example distributed_campaign
//! ```

use std::sync::Arc;

use csnake::core::{DetectConfig, ProgressCollector, Session, ThreePhase};
use csnake_daemon::{run_distributed, RunOptions};

fn demo_config() -> DetectConfig {
    let mut cfg = DetectConfig::default();
    cfg.driver.reps = 3;
    cfg.driver.delay_values_ms = vec![800];
    cfg
}

fn main() {
    // Baseline: the plain single-process pipeline on the bundled toy
    // target (the quickstart example, condensed).
    let target = csnake_gen::by_name("toy").expect("bundled target");
    let mut session = Session::builder(target.as_ref())
        .config(demo_config())
        .build()
        .expect("session builds");
    let baseline = session
        .run_to_report(&ThreePhase::default())
        .expect("single-process campaign")
        .clone();
    println!(
        "single process: {} cycles, {} matches, {} runs",
        baseline.cycles.len(),
        baseline.matches.len(),
        session.runs_executed()
    );

    // The same campaign, sharded across three workers. The observer
    // additionally sees the fleet lifecycle: worker_connected,
    // shard_assigned, (on failure) worker_lost / shard_reassigned.
    let progress = Arc::new(ProgressCollector::new());
    let opts = RunOptions {
        observer: Some(progress.clone()),
        ..RunOptions::default()
    };
    let run = run_distributed("toy", demo_config(), 3, opts).expect("distributed campaign");
    let snap = progress.snapshot();
    println!(
        "distributed:    {} cycles, {} matches, {} runs across {} workers ({} shards)",
        run.report.cycles.len(),
        run.report.matches.len(),
        run.outcome.runs_executed,
        snap.workers_connected,
        snap.shards_assigned,
    );

    // The headline contract: not "similar" — identical, bit for bit.
    assert_eq!(
        format!("{baseline:?}"),
        format!("{:?}", run.report),
        "a distributed campaign must be indistinguishable from a local one"
    );
    assert_eq!(run.outcome.runs_executed, session.runs_executed());
    println!("reports are Debug-identical — distribution is invisible in results");
}
