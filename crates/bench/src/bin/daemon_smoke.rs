//! Distributed-campaign smoke for CI: coordinator + 2 local workers.
//!
//! Runs the two representative campaigns the chaos smoke uses — the
//! `kafka-isr` corpus scenario and one generated `gen:<seed>` system —
//! in three configurations each:
//!
//! 1. **single**: the plain in-process `Session::run_to_report` baseline;
//! 2. **distributed**: a coordinator sharding the same campaign across
//!    two workers over the wire protocol — the report AND the run
//!    accounting must be Debug-identical to the baseline;
//! 3. **kill-worker**: one of the two workers dies holding a mid-phase
//!    shard — the lease/reassign machinery must land on the identical
//!    report with exactly one worker lost.
//!
//! Each fleet campaign also prints what distribution cost: its wall next
//! to the single-process wall, the time to reap the worker threads once
//! the report is in hand, and the shards each worker was leased. Two
//! things fail the smoke outright — a healthy fleet whose idle workers
//! take more than 50 ms to reap, or one where a live worker was never
//! leased a shard. That is a guard against gross regressions (a worker
//! that exits on a timer, a cut one worker swallows whole), not a
//! benchmark: the ratio is printed, never judged.
//!
//! Gated on `CSNAKE_DAEMON_SMOKE=1` so plain `cargo run` stays inert; CI
//! sets the variable (plus `CSNAKE_STAGE_DEADLINE_S` so a hung stage
//! names itself instead of timing out the job).
//!
//! Run with:
//! `CSNAKE_DAEMON_SMOKE=1 cargo run --release -p csnake-bench --bin daemon_smoke`

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use csnake_bench::watchdog;
use csnake_core::{DetectConfig, ProgressCollector, Session, ThreePhase};
use csnake_daemon::{drive_session, spawn_thread_workers, DaemonConfig, WorkerOptions};

const GEN_SEED: u64 = 5;
const WORKERS: usize = 2;
/// Reaping idle workers is a thread wake-up each; this is three orders of
/// magnitude of slack, and still well under one heartbeat tick.
const REAP_LIMIT: Duration = Duration::from_millis(50);

fn fast_config() -> DetectConfig {
    let mut cfg = DetectConfig::default();
    cfg.driver.reps = 3;
    cfg.driver.delay_values_ms = vec![800];
    cfg.driver.retry.backoff_base_ms = 1;
    cfg
}

/// One campaign's results and what it cost on the clock.
struct Campaign {
    report: String,
    runs: usize,
    /// Session build through report (for a fleet: spawn through reap).
    wall: Duration,
    /// `drive_session` returning to every worker thread joined.
    reap: Duration,
}

fn single_process(name: &str) -> Result<Campaign, String> {
    let target = csnake_daemon::targets::resolve(name).map_err(|e| format!("resolve: {e}"))?;
    let started = Instant::now();
    let mut session = Session::builder(target.as_ref())
        .config(fast_config())
        .build()
        .map_err(|e| format!("build: {e}"))?;
    let report = session
        .run_to_report(&ThreePhase::default())
        .map_err(|e| format!("run_to_report: {e}"))?;
    Ok(Campaign {
        report: format!("{report:?}"),
        runs: session.runs_executed(),
        wall: started.elapsed(),
        reap: Duration::ZERO,
    })
}

fn distributed(
    name: &str,
    worker_opts: Vec<WorkerOptions>,
    progress: &Arc<ProgressCollector>,
) -> Result<Campaign, String> {
    let target = csnake_daemon::targets::resolve(name).map_err(|e| format!("resolve: {e}"))?;
    let started = Instant::now();
    let (endpoints, handles) = spawn_thread_workers(WORKERS, &worker_opts);
    let mut session = Session::builder(target.as_ref())
        .config(fast_config())
        .observer(progress.clone())
        .build()
        .map_err(|e| format!("build: {e}"))?;
    let driven = drive_session(
        &mut session,
        name,
        endpoints,
        DaemonConfig::default(),
        &ThreePhase::default(),
    );
    let returned = Instant::now();
    for h in handles {
        let _ = h.join();
    }
    let (reap, wall) = (returned.elapsed(), started.elapsed());
    let (report, outcome) = driven.map_err(|e| format!("drive_session: {e}"))?;
    Ok(Campaign {
        report: format!("{report:?}"),
        runs: outcome.runs_executed,
        wall,
        reap,
    })
}

/// `fleet` against `single` on the clock, and who served what.
fn cost_line(fleet: &Campaign, single: &Campaign, progress: &ProgressCollector) -> String {
    let shards: Vec<usize> = progress
        .worker_progress()
        .iter()
        .map(|(_, p)| p.shards_assigned)
        .collect();
    format!(
        "fleet {:.3} s, single {:.3} s ({:.2} x), reap {:.3} ms, shards per worker {shards:?}",
        fleet.wall.as_secs_f64(),
        single.wall.as_secs_f64(),
        fleet.wall.as_secs_f64() / single.wall.as_secs_f64(),
        fleet.reap.as_secs_f64() * 1e3,
    )
}

fn smoke_target(name: &str) -> Result<(), String> {
    let wd = watchdog::guard(&format!("{name}:single"));
    let single = single_process(name)?;
    drop(wd);

    let wd = watchdog::guard(&format!("{name}:distributed-{WORKERS}"));
    let progress = Arc::new(ProgressCollector::new());
    let fleet = distributed(name, Vec::new(), &progress)?;
    if fleet.report != single.report {
        return Err(format!(
            "{name}: distributed report diverged from single-process"
        ));
    }
    if fleet.runs != single.runs {
        return Err(format!(
            "{name}: distributed run accounting diverged ({} → {})",
            single.runs, fleet.runs
        ));
    }
    let snap = progress.snapshot();
    eprintln!(
        "{name}: {WORKERS}-worker campaign identical to single-process ({} shards, {} runs)",
        snap.shards_assigned, fleet.runs
    );
    eprintln!("{name}: {}", cost_line(&fleet, &single, &progress));
    if fleet.reap > REAP_LIMIT {
        return Err(format!(
            "{name}: reaping {WORKERS} idle workers took {:?} (limit {REAP_LIMIT:?})",
            fleet.reap
        ));
    }
    if let Some((w, _)) = progress
        .worker_progress()
        .iter()
        .find(|(_, p)| p.connected && p.shards_assigned == 0)
    {
        return Err(format!("{name}: live worker {w} was never leased a shard"));
    }
    drop(wd);

    let wd = watchdog::guard(&format!("{name}:kill-worker"));
    let progress = Arc::new(ProgressCollector::new());
    // Worker 0 completes one shard, then dies holding its next one.
    let fleet = distributed(
        name,
        vec![WorkerOptions {
            fail_after: Some(1),
            ..WorkerOptions::default()
        }],
        &progress,
    )?;
    if fleet.report != single.report {
        return Err(format!("{name}: worker-kill recovery changed the report"));
    }
    if fleet.runs != single.runs {
        return Err(format!(
            "{name}: worker-kill recovery changed run accounting ({} → {})",
            single.runs, fleet.runs
        ));
    }
    let snap = progress.snapshot();
    if snap.workers_lost != 1 {
        return Err(format!(
            "{name}: exactly the killed worker should be lost (saw {})",
            snap.workers_lost
        ));
    }
    eprintln!(
        "{name}: worker kill mid-phase recovered identically ({} reassigned, {} runs)",
        snap.shards_reassigned, fleet.runs
    );
    eprintln!("{name}: {}", cost_line(&fleet, &single, &progress));
    drop(wd);
    Ok(())
}

fn main() -> ExitCode {
    if std::env::var_os("CSNAKE_DAEMON_SMOKE").is_none() {
        eprintln!("daemon_smoke: set CSNAKE_DAEMON_SMOKE=1 to run the distributed smoke campaigns");
        return ExitCode::SUCCESS;
    }
    for name in ["kafka-isr", &format!("gen:{GEN_SEED}")] {
        if let Err(e) = smoke_target(name) {
            eprintln!("daemon_smoke: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!("daemon_smoke: all distributed campaigns bit-identical to single-process");
    ExitCode::SUCCESS
}
