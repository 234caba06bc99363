//! csnake-daemon: a distributed campaign service.
//!
//! The single-process pipeline runs every experiment on one machine's
//! worker pool. This crate scales the allocation stage out across
//! processes: a **coordinator** owns the staged [`Session`] and the 3PA
//! plan, shards each phase's batch across N **workers**, and merges the
//! results deterministically by batch index — so a distributed campaign's
//! [`DetectionReport`] is bit-identical to the single-process one, for any
//! worker count, including a fleet that loses workers mid-phase.
//!
//! The pieces, bottom-up:
//!
//! * [`wire`] — the frame codec: [`Persist`]-encoded messages in
//!   length-prefixed, versioned, checksummed `CSNW` containers (the
//!   `.csnake` snapshot discipline, applied to a socket).
//! * [`transport`] — endpoint plumbing over byte streams (TCP, child
//!   stdio) and in-process channels.
//! * [`worker`] — the stateless shard executor: resolve the target by
//!   name, rebuild the driver from the Hello's shipped profile artifact
//!   (re-profiling deterministically only when the artifact is empty),
//!   serve `Assign`→`Result`, exit the moment the serving loop returns.
//! * [`coordinator`] — [`DistributedEngine`], an
//!   [`ExperimentEngine`](csnake_core::ExperimentEngine) that plans
//!   locally and executes remotely: batches cut into shards by position
//!   alone, per-shard leases waited on as deadlines (there is no polling
//!   tick), reassignment, degrade-to-gaps, and wire-level chaos sites.
//! * [`targets`] — the shared target-name resolver.
//!
//! The `csnake-daemon` binary wraps the same pieces as `run` (spawn local
//! worker processes), `serve` (TCP coordinator) and `work` (a worker over
//! stdio or TCP).
//!
//! # In-process quick start
//!
//! ```
//! use csnake_daemon::{run_distributed, RunOptions};
//! use csnake_core::DetectConfig;
//!
//! let run = run_distributed("toy", DetectConfig::default(), 2, RunOptions::default())
//!     .expect("distributed campaign");
//! assert!(run.report.experiments_run > 0);
//! ```
//!
//! [`Session`]: csnake_core::Session
//! [`DetectionReport`]: csnake_core::DetectionReport
//! [`Persist`]: csnake_core::Persist

pub mod coordinator;
pub mod targets;
pub mod transport;
pub mod wire;
pub mod worker;

use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;

use csnake_core::alloc::AllocationStrategy;
use csnake_core::error::Result;
use csnake_core::{
    CampaignObserver, CampaignOutcome, DetectConfig, DetectionReport, Session, Stage, TargetSystem,
    ThreePhase,
};

pub use coordinator::{DaemonConfig, DistributedEngine};
pub use transport::{channel_pair, Endpoint};
pub use worker::{run_worker, WorkerOptions};

/// Options for [`run_distributed`].
#[derive(Default)]
pub struct RunOptions {
    /// Coordinator knobs (shard size, lease, attempts).
    pub daemon: DaemonConfig,
    /// Campaign observer for the coordinator-side session (workers report
    /// through the wire, not directly).
    pub observer: Option<Arc<dyn CampaignObserver>>,
    /// Stream mid-phase checkpoints to this path every `cadence`
    /// experiments, exactly like the single-process supervisor.
    pub checkpoint: Option<(PathBuf, usize)>,
    /// Per-worker fault-injection knobs (index-aligned; missing entries
    /// get well-behaved defaults). Test-only in spirit.
    pub worker_opts: Vec<WorkerOptions>,
}

/// A finished distributed campaign.
pub struct DistributedRun {
    /// The final report — bit-identical to the single-process run.
    pub report: DetectionReport,
    /// The allocation-stage artifact (budget, runs, edge counts).
    pub outcome: CampaignOutcome,
}

/// Spawns `n` in-process worker threads, each serving one side of a
/// channel transport, and returns the coordinator-side endpoints plus the
/// thread handles (joined once their connections close).
pub fn spawn_thread_workers(
    n: usize,
    opts: &[WorkerOptions],
) -> (Vec<Endpoint>, Vec<JoinHandle<Result<()>>>) {
    let mut endpoints = Vec::with_capacity(n);
    let mut handles = Vec::with_capacity(n);
    for i in 0..n {
        let (coord_side, worker_side) = channel_pair();
        let wopts = opts.get(i).cloned().unwrap_or_default();
        handles.push(std::thread::spawn(move || run_worker(worker_side, wopts)));
        endpoints.push(coord_side);
    }
    (endpoints, handles)
}

/// Drives a session from its current stage to a report on a worker fleet.
///
/// Profiles locally if needed (the coordinator always owns the plan),
/// runs the allocation stage through a [`DistributedEngine`] over
/// `endpoints`, then stitches and reports in-process. Works for fresh
/// sessions and for sessions resumed from (possibly mid-phase, possibly
/// shard-island-bearing) checkpoints.
pub fn drive_session(
    session: &mut Session<'_>,
    target_name: &str,
    endpoints: Vec<Endpoint>,
    dcfg: DaemonConfig,
    strategy: &dyn AllocationStrategy,
) -> Result<(DetectionReport, CampaignOutcome)> {
    if session.stage() == Stage::Built {
        session.profile()?;
    }
    let cfg = session.config().clone();
    let mut engine = {
        let target = session.target();
        let driver = session.engine_mut().expect("profiled session has a driver");
        DistributedEngine::connect(target_name, target, &cfg, driver, endpoints, dcfg)?
    };
    let outcome = session.allocate_with_engine(strategy, &mut engine)?;
    engine.shutdown();
    session.stitch()?;
    let report = session.report()?.clone();
    Ok((report, outcome))
}

/// Runs a complete distributed campaign against `target_name` with `n`
/// in-process worker threads — the library-level equivalent of
/// `csnake-daemon run -j N --target <name>`.
pub fn run_distributed(
    target_name: &str,
    cfg: DetectConfig,
    n: usize,
    opts: RunOptions,
) -> Result<DistributedRun> {
    let target = targets::resolve(target_name)?;
    run_on_target(target.as_ref(), target_name, cfg, n, opts)
}

fn run_on_target(
    target: &dyn TargetSystem,
    target_name: &str,
    cfg: DetectConfig,
    n: usize,
    opts: RunOptions,
) -> Result<DistributedRun> {
    let (endpoints, handles) = spawn_thread_workers(n, &opts.worker_opts);
    let mut builder = Session::builder(target).config(cfg);
    if let Some(observer) = &opts.observer {
        builder = builder.observer(Arc::clone(observer));
    }
    if let Some((path, cadence)) = &opts.checkpoint {
        builder = builder.auto_checkpoint(path, *cadence);
    }
    let mut session = builder.build()?;
    let driven = drive_session(
        &mut session,
        target_name,
        endpoints,
        opts.daemon,
        &ThreePhase::default(),
    );
    // Workers exit on Shutdown or hangup either way; reap them before
    // surfacing the campaign result so a failure can't leak threads.
    for h in handles {
        let _ = h.join();
    }
    let (report, outcome) = driven?;
    Ok(DistributedRun { report, outcome })
}
