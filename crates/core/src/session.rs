//! The staged detection session: CSnake's primary public API.
//!
//! The paper's pipeline (Fig. 3) is inherently staged — profile runs →
//! static filtering → fault-injection campaign with FCA → causal stitching
//! → report — and [`Session`] exposes exactly those stages:
//!
//! ```ignore
//! use std::sync::Arc;
//! use csnake_core::{Session, ThreePhase, ProgressCollector, DetectConfig};
//!
//! let progress = Arc::new(ProgressCollector::new());
//! let mut session = Session::builder(&target)
//!     .config(DetectConfig::default())
//!     .observer(progress.clone())
//!     .build()?;
//!
//! let profiled = session.profile()?;                      // Fig. 3 steps 1–2
//! session.checkpoint("campaign.csnake")?;                 // durable boundary
//! let outcome = session.allocate(&ThreePhase::default())?; // 3PA + FCA
//! let stitched = session.stitch()?;                       // beam search
//! let report = session.report()?;                         // ground-truth match
//! ```
//!
//! Each stage returns a serializable artifact ([`Profiled`],
//! [`CampaignOutcome`], [`StitchedCycles`], [`DetectionReport`]); the heavy
//! intermediate state stays inside the session, reachable through accessors
//! ([`Session::allocation`], [`Session::stitched`], …).
//!
//! # Checkpoint / resume
//!
//! At any stage boundary the session can be written to a versioned
//! `.csnake` snapshot ([`Session::checkpoint`]) and later resumed
//! ([`Session::resume`]) against the same target. Snapshots store the
//! expensive simulator output (profile traces, allocation results, stitched
//! cycles) plus every seed; derived state is rebuilt deterministically, so
//! a resumed session produces *bit-identical* results to an uninterrupted
//! one — `tests/session_equivalence.rs` proves it at every boundary.
//!
//! # Strategies and observers
//!
//! The campaign stage is parameterised by an [`AllocationStrategy`] — the
//! paper's Three-Phase Allocation ([`crate::ThreePhase`]), the random
//! baseline ([`crate::alloc::RandomAllocation`]), or any external
//! policy over an [`ExperimentEngine`]
//! (`csnake_baselines` ships two more). Progress streams to the session's
//! [`CampaignObserver`] as it happens; see [`crate::observer`] for the
//! event vocabulary.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::Serialize;

use crate::alloc::{
    AllocationResult, AllocationStrategy, CheckpointSink, ExperimentEngine, MidPhaseState,
    RecoveryContext,
};
use crate::beam::{beam_search, cluster_cycles, Cycle, CycleCluster};
use crate::chaos::ChaosInjector;
use crate::driver::Driver;
use crate::error::{CsnakeError, Result};
use crate::observer::{CampaignEvent, CampaignObserver, NoopObserver};
use crate::report::{build_report, DetectionReport};
use crate::snapshot::Snapshot;
use crate::target::TargetSystem;
use crate::{DetectConfig, Detection};

/// The session's position in the staged pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Built, nothing executed yet.
    Built,
    /// Profile runs executed, static filters applied.
    Profiled,
    /// The fault-injection campaign ran; the causal database is populated.
    Allocated,
    /// The beam search stitched and clustered the causal cycles.
    Stitched,
    /// The detection report was built.
    Reported,
}

impl Stage {
    /// Stable snapshot tag. [`Stage::Reported`] is never written: its only
    /// content beyond [`Stage::Stitched`] is the report, which is rebuilt
    /// deterministically on demand.
    pub(crate) fn tag(self) -> u8 {
        match self {
            Stage::Built => 0,
            Stage::Profiled => 1,
            Stage::Allocated => 2,
            Stage::Stitched | Stage::Reported => 3,
        }
    }

    pub(crate) fn from_tag(tag: u8) -> Result<Stage> {
        Ok(match tag {
            0 => Stage::Built,
            1 => Stage::Profiled,
            2 => Stage::Allocated,
            3 => Stage::Stitched,
            n => {
                return Err(CsnakeError::SnapshotCorrupt(format!("bad stage tag {n}")));
            }
        })
    }
}

/// Artifact of [`Session::profile`]: what profiling and static filtering
/// established about the target.
#[derive(Debug, Clone, Serialize)]
pub struct Profiled {
    /// Target system name.
    pub system: String,
    /// Number of integration-test workloads profiled.
    pub tests: usize,
    /// Profile runs executed (tests × repetitions).
    pub profile_runs: usize,
    /// Fault points eligible for injection after static filtering.
    pub injectable_faults: usize,
    /// Fault points removed by the static filters.
    pub filtered_faults: usize,
}

/// Artifact of [`Session::allocate`]: the campaign summary. The full
/// [`AllocationResult`] (causal database, per-experiment outcomes, fault
/// clusters) stays in the session, reachable via [`Session::allocation`].
#[derive(Debug, Clone, Serialize)]
pub struct CampaignOutcome {
    /// Name of the allocation strategy that ran.
    pub strategy: String,
    /// Experiments executed (≤ budget).
    pub experiments_run: usize,
    /// The configured experiment budget.
    pub budget: usize,
    /// Causal edges in the database.
    pub edges: usize,
    /// Fault clusters formed by the strategy.
    pub fault_clusters: usize,
    /// Total simulator runs executed so far (profile + injection).
    pub runs_executed: usize,
}

/// Artifact of [`Session::stitch`]: the reported causal cycles (deduplicated,
/// best score first) and their clusters.
#[derive(Debug, Clone, Serialize)]
pub struct StitchedCycles {
    /// All reported cycles.
    pub cycles: Vec<Cycle>,
    /// Cycle clusters (grouped by the fault clusters of injected faults).
    pub clusters: Vec<CycleCluster>,
}

/// Builder for [`Session`]; see [`Session::builder`].
pub struct SessionBuilder<'a> {
    target: &'a dyn TargetSystem,
    cfg: Option<DetectConfig>,
    observer: Arc<dyn CampaignObserver>,
    auto_checkpoint: Option<(PathBuf, usize)>,
}

impl<'a> SessionBuilder<'a> {
    /// Sets the detection configuration (default: [`DetectConfig::default`]).
    pub fn config(mut self, cfg: DetectConfig) -> Self {
        self.cfg = Some(cfg);
        self
    }

    /// Attaches a campaign observer (default: the no-op observer).
    pub fn observer(mut self, observer: Arc<dyn CampaignObserver>) -> Self {
        self.observer = observer;
        self
    }

    /// Streams mid-phase checkpoints of the allocation campaign to `path`:
    /// after every `cadence` experiments the supervisor atomically rewrites
    /// the file with a resumable snapshot of the 3PA runner's planning
    /// state ([`CampaignEvent::CheckpointWritten`] fires per write).
    /// A session resumed from such a file continues *inside* the
    /// interrupted phase and produces a bit-identical campaign. `cadence`
    /// of zero checkpoints once per phase.
    pub fn auto_checkpoint(mut self, path: impl Into<PathBuf>, cadence: usize) -> Self {
        self.auto_checkpoint = Some((path.into(), cadence));
        self
    }

    /// Validates the target and builds an idle session.
    ///
    /// Fails with [`CsnakeError::InvalidTarget`] when the target cannot be
    /// driven (no workloads or no declared fault points) — the conditions
    /// that previously surfaced as panics or silently-empty campaigns deep
    /// inside the pipeline.
    pub fn build(self) -> Result<Session<'a>> {
        validate_target(self.target)?;
        Ok(Session {
            target: self.target,
            cfg: self.cfg.unwrap_or_default(),
            observer: self.observer,
            stage: Stage::Built,
            driver: None,
            strategy_name: None,
            alloc: None,
            stitched: None,
            report: None,
            auto_checkpoint: self.auto_checkpoint,
            pending_mid_phase: None,
        })
    }

    /// Builds the session by resuming a `.csnake` snapshot instead of
    /// starting idle. The builder's observer is kept; the configuration is
    /// taken from the snapshot (it carries every seed, which bit-identical
    /// resumption depends on), so combining `resume` with an explicit
    /// [`config`](Self::config) call is a [`CsnakeError::ConfigOverride`]
    /// rather than a silent pick between the two.
    pub fn resume(self, path: impl AsRef<Path>) -> Result<Session<'a>> {
        if self.cfg.is_some() {
            return Err(CsnakeError::ConfigOverride);
        }
        let snap = Snapshot::read_file(path)?;
        let mut session = Session::from_snapshot(self.target, snap, self.observer)?;
        session.auto_checkpoint = self.auto_checkpoint;
        Ok(session)
    }
}

/// Durability half of mid-phase checkpointing: assembles full snapshot
/// bytes from the pre-encoded profile block plus the fresh
/// [`MidPhaseState`], writes them atomically, and emits
/// [`CampaignEvent::CheckpointWritten`] after the rename. Injected
/// snapshot-IO chaos is retried within the configured transient allowance;
/// a write that still fails is reported to the runner as a missed
/// checkpoint (`false`) and the campaign continues — resume is merely
/// coarser.
struct SessionCheckpointSink {
    encoder: crate::snapshot::MidPhaseCheckpointEncoder,
    path: PathBuf,
    observer: Arc<dyn CampaignObserver>,
    chaos: ChaosInjector,
    /// Checkpoint ordinal: the chaos identity key, so injected IO faults
    /// hit the same checkpoints on every run of a given seed.
    ordinal: AtomicU64,
}

impl CheckpointSink for SessionCheckpointSink {
    fn write(&self, state: &MidPhaseState) -> bool {
        let ordinal = self.ordinal.fetch_add(1, Ordering::Relaxed);
        let attempts = self.chaos.config().transient_attempts.saturating_add(1);
        let mut cleared = false;
        for _ in 0..attempts.max(1) {
            if self.chaos.snapshot_io_hook(ordinal).is_ok() {
                cleared = true;
                break;
            }
        }
        if !cleared {
            return false;
        }
        match crate::snapshot::write_file_bytes(&self.path, &self.encoder.encode(state)) {
            Ok(()) => {
                self.observer.on_event(&CampaignEvent::CheckpointWritten {
                    path: self.path.display().to_string(),
                    phase: state.phase,
                    executed_in_phase: state.executed_in_phase,
                });
                true
            }
            Err(_) => false,
        }
    }
}

fn validate_target(target: &dyn TargetSystem) -> Result<()> {
    if target.tests().is_empty() {
        return Err(CsnakeError::InvalidTarget(format!(
            "target {:?} ships no integration-test workloads",
            target.name()
        )));
    }
    if target.registry().points().is_empty() {
        return Err(CsnakeError::InvalidTarget(format!(
            "target {:?} declares no fault points",
            target.name()
        )));
    }
    Ok(())
}

/// A staged detection campaign over one target system.
///
/// See the [module docs](self) for the stage protocol, checkpointing and
/// the observer/strategy extension points.
pub struct Session<'a> {
    target: &'a dyn TargetSystem,
    cfg: DetectConfig,
    observer: Arc<dyn CampaignObserver>,
    stage: Stage,
    driver: Option<Driver<'a>>,
    strategy_name: Option<String>,
    alloc: Option<AllocationResult>,
    stitched: Option<StitchedCycles>,
    report: Option<DetectionReport>,
    /// Mid-phase checkpoint destination and cadence (see
    /// [`SessionBuilder::auto_checkpoint`]).
    auto_checkpoint: Option<(PathBuf, usize)>,
    /// Mid-phase state recovered from a snapshot, consumed by the next
    /// [`allocate`](Session::allocate) call.
    pending_mid_phase: Option<MidPhaseState>,
}

impl<'a> Session<'a> {
    /// Starts building a session over a target.
    pub fn builder(target: &'a dyn TargetSystem) -> SessionBuilder<'a> {
        SessionBuilder {
            target,
            cfg: None,
            observer: Arc::new(NoopObserver),
            auto_checkpoint: None,
        }
    }

    /// Resumes a session from a `.csnake` snapshot with the no-op observer.
    pub fn resume(target: &'a dyn TargetSystem, path: impl AsRef<Path>) -> Result<Session<'a>> {
        Session::builder(target).resume(path)
    }

    /// Rebuilds a session from a decoded [`Snapshot`].
    ///
    /// Heavy state is restored verbatim; derived state (coverage, dynamic
    /// call graph, static filters, profile indexes, database indexes) is
    /// recomputed deterministically, so the resumed session behaves exactly
    /// like the one that wrote the snapshot.
    pub fn from_snapshot(
        target: &'a dyn TargetSystem,
        snap: Snapshot,
        observer: Arc<dyn CampaignObserver>,
    ) -> Result<Session<'a>> {
        if snap.target != target.name() {
            return Err(CsnakeError::TargetMismatch {
                snapshot: snap.target,
                actual: target.name().to_string(),
            });
        }
        validate_target(target)?;
        // Same name is not enough: a target whose fault-point inventory
        // changed since the checkpoint would silently reinterpret every
        // stored FaultId.
        let actual_fp = crate::snapshot::registry_fingerprint(&target.registry());
        if snap.registry_fp != actual_fp {
            return Err(CsnakeError::RegistryMismatch {
                snapshot: snap.registry_fp,
                actual: actual_fp,
            });
        }

        let mut session = Session {
            target,
            cfg: snap.cfg,
            observer,
            stage: Stage::Built,
            driver: None,
            // Written with a completed allocation or a mid-phase section;
            // `allocate` refuses to continue the latter under another name.
            strategy_name: snap.strategy,
            alloc: None,
            stitched: None,
            report: None,
            auto_checkpoint: None,
            pending_mid_phase: None,
        };
        if let Some(profiles) = snap.profiles {
            session.driver = Some(Driver::from_profiles(
                target,
                session.cfg.driver.clone(),
                profiles,
                snap.runs_executed,
            ));
            session.stage = Stage::Profiled;
        }
        if let Some(alloc) = snap.alloc {
            if session.driver.is_none() {
                return Err(CsnakeError::SnapshotCorrupt(
                    "allocation section without a profile section".into(),
                ));
            }
            session.alloc = Some(alloc);
            session.stage = Stage::Allocated;
        }
        if let Some(stitched) = snap.stitched {
            if session.alloc.is_none() {
                return Err(CsnakeError::SnapshotCorrupt(
                    "stitch section without an allocation section".into(),
                ));
            }
            session.stitched = Some(stitched);
            session.stage = Stage::Stitched;
        }
        if let Some(mid) = snap.mid_phase {
            if session.driver.is_none() {
                return Err(CsnakeError::SnapshotCorrupt(
                    "mid-phase section without a profile section".into(),
                ));
            }
            if session.alloc.is_some() {
                return Err(CsnakeError::SnapshotCorrupt(
                    "mid-phase section alongside a completed allocation".into(),
                ));
            }
            session.pending_mid_phase = Some(mid);
        }
        if session.stage != snap.stage {
            return Err(CsnakeError::SnapshotCorrupt(format!(
                "stage tag {:?} does not match populated sections ({:?})",
                snap.stage, session.stage
            )));
        }
        Ok(session)
    }

    fn expect_stage(&self, expected: Stage) -> Result<()> {
        if self.stage == expected {
            Ok(())
        } else {
            Err(CsnakeError::StageOrder {
                expected,
                found: self.stage,
            })
        }
    }

    /// Current stage.
    pub fn stage(&self) -> Stage {
        self.stage
    }

    /// The session's detection configuration.
    pub fn config(&self) -> &DetectConfig {
        &self.cfg
    }

    /// The target under detection. Returns the session-lifetime borrow
    /// (not one tied to `&self`), so it can coexist with
    /// [`engine_mut`](Self::engine_mut) — the daemon's coordinator needs
    /// both at once.
    pub fn target(&self) -> &'a dyn TargetSystem {
        self.target
    }

    /// Static-analysis result (available from [`Stage::Profiled`]).
    pub fn analysis(&self) -> Option<&csnake_analyzer::Analysis> {
        self.driver.as_ref().map(|d| &d.analysis)
    }

    /// Full allocation result (available from [`Stage::Allocated`]).
    pub fn allocation(&self) -> Option<&AllocationResult> {
        self.alloc.as_ref()
    }

    /// Stitched cycles and clusters (available from [`Stage::Stitched`]).
    pub fn stitched(&self) -> Option<&StitchedCycles> {
        self.stitched.as_ref()
    }

    /// The detection report (available from [`Stage::Reported`]).
    pub fn detection_report(&self) -> Option<&DetectionReport> {
        self.report.as_ref()
    }

    /// Total simulator runs executed so far.
    pub fn runs_executed(&self) -> usize {
        self.driver.as_ref().map(|d| d.runs_executed).unwrap_or(0)
    }

    /// The profiled experiment engine (available from [`Stage::Profiled`]).
    ///
    /// Comparison harnesses — `gen_eval`'s random-allocation baseline, an
    /// external [`AllocationStrategy`] study — can run additional
    /// engine-level campaigns over the same profile runs (and, with
    /// [`DriverConfig::cache_injections`](crate::driver::DriverConfig::cache_injections),
    /// the same recorded injection runs) without re-profiling the target.
    /// Stage artifacts the session has already captured are unaffected.
    pub fn engine_mut(&mut self) -> Option<&mut Driver<'a>> {
        self.driver.as_mut()
    }

    /// Stage 1–2 (Fig. 3): profile every workload, derive coverage and the
    /// dynamic call graph, and apply the static filters.
    pub fn profile(&mut self) -> Result<Profiled> {
        self.expect_stage(Stage::Built)?;
        self.observer
            .on_event(&CampaignEvent::StageStarted(Stage::Profiled));
        let driver = Driver::new(self.target, self.cfg.driver.clone());
        let artifact = Profiled {
            system: self.target.name().to_string(),
            tests: self.target.tests().len(),
            profile_runs: driver.runs_executed,
            injectable_faults: driver.analysis.injectable.len(),
            filtered_faults: driver.analysis.filtered.len(),
        };
        self.driver = Some(driver);
        self.stage = Stage::Profiled;
        self.observer
            .on_event(&CampaignEvent::StageFinished(Stage::Profiled));
        Ok(artifact)
    }

    /// Stage 3 (Fig. 3): run the fault-injection campaign under an
    /// allocation strategy, populating the causal database.
    ///
    /// Runs under the campaign supervisor: experiment jobs that panic or
    /// stall are quarantined and retried per
    /// [`RetryConfig`](crate::driver::RetryConfig); cells that fail
    /// permanently become enumerated gaps rather than aborting the
    /// campaign (the observer sees [`CampaignEvent::Degraded`]). With
    /// [`auto_checkpoint`](SessionBuilder::auto_checkpoint) configured,
    /// mid-phase checkpoints stream to disk as the campaign progresses; a
    /// session resumed from one continues inside the interrupted phase.
    pub fn allocate(&mut self, strategy: &dyn AllocationStrategy) -> Result<CampaignOutcome> {
        self.allocate_on(strategy, None)
    }

    /// Stage 3 on an *external* engine: like [`allocate`](Self::allocate),
    /// but the experiments run through `engine` instead of the session's
    /// own profiled [`Driver`].
    ///
    /// This is the seam the daemon's coordinator uses: the session profiles
    /// locally (so the 3PA plan tables, static filters and final report
    /// derive from the coordinator's own traces), while the engine fans the
    /// planned batches out to worker processes and merges their results by
    /// batch index. Everything else — checkpoint sink, mid-phase resume,
    /// observer wiring, gap/degraded accounting — behaves exactly as in
    /// [`allocate`](Self::allocate); the engine's executed-run counter is
    /// folded into the session's accounting afterwards. With an engine that
    /// reproduces [`Driver`] outcomes (same plans, same seeds), the
    /// resulting report is bit-identical to a single-process run.
    pub fn allocate_with_engine(
        &mut self,
        strategy: &dyn AllocationStrategy,
        engine: &mut dyn ExperimentEngine,
    ) -> Result<CampaignOutcome> {
        self.allocate_on(strategy, Some(engine))
    }

    /// The one body behind [`allocate`](Self::allocate) and
    /// [`allocate_with_engine`](Self::allocate_with_engine): runs the
    /// campaign on `external`, or on the session's own driver when `None`.
    fn allocate_on(
        &mut self,
        strategy: &dyn AllocationStrategy,
        external: Option<&mut dyn ExperimentEngine>,
    ) -> Result<CampaignOutcome> {
        self.expect_stage(Stage::Profiled)?;
        // A mid-phase checkpoint only continues under the strategy that
        // wrote it; any other policy would silently discard its outcomes.
        if let (Some(_), Some(snapshot)) = (&self.pending_mid_phase, &self.strategy_name) {
            if snapshot != strategy.name() {
                return Err(CsnakeError::StrategyMismatch {
                    snapshot: snapshot.clone(),
                    actual: strategy.name().to_string(),
                });
            }
        }
        self.observer
            .on_event(&CampaignEvent::StageStarted(Stage::Allocated));
        let resume = self.pending_mid_phase.take();
        let driver = self.driver.as_mut().expect("profiled session has a driver");
        let sink = self
            .auto_checkpoint
            .as_ref()
            .map(|(path, _)| SessionCheckpointSink {
                encoder: crate::snapshot::MidPhaseCheckpointEncoder::new(
                    self.target.name(),
                    crate::snapshot::registry_fingerprint(&self.target.registry()),
                    &self.cfg,
                    driver.profiles(),
                    strategy.name(),
                ),
                path: path.clone(),
                observer: self.observer.clone(),
                chaos: ChaosInjector::new(self.cfg.driver.chaos.clone()),
                ordinal: AtomicU64::new(0),
            });
        let recovery = RecoveryContext {
            sink: sink.as_ref().map(|s| s as &dyn CheckpointSink),
            cadence: self.auto_checkpoint.as_ref().map_or(0, |&(_, c)| c),
            resume,
        };
        let is_external = external.is_some();
        let engine: &mut dyn ExperimentEngine = match external {
            Some(engine) => engine,
            None => driver,
        };
        engine.attach_observer(self.observer.clone());
        let alloc = strategy.run(engine, &*self.observer, recovery);
        let (hits, misses) = engine.trace_cache_stats();
        self.observer
            .on_event(&CampaignEvent::TraceCache { hits, misses });
        // The session's driver counts its own runs; an external engine's
        // are folded in here.
        let engine_runs = if is_external {
            engine.runs_executed()
        } else {
            0
        };
        let driver = self.driver.as_mut().expect("profiled session has a driver");
        driver.runs_executed += engine_runs;
        if !alloc.gaps.is_empty() {
            self.observer.on_event(&CampaignEvent::Degraded {
                missing: alloc.gaps.len(),
            });
        }
        let artifact = CampaignOutcome {
            strategy: strategy.name().to_string(),
            experiments_run: alloc.experiments_run,
            budget: alloc.budget,
            edges: alloc.db.len(),
            fault_clusters: alloc.clusters.len(),
            runs_executed: driver.runs_executed,
        };
        self.strategy_name = Some(strategy.name().to_string());
        self.alloc = Some(alloc);
        self.stage = Stage::Allocated;
        self.observer
            .on_event(&CampaignEvent::StageFinished(Stage::Allocated));
        Ok(artifact)
    }

    /// Stage 4 (Fig. 3): stitch the causal database into cycles with the
    /// parallel beam search and cluster the reported cycles.
    pub fn stitch(&mut self) -> Result<&StitchedCycles> {
        self.expect_stage(Stage::Allocated)?;
        self.observer
            .on_event(&CampaignEvent::StageStarted(Stage::Stitched));
        let alloc = self.alloc.as_ref().expect("allocated session has a result");
        let sim_of = |f| alloc.sim_score_of(f);
        let cycles = beam_search(&alloc.db, &sim_of, &self.cfg.beam);
        for cycle in &cycles {
            self.observer.on_event(&CampaignEvent::cycle_found(cycle));
        }
        let clusters = cluster_cycles(&cycles, &alloc.db, &alloc.cluster_of);
        self.stitched = Some(StitchedCycles { cycles, clusters });
        self.stage = Stage::Stitched;
        self.observer
            .on_event(&CampaignEvent::StageFinished(Stage::Stitched));
        Ok(self.stitched.as_ref().expect("just set"))
    }

    /// Stage 5: match cycles against ground truth and classify clusters.
    pub fn report(&mut self) -> Result<&DetectionReport> {
        self.expect_stage(Stage::Stitched)?;
        self.observer
            .on_event(&CampaignEvent::StageStarted(Stage::Reported));
        let alloc = self.alloc.as_ref().expect("allocated session has a result");
        let stitched = self.stitched.as_ref().expect("stitched session has cycles");
        let report = build_report(
            self.target,
            alloc,
            stitched.cycles.clone(),
            stitched.clusters.clone(),
        );
        self.report = Some(report);
        self.stage = Stage::Reported;
        self.observer
            .on_event(&CampaignEvent::StageFinished(Stage::Reported));
        Ok(self.report.as_ref().expect("just set"))
    }

    /// Drives every remaining stage in order and returns the final report.
    pub fn run_to_report(&mut self, strategy: &dyn AllocationStrategy) -> Result<&DetectionReport> {
        if self.stage == Stage::Built {
            self.profile()?;
        }
        if self.stage == Stage::Profiled {
            self.allocate(strategy)?;
        }
        if self.stage == Stage::Allocated {
            self.stitch()?;
        }
        if self.stage == Stage::Stitched {
            self.report()?;
        }
        self.report.as_ref().ok_or(CsnakeError::StageOrder {
            expected: Stage::Stitched,
            found: self.stage,
        })
    }

    /// Serializes the session's current stage boundary into an owned
    /// [`Snapshot`] (clones the heavy sections — use
    /// [`checkpoint`](Self::checkpoint) to write straight to disk without
    /// the copies).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            target: self.target.name().to_string(),
            registry_fp: crate::snapshot::registry_fingerprint(&self.target.registry()),
            cfg: self.cfg.clone(),
            stage: Stage::from_tag(self.stage.tag()).expect("own tag is valid"),
            runs_executed: self.runs_executed(),
            profiles: self.driver.as_ref().map(|d| d.profiles().clone()),
            strategy: self.strategy_name.clone(),
            alloc: self.alloc.clone(),
            stitched: self.stitched.clone(),
            mid_phase: self.pending_mid_phase.clone(),
        }
    }

    /// Writes the current stage boundary to a versioned `.csnake` file,
    /// encoding directly from borrowed session state (the profile traces
    /// and allocation result dominate session memory; checkpointing must
    /// not transiently double it).
    pub fn checkpoint(&self, path: impl AsRef<Path>) -> Result<()> {
        let bytes = crate::snapshot::SnapshotFields {
            target: self.target.name(),
            registry_fp: crate::snapshot::registry_fingerprint(&self.target.registry()),
            cfg: &self.cfg,
            stage: self.stage,
            runs_executed: self.runs_executed(),
            profiles: self.driver.as_ref().map(|d| d.profiles()),
            strategy: self.strategy_name.as_ref(),
            alloc: self.alloc.as_ref(),
            stitched: self.stitched.as_ref(),
            mid_phase: self.pending_mid_phase.as_ref(),
        }
        .to_bytes();
        crate::snapshot::write_file_bytes(path.as_ref(), &bytes)
    }

    /// Consumes a reported session into the legacy [`Detection`] bundle.
    pub fn into_detection(mut self) -> Result<Detection> {
        self.expect_stage(Stage::Reported)?;
        let driver = self.driver.take().expect("reported session has a driver");
        Ok(Detection {
            analysis: driver.analysis.clone(),
            runs_executed: driver.runs_executed,
            alloc: self.alloc.take().expect("reported session has a result"),
            report: self.report.take().expect("reported session has a report"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::ThreePhase;
    use crate::observer::ProgressCollector;
    use csnake_inject::{InjectionPlan, Registry, RegistryBuilder, RunTrace, TestId};
    use std::sync::Arc as StdArc;

    /// A target with no workloads: construction must fail typed, not panic.
    struct NoTests(StdArc<Registry>);

    impl TargetSystem for NoTests {
        fn name(&self) -> &'static str {
            "no-tests"
        }
        fn registry(&self) -> StdArc<Registry> {
            self.0.clone()
        }
        fn tests(&self) -> Vec<crate::target::TestCase> {
            Vec::new()
        }
        fn run(&self, _t: TestId, _p: Option<InjectionPlan>, _s: u64) -> RunTrace {
            RunTrace::default()
        }
    }

    #[test]
    fn building_an_undrivable_target_is_a_typed_error() {
        let mut b = RegistryBuilder::new("no-tests");
        let f = b.func("X.f");
        b.workload_loop(f, 1, false, "lp");
        let target = NoTests(StdArc::new(b.build()));
        match Session::builder(&target).build() {
            Err(CsnakeError::InvalidTarget(why)) => assert!(why.contains("workloads"), "{why}"),
            other => panic!("expected InvalidTarget, got {:?}", other.map(|_| ())),
        }
    }

    /// Minimal drivable target: one no-op workload over a given registry.
    struct OneTest(StdArc<Registry>);

    impl TargetSystem for OneTest {
        fn name(&self) -> &'static str {
            "one-test"
        }
        fn registry(&self) -> StdArc<Registry> {
            self.0.clone()
        }
        fn tests(&self) -> Vec<crate::target::TestCase> {
            vec![crate::target::TestCase {
                id: TestId(0),
                name: "t0",
                description: "noop",
            }]
        }
        fn run(&self, _t: TestId, _p: Option<InjectionPlan>, _s: u64) -> RunTrace {
            RunTrace::default()
        }
    }

    fn one_test_target(loop_label: &'static str) -> OneTest {
        let mut b = RegistryBuilder::new("t");
        let f = b.func("X.f");
        b.workload_loop(f, 1, false, loop_label);
        OneTest(StdArc::new(b.build()))
    }

    #[test]
    fn stage_order_is_enforced() {
        let target = one_test_target("lp");
        let mut s = Session::builder(&target).build().unwrap();
        assert_eq!(s.stage(), Stage::Built);

        // stitch() before profile()/allocate() is a typed stage error.
        match s.stitch() {
            Err(CsnakeError::StageOrder { expected, found }) => {
                assert_eq!(expected, Stage::Allocated);
                assert_eq!(found, Stage::Built);
            }
            other => panic!("expected StageOrder, got {:?}", other.map(|_| ())),
        }

        // The full staged run works and the observer sees all four stages.
        let progress = StdArc::new(ProgressCollector::new());
        let mut s = Session::builder(&target)
            .observer(progress.clone())
            .build()
            .unwrap();
        s.profile().unwrap();
        s.allocate(&ThreePhase::default()).unwrap();
        s.stitch().unwrap();
        s.report().unwrap();
        assert_eq!(s.stage(), Stage::Reported);
        assert_eq!(progress.snapshot().stages_finished, 4);

        // Re-running a finished stage is also a typed error.
        assert!(matches!(s.profile(), Err(CsnakeError::StageOrder { .. })));
    }

    #[test]
    fn registry_drift_is_rejected_on_resume() {
        // Checkpoint against one inventory, resume against a same-named
        // target whose fault points changed: typed RegistryMismatch.
        let original = one_test_target("lp");
        let mut s = Session::builder(&original).build().unwrap();
        s.profile().unwrap();
        let snap = s.snapshot();
        let bytes = snap.to_bytes();

        let drifted = one_test_target("lp_renamed");
        let reread = crate::snapshot::Snapshot::from_bytes(&bytes).unwrap();
        match Session::from_snapshot(&drifted, reread, StdArc::new(crate::observer::NoopObserver)) {
            Err(CsnakeError::RegistryMismatch { snapshot, actual }) => {
                assert_ne!(snapshot, actual);
            }
            other => panic!(
                "expected RegistryMismatch, got {:?}",
                other.map(|s| s.stage())
            ),
        }

        // The unchanged target still resumes fine.
        let reread = crate::snapshot::Snapshot::from_bytes(&bytes).unwrap();
        let resumed = Session::from_snapshot(
            &original,
            reread,
            StdArc::new(crate::observer::NoopObserver),
        )
        .expect("same inventory resumes");
        assert_eq!(resumed.stage(), Stage::Profiled);
    }

    #[test]
    fn resume_with_explicit_config_is_rejected() {
        let target = one_test_target("lp");
        match Session::builder(&target)
            .config(crate::DetectConfig::default())
            .resume("/nonexistent.csnake")
        {
            Err(CsnakeError::ConfigOverride) => {}
            other => panic!(
                "expected ConfigOverride, got {:?}",
                other.map(|s| s.stage())
            ),
        }
    }

    #[test]
    fn checkpoint_writes_the_same_bytes_as_the_owned_snapshot() {
        let target = one_test_target("lp");
        let mut s = Session::builder(&target).build().unwrap();
        s.profile().unwrap();
        s.allocate(&ThreePhase::default()).unwrap();
        let path = std::env::temp_dir().join(format!(
            "csnake-session-checkpoint-{}.csnake",
            std::process::id()
        ));
        s.checkpoint(&path).unwrap();
        let on_disk = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            on_disk,
            s.snapshot().to_bytes(),
            "borrowed and owned encoders must agree byte for byte"
        );
    }
}
