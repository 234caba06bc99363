//! CSnake core: detecting self-sustaining cascading failures via causal
//! stitching of fault propagations.
//!
//! # The staged `Session` API
//!
//! The paper's pipeline (Fig. 3) is staged — profile runs → static
//! filtering → fault injection with FCA → causal stitching → report — and
//! the crate's primary entry point, [`Session`], exposes exactly those
//! stages:
//!
//! ```ignore
//! use std::sync::Arc;
//! use csnake_core::{DetectConfig, ProgressCollector, Session, ThreePhase};
//!
//! let target = csnake_targets::toy::ToySystem::new();
//! let progress = Arc::new(ProgressCollector::new());
//! let mut session = Session::builder(&target)
//!     .config(DetectConfig::default())
//!     .observer(progress.clone())
//!     .build()?;
//!
//! let profiled = session.profile()?;              // → `Profiled`
//! session.checkpoint("campaign.csnake")?;         // durable stage boundary
//! session.allocate(&ThreePhase::default())?;      // → `CampaignOutcome`
//! session.stitch()?;                              // → `StitchedCycles`
//! let report = session.report()?;                 // → `DetectionReport`
//! for m in &report.matches {
//!     println!("found {} ({}): {}", m.bug.id, m.bug.jira, m.composition);
//! }
//! ```
//!
//! Each stage returns a serializable artifact ([`Profiled`],
//! [`CampaignOutcome`], [`StitchedCycles`], [`DetectionReport`]); the heavy
//! intermediate state stays inside the session behind accessors. Three
//! extension points hang off the session:
//!
//! * **[`AllocationStrategy`]** — the campaign stage is parameterised by an
//!   object-safe budget-allocation policy over an [`ExperimentEngine`]:
//!   the paper's [`ThreePhase`] protocol, the [`RandomAllocation`]
//!   baseline, or external policies (`csnake_baselines::strategies`).
//! * **[`CampaignObserver`]** — a first-class event stream: one
//!   [`CampaignEvent`] per stage/phase boundary, experiment completion,
//!   causal edge entering the database, cycle the stitcher reports and
//!   budget movement, delivered through one `on_event`; a
//!   [`NoopObserver`] and a counting [`ProgressCollector`] are bundled.
//!   The enum is the full vocabulary.
//! * **Checkpoint/resume** — [`Session::checkpoint`] writes a versioned
//!   `.csnake` snapshot at any stage boundary and [`Session::resume`]
//!   continues it later; resumed campaigns are bit-identical to
//!   uninterrupted ones (see [`snapshot`]). Misuse surfaces as typed
//!   [`CsnakeError`]s, never panics.
//!
//! The one-shot [`detect`] call remains as a thin shim over a staged
//! session running [`ThreePhase`].
//!
//! # Operating campaigns
//!
//! Long campaigns fail in boring ways — a flaky target panics a worker, a
//! disk write is interrupted, the process is killed mid-phase — and the
//! session layer is built to survive all three without perturbing results:
//!
//! * **Per-batch isolation and retry.** The driver streams every batch's
//!   simulator runs through a panic-isolating pool ([`pool`]); a panicking
//!   run (or chaos hook, or FCA) fails only its own experiment, which is
//!   re-expanded and retried on a bounded, deterministic exponential
//!   backoff schedule ([`RetryConfig`] — backoff paces wall-clock only and
//!   never enters results). Outcomes are merged in batch-index order, so a
//!   campaign that needed retries is bit-identical to one that never
//!   failed.
//! * **Graceful degradation.** A cell that fails every retry becomes a
//!   *gap*, not an abort: the campaign completes, the observer sees
//!   [`CampaignEvent::BatchFailed`] and [`CampaignEvent::Degraded`],
//!   and the final [`DetectionReport`] is annotated with the missing
//!   `(fault, test, phase)` cells
//!   ([`DetectionReport::missing_cells`] / [`DetectionReport::degraded`]).
//! * **Mid-phase checkpoints.** [`SessionBuilder::auto_checkpoint`]
//!   streams checkpoints *inside* the allocation stage (every
//!   `cadence` experiments): the 3PA planner's RNG state and used-set are
//!   captured at phase entry, so a resumed campaign replans the identical
//!   batch and skips the already-executed prefix. Every write is atomic —
//!   staged to a `.csnake.tmp` sibling, fsynced, then renamed — and a
//!   half-written file is rejected as typed [`CsnakeError::SnapshotTorn`]
//!   rather than resumed wrongly. Resume from *any* checkpoint reproduces
//!   the uninterrupted report Debug-identically
//!   (`tests/supervisor_recovery.rs` proves the full kill matrix).
//! * **Self-chaos harness.** [`chaos`] turns the supervisor on itself:
//!   a seeded, deterministic injector makes experiment jobs panic, stall
//!   past a deadline, or fail checkpoint IO — configured per-campaign via
//!   [`DriverConfig`]`::chaos`, which `csnake-daemon --chaos <spec>`
//!   fills from the command line (`seed=7,exp_panic=0.2,attempts=1,...`).
//!   Decisions key on experiment identity, not call order, so a chaotic
//!   run is reproducible and transient chaos provably leaves no trace in
//!   the report. Snapshot v5 adds *wire* chaos sites (`wire_drop`,
//!   `wire_stall`) that exercise the daemon's transport the same way.
//!   `tests/supervisor_recovery.rs` and the daemon's `wire_chaos.rs` hold
//!   chaotic campaigns to their clean reports.
//! * **Distributed campaigns.** The `csnake-daemon` crate runs the
//!   campaign stage across worker *processes*: a coordinator owns the
//!   staged session and the 3PA plan (via
//!   [`Session::allocate_with_engine`]), shards each phase's batch over
//!   workers speaking a [`snapshot::Persist`]-framed wire protocol, and
//!   merges results deterministically by batch index — bit-identical to
//!   the single-process run across worker counts. Workers hold bounded
//!   leases; a dead worker's shards are reassigned (observer events
//!   [`CampaignEvent::WorkerLost`] /
//!   [`CampaignEvent::ShardReassigned`]), and per-shard progress
//!   lands in the mid-phase checkpoint as [`ShardSpan`] islands
//!   (snapshot v5) merged by [`MidPhaseState::normalize`], so even a
//!   killed *coordinator* resumes without re-running completed shards.
//!   Operationally: `csnake-daemon run -j 4 --target kafka-isr`, or
//!   `serve`/`work` for a coordinator and workers on separate hosts.
//!
//! # Pipeline internals
//!
//! * [`fca`] — **Fault Causality Analysis** (§4.3): counterfactual comparison
//!   of injection runs against profile runs; emits the six causal edge kinds
//!   of Table 1.
//! * [`alloc`] — the **Three-Phase Allocation protocol** (§5): IDF-based
//!   clustering of causally-equivalent faults, round-robin exploration, and
//!   conditional-causality-guided extension under a `4·|F|` test budget.
//! * [`cluster`] — **phase-one hierarchical clustering** (§5.2):
//!   average-linkage agglomeration over cosine distance, run over a
//!   sparse candidate graph (inverted index over vector dimensions plus
//!   exact-duplicate pre-grouping) — no pairwise matrix.
//! * [`compat`] — the **local compatibility check** (§6.2): 2-level call
//!   stacks + local branch traces approximate path-condition satisfiability.
//!   Occurrence lists are stored sorted by signature, so the check is a
//!   linear merge intersection.
//! * [`stitch`] — the **prepared stitch index**: an immutable search index
//!   compiled once per causal database. Interns compatibility states,
//!   precomputes the full edge-successor relation into CSR adjacency
//!   tables (one compatibility-checked, one identity-only for the ablation
//!   knob), and hosts the arena-based indexed beam search.
//! * [`beam`] — the **parallel beam search** (§6.3, Alg. 1) for causal
//!   cycles, plus clustering of reported cycles. [`beam_search`] compiles a
//!   [`StitchIndex`] and searches on it; [`beam_search_reference`] retains
//!   the straightforward implementation as the executable specification.
//! * [`driver`] / [`target`] — the workload driver and the abstraction over
//!   systems under test.
//! * [`pool`] — the scope-borrowed worker pool shared by the stitch search,
//!   clustering and the driver's simulator runs.
//! * [`report`] — cycle composition, ground-truth matching and TP/FP
//!   accounting used by the evaluation harness.
//! * [`session`] / [`observer`] / [`snapshot`] / [`error`] — the staged
//!   public surface described above.
//!
//! # Campaign-path architecture and complexity
//!
//! A campaign is `E` experiments over a registry of `P` fault points
//! (`L` of them loops), `T` tests, and `r` repetitions per run set. The
//! hot path is organised around indexes built once per trace set
//! (`csnake_inject::TraceIndex`):
//!
//! * **Profile side, once per test** — [`fca::ProfileIndex`] carries dense
//!   occurrence-presence counts, the `L × r` loop-count matrix, and the
//!   per-loop sample moments the Welch tests reuse: `O(r · entries + L·r)`
//!   per test, amortised over all of the test's experiments.
//! * **Per experiment** — [`analyze_experiment`] builds the injection-side
//!   `TraceIndex` (`O(r · entries)`) and then touches only the points that
//!   occurred and the loops that were reached: `O(occurring +
//!   active_loops)` instead of the reference's `O(P · r)` trace re-walk.
//!   The batched one-sided Welch tests short-circuit on `t ≤ 0` (most
//!   loops are unaffected), paying the `betainc` continued fraction only
//!   for genuine candidates. [`fca::analyze_experiment_reference`] retains
//!   the straightforward implementation; `tests/campaign_equivalence.rs`
//!   proves byte-identical outcomes.
//! * **Experiment execution** — the 3PA planner emits each phase's
//!   `(fault, test)` picks *before* running them (picks never depend on
//!   outcomes within a phase), so [`Driver`] expands every phase batch into
//!   its `(experiment, plan, rep)` simulator runs and streams them through
//!   one call on the shared [`pool`], at most one run per hardware thread.
//!   Each `(experiment, plan)` run set is indexed and analysed the moment
//!   its last run lands, then dropped, so a batch never holds all its
//!   traces; outcomes are deterministic and batch-ordered.
//! * **Phase-one clustering** — [`cluster::hierarchical_cluster`]
//!   collapses exact-duplicate vectors, generates candidate pairs from an
//!   inverted index over nonzero dimensions (pairs sharing no dimension
//!   sit at cosine distance exactly 1 and can never merge below a
//!   threshold ≤ 1), and agglomerates over that sparse graph with a
//!   lazy-deletion heap (Lance–Williams average linkage): `O(n + E)`
//!   memory, with candidate generation costing the sum of the posting
//!   lists' squares, versus the retained `O(n³)`-time, `O(n²)`-memory
//!   greedy rescan — with identical dendrogram cuts. It is one sequential
//!   path: the largest campaign input across every bundled target is 22
//!   vectors.
//!   [`cluster::hierarchical_cluster_with_stats`] additionally reports
//!   the realized group/edge counts and the matrix bytes *not* allocated,
//!   surfaced through [`CampaignEvent::Clustering`] and the campaign
//!   benchmark's `alloc.peak_vectors` ledger row.
//!
//! The campaign benchmark under `benchmark/` times these stages on real
//! campaigns: with `--trace 1` its ledger rows `fca.profile_index_s`,
//! `inject.trace_index_build_s` and `fca.analyze_s` split the analysis,
//! and `target.run_p50_us` / `inject.trace_overhead_share` the simulator
//! runs and the agent's share of them.
//!
//! # Search-path complexity
//!
//! With `n` edges, `s` distinct compatibility states of size `k`, frontier
//! width `F` (≤ beam size `B`) and mean compatible fanout `d`:
//!
//! * **Index build** — canonicalise + intern all states in `O(n·k log k)`;
//!   edges grouped by (effect fault, effect state) so one successor list
//!   is stored per group, and the §6.2 verdicts are computed exactly once
//!   per distinct state pair in a shared table sharded over the workers
//!   (`O(q)` merges of `O(k)` each, no per-worker duplication); list
//!   assembly is `O(Σ_g out(f_g))` integer filtering.
//!   [`StitchIndex::build_reference`] retains the per-edge,
//!   per-worker-cache build; `tests/stitch_shared_cache.rs` proves the
//!   two byte-identical across thread counts.
//! * **Per search level** — expansion is `O(F·d)` integer work (arena
//!   membership walk ≤ `max_len`, O(1) chain extension, rolling 128-bit
//!   structural hash); structural dedup is one hash-set probe per
//!   extension *inside* the expansion, so only distinct candidates and
//!   distinct cycle keys are ever buffered (at most `2·B` candidates per
//!   range); the beam cut is `select_nth_unstable` over the distinct
//!   candidates plus an `O(B log B)` sort of survivors only.
//! * **Equivalence** — `tests/beam_equivalence.rs` proves the indexed
//!   search byte-identical to [`beam_search_reference`] (cycles, scores,
//!   order) across randomized databases and both ablation knobs.

pub mod alloc;
pub mod beam;
pub mod chaos;
pub mod cluster;
pub mod compat;
pub mod driver;
pub mod edge;
pub mod error;
pub mod fca;
pub mod frame;
pub(crate) mod fxhash;
pub mod idf;
pub mod observer;
pub mod pool;
pub mod report;
pub mod session;
pub mod snapshot;
pub mod stats;
pub mod stitch;
pub mod target;
pub mod workload;

use serde::{Deserialize, Serialize};

pub use alloc::{
    run_planned, AllocationResult, AllocationStrategy, CheckpointSink, ExperimentEngine,
    MidPhaseState, RandomAllocation, RecoveryContext, ShardSpan, ThreePhase, ThreePhaseConfig,
};
pub use beam::{
    beam_search, beam_search_reference, cluster_cycles, BeamConfig, Cycle, CycleCluster,
};
pub use chaos::{ChaosConfig, ChaosInjector, ChaosSite};
pub use cluster::{
    hierarchical_cluster, hierarchical_cluster_reference, hierarchical_cluster_with_stats,
    verify_cut_quality, ClusterStats, Clustering,
};
pub use compat::compatible;
pub use driver::{Driver, DriverConfig, RetryConfig};
pub use edge::{CausalDb, CausalEdge, CompatState, EdgeKind};
pub use error::{CsnakeError, Result};
pub use fca::{
    analyze_experiment, analyze_experiment_indexed, analyze_experiment_reference,
    ExperimentOutcome, FcaConfig, ProfileIndex,
};
pub use frame::fnv1a_bytes;
pub use observer::{
    CampaignEvent, CampaignObserver, FanoutObserver, FieldValue, NoopObserver, ProgressCollector,
    ProgressSnapshot, WorkerProgress,
};
pub use report::{
    build_report, composition, BugMatch, ClusterVerdict, Composition, DetectionReport,
};
pub use session::{CampaignOutcome, Profiled, Session, SessionBuilder, Stage, StitchedCycles};
pub use snapshot::{
    registry_fingerprint, write_file_bytes, Persist, Reader, Snapshot, Writer, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
pub use stitch::{CompatStats, LevelStats, StitchIndex};
pub use target::{KnownBug, TargetSystem, TestCase};
pub use workload::{WorkloadSummary, WorkloadWindow, INFLECTION_FACTOR};

/// Configuration of a full detection campaign.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DetectConfig {
    /// Workload-driver knobs (repetitions, delay sweep, FCA thresholds).
    pub driver: DriverConfig,
    /// 3PA protocol knobs (budget, clustering threshold, ε).
    pub alloc: ThreePhaseConfig,
    /// Beam-search knobs (beam size, delay cap).
    pub beam: BeamConfig,
}

/// Result of a full detection campaign.
#[derive(Debug)]
pub struct Detection {
    /// Static-analysis result (active fault points, Table 2 counts).
    pub analysis: csnake_analyzer::Analysis,
    /// Everything the allocation strategy produced (edges, clusters,
    /// SimScores).
    pub alloc: AllocationResult,
    /// Cycles, clusters, verdicts and ground-truth matches.
    pub report: DetectionReport,
    /// Total individual simulator runs executed.
    pub runs_executed: usize,
}

/// Runs the complete CSnake pipeline against a target system — a thin shim
/// over a staged [`Session`] with the [`ThreePhase`] strategy:
/// profile runs → static filtering → 3PA fault injection with FCA →
/// beam search → cycle clustering → report.
///
/// # Panics
///
/// On an undrivable target (no workloads / no fault points). Use the
/// [`Session`] API directly for typed errors.
pub fn detect(target: &dyn TargetSystem, cfg: &DetectConfig) -> Detection {
    let mut session = Session::builder(target)
        .config(cfg.clone())
        .build()
        .expect("detect(): target must be drivable");
    session
        .run_to_report(&ThreePhase::new(cfg.alloc.clone()))
        .expect("detect(): staged pipeline cannot misorder itself");
    session
        .into_detection()
        .expect("detect(): session is reported")
}
