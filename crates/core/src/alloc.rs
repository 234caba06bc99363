//! The Three-Phase Allocation (3PA) protocol of test budget (§5, §A).
//!
//! Given a budget of `4·|F|` experiments (25% / 50% / 25% across phases):
//!
//! 1. **Causally-equivalent fault detection** — inject every fault once into
//!    the reaching workload with the highest code coverage; IDF-vectorize the
//!    interference lists and hierarchically cluster the faults.
//! 2. **Causality exploration** — hand quotas to clusters round-robin; each
//!    quota injects a *random* fault of the cluster into a *new* workload.
//!    Leftover quota of an exhausted cluster transfers to a larger cluster.
//! 3. **Conditional-causality-guided extension** — weighted random
//!    allocation by `max(ε, 1 − SimScore(G))`: clusters whose members showed
//!    *diverse* (conditional) interferences get more budget. Quota landing on
//!    an exhausted cluster moves to the non-exhausted cluster with the
//!    smallest weight.

use std::collections::{BTreeMap, BTreeSet};

use csnake_inject::{FaultId, TestId};
use csnake_sim::SimRng;
use serde::{Deserialize, Serialize};

use crate::cluster::hierarchical_cluster_with_stats;
use crate::edge::CausalDb;
use crate::fca::ExperimentOutcome;
use crate::idf::{cosine_distance, IdfVectorizer, SparseVec};
use crate::observer::{CampaignEvent, CampaignObserver};

/// Abstraction over "run one injection experiment"; implemented by the real
/// [`crate::driver::Driver`] and by mocks in tests.
pub trait ExperimentEngine {
    /// Faults eligible for injection (after static filtering).
    fn faults(&self) -> Vec<FaultId>;

    /// Tests whose profile runs cover the fault's program location.
    fn tests_reaching(&self, f: FaultId) -> Vec<TestId>;

    /// Code-coverage size of a test (number of fault points covered).
    fn coverage_size(&self, t: TestId) -> usize;

    /// Runs the `(fault, test)` experiment (injection runs + FCA).
    fn run_experiment(&mut self, f: FaultId, t: TestId, phase: u8) -> ExperimentOutcome;

    /// Runs a batch of *independent* experiments, returning outcomes in
    /// batch order.
    ///
    /// The default runs them sequentially; engines with parallel capacity
    /// (the real driver) override it and fan the batch out on a worker
    /// pool while keeping the result order deterministic. The 3PA planner
    /// exploits that every phase's `(fault, test)` picks depend only on
    /// prior-phase results — never on outcomes within the phase — so each
    /// phase plans its full batch first and executes it in one call.
    fn run_experiments(&mut self, batch: &[(FaultId, TestId, u8)]) -> Vec<ExperimentOutcome> {
        batch
            .iter()
            .map(|&(f, t, p)| self.run_experiment(f, t, p))
            .collect()
    }

    /// Runs a batch like [`run_experiments`](ExperimentEngine::run_experiments),
    /// additionally reporting partial progress through `progress` so the
    /// caller can checkpoint *inside* the batch.
    ///
    /// Engines that complete work out of order (the daemon's sharded
    /// coordinator) invoke `progress` whenever a contiguous run of
    /// outcomes lands, passing every completed [`ShardSpan`] with
    /// batch-relative `start` offsets. The default ignores the callback —
    /// in-process engines finish a batch atomically, so the per-chunk
    /// checkpoint in the runner is already as fine-grained as it gets.
    fn run_experiments_checkpointed(
        &mut self,
        batch: &[(FaultId, TestId, u8)],
        progress: &mut dyn FnMut(&[ShardSpan]),
    ) -> Vec<ExperimentOutcome> {
        let _ = progress;
        self.run_experiments(batch)
    }

    /// Drains the `(fault, test, phase)` cells whose experiments
    /// permanently failed since the last drain. Engines without a retry
    /// supervisor (mocks, baselines) never produce gaps; the real driver
    /// records a gap when a job exhausts its retry budget and the batch
    /// continues without it.
    fn take_gaps(&mut self) -> Vec<(FaultId, TestId, u8)> {
        Vec::new()
    }

    /// Total simulator runs executed so far, for checkpoint accounting.
    /// Engines that don't track runs report zero.
    fn runs_executed(&self) -> usize {
        0
    }

    /// Attaches an observer for engine-level supervision events
    /// (batch retries, abandoned cells, worker lifecycle). The default
    /// ignores it; the real driver and the daemon's distributed engine
    /// forward their supervisor events through it.
    fn attach_observer(&mut self, observer: std::sync::Arc<dyn CampaignObserver>) {
        let _ = observer;
    }

    /// `(hits, misses)` of the engine's injection-run cache so far.
    /// Engines without a cache (mocks, baselines) report `(0, 0)`; the
    /// real driver reports its counter pair and the daemon's distributed
    /// engine sums the latest per-worker figures, so the session can emit
    /// the same `trace_cache` observer event on every execution path.
    fn trace_cache_stats(&self) -> (usize, usize) {
        (0, 0)
    }
}

/// 3PA knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThreePhaseConfig {
    /// Budget multiplier: total = `budget_per_fault · |F|` (paper: 4).
    pub budget_per_fault: usize,
    /// Dendrogram cut threshold on cosine distance for phase-one clustering.
    pub cluster_threshold: f64,
    /// Minimum cluster weight ε in phase three (paper: 0.01).
    pub epsilon: f64,
    /// RNG seed for the protocol's random picks.
    pub seed: u64,
}

impl Default for ThreePhaseConfig {
    fn default() -> Self {
        ThreePhaseConfig {
            budget_per_fault: 4,
            cluster_threshold: 0.5,
            epsilon: 0.01,
            seed: 0xC5_AA_5E,
        }
    }
}

impl ThreePhaseConfig {
    /// The total experiment budget for a campaign over `n_faults` injectable
    /// faults: `budget_per_fault · |F|` (§5). The single place this product
    /// is computed — the 3PA protocol, the random and coverage-greedy
    /// baselines all derive their budgets here.
    pub fn total_budget(&self, n_faults: usize) -> usize {
        self.budget_per_fault * n_faults
    }
}

/// A pluggable experiment-budget allocation policy: given an engine that can
/// run `(fault, test)` experiments, produce the campaign's
/// [`AllocationResult`].
///
/// The trait is object-safe, so sessions and harnesses can carry
/// `&dyn AllocationStrategy`. Bundled implementations:
///
/// * [`ThreePhase`] — the paper's Three-Phase Allocation protocol (§5);
/// * [`RandomAllocation`] — the §8.1 "Rnd.?" uniform baseline;
/// * `csnake_baselines::strategies` — exhaustive and coverage-greedy
///   comparison policies.
///
/// Implementations must be deterministic given the engine and their own
/// configuration (seeds live in the strategy), and should emit progress
/// through the observer (phase boundaries, experiment completions, new
/// edges, budget movement) — see [`crate::observer`] for the vocabulary.
/// Policies whose picks don't depend on outcomes plan their whole batch and
/// hand it to [`run_planned`].
pub trait AllocationStrategy {
    /// Short stable policy name, recorded in campaign artifacts and
    /// snapshots (e.g. `"three-phase"`, `"random"`).
    fn name(&self) -> &'static str;

    /// Runs the policy's full campaign against the engine.
    ///
    /// `recovery` carries the supervisor wiring: a checkpoint sink to
    /// stream mid-phase state to, a cadence (experiments per checkpoint)
    /// and optionally a [`MidPhaseState`] to resume from. Only
    /// [`ThreePhase`] is resumable; the other bundled policies ignore it
    /// and replan from the stage boundary. Pass
    /// [`RecoveryContext::default()`] for a plain run.
    fn run(
        &self,
        engine: &mut dyn ExperimentEngine,
        observer: &dyn CampaignObserver,
        recovery: RecoveryContext<'_>,
    ) -> AllocationResult;
}

/// Receives mid-phase checkpoint state from a resumable allocation runner.
///
/// Implementations own durability (atomic writes, IO-failure retries) and
/// report success/failure back; the runner treats a failed write as a
/// missed checkpoint — the campaign continues, resume is just coarser.
pub trait CheckpointSink {
    /// Persists `state`; returns `true` when the checkpoint safely
    /// reached disk.
    fn write(&self, state: &MidPhaseState) -> bool;
}

/// Recovery wiring handed to [`AllocationStrategy::run`]; the default
/// neither checkpoints nor resumes.
#[derive(Default)]
pub struct RecoveryContext<'a> {
    /// Where to stream mid-phase checkpoints (`None`: don't checkpoint).
    pub sink: Option<&'a dyn CheckpointSink>,
    /// Experiments per checkpoint; the runner executes each phase batch in
    /// sub-chunks of this size and checkpoints after every chunk. Zero is
    /// treated as "whole phase in one chunk".
    pub cadence: usize,
    /// Mid-phase state to resume from (from a snapshot), if any.
    pub resume: Option<MidPhaseState>,
}

/// Everything the 3PA runner needs to continue a phase from the middle.
///
/// The state deliberately stores *inputs* of the current phase's planning
/// (RNG state and used-set as they were when planning started) rather than
/// the planned batch itself: planning is deterministic in those inputs plus
/// the outcome prefix, so resume replans the identical batch and simply
/// skips the first `executed_in_phase` entries. Clusters and similarity
/// scores are likewise recomputed from the outcome prefix instead of being
/// persisted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MidPhaseState {
    /// The allocation phase being executed (3PA: 1–3).
    pub phase: u8,
    /// RNG state captured when the current phase's planning started.
    pub rng_state: [u64; 4],
    /// `(fault, test)` combinations used when planning started.
    pub used_at_phase_start: Vec<(FaultId, TestId)>,
    /// Budget spent when planning started.
    pub spent_at_phase_start: usize,
    /// Experiments of the current phase already executed (and present in
    /// `outcomes`).
    pub executed_in_phase: usize,
    /// Length of the phase-one batch — the outcome prefix clustering is
    /// derived from.
    pub phase1_len: usize,
    /// Every outcome executed so far, across all phases, in order.
    pub outcomes: Vec<ExperimentOutcome>,
    /// Permanently failed cells recorded so far.
    pub gaps: Vec<(FaultId, TestId, u8)>,
    /// The engine's run counter at checkpoint time.
    pub runs_executed: usize,
    /// Out-of-order completed islands of the current phase (snapshot v5):
    /// shard results that landed *beyond* the contiguous executed prefix.
    /// Empty for in-process engines, whose batches complete in order; the
    /// daemon's sharded coordinator records each completed shard here so
    /// a mid-batch kill never re-runs finished shards. Spans are
    /// phase-batch-relative, disjoint, and sorted by `start` — see
    /// [`MidPhaseState::normalize`] for the merge rule.
    pub shard_spans: Vec<ShardSpan>,
}

/// A contiguous run of outcomes a sharded engine completed out of order:
/// shard `shard` covered phase-batch positions `start ..
/// start + outcomes.len()`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardSpan {
    /// Ordinal of the shard that produced this span (provenance only;
    /// results are merged purely by position).
    pub shard: u32,
    /// Offset of the span's first experiment in the phase batch.
    pub start: usize,
    /// The span's outcomes, in batch order.
    pub outcomes: Vec<ExperimentOutcome>,
    /// Permanently failed cells of this span, in batch order.
    pub gaps: Vec<(FaultId, TestId, u8)>,
    /// Simulator runs the span's experiments executed.
    pub runs: usize,
}

impl ShardSpan {
    /// One past the last phase-batch position the span covers.
    pub fn end(&self) -> usize {
        self.start + self.outcomes.len()
    }
}

impl MidPhaseState {
    /// The shard/gap merge rule: folds every span that touches the
    /// contiguous executed prefix into it and keeps the rest as islands.
    ///
    /// Spans are sorted by `start`; a span with `start ≤ executed_in_phase`
    /// extends the prefix (outcomes append after trimming any overlap, its
    /// gaps and run counter merge in span order — which *is* global batch
    /// order, since shards partition the batch by contiguous index
    /// ranges), and the fold repeats until the next span no longer
    /// touches. Remaining islands stay in `shard_spans` for the 3PA runner
    /// to splice once execution reaches them. Folding is idempotent and
    /// order-insensitive, so a state normalizes identically no matter how
    /// many checkpoint/resume hops it went through.
    pub fn normalize(&mut self) {
        if self.shard_spans.is_empty() {
            return;
        }
        self.shard_spans.sort_by_key(|s| s.start);
        let mut islands = Vec::new();
        for mut span in std::mem::take(&mut self.shard_spans) {
            if span.start > self.executed_in_phase {
                islands.push(span);
                continue;
            }
            if span.end() <= self.executed_in_phase {
                // Entirely inside the prefix: already folded by an earlier
                // checkpoint hop (its gaps/runs are accounted for there).
                continue;
            }
            let end = span.end();
            let overlap = self.executed_in_phase - span.start;
            self.outcomes.extend(span.outcomes.drain(..).skip(overlap));
            self.executed_in_phase = end;
            self.gaps.append(&mut span.gaps);
            self.runs_executed += span.runs;
        }
        self.shard_spans = islands;
    }
}

/// The paper's Three-Phase Allocation protocol as a strategy object.
#[derive(Debug, Clone, Default)]
pub struct ThreePhase {
    /// Protocol knobs (budget multiplier, clustering threshold, ε, seed).
    pub cfg: ThreePhaseConfig,
}

impl ThreePhase {
    /// A 3PA strategy with the given knobs.
    pub fn new(cfg: ThreePhaseConfig) -> Self {
        ThreePhase { cfg }
    }
}

impl AllocationStrategy for ThreePhase {
    fn name(&self) -> &'static str {
        "three-phase"
    }

    fn run(
        &self,
        engine: &mut dyn ExperimentEngine,
        observer: &dyn CampaignObserver,
        recovery: RecoveryContext<'_>,
    ) -> AllocationResult {
        run_three_phase_resumable(engine, &self.cfg, observer, recovery)
    }
}

/// The uniform random-allocation baseline as a strategy object
/// (§8.1 Table 3 "Rnd.?"): same total budget as 3PA would get, uniformly
/// random `(fault, reaching-test)` combinations without repetition.
#[derive(Debug, Clone)]
pub struct RandomAllocation {
    /// Budget knobs; only `budget_per_fault` is used (the total is
    /// [`ThreePhaseConfig::total_budget`] over the engine's fault count).
    pub cfg: ThreePhaseConfig,
    /// RNG seed for the uniform draw.
    pub seed: u64,
}

impl RandomAllocation {
    /// A random baseline matching the budget of the given 3PA knobs.
    pub fn new(cfg: ThreePhaseConfig, seed: u64) -> Self {
        RandomAllocation { cfg, seed }
    }
}

impl AllocationStrategy for RandomAllocation {
    fn name(&self) -> &'static str {
        "random"
    }

    /// Plans the whole campaign as one phase-0 batch: every
    /// `(fault, reaching-test)` combination, Fisher–Yates shuffled and cut
    /// to the budget.
    fn run(
        &self,
        engine: &mut dyn ExperimentEngine,
        observer: &dyn CampaignObserver,
        _recovery: RecoveryContext<'_>,
    ) -> AllocationResult {
        let faults = engine.faults();
        let budget = self.cfg.total_budget(faults.len());
        let mut batch: Vec<(FaultId, TestId, u8)> = Vec::new();
        for &f in &faults {
            for t in engine.tests_reaching(f) {
                batch.push((f, t, 0));
            }
        }
        let mut rng = SimRng::new(self.seed);
        for i in (1..batch.len()).rev() {
            let j = rng.pick(i + 1);
            batch.swap(i, j);
        }
        batch.truncate(budget);
        run_planned(engine, &batch, budget, observer)
    }
}

/// Everything the protocol produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AllocationResult {
    /// All causal relationships discovered, indexed for the beam search.
    pub db: CausalDb,
    /// Interference outcome of every experiment run.
    pub outcomes: Vec<ExperimentOutcome>,
    /// Fault clusters ("causally equivalent faults"), phase one.
    pub clusters: Vec<Vec<FaultId>>,
    /// Cluster index per fault.
    pub cluster_of: BTreeMap<FaultId, usize>,
    /// Intra-cluster interference similarity score per cluster (Eq. 6).
    pub sim_scores: Vec<f64>,
    /// Experiments actually run (≤ budget).
    pub experiments_run: usize,
    /// The configured total budget.
    pub budget: usize,
    /// `(fault, test, phase)` cells whose experiments permanently failed
    /// (exhausted the supervisor's retries); empty on a clean campaign.
    /// A gap's cell still contributes an *empty* outcome to `outcomes`,
    /// keeping batch order and budget accounting identical — the gap list
    /// is what the report surfaces as missing.
    pub gaps: Vec<(FaultId, TestId, u8)>,
}

impl AllocationResult {
    /// SimScore of the cluster containing fault `f` (1.0 if unknown).
    pub fn sim_score_of(&self, f: FaultId) -> f64 {
        self.cluster_of
            .get(&f)
            .map(|&c| self.sim_scores[c])
            .unwrap_or(1.0)
    }
}

/// Tracks which `(fault, test)` combinations have been exercised.
struct UsedSet {
    used: BTreeSet<(FaultId, TestId)>,
}

impl UsedSet {
    fn new() -> Self {
        UsedSet {
            used: BTreeSet::new(),
        }
    }

    fn from_pairs(pairs: &[(FaultId, TestId)]) -> Self {
        UsedSet {
            used: pairs.iter().copied().collect(),
        }
    }

    fn pairs(&self) -> Vec<(FaultId, TestId)> {
        self.used.iter().copied().collect()
    }

    fn mark(&mut self, f: FaultId, t: TestId) {
        self.used.insert((f, t));
    }

    fn unused_tests(&self, engine: &dyn ExperimentEngine, f: FaultId) -> Vec<TestId> {
        engine
            .tests_reaching(f)
            .into_iter()
            .filter(|t| !self.used.contains(&(f, *t)))
            .collect()
    }

    /// `true` if no (fault, test) combination in the cluster remains.
    fn cluster_exhausted(&self, engine: &dyn ExperimentEngine, cluster: &[FaultId]) -> bool {
        cluster
            .iter()
            .all(|f| self.unused_tests(engine, *f).is_empty())
    }
}

/// Picks a random fault of `cluster` that still has an unused reaching test,
/// and a random such test.
fn pick_from_cluster(
    engine: &dyn ExperimentEngine,
    used: &UsedSet,
    cluster: &[FaultId],
    rng: &mut SimRng,
) -> Option<(FaultId, TestId)> {
    let mut candidates: Vec<FaultId> = cluster.to_vec();
    while !candidates.is_empty() {
        let i = rng.pick(candidates.len());
        let f = candidates.swap_remove(i);
        let tests = used.unused_tests(engine, f);
        if !tests.is_empty() {
            let t = tests[rng.pick(tests.len())];
            return Some((f, t));
        }
    }
    None
}

/// The planning inputs of one phase, captured as its planning starts: what
/// a mid-phase checkpoint must carry to replan the identical batch.
#[derive(Default)]
struct PhaseCtx {
    phase: u8,
    rng_at_start: [u64; 4],
    used_at_start: Vec<(FaultId, TestId)>,
    spent_at_start: usize,
    phase1_len: usize,
}

impl PhaseCtx {
    /// Captures `phase`'s planning inputs before it draws its first pick.
    fn at(phase: u8, rng: &SimRng, used: &UsedSet, spent: usize, phase1_len: usize) -> Self {
        PhaseCtx {
            phase,
            rng_at_start: rng.state(),
            used_at_start: used.pairs(),
            spent_at_start: spent,
            phase1_len,
        }
    }

    /// The checkpoint of this phase once `executed` of its experiments ran.
    fn state(
        &self,
        executed: usize,
        outcomes: &[ExperimentOutcome],
        gaps: &[(FaultId, TestId, u8)],
        runs_executed: usize,
        shard_spans: Vec<ShardSpan>,
    ) -> MidPhaseState {
        MidPhaseState {
            phase: self.phase,
            rng_state: self.rng_at_start,
            used_at_phase_start: self.used_at_start.clone(),
            spent_at_phase_start: self.spent_at_start,
            executed_in_phase: executed,
            phase1_len: self.phase1_len,
            outcomes: outcomes.to_vec(),
            gaps: gaps.to_vec(),
            runs_executed,
            shard_spans,
        }
    }
}

/// Where a resumed campaign re-enters its interrupted phase: the executed
/// prefix to skip and the out-of-order islands already completed beyond it.
/// The default skips nothing: a fresh campaign.
#[derive(Default)]
struct Reentry {
    phase: u8,
    skip: usize,
    islands: Vec<ShardSpan>,
}

/// One campaign's execution state: the recovery wiring, where a resumed
/// campaign re-enters, and everything executed so far, in batch order.
struct Executor<'r> {
    observer: &'r dyn CampaignObserver,
    recovery: RecoveryContext<'r>,
    reentry: Reentry,
    outcomes: Vec<ExperimentOutcome>,
    db: CausalDb,
    gaps: Vec<(FaultId, TestId, u8)>,
}

impl<'r> Executor<'r> {
    fn new(observer: &'r dyn CampaignObserver, recovery: RecoveryContext<'r>) -> Self {
        Executor {
            observer,
            recovery,
            reentry: Reentry::default(),
            outcomes: Vec::new(),
            db: CausalDb::default(),
            gaps: Vec::new(),
        }
    }

    /// Folds in an outcome a previous process already executed and
    /// reported: its edges enter the database exactly as a live run would
    /// push them, but no observer event is emitted again.
    fn splice(&mut self, out: ExperimentOutcome) {
        for e in &out.edges {
            self.db.push(e.clone());
        }
        self.outcomes.push(out);
    }

    /// Folds in a live outcome, reporting it and every new edge.
    fn record(&mut self, out: ExperimentOutcome) {
        for e in &out.edges {
            if self.db.push(e.clone()) {
                self.observer.on_event(&CampaignEvent::edge_emitted(e));
            }
        }
        self.observer
            .on_event(&CampaignEvent::experiment_completed(&out));
        self.outcomes.push(out);
    }

    /// Executes one phase's planned batch: skips the prefix a resumed
    /// campaign already executed, splices out-of-order islands (per-shard
    /// checkpoints) without re-running them, folds outcomes into the
    /// database in batch order, drains engine gaps, and checkpoints after
    /// every `cadence` experiments.
    fn execute_phase(
        &mut self,
        engine: &mut dyn ExperimentEngine,
        batch: &[(FaultId, TestId, u8)],
        ctx: &PhaseCtx,
    ) {
        self.observer.on_event(&CampaignEvent::PhaseStarted {
            phase: ctx.phase,
            planned: batch.len(),
        });
        let (skip, islands) = if self.reentry.phase == ctx.phase {
            (self.reentry.skip, std::mem::take(&mut self.reentry.islands))
        } else {
            (0, Vec::new())
        };
        let chunk_size = match (self.recovery.sink, self.recovery.cadence) {
            (Some(_), c) if c > 0 => c,
            // No sink (or cadence 0): the whole remainder is one chunk, so
            // a plain run hands the engine each phase in one call.
            _ => batch.len().saturating_sub(skip).max(1),
        };
        let mut executed = skip;
        // Islands a previous process completed beyond the executed prefix,
        // sorted by start; spliced into place when execution reaches them.
        let mut islands: std::collections::VecDeque<ShardSpan> = islands.into();
        islands.make_contiguous().sort_by_key(|s| s.start);
        while executed < batch.len() || islands.front().is_some() {
            while islands.front().is_some_and(|s| s.start <= executed) {
                let span = islands.pop_front().expect("peeked island");
                let overlap = executed - span.start;
                for out in span.outcomes.into_iter().skip(overlap) {
                    self.splice(out);
                    executed += 1;
                }
                self.gaps.extend(span.gaps);
            }
            if executed >= batch.len() {
                break;
            }
            // The next live segment runs up to the next island (exclusive)
            // in cadence-sized chunks.
            let seg_end = islands
                .front()
                .map(|s| s.start)
                .unwrap_or(batch.len())
                .min(batch.len());
            let chunk = &batch[executed..(executed + chunk_size).min(seg_end)];
            let chunk_base = executed;
            let runs_at_chunk_start = engine.runs_executed();
            let sink = self.recovery.sink;
            // Mid-chunk progress from out-of-order sharded engines: a
            // span-bearing state (chunk-relative spans shifted to phase
            // offsets, plus any islands still ahead), normalized and
            // streamed to the sink like any other checkpoint.
            let mut progress = |spans: &[ShardSpan]| {
                let Some(sink) = sink else { return };
                let spans = spans
                    .iter()
                    .cloned()
                    .map(|mut s| {
                        s.start += chunk_base;
                        s
                    })
                    .chain(islands.iter().cloned())
                    .collect();
                let mut state = ctx.state(
                    chunk_base,
                    &self.outcomes,
                    &self.gaps,
                    runs_at_chunk_start,
                    spans,
                );
                state.normalize();
                sink.write(&state);
            };
            for out in engine.run_experiments_checkpointed(chunk, &mut progress) {
                self.record(out);
            }
            executed += chunk.len();
            self.gaps.extend(engine.take_gaps());
            if let Some(sink) = sink {
                let spans = islands.iter().cloned().collect();
                // A failed write is a missed checkpoint, not a failed
                // campaign: the sink already retried, resume just falls
                // back to the previous checkpoint.
                sink.write(&ctx.state(
                    executed,
                    &self.outcomes,
                    &self.gaps,
                    engine.runs_executed(),
                    spans,
                ));
            }
        }
        self.observer.on_event(&CampaignEvent::PhaseFinished {
            phase: ctx.phase,
            executed: batch.len(),
        });
    }
}

/// The 3PA runner behind [`ThreePhase`].
///
/// With a default [`RecoveryContext`] each phase plans its full batch up
/// front and executes it in one engine call. With a sink, phase batches
/// execute in cadence-sized sub-chunks — order-preserving, so outcomes stay
/// bit-identical — and every sub-chunk boundary streams a [`MidPhaseState`]
/// to the sink. With a resume state, completed phases are reconstructed
/// from the checkpointed outcome prefix (clusters and similarity scores are
/// recomputed, never trusted from disk), the interrupted phase is replanned
/// from its checkpointed RNG state and used-set — reproducing the identical
/// batch — and execution continues after the already-executed prefix.
fn run_three_phase_resumable(
    engine: &mut dyn ExperimentEngine,
    cfg: &ThreePhaseConfig,
    observer: &dyn CampaignObserver,
    mut recovery: RecoveryContext<'_>,
) -> AllocationResult {
    let faults = engine.faults();
    let budget = cfg.total_budget(faults.len());

    // ---- State: fresh, or restored from a mid-phase checkpoint.
    let resume = recovery.resume.take();
    let mut exec = Executor::new(observer, recovery);
    let mut rng = SimRng::new(cfg.seed);
    let mut used = UsedSet::new();
    let mut spent = 0usize;
    let mut phase1_len = 0usize;
    if let Some(mut st) = resume {
        // Fold any shard islands adjacent to the executed prefix first
        // (gap merge rule); islands still ahead of the prefix are spliced
        // in during execution.
        st.normalize();
        exec.reentry = Reentry {
            phase: st.phase,
            skip: st.executed_in_phase,
            islands: st.shard_spans,
        };
        rng = SimRng::from_state(st.rng_state);
        used = UsedSet::from_pairs(&st.used_at_phase_start);
        spent = st.spent_at_phase_start;
        phase1_len = st.phase1_len;
        // Rebuild the edge database by replaying the checkpointed outcomes
        // in order — same pushes, same dedup, same content as the
        // uninterrupted run.
        for out in st.outcomes {
            exec.splice(out);
        }
        exec.gaps = st.gaps;
    }

    // ---- Phase one: one probe per fault, highest-coverage reaching test.
    // Picks depend only on coverage — planning consumes no randomness, so
    // a phase-one resume replans from the empty used-set.
    if exec.reentry.phase <= 1 {
        let mut ctx = PhaseCtx::at(1, &rng, &used, spent, 0);
        let phase1_cap = spent + (budget / 4).max(faults.len().min(budget));
        let mut batch: Vec<(FaultId, TestId, u8)> = Vec::new();
        for &f in &faults {
            if spent >= phase1_cap {
                break;
            }
            let mut tests = engine.tests_reaching(f);
            if tests.is_empty() {
                continue;
            }
            // Highest coverage, lowest id on ties (deterministic).
            tests.sort_by_key(|t| (std::cmp::Reverse(engine.coverage_size(*t)), *t));
            let t = tests[0];
            used.mark(f, t);
            batch.push((f, t, 1));
            spent += 1;
        }
        phase1_len = batch.len();
        ctx.phase1_len = phase1_len;
        exec.execute_phase(engine, &batch, &ctx);
        observer.on_event(&CampaignEvent::BudgetSpent {
            spent,
            total: budget,
        });
    }

    // Cluster faults by phase-one interference vectors. Faults that never
    // ran (unreachable) get zero vectors and land with the non-impactful
    // cluster. On resume past phase one this recomputes — deterministically
    // — from the checkpointed outcome prefix.
    let phase1_interference: BTreeMap<FaultId, BTreeSet<FaultId>> = exec.outcomes[..phase1_len]
        .iter()
        .map(|o| (o.fault, o.interference.clone()))
        .collect();
    let docs: Vec<BTreeSet<FaultId>> = faults
        .iter()
        .map(|f| phase1_interference.get(f).cloned().unwrap_or_default())
        .collect();
    let idf1 = IdfVectorizer::fit(&docs);
    let vectors: Vec<SparseVec> = docs.iter().map(|d| idf1.vectorize(d)).collect();
    let (clustering, cluster_stats) =
        hierarchical_cluster_with_stats(&vectors, cfg.cluster_threshold);
    observer.on_event(&CampaignEvent::Clustering(cluster_stats));
    let mut clusters: Vec<Vec<FaultId>> = vec![Vec::new(); clustering.n_clusters];
    let mut cluster_of: BTreeMap<FaultId, usize> = BTreeMap::new();
    for (i, &f) in faults.iter().enumerate() {
        let c = clustering.assignment[i];
        clusters[c].push(f);
        cluster_of.insert(f, c);
    }

    // ---- Phase two: round-robin over clusters, random member into a new
    // workload. Picks depend only on the RNG and the used-set (never on
    // outcomes within the phase), so the plan/execute split preserves the
    // exact sequential pick sequence — and a resume replans the identical
    // batch from the checkpointed RNG state and used-set.
    if exec.reentry.phase <= 2 {
        let ctx = PhaseCtx::at(2, &rng, &used, spent, phase1_len);
        let phase2_cap = spent + budget / 2;
        let mut batch: Vec<(FaultId, TestId, u8)> = Vec::new();
        if !clusters.is_empty() {
            let mut rr = 0usize;
            let mut stall = 0usize;
            while spent < phase2_cap && stall < clusters.len() {
                let c = rr % clusters.len();
                rr += 1;
                let pick = pick_from_cluster(engine, &used, &clusters[c], &mut rng).or_else(|| {
                    // Quota transfer: exhausted cluster hands its quota to a
                    // random larger, non-exhausted cluster.
                    let larger: Vec<usize> = (0..clusters.len())
                        .filter(|&d| {
                            d != c
                                && clusters[d].len() > clusters[c].len()
                                && !used.cluster_exhausted(engine, &clusters[d])
                        })
                        .collect();
                    let fallback: Vec<usize> = if larger.is_empty() {
                        (0..clusters.len())
                            .filter(|&d| !used.cluster_exhausted(engine, &clusters[d]))
                            .collect()
                    } else {
                        larger
                    };
                    if fallback.is_empty() {
                        None
                    } else {
                        let d = fallback[rng.pick(fallback.len())];
                        pick_from_cluster(engine, &used, &clusters[d], &mut rng)
                    }
                });
                let Some((f, t)) = pick else {
                    stall += 1;
                    continue;
                };
                stall = 0;
                used.mark(f, t);
                batch.push((f, t, 2));
                spent += 1;
            }
        }
        exec.execute_phase(engine, &batch, &ctx);
        observer.on_event(&CampaignEvent::BudgetSpent {
            spent,
            total: budget,
        });
    }

    // ---- Intra-cluster interference similarity (Eq. 6), from a second IDF
    // model fitted on both phases. A phase-three resume excludes the
    // phase-three prefix already executed — the scores must be the ones the
    // original process computed *before* phase three started.
    let sim_upto = if exec.reentry.phase == 3 {
        exec.outcomes.len() - exec.reentry.skip
    } else {
        exec.outcomes.len()
    };
    let all_docs: Vec<BTreeSet<FaultId>> = exec.outcomes[..sim_upto]
        .iter()
        .map(|o| o.interference.clone())
        .collect();
    let idf2 = IdfVectorizer::fit(&all_docs);
    let outcome_vecs: Vec<SparseVec> = all_docs.iter().map(|d| idf2.vectorize(d)).collect();
    let sim_scores: Vec<f64> = clusters
        .iter()
        .map(|members| cluster_sim_score(members, &exec.outcomes[..sim_upto], &outcome_vecs))
        .collect();

    // ---- Phase three: weighted random allocation by max(ε, 1 − SimScore).
    // Weights are fixed before the phase starts, so this phase also plans
    // its full batch first.
    {
        let ctx = PhaseCtx::at(3, &rng, &used, spent, phase1_len);
        let weights: Vec<f64> = sim_scores
            .iter()
            .map(|s| (1.0 - s).max(cfg.epsilon))
            .collect();
        let mut batch: Vec<(FaultId, TestId, u8)> = Vec::new();
        while spent < budget && !clusters.is_empty() {
            let viable: Vec<usize> = (0..clusters.len())
                .filter(|&c| !used.cluster_exhausted(engine, &clusters[c]))
                .collect();
            if viable.is_empty() {
                break;
            }
            let total_w: f64 = viable.iter().map(|&c| weights[c]).sum();
            let mut roll = rng.unit() * total_w;
            let mut chosen = viable[0];
            for &c in &viable {
                roll -= weights[c];
                if roll <= 0.0 {
                    chosen = c;
                    break;
                }
            }
            // Unused budget moves toward the smallest-weight viable cluster if
            // the draw somehow cannot produce a pick.
            let pick =
                pick_from_cluster(engine, &used, &clusters[chosen], &mut rng).or_else(|| {
                    let min = viable
                        .iter()
                        .copied()
                        .min_by(|a, b| weights[*a].total_cmp(&weights[*b]))?;
                    pick_from_cluster(engine, &used, &clusters[min], &mut rng)
                });
            let Some((f, t)) = pick else { break };
            used.mark(f, t);
            batch.push((f, t, 3));
            spent += 1;
        }
        exec.execute_phase(engine, &batch, &ctx);
        observer.on_event(&CampaignEvent::BudgetSpent {
            spent,
            total: budget,
        });
    }

    AllocationResult {
        db: exec.db,
        outcomes: exec.outcomes,
        clusters,
        cluster_of,
        sim_scores,
        experiments_run: spent,
        budget,
        gaps: exec.gaps,
    }
}

/// Average pairwise cosine *similarity* of the cluster's experiment vectors
/// (Eq. 6): pairs are taken between experiments of *different* faults; when
/// the cluster has only one fault, pairs between its different workloads are
/// used; with fewer than two experiments the score is 1.0 (no evidence of
/// conditional behaviour).
fn cluster_sim_score(
    members: &[FaultId],
    outcomes: &[ExperimentOutcome],
    outcome_vecs: &[SparseVec],
) -> f64 {
    let member_set: BTreeSet<FaultId> = members.iter().copied().collect();
    let idxs: Vec<usize> = outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| member_set.contains(&o.fault))
        .map(|(i, _)| i)
        .collect();
    if idxs.len() < 2 {
        return 1.0;
    }
    let mut cross_sum = 0.0;
    let mut cross_n = 0usize;
    let mut any_sum = 0.0;
    let mut any_n = 0usize;
    for (a, &i) in idxs.iter().enumerate() {
        for &j in &idxs[a + 1..] {
            let sim = 1.0 - cosine_distance(&outcome_vecs[i], &outcome_vecs[j]);
            any_sum += sim;
            any_n += 1;
            if outcomes[i].fault != outcomes[j].fault {
                cross_sum += sim;
                cross_n += 1;
            }
        }
    }
    if cross_n > 0 {
        cross_sum / cross_n as f64
    } else if any_n > 0 {
        any_sum / any_n as f64
    } else {
        1.0
    }
}

/// Executes a fully pre-planned experiment batch and assembles the
/// baseline-shaped [`AllocationResult`]: singleton fault clusters and
/// SimScore 1.0 everywhere (no conditionality evidence is collected).
///
/// The building block for [`AllocationStrategy`] implementations whose
/// picks don't depend on outcomes — [`RandomAllocation`] and the
/// `csnake_baselines::strategies` policies. Each run of equal phase labels
/// in the batch executes as one phase on the 3PA runner's executor, so the
/// observer sees the same vocabulary: one `phase_started`/`phase_finished`
/// pair per run, experiment/edge events per outcome, and a final
/// `budget_spent`.
pub fn run_planned(
    engine: &mut dyn ExperimentEngine,
    batch: &[(FaultId, TestId, u8)],
    budget: usize,
    observer: &dyn CampaignObserver,
) -> AllocationResult {
    let faults = engine.faults();
    let mut exec = Executor::new(observer, RecoveryContext::default());
    for block in batch.chunk_by(|a, b| a.2 == b.2) {
        let ctx = PhaseCtx {
            phase: block[0].2,
            ..PhaseCtx::default()
        };
        exec.execute_phase(engine, block, &ctx);
    }
    let n = exec.outcomes.len();
    observer.on_event(&CampaignEvent::BudgetSpent {
        spent: n,
        total: budget,
    });
    AllocationResult {
        db: exec.db,
        outcomes: exec.outcomes,
        clusters: faults.iter().map(|f| vec![*f]).collect(),
        cluster_of: faults.iter().enumerate().map(|(i, f)| (*f, i)).collect(),
        sim_scores: vec![1.0; faults.len()],
        experiments_run: n,
        budget,
        gaps: exec.gaps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::{CausalEdge, CompatState, EdgeKind};
    use crate::observer::NoopObserver;

    /// Mock engine: a scripted interference function over (fault, test).
    struct MockEngine {
        faults: Vec<FaultId>,
        tests: Vec<TestId>,
        /// (fault, test) → interference list.
        script: BTreeMap<(u32, u32), Vec<u32>>,
        log: Vec<(FaultId, TestId, u8)>,
    }

    impl MockEngine {
        fn new(n_faults: u32, n_tests: u32) -> Self {
            MockEngine {
                faults: (0..n_faults).map(FaultId).collect(),
                tests: (0..n_tests).map(TestId).collect(),
                script: BTreeMap::new(),
                log: Vec::new(),
            }
        }

        fn on(&mut self, f: u32, t: u32, effects: &[u32]) {
            self.script.insert((f, t), effects.to_vec());
        }
    }

    impl ExperimentEngine for MockEngine {
        fn faults(&self) -> Vec<FaultId> {
            self.faults.clone()
        }
        fn tests_reaching(&self, _f: FaultId) -> Vec<TestId> {
            self.tests.clone()
        }
        fn coverage_size(&self, t: TestId) -> usize {
            // Test 0 has the highest coverage.
            100 - t.0 as usize
        }
        fn run_experiment(&mut self, f: FaultId, t: TestId, phase: u8) -> ExperimentOutcome {
            self.log.push((f, t, phase));
            let effects = self.script.get(&(f.0, t.0)).cloned().unwrap_or_default();
            let interference: BTreeSet<FaultId> = effects.iter().map(|e| FaultId(*e)).collect();
            let edges = interference
                .iter()
                .map(|&e| CausalEdge {
                    cause: f,
                    effect: e,
                    kind: EdgeKind::EI,
                    test: t,
                    phase,
                    cause_state: CompatState::empty(),
                    effect_state: CompatState::empty(),
                })
                .collect();
            ExperimentOutcome {
                fault: f,
                test: t,
                interference,
                edges,
            }
        }
    }

    fn cfg() -> ThreePhaseConfig {
        ThreePhaseConfig::default()
    }

    /// A plain (non-checkpointing) 3PA campaign with the default knobs.
    fn run_3pa(eng: &mut dyn ExperimentEngine) -> AllocationResult {
        ThreePhase::default().run(eng, &NoopObserver, RecoveryContext::default())
    }

    /// A random-allocation campaign of `budget_per_fault · |F|` experiments.
    fn run_random(eng: &mut dyn ExperimentEngine, budget_per_fault: usize) -> AllocationResult {
        let cfg = ThreePhaseConfig {
            budget_per_fault,
            ..cfg()
        };
        RandomAllocation::new(cfg, 7).run(eng, &NoopObserver, RecoveryContext::default())
    }

    #[test]
    fn budget_is_respected_and_phases_ordered() {
        let mut eng = MockEngine::new(6, 8);
        let res = run_3pa(&mut eng);
        assert_eq!(res.budget, 24);
        assert!(res.experiments_run <= 24);
        assert_eq!(res.experiments_run, eng.log.len());
        // Phase labels are monotonically non-decreasing.
        let phases: Vec<u8> = eng.log.iter().map(|(_, _, p)| *p).collect();
        let mut sorted = phases.clone();
        sorted.sort_unstable();
        assert_eq!(phases, sorted);
        // Phase one ran exactly one experiment per fault.
        assert_eq!(phases.iter().filter(|&&p| p == 1).count(), 6);
    }

    #[test]
    fn phase_one_uses_highest_coverage_test() {
        let mut eng = MockEngine::new(3, 4);
        run_3pa(&mut eng);
        for (_, t, p) in &eng.log {
            if *p == 1 {
                assert_eq!(*t, TestId(0), "phase 1 must pick max-coverage test");
            }
        }
    }

    #[test]
    fn no_duplicate_fault_test_combinations() {
        let mut eng = MockEngine::new(5, 5);
        run_3pa(&mut eng);
        let mut combos: Vec<(FaultId, TestId)> = eng.log.iter().map(|(f, t, _)| (*f, *t)).collect();
        let before = combos.len();
        combos.sort_unstable();
        combos.dedup();
        assert_eq!(combos.len(), before, "a (fault, test) pair was repeated");
    }

    #[test]
    fn causally_equivalent_faults_cluster_together() {
        let mut eng = MockEngine::new(4, 6);
        // Faults 0 and 1 both trigger {10, 11}; faults 2, 3 trigger nothing.
        for t in 0..6 {
            eng.on(0, t, &[10, 11]);
            eng.on(1, t, &[10, 11]);
        }
        let res = run_3pa(&mut eng);
        assert_eq!(res.cluster_of[&FaultId(0)], res.cluster_of[&FaultId(1)]);
        assert_eq!(res.cluster_of[&FaultId(2)], res.cluster_of[&FaultId(3)]);
        assert_ne!(res.cluster_of[&FaultId(0)], res.cluster_of[&FaultId(2)]);
    }

    #[test]
    fn conditional_cluster_gets_low_sim_score() {
        let mut eng = MockEngine::new(4, 6);
        // Fault 0: different interference per test (conditional).
        for t in 0..6 {
            eng.on(0, t, &[20 + t]);
        }
        // Faults 1,2: identical everywhere (unconditional).
        for t in 0..6 {
            eng.on(1, t, &[40, 41]);
            eng.on(2, t, &[40, 41]);
        }
        let res = run_3pa(&mut eng);
        let c_conditional = res.cluster_of[&FaultId(0)];
        let c_stable = res.cluster_of[&FaultId(1)];
        assert!(
            res.sim_scores[c_conditional] < res.sim_scores[c_stable],
            "conditional {} !< stable {}",
            res.sim_scores[c_conditional],
            res.sim_scores[c_stable]
        );
    }

    #[test]
    fn edges_accumulate_in_db() {
        let mut eng = MockEngine::new(2, 3);
        for t in 0..3 {
            eng.on(0, t, &[5]);
            eng.on(1, t, &[6]);
        }
        let res = run_3pa(&mut eng);
        assert!(res.db.len() >= 2);
        assert!(!res.db.edges_from(FaultId(0)).is_empty());
    }

    #[test]
    fn stops_when_all_combinations_exhausted() {
        // 2 faults × 2 tests = 4 combos < budget 8.
        let mut eng = MockEngine::new(2, 2);
        let res = run_3pa(&mut eng);
        assert_eq!(res.experiments_run, 4);
    }

    #[test]
    fn random_allocation_uses_budget_without_repeats() {
        let mut eng = MockEngine::new(4, 4);
        let res = run_random(&mut eng, 2);
        assert_eq!(res.experiments_run, 8);
        let mut combos: Vec<(FaultId, TestId)> = eng.log.iter().map(|(f, t, _)| (*f, *t)).collect();
        combos.sort_unstable();
        combos.dedup();
        assert_eq!(combos.len(), 8);
    }

    #[test]
    fn random_allocation_caps_at_available_combos() {
        let mut eng = MockEngine::new(2, 2);
        let res = run_random(&mut eng, 50);
        assert_eq!(res.experiments_run, 4);
    }

    #[test]
    fn sim_score_of_unknown_fault_defaults_high() {
        let mut eng = MockEngine::new(2, 2);
        let res = run_3pa(&mut eng);
        assert_eq!(res.sim_score_of(FaultId(99)), 1.0);
    }

    /// Sink that archives every mid-phase state it is handed.
    struct RecordingSink {
        states: std::cell::RefCell<Vec<MidPhaseState>>,
    }

    impl RecordingSink {
        fn new() -> Self {
            RecordingSink {
                states: std::cell::RefCell::new(Vec::new()),
            }
        }
    }

    impl CheckpointSink for RecordingSink {
        fn write(&self, state: &MidPhaseState) -> bool {
            self.states.borrow_mut().push(state.clone());
            true
        }
    }

    fn scripted_engine() -> MockEngine {
        let mut eng = MockEngine::new(7, 5);
        for t in 0..5 {
            eng.on(0, t, &[1, 2]);
            eng.on(1, t, &[2]);
            eng.on(3, t, &[0, 4]);
            eng.on(5, t, if t % 2 == 0 { &[6] } else { &[] });
        }
        eng
    }

    fn assert_results_identical(a: &AllocationResult, b: &AllocationResult) {
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.db.edges(), b.db.edges());
        assert_eq!(a.clusters, b.clusters);
        assert_eq!(a.cluster_of, b.cluster_of);
        assert_eq!(a.sim_scores, b.sim_scores);
        assert_eq!(a.experiments_run, b.experiments_run);
        assert_eq!(a.budget, b.budget);
        assert_eq!(a.gaps, b.gaps);
    }

    #[test]
    fn checkpointing_does_not_perturb_the_campaign() {
        let mut plain = scripted_engine();
        let baseline = run_3pa(&mut plain);

        for cadence in [1, 2, 3] {
            let mut eng = scripted_engine();
            let sink = RecordingSink::new();
            let res = run_three_phase_resumable(
                &mut eng,
                &cfg(),
                &NoopObserver,
                RecoveryContext {
                    sink: Some(&sink),
                    cadence,
                    resume: None,
                },
            );
            assert_results_identical(&baseline, &res);
            assert_eq!(plain.log, eng.log, "cadence {cadence} changed execution");
            assert!(!sink.states.borrow().is_empty());
        }
    }

    /// The tentpole invariant: resuming from *every* checkpoint a campaign
    /// ever wrote reproduces the uninterrupted campaign exactly — same
    /// outcome sequence, same edges, same clusters, same scores.
    #[test]
    fn resume_from_every_checkpoint_is_bit_identical() {
        let mut plain = scripted_engine();
        let baseline = run_3pa(&mut plain);

        let mut eng = scripted_engine();
        let sink = RecordingSink::new();
        run_three_phase_resumable(
            &mut eng,
            &cfg(),
            &NoopObserver,
            RecoveryContext {
                sink: Some(&sink),
                cadence: 1,
                resume: None,
            },
        );
        let states = sink.states.borrow().clone();
        assert!(states.len() >= baseline.experiments_run);

        for (i, state) in states.iter().enumerate() {
            let mut resumed_eng = scripted_engine();
            let res = run_three_phase_resumable(
                &mut resumed_eng,
                &cfg(),
                &NoopObserver,
                RecoveryContext {
                    sink: None,
                    cadence: 0,
                    resume: Some(state.clone()),
                },
            );
            assert_results_identical(&baseline, &res);
            // The resumed engine only executed the suffix.
            assert_eq!(
                resumed_eng.log.len(),
                baseline.experiments_run - state.outcomes.len(),
                "checkpoint {i} replayed already-executed experiments"
            );
        }
    }

    /// A minimal outcome for span-merge tests: fault id doubles as the
    /// payload, so sequences are easy to assert on.
    fn out(f: u32) -> ExperimentOutcome {
        ExperimentOutcome {
            fault: FaultId(f),
            test: TestId(0),
            interference: BTreeSet::new(),
            edges: Vec::new(),
        }
    }

    fn span(shard: u32, start: usize, faults: &[u32], runs: usize) -> ShardSpan {
        ShardSpan {
            shard,
            start,
            outcomes: faults.iter().copied().map(out).collect(),
            gaps: Vec::new(),
            runs,
        }
    }

    fn mid_state(executed: usize, faults: &[u32], spans: Vec<ShardSpan>) -> MidPhaseState {
        MidPhaseState {
            phase: 2,
            rng_state: [1, 2, 3, 4],
            used_at_phase_start: Vec::new(),
            spent_at_phase_start: 0,
            executed_in_phase: executed,
            phase1_len: 0,
            outcomes: faults.iter().copied().map(out).collect(),
            gaps: Vec::new(),
            runs_executed: 10,
            shard_spans: spans,
        }
    }

    #[test]
    fn normalize_folds_adjacent_spans_and_keeps_islands() {
        // Prefix covers [0, 2); spans cover [2, 4) and [6, 7): the first is
        // adjacent and folds, the second stays an island.
        let mut st = mid_state(
            2,
            &[0, 1],
            vec![span(1, 6, &[6], 3), span(0, 2, &[2, 3], 5)],
        );
        st.normalize();
        assert_eq!(st.executed_in_phase, 4);
        let seq: Vec<u32> = st.outcomes.iter().map(|o| o.fault.0).collect();
        assert_eq!(seq, vec![0, 1, 2, 3]);
        assert_eq!(st.runs_executed, 15);
        assert_eq!(st.shard_spans.len(), 1);
        assert_eq!(st.shard_spans[0].start, 6);
    }

    #[test]
    fn normalize_trims_overlap_and_chains_folds() {
        // Span [1, 4) overlaps the prefix [0, 2) by one outcome; after the
        // trim+fold the prefix reaches 4 and the next span [4, 5) chains.
        let mut st = mid_state(
            2,
            &[0, 1],
            vec![span(0, 1, &[1, 2, 3], 7), span(1, 4, &[4], 2)],
        );
        st.normalize();
        assert_eq!(st.executed_in_phase, 5);
        let seq: Vec<u32> = st.outcomes.iter().map(|o| o.fault.0).collect();
        assert_eq!(seq, vec![0, 1, 2, 3, 4]);
        assert_eq!(st.runs_executed, 19);
        assert!(st.shard_spans.is_empty());
    }

    #[test]
    fn normalize_drops_spans_inside_the_prefix_and_is_idempotent() {
        let mut st = mid_state(
            3,
            &[0, 1, 2],
            vec![span(0, 0, &[0, 1], 9), span(1, 5, &[5], 1)],
        );
        st.normalize();
        assert_eq!(st.executed_in_phase, 3);
        assert_eq!(
            st.runs_executed, 10,
            "folded-before span must not re-count runs"
        );
        assert_eq!(st.shard_spans.len(), 1);
        let again = st.clone();
        st.normalize();
        assert_eq!(st, again);
    }

    /// Engine wrapper that completes the *second* half of every chunk
    /// first and streams it through `progress` as an out-of-order shard
    /// span — the access pattern of the daemon's sharded coordinator.
    struct ShardedEngine {
        inner: MockEngine,
    }

    impl ExperimentEngine for ShardedEngine {
        fn faults(&self) -> Vec<FaultId> {
            self.inner.faults()
        }
        fn tests_reaching(&self, f: FaultId) -> Vec<TestId> {
            self.inner.tests_reaching(f)
        }
        fn coverage_size(&self, t: TestId) -> usize {
            self.inner.coverage_size(t)
        }
        fn run_experiment(&mut self, f: FaultId, t: TestId, phase: u8) -> ExperimentOutcome {
            self.inner.run_experiment(f, t, phase)
        }
        fn run_experiments_checkpointed(
            &mut self,
            batch: &[(FaultId, TestId, u8)],
            progress: &mut dyn FnMut(&[ShardSpan]),
        ) -> Vec<ExperimentOutcome> {
            let mid = batch.len() / 2;
            if mid == 0 {
                return self.inner.run_experiments(batch);
            }
            let tail: Vec<ExperimentOutcome> = batch[mid..]
                .iter()
                .map(|&(f, t, p)| self.inner.run_experiment(f, t, p))
                .collect();
            progress(&[span_of(1, mid, &tail)]);
            let mut head: Vec<ExperimentOutcome> = batch[..mid]
                .iter()
                .map(|&(f, t, p)| self.inner.run_experiment(f, t, p))
                .collect();
            progress(&[span_of(0, 0, &head), span_of(1, mid, &tail)]);
            head.extend(tail);
            head
        }
    }

    fn span_of(shard: u32, start: usize, outcomes: &[ExperimentOutcome]) -> ShardSpan {
        ShardSpan {
            shard,
            start,
            outcomes: outcomes.to_vec(),
            gaps: Vec::new(),
            runs: 0,
        }
    }

    #[test]
    fn out_of_order_shard_completion_does_not_perturb_results() {
        let mut plain = scripted_engine();
        let baseline = run_3pa(&mut plain);

        for cadence in [2, 3, 5] {
            let mut eng = ShardedEngine {
                inner: scripted_engine(),
            };
            let sink = RecordingSink::new();
            let res = run_three_phase_resumable(
                &mut eng,
                &cfg(),
                &NoopObserver,
                RecoveryContext {
                    sink: Some(&sink),
                    cadence,
                    resume: None,
                },
            );
            assert_results_identical(&baseline, &res);
            assert!(
                sink.states
                    .borrow()
                    .iter()
                    .any(|s| !s.shard_spans.is_empty()),
                "cadence {cadence} never wrote a span-bearing checkpoint"
            );
        }
    }

    /// The daemon invariant on top of the supervisor one: resuming from
    /// *every* checkpoint a sharded (out-of-order) campaign wrote — island
    /// states included — reproduces the uninterrupted campaign exactly,
    /// and outcomes a shard already completed are never re-run.
    #[test]
    fn resume_from_span_bearing_checkpoints_is_bit_identical() {
        let mut plain = scripted_engine();
        let baseline = run_3pa(&mut plain);

        let mut eng = ShardedEngine {
            inner: scripted_engine(),
        };
        let sink = RecordingSink::new();
        run_three_phase_resumable(
            &mut eng,
            &cfg(),
            &NoopObserver,
            RecoveryContext {
                sink: Some(&sink),
                cadence: 4,
                resume: None,
            },
        );
        let states = sink.states.borrow().clone();
        assert!(states.iter().any(|s| !s.shard_spans.is_empty()));

        for (i, state) in states.iter().enumerate() {
            let banked: usize = state.outcomes.len()
                + state
                    .shard_spans
                    .iter()
                    .map(|s| s.outcomes.len())
                    .sum::<usize>();
            let mut resumed_eng = scripted_engine();
            let res = run_three_phase_resumable(
                &mut resumed_eng,
                &cfg(),
                &NoopObserver,
                RecoveryContext {
                    sink: None,
                    cadence: 0,
                    resume: Some(state.clone()),
                },
            );
            assert_results_identical(&baseline, &res);
            assert_eq!(
                resumed_eng.log.len(),
                baseline.experiments_run - banked,
                "checkpoint {i} re-ran work a shard already completed"
            );
        }
    }
}
