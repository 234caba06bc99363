//! The workload driver: runs profile and injection experiments against a
//! target system and feeds the 3PA protocol.
//!
//! Responsibilities (Fig. 3, step 2):
//!
//! * run every integration test's *profile runs* (no injection, repeated
//!   `reps` times) and cache the traces — these are the counterfactuals;
//! * derive per-test coverage (which fault points each test reaches) so that
//!   injections only use reaching tests;
//! * build the dynamic call graph from profile traces and run the static
//!   analyzer's filters (§4.1, §B.1);
//! * for each `(fault, test)` experiment, run the injection runs (sweeping
//!   delay lengths for loop faults) and hand the traces to FCA.
//!
//! The unit of scheduling is one simulator run. Profiling maps every
//! `(test, rep)` through one ordered [`pool`] call; a batch expands its
//! experiments into `(experiment, plan, rep)` runs, in batch order, and
//! streams them through one panic-isolating pool call. As each
//! `(experiment, plan)` run set completes, the calling thread indexes it,
//! runs FCA on it and drops (or caches) its traces, so a batch never holds
//! more than its in-flight run sets. Outcomes are pure functions of
//! `(test, plan, seed)` merged in plan order, so any thread count gives
//! the same results.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use csnake_analyzer::{analyze, Analysis, AnalysisConfig, CallGraph};
use csnake_inject::{
    FaultId, FaultKind, InjectAction, InjectionPlan, Registry, RunTrace, TestId, TraceIndex,
};
use csnake_sim::VirtualTime;
use serde::{Deserialize, Serialize};

use crate::alloc::ExperimentEngine;
use crate::chaos::{ChaosConfig, ChaosInjector};
use crate::fca::{analyze_experiment_prepared, ExperimentOutcome, FcaConfig, ProfileIndex};
use crate::observer::{CampaignEvent, CampaignObserver};
use crate::pool;
use crate::target::TargetSystem;

/// Supervisor retry knobs: what happens when an experiment job panics or
/// stalls.
///
/// Failed jobs are quarantined and retried with bounded exponential
/// backoff: attempt `k` (1-based) waits `min(backoff_base_ms · 2^(k-1),
/// backoff_cap_ms)` before re-running. The schedule is deterministic and
/// paces wall-clock execution only — no timing ever enters campaign
/// results, so a retried campaign stays bit-identical to an unfailed one.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryConfig {
    /// Retry rounds after the initial attempt before a job becomes a gap.
    pub max_retries: u32,
    /// Base backoff before the first retry, in milliseconds.
    pub backoff_base_ms: u64,
    /// Upper bound on any single backoff pause, in milliseconds.
    pub backoff_cap_ms: u64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_retries: 2,
            backoff_base_ms: 10,
            backoff_cap_ms: 1_000,
        }
    }
}

impl RetryConfig {
    /// The deterministic backoff before retry `attempt` (1-based), in
    /// milliseconds.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let factor = 1u64 << attempt.saturating_sub(1).min(20);
        self.backoff_base_ms
            .saturating_mul(factor)
            .min(self.backoff_cap_ms)
    }
}

/// Driver knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriverConfig {
    /// Repetitions of every profile and injection run (paper: 5).
    pub reps: usize,
    /// Delay lengths swept per delay injection, in milliseconds
    /// (paper: seven values, 100 ms – 8 s; default here is a 3-point sweep
    /// for speed — use [`csnake_inject::fault::PAPER_DELAY_SWEEP_MS`] for
    /// the full set).
    pub delay_values_ms: Vec<u64>,
    /// FCA thresholds.
    pub fca: FcaConfig,
    /// Static-analysis knobs.
    pub analysis: AnalysisConfig,
    /// Base seed; every `(test, rep)` derives its own run seed.
    pub base_seed: u64,
    /// Run a batch's (and the profile stage's) simulator runs on the
    /// worker [`pool`], at most one per hardware thread; `false` runs them
    /// one at a time on the calling thread. Results are identical either
    /// way.
    pub parallel: bool,
    /// Cache injection-side run sets (traces + [`TraceIndex`]) keyed by
    /// `(test, plan)`, so a `(fault, test)` combination revisited later —
    /// a comparison strategy over the same profiled driver, adaptive
    /// repetitions — reuses the recorded runs instead of re-simulating
    /// and re-indexing. Off by default: the cache pins every injection
    /// trace for the driver's lifetime, a real memory cost on large
    /// campaigns. Results are identical either way (run seeds are pure
    /// functions of `(test, rep)`); only `runs_executed` stops growing
    /// on hits. Hit/miss counters surface through
    /// [`CampaignEvent::TraceCache`].
    pub cache_injections: bool,
    /// Supervisor retry schedule for panicked or stalled experiment jobs.
    pub retry: RetryConfig,
    /// Self-fault-injection harness configuration (disabled by default).
    pub chaos: ChaosConfig,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            reps: 5,
            delay_values_ms: vec![100, 800, 3200],
            fca: FcaConfig::default(),
            analysis: AnalysisConfig::default(),
            base_seed: 0xCA5CADE,
            parallel: true,
            cache_injections: false,
            retry: RetryConfig::default(),
            chaos: ChaosConfig::default(),
        }
    }
}

impl DriverConfig {
    /// The paper's evaluation settings: 5 repetitions per run set and the
    /// full seven-point 100 ms – 8 s delay sweep
    /// ([`csnake_inject::fault::PAPER_DELAY_SWEEP_MS`]). Slower than the
    /// default (which trims the sweep for day-to-day runs) but maximises
    /// discovery, per §4.2.
    pub fn paper() -> Self {
        DriverConfig {
            reps: 5,
            delay_values_ms: csnake_inject::fault::PAPER_DELAY_SWEEP_MS.to_vec(),
            ..Default::default()
        }
    }

    /// Pool workers for simulator runs.
    fn workers(&self) -> usize {
        if self.parallel {
            pool::hardware_threads()
        } else {
            1
        }
    }
}

/// Deterministic per-(test, rep) seed derivation.
///
/// Profile and injection runs of the same `(test, rep)` share a seed so the
/// comparison is paired: the only difference is the injected fault.
pub fn seed_for(base: u64, test: TestId, rep: usize) -> u64 {
    let mut h = base ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(test.0 as u64 + 1);
    h ^= (rep as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 31;
    h.wrapping_mul(0x94D0_49BB_1331_11EB)
}

/// One complete injection-side run set: the recorded traces plus the
/// [`TraceIndex`] FCA builds over them.
struct InjRunSet {
    traces: Vec<RunTrace>,
    index: TraceIndex,
}

/// Cache key: the `(test, plan)` pair, with the plan flattened into
/// `(fault, action tag, delay µs)` so it orders/hashes cheaply.
type InjKey = (TestId, FaultId, u8, u64);

fn inj_key(test: TestId, plan: InjectionPlan) -> InjKey {
    let (tag, delay_us) = match plan.action {
        InjectAction::Throw => (0u8, 0u64),
        InjectAction::Negate => (1, 0),
        InjectAction::Delay(d) => (2, d.as_micros()),
    };
    (test, plan.target, tag, delay_us)
}

/// The outcome of an experiment that found nothing.
fn empty_outcome(fault: FaultId, test: TestId) -> ExperimentOutcome {
    ExperimentOutcome {
        fault,
        test,
        interference: Default::default(),
        edges: Vec::new(),
    }
}

/// A queued `(experiment, plan)` run set, filled by rep as its runs land.
struct RunSet {
    /// `(experiment, plan position, phase)` of the attempt reading it.
    reader: (usize, usize, u8),
    traces: Vec<Option<RunTrace>>,
}

/// One pending experiment's attempt: each plan's outcome once analysed,
/// the runs it queued, and its first failure by `(plan position, rep)`.
#[derive(Default)]
struct Attempt {
    plans: Vec<Option<ExperimentOutcome>>,
    runs: usize,
    failure: Option<((usize, usize), String)>,
}

impl Attempt {
    /// Records a failure unless one at a lower `(plan, rep)` is known, so
    /// the reason never depends on completion order.
    fn fail(&mut self, at: (usize, usize), reason: String) {
        if self.failure.as_ref().is_none_or(|(first, _)| at < *first) {
            self.failure = Some((at, reason));
        }
    }
}

/// The experiment engine over one target system.
pub struct Driver<'a> {
    target: &'a dyn TargetSystem,
    registry: Arc<Registry>,
    cfg: DriverConfig,
    /// Static-analysis result (filters applied).
    pub analysis: Analysis,
    /// Cached profile traces per test.
    profiles: BTreeMap<TestId, Vec<RunTrace>>,
    /// Prepared profile index per test (presence counts, loop-count matrix,
    /// per-loop sample moments) — shared by every experiment on the test.
    profile_idx: BTreeMap<TestId, ProfileIndex>,
    /// Tests whose profile coverage includes each fault point.
    reaching: BTreeMap<FaultId, Vec<TestId>>,
    /// Number of fault points covered per test.
    coverage_size: BTreeMap<TestId, usize>,
    /// Injection run sets cached per `(test, plan)` when
    /// `cfg.cache_injections` is set.
    inj_cache: HashMap<InjKey, InjRunSet>,
    cache_hits: usize,
    cache_misses: usize,
    /// Total individual runs executed (profile + injection).
    pub runs_executed: usize,
    /// Self-fault-injection harness; disabled unless configured via
    /// [`DriverConfig::chaos`].
    chaos: ChaosInjector,
    /// Observer for supervisor events (`batch_retried` / `batch_failed`);
    /// `None` keeps them silent.
    observer: Option<Arc<dyn CampaignObserver>>,
    /// Experiment cells abandoned after the retry budget was exhausted,
    /// drained by [`ExperimentEngine::take_gaps`].
    gaps: Vec<(FaultId, TestId, u8)>,
    /// Monotonic batch ordinal for supervisor-event provenance.
    batch_counter: usize,
}

impl<'a> Driver<'a> {
    /// Profiles every test, builds coverage and the dynamic call graph, and
    /// applies the static filters.
    pub fn new(target: &'a dyn TargetSystem, cfg: DriverConfig) -> Self {
        let tests = target.tests();
        let jobs: Vec<(TestId, usize)> = tests
            .iter()
            .flat_map(|tc| (0..cfg.reps).map(move |rep| (tc.id, rep)))
            .collect();
        let runs = jobs.len();
        let traces = pool::run_ordered(jobs, cfg.workers(), |(t, rep)| {
            target.run(t, None, seed_for(cfg.base_seed, t, rep))
        });
        let mut traces = traces.into_iter();
        let profiles = tests
            .iter()
            .map(|tc| (tc.id, traces.by_ref().take(cfg.reps).collect()))
            .collect();
        Self::from_profiles(target, cfg, profiles, runs)
    }

    /// Rebuilds a driver from previously recorded profile traces without
    /// touching the simulator — the resume path of session snapshots.
    ///
    /// All derived state (coverage, the dynamic call graph, the static
    /// filters, the per-test profile indexes) is recomputed here; since the
    /// computation is deterministic in `profiles` and `cfg`, a driver
    /// restored this way is indistinguishable from the one that recorded
    /// the traces. `runs_executed` carries the run counter across the
    /// checkpoint so campaign accounting stays exact.
    pub fn from_profiles(
        target: &'a dyn TargetSystem,
        cfg: DriverConfig,
        profiles: BTreeMap<TestId, Vec<RunTrace>>,
        runs_executed: usize,
    ) -> Self {
        let registry = target.registry();
        let runs = runs_executed;

        // Coverage: a test reaches a fault point if any profile rep did.
        let mut reaching: BTreeMap<FaultId, Vec<TestId>> = BTreeMap::new();
        let mut coverage_size: BTreeMap<TestId, usize> = BTreeMap::new();
        for (tid, traces) in &profiles {
            let mut union = std::collections::BTreeSet::new();
            for t in traces {
                union.extend(t.coverage.iter().copied());
            }
            coverage_size.insert(*tid, union.len());
            for f in union {
                reaching.entry(f).or_default().push(*tid);
            }
        }

        let cg = CallGraph::from_traces(profiles.values().flatten());
        let analysis = analyze(&registry, &cg, &cfg.analysis);

        let profile_idx: BTreeMap<TestId, ProfileIndex> = profiles
            .iter()
            .map(|(tid, traces)| (*tid, ProfileIndex::build(&registry, traces)))
            .collect();

        let chaos = ChaosInjector::new(cfg.chaos.clone());
        // Profiling (or a resumed snapshot's earlier life) may have left
        // workload latency summaries buffered in the target; the observer
        // stream covers experiments only, so clear them here.
        drop(target.drain_workload_summaries());
        Driver {
            target,
            registry,
            cfg,
            analysis,
            profiles,
            profile_idx,
            reaching,
            coverage_size,
            inj_cache: HashMap::new(),
            cache_hits: 0,
            cache_misses: 0,
            runs_executed: runs,
            chaos,
            observer: None,
            gaps: Vec::new(),
            batch_counter: 0,
        }
    }

    /// Attaches an observer for supervisor events — retries
    /// ([`CampaignEvent::BatchRetried`]) and abandoned cells
    /// ([`CampaignEvent::BatchFailed`]). Stage-level events are
    /// emitted by the session, not the driver.
    pub fn set_observer(&mut self, observer: Arc<dyn CampaignObserver>) {
        self.observer = Some(observer);
    }

    /// The active self-fault-injection harness (disabled unless configured).
    pub fn chaos(&self) -> &ChaosInjector {
        &self.chaos
    }

    /// `(hits, misses)` of the injection-run cache so far; both zero when
    /// `cache_injections` is off. A hit means the experiment reused the
    /// recorded runs and their index without touching the simulator.
    pub fn trace_cache_stats(&self) -> (usize, usize) {
        (self.cache_hits, self.cache_misses)
    }

    /// The registry of the target under test.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Cached profile traces of a test.
    pub fn profile(&self, t: TestId) -> &[RunTrace] {
        self.profiles.get(&t).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// All cached profile traces, keyed by test — the expensive simulator
    /// output that session snapshots persist.
    pub fn profiles(&self) -> &BTreeMap<TestId, Vec<RunTrace>> {
        &self.profiles
    }

    /// The driver configuration.
    pub fn config(&self) -> &DriverConfig {
        &self.cfg
    }

    fn plans_for(&self, f: FaultId) -> Vec<InjectionPlan> {
        match self.registry.point(f).kind {
            FaultKind::LoopPoint => self
                .cfg
                .delay_values_ms
                .iter()
                .map(|ms| InjectionPlan::delay(f, VirtualTime::from_millis(*ms)))
                .collect(),
            FaultKind::Throw | FaultKind::LibCall => vec![InjectionPlan::throw(f)],
            FaultKind::Negation => vec![InjectionPlan::negate(f)],
        }
    }

    /// Runs FCA on a complete run set into plan `k` of `a`; a panic fails
    /// `a` after that plan's last rep.
    fn analyze(
        &self,
        set: &InjRunSet,
        plan: InjectionPlan,
        t: TestId,
        phase: u8,
        a: &mut Attempt,
        k: usize,
    ) {
        let fallback;
        let profile = match self.profile_idx.get(&t) {
            Some(p) => p,
            None => {
                fallback = ProfileIndex::build(&self.registry, &[]);
                &fallback
            }
        };
        let out = catch_unwind(AssertUnwindSafe(|| {
            analyze_experiment_prepared(
                &self.registry,
                profile,
                &set.index,
                &set.traces,
                plan,
                t,
                phase,
                &self.cfg.fca,
            )
        }));
        match out {
            Ok(out) => a.plans[k] = Some(out),
            Err(payload) => a.fail((k, self.cfg.reps), pool::panic_message(payload.as_ref())),
        }
    }

    /// One attempt at the `pending` experiments of `batch`. Each one's
    /// chaos hook fires here, on the calling thread, before any of its runs
    /// is queued, so a killed attempt launches no run. The survivors expand
    /// into `(experiment, plan, rep)` runs in batch order (a cache hit into
    /// none) that stream through one isolated pool call; each run set is
    /// analysed, then cached or dropped, as soon as its last run lands.
    fn attempt(&mut self, batch: &[(FaultId, TestId, u8)], pending: &[usize]) -> Vec<Attempt> {
        let reps = self.cfg.reps;
        let mut attempts: Vec<Attempt> = Vec::with_capacity(pending.len());
        let mut sets: Vec<RunSet> = Vec::new();
        let mut jobs: Vec<(usize, TestId, InjectionPlan, usize)> = Vec::new();
        for (e, &i) in pending.iter().enumerate() {
            let (f, t, phase) = batch[i];
            let mut a = Attempt::default();
            if let Err(payload) =
                catch_unwind(AssertUnwindSafe(|| self.chaos.experiment_hook(f, t)))
            {
                a.fail((0, 0), pool::panic_message(payload.as_ref()));
                attempts.push(a);
                continue;
            }
            for (k, plan) in self.plans_for(f).into_iter().enumerate() {
                a.plans.push(None);
                if self.cfg.cache_injections {
                    if let Some(set) = self.inj_cache.get(&inj_key(t, plan)) {
                        self.analyze(set, plan, t, phase, &mut a, k);
                        self.cache_hits += 1;
                        continue;
                    }
                    self.cache_misses += 1;
                }
                jobs.extend((0..reps).map(|rep| (sets.len(), t, plan, rep)));
                sets.push(RunSet {
                    reader: (e, k, phase),
                    traces: (0..reps).map(|_| None).collect(),
                });
                a.runs += reps;
            }
            attempts.push(a);
        }

        let target = self.target;
        let base_seed = self.cfg.base_seed;
        let mut fresh = Vec::new();
        pool::run_each_caught(
            jobs.clone(),
            self.cfg.workers(),
            |(_, t, plan, rep)| target.run(t, Some(plan), seed_for(base_seed, t, rep)),
            |j, result| {
                let (s, t, plan, rep) = jobs[j];
                let set = &mut sets[s];
                let (e, k, phase) = set.reader;
                match result {
                    Ok(trace) => set.traces[rep] = Some(trace),
                    Err(payload) => {
                        attempts[e].fail((k, rep), pool::panic_message(payload.as_ref()));
                        return;
                    }
                }
                if set.traces.iter().all(Option::is_some) {
                    let traces: Vec<RunTrace> = set.traces.drain(..).flatten().collect();
                    let index = TraceIndex::build(&self.registry, &traces);
                    let done = InjRunSet { traces, index };
                    self.analyze(&done, plan, t, phase, &mut attempts[e], k);
                    if self.cfg.cache_injections {
                        fresh.push((inj_key(t, plan), done));
                    }
                }
            },
        );
        self.inj_cache.extend(fresh);
        attempts
    }
}

impl ExperimentEngine for Driver<'_> {
    fn faults(&self) -> Vec<FaultId> {
        self.analysis.injectable.clone()
    }

    fn tests_reaching(&self, f: FaultId) -> Vec<TestId> {
        self.reaching.get(&f).cloned().unwrap_or_default()
    }

    fn coverage_size(&self, t: TestId) -> usize {
        self.coverage_size.get(&t).copied().unwrap_or(0)
    }

    fn run_experiment(&mut self, f: FaultId, t: TestId, phase: u8) -> ExperimentOutcome {
        self.run_experiments(&[(f, t, phase)])
            .pop()
            .expect("one outcome per experiment")
    }

    /// Streams the batch's simulator runs through the shared worker pool,
    /// supervising failures. Target runs are deterministic in
    /// `(test, plan, seed)`, each experiment merges its plans in plan order
    /// and outcomes come back in batch order, so the outcome sequence is
    /// bit-identical to the sequential path.
    ///
    /// An experiment whose chaos hook fires, or one of whose runs (or FCA)
    /// panics, fails with the message of its first failure in
    /// `(plan, rep)` order. Failed experiments are quarantined and re-run
    /// per [`DriverConfig::retry`]; the backoff pauses pace wall-clock
    /// execution only and never enter results. An experiment still
    /// failing after the budget becomes a *gap*: it yields an
    /// empty [`ExperimentOutcome`] placeholder (preserving batch order and
    /// budget accounting), is reported via
    /// [`CampaignEvent::BatchFailed`], and is recorded for
    /// [`ExperimentEngine::take_gaps`].
    fn run_experiments(&mut self, batch: &[(FaultId, TestId, u8)]) -> Vec<ExperimentOutcome> {
        let batch_id = self.batch_counter;
        self.batch_counter += 1;
        let mut slots: Vec<Option<(ExperimentOutcome, usize)>> =
            (0..batch.len()).map(|_| None).collect();
        let mut pending: Vec<usize> = (0..batch.len()).collect();
        let mut attempt = 0u32;
        loop {
            let mut failed: Vec<(usize, String)> = Vec::new();
            for (a, &idx) in self.attempt(batch, &pending).into_iter().zip(&pending) {
                if let Some((_, reason)) = a.failure {
                    failed.push((idx, reason));
                    continue;
                }
                let (f, t, _) = batch[idx];
                // Causal relationships found at any delay length count
                // (§4.2: the sweep "maximizes discovery"); the CausalDb
                // deduplicates repeats.
                // A plan with no outcome had no runs (`reps == 0`).
                let mut plans = a.plans.into_iter().flatten();
                let mut merged = plans.next().unwrap_or_else(|| empty_outcome(f, t));
                for out in plans {
                    merged.interference.extend(out.interference);
                    merged.edges.extend(out.edges);
                }
                slots[idx] = Some((merged, a.runs));
            }
            if failed.is_empty() {
                break;
            }
            if attempt >= self.cfg.retry.max_retries {
                for (idx, reason) in &failed {
                    let (f, t, p) = batch[*idx];
                    self.gaps.push((f, t, p));
                    if let Some(obs) = &self.observer {
                        obs.on_event(&CampaignEvent::BatchFailed {
                            batch: batch_id,
                            fault: f,
                            test: t,
                            phase: p,
                            reason: reason.clone(),
                        });
                    }
                    // Empty placeholder keeps batch order and budget
                    // accounting identical to a successful run; the cell is
                    // enumerated in the report's missing set instead.
                    slots[*idx] = Some((empty_outcome(f, t), 0));
                }
                break;
            }
            attempt += 1;
            let backoff = self.cfg.retry.backoff_ms(attempt);
            if let Some(obs) = &self.observer {
                obs.on_event(&CampaignEvent::BatchRetried {
                    batch: batch_id,
                    failed_jobs: failed.len(),
                    attempt,
                    backoff_ms: backoff,
                });
            }
            if backoff > 0 {
                std::thread::sleep(std::time::Duration::from_millis(backoff));
            }
            pending = failed.into_iter().map(|(idx, _)| idx).collect();
        }

        let mut outcomes = Vec::with_capacity(batch.len());
        for slot in slots {
            let (out, runs) = slot.expect("every slot resolved");
            self.runs_executed += runs;
            outcomes.push(out);
        }

        // Open-loop workload targets buffer a latency summary per run; the
        // pool interleaves them nondeterministically, so drain once per
        // batch and re-emit sorted — a deterministic stream for telemetry.
        // Every plan on one (test, rep) shares a seed, so the order runs on
        // past (test, seed) into the content; ties are identical summaries.
        // Ordinary targets return an empty vector.
        let mut summaries = self.target.drain_workload_summaries();
        if !summaries.is_empty() {
            summaries.sort();
            if let Some(obs) = &self.observer {
                for s in &summaries {
                    obs.on_event(&CampaignEvent::workload_summary(s));
                }
            }
        }
        outcomes
    }

    fn take_gaps(&mut self) -> Vec<(FaultId, TestId, u8)> {
        std::mem::take(&mut self.gaps)
    }

    fn runs_executed(&self) -> usize {
        self.runs_executed
    }

    fn attach_observer(&mut self, observer: Arc<dyn CampaignObserver>) {
        self.set_observer(observer);
    }

    fn trace_cache_stats(&self) -> (usize, usize) {
        Driver::trace_cache_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_distinct_across_tests_and_reps() {
        let mut seen = std::collections::BTreeSet::new();
        for t in 0..10u32 {
            for rep in 0..10usize {
                assert!(seen.insert(seed_for(42, TestId(t), rep)));
            }
        }
        // And stable.
        assert_eq!(seed_for(42, TestId(3), 2), seed_for(42, TestId(3), 2));
        assert_ne!(seed_for(42, TestId(3), 2), seed_for(43, TestId(3), 2));
    }
}
