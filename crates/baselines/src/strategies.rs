//! Engine-level comparison policies behind the [`AllocationStrategy`]
//! trait.
//!
//! `csnake_core`'s strategy interface abstracts "how to spend the
//! experiment budget" over an [`ExperimentEngine`]; this module contributes
//! the comparison policies that bracket the paper's Three-Phase Allocation:
//!
//! * [`ExhaustiveAllocation`] — every `(fault, reaching test)` combination,
//!   the (budget-unconstrained) upper bound on what any allocator can
//!   discover with the same engine.
//! * [`CoverageGreedyAllocation`] — the "obvious" heuristic: give each
//!   fault the same quota and always pick its highest-coverage unused
//!   workload. This generalises 3PA's phase one to the whole budget —
//!   exactly what 3PA's phases two and three exist to improve on, since
//!   coverage-greedy picks never diversify into the low-coverage workloads
//!   where conditional propagations hide.
//!
//! The crate's other two baselines stay *outside* the trait deliberately:
//! the naive single-fault strategy ([`crate::naive`]) judges raw traces
//! (self re-occurrence within one run) and the black-box fuzzer
//! ([`crate::blackbox`]) injects coarse external faults that no whitebox
//! engine vocabulary describes. Policies that *do* speak `(fault, test)`
//! experiments belong here.

use csnake_core::{
    run_planned, AllocationResult, AllocationStrategy, CampaignObserver, ExperimentEngine,
    RecoveryContext, ThreePhaseConfig,
};
use csnake_inject::{FaultId, TestId};

/// Runs every `(fault, reaching-test)` combination once, in deterministic
/// (fault id, coverage-ranked test) order. No budget: this is the
/// everything-the-engine-can-see upper bound other policies are compared
/// against.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExhaustiveAllocation;

impl AllocationStrategy for ExhaustiveAllocation {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn run(
        &self,
        engine: &mut dyn ExperimentEngine,
        observer: &dyn CampaignObserver,
        _recovery: RecoveryContext<'_>,
    ) -> AllocationResult {
        let batch = plan_coverage_ranked(engine, usize::MAX);
        let budget = batch.len();
        run_planned(engine, &batch, budget, observer)
    }
}

/// Equal per-fault quotas, spent greedily on each fault's highest-coverage
/// reaching workloads.
#[derive(Debug, Clone)]
pub struct CoverageGreedyAllocation {
    /// Budget knobs; the total is [`ThreePhaseConfig::total_budget`] over
    /// the engine's fault count, split evenly across faults.
    pub cfg: ThreePhaseConfig,
}

impl CoverageGreedyAllocation {
    /// A coverage-greedy policy matching the budget of the given 3PA knobs.
    pub fn new(cfg: ThreePhaseConfig) -> Self {
        CoverageGreedyAllocation { cfg }
    }
}

impl AllocationStrategy for CoverageGreedyAllocation {
    fn name(&self) -> &'static str {
        "coverage-greedy"
    }

    fn run(
        &self,
        engine: &mut dyn ExperimentEngine,
        observer: &dyn CampaignObserver,
        _recovery: RecoveryContext<'_>,
    ) -> AllocationResult {
        let budget = self.cfg.total_budget(engine.faults().len());
        let batch = plan_coverage_ranked(engine, self.cfg.budget_per_fault);
        run_planned(engine, &batch, budget, observer)
    }
}

/// Plans up to `per_fault` experiments per fault, tests ranked by
/// descending coverage (lowest id on ties — the same deterministic order
/// 3PA's phase one uses).
fn plan_coverage_ranked(
    engine: &dyn ExperimentEngine,
    per_fault: usize,
) -> Vec<(FaultId, TestId, u8)> {
    let mut batch = Vec::new();
    for f in engine.faults() {
        let mut tests = engine.tests_reaching(f);
        tests.sort_by_key(|t| (std::cmp::Reverse(engine.coverage_size(*t)), *t));
        for t in tests.into_iter().take(per_fault) {
            batch.push((f, t, 0));
        }
    }
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use csnake_core::ExperimentOutcome;
    use csnake_core::{NoopObserver, ProgressCollector};
    use std::collections::BTreeSet;

    /// Engine where every fault reaches every test and interferes with a
    /// fixed partner fault.
    struct GridEngine {
        faults: Vec<FaultId>,
        tests: Vec<TestId>,
        log: Vec<(FaultId, TestId)>,
    }

    impl GridEngine {
        fn new(n_faults: u32, n_tests: u32) -> Self {
            GridEngine {
                faults: (0..n_faults).map(FaultId).collect(),
                tests: (0..n_tests).map(TestId).collect(),
                log: Vec::new(),
            }
        }
    }

    impl ExperimentEngine for GridEngine {
        fn faults(&self) -> Vec<FaultId> {
            self.faults.clone()
        }
        fn tests_reaching(&self, _f: FaultId) -> Vec<TestId> {
            self.tests.clone()
        }
        fn coverage_size(&self, t: TestId) -> usize {
            100 - t.0 as usize
        }
        fn run_experiment(&mut self, f: FaultId, t: TestId, _phase: u8) -> ExperimentOutcome {
            self.log.push((f, t));
            ExperimentOutcome {
                fault: f,
                test: t,
                interference: BTreeSet::new(),
                edges: Vec::new(),
            }
        }
    }

    #[test]
    fn exhaustive_covers_the_full_grid_once() {
        let mut eng = GridEngine::new(3, 4);
        let res = ExhaustiveAllocation.run(&mut eng, &NoopObserver, RecoveryContext::default());
        assert_eq!(res.experiments_run, 12);
        assert_eq!(res.budget, 12);
        let mut combos = eng.log.clone();
        combos.sort_unstable();
        combos.dedup();
        assert_eq!(combos.len(), 12, "no repeats");
    }

    #[test]
    fn coverage_greedy_respects_quota_and_rank() {
        let mut eng = GridEngine::new(3, 5);
        let cfg = ThreePhaseConfig {
            budget_per_fault: 2,
            ..Default::default()
        };
        let progress = ProgressCollector::new();
        let res =
            CoverageGreedyAllocation::new(cfg).run(&mut eng, &progress, RecoveryContext::default());
        assert_eq!(res.experiments_run, 6);
        assert_eq!(res.budget, 6);
        // Every fault got exactly its quota, on the two highest-coverage
        // tests (ids 0 and 1).
        for f in 0..3u32 {
            let tests: Vec<TestId> = eng
                .log
                .iter()
                .filter(|(ff, _)| *ff == FaultId(f))
                .map(|(_, t)| *t)
                .collect();
            assert_eq!(tests, vec![TestId(0), TestId(1)]);
        }
        assert_eq!(progress.snapshot().experiments, 6);
    }

    #[test]
    fn strategies_are_object_safe() {
        let cfg = ThreePhaseConfig::default();
        let policies: Vec<Box<dyn AllocationStrategy>> = vec![
            Box::new(ExhaustiveAllocation),
            Box::new(CoverageGreedyAllocation::new(cfg)),
        ];
        let names: Vec<&str> = policies.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["exhaustive", "coverage-greedy"]);
    }
}
