//! Detection reports: cycle composition, ground-truth matching, TP/FP
//! accounting (§8.1, §8.4).

use csnake_inject::{FaultId, FaultKind, Registry, TestId};
use serde::{Deserialize, Serialize};

use crate::alloc::AllocationResult;
use crate::beam::{Cycle, CycleCluster};
use crate::edge::CausalDb;
use crate::target::{KnownBug, TargetSystem};

/// Injection composition of a cycle, in the notation of Table 3
/// ("1D | 2E | 0N").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Composition {
    /// Distinct delay injections.
    pub delays: usize,
    /// Distinct exception injections.
    pub exceptions: usize,
    /// Distinct negation injections.
    pub negations: usize,
}

impl std::fmt::Display for Composition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}D | {}E | {}N",
            self.delays, self.exceptions, self.negations
        )
    }
}

/// Sorted, distinct injected faults of a cycle.
fn distinct_injected(cycle: &Cycle, db: &CausalDb) -> Vec<FaultId> {
    let mut faults: Vec<FaultId> = cycle.injected_faults(db).collect();
    faults.sort_unstable();
    faults.dedup();
    faults
}

/// Composition of a set of distinct injected faults.
fn composition_of(injected: &[FaultId], reg: &Registry) -> Composition {
    let mut c = Composition::default();
    for &f in injected {
        match reg.point(f).kind {
            FaultKind::LoopPoint => c.delays += 1,
            FaultKind::Throw | FaultKind::LibCall => c.exceptions += 1,
            FaultKind::Negation => c.negations += 1,
        }
    }
    c
}

/// Computes the injection composition of a cycle.
pub fn composition(cycle: &Cycle, db: &CausalDb, reg: &Registry) -> Composition {
    composition_of(&distinct_injected(cycle, db), reg)
}

/// A detected known bug.
#[derive(Debug, Clone, Serialize)]
pub struct BugMatch {
    /// The ground-truth bug.
    pub bug: KnownBug,
    /// Index of the matching cycle cluster.
    pub cluster_idx: usize,
    /// Index of the best matching cycle.
    pub cycle_idx: usize,
    /// 3PA phase after which all of the cycle's causal relationships were
    /// known (Table 3 "Alloc." column).
    pub phase: u8,
    /// Injection composition of the matching cycle (Table 3 "Cycle" column).
    pub composition: Composition,
}

/// Classification of a cycle cluster against ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClusterVerdict {
    /// Matches a seeded bug.
    TruePositive,
    /// Pure-delay cycle among loops whose contention is accepted behaviour
    /// (§8.4.2 reason 1).
    ExpectedContention,
    /// Anything else.
    FalsePositive,
}

/// Full detection report for one system.
#[derive(Debug, Clone, Serialize)]
pub struct DetectionReport {
    /// Target system name.
    pub system: &'static str,
    /// All reported cycles (deduplicated, best score first).
    pub cycles: Vec<Cycle>,
    /// Cycle clusters.
    pub clusters: Vec<CycleCluster>,
    /// Verdict per cluster (same order as `clusters`).
    pub verdicts: Vec<ClusterVerdict>,
    /// Ground-truth bugs detected.
    pub matches: Vec<BugMatch>,
    /// Ground-truth bugs missed.
    pub undetected: Vec<KnownBug>,
    /// Experiments run by the allocation protocol.
    pub experiments_run: usize,
    /// Causal edges discovered.
    pub edge_count: usize,
    /// `(fault, test, phase)` experiment cells the supervisor abandoned
    /// after exhausting retries — empty on clean (or transiently-failing)
    /// campaigns. A non-empty list means the report is *partial*: these
    /// cells contributed no causal edges.
    pub missing_cells: Vec<(FaultId, TestId, u8)>,
}

impl DetectionReport {
    /// Whether the campaign completed degraded: some experiment cells were
    /// abandoned after exhausting retries (see
    /// [`missing_cells`](DetectionReport::missing_cells)).
    pub fn degraded(&self) -> bool {
        !self.missing_cells.is_empty()
    }

    /// Number of true-positive clusters.
    pub fn tp_clusters(&self) -> usize {
        self.verdicts
            .iter()
            .filter(|v| **v == ClusterVerdict::TruePositive)
            .count()
    }

    /// Number of false-positive clusters (including expected contention).
    pub fn fp_clusters(&self) -> usize {
        self.verdicts.len() - self.tp_clusters()
    }

    /// Number of expected-contention clusters.
    pub fn expected_contention_clusters(&self) -> usize {
        self.verdicts
            .iter()
            .filter(|v| **v == ClusterVerdict::ExpectedContention)
            .count()
    }
}

/// Phase after which every edge of the cycle is known.
fn cycle_phase(cycle: &Cycle, db: &CausalDb) -> u8 {
    cycle
        .edges
        .iter()
        .map(|&i| db.edge(i).phase)
        .max()
        .unwrap_or(0)
}

/// The labels as a sorted, distinct set.
fn label_set(labels: impl Iterator<Item = &'static str>) -> Vec<&'static str> {
    let mut labels: Vec<&'static str> = labels.collect();
    labels.sort_unstable();
    labels.dedup();
    labels
}

/// What ground-truth matching asks of one cycle, resolved once per report
/// instead of once per (cycle, bug) comparison.
struct CycleFacts {
    /// Sorted, distinct labels of every fault the cycle touches.
    all_labels: Vec<&'static str>,
    /// Sorted, distinct labels of the cycle's injected faults.
    injected_labels: Vec<&'static str>,
    composition: Composition,
}

impl CycleFacts {
    fn of(cycle: &Cycle, db: &CausalDb, reg: &Registry) -> CycleFacts {
        let injected = distinct_injected(cycle, db);
        CycleFacts {
            all_labels: label_set(cycle.all_faults(db).iter().map(|&f| reg.point(f).label)),
            injected_labels: label_set(injected.iter().map(|&f| reg.point(f).label)),
            composition: composition_of(&injected, reg),
        }
    }

    /// `true` if the cycle touches every label of the bug.
    fn matches_bug(&self, bug: &KnownBug) -> bool {
        bug.labels
            .iter()
            .all(|l| self.all_labels.binary_search(l).is_ok())
    }

    /// Strict form used for cluster verdicts: the cycle's *injected* fault
    /// labels are exactly the bug's label set (`want`: sorted, distinct) —
    /// no unrelated faults riding along, mirroring the paper's manual
    /// cluster inspection (§8.4.1).
    fn matches_bug_exactly(&self, want: &[&'static str]) -> bool {
        self.injected_labels == want
    }

    /// Distinct injections in the cycle.
    fn injections(&self) -> usize {
        let c = self.composition;
        c.delays + c.exceptions + c.negations
    }
}

/// `true` if the cycle is pure expected contention: every injected fault is
/// a loop whose label is in the target's expected-contention list.
fn is_expected_contention(cycle: &Cycle, db: &CausalDb, reg: &Registry, expected: &[&str]) -> bool {
    if expected.is_empty() {
        return false;
    }
    let mut any = false;
    for f in cycle.injected_faults(db) {
        any = true;
        let p = reg.point(f);
        if p.kind != FaultKind::LoopPoint || !expected.contains(&p.label) {
            return false;
        }
    }
    any
}

/// Builds the detection report: clusters cycles, matches ground truth and
/// classifies clusters.
pub fn build_report(
    target: &dyn TargetSystem,
    alloc: &AllocationResult,
    cycles: Vec<Cycle>,
    clusters: Vec<CycleCluster>,
) -> DetectionReport {
    let reg = target.registry();
    let db = &alloc.db;
    let bugs = target.known_bugs();
    let expected = target.expected_contention_labels();

    let facts: Vec<CycleFacts> = cycles.iter().map(|c| CycleFacts::of(c, db, &reg)).collect();
    let wanted: Vec<Vec<&'static str>> = bugs
        .iter()
        .map(|b| label_set(b.labels.iter().copied()))
        .collect();

    let mut verdicts = Vec::with_capacity(clusters.len());
    for cl in &clusters {
        let mut verdict = ClusterVerdict::FalsePositive;
        let tp = cl.cycle_idxs.iter().any(|&ci| {
            wanted
                .iter()
                .any(|want| facts[ci].matches_bug_exactly(want))
        });
        if tp {
            verdict = ClusterVerdict::TruePositive;
        } else if cl
            .cycle_idxs
            .iter()
            .all(|&ci| is_expected_contention(&cycles[ci], db, &reg, &expected))
            && !cl.cycle_idxs.is_empty()
        {
            verdict = ClusterVerdict::ExpectedContention;
        }
        verdicts.push(verdict);
    }

    let mut matches = Vec::new();
    let mut undetected = Vec::new();
    for bug in bugs {
        // Prefer the *minimal* matching cycle (fewest injections), then the
        // lowest (most conditional) score.
        let best = facts
            .iter()
            .enumerate()
            .filter(|(_, f)| f.matches_bug(&bug))
            .min_by(|(a, fa), (b, fb)| {
                fa.injections()
                    .cmp(&fb.injections())
                    .then(cycles[*a].score.total_cmp(&cycles[*b].score))
            });
        match best {
            Some((ci, f)) => {
                let cluster_idx = clusters
                    .iter()
                    .position(|cl| cl.cycle_idxs.contains(&ci))
                    .unwrap_or(0);
                matches.push(BugMatch {
                    bug,
                    cluster_idx,
                    cycle_idx: ci,
                    phase: cycle_phase(&cycles[ci], db),
                    composition: f.composition,
                });
            }
            None => undetected.push(bug),
        }
    }

    DetectionReport {
        system: target.name(),
        edge_count: db.len(),
        experiments_run: alloc.experiments_run,
        cycles,
        clusters,
        verdicts,
        matches,
        undetected,
        missing_cells: alloc.gaps.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::{CausalEdge, CompatState, EdgeKind};
    use csnake_inject::{
        BoolSource, ExceptionCategory, FaultId, Occurrence, RegistryBuilder, TestId,
    };

    fn state(tag: u32) -> CompatState {
        CompatState::Occurrences(vec![Occurrence::new(
            [Some(csnake_inject::FnId(tag)), None],
            vec![],
        )])
    }

    fn mk_edge(cause: FaultId, effect: FaultId, kind: EdgeKind, phase: u8) -> CausalEdge {
        CausalEdge {
            cause,
            effect,
            kind,
            test: TestId(0),
            phase,
            cause_state: state(cause.0),
            effect_state: state(effect.0),
        }
    }

    #[test]
    fn composition_counts_distinct_injections_by_kind() {
        let mut b = RegistryBuilder::new("t");
        let f = b.func("X.f");
        let lp = b.workload_loop(f, 1, false, "lp");
        let tp = b.throw_point(f, 2, "IOE", ExceptionCategory::SystemSpecific, "tp");
        let np = b.negation_point(f, 3, true, BoolSource::ErrorDetector, "np");
        let reg = b.build();
        let db = CausalDb::from_edges(vec![
            mk_edge(lp, tp, EdgeKind::ED, 1),
            mk_edge(tp, np, EdgeKind::EI, 1),
            mk_edge(np, lp, EdgeKind::SI, 2),
        ]);
        let cycle = Cycle {
            edges: vec![0, 1, 2],
            score: 0.5,
        };
        let c = composition(&cycle, &db, &reg);
        assert_eq!(
            c,
            Composition {
                delays: 1,
                exceptions: 1,
                negations: 1
            }
        );
        assert_eq!(c.to_string(), "1D | 1E | 1N");
        assert_eq!(cycle_phase(&cycle, &db), 2);
    }

    #[test]
    fn bug_matching_requires_all_labels() {
        let mut b = RegistryBuilder::new("t");
        let f = b.func("X.f");
        let lp = b.workload_loop(f, 1, false, "loop_a");
        let tp = b.throw_point(f, 2, "IOE", ExceptionCategory::SystemSpecific, "ioe_b");
        let reg = b.build();
        let db = CausalDb::from_edges(vec![
            mk_edge(lp, tp, EdgeKind::ED, 1),
            mk_edge(tp, lp, EdgeKind::SI, 1),
        ]);
        let cycle = Cycle {
            edges: vec![0, 1],
            score: 0.1,
        };
        let full = KnownBug {
            id: "x",
            jira: "J-1",
            summary: "s",
            labels: vec!["loop_a", "ioe_b"],
        };
        let partial_extra = KnownBug {
            id: "y",
            jira: "J-2",
            summary: "s",
            labels: vec!["loop_a", "missing_label"],
        };
        let facts = CycleFacts::of(&cycle, &db, &reg);
        assert!(facts.matches_bug(&full));
        assert!(!facts.matches_bug(&partial_extra));
        assert!(facts.matches_bug_exactly(&["ioe_b", "loop_a"]));
        assert!(!facts.matches_bug_exactly(&["loop_a"]));
    }

    #[test]
    fn expected_contention_is_pure_delay_only() {
        let mut b = RegistryBuilder::new("t");
        let f = b.func("X.f");
        let read_l = b.workload_loop(f, 1, true, "client_read");
        let write_l = b.workload_loop(f, 2, true, "client_write");
        let tp = b.throw_point(f, 3, "IOE", ExceptionCategory::SystemSpecific, "ioe");
        let reg = b.build();
        let db = CausalDb::from_edges(vec![
            mk_edge(read_l, write_l, EdgeKind::SD, 1),
            mk_edge(write_l, read_l, EdgeKind::SD, 1),
            mk_edge(tp, read_l, EdgeKind::SI, 1),
        ]);
        let pure = Cycle {
            edges: vec![0, 1],
            score: 0.9,
        };
        let mixed = Cycle {
            edges: vec![2, 0],
            score: 0.9,
        };
        let expected = ["client_read", "client_write"];
        assert!(is_expected_contention(&pure, &db, &reg, &expected));
        assert!(!is_expected_contention(&mixed, &db, &reg, &expected));
        assert!(!is_expected_contention(&pure, &db, &reg, &[]));
    }
}
