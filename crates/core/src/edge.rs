//! Causal edges between faults and the database the beam search runs over.

use std::collections::{HashMap, HashSet};
use std::fmt;

use csnake_inject::{FaultId, LoopState, Occurrence, Registry, TestId};
use serde::{Deserialize, Serialize};

/// The six causal-relationship types of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeKind {
    /// `E(D)` — delay injection causes an exception/negation.
    ED,
    /// `S+(D)` — delay injection causes a loop-iteration increase.
    SD,
    /// `E(I)` — exception/negation injection causes an exception/negation.
    EI,
    /// `S+(I)` — exception/negation injection causes a loop increase.
    SI,
    /// `ICFG` — a loop delay propagates to its parent loop (batching).
    Icfg,
    /// `CFG` — a parent-loop delay propagates to the next sibling loop.
    Cfg,
}

impl EdgeKind {
    /// `true` for the four kinds produced directly by an injection
    /// (everything except the structural `ICFG`/`CFG` edges).
    pub fn is_injection(self) -> bool {
        !matches!(self, EdgeKind::Icfg | EdgeKind::Cfg)
    }

    /// `true` if the *cause* side is a delay (loop) fault.
    pub fn cause_is_delay(self) -> bool {
        matches!(
            self,
            EdgeKind::ED | EdgeKind::SD | EdgeKind::Icfg | EdgeKind::Cfg
        )
    }

    /// `true` if the *effect* side is a delay (loop) fault.
    pub fn effect_is_delay(self) -> bool {
        matches!(
            self,
            EdgeKind::SD | EdgeKind::SI | EdgeKind::Icfg | EdgeKind::Cfg
        )
    }
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EdgeKind::ED => "E(D)",
            EdgeKind::SD => "S+(D)",
            EdgeKind::EI => "E(I)",
            EdgeKind::SI => "S+(I)",
            EdgeKind::Icfg => "ICFG",
            EdgeKind::Cfg => "CFG",
        };
        f.write_str(s)
    }
}

/// Local-compatibility state of one fault in one test (§6.2): either the
/// occurrence set of an exception/negation or the loop state of a delay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CompatState {
    /// Exception/negation: distinct occurrences (deduped by signature).
    Occurrences(Vec<Occurrence>),
    /// Delay/loop fault: entry stacks + per-iteration signatures.
    Loop(LoopState),
}

impl CompatState {
    /// An empty occurrence-style state (used by tests and synthetic edges).
    pub fn empty() -> Self {
        CompatState::Occurrences(Vec::new())
    }
}

/// One causal relationship `cause → effect` discovered in one test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CausalEdge {
    /// The cause fault (the injected one, for injection edges).
    pub cause: FaultId,
    /// The effect fault (the additional fault triggered).
    pub effect: FaultId,
    /// Relationship type.
    pub kind: EdgeKind,
    /// Test workload the relationship was observed in.
    pub test: TestId,
    /// 3PA phase in which the relationship was discovered (1, 2 or 3;
    /// 0 when produced outside the protocol).
    pub phase: u8,
    /// Compatibility state of the cause in this test.
    pub cause_state: CompatState,
    /// Compatibility state of the effect in this test.
    pub effect_state: CompatState,
}

impl CausalEdge {
    /// Human-readable rendering using registry names.
    pub fn describe(&self, reg: &Registry) -> String {
        format!(
            "{} --{}--> {}  (in {}, phase {})",
            reg.point(self.cause).label,
            self.kind,
            reg.point(self.effect).label,
            self.test,
            self.phase
        )
    }
}

/// All causal relationships discovered in a campaign, indexed for the
/// beam search.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct CausalDb {
    edges: Vec<CausalEdge>,
    // The two index fields are derived from `edges`; skip them in
    // serialization (hash iteration order is nondeterministic) and rebuild
    // via `from_edges` when loading a persisted database.
    #[serde(skip)]
    by_cause: HashMap<FaultId, Vec<usize>>,
    #[serde(skip)]
    dedup: HashSet<(FaultId, FaultId, EdgeKind, TestId)>,
}

impl CausalDb {
    /// Builds a database from a list of edges.
    pub fn from_edges(edges: Vec<CausalEdge>) -> Self {
        let mut db = CausalDb::default();
        for e in edges {
            db.push(e);
        }
        db
    }

    /// Appends an edge, deduplicating exact `(cause, effect, kind, test)`
    /// repeats (which arise from the delay-length sweep). Amortised O(1):
    /// dedup is one hash-set probe and `by_cause` one hash-map append,
    /// instead of the old linear scan over all prior edges of the cause.
    ///
    /// Returns `true` when the edge was new (observers use this to report
    /// only genuinely emitted edges, not sweep repeats).
    pub fn push(&mut self, e: CausalEdge) -> bool {
        if !self.dedup.insert((e.cause, e.effect, e.kind, e.test)) {
            return false;
        }
        let idx = self.edges.len();
        self.by_cause.entry(e.cause).or_default().push(idx);
        self.edges.push(e);
        true
    }

    /// All edges.
    pub fn edges(&self) -> &[CausalEdge] {
        &self.edges
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// `true` when no edges were discovered.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Indices of edges whose cause is `f`.
    pub fn edges_from(&self, f: FaultId) -> &[usize] {
        self.by_cause.get(&f).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The edge at an index.
    pub fn edge(&self, idx: usize) -> &CausalEdge {
        &self.edges[idx]
    }
}

/// Prints the edges only: the indexes are derived from them, and their hash
/// iteration order would make two identical databases print differently.
impl fmt::Debug for CausalDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CausalDb")
            .field("edges", &self.edges)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(cause: u32, effect: u32, kind: EdgeKind, test: u32) -> CausalEdge {
        CausalEdge {
            cause: FaultId(cause),
            effect: FaultId(effect),
            kind,
            test: TestId(test),
            phase: 1,
            cause_state: CompatState::empty(),
            effect_state: CompatState::empty(),
        }
    }

    #[test]
    fn kind_predicates() {
        assert!(EdgeKind::ED.is_injection());
        assert!(!EdgeKind::Icfg.is_injection());
        assert!(EdgeKind::ED.cause_is_delay());
        assert!(!EdgeKind::EI.cause_is_delay());
        assert!(EdgeKind::SI.effect_is_delay());
        assert!(!EdgeKind::EI.effect_is_delay());
        assert!(EdgeKind::Cfg.cause_is_delay() && EdgeKind::Cfg.effect_is_delay());
    }

    #[test]
    fn db_indexes_by_cause() {
        let db = CausalDb::from_edges(vec![
            edge(1, 2, EdgeKind::EI, 0),
            edge(1, 3, EdgeKind::SI, 0),
            edge(2, 1, EdgeKind::EI, 1),
        ]);
        assert_eq!(db.len(), 3);
        assert_eq!(db.edges_from(FaultId(1)).len(), 2);
        assert_eq!(db.edges_from(FaultId(2)).len(), 1);
        assert!(db.edges_from(FaultId(9)).is_empty());
    }

    #[test]
    fn identical_databases_print_identically() {
        let edges: Vec<CausalEdge> = (0..64)
            .flat_map(|c| {
                [
                    edge(c, c + 1, EdgeKind::EI, 0),
                    edge(c, c + 2, EdgeKind::ED, 1),
                ]
            })
            .collect();
        let a = CausalDb::from_edges(edges.clone());
        let b = CausalDb::from_edges(edges);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn db_dedups_same_relationship_same_test() {
        let mut db = CausalDb::default();
        db.push(edge(1, 2, EdgeKind::ED, 0));
        db.push(edge(1, 2, EdgeKind::ED, 0)); // sweep repeat
        db.push(edge(1, 2, EdgeKind::ED, 1)); // different test: kept
        db.push(edge(1, 2, EdgeKind::EI, 0)); // different kind: kept
        assert_eq!(db.len(), 3);
    }

    #[test]
    fn db_dedup_ignores_phase_and_state() {
        // Dedup is keyed on (cause, effect, kind, test) only — a sweep
        // repeat with a different phase or state is still a repeat.
        let mut db = CausalDb::default();
        let mut a = edge(1, 2, EdgeKind::ED, 0);
        a.phase = 1;
        let mut b = edge(1, 2, EdgeKind::ED, 0);
        b.phase = 3;
        db.push(a);
        db.push(b);
        assert_eq!(db.len(), 1);
        assert_eq!(db.edge(0).phase, 1, "first push wins");
    }

    #[test]
    fn db_push_keeps_per_cause_index_in_insertion_order() {
        let mut db = CausalDb::default();
        for t in 0..100u32 {
            db.push(edge(1, t % 7, EdgeKind::EI, t));
        }
        let idxs = db.edges_from(FaultId(1));
        assert_eq!(idxs.len(), 100);
        assert!(idxs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn display_kinds_match_paper_notation() {
        assert_eq!(EdgeKind::ED.to_string(), "E(D)");
        assert_eq!(EdgeKind::SD.to_string(), "S+(D)");
        assert_eq!(EdgeKind::EI.to_string(), "E(I)");
        assert_eq!(EdgeKind::SI.to_string(), "S+(I)");
        assert_eq!(EdgeKind::Icfg.to_string(), "ICFG");
        assert_eq!(EdgeKind::Cfg.to_string(), "CFG");
    }
}
