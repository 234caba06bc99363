//! Parallel beam search for self-sustaining cascading failures (§6.3, Alg. 1)
//! and clustering of the reported cycles.
//!
//! Chains of causal edges are grown level by level; before appending an edge,
//! the local compatibility check (§6.2) runs between the chain's last edge
//! and the candidate. At each level only the `B` best chains survive, ranked
//! by the average intra-cluster interference-similarity score of the injected
//! faults — *lower* is better, favouring chains built from faults with
//! conditional (diverse) causal consequences. A chain that cycles back to its
//! first edge is reported as a potential self-sustaining cascading failure.
//!
//! [`beam_search`] runs on the prepared [`StitchIndex`](crate::stitch) —
//! all pairwise compatibility work is hoisted out of the search loop into a
//! precomputed successor table, chains live in a parent-pointer arena, and
//! the beam cut is an O(n) selection that dedups only the chains it
//! selects. Its cycles are deduplicated by a 128-bit multiset key as they
//! close, so it skips the reference's exact structural pass
//! (`finalize_cycles`). [`beam_search_reference`] retains the
//! straightforward clone-per-extension implementation as the executable
//! specification; `tests/beam_equivalence.rs` checks the two agree exactly.

use std::collections::{BTreeMap, BTreeSet};

use csnake_inject::FaultId;
use serde::{Deserialize, Serialize};

use crate::compat::compatible;
use crate::edge::{CausalDb, CausalEdge};
use crate::stitch::StitchIndex;

/// Beam-search knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BeamConfig {
    /// Number of active chains kept per level (paper: 5 million; this
    /// reproduction's search spaces are far smaller).
    pub beam_size: usize,
    /// Safety cap on chain length (compatibility bounds growth in practice).
    pub max_len: usize,
    /// Upper bound on delay injections per chain (Table 4 compares
    /// unlimited vs. 1); `None` = unlimited.
    pub max_delay_injections: Option<usize>,
    /// Worker threads for the per-level expansion.
    pub threads: usize,
    /// Ablation knob: when `false`, stitching skips the §6.2 local
    /// compatibility check and links on fault identity alone (the unsound
    /// baseline the paper's check exists to prevent).
    pub compatibility_check: bool,
}

impl Default for BeamConfig {
    fn default() -> Self {
        BeamConfig {
            beam_size: 100_000,
            max_len: 5,
            max_delay_injections: None,
            threads: 4,
            compatibility_check: true,
        }
    }
}

/// A reported cycle: edge indices into the [`CausalDb`], plus its rank score.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cycle {
    /// Edge indices, in propagation order.
    pub edges: Vec<usize>,
    /// Chain score (mean SimScore of injected faults; lower = more
    /// conditional).
    pub score: f64,
}

impl Cycle {
    /// The injected (cause) faults of the cycle's injection edges.
    pub fn injected_faults<'a>(&'a self, db: &'a CausalDb) -> impl Iterator<Item = FaultId> + 'a {
        self.edges
            .iter()
            .map(|&i| db.edge(i))
            .filter(|e| e.kind.is_injection())
            .map(|e| e.cause)
    }

    /// All faults touched by the cycle (causes and effects).
    pub fn all_faults(&self, db: &CausalDb) -> BTreeSet<FaultId> {
        let mut s = BTreeSet::new();
        for &i in &self.edges {
            let e = db.edge(i);
            s.insert(e.cause);
            s.insert(e.effect);
        }
        s
    }
}

/// A finished chain before structural cycle deduplication.
#[derive(Debug, Clone)]
struct RawChain {
    /// Edge indices in propagation order.
    pub edges: Vec<usize>,
    /// Sum of edge SimScores (score = sum / len).
    pub score_sum: f64,
}

/// Deduplicates cycles structurally (same relationship multiset = same
/// cycle, regardless of rotation or which test each edge came from) and
/// sorts by ascending score, then length. `triple_of` maps an edge index to
/// its structural `(cause, effect, kind)` triple.
fn finalize_cycles(
    raw: Vec<RawChain>,
    triple_of: impl Fn(usize) -> (FaultId, FaultId, u8),
) -> Vec<Cycle> {
    let mut seen: BTreeSet<Vec<(FaultId, FaultId, u8)>> = BTreeSet::new();
    let mut out: Vec<Cycle> = Vec::new();
    for c in raw {
        let mut key: Vec<(FaultId, FaultId, u8)> = c.edges.iter().map(|&i| triple_of(i)).collect();
        key.sort_unstable();
        if seen.insert(key) {
            out.push(Cycle {
                score: c.score_sum / c.edges.len() as f64,
                edges: c.edges,
            });
        }
    }
    out.sort_by(report_order);
    out
}

/// The order cycles are reported in: ascending score, then length. Sorts
/// by it are stable, so ties keep discovery order.
pub(crate) fn report_order(a: &Cycle, b: &Cycle) -> std::cmp::Ordering {
    a.score
        .total_cmp(&b.score)
        .then(a.edges.len().cmp(&b.edges.len()))
}

/// The `match` predicate of Algorithm 1: edge2 continues edge1 if its cause
/// is edge1's interference *and* their local states are compatible.
pub fn edges_match(e1: &CausalEdge, e2: &CausalEdge) -> bool {
    e1.effect == e2.cause && compatible(&e1.effect_state, &e2.cause_state)
}

/// Runs the beam search over all discovered causal relationships.
///
/// `sim_of` maps a fault to the SimScore of its cluster (§5.2); it drives
/// both the beam ranking and the final cycle scores. Returned cycles are
/// deduplicated up to rotation and sorted by ascending score.
///
/// Compiles a [`StitchIndex`] from the database and searches on it; to run
/// several searches (e.g. ablation sweeps) over one database, build the
/// index once and call [`StitchIndex::search`] directly.
pub fn beam_search(
    db: &CausalDb,
    sim_of: &(dyn Fn(FaultId) -> f64 + Sync),
    cfg: &BeamConfig,
) -> Vec<Cycle> {
    StitchIndex::build(db, cfg.threads).search(sim_of, cfg)
}

// ---------------------------------------------------------------------------
// Reference implementation (the executable specification)
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct Chain {
    edges: Vec<usize>,
    score_sum: f64,
    delay_injections: usize,
}

impl Chain {
    fn score(&self) -> f64 {
        self.score_sum / self.edges.len() as f64
    }
}

fn matches_under(cfg: &BeamConfig, e1: &CausalEdge, e2: &CausalEdge) -> bool {
    if cfg.compatibility_check {
        edges_match(e1, e2)
    } else {
        e1.effect == e2.cause
    }
}

fn is_cycle(db: &CausalDb, cfg: &BeamConfig, chain: &Chain) -> bool {
    let first = db.edge(chain.edges[0]);
    let last = db.edge(*chain.edges.last().expect("chains are non-empty"));
    matches_under(cfg, last, first)
}

fn edge_sim_score(e: &CausalEdge, sim_of: &dyn Fn(FaultId) -> f64) -> f64 {
    if e.kind.is_injection() {
        sim_of(e.cause)
    } else {
        0.0
    }
}

fn delay_weight(e: &CausalEdge) -> usize {
    usize::from(e.kind.is_injection() && e.kind.cause_is_delay())
}

/// Expands one chain by all matching edges; pushes cycles and live chains.
fn expand(
    db: &CausalDb,
    sim_of: &(dyn Fn(FaultId) -> f64 + Sync),
    cfg: &BeamConfig,
    chain: &Chain,
    out_next: &mut Vec<Chain>,
    out_cycles: &mut Vec<Chain>,
) {
    let last = db.edge(*chain.edges.last().expect("non-empty"));
    for &ei in db.edges_from(last.effect) {
        if chain.edges.contains(&ei) {
            continue;
        }
        let e = db.edge(ei);
        if !matches_under(cfg, last, e) {
            continue;
        }
        let delays = chain.delay_injections + delay_weight(e);
        if let Some(cap) = cfg.max_delay_injections {
            if delays > cap {
                continue;
            }
        }
        let mut new = chain.clone();
        new.edges.push(ei);
        new.score_sum += edge_sim_score(e, sim_of);
        new.delay_injections = delays;
        if is_cycle(db, cfg, &new) {
            out_cycles.push(new);
        } else if new.edges.len() < cfg.max_len {
            out_next.push(new);
        }
    }
}

/// The retained straightforward beam search: clone-per-extension chains,
/// per-candidate compatibility checks, full frontier sort.
///
/// This is the executable specification the optimised
/// [`beam_search`] / [`StitchIndex::search`] path is tested against
/// (`tests/beam_equivalence.rs`); it is O(n log n) sorting plus O(s²)
/// state scans per level and should not be used on large databases.
pub fn beam_search_reference(
    db: &CausalDb,
    sim_of: &(dyn Fn(FaultId) -> f64 + Sync),
    cfg: &BeamConfig,
) -> Vec<Cycle> {
    let mut cycles: Vec<Chain> = Vec::new();
    // Level 1: every edge is a chain (Alg. 1 line 2). Self-edges whose state
    // is self-compatible are already cycles.
    let mut queue: Vec<Chain> = Vec::new();
    for (i, e) in db.edges().iter().enumerate() {
        let delays = delay_weight(e);
        if cfg.max_delay_injections.is_some_and(|cap| delays > cap) {
            continue;
        }
        let c = Chain {
            edges: vec![i],
            score_sum: edge_sim_score(e, sim_of),
            delay_injections: delays,
        };
        if is_cycle(db, cfg, &c) {
            cycles.push(c);
        } else {
            queue.push(c);
        }
    }

    while !queue.is_empty() {
        let threads = cfg.threads.max(1).min(queue.len());
        let chunk = queue.len().div_ceil(threads);
        let results: Vec<(Vec<Chain>, Vec<Chain>)> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for part in queue.chunks(chunk) {
                handles.push(scope.spawn(move || {
                    let mut next = Vec::new();
                    let mut cyc = Vec::new();
                    for chain in part {
                        expand(db, sim_of, cfg, chain, &mut next, &mut cyc);
                    }
                    (next, cyc)
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("beam worker"))
                .collect()
        });
        let mut next: Vec<Chain> = Vec::new();
        for (n, c) in results {
            next.extend(n);
            cycles.extend(c);
        }
        // Keep the B best (lowest-score) chains, deduplicating chains that
        // are structurally identical (same relationships observed in
        // different tests) — the compatibility states already matched, so
        // one representative suffices.
        next.sort_by(|a, b| a.score().total_cmp(&b.score()));
        type ChainKey = (u64, Vec<(FaultId, FaultId, u8)>);
        let mut seen_chains: BTreeSet<ChainKey> = BTreeSet::new();
        next.retain(|c| {
            let key: Vec<(FaultId, FaultId, u8)> = c
                .edges
                .iter()
                .map(|&i| {
                    let e = db.edge(i);
                    (e.cause, e.effect, e.kind as u8)
                })
                .collect();
            let first = db.edge(c.edges[0]).cause.0 as u64;
            seen_chains.insert((first, key))
        });
        next.truncate(cfg.beam_size);
        queue = next;
    }

    finalize_cycles(
        cycles
            .into_iter()
            .map(|c| RawChain {
                score_sum: c.score_sum,
                edges: c.edges,
            })
            .collect(),
        |i| {
            let e = db.edge(i);
            (e.cause, e.effect, e.kind as u8)
        },
    )
}

/// A group of reported cycles involving the same fault clusters (§6.3
/// "Clustering Reported Cycles").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CycleCluster {
    /// Sorted fault-cluster ids of the injected faults.
    pub key: Vec<usize>,
    /// Indices into the reported cycle list, best score first.
    pub cycle_idxs: Vec<usize>,
}

/// Groups cycles by the fault clusters of their injected faults: two cycles
/// built from causally-equivalent faults are likely the same bug.
pub fn cluster_cycles(
    cycles: &[Cycle],
    db: &CausalDb,
    cluster_of: &BTreeMap<FaultId, usize>,
) -> Vec<CycleCluster> {
    let mut by_key: BTreeMap<Vec<usize>, Vec<usize>> = BTreeMap::new();
    for (i, c) in cycles.iter().enumerate() {
        let mut key: Vec<usize> = c
            .injected_faults(db)
            .map(|f| cluster_of.get(&f).copied().unwrap_or(usize::MAX))
            .collect();
        key.sort_unstable();
        key.dedup();
        by_key.entry(key).or_default().push(i);
    }
    by_key
        .into_iter()
        .map(|(key, cycle_idxs)| CycleCluster { key, cycle_idxs })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::{CompatState, EdgeKind};
    use csnake_inject::{FnId, Occurrence, TestId};

    /// Occurrence-style state with one signature derived from `tag`.
    fn state(tag: u32) -> CompatState {
        CompatState::Occurrences(vec![Occurrence::new([Some(FnId(tag)), None], vec![])])
    }

    fn edge(cause: u32, effect: u32, kind: EdgeKind, cs: u32, es: u32) -> CausalEdge {
        CausalEdge {
            cause: FaultId(cause),
            effect: FaultId(effect),
            kind,
            test: TestId(0),
            phase: 1,
            cause_state: state(cs),
            effect_state: state(es),
        }
    }

    fn uniform(_f: FaultId) -> f64 {
        0.5
    }

    fn run(db: &CausalDb) -> Vec<Cycle> {
        beam_search(db, &uniform, &BeamConfig::default())
    }

    /// Both implementations, asserting they agree on the way out.
    fn run_both(db: &CausalDb, cfg: &BeamConfig) -> Vec<Cycle> {
        let fast = beam_search(db, &uniform, cfg);
        let reference = beam_search_reference(db, &uniform, cfg);
        assert_eq!(fast.len(), reference.len());
        for (f, r) in fast.iter().zip(&reference) {
            assert_eq!(f.edges, r.edges);
            assert_eq!(f.score.to_bits(), r.score.to_bits());
        }
        fast
    }

    #[test]
    fn finds_two_edge_cycle() {
        // f1 → f2 (state of f2: 7) and f2 → f1 (state of f1: 3); the
        // connecting states match pairwise.
        let db = CausalDb::from_edges(vec![
            edge(1, 2, EdgeKind::EI, 3, 7),
            edge(2, 1, EdgeKind::EI, 7, 3),
        ]);
        let cycles = run_both(&db, &BeamConfig::default());
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].edges.len(), 2);
    }

    #[test]
    fn incompatible_states_block_the_cycle() {
        // Same fault ids, but f2's state differs between the tests (7 vs 8).
        let db = CausalDb::from_edges(vec![
            edge(1, 2, EdgeKind::EI, 3, 7),
            edge(2, 1, EdgeKind::EI, 8, 3),
        ]);
        assert!(run(&db).is_empty());
    }

    #[test]
    fn finds_three_edge_cycle_and_dedups_rotations() {
        let db = CausalDb::from_edges(vec![
            edge(1, 2, EdgeKind::EI, 1, 2),
            edge(2, 3, EdgeKind::EI, 2, 3),
            edge(3, 1, EdgeKind::EI, 3, 1),
        ]);
        let cycles = run_both(&db, &BeamConfig::default());
        // One cycle, not three rotations.
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].edges.len(), 3);
    }

    #[test]
    fn self_edge_is_a_length_one_cycle() {
        let db = CausalDb::from_edges(vec![edge(1, 1, EdgeKind::EI, 5, 5)]);
        let cycles = run(&db);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].edges.len(), 1);
    }

    #[test]
    fn non_cyclic_chain_reports_nothing() {
        let db = CausalDb::from_edges(vec![
            edge(1, 2, EdgeKind::EI, 1, 2),
            edge(2, 3, EdgeKind::EI, 2, 3),
        ]);
        assert!(run(&db).is_empty());
    }

    #[test]
    fn delay_cap_filters_delay_heavy_cycles() {
        // Cycle with two delay injections (ED + SD).
        let db = CausalDb::from_edges(vec![
            edge(1, 2, EdgeKind::ED, 1, 2),
            edge(2, 1, EdgeKind::SD, 2, 1),
        ]);
        let mut cfg = BeamConfig::default();
        assert_eq!(beam_search(&db, &uniform, &cfg).len(), 1);
        cfg.max_delay_injections = Some(1);
        assert!(beam_search(&db, &uniform, &cfg).is_empty());
        cfg.max_delay_injections = Some(2);
        assert_eq!(run_both(&db, &cfg).len(), 1);
    }

    #[test]
    fn structural_edges_do_not_count_against_delay_cap() {
        // E(I) → ICFG → back; the ICFG edge is structural, not an injection.
        // Build loop-style states so Loop↔Loop comparisons work.
        use csnake_inject::LoopState;
        let lstate = |sig: u64| {
            let mut st = LoopState::default();
            st.entry_stacks.insert([None, None]);
            st.iter_sigs.insert(sig);
            CompatState::Loop(st)
        };
        let mk = |cause: u32, effect: u32, kind, cs: &CompatState, es: &CompatState| CausalEdge {
            cause: FaultId(cause),
            effect: FaultId(effect),
            kind,
            test: TestId(0),
            phase: 1,
            cause_state: cs.clone(),
            effect_state: es.clone(),
        };
        let s_np = state(1);
        let s_l2 = lstate(10);
        let s_l1 = lstate(20);
        let db = CausalDb::from_edges(vec![
            // negation → inner loop delay (S+(I))
            mk(1, 2, EdgeKind::SI, &s_np, &s_l2),
            // inner loop → parent loop (ICFG)
            mk(2, 3, EdgeKind::Icfg, &s_l2, &s_l1),
            // parent delay injection → negation (E(D))
            mk(3, 1, EdgeKind::ED, &s_l1, &s_np),
        ]);
        let cfg = BeamConfig {
            max_delay_injections: Some(1),
            ..BeamConfig::default()
        };
        let cycles = run_both(&db, &cfg);
        assert_eq!(cycles.len(), 1, "ICFG must not count as a delay injection");
        assert_eq!(cycles[0].edges.len(), 3);
    }

    #[test]
    fn beam_bound_prunes_low_priority_chains() {
        // Star: fault 0 causes 1..=20, each causing 21..=40, none cycling.
        let mut edges = Vec::new();
        for i in 1..=20u32 {
            edges.push(edge(0, i, EdgeKind::EI, 0, i));
            edges.push(edge(i, 20 + i, EdgeKind::EI, i, 100 + i));
        }
        let db = CausalDb::from_edges(edges);
        let cfg = BeamConfig {
            beam_size: 3, // heavy pruning must not panic or cycle-spam
            ..BeamConfig::default()
        };
        let cycles = run_both(&db, &cfg);
        assert!(cycles.is_empty());
    }

    #[test]
    fn lower_sim_score_chains_survive_pruning() {
        // Two parallel 2-cycles; fault 1/2 have low sim score (conditional),
        // 5/6 high. With beam 1, only the low-score pair survives level 1
        // expansion ordering.
        let db = CausalDb::from_edges(vec![
            edge(1, 2, EdgeKind::EI, 1, 2),
            edge(2, 1, EdgeKind::EI, 2, 1),
            edge(5, 6, EdgeKind::EI, 5, 6),
            edge(6, 5, EdgeKind::EI, 6, 5),
        ]);
        let sim = |f: FaultId| if f.0 <= 2 { 0.1 } else { 0.9 };
        let cfg = BeamConfig {
            beam_size: 4,
            ..BeamConfig::default()
        };
        let cycles = beam_search(&db, &sim, &cfg);
        assert_eq!(cycles.len(), 2);
        // Best-ranked cycle is the conditional one.
        let best = &cycles[0];
        let faults: Vec<FaultId> = best.injected_faults(&db).collect();
        assert!(faults.contains(&FaultId(1)));
        assert!((best.score - 0.1).abs() < 1e-9);
    }

    #[test]
    fn cycle_clustering_groups_equivalent_cycles() {
        // Cycles (1→2→1) and (3→2→3) where faults 1 and 3 are in the same
        // cluster → one cycle cluster. (A third, longer 1→2→3→2→1 cycle
        // also exists and lands in the same cluster.)
        let db = CausalDb::from_edges(vec![
            edge(1, 2, EdgeKind::EI, 1, 2),
            edge(2, 1, EdgeKind::EI, 2, 1),
            edge(3, 2, EdgeKind::EI, 3, 2),
            edge(2, 3, EdgeKind::EI, 2, 3),
        ]);
        let cycles = run_both(&db, &BeamConfig::default());
        assert_eq!(cycles.len(), 3);
        let mut cluster_of = BTreeMap::new();
        cluster_of.insert(FaultId(1), 0);
        cluster_of.insert(FaultId(3), 0);
        cluster_of.insert(FaultId(2), 1);
        let clusters = cluster_cycles(&cycles, &db, &cluster_of);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].cycle_idxs.len(), 3);
        assert_eq!(clusters[0].key, vec![0, 1]);
    }

    #[test]
    fn max_len_caps_chain_growth() {
        // A long path that only cycles back after 5 edges; with max_len 3 the
        // search cannot reach it.
        let mut edges = Vec::new();
        for i in 0..5u32 {
            edges.push(edge(i, (i + 1) % 5, EdgeKind::EI, i, (i + 1) % 5));
        }
        let db = CausalDb::from_edges(edges);
        let mut cfg = BeamConfig {
            max_len: 3,
            ..BeamConfig::default()
        };
        assert!(beam_search(&db, &uniform, &cfg).is_empty());
        cfg.max_len = 8;
        assert_eq!(run_both(&db, &cfg).len(), 1);
    }
}
