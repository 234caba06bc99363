//! Execution traces recorded by the runtime agent.

use std::collections::{BTreeMap, BTreeSet};

use csnake_sim::VirtualTime;
use serde::{Deserialize, Serialize};

use crate::registry::{BranchId, FaultId, FnId};

/// FNV-1a hash, used for local-trace signatures.
///
/// A tiny, dependency-free, stable hash is all the compatibility check needs;
/// signatures are compared within one detection campaign only.
pub fn fnv1a(bytes: impl IntoIterator<Item = u64>) -> u64 {
    bytes.into_iter().fold(FNV_OFFSET, fnv1a_word)
}

/// The hash of no input: [`fnv1a`]'s starting state.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One [`fnv1a`] step, so the agent can roll a signature a word at a time.
pub(crate) fn fnv1a_word(mut h: u64, w: u64) -> u64 {
    for b in w.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The two closest call-stack levels above a site's enclosing function
/// (§6.2 "2-call-site sensitivity").
pub type CallStack2 = [Option<FnId>; 2];

/// Packs a 2-level call stack injectively into a pair of words
/// (`None → 0`, `Some(f) → f + 1`), so stack sets can be compared and
/// merged as plain sorted `u64` pairs without touching `Option`s.
///
/// Used by the stitch index's state canonicaliser; exactness matters
/// (a hash here would risk false compatibility).
pub fn stack_key(stack: &CallStack2) -> (u64, u64) {
    let slot = |s: Option<FnId>| s.map(|f| f.0 as u64 + 1).unwrap_or(0);
    (slot(stack[0]), slot(stack[1]))
}

/// The sorted, deduplicated signature multiset of an occurrence list — the
/// §6.2 compatibility check depends on signatures only, so this is the
/// canonical form consumers (the stitch index, the compatibility merge)
/// intern and intersect.
pub fn occurrence_sigs_sorted(occs: &[Occurrence]) -> Vec<u64> {
    let mut sigs: Vec<u64> = occs.iter().map(|o| o.sig).collect();
    sigs.sort_unstable();
    sigs.dedup();
    sigs
}

/// One observed fault occurrence with its local-compatibility state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Occurrence {
    /// Closest two callers (excluding the enclosing function itself).
    pub stack: CallStack2,
    /// Local branch trace: branch monitor points and their outcomes in the
    /// fault's enclosing loop iteration or function.
    pub local_trace: Vec<(BranchId, bool)>,
    /// Signature: hash of `stack` + `local_trace`.
    pub sig: u64,
}

impl Occurrence {
    /// Builds an occurrence, computing its signature.
    pub fn new(stack: CallStack2, local_trace: Vec<(BranchId, bool)>) -> Self {
        let sig = Self::signature(&stack, &local_trace);
        Occurrence {
            stack,
            local_trace,
            sig,
        }
    }

    /// Computes the signature of a (stack, trace) pair.
    pub fn signature(stack: &CallStack2, trace: &[(BranchId, bool)]) -> u64 {
        let stack_words = stack.iter().map(|s| s.map(|f| f.0 as u64 + 1).unwrap_or(0));
        let trace_words = trace
            .iter()
            .map(|(b, o)| ((b.0 as u64) << 1) | (*o as u64) | (1 << 62));
        fnv1a(stack_words.chain(trace_words))
    }
}

/// Compatibility state of a loop fault point in one run.
///
/// Delay injection covers *all* iterations, so the paper "conservatively
/// checks for matching traces in any loop iteration between tests" (§6.2):
/// we keep the set of distinct per-iteration signatures.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoopState {
    /// Call stacks observed at loop entry (closest two callers of the
    /// enclosing function); a loop re-entered from different request paths
    /// accumulates several.
    pub entry_stacks: BTreeSet<CallStack2>,
    /// Distinct signatures of individual iterations.
    pub iter_sigs: BTreeSet<u64>,
}

impl LoopState {
    /// The entry stacks as exact packed word pairs, in sorted order
    /// (`BTreeSet` iteration order is preserved by the injective packing).
    pub fn stack_keys(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.entry_stacks.iter().map(stack_key)
    }
}

/// Deduplicated union of a fault point's occurrences across a set of
/// runs, sorted by signature so the §6.2 compatibility check runs as a
/// linear merge.
///
/// Shared by the fault-causality analysis' reference and indexed paths.
/// Like [`merged_loop_state`], this is deliberately computed on demand
/// rather than eagerly in [`crate::TraceIndex`]: the analysis needs the
/// merged union only for the few points that emit edges, and profiling
/// showed eager merging of every occurring point dominates the index
/// build.
pub fn merged_occurrences(traces: &[RunTrace], p: FaultId) -> Vec<Occurrence> {
    let mut out: Vec<Occurrence> = Vec::new();
    for t in traces {
        if let Some(occs) = t.occurrences.get(&p) {
            for o in occs {
                // Occurrence lists are tiny; a linear scan over the kept
                // occurrences beats a set.
                if !out.iter().any(|m| m.sig == o.sig) {
                    out.push(o.clone());
                }
            }
        }
    }
    out.sort_unstable_by_key(|o| o.sig);
    out
}

/// Union of a loop point's compatibility state across a set of runs
/// (`None` when no run recorded one).
///
/// Shared by the fault-causality analysis' reference and indexed paths;
/// set union is order-independent, so both produce identical states. Kept
/// out of [`crate::TraceIndex`] deliberately: profiling showed merging
/// every reached loop eagerly at index build costs more than the few
/// merges per experiment the analysis actually performs (only loops that
/// emit edges need their state).
pub fn merged_loop_state(traces: &[RunTrace], l: FaultId) -> Option<LoopState> {
    let mut merged: Option<LoopState> = None;
    for t in traces {
        if let Some(st) = t.loop_states.get(&l) {
            let m = merged.get_or_insert_with(LoopState::default);
            m.entry_stacks.extend(st.entry_stacks.iter().cloned());
            m.iter_sigs.extend(st.iter_sigs.iter().copied());
        }
    }
    merged
}

/// Everything the agent recorded during one run of one workload.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunTrace {
    /// Fault points whose hook executed at least once.
    pub coverage: BTreeSet<FaultId>,
    /// Error occurrences per fault point: natural throws fired, detector
    /// errors observed, and the injected occurrence itself.
    pub occurrences: BTreeMap<FaultId, Vec<Occurrence>>,
    /// Total iteration count per loop point.
    pub loop_counts: BTreeMap<FaultId, u64>,
    /// Compatibility state per loop point.
    pub loop_states: BTreeMap<FaultId, LoopState>,
    /// The injected fault and its occurrence state, if the plan fired.
    pub injected: Option<(FaultId, Occurrence)>,
    /// Dynamic call-graph edges (caller, callee) observed (§B.1).
    pub call_edges: BTreeSet<(FnId, FnId)>,
    /// Total number of agent hook executions (monitoring-overhead proxy).
    pub hook_count: u64,
    /// System-level failure flags raised by the target (fuzzer oracle).
    pub flags: BTreeSet<String>,
    /// Virtual time at which the workload finished.
    pub end_time: VirtualTime,
    /// Simulator events executed.
    pub events: u64,
}

impl RunTrace {
    /// `true` if the given fault point had at least one error occurrence.
    pub fn occurred(&self, f: FaultId) -> bool {
        self.occurrences.get(&f).is_some_and(|v| !v.is_empty())
    }

    /// Iteration count of a loop point (0 if never reached).
    pub fn loop_count(&self, f: FaultId) -> u64 {
        self.loop_counts.get(&f).copied().unwrap_or(0)
    }

    /// All fault points with at least one occurrence.
    pub fn occurring_points(&self) -> impl Iterator<Item = FaultId> + '_ {
        self.occurrences
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(k, _)| *k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a([1, 2, 3]), fnv1a([1, 2, 3]));
        assert_ne!(fnv1a([1, 2, 3]), fnv1a([1, 2, 4]));
        assert_ne!(fnv1a([1, 2]), fnv1a([2, 1]));
        assert_ne!(fnv1a([]), fnv1a([0]));
    }

    #[test]
    fn occurrence_signature_depends_on_stack_and_trace() {
        let o1 = Occurrence::new([Some(FnId(1)), None], vec![(BranchId(0), true)]);
        let o2 = Occurrence::new([Some(FnId(2)), None], vec![(BranchId(0), true)]);
        let o3 = Occurrence::new([Some(FnId(1)), None], vec![(BranchId(0), false)]);
        let o4 = Occurrence::new([Some(FnId(1)), None], vec![(BranchId(0), true)]);
        assert_ne!(o1.sig, o2.sig);
        assert_ne!(o1.sig, o3.sig);
        assert_eq!(o1.sig, o4.sig);
    }

    #[test]
    fn empty_stack_slot_differs_from_fn_zero() {
        let with_none = Occurrence::new([None, None], vec![]);
        let with_zero = Occurrence::new([Some(FnId(0)), None], vec![]);
        assert_ne!(with_none.sig, with_zero.sig);
    }

    #[test]
    fn run_trace_queries() {
        let mut t = RunTrace::default();
        assert!(!t.occurred(FaultId(1)));
        assert_eq!(t.loop_count(FaultId(2)), 0);
        t.occurrences
            .entry(FaultId(1))
            .or_default()
            .push(Occurrence::new([None, None], vec![]));
        t.loop_counts.insert(FaultId(2), 17);
        assert!(t.occurred(FaultId(1)));
        assert_eq!(t.loop_count(FaultId(2)), 17);
        assert_eq!(t.occurring_points().collect::<Vec<_>>(), vec![FaultId(1)]);
    }
}
