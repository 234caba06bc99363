//! The prepared causal-stitching index and the indexed beam search (§6.3).
//!
//! [`beam_search`](crate::beam::beam_search) used to re-run the §6.2
//! compatibility check for every (edge, edge) pair at every beam level,
//! clone a `Vec<usize>` chain per extension, and fully sort the frontier
//! before truncating to the beam width. This module hoists all pairwise
//! work out of the search loop into an immutable [`StitchIndex`] compiled
//! once per [`CausalDb`], so the per-level loop is pure integer adjacency
//! traversal:
//!
//! * **State interning** — every distinct [`CompatState`] is canonicalised
//!   (occurrence signatures sorted + deduped, loop stacks/iteration
//!   signatures flattened to sorted `u64` vectors) and interned; the §6.2
//!   check becomes a linear merge intersection over sorted slices.
//! * **Edge grouping + shared pair-verdict table** — an edge's successor
//!   list depends only on its *(effect fault, effect state)* pair, so
//!   edges are grouped by that key and one successor list is computed and
//!   stored **per group**, not per edge. The §6.2 verdicts the lists need
//!   are themselves deduplicated globally: every distinct
//!   *(effect-state, cause-state)* pair is collected once, the verdict
//!   merges run once per pair in parallel shards, and all group-list
//!   builders read the one shared verdict table. Earlier revisions gave
//!   each build worker a private cache, so a pair straddling `w` workers
//!   was re-decided `w` times and every edge carried its own successor
//!   list; on high-fanout graphs (many edges into the same effect state)
//!   both the duplicate merges and the duplicated lists dominated build
//!   cost. [`StitchIndex::build_reference`] retains the per-edge,
//!   per-worker-cache build as the executable specification, and
//!   [`StitchIndex::compat_stats`] reports the realized dedup ratios.
//! * **CSR successor tables** — the group successor lists live in one
//!   compressed-sparse-row table `succ(group) -> &[edge]` (edges reach it
//!   through `edge_group`), plus a separate identity-only table (grouping
//!   edges by cause fault) for the `compatibility_check: false` ablation.
//! * **Flat weight arrays** — per-edge delay weights and structural triples
//!   live in flat arrays; per-edge SimScores are materialised once per
//!   search call.
//! * **Chain arena** — chains are parent-pointer nodes (`(edge, parent)`
//!   pairs), so extension is O(1) and the membership test walks at most
//!   `max_len` parents. Nodes are only materialised for chains that survive
//!   beam selection, bounding the arena at `beam_size · max_len` entries.
//! * **Dedup at the source + top-B selection** — a relationship observed
//!   in `k` tests yields `k` structurally equal extensions of every chain
//!   that reaches it (5.5 : 1 on `mini-hdfs3`), so duplicates are dropped
//!   where they are generated, not after. Each expansion range keeps a
//!   set of the 128-bit rolling hashes of the `(cause, effect, kind)`
//!   sequences it has emitted and never emits a second candidate with a
//!   seen key; once it holds `2·B` distinct candidates it cuts itself back
//!   to its `B` best by (score, insertion order) and from then on drops
//!   any candidate scoring no better than the worst survivor. The cut is
//!   safe because equal key ⇒ equal score. Whatever a range drops has `B`
//!   distinct keys ranked ahead of it inside the range, and the level-wide
//!   first occurrences of those keys rank no later, so it was never in the
//!   level's top `B`. The level merge then selects before it dedups:
//!   `select_nth_unstable_by` (O(n) expected) picks the `B` best ranks,
//!   which are sorted and walked keeping each key's first occurrence
//!   *across* ranges; a round that dropped duplicates repeats on the rest
//!   for the missing places. That is the reference's dedup-then-cut in
//!   stable score order, without hashing or sorting the whole level.
//! * **Commutative cycle keys** — closing extensions get the same
//!   treatment: a 128-bit multiset key (lane-wise wrapping sum of per-edge
//!   words finalized once at index build) is accumulated by the
//!   ≤ `max_len` arena walk at closure time, equal for every rotation and
//!   every witness of one relationship multiset. Ranges, then the level
//!   merge, keep first occurrences by key. No exact structural dedup
//!   follows (the reference's `finalize_cycles`): a level holds one cycle
//!   length and equal multisets have equal keys and lengths, so the kept
//!   cycles are already pairwise distinct multisets.
//! * **Persistent workers** — a scope-borrowed [`ScopedPool`] (the shared
//!   `csnake_core::pool` module, also used by the experiment driver) is
//!   spawned lazily (first level whose frontier is large enough to
//!   amortise the hand-off) and reused across *all* remaining levels;
//!   small frontiers expand inline. Workers receive **index ranges** into
//!   the shared frontier rather than copied chunks, so dispatch moves two
//!   words per job instead of memcpying `Frontier` entries.
//!
//! The search is observably equivalent to
//! [`beam_search_reference`](crate::beam::beam_search_reference) — same
//! cycles, same scores, same order — which `tests/beam_equivalence.rs`
//! checks on hundreds of randomised databases, and the grouped build is
//! byte-identical to the retained per-edge reference build
//! (`tests/stitch_shared_cache.rs`, across thread counts). Complexity:
//! with `n` edges, `g ≤ n` distinct (effect fault, effect state) groups
//! and `q` distinct state pairs, the build canonicalises + interns in
//! `O(n·k log k)`, runs exactly `q` verdict merges (each `O(k)`, sharded
//! over workers with no duplicated work), and assembles `g` successor
//! lists — `O(Σ_g out(f_g))` integer filtering — instead of `n` lists
//! with up to `w·q` merges. Per level the search still does
//! `O(frontier · fanout)` integer work (one set probe per extension,
//! spread over the workers), but holds only `O(ranges · min(distinct, 2B))`
//! candidates and `O(ranges · distinct cycles)` cycle refs: nothing is
//! sized by `frontier · fanout`, and the serial merge is an `O(n)`
//! selection plus a key probe per selected rank (≈ `B` of them, not `n`).
//! A candidate is 8 bytes, `(frontier index, appended edge)`: its parent
//! node, first edge, length, delay count, score sum and chain hash are
//! derived from the frontier entry it extends wherever they are read (the
//! range cut, the merge's ranks and cross-range dedup, and the next
//! frontier), by the same expressions the expansion filters with.
//! [`LevelStats`] reports generated against kept, per level.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::{Mutex, RwLock};

use csnake_inject::FaultId;

use crate::beam::{report_order, BeamConfig, Cycle};
use crate::edge::{CausalDb, CompatState, EdgeKind};
use crate::fxhash::{FxHasher, FxMap};
use crate::pool::{chunk_ranges, run_ordered, ScopedPool};

/// Sentinel for "no parent" in the chain arena.
const NONE: u32 = u32::MAX;

/// Frontiers below this size expand inline: the per-level hand-off to the
/// worker pool costs more than the expansion itself.
const PARALLEL_THRESHOLD: usize = 2048;

/// Databases below this edge count build sequentially: worker hand-off
/// costs more than the build itself.
const PARALLEL_BUILD_THRESHOLD: usize = 4096;

/// Pass-through hasher for keys that are already high-quality hashes
/// (the 128-bit structural chain keys): folding the halves beats
/// re-mixing 16 bytes through a general hasher.
#[derive(Default)]
struct PrehashedHasher {
    hash: u64,
}

impl Hasher for PrehashedHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PrehashedHasher only accepts u128 keys");
    }
    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.hash = (v as u64) ^ ((v >> 64) as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

type PrehashedSet = HashSet<u128, BuildHasherDefault<PrehashedHasher>>;

// ---------------------------------------------------------------------------
// State canonicalisation
// ---------------------------------------------------------------------------

/// Canonical, intern-able form of a [`CompatState`].
///
/// Two states are §6.2-compatible iff their canonical forms intersect
/// (occurrence signatures, or entry stacks *and* iteration signatures), so
/// sorted-slice merges decide compatibility exactly.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum CanonState {
    /// Sorted, deduplicated occurrence signatures.
    Occ(Vec<u64>),
    /// Sorted entry stacks (each slot packed exactly into a `u64`) and
    /// sorted iteration signatures.
    Loop(Vec<(u64, u64)>, Vec<u64>),
}

fn canonicalize(state: &CompatState) -> CanonState {
    match state {
        CompatState::Occurrences(occs) => {
            CanonState::Occ(csnake_inject::occurrence_sigs_sorted(occs))
        }
        CompatState::Loop(l) => {
            // BTreeSet iteration is sorted, and the injective stack packing
            // is monotone, so both vectors come out sorted.
            let stacks: Vec<(u64, u64)> = l.stack_keys().collect();
            let sigs: Vec<u64> = l.iter_sigs.iter().copied().collect();
            CanonState::Loop(stacks, sigs)
        }
    }
}

/// Linear merge intersection test over two sorted slices.
fn sorted_intersects<T: Ord>(a: &[T], b: &[T]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// §6.2 compatibility over canonical states (exactly [`crate::compatible`]).
fn canon_compatible(a: &CanonState, b: &CanonState) -> bool {
    match (a, b) {
        (CanonState::Occ(xs), CanonState::Occ(ys)) => sorted_intersects(xs, ys),
        (CanonState::Loop(xstacks, xsigs), CanonState::Loop(ystacks, ysigs)) => {
            let stacks_meet = sorted_intersects(xstacks, ystacks);
            let iters_meet =
                sorted_intersects(xsigs, ysigs) || (xsigs.is_empty() && ysigs.is_empty());
            stacks_meet && iters_meet
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Structural chain hashing
// ---------------------------------------------------------------------------

/// 128-bit rolling structural hash (two independent FNV-1a-style streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Hash128 {
    h1: u64,
    h2: u64,
}

impl Hash128 {
    const SEED: Hash128 = Hash128 {
        h1: 0xcbf2_9ce4_8422_2325,
        h2: 0x6c62_272e_07bb_0142,
    };

    /// Extends the chain hash by one pre-mixed structural edge word pair.
    /// Order-sensitive: the running halves are multiplied before the next
    /// word lands, so permuted sequences hash differently.
    #[inline]
    fn extend(mut self, (w1, w2): (u64, u64)) -> Hash128 {
        self.h1 = (self.h1 ^ w1).wrapping_mul(0x1000_0000_01b3);
        self.h1 ^= self.h1 >> 29;
        self.h2 = (self.h2 ^ w2).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.h2 ^= self.h2 >> 31;
        self
    }

    /// Pre-mixes one structural `(cause, effect, kind)` triple into the
    /// pair of words the two rolling-hash streams consume (computed once
    /// per edge at index build). The words come from independently seeded
    /// mixes: a collision in one stream's word does not collide the other,
    /// keeping the combined key's entropy at genuinely 128 bits.
    fn edge_words(cause: FaultId, effect: FaultId, kind: EdgeKind) -> (u64, u64) {
        let mut a = FxHasher::default();
        a.write_u32(cause.0);
        a.write_u32(effect.0);
        a.write_u64(kind as u64);
        let mut b = FxHasher {
            hash: 0x6c62_272e_07bb_0142,
        };
        b.write_u64(kind as u64);
        b.write_u32(effect.0);
        b.write_u32(cause.0);
        (a.finish(), b.finish())
    }

    /// The per-edge word pair of the commutative cycle key: the
    /// structural words through a 64-bit finalizer (Murmur3's `fmix64`),
    /// so that a wrapping *sum* of them — order-free, hence equal for
    /// every rotation and every choice of witnessing test — still spreads
    /// over all 128 bits.
    fn cycle_words((w1, w2): (u64, u64)) -> (u64, u64) {
        fn fmix64(mut x: u64) -> u64 {
            x ^= x >> 33;
            x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
            x ^= x >> 33;
            x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
            x ^ (x >> 33)
        }
        (fmix64(w1), fmix64(w2))
    }

    #[inline]
    fn key(self) -> u128 {
        (self.h1 as u128) << 64 | self.h2 as u128
    }
}

// ---------------------------------------------------------------------------
// The index
// ---------------------------------------------------------------------------

/// Size counters of one index build, for tracking the shared-cache /
/// grouping story in benchmark artifacts (all counts, no allocation
/// probes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompatStats {
    /// Indexed edges.
    pub edges: usize,
    /// Distinct (effect fault, effect state) edge groups — the number of
    /// successor lists actually stored. The reference build stores one
    /// per edge.
    pub edge_groups: usize,
    /// Distinct (effect-state, cause-state) pairs whose §6.2 verdict was
    /// computed — each exactly once, in the shared table. Zero for
    /// [`StitchIndex::build_reference`], whose per-worker caches do not
    /// track a global count.
    pub distinct_state_pairs: usize,
    /// Entries in the group-level successor CSR.
    pub group_succ_entries: usize,
    /// Entries a per-edge successor CSR would hold (`Σ_e |succ(e)|`) —
    /// the memory the grouping avoids.
    pub edge_succ_entries: u64,
}

impl CompatStats {
    /// Approximate bytes of the stored group-level successor table
    /// (targets + offsets + the per-edge group map).
    pub fn group_table_bytes(&self) -> u64 {
        4 * (self.group_succ_entries as u64 + self.edge_groups as u64 + 1 + self.edges as u64)
    }

    /// Approximate bytes the per-edge successor table would need
    /// (targets + offsets).
    pub fn edge_table_bytes(&self) -> u64 {
        4 * (self.edge_succ_entries + self.edges as u64 + 1)
    }
}

/// The immutable, prepared search index compiled once from a [`CausalDb`].
///
/// Holds flat per-edge arrays and both successor tables
/// (compatibility-checked and identity-only) — the search never touches
/// [`CompatState`]s again.
#[derive(Debug, Clone)]
pub struct StitchIndex {
    /// Raw cause fault per edge.
    cause: Vec<FaultId>,
    /// Edge kind per edge.
    kind: Vec<EdgeKind>,
    /// 1 for delay-cause injection edges (counts against the delay cap).
    delay_w: Vec<u8>,
    /// Pre-mixed structural hash word pair per edge (see
    /// [`Hash128::edge_words`]).
    struct_word: Vec<(u64, u64)>,
    /// Commutative cycle-key word pair per edge (see
    /// [`Hash128::cycle_words`]).
    cycle_word: Vec<(u64, u64)>,
    /// Dense id of each edge's cause fault.
    cause_dense: Vec<u32>,
    /// Dense id of each edge's effect fault (index into `fault_out_off`).
    effect_dense: Vec<u32>,
    /// CSR offsets: edges grouped by dense cause fault (identity table).
    fault_out_off: Vec<u32>,
    /// CSR targets for `fault_out_off` (edge indices, ascending per fault).
    fault_out: Vec<u32>,
    /// Successor-list group of each edge: its (effect fault, effect state)
    /// class. The reference build uses the identity map.
    edge_group: Vec<u32>,
    /// CSR offsets of the group-level compatibility successor table.
    group_succ_off: Vec<u32>,
    /// CSR targets: `group_succ(edge_group[i])` = edges that §6.2-continue
    /// edge `i` (ascending edge order per group).
    group_succ: Vec<u32>,
    /// Build-size counters (see [`CompatStats`]).
    stats: CompatStats,
}

/// The per-edge flat arrays and interning tables both builds share.
struct BuildPrelude {
    cause: Vec<FaultId>,
    kind: Vec<EdgeKind>,
    delay_w: Vec<u8>,
    struct_word: Vec<(u64, u64)>,
    cycle_word: Vec<(u64, u64)>,
    cause_dense: Vec<u32>,
    effect_dense: Vec<u32>,
    fault_out_off: Vec<u32>,
    fault_out: Vec<u32>,
    effect_sid: Vec<u32>,
    cause_sid: Vec<u32>,
    canon_states: Vec<CanonState>,
}

fn build_prelude(db: &CausalDb) -> BuildPrelude {
    let n = db.len();
    assert!(n < NONE as usize, "edge count exceeds u32 index space");
    let mut cause = Vec::with_capacity(n);
    let mut kind = Vec::with_capacity(n);
    let mut delay_w = Vec::with_capacity(n);
    let mut struct_word = Vec::with_capacity(n);
    let mut cycle_word = Vec::with_capacity(n);
    for e in db.edges() {
        cause.push(e.cause);
        kind.push(e.kind);
        delay_w.push(u8::from(e.kind.is_injection() && e.kind.cause_is_delay()));
        let words = Hash128::edge_words(e.cause, e.effect, e.kind);
        struct_word.push(words);
        cycle_word.push(Hash128::cycle_words(words));
    }

    // Dense fault interning (order of first appearance).
    let mut fault_ids: FxMap<FaultId, u32> = FxMap::default();
    let dense = |f: FaultId, ids: &mut FxMap<FaultId, u32>| -> u32 {
        let next = ids.len() as u32;
        *ids.entry(f).or_insert(next)
    };
    let cause_dense: Vec<u32> = cause.iter().map(|&f| dense(f, &mut fault_ids)).collect();
    let effect_dense: Vec<u32> = db
        .edges()
        .iter()
        .map(|e| dense(e.effect, &mut fault_ids))
        .collect();
    let n_faults = fault_ids.len();

    // Identity table: counting-sort edges by dense cause fault. Edge
    // order within a fault stays ascending, matching
    // `CausalDb::edges_from`.
    let mut fault_out_off = vec![0u32; n_faults + 1];
    for &c in &cause_dense {
        fault_out_off[c as usize + 1] += 1;
    }
    for i in 0..n_faults {
        fault_out_off[i + 1] += fault_out_off[i];
    }
    let mut cursor = fault_out_off.clone();
    let mut fault_out = vec![0u32; n];
    for (i, &c) in cause_dense.iter().enumerate() {
        fault_out[cursor[c as usize] as usize] = i as u32;
        cursor[c as usize] += 1;
    }

    // State interning: one canonical state per distinct CompatState.
    let mut canon_ids: FxMap<CanonState, u32> = FxMap::default();
    let mut canon_states: Vec<CanonState> = Vec::new();
    let mut intern = |s: &CompatState| -> u32 {
        use std::collections::hash_map::Entry;
        let c = canonicalize(s);
        match canon_ids.entry(c) {
            Entry::Occupied(o) => *o.get(),
            Entry::Vacant(v) => {
                let id = canon_states.len() as u32;
                canon_states.push(v.key().clone());
                v.insert(id);
                id
            }
        }
    };
    let effect_sid: Vec<u32> = db.edges().iter().map(|e| intern(&e.effect_state)).collect();
    let cause_sid: Vec<u32> = db.edges().iter().map(|e| intern(&e.cause_state)).collect();

    BuildPrelude {
        cause,
        kind,
        delay_w,
        struct_word,
        cycle_word,
        cause_dense,
        effect_dense,
        fault_out_off,
        fault_out,
        effect_sid,
        cause_sid,
        canon_states,
    }
}

impl StitchIndex {
    /// Number of indexed edges.
    pub fn len(&self) -> usize {
        self.cause.len()
    }

    /// `true` when the index covers no edges.
    pub fn is_empty(&self) -> bool {
        self.cause.is_empty()
    }

    /// Build-size counters: edge-group and state-pair dedup ratios, stored
    /// vs avoided successor-table entries.
    pub fn compat_stats(&self) -> CompatStats {
        self.stats
    }

    /// Compatibility-checked successors of edge `i` (ascending edge
    /// order). Shared by every edge in `i`'s (effect fault, effect state)
    /// group.
    #[inline]
    pub fn successors(&self, i: u32) -> &[u32] {
        let g = self.edge_group[i as usize] as usize;
        &self.group_succ[self.group_succ_off[g] as usize..self.group_succ_off[g + 1] as usize]
    }

    /// Identity-only successors of edge `i` (the ablation table).
    #[inline]
    pub fn identity_successors(&self, i: u32) -> &[u32] {
        let f = self.effect_dense[i as usize] as usize;
        &self.fault_out[self.fault_out_off[f] as usize..self.fault_out_off[f + 1] as usize]
    }

    #[inline]
    fn succ_of(&self, i: u32, use_compat: bool) -> &[u32] {
        if use_compat {
            self.successors(i)
        } else {
            self.identity_successors(i)
        }
    }

    /// `true` if edge `j` continues edge `i` under the given mode (the
    /// `match` predicate of Algorithm 1; also the cycle-closure test).
    #[inline]
    pub fn continues(&self, i: u32, j: u32, use_compat: bool) -> bool {
        // Successor lists only hold edges whose cause is `i`'s effect, so a
        // dense-fault mismatch rejects without touching the list.
        if self.effect_dense[i as usize] != self.cause_dense[j as usize] {
            return false;
        }
        if use_compat {
            let succ = self.successors(i);
            if succ.len() <= 16 {
                succ.contains(&j)
            } else {
                succ.binary_search(&j).is_ok()
            }
        } else {
            true
        }
    }

    /// Builds the index from a database with `threads` workers.
    ///
    /// Successor lists are computed once per (effect fault, effect state)
    /// *group*, and the §6.2 verdicts they consume are computed once per
    /// distinct (effect-state, cause-state) pair in a shared table
    /// sharded across the workers — see the module docs. Byte-identical
    /// to [`StitchIndex::build_reference`] at any thread count.
    pub fn build(db: &CausalDb, threads: usize) -> StitchIndex {
        let p = build_prelude(db);
        let n = p.cause.len();
        let threads = threads.max(1).min(crate::pool::hardware_threads());
        let parts = |items: usize| {
            if threads <= 1 || n < PARALLEL_BUILD_THRESHOLD {
                1
            } else {
                threads.min(items.max(1))
            }
        };

        // Group edges by (effect fault, effect state): same key ⇒ same
        // candidate set and same verdicts ⇒ identical successor list.
        // Group ids follow first-seen edge order.
        let mut group_ids: FxMap<u64, u32> = FxMap::default();
        let mut edge_group: Vec<u32> = Vec::with_capacity(n);
        let mut group_rep: Vec<u32> = Vec::new();
        let mut group_members: Vec<u32> = Vec::new();
        for i in 0..n {
            let key = (p.effect_dense[i] as u64) << 32 | p.effect_sid[i] as u64;
            let next = group_rep.len() as u32;
            let gid = *group_ids.entry(key).or_insert(next);
            if gid == next {
                group_rep.push(i as u32);
                group_members.push(1);
            } else {
                group_members[gid as usize] += 1;
            }
            edge_group.push(gid);
        }
        drop(group_ids);
        let g = group_rep.len();

        // The shared compat table: every distinct (effect-state,
        // cause-state) pair any group can reach, collected once.
        let mut pair_ids: FxMap<u64, u32> = FxMap::default();
        let mut pair_list: Vec<(u32, u32)> = Vec::new();
        for &r in &group_rep {
            let f = p.effect_dense[r as usize] as usize;
            let si = p.effect_sid[r as usize];
            for &j in &p.fault_out[p.fault_out_off[f] as usize..p.fault_out_off[f + 1] as usize] {
                let sj = p.cause_sid[j as usize];
                let key = (si as u64) << 32 | sj as u64;
                let next = pair_list.len() as u32;
                if *pair_ids.entry(key).or_insert(next) == next {
                    pair_list.push((si, sj));
                }
            }
        }

        // Verdicts: exactly one §6.2 merge per distinct pair, sharded
        // over the workers (each shard owns a disjoint slice — no
        // duplicated merges, no locking).
        let canon_states = &p.canon_states;
        let verdicts: Vec<bool> = run_ordered(
            chunk_ranges(pair_list.len(), parts(pair_list.len())),
            threads,
            |r: Range<usize>| {
                pair_list[r]
                    .iter()
                    .map(|&(si, sj)| {
                        canon_compatible(&canon_states[si as usize], &canon_states[sj as usize])
                    })
                    .collect::<Vec<bool>>()
            },
        )
        .into_iter()
        .flatten()
        .collect();

        // Group successor lists, filtered through the shared verdict
        // table (read-only from here). Candidate order is ascending, so
        // lists stay sorted for `continues`'s binary search.
        let pair_ids = &pair_ids;
        let verdicts = &verdicts;
        let pref = &p;
        let group_rep_ref = &group_rep;
        let per_group: Vec<Vec<u32>> =
            run_ordered(chunk_ranges(g, parts(g)), threads, |range: Range<usize>| {
                let mut lists = Vec::with_capacity(range.len());
                for gid in range {
                    let r = group_rep_ref[gid] as usize;
                    let f = pref.effect_dense[r] as usize;
                    let si = pref.effect_sid[r];
                    let candidates = &pref.fault_out
                        [pref.fault_out_off[f] as usize..pref.fault_out_off[f + 1] as usize];
                    let list: Vec<u32> = candidates
                        .iter()
                        .copied()
                        .filter(|&j| {
                            let sj = pref.cause_sid[j as usize];
                            verdicts[pair_ids[&((si as u64) << 32 | sj as u64)] as usize]
                        })
                        .collect();
                    lists.push(list);
                }
                lists
            })
            .into_iter()
            .flatten()
            .collect();

        let mut group_succ_off = Vec::with_capacity(g + 1);
        group_succ_off.push(0u32);
        let total: usize = per_group.iter().map(|l| l.len()).sum();
        assert!(
            total < u32::MAX as usize,
            "successor table exceeds u32 offset space ({total} entries)"
        );
        let mut group_succ = Vec::with_capacity(total);
        for list in &per_group {
            group_succ.extend_from_slice(list);
            group_succ_off.push(group_succ.len() as u32);
        }
        let edge_succ_entries: u64 = per_group
            .iter()
            .zip(&group_members)
            .map(|(l, &m)| l.len() as u64 * m as u64)
            .sum();
        let stats = CompatStats {
            edges: n,
            edge_groups: g,
            distinct_state_pairs: pair_list.len(),
            group_succ_entries: total,
            edge_succ_entries,
        };

        StitchIndex {
            cause: p.cause,
            kind: p.kind,
            delay_w: p.delay_w,
            struct_word: p.struct_word,
            cycle_word: p.cycle_word,
            cause_dense: p.cause_dense,
            effect_dense: p.effect_dense,
            fault_out_off: p.fault_out_off,
            fault_out: p.fault_out,
            edge_group,
            group_succ_off,
            group_succ,
            stats,
        }
    }

    /// The retained per-edge build — the executable specification of
    /// [`StitchIndex::build`]: one successor list per edge, computed in
    /// parallel over edge chunks with a **private** verdict cache per
    /// worker (the pre-shared-table formulation). `O(w·q)` merges worst
    /// case across `w` workers; kept as the oracle of the byte-identity
    /// tests.
    pub fn build_reference(db: &CausalDb, threads: usize) -> StitchIndex {
        let p = build_prelude(db);
        let n = p.cause.len();
        let canon_states = &p.canon_states;
        let build_range = |range: Range<usize>| -> Vec<Vec<u32>> {
            let mut cache: FxMap<u64, bool> = FxMap::default();
            let mut lists = Vec::with_capacity(range.len());
            for i in range {
                let f = p.effect_dense[i] as usize;
                let candidates =
                    &p.fault_out[p.fault_out_off[f] as usize..p.fault_out_off[f + 1] as usize];
                let si = p.effect_sid[i];
                let mut list = Vec::new();
                for &j in candidates {
                    let sj = p.cause_sid[j as usize];
                    let ok = *cache
                        .entry((si as u64) << 32 | sj as u64)
                        .or_insert_with(|| {
                            canon_compatible(&canon_states[si as usize], &canon_states[sj as usize])
                        });
                    if ok {
                        list.push(j);
                    }
                }
                lists.push(list);
            }
            lists
        };
        let threads = threads.max(1).min(crate::pool::hardware_threads());
        let per_edge: Vec<Vec<u32>> = if threads <= 1 || n < PARALLEL_BUILD_THRESHOLD {
            build_range(0..n)
        } else {
            run_ordered(chunk_ranges(n, threads), threads, build_range)
                .into_iter()
                .flatten()
                .collect()
        };
        let mut succ_off = Vec::with_capacity(n + 1);
        succ_off.push(0u32);
        let total: usize = per_edge.iter().map(|l| l.len()).sum();
        assert!(
            total < u32::MAX as usize,
            "successor table exceeds u32 offset space ({total} entries)"
        );
        let mut succ = Vec::with_capacity(total);
        for list in &per_edge {
            succ.extend_from_slice(list);
            succ_off.push(succ.len() as u32);
        }
        let stats = CompatStats {
            edges: n,
            edge_groups: n,
            distinct_state_pairs: 0, // per-worker caches: no global count
            group_succ_entries: total,
            edge_succ_entries: total as u64,
        };

        StitchIndex {
            cause: p.cause,
            kind: p.kind,
            delay_w: p.delay_w,
            struct_word: p.struct_word,
            cycle_word: p.cycle_word,
            cause_dense: p.cause_dense,
            effect_dense: p.effect_dense,
            fault_out_off: p.fault_out_off,
            fault_out: p.fault_out,
            edge_group: (0..n as u32).collect(),
            group_succ_off: succ_off,
            group_succ: succ,
            stats,
        }
    }

    /// Runs the indexed beam search; observably equivalent to
    /// [`beam_search_reference`](crate::beam::beam_search_reference).
    pub fn search(&self, sim_of: &(dyn Fn(FaultId) -> f64 + Sync), cfg: &BeamConfig) -> Vec<Cycle> {
        self.search_with_stats(sim_of, cfg).0
    }

    /// [`StitchIndex::search`], plus one [`LevelStats`] per level (the
    /// seeding level first).
    pub fn search_with_stats(
        &self,
        sim_of: &(dyn Fn(FaultId) -> f64 + Sync),
        cfg: &BeamConfig,
    ) -> (Vec<Cycle>, Vec<LevelStats>) {
        let n = self.len();
        if n == 0 {
            return (Vec::new(), Vec::new());
        }
        // Chain lengths are stored in a byte; the paper's configurations
        // cap chains at single digits, so 255 is far beyond practical use.
        assert!(
            cfg.max_len <= u8::MAX as usize,
            "beam_search supports max_len up to 255 (got {})",
            cfg.max_len
        );
        let use_compat = cfg.compatibility_check;
        // Chain length (and so delay count) is capped at u8 range; a cap
        // beyond 255 can never bind.
        let cap = cfg
            .max_delay_injections
            .map(|c| u8::try_from(c).unwrap_or(u8::MAX));

        // Per-search flat score array (the SimScore map is a search-time
        // argument, so it cannot live in the immutable index).
        let sim: Vec<f64> = (0..n)
            .map(|i| {
                if self.kind[i].is_injection() {
                    sim_of(self.cause[i])
                } else {
                    0.0
                }
            })
            .collect();

        let shared = Shared {
            idx: self,
            sim: &sim,
            use_compat,
            max_len: cfg.max_len,
            beam_size: cfg.beam_size,
            cap,
            arena: RwLock::new(ChainArena::default()),
            frontier: RwLock::new(Vec::new()),
        };

        // Level 1: every edge seeds a chain (Alg. 1 line 2); self-matching
        // edges are already cycles. No beam cut before the first expansion,
        // matching the reference.
        let mut cycles: Vec<CycleRef> = Vec::new();
        // One scratch serves the seeding, the inline expansions and the
        // level merges: they never overlap.
        let mut scratch = DedupScratch::default();
        let mut seeds = LevelStats::default();
        {
            let mut arena = shared.arena.write().expect("arena lock");
            let mut frontier = shared.frontier.write().expect("frontier lock");
            for i in 0..n as u32 {
                let d = self.delay_w[i as usize];
                if cap.is_some_and(|c| d > c) {
                    continue;
                }
                if self.continues(i, i, use_compat) {
                    seeds.cycles_raw += 1;
                    let key = arena.cycle_key(&self.cycle_word, NONE, i);
                    if scratch.cycle_seen.insert(key) {
                        cycles.push(CycleRef {
                            parent: NONE,
                            edge: i,
                            len: 1,
                            score_sum: sim[i as usize],
                            key,
                        });
                    }
                } else {
                    let node = arena.push(i, NONE);
                    frontier.push(Frontier {
                        node,
                        last_edge: i,
                        first_edge: i,
                        len: 1,
                        delays: d,
                        score_sum: sim[i as usize],
                        hash: Hash128::SEED.extend(self.struct_word[i as usize]),
                    });
                }
            }
            seeds.candidates_generated = frontier.len();
            seeds.candidates_kept = frontier.len();
            seeds.cycles_kept = cycles.len();
        }
        let mut levels = vec![seeds];

        // Workers expand disjoint index ranges of the shared frontier; the
        // dispatch moves a `Range<usize>` per job instead of memcpying
        // `Frontier` chunks, and the pool hands results back in range
        // order, so "first occurrence" means the same thing as in a
        // sequential run. Jobs hand their scratch on to the next job: a set
        // regrown from empty per job cost more than the probes it served.
        let spare: Mutex<Vec<DedupScratch>> = Mutex::new(Vec::new());
        let expand_range = |range: Range<usize>| -> Expansion {
            let frontier = shared.frontier.read().expect("frontier lock");
            let mut out = Expansion::default();
            let mut scratch = spare
                .lock()
                .expect("scratch lock")
                .pop()
                .unwrap_or_default();
            expand_into(&shared, &frontier, range, &mut out, &mut scratch);
            spare.lock().expect("scratch lock").push(scratch);
            out
        };

        // Run the levels inside one scope so lazily-spawned workers can
        // borrow `shared` and persist across levels. The sequential path
        // reuses its expansion and selection buffers level to level. The
        // pool is capped at the hardware's parallelism: extra workers on a
        // saturated machine only add hand-off and context-switch cost.
        let workers = cfg.threads.min(crate::pool::hardware_threads());
        std::thread::scope(|scope| {
            let mut pool: Option<ScopedPool<'_, Range<usize>, Expansion>> = None;
            let mut chunks: Vec<Expansion> = vec![Expansion::default()];
            loop {
                let nf = shared.frontier.read().expect("frontier lock").len();
                if nf == 0 {
                    break;
                }
                if workers > 1 && nf >= PARALLEL_THRESHOLD {
                    let pool = pool
                        .get_or_insert_with(|| ScopedPool::spawn(scope, &expand_range, workers));
                    // Over-partition for load balance; order is restored by
                    // the pool's tagged reassembly.
                    chunks = pool.map(chunk_ranges(nf, (workers * 4).min(nf)));
                } else {
                    let frontier = shared.frontier.read().expect("frontier lock");
                    chunks.truncate(1);
                    expand_into(&shared, &frontier, 0..nf, &mut chunks[0], &mut scratch);
                }

                let (next, stats) = merge_level(&shared, &chunks, &mut scratch, &mut cycles);
                levels.push(stats);
                *shared.frontier.write().expect("frontier lock") = next;
            }
            // Dropping the pool closes the job channel; workers exit before
            // the scope joins them.
            drop(pool);
        });

        // Materialise the cycles (edge paths root → leaf). Their multisets
        // are distinct (module docs): no exact structural dedup follows.
        let arena = shared.arena.read().expect("arena lock");
        let mut cycles: Vec<Cycle> = cycles
            .into_iter()
            .map(|c| {
                let mut edges = Vec::with_capacity(c.len as usize);
                edges.push(c.edge as usize);
                let mut node = c.parent;
                while node != NONE {
                    let (edge, parent) = arena.nodes[node as usize];
                    edges.push(edge as usize);
                    node = parent;
                }
                edges.reverse();
                Cycle {
                    edges,
                    score: c.score_sum / c.len as f64,
                }
            })
            .collect();
        cycles.sort_by(report_order);
        (cycles, levels)
    }
}

// ---------------------------------------------------------------------------
// Search machinery
// ---------------------------------------------------------------------------

/// Counters of one beam level: what was generated against what survived
/// structural dedup. Counts only, and repeatable: the same at every
/// thread count, bar the one exception noted on `candidates_kept`. The
/// first entry of a search is the seeding level (`frontier` 0, every
/// passing edge kept), entry `l` expands the chains of length `l`; the
/// next entry's `frontier` is what the merge kept of `candidates_kept`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Chains expanded.
    pub frontier: usize,
    /// Non-closing extensions inside the length and delay caps, before any
    /// dedup.
    pub candidates_generated: usize,
    /// Candidates handed to the merge: distinct within their expansion
    /// range, less what a range cut once it held `2 · beam_size`. Equal
    /// chains in different ranges count once per range, so both effects
    /// depend on how the frontier was split over the workers.
    pub candidates_kept: usize,
    /// Closing extensions.
    pub cycles_raw: usize,
    /// Closing extensions whose multiset key was new at this level — the
    /// ones materialised and reported.
    pub cycles_kept: usize,
}

/// Parent-pointer chain arena: O(1) extension, membership by walking at
/// most `max_len` parents. Only beam survivors are materialised.
#[derive(Debug, Default)]
struct ChainArena {
    /// `(edge, parent)` pairs, interleaved so a membership walk touches one
    /// cache line per node.
    nodes: Vec<(u32, u32)>,
}

impl ChainArena {
    fn push(&mut self, edge: u32, parent: u32) -> u32 {
        let id = self.nodes.len();
        assert!(id < NONE as usize, "chain arena exceeds u32 node space");
        self.nodes.push((edge, parent));
        id as u32
    }

    /// `true` if `needle` occurs on the chain ending at `node`.
    #[inline]
    fn contains(&self, mut node: u32, needle: u32) -> bool {
        while node != NONE {
            let (edge, parent) = self.nodes[node as usize];
            if edge == needle {
                return true;
            }
            node = parent;
        }
        false
    }

    /// Commutative 128-bit key of the cycle that edge `closing` closes on
    /// the chain ending at `node`: the lane-wise wrapping sum of the
    /// edges' `words`. Equal relationship multisets — rotations, or the
    /// same relationships witnessed by other tests — get equal keys.
    #[inline]
    fn cycle_key(&self, words: &[(u64, u64)], mut node: u32, closing: u32) -> u128 {
        let (mut s1, mut s2) = words[closing as usize];
        while node != NONE {
            let (edge, parent) = self.nodes[node as usize];
            let (w1, w2) = words[edge as usize];
            s1 = s1.wrapping_add(w1);
            s2 = s2.wrapping_add(w2);
            node = parent;
        }
        (s1 as u128) << 64 | s2 as u128
    }
}

/// One live chain on the beam frontier.
#[derive(Debug, Clone, Copy)]
struct Frontier {
    /// Arena node of the chain's last edge.
    node: u32,
    last_edge: u32,
    first_edge: u32,
    len: u8,
    delays: u8,
    score_sum: f64,
    hash: Hash128,
}

/// A candidate extension produced by one expansion (not yet materialised),
/// in 8 bytes: the chain `frontier[from]` of the level being expanded,
/// extended by `edge`. The rest is derived from that frontier entry where
/// it is read: [`Shared::extend`] gives the chain's parent node (the
/// entry's `node`), first edge, length (`len + 1`), delay count (`delays +
/// delay_w[edge]`), score sum (`score_sum + sim[edge]`) and hash (`hash`
/// extended by `struct_word[edge]`); [`Shared::score`] and [`Shared::key`]
/// give its rank score and chain key alone. A paper-scale level holds a
/// million candidates, and storing those fields would copy what the frontier
/// entry already holds.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    /// Index of the extended chain in the level's frontier.
    from: u32,
    /// The appended edge.
    edge: u32,
}

// Pinned: a field added back is a build error, not a silent memory regression.
const _: () = assert!(std::mem::size_of::<Candidate>() == 8);

/// A discovered cycle: parent node plus closing edge.
#[derive(Debug, Clone, Copy)]
struct CycleRef {
    parent: u32,
    edge: u32,
    len: u8,
    score_sum: f64,
    /// See [`ChainArena::cycle_key`].
    key: u128,
}

/// Search-wide state shared between the level loop and the workers.
struct Shared<'a> {
    idx: &'a StitchIndex,
    sim: &'a [f64],
    use_compat: bool,
    max_len: usize,
    beam_size: usize,
    cap: Option<u8>,
    /// Read by workers during expansion; extended by the level loop during
    /// selection (the two phases never overlap, the lock just proves it).
    arena: RwLock<ChainArena>,
    /// The live frontier. Workers read disjoint index ranges of it during
    /// expansion; the level loop replaces it during selection (again, the
    /// phases never overlap).
    frontier: RwLock<Vec<Frontier>>,
}

impl Shared<'_> {
    /// `chain` extended by edge `j`, ending at arena node `node`: the chain
    /// a [`Candidate`] stands for. Each field is the expression
    /// [`expand_into`] filters with.
    #[inline]
    fn extend(&self, chain: &Frontier, j: u32, node: u32) -> Frontier {
        Frontier {
            node,
            last_edge: j,
            first_edge: chain.first_edge,
            len: chain.len + 1,
            delays: chain.delays + self.idx.delay_w[j as usize],
            score_sum: chain.score_sum + self.sim[j as usize],
            hash: chain.hash.extend(self.idx.struct_word[j as usize]),
        }
    }

    /// The beam rank score of `c`, computed exactly as the reference does.
    #[inline]
    fn score(&self, frontier: &[Frontier], c: Candidate) -> f64 {
        let chain = &frontier[c.from as usize];
        (chain.score_sum + self.sim[c.edge as usize]) / (chain.len + 1) as f64
    }

    /// The 128-bit chain key of `c`.
    #[inline]
    fn key(&self, frontier: &[Frontier], c: Candidate) -> u128 {
        let chain = &frontier[c.from as usize];
        chain
            .hash
            .extend(self.idx.struct_word[c.edge as usize])
            .key()
    }
}

/// A beam rank: `(score, chunk, index in chunk)`. Chunks and indices
/// ascend in insertion order, so [`cmp_rank`] is the reference's stable
/// score order.
type Rank = (f64, u32, u32);

fn cmp_rank(a: &Rank, b: &Rank) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then((a.1, a.2).cmp(&(b.1, b.2)))
}

/// What one frontier-range expansion returns, already deduplicated and
/// cut within the range.
#[derive(Default)]
struct Expansion {
    /// Structurally distinct candidate extensions in (chain, successor)
    /// order; at most `2 · beam_size` of them. Each is 8 bytes and indexes
    /// the frontier the range was expanded from, which must stay in place
    /// until the merge has derived the next frontier from it.
    candidates: Vec<Candidate>,
    /// Closing extensions with distinct multiset keys, in the same order.
    cycles: Vec<CycleRef>,
    /// Candidate extensions before dedup and cut.
    generated: usize,
    /// Closing extensions before dedup.
    cycles_raw: usize,
}

/// Dedup-and-rank scratch of one expansion range or of the level merge
/// (cleared, not reallocated, per use).
#[derive(Default)]
struct DedupScratch {
    /// Chain keys of the candidates a range holds, or the merge has walked.
    seen: PrehashedSet,
    /// Cycle keys already emitted.
    cycle_seen: PrehashedSet,
    order: Vec<Rank>,
}

/// Expands a frontier range into `out`, deduplicating as it goes (the
/// module docs argue why each drop is safe):
///
/// * a candidate whose 128-bit chain key was already emitted by this range
///   is dropped (first occurrence wins, as in the reference);
/// * once the range holds `2 · beam_size` candidates it is cut back to its
///   `beam_size` best by [`cmp_rank`], and from then on a candidate scoring
///   no better than the worst survivor is dropped on arrival;
/// * a closing extension whose commutative cycle key was already emitted
///   by this range is dropped (the reference's exact cycle dedup keeps
///   first occurrences too).
///
/// Output order follows (chain, successor) order, so chunk-ordered
/// concatenation is the sequential order. `range` indexes `frontier`, the
/// whole level, so candidates carry level-wide indices.
fn expand_into(
    shared: &Shared<'_>,
    frontier: &[Frontier],
    range: Range<usize>,
    out: &mut Expansion,
    scratch: &mut DedupScratch,
) {
    assert!(
        frontier.len() <= u32::MAX as usize,
        "frontier exceeds u32 index space"
    );
    let idx = shared.idx;
    let arena = shared.arena.read().expect("arena lock");
    out.candidates.clear();
    out.cycles.clear();
    out.generated = 0;
    out.cycles_raw = 0;
    scratch.seen.clear();
    scratch.cycle_seen.clear();
    // A zero beam keeps nothing, which `merge_level` enforces.
    let cut_at = match shared.beam_size {
        0 => usize::MAX,
        b => b.saturating_mul(2),
    };
    let mut cutoff: Option<f64> = None;
    for from in range {
        let chain = &frontier[from];
        let len = chain.len + 1;
        let grows = (len as usize) < shared.max_len;
        for &j in idx.succ_of(chain.last_edge, shared.use_compat) {
            // Closure before membership: a full chain keeps only closures.
            let closes = idx.continues(j, chain.first_edge, shared.use_compat);
            if !(closes || grows) || arena.contains(chain.node, j) {
                continue;
            }
            let delays = chain.delays + idx.delay_w[j as usize];
            if shared.cap.is_some_and(|c| delays > c) {
                continue;
            }
            if closes {
                out.cycles_raw += 1;
                let key = arena.cycle_key(&idx.cycle_word, chain.node, j);
                if scratch.cycle_seen.insert(key) {
                    out.cycles.push(CycleRef {
                        parent: chain.node,
                        edge: j,
                        len,
                        score_sum: chain.score_sum + shared.sim[j as usize],
                        key,
                    });
                }
            } else {
                out.generated += 1;
                let candidate = Candidate {
                    from: from as u32,
                    edge: j,
                };
                if cutoff.is_some_and(|worst| {
                    shared.score(frontier, candidate).total_cmp(&worst).is_ge()
                }) || !scratch.seen.insert(shared.key(frontier, candidate))
                {
                    continue;
                }
                out.candidates.push(candidate);
                if out.candidates.len() >= cut_at {
                    cutoff = Some(cut_to_beam(shared, frontier, &mut out.candidates, scratch));
                }
            }
        }
    }
}

/// Cuts a range's candidates (extending chains of `frontier`) back to its
/// `beam_size` best by [`cmp_rank`] (insertion order kept), forgets the
/// keys of the rest, and returns the worst surviving score.
fn cut_to_beam(
    shared: &Shared<'_>,
    frontier: &[Frontier],
    candidates: &mut Vec<Candidate>,
    scratch: &mut DedupScratch,
) -> f64 {
    let rank = |i: usize, c: Candidate| (shared.score(frontier, c), 0, i as u32);
    let order = &mut scratch.order;
    order.clear();
    order.extend(candidates.iter().enumerate().map(|(i, &c)| rank(i, c)));
    let worst = *order
        .select_nth_unstable_by(shared.beam_size - 1, cmp_rank)
        .1;
    let mut i = 0;
    candidates.retain(|&c| {
        i += 1;
        cmp_rank(&rank(i - 1, c), &worst).is_le()
    });
    // Every forgotten key scores no better than `worst`, so the cut-off
    // test drops its later occurrences without the set's help.
    scratch.seen.clear();
    scratch
        .seen
        .extend(candidates.iter().map(|&c| shared.key(frontier, c)));
    worst.0
}

/// Folds one level's range expansions, in range order, into the search:
/// appends the level's first-occurrence cycle refs to `cycles` and selects
/// the next frontier.
///
/// Each range is already distinct within itself, so a lone range needs no
/// further dedup and several dedup only across ranges (first occurrence
/// wins). Selection comes first: `select_nth_unstable_by` picks the
/// `B − kept` best remaining ranks, which are sorted and walked keeping
/// each key's first occurrence, and a short beam repeats on the tail.
/// Equal key ⇒ equal score, so a first occurrence ranks before its
/// duplicates, and rounds run in rank order: the kept ranks are the
/// reference's. Only 16-byte ranks move during selection; surviving
/// candidates are gathered from their ranges and materialised as arena
/// nodes afterwards. Scores, keys and the next frontier's entries are all
/// derived from the current frontier, which the caller replaces only after
/// this returns.
fn merge_level(
    shared: &Shared<'_>,
    chunks: &[Expansion],
    buf: &mut DedupScratch,
    cycles: &mut Vec<CycleRef>,
) -> (Vec<Frontier>, LevelStats) {
    let across = chunks.len() > 1;
    let DedupScratch {
        seen,
        cycle_seen,
        order,
    } = buf;
    seen.clear();
    cycle_seen.clear();
    order.clear();
    order.reserve(chunks.iter().map(|c| c.candidates.len()).sum());
    let frontier = shared.frontier.read().expect("frontier lock");
    let mut stats = LevelStats {
        frontier: frontier.len(),
        ..LevelStats::default()
    };
    let cycles_before = cycles.len();
    for (ci, chunk) in chunks.iter().enumerate() {
        assert!(
            chunk.candidates.len() <= u32::MAX as usize && ci <= u32::MAX as usize,
            "expansion exceeds u32 rank space"
        );
        stats.candidates_generated += chunk.generated;
        stats.cycles_raw += chunk.cycles_raw;
        cycles.extend(
            chunk
                .cycles
                .iter()
                .filter(|c| !across || cycle_seen.insert(c.key)),
        );
        order.extend(
            chunk
                .candidates
                .iter()
                .enumerate()
                .map(|(i, &c)| (shared.score(&frontier, c), ci as u32, i as u32)),
        );
    }
    stats.cycles_kept = cycles.len() - cycles_before;
    stats.candidates_kept = order.len();

    // `order[..kept]` holds the kept ranks, `order[next..]` the unexamined
    // ones. `cmp_rank` is a total order, so sorting each round reproduces
    // the reference's stable full sort exactly.
    let (mut kept, mut next) = (0, 0);
    while kept < shared.beam_size && next < order.len() {
        let need = shared.beam_size - kept;
        let rest = &mut order[next..];
        if rest.len() > need {
            rest.select_nth_unstable_by(need - 1, cmp_rank);
        }
        let round = need.min(rest.len());
        rest[..round].sort_unstable_by(cmp_rank);
        for r in next..next + round {
            let (_, ci, i) = order[r];
            if !across
                || seen.insert(shared.key(&frontier, chunks[ci as usize].candidates[i as usize]))
            {
                order[kept] = order[r];
                kept += 1;
            }
        }
        next += round;
    }
    order.truncate(kept);

    let mut arena = shared.arena.write().expect("arena lock");
    let next = order
        .iter()
        .map(|&(_, ci, i)| {
            let c = chunks[ci as usize].candidates[i as usize];
            let chain = &frontier[c.from as usize];
            shared.extend(chain, c.edge, arena.push(c.edge, chain.node))
        })
        .collect();
    (next, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::CausalEdge;
    use csnake_inject::{FnId, Occurrence, TestId};

    fn state(tag: u32) -> CompatState {
        CompatState::Occurrences(vec![Occurrence::new([Some(FnId(tag)), None], vec![])])
    }

    fn edge(cause: u32, effect: u32, cs: u32, es: u32) -> CausalEdge {
        CausalEdge {
            cause: FaultId(cause),
            effect: FaultId(effect),
            kind: EdgeKind::EI,
            test: TestId(0),
            phase: 1,
            cause_state: state(cs),
            effect_state: state(es),
        }
    }

    #[test]
    fn successor_tables_respect_compatibility() {
        // 0→1 feeds 1→2 (states 7/7 match) but not 1→3 (7 vs 8).
        let db = CausalDb::from_edges(vec![edge(0, 1, 1, 7), edge(1, 2, 7, 2), edge(1, 3, 8, 3)]);
        let idx = StitchIndex::build(&db, 2);
        assert_eq!(idx.successors(0), &[1]);
        assert_eq!(idx.identity_successors(0), &[1, 2]);
        assert!(idx.continues(0, 1, true));
        assert!(!idx.continues(0, 2, true));
        assert!(idx.continues(0, 2, false));
    }

    #[test]
    fn grouped_build_matches_reference_build() {
        // High fanout with shared effect states: edges 10·c→x all share
        // per-cause effect states, so grouping collapses lists.
        let mut edges = Vec::new();
        for c in 0..20u32 {
            for k in 0..5 {
                edges.push(edge(c, (c + k + 1) % 20, c % 4, (c + k + 1) % 4));
            }
        }
        let db = CausalDb::from_edges(edges);
        let fast = StitchIndex::build(&db, 3);
        let slow = StitchIndex::build_reference(&db, 3);
        assert_eq!(fast.len(), slow.len());
        for i in 0..fast.len() as u32 {
            assert_eq!(fast.successors(i), slow.successors(i), "edge {i}");
            assert_eq!(fast.identity_successors(i), slow.identity_successors(i));
        }
        let stats = fast.compat_stats();
        assert!(
            stats.edge_groups < stats.edges,
            "shared effect states must collapse groups: {stats:?}"
        );
        assert!(stats.distinct_state_pairs > 0);
        assert_eq!(
            stats.edge_succ_entries,
            slow.compat_stats().edge_succ_entries,
            "avoided per-edge entries must equal what the reference stores"
        );
        assert!(stats.group_table_bytes() <= stats.edge_table_bytes());
    }

    #[test]
    fn canonical_states_intern_and_merge() {
        let a = canonicalize(&state(5));
        let b = canonicalize(&state(5));
        let c = canonicalize(&state(6));
        assert_eq!(a, b);
        assert!(canon_compatible(&a, &b));
        assert!(!canon_compatible(&a, &c));
    }

    #[test]
    fn sorted_intersects_is_exact() {
        assert!(sorted_intersects(&[1u64, 4, 9], &[2, 4]));
        assert!(!sorted_intersects(&[1u64, 4, 9], &[2, 5]));
        assert!(!sorted_intersects::<u64>(&[], &[1]));
        assert!(!sorted_intersects::<u64>(&[], &[]));
    }

    #[test]
    fn hash128_is_order_sensitive_and_streams_are_independent() {
        let w1 = Hash128::edge_words(FaultId(1), FaultId(2), EdgeKind::EI);
        let w2 = Hash128::edge_words(FaultId(2), FaultId(1), EdgeKind::EI);
        assert_ne!(w1, w2);
        // The two stream words come from independently seeded mixes.
        assert_ne!(w1.0, w1.1);
        let a = Hash128::SEED.extend(w1).extend(w2);
        let b = Hash128::SEED.extend(w2).extend(w1);
        assert_ne!(a.key(), b.key());
        assert_ne!(
            Hash128::edge_words(FaultId(1), FaultId(2), EdgeKind::EI),
            Hash128::edge_words(FaultId(1), FaultId(2), EdgeKind::SI)
        );
    }

    #[test]
    fn arena_membership_walks_parents() {
        let mut a = ChainArena::default();
        let n0 = a.push(10, NONE);
        let n1 = a.push(11, n0);
        let n2 = a.push(12, n1);
        assert!(a.contains(n2, 10));
        assert!(a.contains(n2, 12));
        assert!(!a.contains(n2, 13));
        assert!(!a.contains(n0, 11));
    }

    #[test]
    fn indexed_search_finds_the_two_edge_cycle() {
        let db = CausalDb::from_edges(vec![edge(1, 2, 3, 7), edge(2, 1, 7, 3)]);
        let idx = StitchIndex::build(&db, 2);
        let cycles = idx.search(&|_| 0.5, &BeamConfig::default());
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].edges.len(), 2);
    }

    #[test]
    fn worker_pool_matches_sequential_expansion() {
        // The pool only engages organically on machines with spare cores
        // and big frontiers; drive it directly so range-order reassembly
        // and cross-range dedup are covered everywhere. Every relationship
        // is observed in three tests, so duplicate chains and duplicate
        // cycles straddle range boundaries. The `+ 13` relationships have a
        // delay cause, so chains carry different delay counts.
        let mut edges = Vec::new();
        for c in 0..40u32 {
            // 13 + 27 = 40: two-edge cycles close at the first expansion.
            for step in [1, 13, 27] {
                for t in 0..3 {
                    let to = (c + step) % 40;
                    edges.push(CausalEdge {
                        test: TestId(t),
                        kind: if step == 13 {
                            EdgeKind::ED
                        } else {
                            EdgeKind::EI
                        },
                        ..edge(c, to, c, to)
                    });
                }
            }
        }
        let db = CausalDb::from_edges(edges);
        let idx = StitchIndex::build(&db, 1);
        let sim: Vec<f64> = (0..idx.len()).map(|i| (i / 3 % 7) as f64 / 7.0).collect();
        // A beam nothing is cut by, and one every range cuts itself to.
        for beam_size in [usize::MAX, 10] {
            let shared = Shared {
                idx: &idx,
                sim: &sim,
                use_compat: true,
                max_len: 4,
                beam_size,
                cap: None,
                arena: RwLock::new(ChainArena::default()),
                frontier: RwLock::new(Vec::new()),
            };
            let n = {
                let mut arena = shared.arena.write().unwrap();
                let mut frontier = shared.frontier.write().unwrap();
                for i in 0..idx.len() as u32 {
                    frontier.push(Frontier {
                        node: arena.push(i, NONE),
                        last_edge: i,
                        first_edge: i,
                        len: 1,
                        delays: idx.delay_w[i as usize],
                        score_sum: sim[i as usize],
                        hash: Hash128::SEED.extend(idx.struct_word[i as usize]),
                    });
                }
                frontier.len()
            };
            let expand_range = |range: Range<usize>| {
                let frontier = shared.frontier.read().unwrap();
                let mut out = Expansion::default();
                expand_into(
                    &shared,
                    &frontier,
                    range,
                    &mut out,
                    &mut DedupScratch::default(),
                );
                out
            };
            // The chains (every field but the node, with the parent node
            // and the hash key instead) and the closing (parent, edge)
            // pairs a merge keeps.
            let merged = |chunks: &[Expansion]| {
                let mut cycles = Vec::new();
                let (next, stats) =
                    merge_level(&shared, chunks, &mut DedupScratch::default(), &mut cycles);
                let arena = shared.arena.read().unwrap();
                // The derived fields agree with the chain the arena holds:
                // edges root → leaf, folded in the order a seed grows.
                for f in &next {
                    let mut path = Vec::new();
                    let mut node = f.node;
                    while node != NONE {
                        let (edge, parent) = arena.nodes[node as usize];
                        path.push(edge as usize);
                        node = parent;
                    }
                    path.reverse();
                    let score_sum = path[1..].iter().fold(sim[path[0]], |acc, &e| acc + sim[e]);
                    let hash = path
                        .iter()
                        .fold(Hash128::SEED, |h, &e| h.extend(idx.struct_word[e]));
                    let delays: u8 = path.iter().map(|&e| idx.delay_w[e]).sum();
                    assert_eq!(
                        (f.last_edge as usize, f.first_edge as usize, f.len as usize),
                        (path[path.len() - 1], path[0], path.len())
                    );
                    assert_eq!(f.delays, delays, "chain {path:?}");
                    assert_eq!(f.score_sum.to_bits(), score_sum.to_bits());
                    assert_eq!(f.hash.key(), hash.key());
                }
                let chains: Vec<(u32, u32, u32, u8, u8, u64, u128)> = next
                    .iter()
                    .map(|f| {
                        (
                            arena.nodes[f.node as usize].1,
                            f.last_edge,
                            f.first_edge,
                            f.len,
                            f.delays,
                            f.score_sum.to_bits(),
                            f.hash.key(),
                        )
                    })
                    .collect();
                let cycles: Vec<(u32, u32)> = cycles.iter().map(|c| (c.parent, c.edge)).collect();
                (chains, cycles, stats)
            };
            let sequential = [expand_range(0..n)];
            std::thread::scope(|scope| {
                let mut pool = ScopedPool::spawn(scope, &expand_range, 3);
                let pooled = pool.map(chunk_ranges(n, 7));
                let emitted = |chunks: &[Expansion]| -> (usize, usize) {
                    chunks.iter().fold((0, 0), |(c, cy), e| {
                        (c + e.candidates.len(), cy + e.cycles.len())
                    })
                };
                if beam_size == usize::MAX {
                    let ((seq_c, seq_cy), (par_c, par_cy)) =
                        (emitted(&sequential), emitted(&pooled));
                    assert!(
                        par_c > seq_c && par_cy > seq_cy,
                        "duplicates must straddle ranges: {par_c} vs {seq_c}, {par_cy} vs {seq_cy}"
                    );
                } else {
                    assert!(pooled.iter().all(|e| e.candidates.len() < 2 * beam_size));
                }
                let (seq, par) = (merged(&sequential), merged(&pooled));
                assert!(!seq.0.is_empty() && !seq.1.is_empty());
                assert!(seq.2.candidates_generated > seq.2.candidates_kept);
                assert_eq!((&seq.0, &seq.1), (&par.0, &par.1), "beam {beam_size}");
                // The merge counts what the ranges hand it: duplicates that
                // straddle ranges, less whatever ranges cut themselves.
                assert_eq!(
                    LevelStats {
                        candidates_kept: 0,
                        ..seq.2
                    },
                    LevelStats {
                        candidates_kept: 0,
                        ..par.2
                    }
                );
                if beam_size == usize::MAX {
                    assert!(par.2.candidates_kept >= seq.2.candidates_kept);
                    assert!(seq.0.iter().any(|c| c.4 > 0), "no kept chain has a delay");
                }
            });
        }
    }
}
