//! Agglomerative hierarchical clustering (§5.2 phase one) — sparse
//! neighborhoods, no `O(n²)` distance matrix.
//!
//! CSnake clusters faults whose phase-one interference vectors are similar
//! ("causally equivalent faults") with hierarchical clustering over cosine
//! distance, using average linkage via the Lance–Williams update and
//! cutting the dendrogram at a distance threshold.
//!
//! Earlier revisions ran a nearest-neighbor chain over a cached pairwise
//! distance matrix: `O(n²)` time **and memory** — an 8·n² byte ceiling
//! that capped campaigns near 100k vectors. [`hierarchical_cluster`] now
//! exploits the structure of the data instead of materializing all pairs:
//!
//! 1. **Exact-duplicate pre-grouping.** Identical fault-profile vectors
//!    are extremely common (most faults interfere with the same few
//!    neighbors, unreachable faults all vectorize to zero). Bitwise-equal
//!    vectors are collapsed into one weighted group *before any distance
//!    is computed*; under average linkage a group of `k` identical
//!    vectors behaves exactly like one vector of size-weight `k`, and the
//!    intra-group merges all sit at height 0 — below any positive
//!    threshold.
//! 2. **Inverted-index candidate generation.** IDF components are
//!    non-negative, so `cosine_distance < 1` **iff** two vectors share a
//!    nonzero dimension. An inverted index over dimensions emits exactly
//!    those pairs, with each pair's dot product accumulated in ascending
//!    dimension order (bit-identical to [`cosine_distance`]). Pairs
//!    without a shared dimension sit at distance *exactly* 1.0 — and a
//!    Lance–Williams average of all-1.0 entries stays exactly 1.0 — so
//!    the sparse graph is exact, not an approximation: a merge below any
//!    threshold ≤ 1 can only happen along a graph edge.
//! 3. **Hot-posting caps.** A *near-ubiquitous* dimension — one whose
//!    posting list exceeds `max(256, groups/8)` — would alone make the
//!    candidate graph quadratic, even though its IDF weight (and thus its
//!    contribution to any distance) is typically tiny. Hot dimensions are
//!    split out of the inverted index: pair enumeration runs over the
//!    cold dimensions only, each discovered pair's dot product is
//!    completed exactly from the two groups' hot components, and the few
//!    pairs that could sit below the threshold *through hot dimensions
//!    alone* are recovered by a Cauchy–Schwarz sweep over hot-mass-heavy
//!    groups (`‖hotₐ‖·‖hot_b‖ ≤ 1−θ` proves a pair super-threshold
//!    without touching it). Everything else stays implicit: per-cluster
//!    hot-component *sums* give the exact average-linkage distance of any
//!    unmaterialized pair on demand — `1 − (Sₐ·S_b)/(|A||B|)` — and the
//!    Lance–Williams average of two such implicit distances is exactly
//!    the implicit distance of the merged sums, so absent edges never
//!    need materializing. The result is still the exact dendrogram, but
//!    the candidate-edge count is driven by the *cold* co-occurrence
//!    structure instead of the hottest posting list's square.
//! 4. **Sparse agglomeration.** Cluster adjacency lives in per-cluster
//!    neighbor maps. A lazy-deletion min-heap orders candidate merges by
//!    `(height, smaller-representative, larger-representative)` — the
//!    greedy reference's exact scan order, ties included — and stops at
//!    the first height ≥ threshold: average linkage is *reducible*
//!    (`d(i∪j, k) ≥ min(d(i,k), d(j,k))`), so once the global minimum
//!    reaches the threshold no later merge can drop below it. Absent
//!    edges contribute the implicit distance 1.0 to updates. By the same
//!    stopping rule, a distance at or above the threshold can never be
//!    popped as a merge — so such entries are kept out of the heap
//!    entirely (the adjacency still holds them for the averages), which
//!    typically shrinks the heap by an order of magnitude.
//!
//! Complexity: `O(Σ_cold p_dim²)` candidate generation over the cold
//! dimensions (output-sensitive: the number of genuinely overlapping
//! pairs; fanned out on the worker
//! pool past `CLUSTER_PARALLEL_MIN_GROUPS` groups — distances are
//! bit-identical regardless of which worker computes them) plus
//! `O(E log E)` agglomeration over `E` graph edges — memory `O(n + E)`
//! instead of `O(n²)`. [`hierarchical_cluster_with_stats`] reports the
//! realized counts (groups, edges, the matrix bytes that were *not*
//! allocated) so benchmarks track the memory claim instead of asserting it.
//!
//! [`hierarchical_cluster_reference`] retains the greedy `O(n³)`
//! closest-pair rescan as the executable specification;
//! `tests/campaign_equivalence.rs` and `tests/cluster_sparse.rs` prove
//! identical dendrogram cuts across randomized vector sets and
//! thresholds, and [`verify_cut_quality`] checks the two cut-quality
//! bounds (no cluster whose mean intra-distance ≥ threshold, no cluster
//! pair whose mean cross-distance < threshold) at scales the reference
//! cannot reach.
//!
//! One floating-point caveat on the equivalence contract: the sparse
//! agglomeration applies Lance–Williams updates in a different merge
//! order than the greedy rescan (pre-grouped duplicates merge "for free",
//! heap order differs from rescan order between equal-height runs, and
//! when hot dimensions are split out a pair's dot product sums its cold
//! terms before its hot terms instead of in one ascending pass),
//! which is equal in exact arithmetic but can differ by an ulp in `f64`.
//! A divergent cut therefore requires a merge height within ~1 ulp of the
//! threshold — vanishingly unlikely for data-derived cosine distances
//! against round thresholds like 0.5, and never observed across the
//! randomized suites — but callers comparing implementations on
//! adversarial inputs should treat heights straddling the threshold
//! within float error as ties, not bugs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::fxhash::FxMap;
use crate::idf::{cosine_distance, SparseVec};

/// Group count above which candidate-edge generation fans out on the
/// worker pool; below it the per-call thread spawn costs more than the
/// dot products it would split.
const CLUSTER_PARALLEL_MIN_GROUPS: usize = 1024;

/// Absolute floor of the hot-posting cap: dimensions never count as
/// near-ubiquitous below this posting length, so small inputs (every
/// unit and property test at reference scale) take the uncapped path
/// bit-for-bit.
const CLUSTER_HOT_POSTING_FLOOR: usize = 256;

/// Absolute slack on the Cauchy–Schwarz prune in the hot-pair sweep:
/// a pair is skipped only when its hot-mass product is below the cutoff
/// by more than this, so accumulated rounding in the mass computation
/// cannot hide a genuinely sub-threshold pair.
const HOT_PRUNE_SLACK: f64 = 1e-12;

/// Default hot-posting cap for `groups` distinct vectors: a dimension is
/// near-ubiquitous when it appears in more than an eighth of all groups
/// (and at least [`CLUSTER_HOT_POSTING_FLOOR`] of them).
fn default_hot_cap(groups: usize) -> usize {
    (groups / 8).max(CLUSTER_HOT_POSTING_FLOOR)
}

/// Dot product of two sparse component lists sorted ascending by
/// dimension, accumulated in ascending dimension order (the same order
/// [`cosine_distance`] uses over shared keys).
fn hot_dot(a: &[(u32, f64)], b: &[(u32, f64)]) -> f64 {
    let (mut i, mut j, mut dot) = (0usize, 0usize, 0.0f64);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                dot += a[i].1 * b[j].1;
                i += 1;
                j += 1;
            }
        }
    }
    dot
}

/// Merges cluster hot-component sums: `a += b`, both sorted ascending by
/// dimension.
fn hot_sum_add(a: &mut Vec<(u32, f64)>, b: Vec<(u32, f64)>) {
    if b.is_empty() {
        return;
    }
    if a.is_empty() {
        *a = b;
        return;
    }
    let mut merged = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some(&(da, wa)), Some(&(db, wb))) => match da.cmp(&db) {
                std::cmp::Ordering::Less => {
                    merged.push((da, wa));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push((db, wb));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push((da, wa + wb));
                    i += 1;
                    j += 1;
                }
            },
            (Some(&(da, wa)), None) => {
                merged.push((da, wa));
                i += 1;
            }
            (None, Some(&(db, wb))) => {
                merged.push((db, wb));
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    *a = merged;
}

/// Exact average-linkage distance of an *unmaterialized* cluster pair —
/// one whose member pairs all share either nothing (distance exactly 1)
/// or only hot dimensions. `sum_*` are the clusters' size-weighted hot
/// component sums and `wa`/`wb` the cluster sizes, so the mean cross
/// dot product is `(Sₐ·S_b)/(|A||B|)`. With no hot components at all
/// this is exactly the legacy implicit 1.0.
fn implicit_distance(sum_a: &[(u32, f64)], sum_b: &[(u32, f64)], wa: f64, wb: f64) -> f64 {
    if sum_a.is_empty() || sum_b.is_empty() {
        return 1.0;
    }
    let dot = hot_dot(sum_a, sum_b);
    if dot == 0.0 {
        1.0
    } else {
        (1.0 - dot / (wa * wb)).clamp(0.0, 1.0)
    }
}

/// Result of clustering `n` items: `assignment[i]` is the cluster index of
/// item `i`; cluster indices are dense (`0..n_clusters`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    /// Cluster index per item.
    pub assignment: Vec<usize>,
    /// Number of clusters.
    pub n_clusters: usize,
}

impl Clustering {
    /// Items grouped by cluster, in cluster-index order.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let mut g = vec![Vec::new(); self.n_clusters];
        for (item, &c) in self.assignment.iter().enumerate() {
            g[c].push(item);
        }
        g
    }
}

/// Size counters of one sparse clustering run, for tracking the memory
/// story in benchmark artifacts (all counts, no allocation probes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Input vectors.
    pub vectors: usize,
    /// Distinct vectors after exact-duplicate pre-grouping.
    pub groups: usize,
    /// Initial sparse-graph edges (group pairs sharing a cold dimension,
    /// plus materialized hot-only pairs).
    pub candidate_edges: usize,
    /// Near-ubiquitous dimensions split out of pair enumeration (posting
    /// list longer than the hot cap).
    pub hot_dims: usize,
    /// Hot-only sub-threshold pairs materialized by the Cauchy–Schwarz
    /// sweep (already counted in `candidate_edges`).
    pub hot_pairs: usize,
    /// Sub-threshold merges applied (excluding duplicate pre-grouping).
    pub merges: usize,
    /// What the dense pairwise matrix would have cost: `8·n²` bytes.
    pub matrix_bytes: u64,
    /// Peak sparse working-set estimate, computed from counts: two
    /// adjacency entries of ~12 bytes plus one 24-byte heap entry per
    /// candidate edge, plus ~16 bytes of per-group scratch.
    pub sparse_graph_bytes: u64,
}

impl ClusterStats {
    fn new(n: usize) -> ClusterStats {
        ClusterStats {
            vectors: n,
            matrix_bytes: 8 * (n as u64) * (n as u64),
            ..ClusterStats::default()
        }
    }

    fn finish(mut self, candidate_edges: usize) -> ClusterStats {
        self.candidate_edges = candidate_edges;
        self.sparse_graph_bytes =
            (candidate_edges as u64) * (2 * 12 + 24) + (self.groups as u64) * 16;
        self
    }
}

/// One pending merge in the lazy-deletion heap. Ordered by `(height,
/// smaller group, larger group)` — group ids ascend with their minimum
/// member index, so this reproduces the greedy reference's tie-breaking
/// scan order exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MergeEntry {
    d: f64,
    a: u32,
    b: u32,
}

impl Eq for MergeEntry {}

impl Ord for MergeEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.d
            .total_cmp(&other.d)
            .then(self.a.cmp(&other.a))
            .then(self.b.cmp(&other.b))
    }
}

impl PartialOrd for MergeEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Average-linkage agglomerative clustering cut at `threshold` — the
/// sparse-neighborhood formulation (see the module docs): `O(n + E)`
/// memory, no pairwise matrix.
///
/// Produces the same dendrogram cuts as
/// [`hierarchical_cluster_reference`], with cluster ids densified in the
/// same first-seen order: ascending by each cluster's smallest member
/// index.
pub fn hierarchical_cluster(vectors: &[SparseVec], threshold: f64) -> Clustering {
    hierarchical_cluster_with_stats(vectors, threshold).0
}

/// [`hierarchical_cluster`] plus the size counters of the run.
pub fn hierarchical_cluster_with_stats(
    vectors: &[SparseVec],
    threshold: f64,
) -> (Clustering, ClusterStats) {
    cluster_impl(vectors, threshold, None)
}

/// [`hierarchical_cluster_with_stats`] with an explicit hot-posting cap:
/// dimensions whose posting list exceeds `hot_cap` groups are split out
/// of pair enumeration (module docs, step 3). The cut is the same for
/// every cap — the cap is a performance knob, not an approximation — so
/// this exists for tests and benchmarks that need to force the hot path
/// on small inputs or tune it on pathological ones.
pub fn hierarchical_cluster_with_stats_capped(
    vectors: &[SparseVec],
    threshold: f64,
    hot_cap: usize,
) -> (Clustering, ClusterStats) {
    cluster_impl(vectors, threshold, Some(hot_cap))
}

fn cluster_impl(
    vectors: &[SparseVec],
    threshold: f64,
    hot_cap: Option<usize>,
) -> (Clustering, ClusterStats) {
    let n = vectors.len();
    let mut stats = ClusterStats::new(n);
    if n == 0 {
        return (
            Clustering {
                assignment: Vec::new(),
                n_clusters: 0,
            },
            stats,
        );
    }
    // Distances are ≥ 0, so a non-positive (or NaN) threshold admits no
    // merge at all: every item is its own cluster.
    if threshold.is_nan() || threshold <= 0.0 {
        stats.groups = n;
        return (
            Clustering {
                assignment: (0..n).collect(),
                n_clusters: n,
            },
            stats,
        );
    }
    // Distances are ≤ 1, so a threshold above 1 merges everything: the
    // greedy reference keeps taking sub-threshold pairs (Lance–Williams
    // averages stay within [0, 1]) until one cluster remains.
    if threshold > 1.0 {
        stats.groups = 1;
        return (
            Clustering {
                assignment: vec![0; n],
                n_clusters: 1,
            },
            stats,
        );
    }

    // ---- 1. Exact-duplicate pre-grouping. Bitwise-equal component maps
    // land in one group; group ids ascend with their first (= minimum)
    // member index. All zero vectors share the empty key: pairwise
    // distance 0 among themselves, exactly 1 to everything else, so the
    // group merges internally and never across.
    let mut group_ids: FxMap<Vec<(u32, u64)>, u32> = FxMap::default();
    let mut group_of_item: Vec<u32> = Vec::with_capacity(n);
    let mut rep: Vec<u32> = Vec::new();
    let mut gsize: Vec<f64> = Vec::new();
    for (i, v) in vectors.iter().enumerate() {
        let key: Vec<(u32, u64)> = v
            .components()
            .iter()
            .map(|(f, w)| (f.0, w.to_bits()))
            .collect();
        let next = rep.len() as u32;
        let gid = *group_ids.entry(key).or_insert(next);
        if gid == next {
            rep.push(i as u32);
            gsize.push(1.0);
        } else {
            gsize[gid as usize] += 1.0;
        }
        group_of_item.push(gid);
    }
    drop(group_ids);
    let g = rep.len();
    stats.groups = g;

    // ---- 2. Inverted index over nonzero dimensions; postings ascend by
    // group id because groups are scanned in id order.
    let mut postings: FxMap<u32, Vec<(u32, f64)>> = FxMap::default();
    for (gid, &r) in rep.iter().enumerate() {
        for (f, w) in vectors[r as usize].components() {
            postings.entry(f.0).or_default().push((gid as u32, *w));
        }
    }

    // ---- 2b. Hot-posting caps (module docs, step 3). Dimensions whose
    // posting list exceeds the cap leave the inverted index; their
    // contribution to any pair's dot product comes from the per-group
    // hot-component lists instead.
    let hot_cap = hot_cap.unwrap_or_else(|| default_hot_cap(g));
    let mut hot_dims: Vec<u32> = postings
        .iter()
        .filter(|(_, p)| p.len() > hot_cap)
        .map(|(&f, _)| f)
        .collect();
    hot_dims.sort_unstable();
    stats.hot_dims = hot_dims.len();
    let has_hot = !hot_dims.is_empty();
    let hot_set: crate::fxhash::FxSet<u32> = hot_dims.iter().copied().collect();
    // Per-group hot components, ascending by dimension (`components()` is
    // a BTreeMap walk).
    let hot_part: Vec<Vec<(u32, f64)>> = if has_hot {
        rep.iter()
            .map(|&r| {
                vectors[r as usize]
                    .components()
                    .iter()
                    .filter(|(f, _)| hot_set.contains(&f.0))
                    .map(|(f, w)| (f.0, *w))
                    .collect()
            })
            .collect()
    } else {
        vec![Vec::new(); g]
    };

    // ---- 3. Candidate pairs + initial distances. For each group `a`,
    // dot products against all co-dimensional groups `b > a` accumulate
    // into a dense scratch slot in ascending dimension order — the same
    // add sequence `cosine_distance` performs over the shared keys, so
    // the resulting distances are bit-identical to the matrix the
    // reference builds. The per-group edge lists depend only on the
    // read-only postings, so past `CLUSTER_PARALLEL_MIN_GROUPS` they are
    // computed on the worker pool (each worker owns its scratch arrays;
    // values are identical regardless of who computes them).
    let gen_range = |range: std::ops::Range<usize>| -> Vec<Vec<(u32, f64)>> {
        let mut scratch: Vec<f64> = vec![0.0; g];
        let mut mark: Vec<u32> = vec![0; g];
        let mut touched: Vec<u32> = Vec::new();
        let mut out: Vec<Vec<(u32, f64)>> = Vec::with_capacity(range.len());
        for a in range {
            let a = a as u32;
            let epoch = a + 1;
            for (f, wa) in vectors[rep[a as usize] as usize].components() {
                if has_hot && hot_set.contains(&f.0) {
                    continue;
                }
                let post = &postings[&f.0];
                let start = post.partition_point(|&(gid, _)| gid <= a);
                for &(b, wb) in &post[start..] {
                    let slot = b as usize;
                    if mark[slot] != epoch {
                        mark[slot] = epoch;
                        scratch[slot] = 0.0;
                        touched.push(b);
                    }
                    scratch[slot] += wa * wb;
                }
            }
            // Cold accumulation done; complete each discovered pair's dot
            // product with its hot terms so explicit edges carry the full
            // exact distance.
            let ha = &hot_part[a as usize];
            let mut edges: Vec<(u32, f64)> = Vec::with_capacity(touched.len());
            for &b in &touched {
                let mut dot = scratch[b as usize];
                if !ha.is_empty() {
                    dot += hot_dot(ha, &hot_part[b as usize]);
                }
                edges.push((b, (1.0 - dot).clamp(0.0, 1.0)));
            }
            touched.clear();
            out.push(edges);
        }
        out
    };
    let threads = crate::pool::hardware_threads();
    let per_group: Vec<Vec<(u32, f64)>> = if threads > 1 && g >= CLUSTER_PARALLEL_MIN_GROUPS {
        crate::pool::run_ordered(crate::pool::chunk_ranges(g, threads), threads, gen_range)
            .into_iter()
            .flatten()
            .collect()
    } else {
        gen_range(0..g)
    };
    drop(postings);

    // ---- 3b. Hot-only pair recovery. A pair sharing *only* hot
    // dimensions can still sit below the threshold (e.g. a vector that is
    // one hot dimension, against a near-copy) — those merges must be on
    // the heap. Their dot product is bounded by the product of the two
    // groups' hot-part norms (Cauchy–Schwarz), so scanning groups in
    // descending hot-mass order and stopping once the mass product proves
    // the pair super-threshold visits only the hot-heavy corner, not the
    // posting list's square. In the worst case that motivates the cap —
    // a near-ubiquitous dimension with a tiny IDF weight — every mass is
    // tiny and the sweep exits immediately.
    let mut hot_only: Vec<MergeEntry> = Vec::new();
    if has_hot {
        let cutoff = 1.0 - threshold;
        let mut heavy: Vec<(u32, f64)> = hot_part
            .iter()
            .enumerate()
            .filter(|(_, h)| !h.is_empty())
            .map(|(gid, h)| {
                let mass = h.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
                (gid as u32, mass)
            })
            .collect();
        heavy.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
        for i in 0..heavy.len() {
            let (a, ma) = heavy[i];
            if ma * ma <= cutoff - HOT_PRUNE_SLACK {
                break;
            }
            for &(b, mb) in &heavy[i + 1..] {
                if ma * mb <= cutoff - HOT_PRUNE_SLACK {
                    break;
                }
                let d =
                    (1.0 - hot_dot(&hot_part[a as usize], &hot_part[b as usize])).clamp(0.0, 1.0);
                if d < threshold {
                    hot_only.push(MergeEntry {
                        d,
                        a: a.min(b),
                        b: a.max(b),
                    });
                }
            }
        }
    }

    // Assemble the adjacency (both directions, capacity known up front)
    // and the initial heap. Entries at or above the threshold never merge
    // — the pop loop stops at the first one — so only sub-threshold
    // distances enter the heap; the adjacency keeps every candidate edge
    // because super-threshold distances still participate in the
    // Lance–Williams averages.
    let mut degree: Vec<usize> = per_group.iter().map(|e| e.len()).collect();
    for edges in &per_group {
        for &(b, _) in edges {
            degree[b as usize] += 1;
        }
    }
    let mut adj: Vec<FxMap<u32, f64>> = degree
        .iter()
        .map(|&d| FxMap::with_capacity_and_hasher(d, Default::default()))
        .collect();
    let mut candidate_edges = 0usize;
    let mut initial: Vec<Reverse<MergeEntry>> = Vec::new();
    for (a, edges) in per_group.iter().enumerate() {
        let a = a as u32;
        for &(b, d) in edges {
            adj[a as usize].insert(b, d);
            adj[b as usize].insert(a, d);
            if d < threshold {
                initial.push(Reverse(MergeEntry { d, a, b }));
            }
            candidate_edges += 1;
        }
    }
    drop(per_group);
    // Hot-only pairs join the graph unless a cold dimension already
    // discovered them (in which case the cold edge carries the full dot
    // product, while the sweep's value covers hot terms only). Every
    // entry is sub-threshold by construction, so all of them go on the
    // heap; super-threshold hot-only pairs stay implicit — their exact
    // distance is recomputed from cluster hot sums whenever an update
    // needs it.
    for e in hot_only {
        if adj[e.a as usize].contains_key(&e.b) {
            continue;
        }
        adj[e.a as usize].insert(e.b, e.d);
        adj[e.b as usize].insert(e.a, e.d);
        initial.push(Reverse(e));
        candidate_edges += 1;
        stats.hot_pairs += 1;
    }
    // Size-weighted per-cluster hot-component sums: a group of `k`
    // identical vectors contributes `k·w` per hot dimension. Merges add
    // sums, so `1 − (Sₐ·S_b)/(|A||B|)` is always the exact mean hot-only
    // cross distance of the live clusters.
    let mut hot_sum: Vec<Vec<(u32, f64)>> = hot_part
        .iter()
        .zip(&gsize)
        .map(|(h, &k)| h.iter().map(|&(dim, w)| (dim, w * k)).collect())
        .collect();
    drop(hot_part);
    // Heapify in one pass; pop order is the unique (d, a, b) total order
    // either way.
    let mut heap: BinaryHeap<Reverse<MergeEntry>> = BinaryHeap::from(initial);
    stats = stats.finish(candidate_edges);

    // ---- 4. Sparse agglomeration: repeatedly merge the globally closest
    // pair while it is below the threshold. Heap entries are validated
    // lazily against the live adjacency (bitwise distance match), so
    // superseded entries fall through. Reducibility makes the first
    // at-or-above-threshold pop final: no later merge can go lower.
    let mut active = vec![true; g];
    let mut parent: Vec<u32> = (0..g as u32).collect();
    let mut neighbor_scratch: Vec<(u32, f64)> = Vec::new();
    while let Some(Reverse(e)) = heap.pop() {
        if e.d >= threshold {
            break;
        }
        let (a, b) = (e.a as usize, e.b as usize);
        if !active[a] || !active[b] {
            continue;
        }
        match adj[a].get(&e.b) {
            Some(d) if d.to_bits() == e.d.to_bits() => {}
            _ => continue, // superseded by a Lance–Williams update
        }
        // Merge b into a: a has the smaller id, hence the smaller
        // representative — matching the reference's "merge j into i,
        // i < j", including the operand order of the update below.
        stats.merges += 1;
        let (sa, sb) = (gsize[a], gsize[b]);
        adj[a].remove(&e.b);
        adj[b].remove(&e.a);
        let bmap = std::mem::take(&mut adj[b]);
        neighbor_scratch.clear();
        neighbor_scratch.extend(adj[a].iter().map(|(&k, &d)| (k, d)));
        // Neighbors of a (shared neighbors read b's entry, exclusive
        // ones use the implicit distance — exactly 1.0 unless b and k
        // share hot dimensions)…
        for &(k, dak) in &neighbor_scratch {
            let dbk = match bmap.get(&k) {
                Some(&d) => d,
                None => implicit_distance(&hot_sum[b], &hot_sum[k as usize], sb, gsize[k as usize]),
            };
            let nd = (sa * dak + sb * dbk) / (sa + sb);
            adj[a].insert(k, nd);
            let km = &mut adj[k as usize];
            km.remove(&e.b);
            km.insert(e.a, nd);
            if nd < threshold {
                heap.push(Reverse(MergeEntry {
                    d: nd,
                    a: e.a.min(k),
                    b: e.a.max(k),
                }));
            }
        }
        // …then neighbors of b alone, where a contributes its implicit
        // distance. The Lance–Williams average of two implicit distances
        // is exactly the implicit distance of the merged hot sums (and
        // 1.0 stays 1.0 with no hot terms), so untouched non-edges stay
        // consistent without ever being materialized.
        for (k, dbk) in bmap {
            if k == e.a || adj[a].contains_key(&k) {
                continue;
            }
            let dak = implicit_distance(&hot_sum[a], &hot_sum[k as usize], sa, gsize[k as usize]);
            let nd = (sa * dak + sb * dbk) / (sa + sb);
            adj[a].insert(k, nd);
            let km = &mut adj[k as usize];
            km.remove(&e.b);
            km.insert(e.a, nd);
            if nd < threshold {
                heap.push(Reverse(MergeEntry {
                    d: nd,
                    a: e.a.min(k),
                    b: e.a.max(k),
                }));
            }
        }
        let bsum = std::mem::take(&mut hot_sum[b]);
        hot_sum_add(&mut hot_sum[a], bsum);
        gsize[a] += sb;
        active[b] = false;
        parent[b] = e.a;
    }

    // ---- 5. Cut + densify. Scanning items ascending, each cluster is
    // first seen at its minimum member (roots keep the smallest id), so
    // ids densify in the reference's first-seen order.
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    let mut assignment = vec![0usize; n];
    let mut id_of_root = vec![u32::MAX; g];
    let mut n_clusters = 0usize;
    for (item, slot) in assignment.iter_mut().enumerate() {
        let r = find(&mut parent, group_of_item[item]) as usize;
        if id_of_root[r] == u32::MAX {
            id_of_root[r] = n_clusters as u32;
            n_clusters += 1;
        }
        *slot = id_of_root[r] as usize;
    }
    (
        Clustering {
            assignment,
            n_clusters,
        },
        stats,
    )
}

/// Checks the two §5.2 cut-quality bounds on a clustering, by direct
/// recomputation from the vectors (independent of the algorithm that
/// produced the cut):
///
/// * **no over-merge** — every cluster's mean pairwise cosine distance is
///   `< threshold` (each agglomerative merge happened below the
///   threshold, and a weighted average of sub-threshold means stays
///   sub-threshold), and every cluster is connected under
///   shared-dimension/duplicate edges;
/// * **no under-merge** — for distinct clusters, the mean cross-pair
///   cosine distance is `≥ threshold` (the terminal average-linkage
///   distance *is* that mean, and agglomeration only stops once every
///   pair of live clusters sits at or above the threshold).
///
/// Exhaustive checking is quadratic, which is exactly what the sparse
/// path exists to avoid, so the bounds are verified on a deterministic
/// sample: up to `sample` clusters (largest first) and up to `sample`
/// adjacent cluster pairs discovered through shared dimensions, each
/// capped at `PAIR_CAP` member pairs. Only meaningful for thresholds in
/// `(0, 1]`. Returns a description of the first violation.
pub fn verify_cut_quality(
    vectors: &[SparseVec],
    clustering: &Clustering,
    threshold: f64,
    sample: usize,
) -> Result<(), String> {
    const PAIR_CAP: usize = 200_000;
    const SLACK: f64 = 1e-9;
    assert!(
        threshold > 0.0 && threshold <= 1.0,
        "cut-quality bounds are defined for thresholds in (0, 1]"
    );
    assert_eq!(vectors.len(), clustering.assignment.len());
    let groups = clustering.groups();

    // Largest clusters are where an over-merge would hide.
    let mut by_size: Vec<usize> = (0..groups.len()).collect();
    by_size.sort_by_key(|&c| (Reverse(groups[c].len()), c));

    for &c in by_size.iter().take(sample) {
        let members = &groups[c];
        if members.len() < 2 || members.len() * members.len() > PAIR_CAP {
            continue;
        }
        let (mut sum, mut cnt) = (0.0f64, 0usize);
        for (i, &x) in members.iter().enumerate() {
            for &y in &members[i + 1..] {
                sum += cosine_distance(&vectors[x], &vectors[y]);
                cnt += 1;
            }
        }
        let mean = sum / cnt as f64;
        if mean >= threshold + SLACK {
            return Err(format!(
                "over-merge: cluster {c} ({} members) has mean intra-distance {mean:.6} ≥ threshold {threshold}",
                members.len()
            ));
        }
        if !cluster_is_connected(vectors, members) {
            return Err(format!(
                "over-merge: cluster {c} ({} members) is not connected under shared-dimension/duplicate edges",
                members.len()
            ));
        }
    }

    // Adjacent cluster pairs (sharing a dimension) are the only ones that
    // could sit below the threshold: disjoint-support pairs have every
    // cross distance — hence the mean — exactly 1.
    let mut dim_cluster: FxMap<u32, u32> = FxMap::default();
    let mut checked: crate::fxhash::FxSet<u64> = crate::fxhash::FxSet::default();
    'outer: for (i, v) in vectors.iter().enumerate() {
        let ci = clustering.assignment[i] as u32;
        for f in v.components().keys() {
            let prev = *dim_cluster.entry(f.0).or_insert(ci);
            if prev == ci {
                continue;
            }
            let key = ((prev.min(ci) as u64) << 32) | prev.max(ci) as u64;
            if !checked.insert(key) {
                continue;
            }
            let (a, b) = (&groups[prev as usize], &groups[ci as usize]);
            if a.len() * b.len() <= PAIR_CAP {
                let (mut sum, mut cnt) = (0.0f64, 0usize);
                for &x in a {
                    for &y in b {
                        sum += cosine_distance(&vectors[x], &vectors[y]);
                        cnt += 1;
                    }
                }
                let mean = sum / cnt as f64;
                if mean < threshold - SLACK {
                    return Err(format!(
                        "under-merge: clusters {prev} and {ci} have mean cross-distance {mean:.6} < threshold {threshold}"
                    ));
                }
            }
            if checked.len() >= sample {
                break 'outer;
            }
        }
    }
    Ok(())
}

/// `true` if the member items form one component under "shares a nonzero
/// dimension or is an exact duplicate" edges. Duplicates matter because
/// zero vectors (distance 0 pairwise) share no dimensions at all.
fn cluster_is_connected(vectors: &[SparseVec], members: &[usize]) -> bool {
    if members.len() < 2 {
        return true;
    }
    // Collapse exact duplicates first (bitwise component equality).
    let mut node_of: FxMap<Vec<(u32, u64)>, usize> = FxMap::default();
    let mut node_of_member: Vec<usize> = Vec::with_capacity(members.len());
    for &m in members {
        let key: Vec<(u32, u64)> = vectors[m]
            .components()
            .iter()
            .map(|(f, w)| (f.0, w.to_bits()))
            .collect();
        let next = node_of.len();
        node_of_member.push(*node_of.entry(key).or_insert(next));
    }
    let nodes = node_of.len();
    if nodes == 1 {
        return true;
    }
    let mut dim_nodes: FxMap<u32, Vec<usize>> = FxMap::default();
    for (i, &m) in members.iter().enumerate() {
        for f in vectors[m].components().keys() {
            dim_nodes.entry(f.0).or_default().push(node_of_member[i]);
        }
    }
    let mut seen = vec![false; nodes];
    let mut stack = vec![node_of_member[0]];
    seen[node_of_member[0]] = true;
    let mut reached = 1usize;
    // Adjacency by dimension: visiting a node visits every co-dimensional
    // node. Rebuilding per-node dim lists is avoided by scanning members.
    let mut dims_of_node: Vec<Vec<u32>> = vec![Vec::new(); nodes];
    for (i, &m) in members.iter().enumerate() {
        let node = node_of_member[i];
        if dims_of_node[node].is_empty() {
            dims_of_node[node] = vectors[m].components().keys().map(|f| f.0).collect();
        }
    }
    while let Some(node) = stack.pop() {
        for &dim in &dims_of_node[node] {
            for &other in &dim_nodes[&dim] {
                if !seen[other] {
                    seen[other] = true;
                    reached += 1;
                    stack.push(other);
                }
            }
        }
    }
    reached == nodes
}

/// The retained greedy closest-pair implementation — the executable
/// specification of [`hierarchical_cluster`]. `O(n³)` worst case: every
/// merge rescans all active pairs over a dense distance matrix.
pub fn hierarchical_cluster_reference(vectors: &[SparseVec], threshold: f64) -> Clustering {
    let n = vectors.len();
    if n == 0 {
        return Clustering {
            assignment: Vec::new(),
            n_clusters: 0,
        };
    }
    // Distance matrix between active clusters.
    let mut dist = vec![vec![0.0_f64; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = cosine_distance(&vectors[i], &vectors[j]);
            dist[i][j] = d;
            dist[j][i] = d;
        }
    }
    let mut active: Vec<bool> = vec![true; n];
    let mut size: Vec<f64> = vec![1.0; n];
    // members[c] lists original item indices in cluster c.
    let mut members: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();

    loop {
        // Find the closest active pair.
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..n {
            if !active[i] {
                continue;
            }
            for j in (i + 1)..n {
                if !active[j] {
                    continue;
                }
                let d = dist[i][j];
                if best.map(|(_, _, bd)| d < bd).unwrap_or(true) {
                    best = Some((i, j, d));
                }
            }
        }
        let Some((i, j, d)) = best else { break };
        if d >= threshold {
            break;
        }
        // Merge j into i; Lance–Williams average-linkage update:
        // d(i∪j, k) = (|i| d(i,k) + |j| d(j,k)) / (|i| + |j|).
        let (si, sj) = (size[i], size[j]);
        for k in 0..n {
            if k == i || k == j || !active[k] {
                continue;
            }
            let nd = (si * dist[i][k] + sj * dist[j][k]) / (si + sj);
            dist[i][k] = nd;
            dist[k][i] = nd;
        }
        size[i] += size[j];
        let moved = std::mem::take(&mut members[j]);
        members[i].extend(moved);
        active[j] = false;
    }

    // Densify cluster ids in first-seen order for determinism.
    let mut assignment = vec![0usize; n];
    let mut n_clusters = 0;
    for c in 0..n {
        if !active[c] {
            continue;
        }
        for &item in &members[c] {
            assignment[item] = n_clusters;
        }
        n_clusters += 1;
    }
    Clustering {
        assignment,
        n_clusters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idf::IdfVectorizer;
    use csnake_inject::FaultId;
    use std::collections::BTreeSet;

    fn vecs(docs: &[&[u32]]) -> Vec<SparseVec> {
        let sets: Vec<BTreeSet<FaultId>> = docs
            .iter()
            .map(|d| d.iter().map(|i| FaultId(*i)).collect())
            .collect();
        let m = IdfVectorizer::fit(&sets);
        sets.iter().map(|s| m.vectorize(s)).collect()
    }

    #[test]
    fn identical_vectors_merge() {
        let v = vecs(&[&[1, 2], &[1, 2], &[5, 6], &[5, 6]]);
        let c = hierarchical_cluster(&v, 0.5);
        assert_eq!(c.n_clusters, 2);
        assert_eq!(c.assignment[0], c.assignment[1]);
        assert_eq!(c.assignment[2], c.assignment[3]);
        assert_ne!(c.assignment[0], c.assignment[2]);
    }

    #[test]
    fn disjoint_vectors_stay_apart() {
        let v = vecs(&[&[1], &[2], &[3]]);
        let c = hierarchical_cluster(&v, 0.5);
        assert_eq!(c.n_clusters, 3);
    }

    #[test]
    fn threshold_one_merges_everything_overlapping() {
        // Chain of pairwise-overlapping docs all below distance 1.
        let v = vecs(&[&[1, 2], &[2, 3], &[3, 4]]);
        let c = hierarchical_cluster(&v, 1.0 + 1e-9);
        assert_eq!(c.n_clusters, 1);
    }

    #[test]
    fn threshold_zero_keeps_all_singletons_when_distinct() {
        let v = vecs(&[&[1, 2], &[2, 3]]);
        let c = hierarchical_cluster(&v, 1e-12);
        assert_eq!(c.n_clusters, 2);
    }

    #[test]
    fn zero_vectors_cluster_together() {
        // Two docs containing only the ubiquitous fault vectorize to zero
        // and should land in the same cluster (distance 0).
        let v = vecs(&[&[1], &[1], &[1, 2]]);
        let c = hierarchical_cluster(&v, 0.5);
        assert_eq!(c.assignment[0], c.assignment[1]);
        assert_ne!(c.assignment[0], c.assignment[2]);
    }

    #[test]
    fn empty_input() {
        let c = hierarchical_cluster(&[], 0.5);
        assert_eq!(c.n_clusters, 0);
        assert!(c.assignment.is_empty());
    }

    #[test]
    fn sparse_matches_reference_on_fixtures() {
        let fixtures: Vec<Vec<&[u32]>> = vec![
            vec![&[1, 2], &[1, 2], &[5, 6], &[5, 6]],
            vec![&[1], &[2], &[3]],
            vec![&[1, 2], &[2, 3], &[3, 4]],
            vec![&[1], &[1], &[1, 2]],
            vec![&[1, 2, 3], &[2, 3, 4], &[9], &[9, 10], &[2, 3], &[1, 3]],
        ];
        for docs in fixtures {
            let v = vecs(&docs);
            for thr in [1e-12, 0.3, 0.5, 0.9, 1.0 + 1e-9] {
                let fast = hierarchical_cluster(&v, thr);
                let slow = hierarchical_cluster_reference(&v, thr);
                assert_eq!(fast, slow, "docs {docs:?} threshold {thr}");
            }
        }
    }

    #[test]
    fn stats_track_dedup_and_matrix_avoidance() {
        let v = vecs(&[&[1, 2], &[1, 2], &[1, 2], &[5, 6], &[5, 6], &[7]]);
        let (c, stats) = hierarchical_cluster_with_stats(&v, 0.5);
        assert_eq!(stats.vectors, 6);
        // Three distinct component maps.
        assert_eq!(stats.groups, 3);
        assert_eq!(stats.matrix_bytes, 8 * 36);
        // Disjoint supports: no candidate pairs, no merges beyond dedup.
        assert_eq!(stats.candidate_edges, 0);
        assert_eq!(stats.merges, 0);
        assert_eq!(c.n_clusters, 3);
    }

    #[test]
    fn all_zero_input_is_one_cluster() {
        let v = vecs(&[&[1], &[1], &[1]]);
        assert!(v.iter().all(|x| x.is_zero()));
        let c = hierarchical_cluster(&v, 0.5);
        assert_eq!(c.n_clusters, 1);
        assert_eq!(
            c,
            hierarchical_cluster_reference(&v, 0.5),
            "zero-vector handling must match the reference"
        );
    }

    #[test]
    fn cut_quality_accepts_reference_cuts_and_rejects_garbled_ones() {
        let v = vecs(&[
            &[1, 2, 3],
            &[1, 2, 3],
            &[2, 3, 4],
            &[9, 10],
            &[9, 10, 11],
            &[20],
            &[21],
        ]);
        let c = hierarchical_cluster(&v, 0.5);
        assert_eq!(c, hierarchical_cluster_reference(&v, 0.5));
        verify_cut_quality(&v, &c, 0.5, 64).expect("a real cut passes its own bounds");

        // Garble: force two far-apart clusters together.
        let mut over = c.clone();
        let far = over.assignment[5];
        let merged: Vec<usize> = over
            .assignment
            .iter()
            .map(|&a| if a == far { over.assignment[0] } else { a })
            .collect();
        // Re-densify.
        let mut remap = std::collections::BTreeMap::new();
        over.assignment = merged
            .iter()
            .map(|&a| {
                let next = remap.len();
                *remap.entry(a).or_insert(next)
            })
            .collect();
        over.n_clusters = remap.len();
        assert!(verify_cut_quality(&v, &over, 0.5, 64).is_err());
    }

    #[test]
    fn capped_path_matches_reference_on_fixtures() {
        // Force the hot-dimension machinery on tiny inputs: cap 0 makes
        // every dimension hot (no cold discovery at all — pairs come from
        // the Cauchy–Schwarz sweep alone); small caps mix cold and hot.
        let fixtures: Vec<Vec<&[u32]>> = vec![
            vec![&[1, 2], &[1, 2], &[5, 6], &[5, 6]],
            vec![&[1], &[2], &[3]],
            vec![&[1, 2], &[2, 3], &[3, 4]],
            vec![&[1], &[1], &[1, 2]],
            vec![&[1, 2, 3], &[2, 3, 4], &[9], &[9, 10], &[2, 3], &[1, 3]],
            vec![&[1], &[1, 2], &[1, 3], &[1, 2, 3], &[4], &[1, 4]],
        ];
        for docs in fixtures {
            let v = vecs(&docs);
            for thr in [1e-12, 0.3, 0.5, 0.7, 0.9, 1.0 + 1e-9] {
                let slow = hierarchical_cluster_reference(&v, thr);
                for cap in [0usize, 1, 2] {
                    let (fast, _) = hierarchical_cluster_with_stats_capped(&v, thr, cap);
                    assert_eq!(fast, slow, "docs {docs:?} threshold {thr} cap {cap}");
                }
            }
        }
    }

    #[test]
    fn hot_only_subthreshold_pairs_still_merge() {
        // {1} and {1, 2} are near-parallel *through dimension 1 alone*.
        // With cap 0 that dimension is hot, so no cold edge connects them
        // — the sweep has to recover the pair or the merge is lost.
        let v = vecs(&[&[1], &[1, 2], &[3], &[4]]);
        let thr = 0.7;
        let (c, stats) = hierarchical_cluster_with_stats_capped(&v, thr, 0);
        assert_eq!(c, hierarchical_cluster_reference(&v, thr));
        assert_eq!(c.assignment[0], c.assignment[1]);
        assert!(
            stats.hot_pairs >= 1,
            "sweep must materialize the pair: {stats:?}"
        );
    }

    #[test]
    fn near_ubiquitous_dimension_stops_costing_its_square() {
        // 36 of 40 docs share dimension 0 (tiny IDF weight, huge posting
        // list); each also carries a unique rare dimension. Capped, the
        // hot dimension leaves enumeration and the sweep proves every
        // hot-only pair super-threshold from the masses — zero candidate
        // edges. Uncapped, the same input pays the posting list's square.
        let docs: Vec<Vec<u32>> = (0..40u32)
            .map(|i| {
                if i < 36 {
                    vec![0, 100 + i]
                } else {
                    vec![200 + i]
                }
            })
            .collect();
        let refs: Vec<&[u32]> = docs.iter().map(|d| d.as_slice()).collect();
        let v = vecs(&refs);
        let (capped, stats) = hierarchical_cluster_with_stats_capped(&v, 0.5, 8);
        assert_eq!(stats.hot_dims, 1);
        assert_eq!(stats.hot_pairs, 0);
        assert_eq!(
            stats.candidate_edges, 0,
            "no cold co-occurrence, no heavy pairs: {stats:?}"
        );
        let (uncapped, ustats) = hierarchical_cluster_with_stats(&v, 0.5);
        assert_eq!(
            ustats.candidate_edges,
            36 * 35 / 2,
            "the square the cap avoids"
        );
        assert_eq!(capped, uncapped);
        assert_eq!(capped, hierarchical_cluster_reference(&v, 0.5));
    }

    #[test]
    fn reference_handles_empty_input() {
        let c = hierarchical_cluster_reference(&[], 0.5);
        assert_eq!(c.n_clusters, 0);
    }

    #[test]
    fn groups_partition_items() {
        let v = vecs(&[&[1, 2], &[1, 2], &[5], &[6], &[5]]);
        let c = hierarchical_cluster(&v, 0.5);
        let groups = c.groups();
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, 5);
        for g in &groups {
            assert!(!g.is_empty());
        }
    }
}
