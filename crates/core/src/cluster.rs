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
//! 3. **Sparse agglomeration.** Cluster adjacency lives in per-cluster
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
//! Complexity: `O(Σ_dim p_dim²)` candidate generation over the posting
//! lists (output-sensitive: the number of genuinely overlapping pairs,
//! so a dimension shared by most groups costs its posting list's square)
//! plus `O(E log E)` agglomeration over `E` graph edges — memory
//! `O(n + E)` instead of `O(n²)`. Campaigns stay far below where that
//! square matters: across every bundled target the largest input is 22
//! vectors in 14 groups. [`hierarchical_cluster_with_stats`] reports the
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
//! and heap order differs from rescan order between equal-height runs),
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
    /// Initial sparse-graph edges (group pairs sharing a dimension).
    pub candidate_edges: usize,
    /// Always 0: no dimension is split out of pair enumeration. Kept so
    /// the journal's `Clustering` record keeps its layout.
    pub hot_dims: usize,
    /// Always 0, like [`ClusterStats::hot_dims`] and for the same reason.
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

    // Merging goes on while the closest pair sits below the threshold.
    // Distances are ≥ 0, so a non-positive (or NaN) threshold admits no
    // merge at all — not even between duplicates: every item is its own
    // cluster.
    if threshold.is_nan() || threshold <= 0.0 {
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
        return (
            Clustering {
                assignment: vec![0; n],
                n_clusters: 1,
            },
            stats,
        );
    }

    // ---- 2. Inverted index over nonzero dimensions; postings ascend by
    // group id because groups are scanned in id order.
    let mut postings: FxMap<u32, Vec<(u32, f64)>> = FxMap::default();
    for (gid, &r) in rep.iter().enumerate() {
        for (f, w) in vectors[r as usize].components() {
            postings.entry(f.0).or_default().push((gid as u32, *w));
        }
    }

    // Candidate pairs + initial distances. For each group `a`, dot
    // products against all co-dimensional groups `b > a` accumulate into
    // a dense scratch slot in ascending dimension order — the same add
    // sequence `cosine_distance` performs over the shared keys, so the
    // resulting distances are bit-identical to the matrix the reference
    // builds. The adjacency keeps every candidate edge, because
    // super-threshold distances still take part in the Lance–Williams
    // averages; only sub-threshold ones enter the heap, since the pop
    // loop stops at the first entry at or above the threshold.
    let mut adj: Vec<FxMap<u32, f64>> = vec![FxMap::default(); g];
    let mut initial: Vec<Reverse<MergeEntry>> = Vec::new();
    let mut candidate_edges = 0usize;
    let mut scratch: Vec<f64> = vec![0.0; g];
    let mut mark: Vec<u32> = vec![0; g];
    let mut touched: Vec<u32> = Vec::new();
    for a in 0..g as u32 {
        let epoch = a + 1;
        for (f, wa) in vectors[rep[a as usize] as usize].components() {
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
        for b in touched.drain(..) {
            let d = (1.0 - scratch[b as usize]).clamp(0.0, 1.0);
            adj[a as usize].insert(b, d);
            adj[b as usize].insert(a, d);
            if d < threshold {
                initial.push(Reverse(MergeEntry { d, a, b }));
            }
            candidate_edges += 1;
        }
    }
    drop(postings);
    // Heapify in one pass; pop order is the unique (d, a, b) total order
    // either way.
    let mut heap: BinaryHeap<Reverse<MergeEntry>> = BinaryHeap::from(initial);
    stats = stats.finish(candidate_edges);

    // ---- 3. Sparse agglomeration: repeatedly merge the globally closest
    // pair while it is below the threshold. Heap entries are validated
    // lazily against the live adjacency (bitwise distance match), so
    // superseded entries fall through. Reducibility makes the first
    // at-or-above-threshold pop final: no later merge can go lower.
    let mut active = vec![true; g];
    let mut parent: Vec<u32> = (0..g as u32).collect();
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
        let amap = std::mem::take(&mut adj[a]);
        let bmap = std::mem::take(&mut adj[b]);
        let mut merged: FxMap<u32, f64> =
            FxMap::with_capacity_and_hasher(amap.len() + bmap.len(), Default::default());
        // Every neighbor of a or b; a side that has no edge to `k` sits
        // at the implicit distance 1.0. Pops follow the (d, a, b) total
        // order, so the order of these pushes does not matter.
        let only_b = bmap.keys().filter(|k| !amap.contains_key(k));
        for &k in amap.keys().chain(only_b) {
            let dak = amap.get(&k).copied().unwrap_or(1.0);
            let dbk = bmap.get(&k).copied().unwrap_or(1.0);
            let nd = (sa * dak + sb * dbk) / (sa + sb);
            merged.insert(k, nd);
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
        adj[a] = merged;
        gsize[a] += sb;
        active[b] = false;
        parent[b] = e.a;
    }

    // ---- 4. Cut + densify. Scanning items ascending, each cluster is
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
        // Merge while below the threshold: a NaN threshold merges nothing.
        let Some((i, j, _)) = best.filter(|&(_, _, d)| d < threshold) else {
            break;
        };
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
            for thr in [1e-12, 0.3, 0.5, 0.9, 1.0 + 1e-9, f64::NAN] {
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
        // The threshold shortcuts count groups after pre-grouping too.
        let v = vecs(&[&[1, 2], &[1, 2], &[3, 4], &[5, 6]]);
        for (thr, n_clusters) in [(0.0, 4), (1.5, 1)] {
            let (c, stats) = hierarchical_cluster_with_stats(&v, thr);
            assert_eq!(c.n_clusters, n_clusters, "threshold {thr}");
            assert_eq!(stats.groups, 3, "threshold {thr}");
        }
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
