//! The sparse-neighborhood clustering against its retained references.
//!
//! Property tests drive the sparse inverted-index agglomeration
//! (`hierarchical_cluster`) against the greedy O(n³) closest-pair
//! reference over random vector sets — including the adversarial shapes
//! the sparse formulation special-cases: exact-duplicate-heavy inputs
//! (pre-grouped before edge generation) and all-zero vectors (distance
//! 0 to each other, exactly 1 to everything else). At a scale where the
//! reference is unaffordable, `verify_cut_quality` checks the bounds
//! that define a correct average-linkage cut instead: mean intra-cluster
//! distance < θ, mean distance between shared-dimension cluster pairs
//! ≥ θ, and connectivity of every cluster under candidate edges.

use std::collections::BTreeSet;

use csnake::core::cluster::{
    hierarchical_cluster, hierarchical_cluster_reference, hierarchical_cluster_with_stats,
    verify_cut_quality,
};
use csnake::core::fnv1a_bytes;
use csnake::core::idf::IdfVectorizer;
use csnake::inject::FaultId;
use csnake_bench::campaign::{hot_dimension_vectors, synthetic_vectors};
use proptest::prelude::*;

fn doc_strategy() -> impl Strategy<Value = BTreeSet<FaultId>> {
    // A small dimension pool keeps the inputs dense in shared dimensions,
    // which is where candidate generation and tie-breaking are stressed.
    proptest::collection::btree_set((0u32..24).prop_map(FaultId), 0..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sparse_matches_reference_on_random_inputs(
        docs in proptest::collection::vec(doc_strategy(), 1..40),
        threshold in 0.0f64..1.2
    ) {
        let m = IdfVectorizer::fit(&docs);
        let vs: Vec<_> = docs.iter().map(|d| m.vectorize(d)).collect();
        prop_assert_eq!(
            hierarchical_cluster(&vs, threshold),
            hierarchical_cluster_reference(&vs, threshold),
            "threshold {}", threshold
        );
    }

    #[test]
    fn sparse_matches_reference_on_tie_heavy_inputs(
        base in proptest::collection::vec(doc_strategy(), 2..8),
        picks in proptest::collection::vec(0usize..8, 4..48),
        threshold in 0.0f64..1.0
    ) {
        // Duplicate-heavy inputs maximise distance ties, where merge-order
        // freedom could diverge; the duplicate pre-grouping must still
        // reproduce the reference's cuts exactly.
        let m = IdfVectorizer::fit(&base);
        let pool: Vec<_> = base.iter().map(|d| m.vectorize(d)).collect();
        let vs: Vec<_> = picks.iter().map(|&i| pool[i % pool.len()].clone()).collect();
        prop_assert_eq!(
            hierarchical_cluster(&vs, threshold),
            hierarchical_cluster_reference(&vs, threshold),
            "threshold {}", threshold
        );
    }

    #[test]
    fn sparse_matches_reference_with_zero_vectors(
        docs in proptest::collection::vec(doc_strategy(), 1..24),
        zeros in 1usize..12,
        threshold in 0.0f64..1.0
    ) {
        // All-zero vectors (faults whose interference lists vanish after
        // IDF weighting) sit at distance 0 from each other and exactly 1
        // from every non-zero vector; both implementations must merge the
        // zeros together and keep them apart from everything else.
        let mut docs = docs;
        for _ in 0..zeros {
            docs.push(BTreeSet::new());
        }
        let m = IdfVectorizer::fit(&docs);
        let vs: Vec<_> = docs.iter().map(|d| m.vectorize(d)).collect();
        prop_assert_eq!(
            hierarchical_cluster(&vs, threshold),
            hierarchical_cluster_reference(&vs, threshold),
            "threshold {}", threshold
        );
    }
}

#[test]
fn large_input_cut_quality_is_verified() {
    // Past reference scale: the cut-quality bounds stand in for exact
    // equivalence. 3000 synthetic vectors with the duplicate/mutant mix
    // the campaign benchmark uses.
    let vectors = synthetic_vectors(3000, 0xC577);
    for threshold in [0.3, 0.5, 0.8] {
        let (clustering, stats) = hierarchical_cluster_with_stats(&vectors, threshold);
        assert!(
            stats.sparse_graph_bytes < stats.matrix_bytes,
            "sparse working set must undercut the dense matrix: {} vs {}",
            stats.sparse_graph_bytes,
            stats.matrix_bytes
        );
        verify_cut_quality(&vectors, &clustering, threshold, 64)
            .unwrap_or_else(|e| panic!("cut quality at threshold {threshold}: {e}"));
    }
}

#[test]
fn all_zero_corpus_collapses_to_one_cluster() {
    // Zero vectors sit at distance 0 from each other (and exactly 1 from
    // everything else); an all-zero corpus is one exact-duplicate group,
    // which the sparse path collapses before edge generation.
    let docs: Vec<BTreeSet<FaultId>> = vec![BTreeSet::new(); 50];
    let m = IdfVectorizer::fit(&docs);
    let vs: Vec<_> = docs.iter().map(|d| m.vectorize(d)).collect();
    let c = hierarchical_cluster(&vs, 0.999);
    assert_eq!(c, hierarchical_cluster_reference(&vs, 0.999));
    assert_eq!(c.n_clusters, 1);
}

/// `(n_clusters, FNV-1a of the assignment as little-endian u64s, groups,
/// candidate_edges, merges)` of one clustering run.
fn cut_pin(
    vectors: &[csnake::core::idf::SparseVec],
    threshold: f64,
) -> (usize, u64, usize, usize, usize) {
    let (c, stats) = hierarchical_cluster_with_stats(vectors, threshold);
    let bytes: Vec<u8> = c
        .assignment
        .iter()
        .flat_map(|&a| (a as u64).to_le_bytes())
        .collect();
    (
        c.n_clusters,
        fnv1a_bytes(&bytes),
        stats.groups,
        stats.candidate_edges,
        stats.merges,
    )
}

#[test]
fn cuts_at_scale_keep_their_assignments() {
    // Past reference scale the exact cut is pinned instead: any change to
    // candidate generation or agglomeration that moves one item moves the
    // hash.
    let vectors = synthetic_vectors(3000, 0xC577);
    for (threshold, want) in [
        (0.3, (187, 0x9722_d119_cb63_c7a9, 803, 23_482, 616)),
        (0.5, (95, 0xcca0_56cd_65cd_0366, 803, 23_482, 708)),
        (0.8, (66, 0xa46f_f5a3_7bb1_09fe, 803, 23_482, 737)),
    ] {
        assert_eq!(cut_pin(&vectors, threshold), want, "threshold {threshold}");
    }
    // One dimension shared by ~90% of the vectors: its candidate-edge
    // count depends on how pairs are enumerated, the cut does not.
    let hot = hot_dimension_vectors(1000, 0xB0B);
    let (n_clusters, hash, groups, _, merges) = cut_pin(&hot, 0.5);
    assert_eq!(
        (n_clusters, hash, groups, merges),
        (431, 0x2fc6_ec45_0341_6ae7, 517, 86)
    );
}
