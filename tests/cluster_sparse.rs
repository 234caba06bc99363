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
    hierarchical_cluster_with_stats_capped, verify_cut_quality,
};
use csnake::core::idf::IdfVectorizer;
use csnake::inject::FaultId;
use csnake_bench::campaign::synthetic_vectors;
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

    #[test]
    fn capped_hot_dimensions_match_reference_on_random_inputs(
        docs in proptest::collection::vec(doc_strategy(), 1..32),
        hot_cap in 0usize..4,
        threshold in 0.0f64..1.2
    ) {
        // The hot-posting cap is a performance knob, not an approximation:
        // forcing dimensions hot on reference-sized inputs (cap 0 = every
        // dimension; tiny caps = a mix) must reproduce the reference cut
        // exactly — including pairs reachable only through hot dimensions,
        // which the Cauchy–Schwarz sweep has to recover.
        let m = IdfVectorizer::fit(&docs);
        let vs: Vec<_> = docs.iter().map(|d| m.vectorize(d)).collect();
        let (capped, _) = hierarchical_cluster_with_stats_capped(&vs, threshold, hot_cap);
        prop_assert_eq!(
            capped,
            hierarchical_cluster_reference(&vs, threshold),
            "threshold {} cap {}", threshold, hot_cap
        );
    }
}

#[test]
fn near_ubiquitous_dimension_is_capped_at_scale() {
    // The candidate-generation worst case: one dimension shared by ~90%
    // of 3000 otherwise-nearly-disjoint vectors. The default cap
    // (posting list > max(256, groups/8)) marks it hot, so the candidate
    // graph is driven by the rare dimensions — and the cut still equals
    // the uncapped run's bit-for-bit.
    let vectors = csnake_bench::campaign::hot_dimension_vectors(3000, 0xB0B);
    let (capped, stats) = hierarchical_cluster_with_stats(&vectors, 0.5);
    assert!(
        stats.hot_dims >= 1,
        "the shared dimension must trip the default cap: {stats:?}"
    );
    let quadratic = stats.groups * (stats.groups - 1) / 2;
    assert!(
        stats.candidate_edges < quadratic / 50,
        "hot capping must keep the graph far from quadratic: {} of {} pairs",
        stats.candidate_edges,
        quadratic
    );
    assert!(
        stats.candidate_edges < stats.groups * 2,
        "the capped graph must stay near-linear in groups: {} edges for {} groups",
        stats.candidate_edges,
        stats.groups
    );
    verify_cut_quality(&vectors, &capped, 0.5, 64).expect("capped cut quality");
    // Exactness at scale: an absurd cap disables hot handling entirely
    // and pays the full posting-list square — same cut.
    let (uncapped, ustats) = hierarchical_cluster_with_stats_capped(&vectors, 0.5, usize::MAX);
    assert_eq!(ustats.hot_dims, 0);
    assert!(
        ustats.candidate_edges > stats.candidate_edges * 50,
        "worst case must actually be quadratic uncapped: {} vs {}",
        ustats.candidate_edges,
        stats.candidate_edges
    );
    assert_eq!(
        capped, uncapped,
        "the cap must not change the dendrogram cut"
    );
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
