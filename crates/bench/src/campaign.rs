//! Deterministic synthetic campaign generator for the campaign-pipeline
//! equivalence tests.
//!
//! Builds a registry of throw/negation/loop points (with nested/sibling
//! loop metadata, so structural `ICFG`/`CFG` edges occur) and generates
//! profile and injection traces from pure hash functions of
//! `(seed, test, point, run)`. Every call with the same spec regenerates
//! identical traces, so callers can stream experiments without holding a
//! whole campaign's traces in memory, and reference/indexed analyses can
//! be compared on bit-identical inputs.
//!
//! The behaviour model mirrors what FCA sees in a real campaign:
//!
//! * a small share of points occur "naturally" in profile runs (the
//!   counterfactual that suppresses edges);
//! * injected faults trigger a few additional points consistently across
//!   runs (execution-trace interference → `EI`/`ED` edges);
//! * most loops are unaffected by most injections (the batched Welch
//!   test's fast-reject path), while a hash-selected few triple their
//!   iteration counts (`S+` edges, structural propagation).

use std::collections::BTreeSet;
use std::sync::Arc;

use csnake_core::idf::{IdfVectorizer, SparseVec};
use csnake_inject::{
    BoolSource, ExceptionCategory, FaultId, FaultKind, FnId, InjectionPlan, LoopState, Occurrence,
    Registry, RegistryBuilder, RunTrace, TestId,
};
use csnake_sim::VirtualTime;

/// Shape of a synthetic campaign.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Throw points in the registry.
    pub n_throws: u32,
    /// Negation points in the registry.
    pub n_negations: u32,
    /// Loop points in the registry (rounded down to a multiple of 3; loops
    /// come in outer/inner/sibling triples).
    pub n_loops: u32,
    /// Faults actually injected (a deterministic spread over all kinds).
    pub n_faults: u32,
    /// Workloads; every fault is paired with every test.
    pub n_tests: u32,
    /// Run repetitions per experiment side (paper: 5).
    pub reps: usize,
    /// Base seed of the behaviour model.
    pub seed: u64,
}

impl CampaignSpec {
    /// A small campaign the equivalence tests run in full.
    pub fn smoke() -> CampaignSpec {
        CampaignSpec {
            n_throws: 60,
            n_negations: 30,
            n_loops: 24,
            n_faults: 40,
            n_tests: 4,
            reps: 3,
            seed: 0xCA5C_ADE5,
        }
    }
}

/// SplitMix64-style stateless mixer; all campaign behaviour derives from
/// hashes of `(seed, dimensions...)`.
fn mix(words: &[u64]) -> u64 {
    let mut z = 0x9E37_79B9_7F4A_7C15u64;
    for &w in words {
        z = z.wrapping_add(w).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    z
}

/// A generated campaign: registry plus the deterministic behaviour model.
pub struct SyntheticCampaign {
    spec: CampaignSpec,
    registry: Arc<Registry>,
    faults: Vec<FaultId>,
}

impl SyntheticCampaign {
    /// Builds the registry and picks the injected-fault spread.
    pub fn generate(spec: &CampaignSpec) -> SyntheticCampaign {
        let mut b = RegistryBuilder::new("synthetic-campaign");
        let f = b.func("Campaign.run");
        for i in 0..spec.n_throws {
            b.throw_point(
                f,
                i,
                "IOException",
                ExceptionCategory::SystemSpecific,
                "throw",
            );
        }
        for i in 0..spec.n_negations {
            b.negation_point(
                f,
                spec.n_throws + i,
                true,
                BoolSource::ErrorDetector,
                "detector",
            );
        }
        // Loops in (outer, inner, sibling) triples so S+ edges propagate
        // structurally.
        let triples = spec.n_loops / 3;
        for i in 0..triples {
            let line = spec.n_throws + spec.n_negations + i * 3;
            let outer = b.workload_loop(f, line, true, "outer");
            let inner = b.workload_loop(f, line + 1, false, "inner");
            let sibling = b.workload_loop(f, line + 2, false, "sibling");
            b.set_parent(inner, outer);
            b.set_parent(sibling, outer);
            b.set_sibling(inner, sibling);
        }
        let registry = Arc::new(b.build());

        // Injected faults: a fixed-stride spread over the whole registry so
        // throws, negations and loops all appear. The stride is at least
        // `n_points / n_faults`, so the spread spans the full id range
        // (loops live at the top) regardless of registry size.
        let n_points = registry.points().len() as u32;
        let n_faults = spec.n_faults.min(n_points);
        let min_stride = (n_points / n_faults.max(1)).max(7);
        let stride = pick_coprime_stride(n_points, min_stride);
        let faults: Vec<FaultId> = (0..n_faults)
            .map(|i| FaultId((i.wrapping_mul(stride).wrapping_add(1)) % n_points))
            .collect();

        SyntheticCampaign {
            spec: spec.clone(),
            registry,
            faults,
        }
    }

    /// The campaign's registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The injected-fault spread (distinct ids, all kinds represented).
    pub fn faults(&self) -> &[FaultId] {
        &self.faults
    }

    /// The campaign's workloads.
    pub fn tests(&self) -> Vec<TestId> {
        (0..self.spec.n_tests).map(TestId).collect()
    }

    /// The injection plan for a fault (a mid-sweep delay for loops).
    pub fn plan_for(&self, f: FaultId) -> InjectionPlan {
        match self.registry.point(f).kind {
            FaultKind::LoopPoint => InjectionPlan::delay(f, VirtualTime::from_millis(800)),
            FaultKind::Throw | FaultKind::LibCall => InjectionPlan::throw(f),
            FaultKind::Negation => InjectionPlan::negate(f),
        }
    }

    /// Profile runs of one test (no injection).
    pub fn profile_traces(&self, t: TestId) -> Vec<RunTrace> {
        (0..self.spec.reps)
            .map(|rep| self.trace(t, None, rep))
            .collect()
    }

    /// Injection runs of one `(fault, test)` experiment.
    pub fn injection_traces(&self, f: FaultId, t: TestId) -> Vec<RunTrace> {
        (0..self.spec.reps)
            .map(|rep| self.trace(t, Some(f), rep))
            .collect()
    }

    /// One deterministic run trace.
    fn trace(&self, t: TestId, injected: Option<FaultId>, rep: usize) -> RunTrace {
        let seed = self.spec.seed;
        let (tw, rw) = (t.0 as u64, rep as u64);
        let fw = injected.map(|f| f.0 as u64 + 1).unwrap_or(0);
        let mut trace = RunTrace::default();
        for p in self.registry.points() {
            let pw = p.id.0 as u64;
            if p.kind == FaultKind::LoopPoint {
                // Reached in ~60% of (test, loop) pairs; counts are stable
                // across runs up to small jitter; a hash-selected ~8% of
                // (fault, test, loop) triples triple their counts under
                // injection.
                if mix(&[seed, 1, tw, pw]) % 100 >= 60 {
                    continue;
                }
                let base = 40 + mix(&[seed, 2, tw, pw]) % 40;
                let jitter = mix(&[seed, 3, tw, pw, rw]) % 5;
                let boosted = fw != 0 && mix(&[seed, 4, fw, tw, pw]) % 100 < 8;
                let count = if boosted {
                    (base + jitter) * 3
                } else {
                    base + jitter
                };
                trace.loop_counts.insert(p.id, count);
                let mut st = LoopState::default();
                st.entry_stacks
                    .insert([Some(FnId((pw * 3 % 1000) as u32)), None]);
                st.iter_sigs.insert(pw * 10);
                st.iter_sigs.insert(pw * 10 + mix(&[seed, 5, tw, pw]) % 2);
                trace.loop_states.insert(p.id, st);
                trace.coverage.insert(p.id);
                continue;
            }
            // Natural profile occurrence for ~3% of (test, point) pairs,
            // flaking out of ~10% of runs; injected faults trigger an
            // additional ~0.8% of points consistently across runs. Half
            // the faults (even `fw` keys, i.e. odd fault ids — `fw` is
            // the id plus one) interfere identically in every test (the
            // paper's "causally equivalent" stable majority — what
            // phase-one clustering groups); the other half's effects are
            // conditional on the workload.
            let natural =
                mix(&[seed, 6, tw, pw]) % 1000 < 30 && mix(&[seed, 7, tw, pw, rw]) % 100 < 90;
            let effect_key = if fw.is_multiple_of(2) {
                mix(&[seed, 8, fw, pw])
            } else {
                mix(&[seed, 8, fw, tw, pw])
            };
            let caused = fw != 0 && Some(p.id) != injected && effect_key % 1000 < 8;
            if natural || caused {
                let variant = mix(&[seed, 9, tw, pw, rw]) % 2;
                trace
                    .occurrences
                    .entry(p.id)
                    .or_default()
                    .push(Occurrence::new(
                        [Some(FnId((pw * 4 + variant) as u32)), None],
                        vec![],
                    ));
                trace.coverage.insert(p.id);
            }
        }
        if let Some(f) = injected {
            let occ = Occurrence::new([Some(FnId(f.0 * 4)), None], vec![]);
            if self.registry.point(f).kind != FaultKind::LoopPoint {
                trace.occurrences.entry(f).or_default().push(occ.clone());
            }
            trace.injected = Some((f, occ));
            trace.coverage.insert(f);
        }
        trace
    }
}

/// Deterministic interference-vector corpus at arbitrary scale, shaped
/// like a real campaign's §5.2 input: a pool of `max(64, n/32)` distinct
/// interference "templates" over `max(256, n/8)` dimensions, most vectors
/// exact template copies (the duplicate mass sparse clustering
/// pre-groups), ~25% near-duplicates (one mutated dimension — the
/// sub-threshold merges), and ~2% empty interference lists (zero
/// vectors). Vectors go through [`IdfVectorizer`] so weights, norms and
/// stop-word suppression match the campaign pipeline bit-for-bit.
pub fn synthetic_vectors(n: usize, seed: u64) -> Vec<SparseVec> {
    let pool = (n / 8).max(256) as u64;
    let templates = (n / 32).max(64) as u64;
    let mut docs: Vec<BTreeSet<FaultId>> = Vec::with_capacity(n);
    for i in 0..n as u64 {
        if mix(&[seed, 20, i]).is_multiple_of(50) {
            docs.push(BTreeSet::new());
            continue;
        }
        let t = mix(&[seed, 21, i]) % templates;
        let k = 2 + mix(&[seed, 22, t]) % 5;
        let mut doc: BTreeSet<FaultId> = (0..k)
            .map(|j| FaultId((mix(&[seed, 23, t, j]) % pool) as u32))
            .collect();
        if mix(&[seed, 24, i]).is_multiple_of(4) {
            doc.insert(FaultId((mix(&[seed, 25, i]) % pool) as u32));
        }
        docs.push(doc);
    }
    let idf = IdfVectorizer::fit(&docs);
    docs.iter().map(|d| idf.vectorize(d)).collect()
}

/// A corpus with one near-ubiquitous dimension: present in ~90% of docs
/// (a huge posting list, absent often enough that IDF keeps its weight
/// nonzero), plus one rare dimension per doc from a pool of
/// `max(8, n/2)`. The shared dimension alone makes sparse clustering's
/// candidate graph quadratic in the ~0.9·n groups that carry it, while
/// the sub-threshold merges come from rare-dimension collisions.
pub fn hot_dimension_vectors(n: usize, seed: u64) -> Vec<SparseVec> {
    let rare_pool = (n as u64 / 2).max(8);
    let mut docs: Vec<BTreeSet<FaultId>> = Vec::with_capacity(n);
    for i in 0..n as u64 {
        let mut doc = BTreeSet::new();
        if !mix(&[seed, 30, i]).is_multiple_of(10) {
            doc.insert(FaultId(0));
        }
        doc.insert(FaultId(1 + (mix(&[seed, 31, i]) % rare_pool) as u32));
        docs.push(doc);
    }
    let idf = IdfVectorizer::fit(&docs);
    docs.iter().map(|d| idf.vectorize(d)).collect()
}

/// Smallest stride ≥ `from` coprime to `n`, for the fault spread.
fn pick_coprime_stride(n: u32, from: u32) -> u32 {
    fn gcd(mut a: u32, mut b: u32) -> u32 {
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    }
    (from..).find(|&s| gcd(s, n.max(1)) == 1).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = CampaignSpec::smoke();
        let c1 = SyntheticCampaign::generate(&spec);
        let c2 = SyntheticCampaign::generate(&spec);
        assert_eq!(c1.faults(), c2.faults());
        let f = c1.faults()[0];
        let t = TestId(0);
        let a = c1.injection_traces(f, t);
        let b = c2.injection_traces(f, t);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.occurrences, y.occurrences);
            assert_eq!(x.loop_counts, y.loop_counts);
            assert_eq!(x.injected, y.injected);
        }
    }

    #[test]
    fn fault_spread_covers_all_kinds_without_duplicates() {
        // Table 2 scale: point counts in the thousands.
        let c = SyntheticCampaign::generate(&CampaignSpec {
            n_throws: 1100,
            n_negations: 380,
            n_loops: 120,
            n_faults: 200,
            n_tests: 10,
            reps: 5,
            seed: 0xCA5C_ADE5,
        });
        let mut kinds = std::collections::BTreeSet::new();
        let mut seen = std::collections::BTreeSet::new();
        for &f in c.faults() {
            assert!(seen.insert(f), "duplicate fault {f}");
            kinds.insert(format!("{:?}", c.registry().point(f).kind));
        }
        assert!(kinds.len() >= 3, "kinds: {kinds:?}");
        assert_eq!(c.faults().len(), 200);
    }

    #[test]
    fn synthetic_vectors_have_the_advertised_shape() {
        let v = synthetic_vectors(2000, 7);
        assert_eq!(v.len(), 2000);
        let zeros = v.iter().filter(|x| x.is_zero()).count();
        assert!(zeros > 0, "some empty interference lists");
        assert!(zeros < 200, "zeros stay a small share: {zeros}");
        // Exact duplicates are common (template copies survive IDF).
        let distinct: std::collections::BTreeSet<Vec<(u32, u64)>> = v
            .iter()
            .map(|x| {
                x.components()
                    .iter()
                    .map(|(f, w)| (f.0, w.to_bits()))
                    .collect()
            })
            .collect();
        assert!(
            distinct.len() < v.len() / 2,
            "duplicate mass expected: {} distinct of {}",
            distinct.len(),
            v.len()
        );
        // Deterministic.
        assert_eq!(v, synthetic_vectors(2000, 7));
        assert_ne!(v, synthetic_vectors(2000, 8));
    }

    #[test]
    fn injections_fire_and_interfere() {
        let c = SyntheticCampaign::generate(&CampaignSpec::smoke());
        let t = TestId(0);
        let mut any_edges = 0;
        for &f in c.faults() {
            let traces = c.injection_traces(f, t);
            assert!(traces.iter().all(|tr| tr.injected.is_some()));
            let profile = c.profile_traces(t);
            let out = csnake_core::analyze_experiment(
                c.registry(),
                &profile,
                &traces,
                c.plan_for(f),
                t,
                1,
                &csnake_core::FcaConfig::default(),
            );
            any_edges += out.edges.len();
        }
        assert!(any_edges > 0, "campaign produced no causal edges at all");
    }
}
