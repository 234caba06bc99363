//! Equivalence of the indexed beam search and the reference implementation.
//!
//! The stitch-index rewrite (`csnake_core::stitch`) must be *observably
//! equivalent* to the retained straightforward search
//! (`beam_search_reference`): same cycles, same edge indices, same
//! bit-identical scores, same order — across random databases, both
//! ablation knobs (`compatibility_check: false`, `max_delay_injections`),
//! thread counts, and aggressive beam pruning.
//!
//! Databases are generated from explicit seeds (SplitMix64), so a failure
//! names the exact seed that reproduces it.

use std::collections::BTreeSet;

use csnake::core::beam::{beam_search, beam_search_reference, BeamConfig, Cycle};
use csnake::core::edge::{CausalDb, CausalEdge, CompatState, EdgeKind};
use csnake::core::StitchIndex;
use csnake::inject::{FaultId, FnId, LoopState, Occurrence, TestId};

/// Deterministic generator so every case reproduces from its seed alone.
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }
}

const KINDS: [EdgeKind; 6] = [
    EdgeKind::ED,
    EdgeKind::SD,
    EdgeKind::EI,
    EdgeKind::SI,
    EdgeKind::Icfg,
    EdgeKind::Cfg,
];

/// A random occurrence-style state: 1–3 occurrences over a small tag pool,
/// so partial signature overlaps (the interesting compatibility cases)
/// are common.
fn occ_state(g: &mut Gen, fault: u64) -> CompatState {
    let n = 1 + g.below(3);
    let occs = (0..n)
        .map(|_| {
            let tag = (fault * 4 + g.below(4)) as u32;
            Occurrence::new([Some(FnId(tag)), None], vec![])
        })
        .collect();
    CompatState::Occurrences(occs)
}

/// A random loop-style state: 1–2 entry stacks and 0–3 iteration sigs from
/// small per-fault pools.
fn loop_state(g: &mut Gen, fault: u64) -> CompatState {
    let mut st = LoopState::default();
    for _ in 0..1 + g.below(2) {
        st.entry_stacks
            .insert([Some(FnId((fault * 3 + g.below(3)) as u32)), None]);
    }
    for _ in 0..g.below(4) {
        st.iter_sigs.insert(fault * 100 + g.below(5));
    }
    CompatState::Loop(st)
}

/// Builds a random database. Each fault is consistently loop- or
/// occurrence-shaped, as in real traces.
fn random_db(seed: u64) -> CausalDb {
    let mut g = Gen::new(seed);
    let n_faults = 3 + g.below(9);
    let is_loop: Vec<bool> = (0..n_faults).map(|_| g.below(3) == 0).collect();
    let n_edges = 1 + g.below(60);
    let mut edges = Vec::new();
    for _ in 0..n_edges {
        let cause = g.below(n_faults);
        let effect = g.below(n_faults);
        let kind = KINDS[g.below(6) as usize];
        let state_of = |g: &mut Gen, f: u64| {
            if is_loop[f as usize] {
                loop_state(g, f)
            } else {
                occ_state(g, f)
            }
        };
        edges.push(CausalEdge {
            cause: FaultId(cause as u32),
            effect: FaultId(effect as u32),
            kind,
            test: TestId(g.below(3) as u32),
            phase: 1,
            cause_state: state_of(&mut g, cause),
            effect_state: state_of(&mut g, effect),
        });
    }
    CausalDb::from_edges(edges)
}

/// A seed-dependent SimScore map (injection ranking input).
fn sim_fn(seed: u64) -> impl Fn(FaultId) -> f64 + Sync {
    move |f: FaultId| ((f.0 as u64).wrapping_mul(2654435761).wrapping_add(seed) % 97) as f64 / 97.0
}

fn assert_identical(seed: u64, label: &str, fast: &[Cycle], reference: &[Cycle]) {
    assert_eq!(
        fast.len(),
        reference.len(),
        "seed {seed} [{label}]: cycle count {} vs {}",
        fast.len(),
        reference.len()
    );
    for (i, (f, r)) in fast.iter().zip(reference).enumerate() {
        assert_eq!(
            f.edges, r.edges,
            "seed {seed} [{label}]: cycle {i} edge indices differ"
        );
        assert_eq!(
            f.score.to_bits(),
            r.score.to_bits(),
            "seed {seed} [{label}]: cycle {i} score bits differ ({} vs {})",
            f.score,
            r.score
        );
    }
}

fn check_seed(seed: u64) {
    let db = random_db(seed);
    let sim = sim_fn(seed);
    let mut g = Gen::new(seed ^ 0xbeef);
    let base = BeamConfig {
        beam_size: [1, 3, 10, 10_000][g.below(4) as usize],
        max_len: 2 + g.below(4) as usize,
        max_delay_injections: None,
        threads: 1 + g.below(4) as usize,
        compatibility_check: true,
    };

    // Base config, plus both §8 ablation knobs.
    let mut configs = vec![("base", base.clone())];
    configs.push((
        "no-compat",
        BeamConfig {
            compatibility_check: false,
            ..base.clone()
        },
    ));
    configs.push((
        "delay-cap",
        BeamConfig {
            max_delay_injections: Some(g.below(3) as usize),
            ..base.clone()
        },
    ));

    // One index serves every config (both successor tables are prebuilt).
    let index = StitchIndex::build(&db, base.threads);
    for (label, cfg) in &configs {
        let fast = beam_search(&db, &sim, cfg);
        let reference = beam_search_reference(&db, &sim, cfg);
        assert_identical(seed, label, &fast, &reference);
        let indexed = index.search(&sim, cfg);
        assert_identical(seed, &format!("{label}/prebuilt"), &indexed, &reference);
    }
}

#[test]
fn indexed_search_matches_reference_on_random_dbs() {
    // ≥ 200 random databases, 3 configs each (base + both ablations), each
    // checked through both the convenience entry point and a prebuilt index.
    for seed in 0..250u64 {
        check_seed(seed);
    }
}

#[test]
fn equivalence_holds_under_heavy_beam_pruning() {
    // Tiny beams exercise the select_nth + stable-order path hard: the
    // boundary between kept and dropped chains moves every level.
    for seed in 0..64u64 {
        let db = random_db(seed.wrapping_mul(7919).wrapping_add(13));
        let sim = sim_fn(seed);
        for beam_size in [1usize, 2, 5] {
            let cfg = BeamConfig {
                beam_size,
                max_len: 5,
                max_delay_injections: None,
                threads: 2,
                compatibility_check: true,
            };
            let fast = beam_search(&db, &sim, &cfg);
            let reference = beam_search_reference(&db, &sim, &cfg);
            assert_identical(seed, &format!("beam={beam_size}"), &fast, &reference);
        }
    }
}

#[test]
fn equivalence_is_thread_count_invariant() {
    // The pooled parallel expansion must reassemble results in chunk order;
    // any ordering leak shows up as a diff between thread counts.
    for seed in [3u64, 17, 41, 99] {
        let db = random_db(seed);
        let sim = sim_fn(seed);
        let single = beam_search(
            &db,
            &sim,
            &BeamConfig {
                threads: 1,
                ..BeamConfig::default()
            },
        );
        for threads in [2usize, 4, 8] {
            let multi = beam_search(
                &db,
                &sim,
                &BeamConfig {
                    threads,
                    ..BeamConfig::default()
                },
            );
            assert_identical(seed, &format!("threads={threads}"), &multi, &single);
        }
    }
}

#[test]
fn reported_cycles_are_well_formed() {
    // Structural invariants on the indexed search's output (mirrors the
    // long-standing property test, but through the new path): closure,
    // connectivity, bounded length, no duplicate structural keys.
    for seed in 0..64u64 {
        let db = random_db(seed.wrapping_add(10_000));
        let cfg = BeamConfig::default();
        let cycles = beam_search(&db, &|_| 0.5, &cfg);
        let mut seen: BTreeSet<Vec<(FaultId, FaultId, u8)>> = BTreeSet::new();
        for c in &cycles {
            assert!(!c.edges.is_empty() && c.edges.len() <= cfg.max_len);
            for w in c.edges.windows(2) {
                assert_eq!(db.edge(w[0]).effect, db.edge(w[1]).cause, "seed {seed}");
            }
            let first = db.edge(c.edges[0]);
            let last = db.edge(*c.edges.last().unwrap());
            assert_eq!(last.effect, first.cause, "seed {seed}: not closed");
            let mut key: Vec<(FaultId, FaultId, u8)> = c
                .edges
                .iter()
                .map(|&i| {
                    let e = db.edge(i);
                    (e.cause, e.effect, e.kind as u8)
                })
                .collect();
            key.sort_unstable();
            assert!(seen.insert(key), "seed {seed}: structural duplicate");
        }
    }
}

/// A database where every relationship is observed in several tests, as in
/// a real campaign: `n_faults · rels_per_fault` relationships, each
/// witnessed by `tests` edges whose states are drawn independently — so
/// structurally equal chains abound, and which witness survives the dedup
/// decides what the next level can reach.
fn multi_test_db(seed: u64, n_faults: u64, rels_per_fault: u64, tests: u32) -> CausalDb {
    let mut g = Gen::new(seed);
    let mut edges = Vec::new();
    for cause in 0..n_faults {
        for _ in 0..rels_per_fault {
            // Effects stay within three faults of the cause, so chains close
            // often and a wrongly kept or dropped chain shows in the cycles.
            let effect = (cause + n_faults + g.below(7) - 3) % n_faults;
            let kind = KINDS[g.below(4) as usize];
            for t in 0..tests {
                edges.push(CausalEdge {
                    cause: FaultId(cause as u32),
                    effect: FaultId(effect as u32),
                    kind,
                    test: TestId(t),
                    phase: 1,
                    cause_state: occ_state(&mut g, cause),
                    effect_state: occ_state(&mut g, effect),
                });
            }
        }
    }
    CausalDb::from_edges(edges)
}

/// `(seed, beam, levels)` of the duplicate-heavy test at threads 1: per
/// level `[frontier, candidates_generated, candidates_kept, cycles_raw,
/// cycles_kept]`, seeding level first.
type PinnedLevels = (u64, usize, [[usize; 5]; 5]);

const ONE_RANGE_LEVELS: [PinnedLevels; 6] = [
    (
        1,
        1,
        [
            [0, 2322, 2322, 210, 113],
            [2322, 26718, 1, 2460, 424],
            [1, 10, 1, 3, 2],
            [1, 11, 1, 1, 1],
            [1, 0, 0, 1, 1],
        ],
    ),
    (
        1,
        7,
        [
            [0, 2322, 2322, 210, 113],
            [2322, 26718, 7, 2460, 424],
            [7, 72, 12, 10, 6],
            [7, 78, 10, 2, 2],
            [7, 0, 0, 2, 2],
        ],
    ),
    (
        1,
        64,
        [
            [0, 2322, 2322, 210, 113],
            [2322, 26718, 83, 2460, 424],
            [64, 751, 64, 70, 36],
            [64, 783, 76, 61, 37],
            [64, 0, 0, 62, 38],
        ],
    ),
    (
        2,
        1,
        [
            [0, 2371, 2371, 248, 137],
            [2371, 28019, 1, 2503, 460],
            [1, 18, 1, 1, 1],
            [1, 12, 1, 0, 0],
            [1, 0, 0, 3, 2],
        ],
    ),
    (
        2,
        7,
        [
            [0, 2371, 2371, 248, 137],
            [2371, 28019, 7, 2503, 460],
            [7, 76, 7, 10, 7],
            [7, 77, 10, 8, 6],
            [7, 0, 0, 13, 9],
        ],
    ),
    (
        2,
        64,
        [
            [0, 2371, 2371, 248, 137],
            [2371, 28019, 118, 2503, 460],
            [64, 742, 88, 78, 56],
            [64, 762, 88, 59, 42],
            [64, 0, 0, 38, 30],
        ],
    ),
];

#[test]
fn in_expansion_dedup_and_cut_match_reference_on_duplicate_heavy_dbs() {
    // > 2048 seed chains, so the first expansion runs on the worker pool
    // wherever there are cores; each range then sees several hundred
    // distinct candidates and every one of them, at every beam here, cuts
    // itself back to the beam at least once.
    for seed in [1u64, 2] {
        let db = multi_test_db(seed, 120, 8, 3);
        let sim = sim_fn(seed);
        let index = StitchIndex::build(&db, 1);
        for beam_size in [1usize, 7, 64] {
            let cfg = |threads| BeamConfig {
                beam_size,
                max_len: 5,
                max_delay_injections: None,
                threads,
                compatibility_check: true,
            };
            let reference = beam_search_reference(&db, &sim, &cfg(2));
            assert!(!reference.is_empty(), "seed {seed}: nothing to compare");
            for threads in [1usize, 2, 4] {
                let (fast, levels) = index.search_with_stats(&sim, &cfg(threads));
                let label = format!("beam={beam_size} threads={threads}");
                assert_identical(seed, &label, &fast, &reference);
                let rows: Vec<[usize; 5]> = levels
                    .iter()
                    .map(|l| {
                        [
                            l.frontier,
                            l.candidates_generated,
                            l.candidates_kept,
                            l.cycles_raw,
                            l.cycles_kept,
                        ]
                    })
                    .collect();
                let pinned = ONE_RANGE_LEVELS
                    .iter()
                    .find(|p| (p.0, p.1) == (seed, beam_size))
                    .expect("a pinned row per seed and beam")
                    .2;
                // One range at threads 1: every counter is pinned. A pooled
                // level hands the merge what each range kept, so there
                // `candidates_kept` may differ and nothing else may.
                let without_kept = |rows: &[[usize; 5]]| -> Vec<[usize; 5]> {
                    rows.iter()
                        .map(|&[f, g, _, r, c]| [f, g, 0, r, c])
                        .collect()
                };
                if threads == 1 {
                    assert_eq!(rows, pinned, "seed {seed} {label}: level stats");
                } else {
                    assert_eq!(
                        without_kept(&rows),
                        without_kept(&pinned),
                        "seed {seed} {label}: level stats"
                    );
                }
                let first = levels[1];
                assert!(
                    first.frontier > 2048 && first.candidates_generated > first.candidates_kept,
                    "seed {seed} {label}: first expansion too small or duplicate-free: {first:?}"
                );
            }
        }
    }
}

/// Delay injections on a cycle: the count `max_delay_injections` caps.
fn delay_count(db: &CausalDb, edges: &[usize]) -> usize {
    edges
        .iter()
        .filter(|&&i| {
            let kind = db.edge(i).kind;
            kind.is_injection() && kind.cause_is_delay()
        })
        .count()
}

#[test]
fn delay_cap_matches_reference_on_the_cutting_path() {
    // The duplicate-heavy databases above, through the same pooled,
    // range-cutting first expansion, with the delay cap on: a chain's delay
    // count then decides what is generated at all.
    for seed in [1u64, 2] {
        let db = multi_test_db(seed, 120, 8, 3);
        let sim = sim_fn(seed);
        let index = StitchIndex::build(&db, 1);
        for cap in [1usize, 2] {
            // Not vacuous: at some beam the cap removes a cycle the
            // uncapped search reports.
            let mut binds = false;
            for beam_size in [1usize, 7, 64] {
                let cfg = |cap, threads| BeamConfig {
                    beam_size,
                    max_len: 5,
                    max_delay_injections: cap,
                    threads,
                    compatibility_check: true,
                };
                let uncapped = index.search(&sim, &cfg(None, 1));
                binds |= uncapped.iter().any(|c| delay_count(&db, &c.edges) > cap);
                let reference = beam_search_reference(&db, &sim, &cfg(Some(cap), 2));
                assert!(!reference.is_empty(), "seed {seed}: nothing to compare");
                for threads in [1usize, 2, 4] {
                    let (fast, levels) = index.search_with_stats(&sim, &cfg(Some(cap), threads));
                    let label = format!("beam={beam_size} cap={cap} threads={threads}");
                    assert_identical(seed, &label, &fast, &reference);
                    assert!(
                        fast.iter().all(|c| delay_count(&db, &c.edges) <= cap),
                        "seed {seed} {label}: a cycle exceeds the cap"
                    );
                    let first = levels[1];
                    assert!(
                        first.frontier > 2048 && first.candidates_generated > first.candidates_kept,
                        "seed {seed} {label}: first expansion too small or duplicate-free: {first:?}"
                    );
                }
            }
            assert!(binds, "seed {seed} cap={cap}: the cap binds on no cycle");
        }
    }
}

/// Sorted structural triples of a cycle: the key the report dedups on.
fn structural_key(db: &CausalDb, edges: &[usize]) -> Vec<(FaultId, FaultId, u8)> {
    let mut key: Vec<(FaultId, FaultId, u8)> = edges
        .iter()
        .map(|&i| {
            let e = db.edge(i);
            (e.cause, e.effect, e.kind as u8)
        })
        .collect();
    key.sort_unstable();
    key
}

#[test]
fn unbounded_beam_reports_exactly_the_brute_force_cycles() {
    // Ground truth that shares no code with the search: every edge carries
    // one tag per end, "continues" is fault identity plus tag equality, and
    // a plain DFS over edge sequences enumerates every chain of distinct
    // edges that closes on its first edge and on no shorter prefix (the
    // search reports a chain the moment it closes and never extends it).
    // Relationships are distinct, so no structural dedup hides a witness.
    for seed in 0..300u64 {
        let mut g = Gen::new(seed ^ 0x0c1e);
        let n_faults = 2 + g.below(4);
        let mut tags: Vec<(u32, u32)> = Vec::new();
        let mut edges: Vec<CausalEdge> = Vec::new();
        for _ in 0..1 + g.below(12) {
            let (cause, effect) = (g.below(n_faults) as u32, g.below(n_faults) as u32);
            let kind = KINDS[g.below(6) as usize];
            if edges
                .iter()
                .any(|e| (e.cause.0, e.effect.0, e.kind) == (cause, effect, kind))
            {
                continue;
            }
            // Two tags per fault: some hops are incompatible.
            let (cs, es) = (
                cause * 2 + g.below(2) as u32,
                effect * 2 + g.below(2) as u32,
            );
            let state = |tag| {
                CompatState::Occurrences(vec![Occurrence::new([Some(FnId(tag)), None], vec![])])
            };
            tags.push((cs, es));
            edges.push(CausalEdge {
                cause: FaultId(cause),
                effect: FaultId(effect),
                kind,
                test: TestId(0),
                phase: 1,
                cause_state: state(cs),
                effect_state: state(es),
            });
        }
        let db = CausalDb::from_edges(edges);
        let n = db.len();

        for compatibility_check in [true, false] {
            let continues = |i: usize, j: usize| {
                db.edge(i).effect == db.edge(j).cause
                    && (!compatibility_check || tags[i].1 == tags[j].0)
            };
            let mut expected: BTreeSet<Vec<(FaultId, FaultId, u8)>> = BTreeSet::new();
            let mut stack: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
            while let Some(chain) = stack.pop() {
                let last = *chain.last().unwrap();
                if continues(last, chain[0]) {
                    expected.insert(structural_key(&db, &chain));
                    continue;
                }
                for j in (0..n).filter(|&j| !chain.contains(&j) && continues(last, j)) {
                    let mut longer = chain.clone();
                    longer.push(j);
                    stack.push(longer);
                }
            }

            for threads in [1usize, 2] {
                let cfg = BeamConfig {
                    beam_size: usize::MAX,
                    max_len: n,
                    max_delay_injections: None,
                    threads,
                    compatibility_check,
                };
                let cycles = beam_search(&db, &sim_fn(seed), &cfg);
                let reported: BTreeSet<Vec<(FaultId, FaultId, u8)>> = cycles
                    .iter()
                    .map(|c| structural_key(&db, &c.edges))
                    .collect();
                assert_eq!(
                    reported.len(),
                    cycles.len(),
                    "seed {seed}: a structural key was reported twice"
                );
                assert_eq!(
                    reported, expected,
                    "seed {seed} compat={compatibility_check} threads={threads}"
                );
            }
        }
    }
}
