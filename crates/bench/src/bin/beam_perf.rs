//! Beam-search performance trajectory: writes `BENCH_beam.json` at the
//! repository root with median wall-times per pipeline stage (database
//! dedup/push, stitch-index build — grouped/shared-table vs the retained
//! per-edge reference build, indexed search, reference search where
//! affordable), so successive PRs can track the hot path.
//!
//! Every case asserts that the grouped build's search output is identical
//! to the per-edge reference build's and that the search returns the same
//! cycles at `threads = 1` as at the configured thread count (one
//! expansion range against the pooled merge), and records the index's
//! `CompatStats` (edge-group and state-pair dedup, stored vs avoided
//! successor entries) and the search's per-level `LevelStats` (generated
//! vs kept candidates and cycles) in the artifact. The last case is the
//! campaign-shaped one: every relationship observed in five tests, so
//! the in-expansion dedup has duplicates to drop.
//!
//! Run with `cargo run --release -p csnake-bench --bin beam_perf`; set
//! `CSNAKE_PERF_SMOKE=1` to run the reduced CI set (the smallest case,
//! the n=10k case and the multi-test case, fewer samples).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use csnake_bench::{multi_test_db, synthetic_db, watchdog, MULTI_TEST_STEPS};
use csnake_core::beam::{beam_search_reference, BeamConfig};
use csnake_core::{CausalDb, StitchIndex};

const SAMPLES: usize = 15;

/// Median of per-call wall-times over `samples` runs, in nanoseconds.
fn median_ns<R>(samples: usize, mut f: impl FnMut() -> R) -> u128 {
    let mut times: Vec<u128> = (0..samples.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

struct Case {
    n_faults: u32,
    fanout: u32,
    loop_share: f64,
    /// 1: `synthetic_db`; more: `multi_test_db` with that many witnesses
    /// per relationship.
    tests_per_relationship: u32,
    with_reference: bool,
    samples: usize,
}

fn beam_cfg() -> BeamConfig {
    BeamConfig {
        beam_size: 10_000,
        max_len: 4,
        ..BeamConfig::default()
    }
}

fn main() {
    let smoke = std::env::var_os("CSNAKE_PERF_SMOKE").is_some();
    let base_samples = if smoke { 3 } else { SAMPLES };
    let mut cases = vec![
        Case {
            n_faults: 120,
            fanout: 3,
            loop_share: 0.0,
            tests_per_relationship: 1,
            with_reference: true,
            samples: base_samples,
        },
        Case {
            n_faults: 500,
            fanout: 6,
            loop_share: 0.3,
            tests_per_relationship: 1,
            with_reference: false,
            samples: base_samples,
        },
        Case {
            n_faults: 1000,
            fanout: 6,
            loop_share: 0.3,
            tests_per_relationship: 1,
            with_reference: false,
            samples: base_samples,
        },
        // The large-n case: high fanout over a fault set past 10k, where
        // shared effect states make the per-worker-cache build re-decide
        // the same state pairs once per worker.
        Case {
            n_faults: 10_000,
            fanout: 6,
            loop_share: 0.3,
            tests_per_relationship: 1,
            with_reference: false,
            samples: if smoke { 1 } else { 3 },
        },
        // The campaign-shaped case: 5 000 edges that are 1 000
        // relationships, thousands of cycles.
        Case {
            n_faults: 200,
            fanout: MULTI_TEST_STEPS.len() as u32,
            loop_share: 0.0,
            tests_per_relationship: 5,
            with_reference: false,
            samples: base_samples,
        },
    ];
    if smoke {
        // Keep the reference-checked small case, the n≥10k case and the
        // multi-test case.
        cases.remove(2);
        cases.remove(1);
    }

    let cfg = beam_cfg();
    let mut body = String::new();
    writeln!(body, "{{").unwrap();
    writeln!(body, "  \"generated_by\": \"beam_perf\",").unwrap();
    writeln!(body, "  \"samples_per_stage\": {SAMPLES},").unwrap();
    writeln!(
        body,
        "  \"beam_config\": {{\"beam_size\": {}, \"max_len\": {}, \"threads\": {}}},",
        cfg.beam_size, cfg.max_len, cfg.threads
    )
    .unwrap();
    writeln!(body, "  \"cases\": [").unwrap();

    for (i, case) in cases.iter().enumerate() {
        let db = match case.tests_per_relationship {
            1 => synthetic_db(case.n_faults, case.fanout, case.loop_share),
            k => multi_test_db(case.n_faults, k),
        };
        eprintln!(
            "case n={} fanout={} loop_share={} tests/relationship={} ({} edges)",
            case.n_faults,
            case.fanout,
            case.loop_share,
            case.tests_per_relationship,
            db.len()
        );
        let samples = case.samples;

        // Stage 1: database construction (hash-set dedup + per-cause
        // index). Inputs are cloned outside the timed region so the metric
        // tracks CausalDb::push, not CompatState deep copies.
        let wd = watchdog::guard(&format!("beam:n={}:dedup", case.n_faults));
        let mut inputs: Vec<Vec<_>> = (0..samples).map(|_| db.edges().to_vec()).collect();
        let dedup_ns = median_ns(samples, || {
            CausalDb::from_edges(inputs.pop().unwrap_or_default()).len()
        });
        drop(wd);

        // Stage 2: stitch-index compilation — the grouped build with the
        // shared pair-verdict table, against the retained per-edge
        // per-worker-cache build on identical inputs.
        let wd = watchdog::guard(&format!("beam:n={}:index", case.n_faults));
        let index_ns = median_ns(samples, || StitchIndex::build(&db, cfg.threads).len());
        let index_ref_ns = median_ns(samples, || {
            StitchIndex::build_reference(&db, cfg.threads).len()
        });
        drop(wd);

        // Stage 3: the indexed beam search on a prebuilt index. The
        // per-edge-built index must produce byte-identical output.
        let wd = watchdog::guard(&format!("beam:n={}:search", case.n_faults));
        let index = StitchIndex::build(&db, cfg.threads);
        let search_ns = median_ns(samples, || index.search(&|_| 0.5, &cfg).len());
        let (cycles_found, levels) = index.search_with_stats(&|_| 0.5, &cfg);
        let reference_index = StitchIndex::build_reference(&db, cfg.threads);
        assert_eq!(
            cycles_found,
            reference_index.search(&|_| 0.5, &cfg),
            "grouped build diverged from per-edge reference build at n={}",
            case.n_faults
        );
        assert_eq!(
            cycles_found,
            index.search(
                &|_| 0.5,
                &BeamConfig {
                    threads: 1,
                    ..cfg.clone()
                }
            ),
            "pooled search diverged from the one-range search at n={}",
            case.n_faults
        );
        let cycles = cycles_found.len();
        let stats = index.compat_stats();
        eprintln!(
            "  build: grouped {:.2} ms vs per-edge {:.2} ms ({} edges → {} groups, {} state pairs; search output identical)",
            index_ns as f64 / 1e6,
            index_ref_ns as f64 / 1e6,
            stats.edges,
            stats.edge_groups,
            stats.distinct_state_pairs,
        );

        // Reference implementation, where it finishes in sensible time.
        drop(wd);
        let wd = watchdog::guard(&format!("beam:n={}:reference", case.n_faults));
        let reference_ns = case
            .with_reference
            .then(|| median_ns(samples, || beam_search_reference(&db, &|_| 0.5, &cfg).len()));
        drop(wd);

        writeln!(body, "    {{").unwrap();
        writeln!(body, "      \"n_faults\": {},", case.n_faults).unwrap();
        writeln!(body, "      \"fanout\": {},", case.fanout).unwrap();
        writeln!(body, "      \"loop_share\": {},", case.loop_share).unwrap();
        writeln!(
            body,
            "      \"tests_per_relationship\": {},",
            case.tests_per_relationship
        )
        .unwrap();
        writeln!(body, "      \"edges\": {},", db.len()).unwrap();
        writeln!(body, "      \"cycles_found\": {cycles},").unwrap();
        writeln!(body, "      \"compat\": {{").unwrap();
        writeln!(body, "        \"edge_groups\": {},", stats.edge_groups).unwrap();
        writeln!(
            body,
            "        \"distinct_state_pairs\": {},",
            stats.distinct_state_pairs
        )
        .unwrap();
        writeln!(
            body,
            "        \"group_succ_entries\": {},",
            stats.group_succ_entries
        )
        .unwrap();
        writeln!(
            body,
            "        \"edge_succ_entries\": {},",
            stats.edge_succ_entries
        )
        .unwrap();
        writeln!(
            body,
            "        \"group_table_bytes\": {},",
            stats.group_table_bytes()
        )
        .unwrap();
        writeln!(
            body,
            "        \"edge_table_bytes\": {},",
            stats.edge_table_bytes()
        )
        .unwrap();
        writeln!(
            body,
            "        \"search_output\": \"identical_to_per_edge_build\""
        )
        .unwrap();
        writeln!(body, "      }},").unwrap();
        writeln!(body, "      \"levels\": [").unwrap();
        for (l, s) in levels.iter().enumerate() {
            let comma = if l + 1 < levels.len() { "," } else { "" };
            writeln!(
                body,
                "        {{\"frontier\": {}, \"candidates_generated\": {}, \"candidates_kept\": {}, \"cycles_raw\": {}, \"cycles_kept\": {}}}{comma}",
                s.frontier, s.candidates_generated, s.candidates_kept, s.cycles_raw, s.cycles_kept
            )
            .unwrap();
        }
        writeln!(body, "      ],").unwrap();
        writeln!(body, "      \"stages_ns\": {{").unwrap();
        writeln!(body, "        \"db_push_dedup\": {dedup_ns},").unwrap();
        writeln!(body, "        \"index_build\": {index_ns},").unwrap();
        writeln!(body, "        \"index_build_per_edge\": {index_ref_ns},").unwrap();
        match reference_ns {
            Some(r) => {
                writeln!(body, "        \"search\": {search_ns},").unwrap();
                writeln!(body, "        \"reference_search\": {r}").unwrap();
            }
            None => writeln!(body, "        \"search\": {search_ns}").unwrap(),
        }
        writeln!(body, "      }},").unwrap();
        let total = index_ns + search_ns;
        match reference_ns {
            Some(r) => {
                let speedup = r as f64 / total.max(1) as f64;
                writeln!(
                    body,
                    "      \"speedup_vs_reference_incl_build\": {speedup:.2}"
                )
                .unwrap();
                eprintln!(
                    "  index {:.2} ms + search {:.2} ms vs reference {:.2} ms → {:.1}×",
                    index_ns as f64 / 1e6,
                    search_ns as f64 / 1e6,
                    r as f64 / 1e6,
                    speedup
                );
            }
            None => {
                writeln!(body, "      \"speedup_vs_reference_incl_build\": null").unwrap();
                eprintln!(
                    "  index {:.2} ms + search {:.2} ms",
                    index_ns as f64 / 1e6,
                    search_ns as f64 / 1e6
                );
            }
        }
        let comma = if i + 1 < cases.len() { "," } else { "" };
        writeln!(body, "    }}{comma}").unwrap();
    }
    writeln!(body, "  ]").unwrap();
    writeln!(body, "}}").unwrap();

    // crates/bench → workspace root. Smoke runs write to a separate file
    // so reproducing the CI step locally never clobbers the committed
    // full-scale trajectory artifact.
    let name = if smoke {
        "BENCH_beam.smoke.json"
    } else {
        "BENCH_beam.json"
    };
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::write(&out, body).expect("write beam bench json");
    eprintln!("wrote {}", out.display());
}
