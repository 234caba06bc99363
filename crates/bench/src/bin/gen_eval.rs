//! Corpus evaluation over generated scenarios: writes `BENCH_gen.json`
//! at the repository root with per-shape recall of the planted cycles
//! and per-stage wall-time medians, so successive PRs can track whole-
//! pipeline detection quality on an unbounded, ground-truthed test bed
//! (the hot paths' timings live in the `benchmark/` ledger).
//!
//! For every seed in the range the harness:
//!
//! 1. expands the seed into a spec (`csnake_gen::generate`, shape family
//!    cycling with the seed), **prints it through the canonical
//!    pretty-printer and reparses the text** — the evaluated target is
//!    always the round-tripped spec, so the text form stays load-bearing;
//! 2. drives the staged `Session` pipeline (profile → 3PA allocate →
//!    stitch → report) with a [`FlightRecorder`] attached — stage wall
//!    times and experiment-latency percentiles come from the recorder's
//!    span journal, not ad-hoc timers;
//! 3. scores the report against the ground truth carried in the spec's
//!    `bug … shape <family>` sidecars — recall = planted bugs matched,
//!    decoys flagged = false-positive clusters;
//! 4. re-runs a random-allocation baseline **on the same profiled
//!    driver** (`Session::engine_mut`): with `cache_injections` on, every
//!    `(fault, test)` combination 3PA already exercised reuses the
//!    recorded injection runs and their `TraceIndex`, and the cache
//!    hit-rate is reported alongside the baseline's recall.
//!
//! Run with `cargo run --release -p csnake-bench --bin gen_eval`
//! (`--count N --seed-start S` to override the range, `--progress` for a
//! live collector view on stderr); set
//! `CSNAKE_GEN_SMOKE=1` for the CI-sized batch, which writes
//! `BENCH_gen.smoke.json` so local runs never clobber the committed
//! artifact. The full run fails (exit 1) if recall for any of the
//! queue/retry/timer families drops below 90%.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use csnake_core::{
    beam_search, build_report, cluster_cycles, AllocationStrategy, CampaignObserver, DetectConfig,
    FanoutObserver, NoopObserver, ProgressCollector, RandomAllocation, RecoveryContext, Session,
    ThreePhase,
};
use csnake_gen::{generate, GenConfig, Shape};
use csnake_scenario::{compile, parse_str, print};
use csnake_telemetry::{
    experiment_latency_samples, FlightRecorder, LatencyHistogram, LiveProgress, MetricsDigest,
};

/// Recall floor enforced (full runs) for the families the acceptance
/// criteria pin.
const ENFORCED_FAMILIES: [Shape; 3] = [Shape::Queue, Shape::Retry, Shape::Timer];
const RECALL_FLOOR: f64 = 0.9;

#[derive(Default, Clone, Copy)]
struct FamilyScore {
    planted: usize,
    detected: usize,
}

impl FamilyScore {
    fn recall(&self) -> f64 {
        if self.planted == 0 {
            1.0
        } else {
            self.detected as f64 / self.planted as f64
        }
    }
}

fn median(mut xs: Vec<u128>) -> u128 {
    if xs.is_empty() {
        return 0;
    }
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// The reduced-but-proven campaign configuration the corpus smoke runs
/// use, plus the injection-run cache for the baseline comparison.
fn eval_config() -> DetectConfig {
    let mut cfg = DetectConfig::default();
    cfg.driver.reps = 3;
    cfg.driver.delay_values_ms = vec![800];
    cfg.driver.cache_injections = true;
    cfg
}

fn main() -> ExitCode {
    let smoke = std::env::var_os("CSNAKE_GEN_SMOKE").is_some();
    let mut count: u64 = if smoke { 8 } else { 60 };
    let mut seed_start: u64 = 0;
    let mut live = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--progress" => live = true,
            "--count" => {
                i += 1;
                count = args
                    .get(i)
                    .expect("--count needs a number")
                    .parse()
                    .unwrap();
            }
            "--seed-start" => {
                i += 1;
                seed_start = args
                    .get(i)
                    .expect("--seed-start needs a number")
                    .parse()
                    .unwrap();
            }
            other => {
                eprintln!("unknown argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let gen_cfg = GenConfig::default();
    let mut scores: BTreeMap<&'static str, FamilyScore> = BTreeMap::new();
    let mut missed: Vec<(u64, String)> = Vec::new();
    let mut profile_ns = Vec::new();
    let mut allocate_ns = Vec::new();
    let mut stitch_ns = Vec::new();
    let mut report_ns = Vec::new();
    let mut latency_samples: Vec<u64> = Vec::new();
    let mut fp_clusters = 0usize;
    let mut expected_contention = 0usize;
    let mut clusters_total = 0usize;
    let mut experiments_total = 0usize;
    let mut campaign_misses = 0usize;
    let mut cache_hits = 0usize;
    let mut cache_misses = 0usize;
    let mut random_planted = 0usize;
    let mut random_detected = 0usize;
    let mut clustering_peak_vectors = 0usize;
    let mut clustering_peak_matrix_bytes = 0u64;
    let mut clustering_peak_sparse_bytes = 0u64;

    let t_all = Instant::now();
    for seed in seed_start..seed_start + count {
        let g = generate(seed, &gen_cfg);
        // The text form is the product under test: evaluate the reparse
        // of the canonical print, never the in-memory AST.
        let text = print(&g.spec);
        let spec = match parse_str(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("gen:{seed}: generated spec does not reparse: {e}");
                return ExitCode::FAILURE;
            }
        };
        assert_eq!(spec, g.spec, "gen:{seed}: round-trip changed the spec");
        let system = match compile(&spec) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("gen:{seed}: generated spec does not compile: {e}");
                return ExitCode::FAILURE;
            }
        };

        let cfg = eval_config();
        let strategy = ThreePhase::new(cfg.alloc.clone());
        let progress = Arc::new(ProgressCollector::new());
        // The flight recorder is the timing source: stage walls come from
        // its span durations, latency percentiles from inter-completion
        // gaps — the same numbers an operator sees in a journal digest.
        let recorder = Arc::new(
            FlightRecorder::builder()
                .build()
                .expect("in-memory recorder"),
        );
        let fanout = Arc::new(FanoutObserver::new(vec![
            progress.clone() as Arc<dyn CampaignObserver>,
            recorder.clone() as Arc<dyn CampaignObserver>,
        ]));
        let view = live
            .then(|| LiveProgress::start(progress.clone(), std::time::Duration::from_millis(500)));
        let mut session = Session::builder(&system)
            .config(cfg.clone())
            .observer(fanout)
            .build()
            .expect("generated targets are drivable");
        session.profile().expect("profile stage");
        session.allocate(&strategy).expect("allocate stage");
        session.stitch().expect("stitch stage");
        let report = session.report().expect("report stage").clone();
        drop(view);

        let records = recorder.records();
        let digest = MetricsDigest::from_records(&records);
        let stage_micros = |name: &str| -> u128 {
            digest
                .stage_wall_micros
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, us)| *us as u128)
                .unwrap_or(0)
        };
        profile_ns.push(stage_micros("profiled") * 1_000);
        allocate_ns.push(stage_micros("allocated") * 1_000);
        stitch_ns.push(stage_micros("stitched") * 1_000);
        report_ns.push(stage_micros("reported") * 1_000);
        latency_samples.extend(experiment_latency_samples(&records));

        // Peak clustering working set across the corpus, from the size
        // counters the allocate stage emitted through the observer.
        let snap = progress.snapshot();
        clustering_peak_vectors = clustering_peak_vectors.max(snap.clustering_peak_vectors);
        clustering_peak_matrix_bytes =
            clustering_peak_matrix_bytes.max(snap.clustering_peak_matrix_bytes);
        clustering_peak_sparse_bytes =
            clustering_peak_sparse_bytes.max(snap.clustering_peak_sparse_bytes);

        // Ground truth comes from the reparsed spec's sidecars.
        let truth = csnake_gen::planted_truth(&spec);
        assert!(!truth.is_empty(), "gen:{seed}: no ground truth in spec");
        for planted in &truth {
            let entry = scores.entry(planted.shape.family()).or_default();
            entry.planted += 1;
            let found = report.matches.iter().any(|m| m.bug.id == planted.bug_id);
            if found {
                entry.detected += 1;
            } else {
                missed.push((seed, planted.bug_id.clone()));
            }
        }
        fp_clusters += report.fp_clusters() - report.expected_contention_clusters();
        expected_contention += report.expected_contention_clusters();
        clusters_total += report.clusters.len();
        experiments_total += report.experiments_run;

        // Random-allocation baseline over the *same* profiled driver: the
        // injection cache turns every revisited combination into a replay.
        // The cache metric is the *baseline's delta* — the 3PA campaign
        // before it sees only fresh combinations and would pin a
        // cumulative rate near 50%.
        let engine = session.engine_mut().expect("profiled session");
        let (hits_before, misses_before) = engine.trace_cache_stats();
        campaign_misses += misses_before;
        let rand_alloc = RandomAllocation::new(cfg.alloc.clone(), 0x7777 ^ seed).run(
            engine,
            &NoopObserver,
            RecoveryContext::default(),
        );
        let (hits_after, misses_after) = engine.trace_cache_stats();
        let (hits, misses) = (hits_after - hits_before, misses_after - misses_before);
        cache_hits += hits;
        cache_misses += misses;
        let sim_of = |f| rand_alloc.sim_score_of(f);
        let rand_cycles = beam_search(&rand_alloc.db, &sim_of, &cfg.beam);
        let rand_clusters = cluster_cycles(&rand_cycles, &rand_alloc.db, &rand_alloc.cluster_of);
        let rand_report = build_report(&system, &rand_alloc, rand_cycles, rand_clusters);
        for planted in &truth {
            random_planted += 1;
            if rand_report
                .matches
                .iter()
                .any(|m| m.bug.id == planted.bug_id)
            {
                random_detected += 1;
            }
        }

        eprintln!(
            "gen:{seed} [{}] {} — {} experiments, {} edges, baseline cache {hits}h/{misses}m",
            g.shape,
            if report.undetected.is_empty() {
                "detected"
            } else {
                "MISSED"
            },
            report.experiments_run,
            report.edge_count,
        );
    }
    let elapsed = t_all.elapsed();

    let overall_planted: usize = scores.values().map(|s| s.planted).sum();
    let overall_detected: usize = scores.values().map(|s| s.detected).sum();
    let overall_recall = if overall_planted == 0 {
        1.0
    } else {
        overall_detected as f64 / overall_planted as f64
    };
    let cache_total = cache_hits + cache_misses;
    let hit_rate = if cache_total == 0 {
        0.0
    } else {
        cache_hits as f64 / cache_total as f64
    };
    let random_recall = if random_planted == 0 {
        1.0
    } else {
        random_detected as f64 / random_planted as f64
    };

    let mut body = String::new();
    writeln!(body, "{{").unwrap();
    writeln!(body, "  \"generated_by\": \"gen_eval\",").unwrap();
    writeln!(body, "  \"smoke\": {smoke},").unwrap();
    writeln!(body, "  \"seed_start\": {seed_start},").unwrap();
    writeln!(body, "  \"count\": {count},").unwrap();
    // Stamp the configuration actually used, not a transcription of it.
    let stamped = eval_config();
    writeln!(body, "  \"config\": {{").unwrap();
    writeln!(body, "    \"reps\": {},", stamped.driver.reps).unwrap();
    writeln!(
        body,
        "    \"delay_values_ms\": {:?},",
        stamped.driver.delay_values_ms
    )
    .unwrap();
    writeln!(
        body,
        "    \"budget_per_fault\": {},",
        stamped.alloc.budget_per_fault
    )
    .unwrap();
    writeln!(
        body,
        "    \"cache_injections\": {}",
        stamped.driver.cache_injections
    )
    .unwrap();
    writeln!(body, "  }},").unwrap();
    writeln!(body, "  \"recall_by_shape\": {{").unwrap();
    let n_fams = scores.len();
    for (i, (family, s)) in scores.iter().enumerate() {
        writeln!(
            body,
            "    \"{family}\": {{ \"planted\": {}, \"detected\": {}, \"recall\": {:.4} }}{}",
            s.planted,
            s.detected,
            s.recall(),
            if i + 1 < n_fams { "," } else { "" }
        )
        .unwrap();
    }
    writeln!(body, "  }},").unwrap();
    writeln!(
        body,
        "  \"overall\": {{ \"planted\": {overall_planted}, \"detected\": {overall_detected}, \"recall\": {overall_recall:.4} }},"
    )
    .unwrap();
    writeln!(body, "  \"decoys\": {{").unwrap();
    writeln!(body, "    \"clusters_total\": {clusters_total},").unwrap();
    writeln!(body, "    \"false_positive_clusters\": {fp_clusters},").unwrap();
    writeln!(
        body,
        "    \"expected_contention_clusters\": {expected_contention}"
    )
    .unwrap();
    writeln!(body, "  }},").unwrap();
    writeln!(body, "  \"timing_source\": \"flight_recorder\",").unwrap();
    writeln!(body, "  \"stage_medians_ns\": {{").unwrap();
    writeln!(body, "    \"profile\": {},", median(profile_ns)).unwrap();
    writeln!(body, "    \"allocate\": {},", median(allocate_ns)).unwrap();
    writeln!(body, "    \"stitch\": {},", median(stitch_ns)).unwrap();
    writeln!(body, "    \"report\": {}", median(report_ns)).unwrap();
    writeln!(body, "  }},").unwrap();
    let latency = LatencyHistogram::from_samples(latency_samples);
    writeln!(body, "  \"experiment_latency_micros\": {{").unwrap();
    writeln!(body, "    \"samples\": {},", latency.count).unwrap();
    writeln!(body, "    \"p50\": {},", latency.p50_micros).unwrap();
    writeln!(body, "    \"p90\": {},", latency.p90_micros).unwrap();
    writeln!(body, "    \"p99\": {},", latency.p99_micros).unwrap();
    writeln!(body, "    \"max\": {}", latency.max_micros).unwrap();
    writeln!(body, "  }},").unwrap();
    writeln!(body, "  \"experiments_total\": {experiments_total},").unwrap();
    writeln!(body, "  \"random_baseline\": {{").unwrap();
    writeln!(
        body,
        "    \"recall\": {random_recall:.4}, \"planted\": {random_planted}, \"detected\": {random_detected}"
    )
    .unwrap();
    writeln!(body, "  }},").unwrap();
    writeln!(body, "  \"clustering_memory\": {{").unwrap();
    writeln!(body, "    \"peak_vectors\": {clustering_peak_vectors},").unwrap();
    writeln!(
        body,
        "    \"peak_matrix_bytes_avoided\": {clustering_peak_matrix_bytes},"
    )
    .unwrap();
    writeln!(
        body,
        "    \"peak_sparse_graph_bytes\": {clustering_peak_sparse_bytes}"
    )
    .unwrap();
    writeln!(body, "  }},").unwrap();
    writeln!(body, "  \"trace_index_cache\": {{").unwrap();
    writeln!(body, "    \"campaign_misses\": {campaign_misses},").unwrap();
    writeln!(body, "    \"baseline_hits\": {cache_hits},").unwrap();
    writeln!(body, "    \"baseline_misses\": {cache_misses},").unwrap();
    writeln!(body, "    \"baseline_hit_rate\": {hit_rate:.4}").unwrap();
    writeln!(body, "  }},").unwrap();
    writeln!(body, "  \"wall_time_ms\": {}", elapsed.as_millis()).unwrap();
    writeln!(body, "}}").unwrap();

    // crates/bench → workspace root. Smoke runs write to a separate file
    // so reproducing the CI step locally never clobbers the committed
    // full-scale artifact.
    let name = if smoke {
        "BENCH_gen.smoke.json"
    } else {
        "BENCH_gen.json"
    };
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::write(&out, body).expect("write gen bench json");
    eprintln!(
        "wrote {} — overall recall {overall_detected}/{overall_planted}, \
         baseline cache hit rate {:.0}%, random baseline {random_detected}/{random_planted}",
        out.display(),
        hit_rate * 100.0
    );
    if !missed.is_empty() {
        eprintln!("missed planted cycles: {missed:?}");
    }

    if !smoke {
        for family in ENFORCED_FAMILIES {
            let s = scores.get(family.family()).copied().unwrap_or_default();
            if s.planted > 0 && s.recall() < RECALL_FLOOR {
                eprintln!(
                    "recall floor violated: {} = {:.2} < {RECALL_FLOOR}",
                    family.family(),
                    s.recall()
                );
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
