//! Differential smoke over the scenario synthesizer: at least one
//! generated spec per cycle shape is detected end-to-end by the staged
//! `Session` pipeline, always evaluating the *reparse of the canonical
//! print* so the text form stays load-bearing.
//!
//! As of this revision **no shape family is a known gap** — all four
//! (queue, retry, timer, cross) detect across broad seed sweeps
//! (`BENCH_gen.json` records 60/60). If a future generator or pipeline
//! change makes a family undetectable, demote its case here to a
//! `#[ignore]`d known-gap test (with the failing seed pinned) rather
//! than deleting it.

use std::sync::Arc;

use csnake::core::{
    AllocationStrategy, DetectConfig, NoopObserver, ProgressCollector, RandomAllocation,
    RecoveryContext, Session, ThreePhase,
};
use csnake_gen::{generate, GenConfig, Shape};
use csnake_scenario::{compile, parse_str, print, ScenarioSystem};

/// The reduced-but-proven campaign configuration (the corpus smoke
/// settings).
fn cfg(cache: bool) -> DetectConfig {
    let mut cfg = DetectConfig::default();
    cfg.driver.reps = 3;
    cfg.driver.delay_values_ms = vec![800];
    cfg.driver.cache_injections = cache;
    cfg
}

/// Generates seed `seed`, round-trips it through the printer, compiles
/// the reparsed spec.
fn roundtripped_system(seed: u64, gen_cfg: &GenConfig) -> ScenarioSystem {
    let g = generate(seed, gen_cfg);
    let text = print(&g.spec);
    let spec = parse_str(&text).expect("generated specs parse");
    assert_eq!(spec, g.spec, "round-trip changed the spec");
    compile(&spec).expect("generated specs compile")
}

fn assert_detected(seed: u64, shape: Shape) {
    let gen_cfg = GenConfig {
        shape: Some(shape),
        ..GenConfig::default()
    };
    let g = generate(seed, &gen_cfg);
    let system = roundtripped_system(seed, &gen_cfg);
    let cfg = cfg(false);
    let mut session = Session::builder(&system)
        .config(cfg.clone())
        .build()
        .expect("generated targets are drivable");
    let report = session
        .run_to_report(&ThreePhase::new(cfg.alloc.clone()))
        .expect("staged pipeline runs");
    assert!(
        report.undetected.is_empty(),
        "gen:{seed} [{shape}]: planted bugs undetected: {:?}",
        report.undetected.iter().map(|b| b.id).collect::<Vec<_>>()
    );
    for planted in &g.truth {
        assert!(
            report.matches.iter().any(|m| m.bug.id == planted.bug_id),
            "gen:{seed} [{shape}]: {} not matched",
            planted.bug_id
        );
    }
}

#[test]
fn queue_shape_is_detected_end_to_end() {
    assert_detected(0, Shape::Queue);
}

#[test]
fn retry_shape_is_detected_end_to_end() {
    assert_detected(1, Shape::Retry);
}

#[test]
fn timer_shape_is_detected_end_to_end() {
    assert_detected(2, Shape::Timer);
}

#[test]
fn cross_shape_is_detected_end_to_end() {
    assert_detected(3, Shape::Cross);
}

/// Two planted cycles in one spec: both bugs detected by one campaign.
///
/// Multi-cycle specs carry a volume/recovery workload pair *per cycle*,
/// so the `(fault, test)` combination space is `5·|F|` and the default
/// `4·|F|` budget no longer exhausts it — at 4·|F| roughly a third of
/// two-cycle seeds lose one cycle's amplification edge to allocation
/// luck. The paper calls 4·|F| a *minimum* (§5.2); scaling the budget
/// with the workload count (6·|F| here) detects both cycles across
/// seed sweeps.
#[test]
fn two_planted_cycles_are_both_detected() {
    let gen_cfg = GenConfig {
        planted: 2,
        ..GenConfig::default()
    };
    let system = roundtripped_system(9, &gen_cfg);
    let g = generate(9, &gen_cfg);
    assert_eq!(g.truth.len(), 2);
    let mut cfg = cfg(false);
    cfg.alloc.budget_per_fault = 6;
    let mut session = Session::builder(&system)
        .config(cfg.clone())
        .build()
        .unwrap();
    let report = session
        .run_to_report(&ThreePhase::new(cfg.alloc.clone()))
        .expect("staged pipeline runs");
    for planted in &g.truth {
        assert!(
            report.matches.iter().any(|m| m.bug.id == planted.bug_id),
            "gen:9 two-cycle: {} not matched (undetected: {:?})",
            planted.bug_id,
            report.undetected.iter().map(|b| b.id).collect::<Vec<_>>()
        );
    }
}

/// The injection-run cache never changes results: the same generated
/// target produces an identical report with the cache on and off, the
/// first campaign is all misses, and a second (random-baseline) campaign
/// over the same driver replays from cache without new simulator runs.
#[test]
fn injection_cache_is_result_equivalent_and_hits_on_reuse() {
    let gen_cfg = GenConfig {
        shape: Some(Shape::Queue),
        ..GenConfig::default()
    };
    let system = roundtripped_system(4, &gen_cfg);

    let run = |cache: bool| {
        let cfg = cfg(cache);
        let progress = Arc::new(ProgressCollector::new());
        let mut session = Session::builder(&system)
            .config(cfg.clone())
            .observer(progress.clone())
            .build()
            .unwrap();
        session
            .run_to_report(&ThreePhase::new(cfg.alloc.clone()))
            .expect("staged pipeline runs");
        (session, progress)
    };

    let (mut cached, progress) = run(true);
    let (plain, _) = run(false);
    assert_eq!(
        format!("{:?}", cached.detection_report().unwrap()),
        format!("{:?}", plain.detection_report().unwrap()),
        "cache changed the detection report"
    );

    // First campaign: every combination was new.
    let seen = progress.snapshot();
    assert!(seen.cache_misses > 0, "campaign recorded no misses");
    assert_eq!(seen.cache_hits, 0, "first campaign cannot hit");

    // A comparison campaign over the same driver replays from cache.
    let engine = cached.engine_mut().expect("profiled session");
    let runs_before = engine.runs_executed;
    let alloc = RandomAllocation::new(cfg(true).alloc, 0x7777).run(
        engine,
        &NoopObserver,
        RecoveryContext::default(),
    );
    assert!(alloc.experiments_run > 0);
    let (hits, _) = engine.trace_cache_stats();
    assert!(hits > 0, "random baseline never hit the cache");
    assert_eq!(
        engine.runs_executed, runs_before,
        "cache hits must not re-run the simulator"
    );
}
