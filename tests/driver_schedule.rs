//! Golden pins of what the driver computes, whatever grain it schedules at.
//!
//! `Driver` may run a batch's simulator runs in any order on any number of
//! threads; what it records may not change. For four targets — `toy`, the
//! `kafka-isr` scenario, the generated `gen:5` spec and a small open-loop
//! `WorkloadSystem` — this hashes (FNV-1a over the `Debug` text):
//!
//! 1. the profile traces `Driver::new` records;
//! 2. the outcomes of a batch mixing loop, throw and negation faults over
//!    several phases, then of a one-experiment batch, with `runs_executed`
//!    after each;
//! 3. the same two batches under `cache_injections`, each run twice (the
//!    second time is a revisit served from the cache), with
//!    `runs_executed` and the trace-cache `(hits, misses)` after each.
//!
//! Every digest is computed at `parallel` false and true and must equal
//! the pinned value both times.

use csnake::core::{Driver, DriverConfig, ExperimentEngine, TargetSystem};
use csnake::inject::{fnv1a, FaultId, FaultKind, TestId};
use csnake::sim::VirtualTime;
use csnake::workload::{Arrival, ArrivalSource, WorkloadSpec, WorkloadSystem};

type Cell = (FaultId, TestId, u8);

fn hash(text: &str) -> u64 {
    fnv1a(text.bytes().map(u64::from))
}

fn config(parallel: bool, cache_injections: bool) -> DriverConfig {
    DriverConfig {
        reps: 3,
        delay_values_ms: vec![100, 800],
        parallel,
        cache_injections,
        ..DriverConfig::default()
    }
}

/// A single paced open-loop workload, a few hundred requests long.
fn small_workload() -> WorkloadSystem {
    WorkloadSystem::with_spec(
        "workload:small",
        WorkloadSpec {
            source: ArrivalSource::Process {
                arrival: Arrival::Paced {
                    interval: VirtualTime::from_millis(2),
                },
                offered: 300,
            },
            retry_fanout: 2,
            max_retries: 1,
            ..WorkloadSpec::default()
        },
    )
}

/// Up to two loop faults, two throw / library-call faults and two negation
/// faults. Cell `i` runs on the `i`-th reaching test of its fault (modulo
/// how many there are), in phase `i % 3`.
fn mixed_batch(driver: &Driver) -> Vec<Cell> {
    let registry = driver.registry().clone();
    let kinds: [&[FaultKind]; 3] = [
        &[FaultKind::LoopPoint],
        &[FaultKind::Throw, FaultKind::LibCall],
        &[FaultKind::Negation],
    ];
    let mut faults: Vec<FaultId> = Vec::new();
    for kind in kinds {
        faults.extend(
            driver
                .faults()
                .into_iter()
                .filter(|f| kind.contains(&registry.point(*f).kind))
                .filter(|f| !driver.tests_reaching(*f).is_empty())
                .take(2),
        );
    }
    faults
        .into_iter()
        .enumerate()
        .map(|(i, f)| {
            let reaching = driver.tests_reaching(f);
            (f, reaching[i % reaching.len()], (i % 3) as u8)
        })
        .collect()
}

/// `[profiles, batches, cached batches]` digests, plus the fault kinds the
/// mixed batch covered and the causal edges its first run found.
fn digests(target: &dyn TargetSystem, parallel: bool) -> ([u64; 3], Vec<FaultKind>, usize) {
    let mut driver = Driver::new(target, config(parallel, false));
    let profiles = hash(&format!("{:?}", driver.profiles()));

    let mixed = mixed_batch(&driver);
    assert!(mixed.len() >= 2, "{}: batch {mixed:?}", target.name());
    let kinds = mixed
        .iter()
        .map(|&(f, _, _)| driver.registry().point(f).kind)
        .collect();
    let single = vec![mixed[0]];

    let mut text = String::new();
    let mut edges = 0;
    for batch in [&mixed, &single] {
        let outcomes = driver.run_experiments(batch);
        edges += outcomes.iter().map(|o| o.edges.len()).sum::<usize>();
        text += &format!("{outcomes:?} runs={}\n", driver.runs_executed());
    }
    let batches = hash(&text);

    let mut cached =
        Driver::from_profiles(target, config(parallel, true), driver.profiles().clone(), 0);
    let mut text = String::new();
    for batch in [&mixed, &mixed, &single, &single] {
        let outcomes = cached.run_experiments(batch);
        text += &format!(
            "{outcomes:?} runs={} cache={:?}\n",
            cached.runs_executed(),
            cached.trace_cache_stats()
        );
    }
    ([profiles, batches, hash(&text)], kinds, edges)
}

/// `(target, [profiles, batches, cached batches])`.
#[rustfmt::skip]
const PINS: &[(&str, [u64; 3])] = &[
    ("toy", [0x4e7bf298e30c86a2, 0x756308f326fb9f8a, 0xeee4765e9e5ec5cf]),
    ("kafka-isr", [0x897f81420e5d8ebf, 0x44fa6baaf2f0c246, 0xe33026bb023158af]),
    ("gen:5", [0xb9443fc43132a9f1, 0xad85961b869a5683, 0x6bd524f571e8063a]),
    ("workload:small", [0x54bdd9d87e8f5ccf, 0x6dd114482e590f89, 0xce33fb00d6e1b7cf]),
];

#[test]
fn driver_results_are_pinned_at_every_parallelism() {
    let small = small_workload();
    let named: Vec<Box<dyn TargetSystem>> = ["toy", "kafka-isr", "gen:5"]
        .iter()
        .map(|n| csnake_gen::by_name(n).expect("target resolves"))
        .collect();
    let targets: Vec<&dyn TargetSystem> = named
        .iter()
        .map(|b| b.as_ref())
        .chain([&small as &dyn TargetSystem])
        .collect();

    let mut got: Vec<(&str, [u64; 3])> = Vec::new();
    let mut kinds = Vec::new();
    let mut edges = 0;
    for (&(name, _), target) in PINS.iter().zip(&targets) {
        let (sequential, k, e) = digests(*target, false);
        let (parallel, _, _) = digests(*target, true);
        assert_eq!(
            sequential, parallel,
            "{name}: parallel driver diverged from sequential"
        );
        kinds.extend(k);
        edges += e;
        got.push((name, sequential));
    }
    for kind in [FaultKind::LoopPoint, FaultKind::Throw, FaultKind::Negation] {
        assert!(kinds.contains(&kind), "no {kind:?} fault in any batch");
    }
    assert!(edges > 0, "no batch found a causal edge");

    let table: String = got
        .iter()
        .map(|(n, h)| {
            format!(
                "    ({n:?}, [{:#018x}, {:#018x}, {:#018x}]),\n",
                h[0], h[1], h[2]
            )
        })
        .collect();
    assert!(got == PINS, "driver results moved; computed pins:\n{table}");
}
