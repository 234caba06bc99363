//! Golden pins of the agent's recorded bytes.
//!
//! For every builtin target and two corpus scenarios: test 0's profile run
//! plus one throw, one negate and one delay injection (each at the first
//! point of its kind the profile covered) at a fixed seed, hashed over
//! `format!("{:?}", RunTrace)` — once with monitoring on and once with
//! `tracing_switch::set(false)`. `RunTrace` bytes order FCA's merged
//! occurrence lists and live in snapshots, so an agent change that moves
//! any pin changed what campaigns record, not just how fast.

use csnake::inject::{fnv1a, tracing_switch, FaultKind, InjectionPlan};
use csnake::scenario::by_name;
use csnake::sim::VirtualTime;

const SEED: u64 = 7;

/// `(target, hash with monitoring on, hash with monitoring off)`.
const PINS: &[(&str, u64, u64)] = &[
    ("toy", 0x1cf878ac22fee335, 0xcc78db8ee5d13ce9),
    ("mini-hdfs2", 0xac8f2c30abe37c3a, 0x39c1dcc2030e241a),
    ("mini-hdfs3", 0x8150fd297208896d, 0x73c58700bd95e025),
    ("mini-hbase", 0xc8c8c18600095326, 0x5d90e019b3d232d7),
    ("mini-flink", 0x8dfedc8a5b4dba21, 0xf10681142bf8b18e),
    ("mini-ozone", 0xd628a83782a5aad5, 0x9245ec28b996d463),
    ("kafka-isr", 0x7879e4853f99d555, 0xb2f5a9626b8e0e20),
    ("etcd-lease", 0x8f1e4e3617370292, 0x1e4d6df7027b38bd),
];

/// Hash of the four runs' `Debug` text under the current tracing switch.
fn runs_hash(name: &str) -> u64 {
    let target = by_name(name).expect("target resolves");
    let registry = target.registry();
    let test = target.tests()[0].id;
    let profile = target.run(test, None, SEED);
    let first_covered = |kinds: &[FaultKind]| {
        let mut covered = profile.coverage.iter().copied();
        covered
            .find(|&p| kinds.contains(&registry.point(p).kind))
            .expect("test 0 covers a point of every kind")
    };
    let plans = [
        InjectionPlan::throw(first_covered(&[FaultKind::Throw, FaultKind::LibCall])),
        InjectionPlan::negate(first_covered(&[FaultKind::Negation])),
        InjectionPlan::delay(
            first_covered(&[FaultKind::LoopPoint]),
            VirtualTime::from_millis(800),
        ),
    ];
    let mut text = format!("{profile:?}");
    for plan in plans {
        let trace = target.run(test, Some(plan), SEED);
        assert!(trace.injected.is_some(), "{name}: {plan:?} did not fire");
        text.push_str(&format!("\n{plan:?} => {trace:?}"));
    }
    fnv1a(text.bytes().map(u64::from))
}

#[test]
fn run_trace_bytes_match_the_pins() {
    let mut got = Vec::new();
    for &(name, _, _) in PINS {
        tracing_switch::set(true);
        let on = runs_hash(name);
        tracing_switch::set(false);
        let off = runs_hash(name);
        tracing_switch::set(true);
        got.push((name, on, off));
    }
    let table: String = got
        .iter()
        .map(|(n, on, off)| format!("    ({n:?}, {on:#018x}, {off:#018x}),\n"))
        .collect();
    assert_eq!(got, PINS, "recorded bytes moved; computed pins:\n{table}");
}
