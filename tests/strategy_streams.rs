//! Golden pins of every allocation strategy's deterministic event stream.
//!
//! One `toy` campaign per bundled strategy (3PA plain and at checkpoint
//! cadence 1, random, coverage-greedy, exhaustive). Each pins the byte
//! length and FNV-1a hash of the concatenated `Persist` encodings of its
//! deterministic events, plus the hash of the report's `Debug` text. A
//! refactor of the campaign stage must leave every pin where it is.

use std::sync::{Arc, Mutex};

use csnake::baselines::strategies::{CoverageGreedyAllocation, ExhaustiveAllocation};
use csnake::core::{
    fnv1a_bytes, AllocationStrategy, CampaignEvent, CampaignObserver, DetectConfig, Persist,
    RandomAllocation, Session, ThreePhase, Writer,
};
use csnake::targets::ToySystem;

fn config() -> DetectConfig {
    let mut cfg = DetectConfig::default();
    cfg.driver.reps = 3;
    cfg.driver.delay_values_ms = vec![800];
    cfg
}

/// Appends the `Persist` bytes of every deterministic event it sees.
#[derive(Default)]
struct StreamBytes(Mutex<Writer>);

impl CampaignObserver for StreamBytes {
    fn on_event(&self, event: &CampaignEvent) {
        if event.is_deterministic() {
            event.put(&mut self.0.lock().unwrap());
        }
    }
}

/// `(stream length in bytes, stream hash, report Debug hash)` of one
/// campaign, optionally streaming mid-phase checkpoints every experiment.
fn campaign(strategy: &dyn AllocationStrategy, checkpoint: bool) -> (usize, u64, u64) {
    let target = ToySystem::new();
    let stream = Arc::new(StreamBytes::default());
    let dir = std::env::temp_dir().join(format!("csnake-streams-{}", std::process::id()));
    let mut builder = Session::builder(&target)
        .config(config())
        .observer(stream.clone());
    if checkpoint {
        std::fs::create_dir_all(&dir).expect("create temp dir");
        builder = builder.auto_checkpoint(dir.join(format!("{}.csnake", strategy.name())), 1);
    }
    let mut session = builder.build().expect("the toy target is drivable");
    let report = format!(
        "{:?}",
        session.run_to_report(strategy).expect("campaign completes")
    );
    if checkpoint {
        std::fs::remove_dir_all(&dir).ok();
    }
    let bytes = stream.0.lock().unwrap();
    (
        bytes.bytes().len(),
        fnv1a_bytes(bytes.bytes()),
        fnv1a_bytes(report.as_bytes()),
    )
}

/// `(campaign, stream bytes, stream hash, report Debug hash)`.
#[rustfmt::skip]
const PINS: &[(&str, usize, u64, u64)] = &[
    ("three-phase", 223, 0x3dca5da45e5ad226, 0xb059d07ecbb110fc),
    ("three-phase@1", 223, 0x3dca5da45e5ad226, 0xb059d07ecbb110fc),
    ("random", 182, 0x91367b3383db9c89, 0x6ea30f17006d5dcd),
    ("coverage-greedy", 182, 0x362d2111b3a050af, 0xb66ff1db671d0cd6),
    ("exhaustive", 182, 0x56df9614e16598f2, 0xb66ff1db671d0cd6),
];

#[test]
fn every_strategy_keeps_its_event_stream() {
    let cfg = config().alloc;
    let runs: [(&str, &dyn AllocationStrategy, bool); 5] = [
        ("three-phase", &ThreePhase::default(), false),
        ("three-phase@1", &ThreePhase::default(), true),
        ("random", &RandomAllocation::new(cfg.clone(), 7), false),
        (
            "coverage-greedy",
            &CoverageGreedyAllocation::new(cfg),
            false,
        ),
        ("exhaustive", &ExhaustiveAllocation, false),
    ];
    let got: Vec<(&str, usize, u64, u64)> = runs
        .iter()
        .map(|&(name, strategy, checkpoint)| {
            let (len, stream, report) = campaign(strategy, checkpoint);
            (name, len, stream, report)
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(n, len, s, r)| format!("    ({n:?}, {len}, {s:#018x}, {r:#018x}),\n"))
        .collect();
    assert_eq!(
        got, PINS,
        "a strategy's stream moved; computed pins:\n{table}"
    );
}
