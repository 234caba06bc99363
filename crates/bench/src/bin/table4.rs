//! Regenerates Table 4: cycles reported, distinct cycle clusters and
//! true-positive clusters per system — for an unlimited beam search and for
//! one limited to a single delay injection per cycle (the paper's
//! parenthesised numbers). Limiting delay injections prunes the pure-delay
//! "expected contention" false positives (§8.4.2) while keeping most true
//! positives.
//!
//! Usage: `table4 [--target <name>] [--progress]` — restrict to one
//! system while iterating; `--progress` paints a live collector view of
//! the running campaign to stderr. Names resolve through the
//! generator-aware
//! [`csnake_gen::by_name`]: the hand-coded builtins, every spec in the
//! `scenarios/` corpus, and `gen:<seed>` pseudo-names that synthesize a
//! ground-truthed scenario on the fly; an unknown name exits with the
//! typed error listing all of them instead of panicking.

use std::sync::Arc;
use std::time::Duration;

use csnake_bench::{header, row, run_csnake_with, table4_variants, EvalConfig};
use csnake_core::{ProgressCollector, TargetSystem};
use csnake_targets::all_paper_targets;
use csnake_telemetry::LiveProgress;

/// The unlimited beam search's columns, then those of the search limited
/// to one delay injection per cycle.
const COLUMNS: [&str; 7] = [
    "System",
    "Cycle",
    "Cluster",
    "TP",
    "≤1 delay: Cycle",
    "≤1 delay: Cluster",
    "≤1 delay: TP",
];

fn main() {
    let cfg = EvalConfig::default();
    let args: Vec<String> = std::env::args().collect();
    let live = args.iter().any(|a| a == "--progress");
    let targets: Vec<Box<dyn TargetSystem>> =
        match args.iter().position(|a| a == "--target").map(|i| i + 1) {
            Some(i) => {
                let name = args.get(i).expect("--target needs a name");
                match csnake_gen::by_name(name) {
                    Ok(target) => vec![target],
                    Err(e) => {
                        eprintln!("table4: {e}");
                        std::process::exit(2);
                    }
                }
            }
            None => all_paper_targets(),
        };
    println!("Table 4: reported cycles and clustering");
    println!("{}", header(&COLUMNS));
    for target in targets.iter().map(|t| t.as_ref()) {
        let progress = Arc::new(ProgressCollector::new());
        let view = live.then(|| LiveProgress::start(progress.clone(), Duration::from_millis(500)));
        let detection = run_csnake_with(target, &cfg, progress.clone());
        drop(view);
        let (unlimited, limited) = table4_variants(target, &detection);
        let cells: [String; COLUMNS.len()] = [
            target.name().to_string(),
            unlimited.cycles.to_string(),
            unlimited.clusters.to_string(),
            unlimited.tp.to_string(),
            limited.cycles.to_string(),
            limited.clusters.to_string(),
            limited.tp.to_string(),
        ];
        println!("{}", row(&cells));
        let expected = detection.report.expected_contention_clusters();
        if expected > 0 {
            eprintln!(
                "[{}] expected-contention clusters (accepted-behaviour FPs): {expected}",
                target.name()
            );
        }
    }
}
