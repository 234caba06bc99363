//! Regenerates Table 3: the seeded self-sustaining cascading failures per
//! system, with cycle composition (D|E|N), the 3PA phase after which the
//! cycle's relationships were all known ("Alloc."), whether random
//! allocation also finds the bug ("Rnd.?") and whether the naive
//! single-fault strategy triggers it ("Alt.?").
//!
//! Usage: `table3 [--fast]` — `--fast` runs HDFS2, Flink and Ozone only.

use std::sync::Arc;

use csnake_baselines::{run_naive_strategy, NaiveConfig};
use csnake_bench::{header, row, run_csnake_with, run_random, EvalConfig};
use csnake_core::ProgressCollector;
use csnake_targets::all_paper_targets;

const COLUMNS: [&str; 7] = ["System", "Bug", "JIRA", "Cycle", "Alloc.", "Rnd.?", "Alt.?"];

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let cfg = EvalConfig::default();
    println!("Table 3: detected self-sustaining cascading failures");
    println!("{}", header(&COLUMNS));

    let mut total = 0usize;
    let mut found = 0usize;
    for target in all_paper_targets() {
        if fast && (target.name() == "mini-hdfs3" || target.name() == "mini-hbase") {
            continue;
        }
        let progress = Arc::new(ProgressCollector::new());
        let detection = run_csnake_with(target.as_ref(), &cfg, progress.clone());
        let random = run_random(target.as_ref(), &cfg);
        let naive = run_naive_strategy(target.as_ref(), &NaiveConfig::default());

        for bug in target.known_bugs() {
            total += 1;
            let m = detection.report.matches.iter().find(|m| m.bug.id == bug.id);
            let rnd = random.report.matches.iter().any(|m| m.bug.id == bug.id);
            let alt = naive.alt_detected.contains(&bug.id);
            let yes = |b: bool| if b { "yes" } else { "no" }.to_string();
            let (cycle, phase) = match m {
                Some(m) => (m.composition.to_string(), m.phase.to_string()),
                None => ("MISSED".to_string(), "-".to_string()),
            };
            found += usize::from(m.is_some());
            let cells: [String; COLUMNS.len()] = [
                target.name().to_string(),
                bug.id.to_string(),
                bug.jira.to_string(),
                cycle,
                phase,
                yes(rnd),
                yes(alt),
            ];
            println!("{}", row(&cells));
        }
        // Cross-checked two ways: campaign results and the observer's
        // event stream must agree.
        let seen = progress.snapshot();
        assert_eq!(seen.experiments, detection.alloc.experiments_run);
        assert_eq!(seen.edges, detection.alloc.db.len());
        assert_eq!(seen.cycles, detection.report.cycles.len());
        eprintln!(
            "[{}] experiments={} edges={} cycles={} clusters={} runs={} (phases seen: {})",
            target.name(),
            detection.alloc.experiments_run,
            detection.alloc.db.len(),
            detection.report.cycles.len(),
            detection.report.clusters.len(),
            detection.runs_executed,
            seen.phases_finished,
        );
    }
    println!();
    println!("Detected {found} of {total} seeded self-sustaining cascading failures.");
}
