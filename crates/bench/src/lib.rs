//! Evaluation harness shared by the table-regenerating binaries.
//!
//! Every table and measurement of the paper's §8 maps to one binary:
//!
//! | paper artifact | binary |
//! |---|---|
//! | Table 2 (injection/monitor points, tests) | `table2` |
//! | Table 3 (15 bugs, cycle composition, Alloc., Rnd.?, Alt.?) | `table3` |
//! | Table 4 (cycles / clusters / TP, unlimited vs ≤ 1 delay) | `table4` |
//! | §8.2.1 fuzzing comparison | `fuzz_compare` |
//! | §8.5 instrumentation overhead | `overhead` |
//! | §2 soundness demo, compatibility-check ablation | `ablation` |
//! | generated-corpus recall (`BENCH_gen.json`) | `gen_eval` |
//!
//! Stage timings are not measured here: the campaign benchmark under
//! `benchmark/` records them per layer on real campaigns (`--trace 1`).
//! The library also keeps the synthetic fixtures the root tests import
//! ([`synthetic_db`] and the [`campaign`] module).

pub mod campaign;

use std::sync::Arc;

use csnake_core::{
    BeamConfig, CampaignObserver, DetectConfig, Detection, NoopObserver, RandomAllocation, Session,
    TargetSystem, ThreePhase,
};

/// Evaluation knobs for a full campaign on one target.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Budget multiplier (experiments = multiplier · |F|).
    ///
    /// The paper recommends a *minimum* of 4·|F| (§5.2). The mini-systems
    /// are far denser than real HDFS — almost every workload reaches almost
    /// every fault point, so the (fault, test) space per fault is larger
    /// relative to |F| — and the evaluation default of 12 compensates.
    /// The budget sensitivity sweep is still open: ROADMAP item 3(b).
    pub budget_per_fault: usize,
    /// Run repetitions (paper: 5).
    pub reps: usize,
    /// Delay sweep in milliseconds (paper: 7 points, 100 ms – 8 s).
    pub delay_values_ms: Vec<u64>,
    /// Base seed for the campaign.
    pub seed: u64,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            budget_per_fault: 12,
            reps: 3,
            delay_values_ms: vec![800, 3200],
            seed: 0xC5AA5E,
        }
    }
}

impl EvalConfig {
    /// Builds the detector configuration for this evaluation.
    pub fn detect_config(&self) -> DetectConfig {
        let mut cfg = DetectConfig::default();
        cfg.driver.reps = self.reps;
        cfg.driver.delay_values_ms = self.delay_values_ms.clone();
        cfg.driver.base_seed = self.seed;
        cfg.alloc.budget_per_fault = self.budget_per_fault;
        cfg.alloc.seed = self.seed ^ 0x3A;
        cfg
    }
}

/// Runs the full CSnake pipeline on a target.
pub fn run_csnake(target: &dyn TargetSystem, cfg: &EvalConfig) -> Detection {
    run_csnake_with(target, cfg, Arc::new(NoopObserver))
}

/// Runs the full CSnake pipeline as an explicitly staged session, streaming
/// progress to the observer.
pub fn run_csnake_with(
    target: &dyn TargetSystem,
    cfg: &EvalConfig,
    observer: Arc<dyn CampaignObserver>,
) -> Detection {
    let dc = cfg.detect_config();
    let strategy = ThreePhase::new(dc.alloc.clone());
    let mut session = Session::builder(target)
        .config(dc)
        .observer(observer)
        .build()
        .expect("bundled targets are drivable");
    session
        .run_to_report(&strategy)
        .expect("staged pipeline runs in order");
    session.into_detection().expect("session is reported")
}

/// Runs the random-allocation variant (Table 3 "Rnd.?").
pub fn run_random(target: &dyn TargetSystem, cfg: &EvalConfig) -> Detection {
    let dc = cfg.detect_config();
    let strategy = RandomAllocation::new(dc.alloc.clone(), cfg.seed ^ 0x7777);
    let mut session = Session::builder(target)
        .config(dc)
        .build()
        .expect("bundled targets are drivable");
    session
        .run_to_report(&strategy)
        .expect("staged pipeline runs in order");
    session.into_detection().expect("session is reported")
}

/// Runs the beam search twice over `target`'s causal database in
/// `detection`: unlimited delay injections vs. at most one (Table 4's two
/// column groups).
pub fn table4_variants(target: &dyn TargetSystem, detection: &Detection) -> (Table4Row, Table4Row) {
    let unlimited = Table4Row {
        cycles: detection.report.cycles.len(),
        clusters: detection.report.clusters.len(),
        tp: detection.report.tp_clusters(),
    };
    let sim_of = |f| detection.alloc.sim_score_of(f);
    let cfg = BeamConfig {
        max_delay_injections: Some(1),
        ..BeamConfig::default()
    };
    let cycles = csnake_core::beam_search(&detection.alloc.db, &sim_of, &cfg);
    let clusters =
        csnake_core::cluster_cycles(&cycles, &detection.alloc.db, &detection.alloc.cluster_of);
    // Rebuild verdicts for the limited variant.
    let limited_report = csnake_core::build_report(target, &detection.alloc, cycles, clusters);
    let limited = Table4Row {
        cycles: limited_report.cycles.len(),
        clusters: limited_report.clusters.len(),
        tp: limited_report.tp_clusters(),
    };
    (unlimited, limited)
}

/// One row of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table4Row {
    /// Cycles reported.
    pub cycles: usize,
    /// Distinct cycle clusters.
    pub clusters: usize,
    /// True-positive clusters.
    pub tp: usize,
}

/// Formats one Markdown table row. A `|` inside a cell is escaped, so the
/// row always has exactly `cells.len()` cells.
pub fn row<S: AsRef<str>>(cells: &[S]) -> String {
    let cells: Vec<String> = cells
        .iter()
        .map(|c| c.as_ref().replace('|', "\\|"))
        .collect();
    format!("| {} |", cells.join(" | "))
}

/// A table's header row and its separator row, one cell per column.
pub fn header(columns: &[&str]) -> String {
    format!("{}\n{}", row(columns), row(&vec!["---"; columns.len()]))
}

/// Synthetic causal-database generator for the stitch-index tests.
///
/// Produces `n_faults · fanout` forward edges on a ring (`c → c+k+1 mod
/// n`) plus one *back edge* (`c+1 → c`) for every [`BACK_EDGE_STRIDE`]-th
/// fault. Forward steps alone can never return to their origin within a
/// bounded chain length on a large ring, which left the search's
/// cycle-emission path cold at n ≥ 500; the back edges close two-edge
/// cycles everywhere, so every case exercises cycle discovery and the
/// structural cycle dedup. `loop_share` ∈ [0, 1] makes that share of
/// faults loop-shaped (delay edges with `LoopState` compatibility states,
/// exercising the merge over stacks + iteration signatures); the rest are
/// occurrence-shaped.
pub fn synthetic_db(n_faults: u32, fanout: u32, loop_share: f64) -> csnake_core::CausalDb {
    use csnake_core::{CausalEdge, CompatState, EdgeKind};
    use csnake_inject::{FaultId, FnId, LoopState, Occurrence, TestId};

    let loop_cut = (loop_share.clamp(0.0, 1.0) * 10.0) as u32;
    let is_loop = |f: u32| f % 10 < loop_cut;
    // One compatibility state per fault (as in the original bench DB):
    // every edge meeting at a fault stitches, which maximises the search
    // space for a given edge count.
    let occ_state =
        |f: u32| CompatState::Occurrences(vec![Occurrence::new([Some(FnId(f)), None], vec![])]);
    let loop_state = |f: u32| {
        let mut st = LoopState::default();
        st.entry_stacks.insert([Some(FnId(f)), None]);
        st.iter_sigs.insert(f as u64 * 10);
        CompatState::Loop(st)
    };
    let state = |f: u32| {
        if is_loop(f) {
            loop_state(f)
        } else {
            occ_state(f)
        }
    };
    let kind_of = |c: u32, e: u32| match (is_loop(c), is_loop(e)) {
        (true, true) => EdgeKind::Icfg,
        (true, false) => EdgeKind::ED,
        (false, true) => EdgeKind::SI,
        (false, false) => EdgeKind::EI,
    };
    let mut edges = Vec::new();
    for c in 0..n_faults {
        for k in 0..fanout {
            let e = (c + k + 1) % n_faults;
            edges.push(CausalEdge {
                cause: FaultId(c),
                effect: FaultId(e),
                kind: kind_of(c, e),
                test: TestId(k),
                phase: 1,
                cause_state: state(c),
                effect_state: state(e),
            });
        }
        // Back edge `c+1 → c` every stride: together with the ring edge
        // `c → c+1` (k = 0, identical per-fault states on both ends) this
        // closes a guaranteed two-edge cycle. A distinct test id keeps the
        // database dedup from ever folding it into a ring edge.
        if n_faults > fanout + 2 && c % BACK_EDGE_STRIDE == 0 {
            let e = (c + 1) % n_faults;
            edges.push(CausalEdge {
                cause: FaultId(e),
                effect: FaultId(c),
                kind: kind_of(e, c),
                test: TestId(fanout),
                phase: 1,
                cause_state: state(e),
                effect_state: state(c),
            });
        }
    }
    csnake_core::CausalDb::from_edges(edges)
}

/// Every how-many-th fault gets a cycle-closing back edge in
/// [`synthetic_db`].
pub const BACK_EDGE_STRIDE: u32 = 16;

#[cfg(test)]
mod tests {
    use super::*;
    use csnake_core::Composition;

    /// Cells of one Markdown row: its unescaped `|` separators minus one.
    fn cell_count(line: &str) -> usize {
        let bytes = line.as_bytes();
        let pipes = (0..bytes.len())
            .filter(|&i| bytes[i] == b'|' && (i == 0 || bytes[i - 1] != b'\\'))
            .count();
        pipes - 1
    }

    #[test]
    fn header_separator_and_rows_agree_on_the_cell_count() {
        let columns = ["System", "Cycle", "Alloc."];
        let header = header(&columns);
        let composition = Composition {
            delays: 1,
            exceptions: 2,
            negations: 0,
        };
        let cells = [
            "mini-hdfs2".to_string(),
            composition.to_string(),
            "2".into(),
        ];
        let body = row(&cells);
        let lines: Vec<&str> = header.lines().chain([body.as_str()]).collect();
        assert_eq!(lines.len(), 3, "a header, a separator and a row");
        for line in lines {
            assert_eq!(cell_count(line), columns.len(), "{line}");
        }
    }
}
