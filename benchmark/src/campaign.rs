//! One single-process campaign, the way a user runs it — and the same
//! campaign with every stage and layer boundary wrapped in a span.

use std::fmt::{self, Debug, Write as _};
use std::path::Path;
use std::sync::Arc;

use csnake_core::{DetectConfig, Driver, ProgressCollector, Session, TargetSystem, ThreePhase};

use crate::metrics::Values;
use crate::replay::Replay;
use crate::spans::Tracer;
use crate::timed::{RunCounts, TimedEngine, TimedTarget};
use crate::workloads::Trace;

/// Compute threads a workload may use: the sizing box has two cores, and
/// thread-summed layer shares are reported against this figure.
pub const THREADS: usize = 2;

/// The campaign configuration every workload starts from. `seed` perturbs
/// the run seeds and the allocation RNG; seed 0 is the shipped default, so
/// seed-0 fingerprints are the numbers a user sees.
///
/// The two workloads on hand-coded HDFS targets pass 0 whatever `--seed`
/// says: there the seeds decide which of several thousand cycles a search
/// finds (6 000 – 11 000 across ten seeds on `mini-hdfs2`), which moves
/// `peak_rss_mb` by ±30 % and the stitch wall by ±20 % from seed to seed —
/// more than any regression bound could absorb.
pub fn config(seed: u64, reps: usize, delays_ms: &[u64], budget_per_fault: usize) -> DetectConfig {
    let mut cfg = DetectConfig::default();
    cfg.driver.reps = reps;
    cfg.driver.delay_values_ms = delays_ms.to_vec();
    cfg.driver.base_seed = cfg.driver.base_seed.wrapping_add(seed);
    cfg.alloc.budget_per_fault = budget_per_fault;
    cfg.alloc.seed = cfg.alloc.seed.wrapping_add(seed);
    cfg.beam.threads = THREADS;
    cfg
}

/// The span around the harness's own on-the-clock work: reducing a report
/// to an [`Outcome`] (dominated by hashing its Debug text).
pub const CHECK_SPAN: &str = "harness.check";

/// The span around dropping a finished session (traces, causal database,
/// cycles).
pub const DROP_SPAN: &str = "session.drop";

/// FNV-1a over a value's `Debug` text, streamed so a report with ten
/// thousand cycles never exists as one string. Two reports hash equal iff
/// their Debug strings are identical (up to 64-bit collisions); the text
/// length rides along as a second witness.
struct DebugHasher {
    hash: u64,
    len: u64,
}

impl fmt::Write for DebugHasher {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.len += s.len() as u64;
        Ok(())
    }
}

pub fn debug_hash(value: &impl Debug) -> u64 {
    let mut h = DebugHasher {
        hash: 0xcbf2_9ce4_8422_2325,
        len: 0,
    };
    write!(h, "{value:?}").expect("hashing cannot fail");
    h.hash ^ h.len.rotate_left(32)
}

/// What one campaign produced, reduced to the numbers the checks compare.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcome {
    pub experiments: u64,
    pub runs: u64,
    pub edges: u64,
    pub cycles: u64,
    pub clusters: u64,
    pub tp_clusters: u64,
    pub fp_clusters: u64,
    pub undetected: u64,
    pub missing_cells: u64,
    pub report_hash: u64,
    pub target: RunCounts,
}

impl Outcome {
    pub fn of(session: &Session<'_>, target: RunCounts) -> Outcome {
        let report = session
            .detection_report()
            .expect("campaign ran to a report");
        Outcome {
            experiments: report.experiments_run as u64,
            runs: session.runs_executed() as u64,
            edges: report.edge_count as u64,
            cycles: report.cycles.len() as u64,
            clusters: report.clusters.len() as u64,
            tp_clusters: report.tp_clusters() as u64,
            fp_clusters: report.fp_clusters() as u64,
            undetected: report.undetected.len() as u64,
            missing_cells: report.missing_cells.len() as u64,
            report_hash: debug_hash(report),
            target,
        }
    }

    /// Accumulates another campaign of the same batch.
    pub fn absorb(&mut self, other: &Outcome) {
        self.experiments += other.experiments;
        self.runs += other.runs;
        self.edges += other.edges;
        self.cycles += other.cycles;
        self.clusters += other.clusters;
        self.tp_clusters += other.tp_clusters;
        self.fp_clusters += other.fp_clusters;
        self.undetected += other.undetected;
        self.missing_cells += other.missing_cells;
        self.report_hash = self
            .report_hash
            .rotate_left(5)
            .wrapping_mul(0x0000_0100_0000_01b3)
            ^ other.report_hash;
        self.target.runs += other.target.runs;
        self.target.events += other.target.events;
        self.target.hooks += other.target.hooks;
    }
}

/// Runs the whole pipeline the way `csnake::detect` and the daemon's
/// coordinator do — one `run_to_report` — with only the counting wrapper
/// between the session and the target.
pub fn run(target: &dyn TargetSystem, cfg: &DetectConfig) -> Result<Outcome, String> {
    let counted = TimedTarget::new(target, None);
    let mut session = Session::builder(&counted)
        .config(cfg.clone())
        .build()
        .map_err(|e| e.to_string())?;
    session
        .run_to_report(&ThreePhase::new(cfg.alloc.clone()))
        .map_err(|e| e.to_string())?;
    Ok(Outcome::of(&session, counted.take_counts()))
}

/// The same campaign, staged, with a span around each stage, each driver
/// batch and each target run. `layer` receives the counters that have no
/// span (events, hooks, cluster sizes); `replay`, when given, times each
/// layer's public functions on this campaign's own inputs, off the clock.
pub fn run_traced(
    target: &dyn TargetSystem,
    cfg: &DetectConfig,
    tracer: &Tracer,
    layer: &mut Values,
    replay: Option<&mut Replay>,
) -> Result<Outcome, String> {
    let err = |e: csnake_core::CsnakeError| e.to_string();
    let timed = TimedTarget::new(target, Some(tracer));
    let strategy = ThreePhase::new(cfg.alloc.clone());
    // `allocate_with_engine` wants an engine apart from the session, so the
    // traced engine profiles for itself; a user's campaign does not pay
    // this, hence off the clock (the wrapper records nothing meanwhile).
    let mut engine = TimedEngine::new(
        tracer.off_clock(|| Driver::new(&timed, cfg.driver.clone())),
        tracer,
    );
    let progress = Arc::new(ProgressCollector::new());

    let mut session = tracer
        .span("session.build", || {
            Session::builder(&timed)
                .config(cfg.clone())
                .observer(progress.clone())
                .build()
        })
        .map_err(err)?;
    tracer
        .span("session.profile", || session.profile())
        .map_err(err)?;
    let campaign = tracer
        .span("session.allocate", || {
            session.allocate_with_engine(&strategy, &mut engine)
        })
        .map_err(err)?;
    if let Some(replay) = replay {
        tracer.off_clock(|| replay.campaign(target, &session));
    }
    tracer
        .span("session.stitch", || session.stitch().map(drop))
        .map_err(err)?;
    tracer
        .span("session.report", || session.report().map(drop))
        .map_err(err)?;

    let outcome = tracer.span(CHECK_SPAN, || Outcome::of(&session, timed.take_counts()));
    // Freeing a campaign's state is the program's work too.
    tracer.span(DROP_SPAN, || drop(session));
    *layer.entry("sim.events").or_default() += outcome.target.events as f64;
    *layer.entry("target.hooks").or_default() += outcome.target.hooks as f64;
    *layer.entry("driver.experiments").or_default() += engine.experiments() as f64;
    *layer.entry("alloc.fault_clusters").or_default() += campaign.fault_clusters as f64;
    let peak = layer.entry("alloc.peak_vectors").or_default();
    *peak = peak.max(progress.snapshot().clustering_peak_vectors as f64);
    Ok(outcome)
}

/// One iteration of a single-campaign workload: [`run`] untraced,
/// [`run_traced`] (plus the replays, when asked) with a trace. `scratch` is
/// a file the snapshot replay may overwrite.
pub fn iterate(
    target: &dyn TargetSystem,
    cfg: &DetectConfig,
    trace: Option<Trace<'_>>,
    scratch: &Path,
) -> Result<(Outcome, Values), String> {
    let Some(trace) = trace else {
        return Ok((run(target, cfg)?, Values::new()));
    };
    let mut layer = Values::new();
    let mut replay = trace.replay.then(|| Replay::new(scratch));
    let outcome = run_traced(target, cfg, trace.tracer, &mut layer, replay.as_mut())?;
    if let Some(replay) = replay {
        layer.extend(replay.finish());
    }
    Ok((outcome, layer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use csnake_core::alloc::ExperimentEngine;

    fn toy_cfg() -> DetectConfig {
        config(3, 3, &[800], 4)
    }

    /// The decorators are pass-through: a campaign seen through
    /// `TimedTarget` + `TimedEngine` reports exactly what an unwrapped
    /// campaign reports, and accounts the same number of simulator runs.
    #[test]
    fn wrapped_campaign_is_debug_identical_to_an_unwrapped_one() {
        let target = csnake_gen::by_name("toy").unwrap();
        let cfg = toy_cfg();

        let mut plain = Session::builder(target.as_ref())
            .config(cfg.clone())
            .build()
            .unwrap();
        plain
            .run_to_report(&ThreePhase::new(cfg.alloc.clone()))
            .unwrap();
        let plain_text = format!("{:?}", plain.detection_report().unwrap());

        let counted = run(target.as_ref(), &cfg).unwrap();
        let tracer = Tracer::new();
        let mut layer = Values::new();
        let traced = run_traced(target.as_ref(), &cfg, &tracer, &mut layer, None).unwrap();

        assert_eq!(
            counted.report_hash,
            debug_hash(plain.detection_report().unwrap())
        );
        assert_eq!(counted, traced);
        assert_eq!(counted.runs, plain.runs_executed() as u64);
        assert_eq!(
            counted.runs, counted.target.runs,
            "every run went through the wrapper"
        );
        assert!(counted.target.events > 0 && counted.cycles > 0);
        assert!(!plain_text.is_empty());

        // The spans saw every run and every experiment, on the clock only.
        let spans = tracer.all();
        assert_eq!(
            crate::spans::count(&spans, "target.run") as u64,
            traced.target.runs
        );
        assert_eq!(layer["driver.experiments"], traced.experiments as f64);
        assert!(tracer.paused_ns() > 0);
        for stage in ["build", "profile", "allocate", "stitch", "report"] {
            let name = format!("session.{stage}");
            assert_eq!(spans.iter().filter(|s| s.name == name).count(), 1, "{name}");
        }
    }

    #[test]
    fn timed_engine_hides_its_own_profile_runs() {
        let target = csnake_gen::by_name("toy").unwrap();
        let tracer = Tracer::new();
        let driver = Driver::new(target.as_ref(), toy_cfg().driver);
        assert!(driver.runs_executed > 0);
        let engine = TimedEngine::new(driver, &tracer);
        assert_eq!(engine.runs_executed(), 0);
    }

    #[test]
    fn debug_hash_separates_values_and_lengths() {
        assert_eq!(debug_hash(&"abc"), debug_hash(&"abc"));
        assert_ne!(debug_hash(&"abc"), debug_hash(&"abd"));
        assert_ne!(debug_hash(&vec![1, 2]), debug_hash(&vec![12]));
    }
}
