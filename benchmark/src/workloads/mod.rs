//! The five workloads. Each is a real campaign (or the tail of one) sized
//! so that a different set of layers does the work; see the README for why
//! each exists and which end-to-end metric each layer should move on it.

mod fleet_gen;
mod gen_corpus;
mod hdfs2_campaign;
mod openloop_1m;
mod stitch_hdfs3;

use std::collections::BTreeMap;
use std::path::Path;

use crate::campaign::Outcome;
use crate::metrics::Values;
use crate::spans::Tracer;

/// Workload names, in the order `all` runs them.
pub const NAMES: &[&str] = &[
    "hdfs2-campaign",
    "openloop-1m",
    "gen-corpus",
    "fleet-gen",
    "stitch-hdfs3",
];

/// Full size, or roughly a tenth of it for `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }
}

/// One output check of one iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    pub what: String,
    pub ok: bool,
}

pub fn check(what: impl Into<String>, ok: bool) -> Check {
    Check {
        what: what.into(),
        ok,
    }
}

/// What one iteration did.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    /// Numerator of `work_per_s`; must be identical in every iteration.
    pub work: u64,
    /// Experiment cells attempted and the ones listed in `missing_cells`.
    pub cells: u64,
    pub missing_cells: u64,
    /// Hash over every report's Debug text, in order.
    pub fingerprint: u64,
    /// Outcome counts the seed-0 fingerprint file pins; `sim_events` is also
    /// the numerator of `sim_events_per_s`.
    pub counts: BTreeMap<&'static str, u64>,
    pub checks: Vec<Check>,
    /// Traced iterations only: layer counters that have no span.
    pub layer: Values,
}

impl Iteration {
    /// The fields every campaign-shaped workload derives from its
    /// (possibly batch-summed) outcome.
    pub fn from_outcome(outcome: &Outcome) -> Iteration {
        Iteration {
            cells: outcome.experiments,
            missing_cells: outcome.missing_cells,
            fingerprint: outcome.report_hash,
            counts: BTreeMap::from([
                ("experiments", outcome.experiments),
                ("runs", outcome.runs),
                ("edges", outcome.edges),
                ("cycles", outcome.cycles),
                ("clusters", outcome.clusters),
                ("tp_clusters", outcome.tp_clusters),
                ("fp_clusters", outcome.fp_clusters),
                ("sim_events", outcome.target.events),
            ]),
            ..Iteration::default()
        }
    }
}

/// How a traced iteration is to be run.
#[derive(Clone, Copy)]
pub struct Trace<'a> {
    pub tracer: &'a Tracer,
    /// Also run the off-the-clock replays (one traced iteration per run).
    pub replay: bool,
}

pub trait Workload {
    /// What `work_per_s` counts on this workload.
    fn work_unit(&self) -> &'static str;

    /// One iteration; with `trace`, the same work seen through spans.
    fn iterate(&mut self, trace: Option<Trace<'_>>) -> Result<Iteration, String>;

    /// Whether `--seed` changes this workload's inputs. Where it does not,
    /// every seed is held to the committed seed-0 fingerprint.
    fn seeded(&self) -> bool {
        true
    }

    /// `(events, seconds)` of simulation done in set-up, for workloads
    /// whose timed iterations simulate nothing.
    fn setup_simulation(&self) -> Option<(u64, f64)> {
        None
    }

    /// Output checks made once, in set-up.
    fn setup_checks(&self) -> Vec<Check> {
        Vec::new()
    }
}

/// Seconds a full-size untraced run of `name` is expected to take on the
/// sizing box (set-up, warm-up and `seconds` of measuring); the parent
/// kills a child that takes four times as long.
pub fn expected_run_seconds(name: &str, scale: Scale, seconds: f64, trace: bool) -> f64 {
    let (setup, iteration, replay) = match name {
        "hdfs2-campaign" => (6.0, 5.5, 6.0),
        "openloop-1m" => (2.0, 1.0, 8.0),
        "gen-corpus" => (3.0, 2.8, 6.0),
        "fleet-gen" => (4.0, 1.8, 12.0),
        "stitch-hdfs3" => (9.0, 1.8, 6.0),
        _ => (10.0, 5.0, 10.0),
    };
    let per = if trace { 2.0 } else { 1.0 };
    let measured = (seconds + iteration).max(3.0 * iteration) * per;
    let full = setup + measured + if trace { replay } else { 0.0 };
    scale.pick(full, 2.0 + full / 8.0)
}

/// Builds a workload: resolves its target, generates its inputs from
/// `seed`, and runs whatever campaign its iterations start from. `tmp` is
/// a directory the workload may fill; the caller removes it.
pub fn setup(name: &str, seed: u64, scale: Scale, tmp: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "hdfs2-campaign" => Box::new(hdfs2_campaign::Hdfs2Campaign::setup(scale, tmp)?),
        "openloop-1m" => Box::new(openloop_1m::Openloop1m::setup(seed, scale, tmp)?),
        "gen-corpus" => Box::new(gen_corpus::GenCorpus::setup(seed, scale, tmp)?),
        "fleet-gen" => Box::new(fleet_gen::FleetGen::setup(seed, scale, tmp)?),
        "stitch-hdfs3" => Box::new(stitch_hdfs3::StitchHdfs3::setup(scale, tmp)?),
        other => {
            return Err(format!(
                "unknown workload {other:?}; known workloads: {}",
                NAMES.join(", ")
            ))
        }
    })
}
