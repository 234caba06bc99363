//! `gen-corpus`: 128 short campaigns in sequence — the six corpus scenarios
//! plus 122 generated ones — each resolved inside the timed section
//! (generate → print → parse → compile) and run single-process.
//!
//! Per-campaign fixed costs dominate: the scenario front end and
//! `scenario::interp`, session build, static analysis, profiling, pool
//! spin-up, 3PA planning and phase-one clustering on tiny inputs, the
//! report. It is also the detection-quality guard: every planted and
//! corpus bug must be matched on every seed, and the seed-0 fingerprint
//! pins the true- and false-positive cluster counts.

use std::path::{Path, PathBuf};

use csnake_core::{DetectConfig, TargetSystem};
use csnake_gen::GenConfig;
use csnake_scenario::ScenarioSystem;

use super::{check, Iteration, Scale, Trace, Workload};
use crate::campaign::{self, Outcome};
use crate::metrics::Values;
use crate::replay::Replay;
use crate::spans::{maybe_span, Tracer};

/// Campaigns per iteration at full size: the corpus plus generated seeds.
pub const CAMPAIGNS: usize = 128;

/// The settings shared with `fleet-gen`, which runs a prefix of the same
/// campaigns: the paper's minimum 4·|F| budget, 3 repetitions, one delay.
pub fn config(seed: u64) -> DetectConfig {
    campaign::config(seed, 3, &[800], 4)
}

/// `n` consecutive generator seeds starting at the workload seed.
pub fn generated_seeds(seed: u64, n: usize) -> impl Iterator<Item = u64> {
    (0..n as u64).map(move |i| seed.wrapping_add(i))
}

pub struct GenCorpus {
    seed: u64,
    campaigns: usize,
    cfg: DetectConfig,
    scratch: PathBuf,
}

impl GenCorpus {
    pub fn setup(seed: u64, scale: Scale, tmp: &Path) -> Result<Self, String> {
        Ok(GenCorpus {
            seed,
            campaigns: scale.pick(CAMPAIGNS, 13),
            cfg: config(seed),
            scratch: tmp.join("replay.csnake"),
        })
    }
}

/// What the batch loop threads through every campaign.
struct Batch<'a> {
    cfg: &'a DetectConfig,
    tracer: Option<&'a Tracer>,
    replay: Option<Replay>,
    layer: Values,
    total: Outcome,
    campaigns: u32,
}

impl Batch<'_> {
    fn run(&mut self, system: &ScenarioSystem) -> Result<(), String> {
        let target: &dyn TargetSystem = system;
        let outcome = match self.tracer {
            None => campaign::run(target, self.cfg)?,
            Some(tracer) => campaign::run_traced(
                target,
                self.cfg,
                tracer,
                &mut self.layer,
                self.replay.as_mut(),
            )?,
        };
        self.total.absorb(&outcome);
        self.campaigns += 1;
        if let Some(tracer) = self.tracer {
            tracer.set_campaign(self.campaigns);
        }
        Ok(())
    }
}

impl Workload for GenCorpus {
    fn work_unit(&self) -> &'static str {
        "experiments"
    }

    fn iterate(&mut self, trace: Option<Trace<'_>>) -> Result<Iteration, String> {
        let tracer = trace.map(|t| t.tracer);
        let mut batch = Batch {
            cfg: &self.cfg,
            tracer,
            replay: trace
                .filter(|t| t.replay)
                .map(|_| Replay::new(&self.scratch)),
            layer: Values::new(),
            total: Outcome::default(),
            campaigns: 0,
        };
        let mut source_bytes = 0u64;
        if let Some(tracer) = tracer {
            tracer.set_campaign(0);
        }

        // The hand-written corpus: the loader reads and parses every file.
        let corpus = maybe_span(tracer, "scenario.parse", csnake_scenario::corpus_specs)
            .map_err(|e| e.to_string())?;
        for (path, spec) in corpus.values().take(self.campaigns) {
            if tracer.is_some() {
                source_bytes += std::fs::metadata(path).map_or(0, |m| m.len());
            }
            let system = maybe_span(tracer, "scenario.compile", || {
                csnake_scenario::compile(spec)
            })
            .map_err(|e| e.to_string())?;
            batch.run(&system)?;
        }

        // Generated scenarios take the full front-end round trip, as
        // `gen_eval` and `scenario_lint --gen` do.
        let generated = self.campaigns.saturating_sub(corpus.len());
        for seed in generated_seeds(self.seed, generated) {
            let scenario = maybe_span(tracer, "scenario.generate", || {
                csnake_gen::generate(seed, &GenConfig::default())
            });
            let text = maybe_span(tracer, "scenario.print", || {
                csnake_scenario::print(&scenario.spec)
            });
            source_bytes += text.len() as u64;
            let spec = maybe_span(tracer, "scenario.parse", || {
                csnake_scenario::parse_str(&text)
            })
            .map_err(|e| format!("gen:{seed}: {e}"))?;
            let system = maybe_span(tracer, "scenario.compile", || {
                csnake_scenario::compile(&spec)
            })
            .map_err(|e| format!("gen:{seed}: {e}"))?;
            batch.run(&system)?;
        }

        let Batch {
            mut layer,
            replay,
            total,
            campaigns,
            ..
        } = batch;
        if tracer.is_some() {
            layer.insert("scenario.specs", f64::from(campaigns));
            layer.insert("scenario.source_bytes", source_bytes as f64);
        }
        if let Some(replay) = replay {
            layer.extend(replay.finish());
        }
        Ok(Iteration {
            work: total.experiments,
            checks: vec![
                check(
                    format!(
                        "every planted and corpus bug matched over {campaigns} campaigns ({} undetected)",
                        total.undetected
                    ),
                    total.undetected == 0,
                ),
            ],
            layer,
            ..Iteration::from_outcome(&total)
        })
    }
}
