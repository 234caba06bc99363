//! `openloop-1m`: a campaign on a `WorkloadSystem` offering one million
//! open-loop Poisson requests per run.
//!
//! The same `sim` / `driver` layers as `hdfs2-campaign` used the opposite
//! way: a handful of long, event-dense runs with a million pending timers.
//! The event wheel, `workload::system` and the whole-run latency fold do
//! the work; FCA, 3PA and the stitcher see one test and five fault points.
//! A per-event gain shows here and barely on `gen-corpus`; a per-run
//! fixed-cost gain does the reverse.

use std::hint::black_box;
use std::path::{Path, PathBuf};

use csnake_core::driver::seed_for;
use csnake_core::{DetectConfig, TargetSystem};
use csnake_inject::TestId;
use csnake_sim::{Sim, SimRng, VirtualTime, World};
use csnake_workload::{Arrival, ArrivalSource, WorkloadSpec, WorkloadSystem};

use super::{check, Check, Iteration, Scale, Trace, Workload};
use crate::campaign;
use crate::replay::timed;

const RATE_PER_SEC: f64 = 50_000.0;

pub struct Openloop1m {
    target: WorkloadSystem,
    source: ArrivalSource,
    cfg: DetectConfig,
    scratch: PathBuf,
    setup_checks: Vec<Check>,
}

/// A world that ignores every event: what is left is the scheduler.
struct NoopWorld;

impl World for NoopWorld {
    type Event = ();
    fn handle(&mut self, _sim: &mut Sim<()>, _ev: ()) {}
}

impl Openloop1m {
    pub fn setup(seed: u64, scale: Scale, tmp: &Path) -> Result<Self, String> {
        let offered: u64 = scale.pick(1_000_000, 100_000);
        let source = ArrivalSource::Process {
            arrival: Arrival::Poisson {
                rate_per_sec: RATE_PER_SEC,
            },
            offered,
        };
        let spec = WorkloadSpec {
            source: source.clone(),
            service: VirtualTime::from_micros(10),
            tick: VirtualTime::from_millis(5),
            // Fan-out 5 with two retry generations closes the planted
            // drain-loop → timeout → retry cascade.
            retry_fanout: 5,
            max_retries: 2,
            horizon: VirtualTime::from_secs(offered / RATE_PER_SEC as u64 + 10),
            event_limit: 50 * offered,
            ..WorkloadSpec::default()
        };
        let target = WorkloadSystem::with_spec("openloop-1m", spec);
        // The arrival stream is sampled from each run's seed, so `--seed`
        // perturbs it through `base_seed`.
        let cfg = campaign::config(seed, 3, &[100, 800, 3200], 4);

        // Uninjected, the service keeps up: every offered request completes.
        let test = TestId(0);
        for rep in 0..cfg.driver.reps {
            target.run(test, None, seed_for(cfg.driver.base_seed, test, rep));
        }
        let setup_checks = target
            .drain_workload_summaries()
            .iter()
            .map(|s| {
                check(
                    format!(
                        "uninjected run (seed {:#x}) completes all {} offered requests: {} completed, {} dropped",
                        s.seed, s.offered, s.completed, s.dropped
                    ),
                    s.offered == offered && s.completed == offered && s.dropped == 0,
                )
            })
            .collect();

        Ok(Openloop1m {
            target,
            source,
            cfg,
            scratch: tmp.join("replay.csnake"),
            setup_checks,
        })
    }

    /// The scheduler's share of one run: sample the run's own arrival
    /// stream, then schedule and drain it through `Sim` with a world that
    /// does nothing.
    fn scheduler_replay(&self, layer: &mut crate::metrics::Values) {
        let seed = seed_for(self.cfg.driver.base_seed, TestId(0), 0);
        let (arrival_s, arrivals) =
            timed(|| self.source.times(&mut SimRng::new(seed).derive("arrivals")));
        let (drain_s, drained) = timed(|| {
            let mut sim: Sim<()> = Sim::new(seed);
            sim.event_limit = u64::MAX;
            for at in &arrivals {
                sim.schedule_at(*at, ());
            }
            sim.run(&mut NoopWorld, VirtualTime::MAX)
        });
        assert_eq!(black_box(drained), arrivals.len() as u64);
        layer.insert("workload.arrival_s", arrival_s);
        layer.insert("sim.sched_drain_s", drain_s);
    }
}

impl Workload for Openloop1m {
    fn work_unit(&self) -> &'static str {
        "simulated requests"
    }

    fn iterate(&mut self, trace: Option<Trace<'_>>) -> Result<Iteration, String> {
        let (outcome, mut layer) =
            campaign::iterate(&self.target, &self.cfg, trace, &self.scratch)?;
        if let Some(trace) = trace.filter(|t| t.replay) {
            trace.tracer.off_clock(|| self.scheduler_replay(&mut layer));
        }
        Ok(Iteration {
            work: self.source.offered() * outcome.runs,
            checks: vec![
                check(
                    format!("exactly one cycle reported (got {})", outcome.cycles),
                    outcome.cycles == 1,
                ),
                check(
                    format!(
                        "planted retry storm matched ({} undetected)",
                        outcome.undetected
                    ),
                    outcome.undetected == 0 && outcome.tp_clusters == 1,
                ),
            ],
            layer,
            ..Iteration::from_outcome(&outcome)
        })
    }

    fn setup_checks(&self) -> Vec<Check> {
        self.setup_checks.clone()
    }
}
