//! `stitch-hdfs3`: resume a `mini-hdfs3` campaign checkpointed at
//! `Allocated` and run a paper-scale stitch over its causal database.
//!
//! The only workload where `stitch` / `beam` / `report` and snapshot decode
//! do all the work and `sim` / `inject` / `fca` do none — on a *real*
//! causal database, not a synthetic one. Set-up runs the campaign once and
//! checkpoints it; each iteration is `Session::resume` → `stitch()` →
//! `report()`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use csnake_core::{Session, TargetSystem, ThreePhase};

use super::{Iteration, Scale, Trace, Workload};
use crate::campaign::{self, Outcome};
use crate::metrics::Values;
use crate::replay::Replay;
use crate::timed::TimedTarget;

pub struct StitchHdfs3 {
    target: Box<dyn TargetSystem>,
    checkpoint: PathBuf,
    scratch: PathBuf,
    /// Simulator events and seconds of the set-up campaign.
    setup_simulation: (u64, f64),
}

impl StitchHdfs3 {
    pub fn setup(scale: Scale, tmp: &Path) -> Result<Self, String> {
        let err = |e: csnake_core::CsnakeError| e.to_string();
        let target = csnake_gen::by_name("mini-hdfs3").map_err(err)?;
        // The shipped seeds: see `campaign::config` for why not `--seed`.
        let mut cfg = campaign::config(0, 3, &[800, 3200], scale.pick(12, 2));
        // Paper-scale search: a beam the real database does not fit in,
        // one hop longer than the default.
        cfg.beam.beam_size = scale.pick(250_000, 25_000);
        cfg.beam.max_len = 6;

        let checkpoint = tmp.join("allocated.csnake");
        let counted = TimedTarget::new(target.as_ref(), None);
        let t0 = Instant::now();
        let mut session = Session::builder(&counted)
            .config(cfg.clone())
            .build()
            .map_err(err)?;
        session.profile().map_err(err)?;
        session
            .allocate(&ThreePhase::new(cfg.alloc.clone()))
            .map_err(err)?;
        let simulated_s = t0.elapsed().as_secs_f64();
        session.checkpoint(&checkpoint).map_err(err)?;
        let events = counted.take_counts().events;
        drop(session);

        Ok(StitchHdfs3 {
            target,
            checkpoint,
            scratch: tmp.join("replay.csnake"),
            setup_simulation: (events, simulated_s),
        })
    }
}

impl Workload for StitchHdfs3 {
    fn work_unit(&self) -> &'static str {
        "cycles"
    }

    fn seeded(&self) -> bool {
        false
    }

    fn iterate(&mut self, trace: Option<Trace<'_>>) -> Result<Iteration, String> {
        let err = |e: csnake_core::CsnakeError| e.to_string();
        let target = self.target.as_ref();
        let mut layer = Values::new();
        let outcome = match trace {
            None => {
                let mut session = Session::resume(target, &self.checkpoint).map_err(err)?;
                session.stitch().map_err(err)?;
                session.report().map_err(err)?;
                Outcome::of(&session, Default::default())
            }
            Some(Trace { tracer, replay }) => {
                let mut session = tracer
                    .span("snapshot.resume", || {
                        Session::resume(target, &self.checkpoint)
                    })
                    .map_err(err)?;
                if replay {
                    let mut replay = Replay::new(&self.scratch);
                    tracer.off_clock(|| {
                        replay.snapshot_codec(target, &session.snapshot());
                        let alloc = session.allocation().expect("resumed at Allocated");
                        replay.stitch(alloc, &session.config().beam);
                    });
                    // The replay's `snapshot.resume_s` gives way to the
                    // in-line span's when the ledger merges the two.
                    layer.extend(replay.finish());
                }
                tracer
                    .span("session.stitch", || session.stitch().map(drop))
                    .map_err(err)?;
                tracer
                    .span("session.report", || session.report().map(drop))
                    .map_err(err)?;
                let outcome = tracer.span(campaign::CHECK_SPAN, || {
                    Outcome::of(&session, Default::default())
                });
                tracer.span(campaign::DROP_SPAN, || drop(session));
                outcome
            }
        };
        let mut iteration = Iteration::from_outcome(&outcome);
        iteration.work = outcome.cycles;
        // A resumed session executes nothing: no experiment cells, no
        // simulator events.
        iteration.cells = 0;
        iteration.layer = layer;
        Ok(iteration)
    }

    fn setup_simulation(&self) -> Option<(u64, f64)> {
        Some(self.setup_simulation)
    }
}
