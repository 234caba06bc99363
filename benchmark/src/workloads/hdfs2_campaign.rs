//! `hdfs2-campaign`: one full single-process campaign on `mini-hdfs2`, the
//! paper's headline target, at the evaluation budget.
//!
//! Many short simulator runs over a large registry: almost all of the wall
//! is the allocation stage (hand-coded target + `sim` + the `inject` agent's
//! hooks, then `TraceIndex` + FCA per run set). Gains in sim / inject / fca
//! / driver must show here; stitch and codec work must not.

use std::path::{Path, PathBuf};

use csnake_core::{DetectConfig, TargetSystem};

use super::{Iteration, Scale, Trace, Workload};
use crate::campaign;

pub struct Hdfs2Campaign {
    target: Box<dyn TargetSystem>,
    cfg: DetectConfig,
    scratch: PathBuf,
}

impl Hdfs2Campaign {
    pub fn setup(scale: Scale, tmp: &Path) -> Result<Self, String> {
        Ok(Hdfs2Campaign {
            target: csnake_gen::by_name("mini-hdfs2").map_err(|e| e.to_string())?,
            // The `tests/hdfs_full_campaign.rs` settings: budget 12·|F|,
            // 3 repetitions, a two-point delay sweep, the shipped seeds
            // (see `campaign::config` for why not `--seed`).
            cfg: campaign::config(0, 3, &[800, 3200], scale.pick(12, 2)),
            scratch: tmp.join("replay.csnake"),
        })
    }
}

impl Workload for Hdfs2Campaign {
    fn work_unit(&self) -> &'static str {
        "experiments"
    }

    fn seeded(&self) -> bool {
        false
    }

    fn iterate(&mut self, trace: Option<Trace<'_>>) -> Result<Iteration, String> {
        let (outcome, layer) =
            campaign::iterate(self.target.as_ref(), &self.cfg, trace, &self.scratch)?;
        Ok(Iteration {
            work: outcome.experiments,
            layer,
            ..Iteration::from_outcome(&outcome)
        })
    }
}
