//! Replays: call one layer's public function directly, single-threaded, on
//! inputs captured from the campaign that just ran, and time only that
//! call. They run off the clock in one traced iteration and fill the
//! ledger rows no decorator can see (FCA, trace indexing, the stitch
//! index, the snapshot codec).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use csnake_core::driver::seed_for;
use csnake_core::{
    analyze_experiment_indexed, cluster_cycles, AllocationResult, BeamConfig, DetectConfig,
    ProfileIndex, Session, Snapshot, StitchIndex, TargetSystem,
};
use csnake_inject::{
    tracing_switch, FaultId, FaultKind, InjectionPlan, Registry, RunTrace, TestId, TraceIndex,
};
use csnake_sim::VirtualTime;

use crate::metrics::{ratio, Values};

/// Experiments whose run sets the FCA / trace-index replays re-simulate,
/// per traced run.
const FCA_REPLAY_EXPERIMENTS: usize = 64;

/// Seconds `f` took, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Accumulates replay timings over the campaigns of one traced iteration.
pub struct Replay {
    values: Values,
    fca_budget: usize,
    tracing_on_s: f64,
    tracing_off_s: f64,
    scratch: PathBuf,
}

impl Replay {
    /// `scratch` is a file path the snapshot replay may overwrite.
    pub fn new(scratch: &Path) -> Self {
        Replay {
            values: Values::new(),
            fca_budget: FCA_REPLAY_EXPERIMENTS,
            tracing_on_s: 0.0,
            tracing_off_s: 0.0,
            scratch: scratch.to_path_buf(),
        }
    }

    fn add(&mut self, name: &'static str, value: f64) {
        *self.values.entry(name).or_default() += value;
    }

    /// Every replay that needs only an allocated session.
    pub fn campaign(&mut self, target: &dyn TargetSystem, session: &Session<'_>) {
        let cfg = session.config().clone();
        let snapshot = session.snapshot();
        self.snapshot_codec(target, &snapshot);
        self.tracing_overhead(target, &cfg);
        if let (Some(profiles), Some(alloc)) = (&snapshot.profiles, &snapshot.alloc) {
            self.fca(target, &cfg, profiles, alloc);
            self.stitch(alloc, &cfg.beam);
        }
        // Workload targets buffer one latency summary per run; the replays'
        // runs are not the campaign's.
        drop(target.drain_workload_summaries());
    }

    /// `Snapshot::to_bytes` / `from_bytes` at the `Allocated` boundary and a
    /// full `Session::resume` from the file.
    pub fn snapshot_codec(&mut self, target: &dyn TargetSystem, snapshot: &Snapshot) {
        let (encode_s, bytes) = timed(|| snapshot.to_bytes());
        self.add("snapshot.encode_s", encode_s);
        self.add("snapshot.bytes", bytes.len() as f64);
        let (decode_s, decoded) = timed(|| Snapshot::from_bytes(&bytes));
        self.add("snapshot.decode_s", decode_s);
        black_box(decoded.expect("a snapshot decodes from its own bytes"));
        std::fs::write(&self.scratch, &bytes).expect("scratch snapshot is writable");
        let (resume_s, resumed) = timed(|| Session::resume(target, &self.scratch));
        self.add("snapshot.resume_s", resume_s);
        black_box(
            resumed
                .expect("a snapshot resumes against its own target")
                .stage(),
        );
    }

    /// §8.5: the first test's profile runs with the agent's monitoring on
    /// and off, interleaved.
    fn tracing_overhead(&mut self, target: &dyn TargetSystem, cfg: &DetectConfig) {
        let Some(test) = target.tests().first().map(|t| t.id) else {
            return;
        };
        let run_set = |on: bool| {
            tracing_switch::set(on);
            let (secs, ()) = timed(|| {
                for rep in 0..cfg.driver.reps {
                    black_box(target.run(test, None, seed_for(cfg.driver.base_seed, test, rep)));
                }
            });
            secs
        };
        for _ in 0..3 {
            self.tracing_on_s += run_set(true);
            self.tracing_off_s += run_set(false);
        }
        tracing_switch::set(true);
    }

    /// Re-simulates the run sets of the campaign's first experiments and
    /// times `TraceIndex::build` and `analyze_experiment_indexed` on them.
    /// `fca.analyze_s` therefore *includes* one injection-side index build
    /// per run set, as it does in the driver.
    fn fca(
        &mut self,
        target: &dyn TargetSystem,
        cfg: &DetectConfig,
        profiles: &BTreeMap<TestId, Vec<RunTrace>>,
        alloc: &AllocationResult,
    ) {
        let registry = target.registry();
        let (index_s, profile_idx) = timed(|| {
            profiles
                .iter()
                .map(|(test, traces)| (*test, ProfileIndex::build(&registry, traces)))
                .collect::<BTreeMap<TestId, ProfileIndex>>()
        });
        self.add("fca.profile_index_s", index_s);

        let taken = alloc.outcomes.len().min(self.fca_budget);
        self.fca_budget -= taken;
        for outcome in &alloc.outcomes[..taken] {
            let Some(profile) = profile_idx.get(&outcome.test) else {
                continue;
            };
            for plan in plans_for(&registry, outcome.fault, &cfg.driver.delay_values_ms) {
                let traces: Vec<RunTrace> = (0..cfg.driver.reps)
                    .map(|rep| {
                        let seed = seed_for(cfg.driver.base_seed, outcome.test, rep);
                        target.run(outcome.test, Some(plan), seed)
                    })
                    .collect();
                let (build_s, index) = timed(|| TraceIndex::build(&registry, &traces));
                black_box(index);
                self.add("inject.trace_index_build_s", build_s);
                self.add("inject.trace_index_builds", 1.0);
                let (analyze_s, analysed) = timed(|| {
                    analyze_experiment_indexed(
                        &registry,
                        profile,
                        &traces,
                        plan,
                        outcome.test,
                        1,
                        &cfg.driver.fca,
                    )
                });
                self.add("fca.analyze_s", analyze_s);
                self.add("fca.analyses", 1.0);
                self.add("fca.edges", analysed.edges.len() as f64);
            }
        }
    }

    /// The three steps `Session::stitch` performs, one at a time.
    pub fn stitch(&mut self, alloc: &AllocationResult, beam: &BeamConfig) {
        let (build_s, index) = timed(|| StitchIndex::build(&alloc.db, beam.threads));
        let sim_of = |f: FaultId| alloc.sim_score_of(f);
        let (search_s, cycles) = timed(|| index.search(&sim_of, beam));
        let (cluster_s, clusters) = timed(|| cluster_cycles(&cycles, &alloc.db, &alloc.cluster_of));
        self.add("stitch.index_build_s", build_s);
        self.add("stitch.search_s", search_s);
        self.add("stitch.cluster_cycles_s", cluster_s);
        self.add("stitch.edges", alloc.db.len() as f64);
        self.add("stitch.cycles", cycles.len() as f64);
        self.add("stitch.clusters", clusters.len() as f64);
    }

    /// The accumulated rows.
    pub fn finish(mut self) -> Values {
        if self.tracing_off_s > 0.0 {
            let share = ratio(self.tracing_on_s, self.tracing_off_s) - 1.0;
            self.values.insert("inject.trace_overhead_share", share);
        }
        self.values
    }
}

/// The injection plans the driver sweeps for one fault: every configured
/// delay for a loop point, one throw or negation otherwise.
fn plans_for(registry: &Registry, fault: FaultId, delays_ms: &[u64]) -> Vec<InjectionPlan> {
    match registry.point(fault).kind {
        FaultKind::LoopPoint => delays_ms
            .iter()
            .map(|ms| InjectionPlan::delay(fault, VirtualTime::from_millis(*ms)))
            .collect(),
        FaultKind::Throw | FaultKind::LibCall => vec![InjectionPlan::throw(fault)],
        FaultKind::Negation => vec![InjectionPlan::negate(fault)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csnake_core::ThreePhase;

    #[test]
    fn replays_fill_their_rows_and_leave_tracing_on() {
        let target = csnake_gen::by_name("toy").unwrap();
        let cfg = crate::campaign::config(0, 3, &[800], 4);
        let mut session = Session::builder(target.as_ref())
            .config(cfg.clone())
            .build()
            .unwrap();
        session.profile().unwrap();
        session
            .allocate(&ThreePhase::new(cfg.alloc.clone()))
            .unwrap();

        let tmp = crate::tmp::TempDir::new("replay-test").unwrap();
        let mut replay = Replay::new(&tmp.path().join("replay.csnake"));
        replay.campaign(target.as_ref(), &session);
        assert!(tracing_switch::get(), "monitoring is switched back on");
        let rows = replay.finish();

        // The replayed stitch sees exactly what the session's stitch sees.
        let stitched = session.stitch().unwrap();
        assert_eq!(rows["stitch.cycles"], stitched.cycles.len() as f64);
        assert_eq!(rows["stitch.clusters"], stitched.clusters.len() as f64);
        // One index build and one analysis per replayed run set.
        assert_eq!(rows["inject.trace_index_builds"], rows["fca.analyses"]);
        assert!(rows["fca.analyses"] >= session.allocation().unwrap().outcomes.len() as f64);
        assert!(rows["fca.edges"] > 0.0);
        assert!(rows["snapshot.bytes"] > 0.0);
        assert!(rows.contains_key("inject.trace_overhead_share"));
    }
}
