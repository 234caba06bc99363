//! Pass-through decorators: the only way the harness looks inside a
//! campaign. Each wraps a public extension point (`TargetSystem`,
//! `ExperimentEngine`, the coordinator side of an `Endpoint`), forwards
//! every call unchanged, and records what crossed it. A wrapped campaign's
//! report is Debug-identical to an unwrapped one (see the tests in
//! `campaign.rs` and `workloads/fleet_gen.rs`).

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use csnake_core::alloc::{ExperimentEngine, ShardSpan};
use csnake_core::{
    CampaignObserver, Driver, ExperimentOutcome, KnownBug, TargetSystem, TestCase, WorkloadSummary,
};
use csnake_daemon::transport::{WireRx, WireTx};
use csnake_daemon::wire::WireMsg;
use csnake_daemon::Endpoint;
use csnake_inject::{FaultId, InjectionPlan, Registry, RunTrace, TestId};

use crate::spans::Tracer;

/// Sums of what the wrapped target's runs reported since the last take.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounts {
    pub runs: u64,
    pub events: u64,
    pub hooks: u64,
}

/// A `TargetSystem` that forwards to `inner`. Untraced it only adds three
/// integers per run; with a tracer it also records each run as a
/// `target.run` span.
pub struct TimedTarget<'a> {
    inner: &'a dyn TargetSystem,
    tracer: Option<&'a Tracer>,
    // Statistics only: nothing is published through them, so Relaxed.
    runs: AtomicU64,
    events: AtomicU64,
    hooks: AtomicU64,
}

impl<'a> TimedTarget<'a> {
    pub fn new(inner: &'a dyn TargetSystem, tracer: Option<&'a Tracer>) -> Self {
        TimedTarget {
            inner,
            tracer,
            runs: AtomicU64::new(0),
            events: AtomicU64::new(0),
            hooks: AtomicU64::new(0),
        }
    }

    fn count(&self, trace: &RunTrace) {
        self.runs.fetch_add(1, Ordering::Relaxed);
        self.events.fetch_add(trace.events, Ordering::Relaxed);
        self.hooks.fetch_add(trace.hook_count, Ordering::Relaxed);
    }

    /// Returns and zeroes the counters.
    pub fn take_counts(&self) -> RunCounts {
        RunCounts {
            runs: self.runs.swap(0, Ordering::Relaxed),
            events: self.events.swap(0, Ordering::Relaxed),
            hooks: self.hooks.swap(0, Ordering::Relaxed),
        }
    }
}

impl TargetSystem for TimedTarget<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn registry(&self) -> Arc<Registry> {
        self.inner.registry()
    }

    fn tests(&self) -> Vec<TestCase> {
        self.inner.tests()
    }

    fn run(&self, test: TestId, plan: Option<InjectionPlan>, seed: u64) -> RunTrace {
        let Some(tracer) = self.tracer else {
            let trace = self.inner.run(test, plan, seed);
            self.count(&trace);
            return trace;
        };
        if tracer.paused() {
            return self.inner.run(test, plan, seed);
        }
        let start = Instant::now();
        let trace = self.inner.run(test, plan, seed);
        tracer.leaf("target.run", start, Instant::now());
        self.count(&trace);
        trace
    }

    fn known_bugs(&self) -> Vec<KnownBug> {
        self.inner.known_bugs()
    }

    fn expected_contention_labels(&self) -> Vec<&'static str> {
        self.inner.expected_contention_labels()
    }

    fn drain_workload_summaries(&self) -> Vec<WorkloadSummary> {
        self.inner.drain_workload_summaries()
    }
}

/// An `ExperimentEngine` that forwards to a profiled [`Driver`] and records
/// each batch as a `driver.batch` span. The driver's own profile runs are
/// kept out of `runs_executed` so the session's accounting matches a
/// campaign that allocated on its own driver.
pub struct TimedEngine<'a, 't> {
    inner: Driver<'a>,
    profile_runs: usize,
    tracer: &'t Tracer,
    experiments: u64,
}

impl<'a, 't> TimedEngine<'a, 't> {
    pub fn new(inner: Driver<'a>, tracer: &'t Tracer) -> Self {
        let profile_runs = inner.runs_executed;
        TimedEngine {
            inner,
            profile_runs,
            tracer,
            experiments: 0,
        }
    }

    /// Experiments that went through the engine.
    pub fn experiments(&self) -> u64 {
        self.experiments
    }
}

impl ExperimentEngine for TimedEngine<'_, '_> {
    fn faults(&self) -> Vec<FaultId> {
        self.inner.faults()
    }

    fn tests_reaching(&self, f: FaultId) -> Vec<TestId> {
        self.inner.tests_reaching(f)
    }

    fn coverage_size(&self, t: TestId) -> usize {
        self.inner.coverage_size(t)
    }

    fn run_experiment(&mut self, f: FaultId, t: TestId, phase: u8) -> ExperimentOutcome {
        self.experiments += 1;
        let _span = self.tracer.enter("driver.batch");
        self.inner.run_experiment(f, t, phase)
    }

    fn run_experiments(&mut self, batch: &[(FaultId, TestId, u8)]) -> Vec<ExperimentOutcome> {
        self.experiments += batch.len() as u64;
        let _span = self.tracer.enter("driver.batch");
        self.inner.run_experiments(batch)
    }

    fn run_experiments_checkpointed(
        &mut self,
        batch: &[(FaultId, TestId, u8)],
        progress: &mut dyn FnMut(&[ShardSpan]),
    ) -> Vec<ExperimentOutcome> {
        self.experiments += batch.len() as u64;
        let _span = self.tracer.enter("driver.batch");
        self.inner.run_experiments_checkpointed(batch, progress)
    }

    fn take_gaps(&mut self) -> Vec<(FaultId, TestId, u8)> {
        self.inner.take_gaps()
    }

    fn runs_executed(&self) -> usize {
        ExperimentEngine::runs_executed(&self.inner) - self.profile_runs
    }

    fn attach_observer(&mut self, observer: Arc<dyn CampaignObserver>) {
        self.inner.attach_observer(observer);
    }

    fn trace_cache_stats(&self) -> (usize, usize) {
        ExperimentEngine::trace_cache_stats(&self.inner)
    }
}

/// Direction of a recorded frame, from the coordinator's side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    Sent,
    Received,
}

/// One message that crossed a wrapped coordinator endpoint.
pub struct WireEvent {
    pub dir: Dir,
    /// When the call returned.
    pub at: Instant,
    /// How long the `send` / `recv` call took (for `recv`, mostly waiting
    /// for the worker).
    pub blocked_ns: u64,
    pub msg: WireMsg,
}

/// Everything the wrapped endpoints of one run recorded.
#[derive(Default)]
pub struct WireLog {
    events: Mutex<Vec<WireEvent>>,
}

impl WireLog {
    fn push(&self, dir: Dir, started: Instant, msg: &WireMsg) {
        let at = Instant::now();
        self.events
            .lock()
            .expect("wire log poisoned")
            .push(WireEvent {
                dir,
                at,
                blocked_ns: (at - started).as_nanos() as u64,
                msg: msg.clone(),
            });
    }

    /// Takes the recorded events, oldest first per connection.
    pub fn take(&self) -> Vec<WireEvent> {
        std::mem::take(&mut *self.events.lock().expect("wire log poisoned"))
    }
}

struct TimedTx {
    inner: Box<dyn WireTx>,
    log: Arc<WireLog>,
}

impl WireTx for TimedTx {
    fn send(&mut self, msg: &WireMsg) -> io::Result<()> {
        let started = Instant::now();
        let sent = self.inner.send(msg);
        if sent.is_ok() {
            self.log.push(Dir::Sent, started, msg);
        }
        sent
    }
}

struct TimedRx {
    inner: Box<dyn WireRx>,
    log: Arc<WireLog>,
}

impl WireRx for TimedRx {
    fn recv(&mut self) -> io::Result<Option<WireMsg>> {
        let started = Instant::now();
        let got = self.inner.recv();
        if let Ok(Some(msg)) = &got {
            self.log.push(Dir::Received, started, msg);
        }
        got
    }
}

/// Wraps the coordinator side of a connection so every frame is logged.
pub fn timed_endpoint(endpoint: Endpoint, log: &Arc<WireLog>) -> Endpoint {
    Endpoint {
        tx: Box::new(TimedTx {
            inner: endpoint.tx,
            log: Arc::clone(log),
        }),
        rx: Box::new(TimedRx {
            inner: endpoint.rx,
            log: Arc::clone(log),
        }),
    }
}
