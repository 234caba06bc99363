//! The open-loop workload target: a request service driven by an arrival
//! process (or recorded trace) that measures per-request latency.
//!
//! Architecture of the simulated service:
//!
//! * a **gateway** enqueues each arriving request into a bounded queue,
//!   stamping it with its *intended* arrival instant (open-loop: the
//!   latency clock starts when the traffic source fired, not when the
//!   backed-up server got around to accepting);
//! * a **server** drains the queue on a fixed tick cadence through the
//!   instrumented `drain_loop`, paying a service cost per request;
//! * requests whose completion latency exceeds the deadline raise the
//!   `req_timeout` exception; on retry-enabled workloads a timed-out
//!   request is speculatively re-submitted `retry_fanout` times — the
//!   amplifier that closes the seeded cascade
//!   `delay(drain_loop) → req_timeout → delay(drain_loop)`;
//! * an **admission monitor** polls queue depth (`admission_ok` detector).
//!
//! Every run folds its latency measurements into a
//! [`WorkloadSummary`] (whole-run percentiles plus fixed-width windows)
//! buffered on the system and drained via
//! [`TargetSystem::drain_workload_summaries`].

use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use csnake_core::{KnownBug, TargetSystem, TestCase, WorkloadSummary, WorkloadWindow};
use csnake_inject::{
    Agent, BoolSource, BranchId, ExceptionCategory, FaultId, FnId, InjectionPlan, Registry,
    RegistryBuilder, RunTrace, TestId,
};
use csnake_sim::{Clock, Sim, VirtualTime, World};
use csnake_targets::common::timeouts;

use crate::arrival::{Arrival, ArrivalSource};
use crate::trace::RecordedTrace;

/// Instrumentation ids of the workload service.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadIds {
    fn_server: FnId,
    fn_handle: FnId,
    fn_monitor: FnId,
    /// Server drain loop (delay-injection candidate).
    pub l_drain: FaultId,
    /// Constant-bound warmup loop (filtered by the analyzer).
    pub l_warmup: FaultId,
    /// Request-deadline timeout exception.
    pub tp_timeout: FaultId,
    /// Queue-depth admission detector (error when overloaded).
    pub np_admission: FaultId,
    /// JDK-utility emptiness check (filtered by the analyzer).
    pub np_empty: FaultId,
    br_backlog: BranchId,
}

/// Full parameterisation of one open-loop workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Where requests come from: an arrival process or a recorded trace.
    pub source: ArrivalSource,
    /// Per-request service cost.
    pub service: VirtualTime,
    /// Completion-latency deadline; beyond it the request times out.
    pub deadline: VirtualTime,
    /// Server drain cadence.
    pub tick: VirtualTime,
    /// Speculative re-submissions per timed-out request (0 = no retries).
    pub retry_fanout: u32,
    /// Retry-depth bound per original request.
    pub max_retries: u8,
    /// Bounded queue capacity; overflow is shed (counted as dropped).
    pub queue_cap: usize,
    /// Latency-window width for the windowed percentiles.
    pub window: VirtualTime,
    /// Run horizon.
    pub horizon: VirtualTime,
    /// Simulator event budget for one run (raise for million-request runs).
    pub event_limit: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            source: ArrivalSource::Process {
                arrival: Arrival::Poisson {
                    rate_per_sec: 1_500.0,
                },
                offered: 6_000,
            },
            service: VirtualTime::from_micros(250),
            deadline: timeouts::OPERATION,
            tick: VirtualTime::from_millis(10),
            retry_fanout: 0,
            max_retries: 0,
            queue_cap: 50_000,
            window: VirtualTime::from_millis(250),
            horizon: VirtualTime::from_secs(20),
            event_limit: 2_000_000,
        }
    }
}

/// A tiny recorded trace bundled for the `trace_replay` workload and the
/// quickstart example: a browse burst, a checkout, a lull, a second burst.
pub const SAMPLE_TRACE: &str = "\
# bundled sample: checkout burst, lull, second burst (relative time)
0us     browse
800us   browse
1500us  browse
2200us  browse
3ms     checkout
3500us  browse
4ms     browse
1s      browse
1000500us browse
1001ms  checkout
1002ms  browse
2s      browse
2001ms  browse
2002ms  checkout
2003ms  browse
2500ms  browse
";

/// The open-loop workload target system.
pub struct WorkloadSystem {
    name: &'static str,
    registry: Arc<Registry>,
    ids: WorkloadIds,
    tests: Vec<(TestCase, WorkloadSpec)>,
    summaries: Mutex<Vec<WorkloadSummary>>,
}

impl Default for WorkloadSystem {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkloadSystem {
    fn build_registry() -> (Arc<Registry>, WorkloadIds) {
        let mut b = RegistryBuilder::new("workload");
        let fn_server = b.func("RequestServer.drainBatch");
        let fn_handle = b.func("RequestServer.handleRequest");
        let fn_monitor = b.func("AdmissionMonitor.poll");
        let l_drain = b.workload_loop(fn_server, 30, true, "drain_loop");
        let l_warmup = b.const_loop(fn_server, 12, 2, "drain_warmup");
        let tp_timeout = b.throw_point(
            fn_handle,
            55,
            "TimeoutException",
            ExceptionCategory::SystemSpecific,
            "req_timeout",
        );
        let np_admission = b.negation_point(
            fn_monitor,
            8,
            false,
            BoolSource::ErrorDetector,
            "admission_ok",
        );
        let np_empty =
            b.negation_point(fn_monitor, 10, true, BoolSource::JdkUtility, "queue_empty");
        let br_backlog = b.branch(fn_server, 31);
        let ids = WorkloadIds {
            fn_server,
            fn_handle,
            fn_monitor,
            l_drain,
            l_warmup,
            tp_timeout,
            np_admission,
            np_empty,
            br_backlog,
        };
        (Arc::new(b.build()), ids)
    }

    /// The standard four-workload system: Poisson steady state, bursty
    /// traffic with the retry amplifier, a diurnal rate curve, and a
    /// recorded-trace replay.
    pub fn new() -> Self {
        let (registry, ids) = Self::build_registry();
        let tests = vec![
            (
                TestCase {
                    id: TestId(0),
                    name: "test_poisson_steady",
                    description: "Poisson 1500 rps open loop, retries disabled",
                },
                WorkloadSpec::default(),
            ),
            (
                TestCase {
                    id: TestId(1),
                    name: "test_bursty_retry",
                    description: "on/off bursts with speculative retry fanout 5",
                },
                WorkloadSpec {
                    source: ArrivalSource::Process {
                        arrival: Arrival::Bursty {
                            rate_per_sec: 3_000.0,
                            on: VirtualTime::from_millis(200),
                            off: VirtualTime::from_millis(300),
                        },
                        offered: 3_000,
                    },
                    retry_fanout: 5,
                    max_retries: 2,
                    ..WorkloadSpec::default()
                },
            ),
            (
                TestCase {
                    id: TestId(2),
                    name: "test_diurnal_sweep",
                    description: "raised-cosine diurnal rate 200–2500 rps",
                },
                WorkloadSpec {
                    source: ArrivalSource::Process {
                        arrival: Arrival::Diurnal {
                            low_per_sec: 200.0,
                            high_per_sec: 2_500.0,
                            period: VirtualTime::from_secs(4),
                        },
                        offered: 4_000,
                    },
                    ..WorkloadSpec::default()
                },
            ),
            (
                TestCase {
                    id: TestId(3),
                    name: "test_trace_replay",
                    description: "bundled recorded trace replayed verbatim",
                },
                WorkloadSpec {
                    source: ArrivalSource::Trace(
                        RecordedTrace::parse(SAMPLE_TRACE).expect("bundled trace parses"),
                    ),
                    horizon: VirtualTime::from_secs(10),
                    ..WorkloadSpec::default()
                },
            ),
        ];
        WorkloadSystem {
            name: "workload:open-loop",
            registry,
            ids,
            tests,
            summaries: Mutex::new(Vec::new()),
        }
    }

    /// A single-workload system over an arbitrary spec — the bench and
    /// example entry point for million-request experiments.
    pub fn with_spec(name: &'static str, spec: WorkloadSpec) -> Self {
        let (registry, ids) = Self::build_registry();
        let tests = vec![(
            TestCase {
                id: TestId(0),
                name: "test_custom_open_loop",
                description: "caller-specified open-loop workload",
            },
            spec,
        )];
        WorkloadSystem {
            name,
            registry,
            ids,
            tests,
            summaries: Mutex::new(Vec::new()),
        }
    }

    /// The instrumentation ids (used by examples and tests).
    pub fn ids(&self) -> WorkloadIds {
        self.ids
    }

    /// One run's simulator — arrival stream registered, first tick and
    /// monitor poll scheduled — and the world it drives.
    fn start<'a>(
        &self,
        spec: &'a WorkloadSpec,
        agent: Rc<Agent>,
        seed: u64,
    ) -> (Sim<Ev>, WorkloadWorld<'a>) {
        let mut sim = Sim::new(seed);
        sim.event_limit = spec.event_limit;
        // The arrival stream is sampled from a derived sub-RNG as it fires,
        // open-loop: arrivals never yield to server back-pressure, which is
        // what lets a cascade's queueing delay compound instead of
        // self-throttling.
        let rng = sim.rng().derive("arrivals");
        spec.source.schedule(&mut sim, rng, Ev::Arrive);
        sim.schedule(spec.tick, Ev::Tick);
        sim.schedule(VirtualTime::from_secs(1), Ev::Monitor);
        let world = WorkloadWorld {
            agent,
            ids: self.ids,
            latency: LatencyLog::new(spec.window, spec.horizon, spec.source.offered() as usize),
            spec,
            queue: VecDeque::new(),
            completed: 0,
            dropped: 0,
        };
        (sim, world)
    }

    /// The spec backing a test case.
    pub fn spec_for(&self, test: TestId) -> Option<&WorkloadSpec> {
        self.tests
            .iter()
            .find(|(tc, _)| tc.id == test)
            .map(|(_, spec)| spec)
    }
}

#[derive(Debug, Clone, Copy)]
struct Req {
    intended: VirtualTime,
    retries: u8,
}

enum Ev {
    /// A request arrives; carries its intended instant.
    Arrive(VirtualTime),
    Tick,
    Monitor,
}

/// Latency accounting: exact whole-run samples plus per-window samples.
struct LatencyLog {
    window_us: u64,
    /// Per-window samples; completions past the horizon fold into the
    /// last window.
    windows: Vec<Vec<u32>>,
    all: Vec<u32>,
}

impl LatencyLog {
    fn new(window: VirtualTime, horizon: VirtualTime, capacity: usize) -> Self {
        let window_us = window.as_micros().max(1);
        let count = (horizon.as_micros() / window_us + 1).min(4_096) as usize;
        LatencyLog {
            window_us,
            windows: (0..count.max(1)).map(|_| Vec::new()).collect(),
            all: Vec::with_capacity(capacity),
        }
    }

    fn record(&mut self, completed_at: VirtualTime, latency: VirtualTime) {
        let us = latency.as_micros().min(u32::MAX as u64) as u32;
        self.all.push(us);
        let idx = (completed_at.as_micros() / self.window_us) as usize;
        let idx = idx.min(self.windows.len() - 1);
        self.windows[idx].push(us);
    }
}

/// Nearest-rank percentile of an already-sorted sample set.
fn percentile(sorted: &[u32], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as u64
}

struct WorkloadWorld<'a> {
    agent: Rc<Agent>,
    ids: WorkloadIds,
    spec: &'a WorkloadSpec,
    queue: VecDeque<Req>,
    completed: u64,
    dropped: u64,
    latency: LatencyLog,
}

impl World for WorkloadWorld<'_> {
    type Event = Ev;

    fn handle(&mut self, sim: &mut Sim<Ev>, ev: Ev) {
        match ev {
            Ev::Arrive(intended) => {
                // Open-loop: the latency clock starts at the *intended*
                // arrival instant even when this event runs late behind a
                // backed-up simulator queue.
                if self.queue.len() >= self.spec.queue_cap {
                    self.dropped += 1;
                } else {
                    self.queue.push_back(Req {
                        intended,
                        retries: 0,
                    });
                }
            }
            Ev::Tick => {
                let _f = self.agent.frame(self.ids.fn_server);
                {
                    let warm = self.agent.loop_enter(self.ids.l_warmup);
                    for _ in 0..2 {
                        warm.iter(sim);
                    }
                }
                self.agent
                    .branch(self.ids.br_backlog, !self.queue.is_empty());
                {
                    let drain = self.agent.loop_enter(self.ids.l_drain);
                    while let Some(req) = self.queue.pop_front() {
                        drain.iter(sim);
                        sim.advance(self.spec.service);
                        let _h = self.agent.frame(self.ids.fn_handle);
                        let latency = sim.now().saturating_sub(req.intended);
                        let timed_out = self.agent.throw_guard(self.ids.tp_timeout).is_some()
                            || if latency > self.spec.deadline {
                                self.agent.throw_fired(self.ids.tp_timeout);
                                true
                            } else {
                                false
                            };
                        if timed_out {
                            // Speculative re-execution: the retry-storm
                            // amplifier behind the seeded cascade.
                            if self.spec.retry_fanout > 0 && req.retries < self.spec.max_retries {
                                for _ in 0..self.spec.retry_fanout {
                                    self.queue.push_back(Req {
                                        intended: sim.now(),
                                        retries: req.retries + 1,
                                    });
                                }
                            }
                        } else {
                            self.completed += 1;
                            self.latency.record(sim.now(), latency);
                        }
                    }
                }
                sim.schedule(self.spec.tick, Ev::Tick);
            }
            Ev::Monitor => {
                let _f = self.agent.frame(self.ids.fn_monitor);
                let ok = self.agent.negation_point(
                    self.ids.np_admission,
                    self.queue.len() < self.spec.queue_cap / 2,
                );
                if !ok {
                    self.agent.mark_flag("admission_overload");
                }
                let _ = self
                    .agent
                    .negation_point(self.ids.np_empty, self.queue.is_empty());
                sim.schedule(VirtualTime::from_secs(1), Ev::Monitor);
            }
        }
    }
}

impl WorkloadWorld<'_> {
    fn into_summary(mut self, test: TestId, seed: u64, offered: u64) -> WorkloadSummary {
        self.latency.all.sort_unstable();
        let all = &self.latency.all;
        let window_ms = (self.latency.window_us / 1_000).max(1);
        let windows = self
            .latency
            .windows
            .iter_mut()
            .enumerate()
            .map(|(i, samples)| {
                samples.sort_unstable();
                WorkloadWindow {
                    start_ms: i as u64 * window_ms,
                    completed: samples.len() as u64,
                    p50_us: percentile(samples, 50.0),
                    p99_us: percentile(samples, 99.0),
                }
            })
            .collect();
        WorkloadSummary {
            test,
            seed,
            offered,
            completed: self.completed,
            dropped: self.dropped,
            p50_us: percentile(all, 50.0),
            p90_us: percentile(all, 90.0),
            p99_us: percentile(all, 99.0),
            max_us: all.last().copied().unwrap_or(0) as u64,
            windows,
        }
    }
}

impl TargetSystem for WorkloadSystem {
    fn name(&self) -> &'static str {
        self.name
    }

    fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    fn tests(&self) -> Vec<TestCase> {
        self.tests.iter().map(|(tc, _)| *tc).collect()
    }

    fn run(&self, test: TestId, plan: Option<InjectionPlan>, seed: u64) -> RunTrace {
        let spec = self
            .spec_for(test)
            .unwrap_or_else(|| panic!("unknown workload test {test:?}"));
        let agent = Rc::new(Agent::new(Arc::clone(&self.registry), plan));
        agent.set_tracing(csnake_inject::tracing_switch::get());
        let (mut sim, mut world) = self.start(spec, Rc::clone(&agent), seed);
        sim.run(&mut world, spec.horizon);
        let trace = agent.finish(sim.now(), sim.events_executed());
        let summary = world.into_summary(test, seed, spec.source.offered());
        self.summaries
            .lock()
            .expect("summary buffer poisoned")
            .push(summary);
        trace
    }

    fn known_bugs(&self) -> Vec<KnownBug> {
        vec![KnownBug {
            id: "workload-retry-storm",
            jira: "WORK-1",
            summary:
                "drain-loop delay times out open-loop requests whose speculative retries re-load the drain loop",
            labels: vec!["drain_loop", "req_timeout"],
        }]
    }

    fn drain_workload_summaries(&self) -> Vec<WorkloadSummary> {
        std::mem::take(&mut self.summaries.lock().expect("summary buffer poisoned"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csnake_core::driver::seed_for;

    fn profile(test: u32) -> (WorkloadSystem, RunTrace) {
        let sys = WorkloadSystem::new();
        let t = sys.run(TestId(test), None, seed_for(1, TestId(test), 0));
        (sys, t)
    }

    #[test]
    fn profile_completes_the_offered_load() {
        let (sys, trace) = profile(0);
        let summary = sys.drain_workload_summaries().pop().expect("one summary");
        assert_eq!(summary.offered, 6_000);
        assert_eq!(summary.completed, 6_000);
        assert_eq!(summary.dropped, 0);
        assert!(!trace.occurred(sys.ids().tp_timeout), "no natural timeouts");
        assert!(summary.p50_us > 0 && summary.p99_us >= summary.p50_us);
        assert_eq!(
            summary.p99_inflection_milli(),
            None,
            "stable profile must not inflect"
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let sys = WorkloadSystem::new();
        let a = sys.run(TestId(1), None, 9);
        let b = sys.run(TestId(1), None, 9);
        assert_eq!(a.loop_counts, b.loop_counts);
        assert_eq!(a.events, b.events);
        let summaries = sys.drain_workload_summaries();
        assert_eq!(
            summaries[0],
            WorkloadSummary {
                seed: 9,
                ..summaries[1].clone()
            }
        );
    }

    #[test]
    fn delay_injection_times_out_requests_and_inflects_p99() {
        let (sys, _) = profile(0);
        sys.drain_workload_summaries();
        let ids = sys.ids();
        let plan = InjectionPlan::delay(ids.l_drain, VirtualTime::from_millis(100));
        let trace = sys.run(TestId(0), Some(plan), 3);
        assert!(trace.injected.is_some());
        assert!(trace.occurred(ids.tp_timeout), "delay must trip timeouts");
        let summary = sys.drain_workload_summaries().pop().expect("one summary");
        assert!(summary.completed < summary.offered);
        assert!(
            summary.p99_inflection_milli().is_some(),
            "cascade must inflect the windowed p99: {:?}",
            summary.windows
        );
    }

    #[test]
    fn throw_injection_amplifies_drain_loop_on_retry_workload() {
        let sys = WorkloadSystem::new();
        let ids = sys.ids();
        let base = sys.run(TestId(1), None, 3).loop_count(ids.l_drain);
        let t = sys.run(TestId(1), Some(InjectionPlan::throw(ids.tp_timeout)), 3);
        let inj = t.loop_count(ids.l_drain);
        assert!(
            inj >= base + 5,
            "retry fanout must amplify the drain loop: {inj} vs {base}"
        );
    }

    #[test]
    fn trace_replay_offers_exactly_the_recorded_requests() {
        let (sys, _) = profile(3);
        let summary = sys.drain_workload_summaries().pop().expect("one summary");
        let recorded = RecordedTrace::parse(SAMPLE_TRACE).expect("bundled trace");
        assert_eq!(summary.offered, recorded.len() as u64);
        assert_eq!(summary.completed, summary.offered);
    }

    #[test]
    fn bounded_queue_sheds_overflow() {
        let sys = WorkloadSystem::with_spec(
            "workload:tiny-queue",
            WorkloadSpec {
                source: ArrivalSource::Process {
                    arrival: Arrival::Paced {
                        interval: VirtualTime::from_micros(10),
                    },
                    offered: 1_000,
                },
                queue_cap: 64,
                tick: VirtualTime::from_millis(100),
                ..WorkloadSpec::default()
            },
        );
        sys.run(TestId(0), None, 5);
        let summary = sys.drain_workload_summaries().pop().expect("one summary");
        assert!(summary.dropped > 0, "cap 64 must shed a 100 rps·ms burst");
        assert_eq!(summary.completed + summary.dropped, summary.offered);
    }

    #[test]
    fn driver_profiles_the_workload_target() {
        use csnake_core::{Driver, DriverConfig};
        let sys = WorkloadSystem::with_spec(
            "workload:driver-smoke",
            WorkloadSpec {
                source: ArrivalSource::Process {
                    arrival: Arrival::Poisson {
                        rate_per_sec: 500.0,
                    },
                    offered: 300,
                },
                horizon: VirtualTime::from_secs(5),
                ..WorkloadSpec::default()
            },
        );
        let cfg = DriverConfig {
            reps: 2,
            delay_values_ms: vec![800],
            ..DriverConfig::default()
        };
        let driver = Driver::new(&sys, cfg);
        assert!(driver.runs_executed >= 2);
        // Driver construction clears the profiling-run summaries.
        assert!(sys.drain_workload_summaries().is_empty());
    }

    /// Guards the cost, not the output: an arrival stream is one pending
    /// head however long it is. Pre-scheduling every request held 200 002.
    #[test]
    fn a_long_stream_holds_a_handful_of_pending_events() {
        struct PeakPending<'a> {
            inner: WorkloadWorld<'a>,
            peak: usize,
        }
        impl World for PeakPending<'_> {
            type Event = Ev;
            fn handle(&mut self, sim: &mut Sim<Ev>, ev: Ev) {
                self.peak = self.peak.max(sim.pending());
                self.inner.handle(sim, ev);
            }
        }
        let spec = WorkloadSpec {
            source: ArrivalSource::Process {
                arrival: Arrival::Poisson {
                    rate_per_sec: 20_000.0,
                },
                offered: 200_000,
            },
            service: VirtualTime::from_micros(10),
            ..WorkloadSpec::default()
        };
        let sys = WorkloadSystem::with_spec("workload:pending-guard", spec.clone());
        let agent = Rc::new(Agent::new(sys.registry(), None));
        let (mut sim, inner) = sys.start(&spec, Rc::clone(&agent), 3);
        assert_eq!(sim.pending(), 3, "stream head, tick, monitor");
        let mut world = PeakPending { inner, peak: 0 };
        sim.run(&mut world, spec.horizon);
        assert_eq!(world.inner.completed, 200_000);
        assert!(world.peak <= 3, "peak pending {}", world.peak);
    }
}
