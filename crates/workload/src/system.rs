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
//! [`TargetSystem::drain_workload_summaries`]. A run keeps one `u32` per
//! completed request, in completion order; since virtual time never runs
//! backwards, each window is a contiguous slice of that buffer. Percentiles
//! are nearest-rank, taken by selection (no sample set is sorted).

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
    /// Latency-window width for the windowed percentiles. A window is the
    /// slice of the run's completion-ordered latency buffer (one `u32` per
    /// completed request) that completed inside it; its p50/p99 are
    /// nearest-rank, by selection. Window `i` starts at `i · window`,
    /// truncated to whole milliseconds; at most 4 096 windows are kept and
    /// later completions fold into the last.
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

/// Latency accounting: one `u32` per completed request, in completion
/// order. The simulator clock never runs backwards, so each window's
/// samples form one contiguous slice of `samples`; `ends[i]` is where
/// window `i`'s slice ends, and windows past `ends` end at the buffer's end.
struct LatencyLog {
    window_us: u64,
    /// Window count; completions past the horizon fold into the last one.
    windows: usize,
    ends: Vec<usize>,
    samples: Vec<u32>,
}

impl LatencyLog {
    fn new(window: VirtualTime, horizon: VirtualTime, capacity: usize) -> Self {
        let window_us = window.as_micros().max(1);
        LatencyLog {
            window_us,
            windows: (horizon.as_micros() / window_us + 1).min(4_096) as usize,
            ends: Vec::new(),
            samples: Vec::with_capacity(capacity),
        }
    }

    fn record(&mut self, completed_at: VirtualTime, latency: VirtualTime) {
        let idx = ((completed_at.as_micros() / self.window_us) as usize).min(self.windows - 1);
        debug_assert!(idx >= self.ends.len(), "completions arrive in time order");
        while self.ends.len() < idx {
            self.ends.push(self.samples.len());
        }
        self.samples
            .push(latency.as_micros().min(u32::MAX as u64) as u32);
    }

    /// Folds the run: each window's p50/p99 by selection inside its slice,
    /// then the whole run's p50/p90/p99 and max over the whole buffer.
    fn into_summary(
        mut self,
        test: TestId,
        seed: u64,
        offered: u64,
        dropped: u64,
    ) -> WorkloadSummary {
        let mut start = 0;
        let mut windows = Vec::with_capacity(self.windows);
        for i in 0..self.windows {
            let end = self.ends.get(i).copied().unwrap_or(self.samples.len());
            let [p50_us, p99_us] = percentiles(&mut self.samples[start..end], [50.0, 99.0]);
            windows.push(WorkloadWindow {
                start_ms: i as u64 * self.window_us / 1_000,
                completed: (end - start) as u64,
                p50_us,
                p99_us,
            });
            start = end;
        }
        // The window pass only permuted samples inside their slices; the
        // 100th nearest-rank percentile is the maximum.
        let [p50_us, p90_us, p99_us, max_us] =
            percentiles(&mut self.samples, [50.0, 90.0, 99.0, 100.0]);
        WorkloadSummary {
            test,
            seed,
            offered,
            completed: self.samples.len() as u64,
            dropped,
            p50_us,
            p90_us,
            p99_us,
            max_us,
            windows,
        }
    }
}

/// Nearest-rank percentiles of `samples` at ascending `qs` (`0` for an
/// empty set), by selection: each rank is selected among the samples at or
/// above the previous one, so no sample set is ever sorted. Reorders
/// `samples`.
fn percentiles<const N: usize>(samples: &mut [u32], qs: [f64; N]) -> [u64; N] {
    let mut out = [0; N];
    let n = samples.len();
    if n == 0 {
        return out;
    }
    let mut lo = 0;
    for (q, slot) in qs.into_iter().zip(&mut out) {
        let rank = ((q / 100.0) * n as f64).ceil() as usize;
        let at = rank.clamp(1, n) - 1;
        debug_assert!(at >= lo, "percentiles ascend");
        let (_, nth, _) = samples[lo..].select_nth_unstable(at - lo);
        *slot = *nth as u64;
        lo = at;
    }
    out
}

struct WorkloadWorld<'a> {
    agent: Rc<Agent>,
    ids: WorkloadIds,
    spec: &'a WorkloadSpec,
    queue: VecDeque<Req>,
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
        let summary = world
            .latency
            .into_summary(test, seed, spec.source.offered(), world.dropped);
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
    use proptest::prelude::*;

    /// Nearest-rank percentile of an already-sorted sample set.
    fn percentile(sorted: &[u32], q: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1] as u64
    }

    /// The sort-based fold `LatencyLog` replaced, kept as its oracle: every
    /// latency copied into its window's set and the whole run's, each set
    /// fully sorted, percentiles read off the sorted sets. Times in µs.
    fn sorted_fold(window_us: u64, horizon_us: u64, records: &[(u64, u64)]) -> WorkloadSummary {
        let window_us = window_us.max(1);
        let count = (horizon_us / window_us + 1).min(4_096) as usize;
        let mut windows = vec![Vec::new(); count];
        let mut all = Vec::new();
        for &(at, latency) in records {
            let us = latency.min(u32::MAX as u64) as u32;
            all.push(us);
            windows[((at / window_us) as usize).min(count - 1)].push(us);
        }
        all.sort_unstable();
        WorkloadSummary {
            test: TestId(2),
            seed: 7,
            offered: 1_000,
            completed: all.len() as u64,
            dropped: 3,
            p50_us: percentile(&all, 50.0),
            p90_us: percentile(&all, 90.0),
            p99_us: percentile(&all, 99.0),
            max_us: all.last().copied().unwrap_or(0) as u64,
            windows: windows
                .iter_mut()
                .enumerate()
                .map(|(i, samples)| {
                    samples.sort_unstable();
                    WorkloadWindow {
                        start_ms: i as u64 * window_us / 1_000,
                        completed: samples.len() as u64,
                        p50_us: percentile(samples, 50.0),
                        p99_us: percentile(samples, 99.0),
                    }
                })
                .collect(),
        }
    }

    /// Feeds `(completion instant, latency)` records, both in µs, to a
    /// `LatencyLog` and requires its summary to equal the sorted fold's.
    fn assert_folds_agree(window_us: u64, horizon_us: u64, records: &[(u64, u64)]) {
        let us = VirtualTime::from_micros;
        let mut log = LatencyLog::new(us(window_us), us(horizon_us), 0);
        for &(at, latency) in records {
            log.record(us(at), us(latency));
        }
        assert_eq!(
            log.into_summary(TestId(2), 7, 1_000, 3),
            sorted_fold(window_us, horizon_us, records),
            "window {window_us} us, horizon {horizon_us} us"
        );
    }

    #[test]
    fn selection_fold_matches_the_sorted_fold_at_the_edges() {
        let ms = 1_000;
        // An empty run: every window and percentile is zero.
        assert_folds_agree(250 * ms, 2_000 * ms, &[]);
        // A single sample.
        assert_folds_agree(250 * ms, 2_000 * ms, &[(600 * ms, 42)]);
        // Empty windows between full ones, and latencies past `u32::MAX`.
        assert_folds_agree(
            250 * ms,
            2_000 * ms,
            &[
                (0, 5),
                (10, 3),
                (249_999, 9),
                (1_000 * ms, 7),
                (1_000 * ms, 1),
                (1_750 * ms, u64::MAX),
                (1_999 * ms, 4),
            ],
        );
        // Every completion past the horizon folds into the last window.
        assert_folds_agree(
            250 * ms,
            1_000 * ms,
            &[(1_500 * ms, 8), (2_000 * ms, 2), (90_000 * ms, 5)],
        );
        // More than 4 096 windows: the clamp folds the tail into window 4 095.
        let raw: Vec<(u64, u64)> = (0..6_000u64).map(|i| (i * 1_000, 6_000 - i)).collect();
        assert_folds_agree(1_000, 10_000_000, &raw);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn selection_fold_matches_the_sorted_fold(
            window_us in 1u64..5_000,
            horizon_windows in 0u64..6_000,
            start_windows in 0u64..5_000,
            steps in proptest::collection::vec((0u64..3_000, 0u64..2_000), 0..300),
        ) {
            // Nondecreasing completion instants: each step advances up to
            // three windows (gaps of zero make same-instant completions).
            let mut at = start_windows * window_us;
            let raw: Vec<(u64, u64)> = steps
                .iter()
                .map(|&(gap_permille, latency)| {
                    at += gap_permille * window_us / 1_000;
                    (at, latency)
                })
                .collect();
            assert_folds_agree(window_us, horizon_windows * window_us, &raw);
        }
    }

    #[test]
    fn windows_start_at_their_true_millisecond() {
        let starts = |window_us: u64, horizon_ms: u64| -> Vec<u64> {
            let log = LatencyLog::new(
                VirtualTime::from_micros(window_us),
                VirtualTime::from_millis(horizon_ms),
                0,
            );
            let summary = log.into_summary(TestId(0), 0, 0, 0);
            summary.windows.iter().map(|w| w.start_ms).collect()
        };
        assert_eq!(starts(1_500, 4), [0, 1, 3]);
        assert_eq!(starts(500, 2), [0, 0, 1, 1, 2]);
        assert_eq!(starts(250_000, 1_000), [0, 250, 500, 750, 1_000]);

        // The inflection is reported at the window's true start: window 2
        // of a 1.5 ms run starts at 3 ms.
        let mut log = LatencyLog::new(
            VirtualTime::from_micros(1_500),
            VirtualTime::from_millis(4),
            0,
        );
        for (at, lat) in [(100, 10), (1_600, 12), (3_100, 900)] {
            log.record(VirtualTime::from_micros(at), VirtualTime::from_micros(lat));
        }
        let summary = log.into_summary(TestId(0), 0, 3, 0);
        assert_eq!(summary.p99_inflection_milli(), Some(3));
    }

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
        assert_eq!(world.inner.latency.samples.len(), 200_000);
        assert!(world.peak <= 3, "peak pending {}", world.peak);
    }
}
