//! What the driver launches, counted at the target.
//!
//! * **No oversubscription** — a gauge target counts runs in flight; under
//!   the paper's 5 reps × 7 delays neither profiling nor a one-experiment
//!   batch may run more simulations at once than the machine has hardware
//!   threads (and with two or more, a batch must use more than one).
//! * **A killed attempt launches nothing** — under transient chaos every
//!   launched run is a counted run, and the count equals a clean
//!   campaign's; under permanent chaos two campaigns fail the same cells
//!   for the same reasons.
//! * **A failed experiment names its first failed run** — by plan and
//!   rep, not by which panic landed first.
//! * **Workload summaries arrive in one order** — the same as a serial
//!   driver's, whichever run of a shared seed finishes first.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use csnake::core::driver::seed_for;
use csnake::core::pool::hardware_threads;
use csnake::core::{
    CampaignEvent, CampaignObserver, ChaosConfig, DetectConfig, Driver, DriverConfig,
    ExperimentEngine, ProgressCollector, Session, TargetSystem, TestCase, ThreePhase,
    WorkloadSummary,
};
use csnake::inject::{FaultId, FaultKind, InjectAction, InjectionPlan, Registry, RunTrace, TestId};
use csnake::sim::VirtualTime;
use csnake::targets::ToySystem;
use csnake::workload::{Arrival, ArrivalSource, WorkloadSpec, WorkloadSystem};

type Before = Box<dyn Fn(Option<InjectionPlan>, u64) + Send + Sync>;
type Hook = Box<dyn Fn(Option<InjectionPlan>, u64) -> Option<String> + Send + Sync>;

/// A target (`ToySystem` unless stated) behind a count of launched runs and
/// a gauge of runs in flight. Until `company` runs have been in flight at
/// once, each run waits (up to 10 s) for another to join it; `slow` then
/// holds every run, so an uncapped driver's runs pile up; `before` sees
/// every run just before it simulates; `hook` sees every run while it is
/// in flight, after it simulated, and may name a reason to panic it.
struct Gauge<T = ToySystem> {
    inner: T,
    company: usize,
    slow: Duration,
    before: Before,
    hook: Hook,
    launched: AtomicUsize,
    /// `(in flight now, most ever in flight)`.
    flight: Mutex<(usize, usize)>,
    joined: Condvar,
}

impl Gauge {
    fn new() -> Self {
        Gauge::wrapping(ToySystem::new())
    }
}

impl<T> Gauge<T> {
    fn wrapping(inner: T) -> Self {
        Gauge {
            inner,
            company: 0,
            slow: Duration::ZERO,
            before: Box::new(|_, _| ()),
            hook: Box::new(|_, _| None),
            launched: AtomicUsize::new(0),
            flight: Mutex::new((0, 0)),
            joined: Condvar::new(),
        }
    }

    fn launched(&self) -> usize {
        self.launched.load(Ordering::SeqCst)
    }

    /// The most runs ever in flight at once, resetting the count.
    fn take_max(&self) -> usize {
        std::mem::take(&mut self.flight.lock().unwrap().1)
    }
}

impl<T: TargetSystem> TargetSystem for Gauge<T> {
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
        self.launched.fetch_add(1, Ordering::SeqCst);
        {
            let mut flight = self.flight.lock().unwrap();
            flight.0 += 1;
            flight.1 = flight.1.max(flight.0);
            self.joined.notify_all();
            let wait = Duration::from_secs(10);
            let alone = |f: &mut (usize, usize)| f.1 < self.company;
            drop(self.joined.wait_timeout_while(flight, wait, alone).unwrap());
        }
        std::thread::sleep(self.slow);
        (self.before)(plan, seed);
        let trace = self.inner.run(test, plan, seed);
        let failure = (self.hook)(plan, seed);
        self.flight.lock().unwrap().0 -= 1;
        if let Some(reason) = failure {
            panic!("{reason}");
        }
        trace
    }

    fn drain_workload_summaries(&self) -> Vec<WorkloadSummary> {
        self.inner.drain_workload_summaries()
    }
}

/// The first injectable loop fault and a test reaching it.
fn loop_cell(driver: &Driver) -> (FaultId, TestId) {
    driver
        .faults()
        .into_iter()
        .filter(|f| driver.registry().point(*f).kind == FaultKind::LoopPoint)
        .find_map(|f| driver.tests_reaching(f).first().map(|&t| (f, t)))
        .expect("toy has a reachable loop fault")
}

#[test]
fn runs_in_flight_never_exceed_the_hardware_threads() {
    let hw = hardware_threads();
    let mut gauge = Gauge::new();
    gauge.company = hw.min(2);
    gauge.slow = Duration::from_millis(2);
    let mut driver = Driver::new(&gauge, DriverConfig::paper());
    let profiled = gauge.take_max();
    assert!(
        profiled <= hw,
        "profiling ran {profiled} simulations at once on {hw} hardware threads"
    );

    let (f, t) = loop_cell(&driver);
    driver.run_experiments(&[(f, t, 0)]);
    let batch = gauge.take_max();
    assert!(
        batch <= hw,
        "a 35-run experiment ran {batch} simulations at once on {hw} hardware threads"
    );
    assert!(
        batch >= hw.min(2),
        "a 35-run experiment ran one run at a time on {hw} hardware threads"
    );
    assert_eq!(gauge.launched(), driver.runs_executed);
}

fn fast_config() -> DetectConfig {
    let mut cfg = DetectConfig::default();
    cfg.driver.reps = 3;
    cfg.driver.delay_values_ms = vec![800];
    cfg.driver.retry.backoff_base_ms = 1;
    cfg
}

#[test]
fn a_killed_attempt_launches_no_run() {
    let clean_target = Gauge::new();
    let mut clean = Session::builder(&clean_target)
        .config(fast_config())
        .build()
        .expect("drivable");
    let clean_report = format!("{:?}", clean.run_to_report(&ThreePhase::default()));
    assert_eq!(clean_target.launched(), clean.runs_executed());

    let mut cfg = fast_config();
    cfg.driver.chaos = ChaosConfig {
        seed: 7,
        experiment_panic: 0.4,
        experiment_stall: 0.2,
        stall_ms: 1,
        transient_attempts: 1,
        ..ChaosConfig::default()
    };
    let target = Gauge::new();
    let progress = Arc::new(ProgressCollector::new());
    let mut chaotic = Session::builder(&target)
        .config(cfg)
        .observer(progress.clone())
        .build()
        .expect("drivable");
    let report = format!("{:?}", chaotic.run_to_report(&ThreePhase::default()));

    assert!(progress.snapshot().retries > 0, "chaos never fired");
    assert_eq!(clean_report, report);
    let launched = target.launched();
    assert_eq!(
        launched,
        chaotic.runs_executed(),
        "a killed attempt launched runs that no outcome counts"
    );
    assert_eq!(launched, clean.runs_executed());
}

/// Every event of one kind (its `CampaignEvent::name`), in arrival order.
struct Events(&'static str, Mutex<Vec<String>>);

impl Events {
    fn of(kind: &'static str) -> Arc<Self> {
        Arc::new(Events(kind, Mutex::default()))
    }

    fn seen(&self) -> Vec<String> {
        self.1.lock().unwrap().clone()
    }
}

impl CampaignObserver for Events {
    fn on_event(&self, event: &CampaignEvent) {
        if event.name() == self.0 {
            self.1.lock().unwrap().push(format!("{event:?}"));
        }
    }
}

#[test]
fn permanent_chaos_fails_the_same_cells_for_the_same_reasons() {
    let failures = || {
        let mut cfg = fast_config();
        cfg.driver.chaos = ChaosConfig {
            seed: 11,
            experiment_panic: 0.3,
            experiment_stall: 0.3,
            stall_ms: 1,
            permanent: true,
            ..ChaosConfig::default()
        };
        let target = Gauge::new();
        let failures = Events::of("batch_failed");
        let mut session = Session::builder(&target)
            .config(cfg)
            .observer(failures.clone())
            .build()
            .expect("drivable");
        session
            .run_to_report(&ThreePhase::default())
            .expect("degraded campaigns complete");
        assert_eq!(target.launched(), session.runs_executed());
        failures.seen()
    };
    let first = failures();
    assert!(
        first.iter().any(|e| e.contains("stalled")) && first.iter().any(|e| e.contains("panic")),
        "both chaos sites should fail some cell: {first:#?}"
    );
    assert_eq!(first, failures());
}

#[test]
fn a_failed_experiment_names_its_first_failed_run() {
    // Reps 1 and 2 of both plans panic. On two or more workers, rep 1 of
    // the first plan holds until rep 0 of the second has run — by then its
    // worker has delivered rep 2 of the first plan — so a reason taken in
    // arrival order would name rep 2.
    let base_seed = DriverConfig::default().base_seed;
    let hold = hardware_threads() >= 2;
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let mut gauge = Gauge::new();
    gauge.hook = Box::new(move |plan, seed| {
        let InjectAction::Delay(d) = plan?.action else {
            return None;
        };
        let rep = (0..3).find(|&rep| seed == seed_for(base_seed, TestId(0), rep))?;
        let first_plan = d.as_micros() == 100_000;
        let (ran, cv) = &*gate;
        if !first_plan && rep == 0 {
            *ran.lock().unwrap() = true;
            cv.notify_all();
        }
        if hold && first_plan && rep == 1 {
            let wait = Duration::from_secs(10);
            drop(
                cv.wait_timeout_while(ran.lock().unwrap(), wait, |ran| !*ran)
                    .unwrap(),
            );
        }
        (rep > 0).then(|| format!("run (delay {} us, rep {rep}) down", d.as_micros()))
    });
    let mut cfg = DriverConfig {
        reps: 3,
        delay_values_ms: vec![100, 800],
        ..DriverConfig::default()
    };
    cfg.retry.max_retries = 0;
    let failures = Events::of("batch_failed");
    let mut driver = Driver::new(&gauge, cfg);
    driver.set_observer(failures.clone());
    let profile_runs = driver.runs_executed;
    let (f, _) = loop_cell(&driver);
    let t = TestId(0);
    assert!(driver.tests_reaching(f).contains(&t));

    let out = driver.run_experiments(&[(f, t, 0)]);
    assert!(out[0].edges.is_empty());
    assert_eq!(driver.take_gaps(), vec![(f, t, 0)]);
    assert_eq!(
        driver.runs_executed, profile_runs,
        "a failed experiment counts no runs"
    );
    let seen = failures.seen();
    assert_eq!(seen.len(), 1);
    assert!(
        seen[0].contains("run (delay 100000 us, rep 1) down"),
        "{}",
        seen[0]
    );
}

#[test]
fn workload_summaries_arrive_in_one_order_whichever_run_finishes_first() {
    // Both delay plans of the one (test, rep) run on one seed. On two or
    // more workers, the 100 ms plan's run holds, before it simulates, until
    // the 800 ms plan's run has buffered its summary: the drained buffer
    // then holds the later job's summary first.
    let summaries = |parallel: bool| {
        let hold = parallel && hardware_threads() >= 2;
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let first_plan = |plan: Option<InjectionPlan>| match plan.map(|p| p.action) {
            Some(InjectAction::Delay(d)) => d.as_micros() == 100_000,
            _ => false,
        };
        let mut gauge = Gauge::wrapping(WorkloadSystem::with_spec(
            "workload:summary-order",
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
        ));
        let drain_loop = gauge.inner.ids().l_drain;
        let held = Arc::clone(&gate);
        gauge.before = Box::new(move |plan, _| {
            if hold && first_plan(plan) {
                let (ran, cv) = &*held;
                let wait = Duration::from_secs(10);
                drop(
                    cv.wait_timeout_while(ran.lock().unwrap(), wait, |ran| !*ran)
                        .unwrap(),
                );
            }
        });
        gauge.hook = Box::new(move |plan, _| {
            if plan.is_some() && !first_plan(plan) {
                let (ran, cv) = &*gate;
                *ran.lock().unwrap() = true;
                cv.notify_all();
            }
            None
        });
        let cfg = DriverConfig {
            reps: 1,
            delay_values_ms: vec![100, 800],
            parallel,
            ..DriverConfig::default()
        };
        let observed = Events::of("workload_summary");
        let mut driver = Driver::new(&gauge, cfg);
        driver.set_observer(observed.clone());
        driver.run_experiments(&[(drain_loop, TestId(0), 0)]);
        observed.seen()
    };
    let serial = summaries(false);
    assert_eq!(serial.len(), 2, "one summary per plan: {serial:#?}");
    assert_ne!(serial[0], serial[1], "the two plans must differ");
    assert_eq!(summaries(true), serial);
}
