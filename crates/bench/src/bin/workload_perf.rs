//! Workload-engine performance: the event wheel against the retained
//! heap on open-loop, million-request experiments.
//!
//! Writes `BENCH_workload.json` at the repository root with two medians
//! per scale, under each scheduler backend:
//!
//! * **experiment** — one full workload experiment end-to-end (arrival
//!   sampling, the instrumented server, latency recording and the
//!   percentile fold), after asserting the two backends produce
//!   bit-identical run traces and latency summaries. A run streams its
//!   arrivals through `Sim::schedule_stream`, so the queue under test
//!   holds a handful of timers and this ratio sits near 1 — the number
//!   ROADMAP item 6 reads when it picks the backend to delete.
//! * **scheduler-only** — the same arrival stream pushed eagerly as
//!   pending timers (`schedule_at` per instant) and drained through a
//!   no-op world: pure queue push/pop with every timer pending at once,
//!   the operation the hierarchical wheel rework targets and no shipped
//!   target performs any more.
//!
//! A further stage runs a real detection campaign on a workload
//! pseudo-target with the telemetry flight recorder attached and records
//! the `MetricsDigest`'s cascade signal: the injected drain-loop delay
//! must show up as a windowed-p99 inflection.
//!
//! Run with `cargo run --release -p csnake-bench --bin workload_perf`;
//! set `CSNAKE_WORKLOAD_SMOKE=1` for the reduced CI set (smallest scale,
//! one sample, artifact written to `BENCH_workload.smoke.json` so CI
//! never clobbers the committed full-scale trajectory).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use csnake_bench::watchdog;
use csnake_core::{CampaignObserver, DetectConfig, Session, TargetSystem, ThreePhase};
use csnake_inject::TestId;
use csnake_sim::scheduler::{self, SchedulerKind};
use csnake_sim::{Sim, SimRng, VirtualTime, World};
use csnake_telemetry::{FlightRecorder, MetricsDigest};
use csnake_workload::{Arrival, ArrivalSource, WorkloadSpec, WorkloadSystem};

/// Offered request rate for the scale sweep, requests per virtual second.
const RATE_PER_SEC: f64 = 50_000.0;

/// One experiment run: stream the arrivals through the instrumented
/// server as they are sampled, fold the latency summary.
fn spec_for(offered: u64) -> WorkloadSpec {
    let virtual_secs = (offered as f64 / RATE_PER_SEC).ceil() as u64 + 5;
    WorkloadSpec {
        source: ArrivalSource::Process {
            arrival: Arrival::Poisson {
                rate_per_sec: RATE_PER_SEC,
            },
            offered,
        },
        service: VirtualTime::from_micros(10),
        tick: VirtualTime::from_millis(5),
        horizon: VirtualTime::from_secs(virtual_secs),
        event_limit: (offered * 4).max(2_000_000),
        ..WorkloadSpec::default()
    }
}

/// Runs one experiment under `kind`, returning `(wall_ns, fingerprint)`
/// where the fingerprint captures everything the run produced: the trace's
/// loop counts / event total / hook count and the full latency summary.
fn run_once(offered: u64, kind: SchedulerKind, seed: u64) -> (u128, String) {
    scheduler::set_default(kind);
    let sys = WorkloadSystem::with_spec("workload:perf", spec_for(offered));
    let t = Instant::now();
    let trace = sys.run(TestId(0), None, seed);
    let wall = t.elapsed().as_nanos();
    scheduler::set_default(SchedulerKind::Wheel);
    let summary = sys
        .drain_workload_summaries()
        .pop()
        .expect("run produced a summary");
    assert_eq!(summary.offered, offered, "offered load must match the spec");
    assert_eq!(
        summary.completed, offered,
        "uninjected run must complete every request"
    );
    let fp = format!(
        "loops={:?} events={} hooks={} summary={:?}",
        trace.loop_counts, trace.events, trace.hook_count, summary
    );
    (wall, fp)
}

/// No-op world for the scheduler-only stage: every popped event is
/// discarded, so the measured time is queue push/pop and nothing else.
struct NopWorld;

impl World for NopWorld {
    type Event = u32;
    fn handle(&mut self, _sim: &mut Sim<u32>, _ev: u32) {}
}

/// Scheduler-isolated run: pre-schedule the scale's Poisson stream as
/// pending timers (the wheel's target load shape — all `offered` timers
/// pending at once) and drain it through [`NopWorld`].
fn drain_once(times: &[VirtualTime], kind: SchedulerKind) -> u128 {
    scheduler::set_default(kind);
    let mut sim = Sim::new(1);
    sim.event_limit = times.len() as u64 * 2;
    let t = Instant::now();
    for &at in times {
        sim.schedule_at(at, 0u32);
    }
    sim.run(&mut NopWorld, VirtualTime::MAX);
    let wall = t.elapsed().as_nanos();
    scheduler::set_default(SchedulerKind::Wheel);
    assert_eq!(
        sim.events_executed(),
        times.len() as u64,
        "{}: drain must pop every timer",
        kind.name()
    );
    wall
}

fn median_drain(times: &[VirtualTime], kind: SchedulerKind, samples: usize) -> u128 {
    let mut walls: Vec<u128> = (0..samples.max(1))
        .map(|_| drain_once(times, kind))
        .collect();
    walls.sort_unstable();
    walls[walls.len() / 2]
}

/// Median over `samples` runs plus the (identical) fingerprint.
fn median_run(offered: u64, kind: SchedulerKind, samples: usize) -> (u128, String) {
    let mut walls = Vec::with_capacity(samples);
    let mut fingerprint = None;
    for _ in 0..samples.max(1) {
        let (wall, fp) = run_once(offered, kind, 42);
        if let Some(prev) = &fingerprint {
            assert_eq!(prev, &fp, "{}: rerun diverged", kind.name());
        }
        fingerprint = Some(fp);
        walls.push(wall);
    }
    walls.sort_unstable();
    (walls[walls.len() / 2], fingerprint.expect("≥1 sample"))
}

fn fast_config() -> DetectConfig {
    let mut cfg = DetectConfig::default();
    cfg.driver.reps = 3;
    cfg.driver.delay_values_ms = vec![800];
    cfg.driver.retry.backoff_base_ms = 1;
    cfg
}

/// The campaign stage: a full detection campaign on the Poisson
/// pseudo-target with the flight recorder attached. The driver's delay
/// injections on the drain loop back up the open-loop queue, so the
/// digest must fold at least one windowed-p99 inflection out of the
/// streamed workload summaries.
fn campaign_digest() -> MetricsDigest {
    let target = csnake_workload::by_name("workload:poisson").expect("pseudo-target resolves");
    let recorder = Arc::new(FlightRecorder::builder().build().expect("recorder"));
    let mut session = Session::builder(target.as_ref())
        .config(fast_config())
        .observer(recorder.clone() as Arc<dyn CampaignObserver>)
        .build()
        .expect("session builds");
    let report = session
        .run_to_report(&ThreePhase::default())
        .expect("campaign completes");
    assert!(report.experiments_run > 0);
    recorder.finish().expect("recorder finish");
    MetricsDigest::from_records(&recorder.records())
}

fn main() {
    let smoke = std::env::var_os("CSNAKE_WORKLOAD_SMOKE").is_some();
    let (scales, samples): (Vec<u64>, usize) = if smoke {
        (vec![50_000], 1)
    } else {
        (vec![50_000, 250_000, 1_000_000], 3)
    };

    let mut body = String::new();
    writeln!(body, "{{").unwrap();
    writeln!(body, "  \"generated_by\": \"workload_perf\",").unwrap();
    writeln!(body, "  \"rate_per_sec\": {RATE_PER_SEC},").unwrap();
    writeln!(body, "  \"samples_per_case\": {samples},").unwrap();
    writeln!(body, "  \"scales\": [").unwrap();

    for (i, &offered) in scales.iter().enumerate() {
        let wd = watchdog::guard(&format!("workload:scale={offered}"));
        let (wheel_ns, wheel_fp) = median_run(offered, SchedulerKind::Wheel, samples);
        let (heap_ns, heap_fp) = median_run(offered, SchedulerKind::Heap, samples);
        assert_eq!(
            wheel_fp, heap_fp,
            "offered={offered}: wheel and heap runs must be bit-identical"
        );
        // Scheduler-only drain over the same arrival stream as the
        // experiment above (same process, same rate, same count).
        let times = Arrival::Poisson {
            rate_per_sec: RATE_PER_SEC,
        }
        .times(&mut SimRng::new(42), offered as usize);
        let sched_wheel_ns = median_drain(&times, SchedulerKind::Wheel, samples);
        let sched_heap_ns = median_drain(&times, SchedulerKind::Heap, samples);
        drop(wd);
        let speedup = heap_ns as f64 / wheel_ns.max(1) as f64;
        let sched_speedup = sched_heap_ns as f64 / sched_wheel_ns.max(1) as f64;
        eprintln!(
            "scale {offered}: experiment wheel {:.1} ms vs heap {:.1} ms → {speedup:.2}×; \
             scheduler-only wheel {:.1} ms vs heap {:.1} ms → {sched_speedup:.2}× (runs identical)",
            wheel_ns as f64 / 1e6,
            heap_ns as f64 / 1e6,
            sched_wheel_ns as f64 / 1e6,
            sched_heap_ns as f64 / 1e6,
        );
        writeln!(body, "    {{").unwrap();
        writeln!(body, "      \"offered\": {offered},").unwrap();
        writeln!(body, "      \"experiment_wheel_ns\": {wheel_ns},").unwrap();
        writeln!(body, "      \"experiment_heap_ns\": {heap_ns},").unwrap();
        writeln!(body, "      \"experiment_heap_over_wheel\": {speedup:.2},").unwrap();
        writeln!(body, "      \"scheduler_wheel_ns\": {sched_wheel_ns},").unwrap();
        writeln!(body, "      \"scheduler_heap_ns\": {sched_heap_ns},").unwrap();
        writeln!(
            body,
            "      \"scheduler_heap_over_wheel\": {sched_speedup:.2},"
        )
        .unwrap();
        writeln!(body, "      \"runs\": \"bit_identical\"").unwrap();
        let comma = if i + 1 < scales.len() { "," } else { "" };
        writeln!(body, "    }}{comma}").unwrap();
    }
    writeln!(body, "  ],").unwrap();

    let wd = watchdog::guard("workload:campaign");
    let digest = campaign_digest();
    drop(wd);
    assert!(
        digest.workload_summaries > 0,
        "campaign must stream workload summaries into telemetry"
    );
    assert!(
        digest.workload_inflections > 0 && digest.workload_first_inflection_ms.is_some(),
        "injected drain-loop delay must inflect the windowed p99: {digest:?}"
    );
    eprintln!(
        "campaign: {} summaries, {} inflections, first at {} ms, peak p99 {} µs",
        digest.workload_summaries,
        digest.workload_inflections,
        digest.workload_first_inflection_ms.unwrap_or(0),
        digest.workload_peak_p99_us,
    );
    writeln!(body, "  \"campaign\": {{").unwrap();
    writeln!(body, "    \"target\": \"workload:poisson\",").unwrap();
    writeln!(body, "    \"experiments\": {},", digest.experiments).unwrap();
    writeln!(
        body,
        "    \"workload_summaries\": {},",
        digest.workload_summaries
    )
    .unwrap();
    writeln!(
        body,
        "    \"workload_inflections\": {},",
        digest.workload_inflections
    )
    .unwrap();
    writeln!(
        body,
        "    \"first_inflection_ms\": {},",
        digest.workload_first_inflection_ms.expect("asserted above")
    )
    .unwrap();
    writeln!(body, "    \"peak_p99_us\": {}", digest.workload_peak_p99_us).unwrap();
    writeln!(body, "  }}").unwrap();
    writeln!(body, "}}").unwrap();

    // crates/bench → workspace root. Smoke runs write to a separate file
    // so reproducing the CI step locally never clobbers the committed
    // full-scale trajectory artifact.
    let name = if smoke {
        "BENCH_workload.smoke.json"
    } else {
        "BENCH_workload.json"
    };
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::write(&out, body).expect("write workload bench json");
    eprintln!("wrote {}", out.display());
}
