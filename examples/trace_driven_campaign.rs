//! Trace-driven campaign: open-loop traffic from arrival spec to
//! detection report.
//!
//! The shipped targets drive *closed* workloads — a fixed job list,
//! submitted and drained. Real services face *open-loop* traffic: the
//! source keeps firing whether or not the server keeps up, which is what
//! lets a cascade feed itself. `csnake-workload` compiles that traffic
//! shape into an ordinary `TargetSystem`, so the whole pipeline — driver,
//! staged session, telemetry — runs on it unchanged. This example walks
//! the full path:
//!
//! 1. describe traffic as an arrival process (and as a recorded trace),
//! 2. run it standalone and read the latency percentiles,
//! 3. run a real detection campaign against the Poisson pseudo-target and
//!    watch the injected drain-loop delay surface as a windowed-p99
//!    inflection in the telemetry digest, next to the detected cascade.
//!
//! ```sh
//! cargo run --release --example trace_driven_campaign
//! ```

use std::sync::Arc;

use csnake::core::{CampaignObserver, DetectConfig, Session, TargetSystem, ThreePhase};
use csnake::inject::TestId;
use csnake::sim::VirtualTime;
use csnake::telemetry::{FlightRecorder, MetricsDigest};
use csnake::workload::{Arrival, ArrivalSource, RecordedTrace, WorkloadSpec, WorkloadSystem};

fn main() {
    // ── 1. Describe the traffic ─────────────────────────────────────────
    // A Poisson process: exponential inter-arrival gaps sampled from the
    // run's seed, so the stream is deterministic per seed. 2k req/s for
    // 10k requests ≈ five virtual seconds of offered load.
    let spec = WorkloadSpec {
        source: ArrivalSource::Process {
            arrival: Arrival::Poisson {
                rate_per_sec: 2_000.0,
            },
            offered: 10_000,
        },
        service: VirtualTime::from_micros(50),
        ..WorkloadSpec::default()
    };

    // ── 2. Run it standalone and read the latency ───────────────────────
    // `with_spec` compiles the spec into a TargetSystem; a run registers
    // the arrivals as one lazily sampled stream (`Sim::schedule_stream`)
    // and folds per-request latency into a WorkloadSummary.
    let sys = WorkloadSystem::with_spec("workload:example", spec);
    sys.run(TestId(0), None, 42);
    // The server drains its queue on a periodic tick, so quiet-system
    // latency is dominated by time-to-next-tick, not the 50 µs service.
    let summary = sys.drain_workload_summaries().pop().expect("one summary");
    println!(
        "Poisson, uninjected: {}/{} completed — p50 {}µs p90 {}µs p99 {}µs max {}µs",
        summary.completed,
        summary.offered,
        summary.p50_us,
        summary.p90_us,
        summary.p99_us,
        summary.max_us
    );
    assert_eq!(summary.completed, summary.offered);
    assert_eq!(
        summary.p99_inflection_milli(),
        None,
        "no fault, so the windowed p99 stays flat"
    );

    // The same engine replays recorded traffic: one `timestamp class` line
    // per request, exact times instead of a sampled process.
    let trace = RecordedTrace::parse("0us browse\n700us browse\n1500us checkout\n2ms browse\n")
        .expect("trace parses");
    let replay = WorkloadSystem::with_spec(
        "workload:example-replay",
        WorkloadSpec {
            source: ArrivalSource::Trace(trace),
            horizon: VirtualTime::from_secs(2),
            ..WorkloadSpec::default()
        },
    );
    replay.run(TestId(0), None, 42);
    let replayed = replay
        .drain_workload_summaries()
        .pop()
        .expect("one summary");
    println!(
        "Replayed trace: {}/{} completed — p99 {}µs",
        replayed.completed, replayed.offered, replayed.p99_us
    );

    // ── 3. Detect on it ─────────────────────────────────────────────────
    // The workload system plants the paper-shaped cascade
    // `delay(drain_loop) → req_timeout → delay(drain_loop)`: slow the
    // drain loop and the open-loop queue backs up until deadlines fire,
    // and every timeout re-enqueues speculative retries that keep the
    // loop slow. The feedback needs the retry amplifier, so campaign on
    // the standard four-workload system (its `test_bursty_retry` workload
    // retries with fanout 5); the pseudo-targets resolve by name, exactly
    // like scenario targets.
    let target = csnake::workload::by_name("workload:open-loop").expect("pseudo-target");

    let mut cfg = DetectConfig::default();
    cfg.driver.reps = 3;
    cfg.driver.delay_values_ms = vec![800];
    cfg.driver.retry.backoff_base_ms = 1;

    // The flight recorder rides along as a campaign observer; the driver
    // hands its `on_event` one `CampaignEvent::WorkloadSummary` per
    // experiment.
    let recorder = Arc::new(FlightRecorder::builder().build().expect("recorder"));
    let mut session = Session::builder(target.as_ref())
        .config(cfg)
        .observer(recorder.clone() as Arc<dyn CampaignObserver>)
        .build()
        .expect("session builds");
    println!("\nRunning the detection campaign on workload:open-loop ...");
    let report = session
        .run_to_report(&ThreePhase::default())
        .expect("campaign completes");
    recorder.finish().expect("recorder finish");

    println!(
        "Report: {} experiments, {} causal edges, {} cycles, {} seeded bugs matched.",
        report.experiments_run,
        report.edge_count,
        report.cycles.len(),
        report.matches.len()
    );
    assert!(
        !report.matches.is_empty(),
        "the planted retry amplification must be detected"
    );

    // The digest folds the streamed summaries: under the injected delay
    // the windowed p99 inflects — the latency-visible onset of the
    // cascade, timestamped in virtual milliseconds.
    let digest = MetricsDigest::from_records(&recorder.records());
    println!(
        "Telemetry: {} workload summaries, {} p99 inflections, first at {} ms, peak p99 {} µs.",
        digest.counters.workload_summaries,
        digest.counters.workload_inflections,
        digest.counters.workload_first_inflection_ms.unwrap_or(0),
        digest.counters.workload_peak_p99_us
    );
    assert!(
        digest.counters.workload_inflections > 0,
        "cascade must inflect p99"
    );
}
