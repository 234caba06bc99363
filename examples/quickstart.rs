//! Quickstart: drive the staged CSnake `Session` against the bundled toy
//! system and print the detected self-sustaining cascading failure.
//!
//! The session exposes the paper's pipeline stages one by one — each
//! returns a serializable artifact, and an observer's `on_event` receives
//! one `CampaignEvent` per phase boundary, experiment, new causal edge and
//! cycle while it runs:
//!
//! | call | paper stage | artifact |
//! |---|---|---|
//! | `profile()` | profile runs + static filtering | `Profiled` |
//! | `allocate(&strategy)` | 3PA fault injection with FCA | `CampaignOutcome` |
//! | `stitch()` | causal beam search + cycle clustering | `StitchedCycles` |
//! | `report()` | ground-truth matching, TP/FP verdicts | `DetectionReport` |
//!
//! Between any two stages the session can be checkpointed to a versioned
//! `.csnake` file and resumed later (`Session::checkpoint` /
//! `Session::resume`) — resumed campaigns are bit-identical to
//! uninterrupted ones.
//!
//! # Write your own scenario
//!
//! Targets don't have to be Rust modules: the `csnake-scenario` language
//! turns a text file into a runnable `TargetSystem` (components, queues,
//! instrumented handlers, per-workload cluster configs, ground-truth
//! labels). The bundled corpus lives under `scenarios/` — including a
//! port of this example's toy target proven field-identical to the Rust
//! version — and the `write_a_scenario` example walks through building
//! one from scratch:
//!
//! ```sh
//! cargo run --example write_a_scenario
//! cargo run -p csnake-bench --bin table4 -- --target kafka-isr
//! ```
//!
//! See the `csnake_scenario` crate docs for the full language walkthrough.
//!
//! # Drive real traffic
//!
//! Shipped targets run *closed* workloads — a fixed job list. The
//! `csnake-workload` crate supplies *open-loop* traffic: deterministic
//! arrival processes (Poisson, bursty on/off, diurnal) and recorded
//! request traces compile into ordinary `TargetSystem`s, streaming
//! millions of requests per experiment through the simulator (one pending
//! arrival at a time, whatever the server's backlog) and folding per-request
//! latency into windowed percentile summaries that stream through
//! campaign observers into the telemetry digest. The pseudo-targets
//! resolve everywhere a name does — `workload:open-loop`,
//! `workload:poisson`, `workload:bursty`, `workload:diurnal`,
//! `workload:replay` — and the `trace_driven_campaign` example walks a
//! Poisson campaign from arrival spec to detected cascade:
//!
//! ```sh
//! cargo run --release --example trace_driven_campaign
//! cargo run -p csnake-bench --bin table4 -- --target workload:open-loop
//! ```
//!
//! # Distribute the campaign
//!
//! The same pipeline shards across worker processes without changing its
//! results — `csnake-daemon run -j N` spawns a local N-worker fleet and
//! produces a report bit-identical to this example's single-process run
//! (the `distributed_campaign` example proves the equality in-process):
//!
//! ```sh
//! cargo run -p csnake-daemon --bin csnake-daemon -- run --target toy -j 4 --fast
//! cargo run --example distributed_campaign
//! ```
//!
//! # Watch a campaign
//!
//! Observers are fan-out-able, so the counting collector above can ride
//! next to a `csnake_telemetry::FlightRecorder` that journals every event
//! with timestamps and span durations (this example attaches one). From a
//! recorded campaign you get:
//!
//! * a JSONL journal you can `tail -f` while the campaign runs, plus a
//!   checksummed binary twin that rejects truncation like a snapshot;
//! * a `chrome://tracing` / Perfetto-loadable trace
//!   (`write_chrome_trace`) of the stage/phase spans;
//! * a `MetricsDigest` with per-stage wall times and experiment-latency
//!   percentiles — the numbers printed at the end of this example.
//!
//! Long-running fleet campaigns render live instead: `csnake-daemon run
//! --progress` repaints per-worker shard/lease/budget state every second
//! (`--journal BASE` writes all four artifacts above), and the `table4` /
//! `gen_eval` bins accept the same `--progress` flag.
//!
//! ```sh
//! cargo run -p csnake-daemon --bin csnake-daemon -- \
//!     run --target toy -j 2 --fast --progress --journal /tmp/toy
//! ```
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use csnake::core::{
    CampaignEvent, CampaignObserver, DetectConfig, FanoutObserver, ProgressCollector, Session,
    TargetSystem, ThreePhase,
};
use csnake::targets::ToySystem;
use csnake::telemetry::{FlightRecorder, MetricsDigest};

/// A custom observer is one `match` on the events it cares about.
struct PhaseLogger;

impl CampaignObserver for PhaseLogger {
    fn on_event(&self, event: &CampaignEvent) {
        if let CampaignEvent::PhaseFinished { phase, executed } = event {
            println!("  [observer] 3PA phase {phase}: {executed} experiments");
        }
    }
}

fn main() {
    let target = ToySystem::new();

    // Fast settings for a demo: 3 repetitions per run set and a short
    // delay sweep (use `DriverConfig::paper()` for the paper's 5 reps and
    // full 7-point 100ms–8s sweep).
    let mut cfg = DetectConfig::default();
    cfg.driver.reps = 3;
    cfg.driver.delay_values_ms = vec![800];

    // The bundled collector counts events; a custom observer implements
    // `CampaignObserver::on_event` and matches on the `CampaignEvent`
    // variants it wants (stage/phase boundaries, experiments, edges,
    // cycles, budget). A fanout delivers the same stream to many sinks —
    // here the logger above, a counting collector and the flight recorder
    // that produces the timing digest printed at the end.
    let progress = Arc::new(ProgressCollector::new());
    let recorder = Arc::new(
        FlightRecorder::builder()
            .build()
            .expect("in-memory recorder"),
    );
    let observer = Arc::new(FanoutObserver::new(vec![
        Arc::new(PhaseLogger) as Arc<dyn CampaignObserver>,
        progress.clone() as Arc<dyn CampaignObserver>,
        recorder.clone() as Arc<dyn CampaignObserver>,
    ]));
    let mut session = Session::builder(&target)
        .config(cfg.clone())
        .observer(observer)
        .build()
        .expect("the toy target is drivable");

    println!("Profiling workloads and applying the static filters...");
    let profiled = session.profile().expect("profile stage");
    println!(
        "  {} workloads, {} profile runs, {} fault points injectable \
         ({} filtered).",
        profiled.tests, profiled.profile_runs, profiled.injectable_faults, profiled.filtered_faults
    );

    println!("Running the 3PA fault-injection campaign...");
    let outcome = session
        .allocate(&ThreePhase::new(cfg.alloc.clone()))
        .expect("allocation stage");
    println!(
        "  strategy {:?}: {} of {} budgeted experiments, {} causal edges.",
        outcome.strategy, outcome.experiments_run, outcome.budget, outcome.edges
    );

    println!("Stitching causal cycles...");
    session.stitch().expect("stitch stage");
    let report = session.report().expect("report stage").clone();

    let reg = target.registry();
    let alloc = session.allocation().expect("campaign ran");
    println!("\nCausal relationships:");
    for e in alloc.db.edges() {
        println!("  {}", e.describe(&reg));
    }

    println!("\nSelf-sustaining cascading failures:");
    for (i, cycle) in report.cycles.iter().enumerate().take(5) {
        let labels: Vec<&str> = cycle
            .edges
            .iter()
            .map(|&ei| reg.point(alloc.db.edge(ei).cause).label)
            .collect();
        println!("  #{i}: {} (score {:.3})", labels.join(" -> "), cycle.score);
    }

    for m in &report.matches {
        println!(
            "\nMatched seeded bug {} [{}]: {} — composition {}",
            m.bug.id, m.bug.jira, m.bug.summary, m.composition
        );
    }

    let seen = progress.snapshot();
    println!(
        "\nObserver saw: {} phases, {} experiments, {} edges, {} cycles.",
        seen.phases_finished, seen.experiments, seen.edges, seen.cycles
    );
    assert_eq!(seen.edges, alloc.db.len());

    // The recorder saw the same stream with timestamps: its digest is the
    // campaign's timing story (per-stage wall, latency percentiles).
    let digest = MetricsDigest::from_records(&recorder.records());
    print!("Recorder timing:");
    for (stage, micros) in &digest.stage_wall_micros {
        print!(" {stage} {:.1}ms", *micros as f64 / 1e3);
    }
    println!(
        " — experiment latency p50 {}µs p99 {}µs.",
        digest.experiment_latency.p50_micros, digest.experiment_latency.p99_micros
    );
    assert_eq!(digest.counters.experiments, seen.experiments);
    assert!(
        !report.matches.is_empty(),
        "the toy retry storm must be detected"
    );
}
