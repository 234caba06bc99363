//! Open-loop, trace-driven workload engine for the CSnake reproduction.
//!
//! The detection pipeline's shipped targets drive *closed* workloads: a
//! fixed list of jobs, submitted and drained, the run ends. Real traffic
//! is open-loop — requests keep arriving at the source's pace whether or
//! not the service is keeping up — and that difference is exactly what
//! makes cascading failures *self-sustaining*: with no back-pressure to
//! yield to, queueing delay compounds until timeouts fire, retries
//! amplify, and the system feeds its own collapse. This crate supplies
//! that traffic: deterministic arrival processes and recorded request
//! traces compiled into a [`TargetSystem`] that any driver, session, or
//! campaign in the workspace can run unchanged.
//!
//! # Drive real traffic: a walkthrough
//!
//! **1. Describe the traffic.** Pick an [`Arrival`] process — Poisson
//! ([`SimRng`](csnake_sim::SimRng)-sampled exponential inter-arrival
//! gaps), on/off [`Arrival::Bursty`] bursts, a raised-cosine
//! [`Arrival::Diurnal`] rate curve, or exact [`Arrival::Paced`] pacing —
//! or parse a recorded [`RecordedTrace`] (one `timestamp class` line per
//! request; parse errors carry line/column spans like the scenario
//! language):
//!
//! ```
//! use csnake_workload::{Arrival, ArrivalSource, RecordedTrace};
//!
//! let poisson = ArrivalSource::Process {
//!     arrival: Arrival::Poisson { rate_per_sec: 2_000.0 },
//!     offered: 10_000,
//! };
//! let replay = ArrivalSource::Trace(
//!     RecordedTrace::parse("0us browse\n1250us browse\n2ms checkout\n").unwrap(),
//! );
//! assert_eq!(replay.offered(), 3);
//! # let _ = poisson;
//! ```
//!
//! **2. Compile it into a target.** [`WorkloadSystem::with_spec`] wraps a
//! [`WorkloadSpec`] (source, service cost, deadline, retry amplifier,
//! queue bound, latency-window width) into a `TargetSystem`;
//! [`WorkloadSystem::new`] bundles four standard workloads. Requests
//! arrive open-loop — the stream is fixed by the seed before the run
//! starts and never yields to back-pressure — but lazily: each run
//! registers its source as one sorted stream
//! ([`Sim::schedule_stream`](csnake_sim::Sim::schedule_stream)) that
//! samples the next instant as the current request fires, so a
//! million-request run holds one pending arrival, not a million timers.
//!
//! **3. Run it and read the latency.** Every run folds per-request
//! latency into a [`WorkloadSummary`](csnake_core::WorkloadSummary) —
//! whole-run p50/p90/p99/max plus fixed-width windows. The
//! [`Driver`](csnake_core::Driver) drains summaries after each experiment
//! batch and streams them through
//! [`CampaignEvent::WorkloadSummary`](csnake_core::CampaignEvent::WorkloadSummary)
//! (and on into `csnake-telemetry`'s flight recorder and
//! `MetricsDigest`); under a cascade the windowed p99 shows a sharp
//! inflection
//! ([`WorkloadSummary::p99_inflection_milli`](csnake_core::WorkloadSummary::p99_inflection_milli)).
//!
//! ```
//! use csnake_core::TargetSystem;
//! use csnake_inject::TestId;
//! use csnake_workload::WorkloadSystem;
//!
//! let sys = WorkloadSystem::new();
//! sys.run(TestId(3), None, 42); // replay the bundled trace
//! let summary = sys.drain_workload_summaries().pop().unwrap();
//! assert_eq!(summary.offered, summary.completed);
//! assert_eq!(summary.p99_inflection_milli(), None); // no cascade here
//! ```
//!
//! **4. Detect on it.** The system plants the paper-shaped cascade
//! `delay(drain_loop) → req_timeout → delay(drain_loop)` (retry
//! amplification), so the full pipeline — `detect`, staged `Session`s,
//! scenario campaigns via the `workload:` pseudo-targets ([`by_name`]) —
//! works end-to-end; `examples/trace_driven_campaign.rs` walks a Poisson
//! campaign from arrival spec to detection report.

pub mod arrival;
pub mod system;
pub mod trace;

pub use arrival::{Arrival, ArrivalSource};
pub use system::{WorkloadIds, WorkloadSpec, WorkloadSystem, SAMPLE_TRACE};
pub use trace::{RecordedTrace, TraceError, TraceSpan};

use csnake_core::{CsnakeError, TargetSystem};
use csnake_sim::VirtualTime;

/// Prefix that marks a target name as a workload pseudo-target.
pub const PSEUDO_TARGET_PREFIX: &str = "workload:";

/// Names of every workload pseudo-target, in `by_name` resolution order.
/// `csnake_scenario::by_name` and `csnake_gen::by_name` list these next to
/// the hand-coded targets in unknown-target errors.
pub fn pseudo_target_names() -> Vec<&'static str> {
    vec![
        "workload:open-loop",
        "workload:poisson",
        "workload:bursty",
        "workload:diurnal",
        "workload:replay",
    ]
}

/// Resolves a workload pseudo-target by name:
///
/// * `workload:open-loop` — the standard four-workload system;
/// * `workload:poisson` / `workload:bursty` / `workload:diurnal` — a
///   single-workload system over that arrival process;
/// * `workload:replay` — a single workload replaying the bundled
///   [`SAMPLE_TRACE`].
///
/// Unknown names produce a typed [`CsnakeError::InvalidTarget`] listing
/// the known pseudo-targets.
pub fn by_name(name: &str) -> Result<Box<dyn TargetSystem>, CsnakeError> {
    let single = |sys_name: &'static str, arrival: Arrival, offered: u64| {
        Box::new(WorkloadSystem::with_spec(
            sys_name,
            WorkloadSpec {
                source: ArrivalSource::Process { arrival, offered },
                ..WorkloadSpec::default()
            },
        ))
    };
    match name {
        "workload:open-loop" => Ok(Box::new(WorkloadSystem::new())),
        "workload:poisson" => Ok(single(
            "workload:poisson",
            Arrival::Poisson {
                rate_per_sec: 1_500.0,
            },
            6_000,
        )),
        "workload:bursty" => Ok(single(
            "workload:bursty",
            Arrival::Bursty {
                rate_per_sec: 3_000.0,
                on: VirtualTime::from_millis(200),
                off: VirtualTime::from_millis(300),
            },
            3_000,
        )),
        "workload:diurnal" => Ok(single(
            "workload:diurnal",
            Arrival::Diurnal {
                low_per_sec: 200.0,
                high_per_sec: 2_500.0,
                period: VirtualTime::from_secs(4),
            },
            4_000,
        )),
        "workload:replay" => Ok(Box::new(WorkloadSystem::with_spec(
            "workload:replay",
            WorkloadSpec {
                source: ArrivalSource::Trace(
                    RecordedTrace::parse(SAMPLE_TRACE).expect("bundled trace parses"),
                ),
                horizon: VirtualTime::from_secs(10),
                ..WorkloadSpec::default()
            },
        ))),
        other => Err(CsnakeError::InvalidTarget(format!(
            "unknown workload pseudo-target {other:?}; known pseudo-targets: {}",
            pseudo_target_names().join(", ")
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_pseudo_target_resolves() {
        for name in pseudo_target_names() {
            let sys = by_name(name).expect(name);
            assert_eq!(sys.name(), name);
            assert!(!sys.tests().is_empty());
        }
    }

    #[test]
    fn unknown_pseudo_target_lists_the_known_ones() {
        let msg = match by_name("workload:nope") {
            Ok(_) => panic!("must reject"),
            Err(e) => e.to_string(),
        };
        for name in pseudo_target_names() {
            assert!(msg.contains(name), "{msg}");
        }
    }
}
