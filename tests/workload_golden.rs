//! Golden pins of what open-loop arrival streams record.
//!
//! An arrival stream's events share instants with ordinary timers — a
//! `Paced` request landing on a drain `Tick`, a sampled arrival landing on
//! a `spawn`ed event — and the executor breaks those ties by sequence
//! number. How a stream reaches the executor may change; which event of a
//! tie runs first may not. For the four `WorkloadSystem::new()` workloads
//! and a retry workload whose arrivals, ticks and monitor polls all sit on
//! one 1 ms grid, × profile / delay / throw / negate, this pins a hash of
//! `format!("{:?}", (RunTrace, WorkloadSummary))`; an inline scenario does
//! the same for the `arrive` setup stanza.

use csnake::core::TargetSystem;
use csnake::inject::{fnv1a, InjectionPlan, TestId};
use csnake::scenario::{compile, parse_str};
use csnake::sim::VirtualTime;
use csnake::workload::{Arrival, ArrivalSource, WorkloadSpec, WorkloadSystem};

const SEED: u64 = 7;

fn hash(text: &str) -> u64 {
    fnv1a(text.bytes().map(u64::from))
}

/// Arrivals every 2 ms, service 1 ms, tick 10 ms, monitor 1 s: every clock
/// value the run reaches is a whole millisecond, so ticks and monitor
/// polls keep landing on arrival instants.
fn grid_retry() -> WorkloadSystem {
    WorkloadSystem::with_spec(
        "workload:grid-retry",
        WorkloadSpec {
            source: ArrivalSource::Process {
                arrival: Arrival::Paced {
                    interval: VirtualTime::from_millis(2),
                },
                offered: 2_500,
            },
            service: VirtualTime::from_millis(1),
            retry_fanout: 5,
            max_retries: 2,
            ..WorkloadSpec::default()
        },
    )
}

/// `(workload, [profile, delay(l_drain), throw(tp_timeout), negate(np_admission)])`.
#[rustfmt::skip]
const WORKLOAD_PINS: &[(&str, [u64; 4])] = &[
    ("poisson", [0xdef9484c93a43585, 0x452d899167590164, 0x015fa932fb0c5009, 0x64031c30dd1aa919]),
    ("bursty-retry", [0x2fb567254157c076, 0xf13b3f642cde6429, 0x193dd3894e829a18, 0xeb7337d9053ec56a]),
    ("diurnal", [0x87b67d1b857446f4, 0x1fe8137787ad1547, 0x2fca0da62bb1f1d5, 0xb68c01766d200188]),
    ("trace-replay", [0xf3f88d2cc59d2e6e, 0x56638b3fe0084ca9, 0x700fb3f37a24c359, 0x229db9b2adb5e312]),
    ("grid-retry", [0xebe347bc09c80ce8, 0xbe44a0db5b438137, 0xc25c2c080a04a776, 0x6f54c72f7ac69414]),
];

fn workload_hashes(sys: &WorkloadSystem, test: TestId) -> [u64; 4] {
    let ids = sys.ids();
    let plans = [
        None,
        Some(InjectionPlan::delay(
            ids.l_drain,
            VirtualTime::from_millis(100),
        )),
        Some(InjectionPlan::throw(ids.tp_timeout)),
        Some(InjectionPlan::negate(ids.np_admission)),
    ];
    plans.map(|plan| {
        let trace = sys.run(test, plan, SEED);
        assert_eq!(trace.injected.is_some(), plan.is_some(), "{plan:?}");
        let summary = sys.drain_workload_summaries().pop().expect("one summary");
        hash(&format!("{:?}", (trace, summary)))
    })
}

/// A Poisson stream registered before a 1 µs `spawn` grid and a diurnal
/// stream registered after it. Arrival instants are whole microseconds, so
/// every arrival ties with a `Serve`: a Poisson request (lower sequence
/// numbers) is pushed before the `Serve` of its instant and drained at age
/// zero; a diurnal request is pushed after it, waits for the next `Serve`
/// and trips `late`.
const ARRIVE_SRC: &str = r#"
    scenario lane_ties
    component S { queue q }
    fn req = "S.req"
    fn serve = "S.serve"
    loop work at serve:1 io
    throw late at serve:2 class "TimeoutException" category system
    branchpoint busy at serve:3
    handler Req in S fn req { push q }
    handler Serve in S fn serve {
      branch busy not empty(q)
      loop work drain q {
        try {
          guard late
          throwif late age(item) > 0us
        } onerr { }
      }
    }
    workload ties "two arrival streams around a spawn grid" {
      horizon 1s
      arrive Req poisson rate 20000 count 300
      spawn Serve count 60000 every 1us
      arrive Req diurnal low 5000 high 40000 period 10ms count 300
    }
"#;

/// `[profile, delay(work), throw(late)]`.
const ARRIVE_PINS: [u64; 3] = [0x48fbe9f3e6bfeedf, 0xca9008681d9de4ed, 0xf00682e49cc00376];

#[test]
fn arrival_streams_record_the_pinned_bytes() {
    let standard = WorkloadSystem::new();
    let grid = grid_retry();
    let runs = [
        (&standard, 0),
        (&standard, 1),
        (&standard, 2),
        (&standard, 3),
        (&grid, 0),
    ];
    let got_workloads: Vec<(&str, [u64; 4])> = WORKLOAD_PINS
        .iter()
        .zip(runs)
        .map(|(&(name, _), (sys, test))| (name, workload_hashes(sys, TestId(test))))
        .collect();

    let scn = compile(&parse_str(ARRIVE_SRC).expect("parses")).expect("compiles");
    let work = scn.point_by_label("work").expect("declared");
    let late = scn.point_by_label("late").expect("declared");
    let profile = scn.run(TestId(0), None, SEED);
    assert_eq!(
        profile.occurrences.get(&late).map_or(0, Vec::len),
        300,
        "exactly the diurnal stream's requests run behind their instant's Serve"
    );
    let plans = [
        InjectionPlan::delay(work, VirtualTime::from_micros(100)),
        InjectionPlan::throw(late),
    ];
    let mut got_arrive = vec![hash(&format!("{profile:?}"))];
    for plan in plans {
        let trace = scn.run(TestId(0), Some(plan), SEED);
        assert!(trace.injected.is_some(), "{plan:?} did not fire");
        got_arrive.push(hash(&format!("{trace:?}")));
    }

    let hex = |hashes: &[u64]| {
        let cells: Vec<String> = hashes.iter().map(|h| format!("{h:#018x}")).collect();
        format!("[{}]", cells.join(", "))
    };
    let table: String = got_workloads
        .iter()
        .map(|(n, h)| format!("    ({n:?}, {}),\n", hex(h)))
        .collect();
    assert!(
        got_workloads == WORKLOAD_PINS && got_arrive == ARRIVE_PINS,
        "recorded bytes moved; computed pins:\n{table}arrive stanzas: {}",
        hex(&got_arrive)
    );
}
