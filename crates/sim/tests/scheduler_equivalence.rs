//! Event-wheel ≡ heap-scheduler equivalence.
//!
//! The wheel is a hot-path rewrite of the executor's queue; the repo
//! discipline for such rewrites is an executable reference plus proof of
//! bit-identical behaviour. These tests drive both backends through
//! identical random timer/cancel/reschedule programs — scheduling from
//! outside and from inside handlers, late `schedule_at`, clock spins,
//! partial horizons — and assert the complete fire log (event, time,
//! execution index), final clock, pending count and executed count are
//! equal. Report-level equivalence on the scenario corpus lives in the
//! facade's `tests/scheduler_reports.rs`.
//!
//! The same harness proves the sorted-stream lane: a nondecreasing batch
//! handed to `Sim::schedule_stream` fires exactly as the same batch pushed
//! through a `schedule_at` loop, and holds one pending entry per stream
//! instead of one per event.
//!
//! Ground truth: every program also runs on [`Model`], a naive executor
//! that shares no code with `Sim` (an unordered `Vec`, next event by
//! linear scan), and the fire log, final clock and executed count must
//! match it — so the suite says the order is *right*, not only that two
//! queues agree on it.

use proptest::collection;
use proptest::prelude::*;

use csnake_sim::{Clock, SchedulerKind, Sim, VirtualTime, World};

/// One step of a random scheduler program. `a`/`b` are op-dependent
/// operands (times in µs, id indexes).
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule a fresh event `a` µs after now.
    Schedule(u64),
    /// Schedule a fresh event at absolute time `a` µs (possibly the past).
    ScheduleAt(u64),
    /// Cancel the `a % issued`-th issued timer.
    Cancel(u64),
    /// Reschedule the `a % issued`-th issued timer `b` µs out.
    Reschedule(u64, u64),
    /// Advance the clock by `a` µs.
    Advance(u64),
    /// Run until absolute time `a` µs.
    Run(u64),
    /// Register `n` stream events at `start`, `start + gap`, … µs.
    Stream { start: u64, n: u64, gap: u64 },
}

/// How `Op::Stream` reaches the executor.
#[derive(Debug, Clone, Copy)]
enum Arrivals {
    /// One `schedule_stream` call.
    Lane,
    /// One `schedule_at` per event, in order.
    Eager,
}

/// First event id of stream `s`; stream events are `base..base + n`.
fn stream_base(s: usize) -> u32 {
    1_000_000 + s as u32 * 1_000
}

fn decode(raw: &[(u8, u64, u64)]) -> Vec<Op> {
    raw.iter()
        .map(|&(kind, a, b)| match kind % 6 {
            0 => Op::Schedule(a % 200_000),
            1 => Op::ScheduleAt(b % 2_000_000),
            2 => Op::Cancel(a),
            3 => Op::Reschedule(a, b % 150_000),
            4 => Op::Advance(a % 50_000),
            _ => Op::Run(b % 3_000_000),
        })
        .collect()
}

/// Clock spin the `Script` world performs while handling `ev`, in µs.
fn spin_us(ev: u32) -> Option<u64> {
    ev.is_multiple_of(5).then_some((ev as u64 % 7) * 1_000)
}

/// Delay of the follow-up the `Script` world schedules while handling
/// `ev`, in µs.
fn follow_up_us(ev: u32) -> Option<u64> {
    ev.is_multiple_of(3).then_some((ev as u64 % 11) * 500)
}

/// Follow-up ids are `0..FOLLOW_UPS`; past that the world stops spawning.
const FOLLOW_UPS: u32 = 10_000;

/// World that logs every firing and keeps scheduling from inside
/// handlers: every third event spawns a follow-up, every fifth spins the
/// clock.
struct Script {
    log: Vec<(u32, u64, u64)>,
    next_id: u32,
}

impl World for Script {
    type Event = u32;
    fn handle(&mut self, sim: &mut Sim<u32>, ev: u32) {
        self.log
            .push((ev, sim.now().as_micros(), sim.events_executed()));
        if let Some(us) = spin_us(ev) {
            sim.advance(VirtualTime::from_micros(us));
        }
        if let Some(us) = follow_up_us(ev).filter(|_| self.next_id < FOLLOW_UPS) {
            let id = self.next_id;
            self.next_id += 1;
            sim.schedule(VirtualTime::from_micros(us), id);
        }
    }
}

/// Ground truth for the executor's order, sharing no code with `Sim`:
/// pending events are an unordered `Vec` of `(time, seq, id)` and the next
/// one is whatever a linear scan finds smallest by `(time, seq)`. It
/// implements what `Sim`'s documentation promises and nothing else — `seq`
/// counts scheduling calls, an event earlier than the clock fires late at
/// the clock, a run stops at the first event past the horizon, and the
/// event that exceeds `event_limit` is taken, counted and dropped
/// unhandled. The `Script` world's rules are applied inline.
#[derive(Default)]
struct Model {
    now: u64,
    seq: u64,
    executed: u64,
    pending: Vec<(u64, u64, u32)>,
    log: Vec<(u32, u64, u64)>,
    next_id: u32,
}

impl Model {
    fn schedule_at(&mut self, time: u64, id: u32) -> u64 {
        self.pending.push((time, self.seq, id));
        self.seq += 1;
        self.seq - 1
    }

    fn cancel(&mut self, seq: u64) {
        self.pending.retain(|e| e.1 != seq);
    }

    fn run(&mut self, until: u64, event_limit: u64) {
        let mut taken = 0;
        loop {
            let mut next: Option<usize> = None;
            for (i, e) in self.pending.iter().enumerate() {
                if next.is_none_or(|n| (e.0, e.1) < (self.pending[n].0, self.pending[n].1)) {
                    next = Some(i);
                }
            }
            let Some(i) = next.filter(|&i| self.pending[i].0 <= until) else {
                return;
            };
            let (time, _, ev) = self.pending.swap_remove(i);
            self.now = self.now.max(time);
            self.executed += 1;
            taken += 1;
            if taken > event_limit {
                return;
            }
            self.log.push((ev, self.now, self.executed));
            if let Some(us) = spin_us(ev) {
                self.now += us;
            }
            if let Some(us) = follow_up_us(ev).filter(|_| self.next_id < FOLLOW_UPS) {
                self.schedule_at(self.now + us, self.next_id);
                self.next_id += 1;
            }
        }
    }
}

/// Runs one program on the model; returns its fire log, final clock and
/// executed count.
fn model_program(ops: &[Op], event_limit: u64) -> (Vec<(u32, u64, u64)>, u64, u64) {
    let mut m = Model::default();
    let mut outside_id = 100_000u32;
    let mut issued = Vec::new();
    let mut streams = 0;
    for op in ops {
        match *op {
            Op::Schedule(us) => {
                issued.push(m.schedule_at(m.now + us, outside_id));
                outside_id += 1;
            }
            Op::ScheduleAt(us) => {
                issued.push(m.schedule_at(us, outside_id));
                outside_id += 1;
            }
            Op::Cancel(k) => {
                if !issued.is_empty() {
                    m.cancel(issued[(k % issued.len() as u64) as usize]);
                }
            }
            Op::Reschedule(k, us) => {
                if !issued.is_empty() {
                    m.cancel(issued[(k % issued.len() as u64) as usize]);
                    issued.push(m.schedule_at(m.now + us, outside_id));
                    outside_id += 1;
                }
            }
            Op::Advance(us) => m.now += us,
            Op::Run(us) => m.run(us, event_limit),
            Op::Stream { start, n, gap } => {
                for i in 0..n {
                    m.schedule_at(start + i * gap, stream_base(streams) + i as u32);
                }
                streams += 1;
            }
        }
    }
    m.run(u64::MAX, event_limit);
    (m.log, m.now, m.executed)
}

/// What one program did: the fire log, the final clock and executed
/// count, and after every `Run` (and at the end) the pending count beside
/// the number of stream events still behind their stream's head.
#[derive(Debug, PartialEq)]
struct Outcome {
    log: Vec<(u32, u64, u64)>,
    now: u64,
    executed: u64,
    pending: Vec<usize>,
    behind_heads: Vec<usize>,
}

/// An `event_limit` no program here reaches.
const NO_LIMIT: u64 = 50_000;

/// Runs one program on one backend and checks it against the model;
/// returns the observable outcome.
fn execute(
    kind: SchedulerKind,
    ops: &[Op],
    event_limit: u64,
) -> (Vec<(u32, u64, u64)>, u64, usize, u64) {
    let out = run_program(kind, ops, Arrivals::Lane, event_limit);
    assert_matches_model(kind, &out, ops, event_limit);
    (
        out.log,
        out.now,
        *out.pending.last().expect("final snapshot"),
        out.executed,
    )
}

fn assert_matches_model(kind: SchedulerKind, out: &Outcome, ops: &[Op], event_limit: u64) {
    let (log, now, executed) = model_program(ops, event_limit);
    assert_eq!(out.log, log, "{kind:?} vs model: fire log");
    assert_eq!(
        (out.now, out.executed),
        (now, executed),
        "{kind:?} vs model"
    );
}

fn run_program(kind: SchedulerKind, ops: &[Op], arrivals: Arrivals, event_limit: u64) -> Outcome {
    let mut sim = Sim::with_scheduler(7, kind);
    sim.event_limit = event_limit;
    let mut world = Script {
        log: Vec::new(),
        // Outside-issued ids start above the in-handler range so the two
        // streams never collide.
        next_id: 0,
    };
    let mut outside_id = 100_000u32;
    let mut issued = Vec::new();
    let mut stream_sizes: Vec<u64> = Vec::new();
    let mut pending = Vec::new();
    let mut behind_heads = Vec::new();
    let mut snapshot = |sim: &Sim<u32>, world: &Script, stream_sizes: &[u64]| {
        pending.push(sim.pending());
        let behind: u64 = stream_sizes
            .iter()
            .enumerate()
            .map(|(s, &n)| {
                let ids = stream_base(s)..stream_base(s) + n as u32;
                let fired = world.log.iter().filter(|e| ids.contains(&e.0)).count() as u64;
                (n - fired).saturating_sub(1)
            })
            .sum();
        behind_heads.push(behind as usize);
    };
    for op in ops {
        match *op {
            Op::Schedule(us) => {
                issued.push(sim.schedule(VirtualTime::from_micros(us), outside_id));
                outside_id += 1;
            }
            Op::ScheduleAt(us) => {
                issued.push(sim.schedule_at(VirtualTime::from_micros(us), outside_id));
                outside_id += 1;
            }
            Op::Cancel(k) => {
                if !issued.is_empty() {
                    let id = issued[(k % issued.len() as u64) as usize];
                    sim.cancel(id);
                }
            }
            Op::Reschedule(k, us) => {
                if !issued.is_empty() {
                    let id = issued[(k % issued.len() as u64) as usize];
                    issued.push(sim.reschedule(id, VirtualTime::from_micros(us), outside_id));
                    outside_id += 1;
                }
            }
            Op::Advance(us) => sim.advance(VirtualTime::from_micros(us)),
            Op::Run(us) => {
                sim.run(&mut world, VirtualTime::from_micros(us));
                snapshot(&sim, &world, &stream_sizes);
            }
            Op::Stream { start, n, gap } => {
                let base = stream_base(stream_sizes.len());
                stream_sizes.push(n);
                let times = (0..n).map(move |i| VirtualTime::from_micros(start + i * gap));
                // Stream events have no `TimerId`, so neither mode adds
                // to `issued` and `Cancel` picks the same timers in both.
                match arrivals {
                    Arrivals::Lane => {
                        let mut id = base;
                        sim.schedule_stream(times, n, move |_| {
                            id += 1;
                            id - 1
                        });
                    }
                    Arrivals::Eager => {
                        for (i, t) in times.enumerate() {
                            sim.schedule_at(t, base + i as u32);
                        }
                    }
                }
            }
        }
    }
    sim.run(&mut world, VirtualTime::MAX);
    snapshot(&sim, &world, &stream_sizes);
    Outcome {
        log: world.log,
        now: sim.now().as_micros(),
        executed: sim.events_executed(),
        pending,
        behind_heads,
    }
}

/// Lane ≡ eager on one backend: same firings, clock and executed count;
/// at every snapshot the eager queue holds exactly what the lane run
/// holds plus the events the lane keeps behind its stream heads — less
/// any cancelled timers the lane run has already swept (`pending()`
/// counts a cancelled timer until it reaches the queue front, which a
/// queue without the stream's events in it does sooner).
fn assert_lane_matches_eager(kind: SchedulerKind, ops: &[Op]) -> Outcome {
    let lane = run_program(kind, ops, Arrivals::Lane, NO_LIMIT);
    let eager = run_program(kind, ops, Arrivals::Eager, NO_LIMIT);
    assert_matches_model(kind, &lane, ops, NO_LIMIT);
    assert_eq!(lane.log, eager.log, "{kind:?}: fire log");
    assert_eq!(
        (lane.now, lane.executed),
        (eager.now, eager.executed),
        "{kind:?}"
    );
    let cancels = ops
        .iter()
        .filter(|op| matches!(op, Op::Cancel(_) | Op::Reschedule(..)))
        .count();
    for (i, &held) in eager.pending.iter().enumerate() {
        let released = lane.pending[i] + lane.behind_heads[i];
        assert!(
            released <= held && held - released <= cancels,
            "{kind:?}: snapshot {i}: eager holds {held}, lane {} + {} behind heads",
            lane.pending[i],
            lane.behind_heads[i]
        );
    }
    lane
}

/// Like `decode`, with two extra stream ops and every instant on a 500 µs
/// grid (the `Script` world's own spins and follow-ups are multiples of
/// 500 µs too), so stream events keep tying with timers issued before and
/// after the stream was registered and with other streams' events.
fn decode_grid(raw: &[(u8, u64, u64)]) -> Vec<Op> {
    raw.iter()
        .map(|&(kind, a, b)| match kind % 8 {
            0 => Op::Schedule((a % 400) * 500),
            1 => Op::ScheduleAt((b % 4_000) * 500),
            2 => Op::Cancel(a),
            3 => Op::Reschedule(a, (b % 300) * 500),
            4 => Op::Advance((a % 100) * 500),
            5 => Op::Run((b % 6_000) * 500),
            _ => Op::Stream {
                start: (a % 4_000) * 500,
                n: b % 64,
                gap: (b / 64 % 4) * 500,
            },
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn random_timer_programs_fire_as_the_model_does(
        raw in collection::vec((0u8..12, 0u64..1_000_000, 0u64..4_000_000), 0..60),
        limit in 0u64..60,
    ) {
        let ops = decode(&raw);
        // Half the cases run under a limit small enough to trip.
        let limit = if limit < 30 { limit } else { NO_LIMIT };
        let heap = execute(SchedulerKind::Heap, &ops, limit);
        let wheel = execute(SchedulerKind::Wheel, &ops, limit);
        prop_assert_eq!(heap, wheel);
    }

    #[test]
    fn streams_fire_exactly_like_eager_scheduling(
        raw in collection::vec((0u8..16, 0u64..1_000_000, 0u64..4_000_000), 0..60),
    ) {
        let ops = decode_grid(&raw);
        let heap = assert_lane_matches_eager(SchedulerKind::Heap, &ops);
        let wheel = assert_lane_matches_eager(SchedulerKind::Wheel, &ops);
        prop_assert_eq!(heap, wheel);
    }
}

#[test]
fn streams_tie_with_timers_issued_before_and_after_registration() {
    // Timer, stream, stream, timer — all at 1 ms: sequence order decides.
    let ops = [
        Op::ScheduleAt(1_000),
        Op::Stream {
            start: 1_000,
            n: 3,
            gap: 0,
        },
        Op::Stream {
            start: 500,
            n: 4,
            gap: 500,
        },
        Op::ScheduleAt(1_000),
        // Stops between the second stream's 1 ms and 1.5 ms events.
        Op::Run(1_200),
        Op::ScheduleAt(1_000),
        Op::Run(1_400),
    ];
    for kind in [SchedulerKind::Heap, SchedulerKind::Wheel] {
        let out = assert_lane_matches_eager(kind, &ops);
        let fired: Vec<u32> = out.log.iter().map(|e| e.0).collect();
        let (a, b) = (stream_base(0), stream_base(1));
        assert_eq!(
            fired[..7],
            [b, 100_000, a, a + 1, a + 2, b + 1, 100_001],
            "{kind:?}"
        );
        // The horizon stopped the second stream with two events to go.
        assert_eq!(out.behind_heads[0], 1, "{kind:?}");
    }
}

#[test]
fn event_limit_tripping_mid_stream_drops_the_same_event() {
    struct Quiet(Vec<(u32, u64)>);
    impl World for Quiet {
        type Event = u32;
        fn handle(&mut self, sim: &mut Sim<u32>, ev: u32) {
            self.0.push((ev, sim.now().as_micros()));
        }
    }
    // Each run pops eight events and discards the eighth; the next run
    // resumes behind it.
    let run = |kind, arrivals| {
        let mut sim: Sim<u32> = Sim::with_scheduler(3, kind);
        sim.event_limit = 7;
        let times = (0..40u64).map(|i| VirtualTime::from_micros(i * 100));
        match arrivals {
            Arrivals::Lane => sim.schedule_stream(times, 40, |t| (t.as_micros() / 100) as u32),
            Arrivals::Eager => {
                for (i, t) in times.enumerate() {
                    sim.schedule_at(t, i as u32);
                }
            }
        }
        let mut world = Quiet(Vec::new());
        let pending: Vec<usize> = (0..3)
            .map(|_| {
                sim.run(&mut world, VirtualTime::MAX);
                sim.pending()
            })
            .collect();
        (world.0, sim.now(), sim.events_executed(), pending)
    };
    for kind in [SchedulerKind::Heap, SchedulerKind::Wheel] {
        let lane = run(kind, Arrivals::Lane);
        let eager = run(kind, Arrivals::Eager);
        assert_eq!(lane.0, eager.0, "{kind:?}");
        assert_eq!((lane.1, lane.2), (eager.1, eager.2), "{kind:?}");
        let fired: Vec<u32> = lane.0.iter().map(|e| e.0).collect();
        let survivors: Vec<u32> = (0..24).filter(|i| i % 8 != 7).collect();
        assert_eq!(fired, survivors, "{kind:?}");
        assert_eq!(lane.3, [1, 1, 1], "{kind:?}");
        assert_eq!(eager.3, [32, 24, 16], "{kind:?}");
    }
}

#[test]
fn dense_same_tick_storm_matches_the_model() {
    // Thousands of ties at identical times: the pure seq-order stress.
    let ops: Vec<Op> = (0..2_000)
        .map(|i| Op::ScheduleAt((i % 7) * 64))
        .chain([Op::Run(10_000_000)])
        .collect();
    assert_eq!(
        execute(SchedulerKind::Heap, &ops, NO_LIMIT),
        execute(SchedulerKind::Wheel, &ops, NO_LIMIT)
    );
}

#[test]
fn far_horizon_spread_matches_the_model() {
    // Events spread across 45 binary orders of magnitude, multi-hour gaps
    // included.
    let ops: Vec<Op> = (0..40u64)
        .map(|i| Op::ScheduleAt(1u64 << (i % 45)))
        .chain([Op::Run(u64::MAX / 2)])
        .collect();
    assert_eq!(
        execute(SchedulerKind::Heap, &ops, NO_LIMIT),
        execute(SchedulerKind::Wheel, &ops, NO_LIMIT)
    );
}

#[test]
fn event_limit_trips_identically() {
    struct Storm;
    impl World for Storm {
        type Event = ();
        fn handle(&mut self, sim: &mut Sim<()>, _ev: ()) {
            sim.schedule(VirtualTime::from_micros(1), ());
            sim.schedule(VirtualTime::from_micros(1), ());
        }
    }
    let run = |kind| {
        let mut sim: Sim<()> = Sim::with_scheduler(3, kind);
        sim.event_limit = 777;
        sim.schedule(VirtualTime::ZERO, ());
        let executed = sim.run(&mut Storm, VirtualTime::MAX);
        (executed, sim.pending(), sim.now())
    };
    assert_eq!(run(SchedulerKind::Heap), run(SchedulerKind::Wheel));
}
