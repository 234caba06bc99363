//! The executor's event order against ground truth.
//!
//! Every random timer program — scheduling from outside and from inside
//! handlers, late `schedule_at`, clock spins, partial horizons, tripping
//! event limits — runs on `Sim` and on [`Model`], a naive executor that
//! shares no code with it (an unordered `Vec`, next event by linear scan);
//! the complete fire log (event, time, execution index), final clock and
//! executed count must be equal.
//!
//! The same harness proves the sorted-stream lane: a nondecreasing batch
//! handed to `Sim::schedule_stream` fires exactly as the same batch pushed
//! through a `schedule_at` loop, and holds one pending entry per stream
//! instead of one per event.

use proptest::collection;
use proptest::prelude::*;

use csnake_sim::{Clock, Sim, VirtualTime, World};

/// One step of a random scheduler program; operands are times in µs.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule a fresh event `a` µs after now.
    Schedule(u64),
    /// Schedule a fresh event at absolute time `a` µs (possibly the past).
    ScheduleAt(u64),
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
        .map(|&(kind, a, b)| match kind % 4 {
            0 => Op::Schedule(a % 200_000),
            1 => Op::ScheduleAt(b % 2_000_000),
            2 => Op::Advance(a % 50_000),
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
    fn schedule_at(&mut self, time: u64, id: u32) {
        self.pending.push((time, self.seq, id));
        self.seq += 1;
    }

    fn run(&mut self, until: u64, event_limit: u64) {
        let mut taken = 0;
        loop {
            let next = (0..self.pending.len())
                .min_by_key(|&i| (self.pending[i].0, self.pending[i].1))
                .filter(|&i| self.pending[i].0 <= until);
            let Some(i) = next else {
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
    let mut streams = 0;
    for op in ops {
        match *op {
            Op::Schedule(us) => {
                m.schedule_at(m.now + us, outside_id);
                outside_id += 1;
            }
            Op::ScheduleAt(us) => {
                m.schedule_at(us, outside_id);
                outside_id += 1;
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
struct Outcome {
    log: Vec<(u32, u64, u64)>,
    now: u64,
    executed: u64,
    pending: Vec<usize>,
    behind_heads: Vec<usize>,
}

/// An `event_limit` no program here reaches.
const NO_LIMIT: u64 = 50_000;

/// Runs one program on `Sim` and checks it against the model; returns
/// what `Sim` did.
fn assert_matches_model(ops: &[Op], event_limit: u64) -> Outcome {
    let out = run_program(ops, Arrivals::Lane, event_limit);
    let (log, now, executed) = model_program(ops, event_limit);
    assert_eq!(out.log, log, "fire log");
    assert_eq!((out.now, out.executed), (now, executed));
    out
}

fn run_program(ops: &[Op], arrivals: Arrivals, event_limit: u64) -> Outcome {
    let mut sim = Sim::new(7);
    sim.event_limit = event_limit;
    let mut world = Script {
        log: Vec::new(),
        // Outside-issued ids start above the in-handler range so the two
        // streams never collide.
        next_id: 0,
    };
    let mut outside_id = 100_000u32;
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
                sim.schedule(VirtualTime::from_micros(us), outside_id);
                outside_id += 1;
            }
            Op::ScheduleAt(us) => {
                sim.schedule_at(VirtualTime::from_micros(us), outside_id);
                outside_id += 1;
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

/// Lane ≡ eager ≡ model: same firings, clock and executed count; at every
/// snapshot the eager queue holds exactly what the lane run holds plus
/// the events the lane keeps behind its stream heads.
fn assert_lane_matches_eager(ops: &[Op]) -> Outcome {
    let lane = assert_matches_model(ops, NO_LIMIT);
    let eager = run_program(ops, Arrivals::Eager, NO_LIMIT);
    assert_eq!(lane.log, eager.log, "fire log");
    assert_eq!((lane.now, lane.executed), (eager.now, eager.executed));
    for (i, &held) in eager.pending.iter().enumerate() {
        assert_eq!(
            held,
            lane.pending[i] + lane.behind_heads[i],
            "snapshot {i}: eager pending vs lane pending + events behind stream heads"
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
        .map(|&(kind, a, b)| match kind % 6 {
            0 => Op::Schedule((a % 400) * 500),
            1 => Op::ScheduleAt((b % 4_000) * 500),
            2 => Op::Advance((a % 100) * 500),
            3 => Op::Run((b % 6_000) * 500),
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
        assert_matches_model(&ops, if limit < 30 { limit } else { NO_LIMIT });
    }

    #[test]
    fn streams_fire_exactly_like_eager_scheduling(
        raw in collection::vec((0u8..16, 0u64..1_000_000, 0u64..4_000_000), 0..60),
    ) {
        assert_lane_matches_eager(&decode_grid(&raw));
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
    let out = assert_lane_matches_eager(&ops);
    let fired: Vec<u32> = out.log.iter().map(|e| e.0).collect();
    let (a, b) = (stream_base(0), stream_base(1));
    assert_eq!(fired[..7], [b, 100_000, a, a + 1, a + 2, b + 1, 100_001]);
    // The horizon stopped the second stream with two events to go.
    assert_eq!(out.behind_heads[0], 1);
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
    let run = |arrivals| {
        let mut sim: Sim<u32> = Sim::new(3);
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
    let lane = run(Arrivals::Lane);
    let eager = run(Arrivals::Eager);
    assert_eq!(lane.0, eager.0);
    assert_eq!((lane.1, lane.2), (eager.1, eager.2));
    let fired: Vec<u32> = lane.0.iter().map(|e| e.0).collect();
    let survivors: Vec<u32> = (0..24).filter(|i| i % 8 != 7).collect();
    assert_eq!(fired, survivors);
    assert_eq!(lane.3, [1, 1, 1]);
    assert_eq!(eager.3, [32, 24, 16]);
}

#[test]
fn dense_same_tick_storm_matches_the_model() {
    // Thousands of ties at identical times: the pure seq-order stress.
    let ops: Vec<Op> = (0..2_000)
        .map(|i| Op::ScheduleAt((i % 7) * 64))
        .chain([Op::Run(10_000_000)])
        .collect();
    assert_matches_model(&ops, NO_LIMIT);
}

#[test]
fn far_horizon_spread_matches_the_model() {
    // Events spread across 45 binary orders of magnitude, multi-hour gaps
    // included.
    let ops: Vec<Op> = (0..40u64)
        .map(|i| Op::ScheduleAt(1u64 << (i % 45)))
        .chain([Op::Run(u64::MAX / 2)])
        .collect();
    assert_matches_model(&ops, NO_LIMIT);
}
