//! The discrete-event executor.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::rng::SimRng;
use crate::time::VirtualTime;

/// Read/advance access to virtual time, decoupled from the event type.
///
/// The injection agent (`csnake-inject`) applies spinning-delay injections
/// through this trait without knowing the target system's event type.
pub trait Clock {
    /// Current virtual time.
    fn now(&self) -> VirtualTime;

    /// Advances virtual time by `d`, modelling computation cost inside the
    /// currently-running event handler.
    fn advance(&mut self, d: VirtualTime);
}

/// A system under simulation: owns the state, handles events.
pub trait World {
    /// The event alphabet of the system.
    type Event;

    /// Handles one event. The handler may schedule further events, advance
    /// the clock, and mutate system state.
    fn handle(&mut self, sim: &mut Sim<Self::Event>, ev: Self::Event);
}

/// One queued event; ordered earliest `(time, seq)` first.
struct Scheduled<E> {
    time: VirtualTime,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    // Reverse ordering: BinaryHeap is a max-heap, we want earliest-first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One sorted-stream lane: a lazily pulled, nondecreasing run of events
/// of which only the head is materialised (see [`Sim::schedule_stream`]).
struct Stream<E> {
    /// The next event to fire and its instant.
    head: (VirtualTime, E),
    /// The head's tie-break sequence number.
    seq: u64,
    rest: Box<dyn Iterator<Item = (VirtualTime, E)>>,
}

/// The deterministic discrete-event executor.
///
/// Events are ordered by `(time, sequence)`; the sequence number breaks ties
/// in scheduling order, which makes runs fully deterministic. An event whose
/// scheduled time is *earlier* than the current clock (because a previous
/// handler advanced time past it) executes "late" at the current clock — this
/// models a single-threaded server whose queue backs up behind a slow
/// request, the central mechanism by which CSnake's delay injection causes
/// downstream timeouts.
///
/// The queue is one binary heap. Long arrival streams do not go through
/// it (see the lane below), so a run keeps a handful of timers pending and
/// the heap's `O(log n)` is a few compares per event.
///
/// Above the queue sits the **sorted-stream lane**
/// ([`Sim::schedule_stream`]): a long, already-sorted run of events — an
/// open-loop arrival stream — is registered as an iterator and holds one
/// pending head instead of one queue entry per event. The executor fires
/// whichever of (queue head, lane heads) is smallest by `(time, sequence)`,
/// so a run is bit-identical to one that pushed every stream event through
/// [`Sim::schedule_at`] at registration.
pub struct Sim<E> {
    now: VirtualTime,
    seq: u64,
    queue: BinaryHeap<Scheduled<E>>,
    /// Unexhausted sorted-stream lanes, in no particular order.
    streams: Vec<Stream<E>>,
    rng: SimRng,
    events_executed: u64,
    /// Hard cap on executed events; guards against seeded bugs producing
    /// genuinely unbounded retry storms inside one run.
    pub event_limit: u64,
}

impl<E> Clock for Sim<E> {
    fn now(&self) -> VirtualTime {
        self.now
    }

    fn advance(&mut self, d: VirtualTime) {
        self.now = self.now.saturating_add(d);
    }
}

impl<E> Sim<E> {
    /// Creates an executor with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Sim {
            now: VirtualTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            streams: Vec::new(),
            rng: SimRng::new(seed),
            events_executed: 0,
            event_limit: 2_000_000,
        }
    }

    /// Current virtual time (also available through [`Clock`]).
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.events_executed
    }

    /// Mutable access to the run RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Schedules `ev` to fire `delay` after the current time.
    pub fn schedule(&mut self, delay: VirtualTime, ev: E) {
        let time = self.now.saturating_add(delay);
        self.schedule_at(time, ev)
    }

    /// Schedules `ev` at an absolute virtual time.
    ///
    /// Times in the past are allowed; the event will run "late" at the
    /// current clock, like a queued request behind a slow handler.
    pub fn schedule_at(&mut self, time: VirtualTime, ev: E) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled { time, seq, ev });
    }

    /// Registers a sorted stream of events: `make_event(t)` fires at each
    /// instant `t` that `times` yields, up to `count` of them, exactly as if
    /// every one had been passed to [`Sim::schedule_at`] here, in order.
    ///
    /// `count` consecutive tie-break sequence numbers are reserved now, so
    /// an event scheduled later at an instant the stream also hits fires
    /// after the stream's, and one scheduled earlier fires before it.
    /// Only the stream's head is held: the next instant is pulled from
    /// `times` (and `make_event` called) as the current one fires, and
    /// [`Sim::pending`] counts one per unexhausted stream. A stream that
    /// ends before `count` simply leaves its remaining numbers unused.
    /// Horizon, [`Sim::event_limit`] and late-event semantics apply to
    /// stream events as to queued events.
    ///
    /// `times` must be nondecreasing. An instant earlier than its
    /// predecessor is not reordered: it fires right after the predecessor,
    /// late at the current clock, where `schedule_at` would have fired it
    /// first.
    pub fn schedule_stream(
        &mut self,
        times: impl Iterator<Item = VirtualTime> + 'static,
        count: u64,
        mut make_event: impl FnMut(VirtualTime) -> E + 'static,
    ) {
        let seq = self.seq;
        self.seq = self.seq.saturating_add(count);
        let take = usize::try_from(count).unwrap_or(usize::MAX);
        let mut rest = Box::new(times.take(take).map(move |t| (t, make_event(t))));
        if let Some(head) = rest.next() {
            self.streams.push(Stream { head, seq, rest });
        }
    }

    /// Schedules `ev` after `base` jittered by `±pct` — the common way targets
    /// model message latency.
    pub fn send(&mut self, base: VirtualTime, pct: f64, ev: E) {
        let d = self.rng.jitter(base, pct);
        self.schedule(d, ev)
    }

    /// Number of pending events: everything queued plus one per
    /// unexhausted stream (its head).
    pub fn pending(&self) -> usize {
        self.queue.len() + self.streams.len()
    }

    /// The next event at or before `until` when streams are registered:
    /// the smallest of the queue head `queued` and every stream head by
    /// `(time, sequence)`. Taking a stream's head pulls its next instant in
    /// behind it; a stream that has run dry is dropped.
    ///
    /// Out of line on purpose: inlined into [`Sim::run`] it costs worlds
    /// that never register a stream ≈ 4.5 % of a run (mini-hdfs2's 45 ns
    /// event loop, 15 of 18 alternating pairs) for ≈ 3 % on stream-fed
    /// ones.
    #[inline(never)]
    fn pop_among_streams(
        &mut self,
        queued: Option<(VirtualTime, u64)>,
        until: VirtualTime,
    ) -> Option<(VirtualTime, E)> {
        let mut best = queued;
        let mut lane = None;
        for (i, s) in self.streams.iter().enumerate() {
            let key = (s.head.0, s.seq);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
                lane = Some(i);
            }
        }
        let (time, _) = best.filter(|&(t, _)| t <= until)?;
        let Some(i) = lane else {
            return Some((time, self.queue.pop().expect("peeked").ev));
        };
        let s = &mut self.streams[i];
        s.seq += 1;
        Some(match s.rest.next() {
            Some(next) => std::mem::replace(&mut s.head, next),
            None => self.streams.swap_remove(i).head,
        })
    }

    /// Runs the world until the queue and every stream drain, the next
    /// event lies past `until`, or the event limit trips: the event that
    /// takes this call past [`Sim::event_limit`] is popped and counted but
    /// dropped unhandled. Returns the number of events executed.
    pub fn run<W: World<Event = E>>(&mut self, world: &mut W, until: VirtualTime) -> u64 {
        let start = self.events_executed;
        loop {
            let queued = self.queue.peek().map(|s| (s.time, s.seq));
            let (time, ev) = if self.streams.is_empty() {
                match queued {
                    Some((time, _)) if time <= until => {
                        (time, self.queue.pop().expect("peeked").ev)
                    }
                    // Nothing left before the horizon.
                    _ => break,
                }
            } else {
                let Some(next) = self.pop_among_streams(queued, until) else {
                    break;
                };
                next
            };
            // Late events execute at the current clock; on-time events move
            // the clock forward.
            self.now = self.now.max(time);
            self.events_executed += 1;
            if self.events_executed - start > self.event_limit {
                break;
            }
            world.handle(self, ev);
        }
        self.events_executed - start
    }

    /// Queueing lateness of an event scheduled at `scheduled`: how long past
    /// its intended time the current handler is running.
    pub fn lateness(&self, scheduled: VirtualTime) -> VirtualTime {
        self.now.saturating_sub(scheduled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        A,
        B,
        Spin(VirtualTime),
    }

    #[derive(Default)]
    struct Log {
        seen: Vec<(Ev, VirtualTime)>,
    }

    impl World for Log {
        type Event = Ev;
        fn handle(&mut self, sim: &mut Sim<Ev>, ev: Ev) {
            if let Ev::Spin(d) = &ev {
                sim.advance(*d);
            }
            self.seen.push((ev, sim.now()));
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new(1);
        sim.schedule(VirtualTime::from_millis(20), Ev::B);
        sim.schedule(VirtualTime::from_millis(10), Ev::A);
        let mut w = Log::default();
        sim.run(&mut w, VirtualTime::from_secs(1));
        assert_eq!(w.seen[0].0, Ev::A);
        assert_eq!(w.seen[1].0, Ev::B);
    }

    #[test]
    fn ties_break_in_scheduling_order() {
        let mut sim = Sim::new(1);
        sim.schedule(VirtualTime::from_millis(5), Ev::A);
        sim.schedule(VirtualTime::from_millis(5), Ev::B);
        let mut w = Log::default();
        sim.run(&mut w, VirtualTime::from_secs(1));
        assert_eq!(w.seen[0].0, Ev::A);
        assert_eq!(w.seen[1].0, Ev::B);
    }

    #[test]
    fn advance_delays_subsequent_events() {
        let mut sim = Sim::new(1);
        sim.schedule(
            VirtualTime::from_millis(1),
            Ev::Spin(VirtualTime::from_secs(5)),
        );
        sim.schedule(VirtualTime::from_millis(2), Ev::A);
        let mut w = Log::default();
        sim.run(&mut w, VirtualTime::from_secs(60));
        // Ev::A was scheduled at 2ms but runs after the 5s spin — "late".
        let (_, a_time) = &w.seen[1];
        assert!(*a_time >= VirtualTime::from_secs(5));
    }

    #[test]
    fn horizon_stops_the_run() {
        let mut sim = Sim::new(1);
        for i in 0..100 {
            sim.schedule(VirtualTime::from_millis(i * 10), Ev::A);
        }
        let mut w = Log::default();
        sim.run(&mut w, VirtualTime::from_millis(95));
        assert_eq!(w.seen.len(), 10); // 0..=90ms
        assert_eq!(sim.pending(), 90);
    }

    #[test]
    fn lateness_measures_queueing_delay() {
        let mut sim: Sim<Ev> = Sim::new(1);
        sim.advance(VirtualTime::from_millis(500));
        assert_eq!(
            sim.lateness(VirtualTime::from_millis(100)),
            VirtualTime::from_millis(400)
        );
        assert_eq!(sim.lateness(VirtualTime::from_secs(10)), VirtualTime::ZERO);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut sim = Sim::new(seed);
            for _ in 0..10 {
                let d = sim.rng().jitter(VirtualTime::from_millis(100), 0.5);
                sim.schedule(d, Ev::A);
            }
            let mut w = Log::default();
            sim.run(&mut w, VirtualTime::from_secs(10));
            w.seen
                .iter()
                .map(|(_, t)| t.as_micros())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn event_limit_bounds_runaway_loops() {
        struct Storm;
        impl World for Storm {
            type Event = ();
            fn handle(&mut self, sim: &mut Sim<()>, _ev: ()) {
                // Re-schedule two events per event: exponential storm.
                sim.schedule(VirtualTime::from_micros(1), ());
                sim.schedule(VirtualTime::from_micros(1), ());
            }
        }
        let mut sim: Sim<()> = Sim::new(1);
        sim.event_limit = 1_000;
        sim.schedule(VirtualTime::ZERO, ());
        let executed = sim.run(&mut Storm, VirtualTime::MAX);
        assert!(executed <= 1_001);
    }
}
