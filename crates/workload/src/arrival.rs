//! Deterministic open-loop arrival processes.
//!
//! An [`Arrival`] describes *when requests arrive*, independently of how
//! fast the service drains them — the defining property of an open-loop
//! workload. Sampling is driven entirely by a [`SimRng`], so a process is a
//! pure function of `(parameters, seed)`: the same seed reproduces the same
//! request stream bit-for-bit, which keeps workload-driven campaigns inside
//! the simulator's determinism contract.

use std::borrow::BorrowMut;

use csnake_sim::{Sim, SimRng, VirtualTime};

use crate::trace::RecordedTrace;

/// An open-loop arrival process over virtual time.
#[derive(Debug, Clone, PartialEq)]
pub enum Arrival {
    /// Poisson process: independent exponential inter-arrival gaps with
    /// mean `1 / rate_per_sec`.
    Poisson {
        /// Mean arrival rate, requests per virtual second.
        rate_per_sec: f64,
    },
    /// On/off burst process: Poisson arrivals at `rate_per_sec` during each
    /// `on` window, silence during each `off` window, repeating.
    Bursty {
        /// Arrival rate while the source is on, requests per second.
        rate_per_sec: f64,
        /// Active window length.
        on: VirtualTime,
        /// Silent window length.
        off: VirtualTime,
    },
    /// Diurnal rate curve: a Poisson process whose instantaneous rate
    /// follows a raised-cosine between `low_per_sec` (at phase 0) and
    /// `high_per_sec` (half a period in), sampled by thinning.
    Diurnal {
        /// Trough rate, requests per second.
        low_per_sec: f64,
        /// Peak rate, requests per second.
        high_per_sec: f64,
        /// Full low→high→low cycle length.
        period: VirtualTime,
    },
    /// Fixed-interval pacing (no randomness): request `i` arrives at
    /// exactly `interval · i`.
    Paced {
        /// Gap between consecutive requests.
        interval: VirtualTime,
    },
}

/// The instants of an [`Arrival`] process, sampled one at a time: the
/// single definition of each process. Owns its generator (`R = SimRng`)
/// when it outlives the caller as a simulator stream, borrows it
/// (`R = &mut SimRng`) under [`Arrival::times`].
pub struct ArrivalTimes<R> {
    arrival: Arrival,
    rng: R,
    /// Arrivals still to yield.
    left: usize,
    /// The process clock in µs — wall time for `Poisson` and `Diurnal`,
    /// active (on-window) time for `Bursty` — or `Paced`'s request index.
    acc: u64,
}

impl<R: BorrowMut<SimRng>> Iterator for ArrivalTimes<R> {
    type Item = VirtualTime;

    fn next(&mut self) -> Option<VirtualTime> {
        self.left = self.left.checked_sub(1)?;
        let rng = self.rng.borrow_mut();
        let us = match self.arrival {
            Arrival::Poisson { rate_per_sec } => {
                self.acc = self.acc.saturating_add(exp_gap_us(rng, rate_per_sec));
                self.acc
            }
            Arrival::Bursty {
                rate_per_sec,
                on,
                off,
            } => {
                // Sample in "active time" (the concatenation of on-windows)
                // and map back to wall time — exact, no rejection.
                let on_us = on.as_micros().max(1);
                let cycle_us = on_us.saturating_add(off.as_micros());
                self.acc = self.acc.saturating_add(exp_gap_us(rng, rate_per_sec));
                (self.acc / on_us)
                    .saturating_mul(cycle_us)
                    .saturating_add(self.acc % on_us)
            }
            Arrival::Diurnal {
                low_per_sec,
                high_per_sec,
                period,
            } => {
                // Lewis–Shedler thinning against the peak rate.
                let high = high_per_sec.max(low_per_sec);
                let period_us = period.as_micros().max(1) as f64;
                loop {
                    self.acc = self.acc.saturating_add(exp_gap_us(rng, high));
                    let phase = (self.acc as f64 / period_us) * std::f64::consts::TAU;
                    let rate = low_per_sec + (high - low_per_sec) * 0.5 * (1.0 - phase.cos());
                    // A saturated clock accepts: at rate zero nothing else
                    // ever would, and the arrival parks at the end of time
                    // like `Poisson`'s at rate zero.
                    if rng.unit() * high < rate || self.acc == u64::MAX {
                        break self.acc;
                    }
                }
            }
            Arrival::Paced { interval } => {
                self.acc += 1;
                interval.as_micros().saturating_mul(self.acc - 1)
            }
        };
        Some(VirtualTime::from_micros(us))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl Arrival {
    /// The first `count` arrival instants as a lazy stream, nondecreasing,
    /// starting at or after time zero. Deterministic in `(self, rng state)`.
    pub fn stream<R: BorrowMut<SimRng>>(&self, rng: R, count: usize) -> ArrivalTimes<R> {
        ArrivalTimes {
            arrival: self.clone(),
            rng,
            left: count,
            acc: 0,
        }
    }

    /// [`Arrival::stream`], collected.
    pub fn times(&self, rng: &mut SimRng, count: usize) -> Vec<VirtualTime> {
        self.stream(rng, count).collect()
    }

    /// The long-run mean rate in requests per virtual second (the pacing
    /// target an experiment offers the service).
    pub fn mean_rate_per_sec(&self) -> f64 {
        match *self {
            Arrival::Poisson { rate_per_sec } => rate_per_sec,
            Arrival::Bursty {
                rate_per_sec,
                on,
                off,
            } => {
                let on_us = on.as_micros() as f64;
                let cycle = on_us + off.as_micros() as f64;
                if cycle == 0.0 {
                    rate_per_sec
                } else {
                    rate_per_sec * on_us / cycle
                }
            }
            Arrival::Diurnal {
                low_per_sec,
                high_per_sec,
                ..
            } => (low_per_sec + high_per_sec.max(low_per_sec)) / 2.0,
            Arrival::Paced { interval } => {
                let us = interval.as_micros();
                if us == 0 {
                    f64::INFINITY
                } else {
                    1e6 / us as f64
                }
            }
        }
    }
}

/// One exponential inter-arrival gap at `rate_per_sec`, in µs (≥ 1).
fn exp_gap_us(rng: &mut SimRng, rate_per_sec: f64) -> u64 {
    let rate = rate_per_sec.max(1e-9);
    // -ln(1-U)/λ; 1-U ∈ (0, 1] avoids ln(0).
    let gap_s = -(1.0 - rng.unit()).ln() / rate;
    ((gap_s * 1e6) as u64).max(1)
}

/// Where a workload's request stream comes from: a sampled arrival process
/// or a recorded trace replayed verbatim.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalSource {
    /// Sample `offered` arrivals from the process.
    Process {
        /// The arrival process to sample.
        arrival: Arrival,
        /// How many requests to offer.
        offered: u64,
    },
    /// Replay a recorded trace's timestamps exactly.
    Trace(RecordedTrace),
}

impl ArrivalSource {
    /// The request instants this source offers, nondecreasing.
    pub fn times(&self, rng: &mut SimRng) -> Vec<VirtualTime> {
        match self {
            ArrivalSource::Process { arrival, offered } => arrival.times(rng, *offered as usize),
            ArrivalSource::Trace(trace) => trace.arrival_times(),
        }
    }

    /// Registers the instants [`ArrivalSource::times`] would return as one
    /// sorted stream on `sim` ([`Sim::schedule_stream`]): sampled, or read
    /// from the shared recording, as each request fires.
    pub fn schedule<E>(
        &self,
        sim: &mut Sim<E>,
        rng: SimRng,
        make_event: impl FnMut(VirtualTime) -> E + 'static,
    ) {
        match self {
            ArrivalSource::Process { arrival, offered } => {
                sim.schedule_stream(arrival.stream(rng, *offered as usize), *offered, make_event)
            }
            ArrivalSource::Trace(trace) => {
                sim.schedule_stream(trace.times(), trace.len() as u64, make_event)
            }
        }
    }

    /// Number of requests the source offers.
    pub fn offered(&self) -> u64 {
        match self {
            ArrivalSource::Process { offered, .. } => *offered,
            ArrivalSource::Trace(trace) => trace.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_nondecreasing(times: &[VirtualTime]) {
        for pair in times.windows(2) {
            assert!(pair[0] <= pair[1], "{} > {}", pair[0], pair[1]);
        }
    }

    #[test]
    fn poisson_is_deterministic_and_near_rate() {
        let arrival = Arrival::Poisson {
            rate_per_sec: 1000.0,
        };
        let a = arrival.times(&mut SimRng::new(7), 10_000);
        let b = arrival.times(&mut SimRng::new(7), 10_000);
        assert_eq!(a, b);
        assert_nondecreasing(&a);
        // 10k arrivals at 1000/s should take ≈10 s of virtual time.
        let span_s = a.last().unwrap().as_micros() as f64 / 1e6;
        assert!((8.0..12.0).contains(&span_s), "{span_s}");
    }

    #[test]
    fn bursty_leaves_off_windows_empty() {
        let on = VirtualTime::from_millis(100);
        let off = VirtualTime::from_millis(400);
        let arrival = Arrival::Bursty {
            rate_per_sec: 2000.0,
            on,
            off,
        };
        let times = arrival.times(&mut SimRng::new(3), 2_000);
        assert_nondecreasing(&times);
        let cycle = on.as_micros() + off.as_micros();
        for t in &times {
            assert!(
                t.as_micros() % cycle < on.as_micros(),
                "arrival {t} inside an off-window"
            );
        }
    }

    #[test]
    fn diurnal_peak_half_period_outpaces_trough() {
        let period = VirtualTime::from_secs(10);
        let arrival = Arrival::Diurnal {
            low_per_sec: 100.0,
            high_per_sec: 2000.0,
            period,
        };
        let times = arrival.times(&mut SimRng::new(11), 8_000);
        assert_nondecreasing(&times);
        // Phase [0.25, 0.75) of each period holds the raised-cosine peak.
        let peak = times
            .iter()
            .filter(|t| {
                let pos = t.as_micros() % period.as_micros();
                (period.as_micros() / 4..3 * period.as_micros() / 4).contains(&pos)
            })
            .count();
        assert!(
            peak * 2 > times.len(),
            "peak half-period got {peak}/{} arrivals",
            times.len()
        );
    }

    #[test]
    fn paced_is_an_exact_grid() {
        let arrival = Arrival::Paced {
            interval: VirtualTime::from_millis(5),
        };
        let times = arrival.times(&mut SimRng::new(1), 4);
        assert_eq!(
            times,
            vec![
                VirtualTime::ZERO,
                VirtualTime::from_millis(5),
                VirtualTime::from_millis(10),
                VirtualTime::from_millis(15),
            ]
        );
    }

    #[test]
    fn mean_rates_reflect_duty_cycle() {
        let bursty = Arrival::Bursty {
            rate_per_sec: 1000.0,
            on: VirtualTime::from_millis(100),
            off: VirtualTime::from_millis(300),
        };
        assert!((bursty.mean_rate_per_sec() - 250.0).abs() < 1e-9);
        let paced = Arrival::Paced {
            interval: VirtualTime::from_millis(2),
        };
        assert!((paced.mean_rate_per_sec() - 500.0).abs() < 1e-9);
    }

    /// `times()` as the eager samplers produced it before they became one
    /// iterator: a hash of the instants and the generator's next raw draw
    /// (Diurnal draws twice per candidate, so draw order shows in both).
    #[test]
    fn every_process_streams_the_instants_the_eager_samplers_produced() {
        let ms = VirtualTime::from_millis;
        #[rustfmt::skip]
        let cases = [
            (Arrival::Poisson { rate_per_sec: 1_500.0 }, 7, 0x98dbcc3e4270d8ff, 0xdb192f7508e8d02a),
            (Arrival::Bursty { rate_per_sec: 3_000.0, on: ms(200), off: ms(300) }, 3, 0x1d66cd24d1682f34, 0xaca41ea51a744f60),
            (Arrival::Diurnal { low_per_sec: 200.0, high_per_sec: 2_500.0, period: ms(4_000) }, 11, 0xbe96af4577c9c0f1, 0xa18194265af8877a),
            (Arrival::Paced { interval: ms(5) }, 1, 0xf9341443b43657fc, 0xcfc5d07f6f03c29b),
        ];
        for (arrival, seed, times_hash, next_raw) in cases {
            let mut rng = SimRng::new(seed);
            let eager = arrival.times(&mut rng, 5_000);
            let hash = csnake_inject::fnv1a(eager.iter().map(|t| t.as_micros()));
            assert_eq!((hash, rng.raw()), (times_hash, next_raw), "{arrival:?}");
            // The owning stream a simulator lane pulls from, one at a time.
            let mut lazy = arrival.stream(SimRng::new(seed), 5_000);
            assert_eq!(lazy.size_hint(), (5_000, Some(5_000)));
            assert!(eager.iter().all(|&t| lazy.next() == Some(t)), "{arrival:?}");
            assert_eq!(lazy.next(), None);
        }
    }

    #[test]
    fn trace_source_streams_its_recorded_instants() {
        let trace = RecordedTrace::parse("0us a\n5us b\n5us a\n2ms\n").expect("valid");
        let source = ArrivalSource::Trace(trace.clone());
        let times = source.times(&mut SimRng::new(1));
        assert_eq!(times, trace.times().collect::<Vec<_>>());
        assert_eq!(times.len() as u64, source.offered());
        assert_eq!(times[3], VirtualTime::from_millis(2));
    }

    /// A zero-rate diurnal curve used to spin forever: thinning accepts
    /// with probability `rate / high` and `0 < 0` never holds. Scenario
    /// text reaches this (`arrive Ev diurnal low 0 high 0 …` compiles).
    #[test]
    fn zero_rate_diurnal_terminates_at_the_end_of_time() {
        let arrival = Arrival::Diurnal {
            low_per_sec: 0.0,
            high_per_sec: 0.0,
            period: VirtualTime::from_secs(1),
        };
        let times = arrival.times(&mut SimRng::new(5), 3);
        assert_eq!(times, vec![VirtualTime::MAX; 3]);
    }
}
