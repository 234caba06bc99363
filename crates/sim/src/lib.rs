//! Deterministic discrete-event simulation substrate for the CSnake
//! reproduction.
//!
//! The paper evaluates CSnake on five real Java distributed systems running on
//! physical testbeds. This crate provides the substitute substrate: a
//! single-threaded, fully deterministic discrete-event simulator with
//! *virtual time*. Target systems (see `csnake-targets`) are written as
//! [`World`] implementations whose event handlers may *advance* virtual time
//! to model computation cost — which is exactly how CSnake's spinning-delay
//! injection manifests (a delayed loop iteration advances the clock, and every
//! event queued behind it observes the queueing delay, just like a
//! single-threaded RPC server with a backlog).
//!
//! Determinism: given the same seed and the same sequence of scheduled events,
//! a run is bit-for-bit reproducible. Run-to-run variance (needed by the
//! paper's t-test on loop iteration counts, §4.3) comes from seeding each
//! repetition differently, which perturbs message latency jitter.
//!
//! # Examples
//!
//! ```
//! use csnake_sim::{Sim, VirtualTime, World};
//!
//! struct Counter {
//!     ticks: u32,
//! }
//!
//! enum Ev {
//!     Tick,
//! }
//!
//! impl World for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, sim: &mut Sim<Ev>, _ev: Ev) {
//!         self.ticks += 1;
//!         if self.ticks < 10 {
//!             sim.schedule(VirtualTime::from_millis(100), Ev::Tick);
//!         }
//!     }
//! }
//!
//! let mut sim = Sim::new(42);
//! sim.schedule(VirtualTime::ZERO, Ev::Tick);
//! let mut world = Counter { ticks: 0 };
//! sim.run(&mut world, VirtualTime::from_secs(60));
//! assert_eq!(world.ticks, 10);
//! ```

pub mod queue;
pub mod rng;
pub mod sim;
pub mod time;

pub use queue::BoundedQueue;
pub use rng::SimRng;
pub use sim::{Clock, Sim, World};
pub use time::VirtualTime;
