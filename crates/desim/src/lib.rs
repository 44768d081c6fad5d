//! # desim — a deterministic discrete-event simulation kernel
//!
//! `desim` is the substrate every other crate in this workspace builds on. It
//! provides:
//!
//! * [`SimTime`] / [`SimDelta`] — nanosecond-resolution simulated time,
//! * [`Engine`] / [`Scheduler`] / [`Model`] — an event-calendar simulation loop
//!   with FIFO tie-breaking and event cancellation,
//! * [`rng`] — a small, seedable, reproducible random-number generator,
//! * [`stats`] — counters, fixed-width histograms and windowed rate
//!   trackers used for the measurements in the VIP reproduction.
//!
//! The kernel is deliberately minimal: models own all of their state and
//! receive a mutable [`Scheduler`] while handling each event, so there is no
//! shared-ownership machinery and runs are bit-for-bit reproducible.
//!
//! # Example
//!
//! ```
//! use desim::{Engine, Model, Scheduler, SimDelta, SimTime};
//!
//! struct PingPong { bounces: u32 }
//! #[derive(Debug)]
//! enum Ev { Ping, Pong }
//!
//! impl Model for PingPong {
//!     type Event = Ev;
//!     fn handle(&mut self, ev: Ev, sched: &mut Scheduler<Ev>) {
//!         self.bounces += 1;
//!         match ev {
//!             Ev::Ping => { sched.after(SimDelta::from_us(1), Ev::Pong); }
//!             Ev::Pong if self.bounces < 10 => {
//!                 sched.after(SimDelta::from_us(1), Ev::Ping);
//!             }
//!             Ev::Pong => {}
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(PingPong { bounces: 0 });
//! engine.scheduler().at(SimTime::ZERO, Ev::Ping);
//! engine.run();
//! assert_eq!(engine.model().bounces, 10);
//! assert_eq!(engine.now(), SimTime::from_us(9));
//! ```

#![deny(unsafe_code)]

pub mod check;
pub mod engine;
pub mod hash;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{Engine, EventToken, Model, RunOutcome, Scheduler, SchedulerSnapshot};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use rng::SplitMix64;
pub use time::{SimDelta, SimTime};
