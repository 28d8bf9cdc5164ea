//! # simkit — discrete-event simulation substrate
//!
//! The paper evaluates its protocols inside **CSIM 19**, a commercial
//! discrete-event simulator. This crate is the from-scratch replacement: a
//! deterministic event queue, a simulation clock, a seeded random-number
//! layer, the probability distributions the workloads need, and small
//! statistics helpers.
//!
//! Everything here is deterministic given a seed: the event queue breaks
//! timestamp ties by insertion sequence number, and all distributions are
//! implemented on top of a single seeded PRNG stream.
//!
//! ```
//! use simkit::queue::EventQueue;
//!
//! let mut q = EventQueue::new();
//! q.schedule(2.0, "later");
//! q.schedule(1.0, "sooner");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (1.0, "sooner"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod fault;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::{Exponential, Geometric, Normal, Uniform, Zipf};
pub use fault::{Backoff, FaultDecision, FaultMix, FaultSchedule, ScheduleState};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use stats::{percentile, RunningStats};
pub use time::{reflect_into, SimTime, TickClock};
