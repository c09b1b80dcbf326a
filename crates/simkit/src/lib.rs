//! `simkit` is the deterministic discrete-event simulation kernel used by the
//! SmartDIMM reproduction.
//!
//! Every simulator in this workspace (the DDR4 model, the LLC model, the
//! network model, the server harness) is built on the primitives provided
//! here:
//!
//! * [`Cycle`] — a point in simulated time, an ordered newtype over a
//!   cycle count,
//! * [`EventQueue`] — a priority queue of timestamped events with a
//!   deterministic FIFO tie-break,
//! * [`DetRng`] — a seedable, reproducible pseudo-random number generator
//!   (SplitMix64 seeded xoshiro256++),
//! * the [`stats`] module — histograms and time series used to produce
//!   every number reported in `EXPERIMENTS.md`,
//! * the [`telemetry`] module — a hierarchical registry of plain-value
//!   metrics that gathers every component's stats into one deterministic
//!   `telemetry/v1` JSON snapshot,
//! * the [`par`] module — the one threading doorway: it runs independent
//!   whole simulations in parallel on as many workers as the machine
//!   offers and returns their results in input order.
//!
//! # Example
//!
//! ```
//! use simkit::{EventQueue, Cycle};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(Cycle(30), "late");
//! q.push(Cycle(10), "early");
//! q.push(Cycle(10), "early-second"); // same cycle: FIFO order preserved
//!
//! assert_eq!(q.pop(), Some((Cycle(10), "early")));
//! assert_eq!(q.pop(), Some((Cycle(10), "early-second")));
//! assert_eq!(q.pop(), Some((Cycle(30), "late")));
//! assert_eq!(q.pop(), None);
//! ```

#![forbid(unsafe_code)]

pub mod clock;
pub mod events;
pub mod fault;
pub mod hash;
pub mod par;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod timer;
pub mod trace;

pub use clock::Cycle;
pub use events::EventQueue;
pub use fault::{FaultEvent, FaultHandle, FaultKind, FaultPlan, FiredFault};
pub use rng::DetRng;
pub use stats::{Histogram, QuantileEstimate, TimeSeries};
pub use telemetry::{Registry, Scope};
pub use trace::{TraceRecord, TraceSink};
