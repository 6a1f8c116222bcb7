//! # cas-sim — discrete-event simulation kernel
//!
//! The substrate every other crate in this workspace builds on. It provides:
//!
//! * [`SimTime`] — a totally-ordered wrapper over `f64` seconds. The paper's
//!   model (and SimGrid, which the authors used for their earlier simulation
//!   study) works in continuous time; we keep `f64` but enforce the
//!   "never NaN" invariant at construction so the event queue ordering is a
//!   genuine total order.
//! * [`EventQueue`] — the one event queue: stable (events at equal
//!   timestamps pop in sequence order — push order, or the order of
//!   numbers reserved up front — which makes simulations deterministic
//!   and therefore reproducible across runs and platforms) and
//!   earliest-first. A binary heap plus a sorted run that takes every
//!   push whose (time, sequence) follows its last entry's, so events
//!   pushed in time order cost O(1) each. A stream known in advance,
//!   such as a campaign's arrivals, reserves its sequence numbers and is
//!   pushed one event at a time, so the queue holds only its next event.
//! * [`Simulation`] — a small driver that repeatedly pops the next event and
//!   hands it to a user-provided [`World`].
//! * [`pool`] — the fan-out the experiment runner runs replications on:
//!   at most one scoped thread per core, the caller among them, results
//!   in index order.
//! * [`prof`] — the always-on phase profiler: scope-guard spans charging
//!   monotonic-counter time to a fixed phase enum through thread-local
//!   accumulators, cheap enough to stay on in release campaigns. Lives
//!   in the kernel crate so the kernel loop itself (`KernelPop`) can be
//!   attributed; re-exported as `cas_metrics::prof` for reporting.
//! * [`rng`] — deterministic, splittable RNG streams so that every stochastic
//!   component (arrival process, CPU noise, tie-breaking) draws from its own
//!   stream derived from one root seed.
//! * [`dist`] — the distributions the experiments need (exponential, Poisson,
//!   normal, log-normal) implemented directly so the behaviour is fixed
//!   independent of `rand` version bumps.
//!
//! The kernel is deliberately free of any grid/scheduling vocabulary: it
//! knows nothing about servers or tasks. `cas-platform` layers the resource
//! model on top and `cas-middleware` wires a full client-agent-server system
//! into a [`World`].

pub mod dist;
pub mod engine;
pub mod event;
pub mod pool;
pub mod prof;
pub mod rng;
pub mod time;

pub use engine::{Scheduler, Simulation, World};
pub use event::{EventEntry, EventQueue, Generation};
pub use rng::{RngStream, StreamKind};
pub use time::SimTime;
