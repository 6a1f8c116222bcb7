//! # cas-sim — discrete-event simulation kernel
//!
//! The substrate every other crate in this workspace builds on. It provides:
//!
//! * [`SimTime`] — a totally-ordered wrapper over `f64` seconds. The paper's
//!   model (and SimGrid, which the authors used for their earlier simulation
//!   study) works in continuous time; we keep `f64` but enforce the
//!   "never NaN" invariant at construction so the event queue ordering is a
//!   genuine total order.
//! * [`EventQueue`] — the *trait* every queue backend implements: stable
//!   (events at equal timestamps pop in insertion order, which makes
//!   simulations deterministic and therefore reproducible across runs and
//!   platforms), earliest-first, object-safe. Three backends ship:
//!   [`HeapQueue`] (binary heap, best below ~10⁴ pending events),
//!   [`CalendarQueue`] (Brown's amortised-O(1) calendar, best above), and
//!   [`AdaptiveQueue`] (migrates between the two at runtime by pending
//!   count and bucket occupancy — the driver's default).
//! * [`Simulation`] — a small driver that repeatedly pops the next event and
//!   hands it to a user-provided [`World`]; generic over the queue backend.
//! * [`pool`] — the process-wide work-stealing thread pool the
//!   experiment runner fans replications out over, instead of spawning
//!   scoped threads per call.
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

pub mod adaptive;
pub mod calendar;
pub mod dist;
pub mod engine;
pub mod event;
pub mod pool;
pub mod prof;
pub mod rng;
pub mod time;

pub use adaptive::AdaptiveQueue;
pub use calendar::CalendarQueue;
pub use engine::{Scheduler, Simulation, World};
pub use event::{EventEntry, EventQueue, Generation, HeapQueue};
pub use rng::{RngStream, StreamKind};
pub use time::SimTime;
