//! The what-if query surface heuristics schedule against.
//!
//! Every HTM-based heuristic asks two questions at decision time: *what
//! if* the task ran on this server (one prediction per query, asked
//! serially — HMCT and MSF stop asking once no remaining candidate's
//! lower bound can beat the best answer so far), and *how much memory*
//! does the model believe a server holds right now. [`WhatIf`] is exactly
//! that surface, object-safe so a
//! [`SchedView`](crate::heuristics::SchedView) can be built over either:
//!
//! * one [`Htm`] — the single-agent configuration, and the executable
//!   spec of everything below, or
//! * a **shard federation** (`cas-middleware`'s router): per-shard HTMs,
//!   with each query routed to the shard owning the server. The
//!   heuristics cannot tell the difference — which is the point: the
//!   paper's policies run unchanged on a partitioned farm.
//!
//! Implementations must answer in terms of **global** server ids; a
//! federated backend translates at its boundary.

use crate::htm::Htm;
use crate::prediction::Prediction;
use cas_platform::{ServerId, TaskInstance};
use cas_sim::SimTime;

/// An object-safe source of HTM what-if answers.
pub trait WhatIf {
    /// Simulates mapping `task` on `server` at `now`; `None` when the
    /// server cannot solve the task's problem.
    fn predict(
        &mut self,
        now: SimTime,
        server: ServerId,
        task: &TaskInstance,
    ) -> Option<Prediction>;

    /// [`WhatIf::predict`] into caller-owned storage: `true` with `out`
    /// overwritten in place when the server can solve, `false` (out
    /// untouched) otherwise. Must equal [`WhatIf::predict`] bit for bit;
    /// backends override the default to reuse `out.perturbations`
    /// instead of allocating a fresh prediction — the zero-allocation
    /// steady-state path queries through here.
    fn predict_into(
        &mut self,
        now: SimTime,
        server: ServerId,
        task: &TaskInstance,
        out: &mut Prediction,
    ) -> bool {
        match self.predict(now, server, task) {
            Some(p) => {
                *out = p;
                true
            }
            None => false,
        }
    }

    /// The model's estimate of `server`'s resident memory at `now`, MB.
    fn resident_estimate(&mut self, now: SimTime, server: ServerId) -> f64;
}

impl WhatIf for Htm {
    fn predict(
        &mut self,
        now: SimTime,
        server: ServerId,
        task: &TaskInstance,
    ) -> Option<Prediction> {
        Htm::predict(self, now, server, task)
    }

    fn predict_into(
        &mut self,
        now: SimTime,
        server: ServerId,
        task: &TaskInstance,
        out: &mut Prediction,
    ) -> bool {
        Htm::predict_into(self, now, server, task, out)
    }

    fn resident_estimate(&mut self, now: SimTime, server: ServerId) -> f64 {
        Htm::resident_estimate(self, now, server)
    }
}
