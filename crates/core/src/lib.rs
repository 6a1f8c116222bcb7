//! # cas-core — the Historical Trace Manager and the paper's heuristics
//!
//! This crate is the reproduction of the paper's contribution proper:
//!
//! * [`trace`] — [`ServerTrace`]: the per-server discrete simulation at the
//!   heart of the HTM. Each mapped task flows through its three phases
//!   (input transfer → compute → output transfer), each phase a flat
//!   equal-share lane; "all tasks mapped on a given server progress at
//!   the same speed until a new task arrives or a running task finishes"
//!   (§2.3).
//! * [`htm`] — [`Htm`]: the agent-side manager that owns one trace per
//!   server, answers *what-if* queries (simulated completion date of a
//!   candidate placement and the perturbation it inflicts on every
//!   already-mapped task), records commitments, and optionally
//!   re-synchronises with observed completions (the paper's stated future
//!   work, implemented here behind [`htm::SyncPolicy`]).
//! * [`prediction`] — the quantities a what-if query returns: `f(i, n_i+1)`,
//!   the perturbations `π_j = f'_j − f_j`, their sum, and the count of
//!   interfered tasks.
//! * [`gantt`] — Gantt-chart extraction from a trace and the ASCII rendering
//!   used to reproduce Fig. 1.
//! * [`heuristics`] — the scheduling policies: the NetSolve-style [`Mct`]
//!   baseline driven by (stale, corrected) load reports, and the HTM-based
//!   [`Hmct`], [`Mp`], [`Msf`] of Figs. 2–4, plus Weissman's MNI and simple
//!   baselines (round-robin, random, min-load, OLB) for ablations.
//! * [`selector`] — stage 1 of the two-stage decision pipeline: an
//!   object-safe [`CandidateSelector`] proposes a shortlist from the
//!   incrementally maintained static index before any HTM drain runs;
//!   backends [`Exhaustive`] (the spec), [`TopK`] and [`Adaptive`].
//!
//! The crate is pure model code: no events, no wall-clock, no I/O. The
//! middleware crate drives it.
//!
//! # Prediction-cache invariants
//!
//! The what-if engine ([`htm`]) is zero-clone and generation-cached; its
//! correctness rests on these invariants, enforced by the differential
//! proptests in `trace.rs` and `htm.rs`:
//!
//! 1. **Stamp soundness.** Every observable mutation of a [`ServerTrace`]
//!    (task added, task force-finished, cursor advanced past an event or a
//!    time span) bumps [`ServerTrace::generation`]. Equal stamps ⇒
//!    bit-identical trace state ⇒ the cached baseline schedule is valid.
//! 2. **Queries are pure.** [`Htm::predict`] and [`Htm::predict_into`]
//!    never mutate a trace (in particular they do *not* advance it to the
//!    query time — the trace stays lazy until the next
//!    commit/retract/sync), so a whole decision round, and every round
//!    until the next commit on that server, reuses one cached baseline.
//! 3. **Replay fidelity.** There is one lane representation and one
//!    event loop: the live trace and the speculative drain
//!    ([`trace::DrainScratch`], a copy of the trace's lanes) both run it,
//!    so a drain performs the same floating-point operations in the same
//!    order as cloning the trace, inserting the probe and draining the
//!    clone, and predictions agree bit for bit. The oracle is
//!    independent of that kernel: `trace.rs`'s test code keeps a
//!    reference trace built on `FairShareResource` lanes and a job
//!    table, and the proptests diff the live trace, every drain path and
//!    its clone-and-drain against it, operation by operation.
//! 4. **Splice ≡ re-drain.** A commit adopts the committed task's
//!    speculative after-schedule as the new baseline and a retract adopts
//!    the without-task drain, instead of invalidating and re-draining. By
//!    invariant 3 the adopted schedule is bit-identical to a full
//!    re-drain of the mutated trace; the proptests assert
//!    [`Htm::cached_baseline`] `==` [`ServerTrace::drain_schedule`] after
//!    every mutation.
//! 5. **Truncation and prefix sharing are pure.** The drain engine
//!    truncates speculative drains at the probe's completion
//!    (completion-only heuristics) and resumes a shared baseline-prefix
//!    cursor saved at event boundaries. Both preserve bit identity by
//!    construction — truncation cuts only the tail after the probe's
//!    entry, and the prefix snapshot is taken at the last processed
//!    event (the only resumable point in float arithmetic) — and the
//!    proptests check every answer against the clone-and-drain oracle
//!    over arbitrary interleavings.
//! 6. **Bounds never exceed objectives.** HMCT and MSF skip candidates
//!    whose lower bound cannot beat the incumbent
//!    ([`heuristics::SchedView::argmin_bounded`]): first by the bound on
//!    an idle server, which orders and stops the walk, then by the bound
//!    on the [`trace::Backlog`] the probe would join, which ends a query
//!    before its drain ([`Htm::predict_into_unless`]). A pruned query
//!    writes and memoises nothing, so no later answer can tell it ran.
//!    The skips are exact only while every bound stays at or below its
//!    objective, which proptests check against the oracle (deep queues
//!    and clocks up to 1e7 s included) and a `debug_assert!` checks on
//!    every candidate the walk visits.

pub mod gantt;
pub mod heuristics;
pub mod htm;
pub mod prediction;
pub mod selector;
pub mod trace;

pub use gantt::{Gantt, GanttRow, GanttSegment};
pub use heuristics::{
    DecisionMemo, Heuristic, HeuristicKind, Hmct, Mct, MinLoad, Mni, Mp, Msf, Olb, RandomChoice,
    RoundRobin, SchedView,
};
pub use htm::{Htm, MemoStats, SyncPolicy};
pub use prediction::Prediction;
pub use selector::{Adaptive, CandidateSelector, Exhaustive, SelectorInput, SelectorKind, TopK};
pub use trace::{DrainScratch, PrefixCursor, ServerTrace};
