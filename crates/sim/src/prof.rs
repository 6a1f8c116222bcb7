//! Always-on phase profiler: where does the wall time of a campaign go?
//!
//! Every past hot-path PR was aimed by microbench guesswork because the
//! standing campaigns never said *which* phase — the stage-1 shortlist
//! walk, the stage-2 what-if drains, the model-repair hooks or the
//! kernel's own queue — owned the seconds. This module is the
//! attribution: a fixed [`Phase`] enum, a scope-guard [`span`] that
//! charges its lifetime to one phase through a raw monotonic counter,
//! and thread-local accumulators so recording a span is two counter
//! reads and two plain adds — no atomics, no locks, no allocation,
//! cheap enough to leave on in release campaigns (the benches *gate*
//! the measured overhead below 2 % of wall time, using the median of
//! five [`calibrate_span_ns`] rounds × the span count as a conservative
//! estimate).
//!
//! On x86_64 the counter is the invariant TSC read directly with
//! `rdtsc` — a fraction of the cost of `Instant::now`'s vDSO call.
//! The kernel's pop is an operation of comparable size to the clock
//! read itself and runs once per event, so it alone is sampled: one pop
//! in [`POP_SAMPLE_PERIOD`] is timed ([`pop_span`]), and that span
//! stands for the whole period in its phase's time and count. A phase's
//! count is therefore the occurrences it covers, and the overhead
//! estimate prices the spans actually closed ([`PhaseTotals::total_spans`]).
//! Accumulators hold raw ticks; [`snapshot`] converts to nanoseconds
//! through a once-measured ticks-per-nanosecond ratio. Other
//! architectures fall back to [`std::time::Instant`].
//!
//! Accumulators are per thread on purpose: every instrumented section
//! runs on the simulation's driving thread (the kernel loop, the
//! router's serial sections, the engine's hooks), so [`snapshot`] on
//! that thread sees the whole campaign, and no other thread can touch
//! its accumulators. The profiler is *infra*, not an experiment:
//! phases are chosen so sibling spans never nest (stage 1 / stage 2 are
//! disjoint sections of one decision; hook time during churn is charged
//! to `Churn`, not `CommitHooks`), which keeps the per-phase totals
//! additive against wall time.
//!
//! When campaigns themselves fan out (parallel replications on
//! [`crate::pool`]'s scoped threads), each thread accumulates into its
//! own thread-locals.
//! [`flush`] drains the calling thread's accumulators into a process-wide
//! atomic ledger (called once per replication, so the atomics cost
//! nothing per span), and [`merged_snapshot`] reads the ledger plus the
//! caller's live locals — the cross-thread view `--profile` renders.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The raw clock behind the spans: TSC ticks on x86_64 (converted to
/// nanoseconds only at [`snapshot`] time), `Instant`-derived
/// nanoseconds elsewhere. Both are process-monotonic; only *deltas*
/// ever leave this module.
#[cfg(target_arch = "x86_64")]
mod clock {
    use std::sync::OnceLock;
    use std::time::Instant;

    /// Current raw timestamp, in TSC ticks.
    #[inline]
    pub fn now() -> u64 {
        // SAFETY: `rdtsc` is unprivileged on every x86_64 target this
        // crate builds for; it reads a counter and has no other effect.
        unsafe { core::arch::x86_64::_rdtsc() }
    }

    /// Ticks-per-nanosecond ratio, measured once per process against
    /// the OS monotonic clock over a short spin (the flags this path
    /// assumes — `constant_tsc`/`nonstop_tsc` — make the ratio stable
    /// across cores and frequency states).
    fn ticks_per_nano() -> f64 {
        static RATIO: OnceLock<f64> = OnceLock::new();
        *RATIO.get_or_init(|| {
            let t0 = Instant::now();
            let c0 = now();
            while t0.elapsed().as_millis() < 5 {
                std::hint::spin_loop();
            }
            let ticks = now().wrapping_sub(c0);
            let nanos = t0.elapsed().as_nanos().max(1) as f64;
            (ticks as f64 / nanos).max(f64::MIN_POSITIVE)
        })
    }

    /// Converts an accumulated tick delta to nanoseconds.
    pub fn to_nanos(ticks: u64) -> u64 {
        (ticks as f64 / ticks_per_nano()) as u64
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod clock {
    use std::sync::OnceLock;
    use std::time::Instant;

    fn epoch() -> Instant {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        *EPOCH.get_or_init(Instant::now)
    }

    /// Current raw timestamp: nanoseconds since the process epoch.
    #[inline]
    pub fn now() -> u64 {
        epoch().elapsed().as_nanos() as u64
    }

    /// Raw deltas are already nanoseconds on this path.
    pub fn to_nanos(ticks: u64) -> u64 {
        ticks
    }
}

/// The fixed set of profiled phases. One decision contributes to
/// `Stage1Walk` (shortlist construction across the shard federation)
/// and `Stage2Predict` (the heuristic's what-if queries); the
/// rest of a campaign's work lands in the hook, kernel and periodic
/// phases. Phases are disjoint by construction — see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Stage 1: per-shard selector shortlists + the skyline merge.
    Stage1Walk,
    /// Stage 2: the heuristic's what-if predictions over the shortlist.
    Stage2Predict,
    /// Commit-time prediction + commit/complete model-repair hooks
    /// (outside churn handling).
    CommitHooks,
    /// The kernel's event-queue pop (the heap-or-run front compare plus
    /// the heap's sift or the run's O(1) take).
    KernelPop,
    /// Fault handling: crashes, joins, leaves, provisions, retractions
    /// and rebalances — including the model hooks they trigger.
    Churn,
    /// Periodic load-report refresh (per-server or per-shard).
    Reports,
}

/// Number of phases (array stride of the accumulators).
pub const N_PHASES: usize = 6;

/// One kernel pop in this many is timed; see [`pop_span`].
pub const POP_SAMPLE_PERIOD: u64 = 64;

/// Every phase, in declaration order (the order of [`PhaseTotals`]
/// arrays and of every rendered table).
pub const ALL_PHASES: [Phase; N_PHASES] = [
    Phase::Stage1Walk,
    Phase::Stage2Predict,
    Phase::CommitHooks,
    Phase::KernelPop,
    Phase::Churn,
    Phase::Reports,
];

impl Phase {
    /// Stable display / JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Stage1Walk => "stage1_walk",
            Phase::Stage2Predict => "stage2_predict",
            Phase::CommitHooks => "commit_hooks",
            Phase::KernelPop => "kernel_pop",
            Phase::Churn => "churn",
            Phase::Reports => "reports",
        }
    }

    /// Occurrences one closed span of this phase stands for: a sampled
    /// kernel pop covers its whole period, every other span itself.
    const fn weight(self) -> u64 {
        match self {
            Phase::KernelPop => POP_SAMPLE_PERIOD,
            _ => 1,
        }
    }
}

/// One thread's live accumulators: raw clock ticks and occurrence
/// counts per phase, updated in place (no whole-array copies on the
/// span path).
struct Acc {
    ticks: [Cell<u64>; N_PHASES],
    counts: [Cell<u64>; N_PHASES],
}

thread_local! {
    static ACC: Acc = const {
        Acc {
            ticks: [const { Cell::new(0) }; N_PHASES],
            counts: [const { Cell::new(0) }; N_PHASES],
        }
    };
}

/// Reads the calling thread's raw accumulators.
fn raw_local() -> ([u64; N_PHASES], [u64; N_PHASES]) {
    ACC.with(|acc| {
        let mut ticks = [0; N_PHASES];
        let mut counts = [0; N_PHASES];
        for i in 0..N_PHASES {
            ticks[i] = acc.ticks[i].get();
            counts[i] = acc.counts[i].get();
        }
        (ticks, counts)
    })
}

/// Overwrites the calling thread's raw accumulators.
fn set_raw_local(ticks: [u64; N_PHASES], counts: [u64; N_PHASES]) {
    ACC.with(|acc| {
        for i in 0..N_PHASES {
            acc.ticks[i].set(ticks[i]);
            acc.counts[i].set(counts[i]);
        }
    });
}

/// A live span: charges the time from construction to drop to `phase`.
/// Bind it to a `_sp` local — dropping at end of scope closes it.
#[must_use = "a span charges its scope's lifetime; dropping it immediately records nothing"]
pub struct Span {
    phase: usize,
    weight: u64,
    start: u64,
}

/// Opens a span on `phase` for the current scope. Kernel pops open
/// theirs through [`pop_span`] instead.
#[inline]
pub fn span(phase: Phase) -> Span {
    Span {
        phase: phase as usize,
        weight: phase.weight(),
        start: clock::now(),
    }
}

/// The span of a run's `pop`-th event-queue pop, counting from zero:
/// `Some` for one pop in [`POP_SAMPLE_PERIOD`], whose time and count
/// are charged to [`Phase::KernelPop`] that many times over, `None` for
/// the pops it stands for. A run of `n` pops thus counts `n` rounded up
/// to the period.
#[inline]
pub fn pop_span(pop: u64) -> Option<Span> {
    pop.is_multiple_of(POP_SAMPLE_PERIOD)
        .then(|| span(Phase::KernelPop))
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        let dt = clock::now().wrapping_sub(self.start);
        ACC.with(|acc| {
            let t = &acc.ticks[self.phase];
            t.set(t.get().wrapping_add(dt.wrapping_mul(self.weight)));
            let c = &acc.counts[self.phase];
            c.set(c.get() + self.weight);
        });
    }
}

/// One thread's accumulated phase totals, as captured by [`snapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Nanoseconds per phase, indexed like [`ALL_PHASES`].
    pub nanos: [u64; N_PHASES],
    /// Occurrences per phase, indexed like [`ALL_PHASES`]: closed spans,
    /// each counted for what it stands for (see [`pop_span`]).
    pub counts: [u64; N_PHASES],
}

impl PhaseTotals {
    /// Accumulated nanoseconds of `phase`.
    pub fn nanos_of(&self, phase: Phase) -> u64 {
        self.nanos[phase as usize]
    }

    /// Occurrences of `phase`.
    pub fn count_of(&self, phase: Phase) -> u64 {
        self.counts[phase as usize]
    }

    /// Total profiled nanoseconds across every phase.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Spans closed across every phase: each phase's count over what
    /// one of its spans stands for (what the overhead estimate prices).
    pub fn total_spans(&self) -> u64 {
        ALL_PHASES
            .iter()
            .map(|&p| self.count_of(p).div_ceil(p.weight()))
            .sum()
    }

    /// `phase`'s share of the profiled time, in `[0, 1]` (zero when
    /// nothing was profiled).
    pub fn share_of(&self, phase: Phase) -> f64 {
        let total = self.total_nanos();
        if total == 0 {
            0.0
        } else {
            self.nanos_of(phase) as f64 / total as f64
        }
    }

    /// The totals since `earlier` (for profiling one section of a
    /// process that has already recorded spans).
    pub fn since(&self, earlier: &PhaseTotals) -> PhaseTotals {
        let mut out = *self;
        for i in 0..N_PHASES {
            out.nanos[i] = out.nanos[i].saturating_sub(earlier.nanos[i]);
            out.counts[i] = out.counts[i].saturating_sub(earlier.counts[i]);
        }
        out
    }
}

/// The current thread's accumulated totals, ticks converted to
/// nanoseconds (the conversion is monotone, so [`PhaseTotals::since`]
/// deltas between snapshots stay consistent).
pub fn snapshot() -> PhaseTotals {
    let (ticks, counts) = raw_local();
    let mut out = PhaseTotals {
        counts,
        ..PhaseTotals::default()
    };
    for (ns, t) in out.nanos.iter_mut().zip(ticks) {
        *ns = clock::to_nanos(t);
    }
    out
}

/// Clears the current thread's accumulators.
pub fn reset() {
    set_raw_local([0; N_PHASES], [0; N_PHASES]);
}

/// Process-wide ledger of flushed totals, in raw clock ticks. Touched
/// only by [`flush`], [`merged_snapshot`] and [`reset_merged`] — never
/// on the span path, so recording stays atomics-free.
static MERGED_TICKS: [AtomicU64; N_PHASES] = [const { AtomicU64::new(0) }; N_PHASES];
static MERGED_COUNTS: [AtomicU64; N_PHASES] = [const { AtomicU64::new(0) }; N_PHASES];

/// Drains the calling thread's accumulators into the process-wide
/// ledger and clears them. The runner calls this after every
/// replication, on whichever thread ran it, so a parallel campaign's
/// spans all reach the ledger no matter which thread recorded them.
pub fn flush() {
    let (ticks, counts) = raw_local();
    reset();
    for i in 0..N_PHASES {
        MERGED_TICKS[i].fetch_add(ticks[i], Ordering::Relaxed);
        MERGED_COUNTS[i].fetch_add(counts[i], Ordering::Relaxed);
    }
}

/// The process-wide flushed totals **plus** the calling thread's live
/// (unflushed) accumulators — the complete cross-thread view, assuming
/// every other recording thread has flushed (the runner guarantees this
/// by flushing at the end of every replication, before its thread
/// joins).
pub fn merged_snapshot() -> PhaseTotals {
    let (ticks, counts) = raw_local();
    let mut out = PhaseTotals::default();
    for i in 0..N_PHASES {
        let total = ticks[i].wrapping_add(MERGED_TICKS[i].load(Ordering::Relaxed));
        out.nanos[i] = clock::to_nanos(total);
        out.counts[i] = counts[i] + MERGED_COUNTS[i].load(Ordering::Relaxed);
    }
    out
}

/// Clears the process-wide ledger (the caller's thread-locals are left
/// alone — pair with [`reset`] to zero the full merged view).
pub fn reset_merged() {
    for i in 0..N_PHASES {
        MERGED_TICKS[i].store(0, Ordering::Relaxed);
        MERGED_COUNTS[i].store(0, Ordering::Relaxed);
    }
}

/// Measures the cost of one open/close span pair on this machine,
/// nanoseconds, by timing `iters` empty spans. The raw accumulators are
/// restored afterwards, so calibration never pollutes a campaign's
/// totals. `overhead ≈ calibrate_span_ns(..) × total_spans` is a
/// conservative bound (real spans amortise the two clock reads over
/// actual work) — the benches gate that bound against wall time.
pub fn calibrate_span_ns(iters: u32) -> f64 {
    let iters = iters.max(1);
    let (ticks, counts) = raw_local();
    let t0 = Instant::now();
    for _ in 0..iters {
        let _sp = span(Phase::KernelPop);
    }
    let per_span = t0.elapsed().as_nanos() as f64 / iters as f64;
    set_raw_local(ticks, counts);
    per_span
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_into_their_phase() {
        reset();
        let before = snapshot();
        {
            let _sp = span(Phase::Stage1Walk);
            std::hint::black_box(0u64);
        }
        {
            let _sp = span(Phase::Stage1Walk);
        }
        {
            let _sp = span(Phase::Reports);
        }
        let got = snapshot().since(&before);
        assert_eq!(got.count_of(Phase::Stage1Walk), 2);
        assert_eq!(got.count_of(Phase::Reports), 1);
        assert_eq!(got.count_of(Phase::Churn), 0);
        assert_eq!(got.total_spans(), 3);
        // Monotonic counters can legitimately report 0 ns for an empty
        // span; the phase totals must still be consistent.
        assert_eq!(
            got.total_nanos(),
            ALL_PHASES.iter().map(|&p| got.nanos_of(p)).sum::<u64>()
        );
    }

    #[test]
    fn shares_partition_unity_over_live_phases() {
        reset();
        for _ in 0..100 {
            let _sp = span(Phase::Stage2Predict);
            std::thread::yield_now();
        }
        let snap = snapshot();
        if snap.total_nanos() > 0 {
            let sum: f64 = ALL_PHASES.iter().map(|&p| snap.share_of(p)).sum();
            assert!((sum - 1.0).abs() < 1e-9, "shares sum to 1, got {sum}");
        }
        reset();
        assert_eq!(snapshot().total_spans(), 0);
    }

    #[test]
    fn calibration_restores_accumulators() {
        reset();
        {
            let _sp = span(Phase::Churn);
        }
        let before = snapshot();
        let ns = calibrate_span_ns(10_000);
        assert!(ns >= 0.0 && ns.is_finite());
        assert_eq!(snapshot(), before, "calibration must not leak spans");
    }

    #[test]
    fn phase_names_are_stable_json_keys() {
        let names: Vec<&str> = ALL_PHASES.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "stage1_walk",
                "stage2_predict",
                "commit_hooks",
                "kernel_pop",
                "churn",
                "reports"
            ]
        );
    }

    /// Spans recorded on worker threads reach [`merged_snapshot`] once
    /// each worker flushes — the regression test for `--profile` under
    /// parallel replications. Uses deltas against the ledger so
    /// concurrently running tests cannot perturb it.
    #[test]
    fn flushed_worker_spans_reach_the_merged_snapshot() {
        let before = merged_snapshot().since(&snapshot());
        let workers: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..5 {
                        let _sp = span(Phase::Stage2Predict);
                        std::hint::black_box(0u64);
                    }
                    flush();
                    // Flush leaves the worker's locals empty.
                    assert_eq!(snapshot().total_spans(), 0);
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker");
        }
        let got = merged_snapshot().since(&snapshot()).since(&before);
        assert_eq!(got.count_of(Phase::Stage2Predict), 15);
        // The caller's live locals are part of the merged view too.
        {
            let _sp = span(Phase::Reports);
        }
        let with_local = merged_snapshot().since(&before);
        assert!(with_local.count_of(Phase::Reports) >= 1);
    }

    /// One pop in the period is timed and stands for the whole period
    /// in the phase's count; the overhead estimate sees the spans closed.
    #[test]
    fn sampled_pops_count_their_period() {
        reset();
        for pop in 0..=POP_SAMPLE_PERIOD {
            let _sp = pop_span(pop);
        }
        let got = snapshot();
        assert_eq!(got.count_of(Phase::KernelPop), 2 * POP_SAMPLE_PERIOD);
        assert_eq!(got.total_spans(), 2);
        reset();
    }

    #[test]
    fn snapshots_are_thread_local() {
        reset();
        {
            let _sp = span(Phase::KernelPop);
        }
        let here = snapshot().count_of(Phase::KernelPop);
        assert!(here >= 1);
        let other = std::thread::spawn(|| snapshot().total_spans())
            .join()
            .expect("probe thread");
        assert_eq!(other, 0, "a fresh thread starts with empty accumulators");
    }
}
