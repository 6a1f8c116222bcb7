//! Metatask generation (§5).
//!
//! "We call an experiment the submission of a metatask composed of N
//! independent tasks to the agent. … The difference between two arrivals is
//! drawn from a Poisson distribution with a mean of λ₁ or λ₂ seconds. …
//! A task has a uniform probability to be of each duration."
//!
//! The two arrival-rate constants are back-derived from the reported
//! makespans: [`LOW_RATE_MEAN_GAP`] = 20 s for the "low
//! rate" tables (5, 7) and [`HIGH_RATE_MEAN_GAP`] = 15 s for the "high
//! rate" tables (6, 8).

use cas_platform::{ProblemId, TaskId, TaskInstance};
use cas_sim::dist::{Exponential, Poisson, Sample};
use cas_sim::{RngStream, SimTime, StreamKind};

/// Mean inter-arrival gap of the paper's low-rate experiments, seconds.
pub const LOW_RATE_MEAN_GAP: f64 = 20.0;

/// Mean inter-arrival gap of the paper's high-rate experiments, seconds.
pub const HIGH_RATE_MEAN_GAP: f64 = 15.0;

/// Number of tasks in the paper's metatasks.
pub const PAPER_METATASK_LEN: usize = 500;

/// Which distribution the inter-arrival gaps are drawn from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GapDistribution {
    /// The literal reading of §5: integer-valued Poisson gaps.
    Poisson,
    /// The Poisson-process reading: exponential gaps. Statistically
    /// equivalent at these means; the default.
    Exponential,
}

/// A metatask specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetataskSpec {
    /// Number of independent tasks.
    pub n_tasks: usize,
    /// Mean inter-arrival gap, seconds.
    pub mean_gap: f64,
    /// Gap distribution.
    pub gaps: GapDistribution,
    /// Number of distinct problem types tasks draw from (uniformly).
    pub n_problems: usize,
}

impl MetataskSpec {
    /// The paper's configuration: 500 tasks over 3 problem types.
    pub fn paper(mean_gap: f64) -> Self {
        MetataskSpec {
            n_tasks: PAPER_METATASK_LEN,
            mean_gap,
            gaps: GapDistribution::Exponential,
            n_problems: 3,
        }
    }

    /// Generates the metatask deterministically from `seed`.
    ///
    /// Arrival gaps come from the `Arrivals` stream and type draws from the
    /// `TaskSizes` stream, so two specs differing only in `mean_gap` still
    /// assign the same *sequence of problem types* — the paper compares
    /// "the same set of tasks … with different arrival dates".
    pub fn generate(&self, seed: u64) -> Vec<TaskInstance> {
        assert!(self.n_problems > 0, "need at least one problem type");
        let mut gap_rng = RngStream::derive(seed, StreamKind::Arrivals);
        let mut size_rng = RngStream::derive(seed, StreamKind::TaskSizes);
        let mut tasks = Vec::with_capacity(self.n_tasks);
        let mut clock = 0.0f64;
        for i in 0..self.n_tasks {
            let gap = match self.gaps {
                GapDistribution::Poisson => Poisson::new(self.mean_gap).sample(&mut gap_rng),
                GapDistribution::Exponential => {
                    Exponential::new(self.mean_gap).sample(&mut gap_rng)
                }
            };
            clock += gap;
            let problem = ProblemId(size_rng.below(self.n_problems as u64) as u32);
            tasks.push(TaskInstance::new(
                TaskId(i as u64),
                problem,
                SimTime::from_secs(clock),
            ));
        }
        tasks
    }
}

/// Arrival-process summary of a generated (or trace-ingested) task list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalSummary {
    /// Number of tasks.
    pub n: usize,
    /// Time of the last arrival, seconds.
    pub span_s: f64,
    /// Mean inter-arrival gap (`span / n`), seconds.
    pub mean_gap_s: f64,
}

/// Summarises a task list's arrival process. Returns `None` for an empty
/// list — zero-task traces are reachable through CSV ingestion, and the
/// mean gap of nothing is not a number, not a quantity.
pub fn arrival_summary(tasks: &[TaskInstance]) -> Option<ArrivalSummary> {
    let last = tasks.last()?;
    let n = tasks.len();
    let span_s = last.arrival.as_secs();
    Some(ArrivalSummary {
        n,
        span_s,
        mean_gap_s: span_s / n as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let spec = MetataskSpec::paper(20.0);
        let a = spec.generate(1);
        let b = spec.generate(1);
        assert_eq!(a, b);
        let c = spec.generate(2);
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_are_increasing_and_sized() {
        let spec = MetataskSpec::paper(20.0);
        let tasks = spec.generate(7);
        assert_eq!(tasks.len(), 500);
        for w in tasks.windows(2) {
            assert!(w[1].arrival >= w[0].arrival);
            assert_eq!(w[1].id.0, w[0].id.0 + 1);
        }
    }

    #[test]
    fn mean_gap_close_to_nominal() {
        let spec = MetataskSpec::paper(20.0);
        let tasks = spec.generate(3);
        let summary = arrival_summary(&tasks).unwrap();
        assert_eq!(summary.n, 500);
        // 500 samples: expect within ~10 %.
        let mean = summary.mean_gap_s;
        assert!((mean - 20.0).abs() < 2.0, "mean gap = {mean}");
    }

    #[test]
    fn empty_task_list_has_no_summary() {
        // Zero-task traces are reachable via CSV ingestion; the summary
        // must be well-defined (None), never a 0/0 NaN.
        assert_eq!(arrival_summary(&[]), None);
        let spec = MetataskSpec {
            n_tasks: 0,
            ..MetataskSpec::paper(20.0)
        };
        let tasks = spec.generate(1);
        assert!(tasks.is_empty());
        assert_eq!(arrival_summary(&tasks), None);
    }

    #[test]
    fn singleton_summary_is_finite() {
        let spec = MetataskSpec {
            n_tasks: 1,
            ..MetataskSpec::paper(20.0)
        };
        let s = arrival_summary(&spec.generate(4)).unwrap();
        assert_eq!(s.n, 1);
        assert!(s.span_s.is_finite() && s.mean_gap_s.is_finite());
    }

    #[test]
    fn paper_horizon_matches_reported_makespans() {
        // 500 tasks at 20 s → last arrival ≈ 10 000 s (Table 5's makespans
        // are ≈ 9 900); at 15 s → ≈ 7 500 s (Tables 6/8 ≈ 7 600).
        let low = MetataskSpec::paper(LOW_RATE_MEAN_GAP).generate(11);
        let high = MetataskSpec::paper(HIGH_RATE_MEAN_GAP).generate(11);
        let low_end = low.last().unwrap().arrival.as_secs();
        let high_end = high.last().unwrap().arrival.as_secs();
        assert!((low_end - 10_000.0).abs() < 1_000.0, "low_end = {low_end}");
        assert!((high_end - 7_500.0).abs() < 800.0, "high_end = {high_end}");
    }

    #[test]
    fn type_sequence_independent_of_rate() {
        // The same seed at two rates gives the same type sequence — the
        // paper's "same metatask, different arrival dates".
        let low = MetataskSpec::paper(20.0).generate(5);
        let high = MetataskSpec::paper(15.0).generate(5);
        for (a, b) in low.iter().zip(&high) {
            assert_eq!(a.problem, b.problem);
        }
    }

    #[test]
    fn types_roughly_uniform() {
        let tasks = MetataskSpec::paper(20.0).generate(9);
        let mut counts = [0usize; 3];
        for t in &tasks {
            counts[t.problem.index()] += 1;
        }
        for c in counts {
            assert!(c > 120 && c < 220, "counts = {counts:?}");
        }
    }

    #[test]
    fn poisson_gaps_are_integers() {
        let spec = MetataskSpec {
            gaps: GapDistribution::Poisson,
            ..MetataskSpec::paper(15.0)
        };
        let tasks = spec.generate(2);
        for t in &tasks {
            assert_eq!(t.arrival.as_secs().fract(), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one problem")]
    fn zero_problems_rejected() {
        let spec = MetataskSpec {
            n_problems: 0,
            ..MetataskSpec::paper(20.0)
        };
        spec.generate(0);
    }
}
