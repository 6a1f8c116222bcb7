//! Small statistics the benchmark reports: latency percentiles with their
//! sample count, medians and quartiles across reps and runs, and the
//! record digest that pins a run's outputs.

use cas_metrics::{percentile, TaskOutcome, TaskRecord};

/// Nearest-rank p50/p99 of one rep's decision latencies, in µs, with
/// the number of samples they come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub p50_us: f64,
    pub p99_us: f64,
    pub samples: usize,
}

impl Latency {
    /// Summarises per-decision wall times given in nanoseconds; `None`
    /// when no decision was timed.
    pub fn of_nanos(nanos: &[u32]) -> Option<Latency> {
        let us: Vec<f64> = nanos.iter().map(|&ns| f64::from(ns) / 1e3).collect();
        Some(Latency {
            p50_us: percentile(&us, 0.50)?,
            p99_us: percentile(&us, 0.99)?,
            samples: us.len(),
        })
    }
}

/// Per-decision median wall time over reps that replay the same
/// decisions: entry `i` is the median of entry `i` across `reps` (the
/// lower of the middle pair when even). A preemption or an interrupt
/// lands on different decisions in different reps, so the median keeps
/// each decision's own cost and drops the host's interference. `None`
/// when the reps timed different numbers of decisions.
pub fn per_decision_median(reps: &[&[u32]]) -> Option<Vec<u32>> {
    let n = reps.first()?.len();
    if reps.iter().any(|r| r.len() != n) {
        return None;
    }
    let mut column = Vec::with_capacity(reps.len());
    Some(
        (0..n)
            .map(|i| {
                column.clear();
                column.extend(reps.iter().map(|r| r[i]));
                column.sort_unstable();
                column[(column.len() - 1) / 2]
            })
            .collect(),
    )
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), so a spread computed
/// here matches one computed from the JSON with Python. A single value
/// is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return (v[0], v[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// FNV-1a over every record's task id, server, outcome, finish-time bits
/// and attempt count: equal digests mean bit-identical scheduling
/// outcomes.
pub fn records_digest(records: &[TaskRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in records {
        eat(&r.task.0.to_le_bytes());
        eat(&r.server.map_or(u32::MAX, |s| s.0).to_le_bytes());
        let (code, finished) = match r.outcome {
            TaskOutcome::Completed { finished } => (0u8, finished.as_secs()),
            TaskOutcome::Failed => (1, 0.0),
            TaskOutcome::InFlight => (2, 0.0),
            TaskOutcome::Dropped { reason } => (3 + reason as u8, 0.0),
        };
        eat(&[code]);
        eat(&finished.to_bits().to_le_bytes());
        eat(&r.attempts.to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_nearest_rank_with_sample_count() {
        // 1..=200 µs: nearest rank puts p50 at the 100th value and p99
        // at the 198th.
        let nanos: Vec<u32> = (1..=200).rev().map(|us| us * 1000).collect();
        let l = Latency::of_nanos(&nanos).unwrap();
        assert_eq!(l.samples, 200);
        assert_eq!(l.p50_us, 100.0);
        assert_eq!(l.p99_us, 198.0);
        let one = Latency::of_nanos(&[2500]).unwrap();
        assert_eq!((one.p50_us, one.p99_us, one.samples), (2.5, 2.5, 1));
        assert!(Latency::of_nanos(&[]).is_none());
    }

    #[test]
    fn per_decision_median_drops_one_rep_outliers() {
        // Each rep has one interrupted decision; the medians do not.
        let reps: [&[u32]; 3] = [&[10, 900, 30], &[11, 20, 30], &[10, 21, 700]];
        assert_eq!(per_decision_median(&reps), Some(vec![10, 21, 30]));
        // Even count: the lower of the middle pair.
        assert_eq!(per_decision_median(&[&[4, 9], &[6, 7]]), Some(vec![4, 7]));
        assert_eq!(per_decision_median(&[&[1, 2], &[1]]), None);
        assert_eq!(per_decision_median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
