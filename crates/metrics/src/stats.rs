//! Summary statistics for aggregating replications.
//!
//! The paper reports, per cell, the mean over repeated executions of the
//! same metatask ("values of a metatask are the mean of N executions").
//! [`Summary`] carries the mean plus dispersion measures so the result
//! tables can report uncertainty alongside.

use serde::{Deserialize, Serialize};

/// Mean / std / min / max / median / 95 % CI half-width of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n ≤ 1).
    pub std: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Median.
    pub median: f64,
    /// Half-width of the 95 % normal-approximation confidence interval of
    /// the mean (`1.96 · std / √n`; 0 for n ≤ 1).
    pub ci95: f64,
}

impl Summary {
    /// Computes a summary. Returns `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let std = var.sqrt();
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Some(Summary {
            n,
            mean,
            std,
            min: sorted[0],
            max: sorted[n - 1],
            median,
            ci95: if n > 1 {
                1.96 * std / (n as f64).sqrt()
            } else {
                0.0
            },
        })
    }

    /// `mean ± ci95` as a compact string.
    pub fn display_mean_ci(&self) -> String {
        if self.n > 1 {
            format!("{:.1}±{:.1}", self.mean, self.ci95)
        } else {
            format!("{:.1}", self.mean)
        }
    }
}

/// Nearest-rank percentile of a sample: the smallest value such that at
/// least `q · n` of the sample is ≤ it (`q` in `(0, 1]`; `q = 0.5` is the
/// lower median, `q = 0.99` the p99). Returns `None` for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
    let n = sorted.len();
    let rank = ((n as f64 * q).ceil() as usize).max(1) - 1;
    Some(sorted[rank.min(n - 1)])
}

/// The relative change `100 · (b − a) / a` in percent — used when comparing
/// a heuristic's metric to the MCT baseline.
pub fn relative_change_pct(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    100.0 * (b - a) / a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_summary() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.std - 1.5811).abs() < 1e-3);
        assert!((s.ci95 - 1.96 * 1.5811 / 5f64.sqrt()).abs() < 1e-3);
    }

    #[test]
    fn even_length_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 10.0]).unwrap();
        assert_eq!(s.median, 2.5);
    }

    #[test]
    fn singleton() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.ci95, 0.0);
        assert_eq!(s.display_mean_ci(), "7.0");
    }

    #[test]
    fn empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn relative_change() {
        assert_eq!(relative_change_pct(100.0, 80.0), -20.0);
        assert_eq!(relative_change_pct(50.0, 75.0), 50.0);
        assert_eq!(relative_change_pct(0.0, 10.0), 0.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.5), Some(3.0));
        assert_eq!(percentile(&v, 0.99), Some(5.0));
        assert_eq!(percentile(&v, 1.0), Some(5.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn display_with_ci() {
        let s = Summary::of(&[10.0, 12.0]).unwrap();
        assert!(s.display_mean_ci().contains('±'));
    }
}
