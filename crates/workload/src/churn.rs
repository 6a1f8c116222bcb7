//! Farm lifecycle fault injection: deterministic MTBF/MTTR churn.
//!
//! Production farms are not frozen at build time — servers crash, drain
//! and come back. This module is the workload-side half of the lifecycle
//! subsystem: a per-server renewal process that draws uptimes (time to
//! the next crash) and downtimes (time to repair) from exponential
//! distributions with configurable means (MTBF / MTTR), each server on
//! its **own** [`RngStream`] derived from the churn seed.
//!
//! Two properties the engine relies on:
//!
//! * **Determinism** — the fault schedule is a pure function of
//!   `(churn_seed, server)`; the same configuration replays the same
//!   crashes on any host, so crash-retraction equivalence can be proven
//!   differentially against a reference agent under *the same* schedule.
//! * **Stream isolation** — churn draws never touch the arrival,
//!   noise or tie-break streams (each server's stream is keyed
//!   `Custom(CHURN_STREAM_TAG | server)`), so a crash-free configuration
//!   (`mtbf = ∞`) is bit-identical to a frozen farm: no stream is even
//!   created.

use cas_platform::ServerId;
use cas_sim::dist::{Exponential, Sample};
use cas_sim::{RngStream, StreamKind};

/// Tag bit that keys churn streams inside [`StreamKind::Custom`], keeping
/// them disjoint from any other custom stream in the workspace.
pub const CHURN_STREAM_TAG: u32 = 0x4000_0000;

/// Churn configuration: mean time between failures, mean time to repair,
/// and the seed of the fault schedule.
///
/// `mtbf = f64::INFINITY` (the default) disables churn entirely —
/// [`ChurnModel::process`] returns `None` and no RNG stream is derived.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnModel {
    /// Mean uptime between a server coming online and its next crash,
    /// seconds. Infinite disables churn.
    pub mtbf: f64,
    /// Mean downtime between a crash and the server rejoining, seconds.
    pub mttr: f64,
    /// Root seed of the fault schedule (independent of the workload seed
    /// so the same metatask can be replayed under different schedules).
    pub seed: u64,
}

impl Default for ChurnModel {
    fn default() -> Self {
        ChurnModel {
            mtbf: f64::INFINITY,
            mttr: 60.0,
            seed: 0,
        }
    }
}

impl ChurnModel {
    /// Whether this configuration injects any faults at all.
    pub fn enabled(&self) -> bool {
        self.mtbf.is_finite() && self.mtbf > 0.0 && self.mttr > 0.0 && self.mttr.is_finite()
    }

    /// Builds the per-server fault process, or `None` when churn is
    /// disabled (so a crash-free run provably derives no churn streams).
    pub fn process(&self, n_servers: usize) -> Option<ChurnProcess> {
        if !self.enabled() {
            return None;
        }
        Some(ChurnProcess {
            up: Exponential::new(self.mtbf),
            down: Exponential::new(self.mttr),
            streams: (0..n_servers as u32)
                .map(|s| RngStream::derive(self.seed, StreamKind::Custom(CHURN_STREAM_TAG | s)))
                .collect(),
        })
    }
}

/// The instantiated fault schedule: one exponential renewal process per
/// server, each on its own stream.
#[derive(Debug, Clone)]
pub struct ChurnProcess {
    up: Exponential,
    down: Exponential,
    streams: Vec<RngStream>,
}

impl ChurnProcess {
    /// Draws the time until `server`'s next crash, measured from the
    /// instant it (re)joined.
    pub fn next_uptime(&mut self, server: ServerId) -> f64 {
        let stream = &mut self.streams[server.index()];
        self.up.sample(stream)
    }

    /// Draws how long `server` stays down after a crash.
    pub fn next_downtime(&mut self, server: ServerId) -> f64 {
        let stream = &mut self.streams[server.index()];
        self.down.sample(stream)
    }

    /// Number of servers the schedule covers.
    pub fn n_servers(&self) -> usize {
        self.streams.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinite_mtbf_disables_churn() {
        let m = ChurnModel::default();
        assert!(!m.enabled());
        assert!(m.process(16).is_none());
        let m = ChurnModel {
            mtbf: 0.0,
            ..ChurnModel::default()
        };
        assert!(!m.enabled());
        let m = ChurnModel {
            mtbf: 100.0,
            mttr: 0.0,
            seed: 1,
        };
        assert!(!m.enabled(), "zero repair time is degenerate");
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let m = ChurnModel {
            mtbf: 400.0,
            mttr: 60.0,
            seed: 7,
        };
        let mut a = m.process(4).unwrap();
        let mut b = m.process(4).unwrap();
        for s in 0..4u32 {
            for _ in 0..32 {
                assert_eq!(
                    a.next_uptime(ServerId(s)).to_bits(),
                    b.next_uptime(ServerId(s)).to_bits()
                );
                assert_eq!(
                    a.next_downtime(ServerId(s)).to_bits(),
                    b.next_downtime(ServerId(s)).to_bits()
                );
            }
        }
    }

    #[test]
    fn servers_have_independent_streams() {
        let m = ChurnModel {
            mtbf: 400.0,
            mttr: 60.0,
            seed: 7,
        };
        let mut p = m.process(2).unwrap();
        let same = (0..64)
            .filter(|_| {
                p.next_uptime(ServerId(0)).to_bits() == p.next_uptime(ServerId(1)).to_bits()
            })
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn draws_converge_to_configured_means() {
        let m = ChurnModel {
            mtbf: 400.0,
            mttr: 60.0,
            seed: 0xC0FFEE,
        };
        let mut p = m.process(1).unwrap();
        let n = 50_000;
        let up: f64 = (0..n).map(|_| p.next_uptime(ServerId(0))).sum::<f64>() / n as f64;
        let down: f64 = (0..n).map(|_| p.next_downtime(ServerId(0))).sum::<f64>() / n as f64;
        assert!((up - 400.0).abs() < 10.0, "mean uptime {up}");
        assert!((down - 60.0).abs() < 2.0, "mean downtime {down}");
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let mut a = ChurnModel {
            mtbf: 100.0,
            mttr: 10.0,
            seed: 1,
        }
        .process(1)
        .unwrap();
        let mut b = ChurnModel {
            mtbf: 100.0,
            mttr: 10.0,
            seed: 2,
        }
        .process(1)
        .unwrap();
        let same = (0..64)
            .filter(|_| {
                a.next_uptime(ServerId(0)).to_bits() == b.next_uptime(ServerId(0)).to_bits()
            })
            .count();
        assert_eq!(same, 0);
    }

    /// Goodness of fit of the fault draws: uptimes and downtimes must
    /// follow their exponentials, not just match their means. Per seed,
    /// 20,000 of each, alternating as a renewal process does, over four
    /// servers' streams; twenty equiprobable bins by the CDF
    /// `1 − exp(−x / mean)`, and χ² below 43.82 (19 degrees of freedom,
    /// α = 0.001) for each kind at each of five seeds.
    #[test]
    fn churn_draws_fit_the_exponential() {
        const BINS: usize = 20;
        const SERVERS: u32 = 4;
        const PER_SERVER: usize = 5_000;
        let chi2 = |draws: &[f64], mean: f64| -> f64 {
            let mut counts = [0usize; BINS];
            for &x in draws {
                let u = 1.0 - (-x / mean).exp();
                counts[((u * BINS as f64) as usize).min(BINS - 1)] += 1;
            }
            let expected = draws.len() as f64 / BINS as f64;
            counts
                .iter()
                .map(|&observed| (observed as f64 - expected).powi(2) / expected)
                .sum()
        };
        for seed in 1..=5 {
            let m = ChurnModel {
                mtbf: 400.0,
                mttr: 60.0,
                seed,
            };
            let mut p = m.process(SERVERS as usize).unwrap();
            let (mut up, mut down) = (Vec::new(), Vec::new());
            for s in 0..SERVERS {
                for _ in 0..PER_SERVER {
                    up.push(p.next_uptime(ServerId(s)));
                    down.push(p.next_downtime(ServerId(s)));
                }
            }
            let (chi2_up, chi2_down) = (chi2(&up, m.mtbf), chi2(&down, m.mttr));
            assert!(chi2_up < 43.82, "seed {seed}: uptime chi2 = {chi2_up:.1}");
            assert!(
                chi2_down < 43.82,
                "seed {seed}: downtime chi2 = {chi2_down:.1}"
            );
        }
    }
}
