//! Parametric platforms and workloads for sweeps and ablations.
//!
//! The paper evaluates on one fixed testbed with homogeneous-Poisson
//! arrivals; the ablation benches vary heterogeneity, server count and
//! task granularity to probe *where* the HTM-based heuristics win.
//! [`SyntheticPlatform`] builds a platform and matching cost table from a
//! handful of knobs, and [`BurstArrivals`] opens the bursty-traffic
//! scenario: an inhomogeneous Poisson arrival process sampled by the
//! thinning method (Lewis & Shedler 1979, as implemented by the IPPP
//! package of Hohmann 2019, arXiv:1901.10754).

use cas_platform::{CostTable, PhaseCosts, Problem, ProblemId, ServerSpec, TaskId, TaskInstance};
use cas_sim::dist::{Exponential, Sample};
use cas_sim::{RngStream, SimTime, StreamKind};

/// Knobs for a synthetic platform + workload family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticPlatform {
    /// Number of servers.
    pub n_servers: usize,
    /// Speed of the fastest server relative to the slowest (1.0 =
    /// homogeneous).
    pub heterogeneity: f64,
    /// Number of problem types.
    pub n_problems: usize,
    /// Compute cost of the cheapest problem on the *fastest* server,
    /// seconds.
    pub base_cost: f64,
    /// Cost of the most expensive problem relative to the cheapest.
    pub cost_spread: f64,
    /// Transfer cost as a fraction of compute cost (0 = compute-only).
    pub comm_fraction: f64,
    /// Memory need per task as a fraction of the smallest server's RAM
    /// (0 = memory-free, like waste-cpu).
    pub mem_fraction: f64,
}

impl Default for SyntheticPlatform {
    fn default() -> Self {
        SyntheticPlatform {
            n_servers: 4,
            heterogeneity: 5.0,
            n_problems: 3,
            base_cost: 15.0,
            cost_spread: 3.0,
            comm_fraction: 0.02,
            mem_fraction: 0.0,
        }
    }
}

impl SyntheticPlatform {
    /// Builds server specs: speeds geometrically interpolated between the
    /// slowest and fastest; RAM 256 MB + jitter, swap = RAM.
    pub fn servers(&self, seed: u64) -> Vec<ServerSpec> {
        assert!(self.n_servers >= 1);
        let mut rng = RngStream::derive(seed, StreamKind::Custom(0xA0));
        (0..self.n_servers)
            .map(|i| {
                let frac = if self.n_servers == 1 {
                    0.0
                } else {
                    i as f64 / (self.n_servers - 1) as f64
                };
                // Server 0 is fastest (speed factor heterogeneity), the
                // last is slowest (factor 1).
                let speed = self.heterogeneity.powf(1.0 - frac);
                let ram = 256.0 * rng.uniform(0.9, 1.1);
                ServerSpec::new(format!("synth-{i}"), 1000.0 * speed, ram, ram)
            })
            .collect()
    }

    /// Builds the matching cost table. Problem `p`'s cost on the fastest
    /// server interpolates geometrically from `base_cost` to
    /// `base_cost * cost_spread`; slower servers scale it by their relative
    /// slowness.
    pub fn cost_table(&self, seed: u64) -> CostTable {
        let servers = self.servers(seed);
        let fastest = servers.iter().map(|s| s.cpu_mhz).fold(f64::MIN, f64::max);
        let min_ram = servers.iter().map(|s| s.ram_mb).fold(f64::MAX, f64::min);
        let mut table = CostTable::new(servers.len());
        for p in 0..self.n_problems {
            let frac = if self.n_problems == 1 {
                0.0
            } else {
                p as f64 / (self.n_problems - 1) as f64
            };
            let fast_cost = self.base_cost * self.cost_spread.powf(frac);
            let mem = self.mem_fraction * min_ram * (1.0 + frac);
            let data_mb = fast_cost * self.comm_fraction * 10.0;
            let problem = Problem::new(format!("synth-p{p}"), data_mb, data_mb / 2.0, mem);
            let row = servers
                .iter()
                .map(|s| {
                    let slowdown = fastest / s.cpu_mhz;
                    let compute = fast_cost * slowdown;
                    let comm = fast_cost * self.comm_fraction;
                    Some(PhaseCosts::new(comm, compute, comm / 2.0))
                })
                .collect();
            table.add_problem(problem, row);
        }
        table
    }
}

/// An inhomogeneous-Poisson metatask: arrivals follow a sinusoidally
/// modulated rate
///
/// ```text
/// λ(t) = base_rate + (peak_rate − base_rate) · ½(1 + sin(2πt / period))
/// ```
///
/// sampled exactly by **thinning**: candidate events are drawn from a
/// homogeneous Poisson process at `peak_rate` (the majorant) and each
/// candidate at time `t` is accepted with probability `λ(t)/peak_rate`.
/// The accepted stream is a realisation of the inhomogeneous process —
/// no discretisation, no approximation. With `base_rate == peak_rate`
/// every candidate is accepted and the process degenerates to the
/// paper's homogeneous arrivals.
///
/// Problem types draw from their own RNG stream (`TaskSizes`), mirroring
/// [`MetataskSpec`](crate::metatask::MetataskSpec): two burst specs
/// differing only in rates produce the same *sequence of problem types*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstArrivals {
    /// Number of tasks to emit.
    pub n_tasks: usize,
    /// Trough arrival rate, tasks per second (> 0).
    pub base_rate: f64,
    /// Crest arrival rate, tasks per second (≥ `base_rate`).
    pub peak_rate: f64,
    /// Burst period, seconds.
    pub period: f64,
    /// Number of distinct problem types tasks draw from (uniformly).
    pub n_problems: usize,
}

impl BurstArrivals {
    /// The instantaneous arrival rate λ(t), tasks/second.
    pub fn rate_at(&self, t: f64) -> f64 {
        let swing = (self.peak_rate - self.base_rate) * 0.5;
        self.base_rate + swing * (1.0 + (2.0 * std::f64::consts::PI * t / self.period).sin())
    }

    /// The time-averaged arrival rate, tasks/second (the sine averages
    /// out: midway between trough and crest).
    pub fn mean_rate(&self) -> f64 {
        0.5 * (self.base_rate + self.peak_rate)
    }

    /// Generates the metatask deterministically from `seed` by thinning.
    ///
    /// # Panics
    /// Panics unless `0 < base_rate ≤ peak_rate`, `period > 0` and
    /// `n_problems > 0`.
    pub fn generate(&self, seed: u64) -> Vec<TaskInstance> {
        assert!(
            self.base_rate > 0.0 && self.peak_rate >= self.base_rate,
            "need 0 < base_rate <= peak_rate, got {self:?}"
        );
        assert!(self.period > 0.0, "need a positive burst period");
        assert!(self.n_problems > 0, "need at least one problem type");
        let mut gap_rng = RngStream::derive(seed, StreamKind::Arrivals);
        let mut size_rng = RngStream::derive(seed, StreamKind::TaskSizes);
        let majorant_gap = Exponential::new(1.0 / self.peak_rate);
        let mut tasks = Vec::with_capacity(self.n_tasks);
        let mut clock = 0.0f64;
        for i in 0..self.n_tasks {
            // Thinning: step the majorant process until a candidate
            // survives the acceptance draw.
            loop {
                clock += majorant_gap.sample(&mut gap_rng);
                if gap_rng.uniform01() * self.peak_rate < self.rate_at(clock) {
                    break;
                }
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use cas_platform::{ProblemId, ServerId};

    #[test]
    fn default_builds_consistent_platform() {
        let p = SyntheticPlatform::default();
        let servers = p.servers(1);
        let table = p.cost_table(1);
        assert_eq!(servers.len(), 4);
        assert_eq!(table.n_servers(), 4);
        assert_eq!(table.n_problems(), 3);
    }

    #[test]
    fn heterogeneity_ratio_respected() {
        let p = SyntheticPlatform {
            heterogeneity: 8.0,
            ..Default::default()
        };
        let table = p.cost_table(2);
        let fast = table.costs(ProblemId(0), ServerId(0)).unwrap().compute;
        let slow = table.costs(ProblemId(0), ServerId(3)).unwrap().compute;
        assert!((slow / fast - 8.0).abs() < 1e-9, "ratio = {}", slow / fast);
    }

    #[test]
    fn homogeneous_platform_has_equal_costs() {
        let p = SyntheticPlatform {
            heterogeneity: 1.0,
            ..Default::default()
        };
        let table = p.cost_table(3);
        let costs: Vec<f64> = (0..4)
            .map(|s| table.costs(ProblemId(1), ServerId(s)).unwrap().compute)
            .collect();
        for c in &costs[1..] {
            assert!((c - costs[0]).abs() < 1e-9);
        }
    }

    #[test]
    fn cost_spread_across_problems() {
        let p = SyntheticPlatform {
            cost_spread: 4.0,
            ..Default::default()
        };
        let table = p.cost_table(4);
        let cheap = table.costs(ProblemId(0), ServerId(0)).unwrap().compute;
        let dear = table.costs(ProblemId(2), ServerId(0)).unwrap().compute;
        assert!((dear / cheap - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_comm_fraction_is_compute_only() {
        let p = SyntheticPlatform {
            comm_fraction: 0.0,
            ..Default::default()
        };
        let table = p.cost_table(5);
        let c = table.costs(ProblemId(0), ServerId(0)).unwrap();
        assert_eq!(c.input, 0.0);
        assert_eq!(c.output, 0.0);
    }

    #[test]
    fn mem_fraction_populates_memory_needs() {
        let p = SyntheticPlatform {
            mem_fraction: 0.5,
            ..Default::default()
        };
        let table = p.cost_table(6);
        assert!(table.problem(ProblemId(0)).mem_mb > 0.0);
        assert!(table.problem(ProblemId(2)).mem_mb > table.problem(ProblemId(0)).mem_mb);
    }

    #[test]
    fn single_server_platform() {
        let p = SyntheticPlatform {
            n_servers: 1,
            ..Default::default()
        };
        assert_eq!(p.servers(7).len(), 1);
        assert_eq!(p.cost_table(7).n_servers(), 1);
    }

    /// Regression: `n_servers == 1` used to interpolate `i / (n − 1)` =
    /// 0/0 = NaN into the speed ladder. The single server must sit at the
    /// fast end with finite speed and costs.
    #[test]
    fn single_server_costs_are_finite() {
        let p = SyntheticPlatform {
            n_servers: 1,
            ..Default::default()
        };
        let server = &p.servers(7)[0];
        assert!(server.cpu_mhz.is_finite() && server.cpu_mhz > 0.0);
        assert!((server.cpu_mhz - 1000.0 * p.heterogeneity).abs() < 1e-9);
        let table = p.cost_table(7);
        for prob in 0..table.n_problems() {
            let c = table.costs(ProblemId(prob as u32), ServerId(0)).unwrap();
            assert!(c.compute.is_finite() && c.compute > 0.0);
            assert!(c.input.is_finite() && c.output.is_finite());
        }
    }

    /// Regression: `n_problems == 1` used to hit the same 0/0 in the cost
    /// spread interpolation. The lone problem must cost exactly
    /// `base_cost` on the fastest server, with every entry finite.
    #[test]
    fn single_problem_costs_are_finite() {
        let p = SyntheticPlatform {
            n_problems: 1,
            mem_fraction: 0.25,
            ..Default::default()
        };
        let table = p.cost_table(8);
        assert_eq!(table.n_problems(), 1);
        assert!(table.problem(ProblemId(0)).mem_mb.is_finite());
        for s in 0..table.n_servers() {
            let c = table.costs(ProblemId(0), ServerId(s as u32)).unwrap();
            assert!(c.compute.is_finite() && c.compute > 0.0);
        }
        let fast = table.costs(ProblemId(0), ServerId(0)).unwrap().compute;
        assert!((fast - p.base_cost).abs() < 1e-9, "fast cost = {fast}");
    }

    /// The fully degenerate 1×1 farm must still build a usable table.
    #[test]
    fn one_by_one_platform_is_well_formed() {
        let p = SyntheticPlatform {
            n_servers: 1,
            n_problems: 1,
            ..Default::default()
        };
        let table = p.cost_table(9);
        let c = table.costs(ProblemId(0), ServerId(0)).unwrap();
        assert!((c.compute - p.base_cost).abs() < 1e-9);
        assert!(c.input.is_finite() && c.output.is_finite());
    }

    fn burst_spec() -> BurstArrivals {
        BurstArrivals {
            n_tasks: 4000,
            base_rate: 0.02,
            peak_rate: 0.5,
            period: 600.0,
            n_problems: 3,
        }
    }

    #[test]
    fn burst_is_deterministic_and_well_formed() {
        let spec = burst_spec();
        let a = spec.generate(11);
        let b = spec.generate(11);
        assert_eq!(a, b);
        assert_ne!(a, spec.generate(12));
        assert_eq!(a.len(), 4000);
        for (i, w) in a.windows(2).enumerate() {
            assert!(w[1].arrival >= w[0].arrival, "disorder at {i}");
            assert_eq!(w[1].id.0, w[0].id.0 + 1);
        }
        assert!(a.iter().all(|t| t.problem.index() < 3));
    }

    #[test]
    fn burst_mean_rate_matches_analytic() {
        let spec = burst_spec();
        let tasks = spec.generate(5);
        let span = tasks.last().unwrap().arrival.as_secs();
        let empirical = tasks.len() as f64 / span;
        let expected = spec.mean_rate();
        assert!(
            (empirical - expected).abs() < 0.15 * expected,
            "empirical {empirical} vs expected {expected}"
        );
    }

    /// Thinning must actually modulate density: windows around rate crests
    /// hold far more arrivals than windows around troughs.
    #[test]
    fn burst_crests_are_denser_than_troughs() {
        let spec = burst_spec();
        let tasks = spec.generate(9);
        // λ peaks at t ≡ period/4 (sin = 1) and bottoms at t ≡ 3·period/4.
        let (mut crest, mut trough) = (0usize, 0usize);
        for t in &tasks {
            let phase = t.arrival.as_secs().rem_euclid(spec.period) / spec.period;
            if (0.15..0.35).contains(&phase) {
                crest += 1;
            } else if (0.65..0.85).contains(&phase) {
                trough += 1;
            }
        }
        assert!(
            crest > 5 * trough.max(1),
            "burst structure missing: crest={crest}, trough={trough}"
        );
    }

    /// Goodness of fit of the thinning sampler: over whole periods, the
    /// arrival phases must follow the integrated rate. Twenty phase bins,
    /// expected counts from a numerical integral of `rate_at` scaled to
    /// the observed total, and χ² below 43.82 (19 degrees of freedom,
    /// α = 0.001) at each of five seeds.
    #[test]
    fn burst_phase_counts_fit_the_integrated_rate() {
        const BINS: usize = 20;
        const STEPS: usize = 100;
        let spec = BurstArrivals {
            n_tasks: 20_000,
            ..burst_spec()
        };
        let width = spec.period / BINS as f64;
        // Midpoint rule on a smooth sine: far finer than the counts' noise.
        let mass: Vec<f64> = (0..BINS)
            .map(|b| {
                (0..STEPS)
                    .map(|k| spec.rate_at(width * (b as f64 + (k as f64 + 0.5) / STEPS as f64)))
                    .sum::<f64>()
                    * width
                    / STEPS as f64
            })
            .collect();
        let total_mass: f64 = mass.iter().sum();
        for seed in 1..=5 {
            let tasks = spec.generate(seed);
            let periods = (tasks.last().unwrap().arrival.as_secs() / spec.period).floor();
            let horizon = periods * spec.period;
            let mut counts = [0usize; BINS];
            for t in tasks.iter().map(|t| t.arrival.as_secs()) {
                if t < horizon {
                    counts[((t.rem_euclid(spec.period) / width) as usize).min(BINS - 1)] += 1;
                }
            }
            let n = counts.iter().sum::<usize>() as f64;
            let chi2: f64 = counts
                .iter()
                .zip(&mass)
                .map(|(&observed, &m)| {
                    let expected = n * m / total_mass;
                    (observed as f64 - expected).powi(2) / expected
                })
                .sum();
            assert!(
                chi2 < 43.82,
                "seed {seed}: chi2 = {chi2:.1} over {n} arrivals in {periods} periods"
            );
        }
    }

    /// base == peak degenerates to the homogeneous process: every
    /// candidate accepted, mean gap = 1/rate.
    #[test]
    fn flat_burst_is_homogeneous_poisson() {
        let spec = BurstArrivals {
            n_tasks: 3000,
            base_rate: 0.1,
            peak_rate: 0.1,
            period: 100.0,
            n_problems: 2,
        };
        let tasks = spec.generate(3);
        let span = tasks.last().unwrap().arrival.as_secs();
        let mean_gap = span / tasks.len() as f64;
        assert!((mean_gap - 10.0).abs() < 1.0, "mean gap = {mean_gap}");
    }

    #[test]
    fn burst_type_sequence_independent_of_rates() {
        let slow = burst_spec().generate(7);
        let fast = BurstArrivals {
            base_rate: 0.2,
            peak_rate: 2.0,
            ..burst_spec()
        }
        .generate(7);
        for (a, b) in slow.iter().zip(&fast) {
            assert_eq!(a.problem, b.problem);
        }
    }

    #[test]
    #[should_panic(expected = "base_rate")]
    fn burst_rejects_inverted_rates() {
        BurstArrivals {
            base_rate: 1.0,
            peak_rate: 0.5,
            ..burst_spec()
        }
        .generate(0);
    }
}
