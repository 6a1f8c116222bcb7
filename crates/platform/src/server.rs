//! Servers: specifications (Table 2) and runtime state.
//!
//! A [`ServerRuntime`] bundles the three shared resources a task's phases
//! run through — the input link, the time-shared CPU, the output link — and
//! the memory accounting whose exhaustion drives the paper's first set of
//! experiments ("HMCT and MCT overload the fastest servers that cannot
//! accept any more jobs because it runs out of memory", §5.1).
//!
//! The memory model has three regimes:
//!
//! * resident ≤ RAM — full speed;
//! * RAM < resident ≤ RAM + swap — *thrashing*: CPU capacity is divided by
//!   a configurable slowdown factor per MB of overcommit ratio (the machine
//!   still makes progress, slowly — matching the "very high values … huge
//!   time and space contention" the paper reports for overloaded servers);
//! * resident + new task > RAM + swap — *admission fails*: the task is
//!   rejected ([`AdmitOutcome::Rejected`]), and the server counts a strike;
//!   after `collapse_after_rejections` strikes it *collapses* and refuses
//!   all further work, modelling the servers that "collapsed during the
//!   experiment".

use crate::fairshare::FairShareResource;
use crate::ids::TaskId;
use cas_sim::SimTime;
use serde::{Deserialize, Serialize};

/// Static description of a server machine (the rows of Table 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerSpec {
    /// Host name, e.g. `"artimon"`.
    pub name: String,
    /// CPU clock in MHz — informational; actual task speeds come from the
    /// cost tables, as in the paper.
    pub cpu_mhz: f64,
    /// Physical memory in MB.
    pub ram_mb: f64,
    /// Swap space in MB.
    pub swap_mb: f64,
}

impl ServerSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, cpu_mhz: f64, ram_mb: f64, swap_mb: f64) -> Self {
        ServerSpec {
            name: name.into(),
            cpu_mhz,
            ram_mb,
            swap_mb,
        }
    }

    /// Total memory (RAM + swap) before admission fails.
    pub fn total_mem_mb(&self) -> f64 {
        self.ram_mb + self.swap_mb
    }
}

/// Memory-model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryModel {
    /// Whether memory is modelled at all. The paper's second experiment set
    /// ("waste-cpu") was designed so memory never matters; switching the
    /// model off entirely reproduces an idealised environment.
    pub enabled: bool,
    /// Thrashing slowdown: effective CPU capacity is divided by
    /// `1 + strength * overcommit` where `overcommit =
    /// (resident - ram) / ram` (only when resident > ram).
    pub thrash_strength: f64,
    /// Number of rejected admissions after which the server collapses and
    /// accepts nothing more. `u32::MAX` disables collapse.
    pub collapse_after_rejections: u32,
}

impl Default for MemoryModel {
    /// The calibration used by the paper-table experiments: admission
    /// control (RAM + swap cap) active, no thrashing slowdown, collapse
    /// only after massive rejection counts. Calibrated so that the
    /// low-rate matmul metatask completes 500/500 under every heuristic
    /// (Table 5) while the high rate loses tasks for the HTM heuristics
    /// without fault tolerance (Table 6). Thrashing is explored
    /// separately as an ablation
    /// ([`MemoryModel::thrashing`]).
    fn default() -> Self {
        MemoryModel {
            enabled: true,
            thrash_strength: 0.0,
            collapse_after_rejections: 1000,
        }
    }
}

impl MemoryModel {
    /// A model in which memory never constrains anything.
    pub fn disabled() -> Self {
        MemoryModel {
            enabled: false,
            thrash_strength: 0.0,
            collapse_after_rejections: u32::MAX,
        }
    }

    /// A harsher model with a thrashing slowdown (`strength` per unit of
    /// RAM overcommit) and fast collapse — the ablation arm showing the
    /// feedback spiral that takes servers down when paging is punished.
    pub fn thrashing(strength: f64, collapse_after_rejections: u32) -> Self {
        MemoryModel {
            enabled: true,
            thrash_strength: strength,
            collapse_after_rejections,
        }
    }
}

/// Result of trying to start a task's compute phase on a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// The task was admitted and is now running.
    Admitted,
    /// Not enough memory (RAM + swap) — the task is refused.
    Rejected,
    /// The server has collapsed and refuses all work.
    Collapsed,
}

/// Runtime state of one server: three fair-share resources plus memory.
///
/// Work units: the CPU's work unit is "seconds of computation on this
/// unloaded server" (capacity 1.0 means one such second per wall second, the
/// nominal speed); the links' work unit is likewise "seconds of transfer on
/// the unloaded link". Using cost-seconds directly — rather than ops and MB —
/// mirrors the paper, whose static information *is* the measured seconds.
#[derive(Debug, Clone)]
pub struct ServerRuntime {
    spec: ServerSpec,
    mem_model: MemoryModel,
    /// Time-shared CPU. Nominal capacity 1.0; scaled by noise and thrashing.
    pub cpu: FairShareResource<TaskId>,
    /// Client → server transfers in flight.
    pub link_in: FairShareResource<TaskId>,
    /// Server → client transfers in flight.
    pub link_out: FairShareResource<TaskId>,
    /// Resident memory of admitted compute tasks, MB.
    resident_mb: f64,
    /// Per-task memory, so completion can release the right amount.
    task_mem: Vec<(TaskId, f64)>,
    /// Multiplicative CPU speed noise (ground-truth realism), median 1.
    noise_factor: f64,
    rejections: u32,
    collapsed: bool,
}

impl ServerRuntime {
    /// Creates an idle server.
    pub fn new(spec: ServerSpec, mem_model: MemoryModel) -> Self {
        ServerRuntime {
            spec,
            mem_model,
            cpu: FairShareResource::new(1.0),
            link_in: FairShareResource::new(1.0),
            link_out: FairShareResource::new(1.0),
            resident_mb: 0.0,
            task_mem: Vec::new(),
            noise_factor: 1.0,
            rejections: 0,
            collapsed: false,
        }
    }

    /// The static spec.
    pub fn spec(&self) -> &ServerSpec {
        &self.spec
    }

    /// Resident memory of running compute tasks, MB.
    pub fn resident_mb(&self) -> f64 {
        self.resident_mb
    }

    /// Whether the server has collapsed.
    pub fn is_collapsed(&self) -> bool {
        self.collapsed
    }

    /// Number of admissions rejected so far.
    pub fn rejections(&self) -> u32 {
        self.rejections
    }

    /// Run-queue length (number of tasks in the compute phase) — what the
    /// load monitor samples.
    pub fn run_queue_len(&self) -> usize {
        self.cpu.len()
    }

    /// Applies a new multiplicative speed-noise factor (ground truth only;
    /// the HTM never sees this). Recomputes effective CPU capacity.
    pub fn set_noise(&mut self, now: SimTime, factor: f64) {
        assert!(factor > 0.0 && factor.is_finite());
        self.noise_factor = factor;
        self.apply_capacity(now);
    }

    fn thrash_factor(&self) -> f64 {
        if !self.mem_model.enabled || self.resident_mb <= self.spec.ram_mb {
            return 1.0;
        }
        let overcommit = (self.resident_mb - self.spec.ram_mb) / self.spec.ram_mb.max(1.0);
        1.0 + self.mem_model.thrash_strength * overcommit
    }

    fn apply_capacity(&mut self, now: SimTime) {
        let cap = self.noise_factor / self.thrash_factor();
        self.cpu.set_capacity(now, cap);
    }

    /// Tries to reserve `mem_mb` MB for a task (NetSolve servers accept or
    /// refuse a request up front, before the input transfer starts). On
    /// success the memory is held until [`Self::finish_compute`] (or
    /// [`Self::release`]) frees it.
    pub fn reserve(&mut self, now: SimTime, task: TaskId, mem_mb: f64) -> AdmitOutcome {
        if self.collapsed {
            return AdmitOutcome::Collapsed;
        }
        if self.mem_model.enabled && self.resident_mb + mem_mb > self.spec.total_mem_mb() {
            self.rejections += 1;
            if self.rejections >= self.mem_model.collapse_after_rejections {
                self.collapsed = true;
            }
            return AdmitOutcome::Rejected;
        }
        self.resident_mb += mem_mb;
        self.task_mem.push((task, mem_mb));
        self.apply_capacity(now);
        AdmitOutcome::Admitted
    }

    /// Starts a reserved task's compute phase (`compute_cost` unloaded
    /// seconds of CPU). Called when its input transfer completes.
    pub fn begin_compute(&mut self, now: SimTime, task: TaskId, compute_cost: f64) {
        self.cpu.add(now, task, compute_cost);
    }

    /// Releases a task's memory reservation without touching the CPU (used
    /// when a task is aborted before computing).
    pub fn release(&mut self, now: SimTime, task: TaskId) {
        if let Some(idx) = self.task_mem.iter().position(|(t, _)| *t == task) {
            let (_, mem) = self.task_mem.swap_remove(idx);
            self.resident_mb = (self.resident_mb - mem).max(0.0);
            self.apply_capacity(now);
        }
    }

    /// Completes (or aborts) a task's compute phase, releasing its memory.
    /// Returns the remaining CPU work (0 when it actually finished).
    pub fn finish_compute(&mut self, now: SimTime, task: TaskId) -> Option<f64> {
        let left = self.cpu.remove(now, task)?;
        if let Some(idx) = self.task_mem.iter().position(|(t, _)| *t == task) {
            let (_, mem) = self.task_mem.swap_remove(idx);
            self.resident_mb = (self.resident_mb - mem).max(0.0);
        }
        self.apply_capacity(now);
        Some(left)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn spec() -> ServerSpec {
        ServerSpec::new("testbox", 500.0, 100.0, 50.0)
    }

    /// Reserves memory and starts computing in one step.
    fn admit_compute(
        s: &mut ServerRuntime,
        now: SimTime,
        task: TaskId,
        compute_cost: f64,
        mem_mb: f64,
    ) -> AdmitOutcome {
        let outcome = s.reserve(now, task, mem_mb);
        if outcome == AdmitOutcome::Admitted {
            s.begin_compute(now, task, compute_cost);
        }
        outcome
    }

    #[test]
    fn spec_totals() {
        assert_eq!(spec().total_mem_mb(), 150.0);
    }

    #[test]
    fn admit_and_finish_tracks_memory() {
        let mut s = ServerRuntime::new(spec(), MemoryModel::default());
        assert_eq!(
            admit_compute(&mut s, t(0.0), TaskId(1), 10.0, 60.0),
            AdmitOutcome::Admitted
        );
        assert_eq!(s.resident_mb(), 60.0);
        assert_eq!(s.run_queue_len(), 1);
        s.finish_compute(t(10.0), TaskId(1));
        assert_eq!(s.resident_mb(), 0.0);
        assert_eq!(s.run_queue_len(), 0);
    }

    #[test]
    fn rejection_when_memory_exhausted() {
        let mut s = ServerRuntime::new(spec(), MemoryModel::default());
        assert_eq!(
            admit_compute(&mut s, t(0.0), TaskId(1), 10.0, 100.0),
            AdmitOutcome::Admitted
        );
        // 100 + 60 > 150 → rejected.
        assert_eq!(
            admit_compute(&mut s, t(0.0), TaskId(2), 10.0, 60.0),
            AdmitOutcome::Rejected
        );
        assert_eq!(s.rejections(), 1);
        // But a small task still fits.
        assert_eq!(
            admit_compute(&mut s, t(0.0), TaskId(3), 10.0, 40.0),
            AdmitOutcome::Admitted
        );
    }

    #[test]
    fn collapse_after_repeated_rejections() {
        let mm = MemoryModel {
            collapse_after_rejections: 2,
            ..MemoryModel::default()
        };
        let mut s = ServerRuntime::new(spec(), mm);
        admit_compute(&mut s, t(0.0), TaskId(1), 10.0, 150.0);
        assert_eq!(
            admit_compute(&mut s, t(0.0), TaskId(2), 10.0, 1.0),
            AdmitOutcome::Rejected
        );
        assert_eq!(
            admit_compute(&mut s, t(0.0), TaskId(3), 10.0, 1.0),
            AdmitOutcome::Rejected
        );
        assert!(s.is_collapsed());
        // Even a zero-memory task is now refused.
        assert_eq!(
            admit_compute(&mut s, t(0.0), TaskId(4), 10.0, 0.0),
            AdmitOutcome::Collapsed
        );
    }

    #[test]
    fn thrashing_slows_the_cpu() {
        let mut s = ServerRuntime::new(spec(), MemoryModel::thrashing(4.0, 8));
        // 120 MB resident on 100 MB RAM: overcommit 0.2, slowdown 1 + 4*0.2
        // = 1.8.
        admit_compute(&mut s, t(0.0), TaskId(1), 18.0, 120.0);
        let (_, when) = s.cpu.next_completion(t(0.0)).unwrap();
        assert!(when.approx_eq(t(18.0 * 1.8), 1e-9), "got {when:?}");
    }

    #[test]
    fn thrashing_recovers_on_release() {
        let mut s = ServerRuntime::new(spec(), MemoryModel::thrashing(4.0, 8));
        admit_compute(&mut s, t(0.0), TaskId(1), 100.0, 120.0);
        s.finish_compute(t(1.0), TaskId(1));
        admit_compute(&mut s, t(1.0), TaskId(2), 10.0, 10.0);
        let (_, when) = s.cpu.next_completion(t(1.0)).unwrap();
        assert!(when.approx_eq(t(11.0), 1e-9));
    }

    #[test]
    fn disabled_memory_model_never_rejects() {
        let mut s = ServerRuntime::new(spec(), MemoryModel::disabled());
        for i in 0..50 {
            assert_eq!(
                admit_compute(&mut s, t(0.0), TaskId(i), 10.0, 1000.0),
                AdmitOutcome::Admitted
            );
        }
        assert_eq!(s.run_queue_len(), 50);
    }

    #[test]
    fn noise_scales_speed() {
        let mut s = ServerRuntime::new(spec(), MemoryModel::disabled());
        s.set_noise(t(0.0), 0.5);
        admit_compute(&mut s, t(0.0), TaskId(1), 10.0, 0.0);
        let (_, when) = s.cpu.next_completion(t(0.0)).unwrap();
        assert!(when.approx_eq(t(20.0), 1e-9));
    }

    #[test]
    fn links_are_independent_resources() {
        let mut s = ServerRuntime::new(spec(), MemoryModel::default());
        s.link_in.add(t(0.0), TaskId(1), 4.0);
        s.link_out.add(t(0.0), TaskId(2), 2.0);
        assert_eq!(s.link_in.len(), 1);
        assert_eq!(s.link_out.len(), 1);
        let (_, tin) = s.link_in.next_completion(t(0.0)).unwrap();
        let (_, tout) = s.link_out.next_completion(t(0.0)).unwrap();
        assert_eq!(tin, t(4.0));
        assert_eq!(tout, t(2.0));
    }

    #[test]
    fn finish_unknown_task_is_none() {
        let mut s = ServerRuntime::new(spec(), MemoryModel::default());
        assert_eq!(s.finish_compute(t(0.0), TaskId(99)), None);
    }

    #[test]
    fn reserve_then_begin_compute_later() {
        let mut s = ServerRuntime::new(spec(), MemoryModel::default());
        assert_eq!(s.reserve(t(0.0), TaskId(1), 80.0), AdmitOutcome::Admitted);
        assert_eq!(s.resident_mb(), 80.0);
        assert_eq!(s.run_queue_len(), 0, "memory held but not computing yet");
        s.begin_compute(t(5.0), TaskId(1), 10.0);
        assert_eq!(s.run_queue_len(), 1);
        s.finish_compute(t(15.0), TaskId(1));
        assert_eq!(s.resident_mb(), 0.0);
    }

    #[test]
    fn release_frees_reservation_without_compute() {
        let mut s = ServerRuntime::new(spec(), MemoryModel::default());
        s.reserve(t(0.0), TaskId(1), 150.0);
        assert_eq!(s.reserve(t(0.0), TaskId(2), 10.0), AdmitOutcome::Rejected);
        s.release(t(1.0), TaskId(1));
        assert_eq!(s.resident_mb(), 0.0);
        assert_eq!(s.reserve(t(1.0), TaskId(3), 10.0), AdmitOutcome::Admitted);
    }

    #[test]
    fn reservation_already_causes_thrashing() {
        // Memory pressure from a reserved (still transferring) task slows
        // the CPU — the data is already being paged in.
        let mut s = ServerRuntime::new(spec(), MemoryModel::thrashing(4.0, 8));
        s.reserve(t(0.0), TaskId(1), 120.0);
        s.begin_compute(t(0.0), TaskId(2), 18.0);
        // overcommit (120-100)/100 = 0.2 → slowdown 1.8.
        let (_, when) = s.cpu.next_completion(t(0.0)).unwrap();
        assert!(when.approx_eq(t(18.0 * 1.8), 1e-9), "got {when:?}");
    }
}
