//! Proof that the steady-state decision loop performs no heap
//! allocation, and that neither does an admission-deadline firing.
//!
//! A counting global allocator wraps the system allocator; the test
//! warms the router up (growing every reusable buffer — shortlist
//! scratch, decision memo, drain scratch, perturbation buffers — to its
//! steady-state footprint), then arms the counter around a measured run
//! of pure decisions and requires the count to be exactly zero. The
//! counter is thread-local and const-initialised, so accounting itself
//! never allocates and parallel test threads cannot pollute the
//! measurement.

use cas_core::heuristics::HeuristicKind;
use cas_core::{SelectorKind, SyncPolicy};
use cas_middleware::shard::{AgentRouter, DecisionInputs};
use cas_middleware::{ExperimentConfig, GridEvent, GridWorld};
use cas_platform::{
    CostTable, LoadReport, PhaseCosts, Problem, ProblemId, ServerId, ServerSpec, TaskId,
    TaskInstance,
};
use cas_sim::{RngStream, Scheduler, SimTime, Simulation, StreamKind, World};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: defers every operation to `System`; the bookkeeping reads a
// const-initialised thread-local, which itself never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn count() {
    // `try_with`: TLS may already be torn down during thread exit.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with the allocation counter armed and returns how many
/// allocations (including reallocations) it performed on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|armed| armed.set(true));
    f();
    ARMED.with(|armed| armed.set(false));
    ALLOCS.with(|n| n.get())
}

/// An `n`-server farm, one problem solvable everywhere with spread costs.
fn farm(n: u32) -> CostTable {
    let mut costs = CostTable::new(n as usize);
    costs.add_problem(
        Problem::new("p", 1.0, 0.5, 0.0),
        (0..n)
            .map(|s| Some(PhaseCosts::new(0.4, 10.0 + 3.0 * f64::from(s % 12), 0.4)))
            .collect(),
    );
    costs
}

fn task(id: u64, at: f64) -> TaskInstance {
    TaskInstance::new(TaskId(id), ProblemId(0), SimTime::from_secs(at))
}

/// What a measured run of decisions leaves behind.
struct Measured {
    /// The warm router.
    router: AgentRouter,
    /// Allocations made during the measured decisions.
    allocs: u64,
    /// What-if queries the measured decisions stopped at the backlog.
    pruned: u64,
}

/// Warms a router over an `n`-server farm, then counts the allocations
/// of 300 further decisions — stage-1 shortlist walk, stage-2 what-if
/// queries through the memo, argmin — and the queries among them that
/// stopped at the backlog.
fn measured_decisions(
    n: u32,
    selector: SelectorKind,
    heuristic: HeuristicKind,
    shards: Option<usize>,
) -> Measured {
    let costs = farm(n);
    let reports: Vec<LoadReport> = (0..n).map(|i| LoadReport::initial(ServerId(i))).collect();
    let server_mem = vec![f64::MAX; n as usize];
    let mut heuristic = heuristic.build();
    let mut router = AgentRouter::new(&costs, shards, selector, SyncPolicy::None);
    let mut tie_rng = RngStream::derive(11, StreamKind::TieBreak);
    let admit = |_: ServerId| true;

    // Load the farm so predictions carry real perturbation lists (their
    // buffers must be grown by the warmup, not the measured run): a few
    // long-running commits per server that stay active throughout.
    for s in 0..n {
        for k in 0..4u64 {
            let t = task(100_000 + u64::from(s) * 8 + k, 0.0);
            router.on_commit(SimTime::ZERO, ServerId(s), &t, 40.0);
        }
    }

    let mut decide = |router: &mut AgentRouter,
                      heuristic: &mut dyn cas_core::heuristics::Heuristic,
                      id: u64,
                      at: f64| {
        let t = task(id, at);
        router.decide(
            DecisionInputs {
                now: t.arrival,
                task: t,
                costs: &costs,
                reports: &reports,
                server_mem: &server_mem,
                admit: &admit,
            },
            heuristic,
            &mut tie_rng,
        )
    };

    // Warmup: grow every scratch buffer well past the measured regime.
    for i in 0..3000u64 {
        decide(&mut router, heuristic.as_mut(), i, 0.001 * i as f64);
    }

    // Measured: pure decisions.
    let pruned_before = router.htm().pruned_queries();
    let allocs = allocations_in(|| {
        for i in 3000..3300u64 {
            let pick = decide(&mut router, heuristic.as_mut(), i, 3.0 + 0.001 * i as f64);
            assert!(pick.is_some(), "decision {i} found no candidate");
        }
    });
    let pruned = router.htm().pruned_queries() - pruned_before;
    Measured {
        router,
        allocs,
        pruned,
    }
}

/// The steady-state decision loop allocates nothing once its reusable
/// buffers are warm, and neither does the commit path's completion
/// query.
#[test]
fn steady_state_decisions_allocate_nothing() {
    let Measured {
        mut router, allocs, ..
    } = measured_decisions(12, SelectorKind::Exhaustive, HeuristicKind::Hmct, None);
    assert_eq!(
        allocs, 0,
        "steady-state decision loop must not allocate (saw {allocs} allocations over 300 decisions)"
    );

    // The commit path's completion query shares the router's scratch
    // prediction: allocation-free as well once warm.
    let warm = task(5_000, 10.0);
    router.predict_completion(SimTime::from_secs(10.0), ServerId(0), &warm);
    let allocs = allocations_in(|| {
        for i in 0..100u64 {
            let t = task(6_000 + i, 10.0);
            let c = router.predict_completion(SimTime::from_secs(10.0), ServerId(0), &t);
            assert!(c.is_some());
        }
    });
    assert_eq!(
        allocs, 0,
        "commit-path completion queries must not allocate"
    );
}

/// Wide shortlists — 40 servers, past any short-list special case —
/// stay allocation-free under both bounded heuristics, both selector
/// families and every agent shape: the single agent, the flat walk over
/// 3 shards, and the group walk over 20 shards (two groups under the
/// default fan-out). Every server holds four tasks, so the decisions
/// stop queries at the backlog, and those allocate nothing either:
/// every exhaustive walk prunes, and so does each heuristic overall.
/// (Over 20 two-server shards the adaptive walk shortlists the two
/// fastest servers, where nothing is left to prune.)
#[test]
fn wide_shortlist_decisions_allocate_nothing() {
    let adaptive = SelectorKind::Adaptive {
        k_min: 8,
        k_max: 64,
    };
    for heuristic in [HeuristicKind::Hmct, HeuristicKind::Msf] {
        let mut pruned = 0;
        for selector in [SelectorKind::Exhaustive, adaptive] {
            for shards in [None, Some(3), Some(20)] {
                let run = measured_decisions(40, selector, heuristic, shards);
                assert_eq!(
                    run.allocs, 0,
                    "{selector:?} {heuristic:?} shards {shards:?}: saw {} allocations \
                     over 300 decisions",
                    run.allocs
                );
                assert!(
                    run.pruned > 0 || selector != SelectorKind::Exhaustive,
                    "{selector:?} {heuristic:?} shards {shards:?}: no query stopped at \
                     its backlog"
                );
                pruned += run.pruned;
            }
        }
        assert!(pruned > 0, "{heuristic:?}: no query stopped at its backlog");
    }
}

/// `GridWorld` plus the allocations made while it handles its
/// `AdmissionTimeout` events.
struct DeadlineAllocs {
    world: GridWorld,
    firings: u64,
    allocs: u64,
}

impl World for DeadlineAllocs {
    type Event = GridEvent;

    fn init(&mut self, sched: &mut Scheduler<'_, GridEvent>) {
        self.world.init(sched);
    }

    fn handle(&mut self, now: SimTime, event: GridEvent, sched: &mut Scheduler<'_, GridEvent>) {
        if matches!(event, GridEvent::AdmissionTimeout { .. }) {
            self.firings += 1;
            let world = &mut self.world;
            self.allocs += allocations_in(|| world.handle(now, event, sched));
        } else {
            self.world.handle(now, event, sched);
        }
    }
}

/// An admission-deadline firing allocates nothing, whether it sheds
/// the class head it was armed for or finds that head dequeued, and
/// re-arms either way: three classes arrive in turn every half second,
/// far faster than eight servers drain them, behind a tight gate.
#[test]
fn admission_deadline_firings_allocate_nothing() {
    let n_tasks = 600u64;
    let servers = (0..8)
        .map(|s| ServerSpec::new(format!("s{s}"), 1000.0, 1024.0, 1024.0))
        .collect();
    let tasks = (0..n_tasks).map(|i| task(i, 0.5 * i as f64)).collect();
    let users = (0..n_tasks).map(|i| (i % 3) as u32).collect();
    let cfg = ExperimentConfig::ideal(HeuristicKind::Mct, 1).with_admission(8, 40, 20.0);
    let world = GridWorld::new(cfg, farm(8), servers, tasks).with_users(users);
    let mut sim = Simulation::new(DeadlineAllocs {
        world,
        firings: 0,
        allocs: 0,
    });
    sim.run_to_completion();
    let probe = sim.into_world();
    let adm = probe.world.admission_stats();
    assert!(
        adm.shed_deadline > 0 && probe.firings > adm.shed_deadline,
        "firings must both shed and find their head dequeued: {} firings, {adm:?}",
        probe.firings
    );
    assert_eq!(
        probe.allocs, 0,
        "{} deadline firings made {} allocations",
        probe.firings, probe.allocs
    );
}
