//! The replication fan-out.
//!
//! Its one client is the experiment runner (`cas-middleware::runner`),
//! which runs whole replications through [`WorkPool::map`]; the
//! decision path itself is serial. `map` runs on scoped threads
//! (`std::thread::scope`), the calling thread among them: each thread
//! claims the next job index from a shared counter and writes the job's
//! result into that index's slot, so results come back in index order
//! whichever thread ran what.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// How wide a [`WorkPool::map`] fans out. Most callers want [`global`].
pub struct WorkPool {
    workers: usize,
}

impl WorkPool {
    /// Threads a [`WorkPool::map`] runs on at most, the caller included.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f(0)`, …, `f(n - 1)` on at most [`WorkPool::workers`]
    /// threads and returns the results in index order. The calling thread
    /// claims jobs too, so `n ≤ 1` starts no thread at all. A panic in a
    /// job is re-thrown here once every thread has stopped; the other
    /// threads run the jobs left before they stop.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        // The counter only hands out indices (results travel through the
        // slots' locks and the scope's joins), so `Relaxed` suffices.
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let claim = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return;
            }
            let out = f(i);
            *slots[i].lock().expect("a slot lock is held only to store") = Some(out);
        };
        std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..self.workers.min(n))
                .map(|_| scope.spawn(claim))
                .collect();
            claim();
            for helper in helpers {
                if let Err(payload) = helper.join() {
                    resume_unwind(payload);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("a slot lock is held only to store")
                    .expect("every index was claimed")
            })
            .collect()
    }
}

/// The process-wide fan-out, sized to the machine: `available_parallelism`
/// threads, or 4 when that is unknown.
pub fn global() -> &'static WorkPool {
    static GLOBAL: OnceLock<WorkPool> = OnceLock::new();
    GLOBAL.get_or_init(|| WorkPool {
        workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn map_returns_results_in_index_order() {
        let base = [10usize, 20, 30];
        for workers in [1, 3, 8] {
            let pool = WorkPool { workers };
            let out = pool.map(100, |i| base[i % 3] + i);
            assert_eq!(out, (0..100).map(|i| base[i % 3] + i).collect::<Vec<_>>());
            assert!(pool.map(0, |i| i).is_empty());
        }
    }

    #[test]
    fn map_rethrows_a_job_panic_after_the_other_jobs_ran() {
        let pool = WorkPool { workers: 2 };
        let finished = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.map(16, |i| {
                assert_ne!(i, 3, "boom");
                finished.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let payload = caught.expect_err("the panic must leave map");
        let message = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains("boom"), "{message}");
        assert_eq!(finished.load(Ordering::SeqCst), 15, "the other jobs ran");
    }
}
