//! A persistent SPMD worker pool.
//!
//! The paper's executors are SPMD: every processor runs the same transformed
//! loop over its own schedule slice. [`WorkerPool`] keeps `p` OS threads
//! alive across executor invocations (schedules are reused over many solver
//! iterations, so thread spawn cost must be amortized exactly like the
//! paper amortizes its topological sort).
//!
//! `run` hands every worker the same closure plus its worker id and blocks
//! until all workers finish — a fork/join on a persistent team.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A job handed to [`WorkerPool::run`] panicked on one or more workers.
///
/// The panic itself was contained — every worker thread survives (the
/// panics were caught per worker), the join completed, and the pool is
/// reusable — but the job's output must be considered garbage, which is
/// why `run` reports it as a typed error instead of unwinding through
/// whatever service thread happened to coordinate the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolError {
    /// How many of the team's workers panicked during the job.
    pub panicked: usize,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} worker(s) panicked while executing the job",
            self.panicked
        )
    }
}

impl std::error::Error for PoolError {}

/// Type-erased pointer to the caller's job closure.
///
/// The pointee is only dereferenced between the epoch announcement in
/// [`WorkerPool::run`] and the completion signal that `run` blocks on, so it
/// never outlives the borrow it was created from.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (required at creation) and the pointer is
// only dereferenced while `WorkerPool::run` keeps the original reference
// alive (it blocks until `remaining == 0`).
unsafe impl Send for JobPtr {}

struct State {
    epoch: u64,
    job: Option<JobPtr>,
    remaining: usize,
    panicked: usize,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
}

/// A fixed-size team of worker threads executing SPMD jobs.
pub struct WorkerPool {
    inner: Arc<Inner>,
    handles: Vec<JoinHandle<()>>,
    nworkers: usize,
}

impl WorkerPool {
    /// Spawns a pool of `nworkers` threads (`nworkers >= 1`).
    pub fn new(nworkers: usize) -> Self {
        assert!(nworkers >= 1, "worker pool needs at least one worker");
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                remaining: 0,
                panicked: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (0..nworkers)
            .map(|id| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("rtpl-worker-{id}"))
                    .spawn(move || worker_loop(&inner, id))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        WorkerPool {
            inner,
            handles,
            nworkers,
        }
    }

    /// Number of workers (the paper's `p`).
    #[inline]
    pub fn nworkers(&self) -> usize {
        self.nworkers
    }

    /// Whether every worker thread of the team is still alive. Workers
    /// catch job panics and survive them, so this only reports `false`
    /// after something catastrophic (an abort-adjacent failure inside a
    /// worker); a pool manager uses it to decide between reusing and
    /// rebuilding a returned pool.
    pub fn is_healthy(&self) -> bool {
        self.handles.iter().all(|h| !h.is_finished())
    }

    /// Runs `job(worker_id)` on every worker concurrently; returns when all
    /// workers have finished. The calling thread only coordinates (it is not
    /// one of the workers).
    ///
    /// If any worker's job panics, the panic is contained (the worker thread
    /// survives for subsequent jobs) and `run` returns a typed
    /// [`PoolError`] after the whole team has finished — a fork/join never
    /// hangs on a buggy body, and never unwinds through the coordinator.
    pub fn run(&self, job: &(dyn Fn(usize) + Sync)) -> Result<(), PoolError> {
        // A job dispatched from inside a trace capture tags each worker with
        // its processor id, so the race oracle can attribute its accesses.
        #[cfg(feature = "verify-trace")]
        let traced = |p| {
            let _proc = crate::trace::enter_proc(p);
            job(p)
        };
        #[cfg(feature = "verify-trace")]
        let job: &(dyn Fn(usize) + Sync) = if crate::trace::capturing() {
            &traced
        } else {
            job
        };
        let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert!(st.job.is_none(), "pool is already running a job");
        // SAFETY: erase the borrow lifetime. `run` blocks below until every
        // worker has finished calling the closure, so the pointee outlives
        // all dereferences.
        let ptr: JobPtr = unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), JobPtr>(job as *const _)
        };
        st.job = Some(ptr);
        st.remaining = self.nworkers;
        st.panicked = 0;
        st.epoch += 1;
        self.inner.work_cv.notify_all();
        while st.remaining > 0 {
            st = self
                .inner
                .done_cv
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
        st.job = None;
        let panicked = st.panicked;
        drop(st);
        if panicked == 0 {
            Ok(())
        } else {
            Err(PoolError { panicked })
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            st.shutdown = true;
            self.inner.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &Inner, id: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
            while !st.shutdown && (st.epoch == seen_epoch || st.job.is_none()) {
                st = inner.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            if st.shutdown {
                return;
            }
            seen_epoch = st.epoch;
            st.job.expect("woken without a job")
        };
        // SAFETY: `WorkerPool::run` keeps the closure alive until every
        // worker has decremented `remaining`, which happens strictly after
        // this call returns. The catch_unwind keeps a panicking job from
        // killing the worker (which would hang the join).
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe { (*job.0)(id) }));
        let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
        st.remaining -= 1;
        if outcome.is_err() {
            st.panicked += 1;
        }
        if st.remaining == 0 {
            inner.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn all_workers_run_once() {
        let pool = WorkerPool::new(4);
        let counter = AtomicUsize::new(0);
        let mask = AtomicUsize::new(0);
        pool.run(&|id| {
            counter.fetch_add(1, Ordering::Relaxed);
            mask.fetch_or(1 << id, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 4);
        assert_eq!(mask.load(Ordering::Relaxed), 0b1111);
    }

    #[test]
    fn pool_is_reusable() {
        let pool = WorkerPool::new(3);
        let counter = AtomicUsize::new(0);
        for _ in 0..10 {
            pool.run(&|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 30);
    }

    #[test]
    fn single_worker_pool() {
        let pool = WorkerPool::new(1);
        let counter = AtomicUsize::new(0);
        pool.run(&|id| {
            assert_eq!(id, 0);
            counter.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn workers_can_mutate_disjoint_slices() {
        let pool = WorkerPool::new(4);
        let data: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
        pool.run(&|id| {
            for k in (id..16).step_by(4) {
                data[k].store(k * 10, Ordering::Relaxed);
            }
        })
        .unwrap();
        for (k, v) in data.iter().enumerate() {
            assert_eq!(v.load(Ordering::Relaxed), k * 10);
        }
    }

    #[test]
    #[should_panic]
    fn zero_workers_rejected() {
        let _ = WorkerPool::new(0);
    }

    #[test]
    fn panicking_job_is_a_typed_error_and_the_pool_survives() {
        let pool = WorkerPool::new(3);
        let err = pool
            .run(&|id| {
                if id == 1 {
                    panic!("injected body panic");
                }
            })
            .unwrap_err();
        assert_eq!(err, PoolError { panicked: 1 });
        assert!(pool.is_healthy(), "workers catch panics and live on");
        // The same team runs the next job normally.
        let counter = AtomicUsize::new(0);
        pool.run(&|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 3);
    }
}
