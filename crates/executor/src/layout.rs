//! The layout trait the discipline cores ([`crate::selfexec`],
//! [`crate::presched`], [`mod@crate::doacross`]) are generic over, and the
//! failure containment every core shares. An inspector [`Schedule`] is the
//! layout of an uncompiled loop; a [`crate::CompiledPlan`] is another.

use crate::barrier::SpinBarrier;
use crate::cancel::{CancelToken, ExecError, InterruptCell};
use crate::planned::LoopScratch;
use crate::pool::WorkerPool;
use crate::report::ExecReport;
use crate::shared::SharedVec;
use rtpl_inspector::Schedule;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A loop's execution layout: which positions each processor runs per
/// phase, which index a position publishes, which position computes an
/// index (the doacross walk), and how results reach the output. By default
/// a position *is* the index it computes; a layout that permutes its
/// positions overrides the last three methods.
pub(crate) trait Layout: Sync {
    /// Positions of one processor's phase, in execution order.
    type Positions<'a>: Iterator<Item = usize>
    where
        Self: 'a;

    /// Phase count.
    fn num_phases(&self) -> usize;

    /// The positions processor `p` runs in phase `w`.
    fn positions(&self, p: usize, w: usize) -> Self::Positions<'_>;

    /// The loop index position `t` publishes.
    #[inline]
    fn target(&self, t: usize) -> usize {
        t
    }

    /// The position that computes loop index `i`.
    #[inline]
    fn position_of(&self, i: usize) -> usize {
        i
    }

    /// Moves the results of the run stamped `epoch` from `shared` to `out`.
    fn finish(&self, shared: &SharedVec, epoch: u32, out: &mut [f64]) {
        shared.copy_into_at(out, epoch);
    }
}

impl Layout for Schedule {
    type Positions<'a> = std::iter::Map<std::slice::Iter<'a, u32>, fn(&u32) -> usize>;

    fn num_phases(&self) -> usize {
        Schedule::num_phases(self)
    }

    #[inline]
    fn positions(&self, p: usize, w: usize) -> Self::Positions<'_> {
        self.phase_slice(p, w).iter().map(|&i| i as usize)
    }
}

/// Natural index order striped over `nprocs` processors in one phase — the
/// layout of the free [`crate::doacross()`] and [`crate::self_scheduling`]
/// functions, which run without an inspector's schedule.
pub(crate) struct Natural {
    pub(crate) n: usize,
    pub(crate) nprocs: usize,
}

impl Layout for Natural {
    type Positions<'a> = std::iter::StepBy<std::ops::Range<usize>>;

    fn num_phases(&self) -> usize {
        1
    }

    fn positions(&self, p: usize, _w: usize) -> Self::Positions<'_> {
        (p..self.n).step_by(self.nprocs)
    }
}

/// One worker's view of a contained run: the run's epoch, and the
/// cancellation check that poisons the run's shared state when it fires.
pub(crate) struct Team<'a> {
    pub(crate) shared: &'a SharedVec,
    pub(crate) epoch: u32,
    barrier: Option<&'a SpinBarrier>,
    cancel: Option<&'a CancelToken>,
    interrupted: InterruptCell,
}

impl Team<'_> {
    /// Whether the run must stop now. A fired token records its cause and
    /// poisons the shared vector (and barrier), releasing every peer.
    #[inline]
    pub(crate) fn cancelled(&self) -> bool {
        let Some(cause) = self.cancel.and_then(CancelToken::check) else {
            return false;
        };
        self.interrupted.set(cause);
        self.poison();
        true
    }

    fn poison(&self) {
        if let Some(b) = self.barrier {
            b.poison();
        }
        self.shared.poison();
    }
}

/// Runs `work(p, team)` on every worker of `pool` over a fresh epoch of
/// `scratch` (sized for the layout), with the containment every discipline
/// shares:
///
/// * the `exec.body_panic` fail point is evaluated once per worker;
/// * a panicking worker poisons the shared vector and `barrier`, so peers
///   busy-waiting on values it would have produced fail cleanly instead of
///   spinning forever, and the run returns [`ExecError::BodyPanicked`];
/// * a cancellation observed through [`Team::cancelled`] returns its cause
///   (taking precedence over the collateral panics of poisoned peers).
///
/// `work` returns `(iterations, stalls)` when the worker finishes its share
/// and `None` when it stopped on cancellation. On success the results move
/// to `out` through [`Layout::finish`]; on error `out` is untouched.
pub(crate) fn run_team<L, W>(
    pool: &WorkerPool,
    layout: &L,
    scratch: &LoopScratch,
    barrier: Option<&SpinBarrier>,
    cancel: Option<&CancelToken>,
    out: &mut [f64],
    work: W,
) -> Result<ExecReport, ExecError>
where
    L: Layout,
    W: Fn(usize, &Team<'_>) -> Option<(u64, u64)> + Sync,
{
    assert_eq!(
        scratch.nprocs(),
        pool.nworkers(),
        "schedule processor count must match the pool"
    );
    assert_eq!(out.len(), scratch.n());
    let team = Team {
        shared: &scratch.shared,
        epoch: scratch.shared.begin_run(),
        barrier,
        cancel,
        interrupted: InterruptCell::new(),
    };
    let stalls = AtomicU64::new(0);
    let t0 = Instant::now();
    let ran = pool.run(&|p| {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if rtpl_sparse::failpoint::should_fail("exec.body_panic") {
                panic!("injected body panic (fail point exec.body_panic)");
            }
            if let Some((count, s)) = work(p, &team) {
                // ORDERING: plain counters, read after `pool.run` joins.
                scratch.iters[p].store(count, Ordering::Relaxed);
                stalls.fetch_add(s, Ordering::Relaxed);
            }
        }));
        if let Err(e) = outcome {
            team.poison();
            std::panic::resume_unwind(e);
        }
    });
    let wall = t0.elapsed();
    if let Some(cause) = team.interrupted.get() {
        return Err(cause);
    }
    ran.map_err(|e| ExecError::BodyPanicked {
        workers: e.panicked,
    })?;
    layout.finish(&scratch.shared, team.epoch, out);
    // ORDERING: the join above orders every worker's counter updates.
    Ok(ExecReport {
        barriers: 0,
        stalls: stalls.load(Ordering::Relaxed),
        iters_per_proc: scratch
            .iters
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect(),
        wall,
    })
}
