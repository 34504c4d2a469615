//! Fault injection through the `exec.body_panic` fail point, which every
//! discipline core evaluates once per worker.
//!
//! The fail-point registry is process-global, so this test lives in its own
//! test binary: armed here, the point cannot fire inside a concurrently
//! running unit test's execution (and theirs cannot consume this one's).

use rtpl_executor::{
    CompiledPlan, CompiledSpec, ExecError, ExecPolicy, LoopBody, PlannedLoop, ValueSource,
    WorkerPool,
};
use rtpl_inspector::{DepGraph, Schedule, Wavefronts};
use rtpl_sparse::failpoint;
use rtpl_sparse::gen::laplacian_5pt;

/// `x(i) = b(i) − Σ_j L(i,j)·x(j)`: the forward sweep, as a loop body.
struct Solve<'a> {
    l: &'a rtpl_sparse::Csr,
    b: &'a [f64],
}

impl LoopBody for Solve<'_> {
    fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64 {
        let mut acc = self.b[i];
        for (j, v) in self.l.row(i) {
            acc -= v * src.get(j);
        }
        acc
    }
}

/// Arms the point for one fire, runs `attempt` (which must fail with a
/// contained body panic), disarms it, and runs `attempt` again (which must
/// reproduce `expect` exactly on the same plan, scratch and pool).
fn contained<F>(pool: &WorkerPool, policy: ExecPolicy, expect: &[f64], mut attempt: F)
where
    F: FnMut(&mut [f64]) -> Result<(), ExecError>,
{
    failpoint::configure("exec.body_panic", failpoint::Mode::Times(1));
    let mut out = vec![0.0; expect.len()];
    let err = attempt(&mut out).unwrap_err();
    assert!(
        matches!(err, ExecError::BodyPanicked { workers } if workers >= 1),
        "{policy:?}: {err:?}"
    );
    assert!(pool.is_healthy(), "{policy:?}");
    failpoint::clear("exec.body_panic");
    let mut again = vec![0.0; expect.len()];
    attempt(&mut again).unwrap();
    assert_eq!(again, expect, "{policy:?}");
}

#[test]
fn body_panic_failpoint_is_contained_per_policy() {
    let l = laplacian_5pt(7, 7).strict_lower();
    let n = l.nrows();
    let b = vec![1.0; n];
    let g = DepGraph::from_lower_triangular(&l).unwrap();
    let wf = Wavefronts::compute(&g).unwrap();
    let plan = PlannedLoop::new(g, Schedule::global(&wf, 2).unwrap()).unwrap();
    let body = Solve { l: &l, b: &b };
    let mut expect = vec![0.0; n];
    plan.run_sequential(&body, &mut expect);

    let mut spec = CompiledSpec::new(n, l.nnz());
    for i in 0..n {
        let lo = l.indptr()[i];
        spec.push_row(
            i as u32,
            i as u32,
            (lo..l.indptr()[i + 1]).map(|k| (l.indices()[k], k as u32)),
        );
    }
    let compiled = CompiledPlan::compile(&plan, &spec).unwrap();
    let mut scratch = compiled.scratch();
    compiled.load_values(&mut scratch, l.data()).unwrap();

    let pool = WorkerPool::new(2);
    let loop_scratch = plan.scratch();
    for policy in ExecPolicy::ALL {
        contained(&pool, policy, &expect, |out| {
            plan.try_run_in(&loop_scratch, &pool, policy, &body, out, None)
                .map(drop)
        });
        contained(&pool, policy, &expect, |out| {
            compiled
                .try_run(&pool, policy, &mut scratch, &b, out, None)
                .map(drop)
        });
    }
}
