//! The plain doacross baseline.
//!
//! §5.1.2 compares the reordered executors against "a doacross loop": the
//! **original** index order striped across processors, with busy-wait
//! synchronization on the values. No inspector runs — that saves the
//! reordered-index-set accesses (the paper measured those as relatively
//! expensive on the Multimax) but forfeits the concurrency the wavefront
//! reordering exposes.
//!
//! Deadlock freedom: for a forward dependence graph (`dep < i`), the lowest
//! unexecuted index's operands are all complete, and each processor's local
//! order is increasing, so some processor can always advance.

use crate::cancel::{CancelToken, ExecError, CHECK_STRIDE};
use crate::layout::{run_team, Layout, Natural};
use crate::planned::LoopScratch;
use crate::pool::WorkerPool;
use crate::report::ExecReport;
use crate::shared::WaitingSource;

/// The doacross loop over a caller-provided scratch, generic over the
/// [`Layout`]: processor `p` computes indices `p, p + nprocs, …` in natural
/// order, each through the position the layout assigns it. Cancellation is
/// consulted every [`CHECK_STRIDE`] iterations.
pub(crate) fn doacross_core<L, F>(
    pool: &WorkerPool,
    layout: &L,
    scratch: &LoopScratch,
    body: &F,
    out: &mut [f64],
    cancel: Option<&CancelToken>,
) -> Result<ExecReport, ExecError>
where
    L: Layout,
    F: for<'s> Fn(usize, &WaitingSource<'s>) -> f64 + Sync,
{
    let (n, nprocs) = (scratch.n(), pool.nworkers());
    run_team(pool, layout, scratch, None, cancel, out, |p, team| {
        let src = WaitingSource::new(team.shared, team.epoch);
        let mut count = 0u64;
        for i in (p..n).step_by(nprocs) {
            if (count as usize).is_multiple_of(CHECK_STRIDE) && team.cancelled() {
                return None;
            }
            let v = body(layout.position_of(i), &src);
            team.shared.publish_at(i, v, team.epoch);
            count += 1;
        }
        Some((count, src.stalls()))
    })
}

/// Runs `body` over `0..n` in natural order, index `i` on processor
/// `i mod p`, busy-waiting on dependence values. The dependence graph must
/// be forward (`dep < i`), which is the paper's start-time schedulable
/// setting.
pub fn doacross<F>(pool: &WorkerPool, n: usize, body: &F, out: &mut [f64]) -> ExecReport
where
    F: for<'s> Fn(usize, &WaitingSource<'s>) -> f64 + Sync,
{
    let nprocs = pool.nworkers();
    let layout = Natural { n, nprocs };
    doacross_core(pool, &layout, &LoopScratch::new(n, nprocs), body, out, None)
        .unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ValueSource;
    use rtpl_sparse::gen::{laplacian_5pt, random_lower, tridiagonal};
    use rtpl_sparse::triangular::{row_substitution_lower, solve_lower, Diag};

    fn check(l: &rtpl_sparse::Csr, nprocs: usize) {
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 % 17) as f64) - 8.0).collect();
        let mut expect = vec![0.0; n];
        solve_lower(l, &b, Diag::Unit, &mut expect).unwrap();
        let pool = WorkerPool::new(nprocs);
        let mut out = vec![0.0; n];
        let report = doacross(
            &pool,
            n,
            &|i, src| row_substitution_lower(l, &b, i, |j| src.get(j)),
            &mut out,
        );
        assert_eq!(out, expect);
        assert_eq!(report.total_iters() as usize, n);
    }

    #[test]
    fn mesh_solve_matches_sequential() {
        check(&laplacian_5pt(6, 6).strict_lower(), 3);
    }

    #[test]
    fn chain_is_fully_sequential_but_correct() {
        check(&tridiagonal(40, 2.0, -1.0).strict_lower(), 4);
    }

    #[test]
    fn random_dag_matches() {
        check(&random_lower(100, 6, 3).strict_lower(), 2);
    }

    #[test]
    fn counts_stalls_on_chain() {
        // A pure chain forces nearly every cross-processor read to stall.
        let l = tridiagonal(30, 2.0, -1.0).strict_lower();
        let n = l.nrows();
        let b = vec![1.0; n];
        let pool = WorkerPool::new(2);
        let mut out = vec![0.0; n];
        let report = doacross(
            &pool,
            n,
            &|i, src| row_substitution_lower(&l, &b, i, |j| src.get(j)),
            &mut out,
        );
        assert!(report.stalls > 0, "chain must produce busy-wait stalls");
    }
}
