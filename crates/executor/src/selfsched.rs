//! Self-*scheduling* executors: dynamic assignment of iterations.
//!
//! The paper's related work (§3) contrasts its statically scheduled
//! executors with **self-scheduled** execution à la Lusk & Overbeek and the
//! **guided self-scheduling** of Polychronopoulos & Kuck, where processors
//! repeatedly claim the next chunk of iterations from a shared counter.
//! This module implements that alternative over a wavefront-sorted index
//! list, with busy-wait dependence synchronization — so load balance is
//! dynamic (no inspector partitioning step) at the price of contended
//! counter traffic and lost locality.
//!
//! Progress: chunks are claimed in topological-list order and each worker
//! processes its chunk in order, so the globally earliest unfinished index
//! always has its dependences complete and an owner that can run it.

use crate::layout::{run_team, Natural};
use crate::planned::LoopScratch;
use crate::pool::WorkerPool;
use crate::report::ExecReport;
use crate::shared::WaitingSource;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Chunk-size policy for dynamic claiming.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Chunking {
    /// One iteration per claim (maximum balance, maximum contention —
    /// Lusk & Overbeek style).
    Unit,
    /// Guided self-scheduling: claim `ceil(remaining / p)` iterations
    /// (Polychronopoulos & Kuck).
    Guided,
    /// Fixed chunks of `k` iterations.
    Fixed(usize),
}

/// Runs `body` over the topologically sorted `order` (e.g.
/// [`rtpl_inspector::Wavefronts::sorted_list`]) with dynamically claimed
/// chunks and busy-wait synchronization.
///
/// `order` must be a permutation of `0..out.len()` in an order consistent
/// with the dependences read through the source (checked in debug builds by
/// the publication flags). The report's `iters_per_proc` shows the chunk
/// distribution the dynamic claiming actually produced.
pub fn self_scheduling<F>(
    pool: &WorkerPool,
    order: &[u32],
    chunking: Chunking,
    body: &F,
    out: &mut [f64],
) -> ExecReport
where
    F: for<'s> Fn(usize, &WaitingSource<'s>) -> f64 + Sync,
{
    let n = order.len();
    assert_eq!(out.len(), n);
    if let Chunking::Fixed(k) = chunking {
        assert!(k >= 1, "fixed chunk size must be >= 1");
    }
    let nprocs = pool.nworkers();
    let cursor = AtomicUsize::new(0);
    let layout = Natural { n, nprocs };
    let scratch = LoopScratch::new(n, nprocs);
    run_team(pool, &layout, &scratch, None, None, out, |_, team| {
        let src = WaitingSource::new(team.shared, team.epoch);
        let mut count = 0u64;
        loop {
            // Claim the next chunk [lo, hi).
            let lo = match chunking {
                Chunking::Unit => cursor.fetch_add(1, Ordering::Relaxed),
                Chunking::Fixed(k) => cursor.fetch_add(k, Ordering::Relaxed),
                Chunking::Guided => {
                    // CAS loop recomputing the guided chunk from `remaining`.
                    let mut lo = cursor.load(Ordering::Relaxed);
                    loop {
                        if lo >= n {
                            break;
                        }
                        let remaining = n - lo;
                        let chunk = remaining.div_ceil(nprocs);
                        match cursor.compare_exchange_weak(
                            lo,
                            lo + chunk,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        ) {
                            Ok(_) => break,
                            Err(cur) => lo = cur,
                        }
                    }
                    lo
                }
            };
            if lo >= n {
                break;
            }
            let hi = match chunking {
                Chunking::Unit => lo + 1,
                Chunking::Fixed(k) => (lo + k).min(n),
                Chunking::Guided => (lo + (n - lo).div_ceil(nprocs)).min(n),
            };
            for &i in &order[lo..hi.min(n)] {
                let i = i as usize;
                let v = body(i, &src);
                team.shared.publish_at(i, v, team.epoch);
                count += 1;
            }
        }
        Some((count, src.stalls()))
    })
    .unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ValueSource;
    use rtpl_inspector::{DepGraph, Wavefronts};
    use rtpl_sparse::gen::{laplacian_5pt, random_lower};
    use rtpl_sparse::triangular::{row_substitution_lower, solve_lower, Diag};

    fn check(l: &rtpl_sparse::Csr, nprocs: usize, chunking: Chunking) {
        let n = l.nrows();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 7 % 13) as f64)).collect();
        let mut expect = vec![0.0; n];
        solve_lower(l, &b, Diag::Unit, &mut expect).unwrap();
        let g = DepGraph::from_lower_triangular(l).unwrap();
        let order = Wavefronts::compute(&g).unwrap().sorted_list();
        let pool = WorkerPool::new(nprocs);
        let mut out = vec![0.0; n];
        let report = self_scheduling(
            &pool,
            &order,
            chunking,
            &|i, src| row_substitution_lower(l, &b, i, |j| src.get(j)),
            &mut out,
        );
        assert_eq!(out, expect, "{chunking:?} p={nprocs}");
        assert_eq!(report.total_iters() as usize, n, "{chunking:?} p={nprocs}");
    }

    #[test]
    fn unit_chunks_match_sequential() {
        check(&laplacian_5pt(7, 7).strict_lower(), 3, Chunking::Unit);
    }

    #[test]
    fn guided_chunks_match_sequential() {
        check(&laplacian_5pt(8, 6).strict_lower(), 4, Chunking::Guided);
        check(&random_lower(90, 4, 21).strict_lower(), 2, Chunking::Guided);
    }

    #[test]
    fn fixed_chunks_match_sequential() {
        check(&laplacian_5pt(6, 6).strict_lower(), 2, Chunking::Fixed(5));
        check(&laplacian_5pt(6, 6).strict_lower(), 2, Chunking::Fixed(100));
    }

    #[test]
    fn natural_order_also_valid() {
        // The natural order 0..n is itself topological for forward graphs.
        let l = random_lower(60, 3, 5).strict_lower();
        let n = l.nrows();
        let b = vec![1.0; n];
        let mut expect = vec![0.0; n];
        solve_lower(&l, &b, Diag::Unit, &mut expect).unwrap();
        let order: Vec<u32> = (0..n as u32).collect();
        let pool = WorkerPool::new(3);
        let mut out = vec![0.0; n];
        self_scheduling(
            &pool,
            &order,
            Chunking::Guided,
            &|i, src| row_substitution_lower(&l, &b, i, |j| src.get(j)),
            &mut out,
        );
        assert_eq!(out, expect);
    }

    #[test]
    fn single_worker_any_chunking() {
        for c in [Chunking::Unit, Chunking::Guided, Chunking::Fixed(3)] {
            check(&laplacian_5pt(5, 5).strict_lower(), 1, c);
        }
    }
}
