//! The solve doors agree on one key: `Runtime::solve`, `submit` of an
//! unkeyed or a `KeyedFactors` job, the cached preconditioner and a mixed
//! `submit_batch` all serve a pattern from one plan under
//! `Runtime::solve_key`, bit-exact with the natural-order oracle.

use rtpl::executor::WorkerPool;
use rtpl::krylov::{ExecutorKind, Precondition};
use rtpl::runtime::{Job, JobOutcome, KeyedFactors, NoBody, Runtime, RuntimeConfig, RuntimeError};
use rtpl::sparse::gen::random_lower;
use rtpl::sparse::ilu::IluFactors;
use std::time::Duration;

mod common;
use common::{factors_from_pattern, oracle_solve};

fn rhs(n: usize, salt: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 1.0 + ((i * 31 + salt * 7) % 89) as f64 * 0.019)
        .collect()
}

fn cfg(policy: Option<ExecutorKind>) -> RuntimeConfig {
    RuntimeConfig {
        nprocs: 2,
        calibrate: false,
        policy,
        ..RuntimeConfig::default()
    }
}

fn factors() -> IluFactors {
    factors_from_pattern(&random_lower(180, 5, 4242))
}

/// The same structure with different values (every entry rescaled; the
/// unit diagonal of `U` becomes 1.25, so no pivot vanishes).
fn refactorized(f: &IluFactors) -> IluFactors {
    let mut g = f.clone();
    g.l.data_mut().iter_mut().for_each(|v| *v *= 0.5);
    g.u.data_mut().iter_mut().for_each(|v| *v *= 1.25);
    g
}

/// `f` with a zero on `U`'s diagonal in row 2: plan builds reject it.
fn zero_pivot(f: &IluFactors) -> IluFactors {
    let mut bad = f.clone();
    assert_eq!(
        bad.u.row_indices(2)[0],
        2,
        "row 2 of U starts at its diagonal"
    );
    let pos = bad.u.indptr()[2];
    bad.u.data_mut()[pos] = 0.0;
    bad
}

fn solved(r: rtpl::runtime::Result<JobOutcome>) -> rtpl::runtime::SolveOutcome {
    match r {
        Ok(JobOutcome::Solve(s)) => s,
        other => panic!("expected a solve outcome, got {other:?}"),
    }
}

#[test]
fn every_solve_door_agrees_on_the_key() {
    let f = factors();
    let n = f.n();
    let key = Runtime::solve_key(&f);
    let keyed = KeyedFactors::new(f.clone());
    assert_eq!(keyed.key(), key);
    let pool = WorkerPool::new(1);
    let mut policies: Vec<Option<ExecutorKind>> =
        ExecutorKind::ALL.iter().copied().map(Some).collect();
    policies.push(None);
    for policy in policies {
        let rt = Runtime::new(cfg(policy));
        let b = rhs(n, 0);
        let expect = oracle_solve(&f, &b);

        let mut x = vec![0.0; n];
        let s = rt.solve(&f, &b, &mut x).unwrap();
        assert_eq!((s.pattern, s.cached), (key, false), "{policy:?}");
        assert_eq!(x, expect, "Runtime::solve, {policy:?}");

        let mut x = vec![0.0; n];
        let s = solved(rt.submit(Job::<NoBody>::solve(&f, &b, &mut x)));
        assert_eq!((s.pattern, s.cached), (key, true), "{policy:?}");
        assert_eq!(x, expect, "submit(Job::solve), {policy:?}");

        let mut x = vec![0.0; n];
        let s = solved(rt.submit(Job::<NoBody>::solve_keyed(&keyed, &b, &mut x)));
        assert_eq!((s.pattern, s.cached), (key, true), "{policy:?}");
        assert_eq!(x, expect, "submit(Job::solve_keyed), {policy:?}");

        let hits = rt.stats().solves.hits;
        let (mut z, mut work) = (vec![0.0; n], vec![0.0; n]);
        rt.preconditioner(&f).apply(&pool, &b, &mut z, &mut work);
        assert_eq!(z, expect, "preconditioner().apply, {policy:?}");
        assert_eq!(
            rt.stats().solves.hits,
            hits + 1,
            "the preconditioner hit the plan"
        );

        let bs: Vec<Vec<f64>> = (1..5).map(|s| rhs(n, s)).collect();
        let mut xs = vec![vec![0.0; n]; bs.len()];
        let jobs = bs
            .iter()
            .zip(xs.iter_mut())
            .enumerate()
            .map(|(j, (b, x))| match j % 2 {
                0 => Job::<NoBody>::solve_keyed(&keyed, b, x),
                _ => Job::solve(&f, b, x),
            })
            .collect();
        let out = rt.submit_batch(jobs);
        assert_eq!(out.groups, 1, "keyed and unkeyed jobs share one group");
        assert_eq!(out.cold_groups, 0);
        for (j, r) in out.jobs.into_iter().enumerate() {
            let r = r.unwrap();
            assert_eq!(r.pattern(), key, "batch job {j}, {policy:?}");
            assert!(r.cached());
            assert_eq!(xs[j], oracle_solve(&f, &bs[j]), "batch job {j}, {policy:?}");
        }
        assert_eq!(rt.stats().solves.builds, 1, "{policy:?}");
    }
}

#[test]
fn refactorized_handle_hits_the_same_plan() {
    let f = factors();
    let g = refactorized(&f);
    let n = f.n();
    let (kf, kg) = (KeyedFactors::new(f.clone()), KeyedFactors::new(g.clone()));
    assert_eq!(kf.key(), kg.key(), "values do not key the cache");
    let rt = Runtime::new(cfg(None));
    let b = rhs(n, 3);

    let mut x = vec![0.0; n];
    let s = solved(rt.submit(Job::<NoBody>::solve_keyed(&kf, &b, &mut x)));
    assert!(!s.cached);
    assert_eq!(x, oracle_solve(&f, &b));

    let mut y = vec![0.0; n];
    let s = solved(rt.submit(Job::<NoBody>::solve_keyed(&kg, &b, &mut y)));
    assert_eq!((s.pattern, s.cached), (kf.key(), true));
    assert_eq!(y, oracle_solve(&g, &b));
    assert_ne!(x, y, "the new values were applied");

    // Both handles in one batch: one group, each job on its own values.
    let (mut x2, mut y2) = (vec![0.0; n], vec![0.0; n]);
    let out = rt.submit_batch::<NoBody>(vec![
        Job::solve_keyed(&kf, &b, &mut x2),
        Job::solve_keyed(&kg, &b, &mut y2),
    ]);
    assert_eq!((out.ok_count(), out.groups), (2, 1));
    assert_eq!((x2, y2), (x, y));
    assert_eq!(rt.stats().solves.builds, 1);
}

#[test]
fn zero_pivot_handle_trips_the_patterns_breaker() {
    let f = factors();
    let bad = zero_pivot(&f);
    let n = f.n();
    let (good_keyed, bad_keyed) = (KeyedFactors::new(f.clone()), KeyedFactors::new(bad.clone()));
    assert_eq!(good_keyed.key(), bad_keyed.key());
    let b = rhs(n, 5);
    let breaker_cfg = RuntimeConfig {
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_secs(60),
        ..cfg(None)
    };
    let mut x = vec![0.0; n];

    // Keyed failures open the circuit the unkeyed door then meets...
    let rt = Runtime::new(breaker_cfg.clone());
    for _ in 0..2 {
        let e = rt
            .submit(Job::<NoBody>::solve_keyed(&bad_keyed, &b, &mut x))
            .unwrap_err();
        assert!(e.to_string().contains("zero pivot in row 2"), "{e}");
    }
    let e = rt.submit(Job::<NoBody>::solve(&f, &b, &mut x)).unwrap_err();
    assert_eq!(e, RuntimeError::CircuitOpen);
    let e = rt
        .submit(Job::<NoBody>::solve_keyed(&good_keyed, &b, &mut x))
        .unwrap_err();
    assert_eq!(e, RuntimeError::CircuitOpen);

    // ...and unkeyed failures open the one a keyed handle meets.
    let rt = Runtime::new(breaker_cfg);
    for _ in 0..2 {
        let e = rt
            .submit(Job::<NoBody>::solve(&bad, &b, &mut x))
            .unwrap_err();
        assert!(e.to_string().contains("zero pivot in row 2"), "{e}");
    }
    let out = rt.submit_batch::<NoBody>(vec![Job::solve_keyed(&good_keyed, &b, &mut x)]);
    assert_eq!(
        out.jobs[0].as_ref().unwrap_err(),
        &RuntimeError::CircuitOpen
    );
    assert_eq!(rt.stats().circuit_open, 1);
}
