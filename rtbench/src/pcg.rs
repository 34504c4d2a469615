//! `pcg-3d`: preconditioned CG on the 3D 7-point Laplacian (48³, n =
//! 110,592) with `Runtime::preconditioner` ILU(0), one caller thread,
//! closed loop. One pattern: after set-up every application is a cache
//! hit, and no server or store is involved.

use crate::inputs::SolveSet;
use crate::util::{
    fast_quartile, median, ns, quantile, reference_runtime, share, timed, Metrics, Tally,
};
use rtpl::executor::WorkerPool;
use rtpl::krylov::{cg, KrylovConfig, Precondition};
use rtpl::runtime::{Job, JobOutcome, NoBody, Runtime, RuntimeConfig};
use rtpl::sparse::gen::laplacian_7pt;
use rtpl::sparse::ilu::IluFactors;
use rtpl::sparse::rng::SmallRng;
use rtpl::sparse::{ilu0, Csr};
use std::sync::Mutex;
use std::time::Instant;

/// Grid side: 48³ unknowns.
const SIDE: usize = 48;

/// Times every application of the wrapped preconditioner.
struct Timed<M> {
    inner: M,
    samples: Mutex<Vec<f64>>,
}

impl<M: Precondition> Precondition for Timed<M> {
    fn apply(&self, pool: &WorkerPool, r: &[f64], z: &mut [f64], work: &mut [f64]) {
        let (_, d) = timed(|| self.inner.apply(pool, r, z, work));
        self.samples.lock().expect("sample lock").push(ns(d));
    }
}

/// The traced preconditioner: the same `Runtime::submit` solve job
/// `CachedIlu` makes, keeping each job's outcome for the executor layer.
struct Traced<'a> {
    rt: &'a Runtime,
    f: &'a IluFactors,
    obs: Mutex<crate::layers::ExecObs>,
    fp_ns: f64,
}

impl Precondition for Traced<'_> {
    fn apply(&self, _pool: &WorkerPool, r: &[f64], z: &mut [f64], _work: &mut [f64]) {
        let (out, d) = timed(|| self.rt.submit(Job::<NoBody>::solve(self.f, r, z)));
        match out {
            Ok(JobOutcome::Solve(s)) => {
                self.obs
                    .lock()
                    .expect("obs lock")
                    .record(self.f, self.fp_ns, ns(d), &s.reports);
            }
            // PANIC: `Precondition::apply` has no error channel, exactly
            // like the runtime's own `CachedIlu`.
            _ => panic!("preconditioner application failed"),
        }
    }
}

/// One checked PCG solve.
struct SolveRun {
    wall_ns: f64,
    applies_ns: Vec<f64>,
}

struct Problem {
    a: Csr,
    b: Vec<f64>,
    x_ref: Vec<f64>,
    iters_ref: usize,
    pool: WorkerPool,
    cfg: KrylovConfig,
}

impl Problem {
    fn check(&self, x: &[f64], st: &rtpl::krylov::SolveStats, tally: &mut Tally) {
        if !st.converged || st.iterations != self.iters_ref {
            tally.fail();
        } else {
            tally.check(x, &self.x_ref);
        }
    }

    fn solve<M: Precondition>(&self, m: &Timed<M>, tally: &mut Tally) -> SolveRun {
        m.samples.lock().expect("sample lock").clear();
        let mut x = vec![0.0; self.b.len()];
        let (st, d) = timed(|| cg(&self.pool, &self.a, &self.b, &mut x, m, &self.cfg));
        match st {
            Ok(st) => self.check(&x, &st, tally),
            Err(_) => tally.fail(),
        }
        SolveRun {
            wall_ns: ns(d),
            applies_ns: std::mem::take(&mut *m.samples.lock().expect("sample lock")),
        }
    }
}

fn runs_for<M: Precondition>(
    p: &Problem,
    m: &Timed<M>,
    seconds: f64,
    tally: &mut Tally,
    mut setups: Option<&mut crate::Setups<'_>>,
) -> Result<Vec<SolveRun>, String> {
    let t0 = Instant::now();
    let mut runs = Vec::new();
    while runs.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        if let Some(s) = setups.as_mut() {
            s.tick(t0.elapsed().as_secs_f64(), tally)?;
        }
        runs.push(p.solve(m, tally));
    }
    Ok(runs)
}

pub fn run(args: &crate::util::Args) -> Result<crate::Outcome, String> {
    let a = laplacian_7pt(SIDE, SIDE, SIDE);
    let f = ilu0(&a).map_err(|e| format!("ilu0: {e}"))?;
    // A seeded multiple of the ones vector: the relative tolerance makes
    // CG's iteration count scale-invariant, so every seed needs the same
    // number of iterations and `pcg_s` compares across seeds.
    let scale = 0.5 + SmallRng::seed_from_u64(args.seed).gen_f64();
    let b = vec![scale; a.nrows()];
    let pool = WorkerPool::new(crate::util::nproc());
    let cfg = KrylovConfig {
        tol: 1e-8,
        ..KrylovConfig::default()
    };
    // The reference run: same solver pool (fixed reduction order), the
    // preconditioner forced Sequential.
    let reference = reference_runtime();
    let mut x_ref = vec![0.0; b.len()];
    let st = cg(
        &pool,
        &a,
        &b,
        &mut x_ref,
        &reference.preconditioner(&f),
        &cfg,
    )
    .map_err(|e| format!("reference cg: {e}"))?;
    if !st.converged {
        return Err("reference PCG did not converge".into());
    }
    drop(reference);
    let set = SolveSet::new(vec![f], args.seed)?;
    let f = &*set.factors[0];
    let p = Problem {
        a,
        b,
        x_ref,
        iters_ref: st.iterations,
        pool,
        cfg,
    };
    let mut tally = Tally::default();

    // Set-up: a fresh runtime (calibration included) until its first
    // preconditioner application (the cold build of the pattern) returns.
    let setup_once = |tally: &mut Tally| -> (Runtime, f64) {
        let t0 = Instant::now();
        let fresh = Runtime::new(RuntimeConfig::default());
        let mut z = vec![0.0; f.n()];
        match fresh.submit(Job::<NoBody>::solve(f, &set.rhs[0], &mut z)) {
            Ok(_) => tally.check(&z, &set.refs[0]),
            Err(_) => tally.fail(),
        }
        (fresh, t0.elapsed().as_secs_f64())
    };
    // The first set-up's runtime is the one measured; the others are
    // spread over the measured time and dropped.
    let (rt, first) = setup_once(&mut tally);

    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut setups = crate::Setups::new(budget, Box::new(move |t| Ok(setup_once(t).1)));
    setups.record(first);
    let timed_pre = Timed {
        inner: rt.preconditioner(f),
        samples: Mutex::new(Vec::new()),
    };
    let runs = runs_for(&p, &timed_pre, budget, &mut tally, Some(&mut setups))?;
    let applies: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.applies_ns.iter().copied())
        .collect();
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_ns).collect();

    // Each solve is one window of the fast-quartile statistic.
    let per = |f: &dyn Fn(&SolveRun) -> f64| runs.iter().map(f).collect::<Vec<f64>>();
    let mut e2e = Metrics::default();
    e2e.set("setup_s", setups.median(&mut tally)?, "s");
    e2e.set(
        "a_p50_us",
        fast_quartile(&per(&|r| median(&r.applies_ns)), true) / 1e3,
        "us",
    );
    e2e.set("b_p50_us", fast_quartile(&walls, true) / 1e3, "us");
    e2e.set(
        "p90_us",
        fast_quartile(&per(&|r| quantile(&r.applies_ns, 0.9)), true) / 1e3,
        "us",
    );
    e2e.set(
        "rate_per_s",
        fast_quartile(
            &per(&|r| share(r.applies_ns.len() as f64, r.wall_ns / 1e9)),
            false,
        ),
        "1/s",
    );
    println!(
        "# pcg-3d n={} nnz(L+U)={} iters={} solves={} applies={} pcg_s={} apply_p50_us={}",
        f.n(),
        f.nnz(),
        p.iters_ref,
        runs.len(),
        applies.len(),
        median(&walls) / 1e9,
        median(&applies) / 1e3
    );

    let mut layers = Metrics::default();
    if args.trace {
        let traced = Traced {
            rt: &rt,
            f,
            obs: Mutex::new(Default::default()),
            fp_ns: crate::layers::fingerprint_ns(f),
        };
        let wrapped = Timed {
            inner: &traced,
            samples: Mutex::new(Vec::new()),
        };
        let truns = runs_for(&p, &wrapped, budget, &mut tally, None)?;
        let t_applies: Vec<f64> = truns
            .iter()
            .flat_map(|r| r.applies_ns.iter().copied())
            .collect();
        crate::trace_common(
            &mut layers,
            &rt,
            &set,
            &mut tally,
            crate::Common {
                stage_reps: 2,
                ..crate::Common::default()
            },
        )?;
        traced.obs.lock().expect("obs lock").write(&mut layers);
        layers.set(
            "trace.overhead_share",
            share(median(&t_applies) - median(&applies), median(&applies)),
            "ratio",
        );
        let applied: f64 = truns.iter().flat_map(|r| r.applies_ns.iter()).sum();
        let wall: f64 = truns.iter().map(|r| r.wall_ns).sum();
        let vector: Vec<f64> = truns
            .iter()
            .map(|r| r.wall_ns - r.applies_ns.iter().sum::<f64>())
            .collect();
        layers.set("krylov.iters", p.iters_ref as f64, "count");
        layers.set("krylov.apply_share", share(applied, wall), "ratio");
        layers.set("krylov.vector_ms", median(&vector) / 1e6, "ms");
    }
    Ok(crate::Outcome {
        e2e,
        layers,
        tally,
        plan: crate::layers::plan_stamp(&rt),
        working_set_bytes: set.working_set_bytes() + (12 * p.a.nnz()) as u64,
    })
}
