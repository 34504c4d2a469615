//! `doconsider-mix`: a Zipf stream of three job kinds through the library
//! front door — triangular solves, generic `LoopBody` loops
//! (`Job::looped`, run by the generic executors through `PlannedLoop`)
//! and compiled linear recurrences (`Job::linear`) — over separate
//! pattern sets of n ≈ 1–4k. The stream alternates between 64-job
//! `submit_batch` calls and 64 single `submit` calls.

use crate::inputs::{factors_of, SolveSet};
use crate::layers::{ExecObs, LoopCase, Relax};
use crate::util::{fast_quartile, median, ns, quantile, share, timed, windows, Metrics, Tally};
use rtpl::runtime::{Job, JobOutcome, Runtime, RuntimeConfig};
use rtpl::sparse::rng::SmallRng;
use rtpl::workload::{SyntheticSpec, ZipfMix};
use rtpl::DoConsider;
use std::time::Instant;

/// Patterns per job kind.
const PATTERNS: usize = 8;
/// Jobs per block; blocks alternate between one batch and singles.
const BLOCK: usize = 64;
const ZIPF: f64 = 1.1;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Solve,
    Loop,
    Linear,
}

/// Pattern `k` of a kind: mesh side 32..=64 (n = 1024..4096). The
/// structures are fixed; the seed draws the values, right-hand sides and
/// the job stream. (Which plan a structure gets, and so what a job costs,
/// depends on the structure; fixing it keeps runs of different seeds
/// comparable.)
fn pattern(kind: usize, k: usize) -> rtpl::sparse::Csr {
    SyntheticSpec {
        mesh: 32 + (k * 32) / (PATTERNS - 1),
        mean_degree: 3.0,
        mean_distance: 2.0,
    }
    .generate((kind * 1000 + k) as u64)
}

struct Inputs {
    solves: SolveSet,
    loops: Vec<LoopCase>,
    linears: Vec<LoopCase>,
}

impl Inputs {
    fn new(seed: u64) -> Result<Inputs, String> {
        let solves = SolveSet::new(
            (0..PATTERNS).map(|k| factors_of(&pattern(0, k))).collect(),
            seed,
        )?;
        let cases = |kind: usize| -> Result<Vec<LoopCase>, String> {
            (0..PATTERNS)
                .map(|k| {
                    let l = pattern(kind, k).strict_lower();
                    let spec = DoConsider::from_lower_triangular(&l)
                        .map_err(|e| e.to_string())?
                        .into_spec();
                    LoopCase::new(spec, seed ^ (kind * 100 + k) as u64)
                })
                .collect()
        };
        Ok(Inputs {
            solves,
            loops: cases(1)?,
            linears: cases(2)?,
        })
    }

    fn n(&self, kind: Kind, rank: usize) -> usize {
        match kind {
            Kind::Solve => self.solves.factors[rank].n(),
            Kind::Loop => self.loops[rank].xold.len(),
            Kind::Linear => self.linears[rank].xold.len(),
        }
    }

    fn reference(&self, kind: Kind, rank: usize) -> &[f64] {
        match kind {
            Kind::Solve => &self.solves.refs[rank],
            Kind::Loop => &self.loops[rank].ref_loop,
            Kind::Linear => &self.linears[rank].ref_linear,
        }
    }

    fn working_set_bytes(&self) -> u64 {
        let loops: u64 = self
            .loops
            .iter()
            .chain(&self.linears)
            .map(|c| (12 * c.coef.len() + 32 * c.xold.len()) as u64)
            .sum();
        self.solves.working_set_bytes() + loops
    }
}

fn job<'a>(
    inp: &'a Inputs,
    bodies: &'a [Relax<'a>],
    kind: Kind,
    rank: usize,
    out: &'a mut [f64],
) -> Job<'a, Relax<'a>> {
    match kind {
        Kind::Solve => Job::solve(&inp.solves.factors[rank], &inp.solves.rhs[rank], out),
        Kind::Loop => Job::looped(&inp.loops[rank].spec, &bodies[rank], out),
        Kind::Linear => {
            let c = &inp.linears[rank];
            Job::linear(&c.spec, &c.coef, &c.xold, out)
        }
    }
}

/// Seeded stream: kind uniform over the three, pattern Zipf-ranked.
fn stream(len: usize, seed: u64) -> Vec<(Kind, usize)> {
    let mix = ZipfMix::new(PATTERNS, ZIPF);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xd0c0);
    (0..len)
        .map(|_| {
            let kind = match rng.gen_range_usize(0, 3) {
                0 => Kind::Solve,
                1 => Kind::Loop,
                _ => Kind::Linear,
            };
            (kind, mix.sample(&mut rng))
        })
        .collect()
}

/// Window width of the fast-quartile statistic, seconds.
const WINDOW_S: f64 = 0.5;

#[derive(Default)]
struct Observed {
    /// `(t, latency ns)` of single submits and `(t, wall ns)` of batch
    /// calls, `t` in seconds since the measurement began.
    single_at: Vec<(f64, f64)>,
    batch_at: Vec<(f64, f64)>,
    single_ns: Vec<f64>,
    single_wall_ns: f64,
    single_jobs: u64,
    batch_wall_ns: f64,
    batch_jobs: u64,
    groups: Vec<f64>,
    cold_groups: Vec<f64>,
    loop_ns: Vec<f64>,
    linear_ns: Vec<f64>,
    exec: ExecObs,
}

/// Runs the alternating stream for `seconds` (at least one block pair),
/// running the set-ups that fall due between blocks.
#[allow(clippy::too_many_arguments)]
fn measure(
    rt: &Runtime,
    inp: &Inputs,
    bodies: &[Relax<'_>],
    s: &[(Kind, usize)],
    seconds: f64,
    fp_ns: &[f64],
    tally: &mut Tally,
    mut setups: Option<&mut crate::Setups<'_>>,
) -> Result<Observed, String> {
    let mut o = Observed::default();
    let t0 = Instant::now();
    let mut at = 0;
    while o.single_jobs == 0 || t0.elapsed().as_secs_f64() < seconds {
        if let Some(s) = setups.as_mut() {
            s.tick(t0.elapsed().as_secs_f64(), tally)?;
        }
        let block: Vec<(Kind, usize)> = (0..BLOCK).map(|i| s[(at + i) % s.len()]).collect();
        at += BLOCK;
        let mut outs: Vec<Vec<f64>> = block.iter().map(|&(k, r)| vec![0.0; inp.n(k, r)]).collect();
        if (at / BLOCK) % 2 == 1 {
            let jobs: Vec<_> = block
                .iter()
                .zip(outs.iter_mut())
                .map(|(&(k, r), out)| job(inp, bodies, k, r, out))
                .collect();
            let b = rt.submit_batch(jobs);
            o.batch_at.push((t0.elapsed().as_secs_f64(), ns(b.wall)));
            o.batch_wall_ns += ns(b.wall);
            o.batch_jobs += BLOCK as u64;
            o.groups.push(share(BLOCK as f64, b.groups as f64));
            o.cold_groups.push(b.cold_groups as f64);
            for ((&(k, r), out), res) in block.iter().zip(&outs).zip(&b.jobs) {
                match res {
                    Ok(_) => tally.check(out, inp.reference(k, r)),
                    Err(_) => tally.fail(),
                }
            }
        } else {
            for (&(k, r), out) in block.iter().zip(outs.iter_mut()) {
                let (res, d) = timed(|| rt.submit(job(inp, bodies, k, r, out)));
                o.single_ns.push(ns(d));
                o.single_at.push((t0.elapsed().as_secs_f64(), ns(d)));
                o.single_wall_ns += ns(d);
                o.single_jobs += 1;
                match res {
                    Ok(outcome) => {
                        tally.check(out, inp.reference(k, r));
                        match (k, outcome) {
                            (Kind::Solve, JobOutcome::Solve(sv)) => {
                                o.exec
                                    .record(&inp.solves.factors[r], fp_ns[r], ns(d), &sv.reports)
                            }
                            (Kind::Loop, JobOutcome::Loop(run)) => {
                                o.loop_ns.push(ns(run.report.wall))
                            }
                            (Kind::Linear, JobOutcome::Loop(run)) => {
                                o.linear_ns.push(ns(run.report.wall))
                            }
                            _ => {}
                        }
                    }
                    Err(_) => tally.fail(),
                }
            }
        }
    }
    Ok(o)
}

pub fn run(args: &crate::util::Args) -> Result<crate::Outcome, String> {
    let inp = Inputs::new(args.seed)?;
    let bodies: Vec<Relax> = inp.loops.iter().map(|c| c.body()).collect();
    let s = stream(64 * BLOCK, args.seed);
    let mut tally = Tally::default();

    // Set-up: a fresh runtime until one job of every (kind, pattern) has
    // answered — all 24 plans cold-built and resident.
    let setup_once = |tally: &mut Tally| -> (Runtime, f64) {
        let t0 = Instant::now();
        let fresh = Runtime::new(RuntimeConfig::default());
        for kind in [Kind::Solve, Kind::Loop, Kind::Linear] {
            for rank in 0..PATTERNS {
                let mut out = vec![0.0; inp.n(kind, rank)];
                match fresh.submit(job(&inp, &bodies, kind, rank, &mut out)) {
                    Ok(_) => tally.check(&out, inp.reference(kind, rank)),
                    Err(_) => tally.fail(),
                }
            }
        }
        (fresh, t0.elapsed().as_secs_f64())
    };
    // The first set-up's runtime is the one measured; the others are
    // spread over the measured time and dropped.
    let (rt, first) = setup_once(&mut tally);
    let fp: Vec<f64> = inp
        .solves
        .factors
        .iter()
        .map(|f| crate::layers::fingerprint_ns(f))
        .collect();

    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut setups = crate::Setups::new(budget, Box::new(move |t| Ok(setup_once(t).1)));
    setups.record(first);
    let o = measure(
        &rt,
        &inp,
        &bodies,
        &s,
        budget,
        &fp,
        &mut tally,
        Some(&mut setups),
    )?;
    let per_job = |w: &[f64]| median(w) / BLOCK as f64;
    let rate = |w: &[f64]| share((w.len() * BLOCK) as f64, w.iter().sum::<f64>() / 1e9);
    let mut e2e = Metrics::default();
    e2e.set("setup_s", setups.median(&mut tally)?, "s");
    e2e.set(
        "a_p50_us",
        fast_quartile(&windows(&o.single_at, WINDOW_S, 64, median), true) / 1e3,
        "us",
    );
    e2e.set(
        "b_p50_us",
        fast_quartile(&windows(&o.batch_at, WINDOW_S, 4, per_job), true) / 1e3,
        "us",
    );
    e2e.set(
        "p90_us",
        fast_quartile(
            &windows(&o.single_at, WINDOW_S, 64, |w| quantile(w, 0.9)),
            true,
        ) / 1e3,
        "us",
    );
    e2e.set(
        "rate_per_s",
        fast_quartile(&windows(&o.batch_at, WINDOW_S, 4, rate), false),
        "1/s",
    );
    println!(
        "# doconsider-mix batch_jobs_per_s={} single_jobs_per_s={} jobs={}",
        share(o.batch_jobs as f64, o.batch_wall_ns / 1e9),
        share(o.single_jobs as f64, o.single_wall_ns / 1e9),
        o.batch_jobs + o.single_jobs
    );

    let mut layers = Metrics::default();
    if args.trace {
        let t = measure(&rt, &inp, &bodies, &s, budget, &fp, &mut tally, None)?;
        crate::trace_common(
            &mut layers,
            &rt,
            &inp.solves,
            &mut tally,
            crate::Common {
                batch: false,
                loops: false,
                ..crate::Common::default()
            },
        )?;
        t.exec.write(&mut layers);
        layers.set("executor.loop_us", median(&t.loop_ns) / 1e3, "us");
        layers.set("executor.linear_us", median(&t.linear_ns) / 1e3, "us");
        layers.set("batch.jobs_per_group", median(&t.groups), "count");
        layers.set("batch.cold_groups", t.cold_groups.iter().sum(), "count");
        let (u, tr) = (median(&o.single_ns), median(&t.single_ns));
        layers.set("trace.overhead_share", share(tr - u, u), "ratio");
    }
    Ok(crate::Outcome {
        e2e,
        layers,
        tally,
        plan: crate::layers::plan_stamp(&rt),
        working_set_bytes: inp.working_set_bytes(),
    })
}
