//! Per-layer measurements of the traced runs: calls into each module's
//! public functions, timed from outside, on the workload's own inputs,
//! plus what the program already reports (`ExecReport`s, `RuntimeStats`).

use crate::inputs::SolveSet;
use crate::util::{
    bit_exact, median, median_ns, ns, reference_runtime, share, timed, Metrics, Tally,
};
use rtpl::executor::ValueSource;
use rtpl::inspector::DepGraph;
use rtpl::krylov::{CompiledTriSolve, ExecutorKind, TriangularSolvePlan};
use rtpl::runtime::{Job, JobOutcome, LoopSpec, PolicySelector, Runtime, RuntimeStats, ARMS};
use rtpl::sim::calibrate;
use rtpl::sparse::ilu::IluFactors;
use rtpl::{DoConsider, ExecReport, LoopBody};

/// Most patterns a stage probe visits.
const PROBE_PATTERNS: usize = 16;

/// Computed bytes one fused forward + backward sweep moves: 20 per
/// off-diagonal entry (value, operand index, operand), 40 per row (rhs,
/// intermediate, scale, solution). Computed from the layout, not measured.
pub fn sweep_bytes(f: &IluFactors) -> f64 {
    (20 * (f.nnz() - f.n()) + 40 * f.n()) as f64
}

/// Per-solve executor observations.
#[derive(Default)]
pub struct ExecObs {
    pub sweep_ns: Vec<f64>,
    pub ns_per_nnz: Vec<f64>,
    pub gbs: Vec<f64>,
    pub barriers: Vec<f64>,
    pub stalls: Vec<f64>,
    pub imbalance: Vec<f64>,
    /// Submit latency minus fingerprint minus executor wall.
    pub front_ns: Vec<f64>,
}

impl ExecObs {
    pub fn record(
        &mut self,
        f: &IluFactors,
        fp_ns: f64,
        latency_ns: f64,
        reports: &(ExecReport, ExecReport),
    ) {
        let (fwd, bwd) = reports;
        let sweep = ns(fwd.wall + bwd.wall);
        self.sweep_ns.push(sweep);
        self.ns_per_nnz.push(sweep / f.nnz() as f64);
        self.gbs.push(sweep_bytes(f) / sweep.max(1.0));
        self.barriers.push((fwd.barriers + bwd.barriers) as f64);
        self.stalls.push((fwd.stalls + bwd.stalls) as f64);
        self.imbalance
            .push(0.5 * (fwd.imbalance() + bwd.imbalance()));
        self.front_ns.push(latency_ns - fp_ns - sweep);
    }

    pub fn write(&self, m: &mut Metrics) {
        m.set("executor.sweep_us", median(&self.sweep_ns) / 1e3, "us");
        m.set("executor.ns_per_nnz", median(&self.ns_per_nnz), "ns");
        m.set("executor.computed_gbs", median(&self.gbs), "GB/s");
        m.set("executor.barriers", median(&self.barriers), "count");
        m.set("executor.stalls", median(&self.stalls), "count");
        m.set("executor.imbalance", median(&self.imbalance), "ratio");
        m.set("runtime.front_door_us", median(&self.front_ns) / 1e3, "us");
    }
}

/// Median L + U fingerprint time of one pattern, ns.
pub fn fingerprint_ns(f: &IluFactors) -> f64 {
    median_ns(5, || (f.l.pattern_fingerprint(), f.u.pattern_fingerprint()))
}

/// Warm `Runtime::submit` solve jobs on every pattern, checked against
/// the reference; records the executor layer and the front door.
pub fn front_door_probe(
    m: &mut Metrics,
    rt: &Runtime,
    set: &SolveSet,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut obs = ExecObs::default();
    let k = set.len().min(PROBE_PATTERNS);
    let reps = (40 / k).max(2);
    for rank in 0..k {
        let f = &*set.factors[rank];
        let fp = fingerprint_ns(f);
        let mut x = vec![0.0; f.n()];
        // One untimed call makes sure the plan is warm.
        rt.submit(Job::<rtpl::runtime::NoBody>::solve(
            f,
            &set.rhs[rank],
            &mut x,
        ))
        .map_err(|e| e.to_string())?;
        for _ in 0..reps {
            let (out, d) = timed(|| {
                rt.submit(Job::<rtpl::runtime::NoBody>::solve(
                    f,
                    &set.rhs[rank],
                    &mut x,
                ))
            });
            match out {
                Ok(JobOutcome::Solve(s)) => {
                    tally.check(&x, &set.refs[rank]);
                    obs.record(f, fp, ns(d), &s.reports);
                }
                _ => tally.fail(),
            }
        }
    }
    obs.write(m);
    Ok(())
}

/// Stage medians of the cold path, ns per pattern.
#[derive(Default, Clone, Copy)]
pub struct Stages {
    pub fingerprint: f64,
    pub inspect: f64,
    pub predict: f64,
    pub compile: f64,
    pub verify: f64,
    pub encode: f64,
    pub decode: f64,
}

/// Times the cold-path stages on up to 16 patterns, `reps` times each,
/// at the runtime's own processor count and coalescing grain.
pub fn stage_probe(
    m: &mut Metrics,
    rt: &Runtime,
    factors: &[&IluFactors],
    reps: usize,
) -> Result<Stages, String> {
    let nprocs = rt.config().nprocs;
    let kind = rt.config().policy.unwrap_or(ExecutorKind::SelfExecuting);
    let sorting = rt.config().sorting;
    let grain = rt.coalesce_grain();
    let selector = PolicySelector::with_host_procs(*rt.cost_model(), Some(crate::util::nproc()));
    let mut v: [Vec<f64>; 9] = Default::default();
    let (mut phases, mut unco, mut kb) = (Vec::new(), Vec::new(), Vec::new());
    for f in factors.iter().take(PROBE_PATTERNS) {
        v[0].push(fingerprint_ns(f));
        for _ in 0..reps.max(1) {
            let (plan, d) =
                timed(|| TriangularSolvePlan::new_with_grain(f, nprocs, kind, sorting, grain));
            let plan = plan.map_err(|e| format!("inspect: {e}"))?;
            v[1].push(ns(d));
            let (pl, pu) = plan.num_phases();
            let (sl, su) = plan.coalesce_stats();
            phases.push((pl + pu) as f64);
            unco.push(
                (sl.map_or(pl, |s| s.phases_before) + su.map_or(pu, |s| s.phases_before)) as f64,
            );
            let (_, d) = timed(|| {
                (
                    selector.predict(plan.plan_l()),
                    selector.predict(plan.plan_u()),
                )
            });
            v[2].push(ns(d));
            let (compiled, d) = timed(|| plan.compile());
            let compiled = compiled.map_err(|e| format!("compile: {e}"))?;
            v[3].push(ns(d));
            let (ok, d) = timed(|| rtpl::verify::verify_tri_solve(&compiled));
            ok.map_err(|e| format!("verify: {e}"))?;
            v[4].push(ns(d));
            let (bytes, d) = timed(|| compiled.encode_artifact());
            v[5].push(ns(d));
            kb.push(bytes.len() as f64 / 1024.0);
            let (back, d) = timed(|| CompiledTriSolve::decode_artifact(&bytes));
            back.map_err(|e| format!("decode: {e}"))?;
            v[6].push(ns(d));
        }
        let (spec, d) =
            timed(|| DoConsider::from_lower_triangular(&f.l).map(DoConsider::into_spec));
        spec.map_err(|e| format!("doconsider: {e}"))?;
        v[7].push(ns(d));
    }
    for _ in 0..3 {
        let (_, d) = timed(|| calibrate::calibrate_host(calibrate::default_tsynch_ns(nprocs)));
        v[8].push(ns(d));
    }
    let st = Stages {
        fingerprint: median(&v[0]),
        inspect: median(&v[1]),
        predict: median(&v[2]),
        compile: median(&v[3]),
        verify: median(&v[4]),
        encode: median(&v[5]),
        decode: median(&v[6]),
    };
    m.set("sparse.fingerprint_us", st.fingerprint / 1e3, "us");
    m.set("inspector.inspect_ms", st.inspect / 1e6, "ms");
    m.set("inspector.phases", median(&phases), "count");
    m.set("inspector.phases_uncoalesced", median(&unco), "count");
    m.set("selector.predict_us", st.predict / 1e3, "us");
    m.set("executor.compile_ms", st.compile / 1e6, "ms");
    m.set("verify.tri_solve_ms", st.verify / 1e6, "ms");
    m.set("store.encode_ms", st.encode / 1e6, "ms");
    m.set("store.decode_ms", st.decode / 1e6, "ms");
    m.set("store.artifact_kb", median(&kb), "kB");
    m.set("core.doconsider_inspect_us", median(&v[7]) / 1e3, "us");
    m.set("sim.calibrate_ms", median(&v[8]) / 1e6, "ms");
    println!(
        "# plan phases (L+U at the runtime's grain and nprocs, median over patterns): coalesced={} uncoalesced={}",
        median(&phases),
        median(&unco)
    );
    Ok(st)
}

/// The paper's index-array loop over a dependence graph:
/// `x(i) = xold(i) + Σ_k c_k · x(dep_k(i))`, dependences read only through
/// the executor's value source.
pub struct Relax<'a> {
    pub graph: &'a DepGraph,
    pub start: Vec<usize>,
    pub coef: &'a [f64],
    pub xold: &'a [f64],
}

impl<'a> Relax<'a> {
    pub fn new(graph: &'a DepGraph, coef: &'a [f64], xold: &'a [f64]) -> Self {
        let mut start = Vec::with_capacity(graph.n() + 1);
        let mut acc = 0;
        for i in 0..graph.n() {
            start.push(acc);
            acc += graph.deps(i).len();
        }
        start.push(acc);
        Relax {
            graph,
            start,
            coef,
            xold,
        }
    }
}

impl LoopBody for Relax<'_> {
    fn eval<S: ValueSource>(&self, i: usize, src: &S) -> f64 {
        let mut acc = self.xold[i];
        for (k, &j) in self.graph.deps(i).iter().enumerate() {
            acc += self.coef[self.start[i] + k] * src.get(j as usize);
        }
        acc
    }
}

/// Per-edge coefficients of a graph: `0.9 / deg(i)` scaled by a seeded
/// factor in `[0.5, 1)`, so every recurrence stays bounded.
pub fn edge_coefs(g: &DepGraph, seed: u64) -> Vec<f64> {
    let mut rng = rtpl::sparse::rng::SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(g.num_edges());
    for i in 0..g.n() {
        let d = g.deps(i).len().max(1) as f64;
        for _ in g.deps(i) {
            out.push(0.9 / d * (0.5 + 0.5 * rng.gen_f64()));
        }
    }
    out
}

/// One loop pattern with its inputs and reference answers.
pub struct LoopCase {
    pub spec: LoopSpec,
    pub coef: Vec<f64>,
    pub xold: Vec<f64>,
    pub ref_loop: Vec<f64>,
    pub ref_linear: Vec<f64>,
}

impl LoopCase {
    pub fn new(spec: LoopSpec, seed: u64) -> Result<LoopCase, String> {
        let n = spec.graph().n();
        let coef = edge_coefs(spec.graph(), seed);
        let mut rng = rtpl::sparse::rng::SmallRng::seed_from_u64(seed ^ 0xa11);
        let xold = crate::inputs::seeded_vec(&mut rng, n);
        let reference = reference_runtime();
        let mut ref_loop = vec![0.0; n];
        reference
            .run_spec(
                &spec,
                &Relax::new(spec.graph(), &coef, &xold),
                &mut ref_loop,
            )
            .map_err(|e| format!("reference loop: {e}"))?;
        let mut ref_linear = vec![0.0; n];
        reference
            .run_linear(&spec, &coef, &xold, &mut ref_linear)
            .map_err(|e| format!("reference linear loop: {e}"))?;
        Ok(LoopCase {
            spec,
            coef,
            xold,
            ref_loop,
            ref_linear,
        })
    }

    pub fn body(&self) -> Relax<'_> {
        Relax::new(self.spec.graph(), &self.coef, &self.xold)
    }
}

/// Times warm generic (`Job::looped`) and compiled (`Job::linear`) loop
/// jobs over the L structure of up to 8 patterns; executor wall per run.
pub fn loop_probe(
    m: &mut Metrics,
    rt: &Runtime,
    factors: &[&IluFactors],
    tally: &mut Tally,
) -> Result<(), String> {
    let (mut looped, mut linear) = (Vec::new(), Vec::new());
    for (k, f) in factors.iter().take(8).enumerate() {
        let spec = DoConsider::from_lower_triangular(&f.l)
            .map_err(|e| e.to_string())?
            .into_spec();
        let case = LoopCase::new(spec, 0x100 + k as u64)?;
        let body = case.body();
        let mut out = vec![0.0; case.xold.len()];
        for rep in 0..6 {
            match rt.submit(Job::looped(&case.spec, &body, &mut out)) {
                Ok(JobOutcome::Loop(r)) => {
                    tally.check(&out, &case.ref_loop);
                    if rep > 0 {
                        looped.push(ns(r.report.wall));
                    }
                }
                _ => tally.fail(),
            }
            match rt.submit(Job::<Relax>::linear(
                &case.spec, &case.coef, &case.xold, &mut out,
            )) {
                Ok(JobOutcome::Loop(r)) => {
                    tally.check(&out, &case.ref_linear);
                    if rep > 0 {
                        linear.push(ns(r.report.wall));
                    }
                }
                _ => tally.fail(),
            }
        }
    }
    m.set("executor.loop_us", median(&looped) / 1e3, "us");
    m.set("executor.linear_us", median(&linear) / 1e3, "us");
    Ok(())
}

/// One `submit_batch` of two solve jobs per pattern (up to 16 patterns).
pub fn batch_probe(m: &mut Metrics, rt: &Runtime, set: &SolveSet, tally: &mut Tally) {
    let k = set.len().min(PROBE_PATTERNS);
    let mut outs: Vec<Vec<f64>> = (0..2 * k)
        .map(|j| vec![0.0; set.factors[j % k].n()])
        .collect();
    let jobs: Vec<Job<'_>> = outs
        .iter_mut()
        .enumerate()
        .map(|(j, x)| Job::solve(&set.factors[j % k], &set.rhs[j % k], x))
        .collect();
    let b = rt.submit_batch(jobs);
    for (j, r) in b.jobs.iter().enumerate() {
        if r.is_ok() && bit_exact(&outs[j], &set.refs[j % k]) {
            tally.ok();
        } else {
            tally.wrong();
        }
    }
    m.set(
        "batch.jobs_per_group",
        share((2 * k) as f64, b.groups as f64),
        "count",
    );
    m.set("batch.cold_groups", b.cold_groups as f64, "count");
}

/// Selector shares and runtime counters from `RuntimeStats`.
pub fn runtime_counters(m: &mut Metrics, s: &RuntimeStats) {
    let runs: u64 = s.policy_runs.iter().sum();
    for (k, kind) in ARMS.iter().enumerate() {
        let name = format!("selector.share.{}", format!("{kind:?}").to_lowercase());
        m.set(&name, share(s.policy_runs[k] as f64, runs as f64), "ratio");
    }
    let hits = s.solves.hits + s.loops.hits + s.linears.hits;
    let misses = s.solves.misses + s.loops.misses + s.linears.misses;
    m.set(
        "runtime.cache_hit_share",
        share(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    m.set(
        "runtime.scratches_created",
        s.scratches_created as f64,
        "count",
    );
    m.set("runtime.pools_created", s.pools_created as f64, "count");
}

/// Host and cost-model facts. `Tsynch` is a model constant today
/// (`default_tsynch_ns`), so it is stamped rather than recorded; the
/// coalescing grain it yields with the measured `Tp` is recorded.
pub fn host_layers(m: &mut Metrics, rt: &Runtime) {
    m.set("host.nproc", crate::util::nproc() as f64, "count");
    m.set("host.l3_kb", crate::util::l3_bytes() as f64 / 1024.0, "kB");
    m.set("sim.tp_ns", rt.cost_model().tp, "ns");
    m.set("sim.grain_ops", rt.coalesce_grain().unwrap_or(0.0), "ops");
}

/// The cost model in use and the phase counts of the solve plans the
/// runtime actually serves (built or decoded), for the run's stamp line.
pub fn plan_stamp(rt: &Runtime) -> String {
    let c = rt.cost_model();
    let s = rt.stats();
    let plans = s.solves.builds.max(1) as f64;
    format!(
        "tp_ns={} tsynch_ns={} tinc_ns={} tcheck_ns={} grain_ops={} served_solve_plans={} \
         phases_per_plan={} uncoalesced_phases_per_plan={}",
        c.tp,
        c.tsynch,
        c.tinc,
        c.tcheck,
        rt.coalesce_grain().unwrap_or(0.0),
        s.solves.builds,
        s.coalesce_phases_after as f64 / plans,
        s.coalesce_phases_before as f64 / plans
    )
}
