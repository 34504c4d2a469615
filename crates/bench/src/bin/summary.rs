//! **Figure 1** — the 2×2 solution-space summary, recomputed from this
//! reproduction's own numbers — plus the **`rtpl-runtime` service
//! benchmark**, emitted machine-readably to `BENCH_runtime.json` so the
//! perf trajectory (cache amortization, hit rates, chosen policies) is
//! tracked from PR to PR.
//!
//! Figure 1: Local/Global sorting × Pre-scheduled/Self-executing, with the
//! paper's verdicts checked against the simulator on the 65×65 mesh
//! workload. Runtime benchmark: cold inspect+plan+run vs. warm cached
//! solves on the fig-12/13 workloads, and a multi-threaded Zipf replay.

use rtpl::executor::WorkerPool;
use rtpl::inspector::{DepGraph, Partition, Schedule, Wavefronts};
use rtpl::krylov::{CompiledTriSolve, ExecutorKind, Sorting, TriangularSolvePlan};
use rtpl::runtime::{Job, LoopSpec, Runtime, RuntimeConfig};
use rtpl::sim::{self, CostModel};
use rtpl::sparse::gen::laplacian_5pt;
use rtpl::sparse::ilu::IluFactors;
use rtpl::sparse::{ilu0, Csr};
use rtpl::workload::{pattern_set, RequestKind, SyntheticSpec, ZipfMix};
use rtpl::DoConsider;
use std::time::Instant;

fn main() {
    figure1();
    let json = runtime_bench();
    std::fs::write("BENCH_runtime.json", &json).expect("write BENCH_runtime.json");
    println!("\nwrote BENCH_runtime.json");
}

fn figure1() {
    let a = laplacian_5pt(65, 65);
    let l = a.strict_lower();
    let g = DepGraph::from_lower_triangular(&l).unwrap();
    let wf = Wavefronts::compute(&g).unwrap();
    let n = l.nrows();
    let weights: Vec<f64> = (0..n).map(|i| 1.0 + g.deps(i).len() as f64).collect();
    let cost = CostModel::multimax();
    let seq = sim::sim_sequential(n, Some(&weights), &cost);

    // Worst-over-p efficiency characterizes robustness.
    let mut worst = [[f64::INFINITY; 2]; 2]; // [sort][exec]
    let mut best = [[0.0f64; 2]; 2];
    for p in 2..=16usize {
        let scheds = [
            Schedule::local(&wf, &Partition::striped(n, p).unwrap()).unwrap(),
            Schedule::global(&wf, p).unwrap(),
        ];
        for (si, s) in scheds.iter().enumerate() {
            let e_ps = sim::sim_pre_scheduled(s, Some(&weights), &cost).efficiency(seq);
            let e_se = sim::sim_self_executing(s, &g, Some(&weights), &cost).efficiency(seq);
            for (ei, e) in [e_ps, e_se].into_iter().enumerate() {
                worst[si][ei] = worst[si][ei].min(e);
                best[si][ei] = best[si][ei].max(e);
            }
        }
    }

    println!("Figure 1: performance of scheduling and sorting strategies");
    println!("(worst..best efficiency over p = 2..16, 65x65 mesh, Multimax cost model)\n");
    let cell = |s: usize, e: usize| format!("{:.2}..{:.2}", worst[s][e], best[s][e]);
    println!("              |  Pre-Scheduled     |  Self-Executing");
    println!("  ------------+--------------------+-------------------");
    println!("  Sort: Local |  {:<18}|  {:<18}", cell(0, 0), cell(0, 1));
    println!("              |  can degrade       |  recommended: robust,");
    println!("              |  catastrophically  |  low setup overhead");
    println!("  ------------+--------------------+-------------------");
    println!("  Sort: Global|  {:<18}|  {:<18}", cell(1, 0), cell(1, 1));
    println!("              |  robust but limits |  most robust, higher");
    println!("              |  concurrency       |  setup time");

    println!("\nPaper verdicts checked:");
    let v1 = worst[0][0] < 0.5 * worst[0][1];
    println!(
        "  [{}] local+barrier degrades catastrophically vs local+self-exec ({:.2} vs {:.2})",
        ok(v1),
        worst[0][0],
        worst[0][1]
    );
    let v2 = worst[0][1] > 0.8 * worst[1][1];
    println!(
        "  [{}] with self-execution, cheap local sorting ~ matches global sorting ({:.2} vs {:.2})",
        ok(v2),
        worst[0][1],
        worst[1][1]
    );
    let v3 = worst[1][1] >= worst[1][0];
    println!(
        "  [{}] self-execution >= pre-scheduling under global sorting ({:.2} vs {:.2})",
        ok(v3),
        worst[1][1],
        worst[1][0]
    );
}

fn ok(b: bool) -> &'static str {
    if b {
        "ok"
    } else {
        "??"
    }
}

// ---------------------------------------------------------------------------
// rtpl-runtime service benchmark → BENCH_runtime.json
// ---------------------------------------------------------------------------

struct WorkloadResult {
    name: String,
    n: usize,
    cold_ns: u128,
    warm_ns: u128,
    policy: ExecutorKind,
    fwd_phases: usize,
    bwd_phases: usize,
}

/// Factors whose sweeps exercise the cache for a matrix that is already a
/// unit-lower-triangular dependency pattern (the synthetic workloads).
fn factors_from_lower(m: &Csr) -> IluFactors {
    IluFactors {
        l: m.strict_lower(),
        u: m.transpose().upper(),
    }
}

/// Cold inspect+plan+run vs. warm cached solves for one factor structure,
/// all through one runtime (which has already calibrated its cost model).
fn bench_workload(rt: &Runtime, name: &str, factors: &IluFactors) -> WorkloadResult {
    let n = factors.n();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.13).sin()).collect();
    let mut x = vec![0.0; n];

    let t0 = Instant::now();
    let cold = rt.solve(factors, &b, &mut x).expect("cold solve");
    let cold_ns = t0.elapsed().as_nanos();
    assert!(!cold.cached, "{name}: first request must build");

    // Warm: a few adaptation rounds, then the median of timed requests.
    for _ in 0..8 {
        rt.solve(factors, &b, &mut x).expect("warmup solve");
    }
    let mut samples: Vec<u128> = (0..30)
        .map(|_| {
            let t1 = Instant::now();
            let out = rt.solve(factors, &b, &mut x).expect("warm solve");
            assert!(out.cached);
            t1.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    let warm_ns = samples[samples.len() / 2];

    let last = rt.solve(factors, &b, &mut x).expect("final solve");
    let plan_phases = {
        // Phase counts of the plan the runtime serves: the same inspection
        // as its cold path, coalesced at its grain, rebuilt outside the
        // cache (cheap vs. clutter of threading them out of the entry).
        let plan = rtpl::krylov::TriangularSolvePlan::new_with_grain(
            factors,
            rt.config().nprocs,
            rt.config().policy.unwrap_or(ExecutorKind::SelfExecuting),
            rt.config().sorting,
            rt.coalesce_grain(),
        )
        .expect("plan");
        plan.num_phases()
    };
    WorkloadResult {
        name: name.to_string(),
        n,
        cold_ns,
        warm_ns,
        policy: last.policy,
        fwd_phases: plan_phases.0,
        bwd_phases: plan_phases.1,
    }
}

/// One policy's warm performance at one processor count.
struct PolicyResult {
    kind: ExecutorKind,
    warm_ns: u128,
    ns_per_nnz: f64,
}

/// Per-policy warm medians for one workload at one processor count, all
/// through the compiled solve path, each result checked **bit-exact**
/// against the sequential reference (the process aborts on any mismatch —
/// the CI bench-smoke job relies on that).
fn bench_policies(name: &str, factors: &IluFactors, nprocs: usize) -> Vec<PolicyResult> {
    let compiled: CompiledTriSolve = TriangularSolvePlan::new(
        factors,
        nprocs,
        ExecutorKind::SelfExecuting,
        Sorting::Global,
    )
    .expect("plan")
    .compile()
    .expect("compile");
    let n = compiled.n();
    let nnz = factors.l.nnz() + factors.u.nnz();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.13).sin()).collect();
    let pool = WorkerPool::new(nprocs);
    let mut scratch = compiled.scratch();

    let mut reference = vec![0.0; n];
    compiled
        .solve(
            None,
            ExecutorKind::Sequential,
            factors,
            &b,
            &mut reference,
            &mut scratch,
        )
        .expect("reference solve");

    let kinds = [
        ExecutorKind::Sequential,
        ExecutorKind::SelfExecuting,
        ExecutorKind::PreScheduled,
        ExecutorKind::PreScheduledElided,
        ExecutorKind::Doacross,
    ];
    kinds
        .iter()
        .map(|&kind| {
            let mut x = vec![0.0; n];
            // Warm-up, then median of timed solves.
            for _ in 0..3 {
                compiled
                    .solve(Some(&pool), kind, factors, &b, &mut x, &mut scratch)
                    .expect("warmup");
                assert_eq!(
                    x, reference,
                    "BIT-EXACTNESS MISMATCH: {name} {kind:?} nprocs={nprocs}"
                );
            }
            let mut samples: Vec<u128> = (0..15)
                .map(|_| {
                    let t = Instant::now();
                    compiled
                        .solve(Some(&pool), kind, factors, &b, &mut x, &mut scratch)
                        .expect("warm solve");
                    let ns = t.elapsed().as_nanos();
                    assert_eq!(
                        x, reference,
                        "BIT-EXACTNESS MISMATCH: {name} {kind:?} nprocs={nprocs}"
                    );
                    ns
                })
                .collect();
            samples.sort_unstable();
            let warm_ns = samples[samples.len() / 2];
            PolicyResult {
                kind,
                warm_ns,
                ns_per_nnz: warm_ns as f64 / nnz as f64,
            }
        })
        .collect()
}

fn runtime_bench() -> String {
    println!("\n\nrtpl-runtime service benchmark");
    println!("==============================");
    let cfg = RuntimeConfig::default();
    let rt = Runtime::new(cfg.clone()); // calibrates the host cost model once
    let c = *rt.cost_model();
    println!(
        "calibrated cost model: Tp {:.2} ns, Tsynch {:.1} ns, Tinc {:.2} ns, Tcheck {:.2} ns, p = {}",
        c.tp, c.tsynch, c.tinc, c.tcheck, cfg.nprocs
    );

    // The fig-12/13 workloads: the 65×65 five-point mesh (as ILU(0)
    // factors) and the 65-4-3 synthetic dependency matrix.
    let mesh = laplacian_5pt(65, 65);
    let f_mesh = ilu0(&mesh).expect("ilu0");
    let synth = SyntheticSpec {
        mesh: 65,
        mean_degree: 4.0,
        mean_distance: 3.0,
    };
    let f_synth = factors_from_lower(&synth.generate(12));
    let named: [(&str, &IluFactors); 2] =
        [("ilu0-65x65-5pt", &f_mesh), ("synthetic-65-4-3", &f_synth)];
    let workloads = [
        bench_workload(&rt, "ilu0-65x65-5pt", &f_mesh),
        bench_workload(&rt, "synthetic-65-4-3", &f_synth),
    ];
    for w in &workloads {
        println!(
            "{:<18} n {:>5}  cold {:>9} ns  warm {:>9} ns  cold/warm {:>6.1}x  policy {:?}  phases {}/{}",
            w.name,
            w.n,
            w.cold_ns,
            w.warm_ns,
            w.cold_ns as f64 / w.warm_ns as f64,
            w.policy,
            w.fwd_phases,
            w.bwd_phases
        );
    }

    // Compiled-path sweep: per-policy warm wall times at p ∈ {1, 2, 4},
    // so the BENCH trajectory tracks parallel speedup, not one point.
    // Points that oversubscribe the host are still measured but flagged —
    // a "speedup" at p > host cores is time-slicing, not parallelism.
    const SWEEP_PROCS: [usize; 3] = [1, 2, 4];
    let host = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("\ncompiled warm sweep (median ns, bit-exact checked, {host} host cores):");
    let mut sweep = String::new();
    sweep.push_str("  \"sweep\": [\n");
    for (pi, &np) in SWEEP_PROCS.iter().enumerate() {
        if np > host {
            println!("  p={np} FLAGGED: exceeds the {host} detected host cores");
        }
        sweep.push_str(&format!(
            "    {{\"nprocs\": {np}, \"host_procs\": {host}, \"exceeds_host\": {}, \"workloads\": [\n",
            np > host
        ));
        for (wi, &(name, factors)) in named.iter().enumerate() {
            let nnz = factors.l.nnz() + factors.u.nnz();
            let results = bench_policies(name, factors, np);
            print!("  p={np} {name:<18} nnz {nnz:>6} ");
            sweep.push_str(&format!(
                "      {{\"name\": \"{name}\", \"nnz\": {nnz}, \"policies\": ["
            ));
            for (ri, r) in results.iter().enumerate() {
                print!(" {:?} {} ns ({:.1}/nnz)", r.kind, r.warm_ns, r.ns_per_nnz);
                sweep.push_str(&format!(
                    "{{\"policy\": \"{:?}\", \"warm_ns\": {}, \"ns_per_nnz\": {:.3}}}{}",
                    r.kind,
                    r.warm_ns,
                    r.ns_per_nnz,
                    if ri + 1 < results.len() { ", " } else { "" }
                ));
            }
            println!();
            sweep.push_str(&format!(
                "]}}{}\n",
                if wi + 1 < named.len() { "," } else { "" }
            ));
        }
        sweep.push_str(&format!(
            "    ]}}{}\n",
            if pi + 1 < SWEEP_PROCS.len() { "," } else { "" }
        ));
    }
    sweep.push_str("  ],\n");

    // Multi-threaded Zipf replay through a fresh runtime: steady-state
    // cache behavior under concurrent clients. Since PR 3 same-pattern
    // requests no longer serialize — wall time and aggregate throughput
    // are recorded so the trajectory tracks it.
    const PATTERNS: usize = 16;
    const THREADS: usize = 4;
    const PER_THREAD: usize = 64;
    let rt2 = Runtime::with_cost_model(RuntimeConfig::default(), c);
    let mix = ZipfMix::new(PATTERNS, 1.1);
    let sets: Vec<IluFactors> = pattern_set(PATTERNS, 20, 9)
        .iter()
        .map(factors_from_lower)
        .collect();
    let nz = sets[0].n();
    let t_replay = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let rt2 = &rt2;
            let sets = &sets;
            let mix = &mix;
            scope.spawn(move || {
                let mut x = vec![0.0; nz];
                let b = vec![1.0; nz];
                for id in mix.stream_covering(PER_THREAD, t as u64) {
                    rt2.solve(&sets[id], &b, &mut x).expect("zipf solve");
                }
            });
        }
    });
    let replay_ns = t_replay.elapsed().as_nanos();
    let requests = (THREADS * PER_THREAD) as f64;
    let rps = requests / (replay_ns as f64 / 1e9);
    let zs = rt2.stats();
    println!(
        "zipf replay: {} threads x {} requests over {} patterns  wall {:.1} ms  {:.0} req/s  hit rate {:.3}  builds {}  evictions {}  peak same-pattern {}  dominant policy {:?}",
        THREADS,
        PER_THREAD,
        PATTERNS,
        replay_ns as f64 / 1e6,
        rps,
        zs.solves.hit_rate(),
        zs.solves.builds,
        zs.solves.evictions,
        zs.peak_same_pattern,
        zs.dominant_policy()
    );

    let coalesce = coalesce_bench(&rt, &named);
    let batch = batch_bench(c);

    // Hand-rolled JSON (no external dependencies in this workspace). The
    // pre-PR-3 keys are all retained; "sweep", the zipf wall/throughput
    // / concurrency fields, "coalesce", and "batch" are additive.
    let mut j = String::from("{\n");
    j.push_str("  \"bench\": \"runtime\",\n");
    j.push_str(&format!(
        "  \"cost_model\": {{\"tp_ns\": {:.4}, \"tsynch_ns\": {:.4}, \"tinc_ns\": {:.4}, \"tcheck_ns\": {:.4}}},\n",
        c.tp, c.tsynch, c.tinc, c.tcheck
    ));
    j.push_str(&format!(
        "  \"nprocs\": {}, \"host_procs\": {host}, \"exceeds_host\": {},\n",
        cfg.nprocs,
        cfg.nprocs > host
    ));
    j.push_str("  \"workloads\": [\n");
    for (i, w) in workloads.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"cold_solve_ns\": {}, \"warm_solve_ns\": {}, \"cold_over_warm\": {:.2}, \"policy\": \"{:?}\", \"fwd_phases\": {}, \"bwd_phases\": {}}}{}\n",
            w.name,
            w.n,
            w.cold_ns,
            w.warm_ns,
            w.cold_ns as f64 / w.warm_ns as f64,
            w.policy,
            w.fwd_phases,
            w.bwd_phases,
            if i + 1 < workloads.len() { "," } else { "" }
        ));
    }
    j.push_str("  ],\n");
    j.push_str(&sweep);
    j.push_str(&coalesce);
    j.push_str(&batch);
    j.push_str(&format!(
        "  \"zipf_replay\": {{\"threads\": {}, \"patterns\": {}, \"requests\": {}, \"wall_ns\": {}, \"requests_per_sec\": {:.1}, \"hit_rate\": {:.4}, \"builds\": {}, \"evictions\": {}, \"peak_same_pattern\": {}, \"scratches_created\": {}, \"dominant_policy\": \"{:?}\", \"pools_created\": {}}}\n",
        THREADS,
        PATTERNS,
        THREADS * PER_THREAD,
        replay_ns,
        rps,
        zs.solves.hit_rate(),
        zs.solves.builds,
        zs.solves.evictions,
        zs.peak_same_pattern,
        zs.scratches_created,
        zs.dominant_policy(),
        zs.pools_created
    ));
    j.push('}');
    j.push('\n');
    j
}

/// The wavefront-coalescing section of BENCH_runtime.json: per-sweep
/// phase counts before/after the merge pass, supernode-layout coverage,
/// and the warm **sequential** path timed on the coalesced and the
/// uncoalesced plan in the same run (same host, same binary — no
/// stored-baseline flakiness). Both answers are checked bit-exact against
/// each other, and the process aborts if the coalesced path regresses
/// more than 10% — the CI bench-smoke job relies on both aborts.
fn coalesce_bench(rt: &Runtime, named: &[(&str, &IluFactors); 2]) -> String {
    let grain = rt
        .coalesce_grain()
        .expect("coalescing is on by default in RuntimeConfig");
    let nprocs = rt.config().nprocs;
    let sorting = rt.config().sorting;
    println!("\nwavefront coalescing (grain {grain:.1} weighted ops, nprocs {nprocs}):");
    let mut j = String::from("  \"coalesce\": {\n");
    j.push_str(&format!(
        "    \"grain\": {grain:.3}, \"nprocs\": {nprocs},\n    \"workloads\": [\n"
    ));
    for (wi, &(name, factors)) in named.iter().enumerate() {
        let nnz = factors.l.nnz() + factors.u.nnz();
        let base = TriangularSolvePlan::new(factors, nprocs, ExecutorKind::Sequential, sorting)
            .expect("plan")
            .compile()
            .expect("compile");
        let coal = TriangularSolvePlan::new_with_grain(
            factors,
            nprocs,
            ExecutorKind::Sequential,
            sorting,
            Some(grain),
        )
        .expect("coalesced plan")
        .compile()
        .expect("compile");
        let (sl, su) = coal.plan().coalesce_stats();
        let (sl, su) = (sl.expect("fwd stats"), su.expect("bwd stats"));
        let n = coal.n();
        let supernodes =
            coal.forward_plan().supernode_positions() + coal.backward_plan().supernode_positions();
        let coverage = 100.0 * supernodes as f64 / (2 * n) as f64;
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.13).sin()).collect();
        let timed = |c: &CompiledTriSolve| -> (u128, Vec<f64>) {
            let mut scratch = c.scratch();
            let mut x = vec![0.0; n];
            for _ in 0..3 {
                c.solve_fused_sequential(factors, &b, &mut x, &mut scratch)
                    .expect("warmup");
            }
            let mut samples: Vec<u128> = (0..15)
                .map(|_| {
                    let t = Instant::now();
                    c.solve_fused_sequential(factors, &b, &mut x, &mut scratch)
                        .expect("warm solve");
                    t.elapsed().as_nanos()
                })
                .collect();
            samples.sort_unstable();
            (samples[samples.len() / 2], x)
        };
        let (base_ns, x_base) = timed(&base);
        let (coal_ns, x_coal) = timed(&coal);
        assert_eq!(
            x_coal, x_base,
            "BIT-EXACTNESS MISMATCH: coalesce bench {name}"
        );
        let ratio = coal_ns as f64 / base_ns as f64;
        println!(
            "  {name:<18} fwd {} -> {}  bwd {} -> {}  supernodes {coverage:.1}%  warm seq {:.3} -> {:.3} ns/nnz  [{}] {ratio:.2}x",
            sl.phases_before,
            sl.phases_after,
            su.phases_before,
            su.phases_after,
            base_ns as f64 / nnz as f64,
            coal_ns as f64 / nnz as f64,
            ok(ratio <= 1.1),
        );
        assert!(
            ratio <= 1.1,
            "COALESCE REGRESSION: {name} coalesced sequential {coal_ns} ns vs uncoalesced {base_ns} ns ({ratio:.2}x > 1.10x)"
        );
        j.push_str(&format!(
            "      {{\"name\": \"{name}\", \"fwd_phases_before\": {}, \"fwd_phases_after\": {}, \
             \"bwd_phases_before\": {}, \"bwd_phases_after\": {}, \
             \"supernode_coverage_pct\": {coverage:.2}, \
             \"warm_seq_ns_per_nnz_uncoalesced\": {:.3}, \"warm_seq_ns_per_nnz_coalesced\": {:.3}, \
             \"coalesced_over_uncoalesced\": {ratio:.4}, \"bit_exact\": true}}{}\n",
            sl.phases_before,
            sl.phases_after,
            su.phases_before,
            su.phases_after,
            base_ns as f64 / nnz as f64,
            coal_ns as f64 / nnz as f64,
            if wi + 1 < named.len() { "," } else { "" }
        ));
    }
    j.push_str("    ]\n  },\n");
    j
}

/// The PR-5 batched-pipeline benchmark: the same Zipf-mixed solve+loop
/// request stream served one-at-a-time (`Runtime::solve` /
/// `Runtime::run_linear` per request) vs. through `Runtime::submit_batch`
/// at nprocs = 2. Every job of every measured repetition is checked
/// **bit-exact** against the forced-sequential reference (the process
/// aborts on any mismatch). Returns the `"batch"` JSON section.
fn batch_bench(c: CostModel) -> String {
    const SOLVE_PATTERNS: usize = 12;
    const LOOP_PATTERNS: usize = 6;
    const REQUESTS: usize = 256;
    const LOOP_SHARE: f64 = 0.25;
    const REPS: usize = 7;

    let cfg = RuntimeConfig {
        nprocs: 2,
        calibrate: false,
        ..RuntimeConfig::default()
    };
    let factors: Vec<IluFactors> = pattern_set(SOLVE_PATTERNS, 20, 31)
        .iter()
        .map(factors_from_lower)
        .collect();
    let lowers: Vec<Csr> = pattern_set(LOOP_PATTERNS, 18, 55)
        .iter()
        .map(|m| m.strict_lower())
        .collect();
    let specs: Vec<LoopSpec> = lowers
        .iter()
        .map(|l| {
            DoConsider::from_lower_triangular(l)
                .expect("inspect")
                .into_spec()
        })
        .collect();
    let ns = factors[0].n();
    let nl = lowers[0].nrows();

    let mix = ZipfMix::new(SOLVE_PATTERNS.max(LOOP_PATTERNS), 1.1);
    let stream: Vec<(RequestKind, usize)> = mix
        .mixed_stream(REQUESTS, LOOP_SHARE, 17)
        .into_iter()
        .map(|r| match r.kind {
            RequestKind::Solve => (r.kind, r.rank % SOLVE_PATTERNS),
            RequestKind::Loop => (r.kind, r.rank % LOOP_PATTERNS),
        })
        .collect();
    let bs: Vec<Vec<f64>> = stream
        .iter()
        .enumerate()
        .map(|(i, &(kind, _))| {
            let n = if kind == RequestKind::Solve { ns } else { nl };
            (0..n)
                .map(|k| 1.0 + ((k * 7 + i) % 89) as f64 * 0.011)
                .collect()
        })
        .collect();

    // Bit-exact per-job references from a forced-sequential runtime.
    let rt_ref = Runtime::with_cost_model(
        RuntimeConfig {
            policy: Some(ExecutorKind::Sequential),
            ..cfg.clone()
        },
        c,
    );
    let expected: Vec<Vec<f64>> = stream
        .iter()
        .enumerate()
        .map(|(i, &(kind, rank))| match kind {
            RequestKind::Solve => {
                let mut x = vec![0.0; ns];
                rt_ref
                    .solve(&factors[rank], &bs[i], &mut x)
                    .expect("ref solve");
                x
            }
            RequestKind::Loop => {
                let mut out = vec![0.0; nl];
                rt_ref
                    .run_linear(&specs[rank], lowers[rank].data(), &bs[i], &mut out)
                    .expect("ref loop");
                out
            }
        })
        .collect();
    let check = |outs: &[Vec<f64>], path: &str| {
        for (i, (out, expect)) in outs.iter().zip(&expected).enumerate() {
            assert_eq!(
                out, expect,
                "BIT-EXACTNESS MISMATCH: batch bench {path} job {i}"
            );
        }
    };

    // One-at-a-time: every request pays lookup, lease, selector, gather.
    let rt_seq = Runtime::with_cost_model(cfg.clone(), c);
    let mut outs: Vec<Vec<f64>> = expected.iter().map(|e| vec![0.0; e.len()]).collect();
    let replay_one_at_a_time = |outs: &mut [Vec<f64>]| {
        for (i, &(kind, rank)) in stream.iter().enumerate() {
            match kind {
                RequestKind::Solve => {
                    rt_seq
                        .solve(&factors[rank], &bs[i], &mut outs[i])
                        .expect("solve");
                }
                RequestKind::Loop => {
                    rt_seq
                        .run_linear(&specs[rank], lowers[rank].data(), &bs[i], &mut outs[i])
                        .expect("loop");
                }
            }
        }
    };
    // Warm the cache and settle the selector, then take the best of REPS.
    for _ in 0..3 {
        replay_one_at_a_time(&mut outs);
    }
    let mut seq_ns = u128::MAX;
    for _ in 0..REPS {
        let t = Instant::now();
        replay_one_at_a_time(&mut outs);
        seq_ns = seq_ns.min(t.elapsed().as_nanos());
        check(&outs, "one-at-a-time");
    }

    // Batched: grouped by fingerprint, leases/selector/gathers amortized.
    let rt_batch = Runtime::with_cost_model(cfg.clone(), c);
    // groups/workers from the steady state; cold groups from the very
    // first submission (later repetitions are fully warm by design).
    let mut outcome_stats = (0usize, 0usize, 0usize);
    let mut batch_ns = u128::MAX;
    for rep in 0..3 + REPS {
        let mut bouts: Vec<Vec<f64>> = expected.iter().map(|e| vec![0.0; e.len()]).collect();
        let jobs: Vec<Job> = stream
            .iter()
            .enumerate()
            .zip(bouts.iter_mut())
            .map(|((i, &(kind, rank)), out)| match kind {
                RequestKind::Solve => Job::solve(&factors[rank], &bs[i], out),
                RequestKind::Loop => Job::linear(&specs[rank], lowers[rank].data(), &bs[i], out),
            })
            .collect();
        let outcome = rt_batch.submit_batch(jobs);
        assert_eq!(outcome.ok_count(), REQUESTS, "batch job failed");
        if rep >= 3 {
            batch_ns = batch_ns.min(outcome.wall.as_nanos());
            check(&bouts, "batched");
        }
        let first_cold = if rep == 0 {
            outcome.cold_groups
        } else {
            outcome_stats.1
        };
        outcome_stats = (outcome.groups, first_cold, outcome.workers);
    }

    let seq_rps = REQUESTS as f64 / (seq_ns as f64 / 1e9);
    let batch_rps = REQUESTS as f64 / (batch_ns as f64 / 1e9);
    let speedup = batch_rps / seq_rps;
    println!(
        "\nbatched pipeline ({REQUESTS} requests, {:.0}% loops, nprocs {}): \
         one-at-a-time {:.0} req/s, submit_batch {:.0} req/s  [{}] {speedup:.2}x \
         ({} groups, {} cold, {} workers, bit-exact checked)",
        LOOP_SHARE * 100.0,
        cfg.nprocs,
        seq_rps,
        batch_rps,
        ok(speedup > 1.0),
        outcome_stats.0,
        outcome_stats.1,
        outcome_stats.2,
    );

    format!(
        "  \"batch\": {{\"requests\": {REQUESTS}, \"loop_share\": {LOOP_SHARE}, \
         \"solve_patterns\": {SOLVE_PATTERNS}, \"loop_patterns\": {LOOP_PATTERNS}, \
         \"nprocs\": {}, \"sequential_rps\": {seq_rps:.1}, \"batched_rps\": {batch_rps:.1}, \
         \"speedup\": {speedup:.3}, \"groups\": {}, \"cold_groups\": {}, \"workers\": {}, \"bit_exact\": true}},\n",
        cfg.nprocs, outcome_stats.0, outcome_stats.1, outcome_stats.2,
    )
}
