//! `cold-restart`: first solves of never-seen patterns with a plan store
//! attached (inspect → coalesce → predict → compile → spill), then a
//! restart on the populated store and the first solve of each pattern
//! again (read → decode → verify). The traced runs of the other workloads
//! run one such cycle on their own patterns.

use crate::inputs::{factors_of, SolveSet};
use crate::layers::Stages;
use crate::util::{fast_quartile, median, ns, quantile, share, timed, Metrics, Tally, TempDir};
use rtpl::runtime::{Job, JobOutcome, NoBody, Runtime, RuntimeConfig};
use rtpl::sparse::{Csr, PatternFingerprint};
use rtpl::store::PlanStore;
use rtpl::workload::SyntheticSpec;
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

/// Distinct patterns of one cycle.
pub const PATTERNS: usize = 128;
/// The paper's synthetic family on the 65×65 mesh (n = 4225).
const SPEC: SyntheticSpec = SyntheticSpec {
    mesh: 65,
    mean_degree: 4.0,
    mean_distance: 3.0,
};

/// `count` structurally distinct 65-4-3 patterns.
fn patterns(count: usize, seed: u64) -> Vec<Csr> {
    let mut seen = HashSet::<PatternFingerprint>::new();
    let mut out = Vec::with_capacity(count);
    let mut s = seed.wrapping_mul(1_000_003);
    while out.len() < count {
        let m = SPEC.generate(s);
        s = s.wrapping_add(1);
        if seen.insert(m.pattern_fingerprint()) {
            out.push(m);
        }
    }
    out
}

/// What one cold → restart cycle observed.
#[derive(Default)]
pub struct Cycle {
    pub cold_ns: Vec<f64>,
    pub store_ns: Vec<f64>,
    pub warm_ns: Vec<f64>,
    pub cold_sweep_ns: Vec<f64>,
    pub store_sweep_ns: Vec<f64>,
    pub reopen_ns: f64,
    pub flush_ns: f64,
    pub open_ns: f64,
    pub get_ns: Vec<f64>,
    pub hits: u64,
    pub misses: u64,
    pub load_errors: u64,
    pub dropped_writes: u64,
    /// `layers::plan_stamp` of the restarted runtime.
    pub plan: String,
}

fn solve_once(rt: &Runtime, set: &SolveSet, rank: usize, tally: &mut Tally) -> (f64, f64) {
    let mut x = vec![0.0; set.factors[rank].n()];
    let (out, d) = timed(|| {
        rt.submit(Job::<NoBody>::solve(
            &set.factors[rank],
            &set.rhs[rank],
            &mut x,
        ))
    });
    match out {
        Ok(JobOutcome::Solve(s)) => {
            tally.check(&x, &set.refs[rank]);
            (ns(d), ns(s.reports.0.wall + s.reports.1.wall))
        }
        _ => {
            tally.fail();
            (ns(d), 0.0)
        }
    }
}

/// One cycle over the first `k` patterns of `set`, on a fresh store file.
pub fn cycle(
    set: &SolveSet,
    k: usize,
    dir: &Path,
    traced: bool,
    tally: &mut Tally,
) -> Result<Cycle, String> {
    let path = dir.join("plans.seg");
    let _ = std::fs::remove_file(&path);
    let cfg = RuntimeConfig {
        store_path: Some(path.clone()),
        ..RuntimeConfig::default()
    };
    let mut c = Cycle::default();
    {
        let rt = Runtime::new(cfg.clone());
        for rank in 0..k {
            let (lat, sweep) = solve_once(&rt, set, rank, tally);
            c.cold_ns.push(lat);
            c.cold_sweep_ns.push(sweep);
        }
        let store = rt.store().ok_or("the plan store did not open")?;
        let (_, d) = timed(|| store.flush());
        c.flush_ns = ns(d);
        c.dropped_writes = store.stats().dropped_writes;
    }
    {
        let (rt, d) = timed(|| Runtime::new(cfg.clone()));
        c.reopen_ns = ns(d);
        for rank in 0..k {
            let (lat, sweep) = solve_once(&rt, set, rank, tally);
            c.store_ns.push(lat);
            c.store_sweep_ns.push(sweep);
            let (lat, _) = solve_once(&rt, set, rank, tally);
            c.warm_ns.push(lat);
        }
        let s = rt.stats();
        c.hits = s.store_hits;
        c.misses = s.store_misses;
        c.load_errors = s.store_load_errors;
        c.plan = crate::layers::plan_stamp(&rt);
        if traced {
            let store = rt.store().ok_or("the plan store did not open")?;
            for rank in 0..k.min(16) {
                let (got, d) = timed(|| store.get(set.keys[rank].as_u128()));
                if matches!(got, Ok(Some(_))) {
                    c.get_ns.push(ns(d));
                }
            }
        }
    }
    if traced {
        let (store, d) = timed(|| PlanStore::open(&path));
        store.map_err(|e| format!("store reopen: {e}"))?;
        c.open_ns = ns(d);
    }
    let _ = std::fs::remove_file(&path);
    Ok(c)
}

/// Store-layer metrics and the cold/store attribution of traced cycles.
fn restart_layers(m: &mut Metrics, cycles: &[Cycle], st: &Stages) {
    let all = |f: fn(&Cycle) -> &Vec<f64>| -> Vec<f64> {
        cycles.iter().flat_map(|c| f(c).iter().copied()).collect()
    };
    let cold = median(&all(|c| &c.cold_ns));
    let store = median(&all(|c| &c.store_ns));
    let get = median(&all(|c| &c.get_ns));
    let cold_sweep = median(&all(|c| &c.cold_sweep_ns));
    let store_sweep = median(&all(|c| &c.store_sweep_ns));
    let first = |f: fn(&Cycle) -> f64| median(&cycles.iter().map(f).collect::<Vec<_>>());
    m.set("store.get_us", get / 1e3, "us");
    m.set("store.open_ms", first(|c| c.open_ns) / 1e6, "ms");
    m.set("store.flush_ms", first(|c| c.flush_ns) / 1e6, "ms");
    m.set("runtime.reopen_ms", first(|c| c.reopen_ns) / 1e6, "ms");
    let (hits, misses): (u64, u64) = cycles
        .iter()
        .fold((0, 0), |a, c| (a.0 + c.hits, a.1 + c.misses));
    m.set(
        "store.hit_share",
        share(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    m.set(
        "store.load_errors",
        cycles.iter().map(|c| c.load_errors).sum::<u64>() as f64,
        "count",
    );
    m.set(
        "store.dropped_writes",
        cycles.iter().map(|c| c.dropped_writes).sum::<u64>() as f64,
        "count",
    );
    // Stages timed from outside against the end-to-end first solves.
    let cold_parts = st.fingerprint + st.inspect + st.predict + st.compile + st.encode + cold_sweep;
    let store_parts = st.fingerprint + get + st.decode + st.verify + st.predict + store_sweep;
    m.set(
        "trace.unattributed_share",
        1.0 - share(cold_parts, cold),
        "ratio",
    );
    m.set(
        "trace.unattributed_share_store",
        1.0 - share(store_parts, store),
        "ratio",
    );
}

/// One traced cycle on up to 16 of a workload's patterns.
pub fn restart_probe(
    m: &mut Metrics,
    set: &SolveSet,
    st: &Stages,
    tally: &mut Tally,
) -> Result<(), String> {
    let dir = TempDir::new("restart-probe").map_err(|e| e.to_string())?;
    let c = cycle(set, set.len().min(16), &dir.path, true, tally)?;
    restart_layers(m, &[c], st);
    Ok(())
}

/// The cold-restart workload.
pub fn run(args: &crate::util::Args) -> Result<crate::Outcome, String> {
    let mut ms = patterns(PATTERNS + 1, args.seed);
    let warmup = SolveSet::new(vec![factors_of(&ms.pop().ok_or("no patterns")?)], args.seed)?;
    let set = SolveSet::new(ms.iter().map(factors_of).collect(), args.seed)?;
    let dir = TempDir::new("cold-restart").map_err(|e| e.to_string())?;
    let mut tally = Tally::default();

    // Set-up: open a runtime on an empty store and answer one (cold)
    // pattern outside the measured set. The cycles build their own
    // runtimes, so every set-up is spread over the measured time.
    let setup_once = |tally: &mut Tally| -> Result<f64, String> {
        let path = dir.path.join("setup.seg");
        let _ = std::fs::remove_file(&path);
        let t0 = Instant::now();
        let rt = Runtime::new(RuntimeConfig {
            store_path: Some(path.clone()),
            ..RuntimeConfig::default()
        });
        solve_once(&rt, &warmup, 0, tally);
        let secs = t0.elapsed().as_secs_f64();
        drop(rt);
        let _ = std::fs::remove_file(&path);
        Ok(secs)
    };

    let mut layers = Metrics::default();
    let mut untraced_cold = None;
    if args.trace {
        let c = cycle(&set, set.len(), &dir.path, false, &mut tally)?;
        untraced_cold = Some(median(&c.cold_ns));
    }
    let t0 = Instant::now();
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut setups = crate::Setups::new(budget, Box::new(setup_once));
    let mut cycles = Vec::new();
    while cycles.is_empty() || t0.elapsed().as_secs_f64() < budget {
        setups.tick(t0.elapsed().as_secs_f64(), &mut tally)?;
        cycles.push(cycle(&set, set.len(), &dir.path, args.trace, &mut tally)?);
    }
    let all = |f: fn(&Cycle) -> &Vec<f64>| -> Vec<f64> {
        cycles.iter().flat_map(|c| f(c).iter().copied()).collect()
    };
    let cold = all(|c| &c.cold_ns);
    let store = all(|c| &c.store_ns);
    let reopen: Vec<f64> = cycles.iter().map(|c| c.reopen_ns).collect();

    // Each cycle is one window of the fast-quartile statistic.
    let per = |f: &dyn Fn(&Cycle) -> f64| cycles.iter().map(f).collect::<Vec<f64>>();
    let mut e2e = Metrics::default();
    e2e.set("setup_s", setups.median(&mut tally)?, "s");
    e2e.set(
        "a_p50_us",
        fast_quartile(&per(&|c| median(&c.cold_ns)), true) / 1e3,
        "us",
    );
    e2e.set(
        "b_p50_us",
        fast_quartile(&per(&|c| median(&c.store_ns)), true) / 1e3,
        "us",
    );
    e2e.set(
        "p90_us",
        fast_quartile(&per(&|c| quantile(&c.cold_ns, 0.9)), true) / 1e3,
        "us",
    );
    e2e.set(
        "rate_per_s",
        fast_quartile(
            &per(&|c| {
                share(
                    c.store_ns.len() as f64,
                    (c.reopen_ns + c.store_ns.iter().sum::<f64>()) / 1e9,
                )
            }),
            false,
        ),
        "1/s",
    );
    println!(
        "# cold-restart cycles={} cold_first_ms={} store_first_ms={} reopen_ms={} warm_us={}",
        cycles.len(),
        median(&cold) / 1e6,
        median(&store) / 1e6,
        median(&reopen) / 1e6,
        median(&all(|c| &c.warm_ns)) / 1e3
    );

    if args.trace {
        let rt = Runtime::new(RuntimeConfig::default());
        let st = crate::trace_common(
            &mut layers,
            &rt,
            &set,
            &mut tally,
            crate::Common {
                stage_reps: 1,
                restart: false,
                ..crate::Common::default()
            },
        )?;
        restart_layers(&mut layers, &cycles, &st);
        if let Some(u) = untraced_cold {
            layers.set("trace.overhead_share", share(median(&cold) - u, u), "ratio");
        }
    }
    Ok(crate::Outcome {
        e2e,
        layers,
        tally,
        plan: cycles.last().map(|c| c.plan.clone()).unwrap_or_default(),
        working_set_bytes: set.working_set_bytes(),
    })
}
