//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path rtbench/Cargo.toml -- \
//!     --workload <pcg-3d|serve-zipf|cold-restart|doconsider-mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run builds its inputs from the seed, sets the system up several
//! times (the median is `setup_s`), measures for `--seconds`, and checks
//! every answer bit for bit against a forced-`Sequential` reference. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A wrong answer
//! makes the command exit non-zero. METRICS.md maps every metric to what
//! it measures on each workload.

mod inputs;
mod layers;
mod mix;
mod pcg;
mod restart;
mod serve;
mod util;

use inputs::SolveSet;
use rtpl::runtime::Runtime;
use util::{share, Metrics, Tally};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// One set-up of a workload: checks its answers into the tally and
/// returns how long it took, in seconds.
type SetupOnce<'a> = Box<dyn FnMut(&mut Tally) -> Result<f64, String> + 'a>;

/// The run's `SETUP_REPS` set-ups, spread evenly over its measured time.
/// The host's speed drifts over seconds; set-ups run back to back all land
/// in one state, and their median jumped by a third between runs. Spread
/// out, they sample the run the way the measured metrics do.
pub struct Setups<'a> {
    once: SetupOnce<'a>,
    times: Vec<f64>,
    /// Measured seconds the set-ups are spread over.
    span: f64,
}

impl<'a> Setups<'a> {
    pub fn new(span: f64, once: SetupOnce<'a>) -> Setups<'a> {
        Setups {
            once,
            times: Vec::new(),
            span,
        }
    }

    /// Counts a set-up the workload ran itself (the one whose system it
    /// goes on to measure).
    pub fn record(&mut self, seconds: f64) {
        self.times.push(seconds);
    }

    /// Runs the set-ups due `elapsed` seconds into the measured span.
    pub fn tick(&mut self, elapsed: f64, tally: &mut Tally) -> Result<(), String> {
        while self.times.len() < SETUP_REPS
            && elapsed >= self.span * self.times.len() as f64 / SETUP_REPS as f64
        {
            let t = (self.once)(tally)?;
            self.times.push(t);
        }
        Ok(())
    }

    /// Runs any set-ups still missing; returns their median.
    pub fn median(mut self, tally: &mut Tally) -> Result<f64, String> {
        self.tick(f64::INFINITY, tally)?;
        Ok(util::median(&self.times))
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub e2e: Metrics,
    pub layers: Metrics,
    pub tally: Tally,
    pub working_set_bytes: u64,
    /// Cost model and served-plan facts (`layers::plan_stamp`).
    pub plan: String,
}

/// Which shared per-layer probes a traced run still needs.
pub struct Common {
    /// Inspect/compile/verify/encode repetitions per pattern.
    pub stage_reps: usize,
    /// Run the one-cycle plan-store restart probe.
    pub restart: bool,
    /// Run the loopback server probe.
    pub server: bool,
    /// Run the `submit_batch` probe.
    pub batch: bool,
    /// Run the generic/compiled loop-job probe.
    pub loops: bool,
}

impl Default for Common {
    fn default() -> Self {
        Common {
            stage_reps: 3,
            restart: true,
            server: true,
            batch: true,
            loops: true,
        }
    }
}

/// The per-layer probes every traced run shares, on the workload's own
/// solve patterns and runtime. Workload-specific measurements written
/// afterwards replace the probe's value of the same name. Returns the
/// cold-path stage medians.
pub fn trace_common(
    m: &mut Metrics,
    rt: &Runtime,
    set: &SolveSet,
    tally: &mut Tally,
    c: Common,
) -> Result<layers::Stages, String> {
    let factors: Vec<_> = set.factors.iter().map(|f| &**f).collect();
    let stages = layers::stage_probe(m, rt, &factors, c.stage_reps)?;
    layers::front_door_probe(m, rt, set, tally)?;
    if c.loops {
        layers::loop_probe(m, rt, &factors, tally)?;
    }
    if c.batch {
        layers::batch_probe(m, rt, set, tally);
    }
    if c.restart {
        restart::restart_probe(m, set, &stages, tally)?;
    }
    if c.server {
        serve::server_probe(m, set, tally)?;
    }
    layers::runtime_counters(m, &rt.stats());
    layers::host_layers(m, rt);
    // Only pcg-3d runs a Krylov solver; it overwrites these.
    m.set("krylov.iters", 0.0, "count");
    m.set("krylov.apply_share", 0.0, "ratio");
    m.set("krylov.vector_ms", 0.0, "ms");
    Ok(stages)
}

fn main() {
    let args = match util::Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rtbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "pcg-3d" => pcg::run(&args),
        "serve-zipf" => serve::run(&args),
        "cold-restart" => restart::run(&args),
        "doconsider-mix" => mix::run(&args),
        "serve-capacity" => serve::capacity(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rtbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let t = out.tally;
    let failed_share = share(t.failed as f64, t.attempted as f64);
    println!(
        "# stamp workload={} seed={} nproc={} l3_kb={} working_set_kb={} attempted={} failed={} wrong={} failed_share={}",
        args.workload,
        args.seed,
        util::nproc(),
        util::l3_bytes() / 1024,
        out.working_set_bytes / 1024,
        t.attempted,
        t.failed,
        t.wrong,
        failed_share
    );
    println!("# stamp plan {}", out.plan);
    let metrics = if args.trace {
        out.layers.set("failed_share", failed_share, "ratio");
        out.layers.set(
            "workload.working_set_kb",
            out.working_set_bytes as f64 / 1024.0,
            "kB",
        );
        out.layers.print_lines("# layer");
        &out.layers
    } else {
        out.e2e.print_lines("# metric");
        &out.e2e
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        t.wrong == 0,
        t.attempted.max(1),
        t.failed,
        metrics.to_json()
    );
    if t.wrong > 0 {
        eprintln!("rtbench: {} wrong answer(s)", t.wrong);
        std::process::exit(1);
    }
}
