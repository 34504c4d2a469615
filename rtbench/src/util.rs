//! Shared helpers: argument parsing, sample statistics, host facts, the
//! result line, and the forced-sequential reference runtime.

use rtpl::krylov::ExecutorKind;
use rtpl::runtime::{Runtime, RuntimeConfig};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// Nanoseconds of a duration as `f64`.
pub fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Times one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Linear-interpolated quantile of `xs` (`q ∈ [0, 1]`); 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Median wall time of `reps` calls of `f`, in nanoseconds.
pub fn median_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let (out, d) = timed(&mut f);
            std::hint::black_box(out);
            ns(d)
        })
        .collect();
    median(&samples)
}

/// Per-window statistics of time-stamped samples `(t seconds, value)`:
/// consecutive windows of `width` seconds, `stat` applied to each window
/// holding at least `min` samples.
pub fn windows(
    samples: &[(f64, f64)],
    width: f64,
    min: usize,
    stat: impl Fn(&[f64]) -> f64,
) -> Vec<f64> {
    let mut buckets: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(t, v) in samples {
        buckets
            .entry((t.max(0.0) / width) as u64)
            .or_default()
            .push(v);
    }
    buckets
        .values()
        .filter(|b| b.len() >= min.max(1))
        .map(|b| stat(b))
        .collect()
}

/// The fast quartile of per-window values: the 25th percentile when lower
/// is better, the 75th when higher is better. The host this benchmark was
/// tuned on alternates between a fast and a ~1.4× slower speed every few
/// seconds (co-tenants); the fast quartile reads the system at the fast
/// speed as long as a quarter of the run got it, where a run-wide median
/// would follow the share of slow time.
pub fn fast_quartile(per_window: &[f64], lower_is_better: bool) -> f64 {
    quantile(per_window, if lower_is_better { 0.25 } else { 0.75 })
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn share(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Metrics of one run, ordered by name.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit));
    }

    /// Prints one human-readable line per metric.
    pub fn print_lines(&self, prefix: &str) {
        for (name, (v, unit)) in &self.values {
            println!("{prefix} {name} {} {unit}", fmt_num(*v));
        }
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .map(|(name, (v, unit))| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    fmt_num(*v)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number: full precision, never NaN or infinite.
pub fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Attempted / failed operation counts of a run. A failed operation is a
/// wrong answer, an error, or a refusal where none is expected; wrong
/// answers additionally make the run incorrect.
#[derive(Default, Clone, Copy, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    pub fn wrong(&mut self) {
        self.fail();
        self.wrong += 1;
    }

    /// Folds a bit-exact comparison into the tally.
    pub fn check(&mut self, got: &[f64], want: &[f64]) {
        if bit_exact(got, want) {
            self.ok();
        } else {
            self.wrong();
        }
    }

    pub fn add(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wrong += o.wrong;
    }
}

/// Bitwise equality of two result vectors.
pub fn bit_exact(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The reference: one discipline forced (`Sequential`), no calibration.
/// Every answer of the system under test must match it bit for bit.
pub fn reference_runtime() -> Runtime {
    Runtime::new(RuntimeConfig {
        calibrate: false,
        policy: Some(ExecutorKind::Sequential),
        ..RuntimeConfig::default()
    })
}

/// Size of the last-level (L3) cache in bytes, from CPUID (no files are
/// read); 0 when the processor does not report one.
pub fn l3_bytes() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid_count;
        // SAFETY: CPUID exists on every x86-64 processor; the leaves
        // queried are bounded by the maximum leaf the processor reports.
        #[allow(unused_unsafe)]
        let cpuid = |leaf: u32, sub: u32| unsafe { __cpuid_count(leaf, sub) };
        let vendor = cpuid(0, 0);
        let max_leaf = vendor.eax;
        let amd = vendor.ebx == 0x6874_7541; // "Auth"enticAMD
        let ext_max = cpuid(0x8000_0000, 0).eax;
        let leaf = if amd && ext_max >= 0x8000_001D {
            0x8000_001D
        } else if max_leaf >= 4 {
            4
        } else {
            return 0;
        };
        for sub in 0..16 {
            let r = cpuid(leaf, sub);
            let kind = r.eax & 0x1f;
            if kind == 0 {
                break;
            }
            let level = (r.eax >> 5) & 0x7;
            if level == 3 {
                let ways = u64::from((r.ebx >> 22) & 0x3ff) + 1;
                let parts = u64::from((r.ebx >> 12) & 0x3ff) + 1;
                let line = u64::from(r.ebx & 0xfff) + 1;
                let sets = u64::from(r.ecx) + 1;
                return ways * parts * line * sets;
            }
        }
        0
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        0
    }
}

/// A per-run scratch directory inside the checkout (store segments live
/// here), removed again when dropped.
pub struct TempDir {
    pub path: std::path::PathBuf,
}

impl TempDir {
    pub fn new(tag: &str) -> std::io::Result<TempDir> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let k = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = std::path::PathBuf::from(".bench_tmp")
            .join(format!("{tag}-{}-{k}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}
