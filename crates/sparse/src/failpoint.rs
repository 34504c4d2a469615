//! Fail-point fault injection: a tiny, std-only, process-global registry
//! of named failure sites.
//!
//! A fail point is a named site in production code — a store append, a
//! socket accept, a plan build — that asks [`should_fail`] whether it
//! should pretend to fail right now. Tests (and the chaos harness) arm
//! points by name with a [`Mode`]; production traffic never arms anything,
//! and the disarmed fast path is a single relaxed atomic load — no lock,
//! no map lookup, no allocation.
//!
//! ```
//! use rtpl_sparse::failpoint;
//!
//! failpoint::configure("store.append", failpoint::Mode::Times(2));
//! assert!(failpoint::should_fail("store.append"));
//! assert!(failpoint::should_fail("store.append"));
//! assert!(!failpoint::should_fail("store.append")); // budget spent
//! failpoint::clear_all();
//! ```
//!
//! Points may also be armed from the environment before any code runs:
//! `RTPL_FAILPOINTS="store.append=times:3,server.read=onein:50"` parsed by
//! [`init_from_env`] (modes: `always`, `times:N`, `onein:N`). Every fire
//! is counted ([`trips`]), so metrics can report how much injected fault
//! load a process absorbed.
//!
//! The registry is process-global, so a test that arms a point evaluated by
//! shared code lives in its own test binary.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// How an armed fail point fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Fire on every evaluation until cleared.
    Always,
    /// Fire on the next `n` evaluations, then fall silent.
    Times(u64),
    /// Fire on roughly one in `n` evaluations (deterministic rotation:
    /// every `n`-th evaluation fires, starting with the first).
    OneIn(u64),
}

struct Point {
    mode: Mode,
    /// Evaluations seen (drives `Times` exhaustion and `OneIn` rotation).
    evals: u64,
}

struct RegistryState {
    points: HashMap<String, Point>,
}

/// `true` while at least one point is armed — the disarmed fast path.
static ACTIVE: AtomicBool = AtomicBool::new(false);
/// Total fires across all points since process start (never reset by
/// [`clear_all`], so metrics stay monotone).
static TRIPS: AtomicU64 = AtomicU64::new(0);

fn registry() -> &'static Mutex<RegistryState> {
    static REGISTRY: OnceLock<Mutex<RegistryState>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(RegistryState {
            points: HashMap::new(),
        })
    })
}

/// Arms (or re-arms) the named point. Replaces any previous mode and
/// resets its evaluation counter.
pub fn configure(name: &str, mode: Mode) {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.points
        .insert(name.to_string(), Point { mode, evals: 0 });
    ACTIVE.store(true, Ordering::Release);
}

/// Disarms one point (a no-op for unknown names).
pub fn clear(name: &str) {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.points.remove(name);
    if reg.points.is_empty() {
        ACTIVE.store(false, Ordering::Release);
    }
}

/// Disarms every point. The trip counter is preserved.
pub fn clear_all() {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    reg.points.clear();
    ACTIVE.store(false, Ordering::Release);
}

/// Whether the named point should fail **now**. The one call production
/// code makes; when nothing is armed this is a single relaxed load.
#[inline]
pub fn should_fail(name: &str) -> bool {
    if !ACTIVE.load(Ordering::Relaxed) {
        return false;
    }
    should_fail_slow(name)
}

#[cold]
fn should_fail_slow(name: &str) -> bool {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    let Some(point) = reg.points.get_mut(name) else {
        return false;
    };
    point.evals += 1;
    let fire = match point.mode {
        Mode::Always => true,
        Mode::Times(n) => point.evals <= n,
        Mode::OneIn(n) => n > 0 && point.evals % n == 1 % n,
    };
    if fire {
        TRIPS.fetch_add(1, Ordering::Relaxed);
    }
    fire
}

/// Total fires across all points since process start.
pub fn trips() -> u64 {
    TRIPS.load(Ordering::Relaxed)
}

/// Arms points from `RTPL_FAILPOINTS` (comma-separated `name=mode` pairs;
/// modes `always`, `times:N`, `onein:N`). Unparseable entries are skipped
/// — a typo in an env var must not take down a service that would
/// otherwise run clean. Returns how many points were armed.
pub fn init_from_env() -> usize {
    let Ok(spec) = std::env::var("RTPL_FAILPOINTS") else {
        return 0;
    };
    let mut armed = 0;
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let Some((name, mode_str)) = entry.split_once('=') else {
            continue;
        };
        let mode = match mode_str.split_once(':') {
            None if mode_str == "always" => Mode::Always,
            Some(("times", n)) => match n.parse() {
                Ok(n) => Mode::Times(n),
                Err(_) => continue,
            },
            Some(("onein", n)) => match n.parse() {
                Ok(n) => Mode::OneIn(n),
                Err(_) => continue,
            },
            _ => continue,
        };
        configure(name, mode);
        armed += 1;
    }
    armed
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so each test uses its own point
    // names and never calls clear_all (other tests may run concurrently).

    #[test]
    fn disarmed_points_never_fire() {
        assert!(!should_fail("test.never_armed"));
    }

    #[test]
    fn always_fires_until_cleared() {
        configure("test.always", Mode::Always);
        assert!(should_fail("test.always"));
        assert!(should_fail("test.always"));
        clear("test.always");
        assert!(!should_fail("test.always"));
    }

    #[test]
    fn times_budget_is_exhausted() {
        configure("test.times", Mode::Times(2));
        assert!(should_fail("test.times"));
        assert!(should_fail("test.times"));
        assert!(!should_fail("test.times"));
        clear("test.times");
    }

    #[test]
    fn one_in_fires_periodically() {
        configure("test.onein", Mode::OneIn(3));
        let fires: Vec<bool> = (0..6).map(|_| should_fail("test.onein")).collect();
        assert_eq!(fires, [true, false, false, true, false, false]);
        clear("test.onein");
    }

    #[test]
    fn trips_count_fires() {
        let before = trips();
        configure("test.trips", Mode::Times(3));
        for _ in 0..5 {
            should_fail("test.trips");
        }
        assert!(trips() >= before + 3);
        clear("test.trips");
    }
}
