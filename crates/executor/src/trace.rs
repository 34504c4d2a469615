//! Shared-memory access tracing for the race oracle (`rtpl-verify`).
//!
//! With `--features verify-trace`, the executors log every publication,
//! every dependence read, and every barrier arrival into a global,
//! mutex-serialized event log. `rtpl-verify`'s vector-clock checker replays
//! the log offline and proves "no unordered conflicting accesses" — a far
//! stronger statement than "the answers matched this time".
//!
//! The event types in this module are **always compiled** (so the verifier
//! crate can name them unconditionally); only the recording call sites in
//! [`crate::shared`], [`crate::barrier`], and [`crate::pool`] are gated on
//! the feature, so production builds carry zero tracing cost.
//!
//! ## Log-order soundness
//!
//! The replayer trusts only the *relative* order of events appended by the
//! same mutex, and the hooks are placed so that mutex-append order respects
//! the happens-before edges the executors actually create:
//!
//! * a `Write` is recorded **before** the value/flag stores, so any reader
//!   that observed the flag appends its read event after the write event;
//! * an acquire read ([`crate::shared::SharedVec::wait_get_at`]) is
//!   recorded **after** the flag load succeeded;
//! * a plain read ([`crate::shared::SharedVec::get_published_at`]) is
//!   recorded after its unsynchronized load — if the producing write is not
//!   ordered before it by barriers or program order, the vector clocks
//!   flag it regardless of where it lands in the log;
//! * a barrier arrival is recorded **before** the arrival `fetch_add`, so
//!   all arrivals of a generation appear in the log before any
//!   participant's post-release event.
//!
//! Only events from pool worker threads (which carry a processor id, set by
//! [`crate::pool::WorkerPool::run`] for jobs dispatched from inside
//! [`capture`]) are logged; coordinator-thread accesses
//! (result gathers, value scatters) happen strictly before/after the
//! parallel region and are not part of the race surface.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard};

/// One logged shared-memory access or synchronization arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Processor `proc` published index `row` for `epoch`
    /// ([`crate::shared::SharedVec::publish_at`]).
    Write { proc: u32, row: u32, epoch: u32 },
    /// Processor `proc` read index `row` through the busy-waiting acquire
    /// path ([`crate::shared::SharedVec::wait_get_at`]): the read carries a
    /// synchronizes-with edge from the publishing store.
    ReadAcquire { proc: u32, row: u32, epoch: u32 },
    /// Processor `proc` read index `row` through the plain (barrier-trusting)
    /// path ([`crate::shared::SharedVec::get_published_at`]): no edge of its
    /// own — ordering must come from barriers or same-proc program order.
    ReadPlain { proc: u32, row: u32, epoch: u32 },
    /// Processor `proc` arrived at barrier `barrier` in `generation`
    /// ([`crate::barrier::SpinBarrier::wait`]). All arrivals of one
    /// generation synchronize with each other.
    Barrier {
        proc: u32,
        barrier: u32,
        generation: u32,
    },
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static LOG: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
/// Serializes whole capture sessions: the log is global, so two concurrent
/// [`capture`] calls would interleave unrelated runs.
static SESSION: Mutex<()> = Mutex::new(());
static NEXT_BARRIER_ID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    /// The processor id of the current pool worker, if any. Events recorded
    /// from threads without an id (the coordinator) are dropped.
    static PROC: Cell<Option<u32>> = const { Cell::new(None) };
    /// Whether this thread is inside [`capture`]. A pool job records events
    /// only when the thread that dispatched it is capturing, so runs of
    /// other threads (say, concurrently running tests) never leak into a
    /// capture.
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is inside a [`capture`] session.
#[cfg(feature = "verify-trace")]
pub(crate) fn capturing() -> bool {
    CAPTURING.with(Cell::get)
}

fn lock_log() -> MutexGuard<'static, Vec<TraceEvent>> {
    LOG.lock().unwrap_or_else(|e| e.into_inner())
}

/// Allocates a process-unique id for a [`crate::barrier::SpinBarrier`], so
/// the replayer can tell distinct barriers apart.
pub(crate) fn next_barrier_id() -> u32 {
    NEXT_BARRIER_ID.fetch_add(1, Ordering::Relaxed)
}

/// Runs `f` with tracing enabled and returns its result plus every event
/// recorded by the pool workers running jobs `f` dispatches. Sessions are
/// serialized: a second concurrent `capture` blocks until the first
/// finishes. Tracing is switched off again even if `f` panics.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<TraceEvent>) {
    let _session = SESSION.lock().unwrap_or_else(|e| e.into_inner());
    lock_log().clear();
    struct Off;
    impl Drop for Off {
        fn drop(&mut self) {
            ACTIVE.store(false, Ordering::SeqCst);
            CAPTURING.with(|c| c.set(false));
        }
    }
    let off = Off;
    CAPTURING.with(|c| c.set(true));
    ACTIVE.store(true, Ordering::SeqCst);
    let r = f();
    drop(off);
    let events = std::mem::take(&mut *lock_log());
    (r, events)
}

/// Marks the current thread as pool processor `p` for the duration of the
/// returned guard (restores the previous id on drop, so nested pools keep
/// working).
pub fn enter_proc(p: usize) -> ProcGuard {
    let prev = PROC.with(|c| c.replace(Some(p as u32)));
    ProcGuard { prev }
}

/// Guard returned by [`enter_proc`].
pub struct ProcGuard {
    prev: Option<u32>,
}

impl Drop for ProcGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        PROC.with(|c| c.set(prev));
    }
}

#[inline]
fn record(make: impl FnOnce(u32) -> TraceEvent) {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    let Some(p) = PROC.with(Cell::get) else {
        return;
    };
    let ev = make(p);
    lock_log().push(ev);
}

/// Hook: about to publish `row` for `epoch`.
#[inline]
pub fn record_write(row: usize, epoch: u32) {
    record(|proc| TraceEvent::Write {
        proc,
        row: row as u32,
        epoch,
    });
}

/// Hook: completed a busy-waiting acquire read of `row` in `epoch`.
#[inline]
pub fn record_read_acquire(row: usize, epoch: u32) {
    record(|proc| TraceEvent::ReadAcquire {
        proc,
        row: row as u32,
        epoch,
    });
}

/// Hook: completed a plain (barrier-trusting) read of `row` in `epoch`.
#[inline]
pub fn record_read_plain(row: usize, epoch: u32) {
    record(|proc| TraceEvent::ReadPlain {
        proc,
        row: row as u32,
        epoch,
    });
}

/// Hook: arriving at barrier `barrier` whose current generation is
/// `generation`.
#[inline]
pub fn record_barrier_arrival(barrier: u32, generation: usize) {
    record(|proc| TraceEvent::Barrier {
        proc,
        barrier,
        generation: generation as u32,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_without_proc_id_are_dropped() {
        let ((), events) = capture(|| {
            record_write(0, 1); // coordinator thread: no proc id
        });
        assert!(events.is_empty());
    }

    #[test]
    fn capture_collects_in_order() {
        let ((), events) = capture(|| {
            let _g = enter_proc(3);
            record_write(7, 1);
            record_read_acquire(7, 1);
        });
        assert_eq!(
            events,
            vec![
                TraceEvent::Write {
                    proc: 3,
                    row: 7,
                    epoch: 1
                },
                TraceEvent::ReadAcquire {
                    proc: 3,
                    row: 7,
                    epoch: 1
                },
            ]
        );
    }

    #[test]
    fn recording_outside_capture_is_a_no_op() {
        {
            let _g = enter_proc(0);
            record_write(1, 1);
        }
        let ((), events) = capture(|| ());
        assert!(events.is_empty());
    }
}
