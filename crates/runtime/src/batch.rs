//! The batched request pipeline: one [`Job`] front door for solves and
//! `DoConsider`-derived loops, with cross-request scheduling.
//!
//! A long-running solver service rarely receives one request at a time —
//! clients arrive with *batches* of (factors, rhs) pairs and index-array
//! loops. Routing each one through [`Runtime::solve`] pays the full
//! per-request toll every time: a structural fingerprint hash, a cache
//! lookup, a pool lease, a selector decision, and a value gather. A batch
//! knows more: requests sharing a sparsity structure can share almost all
//! of that. [`Runtime::submit_batch`] exploits it —
//!
//! * jobs are **grouped by [`PatternFingerprint`]** (carried by jobs made
//!   from [`KeyedFactors`], otherwise memoized per factor object, so the
//!   hash itself is paid at most once per distinct input, not per
//!   request);
//! * each group leases **one** worker pool and **one** run scratch, makes
//!   **one** adaptive-selector decision, and folds **one** averaged
//!   observation back — instead of once per request;
//! * consecutive jobs of a group that share a factor (or coefficient)
//!   object skip the per-request value gather — the schedule-order layout
//!   is already loaded;
//! * **cold groups run first**: on a multi-core host with several batch
//!   workers, the expensive inspections of never-seen patterns pipeline
//!   concurrently with warm executions of cached ones.
//!
//! A [`Job`] is one of three requests, all keyed into the same build-once
//! caches as the single-request front doors:
//!
//! * [`JobKind::Solve`] — `L U x = b` for [`IluFactors`] (the
//!   [`Runtime::solve`] path), or for [`KeyedFactors`], whose structure
//!   was hashed once when the handle was built;
//! * [`JobKind::Loop`] — a generic [`LoopBody`] over a cacheable [`LoopSpec`]
//!   (the analysis product `rtpl::DoConsider::into_spec` emits);
//! * [`JobKind::LinearLoop`] — the body-free linear recurrence
//!   `x(i) = rhs(i) − Σ a_k·x(dep_k)`, compiled to a schedule-order
//!   [`CompiledPlan`] layout with per-call coefficient gathers.
//!
//! [`CompiledPlan`]: rtpl_executor::compiled::CompiledPlan

use crate::service::{RunOutcome, Runtime, SolveOutcome};
use crate::Result;
use rtpl_executor::{CancelToken, LoopBody, ValueSource};
use rtpl_inspector::DepGraph;
use rtpl_krylov::ExecutorKind;
use rtpl_sparse::ilu::IluFactors;
use rtpl_sparse::PatternFingerprint;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A cacheable inspection product: a dependence structure plus its stable
/// structural key. This is what `DoConsider` emits for the runtime front
/// door (`rtpl::DoConsider::into_spec`) instead of scheduling inline —
/// scheduling, policy selection, and plan reuse across requests are the
/// runtime's job. (Not to be confused with `rtpl::LoopSpec`, the
/// transformer's stack-program IR; that one describes a loop *body*, this
/// one a loop *structure*.)
///
/// The spec is cheap to clone and share (`Arc` inside); a spec built by
/// [`DepGraph::from_lower_triangular`] on a strictly lower-triangular CSR
/// carries the same key as that matrix's pattern fingerprint, so both
/// runtime front doors meet on one cache entry.
#[derive(Clone, Debug)]
pub struct LoopSpec {
    graph: Arc<DepGraph>,
    key: PatternFingerprint,
}

impl LoopSpec {
    /// Wraps an inspected dependence graph with its cache key.
    pub fn new(graph: DepGraph) -> Self {
        let key = graph.fingerprint();
        LoopSpec {
            graph: Arc::new(graph),
            key,
        }
    }

    /// The dependence structure.
    pub fn graph(&self) -> &DepGraph {
        &self.graph
    }

    /// The structural cache key.
    pub fn key(&self) -> PatternFingerprint {
        self.key
    }
}

/// ILU factors keyed once: the solve-side twin of [`LoopSpec`]. The
/// handle hashes the `(L, U)` structure with [`Runtime::solve_key`] when
/// it is built, and every [`Job::solve_keyed`] made from it reaches the
/// plan cache without hashing again — a long-lived caller (a Krylov
/// loop, a server registry) pays the O(nnz) fingerprint once per
/// factorization instead of once per request.
///
/// The key is always computed here, never supplied by the caller: a key
/// that disagreed with its factors would silently run another pattern's
/// plan. The factors sit behind an [`Arc`] the handle only ever shares,
/// so their structure cannot change while the handle lives. Refactorized
/// values on the same structure make a new handle with the same key, and
/// it is served from the same cached plan.
#[derive(Clone, Debug)]
pub struct KeyedFactors {
    factors: Arc<IluFactors>,
    key: PatternFingerprint,
}

impl KeyedFactors {
    /// Keys `factors` (an owned [`IluFactors`] or an existing [`Arc`]).
    pub fn new(factors: impl Into<Arc<IluFactors>>) -> Self {
        let factors = factors.into();
        let key = Runtime::solve_key(&factors);
        KeyedFactors { factors, key }
    }

    /// The factors.
    pub fn factors(&self) -> &IluFactors {
        &self.factors
    }

    /// The solve-cache key, equal to [`Runtime::solve_key`] of the factors.
    pub fn key(&self) -> PatternFingerprint {
        self.key
    }
}

/// The placeholder body type of batches that carry no [`JobKind::Loop`] jobs
/// (`Vec<Job>` defaults to it). Never executed.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoBody;

impl LoopBody for NoBody {
    fn eval<S: ValueSource>(&self, _i: usize, _src: &S) -> f64 {
        unreachable!("NoBody is a type-level placeholder; no job carries it")
    }
}

/// One request of a batch: a triangular solve or an index-array loop
/// ([`JobKind`]), each borrowing its inputs and owning (mutably
/// borrowing) its output buffer, plus an optional deadline. Submit
/// through [`Runtime::submit`] / [`Runtime::submit_batch`].
#[derive(Debug)]
pub struct Job<'a, B: LoopBody = NoBody> {
    pub(crate) kind: JobKind<'a, B>,
    pub(crate) deadline: Option<Instant>,
}

/// What a [`Job`] asks for.
#[derive(Debug)]
pub enum JobKind<'a, B: LoopBody = NoBody> {
    /// Solve `L U x = b` through the structure-keyed solve cache.
    Solve {
        /// The factors; only their *structure* keys the cache.
        factors: &'a IluFactors,
        /// The factors' [`Runtime::solve_key`], when the job came from a
        /// keyed source ([`KeyedFactors`], [`crate::CachedIlu`]); `None`
        /// makes the front door hash the factors.
        key: Option<PatternFingerprint>,
        /// Right-hand side.
        b: &'a [f64],
        /// Solution output.
        x: &'a mut [f64],
    },
    /// Run a generic loop body over a cached [`LoopSpec`] structure.
    Loop {
        /// The inspected structure (from `DoConsider::into_spec`).
        spec: &'a LoopSpec,
        /// The loop body (any values, any arithmetic — structure is what
        /// is cached).
        body: &'a B,
        /// Loop output.
        out: &'a mut [f64],
    },
    /// Run the linear recurrence `x(i) = rhs(i) − Σ a_k·x(dep_k)` over a
    /// cached compiled layout; `vals` holds one coefficient per dependence
    /// edge in graph adjacency order.
    LinearLoop {
        /// The inspected structure (from `DoConsider::into_spec`).
        spec: &'a LoopSpec,
        /// Per-edge coefficients, adjacency order
        /// (`spec.graph().num_edges()` of them).
        vals: &'a [f64],
        /// Right-hand side.
        rhs: &'a [f64],
        /// Loop output.
        out: &'a mut [f64],
    },
}

impl<'a, B: LoopBody> Job<'a, B> {
    /// A triangular-solve job; the front door hashes the factors'
    /// structure to find the plan.
    pub fn solve(factors: &'a IluFactors, b: &'a [f64], x: &'a mut [f64]) -> Self {
        Self::solve_with_key(factors, None, b, x)
    }

    /// A triangular-solve job on keyed factors: no hashing at the front
    /// door.
    pub fn solve_keyed(factors: &'a KeyedFactors, b: &'a [f64], x: &'a mut [f64]) -> Self {
        Self::solve_with_key(&factors.factors, Some(factors.key), b, x)
    }

    /// `key` must be `None` or [`Runtime::solve_key`] of `factors`.
    pub(crate) fn solve_with_key(
        factors: &'a IluFactors,
        key: Option<PatternFingerprint>,
        b: &'a [f64],
        x: &'a mut [f64],
    ) -> Self {
        Job {
            kind: JobKind::Solve { factors, key, b, x },
            deadline: None,
        }
    }

    /// A generic-body loop job.
    pub fn looped(spec: &'a LoopSpec, body: &'a B, out: &'a mut [f64]) -> Self {
        Job {
            kind: JobKind::Loop { spec, body, out },
            deadline: None,
        }
    }

    /// A compiled linear-recurrence loop job.
    pub fn linear(spec: &'a LoopSpec, vals: &'a [f64], rhs: &'a [f64], out: &'a mut [f64]) -> Self {
        Job {
            kind: JobKind::LinearLoop {
                spec,
                vals,
                rhs,
                out,
            },
            deadline: None,
        }
    }

    /// Attaches a deadline: a job not *finished* by `deadline` is
    /// interrupted at the executors' cancellation points (phase and
    /// stride boundaries) and answered with
    /// [`crate::RuntimeError::DeadlineExceeded`]; a job whose deadline
    /// has already passed when its turn comes is rejected without
    /// running. Expiry never disturbs the other jobs of a batch.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The job's deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// What the job asks for.
    pub fn kind(&self) -> &JobKind<'a, B> {
        &self.kind
    }
}

/// The outcome of one [`Job`]: the matching front door's report.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// A [`JobKind::Solve`] ran (see [`SolveOutcome`]).
    Solve(SolveOutcome),
    /// A [`JobKind::Loop`] or [`JobKind::LinearLoop`] ran (see [`RunOutcome`]).
    Loop(RunOutcome),
}

impl JobOutcome {
    /// Discipline the job ran under.
    pub fn policy(&self) -> ExecutorKind {
        match self {
            JobOutcome::Solve(s) => s.policy,
            JobOutcome::Loop(r) => r.policy,
        }
    }

    /// `true` when the job's plan came from the cache (no inspection).
    pub fn cached(&self) -> bool {
        match self {
            JobOutcome::Solve(s) => s.cached,
            JobOutcome::Loop(r) => r.cached,
        }
    }

    /// The structure key the job was served under.
    pub fn pattern(&self) -> PatternFingerprint {
        match self {
            JobOutcome::Solve(s) => s.pattern,
            JobOutcome::Loop(r) => r.pattern,
        }
    }
}

/// What one [`Runtime::submit_batch`] call did: per-job outcomes in
/// submission order plus the whole-batch accounting the bench reports
/// requests/sec from.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-job results, indexed exactly as the submitted `Vec<Job>`. A
    /// failing job (e.g. a zero pivot) never sinks its batch — the other
    /// jobs of its group and batch still run.
    pub jobs: Vec<Result<JobOutcome>>,
    /// Wall time of the whole batch, fingerprinting to final output.
    pub wall: Duration,
    /// Distinct fingerprint groups the batch scheduler formed.
    pub groups: usize,
    /// Groups whose pattern was not cached when the batch started (their
    /// inspections are scheduled first, to pipeline with warm execution).
    pub cold_groups: usize,
    /// Batch worker threads used (1 = inline on the submitting thread).
    pub workers: usize,
}

impl BatchOutcome {
    /// Successful jobs.
    pub fn ok_count(&self) -> usize {
        self.jobs.iter().filter(|j| j.is_ok()).count()
    }

    /// Aggregate throughput of the batch.
    pub fn requests_per_sec(&self) -> f64 {
        self.jobs.len() as f64 / self.wall.as_secs_f64().max(1e-12)
    }
}

/// Discriminates the three cache namespaces a job can key into.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum JobClass {
    Solve,
    Loop,
    Linear,
}

/// One fingerprint group: same class, same key, jobs in submission order.
struct Group<'j, B: LoopBody> {
    class: JobClass,
    key: PatternFingerprint,
    warm: bool,
    jobs: Vec<(usize, Job<'j, B>)>,
}

impl Runtime {
    /// Submits one [`Job`] — the unified front door over
    /// [`Runtime::solve`], [`Runtime::run_spec`] and
    /// [`Runtime::run_linear`] — with the service's failure containment:
    /// deadlines are enforced, panicking bodies come back as
    /// [`crate::RuntimeError::BodyPanicked`], and a pattern whose
    /// requests keep failing trips its circuit breaker.
    pub fn submit<B: LoopBody>(&self, job: Job<'_, B>) -> Result<JobOutcome> {
        let key = match &job.kind {
            JobKind::Solve { factors, key, .. } => key.unwrap_or_else(|| Self::solve_key(factors)),
            JobKind::Loop { spec, .. } | JobKind::LinearLoop { spec, .. } => spec.key(),
        };
        self.breaker_admit(key)?;
        let token = job.deadline.map(CancelToken::with_deadline);
        let r = match job.kind {
            JobKind::Solve { factors, b, x, .. } => self
                .solve_with_cancel(key, factors, b, x, token.as_ref())
                .map(JobOutcome::Solve),
            JobKind::Loop { spec, body, out } => self
                .run_spec_with_cancel(spec, body, out, token.as_ref())
                .map(JobOutcome::Loop),
            JobKind::LinearLoop {
                spec,
                vals,
                rhs,
                out,
            } => self
                .run_linear_with_cancel(spec, vals, rhs, out, token.as_ref())
                .map(JobOutcome::Loop),
        };
        self.breaker_note(key, &r);
        if let Err(e) = &r {
            self.count_error(e);
        }
        r
    }

    /// Submits a batch of jobs and schedules them **across requests**:
    /// jobs are grouped by structural fingerprint; each group pays one
    /// cache lookup, one pool lease, one scratch lease, and one selector
    /// decision; groups over never-seen patterns are dispatched first so
    /// their inspections pipeline with warm executions when several batch
    /// workers are available ([`crate::RuntimeConfig::batch_workers`]).
    /// Outcomes come back in submission order; per-job failures are
    /// per-job `Err`s, never a batch abort.
    pub fn submit_batch<B: LoopBody>(&self, jobs: Vec<Job<'_, B>>) -> BatchOutcome {
        let t0 = Instant::now();
        let njobs = jobs.len();
        if njobs == 0 {
            return BatchOutcome {
                jobs: Vec::new(),
                wall: t0.elapsed(),
                groups: 0,
                cold_groups: 0,
                workers: 0,
            };
        }

        // Group by (class, fingerprint). Keyed solve jobs bring their key.
        // For unkeyed ones the O(nnz) hash is memoized per distinct factor
        // *object* — a Zipf batch replaying K patterns hashes K times, not
        // once per request.
        let mut fp_memo: HashMap<*const IluFactors, PatternFingerprint> = HashMap::new();
        let mut group_of: HashMap<(JobClass, u128), usize> = HashMap::new();
        let mut groups: Vec<Group<'_, B>> = Vec::new();
        for (i, job) in jobs.into_iter().enumerate() {
            let (class, key) = match &job.kind {
                JobKind::Solve { key: Some(key), .. } => (JobClass::Solve, *key),
                JobKind::Solve { factors, .. } => {
                    let ptr: *const IluFactors = *factors;
                    let key = *fp_memo
                        .entry(ptr)
                        .or_insert_with(|| Self::solve_key(factors));
                    (JobClass::Solve, key)
                }
                JobKind::Loop { spec, .. } => (JobClass::Loop, spec.key()),
                JobKind::LinearLoop { spec, .. } => (JobClass::Linear, spec.key()),
            };
            let gi = *group_of.entry((class, key.as_u128())).or_insert_with(|| {
                let warm = match class {
                    JobClass::Solve => self.solves.contains(key),
                    JobClass::Loop => self.loops.contains(key),
                    JobClass::Linear => self.linears.contains(key),
                };
                groups.push(Group {
                    class,
                    key,
                    warm,
                    jobs: Vec::new(),
                });
                groups.len() - 1
            });
            groups[gi].jobs.push((i, job));
        }
        let ngroups = groups.len();
        let cold_groups = groups.iter().filter(|g| !g.warm).count();
        // Cold groups (the long-pole inspections) to the front of the
        // queue: workers that pull them build plans while other workers
        // drain the warm groups concurrently.
        groups.sort_by_key(|g| g.warm);

        let auto = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let workers = match self.cfg.batch_workers {
            0 => auto,
            w => w,
        }
        .min(ngroups)
        .max(1);

        let queue = Mutex::new(VecDeque::from(groups));
        let results: Mutex<Vec<(usize, Result<JobOutcome>)>> =
            Mutex::new(Vec::with_capacity(njobs));
        let drain = || loop {
            let group = queue.lock().unwrap_or_else(|e| e.into_inner()).pop_front();
            let Some(group) = group else { break };
            let outcomes = self.run_group(group);
            results
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend(outcomes);
        };
        if workers == 1 {
            drain();
        } else {
            // The submitting thread is one of the workers: spawn only the
            // extras, drain inline, and the scope joins the rest.
            std::thread::scope(|scope| {
                for _ in 0..workers - 1 {
                    scope.spawn(drain);
                }
                drain();
            });
        }

        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_jobs.fetch_add(njobs as u64, Ordering::Relaxed);

        let mut slots: Vec<Option<Result<JobOutcome>>> = (0..njobs).map(|_| None).collect();
        for (i, r) in results.into_inner().unwrap_or_else(|e| e.into_inner()) {
            slots[i] = Some(r);
        }
        BatchOutcome {
            jobs: slots
                .into_iter()
                .map(|s| s.expect("invariant: every submitted job produces exactly one outcome"))
                .collect(),
            wall: t0.elapsed(),
            groups: ngroups,
            cold_groups,
            workers,
        }
    }

    /// Runs one fingerprint group, amortizing lookup, leases, selector
    /// traffic, and (where inputs repeat) value gathers over its jobs.
    fn run_group<B: LoopBody>(&self, group: Group<'_, B>) -> Vec<(usize, Result<JobOutcome>)> {
        match group.class {
            JobClass::Solve => self.run_solve_group(group.key, group.jobs),
            JobClass::Loop => self.run_loop_group(group.key, group.jobs),
            JobClass::Linear => self.run_linear_group(group.key, group.jobs),
        }
    }

    fn run_solve_group<B: LoopBody>(
        &self,
        key: PatternFingerprint,
        jobs: Vec<(usize, Job<'_, B>)>,
    ) -> Vec<(usize, Result<JobOutcome>)> {
        if let Err(e) = self.breaker_admit(key) {
            return fail_all(jobs, e);
        }
        let first = match &jobs[0].1.kind {
            JobKind::Solve { factors, .. } => *factors,
            _ => unreachable!("solve group holds solve jobs"),
        };
        let mut built = false;
        let slot = self.solves.get_or_build(key, || {
            built = true;
            self.build_solve_entry(key, first)
        });
        let slot = match slot {
            Ok(s) => s,
            // A solve plan build reads *values* too (the zero-pivot check
            // and `U`'s diagonal inversion happen at plan time), so one
            // value-poisoned job must not sink its same-pattern peers:
            // fall back to the per-job front door, which retries the
            // build with each job's own factors (failed builds are
            // un-cached and retriable). Amortization is lost only on this
            // error path.
            Err(_) => {
                return jobs
                    .into_iter()
                    .map(|(i, job)| {
                        let deadline = job.deadline;
                        let JobKind::Solve { factors, b, x, .. } = job.kind else {
                            unreachable!("solve group holds solve jobs")
                        };
                        let token = deadline.map(CancelToken::with_deadline);
                        let r = self
                            .solve_with_cancel(key, factors, b, x, token.as_ref())
                            .map(JobOutcome::Solve);
                        self.note_job_result(key, &r);
                        (i, r)
                    })
                    .collect();
            }
        };
        let entry = slot.get();
        let kind = self.choose_policy(&entry.adaptive);
        let (mut scratch, info) = entry.scratches.lease(|| entry.plan.scratch());
        self.note_lease(info);
        let lease = kind.policy().map(|_| self.pools.lease());
        // Sequential group leaders: a factor object appearing exactly once
        // in the group gains nothing from the gather + run split (its
        // gather would serve only itself), so such jobs take the one-pass
        // fused sweep instead. Factors shared by two or more jobs keep the
        // split path — one gather amortizes over all of them. The fused
        // sweep never touches the scratch's loaded values, so the `loaded`
        // memo stays valid across the mix.
        let mut ptr_uses: HashMap<*const IluFactors, u32> = HashMap::new();
        if kind == ExecutorKind::Sequential {
            for (_, job) in &jobs {
                if let JobKind::Solve { factors, .. } = &job.kind {
                    let ptr: *const IluFactors = *factors;
                    *ptr_uses.entry(ptr).or_insert(0) += 1;
                }
            }
        }
        let mut loaded: Option<*const IluFactors> = None;
        let (mut wall_sum, mut runs) = (0.0f64, 0u64);
        let mut out = Vec::with_capacity(jobs.len());
        for (i, job) in jobs {
            let deadline = job.deadline;
            let JobKind::Solve { factors, b, x, .. } = job.kind else {
                unreachable!("solve group holds solve jobs")
            };
            let ptr: *const IluFactors = factors;
            let token = deadline.map(CancelToken::with_deadline);
            let r = (|| {
                let (fwd, bwd) = if ptr_uses.get(&ptr) == Some(&1) {
                    if let Some(cause) = token.as_ref().and_then(CancelToken::check) {
                        return Err(crate::RuntimeError::from(cause));
                    }
                    entry
                        .plan
                        .solve_fused_sequential(factors, b, x, &mut scratch)?
                } else {
                    if loaded != Some(ptr) {
                        loaded = None;
                        entry.plan.load_values(factors, &mut scratch)?;
                        loaded = Some(ptr);
                    }
                    entry.plan.solve_loaded_cancellable(
                        lease.as_deref(),
                        kind,
                        b,
                        x,
                        &mut scratch,
                        token.as_ref(),
                    )?
                };
                wall_sum += (fwd.wall + bwd.wall).as_nanos() as f64;
                runs += 1;
                Ok(JobOutcome::Solve(SolveOutcome {
                    policy: kind,
                    cached: !std::mem::take(&mut built),
                    pattern: key,
                    concurrent: info.active,
                    reports: (fwd, bwd),
                }))
            })();
            self.note_job_result(key, &r);
            out.push((i, r));
        }
        drop(scratch);
        self.observe_group(&entry.adaptive, kind, wall_sum, runs);
        out
    }

    /// Per-job epilogue of the batched runners: failure counters and the
    /// pattern's circuit.
    fn note_job_result(&self, key: PatternFingerprint, r: &Result<JobOutcome>) {
        self.breaker_note(key, r);
        if let Err(e) = r {
            self.count_error(e);
        }
    }

    fn run_loop_group<B: LoopBody>(
        &self,
        key: PatternFingerprint,
        jobs: Vec<(usize, Job<'_, B>)>,
    ) -> Vec<(usize, Result<JobOutcome>)> {
        if let Err(e) = self.breaker_admit(key) {
            return fail_all(jobs, e);
        }
        let spec = match &jobs[0].1.kind {
            JobKind::Loop { spec, .. } => *spec,
            _ => unreachable!("loop group holds loop jobs"),
        };
        let mut built = false;
        let slot = self.loops.get_or_build(key, || {
            built = true;
            self.build_loop_entry(spec.graph().clone())
        });
        let slot = match slot {
            Ok(s) => s,
            // Loop plans are built from the spec's *structure* alone, so a
            // build failure is identical for every job of the group.
            Err(e) => {
                let out = fail_all(jobs, e);
                for (_, r) in &out {
                    self.note_job_result(key, r);
                }
                return out;
            }
        };
        let entry = slot.get();
        let kind = self.choose_policy(&entry.adaptive);
        let (mut wall_sum, mut runs) = (0.0f64, 0u64);
        let mut results = Vec::with_capacity(jobs.len());
        // Sequential runs write straight to each job's buffer; parallel
        // kinds lease one scratch and one pool for the whole group.
        let leased = match kind.policy() {
            None => None,
            Some(policy) => {
                let (scratch, info) = entry.scratches.lease(|| entry.plan.scratch());
                self.note_lease(info);
                Some((scratch, info, policy, self.pools.lease()))
            }
        };
        let mut track = None;
        let concurrent = match &leased {
            Some((_, info, _, _)) => info.active,
            None => {
                let (guard, active) = entry.scratches.track();
                self.peak_same_pattern.fetch_max(active, Ordering::Relaxed);
                track = Some(guard);
                active
            }
        };
        for (i, job) in jobs {
            let deadline = job.deadline;
            let JobKind::Loop { body, out, .. } = job.kind else {
                unreachable!("loop group holds loop jobs")
            };
            let token = deadline.map(CancelToken::with_deadline);
            let r = (|| {
                let report = match &leased {
                    None => {
                        // Sequential runs have no cancellation points; the
                        // deadline gates entry, and a panicking body
                        // unwinds only to here.
                        if let Some(cause) = token.as_ref().and_then(CancelToken::check) {
                            return Err(crate::RuntimeError::from(cause));
                        }
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            entry.plan.run_sequential(body, out)
                        }))
                        .map_err(|_| crate::RuntimeError::BodyPanicked { workers: 0 })?
                    }
                    Some((scratch, _, policy, pool)) => {
                        entry
                            .plan
                            .try_run_in(scratch, pool, *policy, body, out, token.as_ref())?
                    }
                };
                wall_sum += report.wall.as_nanos() as f64;
                runs += 1;
                Ok(JobOutcome::Loop(RunOutcome {
                    policy: kind,
                    cached: !std::mem::take(&mut built),
                    pattern: key,
                    concurrent,
                    report,
                }))
            })();
            self.note_job_result(key, &r);
            results.push((i, r));
        }
        drop(leased);
        drop(track);
        self.observe_group(&entry.adaptive, kind, wall_sum, runs);
        results
    }

    fn run_linear_group<B: LoopBody>(
        &self,
        key: PatternFingerprint,
        jobs: Vec<(usize, Job<'_, B>)>,
    ) -> Vec<(usize, Result<JobOutcome>)> {
        if let Err(e) = self.breaker_admit(key) {
            return fail_all(jobs, e);
        }
        let spec = match &jobs[0].1.kind {
            JobKind::LinearLoop { spec, .. } => *spec,
            _ => unreachable!("linear group holds linear jobs"),
        };
        let mut built = false;
        let slot = self.linears.get_or_build(key, || {
            built = true;
            self.build_linear_entry(spec)
        });
        let slot = match slot {
            Ok(s) => s,
            // Compiled linear layouts are structure-only too (values only
            // enter at the per-job gather), so the failure is group-wide.
            Err(e) => {
                let out = fail_all(jobs, e);
                for (_, r) in &out {
                    self.note_job_result(key, r);
                }
                return out;
            }
        };
        let entry = slot.get();
        let kind = self.choose_policy(&entry.adaptive);
        let (mut scratch, info) = entry.scratches.lease(|| entry.plan.scratch());
        self.note_lease(info);
        let lease = kind.policy().map(|p| (p, self.pools.lease()));
        let mut loaded: Option<*const [f64]> = None;
        let (mut wall_sum, mut runs) = (0.0f64, 0u64);
        let mut out_vec = Vec::with_capacity(jobs.len());
        for (i, job) in jobs {
            let deadline = job.deadline;
            let JobKind::LinearLoop { vals, rhs, out, .. } = job.kind else {
                unreachable!("linear group holds linear jobs")
            };
            let ptr: *const [f64] = vals;
            let token = deadline.map(CancelToken::with_deadline);
            let r = (|| {
                if loaded != Some(ptr) {
                    loaded = None;
                    entry
                        .plan
                        .load_values(&mut scratch, vals)
                        .map_err(crate::service::map_compiled)?;
                    loaded = Some(ptr);
                }
                let report = match &lease {
                    None => {
                        if let Some(cause) = token.as_ref().and_then(CancelToken::check) {
                            return Err(crate::RuntimeError::from(cause));
                        }
                        entry.plan.run_sequential(&mut scratch, rhs, out)
                    }
                    Some((policy, pool)) => {
                        entry
                            .plan
                            .try_run(pool, *policy, &mut scratch, rhs, out, token.as_ref())?
                    }
                };
                wall_sum += report.wall.as_nanos() as f64;
                runs += 1;
                Ok(JobOutcome::Loop(RunOutcome {
                    policy: kind,
                    cached: !std::mem::take(&mut built),
                    pattern: key,
                    concurrent: info.active,
                    report,
                }))
            })();
            self.note_job_result(key, &r);
            out_vec.push((i, r));
        }
        drop(scratch);
        self.observe_group(&entry.adaptive, kind, wall_sum, runs);
        out_vec
    }
}

/// Every job of a group failed to even get a plan: report the build error
/// to each.
fn fail_all<B: LoopBody>(
    jobs: Vec<(usize, Job<'_, B>)>,
    e: crate::RuntimeError,
) -> Vec<(usize, Result<JobOutcome>)> {
    jobs.into_iter().map(|(i, _)| (i, Err(e.clone()))).collect()
}
