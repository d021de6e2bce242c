//! Simulation-as-a-service front end: netlists in, typed results out.
//!
//! [`JobQueue`] turns the AHFIC SPICE engine into a multi-tenant
//! service inside one process. A batch of [`JobRequest`]s — each a deck
//! (builder [`Circuit`] or raw netlist text), an analysis
//! [`JobSpec`], and per-job [`Options`] — fans out over the
//! work-stealing sample pool; every worker checks its deck out of one
//! shared [`PreparedCache`], so N jobs on the same circuit compile it
//! once and share the `Arc<Prepared>`. Netlist text reaches the cache
//! through its text index, so a job whose exact text the cache already
//! compiled skips the parse as well.
//!
//! The serving contract:
//!
//! - **Typed outcomes, never panics.** Each job runs under
//!   [`std::panic::catch_unwind`] supervision: a device model blowing a
//!   debug assertion becomes a typed [`JobError::WorkerPanic`] report
//!   while the worker recycles its parked state and keeps draining the
//!   queue. Parse errors, lint rejections, and solver failures degrade
//!   the same way, as [`JobError::Sim`] carrying the typed
//!   [`SpiceError`].
//! - **Cooperative cancellation.** Install a
//!   [`CancelToken`] in a job's
//!   options; the engine polls it at Newton-iteration and
//!   timestep boundaries. A cancelled transient returns a typed
//!   *partial* result (status [`TranStatus::Cancelled`]), not an error.
//! - **Resource budgets and wall-clock deadlines.** A per-job
//!   [`Budget`] bounds Newton iterations, wall-steps, batch lanes, and
//!   (via [`Budget::max_wall`]) elapsed time; exhaustion degrades to a
//!   typed partial (transient, PSS) or a `BudgetExhausted` failure
//!   (op), and a deadline trip bumps the `serve.deadline_exceeded`
//!   counter. Each attempt re-arms the wall clock when it starts, so the
//!   deadline bounds one attempt's compute, not queueing or backoff.
//! - **Retry with escalation.** A deterministic [`RetryPolicy`] re-runs
//!   jobs that failed retryably (`NoConvergence`, `SingularMatrix`,
//!   `NonFinite`) with seeded-jitter backoff, escalating
//!   non-convergence onto the full continuation ladder with a doubled
//!   Newton allowance. Per-attempt history lands in
//!   [`JobReport::attempts`].
//! - **Bounded admission.** [`QueueConfig::capacity`] plus a
//!   [`ShedPolicy`] turn overload into typed [`JobError::Shed`]
//!   outcomes instead of unbounded queueing, and a running queue drains
//!   gracefully through [`RunningQueue::shutdown_and_drain`].
//! - **Incremental streaming.** With
//!   [`Options::stream_every`](ahfic_spice::analysis::Options::stream_every)
//!   set and a [`JsonLinesSink`](ahfic_trace::JsonLinesSink) installed,
//!   transient jobs emit `progress.tran.*` records chunk by chunk while
//!   they run.
//! - **Warm-start reuse.** Each cache entry remembers the last
//!   converged operating point; later jobs on the same deck start
//!   Newton from it instead of a cold continuation-ladder climb. This
//!   is where most of the shared-cache throughput multiple comes from.
//!   (A retry clears the hint first, so a poisoned warm start cannot
//!   re-kill the attempt it caused.)
//!
//! Fault-tolerance observability is fixed-name: trace counters
//! `serve.panic_recovered`, `serve.retries`, `serve.shed`,
//! `serve.deadline_exceeded`, and a [`QueueStats`] snapshot from
//! [`JobQueue::stats`].

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

use ahfic::robust::SampleFailure;
use ahfic_spice::analysis::fault::splitmix64;
use ahfic_spice::analysis::{
    sample_pool_map, LadderConfig, Options, PssParams, PssResult, PssStatus, Session, TranParams,
    TranResult,
};
use ahfic_spice::cache::{CacheStats, CachedDeck, DeckKey, PreparedCache};
use ahfic_spice::circuit::Circuit;
use ahfic_spice::error::SpiceError;
use ahfic_spice::wave::{AcWaveform, Waveform};
use ahfic_trace::TraceHandle;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Upper bound on sessions a single worker parks for deck reuse; past
/// this a worker is clearly sweeping distinct decks and reuse buys
/// nothing.
const MAX_PARKED_SESSIONS: usize = 64;

pub use ahfic::robust::SampleFailure as SimFailure;
pub use ahfic_spice::analysis::noise::NoisePoint;
pub use ahfic_spice::analysis::OpResult;
pub use ahfic_spice::analysis::{Budget, CancelToken, Deadline, StreamPolicy, TranStatus};

/// The deck a job runs on: an already-built circuit or raw netlist
/// text parsed when the job executes, unless the cache's text index
/// already knows the text (a parse failure becomes that job's typed
/// failure, never an abort of the batch).
// A request holds exactly one deck for its whole lifetime; boxing the
// circuit would add an indirection per job without shrinking anything
// that is ever stored in bulk.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum DeckSource {
    /// A circuit built through the [`Circuit`] API.
    Circuit(Circuit),
    /// SPICE netlist text, parsed on the worker the first time the
    /// cache sees it (see
    /// [`PreparedCache::get_or_compile_text`]).
    Netlist(String),
}

impl From<Circuit> for DeckSource {
    fn from(c: Circuit) -> Self {
        DeckSource::Circuit(c)
    }
}

impl From<String> for DeckSource {
    fn from(s: String) -> Self {
        DeckSource::Netlist(s)
    }
}

impl From<&str> for DeckSource {
    fn from(s: &str) -> Self {
        DeckSource::Netlist(s.to_string())
    }
}

/// Which analysis a job runs.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum JobSpec {
    /// DC operating point.
    Op,
    /// DC transfer sweep of the named source over the given values.
    Dc {
        /// Independent source to sweep.
        source: String,
        /// Swept values.
        values: Vec<f64>,
    },
    /// AC sweep (operating point computed implicitly).
    Ac {
        /// Sweep frequencies (Hz).
        freqs: Vec<f64>,
    },
    /// Noise analysis at the named output node (operating point
    /// computed implicitly).
    Noise {
        /// Output node name.
        output: String,
        /// Analysis frequencies (Hz).
        freqs: Vec<f64>,
    },
    /// Transient simulation.
    Tran(TranParams),
    /// Periodic steady state by shooting Newton. Cancellation and
    /// budget exhaustion are polled at shooting-iteration boundaries
    /// (and inside each period integration at timestep boundaries);
    /// both degrade to a typed partial result carrying the best orbit
    /// found so far.
    Pss(PssParams),
}

/// One unit of work for the queue.
#[derive(Clone, Debug)]
pub struct JobRequest {
    deck: DeckSource,
    spec: JobSpec,
    options: Options,
    label: String,
}

impl JobRequest {
    /// A job running `spec` on `deck` under default options.
    pub fn new(deck: impl Into<DeckSource>, spec: JobSpec) -> Self {
        JobRequest {
            deck: deck.into(),
            spec,
            options: Options::default(),
            label: String::new(),
        }
    }

    /// Replaces the job's analysis options — solver choice, lint
    /// policy, trace sink, cancel handle, budget, stream policy
    /// (chainable).
    pub fn options(mut self, options: Options) -> Self {
        self.options = options;
        self
    }

    /// Attaches a human-readable label carried into the report and any
    /// failure (chainable).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

/// A successful job's typed result.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum JobOutput {
    /// Operating-point solution.
    Op(OpResult),
    /// DC sweep waveform.
    Dc(Waveform),
    /// AC sweep waveform.
    Ac(AcWaveform),
    /// Noise spectrum.
    Noise(Vec<NoisePoint>),
    /// Transient result — inspect
    /// [`status()`](ahfic_spice::analysis::TranResult::status): a
    /// cancelled or budget-exhausted run still lands here, with the
    /// partial waveform.
    Tran(TranResult),
    /// Periodic-steady-state result — inspect
    /// [`status()`](ahfic_spice::analysis::PssResult::status); a
    /// cancelled or budget-exhausted run still lands here, with the
    /// best orbit found so far.
    Pss(PssResult),
}

impl JobOutput {
    /// The transient result, if this job ran a transient.
    pub fn as_tran(&self) -> Option<&TranResult> {
        match self {
            JobOutput::Tran(t) => Some(t),
            _ => None,
        }
    }

    /// The operating-point result, if this job ran an OP.
    pub fn as_op(&self) -> Option<&OpResult> {
        match self {
            JobOutput::Op(r) => Some(r),
            _ => None,
        }
    }

    /// The periodic-steady-state result, if this job ran a PSS.
    pub fn as_pss(&self) -> Option<&PssResult> {
        match self {
            JobOutput::Pss(r) => Some(r),
            _ => None,
        }
    }
}

/// Why the queue could not produce a result for a job.
#[derive(Debug)]
#[non_exhaustive]
pub enum JobError {
    /// The analysis failed with a typed engine error — parse, lint,
    /// netlist, solver, cancellation, or budget exhaustion — after all
    /// configured attempts.
    Sim(SampleFailure),
    /// The job panicked (e.g. a device model's debug assertion fired).
    /// The panic was caught at the supervision boundary, the worker's
    /// parked per-deck state was discarded, and the queue kept
    /// draining.
    WorkerPanic {
        /// The panic payload, stringified (`"non-string panic payload"`
        /// when the payload was neither `String` nor `&str`).
        payload: String,
        /// The job's submission index / id.
        job_id: usize,
    },
    /// The queue refused the job under overload per its
    /// [`ShedPolicy`].
    Shed {
        /// The configured [`QueueConfig::capacity`] that was full.
        capacity: usize,
    },
}

impl JobError {
    /// The underlying sample failure, when the job failed in the
    /// engine.
    pub fn sim(&self) -> Option<&SampleFailure> {
        match self {
            JobError::Sim(f) => Some(f),
            _ => None,
        }
    }

    /// The typed engine error, when the job failed in the engine.
    pub fn error(&self) -> Option<&SpiceError> {
        self.sim().map(|f| &f.error)
    }

    /// Whether this is a caught worker panic.
    pub fn is_panic(&self) -> bool {
        matches!(self, JobError::WorkerPanic { .. })
    }

    /// Whether the job was load-shed.
    pub fn is_shed(&self) -> bool {
        matches!(self, JobError::Shed { .. })
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Sim(s) => write!(f, "{s}"),
            JobError::WorkerPanic { payload, job_id } => {
                write!(f, "job {job_id} panicked: {payload}")
            }
            JobError::Shed { capacity } => {
                write!(f, "job shed: queue at capacity {capacity}")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// One entry of a job's retry history.
///
/// History is recorded from the first failed attempt onwards: a job
/// that succeeds on its first try keeps an empty
/// [`JobReport::attempts`], so the fault-free fast path allocates
/// nothing.
#[derive(Clone, Debug)]
pub struct AttemptRecord {
    /// 1-based attempt number.
    pub attempt: usize,
    /// Whether this attempt ran with escalated options (full
    /// continuation ladder, doubled Newton allowance).
    pub escalated: bool,
    /// Deterministic backoff slept before this attempt, in ms.
    pub backoff_ms: u64,
    /// What the attempt produced: `"ok"`, the error display, or
    /// `"panic: …"`.
    pub outcome: String,
}

/// Deterministic retry schedule for retryable engine failures.
///
/// Retryable: [`SpiceError::NoConvergence`], [`SpiceError::Singular`],
/// [`SpiceError::NonFinite`] — transient numerical trouble (often from
/// a poisoned warm start or an injected fault) that a fresh, possibly
/// escalated attempt can clear. Everything else — parse/lint/netlist
/// errors (deterministic), cancellation and budget exhaustion (the
/// caller asked to stop), panics (the job itself is the suspect) — is
/// never retried.
///
/// Backoff is seeded-jitter exponential: attempt `k` (2-based) sleeps
/// `base·2^(k-2) + splitmix64(seed, job, k) mod base` ms, so schedules
/// are reproducible run to run and decorrelated job to job. The default
/// base of 0 disables sleeping entirely, which is what tests want.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (clamped to ≥ 1).
    pub max_attempts: usize,
    /// Base backoff in ms; 0 = no sleep between attempts.
    pub backoff_base_ms: u64,
    /// Seed for the deterministic jitter.
    pub seed: u64,
    /// Whether a `NoConvergence` retry escalates onto the full
    /// continuation ladder with a doubled Newton allowance.
    /// `Singular`/`NonFinite` (and injected faults generally) are
    /// always retried verbatim.
    pub escalate: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_base_ms: 0,
            seed: 0x5eed_c0de,
            escalate: true,
        }
    }
}

impl RetryPolicy {
    /// A policy allowing `n` total attempts (clamped to ≥ 1), no
    /// backoff sleep, escalation on.
    pub fn attempts(n: usize) -> Self {
        RetryPolicy {
            max_attempts: n.max(1),
            ..RetryPolicy::default()
        }
    }

    /// Sets the base backoff in ms (chainable).
    pub fn backoff_base_ms(mut self, ms: u64) -> Self {
        self.backoff_base_ms = ms;
        self
    }

    /// Sets the jitter seed (chainable).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables ladder escalation on `NoConvergence`
    /// retries (chainable).
    pub fn escalate(mut self, on: bool) -> Self {
        self.escalate = on;
        self
    }

    /// Whether `e` is worth another attempt.
    pub fn retryable(&self, e: &SpiceError) -> bool {
        matches!(
            e,
            SpiceError::NoConvergence { .. }
                | SpiceError::Singular { .. }
                | SpiceError::NonFinite { .. }
        )
    }

    /// Deterministic backoff before attempt `attempt` (2-based in
    /// practice; attempt 1 never sleeps) of job `job`.
    pub fn backoff_ms(&self, job: u64, attempt: u64) -> u64 {
        if self.backoff_base_ms == 0 || attempt < 2 {
            return 0;
        }
        let exp = self
            .backoff_base_ms
            .saturating_mul(1u64 << (attempt - 2).min(16));
        let jitter = splitmix64(self.seed ^ (job << 32) ^ attempt) % self.backoff_base_ms;
        exp.saturating_add(jitter)
    }
}

/// What a full queue does with the overflow.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum ShedPolicy {
    /// Refuse the newly arriving job — the default.
    #[default]
    RejectNewest,
    /// Drop the oldest still-pending job to admit the new one.
    RejectOldest,
}

/// Everything the queue reports back for one job.
#[derive(Debug)]
#[non_exhaustive]
pub struct JobReport {
    /// Zero-based position of the job in the submitted batch (or its
    /// submission id on a running queue).
    pub index: usize,
    /// The label given at submission.
    pub label: String,
    /// The typed result, or the typed failure that killed the job.
    pub outcome: Result<JobOutput, JobError>,
    /// Whether the deck came out of the shared cache already compiled.
    pub cache_hit: bool,
    /// Per-attempt retry history; empty when the first attempt
    /// succeeded.
    pub attempts: Vec<AttemptRecord>,
}

impl JobReport {
    /// Zero-based position of the job in the submitted batch.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The label given at submission.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The typed result, or the typed failure that killed the job.
    pub fn outcome(&self) -> &Result<JobOutput, JobError> {
        &self.outcome
    }

    /// Whether the deck came out of the shared cache already compiled.
    pub fn cache_hit(&self) -> bool {
        self.cache_hit
    }

    /// Per-attempt retry history; empty when the first attempt
    /// succeeded.
    pub fn attempts(&self) -> &[AttemptRecord] {
        &self.attempts
    }

    /// Whether the job produced a result.
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }
}

/// Monotonic fault-tolerance counters for one queue, snapshot via
/// [`JobQueue::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct QueueStats {
    /// Jobs accepted (batch or [`RunningQueue::submit`]). Shed jobs
    /// count in [`QueueStats::shed`], not here, on both paths.
    pub submitted: u64,
    /// Jobs that returned a [`JobOutput`].
    pub completed: u64,
    /// Jobs that returned [`JobError::Sim`] or
    /// [`JobError::WorkerPanic`].
    pub failed: u64,
    /// Jobs refused or dropped under the [`ShedPolicy`] (including
    /// drain-deadline sheds).
    pub shed: u64,
    /// Retry attempts scheduled by the [`RetryPolicy`].
    pub retries: u64,
    /// Panics caught at the supervision boundary.
    pub panics_recovered: u64,
    /// Jobs whose outcome hit a wall-clock deadline
    /// (`"wall_clock_ms"` budget exhaustion, full or partial).
    pub deadline_exceeded: u64,
}

/// Shared atomic cells behind [`QueueStats`].
#[derive(Debug, Default)]
struct StatsCells {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    retries: AtomicU64,
    panics_recovered: AtomicU64,
    deadline_exceeded: AtomicU64,
}

impl StatsCells {
    fn snapshot(&self) -> QueueStats {
        QueueStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            panics_recovered: self.panics_recovered.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
        }
    }

    fn bump(cell: &AtomicU64) {
        cell.fetch_add(1, Ordering::Relaxed);
    }
}

/// Queue tuning knobs.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct QueueConfig {
    /// Worker threads; 0 resolves to the machine's parallelism.
    pub threads: usize,
    /// Compiled-deck cache capacity (decks, not bytes).
    pub cache_capacity: usize,
    /// Trace handle for queue-level telemetry (`job.done`,
    /// `job.failed`, `serve.*` counters and the cache's
    /// hit/miss/evict stream).
    pub trace: TraceHandle,
    /// Admission bound: pending jobs beyond this are shed per
    /// [`QueueConfig::shed_policy`]. 0 = unbounded (the default).
    pub capacity: usize,
    /// What to do with overflow when [`QueueConfig::capacity`] is hit.
    pub shed_policy: ShedPolicy,
    /// Retry schedule for retryable engine failures. The default
    /// allows a single attempt (no retries).
    pub retry: RetryPolicy,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            threads: 0,
            cache_capacity: 64,
            trace: TraceHandle::off(),
            capacity: 0,
            shed_policy: ShedPolicy::RejectNewest,
            retry: RetryPolicy::default(),
        }
    }
}

impl QueueConfig {
    /// Default configuration: auto thread count, 64-deck cache, no
    /// tracing, unbounded admission, no retries.
    pub fn new() -> Self {
        QueueConfig::default()
    }

    /// Sets the worker thread count (0 = auto, 1 = inline).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the compiled-deck cache capacity (clamped to ≥ 1).
    pub fn cache_capacity(mut self, decks: usize) -> Self {
        self.cache_capacity = decks.max(1);
        self
    }

    /// Routes queue and cache telemetry to `trace`.
    pub fn trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// Bounds admission to `capacity` pending jobs (0 = unbounded).
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Sets the overflow policy used when the capacity bound is hit.
    pub fn shed_policy(mut self, policy: ShedPolicy) -> Self {
        self.shed_policy = policy;
        self
    }

    /// Installs a retry schedule.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// A concurrent simulation job queue over one shared compile cache.
///
/// ```
/// use ahfic_serve::{JobQueue, JobRequest, JobSpec, QueueConfig};
/// use ahfic_spice::circuit::Circuit;
///
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.vsource("V1", a, Circuit::gnd(), 2.0);
/// ckt.resistor("R1", a, Circuit::gnd(), 1e3);
///
/// let queue = JobQueue::new(QueueConfig::new().threads(2));
/// let jobs = (0..4)
///     .map(|i| JobRequest::new(ckt.clone(), JobSpec::Op).label(format!("job {i}")))
///     .collect();
/// let reports = queue.run(jobs);
/// assert!(reports.iter().all(|r| r.is_ok()));
/// // One compile served all four jobs.
/// assert_eq!(queue.cache_stats().compiles(), 1);
/// ```
#[derive(Debug)]
pub struct JobQueue {
    cache: Arc<PreparedCache>,
    config: QueueConfig,
    stats: Arc<StatsCells>,
}

/// What one supervised attempt produced, crossing the `catch_unwind`
/// boundary by value.
struct AttemptOutcome {
    outcome: Result<JobOutput, SpiceError>,
    cache_hit: bool,
    deck: Option<CachedDeck>,
}

/// Stringifies a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => match p.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// Whether an attempt's outcome records a tripped wall-clock deadline —
/// either a hard `BudgetExhausted` failure or a typed partial result.
fn deadline_tripped(outcome: &Result<JobOutput, SpiceError>) -> bool {
    match outcome {
        Err(SpiceError::BudgetExhausted { resource, .. }) => *resource == "wall_clock_ms",
        Ok(JobOutput::Tran(t)) => matches!(
            t.status(),
            TranStatus::BudgetExhausted { resource, .. } if *resource == "wall_clock_ms"
        ),
        Ok(JobOutput::Pss(p)) => matches!(
            p.status(),
            PssStatus::BudgetExhausted { resource, .. } if *resource == "wall_clock_ms"
        ),
        _ => false,
    }
}

impl JobQueue {
    /// A queue with its own cache sized by `config.cache_capacity`.
    pub fn new(config: QueueConfig) -> Self {
        let cache = Arc::new(PreparedCache::with_trace(
            config.cache_capacity,
            config.trace.clone(),
        ));
        JobQueue {
            cache,
            config,
            stats: Arc::new(StatsCells::default()),
        }
    }

    /// A queue sharing an existing cache (e.g. with other queues or
    /// with direct [`Session::compile_cached`] users).
    pub fn with_cache(cache: Arc<PreparedCache>, config: QueueConfig) -> Self {
        JobQueue {
            cache,
            config,
            stats: Arc::new(StatsCells::default()),
        }
    }

    /// The shared compile cache.
    pub fn cache(&self) -> &Arc<PreparedCache> {
        &self.cache
    }

    /// Compile-cache effectiveness counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Fault-tolerance counters accumulated over this queue's life.
    pub fn stats(&self) -> QueueStats {
        self.stats.snapshot()
    }

    /// Runs a batch of jobs across the worker pool, returning one
    /// report per job in submission order.
    ///
    /// Workers claim jobs through an atomic cursor (work stealing), so
    /// a slow transient does not serialize the queue behind it. This
    /// call never fails as a whole: per-job errors come back as typed
    /// failures inside the reports, a panicking job as a typed
    /// [`JobError::WorkerPanic`], and — when
    /// [`QueueConfig::capacity`] bounds the batch — overflow jobs as
    /// typed [`JobError::Shed`] reports, still in submission order.
    pub fn run(&self, jobs: Vec<JobRequest>) -> Vec<JobReport> {
        let n = jobs.len();
        let tr = self.config.trace.tracer();
        let span = tr.span("serve.batch");
        let capacity = self.config.capacity;
        let (run_idx, shed_idx): (Vec<usize>, Vec<usize>) = if capacity > 0 && n > capacity {
            match self.config.shed_policy {
                ShedPolicy::RejectNewest => ((0..capacity).collect(), (capacity..n).collect()),
                ShedPolicy::RejectOldest => {
                    (((n - capacity)..n).collect(), (0..n - capacity).collect())
                }
            }
        } else {
            ((0..n).collect(), Vec::new())
        };
        // Count only admitted jobs, matching `RunningQueue::submit`:
        // shed jobs land in `QueueStats::shed`, never in `submitted`.
        self.stats
            .submitted
            .fetch_add(run_idx.len() as u64, Ordering::Relaxed);
        let mut slots: Vec<Option<JobReport>> = (0..n).map(|_| None).collect();
        for &i in &shed_idx {
            tr.counter("serve.shed", 1.0);
            StatsCells::bump(&self.stats.shed);
            slots[i] = Some(JobReport {
                index: i,
                label: jobs[i].label.clone(),
                outcome: Err(JobError::Shed { capacity }),
                cache_hit: false,
                attempts: Vec::new(),
            });
        }
        let ran: Vec<JobReport> = sample_pool_map(
            self.config.threads,
            run_idx.len(),
            1,
            |_| HashMap::new(),
            |sessions, k| self.run_one_with(run_idx[k], &jobs[run_idx[k]], sessions),
        );
        for r in ran {
            let i = r.index;
            slots[i] = Some(r);
        }
        // Every slot was filled above (shed or ran); flatten keeps
        // submission order.
        let reports: Vec<JobReport> = slots.into_iter().flatten().collect();
        debug_assert_eq!(reports.len(), n, "exactly one report per job");
        tr.counter("serve.jobs", n as f64);
        tr.counter(
            "serve.failed",
            reports.iter().filter(|r| !r.is_ok()).count() as f64,
        );
        span.end();
        reports
    }

    /// Runs one job synchronously on the caller's thread (still
    /// through the shared cache, supervision, and retry policy).
    pub fn run_one(&self, index: usize, job: &JobRequest) -> JobReport {
        StatsCells::bump(&self.stats.submitted);
        self.run_one_with(index, job, &mut HashMap::new())
    }

    /// Starts persistent workers over this queue, returning a handle
    /// that accepts [`RunningQueue::submit`] until
    /// [`RunningQueue::shutdown_and_drain`].
    pub fn start(self) -> RunningQueue {
        RunningQueue::spawn(self)
    }

    /// One job, supervised and retried per the queue's [`RetryPolicy`],
    /// against a worker-local session pool keyed by deck content so
    /// consecutive jobs on one deck keep the session's warmed Newton
    /// workspace alongside the cache's operating-point hint.
    fn run_one_with(
        &self,
        index: usize,
        job: &JobRequest,
        sessions: &mut HashMap<DeckKey, Session>,
    ) -> JobReport {
        let max_attempts = self.config.retry.max_attempts.max(1);
        let mut attempts: Vec<AttemptRecord> = Vec::new();
        let mut escalations = 0u32;
        for attempt in 1..=max_attempts {
            let backoff_ms = self.config.retry.backoff_ms(index as u64, attempt as u64);
            if backoff_ms > 0 {
                std::thread::sleep(Duration::from_millis(backoff_ms));
            }
            // UnwindSafe audit for the supervision boundary. Mutable
            // state crossing it: (a) the worker's parked-session map —
            // the in-use session was already checked *out* of it, and
            // on a panic the whole map is discarded below, so no
            // half-updated workspace survives; (b) the shared
            // `PreparedCache` — its mutexes only guard short clone /
            // bookkeeping sections that run no model code, and a panic
            // inside `OnceLock::get_or_init` leaves the cell empty,
            // not poisoned; (c) trace sinks, which do their own
            // locking. Hence `AssertUnwindSafe` is sound here.
            let caught = catch_unwind(AssertUnwindSafe(|| {
                self.attempt_job(job, sessions, escalations)
            }));
            let tr = self.config.trace.tracer();
            let a = match caught {
                Err(payload) => {
                    // Worker recycle: parked sessions may have been
                    // mid-mutation when the panic unwound; drop them all
                    // and let later jobs check out fresh ones.
                    sessions.clear();
                    tr.counter("serve.panic_recovered", 1.0);
                    StatsCells::bump(&self.stats.panics_recovered);
                    let payload = panic_message(payload);
                    attempts.push(AttemptRecord {
                        attempt,
                        escalated: escalations > 0,
                        backoff_ms,
                        outcome: format!("panic: {payload}"),
                    });
                    tr.counter("job.failed", 1.0);
                    StatsCells::bump(&self.stats.failed);
                    return JobReport {
                        index,
                        label: job.label.clone(),
                        outcome: Err(JobError::WorkerPanic {
                            payload,
                            job_id: index,
                        }),
                        cache_hit: false,
                        attempts,
                    };
                }
                Ok(a) => a,
            };
            if deadline_tripped(&a.outcome) {
                tr.counter("serve.deadline_exceeded", 1.0);
                StatsCells::bump(&self.stats.deadline_exceeded);
            }
            match a.outcome {
                Ok(out) => {
                    if !attempts.is_empty() {
                        attempts.push(AttemptRecord {
                            attempt,
                            escalated: escalations > 0,
                            backoff_ms,
                            outcome: "ok".to_string(),
                        });
                    }
                    tr.counter("job.done", 1.0);
                    StatsCells::bump(&self.stats.completed);
                    return JobReport {
                        index,
                        label: job.label.clone(),
                        outcome: Ok(out),
                        cache_hit: a.cache_hit,
                        attempts,
                    };
                }
                Err(e) => {
                    // Cancellation observed between attempts wins over
                    // the retry schedule: a cancelled job must not keep
                    // burning attempts (and must still yield exactly
                    // one report).
                    let will_retry = attempt < max_attempts
                        && self.config.retry.retryable(&e)
                        && !job.options.cancel.cancelled();
                    attempts.push(AttemptRecord {
                        attempt,
                        escalated: escalations > 0,
                        backoff_ms,
                        outcome: e.to_string(),
                    });
                    if will_retry {
                        if self.config.retry.escalate
                            && matches!(e, SpiceError::NoConvergence { .. })
                        {
                            escalations += 1;
                        }
                        // Heal a possibly poisoned warm start: the next
                        // attempt cold-starts rather than re-reading
                        // the hint that may have killed this one.
                        if let Some(deck) = &a.deck {
                            deck.clear_op_hint();
                        }
                        tr.counter("serve.retries", 1.0);
                        StatsCells::bump(&self.stats.retries);
                        continue;
                    }
                    tr.counter("job.failed", 1.0);
                    StatsCells::bump(&self.stats.failed);
                    return JobReport {
                        index,
                        label: job.label.clone(),
                        outcome: Err(JobError::Sim(SampleFailure::new(
                            index,
                            job.label.clone(),
                            e,
                        ))),
                        cache_hit: a.cache_hit,
                        attempts,
                    };
                }
            }
        }
        unreachable!("retry loop returns on every attempt outcome")
    }

    /// One unsupervised attempt: check the deck out of the shared cache
    /// (parsing netlist text the cache's text index does not know, and
    /// compiling on a miss), run the analysis on a checked-out session.
    fn attempt_job(
        &self,
        job: &JobRequest,
        sessions: &mut HashMap<DeckKey, Session>,
        escalations: u32,
    ) -> AttemptOutcome {
        let fail = |e: SpiceError| AttemptOutcome {
            outcome: Err(e),
            cache_hit: false,
            deck: None,
        };
        // The attempt's wall-clock deadline starts now.
        let options = job.options.clone().budget(job.options.budget.rearmed());
        let options = if escalations > 0 {
            // Escalated retry: the full continuation ladder plus a
            // doubled (per level) Newton allowance.
            options.ladder(LadderConfig::default()).max_newton(
                job.options
                    .max_newton
                    .saturating_mul(1 << escalations.min(4)),
            )
        } else {
            options
        };
        // Netlist text goes through the cache's text index, so a hot deck
        // is served without a parse.
        let deck = match &job.deck {
            DeckSource::Circuit(c) => self.cache.get_or_compile(c, options.lint),
            DeckSource::Netlist(text) => self.cache.get_or_compile_text(text, options.lint),
        };
        let deck = match deck {
            Ok(d) => d,
            Err(e) => return fail(e),
        };
        let cache_hit = deck.was_hit();
        // Check out this worker's parked session for the deck (fresh if
        // none); the job's own options always replace whatever the
        // previous job left installed.
        let key = deck.key();
        let mut sess = match sessions.remove(&key) {
            Some(s) => s.with_options(options.clone()),
            None => Session::from_arc(deck.prepared_arc()).with_options(options.clone()),
        };
        let warm = deck.op_hint();
        // Solve the implicit operating point once for the specs that
        // need one, warm-started from the deck's last converged
        // solution; park the fresh solution back on the cache entry.
        let op_for = |sess: &Session| {
            let r = sess.op_from(warm.as_deref())?;
            deck.store_op_hint(r.x());
            Ok::<_, SpiceError>(r)
        };
        let outcome = match &job.spec {
            JobSpec::Op => op_for(&sess).map(JobOutput::Op),
            JobSpec::Dc { source, values } => sess.dc(source, values).map(JobOutput::Dc),
            JobSpec::Ac { freqs } => op_for(&sess)
                .and_then(|r| sess.ac(r.x(), freqs))
                .map(JobOutput::Ac),
            JobSpec::Noise { output, freqs } => match sess.prepared().circuit.find_node(output) {
                None => Err(SpiceError::Netlist(format!("no node named {output}"))),
                Some(node) => op_for(&sess)
                    .and_then(|r| sess.noise(r.x(), node, freqs))
                    .map(JobOutput::Noise),
            },
            JobSpec::Tran(params) => sess.tran(params).map(JobOutput::Tran),
            JobSpec::Pss(params) => sess.pss(params).map(JobOutput::Pss),
        };
        // Park the session for the worker's next job on this deck. A DC
        // sweep copies the shared deck on write, so its session is
        // dropped rather than parked with a diverged copy; the pool is
        // bounded so a worker churning through many decks cannot hoard
        // memory.
        if !matches!(job.spec, JobSpec::Dc { .. }) && sessions.len() < MAX_PARKED_SESSIONS {
            sessions.insert(key, sess);
        }
        AttemptOutcome {
            outcome,
            cache_hit,
            deck: Some(deck),
        }
    }
}

/// Mutable queue state shared between submitters and workers.
struct QueueState {
    pending: VecDeque<(usize, JobRequest)>,
    accepting: bool,
    /// Cancellation handles of jobs currently executing, so a drain
    /// deadline can stop them cooperatively.
    in_flight: Vec<(usize, ahfic_spice::analysis::CancelHandle)>,
    reports: Vec<JobReport>,
    next_id: usize,
}

struct QueueShared {
    queue: JobQueue,
    state: Mutex<QueueState>,
    cv: Condvar,
}

/// A [`JobQueue`] with persistent workers: submit jobs one at a time,
/// then drain.
///
/// Admission control applies at [`RunningQueue::submit`]: a full queue
/// sheds per the [`ShedPolicy`] — `RejectNewest` returns the typed
/// [`JobError::Shed`] to the submitter (no report is queued),
/// `RejectOldest` drops the oldest pending job, whose shed *report*
/// surfaces in the drain output. Every job accepted into the queue
/// yields exactly one report.
///
/// ```
/// use ahfic_serve::{JobQueue, JobRequest, JobSpec, QueueConfig};
/// use ahfic_spice::circuit::Circuit;
/// use std::time::Duration;
///
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.vsource("V1", a, Circuit::gnd(), 2.0);
/// ckt.resistor("R1", a, Circuit::gnd(), 1e3);
///
/// let running = JobQueue::new(QueueConfig::new().threads(2)).start();
/// for i in 0..4 {
///     running
///         .submit(JobRequest::new(ckt.clone(), JobSpec::Op).label(format!("job {i}")))
///         .unwrap();
/// }
/// let reports = running.shutdown_and_drain(Duration::from_secs(30));
/// assert_eq!(reports.len(), 4);
/// assert!(reports.iter().all(|r| r.is_ok()));
/// ```
pub struct RunningQueue {
    shared: Arc<QueueShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl RunningQueue {
    fn spawn(queue: JobQueue) -> Self {
        let threads = match queue.config.threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            t => t,
        };
        let shared = Arc::new(QueueShared {
            queue,
            state: Mutex::new(QueueState {
                pending: VecDeque::new(),
                accepting: true,
                in_flight: Vec::new(),
                reports: Vec::new(),
                next_id: 0,
            }),
            cv: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || Self::worker_loop(&shared))
            })
            .collect();
        RunningQueue { shared, workers }
    }

    // A poisoned state mutex means a worker panicked *outside* the
    // supervised job body (a queue bug, not a job fault); propagating
    // that panic is the correct fail-fast.
    #[allow(clippy::expect_used)]
    fn lock(shared: &QueueShared) -> std::sync::MutexGuard<'_, QueueState> {
        shared.state.lock().expect("queue state poisoned")
    }

    fn worker_loop(shared: &QueueShared) {
        let mut sessions: HashMap<DeckKey, Session> = HashMap::new();
        loop {
            let (id, job) = {
                let mut st = Self::lock(shared);
                loop {
                    if let Some((id, mut job)) = st.pending.pop_front() {
                        // Every in-flight job must be cancellable so a
                        // drain deadline can reach it; install a token
                        // when the submitter didn't. The in-flight
                        // registration happens in the same critical
                        // section as the pop: a gap between them would
                        // let `shutdown_and_drain` observe pending and
                        // in_flight both empty, take the reports, and
                        // lose this job's (or let its cancel sweep miss
                        // the job entirely).
                        if !job.options.cancel.enabled() {
                            let token = CancelToken::new();
                            job.options = job.options.clone().cancel_token(&token);
                        }
                        st.in_flight.push((id, job.options.cancel.clone()));
                        break (id, job);
                    }
                    if !st.accepting {
                        return;
                    }
                    // Lost wakeups are the classic drain hang; wait on
                    // the shared condvar that submit/shutdown notify.
                    #[allow(clippy::expect_used)]
                    {
                        st = shared.cv.wait(st).expect("queue state poisoned");
                    }
                }
            };
            let report = shared.queue.run_one_with(id, &job, &mut sessions);
            {
                let mut st = Self::lock(shared);
                st.in_flight.retain(|(i, _)| *i != id);
                st.reports.push(report);
            }
            shared.cv.notify_all();
        }
    }

    /// The underlying queue (cache, stats).
    pub fn queue(&self) -> &JobQueue {
        &self.shared.queue
    }

    /// Fault-tolerance counters accumulated so far.
    pub fn stats(&self) -> QueueStats {
        self.shared.queue.stats()
    }

    /// Submits one job, returning its id (the `index` of its eventual
    /// report).
    ///
    /// # Errors
    ///
    /// [`JobError::Shed`] when the queue is full under
    /// [`ShedPolicy::RejectNewest`] or has stopped accepting.
    pub fn submit(&self, job: JobRequest) -> Result<usize, JobError> {
        let shared = &self.shared;
        let capacity = shared.queue.config.capacity;
        let tr = shared.queue.config.trace.tracer();
        let mut st = Self::lock(shared);
        if !st.accepting {
            tr.counter("serve.shed", 1.0);
            StatsCells::bump(&shared.queue.stats.shed);
            return Err(JobError::Shed { capacity });
        }
        if capacity > 0 && st.pending.len() >= capacity {
            match shared.queue.config.shed_policy {
                ShedPolicy::RejectNewest => {
                    tr.counter("serve.shed", 1.0);
                    StatsCells::bump(&shared.queue.stats.shed);
                    return Err(JobError::Shed { capacity });
                }
                ShedPolicy::RejectOldest => {
                    if let Some((old_id, old_job)) = st.pending.pop_front() {
                        tr.counter("serve.shed", 1.0);
                        StatsCells::bump(&shared.queue.stats.shed);
                        st.reports.push(JobReport {
                            index: old_id,
                            label: old_job.label,
                            outcome: Err(JobError::Shed { capacity }),
                            cache_hit: false,
                            attempts: Vec::new(),
                        });
                    }
                }
            }
        }
        let id = st.next_id;
        st.next_id += 1;
        StatsCells::bump(&shared.queue.stats.submitted);
        st.pending.push_back((id, job));
        drop(st);
        shared.cv.notify_one();
        Ok(id)
    }

    /// Stops admissions, waits up to `deadline` for pending and
    /// in-flight jobs to finish, then sheds what is still pending and
    /// cancels what is still running (each in-flight job stops at its
    /// next solver boundary and still reports). Returns every accepted
    /// job's report in submission order — exactly one per job.
    pub fn shutdown_and_drain(mut self, deadline: Duration) -> Vec<JobReport> {
        let shared = Arc::clone(&self.shared);
        let tr = shared.queue.config.trace.tracer();
        let deadline_at = Instant::now() + deadline;
        {
            let mut st = Self::lock(&shared);
            st.accepting = false;
        }
        shared.cv.notify_all();
        let mut st = Self::lock(&shared);
        loop {
            if st.pending.is_empty() && st.in_flight.is_empty() {
                break;
            }
            let now = Instant::now();
            if now >= deadline_at {
                // Past the drain deadline: shed everything still
                // pending (typed report each), cancel everything
                // in-flight, and wait for the cancellations to land —
                // cooperative cancellation stops within one solver
                // boundary, so this tail is short.
                let capacity = shared.queue.config.capacity;
                while let Some((id, job)) = st.pending.pop_front() {
                    tr.counter("serve.shed", 1.0);
                    StatsCells::bump(&shared.queue.stats.shed);
                    st.reports.push(JobReport {
                        index: id,
                        label: job.label,
                        outcome: Err(JobError::Shed { capacity }),
                        cache_hit: false,
                        attempts: Vec::new(),
                    });
                }
                for (_, handle) in &st.in_flight {
                    handle.cancel();
                }
                shared.cv.notify_all();
                while !st.in_flight.is_empty() {
                    #[allow(clippy::expect_used)]
                    {
                        st = shared.cv.wait(st).expect("queue state poisoned");
                    }
                }
                break;
            }
            #[allow(clippy::expect_used)]
            {
                let (guard, _) = shared
                    .cv
                    .wait_timeout(st, deadline_at - now)
                    .expect("queue state poisoned");
                st = guard;
            }
        }
        let mut reports = std::mem::take(&mut st.reports);
        drop(st);
        shared.cv.notify_all();
        for w in self.workers.drain(..) {
            // A worker that panicked outside the supervised job body is
            // a queue bug; surface it instead of returning silently
            // truncated results.
            #[allow(clippy::expect_used)]
            w.join().expect("queue worker panicked outside supervision");
        }
        reports.sort_by_key(|r| r.index);
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahfic_spice::analysis::{Budget, CancelToken, FaultInjector, FaultKind};
    use ahfic_trace::InMemorySink;

    fn divider(r2: f64) -> Circuit {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::gnd(), 2.0);
        c.resistor("R1", a, b, 1e3);
        c.resistor("R2", b, Circuit::gnd(), r2);
        c
    }

    fn rc_tran_deck() -> Circuit {
        let mut c = Circuit::new();
        let a = c.node("a");
        let out = c.node("out");
        c.vsource_wave(
            "V1",
            a,
            Circuit::gnd(),
            ahfic_spice::wave::SourceWave::Sin {
                offset: 0.0,
                ampl: 1.0,
                freq: 1e6,
                delay: 0.0,
                damping: 0.0,
                phase_deg: 0.0,
            },
        );
        c.resistor("R1", a, out, 1e3);
        c.capacitor("C1", out, Circuit::gnd(), 1e-9);
        c
    }

    #[test]
    fn batch_shares_one_compile_and_keeps_order() {
        let queue = JobQueue::new(QueueConfig::new().threads(4));
        let jobs: Vec<JobRequest> = (0..16)
            .map(|i| JobRequest::new(divider(1e3), JobSpec::Op).label(format!("j{i}")))
            .collect();
        let reports = queue.run(jobs);
        assert_eq!(reports.len(), 16);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.index(), i);
            assert_eq!(r.label(), format!("j{i}"));
            assert!(r.is_ok(), "{:?}", r.outcome);
            assert!(r.attempts().is_empty(), "clean first attempt, no history");
        }
        // One compile serves the batch. A worker whose first lookup finds
        // the slot still compiling counts a miss and then waits on that
        // compile, so each of the 4 workers may miss once.
        let cache = queue.cache_stats();
        assert_eq!(cache.compiles(), 1);
        assert_eq!(cache.hits() + cache.misses(), 16);
        assert!(cache.misses() <= 4, "{cache:?}");
        let hits = reports.iter().filter(|r| r.cache_hit()).count();
        assert_eq!(hits as u64, cache.hits());
        let stats = queue.stats();
        assert_eq!(stats.submitted, 16);
        assert_eq!(stats.completed, 16);
        assert_eq!(stats.failed, 0);
    }

    /// Netlist jobs parse once per text: 64 op jobs over 4 texts, at a
    /// cache capacity that holds them all, parse 4 times and compile 4
    /// times, and every later job is an index hit.
    #[test]
    fn hot_texts_parse_and_compile_once_each() {
        let texts: Vec<String> = (0..4)
            .map(|k| {
                format!(
                    "* divider {k}\nV1 a 0 2.0\nR1 a b 1k\nR2 b 0 {}k\n.end\n",
                    k + 1
                )
            })
            .collect();
        let queue = JobQueue::new(QueueConfig::new().threads(1).cache_capacity(4));
        let jobs = (0..64)
            .map(|i| JobRequest::new(texts[i % 4].as_str(), JobSpec::Op))
            .collect();
        let reports = queue.run(jobs);
        assert!(reports.iter().all(JobReport::is_ok));
        let cache = queue.cache_stats();
        assert_eq!((cache.parses(), cache.compiles()), (4, 4), "{cache:?}");
        assert_eq!((cache.hits(), cache.misses()), (60, 4), "{cache:?}");
        assert!(reports[4..].iter().all(JobReport::cache_hit));
    }

    #[test]
    fn netlist_in_typed_results_out() {
        let good = "* divider\nV1 a 0 2.0\nR1 a b 1k\nR2 b 0 1k\n.end\n";
        let bad = "* broken\nR1 a b notanumber\n.end\n";
        let queue = JobQueue::new(QueueConfig::new().threads(1));
        let reports = queue.run(vec![
            JobRequest::new(good, JobSpec::Op).label("good"),
            JobRequest::new(bad, JobSpec::Op).label("bad"),
        ]);
        assert!(reports[0].is_ok());
        let failure = reports[1].outcome().as_ref().unwrap_err().sim().unwrap();
        assert_eq!(failure.index, 1);
        assert_eq!(failure.label, "bad");
    }

    #[test]
    fn mixed_specs_return_matching_outputs() {
        let queue = JobQueue::new(QueueConfig::new().threads(2));
        let reports = queue.run(vec![
            JobRequest::new(divider(1e3), JobSpec::Op),
            JobRequest::new(
                divider(1e3),
                JobSpec::Dc {
                    source: "V1".into(),
                    values: vec![1.0, 2.0, 3.0],
                },
            ),
            JobRequest::new(rc_tran_deck(), JobSpec::Tran(TranParams::new(2e-6, 10e-9))),
        ]);
        assert!(matches!(
            reports[0].outcome().as_ref().unwrap(),
            JobOutput::Op(_)
        ));
        match reports[1].outcome().as_ref().unwrap() {
            JobOutput::Dc(w) => assert_eq!(w.len(), 3),
            other => panic!("expected Dc, got {other:?}"),
        }
        let t = reports[2].outcome().as_ref().unwrap().as_tran().unwrap();
        assert!(t.is_complete());
    }

    #[test]
    fn cancelled_job_degrades_to_typed_partial() {
        let token = CancelToken::new();
        token.cancel();
        let queue = JobQueue::new(QueueConfig::new().threads(1));
        // `with_uic` skips the initial operating point, so the
        // pre-cancelled token is seen at the first timestep boundary
        // and the job degrades to a typed partial instead of an error.
        let reports = queue.run(vec![JobRequest::new(
            rc_tran_deck(),
            JobSpec::Tran(TranParams::new(2e-6, 10e-9).with_uic()),
        )
        .options(Options::new().cancel_token(&token))]);
        let t = reports[0].outcome().as_ref().unwrap().as_tran().unwrap();
        assert!(
            matches!(t.status(), TranStatus::Cancelled { .. }),
            "{:?}",
            t.status()
        );
    }

    #[test]
    fn pss_job_returns_converged_orbit() {
        let queue = JobQueue::new(QueueConfig::new().threads(1));
        let reports = queue.run(vec![JobRequest::new(
            rc_tran_deck(),
            JobSpec::Pss(PssParams::new(1e-6, 64)),
        )
        .label("pss")]);
        let p = reports[0].outcome().as_ref().unwrap().as_pss().unwrap();
        assert!(p.is_converged(), "{:?}", p.status());
        assert!(p.wave().len() >= 65);
    }

    #[test]
    fn cancelled_pss_job_degrades_to_typed_partial() {
        use ahfic_spice::analysis::PssStatus;
        let token = CancelToken::new();
        token.cancel();
        let queue = JobQueue::new(QueueConfig::new().threads(1));
        let reports = queue.run(vec![JobRequest::new(
            rc_tran_deck(),
            JobSpec::Pss(PssParams::new(1e-6, 64).warmup_periods(0)),
        )
        .options(Options::new().cancel_token(&token))]);
        // The pre-cancelled token is seen either at the initial
        // operating point (typed failure) or at the first shooting
        // boundary (typed partial); both are acceptable degradations,
        // a panic or a bogus "converged" is not.
        match reports[0].outcome() {
            Ok(out) => {
                let p = out.as_pss().unwrap();
                assert!(
                    matches!(p.status(), PssStatus::Cancelled { .. }),
                    "{:?}",
                    p.status()
                );
            }
            Err(f) => assert!(f.error().unwrap().is_abort(), "{f:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_is_a_typed_failure_for_op() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("V1", a, Circuit::gnd(), 0.7);
        let dm = c.add_diode_model(ahfic_spice::model::DiodeModel::default());
        c.diode("D1", a, Circuit::gnd(), dm, 1.0);
        let queue = JobQueue::new(QueueConfig::new().threads(1));
        let reports = queue.run(vec![JobRequest::new(c, JobSpec::Op)
            .label("starved")
            .options(
                Options::new()
                    .max_newton(1)
                    .budget(Budget::unlimited().max_newton(1)),
            )]);
        let failure = reports[0].outcome().as_ref().unwrap_err();
        assert!(failure.error().unwrap().is_abort(), "{failure:?}");
    }

    #[test]
    fn queue_trace_counts_jobs() {
        let sink = Arc::new(InMemorySink::new());
        let queue = JobQueue::new(QueueConfig::new().threads(1).trace(TraceHandle::new(&sink)));
        queue.run(vec![
            JobRequest::new(divider(1e3), JobSpec::Op),
            JobRequest::new("R1 a b notanumber\n", JobSpec::Op),
        ]);
        let recs = sink.records();
        let total = |name: &str| {
            recs.iter()
                .filter(|r| r.name == name)
                .map(|r| r.value)
                .sum::<f64>()
        };
        assert_eq!(total("job.done"), 1.0);
        assert_eq!(total("job.failed"), 1.0);
        assert_eq!(total("serve.jobs"), 2.0);
        // The cache reports through the same handle.
        assert_eq!(total("cache.miss"), 1.0);
    }

    #[test]
    fn warm_start_hint_cuts_second_job_iterations() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("V1", a, Circuit::gnd(), 0.75);
        let dm = c.add_diode_model(ahfic_spice::model::DiodeModel::default());
        c.diode("D1", a, Circuit::gnd(), dm, 1.0);
        c.resistor("R1", a, Circuit::gnd(), 10e3);
        let queue = JobQueue::new(QueueConfig::new().threads(1));
        let first = queue.run_one(0, &JobRequest::new(c.clone(), JobSpec::Op));
        let second = queue.run_one(1, &JobRequest::new(c, JobSpec::Op));
        let iters = |r: &JobReport| r.outcome().as_ref().unwrap().as_op().unwrap().iterations();
        assert!(
            iters(&second) <= iters(&first),
            "warm start must not cost iterations: {} vs {}",
            iters(&second),
            iters(&first)
        );
    }

    #[test]
    fn worker_panic_becomes_typed_report_and_queue_drains() {
        let sink = Arc::new(InMemorySink::new());
        let queue = JobQueue::new(QueueConfig::new().threads(2).trace(TraceHandle::new(&sink)));
        let inj = FaultInjector::once(FaultKind::Panic, 0, 1);
        let mut jobs: Vec<JobRequest> = (0..8)
            .map(|i| JobRequest::new(divider(1e3), JobSpec::Op).label(format!("j{i}")))
            .collect();
        jobs[3] = JobRequest::new(divider(1e3), JobSpec::Op)
            .label("boom")
            .options(Options::new().fault_injector(&inj));
        let reports = queue.run(jobs);
        assert_eq!(reports.len(), 8, "queue drains past the panic");
        for (i, r) in reports.iter().enumerate() {
            if i == 3 {
                match r.outcome().as_ref().unwrap_err() {
                    JobError::WorkerPanic { payload, job_id } => {
                        assert_eq!(*job_id, 3);
                        assert!(payload.contains("injected fault"), "{payload}");
                    }
                    other => panic!("expected WorkerPanic, got {other:?}"),
                }
            } else {
                assert!(r.is_ok(), "job {i}: {:?}", r.outcome);
            }
        }
        let stats = queue.stats();
        assert_eq!(stats.panics_recovered, 1);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 7);
        let total: f64 = sink
            .records()
            .iter()
            .filter(|r| r.name == "serve.panic_recovered")
            .map(|r| r.value)
            .sum();
        assert_eq!(total, 1.0);
    }

    #[test]
    fn retry_escalates_injected_nonconvergence() {
        let sink = Arc::new(InMemorySink::new());
        let queue = JobQueue::new(
            QueueConfig::new()
                .threads(1)
                .retry(RetryPolicy::attempts(2))
                .trace(TraceHandle::new(&sink)),
        );
        // With the continuation ladder disabled, a single injected
        // non-convergence fails the whole first attempt; the fault has
        // spent its one fire by the retry, which runs escalated (full
        // ladder restored) and succeeds.
        let inj = FaultInjector::once(FaultKind::NoConvergence, 0, 1);
        let reports = queue.run(vec![JobRequest::new(divider(1e3), JobSpec::Op)
            .label("flaky")
            .options(Options::new().fault_injector(&inj).ladder(LadderConfig {
                damping: false,
                gmin_stepping: false,
                source_stepping: false,
                ptran: false,
            }))]);
        assert!(reports[0].is_ok(), "{:?}", reports[0].outcome);
        let attempts = reports[0].attempts();
        assert_eq!(attempts.len(), 2, "{attempts:?}");
        assert!(!attempts[0].escalated);
        assert!(attempts[1].escalated, "retry must run escalated");
        assert_eq!(attempts[1].outcome, "ok");
        assert_eq!(queue.stats().retries, 1);
        let total: f64 = sink
            .records()
            .iter()
            .filter(|r| r.name == "serve.retries")
            .map(|r| r.value)
            .sum();
        assert_eq!(total, 1.0);
    }

    #[test]
    fn retry_policy_backoff_is_deterministic_and_seeded() {
        let p = RetryPolicy::attempts(4).backoff_base_ms(8).seed(42);
        assert_eq!(p.backoff_ms(0, 1), 0, "first attempt never sleeps");
        let a = p.backoff_ms(3, 2);
        assert_eq!(a, p.backoff_ms(3, 2), "same job+attempt, same backoff");
        assert!((8..16).contains(&a), "base + jitter window: {a}");
        let b = p.backoff_ms(3, 3);
        assert!((16..24).contains(&b), "exponential growth: {b}");
        let other_seed = RetryPolicy::attempts(4).backoff_base_ms(8).seed(43);
        assert!(
            (2..=16).any(|j| p.backoff_ms(j, 2) != other_seed.backoff_ms(j, 2)),
            "different seeds must eventually jitter differently"
        );
        assert_eq!(
            RetryPolicy::default().backoff_ms(0, 2),
            0,
            "zero base disables sleeping"
        );
    }

    #[test]
    fn batch_sheds_beyond_capacity_in_submission_order() {
        let queue = JobQueue::new(QueueConfig::new().threads(1).capacity(2));
        let jobs: Vec<JobRequest> = (0..5)
            .map(|i| JobRequest::new(divider(1e3), JobSpec::Op).label(format!("j{i}")))
            .collect();
        let reports = queue.run(jobs);
        assert_eq!(reports.len(), 5, "one report per job, shed included");
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.index(), i);
            if i < 2 {
                assert!(r.is_ok(), "{:?}", r.outcome);
            } else {
                assert!(
                    matches!(
                        r.outcome().as_ref().unwrap_err(),
                        JobError::Shed { capacity: 2 }
                    ),
                    "{:?}",
                    r.outcome
                );
            }
        }
        assert_eq!(queue.stats().shed, 3);

        // RejectOldest keeps the tail instead.
        let queue = JobQueue::new(
            QueueConfig::new()
                .threads(1)
                .capacity(2)
                .shed_policy(ShedPolicy::RejectOldest),
        );
        let jobs: Vec<JobRequest> = (0..5)
            .map(|i| JobRequest::new(divider(1e3), JobSpec::Op).label(format!("j{i}")))
            .collect();
        let reports = queue.run(jobs);
        assert!(reports[0].outcome().as_ref().unwrap_err().is_shed());
        assert!(reports[4].is_ok());
    }

    #[test]
    fn running_queue_submits_and_drains_in_order() {
        let queue = JobQueue::new(QueueConfig::new().threads(2));
        let running = queue.start();
        for i in 0..12 {
            let id = running
                .submit(JobRequest::new(divider(1e3), JobSpec::Op).label(format!("j{i}")))
                .unwrap();
            assert_eq!(id, i);
        }
        let reports = running.shutdown_and_drain(Duration::from_secs(60));
        assert_eq!(reports.len(), 12);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.index(), i, "drain returns submission order");
            assert!(r.is_ok(), "{:?}", r.outcome);
        }
    }

    #[test]
    fn running_queue_sheds_when_full_and_after_shutdown() {
        // threads(1) and a slow-ish first job would be racy; instead
        // rely on capacity vs a burst of submissions before workers can
        // drain: use capacity 1 and check the policy is enforced at
        // submit time by filling the queue while workers are busy.
        let queue = JobQueue::new(QueueConfig::new().threads(1).capacity(1));
        let running = queue.start();
        let mut accepted = 0usize;
        let mut shed = 0usize;
        for i in 0..64 {
            match running.submit(JobRequest::new(divider(1e3), JobSpec::Op).label(format!("j{i}")))
            {
                Ok(_) => accepted += 1,
                Err(e) => {
                    assert!(e.is_shed(), "{e:?}");
                    shed += 1;
                }
            }
        }
        assert_eq!(accepted + shed, 64);
        let reports = running.shutdown_and_drain(Duration::from_secs(60));
        assert_eq!(
            reports.len(),
            accepted,
            "exactly one report per accepted job"
        );

        let running = JobQueue::new(QueueConfig::new().threads(1)).start();
        let drained = running.shutdown_and_drain(Duration::from_secs(5));
        assert!(drained.is_empty());
    }

    #[test]
    fn wall_deadline_degrades_op_to_typed_failure() {
        let sink = Arc::new(InMemorySink::new());
        let queue = JobQueue::new(QueueConfig::new().threads(1).trace(TraceHandle::new(&sink)));
        let inj = FaultInjector::recurring(FaultKind::Stall { millis: 20 }, 0, 1);
        let reports =
            queue.run(vec![JobRequest::new(divider(1e3), JobSpec::Op)
                .label("stalled")
                .options(Options::new().fault_injector(&inj).budget(
                    Budget::unlimited().max_wall(Duration::from_millis(1)),
                ))]);
        let failure = reports[0].outcome().as_ref().unwrap_err();
        match failure.error().unwrap() {
            SpiceError::BudgetExhausted { resource, .. } => {
                assert_eq!(*resource, "wall_clock_ms");
            }
            other => panic!("expected wall-clock BudgetExhausted, got {other:?}"),
        }
        assert_eq!(queue.stats().deadline_exceeded, 1);
        let total: f64 = sink
            .records()
            .iter()
            .filter(|r| r.name == "serve.deadline_exceeded")
            .map(|r| r.value)
            .sum();
        assert_eq!(total, 1.0);
    }
}
