//! Cooperative cancellation and per-job resource budgets.
//!
//! The serving layer hands every analysis a [`CancelToken`] and a
//! [`Budget`] through [`Options`]: the token is polled at
//! Newton-iteration and transient-timestep boundaries (never inside a
//! factorization), so a cancelled job stops within one solver
//! step; the budget bounds how much work one job may burn before it is
//! degraded to a typed report instead of starving its worker thread.
//!
//! Both are zero-cost when unset: the default [`CancelHandle::off`] and
//! [`Budget::unlimited`] make every poll site a single not-taken branch,
//! mirroring the `TraceHandle`/`FaultHandle` pattern.

use crate::analysis::stamp::Options;
use crate::error::SpiceError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cloneable cancellation flag shared between a job's submitter and
/// the analysis running it.
///
/// Clones observe the same flag; [`CancelToken::cancel`] is sticky
/// (there is no un-cancel). Install it into analysis options with
/// [`Options::cancel_token`](crate::analysis::Options::cancel_token).
///
/// ```
/// use ahfic_spice::analysis::CancelToken;
/// let token = CancelToken::new();
/// let observer = token.clone();
/// assert!(!observer.is_cancelled());
/// token.cancel();
/// assert!(observer.is_cancelled());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Analyses observe it at their next Newton
    /// iteration or timestep boundary.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// An options-ready handle observing this token.
    pub fn handle(&self) -> CancelHandle {
        CancelHandle {
            inner: Some(Arc::clone(&self.flag)),
        }
    }
}

/// Shared handle to an optional [`CancelToken`], stored inside
/// [`Options`].
///
/// Equality compares only whether cancellation is wired up (mirroring
/// `TraceHandle`/`FaultHandle`), so `Options` keeps a useful
/// `PartialEq`.
#[derive(Clone, Default)]
pub struct CancelHandle {
    inner: Option<Arc<AtomicBool>>,
}

impl CancelHandle {
    /// A disabled handle: every poll site is a single not-taken branch.
    pub const fn off() -> Self {
        CancelHandle { inner: None }
    }

    /// Wraps a token for installation into options.
    pub fn new(token: &CancelToken) -> Self {
        token.handle()
    }

    /// Whether a token is installed.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether cancellation has been requested (`false` when no token is
    /// installed).
    #[inline]
    pub fn cancelled(&self) -> bool {
        match &self.inner {
            None => false,
            Some(flag) => flag.load(Ordering::Relaxed),
        }
    }

    /// Requests cancellation through this handle (no-op when disabled).
    ///
    /// The serving layer uses this during `shutdown_and_drain` to stop
    /// in-flight jobs past the drain deadline without needing the
    /// original [`CancelToken`].
    pub fn cancel(&self) {
        if let Some(flag) = &self.inner {
            flag.store(true, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for CancelHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelHandle")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl PartialEq for CancelHandle {
    fn eq(&self, other: &Self) -> bool {
        self.enabled() == other.enabled()
    }
}

/// A wall-clock deadline: the instant the budget was armed plus the
/// allowance, kept together so exhaustion reports both the configured
/// limit and the time actually spent.
///
/// Created through [`Budget::max_wall`]; checked at the same
/// Newton-iteration / timestep / shooting-iteration boundaries as the
/// counter budgets, so a stuck solve degrades to a typed
/// `BudgetExhausted` (resource `"wall_clock_ms"`) within one boundary
/// instead of hanging a serving worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Deadline {
    start: Instant,
    limit: Duration,
}

impl Deadline {
    /// Arms a deadline `limit` from now.
    pub fn within(limit: Duration) -> Self {
        Deadline {
            start: Instant::now(),
            limit,
        }
    }

    /// Whether the allowance has elapsed.
    #[inline]
    pub fn expired(&self) -> bool {
        self.start.elapsed() >= self.limit
    }

    /// The configured allowance in milliseconds.
    pub fn limit_ms(&self) -> u64 {
        self.limit.as_millis().min(u128::from(u64::MAX)) as u64
    }

    /// Milliseconds elapsed since the deadline was armed.
    pub fn spent_ms(&self) -> u64 {
        self.start.elapsed().as_millis().min(u128::from(u64::MAX)) as u64
    }

    /// The same allowance with the clock restarted now.
    pub fn rearmed(&self) -> Self {
        Deadline::within(self.limit)
    }
}

/// Per-analysis resource budget, enforced at solver boundaries.
///
/// Limits degrade a runaway job to a typed
/// [`SpiceError::BudgetExhausted`] (or, for transients, a partial
/// [`TranResult`](crate::analysis::TranResult)) instead of letting it
/// monopolize a serving worker. The struct is `#[non_exhaustive]`:
/// construct it with [`Budget::unlimited`] and tighten through the
/// builder methods.
///
/// ```
/// use ahfic_spice::analysis::Budget;
/// let b = Budget::unlimited().max_newton(500).max_steps(10_000);
/// assert_eq!(b.max_newton, Some(500));
/// assert_eq!(b.max_lanes, None);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct Budget {
    /// Cumulative Newton-iteration cap per analysis call (summed across
    /// continuation rungs and transient steps). `None` = unlimited.
    pub max_newton: Option<u64>,
    /// Cap on transient steps attempted (accepted plus rejected).
    /// `None` = unlimited.
    pub max_steps: Option<u64>,
    /// Cap on batched-engine SoA lanes, clamping every study driver's
    /// lane width ([`Options::lanes_for`](crate::analysis::Options::lanes_for)).
    /// `None` = unlimited.
    pub max_lanes: Option<usize>,
    /// Wall-clock deadline, checked at the same solver boundaries as the
    /// counters above. `None` = unlimited.
    pub deadline: Option<Deadline>,
}

impl Budget {
    /// No limits — the default.
    pub const fn unlimited() -> Self {
        Budget {
            max_newton: None,
            max_steps: None,
            max_lanes: None,
            deadline: None,
        }
    }

    /// Caps cumulative Newton iterations per analysis call.
    pub fn max_newton(mut self, limit: u64) -> Self {
        self.max_newton = Some(limit);
        self
    }

    /// Caps transient steps attempted (accepted plus rejected).
    pub fn max_steps(mut self, limit: u64) -> Self {
        self.max_steps = Some(limit);
        self
    }

    /// Caps batched-engine lane requests.
    pub fn max_lanes(mut self, limit: usize) -> Self {
        self.max_lanes = Some(limit.max(1));
        self
    }

    /// Arms a wall-clock deadline `limit` from now. The clock starts
    /// when this builder runs, not when the analysis does — arm it just
    /// before a direct analysis call to bound its compute. The serving
    /// queue re-arms it ([`Budget::rearmed`]) when each job attempt
    /// starts.
    ///
    /// Because `Budget` is `Copy` and the deadline is armed here, one
    /// budget cloned across a batch of jobs gives every job the *same*
    /// start instant — late jobs in a long batch can be born already
    /// expired. Build the budget per job, or re-start the clock with
    /// [`Budget::rearmed`] when reusing one.
    pub fn max_wall(mut self, limit: Duration) -> Self {
        self.deadline = Some(Deadline::within(limit));
        self
    }

    /// This budget with any wall-clock deadline re-armed from now,
    /// keeping all counter limits. Use when one configured budget is
    /// reused across jobs so each gets its own full wall allowance:
    ///
    /// ```
    /// use ahfic_spice::analysis::Budget;
    /// use std::time::Duration;
    /// let template = Budget::unlimited()
    ///     .max_newton(500)
    ///     .max_wall(Duration::from_secs(5));
    /// let per_job = template.rearmed(); // fresh 5 s, same Newton cap
    /// assert_eq!(per_job.max_newton, Some(500));
    /// ```
    pub fn rearmed(mut self) -> Self {
        if let Some(d) = &self.deadline {
            self.deadline = Some(d.rearmed());
        }
        self
    }

    /// Whether any limit is set.
    pub fn limited(&self) -> bool {
        self.max_newton.is_some()
            || self.max_steps.is_some()
            || self.max_lanes.is_some()
            || self.deadline.is_some()
    }

    /// Clamps a requested lane count to the budget.
    #[inline]
    pub fn clamp_lanes(&self, lanes: usize) -> usize {
        match self.max_lanes {
            None => lanes,
            Some(cap) => lanes.min(cap),
        }
    }

    /// Whether `spent` Newton iterations exceed the cap.
    #[inline]
    pub(crate) fn newton_exhausted(&self, spent: u64) -> Option<u64> {
        match self.max_newton {
            Some(limit) if spent >= limit => Some(limit),
            _ => None,
        }
    }

    /// Whether `spent` transient steps exceed the cap.
    #[inline]
    pub(crate) fn steps_exhausted(&self, spent: u64) -> Option<u64> {
        match self.max_steps {
            Some(limit) if spent >= limit => Some(limit),
            _ => None,
        }
    }

    /// Whether the wall-clock deadline has passed, returning
    /// `(limit_ms, spent_ms)` for the exhaustion report. A single
    /// not-taken branch when no deadline is armed; reads the clock only
    /// when one is.
    #[inline]
    pub(crate) fn wall_exhausted(&self) -> Option<(u64, u64)> {
        match &self.deadline {
            Some(d) if d.expired() => Some((d.limit_ms(), d.spent_ms())),
            _ => None,
        }
    }
}

/// Why a stepping engine stopped early, at one of its control points
/// or in an aborted Newton solve.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Stop {
    /// The cancel token fired.
    Cancelled,
    /// A budget limit fired: the resource (`"steps"`,
    /// `"newton_iterations"`, `"wall_clock_ms"`), its limit and the work
    /// spent.
    Exhausted(&'static str, u64, u64),
}

impl Stop {
    /// The stop of an aborted Newton solve: a budget trip keeps its
    /// resource, limit and spend; any other abort is a cancellation.
    pub(crate) fn of_abort(e: &SpiceError) -> Stop {
        match *e {
            SpiceError::BudgetExhausted {
                resource,
                limit,
                spent,
                ..
            } => Stop::Exhausted(resource, limit, spent),
            _ => Stop::Cancelled,
        }
    }

    /// This stop as the typed error of `analysis`.
    pub(crate) fn error(self, analysis: &'static str) -> SpiceError {
        match self {
            Stop::Cancelled => SpiceError::Cancelled {
                analysis,
                time: None,
            },
            Stop::Exhausted(resource, limit, spent) => SpiceError::BudgetExhausted {
                analysis,
                resource,
                limit,
                spent,
            },
        }
    }
}

/// The control point of the stepping engines, in this order:
/// cancellation, the step budget against `steps` attempted, the Newton
/// budget against `newton` iterations spent (for an engine that counts
/// them), the wall-clock deadline.
pub(crate) fn stop_check(opts: &Options, steps: u64, newton: Option<u64>) -> Option<Stop> {
    if opts.cancel.cancelled() {
        return Some(Stop::Cancelled);
    }
    let budget = &opts.budget;
    if let Some(limit) = budget.steps_exhausted(steps) {
        return Some(Stop::Exhausted("steps", limit, steps));
    }
    if let Some(spent) = newton {
        if let Some(limit) = budget.newton_exhausted(spent) {
            return Some(Stop::Exhausted("newton_iterations", limit, spent));
        }
    }
    let (limit, spent) = budget.wall_exhausted()?;
    Some(Stop::Exhausted("wall_clock_ms", limit, spent))
}

/// Incremental-progress streaming policy for long transients
/// ([`Options::stream`](crate::analysis::Options::stream)).
///
/// When enabled (and a trace sink is installed), the transient engine
/// emits a `progress.tran.*` record chunk every N accepted steps over
/// the ordinary trace path, so a `JsonLinesSink` client observes a long
/// run live instead of waiting for the final waveform.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StreamPolicy {
    /// No progress records — the default.
    #[default]
    Off,
    /// Emit a progress chunk every `n` accepted steps (clamped to ≥ 1).
    EverySteps(usize),
}

impl StreamPolicy {
    /// The accepted-step cadence, or `None` when streaming is off.
    pub fn every(self) -> Option<usize> {
        match self {
            StreamPolicy::Off => None,
            StreamPolicy::EverySteps(n) => Some(n.max(1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_clones_share_the_flag() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!t.is_cancelled() && !c.is_cancelled());
        c.cancel();
        assert!(t.is_cancelled() && c.is_cancelled());
    }

    #[test]
    fn handle_off_never_reports_cancelled() {
        let h = CancelHandle::off();
        assert!(!h.enabled());
        assert!(!h.cancelled());
        assert_eq!(h, CancelHandle::default());
    }

    #[test]
    fn handle_observes_token() {
        let t = CancelToken::new();
        let h = CancelHandle::new(&t);
        assert!(h.enabled() && !h.cancelled());
        t.cancel();
        assert!(h.cancelled());
        assert_ne!(h, CancelHandle::off());
        assert!(format!("{h:?}").contains("enabled: true"));
    }

    #[test]
    fn budget_builders_and_checks() {
        let b = Budget::unlimited();
        assert!(!b.limited());
        assert_eq!(b.newton_exhausted(u64::MAX), None);
        assert_eq!(b.clamp_lanes(64), 64);
        let b = b.max_newton(10).max_steps(5).max_lanes(4);
        assert!(b.limited());
        assert_eq!(b.newton_exhausted(9), None);
        assert_eq!(b.newton_exhausted(10), Some(10));
        assert_eq!(b.steps_exhausted(5), Some(5));
        assert_eq!(b.clamp_lanes(64), 4);
        assert_eq!(Budget::unlimited().max_lanes(0).clamp_lanes(64), 1);
    }

    #[test]
    fn wall_deadline_arms_and_expires() {
        let b = Budget::unlimited();
        assert_eq!(b.wall_exhausted(), None);
        let b = b.max_wall(Duration::from_secs(3600));
        assert!(b.limited());
        assert_eq!(b.wall_exhausted(), None, "fresh hour-long budget");
        let b = Budget::unlimited().max_wall(Duration::ZERO);
        let (limit, _spent) = b.wall_exhausted().expect("zero allowance expires at once");
        assert_eq!(limit, 0);
        let d = Deadline::within(Duration::from_millis(1500));
        assert_eq!(d.limit_ms(), 1500);
        assert!(!d.expired());
    }

    #[test]
    fn rearmed_restarts_the_clock_and_keeps_counters() {
        // An expired budget reused across jobs must come back alive.
        let stale = Budget::unlimited().max_newton(500).max_wall(Duration::ZERO);
        assert!(stale.wall_exhausted().is_some(), "born expired");
        let fresh = stale.rearmed();
        // Duration::ZERO re-arms to an immediately-expired deadline;
        // use a real allowance to observe the restart.
        let stale = Budget::unlimited()
            .max_newton(500)
            .max_wall(Duration::from_secs(3600));
        let fresh2 = stale.rearmed();
        assert_eq!(fresh2.wall_exhausted(), None, "clock restarted");
        assert_eq!(fresh.max_newton, Some(500), "counter limits kept");
        assert_eq!(fresh2.max_newton, Some(500));
        // No deadline → rearmed is a no-op.
        let plain = Budget::unlimited().max_newton(3);
        assert_eq!(plain.rearmed(), plain);
    }

    #[test]
    fn handle_cancel_is_a_noop_when_disabled() {
        CancelHandle::off().cancel();
        let t = CancelToken::new();
        let h = CancelHandle::new(&t);
        h.cancel();
        assert!(t.is_cancelled(), "handle cancel reaches the shared token");
    }

    /// Every stop of the three stepping engines under each limit: a
    /// pre-cancelled token, a step budget, a Newton budget and an
    /// expired deadline, with each engine's step and Newton limits set
    /// to trip mid-run. The transient starts from initial conditions, so
    /// each limit stops it at its own control point. The PSS and the
    /// PAC start from an operating point, which sees the cancelled token
    /// and the expired deadline first; the PAC's Newton limit stops the
    /// PSS it runs.
    #[test]
    fn stop_check_outcomes_per_engine() {
        use crate::analysis::pac::{pac_impl, PacParams};
        use crate::analysis::pss::{pss_impl, PssParams, PssStatus};
        use crate::analysis::tran::{tran_impl, TranParams, TranStatus};
        use crate::circuit::{Circuit, Prepared};
        use crate::wave::SourceWave;

        let mut c = Circuit::new();
        let a = c.node("a");
        let out = c.node("out");
        let sine = SourceWave::Sin {
            offset: 0.0,
            ampl: 1.0,
            freq: 1e6,
            delay: 0.0,
            damping: 0.0,
            phase_deg: 0.0,
        };
        c.vsource_wave("V1", a, Circuit::gnd(), sine);
        c.resistor("R1", a, out, 1e3);
        c.capacitor("C1", out, Circuit::gnd(), 1e-9);
        let mut prep = Prepared::compile(&c).unwrap();

        // A typed error as `<analysis> <stop>`.
        let error = |e: SpiceError| match e {
            SpiceError::Cancelled { analysis, .. } => format!("{analysis} cancelled"),
            SpiceError::BudgetExhausted {
                analysis,
                resource,
                limit,
                ..
            } => format!("{analysis} {resource} {limit}"),
            other => panic!("not a stop: {other}"),
        };
        let token = CancelToken::new();
        token.cancel();
        // Per limit: the limit each engine runs under, and its outcome —
        // a partial result's status (with the PSS's shooting iterations)
        // or a typed error.
        let table: [(&str, [u64; 3], [&str; 3]); 4] = [
            (
                "cancel",
                [0; 3],
                [
                    "status cancelled",
                    "error newton cancelled",
                    "error newton cancelled",
                ],
            ),
            (
                "steps",
                [10, 100, 200],
                [
                    "status steps 10",
                    "status steps 100 0",
                    "error pac steps 200",
                ],
            ),
            (
                "newton",
                [20, 100, 100],
                [
                    "status newton_iterations 20",
                    "status newton_iterations 100 0",
                    "error pac newton_iterations 100",
                ],
            ),
            (
                "wall",
                [0; 3],
                [
                    "status wall_clock_ms 0",
                    "error newton wall_clock_ms 0",
                    "error newton wall_clock_ms 0",
                ],
            ),
        ];
        let pss_params = PssParams::new(1e-6, 64);
        let pac_params = PacParams::new("V1", "v(out)", [1e6], 1e6);
        for (stop, limits, want) in table {
            let opts = |limit: u64| {
                let o = Options::default();
                match stop {
                    "cancel" => o.cancel_token(&token),
                    "steps" => o.budget(Budget::unlimited().max_steps(limit)),
                    "newton" => o.budget(Budget::unlimited().max_newton(limit)),
                    _ => o.budget(Budget::unlimited().max_wall(Duration::ZERO)),
                }
            };
            let tran = TranParams::new(5e-6, 5e-9).with_uic();
            let tran = match tran_impl(&prep, &opts(limits[0]), &tran).map(|r| r.status) {
                Ok(TranStatus::Cancelled { .. }) => "status cancelled".into(),
                Ok(TranStatus::BudgetExhausted {
                    resource, limit, ..
                }) => format!("status {resource} {limit}"),
                Ok(other) => panic!("tran ran on: {other:?}"),
                Err(e) => format!("error {}", error(e)),
            };
            let pss = match pss_impl(&prep, &opts(limits[1]), &pss_params).map(|r| r.status) {
                Ok(PssStatus::Cancelled { iterations }) => format!("status cancelled {iterations}"),
                Ok(PssStatus::BudgetExhausted {
                    resource,
                    limit,
                    iterations,
                }) => format!("status {resource} {limit} {iterations}"),
                Ok(other) => panic!("pss ran on: {other:?}"),
                Err(e) => format!("error {}", error(e)),
            };
            let pac = match pac_impl(&mut prep, &opts(limits[2]), &pss_params, &pac_params) {
                Ok(_) => panic!("pac ran on under the {stop} limit"),
                Err(e) => format!("error {}", error(e)),
            };
            assert_eq!([tran.as_str(), &pss, &pac], want, "{stop}");
        }
    }

    #[test]
    fn stream_policy_cadence() {
        assert_eq!(StreamPolicy::Off.every(), None);
        assert_eq!(StreamPolicy::EverySteps(8).every(), Some(8));
        assert_eq!(StreamPolicy::EverySteps(0).every(), Some(1));
        assert_eq!(StreamPolicy::default(), StreamPolicy::Off);
    }
}
