//! Cooperative cancellation, per-job resource budgets, and the one stop
//! rule every Newton loop obeys.
//!
//! The serving layer hands every analysis a [`CancelToken`] and a
//! [`Budget`] through [`Options`]. One function, `stop_check`, decides
//! every stop: the op ladder, the DC sweep, the lane engine, the
//! transient, the PSS and the PAC call it before each unit of work (a
//! Newton iteration, solve, step, period or sweep point; never inside a
//! factorization), and the Newton loop calls it again before it returns
//! a converged iterate. A cancelled job therefore stops within one
//! Newton iteration, and a budget degrades a runaway job to a typed
//! report, naming the analysis the caller ran and the work it spent,
//! instead of starving its worker thread.
//!
//! Both are zero-cost when unset: the default [`CancelHandle::off`] and
//! [`Budget::unlimited`] make every check a few not-taken branches,
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

    /// Requests cancellation. Analyses observe it before their next
    /// Newton iteration.
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
/// Created through [`Budget::max_wall`]; checked before every Newton
/// iteration and again before a converged iterate is returned, so a
/// stuck solve degrades to a typed `BudgetExhausted` (resource
/// `"wall_clock_ms"`) within one iteration instead of hanging a serving
/// worker, and no result finished past the deadline reports success.
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

/// Per-analysis resource budget, enforced by the one stop rule (see the
/// module docs).
///
/// Limits degrade a runaway job to a typed
/// [`SpiceError::BudgetExhausted`] (or, for a transient or a PSS, a
/// partial [`TranResult`](crate::analysis::TranResult) or
/// [`PssResult`](crate::analysis::PssResult) with a stop status)
/// instead of letting it monopolize a serving worker. The counters are
/// checked before each unit of work, so an analysis overruns a counter
/// budget by at most one unit: one Newton solve of the op ladder, one
/// step, one period or one sweep point. The struct is `#[non_exhaustive]`:
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
    /// Cumulative Newton-iteration cap per analysis call, summed across
    /// continuation rungs, sweep points, steps and periods, the
    /// starting operating point's included. Checked before each Newton
    /// solve of the op ladder, each step, each period and each sweep
    /// point. `None` = unlimited.
    pub max_newton: Option<u64>,
    /// Cap on steps attempted (accepted plus rejected): transient steps,
    /// checked before each step; PSS period-integration steps and PAC
    /// recurrence steps, checked before each period. `None` = unlimited.
    pub max_steps: Option<u64>,
    /// Cap on batched-engine SoA lanes, clamping every study driver's
    /// lane width ([`Options::lanes_for`](crate::analysis::Options::lanes_for)).
    /// `None` = unlimited.
    pub max_lanes: Option<usize>,
    /// Wall-clock deadline, checked before each Newton iteration and
    /// before a result is returned. `None` = unlimited.
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

    /// Caps steps attempted (accepted plus rejected).
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
}

/// Why an analysis stopped early: what [`stop_check`] found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Stop {
    /// The cancel token fired.
    Cancelled,
    /// A budget limit fired: the resource (`"steps"`,
    /// `"newton_iterations"`, `"wall_clock_ms"`), its limit and the work
    /// spent.
    Exhausted(&'static str, u64, u64),
}

impl Stop {
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

/// Why a Newton loop returned no result: a stop, which the analysis
/// that ran the loop names, or a solver failure.
#[derive(Debug)]
pub(crate) enum Halt {
    Stop(Stop),
    Fail(SpiceError),
}

impl From<Stop> for Halt {
    fn from(stop: Stop) -> Self {
        Halt::Stop(stop)
    }
}

impl From<SpiceError> for Halt {
    fn from(e: SpiceError) -> Self {
        Halt::Fail(e)
    }
}

impl Halt {
    /// The typed error of `analysis`: a stop named after it, a failure
    /// as it is.
    pub(crate) fn error(self, analysis: &'static str) -> SpiceError {
        match self {
            Halt::Stop(stop) => stop.error(analysis),
            Halt::Fail(e) => e,
        }
    }
}

/// The one stop rule. Every Newton loop calls it before each unit of
/// work (a Newton iteration, solve, step, period or sweep point) with
/// the steps it has attempted and the Newton iterations its analysis
/// call has spent, `None` for a count it does not keep, and calls it
/// again before it returns a result. It checks, in this order,
/// cancellation, the step budget, the Newton budget and the wall-clock
/// deadline, so a counter budget is overrun by at most the one unit
/// that crossed it.
#[inline]
pub(crate) fn stop_check(opts: &Options, steps: Option<u64>, newton: Option<u64>) -> Option<Stop> {
    if opts.cancel.cancelled() {
        return Some(Stop::Cancelled);
    }
    let budget = &opts.budget;
    let over = |spent: Option<u64>, limit: Option<u64>| spent.zip(limit).filter(|(s, l)| s >= l);
    if let Some((spent, limit)) = over(steps, budget.max_steps) {
        return Some(Stop::Exhausted("steps", limit, spent));
    }
    if let Some((spent, limit)) = over(newton, budget.max_newton) {
        return Some(Stop::Exhausted("newton_iterations", limit, spent));
    }
    let deadline = budget.deadline.filter(Deadline::expired)?;
    Some(Stop::Exhausted(
        "wall_clock_ms",
        deadline.limit_ms(),
        deadline.spent_ms(),
    ))
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

    /// The stop rule under `budget` with `steps` attempted and `newton`
    /// iterations spent.
    fn check(budget: Budget, steps: Option<u64>, newton: Option<u64>) -> Option<Stop> {
        stop_check(&Options::default().budget(budget), steps, newton)
    }

    /// Whether the stop rule sees an expired deadline under `budget`.
    fn expired(budget: Budget) -> bool {
        match check(budget, None, None) {
            Some(Stop::Exhausted("wall_clock_ms", ..)) => true,
            None => false,
            other => panic!("not a deadline: {other:?}"),
        }
    }

    #[test]
    fn budget_builders_and_checks() {
        let b = Budget::unlimited();
        assert!(!b.limited());
        assert_eq!(check(b, Some(u64::MAX), Some(u64::MAX)), None);
        assert_eq!(b.clamp_lanes(64), 64);
        let b = b.max_newton(10).max_steps(5).max_lanes(4);
        assert!(b.limited());
        assert_eq!(check(b, Some(4), Some(9)), None);
        let newton = Stop::Exhausted("newton_iterations", 10, 10);
        assert_eq!(check(b, None, Some(10)), Some(newton));
        let steps = Stop::Exhausted("steps", 5, 5);
        assert_eq!(check(b, Some(5), Some(12)), Some(steps), "steps first");
        // A count the loop does not keep never stops it.
        assert_eq!(check(b, None, None), None);
        assert_eq!(b.clamp_lanes(64), 4);
        assert_eq!(Budget::unlimited().max_lanes(0).clamp_lanes(64), 1);
        // Cancellation comes before every limit.
        let token = CancelToken::new();
        token.cancel();
        let opts = Options::default().budget(b).cancel_token(&token);
        assert_eq!(stop_check(&opts, Some(5), Some(10)), Some(Stop::Cancelled));
    }

    #[test]
    fn wall_deadline_arms_and_expires() {
        let b = Budget::unlimited();
        assert!(!expired(b));
        let b = b.max_wall(Duration::from_secs(3600));
        assert!(b.limited());
        assert!(!expired(b), "fresh hour-long budget");
        let b = Budget::unlimited().max_wall(Duration::ZERO);
        match check(b, None, None) {
            Some(Stop::Exhausted("wall_clock_ms", 0, _)) => {}
            other => panic!("zero allowance expires at once: {other:?}"),
        }
        let d = Deadline::within(Duration::from_millis(1500));
        assert_eq!(d.limit_ms(), 1500);
        assert!(!d.expired());
    }

    #[test]
    fn rearmed_restarts_the_clock_and_keeps_counters() {
        // An expired budget reused across jobs must come back alive.
        let stale = Budget::unlimited().max_newton(500).max_wall(Duration::ZERO);
        assert!(expired(stale), "born expired");
        let fresh = stale.rearmed();
        // Duration::ZERO re-arms to an immediately-expired deadline;
        // use a real allowance to observe the restart.
        let stale = Budget::unlimited()
            .max_newton(500)
            .max_wall(Duration::from_secs(3600));
        let fresh2 = stale.rearmed();
        assert!(!expired(fresh2), "clock restarted");
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

    /// A sine-driven RC low-pass: the stepping engines' deck.
    fn driven_rc() -> crate::circuit::Prepared {
        use crate::circuit::Circuit;
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
        crate::circuit::Prepared::compile(&c).unwrap()
    }

    /// A diode behind `R1` = 1 kΩ from the DC source `V1`: the
    /// operating-point engines' deck.
    fn diode_deck() -> crate::circuit::Prepared {
        use crate::circuit::Circuit;
        let mut c = Circuit::new();
        let a = c.node("a");
        let d = c.node("d");
        c.vsource("V1", a, Circuit::gnd(), 5.0);
        c.resistor("R1", a, d, 1e3);
        let dm = c.add_diode_model(crate::model::DiodeModel::default());
        c.diode("D1", d, Circuit::gnd(), dm, 1.0);
        crate::circuit::Prepared::compile(&c).unwrap()
    }

    /// A stop as text: a counter budget's with the work spent, a
    /// deadline's without (its spend is wall time).
    fn describe(stop: Stop) -> String {
        match stop {
            Stop::Cancelled => "cancelled".into(),
            Stop::Exhausted("wall_clock_ms", limit, _) => format!("wall_clock_ms {limit}"),
            Stop::Exhausted(resource, limit, spent) => format!("{resource} {limit} spent {spent}"),
        }
    }

    /// A typed stop error as `error <analysis> <stop>`.
    fn error_text(e: SpiceError) -> String {
        let (analysis, stop) = match e {
            SpiceError::Cancelled { analysis, .. } => (analysis, Stop::Cancelled),
            SpiceError::BudgetExhausted {
                analysis,
                resource,
                limit,
                spent,
            } => (analysis, Stop::Exhausted(resource, limit, spent)),
            other => panic!("not a stop: {other}"),
        };
        format!("error {analysis} {}", describe(stop))
    }

    /// Every stop of every Newton loop under each limit: a pre-cancelled
    /// token, a step budget, a Newton budget and an expired deadline,
    /// with the counter limits set to trip mid-run. The operating point,
    /// the 50-point DC sweep and the lane engine run on a diode deck; the
    /// transient (from initial conditions, then from its operating
    /// point), the PSS and the PAC on a driven RC. An analysis that
    /// starts from an operating point sees the cancelled token and the
    /// expired deadline there, and names the stop after itself; the
    /// PAC's Newton limit stops the PSS it runs, with that PSS's spend.
    /// Prints each row's outcomes with their spend.
    #[test]
    fn stop_check_outcomes_per_engine() {
        use crate::analysis::batched::BatchedOpEngine;
        use crate::analysis::dc::dc_sweep_impl;
        use crate::analysis::op::op_eval;
        use crate::analysis::pac::{pac_impl, PacParams};
        use crate::analysis::pss::{pss_impl, PssParams, PssStatus};
        use crate::analysis::tran::{tran_impl, TranParams, TranStatus};
        use ahfic_num::interp::linspace;

        let mut rc = driven_rc();
        let mut diode = diode_deck();
        let token = CancelToken::new();
        token.cancel();
        let sweep = linspace(0.0, 5.0, 50);
        let tran_params = TranParams::new(5e-6, 5e-9);
        let pss_params = PssParams::new(1e-6, 64);
        let pac_params = PacParams::new("V1", "v(out)", [1e6], 1e6);
        // Per limit: the limit each engine runs under and its outcome, a
        // result, a partial result's status or a typed error, in the
        // order op, dc, tran from initial conditions, tran, pss, pac and
        // the lane engine.
        let table: [(&str, [u64; 7], [&str; 7]); 4] = [
            (
                "cancel",
                [0; 7],
                [
                    "error op cancelled",
                    "error dc cancelled",
                    "status cancelled",
                    "error tran cancelled",
                    "error pss cancelled",
                    "error pac cancelled",
                    "error op cancelled",
                ],
            ),
            (
                "steps",
                [0, 0, 10, 10, 100, 200, 0],
                [
                    "ok 10 iterations",
                    "ok 50 points",
                    "status steps 10 spent 10",
                    "status steps 10 spent 10",
                    "status steps 100 spent 128 after 0",
                    "error pac steps 200 spent 256",
                    "ok 10 iterations",
                ],
            ),
            (
                "newton",
                [0, 10, 20, 20, 100, 100, 0],
                [
                    "error op newton_iterations 0 spent 0",
                    "error dc newton_iterations 10 spent 12",
                    "status newton_iterations 20 spent 20",
                    "status newton_iterations 20 spent 20",
                    "status newton_iterations 100 spent 120 after 0",
                    "error pac newton_iterations 100 spent 129",
                    "error op newton_iterations 0 spent 0",
                ],
            ),
            (
                "wall",
                [0; 7],
                [
                    "error op wall_clock_ms 0",
                    "error dc wall_clock_ms 0",
                    "status wall_clock_ms 0",
                    "error tran wall_clock_ms 0",
                    "error pss wall_clock_ms 0",
                    "error pac wall_clock_ms 0",
                    "error op wall_clock_ms 0",
                ],
            ),
        ];
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
            let op = match op_eval(&diode, &opts(limits[0])) {
                Ok(r) => format!("ok {} iterations", r.iterations),
                Err(e) => error_text(e),
            };
            let dc = match dc_sweep_impl(&mut diode, &opts(limits[1]), "V1", &sweep) {
                Ok(w) => format!("ok {} points", w.len()),
                Err(e) => error_text(e),
            };
            let tran = |o: Options, p: TranParams| match tran_impl(&rc, &o, &p) {
                Ok(r) => match r.status {
                    TranStatus::Cancelled { .. } => "status cancelled".to_string(),
                    TranStatus::BudgetExhausted {
                        resource,
                        limit,
                        spent,
                        ..
                    } => format!(
                        "status {}",
                        describe(Stop::Exhausted(resource, limit, spent))
                    ),
                    other => panic!("tran ran on: {other:?}"),
                },
                Err(e) => error_text(e),
            };
            let tran_uic = tran(opts(limits[2]), tran_params.with_uic());
            let tran_op = tran(opts(limits[3]), tran_params);
            let pss = match pss_impl(&rc, &opts(limits[4]), &pss_params) {
                Ok(r) => match *r.status() {
                    PssStatus::Cancelled { iterations } => {
                        format!("status cancelled after {iterations}")
                    }
                    PssStatus::BudgetExhausted {
                        resource,
                        limit,
                        spent,
                        iterations,
                    } => {
                        let stop = describe(Stop::Exhausted(resource, limit, spent));
                        format!("status {stop} after {iterations}")
                    }
                    ref other => panic!("pss ran on: {other:?}"),
                },
                Err(e) => error_text(e),
            };
            let pac = match pac_impl(&mut rc, &opts(limits[5]), &pss_params, &pac_params) {
                Ok(_) => panic!("pac ran on under the {stop} limit"),
                Err(e) => error_text(e),
            };
            let lanes = BatchedOpEngine::new(2).run(&mut diode, &opts(limits[6]), 3, |p, i| {
                p.circuit.set_resistance("R1", 1e3 * (1.0 + 0.1 * i as f64))
            });
            diode.circuit.set_resistance("R1", 1e3).unwrap();
            let lanes = match lanes.into_iter().next().unwrap() {
                Ok(r) => format!("ok {} iterations", r.iterations),
                Err(e) => error_text(e),
            };
            let got = [op, dc, tran_uic, tran_op, pss, pac, lanes];
            println!("{stop}: {}", got.join(" | "));
            assert_eq!(got, want, "{stop}");
        }
    }

    /// Each analysis overruns a counter budget by at most one unit of
    /// work (a PSS a period, warmup periods included; a DC sweep a
    /// point), and a PAC stopped in its PSS reports that PSS's spend.
    #[test]
    fn budgets_are_overrun_by_at_most_one_unit() {
        use crate::analysis::dc::dc_sweep_impl;
        use crate::analysis::fault::{FaultInjector, FaultKind};
        use crate::analysis::op::op_eval;
        use crate::analysis::pac::{pac_impl, PacParams};
        use crate::analysis::pss::{pss_impl, PssParams, PssStatus};
        use crate::wave::SourceWave;
        use ahfic_num::interp::linspace;
        use ahfic_trace::InMemorySink;
        use std::sync::Arc;

        // Two warmup periods of 64 steps under a 50-step budget: the PSS
        // stops before the second. An injector that never fires counts
        // the Newton solves, one per attempted step after those of the
        // operating point.
        let rc = driven_rc();
        let params = PssParams::new(1e-6, 64);
        let counting = || FaultInjector::once(FaultKind::NoConvergence, 0, 1).with_max_fires(0);
        let op_solves = counting();
        op_eval(&rc, &Options::default().fault_injector(&op_solves)).unwrap();
        let solves = counting();
        let steps = Options::default()
            .budget(Budget::unlimited().max_steps(50))
            .fault_injector(&solves);
        let r = pss_impl(&rc, &steps, &params).unwrap();
        let attempted = solves.solves_seen() - op_solves.solves_seen();
        println!("pss under max_steps(50): {attempted} steps attempted");
        assert!(attempted <= 64, "{attempted} steps attempted");
        assert!(
            matches!(
                r.status(),
                PssStatus::BudgetExhausted {
                    resource: "steps",
                    limit: 50,
                    ..
                }
            ),
            "{:?}",
            r.status()
        );

        // The PAC's PSS runs on the deck with its input silenced: the
        // same PSS under the same Newton budget spends the operating
        // point's iterations plus its periods'.
        let newton = Options::default().budget(Budget::unlimited().max_newton(100));
        let mut silenced = driven_rc();
        silenced
            .circuit
            .set_source_wave("V1", SourceWave::Dc(0.0))
            .unwrap();
        let op_iterations = op_eval(&silenced, &Options::default()).unwrap().iterations as u64;
        let pss = pss_impl(&silenced, &newton, &params).unwrap();
        let pss_spent = op_iterations + pss.newton_iterations;
        let pac = PacParams::new("V1", "v(out)", [1e6], 1e6);
        let mut rc = rc;
        match pac_impl(&mut rc, &newton, &params, &pac) {
            Err(SpiceError::BudgetExhausted {
                analysis: "pac",
                resource: "newton_iterations",
                limit: 100,
                spent,
            }) => {
                println!("pac under max_newton(100): spent {spent}, its pss {pss_spent}");
                assert_eq!(spent, pss_spent);
            }
            other => panic!("expected the PSS's Newton stop, got {other:?}"),
        }

        // A 50-point diode sweep under a 10-iteration Newton budget stops
        // before the first point that starts with 10 or more spent. Each
        // point's iterations are the `op` counters of an unlimited traced
        // sweep.
        let mut diode = diode_deck();
        let sweep = linspace(0.0, 5.0, 50);
        let sink = Arc::new(InMemorySink::new());
        let traced = Options::default().trace(&sink);
        dc_sweep_impl(&mut diode, &traced, "V1", &sweep).unwrap();
        let per_point: Vec<u64> = sink
            .records()
            .iter()
            .filter(|r| r.name == "op.newton_iterations")
            .map(|r| r.value as u64)
            .collect();
        assert_eq!(per_point.len(), sweep.len());
        let total: u64 = per_point.iter().sum();
        let mut expected = 0;
        for it in per_point {
            if expected >= 10 {
                break;
            }
            expected += it;
        }
        let o = Options::default().budget(Budget::unlimited().max_newton(10));
        match dc_sweep_impl(&mut diode, &o, "V1", &sweep) {
            Err(SpiceError::BudgetExhausted {
                analysis: "dc",
                resource: "newton_iterations",
                limit: 10,
                spent,
            }) => {
                println!("dc under max_newton(10): spent {spent} of the sweep's {total}");
                assert_eq!(spent, expected);
            }
            other => panic!("expected the sweep's Newton stop, got {other:?}"),
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
