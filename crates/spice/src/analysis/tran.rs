//! Transient analysis: trapezoidal integration with Newton at every step,
//! source breakpoints, and iteration-count step control.
//!
//! The steps themselves are the time-stepping core's
//! (`analysis::stepper`), shared with the PSS period integrator: each
//! step's Newton solve starts from a predicted solution, and this engine
//! restarts the prediction after each source breakpoint, whose corner
//! breaks the smoothness the extrapolation assumes. The convergence
//! test, pnjlim veto and step control are those of a start from the
//! last point, so a linear circuit, which Newton solves exactly from any
//! start, keeps its bits, while a nonlinear one mostly converges in one
//! iteration, closer to the exact step solution. This engine owns the
//! step control, the breakpoints, the budgets, the streaming and the
//! waveform.
//!
//! The engine returns a typed [`TranResult`]: a cancelled or
//! budget-exhausted run yields the waveform integrated so far plus a
//! [`TranStatus`] describing why it stopped, instead of discarding the
//! partial work. With [`Options::stream`] enabled it also emits
//! `progress.tran.*` records over the trace path at a fixed
//! accepted-step cadence, so a `JsonLinesSink` client watches a long
//! run live.

use crate::analysis::control::{stop_check, Halt, Stop};
use crate::analysis::op::op_from_eval;
use crate::analysis::stamp::Options;
use crate::analysis::stepper::{Step, Stepper};
use crate::circuit::Prepared;
use crate::error::{Result, SpiceError};
use crate::wave::Waveform;
use ahfic_trace::{Tracer, TranStats};

/// Transient analysis parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TranParams {
    /// Stop time (s).
    pub t_stop: f64,
    /// Maximum internal timestep (s); also bounds output resolution.
    pub dt_max: f64,
    /// Initial timestep; defaults to `dt_max / 10`.
    pub dt_init: Option<f64>,
    /// Skip the DC operating point and start from declared initial
    /// conditions (SPICE `UIC`).
    pub uic: bool,
}

impl TranParams {
    /// Conventional setup: simulate to `t_stop` with steps bounded by
    /// `dt_max`, starting from the DC operating point.
    pub fn new(t_stop: f64, dt_max: f64) -> Self {
        TranParams {
            t_stop,
            dt_max,
            dt_init: None,
            uic: false,
        }
    }

    /// Same, but starting from initial conditions instead of the OP.
    pub fn with_uic(mut self) -> Self {
        self.uic = true;
        self
    }
}

/// Hard cap on accepted plus rejected steps, as a runaway guard.
const MAX_STEPS: usize = 50_000_000;

/// Why a transient run stopped.
///
/// `#[non_exhaustive]`: more stop reasons may grow here; match with a
/// wildcard arm.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum TranStatus {
    /// The run reached `t_stop`.
    Complete,
    /// A [`CancelToken`](crate::analysis::CancelToken) fired; the
    /// waveform holds every step accepted before `t`.
    Cancelled {
        /// Simulation time of the last accepted step.
        t: f64,
    },
    /// A [`Budget`](crate::analysis::Budget) limit fired.
    BudgetExhausted {
        /// Which limit (`"steps"`, `"newton_iterations"`,
        /// `"wall_clock_ms"`).
        resource: &'static str,
        /// The configured limit.
        limit: u64,
        /// The work spent when the limit fired: steps attempted, Newton
        /// iterations (the starting operating point's included) or
        /// milliseconds.
        spent: u64,
        /// Simulation time of the last accepted step.
        t: f64,
    },
}

impl TranStatus {
    /// The status of a run stopped at `t`.
    fn stopped(stop: Stop, t: f64) -> Self {
        match stop {
            Stop::Cancelled => TranStatus::Cancelled { t },
            Stop::Exhausted(resource, limit, spent) => TranStatus::BudgetExhausted {
                resource,
                limit,
                spent,
                t,
            },
        }
    }
}

/// Typed result of a transient run: the integrated waveform plus why
/// and where the run stopped.
///
/// Cancellation and budget exhaustion are *statuses*, not errors — the
/// partial waveform is still returned so a serving client gets every
/// step paid for. `#[non_exhaustive]`: construct only through the
/// transient entry points.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct TranResult {
    /// Accepted samples (axis = time), up to where the run stopped.
    pub wave: Waveform,
    /// Why the run stopped.
    pub status: TranStatus,
    /// Accepted timesteps.
    pub accepted_steps: u64,
    /// Rejected (re-tried) timesteps.
    pub rejected_steps: u64,
    /// Newton iterations spent across all steps.
    pub newton_iterations: u64,
}

impl TranResult {
    /// The integrated waveform (partial when the run was stopped).
    pub fn wave(&self) -> &Waveform {
        &self.wave
    }

    /// Consumes the result, returning the waveform.
    pub fn into_wave(self) -> Waveform {
        self.wave
    }

    /// Why the run stopped.
    pub fn status(&self) -> &TranStatus {
        &self.status
    }

    /// Whether the run reached `t_stop`.
    pub fn is_complete(&self) -> bool {
        self.status == TranStatus::Complete
    }

    /// Simulation time of the last accepted sample (0.0 for a run
    /// stopped before its first step).
    pub fn t_end(&self) -> f64 {
        self.wave.axis().last().copied().unwrap_or(0.0)
    }

    /// Accepted timesteps.
    pub fn accepted_steps(&self) -> u64 {
        self.accepted_steps
    }

    /// Rejected (re-tried) timesteps.
    pub fn rejected_steps(&self) -> u64 {
        self.rejected_steps
    }

    /// Newton iterations spent across all steps.
    pub fn newton_iterations(&self) -> u64 {
        self.newton_iterations
    }
}

/// Emits one incremental-progress chunk over the trace path (the
/// streaming record schema documented in DESIGN.md): where the run is
/// (`t`, fraction, accepted steps) and the latest accepted value of
/// every signal.
fn emit_progress(tr: Tracer<'_>, prep: &Prepared, t: f64, t_stop: f64, accepted: u64, x: &[f64]) {
    tr.counter("progress.tran.t", t);
    tr.counter("progress.tran.frac", (t / t_stop).min(1.0));
    tr.counter("progress.tran.steps", accepted as f64);
    for (name, &v) in prep.unknown_names.iter().zip(x) {
        tr.counter(&format!("progress.tran.sig.{name}"), v);
    }
}

/// The transient engine behind [`Session::tran`](crate::analysis::Session::tran):
/// trapezoidal integration with Newton at every step, returning a typed
/// [`TranResult`].
pub(crate) fn tran_impl(
    prep: &Prepared,
    opts: &Options,
    params: &TranParams,
) -> Result<TranResult> {
    if params.t_stop <= 0.0 || params.dt_max <= 0.0 {
        return Err(SpiceError::BadAnalysis(
            "transient needs positive t_stop and dt_max".into(),
        ));
    }
    let tr = opts.trace.tracer();
    let span = tr.span("tran");
    let mut stats = TranStats::default();

    // Initial state. The operating point's Newton iterations count
    // toward the call's Newton budget.
    let (x0, op_iterations) = if params.uic {
        let mut x0 = vec![0.0; prep.num_unknowns];
        for &(node, v) in prep.circuit.ics() {
            let slot = prep.slot_of(node);
            if slot != crate::circuit::GROUND_SLOT {
                x0[slot] = v;
            }
        }
        (x0, 0)
    } else {
        let op = op_from_eval(prep, opts, None, "tran")?;
        (op.x, op.iterations as u64)
    };
    let mut stepper = Stepper::new(prep, opts);
    stepper.start(0.0, &x0);

    // Breakpoints declared by the devices themselves (independent
    // sources report their waveform corners).
    let mut breakpoints: Vec<f64> = Vec::new();
    for d in prep.devices() {
        d.breakpoints(&prep.circuit, params.t_stop, &mut breakpoints);
    }
    breakpoints.retain(|&t| t > 0.0);
    breakpoints.sort_by(|a, b| a.total_cmp(b));
    // Merge tolerance relative to the simulated span: an absolute 1e-15
    // would treat distinct nanosecond-scale breakpoints of a long run as
    // one, or keep float-noise duplicates of a femtosecond run apart.
    let bp_tol = params.t_stop * 1e-12;
    breakpoints.dedup_by(|a, b| (*a - *b).abs() <= bp_tol);
    stats.breakpoints = breakpoints.len() as u64;
    let mut next_bp = 0usize;

    let h_init = params
        .dt_init
        .unwrap_or(params.dt_max / 10.0)
        .min(params.dt_max);
    let h_min = (params.t_stop * 1e-12).max(1e-21);
    let mut h = h_init;

    let mut wave = stepper.wave();
    wave.push_sample(0.0, &x0);

    let mut t = 0.0f64;
    let mut steps = 0usize;
    let mut singular_streak = 0usize;
    let mut status = TranStatus::Complete;
    let stream_every = opts.stream.every();
    while t < params.t_stop - 1e-15 * params.t_stop {
        // The stop rule before each step (and inside its Newton solve),
        // so a stopped run always ends on a consistent accepted state.
        let newton = op_iterations + stats.newton_iterations;
        if let Some(stop) = stop_check(opts, Some(steps as u64), Some(newton)) {
            status = TranStatus::stopped(stop, t);
            break;
        }
        steps += 1;
        if steps > MAX_STEPS {
            return Err(SpiceError::NoConvergence {
                analysis: "tran",
                iterations: steps,
                time: Some(t),
                report: None,
            });
        }
        // Clip the step to the stop time and the next breakpoint.
        let mut h_eff = h.min(params.t_stop - t);
        let mut hit_bp = false;
        if next_bp < breakpoints.len() {
            let bp = breakpoints[next_bp];
            if t + h_eff >= bp - 1e-18 {
                h_eff = bp - t;
                hit_bp = true;
            }
        }
        if h_eff <= 0.0 {
            // Breakpoint coincides with current time.
            next_bp += 1;
            stepper.restart_history();
            continue;
        }

        let step = Step {
            t: t + h_eff,
            h: h_eff,
            be: false,
        };
        match stepper.step(t, &step) {
            // The accept point: `newton_solve` applies the stop rule
            // before returning a converged step, so a step that overran
            // the deadline arrives as the stop below, never here.
            Ok(iters) => {
                stats.accepted_steps += 1;
                stats.newton_iterations += iters as u64;
                singular_streak = 0;
                t = step.t;
                stepper.record(|x| wave.push_sample(t, x));
                if let Some(every) = stream_every {
                    if stats.accepted_steps % every as u64 == 0 {
                        emit_progress(
                            tr,
                            prep,
                            t,
                            params.t_stop,
                            stats.accepted_steps,
                            stepper.x(),
                        );
                    }
                }
                if hit_bp {
                    next_bp += 1;
                    stepper.restart_history();
                    h = h_init.min(params.dt_max);
                } else if iters <= 3 {
                    h = (h * 1.5).min(params.dt_max);
                } else if iters >= 10 {
                    h = (h * 0.5).max(h_min);
                }
            }
            Err(Halt::Stop(stop)) => {
                // The in-flight step is discarded; the waveform keeps
                // every step accepted before it.
                status = TranStatus::stopped(stop, t);
                break;
            }
            Err(Halt::Fail(SpiceError::Singular { unknown })) => {
                // A singular factorization mid-run is usually transient
                // (an unlucky operating point or an injected fault), so
                // reject the step and retry smaller a bounded number of
                // times before concluding the circuit is structurally
                // broken.
                singular_streak += 1;
                stats.rejected_steps += 1;
                h *= 0.25;
                if singular_streak > 3 || h < h_min {
                    return Err(SpiceError::Singular { unknown });
                }
            }
            Err(Halt::Fail(_)) => {
                stats.rejected_steps += 1;
                stats.newton_iterations += opts.max_newton as u64;
                singular_streak = 0;
                h *= 0.25;
                if h < h_min {
                    return Err(SpiceError::NoConvergence {
                        analysis: "tran",
                        iterations: steps,
                        time: Some(t),
                        report: None,
                    });
                }
            }
        }
    }
    if stream_every.is_some() {
        tr.event("progress.tran.done");
    }
    stats.emit(tr, "tran");
    stepper.stats().emit(tr, "tran");
    stepper.phases().emit(tr, "tran");
    span.end();
    Ok(TranResult {
        wave,
        status,
        accepted_steps: stats.accepted_steps,
        rejected_steps: stats.rejected_steps,
        newton_iterations: stats.newton_iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::wave::SourceWave;

    fn opts() -> Options {
        Options::default()
    }

    /// Test shim over the engine: the waveform of a complete run.
    fn tran(prep: &Prepared, o: &Options, p: &TranParams) -> Result<Waveform> {
        tran_impl(prep, o, p).map(TranResult::into_wave)
    }

    #[test]
    fn rc_charging_matches_analytic() {
        // 1 V step into R=1k, C=1n: tau = 1 us.
        let mut c = Circuit::new();
        let a = c.node("a");
        let out = c.node("out");
        c.vsource_wave(
            "V1",
            a,
            Circuit::gnd(),
            SourceWave::Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 0.0,
                rise: 1e-9,
                fall: 1e-9,
                width: 1.0,
                period: 0.0,
            },
        );
        c.resistor("R1", a, out, 1e3);
        c.capacitor("C1", out, Circuit::gnd(), 1e-9);
        let prep = Prepared::compile(&c).unwrap();
        let w = tran(&prep, &opts(), &TranParams::new(5e-6, 5e-9)).unwrap();
        let v = w.signal("v(out)").unwrap();
        let ts = w.axis();
        for (k, &t) in ts.iter().enumerate() {
            if t < 5e-9 {
                continue;
            }
            let expect = 1.0 - (-(t - 1e-9) / 1e-6).exp();
            assert!(
                (v[k] - expect).abs() < 6e-3,
                "t={t:.3e}: {} vs {expect}",
                v[k]
            );
        }
        // Practically fully charged at the end.
        assert!((w.last("v(out)").unwrap() - 1.0).abs() < 1e-2);
    }

    #[test]
    fn lc_oscillation_period() {
        // UIC start: C charged to 1 V rings with L at f = 1/(2 pi sqrt(LC)).
        let mut c = Circuit::new();
        let a = c.node("a");
        c.capacitor("C1", a, Circuit::gnd(), 1e-9);
        c.inductor("L1", a, Circuit::gnd(), 1e-6);
        c.resistor("Rdamp", a, Circuit::gnd(), 1e6);
        c.set_ic(a, 1.0);
        let prep = Prepared::compile(&c).unwrap();
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1e-6f64 * 1e-9).sqrt());
        let period = 1.0 / f0;
        let w = tran(
            &prep,
            &opts(),
            &TranParams::new(3.0 * period, period / 400.0).with_uic(),
        )
        .unwrap();
        let v = w.signal("v(a)").unwrap();
        let ts = w.axis();
        // Find the first two downward zero crossings to estimate period.
        let mut crossings = Vec::new();
        for k in 1..v.len() {
            if v[k - 1] > 0.0 && v[k] <= 0.0 {
                let frac = v[k - 1] / (v[k - 1] - v[k]);
                crossings.push(ts[k - 1] + frac * (ts[k] - ts[k - 1]));
            }
        }
        assert!(crossings.len() >= 2, "no oscillation seen");
        let measured = crossings[1] - crossings[0];
        assert!(
            (measured - period).abs() / period < 0.01,
            "period {measured:.3e} vs {period:.3e}"
        );
    }

    #[test]
    fn sin_source_amplitude_preserved() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource_wave(
            "V1",
            a,
            Circuit::gnd(),
            SourceWave::Sin {
                offset: 0.0,
                ampl: 1.0,
                freq: 1e6,
                delay: 0.0,
                damping: 0.0,
                phase_deg: 0.0,
            },
        );
        c.resistor("R1", a, Circuit::gnd(), 50.0);
        let prep = Prepared::compile(&c).unwrap();
        let w = tran(&prep, &opts(), &TranParams::new(3e-6, 5e-9)).unwrap();
        let v = w.signal("v(a)").unwrap();
        let max = v.iter().cloned().fold(f64::MIN, f64::max);
        let min = v.iter().cloned().fold(f64::MAX, f64::min);
        assert!((max - 1.0).abs() < 1e-3);
        assert!((min + 1.0).abs() < 1e-3);
    }

    #[test]
    fn uic_respects_initial_condition() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.capacitor("C1", a, Circuit::gnd(), 1e-9);
        c.resistor("R1", a, Circuit::gnd(), 1e3);
        c.set_ic(a, 2.0);
        let prep = Prepared::compile(&c).unwrap();
        let w = tran(&prep, &opts(), &TranParams::new(5e-6, 10e-9).with_uic()).unwrap();
        let v = w.signal("v(a)").unwrap();
        assert!((v[0] - 2.0).abs() < 1e-12);
        // Decays with tau = 1 us.
        let t1 = w.axis().iter().position(|&t| t >= 1e-6).unwrap();
        assert!((v[t1] - 2.0 * (-1.0f64).exp()).abs() < 0.02);
        assert!(w.last("v(a)").unwrap().abs() < 0.02);
    }

    #[test]
    fn rejects_bad_params() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R1", a, Circuit::gnd(), 1.0);
        let prep = Prepared::compile(&c).unwrap();
        assert!(tran(&prep, &opts(), &TranParams::new(0.0, 1e-9)).is_err());
        assert!(tran(&prep, &opts(), &TranParams::new(1e-6, 0.0)).is_err());
    }

    /// RC circuit used by the cancellation/budget/streaming tests.
    fn rc_fixture() -> Prepared {
        let mut c = Circuit::new();
        let a = c.node("a");
        let out = c.node("out");
        c.vsource_wave(
            "V1",
            a,
            Circuit::gnd(),
            SourceWave::Sin {
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
        Prepared::compile(&c).unwrap()
    }

    /// A sink that fires a cancel token the moment it sees the k-th
    /// accepted-step progress record: a deterministic mid-run cancel.
    struct CancelAtStep {
        token: crate::analysis::control::CancelToken,
        at: f64,
    }

    impl ahfic_trace::TraceSink for CancelAtStep {
        fn record(&self, rec: ahfic_trace::TraceRecord) {
            if rec.name == "progress.tran.steps" && rec.value >= self.at {
                self.token.cancel();
            }
        }
    }

    #[test]
    fn cancel_mid_transient_returns_typed_partial() {
        use crate::analysis::control::CancelToken;
        use std::sync::Arc;
        let prep = rc_fixture();
        let token = CancelToken::new();
        let sink = Arc::new(CancelAtStep {
            token: token.clone(),
            at: 20.0,
        });
        let o = Options::default()
            .cancel_token(&token)
            .stream_every(1)
            .trace(&sink);
        let r = tran_impl(&prep, &o, &TranParams::new(5e-6, 5e-9)).unwrap();
        match r.status() {
            TranStatus::Cancelled { t } => assert!(*t > 0.0 && *t < 5e-6),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert!(!r.is_complete());
        // The cancel fired while accepting step 20; the engine may
        // commit at most the step already in flight before observing it.
        assert!(
            r.accepted_steps() >= 20 && r.accepted_steps() <= 21,
            "stopped after {} steps",
            r.accepted_steps()
        );
        // Partial waveform: every accepted sample is present.
        assert_eq!(r.wave().len(), r.accepted_steps() as usize + 1);
        assert!((r.t_end() - r.wave().axis().last().unwrap()).abs() == 0.0);
    }

    /// A step that keeps failing ends the run with the time it failed
    /// at and the step attempts spent, and the message says "step
    /// attempts": 9 committed steps, then 15 attempts at a quarter of
    /// the step each until the step falls below `h_min`.
    #[test]
    fn failed_step_names_its_step_attempts_and_time() {
        use crate::analysis::fault::{FaultInjector, FaultKind};
        let prep = rc_fixture();
        // Solve 0 is the operating point and each later solve one step
        // attempt: steps 1 to 9 commit, and every later attempt fails.
        let failing = FaultInjector::recurring(FaultKind::NoConvergence, 10, 1);
        let o = Options::default().fault_injector(&failing);
        let e = tran_impl(&prep, &o, &TranParams::new(5e-6, 5e-9)).unwrap_err();
        assert!(
            matches!(
                e,
                SpiceError::NoConvergence {
                    analysis: "tran",
                    time: Some(_),
                    ..
                }
            ),
            "{e:?}"
        );
        assert_eq!(
            e.to_string(),
            "tran analysis failed to converge after 24 step attempts at t=2.5391e-8s"
        );
    }

    #[test]
    fn step_budget_returns_typed_partial() {
        use crate::analysis::control::Budget;
        let prep = rc_fixture();
        let o = Options::default().budget(Budget::unlimited().max_steps(10));
        let r = tran_impl(&prep, &o, &TranParams::new(5e-6, 5e-9)).unwrap();
        match r.status() {
            TranStatus::BudgetExhausted {
                resource, limit, ..
            } => {
                assert_eq!(*resource, "steps");
                assert_eq!(*limit, 10);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        assert_eq!(r.accepted_steps() + r.rejected_steps(), 10);
    }

    #[test]
    fn streaming_emits_progress_chunks() {
        use ahfic_trace::InMemorySink;
        use std::sync::Arc;
        let prep = rc_fixture();
        let sink = Arc::new(InMemorySink::new());
        let o = Options::default().stream_every(8).trace(&sink);
        let r = tran_impl(&prep, &o, &TranParams::new(1e-6, 5e-9)).unwrap();
        assert!(r.is_complete());
        let recs = sink.records();
        let ts: Vec<f64> = recs
            .iter()
            .filter(|r| r.name == "progress.tran.t")
            .map(|r| r.value)
            .collect();
        // One chunk per 8 accepted steps, monotonically advancing.
        assert!(ts.len() >= 2, "{} chunks", ts.len());
        assert!(ts.windows(2).all(|w| w[1] > w[0]));
        assert!(recs.iter().any(|r| r.name == "progress.tran.sig.v(out)"));
        assert!(recs.iter().any(|r| r.name == "progress.tran.done"));
        // Off by default: no progress records without the policy.
        let sink2 = Arc::new(InMemorySink::new());
        let o2 = Options::default().trace(&sink2);
        tran_impl(&prep, &o2, &TranParams::new(1e-6, 5e-9)).unwrap();
        assert!(sink2
            .records()
            .iter()
            .all(|r| !r.name.starts_with("progress.")));
    }

    #[test]
    fn breakpoints_are_hit_exactly() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource_wave(
            "V1",
            a,
            Circuit::gnd(),
            SourceWave::Pwl(vec![(0.0, 0.0), (1e-6, 0.0), (1.001e-6, 1.0), (2e-6, 1.0)]),
        );
        c.resistor("R1", a, Circuit::gnd(), 1e3);
        let prep = Prepared::compile(&c).unwrap();
        let w = tran(&prep, &opts(), &TranParams::new(2e-6, 0.5e-6)).unwrap();
        // The sharp edge between 1.0 us and 1.001 us must be resolved even
        // though dt_max is 0.5 us.
        assert!(w.axis().iter().any(|&t| (t - 1e-6).abs() < 1e-15));
        assert!(w.axis().iter().any(|&t| (t - 1.001e-6).abs() < 1e-15));
        assert!((w.last("v(a)").unwrap() - 1.0).abs() < 1e-9);
    }
}
