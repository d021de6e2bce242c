//! The time-stepping core shared by the transient and the PSS period
//! integrator. A [`Stepper`] owns every buffer a step needs, so a run
//! allocates nothing per step. [`Stepper::start`] sets the state and
//! restarts the charge bank and the history there; [`Stepper::step`]
//! predicts the Newton start, solves, and on convergence commits the
//! charges, the history and the state. Step control, grids, budgets and
//! waveforms stay with the engines.
//!
//! With the trace on, the stepper times the phases of its steps that
//! the workspace's factor and solve counters do not cover: the Newton
//! assembly (device stamping), the charge commit, and the engine's
//! record of each accepted step ([`StepPhases`]).
//!
//! Each Newton solve starts from the variable-step quadratic through the
//! last three accepted points, extrapolated to the step's end time; the
//! line while only two exist; the last point itself after a restart. An
//! engine restarts the history where the waveform may have a corner: at
//! a source breakpoint and, for PSS, at every period start.

use crate::analysis::control::Halt;
use crate::analysis::op::{newton_solve, NewtonCfg};
use crate::analysis::solver::SolverWorkspace;
use crate::analysis::stamp::{
    update_all_charges, ChargeBank, ChargeState, Mode, NonlinMemory, Options,
};
use crate::circuit::Prepared;
use crate::wave::Waveform;
use ahfic_trace::{SolverStats, Tracer};

/// One integration step: its end time `t` and length `h` (both given,
/// since deriving one from the other would round differently in each
/// engine), and whether it is backward Euler (the PSS period's first
/// step, or the first piece of its bisection) rather than trapezoidal.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Step {
    pub(crate) t: f64,
    pub(crate) h: f64,
    pub(crate) be: bool,
}

impl Step {
    /// The companion coefficient `a`: `1/h` for backward Euler, `2/h`
    /// for the trapezoidal rule; the PSS linearization factors `G + a·C`
    /// with it too.
    pub(crate) fn a(&self) -> f64 {
        if self.be {
            1.0 / self.h
        } else {
            2.0 / self.h
        }
    }
}

/// Wall time of a run's step phases outside factor and solve, summed
/// while the workspace's timing is on (all zero otherwise).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct StepPhases {
    /// Newton assembly: linear replay and device stamps.
    pub(crate) device: f64,
    /// Charge commit of the converged steps.
    pub(crate) commit: f64,
    /// The engine's record of each accepted step: the transient's
    /// waveform or the PSS orbit.
    pub(crate) record: f64,
}

impl StepPhases {
    /// Emits `<prefix>.device_seconds`, `.commit_seconds` and
    /// `.record_seconds`. No-op when the tracer is disabled.
    pub(crate) fn emit(&self, t: Tracer<'_>, prefix: &str) {
        if !t.enabled() {
            return;
        }
        t.counter(&format!("{prefix}.device_seconds"), self.device);
        t.counter(&format!("{prefix}.commit_seconds"), self.commit);
        t.counter(&format!("{prefix}.record_seconds"), self.record);
    }
}

/// The accepted points before the last one, from which each step's
/// Newton start is extrapolated.
struct History {
    /// `x_{n-1}` and `x_{n-2}`.
    x: [Vec<f64>; 2],
    /// `t_{n-1}` and `t_{n-2}`.
    t: [f64; 2],
    /// How many of them follow the last restart (0, 1 or 2).
    len: usize,
}

impl History {
    fn new(n: usize) -> Self {
        History {
            x: [vec![0.0; n], vec![0.0; n]],
            t: [0.0; 2],
            len: 0,
        }
    }

    /// Forgets every earlier point: the next step starts from `x_n`.
    fn restart(&mut self) {
        self.len = 0;
    }

    /// Records the accepted `(t_n, x_n)` as the newest earlier point,
    /// before the step that replaces it is committed.
    fn push(&mut self, t: f64, x: &[f64]) {
        self.x.swap(0, 1);
        self.x[0].copy_from_slice(x);
        self.t = [t, self.t[0]];
        self.len = (self.len + 1).min(2);
    }

    /// Writes into `out` the Newton start of the step `t → t + h` from
    /// `(t, x)`: the polynomial through the earlier points and `(t, x)`,
    /// evaluated at `t + h` in Newton's divided-difference form so a
    /// constant unknown is predicted exactly, or `x` itself when there
    /// is no earlier point.
    fn predict(&self, t: f64, x: &[f64], h: f64, out: &mut [f64]) {
        if self.len == 0 {
            out.copy_from_slice(x);
            return;
        }
        let h1 = t - self.t[0];
        if self.len == 1 {
            for ((o, &xn), &x1) in out.iter_mut().zip(x).zip(&self.x[0]) {
                *o = xn + h * (xn - x1) / h1;
            }
        } else {
            let h2 = self.t[0] - self.t[1];
            let iter = out.iter_mut().zip(x).zip(&self.x[0]).zip(&self.x[1]);
            for (((o, &xn), &x1), &x2) in iter {
                let d1 = (xn - x1) / h1;
                let d2 = (d1 - (x1 - x2) / h2) / (h1 + h2);
                *o = xn + h * (d1 + (h + h1) * d2);
            }
        }
    }
}

/// The buffers of a time-stepping run, reused across its steps and, for
/// PSS, across its period integrations.
pub(crate) struct Stepper<'a> {
    prep: &'a Prepared,
    pub(crate) opts: &'a Options,
    /// The Tran-mode stamp sequence is fixed, so every Newton iteration
    /// after the first assembly replays slots and refactors in place.
    ws: SolverWorkspace<f64>,
    mem: NonlinMemory,
    /// Charge states at the committed point, and a converged step's
    /// states before they are committed.
    bank: ChargeBank,
    scratch: Vec<ChargeState>,
    history: History,
    /// The committed state, and the Newton iterate a converged step
    /// swaps in.
    x: Vec<f64>,
    x_new: Vec<f64>,
    /// Commit and record times (the assembly time is the workspace's).
    phases: StepPhases,
}

impl<'a> Stepper<'a> {
    pub(crate) fn new(prep: &'a Prepared, opts: &'a Options) -> Self {
        let n = prep.num_unknowns;
        let mut ws = SolverWorkspace::new(n);
        let timing = opts.trace.tracer().enabled();
        ws.set_timing(timing);
        ws.assemble_seconds = timing.then_some(0.0);
        let bank = ChargeBank::new(prep);
        let scratch = bank.states.clone();
        Stepper {
            prep,
            opts,
            ws,
            mem: NonlinMemory::new(prep),
            bank,
            scratch,
            history: History::new(n),
            x: vec![0.0; n],
            x_new: vec![0.0; n],
            phases: StepPhases::default(),
        }
    }

    /// Starts a run at `(t0, x0)`: the charge bank is evaluated there
    /// and the history restarts.
    pub(crate) fn start(&mut self, t0: f64, x0: &[f64]) {
        self.x.copy_from_slice(x0);
        self.history.restart();
        // The `a = 0` companion reads `i = -i_prev` from the bank, so
        // the bank is zeroed first to make this a pure charge evaluation
        // with zero current: stale states of an earlier run would
        // otherwise leak into the start.
        self.bank.states.fill(ChargeState::default());
        let mode = Mode::Tran {
            time: t0,
            a: 0.0,
            be: false,
            bank: &self.bank,
            x_prev: &self.x,
        };
        update_all_charges(self.prep, &self.x, self.opts, &mode, &mut self.scratch);
        self.bank.states.copy_from_slice(&self.scratch);
    }

    /// One step from the committed point at `t0`, returning its Newton
    /// iteration count. A stop or failure commits nothing, so the caller
    /// may retry from the same point.
    pub(crate) fn step(&mut self, t0: f64, step: &Step) -> Result<usize, Halt> {
        let mode = Mode::Tran {
            time: step.t,
            a: step.a(),
            be: step.be,
            bank: &self.bank,
            x_prev: &self.x,
        };
        self.history.predict(t0, &self.x, step.h, &mut self.x_new);
        let iters = newton_solve(
            self.prep,
            self.opts,
            &mode,
            &mut self.mem,
            &mut self.x_new,
            &mut self.ws,
            &NewtonCfg::plain(),
        )?;
        let started = self.ws.clock();
        update_all_charges(self.prep, &self.x_new, self.opts, &mode, &mut self.scratch);
        self.bank.states.copy_from_slice(&self.scratch);
        if let Some(t0) = started {
            self.phases.commit += t0.elapsed().as_secs_f64();
        }
        self.history.push(t0, &self.x);
        std::mem::swap(&mut self.x, &mut self.x_new);
        Ok(iters)
    }

    /// Forgets the history: the next step starts its Newton solve from
    /// the state itself.
    pub(crate) fn restart_history(&mut self) {
        self.history.restart();
    }

    /// The state at the last committed point.
    pub(crate) fn x(&self) -> &[f64] {
        &self.x
    }

    /// Hands the state at the last committed point to the engine's
    /// `record` of an accepted step, timed as [`StepPhases::record`].
    pub(crate) fn record(&mut self, record: impl FnOnce(&[f64])) {
        let started = self.ws.clock();
        record(&self.x);
        if let Some(t0) = started {
            self.phases.record += t0.elapsed().as_secs_f64();
        }
    }

    /// Factorizations and solves of every step so far.
    pub(crate) fn stats(&self) -> &SolverStats {
        &self.ws.stats
    }

    /// Phase times of every step so far.
    pub(crate) fn phases(&self) -> StepPhases {
        StepPhases {
            device: self.ws.assemble_seconds.unwrap_or(0.0),
            ..self.phases
        }
    }

    /// An empty waveform over time with one signal per unknown.
    pub(crate) fn wave(&self) -> Waveform {
        let mut w = Waveform::new("time");
        for name in &self.prep.unknown_names {
            w.push_signal(name);
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicted_start_is_exact_on_quadratics_and_constants() {
        let q = |t: f64| 3.0 - 2.0 * t + 5.0 * t * t;
        let mut hist = History::new(2);
        let mut out = [0.0; 2];
        // No earlier point: the start is x_n.
        hist.predict(0.0, &[q(0.0), 7.0], 0.1, &mut out);
        assert_eq!(out, [q(0.0), 7.0]);
        hist.push(0.0, &[q(0.0), 7.0]);
        // Two points: the line through them.
        hist.predict(0.3, &[q(0.3), 7.0], 0.2, &mut out);
        let line = q(0.3) + 0.2 * (q(0.3) - q(0.0)) / 0.3;
        assert!((out[0] - line).abs() < 1e-12, "{} vs {line}", out[0]);
        assert_eq!(out[1], 7.0);
        hist.push(0.3, &[q(0.3), 7.0]);
        // Three unevenly spaced points: the quadratic, at any step, and
        // a constant unknown to the bit.
        for h in [0.05, 0.4, 1.0] {
            hist.predict(0.45, &[q(0.45), 7.0], h, &mut out);
            assert!((out[0] - q(0.45 + h)).abs() < 1e-12, "h = {h}");
            assert_eq!(out[1], 7.0);
        }
        hist.restart();
        hist.predict(0.45, &[q(0.45), 7.0], 0.1, &mut out);
        assert_eq!(out, [q(0.45), 7.0]);
    }
}
