//! Periodic steady state by shooting Newton on one linearized orbit.
//!
//! One evaluation of the period map `Φ(x₀)` integrates the circuit over
//! exactly one period on a *fixed* grid (uniform steps merged with the
//! device-declared source breakpoints) with the transient's
//! time-stepping core (`analysis::stepper`): the first step is backward
//! Euler, the rest trapezoidal, and each Newton solve starts from a
//! predicted solution, restarted at the period start and at every
//! source breakpoint. A grid interval whose Newton solve fails is
//! bisected by a fixed rule, so `Φ` stays a function of `x₀` alone. The
//! trace counts committed steps as accepted and failed attempts as
//! rejected; the step budget counts both.
//! Periodicity is the root of `Φ(x₀) − x₀`; each shooting update solves
//!
//! ```text
//! (M − I)·dx = −(Φ(x₀) − x₀),    M = ∂Φ/∂x₀  (the monodromy matrix)
//! ```
//!
//! with GMRES on exact products `M·v` (Telichevesky, Kundert & White,
//! DAC 1995). The integration records every step it commits, bisected
//! substeps included, and a `LinearizedOrbit` linearizes it step for
//! step: one ω = 1 AC assembly `G_k + j·C_k` at each step's end state,
//! the factors of `J_k = G_k + a_k·C_k` and the nonzeros of `C_k`. One
//! product is then one period of stored-factor solves of the
//! small-signal recurrence
//!
//! ```text
//! δx_k = J_k⁻¹·(a_k·δq_{k−1} + δi_{k−1})
//! δq_k = C_k·δx_k
//! δi_k = a_k·(δq_k − δq_{k−1}) − δi_{k−1}
//! ```
//!
//! from `δq₀ = C₀·δx₀` and `δi₀ = 0` (the integrator restarts its charge
//! bank with zero current), which is the derivative of the integrator's
//! own discrete map. The periodic small-signal analysis
//! ([`crate::analysis::pac`]) runs the same recurrence on the converged
//! orbit.
//!
//! The stop rule runs before every period, warmup periods included (and
//! inside every inner Newton solve); a stopped run returns the best
//! orbit so far with a typed [`PssStatus`], mirroring the transient
//! contract. A stop in the starting operating point is a typed error
//! naming the analysis the caller ran.

use crate::analysis::ac::assemble_ac;
use crate::analysis::control::{stop_check, Halt, Stop};
use crate::analysis::op::op_from_eval;
use crate::analysis::solver::{singular_unknown, Kernel, SolverWorkspace};
use crate::analysis::stamp::{update_norm, MnaSink, Options};
use crate::analysis::stepper::{Step, Stepper};
use crate::circuit::Prepared;
use crate::error::{Result, SpiceError};
use crate::wave::Waveform;
use ahfic_num::gmres::gmres;
use ahfic_num::sparse::SparseLu;
use ahfic_num::{Complex, GmresOptions, LinearOperator};
use ahfic_trace::{SolverStats, TranStats};
use std::time::Instant;

/// Periodic-steady-state parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PssParams {
    /// The fundamental period (s) — the circuit's sources must be
    /// periodic with this period.
    pub period: f64,
    /// Uniform timesteps per period (device breakpoints are merged in
    /// on top). The grid is fixed so the period map is a smooth
    /// function of the starting state, whose derivative the shooting
    /// update takes along exactly these steps.
    pub steps_per_period: usize,
    /// Maximum shooting-Newton iterations.
    pub max_shooting: usize,
    /// Plain transient periods integrated before shooting starts, to
    /// drop onto the attractor's basin cheaply (each costs one period).
    pub warmup_periods: usize,
}

/// The shooting-update GMRES solve. Each inner iteration costs one
/// period of stored-factor solves.
const SHOOTING_GMRES: GmresOptions = GmresOptions {
    restart: 20,
    tol: 1e-8,
    max_iters: 40,
};

impl PssParams {
    /// Conventional setup: `steps_per_period` uniform steps over
    /// `period`, at most 25 shooting iterations, two warmup periods.
    pub fn new(period: f64, steps_per_period: usize) -> Self {
        PssParams {
            period,
            steps_per_period,
            max_shooting: 25,
            warmup_periods: 2,
        }
    }

    /// Sets the shooting-iteration cap.
    pub fn max_shooting(mut self, n: usize) -> Self {
        self.max_shooting = n;
        self
    }

    /// Sets the warmup period count.
    pub fn warmup_periods(mut self, n: usize) -> Self {
        self.warmup_periods = n;
        self
    }
}

/// Why a periodic-steady-state run stopped.
///
/// `#[non_exhaustive]`: more stop reasons may grow here; match with a
/// wildcard arm.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum PssStatus {
    /// The shooting residual met tolerance; the waveform is the
    /// converged periodic orbit.
    Converged,
    /// A [`CancelToken`](crate::analysis::CancelToken) fired between
    /// periods (or inside an inner Newton solve); the waveform holds the
    /// best orbit integrated so far.
    Cancelled {
        /// Shooting iterations completed before the stop.
        iterations: u64,
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
        /// Shooting iterations completed before the stop.
        iterations: u64,
    },
}

impl PssStatus {
    /// The status of a run stopped after `iterations` shooting
    /// iterations.
    fn stopped(stop: Stop, iterations: u64) -> Self {
        match stop {
            Stop::Cancelled => PssStatus::Cancelled { iterations },
            Stop::Exhausted(resource, limit, spent) => PssStatus::BudgetExhausted {
                resource,
                limit,
                spent,
                iterations,
            },
        }
    }
}

/// Typed result of a periodic-steady-state run: one period of the
/// orbit plus why and where the shooting iteration stopped.
///
/// `#[non_exhaustive]`: construct only through the analysis entry
/// points.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct PssResult {
    /// One period of the orbit sampled on the shooting grid
    /// (axis = time within `[0, period]`, endpoints included; the last
    /// sample equals the first to within the shooting tolerance when
    /// converged).
    pub wave: Waveform,
    /// Why the run stopped.
    pub status: PssStatus,
    /// Shooting-Newton iterations taken.
    pub shooting_iterations: u64,
    /// Inner GMRES (monodromy product) iterations across all shooting
    /// updates — each one cost a period of stored-factor solves.
    pub gmres_iterations: u64,
    /// Newton iterations spent across every period integration.
    pub newton_iterations: u64,
    /// Final scaled shooting residual (`≤ 1` means converged: every
    /// unknown's period mismatch is within `reltol`/`vntol`/`abstol`).
    pub residual: f64,
    /// The fundamental period (s), echoed from the parameters.
    pub period: f64,
}

impl PssResult {
    /// One period of the orbit (best-so-far when the run was stopped).
    pub fn wave(&self) -> &Waveform {
        &self.wave
    }

    /// Consumes the result, returning the orbit waveform.
    pub fn into_wave(self) -> Waveform {
        self.wave
    }

    /// Why the run stopped.
    pub fn status(&self) -> &PssStatus {
        &self.status
    }

    /// Whether the shooting iteration converged.
    pub fn is_converged(&self) -> bool {
        self.status == PssStatus::Converged
    }

    /// The starting state of the periodic orbit (the first sample).
    pub fn x0(&self) -> Vec<f64> {
        self.wave
            .signal_names()
            .iter()
            .map(|s| {
                #[allow(clippy::expect_used)] // signals were pushed from unknown_names
                self.wave.signal(s).expect("own signal")[0]
            })
            .collect()
    }
}

/// One period integration as committed: every step, bisected substeps
/// included, and the state at the start and after each step.
#[derive(Clone, Debug, Default)]
pub(crate) struct Orbit {
    steps: Vec<Step>,
    /// The start state, then one state per step, `n` values each.
    x: Vec<f64>,
}

impl Orbit {
    /// State `k` (0 is the start, `k` the end of step `k`) of an
    /// `n`-unknown circuit.
    fn state(&self, k: usize, n: usize) -> &[f64] {
        &self.x[k * n..(k + 1) * n]
    }
}

/// Reusable one-period integrator: the fixed grid, the stepper whose
/// buffers every period integration reuses, and the last period as
/// committed, so the integrations a shooting solve performs allocate
/// nothing after the first.
struct PeriodIntegrator<'a> {
    /// The analysis the caller ran, which a failed step is named after.
    analysis: &'static str,
    /// Fixed time grid over `[0, period]`, endpoints included, each
    /// point flagged when it is a source breakpoint.
    grid: Vec<(f64, bool)>,
    stepper: Stepper<'a>,
    /// The last period integrated.
    orbit: Orbit,
    /// Across every integration so far: steps committed (accepted),
    /// attempts that failed and were bisected (rejected), and their
    /// Newton iterations.
    stats: TranStats,
}

/// Bisection depth per grid interval when an inner Newton solve fails:
/// up to `2^MAX_SPLIT` substeps before giving up.
const MAX_SPLIT: u32 = 6;

impl<'a> PeriodIntegrator<'a> {
    fn new(
        prep: &'a Prepared,
        opts: &'a Options,
        params: &PssParams,
        analysis: &'static str,
    ) -> Self {
        // Uniform grid merged with the device-declared breakpoints
        // (source corners), so sharp LO edges are hit exactly on every
        // integration and Φ stays smooth in x₀.
        let t_stop = params.period;
        let n_steps = params.steps_per_period.max(4);
        let mut grid: Vec<(f64, bool)> = (0..=n_steps)
            .map(|k| (t_stop * k as f64 / n_steps as f64, false))
            .collect();
        let mut bps: Vec<f64> = Vec::new();
        for d in prep.devices() {
            d.breakpoints(&prep.circuit, t_stop, &mut bps);
        }
        grid.extend(
            bps.into_iter()
                .filter(|&t| t > 0.0 && t < t_stop)
                .map(|t| (t, true)),
        );
        grid.sort_by(|a, b| a.0.total_cmp(&b.0));
        grid.dedup_by(|a, b| {
            let same = (a.0 - b.0).abs() <= t_stop * 1e-12;
            b.1 |= same && a.1;
            same
        });
        let stats = TranStats {
            breakpoints: (grid.len() as u64).saturating_sub(n_steps as u64 + 1),
            ..TranStats::default()
        };
        PeriodIntegrator {
            analysis,
            grid,
            stepper: Stepper::new(prep, opts),
            orbit: Orbit::default(),
            stats,
        }
    }

    /// One period from `x0` under the stop rule, checked first against
    /// every step attempted so far and the Newton iterations of the
    /// call, the starting operating point's `op_iterations` included:
    /// `Some` is the stop that ended the period or kept it from starting.
    fn checked_period(
        &mut self,
        x0: &[f64],
        record: Option<&mut Waveform>,
        op_iterations: u64,
    ) -> Result<Option<Stop>> {
        let s = &self.stats;
        let attempts = s.accepted_steps + s.rejected_steps;
        let newton = op_iterations + s.newton_iterations;
        if let Some(stop) = stop_check(self.stepper.opts, Some(attempts), Some(newton)) {
            return Ok(Some(stop));
        }
        match self.integrate(x0, record) {
            Ok(()) => Ok(None),
            Err(Halt::Stop(stop)) => Ok(Some(stop)),
            Err(Halt::Fail(e)) => Err(e),
        }
    }

    /// Integrates one period from `x0`, recording it in `self.orbit` and
    /// leaving the end state in the stepper. When `record` is given,
    /// every grid sample (including the start) is pushed into it.
    fn integrate(
        &mut self,
        x0: &[f64],
        mut record: Option<&mut Waveform>,
    ) -> std::result::Result<(), Halt> {
        self.stepper.start(self.grid[0].0, x0);
        self.orbit.steps.clear();
        self.orbit.x.clear();
        self.orbit.x.extend_from_slice(x0);
        if let Some(w) = record.as_deref_mut() {
            w.push_sample(self.grid[0].0, x0);
        }
        for k in 1..self.grid.len() {
            let ((t0, _), (t1, corner)) = (self.grid[k - 1], self.grid[k]);
            // First step of the period is backward Euler: the zeroed
            // init current is exactly the BE companion, so the step is
            // self-starting. A trapezoidal first step would instead
            // treat the (unknown) true dq/dt at the period start as
            // zero — an O(1) inconsistency that biases the whole orbit.
            self.advance(t0, t1, 0, k == 1)?;
            if corner {
                // A source corner breaks the smoothness the predicted
                // Newton start assumes.
                self.stepper.restart_history();
            }
            if let Some(w) = record.as_deref_mut() {
                w.push_sample(t1, self.stepper.x());
            }
        }
        Ok(())
    }

    /// One integration step `t0 → t1` (backward Euler when `be`,
    /// trapezoidal otherwise), bisecting on Newton failure up to
    /// [`MAX_SPLIT`] levels. The bisection rule is deterministic, so
    /// the period map stays a well-defined function of the start state.
    /// A step that still fails at the last level ends the run as the
    /// transient ends on a failed step: a singular matrix as itself,
    /// anything else as the caller's analysis failing to converge at
    /// `t0`, after the steps attempted so far.
    fn advance(&mut self, t0: f64, t1: f64, depth: u32, be: bool) -> std::result::Result<(), Halt> {
        let step = Step {
            t: t1,
            h: t1 - t0,
            be,
        };
        match self.stepper.step(t0, &step) {
            Ok(iters) => {
                self.stats.newton_iterations += iters as u64;
                self.stats.accepted_steps += 1;
                let orbit = &mut self.orbit;
                self.stepper.record(|x| {
                    orbit.steps.push(step);
                    orbit.x.extend_from_slice(x);
                });
                Ok(())
            }
            Err(Halt::Fail(e)) => {
                self.stats.newton_iterations += self.stepper.opts.max_newton as u64;
                self.stats.rejected_steps += 1;
                if depth >= MAX_SPLIT {
                    if matches!(e, SpiceError::Singular { .. }) {
                        return Err(e.into());
                    }
                    return Err(SpiceError::NoConvergence {
                        analysis: self.analysis,
                        iterations: (self.stats.accepted_steps + self.stats.rejected_steps)
                            as usize,
                        time: Some(t0),
                        report: None,
                    }
                    .into());
                }
                // The first half inherits the step kind (its history is
                // the parent's); after its commit the bank is consistent
                // again, so the second half is always trapezoidal.
                let tm = 0.5 * (t0 + t1);
                self.advance(t0, tm, depth + 1, be)?;
                self.advance(tm, t1, depth + 1, false)
            }
            Err(stop) => Err(stop),
        }
    }
}

/// Splits an ω = 1 AC assembly `G + j·C` into the real step matrix
/// `G + a·C`, written to a solver kernel, and the nonzeros of `C`,
/// appended to `c` after its first `start` entries.
struct SplitSink<'a> {
    j: &'a mut Kernel<f64>,
    a: f64,
    c: &'a mut Vec<(usize, usize, f64)>,
    start: usize,
}

impl MnaSink<Complex> for SplitSink<'_> {
    fn reset(&mut self) {
        self.j.reset();
        self.c.truncate(self.start);
    }

    fn add(&mut self, r: usize, c: usize, v: Complex) {
        self.j.add(r, c, v.re + self.a * v.im);
        if v.im != 0.0 {
            self.c.push((r, c, v.im));
        }
    }
}

/// `y = C·x` for `C` given by its nonzeros.
fn mul_into(c: &[(usize, usize, f64)], x: &[f64], y: &mut [f64]) {
    y.fill(0.0);
    for &(r, col, v) in c {
        y[r] += v * x[col];
    }
}

/// One step of the linearized orbit.
struct LinearStep {
    step: Step,
    /// Where the factors of `J_k = G_k + a_k·C_k` start in the orbit's
    /// `values`, or the step's own factors when a pivot collapse gave
    /// them another pattern than the orbit's `pattern`.
    factors: std::result::Result<usize, Box<SparseLu<f64>>>,
    /// Where the nonzeros of `C_k` start in the orbit's `c`; they end
    /// where the next step's start.
    c: usize,
}

/// A recorded period integration linearized step for step: the exact
/// derivative of the integrator's discrete period map, shared by the
/// shooting update and the periodic small-signal analysis.
///
/// Every `J_k` has one stamp pattern, and the factorizations replay one
/// pivot order, so the steps share one [`SparseLu`]'s index arrays and
/// keep only their numeric factors, in one array. Each
/// [`LinearizedOrbit::linearize`] reuses the previous one's storage, so
/// a shooting solve and the PAC after it allocate one linearization.
pub(crate) struct LinearizedOrbit {
    /// Assembles and factors each `J_k`; its counters also take the
    /// recurrence's solves.
    ws: SolverWorkspace<f64>,
    ac_rhs: Vec<Complex>,
    /// The first step's factors, whose pattern the others share.
    pattern: Option<SparseLu<f64>>,
    /// Numeric factors of every step on `pattern`, one after another.
    values: Vec<f64>,
    /// Nonzeros `(row, col, value)` of `C₀` at the start state, which
    /// sets `δq₀ = C₀·δx₀`, then of each step's `C_k`, one after another.
    c: Vec<(usize, usize, f64)>,
    steps: Vec<LinearStep>,
    /// Recurrence state `δq`, its successor and `δi`.
    dq: Vec<f64>,
    dq_new: Vec<f64>,
    di: Vec<f64>,
    timing: bool,
}

/// Assembles `G + a·C` at `x` into `ws`'s kernel and appends the
/// nonzeros of `C` to `c`.
fn split_into(
    prep: &Prepared,
    opts: &Options,
    x: &[f64],
    a: f64,
    ws: &mut SolverWorkspace<f64>,
    ac_rhs: &mut [Complex],
    c: &mut Vec<(usize, usize, f64)>,
) {
    let start = c.len();
    loop {
        let mut sink = SplitSink {
            j: &mut ws.kernel,
            a,
            c: &mut *c,
            start,
        };
        assemble_ac(prep, x, opts, 1.0, &mut sink, ac_rhs);
        if !ws.finish_assembly() {
            break;
        }
    }
}

impl LinearizedOrbit {
    /// Storage for linearizing orbits of `prep`, empty until
    /// [`LinearizedOrbit::linearize`].
    pub(crate) fn new(prep: &Prepared, opts: &Options) -> Self {
        let n = prep.num_unknowns;
        let timing = opts.trace.tracer().enabled();
        let mut ws = SolverWorkspace::new(n);
        ws.set_timing(timing);
        LinearizedOrbit {
            ws,
            ac_rhs: vec![Complex::ZERO; n],
            pattern: None,
            values: Vec::new(),
            c: Vec::new(),
            steps: Vec::new(),
            dq: vec![0.0; n],
            dq_new: vec![0.0; n],
            di: vec![0.0; n],
            timing,
        }
    }

    /// Linearizes `orbit`: at every state one AC assembly at ω = 1
    /// gives `G + j·C` (the split is exact, because `jω·c` at ω = 1 is
    /// `(0, c)`), and at every step's end state `G + a·C` is factored
    /// with that step's companion coefficient.
    pub(crate) fn linearize(
        &mut self,
        prep: &Prepared,
        opts: &Options,
        orbit: &Orbit,
    ) -> Result<()> {
        let n = prep.num_unknowns;
        let ws = &mut self.ws;
        self.values.clear();
        self.c.clear();
        self.steps.clear();
        split_into(
            prep,
            opts,
            orbit.state(0, n),
            0.0,
            ws,
            &mut self.ac_rhs,
            &mut self.c,
        );
        for (k, &step) in orbit.steps.iter().enumerate() {
            let c = self.c.len();
            let x = orbit.state(k + 1, n);
            split_into(prep, opts, x, step.a(), ws, &mut self.ac_rhs, &mut self.c);
            ws.factor().map_err(|e| singular_unknown(prep, e))?;
            let lu = ws.factors();
            if k == 0 {
                self.pattern = Some(lu.clone());
            }
            let factors = match &self.pattern {
                Some(p) if p.same_pattern(lu) => {
                    let at = self.values.len();
                    lu.push_values(&mut self.values);
                    Ok(at)
                }
                _ => Err(Box::new(lu.clone())),
            };
            self.steps.push(LinearStep { step, factors, c });
        }
        Ok(())
    }

    /// Number of unknowns.
    pub(crate) fn dim(&self) -> usize {
        self.dq.len()
    }

    /// Steps per period, bisected substeps included.
    pub(crate) fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Factorizations of every linearization so far, and the solves of
    /// every period run on them.
    pub(crate) fn stats(&self) -> SolverStats {
        self.ws.stats
    }

    /// Runs one period of the small-signal recurrence from `δx₀ = dx`,
    /// leaving `δx_N` in `dx`. `input(t_k, r)` adds an input's stamp at
    /// the step's end time to its right-hand side `r`, and
    /// `visit(h_k, t_k, δx_k)` sees the state after each step.
    pub(crate) fn period(
        &mut self,
        dx: &mut [f64],
        mut input: impl FnMut(f64, &mut [f64]),
        mut visit: impl FnMut(f64, f64, &[f64]),
    ) {
        // The nonzeros of C_k end where those of C_{k+1} start.
        let c_end = |steps: &[LinearStep], k: usize| steps.get(k).map_or(self.c.len(), |s| s.c);
        mul_into(&self.c[..c_end(&self.steps, 0)], dx, &mut self.dq);
        self.di.fill(0.0);
        for k in 0..self.steps.len() {
            let LinearStep { step, c, .. } = self.steps[k];
            let a = step.a();
            for ((x, &q), &i) in dx.iter_mut().zip(&self.dq).zip(&self.di) {
                *x = a * q + i;
            }
            input(step.t, dx);
            let started = self.timing.then(Instant::now);
            match (&mut self.steps[k].factors, &mut self.pattern) {
                (Ok(at), Some(p)) => p.solve_with(&self.values[*at..], dx),
                (Err(own), _) => own.solve_in_place(dx),
                (Ok(_), None) => unreachable!("steps on the shared pattern imply one"),
            }
            if let Some(s) = started {
                self.ws.stats.solve_seconds += s.elapsed().as_secs_f64();
            }
            mul_into(&self.c[c..c_end(&self.steps, k + 1)], dx, &mut self.dq_new);
            for ((i, &qn), &qo) in self.di.iter_mut().zip(&self.dq_new).zip(&self.dq) {
                *i = a * (qn - qo) - *i;
            }
            std::mem::swap(&mut self.dq, &mut self.dq_new);
            visit(step.h, step.t, dx);
        }
        self.ws.stats.solves += self.steps.len() as u64;
    }
}

/// The shooting operator `v ↦ (M − I)·v`, one period of the linearized
/// recurrence per product.
struct ShootingUpdate<'a>(&'a mut LinearizedOrbit);

impl LinearOperator<f64> for ShootingUpdate<'_> {
    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn apply(&mut self, v: &[f64], y: &mut [f64]) {
        y.copy_from_slice(v);
        self.0.period(y, |_, _| {}, |_, _, _| {});
        for (yi, &vi) in y.iter_mut().zip(v) {
            *yi -= vi;
        }
    }
}

/// The shooting-Newton engine behind
/// [`Session::pss`](crate::analysis::Session::pss).
pub(crate) fn pss_impl(prep: &Prepared, opts: &Options, params: &PssParams) -> Result<PssResult> {
    let mut linear = LinearizedOrbit::new(prep, opts);
    shoot(prep, opts, params, &mut linear, "pss").map(|(result, ..)| result)
}

/// Shooting Newton for the `analysis` the caller ran, linearizing each
/// candidate orbit in `linear`: the result, the last period integrated
/// as committed (the converged orbit when the run converged), for the
/// periodic small-signal analysis to linearize in the same storage, and
/// the stop that ended the run early, with the work spent.
pub(crate) fn shoot(
    prep: &Prepared,
    opts: &Options,
    params: &PssParams,
    linear: &mut LinearizedOrbit,
    analysis: &'static str,
) -> Result<(PssResult, Orbit, Option<Stop>)> {
    if params.period <= 0.0 || params.steps_per_period == 0 {
        return Err(SpiceError::BadAnalysis(format!(
            "{analysis} needs a positive period and steps_per_period"
        )));
    }
    if params.max_shooting == 0 {
        return Err(SpiceError::BadAnalysis(format!(
            "{analysis} needs max_shooting >= 1"
        )));
    }
    let tr = opts.trace.tracer();
    let span = tr.span("pss");
    let mut integ = PeriodIntegrator::new(prep, opts, params, analysis);
    // The linearizations' factorizations and the products' solves.
    let linear_before = linear.stats();

    // Start from the DC operating point, then ride plain transient for
    // the warmup periods — each one is simply Φ applied again.
    let op = op_from_eval(prep, opts, None, analysis)?;
    let (mut x0, op_iterations) = (op.x, op.iterations as u64);
    let mut stop = None;
    for _ in 0..params.warmup_periods {
        stop = integ.checked_period(&x0, None, op_iterations)?;
        if stop.is_some() {
            break;
        }
        x0.copy_from_slice(integ.stepper.x());
    }

    let n = prep.num_unknowns;
    let mut gmres_total = 0u64;
    let mut shooting_iters = 0u64;
    let mut residual = f64::INFINITY;
    let mut best_wave = integ.stepper.wave();
    let mut converged = false;
    let mut dx = vec![0.0; n];
    let mut rhs = vec![0.0; n];

    while stop.is_none() && shooting_iters < params.max_shooting as u64 {
        // Φ(x₀), recording the candidate orbit. A stopped run carries
        // the last complete orbit.
        let mut wave = integ.stepper.wave();
        stop = integ.checked_period(&x0, Some(&mut wave), op_iterations)?;
        if stop.is_some() {
            break;
        }
        shooting_iters += 1;
        best_wave = wave;
        let phi0 = integ.stepper.x();
        // Scaled shooting residual: `≤ 1` means every unknown returns to
        // its start within `reltol`/`vntol`/`abstol`.
        residual = update_norm(prep, opts, &x0, phi0);
        tr.counter("pss.residual", residual);
        if residual <= 1.0 {
            converged = true;
            break;
        }

        // Shooting update: (M − I)·dx = −(Φ(x₀) − x₀) on exact products.
        for ((r, &x), &p) in rhs.iter_mut().zip(&x0).zip(phi0) {
            *r = x - p;
        }
        linear.linearize(prep, opts, &integ.orbit)?;
        dx.fill(0.0);
        let out = gmres(&mut ShootingUpdate(linear), &rhs, &mut dx, &SHOOTING_GMRES);
        gmres_total += out.iterations as u64;
        if dx.iter().any(|v| !v.is_finite()) {
            return Err(SpiceError::NonFinite {
                analysis,
                context: format!("shooting update at iteration {shooting_iters}"),
            });
        }
        for (xi, &di) in x0.iter_mut().zip(&dx) {
            *xi += di;
        }
    }

    tr.counter("pss.shooting_iterations", shooting_iters as f64);
    tr.counter("pss.gmres_iterations", gmres_total as f64);
    integ.stats.emit(tr, "pss");
    let mut solver = linear.stats().delta(&linear_before);
    solver.merge(integ.stepper.stats());
    solver.emit(tr, "pss");
    integ.stepper.phases().emit(tr, "pss");
    span.end();

    let status = match stop {
        Some(stop) => PssStatus::stopped(stop, shooting_iters),
        None if converged => PssStatus::Converged,
        None => {
            return Err(SpiceError::NoConvergence {
                analysis,
                iterations: shooting_iters as usize,
                time: None,
                report: None,
            })
        }
    };
    let result = PssResult {
        wave: best_wave,
        status,
        shooting_iterations: shooting_iters,
        gmres_iterations: gmres_total,
        newton_iterations: integ.stats.newton_iterations,
        residual,
        period: params.period,
    };
    Ok((result, integ.orbit, stop))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::op::op_eval;
    use crate::analysis::tran::{tran_impl, TranParams};
    use crate::circuit::Circuit;
    use crate::wave::SourceWave;

    fn rc_driven() -> Circuit {
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
        c
    }

    #[test]
    fn linear_rc_orbit_matches_phasor_solution() {
        // Driven linear RC: the periodic orbit is the AC phasor response,
        // |H| = 1/sqrt(1 + (wRC)^2), phase = -atan(wRC).
        let prep = Prepared::compile(&rc_driven()).unwrap();
        let opts = Options::default();
        let r = pss_impl(&prep, &opts, &PssParams::new(1e-6, 200)).unwrap();
        assert!(r.is_converged(), "{:?} residual {}", r.status(), r.residual);
        let w = r.wave();
        let v = w.signal("v(out)").unwrap();
        let ts = w.axis();
        let wrc = 2.0 * std::f64::consts::PI * 1e6 * 1e3 * 1e-9;
        let mag = 1.0 / (1.0 + wrc * wrc).sqrt();
        let ph = -(wrc).atan();
        for (k, &t) in ts.iter().enumerate() {
            let expect = mag * (2.0 * std::f64::consts::PI * 1e6 * t + ph).sin();
            assert!(
                (v[k] - expect).abs() < 2e-3,
                "t={t:.3e}: {} vs {expect}",
                v[k]
            );
        }
        // Periodicity: last sample returns to the first.
        assert!((v[0] - v[v.len() - 1]).abs() < 1e-4);
    }

    /// Half-wave diode rectifier into an RC load, driven at 1 MHz; `rs`
    /// is the diode's series resistance.
    fn rectifier(rs: f64) -> Circuit {
        let mut c = Circuit::new();
        let a = c.node("a");
        let out = c.node("out");
        c.vsource_wave(
            "V1",
            a,
            Circuit::gnd(),
            SourceWave::Sin {
                offset: 0.0,
                ampl: 2.0,
                freq: 1e6,
                delay: 0.0,
                damping: 0.0,
                phase_deg: 0.0,
            },
        );
        let dm = c.add_diode_model(crate::model::DiodeModel {
            rs,
            ..Default::default()
        });
        c.diode("D1", a, out, dm, 1.0);
        c.capacitor("C1", out, Circuit::gnd(), 2e-9);
        c.resistor("RL", out, Circuit::gnd(), 1e3);
        c
    }

    #[test]
    fn pss_agrees_with_ringdown_transient() {
        // Nonlinear deck: diode rectifier. PSS must land on the same
        // orbit a long transient rings down to.
        let prep = Prepared::compile(&rectifier(0.0)).unwrap();
        let opts = Options::default();
        let r = pss_impl(&prep, &opts, &PssParams::new(1e-6, 256)).unwrap();
        assert!(r.is_converged(), "residual {}", r.residual);

        // Brute force: 40 periods of transient (20 load time constants),
        // compare the last period by linear interpolation.
        let t = tran_impl(&prep, &opts, &TranParams::new(40e-6, 1e-6 / 256.0)).unwrap();
        let vt = t.wave().signal("v(out)").unwrap();
        let ts = t.wave().axis();
        let vp = r.wave().signal("v(out)").unwrap();
        let ps = r.wave().axis();
        for (k, &tp) in ps.iter().enumerate() {
            let target = 39e-6 + tp;
            let j = ts.partition_point(|&t| t < target).min(ts.len() - 1).max(1);
            let frac = (target - ts[j - 1]) / (ts[j] - ts[j - 1]);
            let v_interp = vt[j - 1] + frac.clamp(0.0, 1.0) * (vt[j] - vt[j - 1]);
            assert!(
                (vp[k] - v_interp).abs() < 2e-3,
                "phase {tp:.3e}: pss {} vs tran {v_interp}",
                vp[k]
            );
        }
    }

    #[test]
    fn cancelled_pss_returns_typed_partial() {
        use crate::analysis::control::CancelToken;
        let prep = Prepared::compile(&rc_driven()).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let opts = Options::default().cancel_token(&token);
        let r = pss_impl(&prep, &opts, &PssParams::new(1e-6, 64).warmup_periods(0));
        // A pre-cancelled token is seen at the first shooting boundary.
        match r {
            Ok(res) => assert!(
                matches!(res.status(), PssStatus::Cancelled { .. }),
                "{:?}",
                res.status()
            ),
            Err(e) => assert!(e.is_abort(), "{e}"),
        }
    }

    #[test]
    fn budget_exhaustion_is_typed() {
        use crate::analysis::control::Budget;
        let prep = Prepared::compile(&rc_driven()).unwrap();
        let opts = Options::default().budget(Budget::unlimited().max_steps(40));
        let r = pss_impl(&prep, &opts, &PssParams::new(1e-6, 64).warmup_periods(0));
        match r {
            Ok(res) => match res.status() {
                PssStatus::BudgetExhausted { resource, .. } => {
                    assert_eq!(*resource, "steps");
                }
                other => panic!("expected BudgetExhausted, got {other:?}"),
            },
            Err(e) => assert!(e.is_abort(), "{e}"),
        }
    }

    /// Newton tolerances far below the perturbation of a central
    /// difference, so the period map is smooth to rounding.
    fn tight() -> Options {
        Options::default().reltol(1e-12).vntol(1e-15).abstol(1e-18)
    }

    /// Premise of the shooting update and of PAC: the linearized orbit's
    /// `M·v` is the derivative of the period map the integrator
    /// computes. Integrates one period of `c` from the start of its
    /// converged orbit under `opts`, and returns the worst
    /// `‖M·v − (Φ(x₀ + εv) − Φ(x₀ − εv))/2ε‖∞ / ‖M·v‖∞` over three dense
    /// directions `v` with entries in `[−1, 1]`, and whether the
    /// integrator bisected a grid interval.
    fn product_mismatch(c: &Circuit, params: &PssParams, opts: &Options) -> (f64, bool) {
        let prep = Prepared::compile(c).unwrap();
        let x0 = pss_impl(&prep, &Options::default(), params).unwrap().x0();
        let mut integ = PeriodIntegrator::new(&prep, opts, params, "pss");
        integ.integrate(&x0, None).unwrap();
        let bisected = integ.stats.rejected_steps > 0;
        let mut orbit = LinearizedOrbit::new(&prep, opts);
        orbit.linearize(&prep, opts, &integ.orbit).unwrap();
        let eps = 1e-5;
        let mut worst = 0.0f64;
        for seed in 1..=3 {
            let v: Vec<f64> = (0..x0.len())
                .map(|k| (0.7 * seed as f64 * (k + 1) as f64).sin())
                .collect();
            let mut mv = v.clone();
            orbit.period(&mut mv, |_, _| {}, |_, _, _| {});
            let mut phi = |sign: f64| {
                let xs: Vec<f64> = x0
                    .iter()
                    .zip(&v)
                    .map(|(x, vi)| x + sign * eps * vi)
                    .collect();
                integ.integrate(&xs, None).unwrap();
                integ.stepper.x().to_vec()
            };
            let (plus, minus) = (phi(1.0), phi(-1.0));
            let scale = mv.iter().fold(0.0f64, |m, y| m.max(y.abs()));
            for ((y, p), m) in mv.iter().zip(&plus).zip(&minus) {
                worst = worst.max((y - (p - m) / (2.0 * eps)).abs() / scale);
            }
        }
        (worst, bisected)
    }

    /// The Hartley image-reject mixer of the transistor-level Fig. 5
    /// bench at its default parameters: two emitter-pumped BJT arms on
    /// quadrature 10 MHz LOs, ±45° IF networks at 1 MHz, and a VCCS
    /// summer into 100 kΩ.
    fn hartley_mixer() -> Circuit {
        let mut c = Circuit::new();
        let vcc = c.node("vcc");
        c.vsource("VCC", vcc, Circuit::gnd(), 5.0);
        let rf = c.node("rf");
        c.vsource_wave("VRF", rf, Circuit::gnd(), SourceWave::Dc(0.0));
        let model = c.add_bjt_model(crate::model::BjtModel::default());
        let c_if = 1.0 / (2.0 * std::f64::consts::PI * 1e6 * 1e3);
        let out = c.node("ifout");
        for (arm, phase) in [("i", 0.0), ("q", 90.0)] {
            let base = c.node(&format!("b{arm}"));
            let emit = c.node(&format!("e{arm}"));
            let coll = c.node(&format!("c{arm}"));
            let filt = c.node(&format!("f{arm}"));
            c.resistor(&format!("RC{arm}"), rf, base, 10e3);
            c.resistor(&format!("RB1{arm}"), vcc, base, 7e3);
            c.resistor(&format!("RB2{arm}"), base, Circuit::gnd(), 3e3);
            c.vsource_wave(
                &format!("VLO{arm}"),
                emit,
                Circuit::gnd(),
                SourceWave::Sin {
                    offset: 0.85,
                    ampl: 0.15,
                    freq: 10e6,
                    delay: 0.0,
                    damping: 0.0,
                    phase_deg: phase,
                },
            );
            c.bjt(&format!("Q{arm}"), coll, base, emit, model, 1.0);
            c.resistor(&format!("RL{arm}"), vcc, coll, 1e3);
            if arm == "i" {
                c.resistor(&format!("RF{arm}"), coll, filt, 1e3);
                c.capacitor(&format!("CF{arm}"), filt, Circuit::gnd(), c_if);
            } else {
                c.capacitor(&format!("CF{arm}"), coll, filt, c_if);
                c.resistor(&format!("RF{arm}"), filt, Circuit::gnd(), 1e3);
            }
            c.vccs(
                &format!("GS{arm}"),
                Circuit::gnd(),
                out,
                filt,
                Circuit::gnd(),
                1e-5,
            );
        }
        c.resistor("RLOAD", out, Circuit::gnd(), 100e3);
        c
    }

    /// Two 1 MHz tanks coupled through a `K` card, driven through a
    /// source resistor.
    fn magnetically_coupled_tanks() -> Circuit {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let t1 = c.node("t1");
        let t2 = c.node("t2");
        c.vsource_wave(
            "VIN",
            vin,
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
        c.resistor("RS", vin, t1, 10e3);
        for (k, t) in [(1, t1), (2, t2)] {
            c.inductor(&format!("L{k}"), t, Circuit::gnd(), 25.33e-6);
            c.capacitor(&format!("C{k}"), t, Circuit::gnd(), 1e-9);
            c.resistor(&format!("RP{k}"), t, Circuit::gnd(), 3.2e3);
        }
        c.mutual("K1", "L1", "L2", 0.05);
        c
    }

    #[test]
    fn orbit_products_are_the_period_map_derivative() {
        // The transistor-level Fig. 5 mixer.
        let (err, _) = product_mismatch(&hartley_mixer(), &PssParams::new(1e-7, 200), &tight());
        assert!(
            err < 1e-6,
            "mixer: M·v off the central difference by {err:.2e}"
        );
        // Inductors and a K coupling: the first step is backward Euler
        // for the branch rows too.
        let (err, _) = product_mismatch(
            &magnetically_coupled_tanks(),
            &PssParams::new(1e-6, 128),
            &tight(),
        );
        assert!(
            err < 1e-6,
            "tanks: M·v off the central difference by {err:.2e}"
        );
        // A rectifier whose diode charges the load through 1 kΩ, on a
        // coarse grid with a Newton cap the diode's turn-on steps exceed:
        // the bisected substeps are steps of the linearized orbit too.
        let (err, bisected) = product_mismatch(
            &rectifier(1e3),
            &PssParams::new(1e-6, 16),
            &tight().max_newton(5),
        );
        assert!(bisected, "the rectifier deck must bisect a grid interval");
        assert!(
            err < 1e-6,
            "rectifier: M·v off the central difference by {err:.2e}"
        );
    }

    #[test]
    fn step_counters_split_commits_from_failed_attempts() {
        use crate::analysis::fault::{FaultInjector, FaultKind};
        use ahfic_trace::InMemorySink;
        use std::sync::Arc;
        // The bisecting rectifier of the product test. An injector that
        // never fires counts the Newton solves: one per attempted step,
        // after those of the operating point.
        let prep = Prepared::compile(&rectifier(1e3)).unwrap();
        let params = PssParams::new(1e-6, 16);
        let counting = || FaultInjector::once(FaultKind::NoConvergence, 0, 1).with_max_fires(0);
        let opts = Options::default().max_newton(5);
        let op_solves = counting();
        op_eval(&prep, &opts.clone().fault_injector(&op_solves)).unwrap();
        let solves = counting();
        let sink = Arc::new(InMemorySink::new());
        let traced = opts.clone().trace(&sink).fault_injector(&solves);
        let r = pss_impl(&prep, &traced, &params).unwrap();
        assert!(r.is_converged(), "{:?}", r.status());
        let counter = |name: &str| {
            let recs = sink.records();
            let rec = recs.iter().find(|rec| rec.name == name);
            rec.unwrap_or_else(|| panic!("no {name}")).value as u64
        };
        let accepted = counter("pss.accepted_steps");
        let rejected = counter("pss.rejected_steps");
        assert!(rejected > 0, "the rectifier must bisect a grid interval");
        let attempts = solves.solves_seen() - op_solves.solves_seen();
        assert_eq!(accepted + rejected, attempts);
        // A failed attempt is replaced by its two halves, so a period
        // commits one step per grid interval plus one per failure.
        let intervals = PeriodIntegrator::new(&prep, &opts, &params, "pss")
            .grid
            .len() as u64
            - 1;
        let periods = params.warmup_periods as u64 + r.shooting_iterations;
        assert_eq!(accepted - rejected, periods * intervals);
    }

    /// A period step that fails at every bisection level ends PSS and
    /// PAC alike with the analysis the caller ran and the start of the
    /// failed interval, as the transient names its failed step.
    #[test]
    fn failed_period_step_names_its_analysis_and_time() {
        use crate::analysis::fault::{FaultInjector, FaultKind};
        use crate::analysis::pac::{pac_impl, PacParams};
        let mut prep = Prepared::compile(&rc_driven()).unwrap();
        let params = PssParams::new(1e-6, 64);
        // Solve 0 is the operating point and each later solve one step
        // attempt: steps 1 to 9 commit, and from the tenth on every
        // attempt fails, its bisected halves included.
        let failing = || FaultInjector::recurring(FaultKind::NoConvergence, 10, 1);
        let pss = pss_impl(
            &prep,
            &Options::default().fault_injector(&failing()),
            &params,
        );
        let pac = PacParams::new("V1", "v(out)", [1e6], 1e6);
        let opts = Options::default().fault_injector(&failing());
        let pac = pac_impl(&mut prep, &opts, &params, &pac);
        for (want, got) in [("pss", pss.err()), ("pac", pac.err())] {
            let Some(e) = got else {
                panic!("{want} converged");
            };
            match &e {
                SpiceError::NoConvergence {
                    analysis,
                    time: Some(t),
                    ..
                } => {
                    assert_eq!(*analysis, want);
                    assert_eq!(*t, 1e-6 * 9.0 / 64.0, "{want}");
                }
                other => panic!("{want}: {other:?}"),
            }
            // The count is step attempts, 9 committed and 7 bisected.
            assert_eq!(
                e.to_string(),
                format!(
                    "{want} analysis failed to converge after 16 step attempts at t=1.4063e-7s"
                ),
            );
        }
    }

    #[test]
    fn rejects_bad_params() {
        let prep = Prepared::compile(&rc_driven()).unwrap();
        let opts = Options::default();
        assert!(pss_impl(&prep, &opts, &PssParams::new(0.0, 100)).is_err());
        let mut p = PssParams::new(1e-6, 100);
        p.steps_per_period = 0;
        assert!(pss_impl(&prep, &opts, &p).is_err());
        assert!(pss_impl(&prep, &opts, &PssParams::new(1e-6, 100).max_shooting(0)).is_err());
    }
}
