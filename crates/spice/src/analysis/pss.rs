//! Periodic steady state by shooting Newton.
//!
//! The shooting formulation reuses the transient machinery wholesale:
//! one evaluation of the period map `Φ(x₀)` integrates the circuit over
//! exactly one period on a *fixed* grid (uniform steps merged with the
//! device-declared source breakpoints), using the same `newton_solve` /
//! `ChargeBank` contracts as the transient engine. Periodicity is the
//! root-finding problem `Φ(x₀) − x₀ = 0`; each shooting update solves
//!
//! ```text
//! (M − I)·dx = −(Φ(x₀) − x₀),    M = ∂Φ/∂x₀  (the monodromy matrix)
//! ```
//!
//! with matrix-free GMRES: `M·v` is never formed — each Krylov matvec
//! re-integrates one period from a perturbed start
//! `(Φ(x₀ + εv) − Φ(x₀))/ε`. For a dissipative circuit the monodromy
//! spectrum is contractive, so GMRES converges in a handful of matvecs
//! and the whole solve costs a few dozen period integrations instead of
//! the hundreds of periods a brute-force transient needs to ring down.
//!
//! Cancellation and budgets are observed at shooting-iteration
//! boundaries (and inside every inner Newton solve); a stopped run
//! returns the best orbit so far with a typed [`PssStatus`], mirroring
//! the transient contract.

use crate::analysis::op::{newton_solve, op_eval, NewtonCfg};
use crate::analysis::solver::SolverWorkspace;
use crate::analysis::stamp::{
    update_all_charges, ChargeBank, ChargeState, Mode, NonlinMemory, Options,
};
use crate::circuit::Prepared;
use crate::error::{Result, SpiceError};
use crate::wave::Waveform;
use ahfic_num::gmres::gmres;
use ahfic_num::{GmresOptions, LinearOperator};
use ahfic_trace::TranStats;

/// Periodic-steady-state parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PssParams {
    /// The fundamental period (s) — the circuit's sources must be
    /// periodic with this period.
    pub period: f64,
    /// Uniform timesteps per period (device breakpoints are merged in
    /// on top). The grid is fixed so the period map is a smooth
    /// function of the starting state, which the finite-difference
    /// monodromy products require.
    pub steps_per_period: usize,
    /// Maximum shooting-Newton iterations.
    pub max_shooting: usize,
    /// Plain transient periods integrated before shooting starts, to
    /// drop onto the attractor's basin cheaply (each costs one period).
    pub warmup_periods: usize,
}

/// The matrix-free GMRES shooting-update solve. Each inner iteration
/// costs one full period integration, so the budget is much tighter
/// than [`GmresOptions::default`].
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
    /// shooting iterations (or inside an inner Newton solve); the
    /// waveform holds the best orbit integrated so far.
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
        /// Shooting iterations completed before the stop.
        iterations: u64,
    },
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
    /// Inner GMRES (monodromy matvec) iterations across all shooting
    /// updates — each one cost a full period integration.
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

/// Reusable one-period integrator: the fixed grid plus every buffer a
/// period integration needs, so the dozens of integrations a shooting
/// solve performs allocate nothing after the first.
struct PeriodIntegrator<'a> {
    prep: &'a Prepared,
    opts: &'a Options,
    /// Fixed time grid over `[0, period]`, endpoints included.
    grid: Vec<f64>,
    ws: SolverWorkspace<f64>,
    mem: NonlinMemory,
    bank: ChargeBank,
    scratch_states: Vec<ChargeState>,
    /// Newton iterations across every integration so far.
    newton_iterations: u64,
    /// Timesteps attempted across every integration so far.
    steps: u64,
}

/// Bisection depth per grid interval when an inner Newton solve fails:
/// up to `2^MAX_SPLIT` substeps before giving up.
const MAX_SPLIT: u32 = 6;

impl<'a> PeriodIntegrator<'a> {
    fn new(prep: &'a Prepared, opts: &'a Options, params: &PssParams) -> Self {
        // Uniform grid merged with the device-declared breakpoints
        // (source corners), so sharp LO edges are hit exactly on every
        // integration and Φ stays smooth in x₀.
        let t_stop = params.period;
        let n_steps = params.steps_per_period.max(4);
        let mut grid: Vec<f64> = (0..=n_steps)
            .map(|k| t_stop * k as f64 / n_steps as f64)
            .collect();
        let mut bps: Vec<f64> = Vec::new();
        for d in prep.devices() {
            d.breakpoints(&prep.circuit, t_stop, &mut bps);
        }
        grid.extend(bps.into_iter().filter(|&t| t > 0.0 && t < t_stop));
        grid.sort_by(|a, b| a.total_cmp(b));
        grid.dedup_by(|a, b| (*a - *b).abs() <= t_stop * 1e-12);
        let mut ws = SolverWorkspace::new(prep.num_unknowns);
        ws.set_timing(opts.trace.tracer().enabled());
        let bank = ChargeBank::new(prep);
        let scratch_states = bank.states.clone();
        PeriodIntegrator {
            prep,
            opts,
            grid,
            ws,
            mem: NonlinMemory::new(prep),
            bank,
            scratch_states,
            newton_iterations: 0,
            steps: 0,
        }
    }

    /// Integrates one period from `x0`, returning the end state. When
    /// `record` is given, every grid sample (including the start) is
    /// pushed into it.
    fn integrate(&mut self, x0: &[f64], mut record: Option<&mut Waveform>) -> Result<Vec<f64>> {
        let mut x = x0.to_vec();
        // Charge bank initialized at the starting solution. The `a = 0`
        // companion reads `i = -i_prev` from the bank, so the bank must
        // be zeroed first to make this the documented pure charge
        // evaluation with zero current — stale states from the previous
        // integration would otherwise leak into the start condition,
        // making Φ history-dependent and the finite-difference monodromy
        // products inconsistent with the recorded Φ(x₀).
        for s in &mut self.bank.states {
            *s = ChargeState::default();
        }
        {
            let mode = Mode::Tran {
                time: self.grid[0],
                a: 0.0,
                bank: &self.bank,
                x_prev: &x,
            };
            update_all_charges(self.prep, &x, self.opts, &mode, &mut self.scratch_states);
        }
        self.bank.states.copy_from_slice(&self.scratch_states);
        if let Some(w) = record.as_deref_mut() {
            w.push_sample(self.grid[0], &x);
        }
        for k in 1..self.grid.len() {
            let (t0, t1) = (self.grid[k - 1], self.grid[k]);
            // First step of the period is backward Euler: the zeroed
            // init current is exactly the BE companion, so the step is
            // self-starting. A trapezoidal first step would instead
            // treat the (unknown) true dq/dt at the period start as
            // zero — an O(1) inconsistency that biases the whole orbit.
            self.advance(&mut x, t0, t1, 0, k == 1)?;
            if let Some(w) = record.as_deref_mut() {
                w.push_sample(t1, &x);
            }
        }
        Ok(x)
    }

    /// One integration step `t0 → t1` (backward Euler when `be`,
    /// trapezoidal otherwise), bisecting on Newton failure up to
    /// [`MAX_SPLIT`] levels. The bisection rule is deterministic, so
    /// the period map stays a well-defined function of the start state.
    fn advance(&mut self, x: &mut Vec<f64>, t0: f64, t1: f64, depth: u32, be: bool) -> Result<()> {
        let h = t1 - t0;
        let a = if be { 1.0 / h } else { 2.0 / h };
        let x_prev = x.clone();
        let mode = Mode::Tran {
            time: t1,
            a,
            bank: &self.bank,
            x_prev: &x_prev,
        };
        self.steps += 1;
        match newton_solve(
            self.prep,
            self.opts,
            &mode,
            &mut self.mem,
            &x_prev,
            &mut self.ws,
            &NewtonCfg::plain(),
        ) {
            Ok((x_new, iters)) => {
                self.newton_iterations += iters as u64;
                update_all_charges(
                    self.prep,
                    &x_new,
                    self.opts,
                    &mode,
                    &mut self.scratch_states,
                );
                self.bank.states.copy_from_slice(&self.scratch_states);
                *x = x_new;
                Ok(())
            }
            Err(e) if e.is_abort() => Err(e),
            Err(e) => {
                self.newton_iterations += self.opts.max_newton as u64;
                if depth >= MAX_SPLIT {
                    return Err(e);
                }
                // The first half inherits the step kind (its history is
                // the parent's); after its commit the bank is consistent
                // again, so the second half is always trapezoidal.
                let tm = 0.5 * (t0 + t1);
                self.advance(x, t0, tm, depth + 1, be)?;
                self.advance(x, tm, t1, depth + 1, false)
            }
        }
    }

    /// A fresh empty waveform shaped for this circuit's unknowns.
    fn fresh_wave(&self) -> Waveform {
        let mut w = Waveform::new("time");
        for name in &self.prep.unknown_names {
            w.push_signal(name);
        }
        w
    }
}

/// The matrix-free shooting operator `v ↦ (M − I)·v`: each application
/// integrates one period from a perturbed start and differences against
/// the unperturbed endpoint.
struct ShootingOp<'a, 'b> {
    integ: &'b mut PeriodIntegrator<'a>,
    x0: &'b [f64],
    phi0: &'b [f64],
    /// `√ε_mach · (1 + ‖x₀‖)`: divided by `‖v‖` per product to give the
    /// standard directional-difference step.
    eps_scale: f64,
    /// First inner failure, surfaced after GMRES returns (the
    /// [`LinearOperator`] contract has no error channel). Once set,
    /// further products degrade to `−v` so the iteration stays finite
    /// while it winds down.
    error: Option<SpiceError>,
    xp: Vec<f64>,
}

impl LinearOperator<f64> for ShootingOp<'_, '_> {
    fn dim(&self) -> usize {
        self.x0.len()
    }

    fn apply(&mut self, v: &[f64], y: &mut [f64]) {
        let vnorm = v.iter().map(|a| a * a).sum::<f64>().sqrt();
        if vnorm == 0.0 {
            y.fill(0.0);
            return;
        }
        if self.error.is_none() {
            let eps = self.eps_scale / vnorm;
            self.xp.clear();
            self.xp
                .extend(self.x0.iter().zip(v).map(|(&x, &vi)| x + eps * vi));
            let xp = std::mem::take(&mut self.xp);
            match self.integ.integrate(&xp, None) {
                Ok(phi) => {
                    for ((yi, &pi), (&p0, &vi)) in
                        y.iter_mut().zip(&phi).zip(self.phi0.iter().zip(v))
                    {
                        *yi = (pi - p0) / eps - vi;
                    }
                    self.xp = xp;
                    return;
                }
                Err(e) => {
                    self.error = Some(e);
                    self.xp = xp;
                }
            }
        }
        for (yi, &vi) in y.iter_mut().zip(v) {
            *yi = -vi;
        }
    }
}

/// Scaled shooting residual: the Newton-style weighted max norm of
/// `Φ(x₀) − x₀` (`≤ 1` means every unknown returns to its start within
/// `reltol`/`vntol`/`abstol`).
fn shooting_metric(prep: &Prepared, opts: &Options, x0: &[f64], phi0: &[f64]) -> f64 {
    let mut metric = 0.0f64;
    for k in 0..prep.num_unknowns {
        let tol_abs = if k < prep.num_voltage_unknowns {
            opts.vntol
        } else {
            opts.abstol
        };
        let tol = opts.reltol * phi0[k].abs().max(x0[k].abs()) + tol_abs;
        metric = metric.max((phi0[k] - x0[k]).abs() / tol);
    }
    metric
}

/// The shooting-Newton engine behind
/// [`Session::pss`](crate::analysis::Session::pss).
pub(crate) fn pss_impl(prep: &Prepared, opts: &Options, params: &PssParams) -> Result<PssResult> {
    if params.period <= 0.0 || params.steps_per_period == 0 {
        return Err(SpiceError::BadAnalysis(
            "pss needs a positive period and steps_per_period".into(),
        ));
    }
    if params.max_shooting == 0 {
        return Err(SpiceError::BadAnalysis(
            "pss needs max_shooting >= 1".into(),
        ));
    }
    let tr = opts.trace.tracer();
    let span = tr.span("pss");
    let mut integ = PeriodIntegrator::new(prep, opts, params);
    let mut stats = TranStats {
        breakpoints: (integ.grid.len() as u64)
            .saturating_sub(params.steps_per_period.max(4) as u64 + 1),
        ..TranStats::default()
    };

    // Start from the DC operating point, then ride plain transient for
    // the warmup periods — each one is simply Φ applied again.
    let mut x0 = op_eval(prep, opts)?.x;
    for _ in 0..params.warmup_periods {
        if opts.cancel.cancelled() {
            break;
        }
        x0 = integ.integrate(&x0, None)?;
    }

    let n = prep.num_unknowns;
    let mut gmres_total = 0u64;
    let mut shooting_iters = 0u64;
    let mut residual = f64::INFINITY;
    let mut best_wave = integ.fresh_wave();
    let mut status: Option<PssStatus> = None;
    let mut dx = vec![0.0; n];

    while shooting_iters < params.max_shooting as u64 {
        // Shooting-iteration boundary: the designated cancellation and
        // budget control points, so a stopped run always carries a
        // complete best-so-far orbit.
        if opts.cancel.cancelled() {
            status = Some(PssStatus::Cancelled {
                iterations: shooting_iters,
            });
            break;
        }
        if let Some(limit) = opts.budget.steps_exhausted(integ.steps) {
            status = Some(PssStatus::BudgetExhausted {
                resource: "steps",
                limit,
                iterations: shooting_iters,
            });
            break;
        }
        if let Some(limit) = opts.budget.newton_exhausted(integ.newton_iterations) {
            status = Some(PssStatus::BudgetExhausted {
                resource: "newton_iterations",
                limit,
                iterations: shooting_iters,
            });
            break;
        }
        if let Some((limit, _spent)) = opts.budget.wall_exhausted() {
            status = Some(PssStatus::BudgetExhausted {
                resource: "wall_clock_ms",
                limit,
                iterations: shooting_iters,
            });
            break;
        }
        shooting_iters += 1;

        // Φ(x₀), recording the candidate orbit.
        let mut wave = integ.fresh_wave();
        let phi0 = match integ.integrate(&x0, Some(&mut wave)) {
            Ok(p) => p,
            Err(e) if e.is_abort() => {
                status = Some(match e {
                    SpiceError::BudgetExhausted {
                        resource, limit, ..
                    } => PssStatus::BudgetExhausted {
                        resource,
                        limit,
                        iterations: shooting_iters - 1,
                    },
                    _ => PssStatus::Cancelled {
                        iterations: shooting_iters - 1,
                    },
                });
                break;
            }
            Err(e) => return Err(e),
        };
        best_wave = wave;
        residual = shooting_metric(prep, opts, &x0, &phi0);
        tr.counter("pss.residual", residual);
        if residual <= 1.0 {
            // An orbit found past the deadline is still a deadline trip.
            status = Some(match opts.budget.wall_exhausted() {
                Some((limit, _spent)) => PssStatus::BudgetExhausted {
                    resource: "wall_clock_ms",
                    limit,
                    iterations: shooting_iters,
                },
                None => PssStatus::Converged,
            });
            break;
        }

        // Shooting update: (M − I)·dx = −(Φ(x₀) − x₀), matrix-free.
        let rhs: Vec<f64> = x0.iter().zip(&phi0).map(|(&x, &p)| x - p).collect();
        let xnorm = x0.iter().map(|a| a * a).sum::<f64>().sqrt();
        let mut op = ShootingOp {
            integ: &mut integ,
            x0: &x0,
            phi0: &phi0,
            eps_scale: f64::EPSILON.sqrt() * (1.0 + xnorm),
            error: None,
            xp: Vec::with_capacity(n),
        };
        dx.fill(0.0);
        let out = gmres(&mut op, &rhs, &mut dx, &SHOOTING_GMRES);
        gmres_total += out.iterations as u64;
        if let Some(e) = op.error.take() {
            if e.is_abort() {
                status = Some(match e {
                    SpiceError::BudgetExhausted {
                        resource, limit, ..
                    } => PssStatus::BudgetExhausted {
                        resource,
                        limit,
                        iterations: shooting_iters,
                    },
                    _ => PssStatus::Cancelled {
                        iterations: shooting_iters,
                    },
                });
                break;
            }
            return Err(e);
        }
        if dx.iter().any(|v| !v.is_finite()) {
            return Err(SpiceError::NonFinite {
                analysis: "pss",
                context: format!("shooting update at iteration {shooting_iters}"),
            });
        }
        for (xi, &di) in x0.iter_mut().zip(&dx) {
            *xi += di;
        }
    }

    stats.accepted_steps = integ.steps;
    stats.newton_iterations = integ.newton_iterations;
    tr.counter("pss.shooting_iterations", shooting_iters as f64);
    tr.counter("pss.gmres_iterations", gmres_total as f64);
    stats.emit(tr, "pss");
    integ.ws.stats.emit(tr, "pss");
    span.end();

    match status {
        Some(status) => Ok(PssResult {
            wave: best_wave,
            status,
            shooting_iterations: shooting_iters,
            gmres_iterations: gmres_total,
            newton_iterations: integ.newton_iterations,
            residual,
            period: params.period,
        }),
        None => Err(SpiceError::NoConvergence {
            analysis: "pss",
            iterations: shooting_iters as usize,
            time: None,
            report: None,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn pss_agrees_with_ringdown_transient() {
        // Nonlinear deck: diode rectifier. PSS must land on the same
        // orbit a long transient rings down to.
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
        let dm = c.add_diode_model(crate::model::DiodeModel::default());
        c.diode("D1", a, out, dm, 1.0);
        c.capacitor("C1", out, Circuit::gnd(), 2e-9);
        c.resistor("RL", out, Circuit::gnd(), 1e3);
        let prep = Prepared::compile(&c).unwrap();
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
