//! Periodic small-signal conversion gain on the linearized PSS orbit.
//!
//! A mixer's conversion gain relates an input tone at `f_in` to an
//! output component at a *different* frequency `f_out = |f_in − k·f_LO|`
//! — ordinary AC analysis around a DC operating point cannot see it,
//! because the frequency translation comes from the LO's periodic
//! modulation of the operating point.
//!
//! This analysis runs the linear periodic time-varying (LPTV)
//! recurrence of the circuit linearized along its periodic steady state
//! (Telichevesky, Kundert & White, "Efficient AC and noise analysis of
//! two-tone RF circuits", DAC 1996):
//!
//! 1. solve the LO-only orbit with the shooting engine (the input
//!    source is forced to zero during this phase);
//! 2. at every orbit grid sample `x_k`, one AC assembly at ω = 1 gives
//!    `G_k + j·C_k` — the split is exact, because `jω·c` at ω = 1 is
//!    `(0, c)` — and the step matrix `J_k = G_k + a_k·C_k` is factored
//!    once, with the period integrator's step kinds (`a_k = 1/h` on
//!    each period's backward-Euler first step, `2/h` after);
//! 3. per input tone and grid step, one stored-factor solve and one
//!    sparse `C_k·δx` product advance the small-signal state over the
//!    tiled settle + measurement periods:
//!
//!    ```text
//!    δx_k = J_k⁻¹·(b·sin(2π·f_in·t_k) + a_k·δq_{k−1} + β_k·δi_{k−1})
//!    δq_k = C_k·δx_k
//!    δi_k = a_k·(δq_k − δq_{k−1}) − β_k·δi_{k−1}
//!    ```
//!
//!    `b` is the input source's right-hand-side stamp at unit value.
//!    `δq` carries across period boundaries; `β = 0` on each period's
//!    first step, matching the integrator's zeroed charge bank, and
//!    `β = 1` after;
//! 4. project `δy` onto `e^{−j2πf_out t}` with a trapezoidal Fourier
//!    integral over the measurement window.
//!
//! The recurrence linearizes the period integrator's discretization
//! step for step, so the gain is the small-signal limit: no input
//! amplitude enters it, and no large-signal difference has to resolve a
//! tone far below the LO. Two exceptions: a grid interval the
//! integrator had to bisect is linearized as one step, and an inductor
//! takes a true backward-Euler first step here, where the integrator
//! applies its trapezoidal companion with `a = 1/h`. One call serves
//! every input tone from one PSS and one linearization, and keeps one
//! factorization plus the nonzeros of `C_k` per grid step.
//!
//! The window is validated to hold an integer number of cycles of every
//! input tone and of `f_out`, so the projection has no leakage bias.

use crate::analysis::ac::assemble_ac;
use crate::analysis::pss::{pss_impl, PssParams, PssResult, PssStatus};
use crate::analysis::solver::{singular_unknown, Kernel, SolverWorkspace};
use crate::analysis::stamp::{MnaSink, Mode, NonlinMemory, Options, PatternProbe};
use crate::circuit::Prepared;
use crate::devices::RealCtx;
use crate::error::{Result, SpiceError};
use crate::wave::{SourceWave, Waveform};
use ahfic_num::sparse::SparseLu;
use ahfic_num::Complex;
use ahfic_trace::SolverStats;
use std::f64::consts::PI;
use std::time::Instant;

/// Periodic small-signal conversion-gain parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct PacParams {
    /// Name of the independent source carrying the small-signal input.
    /// It is silenced while the PSS runs and its waveform is restored
    /// afterwards.
    pub source: String,
    /// Output signal to measure, by unknown name (e.g. `"v(out)"`).
    pub output: String,
    /// Input tone frequencies (Hz). One call measures every tone from
    /// one PSS and one linearization.
    pub freqs_in: Vec<f64>,
    /// Output frequency to measure (Hz), e.g. the IF.
    pub freq_out: f64,
    /// LO periods in the measurement window. Every input tone and
    /// `freq_out` must complete an integer number of cycles in this
    /// window.
    pub measure_periods: usize,
    /// LO periods run (and discarded) before the window opens, letting
    /// the small-signal transient settle onto its steady response.
    pub settle_periods: usize,
}

impl PacParams {
    /// Conventional setup; 20 measurement periods after 10 settle
    /// periods.
    pub fn new(
        source: impl Into<String>,
        output: impl Into<String>,
        freqs_in: impl Into<Vec<f64>>,
        freq_out: f64,
    ) -> Self {
        PacParams {
            source: source.into(),
            output: output.into(),
            freqs_in: freqs_in.into(),
            freq_out,
            measure_periods: 20,
            settle_periods: 10,
        }
    }

    /// Sets the measurement window length (LO periods).
    pub fn measure_periods(mut self, n: usize) -> Self {
        self.measure_periods = n;
        self
    }

    /// Sets the settle prefix length (LO periods).
    pub fn settle_periods(mut self, n: usize) -> Self {
        self.settle_periods = n;
        self
    }
}

/// Result of a periodic small-signal conversion-gain analysis.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct PacResult {
    /// Complex conversion gain per input tone, in `freqs_in` order: the
    /// output phasor at `freq_out` per unit amplitude of an input
    /// `sin(2π·f_in·t)`.
    pub gains: Vec<Complex>,
    /// The LO-only periodic steady state the circuit was linearized
    /// along.
    pub pss: PssResult,
}

impl PacResult {
    /// Conversion-gain magnitude of input tone `tone`.
    ///
    /// # Panics
    ///
    /// Panics if `tone` is not an index into `freqs_in`.
    pub fn gain_mag(&self, tone: usize) -> f64 {
        self.gains[tone].abs()
    }

    /// Conversion gain of input tone `tone` in dB (`20·log10`).
    ///
    /// # Panics
    ///
    /// Panics if `tone` is not an index into `freqs_in`.
    pub fn gain_db(&self, tone: usize) -> f64 {
        20.0 * self.gain_mag(tone).log10()
    }
}

/// Checks that `freq` completes an integer (≥ 1) number of cycles in
/// `window` seconds.
fn check_commensurate(what: &str, freq: f64, window: f64) -> Result<()> {
    let cycles = freq * window;
    if cycles < 0.5 || (cycles - cycles.round()).abs() > 1e-6 * cycles.max(1.0) {
        return Err(SpiceError::BadAnalysis(format!(
            "pac: {what} ({freq} Hz) does not complete an integer number of \
             cycles in the {window} s measurement window ({cycles} cycles)"
        )));
    }
    Ok(())
}

/// The engine behind [`Session::pac`](crate::analysis::Session::pac):
/// PSS, linearization along the orbit, LPTV recurrence, Fourier
/// projection.
///
/// Takes `&mut Prepared` because the input source's waveform is swapped
/// out and back (values only — the compiled structure is untouched,
/// exactly like a DC sweep).
pub(crate) fn pac_impl(
    prep: &mut Prepared,
    opts: &Options,
    pss_params: &PssParams,
    params: &PacParams,
) -> Result<PacResult> {
    let positive = params
        .freqs_in
        .iter()
        .chain([&params.freq_out])
        .all(|&f| f > 0.0);
    if params.freqs_in.is_empty() || !positive {
        return Err(SpiceError::BadAnalysis(
            "pac needs at least one input tone and positive freqs_in and freq_out".into(),
        ));
    }
    if params.measure_periods == 0 {
        return Err(SpiceError::BadAnalysis(
            "pac needs measure_periods >= 1".into(),
        ));
    }
    let window = pss_params.period * params.measure_periods as f64;
    for &f in &params.freqs_in {
        check_commensurate("freq_in", f, window)?;
    }
    check_commensurate("freq_out", params.freq_out, window)?;
    let out = prep
        .unknown_names
        .iter()
        .position(|name| name.eq_ignore_ascii_case(&params.output))
        .ok_or_else(|| SpiceError::Measure(format!("no signal named {}", params.output)))?;
    let orig = prep
        .circuit
        .source_wave(&params.source)
        .cloned()
        .ok_or_else(|| SpiceError::Netlist(format!("no source named {}", params.source)))?;

    let result = pac_body(prep, opts, pss_params, params, out);
    // Restore the caller's waveform on every path before surfacing the
    // outcome.
    prep.circuit.set_source_wave(&params.source, orig)?;
    result
}

fn pac_body(
    prep: &mut Prepared,
    opts: &Options,
    pss_params: &PssParams,
    params: &PacParams,
    out: usize,
) -> Result<PacResult> {
    let tr = opts.trace.tracer();
    let span = tr.span("pac");
    // LO-only periodic steady state with the input silenced.
    prep.circuit
        .set_source_wave(&params.source, SourceWave::Dc(0.0))?;
    let pss = pss_impl(prep, opts, pss_params)?;
    match pss.status() {
        PssStatus::Converged => {}
        PssStatus::Cancelled { .. } => {
            return Err(SpiceError::Cancelled {
                analysis: "pac",
                time: None,
            })
        }
        PssStatus::BudgetExhausted {
            resource, limit, ..
        } => {
            return Err(SpiceError::BudgetExhausted {
                analysis: "pac",
                resource,
                limit: *limit,
                spent: *limit,
            })
        }
        // `PssStatus` is non_exhaustive; future variants must not
        // silently pass as converged.
        #[allow(unreachable_patterns)]
        _ => {
            return Err(SpiceError::NoConvergence {
                analysis: "pac",
                iterations: pss.shooting_iterations as usize,
                time: None,
                report: None,
            })
        }
    }
    let b = unit_source_rhs(prep, opts, &params.source)?;
    let mut stats = SolverStats::default();
    let mut steps = linearize(prep, opts, pss.wave(), &mut stats)?;
    let gains = recur(
        opts,
        params,
        pss_params.period,
        out,
        &b,
        &mut steps,
        &mut stats,
    )?;
    stats.emit(tr, "pac");
    span.end();
    Ok(PacResult { gains, pss })
}

/// The input source's right-hand-side stamp at unit value: `b` of the
/// recurrence. Leaves the source at `Dc(1.0)`; the caller restores it.
fn unit_source_rhs(prep: &mut Prepared, opts: &Options, source: &str) -> Result<Vec<f64>> {
    prep.circuit.set_source_wave(source, SourceWave::Dc(1.0))?;
    let prep = &*prep;
    let idx = prep
        .circuit
        .find_element(source)
        .ok_or_else(|| SpiceError::Netlist(format!("no source named {source}")))?;
    let x = vec![0.0; prep.num_unknowns];
    let cx = RealCtx {
        prep,
        opts,
        mode: &Mode::Dc { source_scale: 1.0 },
        x: &x,
    };
    let mut b = vec![0.0; prep.num_unknowns];
    let mut probe = PatternProbe::default();
    let mut mem = NonlinMemory::new(prep);
    for d in prep.devices().iter().filter(|d| d.index() == idx) {
        d.stamp_real(&cx, &mut mem, &mut MnaSink::stamper(&mut probe, &mut b));
    }
    Ok(b)
}

/// One grid step of the linearized orbit.
struct LinearStep {
    /// End time of the step within the period (s).
    t: f64,
    /// Step length (s).
    h: f64,
    /// Companion coefficient `a_k`.
    a: f64,
    /// Factors of `J_k = G_k + a_k·C_k`.
    lu: SparseLu<f64>,
    /// Nonzeros of `C_k` as `(row, col, value)`.
    c: Vec<(usize, usize, f64)>,
}

/// Splits an ω = 1 AC assembly `G + j·C` into the real step matrix
/// `G + a·C`, written to a solver kernel, and the nonzeros of `C`.
struct SplitSink<'a> {
    j: &'a mut Kernel<f64>,
    a: f64,
    c: &'a mut Vec<(usize, usize, f64)>,
}

impl MnaSink<Complex> for SplitSink<'_> {
    fn reset(&mut self) {
        self.j.reset();
        self.c.clear();
    }

    fn add(&mut self, r: usize, c: usize, v: Complex) {
        self.j.add(r, c, v.re + self.a * v.im);
        if v.im != 0.0 {
            self.c.push((r, c, v.im));
        }
    }
}

/// Linearizes the circuit at every grid sample of the orbit: one
/// factored step matrix and one `C_k` per grid step.
fn linearize(
    prep: &Prepared,
    opts: &Options,
    orbit: &Waveform,
    stats: &mut SolverStats,
) -> Result<Vec<LinearStep>> {
    let n = prep.num_unknowns;
    let grid = orbit.axis();
    let cols = prep
        .unknown_names
        .iter()
        .map(|name| orbit.signal(name))
        .collect::<Result<Vec<_>>>()?;
    let mut ws = SolverWorkspace::new(n);
    ws.set_timing(opts.trace.tracer().enabled());
    let mut x = vec![0.0; n];
    let mut ac_rhs = vec![Complex::ZERO; n];
    let mut steps = Vec::with_capacity(grid.len().saturating_sub(1));
    for k in 1..grid.len() {
        let h = grid[k] - grid[k - 1];
        // Backward Euler on the period's first step, as the integrator.
        let a = if k == 1 { 1.0 / h } else { 2.0 / h };
        for (xj, col) in x.iter_mut().zip(&cols) {
            *xj = col[k];
        }
        let mut c = Vec::new();
        loop {
            let mut sink = SplitSink {
                j: &mut ws.kernel,
                a,
                c: &mut c,
            };
            assemble_ac(prep, &x, opts, 1.0, &mut sink, &mut ac_rhs);
            if !ws.finish_assembly() {
                break;
            }
        }
        ws.factor().map_err(|e| singular_unknown(prep, e))?;
        c.shrink_to_fit();
        steps.push(LinearStep {
            t: grid[k],
            h,
            a,
            lu: ws.stored_lu(),
            c,
        });
    }
    stats.merge(&ws.stats);
    Ok(steps)
}

/// Small-signal state of one input tone.
struct Tone {
    omega_in: f64,
    dx: Vec<f64>,
    dq: Vec<f64>,
    di: Vec<f64>,
    /// `δy·e^{−jω_out·t}` at the previous grid sample.
    f_prev: Complex,
    /// Trapezoidal `∫ δy·e^{−jω_out·t} dt` over the window so far.
    acc: Complex,
}

/// Runs the LPTV recurrence for every input tone over the settle and
/// measurement periods and returns each tone's conversion gain.
fn recur(
    opts: &Options,
    params: &PacParams,
    period: f64,
    out: usize,
    b: &[f64],
    steps: &mut [LinearStep],
    stats: &mut SolverStats,
) -> Result<Vec<Complex>> {
    let n = b.len();
    let omega_out = 2.0 * PI * params.freq_out;
    let project = |y: f64, t: f64| {
        let ph = -omega_out * t;
        Complex::new(y * ph.cos(), y * ph.sin())
    };
    let timing = opts.trace.tracer().enabled();
    let mut tones: Vec<Tone> = params
        .freqs_in
        .iter()
        .map(|&f| Tone {
            omega_in: 2.0 * PI * f,
            dx: vec![0.0; n],
            dq: vec![0.0; n],
            di: vec![0.0; n],
            f_prev: Complex::ZERO,
            acc: Complex::ZERO,
        })
        .collect();
    let mut dq_new = vec![0.0; n];
    let mut steps_taken = 0u64;
    for p in 0..params.settle_periods + params.measure_periods {
        let t0 = p as f64 * period;
        // Period-boundary control points, mirroring the shooting loop.
        if opts.cancel.cancelled() {
            return Err(SpiceError::Cancelled {
                analysis: "pac",
                time: Some(t0),
            });
        }
        if let Some(limit) = opts.budget.steps_exhausted(steps_taken) {
            return Err(SpiceError::BudgetExhausted {
                analysis: "pac",
                resource: "steps",
                limit,
                spent: steps_taken,
            });
        }
        wall_check(opts)?;
        let measuring = p >= params.settle_periods;
        for tone in &mut tones {
            // The integrator restarts its charge bank with zero current:
            // β = 0 on this period's first step.
            tone.di.fill(0.0);
            if p == params.settle_periods {
                tone.f_prev = project(tone.dx[out], t0);
            }
        }
        for step in steps.iter_mut() {
            let t = t0 + step.t;
            for tone in &mut tones {
                let u = (tone.omega_in * t).sin();
                for (j, dx) in tone.dx.iter_mut().enumerate() {
                    *dx = b[j] * u + step.a * tone.dq[j] + tone.di[j];
                }
                let started = timing.then(Instant::now);
                step.lu.solve_in_place(&mut tone.dx);
                if let Some(s) = started {
                    stats.solve_seconds += s.elapsed().as_secs_f64();
                }
                stats.solves += 1;
                dq_new.fill(0.0);
                for &(r, c, v) in &step.c {
                    dq_new[r] += v * tone.dx[c];
                }
                for ((di, &qn), &qo) in tone.di.iter_mut().zip(&dq_new).zip(&tone.dq) {
                    *di = step.a * (qn - qo) - *di;
                }
                std::mem::swap(&mut tone.dq, &mut dq_new);
                if measuring {
                    let f = project(tone.dx[out], t);
                    tone.acc += (tone.f_prev + f).scale(0.5 * step.h);
                    tone.f_prev = f;
                }
            }
        }
        steps_taken += steps.len() as u64;
    }
    // A gain finished past the deadline is still a deadline trip.
    wall_check(opts)?;
    // X(f_out) = (2/T_win)·∫ δy·e^{−jωt} dt per unit input amplitude.
    let scale = 2.0 / (params.measure_periods as f64 * period);
    Ok(tones.iter().map(|tone| tone.acc.scale(scale)).collect())
}

/// The wall-clock deadline as a typed PAC error.
fn wall_check(opts: &Options) -> Result<()> {
    match opts.budget.wall_exhausted() {
        Some((limit, spent)) => Err(SpiceError::BudgetExhausted {
            analysis: "pac",
            resource: "wall_clock_ms",
            limit,
            spent,
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::op::op_eval;
    use crate::analysis::stamp::{assemble, ChargeBank};
    use crate::circuit::Circuit;
    use crate::model::BjtModel;
    use ahfic_num::Matrix;

    /// The recurrence rests on `G + a·C` from one ω = 1 AC assembly
    /// being the transient Newton Jacobian at the same `x`.
    #[test]
    fn ac_split_is_the_transient_jacobian() {
        let mut c = Circuit::new();
        let vcc = c.node("vcc");
        let b = c.node("b");
        let col = c.node("c");
        let e = c.node("e");
        let tank = c.node("tank");
        c.vsource("VCC", vcc, Circuit::gnd(), 5.0);
        c.vsource("VB", b, Circuit::gnd(), 0.8);
        c.resistor("RC", vcc, col, 1e3);
        c.resistor("RE", e, Circuit::gnd(), 100.0);
        c.capacitor("CE", e, Circuit::gnd(), 5e-12);
        c.inductor("L1", col, tank, 1e-6);
        c.capacitor("CT", tank, Circuit::gnd(), 2e-12);
        c.resistor("RT", tank, Circuit::gnd(), 2e3);
        let mut m = BjtModel::named("rf");
        m.bf = 90.0;
        m.vaf = 40.0;
        m.rb = 100.0;
        m.re = 2.0;
        m.rc = 20.0;
        m.cje = 60e-15;
        m.cjc = 40e-15;
        m.xcjc = 0.6;
        m.cjs = 30e-15;
        m.tf = 12e-12;
        m.xtf = 2.0;
        m.vtf = 3.0;
        let mi = c.add_bjt_model(m);
        c.bjt("Q1", col, b, e, mi, 1.0);
        let prep = Prepared::compile(&c).unwrap();
        let opts = Options::default();
        let x = op_eval(&prep, &opts).unwrap().x;
        let n = prep.num_unknowns;

        let a = 2.0 / 1e-9;
        let bank = ChargeBank::new(&prep);
        let mode = Mode::Tran {
            time: 1e-9,
            a,
            bank: &bank,
            x_prev: &x,
        };
        // Repeat until junction limiting no longer moves the voltages,
        // so the stamp linearizes at `x` itself.
        let mut mem = NonlinMemory::new(&prep);
        let mut jac = Matrix::zeros(n, n);
        let mut rhs = vec![0.0; n];
        for _ in 0..100 {
            assemble(&prep, &x, &opts, &mode, &mut mem, &mut jac, &mut rhs);
            if !mem.any_limited() {
                break;
            }
        }
        assert!(!mem.any_limited());

        let mut ac = Matrix::zeros(n, n);
        let mut ac_rhs = vec![Complex::ZERO; n];
        assemble_ac(&prep, &x, &opts, 1.0, &mut ac, &mut ac_rhs);
        let scale = jac.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for r in 0..n {
            for col in 0..n {
                let z = ac[(r, col)];
                let split = z.re + a * z.im;
                assert!(
                    (split - jac[(r, col)]).abs() <= 1e-12 * scale,
                    "({r}, {col}): G + a·C {split} vs Jacobian {}",
                    jac[(r, col)]
                );
            }
        }
    }

    #[test]
    fn step_budget_stops_the_recurrence_typed() {
        use crate::analysis::control::Budget;
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.vsource_wave("VIN", inp, Circuit::gnd(), SourceWave::Dc(0.0));
        c.resistor("R1", inp, out, 1e3);
        c.capacitor("C1", out, Circuit::gnd(), 1e-9);
        let mut prep = Prepared::compile(&c).unwrap();
        // 30 periods of 64 steps overrun the budget whatever the PSS
        // spent of it.
        let opts = Options::default().budget(Budget::unlimited().max_steps(1000));
        let pac = PacParams::new("VIN", "v(out)", [1e6], 1e6);
        let e = pac_impl(&mut prep, &opts, &PssParams::new(1e-6, 64), &pac).unwrap_err();
        assert!(
            matches!(
                e,
                SpiceError::BudgetExhausted {
                    analysis: "pac",
                    resource: "steps",
                    ..
                }
            ),
            "{e}"
        );
    }

    #[test]
    fn rejects_leaky_window() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        c.vsource_wave("VIN", inp, Circuit::gnd(), SourceWave::Dc(0.0));
        c.resistor("R1", inp, Circuit::gnd(), 1e3);
        let mut prep = Prepared::compile(&c).unwrap();
        let opts = Options::default();
        // 1.37 MHz in a 10 us window: 13.7 cycles — not integer, even
        // next to a commensurate tone.
        let pac = PacParams::new("VIN", "v(in)", [1e6, 1.37e6], 1e6).measure_periods(10);
        let e = pac_impl(&mut prep, &opts, &PssParams::new(1e-6, 64), &pac).unwrap_err();
        assert!(matches!(e, SpiceError::BadAnalysis(_)), "{e}");
    }

    #[test]
    fn unknown_source_or_output_is_typed() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        c.vsource_wave("VIN", inp, Circuit::gnd(), SourceWave::Dc(0.0));
        c.resistor("R1", inp, Circuit::gnd(), 1e3);
        let mut prep = Prepared::compile(&c).unwrap();
        let run = |prep: &mut Prepared, pac: &PacParams| {
            pac_impl(prep, &Options::default(), &PssParams::new(1e-6, 64), pac).unwrap_err()
        };
        let e = run(&mut prep, &PacParams::new("VNOPE", "v(in)", [1e6], 1e6));
        assert!(matches!(e, SpiceError::Netlist(_)), "{e}");
        let e = run(&mut prep, &PacParams::new("VIN", "v(nope)", [1e6], 1e6));
        assert!(matches!(e, SpiceError::Measure(_)), "{e}");
        let e = run(&mut prep, &PacParams::new("VIN", "v(in)", Vec::new(), 1e6));
        assert!(matches!(e, SpiceError::BadAnalysis(_)), "{e}");
    }
}
