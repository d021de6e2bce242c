//! Periodic small-signal conversion gain on the linearized PSS orbit.
//!
//! A mixer's conversion gain relates an input tone at `f_in` to an
//! output component at a *different* frequency `f_out = |f_in − k·f_LO|`
//! — ordinary AC analysis around a DC operating point cannot see it,
//! because the frequency translation comes from the LO's periodic
//! modulation of the operating point.
//!
//! This analysis is the shooting-based periodic AC of Telichevesky,
//! Kundert & White ("Efficient AC and noise analysis of two-tone RF
//! circuits", DAC 1996), on the orbit the shooting engine linearizes for
//! its own updates ([`crate::analysis::pss`]):
//!
//! 1. solve the LO-only orbit with the shooting engine (the input
//!    source is forced to zero during this phase) and linearize the
//!    converged period step for step, bisected substeps included: the
//!    factors of `J_k = G_k + a_k·C_k` and the nonzeros of `C_k`;
//! 2. form the monodromy `M` of the small-signal recurrence from `n`
//!    unit-start periods, shared by every input tone;
//! 3. for an input `b·e^{jω_in·t}` (`b` the input source's right-hand-side
//!    stamp at unit value), the steady state satisfies
//!    `δx(t + T) = e^{jω_in·T}·δx(t)`. With `p` the one-period response
//!    from rest, its start solves the boundary-value system
//!
//!    ```text
//!    (e^{jω_in·T}·I − M)·δx₀ = p
//!    ```
//!
//! 4. one period from `δx₀` gives the output `δy`, and
//!    `δy·e^{−jω_out·t}` is `T`-periodic when `f_out = f_in + k·f_LO`, so
//!    a trapezoidal Fourier integral over that one period projects it
//!    onto the harmonic that lands on `f_out` without leakage. By
//!    linearity the run is the sum of the unit-start runs of step 2 and
//!    the run from rest, so no period is integrated twice.
//!
//! The input is real, `sin(ω_in·t) = Im e^{jω_in·t}`, so its `−f_in`
//! half reaches `f_out = −f_in + k·f_LO` as the conjugate of the
//! `+f_in` solve at `−f_out`. An `f_out` that is neither sideband of an
//! input tone is a typed [`SpiceError::BadAnalysis`]; any other pair of
//! tones is legal.
//!
//! The recurrence is the derivative of the period integrator's own
//! discrete map, so the gain is the small-signal limit of the
//! discretized circuit: no input amplitude enters it, no large-signal
//! difference has to resolve a tone far below the LO, and nothing is
//! left to settle. One call serves every input tone from one PSS and one
//! linearization.

use crate::analysis::control::stop_check;
use crate::analysis::pss::{shoot, LinearizedOrbit, PssParams, PssResult};
use crate::analysis::solver::singular_unknown;
use crate::analysis::stamp::{MnaSink, Mode, NonlinMemory, Options, PatternProbe};
use crate::circuit::Prepared;
use crate::devices::RealCtx;
use crate::error::{Result, SpiceError};
use crate::wave::SourceWave;
use ahfic_num::{Complex, LuFactors, Matrix};
use std::f64::consts::PI;

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
    /// one PSS and one linearization; `freq_out` must be a sideband
    /// `±f_in + k·f_LO` of each.
    pub freqs_in: Vec<f64>,
    /// Output frequency to measure (Hz), e.g. the IF.
    pub freq_out: f64,
}

impl PacParams {
    /// Measures the output component at `freq_out` for each input tone
    /// in `freqs_in`.
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
        }
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

/// Which sidebands of the input tone `f_in` land on `f_out` with the LO
/// at `1/period`: `(f_out = f_in + k·f_LO, f_out = −f_in + k·f_LO)` for
/// some integer `k`.
fn sidebands(f_in: f64, f_out: f64, period: f64) -> (bool, bool) {
    let harmonic = |f: f64| {
        let k = f * period;
        (k - k.round()).abs() <= 1e-9 * k.abs().max(1.0)
    };
    (harmonic(f_out - f_in), harmonic(f_out + f_in))
}

/// The engine behind [`Session::pac`](crate::analysis::Session::pac):
/// PSS, linearization along the orbit, boundary-value solve per tone,
/// Fourier projection.
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
    for &f in &params.freqs_in {
        if sidebands(f, params.freq_out, pss_params.period) == (false, false) {
            return Err(SpiceError::BadAnalysis(format!(
                "pac: freq_out ({} Hz) is no sideband ±f_in + k·f_LO of the {f} Hz input \
                 with the LO at {} Hz",
                params.freq_out,
                1.0 / pss_params.period
            )));
        }
    }
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
    // One linearization's storage serves the shooting updates and then
    // the converged orbit.
    let mut linear = LinearizedOrbit::new(prep, opts);
    let (pss, orbit, stop) = shoot(prep, opts, pss_params, &mut linear, "pac")?;
    if let Some(stop) = stop {
        return Err(stop.error("pac"));
    }
    let b = unit_source_rhs(prep, opts, &params.source)?;
    let prep = &*prep;
    let before = linear.stats();
    linear.linearize(prep, opts, &orbit)?;
    drop(orbit);
    let gains = tone_gains(prep, opts, params, pss_params.period, out, &b, &mut linear);
    linear.stats().delta(&before).emit(tr, "pac");
    span.end();
    Ok(PacResult { gains: gains?, pss })
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

/// Runs one period of the recurrence from `δx₀ = dx` under the input
/// `b·u(t)`, leaving `δx_N` in `dx`, and returns the trapezoidal
/// `∫ δy·e^{−jω_out·t} dt` over the period of the output unknown `out`.
fn project_period(
    lin: &mut LinearizedOrbit,
    dx: &mut [f64],
    b: &[f64],
    u: impl Fn(f64) -> f64,
    out: usize,
    omega_out: f64,
) -> Complex {
    let mut prev = Complex::from_re(dx[out]);
    let mut sum = Complex::ZERO;
    lin.period(
        dx,
        |t, r| {
            let ut = u(t);
            for (ri, &bi) in r.iter_mut().zip(b) {
                *ri += bi * ut;
            }
        },
        |h, t, x| {
            let f = Complex::from_polar(x[out], -omega_out * t);
            sum += (prev + f).scale(0.5 * h);
            prev = f;
        },
    );
    sum
}

/// Every input tone's conversion gain from the linearized orbit: `M`
/// and the unit-start output projections once, then per tone the run
/// from rest, the boundary-value solve and the projection.
fn tone_gains(
    prep: &Prepared,
    opts: &Options,
    params: &PacParams,
    period: f64,
    out: usize,
    b: &[f64],
    lin: &mut LinearizedOrbit,
) -> Result<Vec<Complex>> {
    let n = lin.dim();
    let omega_out = 2.0 * PI * params.freq_out;
    let steps = lin.step_count() as u64;
    let mut taken = 0u64;
    // The stop rule before each period, with the recurrence steps taken.
    let mut run = |dx: &mut [f64], u: &dyn Fn(f64) -> f64| {
        if let Some(stop) = stop_check(opts, Some(taken), None) {
            return Err(stop.error("pac"));
        }
        taken += steps;
        Ok(project_period(lin, dx, b, u, out, omega_out))
    };
    // Column j of M is δx_N from δx₀ = e_j, and proj[j] its output's
    // projection.
    let mut minus_m = Matrix::zeros(n, n);
    let mut proj = Vec::with_capacity(n);
    let mut dx = vec![0.0; n];
    for j in 0..n {
        dx.fill(0.0);
        dx[j] = 1.0;
        proj.push(run(&mut dx, &|_| 0.0)?);
        for (r, &x) in dx.iter().enumerate() {
            minus_m[(r, j)] = Complex::from_re(-x);
        }
    }
    let mut gains = Vec::with_capacity(params.freqs_in.len());
    for &f_in in &params.freqs_in {
        let omega_in = 2.0 * PI * f_in;
        // The response from rest to b·e^{jω_in·t}, by its real and
        // imaginary halves: p = δx_N and its output projection.
        dx.fill(0.0);
        let q_re = run(&mut dx, &|t| (omega_in * t).cos())?;
        let mut p: Vec<Complex> = dx.iter().map(|&x| Complex::from_re(x)).collect();
        dx.fill(0.0);
        let q_im = run(&mut dx, &|t| (omega_in * t).sin())?;
        for (pi, &x) in p.iter_mut().zip(&dx) {
            pi.im = x;
        }
        // (e^{jω_in·T}·I − M)·δx₀ = p.
        let mut a = minus_m.clone();
        for r in 0..n {
            a[(r, r)] += Complex::from_polar(1.0, omega_in * period);
        }
        let x0 = LuFactors::factor(a)
            .map_err(|e| singular_unknown(prep, e))?
            .solve(&p);
        // The output's Fourier coefficient at +f_out and, conjugating
        // the real runs' projections, at −f_out; each counts only on its
        // sideband.
        let coefficient = |at_minus: bool| {
            let c = |z: Complex| if at_minus { z.conj() } else { z };
            let sum = c(q_re) + Complex::J * c(q_im);
            let sum = x0
                .iter()
                .zip(&proj)
                .fold(sum, |acc, (&x, &pj)| acc + x * c(pj));
            sum.scale(1.0 / period)
        };
        let (upper, lower) = sidebands(f_in, params.freq_out, period);
        let upper = if upper {
            coefficient(false)
        } else {
            Complex::ZERO
        };
        let lower = if lower {
            coefficient(true)
        } else {
            Complex::ZERO
        };
        // sin(ω_in·t) = (e^{jω_in·t} − e^{−jω_in·t})/2j, and the phasor
        // of a real output is twice its positive-frequency coefficient.
        gains.push((upper - lower.conj()) * Complex::new(0.0, -1.0));
    }
    // A gain finished past the deadline or after a cancel is still a
    // stop.
    match stop_check(opts, None, None) {
        Some(stop) => Err(stop.error("pac")),
        None => Ok(gains),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::ac::assemble_ac;
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
            be: false,
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
        // The PSS of this unexcited deck spends 192 steps (two warmup
        // periods and one shooting period of 64 steps); the recurrence's
        // five periods, one per unknown and two for the tone, overrun
        // the budget.
        let opts = Options::default().budget(Budget::unlimited().max_steps(200));
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
    fn rejects_an_output_off_every_sideband() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        c.vsource_wave("VIN", inp, Circuit::gnd(), SourceWave::Dc(0.0));
        c.resistor("R1", inp, Circuit::gnd(), 1e3);
        let mut prep = Prepared::compile(&c).unwrap();
        let opts = Options::default();
        // With the LO at 1 MHz, 1 MHz is no sideband ±1.37 MHz + k MHz,
        // even next to a tone it is a sideband of.
        let pac = PacParams::new("VIN", "v(in)", [1e6, 1.37e6], 1e6);
        let e = pac_impl(&mut prep, &opts, &PssParams::new(1e-6, 64), &pac).unwrap_err();
        assert!(matches!(e, SpiceError::BadAnalysis(_)), "{e}");
        // Either sideband is legal: 0.37 MHz = 1.37 − 1 MHz and
        // 0.63 MHz = −1.37 + 2 MHz.
        for f_out in [0.37e6, 0.63e6] {
            let pac = PacParams::new("VIN", "v(in)", [1.37e6], f_out);
            pac_impl(&mut prep, &opts, &PssParams::new(1e-6, 64), &pac).unwrap();
        }
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
