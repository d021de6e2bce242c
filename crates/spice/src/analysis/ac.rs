//! Small-signal AC analysis: linearize at the operating point, assemble a
//! complex admittance system per frequency, solve.

use crate::analysis::solver::{parallel_freq_map, singular_unknown, SolverWorkspace};
use crate::analysis::stamp::{MnaSink, Options};
use crate::circuit::Prepared;
use crate::devices::AcCtx;
use crate::error::{Result, SpiceError};
use crate::wave::AcWaveform;
use ahfic_num::Complex;

/// Assembles the complex MNA system at angular frequency `omega`,
/// linearized around the operating point `x_op`.
///
/// Every device contributes through
/// [`crate::devices::Device::stamp_ac`]; the walk covers the linear
/// partition first and then the nonlinear one, mirroring the real-valued
/// assembly order so both declare identical sparsity patterns.
pub fn assemble_ac<M: MnaSink<Complex>>(
    prep: &Prepared,
    x_op: &[f64],
    opts: &Options,
    omega: f64,
    mat: &mut M,
    rhs: &mut [Complex],
) {
    mat.reset();
    rhs.fill(Complex::ZERO);
    let cx = AcCtx {
        prep,
        opts,
        x_op,
        omega,
    };
    let mut s = mat.stamper(rhs);
    for d in prep.linear.iter().chain(&prep.nonlinear) {
        prep.devices[*d].stamp_ac(&cx, &mut s);
    }
}

/// Assembles the complex system at `omega` into `ws` (twice when the
/// pattern changed) and factors it: the per-frequency core shared by
/// AC and noise sweeps and the batched AC engine's fallback.
pub(crate) fn factor_ac(
    prep: &Prepared,
    x_op: &[f64],
    opts: &Options,
    omega: f64,
    ws: &mut SolverWorkspace<Complex>,
) -> Result<()> {
    loop {
        assemble_ac(prep, x_op, opts, omega, &mut ws.kernel, &mut ws.rhs);
        if !ws.finish_assembly() {
            break;
        }
    }
    ws.factor().map_err(|e| singular_unknown(prep, e))
}

/// Runs an AC sweep over the given frequencies (Hz), recording every
/// unknown as a complex signal (names follow `Prepared::unknown_names`):
/// the engine behind [`Session::ac`](crate::analysis::Session::ac).
///
/// The sweep is split in contiguous chunks across scoped threads. The
/// first point records the stamp pattern and fixes the pivot order;
/// every thread works on a copy of that [`SolverWorkspace`], so each
/// later point replays the pattern and refactors on those pivots.
pub(crate) fn ac_sweep_impl(
    prep: &Prepared,
    x_op: &[f64],
    opts: &Options,
    freqs: &[f64],
) -> Result<AcWaveform> {
    if freqs.is_empty() {
        return Err(SpiceError::BadAnalysis("empty AC frequency list".into()));
    }
    let tr = opts.trace.tracer();
    let span = tr.span("ac");
    let (sols, par) = parallel_freq_map(
        prep.num_unknowns,
        tr.enabled(),
        opts.threads,
        freqs,
        |ws: &mut SolverWorkspace<Complex>, f| {
            factor_ac(prep, x_op, opts, 2.0 * std::f64::consts::PI * f, ws)?;
            Ok(ws.solve().to_vec())
        },
    )?;
    let mut out = AcWaveform::new();
    for name in &prep.unknown_names {
        out.push_signal(name);
    }
    for (&f, sol) in freqs.iter().zip(&sols) {
        out.push_sample(f, sol);
    }
    ahfic_trace::SweepStats {
        points: freqs.len() as u64,
        threads: par.threads as u64,
    }
    .emit(tr, "ac");
    par.solver.emit(tr, "ac");
    span.end();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::op::op_eval as op;
    use crate::circuit::Circuit;
    use ahfic_num::interp::logspace;

    /// Test shim over the canonical entry.
    fn ac_sweep(
        prep: &Prepared,
        x_op: &[f64],
        opts: &Options,
        freqs: &[f64],
    ) -> Result<AcWaveform> {
        ac_sweep_impl(prep, x_op, opts, freqs)
    }

    fn run_ac(ckt: Circuit, freqs: &[f64]) -> (Prepared, AcWaveform) {
        let prep = Prepared::compile(&ckt).unwrap();
        let opts = Options::default();
        let r = op(&prep, &opts).unwrap();
        let w = ac_sweep(&prep, &r.x, &opts, freqs).unwrap();
        (prep, w)
    }

    #[test]
    fn rc_lowpass_pole() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let out = c.node("out");
        c.vsource("V1", a, Circuit::gnd(), 0.0);
        c.set_ac("V1", 1.0, 0.0).unwrap();
        c.resistor("R1", a, out, 1e3);
        c.capacitor("C1", out, Circuit::gnd(), 1e-9);
        let fp = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-9); // ~159 kHz
        let (_, w) = run_ac(c, &[fp / 100.0, fp, 100.0 * fp]);
        let mag = w.magnitude("v(out)").unwrap();
        let ph = w.phase_deg("v(out)").unwrap();
        assert!((mag[0] - 1.0).abs() < 1e-3);
        assert!((mag[1] - 1.0 / 2.0f64.sqrt()).abs() < 1e-3);
        assert!((ph[1] + 45.0).abs() < 0.1);
        assert!(mag[2] < 0.011);
    }

    #[test]
    fn lc_resonance() {
        // Series RLC driven by 1 V: current peaks at f0 with |i| = 1/R.
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let d = c.node("d");
        c.vsource("V1", a, Circuit::gnd(), 0.0);
        c.set_ac("V1", 1.0, 0.0).unwrap();
        c.resistor("R1", a, b, 10.0);
        c.inductor("L1", b, d, 1e-6);
        c.capacitor("C1", d, Circuit::gnd(), 1e-9);
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1e-6f64 * 1e-9).sqrt());
        let (prep, w) = run_ac(c, &[f0]);
        let i = w.signal("i(V1)").unwrap()[0];
        assert!((i.abs() - 0.1).abs() < 1e-4, "i = {}", i.abs());
        let _ = prep;
    }

    #[test]
    fn bjt_amplifier_gain_and_rolloff() {
        // Common-emitter stage: gain ~ gm * RC at low f, rolls off.
        let mut c = Circuit::new();
        let vcc = c.node("vcc");
        let b = c.node("b");
        let col = c.node("c");
        c.vsource("VCC", vcc, Circuit::gnd(), 5.0);
        c.vsource("VB", b, Circuit::gnd(), 0.75);
        c.set_ac("VB", 1.0, 0.0).unwrap();
        c.resistor("RC", vcc, col, 1e3);
        let mut m = crate::model::BjtModel::named("n1");
        m.bf = 100.0;
        m.cje = 1e-12;
        m.cjc = 0.5e-12;
        m.tf = 50e-12;
        let mi = c.add_bjt_model(m);
        c.bjt("Q1", col, b, Circuit::gnd(), mi, 1.0);
        let prep = Prepared::compile(&c).unwrap();
        let opts = Options::default();
        let r = op(&prep, &opts).unwrap();
        let q = crate::analysis::op::bjt_operating(&prep, &r.x, &opts, "Q1").unwrap();
        let freqs = logspace(1e3, 10e9, 40);
        let w = ac_sweep(&prep, &r.x, &opts, &freqs).unwrap();
        let mag = w.magnitude("v(c)").unwrap();
        // Low-frequency gain = gm*RC (inverting).
        let expect = q.gmf * 1e3;
        assert!(
            (mag[0] - expect).abs() / expect < 0.02,
            "gain {} vs {expect}",
            mag[0]
        );
        // High-frequency magnitude must fall well below the midband gain.
        assert!(mag[39] < 0.2 * mag[0]);
        // Low-frequency phase ~ 180 deg (inverting).
        let ph = w.phase_deg("v(c)").unwrap();
        assert!((ph[0].abs() - 180.0).abs() < 2.0);
    }

    #[test]
    fn empty_freqs_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R1", a, Circuit::gnd(), 1.0);
        let prep = Prepared::compile(&c).unwrap();
        assert!(ac_sweep(&prep, &[0.0], &Options::default(), &[]).is_err());
    }
}
