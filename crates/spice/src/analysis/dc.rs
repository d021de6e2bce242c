//! DC transfer sweeps: step a source value, solve the OP at each point
//! with warm starting.
//!
//! A sweep is a warm-start chain — each point starts from the previous
//! point's solution in one shared workspace — so it always runs
//! sequentially: batching its points into lanes lost at every size
//! measured (see `EXPERIMENTS.md`).
//!
//! A Newton budget covers the whole sweep: each point's operating point
//! starts from the iterations the points before it spent, so the stop
//! rule of its ladder ends the sweep within one Newton solve of the
//! limit, as a typed `dc` error.

use crate::analysis::op::op_from_ws;
use crate::analysis::solver::SolverWorkspace;
use crate::analysis::stamp::Options;
use crate::circuit::Prepared;
use crate::error::{Result, SpiceError};
use crate::wave::SourceWave;
use crate::wave::Waveform;

/// Sweeps the DC value of the named independent source over `values`,
/// returning every unknown at each point (axis = swept value): the
/// engine behind [`Session::dc`](crate::analysis::Session::dc).
///
/// The source's waveform is restored after the sweep.
pub(crate) fn dc_sweep_impl(
    prep: &mut Prepared,
    opts: &Options,
    source: &str,
    values: &[f64],
) -> Result<Waveform> {
    if values.is_empty() {
        return Err(SpiceError::BadAnalysis("empty DC sweep".into()));
    }
    if prep.circuit.find_element(source).is_none() {
        return Err(SpiceError::Netlist(format!("no element named {source}")));
    }
    let original = prep
        .circuit
        .source_wave(source)
        .cloned()
        .ok_or_else(|| SpiceError::Netlist(format!("{source} is not an independent source")))?;

    let tr = opts.trace.tracer();
    let span = tr.span("dc");
    let mut out = Waveform::new(source);
    for name in &prep.unknown_names {
        out.push_signal(name);
    }
    let mut result = Ok(());
    // One workspace for the whole sweep: the stamp pattern is fixed, so
    // every point after the first replays slots and refactors in place.
    let mut ws = SolverWorkspace::new(prep.num_unknowns);
    let mut prev: Option<Vec<f64>> = None;
    let mut spent = 0u64;
    for &v in values {
        prep.circuit.set_source_wave(source, SourceWave::Dc(v))?;
        match op_from_ws(prep, opts, prev.as_deref(), &mut ws, None, spent) {
            Ok(r) => {
                spent += r.iterations as u64;
                out.push_sample(v, &r.x);
                prev = Some(r.x);
            }
            Err(h) => {
                result = Err(h.error("dc"));
                break;
            }
        }
    }
    prep.circuit.set_source_wave(source, original)?;
    tr.counter("dc.points", out.len() as f64);
    span.end();
    result.map(|()| out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::model::DiodeModel;
    use ahfic_num::interp::linspace;

    /// Test shim over the canonical entry.
    fn dc_sweep(
        prep: &mut Prepared,
        opts: &Options,
        source: &str,
        values: &[f64],
    ) -> Result<Waveform> {
        dc_sweep_impl(prep, opts, source, values)
    }

    #[test]
    fn linear_sweep_is_proportional() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::gnd(), 0.0);
        c.resistor("R1", a, b, 1e3);
        c.resistor("R2", b, Circuit::gnd(), 1e3);
        let mut prep = Prepared::compile(&c).unwrap();
        let w = dc_sweep(
            &mut prep,
            &Options::default(),
            "V1",
            &linspace(0.0, 10.0, 11),
        )
        .unwrap();
        let vb = w.signal("v(b)").unwrap();
        for (k, &v) in w.axis().iter().enumerate() {
            assert!((vb[k] - v / 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn diode_iv_curve_is_exponential() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("V1", a, Circuit::gnd(), 0.0);
        let dm = c.add_diode_model(DiodeModel::default());
        c.diode("D1", a, Circuit::gnd(), dm, 1.0);
        let mut prep = Prepared::compile(&c).unwrap();
        let vs = linspace(0.4, 0.7, 13);
        let w = dc_sweep(&mut prep, &Options::default(), "V1", &vs).unwrap();
        let i = w.signal("i(V1)").unwrap();
        // Current through V1 is -(diode current); check 60 mV/decade law.
        let i0 = -i[0];
        let i1 = -i[12];
        let decades = (i1 / i0).log10();
        let expected = (0.7 - 0.4) / (0.025852 * std::f64::consts::LN_10 / 1.0);
        let expected_decades = expected * 0.025852 * std::f64::consts::LN_10 / 0.0595;
        // ~ (0.3 V) / (59.5 mV/decade) ~ 5.04 decades.
        assert!(
            (decades - expected_decades).abs() < 0.15,
            "{decades} vs {expected_decades}"
        );
    }

    #[test]
    fn sweep_restores_original_wave() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("V1", a, Circuit::gnd(), 7.0);
        c.resistor("R1", a, Circuit::gnd(), 1e3);
        let mut prep = Prepared::compile(&c).unwrap();
        dc_sweep(&mut prep, &Options::default(), "V1", &[1.0, 2.0]).unwrap();
        assert_eq!(
            prep.circuit.source_wave("V1").cloned(),
            Some(SourceWave::Dc(7.0))
        );
    }

    #[test]
    fn empty_sweep_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("V1", a, Circuit::gnd(), 1.0);
        c.resistor("R1", a, Circuit::gnd(), 1.0);
        let mut prep = Prepared::compile(&c).unwrap();
        assert!(dc_sweep(&mut prep, &Options::default(), "V1", &[]).is_err());
        assert!(dc_sweep(&mut prep, &Options::default(), "R1", &[1.0]).is_err());
    }
}
