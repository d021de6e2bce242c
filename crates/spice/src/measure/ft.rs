//! Transition-frequency (fT) extraction.
//!
//! The measurement mirrors bench practice: the device is biased at a
//! target collector current with a fixed `VCE`, a unit AC current is
//! injected into the base, and `|h21| = |i_c| / |i_b|` is read from an AC
//! solve at a frequency inside the -20 dB/decade region; `fT` is then the
//! gain-bandwidth extrapolation `f * |h21|(f)`.

use crate::analysis::ac::ac_sweep_impl as ac_sweep;
use crate::analysis::op::op_from_eval;
use crate::analysis::{bjt_operating, Options};
use crate::circuit::{Circuit, Prepared};
use crate::error::{Result, SpiceError};
use crate::model::BjtModel;
use crate::wave::SourceWave;
use ahfic_num::interp::parabolic_peak;

/// One point of an fT-vs-Ic characteristic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FtPoint {
    /// Collector bias current (A).
    pub ic: f64,
    /// Base bias current that produced it (A).
    pub ib: f64,
    /// Extrapolated transition frequency (Hz).
    pub ft: f64,
    /// `|h21|` at the measurement frequency.
    pub h21: f64,
    /// Measurement frequency (Hz).
    pub f_meas: f64,
}

/// Measures fT of `model` at collector current `ic_target` and fixed
/// collector-emitter voltage `vce`.
///
/// # Errors
///
/// Propagates OP/AC failures; [`SpiceError::Measure`] when the bias
/// search cannot reach the target current (e.g. beyond achievable Ic).
pub fn ft_at_bias(model: &BjtModel, vce: f64, ic_target: f64, opts: &Options) -> Result<FtPoint> {
    if ic_target <= 0.0 {
        return Err(SpiceError::Measure("ic_target must be positive".into()));
    }
    let mut ckt = Circuit::new();
    let nc = ckt.node("c");
    let nb = ckt.node("b");
    ckt.vsource("VCE", nc, Circuit::gnd(), vce);
    ckt.isource("IB", Circuit::gnd(), nb, ic_target / model.bf.max(1.0));
    ckt.set_ac("IB", 1.0, 0.0)?;
    let mi = ckt.add_bjt_model(model.clone());
    ckt.bjt("Q1", nc, nb, Circuit::gnd(), mi, 1.0);
    let mut prep = Prepared::compile(&ckt)?;

    // Secant iteration on log(ic) vs log(ib): the relation is close to
    // linear on those axes across both the ideal and high-injection
    // regions, so convergence is fast.
    let mut ib = ic_target / model.bf.max(1.0);
    let mut x_prev: Option<Vec<f64>> = None;
    let mut history: Option<(f64, f64)> = None; // (ln ib, ln ic)
    let mut ic = 0.0;
    let mut converged = false;
    for _ in 0..60 {
        prep.circuit.set_source_wave("IB", SourceWave::Dc(ib))?;
        let r = op_from_eval(&prep, opts, x_prev.as_deref(), "op")?;
        let q = bjt_operating(&prep, &r.x, opts, "Q1")?;
        ic = q.ic;
        x_prev = Some(r.x);
        if ic <= 0.0 {
            ib *= 2.0;
            continue;
        }
        if (ic / ic_target - 1.0).abs() < 1e-4 {
            converged = true;
            break;
        }
        let (lib, lic) = (ib.ln(), ic.ln());
        let slope = match history {
            Some((plib, plic)) if (lic - plic).abs() > 1e-12 => {
                ((lib - plib) / (lic - plic)).clamp(0.2, 5.0)
            }
            _ => 1.0,
        };
        history = Some((lib, lic));
        ib = (lib + slope * (ic_target.ln() - lic)).exp();
    }
    if !converged {
        return Err(SpiceError::Measure(format!(
            "bias search failed: target ic = {ic_target:.3e} A, reached {ic:.3e} A"
        )));
    }
    let x_op = x_prev.expect("op solved");

    // Pick a measurement frequency inside the -20 dB/dec region
    // (3 < |h21| < 100) and extrapolate.
    let mut f_meas = 1e9;
    let mut last = None;
    for _ in 0..24 {
        let w = ac_sweep(&prep, &x_op, opts, &[f_meas])?;
        let h21 = w.signal("i(VCE)")?[0].abs();
        last = Some((f_meas, h21));
        if h21 > 100.0 {
            f_meas *= 4.0;
        } else if h21 < 3.0 {
            if f_meas < 1e3 {
                break; // device has essentially no current gain
            }
            f_meas /= 4.0;
        } else {
            break;
        }
    }
    let (f_meas, h21) = last.expect("at least one AC point");
    Ok(FtPoint {
        ic: ic_target,
        ib,
        ft: f_meas * h21,
        h21,
        f_meas,
    })
}

/// Sweeps fT over a list of collector currents, skipping points where the
/// bias search fails (e.g. currents beyond the device's reach).
pub fn ft_sweep(model: &BjtModel, vce: f64, ic_values: &[f64], opts: &Options) -> Vec<FtPoint> {
    ic_values
        .iter()
        .filter_map(|&ic| ft_at_bias(model, vce, ic, opts).ok())
        .collect()
}

/// Peak of an fT characteristic: `(ic_at_peak, ft_peak)`, refined with
/// parabolic interpolation on a log-current axis.
///
/// # Errors
///
/// Returns [`SpiceError::Measure`] for an empty sweep.
pub fn peak_ft(points: &[FtPoint]) -> Result<(f64, f64)> {
    if points.is_empty() {
        return Err(SpiceError::Measure("empty fT sweep".into()));
    }
    let mut best = 0usize;
    for (k, p) in points.iter().enumerate() {
        if p.ft > points[best].ft {
            best = k;
        }
    }
    if best == 0 || best + 1 >= points.len() {
        return Ok((points[best].ic, points[best].ft));
    }
    let (l, m, r) = (&points[best - 1], &points[best], &points[best + 1]);
    // Assume log-spaced currents; refine on ln(ic).
    let h = ((r.ic.ln() - l.ic.ln()) / 2.0).abs();
    let lic = parabolic_peak(m.ic.ln(), h, l.ft, m.ft, r.ft);
    Ok((lic.exp(), m.ft.max(l.ft).max(r.ft)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahfic_num::interp::logspace;

    fn rf_model() -> BjtModel {
        BjtModel {
            name: "rf".into(),
            is_: 2e-17,
            bf: 120.0,
            vaf: 40.0,
            ikf: 8e-3,
            ise: 5e-19,
            ne: 1.8,
            rb: 80.0,
            rbm: 15.0,
            irb: 1e-4,
            re: 1.5,
            rc: 25.0,
            cje: 80e-15,
            vje: 0.9,
            mje: 0.35,
            tf: 16e-12,
            xtf: 4.0,
            vtf: 2.5,
            itf: 30e-3,
            cjc: 45e-15,
            vjc: 0.65,
            mjc: 0.4,
            xcjc: 0.7,
            tr: 0.5e-9,
            cjs: 90e-15,
            vjs: 0.6,
            mjs: 0.35,
            ..BjtModel::default()
        }
    }

    #[test]
    fn bias_search_hits_target_current() {
        let opts = Options::default();
        let p = ft_at_bias(&rf_model(), 3.0, 1e-3, &opts).unwrap();
        assert!(p.ib > 0.0 && p.ib < 1e-3);
        assert!(p.h21 >= 3.0 && p.h21 <= 100.0);
    }

    #[test]
    fn ft_is_ghz_class_and_peaks_interior() {
        let opts = Options::default();
        let currents = logspace(0.05e-3, 20e-3, 13);
        let pts = ft_sweep(&rf_model(), 3.0, &currents, &opts);
        assert!(pts.len() >= 10, "only {} points", pts.len());
        let (ic_pk, ft_pk) = peak_ft(&pts).unwrap();
        assert!(ft_pk > 1e9 && ft_pk < 20e9, "peak ft = {ft_pk:.3e}");
        // Peak should be at a moderate current, not at either end.
        assert!(ic_pk > currents[0] * 1.5 && ic_pk < currents[12] / 1.5);
        // Roll-off on both sides.
        assert!(pts[0].ft < 0.8 * ft_pk);
        assert!(pts.last().unwrap().ft < 0.8 * ft_pk);
    }

    #[test]
    fn ft_tracks_small_signal_estimate() {
        // At moderate current the circuit-level h21 extrapolation should
        // be close to gm/(2 pi (cpi+cmu)) from the device equations.
        let opts = Options::default();
        let model = rf_model();
        let p = ft_at_bias(&model, 3.0, 2e-3, &opts).unwrap();
        // Rebuild the bias point to get the small-signal estimate.
        let mut ckt = Circuit::new();
        let nc = ckt.node("c");
        let nb = ckt.node("b");
        ckt.vsource("VCE", nc, Circuit::gnd(), 3.0);
        ckt.isource("IB", Circuit::gnd(), nb, p.ib);
        let mi = ckt.add_bjt_model(model);
        ckt.bjt("Q1", nc, nb, Circuit::gnd(), mi, 1.0);
        let sess = crate::analysis::Session::compile(&ckt).unwrap();
        let r = sess.op().unwrap();
        let q = bjt_operating(sess.prepared(), r.x(), &opts, "Q1").unwrap();
        let est = q.ft();
        assert!(
            (p.ft - est).abs() / est < 0.35,
            "circuit {:.3e} vs estimate {est:.3e}",
            p.ft
        );
    }

    #[test]
    fn rejects_nonpositive_target() {
        assert!(ft_at_bias(&rf_model(), 3.0, 0.0, &Options::default()).is_err());
    }

    #[test]
    fn peak_of_empty_sweep_errors() {
        assert!(peak_ft(&[]).is_err());
    }
}
