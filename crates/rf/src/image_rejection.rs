//! Image-rejection ratio: closed form and behavioral measurement
//! (paper Fig. 5).

use crate::plan::FrequencyPlan;
use crate::tuner::{add_lo_section, add_signal_path, drive_rf, ImageRejectionErrors, TunerConfig};
use ahfic_ahdl::error::Result;
use ahfic_ahdl::system::System;
use ahfic_num::goertzel::tone_amplitudes;
use ahfic_trace::TraceHandle;

/// Closed-form image-rejection ratio (dB) of a Hartley architecture with
/// total quadrature phase error `phase_err_deg` and fractional gain
/// imbalance `gain_err`:
///
/// `IRR = 10 log10( (1 + 2 a cos e + a^2) / (1 - 2 a cos e + a^2) )`,
/// `a = 1 + gain_err`.
///
/// This is the textbook result the AHDL simulation must reproduce.
pub fn irr_analytic_db(phase_err_deg: f64, gain_err: f64) -> f64 {
    let a = 1.0 + gain_err;
    let c = phase_err_deg.to_radians().cos();
    10.0 * ((1.0 + 2.0 * a * c + a * a) / (1.0 - 2.0 * a * c + a * a)).log10()
}

/// One measured point of the Fig. 5 surface.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IrrPoint {
    /// Quadrature phase error (degrees).
    pub phase_err_deg: f64,
    /// Fractional gain imbalance.
    pub gain_err: f64,
    /// Simulated image-rejection ratio (dB).
    pub simulated_db: f64,
    /// Closed-form prediction (dB).
    pub analytic_db: f64,
}

/// Measures the image-rejection ratio of the behavioral Fig. 4 tuner:
/// one simulation drives a wanted-channel-only and an image-channel-only
/// signal path from one shared LO section, and the ratio compares the
/// 45 MHz tone powers of their outputs. Each path computes what a
/// single-channel tuner driven by that channel alone would, bit for bit.
///
/// `duration` defaults to 2 µs when `None` (≈ 90 second-IF cycles).
///
/// # Errors
///
/// Propagates simulation errors.
pub fn measure_irr_db(
    plan: &FrequencyPlan,
    cfg: &TunerConfig,
    errors: &ImageRejectionErrors,
    duration: Option<f64>,
) -> Result<f64> {
    measure_irr_db_traced(plan, cfg, errors, duration, &TraceHandle::off())
}

/// [`measure_irr_db`] with telemetry: the behavioral run emits one
/// `ahdl.run` span into `trace`.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn measure_irr_db_traced(
    plan: &FrequencyPlan,
    cfg: &TunerConfig,
    errors: &ImageRejectionErrors,
    duration: Option<f64>,
    trace: &TraceHandle,
) -> Result<f64> {
    let duration = duration.unwrap_or(2e-6);
    let mut sys = System::new();
    sys.set_trace(trace.clone());
    let lo = add_lo_section(&mut sys, plan, cfg, errors)?;
    let channels = [("_wanted", plan.rf_wanted), ("_image", plan.rf_image())];
    let mut probes = Vec::with_capacity(channels.len());
    for (suffix, freq) in channels {
        let nets = add_signal_path(&mut sys, plan, cfg, errors, &lo, suffix)?;
        drive_rf(&mut sys, &nets, &format!("RFSRC{suffix}"), freq, 1.0)?;
        probes.push(nets.if2);
    }
    let out = sys.run_probed(cfg.fs, duration, &probes)?;
    let tails = [out.tail("if2_wanted", 0.5)?, out.tail("if2_image", 0.5)?];
    // Tone power, as `ahfic_ahdl::spectrum::tone_power` computes it.
    let power: Vec<f64> = tone_amplitudes(&tails, out.fs(), plan.f2_if)
        .iter()
        .map(|a| a.norm_sqr() / 2.0)
        .collect();
    Ok(10.0 * (power[0] / power[1]).log10())
}

/// Runs the full Fig. 5 sweep: IRR vs phase error, one series per gain
/// imbalance.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn fig5_sweep(
    plan: &FrequencyPlan,
    cfg: &TunerConfig,
    phase_errors_deg: &[f64],
    gain_errors: &[f64],
    duration: Option<f64>,
) -> Result<Vec<IrrPoint>> {
    let mut out = Vec::with_capacity(phase_errors_deg.len() * gain_errors.len());
    for &g in gain_errors {
        for &p in phase_errors_deg {
            let errors = ImageRejectionErrors {
                lo_phase_err_deg: p,
                gain_err: g,
                shifter_phase_err_deg: 0.0,
            };
            let simulated_db = measure_irr_db(plan, cfg, &errors, duration)?;
            out.push(IrrPoint {
                phase_err_deg: p,
                gain_err: g,
                simulated_db,
                analytic_db: irr_analytic_db(p, g),
            });
        }
    }
    Ok(out)
}

/// Inverts Fig. 5 the way a designer does (paper §2.2): given a required
/// IRR, returns the maximum tolerable phase error (degrees) for a given
/// gain imbalance, from the closed form. `None` when the gain imbalance
/// alone already violates the requirement.
pub fn max_phase_error_for_irr(required_irr_db: f64, gain_err: f64) -> Option<f64> {
    // Solve IRR(e) = required for cos(e).
    let a = 1.0 + gain_err;
    let r = 10f64.powf(required_irr_db / 10.0);
    // (1+a^2)(r-1)/(r+1) = 2 a cos e
    let c = (1.0 + a * a) * (r - 1.0) / ((r + 1.0) * 2.0 * a);
    if c >= 1.0 {
        return None; // even zero phase error cannot reach the IRR
    }
    Some(c.max(-1.0).acos().to_degrees())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_formula_limits() {
        // Perfect balance -> infinite rejection.
        assert!(irr_analytic_db(0.0, 0.0).is_infinite());
        // 1 deg / 0 %: classic ~41 dB.
        let v = irr_analytic_db(1.0, 0.0);
        assert!((v - 41.19).abs() < 0.1, "v = {v}");
        // 0 deg / 1 %: ~46 dB.
        let v = irr_analytic_db(0.0, 0.01);
        assert!((v - 46.0).abs() < 0.3, "v = {v}");
        // Monotonic degradation with phase error.
        assert!(irr_analytic_db(2.0, 0.01) < irr_analytic_db(0.5, 0.01));
    }

    #[test]
    fn inversion_round_trips() {
        for g in [0.01, 0.05, 0.09] {
            for req in [20.0, 25.0, 30.0] {
                if let Some(e) = max_phase_error_for_irr(req, g) {
                    let back = irr_analytic_db(e, g);
                    assert!((back - req).abs() < 1e-6, "g={g} req={req}: {back}");
                }
            }
        }
    }

    #[test]
    fn inversion_detects_infeasible_gain() {
        // 9 % imbalance caps IRR at ~27 dB; 35 dB is unreachable.
        assert!(max_phase_error_for_irr(35.0, 0.09).is_none());
        assert!(max_phase_error_for_irr(20.0, 0.09).is_some());
    }

    #[test]
    fn simulated_irr_matches_analytic_at_spot_points() {
        let plan = FrequencyPlan::catv(500e6);
        let cfg = TunerConfig::for_plan(&plan);
        for (p, g) in [(2.0, 0.01), (5.0, 0.05)] {
            let errors = ImageRejectionErrors {
                lo_phase_err_deg: p,
                gain_err: g,
                shifter_phase_err_deg: 0.0,
            };
            let sim = measure_irr_db(&plan, &cfg, &errors, Some(1.5e-6)).unwrap();
            let ana = irr_analytic_db(p, g);
            assert!(
                (sim - ana).abs() < 0.6,
                "phase {p} gain {g}: sim {sim:.2} vs analytic {ana:.2}"
            );
        }
    }
}
