//! Behavioral double-super tuner builders (paper Figs. 2 and 4).
//!
//! Both tuners are assembled from `ahfic-ahdl` blocks into a
//! [`System`]; the RF input is injected by the caller as a net driven by
//! sine sources, so wanted-only / image-only experiments just swap the
//! sources.

use crate::plan::FrequencyPlan;
use ahfic_ahdl::blocks::arith::{Adder, Mixer};
use ahfic_ahdl::blocks::filter::FilterChain;
use ahfic_ahdl::blocks::osc::{QuadratureLo, SineSource};
use ahfic_ahdl::blocks::phase::ImpairedShifter90;
use ahfic_ahdl::error::Result;
use ahfic_ahdl::system::{NetId, System};

/// Configuration of the behavioral tuner chain.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TunerConfig {
    /// Sample rate of the behavioral simulation (Hz).
    pub fs: f64,
    /// First-IF band-pass: number of cascaded sections.
    pub bpf_sections: usize,
    /// First-IF band-pass bandwidth (Hz). Centered midway between the
    /// wanted and image first-IF tones; the response is not symmetric in
    /// linear frequency, so the wanted tone passes 0.0245 dB weaker than
    /// the image (the default two sections, 400 MHz).
    pub bpf_bandwidth: f64,
    /// LO amplitudes.
    pub lo_ampl: f64,
    /// Mixer conversion gain.
    pub mixer_gain: f64,
}

impl TunerConfig {
    /// Defaults sized for the CATV plan.
    pub fn for_plan(plan: &FrequencyPlan) -> Self {
        TunerConfig {
            fs: plan.recommended_fs(),
            bpf_sections: 2,
            bpf_bandwidth: 400e6,
            lo_ampl: 1.0,
            mixer_gain: 1.0,
        }
    }
}

/// Nets exposed by a built tuner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TunerNets {
    /// RF input (drive this with your sources).
    pub rf_in: NetId,
    /// First IF after the band-pass filter.
    pub if1: NetId,
    /// Second IF output.
    pub if2: NetId,
}

/// Builds the **conventional** double-super tuner of Fig. 2:
/// `rf_in -> mixer(Fup) -> BPF(1st IF) -> mixer(Fdown) -> if2`.
///
/// # Errors
///
/// Propagates wiring errors (only possible if net names collide with
/// caller-created blocks).
pub fn build_conventional_tuner(
    sys: &mut System,
    plan: &FrequencyPlan,
    cfg: &TunerConfig,
) -> Result<TunerNets> {
    let rf_in = sys.net("rf_in");
    let lo1 = sys.net("lo1");
    let if1_raw = sys.net("if1_raw");
    let if1 = sys.net("if1");
    let lo2 = sys.net("lo2");
    let if2 = sys.net("if2");

    sys.add(
        "LO1",
        SineSource::new(plan.f_up(), cfg.lo_ampl),
        &[],
        &[lo1],
    )?;
    sys.add(
        "MIX1",
        Mixer::new(cfg.mixer_gain),
        &[rf_in, lo1],
        &[if1_raw],
    )?;
    // Center midway between the wanted (1.3 GHz) and image (1.39 GHz)
    // first IFs, so the filter treats both nearly alike.
    let center = (plan.f1_if + plan.if1_image()) / 2.0;
    sys.add(
        "BPF1",
        FilterChain::bandpass(center, cfg.bpf_bandwidth, cfg.bpf_sections, cfg.fs),
        &[if1_raw],
        &[if1],
    )?;
    sys.add(
        "LO2",
        SineSource::new(plan.f_down(), cfg.lo_ampl),
        &[],
        &[lo2],
    )?;
    sys.add("MIX2", Mixer::new(cfg.mixer_gain), &[if1, lo2], &[if2])?;
    Ok(TunerNets { rf_in, if1, if2 })
}

/// Impairments of the image-rejection path (the Fig. 5 sweep knobs).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ImageRejectionErrors {
    /// Quadrature phase error of the second LO (degrees).
    pub lo_phase_err_deg: f64,
    /// Fractional gain imbalance between the I and Q paths.
    pub gain_err: f64,
    /// Phase error of the second-IF 90° shifter (degrees).
    pub shifter_phase_err_deg: f64,
}

/// Builds the **image-rejection** double-super tuner of Fig. 4: the first
/// IF is split, down-converted by a quadrature LO, one arm is shifted a
/// further 90° at the second IF, and the arms are summed — image phasors
/// cancel, wanted phasors add.
///
/// # Errors
///
/// Propagates wiring errors.
pub fn build_image_rejection_tuner(
    sys: &mut System,
    plan: &FrequencyPlan,
    cfg: &TunerConfig,
    errors: &ImageRejectionErrors,
) -> Result<TunerNets> {
    let lo = add_lo_section(sys, plan, cfg, errors)?;
    add_signal_path(sys, plan, cfg, errors, &lo, "")
}

/// Nets of the image-rejection tuner's LO section.
pub(crate) struct LoNets {
    lo1: NetId,
    lo2_i: NetId,
    lo2_q: NetId,
}

/// Adds the image-rejection tuner's LO section: LO1 and the impaired
/// quadrature LO2. Both are stateless sources, so any number of signal
/// paths can share them.
///
/// # Errors
///
/// Propagates wiring errors.
pub(crate) fn add_lo_section(
    sys: &mut System,
    plan: &FrequencyPlan,
    cfg: &TunerConfig,
    errors: &ImageRejectionErrors,
) -> Result<LoNets> {
    let lo1 = sys.net("lo1");
    let lo2_i = sys.net("lo2_i");
    let lo2_q = sys.net("lo2_q");
    sys.add(
        "LO1",
        SineSource::new(plan.f_up(), cfg.lo_ampl),
        &[],
        &[lo1],
    )?;
    sys.add(
        "LO2",
        QuadratureLo::new(plan.f_down(), cfg.lo_ampl)
            .with_errors(errors.gain_err, errors.lo_phase_err_deg),
        &[],
        &[lo2_i, lo2_q],
    )?;
    Ok(LoNets { lo1, lo2_i, lo2_q })
}

/// Adds one signal path of the image-rejection tuner, from `rf_in` to
/// `if2`, fed by the LO section `lo`. Its block and net names end in
/// `suffix`.
///
/// # Errors
///
/// Propagates wiring errors.
pub(crate) fn add_signal_path(
    sys: &mut System,
    plan: &FrequencyPlan,
    cfg: &TunerConfig,
    errors: &ImageRejectionErrors,
    lo: &LoNets,
    suffix: &str,
) -> Result<TunerNets> {
    let name = |base: &str| format!("{base}{suffix}");
    let rf_in = sys.net(&name("rf_in"));
    let if1_raw = sys.net(&name("if1_raw"));
    let if1 = sys.net(&name("if1"));
    let arm_i = sys.net(&name("arm_i"));
    let arm_q = sys.net(&name("arm_q"));
    let arm_i_shift = sys.net(&name("arm_i_shift"));
    let if2 = sys.net(&name("if2"));

    sys.add(
        &name("MIX1"),
        Mixer::new(cfg.mixer_gain),
        &[rf_in, lo.lo1],
        &[if1_raw],
    )?;
    let center = (plan.f1_if + plan.if1_image()) / 2.0;
    sys.add(
        &name("BPF1"),
        FilterChain::bandpass(center, cfg.bpf_bandwidth, cfg.bpf_sections, cfg.fs),
        &[if1_raw],
        &[if1],
    )?;
    sys.add(
        &name("MIX2I"),
        Mixer::new(cfg.mixer_gain),
        &[if1, lo.lo2_i],
        &[arm_i],
    )?;
    sys.add(
        &name("MIX2Q"),
        Mixer::new(cfg.mixer_gain),
        &[if1, lo.lo2_q],
        &[arm_q],
    )?;
    sys.add(
        &name("PS90"),
        ImpairedShifter90::new(plan.f2_if, cfg.fs, errors.shifter_phase_err_deg, 0.0),
        &[arm_i],
        &[arm_i_shift],
    )?;
    sys.add(&name("SUM"), Adder::new(2), &[arm_i_shift, arm_q], &[if2])?;
    Ok(TunerNets { rf_in, if1, if2 })
}

/// Drives `rf_in` with a single tone source named `name`.
///
/// # Errors
///
/// Propagates wiring errors (duplicate source name).
pub fn drive_rf(
    sys: &mut System,
    nets: &TunerNets,
    name: &str,
    freq: f64,
    ampl: f64,
) -> Result<()> {
    // rf_in may already carry a source: sum through a private net.
    sys.add(name, SineSource::new(freq, ampl), &[], &[nets.rf_in])
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahfic_ahdl::spectrum::tone_power;

    fn plan() -> FrequencyPlan {
        FrequencyPlan::catv(500e6)
    }

    #[test]
    fn conventional_tuner_converts_wanted_channel() {
        let plan = plan();
        let cfg = TunerConfig::for_plan(&plan);
        let mut sys = System::new();
        let nets = build_conventional_tuner(&mut sys, &plan, &cfg).unwrap();
        drive_rf(&mut sys, &nets, "RF1", plan.rf_wanted, 1.0).unwrap();
        let trace = sys.run(cfg.fs, 2e-6).unwrap();
        // Expected chain gain: mixer 1/2 (sum product) * ~1 (BPF) * 1/2.
        let p = tone_power(&trace, "if2", plan.f2_if, 0.5).unwrap();
        // Chain gain 1/2 * |BPF(1.3G)| * 1/2 with |BPF| ~ 0.93.
        let expect = (0.25f64).powi(2) / 2.0;
        assert!(
            (p / expect - 1.0).abs() < 0.25,
            "p = {p:.4e}, expect {expect:.4e}"
        );
    }

    #[test]
    fn conventional_tuner_cannot_reject_image() {
        let plan = plan();
        let cfg = TunerConfig::for_plan(&plan);
        let mut sys = System::new();
        let nets = build_conventional_tuner(&mut sys, &plan, &cfg).unwrap();
        drive_rf(&mut sys, &nets, "RF2", plan.rf_image(), 1.0).unwrap();
        let trace = sys.run(cfg.fs, 2e-6).unwrap();
        let p_img = tone_power(&trace, "if2", plan.f2_if, 0.5).unwrap();
        // The image converts with essentially full gain.
        let expect = (0.25f64).powi(2) / 2.0;
        assert!(p_img > 0.5 * expect, "image power {p_img:.3e}");
    }

    #[test]
    fn ideal_image_rejection_tuner_cancels_image() {
        let plan = plan();
        let cfg = TunerConfig::for_plan(&plan);
        // Wanted run.
        let mut sys = System::new();
        let nets =
            build_image_rejection_tuner(&mut sys, &plan, &cfg, &ImageRejectionErrors::default())
                .unwrap();
        drive_rf(&mut sys, &nets, "RF1", plan.rf_wanted, 1.0).unwrap();
        let p_wanted = tone_power(&sys.run(cfg.fs, 2e-6).unwrap(), "if2", plan.f2_if, 0.5).unwrap();
        // Image run.
        let mut sys = System::new();
        let nets =
            build_image_rejection_tuner(&mut sys, &plan, &cfg, &ImageRejectionErrors::default())
                .unwrap();
        drive_rf(&mut sys, &nets, "RF2", plan.rf_image(), 1.0).unwrap();
        let p_image = tone_power(&sys.run(cfg.fs, 2e-6).unwrap(), "if2", plan.f2_if, 0.5).unwrap();
        let irr_db = 10.0 * (p_wanted / p_image).log10();
        assert!(irr_db > 45.0, "ideal IRR only {irr_db:.1} dB");
    }
}
