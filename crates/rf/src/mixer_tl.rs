//! Transistor-level image-rejection (Hartley) mixer — the Fig. 5
//! experiment repeated on the SPICE engine instead of the behavioral
//! AHDL blocks.
//!
//! The bench is the classic two-path architecture: one RF input couples
//! into two identical single-BJT mixers whose emitters are pumped by
//! quadrature LOs (the Q arm's LO leads by `90° + phase_error`). Each
//! collector drives a first-order IF network with its corner at the IF
//! — an RC lowpass (−45° at `f_IF`) on the I arm, a CR highpass (+45°)
//! on the Q arm — and a transconductance summer adds the two filter
//! outputs without loading them. For an input above the LO the arm
//! phases align and add; for the image below the LO they end up 180°
//! apart and cancel. Phase or gain imbalance leaves an image residue,
//! exactly the mechanism the behavioral model in
//! [`crate::image_rejection`] quantifies with
//! [`irr_analytic_db`](crate::image_rejection::irr_analytic_db).
//!
//! Conversion gain through the pumped BJTs is measured with the
//! periodic small-signal machinery
//! ([`Session::pac`](ahfic_spice::analysis::Session::pac)): a shooting
//! PSS solves the LO-only orbit, then the circuit linearized along that
//! orbit gives the output phasor at the IF for an input at the RF and at
//! the image, both from the one PSS. The image-rejection ratio is the
//! magnitude ratio of those two conversion gains.

use ahfic_spice::analysis::{Options, PacParams, PssParams, Session};
use ahfic_spice::circuit::Circuit;
use ahfic_spice::error::Result;
use ahfic_spice::model::BjtModel;
use ahfic_spice::wave::SourceWave;

/// Electrical parameters of the transistor-level Hartley mixer bench.
#[derive(Clone, Debug, PartialEq)]
pub struct HartleyMixerParams {
    /// LO frequency (Hz). The paper's Fig. 5 mixer downconverts with
    /// the second LO of the double-super plan; the default bench scales
    /// to 10 MHz so a PSS period holds a convenient step count.
    pub f_lo: f64,
    /// IF (Hz); the RF input sits at `f_lo + f_if`, the image at
    /// `f_lo − f_if`.
    pub f_if: f64,
    /// Deliberate LO quadrature error (degrees) added to the Q arm.
    pub phase_error_deg: f64,
    /// Deliberate relative gain error: the Q arm enters the summer with
    /// weight `1 + gain_error`, the I arm with weight 1.
    pub gain_error: f64,
    /// Supply voltage (V).
    pub vcc: f64,
    /// LO drive amplitude (V) at the emitters.
    pub lo_ampl: f64,
    /// LO drive DC offset (V) at the emitters; together with the 1.5 V
    /// base bias this sets the peak forward V_BE.
    pub lo_offset: f64,
    /// Collector load resistance (ohm).
    pub load_r: f64,
    /// IF filter resistance (ohm); the filter capacitor is derived so
    /// the corner lands exactly on `f_if`.
    pub filter_r: f64,
}

impl Default for HartleyMixerParams {
    fn default() -> Self {
        HartleyMixerParams {
            f_lo: 10e6,
            f_if: 1e6,
            phase_error_deg: 0.0,
            gain_error: 0.0,
            vcc: 5.0,
            lo_ampl: 0.15,
            lo_offset: 0.85,
            load_r: 1e3,
            filter_r: 1e3,
        }
    }
}

impl HartleyMixerParams {
    /// Sets the deliberate LO quadrature error (chainable).
    pub fn phase_error_deg(mut self, deg: f64) -> Self {
        self.phase_error_deg = deg;
        self
    }

    /// Sets the deliberate arm gain error (chainable).
    pub fn gain_error(mut self, g: f64) -> Self {
        self.gain_error = g;
        self
    }
}

/// Builds the two-path mixer netlist. Returns the circuit, the RF
/// source name (`"VRF"`), and the summed IF output signal (`"v(ifout)"`).
///
/// Arm topology (identical by construction except the LO phase and the
/// Q arm's summing weight):
///
/// ```text
/// VRF ──10k──┬── base ──┤ BJT ├── collector ── IF filter ── VCCS ──┐
///            bias 7k/3k   emitter = LO source            sum: 100k load
/// ```
///
/// Each arm's filter output drives a voltage-controlled current source
/// into the shared 100 kΩ load, with transconductance `1/100 kΩ` (times
/// `1 + gain_error` on the Q arm), so `v(ifout) = v(fi) + (1 +
/// gain_error)·v(fq)`. The summer draws no current from the filters, and
/// the unloaded IF networks present the same impedance to their
/// collectors at every frequency (series `R + 1/jωC` in one order or the
/// other), so neither loading nor the gain error adds phase error.
pub fn build_hartley_mixer(params: &HartleyMixerParams) -> (Circuit, String, String) {
    let mut ckt = Circuit::new();
    let vcc = ckt.node("vcc");
    ckt.vsource("VCC", vcc, Circuit::gnd(), params.vcc);

    // RF input, zero until the PAC analysis drives it.
    let rf = ckt.node("rf");
    ckt.vsource_wave("VRF", rf, Circuit::gnd(), SourceWave::Dc(0.0));

    let model = ckt.add_bjt_model(BjtModel::default());
    let c_if = 1.0 / (2.0 * std::f64::consts::PI * params.f_if * params.filter_r);
    let out = ckt.node("ifout");
    let r_sum = 100e3;

    for (arm, phase, weight) in [
        ("i", 0.0, 1.0),
        ("q", 90.0 + params.phase_error_deg, 1.0 + params.gain_error),
    ] {
        let base = ckt.node(&format!("b{arm}"));
        let emit = ckt.node(&format!("e{arm}"));
        let coll = ckt.node(&format!("c{arm}"));
        let filt = ckt.node(&format!("f{arm}"));
        // RF coupling and stiff base bias (~1.5 V).
        ckt.resistor(&format!("RC{arm}"), rf, base, 10e3);
        ckt.resistor(&format!("RB1{arm}"), vcc, base, 7e3);
        ckt.resistor(&format!("RB2{arm}"), base, Circuit::gnd(), 3e3);
        // LO pump straight into the emitter: the BJT conducts in pulses
        // around the LO troughs, and the exponential V_BE law does the
        // mixing.
        ckt.vsource_wave(
            &format!("VLO{arm}"),
            emit,
            Circuit::gnd(),
            SourceWave::Sin {
                offset: params.lo_offset,
                ampl: params.lo_ampl,
                freq: params.f_lo,
                delay: 0.0,
                damping: 0.0,
                phase_deg: phase,
            },
        );
        ckt.bjt(&format!("Q{arm}"), coll, base, emit, model, 1.0);
        ckt.resistor(&format!("RL{arm}"), vcc, coll, params.load_r);
        // IF networks with the corner at f_IF: RC lowpass (−45°) on the
        // I arm, CR highpass (+45°) on the Q arm.
        if arm == "i" {
            ckt.resistor(&format!("RF{arm}"), coll, filt, params.filter_r);
            ckt.capacitor(&format!("CF{arm}"), filt, Circuit::gnd(), c_if);
        } else {
            ckt.capacitor(&format!("CF{arm}"), coll, filt, c_if);
            ckt.resistor(&format!("RF{arm}"), filt, Circuit::gnd(), params.filter_r);
        }
        // Unloading summer: pushes `weight·v(filt)/r_sum` into the load.
        ckt.vccs(
            &format!("GS{arm}"),
            Circuit::gnd(),
            out,
            filt,
            Circuit::gnd(),
            weight / r_sum,
        );
    }
    ckt.resistor("RLOAD", out, Circuit::gnd(), r_sum);

    (ckt, "VRF".to_string(), "v(ifout)".to_string())
}

/// Transistor-level image-rejection measurement.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub struct TransistorIrr {
    /// Image-rejection ratio (dB): wanted-sideband conversion gain over
    /// image conversion gain.
    pub irr_db: f64,
    /// Conversion gain (dB) from the RF input at `f_lo + f_if` to the
    /// IF output.
    pub gain_rf_db: f64,
    /// Conversion gain (dB) from the image input at `f_lo − f_if` to
    /// the IF output.
    pub gain_image_db: f64,
}

/// Measures the mixer's image-rejection ratio on the transistor-level
/// simulator: one PAC call solves the LO-only shooting PSS once and
/// extracts the IF phasor for an input at `f_lo + f_if` (wanted) and at
/// `f_lo − f_if` (image) from the circuit linearized along that orbit.
///
/// # Errors
///
/// Propagates PSS/PAC failures —
/// [`BadAnalysis`](ahfic_spice::error::SpiceError::BadAnalysis) for an
/// infeasible frequency plan, solver errors for a bench that does not
/// converge.
pub fn measure_irr_transistor_db(
    params: &HartleyMixerParams,
    opts: &Options,
) -> Result<TransistorIrr> {
    let (ckt, rf_source, output) = build_hartley_mixer(params);
    let mut sess = Session::compile(&ckt)?.with_options(opts.clone());

    let period = 1.0 / params.f_lo;
    let pss = PssParams::new(period, 200);
    let tones = [params.f_lo + params.f_if, params.f_lo - params.f_if];
    let pac = PacParams::new(&rf_source, &output, tones, params.f_if);

    let r = sess.pac(&pss, &pac)?;
    let (gain_rf_db, gain_image_db) = (r.gain_db(0), r.gain_db(1));
    Ok(TransistorIrr {
        irr_db: gain_rf_db - gain_image_db,
        gain_rf_db,
        gain_image_db,
    })
}
