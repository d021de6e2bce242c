//! The paper's Fig. 11 five-stage ECL ring oscillator and the Table 1
//! shape-sweep experiment.
//!
//! Each stage is an emitter-coupled differential pair with resistive
//! collector loads and emitter-follower output buffers; stages are chained
//! differentially (each stage inverts, so an odd number of stages
//! free-runs). The diff-pair transistors `Q1, Q2, Q5, Q6, …` carry the
//! swept shape; followers use a fixed buffer device, as in the paper
//! where "only the shapes of the transistors at differential pairs were
//! optimized".

use ahfic_geom::generate::ModelGenerator;
use ahfic_geom::shape::TransistorShape;
use ahfic_spice::analysis::{Options, Session, TranParams, TranResult};
use ahfic_spice::circuit::{Circuit, NodeId};
use ahfic_spice::error::Result;
use ahfic_spice::measure::{oscillation_frequency, OscMeasurement};
use ahfic_spice::model::BjtModel;
use ahfic_spice::wave::{SourceWave, Waveform};

/// Electrical parameters of the ring oscillator test bench.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RingOscParams {
    /// Number of stages (odd; the paper uses 5).
    pub stages: usize,
    /// Supply voltage (V).
    pub vcc: f64,
    /// Diff-pair tail current (A) — fixed by power budget per the paper.
    pub tail_current: f64,
    /// Collector load resistance (ohm).
    pub load_r: f64,
    /// Emitter-follower pull-down resistance (ohm).
    pub follower_r: f64,
    /// Simulated time (s).
    pub t_stop: f64,
    /// Maximum transient step (s).
    pub dt_max: f64,
}

impl Default for RingOscParams {
    /// The Table 1 bench: 5 stages, 5 V, 3 mA tail, ~400 mV swing.
    fn default() -> Self {
        RingOscParams {
            stages: 5,
            vcc: 5.0,
            tail_current: 3e-3,
            load_r: 130.0,
            follower_r: 1.2e3,
            t_stop: 30e-9,
            dt_max: 2.5e-12,
        }
    }
}

/// Builds the Fig. 11 netlist with the given diff-pair and follower model
/// cards. Returns the circuit and the differential probe node names of
/// the last stage's outputs.
pub fn build_ring_oscillator(
    params: &RingOscParams,
    pair_model: &BjtModel,
    follower_model: &BjtModel,
) -> (Circuit, String, String) {
    assert!(
        params.stages >= 3 && params.stages % 2 == 1,
        "need an odd stage count >= 3"
    );
    let mut ckt = Circuit::new();
    let vcc = ckt.node("vcc");
    ckt.vsource("VCC", vcc, Circuit::gnd(), params.vcc);
    let pair = ckt.add_bjt_model(pair_model.clone());
    let follower = ckt.add_bjt_model(follower_model.clone());

    let n = params.stages;
    // Stage input nodes (differential): inputs of stage k are the outputs
    // of stage k-1.
    let ins: Vec<(NodeId, NodeId)> = (0..n)
        .map(|k| (ckt.node(&format!("op{k}")), ckt.node(&format!("on{k}"))))
        .collect();

    for k in 0..n {
        let (inp, inn) = ins[(k + n - 1) % n];
        let (outp, outn) = ins[k];
        let cp = ckt.node(&format!("cp{k}"));
        let cn = ckt.node(&format!("cn{k}"));
        let tail = ckt.node(&format!("te{k}"));
        // Collector loads.
        ckt.resistor(&format!("RLp{k}"), vcc, cp, params.load_r);
        ckt.resistor(&format!("RLn{k}"), vcc, cn, params.load_r);
        // Differential pair: in+ drives the Q whose collector is cp...
        // in+ high steers current into Qa -> cp drops -> out+ (taken from
        // the *other* collector via follower) keeps the stage inverting
        // once per stage.
        ckt.bjt(&format!("Qa{k}"), cp, inp, tail, pair, 1.0);
        ckt.bjt(&format!("Qb{k}"), cn, inn, tail, pair, 1.0);
        ckt.isource(&format!("IT{k}"), tail, Circuit::gnd(), params.tail_current);
        // Emitter followers buffering the collectors to the outputs. The
        // inversion happens here: out+ follows cp (which is the inversion
        // of in+).
        ckt.bjt(&format!("Qfa{k}"), vcc, cp, outp, follower, 1.0);
        ckt.bjt(&format!("Qfb{k}"), vcc, cn, outn, follower, 1.0);
        ckt.resistor(&format!("RFp{k}"), outp, Circuit::gnd(), params.follower_r);
        ckt.resistor(&format!("RFn{k}"), outn, Circuit::gnd(), params.follower_r);
    }

    // Startup kick: a brief current pulse unbalances stage 0 so the
    // transient leaves the metastable symmetric operating point.
    let kick_node = ckt.node("cp0");
    ckt.isource_wave(
        "IKICK",
        kick_node,
        Circuit::gnd(),
        SourceWave::Pulse {
            v1: 0.0,
            v2: 0.5e-3,
            delay: 10e-12,
            rise: 10e-12,
            fall: 10e-12,
            width: 100e-12,
            period: 0.0,
        },
    );

    let probe_p = format!("v(op{})", n - 1);
    let probe_n = format!("v(on{})", n - 1);
    (ckt, probe_p, probe_n)
}

/// One Table 1 row: the shape and its measured free-running frequency.
#[derive(Clone, Debug, PartialEq)]
pub struct RingOscRow {
    /// Diff-pair transistor shape.
    pub shape: TransistorShape,
    /// Measured oscillation result.
    pub measurement: OscMeasurement,
}

/// Simulates the ring oscillator with the given diff-pair model and
/// measures the free-running frequency from the differential output:
/// [`ring_frequency`] of [`ring_transient`].
///
/// # Errors
///
/// Propagates simulation errors; fails with a measure error when the ring
/// does not oscillate.
pub fn measure_ring_frequency(
    params: &RingOscParams,
    pair_model: &BjtModel,
    follower_model: &BjtModel,
    opts: &Options,
) -> Result<OscMeasurement> {
    let tran = ring_transient(params, pair_model, follower_model, opts)?;
    ring_frequency(tran.wave())
}

/// Runs the ring oscillator's transient, with the differential output
/// of the last stage carried as `v(diff)`, and returns the whole
/// [`TranResult`] (waveform and step and Newton counts).
///
/// # Errors
///
/// Propagates compile and simulation errors.
pub fn ring_transient(
    params: &RingOscParams,
    pair_model: &BjtModel,
    follower_model: &BjtModel,
    opts: &Options,
) -> Result<TranResult> {
    let (mut ckt, probe_p, probe_n) = build_ring_oscillator(params, pair_model, follower_model);
    // Differential probe: v(diff) = v(out+) - v(out-), realized with a
    // VCVS into a dummy load so the waveform carries it directly.
    let diff = ckt.node("diff");
    // The probe names come from `build_ring_oscillator`, which interned
    // both nodes in the circuit it returned.
    #[allow(clippy::expect_used)]
    let pp = ckt
        .find_node(&probe_p[2..probe_p.len() - 1])
        .expect("probe node");
    #[allow(clippy::expect_used)]
    let pn = ckt
        .find_node(&probe_n[2..probe_n.len() - 1])
        .expect("probe node");
    ckt.vcvs("Ediff", diff, Circuit::gnd(), pp, pn, 1.0);
    ckt.resistor("Rdiff", diff, Circuit::gnd(), 1e6);
    let sess = Session::compile(&ckt)?.with_options(opts.clone());
    sess.tran(&TranParams::new(params.t_stop, params.dt_max))
}

/// The free-running frequency of a [`ring_transient`] waveform, from
/// the rising mean crossings of `v(diff)` after the first 40 % of the
/// record (the start-up).
///
/// # Errors
///
/// Fails with a measure error when the ring does not oscillate.
pub fn ring_frequency(wave: &Waveform) -> Result<OscMeasurement> {
    oscillation_frequency(wave, "v(diff)", 0.4)
}

/// Runs the full Table 1 experiment: for each shape, generate the
/// geometry-aware diff-pair model and measure the ring frequency. The
/// follower device is fixed to the generated `N1.2-12D` card.
///
/// # Errors
///
/// Propagates the first simulation failure.
pub fn table1_experiment(
    params: &RingOscParams,
    generator: &ModelGenerator,
    shapes: &[TransistorShape],
    opts: &Options,
) -> Result<Vec<RingOscRow>> {
    // Literal shape code, validated by the parser at compile-test time.
    #[allow(clippy::expect_used)]
    let follower = generator.generate(&"N1.2-12D".parse().expect("valid shape"));
    let mut rows = Vec::new();
    for shape in shapes {
        let pair = generator.generate(shape);
        let measurement = measure_ring_frequency(params, &pair, &follower, opts)?;
        rows.push(RingOscRow {
            shape: *shape,
            measurement,
        });
    }
    Ok(rows)
}

/// Predicts the ring frequency from a single-stage step response — the
/// behavioral shortcut a designer uses before committing to a full ring
/// transient: `f = 1 / (2 * N * td)` with `td` the 50 %-crossing stage
/// delay.
///
/// The bench drives one stage (diff pair + followers, as in the ring)
/// with a differential step and measures the delay from the input edge
/// to the output crossing its settled midpoint.
///
/// # Errors
///
/// Propagates simulation errors; fails when the output never crosses.
pub fn predict_from_stage_delay(
    params: &RingOscParams,
    pair_model: &BjtModel,
    follower_model: &BjtModel,
    opts: &Options,
) -> Result<f64> {
    use ahfic_spice::error::SpiceError;
    let mut ckt = Circuit::new();
    let vcc = ckt.node("vcc");
    ckt.vsource("VCC", vcc, Circuit::gnd(), params.vcc);
    let pair = ckt.add_bjt_model(pair_model.clone());
    let follower = ckt.add_bjt_model(follower_model.clone());
    let (inp, inn) = (ckt.node("inp"), ckt.node("inn"));
    let (cp, cn) = (ckt.node("cp"), ckt.node("cn"));
    let (outp, outn) = (ckt.node("outp"), ckt.node("outn"));
    let tail = ckt.node("tail");
    // Input drive: bias levels matching the follower outputs of a
    // previous stage, with a differential swing comparable to the ring's.
    let vmid = params.vcc - 0.2 - 0.8;
    let swing = params.tail_current * params.load_r / 2.0;
    let t_edge = 2e-9;
    ckt.vsource_wave(
        "VINP",
        inp,
        Circuit::gnd(),
        ahfic_spice::wave::SourceWave::Pulse {
            v1: vmid - swing,
            v2: vmid + swing,
            delay: t_edge,
            rise: 20e-12,
            fall: 20e-12,
            width: 1.0,
            period: 0.0,
        },
    );
    ckt.vsource("VINN", inn, Circuit::gnd(), vmid);
    ckt.resistor("RLp", vcc, cp, params.load_r);
    ckt.resistor("RLn", vcc, cn, params.load_r);
    ckt.bjt("Qa", cp, inp, tail, pair, 1.0);
    ckt.bjt("Qb", cn, inn, tail, pair, 1.0);
    ckt.isource("IT", tail, Circuit::gnd(), params.tail_current);
    ckt.bjt("Qfa", vcc, cp, outp, follower, 1.0);
    ckt.bjt("Qfb", vcc, cn, outn, follower, 1.0);
    ckt.resistor("RFp", outp, Circuit::gnd(), params.follower_r);
    ckt.resistor("RFn", outn, Circuit::gnd(), params.follower_r);
    let sess = Session::compile(&ckt)?.with_options(opts.clone());
    let wave = sess
        .tran(&TranParams::new(8e-9, params.dt_max))?
        .into_wave();
    let t = wave.axis();
    let vp = wave.signal("v(outp)")?;
    let vn = wave.signal("v(outn)")?;
    let diff: Vec<f64> = vp.iter().zip(vn.iter()).map(|(a, b)| a - b).collect();
    // Midpoint between initial and final settled differential levels.
    let v0 = diff[t
        .iter()
        .position(|&tt| tt >= t_edge)
        .unwrap_or(0)
        .saturating_sub(1)];
    // A successful transient always produces at least one sample.
    #[allow(clippy::expect_used)]
    let v1 = *diff.last().expect("non-empty");
    let vmid_cross = (v0 + v1) / 2.0;
    for k in 1..diff.len() {
        if t[k] <= t_edge {
            continue;
        }
        let crossed =
            (diff[k - 1] - vmid_cross) * (diff[k] - vmid_cross) <= 0.0 && diff[k] != diff[k - 1];
        if crossed {
            let frac = (vmid_cross - diff[k - 1]) / (diff[k] - diff[k - 1]);
            let t_cross = t[k - 1] + frac * (t[k] - t[k - 1]);
            let td = t_cross - t_edge;
            if td <= 0.0 {
                continue;
            }
            return Ok(1.0 / (2.0 * params.stages as f64 * td));
        }
    }
    Err(SpiceError::Measure(
        "stage output never crossed its midpoint".into(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahfic_geom::process::ProcessData;
    use ahfic_geom::rules::MaskRules;

    fn quick_params() -> RingOscParams {
        // 3 stages and a short run keep the test fast (opt-level=2).
        RingOscParams {
            stages: 3,
            t_stop: 6e-9,
            dt_max: 4e-12,
            ..RingOscParams::default()
        }
    }

    fn generator() -> ModelGenerator {
        ModelGenerator::new(ProcessData::default(), MaskRules::default())
    }

    #[test]
    fn netlist_has_expected_element_count() {
        let g = generator();
        let m = g.generate(&"N1.2-12D".parse().unwrap());
        let (ckt, _, _) = build_ring_oscillator(&RingOscParams::default(), &m, &m);
        // Per stage: 2 loads + 2 pulldowns + 4 BJTs + 1 tail source = 9,
        // plus VCC and the kick source.
        assert_eq!(ckt.elements().len(), 5 * 9 + 2);
    }

    #[test]
    #[should_panic(expected = "odd stage count")]
    fn even_stage_count_rejected() {
        let g = generator();
        let m = g.generate(&"N1.2-12D".parse().unwrap());
        let p = RingOscParams {
            stages: 4,
            ..RingOscParams::default()
        };
        build_ring_oscillator(&p, &m, &m);
    }

    #[test]
    fn stage_delay_prediction_tracks_measured_ring() {
        let g = generator();
        let pair = g.generate(&"N1.2-12D".parse().unwrap());
        let params = quick_params();
        let opts = Options::default();
        let measured = measure_ring_frequency(&params, &pair, &pair, &opts)
            .unwrap()
            .frequency;
        let predicted = predict_from_stage_delay(&params, &pair, &pair, &opts).unwrap();
        // The first-order delay model is expected to land within ~2x of
        // the nonlinear large-signal ring — it is a pre-design estimate.
        let ratio = predicted / measured;
        assert!(
            (0.4..=2.5).contains(&ratio),
            "predicted {predicted:.3e} vs measured {measured:.3e}"
        );
    }

    #[test]
    fn three_stage_ring_oscillates_in_ghz_band() {
        let g = generator();
        let pair = g.generate(&"N1.2-12D".parse().unwrap());
        let m = measure_ring_frequency(&quick_params(), &pair, &pair, &Options::default())
            .expect("oscillation");
        assert!(
            m.frequency > 0.3e9 && m.frequency < 20e9,
            "f = {:.3e}",
            m.frequency
        );
        assert!(m.amplitude_pp > 0.1, "swing = {}", m.amplitude_pp);
        assert!(m.cycles >= 3);
    }
}
