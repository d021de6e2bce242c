//! Small-signal noise analysis.
//!
//! Direct method: at each frequency the AC system is factored once, then
//! every device noise generator (resistor thermal `4kT/R`, junction shot
//! `2qI`, optional device flicker `KF·I^AF/f`) is injected as a unit
//! current source and its transfer to the output node computed;
//! contributions add in power.
//!
//! Generators are enumerated by the devices themselves through
//! [`crate::devices::Device::noise`]; this module only owns the transfer
//! function machinery.

use crate::analysis::ac::factor_ac;
use crate::analysis::solver::{parallel_freq_map, SolverWorkspace};
use crate::analysis::stamp::Options;
use crate::circuit::{NodeId, Prepared, GROUND_SLOT};
use crate::devices::{NoiseGenerator, OpCtx};
use crate::error::{Result, SpiceError};
use ahfic_num::Complex;

pub use crate::devices::{KB, Q};

/// One device's contribution at one frequency.
///
/// `#[non_exhaustive]`: constructed only by the analysis.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub struct NoiseContribution {
    /// Element name.
    pub element: String,
    /// Generator label (`thermal`, `shot-ic`, `shot-ib`).
    pub generator: &'static str,
    /// Contribution to the output noise voltage density (V²/Hz).
    pub output_density: f64,
}

impl NoiseContribution {
    /// Element name.
    pub fn element(&self) -> &str {
        &self.element
    }

    /// Generator label (`thermal`, `shot-ic`, `shot-ib`, …).
    pub fn generator(&self) -> &'static str {
        self.generator
    }

    /// Contribution to the output noise voltage density (V²/Hz).
    pub fn output_density(&self) -> f64 {
        self.output_density
    }
}

/// Noise at one frequency point.
///
/// `#[non_exhaustive]`: constructed only by the analysis.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub struct NoisePoint {
    /// Frequency (Hz).
    pub freq: f64,
    /// Total output noise voltage density (V²/Hz).
    pub output_density: f64,
    /// Per-generator breakdown, largest first.
    pub contributions: Vec<NoiseContribution>,
}

impl NoisePoint {
    /// RMS output noise voltage density (V/√Hz).
    pub fn output_rms_density(&self) -> f64 {
        self.output_density.sqrt()
    }

    /// Frequency (Hz).
    pub fn freq(&self) -> f64 {
        self.freq
    }

    /// Total output noise voltage density (V²/Hz).
    pub fn output_density(&self) -> f64 {
        self.output_density
    }

    /// Per-generator breakdown, largest first.
    pub fn contributions(&self) -> &[NoiseContribution] {
        &self.contributions
    }
}

/// Enumerates every device's noise generators at the operating point.
fn collect_generators(prep: &Prepared, x_op: &[f64], opts: &Options) -> Vec<NoiseGenerator> {
    let cx = OpCtx {
        prep,
        opts,
        x: x_op,
    };
    let mut out = Vec::new();
    for d in prep.devices() {
        d.noise(&cx, &mut out);
    }
    out
}

/// Runs a noise analysis: total and per-generator output noise density at
/// `output` for each frequency — the engine behind
/// [`Session::noise`](crate::analysis::Session::noise).
pub(crate) fn noise_impl(
    prep: &Prepared,
    x_op: &[f64],
    opts: &Options,
    output: NodeId,
    freqs: &[f64],
) -> Result<Vec<NoisePoint>> {
    let out_slot = prep.slot_of(output);
    if out_slot == GROUND_SLOT {
        return Err(SpiceError::Measure(
            "noise output node cannot be ground".into(),
        ));
    }
    let tr = opts.trace.tracer();
    let span = tr.span("noise");
    let gens = collect_generators(prep, x_op, opts);
    let gens = &gens;
    let n = prep.num_unknowns;
    // Frequencies split across scoped worker threads; each factors its
    // workspace once per point and reuses the factors for every
    // generator's transfer-function solve.
    let (points, par) = parallel_freq_map(
        n,
        tr.enabled(),
        opts.threads,
        freqs,
        |ws: &mut SolverWorkspace<Complex>, f| {
            factor_ac(prep, x_op, opts, 2.0 * std::f64::consts::PI * f, ws)?;
            let mut total = 0.0;
            let mut contributions = Vec::with_capacity(gens.len());
            for g in gens.iter() {
                // Unit current from g.p to g.n.
                ws.rhs.fill(Complex::ZERO);
                if g.p != GROUND_SLOT {
                    ws.rhs[g.p] -= Complex::ONE;
                }
                if g.n != GROUND_SLOT {
                    ws.rhs[g.n] += Complex::ONE;
                }
                let sol = ws.solve();
                let h2 = sol[out_slot].norm_sqr();
                let density = h2 * g.psd(f);
                total += density;
                contributions.push(NoiseContribution {
                    element: g.element.clone(),
                    generator: g.label,
                    output_density: density,
                });
            }
            contributions.sort_by(|a, b| {
                b.output_density
                    .partial_cmp(&a.output_density)
                    .expect("finite densities")
            });
            Ok(NoisePoint {
                freq: f,
                output_density: total,
                contributions,
            })
        },
    )?;
    ahfic_trace::SweepStats {
        points: freqs.len() as u64,
        threads: par.threads as u64,
    }
    .emit(tr, "noise");
    tr.counter("noise.generators", gens.len() as f64);
    par.solver.emit(tr, "noise");
    span.end();
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::op::bjt_operating;
    use crate::analysis::op::op_eval as op;
    use crate::circuit::Circuit;
    use crate::model::BjtModel;

    /// Test shim over the canonical entry.
    fn noise_analysis(
        prep: &Prepared,
        x_op: &[f64],
        opts: &Options,
        output: NodeId,
        freqs: &[f64],
    ) -> Result<Vec<NoisePoint>> {
        noise_impl(prep, x_op, opts, output, freqs)
    }

    #[test]
    fn amplifier_noise_is_gain_shaped_and_attributed() {
        let mut c = Circuit::new();
        let vcc = c.node("vcc");
        let b = c.node("b");
        let col = c.node("c");
        c.vsource("VCC", vcc, Circuit::gnd(), 5.0);
        c.vsource("VB", b, Circuit::gnd(), 0.75);
        c.resistor("RC", vcc, col, 1e3);
        let mut m = BjtModel::named("n");
        m.bf = 120.0;
        m.rb = 100.0;
        m.cje = 80e-15;
        m.cjc = 45e-15;
        m.tf = 16e-12;
        let mi = c.add_bjt_model(m);
        c.bjt("Q1", col, b, Circuit::gnd(), mi, 1.0);
        let prep = Prepared::compile(&c).unwrap();
        let opts = Options::default();
        let dc = op(&prep, &opts).unwrap();
        let pts = noise_analysis(&prep, &dc.x, &opts, col, &[1e6]).unwrap();
        let p = &pts[0];
        assert!(p.output_density > 0.0);
        // Collector shot noise into RC must appear among the top
        // contributors; at this bias (~0.4 mA), 2qIc*RC^2 ~ 1.3e-16.
        let q = bjt_operating(&prep, &dc.x, &opts, "Q1").unwrap();
        let shot = p
            .contributions
            .iter()
            .find(|c| c.generator == "shot-ic")
            .unwrap();
        let expect_shot = 2.0 * Q * q.ic * 1e3 * 1e3;
        assert!(
            (shot.output_density - expect_shot).abs() / expect_shot < 0.2,
            "{} vs {expect_shot:.3e}",
            shot.output_density
        );
        // Contributions are sorted descending and sum to the total.
        let sum: f64 = p.contributions.iter().map(|c| c.output_density).sum();
        assert!((sum - p.output_density).abs() / p.output_density < 1e-12);
        assert!(p
            .contributions
            .windows(2)
            .all(|w| w[0].output_density >= w[1].output_density));
    }

    #[test]
    fn flicker_noise_has_1_over_f_slope_and_is_off_by_default() {
        use crate::model::DiodeModel;

        let build = |kf: f64| {
            let mut c = Circuit::new();
            let a = c.node("a");
            let d = c.node("d");
            c.vsource("V1", a, Circuit::gnd(), 5.0);
            c.resistor("R1", a, d, 1e3);
            let dm = c.add_diode_model(DiodeModel {
                kf,
                af: 1.0,
                ..DiodeModel::default()
            });
            c.diode("D1", d, Circuit::gnd(), dm, 1.0);
            (Prepared::compile(&c).unwrap(), d)
        };

        // KF defaults to zero: no flicker generator is emitted.
        let (prep, out) = build(0.0);
        let opts = Options::default();
        let dc = op(&prep, &opts).unwrap();
        let pts = noise_analysis(&prep, &dc.x, &opts, out, &[1.0]).unwrap();
        assert!(pts[0]
            .contributions
            .iter()
            .all(|c| c.generator != "flicker-id"));

        // With KF set, the flicker contribution falls exactly as 1/f
        // (the purely resistive transfer is frequency-flat here), while
        // the shot contribution stays white.
        let (prep, out) = build(1e-12);
        let dc = op(&prep, &opts).unwrap();
        let pts = noise_analysis(&prep, &dc.x, &opts, out, &[1.0, 10.0, 100.0]).unwrap();
        let pick = |p: &NoisePoint, label: &str| {
            p.contributions
                .iter()
                .find(|c| c.generator == label)
                .unwrap()
                .output_density
        };
        let f1 = pick(&pts[0], "flicker-id");
        let f10 = pick(&pts[1], "flicker-id");
        let f100 = pick(&pts[2], "flicker-id");
        assert!(f1 > 0.0);
        assert!((f1 / f10 - 10.0).abs() < 1e-9, "slope {}", f1 / f10);
        assert!((f10 / f100 - 10.0).abs() < 1e-9);
        let s1 = pick(&pts[0], "shot-id");
        let s100 = pick(&pts[2], "shot-id");
        assert!((s1 - s100).abs() / s1 < 1e-12, "shot noise must be white");
    }

    #[test]
    fn bjt_flicker_attributed_to_base_current() {
        let mut c = Circuit::new();
        let vcc = c.node("vcc");
        let bb = c.node("bb");
        let b = c.node("b");
        let col = c.node("c");
        c.vsource("VCC", vcc, Circuit::gnd(), 5.0);
        // Bias through a base resistor: an ideal source directly on the
        // base would short out the base-current noise.
        c.vsource("VB", bb, Circuit::gnd(), 0.8);
        c.resistor("RB", bb, b, 10e3);
        c.resistor("RC", vcc, col, 1e3);
        let mut m = BjtModel::named("nf");
        m.bf = 120.0;
        m.kf = 1e-12;
        m.af = 1.0;
        let mi = c.add_bjt_model(m);
        c.bjt("Q1", col, b, Circuit::gnd(), mi, 1.0);
        let prep = Prepared::compile(&c).unwrap();
        let opts = Options::default();
        let dc = op(&prep, &opts).unwrap();
        let pts = noise_analysis(&prep, &dc.x, &opts, col, &[10.0, 100.0]).unwrap();
        let flicker: Vec<f64> = pts
            .iter()
            .map(|p| {
                p.contributions
                    .iter()
                    .find(|c| c.generator == "flicker-ib")
                    .expect("flicker-ib present when KF > 0")
                    .output_density
            })
            .collect();
        // 1/f slope within the (slightly gain-shaped) transfer.
        let ratio = flicker[0] / flicker[1];
        assert!((ratio - 10.0).abs() / 10.0 < 0.02, "ratio {ratio}");
    }

    #[test]
    fn ground_output_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R1", a, Circuit::gnd(), 1e3);
        let prep = Prepared::compile(&c).unwrap();
        let opts = Options::default();
        let dc = op(&prep, &opts).unwrap();
        assert!(noise_analysis(&prep, &dc.x, &opts, NodeId::GROUND, &[1e3]).is_err());
    }
}
