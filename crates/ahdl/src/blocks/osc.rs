//! Oscillator sources: sine, quadrature LO with gain/phase imbalance
//! (the error knobs of the paper's Fig. 5 experiment), and a VCO.
//!
//! The sine and quadrature sources are stateless: sample `k` is a pure
//! function of `k`, `dt` and the parameters. libm evaluates the phase
//! `w·(a·dt) + phi` only at anchor samples `a`, every 64th; between
//! anchors the phasor turns by `w·dt` per sample, so a sample costs a few
//! multiplies instead of a `sin` call.

use crate::block::Block;
use std::f64::consts::PI;

/// Samples from one libm evaluation of a source's phase to the next.
const ANCHOR: usize = 64;

/// Anchor spans turned side by side in a frame.
const CHAINS: usize = 4;

/// Calls `emit(j, sin θ, cos θ)` for each sample `k = k0 + j`, `j < n`,
/// of the phase `θ = w·(k·dt) + phi`.
///
/// At an anchor `a` (a multiple of [`ANCHOR`]) the phasor is libm's sine
/// and cosine of `w·(a·dt) + phi`; sample `k` turns the phasor of its
/// anchor `a = k - k % ANCHOR` by `(sin w·dt, cos w·dt)`, `k - a` times
/// in sequence. So every sample depends on `k` alone, and the same `k`
/// gives the same bits whatever frame it falls in.
#[inline]
fn for_each_phasor(
    w: f64,
    phi: f64,
    k0: usize,
    n: usize,
    dt: f64,
    mut emit: impl FnMut(usize, f64, f64),
) {
    if n == 0 {
        return;
    }
    let (ds, dc) = (w * dt).sin_cos();
    let turn = |(s, c): (f64, f64)| (s * dc + c * ds, c * dc - s * ds);
    let anchor = |a: usize| (w * (a as f64 * dt) + phi).sin_cos();
    let end = k0 + n;
    let mut a = k0 - k0 % ANCHOR;
    while a < end {
        if a >= k0 && a + CHAINS * ANCHOR <= end {
            // Whole spans, CHAINS at a time: independent chains the CPU
            // overlaps, each the same sequence of turns as alone.
            let mut p: [(f64, f64); CHAINS] = std::array::from_fn(|l| anchor(a + l * ANCHOR));
            for m in 0..ANCHOR {
                for (l, p) in p.iter_mut().enumerate() {
                    emit(a + l * ANCHOR + m - k0, p.0, p.1);
                    *p = turn(*p);
                }
            }
            a += CHAINS * ANCHOR;
        } else {
            let mut p = anchor(a);
            for k in a..end.min(a + ANCHOR) {
                if k >= k0 {
                    emit(k - k0, p.0, p.1);
                }
                p = turn(p);
            }
            a += ANCHOR;
        }
    }
}

/// The sample index `k` of time `t`, if `t` is exactly `k as f64 * dt`
/// (as the system computes it).
fn grid_index(t: f64, dt: f64) -> Option<usize> {
    let k = (t / dt).round();
    ((0.0..(1u64 << 52) as f64).contains(&k) && k as usize as f64 * dt == t).then_some(k as usize)
}

/// Ideal sine source `y = offset + a*sin(2*pi*f*t + phi)`.
///
/// On the sample grid `t = k·dt` (every sample of [`Block::tick_frame`],
/// and [`Block::tick`] at such a `t`) the sine comes from an anchored
/// phasor: libm's sine and cosine of `2*pi*f*(a·dt) + phi` at the anchor
/// `a`, the last multiple of 64 at or before `k`, turned `k - a` times by
/// `(sin w·dt, cos w·dt)`. An anchor sample has the direct formula's
/// bits; any other stays within `8·EPSILON·(|phase| + 64)·a` of it, where
/// the formula's own argument rounding is `EPSILON·|phase|`. Sample `k`
/// depends on `k` alone, so no framing moves a bit. `tick` at a time off
/// the grid evaluates the direct formula.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SineSource {
    /// Frequency (Hz).
    pub freq: f64,
    /// Amplitude.
    pub ampl: f64,
    /// Phase (radians).
    pub phase: f64,
    /// DC offset.
    pub offset: f64,
}

impl SineSource {
    /// Creates a zero-phase, zero-offset sine.
    pub fn new(freq: f64, ampl: f64) -> Self {
        SineSource {
            freq,
            ampl,
            phase: 0.0,
            offset: 0.0,
        }
    }

    /// The angular frequency `2*pi*f`.
    fn omega(&self) -> f64 {
        2.0 * PI * self.freq
    }
}

impl Block for SineSource {
    fn num_inputs(&self) -> usize {
        0
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn tick(&mut self, t: f64, dt: f64, _inputs: &[f64], outputs: &mut [f64]) {
        match grid_index(t, dt) {
            Some(k) => self.tick_frame(k, 1, dt, &[], outputs),
            None => outputs[0] = self.offset + self.ampl * (self.omega() * t + self.phase).sin(),
        }
    }
    fn tick_frame(&mut self, k0: usize, n: usize, dt: f64, _inputs: &[f64], outputs: &mut [f64]) {
        for_each_phasor(self.omega(), self.phase, k0, n, dt, |j, s, _| {
            outputs[j] = self.offset + self.ampl * s;
        });
    }
    fn reset(&mut self) {}
    fn kind(&self) -> &str {
        "sine"
    }
}

/// Quadrature local oscillator with impairments: output 0 (I) is
/// `a*cos(wt)`, output 1 (Q) is `a*(1+gain_err)*sin(wt + phase_err)`.
///
/// A perfect quadrature pair has `gain_err = 0` and `phase_err_deg = 0`;
/// the image-rejection ratio of a Hartley receiver is set exactly by
/// these two numbers, which is what the paper's Fig. 5 sweeps.
///
/// On the sample grid `t = k·dt` both outputs come from one anchored
/// phasor `(sin wt, cos wt)`, as in [`SineSource`]: I is its cosine, with
/// the direct formula's bits at an anchor, and Q is
/// `sin wt·cos(phase_err) + cos wt·sin(phase_err)`, so one rotation feeds
/// both. [`Block::tick`] at a time off the grid evaluates the direct
/// formulas.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuadratureLo {
    /// Frequency (Hz).
    pub freq: f64,
    /// Amplitude of the I output.
    pub ampl: f64,
    /// Fractional gain imbalance of the Q output (0.01 = 1 %).
    pub gain_err: f64,
    /// Quadrature phase error (degrees) of the Q output.
    pub phase_err_deg: f64,
}

impl QuadratureLo {
    /// Creates an ideal quadrature LO.
    pub fn new(freq: f64, ampl: f64) -> Self {
        QuadratureLo {
            freq,
            ampl,
            gain_err: 0.0,
            phase_err_deg: 0.0,
        }
    }

    /// Applies impairments (builder style).
    pub fn with_errors(mut self, gain_err: f64, phase_err_deg: f64) -> Self {
        self.gain_err = gain_err;
        self.phase_err_deg = phase_err_deg;
        self
    }

    /// The amplitude of the Q output.
    fn q_ampl(&self) -> f64 {
        self.ampl * (1.0 + self.gain_err)
    }
}

impl Block for QuadratureLo {
    fn num_inputs(&self) -> usize {
        0
    }
    fn num_outputs(&self) -> usize {
        2
    }
    fn tick(&mut self, t: f64, dt: f64, _inputs: &[f64], outputs: &mut [f64]) {
        match grid_index(t, dt) {
            Some(k) => self.tick_frame(k, 1, dt, &[], outputs),
            None => {
                let w = 2.0 * PI * self.freq * t;
                outputs[0] = self.ampl * w.cos();
                outputs[1] = self.q_ampl() * (w + self.phase_err_deg.to_radians()).sin();
            }
        }
    }
    fn tick_frame(&mut self, k0: usize, n: usize, dt: f64, _inputs: &[f64], outputs: &mut [f64]) {
        let (i, q) = outputs.split_at_mut(n);
        let (ampl, q_ampl) = (self.ampl, self.q_ampl());
        let (sin_err, cos_err) = self.phase_err_deg.to_radians().sin_cos();
        for_each_phasor(2.0 * PI * self.freq, 0.0, k0, n, dt, |j, s, c| {
            i[j] = ampl * c;
            q[j] = q_ampl * (s * cos_err + c * sin_err);
        });
    }
    fn reset(&mut self) {}
    fn kind(&self) -> &str {
        "quadrature-lo"
    }
}

/// Voltage-controlled oscillator: `y = a*sin(2*pi*(f0*t + kvco*idt(vin)))`.
///
/// The phase accumulates `f0 + kvco * vin(t)`, so `kvco` is in Hz/V.
#[derive(Clone, Debug, PartialEq)]
pub struct Vco {
    /// Center frequency (Hz).
    pub f0: f64,
    /// Tuning gain (Hz/V).
    pub kvco: f64,
    /// Output amplitude.
    pub ampl: f64,
    phase: f64,
}

impl Vco {
    /// Creates a VCO.
    pub fn new(f0: f64, kvco: f64, ampl: f64) -> Self {
        Vco {
            f0,
            kvco,
            ampl,
            phase: 0.0,
        }
    }

    /// Advances the phase by one step of input `x` and returns the output.
    #[inline]
    fn step(&mut self, x: f64, dt: f64) -> f64 {
        self.phase += 2.0 * PI * (self.f0 + self.kvco * x) * dt;
        if self.phase > 2.0 * PI {
            self.phase -= 2.0 * PI * (self.phase / (2.0 * PI)).floor();
        }
        self.ampl * self.phase.sin()
    }
}

impl Block for Vco {
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn tick(&mut self, _t: f64, dt: f64, inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = self.step(inputs[0], dt);
    }
    fn tick_frame(&mut self, _k0: usize, _n: usize, dt: f64, inputs: &[f64], outputs: &mut [f64]) {
        for (y, &x) in outputs.iter_mut().zip(inputs) {
            *y = self.step(x, dt);
        }
    }
    fn reset(&mut self) {
        self.phase = 0.0;
    }
    fn kind(&self) -> &str {
        "vco"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sine_hits_quarter_period_peak() {
        let mut s = SineSource::new(1.0, 2.0);
        let mut out = [0.0];
        s.tick(0.25, 1e-3, &[], &mut out);
        assert!((out[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quadrature_outputs_are_orthogonal_when_ideal() {
        let mut lo = QuadratureLo::new(1.0, 1.0);
        let mut out = [0.0, 0.0];
        // Correlate I and Q over one period: ideal quadrature integrates
        // to zero.
        let n = 1000;
        let dt = 1.0 / n as f64;
        let mut dot = 0.0;
        for k in 0..n {
            lo.tick(k as f64 * dt, dt, &[], &mut out);
            dot += out[0] * out[1] * dt;
        }
        assert!(dot.abs() < 1e-6, "dot = {dot}");
    }

    #[test]
    fn phase_error_breaks_orthogonality() {
        let mut lo = QuadratureLo::new(1.0, 1.0).with_errors(0.0, 10.0);
        let mut out = [0.0, 0.0];
        let n = 1000;
        let dt = 1.0 / n as f64;
        let mut dot = 0.0;
        for k in 0..n {
            lo.tick(k as f64 * dt, dt, &[], &mut out);
            dot += out[0] * out[1] * dt;
        }
        // <cos(w t), sin(w t + e)> = sin(e)/2 over a period.
        let expect = (10f64.to_radians()).sin() / 2.0;
        assert!((dot - expect).abs() < 1e-4, "dot = {dot} vs {expect}");
    }

    #[test]
    fn gain_imbalance_scales_q() {
        let mut lo = QuadratureLo::new(1.0, 1.0).with_errors(0.05, 0.0);
        let mut out = [0.0, 0.0];
        lo.tick(0.25, 1e-3, &[], &mut out); // sin peak
        assert!((out[1] - 1.05).abs() < 1e-9);
    }

    /// The Fig. 5 run: 2 µs at the CATV plan's 8.205 GHz.
    const FIG5_DT: f64 = 1.0 / 8.205e9;
    const FIG5_STEPS: usize = 16_410;

    /// Runs `block` over the Fig. 5 run in frames of 1, 63, 0, 64, 200
    /// and 255 samples in turn, so most frames start off an anchor, and
    /// returns its outputs port-major.
    fn fig5_run_in_frames(mut block: impl Block) -> Vec<f64> {
        let no = block.num_outputs();
        let mut out = vec![0.0; no * FIG5_STEPS];
        let mut k0 = 0;
        for len in [1, 63, 0, 64, 200, 255].into_iter().cycle() {
            let n = len.min(FIG5_STEPS - k0);
            let mut y = vec![0.0; no * n];
            block.tick_frame(k0, n, FIG5_DT, &[], &mut y);
            for p in 0..no {
                out[p * FIG5_STEPS + k0..][..n].copy_from_slice(&y[p * n..][..n]);
            }
            k0 += n;
            if k0 == FIG5_STEPS {
                return out;
            }
        }
        unreachable!()
    }

    /// Asserts that `got` sits within eight times the direct formula's
    /// own argument rounding of `want`, the formula's value at `phase`,
    /// plus room for the turns since the anchor.
    fn assert_near(got: f64, want: f64, phase: f64, ampl: f64, what: &str, k: usize) {
        let off = (got - want).abs();
        let bound = 8.0 * f64::EPSILON * (phase.abs() + ANCHOR as f64) * ampl;
        assert!(off <= bound, "{what} at sample {k}: {off:e} > {bound:e}");
    }

    #[test]
    fn anchored_sources_track_the_direct_formula_over_a_fig5_run() {
        let err = 10f64.to_radians();
        for freq in [0.5e9, 0.8e9, 1.345e9] {
            let w = 2.0 * PI * freq;
            let sine = SineSource {
                freq,
                ampl: 1.3,
                phase: 0.4,
                offset: 0.1,
            };
            let y = fig5_run_in_frames(sine);
            for (k, &got) in y.iter().enumerate() {
                let phase = w * (k as f64 * FIG5_DT) + sine.phase;
                let want = sine.offset + sine.ampl * phase.sin();
                assert_near(got, want, phase, sine.ampl, &format!("sine {freq:e}"), k);
            }
            let lo = QuadratureLo::new(freq, 0.9).with_errors(0.09, 10.0);
            let y = fig5_run_in_frames(lo);
            let (i, q) = y.split_at(FIG5_STEPS);
            for k in 0..FIG5_STEPS {
                let phase = w * (k as f64 * FIG5_DT);
                let (ai, aq) = (lo.ampl, lo.q_ampl());
                assert_near(i[k], ai * phase.cos(), phase, ai, &format!("I {freq:e}"), k);
                let want_q = aq * (phase + err).sin();
                assert_near(q[k], want_q, phase, aq, &format!("Q {freq:e}"), k);
            }
        }
    }

    #[test]
    fn anchors_and_off_grid_ticks_are_the_direct_formula() {
        let (freq, dt) = (1.345e9, FIG5_DT);
        let w = 2.0 * PI * freq;
        let mut sine = SineSource {
            freq,
            ampl: 0.7,
            phase: -0.3,
            offset: 0.2,
        };
        let mut lo = QuadratureLo::new(freq, 0.9).with_errors(0.09, 10.0);
        let (mut y, mut iq) = ([0.0], [0.0, 0.0]);
        let direct_sine = |t: f64| 0.2 + 0.7 * (w * t - 0.3).sin();
        let direct_lo = |t: f64| {
            let wt = 2.0 * PI * freq * t;
            (
                0.9 * wt.cos(),
                0.9 * (1.0 + 0.09) * (wt + 10f64.to_radians()).sin(),
            )
        };
        for k in (0..FIG5_STEPS).step_by(ANCHOR) {
            let t = k as f64 * dt;
            sine.tick(t, dt, &[], &mut y);
            lo.tick(t, dt, &[], &mut iq);
            assert_eq!(y[0].to_bits(), direct_sine(t).to_bits(), "sine anchor {k}");
            assert_eq!(iq[0].to_bits(), direct_lo(t).0.to_bits(), "I anchor {k}");
            let t = (k as f64 + 0.5) * dt;
            sine.tick(t, dt, &[], &mut y);
            lo.tick(t, dt, &[], &mut iq);
            assert_eq!(y[0].to_bits(), direct_sine(t).to_bits(), "sine at {t:e}");
            let (i, q) = direct_lo(t);
            assert_eq!(
                (iq[0].to_bits(), iq[1].to_bits()),
                (i.to_bits(), q.to_bits())
            );
        }
    }

    #[test]
    fn vco_frequency_tracks_input() {
        let mut vco = Vco::new(100.0, 50.0, 1.0);
        // vin = 1 -> 150 Hz: count rising zero crossings over 1 s.
        let fs = 100e3;
        let dt = 1.0 / fs;
        let mut out = [0.0];
        let mut prev = 0.0;
        let mut crossings = 0;
        for k in 0..(fs as usize) {
            vco.tick(k as f64 * dt, dt, &[1.0], &mut out);
            if prev <= 0.0 && out[0] > 0.0 {
                crossings += 1;
            }
            prev = out[0];
        }
        assert!((crossings as f64 - 150.0).abs() <= 1.0, "{crossings}");
    }
}
