//! Oscillator sources: sine, quadrature LO with gain/phase imbalance
//! (the error knobs of the paper's Fig. 5 experiment), and a VCO.

use crate::block::Block;
use std::f64::consts::PI;

/// Ideal sine source `y = offset + a*sin(2*pi*f*t + phi)`.
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

    #[inline]
    fn sample(&self, t: f64) -> f64 {
        self.offset + self.ampl * (2.0 * PI * self.freq * t + self.phase).sin()
    }
}

impl Block for SineSource {
    fn num_inputs(&self) -> usize {
        0
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn tick(&mut self, t: f64, _dt: f64, _inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = self.sample(t);
    }
    fn tick_frame(&mut self, k0: usize, _n: usize, dt: f64, _inputs: &[f64], outputs: &mut [f64]) {
        for (j, y) in outputs.iter_mut().enumerate() {
            *y = self.sample((k0 + j) as f64 * dt);
        }
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

    /// The `(I, Q)` outputs at time `t`.
    #[inline]
    fn sample(&self, t: f64) -> (f64, f64) {
        let w = 2.0 * PI * self.freq * t;
        (
            self.ampl * w.cos(),
            self.ampl * (1.0 + self.gain_err) * (w + self.phase_err_deg.to_radians()).sin(),
        )
    }
}

impl Block for QuadratureLo {
    fn num_inputs(&self) -> usize {
        0
    }
    fn num_outputs(&self) -> usize {
        2
    }
    fn tick(&mut self, t: f64, _dt: f64, _inputs: &[f64], outputs: &mut [f64]) {
        (outputs[0], outputs[1]) = self.sample(t);
    }
    fn tick_frame(&mut self, k0: usize, n: usize, dt: f64, _inputs: &[f64], outputs: &mut [f64]) {
        let (i, q) = outputs.split_at_mut(n);
        for (j, (i, q)) in i.iter_mut().zip(q).enumerate() {
            (*i, *q) = self.sample((k0 + j) as f64 * dt);
        }
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
