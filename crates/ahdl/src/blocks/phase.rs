//! Phase-shift blocks: the 90° shifter at the heart of the image
//! rejection mixer (paper Fig. 4), plus an adjustable-error variant used
//! to sweep Fig. 5.

use crate::block::Block;
use std::f64::consts::PI;

/// First-order digital all-pass `H(z) = (z^-1 - a)/(1 - a z^-1)` tuned so
/// the phase shift at `f0` is exactly **-90°**, with unity magnitude at
/// all frequencies — the behavioral model of the RC-CR phase shifters
/// used in IF paths.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseShifter90 {
    a: f64,
    z: f64,
    /// Design frequency (Hz).
    pub f0: f64,
}

impl PhaseShifter90 {
    /// Creates a -90°@`f0` all-pass for sample rate `fs`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < f0 < fs/2`.
    pub fn new(f0: f64, fs: f64) -> Self {
        assert!(f0 > 0.0 && f0 < fs / 2.0, "f0 must be below Nyquist");
        let t = (PI * f0 / fs).tan();
        PhaseShifter90 {
            a: (1.0 - t) / (1.0 + t),
            z: 0.0,
            f0,
        }
    }

    /// Phase response (radians) at frequency `f`.
    pub fn phase_at(&self, f: f64, fs: f64) -> f64 {
        use ahfic_num::Complex;
        let z1 = Complex::from_polar(1.0, -2.0 * PI * f / fs);
        let h = (z1 - self.a) / (Complex::ONE - z1 * self.a);
        h.arg()
    }

    /// Processes one sample.
    #[inline]
    fn step(&mut self, x: f64) -> f64 {
        // DF-II all-pass: y[n] = -a*x[n] + x[n-1] + a*y[n-1]; store the
        // combined state z = x[n-1] + a*y[n-1].
        let y = -self.a * x + self.z;
        self.z = x + self.a * y;
        y
    }
}

impl Block for PhaseShifter90 {
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn tick(&mut self, _t: f64, _dt: f64, inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = self.step(inputs[0]);
    }
    fn tick_frame(&mut self, _k0: usize, _n: usize, _dt: f64, inputs: &[f64], outputs: &mut [f64]) {
        for (y, &x) in outputs.iter_mut().zip(inputs) {
            *y = self.step(x);
        }
    }
    fn reset(&mut self) {
        self.z = 0.0;
    }
    fn kind(&self) -> &str {
        "phase90"
    }
}

/// A 90° shifter with deliberate impairments: phase error (degrees away
/// from -90° at `f0`) and fractional gain error. Implemented as the ideal
/// all-pass followed by a scaled phase-rotation network
/// `y = g * (cos(e) * shifted + sin(e) * direct)`, which rotates the
/// narrowband phasor at `f0` by `e` and scales it by `g = 1 + gain_err`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ImpairedShifter90 {
    inner: PhaseShifter90,
    cos_e: f64,
    sin_e: f64,
    gain: f64,
    /// Phase error in degrees.
    pub phase_err_deg: f64,
    /// Fractional gain error.
    pub gain_err: f64,
}

impl ImpairedShifter90 {
    /// Creates an impaired shifter at `f0` for sample rate `fs`.
    ///
    /// # Panics
    ///
    /// As [`PhaseShifter90::new`].
    pub fn new(f0: f64, fs: f64, phase_err_deg: f64, gain_err: f64) -> Self {
        let e = phase_err_deg.to_radians();
        ImpairedShifter90 {
            inner: PhaseShifter90::new(f0, fs),
            cos_e: e.cos(),
            sin_e: e.sin(),
            gain: 1.0 + gain_err,
            phase_err_deg,
            gain_err,
        }
    }

    /// Processes one sample.
    #[inline]
    fn step(&mut self, x: f64) -> f64 {
        // For a narrowband tone at f0: `x` is the 0° phasor and `shifted`
        // the -90° phasor; the combination below realizes -90° + e.
        let shifted = self.inner.step(x);
        self.gain * (self.cos_e * shifted + self.sin_e * x)
    }
}

impl Block for ImpairedShifter90 {
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn tick(&mut self, _t: f64, _dt: f64, inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = self.step(inputs[0]);
    }
    fn tick_frame(&mut self, _k0: usize, _n: usize, _dt: f64, inputs: &[f64], outputs: &mut [f64]) {
        for (y, &x) in outputs.iter_mut().zip(inputs) {
            *y = self.step(x);
        }
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
    fn kind(&self) -> &str {
        "phase90-impaired"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahfic_num::goertzel::tone_amplitude;

    /// Runs a block on a tone and returns (amplitude, phase shift in
    /// degrees relative to the input tone).
    fn tone_response(block: &mut dyn Block, f0: f64, fs: f64) -> (f64, f64) {
        let n = 40000;
        let dt = 1.0 / fs;
        let mut input = Vec::with_capacity(n);
        let mut output = Vec::with_capacity(n);
        let mut out = [0.0];
        for k in 0..n {
            let t = k as f64 * dt;
            let x = (2.0 * PI * f0 * t).sin();
            block.tick(t, dt, &[x], &mut out);
            // Skip transient.
            if k >= n / 2 {
                input.push(x);
                output.push(out[0]);
            }
        }
        let ai = tone_amplitude(&input, fs, f0);
        let ao = tone_amplitude(&output, fs, f0);
        let dphi = (ao.arg() - ai.arg()).to_degrees();
        let dphi = if dphi < -180.0 {
            dphi + 360.0
        } else if dphi > 180.0 {
            dphi - 360.0
        } else {
            dphi
        };
        (ao.abs() / ai.abs(), dphi)
    }

    #[test]
    fn ideal_shifter_is_minus_90_at_f0() {
        let fs = 1e9;
        let mut ps = PhaseShifter90::new(45e6, fs);
        let (gain, phase) = tone_response(&mut ps, 45e6, fs);
        assert!((gain - 1.0).abs() < 1e-6, "gain = {gain}");
        assert!((phase + 90.0).abs() < 0.01, "phase = {phase}");
    }

    #[test]
    fn allpass_is_unity_gain_everywhere() {
        let fs = 1e9;
        for f in [5e6, 45e6, 200e6] {
            let mut ps = PhaseShifter90::new(45e6, fs);
            let (gain, _) = tone_response(&mut ps, f, fs);
            assert!((gain - 1.0).abs() < 1e-6, "f = {f}: gain = {gain}");
        }
    }

    #[test]
    fn phase_at_matches_time_domain() {
        let fs = 1e9;
        let ps = PhaseShifter90::new(45e6, fs);
        assert!((ps.phase_at(45e6, fs).to_degrees() + 90.0).abs() < 1e-9);
    }

    #[test]
    fn impaired_shifter_applies_requested_errors() {
        let fs = 1e9;
        for (pe, ge) in [(0.0, 0.0), (3.0, 0.0), (-5.0, 0.02), (10.0, 0.09)] {
            let mut ps = ImpairedShifter90::new(45e6, fs, pe, ge);
            let (gain, phase) = tone_response(&mut ps, 45e6, fs);
            assert!(
                (gain - (1.0 + ge)).abs() < 1e-4,
                "gain err {ge}: got {gain}"
            );
            assert!(
                (phase - (-90.0 + pe)).abs() < 0.05,
                "phase err {pe}: got {phase}"
            );
        }
    }
}
