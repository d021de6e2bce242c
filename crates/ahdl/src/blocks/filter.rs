//! Discrete-time filters: biquad sections, Butterworth low-pass design,
//! and cascaded band-pass chains for IF selectivity.
//!
//! All filters are sample-rate-aware: they are designed against the
//! system's fixed step (`fs = 1/dt`) passed at construction.

use crate::block::Block;
use std::f64::consts::PI;

/// A direct-form-II-transposed biquad section
/// `H(z) = (b0 + b1 z^-1 + b2 z^-2) / (1 + a1 z^-1 + a2 z^-2)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Biquad {
    /// Numerator coefficients.
    pub b: [f64; 3],
    /// Denominator coefficients (a0 normalized to 1; `a[0]` is a1).
    pub a: [f64; 2],
    s1: f64,
    s2: f64,
}

impl Biquad {
    /// Creates a section from raw coefficients.
    pub fn from_coeffs(b: [f64; 3], a: [f64; 2]) -> Self {
        Biquad {
            b,
            a,
            s1: 0.0,
            s2: 0.0,
        }
    }

    /// Identity (pass-through) section.
    pub fn identity() -> Self {
        Biquad::from_coeffs([1.0, 0.0, 0.0], [0.0, 0.0])
    }

    /// RBJ constant-peak-gain band-pass section at `f0` with quality `Q`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < f0 < fs/2` and `q > 0`.
    pub fn bandpass(f0: f64, q: f64, fs: f64) -> Self {
        assert!(f0 > 0.0 && f0 < fs / 2.0, "f0 must be below Nyquist");
        assert!(q > 0.0, "Q must be positive");
        let w0 = 2.0 * PI * f0 / fs;
        let alpha = w0.sin() / (2.0 * q);
        let a0 = 1.0 + alpha;
        Biquad::from_coeffs(
            [alpha / a0, 0.0, -alpha / a0],
            [-2.0 * w0.cos() / a0, (1.0 - alpha) / a0],
        )
    }

    /// RBJ low-pass section at `fc` with quality `Q`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fc < fs/2` and `q > 0`.
    pub fn lowpass(fc: f64, q: f64, fs: f64) -> Self {
        assert!(fc > 0.0 && fc < fs / 2.0, "fc must be below Nyquist");
        assert!(q > 0.0, "Q must be positive");
        let w0 = 2.0 * PI * fc / fs;
        let alpha = w0.sin() / (2.0 * q);
        let cw = w0.cos();
        let a0 = 1.0 + alpha;
        Biquad::from_coeffs(
            [
                (1.0 - cw) / 2.0 / a0,
                (1.0 - cw) / a0,
                (1.0 - cw) / 2.0 / a0,
            ],
            [-2.0 * cw / a0, (1.0 - alpha) / a0],
        )
    }

    /// Processes one sample.
    #[inline]
    pub fn step(&mut self, x: f64) -> f64 {
        let y = self.b[0] * x + self.s1;
        self.s1 = self.b[1] * x - self.a[0] * y + self.s2;
        self.s2 = self.b[2] * x - self.a[1] * y;
        y
    }

    /// Clears the delay line.
    pub fn clear(&mut self) {
        self.s1 = 0.0;
        self.s2 = 0.0;
    }

    /// Complex frequency response at `f` given sample rate `fs`.
    pub fn response(&self, f: f64, fs: f64) -> ahfic_num::Complex {
        use ahfic_num::Complex;
        let z1 = Complex::from_polar(1.0, -2.0 * PI * f / fs);
        let z2 = z1 * z1;
        let num = Complex::from_re(self.b[0]) + z1 * self.b[1] + z2 * self.b[2];
        let den = Complex::ONE + z1 * self.a[0] + z2 * self.a[1];
        num / den
    }
}

/// A cascade of biquad sections presented as one block.
#[derive(Clone, Debug, PartialEq)]
pub struct FilterChain {
    sections: Vec<Biquad>,
    label: String,
}

impl FilterChain {
    /// Wraps raw sections.
    pub fn new(sections: Vec<Biquad>, label: impl Into<String>) -> Self {
        FilterChain {
            sections,
            label: label.into(),
        }
    }

    /// Designs a Butterworth low-pass of the given order via bilinear
    /// transform with frequency prewarping.
    ///
    /// # Panics
    ///
    /// Panics unless `order >= 1` and `0 < fc < fs/2`.
    pub fn butterworth_lowpass(order: usize, fc: f64, fs: f64) -> Self {
        assert!(order >= 1, "order must be >= 1");
        assert!(fc > 0.0 && fc < fs / 2.0, "fc must be below Nyquist");
        let k = 1.0 / (PI * fc / fs).tan(); // prewarped 1/tan
        let mut sections = Vec::new();
        let pairs = order / 2;
        for m in 0..pairs {
            // Prototype pair: s^2 + 2 sin(theta) s + 1.
            let theta = PI * (2.0 * m as f64 + 1.0) / (2.0 * order as f64);
            let a1 = 2.0 * theta.sin();
            let d0 = k * k + a1 * k + 1.0;
            sections.push(Biquad::from_coeffs(
                [1.0 / d0, 2.0 / d0, 1.0 / d0],
                [2.0 * (1.0 - k * k) / d0, (k * k - a1 * k + 1.0) / d0],
            ));
        }
        if order % 2 == 1 {
            // Real pole s + 1.
            let d0 = k + 1.0;
            sections.push(Biquad::from_coeffs(
                [1.0 / d0, 1.0 / d0, 0.0],
                [(1.0 - k) / d0, 0.0],
            ));
        }
        FilterChain::new(sections, format!("butterworth-lp{order}"))
    }

    /// Synchronously tuned band-pass: `n_sections` identical RBJ
    /// band-pass biquads at `f0`, each with `Q = f0 / bandwidth`, with the
    /// cascade normalized to unity gain at `f0`.
    ///
    /// # Panics
    ///
    /// Panics unless `n_sections >= 1` and the RBJ constraints hold.
    pub fn bandpass(f0: f64, bandwidth: f64, n_sections: usize, fs: f64) -> Self {
        assert!(n_sections >= 1, "need at least one section");
        let q = f0 / bandwidth;
        let sections = vec![Biquad::bandpass(f0, q, fs); n_sections];
        FilterChain::new(sections, format!("bpf{n_sections}@{f0:.3e}"))
    }

    /// Number of biquad sections.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// True if the chain has no sections (pass-through).
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Complex response of the whole cascade at `f`.
    pub fn response(&self, f: f64, fs: f64) -> ahfic_num::Complex {
        self.sections
            .iter()
            .fold(ahfic_num::Complex::ONE, |acc, s| acc * s.response(f, fs))
    }

    /// Passes one sample through every section in turn.
    #[inline]
    fn step(&mut self, x: f64) -> f64 {
        self.sections.iter_mut().fold(x, |x, s| s.step(x))
    }
}

impl Block for FilterChain {
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
        for s in &mut self.sections {
            s.clear();
        }
    }
    fn kind(&self) -> &str {
        &self.label
    }
}

/// First-order low-pass `H(s) = 1/(1 + s/w0)` discretized by bilinear
/// transform.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FirstOrderLp {
    section: Biquad,
}

impl FirstOrderLp {
    /// Creates a first-order low-pass with -3 dB corner `fc`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fc < fs/2`.
    pub fn new(fc: f64, fs: f64) -> Self {
        assert!(fc > 0.0 && fc < fs / 2.0);
        let k = 1.0 / (PI * fc / fs).tan();
        let d0 = k + 1.0;
        FirstOrderLp {
            section: Biquad::from_coeffs([1.0 / d0, 1.0 / d0, 0.0], [(1.0 - k) / d0, 0.0]),
        }
    }
}

impl Block for FirstOrderLp {
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn tick(&mut self, _t: f64, _dt: f64, inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = self.section.step(inputs[0]);
    }
    fn tick_frame(&mut self, _k0: usize, _n: usize, _dt: f64, inputs: &[f64], outputs: &mut [f64]) {
        for (y, &x) in outputs.iter_mut().zip(inputs) {
            *y = self.section.step(x);
        }
    }
    fn reset(&mut self) {
        self.section.clear();
    }
    fn kind(&self) -> &str {
        "lp1"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mag(chain: &FilterChain, f: f64, fs: f64) -> f64 {
        chain.response(f, fs).abs()
    }

    #[test]
    fn butterworth_lp_corner_is_3db() {
        let fs = 1e6;
        for order in [1usize, 2, 3, 4, 5] {
            let ch = FilterChain::butterworth_lowpass(order, 50e3, fs);
            let g = mag(&ch, 50e3, fs);
            assert!(
                (g - 1.0 / 2.0f64.sqrt()).abs() < 1e-3,
                "order {order}: corner gain {g}"
            );
            assert!((mag(&ch, 1e3, fs) - 1.0).abs() < 1e-3, "passband");
        }
    }

    #[test]
    fn butterworth_rolloff_scales_with_order() {
        let fs = 1e6;
        // One decade above corner: expect ~ -20*order dB.
        for order in [1usize, 2, 4] {
            let ch = FilterChain::butterworth_lowpass(order, 10e3, fs);
            let g_db = 20.0 * mag(&ch, 100e3, fs).log10();
            let expect = -20.0 * order as f64;
            assert!(
                (g_db - expect).abs() < 2.0,
                "order {order}: {g_db} dB vs {expect}"
            );
        }
    }

    #[test]
    fn bandpass_peaks_at_center_and_rejects_elsewhere() {
        let fs = 10e9;
        let ch = FilterChain::bandpass(1.3e9, 100e6, 3, fs);
        let g0 = mag(&ch, 1.3e9, fs);
        assert!((g0 - 1.0).abs() < 1e-9, "center gain {g0}");
        assert!(mag(&ch, 0.9e9, fs) < 0.02);
        assert!(mag(&ch, 1.7e9, fs) < 0.02);
    }

    #[test]
    fn bandpass_time_domain_matches_response() {
        let fs = 1e9;
        let f0 = 45e6;
        let mut ch = FilterChain::bandpass(f0, 10e6, 2, fs);
        // Drive with a tone at f0, measure output amplitude after settle.
        let dt = 1.0 / fs;
        let mut out = [0.0];
        let mut peak = 0.0f64;
        for kk in 0..20000 {
            let t = kk as f64 * dt;
            ch.tick(t, dt, &[(2.0 * PI * f0 * t).sin()], &mut out);
            if kk > 15000 {
                peak = peak.max(out[0].abs());
            }
        }
        assert!((peak - 1.0).abs() < 0.02, "peak = {peak}");
    }

    #[test]
    fn first_order_lp_dc_gain_unity() {
        let fs = 1e6;
        let mut lp = FirstOrderLp::new(1e3, fs);
        let mut out = [0.0];
        for k in 0..20000 {
            lp.tick(k as f64 / fs, 1.0 / fs, &[1.0], &mut out);
        }
        assert!((out[0] - 1.0).abs() < 1e-6);
        lp.reset();
        lp.tick(0.0, 1.0 / fs, &[1.0], &mut out);
        assert!(out[0] < 0.1, "state cleared");
    }

    #[test]
    fn biquad_identity_passes_through() {
        let mut b = Biquad::identity();
        assert_eq!(b.step(3.25), 3.25);
        assert_eq!(b.step(-1.0), -1.0);
    }

    #[test]
    #[should_panic(expected = "Nyquist")]
    fn rejects_supersonic_corner() {
        let _ = FilterChain::butterworth_lowpass(2, 6e5, 1e6);
    }
}
