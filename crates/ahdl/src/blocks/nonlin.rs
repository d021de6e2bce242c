//! Static nonlinearities: limiters and polynomial distortion (the
//! behavioral knob for tuner distortion studies).

use crate::block::Block;

/// Hard clipper `y = clamp(x, -limit, +limit)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HardLimiter {
    /// Clip level (positive).
    pub limit: f64,
}

impl HardLimiter {
    /// Creates a symmetric hard limiter.
    ///
    /// # Panics
    ///
    /// Panics unless `limit > 0`.
    pub fn new(limit: f64) -> Self {
        assert!(limit > 0.0, "limit must be positive");
        HardLimiter { limit }
    }

    #[inline]
    fn sample(&self, x: f64) -> f64 {
        x.clamp(-self.limit, self.limit)
    }
}

impl Block for HardLimiter {
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn tick(&mut self, _t: f64, _dt: f64, inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = self.sample(inputs[0]);
    }
    fn tick_frame(&mut self, _k0: usize, _n: usize, _dt: f64, inputs: &[f64], outputs: &mut [f64]) {
        for (y, &x) in outputs.iter_mut().zip(inputs) {
            *y = self.sample(x);
        }
    }
    fn reset(&mut self) {}
    fn kind(&self) -> &str {
        "limiter"
    }
}

/// Soft limiter `y = limit * tanh(x / limit)` — differentiable compression
/// typical of bipolar differential pairs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SoftLimiter {
    /// Asymptotic output level.
    pub limit: f64,
}

impl SoftLimiter {
    /// Creates a tanh soft limiter.
    ///
    /// # Panics
    ///
    /// Panics unless `limit > 0`.
    pub fn new(limit: f64) -> Self {
        assert!(limit > 0.0, "limit must be positive");
        SoftLimiter { limit }
    }

    #[inline]
    fn sample(&self, x: f64) -> f64 {
        self.limit * (x / self.limit).tanh()
    }
}

impl Block for SoftLimiter {
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn tick(&mut self, _t: f64, _dt: f64, inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = self.sample(inputs[0]);
    }
    fn tick_frame(&mut self, _k0: usize, _n: usize, _dt: f64, inputs: &[f64], outputs: &mut [f64]) {
        for (y, &x) in outputs.iter_mut().zip(inputs) {
            *y = self.sample(x);
        }
    }
    fn reset(&mut self) {}
    fn kind(&self) -> &str {
        "soft-limiter"
    }
}

/// Memoryless polynomial `y = a1 x + a2 x^2 + a3 x^3`; the standard
/// behavioral distortion model (IP2/IP3 studies).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Polynomial {
    /// Linear gain.
    pub a1: f64,
    /// Second-order coefficient.
    pub a2: f64,
    /// Third-order coefficient.
    pub a3: f64,
}

impl Polynomial {
    /// Creates a cubic polynomial nonlinearity.
    pub fn new(a1: f64, a2: f64, a3: f64) -> Self {
        Polynomial { a1, a2, a3 }
    }

    /// Input-referred third-order intercept amplitude for this
    /// polynomial: `A_ip3 = sqrt(4/3 * |a1/a3|)`. Infinite when `a3 = 0`.
    pub fn iip3_amplitude(&self) -> f64 {
        if self.a3 == 0.0 {
            f64::INFINITY
        } else {
            (4.0 / 3.0 * (self.a1 / self.a3).abs()).sqrt()
        }
    }

    #[inline]
    fn sample(&self, x: f64) -> f64 {
        self.a1 * x + self.a2 * x * x + self.a3 * x * x * x
    }
}

impl Block for Polynomial {
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn tick(&mut self, _t: f64, _dt: f64, inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = self.sample(inputs[0]);
    }
    fn tick_frame(&mut self, _k0: usize, _n: usize, _dt: f64, inputs: &[f64], outputs: &mut [f64]) {
        for (y, &x) in outputs.iter_mut().zip(inputs) {
            *y = self.sample(x);
        }
    }
    fn reset(&mut self) {}
    fn kind(&self) -> &str {
        "polynomial"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahfic_num::goertzel::tone_amplitude;
    use std::f64::consts::PI;

    #[test]
    fn hard_limiter_clips() {
        let mut l = HardLimiter::new(1.0);
        let mut out = [0.0];
        for (x, want) in [(0.3, 0.3), (4.0, 1.0), (-9.0, -1.0)] {
            l.tick(0.0, 1.0, &[x], &mut out);
            assert_eq!(out[0], want);
        }
    }

    #[test]
    fn soft_limiter_linear_for_small_signals() {
        let mut l = SoftLimiter::new(1.0);
        let mut out = [0.0];
        l.tick(0.0, 1.0, &[0.01], &mut out);
        assert!((out[0] - 0.01).abs() < 1e-6);
        l.tick(0.0, 1.0, &[100.0], &mut out);
        assert!((out[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn polynomial_generates_harmonics() {
        // y = x + 0.1 x^3 on a unit tone: HD3 = a3/4/a1 = 2.5 %.
        let mut p = Polynomial::new(1.0, 0.0, 0.1);
        let fs = 1000.0;
        let f0 = 10.0;
        let n = 1000;
        let mut y = Vec::with_capacity(n);
        let mut out = [0.0];
        for k in 0..n {
            let t = k as f64 / fs;
            p.tick(t, 1.0 / fs, &[(2.0 * PI * f0 * t).sin()], &mut out);
            y.push(out[0]);
        }
        let h1 = tone_amplitude(&y, fs, f0).abs();
        let h3 = tone_amplitude(&y, fs, 3.0 * f0).abs();
        assert!((h3 / h1 - 0.025 / 1.075).abs() < 1e-4, "hd3 = {}", h3 / h1);
    }

    #[test]
    fn iip3_formula() {
        let p = Polynomial::new(1.0, 0.0, -0.01);
        assert!((p.iip3_amplitude() - (400.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!(Polynomial::new(1.0, 0.0, 0.0)
            .iip3_amplitude()
            .is_infinite());
    }
}
