//! Arithmetic building blocks: gains, sums, multipliers (mixer cores).

use crate::block::Block;

/// `y = k * x` — an ideal amplifier/attenuator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Gain {
    /// Multiplier.
    pub k: f64,
}

impl Gain {
    /// Creates a gain block.
    pub fn new(k: f64) -> Self {
        Gain { k }
    }

    /// Creates a gain from a dB (amplitude) value.
    pub fn from_db(db: f64) -> Self {
        Gain {
            k: 10f64.powf(db / 20.0),
        }
    }

    #[inline]
    fn sample(&self, x: f64) -> f64 {
        self.k * x
    }
}

impl Block for Gain {
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
        "gain"
    }
}

/// `y = sum(w_i * x_i)` — weighted adder with fixed fan-in.
#[derive(Clone, Debug, PartialEq)]
pub struct Adder {
    weights: Vec<f64>,
}

impl Adder {
    /// A plain `n`-input adder (all weights 1).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "adder needs at least one input");
        Adder {
            weights: vec![1.0; n],
        }
    }

    /// An adder with explicit weights (e.g. `[1.0, -1.0]` = subtractor).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    pub fn weighted(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "adder needs at least one input");
        Adder { weights }
    }

    /// The weighted sum of sample `j` of port-major inputs `stride`
    /// samples long.
    #[inline]
    fn sum_at(&self, inputs: &[f64], stride: usize, j: usize) -> f64 {
        self.weights
            .iter()
            .enumerate()
            .map(|(p, w)| w * inputs[p * stride + j])
            .sum()
    }
}

impl Block for Adder {
    fn num_inputs(&self) -> usize {
        self.weights.len()
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn tick(&mut self, _t: f64, _dt: f64, inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = self.sum_at(inputs, 1, 0);
    }
    fn tick_frame(&mut self, _k0: usize, n: usize, _dt: f64, inputs: &[f64], outputs: &mut [f64]) {
        for (j, y) in outputs.iter_mut().enumerate() {
            *y = self.sum_at(inputs, n, j);
        }
    }
    fn reset(&mut self) {}
    fn kind(&self) -> &str {
        "adder"
    }
}

/// `y = k * a * b` — an ideal multiplying mixer core. `k` is the
/// conversion gain.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mixer {
    /// Conversion gain.
    pub k: f64,
}

impl Mixer {
    /// Creates a mixer with conversion gain `k`.
    pub fn new(k: f64) -> Self {
        Mixer { k }
    }

    #[inline]
    fn sample(&self, a: f64, b: f64) -> f64 {
        self.k * a * b
    }
}

impl Block for Mixer {
    fn num_inputs(&self) -> usize {
        2
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn tick(&mut self, _t: f64, _dt: f64, inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = self.sample(inputs[0], inputs[1]);
    }
    fn tick_frame(&mut self, _k0: usize, n: usize, _dt: f64, inputs: &[f64], outputs: &mut [f64]) {
        let (a, b) = inputs.split_at(n);
        for ((y, &a), &b) in outputs.iter_mut().zip(a).zip(b) {
            *y = self.sample(a, b);
        }
    }
    fn reset(&mut self) {}
    fn kind(&self) -> &str {
        "mixer"
    }
}

/// Constant output (DC level / bias source).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Constant {
    /// Output level.
    pub level: f64,
}

impl Constant {
    /// Creates a constant source.
    pub fn new(level: f64) -> Self {
        Constant { level }
    }
}

impl Block for Constant {
    fn num_inputs(&self) -> usize {
        0
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn tick(&mut self, _t: f64, _dt: f64, _inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = self.level;
    }
    fn tick_frame(
        &mut self,
        _k0: usize,
        _n: usize,
        _dt: f64,
        _inputs: &[f64],
        outputs: &mut [f64],
    ) {
        outputs.fill(self.level);
    }
    fn reset(&mut self) {}
    fn kind(&self) -> &str {
        "constant"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_scales() {
        let mut g = Gain::new(3.0);
        let mut out = [0.0];
        g.tick(0.0, 1.0, &[2.0], &mut out);
        assert_eq!(out[0], 6.0);
    }

    #[test]
    fn gain_from_db() {
        assert!((Gain::from_db(20.0).k - 10.0).abs() < 1e-12);
        assert!((Gain::from_db(-6.0206).k - 0.5).abs() < 1e-4);
    }

    #[test]
    fn adder_sums_with_weights() {
        let mut a = Adder::weighted(vec![1.0, -2.0, 0.5]);
        let mut out = [0.0];
        a.tick(0.0, 1.0, &[1.0, 1.0, 4.0], &mut out);
        assert_eq!(out[0], 1.0);
        assert_eq!(a.num_inputs(), 3);
    }

    #[test]
    fn mixer_multiplies() {
        let mut m = Mixer::new(0.5);
        let mut out = [0.0];
        m.tick(0.0, 1.0, &[4.0, 3.0], &mut out);
        assert_eq!(out[0], 6.0);
    }

    #[test]
    fn constant_has_no_inputs() {
        let mut c = Constant::new(1.5);
        let mut out = [0.0];
        c.tick(0.0, 1.0, &[], &mut out);
        assert_eq!(out[0], 1.5);
        assert_eq!(c.num_inputs(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn zero_input_adder_panics() {
        let _ = Adder::new(0);
    }
}
