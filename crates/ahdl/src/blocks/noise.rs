//! Noise sources for behavioral simulations.

use crate::block::Block;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// White Gaussian noise source with a given RMS level; reproducible via
/// an explicit seed.
#[derive(Debug)]
pub struct GaussianNoise {
    /// RMS amplitude.
    pub rms: f64,
    seed: u64,
    rng: StdRng,
    spare: Option<f64>,
}

impl GaussianNoise {
    /// Creates a seeded Gaussian noise source.
    pub fn new(rms: f64, seed: u64) -> Self {
        GaussianNoise {
            rms,
            seed,
            rng: StdRng::seed_from_u64(seed),
            spare: None,
        }
    }

    fn draw(&mut self) -> f64 {
        // Box–Muller, using both outputs.
        if let Some(v) = self.spare.take() {
            return v;
        }
        let u1: f64 = self.rng.random::<f64>().max(1e-15);
        let u2: f64 = self.rng.random();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }

    #[inline]
    fn sample(&mut self) -> f64 {
        self.rms * self.draw()
    }
}

impl Block for GaussianNoise {
    fn num_inputs(&self) -> usize {
        0
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn tick(&mut self, _t: f64, _dt: f64, _inputs: &[f64], outputs: &mut [f64]) {
        outputs[0] = self.sample();
    }
    fn tick_frame(
        &mut self,
        _k0: usize,
        _n: usize,
        _dt: f64,
        _inputs: &[f64],
        outputs: &mut [f64],
    ) {
        for y in outputs {
            *y = self.sample();
        }
    }
    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
        self.spare = None;
    }
    fn kind(&self) -> &str {
        "noise"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(n: usize, rms: f64, seed: u64) -> Vec<f64> {
        let mut src = GaussianNoise::new(rms, seed);
        let mut out = [0.0];
        (0..n)
            .map(|k| {
                src.tick(k as f64, 1.0, &[], &mut out);
                out[0]
            })
            .collect()
    }

    #[test]
    fn rms_is_calibrated() {
        let xs = collect(100_000, 2.0, 1);
        let ms = xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64;
        assert!((ms.sqrt() - 2.0).abs() < 0.05, "rms = {}", ms.sqrt());
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.05);
    }

    #[test]
    fn seeded_and_resettable() {
        let a = collect(100, 1.0, 7);
        let b = collect(100, 1.0, 7);
        assert_eq!(a, b);
        let c = collect(100, 1.0, 8);
        assert_ne!(a, c);
        let mut src = GaussianNoise::new(1.0, 7);
        let mut out = [0.0];
        src.tick(0.0, 1.0, &[], &mut out);
        let first = out[0];
        src.reset();
        src.tick(0.0, 1.0, &[], &mut out);
        assert_eq!(out[0], first);
    }
}
