//! Built-in behavioral block library: arithmetic, oscillators, filters,
//! phase shifters, noise and static nonlinearities.

pub mod arith;
pub mod filter;
pub mod noise;
pub mod nonlin;
pub mod osc;
pub mod phase;

pub use arith::{Adder, Constant, Gain, Mixer};
pub use filter::{Biquad, FilterChain, FirstOrderLp};
pub use noise::GaussianNoise;
pub use nonlin::{HardLimiter, Polynomial, SoftLimiter};
pub use osc::{QuadratureLo, SineSource, Vco};
pub use phase::{ImpairedShifter90, PhaseShifter90};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::eval::CompiledModule;

    const FS: f64 = 1e9;
    const N: usize = 700;

    /// A deterministic, sign-changing input sample of port `p`.
    fn input(p: usize, k: usize) -> f64 {
        (1.0 + p as f64) * ((7 * k + 13 * p) as f64 * 0.37).sin()
    }

    /// `tick_frame` over frames of 1, 3, 256, 0 and 440 samples, each
    /// resuming where the last stopped, gives the outputs of one `tick`
    /// per sample bit for bit.
    fn assert_frames_match_ticks(make: impl Fn() -> Box<dyn Block>) {
        let dt = 1.0 / FS;
        let mut ticked = make();
        let (ni, no) = (ticked.num_inputs(), ticked.num_outputs());
        let mut want = vec![0.0; no * N];
        let (mut x, mut y) = (vec![0.0; ni], vec![0.0; no]);
        for k in 0..N {
            for (p, xp) in x.iter_mut().enumerate() {
                *xp = input(p, k);
            }
            ticked.tick(k as f64 * dt, dt, &x, &mut y);
            for (p, &yp) in y.iter().enumerate() {
                want[p * N + k] = yp;
            }
        }
        let mut framed = make();
        let mut k0 = 0;
        for n in [1, 3, 256, 0, 440] {
            let xs: Vec<f64> = (0..ni)
                .flat_map(|p| (k0..k0 + n).map(move |k| input(p, k)))
                .collect();
            let mut ys = vec![0.0; no * n];
            framed.tick_frame(k0, n, dt, &xs, &mut ys);
            for p in 0..no {
                for j in 0..n {
                    assert_eq!(
                        ys[p * n + j].to_bits(),
                        want[p * N + k0 + j].to_bits(),
                        "{} output {p} at sample {}",
                        framed.kind(),
                        k0 + j
                    );
                }
            }
            k0 += n;
        }
        assert_eq!(k0, N);
    }

    #[test]
    fn every_builtin_frame_matches_its_ticks() {
        assert_frames_match_ticks(|| Box::new(Gain::new(1.7)));
        assert_frames_match_ticks(|| Box::new(Adder::weighted(vec![1.0, -2.0, 0.5])));
        assert_frames_match_ticks(|| Box::new(Mixer::new(0.8)));
        assert_frames_match_ticks(|| Box::new(Constant::new(0.3)));
        assert_frames_match_ticks(|| Box::new(FilterChain::bandpass(45e6, 10e6, 2, FS)));
        assert_frames_match_ticks(|| Box::new(FilterChain::butterworth_lowpass(3, 50e6, FS)));
        assert_frames_match_ticks(|| Box::new(FirstOrderLp::new(20e6, FS)));
        assert_frames_match_ticks(|| Box::new(GaussianNoise::new(0.5, 3)));
        assert_frames_match_ticks(|| Box::new(HardLimiter::new(0.6)));
        assert_frames_match_ticks(|| Box::new(SoftLimiter::new(0.7)));
        assert_frames_match_ticks(|| Box::new(Polynomial::new(1.0, 0.2, -0.1)));
        assert_frames_match_ticks(|| {
            Box::new(SineSource {
                freq: 37e6,
                ampl: 1.3,
                phase: 0.4,
                offset: 0.1,
            })
        });
        assert_frames_match_ticks(|| Box::new(QuadratureLo::new(1e8, 0.9).with_errors(0.03, 2.0)));
        assert_frames_match_ticks(|| Box::new(Vco::new(20e6, 5e6, 1.0)));
        assert_frames_match_ticks(|| Box::new(PhaseShifter90::new(45e6, FS)));
        assert_frames_match_ticks(|| Box::new(ImpairedShifter90::new(45e6, FS, 3.0, 0.02)));
    }

    #[test]
    fn default_frame_of_a_compiled_module_matches_its_ticks() {
        let m = CompiledModule::compile(
            "module m(x, y) { input x; output y;
             analog { V(y) <- idt(V(x), 0.5) + delay(V(x), 2e-9); } }",
        )
        .unwrap();
        assert_frames_match_ticks(|| Box::new(m.instantiate(&[]).unwrap()));
    }
}
