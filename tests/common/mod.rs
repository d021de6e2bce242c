//! Helpers shared by the integration tests that compare waveforms.

use ahfic_num::Complex;
use ahfic_spice::wave::Waveform;

/// Linear interpolation of an (irregularly sampled) transient signal.
pub fn sample_at(ts: &[f64], ys: &[f64], t: f64) -> f64 {
    let i = ts.partition_point(|&x| x < t).clamp(1, ts.len() - 1);
    let (t0, t1) = (ts[i - 1], ts[i]);
    let frac = if t1 > t0 {
        ((t - t0) / (t1 - t0)).clamp(0.0, 1.0)
    } else {
        0.0
    };
    ys[i - 1] + frac * (ys[i] - ys[i - 1])
}

/// Fundamental phasor of `signal` over `[t_start, t_end]` by
/// trapezoidal Fourier projection at `freq` (the window must hold an
/// integer number of cycles for this to be leakage-free).
pub fn fundamental_phasor(
    wave: &Waveform,
    signal: &str,
    freq: f64,
    t_start: f64,
    t_end: f64,
) -> Complex {
    let ts = wave.axis();
    let ys = wave.signal(signal).expect("signal exists");
    let w = 2.0 * std::f64::consts::PI * freq;
    let f = |t: f64| {
        let y = sample_at(ts, ys, t);
        Complex::new(y * (w * t).cos(), -y * (w * t).sin())
    };
    // Integrate on the union of the window edges and the samples inside.
    let mut acc = Complex::new(0.0, 0.0);
    let mut prev_t = t_start;
    let mut prev_f = f(t_start);
    for &t in ts.iter().filter(|&&t| t > t_start && t < t_end) {
        let cur = f(t);
        acc += (prev_f + cur).scale(0.5 * (t - prev_t));
        prev_t = t;
        prev_f = cur;
    }
    let end = f(t_end);
    acc += (prev_f + end).scale(0.5 * (t_end - prev_t));
    acc.scale(2.0 / (t_end - t_start))
}
