//! Spectral measurements on behavioral traces.

use crate::error::Result;
use crate::probe::Trace;
use ahfic_num::db::to_db_power;
use ahfic_num::fft::real_spectrum;
use ahfic_num::goertzel;
use ahfic_num::window::Window;

/// Power (mean square) of the tone at `f` in signal `net`, using the
/// trailing `tail_frac` of the record (settling skipped).
///
/// # Errors
///
/// Propagates missing-signal errors.
pub fn tone_power(trace: &Trace, net: &str, f: f64, tail_frac: f64) -> Result<f64> {
    let y = trace.tail(net, tail_frac)?;
    Ok(goertzel::tone_power(y, trace.fs(), f))
}

/// Power ratio `P(f_num) / P(f_den)` in dB for the same signal — e.g. the
/// image rejection ratio when the two powers come from separate runs is
/// usually computed with [`power_ratio_db`] instead.
///
/// # Errors
///
/// Propagates missing-signal errors.
pub fn tone_ratio_db(
    trace: &Trace,
    net: &str,
    f_num: f64,
    f_den: f64,
    tail_frac: f64,
) -> Result<f64> {
    let pn = tone_power(trace, net, f_num, tail_frac)?;
    let pd = tone_power(trace, net, f_den, tail_frac)?;
    Ok(to_db_power(pn / pd))
}

/// Ratio of two powers in dB (`10 log10(p1/p2)`).
pub fn power_ratio_db(p1: f64, p2: f64) -> f64 {
    to_db_power(p1 / p2)
}

/// Windowed amplitude spectrum of a recorded net: returns
/// `(freqs_hz, amplitude)` with the window's coherent gain compensated.
///
/// # Errors
///
/// Propagates missing-signal errors.
pub fn spectrum(trace: &Trace, net: &str, window: Window) -> Result<(Vec<f64>, Vec<f64>)> {
    let y = trace.signal(net)?;
    let tapered = window.apply(y);
    let (freqs, mut amps) = real_spectrum(&tapered, trace.fs());
    let g = window.coherent_gain(y.len());
    for a in &mut amps {
        *a /= g;
    }
    Ok((freqs, amps))
}

/// Finds spectral peaks above `min_amplitude`, returning `(freq, amp)`
/// pairs sorted by descending amplitude. A peak is a local maximum over
/// its immediate neighbours.
pub fn peaks(freqs: &[f64], amps: &[f64], min_amplitude: f64) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    for k in 1..amps.len().saturating_sub(1) {
        if amps[k] >= min_amplitude && amps[k] > amps[k - 1] && amps[k] >= amps[k + 1] {
            out.push((freqs[k], amps[k]));
        }
    }
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Trace;
    use std::f64::consts::PI;

    fn tone_trace(fs: f64, comps: &[(f64, f64)], n: usize) -> Trace {
        let x: Vec<f64> = (0..n)
            .map(|k| {
                let tt = k as f64 / fs;
                comps
                    .iter()
                    .map(|&(f, a)| a * (2.0 * PI * f * tt).sin())
                    .sum()
            })
            .collect();
        let mut t = Trace::with_capacity(fs, &["x".into()], n);
        t.push_frame(n, std::iter::once(&x[..]));
        t
    }

    #[test]
    fn tone_power_of_unit_sine() {
        let t = tone_trace(1e3, &[(50.0, 1.0)], 2000);
        let p = tone_power(&t, "x", 50.0, 1.0).unwrap();
        assert!((p - 0.5).abs() < 1e-9);
    }

    #[test]
    fn ratio_db_between_tones() {
        let t = tone_trace(1e4, &[(100.0, 1.0), (300.0, 0.1)], 10000);
        let r = tone_ratio_db(&t, "x", 100.0, 300.0, 1.0).unwrap();
        assert!((r - 20.0).abs() < 0.05, "r = {r}");
        assert!((power_ratio_db(1.0, 0.01) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn spectrum_recovers_amplitude_with_window() {
        let fs = 4096.0;
        let t = tone_trace(fs, &[(256.0, 0.7)], 4096);
        let (freqs, amps) = spectrum(&t, "x", Window::Hann).unwrap();
        let k = freqs.iter().position(|&f| (f - 256.0).abs() < 0.6).unwrap();
        assert!((amps[k] - 0.7).abs() < 0.02, "amp = {}", amps[k]);
    }

    #[test]
    fn peaks_found_and_sorted() {
        let fs = 4096.0;
        let t = tone_trace(fs, &[(256.0, 1.0), (512.0, 0.5)], 4096);
        let (freqs, amps) = spectrum(&t, "x", Window::Hann).unwrap();
        let pk = peaks(&freqs, &amps, 0.1);
        assert!(pk.len() >= 2);
        assert!((pk[0].0 - 256.0).abs() < 2.0);
        assert!((pk[1].0 - 512.0).abs() < 2.0);
        assert!(pk[0].1 > pk[1].1);
    }
}
