//! Single-bin DFT (Goertzel-style) tone measurement.
//!
//! Tone-power measurements (image-rejection ratio, harmonic distortion)
//! need the complex amplitude of a signal at one *known* frequency that is
//! generally not on an FFT bin grid. Direct correlation against
//! `exp(-j*2*pi*f*t)` over an integer number of cycles is exact for that
//! job and cheaper than a padded FFT, so that is what this module does.

use crate::Complex;
use std::f64::consts::PI;

/// Complex amplitude of the component of `signal` at frequency `f` (Hz),
/// sampled at `fs`.
///
/// Uses direct correlation over the longest prefix of `signal` covering an
/// integer number of periods of `f` (falling back to the whole signal if
/// less than one period fits). A pure tone `A*sin(2*pi*f*t + phi)` returns
/// a complex value with magnitude `A`.
///
/// # Panics
///
/// Panics if `signal` is empty or `fs <= 0`.
pub fn tone_amplitude(signal: &[f64], fs: f64, f: f64) -> Complex {
    tone_amplitudes(&[signal], fs, f)[0]
}

/// [`tone_amplitude`] of each signal at the same frequency, in one pass
/// that computes each twiddle factor once for all signals. Each result
/// is bitwise equal to [`tone_amplitude`] of that signal alone, whatever
/// the signal lengths.
///
/// # Panics
///
/// Panics if any signal is empty or `fs <= 0`.
pub fn tone_amplitudes(signals: &[&[f64]], fs: f64, f: f64) -> Vec<Complex> {
    assert!(signals.iter().all(|s| !s.is_empty()), "empty signal");
    assert!(fs > 0.0, "sample rate must be positive");
    let lens: Vec<usize> = signals
        .iter()
        .map(|s| integer_period_len(s.len(), fs, f))
        .collect();
    let w = 2.0 * PI * f / fs;
    let mut acc = vec![Complex::ZERO; signals.len()];
    for k in 0..lens.iter().copied().max().unwrap_or(0) {
        let twiddle = Complex::from_polar(1.0, -w * k as f64);
        for ((a, s), &n) in acc.iter_mut().zip(signals).zip(&lens) {
            if k < n {
                *a += twiddle * s[k];
            }
        }
    }
    // 2/N scaling recovers the amplitude of a real sinusoid.
    acc.iter()
        .zip(&lens)
        .map(|(&a, &n)| a * (2.0 / n as f64))
        .collect()
}

/// Power (mean square) of the component of `signal` at frequency `f`.
///
/// For a sine of amplitude `A` this returns `A^2 / 2`.
pub fn tone_power(signal: &[f64], fs: f64, f: f64) -> f64 {
    let a = tone_amplitude(signal, fs, f);
    a.norm_sqr() / 2.0
}

/// RMS of the component at `f`.
pub fn tone_rms(signal: &[f64], fs: f64, f: f64) -> f64 {
    tone_power(signal, fs, f).sqrt()
}

/// Longest prefix length covering an integer number of periods of `f`.
///
/// Using an integer number of cycles removes spectral leakage without any
/// window. If `f == 0` the full length is used (DC average).
fn integer_period_len(len: usize, fs: f64, f: f64) -> usize {
    if f <= 0.0 {
        return len;
    }
    let samples_per_period = fs / f;
    // Round rather than floor the period count, then back off until the
    // window fits: floor alone can land on 119.999999 periods and truncate
    // mid-cycle, leaking fundamental energy into every harmonic bin.
    let mut periods = (len as f64 / samples_per_period).round();
    while periods >= 1.0 && (periods * samples_per_period).round() as usize > len {
        periods -= 1.0;
    }
    if periods < 1.0 {
        len
    } else {
        ((periods * samples_per_period).round() as usize).clamp(1, len)
    }
}

/// Mean (DC component) of a signal.
pub fn dc(signal: &[f64]) -> f64 {
    if signal.is_empty() {
        return 0.0;
    }
    signal.iter().sum::<f64>() / signal.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(fs: f64, f: f64, a: f64, phi: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|k| a * (2.0 * PI * f * k as f64 / fs + phi).sin())
            .collect()
    }

    #[test]
    fn recovers_amplitude_on_grid() {
        let sig = sine(1000.0, 50.0, 2.0, 0.3, 1000);
        let a = tone_amplitude(&sig, 1000.0, 50.0);
        assert!((a.abs() - 2.0).abs() < 1e-10);
    }

    #[test]
    fn recovers_amplitude_off_grid() {
        // 47.3 Hz is not on any FFT grid for n=5000, but integer-cycle
        // truncation keeps the estimate tight.
        let sig = sine(1000.0, 47.3, 1.5, 1.1, 5000);
        let a = tone_amplitude(&sig, 1000.0, 47.3);
        assert!((a.abs() - 1.5).abs() < 1e-3, "got {}", a.abs());
    }

    #[test]
    fn rejects_orthogonal_tone() {
        let sig = sine(1000.0, 100.0, 1.0, 0.0, 2000);
        let p = tone_power(&sig, 1000.0, 50.0);
        assert!(p < 1e-20);
    }

    #[test]
    fn power_of_unit_sine_is_half() {
        let sig = sine(8000.0, 400.0, 1.0, 0.0, 8000);
        assert!((tone_power(&sig, 8000.0, 400.0) - 0.5).abs() < 1e-10);
        assert!((tone_rms(&sig, 8000.0, 400.0) - 0.5f64.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn separates_two_tones() {
        let fs = 10_000.0;
        let mut sig = sine(fs, 500.0, 1.0, 0.0, 10_000);
        let t2 = sine(fs, 1500.0, 0.25, 0.7, 10_000);
        for (a, b) in sig.iter_mut().zip(t2.iter()) {
            *a += b;
        }
        assert!((tone_amplitude(&sig, fs, 500.0).abs() - 1.0).abs() < 1e-9);
        assert!((tone_amplitude(&sig, fs, 1500.0).abs() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn one_pass_over_many_signals_matches_one_call_per_signal() {
        let fs = 1000.0;
        let a = sine(fs, 50.0, 2.0, 0.3, 1000);
        let b = sine(fs, 50.0, 0.7, 1.1, 1000);
        // 620 samples hold 29 whole periods of 47.3 Hz in 613.
        let short = sine(fs, 47.3, 1.5, 0.2, 620);
        let long = sine(fs, 47.3, 0.4, 2.0, 5000);
        for (f, signals) in [(50.0, [&a[..], &b[..]]), (47.3, [&short[..], &long[..]])] {
            let joint = tone_amplitudes(&signals, fs, f);
            assert_eq!(joint.len(), 2);
            for (z, s) in joint.iter().zip(signals) {
                let alone = tone_amplitude(s, fs, f);
                assert_eq!(z.re.to_bits(), alone.re.to_bits());
                assert_eq!(z.im.to_bits(), alone.im.to_bits());
            }
        }
        assert!(tone_amplitudes(&[], fs, 50.0).is_empty());
    }

    #[test]
    fn dc_average() {
        assert_eq!(dc(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(dc(&[]), 0.0);
    }

    #[test]
    fn phase_is_meaningful() {
        // sin with phi=0 correlated against exp(-jwt): amplitude phase
        // should track added phase offsets.
        let a0 = tone_amplitude(&sine(1000.0, 50.0, 1.0, 0.0, 1000), 1000.0, 50.0);
        let a1 = tone_amplitude(&sine(1000.0, 50.0, 1.0, 0.5, 1000), 1000.0, 50.0);
        let dphi = (a1.arg() - a0.arg() - 0.5).abs();
        assert!(dphi < 1e-9 || (dphi - 2.0 * PI).abs() < 1e-9);
    }
}
