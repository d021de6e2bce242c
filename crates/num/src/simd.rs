//! Lane-parallel kernels for the batched variant engine.
//!
//! The batched solvers in [`crate::batched`] keep N circuit variants'
//! numbers side by side ("lanes") and sweep all of them through the same
//! elimination schedule. The inner loops then become elementwise
//! operations over short contiguous lane blocks, which is exactly the
//! shape SIMD units want. This module provides those kernels with
//! runtime feature dispatch:
//!
//! - AVX2 on `x86_64` when the CPU supports it,
//! - a portable scalar fallback everywhere else,
//! - an `AHFIC_SIMD=scalar` environment override so CI (and bug
//!   hunters) can force the fallback on AVX2 hardware.
//!
//! # Determinism contract
//!
//! Every kernel is **bit-identical** between the scalar and AVX2 paths.
//! That is only possible because the kernels stick to elementwise
//! operations the vector unit implements with the same IEEE-754
//! semantics as scalar code: subtract, multiply and divide. In
//! particular there is **no FMA**: `dst -= a * b` is compiled as an
//! explicit multiply followed by a subtract in both paths. No kernel
//! reduces across lanes, so no summation or max order can differ
//! between the paths either.

use crate::scalar::Scalar;
use crate::Complex;
use std::sync::OnceLock;

/// Instruction set selected for the lane kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar loops.
    Scalar,
    /// 256-bit AVX2 vectors (x86_64 only).
    Avx2,
}

/// The lane-kernel dispatch level for this process.
///
/// Detected once and cached: AVX2 if the CPU reports it, unless the
/// `AHFIC_SIMD` environment variable is set to `scalar` (any other
/// value is ignored and detection proceeds normally).
pub fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        if std::env::var("AHFIC_SIMD").as_deref() == Ok("scalar") {
            return SimdLevel::Scalar;
        }
        detect()
    })
}

#[cfg(target_arch = "x86_64")]
fn detect() -> SimdLevel {
    if std::arch::is_x86_feature_detected!("avx2") {
        SimdLevel::Avx2
    } else {
        SimdLevel::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> SimdLevel {
    SimdLevel::Scalar
}

/// `dst[i] -= a[i] * b[i]` over the common length.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn sub_mul(dst: &mut [f64], a: &[f64], b: &[f64]) {
    assert_eq!(dst.len(), a.len(), "lane length mismatch");
    assert_eq!(dst.len(), b.len(), "lane length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: AVX2 support was verified by `simd_level`.
        unsafe { sub_mul_avx2(dst, a, b) };
        return;
    }
    sub_mul_scalar(dst, a, b);
}

/// `dst[i] = num[i] / den[i]` over the common length.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn div(dst: &mut [f64], num: &[f64], den: &[f64]) {
    assert_eq!(dst.len(), num.len(), "lane length mismatch");
    assert_eq!(dst.len(), den.len(), "lane length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: AVX2 support was verified by `simd_level`.
        unsafe { div_avx2(dst, num, den) };
        return;
    }
    div_scalar(dst, num, den);
}

pub(crate) fn sub_mul_scalar(dst: &mut [f64], a: &[f64], b: &[f64]) {
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d -= x * y;
    }
}

pub(crate) fn div_scalar(dst: &mut [f64], num: &[f64], den: &[f64]) {
    for ((d, &x), &y) in dst.iter_mut().zip(num).zip(den) {
        *d = x / y;
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// # Safety
    ///
    /// Caller must ensure AVX2 is available and all slices share a length.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn sub_mul_avx2(dst: &mut [f64], a: &[f64], b: &[f64]) {
        let n = dst.len();
        let mut i = 0;
        while i + 4 <= n {
            let d = _mm256_loadu_pd(dst.as_ptr().add(i));
            let av = _mm256_loadu_pd(a.as_ptr().add(i));
            let bv = _mm256_loadu_pd(b.as_ptr().add(i));
            // Multiply then subtract — no FMA, to stay bit-identical
            // with the scalar fallback.
            let prod = _mm256_mul_pd(av, bv);
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), _mm256_sub_pd(d, prod));
            i += 4;
        }
        while i < n {
            dst[i] -= a[i] * b[i];
            i += 1;
        }
    }

    /// # Safety
    ///
    /// Caller must ensure AVX2 is available and all slices share a length.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn div_avx2(dst: &mut [f64], num: &[f64], den: &[f64]) {
        let n = dst.len();
        let mut i = 0;
        while i + 4 <= n {
            let nv = _mm256_loadu_pd(num.as_ptr().add(i));
            let dv = _mm256_loadu_pd(den.as_ptr().add(i));
            _mm256_storeu_pd(dst.as_mut_ptr().add(i), _mm256_div_pd(nv, dv));
            i += 4;
        }
        while i < n {
            dst[i] = num[i] / den[i];
            i += 1;
        }
    }
}

#[cfg(target_arch = "x86_64")]
use avx2::{div_avx2, sub_mul_avx2};

/// Elementwise lane operations a scalar type must provide so the
/// batched LU sweeps can run over it.
///
/// The `f64` implementation dispatches to the SIMD kernels above; the
/// [`Complex`] implementation uses plain loops (a complex multiply is
/// not a single vector op, and the AC solves are dominated by assembly
/// anyway). Both obey the same arithmetic contract: multiply **then**
/// subtract, no fused operations.
pub trait LaneKernels: Scalar {
    /// `dst[i] -= a[i] * b[i]`.
    fn lanes_sub_mul(dst: &mut [Self], a: &[Self], b: &[Self]);

    /// `dst[i] = num[i] / den[i]`.
    fn lanes_div(dst: &mut [Self], num: &[Self], den: &[Self]);
}

impl LaneKernels for f64 {
    #[inline]
    fn lanes_sub_mul(dst: &mut [f64], a: &[f64], b: &[f64]) {
        sub_mul(dst, a, b);
    }

    #[inline]
    fn lanes_div(dst: &mut [f64], num: &[f64], den: &[f64]) {
        div(dst, num, den);
    }
}

impl LaneKernels for Complex {
    fn lanes_sub_mul(dst: &mut [Complex], a: &[Complex], b: &[Complex]) {
        assert_eq!(dst.len(), a.len(), "lane length mismatch");
        assert_eq!(dst.len(), b.len(), "lane length mismatch");
        for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
            *d -= x * y;
        }
    }

    fn lanes_div(dst: &mut [Complex], num: &[Complex], den: &[Complex]) {
        assert_eq!(dst.len(), num.len(), "lane length mismatch");
        assert_eq!(dst.len(), den.len(), "lane length mismatch");
        for ((d, &x), &y) in dst.iter_mut().zip(num).zip(den) {
            *d = x / y;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wiggle(n: usize, seed: u64) -> Vec<f64> {
        // Deterministic, sign-varying, wide-dynamic-range values.
        (0..n)
            .map(|i| {
                let k = (seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i as u64)
                    % 1000) as f64;
                (k - 500.0) * (1.5f64).powi((i % 40) as i32 - 20)
            })
            .collect()
    }

    #[test]
    fn scalar_and_dispatched_sub_mul_agree_bitwise() {
        for n in [0usize, 1, 3, 4, 7, 8, 17, 64] {
            let a = wiggle(n, 1);
            let b = wiggle(n, 2);
            let mut d1 = wiggle(n, 3);
            let mut d2 = d1.clone();
            sub_mul_scalar(&mut d1, &a, &b);
            sub_mul(&mut d2, &a, &b);
            assert_eq!(
                d1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                d2.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "n={n}"
            );
        }
    }

    #[test]
    fn scalar_and_dispatched_div_agree_bitwise() {
        for n in [0usize, 1, 5, 12, 64] {
            let num = wiggle(n, 4);
            let mut den = wiggle(n, 5);
            for v in &mut den {
                if *v == 0.0 {
                    *v = 1.0;
                }
            }
            let mut d1 = vec![0.0; n];
            let mut d2 = vec![0.0; n];
            div_scalar(&mut d1, &num, &den);
            div(&mut d2, &num, &den);
            assert_eq!(
                d1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                d2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_paths_are_bit_identical_to_scalar() {
        // Direct comparison that does not depend on the process-wide
        // dispatch decision (which AHFIC_SIMD may have pinned).
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        for n in [1usize, 4, 7, 16, 63] {
            let a = wiggle(n, 11);
            let b = wiggle(n, 12);
            let mut d1 = wiggle(n, 13);
            let mut d2 = d1.clone();
            sub_mul_scalar(&mut d1, &a, &b);
            // SAFETY: AVX2 presence checked above.
            unsafe { sub_mul_avx2(&mut d2, &a, &b) };
            assert_eq!(
                d1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                d2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );

            let mut q1 = vec![0.0; n];
            let mut q2 = vec![0.0; n];
            let mut den = wiggle(n, 14);
            for v in &mut den {
                if *v == 0.0 {
                    *v = 2.0;
                }
            }
            div_scalar(&mut q1, &a, &den);
            // SAFETY: AVX2 presence checked above.
            unsafe { div_avx2(&mut q2, &a, &den) };
            assert_eq!(q1, q2);
        }
    }

    #[test]
    fn complex_lane_kernels_match_scalar_ops() {
        let a: Vec<Complex> = (0..9)
            .map(|i| Complex::new(i as f64, -0.5 * i as f64))
            .collect();
        let b: Vec<Complex> = (0..9).map(|i| Complex::new(1.0 + i as f64, 0.25)).collect();
        let mut d: Vec<Complex> = (0..9).map(|i| Complex::new(0.5, i as f64)).collect();
        let expect: Vec<Complex> = d
            .iter()
            .zip(a.iter().zip(&b))
            .map(|(&d, (&a, &b))| d - a * b)
            .collect();
        Complex::lanes_sub_mul(&mut d, &a, &b);
        assert_eq!(d, expect);
        let mut q = vec![Complex::ZERO; 9];
        Complex::lanes_div(&mut q, &a, &b);
        for i in 0..9 {
            assert_eq!(q[i], a[i] / b[i]);
        }
    }
}
