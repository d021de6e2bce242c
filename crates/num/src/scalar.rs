//! Scalar abstraction so the LU solver works over `f64` and [`Complex`].

use crate::Complex;
use std::fmt::Debug;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A field scalar usable by the dense linear algebra kernels.
///
/// Implemented for `f64` and [`Complex`]. The trait is sealed in spirit —
/// downstream crates are not expected to implement it — but it is left open
/// so tests can use wrapper types.
pub trait Scalar:
    Copy
    + Debug
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + Default
    + Send
    + Sync
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Magnitude used for pivot selection (absolute value / modulus).
    fn modulus(self) -> f64;

    /// Embeds a real number.
    fn from_f64(x: f64) -> Self;

    /// Complex conjugate; the identity for real scalars. [`gmres`](crate::gmres)
    /// needs this for Hermitian inner products and Givens rotations that
    /// stay correct over both fields.
    fn conj(self) -> Self;
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;

    #[inline]
    fn modulus(self) -> f64 {
        self.abs()
    }

    #[inline]
    fn from_f64(x: f64) -> f64 {
        x
    }

    #[inline]
    fn conj(self) -> f64 {
        self
    }
}

impl Scalar for Complex {
    const ZERO: Complex = Complex::ZERO;
    const ONE: Complex = Complex::ONE;

    #[inline]
    fn modulus(self) -> f64 {
        self.abs()
    }

    #[inline]
    fn from_f64(x: f64) -> Complex {
        Complex::from_re(x)
    }

    #[inline]
    fn conj(self) -> Complex {
        Complex::conj(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generic_sum<T: Scalar>(items: &[T]) -> T {
        let mut acc = T::ZERO;
        for &x in items {
            acc += x;
        }
        acc
    }

    #[test]
    fn works_for_f64() {
        assert_eq!(generic_sum(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(f64::from_f64(2.5), 2.5);
        assert_eq!((-3.0f64).modulus(), 3.0);
    }

    #[test]
    fn works_for_complex() {
        let s = generic_sum(&[Complex::new(1.0, 1.0), Complex::new(2.0, -1.0)]);
        assert_eq!(s, Complex::new(3.0, 0.0));
        assert!((Complex::new(3.0, 4.0).modulus() - 5.0).abs() < 1e-15);
    }
}
