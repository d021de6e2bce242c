//! Dense LU factorization with partial pivoting, generic over [`Scalar`].
//!
//! The simulators solve every circuit matrix with the sparse kernel of
//! [`crate::sparse`]; this dense factorization is the reference the
//! tests hold that kernel to, and it solves the small dense
//! boundary-value system of the periodic small-signal analysis.

use crate::{Matrix, Scalar};
use std::fmt;

/// Error returned when a matrix is singular to working precision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SingularMatrixError {
    /// Pivot column at which elimination broke down.
    pub column: usize,
}

impl fmt::Display for SingularMatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix is singular at pivot column {}", self.column)
    }
}

impl std::error::Error for SingularMatrixError {}

/// An LU factorization `P*A = L*U` of a square matrix.
///
/// # Example
///
/// ```
/// use ahfic_num::{Matrix, LuFactors};
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let lu = LuFactors::factor(a)?;
/// let x = lu.solve(&[3.0, 4.0]);
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok::<(), ahfic_num::lu::SingularMatrixError>(())
/// ```
#[derive(Clone)]
pub struct LuFactors<T> {
    lu: Matrix<T>,
    perm: Vec<usize>,
    n: usize,
}

impl<T: Scalar> fmt::Debug for LuFactors<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LuFactors")
            .field("n", &self.n)
            .field("perm", &self.perm)
            .field("lu", &self.lu)
            .finish()
    }
}

/// Relative pivot threshold below which elimination is declared singular.
const PIVOT_EPS: f64 = 1e-300;

impl<T: Scalar> LuFactors<T> {
    /// Factors `a` in place (Doolittle with partial pivoting).
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if no usable pivot exists in some
    /// column.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn factor(a: Matrix<T>) -> Result<Self, SingularMatrixError> {
        let n = a.rows();
        assert_eq!(n, a.cols(), "LU requires a square matrix");
        let mut f = LuFactors {
            lu: a,
            perm: (0..n).collect(),
            n,
        };
        f.eliminate()?;
        Ok(f)
    }

    fn eliminate(&mut self) -> Result<(), SingularMatrixError> {
        let n = self.n;
        let a = &mut self.lu;
        let perm = &mut self.perm;
        for k in 0..n {
            // Pivot selection: largest modulus in column k at/below row k.
            let mut best = k;
            let mut best_mag = a[(k, k)].modulus();
            for r in (k + 1)..n {
                let mag = a[(r, k)].modulus();
                if mag > best_mag {
                    best = r;
                    best_mag = mag;
                }
            }
            // NaN-safe: a NaN pivot magnitude must also be rejected.
            if !(best_mag.is_finite() && best_mag > PIVOT_EPS) {
                return Err(SingularMatrixError { column: k });
            }
            if best != k {
                for c in 0..n {
                    let tmp = a[(k, c)];
                    a[(k, c)] = a[(best, c)];
                    a[(best, c)] = tmp;
                }
                perm.swap(k, best);
            }
            let pivot = a[(k, k)];
            for r in (k + 1)..n {
                let factor = a[(r, k)] / pivot;
                a[(r, k)] = factor;
                if factor.modulus() != 0.0 {
                    for c in (k + 1)..n {
                        let akc = a[(k, c)];
                        a[(r, c)] -= factor * akc;
                    }
                }
            }
        }
        Ok(())
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A x = b` using the stored factors.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    #[allow(clippy::needless_range_loop)] // triangular index windows read clearest
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        let n = self.n;
        // Apply permutation, then forward substitution (L has unit diagonal).
        let mut x: Vec<T> = (0..n).map(|i| b[self.perm[i]]).collect();
        for r in 1..n {
            let mut acc = x[r];
            for c in 0..r {
                acc -= self.lu[(r, c)] * x[c];
            }
            x[r] = acc;
        }
        // Back substitution with U.
        for r in (0..n).rev() {
            let mut acc = x[r];
            for c in (r + 1)..n {
                acc -= self.lu[(r, c)] * x[c];
            }
            x[r] = acc / self.lu[(r, r)];
        }
        x
    }
}

/// Convenience one-shot solve of `A x = b`.
///
/// # Errors
///
/// Returns [`SingularMatrixError`] if `a` is singular.
pub fn solve<T: Scalar>(a: Matrix<T>, b: &[T]) -> Result<Vec<T>, SingularMatrixError> {
    Ok(LuFactors::factor(a)?.solve(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex;

    #[test]
    fn solves_identity() {
        let x = solve(Matrix::<f64>::identity(4), &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn solves_requiring_pivoting() {
        // Zero on the leading diagonal forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(a, &[5.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-14);
        assert!((x[1] - 5.0).abs() < 1e-14);
    }

    #[test]
    fn detects_singularity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(LuFactors::factor(a).is_err());
    }

    #[test]
    fn residual_small_on_fixed_system() {
        let a = Matrix::from_rows(&[&[4.0, -2.0, 1.0], &[-2.0, 4.0, -2.0], &[1.0, -2.0, 4.0]]);
        let b = [11.0, -16.0, 17.0];
        let x = solve(a.clone(), &b).unwrap();
        let r = a.mul_vec(&x);
        for i in 0..3 {
            assert!((r[i] - b[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn complex_system() {
        // (1+j) x = 2j  =>  x = 2j / (1+j) = 1 + j
        let a = Matrix::from_rows(&[&[Complex::new(1.0, 1.0)]]);
        let x = solve(a, &[Complex::new(0.0, 2.0)]).unwrap();
        assert!((x[0] - Complex::new(1.0, 1.0)).abs() < 1e-14);
    }

    #[test]
    fn factor_once_solve_many() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let lu = LuFactors::factor(a).unwrap();
        assert_eq!(lu.dim(), 2);
        let x1 = lu.solve(&[4.0, 3.0]);
        let x2 = lu.solve(&[8.0, 6.0]);
        for i in 0..2 {
            assert!((2.0 * x1[i] - x2[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn display_of_error() {
        let e = SingularMatrixError { column: 3 };
        assert_eq!(e.to_string(), "matrix is singular at pivot column 3");
    }
}
