//! Restarted GMRES for matrix-free operators.
//!
//! The caller is shooting-Newton periodic steady state, where the
//! operator is the *monodromy* sensitivity map `v ↦ (M − I)·v` that is
//! never formed — each application runs one period of the circuit's
//! small-signal recurrence on stored factors. All the iteration needs
//! is the [`LinearOperator`] trait: a
//! dimension and a matrix-vector product. GMRES itself is the textbook
//! restarted formulation (Saad, *Iterative Methods for Sparse Linear
//! Systems*, ch. 6): Arnoldi with modified Gram–Schmidt, the Hessenberg
//! system reduced incrementally by Givens rotations so the residual norm
//! is available every iteration without a solve. There is no
//! preconditioner: the operator is never assembled, so there is nothing
//! to factor one from.
//!
//! Everything is generic over [`Scalar`] with the complex-safe rotation
//! `c = |a|/t`, `s = (a/|a|)·conj(b)/t`, which degenerates to the familiar
//! real rotation when `T = f64` (where `conj` is the identity).

use crate::scalar::Scalar;

/// A linear map `y = A·x`, possibly matrix-free.
///
/// `apply` takes `&mut self` so matrix-free operators (e.g. the shooting
/// monodromy map, which runs a period of triangular solves per product)
/// can reuse internal scratch state between applications.
pub trait LinearOperator<T: Scalar> {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;
    /// Computes `y = A·x`. Both slices have length [`LinearOperator::dim`].
    fn apply(&mut self, x: &[T], y: &mut [T]);
}

/// Knobs for the restarted iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GmresOptions {
    /// Krylov subspace dimension before a restart (Saad's `m`).
    pub restart: usize,
    /// Relative residual target: converged when `‖b − A·x‖ ≤ tol·‖b‖`.
    pub tol: f64,
    /// Total matvec budget across all restart cycles.
    pub max_iters: usize,
}

impl Default for GmresOptions {
    fn default() -> Self {
        GmresOptions {
            restart: 30,
            tol: 1e-10,
            max_iters: 400,
        }
    }
}

/// What a [`gmres`] run did, whether or not it converged.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GmresOutcome {
    /// True when the relative-residual target was met.
    pub converged: bool,
    /// Inner (Arnoldi) iterations consumed, i.e. operator applications
    /// beyond the per-cycle residual evaluation.
    pub iterations: usize,
    /// Restart cycles *beyond* the first.
    pub restarts: usize,
    /// Final relative residual `‖b − A·x‖ / ‖b‖` estimate.
    pub residual: f64,
    /// True when the run bailed early because two consecutive restart
    /// cycles made no residual progress — iterating further would only
    /// burn the matvec budget.
    pub stagnated: bool,
}

fn norm<T: Scalar>(v: &[T]) -> f64 {
    v.iter()
        .map(|x| x.modulus() * x.modulus())
        .sum::<f64>()
        .sqrt()
}

fn dot_conj<T: Scalar>(u: &[T], w: &[T]) -> T {
    let mut acc = T::ZERO;
    for (&ui, &wi) in u.iter().zip(w) {
        acc += ui.conj() * wi;
    }
    acc
}

fn scale_into<T: Scalar>(v: &mut [T], k: f64) {
    let k = T::from_f64(k);
    for x in v {
        *x = *x * k;
    }
}

/// Solves `A·x = b` by restarted GMRES, overwriting `x` (whose incoming
/// contents seed the iteration — pass zeros for a cold start).
///
/// # Panics
///
/// Panics if `b`/`x` lengths disagree with `op.dim()` or if
/// `opts.restart` is zero.
pub fn gmres<T: Scalar>(
    op: &mut dyn LinearOperator<T>,
    b: &[T],
    x: &mut [T],
    opts: &GmresOptions,
) -> GmresOutcome {
    let n = op.dim();
    assert_eq!(b.len(), n, "rhs length mismatch");
    assert_eq!(x.len(), n, "solution length mismatch");
    assert!(opts.restart > 0, "restart must be positive");

    let mut out = GmresOutcome {
        converged: false,
        iterations: 0,
        restarts: 0,
        residual: 0.0,
        stagnated: false,
    };
    if n == 0 {
        out.converged = true;
        return out;
    }
    let bnorm = norm(b);
    if bnorm == 0.0 {
        x.fill(T::ZERO);
        out.converged = true;
        return out;
    }
    let target = opts.tol * bnorm;
    let m = opts.restart.min(n).min(opts.max_iters.max(1));

    // Arnoldi basis and scratch. `basis[i]` is vᵢ; `w` holds A·vⱼ;
    // `hcol[j]` stores Hessenberg column j (length j+2).
    let mut basis: Vec<Vec<T>> = Vec::with_capacity(m + 1);
    let mut w = vec![T::ZERO; n];
    let mut hcols: Vec<Vec<T>> = Vec::with_capacity(m);
    let mut giv_c: Vec<T> = Vec::with_capacity(m);
    let mut giv_s: Vec<T> = Vec::with_capacity(m);
    let mut g: Vec<T> = Vec::with_capacity(m + 1);

    let mut first_cycle = true;
    let mut prev_cycle_rel = f64::INFINITY;
    let mut stagnant_cycles = 0u32;
    loop {
        // True residual r = b − A·x.
        op.apply(x, &mut w);
        let mut r: Vec<T> = b.iter().zip(&w).map(|(&bi, &axi)| bi - axi).collect();
        let beta = norm(&r);
        out.residual = beta / bnorm;
        if beta <= target {
            out.converged = true;
            return out;
        }
        if out.iterations >= opts.max_iters {
            return out;
        }
        // Stagnation bail: two consecutive restart cycles that each
        // shaved less than 0.1% off the true residual mean the Krylov
        // space has nothing left to offer — stop here instead of
        // burning the rest of the matvec budget (each matvec of the
        // shooting map is a full period integration) on a plateau. One
        // flat cycle is not enough: a slowly converging solve can have
        // a slow cycle while still making real progress.
        if out.residual >= prev_cycle_rel * 0.999 {
            stagnant_cycles += 1;
            if stagnant_cycles >= 2 {
                out.stagnated = true;
                return out;
            }
        } else {
            stagnant_cycles = 0;
        }
        prev_cycle_rel = out.residual;
        if !first_cycle {
            out.restarts += 1;
        }
        first_cycle = false;

        scale_into(&mut r, 1.0 / beta);
        basis.clear();
        basis.push(r);
        hcols.clear();
        giv_c.clear();
        giv_s.clear();
        g.clear();
        g.push(T::from_f64(beta));

        let mut k = 0; // columns accumulated this cycle
        while k < m && out.iterations < opts.max_iters {
            let j = k;
            op.apply(&basis[j], &mut w);
            out.iterations += 1;

            // Modified Gram–Schmidt against the basis so far.
            let mut hcol = Vec::with_capacity(j + 2);
            for vi in basis.iter().take(j + 1) {
                let hij = dot_conj(vi, &w);
                for (wx, &vx) in w.iter_mut().zip(vi) {
                    *wx -= hij * vx;
                }
                hcol.push(hij);
            }
            let hnext = norm(&w);
            hcol.push(T::from_f64(hnext));

            // Apply the accumulated rotations to the new column, then
            // compute this column's rotation to annihilate the subdiagonal.
            for i in 0..j {
                let a = hcol[i];
                let b2 = hcol[i + 1];
                hcol[i] = giv_c[i] * a + giv_s[i] * b2;
                hcol[i + 1] = giv_c[i] * b2 - giv_s[i].conj() * a;
            }
            let a = hcol[j];
            let b2 = hcol[j + 1];
            let amod = a.modulus();
            let t = (amod * amod + hnext * hnext).sqrt();
            let (c, s) = if t == 0.0 {
                (T::ONE, T::ZERO)
            } else if amod == 0.0 {
                // Pure subdiagonal: rotate it straight onto the diagonal.
                (T::ZERO, b2.conj() * T::from_f64(1.0 / hnext))
            } else {
                let c = T::from_f64(amod / t);
                let phase = a * T::from_f64(1.0 / amod);
                (c, phase * b2.conj() * T::from_f64(1.0 / t))
            };
            hcol[j] = c * a + s * b2;
            hcol[j + 1] = T::ZERO;
            let gj = g[j];
            g.push(T::ZERO - s.conj() * gj);
            g[j] = c * gj;
            giv_c.push(c);
            giv_s.push(s);
            hcols.push(hcol);
            k += 1;

            out.residual = g[k].modulus() / bnorm;
            let happy = hnext <= f64::EPSILON * t.max(1.0);
            if g[k].modulus() <= target || happy {
                break;
            }
            scale_into(&mut w, 1.0 / hnext);
            basis.push(w.clone());
        }

        if k == 0 {
            // No progress possible (operator returned zero on the residual
            // direction); report the stagnant residual.
            return out;
        }

        // Back-substitute the k×k triangular system R·y = g.
        let mut y = vec![T::ZERO; k];
        for i in (0..k).rev() {
            let mut acc = g[i];
            for (jj, yj) in y.iter().enumerate().take(k).skip(i + 1) {
                acc -= hcols[jj][i] * *yj;
            }
            y[i] = acc / hcols[i][i];
        }
        // x += V·y: accumulate the basis combination and add.
        w.fill(T::ZERO);
        for (vi, &yi) in basis.iter().zip(&y) {
            for (wx, &vx) in w.iter_mut().zip(vi) {
                *wx += vx * yi;
            }
        }
        for (xi, &wi) in x.iter_mut().zip(&w) {
            *xi += wi;
        }

        if out.residual <= opts.tol || out.iterations >= opts.max_iters {
            // Confirm against the true residual on the next loop entry;
            // the rotation estimate can drift slightly after restarts.
            op.apply(x, &mut w);
            let resid = b
                .iter()
                .zip(&w)
                .map(|(&bi, &axi)| {
                    let d = bi - axi;
                    d.modulus() * d.modulus()
                })
                .sum::<f64>()
                .sqrt();
            out.residual = resid / bnorm;
            out.converged = resid <= target * (1.0 + 1e-12);
            return out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;
    use crate::matrix::Matrix;
    use crate::sparse::{CscMatrix, TripletBuilder};

    impl<T: Scalar> LinearOperator<T> for &CscMatrix<T> {
        fn dim(&self) -> usize {
            self.n()
        }

        fn apply(&mut self, x: &[T], y: &mut [T]) {
            self.mul_vec_into(x, y);
        }
    }

    fn dense_op<T: Scalar>(m: Matrix<T>) -> impl LinearOperator<T> {
        struct DenseOp<T>(Matrix<T>);
        impl<T: Scalar> LinearOperator<T> for DenseOp<T> {
            fn dim(&self) -> usize {
                self.0.rows()
            }
            fn apply(&mut self, x: &[T], y: &mut [T]) {
                y.copy_from_slice(&self.0.mul_vec(x));
            }
        }
        DenseOp(m)
    }

    #[test]
    fn solves_small_real_system() {
        let a = Matrix::from_rows(&[
            &[4.0, 1.0, 0.0][..],
            &[1.0, 3.0, 1.0][..],
            &[0.0, 1.0, 2.0][..],
        ]);
        let b = [1.0, 2.0, 3.0];
        let expect = crate::lu::solve(a.clone(), &b).unwrap();
        let mut op = dense_op(a);
        let mut x = vec![0.0; 3];
        let out = gmres(&mut op, &b, &mut x, &GmresOptions::default());
        assert!(out.converged, "did not converge: {out:?}");
        for (xi, ei) in x.iter().zip(&expect) {
            assert!((xi - ei).abs() < 1e-8, "{x:?} vs {expect:?}");
        }
    }

    #[test]
    fn solves_complex_system() {
        let a = Matrix::from_rows(&[
            &[Complex::new(3.0, 1.0), Complex::new(0.5, -0.2)][..],
            &[Complex::new(-0.1, 0.4), Complex::new(2.0, -1.0)][..],
        ]);
        let b = [Complex::new(1.0, 0.0), Complex::new(0.0, 1.0)];
        let expect = crate::lu::solve(a.clone(), &b).unwrap();
        let mut op = dense_op(a);
        let mut x = vec![Complex::ZERO; 2];
        let out = gmres(&mut op, &b, &mut x, &GmresOptions::default());
        assert!(out.converged, "did not converge: {out:?}");
        for (xi, ei) in x.iter().zip(&expect) {
            assert!((*xi - *ei).abs() < 1e-8, "{x:?} vs {expect:?}");
        }
    }

    /// Tridiagonal `n×n` system: `diag(i)` on the diagonal, `upper` and
    /// `lower` beside it.
    fn tridiag(n: usize, diag: impl Fn(usize) -> f64, upper: f64, lower: f64) -> CscMatrix<f64> {
        let mut tb = TripletBuilder::new(n);
        for i in 0..n {
            tb.add(i, i);
            if i + 1 < n {
                tb.add(i, i + 1);
                tb.add(i + 1, i);
            }
        }
        let (mut csc, slots) = tb.compile();
        let mut si = slots.iter();
        for i in 0..n {
            csc.values_mut()[*si.next().unwrap()] = diag(i);
            if i + 1 < n {
                csc.values_mut()[*si.next().unwrap()] = upper;
                csc.values_mut()[*si.next().unwrap()] = lower;
            }
        }
        csc
    }

    #[test]
    fn restart_path_still_converges() {
        // A 12×12 diagonally dominant sparse system with restart=3 forces
        // several cycles through the restart bookkeeping.
        let n = 12;
        let csc = tridiag(n, |i| 4.0 + i as f64 * 0.1, -1.0, -0.5);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut x = vec![0.0; n];
        let mut op = &csc;
        let out = gmres(
            &mut op,
            &b,
            &mut x,
            &GmresOptions {
                restart: 3,
                tol: 1e-10,
                max_iters: 400,
            },
        );
        assert!(out.converged, "{out:?}");
        assert!(out.restarts > 0, "expected restarts: {out:?}");
        // Verify against the residual directly.
        let mut ax = vec![0.0; n];
        csc.mul_vec_into(&x, &mut ax);
        let resid: f64 = b
            .iter()
            .zip(&ax)
            .map(|(bi, axi)| (bi - axi) * (bi - axi))
            .sum::<f64>()
            .sqrt();
        assert!(resid < 1e-8, "residual {resid}");
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = Matrix::from_rows(&[&[2.0, 0.0][..], &[0.0, 2.0][..]]);
        let mut op = dense_op(a);
        let mut x = vec![5.0, -3.0];
        let out = gmres(&mut op, &[0.0, 0.0], &mut x, &GmresOptions::default());
        assert!(out.converged);
        assert_eq!(x, vec![0.0, 0.0]);
        assert_eq!(out.iterations, 0);
    }

    /// Two consecutive restart cycles with no residual progress bail
    /// out early instead of burning the whole matvec budget.
    #[test]
    fn gmres_stagnation_bails_before_budget() {
        let csc = tridiag(30, |i| 3.0 + i as f64 * 0.2, -1.0, -1.0);
        let b = vec![1.0; 30];
        let mut x = vec![0.0; 30];
        let mut op = &csc;
        let out = gmres(
            &mut op,
            &b,
            &mut x,
            &GmresOptions {
                restart: 2,
                tol: 1e-300,
                max_iters: 100_000,
            },
        );
        assert!(!out.converged);
        assert!(out.stagnated, "{out:?}");
        assert!(
            out.iterations < 100_000,
            "stagnation should cut the budget short: {out:?}"
        );
    }
}
