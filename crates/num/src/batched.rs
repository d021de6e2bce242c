//! Batched sparse LU: one symbolic factorization, N numeric variants.
//!
//! Monte-Carlo, corner and sweep studies re-solve the *same* circuit
//! with perturbed element values. Every variant therefore shares one
//! CSC pattern and — because the pivot order is chosen with a strong
//! diagonal preference — almost always one elimination schedule too.
//! [`CpuBatchedLu`] exploits that: it walks the schedule once per
//! column while carrying N variants' numbers side by side in
//! structure-of-arrays ("lane") layout, so the inner update loops
//! become plain loops over contiguous lane blocks.
//!
//! # Layout
//!
//! All numeric arrays store lane blocks contiguously: entry `e` of lane
//! `b` lives at `e * lanes + b`. Matrix values handed to
//! [`CpuBatchedLu::refactor`] use the same convention over the CSC slot
//! index of the pattern the solver was built from; right-hand sides use
//! it over the row index.
//!
//! # Determinism contract
//!
//! Lane arithmetic mirrors [`SparseLu::refactor`] /
//! [`SparseLu::solve_in_place`] operation for operation: a multiply
//! then a subtract (never fused) and a divide, and the skip-on-exact-zero
//! shortcuts, which are replayed per lane so a structural zero takes the
//! identical path it takes in the scalar code. No loop reduces across
//! lanes. A lane refactored and solved here is **bit-identical** to
//! factoring the reference matrix with [`SparseLu::factor`] and then
//! calling the scalar `refactor`/`solve_in_place` with that lane's
//! values.
//!
//! Lanes whose pivots degrade under the shared pivot order are flagged
//! (not errored): the caller falls back to a scalar solve for those
//! lanes and keeps the batch running for everyone else.

use crate::lu::SingularMatrixError;
use crate::scalar::Scalar;
use crate::sparse::{CscMatrix, SparseLu, PIVOT_EPS, REFACTOR_PIVOT_REL};
use std::ops::Range;

/// Batched LU: refactors and solves N variants of one pattern over the
/// [`SparseLu`] symbolic analysis.
#[derive(Clone, Debug)]
pub struct CpuBatchedLu<T> {
    lanes: usize,
    /// Column pointers and row indices of the pattern the solver was
    /// built from, which every lane's values follow.
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    /// Reference-lane factorization: symbolic pattern, pivot order and
    /// the numeric values of the seeding [`SparseLu::factor`] run.
    seq: SparseLu<T>,
    /// `L` values, lane blocks per stored entry.
    l_vals: Vec<T>,
    /// Strict-upper `U` values, lane blocks per stored entry.
    u_vals: Vec<T>,
    /// Pivots, lane blocks per column.
    diag: Vec<T>,
    /// Dense scatter workspace (`n * lanes`), zero between operations.
    work: Vec<T>,
    /// One lane block of scratch (current pivot column / solve pivot).
    xt: Vec<T>,
    /// Per-lane column maxima for the pivot-degradation test.
    colmax: Vec<f64>,
}

/// `work[rows[e]] -= vals[e] * x` for the stored entries `entries`, a
/// lane block at a time: the scalar kernel's multiply then subtract
/// (Rust never fuses the two), with its skip on an exactly zero `x`
/// replayed per lane.
fn eliminate<T: Scalar>(
    work: &mut [T],
    rows: &[usize],
    vals: &[T],
    entries: Range<usize>,
    x: &[T],
) {
    let b = x.len();
    let nonzero = x.iter().filter(|v| v.modulus() != 0.0).count();
    if nonzero == 0 {
        return;
    }
    for e in entries {
        let r = rows[e];
        let lanes = work[r * b..(r + 1) * b]
            .iter_mut()
            .zip(&vals[e * b..(e + 1) * b])
            .zip(x);
        if nonzero == b {
            for ((d, &v), &x) in lanes {
                *d -= v * x;
            }
        } else {
            for ((d, &v), &x) in lanes {
                if x.modulus() != 0.0 {
                    *d -= v * x;
                }
            }
        }
    }
}

/// `dst[i] = num[i] / den[i]`, lane by lane.
fn div<T: Scalar>(dst: &mut [T], num: &[T], den: &[T]) {
    for ((d, &x), &y) in dst.iter_mut().zip(num).zip(den) {
        *d = x / y;
    }
}

impl<T: Scalar> CpuBatchedLu<T> {
    /// Builds the batched solver by fully factoring `reference`
    /// (pivot selection runs on its values) and seeding lane
    /// `ref_lane` with that factorization's numeric values. Every lane
    /// shares `reference`'s pattern.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when the reference matrix has no
    /// usable pivot — the batch has no schedule to share in that case.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0` or `ref_lane >= lanes`.
    pub fn new(
        reference: &CscMatrix<T>,
        lanes: usize,
        ref_lane: usize,
    ) -> Result<Self, SingularMatrixError> {
        assert!(lanes >= 1, "need at least one lane");
        assert!(ref_lane < lanes, "reference lane out of range");
        let seq = SparseLu::factor(reference)?;
        let n = seq.dim();
        let mut me = CpuBatchedLu {
            lanes,
            col_ptr: reference.col_ptr.clone(),
            row_idx: reference.row_idx.clone(),
            l_vals: vec![T::ZERO; seq.l_vals.len() * lanes],
            u_vals: vec![T::ZERO; seq.u_vals.len() * lanes],
            diag: vec![T::ZERO; n * lanes],
            work: vec![T::ZERO; n * lanes],
            xt: vec![T::ZERO; lanes],
            colmax: vec![0.0; lanes],
            seq,
        };
        me.seed_lane(ref_lane);
        Ok(me)
    }

    /// Copies the reference factorization's numeric values into one
    /// lane's slots.
    fn seed_lane(&mut self, lane: usize) {
        let b = self.lanes;
        for (i, &v) in self.seq.l_vals.iter().enumerate() {
            self.l_vals[i * b + lane] = v;
        }
        for (i, &v) in self.seq.u_vals.iter().enumerate() {
            self.u_vals[i * b + lane] = v;
        }
        for (i, &v) in self.seq.diag.iter().enumerate() {
            self.diag[i * b + lane] = v;
        }
    }

    /// Numeric refactorization of every lane from slot-major SoA
    /// values (`vals[slot * lanes + lane]`) over the solver's pattern.
    ///
    /// Lanes whose replayed pivots collapse get `ok[lane] = false` (a
    /// finite substitute pivot keeps the remaining lanes' arithmetic
    /// clean); `ok` entries are never set back to `true`. `skip`
    /// preserves one lane's current factor values untouched — used to
    /// keep a freshly seeded reference factorization bit-exact.
    ///
    /// # Panics
    ///
    /// Panics if `vals` or `ok` do not match the pattern and lane count.
    pub fn refactor(&mut self, vals: &[T], ok: &mut [bool], skip: Option<usize>) {
        let b = self.lanes;
        let n = self.seq.n;
        assert_eq!(
            vals.len(),
            self.row_idx.len() * b,
            "SoA value length mismatch"
        );
        assert_eq!(ok.len(), b, "ok flag length mismatch");
        for k in 0..n {
            let j = self.seq.q[k];
            self.colmax.fill(0.0);
            // Scatter column j of every lane into pivot-row order.
            for idx in self.col_ptr[j]..self.col_ptr[j + 1] {
                let r = self.seq.pinv[self.row_idx[idx]];
                let src = &vals[idx * b..(idx + 1) * b];
                self.work[r * b..(r + 1) * b].copy_from_slice(src);
                for (cm, v) in self.colmax.iter_mut().zip(src) {
                    *cm = cm.max(v.modulus());
                }
            }
            // Eliminate with already-finished columns (ascending pivot
            // positions = topological order, as in the scalar code).
            for idx in self.seq.u_colptr[k]..self.seq.u_colptr[k + 1] {
                let t = self.seq.u_rows[idx];
                self.xt.copy_from_slice(&self.work[t * b..(t + 1) * b]);
                self.work[t * b..(t + 1) * b].fill(T::ZERO);
                self.u_vals[idx * b..(idx + 1) * b].copy_from_slice(&self.xt);
                eliminate(
                    &mut self.work,
                    &self.seq.l_rows,
                    &self.l_vals,
                    self.seq.l_colptr[t]..self.seq.l_colptr[t + 1],
                    &self.xt,
                );
            }
            // Pivot test per lane; degraded lanes keep a finite
            // substitute so their garbage stays lane-contained.
            for (lane, lane_ok) in ok.iter_mut().enumerate() {
                let pivot = self.work[k * b + lane];
                let pmag = pivot.modulus();
                let good = pmag.is_finite()
                    && pmag > PIVOT_EPS
                    && pmag >= REFACTOR_PIVOT_REL * self.colmax[lane];
                if good {
                    self.diag[k * b + lane] = pivot;
                } else {
                    *lane_ok = false;
                    self.diag[k * b + lane] = T::ONE;
                }
            }
            self.work[k * b..(k + 1) * b].fill(T::ZERO);
            // Normalize the L column by the pivot block.
            for l in self.seq.l_colptr[k]..self.seq.l_colptr[k + 1] {
                let r = self.seq.l_rows[l];
                div(
                    &mut self.l_vals[l * b..(l + 1) * b],
                    &self.work[r * b..(r + 1) * b],
                    &self.diag[k * b..(k + 1) * b],
                );
                self.work[r * b..(r + 1) * b].fill(T::ZERO);
            }
        }
        if let Some(lane) = skip {
            self.seed_lane(lane);
        }
    }

    /// Solves all lanes in place over a row-major SoA right-hand side
    /// (`rhs[row * lanes + lane]`). Degraded lanes produce garbage in
    /// their own lane only.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` does not hold `n * lanes` values.
    pub fn solve_in_place(&mut self, rhs: &mut [T]) {
        let b = self.lanes;
        let n = self.seq.n;
        assert_eq!(rhs.len(), n * b, "SoA rhs length mismatch");
        // Row permutation: y = P b, lane blocks at a time.
        for i in 0..n {
            let p = self.seq.pinv[i];
            self.work[p * b..(p + 1) * b].copy_from_slice(&rhs[i * b..(i + 1) * b]);
        }
        // Forward substitution with unit-diagonal L.
        for k in 0..n {
            self.xt.copy_from_slice(&self.work[k * b..(k + 1) * b]);
            eliminate(
                &mut self.work,
                &self.seq.l_rows,
                &self.l_vals,
                self.seq.l_colptr[k]..self.seq.l_colptr[k + 1],
                &self.xt,
            );
        }
        // Back substitution with U.
        for k in (0..n).rev() {
            div(
                &mut self.xt,
                &self.work[k * b..(k + 1) * b],
                &self.diag[k * b..(k + 1) * b],
            );
            self.work[k * b..(k + 1) * b].copy_from_slice(&self.xt);
            eliminate(
                &mut self.work,
                &self.seq.u_rows,
                &self.u_vals,
                self.seq.u_colptr[k]..self.seq.u_colptr[k + 1],
                &self.xt,
            );
        }
        // Column permutation back to original unknown order; leave the
        // workspace zeroed for the next call.
        for k in 0..n {
            let q = self.seq.q[k];
            rhs[q * b..(q + 1) * b].copy_from_slice(&self.work[k * b..(k + 1) * b]);
            self.work[k * b..(k + 1) * b].fill(T::ZERO);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Complex, TripletBuilder};

    /// A 5×5 pattern with off-diagonal coupling and fill-in potential.
    fn pattern() -> (CscMatrix<f64>, Vec<usize>) {
        let mut tb = TripletBuilder::new(5);
        let coords = coords();
        for &(r, c) in &coords {
            tb.add(r, c);
        }
        tb.compile::<f64>()
    }

    fn coords() -> Vec<(usize, usize)> {
        vec![
            (0, 0),
            (1, 1),
            (2, 2),
            (3, 3),
            (4, 4),
            (0, 1),
            (1, 0),
            (1, 2),
            (2, 1),
            (3, 1),
            (0, 4),
            (4, 0),
            (3, 4),
        ]
    }

    fn lane_value(entry: usize, lane: usize) -> f64 {
        let base = [
            6.0, 7.5, 8.0, 5.5, 9.0, -1.0, -1.5, 0.5, -0.25, 1.25, 0.75, -0.5, 0.3,
        ];
        base[entry] * (1.0 + 0.01 * lane as f64)
    }

    fn lane_csc(lane: usize) -> CscMatrix<f64> {
        let (mut csc, slots) = pattern();
        for (e, &s) in slots.iter().enumerate() {
            csc.values_mut()[s] += lane_value(e, lane);
        }
        csc
    }

    fn soa_vals(lanes: usize) -> (CscMatrix<f64>, Vec<f64>) {
        let (csc, slots) = pattern();
        let mut vals = vec![0.0; csc.nnz() * lanes];
        for lane in 0..lanes {
            for (e, &s) in slots.iter().enumerate() {
                vals[s * lanes + lane] += lane_value(e, lane);
            }
        }
        (csc, vals)
    }

    #[test]
    fn seeded_lane_solves_like_full_factor_bitwise() {
        let a = lane_csc(0);
        let mut blu = CpuBatchedLu::new(&a, 1, 0).unwrap();
        let mut rhs = vec![1.0, -2.0, 0.5, 3.0, 0.0];
        let mut expect = rhs.clone();
        let mut lu = SparseLu::factor(&a).unwrap();
        lu.solve_in_place(&mut expect);
        blu.solve_in_place(&mut rhs);
        assert_eq!(
            rhs.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            expect.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn batched_lanes_match_scalar_refactor_bitwise() {
        let lanes = 3;
        let reference = lane_csc(0);
        let (_, vals) = soa_vals(lanes);
        let mut blu = CpuBatchedLu::new(&reference, lanes, 0).unwrap();
        let mut ok = vec![true; lanes];
        blu.refactor(&vals, &mut ok, None);
        assert_eq!(ok, vec![true; lanes]);
        let mut rhs_soa = vec![0.0; 5 * lanes];
        for lane in 0..lanes {
            for row in 0..5 {
                rhs_soa[row * lanes + lane] = (row as f64 + 1.0) * (lane as f64 - 1.0);
            }
        }
        blu.solve_in_place(&mut rhs_soa);
        for lane in 0..lanes {
            // Scalar comparator: factor the reference, then refactor to
            // this lane's values — the exact sequence the batch mirrors.
            let mut lu = SparseLu::factor(&reference).unwrap();
            lu.refactor(&lane_csc(lane)).unwrap();
            let mut b: Vec<f64> = (0..5)
                .map(|row| (row as f64 + 1.0) * (lane as f64 - 1.0))
                .collect();
            lu.solve_in_place(&mut b);
            for row in 0..5 {
                assert_eq!(
                    rhs_soa[row * lanes + lane].to_bits(),
                    b[row].to_bits(),
                    "lane {lane} row {row}"
                );
            }
        }
    }

    #[test]
    fn skip_lane_keeps_seeded_factor_values() {
        let lanes = 2;
        let reference = lane_csc(0);
        let (_, vals) = soa_vals(lanes);
        let mut blu = CpuBatchedLu::new(&reference, lanes, 0).unwrap();
        let mut ok = vec![true; lanes];
        blu.refactor(&vals, &mut ok, Some(0));
        let mut rhs = vec![0.0; 5 * lanes];
        for row in 0..5 {
            rhs[row * lanes] = row as f64 - 2.0;
        }
        blu.solve_in_place(&mut rhs);
        // Lane 0 must still behave exactly like the plain factor.
        let mut expect: Vec<f64> = (0..5).map(|row| row as f64 - 2.0).collect();
        let mut lu = SparseLu::factor(&reference).unwrap();
        lu.solve_in_place(&mut expect);
        for row in 0..5 {
            assert_eq!(rhs[row * lanes].to_bits(), expect[row].to_bits());
        }
    }

    #[test]
    fn degraded_lane_is_flagged_and_contained() {
        let lanes = 3;
        let reference = lane_csc(0);
        let (pat, mut vals) = soa_vals(lanes);
        // Zero out lane 1 entirely: every pivot collapses.
        for s in 0..pat.nnz() {
            vals[s * lanes + 1] = 0.0;
        }
        let mut blu = CpuBatchedLu::new(&reference, lanes, 0).unwrap();
        let mut ok = vec![true; lanes];
        blu.refactor(&vals, &mut ok, None);
        assert_eq!(ok, vec![true, false, true]);
        let mut rhs = vec![0.0; 5 * lanes];
        for lane in [0usize, 2] {
            for row in 0..5 {
                rhs[row * lanes + lane] = 1.0 + row as f64 * 0.5;
            }
        }
        blu.solve_in_place(&mut rhs);
        for lane in [0usize, 2] {
            let mut lu = SparseLu::factor(&reference).unwrap();
            lu.refactor(&lane_csc(lane)).unwrap();
            let mut b: Vec<f64> = (0..5).map(|row| 1.0 + row as f64 * 0.5).collect();
            lu.solve_in_place(&mut b);
            for row in 0..5 {
                assert_eq!(rhs[row * lanes + lane].to_bits(), b[row].to_bits());
            }
        }
    }

    #[test]
    fn complex_lanes_match_scalar_refactor() {
        let lanes = 2;
        let (pat, slots) = {
            let mut tb = TripletBuilder::new(3);
            for &(r, c) in &[(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0)] {
                tb.add(r, c);
            }
            tb.compile::<Complex>()
        };
        let val = |e: usize, lane: usize| {
            Complex::new(3.0 + e as f64 + lane as f64, 0.5 * e as f64 - lane as f64)
        };
        let mut reference = pat.clone();
        for (e, &s) in slots.iter().enumerate() {
            reference.values_mut()[s] += val(e, 0);
        }
        let mut vals = vec![Complex::ZERO; pat.nnz() * lanes];
        for lane in 0..lanes {
            for (e, &s) in slots.iter().enumerate() {
                vals[s * lanes + lane] += val(e, lane);
            }
        }
        let mut blu = CpuBatchedLu::new(&reference, lanes, 0).unwrap();
        let mut ok = vec![true; lanes];
        blu.refactor(&vals, &mut ok, None);
        assert_eq!(ok, vec![true; lanes]);
        let mut rhs = vec![Complex::ZERO; 3 * lanes];
        for lane in 0..lanes {
            for row in 0..3 {
                rhs[row * lanes + lane] = Complex::new(row as f64, lane as f64 + 1.0);
            }
        }
        blu.solve_in_place(&mut rhs);
        for lane in 0..lanes {
            let mut lane_m = pat.clone();
            for (e, &s) in slots.iter().enumerate() {
                lane_m.values_mut()[s] += val(e, lane);
            }
            let mut lu = SparseLu::factor(&reference).unwrap();
            lu.refactor(&lane_m).unwrap();
            let mut b: Vec<Complex> = (0..3)
                .map(|row| Complex::new(row as f64, lane as f64 + 1.0))
                .collect();
            lu.solve_in_place(&mut b);
            for row in 0..3 {
                assert_eq!(rhs[row * lanes + lane], b[row], "lane {lane} row {row}");
            }
        }
    }
}
