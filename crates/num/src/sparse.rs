//! Sparse MNA kernels: triplet → CSC compilation and a left-looking
//! (Gilbert–Peierls) LU with symbolic-pattern reuse.
//!
//! Circuit matrices are extremely sparse (a handful of entries per row)
//! and, across a simulation, are refactored thousands of times with an
//! *identical* nonzero pattern — once per Newton iteration, timestep and
//! frequency point. This module exploits that:
//!
//! * [`TripletBuilder`] records the stamp pattern once and compiles it to
//!   compressed-sparse-column form, returning a slot map so later
//!   assemblies write values straight into the CSC array (no hashing, no
//!   allocation).
//! * [`SparseLu::factor`] runs the full pipeline once: a Markowitz-style
//!   least-entries-first column preorder, a symbolic depth-first
//!   reachability pass per column, and the numeric factorization with
//!   diagonal-preferring threshold pivoting.
//! * [`SparseLu::refactor`] replays the recorded pivot order and fill
//!   pattern on new values — pure numeric work, zero allocation — and
//!   [`SparseLu::solve_in_place`] back-substitutes without allocating.
//!
//! Everything is generic over [`Scalar`], so the same code serves the real
//! DC/transient path (`f64`) and the complex AC/noise path.

use crate::lu::SingularMatrixError;
use crate::{Matrix, Scalar};

/// Pattern-only accumulator of matrix entries in stamp order.
///
/// Duplicate `(row, col)` pushes are allowed (MNA stamps overlap) and are
/// summed into one stored entry at [`TripletBuilder::compile`] time.
#[derive(Clone, Debug)]
pub struct TripletBuilder {
    n: usize,
    entries: Vec<(usize, usize)>,
}

impl TripletBuilder {
    /// Starts an empty `n`×`n` pattern.
    pub fn new(n: usize) -> Self {
        TripletBuilder {
            n,
            entries: Vec::new(),
        }
    }

    /// Records one structural entry.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of range.
    pub fn add(&mut self, r: usize, c: usize) {
        assert!(r < self.n && c < self.n, "triplet ({r},{c}) out of range");
        self.entries.push((r, c));
    }

    /// Number of recorded (possibly duplicate) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Compiles the pattern to CSC.
    ///
    /// Returns the zero-valued matrix and a *slot map*: entry `k` of the
    /// map is the index into the CSC value array that the `k`-th recorded
    /// triplet lands on. Replaying the same stamp sequence therefore needs
    /// only `values[slots[k]] += v`.
    pub fn compile<T: Scalar>(&self) -> (CscMatrix<T>, Vec<usize>) {
        let n = self.n;
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_unstable_by_key(|&k| {
            let (r, c) = self.entries[k];
            (c, r)
        });

        let mut col_ptr = vec![0usize; n + 1];
        let mut row_idx = Vec::new();
        let mut slots = vec![0usize; self.entries.len()];
        let mut prev: Option<(usize, usize)> = None;
        for &k in &order {
            let (r, c) = self.entries[k];
            if prev != Some((r, c)) {
                row_idx.push(r);
                col_ptr[c + 1] += 1;
                prev = Some((r, c));
            }
            slots[k] = row_idx.len() - 1;
        }
        for c in 0..n {
            col_ptr[c + 1] += col_ptr[c];
        }
        let nnz = row_idx.len();
        (
            CscMatrix {
                n,
                col_ptr,
                row_idx,
                values: vec![T::ZERO; nnz],
            },
            slots,
        )
    }
}

/// A square sparse matrix in compressed-sparse-column form.
///
/// The pattern (`col_ptr`/`row_idx`) is fixed at compile time; only
/// `values` changes between assemblies.
#[derive(Clone, Debug)]
pub struct CscMatrix<T> {
    pub(crate) n: usize,
    pub(crate) col_ptr: Vec<usize>,
    pub(crate) row_idx: Vec<usize>,
    pub(crate) values: Vec<T>,
}

impl<T: Scalar> CscMatrix<T> {
    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Read access to the value array (indexed by compile-time slots).
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Mutable access to the value array (indexed by compile-time slots).
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// Resets all values to zero, keeping the pattern.
    pub fn clear_values(&mut self) {
        self.values.fill(T::ZERO);
    }

    /// Dense copy, for small systems and tests.
    pub fn to_dense(&self) -> Matrix<T> {
        let mut m = Matrix::zeros(self.n, self.n);
        for c in 0..self.n {
            for k in self.col_ptr[c]..self.col_ptr[c + 1] {
                m[(self.row_idx[k], c)] = self.values[k];
            }
        }
        m
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.n()`.
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        let mut y = vec![T::ZERO; self.n];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// Matrix–vector product `A x` into a caller-provided buffer,
    /// avoiding the per-call allocation of [`CscMatrix::mul_vec`] — the
    /// variant used on hot paths such as the batched Newton residual
    /// check.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.n()` or `y.len() != self.n()`.
    pub fn mul_vec_into(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        assert_eq!(y.len(), self.n, "dimension mismatch");
        y.fill(T::ZERO);
        for (c, &xc) in x.iter().enumerate() {
            if xc.modulus() != 0.0 {
                for k in self.col_ptr[c]..self.col_ptr[c + 1] {
                    y[self.row_idx[k]] += self.values[k] * xc;
                }
            }
        }
    }
}

/// Absolute pivot floor (matches the dense solver).
pub(crate) const PIVOT_EPS: f64 = 1e-300;

/// Relative threshold under which a replayed pivot is considered degraded
/// and [`SparseLu::refactor`] asks for a fresh factorization instead.
pub(crate) const REFACTOR_PIVOT_REL: f64 = 1e-12;

/// Diagonal-preference threshold: the structural diagonal is kept as pivot
/// whenever it is within this factor of the best column entry, so the
/// pivot order survives value changes across Newton iterations.
const DIAG_PREFERENCE: f64 = 0.1;

/// Sentinel for "row not yet pivoted" during the first factorization.
const UNSET: usize = usize::MAX;

/// Sparse LU factors `P·A·Q = L·U` with a reusable symbolic pattern.
///
/// Build once with [`SparseLu::factor`]; on later assemblies with the same
/// pattern call [`SparseLu::refactor`] (numeric-only, allocation-free) and
/// [`SparseLu::solve_in_place`].
#[derive(Clone, Debug)]
pub struct SparseLu<T> {
    pub(crate) n: usize,
    /// Column preorder: factor column `k` is original column `q[k]`.
    pub(crate) q: Vec<usize>,
    /// `pinv[orig_row]` = pivot position of that row.
    pub(crate) pinv: Vec<usize>,
    /// `L` columns (unit diagonal implicit); row indices are pivot
    /// positions, ascending within each column.
    pub(crate) l_colptr: Vec<usize>,
    pub(crate) l_rows: Vec<usize>,
    pub(crate) l_vals: Vec<T>,
    /// Strict upper part of `U` by column; row indices are pivot positions
    /// `< k`, ascending.
    pub(crate) u_colptr: Vec<usize>,
    pub(crate) u_rows: Vec<usize>,
    pub(crate) u_vals: Vec<T>,
    /// `U` diagonal (the pivots).
    pub(crate) diag: Vec<T>,
    /// Dense scatter workspace, zero between operations.
    pub(crate) work: Vec<T>,
}

impl<T: Scalar> SparseLu<T> {
    /// Full factorization: fill-reducing preorder, symbolic analysis and
    /// numeric elimination with diagonal-preferring partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] (with the *original* column index)
    /// when no usable pivot exists.
    pub fn factor(a: &CscMatrix<T>) -> Result<Self, SingularMatrixError> {
        let n = a.n;
        // Markowitz-style static preorder: eliminate least-populated
        // columns first (ties by index, so the order is deterministic).
        // For MNA matrices this pushes dense hub nodes (supplies, ground
        // nets) to the end, which is where their fill-in hurts least.
        let mut q: Vec<usize> = (0..n).collect();
        q.sort_by_key(|&c| (a.col_ptr[c + 1] - a.col_ptr[c], c));

        let mut pinv = vec![UNSET; n];
        // Temporary per-column storage in original row ids.
        let mut l_cols: Vec<Vec<(usize, T)>> = vec![Vec::new(); n];
        let mut u_cols: Vec<Vec<(usize, T)>> = vec![Vec::new(); n];
        let mut diag = vec![T::ZERO; n];

        let mut x = vec![T::ZERO; n]; // indexed by original row
        let mut mark = vec![UNSET; n]; // stamp = column k when visited
        let mut topo: Vec<usize> = Vec::with_capacity(n); // finish order
        let mut stack: Vec<(usize, usize)> = Vec::with_capacity(n);

        for k in 0..n {
            let j = q[k];
            // Scatter A(:,j) and find Reach_L of its pattern (symbolic).
            topo.clear();
            for idx in a.col_ptr[j]..a.col_ptr[j + 1] {
                let root = a.row_idx[idx];
                x[root] = a.values[idx];
                if mark[root] == k {
                    continue;
                }
                // Iterative DFS through the columns of L built so far.
                mark[root] = k;
                stack.push((root, 0));
                while let Some(top) = stack.len().checked_sub(1) {
                    let (node, child) = stack[top];
                    let deps: &[(usize, T)] = if pinv[node] == UNSET {
                        &[]
                    } else {
                        &l_cols[pinv[node]]
                    };
                    if child < deps.len() {
                        stack[top].1 += 1;
                        let next = deps[child].0;
                        if mark[next] != k {
                            mark[next] = k;
                            stack.push((next, 0));
                        }
                    } else {
                        topo.push(node);
                        stack.pop();
                    }
                }
            }

            // Numeric sparse triangular solve, dependencies first
            // (reverse finish order).
            for &i in topo.iter().rev() {
                let t = pinv[i];
                if t == UNSET {
                    continue;
                }
                let xi = x[i];
                if xi.modulus() != 0.0 {
                    for &(r, lv) in &l_cols[t] {
                        x[r] -= lv * xi;
                    }
                }
            }

            // Pivot: largest-modulus unpivoted entry, but keep the
            // structural diagonal when it is competitive so refactor's
            // frozen order stays stable across value changes.
            let mut best = UNSET;
            let mut best_mag = 0.0f64;
            for &i in &topo {
                if pinv[i] == UNSET {
                    let mag = x[i].modulus();
                    if mag.is_finite() && mag > best_mag {
                        best = i;
                        best_mag = mag;
                    }
                }
            }
            if best == UNSET || best_mag <= PIVOT_EPS {
                return Err(SingularMatrixError { column: j });
            }
            if pinv[j] == UNSET && mark[j] == k {
                let dmag = x[j].modulus();
                if dmag.is_finite() && dmag >= DIAG_PREFERENCE * best_mag && dmag > PIVOT_EPS {
                    best = j;
                }
            }
            let pivot = x[best];
            pinv[best] = k;
            diag[k] = pivot;

            // Split the pattern into U (pivoted rows) and L (the rest),
            // clearing the scatter array as we gather.
            for &i in &topo {
                let xi = x[i];
                x[i] = T::ZERO;
                if i == best {
                    continue;
                }
                match pinv[i] {
                    UNSET => l_cols[k].push((i, xi / pivot)),
                    t => u_cols[k].push((t, xi)),
                }
            }
        }

        // Freeze into flat CSC-style arrays with rows renumbered to pivot
        // positions and sorted ascending — ascending position order is a
        // valid topological order, which is what refactor replays.
        let mut lu = SparseLu {
            n,
            q,
            pinv,
            l_colptr: Vec::with_capacity(n + 1),
            l_rows: Vec::new(),
            l_vals: Vec::new(),
            u_colptr: Vec::with_capacity(n + 1),
            u_rows: Vec::new(),
            u_vals: Vec::new(),
            diag,
            work: x, // already all zero
        };
        lu.l_colptr.push(0);
        lu.u_colptr.push(0);
        let mut scratch: Vec<(usize, T)> = Vec::new();
        for k in 0..n {
            scratch.clear();
            scratch.extend(l_cols[k].iter().map(|&(i, v)| (lu.pinv[i], v)));
            scratch.sort_unstable_by_key(|&(p, _)| p);
            for &(p, v) in &scratch {
                lu.l_rows.push(p);
                lu.l_vals.push(v);
            }
            lu.l_colptr.push(lu.l_rows.len());

            scratch.clear();
            scratch.extend(u_cols[k].iter().copied());
            scratch.sort_unstable_by_key(|&(p, _)| p);
            for &(p, v) in &scratch {
                lu.u_rows.push(p);
                lu.u_vals.push(v);
            }
            lu.u_colptr.push(lu.u_rows.len());
        }
        Ok(lu)
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored entries in `L` and `U` (fill-in included, diagonal excluded).
    pub fn factor_nnz(&self) -> usize {
        self.l_rows.len() + self.u_rows.len()
    }

    /// Numeric-only refactorization on new values with the recorded pivot
    /// order and fill pattern. Allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] when a replayed pivot collapses
    /// (absolutely, or relative to its column) — the caller should fall
    /// back to a fresh [`SparseLu::factor`], which re-selects pivots.
    ///
    /// # Panics
    ///
    /// Panics if `a` has a different dimension than the factored matrix.
    /// Entries of `a` outside the original pattern are not detected here;
    /// keep the pattern fixed (that is the contract of the slot map).
    pub fn refactor(&mut self, a: &CscMatrix<T>) -> Result<(), SingularMatrixError> {
        assert_eq!(a.n, self.n, "refactor dimension mismatch");
        let x = &mut self.work;
        for (k, &j) in self.q.iter().enumerate() {
            let (a0, a1) = (a.col_ptr[j], a.col_ptr[j + 1]);
            let mut colmax = 0.0f64;
            for (&r, &v) in a.row_idx[a0..a1].iter().zip(&a.values[a0..a1]) {
                x[self.pinv[r]] = v;
                colmax = colmax.max(v.modulus());
            }
            // Ascending pivot positions = topological order: every update
            // lands on a strictly larger position.
            let (u0, u1) = (self.u_colptr[k], self.u_colptr[k + 1]);
            for (&t, u) in self.u_rows[u0..u1].iter().zip(&mut self.u_vals[u0..u1]) {
                let xt = x[t];
                x[t] = T::ZERO;
                *u = xt;
                if xt.modulus() != 0.0 {
                    let (l0, l1) = (self.l_colptr[t], self.l_colptr[t + 1]);
                    for (&r, &l) in self.l_rows[l0..l1].iter().zip(&self.l_vals[l0..l1]) {
                        x[r] -= l * xt;
                    }
                }
            }
            let pivot = x[k];
            x[k] = T::ZERO;
            let pmag = pivot.modulus();
            let (l0, l1) = (self.l_colptr[k], self.l_colptr[k + 1]);
            if !(pmag.is_finite() && pmag > PIVOT_EPS && pmag >= REFACTOR_PIVOT_REL * colmax) {
                // Leave the scatter array clean before reporting failure.
                for &r in &self.l_rows[l0..l1] {
                    x[r] = T::ZERO;
                }
                return Err(SingularMatrixError { column: j });
            }
            self.diag[k] = pivot;
            for (&r, l) in self.l_rows[l0..l1].iter().zip(&mut self.l_vals[l0..l1]) {
                *l = x[r] / pivot;
                x[r] = T::ZERO;
            }
        }
        Ok(())
    }

    /// Solves `A x = b` in place (`b` becomes `x`). Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve_in_place(&mut self, b: &mut [T]) {
        let mut work = std::mem::take(&mut self.work);
        self.solve_values(&self.l_vals, &self.u_vals, &self.diag, &mut work, b);
        self.work = work;
    }

    /// Whether `other` has this factorization's pivot order and fill
    /// pattern, so that its [`SparseLu::push_values`] fit
    /// [`SparseLu::solve_with`] on `self`.
    pub fn same_pattern(&self, other: &Self) -> bool {
        self.q == other.q
            && self.pinv == other.pinv
            && self.l_colptr == other.l_colptr
            && self.l_rows == other.l_rows
            && self.u_colptr == other.u_colptr
            && self.u_rows == other.u_rows
    }

    /// Appends the numeric factors (`L`, the strict upper `U`, then the
    /// pivots) to `out`: many factorizations of one pattern, stored as
    /// one value array each, share the pattern's index arrays.
    pub fn push_values(&self, out: &mut Vec<T>) {
        out.extend_from_slice(&self.l_vals);
        out.extend_from_slice(&self.u_vals);
        out.extend_from_slice(&self.diag);
    }

    /// Solves `A x = b` in place for the matrix whose factors on this
    /// pattern [`SparseLu::push_values`] wrote as `vals`.
    /// Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()` or `vals` is shorter than the
    /// factors.
    pub fn solve_with(&mut self, vals: &[T], b: &mut [T]) {
        let (l_vals, rest) = vals.split_at(self.l_vals.len());
        let (u_vals, diag) = rest.split_at(self.u_vals.len());
        let mut work = std::mem::take(&mut self.work);
        self.solve_values(l_vals, u_vals, &diag[..self.n], &mut work, b);
        self.work = work;
    }

    /// The triangular solves on this pattern with the given numeric
    /// factors; `y` is the zeroed scatter workspace, left zeroed.
    fn solve_values(&self, l_vals: &[T], u_vals: &[T], diag: &[T], y: &mut [T], b: &mut [T]) {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        let y = &mut y[..self.n];
        // Row permutation: y = P b.
        for (&p, &bi) in self.pinv.iter().zip(b.iter()) {
            y[p] = bi;
        }
        // Forward substitution with unit-diagonal L (column-major).
        for k in 0..self.n {
            let yk = y[k];
            if yk.modulus() != 0.0 {
                let (l0, l1) = (self.l_colptr[k], self.l_colptr[k + 1]);
                for (&r, &l) in self.l_rows[l0..l1].iter().zip(&l_vals[l0..l1]) {
                    y[r] -= l * yk;
                }
            }
        }
        // Back substitution with U (column-major).
        for k in (0..self.n).rev() {
            let yk = y[k] / diag[k];
            y[k] = yk;
            if yk.modulus() != 0.0 {
                let (u0, u1) = (self.u_colptr[k], self.u_colptr[k + 1]);
                for (&r, &u) in self.u_rows[u0..u1].iter().zip(&u_vals[u0..u1]) {
                    y[r] -= u * yk;
                }
            }
        }
        // Column permutation back to original unknown order; leave the
        // workspace zeroed for the next call.
        for (&q, yk) in self.q.iter().zip(y.iter_mut()) {
            b[q] = *yk;
            *yk = T::ZERO;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lu, Complex};

    /// Builds the CSC form of a dense matrix given as rows.
    fn csc_from_rows(rows: &[&[f64]]) -> (CscMatrix<f64>, Vec<usize>) {
        let n = rows.len();
        let mut tb = TripletBuilder::new(n);
        let mut vals = Vec::new();
        for (r, row) in rows.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    tb.add(r, c);
                    vals.push(v);
                }
            }
        }
        let (mut m, slots) = tb.compile::<f64>();
        for (k, &v) in vals.iter().enumerate() {
            m.values_mut()[slots[k]] += v;
        }
        (m, slots)
    }

    #[test]
    fn triplets_dedup_and_sum() {
        let mut tb = TripletBuilder::new(2);
        tb.add(0, 0);
        tb.add(0, 0); // duplicate: must sum into the same slot
        tb.add(1, 1);
        tb.add(1, 0);
        assert_eq!(tb.len(), 4);
        assert!(!tb.is_empty());
        let (mut m, slots) = tb.compile::<f64>();
        assert_eq!(m.nnz(), 3);
        assert_eq!(slots[0], slots[1]);
        for (k, v) in [(0, 2.0), (1, 3.0), (2, 5.0), (3, 7.0)] {
            m.values_mut()[slots[k]] += v;
        }
        let d = m.to_dense();
        assert_eq!(d[(0, 0)], 5.0);
        assert_eq!(d[(1, 1)], 5.0);
        assert_eq!(d[(1, 0)], 7.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    /// Factors of another matrix on one pattern, stored as values alone,
    /// solve exactly as that matrix's own factors do.
    #[test]
    fn stored_values_solve_like_their_factors() {
        let (m1, slots) = csc_from_rows(&[&[4.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 2.0, 5.0]]);
        let mut pattern = SparseLu::factor(&m1).unwrap();
        let mut m2 = m1.clone();
        for (k, &slot) in slots.iter().enumerate() {
            m2.values_mut()[slot] *= 1.0 + 0.1 * k as f64;
        }
        let mut own = pattern.clone();
        own.refactor(&m2).unwrap();
        assert!(pattern.same_pattern(&own));
        let mut vals = Vec::new();
        own.push_values(&mut vals);
        let (mut b1, mut b2) = ([1.0, -2.0, 0.5], [1.0, -2.0, 0.5]);
        own.solve_in_place(&mut b1);
        pattern.solve_with(&vals, &mut b2);
        assert_eq!(b1, b2);
        let (m3, _) = csc_from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 0.0], &[0.0, 0.0, 1.0]]);
        assert!(!pattern.same_pattern(&SparseLu::factor(&m3).unwrap()));
    }

    #[test]
    fn solves_identity() {
        let (m, _) = csc_from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let mut lu = SparseLu::factor(&m).unwrap();
        assert_eq!(lu.dim(), 2);
        let mut b = [3.0, -4.0];
        lu.solve_in_place(&mut b);
        assert_eq!(b, [3.0, -4.0]);
    }

    #[test]
    fn solves_requiring_pivoting() {
        // Zero on the structural diagonal forces off-diagonal pivots.
        let (m, _) = csc_from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let mut lu = SparseLu::factor(&m).unwrap();
        let mut b = [5.0, 7.0];
        lu.solve_in_place(&mut b);
        assert!((b[0] - 7.0).abs() < 1e-14);
        assert!((b[1] - 5.0).abs() < 1e-14);
    }

    #[test]
    fn detects_singularity() {
        let (m, _) = csc_from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(SparseLu::factor(&m).is_err());
    }

    #[test]
    fn matches_dense_with_fill_in() {
        // Arrow matrix: maximal fill-in if ordered badly; the preorder
        // must keep the hub column last.
        let rows: &[&[f64]] = &[
            &[10.0, 0.0, 0.0, 0.0, 1.0],
            &[0.0, 11.0, 0.0, 0.0, 2.0],
            &[0.0, 0.0, 12.0, 0.0, 3.0],
            &[0.0, 0.0, 0.0, 13.0, 4.0],
            &[1.0, 2.0, 3.0, 4.0, 20.0],
        ];
        let (m, _) = csc_from_rows(rows);
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        let dense = lu::solve(m.to_dense(), &b).unwrap();
        let mut lu = SparseLu::factor(&m).unwrap();
        let mut x = b;
        lu.solve_in_place(&mut x);
        for k in 0..5 {
            assert!((x[k] - dense[k]).abs() < 1e-12, "x[{k}]");
        }
        // The arrow pattern admits a fill-free elimination order.
        assert_eq!(lu.factor_nnz(), m.nnz() - 5);
    }

    #[test]
    fn refactor_tracks_new_values() {
        let rows: &[&[f64]] = &[&[4.0, -1.0, 0.0], &[-1.0, 4.0, -1.0], &[0.0, -1.0, 4.0]];
        let (mut m, slots) = csc_from_rows(rows);
        let mut lu = SparseLu::factor(&m).unwrap();

        // Newton-style value change on the same pattern.
        m.clear_values();
        let new_vals = [7.0, -2.0, -2.0, 6.0, -3.0, -3.0, 9.0];
        for (k, &v) in new_vals.iter().enumerate() {
            m.values_mut()[slots[k]] += v;
        }
        lu.refactor(&m).unwrap();

        let b = [1.0, -2.0, 0.5];
        let dense = lu::solve(m.to_dense(), &b).unwrap();
        let mut x = b;
        lu.solve_in_place(&mut x);
        for k in 0..3 {
            assert!((x[k] - dense[k]).abs() < 1e-12, "x[{k}]");
        }
    }

    #[test]
    fn refactor_reports_degraded_pivot() {
        let rows: &[&[f64]] = &[&[1.0, 0.0], &[0.0, 1.0]];
        let (mut m, slots) = csc_from_rows(rows);
        let mut lu = SparseLu::factor(&m).unwrap();
        m.clear_values();
        m.values_mut()[slots[0]] = 1.0;
        m.values_mut()[slots[1]] = 0.0; // diagonal collapses
        assert!(lu.refactor(&m).is_err());
        // The workspace must stay clean for the next operation.
        m.values_mut()[slots[1]] = 2.0;
        lu.refactor(&m).unwrap();
        let mut b = [3.0, 8.0];
        lu.solve_in_place(&mut b);
        assert!((b[0] - 3.0).abs() < 1e-15 && (b[1] - 4.0).abs() < 1e-15);
    }

    #[test]
    fn complex_system() {
        let mut tb = TripletBuilder::new(2);
        tb.add(0, 0);
        tb.add(0, 1);
        tb.add(1, 0);
        tb.add(1, 1);
        let (mut m, slots) = tb.compile::<Complex>();
        let vals = [
            Complex::new(1.0, 1.0),
            Complex::new(0.0, -1.0),
            Complex::new(0.0, 1.0),
            Complex::new(2.0, 0.0),
        ];
        for (k, &v) in vals.iter().enumerate() {
            m.values_mut()[slots[k]] += v;
        }
        let b = [Complex::new(1.0, 0.0), Complex::new(0.0, 1.0)];
        let dense = lu::solve(m.to_dense(), &b).unwrap();
        let mut x = b;
        let mut lu = SparseLu::factor(&m).unwrap();
        lu.solve_in_place(&mut x);
        for k in 0..2 {
            assert!((x[k] - dense[k]).abs() < 1e-13, "x[{k}]");
        }
    }

    #[test]
    fn ladder_matches_dense_over_refactor_sweep() {
        // Tridiagonal resistor-ladder conductance pattern, the canonical
        // MNA shape, across several value sets reusing one symbolic.
        let n = 40;
        let mut tb = TripletBuilder::new(n);
        for i in 0..n {
            tb.add(i, i);
            if i + 1 < n {
                tb.add(i, i + 1);
                tb.add(i + 1, i);
            }
        }
        let (mut m, slots) = tb.compile::<f64>();
        let mut lu: Option<SparseLu<f64>> = None;
        for sweep in 1..5 {
            m.clear_values();
            let g = sweep as f64;
            let mut k = 0;
            for i in 0..n {
                m.values_mut()[slots[k]] += 2.0 * g + 0.1 * i as f64;
                k += 1;
                if i + 1 < n {
                    m.values_mut()[slots[k]] += -g;
                    m.values_mut()[slots[k + 1]] += -g;
                    k += 2;
                }
            }
            match lu.as_mut() {
                None => lu = Some(SparseLu::factor(&m).unwrap()),
                Some(f) => f.refactor(&m).unwrap(),
            }
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            let dense = lu::solve(m.to_dense(), &b).unwrap();
            let mut x = b.clone();
            lu.as_mut().unwrap().solve_in_place(&mut x);
            for i in 0..n {
                assert!((x[i] - dense[i]).abs() < 1e-10, "sweep {sweep} x[{i}]");
            }
            // Tridiagonal systems factor with zero fill-in.
            assert_eq!(lu.as_ref().unwrap().factor_nnz(), m.nnz() - n);
        }
    }

    #[test]
    fn mul_vec_matches_dense() {
        let (m, _) = csc_from_rows(&[&[1.0, 2.0, 0.0], &[0.0, 3.0, 4.0], &[5.0, 0.0, 6.0]]);
        let x = [1.0, -1.0, 2.0];
        assert_eq!(m.mul_vec(&x), m.to_dense().mul_vec(&x));
    }
}
