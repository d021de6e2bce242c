//! Per-analysis linear-solver workspace: assembled values, right-hand
//! side, solution and factor storage reused across Newton iterations,
//! timesteps, and frequency points.
//!
//! The workspace's kernel implements
//! [`MnaSink`], so the stamp assemblers
//! write into it directly. The dense backend accumulates into a
//! [`Matrix`] and refactors in place; the sparse backend records the
//! stamp's `(row, col)` call sequence on the first assembly, compiles it
//! once into compressed-sparse-column storage plus a slot table, and
//! replays every later assembly through precomputed value indices — no
//! coordinate lookups, no `n x n` writes, and no heap allocation in the
//! Newton hot loop. The LU symbolic pattern (ordering and fill-in) is
//! likewise computed once and reused numerically per solve.

use crate::analysis::stamp::MnaSink;
use crate::circuit::Prepared;
use crate::devices::Stamper;
use crate::error::SpiceError;
use ahfic_num::lu::{LuFactors, SingularMatrixError};
use ahfic_num::sparse::{CscMatrix, SparseLu, TripletBuilder};
use ahfic_num::{Matrix, Scalar};
use ahfic_trace::SolverStats;
use std::time::Instant;

/// Linear-solver selection, set via
/// [`Options::solver`](crate::analysis::stamp::Options::solver).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SolverChoice {
    /// Sparse at or above [`AUTO_SPARSE_MIN_N`] unknowns, dense below.
    #[default]
    Auto,
    /// Dense LU regardless of system size.
    Dense,
    /// Sparse LU with symbolic-pattern reuse regardless of system size.
    Sparse,
}

/// Unknown count at which [`SolverChoice::Auto`] switches from dense to
/// sparse. Below this the dense factorization's tight inner loops beat
/// the sparse scatter/gather bookkeeping.
pub const AUTO_SPARSE_MIN_N: usize = 16;

/// The matrix-side storage of a workspace, with its LU factors: either a
/// dense matrix or the sparse record/replay machinery.
///
/// One `Kernel` exists per analysis, so the dense/sparse size imbalance
/// costs nothing; boxing would only add indirection on the hot path.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Kernel<T: Scalar> {
    /// Dense kernel: stamp into a [`Matrix`], refactor into a reused
    /// [`LuFactors`] buffer.
    Dense {
        mat: Matrix<T>,
        lu: Option<LuFactors<T>>,
        /// Checkpointed matrix values (linear-baseline replay).
        base: Option<Matrix<T>>,
    },
    /// Sparse kernel with slot replay.
    Sparse {
        /// True while the current assembly records its stamp sequence.
        recording: bool,
        /// `(row, col)` of every stamp, in call order.
        coords: Vec<(usize, usize)>,
        /// Values captured alongside `coords` during a recording pass.
        rec_vals: Vec<T>,
        /// CSC value index of the k-th stamp.
        slots: Vec<usize>,
        /// Compiled matrix (present once the pattern is recorded).
        csc: Option<CscMatrix<T>>,
        /// Next stamp index during replay.
        cursor: usize,
        /// A replayed stamp disagreed with the recorded sequence.
        mismatch: bool,
        lu: Option<SparseLu<T>>,
        /// Checkpointed CSC values (linear-baseline replay).
        base_vals: Vec<T>,
        /// Stamp cursor captured alongside `base_vals`.
        base_cursor: usize,
    },
}

/// A sparse kernel's frozen stamp sequence, borrowed for one stamping
/// pass: each stamp is checked against the recorded `(row, col)` and
/// accumulated straight into its CSC value slot.
pub(crate) struct ReplayTape<'a, T> {
    coords: &'a [(usize, usize)],
    slots: &'a [usize],
    values: &'a mut [T],
    /// Next stamp index.
    cursor: &'a mut usize,
    /// Set when a stamp disagrees with the recorded sequence.
    mismatch: &'a mut bool,
}

impl<T: Scalar> ReplayTape<'_, T> {
    /// Accumulates `v` at `(r, c)`, the next stamp of the sequence.
    #[inline]
    pub(crate) fn add(&mut self, r: usize, c: usize, v: T) {
        let k = *self.cursor;
        if k < self.slots.len() && self.coords[k] == (r, c) {
            self.values[self.slots[k]] += v;
            *self.cursor = k + 1;
        } else {
            *self.mismatch = true;
        }
    }
}

impl<T: Scalar> Kernel<T> {
    /// The replay tape of a sparse kernel whose pattern is compiled;
    /// the kernel itself while it records, and for the dense kernel.
    fn tape(&mut self) -> Result<ReplayTape<'_, T>, &mut Self> {
        match self {
            Kernel::Sparse {
                recording: false,
                coords,
                slots,
                csc: Some(m),
                cursor,
                mismatch,
                ..
            } => Ok(ReplayTape {
                coords,
                slots,
                values: m.values_mut(),
                cursor,
                mismatch,
            }),
            other => Err(other),
        }
    }
}

// The `expect`s below encode the kernel's own state machine (a pattern
// exists once recording finished, factors exist after `factor()`), not
// user input; a violation is a bug in this module, so panicking is the
// correct response and the lint is silenced for these impls.
#[allow(clippy::expect_used)]
impl<T: Scalar> MnaSink<T> for Kernel<T> {
    fn reset(&mut self) {
        match self {
            Kernel::Dense { mat, .. } => mat.clear(),
            Kernel::Sparse {
                recording,
                coords,
                rec_vals,
                csc,
                cursor,
                mismatch,
                ..
            } => {
                if *recording {
                    coords.clear();
                    rec_vals.clear();
                } else {
                    csc.as_mut().expect("compiled pattern").clear_values();
                }
                *cursor = 0;
                *mismatch = false;
            }
        }
    }

    #[inline]
    fn add(&mut self, r: usize, c: usize, v: T) {
        match self {
            Kernel::Dense { mat, .. } => mat.add_at(r, c, v),
            Kernel::Sparse {
                recording: true,
                coords,
                rec_vals,
                ..
            } => {
                coords.push((r, c));
                rec_vals.push(v);
            }
            Kernel::Sparse { .. } => match self.tape() {
                Ok(mut tape) => tape.add(r, c, v),
                Err(_) => unreachable!("a replaying sparse kernel has a compiled pattern"),
            },
        }
    }

    fn stamper<'a>(&'a mut self, rhs: &'a mut [T]) -> Stamper<'a, T> {
        match self.tape() {
            Ok(tape) => Stamper::replaying(tape, rhs),
            Err(sink) => Stamper::new(sink, rhs),
        }
    }
}

/// Reusable solver state for one analysis (one fixed stamp sequence).
///
/// Lifecycle per linear solve:
///
/// ```text
/// loop {
///     assemble(.., &mut ws.kernel, &mut ws.rhs, ..);
///     if !ws.finish_assembly() { break; }   // true at most once per pattern
/// }
/// ws.factor()?;
/// let x = ws.solve();                       // borrows ws until next use
/// ```
pub struct SolverWorkspace<T: Scalar> {
    n: usize,
    pub(crate) kernel: Kernel<T>,
    /// Right-hand side, filled by the assemblers.
    pub(crate) rhs: Vec<T>,
    x: Vec<T>,
    /// Checkpointed right-hand side (linear-baseline replay).
    base_rhs: Vec<T>,
    /// Whether the checkpoint matches the current pattern and inputs.
    base_valid: bool,
    /// Factor/solve counters. The counts are plain integer adds and are
    /// always maintained; wall times stay zero unless
    /// [`SolverWorkspace::set_timing`] enabled clock reads.
    pub stats: SolverStats,
    timing: bool,
}

// Same state-machine invariants as the `MnaSink` impl above.
#[allow(clippy::expect_used)]
impl<T: Scalar> SolverWorkspace<T> {
    /// Allocates a workspace for an `n`-unknown system.
    pub fn new(n: usize, choice: SolverChoice) -> Self {
        let sparse = match choice {
            SolverChoice::Dense => false,
            SolverChoice::Sparse => true,
            SolverChoice::Auto => n >= AUTO_SPARSE_MIN_N,
        };
        let kernel = if sparse {
            Kernel::Sparse {
                recording: true,
                coords: Vec::new(),
                rec_vals: Vec::new(),
                slots: Vec::new(),
                csc: None,
                cursor: 0,
                mismatch: false,
                lu: None,
                base_vals: Vec::new(),
                base_cursor: 0,
            }
        } else {
            Kernel::Dense {
                mat: Matrix::zeros(n, n),
                lu: None,
                base: None,
            }
        };
        SolverWorkspace {
            n,
            kernel,
            rhs: vec![T::ZERO; n],
            x: Vec::with_capacity(n),
            base_rhs: vec![T::ZERO; n],
            base_valid: false,
            stats: SolverStats::default(),
            timing: false,
        }
    }

    /// System dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Enables (or disables) wall-time accumulation in
    /// [`SolverWorkspace::stats`]. Off by default so untraced analyses
    /// never read the clock in their hot loops.
    pub fn set_timing(&mut self, on: bool) {
        self.timing = on;
    }

    /// Whether the sparse backend is active.
    pub fn is_sparse(&self) -> bool {
        matches!(self.kernel, Kernel::Sparse { .. })
    }

    /// Completes an assembly pass. Returns `true` when the stamp pattern
    /// just changed — first assembly, or a replay that diverged from the
    /// recorded sequence — and the caller must rerun the assembly. This
    /// happens at most once per pattern change, so `loop { assemble;
    /// if !finish_assembly() { break } }` terminates after two passes in
    /// the worst case.
    pub fn finish_assembly(&mut self) -> bool {
        let n = self.n;
        let changed = match &mut self.kernel {
            Kernel::Dense { .. } => false,
            Kernel::Sparse {
                recording,
                coords,
                rec_vals,
                slots,
                csc,
                cursor,
                mismatch,
                lu,
                ..
            } => {
                if *recording {
                    let mut tb = TripletBuilder::new(n);
                    for &(r, c) in coords.iter() {
                        tb.add(r, c);
                    }
                    let (mut m, sl) = tb.compile::<T>();
                    for (k, &v) in rec_vals.iter().enumerate() {
                        m.values_mut()[sl[k]] += v;
                    }
                    *slots = sl;
                    *csc = Some(m);
                    *recording = false;
                    rec_vals.clear();
                    false
                } else if *mismatch || *cursor != slots.len() {
                    // The stamp sequence changed under a frozen pattern;
                    // drop pattern and factors and re-record.
                    *recording = true;
                    *csc = None;
                    *lu = None;
                    true
                } else {
                    false
                }
            }
        };
        if changed {
            // The checkpoint was taken against the old pattern.
            self.base_valid = false;
        }
        changed
    }

    /// Whether the sparse backend still needs its stamp pattern — either
    /// recorded on a first assembly pass or handed over up front via
    /// [`SolverWorkspace::preset_pattern`]. Always `false` for dense.
    pub fn needs_pattern(&self) -> bool {
        matches!(
            self.kernel,
            Kernel::Sparse {
                recording: true,
                csc: None,
                ..
            }
        )
    }

    /// Installs a known stamp `(row, col)` sequence, compiling the sparse
    /// pattern directly so the first assembly replays through value slots
    /// instead of running a triplet-recording pass. No-op for dense.
    pub fn preset_pattern(&mut self, pattern: &[(usize, usize)]) {
        let n = self.n;
        if let Kernel::Sparse {
            recording,
            coords,
            slots,
            csc,
            cursor,
            mismatch,
            lu,
            ..
        } = &mut self.kernel
        {
            let mut tb = TripletBuilder::new(n);
            for &(r, c) in pattern {
                tb.add(r, c);
            }
            let (m, sl) = tb.compile::<T>();
            coords.clear();
            coords.extend_from_slice(pattern);
            *slots = sl;
            *csc = Some(m);
            *recording = false;
            *cursor = 0;
            *mismatch = false;
            *lu = None;
            self.base_valid = false;
        }
    }

    /// Snapshots the current matrix values and right-hand side as the
    /// linear baseline. During a sparse recording pass there is nothing
    /// to snapshot yet, so the checkpoint is marked invalid and the next
    /// full assembly re-establishes it.
    pub fn checkpoint(&mut self) {
        match &mut self.kernel {
            Kernel::Dense { mat, base, .. } => {
                match base {
                    Some(b) => b.as_mut_slice().copy_from_slice(mat.as_slice()),
                    None => *base = Some(mat.clone()),
                }
                self.base_rhs.copy_from_slice(&self.rhs);
                self.base_valid = true;
            }
            Kernel::Sparse {
                recording,
                csc,
                cursor,
                base_vals,
                base_cursor,
                ..
            } => {
                if *recording {
                    self.base_valid = false;
                    return;
                }
                let m = csc.as_mut().expect("compiled pattern");
                base_vals.clear();
                base_vals.extend_from_slice(m.values_mut());
                *base_cursor = *cursor;
                self.base_rhs.copy_from_slice(&self.rhs);
                self.base_valid = true;
            }
        }
    }

    /// Rewinds matrix and right-hand side to the last
    /// [`SolverWorkspace::checkpoint`]. Returns `false` (and touches
    /// nothing) when no valid checkpoint exists — the caller must then
    /// assemble the baseline in full.
    pub fn restore(&mut self) -> bool {
        if !self.base_valid {
            return false;
        }
        match &mut self.kernel {
            Kernel::Dense { mat, base, .. } => {
                let b = base.as_ref().expect("valid checkpoint has a base");
                mat.as_mut_slice().copy_from_slice(b.as_slice());
            }
            Kernel::Sparse {
                recording,
                csc,
                cursor,
                mismatch,
                base_vals,
                base_cursor,
                ..
            } => {
                if *recording {
                    return false;
                }
                let m = csc.as_mut().expect("compiled pattern");
                m.values_mut().copy_from_slice(base_vals);
                *cursor = *base_cursor;
                *mismatch = false;
            }
        }
        self.rhs.copy_from_slice(&self.base_rhs);
        true
    }

    /// Drops the linear-baseline checkpoint. Call whenever the inputs
    /// the baseline was stamped from (source values, mode, timestep) may
    /// have changed.
    pub fn invalidate_checkpoint(&mut self) {
        self.base_valid = false;
    }

    /// Factors the assembled matrix, reusing prior symbolic work and
    /// factor storage: the dense kernel refactors into its existing
    /// buffers; the sparse kernel replays the frozen pivot order and
    /// fill pattern, falling back to a full re-pivot on the same pattern
    /// if a replayed pivot collapses.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] with the pivot column when the
    /// matrix is singular to working precision (map with
    /// `singular_unknown` for reporting).
    pub fn factor(&mut self) -> Result<(), SingularMatrixError> {
        self.stats.factorizations += 1;
        let started = if self.timing {
            Some(Instant::now())
        } else {
            None
        };
        let result = match &mut self.kernel {
            Kernel::Dense { mat, lu, .. } => match lu {
                Some(f) => f.refactor_from(mat),
                None => LuFactors::factor(mat.clone()).map(|f| *lu = Some(f)),
            },
            Kernel::Sparse { csc, lu, .. } => {
                let m = csc.as_ref().expect("assembled before factor");
                match lu {
                    Some(f) => f
                        .refactor(m)
                        .or_else(|_| SparseLu::factor(m).map(|nf| *f = nf)),
                    None => SparseLu::factor(m).map(|f| *lu = Some(f)),
                }
            }
        };
        if let Some(t0) = started {
            self.stats.factor_seconds += t0.elapsed().as_secs_f64();
        }
        result
    }

    /// Solves against the current right-hand side using the stored
    /// factors; the returned slice stays valid until the next workspace
    /// use.
    ///
    /// # Panics
    ///
    /// Panics if [`SolverWorkspace::factor`] has not succeeded since the
    /// last pattern change.
    pub fn solve(&mut self) -> &[T] {
        self.stats.solves += 1;
        let started = if self.timing {
            Some(Instant::now())
        } else {
            None
        };
        match &mut self.kernel {
            Kernel::Dense { lu, .. } => {
                lu.as_ref()
                    .expect("factored")
                    .solve_into(&self.rhs, &mut self.x);
            }
            Kernel::Sparse { lu, .. } => {
                self.x.clear();
                self.x.extend_from_slice(&self.rhs);
                lu.as_mut().expect("factored").solve_in_place(&mut self.x);
            }
        }
        if let Some(t0) = started {
            self.stats.solve_seconds += t0.elapsed().as_secs_f64();
        }
        &self.x
    }

    /// A copy of the current factors, still solvable after the workspace
    /// has moved on to another matrix.
    ///
    /// # Panics
    ///
    /// Panics if [`SolverWorkspace::factor`] has not succeeded since the
    /// last pattern change.
    pub(crate) fn stored_lu(&self) -> StoredLu<T> {
        match &self.kernel {
            Kernel::Dense { lu, .. } => StoredLu::Dense(lu.as_ref().expect("factored").clone()),
            Kernel::Sparse { lu, .. } => StoredLu::Sparse(lu.as_ref().expect("factored").clone()),
        }
    }
}

/// LU factors copied out of a [`SolverWorkspace`] by
/// [`SolverWorkspace::stored_lu`]; the periodic small-signal analysis
/// keeps one per grid step of the orbit.
pub(crate) enum StoredLu<T: Scalar> {
    Dense(LuFactors<T>),
    Sparse(SparseLu<T>),
}

impl<T: Scalar> StoredLu<T> {
    /// Solves `A x = b` in place (`b` becomes `x`); `scratch` is the
    /// dense path's output buffer.
    pub(crate) fn solve_in_place(&mut self, b: &mut [T], scratch: &mut Vec<T>) {
        match self {
            StoredLu::Dense(lu) => {
                lu.solve_into(b, scratch);
                b.copy_from_slice(scratch);
            }
            StoredLu::Sparse(lu) => lu.solve_in_place(b),
        }
    }
}

impl SolverWorkspace<f64> {
    /// NaN/Inf guard: whether every assembled matrix value and
    /// right-hand-side entry is finite. Called once per Newton iteration
    /// after assembly — a linear scan of the stored values, negligible
    /// next to the factorization — so a poisoned stamp (zero-valued
    /// part, overflowing model, injected fault) is caught before it can
    /// corrupt the factors and send Newton iterating on garbage.
    pub fn assembly_finite(&self) -> bool {
        let mat_ok = match &self.kernel {
            Kernel::Dense { mat, .. } => mat.as_slice().iter().all(|v| v.is_finite()),
            Kernel::Sparse { csc, .. } => csc
                .as_ref()
                .is_none_or(|m| m.values().iter().all(|v| v.is_finite())),
        };
        mat_ok && self.rhs.iter().all(|v| v.is_finite())
    }

    /// Fault-injection hook: overwrites one assembled matrix value with
    /// NaN, as a model evaluation gone wrong would.
    pub(crate) fn poison_nan(&mut self) {
        match &mut self.kernel {
            Kernel::Dense { mat, .. } => {
                if let Some(v) = mat.as_mut_slice().first_mut() {
                    *v = f64::NAN;
                }
            }
            Kernel::Sparse { csc, .. } => {
                if let Some(v) = csc.as_mut().and_then(|m| m.values_mut().first_mut()) {
                    *v = f64::NAN;
                }
            }
        }
    }

    /// Fault-injection hook: zeroes the assembled matrix so the next
    /// factorization genuinely breaks down as singular.
    pub(crate) fn poison_singular(&mut self) {
        match &mut self.kernel {
            Kernel::Dense { mat, .. } => mat.as_mut_slice().fill(0.0),
            Kernel::Sparse { csc, .. } => {
                if let Some(m) = csc.as_mut() {
                    m.clear_values();
                }
            }
        }
    }
}

/// Maps a linear-solver breakdown to [`SpiceError::Singular`] with the
/// name of the offending unknown.
pub(crate) fn singular_unknown(prep: &Prepared, e: SingularMatrixError) -> SpiceError {
    SpiceError::Singular {
        unknown: prep
            .unknown_names
            .get(e.column)
            .cloned()
            .unwrap_or_else(|| format!("#{}", e.column)),
    }
}

/// Aggregate work profile of one [`parallel_freq_map`] run, merged from
/// every worker's private workspace.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ParStats {
    /// Worker threads actually spawned (1 for the inline path).
    pub threads: usize,
    /// Factor/solve counts and (if `timing`) wall times, summed over
    /// workers.
    pub solver: SolverStats,
}

/// Maps `work` over `points` (frequencies), splitting contiguous chunks
/// across `std::thread::scope` workers. Each worker owns a private
/// [`SolverWorkspace`], so within a chunk the symbolic pattern and factor
/// storage are reused from point to point. Results come back in input
/// order; the error at the lowest index wins. `timing` turns on
/// per-workspace factor/solve wall-time accumulation (reported merged in
/// the returned [`ParStats`]). `threads` is the caller's worker budget
/// ([`Options::threads`](crate::analysis::Options::threads) semantics:
/// `0` = auto-detect from available parallelism).
// Every slot is filled before the scope joins; a `None` is a bug here,
// not a recoverable condition.
#[allow(clippy::expect_used)]
pub(crate) fn parallel_freq_map<T, R, F>(
    n: usize,
    choice: SolverChoice,
    timing: bool,
    threads: usize,
    points: &[f64],
    work: F,
) -> crate::error::Result<(Vec<R>, ParStats)>
where
    T: Scalar,
    R: Send,
    F: Fn(&mut SolverWorkspace<T>, f64) -> crate::error::Result<R> + Sync,
{
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |c| c.get())
    } else {
        threads
    }
    .min(points.len().max(1));
    if threads <= 1 {
        let mut ws = SolverWorkspace::new(n, choice);
        ws.set_timing(timing);
        let out: crate::error::Result<Vec<R>> = points.iter().map(|&f| work(&mut ws, f)).collect();
        return out.map(|v| {
            (
                v,
                ParStats {
                    threads: 1,
                    solver: ws.stats,
                },
            )
        });
    }
    let chunk = points.len().div_ceil(threads);
    let mut results: Vec<Option<crate::error::Result<R>>> = Vec::with_capacity(points.len());
    results.resize_with(points.len(), || None);
    let num_chunks = points.len().div_ceil(chunk);
    let mut chunk_stats = vec![SolverStats::default(); num_chunks];
    let work = &work;
    std::thread::scope(|s| {
        for ((ps, rs), stat) in points
            .chunks(chunk)
            .zip(results.chunks_mut(chunk))
            .zip(chunk_stats.iter_mut())
        {
            s.spawn(move || {
                let mut ws = SolverWorkspace::new(n, choice);
                ws.set_timing(timing);
                for (&f, slot) in ps.iter().zip(rs.iter_mut()) {
                    *slot = Some(work(&mut ws, f));
                }
                *stat = ws.stats;
            });
        }
    });
    let mut solver = SolverStats::default();
    for st in &chunk_stats {
        solver.merge(st);
    }
    let out: crate::error::Result<Vec<R>> = results
        .into_iter()
        .map(|r| r.expect("worker filled every slot"))
        .collect();
    out.map(|v| {
        (
            v,
            ParStats {
                threads: num_chunks,
                solver,
            },
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::stamp::{
        assemble, update_all_charges, ChargeBank, Mode, NonlinMemory, Options,
    };
    use crate::circuit::Circuit;

    /// Drives a sparse and a dense workspace by hand through the same
    /// assemblies of a 2x2 system: record/replay and refactor must agree
    /// with a fresh dense LU solve on both kernels. The last round zeroes
    /// the `(0, 0)` entry, so the sparse refactor's replayed diagonal
    /// pivot collapses and the workspace must re-pivot on the same
    /// pattern.
    #[test]
    fn sparse_record_replay_solves() {
        let mut sparse: SolverWorkspace<f64> = SolverWorkspace::new(2, SolverChoice::Sparse);
        let mut dense: SolverWorkspace<f64> = SolverWorkspace::new(2, SolverChoice::Dense);
        assert!(sparse.is_sparse() && !dense.is_sparse());
        for scale in [1.0, 2.0, 3.0, 0.0] {
            let a = Matrix::from_rows(&[&[2.0 * scale, 1.0], &[1.0, 3.0 * scale + 1.0]]);
            let expect = ahfic_num::lu::solve(a, &[1.0, 2.0]).unwrap();
            for ws in [&mut sparse, &mut dense] {
                loop {
                    ws.kernel.reset();
                    ws.kernel.add(0, 0, 2.0 * scale);
                    ws.kernel.add(0, 1, 1.0);
                    ws.kernel.add(1, 0, 1.0);
                    ws.kernel.add(1, 1, 3.0 * scale);
                    ws.kernel.add(1, 1, 1.0); // duplicate slot accumulates
                    ws.rhs.copy_from_slice(&[1.0, 2.0]);
                    if !ws.finish_assembly() {
                        break;
                    }
                }
                ws.factor().unwrap();
                let x = ws.solve();
                for k in 0..2 {
                    assert!(
                        (x[k] - expect[k]).abs() < 1e-12,
                        "sparse={} scale {scale}",
                        ws.is_sparse()
                    );
                }
            }
        }
    }

    /// A singular sparse assembly reports its pivot column, and the
    /// column maps to the unknown's name.
    #[test]
    fn singular_sparse_assembly_names_the_unknown() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("V1", a, Circuit::gnd(), 1.0);
        c.resistor("R1", a, Circuit::gnd(), 1e3);
        let prep = Prepared::compile(&c).unwrap();
        let mut ws: SolverWorkspace<f64> =
            SolverWorkspace::new(prep.num_unknowns, SolverChoice::Sparse);
        ws.kernel.reset();
        ws.kernel.add(0, 0, 1.0); // column 1 is never stamped
        assert!(!ws.finish_assembly());
        let e = ws.factor().unwrap_err();
        assert_eq!(e.column, 1);
        match singular_unknown(&prep, e) {
            SpiceError::Singular { unknown } => assert_eq!(unknown, prep.unknown_names[1]),
            other => panic!("expected Singular, got {other:?}"),
        }
    }

    /// A changed stamp sequence is detected and re-recorded once, both
    /// through the sink and through a stamper writing the replay tape.
    #[test]
    fn pattern_change_triggers_rerecord() {
        let mut ws: SolverWorkspace<f64> = SolverWorkspace::new(2, SolverChoice::Sparse);
        ws.kernel.reset();
        ws.kernel.add(0, 0, 1.0);
        ws.kernel.add(1, 1, 1.0);
        assert!(!ws.finish_assembly());
        // Different sequence: extra off-diagonal stamp.
        ws.kernel.reset();
        ws.kernel.add(0, 0, 2.0);
        ws.kernel.add(0, 1, 5.0);
        ws.kernel.add(1, 1, 2.0);
        assert!(ws.finish_assembly(), "mismatch must request re-assembly");
        ws.kernel.reset();
        ws.kernel.add(0, 0, 2.0);
        ws.kernel.add(0, 1, 5.0);
        ws.kernel.add(1, 1, 2.0);
        assert!(!ws.finish_assembly());
        ws.rhs.copy_from_slice(&[2.0, 4.0]);
        ws.factor().unwrap();
        let x = ws.solve();
        assert!((x[1] - 2.0).abs() < 1e-12);
        assert!((x[0] - (2.0 - 5.0 * 2.0) / 2.0).abs() < 1e-12);

        // One pass through a stamper; `tape` reports whether it wrote the
        // replay tape directly.
        let stamp = |ws: &mut SolverWorkspace<f64>, seq: &[(usize, usize)]| {
            ws.kernel.reset();
            let tape = ws.kernel.tape().is_ok();
            let mut s = ws.kernel.stamper(&mut ws.rhs);
            for &(r, c) in seq {
                s.add(r, c, 1.0);
            }
            (tape, ws.finish_assembly())
        };
        let recorded = [(0, 0), (0, 1), (1, 1)];
        assert_eq!(stamp(&mut ws, &recorded), (true, false));
        let reordered = [(0, 0), (1, 1), (0, 1)];
        assert_eq!(stamp(&mut ws, &reordered), (true, true), "reordered");
        // Re-recorded through the sink, then replayed from the tape.
        assert_eq!(stamp(&mut ws, &reordered), (false, false));
        assert_eq!(stamp(&mut ws, &reordered), (true, false));
        assert_eq!(stamp(&mut ws, &reordered[..2]), (true, true), "short");
        assert_eq!(stamp(&mut ws, &recorded), (false, false));
        let long = [(0, 0), (0, 1), (1, 1), (1, 0)];
        assert_eq!(stamp(&mut ws, &long), (true, true), "long");
    }

    /// The stamper's replay tape writes the same bits as a dense
    /// assembly of the same deck: every matrix entry and right-hand-side
    /// row, in DC and in transient mode (with the charge companions).
    #[test]
    fn replay_tape_assembly_matches_dense_bitwise() {
        let deck = "* two-stage BJT amplifier\n\
            .model qn NPN (BF=80 RB=150 RE=2 RC=20 CJE=50f CJC=30f XCJC=0.6 \
            CJS=40f TF=10p XTF=2 VTF=3 ITF=10m TR=1n VAF=40 IKF=10m ISE=1f)\n\
            VCC vcc 0 5\nVIN in 0 SIN(0.9 10m 100meg)\nRS in b1 1k\n\
            Q1 c1 b1 e1 qn\nRC1 vcc c1 2k\nRE1 e1 0 200\nCE1 e1 0 10p\n\
            Q2 vcc c1 out qn\nRL out 0 1k\nCL out 0 1p\n.end\n";
        let prep = Prepared::compile(&crate::parse::parse_netlist(deck).unwrap()).unwrap();
        let opts = Options::default();
        let n = prep.num_unknowns;
        let x0 = crate::analysis::op::op_eval(&prep, &opts).unwrap().x;
        let mut bank = ChargeBank::new(&prep);
        let mut states = bank.states.clone();
        let init = Mode::Tran {
            time: 0.0,
            a: 0.0,
            bank: &bank,
            x_prev: &x0,
        };
        update_all_charges(&prep, &x0, &opts, &init, &mut states);
        bank.states = states;
        // Off the operating point, so the replayed values differ from the
        // recorded ones.
        let x: Vec<f64> = x0
            .iter()
            .enumerate()
            .map(|(k, v)| v + 0.05 * (k % 3) as f64)
            .collect();
        let mut mem = NonlinMemory::new(&prep);
        let dc = Mode::Dc { source_scale: 1.0 };
        assemble(
            &prep,
            &x0,
            &opts,
            &dc,
            &mut mem,
            &mut Matrix::zeros(n, n),
            &mut vec![0.0; n],
        );
        let tran = Mode::Tran {
            time: 1e-9,
            a: 2e11,
            bank: &bank,
            x_prev: &x0,
        };
        for mode in [dc, tran] {
            let mut ws: SolverWorkspace<f64> = SolverWorkspace::new(n, SolverChoice::Sparse);
            assemble(
                &prep,
                &x0,
                &opts,
                &mode,
                &mut mem.clone(),
                &mut ws.kernel,
                &mut ws.rhs,
            );
            assert!(!ws.finish_assembly());
            assert!(ws.kernel.tape().is_ok(), "pattern compiled");
            assemble(
                &prep,
                &x,
                &opts,
                &mode,
                &mut mem.clone(),
                &mut ws.kernel,
                &mut ws.rhs,
            );
            assert!(!ws.finish_assembly(), "replay kept the pattern");
            let mut dense = Matrix::zeros(n, n);
            let mut rhs = vec![0.0; n];
            assemble(
                &prep,
                &x,
                &opts,
                &mode,
                &mut mem.clone(),
                &mut dense,
                &mut rhs,
            );
            let Kernel::Sparse { csc: Some(m), .. } = &ws.kernel else {
                panic!("sparse kernel with a compiled pattern");
            };
            let replayed = m.to_dense();
            for r in 0..n {
                for c in 0..n {
                    assert_eq!(
                        replayed[(r, c)].to_bits(),
                        dense[(r, c)].to_bits(),
                        "{mode:?} ({r}, {c})"
                    );
                }
                assert_eq!(ws.rhs[r].to_bits(), rhs[r].to_bits(), "{mode:?} rhs {r}");
            }
        }
    }

    /// Auto picks dense for small systems and sparse for large ones.
    #[test]
    fn auto_threshold() {
        let small: SolverWorkspace<f64> = SolverWorkspace::new(4, SolverChoice::Auto);
        assert!(!small.is_sparse());
        let large: SolverWorkspace<f64> =
            SolverWorkspace::new(AUTO_SPARSE_MIN_N, SolverChoice::Auto);
        assert!(large.is_sparse());
    }

    /// The parallel mapper preserves order and reports the first error.
    #[test]
    fn parallel_map_orders_results() {
        let points: Vec<f64> = (0..37).map(|k| k as f64).collect();
        let (out, stats) =
            parallel_freq_map::<f64, f64, _>(4, SolverChoice::Dense, false, 0, &points, |ws, f| {
                assert_eq!(ws.dim(), 4);
                Ok(2.0 * f)
            })
            .unwrap();
        assert_eq!(out.len(), 37);
        assert!(stats.threads >= 1);
        for (k, v) in out.iter().enumerate() {
            assert_eq!(*v, 2.0 * k as f64);
        }
        // An explicit budget of one thread must take the inline path.
        let (_, pinned) =
            parallel_freq_map::<f64, f64, _>(4, SolverChoice::Dense, false, 1, &points, |_, f| {
                Ok(f)
            })
            .unwrap();
        assert_eq!(pinned.threads, 1);
        let err =
            parallel_freq_map::<f64, f64, _>(4, SolverChoice::Dense, false, 0, &points, |_, f| {
                if f >= 5.0 {
                    Err(SpiceError::Measure(format!("boom {f}")))
                } else {
                    Ok(f)
                }
            });
        match err {
            Err(SpiceError::Measure(m)) => assert_eq!(m, "boom 5"),
            other => panic!("expected first error, got {other:?}"),
        }
    }

    /// Checkpoint/restore rewinds matrix and rhs to the linear baseline,
    /// and `preset_pattern` skips the sparse recording pass entirely.
    #[test]
    fn checkpoint_restore_replays_baseline() {
        // (choice, preset): the sparse backend is exercised both with a
        // declared pattern and with first-pass recording.
        for (choice, preset) in [
            (SolverChoice::Dense, false),
            (SolverChoice::Sparse, true),
            (SolverChoice::Sparse, false),
        ] {
            let mut ws: SolverWorkspace<f64> = SolverWorkspace::new(2, choice);
            if preset {
                assert!(ws.needs_pattern());
                ws.preset_pattern(&[(0, 0), (0, 1), (1, 0), (1, 1), (1, 1)]);
                assert!(!ws.needs_pattern());
            }
            assert!(!ws.restore(), "no checkpoint yet");
            for round in 0..3 {
                let g = 1.0 + round as f64; // stands in for the nonlinear part
                loop {
                    if !ws.restore() {
                        ws.kernel.reset();
                        ws.kernel.add(0, 0, 2.0);
                        ws.kernel.add(0, 1, -1.0);
                        ws.kernel.add(1, 0, -1.0);
                        ws.kernel.add(1, 1, 1.0);
                        ws.rhs.copy_from_slice(&[1.0, 0.0]);
                        ws.checkpoint();
                    }
                    ws.kernel.add(1, 1, g);
                    ws.rhs[1] += g;
                    if !ws.finish_assembly() {
                        break;
                    }
                }
                ws.factor().unwrap();
                let x = ws.solve().to_vec();
                let a = Matrix::from_rows(&[&[2.0, -1.0], &[-1.0, 1.0 + g]]);
                let expect = ahfic_num::lu::solve(a, &[1.0, g]).unwrap();
                for k in 0..2 {
                    assert!(
                        (x[k] - expect[k]).abs() < 1e-12,
                        "{choice:?} preset={preset} round {round}: {} vs {}",
                        x[k],
                        expect[k]
                    );
                }
            }
            ws.invalidate_checkpoint();
            assert!(!ws.restore(), "invalidated checkpoint must not restore");
        }
    }

    /// Counters tick on every factor/solve; timing stays zero when off.
    #[test]
    fn workspace_stats_count_factor_and_solve() {
        let mut ws: SolverWorkspace<f64> = SolverWorkspace::new(2, SolverChoice::Dense);
        ws.kernel.reset();
        ws.kernel.add(0, 0, 1.0);
        ws.kernel.add(1, 1, 2.0);
        ws.finish_assembly();
        ws.rhs.copy_from_slice(&[1.0, 4.0]);
        ws.factor().unwrap();
        ws.solve();
        ws.solve();
        assert_eq!(ws.stats.factorizations, 1);
        assert_eq!(ws.stats.solves, 2);
        assert_eq!(ws.stats.factor_seconds, 0.0);
        assert_eq!(ws.stats.solve_seconds, 0.0);

        let mut ws: SolverWorkspace<f64> = SolverWorkspace::new(2, SolverChoice::Dense);
        ws.set_timing(true);
        ws.kernel.reset();
        ws.kernel.add(0, 0, 1.0);
        ws.kernel.add(1, 1, 2.0);
        ws.finish_assembly();
        ws.rhs.copy_from_slice(&[1.0, 4.0]);
        ws.factor().unwrap();
        ws.solve();
        assert!(ws.stats.factor_seconds > 0.0);
        assert!(ws.stats.solve_seconds > 0.0);
    }
}
