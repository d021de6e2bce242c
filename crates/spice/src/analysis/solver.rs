//! Per-analysis linear-solver workspace: assembled values, right-hand
//! side, solution and factor storage reused across Newton iterations,
//! timesteps, and frequency points.
//!
//! Every linear solve runs on one kernel, sparse LU with record/replay.
//! The workspace's kernel implements [`MnaSink`], so the stamp
//! assemblers write into it directly: it records the stamp's
//! `(row, col)` call sequence on the first assembly, compiles it once
//! into compressed-sparse-column storage plus a slot table, and replays
//! every later assembly through precomputed value indices — no
//! coordinate lookups, no `n x n` writes, and no heap allocation in the
//! Newton hot loop. The LU symbolic pattern (ordering and fill-in) is
//! likewise computed once and reused numerically per solve. The dense
//! [`ahfic_num::LuFactors`] is kept only as the reference the tests hold
//! this kernel to.
//!
//! Frequency sweeps (`parallel_freq_map`) factor their first point
//! once and replay its pivot order on every other point, so their
//! results do not depend on how the points are split across threads.

use crate::analysis::stamp::MnaSink;
use crate::circuit::Prepared;
use crate::devices::Stamper;
use crate::error::SpiceError;
use ahfic_num::lu::SingularMatrixError;
use ahfic_num::sparse::{CscMatrix, SparseLu, TripletBuilder};
use ahfic_num::Scalar;
use ahfic_trace::SolverStats;
use std::time::Instant;

/// The matrix side of a workspace: the recorded stamp sequence and,
/// once it is compiled, the CSC matrix its stamps replay into.
#[derive(Clone, Default)]
pub(crate) struct Kernel<T: Scalar> {
    /// `(row, col)` of every stamp, in call order.
    coords: Vec<(usize, usize)>,
    /// Values captured alongside `coords` during a recording pass.
    rec_vals: Vec<T>,
    /// CSC value index of the k-th stamp.
    slots: Vec<usize>,
    /// Compiled matrix; `None` while the assembly records its stamp
    /// sequence.
    csc: Option<CscMatrix<T>>,
    /// Next stamp index during replay.
    cursor: usize,
    /// A replayed stamp disagreed with the recorded sequence.
    mismatch: bool,
    /// Checkpointed CSC values (linear-baseline replay).
    base_vals: Vec<T>,
    /// Stamp cursor captured alongside `base_vals`.
    base_cursor: usize,
}

/// A kernel's frozen stamp sequence, borrowed for one stamping pass:
/// each stamp is checked against the recorded `(row, col)` and
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
    /// The replay tape once the pattern is compiled; the kernel itself
    /// while it records.
    fn tape(&mut self) -> Result<ReplayTape<'_, T>, &mut Self> {
        match self {
            Kernel {
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

impl<T: Scalar> MnaSink<T> for Kernel<T> {
    fn reset(&mut self) {
        match &mut self.csc {
            Some(m) => m.clear_values(),
            None => {
                self.coords.clear();
                self.rec_vals.clear();
            }
        }
        self.cursor = 0;
        self.mismatch = false;
    }

    #[inline]
    fn add(&mut self, r: usize, c: usize, v: T) {
        match self.tape() {
            Ok(mut tape) => tape.add(r, c, v),
            Err(k) => {
                k.coords.push((r, c));
                k.rec_vals.push(v);
            }
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
#[derive(Clone)]
pub struct SolverWorkspace<T: Scalar> {
    n: usize,
    pub(crate) kernel: Kernel<T>,
    /// LU factors; their pivot order and fill pattern are replayed by
    /// every later factorization of the same stamp pattern.
    lu: Option<SparseLu<T>>,
    /// Whether a collapsed replay keeps `lu`'s pivot order for the next
    /// matrix (frequency sweeps) instead of adopting the new one.
    pinned: bool,
    /// Factors of the current matrix alone, when a pinned replay
    /// collapsed and the matrix was re-pivoted.
    repivoted: Option<SparseLu<T>>,
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
    /// Wall time of the Newton assembly passes on this workspace (the
    /// stamping of `op::newton_assemble`), when its owner reports it (a
    /// traced time-stepping run); `None`, and no clock read, otherwise.
    pub(crate) assemble_seconds: Option<f64>,
    timing: bool,
}

// The `expect`s below encode the workspace's own state machine (a
// pattern exists once recording finished, factors exist after
// `factor()`), not user input; a violation is a bug in this module, so
// panicking is the correct response and the lint is silenced here.
#[allow(clippy::expect_used)]
impl<T: Scalar> SolverWorkspace<T> {
    /// Allocates a workspace for an `n`-unknown system.
    pub fn new(n: usize) -> Self {
        SolverWorkspace {
            n,
            kernel: Kernel::default(),
            lu: None,
            pinned: false,
            repivoted: None,
            rhs: vec![T::ZERO; n],
            x: Vec::with_capacity(n),
            base_rhs: vec![T::ZERO; n],
            base_valid: false,
            stats: SolverStats::default(),
            assemble_seconds: None,
            timing: false,
        }
    }

    /// System dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Enables (or disables) wall-time accumulation in
    /// [`SolverWorkspace::stats`]. Off by default so untraced analyses
    /// never read the clock in their hot loops. Returns the previous
    /// setting.
    pub fn set_timing(&mut self, on: bool) -> bool {
        std::mem::replace(&mut self.timing, on)
    }

    /// The start of a timed phase: the time now when timing is on, else
    /// `None` without reading the clock.
    pub(crate) fn clock(&self) -> Option<Instant> {
        self.timing.then(Instant::now)
    }

    /// Completes an assembly pass. Returns `true` when the stamp pattern
    /// just changed — a replay that diverged from the recorded sequence
    /// — and the caller must rerun the assembly. This happens at most
    /// once per pattern change, so `loop { assemble; if
    /// !finish_assembly() { break } }` terminates after two passes in
    /// the worst case.
    pub fn finish_assembly(&mut self) -> bool {
        let k = &mut self.kernel;
        if k.csc.is_none() {
            let mut tb = TripletBuilder::new(self.n);
            for &(r, c) in &k.coords {
                tb.add(r, c);
            }
            let (mut m, slots) = tb.compile::<T>();
            for (&slot, &v) in slots.iter().zip(&k.rec_vals) {
                m.values_mut()[slot] += v;
            }
            k.slots = slots;
            k.csc = Some(m);
            k.rec_vals.clear();
            return false;
        }
        if !k.mismatch && k.cursor == k.slots.len() {
            return false;
        }
        // The stamp sequence changed under a frozen pattern: drop
        // pattern, factors and checkpoint, and re-record.
        k.csc = None;
        self.lu = None;
        self.repivoted = None;
        self.base_valid = false;
        true
    }

    /// Whether the stamp pattern is still unknown — to be recorded on a
    /// first assembly pass or handed over up front via
    /// [`SolverWorkspace::preset_pattern`].
    pub fn needs_pattern(&self) -> bool {
        self.kernel.csc.is_none()
    }

    /// Installs a known stamp `(row, col)` sequence, compiling the
    /// pattern directly so the first assembly replays through value
    /// slots instead of running a triplet-recording pass.
    pub fn preset_pattern(&mut self, pattern: &[(usize, usize)]) {
        let mut tb = TripletBuilder::new(self.n);
        for &(r, c) in pattern {
            tb.add(r, c);
        }
        let (m, slots) = tb.compile::<T>();
        let k = &mut self.kernel;
        k.coords.clear();
        k.coords.extend_from_slice(pattern);
        k.slots = slots;
        k.csc = Some(m);
        k.cursor = 0;
        k.mismatch = false;
        self.lu = None;
        self.repivoted = None;
        self.base_valid = false;
    }

    /// Snapshots the current matrix values and right-hand side as the
    /// linear baseline. During a recording pass there is nothing to
    /// snapshot yet, so the checkpoint is marked invalid and the next
    /// full assembly re-establishes it.
    pub fn checkpoint(&mut self) {
        let k = &mut self.kernel;
        let Some(m) = &k.csc else {
            self.base_valid = false;
            return;
        };
        k.base_vals.clear();
        k.base_vals.extend_from_slice(m.values());
        k.base_cursor = k.cursor;
        self.base_rhs.copy_from_slice(&self.rhs);
        self.base_valid = true;
    }

    /// Rewinds matrix and right-hand side to the last
    /// [`SolverWorkspace::checkpoint`]. Returns `false` (and touches
    /// nothing) when no valid checkpoint exists — the caller must then
    /// assemble the baseline in full.
    pub fn restore(&mut self) -> bool {
        let k = &mut self.kernel;
        let (true, Some(m)) = (self.base_valid, &mut k.csc) else {
            return false;
        };
        m.values_mut().copy_from_slice(&k.base_vals);
        k.cursor = k.base_cursor;
        k.mismatch = false;
        self.rhs.copy_from_slice(&self.base_rhs);
        true
    }

    /// Drops the linear-baseline checkpoint. Call whenever the inputs
    /// the baseline was stamped from (source values, mode, timestep) may
    /// have changed.
    pub fn invalidate_checkpoint(&mut self) {
        self.base_valid = false;
    }

    /// Factors the assembled matrix, replaying the stored pivot order
    /// and fill pattern on the new values. If a replayed pivot
    /// collapses, the matrix is re-pivoted on the same pattern; the new
    /// pivot order replaces the stored one, except in a pinned sweep
    /// workspace, where it serves this matrix only.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] with the pivot column when the
    /// matrix is singular to working precision (map with
    /// `singular_unknown` for reporting).
    pub fn factor(&mut self) -> Result<(), SingularMatrixError> {
        self.stats.factorizations += 1;
        let started = self.timing.then(Instant::now);
        let m = self.kernel.csc.as_ref().expect("assembled before factor");
        self.repivoted = None;
        let result = match self.lu.as_mut() {
            Some(f) => match f.refactor(m) {
                Ok(()) => Ok(()),
                Err(_) if self.pinned => SparseLu::factor(m).map(|nf| self.repivoted = Some(nf)),
                Err(_) => SparseLu::factor(m).map(|nf| *f = nf),
            },
            None => SparseLu::factor(m).map(|f| self.lu = Some(f)),
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
        let started = self.timing.then(Instant::now);
        self.x.clear();
        self.x.extend_from_slice(&self.rhs);
        self.repivoted
            .as_mut()
            .or(self.lu.as_mut())
            .expect("factored")
            .solve_in_place(&mut self.x);
        if let Some(t0) = started {
            self.stats.solve_seconds += t0.elapsed().as_secs_f64();
        }
        &self.x
    }

    /// The assembled matrix.
    ///
    /// # Panics
    ///
    /// Panics while the assembly records its stamp sequence.
    pub(crate) fn matrix(&self) -> &CscMatrix<T> {
        self.kernel.csc.as_ref().expect("assembled")
    }

    /// The current factors, to copy out before the workspace moves on
    /// to another matrix.
    ///
    /// # Panics
    ///
    /// Panics if [`SolverWorkspace::factor`] has not succeeded since the
    /// last pattern change.
    pub(crate) fn factors(&self) -> &SparseLu<T> {
        self.repivoted
            .as_ref()
            .or(self.lu.as_ref())
            .expect("factored")
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
        let mat_ok = self
            .kernel
            .csc
            .as_ref()
            .is_none_or(|m| m.values().iter().all(|v| v.is_finite()));
        mat_ok && self.rhs.iter().all(|v| v.is_finite())
    }

    /// Fault-injection hook: overwrites one assembled matrix value with
    /// NaN, as a model evaluation gone wrong would.
    pub(crate) fn poison_nan(&mut self) {
        if let Some(v) = self
            .kernel
            .csc
            .as_mut()
            .and_then(|m| m.values_mut().first_mut())
        {
            *v = f64::NAN;
        }
    }

    /// Fault-injection hook: zeroes the assembled matrix so the next
    /// factorization genuinely breaks down as singular.
    pub(crate) fn poison_singular(&mut self) {
        if let Some(m) = self.kernel.csc.as_mut() {
            m.clear_values();
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
    /// Threads that mapped a chunk of points, the calling thread
    /// included (1 for the inline path).
    pub threads: usize,
    /// Factor/solve counts and (if `timing`) wall times, summed over
    /// workers.
    pub solver: SolverStats,
}

/// Maps `work` over `points` (frequencies) in contiguous chunks, one per
/// thread of the `threads` budget
/// ([`Options::threads`](crate::analysis::Options::threads) semantics:
/// `0` = auto-detect from available parallelism). Results come back in
/// input order; the error at the lowest index wins. `timing` turns on
/// per-workspace factor/solve wall-time accumulation (reported merged in
/// the returned [`ParStats`]).
///
/// The calling thread maps the first point, whose factorization fixes
/// the pivot order and fill pattern, and then the rest of the first
/// chunk; every other chunk runs on a scoped worker with its own copy of
/// that workspace. Each later point refactors on the first point's
/// pivots, and one whose replayed pivot collapses is re-pivoted for
/// itself alone, so every result is a function of its own matrix and the
/// first point's, whatever the thread count.
// Every slot up to a chunk's first error is filled before the scope
// joins; a `None` before an error is a bug here, not a recoverable
// condition.
#[allow(clippy::expect_used)]
pub(crate) fn parallel_freq_map<T, R, F>(
    n: usize,
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
    let Some(&first) = points.first() else {
        return Ok((
            Vec::new(),
            ParStats {
                threads: 1,
                solver: SolverStats::default(),
            },
        ));
    };
    let mut ws = SolverWorkspace::new(n);
    ws.set_timing(timing);
    ws.pinned = true;
    let head = work(&mut ws, first)?;
    let chunk = points.len().div_ceil(threads);
    let mut results: Vec<Option<crate::error::Result<R>>> = Vec::with_capacity(points.len());
    results.push(Some(Ok(head)));
    results.resize_with(points.len(), || None);
    let mut workers: Vec<SolverWorkspace<T>> = (chunk..points.len())
        .step_by(chunk)
        .map(|_| SolverWorkspace {
            stats: SolverStats::default(),
            ..ws.clone()
        })
        .collect();
    // Maps a chunk in order, stopping at its first error.
    let map_chunk = |ws: &mut SolverWorkspace<T>, ps: &[f64], rs: &mut [Option<_>]| {
        for (&f, slot) in ps.iter().zip(rs) {
            let r = work(ws, f);
            let failed = r.is_err();
            *slot = Some(r);
            if failed {
                break;
            }
        }
    };
    std::thread::scope(|s| {
        let mut chunks = points.chunks(chunk).zip(results.chunks_mut(chunk));
        let own = chunks.next();
        for ((ps, rs), wws) in chunks.zip(workers.iter_mut()) {
            s.spawn(|| map_chunk(wws, ps, rs));
        }
        if let Some((ps, rs)) = own {
            map_chunk(&mut ws, &ps[1..], &mut rs[1..]);
        }
    });
    let mut solver = ws.stats;
    for w in &workers {
        solver.merge(&w.stats);
    }
    let mut out = Vec::with_capacity(points.len());
    for r in results {
        out.push(r.expect("a chunk maps every point up to its first error")?);
    }
    Ok((
        out,
        ParStats {
            threads: workers.len() + 1,
            solver,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::stamp::{
        assemble, update_all_charges, ChargeBank, Mode, NonlinMemory, Options,
    };
    use crate::circuit::Circuit;
    use ahfic_num::Matrix;

    /// Stamps the 2x2 system `[[2s, 1], [1, 3s + 1]]` into `ws` (the
    /// `(1, 1)` entry as two stamps on one slot) with right-hand side
    /// `[1, 2]`.
    fn assemble_2x2(ws: &mut SolverWorkspace<f64>, scale: f64) {
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
    }

    /// Drives a workspace by hand through assemblies of a 2x2 system:
    /// record/replay and refactor must agree with a fresh dense LU
    /// solve. The last round zeroes the `(0, 0)` entry, so the replayed
    /// diagonal pivot collapses and the workspace must re-pivot on the
    /// same pattern.
    #[test]
    fn sparse_record_replay_solves() {
        let mut ws: SolverWorkspace<f64> = SolverWorkspace::new(2);
        for scale in [1.0, 2.0, 3.0, 0.0] {
            let a = Matrix::from_rows(&[&[2.0 * scale, 1.0], &[1.0, 3.0 * scale + 1.0]]);
            let expect = ahfic_num::lu::solve(a, &[1.0, 2.0]).unwrap();
            assemble_2x2(&mut ws, scale);
            ws.factor().unwrap();
            let x = ws.solve();
            for k in 0..2 {
                assert!((x[k] - expect[k]).abs() < 1e-12, "scale {scale}");
            }
        }
    }

    /// A pinned (sweep) workspace re-pivots a matrix whose replayed
    /// pivot collapses for that matrix alone: the next matrix replays
    /// the first factorization's pivot order again, to the bit, as in a
    /// workspace that never saw the collapse. An unpinned workspace
    /// adopts the new order.
    #[test]
    fn pinned_workspace_repivots_one_matrix_only() {
        let mut pinned: SolverWorkspace<f64> = SolverWorkspace::new(2);
        pinned.pinned = true;
        let mut unpinned: SolverWorkspace<f64> = SolverWorkspace::new(2);
        let mut clean: SolverWorkspace<f64> = SolverWorkspace::new(2);
        for ws in [&mut pinned, &mut unpinned, &mut clean] {
            assemble_2x2(ws, 1.0);
            ws.factor().unwrap();
        }
        for ws in [&mut pinned, &mut unpinned] {
            assemble_2x2(ws, 0.0); // the (0, 0) pivot collapses
            ws.factor().unwrap();
            let x = ws.solve();
            assert!((x[0] - 1.0).abs() < 1e-15 && (x[1] - 1.0).abs() < 1e-15);
        }
        assert!(pinned.repivoted.is_some() && unpinned.repivoted.is_none());
        for ws in [&mut pinned, &mut unpinned, &mut clean] {
            assemble_2x2(ws, 0.3);
            ws.factor().unwrap();
        }
        assert!(pinned.repivoted.is_none());
        let want: Vec<u64> = clean.solve().iter().map(|v| v.to_bits()).collect();
        let got: Vec<u64> = pinned.solve().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "pinned replays the first pivot order");
        let adopted: Vec<u64> = unpinned.solve().iter().map(|v| v.to_bits()).collect();
        assert_ne!(adopted, want, "unpinned keeps the re-pivoted order");
        assert_eq!(pinned.stats.factorizations, 3);
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
        let mut ws: SolverWorkspace<f64> = SolverWorkspace::new(prep.num_unknowns);
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
        let mut ws: SolverWorkspace<f64> = SolverWorkspace::new(2);
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
            be: false,
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
            be: false,
            bank: &bank,
            x_prev: &x0,
        };
        for mode in [dc, tran] {
            let mut ws: SolverWorkspace<f64> = SolverWorkspace::new(n);
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
            let replayed = ws.kernel.csc.as_ref().expect("compiled pattern").to_dense();
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

    /// The parallel mapper preserves order and reports the first error.
    #[test]
    fn parallel_map_orders_results() {
        let points: Vec<f64> = (0..37).map(|k| k as f64).collect();
        let (out, stats) = parallel_freq_map::<f64, f64, _>(4, false, 0, &points, |ws, f| {
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
            parallel_freq_map::<f64, f64, _>(4, false, 1, &points, |_, f| Ok(f)).unwrap();
        assert_eq!(pinned.threads, 1);
        let err = parallel_freq_map::<f64, f64, _>(4, false, 0, &points, |_, f| {
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
        // The kernel is exercised both with a declared pattern and with
        // first-pass recording.
        for preset in [true, false] {
            let mut ws: SolverWorkspace<f64> = SolverWorkspace::new(2);
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
                        "preset={preset} round {round}: {} vs {}",
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
        let mut ws: SolverWorkspace<f64> = SolverWorkspace::new(2);
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

        let mut ws: SolverWorkspace<f64> = SolverWorkspace::new(2);
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
