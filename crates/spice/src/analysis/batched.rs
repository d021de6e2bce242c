//! Batched variant engine: solve N parameter variants of one circuit in
//! lockstep over a shared sparsity pattern.
//!
//! Monte-Carlo yield studies and mismatch sweeps solve the *same* matrix
//! structure over and over with different values (a retuned resistor).
//! A per-sample solve pays the
//! full per-sample overhead each time: a fresh workspace, a pattern
//! probe, symbolic analysis, and a pivot search. The batched engine
//! amortizes all of it: one pattern probe, one symbolic factorization
//! on a reference lane, and [`CpuBatchedLu`] numeric refactor/solve
//! sweeps over structure-of-arrays value lanes.
//!
//! A lane is a [`SolverWorkspace`] of its own, its pattern preset from
//! the shared probe: the operating-point engine assembles it with
//! `op::newton_assemble`, the pass every Newton solve runs, and the AC
//! engine with [`assemble_ac`]. Only the factorization and the solve are
//! batched, over a slot-major gather of the lanes' matrices and
//! right-hand sides.
//!
//! Correctness over speed: any lane that steps outside the batched fast
//! path — a stamp pattern that diverged from the shared one, a degraded
//! pivot, a non-finite value, an injected fault, a residual that will
//! not shrink, or plain non-convergence — is transparently re-run
//! through the ordinary sequential solver, so batch results degrade to
//! sequential results, never to wrong answers. The stop rule, the
//! convergence test (`update_norm`) and injected faults act on a lane
//! exactly as on the plain-Newton rung of a per-sample solve. With a
//! single lane the batched arithmetic replays the sequential path bit
//! for bit.

use crate::analysis::ac::{assemble_ac, factor_ac};
use crate::analysis::control::stop_check;
use crate::analysis::fault::{ClaimedSolve, FaultKind};
use crate::analysis::op::{newton_assemble, op_from_ws, NewtonCfg, OpResult};
use crate::analysis::solver::SolverWorkspace;
use crate::analysis::stamp::{
    real_pattern, update_norm, Mode, NonlinMemory, Options, PatternProbe,
};
use crate::circuit::Prepared;
use crate::error::{Result, SpiceError};
use ahfic_num::{Complex, CpuBatchedLu, Scalar};

/// Relative residual threshold of the batched fast path: a lane whose
/// post-solve residual `||A x - b||_inf` exceeds this fraction of the
/// system magnitude is handed back to the sequential solver. Healthy
/// shared-pattern factorizations sit many orders of magnitude below.
const RESID_REL: f64 = 1e-7;

/// N variant lanes of one MNA system: each lane's own
/// [`SolverWorkspace`], the slot-major gather of their matrices and
/// right-hand sides that [`CpuBatchedLu`] factors and solves, and the
/// solutions.
///
/// This is the data layout underneath [`BatchedOpEngine`] and
/// [`BatchedAcEngine`]; it is generic over the scalar so the real
/// (operating-point) and complex (AC) engines share one implementation.
pub(crate) struct BatchedWorkspace<T: Scalar> {
    /// The shared probe's stamp sequence, preset into every lane.
    pattern: Vec<(usize, usize)>,
    lanes: Vec<SolverWorkspace<T>>,
    /// Matrix values, slot-major: `vals[slot * lanes + lane]`.
    vals: Vec<T>,
    /// Right-hand sides, row-major (`soa[row * lanes + lane]`), solved
    /// in place.
    soa: Vec<T>,
    /// Solutions, lane-major: `sol[lane * n + row]`.
    sol: Vec<T>,
    /// Residual scratch (one lane).
    resid: Vec<T>,
    /// Per-lane refactor health, written by `refactor_lanes`.
    ok: Vec<bool>,
    blu: Option<CpuBatchedLu<T>>,
}

impl<T: Scalar> BatchedWorkspace<T> {
    fn new(n: usize, lanes: usize, pattern: Vec<(usize, usize)>) -> Self {
        let mut lane = SolverWorkspace::new(n);
        lane.preset_pattern(&pattern);
        let nnz = lane.matrix().nnz();
        BatchedWorkspace {
            pattern,
            lanes: vec![lane; lanes],
            vals: vec![T::ZERO; nnz * lanes],
            soa: vec![T::ZERO; n * lanes],
            sol: vec![T::ZERO; n * lanes],
            resid: vec![T::ZERO; n],
            ok: vec![false; lanes],
            blu: None,
        }
    }

    /// System dimension.
    fn dim(&self) -> usize {
        self.resid.len()
    }

    /// Readies the lanes for a new chunk of samples: a fresh reference
    /// factorization to come, as a per-sample solve starts from a fresh
    /// workspace; the shared pattern again in a lane whose own diverged;
    /// no linear baseline yet.
    fn begin_chunk(&mut self) {
        self.blu = None;
        for ws in &mut self.lanes {
            if ws.needs_pattern() {
                ws.preset_pattern(&self.pattern);
            }
            ws.invalidate_checkpoint();
        }
    }

    /// Copies one lane's assembled matrix and right-hand side into the
    /// slot-major storage the batched LU reads.
    fn load(&mut self, lane: usize) {
        let b = self.lanes.len();
        let ws = &self.lanes[lane];
        for (s, &v) in ws.matrix().values().iter().enumerate() {
            self.vals[s * b + lane] = v;
        }
        for (r, &v) in ws.rhs.iter().enumerate() {
            self.soa[r * b + lane] = v;
        }
    }

    /// One lane's solution from the last `solve_lanes`.
    fn solution(&self, lane: usize) -> &[T] {
        let n = self.dim();
        &self.sol[lane * n..(lane + 1) * n]
    }

    /// Whether one lane's last solution is finite.
    fn sol_finite(&self, lane: usize) -> bool {
        self.solution(lane).iter().all(|v| v.modulus().is_finite())
    }

    /// Full reference factorization of `lane`'s matrix, establishing the
    /// pivot order and symbolic pattern every other lane replays. The
    /// lane's factor values are bit-identical to a sequential
    /// `SparseLu::factor` of the same matrix.
    fn factor_reference(&mut self, lane: usize) -> bool {
        let lanes = self.lanes.len();
        self.blu = CpuBatchedLu::new(self.lanes[lane].matrix(), lanes, lane).ok();
        self.blu.is_some()
    }

    /// Numeric refactorization of every lane; `self.ok` reports per-lane
    /// health afterwards. `skip` preserves the freshly seeded reference
    /// lane's factor values (and its health) untouched.
    fn refactor_lanes(&mut self, skip: Option<usize>) {
        let BatchedWorkspace { vals, ok, blu, .. } = self;
        if let Some(blu) = blu.as_mut() {
            ok.fill(true);
            blu.refactor(vals, ok, skip);
            if let Some(r) = skip {
                // The skipped lane carries a successful full
                // factorization; a spurious replay-health flag from the
                // shared sweep must not demote it.
                ok[r] = true;
            }
        } else {
            ok.fill(false);
        }
    }

    /// Solves every lane against its loaded right-hand side; results
    /// land in `sol`. Degraded lanes produce garbage in their own lane
    /// only.
    fn solve_lanes(&mut self) {
        let (n, b) = (self.dim(), self.lanes.len());
        if let Some(blu) = self.blu.as_mut() {
            blu.solve_in_place(&mut self.soa);
        }
        for (lane, sol) in self.sol.chunks_exact_mut(n).enumerate() {
            for (k, v) in sol.iter_mut().enumerate() {
                *v = self.soa[k * b + lane];
            }
        }
    }

    /// Post-solve health check on the lane's own matrix: its residual
    /// `||A x - b||_inf` must be a tiny fraction of the system
    /// magnitude. Catches accuracy loss from replaying the reference
    /// lane's pivot order on a variant it fits poorly. `NaN` fails the
    /// check.
    fn residual_ok(&mut self, lane: usize) -> bool {
        let n = self.dim();
        let ws = &self.lanes[lane];
        let xl = &self.sol[lane * n..(lane + 1) * n];
        ws.matrix().mul_vec_into(xl, &mut self.resid);
        let mut err = 0.0f64;
        let mut scale = 0.0f64;
        for (a, b) in self.resid.iter().zip(&ws.rhs) {
            let e = (*a - *b).modulus();
            if e > err {
                err = e;
            }
            scale = scale.max(a.modulus()).max(b.modulus());
        }
        // `err <= bound` (not `err > bound`) so NaN falls out.
        err <= RESID_REL * scale
    }
}

/// How one variant lane of an in-flight batch is disposed.
enum LaneState {
    /// Still iterating in the batch.
    Active,
    /// Converged in the batch at the recorded iteration.
    Done(OpResult),
    /// Terminal error that no solver retry can fix: the tune closure
    /// itself failed (e.g. a lint-rejected defect deck), or the stop
    /// rule stopped the solve.
    Failed(SpiceError),
    /// Left the batched fast path; re-run sequentially afterwards.
    Fallback,
}

/// Batched DC operating-point engine: runs plain Newton on up to
/// `lanes` parameter variants in lockstep over one shared pattern and
/// one [`CpuBatchedLu`].
///
/// Each variant is installed by a caller-provided tune closure (e.g.
/// [`crate::circuit::Circuit::set_resistance`]) invoked with the sample
/// index before that lane is stamped — every iteration, so tuned
/// parameters may feed nonlinear stamps too. Lanes converge and freeze
/// individually; lanes that leave the fast path (see the module docs)
/// are re-solved with the sequential ladder, so results match a
/// per-sample operating point sample for sample. Every chunk starts
/// from a fresh reference factorization, as a per-sample solve starts
/// from a fresh workspace.
///
/// The engine is tied to one [`Prepared`] circuit structure; reusing it
/// after the unknown count changes re-probes the pattern automatically.
pub struct BatchedOpEngine {
    lanes: usize,
    ws: Option<BatchedWorkspace<f64>>,
}

impl BatchedOpEngine {
    /// Engine with `lanes` variant lanes.
    pub fn new(lanes: usize) -> Self {
        BatchedOpEngine {
            lanes: lanes.max(1),
            ws: None,
        }
    }

    /// Solves operating points for samples `0..count`, all started from
    /// zero. Equivalent to, and interchangeable with, calling
    /// `tune(prep, i)` then [`crate::analysis::Session::op`] per sample.
    pub fn run<F>(
        &mut self,
        prep: &mut Prepared,
        opts: &Options,
        count: usize,
        mut tune: F,
    ) -> Vec<Result<OpResult>>
    where
        F: FnMut(&mut Prepared, usize) -> Result<()>,
    {
        if self
            .ws
            .as_ref()
            .is_some_and(|w| w.dim() != prep.num_unknowns)
        {
            self.ws = None;
        }
        let tr = opts.trace.tracer();
        let span = tr.span("op_batch");
        let mut fallbacks = 0usize;
        let mut out = Vec::with_capacity(count);
        let mut start = 0;
        while start < count {
            let b = self.lanes.min(count - start);
            let (states, claims) = self.run_chunk(prep, opts, start, b, &mut tune);
            // Lanes that left the fast path re-run the sequential ladder
            // under their claimed solve.
            for (sample, (state, claim)) in (start..).zip(states.into_iter().zip(claims)) {
                out.push(match state {
                    LaneState::Done(r) => Ok(r),
                    LaneState::Failed(e) => Err(e),
                    LaneState::Active | LaneState::Fallback => {
                        fallbacks += 1;
                        tune(prep, sample).and_then(|()| {
                            let mut ws = SolverWorkspace::new(prep.num_unknowns);
                            op_from_ws(prep, opts, None, &mut ws, claim, 0)
                                .map_err(|h| h.error("op"))
                        })
                    }
                });
            }
            start += b;
        }
        if tr.enabled() {
            tr.counter("op_batch.samples", count as f64);
            tr.counter("op_batch.fallbacks", fallbacks as f64);
        }
        span.end();
        out
    }

    /// One lockstep Newton run over lanes `start..start + b`: each
    /// lane's disposition and fault-injector claim.
    fn run_chunk<F>(
        &mut self,
        prep: &mut Prepared,
        opts: &Options,
        start: usize,
        b: usize,
        tune: &mut F,
    ) -> (Vec<LaneState>, Vec<Option<ClaimedSolve>>)
    where
        F: FnMut(&mut Prepared, usize) -> Result<()>,
    {
        let mode = Mode::Dc { source_scale: 1.0 };
        let plain = NewtonCfg::plain();
        let lanes = self.lanes;
        if let Some(ws) = self.ws.as_mut() {
            ws.begin_chunk();
        }
        // Each lane claims its plain-Newton solve index in sample order,
        // as a per-sample operating point would.
        let injector = opts.faults.get();
        let mut claims: Vec<Option<ClaimedSolve>> = vec![None; b];
        let mut mems: Vec<NonlinMemory> = (0..b).map(|_| NonlinMemory::new(prep)).collect();
        let mut states: Vec<LaneState> = Vec::with_capacity(b);
        for (lane, claim) in claims.iter_mut().enumerate() {
            if let Err(e) = tune(prep, start + lane) {
                states.push(LaneState::Failed(e));
                continue;
            }
            *claim = injector.map(|f| ClaimedSolve {
                idx: f.begin_solve(),
                fired: None,
            });
            // The pattern is probed with the first tuned variant
            // installed.
            self.ws.get_or_insert_with(|| {
                let zeros = vec![0.0; prep.num_unknowns];
                let pat = real_pattern(prep, &zeros, opts, &mode, prep.num_voltage_unknowns);
                BatchedWorkspace::new(prep.num_unknowns, lanes, pat)
            });
            states.push(LaneState::Active);
        }
        let Some(ws) = self.ws.as_mut() else {
            // No lane tuned successfully and nothing was ever probed:
            // every state is Failed.
            return (states, claims);
        };
        let n = ws.dim();
        // Lane-major iterates, all started from zero.
        let mut x = vec![0.0; n * b];

        let mut iter = 0;
        while iter < opts.max_newton && states.iter().any(|s| matches!(s, LaneState::Active)) {
            iter += 1;
            for (lane, state) in states.iter_mut().enumerate() {
                if !matches!(state, LaneState::Active) {
                    continue;
                }
                // A lane is the plain rung of a per-sample operating
                // point, which starts with no Newton iteration spent: the
                // stop rule before each iteration, as on that solve.
                if let Some(stop) = stop_check(opts, None, Some(0)) {
                    *state = LaneState::Failed(stop.error("op"));
                    continue;
                }
                if let Err(e) = tune(prep, start + lane) {
                    *state = LaneState::Failed(e);
                    continue;
                }
                let xs = &x[lane * n..(lane + 1) * n];
                let lane_ws = &mut ws.lanes[lane];
                // A lane whose stamp pattern diverged from the shared
                // one leaves the batch.
                if newton_assemble(prep, opts, &mode, &mut mems[lane], xs, lane_ws, &plain) {
                    *state = LaneState::Fallback;
                    continue;
                }
                if let (Some(f), Some(claim)) = (injector, claims[lane].as_mut()) {
                    match f.poll(claim.idx, iter) {
                        // Serve-level faults keep their sequential
                        // semantics: the panic unwinds to the supervised
                        // worker boundary, the stall burns wall clock
                        // against the deadline budget.
                        Some(FaultKind::Panic) => {
                            panic!("injected fault: device model panic at iteration {iter}");
                        }
                        Some(FaultKind::Stall { millis }) => {
                            std::thread::sleep(std::time::Duration::from_millis(millis));
                        }
                        // Solver faults: the lane's fallback replays the
                        // fault at this iteration of the same solve.
                        Some(kind) => {
                            claim.fired = Some((iter, kind));
                            *state = LaneState::Fallback;
                            continue;
                        }
                        None => {}
                    }
                }
                if !lane_ws.assembly_finite() {
                    *state = LaneState::Fallback;
                    continue;
                }
                ws.load(lane);
            }

            // Reference factorization (first healthy iteration of the
            // chunk), then lane-wise numeric refactor.
            let mut ref_lane = None;
            if ws.blu.is_none() {
                while let Some(r) = states.iter().position(|s| matches!(s, LaneState::Active)) {
                    if ws.factor_reference(r) {
                        ref_lane = Some(r);
                        break;
                    }
                    // Singular reference candidate: the sequential
                    // ladder (gmin retry, lint post-mortem) owns it.
                    states[r] = LaneState::Fallback;
                }
                if ref_lane.is_none() {
                    break;
                }
            }
            ws.refactor_lanes(ref_lane);
            for (lane, state) in states.iter_mut().enumerate() {
                if matches!(state, LaneState::Active) && !ws.ok[lane] {
                    *state = LaneState::Fallback;
                }
            }
            if !states.iter().any(|s| matches!(s, LaneState::Active)) {
                break;
            }

            ws.solve_lanes();

            for (lane, state) in states.iter_mut().enumerate() {
                if !matches!(state, LaneState::Active) {
                    continue;
                }
                if !ws.sol_finite(lane) || !ws.residual_ok(lane) {
                    *state = LaneState::Fallback;
                    continue;
                }
                let xs = &mut x[lane * n..(lane + 1) * n];
                let xn = ws.solution(lane);
                if update_norm(prep, opts, xs, xn) <= 1.0 && mems[lane].limited == 0 {
                    *state = match stop_check(opts, None, None) {
                        Some(stop) => LaneState::Failed(stop.error("op")),
                        None => LaneState::Done(OpResult {
                            x: xn.to_vec(),
                            iterations: iter,
                        }),
                    };
                } else if iter == opts.max_newton {
                    // Plain Newton is out of budget; the sequential
                    // ladder's stronger rungs take over.
                    *state = LaneState::Fallback;
                } else {
                    xs.copy_from_slice(xn);
                }
            }
        }

        (states, claims)
    }
}

/// Batched single-frequency AC engine: assembles and solves the complex
/// small-signal system of up to `lanes` variants in lockstep.
///
/// Mirrors [`Session::ac`](crate::analysis::Session::ac) at one
/// frequency per variant batch — the yield study's post-operating-point
/// characterization. Lanes that leave the fast path are re-solved with a
/// fresh sequential [`SolverWorkspace`], exactly as `Session::ac` would.
pub struct BatchedAcEngine {
    lanes: usize,
    ws: Option<BatchedWorkspace<Complex>>,
}

impl BatchedAcEngine {
    /// Engine with `lanes` variant lanes.
    pub fn new(lanes: usize) -> Self {
        BatchedAcEngine {
            lanes: lanes.max(1),
            ws: None,
        }
    }

    /// Solves the AC system at `freq` (Hz) for every `(sample_index,
    /// operating_point)` item, returning full solution vectors in item
    /// order (index into them with
    /// [`crate::circuit::Prepared::slot_of`]).
    pub fn run<F>(
        &mut self,
        prep: &mut Prepared,
        opts: &Options,
        freq: f64,
        items: &[(usize, &[f64])],
        mut tune: F,
    ) -> Vec<Result<Vec<Complex>>>
    where
        F: FnMut(&mut Prepared, usize) -> Result<()>,
    {
        if self
            .ws
            .as_ref()
            .is_some_and(|w| w.dim() != prep.num_unknowns)
        {
            self.ws = None;
        }
        let omega = 2.0 * std::f64::consts::PI * freq;
        let lanes = self.lanes;
        let mut out: Vec<Result<Vec<Complex>>> = Vec::with_capacity(items.len());
        for chunk in items.chunks(lanes) {
            self.run_ac_chunk(prep, opts, omega, chunk, &mut tune, &mut out);
        }
        out
    }

    fn run_ac_chunk<F>(
        &mut self,
        prep: &mut Prepared,
        opts: &Options,
        omega: f64,
        chunk: &[(usize, &[f64])],
        tune: &mut F,
        out: &mut Vec<Result<Vec<Complex>>>,
    ) where
        F: FnMut(&mut Prepared, usize) -> Result<()>,
    {
        let lanes = self.lanes;
        if let Some(ws) = self.ws.as_mut() {
            ws.begin_chunk();
        }
        // Per-lane disposition: Ok(solution) once solved, Err for
        // terminal failures; None while pending or for fallback lanes.
        let mut done: Vec<Option<Result<Vec<Complex>>>> = Vec::with_capacity(chunk.len());
        let mut active = vec![false; chunk.len()];
        for (lane, &(idx, x_op)) in chunk.iter().enumerate() {
            if let Err(e) = tune(prep, idx) {
                done.push(Some(Err(e)));
                continue;
            }
            done.push(None);
            let ws = self.ws.get_or_insert_with(|| {
                let mut probe = PatternProbe::default();
                let mut rhs = vec![Complex::ZERO; prep.num_unknowns];
                assemble_ac(prep, x_op, opts, 1.0, &mut probe, &mut rhs);
                BatchedWorkspace::new(prep.num_unknowns, lanes, probe.coords)
            });
            let lane_ws = &mut ws.lanes[lane];
            assemble_ac(
                prep,
                x_op,
                opts,
                omega,
                &mut lane_ws.kernel,
                &mut lane_ws.rhs,
            );
            // A lane whose stamp pattern diverged falls back.
            if !lane_ws.finish_assembly() {
                ws.load(lane);
                active[lane] = true;
            }
        }

        if let Some(ws) = self.ws.as_mut() {
            let mut ref_lane = None;
            while let Some(r) = active.iter().position(|&a| a) {
                if ws.factor_reference(r) {
                    ref_lane = Some(r);
                    break;
                }
                active[r] = false; // singular reference: fallback
            }
            if ref_lane.is_some() {
                ws.refactor_lanes(ref_lane);
                for (lane, a) in active.iter_mut().enumerate() {
                    *a &= ws.ok[lane];
                }
                ws.solve_lanes();
                for (lane, slot) in done.iter_mut().enumerate() {
                    if active[lane] && ws.sol_finite(lane) && ws.residual_ok(lane) {
                        *slot = Some(Ok(ws.solution(lane).to_vec()));
                    }
                }
            }
        }

        // Fallback lanes: an AC sweep's per-frequency solve, one fresh
        // workspace each.
        for (lane, slot) in done.into_iter().enumerate() {
            let (idx, x_op) = chunk[lane];
            out.push(match slot {
                Some(r) => r,
                None => tune(prep, idx).and_then(|()| {
                    let mut ws = SolverWorkspace::new(prep.num_unknowns);
                    factor_ac(prep, x_op, opts, omega, &mut ws)?;
                    Ok(ws.solve().to_vec())
                }),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::op::op_eval as op;
    use crate::analysis::stamp::BatchMode;
    use crate::circuit::Circuit;

    /// An RC divider with a tunable series resistor: linear, so plain
    /// Newton converges in one iteration and lane agreement is exact.
    fn divider() -> (Prepared, f64) {
        let mut c = Circuit::new();
        let a = c.node("a");
        let out = c.node("out");
        c.vsource("V1", a, Circuit::gnd(), 1.0);
        c.set_ac("V1", 1.0, 0.0).unwrap();
        c.resistor("R1", a, out, 1e3);
        c.resistor("R2", out, Circuit::gnd(), 1e3);
        c.capacitor("C1", out, Circuit::gnd(), 1e-9);
        (Prepared::compile(&c).unwrap(), 1e3)
    }

    /// A common-emitter BJT stage with a tunable collector resistor:
    /// genuinely nonlinear, several Newton iterations.
    fn bjt_stage() -> Prepared {
        let mut c = Circuit::new();
        let vcc = c.node("vcc");
        let b = c.node("b");
        let col = c.node("c");
        c.vsource("VCC", vcc, Circuit::gnd(), 5.0);
        c.vsource("VB", b, Circuit::gnd(), 0.7);
        c.resistor("RC", vcc, col, 1e3);
        let mi = c.add_bjt_model(crate::model::BjtModel::named("n1"));
        c.bjt("Q1", col, b, Circuit::gnd(), mi, 1.0);
        Prepared::compile(&c).unwrap()
    }

    /// Batch size 1 reproduces the sequential operating point bit for
    /// bit.
    #[test]
    fn single_lane_matches_sequential_bitwise() {
        let mut prep = bjt_stage();
        let opts = Options::new();
        let scales = [0.5, 1.0, 2.0, 7.5];
        let mut engine = BatchedOpEngine::new(1);
        let batched = engine.run(&mut prep, &opts, scales.len(), |p, i| {
            p.circuit.set_resistance("RC", 1e3 * scales[i])
        });
        for (i, r) in batched.iter().enumerate() {
            prep.circuit.set_resistance("RC", 1e3 * scales[i]).unwrap();
            let seq = op(&prep, &opts).unwrap();
            let b = r.as_ref().unwrap();
            assert_eq!(b.iterations, seq.iterations, "sample {i}");
            assert_eq!(b.x, seq.x, "sample {i}");
        }
    }

    /// Multi-lane batches agree with the sequential path to far below
    /// the Newton tolerance on a nonlinear deck.
    #[test]
    fn multi_lane_matches_sequential_tightly() {
        let mut prep = bjt_stage();
        let opts = Options::new();
        let scales: Vec<f64> = (0..11).map(|k| 0.5 + 0.2 * k as f64).collect();
        for lanes in [2, 3, 8] {
            let mut engine = BatchedOpEngine::new(lanes);
            let batched = engine.run(&mut prep, &opts, scales.len(), |p, i| {
                p.circuit.set_resistance("RC", 1e3 * scales[i])
            });
            for (i, r) in batched.iter().enumerate() {
                prep.circuit.set_resistance("RC", 1e3 * scales[i]).unwrap();
                let seq = op(&prep, &opts).unwrap();
                let b = r.as_ref().unwrap();
                for (bv, sv) in b.x.iter().zip(&seq.x) {
                    assert!(
                        (bv - sv).abs() <= 1e-9 * sv.abs().max(1.0),
                        "lanes={lanes} sample {i}: {bv} vs {sv}"
                    );
                }
            }
        }
    }

    /// A lane whose tune closure fails (defective sample) reports its
    /// error without disturbing its batch neighbours.
    #[test]
    fn failed_tune_is_contained() {
        let (mut prep, r) = divider();
        let opts = Options::new();
        let mut engine = BatchedOpEngine::new(4);
        let res = engine.run(&mut prep, &opts, 4, |p, i| {
            if i == 2 {
                // Non-positive resistance: a netlist error.
                p.circuit.set_resistance("R1", -1.0)
            } else {
                p.circuit.set_resistance("R1", r * (1.0 + 0.1 * i as f64))
            }
        });
        assert!(res[2].is_err());
        for (i, out) in res.iter().enumerate() {
            if i != 2 {
                let got = out.as_ref().unwrap();
                prep.circuit
                    .set_resistance("R1", r * (1.0 + 0.1 * i as f64))
                    .unwrap();
                let seq = op(&prep, &opts).unwrap();
                for (gv, sv) in got.x.iter().zip(&seq.x) {
                    assert!(
                        (gv - sv).abs() <= 1e-12 * sv.abs().max(1.0),
                        "sample {i}: {gv} vs {sv}"
                    );
                }
            }
        }
    }

    /// The AC engine matches `ac_sweep` on every lane, including a
    /// tune-failed one: within 1e-12 at three lanes, bit for bit at one.
    #[test]
    fn ac_engine_matches_ac_sweep() {
        use crate::analysis::ac::ac_sweep_impl as ac_sweep;
        let (mut prep, r) = divider();
        let opts = Options::new();
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-9);
        let dc = op(&prep, &opts).unwrap();
        let out_slot = prep.slot_of(prep.circuit.find_node("out").unwrap());
        for lanes in [3, 1] {
            let mut engine = BatchedAcEngine::new(lanes);
            let items: Vec<(usize, &[f64])> = (0..5).map(|i| (i, dc.x.as_slice())).collect();
            let res = engine.run(&mut prep, &opts, f0, &items, |p, i| {
                if i == 4 {
                    p.circuit.set_resistance("R1", -1.0)
                } else {
                    p.circuit.set_resistance("R1", r * (1.0 + 0.05 * i as f64))
                }
            });
            assert!(res[4].is_err());
            for (i, got) in res.iter().take(4).enumerate() {
                prep.circuit
                    .set_resistance("R1", r * (1.0 + 0.05 * i as f64))
                    .unwrap();
                let w = ac_sweep(&prep, &dc.x, &opts, &[f0]).unwrap();
                let got = got.as_ref().unwrap();
                if lanes == 1 {
                    let bits = |c: &Complex| (c.re.to_bits(), c.im.to_bits());
                    for (name, gv) in prep.unknown_names.iter().zip(got) {
                        let want = w.signal(name).unwrap()[0];
                        assert_eq!(bits(gv), bits(&want), "sample {i} {name}");
                    }
                } else {
                    let want = w.signal("v(out)").unwrap()[0];
                    let gv = got[out_slot];
                    assert!(
                        (gv - want).modulus() < 1e-12,
                        "sample {i}: {gv:?} vs {want:?}"
                    );
                }
            }
        }
    }

    /// `Options::lanes_for` resolves the request, the budget cap and the
    /// sample count in one place.
    #[test]
    fn lane_width_resolution() {
        use crate::analysis::control::Budget;
        let auto = Options::new();
        assert_eq!(auto.batch, BatchMode::Auto);
        assert_eq!(auto.lanes_for(10_000), 8);
        assert_eq!(auto.lanes_for(3), 3, "never wider than the study");
        assert_eq!(auto.lanes_for(0), 1);
        let five = Options::new().batch(BatchMode::Lanes(5));
        assert_eq!(five.lanes_for(100), 5);
        assert_eq!(Options::new().batch(BatchMode::Lanes(0)).lanes_for(100), 1);
        let capped = five.budget(Budget::unlimited().max_lanes(2));
        assert_eq!(capped.lanes_for(100), 2);
    }

    /// A solver fault injected into one lane acts as on a per-sample
    /// solve: with the ladder off, a one-shot non-convergence or NaN
    /// fails exactly that sample (its fallback does not heal it with a
    /// fresh solve index), and a singular one is rescued by the gmin
    /// retry in both.
    #[test]
    fn injected_fault_fails_its_lane_as_a_per_sample_solve() {
        use crate::analysis::fault::FaultInjector;
        use crate::analysis::stamp::LadderConfig;
        let no_ladder = LadderConfig {
            damping: false,
            gmin_stepping: false,
            source_stepping: false,
            ptran: false,
        };
        for kind in [
            FaultKind::NoConvergence,
            FaultKind::NanStamp,
            FaultKind::SingularMatrix,
        ] {
            let mut prep = bjt_stage();
            let scales = [0.5, 1.0, 2.0, 7.5];
            let seq_inj = FaultInjector::once(kind, 2, 1);
            let seq_opts = Options::new().ladder(no_ladder).fault_injector(&seq_inj);
            let seq: Vec<Result<OpResult>> = scales
                .iter()
                .map(|s| {
                    prep.circuit.set_resistance("RC", 1e3 * s).unwrap();
                    op(&prep, &seq_opts)
                })
                .collect();
            let bat_inj = FaultInjector::once(kind, 2, 1);
            let bat_opts = seq_opts.clone().fault_injector(&bat_inj);
            let bat = BatchedOpEngine::new(4).run(&mut prep, &bat_opts, scales.len(), |p, i| {
                p.circuit.set_resistance("RC", 1e3 * scales[i])
            });
            assert_eq!(bat_inj.fires(), 1, "{kind:?}");
            assert_eq!(bat_inj.solves_seen(), seq_inj.solves_seen(), "{kind:?}");
            assert!(seq[2].is_err() || kind == FaultKind::SingularMatrix);
            for (i, (s, b)) in seq.iter().zip(&bat).enumerate() {
                match (s, b) {
                    (Ok(s), Ok(b)) => assert!(
                        s.x.iter()
                            .zip(&b.x)
                            .all(|(p, q)| (p - q).abs() <= 1e-9 * p.abs().max(1.0)),
                        "{kind:?} sample {i}"
                    ),
                    (Err(s), Err(b)) => assert_eq!(s.to_string(), b.to_string(), "{kind:?}"),
                    _ => panic!("{kind:?} sample {i}: {s:?} vs {b:?}"),
                }
            }
        }
    }

    /// An expired wall-clock deadline stops every lane with the typed
    /// error a per-sample solve reports, instead of a converged result.
    #[test]
    fn expired_deadline_fails_lanes_typed() {
        use crate::analysis::control::Budget;
        let (mut prep, r) = divider();
        let opts = Options::new().budget(Budget::unlimited().max_wall(std::time::Duration::ZERO));
        let res = BatchedOpEngine::new(2).run(&mut prep, &opts, 3, |p, i| {
            p.circuit.set_resistance("R1", r * (1.0 + 0.1 * i as f64))
        });
        for (i, out) in res.iter().enumerate() {
            assert!(
                matches!(
                    out,
                    Err(SpiceError::BudgetExhausted {
                        resource: "wall_clock_ms",
                        ..
                    })
                ),
                "sample {i}: {out:?}"
            );
        }
    }
}
