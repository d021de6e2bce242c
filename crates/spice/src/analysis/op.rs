//! DC operating-point analysis: Newton–Raphson backed by a
//! convergence-recovery ladder — adaptive damping, gmin stepping,
//! source stepping, and a pseudo-transient homotopy as last resort.
//!
//! Every Newton solve of the ladder goes through one bookkeeping step,
//! `Ladder::solve`: the stop rule first, against the Newton iterations
//! of the whole analysis call, then the solve's iterations and any
//! non-finite recovery booked. A stop ends the ladder at once and is
//! named after the analysis the caller ran.

use crate::analysis::control::{stop_check, Halt, Stop};
use crate::analysis::fault::{ClaimedSolve, FaultKind};
use crate::analysis::solver::{singular_unknown, SolverWorkspace};
use crate::analysis::stamp::{
    real_pattern, stamp_linear, stamp_nonlinear, update_norm, worst_unknowns, MnaSink, Mode,
    NonlinMemory, Options,
};
use crate::circuit::Prepared;
use crate::devices::{BjtOperating, OpCtx};
use crate::error::{ConvergenceReport, Result, RungReport, SpiceError, WorstUnknown};
use ahfic_trace::ContinuationStats;
use std::time::Instant;

/// Converged operating point.
///
/// `#[non_exhaustive]`: more diagnostic fields may grow here; construct
/// one only through the analysis entry points and read it through the
/// fields or the accessor methods.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct OpResult {
    /// Solution vector (node voltages then branch currents).
    pub x: Vec<f64>,
    /// Newton iterations spent (total across continuation stages).
    pub iterations: usize,
}

impl OpResult {
    /// The solution vector (node voltages then branch currents).
    pub fn x(&self) -> &[f64] {
        &self.x
    }

    /// Consumes the result, returning the solution vector.
    pub fn into_x(self) -> Vec<f64> {
        self.x
    }

    /// Newton iterations spent (total across continuation stages).
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

/// Per-call Newton configuration: the knobs the continuation ladder
/// turns between rungs.
#[derive(Clone, Copy, Debug)]
pub(crate) struct NewtonCfg<'a> {
    /// Conductance added to every voltage-unknown diagonal (gmin
    /// stepping, ptran anchor strength; `0.0` normally).
    pub diag_gmin: f64,
    /// Pseudo-transient anchor: when set, `diag_gmin * anchor[k]` is
    /// added to the right-hand side of every voltage row, turning the
    /// diagonal conductance into a backward-Euler companion of an
    /// artificial capacitor to the anchor voltage.
    pub anchor: Option<&'a [f64]>,
    /// Initial fraction of the Newton update applied (1.0 = full step).
    pub damping: f64,
    /// Adapt the damping factor from iterate behaviour: halve it when
    /// the scaled update grows, regrow toward 1.0 while it shrinks.
    pub adaptive: bool,
    /// Fault-injector solve index claimed before this solve ran, with
    /// the fault already delivered on it (`None` claims a fresh index).
    pub claimed: Option<ClaimedSolve>,
}

impl NewtonCfg<'static> {
    /// Plain full-step Newton.
    pub fn plain() -> Self {
        NewtonCfg {
            diag_gmin: 0.0,
            anchor: None,
            damping: 1.0,
            adaptive: false,
            claimed: None,
        }
    }

    /// Plain Newton with a diagonal gmin (gmin-stepping stages).
    pub fn with_gmin(diag_gmin: f64) -> Self {
        NewtonCfg {
            diag_gmin,
            ..NewtonCfg::plain()
        }
    }

    /// Adaptive damped Newton (the ladder's second rung).
    pub fn damped() -> Self {
        NewtonCfg {
            adaptive: true,
            ..NewtonCfg::plain()
        }
    }
}

/// Floor for the adaptive damping factor.
const ALPHA_MIN: f64 = 1.0 / 64.0;

/// One assembly pass of a Newton iteration at `x` into `ws`: the linear
/// partition, with `cfg`'s diagonal gmin and pseudo-transient anchor,
/// restored from the workspace's checkpoint or stamped (and checkpointed
/// when `opts.linear_replay` is on), then the nonlinear partition.
/// Returns [`SolverWorkspace::finish_assembly`]'s verdict: `true` when
/// the stamp pattern changed and the pass must run again. The pass's
/// wall time adds to the workspace's `assemble_seconds` when that is
/// kept.
pub(crate) fn newton_assemble(
    prep: &Prepared,
    opts: &Options,
    mode: &Mode,
    mem: &mut NonlinMemory,
    x: &[f64],
    ws: &mut SolverWorkspace<f64>,
    cfg: &NewtonCfg,
) -> bool {
    let started = ws.assemble_seconds.is_some().then(Instant::now);
    let replay = opts.linear_replay;
    if !(replay && ws.restore()) {
        ws.kernel.reset();
        ws.rhs.fill(0.0);
        stamp_linear(prep, x, opts, mode, &mut ws.kernel, &mut ws.rhs);
        // Stamped even at 0.0 so the stamp sequence is identical across
        // the OP strategies sharing a workspace.
        for k in 0..prep.num_voltage_unknowns {
            ws.kernel.add(k, k, cfg.diag_gmin);
        }
        if let Some(anchor) = cfg.anchor {
            let nv = prep.num_voltage_unknowns;
            for (r, a) in ws.rhs[..nv].iter_mut().zip(anchor) {
                *r += cfg.diag_gmin * a;
            }
        }
        if replay {
            ws.checkpoint();
        }
    }
    stamp_nonlinear(prep, x, opts, mode, mem, &mut ws.kernel, &mut ws.rhs);
    let changed = ws.finish_assembly();
    if let (Some(t0), Some(total)) = (started, ws.assemble_seconds.as_mut()) {
        *total += t0.elapsed().as_secs_f64();
    }
    changed
}

/// Runs one Newton solve in the given mode from the start `x` holds,
/// reusing `ws` for assembly, factorization, and solution buffers — no
/// heap allocation inside the iteration loop.
///
/// Each iteration assembles through [`newton_assemble`], so with
/// `opts.linear_replay` on the linear partition (plus the
/// `cfg.diag_gmin` diagonal and optional ptran anchor) is stamped once
/// and replayed by `memcpy` on every subsequent iteration; only the
/// nonlinear partition is re-stamped. Every iteration passes a NaN/Inf
/// guard over the assembled system and, when installed, polls the fault
/// injector. The stop rule runs before every iteration and again before
/// a converged iterate is returned, so a solve that overran its deadline
/// never reports success; a stop is left for the caller to name.
/// Iterates in `x`, which holds the solution on `Ok` (and an unspecified
/// iterate on `Err`); returns the iteration count. Convergence is
/// [`update_norm`] of the full (undamped) update within 1.
pub(crate) fn newton_solve(
    prep: &Prepared,
    opts: &Options,
    mode: &Mode,
    mem: &mut NonlinMemory,
    x: &mut [f64],
    ws: &mut SolverWorkspace<f64>,
    cfg: &NewtonCfg,
) -> std::result::Result<usize, Halt> {
    let injector = opts.faults.get();
    let solve_idx = match cfg.claimed {
        Some(c) => Some(c.idx),
        None => injector.map(|f| f.begin_solve()),
    };
    let replayed = cfg.claimed.and_then(|c| c.fired);
    let mut alpha = cfg.damping.clamp(ALPHA_MIN, 1.0);
    let mut prev_metric = f64::INFINITY;
    // The baseline depends on mode, diag_gmin and anchor, all fixed for
    // the duration of this call but not across calls sharing the
    // workspace.
    ws.invalidate_checkpoint();
    if ws.needs_pattern() {
        let pat = real_pattern(prep, x, opts, mode, prep.num_voltage_unknowns);
        ws.preset_pattern(&pat);
    }
    for iter in 1..=opts.max_newton {
        if let Some(stop) = stop_check(opts, None, None) {
            return Err(stop.into());
        }
        while newton_assemble(prep, opts, mode, mem, x, ws, cfg) {}
        // A fault the batched engine already delivered on this solve is
        // replayed at its iteration; otherwise the injector decides.
        let fault = match (replayed, injector, solve_idx) {
            (Some((at, kind)), _, _) if at == iter => Some(kind),
            (_, Some(f), Some(idx)) => f.poll(idx, iter),
            _ => None,
        };
        match fault {
            Some(FaultKind::NanStamp) => ws.poison_nan(),
            Some(FaultKind::SingularMatrix) => ws.poison_singular(),
            Some(FaultKind::NoConvergence) => {
                return Err(SpiceError::NoConvergence {
                    analysis: "newton",
                    iterations: iter,
                    time: None,
                    report: None,
                }
                .into());
            }
            Some(FaultKind::Panic) => {
                panic!("injected fault: device model panic at iteration {iter}");
            }
            Some(FaultKind::Stall { millis }) => {
                std::thread::sleep(std::time::Duration::from_millis(millis));
            }
            None => {}
        }
        if !ws.assembly_finite() {
            return Err(SpiceError::NonFinite {
                analysis: "newton",
                context: format!("poisoned stamp in assembled system at iteration {iter}"),
            }
            .into());
        }
        ws.factor().map_err(|e| singular_unknown(prep, e))?;
        let x_new = ws.solve();
        if x_new.iter().any(|v| !v.is_finite()) {
            return Err(SpiceError::NonFinite {
                analysis: "newton",
                context: format!("non-finite solution at iteration {iter}"),
            }
            .into());
        }
        // Scaled size of the full (undamped) update: <= 1 means every
        // unknown moved within tolerance.
        let metric = update_norm(prep, opts, x, x_new);
        if metric <= 1.0 && mem.limited == 0 {
            if let Some(stop) = stop_check(opts, None, None) {
                return Err(stop.into());
            }
            x.copy_from_slice(x_new);
            return Ok(iter);
        }
        if iter == opts.max_newton {
            // Final iteration failed: rank the offenders for the report.
            let worst = worst_unknowns(prep, x, x_new, opts, 3);
            return Err(SpiceError::NoConvergence {
                analysis: "newton",
                iterations: opts.max_newton,
                time: None,
                report: Some(Box::new(ConvergenceReport {
                    rungs: Vec::new(),
                    worst,
                })),
            }
            .into());
        }
        if cfg.adaptive {
            // Shrink the step fraction while the iteration is getting
            // worse, regrow it while it makes progress.
            if metric > prev_metric {
                alpha = (alpha * 0.5).max(ALPHA_MIN);
            } else {
                alpha = (alpha * 1.6).min(1.0);
            }
            prev_metric = metric;
        }
        if alpha >= 1.0 {
            x.copy_from_slice(x_new);
        } else {
            for k in 0..prep.num_unknowns {
                x[k] += alpha * (x_new[k] - x[k]);
            }
        }
    }
    unreachable!("loop returns on its final iteration");
}

/// The operating point from zero, in a fresh workspace.
#[cfg(test)]
pub(crate) fn op_eval(prep: &Prepared, opts: &Options) -> Result<OpResult> {
    op_from_eval(prep, opts, None, "op")
}

/// The operating point from `x0` (zero when `None`) in a fresh
/// workspace, for the `analysis` the caller ran: a stop is named after
/// it.
pub(crate) fn op_from_eval(
    prep: &Prepared,
    opts: &Options,
    x0: Option<&[f64]>,
    analysis: &'static str,
) -> Result<OpResult> {
    let mut ws = SolverWorkspace::new(prep.num_unknowns);
    op_from_ws(prep, opts, x0, &mut ws, None, 0).map_err(|h| h.error(analysis))
}

/// The operating point of an analysis call that has already spent
/// `spent` Newton iterations, against a caller-provided workspace, so
/// sweeps reuse one assembled pattern and factor storage across all
/// their points. `claimed` runs the plain-Newton rung under a batched
/// lane's claimed solve (see [`ClaimedSolve`]). A stop is left for the
/// caller to name after its analysis.
pub(crate) fn op_from_ws(
    prep: &Prepared,
    opts: &Options,
    x0: Option<&[f64]>,
    ws: &mut SolverWorkspace<f64>,
    claimed: Option<ClaimedSolve>,
    spent: u64,
) -> std::result::Result<OpResult, Halt> {
    let t = opts.trace.tracer();
    if !t.enabled() {
        let mut stats = ContinuationStats::default();
        return op_strategies(prep, opts, x0, ws, claimed, &mut stats, spent);
    }
    let span = t.span("op");
    let timing = ws.set_timing(true);
    let solver_before = ws.stats;
    let mut stats = ContinuationStats::default();
    let result = op_strategies(prep, opts, x0, ws, claimed, &mut stats, spent);
    stats.emit(t, "op");
    ws.stats.delta(&solver_before).emit(t, "op");
    // A reused workspace (a session's, a sweep's) goes back to its
    // owner's setting, so a later untraced call reads no clock.
    ws.set_timing(timing);
    span.end();
    result
}

/// The ladder's state across its rungs: every Newton solve goes through
/// [`Ladder::solve`] and every failed rung through [`Ladder::fail`].
struct Ladder<'a> {
    prep: &'a Prepared,
    opts: &'a Options,
    ws: &'a mut SolverWorkspace<f64>,
    stats: &'a mut ContinuationStats,
    /// Newton iterations the analysis call had spent when this operating
    /// point started, and has spent now.
    base: u64,
    spent: u64,
    rungs: Vec<RungReport>,
    /// The most recent worst-unknown ranking of a failed rung.
    worst: Vec<WorstUnknown>,
}

impl Ladder<'_> {
    /// One Newton solve from `x`, after the stop rule: `Err` is a stop,
    /// which ends the ladder; `Ok` holds the solve's own outcome, whose
    /// iterations (a failure's too) and non-finite recovery are booked.
    fn solve(
        &mut self,
        mode: &Mode,
        mem: &mut NonlinMemory,
        x: &mut [f64],
        cfg: &NewtonCfg,
    ) -> std::result::Result<Result<usize>, Stop> {
        if let Some(stop) = stop_check(self.opts, None, Some(self.spent)) {
            return Err(stop);
        }
        let outcome = match newton_solve(self.prep, self.opts, mode, mem, x, self.ws, cfg) {
            Ok(it) => Ok(it),
            Err(Halt::Stop(stop)) => return Err(stop),
            Err(Halt::Fail(e)) => Err(e),
        };
        let it = match &outcome {
            Ok(it) | Err(SpiceError::NoConvergence { iterations: it, .. }) => *it as u64,
            Err(_) => 0,
        };
        self.spent += it;
        self.stats.newton_iterations += it;
        if matches!(outcome, Err(SpiceError::NonFinite { .. })) {
            self.stats.nonfinite_recoveries += 1;
        }
        Ok(outcome)
    }

    /// Records a failed rung, keeping the most recent worst-unknown
    /// ranking for the final report.
    fn fail(&mut self, rung: RungReport, e: &SpiceError) {
        if let Some(r) = e.convergence_report().filter(|r| !r.worst.is_empty()) {
            self.worst = r.worst.clone();
        }
        self.rungs.push(rung);
    }

    /// Newton iterations this operating point has spent.
    fn iterations(&self) -> usize {
        (self.spent - self.base) as usize
    }

    /// The converged operating point `x`, with every iteration this
    /// operating point spent.
    fn done(&self, x: Vec<f64>) -> OpResult {
        OpResult {
            x,
            iterations: self.iterations(),
        }
    }
}

/// The continuation ladder behind every operating point: plain Newton,
/// adaptive damping, gmin stepping, source stepping, pseudo-transient.
/// `stats` accumulates work across all rungs regardless of which one
/// converges; on total failure the returned error carries a
/// [`ConvergenceReport`] describing every rung attempted. `claimed`
/// applies to the plain-Newton rung only; every later solve claims a
/// fresh injector index.
fn op_strategies(
    prep: &Prepared,
    opts: &Options,
    x0: Option<&[f64]>,
    ws: &mut SolverWorkspace<f64>,
    claimed: Option<ClaimedSolve>,
    stats: &mut ContinuationStats,
    spent: u64,
) -> std::result::Result<OpResult, Halt> {
    let n = prep.num_unknowns;
    let zero = vec![0.0; n];
    let start = x0.unwrap_or(&zero);
    let mode = Mode::Dc { source_scale: 1.0 };
    let mut l = Ladder {
        prep,
        opts,
        ws,
        stats,
        base: spent,
        spent,
        rungs: Vec::new(),
        worst: Vec::new(),
    };

    // 1. Plain Newton.
    l.stats.rungs_attempted += 1;
    let mut mem = NonlinMemory::new(prep);
    let plain = NewtonCfg {
        claimed,
        ..NewtonCfg::plain()
    };
    let mut x = start.to_vec();
    match l.solve(&mode, &mut mem, &mut x, &plain)? {
        Ok(_) => return Ok(l.done(x)),
        Err(SpiceError::Singular { unknown }) => {
            // A structurally singular matrix will not be cured by source
            // stepping; gmin on the diagonal may cure floating nodes, so
            // try one damped pass before giving up.
            let mut mem = NonlinMemory::new(prep);
            x.copy_from_slice(start);
            if l.solve(&mode, &mut mem, &mut x, &NewtonCfg::with_gmin(1e-9))?
                .is_ok()
            {
                return Ok(l.done(x));
            }
            // Post-mortem: when the circuit was compiled with lint off
            // (or the defect is value-induced), re-run the static
            // checks so the error names the structural cause instead of
            // just the pivot column.
            let report = crate::lint::lint_prepared(prep);
            if report.has_errors() {
                return Err(SpiceError::LintFailed(Box::new(report)).into());
            }
            return Err(SpiceError::Singular { unknown }.into());
        }
        Err(e) => l.fail(RungReport::failed("newton", l.iterations(), 1), &e),
    }

    // 2. Adaptive damped Newton: full Jacobian, fractional updates.
    if opts.ladder.damping {
        l.stats.rungs_attempted += 1;
        let mut mem = NonlinMemory::new(prep);
        x.copy_from_slice(start);
        let before = l.spent;
        let outcome = l.solve(&mode, &mut mem, &mut x, &NewtonCfg::damped())?;
        l.stats.damped_iterations += l.spent - before;
        match outcome {
            Ok(_) => return Ok(l.done(x)),
            Err(e) => {
                let it = (l.spent - before) as usize;
                l.fail(RungReport::failed("damped", it, 1), &e);
            }
        }
    }

    // 3. Gmin stepping.
    if opts.ladder.gmin_stepping {
        l.stats.rungs_attempted += 1;
        let mut x = start.to_vec();
        let mut mem = NonlinMemory::new(prep);
        let gmin_ladder = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 0.0];
        let before = l.spent;
        let mut stages = 0usize;
        let mut stalled: Option<SpiceError> = None;
        for &g in &gmin_ladder {
            l.stats.gmin_stages += 1;
            stages += 1;
            if let Err(e) = l.solve(&mode, &mut mem, &mut x, &NewtonCfg::with_gmin(g))? {
                stalled = Some(e);
                break;
            }
        }
        match stalled {
            None => return Ok(l.done(x)),
            Some(e) => {
                let mut r = RungReport::failed("gmin", (l.spent - before) as usize, stages);
                r.detail = format!("stalled at stage {stages} of {}", gmin_ladder.len());
                l.fail(r, &e);
            }
        }
    }

    // 4. Source stepping.
    if opts.ladder.source_stepping {
        l.stats.rungs_attempted += 1;
        let mut x = vec![0.0; n];
        // A failed step retries smaller from `x`, so Newton runs on a copy.
        let mut trial = vec![0.0; n];
        let mut mem = NonlinMemory::new(prep);
        let mut scale = 0.0f64;
        let mut step = 0.1f64;
        let mut failures = 0usize;
        let before = l.spent;
        let mut steps = 0usize;
        let mut gave_up: Option<SpiceError> = None;
        while scale < 1.0 {
            let target = (scale + step).min(1.0);
            let mode = Mode::Dc {
                source_scale: target,
            };
            l.stats.source_steps += 1;
            steps += 1;
            trial.copy_from_slice(&x);
            match l.solve(&mode, &mut mem, &mut trial, &NewtonCfg::plain())? {
                Ok(_) => {
                    std::mem::swap(&mut x, &mut trial);
                    scale = target;
                    step = (step * 1.5).min(0.25);
                }
                Err(e) => {
                    failures += 1;
                    step *= 0.25;
                    if failures > 12 || step < 1e-5 {
                        gave_up = Some(e);
                        break;
                    }
                }
            }
        }
        match gave_up {
            None => return Ok(l.done(x)),
            Some(e) => {
                let mut r = RungReport::failed("source", (l.spent - before) as usize, steps);
                r.detail = format!("stalled at scale {scale:.3}");
                l.fail(r, &e);
            }
        }
    }

    // 5. Pseudo-transient homotopy: artificial capacitors from every
    // node to an anchor, relaxed toward zero.
    if opts.ladder.ptran {
        l.stats.rungs_attempted += 1;
        if let Some(x) = ptran_homotopy(&mut l, &mode, start)? {
            return Ok(l.done(x));
        }
    }

    Err(SpiceError::NoConvergence {
        analysis: "op",
        iterations: l.iterations(),
        time: None,
        report: Some(Box::new(ConvergenceReport {
            rungs: l.rungs,
            worst: l.worst,
        })),
    }
    .into())
}

/// Pseudo-transient homotopy: each step solves the circuit with an
/// artificial conductance `g` from every voltage unknown to its value
/// at the previous step (a backward-Euler companion of a grounded
/// capacitor). `g` relaxes toward zero — fast while steps converge
/// easily, backing off when they fail — until the anchor no longer
/// binds and a plain-Newton polish confirms the true solution.
///
/// Returns the solution, or `None` with the failed rung recorded.
fn ptran_homotopy(
    l: &mut Ladder,
    mode: &Mode,
    start: &[f64],
) -> std::result::Result<Option<Vec<f64>>, Stop> {
    const G_START: f64 = 1.0;
    const G_STOP: f64 = 1e-12;
    const G_MAX: f64 = 1e6;
    const MAX_STEPS: usize = 400;
    const MAX_CONSECUTIVE_FAILURES: usize = 6;

    let mut anchor = start.to_vec();
    let mut x = vec![0.0; start.len()];
    let mut g = G_START;
    let before = l.spent;
    let mut steps = 0usize;
    let mut consecutive_failures = 0usize;
    let mut mem = NonlinMemory::new(l.prep);
    let mut last_err = SpiceError::NoConvergence {
        analysis: "ptran",
        iterations: 0,
        time: None,
        report: None,
    };

    while steps < MAX_STEPS {
        steps += 1;
        l.stats.ptran_steps += 1;
        let cfg = NewtonCfg {
            diag_gmin: g,
            anchor: Some(&anchor),
            damping: 1.0,
            adaptive: true,
            claimed: None,
        };
        x.copy_from_slice(&anchor);
        match l.solve(mode, &mut mem, &mut x, &cfg)? {
            Ok(it) => {
                consecutive_failures = 0;
                let moved = anchor
                    .iter()
                    .zip(&x)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max);
                std::mem::swap(&mut anchor, &mut x);
                if g <= G_STOP {
                    // Anchor has essentially no strength left: polish
                    // with plain Newton to certify the real circuit.
                    let mut mem = NonlinMemory::new(l.prep);
                    x.copy_from_slice(&anchor);
                    match l.solve(mode, &mut mem, &mut x, &NewtonCfg::damped())? {
                        Ok(_) => return Ok(Some(x)),
                        Err(e) => {
                            last_err = e;
                            break;
                        }
                    }
                }
                // Relax faster when the step barely moved the solution.
                let fast = it <= 5 && moved < 0.5;
                g *= if fast { 0.2 } else { 0.5 };
            }
            Err(e) => {
                consecutive_failures += 1;
                g *= 10.0;
                last_err = e;
                if consecutive_failures > MAX_CONSECUTIVE_FAILURES || g > G_MAX {
                    break;
                }
            }
        }
    }

    let mut r = RungReport::failed("ptran", (l.spent - before) as usize, steps);
    r.detail = format!("stopped at g = {g:.1e}");
    l.fail(r, &last_err);
    Ok(None)
}

/// Re-evaluates the Gummel–Poon state of a named BJT at a converged
/// operating point (normalized NPN polarity).
///
/// # Errors
///
/// Returns [`SpiceError::Measure`] if the element is not a BJT.
pub fn bjt_operating(
    prep: &Prepared,
    x: &[f64],
    opts: &Options,
    name: &str,
) -> Result<BjtOperating> {
    let idx = prep
        .circuit
        .find_element(name)
        .ok_or_else(|| SpiceError::Measure(format!("no element named {name}")))?;
    prep.devices()[idx]
        .bjt_operating(&OpCtx { prep, opts, x })
        .ok_or_else(|| SpiceError::Measure(format!("{name} is not a BJT")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::model::{BjtModel, BjtPolarity, DiodeModel};

    fn opts() -> Options {
        Options::default()
    }

    /// Test shims over the canonical entries.
    fn op(prep: &Prepared, o: &Options) -> Result<OpResult> {
        op_eval(prep, o)
    }

    fn op_from(prep: &Prepared, o: &Options, x0: Option<&[f64]>) -> Result<OpResult> {
        op_from_eval(prep, o, x0, "op")
    }

    /// A traced operating point turns the caller's workspace's factor
    /// and solve timing on, then puts it back, so a reused workspace
    /// reads no clock in a later untraced call. It never times the
    /// assembly (only a traced stepper reports that).
    #[test]
    fn traced_op_puts_the_workspace_timing_back() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("V1", a, Circuit::gnd(), 1.0);
        c.resistor("R1", a, Circuit::gnd(), 1e3);
        let prep = Prepared::compile(&c).unwrap();
        let sink = std::sync::Arc::new(ahfic_trace::InMemorySink::new());
        let mut ws = SolverWorkspace::new(prep.num_unknowns);
        op_from_ws(&prep, &opts().trace(&sink), None, &mut ws, None, 0).unwrap();
        assert!(!ws.set_timing(false), "timing left on");
        assert_eq!(ws.assemble_seconds, None);
    }

    #[test]
    fn linear_divider_in_one_shot() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::gnd(), 12.0);
        c.resistor("R1", a, b, 2e3);
        c.resistor("R2", b, Circuit::gnd(), 1e3);
        let prep = Prepared::compile(&c).unwrap();
        let r = op(&prep, &opts()).unwrap();
        assert!((prep.voltage(&r.x, b) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn diode_forward_drop() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let d = c.node("d");
        c.vsource("V1", a, Circuit::gnd(), 5.0);
        c.resistor("R1", a, d, 1e3);
        let dm = c.add_diode_model(DiodeModel::default());
        c.diode("D1", d, Circuit::gnd(), dm, 1.0);
        let prep = Prepared::compile(&c).unwrap();
        let r = op(&prep, &opts()).unwrap();
        let vd = prep.voltage(&r.x, d);
        assert!(vd > 0.55 && vd < 0.75, "vd = {vd}");
        // i = (5 - vd)/1k through the diode: check consistency with the
        // source branch current.
        let i_src = r.x[prep.branch_slot("V1").unwrap()];
        assert!((i_src + (5.0 - vd) / 1e3).abs() < 1e-9);
    }

    #[test]
    fn diode_reverse_blocks() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let d = c.node("d");
        c.vsource("V1", a, Circuit::gnd(), -5.0);
        c.resistor("R1", a, d, 1e3);
        let dm = c.add_diode_model(DiodeModel::default());
        c.diode("D1", d, Circuit::gnd(), dm, 1.0);
        let prep = Prepared::compile(&c).unwrap();
        let r = op(&prep, &opts()).unwrap();
        // Essentially the full supply across the diode.
        assert!((prep.voltage(&r.x, d) + 5.0).abs() < 1e-2);
    }

    #[test]
    fn npn_common_emitter_bias() {
        let mut c = Circuit::new();
        let vcc = c.node("vcc");
        let b = c.node("b");
        let col = c.node("c");
        c.vsource("VCC", vcc, Circuit::gnd(), 5.0);
        c.resistor("RB", vcc, b, 430e3);
        c.resistor("RC", vcc, col, 1e3);
        let mut m = BjtModel::named("n1");
        m.bf = 100.0;
        let mi = c.add_bjt_model(m);
        c.bjt("Q1", col, b, Circuit::gnd(), mi, 1.0);
        let prep = Prepared::compile(&c).unwrap();
        let r = op(&prep, &opts()).unwrap();
        let vb = prep.voltage(&r.x, b);
        let vc = prep.voltage(&r.x, col);
        // With IS = 1e-16 a ~1 mA collector current needs vbe ~ 0.77 V.
        assert!(vb > 0.6 && vb < 0.85, "vb = {vb}");
        // ib ~ (5-0.65)/430k ~ 10 uA, ic ~ 1 mA, vc ~ 5 - 1 = 4 V.
        assert!(vc > 3.0 && vc < 4.7, "vc = {vc}");
        let q = bjt_operating(&prep, &r.x, &opts(), "Q1").unwrap();
        assert!(q.ic > 0.5e-3 && q.ic < 1.6e-3, "ic = {}", q.ic);
        assert!((q.beta_dc() - 100.0).abs() < 2.0);
    }

    #[test]
    fn pnp_mirror_polarity() {
        let mut c = Circuit::new();
        let vee = c.node("vee");
        let b = c.node("b");
        let col = c.node("c");
        c.vsource("VEE", vee, Circuit::gnd(), 5.0);
        c.resistor("RB", b, Circuit::gnd(), 430e3);
        c.resistor("RC", col, Circuit::gnd(), 1e3);
        let mut m = BjtModel::named("p1");
        m.polarity = BjtPolarity::Pnp;
        m.bf = 100.0;
        let mi = c.add_bjt_model(m);
        // Emitter at VEE (the + rail), collector pulled to ground.
        c.bjt("Q1", col, b, vee, mi, 1.0);
        let prep = Prepared::compile(&c).unwrap();
        let r = op(&prep, &opts()).unwrap();
        let vb = prep.voltage(&r.x, b);
        // Base sits one VEB below the emitter rail.
        assert!(vb > 4.2 && vb < 4.5, "vb = {vb}");
        let vc = prep.voltage(&r.x, col);
        assert!(vc > 0.2, "vc = {vc}");
    }

    #[test]
    fn bjt_with_parasitic_resistances_converges() {
        let mut c = Circuit::new();
        let vcc = c.node("vcc");
        let b = c.node("b");
        let col = c.node("c");
        let e = c.node("e");
        c.vsource("VCC", vcc, Circuit::gnd(), 5.0);
        c.vsource("VB", b, Circuit::gnd(), 0.8);
        c.resistor("RC", vcc, col, 500.0);
        c.resistor("RE", e, Circuit::gnd(), 100.0);
        let mut m = BjtModel::named("n2");
        m.rb = 150.0;
        m.re = 2.0;
        m.rc = 30.0;
        m.cje = 1e-13;
        m.cjc = 5e-14;
        let mi = c.add_bjt_model(m);
        c.bjt("Q1", col, b, e, mi, 1.0);
        let prep = Prepared::compile(&c).unwrap();
        let r = op(&prep, &opts()).unwrap();
        let ve = prep.voltage(&r.x, e);
        // Emitter follower-ish: ve ~ 0.8 - 0.7 = ~0.1..0.2 V
        assert!(ve > 0.02 && ve < 0.3, "ve = {ve}");
    }

    #[test]
    fn floating_node_reports_singular_or_resolves_via_gmin() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let f = c.node("floating");
        c.vsource("V1", a, Circuit::gnd(), 1.0);
        c.resistor("R1", a, Circuit::gnd(), 1e3);
        c.capacitor("C1", f, Circuit::gnd(), 1e-12);
        // DC: the capacitor is open, node `floating` has no DC path.
        // The default compile rejects it up front, by name.
        match Prepared::compile(&c) {
            Err(SpiceError::LintFailed(report)) => {
                assert!(report.has_errors());
                assert!(
                    report.to_string().contains("floating"),
                    "diagnostic should name the node: {report}"
                );
            }
            other => panic!("expected a lint rejection, got {other:?}"),
        }
        // With lint off, the engine should either flag it (the singular
        // post-mortem re-runs the static checks) or pin it via gmin.
        let prep = Prepared::compile_with(&c, crate::lint::LintPolicy::Off).unwrap();
        match op(&prep, &opts()) {
            Ok(r) => assert!(prep.voltage(&r.x, f).abs() < 1e-6),
            Err(SpiceError::Singular { unknown }) => assert!(unknown.contains("floating")),
            Err(SpiceError::LintFailed(report)) => {
                assert!(report.to_string().contains("floating"), "{report}")
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn series_diode_chain_needs_limiting() {
        // A hard start: 3 stacked diodes directly across a source. Newton
        // without pnjlim would overflow immediately.
        let mut c = Circuit::new();
        let a = c.node("a");
        let n1 = c.node("n1");
        let n2 = c.node("n2");
        c.vsource("V1", a, Circuit::gnd(), 2.1);
        let dm = c.add_diode_model(DiodeModel::default());
        c.diode("D1", a, n1, dm, 1.0);
        c.diode("D2", n1, n2, dm, 1.0);
        c.diode("D3", n2, Circuit::gnd(), dm, 1.0);
        let prep = Prepared::compile(&c).unwrap();
        let r = op(&prep, &opts()).unwrap();
        let v1 = prep.voltage(&r.x, n1);
        let v2 = prep.voltage(&r.x, n2);
        assert!((v1 - 1.4).abs() < 0.1, "v1 = {v1}");
        assert!((v2 - 0.7).abs() < 0.05, "v2 = {v2}");
    }

    #[test]
    fn pre_cancelled_token_aborts_op() {
        use crate::analysis::control::CancelToken;
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("V1", a, Circuit::gnd(), 1.0);
        c.resistor("R1", a, Circuit::gnd(), 1e3);
        let prep = Prepared::compile(&c).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let o = Options::default().cancel_token(&token);
        match op(&prep, &o) {
            Err(SpiceError::Cancelled { .. }) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // The same options without the cancel still solve.
        assert!(op(&prep, &Options::default()).is_ok());
    }

    #[test]
    fn newton_budget_degrades_to_typed_report() {
        use crate::analysis::control::Budget;
        let mut c = Circuit::new();
        let a = c.node("a");
        let d = c.node("d");
        c.vsource("V1", a, Circuit::gnd(), 5.0);
        c.resistor("R1", a, d, 1e3);
        let dm = c.add_diode_model(DiodeModel::default());
        c.diode("D1", d, Circuit::gnd(), dm, 1.0);
        let prep = Prepared::compile(&c).unwrap();
        // One Newton iteration is not enough for a cold diode solve, so
        // the ladder would normally walk further rungs; the budget stops
        // it right after the first rung with a typed error.
        let o = Options::default()
            .max_newton(1)
            .budget(Budget::unlimited().max_newton(1));
        match op(&prep, &o) {
            Err(SpiceError::BudgetExhausted {
                analysis, resource, ..
            }) => {
                assert_eq!(analysis, "op");
                assert_eq!(resource, "newton_iterations");
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        // A generous budget does not perturb the solve.
        let o = Options::default().budget(Budget::unlimited().max_newton(10_000));
        assert!(op(&prep, &o).is_ok());
    }

    #[test]
    fn warm_start_converges_fast() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let d = c.node("d");
        c.vsource("V1", a, Circuit::gnd(), 3.0);
        c.resistor("R1", a, d, 1e3);
        let dm = c.add_diode_model(DiodeModel::default());
        c.diode("D1", d, Circuit::gnd(), dm, 1.0);
        let prep = Prepared::compile(&c).unwrap();
        let cold = op(&prep, &opts()).unwrap();
        let warm = op_from(&prep, &opts(), Some(&cold.x)).unwrap();
        assert!(warm.iterations <= cold.iterations);
        assert!(warm.iterations <= 3, "warm took {}", warm.iterations);
        // The same warm start stalled past its deadline reports the
        // deadline, even though it converges in that same iteration.
        let stall =
            crate::analysis::fault::FaultInjector::once(FaultKind::Stall { millis: 20 }, 0, 1);
        let wall = crate::analysis::control::Budget::unlimited()
            .max_wall(std::time::Duration::from_millis(5));
        let o = opts().fault_injector(&stall).budget(wall);
        match op_from(&prep, &o, Some(&cold.x)) {
            Err(SpiceError::BudgetExhausted {
                resource: "wall_clock_ms",
                ..
            }) => {}
            other => panic!("expected the wall-clock deadline, got {other:?}"),
        }
    }
}
