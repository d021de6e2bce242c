//! DC operating-point analysis: Newton–Raphson backed by a
//! convergence-recovery ladder — adaptive damping, gmin stepping,
//! source stepping, and a pseudo-transient homotopy as last resort.

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

/// Iterations spent before a [`SpiceError`] was produced (0 when the
/// error does not carry a count).
fn error_iterations(e: &SpiceError) -> usize {
    match e {
        SpiceError::NoConvergence { iterations, .. } => *iterations,
        _ => 0,
    }
}

/// Worst-unknown diagnostics attached to a Newton failure (empty when
/// the error carries none).
fn error_worst(e: &SpiceError) -> Vec<WorstUnknown> {
    e.convergence_report()
        .map(|r| r.worst.clone())
        .unwrap_or_default()
}

/// The typed [`SpiceError::BudgetExhausted`] of a wall-clock deadline
/// that has passed, or `None` while time remains (or none is armed).
pub(crate) fn wall_error(opts: &Options, analysis: &'static str) -> Option<SpiceError> {
    opts.budget
        .wall_exhausted()
        .map(|(limit, spent)| SpiceError::BudgetExhausted {
            analysis,
            resource: "wall_clock_ms",
            limit,
            spent,
        })
}

/// The Newton-iteration poll: a cancelled token or a passed wall-clock
/// deadline as a typed error. One not-taken branch each when unset;
/// polled between iterations, never inside a factorization.
pub(crate) fn newton_abort(opts: &Options) -> Option<SpiceError> {
    if opts.cancel.cancelled() {
        return Some(SpiceError::Cancelled {
            analysis: "newton",
            time: None,
        });
    }
    wall_error(opts, "newton")
}

/// Errors out with a typed [`SpiceError::BudgetExhausted`] once `spent`
/// cumulative Newton iterations cross the per-call budget, so a hard
/// deck degrades to a report between continuation stages instead of
/// burning the whole ladder.
fn budget_gate(opts: &Options, spent: usize) -> Result<()> {
    if let Some(e) = wall_error(opts, "op") {
        return Err(e);
    }
    match opts.budget.newton_exhausted(spent as u64) {
        None => Ok(()),
        Some(limit) => Err(SpiceError::BudgetExhausted {
            analysis: "op",
            resource: "newton_iterations",
            limit,
            spent: spent as u64,
        }),
    }
}

/// Runs one Newton solve in the given mode from the start `x` holds,
/// reusing `ws` for assembly, factorization, and solution buffers — no
/// heap allocation inside the iteration loop.
///
/// With `opts.linear_replay` on, the linear partition (plus the
/// `cfg.diag_gmin` diagonal and optional ptran anchor) is stamped once
/// and replayed by `memcpy` on every subsequent iteration; only the
/// nonlinear partition is re-stamped. Every iteration passes a NaN/Inf
/// guard over the assembled system and, when installed, polls the fault
/// injector. Cancellation and the wall-clock deadline are polled at the
/// top of every iteration and the deadline again before a converged
/// iterate is returned, so a solve that overran its deadline never
/// reports success. Iterates in `x`, which holds the solution on `Ok`
/// (and an unspecified iterate on `Err`); returns the iteration count.
pub(crate) fn newton_solve(
    prep: &Prepared,
    opts: &Options,
    mode: &Mode,
    mem: &mut NonlinMemory,
    x: &mut [f64],
    ws: &mut SolverWorkspace<f64>,
    cfg: &NewtonCfg,
) -> Result<usize> {
    let replay = opts.linear_replay;
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
        if let Some(e) = newton_abort(opts) {
            return Err(e);
        }
        loop {
            if !(replay && ws.restore()) {
                ws.kernel.reset();
                ws.rhs.fill(0.0);
                stamp_linear(prep, x, opts, mode, &mut ws.kernel, &mut ws.rhs);
                // Stamped even at 0.0 so the stamp sequence is identical
                // across the OP strategies sharing a workspace.
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
            if !ws.finish_assembly() {
                break;
            }
        }
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
                });
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
            });
        }
        ws.factor().map_err(|e| singular_unknown(prep, e))?;
        let x_new = ws.solve();
        if x_new.iter().any(|v| !v.is_finite()) {
            return Err(SpiceError::NonFinite {
                analysis: "newton",
                context: format!("non-finite solution at iteration {iter}"),
            });
        }
        // Scaled size of the full (undamped) update: <= 1 means every
        // unknown moved within tolerance.
        let metric = update_norm(prep, opts, x, x_new);
        if metric <= 1.0 && mem.limited == 0 {
            if let Some(e) = wall_error(opts, "newton") {
                return Err(e);
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
            });
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

/// Crate-internal canonical operating-point entry (what
/// [`Session::op`](crate::analysis::Session::op) calls).
pub(crate) fn op_eval(prep: &Prepared, opts: &Options) -> Result<OpResult> {
    op_from_eval(prep, opts, None)
}

/// Crate-internal warm-started operating point.
pub(crate) fn op_from_eval(
    prep: &Prepared,
    opts: &Options,
    x0: Option<&[f64]>,
) -> Result<OpResult> {
    let mut ws = SolverWorkspace::new(prep.num_unknowns);
    op_from_ws(prep, opts, x0, &mut ws, None)
}

/// [`op_from_eval`] against a caller-provided workspace, so sweeps reuse one
/// assembled pattern and factor storage across all their points.
/// `claimed` runs the plain-Newton rung under a batched lane's claimed
/// solve (see [`ClaimedSolve`]).
pub(crate) fn op_from_ws(
    prep: &Prepared,
    opts: &Options,
    x0: Option<&[f64]>,
    ws: &mut SolverWorkspace<f64>,
    claimed: Option<ClaimedSolve>,
) -> Result<OpResult> {
    let t = opts.trace.tracer();
    if !t.enabled() {
        let mut stats = ContinuationStats::default();
        return op_strategies(prep, opts, x0, ws, claimed, &mut stats);
    }
    let span = t.span("op");
    ws.set_timing(true);
    let solver_before = ws.stats;
    let mut stats = ContinuationStats::default();
    let result = op_strategies(prep, opts, x0, ws, claimed, &mut stats);
    stats.emit(t, "op");
    ws.stats.delta(&solver_before).emit(t, "op");
    span.end();
    result
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
) -> Result<OpResult> {
    let n = prep.num_unknowns;
    let zero = vec![0.0; n];
    let start = x0.unwrap_or(&zero);
    let mode = Mode::Dc { source_scale: 1.0 };
    let mut rungs: Vec<RungReport> = Vec::new();
    let mut worst: Vec<WorstUnknown> = Vec::new();
    let mut total_iters = 0usize;
    // Records a failed rung and keeps the most recent worst-unknown
    // ranking for the final report.
    let fail = |rungs: &mut Vec<RungReport>,
                worst: &mut Vec<WorstUnknown>,
                r: RungReport,
                e: &SpiceError| {
        let w = error_worst(e);
        if !w.is_empty() {
            *worst = w;
        }
        rungs.push(r);
    };

    // 1. Plain Newton.
    stats.rungs_attempted += 1;
    let mut mem = NonlinMemory::new(prep);
    let plain = NewtonCfg {
        claimed,
        ..NewtonCfg::plain()
    };
    let mut x = start.to_vec();
    match newton_solve(prep, opts, &mode, &mut mem, &mut x, ws, &plain) {
        Ok(it) => {
            stats.newton_iterations += it as u64;
            return Ok(OpResult { x, iterations: it });
        }
        Err(SpiceError::Singular { unknown }) => {
            // A structurally singular matrix will not be cured by source
            // stepping; gmin on the diagonal may cure floating nodes, so
            // try one damped pass before giving up.
            let mut mem = NonlinMemory::new(prep);
            let cfg = NewtonCfg::with_gmin(1e-9);
            x.copy_from_slice(start);
            match newton_solve(prep, opts, &mode, &mut mem, &mut x, ws, &cfg) {
                Ok(it) => {
                    stats.newton_iterations += it as u64;
                    return Ok(OpResult { x, iterations: it });
                }
                Err(e) if e.is_abort() => return Err(e),
                Err(_) => {}
            }
            // Post-mortem: when the circuit was compiled with lint off
            // (or the defect is value-induced), re-run the static
            // checks so the error names the structural cause instead of
            // just the pivot column.
            let report = crate::lint::lint_prepared(prep);
            if report.has_errors() {
                return Err(SpiceError::LintFailed(Box::new(report)));
            }
            return Err(SpiceError::Singular { unknown });
        }
        Err(e) => {
            if e.is_abort() {
                return Err(e);
            }
            let it = error_iterations(&e);
            total_iters += it;
            stats.newton_iterations += it as u64;
            if matches!(e, SpiceError::NonFinite { .. }) {
                stats.nonfinite_recoveries += 1;
            }
            fail(
                &mut rungs,
                &mut worst,
                RungReport::failed("newton", it, 1),
                &e,
            );
        }
    }
    budget_gate(opts, total_iters)?;

    // 2. Adaptive damped Newton: full Jacobian, fractional updates.
    if opts.ladder.damping {
        stats.rungs_attempted += 1;
        let mut mem = NonlinMemory::new(prep);
        x.copy_from_slice(start);
        match newton_solve(
            prep,
            opts,
            &mode,
            &mut mem,
            &mut x,
            ws,
            &NewtonCfg::damped(),
        ) {
            Ok(it) => {
                stats.newton_iterations += it as u64;
                stats.damped_iterations += it as u64;
                return Ok(OpResult {
                    x,
                    iterations: total_iters + it,
                });
            }
            Err(e) => {
                if e.is_abort() {
                    return Err(e);
                }
                let it = error_iterations(&e);
                total_iters += it;
                stats.newton_iterations += it as u64;
                stats.damped_iterations += it as u64;
                if matches!(e, SpiceError::NonFinite { .. }) {
                    stats.nonfinite_recoveries += 1;
                }
                fail(
                    &mut rungs,
                    &mut worst,
                    RungReport::failed("damped", it, 1),
                    &e,
                );
            }
        }
        budget_gate(opts, total_iters)?;
    }

    // 3. Gmin stepping.
    if opts.ladder.gmin_stepping {
        stats.rungs_attempted += 1;
        let mut x = start.to_vec();
        let mut mem = NonlinMemory::new(prep);
        let gmin_ladder = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 0.0];
        let mut rung_iters = 0usize;
        let mut stages = 0usize;
        let mut stalled: Option<SpiceError> = None;
        for &g in &gmin_ladder {
            stats.gmin_stages += 1;
            stages += 1;
            match newton_solve(
                prep,
                opts,
                &mode,
                &mut mem,
                &mut x,
                ws,
                &NewtonCfg::with_gmin(g),
            ) {
                Ok(it) => {
                    rung_iters += it;
                    stats.newton_iterations += it as u64;
                }
                Err(e) => {
                    if e.is_abort() {
                        return Err(e);
                    }
                    rung_iters += error_iterations(&e);
                    stats.newton_iterations += error_iterations(&e) as u64;
                    if matches!(e, SpiceError::NonFinite { .. }) {
                        stats.nonfinite_recoveries += 1;
                    }
                    stalled = Some(e);
                    break;
                }
            }
            budget_gate(opts, total_iters + rung_iters)?;
        }
        total_iters += rung_iters;
        match stalled {
            None => {
                return Ok(OpResult {
                    x,
                    iterations: total_iters,
                })
            }
            Some(e) => {
                let mut r = RungReport::failed("gmin", rung_iters, stages);
                r.detail = format!("stalled at stage {stages} of {}", gmin_ladder.len());
                fail(&mut rungs, &mut worst, r, &e);
            }
        }
    }

    // 4. Source stepping.
    if opts.ladder.source_stepping {
        stats.rungs_attempted += 1;
        let mut x = vec![0.0; n];
        // A failed step retries smaller from `x`, so Newton runs on a copy.
        let mut trial = vec![0.0; n];
        let mut mem = NonlinMemory::new(prep);
        let mut scale = 0.0f64;
        let mut step = 0.1f64;
        let mut failures = 0usize;
        let mut rung_iters = 0usize;
        let mut steps = 0usize;
        let mut gave_up: Option<SpiceError> = None;
        while scale < 1.0 {
            let target = (scale + step).min(1.0);
            let mode = Mode::Dc {
                source_scale: target,
            };
            stats.source_steps += 1;
            steps += 1;
            trial.copy_from_slice(&x);
            match newton_solve(
                prep,
                opts,
                &mode,
                &mut mem,
                &mut trial,
                ws,
                &NewtonCfg::plain(),
            ) {
                Ok(it) => {
                    rung_iters += it;
                    stats.newton_iterations += it as u64;
                    std::mem::swap(&mut x, &mut trial);
                    scale = target;
                    step = (step * 1.5).min(0.25);
                }
                Err(e) => {
                    if e.is_abort() {
                        return Err(e);
                    }
                    rung_iters += error_iterations(&e);
                    stats.newton_iterations += error_iterations(&e) as u64;
                    if matches!(e, SpiceError::NonFinite { .. }) {
                        stats.nonfinite_recoveries += 1;
                    }
                    failures += 1;
                    step *= 0.25;
                    if failures > 12 || step < 1e-5 {
                        gave_up = Some(e);
                        break;
                    }
                }
            }
            budget_gate(opts, total_iters + rung_iters)?;
        }
        total_iters += rung_iters;
        match gave_up {
            None => {
                return Ok(OpResult {
                    x,
                    iterations: total_iters,
                })
            }
            Some(e) => {
                let mut r = RungReport::failed("source", rung_iters, steps);
                r.detail = format!("stalled at scale {scale:.3}");
                fail(&mut rungs, &mut worst, r, &e);
            }
        }
    }

    // 5. Pseudo-transient homotopy: artificial capacitors from every
    // node to an anchor, relaxed toward zero.
    if opts.ladder.ptran {
        stats.rungs_attempted += 1;
        match ptran_homotopy(prep, opts, &mode, start, ws, stats, total_iters) {
            Ok((x, it)) => {
                total_iters += it;
                return Ok(OpResult {
                    x,
                    iterations: total_iters,
                });
            }
            Err((r, e, it)) => {
                total_iters += it;
                if e.is_abort() {
                    return Err(e);
                }
                fail(&mut rungs, &mut worst, r, &e);
            }
        }
    }

    Err(SpiceError::NoConvergence {
        analysis: "op",
        iterations: total_iters,
        time: None,
        report: Some(Box::new(ConvergenceReport { rungs, worst })),
    })
}

/// Pseudo-transient homotopy: each step solves the circuit with an
/// artificial conductance `g` from every voltage unknown to its value
/// at the previous step (a backward-Euler companion of a grounded
/// capacitor). `g` relaxes toward zero — fast while steps converge
/// easily, backing off when they fail — until the anchor no longer
/// binds and a plain-Newton polish confirms the true solution.
///
/// Returns `(solution, iterations)` or `(rung report, last error,
/// iterations)` so the caller can fold the failure into its ladder
/// report.
#[allow(clippy::type_complexity, clippy::result_large_err)]
fn ptran_homotopy(
    prep: &Prepared,
    opts: &Options,
    mode: &Mode,
    start: &[f64],
    ws: &mut SolverWorkspace<f64>,
    stats: &mut ContinuationStats,
    base_iters: usize,
) -> std::result::Result<(Vec<f64>, usize), (RungReport, SpiceError, usize)> {
    const G_START: f64 = 1.0;
    const G_STOP: f64 = 1e-12;
    const G_MAX: f64 = 1e6;
    const MAX_STEPS: usize = 400;
    const MAX_CONSECUTIVE_FAILURES: usize = 6;

    let mut anchor = start.to_vec();
    let mut x = vec![0.0; start.len()];
    let mut g = G_START;
    let mut rung_iters = 0usize;
    let mut steps = 0usize;
    let mut consecutive_failures = 0usize;
    let mut mem = NonlinMemory::new(prep);
    let mut last_err = SpiceError::NoConvergence {
        analysis: "ptran",
        iterations: 0,
        time: None,
        report: None,
    };

    while steps < MAX_STEPS {
        if let Err(e) = budget_gate(opts, base_iters + rung_iters) {
            last_err = e;
            break;
        }
        steps += 1;
        stats.ptran_steps += 1;
        let cfg = NewtonCfg {
            diag_gmin: g,
            anchor: Some(&anchor),
            damping: 1.0,
            adaptive: true,
            claimed: None,
        };
        x.copy_from_slice(&anchor);
        let attempt = newton_solve(prep, opts, mode, &mut mem, &mut x, ws, &cfg);
        match attempt {
            Ok(it) => {
                rung_iters += it;
                stats.newton_iterations += it as u64;
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
                    let mut mem = NonlinMemory::new(prep);
                    x.copy_from_slice(&anchor);
                    match newton_solve(prep, opts, mode, &mut mem, &mut x, ws, &NewtonCfg::damped())
                    {
                        Ok(it) => {
                            rung_iters += it;
                            stats.newton_iterations += it as u64;
                            return Ok((x, rung_iters));
                        }
                        Err(e) => {
                            rung_iters += error_iterations(&e);
                            stats.newton_iterations += error_iterations(&e) as u64;
                            if matches!(e, SpiceError::NonFinite { .. }) {
                                stats.nonfinite_recoveries += 1;
                            }
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
                if e.is_abort() {
                    last_err = e;
                    break;
                }
                rung_iters += error_iterations(&e);
                stats.newton_iterations += error_iterations(&e) as u64;
                if matches!(e, SpiceError::NonFinite { .. }) {
                    stats.nonfinite_recoveries += 1;
                }
                consecutive_failures += 1;
                g *= 10.0;
                last_err = e;
                if consecutive_failures > MAX_CONSECUTIVE_FAILURES || g > G_MAX {
                    break;
                }
            }
        }
    }

    let mut r = RungReport::failed("ptran", rung_iters, steps);
    r.detail = format!("stopped at g = {g:.1e}");
    Err((r, last_err, rung_iters))
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
        op_from_eval(prep, o, x0)
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
