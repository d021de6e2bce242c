//! MNA assembly shared by the operating-point, DC-sweep and transient
//! engines.
//!
//! Assembly walks the compiled device list (see [`crate::devices`]): the
//! **linear** partition is stamped by [`stamp_linear`] (cacheable — its
//! stamps never depend on the solution vector), the **nonlinear**
//! partition by [`stamp_nonlinear`] (re-evaluated at every candidate
//! solution with SPICE-style junction-voltage limiting). [`assemble`]
//! runs both back to back; the Newton loop splits them so the linear
//! baseline is replayed by `memcpy` instead of re-stamped.
//! `real_pattern` runs the same walk through a `PatternProbe` to
//! declare the sparsity pattern to the solver up front.

use crate::analysis::control::{Budget, CancelHandle, CancelToken, StreamPolicy};
use crate::analysis::fault::{FaultHandle, FaultInjector};
use crate::circuit::Prepared;
use crate::devices::{RealCtx, Stamper};
use crate::lint::LintPolicy;
use ahfic_num::{Matrix, Scalar};
use ahfic_trace::{TraceHandle, TraceSink};
use std::sync::Arc;

/// Which rungs of the operating-point continuation ladder are armed.
///
/// The full ladder (the default) runs, in order: plain Newton, adaptive
/// damped Newton, gmin stepping, source stepping, pseudo-transient
/// homotopy. Disabling rungs is mainly useful for benchmarking the
/// ladder itself and for reproducing legacy behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LadderConfig {
    /// Adaptive damped-Newton retry after plain Newton fails.
    pub damping: bool,
    /// Gmin stepping (diagonal conductance relaxed over decades).
    pub gmin_stepping: bool,
    /// Source stepping (all sources ramped from zero).
    pub source_stepping: bool,
    /// Pseudo-transient homotopy, the last resort.
    pub ptran: bool,
}

impl Default for LadderConfig {
    fn default() -> Self {
        LadderConfig {
            damping: true,
            gmin_stepping: true,
            source_stepping: true,
            ptran: true,
        }
    }
}

impl LadderConfig {
    /// The pre-damping/ptran ladder: plain Newton, gmin stepping, source
    /// stepping only. Kept for comparisons and benchmarks.
    pub fn legacy() -> Self {
        LadderConfig {
            damping: false,
            gmin_stepping: true,
            source_stepping: true,
            ptran: false,
        }
    }
}

/// Simulator tolerance and iteration options (SPICE names).
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`Options::new`] (or [`Options::default`]) and adjust fields through
/// the chainable builder methods:
///
/// ```
/// use ahfic_spice::analysis::Options;
/// let opts = Options::new().reltol(1e-4).threads(1);
/// assert_eq!((opts.reltol, opts.threads), (1e-4, 1));
/// ```
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub struct Options {
    /// Relative convergence tolerance.
    pub reltol: f64,
    /// Absolute voltage tolerance (V).
    pub vntol: f64,
    /// Absolute current tolerance (A).
    pub abstol: f64,
    /// Junction convergence-aid conductance (S).
    pub gmin: f64,
    /// Maximum Newton iterations per solve.
    pub max_newton: usize,
    /// Thermal voltage kT/q (V); change to simulate other temperatures.
    pub vt: f64,
    /// Cache the linear-device stamps once per Newton solve and replay
    /// them by `memcpy` each iteration (on by default). Off forces a
    /// full re-stamp every iteration; both paths produce bit-identical
    /// results because the stamp order is unchanged.
    pub linear_replay: bool,
    /// Telemetry destination; [`TraceHandle::off`] (the default) makes
    /// every instrumentation point a single not-taken branch.
    pub trace: TraceHandle,
    /// Continuation-ladder rung selection for hard operating points.
    pub ladder: LadderConfig,
    /// Deterministic fault injection; [`FaultHandle::off`] (the default)
    /// makes every poll site a single not-taken branch.
    pub faults: FaultHandle,
    /// Pre-flight static verification policy applied by
    /// [`Session::compile_with`](crate::analysis::Session::compile_with)
    /// (default: [`LintPolicy::Deny`]).
    pub lint: LintPolicy,
    /// Lane width of the batched variant engine that runs the study
    /// drivers (Monte-Carlo yield, mixed-level sweeps); see
    /// [`BatchMode`] and [`Options::lanes_for`].
    pub batch: BatchMode,
    /// Worker-thread budget for `parallel` analyses (AC/noise frequency
    /// fan-out and the batched sample pool). `0` (the default) means
    /// auto-detect from [`std::thread::available_parallelism`]; `1`
    /// pins everything on the calling thread. AC and noise results are
    /// bit-identical at every thread count.
    pub threads: usize,
    /// Cooperative cancellation; [`CancelHandle::off`] (the default)
    /// makes every poll site a single not-taken branch. Polled at
    /// Newton-iteration and transient-timestep boundaries.
    pub cancel: CancelHandle,
    /// Per-analysis resource budget (Newton iterations, transient
    /// steps, batch lanes). Unlimited by default; see
    /// [`Budget`].
    pub budget: Budget,
    /// Incremental transient-progress streaming over the trace path.
    /// Off by default; see [`StreamPolicy`].
    pub stream: StreamPolicy,
}

/// Lane width of the batched variant engine ([`Options::batch`]).
///
/// The study drivers solve groups of variants side by side over one
/// shared sparse pattern (one batched LU over structure-of-arrays
/// values), falling back to the sequential ladder per sample whenever
/// a lane misbehaves. `Lanes(1)` reproduces the sequential solver bit
/// for bit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BatchMode {
    /// Eight lanes — the default.
    #[default]
    Auto,
    /// An explicit lane count (clamped to ≥ 1).
    Lanes(usize),
}

/// Lane count used by [`BatchMode::Auto`].
const AUTO_LANES: usize = 8;

impl Default for Options {
    fn default() -> Self {
        Options {
            reltol: 1e-3,
            vntol: 1e-6,
            abstol: 1e-12,
            gmin: 1e-12,
            max_newton: 100,
            vt: crate::devices::junction::VT_300K,
            linear_replay: true,
            trace: TraceHandle::off(),
            ladder: LadderConfig::default(),
            faults: FaultHandle::off(),
            lint: LintPolicy::default(),
            batch: BatchMode::Auto,
            threads: 0,
            cancel: CancelHandle::off(),
            budget: Budget::unlimited(),
            stream: StreamPolicy::Off,
        }
    }
}

/// Destination of MNA stamps.
///
/// The assemblers write every element's linearized companion through this
/// trait, so the same stamping code fills either a dense [`Matrix`] (the
/// tests' reference) or the sparse slot-replay workspace of
/// [`crate::analysis::solver::SolverWorkspace`]. Callers guarantee indices
/// are in range and not [`crate::circuit::GROUND_SLOT`].
pub trait MnaSink<T: Scalar> {
    /// Zeroes every value, keeping structure and allocations.
    fn reset(&mut self);
    /// Accumulates `v` at `(r, c)`.
    fn add(&mut self, r: usize, c: usize, v: T);
    /// Opens a ground-guarded [`Stamper`] over this sink and `rhs` for
    /// one stamping pass. The default sends every stamp through
    /// [`MnaSink::add`].
    fn stamper<'a>(&'a mut self, rhs: &'a mut [T]) -> Stamper<'a, T>
    where
        Self: Sized,
    {
        Stamper::new(self, rhs)
    }
}

impl<T: Scalar> MnaSink<T> for Matrix<T> {
    fn reset(&mut self) {
        self.clear();
    }

    #[inline]
    fn add(&mut self, r: usize, c: usize, v: T) {
        self.add_at(r, c, v);
    }
}

/// Records the coordinate sequence of an assembly pass without storing
/// values: feeds the declared MNA pattern to the sparse solver's
/// symbolic analysis before the first numeric assembly.
#[derive(Default)]
pub(crate) struct PatternProbe {
    /// `(row, col)` of every stamp, in stamp order.
    pub coords: Vec<(usize, usize)>,
}

impl<T: Scalar> MnaSink<T> for PatternProbe {
    fn reset(&mut self) {
        self.coords.clear();
    }

    #[inline]
    fn add(&mut self, r: usize, c: usize, _v: T) {
        self.coords.push((r, c));
    }
}

impl Options {
    /// Default options; the starting point for the builder methods.
    pub fn new() -> Self {
        Options::default()
    }

    /// Default options with the thermal voltage set for a junction
    /// temperature in °C (first-order temperature support: `kT/q` only;
    /// model parameters are not re-derated).
    ///
    /// # Panics
    ///
    /// Panics below absolute zero.
    pub fn at_celsius(temp_c: f64) -> Self {
        assert!(temp_c > -273.15, "temperature below absolute zero");
        const K_OVER_Q: f64 = 8.617333262e-5; // eV/K
        Options {
            vt: K_OVER_Q * (temp_c + 273.15),
            ..Options::default()
        }
    }

    /// Sets the relative convergence tolerance.
    pub fn reltol(mut self, reltol: f64) -> Self {
        self.reltol = reltol;
        self
    }

    /// Sets the absolute voltage tolerance (V).
    pub fn vntol(mut self, vntol: f64) -> Self {
        self.vntol = vntol;
        self
    }

    /// Sets the absolute current tolerance (A).
    pub fn abstol(mut self, abstol: f64) -> Self {
        self.abstol = abstol;
        self
    }

    /// Sets the junction convergence-aid conductance (S).
    pub fn gmin(mut self, gmin: f64) -> Self {
        self.gmin = gmin;
        self
    }

    /// Sets the maximum Newton iterations per solve.
    pub fn max_newton(mut self, max_newton: usize) -> Self {
        self.max_newton = max_newton;
        self
    }

    /// Sets the thermal voltage kT/q (V).
    pub fn vt(mut self, vt: f64) -> Self {
        self.vt = vt;
        self
    }

    /// Enables or disables the linear-stamp replay cache in the Newton
    /// loop.
    pub fn linear_replay(mut self, on: bool) -> Self {
        self.linear_replay = on;
        self
    }

    /// Routes telemetry to `sink` (shared ownership).
    pub fn trace<S: TraceSink + 'static>(mut self, sink: &Arc<S>) -> Self {
        self.trace = TraceHandle::new(sink);
        self
    }

    /// Routes telemetry through an existing [`TraceHandle`].
    pub fn trace_handle(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// Selects which continuation-ladder rungs are armed.
    pub fn ladder(mut self, ladder: LadderConfig) -> Self {
        self.ladder = ladder;
        self
    }

    /// Installs a deterministic fault injector (shared ownership) — see
    /// [`crate::analysis::fault`]. Off by default and zero-cost when
    /// unset.
    pub fn fault_injector(mut self, injector: &Arc<FaultInjector>) -> Self {
        self.faults = FaultHandle::new(injector);
        self
    }

    /// Sets the pre-flight lint policy used when compiling through a
    /// [`Session`](crate::analysis::Session).
    pub fn lint(mut self, lint: LintPolicy) -> Self {
        self.lint = lint;
        self
    }

    /// Sets the batched engine's lane width for the study drivers.
    pub fn batch(mut self, batch: BatchMode) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the worker-thread budget (`0` = auto-detect).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Installs a cooperative [`CancelToken`], polled at every
    /// Newton-iteration and transient-timestep boundary. Off by default
    /// and zero-cost when unset.
    pub fn cancel_token(mut self, token: &CancelToken) -> Self {
        self.cancel = CancelHandle::new(token);
        self
    }

    /// Installs an existing [`CancelHandle`].
    pub fn cancel_handle(mut self, cancel: CancelHandle) -> Self {
        self.cancel = cancel;
        self
    }

    /// Sets the per-analysis resource [`Budget`].
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the transient-progress streaming policy.
    pub fn stream(mut self, stream: StreamPolicy) -> Self {
        self.stream = stream;
        self
    }

    /// Streams a transient-progress chunk every `n` accepted steps
    /// (shorthand for `stream(StreamPolicy::EverySteps(n))`).
    pub fn stream_every(mut self, n: usize) -> Self {
        self.stream = StreamPolicy::EverySteps(n);
        self
    }

    /// The lane width a variant study of `samples` variants runs at:
    /// the [`Options::batch`] request (`Auto` = 8), clamped by
    /// [`Budget::clamp_lanes`] and by `samples`, and never below 1.
    /// Every study driver resolves its width here.
    pub fn lanes_for(&self, samples: usize) -> usize {
        let requested = match self.batch {
            BatchMode::Auto => AUTO_LANES,
            BatchMode::Lanes(n) => n,
        };
        self.budget.clamp_lanes(requested).min(samples).max(1)
    }
}

/// Stored charge and its branch current for one charge element slot.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ChargeState {
    /// Charge (C), normalized polarity for BJTs.
    pub q: f64,
    /// Charge current `dq/dt` (A), normalized polarity.
    pub i: f64,
}

/// All charge-element state for a circuit, indexed per element.
#[derive(Clone, Debug)]
pub struct ChargeBank {
    /// First slot of each element (`usize::MAX` when it stores no charge).
    pub base: Vec<usize>,
    /// Flat state storage.
    pub states: Vec<ChargeState>,
}

impl ChargeBank {
    /// Allocates zeroed charge slots for every storage device, as
    /// declared by [`crate::devices::Device::charge_slots`].
    pub fn new(prep: &Prepared) -> Self {
        let mut base = vec![usize::MAX; prep.circuit.elements().len()];
        let mut next = 0usize;
        for d in prep.devices() {
            let n = d.charge_slots();
            if n > 0 {
                base[d.index()] = next;
                next += n;
            }
        }
        ChargeBank {
            base,
            states: vec![ChargeState::default(); next],
        }
    }
}

/// Junction-voltage memory for Newton limiting, per element.
#[derive(Clone, Debug)]
pub struct NonlinMemory {
    /// `(vbe, vbc)` per element (meaningful for BJTs), normalized polarity.
    pub bjt: Vec<(f64, f64)>,
    /// `vd` per element (meaningful for diodes).
    pub diode: Vec<f64>,
    /// Number of junctions whose Newton update was pnjlim-limited during
    /// the last assembly (0 = every junction took its full step). The
    /// per-junction count replaces the old all-or-nothing flag: the
    /// continuation ladder reads it both as a convergence veto and as a
    /// diagnostic of *how much* limiting is still happening.
    pub limited: u32,
    /// Largest voltage shift pnjlim applied during the last assembly (V).
    pub max_limit_shift: f64,
}

impl NonlinMemory {
    /// Fresh memory with all junctions at zero bias.
    pub fn new(prep: &Prepared) -> Self {
        let n = prep.circuit.elements().len();
        NonlinMemory {
            bjt: vec![(0.0, 0.0); n],
            diode: vec![0.0; n],
            limited: 0,
            max_limit_shift: 0.0,
        }
    }

    /// Records one pnjlim intervention that moved a junction voltage by
    /// `shift` volts. Called by device stamps.
    #[inline]
    pub fn note_limited(&mut self, shift: f64) {
        self.limited += 1;
        if shift > self.max_limit_shift {
            self.max_limit_shift = shift;
        }
    }

    /// Whether the last assembly limited any junction.
    #[inline]
    pub fn any_limited(&self) -> bool {
        self.limited > 0
    }
}

/// Assembly mode.
#[derive(Clone, Copy, Debug)]
pub enum Mode<'a> {
    /// DC: capacitors open, inductors short; sources at their DC value
    /// scaled by `source_scale` (1.0 normally, <1 during source stepping).
    Dc {
        /// Multiplier applied to all independent sources.
        source_scale: f64,
    },
    /// Transient Newton iteration at `time` with integration coefficient
    /// `a` (`2/h` for trapezoidal, `1/h` for backward Euler, `0` to
    /// initialize charges) against the previous-step `bank` and previous
    /// solution `x_prev`.
    Tran {
        /// Current simulation time (s).
        time: f64,
        /// Companion coefficient (1/s).
        a: f64,
        /// Backward Euler rather than trapezoidal. A charge device needs
        /// no flag, since a bank with zero stored currents turns its
        /// trapezoidal companion at `a = 1/h` into backward Euler; an
        /// inductor reads its history voltage from `x_prev` instead, and
        /// drops it on a backward-Euler step.
        be: bool,
        /// Charge states at the previous accepted timepoint.
        bank: &'a ChargeBank,
        /// Solution at the previous accepted timepoint.
        x_prev: &'a [f64],
    },
}

/// Stamps the linear device partition. These stamps depend on `mode`
/// (source values, companion coefficients) but never on `x`, so within
/// one Newton solve the result is a constant baseline.
pub fn stamp_linear<M: MnaSink<f64>>(
    prep: &Prepared,
    x: &[f64],
    opts: &Options,
    mode: &Mode,
    mat: &mut M,
    rhs: &mut [f64],
) {
    let cx = RealCtx {
        prep,
        opts,
        mode,
        x,
    };
    let mut mem_unused = NonlinMemory {
        bjt: Vec::new(),
        diode: Vec::new(),
        limited: 0,
        max_limit_shift: 0.0,
    };
    let mut s = mat.stamper(rhs);
    for &i in &prep.linear {
        prep.devices[i].stamp_real(&cx, &mut mem_unused, &mut s);
    }
}

/// Stamps the nonlinear device partition, linearized at `x`. Resets and
/// updates `mem.limited`.
pub fn stamp_nonlinear<M: MnaSink<f64>>(
    prep: &Prepared,
    x: &[f64],
    opts: &Options,
    mode: &Mode,
    mem: &mut NonlinMemory,
    mat: &mut M,
    rhs: &mut [f64],
) {
    mem.limited = 0;
    mem.max_limit_shift = 0.0;
    let cx = RealCtx {
        prep,
        opts,
        mode,
        x,
    };
    let mut s = mat.stamper(rhs);
    for &i in &prep.nonlinear {
        prep.devices[i].stamp_real(&cx, mem, &mut s);
    }
}

/// Assembles the full linearized MNA system at candidate solution `x`:
/// reset, linear partition, then nonlinear partition.
///
/// `mem` carries junction-limiting memory between Newton iterations and
/// reports whether limiting fired.
pub fn assemble<M: MnaSink<f64>>(
    prep: &Prepared,
    x: &[f64],
    opts: &Options,
    mode: &Mode,
    mem: &mut NonlinMemory,
    mat: &mut M,
    rhs: &mut [f64],
) {
    mat.reset();
    rhs.fill(0.0);
    stamp_linear(prep, x, opts, mode, mat, rhs);
    stamp_nonlinear(prep, x, opts, mode, mem, mat, rhs);
}

/// Runs the Newton full-pass stamp sequence (linear partition, one
/// diagonal gmin slot per voltage row, nonlinear partition) through a
/// probe and returns the coordinate list, ready for
/// [`crate::analysis::solver::SolverWorkspace::preset_pattern`].
///
/// Uses scratch junction memory so probing never disturbs the real
/// Newton limiting state.
pub(crate) fn real_pattern(
    prep: &Prepared,
    x: &[f64],
    opts: &Options,
    mode: &Mode,
    diag_rows: usize,
) -> Vec<(usize, usize)> {
    let mut probe = PatternProbe::default();
    let mut rhs = vec![0.0; prep.num_unknowns];
    let mut mem = NonlinMemory::new(prep);
    stamp_linear(prep, x, opts, mode, &mut probe, &mut rhs);
    for k in 0..diag_rows {
        MnaSink::<f64>::add(&mut probe, k, k, 0.0);
    }
    rhs.fill(0.0);
    stamp_nonlinear(prep, x, opts, mode, &mut mem, &mut probe, &mut rhs);
    probe.coords
}

/// Recomputes every storage device's charge state at solution `x` into
/// `states` (sized like the bank's state vector). No matrix assembly
/// happens; this is how the transient engine initializes charges and
/// commits them after an accepted step.
pub fn update_all_charges(
    prep: &Prepared,
    x: &[f64],
    opts: &Options,
    mode: &Mode,
    states: &mut [ChargeState],
) {
    let Mode::Tran { bank, .. } = mode else {
        return;
    };
    let cx = RealCtx {
        prep,
        opts,
        mode,
        x,
    };
    for d in prep.devices() {
        let n = d.charge_slots();
        if n == 0 {
            continue;
        }
        let b = bank.base[d.index()];
        d.update_charges(&cx, &mut states[b..b + n]);
    }
}

/// The tolerance of unknown `k` between two of its values `a` and `b`:
/// `reltol` of the larger magnitude plus `vntol` for a node voltage or
/// `abstol` for a branch current.
#[inline]
fn unknown_tol(prep: &Prepared, opts: &Options, k: usize, a: f64, b: f64) -> f64 {
    let tol_abs = if k < prep.num_voltage_unknowns {
        opts.vntol
    } else {
        opts.abstol
    };
    opts.reltol * a.abs().max(b.abs()) + tol_abs
}

/// The scaled size of the update `x_old → x_new`: the weighted max norm
/// `max_k |x_new[k] − x_old[k]| / tol_k`, so `≤ 1` means every unknown
/// moved within its tolerance. Newton's convergence test and the
/// shooting residual.
#[inline]
pub(crate) fn update_norm(prep: &Prepared, opts: &Options, x_old: &[f64], x_new: &[f64]) -> f64 {
    let mut metric = 0.0f64;
    for k in 0..prep.num_unknowns {
        let tol = unknown_tol(prep, opts, k, x_new[k], x_old[k]);
        metric = metric.max((x_new[k] - x_old[k]).abs() / tol);
    }
    metric
}

/// Ranks the unknowns whose last Newton update exceeded tolerance the
/// most, named for [`crate::error::ConvergenceReport`] diagnostics.
/// Only called on failure paths.
pub(crate) fn worst_unknowns(
    prep: &Prepared,
    x_old: &[f64],
    x_new: &[f64],
    opts: &Options,
    top: usize,
) -> Vec<crate::error::WorstUnknown> {
    let mut ranked: Vec<(f64, usize, f64, f64)> = (0..prep.num_unknowns)
        .map(|k| {
            let tol = unknown_tol(prep, opts, k, x_new[k], x_old[k]);
            let delta = (x_new[k] - x_old[k]).abs();
            // Non-finite iterates rank worst of all.
            let score = if delta.is_finite() {
                delta / tol
            } else {
                f64::INFINITY
            };
            (score, k, delta, tol)
        })
        .filter(|&(score, ..)| score > 1.0 || !score.is_finite())
        .collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
    ranked
        .into_iter()
        .take(top)
        .map(|(_, k, delta, tol)| crate::error::WorstUnknown {
            name: prep
                .unknown_names
                .get(k)
                .cloned()
                .unwrap_or_else(|| format!("#{k}")),
            delta,
            tol,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use ahfic_num::lu;

    /// Assemble and directly solve a linear circuit in DC mode.
    fn solve_dc(ckt: Circuit) -> (Prepared, Vec<f64>) {
        let prep = Prepared::compile(&ckt).unwrap();
        let n = prep.num_unknowns;
        let mut mat = Matrix::zeros(n, n);
        let mut rhs = vec![0.0; n];
        let mut mem = NonlinMemory::new(&prep);
        let x = vec![0.0; n];
        let opts = Options::default();
        assemble(
            &prep,
            &x,
            &opts,
            &Mode::Dc { source_scale: 1.0 },
            &mut mem,
            &mut mat,
            &mut rhs,
        );
        let sol = lu::solve(mat, &rhs).unwrap();
        (prep, sol)
    }

    #[test]
    fn voltage_divider() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource("V1", vin, Circuit::gnd(), 10.0);
        c.resistor("R1", vin, out, 1e3);
        c.resistor("R2", out, Circuit::gnd(), 3e3);
        let (prep, x) = solve_dc(c);
        assert!((prep.voltage(&x, out) - 7.5).abs() < 1e-9);
        // Source current: 10V over 4k = 2.5 mA flowing out of + terminal,
        // i.e. -2.5 mA into it per the SPICE convention.
        let i = x[prep.branch_slot("V1").unwrap()];
        assert!((i + 2.5e-3).abs() < 1e-9);
    }

    #[test]
    fn current_source_polarity() {
        let mut c = Circuit::new();
        let out = c.node("out");
        // 1 mA from ground into `out` through a 1k to ground: v = +1V.
        c.isource("I1", Circuit::gnd(), out, 1e-3);
        c.resistor("R1", out, Circuit::gnd(), 1e3);
        let (prep, x) = solve_dc(c);
        assert!((prep.voltage(&x, out) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn vcvs_gain() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::gnd(), 2.0);
        c.vcvs("E1", b, Circuit::gnd(), a, Circuit::gnd(), 5.0);
        c.resistor("RL", b, Circuit::gnd(), 1e3);
        let (prep, x) = solve_dc(c);
        assert!((prep.voltage(&x, b) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn vccs_injects_current() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::gnd(), 1.0);
        // gm = 1mS controlled by v(a): pushes 1 mA from gnd into b.
        c.vccs("G1", Circuit::gnd(), b, a, Circuit::gnd(), 1e-3);
        c.resistor("RL", b, Circuit::gnd(), 1e3);
        let (prep, x) = solve_dc(c);
        assert!((prep.voltage(&x, b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cccs_mirrors_current() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::gnd(), 1.0);
        c.resistor("R1", a, Circuit::gnd(), 1e3); // i(V1) = -1 mA
        c.cccs("F1", Circuit::gnd(), b, "V1", 2.0);
        c.resistor("RL", b, Circuit::gnd(), 1e3);
        let (prep, x) = solve_dc(c);
        // F injects 2*i(V1) = -2 mA from gnd to b -> v(b) = -2 V.
        assert!((prep.voltage(&x, b) + 2.0).abs() < 1e-9);
    }

    #[test]
    fn ccvs_transresistance() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::gnd(), 1.0);
        c.resistor("R1", a, Circuit::gnd(), 1e3);
        c.ccvs("H1", b, Circuit::gnd(), "V1", 500.0);
        c.resistor("RL", b, Circuit::gnd(), 1e3);
        let (prep, x) = solve_dc(c);
        // v(b) = 500 * (-1 mA) = -0.5 V.
        assert!((prep.voltage(&x, b) + 0.5).abs() < 1e-9);
    }

    #[test]
    fn inductor_is_dc_short() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::gnd(), 1.0);
        c.inductor("L1", a, b, 1e-6);
        c.resistor("R1", b, Circuit::gnd(), 100.0);
        let (prep, x) = solve_dc(c);
        assert!((prep.voltage(&x, b) - 1.0).abs() < 1e-6);
        let i = x[prep.branch_slot("L1").unwrap()];
        assert!((i - 0.01).abs() < 1e-6);
    }

    #[test]
    fn temperature_scales_thermal_voltage() {
        let cold = Options::at_celsius(-40.0);
        let room = Options::at_celsius(26.85);
        let hot = Options::at_celsius(125.0);
        assert!(cold.vt < room.vt && room.vt < hot.vt);
        assert!((room.vt - Options::default().vt).abs() < 1e-4);
        // A diode drop shrinks with temperature at fixed current: check
        // via the junction law directly.
        use crate::devices::diode::eval_diode;
        use crate::model::DiodeModel;
        let m = DiodeModel::default();
        let i_cold = eval_diode(&m, 0.65, cold.vt, 0.0).id;
        let i_hot = eval_diode(&m, 0.65, hot.vt, 0.0).id;
        assert!(
            i_cold > i_hot,
            "same V -> more current when cold (fixed IS)"
        );
    }

    #[test]
    fn update_norm_checks_tolerances() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R1", a, Circuit::gnd(), 1.0);
        let prep = Prepared::compile(&c).unwrap();
        let opts = Options::default();
        assert!(update_norm(&prep, &opts, &[1.0], &[1.0 + 1e-7]) <= 1.0);
        assert!(update_norm(&prep, &opts, &[1.0], &[1.01]) > 1.0);
    }

    #[test]
    fn pattern_probe_matches_assembly_coords() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::gnd(), 1.0);
        c.resistor("R1", a, b, 1e3);
        c.resistor("R2", b, Circuit::gnd(), 1e3);
        let prep = Prepared::compile(&c).unwrap();
        let opts = Options::default();
        let mode = Mode::Dc { source_scale: 1.0 };
        let x = vec![0.0; prep.num_unknowns];
        let pat = real_pattern(&prep, &x, &opts, &mode, prep.num_voltage_unknowns);
        // Two resistors (4 stamps each, minus ground drops), one source
        // (4 branch stamps minus ground drops), plus one diagonal slot
        // per voltage row.
        assert!(pat.len() >= prep.num_unknowns);
        assert!(pat.contains(&(0, 0)));
        for &(r, c) in &pat {
            assert!(r < prep.num_unknowns && c < prep.num_unknowns);
        }
    }
}
