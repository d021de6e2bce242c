//! The analysis session: one compiled circuit, one set of options, all
//! five analyses behind a single handle.
//!
//! [`Session`] is the primary analysis entry point: it owns a shared
//! handle to the [`Prepared`] circuit and the [`Options`] — including
//! the telemetry [`TraceHandle`](ahfic_trace::TraceHandle), the
//! cooperative [`CancelHandle`](crate::analysis::CancelHandle), and the
//! resource [`Budget`](crate::analysis::Budget) — so callers configure
//! once and run as many analyses as they need.
//!
//! Sessions hold the compiled deck as `Arc<Prepared>`: cloning a
//! session (or building many via [`Session::compile_cached`] against a
//! [`PreparedCache`]) shares one compiled deck across threads instead
//! of duplicating it.

use crate::analysis::ac::ac_sweep_impl;
use crate::analysis::dc::dc_sweep_impl;
use crate::analysis::noise::{noise_impl, NoisePoint};
use crate::analysis::op::{op_from_ws, OpResult};
use crate::analysis::pac::{pac_impl, PacParams, PacResult};
use crate::analysis::pss::{pss_impl, PssParams, PssResult};
use crate::analysis::solver::SolverWorkspace;
use crate::analysis::stamp::Options;
use crate::analysis::tran::{tran_impl, TranParams, TranResult};
use crate::cache::PreparedCache;
use crate::circuit::{Circuit, NodeId, Prepared};
use crate::error::Result;
#[allow(unused_imports)] // doc links
use crate::lint::LintPolicy;
use crate::wave::{AcWaveform, Waveform};
use std::sync::{Arc, Mutex};

/// A compiled circuit plus analysis options.
///
/// # Example
///
/// ```
/// use ahfic_spice::prelude::*;
///
/// let mut ckt = Circuit::new();
/// let vin = ckt.node("in");
/// let out = ckt.node("out");
/// ckt.vsource("V1", vin, Circuit::gnd(), 10.0);
/// ckt.resistor("R1", vin, out, 1e3);
/// ckt.resistor("R2", out, Circuit::gnd(), 1e3);
/// let sess = Session::compile(&ckt)?;
/// let op = sess.op()?;
/// assert!((sess.prepared().voltage(op.x(), out) - 5.0).abs() < 1e-9);
/// # Ok::<(), ahfic_spice::error::SpiceError>(())
/// ```
pub struct Session {
    prepared: Arc<Prepared>,
    options: Options,
    /// Cached Newton workspace, so repeated operating points on one
    /// session (a serving worker, a tuner loop) reuse the assembled
    /// sparsity pattern and factor storage instead of paying the
    /// symbolic setup per call. Taken out of the slot for the duration
    /// of a solve, so concurrent `op` calls on a shared session stay
    /// parallel (late arrivals build a fresh workspace).
    ws: Mutex<Option<SolverWorkspace<f64>>>,
}

impl Clone for Session {
    /// Clones share the compiled deck and options; the workspace cache
    /// starts empty (it is rebuilt on the clone's first operating
    /// point).
    fn clone(&self) -> Self {
        Session {
            prepared: Arc::clone(&self.prepared),
            options: self.options.clone(),
            ws: Mutex::new(None),
        }
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("prepared", &self.prepared)
            .field("options", &self.options)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Wraps an already-compiled circuit with default options.
    pub fn new(prepared: Prepared) -> Self {
        Session::from_arc(Arc::new(prepared))
    }

    /// Wraps a shared compiled circuit (e.g. one checked out of a
    /// [`PreparedCache`]) with default options.
    pub fn from_arc(prepared: Arc<Prepared>) -> Self {
        Session {
            prepared,
            options: Options::default(),
            ws: Mutex::new(None),
        }
    }

    /// Compiles `circuit` and wraps it with default options.
    ///
    /// # Errors
    ///
    /// Propagates [`Prepared::compile`] netlist errors.
    pub fn compile(circuit: &Circuit) -> Result<Self> {
        Ok(Session::new(Prepared::compile(circuit)?))
    }

    /// Compiles `circuit` under fully-formed `options`: the pre-flight
    /// lint pass runs with `options.lint` ([`LintPolicy::Deny`] by
    /// default — error-severity findings fail compilation; warnings are
    /// available through [`Session::lint_warnings`]).
    ///
    /// The options are applied atomically: the lint policy, batch mode,
    /// trace handle, cancel handle, and budget in `options` are exactly
    /// the ones the returned session runs under, and the compile itself
    /// is observable as a `compile` span on `options.trace` — so a deck
    /// compiled fresh here and one checked out of a cache by
    /// [`Session::compile_cached`] behave identically under the same
    /// options.
    ///
    /// # Errors
    ///
    /// Propagates [`Prepared::compile_with`] errors, including
    /// [`crate::error::SpiceError::LintFailed`].
    pub fn compile_with(circuit: &Circuit, options: Options) -> Result<Self> {
        let tr = options.trace.tracer();
        let span = tr.span("compile");
        let prepared = Prepared::compile_with(circuit, options.lint);
        span.end();
        Ok(Session {
            prepared: Arc::new(prepared?),
            options,
            ws: Mutex::new(None),
        })
    }

    /// Checks the deck out of `cache` (compiling at most once per
    /// content key) and wraps the shared [`Prepared`] with `options`.
    ///
    /// The cache key includes `options.lint`, so a deck compiled under
    /// [`LintPolicy::Deny`] and the same deck under [`LintPolicy::Off`]
    /// occupy distinct slots. All other options are session-local and
    /// do not affect the key.
    ///
    /// # Errors
    ///
    /// Propagates the (possibly cached) compile error of an invalid
    /// deck.
    pub fn compile_cached(
        cache: &PreparedCache,
        circuit: &Circuit,
        options: Options,
    ) -> Result<Self> {
        let deck = cache.get_or_compile(circuit, options.lint)?;
        Ok(Session {
            prepared: deck.prepared_arc(),
            options,
            ws: Mutex::new(None),
        })
    }

    /// Warning-severity findings of the pre-flight lint pass (all
    /// findings when compiled under [`LintPolicy::Warn`]).
    pub fn lint_warnings(&self) -> &[crate::lint::LintDiagnostic] {
        &self.prepared.lint_warnings
    }

    /// Replaces the analysis options (chainable).
    ///
    /// Note the lint policy is consumed at compile time; changing it
    /// here does not re-lint an already-compiled deck.
    pub fn with_options(mut self, options: Options) -> Self {
        self.options = options;
        self
    }

    /// The compiled circuit.
    pub fn prepared(&self) -> &Prepared {
        &self.prepared
    }

    /// Shared ownership of the compiled circuit (cheap clone; what
    /// concurrent jobs pass around).
    pub fn prepared_arc(&self) -> Arc<Prepared> {
        Arc::clone(&self.prepared)
    }

    /// Mutable access to the compiled circuit, e.g. to retune element
    /// values in place between runs. Copy-on-write: a deck shared with
    /// other sessions (or a cache) is cloned on first mutation, so
    /// co-tenants are never affected.
    #[allow(clippy::expect_used)]
    pub fn prepared_mut(&mut self) -> &mut Prepared {
        // The caller may change the deck's structure, not just values;
        // drop the parked workspace rather than reuse a stale pattern.
        *self.ws.get_mut().expect("session workspace lock") = None;
        Arc::make_mut(&mut self.prepared)
    }

    /// The analysis options in effect.
    pub fn options(&self) -> &Options {
        &self.options
    }

    /// Mutable access to the options (e.g. to install a trace sink or
    /// cancel handle after construction).
    pub fn options_mut(&mut self) -> &mut Options {
        &mut self.options
    }

    /// Computes the DC operating point.
    ///
    /// Strategy: plain Newton from a zero start; on failure, adaptive
    /// damped Newton; then gmin stepping (a conductance from every node
    /// to ground, progressively relaxed); then source stepping (all
    /// sources ramped from 10 % to 100 %); and finally a pseudo-transient
    /// homotopy. Rungs can be disabled individually through
    /// [`Options::ladder`].
    ///
    /// # Errors
    ///
    /// [`crate::error::SpiceError::Singular`] for structurally singular
    /// circuits; [`crate::error::SpiceError::NoConvergence`] (carrying a
    /// [`crate::error::ConvergenceReport`]) when the whole recovery
    /// ladder fails; [`crate::error::SpiceError::Cancelled`] /
    /// [`crate::error::SpiceError::BudgetExhausted`] under an options
    /// cancel handle or budget.
    pub fn op(&self) -> Result<OpResult> {
        self.op_from(None)
    }

    /// Operating point warm-started from a previous solution.
    ///
    /// Reuses this session's parked Newton workspace when its shape
    /// still matches, so a loop of operating points pays the symbolic
    /// sparse setup once.
    ///
    /// # Errors
    ///
    /// Same as [`Session::op`].
    #[allow(clippy::expect_used)]
    pub fn op_from(&self, x0: Option<&[f64]>) -> Result<OpResult> {
        let n = self.prepared.num_unknowns;
        let parked = self
            .ws
            .lock()
            .expect("session workspace lock")
            .take()
            .filter(|ws| ws.dim() == n);
        let mut ws = parked.unwrap_or_else(|| SolverWorkspace::new(n));
        let result = op_from_ws(&self.prepared, &self.options, x0, &mut ws, None, 0)
            .map_err(|h| h.error("op"));
        if result.is_ok() {
            let mut parked = self.ws.lock().expect("session workspace lock");
            if parked.is_none() {
                *parked = Some(ws);
            }
        }
        result
    }

    /// Sweeps the DC value of the named independent source.
    ///
    /// Mutates the source waveform in place (restoring it afterwards),
    /// so a deck shared with other sessions is copied on first write.
    ///
    /// # Errors
    ///
    /// [`crate::error::SpiceError::BadAnalysis`] for an empty sweep;
    /// netlist errors if the source does not exist; OP failures at any
    /// point.
    pub fn dc(&mut self, source: &str, values: &[f64]) -> Result<Waveform> {
        dc_sweep_impl(
            Arc::make_mut(&mut self.prepared),
            &self.options,
            source,
            values,
        )
    }

    /// AC sweep around the operating point `x_op`.
    ///
    /// # Errors
    ///
    /// [`crate::error::SpiceError::BadAnalysis`] for an empty frequency
    /// list; [`crate::error::SpiceError::Singular`] if the admittance
    /// matrix is singular.
    pub fn ac(&self, x_op: &[f64], freqs: &[f64]) -> Result<AcWaveform> {
        ac_sweep_impl(&self.prepared, x_op, &self.options, freqs)
    }

    /// Noise analysis at `output` around the operating point `x_op`.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Session::ac`].
    pub fn noise(&self, x_op: &[f64], output: NodeId, freqs: &[f64]) -> Result<Vec<NoisePoint>> {
        noise_impl(&self.prepared, x_op, &self.options, output, freqs)
    }

    /// Transient simulation.
    ///
    /// Returns a [`TranResult`] whose status reports whether the run
    /// completed, was cancelled, or exhausted its budget — a partial
    /// waveform is still returned in the latter two cases.
    ///
    /// # Errors
    ///
    /// Initial-OP and in-run solver failures; cancellation and budget
    /// exhaustion are *statuses* on the result, not errors.
    pub fn tran(&self, params: &TranParams) -> Result<TranResult> {
        tran_impl(&self.prepared, &self.options, params)
    }

    /// Periodic steady state by shooting Newton.
    ///
    /// Returns a [`PssResult`] whose status reports whether the
    /// shooting iteration converged, was cancelled, or exhausted its
    /// budget — the best orbit so far is still returned in the latter
    /// two cases.
    ///
    /// # Errors
    ///
    /// [`crate::error::SpiceError::BadAnalysis`] for nonsensical
    /// parameters; initial-OP and inner solver failures;
    /// [`crate::error::SpiceError::NoConvergence`] when the shooting
    /// iteration stalls.
    pub fn pss(&self, params: &PssParams) -> Result<PssResult> {
        pss_impl(&self.prepared, &self.options, params)
    }

    /// Periodic small-signal conversion gain of every input tone in
    /// `params.freqs_in`: one PSS, then the circuit linearized along the
    /// orbit (see [`crate::analysis::pac`]).
    ///
    /// Mutates the input source's waveform in place (restoring it
    /// afterwards), so a deck shared with other sessions is copied on
    /// first write.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Session::pss`], plus
    /// [`crate::error::SpiceError::BadAnalysis`] when `freq_out` is no
    /// sideband `±f_in + k·f_LO` of an input tone, and the typed
    /// cancellation and budget errors when the recurrence is stopped at
    /// a period boundary.
    pub fn pac(&mut self, pss_params: &PssParams, params: &PacParams) -> Result<PacResult> {
        pac_impl(
            Arc::make_mut(&mut self.prepared),
            &self.options,
            pss_params,
            params,
        )
    }
}

// One compiled deck must be shareable across the worker pool, and one
// session handle must be movable into a job thread. These are
// compile-time proofs; they have no runtime cost.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session>();
    assert_send_sync::<Options>();
    assert_send_sync::<Prepared>();
    assert_send_sync::<PreparedCache>();
    assert_send_sync::<crate::cache::CachedDeck>();
    assert_send_sync::<OpResult>();
    assert_send_sync::<TranResult>();
    assert_send_sync::<crate::analysis::control::CancelToken>();
    assert_send_sync::<crate::analysis::control::Budget>();
    assert_send_sync::<crate::error::SpiceError>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use ahfic_trace::{InMemorySink, RecordKind};
    use std::sync::Arc;

    fn divider() -> Circuit {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::gnd(), 12.0);
        c.resistor("R1", a, b, 2e3);
        c.resistor("R2", b, Circuit::gnd(), 1e3);
        c
    }

    #[test]
    fn session_runs_op_and_dc() {
        let ckt = divider();
        let b = ckt.find_node("b").unwrap();
        let mut sess = Session::compile(&ckt).unwrap();
        let r = sess.op().unwrap();
        assert!((sess.prepared().voltage(r.x(), b) - 4.0).abs() < 1e-9);
        let w = sess.dc("V1", &[3.0, 6.0]).unwrap();
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn session_trace_reaches_sink() {
        let ckt = divider();
        let sink = Arc::new(InMemorySink::new());
        let sess = Session::compile(&ckt)
            .unwrap()
            .with_options(Options::new().trace(&sink));
        sess.op().unwrap();
        let recs = sink.records();
        assert_eq!(recs[0].kind, RecordKind::SpanStart);
        assert_eq!(recs[0].name, "op");
        assert!(recs
            .iter()
            .any(|r| r.kind == RecordKind::Counter && r.name == "op.newton_iterations"));
        assert_eq!(recs.last().unwrap().kind, RecordKind::SpanEnd);
    }

    #[test]
    fn compile_with_traces_the_compile_atomically() {
        // The bugfix under test: options — including the trace handle —
        // are in force *during* compilation, not attached afterwards.
        let ckt = divider();
        let sink = Arc::new(InMemorySink::new());
        let sess = Session::compile_with(&ckt, Options::new().trace(&sink)).unwrap();
        let recs = sink.records();
        assert_eq!(recs[0].kind, RecordKind::SpanStart);
        assert_eq!(recs[0].name, "compile");
        assert_eq!(recs[1].kind, RecordKind::SpanEnd);
        assert!(sess.options().trace.enabled());
    }

    #[test]
    fn cached_sessions_share_one_deck() {
        let cache = PreparedCache::new(4);
        let ckt = divider();
        let s1 = Session::compile_cached(&cache, &ckt, Options::new()).unwrap();
        let s2 = Session::compile_cached(&cache, &ckt, Options::new()).unwrap();
        assert!(std::ptr::eq(
            Arc::as_ptr(&s1.prepared_arc()),
            Arc::as_ptr(&s2.prepared_arc())
        ));
        assert_eq!(cache.stats().compiles(), 1);
        // Both sessions produce the same operating point.
        let (r1, r2) = (s1.op().unwrap(), s2.op().unwrap());
        assert_eq!(r1.x(), r2.x());
    }

    #[test]
    fn dc_on_shared_deck_copies_on_write() {
        let cache = PreparedCache::new(4);
        let ckt = divider();
        let s1 = Session::compile_cached(&cache, &ckt, Options::new()).unwrap();
        let mut s2 = Session::compile_cached(&cache, &ckt, Options::new()).unwrap();
        let w = s2.dc("V1", &[3.0, 6.0]).unwrap();
        assert_eq!(w.len(), 2);
        // s1's deck is untouched; s2 now owns a private copy.
        assert!(!std::ptr::eq(
            Arc::as_ptr(&s1.prepared_arc()),
            Arc::as_ptr(&s2.prepared_arc())
        ));
        assert_eq!(
            s1.prepared().circuit.source_wave("V1").cloned(),
            Some(crate::wave::SourceWave::Dc(12.0))
        );
    }
}
