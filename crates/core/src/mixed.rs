//! Mixed-level simulation: the paper's key move of replacing an ideal
//! AHDL block by its real (transistor/component-level) implementation
//! and re-running the system.
//!
//! Case study: the 90° phase shifter of the image-rejection tuner. At
//! component level it is an RC-CR network; resistor mismatch shifts its
//! phase/gain balance away from the ideal, and the system-level IRR
//! degrades exactly along the paper's Fig. 5 surface.

use ahfic_rf::image_rejection::{irr_analytic_db, measure_irr_db_traced};
use ahfic_rf::plan::FrequencyPlan;
use ahfic_rf::tuner::{ImageRejectionErrors, TunerConfig};
use ahfic_spice::analysis::{sample_pool_map, BatchedAcEngine, BatchedOpEngine, Options, Session};
use ahfic_spice::circuit::{Circuit, Prepared};
use ahfic_spice::error::{Result, SpiceError};
use ahfic_trace::TraceHandle;

/// Balance errors extracted from a component-level 90° shifter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShifterBalance {
    /// Deviation of the path phase difference from 90° (degrees).
    pub phase_err_deg: f64,
    /// Fractional gain imbalance between the paths.
    pub gain_err: f64,
}

/// A reusable RC-CR characterization bench: the quadrature network is
/// compiled **once** and re-characterized at many mismatch values by
/// retuning `R1` in place ([`Circuit::set_resistance`]) — no clone, no
/// recompile per point. [`RcCrBench::characterize_many`] is the hot
/// path of the Monte-Carlo yield study and the mixed-level sweep;
/// [`RcCrBench::characterize`] is the single-point reference it agrees
/// with.
#[derive(Clone, Debug)]
pub struct RcCrBench {
    sess: Session,
    r_nom: f64,
    f0: f64,
}

impl RcCrBench {
    /// Builds and compiles the bench for design frequency `f0` and arm
    /// capacitance `c`.
    ///
    /// The network: low-pass arm `R1/C1` (output `a`) and high-pass arm
    /// `C2/R2` (output `b`). With `R1 C1 = R2 C2 = 1/(2*pi*f0)` the
    /// outputs are exactly 90° apart with equal magnitude; component
    /// mismatch breaks both balances.
    ///
    /// # Errors
    ///
    /// Propagates netlist/compile errors.
    pub fn new(f0: f64, c: f64) -> Result<Self> {
        let r_nom = 1.0 / (2.0 * std::f64::consts::PI * f0 * c);
        let mut ckt = Circuit::new();
        let input = ckt.node("in");
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("VIN", input, Circuit::gnd(), 0.0);
        ckt.set_ac("VIN", 1.0, 0.0)?;
        ckt.resistor("R1", input, a, r_nom);
        ckt.capacitor("C1", a, Circuit::gnd(), c);
        ckt.capacitor("C2", input, b, c);
        ckt.resistor("R2", b, Circuit::gnd(), r_nom);
        Ok(RcCrBench {
            sess: Session::compile(&ckt)?,
            r_nom,
            f0,
        })
    }

    /// Replaces the analysis options (chainable) — e.g. to install a
    /// trace sink so every characterization's op/AC spans are recorded.
    pub fn with_options(mut self, opts: Options) -> Self {
        self.sess = self.sess.with_options(opts);
        self
    }

    /// Characterizes the bench with `R1` catastrophically open — a
    /// manufacturing open defect. Without `R1` the low-pass output `a`
    /// is reachable only through `C1`, so the variant deck never gets
    /// near the solver: the pre-flight lint rejects it at compile time
    /// with [`ahfic_spice::error::SpiceError::LintFailed`] naming the
    /// floating node. Always returns that typed error; batch drivers
    /// use it to model defective Monte-Carlo samples, which they record
    /// as per-sample failures instead of aborting the study.
    ///
    /// # Errors
    ///
    /// Always [`ahfic_spice::error::SpiceError::LintFailed`].
    pub fn characterize_open_r1(&self) -> Result<ShifterBalance> {
        let mut ckt = Circuit::new();
        let input = ckt.node("in");
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("VIN", input, Circuit::gnd(), 0.0);
        ckt.set_ac("VIN", 1.0, 0.0)?;
        // R1 open: the low-pass arm loses its series element.
        ckt.capacitor("C1", a, Circuit::gnd(), 1e-12);
        ckt.capacitor("C2", input, b, 1e-12);
        ckt.resistor("R2", b, Circuit::gnd(), self.r_nom);
        match Prepared::compile(&ckt) {
            Err(e) => Err(e),
            Ok(_) => Err(ahfic_spice::error::SpiceError::Measure(
                "open-R1 defect deck unexpectedly passed pre-flight verification".into(),
            )),
        }
    }

    /// Characterizes the network with a fractional `R1` error of
    /// `r1_mismatch`, retuning the compiled circuit in place.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors; mismatch at or below -100% is a
    /// netlist error (non-positive resistance).
    pub fn characterize(&mut self, r1_mismatch: f64) -> Result<ShifterBalance> {
        let r1 = self.r_nom * (1.0 + r1_mismatch);
        self.sess.prepared_mut().circuit.set_resistance("R1", r1)?;
        let dc = self.sess.op()?;
        let acw = self.sess.ac(dc.x(), &[self.f0])?;
        let va = acw.signal("v(a)")?[0];
        let vb = acw.signal("v(b)")?[0];
        Ok(balance_from(va, vb))
    }

    /// Characterizes many mismatch values at once through the batched
    /// variant engine: one [`BatchedOpEngine`] and one
    /// [`BatchedAcEngine`] amortize pattern compilation and symbolic
    /// factorization over lanes of [`Options::lanes_for`] variants, and
    /// chunks are spread over a work-stealing sample pool sized by
    /// [`Options::threads`]. Results come back in input order and agree
    /// with per-point [`RcCrBench::characterize`] calls; per-point
    /// failures are per-slot `Err`s, never aborts.
    pub fn characterize_many(&self, mismatches: &[f64]) -> Vec<Result<ShifterBalance>> {
        let lanes = self.sess.options().lanes_for(mismatches.len());
        let prep = self.sess.prepared();
        let (slot_a, slot_b) = match (prep.circuit.find_node("a"), prep.circuit.find_node("b")) {
            (Some(a), Some(b)) => (prep.slot_of(a), prep.slot_of(b)),
            _ => {
                return mismatches
                    .iter()
                    .map(|_| Err(SpiceError::Measure("RC-CR bench nodes missing".into())))
                    .collect()
            }
        };
        let nchunks = mismatches.len().div_ceil(lanes);
        let chunks: Vec<Vec<Result<ShifterBalance>>> = sample_pool_map(
            self.sess.options().threads,
            nchunks,
            1,
            |_| {
                (
                    self.clone(),
                    BatchedOpEngine::new(lanes),
                    BatchedAcEngine::new(lanes),
                )
            },
            |(bench, ope, ace), ci| {
                let lo = ci * lanes;
                let hi = mismatches.len().min(lo + lanes);
                bench.characterize_chunk(ope, ace, &mismatches[lo..hi], slot_a, slot_b)
            },
        );
        chunks.into_iter().flatten().collect()
    }

    /// One lane-batch of characterizations: batched operating points,
    /// then the batched single-frequency AC solve for the lanes whose
    /// operating point converged.
    fn characterize_chunk(
        &mut self,
        ope: &mut BatchedOpEngine,
        ace: &mut BatchedAcEngine,
        mismatches: &[f64],
        slot_a: usize,
        slot_b: usize,
    ) -> Vec<Result<ShifterBalance>> {
        let r_nom = self.r_nom;
        let f0 = self.f0;
        let opts = self.sess.options().clone();
        let ops = ope.run(self.sess.prepared_mut(), &opts, mismatches.len(), |p, i| {
            p.circuit
                .set_resistance("R1", r_nom * (1.0 + mismatches[i]))
        });
        let acs = {
            let items: Vec<(usize, &[f64])> = ops
                .iter()
                .enumerate()
                .filter_map(|(i, r)| r.as_ref().ok().map(|o| (i, o.x.as_slice())))
                .collect();
            ace.run(self.sess.prepared_mut(), &opts, f0, &items, |p, i| {
                p.circuit
                    .set_resistance("R1", r_nom * (1.0 + mismatches[i]))
            })
        };
        let mut ac_iter = acs.into_iter();
        ops.into_iter()
            .map(|r| match r {
                Err(e) => Err(e),
                Ok(_) => match ac_iter.next() {
                    Some(Ok(sol)) => Ok(balance_from(sol[slot_a], sol[slot_b])),
                    Some(Err(e)) => Err(e),
                    None => Err(SpiceError::Measure("batched AC result missing".into())),
                },
            })
            .collect()
    }
}

/// Phase/gain balance of the two quadrature outputs, relative to the
/// ideal 90° split with equal magnitude.
fn balance_from(va: ahfic_num::Complex, vb: ahfic_num::Complex) -> ShifterBalance {
    let mut dphi = (vb.arg() - va.arg()).to_degrees();
    while dphi > 180.0 {
        dphi -= 360.0;
    }
    while dphi < -180.0 {
        dphi += 360.0;
    }
    ShifterBalance {
        phase_err_deg: dphi - 90.0,
        gain_err: vb.abs() / va.abs() - 1.0,
    }
}

/// Characterizes an RC-CR quadrature network at `f0` via AC analysis.
///
/// One-shot convenience over [`RcCrBench`]; sweeping many mismatch
/// values should construct the bench once instead.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn characterize_rc_cr(f0: f64, c: f64, r1_mismatch: f64) -> Result<ShifterBalance> {
    RcCrBench::new(f0, c)?.characterize(r1_mismatch)
}

/// Result of the mixed-level study.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MixedLevelReport {
    /// Balance of the real (component-level) shifter.
    pub real_balance: ShifterBalance,
    /// System IRR with the ideal behavioral shifter (dB).
    pub ideal_irr_db: f64,
    /// System IRR after substituting the real shifter's balance (dB),
    /// from the behavioral simulation.
    pub real_irr_db: f64,
    /// The closed-form prediction for the real balance (dB).
    pub predicted_irr_db: f64,
}

impl MixedLevelReport {
    /// IRR penalty paid for the real circuit (dB).
    pub fn degradation_db(&self) -> f64 {
        self.ideal_irr_db - self.real_irr_db
    }
}

/// Runs the mixed-level study: characterize the RC-CR shifter with the
/// given resistor mismatch at the second IF, back-annotate its balance
/// into the behavioral tuner and re-measure the image rejection.
///
/// # Errors
///
/// Propagates SPICE errors (characterization) and converts behavioral
/// simulation failures into [`ahfic_spice::SpiceError::Measure`].
pub fn mixed_level_study(
    plan: &FrequencyPlan,
    cfg: &TunerConfig,
    r1_mismatch: f64,
) -> Result<MixedLevelReport> {
    mixed_level_study_traced(plan, cfg, r1_mismatch, &TraceHandle::off())
}

/// [`mixed_level_study`] with telemetry: the whole study runs inside a
/// `mixed` span, the RC-CR characterization emits op/AC spans and the
/// behavioral re-runs emit `ahdl.run` spans.
///
/// # Errors
///
/// As [`mixed_level_study`].
pub fn mixed_level_study_traced(
    plan: &FrequencyPlan,
    cfg: &TunerConfig,
    r1_mismatch: f64,
    trace: &TraceHandle,
) -> Result<MixedLevelReport> {
    use ahfic_spice::error::SpiceError;
    let t = trace.tracer();
    let span = t.span("mixed");
    let real_balance = RcCrBench::new(plan.f2_if, 1e-12)?
        .with_options(Options::new().trace_handle(trace.clone()))
        .characterize(r1_mismatch)?;
    let sim = |errors: ImageRejectionErrors| -> Result<f64> {
        measure_irr_db_traced(plan, cfg, &errors, Some(2e-6), trace)
            .map_err(|e| SpiceError::Measure(format!("behavioral simulation failed: {e}")))
    };
    let ideal_irr_db = sim(ImageRejectionErrors::default())?;
    let real_errors = ImageRejectionErrors {
        lo_phase_err_deg: 0.0,
        gain_err: real_balance.gain_err,
        shifter_phase_err_deg: real_balance.phase_err_deg,
    };
    let real_irr_db = sim(real_errors)?;
    span.end();
    Ok(MixedLevelReport {
        real_balance,
        ideal_irr_db,
        real_irr_db,
        predicted_irr_db: irr_analytic_db(real_balance.phase_err_deg, real_balance.gain_err),
    })
}

/// Outcome of [`mixed_level_sweep`]: per-point shifter balances with
/// solver failures recorded instead of aborting the sweep.
#[derive(Clone, Debug)]
pub struct MixedSweepResult {
    /// `(mismatch, balance)` for every point that converged, in sweep
    /// order.
    pub points: Vec<(f64, ShifterBalance)>,
    /// Sweep points whose characterization failed; the sweep continued
    /// without them.
    pub failures: Vec<crate::robust::SampleFailure>,
}

/// Characterizes the RC-CR shifter at every mismatch in `mismatches`
/// on one compiled bench through the batched variant engine
/// ([`RcCrBench::characterize_many`]), continuing past per-point solver
/// failures (recorded in [`MixedSweepResult::failures`] and counted as
/// `mixed.sweep_failures` when tracing is on).
///
/// # Errors
///
/// Netlist/compile errors, or [`ahfic_spice::SpiceError::Measure`]
/// (via [`crate::robust`]) if **every** point failed.
pub fn mixed_level_sweep(
    f0: f64,
    c: f64,
    mismatches: &[f64],
    opts: &Options,
) -> Result<MixedSweepResult> {
    let t = opts.trace.tracer();
    let span = t.span("mixed_sweep");
    let bench = RcCrBench::new(f0, c)?.with_options(opts.clone());
    let mut points = Vec::with_capacity(mismatches.len());
    let mut failures = Vec::new();
    for (i, (&m, r)) in mismatches
        .iter()
        .zip(bench.characterize_many(mismatches))
        .enumerate()
    {
        match r {
            Ok(b) => points.push((m, b)),
            Err(e) => failures.push(crate::robust::SampleFailure::new(
                i,
                format!("mismatch {m:+.4}"),
                e,
            )),
        }
    }
    t.counter("mixed.sweep_failures", failures.len() as f64);
    span.end();
    if points.is_empty() && !mismatches.is_empty() {
        return Err(crate::robust::all_failed_error("sweep points", &failures));
    }
    Ok(MixedSweepResult { points, failures })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matched_rc_cr_is_perfect_quadrature() {
        let b = characterize_rc_cr(45e6, 1e-12, 0.0).unwrap();
        assert!(b.phase_err_deg.abs() < 1e-6, "{:?}", b);
        assert!(b.gain_err.abs() < 1e-9, "{:?}", b);
    }

    #[test]
    fn mismatch_shifts_phase_and_gain() {
        let b = characterize_rc_cr(45e6, 1e-12, 0.05).unwrap();
        // 5% R error: phase error = atan(1.05)-45deg = 1.40 deg; the LP
        // arm loses amplitude, so the HP/LP ratio gains +2.5 %.
        assert!((b.phase_err_deg - 1.397).abs() < 0.05, "{:?}", b);
        assert!((b.gain_err - 0.0253).abs() < 0.003, "{:?}", b);
    }

    #[test]
    fn mismatch_sign_flips_phase_direction() {
        let plus = characterize_rc_cr(45e6, 1e-12, 0.05).unwrap();
        let minus = characterize_rc_cr(45e6, 1e-12, -0.05).unwrap();
        assert!(plus.phase_err_deg * minus.phase_err_deg < 0.0);
    }

    #[test]
    fn sweep_records_failures_and_continues() {
        use ahfic_spice::analysis::{FaultInjector, FaultKind, LadderConfig};
        use std::sync::Arc;
        let mismatches = [-0.05, 0.0, 0.05, 0.10];
        // Fail the second point's OP deterministically.
        let inj = Arc::new(FaultInjector::once(FaultKind::NoConvergence, 1, 1));
        let no_ladder = LadderConfig {
            damping: false,
            gmin_stepping: false,
            source_stepping: false,
            ptran: false,
        };
        let opts = Options::new().fault_injector(&inj).ladder(no_ladder);
        let r = mixed_level_sweep(45e6, 1e-12, &mismatches, &opts).unwrap();
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        assert_eq!(r.failures[0].index, 1);
        assert_eq!(r.points.len(), 3);
        // Clean sweep sees every point and matches the one-shot helper.
        let clean = mixed_level_sweep(45e6, 1e-12, &mismatches, &Options::default()).unwrap();
        assert_eq!(clean.points.len(), 4);
        assert!(clean.failures.is_empty());
    }

    /// The batched sweep agrees point for point with a per-point loop
    /// over the single-point [`RcCrBench::characterize`], across batch
    /// widths.
    #[test]
    fn batched_sweep_matches_sequential() {
        use ahfic_spice::analysis::BatchMode;
        let mismatches = [-0.08, -0.02, 0.0, 0.03, 0.07, 0.12, 0.20];
        let mut bench = RcCrBench::new(45e6, 1e-12).unwrap();
        let seq: Vec<(f64, ShifterBalance)> = mismatches
            .iter()
            .map(|&m| (m, bench.characterize(m).unwrap()))
            .collect();
        for lanes in [1usize, 3, 8] {
            let opts = Options::new().batch(BatchMode::Lanes(lanes));
            let bat = mixed_level_sweep(45e6, 1e-12, &mismatches, &opts).unwrap();
            assert_eq!(bat.points.len(), seq.len(), "lanes={lanes}");
            assert!(bat.failures.is_empty());
            for (k, ((ms, s), (mb, b))) in seq.iter().zip(&bat.points).enumerate() {
                assert_eq!(ms, mb);
                assert!(
                    (s.phase_err_deg - b.phase_err_deg).abs()
                        <= 1e-9 * s.phase_err_deg.abs().max(1e-9),
                    "lanes={lanes} point {k}: {} vs {}",
                    s.phase_err_deg,
                    b.phase_err_deg
                );
                assert!(
                    (s.gain_err - b.gain_err).abs() <= 1e-9 * s.gain_err.abs().max(1e-9),
                    "lanes={lanes} point {k}: {} vs {}",
                    s.gain_err,
                    b.gain_err
                );
            }
        }
    }

    #[test]
    fn study_shows_fig5_consistent_degradation() {
        let plan = FrequencyPlan::catv(500e6);
        let cfg = TunerConfig::for_plan(&plan);
        let report = mixed_level_study(&plan, &cfg, 0.10).unwrap();
        // Ideal rejection is essentially unbounded; the real one is
        // finite and matches the Fig. 5 closed form.
        assert!(report.ideal_irr_db > 45.0, "{report:?}");
        assert!(
            report.real_irr_db < 40.0 && report.real_irr_db > 15.0,
            "{report:?}"
        );
        assert!(
            (report.real_irr_db - report.predicted_irr_db).abs() < 1.0,
            "sim {} vs predicted {}",
            report.real_irr_db,
            report.predicted_irr_db
        );
        assert!(report.degradation_db() > 5.0);
    }
}
