//! Monte-Carlo yield analysis: the paper's §2.2 requires designers to
//! "examine the performance of this system taking IC process variations
//! into account" — this module quantifies it for the image-rejection
//! spec.
//!
//! Each sample draws a component mismatch for the 90° shifter, runs the
//! SPICE characterization of the RC-CR network, maps the resulting
//! balance through the system-level IRR relation, and scores it against
//! the requirement. The characterizations run through the batched
//! variant engine ([`RcCrBench::characterize_many`]) one fixed window of
//! draws at a time, so a study never holds more than one window of
//! per-sample outcomes.

use crate::mixed::RcCrBench;
use crate::robust::{all_failed_error, SampleFailure};
use ahfic_rf::image_rejection::irr_analytic_db;
use ahfic_spice::analysis::fault::splitmix64;
use ahfic_spice::analysis::Options;
use ahfic_spice::error::Result;
use ahfic_trace::TraceHandle;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Yield study configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct YieldStudy {
    /// System requirement (dB).
    pub required_irr_db: f64,
    /// 1-sigma fractional resistor mismatch of the shifter.
    pub sigma_mismatch: f64,
    /// Second IF (shifter design frequency), Hz.
    pub f2_if: f64,
    /// Number of Monte-Carlo samples.
    pub samples: usize,
    /// RNG seed (reproducible). Every sample derives its own child
    /// stream from `(seed, sample index)` via a splitmix64 hash, so
    /// sample `i`'s draws are identical whatever the total sample
    /// count, the defect setting, or the execution order (see
    /// [`YieldStudy::sample_draw`]).
    pub seed: u64,
    /// Probability that a sample is a catastrophic open-`R1` defect
    /// (manufacturing open) instead of a parametric mismatch draw. A
    /// defective sample's deck fails pre-flight verification
    /// ([`ahfic_spice::error::SpiceError::LintFailed`]) and is recorded
    /// as a per-sample failure; the study continues. Because every
    /// sample draws from its own child stream, enabling defects never
    /// perturbs another sample's mismatch draw.
    pub open_defect_prob: f64,
}

impl YieldStudy {
    /// The paper's example: 30 dB at 45 MHz.
    pub fn paper_example(sigma_mismatch: f64) -> Self {
        YieldStudy {
            required_irr_db: 30.0,
            sigma_mismatch,
            f2_if: 45e6,
            samples: 200,
            seed: 1996,
            open_defect_prob: 0.0,
        }
    }

    /// Sample `index`'s draws: its fractional `R1` mismatch and whether
    /// it is an open-`R1` defect. Depends only on the seed, the spreads
    /// and `index`.
    pub fn sample_draw(&self, index: usize) -> (f64, bool) {
        let mut rng = sample_rng(self.seed, index as u64);
        let mismatch = self.sigma_mismatch * standard_normal(&mut rng);
        let defective = self.open_defect_prob > 0.0 && rng.random::<f64>() < self.open_defect_prob;
        (mismatch, defective)
    }
}

/// Draws characterized and recorded together: the healthy ones of each
/// window go through the batched engine in one call. A constant, not an
/// option: it bounds memory (about 2048 per-sample `Result`s) while
/// keeping every worker of the sample pool busy.
const WINDOW: usize = 2048;

/// Outcome of a yield study.
///
/// Statistics are computed over the samples whose characterization
/// converged to a finite IRR; solver failures and non-finite values are
/// recorded instead of aborting the run.
#[derive(Clone, Debug, PartialEq)]
pub struct YieldResult {
    /// Per-sample IRR (dB) of the successful samples, in draw order.
    pub irr_db: Vec<f64>,
    /// Fraction of successful samples meeting the requirement.
    pub yield_frac: f64,
    /// Mean IRR (dB).
    pub mean_db: f64,
    /// 5th-percentile IRR (dB) — the "slow corner" number.
    pub p5_db: f64,
    /// Samples whose SPICE characterization failed (solver error); the
    /// run continued without them.
    pub failures: Vec<SampleFailure>,
    /// Samples that converged but produced a non-finite IRR, excluded
    /// from the statistics.
    pub non_finite: usize,
}

impl YieldResult {
    /// Total samples attempted, converged or not.
    pub fn attempted(&self) -> usize {
        self.irr_db.len() + self.failures.len() + self.non_finite
    }
}

impl YieldStudy {
    /// Runs the study.
    ///
    /// # Errors
    ///
    /// Propagates SPICE characterization failures.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    pub fn run(&self) -> Result<YieldResult> {
        self.run_traced(&TraceHandle::off())
    }

    /// [`Self::run`] with telemetry: the whole study runs inside a
    /// `yield_mc` span with `yield_mc.samples` / `.failed_samples` /
    /// `.non_finite_samples` counters, and every sample's op/AC spans
    /// land in the same sink.
    ///
    /// # Errors
    ///
    /// As [`Self::run`].
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    pub fn run_traced(&self, trace: &TraceHandle) -> Result<YieldResult> {
        self.run_with_options(Options::new().trace_handle(trace.clone()))
    }

    /// [`Self::run_traced`] with full control over the analysis options
    /// (lane width, threads, convergence-ladder configuration, fault
    /// injection). Per-sample solver failures do not abort the study:
    /// they are recorded in [`YieldResult::failures`] and the
    /// statistics are computed over the samples that converged.
    /// Per-sample results do not depend on [`Options::threads`].
    ///
    /// # Errors
    ///
    /// Netlist/compile errors, or [`ahfic_spice::SpiceError::Measure`] if **every**
    /// sample failed.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    pub fn run_with_options(&self, opts: Options) -> Result<YieldResult> {
        assert!(self.samples > 0, "need at least one sample");
        let t = opts.trace.tracer();
        let span = t.span("yield_mc");
        // One compiled bench for the whole study; each sample only
        // retunes R1 in place.
        let bench = RcCrBench::new(self.f2_if, 1e-12)?.with_options(opts.clone());
        let mut irr_db = Vec::with_capacity(self.samples);
        let mut failures: Vec<SampleFailure> = Vec::new();
        let mut non_finite = 0usize;
        for lo in (0..self.samples).step_by(WINDOW) {
            let draws: Vec<(f64, bool)> = (lo..self.samples.min(lo + WINDOW))
                .map(|i| self.sample_draw(i))
                .collect();
            // Healthy samples run through the batched engine in draw
            // order; defective decks are lint-rejected one by one.
            let healthy: Vec<f64> = draws.iter().filter(|d| !d.1).map(|d| d.0).collect();
            let mut balances = bench.characterize_many(&healthy).into_iter();
            for (i, (mismatch, defective)) in (lo..).zip(draws) {
                let outcome = if defective {
                    bench.characterize_open_r1()
                } else {
                    balances.next().unwrap_or_else(|| {
                        Err(ahfic_spice::error::SpiceError::Measure(
                            "batched yield sample result missing".into(),
                        ))
                    })
                };
                match outcome {
                    Ok(balance) => {
                        let irr = irr_analytic_db(balance.phase_err_deg, balance.gain_err);
                        if irr.is_finite() {
                            irr_db.push(irr);
                        } else {
                            non_finite += 1;
                        }
                    }
                    Err(e) => {
                        let label = if defective {
                            "open-R1 defect".to_string()
                        } else {
                            format!("mismatch {mismatch:+.4}")
                        };
                        failures.push(SampleFailure::new(i, label, e));
                    }
                }
            }
        }
        t.counter("yield_mc.samples", self.samples as f64);
        t.counter("yield_mc.failed_samples", failures.len() as f64);
        t.counter("yield_mc.non_finite_samples", non_finite as f64);
        span.end();
        self.summarize(irr_db, failures, non_finite)
    }

    /// The statistics of the recorded samples, or the all-failed error.
    fn summarize(
        &self,
        irr_db: Vec<f64>,
        failures: Vec<SampleFailure>,
        non_finite: usize,
    ) -> Result<YieldResult> {
        if irr_db.is_empty() {
            if failures.is_empty() {
                return Err(ahfic_spice::error::SpiceError::Measure(format!(
                    "all {non_finite} yield samples produced a non-finite IRR"
                )));
            }
            return Err(all_failed_error("yield samples", &failures));
        }
        let pass = irr_db
            .iter()
            .filter(|&&v| v >= self.required_irr_db)
            .count();
        let mean_db = irr_db.iter().sum::<f64>() / irr_db.len() as f64;
        let mut sorted = irr_db.clone();
        sorted.sort_by(f64::total_cmp);
        let p5_db = sorted[(sorted.len() as f64 * 0.05) as usize];
        Ok(YieldResult {
            yield_frac: pass as f64 / irr_db.len() as f64,
            mean_db,
            p5_db,
            irr_db,
            failures,
            non_finite,
        })
    }
}

/// Child RNG for one Monte-Carlo sample: depends only on the study seed
/// and the sample index, making per-sample draws order-independent.
fn sample_rng(seed: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(seed ^ splitmix64(index)))
}

fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-15);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tight_process_yields_everything() {
        let r = YieldStudy {
            samples: 60,
            ..YieldStudy::paper_example(0.005)
        }
        .run()
        .unwrap();
        assert!(r.yield_frac > 0.95, "yield {}", r.yield_frac);
        assert!(r.mean_db > 40.0);
    }

    #[test]
    fn loose_process_loses_yield() {
        let tight = YieldStudy {
            samples: 80,
            ..YieldStudy::paper_example(0.01)
        }
        .run()
        .unwrap();
        let loose = YieldStudy {
            samples: 80,
            ..YieldStudy::paper_example(0.15)
        }
        .run()
        .unwrap();
        assert!(loose.yield_frac < tight.yield_frac);
        assert!(loose.p5_db < tight.p5_db);
        assert!(loose.yield_frac < 0.95, "15% sigma must hurt");
    }

    #[test]
    fn reproducible_with_seed() {
        let a = YieldStudy::paper_example(0.05).run().unwrap();
        let b = YieldStudy::paper_example(0.05).run().unwrap();
        assert_eq!(a.irr_db, b.irr_db);
    }

    #[test]
    fn injected_failures_degrade_gracefully() {
        use ahfic_spice::analysis::{FaultInjector, FaultKind, LadderConfig};
        use std::sync::Arc;
        // Force every 7th OP solve to report non-convergence, with the
        // recovery ladder disabled so the failure reaches the sample
        // level: those samples must be recorded as failures, everything
        // else must still produce statistics.
        let inj = Arc::new(FaultInjector::recurring(FaultKind::NoConvergence, 3, 7));
        let no_ladder = LadderConfig {
            damping: false,
            gmin_stepping: false,
            source_stepping: false,
            ptran: false,
        };
        let study = YieldStudy {
            samples: 40,
            ..YieldStudy::paper_example(0.05)
        };
        let r = study
            .run_with_options(Options::new().fault_injector(&inj).ladder(no_ladder))
            .unwrap();
        assert!(!r.failures.is_empty(), "injector never fired");
        assert_eq!(r.attempted(), 40);
        assert_eq!(r.irr_db.len() + r.failures.len() + r.non_finite, 40);
        assert!((0.0..=1.0).contains(&r.yield_frac));
        // The clean run sees strictly more samples.
        let clean = study.run().unwrap();
        assert!(clean.failures.is_empty());
        assert!(clean.irr_db.len() > r.irr_db.len());
    }

    #[test]
    fn open_defects_are_lint_rejected_and_recorded_not_fatal() {
        let study = YieldStudy {
            samples: 40,
            open_defect_prob: 0.3,
            ..YieldStudy::paper_example(0.05)
        };
        let r = study.run().unwrap();
        // Defective samples show up as recorded failures carrying the
        // pre-flight LintFailed error; the healthy samples still
        // produce statistics.
        assert!(!r.failures.is_empty(), "30% defect rate over 40 samples");
        assert!(!r.irr_db.is_empty());
        assert_eq!(r.attempted(), 40);
        for f in &r.failures {
            assert_eq!(f.label, "open-R1 defect");
            assert!(
                matches!(f.error, ahfic_spice::error::SpiceError::LintFailed(_)),
                "{:?}",
                f.error
            );
            assert!(f.error.to_string().contains("floating"), "{}", f.error);
        }
        // Defect draws are part of the seeded stream: reproducible.
        let again = study.run().unwrap();
        assert_eq!(r.irr_db, again.irr_db);
        assert_eq!(r.failures.len(), again.failures.len());
    }

    #[test]
    fn zero_defect_prob_reproduces_the_defect_free_stream() {
        let base = YieldStudy {
            samples: 30,
            ..YieldStudy::paper_example(0.05)
        };
        let with_field = YieldStudy {
            open_defect_prob: 0.0,
            ..base
        };
        assert_eq!(base.run().unwrap().irr_db, with_field.run().unwrap().irr_db);
    }

    /// Per-sample child streams make draws order-independent: a short
    /// study is a strict prefix of a longer one, and enabling defects
    /// leaves the surviving samples' IRRs untouched.
    #[test]
    fn per_sample_streams_are_order_independent() {
        let short = YieldStudy {
            samples: 10,
            ..YieldStudy::paper_example(0.05)
        }
        .run()
        .unwrap();
        let long = YieldStudy {
            samples: 30,
            ..YieldStudy::paper_example(0.05)
        }
        .run()
        .unwrap();
        assert_eq!(short.irr_db[..], long.irr_db[..10]);
        // With defects enabled, the non-defective samples draw exactly
        // the same mismatches: their IRRs match the defect-free run at
        // the surviving indices.
        let defects = YieldStudy {
            samples: 30,
            open_defect_prob: 0.25,
            ..YieldStudy::paper_example(0.05)
        }
        .run()
        .unwrap();
        assert!(!defects.failures.is_empty(), "25% defects over 30 samples");
        let failed: std::collections::HashSet<usize> =
            defects.failures.iter().map(|f| f.index).collect();
        let surviving: Vec<f64> = long
            .irr_db
            .iter()
            .enumerate()
            .filter(|(i, _)| !failed.contains(i))
            .map(|(_, &v)| v)
            .collect();
        assert_eq!(defects.irr_db, surviving);
    }

    /// The batched study reproduces a per-sample loop over the
    /// single-point API (`RcCrBench::characterize`, or the open-R1
    /// rejection): same draw order, same failure indices, statistics
    /// equal to far below the Newton tolerance.
    #[test]
    fn batched_study_matches_sequential_statistics() {
        use ahfic_spice::analysis::BatchMode;
        let study = YieldStudy {
            samples: 64,
            open_defect_prob: 0.15,
            ..YieldStudy::paper_example(0.1)
        };
        let mut bench = RcCrBench::new(study.f2_if, 1e-12).unwrap();
        let (mut irr_db, mut failures) = (Vec::new(), Vec::new());
        for i in 0..study.samples {
            let (mismatch, defective) = study.sample_draw(i);
            let outcome = if defective {
                bench.characterize_open_r1()
            } else {
                bench.characterize(mismatch)
            };
            match outcome {
                Ok(b) => irr_db.push(irr_analytic_db(b.phase_err_deg, b.gain_err)),
                Err(e) => failures.push(SampleFailure::new(i, String::new(), e)),
            }
        }
        let seq = study.summarize(irr_db, failures, 0).unwrap();
        let bat = study
            .run_with_options(Options::new().batch(BatchMode::Lanes(8)))
            .unwrap();
        assert_eq!(seq.irr_db.len(), bat.irr_db.len());
        let seq_failed: Vec<usize> = seq.failures.iter().map(|f| f.index).collect();
        let bat_failed: Vec<usize> = bat.failures.iter().map(|f| f.index).collect();
        assert_eq!(seq_failed, bat_failed);
        for (s, b) in seq.irr_db.iter().zip(&bat.irr_db) {
            assert!((s - b).abs() <= 1e-5 * s.abs().max(1.0), "{s} vs {b}");
        }
        assert!((seq.mean_db - bat.mean_db).abs() <= 1e-5 * seq.mean_db.abs().max(1.0));
        assert!((seq.p5_db - bat.p5_db).abs() <= 1e-5 * seq.p5_db.abs().max(1.0));
        assert_eq!(seq.yield_frac, bat.yield_frac);
    }

    /// Per-sample IRRs are bitwise independent of the thread count and
    /// of where the recording windows fall: a study spanning three
    /// windows gives the same bits on one and two threads, and a shorter
    /// study with its own window boundaries is a bitwise prefix of it.
    #[test]
    fn samples_are_bitwise_independent_of_threads_and_windows() {
        let long = YieldStudy {
            samples: 2 * WINDOW + 3,
            open_defect_prob: 0.05,
            ..YieldStudy::paper_example(0.05)
        };
        let bits = |r: &YieldResult| r.irr_db.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let failed = |r: &YieldResult| r.failures.iter().map(|f| f.index).collect::<Vec<_>>();
        let one = long.run_with_options(Options::new().threads(1)).unwrap();
        let two = long.run_with_options(Options::new().threads(2)).unwrap();
        assert!(!one.failures.is_empty(), "5% defects over 4099 samples");
        assert_eq!(bits(&one), bits(&two));
        assert_eq!(failed(&one), failed(&two));
        let short = YieldStudy {
            samples: WINDOW + 5,
            ..long
        }
        .run_with_options(Options::new().threads(2))
        .unwrap();
        assert_eq!(bits(&short)[..], bits(&one)[..short.irr_db.len()]);
        assert_eq!(failed(&short)[..], failed(&one)[..short.failures.len()]);
    }

    /// Every study driver honours `Budget::max_lanes`: capped at one
    /// lane, a single-threaded study runs one batched operating point
    /// per healthy sample instead of one per eight.
    #[test]
    fn budget_lane_cap_reaches_every_study_driver() {
        use crate::mixed::mixed_level_sweep;
        use ahfic_spice::analysis::Budget;
        use ahfic_trace::{InMemorySink, RecordKind};
        use std::sync::Arc;
        let sink = Arc::new(InMemorySink::new());
        let op_batches = || {
            sink.take()
                .iter()
                .filter(|r| matches!(r.kind, RecordKind::SpanEnd) && r.name == "op_batch")
                .count()
        };
        let traced = Options::new().threads(1).trace(&sink);
        let capped = traced.clone().budget(Budget::unlimited().max_lanes(1));
        let study = YieldStudy {
            samples: 20,
            ..YieldStudy::paper_example(0.05)
        };
        study.run_with_options(traced).unwrap();
        assert_eq!(op_batches(), 3, "20 samples in lanes of 8");
        study.run_with_options(capped.clone()).unwrap();
        assert_eq!(op_batches(), 20);
        mixed_level_sweep(45e6, 1e-12, &[-0.05, 0.0, 0.05, 0.1, 0.15], &capped).unwrap();
        assert_eq!(op_batches(), 5);
    }

    #[test]
    fn statistics_are_consistent() {
        let r = YieldStudy {
            samples: 50,
            ..YieldStudy::paper_example(0.05)
        }
        .run()
        .unwrap();
        assert_eq!(r.irr_db.len(), 50);
        assert!(r.p5_db <= r.mean_db);
        assert!((0.0..=1.0).contains(&r.yield_frac));
    }
}
