//! The paper's own workloads: the Table 1 ring-oscillator shape sweep,
//! the Fig. 5 image-rejection verification and the Monte-Carlo yield
//! study.

use crate::layers::Layers;
use crate::{Unit, Workload};
use ahfic::yield_mc::YieldStudy;
use ahfic_geom::prelude::{MaskRules, ModelGenerator, ProcessData, TransistorShape};
use ahfic_rf::image_rejection::{irr_analytic_db, measure_irr_db_traced};
use ahfic_rf::mixer_tl::{measure_irr_transistor_db, HartleyMixerParams};
use ahfic_rf::plan::FrequencyPlan;
use ahfic_rf::ringosc::{measure_ring_frequency, table1_experiment, RingOscParams, RingOscRow};
use ahfic_rf::tuner::{ImageRejectionErrors, TunerConfig};
use ahfic_spice::analysis::{BatchMode, Options};
use ahfic_spice::error::SpiceError;
use ahfic_trace::{InMemorySink, TraceHandle};
use std::sync::Arc;
use std::time::Instant;

/// A fresh in-memory sink when the unit is traced, and options routing
/// the program's spans and counters into it.
fn traced_options(traced: bool) -> (Option<Arc<InMemorySink>>, Options) {
    if !traced {
        return (None, Options::new());
    }
    let sink = Arc::new(InMemorySink::new());
    let opts = Options::new().trace_handle(TraceHandle::new(&sink));
    (Some(sink), opts)
}

fn absorb(layers: Option<&mut Layers>, sink: Option<Arc<InMemorySink>>) {
    if let (Some(l), Some(s)) = (layers, sink) {
        l.absorb(&s.take());
    }
}

/// Table 1 frequencies (MHz) in `fig8_catalogue` order, as measured when
/// the benchmark was defined.
const TABLE1_MHZ: [f64; 6] = [247.23, 541.96, 498.56, 201.83, 820.83, 533.36];
/// The paper's conclusion: the fastest ring uses this shape.
const BEST_SHAPE: &str = "N1.2-12D";
const TABLE1_TOL: f64 = 0.01;

/// `table1_ring`: one unit is the whole Table 1 experiment, six 30 ns
/// ring transients at 2.5 ps.
pub struct Table1 {
    generator: ModelGenerator,
    params: RingOscParams,
    shapes: Vec<TransistorShape>,
}

impl Table1 {
    /// Builds the generator and runs one warm-up ring with the best
    /// shape.
    pub fn setup() -> Result<Self, String> {
        let generator = ModelGenerator::new(ProcessData::default(), MaskRules::default());
        let params = RingOscParams::default();
        let best: TransistorShape = BEST_SHAPE
            .parse()
            .map_err(|e| format!("shape {BEST_SHAPE}: {e:?}"))?;
        let model = generator.generate(&best);
        let warm = measure_ring_frequency(&params, &model, &model, &Options::new())
            .map_err(|e| format!("warm-up ring: {e}"))?;
        if warm.frequency.is_nan() || warm.frequency <= 0.0 {
            return Err(format!("warm-up ring measured {} Hz", warm.frequency));
        }
        Ok(Table1 {
            generator,
            params,
            shapes: TransistorShape::fig8_catalogue(),
        })
    }
}

/// Rows that miss their Table 1 frequency by more than 1%, or (for the
/// row that should win) lose the best-shape ranking.
fn table1_misses(rows: &[RingOscRow]) -> u64 {
    if rows.len() != TABLE1_MHZ.len() {
        eprintln!(
            "table1_ring: {} rows, expected {}",
            rows.len(),
            TABLE1_MHZ.len()
        );
        return TABLE1_MHZ.len() as u64;
    }
    let best = rows
        .iter()
        .max_by(|a, b| a.measurement.frequency.total_cmp(&b.measurement.frequency))
        .map(|r| r.shape.to_string());
    let mut misses = 0;
    for (row, want) in rows.iter().zip(TABLE1_MHZ) {
        let got = row.measurement.frequency / 1e6;
        let off = (got / want - 1.0).abs() > TABLE1_TOL;
        let lost = row.shape.to_string() == BEST_SHAPE && best.as_deref() != Some(BEST_SHAPE);
        if off || lost {
            eprintln!(
                "table1_ring: {} at {got:.2} MHz (want {want} MHz, best {best:?})",
                row.shape
            );
            misses += 1;
        }
    }
    misses
}

impl Workload for Table1 {
    /// Runs `table1_experiment` one shape at a time, so each ring is a
    /// part of its own.
    fn unit(&mut self, layers: Option<&mut Layers>) -> Unit {
        let (sink, opts) = traced_options(layers.is_some());
        let mut parts = Vec::with_capacity(self.shapes.len());
        let mut rows = Vec::with_capacity(self.shapes.len());
        let mut errors = 0;
        for shape in &self.shapes {
            let t0 = Instant::now();
            let row = table1_experiment(
                &self.params,
                &self.generator,
                std::slice::from_ref(shape),
                &opts,
            );
            parts.push(t0.elapsed().as_secs_f64());
            match row {
                Ok(r) => rows.extend(r),
                Err(e) => {
                    eprintln!("table1_ring: {shape}: {e}");
                    errors += 1;
                }
            }
        }
        absorb(layers, sink);
        let attempted = self.shapes.len() as u64;
        let failed = if errors == 0 {
            table1_misses(&rows)
        } else {
            errors
        };
        Unit::new(parts, attempted, failed)
    }
}

/// The Fig. 5 sweep: phase error (degrees) by gain imbalance.
const FIG5_PHASES_DEG: [f64; 10] = [0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0];
const FIG5_GAINS: [f64; 5] = [0.01, 0.03, 0.05, 0.07, 0.09];
const FIG5_DURATION_S: f64 = 2e-6;
/// Transistor-level points (phase error in degrees, gain imbalance).
const FIG5_TL_POINTS: [(f64, f64); 4] = [(2.0, 0.0), (5.0, 0.0), (10.0, 0.0), (10.0, 0.05)];
/// Behavioral IRR vs the closed form (0.025 dB worst case when defined).
const AHDL_TOL_DB: f64 = 0.05;
/// Transistor-level IRR vs the closed form (−0.85 to +1.16 dB when
/// defined).
const TL_TOL_DB: f64 = 1.5;

/// `fig5_irr`: one unit is the 50-point behavioral Fig. 5 sweep plus
/// four transistor-level IRR measurements (shooting PSS + PAC).
pub struct Fig5 {
    plan: FrequencyPlan,
    cfg: TunerConfig,
}

impl Fig5 {
    /// Builds the frequency plan and warms both simulators with one
    /// checked point each.
    pub fn setup() -> Result<Self, String> {
        let plan = FrequencyPlan::catv(500e6);
        let cfg = TunerConfig::for_plan(&plan);
        let w = Fig5 { plan, cfg };
        let off = TraceHandle::off();
        let (p, g) = FIG5_TL_POINTS[3];
        if !w.ahdl_point_ok(p, g, &off) || !w.tl_point_ok(p, g, &Options::new()) {
            return Err("fig5_irr warm-up point out of tolerance".into());
        }
        Ok(w)
    }

    fn ahdl_point_ok(&self, phase: f64, gain: f64, trace: &TraceHandle) -> bool {
        let errors = ImageRejectionErrors {
            lo_phase_err_deg: phase,
            gain_err: gain,
            shifter_phase_err_deg: 0.0,
        };
        let want = irr_analytic_db(phase, gain);
        match measure_irr_db_traced(&self.plan, &self.cfg, &errors, Some(FIG5_DURATION_S), trace) {
            Ok(got) if (got - want).abs() <= AHDL_TOL_DB => true,
            Ok(got) => {
                eprintln!("fig5_irr: AHDL {phase}°/{gain}: {got:.3} dB vs analytic {want:.3}");
                false
            }
            Err(e) => {
                eprintln!("fig5_irr: AHDL {phase}°/{gain}: {e}");
                false
            }
        }
    }

    fn tl_point_ok(&self, phase: f64, gain: f64, opts: &Options) -> bool {
        let params = HartleyMixerParams::default()
            .phase_error_deg(phase)
            .gain_error(gain);
        let want = irr_analytic_db(phase, gain);
        match measure_irr_transistor_db(&params, opts) {
            Ok(r) if (r.irr_db - want).abs() <= TL_TOL_DB => true,
            Ok(r) => {
                eprintln!(
                    "fig5_irr: transistor {phase}°/{gain}: {:.2} dB vs {want:.2}",
                    r.irr_db
                );
                false
            }
            Err(e) => {
                eprintln!("fig5_irr: transistor {phase}°/{gain}: {e}");
                false
            }
        }
    }
}

impl Workload for Fig5 {
    fn unit(&mut self, layers: Option<&mut Layers>) -> Unit {
        let (sink, opts) = traced_options(layers.is_some());
        let trace = opts.trace.clone();
        let mut parts = Vec::new();
        let mut ok = 0u64;
        let mut timed = |point_ok: &dyn Fn() -> bool| {
            let t0 = Instant::now();
            ok += u64::from(point_ok());
            parts.push(t0.elapsed().as_secs_f64());
        };
        // Same order as `fig5_sweep`: one series per gain imbalance.
        for g in FIG5_GAINS {
            for p in FIG5_PHASES_DEG {
                timed(&|| self.ahdl_point_ok(p, g, &trace));
            }
        }
        for (p, g) in FIG5_TL_POINTS {
            timed(&|| self.tl_point_ok(p, g, &opts));
        }
        absorb(layers, sink);
        let attempted = parts.len() as u64;
        Unit::new(parts, attempted, attempted - ok)
    }
}

/// `yield_mc`: one unit is one 10,000-sample study on the sequential
/// path (default `Options`), 1% of samples open-R1 defects.
pub struct YieldMc {
    study: YieldStudy,
    /// `(yield_frac, mean_db)` of the warm-up study, which every timed
    /// study with the same seed must reproduce exactly.
    recorded: (f64, f64),
}

const YIELD_SAMPLES: usize = 10_000;

/// `(lint rejections, unexpected failures)` of a study's failed samples.
fn split_failures(r: &ahfic::yield_mc::YieldResult) -> (u64, u64) {
    let lint = r
        .failures
        .iter()
        .filter(|f| matches!(f.error, SpiceError::LintFailed(_)))
        .count() as u64;
    (lint, r.failures.len() as u64 - lint)
}

impl YieldMc {
    /// Runs the study once and cross-checks it against the batched
    /// variant engine, an independent path through the same samples.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let study = YieldStudy {
            samples: YIELD_SAMPLES,
            seed,
            open_defect_prob: 0.01,
            ..YieldStudy::paper_example(0.02)
        };
        let first = study.run().map_err(|e| format!("yield study: {e}"))?;
        let batched = study
            .run_with_options(Options::new().batch(BatchMode::Lanes(8)).threads(1))
            .map_err(|e| format!("batched yield study: {e}"))?;
        let (lint, other) = split_failures(&first);
        if other != 0
            || first.failures.len() != batched.failures.len()
            || first.yield_frac != batched.yield_frac
            || (first.mean_db - batched.mean_db).abs() > 1e-9
        {
            return Err(format!(
                "yield study disagrees with the batched engine: yield {} vs {}, mean {} vs {} dB, \
                 {lint} lint + {other} other failures vs {}",
                first.yield_frac,
                batched.yield_frac,
                first.mean_db,
                batched.mean_db,
                batched.failures.len()
            ));
        }
        Ok(YieldMc {
            study,
            recorded: (first.yield_frac, first.mean_db),
        })
    }
}

impl Workload for YieldMc {
    fn unit(&mut self, mut layers: Option<&mut Layers>) -> Unit {
        let (sink, opts) = traced_options(layers.is_some());
        let t0 = Instant::now();
        let result = self.study.run_traced(&opts.trace);
        let seconds = t0.elapsed().as_secs_f64();
        absorb(layers.as_deref_mut(), sink);
        let attempted = self.study.samples as u64;
        let failed = match result {
            Err(e) => {
                eprintln!("yield_mc: {e}");
                attempted
            }
            Ok(r) => {
                let (lint, other) = split_failures(&r);
                if let Some(l) = layers {
                    l.add("yield_mc.defects_rejected", lint as f64);
                }
                let mismatch = (r.yield_frac, r.mean_db) != self.recorded;
                if mismatch {
                    eprintln!(
                        "yield_mc: yield {} / mean {} dB, recorded {:?}",
                        r.yield_frac, r.mean_db, self.recorded
                    );
                }
                other + u64::from(mismatch)
            }
        };
        Unit::new(vec![seconds], attempted, failed)
    }
}
