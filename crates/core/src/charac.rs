//! Transistor-level block characterization: run the SPICE view of a
//! block, extract its small-signal behaviour, and build a calibrated
//! behavioral model — the downward link of the top-down flow.

use ahfic_ahdl::block::Block;
use ahfic_ahdl::blocks::filter::FirstOrderLp;
use ahfic_num::interp::logspace;
use ahfic_spice::analysis::{Options, Session};
use ahfic_spice::error::{Result, SpiceError};
use ahfic_spice::measure::characterize as ac_characterize;
use ahfic_spice::parse::parse_netlist;

/// Description of the characterization test bench.
#[derive(Clone, Debug, PartialEq)]
pub struct CharacterizationBench {
    /// Complete SPICE netlist of the block plus bias/drive sources.
    pub netlist: String,
    /// Name of the independent source to excite (its AC spec is set to
    /// 1∠0°).
    pub input_source: String,
    /// Node whose voltage is the block output.
    pub output_node: String,
    /// Reference frequency for gain/phase (Hz).
    pub f_ref: f64,
    /// Upper edge of the AC sweep (Hz).
    pub f_max: f64,
    /// Points in the logarithmic sweep.
    pub points: usize,
}

impl CharacterizationBench {
    /// Standard bench: sweep `f_ref/100 … f_max` with 60 points.
    pub fn new(
        netlist: &str,
        input_source: &str,
        output_node: &str,
        f_ref: f64,
        f_max: f64,
    ) -> Self {
        CharacterizationBench {
            netlist: netlist.to_string(),
            input_source: input_source.to_string(),
            output_node: output_node.to_string(),
            f_ref,
            f_max,
            points: 60,
        }
    }
}

/// Extracted small-signal behaviour of a block.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockCharacterization {
    /// Gain magnitude at `f_ref`.
    pub gain: f64,
    /// Gain in dB.
    pub gain_db: f64,
    /// Phase at `f_ref` (degrees).
    pub phase_deg: f64,
    /// -3 dB bandwidth (Hz), when inside the sweep.
    pub bw_3db: Option<f64>,
    /// Reference frequency (Hz).
    pub f_ref: f64,
}

/// Runs OP + AC on the bench and extracts gain/phase/bandwidth.
///
/// # Errors
///
/// Propagates netlist/OP/AC errors; [`ahfic_spice::SpiceError::Measure`] when the
/// output node does not exist.
pub fn characterize(bench: &CharacterizationBench) -> Result<BlockCharacterization> {
    characterize_with(bench, &Options::default())
}

/// [`characterize`] with explicit analysis options — notably a
/// [`TraceHandle`](ahfic_trace::TraceHandle) — wrapping the whole
/// extraction in a `charac` span.
///
/// # Errors
///
/// As [`characterize`].
pub fn characterize_with(
    bench: &CharacterizationBench,
    opts: &Options,
) -> Result<BlockCharacterization> {
    let t = opts.trace.tracer();
    let span = t.span("charac");
    let mut ckt = parse_netlist(&bench.netlist)?;
    ckt.set_ac(&bench.input_source, 1.0, 0.0)?;
    if ckt.find_node(&bench.output_node).is_none() {
        return Err(SpiceError::Measure(format!(
            "no node named {} in bench netlist",
            bench.output_node
        )));
    }
    let sess = Session::compile(&ckt)?.with_options(opts.clone());
    let dc = sess.op()?;
    let freqs = logspace(bench.f_ref / 100.0, bench.f_max, bench.points.max(8));
    let acw = sess.ac(dc.x(), &freqs)?;
    let c = ac_characterize(&acw, &format!("v({})", bench.output_node), bench.f_ref)?;
    span.end();
    Ok(BlockCharacterization {
        gain: c.gain,
        gain_db: c.gain_db,
        phase_deg: c.phase_deg,
        bw_3db: c.bw_3db,
        f_ref: bench.f_ref,
    })
}

/// Outcome of [`characterize_batch`]: per-bench results in input order,
/// with solver failures recorded instead of aborting the batch.
#[derive(Clone, Debug)]
pub struct BatchCharacterization {
    /// Successful characterizations, keyed by bench index.
    pub results: Vec<(usize, BlockCharacterization)>,
    /// Benches whose OP or AC analysis failed; the batch continued
    /// without them.
    pub failures: Vec<crate::robust::SampleFailure>,
}

impl BatchCharacterization {
    /// Benches attempted, converged or not.
    pub fn attempted(&self) -> usize {
        self.results.len() + self.failures.len()
    }
}

/// Characterizes every bench in `benches`, continuing past per-bench
/// solver failures: a hard-start bias network in one corner must not
/// abort the other corners. Failure counts are emitted as
/// `charac.batch_failures` when tracing is on.
///
/// Benches are independent netlists with distinct patterns, so they are
/// batched across threads rather than lanes: a work-stealing sample pool
/// sized by [`Options::threads`] keeps every core busy even when bench
/// costs are wildly uneven (lint-rejected decks return immediately).
/// Results do not depend on the thread count.
///
/// # Errors
///
/// [`ahfic_spice::SpiceError::Measure`] only if **every** bench failed; otherwise
/// failures land in [`BatchCharacterization::failures`].
pub fn characterize_batch(
    benches: &[CharacterizationBench],
    opts: &Options,
) -> Result<BatchCharacterization> {
    let t = opts.trace.tracer();
    let span = t.span("charac_batch");
    let mut results = Vec::new();
    let mut failures = Vec::new();
    let outcomes = ahfic_spice::analysis::sample_pool_map(
        opts.threads,
        benches.len(),
        1,
        |_| (),
        |(), i| characterize_with(&benches[i], opts),
    );
    for (i, (bench, outcome)) in benches.iter().zip(outcomes).enumerate() {
        match outcome {
            Ok(c) => results.push((i, c)),
            Err(e) => failures.push(crate::robust::SampleFailure::new(
                i,
                format!("bench output {}", bench.output_node),
                e,
            )),
        }
    }
    t.counter("charac.batch_failures", failures.len() as f64);
    span.end();
    if results.is_empty() && !benches.is_empty() {
        return Err(crate::robust::all_failed_error("benches", &failures));
    }
    Ok(BatchCharacterization { results, failures })
}

/// Distortion characterization of the same bench: drives the input
/// source with a sine of amplitude `drive` at `f0` (riding on its DC
/// bias) and returns the output THD ratio (5 harmonics).
///
/// # Errors
///
/// Propagates parse/simulation/measurement failures.
pub fn characterize_distortion(bench: &CharacterizationBench, drive: f64, f0: f64) -> Result<f64> {
    use ahfic_spice::analysis::TranParams;
    use ahfic_spice::wave::SourceWave;

    let mut ckt = parse_netlist(&bench.netlist)?;
    if ckt.find_element(&bench.input_source).is_none() {
        return Err(SpiceError::Measure(format!(
            "no source {}",
            bench.input_source
        )));
    }
    let dc = ckt
        .source_wave(&bench.input_source)
        .map(|w| w.dc_value())
        .ok_or_else(|| {
            SpiceError::Measure(format!(
                "{} is not an independent source",
                bench.input_source
            ))
        })?;
    ckt.set_source_wave(
        &bench.input_source,
        SourceWave::Sin {
            offset: dc,
            ampl: drive,
            freq: f0,
            delay: 0.0,
            damping: 0.0,
            phase_deg: 0.0,
        },
    )?;
    let sess = Session::compile(&ckt)?;
    // 12 periods, resolved to ~200 points per period.
    let period = 1.0 / f0;
    let wave = sess
        .tran(&TranParams::new(12.0 * period, period / 200.0))?
        .into_wave();
    ahfic_spice::measure::thd(&wave, &format!("v({})", bench.output_node), f0, 0.4)
}

/// A behavioral amplifier calibrated to a characterization: flat gain
/// cascaded with a first-order roll-off at the measured bandwidth (or
/// pure gain when the sweep never found the -3 dB point).
#[derive(Clone, Debug)]
pub struct CalibratedAmp {
    gain: f64,
    lp: Option<FirstOrderLp>,
    label: String,
}

impl CalibratedAmp {
    /// Builds the calibrated model for a behavioral simulation running at
    /// sample rate `fs`.
    ///
    /// # Panics
    ///
    /// Panics if the measured bandwidth is above `fs/2` is fine (the
    /// roll-off is then omitted); panics only on non-positive `fs`.
    pub fn new(charac: &BlockCharacterization, fs: f64) -> Self {
        assert!(fs > 0.0, "fs must be positive");
        let lp = charac
            .bw_3db
            .filter(|&bw| bw < fs / 2.0)
            .map(|bw| FirstOrderLp::new(bw, fs));
        CalibratedAmp {
            gain: charac.gain,
            lp,
            label: format!("amp({:.2} dB)", charac.gain_db),
        }
    }

    /// The flat gain applied.
    pub fn gain(&self) -> f64 {
        self.gain
    }
}

impl Block for CalibratedAmp {
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn tick(&mut self, t: f64, dt: f64, inputs: &[f64], outputs: &mut [f64]) {
        let x = self.gain * inputs[0];
        match &mut self.lp {
            Some(lp) => lp.tick(t, dt, &[x], outputs),
            None => outputs[0] = x,
        }
    }
    fn reset(&mut self) {
        if let Some(lp) = &mut self.lp {
            lp.reset();
        }
    }
    fn kind(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Common-emitter amplifier bench used across tests.
    fn ce_bench() -> CharacterizationBench {
        CharacterizationBench::new(
            "* common-emitter stage\n\
             .model n NPN (IS=2e-16 BF=120 RB=100 RE=2 RC=30 CJE=80f CJC=45f TF=16p)\n\
             VCC vcc 0 5\n\
             VIN b 0 0.78\n\
             RC vcc c 500\n\
             Q1 c b 0 n\n",
            "VIN",
            "c",
            1e6,
            50e9,
        )
    }

    #[test]
    fn ce_stage_characterizes_sensibly() {
        let c = characterize(&ce_bench()).unwrap();
        assert!(c.gain > 5.0, "gain {}", c.gain);
        // Inverting stage.
        assert!((c.phase_deg.abs() - 180.0).abs() < 5.0, "{}", c.phase_deg);
        let bw = c.bw_3db.expect("bandwidth inside sweep");
        assert!(bw > 50e6 && bw < 20e9, "bw {bw:.3e}");
    }

    /// The pooled batch reproduces a per-bench loop over the
    /// single-bench [`characterize_with`] bit for bit, on one thread and
    /// on two, including the failure bookkeeping for a lint-rejected
    /// corner.
    #[test]
    fn pooled_batch_matches_sequential() {
        let mut broken = ce_bench();
        broken.netlist = "VIN in 0 1\nR1 in mid 1k\nR2 mid 0 1k\nC1 mid out 1p\n".into();
        broken.output_node = "out".into();
        let benches = [ce_bench(), broken, ce_bench()];
        let seq: Vec<Result<BlockCharacterization>> = benches
            .iter()
            .map(|b| characterize_with(b, &Options::default()))
            .collect();
        for threads in [1, 2] {
            let pooled = characterize_batch(&benches, &Options::new().threads(threads)).unwrap();
            assert_eq!(pooled.attempted(), seq.len());
            let mut ok = pooled.results.iter();
            let mut failed = pooled.failures.iter();
            for (i, s) in seq.iter().enumerate() {
                match s {
                    Ok(sc) => assert_eq!(ok.next(), Some(&(i, *sc)), "threads={threads}"),
                    Err(_) => assert_eq!(failed.next().map(|f| f.index), Some(i)),
                }
            }
        }
    }

    #[test]
    fn rc_divider_characterizes_exactly() {
        let bench = CharacterizationBench::new(
            "VIN in 0 1\nR1 in out 1k\nR2 out 0 1k\nC1 out 0 1p\n",
            "VIN",
            "out",
            1e3,
            1e12,
        );
        let c = characterize(&bench).unwrap();
        assert!((c.gain - 0.5).abs() < 1e-6);
        // Pole at 1/(2 pi * 500 * 1p) = 318 MHz.
        let bw = c.bw_3db.unwrap();
        assert!((bw - 318.3e6).abs() / 318.3e6 < 0.02, "bw {bw:.4e}");
    }

    #[test]
    fn distortion_grows_with_drive() {
        let bench = ce_bench();
        let thd_small = characterize_distortion(&bench, 2e-3, 10e6).unwrap();
        let thd_large = characterize_distortion(&bench, 20e-3, 10e6).unwrap();
        // Exponential transfer: THD scales roughly with drive.
        assert!(thd_small < 0.05, "small-signal THD {thd_small}");
        assert!(thd_large > 4.0 * thd_small, "{thd_large} vs {thd_small}");
    }

    #[test]
    fn batch_continues_past_injected_failure() {
        use ahfic_spice::analysis::{FaultInjector, FaultKind, LadderConfig};
        use std::sync::Arc;
        let benches = vec![ce_bench(), ce_bench(), ce_bench()];
        // Kill the very first OP solve; with the recovery ladder off the
        // first bench fails while the other two characterize normally.
        // One thread makes "first" the first bench.
        let inj = Arc::new(FaultInjector::once(FaultKind::NoConvergence, 0, 1));
        let no_ladder = LadderConfig {
            damping: false,
            gmin_stepping: false,
            source_stepping: false,
            ptran: false,
        };
        let opts = Options::new()
            .fault_injector(&inj)
            .ladder(no_ladder)
            .threads(1);
        let b = characterize_batch(&benches, &opts).unwrap();
        assert_eq!(b.attempted(), 3);
        assert_eq!(b.failures.len(), 1, "{:?}", b.failures);
        assert_eq!(b.failures[0].index, 0);
        assert_eq!(b.results.len(), 2);
        assert!(b.results.iter().all(|(_, c)| c.gain > 5.0));
    }

    #[test]
    fn batch_skips_lint_rejected_bench_and_records_it() {
        // The middle bench's output node hangs behind a capacitor: the
        // pre-flight verification rejects the deck at compile time, and
        // the batch must record that as a per-bench failure instead of
        // aborting the healthy corners.
        let mut broken = ce_bench();
        broken.netlist = "VIN in 0 1\nR1 in mid 1k\nR2 mid 0 1k\nC1 mid out 1p\n".into();
        broken.output_node = "out".into();
        let benches = vec![ce_bench(), broken, ce_bench()];
        let b = characterize_batch(&benches, &Options::default()).unwrap();
        assert_eq!(b.attempted(), 3);
        assert_eq!(b.failures.len(), 1, "{:?}", b.failures);
        assert_eq!(b.failures[0].index, 1);
        assert!(
            matches!(
                b.failures[0].error,
                ahfic_spice::error::SpiceError::LintFailed(_)
            ),
            "{:?}",
            b.failures[0].error
        );
        assert!(
            b.failures[0].error.to_string().contains("floating"),
            "{}",
            b.failures[0].error
        );
        assert_eq!(b.results.len(), 2);
    }

    #[test]
    fn empty_batch_is_ok_and_empty() {
        let b = characterize_batch(&[], &Options::default()).unwrap();
        assert_eq!(b.attempted(), 0);
    }

    #[test]
    fn missing_output_node_is_error() {
        let mut bench = ce_bench();
        bench.output_node = "nonexistent".into();
        assert!(matches!(characterize(&bench), Err(SpiceError::Measure(_))));
    }

    #[test]
    fn calibrated_amp_matches_characterization() {
        let charac = BlockCharacterization {
            gain: 2.0,
            gain_db: 6.02,
            phase_deg: 0.0,
            bw_3db: Some(10e6),
            f_ref: 1e3,
        };
        let fs = 1e9;
        let mut amp = CalibratedAmp::new(&charac, fs);
        assert_eq!(amp.gain(), 2.0);
        // Low-frequency gain is 2.
        let mut out = [0.0];
        for k in 0..200000 {
            amp.tick(k as f64 / fs, 1.0 / fs, &[1.0], &mut out);
        }
        assert!((out[0] - 2.0).abs() < 1e-3, "dc gain {}", out[0]);
    }

    #[test]
    fn calibrated_amp_without_bandwidth_is_flat() {
        let charac = BlockCharacterization {
            gain: -3.0,
            gain_db: 9.54,
            phase_deg: 180.0,
            bw_3db: None,
            f_ref: 1e3,
        };
        let mut amp = CalibratedAmp::new(&charac, 1e6);
        let mut out = [0.0];
        amp.tick(0.0, 1e-6, &[2.0], &mut out);
        assert_eq!(out[0], -6.0);
    }
}
