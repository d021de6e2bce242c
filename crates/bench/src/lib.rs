//! Benchmark harness for the AHFIC workspace.
//!
//! Three kinds of targets live here:
//!
//! - **Regeneration binaries** (`src/bin/*.rs`) — one per table/figure of
//!   the paper; each prints the same rows/series the paper reports:
//!   `fig3_spectrum`, `fig5_image_rejection`, `fig8_shapes`,
//!   `fig9_ft_curves`, `table1_ring_oscillator`, `ablation_area_factor`,
//!   `celldb_catalog`.
//! - **Criterion benches** (`benches/*.rs`) — performance of the
//!   underlying engines (solver scaling, AHDL throughput, experiment
//!   kernels).
//! - **Tooling binaries** — `solver_smoke` (solver timings into
//!   `BENCH_solver.json`) and `bit_fingerprint` (a hash of every
//!   result's bits, to diff two builds for bit identity).
//!
//! This library hosts their shared helpers.

use ahfic_geom::prelude::*;

/// The generator configuration every experiment uses (nominal process,
/// default rules) so numbers are comparable across binaries.
pub fn standard_generator() -> ModelGenerator {
    ModelGenerator::new(ProcessData::default(), MaskRules::default())
}

/// Formats a frequency in engineering units for table output.
pub fn fmt_freq(hz: f64) -> String {
    if hz >= 1e9 {
        format!("{:.3} GHz", hz / 1e9)
    } else if hz >= 1e6 {
        format!("{:.2} MHz", hz / 1e6)
    } else if hz >= 1e3 {
        format!("{:.2} kHz", hz / 1e3)
    } else {
        format!("{hz:.2} Hz")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freq_formatting() {
        assert_eq!(fmt_freq(1.234e9), "1.234 GHz");
        assert_eq!(fmt_freq(45e6), "45.00 MHz");
        assert_eq!(fmt_freq(1.5e3), "1.50 kHz");
        assert_eq!(fmt_freq(10.0), "10.00 Hz");
    }

    #[test]
    fn generator_builds() {
        let g = standard_generator();
        let m = g.generate(&"N1.2-6D".parse().unwrap());
        assert!(m.is_ > 0.0);
    }
}
