//! Benchmark tools for the AHFIC workspace.
//!
//! Three kinds of targets live here:
//!
//! - **Regeneration binaries** (`src/bin/*.rs`) — one per table/figure of
//!   the paper; each prints the same rows/series the paper reports:
//!   `fig3_spectrum`, `fig5_image_rejection`, `fig8_shapes`,
//!   `fig9_ft_curves`, `table1_ring_oscillator`, `ablation_area_factor`,
//!   `celldb_catalog`.
//! - **`bit_fingerprint`** — a hash of every result's bits, to diff two
//!   builds for bit identity.
//! - **Timing gates** (`tests/gates.rs`) — two `#[ignore]`d release-mode
//!   tests: the batched yield study is no slower than a per-sample loop,
//!   and shared-cache serving amortizes compiles at least 5×. Run them
//!   with `cargo test --release -p ahfic-bench --test gates -- --ignored
//!   --test-threads 1`.
//!
//! End-to-end and per-layer timings of the paper's workloads come from
//! the `ahfic_bench` harness (`BENCHMARK.json`), not from this crate.
//! This library hosts the helpers its targets share.

#![forbid(unsafe_code)]

use ahfic_geom::prelude::*;

pub mod fuzz;

/// The generator configuration every experiment uses (nominal process,
/// default rules) so numbers are comparable across binaries.
pub fn standard_generator() -> ModelGenerator {
    ModelGenerator::new(ProcessData::default(), MaskRules::default())
}

/// The 19-unknown image-rejection front end the tuner workloads serve:
/// two common-emitter arms on one RF input, ±45° RC networks and a
/// resistive summer.
pub const TUNER_DECK: &str = "* image-rejection front end\n\
.model rfnpn NPN (BF=90 RB=120 RE=1.5 RC=25 CJE=60f CJC=40f TF=12p)\n\
VCC vcc 0 5\n\
VRF vin 0 SIN(0 10m 100meg) AC 1\n\
RB1i vcc bi 47k\nRB2i bi 0 10k\nCINi vin bi 10p\n\
RCi vcc ci 1k\nREi ei 0 220\nCEi ei 0 20p\n\
Qi ci bi ei rfnpn\n\
RB1q vcc bq 47k\nRB2q bq 0 10k\nCINq vin bq 10p\n\
RCq vcc cq 1k\nREq eq 0 220\nCEq eq 0 20p\n\
Qq cq bq eq rfnpn\n\
CPI ci oi 2p\nRPI oi 0 800\nRPQ cq oq 800\nCPQ oq 0 2p\n\
RSI oi sum 2k\nRSQ oq sum 2k\nRL sum 0 1000\n.end\n";

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
