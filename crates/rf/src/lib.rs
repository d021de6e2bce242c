//! RF system models reproducing the paper's experiments.
//!
//! - [`plan`] — the CATV double-super frequency plan (Figs. 2–3);
//! - [`tuner`] — behavioral tuner builders: conventional (Fig. 2) and
//!   image-rejection (Fig. 4), assembled from `ahfic-ahdl` blocks;
//! - [`image_rejection`] — the Fig. 5 experiment: simulated
//!   image-rejection ratio vs phase/gain balance, the closed form, and
//!   the designer's inverse lookup (spec budgeting);
//! - [`spectrum_scan`] — the Fig. 3 node-by-node spectrum demonstration;
//! - [`ringosc`] — the Fig. 11 / Table 1 five-stage ECL ring oscillator
//!   on the transistor-level simulator.

// A malformed input must surface as a typed error, never a panic:
// `unwrap`/`expect` in non-test code warns (CI promotes warnings to
// errors), with local `#[allow]`s where an invariant guarantees success.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod distortion;
pub mod image_rejection;
pub mod mixer_tl;
pub mod noise;
pub mod plan;
pub mod pll;
pub mod ringosc;
pub mod spectrum_scan;
pub mod tuner;

pub use image_rejection::{fig5_sweep, irr_analytic_db, measure_irr_db};
pub use mixer_tl::{build_hartley_mixer, measure_irr_transistor_db, HartleyMixerParams};
pub use plan::FrequencyPlan;
pub use tuner::{build_conventional_tuner, build_image_rejection_tuner, TunerConfig};
