//! Geometry-aware bipolar transistor model parameter generation.
//!
//! Reproduces §4 of the DAC'96 paper: instead of SPICE's single
//! emitter-area factor, full Gummel–Poon model cards are synthesized for
//! arbitrary transistor shapes from three inputs (the paper's Fig. 10):
//!
//! 1. a **reference transistor model** based on measurements
//!    ([`generate::ModelGenerator::with_reference`]),
//! 2. **transistor process data** ([`process::ProcessData`]) — current,
//!    capacitance and resistance densities,
//! 3. **mask design rules** ([`rules::MaskRules`]) — spacings and
//!    enclosures that determine junction areas and resistance paths.
//!
//! Shapes use the paper's Fig. 8 naming (`N1.2-12D` = 1.2 µm x 12 µm
//! single emitter, double base contact; see [`shape::TransistorShape`]).
//! [`area_factor`] implements the SPICE-style baseline for the ablation
//! experiments, and [`flow::annotate_circuit`] runs the full Fig. 10 flow
//! over a schematic.
//!
//! # Example
//!
//! ```
//! use ahfic_geom::prelude::*;
//! let generator = ModelGenerator::new(ProcessData::default(), MaskRules::default());
//! let card = generator.generate(&"N1.2-12D".parse()?);
//! assert!(card.to_card().starts_with(".model N1.2-12D NPN"));
//! # Ok::<(), ahfic_geom::shape::ParseShapeError>(())
//! ```

// A malformed input must surface as a typed error, never a panic:
// `unwrap`/`expect` in non-test code warns (CI promotes warnings to
// errors), with local `#[allow]`s where an invariant guarantees success.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod area_factor;
pub mod flow;
pub mod generate;
pub mod layout;
pub mod process;
pub mod rules;
pub mod shape;
pub mod variation;

/// Convenient glob import.
pub mod prelude {
    pub use crate::area_factor::area_factor_model;
    pub use crate::flow::{annotate_circuit, extract_shapes};
    pub use crate::generate::ModelGenerator;
    pub use crate::layout::DeviceGeometry;
    pub use crate::process::ProcessData;
    pub use crate::rules::MaskRules;
    pub use crate::shape::TransistorShape;
    pub use crate::variation::ProcessSampler;
}

pub use generate::ModelGenerator;
pub use process::ProcessData;
pub use rules::MaskRules;
pub use shape::TransistorShape;
