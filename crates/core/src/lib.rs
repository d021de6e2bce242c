//! The top-down design methodology for analog high-frequency ICs —
//! the primary contribution of the DAC'96 paper, as an executable
//! library.
//!
//! The methodology rests on three legs, each provided by a substrate
//! crate and tied together here:
//!
//! 1. **Top-down behavioral design** (`ahfic-ahdl` + `ahfic-rf`): whole
//!    systems are simulated at the AHDL level; [`budget`] turns system
//!    specs into block specs (the Fig. 5 inversion), and [`hierarchy`]
//!    tracks every function block with swappable behavioral/transistor
//!    views.
//! 2. **Circuit re-use** (`ahfic-celldb`): [`hierarchy::DesignBlock::from_cell`]
//!    pulls validated cells straight into a design.
//! 3. **Accurate devices** (`ahfic-spice` + `ahfic-geom`): [`charac`]
//!    characterizes transistor-level blocks back into calibrated
//!    behavioral models, and [`mixed`] re-runs the system with real
//!    circuit behaviour substituted — the paper's ideal-vs-real
//!    comparison.
//!
//! [`flow::TopDownFlow`] chains all six stages over the paper's worked
//! example (a CATV double-super tuner with a 30 dB image-rejection
//! requirement) and produces a [`flow::FlowReport`].
//!
//! Every stage is observable: install a [`trace`] sink (for example
//! [`trace::InMemorySink`]) via [`flow::TopDownFlow::with_trace`] and
//! render the result with [`report::render_trace_summary`].
//!
//! # Example
//!
//! ```no_run
//! use ahfic::flow::TopDownFlow;
//! use ahfic_celldb::seed::seed_library;
//! let db = seed_library()?;
//! let report = TopDownFlow::paper_example().run(&db)?;
//! assert!(report.final_pass);
//! println!("{}", ahfic::report::render_text(&report));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Batch studies must degrade gracefully, never panic: `unwrap`/`expect`
// in non-test code warns (CI promotes warnings to errors), with local
// `#[allow]`s where an invariant genuinely guarantees success.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod budget;
pub mod charac;
pub mod cosim;
pub mod flow;
pub mod hierarchy;
pub mod mixed;
pub mod report;
pub mod robust;
pub mod spec;
pub mod yield_mc;

pub use ahfic_trace as trace;

pub use flow::{FlowReport, TopDownFlow};
pub use hierarchy::{BlockView, Design, DesignBlock, ViewLevel};
pub use report::{render_text, render_trace_summary};
pub use spec::{Quantity, Requirement, SpecStatus};
