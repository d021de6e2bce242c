//! An analog hardware description language (AHDL) and behavioral system
//! simulator.
//!
//! Reproduces the top-down design substrate of the DAC'96 paper (§2): RF
//! systems are described block-by-block at the behavioral level and
//! simulated whole, so block specifications can be derived *before*
//! transistor-level design.
//!
//! Two ways to build blocks:
//!
//! - **AHDL text** — the paper's Fig. 1 style, compiled by
//!   [`eval::CompiledModule`]:
//!
//!   ```text
//!   module amp(in, out) {
//!       input in; output out;
//!       parameter real gain = 1.0;
//!       analog { V(out) <- gain * V(in); }
//!   }
//!   ```
//!
//! - **Built-in Rust blocks** ([`blocks`]) — mixers, quadrature LOs with
//!   gain/phase imbalance, Butterworth and band-pass filters, 90° phase
//!   shifters, limiters, noise.
//!
//! Both implement [`block::Block`] and wire into a
//! [`system::System`], which schedules the dataflow graph and produces a
//! [`probe::Trace`] for spectral measurement ([`spectrum`]).

// A malformed input must surface as a typed error, never a panic:
// `unwrap`/`expect` in non-test code warns (CI promotes warnings to
// errors), with local `#[allow]`s where an invariant guarantees success.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod ast;
pub mod block;
pub mod blocks;
pub mod check;
pub mod error;
pub mod eval;
pub mod lex;
pub mod netlist;
pub mod parse;
pub mod probe;
pub mod spectrum;
pub mod system;

/// Convenient glob import.
pub mod prelude {
    pub use crate::block::Block;
    pub use crate::blocks::*;
    pub use crate::error::AhdlError;
    pub use crate::eval::{CompiledModule, ModuleBlock};
    pub use crate::probe::Trace;
    pub use crate::system::{NetId, System};
}

pub use block::Block;
pub use error::AhdlError;
pub use eval::CompiledModule;
pub use system::System;
