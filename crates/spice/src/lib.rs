//! A SPICE-class analog circuit simulator.
//!
//! This crate is the transistor-level substrate of the AHFIC design kit:
//! a modified-nodal-analysis simulator with the device set and analyses
//! needed to reproduce the DAC'96 high-frequency bipolar design flow:
//!
//! - **Devices** ([`devices`]): R, C, L, mutual-inductor coupling (K),
//!   independent V/I sources (DC/SIN/PULSE/PWL), all four controlled
//!   sources (E/G/F/H), junction diodes and full Gummel–Poon BJTs with
//!   internal `RB`/`RE`/`RC` nodes, bias-dependent base resistance,
//!   depletion + diffusion charge storage, the `XTF/VTF/ITF`
//!   transit-time model that produces realistic fT roll-off, and
//!   optional `KF`/`AF` flicker noise. Every element implements the one
//!   [`devices::Device`] stamp contract; analyses walk the compiled
//!   device list and never match on element kinds.
//! - **Analyses** (all behind [`analysis::Session`]): Newton operating
//!   point with gmin/source stepping ([`analysis::Session::op`]) and a
//!   linear/nonlinear stamp split that replays cached linear stamps
//!   across iterations, DC sweeps ([`analysis::Session::dc`]), complex
//!   AC sweeps ([`analysis::Session::ac`]), noise
//!   ([`analysis::Session::noise`]) and adaptive trapezoidal transient
//!   ([`analysis::Session::tran`]). Analyses honor a cooperative
//!   [`analysis::CancelToken`] and a per-run resource
//!   [`analysis::Budget`], checked at Newton-iteration and timestep
//!   boundaries.
//! - **Compile cache** ([`cache`]): a content-addressed
//!   [`cache::PreparedCache`] shares one compiled deck (`Arc`) across
//!   concurrent sessions, with LRU eviction and hit/miss telemetry —
//!   the substrate of the `ahfic-serve` job queue.
//! - **Measurements** ([`measure`]): fT extraction from `|h21|`
//!   extrapolation, oscillation frequency from zero crossings, THD, AC
//!   gain/bandwidth.
//! - **Netlists**: a builder API ([`circuit::Circuit`]) and a SPICE deck
//!   parser ([`parse::parse_netlist`]).
//! - **Telemetry** ([`trace`]): install a [`trace::TraceSink`] via
//!   [`analysis::Options::trace`] and every analysis emits spans and
//!   work counters (Newton iterations, factorizations, step counts);
//!   with no sink installed the instrumentation is a single branch.
//!
//! # Example
//!
//! ```
//! use ahfic_spice::prelude::*;
//!
//! // 2:1 resistive divider driven by 10 V.
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let out = ckt.node("out");
//! ckt.vsource("V1", vin, Circuit::gnd(), 10.0);
//! ckt.resistor("R1", vin, out, 1e3);
//! ckt.resistor("R2", out, Circuit::gnd(), 1e3);
//! let sess = Session::compile(&ckt)?;
//! let op = sess.op()?;
//! assert!((sess.prepared().voltage(op.x(), out) - 5.0).abs() < 1e-9);
//! # Ok::<(), ahfic_spice::error::SpiceError>(())
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod cache;
pub mod circuit;
pub mod devices;
pub mod error;
pub mod lint;
pub mod measure;
pub mod model;
pub mod parse;
pub mod subckt;
pub mod units;
pub mod wave;

pub use ahfic_trace as trace;

/// Convenient glob import for typical use.
pub mod prelude {
    pub use crate::analysis::{
        bjt_operating, Budget, CancelToken, FaultInjector, FaultKind, LadderConfig, Options,
        PacParams, PacResult, PssParams, PssResult, PssStatus, Session, StreamPolicy, TranParams,
        TranResult, TranStatus,
    };
    pub use crate::cache::PreparedCache;
    pub use crate::circuit::{Circuit, NodeId, Prepared};
    pub use crate::error::{ConvergenceReport, RungReport, SpiceError, WorstUnknown};
    pub use crate::lint::{LintCode, LintDiagnostic, LintPolicy, LintReport, LintSeverity};
    pub use crate::model::{BjtModel, BjtPolarity, DiodeModel};
    pub use crate::wave::{AcWaveform, SourceWave, Waveform};
    pub use ahfic_trace::{InMemorySink, JsonLinesSink, NullSink, TraceHandle, TraceSink};
}

pub use circuit::{Circuit, NodeId, Prepared};
pub use error::SpiceError;
pub use model::{BjtModel, BjtPolarity, DiodeModel};
