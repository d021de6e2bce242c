//! Numeric substrate for the AHFIC analog design kit.
//!
//! This crate provides the numerical kernels every other crate in the
//! workspace builds on:
//!
//! - [`Complex`] — a minimal, `f64`-based complex number with the full set
//!   of arithmetic operators and the transcendental functions circuit
//!   simulation needs;
//! - [`Matrix`] and [`lu`] — dense column-major matrices and LU
//!   factorization with partial pivoting, generic over real and complex
//!   scalars: the reference for the sparse kernel;
//! - [`sparse`] — compressed-sparse-column matrices and the LU with
//!   symbolic-pattern reuse that every MNA solve in `ahfic-spice` runs on;
//! - [`batched`] — that LU's pivot order replayed over many variants at
//!   once in structure-of-arrays lanes, bit-identical to the scalar
//!   kernel lane by lane;
//! - [`gmres`] — restarted GMRES on a matrix-free operator;
//! - [`fft`] — an in-place radix-2 FFT and helpers for spectra of real
//!   signals;
//! - [`goertzel`] — single-bin DFT evaluation, the workhorse behind tone
//!   power measurements (image-rejection ratio, THD);
//! - [`window`] — Hann/Hamming/Blackman tapers for leakage control;
//! - [`stats`], [`interp`], [`db`] — small helpers (mean/stddev, linear and
//!   log interpolation, decibel conversions) shared by the measurement code.
//!
//! # Example
//!
//! ```
//! use ahfic_num::{Complex, db::to_db_power, goertzel::tone_power};
//!
//! // Power of a 1 kHz tone sampled at 48 kHz.
//! let fs = 48e3;
//! let signal: Vec<f64> = (0..4800)
//!     .map(|n| (2.0 * std::f64::consts::PI * 1e3 * n as f64 / fs).sin())
//!     .collect();
//! let p = tone_power(&signal, fs, 1e3);
//! assert!((to_db_power(p) - to_db_power(0.5)).abs() < 0.1);
//! let j = Complex::new(0.0, 1.0);
//! assert!((j * j + Complex::ONE).abs() < 1e-15);
//! ```

// A malformed input must surface as a typed error, never a panic:
// `unwrap`/`expect` in non-test code warns (CI promotes warnings to
// errors), with local `#[allow]`s where an invariant guarantees success.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod batched;
pub mod complex;
pub mod db;
pub mod fft;
pub mod gmres;
pub mod goertzel;
pub mod interp;
pub mod lu;
pub mod matrix;
pub mod scalar;
pub mod sparse;
pub mod stats;
pub mod window;

pub use batched::CpuBatchedLu;
pub use complex::Complex;
pub use gmres::{GmresOptions, GmresOutcome, LinearOperator};
pub use lu::LuFactors;
pub use matrix::Matrix;
pub use scalar::Scalar;
pub use sparse::{CscMatrix, SparseLu, TripletBuilder};
