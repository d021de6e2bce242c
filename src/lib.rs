//! Umbrella crate for the AHFIC workspace.
//!
//! Re-exports every member crate so examples and integration tests can use
//! a single dependency. Library users should depend on the individual
//! crates ([`ahfic`], [`ahfic_spice`], …) instead.

#![forbid(unsafe_code)]

pub use ahfic as core;
pub use ahfic_ahdl as ahdl;
pub use ahfic_celldb as celldb;
pub use ahfic_geom as geom;
pub use ahfic_num as num;
pub use ahfic_rf as rf;
pub use ahfic_spice as spice;
