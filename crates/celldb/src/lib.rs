//! The Analog Cell-based Design Supporting System (paper §3).
//!
//! A database of previously designed, validated analog circuits:
//! each [`cell::Cell`] carries the views of the paper's Fig. 7 —
//! operation document, behavioral (AHDL) description, primitive-element
//! (SPICE) schematic, block symbol and stored simulation data — organized
//! in the Fig. 6 taxonomy (`library / category / subcategory`).
//!
//! - [`db::CellDb`] — registration (views are *validated*: AHDL must
//!   compile, schematics must parse), retrieval and copy-out for re-use;
//! - [`mod@search`] — the keyword/category search front-end;
//! - [`store`] — JSON persistence;
//! - [`catalog`] — static HTML/Markdown rendering, standing in for the
//!   paper's intranet WWW server;
//! - [`seed`] — a demonstration library mirroring the paper's examples.
//!
//! # Example
//!
//! ```
//! use ahfic_celldb::{search::{search, SearchQuery}, seed::seed_library};
//! let db = seed_library()?;
//! let hits = search(&db, &SearchQuery::keywords("image rejection"));
//! assert_eq!(hits[0].cell.name, "IRMIX1");
//! let reused = db.copy_out("IRMIX1", "IRMIX_MY_IC")?;
//! assert!(reused.views.behavioral.is_some());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// A malformed input must surface as a typed error, never a panic:
// `unwrap`/`expect` in non-test code warns (CI promotes warnings to
// errors), with local `#[allow]`s where an invariant guarantees success.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod cell;
pub mod db;
pub mod search;
pub mod seed;
pub mod store;
pub mod views;

pub use cell::{CategoryPath, Cell};
pub use db::{CellDb, CellDbError};
pub use search::{search, SearchQuery};
