//! Circuit analyses: operating point, DC sweep, AC sweep, transient.
//!
//! The numerical hot paths are annotated to warn on `unwrap`/`expect`
//! outside tests: a malformed netlist or a pathological circuit must
//! surface as a typed [`SpiceError`](crate::error::SpiceError), never a
//! panic. The few remaining `expect`s carry local `#[allow]`s with the
//! invariant that justifies them.

pub mod ac;
#[cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod batched;
#[cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod control;
#[cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod dc;
pub mod fault;
pub mod noise;
#[cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod op;
#[cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod pac;
#[cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod pool;
#[cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod pss;
pub mod report;
pub mod session;
#[cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod solver;
#[cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod stamp;
#[cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
mod stepper;
#[cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod tran;

pub use batched::{BatchedAcEngine, BatchedOpEngine};
pub use control::{Budget, CancelHandle, CancelToken, Deadline, StreamPolicy};
pub use fault::{FaultHandle, FaultInjector, FaultKind, FaultTrigger};
pub use noise::{NoiseContribution, NoisePoint};
pub use op::{bjt_operating, OpResult};
pub use pac::{PacParams, PacResult};
pub use pool::sample_pool_map;
pub use pss::{PssParams, PssResult, PssStatus};
pub use report::{lint_report, op_report};
pub use session::Session;
pub use solver::SolverWorkspace;
pub use stamp::{BatchMode, LadderConfig, Options};
pub use tran::{TranParams, TranResult, TranStatus};
