//! Error types for circuit construction and simulation.

use crate::lint::LintReport;
use std::fmt;

/// One unknown's contribution to a failed convergence check: how far the
/// last Newton update moved it relative to its tolerance.
#[derive(Clone, Debug, PartialEq)]
pub struct WorstUnknown {
    /// Unknown name (`v(node)` or `i(element)`).
    pub name: String,
    /// Magnitude of the last Newton update for this unknown.
    pub delta: f64,
    /// Convergence tolerance the update was checked against.
    pub tol: f64,
}

impl WorstUnknown {
    /// How many times over tolerance the update was (`>1` = unconverged).
    pub fn excess(&self) -> f64 {
        if self.tol > 0.0 {
            self.delta / self.tol
        } else {
            f64::INFINITY
        }
    }
}

/// One rung of the operating-point continuation ladder, as attempted.
#[derive(Clone, Debug, PartialEq)]
pub struct RungReport {
    /// Rung name: `"newton"`, `"damped"`, `"gmin"`, `"source"`, `"ptran"`.
    pub rung: &'static str,
    /// Newton iterations spent inside this rung.
    pub iterations: usize,
    /// Continuation steps taken (gmin stages, source steps, ptran steps;
    /// 0 for single-solve rungs).
    pub steps: usize,
    /// Whether the rung produced a converged solution.
    pub converged: bool,
    /// Free-form detail (where a stepping rung stalled, what poisoned a
    /// stamp, …). Empty when there is nothing to add.
    pub detail: String,
}

impl RungReport {
    /// A failed rung with no extra detail.
    pub fn failed(rung: &'static str, iterations: usize, steps: usize) -> Self {
        RungReport {
            rung,
            iterations,
            steps,
            converged: false,
            detail: String::new(),
        }
    }
}

/// Structured post-mortem of a failed operating-point solve: which
/// ladder rungs ran, how much work each spent, and which unknowns were
/// still moving when the last rung gave up.
///
/// Attached to [`SpiceError::NoConvergence`] and rendered by its
/// `Display`; the same data is surfaced as `op.rungs_attempted` /
/// `op.*` counters through `ahfic-trace`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConvergenceReport {
    /// Every rung attempted, in ladder order.
    pub rungs: Vec<RungReport>,
    /// Worst-residual unknowns (largest tolerance excess first) at the
    /// final failed Newton iteration.
    pub worst: Vec<WorstUnknown>,
}

impl ConvergenceReport {
    /// Total Newton iterations across all rungs.
    pub fn total_iterations(&self) -> usize {
        self.rungs.iter().map(|r| r.iterations).sum()
    }
}

impl fmt::Display for ConvergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rungs:")?;
        for r in &self.rungs {
            write!(
                f,
                " {}({} it{}{})",
                r.rung,
                r.iterations,
                if r.steps > 0 {
                    format!(", {} steps", r.steps)
                } else {
                    String::new()
                },
                if r.converged { ", ok" } else { "" }
            )?;
        }
        if !self.worst.is_empty() {
            write!(f, "; worst unknowns:")?;
            for w in &self.worst {
                write!(f, " {} (|dx|={:.3e}, tol={:.3e})", w.name, w.delta, w.tol)?;
            }
        }
        Ok(())
    }
}

/// Error produced while building, parsing or simulating a circuit.
#[derive(Clone, Debug, PartialEq)]
pub enum SpiceError {
    /// The MNA matrix was singular (typically a floating node or a loop of
    /// ideal voltage sources).
    Singular {
        /// Human-readable description of the offending unknown, when it can
        /// be attributed (`v(node)` or `i(element)`).
        unknown: String,
    },
    /// Newton iteration failed to converge in the allotted iterations even
    /// after the full continuation ladder.
    NoConvergence {
        /// Analysis that failed (`"op"`, `"tran"`, …).
        analysis: &'static str,
        /// Work spent before giving up. With `time` unset: Newton
        /// iterations of an operating point (`"op"`, `"ptran"`) or of
        /// one Newton solve (`"newton"`), or the shooting iterations of
        /// a PSS (`"pss"`, `"pac"`). With `time` set, a step failed:
        /// the transient's step attempts so far (`"tran"`), or the
        /// period integration's step attempts, committed and bisected
        /// (`"pss"`, `"pac"`).
        iterations: usize,
        /// Simulation time at failure when a transient or period step
        /// failed.
        time: Option<f64>,
        /// Structured rung-by-rung diagnostics, when the continuation
        /// ladder produced them (`None` for inner solves and transient
        /// steps).
        report: Option<Box<ConvergenceReport>>,
    },
    /// A NaN or infinity appeared in the assembled MNA system — a
    /// poisoned stamp (zero-valued part, overflowing model evaluation,
    /// or injected fault) caught before it could corrupt the solve.
    NonFinite {
        /// Analysis in which the guard fired (`"op"`, `"tran"`, …).
        analysis: &'static str,
        /// What was poisoned (matrix, right-hand side, solution).
        context: String,
    },
    /// Netlist text could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The pre-flight static verification pass found error-severity
    /// defects (floating nodes, voltage-source loops, current-source
    /// cutsets, …) under [`crate::lint::LintPolicy::Deny`].
    LintFailed(Box<LintReport>),
    /// The netlist is structurally invalid (unknown model, bad node, …).
    Netlist(String),
    /// An analysis was asked for something impossible (empty sweep, zero
    /// stop time, missing probe …).
    BadAnalysis(String),
    /// A measurement could not be extracted from simulation results.
    Measure(String),
    /// The analysis was cooperatively cancelled through a
    /// [`CancelToken`](crate::analysis::CancelToken), seen by the stop
    /// rule before a Newton iteration, solve, step, period or sweep
    /// point, or before a result was returned.
    Cancelled {
        /// The analysis the caller ran (`"op"`, `"dc"`, `"tran"`,
        /// `"pss"`, `"pac"`), also when the cancel was seen in the
        /// operating point it starts from.
        analysis: &'static str,
        /// Simulation time at cancellation for transient analyses.
        time: Option<f64>,
    },
    /// A per-job resource [`Budget`](crate::analysis::Budget) limit was
    /// reached before the analysis finished. Counter limits are checked
    /// before each unit of work, so `spent` exceeds `limit` by at most
    /// one unit: one Newton solve of the op ladder, one step, one period
    /// or one sweep point.
    BudgetExhausted {
        /// The analysis the caller ran (`"op"`, `"dc"`, `"tran"`,
        /// `"pss"`, `"pac"`), also when the limit fired in the operating
        /// point it starts from or, for PAC, in its PSS.
        analysis: &'static str,
        /// Which limit fired (`"newton_iterations"`, `"steps"`,
        /// `"wall_clock_ms"`).
        resource: &'static str,
        /// The configured limit.
        limit: u64,
        /// The work the analysis call had spent when the limit was
        /// checked: Newton iterations, steps attempted or milliseconds.
        spent: u64,
    },
}

impl SpiceError {
    /// The [`ConvergenceReport`] attached to a [`SpiceError::NoConvergence`],
    /// if any.
    pub fn convergence_report(&self) -> Option<&ConvergenceReport> {
        match self {
            SpiceError::NoConvergence { report, .. } => report.as_deref(),
            _ => None,
        }
    }

    /// The [`LintReport`] attached to a [`SpiceError::LintFailed`], if
    /// any.
    pub fn lint_report(&self) -> Option<&LintReport> {
        match self {
            SpiceError::LintFailed(report) => Some(report),
            _ => None,
        }
    }

    /// Whether this error is a deliberate abort (cancellation or budget
    /// exhaustion) rather than a solver failure. Abort errors must
    /// propagate immediately: the continuation ladder must not try
    /// further rungs to "recover" from them.
    pub fn is_abort(&self) -> bool {
        matches!(
            self,
            SpiceError::Cancelled { .. } | SpiceError::BudgetExhausted { .. }
        )
    }
}

impl fmt::Display for SpiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpiceError::Singular { unknown } => {
                write!(f, "singular MNA matrix near unknown {unknown}")
            }
            SpiceError::NoConvergence {
                analysis,
                iterations,
                time,
                report,
            } => {
                match time {
                    Some(t) => write!(
                        f,
                        "{analysis} analysis failed to converge after {iterations} step attempts at t={t:.4e}s"
                    )?,
                    None => write!(
                        f,
                        "{analysis} analysis failed to converge after {iterations} iterations"
                    )?,
                }
                if let Some(r) = report {
                    write!(f, " ({r})")?;
                }
                Ok(())
            }
            SpiceError::NonFinite { analysis, context } => {
                write!(f, "non-finite value in {analysis} analysis: {context}")
            }
            SpiceError::Parse { line, message } => {
                write!(f, "netlist parse error at line {line}: {message}")
            }
            SpiceError::LintFailed(report) => {
                write!(
                    f,
                    "pre-flight verification failed ({} error(s)): {report}",
                    report.errors().count()
                )
            }
            SpiceError::Netlist(msg) => write!(f, "invalid netlist: {msg}"),
            SpiceError::BadAnalysis(msg) => write!(f, "invalid analysis request: {msg}"),
            SpiceError::Measure(msg) => write!(f, "measurement failed: {msg}"),
            SpiceError::Cancelled { analysis, time } => match time {
                Some(t) => write!(f, "{analysis} analysis cancelled at t={t:.4e}s"),
                None => write!(f, "{analysis} analysis cancelled"),
            },
            SpiceError::BudgetExhausted {
                analysis,
                resource,
                limit,
                spent,
            } => write!(
                f,
                "{analysis} analysis exhausted its {resource} budget ({spent} spent, limit {limit})"
            ),
        }
    }
}

impl std::error::Error for SpiceError {}

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, SpiceError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = SpiceError::Singular {
            unknown: "v(out)".into(),
        };
        assert!(e.to_string().contains("v(out)"));
        let e = SpiceError::NoConvergence {
            analysis: "op",
            iterations: 100,
            time: None,
            report: None,
        };
        assert!(e.to_string().contains("op"));
        let e = SpiceError::NoConvergence {
            analysis: "tran",
            iterations: 7,
            time: Some(1e-9),
            report: None,
        };
        assert_eq!(
            e.to_string(),
            "tran analysis failed to converge after 7 step attempts at t=1.0000e-9s"
        );
        let e = SpiceError::Parse {
            line: 3,
            message: "bad token".into(),
        };
        assert!(e.to_string().contains("line 3"));
        let e = SpiceError::NonFinite {
            analysis: "op",
            context: "NaN in assembled matrix".into(),
        };
        assert!(e.to_string().contains("non-finite"));
        let e = SpiceError::Cancelled {
            analysis: "tran",
            time: Some(2.5e-9),
        };
        assert!(e.to_string().contains("cancelled at t=2.5000e-9"));
        assert!(e.is_abort());
        let e = SpiceError::Cancelled {
            analysis: "op",
            time: None,
        };
        assert!(e.to_string().contains("op analysis cancelled"));
        let e = SpiceError::BudgetExhausted {
            analysis: "op",
            resource: "newton_iterations",
            limit: 50,
            spent: 53,
        };
        assert!(e.to_string().contains("newton_iterations budget"));
        assert!(e.to_string().contains("limit 50"));
        assert!(e.is_abort());
        assert!(!SpiceError::Netlist("x".into()).is_abort());
    }

    #[test]
    fn convergence_report_renders_rungs_and_worst() {
        let report = ConvergenceReport {
            rungs: vec![
                RungReport {
                    rung: "newton",
                    iterations: 100,
                    steps: 0,
                    converged: false,
                    detail: String::new(),
                },
                RungReport {
                    rung: "source",
                    iterations: 250,
                    steps: 13,
                    converged: false,
                    detail: "stalled at scale 0.4".into(),
                },
            ],
            worst: vec![WorstUnknown {
                name: "v(out)".into(),
                delta: 1.5,
                tol: 1e-6,
            }],
        };
        assert_eq!(report.total_iterations(), 350);
        let e = SpiceError::NoConvergence {
            analysis: "op",
            iterations: 350,
            time: None,
            report: Some(Box::new(report.clone())),
        };
        let s = e.to_string();
        assert!(s.contains("newton(100 it)"), "{s}");
        assert!(s.contains("source(250 it, 13 steps)"), "{s}");
        assert!(s.contains("v(out)"), "{s}");
        assert!(e.convergence_report() == Some(&report));
        assert!((report.worst[0].excess() - 1.5e6).abs() / 1.5e6 < 1e-9);
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(SpiceError::Netlist("x".into()));
        assert!(e.to_string().contains("invalid netlist"));
    }
}
