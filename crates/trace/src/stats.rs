//! Per-analysis statistics structs.
//!
//! Analyses accumulate these cheaply (plain integer adds, always on)
//! and emit them as counters through a [`Tracer`](crate::Tracer) only
//! when a sink is installed.

use crate::Tracer;

/// Linear-kernel work: factorization and solve counts and
/// (when timing is enabled) their accumulated wall time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SolverStats {
    /// Number of LU factorizations performed.
    pub factorizations: u64,
    /// Number of triangular solves performed.
    pub solves: u64,
    /// Accumulated factorization wall time (zero unless timing was on).
    pub factor_seconds: f64,
    /// Accumulated solve wall time (zero unless timing was on).
    pub solve_seconds: f64,
}

impl SolverStats {
    /// Adds another accumulator into this one.
    pub fn merge(&mut self, other: &SolverStats) {
        self.factorizations += other.factorizations;
        self.solves += other.solves;
        self.factor_seconds += other.factor_seconds;
        self.solve_seconds += other.solve_seconds;
    }

    /// The work done since `earlier` was captured from the same
    /// accumulator.
    pub fn delta(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            factorizations: self.factorizations - earlier.factorizations,
            solves: self.solves - earlier.solves,
            factor_seconds: self.factor_seconds - earlier.factor_seconds,
            solve_seconds: self.solve_seconds - earlier.solve_seconds,
        }
    }

    /// Emits `<prefix>.factorizations`, `.solves`, `.factor_seconds`,
    /// `.solve_seconds` counters. No-op when the tracer is disabled.
    pub fn emit(&self, t: Tracer<'_>, prefix: &str) {
        if !t.enabled() {
            return;
        }
        t.counter(
            &format!("{prefix}.factorizations"),
            self.factorizations as f64,
        );
        t.counter(&format!("{prefix}.solves"), self.solves as f64);
        t.counter(&format!("{prefix}.factor_seconds"), self.factor_seconds);
        t.counter(&format!("{prefix}.solve_seconds"), self.solve_seconds);
    }
}

/// Newton-continuation work for one operating-point solve.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContinuationStats {
    /// Total Newton iterations across all attempts and stages.
    pub newton_iterations: u64,
    /// Iterations spent in the adaptive damped-Newton rung (0 when it
    /// never ran).
    pub damped_iterations: u64,
    /// Gmin-ladder stages visited (0 when plain Newton converged).
    pub gmin_stages: u64,
    /// Source-stepping steps taken (0 unless source stepping ran).
    pub source_steps: u64,
    /// Pseudo-transient homotopy steps taken (0 unless ptran ran).
    pub ptran_steps: u64,
    /// Times the NaN/Inf assembly guard fired and the ladder recovered
    /// by escalating instead of iterating on garbage.
    pub nonfinite_recoveries: u64,
    /// Ladder rungs attempted (1 = plain Newton sufficed).
    pub rungs_attempted: u64,
}

impl ContinuationStats {
    /// Emits `<prefix>.newton_iterations`, `.damped_iterations`,
    /// `.gmin_stages`, `.source_steps`, `.ptran_steps`,
    /// `.nonfinite_recoveries`, `.rungs_attempted`. No-op when the
    /// tracer is disabled.
    pub fn emit(&self, t: Tracer<'_>, prefix: &str) {
        if !t.enabled() {
            return;
        }
        t.counter(
            &format!("{prefix}.newton_iterations"),
            self.newton_iterations as f64,
        );
        t.counter(
            &format!("{prefix}.damped_iterations"),
            self.damped_iterations as f64,
        );
        t.counter(&format!("{prefix}.gmin_stages"), self.gmin_stages as f64);
        t.counter(&format!("{prefix}.source_steps"), self.source_steps as f64);
        t.counter(&format!("{prefix}.ptran_steps"), self.ptran_steps as f64);
        t.counter(
            &format!("{prefix}.nonfinite_recoveries"),
            self.nonfinite_recoveries as f64,
        );
        t.counter(
            &format!("{prefix}.rungs_attempted"),
            self.rungs_attempted as f64,
        );
    }
}

/// Adaptive-timestep transient work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TranStats {
    /// Steps accepted into the output waveform.
    pub accepted_steps: u64,
    /// Steps rejected (Newton non-convergence or iteration-count/LTE
    /// control) and retried at a smaller h.
    pub rejected_steps: u64,
    /// Newton iterations summed over all attempted steps.
    pub newton_iterations: u64,
    /// Source breakpoints honored by the step controller.
    pub breakpoints: u64,
}

impl TranStats {
    /// Emits `<prefix>.accepted_steps`, `.rejected_steps`,
    /// `.newton_iterations`, `.breakpoints`. No-op when disabled.
    pub fn emit(&self, t: Tracer<'_>, prefix: &str) {
        if !t.enabled() {
            return;
        }
        t.counter(
            &format!("{prefix}.accepted_steps"),
            self.accepted_steps as f64,
        );
        t.counter(
            &format!("{prefix}.rejected_steps"),
            self.rejected_steps as f64,
        );
        t.counter(
            &format!("{prefix}.newton_iterations"),
            self.newton_iterations as f64,
        );
        t.counter(&format!("{prefix}.breakpoints"), self.breakpoints as f64);
    }
}

/// Parallel frequency-sweep shape (AC and noise analyses).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Frequency (or bias) points evaluated.
    pub points: u64,
    /// Worker threads actually used.
    pub threads: u64,
}

impl SweepStats {
    /// Emits `<prefix>.points` and `<prefix>.threads`. No-op when
    /// disabled.
    pub fn emit(&self, t: Tracer<'_>, prefix: &str) {
        if !t.enabled() {
            return;
        }
        t.counter(&format!("{prefix}.points"), self.points as f64);
        t.counter(&format!("{prefix}.threads"), self.threads as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InMemorySink, RecordKind, TraceHandle};
    use std::sync::Arc;

    #[test]
    fn solver_stats_merge_and_delta() {
        let mut a = SolverStats {
            factorizations: 3,
            solves: 7,
            factor_seconds: 0.5,
            solve_seconds: 0.25,
        };
        let b = SolverStats {
            factorizations: 1,
            solves: 2,
            factor_seconds: 0.1,
            solve_seconds: 0.05,
        };
        let before = a;
        a.merge(&b);
        let d = a.delta(&before);
        assert_eq!(d.factorizations, 1);
        assert_eq!(d.solves, 2);
        assert!((d.factor_seconds - 0.1).abs() < 1e-12);
    }

    #[test]
    fn emit_writes_prefixed_counters() {
        let sink = Arc::new(InMemorySink::new());
        let handle = TraceHandle::new(&sink);
        ContinuationStats {
            newton_iterations: 11,
            gmin_stages: 2,
            ..ContinuationStats::default()
        }
        .emit(handle.tracer(), "op");
        let recs = sink.records();
        assert_eq!(recs.len(), 7);
        assert!(recs.iter().all(|r| r.kind == RecordKind::Counter));
        assert_eq!(recs[0].name, "op.newton_iterations");
        assert_eq!(recs[0].value, 11.0);
        assert_eq!(recs[2].name, "op.gmin_stages");
        assert_eq!(recs[2].value, 2.0);
    }

    #[test]
    fn emit_on_disabled_tracer_is_noop() {
        TranStats::default().emit(crate::Tracer::off(), "tran");
    }
}
