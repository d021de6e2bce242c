//! Deterministic fault injection for the Newton solver.
//!
//! A [`FaultInjector`] is installed through
//! [`Options::fault_injector`](crate::analysis::Options::fault_injector)
//! and consulted once per Newton iteration. It can poison the assembled
//! system (NaN stamp), zero it (singular factorization), abort the
//! solve (forced non-convergence), panic (a device model blowing a
//! debug assertion), or stall (a wedged solve) at a precisely chosen
//! point — the test harness that proves each recovery path in the
//! continuation ladder and the serving layer's supervision actually
//! fires. Unset (the default) it costs one not-taken branch per
//! iteration.
//!
//! Faults are targeted either exactly ([`FaultTrigger::At`]: the n-th
//! `newton_solve` invocation, a specific iteration, optionally
//! recurring) or statistically but reproducibly ([`FaultTrigger::Seeded`]:
//! a hash of the seed and the solve index decides, so the same seed
//! always hits the same solves regardless of wall clock or thread
//! timing).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What the injector does to the solve it fires on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Zero every assembled matrix value: the factorization genuinely
    /// breaks down and reports a singular matrix.
    SingularMatrix,
    /// Write a NaN into the assembled matrix, exercising the
    /// NaN/Inf guard in the Newton loop.
    NanStamp,
    /// Abort the solve as if Newton had run out of iterations,
    /// exercising ladder escalation and step rejection.
    NoConvergence,
    /// Panic at the poll site, standing in for a device model whose
    /// debug assertion fires mid-stamp. Exercises the serving layer's
    /// `catch_unwind` supervision — outside a supervised worker this
    /// unwinds like any other library panic.
    Panic,
    /// Sleep `millis` at the poll site, standing in for a wedged solve
    /// (pathological model evaluation). Exercises
    /// wall-clock [`Budget`](crate::analysis::Budget) deadlines.
    Stall {
        /// How long the injected stall sleeps, in milliseconds.
        millis: u64,
    },
}

/// When the injector fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultTrigger {
    /// Fire at solve index `solve` (0-based count of `newton_solve`
    /// invocations seen by this injector), Newton iteration `iteration`
    /// (1-based), and — when `every` is set — again at every later solve
    /// whose index is `solve + k*every`.
    At {
        /// First solve index to fire on.
        solve: u64,
        /// Newton iteration within the solve (1-based).
        iteration: usize,
        /// Recurrence period in solves (`None` = fire once).
        every: Option<u64>,
    },
    /// Fire on iteration 1 of a reproducible pseudo-random subset of
    /// solves: solve index `i` is hit iff `splitmix64(seed ^ i) < rate`.
    Seeded {
        /// Seed mixed into the per-solve hash.
        seed: u64,
        /// Fraction of solves to hit, in `[0, 1]`.
        rate: f64,
    },
}

/// A deterministic fault plan plus its firing counters.
///
/// Shared via `Arc` between the options that install it and the test
/// that asserts on [`FaultInjector::fires`].
#[derive(Debug)]
pub struct FaultInjector {
    kind: FaultKind,
    trigger: FaultTrigger,
    max_fires: u64,
    solves: AtomicU64,
    fires: AtomicU64,
}

impl FaultInjector {
    /// Fires `kind` once, at the given solve index and Newton iteration.
    pub fn once(kind: FaultKind, solve: u64, iteration: usize) -> Arc<Self> {
        Arc::new(FaultInjector {
            kind,
            trigger: FaultTrigger::At {
                solve,
                iteration,
                every: None,
            },
            max_fires: 1,
            solves: AtomicU64::new(0),
            fires: AtomicU64::new(0),
        })
    }

    /// Fires `kind` at solve `first` and then every `every` solves,
    /// without limit.
    pub fn recurring(kind: FaultKind, first: u64, every: u64) -> Arc<Self> {
        Arc::new(FaultInjector {
            kind,
            trigger: FaultTrigger::At {
                solve: first,
                iteration: 1,
                every: Some(every.max(1)),
            },
            max_fires: u64::MAX,
            solves: AtomicU64::new(0),
            fires: AtomicU64::new(0),
        })
    }

    /// Fires `kind` on a seeded pseudo-random fraction `rate` of solves.
    /// Fully reproducible: the decision depends only on `seed` and the
    /// solve index.
    pub fn seeded(kind: FaultKind, seed: u64, rate: f64) -> Arc<Self> {
        Arc::new(FaultInjector {
            kind,
            trigger: FaultTrigger::Seeded {
                seed,
                rate: rate.clamp(0.0, 1.0),
            },
            max_fires: u64::MAX,
            solves: AtomicU64::new(0),
            fires: AtomicU64::new(0),
        })
    }

    /// Caps the total number of fires (chainable at construction time
    /// via `Arc::try_unwrap` is not needed — build with the constructors
    /// above and this only when a cap matters).
    pub fn with_max_fires(self: Arc<Self>, max: u64) -> Arc<Self> {
        Arc::new(FaultInjector {
            kind: self.kind,
            trigger: self.trigger,
            max_fires: max,
            solves: AtomicU64::new(self.solves.load(Ordering::Relaxed)),
            fires: AtomicU64::new(self.fires.load(Ordering::Relaxed)),
        })
    }

    /// The fault this injector delivers.
    pub fn kind(&self) -> FaultKind {
        self.kind
    }

    /// How many times the fault has fired so far.
    pub fn fires(&self) -> u64 {
        self.fires.load(Ordering::Relaxed)
    }

    /// How many Newton solves this injector has observed.
    pub fn solves_seen(&self) -> u64 {
        self.solves.load(Ordering::Relaxed)
    }

    /// Called by `newton_solve` on entry; returns this solve's index.
    pub(crate) fn begin_solve(&self) -> u64 {
        self.solves.fetch_add(1, Ordering::Relaxed)
    }

    /// Whether to fire on iteration `iteration` of solve `solve_idx`;
    /// counts the fire when it does.
    pub(crate) fn poll(&self, solve_idx: u64, iteration: usize) -> Option<FaultKind> {
        if self.fires.load(Ordering::Relaxed) >= self.max_fires {
            return None;
        }
        let hit = match self.trigger {
            FaultTrigger::At {
                solve,
                iteration: it,
                every,
            } => {
                iteration == it
                    && match every {
                        None => solve_idx == solve,
                        Some(p) => solve_idx >= solve && (solve_idx - solve).is_multiple_of(p),
                    }
            }
            FaultTrigger::Seeded { seed, rate } => {
                iteration == 1 && (splitmix64(seed ^ solve_idx) as f64 / u64::MAX as f64) < rate
            }
        };
        if hit {
            self.fires.fetch_add(1, Ordering::Relaxed);
            Some(self.kind)
        } else {
            None
        }
    }
}

/// A Newton solve whose injector index was claimed before the solve
/// ran — a batched-engine lane claims one per sample before its
/// lockstep iterations — with the solver fault, if any, already
/// delivered on it. The lane's sequential fallback runs its plain-Newton
/// rung under the claim and replays that fault at the same iteration,
/// so a fault that hit a lane acts exactly as on a per-sample solve.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ClaimedSolve {
    /// The claimed solve index.
    pub idx: u64,
    /// `(iteration, fault)` already delivered on this solve.
    pub fired: Option<(usize, FaultKind)>,
}

/// SplitMix64 finalizer: a statistically solid stateless hash.
///
/// Public because the serving layer reuses it for deterministic
/// retry-backoff jitter — same seed, same schedule, no wall-clock or
/// thread-timing dependence.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Shared handle to an optional [`FaultInjector`], stored inside
/// [`Options`](crate::analysis::Options).
///
/// Equality compares only whether injection is enabled (mirroring
/// `TraceHandle`), so `Options` keeps a useful `PartialEq`.
#[derive(Clone, Default)]
pub struct FaultHandle {
    inner: Option<Arc<FaultInjector>>,
}

impl FaultHandle {
    /// A disabled handle: every poll site is a single not-taken branch.
    pub const fn off() -> Self {
        FaultHandle { inner: None }
    }

    /// Wraps an injector for installation into options.
    pub fn new(injector: &Arc<FaultInjector>) -> Self {
        FaultHandle {
            inner: Some(Arc::clone(injector)),
        }
    }

    /// Whether an injector is installed.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The installed injector, if any.
    pub(crate) fn get(&self) -> Option<&FaultInjector> {
        self.inner.as_deref()
    }
}

impl std::fmt::Debug for FaultHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultHandle")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl PartialEq for FaultHandle {
    fn eq(&self, other: &Self) -> bool {
        self.enabled() == other.enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn once_fires_exactly_once_at_target() {
        let inj = FaultInjector::once(FaultKind::NanStamp, 2, 3);
        assert_eq!(inj.begin_solve(), 0);
        assert_eq!(inj.poll(0, 3), None);
        assert_eq!(inj.begin_solve(), 1);
        assert_eq!(inj.begin_solve(), 2);
        assert_eq!(inj.poll(2, 2), None, "wrong iteration");
        assert_eq!(inj.poll(2, 3), Some(FaultKind::NanStamp));
        assert_eq!(inj.poll(2, 3), None, "max_fires=1 exhausted");
        assert_eq!(inj.fires(), 1);
        assert_eq!(inj.solves_seen(), 3);
    }

    #[test]
    fn recurring_fires_on_period() {
        let inj = FaultInjector::recurring(FaultKind::NoConvergence, 1, 3);
        let hits: Vec<u64> = (0..10).filter(|&s| inj.poll(s, 1).is_some()).collect();
        assert_eq!(hits, vec![1, 4, 7]);
        assert_eq!(inj.fires(), 3);
    }

    #[test]
    fn seeded_is_reproducible_and_rate_bounded() {
        let a = FaultInjector::seeded(FaultKind::NoConvergence, 42, 0.25);
        let b = FaultInjector::seeded(FaultKind::NoConvergence, 42, 0.25);
        let hits_a: Vec<u64> = (0..400).filter(|&s| a.poll(s, 1).is_some()).collect();
        let hits_b: Vec<u64> = (0..400).filter(|&s| b.poll(s, 1).is_some()).collect();
        assert_eq!(hits_a, hits_b, "same seed, same hits");
        assert!(!hits_a.is_empty());
        let frac = hits_a.len() as f64 / 400.0;
        assert!((0.1..0.4).contains(&frac), "rate wildly off: {frac}");
        let c = FaultInjector::seeded(FaultKind::NoConvergence, 43, 0.25);
        let hits_c: Vec<u64> = (0..400).filter(|&s| c.poll(s, 1).is_some()).collect();
        assert_ne!(hits_a, hits_c, "different seed, different hits");
    }

    #[test]
    fn max_fires_caps_recurring() {
        let inj = FaultInjector::recurring(FaultKind::SingularMatrix, 0, 1).with_max_fires(2);
        let hits: Vec<u64> = (0..10).filter(|&s| inj.poll(s, 1).is_some()).collect();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn handle_equality_tracks_enablement_only() {
        let a = FaultHandle::new(&FaultInjector::once(FaultKind::NanStamp, 0, 1));
        let b = FaultHandle::new(&FaultInjector::once(FaultKind::SingularMatrix, 7, 2));
        assert_eq!(a, b);
        assert_ne!(a, FaultHandle::off());
        assert!(FaultHandle::off() == FaultHandle::default());
        assert!(format!("{a:?}").contains("enabled: true"));
    }
}
