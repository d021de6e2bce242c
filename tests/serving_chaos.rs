//! Serving-layer chaos suite.
//!
//! Every fault the serving layer claims to tolerate is injected here
//! deterministically, and the contract under test is always the same:
//! **each injected fault surfaces as exactly one typed report, and the
//! queue keeps draining** — in submission order, with nothing lost,
//! doubled, or silently dropped.
//!
//! Fault classes covered:
//!
//! - a device-model panic ([`FaultKind::Panic`]) caught at the
//!   supervision boundary;
//! - a wedged solve ([`FaultKind::Stall`]) tripping a wall-clock
//!   [`Budget::max_wall`] deadline;
//! - persistent singular factorizations failing a job with a typed
//!   error, and a one-shot singular fault rescued by a verbatim retry;
//! - a poisoned cached warm-start hint (NaN operating point) healed by
//!   the retry path clearing the hint;
//! - overload shed by a bounded queue;
//! - cancellation racing retry scheduling and racing
//!   `shutdown_and_drain` (seeded stress).

use ahfic_serve::{
    Budget, CancelToken, JobError, JobQueue, JobRequest, JobSpec, QueueConfig, RetryPolicy,
    TranStatus,
};
use ahfic_spice::analysis::{FaultInjector, FaultKind, LadderConfig, Options, TranParams};
use ahfic_spice::circuit::Circuit;
use ahfic_spice::error::SpiceError;
use ahfic_spice::lint::LintPolicy;
use ahfic_spice::trace::{InMemorySink, TraceHandle};
use ahfic_spice::wave::SourceWave;
use std::sync::Arc;
use std::time::Duration;

fn divider(r2: f64) -> Circuit {
    let mut c = Circuit::new();
    let a = c.node("a");
    let b = c.node("b");
    c.vsource("V1", a, Circuit::gnd(), 2.0);
    c.resistor("R1", a, b, 1e3);
    c.resistor("R2", b, Circuit::gnd(), r2);
    c
}

fn rc_sin_deck() -> Circuit {
    let mut c = Circuit::new();
    let a = c.node("a");
    let out = c.node("out");
    c.vsource_wave(
        "V1",
        a,
        Circuit::gnd(),
        SourceWave::Sin {
            offset: 0.0,
            ampl: 1.0,
            freq: 1e6,
            delay: 0.0,
            damping: 0.0,
            phase_deg: 0.0,
        },
    );
    c.resistor("R1", a, out, 1e3);
    c.capacitor("C1", out, Circuit::gnd(), 1e-9);
    c
}

/// A diode-loaded divider: nonlinear, so a poisoned (NaN) warm start
/// genuinely poisons the device stamps instead of being healed by one
/// linear direct solve, yet plain Newton converges from a cold start.
fn diode_deck() -> Circuit {
    let mut c = Circuit::new();
    let a = c.node("a");
    c.vsource("V1", a, Circuit::gnd(), 0.75);
    let dm = c.add_diode_model(ahfic_spice::model::DiodeModel::default());
    c.diode("D1", a, Circuit::gnd(), dm, 1.0);
    c.resistor("R1", a, Circuit::gnd(), 10e3);
    c
}

fn no_ladder() -> LadderConfig {
    LadderConfig {
        damping: false,
        gmin_stepping: false,
        source_stepping: false,
        ptran: false,
    }
}

fn counter_total(sink: &InMemorySink, name: &str) -> f64 {
    sink.records()
        .iter()
        .filter(|r| r.name == name)
        .map(|r| r.value)
        .sum()
}

// ---------------------------------------------------------------------------
// Panic supervision.

/// An injected device-model panic becomes exactly one typed
/// `WorkerPanic` report; every other job in the batch completes,
/// order is preserved, and the recovery is counted.
#[test]
fn supervised_device_model_panic_is_one_typed_report() {
    let sink = Arc::new(InMemorySink::new());
    let queue = JobQueue::new(QueueConfig::new().threads(2).trace(TraceHandle::new(&sink)));
    let inj = FaultInjector::once(FaultKind::Panic, 0, 1);
    let mut jobs: Vec<JobRequest> = (0..8)
        .map(|i| JobRequest::new(divider(1e3), JobSpec::Op).label(format!("j{i}")))
        .collect();
    jobs[5] = JobRequest::new(divider(1e3), JobSpec::Op)
        .label("boom")
        .options(Options::new().fault_injector(&inj));
    let reports = queue.run(jobs);
    assert_eq!(reports.len(), 8, "queue drains past the panic");
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(r.index(), i, "submission order preserved");
        if i == 5 {
            match r.outcome().as_ref().unwrap_err() {
                JobError::WorkerPanic { payload, job_id } => {
                    assert_eq!(*job_id, 5);
                    assert!(payload.contains("injected fault"), "{payload}");
                }
                other => panic!("expected WorkerPanic, got {other:?}"),
            }
        } else {
            assert!(r.is_ok(), "job {i} must survive the neighbour's panic");
        }
    }
    assert_eq!(inj.fires(), 1);
    assert_eq!(queue.stats().panics_recovered, 1);
    assert_eq!(counter_total(&sink, "serve.panic_recovered"), 1.0);
}

/// A panicking job poisons nothing it shares: after the worker recycles
/// its parked sessions, the same worker solves the same deck again and
/// matches a clean queue bit for bit.
#[test]
fn worker_recycles_after_panic_and_later_jobs_match_clean_run() {
    let clean = JobQueue::new(QueueConfig::new().threads(1))
        .run(vec![JobRequest::new(divider(1e3), JobSpec::Op)]);
    let reference = clean[0]
        .outcome()
        .as_ref()
        .unwrap()
        .as_op()
        .unwrap()
        .x()
        .to_vec();

    let queue = JobQueue::new(QueueConfig::new().threads(1));
    let inj = FaultInjector::once(FaultKind::Panic, 0, 1);
    let reports = queue.run(vec![
        JobRequest::new(divider(1e3), JobSpec::Op)
            .label("boom")
            .options(Options::new().fault_injector(&inj)),
        JobRequest::new(divider(1e3), JobSpec::Op).label("after"),
    ]);
    assert!(reports[0].outcome().as_ref().unwrap_err().is_panic());
    let after = reports[1].outcome().as_ref().unwrap().as_op().unwrap();
    for (a, b) in after.x().iter().zip(&reference) {
        assert_eq!(a.to_bits(), b.to_bits(), "post-panic solve must be clean");
    }
}

// ---------------------------------------------------------------------------
// Stall → wall-clock deadline.

/// A wedged operating-point solve (injected stall each iteration) trips
/// the wall-clock budget and surfaces as one typed `BudgetExhausted`
/// failure on the `wall_clock_ms` resource.
#[test]
fn stalled_op_trips_wall_deadline_as_typed_failure() {
    let sink = Arc::new(InMemorySink::new());
    let queue = JobQueue::new(QueueConfig::new().threads(1).trace(TraceHandle::new(&sink)));
    let inj = FaultInjector::recurring(FaultKind::Stall { millis: 20 }, 0, 1);
    let reports =
        queue.run(vec![JobRequest::new(divider(1e3), JobSpec::Op)
            .label("wedged")
            .options(Options::new().fault_injector(&inj).budget(
                Budget::unlimited().max_wall(Duration::from_millis(1)),
            ))]);
    match reports[0].outcome().as_ref().unwrap_err().error().unwrap() {
        SpiceError::BudgetExhausted { resource, .. } => assert_eq!(*resource, "wall_clock_ms"),
        other => panic!("expected wall-clock BudgetExhausted, got {other:?}"),
    }
    assert_eq!(queue.stats().deadline_exceeded, 1);
    assert_eq!(counter_total(&sink, "serve.deadline_exceeded"), 1.0);
}

/// A wedged transient degrades to a typed *partial* result — status
/// `BudgetExhausted` on `wall_clock_ms` with whatever waveform was
/// integrated before the deadline — and still counts as a deadline
/// trip.
#[test]
fn stalled_tran_degrades_to_typed_partial_at_deadline() {
    let queue = JobQueue::new(QueueConfig::new().threads(1));
    let inj = FaultInjector::recurring(FaultKind::Stall { millis: 20 }, 0, 1);
    let reports = queue.run(vec![JobRequest::new(
        rc_sin_deck(),
        JobSpec::Tran(TranParams::new(2e-6, 10e-9).with_uic()),
    )
    .options(
        Options::new()
            .fault_injector(&inj)
            .budget(Budget::unlimited().max_wall(Duration::from_millis(1))),
    )]);
    let t = reports[0]
        .outcome()
        .as_ref()
        .expect("deadline on a transient is a status, not an error")
        .as_tran()
        .unwrap();
    match t.status() {
        TranStatus::BudgetExhausted { resource, t, .. } => {
            assert_eq!(*resource, "wall_clock_ms");
            assert!(*t < 2e-6, "stopped well before t_stop");
        }
        other => panic!("expected BudgetExhausted partial, got {other:?}"),
    }
    assert_eq!(queue.stats().deadline_exceeded, 1);
}

// ---------------------------------------------------------------------------
// Retry-with-escalation.

/// A one-shot singular fault (poisoning both the plain solve and its
/// built-in gmin rescue) fails the first attempt; the verbatim retry —
/// no escalation for injected faults — runs clean and rescues the job,
/// with the full history in the report.
#[test]
fn one_shot_singular_fault_is_rescued_by_verbatim_retry() {
    let sink = Arc::new(InMemorySink::new());
    let queue = JobQueue::new(
        QueueConfig::new()
            .threads(1)
            .retry(RetryPolicy::attempts(2))
            .trace(TraceHandle::new(&sink)),
    );
    // Two fires cover attempt 1's plain Newton solve *and* the gmin
    // rescue pass the ladder tries on a singular factorization, so the
    // whole first attempt genuinely fails; the retry's solves are
    // clean.
    let inj = FaultInjector::recurring(FaultKind::SingularMatrix, 0, 1).with_max_fires(2);
    let reports = queue.run(vec![JobRequest::new(divider(1e3), JobSpec::Op)
        .label("flaky-singular")
        .options(Options::new().fault_injector(&inj).ladder(no_ladder()))]);
    assert!(reports[0].is_ok(), "{:?}", reports[0].outcome());
    let attempts = reports[0].attempts();
    assert_eq!(attempts.len(), 2, "{attempts:?}");
    assert!(attempts[0].outcome.contains("singular"), "{attempts:?}");
    assert!(
        !attempts[1].escalated,
        "singular faults are retried verbatim, not escalated"
    );
    assert_eq!(attempts[1].outcome, "ok");
    assert_eq!(queue.stats().retries, 1);
    assert_eq!(counter_total(&sink, "serve.retries"), 1.0);
}

/// A *persistent* singular fault exhausts the retry budget and fails
/// with the typed `Singular` error — one report, attempt history for
/// every try.
#[test]
fn persistent_singular_fault_fails_typed_after_retries() {
    let queue = JobQueue::new(
        QueueConfig::new()
            .threads(1)
            .retry(RetryPolicy::attempts(3)),
    );
    let inj = FaultInjector::recurring(FaultKind::SingularMatrix, 0, 1);
    let reports = queue.run(vec![JobRequest::new(divider(1e3), JobSpec::Op)
        .label("hard-singular")
        .options(Options::new().fault_injector(&inj).ladder(no_ladder()))]);
    let failure = reports[0].outcome().as_ref().unwrap_err();
    assert!(
        matches!(failure.error().unwrap(), SpiceError::Singular { .. }),
        "{failure:?}"
    );
    assert_eq!(reports[0].attempts().len(), 3, "one record per attempt");
    assert_eq!(queue.stats().retries, 2);
    assert_eq!(queue.stats().failed, 1);
}

/// A poisoned cached warm-start hint (all-NaN operating point) fails
/// the first attempt; the retry path clears the hint before re-running,
/// so the second attempt cold-starts and succeeds — with escalation
/// disabled and the ladder off, hint clearing is the *only* thing that
/// can rescue this job.
#[test]
fn poisoned_warm_hint_is_cleared_by_retry() {
    let queue = JobQueue::new(
        QueueConfig::new()
            .threads(1)
            .retry(RetryPolicy::attempts(2).escalate(false)),
    );
    let ckt = diode_deck();
    let deck = queue
        .cache()
        .get_or_compile(&ckt, LintPolicy::Deny)
        .unwrap();
    let n = deck.prepared_arc().num_unknowns;
    deck.store_op_hint(&vec![f64::NAN; n]);
    let reports = queue.run(vec![JobRequest::new(ckt, JobSpec::Op)
        .label("poisoned-hint")
        .options(Options::new().ladder(no_ladder()))]);
    assert!(
        reports[0].is_ok(),
        "retry must heal the poisoned hint: {:?}",
        reports[0].outcome()
    );
    let attempts = reports[0].attempts();
    assert_eq!(attempts.len(), 2, "{attempts:?}");
    assert!(!attempts[1].escalated, "escalation was off");
    assert_eq!(attempts[1].outcome, "ok");
    assert_eq!(queue.stats().retries, 1);
}

/// Injected non-convergence with the ladder off fails the first
/// attempt; the escalated retry restores the full continuation ladder
/// and succeeds.
#[test]
fn nonconvergence_escalates_onto_the_full_ladder() {
    let queue = JobQueue::new(
        QueueConfig::new()
            .threads(1)
            .retry(RetryPolicy::attempts(2)),
    );
    // Two fires: attempt 1's plain solve (ladder off → whole attempt
    // fails) and the escalated attempt 2's plain rung. Escalation is
    // load-bearing: only because the retry restored the full ladder
    // does a later rung rescue attempt 2 after its plain rung eats the
    // second fire.
    let inj = FaultInjector::recurring(FaultKind::NoConvergence, 0, 1).with_max_fires(2);
    let reports = queue.run(vec![JobRequest::new(divider(1e3), JobSpec::Op)
        .label("escalate-me")
        .options(Options::new().fault_injector(&inj).ladder(no_ladder()))]);
    assert!(reports[0].is_ok(), "{:?}", reports[0].outcome());
    assert_eq!(inj.fires(), 2, "both fires consumed");
    let attempts = reports[0].attempts();
    assert_eq!(attempts.len(), 2, "{attempts:?}");
    assert!(attempts[1].escalated, "retry ran escalated");
    assert_eq!(attempts[1].outcome, "ok");
}

// ---------------------------------------------------------------------------
// Every fault class in one bounded queue: exactly one typed report per
// job, drained in submission order.

#[test]
fn every_fault_class_surfaces_as_exactly_one_typed_report() {
    let sink = Arc::new(InMemorySink::new());
    let queue = JobQueue::new(
        QueueConfig::new()
            .threads(2)
            .capacity(5)
            .trace(TraceHandle::new(&sink)),
    );
    let panic_inj = FaultInjector::once(FaultKind::Panic, 0, 1);
    let stall_inj = FaultInjector::recurring(FaultKind::Stall { millis: 20 }, 0, 1);
    let singular_inj = FaultInjector::recurring(FaultKind::SingularMatrix, 0, 1);
    let jobs = vec![
        JobRequest::new(divider(1e3), JobSpec::Op).label("clean"),
        JobRequest::new(divider(1e3), JobSpec::Op)
            .label("panic")
            .options(Options::new().fault_injector(&panic_inj)),
        JobRequest::new(divider(1e3), JobSpec::Op)
            .label("deadline")
            .options(
                Options::new()
                    .fault_injector(&stall_inj)
                    .budget(Budget::unlimited().max_wall(Duration::from_millis(1))),
            ),
        JobRequest::new(divider(1e3), JobSpec::Op)
            .label("singular")
            .options(
                Options::new()
                    .fault_injector(&singular_inj)
                    .ladder(no_ladder()),
            ),
        JobRequest::new(divider(2e3), JobSpec::Op).label("clean-2"),
        JobRequest::new(divider(3e3), JobSpec::Op).label("overflow"),
    ];
    let reports = queue.run(jobs);
    assert_eq!(reports.len(), 6, "exactly one report per submitted job");
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(r.index(), i, "submission order preserved");
    }
    assert!(reports[0].is_ok());
    assert!(reports[1].outcome().as_ref().unwrap_err().is_panic());
    assert!(matches!(
        reports[2].outcome().as_ref().unwrap_err().error().unwrap(),
        SpiceError::BudgetExhausted {
            resource: "wall_clock_ms",
            ..
        }
    ));
    assert!(matches!(
        reports[3].outcome().as_ref().unwrap_err().error().unwrap(),
        SpiceError::Singular { .. }
    ));
    assert!(reports[4].is_ok());
    assert!(reports[5].outcome().as_ref().unwrap_err().is_shed());
    let stats = queue.stats();
    // Five accepted + one shed: `submitted` counts accepted only.
    assert_eq!(stats.submitted, 5);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.panics_recovered, 1);
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(counter_total(&sink, "serve.shed"), 1.0);
    assert_eq!(counter_total(&sink, "serve.jobs"), 6.0);
    assert_eq!(counter_total(&sink, "serve.failed"), 4.0);
}

// ---------------------------------------------------------------------------
// Cancellation races (seeded stress).

/// Cancellation racing the retry scheduler: jobs that fail retryably
/// forever are cancelled from another thread at seed-staggered moments.
/// Whatever the interleaving, every job yields exactly one report and
/// the run terminates — cancellation always wins over further retries.
#[test]
fn cancel_racing_retry_yields_exactly_one_report_per_job() {
    for seed in 0..6u64 {
        let queue = JobQueue::new(
            QueueConfig::new()
                .threads(2)
                .retry(RetryPolicy::attempts(50).backoff_base_ms(1).seed(seed)),
        );
        let tokens: Vec<CancelToken> = (0..4).map(|_| CancelToken::new()).collect();
        let jobs: Vec<JobRequest> = tokens
            .iter()
            .enumerate()
            .map(|(i, tok)| {
                let inj = FaultInjector::recurring(FaultKind::NoConvergence, 0, 1);
                JobRequest::new(divider(1e3 + i as f64), JobSpec::Op)
                    .label(format!("race-{seed}-{i}"))
                    .options(
                        Options::new()
                            .fault_injector(&inj)
                            .ladder(no_ladder())
                            // Escalation would rescue the job before
                            // the cancel lands; keep it failing.
                            .cancel_token(tok),
                    )
            })
            .collect();
        let canceller = {
            let tokens = tokens.clone();
            std::thread::spawn(move || {
                for (i, t) in tokens.iter().enumerate() {
                    std::thread::sleep(Duration::from_millis(seed % 3 + i as u64));
                    t.cancel();
                }
            })
        };
        let reports = queue.run(jobs);
        canceller.join().unwrap();
        assert_eq!(reports.len(), 4, "seed {seed}: one report per job");
        let mut seen = [false; 4];
        for r in &reports {
            assert!(
                !seen[r.index()],
                "seed {seed}: duplicate report {}",
                r.index()
            );
            seen[r.index()] = true;
            // Cancelled mid-attempt (typed Cancelled) or between
            // attempts (the last engine failure stands) — both are
            // legal; a hang, panic, or missing report is not.
            let failure = r.outcome().as_ref().unwrap_err();
            let e = failure.error().unwrap();
            assert!(
                matches!(
                    e,
                    SpiceError::Cancelled { .. } | SpiceError::NoConvergence { .. }
                ),
                "seed {seed}: unexpected terminal error {e:?}"
            );
        }
        assert!(seen.iter().all(|s| *s), "seed {seed}: report lost");
    }
}

/// Cancellation racing `shutdown_and_drain`: long transients are
/// submitted, then the queue is drained under a deadline shorter than
/// the work. Every accepted job must come back exactly once — finished,
/// cancelled partial, or shed — in submission order.
#[test]
fn drain_deadline_races_inflight_work_without_losing_reports() {
    for seed in 0..4u64 {
        let running = JobQueue::new(QueueConfig::new().threads(2)).start();
        const JOBS: usize = 8;
        for i in 0..JOBS {
            let id = running
                .submit(
                    JobRequest::new(rc_sin_deck(), JobSpec::Tran(TranParams::new(200e-6, 2e-9)))
                        .label(format!("drain-{seed}-{i}")),
                )
                .unwrap();
            assert_eq!(id, i);
        }
        let reports = running.shutdown_and_drain(Duration::from_millis(2 + seed * 5));
        assert_eq!(
            reports.len(),
            JOBS,
            "seed {seed}: one report per accepted job"
        );
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.index(), i, "seed {seed}: submission order");
            match r.outcome() {
                Ok(out) => {
                    let t = out.as_tran().unwrap();
                    assert!(
                        matches!(
                            t.status(),
                            TranStatus::Complete | TranStatus::Cancelled { .. }
                        ),
                        "seed {seed} job {i}: {:?}",
                        t.status()
                    );
                }
                Err(e) => assert!(
                    e.is_shed() || e.error().map(|e| e.is_abort()).unwrap_or(false),
                    "seed {seed} job {i}: unexpected failure {e:?}"
                ),
            }
        }
    }
}
