//! Serving-layer concurrency suite.
//!
//! The contracts under test:
//!
//! - Concurrent sessions sharing one cached `Prepared` produce results
//!   bit-identical to a sequential run — sharing is purely structural.
//! - Cancelling a transient mid-run returns a typed partial within one
//!   timestep of the cancel signal.
//! - Cache eviction under churn never double-compiles a hot deck: as
//!   long as a deck stays in active rotation, every checkout after the
//!   first is a hit (proptest over randomized deck populations).
//! - Netlist text served from the cache's text index gives the bits of
//!   the same jobs on the parsed circuit; texts that differ only in a
//!   comment share one compile; a text that fails to parse is never
//!   indexed; and many workers on one new text compile it once.

use ahfic_bench::TUNER_DECK;
use ahfic_serve::{DeckSource, JobOutput, JobQueue, JobReport, JobRequest, JobSpec, QueueConfig};
use ahfic_spice::analysis::{CancelToken, Options, Session, TranParams, TranStatus};
use ahfic_spice::cache::PreparedCache;
use ahfic_spice::circuit::Circuit;
use ahfic_spice::error::SpiceError;
use ahfic_spice::lint::LintPolicy;
use ahfic_spice::parse::parse_netlist;
use ahfic_spice::trace::{TraceHandle, TraceRecord, TraceSink};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A bias-heavy nonlinear deck: a two-stage diode-loaded divider whose
/// operating point takes real Newton work, so bit-identity is a
/// meaningful claim.
fn nonlinear_deck(r_load: f64) -> Circuit {
    let mut c = Circuit::new();
    let a = c.node("a");
    let b = c.node("b");
    c.vsource("V1", a, Circuit::gnd(), 1.5);
    c.resistor("R1", a, b, r_load);
    let dm = c.add_diode_model(ahfic_spice::model::DiodeModel::default());
    c.diode("D1", b, Circuit::gnd(), dm, 1.0);
    c.resistor("R2", b, Circuit::gnd(), 10e3);
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
        ahfic_spice::wave::SourceWave::Sin {
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

/// N threads sharing one cached deck must reproduce the sequential
/// result bit for bit, and the deck must compile exactly once.
#[test]
fn shared_cached_deck_is_bit_identical_across_threads() {
    const THREADS: usize = 8;
    let ckt = nonlinear_deck(1e3);
    let reference = Session::compile(&ckt).unwrap().op().unwrap();

    let cache = Arc::new(PreparedCache::new(8));
    let results: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let ckt = &ckt;
                s.spawn(move || {
                    let sess = Session::compile_cached(&cache, ckt, Options::new()).unwrap();
                    sess.op().unwrap().into_x()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (t, x) in results.iter().enumerate() {
        assert_eq!(x.len(), reference.x().len());
        for (k, (a, b)) in x.iter().zip(reference.x()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "thread {t} unknown {k}: {a} vs {b}"
            );
        }
    }
    assert_eq!(
        cache.stats().compiles(),
        1,
        "one compile serves all threads"
    );
}

/// Cancels the attached token as soon as the streamed step counter
/// reaches `at` accepted steps.
#[derive(Debug)]
struct CancelAtStep {
    token: CancelToken,
    at: f64,
    fired: AtomicBool,
}

impl TraceSink for CancelAtStep {
    fn record(&self, rec: TraceRecord) {
        if rec.name == "progress.tran.steps"
            && rec.value >= self.at
            && !self.fired.swap(true, Ordering::Relaxed)
        {
            self.token.cancel();
        }
    }
}

/// A cancel signal raised at step N stops the transient within one
/// further timestep, and the queue reports a typed partial rather than
/// an error.
#[test]
fn cancel_mid_transient_is_honored_within_one_timestep() {
    const CANCEL_AT: u64 = 25;
    let token = CancelToken::new();
    let sink = Arc::new(CancelAtStep {
        token: token.clone(),
        at: CANCEL_AT as f64,
        fired: AtomicBool::new(false),
    });
    let queue = JobQueue::new(QueueConfig::new().threads(1));
    let reports = queue.run(vec![JobRequest::new(
        rc_sin_deck(),
        JobSpec::Tran(TranParams::new(20e-6, 10e-9)),
    )
    .options(
        Options::new()
            .cancel_token(&token)
            .trace_handle(TraceHandle::new(&sink))
            .stream_every(1),
    )]);
    let t = reports[0]
        .outcome()
        .as_ref()
        .expect("cancellation is a status, not an error")
        .as_tran()
        .expect("transient output");
    match t.status() {
        TranStatus::Cancelled { t: t_cancel } => {
            assert!(*t_cancel < 20e-6, "cancelled well before t_stop");
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert!(
        t.accepted_steps() >= CANCEL_AT && t.accepted_steps() <= CANCEL_AT + 1,
        "stopped within one timestep of the signal: {} steps",
        t.accepted_steps()
    );
}

/// A queue fed the same deck from many workers compiles it once and
/// matches the sequential answers.
#[test]
fn queue_fanout_matches_sequential() {
    let ckt = nonlinear_deck(2e3);
    let reference = Session::compile(&ckt).unwrap().op().unwrap();
    let queue = JobQueue::new(QueueConfig::new().threads(4));
    let jobs: Vec<JobRequest> = (0..32)
        .map(|i| JobRequest::new(ckt.clone(), JobSpec::Op).label(format!("fan {i}")))
        .collect();
    let reports = queue.run(jobs);
    assert_eq!(queue.cache_stats().compiles(), 1);
    for r in &reports {
        let op = r.outcome().as_ref().unwrap().as_op().unwrap();
        assert_eq!(op.x().len(), reference.x().len());
        // Warm-started jobs may converge along a different (shorter)
        // Newton path; the answers still agree to solver tolerance.
        for (a, b) in op.x().iter().zip(reference.x()) {
            assert!(
                (a - b).abs() <= 1e-6 * b.abs().max(1.0),
                "{a} vs {b} ({})",
                r.label()
            );
        }
    }
}

/// The bits of every value a job returned: an operating point's
/// unknowns, an AC sweep's `v(sum)` and a transient's every signal.
fn output_bits(out: &JobOutput) -> Vec<u64> {
    match out {
        JobOutput::Op(r) => r.x().iter().map(|v| v.to_bits()).collect(),
        JobOutput::Ac(w) => w
            .signal("v(sum)")
            .unwrap()
            .iter()
            .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
            .collect(),
        JobOutput::Tran(t) => {
            let w = t.wave();
            let mut bits: Vec<u64> = w.axis().iter().map(|v| v.to_bits()).collect();
            for name in w.signal_names() {
                bits.extend(w.signal(name).unwrap().iter().map(|v| v.to_bits()));
            }
            bits
        }
        other => panic!("unexpected output {other:?}"),
    }
}

/// Jobs served from the text index return the bits of the same jobs
/// submitted as the parsed circuit: op, AC and transient, each twice.
#[test]
fn text_index_hits_are_bit_identical_to_parsed_circuit_jobs() {
    let circuit = parse_netlist(TUNER_DECK).unwrap();
    let freqs: Vec<f64> = (0..20).map(|k| 1e7 * 1.3f64.powi(k)).collect();
    let specs = || {
        let ac = JobSpec::Ac {
            freqs: freqs.clone(),
        };
        let tran = JobSpec::Tran(TranParams::new(5e-9, 0.2e-9));
        [JobSpec::Op, ac.clone(), tran.clone(), JobSpec::Op, ac, tran]
    };
    // One worker each, so both queues see the same warm-start sequence.
    let serve = |deck: &dyn Fn() -> DeckSource| {
        let queue = JobQueue::new(QueueConfig::new().threads(1));
        let jobs = specs()
            .into_iter()
            .map(|spec| JobRequest::new(deck(), spec).options(Options::new().threads(1)))
            .collect();
        (queue.run(jobs), queue.cache_stats())
    };
    let (texts, text_cache) = serve(&|| DeckSource::Netlist(TUNER_DECK.to_string()));
    let (circuits, _) = serve(&|| DeckSource::Circuit(circuit.clone()));
    assert_eq!((text_cache.parses(), text_cache.compiles()), (1, 1));
    assert!(texts[1..].iter().all(JobReport::cache_hit), "index hits");
    for (k, (a, b)) in texts.iter().zip(&circuits).enumerate() {
        let (a, b) = (a.outcome().as_ref().unwrap(), b.outcome().as_ref().unwrap());
        assert_eq!(output_bits(a), output_bits(b), "job {k}");
    }
}

/// Two texts that differ only in a comment are one deck: one compile.
/// The deck keeps the first text in the index, so the second parses on
/// every submission and hits the compile.
#[test]
fn texts_differing_in_a_comment_compile_once() {
    let commented = TUNER_DECK.replace("VCC vcc 0 5\n", "VCC vcc 0 5 ; supply\n");
    assert_ne!(commented, TUNER_DECK);
    let queue = JobQueue::new(QueueConfig::new().threads(1));
    let jobs = [TUNER_DECK, &commented, TUNER_DECK, &commented]
        .into_iter()
        .map(|text| JobRequest::new(text, JobSpec::Op))
        .collect();
    let reports = queue.run(jobs);
    assert!(reports.iter().all(JobReport::is_ok));
    let cache = queue.cache_stats();
    assert_eq!((cache.compiles(), cache.parses()), (1, 3), "{cache:?}");
    assert_eq!((cache.hits(), cache.misses()), (3, 1), "{cache:?}");
}

/// A text that fails to parse is never indexed: it parses, and fails
/// with the same typed error, on every submission, and never reaches
/// the compile cache.
#[test]
fn a_text_that_fails_to_parse_is_never_indexed() {
    let bad = TUNER_DECK.replace("RL sum 0 1000", "RL sum 0 oops");
    let queue = JobQueue::new(QueueConfig::new().threads(2));
    let reports = queue.run(
        (0..4)
            .map(|_| JobRequest::new(bad.as_str(), JobSpec::Op))
            .collect(),
    );
    let errors: Vec<SpiceError> = reports
        .iter()
        .map(|r| {
            r.outcome()
                .as_ref()
                .unwrap_err()
                .sim()
                .unwrap()
                .error
                .clone()
        })
        .collect();
    assert!(
        matches!(errors[0], SpiceError::Parse { .. }),
        "{}",
        errors[0]
    );
    assert!(errors.iter().all(|e| *e == errors[0]));
    let cache = queue.cache_stats();
    assert_eq!(cache.parses(), 4, "{cache:?}");
    assert_eq!((cache.compiles(), cache.hits() + cache.misses()), (0, 0));
}

/// Eight workers that all start on one new text compile it once, and
/// every job counts one hit or one miss.
#[test]
fn eight_workers_on_one_new_text_compile_it_once() {
    const JOBS: usize = 64;
    let queue = JobQueue::new(QueueConfig::new().threads(8));
    let reports = queue.run(
        (0..JOBS)
            .map(|_| JobRequest::new(TUNER_DECK, JobSpec::Op))
            .collect(),
    );
    assert!(reports.iter().all(JobReport::is_ok));
    let cache = queue.cache_stats();
    assert_eq!(cache.compiles(), 1, "{cache:?}");
    assert_eq!(cache.hits() + cache.misses(), JOBS as u64, "{cache:?}");
    // A worker parses only while the text is not yet indexed.
    assert!((1..=8).contains(&cache.parses()), "{cache:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cache-eviction churn never double-compiles a hot deck: with the
    /// hot deck touched between cold-deck insertions, every hot
    /// checkout after the first is a hit, no matter how the cold
    /// population hashes or how small the cache is.
    #[test]
    fn hot_deck_survives_eviction_churn(
        cold_values in proptest::collection::vec(0.5f64..50.0, 8..24),
        capacity in 2usize..6,
    ) {
        let cache = PreparedCache::new(capacity);
        let hot = nonlinear_deck(1e3);
        let first = cache.get_or_compile(&hot, LintPolicy::Deny).unwrap();
        prop_assert!(!first.was_hit());
        for (i, &kohm) in cold_values.iter().enumerate() {
            // Distinct cold decks churn the LRU ring...
            let cold = nonlinear_deck(kohm * 1e3 + i as f64);
            cache.get_or_compile(&cold, LintPolicy::Deny).unwrap();
            // ...but the hot deck is touched every round, so it must
            // always still be resident.
            let again = cache.get_or_compile(&hot, LintPolicy::Deny).unwrap();
            prop_assert!(again.was_hit(), "hot deck evicted at round {i}");
        }
        let stats = cache.stats();
        prop_assert!(stats.entries() <= capacity);
        // Total compiles = hot once + one per distinct cold deck that
        // had to (re-)enter; the hot deck contributes exactly 1.
        prop_assert!(stats.compiles() >= cold_values.len() as u64);
        // Every hot re-checkout hits; no cold deck ever does.
        prop_assert_eq!(stats.hits(), cold_values.len() as u64);
    }
}
