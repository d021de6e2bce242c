//! Release-mode timing gates. Each test times two ways of doing the
//! same work on one thread, runs them interleaved so slow drift
//! (frequency scaling, co-tenant load) hits both sides equally, and
//! takes the best of a few repetitions: the minimum is the
//! noise-resistant estimator for code whose true cost is fixed.
//!
//! The gates are `#[ignore]`d, because a timing ratio means nothing in
//! an unoptimized build or next to other tests competing for the cores.
//! Run them on their own, in release:
//!
//! ```text
//! cargo test --release -p ahfic-bench --test gates -- --ignored --test-threads 1
//! ```

use std::time::Instant;

use ahfic::mixed::RcCrBench;
use ahfic::yield_mc::YieldStudy;
use ahfic_bench::TUNER_DECK;
use ahfic_rf::image_rejection::irr_analytic_db;
use ahfic_serve::{JobQueue, JobReport, JobRequest, JobSpec, QueueConfig};
use ahfic_spice::analysis::{Options, Session};
use ahfic_spice::parse::parse_netlist;

/// Warms both sides once, then returns the best of `reps` interleaved
/// runs of each.
fn best_of_interleaved(
    reps: usize,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> (f64, f64) {
    a();
    b();
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        best_a = best_a.min(a());
        best_b = best_b.min(b());
    }
    (best_a, best_b)
}

/// The Monte-Carlo yield study, whose only path is the batched lane
/// engine, is no slower than a per-sample loop over the single-point
/// API (one `RcCrBench::characterize` op + AC per sample) on the same
/// 10,000 draws, one thread each, best of 3.
#[test]
#[ignore = "timing gate: run in release with --ignored --test-threads 1"]
fn batched_yield_study_is_no_slower_than_a_per_sample_loop() {
    let samples = 10_000;
    let study = YieldStudy {
        samples,
        ..YieldStudy::paper_example(0.05)
    };
    let draws: Vec<f64> = (0..samples).map(|i| study.sample_draw(i).0).collect();
    let mut bench = RcCrBench::new(study.f2_if, 1e-12).expect("bench compiles");
    let per_sample = || {
        let t0 = Instant::now();
        let pass = draws
            .iter()
            .filter(|&&m| {
                let b = bench.characterize(m).expect("sample converges");
                irr_analytic_db(b.phase_err_deg, b.gain_err) >= study.required_irr_db
            })
            .count();
        std::hint::black_box(pass);
        t0.elapsed().as_secs_f64()
    };
    let batched = || {
        let t0 = Instant::now();
        let r = study
            .run_with_options(Options::new().threads(1))
            .expect("yield study converges");
        std::hint::black_box(&r);
        t0.elapsed().as_secs_f64()
    };
    let (loop_s, study_s) = best_of_interleaved(3, per_sample, batched);
    let speedup = loop_s / study_s;
    println!(
        "{samples} samples: per-sample loop {:.1} ms, study {:.1} ms ({speedup:.2}x)",
        loop_s * 1e3,
        study_s * 1e3
    );
    assert!(
        speedup >= 1.0,
        "batched yield study slower than the per-sample loop: {speedup:.2}x at {samples} samples"
    );
}

/// A `JobQueue` sharing one compiled tuner deck through its cache runs
/// 64 operating-point jobs at least 5× faster than compiling the deck
/// and solving a cold operating point per job. One worker thread, so
/// the ratio is what the cache and the per-deck warm-start hint buy,
/// with no parallel speedup mixed in; a fresh queue per repetition, so
/// each pays its one real compile; best of 7. The deck is parsed once:
/// a per-job parse would add the same cost to both sides.
#[test]
#[ignore = "timing gate: run in release with --ignored --test-threads 1"]
fn shared_cache_serving_amortizes_compiles_five_fold() {
    let jobs = 64;
    let ckt = parse_netlist(TUNER_DECK).expect("tuner deck parses");
    let opts = Options::new();
    let recompile = || {
        let t0 = Instant::now();
        for _ in 0..jobs {
            let sess = Session::compile_with(&ckt, opts.clone()).expect("compile");
            sess.op().expect("cold operating point");
        }
        t0.elapsed().as_secs_f64()
    };
    let shared = || {
        let requests: Vec<JobRequest> = (0..jobs)
            .map(|_| JobRequest::new(ckt.clone(), JobSpec::Op).options(opts.clone()))
            .collect();
        let queue = JobQueue::new(QueueConfig::new().threads(1));
        let t0 = Instant::now();
        let reports = queue.run(requests);
        let dt = t0.elapsed().as_secs_f64();
        assert!(reports.iter().all(JobReport::is_ok));
        dt
    };
    let (recompile_s, shared_s) = best_of_interleaved(7, recompile, shared);
    let amortization = recompile_s / shared_s;
    println!(
        "{jobs} op jobs: per-job compile {:.2} ms, shared cache {:.2} ms ({amortization:.1}x)",
        recompile_s * 1e3,
        shared_s * 1e3
    );
    assert!(
        amortization >= 5.0,
        "shared-cache serving fell below the 5x amortization floor: {amortization:.2}x"
    );
}
