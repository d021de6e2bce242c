//! Solver and serving smoke benchmark.
//!
//! Builds a capacitively-coupled BJT amplifier chain (the device and
//! stamp mix of the paper's benches, with a well-defined DC point) at
//! three sizes and runs operating point, a short transient, and an AC
//! sweep with the dense and the sparse solver. Further sections measure
//! pre-flight lint cost, null-sink trace overhead, linear-stamp replay,
//! batched Monte-Carlo yield throughput, the convergence ladder on hard
//! starts, shared-cache serving amortization and shooting PSS. Results
//! go to `BENCH_solver.json` in the working directory.
//!
//! Timings and work counters come from the instrumented analysis path
//! itself: suites run with an [`InMemorySink`] installed and read wall
//! times, Newton iterations and factorization counts back out of the
//! trace via [`summarize_top_level`].
//!
//! Three asserts make the binary a regression gate: the batched yield
//! path is no slower than the per-sample loop, shared-cache serving
//! amortizes compiles at least 5×, and the PSS rectifier converges.
//!
//! Run with `cargo run --release -p ahfic-bench --bin solver_smoke`.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use ahfic_bench::standard_generator;
use ahfic_num::interp::logspace;
use ahfic_serve::{JobQueue, JobRequest, JobSpec, QueueConfig};
use ahfic_spice::analysis::{LadderConfig, Options, PssParams, Session, SolverChoice, TranParams};
use ahfic_spice::circuit::{Circuit, ElementKind, Prepared};
use ahfic_spice::lint::LintPolicy;
use ahfic_spice::model::{BjtModel, DiodeModel};
use ahfic_spice::trace::{summarize_top_level, InMemorySink, NullSink};
use ahfic_spice::wave::SourceWave;

/// A chain of `stages` common-emitter amplifiers with RC interstage
/// coupling, driven by a small sine with an AC magnitude of 1.
fn amplifier_chain(stages: usize, model: &BjtModel) -> Prepared {
    let mut c = Circuit::new();
    let vcc = c.node("vcc");
    c.vsource("VCC", vcc, Circuit::gnd(), 5.0);
    let vin = c.node("vin");
    c.vsource_wave(
        "VIN",
        vin,
        Circuit::gnd(),
        SourceWave::Sin {
            offset: 0.0,
            ampl: 1e-3,
            freq: 100e6,
            delay: 0.0,
            damping: 0.0,
            phase_deg: 0.0,
        },
    );
    c.set_ac("VIN", 1.0, 0.0).expect("VIN exists");
    let mi = c.add_bjt_model(model.clone());

    let mut prev = vin;
    for k in 0..stages {
        let b = c.node(&format!("b{k}"));
        let col = c.node(&format!("c{k}"));
        let e = c.node(&format!("e{k}"));
        c.resistor(&format!("RB1_{k}"), vcc, b, 47e3);
        c.resistor(&format!("RB2_{k}"), b, Circuit::gnd(), 10e3);
        c.capacitor(&format!("CIN{k}"), prev, b, 5e-12);
        c.resistor(&format!("RC{k}"), vcc, col, 1e3);
        c.resistor(&format!("RE{k}"), e, Circuit::gnd(), 470.0);
        c.capacitor(&format!("CE{k}"), e, Circuit::gnd(), 10e-12);
        c.bjt(&format!("Q{k}"), col, b, e, mi, 1.0);
        prev = col;
    }
    c.resistor("RL", prev, Circuit::gnd(), 10e3);
    Prepared::compile(&c).expect("compile")
}

struct Timings {
    op_ms: f64,
    tran_ms: f64,
    ac_ms: f64,
    newton_iterations: f64,
    factorizations: f64,
}

impl Timings {
    fn total(&self) -> f64 {
        self.op_ms + self.tran_ms + self.ac_ms
    }
}

/// Runs op + transient + AC once, returning all three analysis results
/// (used both for the instrumented suites and the overhead probe).
fn run_once(sess: &Session, tran_params: &TranParams) {
    let dc = sess.op().expect("operating point");
    sess.tran(tran_params).expect("transient");
    let freqs = logspace(1e6, 1e10, 60);
    sess.ac(dc.x(), &freqs).expect("ac sweep");
}

/// Runs the suite with an in-memory trace sink and reads timings and
/// work counters back out of the recorded spans.
fn run_suite(prep: &Prepared, solver: SolverChoice, tran_params: &TranParams) -> Timings {
    let sink = Arc::new(InMemorySink::new());
    let opts = Options::new().solver(solver).trace(&sink);
    let sess = Session::new(prep.clone()).with_options(opts);
    run_once(&sess, tran_params);

    let spans = summarize_top_level(&sink.take());
    let wall_ms = |name: &str| {
        spans
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.wall_seconds * 1e3)
            .unwrap_or(f64::NAN)
    };
    let counter = |span: &str, name: &str| {
        spans
            .iter()
            .find(|s| s.name == span)
            .and_then(|s| s.counter(name))
            .unwrap_or(0.0)
    };
    Timings {
        op_ms: wall_ms("op"),
        tran_ms: wall_ms("tran"),
        ac_ms: wall_ms("ac"),
        newton_iterations: counter("op", "op.newton_iterations")
            + counter("tran", "tran.newton_iterations"),
        factorizations: counter("op", "op.factorizations")
            + counter("tran", "tran.factorizations")
            + counter("ac", "ac.factorizations"),
    }
}

/// Best-of-`reps` wall time for two option sets, with the runs
/// interleaved A/B/A/B so slow drift (frequency scaling, co-tenant
/// load) hits both sides equally; the minimum is the noise-resistant
/// estimator for code whose true cost is fixed.
fn min_paired_suite_seconds(
    prep: &Prepared,
    a: &Options,
    b: &Options,
    tran_params: &TranParams,
    reps: usize,
) -> (f64, f64) {
    let time_one = |opts: &Options| {
        let sess = Session::new(prep.clone()).with_options(opts.clone());
        let t0 = Instant::now();
        run_once(&sess, tran_params);
        t0.elapsed().as_secs_f64()
    };
    // Warm caches and branch predictors outside the timed window.
    time_one(a);
    time_one(b);
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        best_a = best_a.min(time_one(a));
        best_b = best_b.min(time_one(b));
    }
    (best_a, best_b)
}

/// Newton-heavy Monte-Carlo load: `trials` cold operating points, each
/// with every resistor redrawn uniformly within +/-20 % of nominal by a
/// fixed-seed LCG (the same value sequence on every call, so paired
/// timings compare identical work). Restores nominal values on exit.
fn mc_op_seconds(prep: &mut Prepared, opts: &Options, trials: usize) -> f64 {
    let nominal: Vec<(String, f64)> = prep
        .circuit
        .elements()
        .iter()
        .filter_map(|e| match e.kind {
            ElementKind::Resistor { r, .. } => Some((e.name.clone(), r)),
            _ => None,
        })
        .collect();
    let mut state = 0x243f_6a88_85a3_08d3u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut sess = Session::new(prep.clone()).with_options(opts.clone());
    let t0 = Instant::now();
    for _ in 0..trials {
        for (name, r) in &nominal {
            let spread = 0.8 + 0.4 * next();
            sess.prepared_mut()
                .circuit
                .set_resistance(name, r * spread)
                .expect("resistor exists");
        }
        sess.op().expect("mc operating point");
    }
    t0.elapsed().as_secs_f64()
}

/// Interleaved best-of-`reps` timing of the Monte-Carlo load for two
/// option sets (same discipline as [`min_paired_suite_seconds`]).
fn min_paired_mc_seconds(
    prep: &mut Prepared,
    a: &Options,
    b: &Options,
    trials: usize,
    reps: usize,
) -> (f64, f64) {
    mc_op_seconds(prep, a, trials);
    mc_op_seconds(prep, b, trials);
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        best_a = best_a.min(mc_op_seconds(prep, a, trials));
        best_b = best_b.min(mc_op_seconds(prep, b, trials));
    }
    (best_a, best_b)
}

struct BatchedYieldStats {
    samples: usize,
    seq_s: f64,
    bat_s: f64,
}

impl BatchedYieldStats {
    fn seq_sps(&self) -> f64 {
        self.samples as f64 / self.seq_s
    }
    fn bat_sps(&self) -> f64 {
        self.samples as f64 / self.bat_s
    }
    fn speedup(&self) -> f64 {
        self.seq_s / self.bat_s
    }
}

/// Monte-Carlo yield throughput on one thread: a per-sample loop over
/// the single-point API (one `RcCrBench::characterize` op + AC per
/// sample) against the study driver, whose only path is the batched
/// variant engine (SoA lanes, SIMD stamp replay). Both see the same
/// draws; interleaved best-of-`reps`.
fn batched_yield_probe(samples: usize, reps: usize) -> BatchedYieldStats {
    use ahfic::mixed::RcCrBench;
    use ahfic::yield_mc::YieldStudy;
    use ahfic_rf::image_rejection::irr_analytic_db;
    let study = YieldStudy {
        samples,
        ..YieldStudy::paper_example(0.05)
    };
    let draws: Vec<f64> = (0..samples).map(|i| study.sample_draw(i).0).collect();
    let mut bench = RcCrBench::new(study.f2_if, 1e-12).expect("bench compiles");
    let mut seq = || {
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
    let bat = || {
        let t0 = Instant::now();
        let r = study
            .run_with_options(Options::new().threads(1))
            .expect("yield study converges");
        std::hint::black_box(&r);
        t0.elapsed().as_secs_f64()
    };
    seq();
    bat();
    let (mut ss, mut bs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        ss = ss.min(seq());
        bs = bs.min(bat());
    }
    BatchedYieldStats {
        samples,
        seq_s: ss,
        bat_s: bs,
    }
}

/// Current-driven avalanche diode: the junction walks from 0 V deep
/// into reverse breakdown, which neither gmin loading nor source
/// scaling can shorten (same corpus as `tests/robustness.rs`).
fn avalanche_current_drive() -> Prepared {
    let mut c = Circuit::new();
    let a = c.node("a");
    let dm = c.add_diode_model(DiodeModel {
        bv: 6.0,
        ..DiodeModel::default()
    });
    c.isource("I1", Circuit::gnd(), a, 1.0);
    c.diode("D1", Circuit::gnd(), a, dm, 1.0);
    c.resistor("RSH", a, Circuit::gnd(), 1e9);
    Prepared::compile(&c).expect("compile")
}

/// Three series zeners forced into breakdown by a current source.
fn zener_stack_current_drive() -> Prepared {
    let mut c = Circuit::new();
    let dm = c.add_diode_model(DiodeModel {
        bv: 6.0,
        ..DiodeModel::default()
    });
    let top = c.node("top");
    c.isource("I1", Circuit::gnd(), top, 0.5);
    c.resistor("RSH", top, Circuit::gnd(), 1e9);
    let mut prev = top;
    for k in 0..3 {
        let nxt = if k == 2 {
            Circuit::gnd()
        } else {
            c.node(&format!("m{k}"))
        };
        c.diode(&format!("DZ{k}"), nxt, prev, dm, 1.0);
        prev = nxt;
    }
    Prepared::compile(&c).expect("compile")
}

/// Transistor-level Hartley image-rejection front end (the Fig. 5
/// tuner deck of `tests/solver_agreement.rs`), returned uncompiled so
/// the pre-flight verification can be timed inside the compile.
fn image_rejection_frontend_circuit() -> Circuit {
    let mut c = Circuit::new();
    let vcc = c.node("vcc");
    let vin = c.node("vin");
    c.vsource("VCC", vcc, Circuit::gnd(), 5.0);
    c.vsource_wave(
        "VRF",
        vin,
        Circuit::gnd(),
        SourceWave::Sin {
            offset: 0.0,
            ampl: 10e-3,
            freq: 100e6,
            delay: 0.0,
            damping: 0.0,
            phase_deg: 0.0,
        },
    );
    c.set_ac("VRF", 1.0, 0.0).expect("VRF exists");
    let mut m = BjtModel::named("rfnpn");
    m.bf = 90.0;
    m.rb = 120.0;
    m.re = 1.5;
    m.rc = 25.0;
    m.cje = 60e-15;
    m.cjc = 40e-15;
    m.tf = 12e-12;
    let mi = c.add_bjt_model(m);
    let path = |c: &mut Circuit, tag: &str| {
        let b = c.node(&format!("b{tag}"));
        let col = c.node(&format!("c{tag}"));
        let e = c.node(&format!("e{tag}"));
        c.resistor(&format!("RB1{tag}"), vcc, b, 47e3);
        c.resistor(&format!("RB2{tag}"), b, Circuit::gnd(), 10e3);
        c.capacitor(&format!("CIN{tag}"), vin, b, 10e-12);
        c.resistor(&format!("RC{tag}"), vcc, col, 1e3);
        c.resistor(&format!("RE{tag}"), e, Circuit::gnd(), 220.0);
        c.capacitor(&format!("CE{tag}"), e, Circuit::gnd(), 20e-12);
        c.bjt(&format!("Q{tag}"), col, b, e, mi, 1.0);
        col
    };
    let ci = path(&mut c, "i");
    let cq = path(&mut c, "q");
    let oi = c.node("oi");
    let oq = c.node("oq");
    let sum = c.node("sum");
    c.capacitor("CPI", ci, oi, 2e-12);
    c.resistor("RPI", oi, Circuit::gnd(), 800.0);
    c.resistor("RPQ", cq, oq, 800.0);
    c.capacitor("CPQ", oq, Circuit::gnd(), 2e-12);
    c.resistor("RSI", oi, sum, 2e3);
    c.resistor("RSQ", oq, sum, 2e3);
    c.resistor("RL", sum, Circuit::gnd(), 1e3);
    c
}

struct LintPreflightStats {
    n_unknowns: usize,
    compile_deny_us: f64,
    compile_off_us: f64,
    first_analysis_deny_us: f64,
    first_analysis_off_us: f64,
    overhead_pct: f64,
}

/// Measures the pre-flight verification cost on the image-rejection
/// tuner deck. Raw compile time with lint on ([`LintPolicy::Deny`],
/// the default) versus off isolates the cost of the pass itself; the
/// compile-to-first-analysis turnaround — compile, operating point,
/// the AC sweep, and the short transient this deck is characterized
/// with in `tests/solver_agreement.rs` — is what a designer actually
/// waits for after editing the netlist. The headline `overhead_pct` is
/// the compile-time delta over that turnaround: the lint runs once per
/// compile, never per solve, so that ratio is the fraction of every
/// edit-simulate cycle spent on verification. All timings are
/// interleaved best-of-`reps` (the minimum is the noise-resistant
/// estimator), with enough runs per sample to make a microsecond-scale
/// delta resolvable.
fn lint_preflight_probe(reps: usize, iters: usize) -> LintPreflightStats {
    let ckt = image_rejection_frontend_circuit();
    let opts = Options::new().solver(SolverChoice::Sparse);
    let freqs = logspace(10e6, 1e9, 60);
    let tran_params = TranParams::new(50e-9, 0.2e-9);
    let n_unknowns = Prepared::compile_with(&ckt, LintPolicy::Off)
        .expect("compile")
        .num_unknowns;
    // Compile is microseconds; 20x more runs per sample than the
    // analysis loop keeps its timing floor comparable.
    let compile_iters = iters * 20;
    let time_compile = |policy: LintPolicy| {
        let t0 = Instant::now();
        for _ in 0..compile_iters {
            let prep = Prepared::compile_with(&ckt, policy).expect("compile");
            std::hint::black_box(&prep);
        }
        t0.elapsed().as_secs_f64() / compile_iters as f64
    };
    let time_first_analysis = |policy: LintPolicy| {
        let t0 = Instant::now();
        for _ in 0..iters {
            let sess = Session::compile_with(&ckt, opts.clone().lint(policy)).expect("compile");
            let dc = sess.op().expect("operating point");
            let wave = sess.ac(dc.x(), &freqs).expect("ac sweep");
            std::hint::black_box(&wave);
            let tr = sess.tran(&tran_params).expect("transient");
            std::hint::black_box(&tr);
        }
        t0.elapsed().as_secs_f64() / iters as f64
    };
    // Warm outside the timed window, then interleave A/B so drift hits
    // both sides equally.
    time_compile(LintPolicy::Deny);
    time_compile(LintPolicy::Off);
    let (mut cd, mut co) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        cd = cd.min(time_compile(LintPolicy::Deny));
        co = co.min(time_compile(LintPolicy::Off));
    }
    time_first_analysis(LintPolicy::Deny);
    time_first_analysis(LintPolicy::Off);
    let (mut ad, mut ao) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        ad = ad.min(time_first_analysis(LintPolicy::Deny));
        ao = ao.min(time_first_analysis(LintPolicy::Off));
    }
    LintPreflightStats {
        n_unknowns,
        compile_deny_us: cd * 1e6,
        compile_off_us: co * 1e6,
        first_analysis_deny_us: ad * 1e6,
        first_analysis_off_us: ao * 1e6,
        overhead_pct: (cd - co) / ao * 100.0,
    }
}

struct ServingStats {
    jobs: usize,
    recompile_s: f64,
    shared_s: f64,
    hits: u64,
    compiles: u64,
}

impl ServingStats {
    fn amortization(&self) -> f64 {
        self.recompile_s / self.shared_s
    }

    fn jobs_per_sec(&self) -> f64 {
        self.jobs as f64 / self.shared_s
    }
}

/// Serving-layer compile amortization: a `jobs`-deep queue re-running
/// operating points on the image-rejection tuner deck — the deck a
/// parameter tuner hammers — through the shared [`JobQueue`] cache,
/// against the naive front end that recompiles the netlist and solves a
/// cold operating point per request. Both sides run single-threaded so
/// the ratio isolates what the cache and the per-deck warm-start hint
/// buy, with no parallel speedup mixed in. Interleaved best-of-`reps`;
/// a fresh queue per rep so every rep pays the one real compile.
fn serving_probe(jobs: usize, reps: usize) -> ServingStats {
    let ckt = image_rejection_frontend_circuit();
    let opts = Options::new().solver(SolverChoice::Sparse);
    let time_recompile = || {
        let t0 = Instant::now();
        for _ in 0..jobs {
            let sess = Session::compile_with(&ckt, opts.clone()).expect("compile");
            sess.op().expect("cold operating point");
        }
        t0.elapsed().as_secs_f64()
    };
    let time_shared = || {
        let requests: Vec<JobRequest> = (0..jobs)
            .map(|_| JobRequest::new(ckt.clone(), JobSpec::Op).options(opts.clone()))
            .collect();
        let queue = JobQueue::new(QueueConfig::new().threads(1));
        let t0 = Instant::now();
        let reports = queue.run(requests);
        let dt = t0.elapsed().as_secs_f64();
        assert!(reports.iter().all(ahfic_serve::JobReport::is_ok));
        let stats = queue.cache_stats();
        (dt, stats.hits(), stats.compiles())
    };
    time_recompile();
    time_shared();
    let (mut recompile_s, mut shared_s) = (f64::INFINITY, f64::INFINITY);
    let (mut hits, mut compiles) = (0, 0);
    for _ in 0..reps {
        recompile_s = recompile_s.min(time_recompile());
        let (dt, h, c) = time_shared();
        shared_s = shared_s.min(dt);
        (hits, compiles) = (h, c);
    }
    ServingStats {
        jobs,
        recompile_s,
        shared_s,
        hits,
        compiles,
    }
}

struct LadderProbe {
    name: &'static str,
    legacy_converged: bool,
    legacy_iterations: usize,
    full_converged: bool,
    full_iterations: usize,
    rungs_attempted: f64,
    damped_iterations: f64,
    gmin_stages: f64,
    source_steps: f64,
    ptran_steps: f64,
}

/// Runs one hard-start circuit against the legacy (gmin/source only)
/// and full continuation ladders at a tight Newton budget, reading the
/// per-rung work back out of the trace counters.
fn ladder_probe(name: &'static str, prep: &Prepared, budget: usize) -> LadderProbe {
    let sess = Session::new(prep.clone());
    let legacy = sess
        .clone()
        .with_options(
            Options::new()
                .max_newton(budget)
                .ladder(LadderConfig::legacy()),
        )
        .op();
    let sink = Arc::new(InMemorySink::new());
    let full = sess
        .with_options(Options::new().max_newton(budget).trace(&sink))
        .op();
    let spans = summarize_top_level(&sink.take());
    let counter = |n: &str| {
        spans
            .iter()
            .find(|s| s.name == "op")
            .and_then(|s| s.counter(n))
            .unwrap_or(0.0)
    };
    LadderProbe {
        name,
        legacy_converged: legacy.is_ok(),
        legacy_iterations: legacy.map(|r| r.iterations).unwrap_or(0),
        full_converged: full.is_ok(),
        full_iterations: full.as_ref().map(|r| r.iterations).unwrap_or(0),
        rungs_attempted: counter("op.rungs_attempted"),
        damped_iterations: counter("op.damped_iterations"),
        gmin_stages: counter("op.gmin_stages"),
        source_steps: counter("op.source_steps"),
        ptran_steps: counter("op.ptran_steps"),
    }
}

struct PssProbe {
    n: usize,
    wall_s: f64,
    shooting_iterations: u64,
    gmres_iterations: u64,
    newton_iterations: u64,
    residual: f64,
}

/// Shooting-Newton periodic steady state on a diode rectifier whose
/// ring-down time constant spans many drive periods — the deck where
/// shooting beats brute-force transient. Converged status is the CI
/// gate; wall time and iteration counts land in the JSON.
fn pss_probe(reps: usize) -> PssProbe {
    let mut c = Circuit::new();
    let vin = c.node("vin");
    let out = c.node("out");
    c.vsource_wave(
        "VIN",
        vin,
        Circuit::gnd(),
        SourceWave::Sin {
            offset: 0.0,
            ampl: 2.0,
            freq: 1e6,
            delay: 0.0,
            damping: 0.0,
            phase_deg: 0.0,
        },
    );
    let dm = c.add_diode_model(DiodeModel::default());
    c.diode("D1", vin, out, dm, 1.0);
    c.capacitor("CL", out, Circuit::gnd(), 2e-9);
    c.resistor("RL", out, Circuit::gnd(), 1e3);
    let sess = Session::compile(&c).expect("rectifier compiles");
    // No warmup: start shooting straight from the operating point so the
    // bench times the Newton-Krylov machinery, not plain time-marching.
    let params = PssParams::new(1e-6, 256).warmup_periods(0);

    let run = || sess.pss(&params).expect("rectifier pss");
    run();
    let mut wall_s = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = run();
        wall_s = wall_s.min(t0.elapsed().as_secs_f64());
        result = Some(r);
    }
    let r = result.expect("at least one rep ran");
    assert!(
        r.is_converged(),
        "rectifier PSS failed to converge: {:?}",
        r.status()
    );
    PssProbe {
        n: sess.prepared().num_unknowns,
        wall_s,
        shooting_iterations: r.shooting_iterations,
        gmres_iterations: r.gmres_iterations,
        newton_iterations: r.newton_iterations,
        residual: r.residual,
    }
}

fn main() {
    let generator = standard_generator();
    let model = generator.generate(&"N1.2-12D".parse().expect("valid shape"));

    // Pre-flight verification overhead first, on a quiet heap: the
    // static lint pass runs inside every `compile`, so its budget is
    // measured on the deck a designer actually iterates on — the
    // image-rejection tuner front end — as raw compile time and as
    // compile-to-first-analysis (OP + AC sweep) turnaround, lint on
    // (default Deny policy) versus off.
    let lint = lint_preflight_probe(15, 50);
    println!(
        "pre-flight lint overhead (image-rejection tuner, n = {n}, best of 15): \
         compile {cd:.1}us deny vs {co:.1}us off; \
         first analysis {ad:.1}us deny vs {ao:.1}us off; \
         lint cost / turnaround = {pct:+.2}%\n",
        n = lint.n_unknowns,
        cd = lint.compile_deny_us,
        co = lint.compile_off_us,
        ad = lint.first_analysis_deny_us,
        ao = lint.first_analysis_off_us,
        pct = lint.overhead_pct,
    );

    let mut json_sizes = String::new();
    println!("# Solver smoke: dense vs sparse on the amplifier-chain netlist family");
    println!(
        "{:<8} {:>6} {:>12} {:>12} {:>12} {:>12} {:>9}",
        "stages", "n", "dense op", "dense tran", "sparse tran", "sparse ac", "speedup"
    );

    let tran_params = TranParams::new(1.0e-9, 10e-12);
    let mut largest: Option<Prepared> = None;
    for (i, &stages) in [4usize, 12, 36].iter().enumerate() {
        let prep = amplifier_chain(stages, &model);
        let n = prep.num_unknowns;

        let dense = run_suite(&prep, SolverChoice::Dense, &tran_params);
        let sparse = run_suite(&prep, SolverChoice::Sparse, &tran_params);
        let speedup = dense.total() / sparse.total();

        println!(
            "{:<8} {:>6} {:>10.1}ms {:>10.1}ms {:>10.1}ms {:>10.1}ms {:>8.2}x",
            stages, n, dense.op_ms, dense.tran_ms, sparse.tran_ms, sparse.ac_ms, speedup
        );

        if i > 0 {
            json_sizes.push_str(",\n");
        }
        write!(
            json_sizes,
            concat!(
                "    {{\"stages\": {}, \"n\": {},\n",
                "     \"dense\":  {{\"op_ms\": {:.3}, \"tran_ms\": {:.3}, \"ac_ms\": {:.3}, ",
                "\"newton\": {:.0}, \"factorizations\": {:.0}}},\n",
                "     \"sparse\": {{\"op_ms\": {:.3}, \"tran_ms\": {:.3}, \"ac_ms\": {:.3}, ",
                "\"newton\": {:.0}, \"factorizations\": {:.0}}},\n",
                "     \"speedup\": {:.3}}}"
            ),
            stages,
            n,
            dense.op_ms,
            dense.tran_ms,
            dense.ac_ms,
            dense.newton_iterations,
            dense.factorizations,
            sparse.op_ms,
            sparse.tran_ms,
            sparse.ac_ms,
            sparse.newton_iterations,
            sparse.factorizations,
            speedup
        )
        .expect("write to string");
        largest = Some(prep);
    }

    // Trace overhead at the largest size: Null sink (every record built
    // and discarded) versus a disabled handle (one branch per primitive).
    let prep = largest.expect("at least one size ran");
    let off = Options::new().solver(SolverChoice::Sparse);
    let nulled = Options::new()
        .solver(SolverChoice::Sparse)
        .trace(&Arc::new(NullSink));
    let reps = 15;
    let (base_s, null_s) = min_paired_suite_seconds(&prep, &off, &nulled, &tran_params, reps);
    let overhead_pct = (null_s / base_s - 1.0) * 100.0;
    println!(
        "\nnull-sink trace overhead (36 stages, sparse, best of {reps} interleaved): \
         {base_ms:.1}ms off vs {null_ms:.1}ms null ({overhead_pct:+.2}%)",
        base_ms = base_s * 1e3,
        null_ms = null_s * 1e3,
    );

    // Linear-stamp replay: the full suite must not regress with replay
    // on, and the Newton-heavy Monte-Carlo load (repeated cold operating
    // points) is where replaying the cached linear baseline pays off.
    let replay_on = Options::new().solver(SolverChoice::Sparse);
    let replay_off = Options::new()
        .solver(SolverChoice::Sparse)
        .linear_replay(false);
    let (suite_on_s, suite_off_s) =
        min_paired_suite_seconds(&prep, &replay_on, &replay_off, &tran_params, reps);
    let mut prep = prep;
    let mc_trials = 20;
    let (mc_on_s, mc_off_s) =
        min_paired_mc_seconds(&mut prep, &replay_on, &replay_off, mc_trials, 7);
    println!(
        "linear replay (36 stages, sparse): suite {on_ms:.1}ms on vs {off_ms:.1}ms off \
         ({suite_speedup:.2}x); {mc_trials}-trial MC op {mc_on_ms:.1}ms on vs \
         {mc_off_ms:.1}ms off ({mc_speedup:.2}x)",
        on_ms = suite_on_s * 1e3,
        off_ms = suite_off_s * 1e3,
        suite_speedup = suite_off_s / suite_on_s,
        mc_on_ms = mc_on_s * 1e3,
        mc_off_ms = mc_off_s * 1e3,
        mc_speedup = mc_off_s / mc_on_s,
    );

    // Batched variant engine: Monte-Carlo yield throughput of a
    // per-sample loop versus the study driver's SoA-lane batched
    // engine, one thread each, at a small and a large study size. The
    // batched side must never be slower — CI runs this binary, so the
    // assert below is the regression gate.
    let batched_runs = [
        batched_yield_probe(1_000, 5),
        batched_yield_probe(10_000, 3),
    ];
    println!(
        "\n# Batched variant engine (yield_mc, simd = {:?})",
        ahfic_num::simd::simd_level()
    );
    println!(
        "{:<9} {:>12} {:>12} {:>14} {:>14} {:>9}",
        "samples", "seq", "batched", "seq sps", "batched sps", "speedup"
    );
    let mut json_batched = String::new();
    for (i, b) in batched_runs.iter().enumerate() {
        println!(
            "{:<9} {:>10.1}ms {:>10.1}ms {:>14.0} {:>14.0} {:>8.2}x",
            b.samples,
            b.seq_s * 1e3,
            b.bat_s * 1e3,
            b.seq_sps(),
            b.bat_sps(),
            b.speedup(),
        );
        if i > 0 {
            json_batched.push_str(",\n");
        }
        write!(
            json_batched,
            concat!(
                "    {{\"samples\": {}, \"seq_ms\": {:.3}, \"batched_ms\": {:.3}, ",
                "\"seq_sps\": {:.0}, \"batched_sps\": {:.0}, \"speedup\": {:.3}}}"
            ),
            b.samples,
            b.seq_s * 1e3,
            b.bat_s * 1e3,
            b.seq_sps(),
            b.bat_sps(),
            b.speedup(),
        )
        .expect("write to string");
    }
    assert!(
        batched_runs[1].speedup() >= 1.0,
        "batched yield path regressed below the sequential path: {:.2}x at {} samples",
        batched_runs[1].speedup(),
        batched_runs[1].samples,
    );

    // Convergence ladder on the hard-start corpus: circuits the
    // gmin/source-only ladder cannot solve under a tight Newton budget,
    // with the winning rung identified by its step counters — plus the
    // evidence that an easy circuit pays nothing for the extra rungs.
    let ladder_budget = 25;
    let probes = [
        ladder_probe(
            "avalanche_current_drive",
            &avalanche_current_drive(),
            ladder_budget,
        ),
        ladder_probe(
            "zener_stack_current_drive",
            &zener_stack_current_drive(),
            ladder_budget,
        ),
    ];
    println!("\n# Convergence ladder (hard starts, max_newton = {ladder_budget})");
    println!(
        "{:<26} {:>7} {:>7} {:>6} {:>7} {:>7} {:>7} {:>7}",
        "circuit", "legacy", "full", "rungs", "damped", "gmin", "source", "ptran"
    );
    let mut json_ladder = String::new();
    for (i, p) in probes.iter().enumerate() {
        println!(
            "{:<26} {:>7} {:>7} {:>6.0} {:>7.0} {:>7.0} {:>7.0} {:>7.0}",
            p.name,
            if p.legacy_converged { "ok" } else { "FAIL" },
            if p.full_converged {
                format!("{} it", p.full_iterations)
            } else {
                "FAIL".into()
            },
            p.rungs_attempted,
            p.damped_iterations,
            p.gmin_stages,
            p.source_steps,
            p.ptran_steps,
        );
        if i > 0 {
            json_ladder.push_str(",\n");
        }
        write!(
            json_ladder,
            concat!(
                "    {{\"name\": \"{}\", \"legacy_converged\": {}, \"legacy_iterations\": {}, ",
                "\"full_converged\": {}, \"full_iterations\": {},\n",
                "     \"rungs_attempted\": {:.0}, \"damped_iterations\": {:.0}, ",
                "\"gmin_stages\": {:.0}, \"source_steps\": {:.0}, \"ptran_steps\": {:.0}}}"
            ),
            p.name,
            p.legacy_converged,
            p.legacy_iterations,
            p.full_converged,
            p.full_iterations,
            p.rungs_attempted,
            p.damped_iterations,
            p.gmin_stages,
            p.source_steps,
            p.ptran_steps,
        )
        .expect("write to string");
    }

    // Easy-circuit overhead: repeated cold operating points on the
    // 4-stage chain, legacy ladder vs full ladder, best-of interleaved.
    let easy = amplifier_chain(4, &model);
    let legacy_opts = Options::new()
        .solver(SolverChoice::Sparse)
        .ladder(LadderConfig::legacy());
    let full_opts = Options::new().solver(SolverChoice::Sparse);
    let easy_trials = 200;
    let time_ops = |opts: &Options| {
        let sess = Session::new(easy.clone()).with_options(opts.clone());
        let t0 = Instant::now();
        for _ in 0..easy_trials {
            sess.op().expect("easy operating point");
        }
        t0.elapsed().as_secs_f64()
    };
    time_ops(&legacy_opts);
    time_ops(&full_opts);
    let (mut easy_legacy_s, mut easy_full_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        easy_legacy_s = easy_legacy_s.min(time_ops(&legacy_opts));
        easy_full_s = easy_full_s.min(time_ops(&full_opts));
    }
    let easy_overhead_pct = (easy_full_s / easy_legacy_s - 1.0) * 100.0;
    println!(
        "easy-circuit ladder overhead ({easy_trials} cold ops, best of 7): \
         {legacy_ms:.1}ms legacy vs {full_ms:.1}ms full ({easy_overhead_pct:+.2}%)",
        legacy_ms = easy_legacy_s * 1e3,
        full_ms = easy_full_s * 1e3,
    );

    // Serving layer: compile amortization across a job queue hammering
    // one deck. The assert is the CI regression gate for the shared
    // cache + warm-start path.
    let serving = serving_probe(64, 7);
    println!(
        "\n# Serving layer (image-rejection tuner deck, {jobs} op jobs, 1 thread, best of 7)\n\
         per-job recompile {rec_ms:.2}ms vs shared cache {sh_ms:.2}ms \
         ({amort:.1}x amortization, {jps:.0} jobs/s, {hits} hits / {compiles} compile)",
        jobs = serving.jobs,
        rec_ms = serving.recompile_s * 1e3,
        sh_ms = serving.shared_s * 1e3,
        amort = serving.amortization(),
        jps = serving.jobs_per_sec(),
        hits = serving.hits,
        compiles = serving.compiles,
    );
    assert!(
        serving.amortization() >= 5.0,
        "shared-cache serving fell below the 5x amortization floor: {:.2}x",
        serving.amortization(),
    );

    // Periodic steady state: the shooting-Newton rectifier bench. A
    // non-converged orbit fails the binary and therefore CI.
    let p = pss_probe(7);
    println!(
        "\n# Shooting PSS (diode rectifier, n = {n}, best of 7)\n\
         orbit in {ms:.1}ms: {sh} shooting iters, {gm} krylov matvecs, \
         {nw} newton iters, weighted residual {res:.3e}",
        n = p.n,
        ms = p.wall_s * 1e3,
        sh = p.shooting_iterations,
        gm = p.gmres_iterations,
        nw = p.newton_iterations,
        res = p.residual,
    );

    let json = format!(
        concat!(
            "{{\n  \"bench\": \"solver_smoke\",\n  \"unit\": \"ms\",\n  \"sizes\": [\n",
            "{sizes}\n  ],\n",
            "  \"trace_overhead\": {{\"baseline_ms\": {base:.3}, \"null_sink_ms\": {null:.3}, ",
            "\"overhead_pct\": {pct:.3}}},\n",
            "  \"stamp_replay\": {{\"suite_on_ms\": {son:.3}, \"suite_off_ms\": {soff:.3}, ",
            "\"suite_speedup\": {sx:.3},\n",
            "                   \"mc_trials\": {mct}, \"mc_on_ms\": {mon:.3}, ",
            "\"mc_off_ms\": {moff:.3}, \"mc_speedup\": {mx:.3}}},\n",
            "  \"batched\": {{\"simd\": \"{simd:?}\", \"auto_lanes\": {lanes}, \"threads\": 1, \"runs\": [\n",
            "{batched}\n  ]}},\n",
            "  \"convergence_ladder\": {{\"max_newton\": {lbud}, \"hard_starts\": [\n{ladder}\n  ],\n",
            "    \"easy_overhead\": {{\"trials\": {etr}, \"legacy_ms\": {eleg:.3}, ",
            "\"full_ms\": {efull:.3}, \"overhead_pct\": {eo:.3}}}}},\n",
            "  \"lint_preflight\": {{\"deck\": \"image_rejection_frontend\", ",
            "\"n_unknowns\": {ln},\n",
            "    \"compile_deny_us\": {lcd:.3}, \"compile_off_us\": {lco:.3},\n",
            "    \"first_analysis_deny_us\": {lad:.3}, \"first_analysis_off_us\": {lao:.3}, ",
            "\"overhead_pct\": {lpct:.3}}},\n",
            "  \"serving\": {{\"deck\": \"image_rejection_frontend\", \"jobs\": {sj}, ",
            "\"threads\": 1,\n",
            "    \"recompile_ms\": {srec:.3}, \"shared_ms\": {ssh:.3}, ",
            "\"amortization\": {samort:.3}, \"jobs_per_sec\": {sjps:.0},\n",
            "    \"cache_hits\": {shits}, \"cache_compiles\": {scomp}}},\n",
            "  \"pss\": {{\"deck\": \"diode_rectifier\", \"n\": {pn}, \"wall_ms\": {pms:.3},\n",
            "    \"shooting_iterations\": {psh}, \"gmres_iterations\": {pgm}, ",
            "\"newton_iterations\": {pnw}, \"residual\": {pres:.3e}}}\n}}\n"
        ),
        sizes = json_sizes,
        base = base_s * 1e3,
        null = null_s * 1e3,
        pct = overhead_pct,
        son = suite_on_s * 1e3,
        soff = suite_off_s * 1e3,
        sx = suite_off_s / suite_on_s,
        mct = mc_trials,
        mon = mc_on_s * 1e3,
        moff = mc_off_s * 1e3,
        mx = mc_off_s / mc_on_s,
        simd = ahfic_num::simd::simd_level(),
        lanes = Options::new().lanes_for(usize::MAX),
        batched = json_batched,
        lbud = ladder_budget,
        ladder = json_ladder,
        etr = easy_trials,
        eleg = easy_legacy_s * 1e3,
        efull = easy_full_s * 1e3,
        eo = easy_overhead_pct,
        ln = lint.n_unknowns,
        lcd = lint.compile_deny_us,
        lco = lint.compile_off_us,
        lad = lint.first_analysis_deny_us,
        lao = lint.first_analysis_off_us,
        lpct = lint.overhead_pct,
        sj = serving.jobs,
        srec = serving.recompile_s * 1e3,
        ssh = serving.shared_s * 1e3,
        samort = serving.amortization(),
        sjps = serving.jobs_per_sec(),
        shits = serving.hits,
        scomp = serving.compiles,
        pn = p.n,
        pms = p.wall_s * 1e3,
        psh = p.shooting_iterations,
        pgm = p.gmres_iterations,
        pnw = p.newton_iterations,
        pres = p.residual,
    );
    std::fs::write("BENCH_solver.json", &json).expect("write BENCH_solver.json");
    println!("\nwrote BENCH_solver.json");
}
