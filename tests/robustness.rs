//! Robustness suite: pathological netlists, hard-start circuits,
//! deterministic fault injection, and a parser fuzz.
//!
//! The contract under test: every input — however malformed, degenerate,
//! or numerically hostile — produces either a typed [`SpiceError`] or a
//! converged, finite solution. Never a panic, never a NaN in reported
//! results.

use ahfic_bench::fuzz::{mutate_deck, FUZZ_SEEDS};
use ahfic_spice::analysis::{FaultInjector, FaultKind, LadderConfig, OpResult, Options, Session};
use ahfic_spice::cache::{DeckKey, PreparedCache};
use ahfic_spice::circuit::{Circuit, Prepared};
use ahfic_spice::error::SpiceError;
use ahfic_spice::lint::{LintCode, LintPolicy};
use ahfic_spice::model::{BjtModel, DiodeModel};
use ahfic_spice::parse::parse_netlist;
use ahfic_spice::trace::{InMemorySink, RecordKind, TraceRecord};
use proptest::prelude::*;
use std::sync::Arc;

// Thin shims over [`Session`] — the primary analysis entry point —
// preserving this suite's free-function call shape.
fn op(prep: &Prepared, opts: &Options) -> ahfic_spice::error::Result<OpResult> {
    Session::new(prep.clone()).with_options(opts.clone()).op()
}

fn counter(records: &[TraceRecord], name: &str) -> f64 {
    records
        .iter()
        .filter(|r| r.kind == RecordKind::Counter && r.name == name)
        .map(|r| r.value)
        .sum()
}

// ---------------------------------------------------------------------------
// Hard-start corpus: circuits the gmin/source-only ladder cannot solve.
// ---------------------------------------------------------------------------

/// Current-driven avalanche diode. The junction must walk from 0 V deep
/// into reverse breakdown; because the drive is a current source, gmin
/// loading does not shorten the walk and the very first source-stepping
/// scale already demands the full excursion — the legacy rungs all stall.
fn avalanche_current_drive() -> Circuit {
    let mut c = Circuit::new();
    let a = c.node("a");
    let dm = c.add_diode_model(DiodeModel {
        bv: 6.0,
        ..DiodeModel::default()
    });
    c.isource("I1", Circuit::gnd(), a, 1.0);
    c.diode("D1", Circuit::gnd(), a, dm, 1.0);
    c.resistor("RSH", a, Circuit::gnd(), 1e9);
    c
}

/// Three series zeners forced into breakdown by a current source: the
/// same hard start as [`avalanche_current_drive`] but with internal
/// nodes whose only DC path is the breakdown conduction itself.
fn zener_stack_current_drive() -> Circuit {
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
    c
}

/// Tight Newton budget (reduced ITL1) under which the hard-start corpus
/// separates the ladders: each breakdown walk needs ~50 iterations in
/// one unbroken run, which no legacy rung can afford, while ptran pays
/// for it in many cheap anchored steps.
const TIGHT_BUDGET: usize = 25;

#[test]
fn hard_start_corpus_defeats_legacy_ladder() {
    for (name, ckt) in [
        ("avalanche", avalanche_current_drive()),
        ("zener_stack", zener_stack_current_drive()),
    ] {
        let prep = Prepared::compile(&ckt).unwrap();
        let legacy = op(
            &prep,
            &Options::new()
                .max_newton(TIGHT_BUDGET)
                .ladder(LadderConfig::legacy()),
        );
        match legacy {
            Err(SpiceError::NoConvergence {
                report: Some(report),
                ..
            }) => {
                // Every enabled legacy rung must have been tried and
                // reported, and the worst unknowns must carry names.
                assert!(
                    report.rungs.len() >= 3,
                    "{name}: expected >=3 rung reports, got {:?}",
                    report.rungs
                );
                assert!(
                    report.rungs.iter().all(|r| !r.converged),
                    "{name}: a rung claims convergence inside a failure"
                );
                assert!(
                    !report.worst.is_empty() && report.worst[0].name.starts_with("v("),
                    "{name}: worst unknowns missing or unnamed: {:?}",
                    report.worst
                );
            }
            other => panic!("{name}: legacy ladder should fail with a report, got {other:?}"),
        }
    }
}

#[test]
fn hard_start_corpus_recovers_via_ptran() {
    // Single avalanche diode: v(a) settles just past bv = 6 V.
    let ckt = avalanche_current_drive();
    let prep = Prepared::compile(&ckt).unwrap();
    let sink = Arc::new(InMemorySink::new());
    let opts = Options::new().max_newton(TIGHT_BUDGET).trace(&sink);
    let r = op(&prep, &opts).expect("full ladder must solve the avalanche start");
    let a = prep.voltage(&r.x, ckt.find_node("a").unwrap());
    assert!((6.0..8.0).contains(&a), "v(a) = {a}");
    let recs = sink.records();
    assert!(
        counter(&recs, "op.ptran_steps") > 0.0,
        "expected the pseudo-transient rung to do the work"
    );
    assert!(counter(&recs, "op.rungs_attempted") >= 4.0);

    // Three-zener stack: v(top) is three breakdown drops.
    let ckt = zener_stack_current_drive();
    let prep = Prepared::compile(&ckt).unwrap();
    let r = op(&prep, &Options::new().max_newton(TIGHT_BUDGET))
        .expect("full ladder must solve the zener stack");
    let top = prep.voltage(&r.x, ckt.find_node("top").unwrap());
    assert!((18.0..24.0).contains(&top), "v(top) = {top}");
}

#[test]
fn easy_circuit_converges_identically_on_both_ladders() {
    // The recovery machinery must cost nothing on a healthy circuit:
    // same solution, same iteration count, rung 1 only.
    let mut c = Circuit::new();
    let vin = c.node("in");
    let out = c.node("out");
    c.vsource("V1", vin, Circuit::gnd(), 10.0);
    c.resistor("R1", vin, out, 1e3);
    c.resistor("R2", out, Circuit::gnd(), 1e3);
    let prep = Prepared::compile(&c).unwrap();
    let full = op(&prep, &Options::default()).unwrap();
    let legacy = op(&prep, &Options::new().ladder(LadderConfig::legacy())).unwrap();
    assert_eq!(full.iterations, legacy.iterations);
    assert_eq!(full.x, legacy.x);
}

// ---------------------------------------------------------------------------
// Pathological netlist corpus: typed error or convergence, never a panic.
// ---------------------------------------------------------------------------

const PATHOLOGICAL_DECKS: &[(&str, &str)] = &[
    (
        "floating_node_via_cap",
        "* node f only reachable through a capacitor\n\
         V1 in 0 5\nR1 in out 1k\nR2 out 0 1k\nC1 out f 1p\n.end\n",
    ),
    (
        "zero_value_resistor",
        "V1 in 0 5\nR1 in out 0\nR2 out 0 1k\n.end\n",
    ),
    ("zero_value_inductor_loop", "V1 in 0 5\nL1 in 0 0\n.end\n"),
    (
        "inductor_across_source",
        "* DC short across an ideal source\nV1 in 0 5\nL1 in 0 1u\nR1 in 0 1k\n.end\n",
    ),
    (
        "parallel_conflicting_sources",
        "V1 a 0 5\nV2 a 0 3\nR1 a 0 1k\n.end\n",
    ),
    (
        "stacked_diode_hard_start",
        "* ten junctions across 8 V with a 1 mOhm tail\n\
         .model dj d is=1e-14\n\
         V1 a 0 8\n\
         D1 a n1 dj\nD2 n1 n2 dj\nD3 n2 n3 dj\nD4 n3 n4 dj\nD5 n4 n5 dj\n\
         D6 n5 n6 dj\nD7 n6 n7 dj\nD8 n7 n8 dj\nD9 n8 n9 dj\nD10 n9 n10 dj\n\
         RS n10 0 0.001\n.end\n",
    ),
    (
        "recursive_subckt",
        ".subckt loop a b\nR1 a b 1k\nXINNER a b loop\n.ends\n\
         V1 in 0 1\nXTOP in 0 loop\n.end\n",
    ),
    ("truncated_element_card", "V1 in 0 5\nR1 in\n.end\n"),
    ("garbage_value", "V1 in 0 bogus\nR1 in 0 1k\n.end\n"),
    (
        "unknown_model_type",
        ".model weird zzz is=1\nV1 in 0 1\nR1 in 0 1k\n.end\n",
    ),
    ("diode_without_model", "V1 in 0 1\nD1 in 0 nomodel\n.end\n"),
    (
        "current_source_into_open",
        "* nothing but gmin to absorb 1 mA\nI1 0 a 1m\n.end\n",
    ),
];

#[test]
fn pathological_decks_yield_typed_errors_or_finite_solutions() {
    for (name, deck) in PATHOLOGICAL_DECKS {
        let ckt = match parse_netlist(deck) {
            Ok(c) => c,
            Err(e) => {
                // Typed parse-layer rejection is a pass; the error must
                // render without panicking.
                let _ = format!("{name}: {e}");
                continue;
            }
        };
        let prep = match Prepared::compile(&ckt) {
            Ok(p) => p,
            Err(e) => {
                let _ = format!("{name}: {e}");
                continue;
            }
        };
        match op(&prep, &Options::default()) {
            Ok(r) => {
                assert!(
                    r.x.iter().all(|v| v.is_finite()),
                    "{name}: converged to a non-finite solution"
                );
            }
            Err(e) => {
                // Any typed error is acceptable; it must render.
                let _ = format!("{name}: {e}");
            }
        }
    }
}

#[test]
fn parse_errors_carry_line_numbers() {
    let deck = "V1 in 0 5\nR1 in\n.end\n";
    match parse_netlist(deck) {
        Err(SpiceError::Parse { line, .. }) => assert_eq!(line, 2),
        other => panic!("expected a parse error with a line number, got {other:?}"),
    }
    let deck = "V1 in 0 5\nR1 in out 1k\nC3 out 0 abc\n.end\n";
    match parse_netlist(deck) {
        Err(SpiceError::Parse { line, .. }) => assert_eq!(line, 3),
        other => panic!("expected a parse error with a line number, got {other:?}"),
    }
}

#[test]
fn recursive_subckt_is_rejected_not_overflowed() {
    let deck = ".subckt loop a b\nR1 a b 1k\nXINNER a b loop\n.ends\n\
                V1 in 0 1\nXTOP in 0 loop\n.end\n";
    match parse_netlist(deck) {
        Err(SpiceError::Parse { message, .. }) => {
            assert!(message.contains("nesting"), "unexpected message: {message}");
        }
        other => panic!("expected nesting-depth rejection, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Fault injection: deterministic exercise of every recovery path.
// ---------------------------------------------------------------------------

fn diode_divider() -> Circuit {
    let mut c = Circuit::new();
    let vin = c.node("in");
    let out = c.node("out");
    c.vsource("V1", vin, Circuit::gnd(), 5.0);
    c.resistor("R1", vin, out, 1e3);
    let dm = c.add_diode_model(DiodeModel::default());
    c.diode("D1", out, Circuit::gnd(), dm, 1.0);
    c
}

#[test]
fn injected_singular_matrix_recovers_via_gmin_retry() {
    let ckt = diode_divider();
    let prep = Prepared::compile(&ckt).unwrap();
    let clean = op(&prep, &Options::default()).unwrap();

    let inj = FaultInjector::once(FaultKind::SingularMatrix, 0, 1);
    let r =
        op(&prep, &Options::new().fault_injector(&inj)).expect("singular-retry path must recover");
    assert_eq!(inj.fires(), 1, "the fault must actually have fired");
    let out = ckt.find_node("out").unwrap();
    assert!((prep.voltage(&r.x, out) - prep.voltage(&clean.x, out)).abs() < 1e-6);
}

#[test]
fn injected_nan_stamp_trips_guard_and_ladder_recovers() {
    let ckt = diode_divider();
    let prep = Prepared::compile(&ckt).unwrap();
    let sink = Arc::new(InMemorySink::new());
    let inj = FaultInjector::once(FaultKind::NanStamp, 0, 2);
    let r = op(&prep, &Options::new().fault_injector(&inj).trace(&sink))
        .expect("NaN guard must route the poisoned solve into the ladder");
    assert!(r.x.iter().all(|v| v.is_finite()));
    assert_eq!(inj.fires(), 1);
    let recs = sink.records();
    assert!(
        counter(&recs, "op.nonfinite_recoveries") >= 1.0,
        "the NaN guard should have recorded a recovery"
    );
    assert!(counter(&recs, "op.rungs_attempted") >= 2.0);
}

#[test]
fn injected_nonconvergence_escalates_the_ladder() {
    let ckt = diode_divider();
    let prep = Prepared::compile(&ckt).unwrap();
    let sink = Arc::new(InMemorySink::new());
    let inj = FaultInjector::once(FaultKind::NoConvergence, 0, 1);
    let r = op(&prep, &Options::new().fault_injector(&inj).trace(&sink))
        .expect("ladder must absorb a single failed rung");
    assert!(r.x.iter().all(|v| v.is_finite()));
    let recs = sink.records();
    assert!(counter(&recs, "op.rungs_attempted") >= 2.0);
}

#[test]
fn injected_failure_with_ladder_disabled_surfaces_typed_error() {
    let ckt = diode_divider();
    let prep = Prepared::compile(&ckt).unwrap();
    let no_ladder = LadderConfig {
        damping: false,
        gmin_stepping: false,
        source_stepping: false,
        ptran: false,
    };
    let inj = FaultInjector::once(FaultKind::NoConvergence, 0, 1);
    match op(
        &prep,
        &Options::new().ladder(no_ladder).fault_injector(&inj),
    ) {
        Err(SpiceError::NoConvergence { analysis, .. }) => assert_eq!(analysis, "op"),
        other => panic!("expected NoConvergence, got {other:?}"),
    }
}

#[test]
fn seeded_fault_injection_is_deterministic() {
    let ckt = diode_divider();
    let prep = Prepared::compile(&ckt).unwrap();
    let no_ladder = LadderConfig {
        damping: false,
        gmin_stepping: false,
        source_stepping: false,
        ptran: false,
    };
    let pattern = |seed: u64| -> Vec<bool> {
        let inj = FaultInjector::seeded(FaultKind::NoConvergence, seed, 0.4);
        let opts = Options::new().ladder(no_ladder).fault_injector(&inj);
        (0..24).map(|_| op(&prep, &opts).is_ok()).collect()
    };
    let a = pattern(0xA11CE);
    let b = pattern(0xA11CE);
    assert_eq!(a, b, "same seed must reproduce the same failure pattern");
    assert!(a.iter().any(|ok| *ok) && a.iter().any(|ok| !*ok));
    let c = pattern(0xB0B);
    assert_ne!(
        a, c,
        "different seeds should differ at rate 0.4 over 24 solves"
    );
}

#[test]
fn unset_injector_means_no_fault_bookkeeping() {
    // Options without an injector must behave exactly like the default.
    let ckt = diode_divider();
    let prep = Prepared::compile(&ckt).unwrap();
    let a = op(&prep, &Options::default()).unwrap();
    let b = op(&prep, &Options::new()).unwrap();
    assert_eq!(a.x, b.x);
    assert_eq!(a.iterations, b.iterations);
}

// ---------------------------------------------------------------------------
// Pre-flight lint corpus: each structural defect class produces its typed
// diagnostic at compile time, naming nodes and elements with deck line
// numbers — never an anonymous singular-matrix failure out of the LU.
// ---------------------------------------------------------------------------

/// Decks whose defect is an error under [`LintPolicy::Deny`]: compilation
/// must fail with [`SpiceError::LintFailed`] carrying the expected code.
const LINT_ERROR_DECKS: &[(&str, &str, LintCode, &str)] = &[
    (
        "vsource_loop",
        "V1 a 0 5\nV2 a 0 3\nR1 a 0 1k\n.end\n",
        LintCode::VsourceLoop,
        "V2 (line 2)",
    ),
    (
        "floating_island",
        "* f and g only reachable through C1\n\
         V1 in 0 5\nR1 in 0 1k\nC1 in f 1p\nR2 f g 1k\n.end\n",
        LintCode::FloatingNode,
        "R2 (line 5)",
    ),
    (
        "current_source_cutset",
        "* 1 mA forced into a node with no DC return\n\
         I1 0 a 1m\nC1 a 0 1p\n.end\n",
        LintCode::CurrentCutset,
        "I1 (line 2)",
    ),
    (
        "no_ground_anywhere",
        "V1 a b 5\nR1 a b 1k\n.end\n",
        LintCode::NoGround,
        "",
    ),
];

/// Decks whose defect is a warning: compilation succeeds under the default
/// policy and the diagnostic rides on the compiled circuit.
const LINT_WARNING_DECKS: &[(&str, &str, LintCode, &str)] = &[
    (
        "inductor_loop",
        "* DC short across an ideal source\n\
         V1 in 0 5\nL1 in 0 1u\nR1 in 0 1k\n.end\n",
        LintCode::InductorLoop,
        "L1 (line 3)",
    ),
    (
        "dangling_pin",
        "* node d touched by one terminal only\n\
         V1 in 0 5\nR1 in 0 1k\nR2 in d 1k\n.end\n",
        LintCode::DanglingPin,
        "R2 (line 4)",
    ),
];

#[test]
fn lint_error_decks_fail_compile_with_named_diagnostics() {
    for (name, deck, code, element) in LINT_ERROR_DECKS {
        let ckt = parse_netlist(deck).unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
        match Prepared::compile(&ckt) {
            Err(SpiceError::LintFailed(report)) => {
                let diag = report
                    .diagnostics
                    .iter()
                    .find(|d| d.code == *code)
                    .unwrap_or_else(|| panic!("{name}: no {code:?} in {report:?}"));
                assert!(
                    !diag.nodes.is_empty(),
                    "{name}: diagnostic names no nodes: {diag:?}"
                );
                if !element.is_empty() {
                    assert!(
                        diag.elements.iter().any(|e| e == element),
                        "{name}: expected element {element:?} in {:?}",
                        diag.elements
                    );
                }
                // The rendered report must carry the kebab code.
                let rendered = ahfic_spice::analysis::lint_report(&report);
                assert!(rendered.contains(code.as_str()), "{name}: {rendered}");
            }
            other => panic!("{name}: expected LintFailed, got {other:?}"),
        }
    }
}

#[test]
fn lint_warning_decks_compile_and_carry_diagnostics() {
    for (name, deck, code, element) in LINT_WARNING_DECKS {
        let ckt = parse_netlist(deck).unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
        let prep = Prepared::compile(&ckt)
            .unwrap_or_else(|e| panic!("{name}: warning-only deck failed compile: {e}"));
        let diag = prep
            .lint_warnings
            .iter()
            .find(|d| d.code == *code)
            .unwrap_or_else(|| panic!("{name}: no {code:?} in {:?}", prep.lint_warnings));
        assert!(
            diag.elements.iter().any(|e| e == element),
            "{name}: expected element {element:?} in {:?}",
            diag.elements
        );
        // Warning decks must still solve (they are degenerate, not singular).
        let r = op(&prep, &Options::default());
        assert!(r.is_ok(), "{name}: {r:?}");
    }
}

#[test]
fn lint_policy_warn_lets_pathological_decks_reach_the_solver() {
    // Under `Warn` the same error decks compile; the solver then either
    // converges or fails with a typed error — never a panic.
    for (name, deck, _, _) in LINT_ERROR_DECKS {
        let ckt = parse_netlist(deck).unwrap();
        let prep = Prepared::compile_with(&ckt, LintPolicy::Warn)
            .unwrap_or_else(|e| panic!("{name}: Warn policy must not fail compile: {e}"));
        assert!(
            !prep.lint_warnings.is_empty(),
            "{name}: Warn policy must still carry the findings"
        );
        match op(&prep, &Options::default()) {
            Ok(r) => assert!(r.x.iter().all(|v| v.is_finite()), "{name}"),
            Err(e) => {
                let _ = format!("{name}: {e}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Property: random RLC+BJT circuits never report NaN.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized RLC ladders with a BJT never produce a non-finite
    /// value in a solution the solver claims converged.
    #[test]
    fn random_rlc_bjt_op_is_finite_or_typed_error(
        rs in proptest::collection::vec(1.0f64..1e6, 5),
        cs in proptest::collection::vec(1e-15f64..1e-6, 3),
        ls in proptest::collection::vec(1e-12f64..1e-3, 2),
        vcc in 0.5f64..30.0,
        bf in 5.0f64..500.0,
        link_a in proptest::collection::vec(0usize..5, 4),
        link_b in proptest::collection::vec(0usize..5, 4),
    ) {
        let mut c = Circuit::new();
        let nodes: Vec<_> = (0..5).map(|k| c.node(&format!("n{k}"))).collect();
        c.vsource("VCC", nodes[0], Circuit::gnd(), vcc);
        // Backbone: a resistive path touching every node so nothing is
        // trivially disconnected.
        for k in 0..4 {
            c.resistor(&format!("RB{k}"), nodes[k], nodes[k + 1], rs[k]);
        }
        c.resistor("RT", nodes[4], Circuit::gnd(), rs[4]);
        // Random reactive / resistive links (self-loops skipped).
        for (j, (a, b)) in link_a.iter().zip(&link_b).enumerate() {
            if a == b {
                continue;
            }
            match j % 3 {
                0 => { c.capacitor(&format!("CL{j}"), nodes[*a], nodes[*b], cs[j % 3]); }
                1 => { c.inductor(&format!("LL{j}"), nodes[*a], nodes[*b], ls[j % 2]); }
                _ => { c.resistor(&format!("RL{j}"), nodes[*a], nodes[*b], rs[j % 5]); }
            }
        }
        let mut m = BjtModel::named("q");
        m.bf = bf;
        let mi = c.add_bjt_model(m);
        c.bjt("Q1", nodes[1], nodes[2], nodes[3], mi, 1.0);

        let prep = match Prepared::compile(&c) {
            Ok(p) => p,
            Err(_) => return Ok(()), // typed rejection is fine
        };
        match op(&prep, &Options::default()) {
            Ok(r) => {
                prop_assert!(
                    r.x.iter().all(|v| v.is_finite()),
                    "non-finite entry in a converged solution"
                );
            }
            Err(e) => {
                // Typed failure is acceptable; it must render.
                let _ = format!("{e}");
            }
        }
    }

    /// The pre-flight pass is sound: a random linear deck that survives
    /// lint under the default `Deny` policy never dies in the LU with a
    /// `Singular` error. Positive-only part values mean no numerical
    /// cancellation, so structural nonsingularity (what the matching
    /// backstop certifies) is the whole story.
    #[test]
    fn lint_clean_linear_decks_never_hit_singular_lu(
        kinds in proptest::collection::vec(0u8..5, 1..12),
        a_idx in proptest::collection::vec(0usize..5, 12),
        b_idx in proptest::collection::vec(0usize..5, 12),
        vals in proptest::collection::vec(0.1f64..1e3, 12),
    ) {
        let mut c = Circuit::new();
        let mut nodes = vec![Circuit::gnd()];
        nodes.extend((1..5).map(|k| c.node(&format!("n{k}"))));
        for (j, &k) in kinds.iter().enumerate() {
            let (a, b) = (nodes[a_idx[j]], nodes[b_idx[j]]);
            if a == b {
                continue;
            }
            match k {
                0 => { c.resistor(&format!("R{j}"), a, b, vals[j] * 1e3); }
                1 => { c.capacitor(&format!("C{j}"), a, b, vals[j] * 1e-12); }
                2 => { c.inductor(&format!("L{j}"), a, b, vals[j] * 1e-9); }
                3 => { c.vsource(&format!("V{j}"), a, b, vals[j]); }
                _ => { c.isource(&format!("I{j}"), a, b, vals[j] * 1e-3); }
            }
        }
        match Prepared::compile(&c) {
            Ok(prep) => match op(&prep, &Options::default()) {
                Ok(r) => {
                    prop_assert!(r.x.iter().all(|v| v.is_finite()));
                }
                Err(SpiceError::Singular { unknown }) => {
                    prop_assert!(
                        false,
                        "lint-clean deck still hit a singular LU near {unknown}"
                    );
                }
                Err(e) => {
                    // Other typed failures (e.g. non-convergence) are
                    // outside the lint contract; they must render.
                    let _ = format!("{e}");
                }
            },
            Err(e) => {
                // Lint rejection (or any typed compile error) is a pass.
                let _ = format!("{e}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parser fuzz: mutated decks parse and compile to `Ok` or a typed error,
// and the compile cache's text path agrees with a direct parse.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Parsing and compiling a mutated seed deck returns `Ok` or a typed
    /// [`SpiceError`] that renders; it never panics. Submitted twice
    /// through the cache's text path, the deck checks out under the key
    /// of its direct parse both times, the second time from the text
    /// index, or fails both times with the same typed error.
    #[test]
    fn mutated_decks_parse_and_compile_without_panicking(
        seed in 0usize..FUZZ_SEEDS.len(),
        kinds in proptest::collection::vec(0u8..6, 1..4),
        offsets in proptest::collection::vec(0usize..4096, 3),
        // Every byte value; invalid UTF-8 becomes U+FFFD below.
        bytes in proptest::collection::vec(0u16..256, 3),
    ) {
        let mut deck = FUZZ_SEEDS[seed].as_bytes().to_vec();
        for (k, &kind) in kinds.iter().enumerate() {
            mutate_deck(&mut deck, kind, offsets[k], bytes[k] as u8);
        }
        let text = String::from_utf8_lossy(&deck).into_owned();
        let outcome = std::panic::catch_unwind(|| {
            parse_netlist(&text)
                .and_then(|c| Prepared::compile(&c).map(drop))
                .map_err(|e| e.to_string())
        });
        prop_assert!(outcome.is_ok(), "parse + compile panicked on:\n{text}");

        let direct = parse_netlist(&text).and_then(|c| {
            Prepared::compile_with(&c, LintPolicy::Deny)
                .map(|_| DeckKey::of(&c, LintPolicy::Deny))
        });
        let cache = PreparedCache::new(4);
        for submission in 0..2 {
            let served = cache
                .get_or_compile_text(&text, LintPolicy::Deny)
                .map(|d| (d.key(), d.was_hit()));
            match (&direct, served) {
                (Ok(key), Ok((got, hit))) => prop_assert!(
                    *key == got && hit == (submission == 1),
                    "submission {submission}: {got} (hit {hit}), direct {key} on:\n{text}"
                ),
                (Err(want), Err(got)) => prop_assert_eq!(want, &got),
                (want, got) => {
                    prop_assert!(false, "direct {want:?}, text path {got:?} on:\n{text}");
                }
            }
        }
        prop_assert_eq!(cache.stats().parses(), if direct.is_ok() { 1 } else { 2 });
    }
}

// ---------------------------------------------------------------------------
// AHDL nesting: past the parser's depth limit a typed error, never a stack
// overflow. Run on a 1 MiB stack: without the limit the deep cases overflow
// it and abort the test binary, while the case at the limit fits.
// ---------------------------------------------------------------------------

fn ahdl_module(body: &str) -> String {
    format!("module m(x, y) {{ input x; output y;\n analog {{\n V(y) <- {body}; }} }}")
}

fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(1 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap()
}

#[test]
fn deeply_nested_ahdl_is_a_parse_error_not_a_stack_overflow() {
    use ahfic_ahdl::error::AhdlError;
    use ahfic_ahdl::eval::CompiledModule;
    let cases = [
        (
            "6,000 parentheses",
            format!("{}V(x){}", "(".repeat(6000), ")".repeat(6000)),
        ),
        (
            "100,000 unary minus signs",
            format!("{}V(x)", "-".repeat(100_000)),
        ),
        (
            "a 100,000-term sum",
            format!("V(x){}", " + 1".repeat(100_000)),
        ),
        (
            "10,000 nested calls",
            format!("{}V(x){}", "sin(".repeat(10_000), ")".repeat(10_000)),
        ),
    ];
    for (what, body) in cases {
        let err = on_small_stack(move || CompiledModule::compile(&ahdl_module(&body)).err());
        assert!(
            matches!(err, Some(AhdlError::Parse { line: 3, .. })),
            "{what}: {err:?}"
        );
    }
    // At the limit: 255 minus signs and the `V(x)` call open 256 levels.
    let depth = ahfic_ahdl::parse::MAX_DEPTH;
    let body = format!("{}V(x)", "-".repeat(depth - 1));
    let compiled = on_small_stack(move || CompiledModule::compile(&ahdl_module(&body)).is_ok());
    assert!(compiled, "{depth} levels compile");
}
