//! Batched-variant-engine equivalence suite.
//!
//! The contract under test: the lane width (`Options::batch`) is purely
//! a performance knob. For any deck and any batch width, the batched
//! engines produce the same per-sample outcomes as per-sample solves
//! through the single-point API — bit for bit at a single lane on the
//! sparse backend, to far below the Newton tolerance at wider batches —
//! including decks where samples fail to converge or are lint-rejected
//! before reaching the solver.

use ahfic::mixed::RcCrBench;
use ahfic::yield_mc::YieldStudy;
use ahfic_rf::image_rejection::irr_analytic_db;
use ahfic_spice::analysis::{BatchMode, BatchedOpEngine, OpResult, Options, Session};
use ahfic_spice::circuit::{Circuit, Prepared};
use ahfic_spice::model::BjtModel;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

// Thin shim over [`Session`] — the primary analysis entry point —
// preserving this suite's free-function call shape.
fn op(prep: &Prepared, opts: &Options) -> ahfic_spice::error::Result<OpResult> {
    Session::new(prep.clone()).with_options(opts.clone()).op()
}

/// Batch widths exercised everywhere: the degenerate single lane, a
/// small odd width, a width that does not divide typical counts, and
/// one wider than the sample count.
const WIDTHS: [usize; 4] = [1, 2, 7, 64];

/// Randomized RLC ladder with one BJT, the same family as the
/// robustness suite's generator: a resistive backbone keeps every node
/// connected, random reactive links add structure, and the BJT makes
/// the Newton iteration nontrivial.
fn rlc_bjt_deck(
    rs: &[f64],
    cs: &[f64],
    ls: &[f64],
    vcc: f64,
    bf: f64,
    links: &[(usize, usize)],
) -> Circuit {
    let mut c = Circuit::new();
    let nodes: Vec<_> = (0..5).map(|k| c.node(&format!("n{k}"))).collect();
    c.vsource("VCC", nodes[0], Circuit::gnd(), vcc);
    for k in 0..4 {
        c.resistor(&format!("RB{k}"), nodes[k], nodes[k + 1], rs[k]);
    }
    c.resistor("RT", nodes[4], Circuit::gnd(), rs[4]);
    for (j, &(a, b)) in links.iter().enumerate() {
        if a == b {
            continue;
        }
        match j % 3 {
            0 => {
                c.capacitor(&format!("CL{j}"), nodes[a], nodes[b], cs[j % 3]);
            }
            1 => {
                c.inductor(&format!("LL{j}"), nodes[a], nodes[b], ls[j % 2]);
            }
            _ => {
                c.resistor(&format!("RL{j}"), nodes[a], nodes[b], rs[j % 5]);
            }
        }
    }
    let mut m = BjtModel::named("q");
    m.bf = bf;
    let mi = c.add_bjt_model(m);
    c.bjt("Q1", nodes[1], nodes[2], nodes[3], mi, 1.0);
    c
}

/// Compares one sample outcome between the sequential and batched
/// paths: Ok vs Ok within `rel`, Err vs Err with the same rendering.
fn assert_outcomes_agree(
    seq: &Result<Vec<f64>, String>,
    bat: &Result<Vec<f64>, String>,
    rel: f64,
    ctx: &str,
) -> Result<(), TestCaseError> {
    match (seq, bat) {
        (Ok(s), Ok(b)) => {
            prop_assert!(s.len() == b.len(), "{ctx}: length mismatch");
            for (k, (sv, bv)) in s.iter().zip(b).enumerate() {
                if rel == 0.0 {
                    prop_assert!(sv == bv, "{ctx} unknown {k}: {sv} vs {bv}");
                } else {
                    prop_assert!(
                        (sv - bv).abs() <= rel * sv.abs().max(1e-9),
                        "{ctx} unknown {k}: {sv} vs {bv}"
                    );
                }
            }
        }
        (Err(se), Err(be)) => {
            prop_assert!(se == be, "{ctx}: {se} vs {be}");
        }
        (s, b) => {
            return Err(TestCaseError::fail(format!(
                "{ctx}: sequential {} vs batched {}",
                if s.is_ok() { "Ok" } else { "Err" },
                if b.is_ok() { "Ok" } else { "Err" },
            )));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batched operating points equal sequential operating points on
    /// random RLC+BJT decks, per sample, at every batch width — with
    /// the single-lane sparse configuration bit-identical. Samples
    /// whose Newton fails in either path must fail identically in both.
    #[test]
    fn batched_op_matches_sequential(
        rs in proptest::collection::vec(1.0f64..1e6, 5),
        cs in proptest::collection::vec(1e-15f64..1e-6, 3),
        ls in proptest::collection::vec(1e-12f64..1e-3, 2),
        vcc in 0.5f64..30.0,
        bf in 5.0f64..500.0,
        link_a in proptest::collection::vec(0usize..5, 4),
        link_b in proptest::collection::vec(0usize..5, 4),
        deltas in proptest::collection::vec(-0.4f64..0.4, 9),
    ) {
        let links: Vec<_> = link_a.into_iter().zip(link_b).collect();
        let c = rlc_bjt_deck(&rs, &cs, &ls, vcc, bf, &links);
        let mut prep = match Prepared::compile(&c) {
            Ok(p) => p,
            Err(_) => return Ok(()), // typed rejection is fine
        };
        let opts = Options::new();
        let rt = rs[4];
        // Sequential reference: tune then solve, one sample at a time.
        let seq: Vec<Result<Vec<f64>, String>> = deltas
            .iter()
            .map(|d| {
                prep.circuit.set_resistance("RT", rt * (1.0 + d)).map_err(|e| e.to_string())?;
                op(&prep, &opts).map(|r| r.x).map_err(|e| e.to_string())
            })
            .collect();
        for lanes in WIDTHS {
            let mut engine = BatchedOpEngine::new(lanes);
            let bat: Vec<Result<Vec<f64>, String>> = engine
                .run(&mut prep, &opts, deltas.len(), |p, i| {
                    p.circuit.set_resistance("RT", rt * (1.0 + deltas[i]))
                })
                .into_iter()
                .map(|r| r.map(|r| r.x).map_err(|e| e.to_string()))
                .collect();
            let rel = if lanes == 1 { 0.0 } else { 1e-9 };
            for (i, (s, b)) in seq.iter().zip(&bat).enumerate() {
                assert_outcomes_agree(s, b, rel, &format!("lanes={lanes} sample={i}"))?;
            }
        }
    }

    /// Batched yield studies track a per-sample loop over the
    /// single-point API (`RcCrBench::characterize` /
    /// `characterize_open_r1`) sample for sample, including
    /// lint-rejected defect samples, across batch widths and process
    /// spreads.
    #[test]
    fn batched_yield_matches_sequential(
        sigma in 0.02f64..0.2,
        seed in 1u64..5000,
        defect_on in 0u8..2,
    ) {
        let study = YieldStudy {
            samples: 12,
            seed,
            sigma_mismatch: sigma,
            open_defect_prob: if defect_on == 1 { 0.3 } else { 0.0 },
            ..YieldStudy::paper_example(sigma)
        };
        let mut bench = RcCrBench::new(study.f2_if, 1e-12).unwrap();
        let mut seq_irr = Vec::new();
        let mut seq_failed = Vec::new();
        for i in 0..study.samples {
            let (mismatch, defective) = study.sample_draw(i);
            let outcome = if defective {
                bench.characterize_open_r1()
            } else {
                bench.characterize(mismatch)
            };
            match outcome {
                Ok(b) => seq_irr.push(irr_analytic_db(b.phase_err_deg, b.gain_err)),
                Err(_) => seq_failed.push(i),
            }
        }
        for lanes in [1usize, 2, 7] {
            let bat = study
                .run_with_options(Options::new().batch(BatchMode::Lanes(lanes)))
                .unwrap();
            prop_assert!(seq_irr.len() == bat.irr_db.len(), "lanes={lanes}");
            let bat_failed: Vec<usize> = bat.failures.iter().map(|f| f.index).collect();
            prop_assert!(seq_failed == bat_failed, "lanes={lanes}");
            for (s, b) in seq_irr.iter().zip(&bat.irr_db) {
                // IRR in dB is extremely sensitive near perfect balance
                // (the argument of the log approaches zero), so compare
                // with a relative guard on the dB value.
                prop_assert!(
                    (s - b).abs() <= 1e-5 * s.abs().max(1.0),
                    "lanes={lanes}: {s} vs {b}"
                );
            }
        }
    }
}
