//! Integration tests over the geometry → model → simulation chain
//! (the paper's §4 experiments in reduced form).

use ahfic_geom::prelude::*;
use ahfic_rf::ringosc::{measure_ring_frequency, ring_frequency, ring_transient, RingOscParams};
use ahfic_spice::analysis::Options;
use ahfic_spice::measure::{ft_sweep, peak_ft};
use ahfic_spice::BjtModel;

fn generator() -> ModelGenerator {
    ModelGenerator::new(ProcessData::default(), MaskRules::default())
}

/// Fig. 9's claim: the collector current of peak fT scales with emitter
/// area across the N1.2-xD family.
#[test]
fn fig9_peak_current_scales_with_emitter_area() {
    let g = generator();
    let opts = Options::default();
    let currents = ahfic_num::interp::logspace(0.1e-3, 20e-3, 9);
    let mut peaks = Vec::new();
    for shape in [
        TransistorShape::new(1.2, 6.0, 1, 2),
        TransistorShape::new(1.2, 24.0, 1, 2),
    ] {
        let model = g.generate(&shape);
        let pts = ft_sweep(&model, 3.0, &currents, &opts);
        assert!(pts.len() >= 7, "{} failed points", shape);
        let (ic_pk, ft_pk) = peak_ft(&pts).unwrap();
        assert!(ft_pk > 2e9 && ft_pk < 12e9, "{shape}: peak {ft_pk:.3e}");
        peaks.push((shape.emitter_area_um2(), ic_pk));
    }
    // 4x the area -> roughly 4x the peak-fT current (allow 2.5..6).
    let ratio = peaks[1].1 / peaks[0].1;
    assert!(
        ratio > 2.5 && ratio < 6.0,
        "peak current ratio {ratio} for 4x area"
    );
}

/// Table 1's claim in miniature: at a fixed tail current, the
/// right-sized N1.2-12D diff pair rings faster than the undersized
/// N1.2-6S, and area-factor scaling misses the difference between
/// equal-area shapes.
#[test]
fn table1_shape_ordering_reproduces() {
    let g = generator();
    let opts = Options::default();
    let params = RingOscParams {
        stages: 3,
        t_stop: 20e-9,
        dt_max: 5e-12,
        ..RingOscParams::default()
    };
    let follower = g.generate(&"N1.2-12D".parse().unwrap());
    let ring = |pair: &BjtModel| {
        measure_ring_frequency(&params, pair, &follower, &opts)
            .unwrap_or_else(|e| panic!("{}: {e}", pair.name))
            .frequency
    };
    let freq = |name: &str| ring(&g.generate(&name.parse().unwrap()));
    let f_12d = freq("N1.2-12D");
    let f_6s = freq("N1.2-6S");
    let f_wide = freq("N2.4-6D");
    assert!(
        f_12d > 1.3 * f_6s,
        "12D ({f_12d:.3e}) should beat 6S ({f_6s:.3e})"
    );
    assert!(
        f_12d > 1.2 * f_wide,
        "12D ({f_12d:.3e}) should beat equal-area N2.4-6D ({f_wide:.3e})"
    );
    // The §4 ablation: scaled from the reference card by emitter area
    // alone, both 14.4 µm² shapes get one card under two names, so they
    // ring at the same frequency, bit for bit.
    let ref_shape = ModelGenerator::reference_shape();
    let reference = g.generate(&ref_shape);
    let area_factor =
        |name: &str| area_factor_model(&reference, &ref_shape, &name.parse().unwrap());
    let (af_12d, af_wide) = (area_factor("N1.2-12D"), area_factor("N2.4-6D"));
    assert_eq!(
        BjtModel {
            name: af_wide.name.clone(),
            ..af_12d.clone()
        },
        af_wide
    );
    let (f_af_12d, f_af_wide) = (ring(&af_12d), ring(&af_wide));
    assert_eq!(
        f_af_12d.to_bits(),
        f_af_wide.to_bits(),
        "area-factor cards ring at {f_af_12d:.6e} and {f_af_wide:.6e}"
    );
}

/// The Table 1 ring's transient is converged, not merely accepted: each
/// step's Newton solve starts from the solution extrapolated through the
/// last accepted points, so at default options the full N2.4-6D ring
/// measures within 1e-5 (relative) of the same ring solved at
/// `reltol = 1e-7` (measured 1.7e-7), at no more than 1.05 Newton
/// iterations per accepted step (measured 1.006). Started from the last
/// point instead, it reads 9.5e-4 off at 1.94 iterations per step.
#[test]
fn table1_ring_meets_a_tight_tolerance_solve_at_one_newton_iteration_per_step() {
    let g = generator();
    let params = RingOscParams::default();
    let follower = g.generate(&"N1.2-12D".parse().unwrap());
    let pair = g.generate(&"N2.4-6D".parse().unwrap());
    let run = |opts: Options| ring_transient(&params, &pair, &follower, &opts).unwrap();
    let default = run(Options::default());
    let tight = run(Options::default().reltol(1e-7));
    let f = ring_frequency(default.wave()).unwrap().frequency;
    let f_ref = ring_frequency(tight.wave()).unwrap().frequency;
    let rel = (f / f_ref - 1.0).abs();
    assert!(
        rel <= 1e-5,
        "{f:.9e} Hz vs {f_ref:.9e} Hz at reltol 1e-7: {rel:.2e}"
    );
    let per_step = default.newton_iterations() as f64 / default.accepted_steps() as f64;
    assert!(
        per_step <= 1.05,
        "{per_step:.3} Newton iterations per accepted step"
    );
}

/// The full Fig. 10 flow: a netlist whose BJT models are named after
/// shapes gets regenerated and still simulates.
#[test]
fn fig10_flow_annotates_netlist_end_to_end() {
    let deck = "\
        .model N1.2-6D NPN (IS=1e-16)\n\
        VCC vcc 0 5\n\
        RB vcc b 470k\n\
        RC vcc c 1k\n\
        Q1 c b 0 N1.2-6D\n";
    let mut ckt = ahfic_spice::parse::parse_netlist(deck).unwrap();
    let reports = ahfic_geom::flow::annotate_circuit(&mut ckt, &generator());
    assert_eq!(reports.len(), 1);
    // Placeholder card replaced with a full geometry-aware one.
    let m = &ckt.bjt_models[0];
    assert!(m.rb > 0.0 && m.cje > 0.0 && m.tf > 0.0);
    let prep = ahfic_spice::circuit::Prepared::compile(&ckt).unwrap();
    let op = ahfic_spice::analysis::Session::new(prep.clone())
        .op()
        .unwrap();
    let q = ahfic_spice::analysis::bjt_operating(&prep, &op.x, &Options::default(), "Q1").unwrap();
    assert!(q.ic > 1e-4 && q.ic < 5e-3, "ic = {:.3e}", q.ic);
}

/// Monte-Carlo process variation shifts generated fT but keeps it in the
/// technology band.
#[test]
fn process_variation_produces_plausible_spread() {
    let shape: TransistorShape = "N1.2-12D".parse().unwrap();
    let mut sampler = ProcessSampler::new(ProcessData::default(), MaskRules::default(), 0.08, 11);
    let opts = Options::default();
    let mut fts = Vec::new();
    for _ in 0..5 {
        let model = sampler.sample_model(&shape);
        let p = ahfic_spice::measure::ft_at_bias(&model, 3.0, 1.5e-3, &opts).unwrap();
        fts.push(p.ft);
    }
    let lo = fts.iter().cloned().fold(f64::MAX, f64::min);
    let hi = fts.iter().cloned().fold(f64::MIN, f64::max);
    assert!(lo > 1e9 && hi < 15e9, "spread {lo:.3e}..{hi:.3e}");
    assert!(hi / lo > 1.01, "variation should actually move fT");
}
