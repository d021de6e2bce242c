//! Physics-anchored checks: each case compares a simulation against a
//! closed-form answer derived here, never against another run of the
//! simulator, and states its tolerance with the reason it holds.

mod common;

use ahfic_ahdl::blocks::filter::FilterChain;
use ahfic_rf::image_rejection::{irr_analytic_db, measure_irr_db};
use ahfic_rf::plan::FrequencyPlan;
use ahfic_rf::tuner::{ImageRejectionErrors, TunerConfig};
use ahfic_spice::analysis::{bjt_operating, Options, PacParams, PssParams, Session, TranParams};
use ahfic_spice::circuit::Circuit;
use ahfic_spice::devices::junction::VT_300K;
use ahfic_spice::wave::SourceWave;
use ahfic_spice::BjtModel;
use common::fundamental_phasor;

/// RC step response: a 1 V step through `R` into `C` must follow
/// `v(t) = 1 − e^(−t/RC)`. The source ramps in 1 ps (RC/10⁶), which
/// delays the response by half the ramp: an error below 1e-6 V. The
/// trapezoidal rule at `h ≤ RC/200` has a global error of about
/// `(h/RC)²/12 · (t/RC) · e^(−t/RC) < 1e-6 V`. The tolerance, 1e-5 V,
/// holds with margin; a wrong time constant, a first-order integrator
/// (an error of order `h/RC`, about 1e-3 V here) or a lost companion
/// current fails it.
#[test]
fn rc_step_response_matches_exponential() {
    let (r, cap) = (1e3, 1e-9);
    let tau = r * cap;
    let mut c = Circuit::new();
    let vin = c.node("in");
    let out = c.node("out");
    c.vsource_wave(
        "V1",
        vin,
        Circuit::gnd(),
        SourceWave::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 0.0,
            rise: 1e-12,
            fall: 1e-12,
            width: 1.0,
            period: 0.0,
        },
    );
    c.resistor("R1", vin, out, r);
    c.capacitor("C1", out, Circuit::gnd(), cap);
    let sess = Session::compile(&c).expect("rc compiles");
    let wave = sess
        .tran(&TranParams::new(5.0 * tau, tau / 200.0))
        .expect("rc transient")
        .into_wave();
    let ts = wave.axis();
    let vs = wave.signal("v(out)").expect("v(out)");
    assert!(ts.len() > 1000, "only {} samples", ts.len());
    let mut worst = 0.0f64;
    for (&t, &v) in ts.iter().zip(vs) {
        worst = worst.max((v - (1.0 - (-t / tau).exp())).abs());
    }
    assert!(worst < 1e-5, "worst |v - (1 - e^(-t/RC))| = {worst:.3e} V");
}

/// Transconductance of a forward-active BJT: with the Early voltages,
/// the knee currents and the leakage diodes all off, the Gummel–Poon
/// collector current is `IS·e^(VBE/VT)` plus `IS/BR` (the reverse
/// junction at `VBC = −1.3 V`) plus the gmin leak `1.3 V · GMIN`, so
/// `gm = dIc/dVBE = Ic/VT` to within `(IS/BR + 1.3 V · GMIN)/Ic ≈ 2e-8`
/// at `Ic ≈ 58 µA`. Two checks: the model's `gm` at the solved operating
/// point, to 1e-6 relative; and `gm` measured by central differences of
/// two more operating points 0.1 mV apart, whose truncation error is
/// `(δ/VT)²/6 ≈ 2.5e-6` relative, to 1e-5.
#[test]
fn bjt_transconductance_is_collector_current_over_vt() {
    let vbe_op = 0.7;
    let ic_at = |vbe: f64| -> (f64, f64) {
        let mut c = Circuit::new();
        let b = c.node("b");
        let col = c.node("c");
        let model = c.add_bjt_model(BjtModel::named("ideal"));
        c.vsource("VBE", b, Circuit::gnd(), vbe);
        c.vsource("VCE", col, Circuit::gnd(), 2.0);
        c.bjt("Q1", col, b, Circuit::gnd(), model, 1.0);
        let sess = Session::compile(&c).expect("bjt bench compiles");
        let op = sess.op().expect("forward-active op");
        // Current into the collector is the current out of VCE's + node.
        let ic = -op.x()[sess.prepared().branch_slot("VCE").expect("VCE branch")];
        let q = bjt_operating(sess.prepared(), op.x(), &Options::new(), "Q1").expect("Q1");
        (ic, q.gmf)
    };
    let (ic, gm_model) = ic_at(vbe_op);
    assert!(ic > 1e-5 && ic < 1e-2, "ic = {ic:e} A");
    let gm_closed = ic / VT_300K;
    assert!(
        (gm_model / gm_closed - 1.0).abs() < 1e-6,
        "model gm {gm_model:e} S vs Ic/Vt {gm_closed:e} S"
    );
    let delta = 1e-4;
    let gm_fd = (ic_at(vbe_op + delta).0 - ic_at(vbe_op - delta).0) / (2.0 * delta);
    assert!(
        (gm_fd / gm_closed - 1.0).abs() < 1e-5,
        "finite-difference gm {gm_fd:e} S vs Ic/Vt {gm_closed:e} S"
    );
}

/// Sine-driven RC lowpass: the PSS orbit's fundamental must match the
/// phasor solution `H = 1/(1 + jωRC)`, i.e. `|H| = 1/√(1+(ωRC)²)` and
/// `∠H = −atan(ωRC)`. Shooting starts from the DC point with no warmup,
/// so the orbit comes from the matrix-free GMRES update. Tolerance:
/// trapezoidal integration at 256 steps per period warps `ωRC` by
/// about `(ωh)²/12 ≈ 5e-5` relative, so 1e-3 relative in magnitude and
/// 0.05° in phase hold with margin while any wrong orbit (a shifted
/// period, a sign slip, an unconverged update) fails by far more.
#[test]
fn driven_rc_pss_matches_phasor_closed_form() {
    let (r, cap, freq) = (1e3, 200e-12, 1e6);
    let period = 1.0 / freq;
    let mut c = Circuit::new();
    let vin = c.node("vin");
    let out = c.node("out");
    c.vsource_wave(
        "VIN",
        vin,
        Circuit::gnd(),
        SourceWave::Sin {
            offset: 0.0,
            ampl: 1.0,
            freq,
            delay: 0.0,
            damping: 0.0,
            phase_deg: 0.0,
        },
    );
    c.resistor("R1", vin, out, r);
    c.capacitor("C1", out, Circuit::gnd(), cap);
    let sess = Session::compile(&c).expect("rc compiles");
    let pss = sess
        .pss(&PssParams::new(period, 256).warmup_periods(0))
        .expect("rc pss");
    assert!(pss.is_converged(), "{:?}", pss.status());
    assert!(pss.gmres_iterations > 0, "shooting never ran GMRES");

    let h = fundamental_phasor(pss.wave(), "v(out)", freq, 0.0, period)
        / fundamental_phasor(pss.wave(), "v(vin)", freq, 0.0, period);
    let wrc = 2.0 * std::f64::consts::PI * freq * r * cap;
    let mag = 1.0 / (1.0 + wrc * wrc).sqrt();
    let phase_deg = -wrc.atan().to_degrees();
    assert!(
        (h.abs() / mag - 1.0).abs() < 1e-3,
        "|H| {:.6} vs closed form {mag:.6}",
        h.abs()
    );
    assert!(
        (h.arg_deg() - phase_deg).abs() < 0.05,
        "angle H {:.4} deg vs closed form {phase_deg:.4} deg",
        h.arg_deg()
    );
}

/// Emitter-pumped BJT mixer: the LO `V_E + A·sin ωt` drives the emitter,
/// the RF reaches the base through a stiff source at `V_B`, and `R_L`
/// loads the collector. With no charges, no resistances and `VAF`
/// infinite, the collector current is `IS·e^(v_BE/VT)`, so a small base
/// signal `δv` gives `δi_C = (IS/VT)·e^((V_B − V_E)/VT)·e^(−z·sin ωt)·δv`
/// with `z = A/VT`. The `e^(−z·sin ωt)` term's fundamental is
/// `−2·I_1(z)·sin ωt` (modified Bessel function of the first kind), so
/// either sideband `f_LO ± f_IF` converts to the IF with gain
/// `R_L·(IS/VT)·e^((V_B − V_E)/VT)·I_1(z)`. The bench has no dynamics,
/// so the periodic small-signal solve meets this to within the gmin
/// leak across the collector junction (`GMIN·R_L` = 1e-9 relative); a
/// large-signal difference with a finite tone `a` would add the
/// `(a/VT)²/8` term of `I_1`'s expansion (1.9e-4 at 1 mV). Tolerance
/// 1e-6 relative on both sidebands.
#[test]
fn emitter_pumped_bjt_conversion_gain_is_bessel_i1() {
    let (vcc, rl, vb, ve, lo_ampl) = (5.0, 1e3, 0.75, 0.1, 0.1);
    let (f_lo, f_if) = (10e6, 1e6);
    let model = BjtModel::default();
    let is = model.is_;
    let mut c = Circuit::new();
    let supply = c.node("vcc");
    let bias = c.node("bb");
    let b = c.node("b");
    let col = c.node("c");
    let e = c.node("e");
    c.vsource("VCC", supply, Circuit::gnd(), vcc);
    c.resistor("RL", supply, col, rl);
    c.vsource("VB", bias, Circuit::gnd(), vb);
    c.vsource_wave("VRF", b, bias, SourceWave::Dc(0.0));
    c.vsource_wave(
        "VLO",
        e,
        Circuit::gnd(),
        SourceWave::Sin {
            offset: ve,
            ampl: lo_ampl,
            freq: f_lo,
            delay: 0.0,
            damping: 0.0,
            phase_deg: 0.0,
        },
    );
    let m = c.add_bjt_model(model);
    c.bjt("Q1", col, b, e, m, 1.0);
    let mut sess = Session::compile(&c).expect("mixer compiles");
    let pac = sess
        .pac(
            &PssParams::new(1.0 / f_lo, 200),
            &PacParams::new("VRF", "v(c)", [f_lo + f_if, f_lo - f_if], f_if).measure_periods(10),
        )
        .expect("mixer pac");
    let want = rl * is / VT_300K * ((vb - ve) / VT_300K).exp() * bessel_i1(lo_ampl / VT_300K);
    for (tone, g) in pac.gains.iter().enumerate() {
        assert!(
            (g.abs() / want - 1.0).abs() < 1e-6,
            "sideband {tone}: |gain| {:.9e} vs R_L·g0·I_1(z) {want:.9e}",
            g.abs()
        );
    }
}

/// Behavioral Fig. 5: the image-rejection ratio the AHDL tuner of Fig. 4
/// simulates equals the Hartley closed form `irr_analytic_db(p, g)` plus
/// the first-IF band-pass asymmetry `20·log10(|H(f1_if)| / |H(if1_image)|)`.
/// The band-pass is centred between the two first IFs, but its response
/// is not symmetric in linear frequency, so it passes the wanted channel
/// 0.02453 dB weaker than the image; `FilterChain::response` gives that
/// number. The 90° shifter is an all-pass, exact at the second IF both
/// channels share, so it adds nothing.
///
/// Tolerance 1e-6 dB at 2 µs (measured: at most 2.5e-10 dB). It holds
/// because the measurement window leaks nothing and nothing transient is
/// left in it:
/// - the trailing half of the run is 8,205 samples, exactly 1 µs at
///   8.205 GHz, so every mixing product, each at an integer number of
///   MHz, completes whole cycles in the window;
/// - the band-pass and all-pass transients have died out by then.
///
/// Covers the full 50-point grid on the 500 MHz plan, plus spot points
/// at 150 and 740 MHz.
#[test]
fn behavioral_irr_is_the_closed_form_plus_the_band_pass_asymmetry() {
    let phases = [0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0];
    let gains = [0.01, 0.03, 0.05, 0.07, 0.09];
    let grid = gains
        .iter()
        .flat_map(|&g| phases.iter().map(move |&p| (500e6, p, g)));
    let spots = [
        (150e6, 0.25, 0.01),
        (150e6, 10.0, 0.09),
        (740e6, 0.25, 0.01),
        (740e6, 10.0, 0.09),
    ];
    for (rf, p, g) in grid.chain(spots) {
        let plan = FrequencyPlan::catv(rf);
        let cfg = TunerConfig::for_plan(&plan);
        let center = (plan.f1_if + plan.if1_image()) / 2.0;
        let bpf = FilterChain::bandpass(center, cfg.bpf_bandwidth, cfg.bpf_sections, cfg.fs);
        let asymmetry_db = 20.0
            * (bpf.response(plan.f1_if, cfg.fs).abs()
                / bpf.response(plan.if1_image(), cfg.fs).abs())
            .log10();
        assert!((asymmetry_db + 0.02453).abs() < 1e-5, "{asymmetry_db} dB");
        let errors = ImageRejectionErrors {
            lo_phase_err_deg: p,
            gain_err: g,
            shifter_phase_err_deg: 0.0,
        };
        let simulated = measure_irr_db(&plan, &cfg, &errors, Some(2e-6)).expect("tuner runs");
        let residual = simulated - (irr_analytic_db(p, g) + asymmetry_db);
        assert!(
            residual.abs() < 1e-6,
            "{rf:e} Hz, {p}°, {g}: residual {residual:.3e} dB"
        );
    }
}

/// Modified Bessel function `I_1(z) = Σ_m (z/2)^(2m+1) / (m!·(m+1)!)`,
/// summed until the terms no longer change the sum.
fn bessel_i1(z: f64) -> f64 {
    let q = 0.25 * z * z;
    let mut term = 0.5 * z;
    let mut sum = term;
    for m in 1..200 {
        term *= q / (m * (m + 1)) as f64;
        if sum + term == sum {
            break;
        }
        sum += term;
    }
    sum
}
