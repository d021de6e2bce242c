//! Physics-anchored checks: each case compares a simulation against a
//! closed-form answer derived here and states its tolerance with the
//! reason it holds. The one exception is periodic small-signal analysis
//! on linear time-invariant circuits, which is compared with AC; AC is
//! itself held to the series-RLC closed form here.

mod common;

use ahfic_ahdl::blocks::filter::FilterChain;
use ahfic_num::Complex;
use ahfic_rf::image_rejection::{irr_analytic_db, measure_irr_db};
use ahfic_rf::mixer_tl::{measure_irr_transistor_db, HartleyMixerParams};
use ahfic_rf::plan::FrequencyPlan;
use ahfic_rf::tuner::{ImageRejectionErrors, TunerConfig};
use ahfic_spice::analysis::noise::{KB, Q};
use ahfic_spice::analysis::{bjt_operating, Options, PacParams, PssParams, Session, TranParams};
use ahfic_spice::circuit::Circuit;
use ahfic_spice::devices::junction::VT_300K;
use ahfic_spice::wave::SourceWave;
use ahfic_spice::{BjtModel, DiodeModel};
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
    c.vsource_wave("V1", vin, Circuit::gnd(), unit_step());
    c.resistor("R1", vin, out, r);
    c.capacitor("C1", out, Circuit::gnd(), cap);
    let worst = worst_step_error(&c, tau, "v(out)", None);
    assert!(worst < 1e-5, "worst |v - (1 - e^(-t/RC))| = {worst:.3e} V");
}

/// RL step response: a 1 V step across `R` in series with `L` to ground
/// drives the current `i(t) = (1 − e^(−tR/L))/R`, so the resistor's
/// voltage `v(in) − v(mid)` follows `1 − e^(−t/τ)` with `τ = L/R`. The
/// inductor's companion model is the capacitor's dual, so the RC case's
/// error budget holds term for term at `τ = 1 µs` (measured 6.0e-7 V,
/// as for RC), and so does its 1e-5 V tolerance. A wrong inductance, a
/// first-order inductor companion or a lost flux history fails it.
#[test]
fn rl_step_response_matches_exponential() {
    let (r, l) = (1e3, 1e-3);
    let tau = l / r;
    let mut c = Circuit::new();
    let vin = c.node("in");
    let mid = c.node("mid");
    c.vsource_wave("V1", vin, Circuit::gnd(), unit_step());
    c.resistor("R1", vin, mid, r);
    c.inductor("L1", mid, Circuit::gnd(), l);
    let worst = worst_step_error(&c, tau, "v(in)", Some("v(mid)"));
    assert!(
        worst < 1e-5,
        "worst |v_R - (1 - e^(-tR/L))| = {worst:.3e} V"
    );
}

/// A 0 → 1 V step with a 1 ps rise, held for the whole run.
fn unit_step() -> SourceWave {
    SourceWave::Pulse {
        v1: 0.0,
        v2: 1.0,
        delay: 0.0,
        rise: 1e-12,
        fall: 1e-12,
        width: 1.0,
        period: 0.0,
    }
}

/// Runs `c` for 5τ at steps of at most τ/200 and returns the worst
/// deviation of `v(plus) − v(minus)` (`minus` = `None` for ground) from
/// `1 − e^(−t/τ)`.
fn worst_step_error(c: &Circuit, tau: f64, plus: &str, minus: Option<&str>) -> f64 {
    let sess = Session::compile(c).expect("step circuit compiles");
    let wave = sess
        .tran(&TranParams::new(5.0 * tau, tau / 200.0))
        .expect("step transient")
        .into_wave();
    let ts = wave.axis();
    assert!(ts.len() > 1000, "only {} samples", ts.len());
    let vp = wave.signal(plus).expect("plus node");
    let vn = minus.map(|n| wave.signal(n).expect("minus node"));
    let mut worst = 0.0f64;
    for (k, &t) in ts.iter().enumerate() {
        let v = vp[k] - vn.map_or(0.0, |vn| vn[k]);
        worst = worst.max((v - (1.0 - (-t / tau).exp())).abs());
    }
    worst
}

/// Series RLC from a 1 V AC source, output across `R`:
/// `H = R / (R + j(ωL − 1/(ωC)))`. At `f0 = 1/(2π√(LC))` the reactances
/// cancel, so `H = 1` at zero phase. With `Q = √(L/C)/R` the reactance
/// equals `±R` at the half-power frequencies
/// `f± = f0·(√(1 + 1/(4Q²)) ± 1/(2Q))`, where `H = (1 ∓ j)/2`: magnitude
/// `1/√2`, phase `∓45°`. AC solves one complex linear system per
/// frequency, so only rounding separates it from these values
/// (measured at most 2.2e-16); the tolerance is 1e-9, far below the
/// error of a wrongly scaled inductor or capacitor stamp (scaling the
/// inductor's AC stamp by `1 + 10⁻⁶` moves `H(f−)` by 5e-7).
#[test]
fn series_rlc_resonance_and_half_power_points_match_closed_form() {
    let (r, l, cap) = SERIES_RLC;
    let f0 = 1.0 / (2.0 * std::f64::consts::PI * (l * cap).sqrt());
    let q = (l / cap).sqrt() / r;
    let root = (1.0 + 1.0 / (4.0 * q * q)).sqrt();
    let (f_lo, f_hi) = (f0 * (root - 0.5 / q), f0 * (root + 0.5 / q));
    let mut c = series_rlc();
    c.set_ac("VIN", 1.0, 0.0).expect("VIN exists");
    let sess = Session::compile(&c).expect("rlc compiles");
    let op = sess.op().expect("rlc op");
    let ac = sess.ac(op.x(), &[f_lo, f0, f_hi]).expect("rlc ac");
    let h = ac.signal("v(out)").expect("v(out)");
    let want = [
        Complex::new(0.5, 0.5),
        Complex::ONE,
        Complex::new(0.5, -0.5),
    ];
    for ((f, &got), want) in [f_lo, f0, f_hi].iter().zip(h).zip(want) {
        assert!(
            (got - want).abs() < 1e-9,
            "{f:.6e} Hz: H = {got:?}, closed form {want:?}"
        );
    }
}

/// `R`, `L` and `C` of the series RLC band-pass of the AC and PAC
/// checks: 5 µH and 1 nF resonate at 2.25 MHz, and 50 Ω gives `Q = √2`.
const SERIES_RLC: (f64, f64, f64) = (50.0, 5e-6, 1e-9);

/// The series RLC band-pass, output across `R`. The source is 0 V: AC
/// sets its magnitude, PAC its tone.
fn series_rlc() -> Circuit {
    let (r, l, cap) = SERIES_RLC;
    let mut c = Circuit::new();
    let inp = c.node("in");
    let mid = c.node("mid");
    let out = c.node("out");
    c.vsource_wave("VIN", inp, Circuit::gnd(), SourceWave::Dc(0.0));
    c.inductor("L1", inp, mid, l);
    c.capacitor("C1", mid, out, cap);
    c.resistor("R1", out, Circuit::gnd(), r);
    c
}

/// PAC on a linear time-invariant circuit, whose "LO" does nothing: the
/// conversion gain at `f_out = f_in` is the AC transfer at `f_in`. The
/// recurrence integrates 256 trapezoidal steps per 1 µs period, whose
/// frequency warping at 2 MHz is about `(ωh)²/12 ≈ 2e-4` relative, so
/// PAC meets AC to 1e-3 relative (measured 6.0e-4 on the RLC, whose
/// phase is steepest near resonance). Returns the PAC gain and the AC
/// transfer at `f_in`, and checks that PAC restored the source's
/// waveform.
fn lti_pac_vs_ac(c: &Circuit, source: &str, f_in: f64) -> (Complex, Complex) {
    let mut sess = Session::compile(c).expect("lti circuit compiles");
    let pac = sess
        .pac(
            &PssParams::new(1e-6, 256),
            &PacParams::new(source, "v(out)", [f_in], f_in),
        )
        .expect("lti pac");
    assert_eq!(
        sess.prepared().circuit.source_wave(source),
        c.source_wave(source)
    );
    let mut ac_ckt = c.clone();
    ac_ckt.set_ac(source, 1.0, 0.0).expect("source exists");
    let ac_sess = Session::compile(&ac_ckt).expect("lti circuit compiles");
    let op = ac_sess.op().expect("lti op");
    let ac = ac_sess.ac(op.x(), &[f_in]).expect("lti ac");
    // The input is sin(ωt) = Im e^{jωt}: the phasor convention of the
    // projection turns an AC transfer H into H·e^{−jπ/2}.
    let h = ac.signal("v(out)").expect("v(out)")[0] * Complex::new(0.0, -1.0);
    (pac.gains[0], h)
}

/// PAC of an RC low-pass meets AC to 1e-3 relative (see
/// [`lti_pac_vs_ac`]), for a voltage input and for its Norton form,
/// whose current input stamps the unit source into node rows.
#[test]
fn pac_linear_circuit_reproduces_ac_transfer() {
    let mut c = Circuit::new();
    let inp = c.node("in");
    let out = c.node("out");
    c.vsource_wave("VIN", inp, Circuit::gnd(), SourceWave::Dc(0.0));
    c.resistor("R1", inp, out, 1e3);
    c.capacitor("C1", out, Circuit::gnd(), 1e-9);
    let (g, h) = lti_pac_vs_ac(&c, "VIN", 2e6);
    assert!((g - h).abs() < 1e-3 * h.abs(), "pac {g:?} vs ac {h:?}");

    let mut c = Circuit::new();
    let out = c.node("out");
    c.isource_wave("IIN", Circuit::gnd(), out, SourceWave::Dc(0.0));
    c.resistor("R1", out, Circuit::gnd(), 1e3);
    c.capacitor("C1", out, Circuit::gnd(), 1e-9);
    let (g, h) = lti_pac_vs_ac(&c, "IIN", 2e6);
    assert!((g - h).abs() < 1e-3 * h.abs(), "pac {g:?} vs ac {h:?}");
}

/// PAC of the series RLC driven near its resonance meets AC to 1e-3
/// relative; the inductor's flux enters through its branch row. Taking
/// the period integrator's inductor companion on the first step instead
/// of backward Euler misses AC by 0.8 %.
#[test]
fn pac_linear_rlc_reproduces_ac_transfer() {
    let c = series_rlc();
    let (g, h) = lti_pac_vs_ac(&c, "VIN", 2e6);
    assert!((g - h).abs() < 1e-3 * h.abs(), "pac {g:?} vs ac {h:?}");
}

/// Any input tone is legal: 1.37 MHz completes no whole number of
/// cycles in any window of whole 1 µs periods, yet the boundary-value
/// solve gives its steady state in one period and the projection of
/// `δy·e^{−jω·t}`, periodic in the LO period, leaks nothing. PAC of the
/// series RLC there meets AC to 1e-3 relative (measured 2.1e-4).
#[test]
fn pac_rlc_meets_ac_at_a_tone_off_the_lo_harmonics() {
    let (g, h) = lti_pac_vs_ac(&series_rlc(), "VIN", 1.37e6);
    assert!((g - h).abs() < 1e-3 * h.abs(), "pac {g:?} vs ac {h:?}");
}

/// Thermal noise of a divider: a node fed through `R1` from an ideal
/// (noiseless) source and loaded by `R2` to ground sees the two
/// generators `4kT/R1` and `4kT/R2` through the impedance `R1 ∥ R2`, so
/// its noise density is `4kT·(R1 ∥ R2)` at every frequency, with `T`
/// the temperature of `Options::vt`. The analysis solves one linear
/// system per generator, so only rounding separates it from the closed
/// form: 1e-9 relative, and the two frequencies agree to 1e-30 V²/Hz
/// (the density is 2e-17 V²/Hz).
#[test]
fn resistor_divider_noise_matches_4ktr_parallel() {
    let mut c = Circuit::new();
    let a = c.node("a");
    let o = c.node("o");
    c.vsource("V1", a, Circuit::gnd(), 1.0);
    c.resistor("R1", a, o, 2e3);
    c.resistor("R2", o, Circuit::gnd(), 3e3);
    let sess = Session::compile(&c).expect("divider compiles");
    let op = sess.op().expect("divider op");
    let pts = sess.noise(op.x(), o, &[1e3, 1e6]).expect("divider noise");
    let r_par = 2e3 * 3e3 / 5e3;
    let temp_k = sess.options().vt / (KB / Q);
    let expect = 4.0 * KB * temp_k * r_par;
    for p in &pts {
        assert!(
            (p.output_density() - expect).abs() / expect < 1e-9,
            "{} vs {expect}",
            p.output_density()
        );
    }
    assert!((pts[0].output_density() - pts[1].output_density()).abs() < 1e-30);
}

/// Thermal noise of `R ∥ C`: the resistor's `4kT/R` sees the impedance
/// `R/(1 + jf/f_p)`, so the density falls as `1/(1 + (f/f_p)²)` above
/// the pole `f_p = 1/(2πRC)`. The ratio of the density at `10·f_p` to
/// that at `f_p/100` is exactly `(1 + 10⁻⁴)/101`. The analysis solves
/// one complex linear system per frequency, so only rounding separates
/// it from that value (measured 4e-18 on a ratio of 0.0099); the
/// tolerance is 1e-9 relative. A capacitor stamp scaled by `1 + 10⁻⁶`
/// moves the ratio by 2e-6 relative and fails it.
#[test]
fn capacitor_rolls_off_resistor_noise() {
    let mut c = Circuit::new();
    let o = c.node("o");
    c.resistor("R1", o, Circuit::gnd(), 10e3);
    c.capacitor("C1", o, Circuit::gnd(), 1e-9);
    let sess = Session::compile(&c).expect("rc compiles");
    let op = sess.op().expect("rc op");
    let f_pole = 1.0 / (2.0 * std::f64::consts::PI * 10e3 * 1e-9);
    let pts = sess
        .noise(op.x(), o, &[f_pole / 100.0, 10.0 * f_pole])
        .expect("rc noise");
    let ratio = pts[1].output_density() / pts[0].output_density();
    let exact = (1.0 + 1e-4) / 101.0;
    assert!(
        (ratio / exact - 1.0).abs() < 1e-9,
        "ratio {ratio} vs {exact}"
    );
}

/// Shockley operating point: a source `V` drives a diode through `R`,
/// so the diode voltage `v` solves the KCL
/// `(V − v)/R = IS·(e^(v/(N·VT)) − 1) + GMIN·v`. Its left side falls and
/// its right side rises with `v`, so it has one root in `(0, V)`, found
/// here by bisection to the last bit. The operating point's convergence
/// test accepts a last Newton update `δ` of up to
/// `reltol·v + vntol ≈ 0.7 mV`; Newton on the exponential converges
/// quadratically, so the accepted iterate lies within
/// `δ²/(2·N·VT) ≈ 9e-6 V` of the root, and the tolerance is 2e-5 V
/// (measured 1.1e-8 V). An `IS` off by 1 % moves the root by
/// `N·VT·ln 1.01 ≈ 0.26 mV` and fails it.
#[test]
fn diode_operating_point_solves_shockley_kcl() {
    let (v_src, r) = (5.0, 1e3);
    let model = DiodeModel::named("d");
    let opts = Options::new();
    let mut c = Circuit::new();
    let a = c.node("a");
    let d = c.node("d");
    c.vsource("V1", a, Circuit::gnd(), v_src);
    c.resistor("R1", a, d, r);
    let m = c.add_diode_model(model.clone());
    c.diode("D1", d, Circuit::gnd(), m, 1.0);
    let sess = Session::compile(&c).expect("diode loop compiles");
    let op = sess.op().expect("diode op");
    let v = sess.prepared().voltage(op.x(), d);

    let nvt = model.n * opts.vt;
    let kcl = |v: f64| (v_src - v) / r - model.is_ * ((v / nvt).exp() - 1.0) - opts.gmin * v;
    // 100 halvings of 5 V end on two adjacent doubles.
    let (mut lo, mut hi) = (0.0, v_src);
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if kcl(mid) > 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    assert!(v > 0.6 && v < 0.8, "v(d) = {v} V");
    assert!((v - lo).abs() < 2e-5, "v(d) = {v} V vs root {lo} V");
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

/// Common-emitter small-signal gain: the base is driven by `DC + AC 1`,
/// `RC` loads the collector and `RE` degenerates the emitter. The
/// hybrid-π model with `gm = Ic/VT` and `gπ = Ib/VT` gives
/// `ib = gπ·vbe`, `ic = gm·vbe` and `ve = (gm + gπ)·vbe·RE`, so
/// `v(c)/v(b) = −gm·RC / (1 + (gm + gπ)·RE)`. On the ideal card (no
/// Early, knee or leakage terms, no parasitic R or C) the reference
/// neglects only the gmin conductances across both junctions and the
/// reverse junction's `IS/BR` current. At `Ic ≈ 0.81 mA` and
/// `VBC ≈ −2.5 V` they move `gm` by `(IS/BR + |VBC|·GMIN)/Ic ≈ 3e-9`
/// relative, move `gπ` by 2e-7 relative, which the gain sees only
/// through `gπ·RE/(1 + (gm + gπ)·RE) < 1e-2`, and load the collector
/// through `GMIN·RC = 2e-9`. The tolerance is 1e-6 relative (measured
/// 4.6e-9). A 0.1 % error in the device's AC transconductance moves the
/// gain by 2.5e-4 relative and fails it.
#[test]
fn common_emitter_gain_matches_hybrid_pi_reference() {
    let (vcc, vb, rc, re) = (5.0, 0.85, 2e3, 100.0);
    let mut c = Circuit::new();
    let supply = c.node("vcc");
    let b = c.node("b");
    let col = c.node("c");
    let e = c.node("e");
    c.vsource("VCC", supply, Circuit::gnd(), vcc);
    c.vsource("VB", b, Circuit::gnd(), vb);
    c.set_ac("VB", 1.0, 0.0).expect("VB exists");
    c.resistor("RC", supply, col, rc);
    c.resistor("RE", e, Circuit::gnd(), re);
    let model = c.add_bjt_model(BjtModel::named("ideal"));
    c.bjt("Q1", col, b, e, model, 1.0);
    let sess = Session::compile(&c).expect("common-emitter stage compiles");
    let op = sess.op().expect("forward-active op");
    let vt = sess.options().vt;
    let q = bjt_operating(sess.prepared(), op.x(), sess.options(), "Q1").expect("Q1");
    assert!(
        q.ic > 1e-4 && q.vbc < -1.0,
        "ic = {:e} A, vbc = {} V",
        q.ic,
        q.vbc
    );
    let (gm, gpi) = (q.ic / vt, q.ib / vt);
    let want = -gm * rc / (1.0 + (gm + gpi) * re);
    let ac = sess.ac(op.x(), &[1e3]).expect("common-emitter ac");
    let gain = ac.signal("v(c)").expect("v(c)")[0] / ac.signal("v(b)").expect("v(b)")[0];
    let err = (gain - Complex::new(want, 0.0)).abs() / want.abs();
    assert!(
        err < 1e-6,
        "gain {gain:?} vs hybrid-π {want}: {err:e} relative"
    );
}

/// Sine-driven RC lowpass: the PSS orbit's fundamental must match the
/// phasor solution `H = 1/(1 + jωRC)`, i.e. `|H| = 1/√(1+(ωRC)²)` and
/// `∠H = −atan(ωRC)`. Shooting starts from the DC point with no warmup,
/// so the orbit comes from the GMRES shooting update. Tolerance:
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

/// RC low-pass driven by a 0/1 V square wave of 50 % duty: over each
/// half period `T/2` the capacitor relaxes towards the source with
/// `τ = RC`, so the periodic orbit rises from `v_L` to `v_H` and decays
/// back, with `v_H = 1/(1 + r)` and `v_L = r/(1 + r)`, `r = e^{−T/2τ}`.
/// The PULSE source's corners are merged into the PSS grid, and the
/// predicted Newton start restarts at each. Its 1 ps edges put the
/// effective steps at mid-edge, which the closed form below follows;
/// the ramps themselves move the orbit by under 1e-6 V. Trapezoidal
/// integration at 200 steps per period (`h = τ/100`) has a global error
/// of about `(h/τ)²/12 · (t/τ)·e^{−t/τ}` of the 0.46 V swing, under
/// 2e-6 V, so 1e-5 V holds with margin (measured 1.9e-6 V). A grid
/// without the corners at 1 ps and `T/2` + 1 ps smears each edge over a
/// 10 ns step and misses by 5.7e-3 V.
#[test]
fn pulse_driven_rc_pss_matches_the_square_wave_orbit() {
    let (r, cap, period, edge) = (1e3, 1e-9, 2e-6, 1e-12);
    let tau = r * cap;
    let mut c = Circuit::new();
    let vin = c.node("vin");
    let out = c.node("out");
    c.vsource_wave(
        "VIN",
        vin,
        Circuit::gnd(),
        SourceWave::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 0.0,
            rise: edge,
            fall: edge,
            width: period / 2.0 - edge,
            period,
        },
    );
    c.resistor("R1", vin, out, r);
    c.capacitor("C1", out, Circuit::gnd(), cap);
    let sess = Session::compile(&c).expect("rc compiles");
    let pss = sess
        .pss(&PssParams::new(period, 200).warmup_periods(0))
        .expect("pulse rc pss");
    assert!(pss.is_converged(), "{:?}", pss.status());

    let ratio = (-period / (2.0 * tau)).exp();
    let (v_high, v_low) = (1.0 / (1.0 + ratio), ratio / (1.0 + ratio));
    let orbit = |t: f64| {
        let s = (t - edge / 2.0).rem_euclid(period);
        if s < period / 2.0 {
            1.0 - (1.0 - v_low) * (-s / tau).exp()
        } else {
            v_high * (-(s - period / 2.0) / tau).exp()
        }
    };
    let w = pss.wave();
    let v = w.signal("v(out)").expect("v(out)");
    // The grid carries the corners at 1 ps, T/2 and T/2 + 1 ps.
    assert_eq!(w.axis().len(), 203);
    let worst = w
        .axis()
        .iter()
        .zip(v)
        .map(|(&t, &v)| (v - orbit(t)).abs())
        .fold(0.0f64, f64::max);
    assert!(worst < 1e-5, "orbit off the closed form by {worst:e} V");
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
            &PacParams::new("VRF", "v(c)", [f_lo + f_if, f_lo - f_if], f_if),
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

/// Transistor-level Fig. 5: the Hartley mixer (two BJT mixing cells on
/// quadrature LOs, unloaded ±45° IF networks, a transconductance summer
/// that weights the Q arm by `1 + gain error`) is the ideal two-path
/// structure the closed form `irr_analytic_db(p, g)` describes, so its
/// IRR by PSS + PAC must meet it. Measured within 0.0014 dB at the
/// points of EXPERIMENTS.md's transistor-level table, with no drift on
/// finer time grids; the tolerance is 0.05 dB, and the wanted sideband
/// must convert with more gain than the image.
#[test]
fn ten_degree_error_matches_the_analytic_curve() {
    for (phase, gain) in [(10.0, 0.0), (2.0, 0.0), (10.0, 0.05)] {
        let params = HartleyMixerParams::default()
            .phase_error_deg(phase)
            .gain_error(gain);
        let r = measure_irr_transistor_db(&params, &Options::new()).expect("mixer pac");
        let analytic = irr_analytic_db(phase, gain);
        assert!(
            (r.irr_db - analytic).abs() < 0.05,
            "{phase}°/{gain}: transistor {:.4} dB vs analytic {analytic:.4} dB ({r:?})",
            r.irr_db
        );
        assert!(r.gain_rf_db > r.gain_image_db);
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
