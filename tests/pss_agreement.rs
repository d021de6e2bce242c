//! Shooting-Newton periodic steady state pinned against brute-force
//! transient ring-down.
//!
//! The PSS engine finds the periodic orbit directly; the ring-down
//! reference is the same circuit integrated long enough for every
//! natural time constant to die out. The two must land on the same
//! waveform — sample-for-sample for the stiff rectifier (1 mV) and for
//! the weakly-damped coupled tank on the transient's own grid, and in
//! fundamental amplitude for the tank (0.1 dB). The PSS-against-physics
//! check (a driven RC vs its phasor solution) lives in
//! `tests/analytic.rs`. The last test pins the shooting engine's cost on
//! the transistor-level Fig. 5 mixer.

mod common;

use ahfic_rf::mixer_tl::{build_hartley_mixer, HartleyMixerParams};
use ahfic_spice::analysis::{PssParams, Session, TranParams};
use ahfic_spice::circuit::Circuit;
use ahfic_spice::wave::SourceWave;
use ahfic_spice::DiodeModel;
use common::{fundamental_phasor, sample_at};

/// Half-wave rectifier whose ring-down time constant (RL·CL = 2 µs)
/// spans many drive periods.
fn rectifier() -> Circuit {
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
    c
}

/// Two starts of the same orbit: the default warmup periods, and none,
/// so that shooting begins at the operating point and the Newton–Krylov
/// update alone must carry the orbit to the ring-down.
#[test]
fn rectifier_pss_matches_ringdown_transient_to_a_millivolt() {
    let period = 1e-6;
    let sess = Session::compile(&rectifier()).expect("rectifier compiles");

    // 40 µs = 20 ring-down time constants: the transient's last period
    // is periodic to far below the comparison tolerance.
    let t_stop = 40e-6;
    let tran = sess
        .tran(&TranParams::new(t_stop, 2e-9))
        .expect("rectifier transient")
        .into_wave();
    let ts = tran.axis();
    let vt = tran.signal("v(out)").expect("transient v(out)");

    for params in [
        PssParams::new(period, 256),
        PssParams::new(period, 256).warmup_periods(0),
    ] {
        let pss = sess.pss(&params).expect("rectifier pss");
        assert!(pss.is_converged(), "{params:?}: {:?}", pss.status());
        let grid = pss.wave().axis();
        let vp = pss.wave().signal("v(out)").expect("pss v(out)");
        let mut worst = 0.0f64;
        for (k, &t) in grid.iter().enumerate() {
            let reference = sample_at(ts, vt, t_stop - period + t);
            worst = worst.max((vp[k] - reference).abs());
        }
        assert!(
            worst < 1e-3,
            "{params:?}: PSS vs ring-down worst error {worst:.2e} V"
        );
    }
}

/// Two capacitively-coupled 1 MHz LC tanks (Q ≈ 20 each), driven
/// through a source resistor — the weakly-damped oscillatory deck where
/// shooting-Newton earns its keep: the ring-down reference needs tens
/// of periods to settle, the shooting iteration a handful of orbits.
fn coupled_tank() -> Circuit {
    let mut c = Circuit::new();
    let vin = c.node("vin");
    let t1 = c.node("t1");
    let t2 = c.node("t2");
    c.vsource_wave(
        "VIN",
        vin,
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
    c.resistor("RS", vin, t1, 10e3);
    // f0 = 1/(2*pi*sqrt(LC)) = 1 MHz; Rp/(w0*L) sets Q = 20.
    let l = 25.33e-6;
    let cap = 1e-9;
    c.inductor("L1", t1, Circuit::gnd(), l);
    c.capacitor("C1", t1, Circuit::gnd(), cap);
    c.resistor("RP1", t1, Circuit::gnd(), 3.2e3);
    c.capacitor("CC", t1, t2, 50e-12);
    c.inductor("L2", t2, Circuit::gnd(), l);
    c.capacitor("C2", t2, Circuit::gnd(), cap);
    c.resistor("RP2", t2, Circuit::gnd(), 3.2e3);
    c
}

#[test]
fn coupled_tank_pss_amplitude_matches_ringdown_within_tenth_db() {
    let period = 1e-6;
    let freq = 1e6;
    let sess = Session::compile(&coupled_tank()).expect("tank compiles");
    let pss = sess
        .pss(&PssParams::new(period, 512).warmup_periods(0))
        .expect("tank pss");
    assert!(pss.is_converged(), "{:?}", pss.status());

    // Tank ring-down tau = 2Q/w0 ~ 6.4 us; 60 us ~ 9 tau leaves the
    // startup transient ~40 dB below the 0.1 dB comparison floor.
    let t_stop = 60e-6;
    let tran = sess
        .tran(&TranParams::new(t_stop, 2e-9))
        .expect("tank transient")
        .into_wave();

    for node in ["v(t1)", "v(t2)"] {
        let a_pss = fundamental_phasor(pss.wave(), node, freq, 0.0, period).abs();
        let a_ring = fundamental_phasor(&tran, node, freq, t_stop - 4.0 * period, t_stop).abs();
        let delta_db = 20.0 * (a_pss / a_ring).log10();
        assert!(
            delta_db.abs() < 0.1,
            "{node}: PSS {a_pss:.6} V vs ring-down {a_ring:.6} V ({delta_db:+.4} dB)"
        );
    }
}

/// The coupled tanks' PSS orbit on 512 steps per period against a
/// transient on the same uniform grid, rung down for 80 periods (12.5
/// tank time constants): both take trapezoidal steps, except the
/// period's backward-Euler first step, so every node voltage and
/// inductor current meets the transient's last period to 1e-3 of its
/// amplitude (measured 5.9e-4). An inductor whose first step applied its
/// trapezoidal companion at `a = 1/h`, a trapezoidal step of length
/// `2h`, would double the first current increment of every period and
/// miss by 0.9–2.3 %.
#[test]
fn coupled_tank_pss_orbit_matches_a_same_grid_transient() {
    let period = 1e-6;
    let steps = 512;
    let sess = Session::compile(&coupled_tank()).expect("tank compiles");
    let pss = sess
        .pss(&PssParams::new(period, steps).warmup_periods(0))
        .expect("tank pss");
    assert!(pss.is_converged(), "{:?}", pss.status());
    let h = period / steps as f64;
    let mut params = TranParams::new(80.0 * period, h);
    params.dt_init = Some(h);
    let tran = sess.tran(&params).expect("tank transient");
    let ts = tran.wave().axis();
    assert_eq!(
        ts.len(),
        80 * steps + 1,
        "the transient keeps the uniform grid"
    );
    let last = ts.len() - 1 - steps;
    for name in ["v(t1)", "v(t2)", "i(L1)", "i(L2)"] {
        let orbit = pss.wave().signal(name).expect("pss signal");
        let ring = &tran.wave().signal(name).expect("transient signal")[last..];
        let amplitude = ring.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let worst = orbit
            .iter()
            .zip(ring)
            .fold(0.0f64, |m, (p, t)| m.max((p - t).abs()));
        assert!(
            worst < 1e-3 * amplitude,
            "{name}: PSS vs transient worst {worst:.3e} of amplitude {amplitude:.3e}"
        );
    }
}

/// Cost of the transistor-level Fig. 5 mixer's PSS. Each period's Newton
/// solves start from the transient's predicted solution: 1.515 Newton
/// iterations per grid step over the two warmup periods and the
/// integration of each shooting iteration (bound 1.6). The shooting
/// update takes exact products on the linearized orbit: 2 GMRES
/// iterations per update, and no other period integration. Started from
/// the last point, with finite-difference products, the same call took
/// 3 GMRES iterations and 5.68 Newton iterations per grid step of those
/// periods (3.25 per step of the seven periods it integrated).
#[test]
fn hartley_mixer_pss_takes_few_newton_and_gmres_iterations() {
    let params = HartleyMixerParams::default();
    let (mixer, _, _) = build_hartley_mixer(&params);
    let sess = Session::compile(&mixer).expect("mixer compiles");
    let pss_params = PssParams::new(1.0 / params.f_lo, 200);
    let pss = sess.pss(&pss_params).expect("mixer pss");
    assert!(pss.is_converged(), "{:?}", pss.status());
    let periods = pss_params.warmup_periods as u64 + pss.shooting_iterations;
    let grid_steps = (pss.wave().len() - 1) as u64;
    let per_step = pss.newton_iterations as f64 / (periods * grid_steps) as f64;
    assert!(
        per_step <= 1.6,
        "{per_step:.3} Newton iterations per grid step over {periods} periods"
    );
    let updates = pss.shooting_iterations - 1;
    assert!(updates >= 1, "converged without a shooting update");
    assert!(
        pss.gmres_iterations <= 2 * updates,
        "{} GMRES iterations over {updates} shooting updates",
        pss.gmres_iterations
    );
}
