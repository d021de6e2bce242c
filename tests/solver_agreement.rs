//! Linear-solver agreement: the sparse LU against the dense reference
//! on random MNA-like systems, the linear-replay Newton path against a
//! full re-stamp, and AC and noise sweeps across thread counts, all
//! bit for bit except the LU comparison.

use ahfic_bench::TUNER_DECK;
use ahfic_num::sparse::{SparseLu, TripletBuilder};
use ahfic_num::{lu::LuFactors, Matrix};
use ahfic_spice::analysis::{OpResult, Options, Session, TranParams, TranResult};
use ahfic_spice::circuit::{Circuit, Prepared};
use ahfic_spice::parse::parse_netlist;
use ahfic_spice::wave::SourceWave;
use ahfic_spice::BjtModel;
use proptest::prelude::*;

// Thin shims over [`Session`] — the primary analysis entry point —
// preserving this suite's free-function call shape.
fn op(prep: &Prepared, opts: &Options) -> ahfic_spice::error::Result<OpResult> {
    Session::new(prep.clone()).with_options(opts.clone()).op()
}
fn ac_sweep(
    prep: &Prepared,
    x_op: &[f64],
    opts: &Options,
    freqs: &[f64],
) -> ahfic_spice::error::Result<ahfic_spice::wave::AcWaveform> {
    Session::new(prep.clone())
        .with_options(opts.clone())
        .ac(x_op, freqs)
}
fn tran(
    prep: &Prepared,
    opts: &Options,
    params: &TranParams,
) -> ahfic_spice::error::Result<ahfic_spice::wave::Waveform> {
    Session::new(prep.clone())
        .with_options(opts.clone())
        .tran(params)
        .map(TranResult::into_wave)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sparse LU (factor and numeric refactor) agrees with the dense
    /// solver to 1e-10 on random diagonally-augmented MNA-like matrices:
    /// a conductance ladder plus random two-node couplings, stamped
    /// symmetrically the way the assembler does.
    #[test]
    fn sparse_lu_matches_dense_on_mna_like_systems(
        gvals in proptest::collection::vec(0.05f64..2.0, 48),
        picks in proptest::collection::vec(0usize..24, 48),
        rhs in proptest::collection::vec(-5.0f64..5.0, 24),
    ) {
        let n = 24;
        let mut entries: Vec<(usize, usize, f64)> = Vec::new();
        let stamp = |e: &mut Vec<(usize, usize, f64)>, a: usize, b: usize, g: f64| {
            e.push((a, a, g));
            e.push((b, b, g));
            e.push((a, b, -g));
            e.push((b, a, -g));
        };
        for (k, &g) in gvals.iter().enumerate().take(n - 1) {
            stamp(&mut entries, k, k + 1, g);
        }
        for (j, pair) in picks.chunks(2).enumerate() {
            if pair[0] != pair[1] {
                stamp(&mut entries, pair[0], pair[1], gvals[n - 1 + j]);
            }
        }
        // Diagonal augmentation: every node gets a gmin-style path so the
        // system is nonsingular even if the couplings leave an island.
        for k in 0..n {
            entries.push((k, k, 1e-3));
        }

        let mut tb = TripletBuilder::new(n);
        for &(r, c, _) in &entries {
            tb.add(r, c);
        }
        let (mut csc, slots) = tb.compile::<f64>();
        let mut dense = Matrix::<f64>::zeros(n, n);
        for (k, &(r, c, v)) in entries.iter().enumerate() {
            csc.values_mut()[slots[k]] += v;
            dense.add_at(r, c, v);
        }

        let mut sparse = SparseLu::factor(&csc).unwrap();
        let dense_lu = LuFactors::factor(dense.clone()).unwrap();
        let mut xs = rhs.clone();
        sparse.solve_in_place(&mut xs);
        let xd = dense_lu.solve(&rhs);
        for k in 0..n {
            let tol = 1e-10 * xd[k].abs().max(1.0);
            prop_assert!((xs[k] - xd[k]).abs() < tol, "x[{k}]: {} vs {}", xs[k], xd[k]);
        }

        // New values, frozen pattern: the numeric refactor must agree too.
        csc.clear_values();
        dense.clear();
        for (k, &(r, c, v)) in entries.iter().enumerate() {
            let v2 = if r == c { 2.0 * v } else { 0.5 * v };
            csc.values_mut()[slots[k]] += v2;
            dense.add_at(r, c, v2);
        }
        sparse.refactor(&csc).unwrap();
        let dense_lu = LuFactors::factor(dense).unwrap();
        let mut xs = rhs.clone();
        sparse.solve_in_place(&mut xs);
        let xd = dense_lu.solve(&rhs);
        for k in 0..n {
            let tol = 1e-10 * xd[k].abs().max(1.0);
            prop_assert!((xs[k] - xd[k]).abs() < tol, "refactor x[{k}]: {} vs {}", xs[k], xd[k]);
        }
    }
}

/// Randomized RLC + BJT amplifier chain for replay agreement tests:
/// `muls` perturbs every passive around its nominal value, `stages`
/// sets the chain depth. Stages get collector LC tanks; with two or
/// more stages the first two tank inductors are mutually coupled.
fn replay_test_circuit(muls: &[f64], stages: usize) -> Prepared {
    let mut c = Circuit::new();
    let vcc = c.node("vcc");
    let vin = c.node("vin");
    c.vsource("VCC", vcc, Circuit::gnd(), 5.0);
    c.vsource_wave(
        "VIN",
        vin,
        Circuit::gnd(),
        SourceWave::Sin {
            offset: 0.0,
            ampl: 5e-3,
            freq: 200e6,
            delay: 0.0,
            damping: 0.0,
            phase_deg: 0.0,
        },
    );
    c.set_ac("VIN", 1.0, 0.0).unwrap();
    let mut m = BjtModel::named("rnpn");
    m.bf = 80.0;
    m.rb = 90.0;
    m.re = 1.2;
    m.rc = 18.0;
    m.cje = 50e-15;
    m.cjc = 30e-15;
    m.tf = 10e-12;
    let mi = c.add_bjt_model(m);
    let dm = c.add_diode_model(ahfic_spice::DiodeModel::default());

    let mut drive = vin;
    for i in 0..stages {
        let f = &muls[8 * i..8 * i + 8];
        let b = c.node(&format!("b{i}"));
        let col = c.node(&format!("c{i}"));
        let e = c.node(&format!("e{i}"));
        let tank = c.node(&format!("t{i}"));
        c.resistor(&format!("RB1_{i}"), vcc, b, 47e3 * f[0]);
        c.resistor(&format!("RB2_{i}"), b, Circuit::gnd(), 10e3 * f[1]);
        c.capacitor(&format!("CIN{i}"), drive, b, 10e-12 * f[2]);
        c.resistor(&format!("RC{i}"), vcc, col, 1e3 * f[3]);
        c.resistor(&format!("RE{i}"), e, Circuit::gnd(), 220.0 * f[4]);
        c.capacitor(&format!("CE{i}"), e, Circuit::gnd(), 20e-12 * f[5]);
        c.bjt(&format!("Q{i}"), col, b, e, mi, 1.0);
        // Collector LC tank plus a normally-reverse-biased clamp diode.
        c.inductor(&format!("LT{i}"), col, tank, 50e-9 * f[6]);
        c.capacitor(&format!("CT{i}"), tank, Circuit::gnd(), 5e-12 * f[7]);
        c.resistor(&format!("RT{i}"), tank, Circuit::gnd(), 5e3);
        c.diode(&format!("DC{i}"), col, vcc, dm, 1.0);
        drive = col;
    }
    if stages >= 2 {
        c.mutual("K1", "LT0", "LT1", 0.2);
    }
    Prepared::compile(&c).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The linear-replay Newton path must be bit-identical to the full
    /// re-stamp path: same stamp order, same baseline values, so every
    /// op/AC/transient result matches to the last ULP.
    #[test]
    fn linear_replay_is_bit_identical_to_full_restamp(
        muls in proptest::collection::vec(0.5f64..2.0, 24),
        stages in 1u32..4,
    ) {
        let prep = replay_test_circuit(&muls, stages as usize);
        let on = Options::new().linear_replay(true);
        let off = Options::new().linear_replay(false);

        let r_on = op(&prep, &on).unwrap();
        let r_off = op(&prep, &off).unwrap();
        prop_assert_eq!(r_on.iterations, r_off.iterations);
        for (a, b) in r_on.x.iter().zip(&r_off.x) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }

        let freqs = [1e6, 100e6, 1e9];
        let w_on = ac_sweep(&prep, &r_on.x, &on, &freqs).unwrap();
        let w_off = ac_sweep(&prep, &r_off.x, &off, &freqs).unwrap();
        for name in &prep.unknown_names {
            let son = w_on.signal(name).unwrap();
            let soff = w_off.signal(name).unwrap();
            for (a, b) in son.iter().zip(soff) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }

        let params = TranParams::new(10e-9, 0.1e-9);
        let t_on = tran(&prep, &on, &params).unwrap();
        let t_off = tran(&prep, &off, &params).unwrap();
        prop_assert_eq!(t_on.axis().len(), t_off.axis().len());
        for (a, b) in t_on.axis().iter().zip(t_off.axis()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for name in &prep.unknown_names {
            let son = t_on.signal(name).unwrap();
            let soff = t_off.signal(name).unwrap();
            for (a, b) in son.iter().zip(soff) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}

/// One common-emitter stage on the tuner deck's transistor card: 10
/// unknowns, with the card's base, emitter and collector resistances.
const CE_STAGE_DECK: &str = "* common-emitter stage\n\
.model rfnpn NPN (BF=90 RB=120 RE=1.5 RC=25 CJE=60f CJC=40f TF=12p)\n\
VCC vcc 0 5\n\
VRF vin 0 DC 0 AC 1\n\
RB1 vcc b 47k\nRB2 b 0 10k\nCIN vin b 10p\n\
RC vcc c 1k\nRE e 0 220\nCE e 0 20p\n\
Q1 c b e rfnpn\n.end\n";

/// The bits of an AC sweep of every unknown (one entry per complex
/// value, real and imaginary part) and of the noise totals at `out`,
/// over 60 log-spaced points from 10 MHz to 1 GHz.
fn sweep_bits(deck: &str, out: &str, threads: usize) -> (Vec<[u64; 2]>, Vec<u64>) {
    let ckt = parse_netlist(deck).expect("deck parses");
    let sess = Session::compile(&ckt)
        .expect("deck compiles")
        .with_options(Options::new().threads(threads));
    let op = sess.op().expect("operating point");
    let freqs = ahfic_num::interp::logspace(10e6, 1e9, 60);
    let ac = sess.ac(op.x(), &freqs).expect("ac sweep");
    let mut ac_bits = Vec::new();
    for name in &sess.prepared().unknown_names {
        for z in ac.signal(name).expect("unknown recorded") {
            ac_bits.push([z.re.to_bits(), z.im.to_bits()]);
        }
    }
    let out = ckt.find_node(out).expect("noise output node");
    let noise = sess.noise(op.x(), out, &freqs).expect("noise sweep");
    let noise_bits = noise.iter().map(|p| p.output_density().to_bits()).collect();
    (ac_bits, noise_bits)
}

/// AC and noise sweeps give the same bits at 1, 2, 3 and 7 threads,
/// whatever the deck's size: every frequency point refactors on the
/// first point's pivot order, however the points are split across
/// workers, so no result depends on the host's core count.
#[test]
fn ac_and_noise_sweeps_are_bit_identical_at_any_thread_count() {
    for (name, deck, out, unknowns) in [
        ("tuner", TUNER_DECK, "sum", 19),
        ("ce_stage", CE_STAGE_DECK, "c", 10),
    ] {
        let n = Session::compile(&parse_netlist(deck).expect("deck parses"))
            .expect("deck compiles")
            .prepared()
            .num_unknowns;
        assert_eq!(n, unknowns, "{name} unknowns");
        let (ac_one, noise_one) = sweep_bits(deck, out, 1);
        for threads in [2, 3, 7] {
            let (ac, noise) = sweep_bits(deck, out, threads);
            let ac_moved = ac.iter().zip(&ac_one).filter(|(a, b)| a != b).count();
            let noise_moved = noise.iter().zip(&noise_one).filter(|(a, b)| a != b).count();
            assert_eq!(
                (ac_moved, noise_moved),
                (0, 0),
                "{name} at {threads} threads against 1: {ac_moved} of {} AC values \
                 and {noise_moved} of {} noise totals changed bits",
                ac.len(),
                noise.len()
            );
        }
    }
}
