//! Prints a bit-exact fingerprint of every analysis on three decks, and
//! of the behavioral simulator on the paper's systems, so two builds can
//! be compared for bit-identical results.
//!
//! One line per deck and analysis, then one per behavioral system and
//! case:
//!
//! ```text
//! <deck> <analysis> <fnv1a-64 hash> n=<values hashed>
//! parse <fnv1a-64 hash> n=<values hashed>
//! ahdl <system> <case> <fnv1a-64 hash> n=<values hashed>
//! ```
//!
//! The hash is FNV-1a over the `f64::to_bits` of every result value (and
//! every count) in a fixed signal order: unknowns in compile order, then
//! frequency or time. `Debug` output is never hashed, since the waveform
//! types index their signals through a `HashMap`.
//!
//! Decks: the Table 1 ring oscillator (its full 30 ns transient at
//! 2.5 ps), the 19-unknown image-rejection front end the tuner
//! workloads serve, and the transistor-level Hartley mixer, which adds
//! a PSS of its LO orbit and its image-rejection ratio by PSS + PAC.
//! The `bjt` lines hash every BJT's operating record except
//! `qbx`/`cbx`, which the `bjt.qbx_cbx` lines hash on their own. The
//! `mixer fig5_tl` line hashes the four transistor-level Fig. 5 IRRs,
//! the `tank pss` line the PSS of two coupled LC tanks, the one
//! fingerprinted orbit through inductors, and `tank tran` their
//! transient from initial conditions. The `rect pss` line is a diode
//! rectifier whose period integrator bisects grid intervals under a
//! Newton cap, and `pulse pss` an RC driven by a PULSE square wave,
//! whose corners are merged into the PSS grid.
//! The analyses run at one thread; AC and noise give the same bits at
//! any thread count.
//!
//! The `parse` line parses a fixed corpus of 4,096 seeded mutations of
//! the parser fuzz's seed decks ([`ahfic_bench::fuzz`]) and hashes,
//! per text, the [`DeckKey`] of the parsed circuit under
//! [`LintPolicy::Deny`] and every element's netlist line, or the parse
//! error's message.
//!
//! The `yield lanes=8` and `yield lanes=1` lines run one Monte-Carlo
//! yield study (1,000 samples, 5 % open-R1 defects, one thread) through
//! the lane engine at 8 lanes and at 1: every sample's IRR, the
//! statistics, and each failed sample's index and error.
//!
//! Behavioral systems: every net of the single-channel image-rejection
//! tuner (wanted and image tone, two impairment sets), of the
//! conventional tuner, of the PLL and of a netlist with a compiled AHDL
//! module, each hashed in net-name order; then the `measure_irr_db` bits
//! of the 50 Fig. 5 points.
//!
//! Compare two builds on the same machine (libm's `pow` and `exp` may
//! round differently across platforms):
//!
//! ```text
//! cargo run --release -p ahfic-bench --bin bit_fingerprint > after.txt
//! diff before.txt after.txt
//! ```

use ahfic::yield_mc::YieldStudy;
use ahfic_ahdl::netlist::load_system;
use ahfic_ahdl::probe::Trace;
use ahfic_ahdl::system::System;
use ahfic_bench::fuzz::mutated_corpus;
use ahfic_bench::{standard_generator, TUNER_DECK};
use ahfic_rf::image_rejection::fig5_sweep;
use ahfic_rf::mixer_tl::{build_hartley_mixer, measure_irr_transistor_db, HartleyMixerParams};
use ahfic_rf::plan::FrequencyPlan;
use ahfic_rf::pll::{build_pll, suggested_fs, PllConfig};
use ahfic_rf::ringosc::{build_ring_oscillator, RingOscParams};
use ahfic_rf::tuner::{
    build_conventional_tuner, build_image_rejection_tuner, drive_rf, ImageRejectionErrors,
    TunerConfig,
};
use ahfic_spice::analysis::{bjt_operating, BatchMode, Options, PssParams, Session, TranParams};
use ahfic_spice::cache::DeckKey;
use ahfic_spice::circuit::{Circuit, ElementKind};
use ahfic_spice::error::Result;
use ahfic_spice::lint::LintPolicy;
use ahfic_spice::parse::parse_netlist;
use ahfic_spice::wave::{SourceWave, Waveform};
use ahfic_spice::DiodeModel;

/// FNV-1a (64-bit) over the bit patterns of the values pushed.
struct Fingerprint {
    hash: u64,
    count: usize,
}

impl Fingerprint {
    fn new() -> Self {
        Fingerprint {
            hash: 0xcbf2_9ce4_8422_2325,
            count: 0,
        }
    }

    fn bits(&mut self, bits: u64) {
        for byte in bits.to_le_bytes() {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.count += 1;
    }

    fn f64(&mut self, v: f64) {
        self.bits(v.to_bits());
    }

    fn all(&mut self, vs: &[f64]) {
        for &v in vs {
            self.f64(v);
        }
    }

    fn text(&mut self, s: &str) {
        for byte in s.bytes() {
            self.bits(u64::from(byte));
        }
    }

    /// Axis, then every signal in registration order.
    fn wave(&mut self, w: &Waveform) -> Result<()> {
        self.all(w.axis());
        for name in w.signal_names() {
            self.all(w.signal(name)?);
        }
        Ok(())
    }

    /// A PSS run: its orbit, whether it converged, its iteration counts
    /// and its final residual.
    fn pss(
        &mut self,
        sess: &Session,
        params: &PssParams,
    ) -> std::result::Result<(), Box<dyn std::error::Error>> {
        let r = sess.pss(params)?;
        self.wave(r.wave())?;
        self.bits(u64::from(r.is_converged()));
        self.bits(r.shooting_iterations);
        self.bits(r.gmres_iterations);
        self.bits(r.newton_iterations);
        self.f64(r.residual);
        Ok(())
    }

    /// Every net of a behavioral trace in name order, so the order in
    /// which a builder interns its nets does not move the line.
    fn nets(&mut self, trace: &Trace) -> ahfic_ahdl::error::Result<()> {
        let mut names = trace.names().to_vec();
        names.sort();
        for name in &names {
            self.all(trace.signal(name)?);
        }
        Ok(())
    }
}

/// One deck under test and the analyses it runs.
struct Deck {
    name: &'static str,
    circuit: Circuit,
    /// Output node of the noise analysis.
    noise_out: &'static str,
    ac_freqs: Vec<f64>,
    tran: TranParams,
    /// The mixer bench: PSS on its LO orbit, and its image-rejection
    /// ratio by one PAC call over both sidebands.
    mixer: Option<HartleyMixerParams>,
}

/// `n` log-spaced frequencies from `lo` to `hi`.
fn log_freqs(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|k| lo * (hi / lo).powf(k as f64 / (n - 1) as f64))
        .collect()
}

fn decks() -> Result<Vec<Deck>> {
    let ring_params = RingOscParams::default();
    let card = standard_generator().generate(&"N1.2-12D".parse().expect("valid shape code"));
    let (ring, _, _) = build_ring_oscillator(&ring_params, &card, &card);

    let tuner = parse_netlist(TUNER_DECK)?;

    let mixer_params = HartleyMixerParams::default();
    let (mixer, _, _) = build_hartley_mixer(&mixer_params);
    let lo_period = 1.0 / mixer_params.f_lo;

    Ok(vec![
        Deck {
            name: "ring",
            circuit: ring,
            noise_out: "op4",
            ac_freqs: log_freqs(1e6, 1e10, 25),
            tran: TranParams::new(ring_params.t_stop, ring_params.dt_max),
            mixer: None,
        },
        Deck {
            name: "tuner",
            circuit: tuner,
            noise_out: "sum",
            ac_freqs: log_freqs(10e6, 1e9, 60),
            tran: TranParams::new(50e-9, 0.2e-9),
            mixer: None,
        },
        Deck {
            name: "mixer",
            circuit: mixer,
            noise_out: "ifout",
            ac_freqs: log_freqs(1e5, 1e8, 25),
            tran: TranParams::new(5.0 * lo_period, lo_period / 200.0),
            mixer: Some(mixer_params),
        },
    ])
}

/// Two 1 MHz LC tanks (Q ≈ 20), capacitively coupled and driven through
/// a source resistor: the coupled tanks of `tests/pss_agreement.rs`.
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
    c.inductor("L1", t1, Circuit::gnd(), 25.33e-6);
    c.capacitor("C1", t1, Circuit::gnd(), 1e-9);
    c.resistor("RP1", t1, Circuit::gnd(), 3.2e3);
    c.capacitor("CC", t1, t2, 50e-12);
    c.inductor("L2", t2, Circuit::gnd(), 25.33e-6);
    c.capacitor("C2", t2, Circuit::gnd(), 1e-9);
    c.resistor("RP2", t2, Circuit::gnd(), 3.2e3);
    c
}

/// Half-wave diode rectifier into an RC load, driven at 1 MHz through
/// the diode's 1 kΩ series resistance.
fn rectifier() -> Circuit {
    let mut c = Circuit::new();
    let a = c.node("a");
    let out = c.node("out");
    c.vsource_wave(
        "V1",
        a,
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
    let dm = c.add_diode_model(DiodeModel {
        rs: 1e3,
        ..Default::default()
    });
    c.diode("D1", a, out, dm, 1.0);
    c.capacitor("C1", out, Circuit::gnd(), 2e-9);
    c.resistor("RL", out, Circuit::gnd(), 1e3);
    c
}

/// An RC low-pass (τ = 1 µs) driven by a 0/1 V square wave of period
/// 2 µs and 50 % duty, with 1 ps edges.
fn pulse_rc() -> Circuit {
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
            rise: 1e-12,
            fall: 1e-12,
            width: 1e-6 - 1e-12,
            period: 2e-6,
        },
    );
    c.resistor("R1", vin, out, 1e3);
    c.capacitor("C1", out, Circuit::gnd(), 1e-9);
    c
}

/// Runs one analysis and prints its line; a failed analysis prints its
/// error instead of a hash.
fn report(
    label: &str,
    run: impl FnOnce(&mut Fingerprint) -> std::result::Result<(), Box<dyn std::error::Error>>,
) {
    let mut fp = Fingerprint::new();
    match run(&mut fp) {
        Ok(()) => println!("{label} {:016x} n={}", fp.hash, fp.count),
        Err(e) => println!("{label} error: {e}"),
    }
}

fn fingerprint_deck(deck: &Deck) -> Result<()> {
    let opts = Options::new().threads(1);
    let sess = Session::compile(&deck.circuit)?.with_options(opts.clone());
    let name = deck.name;
    let op = match sess.op() {
        Ok(op) => op,
        Err(e) => {
            println!("{name} op error: {e}");
            return Ok(());
        }
    };
    report(&format!("{name} op"), |fp| {
        fp.all(op.x());
        fp.bits(op.iterations() as u64);
        Ok(())
    });
    let bjts: Vec<String> = deck
        .circuit
        .elements()
        .iter()
        .filter(|el| matches!(el.kind, ElementKind::Bjt { .. }))
        .map(|el| el.name.clone())
        .collect();
    report(&format!("{name} bjt"), |fp| {
        for q in &bjts {
            let b = bjt_operating(sess.prepared(), op.x(), &opts, q)?;
            fp.all(&[
                b.vbe, b.vbc, b.ic, b.ib, b.ie, b.it, b.ibe, b.ibc, b.gpi, b.gmu, b.gmf, b.gmr,
                b.qb, b.qbe, b.qbc, b.qcs, b.cbe, b.cbe_bc, b.cbc, b.ccs, b.rbb,
            ]);
        }
        Ok(())
    });
    report(&format!("{name} bjt.qbx_cbx"), |fp| {
        for q in &bjts {
            let b = bjt_operating(sess.prepared(), op.x(), &opts, q)?;
            fp.all(&[b.qbx, b.cbx]);
        }
        Ok(())
    });
    report(&format!("{name} ac"), |fp| {
        let ac = sess.ac(op.x(), &deck.ac_freqs)?;
        fp.all(ac.freqs());
        for unknown in &sess.prepared().unknown_names {
            for z in ac.signal(unknown)? {
                fp.all(&[z.re, z.im]);
            }
        }
        Ok(())
    });
    report(&format!("{name} noise"), |fp| {
        let out = deck
            .circuit
            .find_node(deck.noise_out)
            .expect("noise output node exists");
        for pt in sess.noise(op.x(), out, &deck.ac_freqs)? {
            fp.all(&[pt.freq(), pt.output_density()]);
            for c in pt.contributions() {
                fp.f64(c.output_density());
            }
        }
        Ok(())
    });
    report(&format!("{name} tran"), |fp| {
        let r = sess.tran(&deck.tran)?;
        fp.wave(r.wave())?;
        fp.bits(r.accepted_steps());
        fp.bits(r.rejected_steps());
        fp.bits(r.newton_iterations());
        Ok(())
    });
    let Some(params) = &deck.mixer else {
        return Ok(());
    };
    report(&format!("{name} pss"), |fp| {
        fp.pss(&sess, &PssParams::new(1.0 / params.f_lo, 200))
    });
    report(&format!("{name} pac"), |fp| {
        let irr = measure_irr_transistor_db(params, &opts)?;
        fp.all(&[irr.irr_db, irr.gain_rf_db, irr.gain_image_db]);
        Ok(())
    });
    Ok(())
}

/// A compiled AHDL module with `idt`, `ddt`, `delay` and a branch, wired
/// among the built-in kinds the tuners and the PLL leave out.
const MODULE_NETLIST: &str = "
    module shaper(x, y, z) {
        input x; output y, z;
        parameter real k = 0.5;
        analog {
            real v = V(x);
            if (v > k) { V(y) <- k; } else { V(y) <- v; }
            V(z) <- idt(v, 0.1) * 1e7 + delay(v, 3e-9) + ddt(v) * 1e-10;
        }
    }
    system fingerprint {
        S1 : sine(freq=37e6, ampl=1.0, phase_deg=30, offset=0.1) -> (a);
        N1 : noise(rms=0.01, seed=7) -> (n);
        C1 : constant(value=0.25) -> (c);
        ADD : adder(n=3) (a, n, c) -> (x);
        SH : shaper(k=0.8) (x) -> (y, z);
        LIM : limiter(limit=0.7) (y) -> (yl);
        SOFT : softlimiter(limit=0.5) (z) -> (zs);
        POLY : poly(a1=1.0, a2=0.1, a3=-0.05) (yl) -> (p);
        LP : lp1(fc=50e6) (p) -> (lp);
        BW : butterworth(order=3, fc=80e6) (zs) -> (bw);
        BP : bandpass(f0=40e6, bw=10e6, sections=2) (x) -> (bp);
        PS : phase90(f0=37e6) (bp) -> (ps);
        PSE : phase90err(f0=37e6, phase_err_deg=2.0, gain_err=0.01) (bp) -> (pse);
        VCO : vco(f0=20e6, kvco=5e6) (lp) -> (v);
        MIX : mixer(k=2.0) (v, bw) -> (m);
        G : gain(k=0.5) (m) -> (out);
    }";

/// The `parse` line (see the module docs).
fn fingerprint_parse() {
    report("parse", |fp| {
        for text in mutated_corpus(1996, 4096) {
            match parse_netlist(&text) {
                Ok(c) => {
                    fp.text(&DeckKey::of(&c, LintPolicy::Deny).to_string());
                    for idx in 0..c.elements().len() {
                        fp.bits(c.element_line(idx).map_or(u64::MAX, |l| l as u64));
                    }
                }
                Err(e) => fp.text(&e.to_string()),
            }
        }
        Ok(())
    });
}

/// The `yield` lines (see the module docs).
fn fingerprint_lanes() {
    let study = YieldStudy {
        samples: 1000,
        open_defect_prob: 0.05,
        ..YieldStudy::paper_example(0.02)
    };
    for lanes in [8, 1] {
        report(&format!("yield lanes={lanes}"), |fp| {
            let opts = Options::new().batch(BatchMode::Lanes(lanes)).threads(1);
            let r = study.run_with_options(opts)?;
            fp.all(&r.irr_db);
            fp.all(&[r.yield_frac, r.mean_db, r.p5_db]);
            fp.bits(r.non_finite as u64);
            for f in &r.failures {
                fp.bits(f.index as u64);
                fp.text(&f.error.to_string());
            }
            Ok(())
        });
    }
}

/// The behavioral simulator's lines (see the module docs).
fn fingerprint_behavioral() {
    let plan = FrequencyPlan::catv(500e6);
    let cfg = TunerConfig::for_plan(&plan);
    let tones = [("wanted", plan.rf_wanted), ("image", plan.rf_image())];
    let impairments = [
        ("2deg_3pct", 2.0, 0.03, 0.0),
        ("10deg_9pct_ps1.5deg", 10.0, 0.09, 1.5),
    ];
    for (case, lo_phase_err_deg, gain_err, shifter_phase_err_deg) in impairments {
        let errors = ImageRejectionErrors {
            lo_phase_err_deg,
            gain_err,
            shifter_phase_err_deg,
        };
        for (tone, f) in tones {
            report(&format!("ahdl irr_tuner {case}_{tone}"), |fp| {
                let mut sys = System::new();
                let nets = build_image_rejection_tuner(&mut sys, &plan, &cfg, &errors)?;
                drive_rf(&mut sys, &nets, "RFSRC", f, 1.0)?;
                Ok(fp.nets(&sys.run(cfg.fs, 2e-6)?)?)
            });
        }
    }
    for (tone, f) in tones {
        report(&format!("ahdl conventional_tuner {tone}"), |fp| {
            let mut sys = System::new();
            let nets = build_conventional_tuner(&mut sys, &plan, &cfg)?;
            drive_rf(&mut sys, &nets, "RFSRC", f, 1.0)?;
            Ok(fp.nets(&sys.run(cfg.fs, 2e-6)?)?)
        });
    }
    report("ahdl pll demo", |fp| {
        let pll = PllConfig::demo();
        let mut sys = System::new();
        build_pll(&mut sys, &pll)?;
        Ok(fp.nets(&sys.run(suggested_fs(&pll), 200e-6)?)?)
    });
    report("ahdl netlist module", |fp| {
        let fs = 1e9;
        Ok(fp.nets(&load_system(MODULE_NETLIST, fs)?.run(fs, 2e-6)?)?)
    });
    report("ahdl fig5 measure_irr_db", |fp| {
        let phases = [0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0];
        let gains = [0.01, 0.03, 0.05, 0.07, 0.09];
        for pt in fig5_sweep(&plan, &cfg, &phases, &gains, Some(2e-6))? {
            fp.f64(pt.simulated_db);
        }
        Ok(())
    });
}

fn main() -> Result<()> {
    for deck in decks()? {
        if let Err(e) = fingerprint_deck(&deck) {
            println!("{} compile error: {e}", deck.name);
        }
    }
    report("mixer fig5_tl", |fp| {
        for (phase, gain) in [(2.0, 0.0), (5.0, 0.0), (10.0, 0.0), (10.0, 0.05)] {
            let params = HartleyMixerParams::default()
                .phase_error_deg(phase)
                .gain_error(gain);
            fp.f64(measure_irr_transistor_db(&params, &Options::new())?.irr_db);
        }
        Ok(())
    });
    report("tank pss", |fp| {
        let sess = Session::compile(&coupled_tank())?.with_options(Options::new().threads(1));
        fp.pss(&sess, &PssParams::new(1e-6, 512).warmup_periods(0))
    });
    report("tank tran", |fp| {
        let sess = Session::compile(&coupled_tank())?.with_options(Options::new().threads(1));
        let r = sess.tran(&TranParams::new(5e-6, 1e-6 / 200.0).with_uic())?;
        fp.wave(r.wave())?;
        fp.bits(r.accepted_steps());
        fp.bits(r.rejected_steps());
        fp.bits(r.newton_iterations());
        Ok(())
    });
    report("rect pss", |fp| {
        let opts = Options::new().threads(1).max_newton(5);
        let sess = Session::compile(&rectifier())?.with_options(opts);
        fp.pss(&sess, &PssParams::new(1e-6, 16))
    });
    report("pulse pss", |fp| {
        let sess = Session::compile(&pulse_rc())?.with_options(Options::new().threads(1));
        fp.pss(&sess, &PssParams::new(2e-6, 200).warmup_periods(0))
    });
    fingerprint_parse();
    fingerprint_lanes();
    fingerprint_behavioral();
    Ok(())
}
