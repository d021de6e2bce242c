//! Prints a bit-exact fingerprint of every analysis on three decks, so
//! two builds can be compared for bit-identical results.
//!
//! One line per deck, analysis and [`SolverChoice`]:
//!
//! ```text
//! <deck> <analysis> <solver> <fnv1a-64 hash> n=<values hashed>
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
//! `qbx`/`cbx`, which the `bjt.qbx_cbx` lines hash on their own.
//!
//! Compare two builds on the same machine (libm's `pow` and `exp` may
//! round differently across platforms):
//!
//! ```text
//! cargo run --release -p ahfic-bench --bin bit_fingerprint > after.txt
//! diff before.txt after.txt
//! ```

use ahfic_bench::standard_generator;
use ahfic_rf::mixer_tl::{build_hartley_mixer, measure_irr_transistor_db, HartleyMixerParams};
use ahfic_rf::ringosc::{build_ring_oscillator, RingOscParams};
use ahfic_spice::analysis::{bjt_operating, Options, PssParams, Session, SolverChoice, TranParams};
use ahfic_spice::circuit::{Circuit, ElementKind};
use ahfic_spice::error::Result;
use ahfic_spice::parse::parse_netlist;
use ahfic_spice::wave::Waveform;

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

    /// Axis, then every signal in registration order.
    fn wave(&mut self, w: &Waveform) -> Result<()> {
        self.all(w.axis());
        for name in w.signal_names() {
            self.all(w.signal(name)?);
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

/// The 19-unknown image-rejection front end of the tuner workloads.
const TUNER_DECK: &str = "* image-rejection front end\n\
.model rfnpn NPN (BF=90 RB=120 RE=1.5 RC=25 CJE=60f CJC=40f TF=12p)\n\
VCC vcc 0 5\n\
VRF vin 0 SIN(0 10m 100meg) AC 1\n\
RB1i vcc bi 47k\nRB2i bi 0 10k\nCINi vin bi 10p\n\
RCi vcc ci 1k\nREi ei 0 220\nCEi ei 0 20p\n\
Qi ci bi ei rfnpn\n\
RB1q vcc bq 47k\nRB2q bq 0 10k\nCINq vin bq 10p\n\
RCq vcc cq 1k\nREq eq 0 220\nCEq eq 0 20p\n\
Qq cq bq eq rfnpn\n\
CPI ci oi 2p\nRPI oi 0 800\nRPQ cq oq 800\nCPQ oq 0 2p\n\
RSI oi sum 2k\nRSQ oq sum 2k\nRL sum 0 1000\n.end\n";

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

/// Runs one analysis and prints its line; a failed analysis prints its
/// error instead of a hash.
fn report(
    deck: &str,
    analysis: &str,
    solver: SolverChoice,
    run: impl FnOnce(&mut Fingerprint) -> Result<()>,
) {
    let mut fp = Fingerprint::new();
    match run(&mut fp) {
        Ok(()) => println!(
            "{deck} {analysis} {solver:?} {:016x} n={}",
            fp.hash, fp.count
        ),
        Err(e) => println!("{deck} {analysis} {solver:?} error: {e}"),
    }
}

fn fingerprint_deck(deck: &Deck, solver: SolverChoice) -> Result<()> {
    let opts = Options::new().solver(solver).threads(1);
    let sess = Session::compile(&deck.circuit)?.with_options(opts.clone());
    let name = deck.name;
    let op = match sess.op() {
        Ok(op) => op,
        Err(e) => {
            println!("{name} op {solver:?} error: {e}");
            return Ok(());
        }
    };
    report(name, "op", solver, |fp| {
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
    report(name, "bjt", solver, |fp| {
        for q in &bjts {
            let b = bjt_operating(sess.prepared(), op.x(), &opts, q)?;
            fp.all(&[
                b.vbe, b.vbc, b.ic, b.ib, b.ie, b.it, b.ibe, b.ibc, b.gpi, b.gmu, b.gmf, b.gmr,
                b.qb, b.qbe, b.qbc, b.qcs, b.cbe, b.cbe_bc, b.cbc, b.ccs, b.rbb,
            ]);
        }
        Ok(())
    });
    report(name, "bjt.qbx_cbx", solver, |fp| {
        for q in &bjts {
            let b = bjt_operating(sess.prepared(), op.x(), &opts, q)?;
            fp.all(&[b.qbx, b.cbx]);
        }
        Ok(())
    });
    report(name, "ac", solver, |fp| {
        let ac = sess.ac(op.x(), &deck.ac_freqs)?;
        fp.all(ac.freqs());
        for unknown in &sess.prepared().unknown_names {
            for z in ac.signal(unknown)? {
                fp.all(&[z.re, z.im]);
            }
        }
        Ok(())
    });
    report(name, "noise", solver, |fp| {
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
    report(name, "tran", solver, |fp| {
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
    report(name, "pss", solver, |fp| {
        let r = sess.pss(&PssParams::new(1.0 / params.f_lo, 200))?;
        fp.wave(r.wave())?;
        fp.bits(u64::from(r.is_converged()));
        fp.bits(r.shooting_iterations);
        fp.bits(r.gmres_iterations);
        fp.bits(r.newton_iterations);
        fp.f64(r.residual);
        Ok(())
    });
    report(name, "pac", solver, |fp| {
        let irr = measure_irr_transistor_db(params, &opts)?;
        fp.all(&[irr.irr_db, irr.gain_rf_db, irr.gain_image_db]);
        Ok(())
    });
    Ok(())
}

fn main() -> Result<()> {
    for deck in decks()? {
        for solver in [
            SolverChoice::Dense,
            SolverChoice::Sparse,
            SolverChoice::Auto,
        ] {
            if let Err(e) = fingerprint_deck(&deck, solver) {
                println!("{} compile {solver:?} error: {e}", deck.name);
            }
        }
    }
    Ok(())
}
