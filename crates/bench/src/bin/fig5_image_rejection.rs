//! Regenerates the paper's Fig. 5: image-rejection ratio vs phase error,
//! gain balance 1–9 % as the curve parameter (AHDL simulation vs closed
//! form).

use ahfic_rf::image_rejection::{fig5_sweep, irr_analytic_db, max_phase_error_for_irr};
use ahfic_rf::mixer_tl::{measure_irr_transistor_db, HartleyMixerParams};
use ahfic_rf::plan::FrequencyPlan;
use ahfic_rf::tuner::TunerConfig;
use ahfic_spice::analysis::Options;

fn main() {
    let plan = FrequencyPlan::catv(500e6);
    let cfg = TunerConfig::for_plan(&plan);
    let phase_errors = [0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0];
    let gain_errors = [0.01, 0.03, 0.05, 0.07, 0.09];

    println!("# Fig. 5: AHDL simulation result of the image rejection tuner");
    println!("# IRR [dB] vs quadrature phase error; series = gain balance");
    print!("{:>11}", "phase [deg]");
    for g in gain_errors {
        print!("{:>10.0}%", g * 100.0);
    }
    println!("{:>12}", "(analytic 1%)");

    let pts = fig5_sweep(&plan, &cfg, &phase_errors, &gain_errors, Some(2e-6)).expect("fig5 sweep");
    for (pi, &p) in phase_errors.iter().enumerate() {
        print!("{p:>11.2}");
        for gi in 0..gain_errors.len() {
            print!("{:>11.2}", pts[gi * phase_errors.len() + pi].simulated_db);
        }
        println!("{:>12.2}", pts[pi].analytic_db);
    }

    println!();
    println!(
        "# max |sim - analytic| over the sweep: {:.3} dB",
        pts.iter()
            .map(|p| (p.simulated_db - p.analytic_db).abs())
            .fold(0.0f64, f64::max)
    );
    println!("# designer lookup: for 30 dB required IRR ->");
    for g in gain_errors {
        match max_phase_error_for_irr(30.0, g) {
            Some(e) => println!(
                "#   gain {:.0}%: phase error must stay below {e:.2} deg",
                g * 100.0
            ),
            None => println!("#   gain {:.0}%: 30 dB unreachable", g * 100.0),
        }
    }

    println!();
    println!("# transistor-level Hartley mixer (shooting PSS + PAC conversion gain)");
    println!(
        "# {:>11} {:>7} {:>16} {:>13} {:>10}",
        "phase [deg]", "gain", "transistor [dB]", "analytic [dB]", "delta"
    );
    for (e, g) in [(2.0, 0.0), (5.0, 0.0), (10.0, 0.0), (10.0, 0.05)] {
        let params = HartleyMixerParams::default()
            .phase_error_deg(e)
            .gain_error(g);
        let r = measure_irr_transistor_db(&params, &Options::new()).expect("mixer bench");
        let analytic = irr_analytic_db(e, g);
        println!(
            "# {e:>11.1} {:>6.0}% {:>16.4} {:>13.4} {:>+10.4}",
            g * 100.0,
            r.irr_db,
            analytic,
            r.irr_db - analytic
        );
    }
}
