//! Contract tests for the `ahfic-trace` telemetry layer: span nesting,
//! counter emission, JSON-lines serialization, and the guarantee that
//! tracing never perturbs numerical results.
//!
//! The circuit under test is a transistor-level Hartley
//! image-rejection front end.

use ahfic_spice::analysis::{Options, Session, TranParams};
use ahfic_spice::circuit::Circuit;
use ahfic_spice::trace::{InMemorySink, JsonLinesSink, NullSink, RecordKind, TraceRecord};
use ahfic_spice::wave::SourceWave;
use ahfic_spice::BjtModel;
use std::sync::Arc;

/// Transistor-level Hartley image-rejection front end: quadrature BJT
/// transconductor paths into an RC/CR phase shifter and a resistive
/// summer.
fn image_rejection_frontend() -> Circuit {
    let mut c = Circuit::new();
    let vcc = c.node("vcc");
    let vin = c.node("vin");
    c.vsource("VCC", vcc, Circuit::gnd(), 5.0);
    c.vsource_wave(
        "VRF",
        vin,
        Circuit::gnd(),
        SourceWave::Sin {
            offset: 0.0,
            ampl: 10e-3,
            freq: 100e6,
            delay: 0.0,
            damping: 0.0,
            phase_deg: 0.0,
        },
    );
    c.set_ac("VRF", 1.0, 0.0).unwrap();

    let mut m = BjtModel::named("rfnpn");
    m.bf = 90.0;
    m.rb = 120.0;
    m.re = 1.5;
    m.rc = 25.0;
    m.cje = 60e-15;
    m.cjc = 40e-15;
    m.tf = 12e-12;
    let mi = c.add_bjt_model(m);

    let path = |c: &mut Circuit, tag: &str| {
        let b = c.node(&format!("b{tag}"));
        let col = c.node(&format!("c{tag}"));
        let e = c.node(&format!("e{tag}"));
        c.resistor(&format!("RB1{tag}"), vcc, b, 47e3);
        c.resistor(&format!("RB2{tag}"), b, Circuit::gnd(), 10e3);
        c.capacitor(&format!("CIN{tag}"), vin, b, 10e-12);
        c.resistor(&format!("RC{tag}"), vcc, col, 1e3);
        c.resistor(&format!("RE{tag}"), e, Circuit::gnd(), 220.0);
        c.capacitor(&format!("CE{tag}"), e, Circuit::gnd(), 20e-12);
        c.bjt(&format!("Q{tag}"), col, b, e, mi, 1.0);
        col
    };
    let ci = path(&mut c, "i");
    let cq = path(&mut c, "q");

    let oi = c.node("oi");
    let oq = c.node("oq");
    let sum = c.node("sum");
    c.capacitor("CPI", ci, oi, 2e-12);
    c.resistor("RPI", oi, Circuit::gnd(), 800.0);
    c.resistor("RPQ", cq, oq, 800.0);
    c.capacitor("CPQ", oq, Circuit::gnd(), 2e-12);
    c.resistor("RSI", oi, sum, 2e3);
    c.resistor("RSQ", oq, sum, 2e3);
    c.resistor("RL", sum, Circuit::gnd(), 1e3);
    c
}

/// Every `SpanEnd` must close the most recent open `SpanStart` (LIFO),
/// and nothing may stay open at the end of the record stream.
fn assert_balanced(records: &[TraceRecord]) {
    let mut stack: Vec<&str> = Vec::new();
    for r in records {
        match r.kind {
            RecordKind::SpanStart => stack.push(&r.name),
            RecordKind::SpanEnd => {
                let top = stack.pop().expect("SpanEnd without an open span");
                assert_eq!(top, r.name, "spans must close LIFO");
            }
            _ => {}
        }
    }
    assert!(stack.is_empty(), "unclosed spans: {stack:?}");
}

fn counter(records: &[TraceRecord], name: &str) -> Option<f64> {
    records
        .iter()
        .filter(|r| r.kind == RecordKind::Counter && r.name == name)
        .map(|r| r.value)
        .next_back()
}

#[test]
fn op_tran_ac_spans_nest_and_counters_tick() {
    let ckt = image_rejection_frontend();
    let sink = Arc::new(InMemorySink::new());
    let sess = Session::compile(&ckt)
        .unwrap()
        .with_options(Options::new().trace(&sink));

    let dc = sess.op().unwrap();
    sess.tran(&TranParams::new(5e-9, 0.2e-9)).unwrap();
    let freqs = ahfic_num::interp::logspace(1e6, 1e9, 12);
    sess.ac(&dc.x, &freqs).unwrap();

    let recs = sink.records();
    assert_balanced(&recs);

    // One top-level span per analysis, in call order.
    let tops: Vec<&str> = {
        let mut depth = 0usize;
        let mut names = Vec::new();
        for r in &recs {
            match r.kind {
                RecordKind::SpanStart => {
                    if depth == 0 {
                        names.push(r.name.as_str());
                    }
                    depth += 1;
                }
                RecordKind::SpanEnd => depth -= 1,
                _ => {}
            }
        }
        names
    };
    assert_eq!(tops, ["op", "tran", "ac"]);

    assert!(counter(&recs, "op.newton_iterations").unwrap() > 0.0);
    assert!(counter(&recs, "op.factorizations").unwrap() > 0.0);
    assert!(counter(&recs, "tran.accepted_steps").unwrap() > 0.0);
    assert!(counter(&recs, "tran.newton_iterations").unwrap() > 0.0);
    assert_eq!(counter(&recs, "ac.points").unwrap(), freqs.len() as f64);
    assert!(counter(&recs, "ac.threads").unwrap() >= 1.0);
    assert!(counter(&recs, "ac.factorizations").unwrap() >= freqs.len() as f64);

    // Timed solver work must have accumulated real wall time.
    assert!(counter(&recs, "op.factor_seconds").unwrap() > 0.0);
}

#[test]
fn json_lines_sink_round_trips_through_serde() {
    let ckt = image_rejection_frontend();
    let json_sink = Arc::new(JsonLinesSink::buffered());
    let mem_sink = Arc::new(InMemorySink::new());
    {
        let sess = Session::compile(&ckt)
            .unwrap()
            .with_options(Options::new().trace(&json_sink));
        sess.op().unwrap();
    }
    {
        let sess = Session::compile(&ckt)
            .unwrap()
            .with_options(Options::new().trace(&mem_sink));
        sess.op().unwrap();
    }

    let text = json_sink.contents();
    let parsed: Vec<TraceRecord> = text
        .lines()
        .map(|line| serde_json::from_str(line).expect("every line is a TraceRecord"))
        .collect();
    assert!(!parsed.is_empty());
    assert_balanced(&parsed);

    // The (kind, name) sequence matches an equivalent in-memory run
    // (values are timings/iterations and may differ run to run).
    let mem = mem_sink.records();
    assert_eq!(parsed.len(), mem.len());
    for (a, b) in parsed.iter().zip(&mem) {
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.name, b.name);
    }

    // Full value-preserving round trip: parse(serialize(r)) == r.
    for r in &parsed {
        let line = serde_json::to_string(r).unwrap();
        let back: TraceRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(&back, r);
    }
}

#[test]
fn null_sink_results_are_bit_identical_to_untraced() {
    let ckt = image_rejection_frontend();
    let plain = Session::compile(&ckt).unwrap();
    let nulled = Session::compile(&ckt)
        .unwrap()
        .with_options(Options::new().trace(&Arc::new(NullSink)));

    let op_a = plain.op().unwrap();
    let op_b = nulled.op().unwrap();
    assert_eq!(op_a.x.len(), op_b.x.len());
    for (a, b) in op_a.x.iter().zip(&op_b.x) {
        assert_eq!(a.to_bits(), b.to_bits(), "op must be bit-identical");
    }

    let params = TranParams::new(5e-9, 0.2e-9);
    let w_a = plain.tran(&params).unwrap().into_wave();
    let w_b = nulled.tran(&params).unwrap().into_wave();
    assert_eq!(w_a.axis().len(), w_b.axis().len());
    for (a, b) in w_a.axis().iter().zip(w_b.axis()) {
        assert_eq!(a.to_bits(), b.to_bits(), "time axis must be bit-identical");
    }
    for name in ["v(sum)", "v(oi)", "v(oq)"] {
        let sa = w_a.signal(name).unwrap();
        let sb = w_b.signal(name).unwrap();
        for (k, (a, b)) in sa.iter().zip(sb).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{name}[{k}] must be bit-identical"
            );
        }
    }
}

/// A traced transient and PSS time the step phases outside factor and
/// solve (device stamping, charge commit, and the waveform or orbit
/// record): each reads nonzero, and together they stay below the
/// analysis's span. Turning the timers on moves no result bit.
#[test]
fn step_phases_are_timed_and_leave_results_alone() {
    use ahfic_spice::analysis::PssParams;
    let ckt = image_rejection_frontend();
    let sink = Arc::new(InMemorySink::new());
    let plain = Session::compile(&ckt).unwrap();
    let traced = Session::compile(&ckt)
        .unwrap()
        .with_options(Options::new().trace(&sink));

    let tran = TranParams::new(5e-9, 0.2e-9);
    let pss = PssParams::new(10e-9, 64);
    let waves = [
        (
            plain.tran(&tran).unwrap().into_wave(),
            traced.tran(&tran).unwrap().into_wave(),
        ),
        (
            plain.pss(&pss).unwrap().wave().clone(),
            traced.pss(&pss).unwrap().wave().clone(),
        ),
    ];
    for (a, b) in &waves {
        assert_eq!(a.axis().len(), b.axis().len());
        for name in a.signal_names() {
            let (sa, sb) = (a.signal(name).unwrap(), b.signal(name).unwrap());
            for (k, (x, y)) in sa.iter().zip(sb).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{name}[{k}] moved");
            }
        }
    }

    let recs = sink.records();
    for analysis in ["tran", "pss"] {
        let span_s = recs
            .iter()
            .filter(|r| r.kind == RecordKind::SpanEnd && r.name == analysis)
            .map(|r| r.value)
            .sum::<f64>();
        let mut sum = 0.0;
        for phase in ["device", "commit", "record"] {
            let name = format!("{analysis}.{phase}_seconds");
            let s = counter(&recs, &name).unwrap_or_else(|| panic!("no {name}"));
            assert!(s > 0.0, "{name} = {s}");
            sum += s;
        }
        assert!(
            sum < span_s,
            "{analysis}: phases {sum} s of a {span_s} s span"
        );
    }
}
