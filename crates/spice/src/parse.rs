//! SPICE netlist (deck) parser.
//!
//! Supports the classic card set needed by the AHFIC flows:
//!
//! ```text
//! * comment / title
//! R1 in out 2.2k
//! C1 out 0 10p
//! L1 a b 4n
//! V1 in 0 DC 5 AC 1 0
//! V2 x 0 SIN(0 1 1g)        ; also PULSE(...) and PWL(...)
//! I1 0 b 1m
//! E1 o 0 a 0 10             ; VCVS
//! G1 o 0 a 0 1m             ; VCCS
//! F1 o 0 V1 5               ; CCCS
//! H1 o 0 V1 100             ; CCVS
//! D1 a 0 dmod
//! Q1 c b e nmod             ; or: Q1 c b e s nmod area
//! .model nmod NPN (IS=1e-16 BF=120 TF=15p ...)
//! .model dmod D (IS=1e-14)
//! .ic v(out)=2.5
//! .end
//! ```
//!
//! Continuation lines start with `+`. Names and node labels are
//! case-insensitive; `0` and `gnd` are ground.

use crate::circuit::{ascii_lowercase, Circuit};
use crate::error::{Result, SpiceError};
use crate::model::{BjtModel, BjtPolarity, DiodeModel};
use crate::units::parse_value;
use crate::wave::SourceWave;
use std::borrow::Cow;

/// A logical netlist line: its 1-based number and its text, borrowed
/// from the deck unless continuation joining or subcircuit expansion
/// rewrote it.
pub(crate) type Line<'a> = (usize, Cow<'a, str>);

/// Parses a SPICE deck into a [`Circuit`].
///
/// # Errors
///
/// Returns [`SpiceError::Parse`] with a line number for any malformed
/// card, unknown element letter, or missing model reference.
pub fn parse_netlist(text: &str) -> Result<Circuit> {
    let lines = crate::subckt::expand_subcircuits(join_continuations(text))?;
    let mut ckt = Circuit::new();
    ckt.reserve(lines.len());
    parse_cards(lines, &mut ckt)?;
    Ok(ckt)
}

/// Parses a SPICE deck from a file, resolving `.include` directives
/// relative to the deck's directory (one level of nesting per include;
/// includes may include further files up to a depth of 16).
///
/// # Errors
///
/// I/O failures surface as [`SpiceError::Parse`] naming the file;
/// otherwise as [`parse_netlist`].
pub fn parse_netlist_file(path: impl AsRef<std::path::Path>) -> Result<Circuit> {
    let text = read_with_includes(path.as_ref(), 0)?;
    parse_netlist(&text)
}

fn read_with_includes(path: &std::path::Path, depth: usize) -> Result<String> {
    if depth > 16 {
        return Err(SpiceError::Parse {
            line: 0,
            message: format!(".include nesting too deep at {}", path.display()),
        });
    }
    let text = std::fs::read_to_string(path).map_err(|e| SpiceError::Parse {
        line: 0,
        message: format!("cannot read {}: {e}", path.display()),
    })?;
    let dir = path.parent().unwrap_or_else(|| std::path::Path::new("."));
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let trimmed = line.trim();
        if starts_with_ci(trimmed, ".include") {
            let target = trimmed
                .get(".include".len()..)
                .unwrap_or("")
                .trim()
                .trim_matches(['"', '\'']);
            if target.is_empty() {
                return Err(SpiceError::Parse {
                    line: 0,
                    message: ".include needs a file name".into(),
                });
            }
            out.push_str(&read_with_includes(&dir.join(target), depth + 1)?);
            out.push('\n');
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    Ok(out)
}

fn parse_cards(lines: Vec<Line<'_>>, ckt: &mut Circuit) -> Result<()> {
    // Pass 1: model cards (elements may reference models defined later).
    for (lineno, line) in &lines {
        if let Some(rest) = strip_directive(line, ".model") {
            parse_model(ckt, rest, *lineno)?;
        }
    }

    // Pass 2: everything else, tokenized into one reused buffer.
    let mut toks = Vec::new();
    for (lineno, line) in &lines {
        if starts_with_ci(line, ".model") || starts_with_ci(line, ".end") {
            continue;
        }
        if let Some(rest) = strip_directive(line, ".ic") {
            parse_ic(ckt, rest, *lineno)?;
            continue;
        }
        if line.starts_with('.') {
            // Unknown directives are ignored (analyses are driven from the
            // API, not from cards).
            continue;
        }
        tokenize(line, &mut toks);
        parse_element(ckt, &toks, *lineno)?;
    }
    Ok(())
}

/// Joins `+` continuation lines, strips `*` comment lines, inline `;`
/// comments and blank lines, keeping original line numbers. Lines borrow
/// the text; only a line that gains a continuation is copied.
fn join_continuations(text: &str) -> Vec<Line<'_>> {
    let mut out: Vec<Line<'_>> = Vec::new();
    for (k, raw) in text.lines().enumerate() {
        let line = match raw.find(';') {
            Some(p) => &raw[..p],
            None => raw,
        };
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('*') {
            continue;
        }
        if let Some(cont) = trimmed.strip_prefix('+') {
            if let Some(last) = out.last_mut() {
                let joined = last.1.to_mut();
                joined.push(' ');
                joined.push_str(cont.trim());
                continue;
            }
        }
        out.push((k + 1, Cow::Borrowed(trimmed)));
    }
    out
}

/// Whether `line` starts with the ASCII keyword `prefix`, in any case.
pub(crate) fn starts_with_ci(line: &str, prefix: &str) -> bool {
    line.as_bytes()
        .get(..prefix.len())
        .is_some_and(|head| head.eq_ignore_ascii_case(prefix.as_bytes()))
}

/// `line` past `prefix` (matched in any case), if it starts with it.
fn strip_prefix_ci<'a>(line: &'a str, prefix: &str) -> Option<&'a str> {
    if starts_with_ci(line, prefix) {
        line.get(prefix.len()..)
    } else {
        None
    }
}

fn strip_directive<'a>(line: &'a str, directive: &str) -> Option<&'a str> {
    strip_prefix_ci(line, directive).map(str::trim_start)
}

fn perr(line: usize, message: impl Into<String>) -> SpiceError {
    SpiceError::Parse {
        line,
        message: message.into(),
    }
}

fn need_value(tok: &str, line: usize, what: &str) -> Result<f64> {
    parse_value(tok).ok_or_else(|| perr(line, format!("expected a number for {what}, got `{tok}`")))
}

/// Splits a card into `out`'s tokens, keeping `fn(...)` argument groups
/// together.
fn tokenize<'a>(line: &'a str, out: &mut Vec<&'a str>) {
    out.clear();
    let mut start = None;
    let mut depth = 0usize;
    for (i, ch) in line.char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            c if c.is_whitespace() && depth == 0 => {
                if let Some(s) = start.take() {
                    out.push(&line[s..i]);
                }
                continue;
            }
            _ => {}
        }
        start.get_or_insert(i);
    }
    if let Some(s) = start {
        out.push(&line[s..]);
    }
}

fn parse_model(ckt: &mut Circuit, rest: &str, line: usize) -> Result<()> {
    // name TYPE (K=V ...)  — parens optional.
    let mut toks = rest
        .split(|c: char| c.is_whitespace() || c == '(' || c == ')')
        .filter(|t| !t.is_empty());
    let (Some(name), Some(kind)) = (toks.next(), toks.next()) else {
        return Err(perr(line, "malformed .model card"));
    };
    let pnp = kind.eq_ignore_ascii_case("PNP");
    if pnp || kind.eq_ignore_ascii_case("NPN") {
        let mut m = BjtModel::named(name);
        m.polarity = if pnp {
            BjtPolarity::Pnp
        } else {
            BjtPolarity::Npn
        };
        for kv in toks {
            let (k, v) = split_kv(kv, line)?;
            apply_bjt_param(&mut m, k, v, line)?;
        }
        ckt.add_bjt_model(m);
    } else if kind.eq_ignore_ascii_case("D") {
        let mut m = DiodeModel::named(name);
        for kv in toks {
            let (k, v) = split_kv(kv, line)?;
            apply_diode_param(&mut m, k, v, line)?;
        }
        ckt.add_diode_model(m);
    } else {
        return Err(perr(
            line,
            format!("unsupported model type {}", kind.to_ascii_uppercase()),
        ));
    }
    Ok(())
}

fn split_kv(kv: &str, line: usize) -> Result<(&str, f64)> {
    let (k, v) = kv
        .split_once('=')
        .ok_or_else(|| perr(line, format!("expected key=value, got `{kv}`")))?;
    Ok((k.trim(), need_value(v.trim(), line, k)?))
}

fn apply_bjt_param(m: &mut BjtModel, key: &str, v: f64, line: usize) -> Result<()> {
    let mut buf = [0; 64];
    match &*ascii_lowercase(key, &mut buf) {
        "is" => m.is_ = v,
        "bf" => m.bf = v,
        "nf" => m.nf = v,
        "vaf" => m.vaf = v,
        "ikf" => m.ikf = v,
        "ise" => m.ise = v,
        "ne" => m.ne = v,
        "br" => m.br = v,
        "nr" => m.nr = v,
        "var" => m.var = v,
        "ikr" => m.ikr = v,
        "isc" => m.isc = v,
        "nc" => m.nc = v,
        "rb" => m.rb = v,
        "irb" => m.irb = v,
        "rbm" => m.rbm = v,
        "re" => m.re = v,
        "rc" => m.rc = v,
        "cje" => m.cje = v,
        "vje" => m.vje = v,
        "mje" => m.mje = v,
        "tf" => m.tf = v,
        "xtf" => m.xtf = v,
        "vtf" => m.vtf = v,
        "itf" => m.itf = v,
        "cjc" => m.cjc = v,
        "vjc" => m.vjc = v,
        "mjc" => m.mjc = v,
        "xcjc" => m.xcjc = v,
        "tr" => m.tr = v,
        "cjs" => m.cjs = v,
        "vjs" => m.vjs = v,
        "mjs" => m.mjs = v,
        "fc" => m.fc = v,
        "kf" => m.kf = v,
        "af" => m.af = v,
        _ => {
            return Err(perr(
                line,
                format!("unknown BJT parameter {}", key.to_ascii_uppercase()),
            ))
        }
    }
    Ok(())
}

fn apply_diode_param(m: &mut DiodeModel, key: &str, v: f64, line: usize) -> Result<()> {
    let mut buf = [0; 64];
    match &*ascii_lowercase(key, &mut buf) {
        "is" => m.is_ = v,
        "n" => m.n = v,
        "rs" => m.rs = v,
        "cjo" | "cj0" => m.cjo = v,
        "vj" => m.vj = v,
        "m" => m.m = v,
        "tt" => m.tt = v,
        "fc" => m.fc = v,
        "bv" => m.bv = v,
        "kf" => m.kf = v,
        "af" => m.af = v,
        _ => {
            return Err(perr(
                line,
                format!("unknown diode parameter {}", key.to_ascii_uppercase()),
            ))
        }
    }
    Ok(())
}

fn parse_ic(ckt: &mut Circuit, rest: &str, line: usize) -> Result<()> {
    // .ic v(node)=value [v(node)=value ...]
    for item in rest.split_whitespace() {
        let lower = item.to_ascii_lowercase();
        let inner = lower
            .strip_prefix("v(")
            .and_then(|s| s.split_once(")="))
            .ok_or_else(|| perr(line, format!("malformed .ic item `{item}`")))?;
        let node = ckt.node(inner.0);
        let value = need_value(inner.1, line, "initial condition")?;
        ckt.set_ic(node, value);
    }
    Ok(())
}

/// Parses an independent-source value specification. Keywords match in
/// any case; a token quoted in an error is shown in lower case.
fn parse_source_spec(toks: &[&str], line: usize) -> Result<(SourceWave, Option<(f64, f64)>)> {
    let mut wave: Option<SourceWave> = None;
    let mut dc: f64 = 0.0;
    let mut ac: Option<(f64, f64)> = None;
    let mut i = 0usize;
    while i < toks.len() {
        let t = toks[i];
        if t.eq_ignore_ascii_case("dc") {
            dc = need_value(
                toks.get(i + 1)
                    .ok_or_else(|| perr(line, "DC needs a value"))?,
                line,
                "DC value",
            )?;
            i += 2;
        } else if t.eq_ignore_ascii_case("ac") {
            let mag = need_value(
                toks.get(i + 1)
                    .ok_or_else(|| perr(line, "AC needs a magnitude"))?,
                line,
                "AC magnitude",
            )?;
            let mut phase = 0.0;
            let mut consumed = 2;
            if let Some(p) = toks.get(i + 2).and_then(|t| parse_value(t)) {
                phase = p;
                consumed = 3;
            }
            ac = Some((mag, phase));
            i += consumed;
        } else if let Some(args) = fn_args(t, "sin") {
            let v = parse_args(args, line)?;
            wave = Some(SourceWave::Sin {
                offset: v.first().copied().unwrap_or(0.0),
                ampl: v.get(1).copied().unwrap_or(0.0),
                freq: v.get(2).copied().unwrap_or(0.0),
                delay: v.get(3).copied().unwrap_or(0.0),
                damping: v.get(4).copied().unwrap_or(0.0),
                phase_deg: v.get(5).copied().unwrap_or(0.0),
            });
            i += 1;
        } else if let Some(args) = fn_args(t, "pulse") {
            let v = parse_args(args, line)?;
            if v.len() < 7 {
                return Err(perr(line, "PULSE needs 7 arguments"));
            }
            wave = Some(SourceWave::Pulse {
                v1: v[0],
                v2: v[1],
                delay: v[2],
                rise: v[3],
                fall: v[4],
                width: v[5],
                period: v[6],
            });
            i += 1;
        } else if let Some(args) = fn_args(t, "pwl") {
            let v = parse_args(args, line)?;
            if v.len() < 2 || v.len() % 2 != 0 {
                return Err(perr(line, "PWL needs an even number of arguments"));
            }
            wave = Some(SourceWave::Pwl(v.chunks(2).map(|c| (c[0], c[1])).collect()));
            i += 1;
        } else if let Some(v) = parse_value(t) {
            // Bare number = DC value.
            dc = v;
            i += 1;
        } else {
            return Err(perr(
                line,
                format!("unexpected source token `{}`", t.to_ascii_lowercase()),
            ));
        }
    }
    Ok((wave.unwrap_or(SourceWave::Dc(dc)), ac))
}

fn fn_args<'a>(tok: &'a str, name: &str) -> Option<&'a str> {
    let rest = strip_prefix_ci(tok, name)?;
    let rest = rest.strip_prefix('(')?;
    rest.strip_suffix(')')
}

fn parse_args(args: &str, line: usize) -> Result<Vec<f64>> {
    args.split(|c: char| c.is_whitespace() || c == ',')
        .filter(|s| !s.is_empty())
        .map(|s| match parse_value(s) {
            Some(v) => Ok(v),
            None => need_value(&s.to_ascii_lowercase(), line, "source argument"),
        })
        .collect()
}

fn parse_element(ckt: &mut Circuit, toks: &[&str], line: usize) -> Result<()> {
    let Some(&name) = toks.first() else {
        return Ok(());
    };
    // Subcircuit expansion prefixes names with the instance path
    // (`x1.R3`); the element letter is that of the last path segment.
    let first = name
        .rsplit('.')
        .next()
        .and_then(|seg| seg.chars().next())
        .ok_or_else(|| perr(line, format!("malformed element name `{name}`")))?
        .to_ascii_uppercase();
    // The `Circuit` builder enforces its invariants (positive values,
    // unique names) with panics — a fine contract for programmatic
    // construction, but netlist text is untrusted input and must come
    // back as a typed error instead.
    if ckt.find_element(name).is_some() {
        return Err(perr(line, format!("duplicate element name `{name}`")));
    }
    // Whatever the arm below adds gets this card's line number, so lint
    // diagnostics can point back into the deck.
    let first_new = ckt.elements().len();
    match first {
        'R' | 'C' | 'L' => {
            if toks.len() < 4 {
                return Err(perr(line, format!("{name}: needs 2 nodes and a value")));
            }
            let p = ckt.node(toks[1]);
            let n = ckt.node(toks[2]);
            let v = need_value(toks[3], line, "element value")?;
            match first {
                'R' if v <= 0.0 => {
                    return Err(perr(line, format!("{name}: resistance must be positive")));
                }
                'C' if v < 0.0 => {
                    return Err(perr(
                        line,
                        format!("{name}: capacitance must be non-negative"),
                    ));
                }
                'L' if v <= 0.0 => {
                    return Err(perr(line, format!("{name}: inductance must be positive")));
                }
                _ => {}
            }
            match first {
                'R' => ckt.resistor(name, p, n, v),
                'C' => ckt.capacitor(name, p, n, v),
                _ => ckt.inductor(name, p, n, v),
            };
        }
        'V' | 'I' => {
            if toks.len() < 3 {
                return Err(perr(line, format!("{name}: needs 2 nodes")));
            }
            let p = ckt.node(toks[1]);
            let n = ckt.node(toks[2]);
            let (wave, ac) = parse_source_spec(&toks[3..], line)?;
            if first == 'V' {
                ckt.vsource_wave(name, p, n, wave);
            } else {
                ckt.isource_wave(name, p, n, wave);
            }
            if let Some((mag, phase)) = ac {
                ckt.set_ac(name, mag, phase)?;
            }
        }
        'E' | 'G' => {
            if toks.len() < 6 {
                return Err(perr(line, format!("{name}: needs 4 nodes and a gain")));
            }
            let p = ckt.node(toks[1]);
            let n = ckt.node(toks[2]);
            let cp = ckt.node(toks[3]);
            let cn = ckt.node(toks[4]);
            let g = need_value(toks[5], line, "gain")?;
            if first == 'E' {
                ckt.vcvs(name, p, n, cp, cn, g);
            } else {
                ckt.vccs(name, p, n, cp, cn, g);
            }
        }
        'K' => {
            // K1 L1 L2 k — mutual coupling between two inductors.
            if toks.len() < 4 {
                return Err(perr(
                    line,
                    format!("{name}: needs two inductors and a coefficient"),
                ));
            }
            let k = need_value(toks[3], line, "coupling coefficient")?;
            ckt.mutual(name, toks[1], toks[2], k);
        }
        'F' | 'H' => {
            if toks.len() < 5 {
                return Err(perr(
                    line,
                    format!("{name}: needs 2 nodes, a source and a gain"),
                ));
            }
            let p = ckt.node(toks[1]);
            let n = ckt.node(toks[2]);
            let g = need_value(toks[4], line, "gain")?;
            if first == 'F' {
                ckt.cccs(name, p, n, toks[3], g);
            } else {
                ckt.ccvs(name, p, n, toks[3], g);
            }
        }
        'D' => {
            if toks.len() < 4 {
                return Err(perr(line, format!("{name}: needs 2 nodes and a model")));
            }
            let p = ckt.node(toks[1]);
            let n = ckt.node(toks[2]);
            let model = ckt
                .find_diode_model(toks[3])
                .ok_or_else(|| perr(line, format!("unknown diode model {}", toks[3])))?;
            let area = toks.get(4).and_then(|t| parse_value(t)).unwrap_or(1.0);
            ckt.diode(name, p, n, model, area);
        }
        'Q' => {
            if toks.len() < 5 {
                return Err(perr(line, format!("{name}: needs c b e and a model")));
            }
            // Either `Q c b e model [area]` or `Q c b e s model [area]`:
            // disambiguate by checking whether token 4 is a known model.
            let c = ckt.node(toks[1]);
            let b = ckt.node(toks[2]);
            let e = ckt.node(toks[3]);
            if let Some(model) = ckt.find_bjt_model(toks[4]) {
                let area = toks.get(5).and_then(|t| parse_value(t)).unwrap_or(1.0);
                ckt.bjt(name, c, b, e, model, area);
            } else if toks.len() >= 6 {
                let s = ckt.node(toks[4]);
                let model = ckt
                    .find_bjt_model(toks[5])
                    .ok_or_else(|| perr(line, format!("unknown BJT model {}", toks[5])))?;
                let area = toks.get(6).and_then(|t| parse_value(t)).unwrap_or(1.0);
                ckt.bjt4(name, c, b, e, s, model, area);
            } else {
                return Err(perr(line, format!("unknown BJT model {}", toks[4])));
            }
        }
        other => {
            return Err(perr(
                line,
                format!("unsupported element letter `{other}` in {name}"),
            ))
        }
    }
    for idx in first_new..ckt.elements().len() {
        ckt.set_element_line(idx, line);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::op::op_eval as op;
    use crate::analysis::Options;
    use crate::circuit::{ElementKind, Prepared};

    #[test]
    fn parses_divider_and_solves() {
        let ckt =
            parse_netlist("* divider\nV1 in 0 DC 10\nR1 in out 1k\nR2 out 0 1k\n.end\n").unwrap();
        let prep = Prepared::compile(&ckt).unwrap();
        let r = op(&prep, &Options::default()).unwrap();
        let out = prep.circuit.find_node("out").unwrap();
        assert!((prep.voltage(&r.x, out) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn parses_models_and_bjt() {
        let ckt = parse_netlist(
            ".model nmod NPN (IS=2e-16 BF=150 RB=100 CJE=50f TF=12p)\n\
             VCC vcc 0 5\nRB vcc b 470k\nRC vcc c 1k\nQ1 c b 0 nmod\n",
        )
        .unwrap();
        assert_eq!(ckt.bjt_models.len(), 1);
        let m = &ckt.bjt_models[0];
        assert_eq!(m.bf, 150.0);
        assert!((m.cje - 50e-15).abs() < 1e-20);
        assert!((m.tf - 12e-12).abs() < 1e-18);
        let prep = Prepared::compile(&ckt).unwrap();
        let r = op(&prep, &Options::default()).unwrap();
        let b = prep.circuit.find_node("b").unwrap();
        assert!(prep.voltage(&r.x, b) > 0.5);
    }

    #[test]
    fn parses_sin_and_ac_spec() {
        let ckt = parse_netlist("V1 a 0 DC 0.5 AC 1 90 SIN(0 1 1g 0 0 45)\nR1 a 0 50\n").unwrap();
        match &ckt.elements()[0].kind {
            ElementKind::Vsource { wave, ac, .. } => {
                assert_eq!(ac.mag, 1.0);
                assert_eq!(ac.phase_deg, 90.0);
                match wave {
                    SourceWave::Sin {
                        ampl,
                        freq,
                        phase_deg,
                        ..
                    } => {
                        assert_eq!(*ampl, 1.0);
                        assert_eq!(*freq, 1e9);
                        assert_eq!(*phase_deg, 45.0);
                    }
                    w => panic!("wrong wave {w:?}"),
                }
            }
            _ => panic!("not a vsource"),
        }
    }

    #[test]
    fn parses_pulse_pwl_with_continuation() {
        let ckt = parse_netlist(
            "V1 a 0 PULSE(0 1 1n 0.1n 0.1n 5n 10n)\n\
             V2 b 0 PWL(0 0,\n+ 1n 1, 2n 0)\nR1 a 0 1k\nR2 b 0 1k\n",
        )
        .unwrap();
        match &ckt.elements()[0].kind {
            ElementKind::Vsource { wave, .. } => {
                assert!(matches!(wave, SourceWave::Pulse { period, .. } if *period == 10e-9));
            }
            _ => panic!(),
        }
        match &ckt.elements()[1].kind {
            ElementKind::Vsource { wave, .. } => match wave {
                SourceWave::Pwl(pts) => assert_eq!(pts.len(), 3),
                w => panic!("wrong wave {w:?}"),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn parses_controlled_sources() {
        let ckt = parse_netlist(
            "V1 a 0 1\nR1 a 0 1k\nE1 e 0 a 0 2\nG1 0 g a 0 1m\n\
             F1 0 f V1 2\nH1 h 0 V1 100\nRe e 0 1k\nRg g 0 1k\nRf f 0 1k\nRh h 0 1k\n",
        )
        .unwrap();
        assert_eq!(ckt.elements().len(), 10);
        let prep = Prepared::compile(&ckt).unwrap();
        let r = op(&prep, &Options::default()).unwrap();
        let e = prep.circuit.find_node("e").unwrap();
        assert!((prep.voltage(&r.x, e) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn parses_mutual_inductor_card() {
        let ckt = parse_netlist(
            "V1 a 0 DC 0 AC 1\nRS a p 50\nL1 p 0 1u\nL2 s 0 1u\nRL s 0 50\nK1 L1 L2 0.8\n",
        )
        .unwrap();
        match &ckt.elements()[5].kind {
            ElementKind::MutualInd { l1, l2, k } => {
                assert_eq!(l1, "L1");
                assert_eq!(l2, "L2");
                assert_eq!(*k, 0.8);
            }
            _ => panic!("not a mutual inductor"),
        }
        // Compiles: the K card's references resolve.
        Prepared::compile(&ckt).unwrap();
        assert!(parse_netlist("K1 L1\n").is_err());
    }

    #[test]
    fn parses_flicker_noise_params() {
        let ckt = parse_netlist(
            ".model nm NPN (IS=1e-16 KF=1e-12 AF=1.2)\n\
             .model dm D (IS=1e-14 KF=2e-13)\n\
             Q1 c b 0 nm\nD1 a 0 dm\n",
        )
        .unwrap();
        assert_eq!(ckt.bjt_models[0].kf, 1e-12);
        assert_eq!(ckt.bjt_models[0].af, 1.2);
        assert_eq!(ckt.diode_models[0].kf, 2e-13);
        assert_eq!(ckt.diode_models[0].af, 1.0);
    }

    #[test]
    fn parses_ic_directive() {
        let ckt = parse_netlist("C1 x 0 1n\nR1 x 0 1k\n.ic v(x)=2.0\n").unwrap();
        assert_eq!(ckt.ics().len(), 1);
        assert_eq!(ckt.ics()[0].1, 2.0);
    }

    #[test]
    fn comments_and_inline_semicolons() {
        let ckt =
            parse_netlist("* full line comment\nR1 a 0 1k ; load\n* another\nV1 a 0 1\n").unwrap();
        assert_eq!(ckt.elements().len(), 2);
    }

    #[test]
    fn error_reports_line_number() {
        let err = parse_netlist("R1 a 0 1k\nR2 a 0 oops\n").unwrap_err();
        match err {
            SpiceError::Parse { line, .. } => assert_eq!(line, 2),
            e => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn unknown_model_is_error() {
        assert!(parse_netlist("Q1 c b 0 missing\n").is_err());
        assert!(parse_netlist("D1 a 0 nope\n").is_err());
    }

    #[test]
    fn four_terminal_bjt() {
        let ckt = parse_netlist(".model m NPN (IS=1e-16)\nQ1 c b e subs m 2.0\n").unwrap();
        match &ckt.elements()[0].kind {
            ElementKind::Bjt { s, area, .. } => {
                assert_eq!(ckt.node_name(*s), "subs");
                assert_eq!(*area, 2.0);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn include_resolves_relative_files() {
        let dir = std::env::temp_dir().join("ahfic-include-test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("models.lib"),
            ".model incmod NPN (IS=3e-16 BF=77)\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("top.cir"),
            "* top deck\n.include models.lib\nVCC vcc 0 5\nRC vcc c 1k\nRB vcc b 400k\nQ1 c b 0 incmod\n",
        )
        .unwrap();
        let ckt = crate::parse::parse_netlist_file(dir.join("top.cir")).unwrap();
        assert!(ckt.find_bjt_model("incmod").is_some());
        assert_eq!(ckt.bjt_models[0].bf, 77.0);
        assert!(crate::parse::parse_netlist_file(dir.join("missing.cir")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn model_card_round_trip() {
        // A model emitted by BjtModel::to_card parses back equal (within
        // the 4-digit precision of the emitter).
        let mut m = BjtModel::named("rt");
        m.bf = 123.0;
        m.cje = 55e-15;
        m.rb = 81.5;
        m.tf = 14.2e-12;
        m.vaf = 42.0;
        let deck = format!("{}\n", m.to_card());
        let ckt = parse_netlist(&deck).unwrap();
        let back = &ckt.bjt_models[0];
        assert!((back.bf - m.bf).abs() / m.bf < 1e-3);
        assert!((back.cje - m.cje).abs() / m.cje < 1e-3);
        assert!((back.rb - m.rb).abs() / m.rb < 1e-3);
        assert!((back.tf - m.tf).abs() / m.tf < 1e-3);
        assert!((back.vaf - m.vaf).abs() / m.vaf < 1e-3);
    }
}
