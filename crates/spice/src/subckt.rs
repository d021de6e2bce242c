//! Subcircuit (`.subckt` / `X`) preprocessing.
//!
//! Classic SPICE hierarchy is flattened before element parsing: every
//! `X` card is expanded in place, with internal nodes and element names
//! prefixed by the instance path (`x1.n3`, `x1.q2`). Models stay global.
//!
//! ```text
//! .subckt eclstage inp inn outp outn vcc
//!   RLP vcc cp 130
//!   ...
//! .ends
//! X1 a b c d vcc eclstage
//! ```

use crate::error::{Result, SpiceError};
use crate::parse::{starts_with_ci, Line};
use std::borrow::Cow;
use std::collections::HashMap;

/// A parsed subcircuit definition.
#[derive(Clone, Debug, PartialEq)]
struct SubcktDef<'a> {
    name: String,
    ports: Vec<String>,
    /// Raw element cards.
    cards: Vec<Line<'a>>,
}

/// Maximum nesting depth (guards against recursive definitions).
const MAX_DEPTH: usize = 16;

/// Expands all `.subckt`/`.ends`/`X` cards in a logical-line list
/// (continuations already joined), returning a flat card list. Top-level
/// cards other than `X` pass through unchanged.
///
/// # Errors
///
/// Returns [`SpiceError::Parse`] for malformed or unknown subcircuits,
/// port-count mismatches and recursion beyond [`MAX_DEPTH`].
pub(crate) fn expand_subcircuits(lines: Vec<Line<'_>>) -> Result<Vec<Line<'_>>> {
    // Pass 1: collect definitions (non-nested, as in SPICE2).
    let mut defs: HashMap<String, SubcktDef> = HashMap::new();
    let mut top: Vec<Line> = Vec::with_capacity(lines.len());
    let mut current: Option<SubcktDef> = None;
    for (lineno, line) in lines {
        if starts_with_ci(&line, ".subckt") {
            if current.is_some() {
                return Err(SpiceError::Parse {
                    line: lineno,
                    message: "nested .subckt definitions are not supported".into(),
                });
            }
            let toks: Vec<&str> = line.split_whitespace().collect();
            if toks.len() < 3 {
                return Err(SpiceError::Parse {
                    line: lineno,
                    message: ".subckt needs a name and at least one port".into(),
                });
            }
            current = Some(SubcktDef {
                name: toks[1].to_ascii_lowercase(),
                ports: toks[2..].iter().map(|t| t.to_ascii_lowercase()).collect(),
                cards: Vec::new(),
            });
        } else if starts_with_ci(&line, ".ends") {
            match current.take() {
                Some(def) => {
                    defs.insert(def.name.clone(), def);
                }
                None => {
                    return Err(SpiceError::Parse {
                        line: lineno,
                        message: ".ends without .subckt".into(),
                    })
                }
            }
        } else if let Some(def) = &mut current {
            def.cards.push((lineno, line));
        } else {
            top.push((lineno, line));
        }
    }
    if let Some(def) = current {
        return Err(SpiceError::Parse {
            line: 0,
            message: format!(".subckt {} never closed with .ends", def.name),
        });
    }

    // Pass 2: expand X cards recursively.
    let mut out = Vec::with_capacity(top.len());
    for (lineno, line) in top {
        expand_card(line, lineno, "", &defs, 0, &mut out)?;
    }
    Ok(out)
}

/// Expands one card. Invariant: node tokens in `line` are already fully
/// scoped (top-level names, or rewritten by [`rewrite_nodes`]); only
/// element names still need the instance-path prefix.
fn expand_card<'a>(
    line: Cow<'a, str>,
    lineno: usize,
    prefix: &str,
    defs: &HashMap<String, SubcktDef>,
    depth: usize,
    out: &mut Vec<Line<'a>>,
) -> Result<()> {
    let first = line.chars().next().unwrap_or(' ');
    if first != 'X' && first != 'x' {
        let card = if prefix.is_empty() {
            line
        } else {
            Cow::Owned(prefix_names(&line, prefix))
        };
        out.push((lineno, card));
        return Ok(());
    }
    if depth >= MAX_DEPTH {
        return Err(SpiceError::Parse {
            line: lineno,
            message: "subcircuit nesting too deep (recursive definition?)".into(),
        });
    }
    let toks: Vec<&str> = line.split_whitespace().collect();
    if toks.len() < 2 {
        return Err(SpiceError::Parse {
            line: lineno,
            message: "malformed X card".into(),
        });
    }
    let inst = toks[0].to_ascii_lowercase();
    let subname = toks[toks.len() - 1].to_ascii_lowercase();
    let def = defs.get(&subname).ok_or_else(|| SpiceError::Parse {
        line: lineno,
        message: format!("unknown subcircuit `{subname}`"),
    })?;
    // Actual connection nodes are already fully scoped.
    let actual: Vec<String> = toks[1..toks.len() - 1]
        .iter()
        .map(|t| t.to_ascii_lowercase())
        .collect();
    if actual.len() != def.ports.len() {
        return Err(SpiceError::Parse {
            line: lineno,
            message: format!(
                "{} connects {} nodes but subcircuit {subname} has {} ports",
                toks[0],
                actual.len(),
                def.ports.len()
            ),
        });
    }
    let inner_prefix = format!("{prefix}{inst}.");
    // Port map: formal (local) name -> actual (outer, fully scoped) name.
    let port_map: HashMap<&str, &str> = def
        .ports
        .iter()
        .map(String::as_str)
        .zip(actual.iter().map(String::as_str))
        .collect();
    for (card_line, card) in &def.cards {
        let substituted = rewrite_nodes(card, &port_map, &inner_prefix, *card_line)?;
        expand_card(
            Cow::Owned(substituted),
            *card_line,
            &inner_prefix,
            defs,
            depth + 1,
            out,
        )?;
    }
    Ok(())
}

/// Positions of node tokens for each element letter (1-based token
/// indices after the name). `None` = all-but-value heuristics handled
/// separately.
fn node_token_count(letter: char, toks: &[&str]) -> usize {
    match letter {
        'R' | 'C' | 'L' | 'V' | 'I' | 'D' => 2,
        'E' | 'G' => 4,
        'F' | 'H' => 2,
        'Q' => {
            // Q c b e model | Q c b e s model: decide by token count
            // (name + nodes + model [+ area]).
            if toks.len() >= 6 && toks[5].parse::<f64>().is_err() {
                4
            } else if toks.len() >= 6 {
                // name c b e s model area? Ambiguous; 4-terminal when the
                // 6th token is not numeric handled above, else 3.
                3
            } else {
                3
            }
        }
        _ => 0,
    }
}

/// Rewrites a definition card's node tokens into the instantiating
/// scope: ports map to their (fully scoped) actuals, ground stays
/// ground, every other node gets the instance prefix. Element names are
/// left untouched (handled at emission by [`prefix_names`]).
fn rewrite_nodes(
    card: &str,
    port_map: &HashMap<&str, &str>,
    inner_prefix: &str,
    lineno: usize,
) -> Result<String> {
    let toks: Vec<&str> = card.split_whitespace().collect();
    if toks.is_empty() {
        return Ok(String::new());
    }
    let letter = toks[0]
        .chars()
        .next()
        .map_or(' ', |c| c.to_ascii_uppercase());
    if letter == '.' {
        return Err(SpiceError::Parse {
            line: lineno,
            message: format!("directive `{}` not allowed inside .subckt", toks[0]),
        });
    }
    let n_nodes = if letter == 'X' {
        toks.len().saturating_sub(2) // every middle token is a node
    } else {
        let n = node_token_count(letter, &toks);
        if n == 0 {
            return Err(SpiceError::Parse {
                line: lineno,
                message: format!("unsupported card inside .subckt: {card}"),
            });
        }
        n
    };
    let mut out: Vec<String> = Vec::with_capacity(toks.len());
    out.push(toks[0].to_string());
    for (k, tok) in toks.iter().enumerate().skip(1) {
        let is_node = k <= n_nodes;
        if is_node {
            let lower = tok.to_ascii_lowercase();
            if lower == "0" || lower == "gnd" {
                out.push(lower);
            } else {
                match port_map.get(lower.as_str()) {
                    Some(actual) => out.push((*actual).to_string()),
                    None => out.push(format!("{inner_prefix}{lower}")),
                }
            }
        } else {
            out.push(tok.to_string());
        }
    }
    Ok(out.join(" "))
}

/// Prefixes the element name (and, for F/H cards, the controlling-source
/// reference) with the instance path. Node tokens are already scoped.
fn prefix_names(card: &str, prefix: &str) -> String {
    let toks: Vec<&str> = card.split_whitespace().collect();
    if toks.is_empty() {
        return String::new();
    }
    let letter = toks[0]
        .chars()
        .next()
        .map_or(' ', |c| c.to_ascii_uppercase());
    let mut out: Vec<String> = Vec::with_capacity(toks.len());
    out.push(format!("{prefix}{}", toks[0]));
    for (k, tok) in toks.iter().enumerate().skip(1) {
        if (letter == 'F' || letter == 'H') && k == 3 {
            // Controlling source reference is an element name in the same
            // scope as this card.
            out.push(format!("{prefix}{tok}"));
        } else {
            out.push(tok.to_string());
        }
    }
    out.join(" ")
}

#[cfg(test)]
mod tests {
    use crate::parse::parse_netlist;

    #[test]
    fn expands_simple_subckt() {
        let ckt = parse_netlist(
            ".subckt divider top mid
             R1 top mid 1k
             R2 mid 0 1k
             .ends
             V1 in 0 10
             X1 in out divider
             Rload out 0 1meg
            ",
        )
        .unwrap();
        // Expanded elements: V1, x1.r1, x1.r2, Rload.
        assert_eq!(ckt.elements().len(), 4);
        assert!(ckt.find_element("x1.R1").is_some());
        // `mid` was a port mapped to `out`; solve to be sure.
        let prep = crate::circuit::Prepared::compile(&ckt).unwrap();
        let r = crate::analysis::op::op_eval(&prep, &Default::default()).unwrap();
        let out = prep.circuit.find_node("out").unwrap();
        // 1k over (1k || 1meg): v = 10 * 999.001 / 1999.001.
        let expect = 10.0 * (1e3 * 1e6 / (1e3 + 1e6)) / (1e3 + 1e3 * 1e6 / (1e3 + 1e6));
        assert!((prep.voltage(&r.x, out) - expect).abs() < 1e-9);
    }

    #[test]
    fn local_nodes_are_scoped_per_instance() {
        let ckt = parse_netlist(
            ".subckt stage a b
             R1 a internal 1k
             R2 internal b 1k
             .ends
             V1 in 0 4
             X1 in m stage
             X2 m out stage
             RL out 0 2k
            ",
        )
        .unwrap();
        // Each instance gets its own `internal` node.
        assert!(ckt.find_node("x1.internal").is_some());
        assert!(ckt.find_node("x2.internal").is_some());
        let prep = crate::circuit::Prepared::compile(&ckt).unwrap();
        let r = crate::analysis::op::op_eval(&prep, &Default::default()).unwrap();
        // 4 V over 1k+1k+1k+1k+2k, out = 4 * 2/6.
        let out = prep.circuit.find_node("out").unwrap();
        assert!((prep.voltage(&r.x, out) - 4.0 * 2.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn nested_instantiation_works() {
        let ckt = parse_netlist(
            ".subckt unit a b
             R1 a b 1k
             .ends
             .subckt pair a b
             X1 a m unit
             X2 m b unit
             .ends
             V1 in 0 1
             X9 in 0 pair
            ",
        )
        .unwrap();
        assert!(ckt.find_element("x9.x1.R1").is_some());
        assert!(ckt.find_element("x9.x2.R1").is_some());
        let prep = crate::circuit::Prepared::compile(&ckt).unwrap();
        let r = crate::analysis::op::op_eval(&prep, &Default::default()).unwrap();
        // 1 V over 2k -> i(V1) = -0.5 mA.
        let i = r.x[prep.branch_slot("V1").unwrap()];
        assert!((i + 0.5e-3).abs() < 1e-9);
    }

    #[test]
    fn ground_is_never_prefixed() {
        let ckt = parse_netlist(
            ".subckt g a
             R1 a 0 1k
             .ends
             V1 in 0 1
             X1 in g
            ",
        )
        .unwrap();
        let prep = crate::circuit::Prepared::compile(&ckt).unwrap();
        let r = crate::analysis::op::op_eval(&prep, &Default::default()).unwrap();
        let i = r.x[prep.branch_slot("V1").unwrap()];
        assert!((i + 1e-3).abs() < 1e-9);
    }

    #[test]
    fn bjt_subckt_with_global_model() {
        let ckt = parse_netlist(
            ".model n NPN (IS=1e-16 BF=100)
             .subckt ce in out vcc
             RC vcc out 1k
             Q1 out in 0 n
             .ends
             VCC vdd 0 5
             VB b 0 0.75
             X1 b c vdd ce
            ",
        )
        .unwrap();
        let prep = crate::circuit::Prepared::compile(&ckt).unwrap();
        let r = crate::analysis::op::op_eval(&prep, &Default::default()).unwrap();
        let c = prep.circuit.find_node("c").unwrap();
        let vc = prep.voltage(&r.x, c);
        assert!(vc < 5.0 && vc > 0.0, "vc = {vc}");
    }

    #[test]
    fn error_cases() {
        assert!(
            parse_netlist(".subckt a p\nR1 p 0 1\n").is_err(),
            "unclosed"
        );
        assert!(parse_netlist(".ends\n").is_err(), "stray .ends");
        assert!(
            parse_netlist("X1 a b missing\nR1 a 0 1\n").is_err(),
            "unknown sub"
        );
        assert!(
            parse_netlist(".subckt s a b\nR1 a b 1\n.ends\nX1 n1 s\n").is_err(),
            "port count mismatch"
        );
        // Recursion guard.
        assert!(parse_netlist(".subckt s a b\nX1 a b s\n.ends\nX1 p q s\nR1 p 0 1\n").is_err());
    }

    #[test]
    fn controlled_source_reference_scoped() {
        let ckt = parse_netlist(
            ".subckt sense a b
             Vm a b 0
             F1 0 fout Vm 2
             Rf fout 0 1k
             .ends
             V1 in 0 1
             R1 in m 1k
             X1 m 0 sense
            ",
        )
        .unwrap();
        let prep = crate::circuit::Prepared::compile(&ckt).unwrap();
        let r = crate::analysis::op::op_eval(&prep, &Default::default()).unwrap();
        // 1 mA through the sense source -> F injects 2 mA into x1.fout.
        let fout = prep.circuit.find_node("x1.fout").unwrap();
        assert!((prep.voltage(&r.x, fout) - 2.0).abs() < 1e-6);
    }
}
