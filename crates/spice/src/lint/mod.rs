//! Static circuit verification: a deterministic pre-flight pass that
//! runs at [`Prepared::compile`] time, before any Newton iteration.
//!
//! The paper's methodology is to catch design errors at the highest
//! level possible instead of deep inside a simulation run. Today a
//! floating node or a loop of ideal voltage sources surfaces only as a
//! `SingularMatrix` error out of the LU factorization, with no pointer
//! back to the offending element; this module turns those failures into
//! typed diagnostics that name the nodes and elements involved (with
//! netlist line numbers when the circuit came from a deck).
//!
//! Two layers of checks:
//!
//! 1. **Graph checks** ([`graph`]) on the element topology every device
//!    declares through [`crate::devices::Device::topology`]: ground
//!    reachability / floating-node detection via union-find over
//!    DC-conducting edges, voltage-source / inductor loop detection,
//!    current-source cutset detection, dangling pins, and value-sanity
//!    screens the parser cannot reject contextually.
//! 2. **Matrix-structure checks** ([`matching`]) on the assembled MNA
//!    pattern: a structural rank test via Hopcroft–Karp maximum
//!    bipartite matching, with a Dulmage–Mendelsohn-style alternating
//!    reachability pass that names the exact unknowns and equations in
//!    the deficient block. This is the backstop for defects the graph
//!    heuristics cannot see (e.g. a VCVS in parallel with a voltage
//!    source).
//!
//! Policy is selected through [`LintPolicy`] (the
//! [`Options::lint`](crate::analysis::Options::lint) knob): `Deny`
//! (default) fails compilation on error-severity diagnostics,
//! `Warn` carries everything as warnings on the compiled circuit, and
//! `Off` skips the pass entirely.

pub mod graph;
pub mod matching;

use crate::circuit::{Prepared, GROUND_SLOT};
use crate::devices::TopologyEdge;
use std::fmt;

/// Machine-readable identity of one lint finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LintCode {
    /// No element connects to the ground node at all.
    NoGround,
    /// A set of nodes has no DC path to ground.
    FloatingNode,
    /// A loop of ideal voltage-definition branches (V/E/H/B): the
    /// branch-current columns are linearly dependent.
    VsourceLoop,
    /// A DC short loop containing at least one inductor: solvable only
    /// through the inductor's internal series resistance, with absurd
    /// branch currents.
    InductorLoop,
    /// Current sources force current into a subcircuit with no DC
    /// return path (a current-source cutset over-determines KCL).
    CurrentCutset,
    /// A node connected to exactly one element terminal.
    DanglingPin,
    /// A part value the parser accepts but the stamps cannot survive
    /// (zero-ohm resistor, negative or zero reactances, zero coupling).
    ValueSanity,
    /// The MNA matrix is structurally rank-deficient for a reason the
    /// graph checks did not classify.
    StructuralSingular,
}

impl LintCode {
    /// Stable kebab-case code string, used in rendered diagnostics.
    pub fn as_str(&self) -> &'static str {
        match self {
            LintCode::NoGround => "no-ground",
            LintCode::FloatingNode => "floating-node",
            LintCode::VsourceLoop => "vsource-loop",
            LintCode::InductorLoop => "inductor-loop",
            LintCode::CurrentCutset => "current-cutset",
            LintCode::DanglingPin => "dangling-pin",
            LintCode::ValueSanity => "value-sanity",
            LintCode::StructuralSingular => "structural-singular",
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How serious a lint finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintSeverity {
    /// Suspicious but simulatable; carried on the compiled circuit.
    Warning,
    /// The first LU factorization (or the first stamp) cannot survive
    /// this; under [`LintPolicy::Deny`] compilation fails.
    Error,
}

/// What [`Prepared::compile_with`] does with lint findings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LintPolicy {
    /// Error-severity diagnostics fail compilation with
    /// [`crate::error::SpiceError::LintFailed`]; warnings are carried
    /// on the compiled circuit. The default.
    #[default]
    Deny,
    /// Everything — including error-severity findings — is carried as
    /// warnings; compilation never fails on lint.
    Warn,
    /// The pre-flight pass is skipped entirely.
    Off,
}

/// One typed finding of the pre-flight pass.
#[derive(Clone, Debug, PartialEq)]
pub struct LintDiagnostic {
    /// Machine-readable code.
    pub code: LintCode,
    /// Error or warning.
    pub severity: LintSeverity,
    /// Offending element labels, with netlist line numbers when known
    /// (`"R3 (line 4)"`).
    pub elements: Vec<String>,
    /// Offending node names.
    pub nodes: Vec<String>,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for LintDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            LintSeverity::Error => "error",
            LintSeverity::Warning => "warning",
        };
        write!(f, "{sev}[{}]: {}", self.code, self.message)
    }
}

/// Every finding of one pre-flight pass, in deterministic order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LintReport {
    /// All findings, errors and warnings interleaved in check order.
    pub diagnostics: Vec<LintDiagnostic>,
}

impl LintReport {
    /// `true` if any finding has error severity.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == LintSeverity::Error)
    }

    /// Error-severity findings only.
    pub fn errors(&self) -> impl Iterator<Item = &LintDiagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == LintSeverity::Error)
    }

    /// Warning-severity findings only.
    pub fn warnings(&self) -> impl Iterator<Item = &LintDiagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == LintSeverity::Warning)
    }

    /// `true` if the pass found nothing at all.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, d) in self.diagnostics.iter().enumerate() {
            if k > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// One device's contribution to the topology graph, tagged with the
/// element index it came from.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TaggedEdge {
    pub elem: usize,
    pub edge: TopologyEdge,
}

/// Collects every device's declared topology, tagged by element index.
pub(crate) fn collect_edges(prep: &Prepared) -> Vec<TaggedEdge> {
    let mut edges = Vec::with_capacity(4 * prep.circuit.elements().len());
    let mut scratch = Vec::new();
    for dev in prep.devices() {
        scratch.clear();
        dev.topology(&mut scratch);
        for e in &scratch {
            edges.push(TaggedEdge {
                elem: dev.index(),
                edge: *e,
            });
        }
    }
    edges
}

/// Element label with netlist line provenance when available:
/// `"R3 (line 4)"` for parsed decks, `"R3"` for builder circuits.
pub(crate) fn element_label(prep: &Prepared, idx: usize) -> String {
    let name = &prep.circuit.elements()[idx].name;
    match prep.circuit.element_line(idx) {
        Some(line) => format!("{name} (line {line})"),
        None => name.clone(),
    }
}

/// Node name for an unknown slot: external and internal node names come
/// from the unknown table (`v(out)` → `out`), ground renders as `0`.
pub(crate) fn node_label(prep: &Prepared, slot: usize) -> String {
    if slot == GROUND_SLOT {
        return "0".to_string();
    }
    let n = &prep.unknown_names[slot];
    n.strip_prefix("v(")
        .and_then(|s| s.strip_suffix(')'))
        .unwrap_or(n)
        .to_string()
}

/// Runs the full pre-flight pass over a compiled circuit.
///
/// Graph checks always run; the matrix-structure backstop runs only
/// when the graph checks produced no error (a floating island would
/// make the matching fail for an already-diagnosed reason).
pub fn lint_prepared(prep: &Prepared) -> LintReport {
    let edges = collect_edges(prep);
    let mut diagnostics = Vec::new();
    graph::check(prep, &edges, &mut diagnostics);
    if !diagnostics
        .iter()
        .any(|d| d.severity == LintSeverity::Error)
    {
        matching::check(prep, &edges, &mut diagnostics);
    }
    LintReport { diagnostics }
}

/// Joins at most `cap` names, appending `… (+k more)` past the cap.
pub(crate) fn join_capped(names: &[String], cap: usize) -> String {
    if names.len() <= cap {
        names.join(", ")
    } else {
        format!(
            "{} … (+{} more)",
            names[..cap].join(", "),
            names.len() - cap
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::error::SpiceError;
    use crate::parse::parse_netlist;

    fn lint(c: &Circuit) -> LintReport {
        let prep = Prepared::compile_with(c, LintPolicy::Off).unwrap();
        lint_prepared(&prep)
    }

    fn codes(r: &LintReport) -> Vec<LintCode> {
        r.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_divider_is_clean() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::gnd(), 12.0);
        c.resistor("R1", a, b, 2e3);
        c.resistor("R2", b, Circuit::gnd(), 1e3);
        assert!(lint(&c).is_empty());
    }

    #[test]
    fn no_ground_names_accepted_aliases() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, b, 5.0);
        c.resistor("R1", a, b, 1e3);
        let r = lint(&c);
        assert_eq!(codes(&r), vec![LintCode::NoGround]);
        let d = &r.diagnostics[0];
        assert_eq!(d.severity, LintSeverity::Error);
        assert!(
            d.message.contains("`0`") && d.message.contains("`gnd`"),
            "{}",
            d.message
        );
        assert_eq!(d.nodes, vec!["a", "b"]);
    }

    #[test]
    fn floating_node_names_node_and_element() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let f = c.node("f");
        c.vsource("V1", a, Circuit::gnd(), 1.0);
        c.resistor("R1", a, Circuit::gnd(), 1e3);
        c.capacitor("C1", a, f, 1e-12);
        let r = lint(&c);
        assert_eq!(
            codes(&r),
            vec![LintCode::FloatingNode, LintCode::DanglingPin]
        );
        let d = &r.diagnostics[0];
        assert_eq!(d.nodes, vec!["f"]);
        assert_eq!(d.elements, vec!["C1"]);
    }

    #[test]
    fn vsource_loop_is_error_inductor_loop_is_warning() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("V1", a, Circuit::gnd(), 5.0);
        c.vsource("V2", a, Circuit::gnd(), 5.0);
        let r = lint(&c);
        assert_eq!(codes(&r), vec![LintCode::VsourceLoop]);
        assert_eq!(r.diagnostics[0].severity, LintSeverity::Error);
        assert!(r.diagnostics[0].elements.iter().any(|e| e == "V1"));
        assert!(r.diagnostics[0].elements.iter().any(|e| e == "V2"));

        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("V1", a, Circuit::gnd(), 5.0);
        c.inductor("L1", a, Circuit::gnd(), 1e-9);
        let r = lint(&c);
        assert_eq!(codes(&r), vec![LintCode::InductorLoop]);
        assert_eq!(r.diagnostics[0].severity, LintSeverity::Warning);
    }

    #[test]
    fn parallel_vsources_are_fatal_even_when_an_inductor_joins_them_first() {
        // Regression: with a single combined V+L spanning forest, the
        // inductor connects a and 0 first, so both V edges close cycles
        // *through the inductor* and the fatal pure-V loop V1–V2 was
        // reported as two survivable inductor-loop warnings.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.inductor("L1", a, Circuit::gnd(), 1e-9);
        c.vsource("V1", a, Circuit::gnd(), 5.0);
        c.vsource("V2", a, Circuit::gnd(), 3.0);
        let r = lint(&c);
        assert!(
            r.diagnostics.iter().any(|d| d.code == LintCode::VsourceLoop
                && d.severity == LintSeverity::Error
                && d.elements.iter().any(|e| e == "V1")
                && d.elements.iter().any(|e| e == "V2")),
            "{:?}",
            r.diagnostics
        );
    }

    #[test]
    fn each_extra_loop_element_gets_its_own_diagnostic() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("V1", a, Circuit::gnd(), 5.0);
        c.vsource("V2", a, Circuit::gnd(), 5.0);
        c.vsource("V3", a, Circuit::gnd(), 5.0);
        let r = lint(&c);
        assert_eq!(
            codes(&r),
            vec![LintCode::VsourceLoop, LintCode::VsourceLoop]
        );
    }

    #[test]
    fn current_cutset_names_the_feeding_source() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.isource("I1", Circuit::gnd(), a, 1e-3);
        c.capacitor("C1", a, Circuit::gnd(), 1e-12);
        let r = lint(&c);
        assert_eq!(codes(&r), vec![LintCode::CurrentCutset]);
        let d = &r.diagnostics[0];
        assert_eq!(d.elements, vec!["I1"]);
        assert_eq!(d.nodes, vec!["a"]);
    }

    #[test]
    fn dangling_pin_is_warning_only() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let d = c.node("d");
        c.vsource("V1", a, Circuit::gnd(), 1.0);
        c.resistor("R1", a, Circuit::gnd(), 1e3);
        c.resistor("R2", a, d, 1e3);
        let r = lint(&c);
        assert_eq!(codes(&r), vec![LintCode::DanglingPin]);
        assert_eq!(r.diagnostics[0].severity, LintSeverity::Warning);
        assert_eq!(r.diagnostics[0].nodes, vec!["d"]);
        // Deny still compiles: warnings ride on the Prepared.
        let prep = Prepared::compile(&c).unwrap();
        assert_eq!(prep.lint_warnings.len(), 1);
    }

    #[test]
    fn value_sanity_catches_overflowed_and_useless_values() {
        // `1e999` overflows to +inf, which the parser's `v <= 0` screen
        // cannot reject; the conductance stamp would be 1/inf = 0.
        let deck = "V1 a 0 1\nR1 a 0 1e999\nR2 a 0 1k\n.end\n";
        let c = parse_netlist(deck).unwrap();
        let prep = Prepared::compile_with(&c, LintPolicy::Off).unwrap();
        let r = lint_prepared(&prep);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::ValueSanity && d.severity == LintSeverity::Error));

        // A zero coupling coefficient is accepted but does nothing.
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::gnd(), 1.0);
        c.inductor("L1", a, Circuit::gnd(), 1e-6);
        c.inductor("L2", b, Circuit::gnd(), 1e-6);
        c.resistor("R1", b, Circuit::gnd(), 50.0);
        c.mutual("K1", "L1", "L2", 0.0);
        let r = lint(&c);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.code == LintCode::ValueSanity && d.severity == LintSeverity::Warning));
    }

    #[test]
    fn structural_singular_backstop_catches_gm_cancellation() {
        // 1 Ohm resistor in parallel with a VCCS whose gm exactly
        // cancels the conductance at the zero starting point: every
        // graph check passes, yet the single KCL row sums to zero.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R1", a, Circuit::gnd(), 1.0);
        c.vccs("G1", a, Circuit::gnd(), a, Circuit::gnd(), -1.0);
        let r = lint(&c);
        assert_eq!(codes(&r), vec![LintCode::StructuralSingular]);
        let d = &r.diagnostics[0];
        assert!(d.message.contains("v(a)"), "{}", d.message);
        assert!(d.message.contains("KCL at node a"), "{}", d.message);
        assert!(d.elements.iter().any(|e| e == "R1"));
        assert!(d.elements.iter().any(|e| e == "G1"));
    }

    #[test]
    fn parsed_decks_carry_line_numbers() {
        let deck = "* floating island\n\
                    V1 in 0 1\n\
                    R1 in 0 1k\n\
                    C1 in f 1p\n\
                    .end\n";
        let c = parse_netlist(deck).unwrap();
        let err = Prepared::compile(&c).unwrap_err();
        let SpiceError::LintFailed(report) = err else {
            panic!("expected LintFailed");
        };
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::FloatingNode)
            .unwrap();
        assert!(
            d.elements.iter().any(|e| e == "C1 (line 4)"),
            "{:?}",
            d.elements
        );
    }

    #[test]
    fn policy_warn_carries_errors_as_warnings() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let f = c.node("f");
        c.vsource("V1", a, Circuit::gnd(), 1.0);
        c.resistor("R1", a, Circuit::gnd(), 1e3);
        c.capacitor("C1", a, f, 1e-12);
        assert!(matches!(
            Prepared::compile(&c),
            Err(SpiceError::LintFailed(_))
        ));
        let prep = Prepared::compile_with(&c, LintPolicy::Warn).unwrap();
        assert!(prep
            .lint_warnings
            .iter()
            .any(|d| d.code == LintCode::FloatingNode));
        let prep = Prepared::compile_with(&c, LintPolicy::Off).unwrap();
        assert!(prep.lint_warnings.is_empty());
    }
}
