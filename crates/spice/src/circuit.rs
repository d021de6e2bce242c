//! Circuit netlist representation and builder API.
//!
//! A [`Circuit`] owns interned nodes, model cards and a flat element list.
//! Analyses compile it into a [`Prepared`] system that assigns every MNA
//! unknown (node voltages, then branch currents) a dense index and creates
//! the internal nodes implied by device parasitic resistances.

use crate::devices::{build_devices, Device};
use crate::error::{Result, SpiceError};
use crate::lint::{LintDiagnostic, LintPolicy};
use crate::model::{BjtModel, DiodeModel};
use crate::wave::SourceWave;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A memoryless behavioral function `f(controls) -> value` used by
/// [`ElementKind::BehavioralV`] sources. Cheap to clone (shared).
///
/// Equality compares identity (the same underlying closure), which is
/// what circuit-copy semantics need.
#[derive(Clone)]
pub struct BehavioralFn(BehavioralClosure);

/// The shared closure type behind [`BehavioralFn`]. `Send + Sync` so a
/// compiled [`Prepared`] can be shared across analysis worker threads.
type BehavioralClosure = Arc<dyn Fn(&[f64]) -> f64 + Send + Sync>;

impl BehavioralFn {
    /// Wraps a closure.
    pub fn new(f: impl Fn(&[f64]) -> f64 + Send + Sync + 'static) -> Self {
        BehavioralFn(Arc::new(f))
    }

    /// Evaluates the function.
    #[inline]
    pub fn eval(&self, controls: &[f64]) -> f64 {
        (self.0)(controls)
    }

    /// Stable identity of the underlying shared closure (the address of
    /// its allocation): what [`PartialEq`] compares and what deck
    /// content hashing folds in for behavioral sources, since the
    /// closure body itself cannot be hashed.
    pub fn identity(&self) -> usize {
        Arc::as_ptr(&self.0) as *const u8 as usize
    }

    /// Partial derivative w.r.t. control `i`, by central differences.
    pub fn derivative(&self, controls: &[f64], i: usize) -> f64 {
        let h = 1e-6 * (1.0 + controls[i].abs());
        let mut lo = controls.to_vec();
        let mut hi = controls.to_vec();
        lo[i] -= h;
        hi[i] += h;
        (self.eval(&hi) - self.eval(&lo)) / (2.0 * h)
    }
}

impl fmt::Debug for BehavioralFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BehavioralFn(<closure>)")
    }
}

impl PartialEq for BehavioralFn {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Identifier of a circuit node. `NodeId::GROUND` is node `0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The ground (reference) node.
    pub const GROUND: NodeId = NodeId(0);

    /// Raw index (0 = ground).
    pub fn index(self) -> usize {
        self.0
    }

    /// True if this is the ground node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// AC stimulus of an independent source.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AcStimulus {
    /// Magnitude (V or A).
    pub mag: f64,
    /// Phase in degrees.
    pub phase_deg: f64,
}

impl Default for AcStimulus {
    fn default() -> Self {
        AcStimulus {
            mag: 0.0,
            phase_deg: 0.0,
        }
    }
}

/// One circuit element.
#[derive(Clone, Debug, PartialEq)]
pub struct Element {
    /// Unique element name (`R1`, `Q3`, …).
    pub name: String,
    /// Element behaviour and connectivity.
    pub kind: ElementKind,
}

/// The element variants understood by the simulator.
#[derive(Clone, Debug, PartialEq)]
pub enum ElementKind {
    /// Linear resistor between `p` and `n`.
    Resistor {
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Resistance in ohms (must be non-zero).
        r: f64,
    },
    /// Linear capacitor.
    Capacitor {
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Capacitance in farads.
        c: f64,
    },
    /// Linear inductor (adds a branch-current unknown).
    Inductor {
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Inductance in henries.
        l: f64,
    },
    /// Independent voltage source (adds a branch-current unknown). The
    /// branch current is measured flowing *into* the `p` terminal, the
    /// SPICE convention.
    Vsource {
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Transient/DC waveform.
        wave: SourceWave,
        /// AC analysis stimulus.
        ac: AcStimulus,
    },
    /// Independent current source; positive current flows from `p`
    /// through the source to `n`.
    Isource {
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Transient/DC waveform.
        wave: SourceWave,
        /// AC analysis stimulus.
        ac: AcStimulus,
    },
    /// Voltage-controlled voltage source `E`: `v(p,n) = gain * v(cp,cn)`.
    Vcvs {
        /// Positive output terminal.
        p: NodeId,
        /// Negative output terminal.
        n: NodeId,
        /// Positive controlling node.
        cp: NodeId,
        /// Negative controlling node.
        cn: NodeId,
        /// Voltage gain.
        gain: f64,
    },
    /// Voltage-controlled current source `G`: `i(p->n) = gm * v(cp,cn)`.
    Vccs {
        /// Current exits here into the circuit… (SPICE: current flows
        /// from `p` through the source to `n`).
        p: NodeId,
        /// Return terminal.
        n: NodeId,
        /// Positive controlling node.
        cp: NodeId,
        /// Negative controlling node.
        cn: NodeId,
        /// Transconductance in siemens.
        gm: f64,
    },
    /// Current-controlled current source `F`: `i = gain * i(vsource)`.
    Cccs {
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Name of the voltage source sensing the controlling current.
        vsource: String,
        /// Current gain.
        gain: f64,
    },
    /// Current-controlled voltage source `H`: `v(p,n) = r * i(vsource)`.
    Ccvs {
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Name of the voltage source sensing the controlling current.
        vsource: String,
        /// Transresistance in ohms.
        r: f64,
    },
    /// Junction diode (anode `p`, cathode `n`).
    Diode {
        /// Anode.
        p: NodeId,
        /// Cathode.
        n: NodeId,
        /// Index into [`Circuit::diode_models`].
        model: usize,
        /// Area multiplier.
        area: f64,
    },
    /// Behavioral voltage source: `v(p,n) = f(v(controls...))`, a
    /// memoryless nonlinear controlled source (the "AHDL block inside the
    /// circuit simulator" of mixed-level design). Adds a branch-current
    /// unknown; linearized by numeric differentiation each Newton
    /// iteration.
    BehavioralV {
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Controlling nodes, passed to `func` in order.
        controls: Vec<NodeId>,
        /// The behavioral function.
        func: BehavioralFn,
    },
    /// Bipolar transistor (collector, base, emitter, substrate).
    Bjt {
        /// Collector.
        c: NodeId,
        /// Base.
        b: NodeId,
        /// Emitter.
        e: NodeId,
        /// Substrate (ground if not wired).
        s: NodeId,
        /// Index into [`Circuit::bjt_models`].
        model: usize,
        /// Area multiplier (SPICE `AREA` scaling).
        area: f64,
    },
    /// Mutual-inductor coupling (`K` card) between two named inductors:
    /// `M = k * sqrt(L1 * L2)`. Adds no unknowns of its own; it stamps
    /// cross terms onto the coupled inductors' branch rows. Validated at
    /// compile time (both names must be inductors, `|k| <= 1`).
    MutualInd {
        /// Name of the first coupled inductor.
        l1: String,
        /// Name of the second coupled inductor.
        l2: String,
        /// Coupling coefficient, `-1 <= k <= 1`.
        k: f64,
    },
}

/// `text` in ASCII lower case: `text` itself when it has no upper-case
/// letter, else a copy in `buf` when it fits, else a new string. Name
/// lookups and keyword matches are case-insensitive, and this keeps them
/// from allocating for names of up to 64 bytes.
pub(crate) fn ascii_lowercase<'a>(text: &'a str, buf: &'a mut [u8; 64]) -> Cow<'a, str> {
    if !text.bytes().any(|b| b.is_ascii_uppercase()) {
        return Cow::Borrowed(text);
    }
    if let Some(out) = buf.get_mut(..text.len()) {
        out.copy_from_slice(text.as_bytes());
        out.make_ascii_lowercase();
        // Re-casing ASCII bytes keeps UTF-8 valid.
        if let Ok(s) = std::str::from_utf8(out) {
            return Cow::Borrowed(s);
        }
    }
    Cow::Owned(text.to_ascii_lowercase())
}

/// A complete circuit: nodes, models, elements and initial conditions.
///
/// # Example
///
/// ```
/// use ahfic_spice::circuit::Circuit;
/// let mut ckt = Circuit::new();
/// let vin = ckt.node("in");
/// let out = ckt.node("out");
/// ckt.vsource("V1", vin, Circuit::gnd(), 5.0);
/// ckt.resistor("R1", vin, out, 1e3);
/// ckt.resistor("R2", out, Circuit::gnd(), 1e3);
/// assert_eq!(ckt.num_nodes(), 3); // ground + 2
/// ```
#[derive(Clone, Debug, Default)]
pub struct Circuit {
    node_names: Vec<String>,
    node_lookup: HashMap<String, NodeId>,
    elements: Vec<Element>,
    element_lookup: HashMap<String, usize>,
    /// 1-based netlist line each element came from, index-aligned with
    /// `elements`; `None` for builder-API circuits.
    element_lines: Vec<Option<usize>>,
    /// Registered BJT model cards.
    pub bjt_models: Vec<BjtModel>,
    /// Registered diode model cards.
    pub diode_models: Vec<DiodeModel>,
    /// Node initial conditions applied by `tran` when starting with UIC.
    ics: Vec<(NodeId, f64)>,
}

impl Circuit {
    /// Creates an empty circuit (ground pre-registered).
    pub fn new() -> Self {
        let mut c = Circuit {
            node_names: vec!["0".to_string()],
            ..Default::default()
        };
        c.node_lookup.insert("0".to_string(), NodeId(0));
        c.node_lookup.insert("gnd".to_string(), NodeId(0));
        c
    }

    /// Reserves room for `elements` more elements and about as many
    /// nodes, so a parse grows no table while it fills them.
    pub(crate) fn reserve(&mut self, elements: usize) {
        self.elements.reserve(elements);
        self.element_lines.reserve(elements);
        self.element_lookup.reserve(elements);
        self.node_names.reserve(elements);
        self.node_lookup.reserve(elements);
    }

    /// The ground node.
    pub fn gnd() -> NodeId {
        NodeId::GROUND
    }

    /// Interns (or retrieves) a named node.
    pub fn node(&mut self, name: &str) -> NodeId {
        let mut buf = [0; 64];
        let key = ascii_lowercase(name, &mut buf);
        if let Some(&id) = self.node_lookup.get(&*key) {
            return id;
        }
        let id = NodeId(self.node_names.len());
        self.node_lookup.insert(key.into_owned(), id);
        self.node_names.push(name.to_string());
        id
    }

    /// Looks up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        let mut buf = [0; 64];
        self.node_lookup
            .get(&*ascii_lowercase(name, &mut buf))
            .copied()
    }

    /// Name of a node.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.0]
    }

    /// Total node count including ground and any interned internals.
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// All elements, in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Finds an element index by name.
    pub fn find_element(&self, name: &str) -> Option<usize> {
        let mut buf = [0; 64];
        self.element_lookup
            .get(&*ascii_lowercase(name, &mut buf))
            .copied()
    }

    fn push_element(&mut self, name: impl Into<String>, kind: ElementKind) -> usize {
        let name = name.into();
        let key = name.to_ascii_lowercase();
        assert!(
            !self.element_lookup.contains_key(&key),
            "duplicate element name {name}"
        );
        let idx = self.elements.len();
        self.element_lookup.insert(key, idx);
        self.elements.push(Element { name, kind });
        self.element_lines.push(None);
        idx
    }

    /// Records the 1-based netlist line an element was parsed from, so
    /// lint diagnostics can point back into the deck.
    pub fn set_element_line(&mut self, idx: usize, line: usize) {
        self.element_lines[idx] = Some(line);
    }

    /// Netlist line provenance of an element, when known.
    pub fn element_line(&self, idx: usize) -> Option<usize> {
        self.element_lines.get(idx).copied().flatten()
    }

    /// Adds a resistor.
    ///
    /// # Panics
    ///
    /// Panics on duplicate element name or non-positive resistance.
    pub fn resistor(&mut self, name: &str, p: NodeId, n: NodeId, r: f64) -> usize {
        assert!(r > 0.0, "resistor {name} must have positive resistance");
        self.push_element(name, ElementKind::Resistor { p, n, r })
    }

    /// Adds a capacitor.
    pub fn capacitor(&mut self, name: &str, p: NodeId, n: NodeId, c: f64) -> usize {
        assert!(c >= 0.0, "capacitor {name} must be non-negative");
        self.push_element(name, ElementKind::Capacitor { p, n, c })
    }

    /// Adds an inductor.
    pub fn inductor(&mut self, name: &str, p: NodeId, n: NodeId, l: f64) -> usize {
        assert!(l > 0.0, "inductor {name} must be positive");
        self.push_element(name, ElementKind::Inductor { p, n, l })
    }

    /// Adds a mutual-inductor coupling (`K` card) between two named
    /// inductors. References are resolved — and `|k| <= 1` enforced — at
    /// [`Prepared::compile`] time, so the inductors may be added later.
    pub fn mutual(&mut self, name: &str, l1: &str, l2: &str, k: f64) -> usize {
        self.push_element(
            name,
            ElementKind::MutualInd {
                l1: l1.to_string(),
                l2: l2.to_string(),
                k,
            },
        )
    }

    /// Adds a DC voltage source.
    pub fn vsource(&mut self, name: &str, p: NodeId, n: NodeId, dc: f64) -> usize {
        self.vsource_wave(name, p, n, SourceWave::Dc(dc))
    }

    /// Adds a voltage source with an arbitrary waveform.
    pub fn vsource_wave(&mut self, name: &str, p: NodeId, n: NodeId, wave: SourceWave) -> usize {
        self.push_element(
            name,
            ElementKind::Vsource {
                p,
                n,
                wave,
                ac: AcStimulus::default(),
            },
        )
    }

    /// Adds a DC current source (current flows from `p` through the source
    /// to `n`).
    pub fn isource(&mut self, name: &str, p: NodeId, n: NodeId, dc: f64) -> usize {
        self.isource_wave(name, p, n, SourceWave::Dc(dc))
    }

    /// Adds a current source with an arbitrary waveform.
    pub fn isource_wave(&mut self, name: &str, p: NodeId, n: NodeId, wave: SourceWave) -> usize {
        self.push_element(
            name,
            ElementKind::Isource {
                p,
                n,
                wave,
                ac: AcStimulus::default(),
            },
        )
    }

    /// Sets the AC stimulus of an existing independent source.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::Netlist`] if the element is missing or is not
    /// an independent source.
    pub fn set_ac(&mut self, name: &str, mag: f64, phase_deg: f64) -> Result<()> {
        let idx = self
            .find_element(name)
            .ok_or_else(|| SpiceError::Netlist(format!("no element named {name}")))?;
        match &mut self.elements[idx].kind {
            ElementKind::Vsource { ac, .. } | ElementKind::Isource { ac, .. } => {
                *ac = AcStimulus { mag, phase_deg };
                Ok(())
            }
            _ => Err(SpiceError::Netlist(format!(
                "{name} is not an independent source"
            ))),
        }
    }

    /// Replaces the waveform of an existing independent source (used by
    /// sweeps).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::Netlist`] if the element is missing or is not
    /// an independent source.
    pub fn set_source_wave(&mut self, name: &str, new_wave: SourceWave) -> Result<()> {
        let idx = self
            .find_element(name)
            .ok_or_else(|| SpiceError::Netlist(format!("no element named {name}")))?;
        match &mut self.elements[idx].kind {
            ElementKind::Vsource { wave, .. } | ElementKind::Isource { wave, .. } => {
                *wave = new_wave;
                Ok(())
            }
            _ => Err(SpiceError::Netlist(format!(
                "{name} is not an independent source"
            ))),
        }
    }

    /// Changes the value of an existing resistor (used by mismatch
    /// sweeps: the MNA pattern is unchanged, so a compiled circuit stays
    /// valid).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::Netlist`] if the element is missing, is not a
    /// resistor, or `new_r` is not positive.
    pub fn set_resistance(&mut self, name: &str, new_r: f64) -> Result<()> {
        if new_r <= 0.0 {
            return Err(SpiceError::Netlist(format!(
                "resistor {name} must stay positive (got {new_r})"
            )));
        }
        let idx = self
            .find_element(name)
            .ok_or_else(|| SpiceError::Netlist(format!("no element named {name}")))?;
        match &mut self.elements[idx].kind {
            ElementKind::Resistor { r, .. } => {
                *r = new_r;
                Ok(())
            }
            _ => Err(SpiceError::Netlist(format!("{name} is not a resistor"))),
        }
    }

    /// Adds a voltage-controlled voltage source.
    pub fn vcvs(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        cp: NodeId,
        cn: NodeId,
        gain: f64,
    ) -> usize {
        self.push_element(name, ElementKind::Vcvs { p, n, cp, cn, gain })
    }

    /// Adds a voltage-controlled current source.
    pub fn vccs(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        cp: NodeId,
        cn: NodeId,
        gm: f64,
    ) -> usize {
        self.push_element(name, ElementKind::Vccs { p, n, cp, cn, gm })
    }

    /// Adds a current-controlled current source sensing `vsource`.
    pub fn cccs(&mut self, name: &str, p: NodeId, n: NodeId, vsource: &str, gain: f64) -> usize {
        self.push_element(
            name,
            ElementKind::Cccs {
                p,
                n,
                vsource: vsource.to_string(),
                gain,
            },
        )
    }

    /// Adds a behavioral voltage source `v(p,n) = func(v(controls))`.
    ///
    /// The function must be memoryless; it is re-evaluated (with numeric
    /// differentiation) on every Newton iteration of every analysis.
    pub fn behavioral_vsource(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        controls: &[NodeId],
        func: BehavioralFn,
    ) -> usize {
        self.push_element(
            name,
            ElementKind::BehavioralV {
                p,
                n,
                controls: controls.to_vec(),
                func,
            },
        )
    }

    /// Adds a current-controlled voltage source sensing `vsource`.
    pub fn ccvs(&mut self, name: &str, p: NodeId, n: NodeId, vsource: &str, r: f64) -> usize {
        self.push_element(
            name,
            ElementKind::Ccvs {
                p,
                n,
                vsource: vsource.to_string(),
                r,
            },
        )
    }

    /// Registers a diode model and returns its index.
    pub fn add_diode_model(&mut self, model: DiodeModel) -> usize {
        self.diode_models.push(model);
        self.diode_models.len() - 1
    }

    /// Registers a BJT model and returns its index.
    pub fn add_bjt_model(&mut self, model: BjtModel) -> usize {
        self.bjt_models.push(model);
        self.bjt_models.len() - 1
    }

    /// Finds a registered BJT model by name.
    pub fn find_bjt_model(&self, name: &str) -> Option<usize> {
        self.bjt_models
            .iter()
            .position(|m| m.name.eq_ignore_ascii_case(name))
    }

    /// Finds a registered diode model by name.
    pub fn find_diode_model(&self, name: &str) -> Option<usize> {
        self.diode_models
            .iter()
            .position(|m| m.name.eq_ignore_ascii_case(name))
    }

    /// Adds a diode.
    ///
    /// # Panics
    ///
    /// Panics if the model index is out of range.
    pub fn diode(&mut self, name: &str, p: NodeId, n: NodeId, model: usize, area: f64) -> usize {
        assert!(model < self.diode_models.len(), "bad diode model index");
        self.push_element(name, ElementKind::Diode { p, n, model, area })
    }

    /// Adds a bipolar transistor with the substrate grounded.
    pub fn bjt(
        &mut self,
        name: &str,
        c: NodeId,
        b: NodeId,
        e: NodeId,
        model: usize,
        area: f64,
    ) -> usize {
        self.bjt4(name, c, b, e, NodeId::GROUND, model, area)
    }

    /// Adds a four-terminal bipolar transistor.
    ///
    /// # Panics
    ///
    /// Panics if the model index is out of range or `area <= 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn bjt4(
        &mut self,
        name: &str,
        c: NodeId,
        b: NodeId,
        e: NodeId,
        s: NodeId,
        model: usize,
        area: f64,
    ) -> usize {
        assert!(model < self.bjt_models.len(), "bad BJT model index");
        assert!(area > 0.0, "BJT area must be positive");
        self.push_element(
            name,
            ElementKind::Bjt {
                c,
                b,
                e,
                s,
                model,
                area,
            },
        )
    }

    /// Waveform of a named independent source, or `None` if the element
    /// is missing or not a V/I source.
    pub fn source_wave(&self, name: &str) -> Option<&SourceWave> {
        let idx = self.find_element(name)?;
        match &self.elements[idx].kind {
            ElementKind::Vsource { wave, .. } | ElementKind::Isource { wave, .. } => Some(wave),
            _ => None,
        }
    }

    /// Iterates over the model cards referenced by the circuit's BJT
    /// elements, one entry per instance, in insertion order.
    pub fn bjt_instance_models(&self) -> impl Iterator<Item = &BjtModel> + '_ {
        self.elements.iter().filter_map(|el| match &el.kind {
            ElementKind::Bjt { model, .. } => Some(&self.bjt_models[*model]),
            _ => None,
        })
    }

    /// Declares an initial condition `v(node) = value` for UIC transient
    /// starts.
    pub fn set_ic(&mut self, node: NodeId, value: f64) {
        self.ics.push((node, value));
    }

    /// Declared initial conditions.
    pub fn ics(&self) -> &[(NodeId, f64)] {
        &self.ics
    }
}

/// Where an element's branch current lives in the unknown vector, if it
/// has one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BranchSlot(pub Option<usize>);

/// Internal-node bookkeeping for a BJT: indices are *unknown-vector* slots
/// (usize::MAX encodes ground).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct BjtNodes {
    /// External collector / base / emitter / substrate unknown slots.
    pub c: usize,
    pub b: usize,
    pub e: usize,
    pub s: usize,
    /// Internal nodes (equal to the external slots when the parasitic
    /// resistance is zero).
    pub ci: usize,
    pub bi: usize,
    pub ei: usize,
}

/// Compiled view of a circuit: unknown indexing and internal nodes.
///
/// Unknowns are ordered: all non-ground node voltages (external then
/// internal), then branch currents. `usize::MAX` marks the ground slot.
#[derive(Clone, Debug)]
pub struct Prepared {
    /// The source circuit.
    pub circuit: Circuit,
    /// Number of voltage unknowns (external + internal nodes, excl. ground).
    pub num_voltage_unknowns: usize,
    /// Total unknown count.
    pub num_unknowns: usize,
    /// Per-element branch-current slot.
    pub branch_of: Vec<BranchSlot>,
    /// Per-element area-scaled BJT model copies.
    pub(crate) scaled_bjt: Vec<Option<BjtModel>>,
    /// Per-element area-scaled diode model copies.
    pub(crate) scaled_diode: Vec<Option<DiodeModel>>,
    /// Names for every unknown (diagnostics).
    pub unknown_names: Vec<String>,
    /// Per-element compiled device objects, index-aligned with
    /// [`Circuit::elements`]. All analysis dispatch walks this list.
    pub(crate) devices: Vec<Arc<dyn Device>>,
    /// Indices (into `devices`) of devices whose real stamp is
    /// solution-independent: cached in the Newton replay baseline.
    pub(crate) linear: Vec<usize>,
    /// Indices of devices re-stamped every Newton iteration.
    pub(crate) nonlinear: Vec<usize>,
    /// Warning-severity findings of the pre-flight lint pass (all
    /// findings under [`LintPolicy::Warn`]; empty under
    /// [`LintPolicy::Off`]).
    pub lint_warnings: Vec<LintDiagnostic>,
}

/// Area-scales a BJT model card: currents and capacitances multiply by
/// `area`, resistances divide by it — the SPICE `AREA` convention.
pub fn scale_bjt_model(m: &BjtModel, area: f64) -> BjtModel {
    let mut s = m.clone();
    s.is_ *= area;
    s.ise *= area;
    s.isc *= area;
    if s.ikf.is_finite() {
        s.ikf *= area;
    }
    if s.ikr.is_finite() {
        s.ikr *= area;
    }
    if s.irb.is_finite() {
        s.irb *= area;
    }
    s.itf *= area;
    s.cje *= area;
    s.cjc *= area;
    s.cjs *= area;
    s.rb /= area;
    s.rbm /= area;
    s.re /= area;
    s.rc /= area;
    s
}

/// Area-scales a diode model card.
pub fn scale_diode_model(m: &DiodeModel, area: f64) -> DiodeModel {
    let mut s = m.clone();
    s.is_ *= area;
    s.cjo *= area;
    s.rs /= area;
    s
}

/// Sentinel unknown index for the ground node.
pub const GROUND_SLOT: usize = usize::MAX;

impl Prepared {
    /// Compiles a circuit into its MNA unknown layout. The circuit is
    /// borrowed (and cloned into the result), so sweep loops can compile
    /// variants without giving up their working copy.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::Netlist`] if a controlled source references a
    /// missing voltage source, or [`SpiceError::LintFailed`] when the
    /// pre-flight static verification pass (run under its default
    /// [`LintPolicy::Deny`]) finds error-severity structural defects.
    /// Use [`Prepared::compile_with`] to select another policy.
    pub fn compile(circuit: &Circuit) -> Result<Self> {
        Self::compile_with(circuit, LintPolicy::default())
    }

    /// Compiles a circuit with an explicit pre-flight lint policy:
    /// [`LintPolicy::Deny`] fails on error-severity findings,
    /// [`LintPolicy::Warn`] carries everything on
    /// [`Prepared::lint_warnings`], [`LintPolicy::Off`] skips the pass.
    pub fn compile_with(circuit: &Circuit, lint: LintPolicy) -> Result<Self> {
        let mut prep = Self::compile_unchecked(circuit)?;
        if lint == LintPolicy::Off {
            return Ok(prep);
        }
        let report = crate::lint::lint_prepared(&prep);
        if lint == LintPolicy::Deny && report.has_errors() {
            return Err(SpiceError::LintFailed(Box::new(report)));
        }
        prep.lint_warnings = report.diagnostics;
        Ok(prep)
    }

    /// The compile pipeline proper: unknown layout, device build, no
    /// lint.
    fn compile_unchecked(circuit: &Circuit) -> Result<Self> {
        let n_ext = circuit.num_nodes() - 1; // excluding ground
        let mut unknown_names: Vec<String> = (1..circuit.num_nodes())
            .map(|i| format!("v({})", circuit.node_names[i]))
            .collect();

        let mut next = n_ext;
        let mut bjt_nodes = vec![None; circuit.elements.len()];
        let mut diode_internal = vec![None; circuit.elements.len()];
        let mut scaled_bjt = vec![None; circuit.elements.len()];
        let mut scaled_diode = vec![None; circuit.elements.len()];

        // Internal nodes first so all voltage unknowns precede branches.
        for (idx, el) in circuit.elements.iter().enumerate() {
            match &el.kind {
                ElementKind::Bjt {
                    c,
                    b,
                    e,
                    s,
                    model,
                    area,
                } => {
                    let m = scale_bjt_model(&circuit.bjt_models[*model], *area);
                    let m = &m;
                    let (c, b, e, s) = (node_slot(*c), node_slot(*b), node_slot(*e), node_slot(*s));
                    let mut mk = |r: f64, tag: &str, ext: usize| -> usize {
                        if r > 0.0 {
                            let slot = next;
                            next += 1;
                            unknown_names.push(format!("v({}.{tag})", el.name));
                            slot
                        } else {
                            ext
                        }
                    };
                    let ci = mk(m.rc, "ci", c);
                    let bi = mk(m.rb, "bi", b);
                    let ei = mk(m.re, "ei", e);
                    bjt_nodes[idx] = Some(BjtNodes {
                        c,
                        b,
                        e,
                        s,
                        ci,
                        bi,
                        ei,
                    });
                    scaled_bjt[idx] = Some(m.clone());
                }
                ElementKind::Diode { model, area, .. } => {
                    let m = scale_diode_model(&circuit.diode_models[*model], *area);
                    if m.rs > 0.0 {
                        diode_internal[idx] = Some(next);
                        unknown_names.push(format!("v({}.int)", el.name));
                        next += 1;
                    }
                    scaled_diode[idx] = Some(m);
                }
                _ => {}
            }
        }
        let num_voltage_unknowns = next;

        // Branch currents.
        let mut branch_of = vec![BranchSlot(None); circuit.elements.len()];
        for (idx, el) in circuit.elements.iter().enumerate() {
            let needs_branch = matches!(
                el.kind,
                ElementKind::Vsource { .. }
                    | ElementKind::Inductor { .. }
                    | ElementKind::Vcvs { .. }
                    | ElementKind::Ccvs { .. }
                    | ElementKind::BehavioralV { .. }
            );
            if needs_branch {
                branch_of[idx] = BranchSlot(Some(next));
                unknown_names.push(format!("i({})", el.name));
                next += 1;
            }
        }

        // Validate controlled-source references.
        for el in &circuit.elements {
            if let ElementKind::Cccs { vsource, .. } | ElementKind::Ccvs { vsource, .. } = &el.kind
            {
                let ok = circuit
                    .find_element(vsource)
                    .map(|i| matches!(circuit.elements[i].kind, ElementKind::Vsource { .. }))
                    .unwrap_or(false);
                if !ok {
                    return Err(SpiceError::Netlist(format!(
                        "{} references voltage source {vsource} which does not exist",
                        el.name
                    )));
                }
            }
        }

        // Compile every element into its device object (validates K-card
        // references along the way).
        let set = build_devices(
            circuit,
            &branch_of,
            &bjt_nodes,
            &scaled_bjt,
            &diode_internal,
        )?;

        Ok(Prepared {
            num_voltage_unknowns,
            num_unknowns: next,
            branch_of,
            scaled_bjt,
            scaled_diode,
            unknown_names,
            devices: set.devices,
            linear: set.linear,
            nonlinear: set.nonlinear,
            circuit: circuit.clone(),
            lint_warnings: Vec::new(),
        })
    }

    /// Compiled device objects, one per element, in insertion order.
    pub fn devices(&self) -> &[Arc<dyn Device>] {
        &self.devices
    }

    /// Unknown slot of an external node (`GROUND_SLOT` for ground).
    pub fn slot_of(&self, n: NodeId) -> usize {
        node_slot(n)
    }

    /// Branch-current slot of a named element, if it has one.
    pub fn branch_slot(&self, name: &str) -> Option<usize> {
        let idx = self.circuit.find_element(name)?;
        self.branch_of[idx].0
    }

    /// Voltage of node `n` in an unknown vector (0 for ground).
    pub fn voltage(&self, x: &[f64], n: NodeId) -> f64 {
        let s = self.slot_of(n);
        if s == GROUND_SLOT {
            0.0
        } else {
            x[s]
        }
    }
}

/// Unknown slot of an external node (`GROUND_SLOT` for ground).
#[inline]
pub(crate) fn node_slot(n: NodeId) -> usize {
    if n.is_ground() {
        GROUND_SLOT
    } else {
        n.0 - 1
    }
}

/// Reads unknown `slot` out of `x`, treating the ground sentinel as zero.
#[inline]
pub(crate) fn read_slot(x: &[f64], slot: usize) -> f64 {
    if slot == GROUND_SLOT {
        0.0
    } else {
        x[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_interning_is_case_insensitive() {
        let mut c = Circuit::new();
        let a = c.node("OUT");
        let b = c.node("out");
        assert_eq!(a, b);
        assert_eq!(c.node_name(a), "OUT");
        assert_eq!(c.find_node("Out"), Some(a));
    }

    #[test]
    fn ground_aliases() {
        let mut c = Circuit::new();
        assert_eq!(c.node("0"), NodeId::GROUND);
        assert_eq!(c.node("gnd"), NodeId::GROUND);
        assert!(NodeId::GROUND.is_ground());
    }

    #[test]
    fn compile_assigns_branches() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::gnd(), 1.0);
        c.resistor("R1", a, b, 1e3);
        c.inductor("L1", b, Circuit::gnd(), 1e-9);
        let p = Prepared::compile(&c).unwrap();
        assert_eq!(p.num_voltage_unknowns, 2);
        assert_eq!(p.num_unknowns, 4); // 2 nodes + V branch + L branch
        assert_eq!(p.branch_slot("V1"), Some(2));
        assert_eq!(p.branch_slot("L1"), Some(3));
        assert_eq!(p.branch_slot("R1"), None);
        assert_eq!(p.unknown_names[0], "v(a)");
        assert_eq!(p.unknown_names[2], "i(V1)");
    }

    #[test]
    fn bjt_internal_nodes_created_only_for_nonzero_parasitics() {
        let mut c = Circuit::new();
        let (cc, bb, ee) = (c.node("c"), c.node("b"), c.node("e"));
        let mut m = BjtModel::named("m1");
        m.rb = 100.0;
        m.rc = 20.0;
        // re = 0 -> no internal emitter node.
        let mi = c.add_bjt_model(m);
        c.bjt("Q1", cc, bb, ee, mi, 1.0);
        // A lone BJT is (deliberately) floating; bypass the pre-flight
        // lint to inspect the compiled layout.
        let p = Prepared::compile_with(&c, LintPolicy::Off).unwrap();
        // 3 external + 2 internal
        assert_eq!(p.num_voltage_unknowns, 5);
        let names = &p.unknown_names;
        assert!(names.iter().any(|n| n == "v(Q1.ci)"));
        assert!(names.iter().any(|n| n == "v(Q1.bi)"));
        assert!(!names.iter().any(|n| n == "v(Q1.ei)"));
    }

    #[test]
    fn bad_cccs_reference_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.cccs("F1", a, Circuit::gnd(), "Vmissing", 2.0);
        assert!(matches!(Prepared::compile(&c), Err(SpiceError::Netlist(_))));
    }

    #[test]
    #[should_panic(expected = "duplicate element name")]
    fn duplicate_names_panic() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R1", a, Circuit::gnd(), 1.0);
        c.resistor("r1", a, Circuit::gnd(), 2.0);
    }

    #[test]
    fn set_ac_and_wave() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("V1", a, Circuit::gnd(), 1.0);
        c.set_ac("V1", 1.0, 90.0).unwrap();
        c.set_source_wave("V1", SourceWave::Dc(2.0)).unwrap();
        assert!(c.set_ac("R9", 1.0, 0.0).is_err());
        match &c.elements()[0].kind {
            ElementKind::Vsource { wave, ac, .. } => {
                assert_eq!(*wave, SourceWave::Dc(2.0));
                assert_eq!(ac.mag, 1.0);
                assert_eq!(ac.phase_deg, 90.0);
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn ics_recorded() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.set_ic(a, 2.5);
        assert_eq!(c.ics(), &[(a, 2.5)]);
    }
}
