//! The unified device layer: model evaluation plus the one stamp
//! contract every analysis walks.
//!
//! Each circuit element is compiled (by [`Prepared::compile`]) into one
//! object implementing [`Device`]. The trait owns everything the
//! analyses need per element:
//!
//! * real-valued DC/transient stamping ([`Device::stamp_real`]) — the
//!   Newton linearization plus the trapezoidal charge companion,
//! * complex small-signal stamping ([`Device::stamp_ac`]),
//! * charge bookkeeping ([`Device::charge_slots`] /
//!   [`Device::update_charges`]),
//! * noise-generator enumeration ([`Device::noise`]),
//! * transient breakpoints ([`Device::breakpoints`]) and operating-point
//!   queries ([`Device::bjt_operating`]).
//!
//! Devices are partitioned at compile time into a **linear** set (their
//! stamps depend only on the mode, never on the solution vector) and a
//! **nonlinear** set. The Newton loop stamps the linear set once per
//! solve into a cached baseline and replays it by `memcpy` on every
//! subsequent iteration; only the nonlinear set is re-stamped. The same
//! walk, run through a pattern probe, declares the MNA sparsity pattern
//! to the sparse solver up front, so symbolic analysis happens before
//! the first numeric assembly.
//!
//! Adding a device means adding a file under `devices/` and one arm in
//! `build_devices` — no analysis file changes. The mutual inductor
//! (`mutual::MutualInductor`) is the proof: it exists only here.

pub mod behavioral;
pub mod bjt;
pub mod diode;
pub mod junction;
pub mod linear;
pub mod mutual;

pub use bjt::{eval_bjt, BjtOperating};
pub use diode::{eval_diode, DiodeOperating};

use crate::analysis::solver::ReplayTape;
use crate::analysis::stamp::{ChargeState, MnaSink, Mode, NonlinMemory, Options};
use crate::circuit::{
    node_slot, BjtNodes, BranchSlot, Circuit, ElementKind, Prepared, GROUND_SLOT,
};
use crate::error::{Result, SpiceError};
use crate::model::BjtModel;
use ahfic_num::{Complex, Scalar};
use std::fmt;
use std::sync::Arc;

/// Boltzmann constant (J/K).
pub const KB: f64 = 1.380649e-23;
/// Elementary charge (C).
pub const Q: f64 = 1.602176634e-19;

/// Context for real-valued (DC / transient) stamping.
pub struct RealCtx<'a> {
    /// The compiled circuit (element values are read through it at stamp
    /// time so sweeps that mutate the compiled circuit are honoured).
    pub prep: &'a Prepared,
    /// Analysis options (thermal voltage, gmin, ...).
    pub opts: &'a Options,
    /// DC or transient companion mode.
    pub mode: &'a Mode<'a>,
    /// Current solution estimate.
    pub x: &'a [f64],
}

/// Context for complex small-signal stamping.
pub struct AcCtx<'a> {
    /// The compiled circuit.
    pub prep: &'a Prepared,
    /// Analysis options.
    pub opts: &'a Options,
    /// Operating point the devices are linearized around.
    pub x_op: &'a [f64],
    /// Angular frequency (rad/s).
    pub omega: f64,
}

/// Context for operating-point queries (noise generators, reports).
pub struct OpCtx<'a> {
    /// The compiled circuit.
    pub prep: &'a Prepared,
    /// Analysis options.
    pub opts: &'a Options,
    /// Converged operating point.
    pub x: &'a [f64],
}

impl OpCtx<'_> {
    /// Device temperature in kelvin, recovered from the thermal voltage.
    pub fn temp_k(&self) -> f64 {
        self.opts.vt / (KB / Q)
    }
}

/// Ground-guarded stamper: wraps a matrix sink and the right-hand side;
/// all slot arguments may be [`GROUND_SLOT`], in which case the
/// contribution is dropped. [`RealStamper`] assembles DC and transient
/// systems, [`AcStamper`] complex small-signal ones.
///
/// Open one with [`MnaSink::stamper`]: a sparse solver kernel replaying
/// its frozen pattern then takes each stamp straight into its value slot
/// (after the same `(row, col)` sequence check), while every other sink
/// receives [`MnaSink::add`] calls.
pub struct Stamper<'a, T: Scalar> {
    mat: Target<'a, T>,
    rhs: &'a mut [T],
}

/// Real-valued (DC / transient) stamper.
pub type RealStamper<'a> = Stamper<'a, f64>;
/// Complex small-signal stamper.
pub type AcStamper<'a> = Stamper<'a, Complex>;

/// Where a [`Stamper`] writes matrix entries.
enum Target<'a, T: Scalar> {
    /// Any sink, one [`MnaSink::add`] call per stamp.
    Sink(&'a mut dyn MnaSink<T>),
    /// A sparse kernel's value slots.
    Tape(ReplayTape<'a, T>),
}

impl<'a, T: Scalar> Stamper<'a, T> {
    /// Wraps a matrix sink and RHS vector; stamps go through
    /// [`MnaSink::add`].
    pub fn new(mat: &'a mut dyn MnaSink<T>, rhs: &'a mut [T]) -> Self {
        Stamper {
            mat: Target::Sink(mat),
            rhs,
        }
    }

    /// Wraps a sparse kernel's replay tape and RHS vector.
    pub(crate) fn replaying(tape: ReplayTape<'a, T>, rhs: &'a mut [T]) -> Self {
        Stamper {
            mat: Target::Tape(tape),
            rhs,
        }
    }

    /// Adds `v` at `(r, c)` unless either index is ground.
    #[inline]
    pub fn add(&mut self, r: usize, c: usize, v: T) {
        if r != GROUND_SLOT && c != GROUND_SLOT {
            match &mut self.mat {
                Target::Tape(tape) => tape.add(r, c, v),
                Target::Sink(mat) => mat.add(r, c, v),
            }
        }
    }

    /// Adds `v` to RHS row `r` unless it is ground.
    #[inline]
    pub fn rhs_add(&mut self, r: usize, v: T) {
        if r != GROUND_SLOT {
            self.rhs[r] += v;
        }
    }

    /// Stamps an admittance `y` between nodes `p` and `n` (a conductance
    /// in real assembly).
    pub fn admittance(&mut self, p: usize, n: usize, y: T) {
        self.add(p, p, y);
        self.add(n, n, y);
        self.add(p, n, -y);
        self.add(n, p, -y);
    }

    /// Stamps an independent current `i` flowing from `p` to `n`.
    pub fn current(&mut self, p: usize, n: usize, i: T) {
        self.rhs_add(p, -i);
        self.rhs_add(n, i);
    }

    /// Stamps a transadmittance: current `y * (v(cp) - v(cn))` from `p`
    /// to `n`.
    pub fn transadmittance(&mut self, p: usize, n: usize, cp: usize, cn: usize, y: T) {
        self.add(p, cp, y);
        self.add(p, cn, -y);
        self.add(n, cp, -y);
        self.add(n, cn, y);
    }
}

/// One noise current generator between two unknown slots.
///
/// The one-sided power spectral density at frequency `f` is
/// `white + flicker / f` (A²/Hz): pure thermal and shot sources set only
/// `white`; 1/f sources set only `flicker`.
#[derive(Clone, Debug)]
pub struct NoiseGenerator {
    /// Name of the element this generator belongs to.
    pub element: String,
    /// Physical origin, e.g. `"thermal"`, `"shot-ic"`, `"flicker-ib"`.
    pub label: &'static str,
    /// Slot the noise current flows out of (may be [`GROUND_SLOT`]).
    pub p: usize,
    /// Slot the noise current flows into (may be [`GROUND_SLOT`]).
    pub n: usize,
    /// Frequency-independent PSD component (A²/Hz).
    pub white: f64,
    /// Flicker coefficient: contributes `flicker / f` to the PSD.
    pub flicker: f64,
}

impl NoiseGenerator {
    /// A white (thermal or shot) generator.
    pub fn white(element: &str, label: &'static str, p: usize, n: usize, psd: f64) -> Self {
        NoiseGenerator {
            element: element.to_string(),
            label,
            p,
            n,
            white: psd,
            flicker: 0.0,
        }
    }

    /// A pure 1/f generator with the given flicker coefficient.
    pub fn flicker(element: &str, label: &'static str, p: usize, n: usize, coeff: f64) -> Self {
        NoiseGenerator {
            element: element.to_string(),
            label,
            p,
            n,
            white: 0.0,
            flicker: coeff,
        }
    }

    /// One-sided PSD at frequency `f` (A²/Hz).
    pub fn psd(&self, f: f64) -> f64 {
        self.white + self.flicker / f
    }
}

/// How one element edge participates in the static topology graph the
/// pre-flight lint pass ([`crate::lint`]) analyzes.
///
/// The classification is about *structure*, not values: it answers
/// "does this element provide a DC path / define a voltage / force a
/// current between its terminals", which is what ground reachability,
/// voltage-loop and current-cutset analysis need.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeKind {
    /// A resistive DC path between the terminals (resistor, junction).
    Conductive,
    /// A branch-current element that pins the voltage across its
    /// terminals (V, E, H, B sources). Conducts DC, and loops of these
    /// are structurally singular.
    VoltageDef,
    /// An inductor branch: conducts DC like a voltage-definition branch
    /// but carries a tiny series resistance in the DC stamp, so pure
    /// inductor loops are solvable (with absurd currents) rather than
    /// singular.
    Inductive,
    /// A current-forcing element (I, G, F): no DC path between the
    /// terminals, and a cutset of these over-determines KCL.
    CurrentForcing,
    /// A capacitor: open at DC, so it conducts nothing for ground
    /// reachability, but it is a deliberate connection — a node reached
    /// only through capacitors is floating at DC.
    Capacitive,
    /// A sensing-only connection (controlled-source control pins): no
    /// current flows, but the node is referenced on purpose, so it does
    /// not count as dangling.
    Sense,
}

/// One edge a device contributes to the lint topology graph, in unknown
/// slots (either side may be [`GROUND_SLOT`]).
#[derive(Clone, Copy, Debug)]
pub struct TopologyEdge {
    /// First terminal slot.
    pub a: usize,
    /// Second terminal slot.
    pub b: usize,
    /// Structural role of the connection.
    pub kind: EdgeKind,
}

impl TopologyEdge {
    /// Convenience constructor.
    pub fn new(a: usize, b: usize, kind: EdgeKind) -> Self {
        TopologyEdge { a, b, kind }
    }
}

/// The per-element contract every analysis dispatches through.
///
/// Implementations read their element values from
/// [`RealCtx::prep`]`.circuit` at stamp time (never cache them at
/// compile time) so that sweeps mutating the compiled circuit — DC
/// source sweeps, Monte-Carlo resistance perturbations — are picked up
/// without recompiling. Model cards never change after compile, so
/// constants derived from them may be cached in the device.
pub trait Device: Send + Sync + fmt::Debug {
    /// Index of the element this device was compiled from.
    fn index(&self) -> usize;

    /// `true` if the real stamp depends on the solution vector `x`.
    /// Nonlinear devices are re-stamped every Newton iteration; linear
    /// ones land in the cached baseline.
    fn is_nonlinear(&self) -> bool {
        false
    }

    /// Number of [`ChargeState`] slots this device owns in the
    /// transient charge bank.
    fn charge_slots(&self) -> usize {
        0
    }

    /// Appends this device's edges to the lint topology graph, in
    /// unknown slots ([`GROUND_SLOT`] for grounded terminals). Required:
    /// every device must declare how it connects its terminals so the
    /// pre-flight static checks stay complete as devices are added.
    fn topology(&self, out: &mut Vec<TopologyEdge>);

    /// Stamps the real-valued (DC or transient-companion) linearization
    /// at `cx.x` into `s`.
    fn stamp_real(&self, cx: &RealCtx, mem: &mut NonlinMemory, s: &mut RealStamper);

    /// Stamps the complex small-signal model, linearized around
    /// `cx.x_op`, at `cx.omega` into `s`.
    fn stamp_ac(&self, cx: &AcCtx, s: &mut AcStamper);

    /// Recomputes this device's charge states at `cx.x` into `out`
    /// (length [`Device::charge_slots`]). Only called in transient mode.
    fn update_charges(&self, _cx: &RealCtx, _out: &mut [ChargeState]) {}

    /// Appends this device's noise generators at the operating point.
    fn noise(&self, _cx: &OpCtx, _out: &mut Vec<NoiseGenerator>) {}

    /// Appends transient breakpoints in `(0, t_stop]`.
    fn breakpoints(&self, _circuit: &Circuit, _t_stop: f64, _out: &mut Vec<f64>) {}

    /// Operating-point record if this device is a BJT.
    fn bjt_operating(&self, _cx: &OpCtx) -> Option<BjtOperating> {
        None
    }
}

/// The compiled device list plus its linear/nonlinear partition
/// (indices into `devices`, which is index-aligned with
/// `circuit.elements()`).
pub(crate) struct DeviceSet {
    pub devices: Vec<Arc<dyn Device>>,
    pub linear: Vec<usize>,
    pub nonlinear: Vec<usize>,
}

/// Compiles every element into its [`Device`] and partitions the result.
/// This is the single dispatch point on [`ElementKind`]: new element
/// kinds get a device file under `devices/` and one arm here.
pub(crate) fn build_devices(
    circuit: &Circuit,
    branch_of: &[BranchSlot],
    bjt_nodes: &[Option<BjtNodes>],
    scaled_bjt: &[Option<BjtModel>],
    diode_internal: &[Option<usize>],
) -> Result<DeviceSet> {
    let elements = circuit.elements();
    let mut devices: Vec<Arc<dyn Device>> = Vec::with_capacity(elements.len());
    let mut linear = Vec::new();
    let mut nonlinear = Vec::new();
    let branch = |idx: usize| branch_of[idx].0.expect("element with branch current");
    for (idx, el) in elements.iter().enumerate() {
        let dev: Arc<dyn Device> = match &el.kind {
            ElementKind::Resistor { p, n, .. } => Arc::new(linear::Resistor {
                idx,
                p: node_slot(*p),
                n: node_slot(*n),
            }),
            ElementKind::Capacitor { p, n, .. } => Arc::new(linear::Capacitor {
                idx,
                p: node_slot(*p),
                n: node_slot(*n),
            }),
            ElementKind::Inductor { p, n, .. } => Arc::new(linear::Inductor {
                idx,
                p: node_slot(*p),
                n: node_slot(*n),
                k: branch(idx),
            }),
            ElementKind::Vsource { p, n, .. } => Arc::new(linear::VoltageSource {
                idx,
                p: node_slot(*p),
                n: node_slot(*n),
                k: branch(idx),
            }),
            ElementKind::Isource { p, n, .. } => Arc::new(linear::CurrentSource {
                idx,
                p: node_slot(*p),
                n: node_slot(*n),
            }),
            ElementKind::Vcvs { p, n, cp, cn, .. } => Arc::new(linear::Vcvs {
                idx,
                p: node_slot(*p),
                n: node_slot(*n),
                cp: node_slot(*cp),
                cn: node_slot(*cn),
                k: branch(idx),
            }),
            ElementKind::Vccs { p, n, cp, cn, .. } => Arc::new(linear::Vccs {
                idx,
                p: node_slot(*p),
                n: node_slot(*n),
                cp: node_slot(*cp),
                cn: node_slot(*cn),
            }),
            ElementKind::Cccs { p, n, vsource, .. } => Arc::new(linear::Cccs {
                idx,
                p: node_slot(*p),
                n: node_slot(*n),
                j: control_branch(circuit, branch_of, vsource)?,
            }),
            ElementKind::Ccvs { p, n, vsource, .. } => Arc::new(linear::Ccvs {
                idx,
                p: node_slot(*p),
                n: node_slot(*n),
                j: control_branch(circuit, branch_of, vsource)?,
                k: branch(idx),
            }),
            ElementKind::BehavioralV { p, n, controls, .. } => {
                Arc::new(behavioral::BehavioralSource {
                    idx,
                    p: node_slot(*p),
                    n: node_slot(*n),
                    k: branch(idx),
                    controls: controls.iter().map(|c| node_slot(*c)).collect(),
                })
            }
            ElementKind::Diode { p, n, .. } => {
                let anode = node_slot(*p);
                Arc::new(diode::DiodeInstance {
                    idx,
                    anode,
                    internal: diode_internal[idx].unwrap_or(anode),
                    cathode: node_slot(*n),
                })
            }
            ElementKind::Bjt { .. } => Arc::new(bjt::BjtInstance {
                idx,
                nodes: bjt_nodes[idx].expect("BJT internal nodes resolved"),
                junctions: bjt::BjtJunctions::new(
                    scaled_bjt[idx].as_ref().expect("BJT model scaled"),
                ),
            }),
            ElementKind::MutualInd { l1, l2, k } => {
                let (i1, k1) = coupled_inductor(circuit, branch_of, &el.name, l1)?;
                let (i2, k2) = coupled_inductor(circuit, branch_of, &el.name, l2)?;
                if i1 == i2 {
                    return Err(SpiceError::Netlist(format!(
                        "{}: cannot couple inductor {l1} to itself",
                        el.name
                    )));
                }
                if !k.is_finite() || k.abs() > 1.0 {
                    return Err(SpiceError::Netlist(format!(
                        "{}: coupling coefficient must satisfy |k| <= 1, got {k}",
                        el.name
                    )));
                }
                Arc::new(mutual::MutualInductor {
                    idx,
                    i1,
                    i2,
                    k1,
                    k2,
                })
            }
        };
        if dev.is_nonlinear() {
            nonlinear.push(idx);
        } else {
            linear.push(idx);
        }
        devices.push(dev);
    }
    Ok(DeviceSet {
        devices,
        linear,
        nonlinear,
    })
}

/// Resolves the branch slot of the voltage source a current-controlled
/// element senses.
fn control_branch(circuit: &Circuit, branch_of: &[BranchSlot], vsource: &str) -> Result<usize> {
    circuit
        .find_element(vsource)
        .and_then(|i| branch_of[i].0)
        .ok_or_else(|| SpiceError::Netlist(format!("controlling source {vsource} not found")))
}

/// Resolves one side of a `K` coupling: the named element must be an
/// inductor; returns its element index and branch slot.
fn coupled_inductor(
    circuit: &Circuit,
    branch_of: &[BranchSlot],
    kname: &str,
    lname: &str,
) -> Result<(usize, usize)> {
    let i = circuit
        .find_element(lname)
        .ok_or_else(|| SpiceError::Netlist(format!("{kname}: no element named {lname}")))?;
    if !matches!(circuit.elements()[i].kind, ElementKind::Inductor { .. }) {
        return Err(SpiceError::Netlist(format!(
            "{kname}: {lname} is not an inductor"
        )));
    }
    Ok((i, branch_of[i].0.expect("inductor has a branch current")))
}
